//! No bytes a replica sends may panic the coordinator's checker.
//!
//! Honest certificates from the engine's producers — an FP transitive
//! closure, a reachability trace, a gfp trace, a PFP cycle, an FO
//! answer and a Datalog derivation tree — are damaged in three ways:
//! every prefix truncation, every single-byte deletion, and a fixed set
//! of single-byte substitutions. Each damaged text goes through
//! [`bvq_cert::check_text`], which must return (accepting or with a
//! structured [`Reject`](bvq_cert::Reject)) and never panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bvq_cert::{check_text, Certificate, CheckRequest};
use bvq_datalog::{parse_program, Program};
use bvq_logic::parser::parse_query;
use bvq_logic::{patterns, Query, Var};
use bvq_relation::{Database, Tuple};

const FP_TC: &str =
    "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)";
const REACH: &str = "(x1) [lfp S(x1) . (x1 = 0) | exists x2. (S(x2) & E(x2, x1))](x1)";
const INFINITE_PATH: &str = "(x1) [gfp S(x1) . exists x2. (E(x1, x2) & S(x2))](x1)";
const FO_2HOP: &str = "(x1) exists x2. (E(0, x2) & E(x2, x1))";
const TC_PROGRAM: &str = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";

/// Bytes substituted at every position: digits, separators, signs, a
/// line break and a letter — each one a plausible wire corruption that
/// keeps the text UTF-8.
const SUBSTITUTES: &[u8] = b"019 ,+-\nx";

fn path(n: u32) -> Database {
    Database::builder(n as usize)
        .relation("E", 2, (0..n - 1).map(|i| Tuple::from_slice(&[i, i + 1])))
        .build()
}

enum Target {
    Query(Query),
    Datalog(Program),
}

/// Every damaged form of `honest`, for `target` on `db`, must check
/// without a panic; returns how many were checked.
fn sweep(name: &str, db: &Database, target: &Target, honest: &str) -> usize {
    let req = match target {
        Target::Query(q) => CheckRequest::Query(q),
        Target::Datalog(p) => CheckRequest::Datalog {
            program: p,
            output: "T",
        },
    };
    assert!(
        check_text(db, &req, honest).is_ok(),
        "{name}: the honest certificate is rejected"
    );
    let bytes = honest.as_bytes();
    let mut damaged: Vec<Vec<u8>> = Vec::new();
    for i in 0..bytes.len() {
        damaged.push(bytes[..i].to_vec());
        let mut deleted = bytes.to_vec();
        deleted.remove(i);
        damaged.push(deleted);
        for &b in SUBSTITUTES.iter().filter(|&&b| b != bytes[i]) {
            let mut substituted = bytes.to_vec();
            substituted[i] = b;
            damaged.push(substituted);
        }
    }
    for text in &damaged {
        let text = std::str::from_utf8(text).expect("ASCII certificates stay UTF-8");
        let outcome = catch_unwind(AssertUnwindSafe(|| check_text(db, &req, text)));
        assert!(outcome.is_ok(), "{name}: the checker panicked on\n{text}");
    }
    damaged.len()
}

fn query_cert(db: &Database, q: &Query) -> String {
    bvq_core::certgen::certify_query(db, q)
        .expect("the query certifies")
        .encode()
}

#[test]
fn damaged_engine_certificates_never_panic_the_checker() {
    let mut checked = 0;
    for (name, text, n) in [
        ("fp_tc", FP_TC, 5),
        ("reach", REACH, 6),
        ("gfp", INFINITE_PATH, 5),
        ("fo_2hop", FO_2HOP, 5),
    ] {
        let db = path(n);
        let q = parse_query(text).unwrap();
        let honest = query_cert(&db, &q);
        checked += sweep(name, &db, &Target::Query(q), &honest);
    }
    // [pfp S(x1). ¬S(x1)] flips between ∅ and the full domain.
    let db = path(3);
    let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
    let honest = query_cert(&db, &q);
    assert!(honest.contains("\ncycle 0 "), "{honest}");
    checked += sweep("pfp_cycle", &db, &Target::Query(q), &honest);
    let db = path(5);
    let p = parse_program(TC_PROGRAM).unwrap();
    let honest = bvq_core::certgen::certify_datalog(&db, &p, "T")
        .expect("TC certifies")
        .encode();
    checked += sweep("dl_tc", &db, &Target::Datalog(p), &honest);
    assert!(checked > 5_000, "only {checked} damaged certificates");
}

/// A `cycle` record naming the largest round number is a bad cycle,
/// not an arithmetic overflow.
#[test]
fn cycle_at_the_largest_round_is_a_bad_cycle() {
    let db = path(3);
    let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
    let honest = query_cert(&db, &q);
    let at = honest.find("\ncycle 0 ").expect("a cycle record") + "\ncycle 0 ".len();
    let end = at + honest[at..].find('\n').unwrap();
    let forged = format!("{}{}{}", &honest[..at], usize::MAX, &honest[end..]);
    let outcome = catch_unwind(|| check_text(&db, &CheckRequest::Query(&q), &forged));
    let reject = outcome.expect("no panic").unwrap_err();
    assert_eq!(reject.code(), "bad_cycle", "{reject}");
}

/// The substitution sweep is not vacuous: some damaged traces still
/// parse and are rejected by the replay for what they claim, and any
/// damaged trace the checker accepts still yields the honest answer.
#[test]
fn damaged_traces_reach_the_replay_and_never_change_the_answer() {
    let db = path(5);
    let q = parse_query(REACH).unwrap();
    let honest = query_cert(&db, &q);
    let req = CheckRequest::Query(&q);
    let answer = check_text(&db, &req, &honest).unwrap();
    let mut replayed = 0;
    for i in 0..honest.len() {
        let mut text = honest.clone().into_bytes();
        text[i] = b'1';
        let text = String::from_utf8(text).unwrap();
        if Certificate::parse(&text).is_err() {
            continue;
        }
        match check_text(&db, &req, &text) {
            Ok(a) => assert_eq!(a, answer, "a damaged trace changed the answer:\n{text}"),
            Err(reject) => {
                assert_ne!(reject.code(), "malformed");
                replayed += 1;
            }
        }
    }
    assert!(replayed > 0);
}
