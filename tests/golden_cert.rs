//! Golden certificates for the trusted checker — the adversarial half
//! of Theorem 3.5's certificate story. Five hand-forged certificates,
//! one per tampering class, must each be rejected with a pinned
//! structured reason; the §2.2 path-chain and introduction employee
//! queries get pinned *accepted* certificates; and the FP reachability,
//! gfp and nested gfp-in-lfp iteration traces and the Datalog
//! transitive-closure derivation are pinned byte-for-byte. Every value
//! here is a golden — a checker or producer change that moves one must
//! move the pinned line with it, on purpose.
//!
//! The forgeries are written out as literal certificate text, not
//! derived by mutating an emitted certificate: the checker must reject
//! them on replay evidence alone, with zero reference to any producer.

use bvq_cert::{check_text, CheckRequest, CheckedAnswer, Reject};
use bvq_datalog::parse_program;
use bvq_logic::parser::{parse_eso, parse_query};
use bvq_logic::{patterns, Query, Var};
use bvq_optimizer::to_bounded_query;
use bvq_relation::{Database, Tuple};
use bvq_workload::employee::{employee_database, employee_scy_query, EmployeeConfig};

/// The four-node directed path 0 → 1 → 2 → 3 every forgery replays on.
fn path4() -> Database {
    Database::builder(4)
        .relation("E", 2, (0..3).map(|i| Tuple::from_slice(&[i, i + 1])))
        .build()
}

const REACH_QUERY: &str = "(x1) [lfp S(x1) . (x1 = 0) | exists x2. (S(x2) & E(x2, x1))](x1)";
const TC_PROGRAM: &str = "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).";
const TWO_COLOR: &str =
    "exists2 C/1. forall x1. forall x2. (~E(x1,x2) | ((C(x1) & ~C(x2)) | (~C(x1) & C(x2))))";

fn reject_of(db: &Database, req: &CheckRequest, cert: &str) -> Reject {
    match check_text(db, req, cert) {
        Err(r) => r,
        Ok(a) => panic!("forged certificate was ACCEPTED: {a:?}\n{cert}"),
    }
}

/// Forgery 1 — tampered iteration delta. The honest trace reaches
/// 0, 1, 2, 3 in path order; this one claims 2 is reachable while the
/// chain only holds {0}: no justification `2 ∈ φ({0})` exists, and the
/// checker must say exactly that.
#[test]
fn forged_iteration_delta_is_unjustified() {
    let db = path4();
    let q = parse_query(REACH_QUERY).unwrap();
    let forged = "bvqcert 1 fp\n\
                  claim rows 1 4\n\
                  row 0\nrow 1\nrow 2\nrow 3\n\
                  begin 0\n\
                  step 0 +0\n\
                  step 0 +2\n\
                  step 0 +1\n\
                  step 0 +3\n\
                  conv 0\n\
                  end\n";
    let r = reject_of(&db, &CheckRequest::Query(&q), forged);
    assert_eq!(r.code(), "unjustified", "{r}");
    assert_eq!(
        r,
        Reject::Unjustified {
            fix: 0,
            tuple: Tuple::from_slice(&[2]),
        }
    );
}

/// Forgery 2 — truncated derivation tree. The claim lists all six
/// closure tuples but the tree stops before deriving ⟨0,3⟩; the
/// saturation sweep must notice the rule still fires. (The round count
/// is adjusted to the truncated tree's depth, so the *only* flaw is
/// the missing derivation.)
#[test]
fn truncated_derivation_tree_is_incomplete() {
    let db = path4();
    let p = parse_program(TC_PROGRAM).unwrap();
    let forged = "bvqcert 1 datalog\n\
                  claim rows 2 6\n\
                  row 0,1\nrow 0,2\nrow 0,3\nrow 1,2\nrow 1,3\nrow 2,3\n\
                  rounds 2\n\
                  step 0 0,1 : 0,1\n\
                  step 0 1,2 : 1,2\n\
                  step 0 2,3 : 2,3\n\
                  step 1 1,3 : 1,2 2,3\n\
                  step 1 0,2 : 0,1 1,2\n\
                  end\n";
    let req = CheckRequest::Datalog {
        program: &p,
        output: "T",
    };
    let r = reject_of(&db, &req, forged);
    assert_eq!(r.code(), "incomplete_derivation", "{r}");
    assert_eq!(
        r,
        Reject::IncompleteDerivation {
            rule: 1,
            tuple: Tuple::from_slice(&[0, 3]),
        }
    );
}

/// Forgery 3 — a premise at a non-derived tuple. The ⟨0,3⟩ step leans
/// on ⟨0,2⟩ *before* any step derives it, and ⟨0,2⟩ is not an EDB
/// fact; forward references are not evidence.
#[test]
fn premise_at_non_derived_tuple_is_rejected() {
    let db = path4();
    let p = parse_program(TC_PROGRAM).unwrap();
    let forged = "bvqcert 1 datalog\n\
                  claim rows 2 6\n\
                  row 0,1\nrow 0,2\nrow 0,3\nrow 1,2\nrow 1,3\nrow 2,3\n\
                  rounds 3\n\
                  step 0 0,1 : 0,1\n\
                  step 0 1,2 : 1,2\n\
                  step 0 2,3 : 2,3\n\
                  step 1 1,3 : 1,2 2,3\n\
                  step 1 0,3 : 0,2 2,3\n\
                  step 1 0,2 : 0,1 1,2\n\
                  end\n";
    let req = CheckRequest::Datalog {
        program: &p,
        output: "T",
    };
    let r = reject_of(&db, &req, forged);
    assert_eq!(r.code(), "underived_premise", "{r}");
    assert_eq!(
        r,
        Reject::UnderivedPremise {
            step: 4,
            tuple: Tuple::from_slice(&[0, 2]),
        }
    );
}

/// Forgery 4 — a witness violating a conjunct. `C = {1, 2}` colors the
/// adjacent nodes 1 and 2 identically (both uncolored on 0–1's side,
/// both colored across 1–2), so the 2-coloring body fails and the
/// claimed `true` has no witness.
#[test]
fn witness_violating_a_conjunct_is_rejected() {
    let db = path4();
    let e = parse_eso(TWO_COLOR).unwrap();
    let forged = "bvqcert 1 eso\n\
                  claim bool true\n\
                  witness C 1 2\n\
                  row 1\nrow 2\n\
                  end\n";
    let r = reject_of(&db, &CheckRequest::Eso(&e), forged);
    assert_eq!(r.code(), "witness_violation", "{r}");
    assert_eq!(r, Reject::WitnessViolation);
}

/// Forgery 5 — an off-by-one round count. The derivation tree is the
/// honest one (depth 3), but the header claims 4 rounds; the depth
/// recount must refuse the padding.
#[test]
fn off_by_one_round_count_is_a_round_mismatch() {
    let db = path4();
    let p = parse_program(TC_PROGRAM).unwrap();
    let forged = "bvqcert 1 datalog\n\
                  claim rows 2 6\n\
                  row 0,1\nrow 0,2\nrow 0,3\nrow 1,2\nrow 1,3\nrow 2,3\n\
                  rounds 4\n\
                  step 0 0,1 : 0,1\n\
                  step 0 1,2 : 1,2\n\
                  step 0 2,3 : 2,3\n\
                  step 1 1,3 : 1,2 2,3\n\
                  step 1 0,2 : 0,1 1,2\n\
                  step 1 0,3 : 0,2 2,3\n\
                  end\n";
    let req = CheckRequest::Datalog {
        program: &p,
        output: "T",
    };
    let r = reject_of(&db, &req, forged);
    assert_eq!(r.code(), "round_mismatch", "{r}");
}

/// The honest FP reachability iteration trace, pinned byte-for-byte:
/// the producer's encoding is part of the wire contract the replica
/// protocol and the repro files depend on.
#[test]
fn fp_reach_trace_golden() {
    let db = path4();
    let q = parse_query(REACH_QUERY).unwrap();
    let cert = bvq_core::certgen::certify_query(&db, &q).expect("reach certifies");
    let encoded = cert.encode();
    assert_eq!(
        encoded,
        "bvqcert 1 fp\n\
         claim rows 1 4\n\
         row 0\nrow 1\nrow 2\nrow 3\n\
         begin 0\n\
         step 0 +0\n\
         step 0 +1\n\
         step 0 +2\n\
         step 0 +3\n\
         conv 0\n\
         end\n"
    );
    match check_text(&db, &CheckRequest::Query(&q), &encoded) {
        Ok(CheckedAnswer::Rows(rel)) => assert_eq!(rel.len(), 4),
        other => panic!("golden trace not accepted: {other:?}"),
    }
}

/// The honest transitive-closure derivation certificate, pinned
/// byte-for-byte: the semi-naive loop records each fact in the round
/// that first derives it — the three edges, then the two 2-paths, then
/// ⟨0,3⟩ — sorted by tuple within a round, and the tree is 3 deep.
#[test]
fn tc_derivation_golden() {
    let db = path4();
    let p = parse_program(TC_PROGRAM).unwrap();
    let cert = bvq_core::certgen::certify_datalog(&db, &p, "T").expect("TC certifies");
    let encoded = cert.encode();
    assert_eq!(
        encoded,
        "bvqcert 1 datalog\n\
         claim rows 2 6\n\
         row 0,1\nrow 0,2\nrow 0,3\nrow 1,2\nrow 1,3\nrow 2,3\n\
         rounds 3\n\
         step 0 0,1 : 0,1\n\
         step 0 1,2 : 1,2\n\
         step 0 2,3 : 2,3\n\
         step 1 0,2 : 0,1 1,2\n\
         step 1 1,3 : 1,2 2,3\n\
         step 1 0,3 : 0,2 2,3\n\
         end\n"
    );
    let req = CheckRequest::Datalog {
        program: &p,
        output: "T",
    };
    match check_text(&db, &req, &encoded) {
        Ok(CheckedAnswer::Rows(rel)) => assert_eq!(rel.len(), 6),
        other => panic!("golden derivation not accepted: {other:?}"),
    }
}

/// §2.2 / Table 2: the path-chain query — pinned accepted certificate.
/// The naive path-of-length-3 query is pure FO, so its certificate is
/// all claim and no trace; the checker verifies each claimed row by
/// direct membership.
#[test]
fn paper_path_chain_golden() {
    let db = path4();
    let q = Query::new(vec![Var(0), Var(1)], patterns::path_naive(3));
    let cert = bvq_core::certgen::certify_query(&db, &q).expect("path chain certifies");
    let encoded = cert.encode();
    assert_eq!(
        encoded,
        "bvqcert 1 fp\n\
         claim rows 2 1\n\
         row 0,3\n\
         end\n",
        "the length-3 path on a 4-node path is exactly ⟨0,3⟩"
    );
    match check_text(&db, &CheckRequest::Query(&q), &encoded) {
        Ok(CheckedAnswer::Rows(rel)) => {
            assert_eq!(rel.sorted(), vec![Tuple::from_slice(&[0, 3])]);
        }
        other => panic!("golden path-chain certificate not accepted: {other:?}"),
    }
    // And the claim is not taken on faith: overstating it by one
    // fabricated row must flip the verdict.
    let inflated = "bvqcert 1 fp\n\
                    claim rows 2 2\n\
                    row 0,3\nrow 1,3\n\
                    end\n";
    let r = reject_of(&db, &CheckRequest::Query(&q), inflated);
    assert_eq!(r.code(), "claim_mismatch", "{r}");
}

/// The introduction's employee/manager example — pinned accepted
/// certificate for the bounded-variable form of the acyclic query, on
/// the same seeded database the analysis goldens use.
#[test]
fn employee_query_golden() {
    // A reduced instance of the analysis goldens' database: the
    // membership replay is per-row, and a debug build cannot afford 60
    // claimed rows over a 76-element domain.
    let cfg = EmployeeConfig {
        employees: 18,
        departments: 3,
        salary_levels: 5,
    };
    let db = employee_database(cfg, 11);
    let (q, _k) = to_bounded_query(&employee_scy_query()).expect("employee query is bounded");
    let cert = bvq_core::certgen::certify_query(&db, &q).expect("employee query certifies");
    let encoded = cert.encode();
    let rows = match check_text(&db, &CheckRequest::Query(&q), &encoded) {
        Ok(CheckedAnswer::Rows(rel)) => rel,
        other => panic!("employee certificate not accepted: {other:?}"),
    };
    // Pinned on (the reduced config, seed 11): the certified answer is
    // the direct answer.
    let direct =
        bvq_server::exec::execute(&db, &bvq_server::exec::ExecRequest::query(q.to_string()))
            .expect("employee query evaluates");
    match direct.answer {
        bvq_server::exec::Answer::Rows(rel) => {
            assert_eq!(rows.sorted(), rel.sorted());
            assert_eq!(rows.len(), 18, "pinned answer size for seed 11");
        }
        other => panic!("employee query answered {other:?}"),
    }
}

/// The gfp mirror of the reachability trace: nodes with an infinite
/// outgoing path, of which a finite path has none. The chain starts
/// from the full domain and deletes the sink, then each node whose only
/// successor was deleted the round before.
const INFINITE_PATH_QUERY: &str = "(x1) [gfp S(x1) . exists x2. (E(x1, x2) & S(x2))](x1)";

#[test]
fn gfp_trace_golden() {
    let db = path4();
    let q = parse_query(INFINITE_PATH_QUERY).unwrap();
    let cert = bvq_core::certgen::certify_query(&db, &q).expect("gfp certifies");
    let encoded = cert.encode();
    assert_eq!(
        encoded,
        "bvqcert 1 fp\n\
         claim rows 1 0\n\
         begin 0\n\
         step 0 -3\n\
         step 0 -2\n\
         step 0 -1\n\
         step 0 -0\n\
         conv 0\n\
         end\n"
    );
    match check_text(&db, &CheckRequest::Query(&q), &encoded) {
        Ok(CheckedAnswer::Rows(rel)) => assert!(rel.is_empty()),
        other => panic!("golden gfp trace not accepted: {other:?}"),
    }
}

/// §2.2's fairness sentence from node 0: an lfp around a gfp that reads
/// the lfp's chain, so the inner fixpoint re-converges between outer
/// rounds. A 2-cycle 1 ⇄ 2 off the path with `P` only at 1.
fn fairness_db() -> Database {
    Database::builder(4)
        .relation("E", 2, [[0u32, 1], [1, 2], [2, 1], [2, 3]])
        .relation("P", 1, [[1u32]])
        .build()
}

#[test]
fn nested_gfp_in_lfp_trace_golden() {
    let db = fairness_db();
    let q = Query::sentence(patterns::fairness(bvq_logic::Term::Const(0)));
    let cert = bvq_core::certgen::certify_query(&db, &q).expect("fairness certifies");
    let encoded = cert.encode();
    // Outer round 1 converges T with S = ∅; the step adds the sink 3,
    // which invalidates T; outer round 2 re-converges T from its seed
    // and confirms S.
    assert_eq!(
        encoded,
        "bvqcert 1 fp\n\
         claim bool false\n\
         begin 0\n\
         begin 1\n\
         step 1 -1 -2\n\
         step 1 -0\n\
         conv 1\n\
         step 0 +3\n\
         begin 1\n\
         step 1 -1\n\
         step 1 -0 -2\n\
         conv 1\n\
         conv 0\n\
         end\n"
    );
    match check_text(&db, &CheckRequest::Query(&q), &encoded) {
        Ok(CheckedAnswer::Boolean(b)) => assert!(!b),
        other => panic!("golden nested trace not accepted: {other:?}"),
    }
}
