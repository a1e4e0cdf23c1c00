//! Compiled-vs-interpreted integration: the bytecode executor and the
//! Datalog rule kernels must agree with the AST-walking engines on a
//! seeded generator corpus across all four languages, honor deadlines
//! and thread counts, and surface their listings through `explain`.

use bvq_fuzz::{gen_case, CaseKind, Lang};
use bvq_prng::Rng;
use bvq_server::exec::{execute, explain, Answer, CompileMode, EvalOptions, ExecRequest};
use bvq_server::RunError;

fn base_request(kind: &CaseKind) -> ExecRequest {
    match kind {
        CaseKind::Query(q) => ExecRequest::query(q.to_string()),
        CaseKind::Datalog(p, out) => ExecRequest::datalog(p.to_text(), out.clone()),
    }
}

fn with_mode(req: &ExecRequest, mode: CompileMode) -> ExecRequest {
    req.clone().with_opts(EvalOptions {
        compile: mode,
        ..EvalOptions::default()
    })
}

/// Normalizes an outcome for equality: rows sorted, errors by code.
fn norm(db: &bvq_relation::Database, req: &ExecRequest) -> Result<String, String> {
    match execute(db, req) {
        Ok(out) => Ok(match out.answer {
            Answer::Boolean(b) => format!("bool {b}"),
            Answer::Rows(rel) => format!("{:?}", rel.sorted()),
            Answer::Text(t) => format!("text {t}"),
        }),
        Err(e) => Err(e.code().to_string()),
    }
}

#[test]
fn compiled_agrees_with_interpreted_across_generator_corpus() {
    // ≥ 200 cases: 55 seeds × 4 languages.
    let per_lang = 55u64;
    let mut checked = 0u64;
    for lang in Lang::all() {
        for i in 0..per_lang {
            let case = gen_case(&mut Rng::seed_from_u64(0xC0_55 + i), lang);
            let req = base_request(&case.kind);
            let off = norm(&case.db, &with_mode(&req, CompileMode::Off));
            let on = norm(&case.db, &with_mode(&req, CompileMode::On));
            assert_eq!(off, on, "{lang} seed {i} diverged\ncase: {}", case.text());
            checked += 1;
        }
    }
    assert!(checked >= 200, "corpus too small: {checked}");
}

#[test]
fn compiled_deadline_aborts_inside_fixpoint_loops() {
    let db = bvq_relation::parse_database(
        "domain 24\nrel E/2\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\nend",
    )
    .unwrap();
    let mut req =
        ExecRequest::query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)");
    req.opts.compile = CompileMode::On;
    req.opts.deadline = Some(std::time::Instant::now());
    let err = execute(&db, &req).unwrap_err();
    assert_eq!(err.code(), "deadline_exceeded");
    assert!(matches!(err, RunError::Eval(_)));
    // Datalog kernels abort between rounds too.
    let mut req = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
    req.opts.deadline = Some(std::time::Instant::now());
    let err = execute(&db, &req).unwrap_err();
    assert_eq!(err.code(), "deadline_exceeded");
}

#[test]
fn compiled_executor_is_thread_count_independent() {
    for lang in Lang::all() {
        for i in 0..10u64 {
            let case = gen_case(&mut Rng::seed_from_u64(0x7EAD + i), lang);
            let req = base_request(&case.kind);
            let mut one = with_mode(&req, CompileMode::On);
            one.opts.threads = Some(1);
            let mut many = with_mode(&req, CompileMode::On);
            many.opts.threads = Some(4);
            assert_eq!(
                norm(&case.db, &one),
                norm(&case.db, &many),
                "{lang} seed {i} thread-dependent\ncase: {}",
                case.text()
            );
        }
    }
}

#[test]
fn explain_surfaces_bytecode_and_cost() {
    let db = bvq_relation::parse_database("domain 6\nrel E/2\n0 1\n1 2\n2 3\nend").unwrap();
    let req = ExecRequest::query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)");
    let report = explain(&db, &req, false).unwrap();
    let bc = report.bytecode.expect("fixpoint query lowers");
    assert!(bc.contains(";; bytecode"), "{bc}");
    assert!(bc.contains("entry:"), "{bc}");
    assert!(report.cost.iter().any(|l| l.starts_with("cost:")));
    assert!(
        report.engine == "interpreted" || report.engine.starts_with("compiled ("),
        "{}",
        report.engine
    );
}
