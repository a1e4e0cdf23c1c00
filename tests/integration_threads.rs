//! Thread-count independence: every evaluator must return tuple-for-tuple
//! identical answers (and identical statistics) whether it runs on 1, 2,
//! or 4 worker threads. All parallel merges in the engine are set unions
//! of results computed from disjoint partitions, so these are exact
//! equalities, not approximations.

use bvq_core::{
    plan_query, BackendMode, BoundedEvaluator, FpEvaluator, FpStrategy, NaiveEvaluator,
    PfpEvaluator,
};
use bvq_datalog::{eval_naive_with, eval_seminaive_with};
use bvq_logic::parser::parse_query;
use bvq_logic::{patterns, Query, Var};
use bvq_mucalc::{parse_mu, to_fp2};
use bvq_optimizer::to_bounded_query;
use bvq_relation::{Database, EvalConfig, EvalStats, Relation};
use bvq_workload::employee::{employee_database, employee_scy_query, EmployeeConfig};
use bvq_workload::formulas::{random_fo, random_fp};
use bvq_workload::graphs::{graph_db, GraphKind};
use bvq_workload::instances::random_path_system;
use bvq_workload::kripke_gen::random_kripke;

const THREADS: [usize; 3] = [1, 2, 4];

/// Runs `eval` under each thread count and asserts all outcomes equal the
/// single-threaded one.
fn assert_thread_independent(label: &str, eval: impl Fn(EvalConfig) -> (Relation, EvalStats)) {
    let (base_rel, base_stats) = eval(EvalConfig::sequential());
    for t in THREADS {
        let (rel, stats) = eval(EvalConfig::with_threads(t));
        assert_eq!(
            rel.sorted(),
            base_rel.sorted(),
            "{label}: answers differ at {t} threads"
        );
        assert_eq!(stats, base_stats, "{label}: stats differ at {t} threads");
    }
}

#[test]
fn fo_answers_identical_across_thread_counts() {
    let db = graph_db(GraphKind::Sparse(3), 24, 7);
    for seed in 0..6 {
        let f = random_fo(3, 25, seed);
        let q = Query::new(vec![Var(0), Var(1), Var(2)], f);
        assert_thread_independent(&format!("FO seed {seed}"), |cfg| {
            BoundedEvaluator::new(&db, 3)
                .with_config(cfg)
                .eval_query(&q)
                .unwrap()
        });
        assert_thread_independent(&format!("naive FO seed {seed}"), |cfg| {
            NaiveEvaluator::new(&db)
                .with_config(cfg)
                .eval_query(&q)
                .unwrap()
        });
    }
}

#[test]
fn fp_answers_identical_across_thread_counts() {
    let db = graph_db(GraphKind::Sparse(2), 30, 11);
    let reach = Query::new(vec![Var(0)], patterns::reach_from_const(0));
    assert_thread_independent("FP reach", |cfg| {
        FpEvaluator::new(&db, 2)
            .with_config(cfg)
            .eval_query(&reach)
            .unwrap()
    });
    for seed in 0..4 {
        let f = random_fp(3, 12, 2, seed);
        let q = Query::new(vec![Var(0)], f);
        assert_thread_independent(&format!("FP seed {seed}"), |cfg| {
            PfpEvaluator::new(&db, 3)
                .with_config(cfg)
                .eval_query(&q)
                .unwrap()
        });
    }
}

/// Seminaive μ rounds — transitive closure on a path and on an
/// Erdős–Rényi graph, and reachability from a parameter — give the same
/// answers and statistics at every thread count, interpreted and
/// compiled, and the same answers and round counts as naive rounds.
#[test]
fn seminaive_closures_identical_across_thread_counts() {
    let tc = parse_query(
        "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)",
    )
    .unwrap();
    let param =
        parse_query("(x1, x2) [lfp T(x1). x1 = x2 | exists x3. (T(x3) & E(x3, x1))](x1)").unwrap();
    let cases = [
        ("path TC", graph_db(GraphKind::Path, 32, 1), &tc),
        ("ER TC", graph_db(GraphKind::Sparse(3), 40, 5), &tc),
        (
            "parameterised reach",
            graph_db(GraphKind::Sparse(2), 36, 9),
            &param,
        ),
    ];
    for (label, db, q) in cases {
        let (naive, naive_stats) = FpEvaluator::new(&db, 3)
            .with_strategy(FpStrategy::Naive)
            .with_config(EvalConfig::sequential())
            .eval_query(q)
            .unwrap();
        assert!(
            naive_stats.fixpoint_iterations > 2,
            "{label}: too few rounds"
        );
        assert_thread_independent(label, |cfg| {
            FpEvaluator::new(&db, 3)
                .with_config(cfg)
                .eval_query(q)
                .unwrap()
        });
        let (rel, stats) = FpEvaluator::new(&db, 3)
            .with_config(EvalConfig::with_threads(2))
            .eval_query(q)
            .unwrap();
        assert_eq!(rel.sorted(), naive.sorted(), "{label}: answers differ");
        assert_eq!(
            stats.fixpoint_iterations, naive_stats.fixpoint_iterations,
            "{label}: round counts differ"
        );
        let plan = plan_query(&db, q, 3, false, None).unwrap();
        for t in THREADS {
            let ev = plan
                .eval_compiled(&db, &EvalConfig::with_threads(t))
                .unwrap();
            assert_eq!(
                ev.answer.sorted(),
                naive.sorted(),
                "{label}: compiled at {t} threads"
            );
            assert_eq!(
                ev.stats.fixpoint_iterations, naive_stats.fixpoint_iterations,
                "{label}: compiled rounds at {t} threads"
            );
        }
    }
}

/// Dense FO³ and FP³ at n = 128: 2.1M points per cylinder, the scale of
/// the benchmark's ER graph, where a kernel that split its points over
/// threads would do so.
/// The interpreter and the compiled engine, both on the dense backend,
/// give identical answers and statistics at every thread count.
#[test]
fn dense_cylinders_at_benchmark_scale_identical_across_thread_counts() {
    let db = graph_db(GraphKind::Sparse(2), 128, 45);
    let two_hop = parse_query("(x1, x2) exists x3. (E(x1, x3) & E(x3, x2))").unwrap();
    let tc = parse_query(
        "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)",
    )
    .unwrap();
    for (label, q) in [("FO3 2-hop", &two_hop), ("FP3 tc", &tc)] {
        assert_thread_independent(label, |cfg| {
            FpEvaluator::new(&db, 3)
                .with_backend(BackendMode::Dense)
                .with_config(cfg)
                .eval_query(q)
                .unwrap()
        });
        let plan = plan_query(&db, q, 3, false, None).unwrap();
        assert_thread_independent(&format!("compiled {label}"), |cfg| {
            let ev = plan.eval_compiled(&db, &cfg).unwrap();
            (ev.answer, ev.stats)
        });
        let (interpreted, _) = FpEvaluator::new(&db, 3)
            .with_backend(BackendMode::Dense)
            .eval_query(q)
            .unwrap();
        let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
        assert!(!interpreted.is_empty(), "{label}: empty answer");
        assert_eq!(
            compiled.answer.sorted(),
            interpreted.sorted(),
            "{label}: compiled ≠ interpreted"
        );
    }
}

#[test]
fn kripke_model_checking_identical_across_thread_counts() {
    // μ-calculus checking through the FP² translation over a seeded
    // Kripke structure: "some path visits p infinitely often".
    let k = random_kripke(48, 3, 41);
    let db = k.to_database();
    let f = parse_mu("nu Z. mu Y. <>((p & Z) | Y)").unwrap();
    let q = Query::new(vec![Var(0)], to_fp2(&f).unwrap());
    assert_thread_independent("Kripke FP²", |cfg| {
        FpEvaluator::new(&db, 2)
            .with_config(cfg)
            .eval_query(&q)
            .unwrap()
    });
}

#[test]
fn employee_query_identical_across_thread_counts() {
    // The acyclic core of the paper's introduction query through the
    // bounded-width plan (the full query is cyclic, so it has no join tree).
    let cfg = EmployeeConfig {
        employees: 14,
        departments: 3,
        salary_levels: 4,
    };
    let db = employee_database(cfg, 42);
    let (q, k) = to_bounded_query(&employee_scy_query()).unwrap();
    assert_thread_independent("employee query", |c| {
        BoundedEvaluator::new(&db, k)
            .with_config(c)
            .eval_query(&q)
            .unwrap()
    });
}

#[test]
fn datalog_identical_across_thread_counts() {
    // Path Systems as Datalog (Proposition 3.2's source problem), both
    // evaluation strategies. Stats must match too: worker-local recorders
    // are merged in rule order.
    let ps = random_path_system(60, 400, 3, 5);
    let db = ps.to_database();
    let prog = ps.to_datalog();
    for eval in [eval_naive_with, eval_seminaive_with] {
        let base = eval(&prog, &db, &EvalConfig::sequential()).unwrap();
        for t in THREADS {
            let out = eval(&prog, &db, &EvalConfig::with_threads(t)).unwrap();
            assert_eq!(out.idb.len(), base.idb.len());
            for ((p, r), (bp, br)) in out.idb.iter().zip(base.idb.iter()) {
                assert_eq!(p, bp);
                assert_eq!(r.sorted(), br.sorted(), "IDB {p} differs at {t} threads");
            }
            assert_eq!(out.stats, base.stats, "stats differ at {t} threads");
        }
    }
}

#[test]
fn empty_relations_are_thread_safe() {
    // Databases whose relations are all empty exercise the zero-length
    // partitioning paths of every kernel.
    let db = Database::builder(8)
        .relation("E", 2, Vec::<[u32; 2]>::new())
        .relation("P", 1, Vec::<[u32; 1]>::new())
        .build();
    let q = Query::new(vec![Var(0)], random_fo(2, 15, 3));
    assert_thread_independent("empty FO", |cfg| {
        BoundedEvaluator::new(&db, 2)
            .with_config(cfg)
            .eval_query(&q)
            .unwrap()
    });
    let reach = Query::new(vec![Var(0)], patterns::reach_from_const(0));
    assert_thread_independent("empty FP", |cfg| {
        FpEvaluator::new(&db, 2)
            .with_config(cfg)
            .eval_query(&reach)
            .unwrap()
    });
}

#[test]
fn trace_structure_identical_across_thread_counts() {
    // The span trees recorded by `--trace` must have bit-identical
    // structural content (kinds, details, arities, cardinalities, round
    // indices — everything except wall times) at every thread count:
    // per-worker buffers merge in chunk order, never arrival order.
    let db = graph_db(GraphKind::Sparse(3), 24, 7);

    // FO^3 under the bounded evaluator.
    let fo = Query::new(vec![Var(0), Var(1), Var(2)], random_fo(3, 25, 2));
    let base = BoundedEvaluator::new(&db, 3)
        .with_config(EvalConfig::sequential().with_trace(true))
        .eval_query_traced(&fo)
        .unwrap()
        .trace
        .expect("trace enabled");
    for t in THREADS {
        let trace = BoundedEvaluator::new(&db, 3)
            .with_config(EvalConfig::with_threads(t).with_trace(true))
            .eval_query_traced(&fo)
            .unwrap()
            .trace
            .expect("trace enabled");
        assert!(
            trace.same_structure(&base),
            "FO trace structure differs at {t} threads:\n{}\nvs\n{}",
            trace.structure(),
            base.structure()
        );
    }

    // FP^2 reachability: fixpoint rounds carry round indices, which are
    // part of the structural content and must also be stable.
    let reach = Query::new(vec![Var(0)], patterns::reach_from_const(0));
    let base = FpEvaluator::new(&db, 2)
        .with_config(EvalConfig::sequential().with_trace(true))
        .eval_query_traced(&reach)
        .unwrap()
        .trace
        .expect("trace enabled");
    for t in THREADS {
        let trace = FpEvaluator::new(&db, 2)
            .with_config(EvalConfig::with_threads(t).with_trace(true))
            .eval_query_traced(&reach)
            .unwrap()
            .trace
            .expect("trace enabled");
        assert!(
            trace.same_structure(&base),
            "FP trace structure differs at {t} threads:\n{}\nvs\n{}",
            trace.structure(),
            base.structure()
        );
    }

    // Datalog, both strategies: per-round per-rule spans.
    let ps = random_path_system(40, 200, 3, 5);
    let pdb = ps.to_database();
    let prog = ps.to_datalog();
    for eval in [eval_naive_with, eval_seminaive_with] {
        let base = eval(&prog, &pdb, &EvalConfig::sequential().with_trace(true))
            .unwrap()
            .trace
            .expect("trace enabled");
        for t in THREADS {
            let trace = eval(&prog, &pdb, &EvalConfig::with_threads(t).with_trace(true))
                .unwrap()
                .trace
                .expect("trace enabled");
            assert!(
                trace.same_structure(&base),
                "Datalog trace structure differs at {t} threads:\n{}\nvs\n{}",
                trace.structure(),
                base.structure()
            );
        }
    }
}

#[test]
fn untraced_runs_record_no_spans() {
    // The disabled tracer is the common path; it must stay span-free so
    // the overhead budget (see benches/trace_overhead.rs) holds.
    let db = graph_db(GraphKind::Sparse(3), 16, 7);
    let q = Query::new(vec![Var(0)], random_fo(2, 15, 1));
    let out = BoundedEvaluator::new(&db, 2)
        .with_config(EvalConfig::sequential())
        .eval_query_traced(&q)
        .unwrap();
    assert!(out.trace.is_none());
}

#[test]
fn domains_smaller_than_thread_count_are_thread_safe() {
    // More workers than domain elements: chunk_ranges must degrade to
    // fewer, non-empty chunks without dropping or duplicating points.
    for n in [1usize, 2, 3] {
        let db = graph_db(GraphKind::Cycle, n, 0);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let (base, _) = FpEvaluator::new(&db, 2)
            .with_config(EvalConfig::sequential())
            .eval_query(&q)
            .unwrap();
        for t in [2usize, 8, 16] {
            let (rel, _) = FpEvaluator::new(&db, 2)
                .with_config(EvalConfig::with_threads(t))
                .eval_query(&q)
                .unwrap();
            assert_eq!(rel.sorted(), base.sorted(), "n={n}, threads={t}");
        }
    }
}
