//! Cross-crate integration: the paper's quantitative claims as assertions
//! over real runs — the "intermediate results stay small" thesis, the
//! width analyses, and the Lemma 3.6 transform.
//!
//! The rows of Tables 1–3 are claims about sizes, so they are checked
//! here as counts from [`EvalStats`](bvq_relation::EvalStats), not as
//! timings: intermediate arity and cardinality (Prop 3.1), geometric
//! growth of naive width-`m` evaluation (Table 1), the `l·n^k` trace
//! bound (Thm 3.5), the polynomial degree of FO^k data complexity, the
//! introduction's employee plans, and §5's variable minimization.

use bvq_core::{
    reduce_arity, BoundedEvaluator, CertifiedChecker, EsoEvaluator, FpEvaluator, NaiveEvaluator,
    TraceChecker, VerifyOutcome,
};
use bvq_logic::parser::parse_eso;
use bvq_logic::{patterns, Formula, Query, Term, Var};
use bvq_optimizer::{eval_eliminated, greedy_order};
use bvq_relation::{BackendMode, Database};
use bvq_server::exec::{execute, EvalOptions, ExecRequest};
use bvq_workload::employee::{employee_database, employee_query, EmployeeConfig};
use bvq_workload::formulas::{cross_product_family, random_fo};
use bvq_workload::graphs::{graph_db, GraphKind};

#[test]
fn bounded_evaluation_caps_intermediate_arity() {
    // Prop 3.1, the structural claim behind Table 2: whatever FO³
    // formula we run, max intermediate arity is exactly k and no
    // intermediate holds more than n^k tuples. With the formula fixed
    // (FO^k data complexity) the number of operator applications does
    // not depend on n, so total_tuples ≤ ops·n^k: degree ≤ k in n.
    // (Step-to-step doubling ratios may pass 2^k by a hair while the
    // intermediates approach n^k from below, so the bound is asserted
    // with its constant rather than as a fitted slope.)
    let k = 3;
    for seed in 0..10 {
        let f = random_fo(k, 25, seed);
        let q = Query::new(vec![Var(0), Var(1), Var(2)], f);
        let mut ops = None;
        for n in [8usize, 16, 32] {
            let db = graph_db(GraphKind::Sparse(3), n, 9);
            let (_, stats) = BoundedEvaluator::new(&db, k).eval_query(&q).unwrap();
            let bound = n.pow(k as u32);
            assert_eq!(stats.max_arity, k, "n={n} seed {seed}");
            assert!(stats.max_cardinality <= bound, "n={n} seed {seed}");
            assert_eq!(
                *ops.get_or_insert(stats.operator_applications),
                stats.operator_applications,
                "n={n} seed {seed}: operator count depends on the data"
            );
            assert!(
                stats.total_tuples <= stats.operator_applications * bound as u64,
                "n={n} seed {seed}"
            );
        }
    }
}

#[test]
fn naive_evaluation_arity_tracks_formula_width() {
    // Table 1, FO combined complexity: naive evaluation of the width-m
    // cross-product family materialises P^m, so each +1 of m multiplies
    // the largest intermediate by |P|.
    let db = graph_db(GraphKind::Sparse(4), 12, 3);
    let p = db.relation_by_name("P").unwrap().len();
    assert!(p >= 2, "the family needs |P| ≥ 2 to grow");
    let mut prev = 1;
    for m in 1..7 {
        let q = Query::new(vec![Var(0)], cross_product_family(m));
        let (_, stats) = NaiveEvaluator::new(&db).eval_query(&q).unwrap();
        assert_eq!(stats.max_arity, m, "cross-product family width");
        assert!(
            stats.max_cardinality >= p * prev,
            "m={m}: {} < |P|·{prev}",
            stats.max_cardinality
        );
        prev = stats.max_cardinality;
    }
}

#[test]
fn certificate_sizes_stay_polynomial() {
    // Theorem 3.5's "NP" needs polynomial-size certificates: check the
    // bound |cert| ≤ (iterations+1)·n^k across database sizes.
    for n in [6usize, 12, 24] {
        let db = graph_db(GraphKind::Path, n, 0);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, _) = checker.extract(&q).unwrap();
        let bound = (n + 2) * n * n;
        assert!(
            cert.size_tuples() <= bound,
            "n={n}: certificate {} > bound {bound}",
            cert.size_tuples()
        );
    }
}

#[test]
fn nested_fp_certifies_in_l_n_k_trace_steps() {
    // Theorem 3.5: the fairness sentence nests l = 2 fixpoints in FP³,
    // and its shared-sequence certificate takes at most l·n^k steps.
    let (l, k) = (2usize, 3usize);
    let q = Query::sentence(patterns::fairness(Term::Const(0)));
    for (kind, n) in [GraphKind::Sparse(2), GraphKind::Path]
        .into_iter()
        .flat_map(|kind| [8usize, 16, 32].map(|n| (kind, n)))
    {
        let db = graph_db(kind, n, 17);
        let checker = TraceChecker::new(&db, k);
        let (cert, _) = checker.extract(&q).unwrap();
        let (outcome, stats) = checker.verify(&q, &cert, &[]).unwrap();
        let (ans, _) = FpEvaluator::new(&db, k).eval_query(&q).unwrap();
        let at = format!("{kind:?} n={n}");
        assert_eq!(
            outcome,
            VerifyOutcome::Valid {
                member: ans.as_boolean()
            },
            "{at}"
        );
        let bound = l * n.pow(k as u32);
        assert!(cert.len() <= bound, "{at}: {} steps", cert.len());
        assert!(stats.fixpoint_iterations <= bound as u64, "{at}");
    }
}

#[test]
fn fairness_example_is_stable_across_evaluators() {
    // The §2.2 FP³ sentence over a graph with both a fair and an unfair
    // cycle: only the P-labelled cycle admits "no unfair path".
    //   unfair cycle: 0 ↔ 1 (no P); fair cycle: 2 ↔ 3 (both P); 4 → 0.
    let db = Database::builder(5)
        .relation("E", 2, [[0u32, 1], [1, 0], [2, 3], [3, 2], [4, 0]])
        .relation("P", 1, [[2u32], [3]])
        .build();
    for (u, expected) in [(0u32, false), (2, true), (4, false)] {
        let q = Query::sentence(patterns::fairness(Term::Const(u)));
        let (ans, _) = bvq_core::FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
        assert_eq!(ans.as_boolean(), expected, "u = {u}");
        let checker = CertifiedChecker::new(&db, 3);
        let (member, _, _) = checker.decide(&q, &[]).unwrap();
        assert_eq!(member, expected, "certified, u = {u}");
    }
}

#[test]
fn lemma_3_6_transform_end_to_end() {
    // A 4-ary quantified relation with two patterns, as in the paper's own
    // Lemma 3.6 illustration (S(x1,x1,x2,x2) and S(x1,x2,x1,x2)).
    let eso = parse_eso(
        "exists2 S/4. (exists x1. exists x2. S(x1,x1,x2,x2) \
         & forall x1. ~S(x1,x2,x1,x2))",
    )
    .unwrap();
    assert_eq!(eso.max_rel_arity(), 4);
    let reduced = reduce_arity(&eso, 2).unwrap();
    assert!(reduced.max_rel_arity() <= 2);
    // Semantics preserved over several databases; note the formula has a
    // free variable x2, so evaluate as a unary query.
    for n in [2usize, 3] {
        let db = Database::builder(n).relation("P", 1, [[0u32]]).build();
        let ev = EsoEvaluator::new(&db, 2);
        let orig = ev.eval_query(&eso, &[Var(1)]).unwrap();
        let red = ev.eval_query(&reduced, &[Var(1)]).unwrap();
        assert_eq!(orig.sorted(), red.sorted(), "n = {n}");
    }
}

#[test]
fn naive_vs_bounded_gap_is_measurable() {
    // Not a timing assertion (CI-safe): compare materialised tuple counts.
    let db = graph_db(GraphKind::DensePercent(30), 12, 6);
    let naive_q = Query::new(vec![Var(0), Var(1)], patterns::path_naive(5));
    let bounded_q = Query::new(vec![Var(0), Var(1)], patterns::path_bounded(5));
    let (a1, s1) = NaiveEvaluator::new(&db).eval_query(&naive_q).unwrap();
    let (a2, s2) = BoundedEvaluator::new(&db, 3)
        .eval_query(&bounded_q)
        .unwrap();
    assert_eq!(a1.sorted(), a2.sorted());
    assert!(
        s1.max_cardinality > 4 * s2.max_cardinality,
        "naive {} vs bounded {}",
        s1.max_cardinality,
        s2.max_cardinality
    );
}

#[test]
fn employee_plans_match_the_introduction() {
    // The introduction's example: the cross-product plan materialises an
    // arity-12 relation (the paper's 10 columns plus the comparison),
    // while the variable-elimination plan never exceeds arity 3.
    let q = employee_query();
    let order = greedy_order(&q);
    for employees in [6usize, 9, 12] {
        let cfg = EmployeeConfig {
            employees,
            departments: 2,
            salary_levels: 4,
        };
        let db = employee_database(cfg, 42);
        let (cp, cps) = q.eval_cross_product_plan(&db).unwrap();
        let (elim, es) = eval_eliminated(&q, &db, &order).unwrap();
        assert_eq!(cp.sorted(), elim.sorted(), "employees={employees}");
        assert_eq!(cps.max_arity, 12, "employees={employees}");
        assert!(es.max_arity <= 3, "employees={employees}");
        assert!(cps.max_cardinality > es.max_cardinality);
    }
    for employees in [40usize, 80, 160, 320] {
        let cfg = EmployeeConfig {
            employees,
            departments: employees / 8,
            salary_levels: 12,
        };
        let db = employee_database(cfg, 42);
        let (join, _) = q.eval_naive_plan(&db).unwrap();
        let (elim, es) = eval_eliminated(&q, &db, &order).unwrap();
        assert_eq!(join.sorted(), elim.sorted(), "employees={employees}");
        assert!(es.max_arity <= 3, "employees={employees}");
    }
}

#[test]
fn minimized_path_formulas_are_fo3() {
    // §5's methodology, automated: minimize_width turns the naive
    // width-(m+1) path formula ψ_m into FO³, whose bounded evaluation
    // keeps every intermediate within n³, with the answer of the
    // paper's hand-written FO³ form.
    let n = 24;
    let db = graph_db(GraphKind::DensePercent(20), n, 7);
    for m in [3usize, 5, 7] {
        let slim = patterns::path_naive(m).minimize_width().expect("FO");
        assert_eq!(slim.width(), 3, "ψ_{m}");
        let q = Query::new(vec![Var(0), Var(1)], slim);
        let (ans, stats) = BoundedEvaluator::new(&db, 3).eval_query(&q).unwrap();
        assert!(stats.max_cardinality <= n.pow(3), "ψ_{m}");
        let hand = Query::new(vec![Var(0), Var(1)], patterns::path_bounded(m));
        let (expected, _) = BoundedEvaluator::new(&db, 3).eval_query(&hand).unwrap();
        assert_eq!(ans.sorted(), expected.sorted(), "ψ_{m}");
    }
}

#[test]
fn bdd_peak_bytes_stay_10x_under_dense() {
    // The symbolic backend's space claim: on the structured reach and
    // fairness workloads, the BDD's peak working set is at least 10×
    // under the dense bitset, with the same answer.
    let cases = [
        (
            graph_db(GraphKind::Path, 384, 0),
            Query::new(vec![Var(0)], patterns::reach_from_const(0)),
        ),
        (
            graph_db(GraphKind::Path, 64, 0),
            Query::sentence(patterns::fairness(Term::Const(0))),
        ),
    ];
    for (db, q) in &cases {
        let run = |backend| {
            let req = ExecRequest::query(q.to_string()).with_opts(EvalOptions {
                backend,
                ..EvalOptions::default()
            });
            let out = execute(db, &req).unwrap();
            (out.answer, out.stats.peak_bytes)
        };
        let (bdd_answer, bdd) = run(BackendMode::Bdd);
        let (dense_answer, dense) = run(BackendMode::Dense);
        assert_eq!(bdd_answer, dense_answer, "{q}");
        assert!(dense >= 10 * bdd.max(1), "{q}: dense {dense} vs bdd {bdd}");
    }
}

#[test]
fn certified_width_rewrite_lowers_max_cardinality() {
    // The analyzer's certified rewrite of a width-6 chain (all
    // variables distinct) evaluates in FO² with smaller intermediates
    // than the original plan, and to the same answer.
    let chain = Formula::and_all(
        (0..5u32).map(|i| Formula::atom("E", [Term::Var(Var(i)), Term::Var(Var(i + 1))])),
    );
    let body = (1..=5u32).rev().fold(chain, |f, i| f.exists(Var(i)));
    let original = Query::new(vec![Var(0)], body);
    let analysis = bvq_analysis::analyze_query(&original);
    assert_eq!(analysis.certified, Some(true));
    let cert = analysis.certificate.expect("certified implies certificate");
    let rewritten = Query::new(original.output.clone(), cert.rewritten);
    let db = graph_db(GraphKind::Path, 8, 0);
    let eval = |q: &Query| {
        BoundedEvaluator::new(&db, q.formula.width())
            .eval_query(q)
            .unwrap()
    };
    let (a, before) = eval(&original);
    let (b, after) = eval(&rewritten);
    assert_eq!(a.sorted(), b.sorted());
    assert_eq!(rewritten.formula.width(), 2);
    assert!(
        after.max_cardinality < before.max_cardinality,
        "rewrite {} vs original {}",
        after.max_cardinality,
        before.max_cardinality
    );
}
