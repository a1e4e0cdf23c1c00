//! Differential seeded property tests across evaluators — the main safety
//! net for the engine:
//!
//! * naive (named-column algebra) vs bounded (cylindrical) FO evaluation;
//! * Naive vs Emerson–Lei fixpoint strategies;
//! * dense vs BDD cylinder backends;
//! * certificate extract→verify soundness and completeness (Theorem 3.5);
//! * dual-query complementation (the co-NP side).

use bvq_core::{
    BoundedEvaluator, CertifiedChecker, FpEvaluator, FpStrategy, NaiveEvaluator, TraceChecker,
    VerifyOutcome,
};
use bvq_logic::{Formula, Query, Term, Var};
use bvq_prng::{for_each_case, Rng};
use bvq_relation::{BackendMode, Database, Relation, Tuple};

/// Random database: a binary E and a unary P over 2..=max_n elements.
fn rand_db(rng: &mut Rng, max_n: u32) -> Database {
    let n = rng.gen_range(2..max_n + 1);
    let ne = rng.gen_range(0..(n * 2) as usize + 1);
    let np = rng.gen_range(0..n as usize + 1);
    let edges: Vec<Tuple> = (0..ne)
        .map(|_| Tuple::from_slice(&[rng.gen_range(0..n), rng.gen_range(0..n)]))
        .collect();
    let nodes: Vec<Tuple> = (0..np)
        .map(|_| Tuple::from_slice(&[rng.gen_range(0..n)]))
        .collect();
    Database::builder(n as usize)
        .relation("E", 2, edges)
        .relation("P", 1, nodes)
        .build()
}

fn rand_term(rng: &mut Rng, width: u32) -> Term {
    if rng.gen_ratio(3, 4) {
        Term::Var(Var(rng.gen_range(0..width)))
    } else {
        Term::Const(rng.gen_range(0..2u32))
    }
}

/// Random FO formula over E/P with the given width bound.
fn rand_fo(rng: &mut Rng, width: u32, depth: u32) -> Formula {
    if depth == 0 || rng.gen_ratio(1, 3) {
        return match rng.gen_range(0..5u32) {
            0 => Formula::tt(),
            1 => Formula::ff(),
            2 => Formula::Eq(rand_term(rng, width), rand_term(rng, width)),
            3 => Formula::atom("E", [rand_term(rng, width), rand_term(rng, width)]),
            _ => Formula::atom("P", [rand_term(rng, width)]),
        };
    }
    match rng.gen_range(0..5u32) {
        0 => rand_fo(rng, width, depth - 1).not(),
        1 => rand_fo(rng, width, depth - 1).and(rand_fo(rng, width, depth - 1)),
        2 => rand_fo(rng, width, depth - 1).or(rand_fo(rng, width, depth - 1)),
        3 => rand_fo(rng, width, depth - 1).exists(Var(rng.gen_range(0..width))),
        _ => rand_fo(rng, width, depth - 1).forall(Var(rng.gen_range(0..width))),
    }
}

/// Random positive FP formula: FO skeleton plus μ/ν fixpoints whose bodies
/// mention the recursion variable positively.
fn rand_fp(rng: &mut Rng, width: u32, depth: u32) -> Formula {
    if depth == 0 || rng.gen_ratio(1, 3) {
        return rand_fo(rng, width, 2);
    }
    match rng.gen_range(0..7u32) {
        0 | 1 => rand_fp(rng, width, depth - 1).and(rand_fp(rng, width, depth - 1)),
        2 | 3 => rand_fp(rng, width, depth - 1).or(rand_fp(rng, width, depth - 1)),
        4 | 5 => rand_fp(rng, width, depth - 1).exists(Var(rng.gen_range(0..width))),
        _ => {
            // Fixpoint over one variable, recursion atom S in positive
            // position, body a random positive combination.
            let f = rand_fp(rng, width, depth - 1);
            let bv = rng.gen_range(0..width);
            let av = rng.gen_range(0..width);
            let body = f.or(Formula::rel_var("S", [Term::Var(Var(bv))]));
            if rng.gen_bool(0.5) {
                Formula::lfp("S", vec![Var(bv)], body, vec![Term::Var(Var(av))])
            } else {
                Formula::gfp("S", vec![Var(bv)], body, vec![Term::Var(Var(av))])
            }
        }
    }
}

fn all_vars_query(f: &Formula, width: u32) -> Query {
    Query::new((0..width).map(Var).collect(), f.clone())
}

#[test]
fn naive_agrees_with_bounded() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 5);
        let f = rand_fo(rng, 3, 3);
        let q = all_vars_query(&f, 3);
        let naive = NaiveEvaluator::new(&db).eval_query(&q).unwrap().0;
        let bounded = BoundedEvaluator::new(&db, 3).eval_query(&q).unwrap().0;
        assert_eq!(naive.sorted(), bounded.sorted(), "formula: {f}");
    });
}

#[test]
fn dense_agrees_with_bdd() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fp(rng, 2, 3);
        let q = all_vars_query(&f, 2);
        let dense = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let bdd = FpEvaluator::new(&db, 2)
            .with_backend(BackendMode::Bdd)
            .eval_query(&q)
            .unwrap()
            .0;
        assert_eq!(dense.sorted(), bdd.sorted(), "formula: {f}");
    });
}

#[test]
fn el_agrees_with_naive_strategy() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fp(rng, 2, 4);
        let q = all_vars_query(&f, 2);
        let el = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let naive = FpEvaluator::new(&db, 2)
            .with_strategy(FpStrategy::Naive)
            .eval_query(&q)
            .unwrap()
            .0;
        assert_eq!(el.sorted(), naive.sorted(), "formula: {f}");
    });
}

#[test]
fn certificates_complete_and_sound() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fp(rng, 2, 3);
        let q = all_vars_query(&f, 2);
        let exact = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        assert_eq!(answer.sorted(), exact.sorted(), "formula: {f}");
        // Verify on every candidate tuple: Valid, and membership matches.
        let n = db.domain_size();
        for t in Relation::full(2, n).iter() {
            let (out, _) = checker.verify(&q, &cert, t.as_slice()).unwrap();
            assert_eq!(
                out,
                VerifyOutcome::Valid {
                    member: exact.contains(t.as_slice())
                },
                "formula: {f} tuple {t:?}"
            );
        }
    });
}

#[test]
fn trace_certificates_complete_and_sound() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fp(rng, 2, 3);
        let q = all_vars_query(&f, 2);
        let exact = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let checker = TraceChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        assert_eq!(answer.sorted(), exact.sorted(), "formula: {f}");
        let n = db.domain_size();
        for t in Relation::full(2, n).iter() {
            let (out, _) = checker.verify(&q, &cert, t.as_slice()).unwrap();
            assert_eq!(
                out,
                VerifyOutcome::Valid {
                    member: exact.contains(t.as_slice())
                },
                "formula: {f} tuple {t:?}"
            );
        }
    });
}

#[test]
fn dual_query_complements() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fp(rng, 2, 3);
        let q = all_vars_query(&f, 2);
        let exact = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let dual = Query::new(q.output.clone(), f.dual().unwrap());
        let dual_ans = FpEvaluator::new(&db, 2).eval_query(&dual).unwrap().0;
        let n = db.domain_size();
        assert_eq!(
            dual_ans.sorted(),
            exact.complement(n).sorted(),
            "formula: {f}"
        );
    });
}

#[test]
fn simplify_preserves_semantics() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fo(rng, 3, 3);
        let q = all_vars_query(&f, 3);
        let qs = all_vars_query(&f.simplify(), 3);
        let a = BoundedEvaluator::new(&db, 3).eval_query(&q).unwrap().0;
        let b = BoundedEvaluator::new(&db, 3).eval_query(&qs).unwrap().0;
        assert_eq!(a.sorted(), b.sorted(), "formula: {f}");
        assert!(f.simplify().size() <= f.size());
    });
}

#[test]
fn minimize_width_preserves_semantics() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fo(rng, 4, 4);
        let slim = f.minimize_width().unwrap();
        assert!(slim.width() <= f.width().max(1), "widened: {f} → {slim}");
        // Evaluate both over all original variables (the minimized formula
        // has the same free variables).
        let q = all_vars_query(&f, 4);
        let qs = all_vars_query(&slim, 4);
        let a = BoundedEvaluator::new(&db, 4).eval_query(&q).unwrap().0;
        let b = BoundedEvaluator::new(&db, 4).eval_query(&qs).unwrap().0;
        assert_eq!(a.sorted(), b.sorted(), "formula: {f} → {slim}");
    });
}

#[test]
fn miniscope_preserves_semantics() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 4);
        let f = rand_fo(rng, 3, 4);
        let m = f.miniscope();
        let q = all_vars_query(&f, 3);
        let qm = all_vars_query(&m, 3);
        let a = BoundedEvaluator::new(&db, 3).eval_query(&q).unwrap().0;
        let b = BoundedEvaluator::new(&db, 3).eval_query(&qm).unwrap().0;
        assert_eq!(a.sorted(), b.sorted(), "formula: {f} → {m}");
    });
}

#[test]
fn pebble_equivalence_is_sound() {
    for_each_case(128, |_, rng| {
        // If the 2-pebble game declares two structures FO²-equivalent,
        // no FO² sentence may separate them.
        let db1 = rand_db(rng, 3);
        let db2 = rand_db(rng, 3);
        let f = rand_fo(rng, 2, 3);
        if bvq_core::fo_k_equivalent(&db1, &db2, 2).unwrap() {
            let mut sentence = f.clone();
            for v in sentence.free_vars() {
                sentence = sentence.exists(v);
            }
            let q = Query::sentence(sentence);
            let a = BoundedEvaluator::new(&db1, 2)
                .eval_query(&q)
                .unwrap()
                .0
                .as_boolean();
            let b = BoundedEvaluator::new(&db2, 2)
                .eval_query(&q)
                .unwrap()
                .0
                .as_boolean();
            assert_eq!(a, b, "separating sentence found: {}", q.formula);
        }
    });
}

#[test]
fn decide_matches_eval() {
    for_each_case(128, |_, rng| {
        let db = rand_db(rng, 3);
        let f = rand_fp(rng, 2, 2);
        let n = db.domain_size() as u32;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let q = all_vars_query(&f, 2);
        let exact = FpEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        let checker = CertifiedChecker::new(&db, 2);
        let (member, _, _) = checker.decide(&q, &[a, b]).unwrap();
        assert_eq!(member, exact.contains(&[a, b]), "formula: {f}");
    });
}
