//! Differential tests: the partitioned parallel kernels and the dense
//! cylinder backend must be tuple-for-tuple identical to the sequential
//! paths for every thread count. Relation inputs are sized above the
//! parallel threshold so the partitioned code actually runs (not just the
//! sequential fallback).

use bvq_prng::Rng;
use bvq_relation::backend::DenseCylinder;
use bvq_relation::parallel;
use bvq_relation::{CoordSource, CylCtx, CylinderOps, EvalConfig, Relation, Tuple};

fn rand_relation(arity: usize, n: u32, tuples: usize, seed: u64) -> Relation {
    let mut rng = Rng::seed_from_u64(seed);
    let mut r = Relation::new(arity);
    for _ in 0..tuples {
        let t: Vec<u32> = (0..arity).map(|_| rng.gen_range(0..n)).collect();
        r.insert(Tuple::from_slice(&t));
    }
    r
}

const THREADS: [usize; 3] = [2, 4, 7];

#[test]
fn parallel_relation_kernels_match_sequential() {
    // ~6000 inserts over a 500-element domain: well above PAR_THRESHOLD.
    let a = rand_relation(2, 500, 6000, 1);
    let b = rand_relation(2, 500, 6000, 2);
    assert!(a.len() >= parallel::PAR_THRESHOLD);
    let pairs = [(1usize, 0usize)];
    for t in THREADS {
        let cfg = EvalConfig::with_threads(t);
        assert_eq!(
            parallel::join_on(&a, &b, &pairs, &cfg).sorted(),
            a.join_on(&b, &pairs).sorted(),
            "join, {t} threads"
        );
        assert_eq!(
            parallel::project(&a, &[1], &cfg).sorted(),
            a.project(&[1]).sorted(),
            "project, {t} threads"
        );
        assert_eq!(
            parallel::union(&a, &b, &cfg).sorted(),
            a.union(&b).sorted(),
            "union, {t} threads"
        );
    }
}

#[test]
fn parallel_kernels_handle_empty_inputs() {
    let empty = Relation::new(2);
    let a = rand_relation(2, 50, 5000, 3);
    let pairs = [(0usize, 0usize)];
    for t in THREADS {
        let cfg = EvalConfig::with_threads(t);
        assert!(parallel::join_on(&empty, &a, &pairs, &cfg).is_empty());
        assert!(parallel::join_on(&a, &empty, &pairs, &cfg).is_empty());
        assert_eq!(parallel::union(&a, &empty, &cfg).sorted(), a.sorted());
        assert!(parallel::project(&empty, &[0], &cfg).is_empty());
    }
}

#[test]
fn parallel_join_with_no_pairs_is_product() {
    let a = rand_relation(1, 100, 5000, 4);
    let b = rand_relation(1, 30, 40, 5);
    for t in THREADS {
        let cfg = EvalConfig::with_threads(t);
        assert_eq!(
            parallel::join_on(&a, &b, &[], &cfg).sorted(),
            a.join_on(&b, &[]).sorted()
        );
    }
}

/// Runs one backend through every cylinder operation at the given thread
/// count and compares against the sequential context, point for point.
fn check_backend<C: CylinderOps>(n: usize, k: usize, atom: &Relation, threads: usize) {
    let seq = CylCtx::new(n, k);
    let par = CylCtx::new(n, k).with_threads(threads);
    let coords: Vec<usize> = (0..k).collect();
    let eq = |a: &C, b: &C| {
        assert_eq!(
            a.to_relation(&par, &coords).sorted(),
            b.to_relation(&seq, &coords).sorted(),
            "{threads} threads, n={n} k={k}"
        );
    };
    eq(&C::full(&par), &C::full(&seq));
    eq(&C::equality(&par, 0, k - 1), &C::equality(&seq, 0, k - 1));
    eq(&C::const_eq(&par, 1, 3), &C::const_eq(&seq, 1, 3));
    let vars: Vec<usize> = (0..atom.arity()).collect();
    let ap = C::from_atom(&par, atom, &vars);
    let aseq = C::from_atom(&seq, atom, &vars);
    eq(&ap, &aseq);
    eq(&ap.exists(&par, 0), &aseq.exists(&seq, 0));
    let mut np = ap.clone();
    np.not(&par);
    let mut nseq = aseq.clone();
    nseq.not(&seq);
    eq(&np, &nseq);
    let map: Vec<CoordSource> = (0..k)
        .map(|i| {
            if i == 0 {
                CoordSource::Const(2)
            } else {
                CoordSource::Coord(i - 1)
            }
        })
        .collect();
    eq(&ap.preimage(&par, &map), &aseq.preimage(&seq, &map));
}

#[test]
fn dense_backend_thread_count_independent() {
    // n^k = 27000 points and ~5000 distinct atom tuples. The dense kernels
    // spawn no threads; the context's thread count must change nothing.
    let atom = rand_relation(3, 30, 6000, 6);
    for t in THREADS {
        check_backend::<DenseCylinder>(30, 3, &atom, t);
    }
}

#[test]
fn backends_agree_below_parallel_thresholds() {
    // Domain smaller than the thread count: a thread count above the
    // domain size must change nothing either.
    let atom = rand_relation(2, 2, 3, 7);
    for t in [2usize, 8, 16] {
        check_backend::<DenseCylinder>(2, 2, &atom, t);
    }
}

#[test]
fn empty_relation_atoms_across_threads() {
    let empty = Relation::new(2);
    for t in THREADS {
        let ctx = CylCtx::new(20, 3).with_threads(t);
        let c = DenseCylinder::from_atom(&ctx, &empty, &[0, 1]);
        assert!(c.is_empty(&ctx));
    }
}
