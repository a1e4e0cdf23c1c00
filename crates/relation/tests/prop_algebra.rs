//! Seeded property tests for the relational substrate: algebraic laws of
//! the relation operations and agreement of the dense and BDD cylinder
//! backends on random inputs.
//!
//! Each test loops over deterministic [`bvq_prng::for_each_case`] seeds, so
//! failures reproduce by case number without any external test framework.

use bvq_prng::{for_each_case, Rng};
use bvq_relation::backend::{BddCylinder, DenseCylinder};
use bvq_relation::{BitSet, CoordSource, CylCtx, CylinderOps, PointIndex, Relation, Tuple};

/// A random relation of the given arity over `0..n` with at most
/// `max_tuples` rows.
fn rand_relation(rng: &mut Rng, arity: usize, n: u32, max_tuples: usize) -> Relation {
    let rows = rng.gen_range(0..max_tuples + 1);
    Relation::from_tuples(
        arity,
        (0..rows).map(|_| Tuple::from_fn(arity, |_| rng.gen_range(0..n))),
    )
}

#[test]
fn union_commutes() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 5, 20);
        let b = rand_relation(rng, 2, 5, 20);
        assert_eq!(a.union(&b).sorted(), b.union(&a).sorted());
    });
}

#[test]
fn intersect_commutes() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 5, 20);
        let b = rand_relation(rng, 2, 5, 20);
        assert_eq!(a.intersect(&b).sorted(), b.intersect(&a).sorted());
    });
}

#[test]
fn de_morgan() {
    for_each_case(64, |_, rng| {
        // ¬(A ∪ B) = ¬A ∩ ¬B over D².
        let a = rand_relation(rng, 2, 4, 16);
        let b = rand_relation(rng, 2, 4, 16);
        let lhs = a.union(&b).complement(4);
        let rhs = a.complement(4).intersect(&b.complement(4));
        assert_eq!(lhs.sorted(), rhs.sorted());
    });
}

#[test]
fn difference_via_complement() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 4, 16);
        let b = rand_relation(rng, 2, 4, 16);
        let lhs = a.difference(&b);
        let rhs = a.intersect(&b.complement(4));
        assert_eq!(lhs.sorted(), rhs.sorted());
    });
}

#[test]
fn join_subsumed_by_product() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 4, 12);
        let b = rand_relation(rng, 2, 4, 12);
        let j = a.join_on(&b, &[(1, 0)]);
        let p = a.product(&b).select_eq(1, 2);
        assert_eq!(j.sorted(), p.sorted());
    });
}

#[test]
fn semijoin_is_join_projection() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 4, 12);
        let b = rand_relation(rng, 2, 4, 12);
        let s = a.semijoin(&b, &[(0, 1)]);
        let via_join = a.join_on(&b, &[(0, 1)]).project(&[0, 1]);
        assert_eq!(s.sorted(), via_join.sorted());
    });
}

#[test]
fn antijoin_complements_semijoin() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 2, 4, 12);
        let b = rand_relation(rng, 2, 4, 12);
        let s = a.semijoin(&b, &[(0, 1)]);
        let t = a.antijoin(&b, &[(0, 1)]);
        assert_eq!(s.union(&t).sorted(), a.sorted());
        assert!(s.intersect(&t).is_empty());
    });
}

#[test]
fn project_select_consistency() {
    for_each_case(64, |_, rng| {
        let a = rand_relation(rng, 3, 4, 20);
        // Projecting [0,1,2] is the identity.
        assert_eq!(a.project(&[0, 1, 2]).sorted(), a.sorted());
        // Double-permutation returns to the original.
        assert_eq!(
            a.project(&[2, 0, 1]).project(&[1, 2, 0]).sorted(),
            a.sorted()
        );
    });
}

#[test]
fn rank_unrank_random() {
    for_each_case(64, |_, rng| {
        let n = rng.gen_range(1..8usize);
        let k = rng.gen_range(0..4usize);
        let ix = PointIndex::new(n, k).unwrap();
        let idx = rng.next_u64() as usize % ix.size();
        assert_eq!(ix.rank(&ix.unrank(idx)), idx);
    });
}

#[test]
fn bitset_complement_count() {
    for_each_case(64, |_, rng| {
        let cap = rng.gen_range(1..300usize);
        let mut s = BitSet::new(cap);
        for _ in 0..rng.gen_range(0..40usize) {
            s.insert(rng.next_u64() as usize % cap);
        }
        let c = s.count();
        let mut t = s.clone();
        t.complement();
        assert_eq!(t.count(), cap - c);
    });
}

/// Runs the same cylindrical pipeline on both backends and compares.
fn check_backends_agree(n: usize, k: usize, rel: &Relation, vars: &[usize]) {
    let ctx = CylCtx::new(n, k);
    let d = DenseCylinder::from_atom(&ctx, rel, vars);
    let b = BddCylinder::from_atom(&ctx, rel, vars);
    let coords: Vec<usize> = (0..k).collect();
    assert_eq!(
        d.to_relation(&ctx, &coords).sorted(),
        b.to_relation(&ctx, &coords).sorted(),
        "from_atom disagrees"
    );
    for i in 0..k {
        assert_eq!(
            d.exists(&ctx, i).to_relation(&ctx, &coords).sorted(),
            b.exists(&ctx, i).to_relation(&ctx, &coords).sorted(),
            "exists({i}) disagrees"
        );
        assert_eq!(
            d.forall(&ctx, i).to_relation(&ctx, &coords).sorted(),
            b.forall(&ctx, i).to_relation(&ctx, &coords).sorted(),
            "forall({i}) disagrees"
        );
    }
    let mut dn = d.clone();
    dn.not(&ctx);
    let mut bn = b.clone();
    bn.not(&ctx);
    assert_eq!(
        dn.to_relation(&ctx, &coords).sorted(),
        bn.to_relation(&ctx, &coords).sorted(),
        "not disagrees"
    );
    assert_eq!(d.count(&ctx), b.count(&ctx));
    // Preimage under a rotation map with one pinned constant.
    let map: Vec<CoordSource> = (0..k)
        .map(|i| {
            if i == 0 {
                CoordSource::Const(1)
            } else {
                CoordSource::Coord((i + 1) % k)
            }
        })
        .collect();
    assert_eq!(
        d.preimage(&ctx, &map).to_relation(&ctx, &coords).sorted(),
        b.preimage(&ctx, &map).to_relation(&ctx, &coords).sorted(),
        "preimage disagrees"
    );
}

#[test]
fn dense_bdd_agree() {
    for_each_case(48, |_, rng| {
        // Relation elements may exceed the domain; from_atom must drop them
        // identically in both backends.
        let n = rng.gen_range(2..5usize);
        let rel = rand_relation(rng, 2, 4, 10);
        let v0 = rng.gen_range(0..3usize);
        let v1 = rng.gen_range(0..3usize);
        check_backends_agree(n, 3, &rel, &[v0, v1]);
    });
}

/// `slice_to_relation` over `coords` on one backend equals
/// `to_relation` for a cylinder built on exactly those coordinates (so
/// broadcast over every dropped one), after a quantifier and a union so
/// the set is not just a loaded atom.
fn check_slice<C: CylinderOps>(ctx: &CylCtx, rel: &Relation, coords: &[usize]) {
    let mut c = C::from_relation(ctx, rel, coords);
    let other = C::from_relation(ctx, &rel.project(&[1, 0]), coords);
    c.or_with(ctx, &other.exists(ctx, coords[0]));
    assert_eq!(
        c.slice_to_relation(ctx, coords).sorted(),
        c.to_relation(ctx, coords).sorted(),
        "coords {coords:?}"
    );
    // A permuted subset of the coordinates reads the same columns.
    let flipped = [coords[1], coords[0]];
    assert_eq!(
        c.slice_to_relation(ctx, &flipped).sorted(),
        c.to_relation(ctx, &flipped).sorted(),
        "coords {flipped:?}"
    );
}

#[test]
fn slice_extraction_matches_to_relation_on_every_backend() {
    for_each_case(48, |_, rng| {
        let n = rng.gen_range(1..5usize);
        let k = rng.gen_range(2..5usize);
        let rel = rand_relation(rng, 2, n as u32, 12);
        let a = rng.gen_range(0..k);
        let b = (a + rng.gen_range(1..k)) % k;
        let ctx = CylCtx::new(n, k);
        check_slice::<DenseCylinder>(&ctx, &rel, &[a, b]);
        check_slice::<BddCylinder>(&ctx, &rel, &[a, b]);
    });
}

#[test]
fn dense_bdd_agree_unary() {
    for_each_case(48, |_, rng| {
        let n = rng.gen_range(2..6usize);
        let rel = rand_relation(rng, 1, 5, 6);
        let v = rng.gen_range(0..2usize);
        check_backends_agree(n, 2, &rel, &[v]);
    });
}

#[test]
fn exists_idempotent_dense() {
    for_each_case(48, |_, rng| {
        let n = rng.gen_range(2..5usize);
        let rel = rand_relation(rng, 2, 4, 10);
        let ctx = CylCtx::new(n, 2);
        let d = DenseCylinder::from_atom(&ctx, &rel, &[0, 1]);
        let e1 = d.exists(&ctx, 0);
        let e2 = e1.exists(&ctx, 0);
        assert!(e1 == e2, "∃x∃x φ must equal ∃x φ");
    });
}

#[test]
fn exists_monotone_dense() {
    for_each_case(48, |_, rng| {
        let n = rng.gen_range(2..5usize);
        let a = rand_relation(rng, 2, 4, 10);
        let b = rand_relation(rng, 2, 4, 10);
        let ctx = CylCtx::new(n, 2);
        let da = DenseCylinder::from_atom(&ctx, &a, &[0, 1]);
        let mut dab = da.clone();
        dab.or_with(&ctx, &DenseCylinder::from_atom(&ctx, &b, &[0, 1]));
        assert!(da.exists(&ctx, 1).is_subset(&ctx, &dab.exists(&ctx, 1)));
    });
}

/// Domain sizes whose strides give the dense kernels every slab shape:
/// one-bit slabs (`s = 1`), short slabs (`1 < s < 64`), word-aligned
/// slabs (`n` = 64 or 128) and unaligned multi-word slabs (`n` = 65,
/// `33²`, `10³`).
const SWEEP_N: [usize; 7] = [1, 2, 10, 33, 64, 65, 128];

/// The largest space the sweep builds, `n^k ≤ 2²¹`.
const SWEEP_POINTS: usize = 1 << 21;

/// One kernel application, made the same way on every backend from the
/// atom `a` and the set `y` of the case.
#[derive(Debug)]
enum Kernel<'a> {
    Exists(usize),
    Forall(usize),
    ConstEq(usize, u32),
    Equality(usize, usize),
    Preimage(&'a [CoordSource]),
    PreimageOfEmpty(&'a [CoordSource]),
}

fn apply<C: CylinderOps>(ctx: &CylCtx, a: &C, y: &C, kernel: &Kernel) -> C {
    match *kernel {
        Kernel::Exists(i) => a.exists(ctx, i),
        Kernel::Forall(i) => y.forall(ctx, i),
        Kernel::ConstEq(i, c) => C::const_eq(ctx, i, c),
        Kernel::Equality(i, j) => C::equality(ctx, i, j),
        Kernel::Preimage(map) => a.preimage(ctx, map),
        Kernel::PreimageOfEmpty(map) => C::empty(ctx).preimage(ctx, map),
    }
}

/// The atom `a` and the set `y = ∃x_g a ∖ c` of one case on one
/// backend: `y` is a union of coordinate-`g` fibers with a few points
/// removed, so `∀` over it keeps some fibers and drops others.
fn case_sets<C: CylinderOps>(
    ctx: &CylCtx,
    rel: &Relation,
    vars: &[usize],
    holes: &Relation,
    g: usize,
) -> (C, C) {
    let a = C::from_atom(ctx, rel, vars);
    let mut y = a.exists(ctx, g);
    let all: Vec<usize> = (0..ctx.width()).collect();
    y.and_not_with(ctx, &C::from_atom(ctx, holes, &all));
    (a, y)
}

/// Whether a dense set equals a set of another backend: same count, and
/// every dense point a member of the other. Membership probes keep the
/// check linear in the set, where sorting 10⁵ converted tuples would not.
fn same<C: CylinderOps>(ctx: &CylCtx, d: &DenseCylinder, other: &C) -> bool {
    let ix = ctx.index();
    d.count(ctx) == other.count(ctx) && d.bits().iter().all(|r| other.contains(ctx, &ix.unrank(r)))
}

/// Dense kernels against the BDD backend at real strides:
/// every `n` of [`SWEEP_N`], every width `k ≤ 6` with `n^k ≤ 2²¹`, every
/// coordinate. The atoms repeat a variable and carry out-of-domain
/// tuples; `preimage` maps permute, duplicate and drop coordinates and
/// pin in- and out-of-domain constants, over a loaded and an empty source.
#[test]
fn dense_kernels_agree_at_real_strides() {
    let mut rng = bvq_prng::Rng::seed_from_u64(0xD5EE_7001);
    for n in SWEEP_N {
        for k in (1..=6).filter(|&k| n.checked_pow(k as u32).is_some_and(|p| p <= SWEEP_POINTS)) {
            let ctx = CylCtx::new(n, k);
            // One free coordinate (when k > 1), and maybe a repeated variable.
            let mut coords: Vec<usize> = (0..k).collect();
            rng.shuffle(&mut coords);
            let mut vars = coords[..k.saturating_sub(1).max(1)].to_vec();
            if rng.gen_bool(0.5) {
                let again = *rng.choose(&vars);
                let at = rng.gen_range(0..vars.len() + 1);
                vars.insert(at, again);
            }
            // Elements up to n + 1 put some tuples outside the domain;
            // a repeated variable keeps only the tuples that agree on it.
            let rows = if n >= 64 { 4 } else { 12 };
            let mut rel = rand_relation(&mut rng, vars.len(), n as u32 + 2, rows);
            for _ in 0..rows / 2 {
                let d = rng.gen_range(0..n as u32);
                rel.insert(Tuple::from_fn(vars.len(), |_| d));
            }
            let holes = rand_relation(&mut rng, k, n as u32, 8);
            let g = vars[0];
            let (ad, yd) = case_sets::<DenseCylinder>(&ctx, &rel, &vars, &holes, g);
            let (ab, yb) = case_sets::<BddCylinder>(&ctx, &rel, &vars, &holes, g);
            let label = format!("n={n} k={k} vars={vars:?}");
            assert!(same(&ctx, &ad, &ab), "{label}: from_atom dense ≠ bdd");
            assert!(same(&ctx, &yd, &yb), "{label}: ∃∖ dense ≠ bdd");
            // Preimage maps: a permutation, then one entry duplicated,
            // pinned in the domain, pinned outside it.
            let mut perm: Vec<usize> = (0..k).collect();
            rng.shuffle(&mut perm);
            let base: Vec<CoordSource> = perm.iter().map(|&j| CoordSource::Coord(j)).collect();
            let at = rng.gen_range(0..k);
            let mut dup = base.clone();
            dup[at] = CoordSource::Coord(perm[(at + 1) % k]);
            let mut pin = base.clone();
            pin[at] = CoordSource::Const(rng.gen_range(0..n as u32));
            let mut oob = base.clone();
            oob[at] = CoordSource::Const(n as u32 + rng.gen_range(0..3u32));
            let maps = [base, dup, pin, oob];
            let mut kernels = Vec::new();
            for i in 0..k {
                let j = (i + rng.gen_range(1..k.max(2))) % k;
                kernels.extend([
                    Kernel::Exists(i),
                    Kernel::Forall(i),
                    Kernel::ConstEq(i, rng.gen_range(0..n as u32)),
                    Kernel::ConstEq(i, n as u32 - 1),
                    Kernel::ConstEq(i, n as u32),
                    Kernel::Equality(i, j),
                ]);
            }
            for map in &maps {
                kernels.extend([Kernel::Preimage(map), Kernel::PreimageOfEmpty(map)]);
            }
            for kernel in &kernels {
                let d = apply(&ctx, &ad, &yd, kernel);
                let b = apply(&ctx, &ab, &yb, kernel);
                assert!(same(&ctx, &d, &b), "{label}: {kernel:?} dense ≠ bdd");
            }
        }
    }
}
