//! Dense cylinder backend: a bitset over the ranked space `D^k`.
//!
//! When `n^k` fits in memory this is by far the fastest backend. Every
//! kernel is a word-level pass over the mixed-radix layout. For a
//! coordinate `i` with stride `s`, a point's rank is
//! `idx = outer·n·s + d·s + inner` with `d` its coordinate-`i` digit, so
//! each block of `n·s` bits (one `outer`) is `n` consecutive *slabs* of
//! `s` bits, one per value of `d`. Two primitives per coordinate follow:
//!
//! * *fold* ORs (or ANDs) the `n` slabs of every block into one;
//! * *broadcast* copies slab 0 of every block into the other `n - 1`.
//!
//! `∃xᵢ` is fold-OR then broadcast and `∀xᵢ` is fold-AND then broadcast.
//! An atom inserts each tuple with its free coordinates at 0 and
//! broadcasts every free coordinate; `equality` does the same with the
//! `n` diagonal points, and `xᵢ = c` fills slab `c` of every block.
//! `preimage` walks the target ranks with an odometer that steps the
//! source rank by per-coordinate deltas. Slabs and runs move 64 bits at a
//! time through [`BitSet::get_bits`] / [`BitSet::or_bits`], so no kernel
//! divides a rank into digits or touches one point at a time unless a
//! slab is a single bit wide. None of them spawns threads: `O(n^k / 64)`
//! word operations leave nothing worth partitioning, and the results do
//! not depend on the context's thread count.

use crate::bitset::BitSet;
use crate::cylinder::{CoordSource, CylCtx, CylinderOps};
use crate::{Elem, PointIndex, Relation, Tuple};

/// A subset of `D^k` stored as a bitset of size `n^k`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DenseCylinder {
    bits: BitSet,
}

impl DenseCylinder {
    /// Direct access to the underlying bitset.
    pub fn bits(&self) -> &BitSet {
        &self.bits
    }

    /// Fold then broadcast over coordinate `i`: a point is kept iff some
    /// (`all`: every) point of its coordinate-`i` fiber is in `self`.
    fn quantify(&self, ctx: &CylCtx, i: usize, all: bool) -> Self {
        let ix = ctx.index();
        let (n, s) = (ix.domain_size(), ix.stride(i));
        let mut out = Self::empty(ctx);
        if ix.size() == 0 {
            return out;
        }
        // Fold the slabs of each block into slab 0 of `out`.
        for base in (0..ix.size()).step_by(n * s) {
            if s == 1 {
                // The fiber is one contiguous run of n bits.
                let fiber = base..base + n;
                let hit = if all {
                    self.bits.all_in(fiber)
                } else {
                    self.bits.any_in(fiber)
                };
                if hit {
                    out.bits.insert(base);
                }
                continue;
            }
            for (off, len) in chunks(s) {
                let slab = |d: usize| self.bits.get_bits(base + d * s + off, len);
                let v = if all {
                    let mut acc = !0;
                    for d in 0..n {
                        acc &= slab(d);
                        if acc == 0 {
                            break;
                        }
                    }
                    acc
                } else {
                    (0..n).fold(0, |a, d| a | slab(d))
                };
                out.bits.or_bits(base + off, len, v);
            }
        }
        broadcast(&mut out.bits, ix, i);
        out
    }
}

/// The `(offset, len)` runs of at most 64 bits that tile `0..s`.
fn chunks(s: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..s).step_by(64).map(move |off| (off, (s - off).min(64)))
}

/// Copies slab 0 of coordinate `i` into slabs `1..n` of every block, so
/// the set holds `ā` iff it held `ā[i := 0]` — provided those slabs were
/// empty, as they are after a fold or an insertion at digit 0.
fn broadcast(bits: &mut BitSet, ix: &PointIndex, i: usize) {
    let (n, s) = (ix.domain_size(), ix.stride(i));
    if ix.size() == 0 {
        return;
    }
    for base in (0..ix.size()).step_by(n * s) {
        if s == 1 {
            if bits.contains(base) {
                bits.fill(base..base + n);
            }
            continue;
        }
        for (off, len) in chunks(s) {
            let v = bits.get_bits(base + off, len);
            if v != 0 {
                for d in 1..n {
                    bits.or_bits(base + d * s + off, len, v);
                }
            }
        }
    }
}

/// Visits every assignment of `steps.len()` base-`n` digits, calling
/// `f(target, source)` with the sums of the steps' target and source
/// deltas weighted by the digits. The last digit turns fastest, so with
/// steps listed outermost first the targets come in increasing order.
/// Each step adds or subtracts its deltas: no division anywhere.
fn odometer(n: usize, steps: &[(usize, usize)], mut f: impl FnMut(usize, usize)) {
    if n == 0 && !steps.is_empty() {
        return;
    }
    let mut digits = vec![0usize; steps.len()];
    let (mut target, mut source) = (0, 0);
    loop {
        f(target, source);
        let mut j = steps.len();
        loop {
            if j == 0 {
                return;
            }
            j -= 1;
            let (dt, ds) = steps[j];
            if digits[j] + 1 < n {
                digits[j] += 1;
                target += dt;
                source += ds;
                break;
            }
            digits[j] = 0;
            target -= (n - 1) * dt;
            source -= (n - 1) * ds;
        }
    }
}

/// Builds the set of the `seeds` (ranks whose coordinates outside `kept`
/// are 0) broadcast over every coordinate outside `kept`.
fn seed_and_broadcast(
    ctx: &CylCtx,
    kept: &[bool],
    seeds: impl IntoIterator<Item = usize>,
) -> DenseCylinder {
    let ix = ctx.index();
    let mut out = DenseCylinder::empty(ctx);
    if ix.size() == 0 {
        return out;
    }
    for rank in seeds {
        out.bits.insert(rank);
    }
    for i in (0..ctx.width()).filter(|&i| !kept[i]).rev() {
        broadcast(&mut out.bits, ix, i);
    }
    out
}

impl CylinderOps for DenseCylinder {
    fn empty(ctx: &CylCtx) -> Self {
        DenseCylinder {
            bits: BitSet::new(ctx.index().size()),
        }
    }

    fn full(ctx: &CylCtx) -> Self {
        DenseCylinder {
            bits: BitSet::full(ctx.index().size()),
        }
    }

    fn from_atom(ctx: &CylCtx, rel: &Relation, vars: &[usize]) -> Self {
        assert_eq!(
            rel.arity(),
            vars.len(),
            "atom variable count ≠ relation arity"
        );
        let ix = ctx.index();
        let k = ctx.width();
        let n = ctx.domain_size();
        let mut mentioned = vec![false; k];
        for &v in vars {
            assert!(v < k, "atom variable index {v} out of width {k}");
            mentioned[v] = true;
        }
        // A repeated variable's later positions must equal its first.
        let first: Vec<usize> = (0..vars.len())
            .map(|j| vars.iter().position(|&v| v == vars[j]).unwrap_or(j))
            .collect();
        let seeds = rel.iter().filter_map(|t| {
            let mut rank = 0;
            for (j, &v) in vars.iter().enumerate() {
                if t[j] as usize >= n || t[j] != t[first[j]] {
                    return None;
                }
                if first[j] == j {
                    rank += t[j] as usize * ix.stride(v);
                }
            }
            Some(rank)
        });
        seed_and_broadcast(ctx, &mentioned, seeds)
    }

    fn equality(ctx: &CylCtx, i: usize, j: usize) -> Self {
        if i == j {
            return Self::full(ctx);
        }
        let ix = ctx.index();
        let mut kept = vec![false; ctx.width()];
        kept[i] = true;
        kept[j] = true;
        let step = ix.stride(i) + ix.stride(j);
        seed_and_broadcast(ctx, &kept, (0..ctx.domain_size()).map(|d| d * step))
    }

    fn const_eq(ctx: &CylCtx, i: usize, c: Elem) -> Self {
        let ix = ctx.index();
        let n = ctx.domain_size();
        let mut out = Self::empty(ctx);
        if (c as usize) >= n {
            return out;
        }
        let s = ix.stride(i);
        let slab = c as usize * s;
        for base in (0..ix.size()).step_by(n * s) {
            out.bits.fill(base + slab..base + slab + s);
        }
        out
    }

    fn and_with(&mut self, _ctx: &CylCtx, other: &Self) {
        self.bits.intersect_with(&other.bits);
    }

    fn or_with(&mut self, _ctx: &CylCtx, other: &Self) {
        self.bits.union_with(&other.bits);
    }

    fn not(&mut self, _ctx: &CylCtx) {
        self.bits.complement();
    }

    fn and_not_with(&mut self, _ctx: &CylCtx, other: &Self) {
        self.bits.difference_with(&other.bits);
    }

    fn exists(&self, ctx: &CylCtx, i: usize) -> Self {
        self.quantify(ctx, i, false)
    }

    fn forall(&self, ctx: &CylCtx, i: usize) -> Self {
        self.quantify(ctx, i, true)
    }

    fn preimage(&self, ctx: &CylCtx, map: &[CoordSource]) -> Self {
        let ix = ctx.index();
        let k = ctx.width();
        let n = ctx.domain_size();
        assert_eq!(map.len(), k, "preimage map must cover all {k} coordinates");
        let mut out = Self::empty(ctx);
        // The source rank of target ā is `base + Σⱼ ā[j]·delta[j]`.
        let mut base = 0;
        let mut delta = vec![0usize; k];
        for (i, m) in map.iter().enumerate() {
            match *m {
                CoordSource::Coord(j) => delta[j] += ix.stride(i),
                CoordSource::Const(c) if (c as usize) < n => base += c as usize * ix.stride(i),
                CoordSource::Const(_) => return out,
            }
        }
        // Reading ⊥ gives ⊥ (a fixpoint's first round reads an empty
        // approximation), whatever the map.
        if self.bits.is_empty() {
            return out;
        }
        // Trailing coordinates the map passes through unchanged step the
        // source exactly as the target: their points form one contiguous
        // run in both, copied 64 bits at a time.
        let mut t = k;
        while t > 0 && delta[t - 1] == ix.stride(t - 1) {
            t -= 1;
        }
        let run = if t == 0 { ix.size() } else { ix.stride(t - 1) };
        // The odometer turns the other coordinates the map reads; those
        // it never reads (delta 0) stay at 0 and are broadcast after.
        let steps: Vec<(usize, usize)> = (0..t)
            .filter(|&j| delta[j] != 0)
            .map(|j| (ix.stride(j), delta[j]))
            .collect();
        odometer(n, &steps, |target, source| {
            for (off, len) in chunks(run) {
                let v = self.bits.get_bits(base + source + off, len);
                out.bits.or_bits(target + off, len, v);
            }
        });
        for j in (0..t).filter(|&j| delta[j] == 0).rev() {
            broadcast(&mut out.bits, ix, j);
        }
        out
    }

    fn contains(&self, ctx: &CylCtx, point: &[Elem]) -> bool {
        self.bits.contains(ctx.index().rank(point))
    }

    fn count(&self, _ctx: &CylCtx) -> usize {
        self.bits.count()
    }

    fn is_empty(&self, _ctx: &CylCtx) -> bool {
        self.bits.is_empty()
    }

    fn is_subset(&self, _ctx: &CylCtx, other: &Self) -> bool {
        self.bits.is_subset(&other.bits)
    }

    fn to_relation(&self, ctx: &CylCtx, coords: &[usize]) -> Relation {
        let ix = ctx.index();
        let mut r = Relation::new(coords.len());
        for idx in self.bits.iter() {
            r.insert(Tuple::from_fn(coords.len(), |j| ix.digit(idx, coords[j])));
        }
        r
    }

    fn slice_to_relation(&self, ctx: &CylCtx, coords: &[usize]) -> Relation {
        let n = ctx.domain_size();
        if n == 0 {
            return self.to_relation(ctx, coords);
        }
        // Odometer over the slice: the other coordinates stay 0, so a
        // point's rank is the sum of its `coords` digits times strides.
        let ix = ctx.index();
        let strides: Vec<usize> = coords.iter().map(|&c| ix.stride(c)).collect();
        let mut r = Relation::new(coords.len());
        let mut digits = vec![0 as Elem; coords.len()];
        loop {
            let idx: usize = digits
                .iter()
                .zip(&strides)
                .map(|(&d, &s)| d as usize * s)
                .sum();
            if self.bits.contains(idx) {
                r.insert(Tuple::from_slice(&digits));
            }
            let mut i = digits.len();
            loop {
                if i == 0 {
                    return r;
                }
                i -= 1;
                digits[i] += 1;
                if (digits[i] as usize) < n {
                    break;
                }
                digits[i] = 0;
            }
        }
    }

    fn size_bytes(&self, _ctx: &CylCtx) -> usize {
        // The bitset always holds n^k bits regardless of cardinality.
        self.bits.capacity().div_ceil(64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CylCtx {
        CylCtx::new(3, 2)
    }

    #[test]
    fn empty_and_full() {
        let c = ctx();
        assert_eq!(DenseCylinder::empty(&c).count(&c), 0);
        assert_eq!(DenseCylinder::full(&c).count(&c), 9);
    }

    #[test]
    fn and_not_matches_unfused_definition() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [1, 2], [2, 2]]);
        let r = Relation::from_tuples(2, [[1u32, 2], [0, 0]]);
        let a = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        let b = DenseCylinder::from_atom(&c, &r, &[0, 1]);
        // Fused kernel.
        let mut fused = a.clone();
        fused.and_not_with(&c, &b);
        // Unfused a ∧ ¬b.
        let mut neg = b.clone();
        neg.not(&c);
        let mut plain = a.clone();
        plain.and_with(&c, &neg);
        assert_eq!(fused, plain);
        assert!(fused.contains(&c, &[0, 1]));
        assert!(!fused.contains(&c, &[1, 2]));
    }

    #[test]
    fn atom_load_distinct_vars() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [1, 2]]);
        // E(x0, x1): exactly the relation itself.
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        assert_eq!(cyl.count(&c), 2);
        assert!(cyl.contains(&c, &[0, 1]));
        assert!(!cyl.contains(&c, &[1, 0]));
        // E(x1, x0): transposed.
        let t = DenseCylinder::from_atom(&c, &e, &[1, 0]);
        assert!(t.contains(&c, &[1, 0]));
        assert!(!t.contains(&c, &[0, 1]));
    }

    #[test]
    fn atom_load_repeated_vars_select_diagonal() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 0], [1, 2]]);
        // E(x0, x0): only tuples with equal components survive; cylindrical in x1.
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 0]);
        assert_eq!(cyl.count(&c), 3); // (0,*) for * in 0..3
        assert!(cyl.contains(&c, &[0, 2]));
        assert!(!cyl.contains(&c, &[1, 0]));
    }

    #[test]
    fn atom_load_unary_is_cylindrical() {
        let c = ctx();
        let p = Relation::from_tuples(1, [[2u32]]);
        let cyl = DenseCylinder::from_atom(&c, &p, &[1]);
        assert_eq!(cyl.count(&c), 3);
        assert!(cyl.contains(&c, &[0, 2]));
        assert!(cyl.contains(&c, &[2, 2]));
        assert!(!cyl.contains(&c, &[2, 0]));
    }

    #[test]
    fn atom_ignores_out_of_domain_tuples() {
        let c = ctx();
        let p = Relation::from_tuples(1, [[7u32]]);
        let cyl = DenseCylinder::from_atom(&c, &p, &[0]);
        assert_eq!(cyl.count(&c), 0);
    }

    #[test]
    fn equality_diagonal() {
        let c = ctx();
        let d = DenseCylinder::equality(&c, 0, 1);
        assert_eq!(d.count(&c), 3);
        assert!(d.contains(&c, &[2, 2]));
        let refl = DenseCylinder::equality(&c, 1, 1);
        assert_eq!(refl.count(&c), 9);
    }

    #[test]
    fn const_eq_hyperplane() {
        let c = ctx();
        let h = DenseCylinder::const_eq(&c, 0, 1);
        assert_eq!(h.count(&c), 3);
        assert!(h.contains(&c, &[1, 0]));
        let out = DenseCylinder::const_eq(&c, 0, 99);
        assert_eq!(out.count(&c), 0);
    }

    #[test]
    fn exists_projects_fibers() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        // ∃x1 E(x0,x1): true iff x0 = 0, any x1.
        let ex = cyl.exists(&c, 1);
        assert_eq!(ex.count(&c), 3);
        assert!(ex.contains(&c, &[0, 0]));
        assert!(ex.contains(&c, &[0, 2]));
        assert!(!ex.contains(&c, &[1, 0]));
    }

    #[test]
    fn forall_dual() {
        let c = ctx();
        // ∀x1 (x0 = x1) holds for no x0 when n > 1.
        let d = DenseCylinder::equality(&c, 0, 1);
        assert_eq!(d.forall(&c, 1).count(&c), 0);
        // ∀x1 true = true.
        assert_eq!(DenseCylinder::full(&c).forall(&c, 1).count(&c), 9);
    }

    #[test]
    fn preimage_identity_and_swap() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [2, 0]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        // Identity map.
        let id = cyl.preimage(&c, &[CoordSource::Coord(0), CoordSource::Coord(1)]);
        assert!(id == cyl);
        // Swap coordinates: membership of (a,b) iff (b,a) ∈ E.
        let sw = cyl.preimage(&c, &[CoordSource::Coord(1), CoordSource::Coord(0)]);
        assert!(sw.contains(&c, &[1, 0]));
        assert!(sw.contains(&c, &[0, 2]));
        assert!(!sw.contains(&c, &[0, 1]));
    }

    #[test]
    fn preimage_with_constants() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [2, 0]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        // b̄ = (0, ā[1]): membership iff (0, x1) ∈ E, cylindrical in x0.
        let pin = cyl.preimage(&c, &[CoordSource::Const(0), CoordSource::Coord(1)]);
        assert_eq!(pin.count(&c), 3); // (·, 1) for all 3 values of x0
        assert!(pin.contains(&c, &[2, 1]));
        assert!(!pin.contains(&c, &[2, 0]));
        // Out-of-domain constant → empty.
        let oob = cyl.preimage(&c, &[CoordSource::Const(9), CoordSource::Coord(1)]);
        assert_eq!(oob.count(&c), 0);
    }

    /// `preimage` against its definition, point by point, over maps
    /// with permuted, duplicated, dropped and constant coordinates.
    #[test]
    fn preimage_matches_pointwise_definition() {
        let c = CylCtx::new(3, 3);
        let e = Relation::from_tuples(3, [[0u32, 1, 2], [2, 0, 1], [1, 1, 1], [2, 2, 0]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1, 2]);
        let (co, k) = (CoordSource::Coord, CoordSource::Const);
        for map in [
            vec![co(0), co(1), co(2)],
            vec![co(2), co(1), co(0)],
            vec![co(1), co(0), co(2)],
            vec![co(0), co(0), co(2)],
            vec![co(2), co(1), co(2)],
            vec![k(2), co(0), co(1)],
            vec![co(1), k(1), co(1)],
            vec![k(0), k(1), k(2)],
        ] {
            let pre = cyl.preimage(&c, &map);
            for p in c.index().points() {
                let src: Vec<Elem> = map
                    .iter()
                    .map(|m| match *m {
                        CoordSource::Coord(j) => p[j],
                        CoordSource::Const(v) => v,
                    })
                    .collect();
                assert_eq!(
                    pre.contains(&c, &p),
                    cyl.contains(&c, &src),
                    "{map:?} at {p:?}"
                );
            }
        }
        // Out-of-domain constants and an empty source give ⊥.
        assert!(cyl.preimage(&c, &[k(9), co(1), co(2)]).is_empty(&c));
        let none = DenseCylinder::empty(&c).preimage(&c, &[co(1), co(0), co(2)]);
        assert!(none.is_empty(&c));
    }

    #[test]
    fn preimage_duplicate_source() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[1u32, 1], [0, 2]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        // b̄ = (ā[0], ā[0]): membership iff (x0,x0) ∈ E — diagonal test.
        let d = cyl.preimage(&c, &[CoordSource::Coord(0), CoordSource::Coord(0)]);
        assert!(d.contains(&c, &[1, 2]));
        assert!(!d.contains(&c, &[0, 2]));
    }

    #[test]
    fn to_relation_roundtrip() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [2, 2]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        let back = cyl.to_relation(&c, &[0, 1]);
        assert_eq!(back.sorted(), e.sorted());
        // Projection onto one coordinate deduplicates.
        let ones = cyl.to_relation(&c, &[0]);
        assert_eq!(ones.len(), 2);
    }
}
