//! Dense cylinder backend: a bitset over the ranked space `D^k`.
//!
//! When `n^k` fits in memory this is by far the fastest backend: the
//! Boolean connectives are word-parallel, and `∃xᵢ` is two linear passes
//! (collapse the coordinate-`i` fiber, then re-broadcast), i.e. `O(n^k)`
//! regardless of how full the set is.
//!
//! When the context carries `threads > 1` (see [`CylCtx::with_threads`]),
//! the point-loop constructions (`equality`, `const_eq`, `preimage`,
//! `exists`, `from_atom`) run partitioned over word-aligned chunks of the
//! ranked space via [`BitSet::from_fn`] — no two workers touch the same
//! word, so the result is bit-for-bit the sequential one. The Boolean
//! connectives stay sequential: they are already single word ops per 64
//! points and memory-bound.

use crate::bitset::BitSet;
use crate::cylinder::{CoordSource, CylCtx, CylinderOps};
use crate::parallel::map_chunks;
use crate::{Elem, Relation, Tuple};

/// Below this many points the partitioned dense constructions fall back to
/// the sequential loops (thread spawn would dominate).
const DENSE_PAR_POINTS: usize = 1 << 14;

/// Below this many atom tuples `from_atom` stays sequential.
const DENSE_PAR_TUPLES: usize = 1024;

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
}

impl CylinderOps for DenseCylinder {
    const TABLE_GATHER: bool = true;

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
        // Coordinates not mentioned by the atom are cylindrical: enumerate
        // the matching tuples and broadcast over the free coordinates.
        let mentioned: Vec<bool> = {
            let mut m = vec![false; k];
            for &v in vars {
                assert!(v < k, "atom variable index {v} out of width {k}");
                m[v] = true;
            }
            m
        };
        let free: Vec<usize> = (0..k).filter(|&i| !mentioned[i]).collect();
        let add_tuple = |bits: &mut BitSet, t: &Tuple| {
            // Check internal consistency for repeated variables, and build
            // the partial point.
            let mut point = vec![0 as Elem; k];
            let mut assigned = vec![false; k];
            for (j, &v) in vars.iter().enumerate() {
                if t[j] as usize >= n {
                    return; // tuple outside the domain
                }
                if assigned[v] && point[v] != t[j] {
                    return;
                }
                point[v] = t[j];
                assigned[v] = true;
            }
            // Broadcast over free coordinates with an odometer.
            let mut digits = vec![0usize; free.len()];
            loop {
                for (d, &c) in digits.iter().zip(&free) {
                    point[c] = *d as Elem;
                }
                bits.insert(ix.rank(&point));
                let mut i = free.len();
                loop {
                    if i == 0 {
                        // Done with this tuple.
                        break;
                    }
                    i -= 1;
                    digits[i] += 1;
                    if digits[i] < n {
                        break;
                    }
                    digits[i] = 0;
                }
                if free.is_empty() || digits.iter().all(|&d| d == 0) {
                    break;
                }
            }
        };
        if ctx.threads() > 1 && rel.len() >= DENSE_PAR_TUPLES {
            // Partition the atom's tuples; workers fill private bitsets
            // that are OR-merged (idempotent, so order is irrelevant).
            let tuples: Vec<&Tuple> = rel.iter().collect();
            let locals = map_chunks(ctx.threads(), tuples.len(), |range| {
                let mut bits = BitSet::new(ix.size());
                for t in &tuples[range] {
                    add_tuple(&mut bits, t);
                }
                bits
            });
            let mut out = Self::empty(ctx);
            for local in locals {
                out.bits.union_with(&local);
            }
            out
        } else {
            let mut out = Self::empty(ctx);
            for t in rel.iter() {
                add_tuple(&mut out.bits, t);
            }
            out
        }
    }

    fn equality(ctx: &CylCtx, i: usize, j: usize) -> Self {
        let ix = ctx.index();
        if i == j {
            return Self::full(ctx);
        }
        if ctx.threads() > 1 && ix.size() >= DENSE_PAR_POINTS {
            let bits = BitSet::from_fn(ix.size(), ctx.threads(), |idx| {
                ix.digit(idx, i) == ix.digit(idx, j)
            });
            return DenseCylinder { bits };
        }
        let mut out = Self::empty(ctx);
        for idx in 0..ix.size() {
            if ix.digit(idx, i) == ix.digit(idx, j) {
                out.bits.insert(idx);
            }
        }
        out
    }

    fn const_eq(ctx: &CylCtx, i: usize, c: Elem) -> Self {
        let ix = ctx.index();
        if (c as usize) >= ctx.domain_size() {
            return Self::empty(ctx);
        }
        if ctx.threads() > 1 && ix.size() >= DENSE_PAR_POINTS {
            let bits = BitSet::from_fn(ix.size(), ctx.threads(), |idx| ix.digit(idx, i) == c);
            return DenseCylinder { bits };
        }
        let mut out = Self::empty(ctx);
        for idx in 0..ix.size() {
            if ix.digit(idx, i) == c {
                out.bits.insert(idx);
            }
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
        let ix = ctx.index();
        let n = ctx.domain_size();
        let collapsed_size = ix.size().checked_div(n).unwrap_or(0);
        if ctx.threads() > 1 && ix.size() >= DENSE_PAR_POINTS && n > 0 {
            // Pass 1 (partitioned over the collapsed space): a fiber is
            // kept iff some point of it is set.
            let collapsed = BitSet::from_fn(collapsed_size, ctx.threads(), |c| {
                (0..n).any(|b| self.bits.contains(ix.expand(c, i, b as Elem)))
            });
            // Pass 2 (partitioned over the full space): broadcast back.
            let bits = BitSet::from_fn(ix.size(), ctx.threads(), |idx| {
                collapsed.contains(ix.collapse(idx, i))
            });
            return DenseCylinder { bits };
        }
        // Pass 1: collapse coordinate i.
        let mut collapsed = BitSet::new(collapsed_size);
        for idx in self.bits.iter() {
            collapsed.insert(ix.collapse(idx, i));
        }
        // Pass 2: broadcast back over coordinate i.
        let mut out = Self::empty(ctx);
        for c in collapsed.iter() {
            for b in 0..n {
                out.bits.insert(ix.expand(c, i, b as Elem));
            }
        }
        out
    }

    fn preimage(&self, ctx: &CylCtx, map: &[CoordSource]) -> Self {
        let ix = ctx.index();
        let k = ctx.width();
        let n = ctx.domain_size();
        assert_eq!(map.len(), k, "preimage map must cover all {k} coordinates");
        // Reject out-of-domain constants up front.
        for m in map {
            if let CoordSource::Const(c) = m {
                if *c as usize >= n {
                    return Self::empty(ctx);
                }
            }
        }
        let source_of = |target: usize| {
            let mut source = 0usize;
            for (i, m) in map.iter().enumerate() {
                let digit = match m {
                    CoordSource::Coord(j) => ix.digit(target, *j),
                    CoordSource::Const(c) => *c,
                };
                source += digit as usize * ix.stride(i);
            }
            source
        };
        if ctx.threads() > 1 && ix.size() >= DENSE_PAR_POINTS {
            let bits = BitSet::from_fn(ix.size(), ctx.threads(), |target| {
                self.bits.contains(source_of(target))
            });
            return DenseCylinder { bits };
        }
        let mut out = Self::empty(ctx);
        for target in 0..ix.size() {
            if self.bits.contains(source_of(target)) {
                out.bits.insert(target);
            }
        }
        out
    }

    fn preimage_with_table(&self, ctx: &CylCtx, table: &[u32]) -> Self {
        if ctx.threads() > 1 && table.len() >= DENSE_PAR_POINTS {
            let bits = BitSet::from_fn(table.len(), ctx.threads(), |target| {
                self.bits.contains(table[target] as usize)
            });
            return DenseCylinder { bits };
        }
        let mut out = Self::empty(ctx);
        for (target, &source) in table.iter().enumerate() {
            if self.bits.contains(source as usize) {
                out.bits.insert(target);
            }
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

    #[test]
    fn preimage_table_gather_agrees() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[0u32, 1], [2, 0], [1, 1]]);
        let cyl = DenseCylinder::from_atom(&c, &e, &[0, 1]);
        for map in [
            vec![CoordSource::Coord(0), CoordSource::Coord(1)],
            vec![CoordSource::Coord(1), CoordSource::Coord(0)],
            vec![CoordSource::Coord(0), CoordSource::Coord(0)],
            vec![CoordSource::Const(2), CoordSource::Coord(1)],
        ] {
            let table = crate::cylinder::preimage_table(&c, &map).expect("in-domain map");
            assert!(cyl.preimage_with_table(&c, &table) == cyl.preimage(&c, &map));
        }
        // Out-of-domain constants refuse a table (callers fall back).
        let oob = [CoordSource::Const(9), CoordSource::Coord(1)];
        assert!(crate::cylinder::preimage_table(&c, &oob).is_none());
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
