//! Sparse cylinder backend: an explicit set of `k`-tuples.
//!
//! Used when `n^k` is too large to materialise as a bitset, or when the
//! sets involved are known to stay small (e.g. negation-free queries over
//! sparse data). Negation and the cylindrical broadcast of atoms still cost
//! up to `n^k` — that bound is inherent to the representation of Prop 3.1 —
//! but positive connectives cost only the number of tuples present.

//!
//! With `threads > 1` in the context, the full-space scans (`full`,
//! `equality`, `const_eq`, `not`, `preimage`) partition the `n^k` point
//! space by the value of the *first* coordinate, so workers enumerate
//! disjoint slabs and their private hash sets merge without overlap;
//! `from_atom` and `exists` partition the tuple set instead and merge
//! idempotently. Either way the result set is identical to the sequential
//! one for every thread count.

use crate::cylinder::{CoordSource, CylCtx, CylinderOps};
use crate::hasher::FxHashSet;
use crate::parallel::map_chunks;
use crate::{Elem, Relation, Tuple};

/// Below this many points (`n^k`) the full-space scans stay sequential.
const SPARSE_PAR_POINTS: usize = 1 << 14;

/// Below this many stored tuples `from_atom` / `exists` stay sequential.
const SPARSE_PAR_TUPLES: usize = 4096;

/// A subset of `D^k` stored as a hash set of `k`-tuples.
#[derive(Clone, Debug)]
pub struct SparseCylinder {
    tuples: FxHashSet<Tuple>,
}

impl PartialEq for SparseCylinder {
    fn eq(&self, other: &Self) -> bool {
        self.tuples == other.tuples
    }
}

/// Enumerates all `k`-tuples over a domain of size `n`, calling `f` on each.
fn for_each_point(n: usize, k: usize, mut f: impl FnMut(&[Elem])) {
    let mut t = vec![0 as Elem; k];
    loop {
        f(&t);
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            t[i] += 1;
            if (t[i] as usize) < n {
                break;
            }
            t[i] = 0;
        }
    }
}

/// Enumerates the `k`-tuples (`k ≥ 1`) whose first coordinate lies in
/// `first`, calling `f` on each — one slab of the point space.
fn for_each_point_in(
    n: usize,
    k: usize,
    first: std::ops::Range<usize>,
    mut f: impl FnMut(&[Elem]),
) {
    debug_assert!(k >= 1);
    let mut t = vec![0 as Elem; k];
    for a in first {
        t[0] = a as Elem;
        for c in t[1..].iter_mut() {
            *c = 0;
        }
        loop {
            f(&t);
            let mut i = k;
            let mut done = false;
            loop {
                if i == 1 {
                    done = true;
                    break;
                }
                i -= 1;
                t[i] += 1;
                if (t[i] as usize) < n {
                    break;
                }
                t[i] = 0;
            }
            if done {
                break;
            }
        }
    }
}

/// Partitioned point-space filter: returns `Some(set)` of the points
/// satisfying `pred` when the parallel path applies (`threads > 1`, `k ≥ 1`
/// and at least [`SPARSE_PAR_POINTS`] points), `None` to signal the caller
/// to run the sequential scan. Workers own disjoint first-coordinate slabs,
/// so the merged set is exactly the sequential result.
fn par_filter_points<P>(ctx: &CylCtx, pred: P) -> Option<FxHashSet<Tuple>>
where
    P: Fn(&[Elem]) -> bool + Sync,
{
    let n = ctx.domain_size();
    let k = ctx.width();
    if ctx.threads() <= 1 || k == 0 || n == 0 {
        return None;
    }
    if n.checked_pow(k as u32)
        .is_some_and(|total| total < SPARSE_PAR_POINTS)
    {
        return None;
    }
    let locals = map_chunks(ctx.threads(), n, |first| {
        let mut set = FxHashSet::default();
        for_each_point_in(n, k, first, |t| {
            if pred(t) {
                set.insert(Tuple::from_slice(t));
            }
        });
        set
    });
    let mut out = FxHashSet::default();
    for local in locals {
        out.extend(local);
    }
    Some(out)
}

impl CylinderOps for SparseCylinder {
    fn empty(_ctx: &CylCtx) -> Self {
        SparseCylinder {
            tuples: FxHashSet::default(),
        }
    }

    fn full(ctx: &CylCtx) -> Self {
        if let Some(tuples) = par_filter_points(ctx, |_| true) {
            return SparseCylinder { tuples };
        }
        let mut s = Self::empty(ctx);
        for_each_point(ctx.domain_size(), ctx.width(), |t| {
            s.tuples.insert(Tuple::from_slice(t));
        });
        s
    }

    fn from_atom(ctx: &CylCtx, rel: &Relation, vars: &[usize]) -> Self {
        assert_eq!(
            rel.arity(),
            vars.len(),
            "atom variable count ≠ relation arity"
        );
        let k = ctx.width();
        let n = ctx.domain_size();
        let mut mentioned = vec![false; k];
        for &v in vars {
            assert!(v < k, "atom variable index {v} out of width {k}");
            mentioned[v] = true;
        }
        let free: Vec<usize> = (0..k).filter(|&i| !mentioned[i]).collect();
        let add_tuple = |set: &mut FxHashSet<Tuple>, t: &Tuple| {
            let mut point = vec![0 as Elem; k];
            let mut assigned = vec![false; k];
            for (j, &v) in vars.iter().enumerate() {
                if t[j] as usize >= n || (assigned[v] && point[v] != t[j]) {
                    return;
                }
                point[v] = t[j];
                assigned[v] = true;
            }
            // Broadcast over the free coordinates.
            let mut stack = vec![(0usize, point)];
            while let Some((fi, p)) = stack.pop() {
                if fi == free.len() {
                    set.insert(Tuple::from_slice(&p));
                    continue;
                }
                for b in 0..n {
                    let mut q = p.clone();
                    q[free[fi]] = b as Elem;
                    stack.push((fi + 1, q));
                }
            }
        };
        let mut out = Self::empty(ctx);
        if ctx.threads() > 1 && rel.len() >= SPARSE_PAR_TUPLES {
            let tuples: Vec<&Tuple> = rel.iter().collect();
            let locals = map_chunks(ctx.threads(), tuples.len(), |range| {
                let mut set = FxHashSet::default();
                for t in &tuples[range] {
                    add_tuple(&mut set, t);
                }
                set
            });
            for local in locals {
                out.tuples.extend(local);
            }
        } else {
            for t in rel.iter() {
                add_tuple(&mut out.tuples, t);
            }
        }
        out
    }

    fn equality(ctx: &CylCtx, i: usize, j: usize) -> Self {
        if i == j {
            return Self::full(ctx);
        }
        if let Some(tuples) = par_filter_points(ctx, |t| t[i] == t[j]) {
            return SparseCylinder { tuples };
        }
        let mut out = Self::empty(ctx);
        for_each_point(ctx.domain_size(), ctx.width(), |t| {
            if t[i] == t[j] {
                out.tuples.insert(Tuple::from_slice(t));
            }
        });
        out
    }

    fn const_eq(ctx: &CylCtx, i: usize, c: Elem) -> Self {
        if (c as usize) >= ctx.domain_size() {
            return Self::empty(ctx);
        }
        if let Some(tuples) = par_filter_points(ctx, |t| t[i] == c) {
            return SparseCylinder { tuples };
        }
        let mut out = Self::empty(ctx);
        for_each_point(ctx.domain_size(), ctx.width(), |t| {
            if t[i] == c {
                out.tuples.insert(Tuple::from_slice(t));
            }
        });
        out
    }

    fn and_with(&mut self, _ctx: &CylCtx, other: &Self) {
        self.tuples.retain(|t| other.tuples.contains(t));
    }

    fn and_not_with(&mut self, _ctx: &CylCtx, other: &Self) {
        self.tuples.retain(|t| !other.tuples.contains(t));
    }

    fn or_with(&mut self, _ctx: &CylCtx, other: &Self) {
        for t in &other.tuples {
            self.tuples.insert(t.clone());
        }
    }

    fn not(&mut self, ctx: &CylCtx) {
        if let Some(tuples) = par_filter_points(ctx, |t| !self.tuples.contains(t)) {
            self.tuples = tuples;
            return;
        }
        let mut out = FxHashSet::default();
        for_each_point(ctx.domain_size(), ctx.width(), |t| {
            if !self.tuples.contains(t) {
                out.insert(Tuple::from_slice(t));
            }
        });
        self.tuples = out;
    }

    fn exists(&self, ctx: &CylCtx, i: usize) -> Self {
        let n = ctx.domain_size();
        // Collapse: the set of tuples with coordinate i zeroed.
        let mut collapsed: FxHashSet<Tuple> = FxHashSet::default();
        if ctx.threads() > 1 && self.tuples.len() >= SPARSE_PAR_TUPLES {
            let tuples: Vec<&Tuple> = self.tuples.iter().collect();
            let locals = map_chunks(ctx.threads(), tuples.len(), |range| {
                tuples[range]
                    .iter()
                    .map(|t| t.with(i, 0))
                    .collect::<FxHashSet<_>>()
            });
            for local in locals {
                collapsed.extend(local);
            }
        } else {
            for t in &self.tuples {
                collapsed.insert(t.with(i, 0));
            }
        }
        // Broadcast coordinate i back over the domain.
        let mut out = Self::empty(ctx);
        for t in collapsed {
            for b in 0..n {
                out.tuples.insert(t.with(i, b as Elem));
            }
        }
        out
    }

    fn preimage(&self, ctx: &CylCtx, map: &[CoordSource]) -> Self {
        let k = ctx.width();
        let n = ctx.domain_size();
        assert_eq!(map.len(), k, "preimage map must cover all {k} coordinates");
        let mut out = Self::empty(ctx);
        for m in map {
            if let CoordSource::Const(c) = m {
                if *c as usize >= n {
                    return out;
                }
            }
        }
        if let Some(tuples) = par_filter_points(ctx, |target| {
            let source = Tuple::from_fn(k, |i| match map[i] {
                CoordSource::Coord(j) => target[j],
                CoordSource::Const(c) => c,
            });
            self.tuples.contains(source.as_slice())
        }) {
            return SparseCylinder { tuples };
        }
        let mut source = vec![0 as Elem; k];
        for_each_point(n, k, |target| {
            for (i, m) in map.iter().enumerate() {
                source[i] = match m {
                    CoordSource::Coord(j) => target[*j],
                    CoordSource::Const(c) => *c,
                };
            }
            if self.tuples.contains(source.as_slice()) {
                out.tuples.insert(Tuple::from_slice(target));
            }
        });
        out
    }

    fn contains(&self, _ctx: &CylCtx, point: &[Elem]) -> bool {
        self.tuples.contains(point)
    }

    fn count(&self, _ctx: &CylCtx) -> usize {
        self.tuples.len()
    }

    fn is_empty(&self, _ctx: &CylCtx) -> bool {
        self.tuples.is_empty()
    }

    fn is_subset(&self, _ctx: &CylCtx, other: &Self) -> bool {
        self.tuples.iter().all(|t| other.tuples.contains(t))
    }

    fn to_relation(&self, _ctx: &CylCtx, coords: &[usize]) -> Relation {
        let mut r = Relation::new(coords.len());
        for t in &self.tuples {
            r.insert(t.select(coords));
        }
        r
    }

    fn slice_to_relation(&self, ctx: &CylCtx, coords: &[usize]) -> Relation {
        let others: Vec<usize> = (0..ctx.width()).filter(|i| !coords.contains(i)).collect();
        let mut r = Relation::new(coords.len());
        for t in self
            .tuples
            .iter()
            .filter(|t| others.iter().all(|&i| t[i] == 0))
        {
            r.insert(t.select(coords));
        }
        r
    }

    fn size_bytes(&self, ctx: &CylCtx) -> usize {
        // Per-tuple payload plus the hash-set entry overhead.
        self.tuples.len() * (ctx.width() * std::mem::size_of::<Elem>() + 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> CylCtx {
        CylCtx::new(3, 2)
    }

    #[test]
    fn sparse_matches_expected_sizes() {
        let c = ctx();
        assert_eq!(SparseCylinder::empty(&c).count(&c), 0);
        assert_eq!(SparseCylinder::full(&c).count(&c), 9);
        assert_eq!(SparseCylinder::equality(&c, 0, 1).count(&c), 3);
    }

    #[test]
    fn not_complements() {
        let c = ctx();
        let mut s = SparseCylinder::equality(&c, 0, 1);
        s.not(&c);
        assert_eq!(s.count(&c), 6);
        assert!(!s.contains(&c, &[1, 1]));
        assert!(s.contains(&c, &[1, 2]));
    }

    #[test]
    fn and_not_matches_unfused_definition() {
        let c = ctx();
        let a = SparseCylinder::equality(&c, 0, 1);
        let b = SparseCylinder::const_eq(&c, 0, 1);
        let mut fused = a.clone();
        fused.and_not_with(&c, &b);
        let mut neg = b.clone();
        neg.not(&c);
        let mut plain = a.clone();
        plain.and_with(&c, &neg);
        assert_eq!(fused, plain);
        assert!(fused.contains(&c, &[0, 0]));
        assert!(!fused.contains(&c, &[1, 1]));
    }

    #[test]
    fn exists_broadcasts() {
        let c = ctx();
        let e = Relation::from_tuples(2, [[2u32, 0]]);
        let cyl = SparseCylinder::from_atom(&c, &e, &[0, 1]);
        let ex = cyl.exists(&c, 1);
        assert_eq!(ex.count(&c), 3);
        assert!(ex.contains(&c, &[2, 1]));
    }

    #[test]
    fn sparse_agrees_with_dense_on_random_ops() {
        use crate::dense::DenseCylinder;
        // A miniature differential test; the full property-based version
        // lives in bvq-core where the evaluator drives both backends.
        let c = CylCtx::new(4, 3);
        let r = Relation::from_tuples(3, [[0u32, 1, 2], [1, 1, 1], [3, 0, 3]]);
        let s = SparseCylinder::from_atom(&c, &r, &[2, 0, 1]);
        let d = DenseCylinder::from_atom(&c, &r, &[2, 0, 1]);
        assert_eq!(s.count(&c), d.count(&c));
        for i in 0..3 {
            let se = s.exists(&c, i);
            let de = d.exists(&c, i);
            assert_eq!(
                se.to_relation(&c, &[0, 1, 2]).sorted(),
                de.to_relation(&c, &[0, 1, 2]).sorted()
            );
        }
        let mut sn = s.clone();
        sn.not(&c);
        let mut dn = d.clone();
        dn.not(&c);
        assert_eq!(
            sn.to_relation(&c, &[0, 1, 2]).sorted(),
            dn.to_relation(&c, &[0, 1, 2]).sorted()
        );
    }
}
