//! The cylindrical-relation interface used by the bounded-variable
//! evaluator.
//!
//! The proof of Proposition 3.1 evaluates an `FO^k` query bottom-up, with
//! every subformula denoting a relation over *all* of `x₁,…,x_k` — a
//! "cylinder" in `D^k`. Under that representation:
//!
//! * conjunction, disjunction and negation are intersection, union and
//!   complement in `D^k`;
//! * an existential quantifier `∃xᵢ φ` keeps a point iff *some* point in its
//!   coordinate-`i` fiber satisfies `φ` (project out coordinate `i`, then
//!   cylindrify back);
//! * an atom `R(x_{i₁},…,x_{i_m})` is loaded as the set of points whose
//!   selected coordinates form a tuple of `R`.
//!
//! Every operation maps `D^k → D^k`, so intermediate results never exceed
//! `n^k` — the paper's polynomial bound, made structural. [`CylinderOps`]
//! abstracts the backend so the evaluator can run on a dense bitset
//! ([`DenseCylinder`](crate::dense::DenseCylinder)) or a shared-node BDD
//! ([`BddCylinder`](crate::bdd::BddCylinder)); see
//! [`backend`](crate::backend) for the selection policy. Agreement between
//! the backends is property-tested here and in `bvq-core`.

use std::sync::Arc;

use crate::bdd::BddSpace;
use crate::{Elem, PointIndex, Relation, Tuple};

/// Where a source-point coordinate comes from in a [`CylinderOps::preimage`]
/// operation: a coordinate of the target point, or a constant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoordSource {
    /// Copy coordinate `j` of the target point.
    Coord(usize),
    /// Use the constant element.
    Const(Elem),
}

/// Shared context for cylindrical operations: the domain size `n` and the
/// variable bound `k`, plus the point index for dense backends.
#[derive(Clone, Debug)]
pub struct CylCtx {
    n: usize,
    k: usize,
    index: Option<PointIndex>,
    threads: usize,
    bdd: Arc<BddSpace>,
}

impl CylCtx {
    /// Creates a context for width `k` over a domain of size `n`.
    ///
    /// The dense point index is prepared when `n^k` is within
    /// [`PointIndex::MAX_SIZE`]; otherwise only the BDD backend can be used.
    /// The context starts sequential (`threads = 1`); see
    /// [`CylCtx::with_threads`].
    pub fn new(n: usize, k: usize) -> Self {
        CylCtx {
            n,
            k,
            index: PointIndex::new(n, k),
            threads: 1,
            bdd: Arc::new(BddSpace::new(n, k)),
        }
    }

    /// Returns the context with the given worker-thread count (clamped to
    /// ≥ 1). No cylinder kernel spawns threads; the count is carried for
    /// the relational kernels an evaluation runs beside its cylinders
    /// (see [`crate::parallel`]).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The worker-thread count for relational kernels run in this context.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Domain size.
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// Variable bound `k`.
    pub fn width(&self) -> usize {
        self.k
    }

    /// Whether the dense backend is usable (`n^k` small enough).
    pub fn dense_feasible(&self) -> bool {
        self.index.is_some()
    }

    /// The point index.
    ///
    /// # Panics
    /// Panics if `n^k` exceeded the dense budget.
    pub fn index(&self) -> &PointIndex {
        self.index
            .as_ref()
            .expect("dense space too large; use the BDD backend")
    }

    /// The shared symbolic node space for the BDD backend. Created lazily
    /// empty by [`CylCtx::new`]; clones of the context share one store so
    /// cylinders built anywhere in an evaluation hash-cons together.
    pub fn bdd(&self) -> &Arc<BddSpace> {
        &self.bdd
    }
}

/// Operations on subsets of `D^k` needed by the `FO^k` evaluator.
///
/// Implementations must satisfy the Boolean-algebra laws and the
/// quantifier law `exists(i)` = "union over the coordinate-`i` fibers";
/// these are checked by property tests against a model implementation.
pub trait CylinderOps: Sized + Clone + PartialEq {
    /// The empty subset of `D^k`.
    fn empty(ctx: &CylCtx) -> Self;

    /// All of `D^k`.
    fn full(ctx: &CylCtx) -> Self;

    /// Loads a database atom: the set of points `ā ∈ D^k` such that
    /// `(ā[vars[0]], …, ā[vars[m-1]]) ∈ rel`, where `m = rel.arity()`.
    ///
    /// `vars[j]` is the index (0-based) of the variable in position `j` of
    /// the atom; variables may repeat, which realises the equality-pattern
    /// selections discussed in Lemma 3.6.
    fn from_atom(ctx: &CylCtx, rel: &Relation, vars: &[usize]) -> Self;

    /// The diagonal `xᵢ = xⱼ`.
    fn equality(ctx: &CylCtx, i: usize, j: usize) -> Self;

    /// The hyperplane `xᵢ = c` for a constant `c`.
    fn const_eq(ctx: &CylCtx, i: usize, c: Elem) -> Self;

    /// In-place intersection (conjunction).
    fn and_with(&mut self, ctx: &CylCtx, other: &Self);

    /// In-place union (disjunction).
    fn or_with(&mut self, ctx: &CylCtx, other: &Self);

    /// In-place complement (negation).
    fn not(&mut self, ctx: &CylCtx);

    /// Fused in-place set difference: `self ← self ∖ other`, i.e. the
    /// conjunction `self ∧ ¬other` without materialising the complement.
    ///
    /// The bytecode compiler emits this for the ubiquitous `φ ∧ ¬ψ` shape;
    /// backends override it with a one-pass kernel (word-parallel
    /// `AND NOT` on the dense bitset, one apply pass on the BDD).
    /// The default is the unfused two-pass definition, which overrides
    /// must agree with.
    fn and_not_with(&mut self, ctx: &CylCtx, other: &Self) {
        let mut complement = other.clone();
        complement.not(ctx);
        self.and_with(ctx, &complement);
    }

    /// Existential quantification over coordinate `i`: the result contains
    /// `ā` iff `ā[i := b]` is in `self` for some `b ∈ D`.
    #[must_use]
    fn exists(&self, ctx: &CylCtx, i: usize) -> Self;

    /// Substitution: the set `{ā ∈ D^k : σ(ā) ∈ self}` where
    /// `σ(ā)[i] = ā[j]` when `map[i] = Coord(j)` and `σ(ā)[i] = c` when
    /// `map[i] = Const(c)` (`map.len() == k`).
    ///
    /// This is how atoms over fixpoint relation variables and fixpoint
    /// applications are loaded: the recursion variable's current value is a
    /// cylinder, and `S(t₁,…,t_m)` holds at `ā` iff the point obtained by
    /// rewriting the bound coordinates to the argument terms lies in it.
    /// An out-of-domain constant yields the empty set.
    #[must_use]
    fn preimage(&self, ctx: &CylCtx, map: &[CoordSource]) -> Self;

    /// Membership of a full `k`-tuple.
    fn contains(&self, ctx: &CylCtx, point: &[Elem]) -> bool;

    /// Number of points in the set.
    fn count(&self, ctx: &CylCtx) -> usize;

    /// Whether the set is empty.
    fn is_empty(&self, ctx: &CylCtx) -> bool {
        self.count(ctx) == 0
    }

    /// Whether `self ⊆ other`.
    fn is_subset(&self, ctx: &CylCtx, other: &Self) -> bool;

    /// Converts to a sparse [`Relation`] over the chosen coordinates
    /// (deduplicating as projection does).
    fn to_relation(&self, ctx: &CylCtx, coords: &[usize]) -> Relation;

    /// The points whose coordinates outside `coords` (distinct) are all
    /// 0, as a relation over `coords`. When the set is cylindrical in
    /// every other coordinate — it does not depend on them, as the value
    /// of a formula whose free variables are among `coords` does not —
    /// this equals [`CylinderOps::to_relation`], reading `n^|coords|`
    /// points instead of every point of the set. The default restricts
    /// to the slice with [`CylinderOps::const_eq`] and converts that.
    fn slice_to_relation(&self, ctx: &CylCtx, coords: &[usize]) -> Relation {
        let mut slice = self.clone();
        for i in (0..ctx.width()).filter(|i| !coords.contains(i)) {
            slice.and_with(ctx, &Self::const_eq(ctx, i, 0));
        }
        slice.to_relation(ctx, coords)
    }

    /// Builds a cylinder from an `m`-ary relation placed on coordinates
    /// `coords` (distinct), cylindrical in the remaining coordinates.
    /// This is `from_atom` restricted to distinct variables; provided as a
    /// default in terms of `from_atom`.
    fn from_relation(ctx: &CylCtx, rel: &Relation, coords: &[usize]) -> Self {
        Self::from_atom(ctx, rel, coords)
    }

    /// Universal quantification over coordinate `i`, derived as ¬∃¬.
    #[must_use]
    fn forall(&self, ctx: &CylCtx, i: usize) -> Self {
        let mut inner = self.clone();
        inner.not(ctx);
        let mut ex = inner.exists(ctx, i);
        ex.not(ctx);
        ex
    }

    /// Iterates the points of the set as full `k`-tuples (sorted order not
    /// required). Default goes through `to_relation`.
    fn points(&self, ctx: &CylCtx) -> Vec<Tuple> {
        let coords: Vec<usize> = (0..ctx.width()).collect();
        self.to_relation(ctx, &coords).iter().cloned().collect()
    }

    /// Estimated heap footprint of this cylinder's representation, in
    /// bytes. Backends override with their actual storage cost (bitset
    /// words, reachable BDD nodes); the default counts one tuple per
    /// point, as a [`Relation`] of the same points would.
    fn size_bytes(&self, ctx: &CylCtx) -> usize {
        self.count(ctx) * (ctx.width() * std::mem::size_of::<Elem>() + 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_reports_feasibility() {
        let small = CylCtx::new(10, 3);
        assert!(small.dense_feasible());
        let huge = CylCtx::new(1 << 20, 4);
        assert!(!huge.dense_feasible());
        assert_eq!(huge.width(), 4);
        assert_eq!(huge.domain_size(), 1 << 20);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn index_panics_when_infeasible() {
        let huge = CylCtx::new(1 << 20, 4);
        let _ = huge.index();
    }
}
