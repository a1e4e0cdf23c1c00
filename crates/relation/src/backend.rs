//! The documented entry point for cylinder backends.
//!
//! Everything an embedder needs to evaluate bounded-variable queries over
//! subsets of `D^k` lives here: the [`CylinderOps`] trait, the shared
//! [`CylCtx`] context, and the three implementations —
//!
//! * [`DenseCylinder`] — a bitset over the ranked `n^k` point space.
//!   Fastest when `n^k` fits the dense budget; memory is always `n^k` bits.
//! * [`SparseCylinder`] — a hash set of tuples. Memory tracks cardinality;
//!   the only option (besides BDDs) when `n^k` overflows the dense budget.
//! * [`BddCylinder`] — a shared-node binary decision diagram over
//!   `k·⌈log₂ n⌉` bits. Memory tracks *structure*: diagonals, reachability
//!   frontiers and other regular sets stay polylogarithmic in `n` where
//!   dense pays `n^k` and sparse pays the cardinality.
//!
//! [`BackendKind`] names the implementations, [`BackendMode`] is the
//! user-facing request (`auto` or a forced backend), and [`choose`] is the
//! cost model mapping a context + formula shape to a concrete kind.

pub use crate::bdd::{BddCursor, BddCylinder, BddSpace};
pub use crate::cylinder::{CoordSource, CylCtx, CylinderOps};
pub use crate::dense::DenseCylinder;
pub use crate::sparse::SparseCylinder;

/// A concrete cylinder implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Bitset over the ranked `n^k` space.
    Dense,
    /// Hash set of tuples.
    Sparse,
    /// Shared-node BDD over `k·⌈log₂ n⌉` bits.
    Bdd,
}

impl BackendKind {
    /// Stable lower-case label (used by `explain` and bench output).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
            BackendKind::Sparse => "sparse",
            BackendKind::Bdd => "bdd",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The user-facing backend request: let the cost model pick, or force one
/// implementation. Flows CLI → protocol → cache key exactly like the
/// compile mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum BackendMode {
    /// Cost-based per-query choice (the default).
    #[default]
    Auto,
    /// Force the dense bitset (errors when `n^k` exceeds the budget).
    Dense,
    /// Force the sparse tuple set.
    Sparse,
    /// Force the symbolic BDD backend.
    Bdd,
}

impl BackendMode {
    /// Parses the wire/CLI spelling. Accepts `auto|dense|sparse|bdd`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(BackendMode::Auto),
            "dense" => Some(BackendMode::Dense),
            "sparse" => Some(BackendMode::Sparse),
            "bdd" => Some(BackendMode::Bdd),
            _ => None,
        }
    }

    /// Stable lower-case label (inverse of [`BackendMode::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            BackendMode::Auto => "auto",
            BackendMode::Dense => "dense",
            BackendMode::Sparse => "sparse",
            BackendMode::Bdd => "bdd",
        }
    }

    /// The forced kind, or `None` for `auto`.
    pub fn forced(self) -> Option<BackendKind> {
        match self {
            BackendMode::Auto => None,
            BackendMode::Dense => Some(BackendKind::Dense),
            BackendMode::Sparse => Some(BackendKind::Sparse),
            BackendMode::Bdd => Some(BackendKind::Bdd),
        }
    }
}

impl std::fmt::Display for BackendMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Shape hints the cost model extracts from the compiled query, feeding
/// [`choose`] alongside the context's density estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChoiceHints {
    /// The query complements or universally quantifies somewhere (¬, ∀) or
    /// iterates a fixpoint — shapes where sparse materialises near-full
    /// cylinders but a BDD keeps them in a handful of shared nodes.
    pub needs_complement: bool,
}

/// The per-operation cost model: picks the backend for a `(n, k)` space.
///
/// * A forced mode always wins (callers reject infeasible `dense` before
///   evaluating).
/// * `auto` on a dense-feasible space picks the bitset: at `n^k ≤ 2³²`
///   bits its word-parallel kernels beat both alternatives and the memory
///   ceiling is bounded by construction.
/// * `auto` past the dense budget picks the BDD when the query needs
///   complements, universals or fixpoints (sparse would enumerate up to
///   `n^k` tuples; the symbolic representation stays structural) and the
///   sparse tuple set otherwise (positive-existential queries only shrink,
///   and tuple streaming beats node management).
pub fn choose(ctx: &CylCtx, mode: BackendMode, hints: ChoiceHints) -> BackendKind {
    if let Some(kind) = mode.forced() {
        return kind;
    }
    if ctx.dense_feasible() {
        BackendKind::Dense
    } else if hints.needs_complement {
        BackendKind::Bdd
    } else {
        BackendKind::Sparse
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_labels_round_trip() {
        for s in ["auto", "dense", "sparse", "bdd"] {
            assert_eq!(BackendMode::parse(s).unwrap().label(), s);
        }
        assert_eq!(BackendMode::parse("symbolic"), None);
        assert_eq!(BackendMode::parse("AUTO"), None);
        assert_eq!(BackendMode::default(), BackendMode::Auto);
    }

    #[test]
    fn auto_choice_matches_the_documented_policy() {
        let small = CylCtx::new(16, 3);
        assert!(small.dense_feasible());
        assert_eq!(
            choose(&small, BackendMode::Auto, ChoiceHints::default()),
            BackendKind::Dense
        );
        let huge = CylCtx::new(1 << 20, 4);
        assert!(!huge.dense_feasible());
        assert_eq!(
            choose(&huge, BackendMode::Auto, ChoiceHints::default()),
            BackendKind::Sparse
        );
        assert_eq!(
            choose(
                &huge,
                BackendMode::Auto,
                ChoiceHints {
                    needs_complement: true
                }
            ),
            BackendKind::Bdd
        );
        // Forced modes ignore both feasibility and hints.
        assert_eq!(
            choose(&huge, BackendMode::Bdd, ChoiceHints::default()),
            BackendKind::Bdd
        );
        assert_eq!(
            choose(&small, BackendMode::Sparse, ChoiceHints::default()),
            BackendKind::Sparse
        );
    }
}
