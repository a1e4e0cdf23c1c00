//! The documented entry point for cylinder backends.
//!
//! Everything an embedder needs to evaluate bounded-variable queries over
//! subsets of `D^k` lives here: the [`CylinderOps`] trait, the shared
//! [`CylCtx`] context, and the two implementations —
//!
//! * [`DenseCylinder`] — a bitset over the ranked `n^k` point space.
//!   Fastest when `n^k` fits the dense budget; memory is always `n^k` bits.
//! * [`BddCylinder`] — a shared-node binary decision diagram over
//!   `k·⌈log₂ n⌉` bits. Memory tracks *structure*: diagonals, reachability
//!   frontiers and other regular sets stay polylogarithmic in `n` where
//!   dense pays `n^k`. The only backend past the dense budget.
//!
//! [`BackendKind`] names the implementations, [`BackendMode`] is the
//! user-facing request (`auto` or a forced backend), and [`choose`] is the
//! one policy mapping a context and a mode to a concrete kind: dense if it
//! fits, else the BDD.

pub use crate::bdd::{BddCursor, BddCylinder, BddSpace};
pub use crate::cylinder::{CoordSource, CylCtx, CylinderOps};
pub use crate::dense::DenseCylinder;

/// A concrete cylinder implementation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Bitset over the ranked `n^k` space.
    Dense,
    /// Shared-node BDD over `k·⌈log₂ n⌉` bits.
    Bdd,
}

impl BackendKind {
    /// Stable lower-case label (used by `explain` and bench output).
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Dense => "dense",
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
    /// Force the symbolic BDD backend.
    Bdd,
}

impl BackendMode {
    /// Parses the wire/CLI spelling. Accepts `auto|dense|bdd`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(BackendMode::Auto),
            "dense" => Some(BackendMode::Dense),
            "bdd" => Some(BackendMode::Bdd),
            _ => None,
        }
    }

    /// Stable lower-case label (inverse of [`BackendMode::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            BackendMode::Auto => "auto",
            BackendMode::Dense => "dense",
            BackendMode::Bdd => "bdd",
        }
    }

    /// The forced kind, or `None` for `auto`.
    pub fn forced(self) -> Option<BackendKind> {
        match self {
            BackendMode::Auto => None,
            BackendMode::Dense => Some(BackendKind::Dense),
            BackendMode::Bdd => Some(BackendKind::Bdd),
        }
    }
}

impl std::fmt::Display for BackendMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The backend policy: picks the implementation for a `(n, k)` space.
///
/// * A forced mode always wins (callers reject infeasible `dense` before
///   evaluating).
/// * `auto` on a dense-feasible space picks the bitset: at `n^k ≤ 2³²`
///   bits its word-parallel kernels beat the BDD and the memory ceiling
///   is bounded by construction.
/// * `auto` past the dense budget picks the BDD, whose memory tracks the
///   structure of each set rather than `n^k` or its cardinality.
///
/// Every engine (interpreter, bytecode machine, certificate extractors
/// and checkers) and `explain` take their backend from this function.
pub fn choose(ctx: &CylCtx, mode: BackendMode) -> BackendKind {
    match mode.forced() {
        Some(kind) => kind,
        None if ctx.dense_feasible() => BackendKind::Dense,
        None => BackendKind::Bdd,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_labels_round_trip() {
        for s in ["auto", "dense", "bdd"] {
            assert_eq!(BackendMode::parse(s).unwrap().label(), s);
        }
        assert_eq!(BackendMode::parse("sparse"), None);
        assert_eq!(BackendMode::parse("symbolic"), None);
        assert_eq!(BackendMode::parse("AUTO"), None);
        assert_eq!(BackendMode::default(), BackendMode::Auto);
    }

    #[test]
    fn auto_choice_matches_the_documented_policy() {
        let small = CylCtx::new(16, 3);
        assert!(small.dense_feasible());
        assert_eq!(choose(&small, BackendMode::Auto), BackendKind::Dense);
        let huge = CylCtx::new(1 << 20, 4);
        assert!(!huge.dense_feasible());
        assert_eq!(choose(&huge, BackendMode::Auto), BackendKind::Bdd);
        // Forced modes ignore feasibility.
        assert_eq!(choose(&small, BackendMode::Bdd), BackendKind::Bdd);
        assert_eq!(choose(&huge, BackendMode::Dense), BackendKind::Dense);
    }
}
