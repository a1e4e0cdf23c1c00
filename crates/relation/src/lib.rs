//! # bvq-relation
//!
//! The relational substrate underlying the `bvq` reproduction of
//! Vardi, *On the Complexity of Bounded-Variable Queries* (PODS 1995).
//!
//! The paper's central quantity is the **size of intermediate relations**
//! arising during query evaluation: evaluating an unrestricted relational
//! query may build relations whose arity is linear in the length of the
//! query (hence of exponential size), while bounded-variable queries only
//! ever build relations of arity at most `k` (hence of size at most `n^k`).
//! This crate provides everything needed to make that quantity concrete and
//! measurable:
//!
//! * [`Tuple`] — a compact tuple of domain elements with inline storage for
//!   the small arities that dominate bounded-variable evaluation;
//! * [`Relation`] — a sparse (hash-set backed) finite relation with a full
//!   relational algebra (selection, projection, permutation, joins,
//!   semijoins, set operations, complement);
//! * the [`backend`] module — the [`CylinderOps`] interface used by the
//!   cylindrical `FO^k` evaluator (every subformula denotes a subset of
//!   `D^k`) together with its two implementations, a dense bitset and a
//!   shared-node BDD over `k·⌈log₂ n⌉` bits, plus the policy choosing
//!   between them (dense if `n^k` fits the budget, else the BDD);
//! * [`Database`] — a named collection of relations over a common domain,
//!   with the paper's string-encoding length as the input-size measure;
//! * [`EvalStats`] — instrumentation recording maximum intermediate arity
//!   and cardinality, operator applications, and fixpoint iterations;
//! * [`Span`] and [`Tracer`] — structured per-operator tracing (arity,
//!   cardinality, wall time, fixpoint round) nested to mirror formula
//!   structure, with thread-count-independent structural content;
//! * [`EvalConfig`] and the [`parallel`] kernels — a thread-count knob and
//!   partitioned (std-only, `std::thread::scope`) implementations of the
//!   hot relational operators; `threads = 1` is exactly the sequential
//!   engine, and every thread count yields tuple-for-tuple identical
//!   results.
//!
//! All code is safe Rust (`#![forbid(unsafe_code)]`) and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod bdd;
pub mod bitset;
pub mod config;
pub mod cylinder;
pub mod database;
pub mod dbtext;
pub mod dense;
pub mod error;
pub mod hasher;
pub mod index;
pub mod parallel;
pub mod relation;
pub mod stats;
pub mod trace;
pub mod tuple;

pub use backend::{choose, BackendKind, BackendMode};
pub use bitset::BitSet;
pub use config::EvalConfig;
pub use cylinder::{CoordSource, CylCtx, CylinderOps};
pub use database::{Database, DatabaseBuilder, RelId, Schema};
pub use dbtext::{parse_database, write_database, DbTextError};
pub use error::RelationError;
pub use hasher::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use index::PointIndex;
pub use relation::Relation;
pub use stats::{EvalStats, StatsRecorder};
pub use trace::{Span, Tracer};
pub use tuple::Tuple;

/// A domain element. Domains are always `0..n` for some size `n`; examples
/// that need meaningful values attach labels at the [`Database`] level.
pub type Elem = u32;

/// The arity of a relation or tuple.
pub type Arity = usize;
