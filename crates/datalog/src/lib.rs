//! # bvq-datalog
//!
//! A positive Datalog engine for the `bvq` reproduction of Vardi,
//! *On the Complexity of Bounded-Variable Queries* (PODS 1995).
//!
//! Proposition 3.2 reduces Cook's Path Systems problem — a Datalog
//! program — to `FO³` query evaluation. This crate provides the Datalog
//! side: programs of positive Horn rules over a [`Database`]'s EDB
//! relations, plus the translation of single-IDB programs into FP
//! least-fixpoint formulas (tested for agreement with `bvq-core`'s
//! evaluator).
//!
//! Evaluation has one round loop, [`eval::seminaive`]. It serves cold
//! evaluation ([`eval_seminaive_with`]), certificate production (its
//! [`Recorder`] sink keeps one derivation per fact, see
//! [`eval_recorded`]) and incremental maintenance in `bvq-ivm` (which
//! continues it from a materialized state with a mutation as the seed).
//! The naive evaluator ([`eval_naive`]) stays as the reference it is
//! fuzzed against.
//!
//! [`Database`]: bvq_relation::Database

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod delta;
pub mod eval;
pub mod parser;
pub mod record;
pub mod translate;

pub use ast::{AtomTerm, BodyAtom, DatalogError, Head, Program, Rule};
pub use delta::{
    delta_first, normalise_atom, project_head, rule_bindings, Bindings, RelSource, View,
};
pub use eval::{
    empty_idb, eval_naive, eval_naive_with, eval_seminaive, eval_seminaive_with, seminaive,
    EvalOutput, Rounds,
};
pub use parser::{parse_program, parse_program_spanned};
pub use record::{eval_recorded, RecordedStep, Recorder};
pub use translate::{to_fp_formula, to_fp_formula_multi};
