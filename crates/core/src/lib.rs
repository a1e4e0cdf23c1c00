//! # bvq-core
//!
//! The paper's primary contribution, implemented: evaluators for the
//! bounded-variable query languages `FO^k`, `FP^k`, `ESO^k` and `PFP^k` of
//! Vardi, *On the Complexity of Bounded-Variable Queries* (PODS 1995).
//!
//! * [`fo`] — bottom-up cylindrical evaluation of `FO^k` (Proposition 3.1)
//!   plus the naive unbounded-arity evaluator exhibiting the Table-1 gap;
//! * [`fp`] — fixpoint evaluation: naive nested iteration (`n^{kl}`),
//!   monotonicity-aware Emerson–Lei evaluation, and the paper's
//!   under-approximation certificate system (Lemmas 3.3/3.4, Theorem 3.5:
//!   `FP^k` ∈ NP ∩ co-NP);
//! * [`eso`] — `ESO^k` evaluation: the Lemma 3.6 arity-reduction transform
//!   and a polynomial-size SAT grounding (Corollary 3.7), with a naive
//!   enumerate-and-check oracle;
//! * [`pfp`] — partial-fixpoint evaluation with Brent cycle detection
//!   (Theorem 3.8), divergence denoting the empty relation;
//! * [`env`] — shared evaluation environments binding recursion variables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod cert_trace;
pub mod certgen;
pub mod compile;
mod delta;
pub mod env;
pub mod eso;
pub mod fo;
pub mod fp;
pub mod games;
pub mod incr;
mod ir;
pub mod pfp;

pub use bvq_relation::{BackendKind, BackendMode};
pub use cert::{AppCert, Certificate, CertifiedChecker, LfpStep, VerifyOutcome};
pub use cert_trace::{TraceCertificate, TraceChecker, TraceEvent};
pub use certgen::certify_eso;
pub use compile::{
    feedback_from, plan_query, CompileFeedback, CostReport, PlanChoice, QueryPlan, Variant,
};
pub use env::RelEnv;
pub use eso::{reduce_arity, EsoEvaluator, GroundingInfo};
pub use fo::{BoundedEvaluator, NaiveEvaluator};
pub use fp::{Evaluated, FpEvaluator, FpStrategy};
pub use games::fo_k_equivalent;
pub use incr::{classify_datalog, classify_formula, IncrPlan, Strategy};
pub use pfp::PfpEvaluator;

/// Errors shared by the evaluators.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EvalError {
    /// The formula references a database relation the database lacks.
    UnknownRelation(String),
    /// The formula references an unbound relation variable.
    UnboundRelVar(String),
    /// A relation symbol is used with an arity differing from its binding.
    ArityMismatch {
        /// Symbol name.
        name: String,
        /// Expected arity.
        expected: usize,
        /// Found arity.
        found: usize,
    },
    /// The formula's width exceeds the evaluator's variable bound `k`.
    WidthExceeded {
        /// The evaluator's bound.
        k: usize,
        /// The formula's width.
        width: usize,
    },
    /// A least/greatest fixpoint body is not positive in its variable.
    NotPositive(String),
    /// The formula is outside the evaluator's language (e.g. a PFP operator
    /// given to the FP evaluator).
    UnsupportedConstruct(&'static str),
    /// A constant term lies outside the database domain.
    ConstOutOfDomain(u32),
    /// The evaluation deadline passed between fixpoint rounds (see
    /// [`bvq_relation::EvalConfig::with_deadline`]). The computation was
    /// aborted cleanly at a round boundary; no partial fixpoint escapes.
    DeadlineExceeded,
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::UnknownRelation(n) => write!(f, "unknown database relation `{n}`"),
            EvalError::UnboundRelVar(n) => write!(f, "unbound relation variable `{n}`"),
            EvalError::ArityMismatch {
                name,
                expected,
                found,
            } => {
                write!(f, "`{name}` used with arity {found}, bound with {expected}")
            }
            EvalError::WidthExceeded { k, width } => {
                write!(f, "formula width {width} exceeds variable bound k={k}")
            }
            EvalError::NotPositive(n) => {
                write!(f, "recursion variable `{n}` occurs negatively")
            }
            EvalError::UnsupportedConstruct(what) => {
                write!(f, "unsupported construct for this evaluator: {what}")
            }
            EvalError::ConstOutOfDomain(c) => {
                write!(f, "constant {c} outside the database domain")
            }
            EvalError::DeadlineExceeded => {
                write!(f, "evaluation deadline exceeded between fixpoint rounds")
            }
        }
    }
}

impl std::error::Error for EvalError {}
