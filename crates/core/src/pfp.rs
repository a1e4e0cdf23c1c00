//! The `PFP^k` evaluator (Theorem 3.8).
//!
//! Partial-fixpoint logic drops the positivity requirement: the operator
//! need not be monotone, so the iteration `∅, φ(∅), φ²(∅), …` may never
//! stabilise. Following §2.2, a divergent iteration denotes the empty
//! relation. Divergence is decided exactly, with O(1) stored states, by
//! Brent's cycle-detection algorithm in the shared engine — the state
//! space `2^{n^k}` is finite, so the deterministic sequence is eventually
//! periodic, and the period is 1 iff the iteration stabilises.

use bvq_logic::Query;
use bvq_relation::{Database, EvalStats, Relation};

use crate::env::RelEnv;
use crate::fp::{FpEvaluator, FpStrategy};
use crate::EvalError;

/// The `PFP^k` evaluator: accepts `pfp` operators (and `lfp`/`gfp`, which
/// are special cases semantically once positivity holds).
///
/// ```
/// use bvq_core::PfpEvaluator;
/// use bvq_logic::{patterns, Query, Var};
/// use bvq_relation::Database;
///
/// let db = Database::builder(3).relation("E", 2, [[0u32, 1], [1, 2]]).build();
/// let ev = PfpEvaluator::new(&db, 2);
/// // A divergent iteration denotes the empty relation.
/// let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
/// assert!(ev.eval_query(&q).unwrap().0.is_empty());
/// // A convergent one computes its limit (here: reachability from 0).
/// let r = Query::new(vec![Var(0)], patterns::pfp_reach(0));
/// assert_eq!(ev.eval_query(&r).unwrap().0.len(), 3);
/// ```
pub struct PfpEvaluator<'d> {
    inner: FpEvaluator<'d>,
}

impl<'d> PfpEvaluator<'d> {
    /// Creates a `PFP^k` evaluator.
    pub fn new(db: &'d Database, k: usize) -> Self {
        // Nested Lfp/Gfp inside PFP formulas evaluate naively: the
        // Emerson–Lei warm-start argument assumes monotone outer updates,
        // which PFP iterations do not provide.
        PfpEvaluator {
            inner: FpEvaluator::new(db, k)
                .allow_pfp()
                .with_strategy(FpStrategy::Naive),
        }
    }

    /// Disables statistics collection.
    #[must_use]
    pub fn without_stats(mut self) -> Self {
        self.inner = self.inner.without_stats();
        self
    }

    /// Selects the cylinder backend (see
    /// [`FpEvaluator::with_backend`](crate::FpEvaluator::with_backend)).
    #[must_use]
    pub fn with_backend(mut self, backend: bvq_relation::BackendMode) -> Self {
        self.inner = self.inner.with_backend(backend);
        self
    }

    /// Sets the parallel-evaluation configuration (thread count).
    #[must_use]
    pub fn with_config(mut self, config: bvq_relation::EvalConfig) -> Self {
        self.inner = self.inner.with_config(config);
        self
    }

    /// Evaluates a query.
    pub fn eval_query(&self, q: &Query) -> Result<(Relation, EvalStats), EvalError> {
        self.inner.eval_query(q)
    }

    /// Evaluates a query, also returning the span tree when tracing is
    /// enabled ([`bvq_relation::EvalConfig::with_trace`]); PFP/IFP
    /// iterations appear as `round`-kind spans.
    pub fn eval_query_traced(&self, q: &Query) -> Result<crate::fp::Evaluated, EvalError> {
        self.inner.eval_query_traced(q)
    }

    /// [`PfpEvaluator::eval_query_traced`] that, given `Some(rec)`, also
    /// writes the iteration trace of every fixpoint into `rec` (see
    /// [`FpEvaluator::eval_query_recorded`]).
    pub fn eval_query_recorded(
        &self,
        q: &Query,
        rec: Option<&mut crate::certgen::TraceRecorder>,
    ) -> Result<crate::fp::Evaluated, EvalError> {
        self.inner.eval_query_recorded(q, rec)
    }

    /// Evaluates with external relation-variable bindings.
    pub fn eval_query_with_env(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<(Relation, EvalStats), EvalError> {
        self.inner.eval_query_with_env(q, env)
    }

    /// Decides `t ∈ Q(B)` — the problem `Answer_{PFP^k}` of Theorem 3.8.
    pub fn check(&self, q: &Query, t: &[u32]) -> Result<bool, EvalError> {
        self.inner.check(q, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::parser::parse_query;
    use bvq_logic::{patterns, Var};
    use bvq_relation::Relation;

    fn db() -> Database {
        Database::builder(4)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .build()
    }

    #[test]
    fn divergent_pfp_is_empty() {
        let db = db();
        let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
        let (r, stats) = PfpEvaluator::new(&db, 1).eval_query(&q).unwrap();
        assert!(r.is_empty());
        assert!(
            stats.fixpoint_iterations >= 2,
            "must have iterated to detect the flip"
        );
    }

    #[test]
    fn convergent_pfp_matches_lfp() {
        let db = db();
        let pfp_q = Query::new(vec![Var(0)], patterns::pfp_reach(0));
        let lfp_q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let pfp = PfpEvaluator::new(&db, 2);
        let (rp, _) = pfp.eval_query(&pfp_q).unwrap();
        let (rl, _) = FpEvaluator::new(&db, 2).eval_query(&lfp_q).unwrap();
        assert_eq!(rp.sorted(), rl.sorted());
        assert_eq!(
            rp.sorted(),
            Relation::from_tuples(1, [[0u32], [1], [2], [3]]).sorted()
        );
    }

    #[test]
    fn pfp_accepts_lfp_formulas() {
        let db = db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(1));
        let (r, _) = PfpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn non_monotone_convergent_pfp() {
        // [pfp S(x1). ~S(x1) & E(x1,x1)]: with no self-loops, φ(∅) = ∅ —
        // immediate convergence despite non-monotonicity.
        let db = db();
        let q = parse_query("(x1) [pfp S(x1). (~S(x1) & E(x1,x1))](x1)").unwrap();
        let (r, _) = PfpEvaluator::new(&db, 1).eval_query(&q).unwrap();
        assert!(r.is_empty());
        // With a self-loop at 0: φ(∅) = {0}, φ({0}) = ∅ — a 2-cycle ⇒ empty.
        let db2 = Database::builder(2).relation("E", 2, [[0u32, 0]]).build();
        let (r2, _) = PfpEvaluator::new(&db2, 1).eval_query(&q).unwrap();
        assert!(r2.is_empty());
    }

    #[test]
    fn longer_cycle_detected() {
        // A rotating singleton: S' = {x+1 mod n : x ∈ S} ∪ {0 if S = ∅}…
        // Simpler: iterate "S := complement of S restricted to P" patterns.
        // Here: S' = {x : ¬S(x)} on a 3-element domain flips between ∅ and
        // D — cycle length 2 ⇒ empty. Sanity-check iteration counting.
        let db = Database::builder(3).relation("E", 2, [[0u32, 1]]).build();
        let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
        let (r, _) = PfpEvaluator::new(&db, 1).eval_query(&q).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn ifp_of_positive_body_equals_lfp() {
        // For positive operators, inflationary and least fixpoints agree
        // [GS86]: reachability both ways.
        let db = db();
        let ifp_q =
            parse_query("(x1) [ifp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)").unwrap();
        let lfp_q =
            parse_query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)").unwrap();
        let ev = PfpEvaluator::new(&db, 2);
        let (ri, _) = ev.eval_query(&ifp_q).unwrap();
        let (rl, _) = FpEvaluator::new(&db, 2).eval_query(&lfp_q).unwrap();
        assert_eq!(ri.sorted(), rl.sorted());
    }

    #[test]
    fn ifp_of_nonmonotone_body_converges() {
        // φ(S) = ¬S is antitone; IFP still converges: ∅ → ∅∪D = D → D.
        let db = db();
        let q = parse_query("(x1) [ifp S(x1). ~S(x1)](x1)").unwrap();
        let ev = PfpEvaluator::new(&db, 1);
        let (r, stats) = ev.eval_query(&q).unwrap();
        assert_eq!(r.len(), db.domain_size(), "IFP of ¬S is the full domain");
        assert!(stats.fixpoint_iterations <= 3);
        // The same body under PFP diverges to ∅.
        let qp = parse_query("(x1) [pfp S(x1). ~S(x1)](x1)").unwrap();
        assert!(ev.eval_query(&qp).unwrap().0.is_empty());
    }

    #[test]
    fn ifp_rejected_by_fp_evaluator_and_certificates() {
        let db = db();
        let q = parse_query("(x1) [ifp S(x1). ~S(x1)](x1)").unwrap();
        assert!(matches!(
            FpEvaluator::new(&db, 1).eval_query(&q),
            Err(crate::EvalError::UnsupportedConstruct(_))
        ));
        let checker = crate::CertifiedChecker::new(&db, 1);
        assert!(checker.extract(&q).is_err());
    }

    #[test]
    fn pfp_inside_formula_composes() {
        // PFP value used inside a Boolean combination.
        let db = db();
        let q = parse_query("(x1) ([pfp S(x1). (x1 = 0 | S(x1))](x1) | E(3,x1))").unwrap();
        let (r, _) = PfpEvaluator::new(&db, 1).eval_query(&q).unwrap();
        // pfp converges to {0}; E(3,·) is empty → answer {0}.
        assert_eq!(r.sorted(), Relation::from_tuples(1, [[0u32]]).sorted());
    }
}
