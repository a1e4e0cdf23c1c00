//! Evaluation statistics.
//!
//! The paper's argument is about the *size of intermediate results*:
//! unrestricted query evaluation can build relations of arity linear in the
//! query (exponential size), bounded-variable evaluation cannot. Every
//! evaluator in `bvq` therefore reports an [`EvalStats`], and the benchmark
//! harness prints the maxima alongside running times — the measured
//! counterpart of the paper's Tables 1–3.

use std::fmt;

/// Counters collected during one query evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Largest arity of any intermediate relation.
    pub max_arity: usize,
    /// Largest cardinality (tuple count / point count) of any intermediate
    /// relation.
    pub max_cardinality: usize,
    /// Total tuples materialised across all intermediate relations.
    pub total_tuples: u64,
    /// Relational-algebra / cylinder operator applications.
    pub operator_applications: u64,
    /// Fixpoint iterations performed (FP/PFP evaluators).
    pub fixpoint_iterations: u64,
    /// Largest estimated representation footprint of any intermediate
    /// relation, in bytes — backend-dependent (`n^k` bits for dense,
    /// reachable nodes for the BDD); the space
    /// measure Chen–Elberfeld's parameterized analysis makes first-class.
    pub peak_bytes: usize,
}

impl EvalStats {
    /// Fresh, all-zero statistics.
    pub fn new() -> Self {
        EvalStats::default()
    }

    /// Records an intermediate relation of the given shape.
    pub fn record_intermediate(&mut self, arity: usize, cardinality: usize) {
        self.max_arity = self.max_arity.max(arity);
        self.max_cardinality = self.max_cardinality.max(cardinality);
        self.total_tuples += cardinality as u64;
        self.operator_applications += 1;
    }

    /// Records one fixpoint iteration.
    pub fn record_iteration(&mut self) {
        self.fixpoint_iterations += 1;
    }

    /// Records the representation footprint of an intermediate relation.
    pub fn record_bytes(&mut self, bytes: usize) {
        self.peak_bytes = self.peak_bytes.max(bytes);
    }

    /// Pointwise maximum / sum combination of two runs.
    #[must_use]
    pub fn merge(&self, other: &EvalStats) -> EvalStats {
        EvalStats {
            max_arity: self.max_arity.max(other.max_arity),
            max_cardinality: self.max_cardinality.max(other.max_cardinality),
            total_tuples: self.total_tuples + other.total_tuples,
            operator_applications: self.operator_applications + other.operator_applications,
            fixpoint_iterations: self.fixpoint_iterations + other.fixpoint_iterations,
            peak_bytes: self.peak_bytes.max(other.peak_bytes),
        }
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "max_arity={} max_card={} total_tuples={} ops={} iters={} peak_bytes={}",
            self.max_arity,
            self.max_cardinality,
            self.total_tuples,
            self.operator_applications,
            self.fixpoint_iterations,
            self.peak_bytes
        )
    }
}

/// A mutable statistics recorder threaded through evaluators.
///
/// Wrapping the counters in a struct (rather than passing `&mut EvalStats`
/// everywhere) leaves room for recording policies; today it is a thin
/// wrapper that can also be disabled for benchmarking the evaluators
/// without instrumentation overhead.
#[derive(Debug)]
pub struct StatsRecorder {
    stats: EvalStats,
    enabled: bool,
}

impl Default for StatsRecorder {
    fn default() -> Self {
        StatsRecorder::new()
    }
}

impl StatsRecorder {
    /// An enabled recorder.
    pub fn new() -> Self {
        StatsRecorder {
            stats: EvalStats::new(),
            enabled: true,
        }
    }

    /// A disabled recorder (all records are no-ops).
    pub fn disabled() -> Self {
        StatsRecorder {
            stats: EvalStats::new(),
            enabled: false,
        }
    }

    /// Records an intermediate relation.
    #[inline]
    pub fn intermediate(&mut self, arity: usize, cardinality: usize) {
        if self.enabled {
            self.stats.record_intermediate(arity, cardinality);
        }
    }

    /// Records a fixpoint iteration.
    #[inline]
    pub fn iteration(&mut self) {
        if self.enabled {
            self.stats.record_iteration();
        }
    }

    /// Records an intermediate relation's representation footprint.
    #[inline]
    pub fn bytes(&mut self, bytes: usize) {
        if self.enabled {
            self.stats.record_bytes(bytes);
        }
    }

    /// Merges statistics collected elsewhere (e.g. by a worker thread's
    /// local recorder) into this one.
    pub fn absorb(&mut self, other: &EvalStats) {
        if self.enabled {
            self.stats = self.stats.merge(other);
        }
    }

    /// Whether recording is enabled (callers can skip expensive counts
    /// when it is not).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_maxima_and_totals() {
        let mut s = EvalStats::new();
        s.record_intermediate(2, 10);
        s.record_intermediate(4, 3);
        s.record_intermediate(1, 100);
        assert_eq!(s.max_arity, 4);
        assert_eq!(s.max_cardinality, 100);
        assert_eq!(s.total_tuples, 113);
        assert_eq!(s.operator_applications, 3);
    }

    #[test]
    fn merge_combines() {
        let mut a = EvalStats::new();
        a.record_intermediate(2, 5);
        a.record_iteration();
        let mut b = EvalStats::new();
        b.record_intermediate(3, 2);
        let m = a.merge(&b);
        assert_eq!(m.max_arity, 3);
        assert_eq!(m.max_cardinality, 5);
        assert_eq!(m.total_tuples, 7);
        assert_eq!(m.fixpoint_iterations, 1);
    }

    /// Deterministic sample statistics for the algebraic-law tests.
    fn sample(seed: u64) -> EvalStats {
        let mut s = EvalStats::new();
        let mut x = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..4 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            s.record_intermediate((x >> 60) as usize, (x >> 48) as usize & 0xff);
            if x & 1 == 0 {
                s.record_iteration();
            }
        }
        s
    }

    #[test]
    fn merge_identity_is_zero() {
        // EvalStats::new() is a two-sided identity: maxima against 0 and
        // sums with 0 both leave the operand unchanged.
        for seed in 0..8 {
            let s = sample(seed);
            assert_eq!(s.merge(&EvalStats::new()), s);
            assert_eq!(EvalStats::new().merge(&s), s);
        }
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        // max and + are both commutative monoids, so worker-local stats
        // can be combined in any grouping; the engine still fixes chunk
        // order so even a non-commutative future field would stay
        // deterministic.
        for seed in 0..8 {
            let (a, b, c) = (sample(seed), sample(seed + 100), sample(seed + 200));
            assert_eq!(a.merge(&b), b.merge(&a));
            assert_eq!(a.merge(&b).merge(&c), a.merge(&b.merge(&c)));
        }
    }

    #[test]
    fn absorb_equals_merge() {
        // A recorder absorbing worker stats must agree exactly with the
        // pure merge of the underlying EvalStats values.
        let (a, b) = (sample(1), sample(2));
        let mut rec = StatsRecorder::new();
        rec.absorb(&a);
        rec.absorb(&b);
        assert_eq!(rec.stats(), a.merge(&b));
        // Absorbing into a disabled recorder is a no-op.
        let mut off = StatsRecorder::disabled();
        off.absorb(&a);
        assert_eq!(off.stats(), EvalStats::new());
        assert!(!off.is_enabled());
    }

    #[test]
    fn absorb_matches_interleaved_recording() {
        // Recording everything on one recorder equals recording on two
        // and absorbing: merge loses no information for these counters.
        let mut one = StatsRecorder::new();
        one.intermediate(2, 5);
        one.intermediate(3, 1);
        one.iteration();
        let mut left = StatsRecorder::new();
        left.intermediate(2, 5);
        let mut right = StatsRecorder::new();
        right.intermediate(3, 1);
        right.iteration();
        let mut combined = StatsRecorder::new();
        combined.absorb(&left.stats());
        combined.absorb(&right.stats());
        assert_eq!(combined.stats(), one.stats());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = StatsRecorder::disabled();
        r.intermediate(9, 9);
        r.iteration();
        assert_eq!(r.stats(), EvalStats::new());
    }

    #[test]
    fn display_is_stable() {
        let mut s = EvalStats::new();
        s.record_intermediate(2, 7);
        s.record_bytes(96);
        assert_eq!(
            s.to_string(),
            "max_arity=2 max_card=7 total_tuples=7 ops=1 iters=0 peak_bytes=96"
        );
    }
}
