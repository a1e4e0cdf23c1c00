//! Bytecode compilation of `FO^k` / `FP^k` / `PFP^k` plans, with
//! cost-based engine choice.
//!
//! The interpreting engines walk the compiled IR arena per node per
//! round: every node evaluation clones its arena entry, records a
//! cardinality popcount, and reloads database atoms (odometer
//! broadcasts over `n^k`) on every fixpoint round. For the
//! bounded-variable algebra those constant factors multiply the
//! paper's O(l·n^k) bound by a small constant ≥ 2 — which this module
//! removes by lowering the IR once to straight-line register bytecode
//! ([`bytecode`]) and running it on a dumb dispatch loop ([`exec`]).
//!
//! Two lowering variants are produced — a direct transliteration and an
//! optimized pipeline (global CSE of loads, loop-invariant hoisting into
//! a once-per-eval prelude, fused `∧¬` ops) — and a cost model
//! ([`cost`]) picks between them and the interpreter, using observed
//! round counts when the caller has feedback from earlier runs of the
//! same plan (the server's plan LRU records them; see DESIGN.md §10).

use bvq_logic::{FixKind, Query};
use bvq_relation::backend::{choose, BackendKind, BackendMode, BddCylinder, DenseCylinder};
use bvq_relation::{CylCtx, EvalConfig};

use crate::certgen::TraceRecorder;
use crate::fp::{output_slice, Evaluated};
use crate::ir::{self, CompileOpts, Program};
use crate::EvalError;
use bvq_relation::Database;

mod bytecode;
mod cost;
mod exec;
// Only called under `debug_assertions` (and from the test suite), but
// kept compiling in release so the invariants can't rot silently.
#[cfg_attr(not(debug_assertions), allow(dead_code))]
mod verify;

pub use bytecode::Variant;
pub use cost::CostReport;

/// Which engine the cost model selected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlanChoice {
    /// The AST-walking engines (`BoundedEvaluator` / `FpEvaluator` /
    /// `PfpEvaluator`).
    Interpreted,
    /// The bytecode executor, running the given lowering variant.
    Compiled(Variant),
}

impl PlanChoice {
    /// The label rendered by `explain` (`interpreted`,
    /// `compiled (optimized)`, …).
    pub fn label(self) -> String {
        match self {
            PlanChoice::Interpreted => "interpreted".to_string(),
            PlanChoice::Compiled(v) => format!("compiled ({})", v.label()),
        }
    }
}

/// Observed statistics from earlier runs of the same plan, fed back by
/// the server's plan cache to calibrate the cost model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileFeedback {
    /// Total fixpoint rounds observed in the last execution.
    pub fixpoint_iterations: u64,
    /// Largest intermediate cardinality observed.
    pub max_cardinality: usize,
}

/// A planned query: both compiled variants, the cost report, the static
/// hypergraph analysis, and everything needed to run the chosen plan.
pub struct QueryPlan {
    prog: Program,
    coords: Vec<usize>,
    /// Whether the answer is read off the output slice.
    slice: bool,
    k: usize,
    naive: bool,
    basic: bytecode::Bytecode,
    optimized: bytecode::Bytecode,
    cost: CostReport,
    analysis: bvq_analysis::QueryAnalysis,
}

/// Plans a query: compiles the IR, lowers both bytecode variants, and
/// runs the cost model.
///
/// `allow_pfp` mirrors the interpreted dispatch (the `FP` evaluator must
/// not see partial fixpoints); `feedback` is the plan-LRU's observed
/// statistics, if the plan has run before.
pub fn plan_query(
    db: &Database,
    q: &Query,
    k: usize,
    allow_pfp: bool,
    feedback: Option<&CompileFeedback>,
) -> Result<QueryPlan, EvalError> {
    let prog = ir::compile(
        &q.formula,
        db,
        &[],
        CompileOpts {
            k,
            allow_pfp,
            allow_fix: true,
        },
    )?;
    // Output variables must fit within k too (same check as the
    // interpreted evaluators).
    let width = q
        .output
        .iter()
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0)
        .max(prog.width)
        .max(1);
    if width > k.max(1) {
        return Err(EvalError::WidthExceeded { k, width });
    }
    let basic = bytecode::lower(&prog, db, k.max(1), Variant::Basic)?;
    let optimized = bytecode::lower(&prog, db, k.max(1), Variant::Optimized)?;
    // Debug builds verify every lowering before anything can run it;
    // the test suite additionally calls the verifier unconditionally.
    #[cfg(debug_assertions)]
    for bc in [&basic, &optimized] {
        if let Err(e) = verify::verify(bc, db, k.max(1)) {
            panic!(
                "bytecode verifier rejected the {} lowering of `{q}`: {e}",
                bc.variant.label()
            );
        }
    }
    let backend = choose(&CylCtx::new(db.domain_size(), k.max(1)), BackendMode::Auto);
    // The certified minimum width bounds the *achievable* intermediate
    // relations (the rewrite proves evaluation fits in n^k_min), so the
    // cost model's pass unit uses k_min, not the syntactic width.
    let analysis = bvq_analysis::analyze_query(q);
    let cost = cost::choose(
        &prog,
        &basic,
        &optimized,
        db.domain_size(),
        backend,
        feedback,
        analysis.k_min.min(width),
    );
    // The PFP evaluator's strategy: any non-monotone fixpoint in the
    // program forces naive restarts (Emerson–Lei warm starts are unsound
    // under non-monotone outer updates).
    let naive = prog
        .fixes
        .iter()
        .any(|f| matches!(f.kind, FixKind::Pfp | FixKind::Ifp));
    Ok(QueryPlan {
        coords: q.output.iter().map(|v| v.index()).collect(),
        slice: output_slice(q),
        k: k.max(1),
        naive,
        prog,
        basic,
        optimized,
        cost,
        analysis,
    })
}

impl QueryPlan {
    /// The engine the cost model chose.
    pub fn choice(&self) -> PlanChoice {
        self.cost.chosen
    }

    /// The cost report (`explain` renders it).
    pub fn cost(&self) -> &CostReport {
        &self.cost
    }

    /// The static hypergraph analysis computed at plan time
    /// (acyclicity verdict, certified `k_min`, elimination order).
    pub fn analysis(&self) -> &bvq_analysis::QueryAnalysis {
        &self.analysis
    }

    /// The variant `eval_compiled` will run: the chosen one, else the
    /// cheaper compiled candidate (when the caller forces compilation).
    pub fn compiled_variant(&self) -> Variant {
        match self.cost.chosen {
            PlanChoice::Compiled(v) => v,
            PlanChoice::Interpreted if self.cost.optimized <= self.cost.basic => Variant::Optimized,
            PlanChoice::Interpreted => Variant::Basic,
        }
    }

    /// The bytecode listing of [`QueryPlan::compiled_variant`].
    pub fn listing(&self) -> String {
        bytecode::listing(match self.compiled_variant() {
            Variant::Basic => &self.basic,
            Variant::Optimized => &self.optimized,
        })
    }

    /// Number of fixpoint operators in the plan.
    pub fn fix_count(&self) -> usize {
        self.prog.fixes.len()
    }

    /// Runs the compiled plan ([`QueryPlan::compiled_variant`]) on the
    /// backend [`choose`] picks for the domain size (dense if `n^k` fits,
    /// else the BDD), honoring threads and deadline
    /// from `cfg`. Tracing is not supported here — traced requests take
    /// the interpreted path, whose span tree mirrors the formula.
    pub fn eval_compiled(&self, db: &Database, cfg: &EvalConfig) -> Result<Evaluated, EvalError> {
        self.eval_compiled_recorded(db, cfg, None)
    }

    /// [`QueryPlan::eval_compiled`] that, given `Some(rec)`, also writes
    /// the iteration trace of every fixpoint into `rec`, for a
    /// certificate whose claim is this evaluation's answer.
    pub fn eval_compiled_recorded(
        &self,
        db: &Database,
        cfg: &EvalConfig,
        rec: Option<&mut TraceRecorder>,
    ) -> Result<Evaluated, EvalError> {
        let bc = match self.compiled_variant() {
            Variant::Basic => &self.basic,
            Variant::Optimized => &self.optimized,
        };
        let (coords, slice) = (&self.coords, self.slice);
        let ctx = CylCtx::new(db.domain_size(), self.k).with_threads(cfg.threads());
        let result = match choose(&ctx, BackendMode::Auto) {
            BackendKind::Dense => {
                exec::run::<DenseCylinder>(bc, db, ctx, self.naive, cfg, coords, slice, rec)?
            }
            BackendKind::Bdd => {
                exec::run::<BddCylinder>(bc, db, ctx, self.naive, cfg, coords, slice, rec)?
            }
        };
        Ok(Evaluated {
            answer: result.answer,
            stats: result.stats,
            trace: None,
        })
    }

    /// Decides `t ∈ Q(B)` on the compiled path.
    pub fn check_compiled(
        &self,
        db: &Database,
        cfg: &EvalConfig,
        t: &[u32],
    ) -> Result<bool, EvalError> {
        if t.len() != self.coords.len() {
            return Ok(false);
        }
        let ev = self.eval_compiled(db, cfg)?;
        Ok(ev.answer.contains(t))
    }
}

/// Feedback extracted from a finished execution, for the plan cache.
pub fn feedback_from(stats: &bvq_relation::EvalStats) -> CompileFeedback {
    CompileFeedback {
        fixpoint_iterations: stats.fixpoint_iterations,
        max_cardinality: stats.max_cardinality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FpEvaluator, FpStrategy, PfpEvaluator};
    use bvq_logic::parser::parse_query;
    use bvq_logic::{patterns, Term, Var};
    use bvq_relation::Database;

    fn path_db(n: u32) -> Database {
        let edges: Vec<[u32; 2]> = (0..n.saturating_sub(1)).map(|i| [i, i + 1]).collect();
        let marked: Vec<[u32; 1]> = (0..n).filter(|i| i % 3 == 1).map(|i| [i]).collect();
        Database::builder(n as usize)
            .relation("E", 2, edges)
            .relation("P", 1, marked)
            .build()
    }

    #[test]
    fn compiled_fo_matches_interpreter() {
        let db = path_db(6);
        let q = parse_query("(x1,x2) exists x3. (E(x1,x3) & E(x3,x2) & ~P(x1))").unwrap();
        let plan = plan_query(&db, &q, 3, false, None).unwrap();
        let cfg = EvalConfig::sequential();
        let compiled = plan.eval_compiled(&db, &cfg).unwrap();
        let (interp, _) = FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
        assert_eq!(compiled.answer.sorted(), interp.sorted());
    }

    #[test]
    fn compiled_lfp_matches_interpreter() {
        let db = path_db(7);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let plan = plan_query(&db, &q, 2, false, None).unwrap();
        let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
        let (interp, stats) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(compiled.answer.sorted(), interp.sorted());
        // Both engines iterate: the compiled path reports rounds too.
        assert!(compiled.stats.fixpoint_iterations > 0);
        assert!(stats.fixpoint_iterations > 0);
    }

    #[test]
    fn compiled_alternation_matches_both_strategies() {
        let db = path_db(5);
        for u in 0..5 {
            let q = Query::sentence(patterns::fairness(Term::Const(u)));
            let plan = plan_query(&db, &q, 3, false, None).unwrap();
            let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
            let (el, _) = FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
            let (naive, _) = FpEvaluator::new(&db, 3)
                .with_strategy(FpStrategy::Naive)
                .eval_query(&q)
                .unwrap();
            assert_eq!(compiled.answer.sorted(), el.sorted());
            assert_eq!(compiled.answer.sorted(), naive.sorted());
        }
    }

    #[test]
    fn compiled_pfp_matches_interpreter() {
        let db = path_db(6);
        for f in [patterns::pfp_reach(0), patterns::pfp_parity_flip()] {
            let q = Query::new(vec![Var(0)], f);
            let plan = plan_query(&db, &q, 2, true, None).unwrap();
            let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
            let (interp, _) = PfpEvaluator::new(&db, 2).eval_query(&q).unwrap();
            assert_eq!(compiled.answer.sorted(), interp.sorted());
        }
    }

    #[test]
    fn compiled_respects_thread_count() {
        let db = path_db(9);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let plan = plan_query(&db, &q, 2, false, None).unwrap();
        let one = plan
            .eval_compiled(&db, &EvalConfig::with_threads(1))
            .unwrap();
        let four = plan
            .eval_compiled(&db, &EvalConfig::with_threads(4))
            .unwrap();
        assert_eq!(one.answer.sorted(), four.answer.sorted());
    }

    #[test]
    fn compiled_deadline_aborts_inside_fixpoint() {
        let db = path_db(16);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let plan = plan_query(&db, &q, 2, false, None).unwrap();
        let cfg = EvalConfig::sequential()
            .with_deadline(std::time::Instant::now() - std::time::Duration::from_millis(1));
        let err = plan.eval_compiled(&db, &cfg).unwrap_err();
        assert!(matches!(err, EvalError::DeadlineExceeded));
    }

    #[test]
    fn optimized_variant_hoists_and_fuses() {
        let db = path_db(6);
        // The body re-reads E every round; the optimized variant hoists
        // the load into the prelude, and `& !P(x1)` fuses to and-not.
        let q = parse_query(
            "(x1) ([lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1) & ~P(x1))",
        )
        .unwrap();
        let plan = plan_query(&db, &q, 2, false, None).unwrap();
        let listing = plan.listing();
        assert!(listing.contains("prelude:"), "listing:\n{listing}");
        assert!(listing.contains("and-not"), "listing:\n{listing}");
        assert!(listing.contains("lfp-loop"), "listing:\n{listing}");
        // And the answers still agree.
        let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
        let (interp, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(compiled.answer.sorted(), interp.sorted());
    }

    #[test]
    fn optimized_variant_hoists_outer_fix_reads_into_setup() {
        let db = path_db(6);
        // The inner GFP body reads the outer LFP variable S: invariant
        // across the inner loop, so it moves to the loop's setup block.
        let q = Query::sentence(patterns::fairness(Term::Const(0)));
        let plan = plan_query(&db, &q, 3, false, None).unwrap();
        let listing = plan.listing();
        assert!(listing.contains("setup:"), "listing:\n{listing}");
        let setup_line = listing
            .lines()
            .skip_while(|l| !l.trim().starts_with("setup:"))
            .nth(1)
            .unwrap_or_default();
        assert!(setup_line.contains("read-fix S"), "listing:\n{listing}");
    }

    #[test]
    fn cost_model_prefers_compiled_for_fixpoints() {
        let db = path_db(24);
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let plan = plan_query(&db, &q, 2, false, None).unwrap();
        assert!(matches!(plan.choice(), PlanChoice::Compiled(_)));
        // Feedback with a tiny observed round count shrinks the gap but
        // still yields a valid report.
        let fb = CompileFeedback {
            fixpoint_iterations: 2,
            max_cardinality: 4,
        };
        let plan2 = plan_query(&db, &q, 2, false, Some(&fb)).unwrap();
        assert!(plan2.cost().calibrated);
    }

    #[test]
    fn cost_model_prefers_interpreter_for_tiny_queries() {
        let db = path_db(3);
        let q = parse_query("(x1) P(x1)").unwrap();
        let plan = plan_query(&db, &q, 1, false, None).unwrap();
        assert_eq!(plan.choice(), PlanChoice::Interpreted);
        // Forcing compilation still works and still agrees.
        let compiled = plan.eval_compiled(&db, &EvalConfig::sequential()).unwrap();
        let (interp, _) = FpEvaluator::new(&db, 1).eval_query(&q).unwrap();
        assert_eq!(compiled.answer.sorted(), interp.sorted());
    }
}
