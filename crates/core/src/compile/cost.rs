//! The cost model choosing between the interpreted engine and the
//! compiled plans.
//!
//! Costs are measured in abstract **passes**: one pass = one sweep over
//! an `n^k`-bounded cylinder (the paper's unit of work — every operator
//! of the bounded-variable algebra is O(n^k)). The interpreter pays ~2
//! passes per formula node (the operator itself plus the statistics
//! popcount its engine records per node), re-paid every fixpoint round
//! for nodes inside a loop; the compiled plans pay 1 pass per emitted op,
//! with prelude ops (CSE'd loads, hoisted loop-invariant subtrees) paid
//! once per evaluation regardless of round count.
//!
//! Round counts come from feedback when the plan has run before (the
//! server records observed `fixpoint_iterations` into the plan-LRU entry
//! and re-plans on the next hit), else from the `n + 1` Kleene bound,
//! capped — the *calibrated* flag in the report says which.

use bvq_relation::BackendKind;

use crate::ir::{Node, Program};

use super::bytecode::{Bytecode, Op};
use super::{CompileFeedback, PlanChoice, Variant};

/// Interpreter passes per formula node: the operator application plus
/// the per-node cardinality count its statistics recorder performs.
const INTERP_NODE_PASSES: f64 = 2.0;
/// Flat charge for lowering + plan choice, in points (pass-cost is
/// `passes × n^k` points): below this, interpretation wins outright.
const COMPILE_OVERHEAD_POINTS: f64 = 4096.0;
/// The compiled path must project at least this much cheaper than the
/// interpreter before it is chosen (hysteresis against model error).
const MARGIN: f64 = 0.9;
/// Default Kleene-round estimate is `n + 1`, capped here.
const MAX_DEFAULT_ROUNDS: f64 = 48.0;

/// The cost model's verdict, surfaced by `explain`.
#[derive(Clone, Debug)]
pub struct CostReport {
    /// Backend the plan will run on.
    pub backend: BackendKind,
    /// The width used for the pass unit: the *certified* minimum width
    /// from the hypergraph analysis, which bounds the achievable
    /// intermediate relations more tightly than the syntactic width.
    pub k_min: usize,
    /// Points per pass (`n^k_min`).
    pub unit: f64,
    /// Estimated rounds per fixpoint operator.
    pub est_rounds: f64,
    /// Whether `est_rounds` came from observed feedback (plan-LRU
    /// re-optimization) rather than the static default.
    pub calibrated: bool,
    /// Estimated interpreter cost, in passes.
    pub interpreted: f64,
    /// Estimated cost of the basic compiled plan, in passes.
    pub basic: f64,
    /// Estimated cost of the optimized compiled plan, in passes.
    pub optimized: f64,
    /// The engine the model chose.
    pub chosen: PlanChoice,
}

impl CostReport {
    /// Renders the report as the lines `explain` prints.
    pub fn render_lines(&self) -> Vec<String> {
        vec![
            format!(
                "cost: interpreted={:.0} compiled[basic]={:.0} compiled[optimized]={:.0} (n^k passes)",
                self.interpreted, self.basic, self.optimized
            ),
            format!(
                "cost inputs: unit=n^k_min=n^{}={:.0} backend={} est_rounds={:.0} ({})",
                self.k_min,
                self.unit,
                self.backend,
                self.est_rounds,
                if self.calibrated {
                    "calibrated from feedback"
                } else {
                    "static estimate"
                }
            ),
        ]
    }
}

/// Estimated interpreter passes for the subtree at `node`; fixpoint
/// bodies multiply by the round estimate (nested loops compound).
fn interp_passes(prog: &Program, node: u32, rounds: f64) -> f64 {
    match &prog.nodes[node as usize] {
        Node::Const(_) | Node::Eq(..) | Node::Atom { .. } => INTERP_NODE_PASSES,
        Node::Not(g) | Node::Exists(_, g) | Node::Forall(_, g) => {
            interp_passes(prog, *g, rounds) + INTERP_NODE_PASSES
        }
        Node::And(a, b) | Node::Or(a, b) => {
            interp_passes(prog, *a, rounds) + interp_passes(prog, *b, rounds) + INTERP_NODE_PASSES
        }
        Node::Fix { fix } => {
            let body = prog.fixes[*fix].body;
            // Per round: the body plus the convergence compare + clone.
            rounds * (interp_passes(prog, body, rounds) + 2.0) + INTERP_NODE_PASSES
        }
    }
}

/// Passes for one bytecode block; `Fix` ops expand to their setup block
/// (once per loop entry) plus `rounds` × their body block (plus the
/// convergence compare per round — the machine moves the approximation
/// in and out of the loop slot, so there is no per-round clone).
fn block_passes(bc: &Bytecode, ops: &[Op], rounds: f64) -> f64 {
    let mut total = 0.0;
    for op in ops {
        total += match op {
            Op::Drop { .. } => 0.0,
            Op::Fix { fix, .. } => {
                let fc = &bc.fixes[*fix as usize];
                let setup = fc.setup.len() as f64;
                setup + rounds * (block_passes(bc, &fc.body, rounds) + 1.0) + 1.0
            }
            _ => 1.0,
        };
    }
    total
}

/// Compiled-plan passes: prelude once, entry (with nested loops) once.
fn compiled_passes(bc: &Bytecode, rounds: f64) -> f64 {
    block_passes(bc, &bc.prelude, rounds) + block_passes(bc, &bc.entry, rounds)
}

/// Builds the cost report and picks the engine. `k_min` is the
/// certified minimum width from the hypergraph analysis (equal to the
/// syntactic width when no certified rewrite exists): it, not the
/// syntactic width, sets the `n^k` pass unit, because the certificate
/// proves evaluation fits within `n^k_min` intermediate relations.
pub(crate) fn choose(
    prog: &Program,
    basic: &Bytecode,
    optimized: &Bytecode,
    n: usize,
    backend: BackendKind,
    feedback: Option<&CompileFeedback>,
    k_min: usize,
) -> CostReport {
    let k = k_min.max(1).min(prog.width.max(1));
    let unit = (n.max(1) as f64).powi(k as i32);
    let fix_count = prog.fixes.len();
    let (est_rounds, calibrated) = match feedback {
        Some(fb) if fb.fixpoint_iterations > 0 && fix_count > 0 => (
            (fb.fixpoint_iterations as f64 / fix_count as f64).max(1.0),
            true,
        ),
        _ if fix_count == 0 => (1.0, false),
        _ => ((n as f64 + 1.0).min(MAX_DEFAULT_ROUNDS), false),
    };
    let interpreted = interp_passes(prog, prog.root, est_rounds);
    let overhead = COMPILE_OVERHEAD_POINTS / unit;
    let basic_cost = compiled_passes(basic, est_rounds) + overhead;
    let optimized_cost = compiled_passes(optimized, est_rounds) + overhead;
    let best_compiled = if optimized_cost <= basic_cost {
        (optimized_cost, Variant::Optimized)
    } else {
        (basic_cost, Variant::Basic)
    };
    let chosen = if best_compiled.0 < interpreted * MARGIN {
        PlanChoice::Compiled(best_compiled.1)
    } else {
        PlanChoice::Interpreted
    };
    CostReport {
        backend,
        k_min: k,
        unit,
        est_rounds,
        calibrated,
        interpreted,
        basic: basic_cost,
        optimized: optimized_cost,
        chosen,
    }
}
