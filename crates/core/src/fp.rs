//! The fixpoint evaluation engine (`FP^k`, and the shared machinery for
//! `FO^k` and `PFP^k`).
//!
//! Evaluation is cylindrical, per the proof of Proposition 3.1: every
//! subformula denotes a subset of `D^k`, so every intermediate result has
//! at most `n^k` points. Fixpoint relations are represented the same way —
//! as cylinders over all `k` coordinates — which transparently handles
//! *parameterised* fixpoints (`φ(x̄, ȳ, S)` with free parameter variables
//! `ȳ`): the parameters simply remain live coordinates of the evolving
//! cylinder, and convergence still takes at most `n^k` rounds per operator.
//!
//! Two strategies for nested fixpoints are provided:
//!
//! * [`FpStrategy::Naive`] — every fixpoint restarts from ⊥/⊤ whenever its
//!   operator is re-applied; with `l` alternating nested fixpoints this is
//!   the `n^{kl}` behaviour §3.2 warns about;
//! * [`FpStrategy::EmersonLei`] — fixpoints of the same polarity keep their
//!   previous value as a warm start across an enclosing fixpoint's
//!   iterations (sound by monotonicity); a fixpoint's update resets its
//!   top-level sub-fixpoints of the *opposite* polarity. This is the
//!   classical Emerson–Lei scheme whose cost is governed by the alternation
//!   depth rather than the nesting depth.
//!
//! The NP ∩ co-NP certificate system of Theorem 3.5 lives in
//! [`cert`](crate::cert) and reuses this engine's IR.

use bvq_cert::FixEvent;
use bvq_logic::{FixKind, Formula, Query, Term};
use bvq_relation::backend::{choose, BackendKind, BackendMode, BddCylinder, DenseCylinder};
use bvq_relation::{
    CoordSource, CylCtx, CylinderOps, Database, EvalConfig, EvalStats, Relation, Span,
    StatsRecorder, Tracer,
};

use crate::certgen::TraceRecorder;
use crate::delta;
use crate::env::RelEnv;
use crate::ir::{self, AtomSource, CompileOpts, FixId, Node, NodeRef, Program};
use crate::EvalError;

/// How nested fixpoints are evaluated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FpStrategy {
    /// Restart every fixpoint from scratch at each application (`n^{kl}`).
    Naive,
    /// Warm-start same-polarity fixpoints, reset opposite-polarity ones
    /// (Emerson–Lei).
    EmersonLei,
}

/// Loads a database (or external) atom `R(t₁,…,t_m)` as a cylinder:
/// constants are selected out, the remaining positions are variables.
pub(crate) fn load_atom<C: CylinderOps>(
    ctx: &CylCtx,
    rel: &Relation,
    args: &[Term],
) -> Result<C, EvalError> {
    let mut filtered = rel.clone();
    let mut var_positions = Vec::new();
    let mut vars = Vec::new();
    for (i, t) in args.iter().enumerate() {
        match t {
            Term::Const(c) => {
                if *c as usize >= ctx.domain_size() {
                    return Err(EvalError::ConstOutOfDomain(*c));
                }
                filtered = filtered.select_const(i, *c);
            }
            Term::Var(v) => {
                var_positions.push(i);
                vars.push(v.index());
            }
        }
    }
    let projected = filtered.project(&var_positions);
    Ok(C::from_atom(ctx, &projected, &vars))
}

/// Builds the coordinate map used to read a fixpoint cylinder through
/// argument terms: source coordinate `bound[j]` is taken from `args[j]`;
/// all other coordinates are passed through.
pub(crate) fn fix_read_map(
    k: usize,
    bound: &[usize],
    args: &[Term],
) -> Result<Vec<CoordSource>, EvalError> {
    let mut map: Vec<CoordSource> = (0..k).map(CoordSource::Coord).collect();
    for (j, &b) in bound.iter().enumerate() {
        map[b] = match args[j] {
            Term::Var(v) => CoordSource::Coord(v.index()),
            Term::Const(c) => CoordSource::Const(c),
        };
    }
    Ok(map)
}

/// Whether a query's answer can be read off the output slice: its
/// outputs are distinct and include every free variable of its formula.
/// A formula's value is broadcast over the coordinates of the variables
/// not free in it, so then every point with its other coordinates at 0
/// stands for all the points with the same outputs.
pub(crate) fn output_slice(q: &Query) -> bool {
    let distinct = q
        .output
        .iter()
        .enumerate()
        .all(|(i, v)| !q.output[..i].contains(v));
    distinct && q.formula.free_vars().iter().all(|v| q.output.contains(v))
}

/// The answer relation over `coords` of a root cylinder: only its output
/// slice when `slice` (see [`output_slice`]), else every point.
pub(crate) fn answer<C: CylinderOps>(
    c: &C,
    ctx: &CylCtx,
    coords: &[usize],
    slice: bool,
) -> Relation {
    if slice {
        c.slice_to_relation(ctx, coords)
    } else {
        c.to_relation(ctx, coords)
    }
}

/// The evaluation engine over a compiled program.
pub(crate) struct Engine<'p, 'd, C: CylinderOps> {
    pub prog: &'p Program,
    pub db: &'d Database,
    pub ctx: CylCtx,
    /// Bindings for external relation slots (parallel to `prog.externals`).
    pub ext: Vec<Relation>,
    /// Current approximation of each fixpoint's value, as a cylinder.
    pub fix_values: Vec<Option<C>>,
    pub strategy: FpStrategy,
    pub rec: StatsRecorder,
    /// Span collector ([`Tracer::disabled`] unless tracing was requested
    /// via [`EvalConfig::with_trace`]).
    pub tracer: Tracer,
    /// Optional wall-clock deadline, checked between fixpoint rounds.
    pub deadline: Option<std::time::Instant>,
    /// The certificate trace the fixpoint loops write, when recording.
    /// A recording run starts every fixpoint from its seed.
    pub recorder: Option<TraceRecorder>,
}

impl<'p, 'd, C: CylinderOps> Engine<'p, 'd, C> {
    pub fn new(
        prog: &'p Program,
        db: &'d Database,
        ctx: CylCtx,
        ext: Vec<Relation>,
        strategy: FpStrategy,
        collect_stats: bool,
    ) -> Self {
        Engine {
            fix_values: vec![None; prog.fixes.len()],
            prog,
            db,
            ctx,
            ext,
            strategy,
            rec: if collect_stats {
                StatsRecorder::new()
            } else {
                StatsRecorder::disabled()
            },
            tracer: Tracer::disabled(),
            deadline: None,
            recorder: None,
        }
    }

    /// Attaches a wall-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline: Option<std::time::Instant>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Attaches a span tracer (builder style).
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// Errors with [`EvalError::DeadlineExceeded`] once the deadline has
    /// passed. Called at every fixpoint round boundary: a round is at most
    /// one pass over an `n^k`-bounded cylinder, so the abort latency is
    /// bounded by a single polynomially-small round.
    fn check_deadline(&self) -> Result<(), EvalError> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(EvalError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn record(&mut self, c: &C) {
        if self.rec.is_enabled() {
            let count = c.count(&self.ctx);
            self.rec.intermediate(self.ctx.width(), count);
            self.rec.bytes(c.size_bytes(&self.ctx));
        }
    }

    /// Evaluates a node to a cylinder. When tracing is enabled, every
    /// node evaluation becomes one [`Span`](bvq_relation::Span) whose
    /// children mirror the subformula structure; the engine recursion is
    /// single-threaded (parallelism lives inside the cylinder kernels),
    /// so the span tree is identical for every thread count.
    pub fn eval(&mut self, node: NodeRef) -> Result<C, EvalError> {
        let traced = self.tracer.is_enabled();
        if traced {
            self.tracer.open();
        }
        let out = self.eval_node(node)?;
        self.record(&out);
        if traced {
            let rows = out.count(&self.ctx);
            self.tracer.close(
                self.prog.node_kind(node),
                self.prog.render_node(node, self.db),
                self.ctx.width(),
                rows,
                None,
            );
        }
        Ok(out)
    }

    fn eval_node(&mut self, node: NodeRef) -> Result<C, EvalError> {
        let out = match self.prog.nodes[node as usize].clone() {
            Node::Const(true) => C::full(&self.ctx),
            Node::Const(false) => C::empty(&self.ctx),
            Node::Eq(a, b) => self.eval_eq(a, b)?,
            Node::Atom { source, args } => match source {
                AtomSource::Db(id) => load_atom(&self.ctx, self.db.relation(id), &args)?,
                AtomSource::External(slot) => load_atom(&self.ctx, &self.ext[slot], &args)?,
                AtomSource::Fix(fix) => {
                    let map = fix_read_map(self.ctx.width(), &self.prog.fixes[fix].bound, &args)?;
                    let cur = self.fix_values[fix]
                        .as_ref()
                        .expect("recursion variable read outside its fixpoint");
                    cur.preimage(&self.ctx, &map)
                }
            },
            Node::Not(g) => {
                let mut c = self.eval(g)?;
                c.not(&self.ctx);
                c
            }
            Node::And(a, b) => {
                let mut ca = self.eval(a)?;
                let cb = self.eval(b)?;
                ca.and_with(&self.ctx, &cb);
                ca
            }
            Node::Or(a, b) => {
                let mut ca = self.eval(a)?;
                let cb = self.eval(b)?;
                ca.or_with(&self.ctx, &cb);
                ca
            }
            Node::Exists(v, g) => self.eval(g)?.exists(&self.ctx, v),
            Node::Forall(v, g) => self.eval(g)?.forall(&self.ctx, v),
            Node::Fix { fix } => self.eval_fix(fix)?,
        };
        Ok(out)
    }

    fn eval_eq(&self, a: Term, b: Term) -> Result<C, EvalError> {
        let n = self.ctx.domain_size();
        Ok(match (a, b) {
            (Term::Var(x), Term::Var(y)) => C::equality(&self.ctx, x.index(), y.index()),
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                if c as usize >= n {
                    return Err(EvalError::ConstOutOfDomain(c));
                }
                C::const_eq(&self.ctx, x.index(), c)
            }
            (Term::Const(c), Term::Const(d)) => {
                if c as usize >= n || d as usize >= n {
                    return Err(EvalError::ConstOutOfDomain(c.max(d)));
                }
                if c == d {
                    C::full(&self.ctx)
                } else {
                    C::empty(&self.ctx)
                }
            }
        })
    }

    /// The bottom element of a fixpoint iteration.
    fn fix_bottom(&self, kind: FixKind) -> C {
        match kind {
            FixKind::Lfp | FixKind::Pfp | FixKind::Ifp => C::empty(&self.ctx),
            FixKind::Gfp => C::full(&self.ctx),
        }
    }

    /// Kleene iteration for `Lfp`/`Gfp` (partial fixpoints are handled by
    /// the PFP evaluator, which compiles with `allow_pfp` and overrides
    /// this path via [`Engine::eval_pfp_fix`]).
    fn eval_fix(&mut self, fix: FixId) -> Result<C, EvalError> {
        let info = &self.prog.fixes[fix];
        let kind = info.kind;
        if matches!(kind, FixKind::Pfp) {
            return self.eval_pfp_fix(fix);
        }
        if matches!(kind, FixKind::Ifp) {
            return self.eval_ifp_fix(fix);
        }
        let cur = self.compute_fix(fix)?;
        let value = {
            let info = &self.prog.fixes[fix];
            let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
            cur.preimage(&self.ctx, &map)
        };
        match self.strategy {
            FpStrategy::EmersonLei => self.fix_values[fix] = Some(cur),
            FpStrategy::Naive => self.fix_values[fix] = None,
        }
        Ok(value)
    }

    /// Runs the μ/ν Kleene iteration for `fix` and returns the fixpoint as
    /// a cylinder (also left in `fix_values[fix]`).
    pub(crate) fn compute_fix(&mut self, fix: FixId) -> Result<C, EvalError> {
        let info = &self.prog.fixes[fix];
        let kind = info.kind;
        let body = info.body;
        let traced = self.tracer.is_enabled();
        let name = if traced {
            info.name.clone()
        } else {
            String::new()
        };
        let mut round: u64 = 0;
        let recording = self.recorder.is_some();
        let mut cur = match (self.strategy, self.fix_values[fix].take()) {
            (FpStrategy::EmersonLei, Some(warm)) if !recording => warm,
            _ => self.fix_bottom(kind),
        };
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Begin { fix });
        }
        loop {
            self.check_deadline()?;
            self.rec.iteration();
            round += 1;
            self.fix_values[fix] = Some(cur.clone());
            if traced {
                self.tracer.open();
            }
            let next = self.eval(body)?;
            if traced {
                let rows = next.count(&self.ctx);
                self.tracer
                    .close("round", name.clone(), self.ctx.width(), rows, Some(round));
            }
            if next == cur {
                break;
            }
            if round == 1 && (self.strategy == FpStrategy::EmersonLei || recording) {
                let prog = self.prog;
                if let Ok(plan) = &prog.fixes[fix].seminaive {
                    let (db, ctx) = (self.db, self.ctx.clone());
                    if let Some(value) = delta::run_rounds(self, fix, plan, db, &ctx, &cur, &next)?
                    {
                        self.record(&value);
                        cur = value;
                        break;
                    }
                }
            }
            self.record_step(fix, &cur, &next);
            cur = next;
            if self.strategy == FpStrategy::EmersonLei {
                // The variable moved: opposite-polarity sub-fixpoints must
                // restart from scratch next time they are evaluated.
                let resets = self.prog.fixes[fix].toplevel_opposite.clone();
                for d in resets {
                    self.fix_values[d] = None;
                }
            }
        }
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Converged { fix });
        }
        self.fix_values[fix] = Some(cur.clone());
        Ok(cur)
    }

    /// Records the round of `fix` that took its stage from `cur` to
    /// `next`, when recording.
    fn record_step(&mut self, fix: FixId, cur: &C, next: &C) {
        if let Some(rec) = &mut self.recorder {
            rec.step_between(&self.ctx, fix, &self.prog.fixes[fix].bound, cur, next);
        }
    }

    /// Inflationary fixpoint: `S₀ = ∅`, `Sᵢ₊₁ = Sᵢ ∪ φ(Sᵢ)` — increasing
    /// by construction, so it converges within `n^k` rounds regardless of
    /// monotonicity [GS86]. The paper notes that the Theorem 3.5
    /// certificate technique does *not* extend to `IFP^k`; this evaluator
    /// realises the `PFP^k`-inherited PSPACE route — plain iteration.
    fn eval_ifp_fix(&mut self, fix: FixId) -> Result<C, EvalError> {
        let body = self.prog.fixes[fix].body;
        let traced = self.tracer.is_enabled();
        let name = if traced {
            self.prog.fixes[fix].name.clone()
        } else {
            String::new()
        };
        let mut round: u64 = 0;
        let mut cur = self.fix_bottom(FixKind::Ifp);
        loop {
            self.check_deadline()?;
            self.rec.iteration();
            round += 1;
            self.fix_values[fix] = Some(cur.clone());
            if traced {
                self.tracer.open();
            }
            let step = self.eval(body)?;
            let mut next = cur.clone();
            next.or_with(&self.ctx, &step);
            if traced {
                let rows = next.count(&self.ctx);
                self.tracer
                    .close("round", name.clone(), self.ctx.width(), rows, Some(round));
            }
            if next == cur {
                break;
            }
            cur = next;
        }
        self.fix_values[fix] = None;
        let info = &self.prog.fixes[fix];
        let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
        Ok(cur.preimage(&self.ctx, &map))
    }

    /// Partial-fixpoint iteration with Brent cycle detection: if the
    /// sequence `∅, φ(∅), φ²(∅), …` stabilises, its limit is the value; if
    /// it enters a cycle of length > 1, the partial fixpoint is the empty
    /// relation (§2.2). Brent's algorithm keeps O(1) cylinders in memory,
    /// matching the PSPACE flavour of Theorem 3.8.
    fn eval_pfp_fix(&mut self, fix: FixId) -> Result<C, EvalError> {
        let body = self.prog.fixes[fix].body;
        let name = if self.tracer.is_enabled() {
            self.prog.fixes[fix].name.clone()
        } else {
            String::new()
        };
        let mut round: u64 = 0;
        let mut step = |engine: &mut Self, x: &C| -> Result<C, EvalError> {
            engine.check_deadline()?;
            engine.rec.iteration();
            round += 1;
            engine.fix_values[fix] = Some(x.clone());
            let traced = engine.tracer.is_enabled();
            if traced {
                engine.tracer.open();
            }
            let r = engine.eval(body);
            engine.fix_values[fix] = None;
            if let Ok(next) = &r {
                engine.record_step(fix, x, next);
            }
            if traced {
                if let Ok(c) = &r {
                    let rows = c.count(&engine.ctx);
                    engine.tracer.close(
                        "round",
                        name.clone(),
                        engine.ctx.width(),
                        rows,
                        Some(round),
                    );
                }
            }
            r
        };
        // Brent: find the cycle length λ of the eventually-periodic
        // sequence. λ == 1 means the sequence stabilises; the tortoise's
        // value at that point is in the cycle — for λ == 1 it IS the limit.
        if let Some(rec) = &mut self.recorder {
            rec.push(FixEvent::Begin { fix });
        }
        let mut tortoise = self.fix_bottom(FixKind::Pfp);
        let mut hare = step(self, &tortoise)?;
        let (mut power, mut lam) = (1u64, 1u64);
        // The round that produced the hare.
        let mut hare_round = 1;
        while tortoise != hare {
            if power == lam {
                tortoise = hare.clone();
                power *= 2;
                lam = 0;
            }
            hare = step(self, &hare)?;
            hare_round += 1;
            lam += 1;
        }
        if let Some(rec) = &mut self.recorder {
            // Every round of a cycle moves the stage, so the round count
            // indexes the recorded stages; the tortoise is `λ` behind.
            match lam {
                1 => rec.push(FixEvent::Converged { fix }),
                _ => rec.push(FixEvent::Cycle {
                    fix,
                    back_to: hare_round - lam as usize,
                }),
            }
        }
        let value = if lam == 1 {
            // Converged: `tortoise` is the limit (a fixpoint of the body).
            let info = &self.prog.fixes[fix];
            let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
            tortoise.preimage(&self.ctx, &map)
        } else {
            // Divergent: the partial fixpoint is empty.
            C::empty(&self.ctx)
        };
        Ok(value)
    }
}

impl<C: CylinderOps> delta::Rounds for Engine<'_, '_, C> {
    fn open_round(&mut self) -> Result<(), EvalError> {
        self.check_deadline()?;
        self.rec.iteration();
        if self.tracer.is_enabled() {
            self.tracer.open();
        }
        Ok(())
    }

    fn close_round(&mut self, fix: FixId, round: u64, rows: usize) {
        if self.tracer.is_enabled() {
            let name = self.prog.fixes[fix].name.clone();
            self.tracer
                .close("round", name, self.ctx.width(), rows, Some(round));
        }
    }

    fn recorder(&mut self) -> Option<&mut TraceRecorder> {
        self.recorder.as_mut()
    }
}

/// The result of a traced query evaluation: the answer relation, the
/// aggregate statistics, and (when [`EvalConfig::with_trace`] asked for
/// it) the span tree mirroring the formula's evaluation.
#[derive(Clone, Debug)]
pub struct Evaluated {
    /// The answer relation (columns in output-variable order).
    pub answer: Relation,
    /// Aggregate evaluation statistics.
    pub stats: EvalStats,
    /// The recorded span tree; `None` unless tracing was enabled.
    pub trace: Option<Span>,
}

/// The `FP^k` (and `FO^k`) query evaluator.
///
/// ```
/// use bvq_core::FpEvaluator;
/// use bvq_logic::parser::parse_query;
/// use bvq_relation::Database;
///
/// let db = Database::builder(4)
///     .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
///     .build();
/// // Everything reachable from node 0.
/// let q = parse_query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)")
///     .unwrap();
/// let ev = FpEvaluator::new(&db, 2);
/// let (answer, stats) = ev.eval_query(&q).unwrap();
/// assert_eq!(answer.len(), 4);
/// assert!(stats.max_arity <= 2); // intermediates never exceed k = 2
/// ```
pub struct FpEvaluator<'d> {
    db: &'d Database,
    k: usize,
    strategy: FpStrategy,
    collect_stats: bool,
    backend: BackendMode,
    allow_pfp: bool,
    allow_fix: bool,
    config: EvalConfig,
}

impl<'d> FpEvaluator<'d> {
    /// Creates an evaluator with variable bound `k` (Emerson–Lei strategy).
    ///
    /// The thread count comes from [`EvalConfig::default`] (the
    /// `BVQ_THREADS` environment variable, else the machine's available
    /// parallelism); override with [`FpEvaluator::with_config`]. Results
    /// are identical for every thread count.
    pub fn new(db: &'d Database, k: usize) -> Self {
        FpEvaluator {
            db,
            k,
            strategy: FpStrategy::EmersonLei,
            collect_stats: true,
            backend: BackendMode::Auto,
            allow_pfp: false,
            allow_fix: true,
            config: EvalConfig::default(),
        }
    }

    /// Selects the nested-fixpoint strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: FpStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the parallel-evaluation configuration (thread count).
    #[must_use]
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.config = config;
        self
    }

    /// Disables statistics collection (for timing-only benchmarks).
    #[must_use]
    pub fn without_stats(mut self) -> Self {
        self.collect_stats = false;
        self
    }

    /// Selects the cylinder backend: `Auto` (the default) picks dense when
    /// `n^k` fits, else the BDD ([`bvq_relation::backend::choose`]); the other
    /// modes force one implementation. Forcing `Dense` on a domain where
    /// `n^k` exceeds the dense budget fails with
    /// [`EvalError::UnsupportedConstruct`].
    #[must_use]
    pub fn with_backend(mut self, backend: BackendMode) -> Self {
        self.backend = backend;
        self
    }

    pub(crate) fn allow_pfp(mut self) -> Self {
        self.allow_pfp = true;
        self
    }

    pub(crate) fn forbid_fix(mut self) -> Self {
        self.allow_fix = false;
        self
    }

    /// The variable bound `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    pub(crate) fn compile_with_externals(
        &self,
        formula: &Formula,
        externals: &[(String, usize)],
    ) -> Result<Program, EvalError> {
        ir::compile(
            formula,
            self.db,
            externals,
            CompileOpts {
                k: self.k,
                allow_pfp: self.allow_pfp,
                allow_fix: self.allow_fix,
            },
        )
    }

    /// Evaluates a query, returning the answer relation (columns in output
    /// order) and evaluation statistics.
    pub fn eval_query(&self, q: &Query) -> Result<(Relation, EvalStats), EvalError> {
        self.eval_query_with_env(q, &RelEnv::new())
    }

    /// Evaluates a query with external relation-variable bindings.
    pub fn eval_query_with_env(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<(Relation, EvalStats), EvalError> {
        self.eval_query_with_env_traced(q, env)
            .map(|e| (e.answer, e.stats))
    }

    /// Evaluates a query, also returning the span tree when tracing is
    /// enabled on the configuration ([`EvalConfig::with_trace`]).
    pub fn eval_query_traced(&self, q: &Query) -> Result<Evaluated, EvalError> {
        self.eval_query_with_env_traced(q, &RelEnv::new())
    }

    /// [`FpEvaluator::eval_query_traced`] with external relation-variable
    /// bindings.
    pub fn eval_query_with_env_traced(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<Evaluated, EvalError> {
        self.evaluate(q, env, None)
    }

    /// [`FpEvaluator::eval_query_traced`] that, given `Some(rec)`, also
    /// writes the iteration trace of every fixpoint into `rec`, for a
    /// certificate whose claim is this evaluation's answer (see
    /// [`TraceRecorder`]).
    pub fn eval_query_recorded(
        &self,
        q: &Query,
        rec: Option<&mut TraceRecorder>,
    ) -> Result<Evaluated, EvalError> {
        self.evaluate(q, &RelEnv::new(), rec)
    }

    fn evaluate(
        &self,
        q: &Query,
        env: &RelEnv,
        rec: Option<&mut TraceRecorder>,
    ) -> Result<Evaluated, EvalError> {
        let externals: Vec<(String, usize)> = env
            .iter()
            .map(|(n, r)| (n.to_string(), r.arity()))
            .collect();
        let prog = self.compile_with_externals(&q.formula, &externals)?;
        // Output variables must fit within k too.
        let width = q
            .output
            .iter()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
            .max(prog.width)
            .max(1);
        if width > self.k.max(1) {
            return Err(EvalError::WidthExceeded { k: self.k, width });
        }
        let ctx =
            CylCtx::new(self.db.domain_size(), self.k.max(1)).with_threads(self.config.threads());
        let ext: Vec<Relation> = env.iter().map(|(_, r)| r.clone()).collect();
        let coords: Vec<usize> = q.output.iter().map(|v| v.index()).collect();
        let slice = output_slice(q);
        match choose(&ctx, self.backend) {
            BackendKind::Dense => {
                if !ctx.dense_feasible() {
                    return Err(EvalError::UnsupportedConstruct(
                        "dense backend forced but n^k exceeds the dense budget",
                    ));
                }
                self.run_engine::<DenseCylinder>(&prog, ctx, ext, &coords, slice, rec)
            }
            BackendKind::Bdd => {
                self.run_engine::<BddCylinder>(&prog, ctx, ext, &coords, slice, rec)
            }
        }
    }

    /// Runs the engine over one cylinder backend and packages the result.
    fn run_engine<C: CylinderOps>(
        &self,
        prog: &Program,
        ctx: CylCtx,
        ext: Vec<Relation>,
        coords: &[usize],
        slice: bool,
        mut rec: Option<&mut TraceRecorder>,
    ) -> Result<Evaluated, EvalError> {
        let mut engine = Engine::<C>::new(
            prog,
            self.db,
            ctx.clone(),
            ext,
            self.strategy,
            self.collect_stats,
        )
        .with_deadline(self.config.deadline())
        .with_tracer(Tracer::new(self.config.trace()));
        if let Some(r) = rec.as_deref_mut() {
            engine.recorder = Some(std::mem::take(r));
        }
        let c = engine.eval(prog.root);
        if let Some(r) = rec {
            *r = engine
                .recorder
                .take()
                .expect("the engine keeps its recorder");
        }
        let c = c?;
        Ok(Evaluated {
            answer: answer(&c, &ctx, coords, slice),
            stats: engine.rec.stats(),
            trace: std::mem::take(&mut engine.tracer).finish(),
        })
    }

    /// Decides `t ∈ Q(B)` — the combined-complexity decision problem
    /// `Answer_{FP^k}` of Theorem 3.5.
    pub fn check(&self, q: &Query, t: &[u32]) -> Result<bool, EvalError> {
        if t.len() != q.output.len() {
            return Ok(false);
        }
        let (rel, _) = self.eval_query(q)?;
        Ok(rel.contains(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::parser::parse_query;
    use bvq_logic::patterns;
    use bvq_logic::Var;

    fn path_db() -> Database {
        // 0 → 1 → 2 → 3, plus an isolated 4.
        Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .relation("P", 1, [[1u32], [3]])
            .build()
    }

    #[test]
    fn fo_query_bottom_up() {
        let db = path_db();
        let q = parse_query("(x1,x2) exists x3. (E(x1,x3) & E(x3,x2))").unwrap();
        let ev = FpEvaluator::new(&db, 3);
        let (r, stats) = ev.eval_query(&q).unwrap();
        assert_eq!(
            r.sorted(),
            Relation::from_tuples(2, [[0u32, 2], [1, 3]]).sorted()
        );
        assert_eq!(stats.max_arity, 3);
    }

    #[test]
    fn reachability_lfp() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(1));
        let ev = FpEvaluator::new(&db, 2);
        let (r, _) = ev.eval_query(&q).unwrap();
        assert_eq!(
            r.sorted(),
            Relation::from_tuples(1, [[1u32], [2], [3]]).sorted()
        );
    }

    #[test]
    fn naive_and_el_agree_on_alternation() {
        let db = path_db();
        // The fairness sentence: "no infinite E-path from u on which P
        // fails infinitely often". The graph is a finite path, so there is
        // no infinite path at all — true everywhere.
        for u in 0..5 {
            let q = Query::sentence(patterns::fairness(Term::Const(u)));
            let naive = FpEvaluator::new(&db, 3).with_strategy(FpStrategy::Naive);
            let el = FpEvaluator::new(&db, 3);
            let (rn, _) = naive.eval_query(&q).unwrap();
            let (re, _) = el.eval_query(&q).unwrap();
            assert_eq!(rn.as_boolean(), re.as_boolean(), "u = {u}");
            assert!(rn.as_boolean(), "finite path graph has no infinite paths");
        }
    }

    #[test]
    fn fairness_detects_bad_cycle() {
        // A cycle 0 → 1 → 0 where P fails on both nodes: the infinite path
        // exists and P fails infinitely often, so the sentence is false.
        let db = Database::builder(2)
            .relation("E", 2, [[0u32, 1], [1, 0]])
            .relation("P", 1, Vec::<[u32; 1]>::new())
            .build();
        let q = Query::sentence(patterns::fairness(Term::Const(0)));
        let (r, _) = FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
        assert!(!r.as_boolean());
        // Now mark both nodes P: along the cycle P holds infinitely often,
        // so "P fails infinitely often" is false — the sentence holds.
        let db2 = Database::builder(2)
            .relation("E", 2, [[0u32, 1], [1, 0]])
            .relation("P", 1, [[0u32], [1]])
            .build();
        let (r2, _) = FpEvaluator::new(&db2, 3).eval_query(&q).unwrap();
        assert!(r2.as_boolean());
    }

    #[test]
    fn gfp_computes_greatest() {
        // [gfp S(x1). ∃x2 (E(x1,x2) ∧ S(x2))](x1): nodes with an infinite
        // outgoing path. On the finite path graph: none. On a cycle: all.
        let q = parse_query("(x1) [gfp S(x1). exists x2. (E(x1,x2) & S(x2))](x1)").unwrap();
        let db = path_db();
        let (r, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert!(r.is_empty());
        let cyc = Database::builder(3)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 0]])
            .build();
        let (r2, _) = FpEvaluator::new(&cyc, 2).eval_query(&q).unwrap();
        assert_eq!(r2.len(), 3);
    }

    #[test]
    fn parameterised_fixpoint() {
        // Connectivity as a binary query with a parameter: the fixpoint is
        // over x2 with x1 as a free parameter.
        // (x1,x2) [lfp S(x2). (x2 = x1 ∨ ∃x3 (S(x3) ∧ E(x3,x2)))](x2)
        let q = parse_query("(x1,x2) [lfp S(x2). (x2 = x1 | exists x3. (S(x3) & E(x3,x2)))](x2)")
            .unwrap();
        let db = path_db();
        let (r, _) = FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
        // (a,b) iff b reachable from a (including a itself).
        assert!(r.contains(&[0, 3]));
        assert!(r.contains(&[2, 2]));
        assert!(!r.contains(&[3, 2]));
        assert!(!r.contains(&[4, 0]));
        assert_eq!(r.len(), 4 + 3 + 2 + 1 + 1);
    }

    #[test]
    fn pfp_rejected_without_flag() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::pfp_parity_flip());
        let ev = FpEvaluator::new(&db, 2);
        assert!(matches!(
            ev.eval_query(&q),
            Err(EvalError::UnsupportedConstruct(_))
        ));
    }

    #[test]
    fn check_decides_membership() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let ev = FpEvaluator::new(&db, 2);
        assert!(ev.check(&q, &[3]).unwrap());
        assert!(!ev.check(&q, &[4]).unwrap());
        assert!(
            !ev.check(&q, &[0, 1]).unwrap(),
            "wrong arity is non-membership"
        );
    }

    #[test]
    fn all_backends_agree_and_dense_guard_fires() {
        let db = path_db();
        let queries = [
            "(x1,x2) [lfp S(x2). (x2 = x1 | exists x3. (S(x3) & E(x3,x2)))](x2)",
            "(x1) [gfp S(x1). exists x2. (E(x1,x2) & S(x2))](x1)",
            "(x1) forall x2. (E(x1,x2) -> P(x2))",
        ];
        for src in queries {
            let q = parse_query(src).unwrap();
            let reference = FpEvaluator::new(&db, 3).eval_query(&q).unwrap().0.sorted();
            for mode in [BackendMode::Dense, BackendMode::Bdd] {
                let got = FpEvaluator::new(&db, 3)
                    .with_backend(mode)
                    .eval_query(&q)
                    .unwrap()
                    .0
                    .sorted();
                assert_eq!(got, reference, "{mode} on {src}");
            }
        }
        // Forcing dense past the budget is a structured error, not a panic.
        let huge = Database::builder(1 << 20)
            .relation("E", 2, [[0u32, 1]])
            .build();
        let q = parse_query("(x1) exists x2. E(x1,x2)").unwrap();
        let err = FpEvaluator::new(&huge, 4)
            .with_backend(BackendMode::Dense)
            .eval_query(&q)
            .unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedConstruct(_)));
    }

    #[test]
    fn stats_report_backend_dependent_peak_bytes() {
        let db = path_db();
        let q = parse_query("(x1) forall x2. (E(x1,x2) -> P(x2))").unwrap();
        let (_, dense) = FpEvaluator::new(&db, 2)
            .with_backend(BackendMode::Dense)
            .eval_query(&q)
            .unwrap();
        let (_, bdd) = FpEvaluator::new(&db, 2)
            .with_backend(BackendMode::Bdd)
            .eval_query(&q)
            .unwrap();
        // Dense always pays ⌈n^k/64⌉ words; the BDD footprint is
        // structural. Both are recorded, nonzero, and backend-dependent.
        assert_eq!(dense.peak_bytes, 8);
        assert!(bdd.peak_bytes > 0);
    }

    #[test]
    fn stats_iterations_reflect_strategy() {
        // Alternating ν/μ on a longer path: naive must do at least as many
        // iterations as Emerson–Lei.
        let n = 12;
        let edges: Vec<[u32; 2]> = (0..n - 1).map(|i| [i, i + 1]).collect();
        let db = Database::builder(n as usize)
            .relation("E", 2, edges)
            .relation("P", 1, [[0u32]])
            .build();
        let q = Query::sentence(patterns::fairness(Term::Const(0)));
        let (_, s_naive) = FpEvaluator::new(&db, 3)
            .with_strategy(FpStrategy::Naive)
            .eval_query(&q)
            .unwrap();
        let (_, s_el) = FpEvaluator::new(&db, 3).eval_query(&q).unwrap();
        assert!(
            s_naive.fixpoint_iterations >= s_el.fixpoint_iterations,
            "naive {} < EL {}",
            s_naive.fixpoint_iterations,
            s_el.fixpoint_iterations
        );
    }

    #[test]
    fn deadline_aborts_between_rounds() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        // An already-expired deadline aborts before the first round.
        let expired = EvalConfig::sequential().with_deadline(std::time::Instant::now());
        let err = FpEvaluator::new(&db, 2)
            .with_config(expired)
            .eval_query(&q)
            .unwrap_err();
        assert_eq!(err, EvalError::DeadlineExceeded);
        // A generous deadline leaves the result untouched.
        let far = EvalConfig::sequential()
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(3600));
        let (r, _) = FpEvaluator::new(&db, 2)
            .with_config(far)
            .eval_query(&q)
            .unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn trace_mirrors_formula_and_rounds() {
        let db = path_db();
        let q =
            parse_query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)").unwrap();
        let cfg = EvalConfig::sequential().with_trace(true);
        let ev = FpEvaluator::new(&db, 2).with_config(cfg);
        let out = ev.eval_query_traced(&q).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.kind, "lfp");
        // Rounds: 0,{0},{0,1},{0,1,2},{0,1,2,3} then one stable check.
        let rounds: Vec<_> = trace
            .children
            .iter()
            .filter(|c| c.kind == "round")
            .collect();
        assert_eq!(rounds.len(), 5);
        assert_eq!(rounds[0].round, Some(1));
        assert_eq!(rounds.last().unwrap().rows, 4 * 5); // cylinder over k=2
                                                        // Inside a round: the or node over eq and exists.
        assert_eq!(rounds[0].children.len(), 1);
        assert_eq!(rounds[0].children[0].kind, "or");
        // Without the flag, no trace and identical answers/stats.
        let plain = FpEvaluator::new(&db, 2)
            .with_config(EvalConfig::sequential())
            .eval_query_traced(&q)
            .unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(plain.answer.sorted(), out.answer.sorted());
        assert_eq!(plain.stats, out.stats);
    }

    #[test]
    fn trace_structure_is_thread_independent() {
        let db = path_db();
        let q = parse_query("(x1,x2) [lfp S(x2). (x2 = x1 | exists x3. (S(x3) & E(x3,x2)))](x2)")
            .unwrap();
        let base = FpEvaluator::new(&db, 3)
            .with_config(EvalConfig::sequential().with_trace(true))
            .eval_query_traced(&q)
            .unwrap()
            .trace
            .unwrap();
        for t in [2usize, 4] {
            let other = FpEvaluator::new(&db, 3)
                .with_config(EvalConfig::with_threads(t).with_trace(true))
                .eval_query_traced(&q)
                .unwrap()
                .trace
                .unwrap();
            assert_eq!(base.structure(), other.structure(), "threads={t}");
        }
    }

    #[test]
    fn width_guard() {
        let db = path_db();
        let q = parse_query("(x1,x2) exists x3. (E(x1,x3) & E(x3,x2))").unwrap();
        let ev = FpEvaluator::new(&db, 2);
        assert!(matches!(
            ev.eval_query(&q),
            Err(EvalError::WidthExceeded { .. })
        ));
    }
}
