//! The execution front-end shared by the CLI and the server: one typed
//! entry point for every language the system evaluates.
//!
//! An [`ExecRequest`] names *what* to run ([`ExecKind`]: an FO/FP/PFP
//! query, an ESO sentence/query, or a Datalog program), *how* to run it
//! ([`EvalOptions`]), and whether to record a trace. [`prepare_request`]
//! parses and classifies it into a [`Prepared`] plan — the unit the
//! server's plan cache stores — and [`execute_prepared`] is the **single
//! dispatcher** that picks an evaluator and produces an [`ExecOutcome`]
//! (answer + stats + optional span tree). [`execute`] composes the two.
//!
//! The CLI re-exports [`run_eval`]/[`run_eso`]/[`EvalOptions`] (thin
//! rendering wrappers over the same path, byte-compatible with their
//! historical output), and [`run_explain`] renders [`explain`]'s static
//! or measured plan tree. [`RunError::code`] maps error kinds to
//! protocol error codes so front-ends never match strings.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bvq_cert::recorded_derivation;
use bvq_core::certgen::TraceRecorder;
use bvq_core::{
    feedback_from, plan_query, BoundedEvaluator, CertifiedChecker, CompileFeedback, EsoEvaluator,
    EvalError, Evaluated, FpEvaluator, NaiveEvaluator, PfpEvaluator, PlanChoice,
};
use bvq_datalog::{eval_naive_with, eval_recorded, eval_seminaive_with, DatalogError, Program};
use bvq_logic::parser::{parse_eso, parse_query};
use bvq_logic::{Eso, FixKind, Formula, Query, Var};
use bvq_relation::trace::truncate_detail;
use bvq_relation::{
    choose, BackendMode, CylCtx, Database, EvalConfig, EvalStats, Relation, Span, Tracer,
};

use crate::json::Json;
use crate::stats::Language;

/// Errors from running a query, by kind — so front-ends (the protocol
/// layer, the CLI) can branch on *what* failed instead of matching
/// strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The query text failed to parse.
    Parse(String),
    /// An option was used with a query it does not apply to (e.g.
    /// `--naive` on a fixpoint query).
    InvalidOption(String),
    /// A Datalog request named an output predicate the program never
    /// derives.
    UnknownOutput(String),
    /// The evaluator rejected or aborted the query.
    Eval(EvalError),
    /// A Datalog program failed to parse, validate, or evaluate.
    Datalog(DatalogError),
    /// A certificate was requested but the request is outside the
    /// certifiable fragment (or production hit its work caps). The
    /// *answer* is still computable — callers fall back to plain
    /// uncertified evaluation.
    NotCertifiable(String),
    /// The query references a relation that does not match the
    /// database's schema (unknown name or wrong arity) — caught at
    /// dispatch, before any evaluation starts.
    Schema {
        /// The offending relation name.
        name: String,
        /// The schema's arity, or `None` when the relation is unknown.
        expected: Option<usize>,
        /// The arity the query used.
        found: usize,
    },
}

impl RunError {
    /// The protocol error code for this error kind.
    pub fn code(&self) -> &'static str {
        match self {
            RunError::Parse(_) => "parse_error",
            RunError::InvalidOption(_) => "invalid_option",
            RunError::UnknownOutput(_) => "eval_error",
            RunError::Eval(EvalError::DeadlineExceeded) => "deadline_exceeded",
            RunError::Eval(_) => "eval_error",
            RunError::Datalog(DatalogError::Parse { .. }) => "parse_error",
            RunError::Datalog(DatalogError::DeadlineExceeded) => "deadline_exceeded",
            RunError::Datalog(_) => "eval_error",
            RunError::NotCertifiable(_) => "not_certifiable",
            RunError::Schema { .. } => "schema_error",
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Parse(m) | RunError::InvalidOption(m) => write!(f, "{m}"),
            RunError::UnknownOutput(p) => {
                write!(f, "program derives no predicate named `{p}`")
            }
            RunError::NotCertifiable(m) => write!(f, "not certifiable: {m}"),
            RunError::Eval(e) => write!(f, "{e}"),
            RunError::Datalog(e) => write!(f, "{e}"),
            RunError::Schema {
                name,
                expected: Some(expected),
                found,
            } => write!(
                f,
                "relation `{name}` has arity {expected} in the database but the query uses {found} argument(s)"
            ),
            RunError::Schema { name, .. } => {
                write!(f, "unknown relation `{name}`: the database does not define it")
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Eval(e) => Some(e),
            RunError::Datalog(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EvalError> for RunError {
    fn from(e: EvalError) -> Self {
        RunError::Eval(e)
    }
}

impl From<DatalogError> for RunError {
    fn from(e: DatalogError) -> Self {
        RunError::Datalog(e)
    }
}

impl From<RunError> for String {
    fn from(e: RunError) -> String {
        e.to_string()
    }
}

/// Whether to run queries through the bytecode compiler
/// (see [`bvq_core::plan_query`]) or the AST-walking interpreters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CompileMode {
    /// Let the cost model decide per plan (the default).
    #[default]
    Auto,
    /// Always run the compiled plan; planning errors are reported.
    On,
    /// Always interpret.
    Off,
}

impl CompileMode {
    /// Parses the `--compile` flag values.
    pub fn parse(s: &str) -> Option<CompileMode> {
        match s {
            "auto" => Some(CompileMode::Auto),
            "on" => Some(CompileMode::On),
            "off" => Some(CompileMode::Off),
            _ => None,
        }
    }
}

/// Options for `bvq eval` / the server's `eval` command.
#[derive(Clone, Debug, Default)]
pub struct EvalOptions {
    /// Variable bound; default = the query's width.
    pub k: Option<usize>,
    /// Use the naive (unbounded, named-column) evaluator.
    pub naive: bool,
    /// Rewrite the formula to fewer variables first (FO only).
    pub minimize: bool,
    /// Tuples to certify via Theorem 3.5 (FP queries only).
    pub certify: Vec<Vec<u32>>,
    /// Worker threads (`--threads N`); default = `BVQ_THREADS` else the
    /// machine's available parallelism. Results are identical either way.
    pub threads: Option<usize>,
    /// Absolute wall-clock deadline; fixpoint engines abort between
    /// rounds once it passes.
    pub deadline: Option<Instant>,
    /// Bytecode compilation: cost-based (`Auto`), forced, or disabled.
    pub compile: CompileMode,
    /// Cylinder backend: `Auto` (dense if `n^k` fits, else the BDD) or
    /// forced to `dense`/`bdd` (see [`bvq_relation::backend`]). Forced
    /// backends always interpret — the bytecode engine runs on the
    /// backend `Auto` picks.
    pub backend: BackendMode,
    /// Emit a portable [`bvq_cert`] certificate alongside the answer
    /// ([`ExecOutcome::certificate`]). Requests outside the certifiable
    /// fragment fail with [`RunError::NotCertifiable`] — the answer is
    /// unchanged either way, so this flag is deliberately **excluded**
    /// from [`ExecRequest::cache_key`].
    pub certificate: bool,
}

impl EvalOptions {
    /// The parallel-evaluation configuration these options select.
    pub fn config(&self) -> EvalConfig {
        let cfg = match self.threads {
            Some(t) => EvalConfig::with_threads(t),
            None => EvalConfig::from_env(),
        };
        match self.deadline {
            Some(d) => cfg.with_deadline(d),
            None => cfg,
        }
    }
}

/// What to execute: the request body shared by the CLI subcommands, the
/// server's compute ops, and `explain`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecKind {
    /// An FO / FP / PFP / IFP query in the surface syntax.
    Query {
        /// The query text.
        text: String,
    },
    /// An ESO sentence or query (Corollary 3.7 grounding).
    Eso {
        /// The sentence/query text.
        text: String,
    },
    /// A Datalog program with a designated output predicate.
    Datalog {
        /// The program text.
        program: String,
        /// The IDB predicate whose relation is the answer.
        output: String,
    },
}

/// One execution request: what to run plus how to run it. The single
/// argument of [`execute`]; constructed by the CLI's argument parser and
/// by the server's protocol layer alike, so trace/explain flags ride in
/// one place instead of per-op plumbing.
#[derive(Clone, Debug)]
pub struct ExecRequest {
    /// What to run.
    pub kind: ExecKind,
    /// How to run it.
    pub opts: EvalOptions,
    /// Record a span tree ([`ExecOutcome::trace`]). Excluded from
    /// [`cache_key`](ExecRequest::cache_key): tracing never changes the
    /// answer, but traced requests bypass the server's result cache so
    /// the spans are actually measured.
    pub trace: bool,
}

impl ExecRequest {
    /// A request for an FO/FP/PFP query with default options.
    pub fn query(text: impl Into<String>) -> ExecRequest {
        ExecRequest {
            kind: ExecKind::Query { text: text.into() },
            opts: EvalOptions::default(),
            trace: false,
        }
    }

    /// A request for an ESO sentence/query with default options.
    pub fn eso(text: impl Into<String>) -> ExecRequest {
        ExecRequest {
            kind: ExecKind::Eso { text: text.into() },
            opts: EvalOptions::default(),
            trace: false,
        }
    }

    /// A request for a Datalog program with default options.
    pub fn datalog(program: impl Into<String>, output: impl Into<String>) -> ExecRequest {
        ExecRequest {
            kind: ExecKind::Datalog {
                program: program.into(),
                output: output.into(),
            },
            opts: EvalOptions::default(),
            trace: false,
        }
    }

    /// Replaces the evaluation options (builder style).
    pub fn with_opts(mut self, opts: EvalOptions) -> ExecRequest {
        self.opts = opts;
        self
    }

    /// Enables or disables span tracing (builder style).
    pub fn with_trace(mut self, trace: bool) -> ExecRequest {
        self.trace = trace;
        self
    }

    /// The plan/result cache key: every semantic input (query text and
    /// the options that change the answer or the plan), nothing else —
    /// `threads`, `deadline` and `trace` affect only *how fast* and what
    /// gets measured, so they are deliberately excluded. Matches the
    /// keys the wire protocol has always produced.
    pub fn cache_key(&self) -> String {
        // `compile` only appears when it deviates from `Auto`, so keys
        // produced before the compiler existed stay byte-identical. It
        // picks no Datalog engine, so Datalog keys leave it out.
        let compile = match self.opts.compile {
            CompileMode::Auto => "",
            CompileMode::On => "compile=on|",
            CompileMode::Off => "compile=off|",
        };
        // Like `compile`, the backend only appears when forced, so
        // `auto` keys stay byte-identical to the pre-backend era.
        let backend = match self.opts.backend.forced() {
            Some(kind) => format!("backend={kind}|"),
            None => String::new(),
        };
        match &self.kind {
            ExecKind::Query { text } => format!(
                "eval|k={:?}|naive={}|min={}|{compile}{backend}{}",
                self.opts.k, self.opts.naive, self.opts.minimize, text
            ),
            ExecKind::Eso { text } => format!("eso|k={:?}|{}", self.opts.k, text),
            ExecKind::Datalog { program, output } => {
                format!(
                    "datalog|out={output}|naive={}|{backend}{program}",
                    self.opts.naive
                )
            }
        }
    }
}

/// Observed execution statistics shared across runs of one cached plan
/// — the cost model's calibration input. Interior-mutable so the plan
/// LRU's shared [`Prepared`] values accumulate feedback without
/// reinsertion; clones share the same cell.
#[derive(Clone, Debug, Default)]
pub struct FeedbackCell(Arc<Mutex<Option<CompileFeedback>>>);

impl FeedbackCell {
    /// The last recorded observation, if any run has completed.
    pub fn get(&self) -> Option<CompileFeedback> {
        *self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records an observation (newest wins).
    pub fn set(&self, fb: CompileFeedback) {
        *self.0.lock().unwrap_or_else(|e| e.into_inner()) = Some(fb);
    }
}

/// A prepared (parsed, classified, possibly width-minimized) FO/FP/PFP
/// query — one arm of [`Prepared`], the unit the server's plan cache
/// stores.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The parsed query (after optional minimization).
    pub query: Query,
    /// The query's language, as used for dispatch and stats.
    pub language: Language,
    /// The formula width (after minimization), including output vars.
    pub width: usize,
    /// The effective variable bound `k`.
    pub k: usize,
    /// A note when minimization reduced the width.
    pub minimized: Option<String>,
    /// Round counts observed by earlier executions of this plan, used
    /// to re-optimize the interpreted/compiled choice on later runs.
    pub feedback: FeedbackCell,
}

impl Plan {
    /// The display label for the plan's language row (`FO`, `FP`, …).
    pub fn language_label(&self) -> &'static str {
        match self.language {
            Language::Fo => "FO",
            Language::Fp => "FP",
            _ => "PFP/IFP",
        }
    }
}

/// A parsed ESO sentence/query plus its resolved bound and free
/// variables.
#[derive(Clone, Debug)]
pub struct EsoPlan {
    /// The parsed sentence/query.
    pub eso: Eso,
    /// The effective first-order variable bound `k`.
    pub k: usize,
    /// The body's first-order width.
    pub width: usize,
    /// Free individual variables (empty for a sentence).
    pub free: Vec<Var>,
}

/// A parsed Datalog program.
#[derive(Clone, Debug)]
pub struct DatalogPlan {
    /// The parsed program.
    pub program: Program,
}

/// A prepared request of any kind: what the server's plan cache stores
/// and [`execute_prepared`] dispatches on. Pure function of the
/// request's semantic fields — which is exactly why it can be cached
/// keyed by [`ExecRequest::cache_key`].
#[derive(Clone, Debug)]
pub enum Prepared {
    /// An FO/FP/PFP query plan.
    Query(Plan),
    /// An ESO plan.
    Eso(EsoPlan),
    /// A Datalog plan.
    Datalog(DatalogPlan),
}

impl Prepared {
    /// The language this plan will be dispatched to.
    pub fn language(&self) -> Language {
        match self {
            Prepared::Query(p) => p.language,
            Prepared::Eso(_) => Language::Eso,
            Prepared::Datalog(_) => Language::Datalog,
        }
    }

    /// The database relations this plan reads, sorted and deduplicated —
    /// the dependency set for delta-keyed result caching: a cached answer
    /// stays valid across mutations of every relation *not* in this list.
    /// Quantified ESO relations and Datalog IDB predicates are excluded
    /// (they are derived, not stored).
    pub fn referenced_relations(&self) -> Vec<String> {
        let mut names: Vec<String> = match self {
            Prepared::Query(p) => p
                .query
                .formula
                .db_relations()
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            Prepared::Eso(p) => p
                .eso
                .body
                .db_relations()
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
            Prepared::Datalog(p) => p
                .program
                .edb_predicates()
                .into_iter()
                .map(|(n, _)| n)
                .collect(),
        };
        names.sort();
        names.dedup();
        names
    }

    /// How a standing query over this plan would be maintained under
    /// mutations ([`bvq_core::incr`]'s fallback matrix): counting or DRed
    /// for Datalog, re-evaluate-and-diff for everything else, with the
    /// deciding construct as the reason.
    pub fn incr_plan(&self) -> bvq_core::IncrPlan {
        match self {
            Prepared::Query(p) => bvq_core::classify_formula(&p.query.formula),
            Prepared::Eso(_) => bvq_core::IncrPlan {
                strategy: bvq_core::Strategy::Rediff,
                reason: "second-order quantification has no delta semantics",
            },
            Prepared::Datalog(p) => bvq_core::classify_datalog(p.program.is_recursive()),
        }
    }
}

/// The shape of an answer, by query kind.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A sentence's truth value.
    Boolean(bool),
    /// Answer tuples of a query with output variables.
    Rows(Relation),
    /// A rendered textual report (ESO sentences/queries, which also
    /// report grounding sizes and witnesses).
    Text(String),
}

/// What [`execute_prepared`] returns: the answer plus everything the
/// front-ends render around it.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// The language that was dispatched.
    pub language: Language,
    /// The effective variable bound.
    pub k: usize,
    /// The query width.
    pub width: usize,
    /// Minimization note, when `--minimize` reduced the width.
    pub minimized: Option<String>,
    /// The answer.
    pub answer: Answer,
    /// Evaluation statistics.
    pub stats: EvalStats,
    /// The measured span tree, when the request set `trace`.
    pub trace: Option<Span>,
    /// The encoded certificate, when the request set
    /// [`EvalOptions::certificate`] and production succeeded. Always
    /// cross-checked against [`answer`](Self::answer) before being
    /// attached — a divergent claim is a producer bug and surfaces as
    /// [`RunError::NotCertifiable`] instead of a lying certificate.
    pub certificate: Option<String>,
}

/// Parses and classifies a query, applying `--minimize` and resolving
/// the effective `k`. Pure function of `(query text, options)` — which
/// is exactly why the server can cache its output keyed by those.
pub fn prepare(query: &str, opts: &EvalOptions) -> Result<Plan, RunError> {
    let mut q: Query = parse_query(query).map_err(|e| RunError::Parse(e.to_string()))?;
    let mut minimized = None;
    if opts.minimize {
        let slim = q.formula.minimize_width().ok_or_else(|| {
            RunError::InvalidOption("--minimize applies to first-order queries only".into())
        })?;
        if slim.width() < q.formula.width() {
            minimized = Some(format!(
                "minimized width {} → {}",
                q.formula.width(),
                slim.width()
            ));
        }
        q = Query::new(q.output, slim);
    }
    let width = q
        .formula
        .width()
        .max(q.output.iter().map(|v| v.index() + 1).max().unwrap_or(0))
        .max(1);
    let k = opts.k.unwrap_or(width);
    let language = if q.formula.is_first_order() {
        Language::Fo
    } else if q.formula.is_fp() {
        Language::Fp
    } else {
        Language::Pfp
    };
    if opts.naive && language != Language::Fo {
        return Err(RunError::InvalidOption(
            "--naive applies to first-order queries only".into(),
        ));
    }
    if opts.naive && opts.backend != BackendMode::Auto {
        return Err(RunError::InvalidOption(
            "--backend applies to the cylindrical evaluators; it cannot be combined with --naive"
                .into(),
        ));
    }
    Ok(Plan {
        query: q,
        language,
        width,
        k,
        minimized,
        feedback: FeedbackCell::default(),
    })
}

/// Parses and classifies a request of any kind into a cacheable
/// [`Prepared`] plan.
pub fn prepare_request(req: &ExecRequest) -> Result<Prepared, RunError> {
    match &req.kind {
        ExecKind::Query { text } => prepare(text, &req.opts).map(Prepared::Query),
        ExecKind::Eso { text } => {
            if req.opts.backend != BackendMode::Auto {
                return Err(RunError::InvalidOption(
                    "--backend applies to FO/FP/PFP and Datalog requests only".into(),
                ));
            }
            let eso = parse_eso(text).map_err(|e| RunError::Parse(e.to_string()))?;
            let width = eso.width().max(1);
            let k = req.opts.k.unwrap_or(width);
            let free = eso.body.free_vars();
            Ok(Prepared::Eso(EsoPlan {
                eso,
                k,
                width,
                free,
            }))
        }
        ExecKind::Datalog { program, .. } => {
            if req.opts.naive && req.opts.backend != BackendMode::Auto {
                return Err(RunError::InvalidOption(
                    "--backend applies to the cylindrical evaluators; it cannot be combined with --naive"
                        .into(),
                ));
            }
            let program = bvq_datalog::parse_program(program)?;
            Ok(Prepared::Datalog(DatalogPlan { program }))
        }
    }
}

/// Runs a request end to end: [`prepare_request`] then
/// [`execute_prepared`].
pub fn execute(db: &Database, req: &ExecRequest) -> Result<ExecOutcome, RunError> {
    let prepared = prepare_request(req)?;
    execute_prepared(db, &prepared, req)
}

/// Evaluates a prepared plan against a database — **the** dispatcher
/// every front-end funnels through: FO (bounded or naive), FP, PFP/IFP,
/// ESO and Datalog all branch here and nowhere else. When `req.trace`
/// is set, the outcome carries the evaluator's span tree.
pub fn execute_prepared(
    db: &Database,
    prepared: &Prepared,
    req: &ExecRequest,
) -> Result<ExecOutcome, RunError> {
    validate_schema(db, prepared)?;
    let cfg = req.opts.config().with_trace(req.trace);
    match prepared {
        Prepared::Query(plan) => execute_query(db, plan, req, &cfg),
        Prepared::Eso(plan) => {
            let mut outcome = execute_eso(db, plan, req)?;
            if req.opts.certificate {
                outcome.certificate = Some(eso_certificate(db, plan, &outcome)?);
            }
            Ok(outcome)
        }
        Prepared::Datalog(plan) => {
            let ExecKind::Datalog { output, .. } = &req.kind else {
                return Err(RunError::InvalidOption(
                    "a Datalog plan requires a Datalog request".into(),
                ));
            };
            if req.opts.backend != BackendMode::Auto {
                // The rule engine has its own tuple representation; a
                // forced backend routes through the FP translation so
                // the cylindrical evaluator honors the choice.
                let mut outcome = execute_datalog_backend(db, plan, req, output, &cfg)?;
                if req.opts.certificate {
                    let cert = bvq_core::certgen::certify_datalog(db, &plan.program, output)
                        .map_err(|e| RunError::NotCertifiable(e.to_string()))?;
                    outcome.certificate = Some(matching_claim(cert, &outcome.answer)?);
                }
                return Ok(outcome);
            }
            // Traced or not, the semi-naive loop serves the request, so
            // a span tree shows the engine that serves traffic; a
            // certified request takes its derivation tree from the same
            // run, through the loop's recording sink.
            let (out, recorder) = if req.opts.naive {
                (eval_naive_with(&plan.program, db, &cfg)?, None)
            } else if req.opts.certificate {
                let (out, recorder) = eval_recorded(&plan.program, db, &cfg)?;
                (out, Some(recorder))
            } else {
                (eval_seminaive_with(&plan.program, db, &cfg)?, None)
            };
            let rel = out
                .get(output)
                .ok_or_else(|| RunError::UnknownOutput(output.clone()))?
                .clone();
            let certificate = match (req.opts.certificate, recorder) {
                (false, _) => None,
                (true, Some(recorder)) => Some(recorded_derivation(&rel, recorder).encode()),
                (true, None) => {
                    let cert = bvq_core::certgen::certify_datalog(db, &plan.program, output)
                        .map_err(|e| RunError::NotCertifiable(e.to_string()))?;
                    Some(matching_claim(cert, &Answer::Rows(rel.clone()))?)
                }
            };
            let width = datalog_width(&plan.program);
            Ok(ExecOutcome {
                language: Language::Datalog,
                k: width,
                width,
                minimized: None,
                answer: Answer::Rows(rel),
                stats: out.stats,
                trace: out.trace,
                certificate,
            })
        }
    }
}

/// The FO/FP/PFP arm of [`execute_prepared`]. A certified request
/// records its iteration trace in the very run whose answer it serves —
/// bytecode or interpreter — so it is evaluated once. A query outside
/// the certifiable fragment still runs first, so evaluation errors take
/// precedence over the `not_certifiable` refusal.
fn execute_query(
    db: &Database,
    plan: &Plan,
    req: &ExecRequest,
    cfg: &EvalConfig,
) -> Result<ExecOutcome, RunError> {
    let q = &plan.query;
    let k = plan.k;
    let mut recorder = req
        .opts
        .certificate
        .then(|| TraceRecorder::for_query(db, q));
    // First-order queries have no fixpoint rounds, hence an empty trace:
    // the engines that only run FO need no recorder.
    let mut rec = recorder.as_mut().and_then(|r| r.as_mut().ok());
    let out: Evaluated = if req.opts.naive {
        NaiveEvaluator::new(db)
            .with_config(*cfg)
            .eval_query_traced(q)?
    } else if let Some(out) = try_compiled_query(db, plan, req, cfg, rec.as_deref_mut())? {
        out
    } else {
        let backend = req.opts.backend;
        let out = match plan.language {
            Language::Fo => BoundedEvaluator::new(db, k)
                .with_config(*cfg)
                .with_backend(backend)
                .eval_query_traced(q)?,
            Language::Fp => FpEvaluator::new(db, k)
                .with_config(*cfg)
                .with_backend(backend)
                .eval_query_recorded(q, rec)?,
            _ => PfpEvaluator::new(db, k)
                .with_config(*cfg)
                .with_backend(backend)
                .eval_query_recorded(q, rec)?,
        };
        // Interpreted runs calibrate the cost model too: the
        // observed round count feeds the next planning pass for
        // this cached plan.
        plan.feedback.set(feedback_from(&out.stats));
        out
    };
    let certificate = match recorder {
        None => None,
        Some(rec) => Some(
            rec.and_then(|rec| rec.certificate(q, &out.answer))
                .map_err(|e| RunError::NotCertifiable(e.to_string()))?
                .encode(),
        ),
    };
    let answer = if q.output.is_empty() {
        Answer::Boolean(out.answer.as_boolean())
    } else {
        Answer::Rows(out.answer)
    };
    Ok(ExecOutcome {
        language: plan.language,
        k: plan.k,
        width: plan.width,
        minimized: plan.minimized.clone(),
        answer,
        stats: out.stats,
        trace: out.trace,
        certificate,
    })
}

/// The compiled arm of the query dispatch: plans the query with the
/// cached feedback and runs the bytecode when the cost model (or a
/// forced `--compile on`) selects it. Returns `Ok(None)` when the
/// interpreted path should run instead — tracing requested, compilation
/// disabled, the cost model preferring the interpreter, or (under
/// `Auto`) the plan not lowering (e.g. ESO constructs).
fn try_compiled_query(
    db: &Database,
    plan: &Plan,
    req: &ExecRequest,
    cfg: &EvalConfig,
    rec: Option<&mut TraceRecorder>,
) -> Result<Option<Evaluated>, RunError> {
    // Forced backends interpret: the bytecode machine runs on the
    // backend `Auto` picks (`bvq_relation::choose`), so an explicit
    // `--backend` pins the interpreted dispatch instead.
    if req.trace || req.opts.compile == CompileMode::Off || req.opts.backend != BackendMode::Auto {
        return Ok(None);
    }
    let allow_pfp = matches!(plan.language, Language::Pfp);
    let feedback = plan.feedback.get();
    let qp = match plan_query(db, &plan.query, plan.k, allow_pfp, feedback.as_ref()) {
        Ok(qp) => qp,
        Err(e) if req.opts.compile == CompileMode::On => return Err(e.into()),
        Err(_) => return Ok(None),
    };
    if req.opts.compile != CompileMode::On && qp.choice() == PlanChoice::Interpreted {
        return Ok(None);
    }
    let out = qp.eval_compiled_recorded(db, cfg, rec)?;
    plan.feedback.set(feedback_from(&out.stats));
    Ok(Some(out))
}

/// The Datalog arm of a forced `--backend`: translates the program to
/// an FP least fixpoint ([`bvq_datalog::to_fp_formula_multi`]) and runs
/// the cylindrical fixpoint evaluator on the requested backend. The
/// translation is the same bridge the differential fuzz oracle crosses,
/// so answers match the rule engine's.
fn execute_datalog_backend(
    db: &Database,
    plan: &DatalogPlan,
    req: &ExecRequest,
    output: &str,
    cfg: &EvalConfig,
) -> Result<ExecOutcome, RunError> {
    let formula = bvq_datalog::to_fp_formula_multi(&plan.program, output).map_err(|e| match e {
        DatalogError::UnknownPredicate(p) => RunError::UnknownOutput(p),
        e => RunError::Datalog(e),
    })?;
    let arity = plan
        .program
        .idb_predicates()
        .iter()
        .find(|(p, _)| p == output)
        .map(|(_, a)| *a)
        .unwrap_or(0);
    let q = Query::new((0..arity as u32).map(Var).collect(), formula);
    let k = q.formula.width().max(arity).max(1);
    let out = FpEvaluator::new(db, k)
        .with_config(*cfg)
        .with_backend(req.opts.backend)
        .eval_query_traced(&q)?;
    let width = datalog_width(&plan.program);
    Ok(ExecOutcome {
        language: Language::Datalog,
        k: width,
        width,
        minimized: None,
        answer: Answer::Rows(out.answer),
        stats: out.stats,
        trace: out.trace,
        certificate: None,
    })
}

/// The witness certificate for an executed ESO request. The SAT model
/// it extracts comes from a second grounding, so its claim is
/// cross-checked against the answer the request computed.
fn eso_certificate(
    db: &Database,
    plan: &EsoPlan,
    outcome: &ExecOutcome,
) -> Result<String, RunError> {
    if !plan.free.is_empty() {
        return Err(RunError::NotCertifiable(
            "ESO queries with free variables have no witness certificate".into(),
        ));
    }
    let cert = bvq_core::certify_eso(db, &plan.eso, plan.k)
        .map_err(|e| RunError::NotCertifiable(e.to_string()))?;
    matching_claim(cert, &outcome.answer)
}

/// Encodes a certificate produced by a run other than the one that
/// computed `answer` — after checking that its claim is that answer. The
/// two come from independent runs, so a divergence means one of them is
/// wrong and no certificate is emitted.
fn matching_claim(cert: bvq_cert::Certificate, answer: &Answer) -> Result<String, RunError> {
    use bvq_cert::Claim;
    let claim_matches = match (&cert.claim, answer) {
        (Claim::Boolean(b), Answer::Boolean(a)) => a == b,
        (Claim::Rows { rows, .. }, Answer::Rows(rel)) => {
            rel.len() == rows.len() && rows.iter().all(|t| rel.contains(t))
        }
        // The ESO arm renders a textual report; a witness certificate
        // exists only for satisfiable sentences.
        (Claim::Boolean(true), Answer::Text(t)) => t.contains("sentence: true"),
        _ => false,
    };
    if !claim_matches {
        return Err(RunError::NotCertifiable(
            "certificate claim diverged from the engine's own answer".into(),
        ));
    }
    Ok(cert.encode())
}

/// Validates a certificate (e.g. one returned by an untrusted replica)
/// against a prepared request using the trusted [`bvq_cert`] checker,
/// with **zero reference to any evaluator**. `Ok` is the now-verified
/// answer, safe to serve and cache; `Err` carries the structured
/// rejection (`reject.code()` is the stable stats/wire token).
pub fn check_certificate(
    db: &Database,
    prepared: &Prepared,
    req: &ExecRequest,
    cert_text: &str,
) -> Result<Answer, bvq_cert::Reject> {
    let creq = match prepared {
        Prepared::Query(p) => bvq_cert::CheckRequest::Query(&p.query),
        Prepared::Datalog(p) => {
            let ExecKind::Datalog { output, .. } = &req.kind else {
                return Err(bvq_cert::Reject::Unsupported(
                    "a Datalog plan requires a Datalog request".into(),
                ));
            };
            bvq_cert::CheckRequest::Datalog {
                program: &p.program,
                output,
            }
        }
        Prepared::Eso(p) => bvq_cert::CheckRequest::Eso(&p.eso),
    };
    Ok(match bvq_cert::check_text(db, &creq, cert_text)? {
        bvq_cert::CheckedAnswer::Boolean(b) => Answer::Boolean(b),
        bvq_cert::CheckedAnswer::Rows(rel) => Answer::Rows(rel),
    })
}

/// `(k, width)` of a prepared plan, for rendering a payload built from
/// a checked certificate — no execution happened, so there is no
/// [`ExecOutcome`] to read the dimensions from. Datalog plans report
/// `(0, 0)`, matching what the wire omits for them anyway.
pub fn plan_dims(prepared: &Prepared) -> (usize, usize) {
    match prepared {
        Prepared::Query(p) => (p.k, p.width),
        Prepared::Eso(p) => (p.k, p.width),
        Prepared::Datalog(_) => (0, 0),
    }
}

/// The database's relation schema as `(name, arity)` pairs.
pub fn db_schema(db: &Database) -> Vec<(String, usize)> {
    db.schema()
        .iter()
        .map(|(_, name, arity)| (name.to_string(), arity))
        .collect()
}

/// Validates every database relation a plan references against the
/// database's schema, so unknown names and arity mismatches fail with a
/// structured [`RunError::Schema`] *before* evaluation instead of deep
/// inside (or silently past) an evaluator.
fn validate_schema(db: &Database, prepared: &Prepared) -> Result<(), RunError> {
    let schema = db.schema();
    let check = |name: &str, found: usize| -> Result<(), RunError> {
        match schema.resolve(name) {
            None => Err(RunError::Schema {
                name: name.to_string(),
                expected: None,
                found,
            }),
            Some(id) if schema.arity(id) != found => Err(RunError::Schema {
                name: name.to_string(),
                expected: Some(schema.arity(id)),
                found,
            }),
            Some(_) => Ok(()),
        }
    };
    match prepared {
        Prepared::Query(p) => {
            for (name, arity) in p.query.formula.db_relations() {
                check(&name, arity)?;
            }
        }
        Prepared::Eso(p) => {
            for (name, arity) in p.eso.body.db_relations() {
                check(&name, arity)?;
            }
        }
        Prepared::Datalog(p) => {
            let idb = p.program.idb_predicates();
            for r in &p.program.rules {
                for a in &r.body {
                    if idb.iter().any(|(n, _)| *n == a.pred) {
                        continue;
                    }
                    check(&a.pred, a.args.len())?;
                }
            }
        }
    }
    Ok(())
}

/// Lints a request with the database's schema and domain size filled in
/// — the static-analysis twin of [`execute_prepared`]: zero evaluation.
pub fn lint_with_db(
    db: &Database,
    req: &ExecRequest,
    budget: Option<u128>,
) -> bvq_lint::LintReport {
    let cfg = bvq_lint::LintConfig {
        budget,
        domain_size: Some(db.domain_size()),
        schema: Some(db_schema(db)),
    };
    lint_request(req, &cfg)
}

/// Lints a request against an explicit configuration (no database
/// required — pure text analysis).
pub fn lint_request(req: &ExecRequest, cfg: &bvq_lint::LintConfig) -> bvq_lint::LintReport {
    match &req.kind {
        ExecKind::Query { text } => bvq_lint::lint_query_text(text, cfg),
        ExecKind::Eso { text } => bvq_lint::lint_eso_text(text, cfg),
        ExecKind::Datalog { program, output } => {
            // An empty output means "the program's default" (the last
            // rule's head) — the CLI lints programs without naming one.
            let output = (!output.is_empty()).then_some(output.as_str());
            bvq_lint::lint_datalog_text(program, output, cfg)
        }
    }
}

/// The verdict of the `--max-width` admission gate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WidthAdmission {
    /// Width within budget (or the request does not parse — parse
    /// errors surface later with their own error code).
    Admit,
    /// Over budget as written, but the analyzer certified an equivalent
    /// rewrite that fits: `text` is the replacement query.
    Rewrite {
        /// The full replacement query text, `(outputs) formula`.
        text: String,
        /// The request's syntactic width.
        width: usize,
        /// The certified width of the rewrite.
        k_min: usize,
    },
    /// Over budget even with the best certified rewrite.
    Reject {
        /// The request's width.
        width: usize,
        /// The budget it exceeds.
        budget: usize,
    },
}

/// Applies a `--max-width` admission budget to a request.
///
/// FO/FP/PFP queries over budget are auto-rewritten when the hypergraph
/// analyzer emits a **certified** variable-minimizing rewrite fitting
/// the budget — the validator must have accepted the certificate; a
/// claimed `k_min` alone is never trusted. Otherwise they are rejected,
/// as are over-budget ESO and Datalog requests (no rewriter exists for
/// those fragments).
pub fn admit_width(req: &ExecRequest, budget: usize) -> WidthAdmission {
    let Ok(prepared) = prepare_request(req) else {
        return WidthAdmission::Admit;
    };
    let width = match &prepared {
        Prepared::Query(p) => p.width,
        Prepared::Eso(p) => p.width,
        Prepared::Datalog(p) => datalog_width(&p.program),
    };
    if width <= budget {
        return WidthAdmission::Admit;
    }
    if let Prepared::Query(p) = &prepared {
        let analysis = bvq_analysis::analyze_query(&p.query);
        if analysis.certified == Some(true) && analysis.k_min <= budget {
            let cert = analysis
                .certificate
                .expect("certified implies a certificate");
            let text = Query::new(p.query.output.clone(), cert.rewritten).to_string();
            return WidthAdmission::Rewrite {
                text,
                width,
                k_min: analysis.k_min,
            };
        }
    }
    WidthAdmission::Reject { width, budget }
}

/// Serializes a [`bvq_lint::LintReport`] for the wire protocol and the
/// CLI's `--json` mode. The `bound` is a string (it may exceed JSON's
/// exact integer range).
pub fn lint_json(report: &bvq_lint::LintReport) -> Json {
    let (errors, warnings, suggestions, infos) = report.counts();
    let mut fields = vec![
        ("language", Json::str(report.language.clone())),
        ("width", Json::num(report.width as u64)),
        ("data_complexity", Json::str(report.data_complexity.clone())),
        (
            "combined_complexity",
            Json::str(report.combined_complexity.clone()),
        ),
        (
            "expression_complexity",
            Json::str(report.expression_complexity.clone()),
        ),
        ("errors", Json::num(errors as u64)),
        ("warnings", Json::num(warnings as u64)),
        ("suggestions", Json::num(suggestions as u64)),
        ("infos", Json::num(infos as u64)),
    ];
    if let Some(k2) = report.min_width {
        fields.push(("min_width", Json::num(k2 as u64)));
    }
    if let Some(rw) = &report.rewritten {
        fields.push(("rewritten", Json::str(rw.clone())));
    }
    if let Some(b) = report.bound {
        fields.push(("bound", Json::str(b.to_string())));
    }
    if let Some(acyclic) = report.acyclic {
        fields.push(("acyclic", Json::Bool(acyclic)));
    }
    if let Some(certified) = report.certified {
        fields.push(("certified", Json::Bool(certified)));
    }
    let diags: Vec<Json> = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut obj = vec![
                ("code", Json::str(d.code)),
                ("severity", Json::str(d.severity.label())),
                ("message", Json::str(d.message.clone())),
            ];
            if let Some(span) = d.span {
                obj.push((
                    "span",
                    Json::obj([
                        ("start", Json::num(span.start as u64)),
                        ("end", Json::num(span.end as u64)),
                    ]),
                ));
            }
            if let Some(help) = &d.help {
                obj.push(("help", Json::str(help.clone())));
            }
            Json::obj(obj)
        })
        .collect();
    fields.push(("diagnostics", Json::Arr(diags)));
    Json::obj(fields)
}

/// The maximum head arity of a program — the Datalog analogue of width.
fn datalog_width(program: &Program) -> usize {
    program
        .rules
        .iter()
        .map(|r| r.head.vars.len())
        .max()
        .unwrap_or(0)
}

/// The ESO arm of [`execute_prepared`]: sentences go through the
/// grounding checker (with witness extraction on satisfiable
/// sentences), queries through per-tuple checks. Both render the same
/// textual report `run_eso` has always produced.
fn execute_eso(db: &Database, plan: &EsoPlan, req: &ExecRequest) -> Result<ExecOutcome, RunError> {
    let cfg = req.opts.config().with_trace(req.trace);
    let ev = EsoEvaluator::new(db, plan.k).with_config(cfg);
    let k = plan.k;
    let mut text = String::new();
    let (stats, trace) = if plan.free.is_empty() {
        let mut tracer = Tracer::new(req.trace);
        if tracer.is_enabled() {
            tracer.open();
        }
        let (sat, info) = ev.check_traced(&plan.eso, &[], &[], &mut tracer)?;
        if tracer.is_enabled() {
            tracer.close(
                "eso",
                truncate_detail(&plan.eso.to_string(), 64),
                0,
                sat as usize,
                None,
            );
        }
        text.push_str(&format!(
            "ESO^{k} sentence: {sat}\ngrounding: {} vars, {} clauses, {} quantified tuples\n",
            info.sat_vars, info.clauses, info.referenced_tuples
        ));
        if sat {
            if let Some(env) = ev.check_with_witness(&plan.eso, &[], &[])? {
                for (name, rel) in env.iter() {
                    text.push_str(&format!("witness {name} = {:?}\n", rel.sorted()));
                }
            }
        }
        let mut stats = EvalStats::new();
        stats.record_intermediate(k, info.referenced_tuples);
        (stats, tracer.finish())
    } else {
        let out = ev.eval_query_traced(&plan.eso, &plan.free)?;
        text.push_str(&format!(
            "ESO^{k} answers over {:?}: {:?}\n",
            plan.free,
            out.answer.sorted()
        ));
        (out.stats, out.trace)
    };
    Ok(ExecOutcome {
        language: Language::Eso,
        k,
        width: plan.width,
        minimized: None,
        answer: Answer::Text(text),
        stats,
        trace,
        certificate: None,
    })
}

/// Runs a request and renders the full CLI/REPL report: language line,
/// answer, stats, certifications, and (when `req.trace` is set) the
/// rendered span tree.
pub fn run_request(db: &Database, req: &ExecRequest) -> Result<String, RunError> {
    let prepared = prepare_request(req)?;
    let outcome = execute_prepared(db, &prepared, req)?;
    let mut out = String::new();
    if let Prepared::Query(plan) = &prepared {
        out.push_str(&format!(
            "language: {}^{} (width {})\n",
            plan.language_label(),
            plan.k,
            plan.width
        ));
        if let Some(note) = &plan.minimized {
            out.push_str(note);
            out.push('\n');
        }
    }
    render_answer(&mut out, &outcome.answer);
    if matches!(prepared, Prepared::Query(_) | Prepared::Datalog(_)) {
        out.push_str(&format!("stats: {}\n", outcome.stats));
    }
    if let Prepared::Query(plan) = &prepared {
        for t in &req.opts.certify {
            let q = &plan.query;
            if !q.formula.is_fp() || q.formula.is_first_order() {
                return Err(RunError::InvalidOption(
                    "--certify applies to FP (lfp/gfp) queries only".into(),
                ));
            }
            let checker = CertifiedChecker::new(db, plan.k);
            let (member, size, vstats) = checker.decide(q, t)?;
            out.push_str(&format!(
                "certify {t:?}: member = {member} ({} certificate tuples, {} verify applications)\n",
                size, vstats.fixpoint_iterations
            ));
        }
    }
    if let Some(trace) = &outcome.trace {
        out.push_str("trace:\n");
        out.push_str(&trace.render());
    }
    Ok(out)
}

/// Evaluates a query string against the database, returning the rendered
/// report (also used by the REPL and `bvq eval`).
pub fn run_eval(db: &Database, query: &str, opts: &EvalOptions) -> Result<String, RunError> {
    run_request(
        db,
        &ExecRequest {
            kind: ExecKind::Query {
                text: query.to_string(),
            },
            opts: opts.clone(),
            trace: false,
        },
    )
}

/// Evaluates an ESO sentence/query string.
pub fn run_eso(db: &Database, query: &str, k: Option<usize>) -> Result<String, RunError> {
    run_request(
        db,
        &ExecRequest {
            kind: ExecKind::Eso {
                text: query.to_string(),
            },
            opts: EvalOptions {
                k,
                ..Default::default()
            },
            trace: false,
        },
    )
}

fn render_answer(out: &mut String, answer: &Answer) {
    match answer {
        Answer::Boolean(b) => out.push_str(&format!("answer: {b}\n")),
        Answer::Rows(rel) => {
            let rows = rel.sorted();
            out.push_str(&format!("answer: {} tuples\n", rows.len()));
            for t in rows.iter().take(50) {
                out.push_str(&format!("  {t}\n"));
            }
            if rows.len() > 50 {
                out.push_str(&format!("  … and {} more\n", rows.len() - 50));
            }
        }
        Answer::Text(t) => out.push_str(t),
    }
}

/// What `explain` reports about a request: the width analysis, backend
/// choice, the `n^k` intermediate-size bound of Proposition 3.1, the
/// cache key, and a plan tree — static (estimated rows, zero timings)
/// or measured (`analyze`).
#[derive(Clone, Debug)]
pub struct ExplainReport {
    /// The language the request dispatches to.
    pub language: Language,
    /// Display label, e.g. `FO^2` or `DATALOG`.
    pub label: String,
    /// The effective variable bound.
    pub k: usize,
    /// The query width.
    pub width: usize,
    /// The evaluation backend: `dense`/`bdd` cylindrical
    /// (chosen or forced — see [`bvq_relation::backend::choose`]),
    /// `naive`, `sat-grounding`, or `seminaive`.
    pub backend: &'static str,
    /// The `n^k` intermediate-size bound, rendered.
    pub bound: String,
    /// The plan/result cache key for this request.
    pub cache_key: String,
    /// The execution engine a (non-traced) run of this request would
    /// use: `interpreted`, `compiled (basic|optimized)` or `naive`;
    /// `seminaive` or `naive` for Datalog.
    pub engine: String,
    /// The cost model's report lines (queries only; empty otherwise).
    pub cost: Vec<String>,
    /// The bytecode listing of the compiled candidate, when the request
    /// lowers (queries only).
    pub bytecode: Option<String>,
    /// Minimization note, when `--minimize` reduced the width.
    pub minimized: Option<String>,
    /// How a standing query over this plan would be maintained under
    /// mutations: `counting`/`dred`/`rediff` plus the deciding construct
    /// (the IVM fallback matrix, [`bvq_core::incr`]).
    pub maintenance: String,
    /// The hypergraph analyzer's verdict lines (queries only; empty
    /// otherwise): syntactic width vs certified minimum width, whether
    /// the conjunctive core is α-acyclic, and the elimination order.
    pub analysis: Vec<String>,
    /// The plan tree: static shape for `explain`, the measured span
    /// tree for `explain analyze`.
    pub plan: Span,
    /// Measured statistics, present only under `analyze`.
    pub analyzed: Option<EvalStats>,
    /// The static-analysis report for the same request: fragment
    /// classification (Tables 1–3) and lint diagnostics, inlined so
    /// `explain` surfaces problems before anyone runs the query.
    pub lint: bvq_lint::LintReport,
}

/// Explains a request without (or, with `analyze`, after) running it.
///
/// The static plan mirrors what the trace of an actual run looks like:
/// one node per operator, `rows` filled with the `n^arity` bound that
/// Proposition 3.1 guarantees per subformula, timings zero. Under
/// `analyze` the request is executed with tracing forced on and the
/// measured tree replaces the estimate.
pub fn explain(db: &Database, req: &ExecRequest, analyze: bool) -> Result<ExplainReport, RunError> {
    let prepared = prepare_request(req)?;
    explain_prepared(db, &prepared, req, analyze)
}

/// [`explain`] over an already-prepared plan — what the server calls so
/// explain shares the plan cache with the op it explains.
pub fn explain_prepared(
    db: &Database,
    prepared: &Prepared,
    req: &ExecRequest,
    analyze: bool,
) -> Result<ExplainReport, RunError> {
    let n = db.domain_size();
    let (label, k, width, minimized, backend, plan) = match prepared {
        Prepared::Query(p) => {
            let backend = if req.opts.naive {
                "naive"
            } else {
                // The same choice every engine makes: a forced mode
                // wins, otherwise dense if `n^k` fits, else the BDD.
                choose(&CylCtx::new(n.max(1), p.k), req.opts.backend).label()
            };
            (
                format!("{}^{}", p.language_label(), p.k),
                p.k,
                p.width,
                p.minimized.clone(),
                backend,
                formula_plan(&p.query.formula, n),
            )
        }
        Prepared::Eso(p) => (
            format!("ESO^{}", p.k),
            p.k,
            p.width,
            None,
            "sat-grounding",
            eso_plan(p, n),
        ),
        Prepared::Datalog(p) => {
            let backend = if req.opts.naive {
                "naive"
            } else if let Some(forced) = req.opts.backend.forced() {
                forced.label()
            } else {
                "seminaive"
            };
            let w = datalog_width(&p.program);
            (
                "DATALOG".to_string(),
                w,
                w,
                None,
                backend,
                datalog_plan(&p.program, n),
            )
        }
    };
    let bound = bound_string(n, k);
    let analysis = match prepared {
        Prepared::Query(p) => bvq_analysis::analyze_query(&p.query).verdict_lines(),
        _ => Vec::new(),
    };
    let (engine, cost, bytecode) = explain_engine(db, prepared, req);
    let (plan, analyzed) = if analyze {
        let mut traced = req.clone();
        traced.trace = true;
        let outcome = execute_prepared(db, prepared, &traced)?;
        (outcome.trace.unwrap_or(plan), Some(outcome.stats))
    } else {
        (plan, None)
    };
    Ok(ExplainReport {
        language: prepared.language(),
        label,
        k,
        width,
        backend,
        bound,
        cache_key: req.cache_key(),
        engine,
        cost,
        bytecode,
        minimized,
        analysis,
        maintenance: {
            let ip = prepared.incr_plan();
            format!("{} — {}", ip.strategy.label(), ip.reason)
        },
        plan,
        analyzed,
        lint: lint_with_db(db, req, None),
    })
}

/// The engine rows of an [`ExplainReport`]: what a non-traced run of
/// this request would execute on, with the cost model's numbers and the
/// bytecode listing when the request lowers.
fn explain_engine(
    db: &Database,
    prepared: &Prepared,
    req: &ExecRequest,
) -> (String, Vec<String>, Option<String>) {
    let interpreted = (String::from("interpreted"), Vec::new(), None);
    match prepared {
        Prepared::Query(_) | Prepared::Datalog(_) if req.opts.naive => {
            (String::from("naive"), Vec::new(), None)
        }
        Prepared::Query(_) | Prepared::Datalog(_) if req.opts.backend.forced().is_some() => {
            // Forced backends pin the interpreted dispatch (see
            // `try_compiled_query`); Datalog routes via the FP
            // translation.
            interpreted
        }
        Prepared::Query(p) if req.opts.compile != CompileMode::Off => {
            let allow_pfp = matches!(p.language, Language::Pfp);
            match plan_query(db, &p.query, p.k, allow_pfp, p.feedback.get().as_ref()) {
                Ok(qp) => {
                    let choice = if req.opts.compile == CompileMode::On {
                        PlanChoice::Compiled(qp.compiled_variant())
                    } else {
                        qp.choice()
                    };
                    (choice.label(), qp.cost().render_lines(), Some(qp.listing()))
                }
                Err(_) => interpreted,
            }
        }
        Prepared::Datalog(_) if !req.opts.naive => (String::from("seminaive"), Vec::new(), None),
        _ => interpreted,
    }
}

/// Renders an [`ExplainReport`] for the CLI / REPL.
pub fn run_explain(db: &Database, req: &ExecRequest, analyze: bool) -> Result<String, RunError> {
    let report = explain(db, req, analyze)?;
    let mut out = String::new();
    out.push_str(&format!(
        "language: {} (width {})\n",
        report.label, report.width
    ));
    if let Some(note) = &report.minimized {
        out.push_str(note);
        out.push('\n');
    }
    out.push_str(&format!("backend: {}\n", report.backend));
    out.push_str(&format!("engine: {}\n", report.engine));
    for line in &report.cost {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("bound: {}\n", report.bound));
    for line in &report.analysis {
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(&format!("cache key: {}\n", report.cache_key));
    out.push_str(&format!("maintenance: {}\n", report.maintenance));
    out.push_str(&format!(
        "complexity: data {} [Table 1], combined {} [Table 2]\n",
        report.lint.data_complexity, report.lint.combined_complexity
    ));
    for d in &report.lint.diagnostics {
        out.push_str(&format!("{d}\n"));
    }
    if let Some(stats) = &report.analyzed {
        out.push_str(&format!("measured: {stats}\n"));
    }
    out.push_str(if report.analyzed.is_some() {
        "plan (measured):\n"
    } else {
        "plan (estimated rows):\n"
    });
    out.push_str(&report.plan.render());
    if let Some(bc) = &report.bytecode {
        out.push_str(bc);
    }
    Ok(out)
}

/// The rendered `n^k` bound, e.g. `n^2 = 4^2 = 16`.
fn bound_string(n: usize, k: usize) -> String {
    match (n as u128).checked_pow(k as u32) {
        Some(v) => format!("n^{k} = {n}^{k} = {v}"),
        None => format!("n^{k} = {n}^{k} (overflows)"),
    }
}

/// `n^arity`, saturating — the static row estimate for a plan node.
fn est_rows(n: usize, arity: usize) -> usize {
    (n as u128)
        .checked_pow(arity as u32)
        .map_or(usize::MAX, |v| v.min(usize::MAX as u128) as usize)
}

/// The static plan tree of a formula: node kinds match what the traced
/// evaluators emit, so `explain` and `explain analyze` trees line up.
fn formula_plan(f: &Formula, n: usize) -> Span {
    let kind = match f {
        Formula::Const(_) => "const",
        Formula::Atom(_) => "atom",
        Formula::Eq(..) => "eq",
        Formula::Not(_) => "not",
        Formula::And(..) => "and",
        Formula::Or(..) => "or",
        Formula::Exists(..) => "exists",
        Formula::Forall(..) => "forall",
        Formula::Fix { kind, .. } => match kind {
            FixKind::Lfp => "lfp",
            FixKind::Gfp => "gfp",
            FixKind::Pfp => "pfp",
            FixKind::Ifp => "ifp",
        },
    };
    let arity = f.free_vars().len();
    let mut span = Span::leaf(
        kind,
        truncate_detail(&f.to_string(), 64),
        arity,
        est_rows(n, arity),
    );
    span.children = match f {
        Formula::Not(g) | Formula::Exists(_, g) | Formula::Forall(_, g) => {
            vec![formula_plan(g, n)]
        }
        Formula::And(a, b) | Formula::Or(a, b) => vec![formula_plan(a, n), formula_plan(b, n)],
        Formula::Fix { body, .. } => vec![formula_plan(body, n)],
        _ => Vec::new(),
    };
    span
}

/// The static plan of an ESO request: ground then solve.
fn eso_plan(p: &EsoPlan, n: usize) -> Span {
    let mut root = Span::leaf(
        "eso",
        truncate_detail(&p.eso.to_string(), 64),
        p.free.len(),
        est_rows(n, p.free.len()),
    );
    root.children = vec![
        Span::leaf(
            "ground",
            format!("assignment space ≤ n^{}", p.k),
            p.k,
            est_rows(n, p.k),
        ),
        Span::leaf("solve", "cdcl", 0, 0),
    ];
    root
}

/// The static plan of a Datalog program: one node per rule.
fn datalog_plan(program: &Program, n: usize) -> Span {
    let arity = datalog_width(program);
    let mut root = Span::leaf(
        "datalog",
        format!("{} rules", program.rules.len()),
        arity,
        est_rows(n, arity),
    );
    root.children = program
        .rules
        .iter()
        .map(|r| {
            let a = r.head.vars.len();
            Span::leaf(
                "rule",
                truncate_detail(&r.to_string(), 64),
                a,
                est_rows(n, a),
            )
        })
        .collect();
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_relation::parse_database;

    fn db() -> Database {
        parse_database("domain 4\nrel E/2\n0 1\n1 2\n2 3\nend\nrel P/1\n2\nend").unwrap()
    }

    #[test]
    fn prepare_classifies_languages() {
        let fo = prepare("(x1) P(x1)", &EvalOptions::default()).unwrap();
        assert_eq!(fo.language, Language::Fo);
        let fp = prepare("(x1) [lfp S(x1). S(x1)](x1)", &EvalOptions::default()).unwrap();
        assert_eq!(fp.language, Language::Fp);
        let pfp = prepare("(x1) [pfp S(x1). ~S(x1)](x1)", &EvalOptions::default()).unwrap();
        assert_eq!(pfp.language, Language::Pfp);
    }

    #[test]
    fn error_codes_by_kind() {
        let parse = run_eval(&db(), "(x1) E(x1", &EvalOptions::default()).unwrap_err();
        assert_eq!(parse.code(), "parse_error");
        let opts = EvalOptions {
            naive: true,
            ..Default::default()
        };
        let invalid = run_eval(&db(), "(x1) [lfp S(x1). S(x1)](x1)", &opts).unwrap_err();
        assert_eq!(invalid.code(), "invalid_option");
        let unknown = run_eval(&db(), "(x1) Zap(x1)", &EvalOptions::default()).unwrap_err();
        assert_eq!(unknown.code(), "schema_error");
        let opts = EvalOptions {
            deadline: Some(Instant::now()),
            ..Default::default()
        };
        let deadline = run_eval(
            &db(),
            "(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)",
            &opts,
        )
        .unwrap_err();
        assert_eq!(deadline.code(), "deadline_exceeded");
        assert_eq!(deadline, RunError::Eval(EvalError::DeadlineExceeded));
    }

    #[test]
    fn run_eval_renders_like_before() {
        let out = run_eval(
            &db(),
            "(x1) exists x2. (E(x1,x2) & P(x2))",
            &EvalOptions::default(),
        )
        .unwrap();
        assert!(out.contains("language: FO^2"));
        assert!(out.contains("answer: 1 tuples"));
        assert!(out.contains("⟨1⟩"));
    }

    #[test]
    fn execute_dispatches_every_kind() {
        let db = db();
        // FO query → rows.
        let q = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        let out = execute(&db, &q).unwrap();
        assert_eq!(out.language, Language::Fo);
        let Answer::Rows(rows) = &out.answer else {
            panic!("expected rows")
        };
        assert!(rows.contains(&[1]));
        assert!(out.trace.is_none(), "trace off by default");
        // Sentence → boolean.
        let s = ExecRequest::query("() exists x1. P(x1)");
        let out = execute(&db, &s).unwrap();
        assert_eq!(out.answer, Answer::Boolean(true));
        // ESO sentence → text.
        let e = ExecRequest::eso("exists2 S/1. forall x1. (S(x1) -> P(x1))");
        let out = execute(&db, &e).unwrap();
        assert_eq!(out.language, Language::Eso);
        let Answer::Text(t) = &out.answer else {
            panic!("expected text")
        };
        assert!(t.contains("sentence: true"), "got: {t}");
        // Datalog → rows.
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let out = execute(&db, &d).unwrap();
        assert_eq!(out.language, Language::Datalog);
        let Answer::Rows(rows) = &out.answer else {
            panic!("expected rows")
        };
        assert_eq!(rows.len(), 6); // transitive closure of a 4-path
    }

    #[test]
    fn schema_mismatches_fail_structured_before_evaluation() {
        let db = db();
        // Unknown relation in an FO query.
        let err = execute(&db, &ExecRequest::query("(x1) Zap(x1)")).unwrap_err();
        assert_eq!(
            err,
            RunError::Schema {
                name: "Zap".into(),
                expected: None,
                found: 1
            }
        );
        assert_eq!(err.code(), "schema_error");
        assert!(err.to_string().contains("unknown relation `Zap`"));
        // Wrong arity in an FO query.
        let err = execute(&db, &ExecRequest::query("(x1) E(x1)")).unwrap_err();
        assert_eq!(
            err,
            RunError::Schema {
                name: "E".into(),
                expected: Some(2),
                found: 1
            }
        );
        assert!(err.to_string().contains("arity 2"), "{err}");
        // ESO bodies are checked too (quantified relations are exempt).
        let err = execute(&db, &ExecRequest::eso("exists2 S/1. (S(x1) & Zap(x1))")).unwrap_err();
        assert_eq!(err.code(), "schema_error");
        assert!(execute(&db, &ExecRequest::eso("exists2 S/1. (S(x1) & P(x1))")).is_ok());
        // Datalog EDB predicates are checked; IDB predicates are exempt.
        let err = execute(&db, &ExecRequest::datalog("T(x) :- E(x,x), Zap(x).", "T")).unwrap_err();
        assert_eq!(err.code(), "schema_error");
        let err = execute(&db, &ExecRequest::datalog("T(x,y) :- E(x,y,y).", "T")).unwrap_err();
        assert_eq!(err.code(), "schema_error");
        assert!(execute(&db, &ExecRequest::datalog("T(x,y) :- E(x,y).", "T")).is_ok());
    }

    #[test]
    fn lint_with_db_reports_without_evaluating() {
        let db = db();
        let r = lint_with_db(&db, &ExecRequest::query("(x1) ~P(x1)"), None);
        assert!(r.has_errors());
        assert!(r.diagnostics.iter().any(|d| d.code == "BVQ-E001"));
        // The database schema feeds the relation checks.
        let r = lint_with_db(&db, &ExecRequest::query("(x1) Zap(x1)"), None);
        assert!(r.diagnostics.iter().any(|d| d.code == "BVQ-E008"), "{r:?}");
        // And the domain size feeds the n^k budget.
        let r = lint_with_db(
            &db,
            &ExecRequest::query("(x1) exists x2. exists x3. (E(x1,x2) & E(x2,x3) & E(x3,x1))"),
            Some(10),
        );
        assert_eq!(r.bound, Some(64));
        assert!(r.diagnostics.iter().any(|d| d.code == "BVQ-W106"), "{r:?}");
        // JSON shape.
        let j = lint_json(&r);
        assert!(j.get("diagnostics").is_some());
        assert_eq!(j.get("bound").and_then(Json::as_str), Some("64"));
        let s = j.to_string_compact();
        assert!(s.contains("BVQ-W106"), "{s}");
    }

    #[test]
    fn explain_inlines_lint_diagnostics() {
        let db = db();
        let req = ExecRequest::query("(x1) (P(x1) & exists x2. P(x1))");
        let report = explain(&db, &req, false).unwrap();
        assert!(report.lint.diagnostics.iter().any(|d| d.code == "BVQ-W103"));
        let rendered = run_explain(&db, &req, false).unwrap();
        assert!(rendered.contains("complexity: data"), "{rendered}");
        assert!(rendered.contains("warning[BVQ-W103]"), "{rendered}");
    }

    #[test]
    fn unknown_datalog_output_is_a_typed_error() {
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).", "Zap");
        let err = execute(&db(), &d).unwrap_err();
        assert_eq!(err, RunError::UnknownOutput("Zap".into()));
        assert_eq!(err.code(), "eval_error");
        assert!(err.to_string().contains("`Zap`"));
    }

    #[test]
    fn traced_datalog_runs_the_served_engine() {
        let db = db();
        let plain = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let mut traced = plain.clone();
        traced.trace = true;
        let a = execute(&db, &plain).unwrap();
        let b = execute(&db, &traced).unwrap();
        assert!(a.trace.is_none());
        assert_eq!(b.trace.expect("trace requested").detail, "seminaive");
        let (Answer::Rows(ra), Answer::Rows(rb)) = (&a.answer, &b.answer) else {
            panic!("expected rows")
        };
        assert_eq!(ra.sorted(), rb.sorted());
        assert_eq!(a.stats, b.stats);
        assert!(a.stats.fixpoint_iterations > 1 && a.stats.total_tuples > 0);
    }

    #[test]
    fn traced_execute_returns_span_tree() {
        let db = db();
        let mut req = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        req.trace = true;
        let out = execute(&db, &req).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.kind, "exists");
        assert!(trace.total_spans() >= 4);
        // Datalog traces carry round spans.
        let mut d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        d.trace = true;
        let out = execute(&db, &d).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.kind, "datalog");
        assert!(trace.children.iter().all(|c| c.kind == "round"));
        // ESO sentence traces carry ground/solve phases.
        let mut e = ExecRequest::eso("exists2 S/1. forall x1. (S(x1) -> P(x1))");
        e.trace = true;
        let out = execute(&db, &e).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.kind, "eso");
        let kinds: Vec<&str> = trace.children.iter().map(|c| c.kind).collect();
        assert_eq!(kinds, ["ground", "solve"]);
        // ESO queries trace one check per candidate tuple.
        let mut e = ExecRequest::eso("exists2 S/1. (S(x1) & forall x2. (S(x2) -> P(x2)))");
        e.trace = true;
        let out = execute(&db, &e).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.kind, "eso");
        assert!(trace.children.iter().all(|c| c.kind == "check"));
    }

    #[test]
    fn cache_key_covers_semantic_fields_only() {
        let mut a = ExecRequest::query("(x1) P(x1)");
        let mut b = a.clone();
        b.trace = true;
        b.opts.threads = Some(4);
        assert_eq!(a.cache_key(), b.cache_key());
        a.opts.naive = true;
        assert_ne!(a.cache_key(), b.cache_key());
        assert!(a.cache_key().starts_with("eval|"));
        assert!(ExecRequest::eso("exists2 S/1. S(x1)")
            .cache_key()
            .starts_with("eso|"));
        let d = ExecRequest::datalog("T(x) :- P(x).", "T");
        assert!(d.cache_key().starts_with("datalog|out=T|"));
        // The compile mode picks no Datalog engine, so it stays out of
        // Datalog keys.
        let mut forced = d.clone();
        forced.opts.compile = CompileMode::On;
        assert_eq!(d.cache_key(), forced.cache_key());
        forced.opts.compile = CompileMode::Off;
        assert_eq!(d.cache_key(), forced.cache_key());
    }

    #[test]
    fn explain_reports_plan_without_running() {
        let db = db();
        let req = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        let report = explain(&db, &req, false).unwrap();
        assert_eq!(report.label, "FO^2");
        assert_eq!(report.backend, "dense");
        assert_eq!(report.bound, "n^2 = 4^2 = 16");
        assert!(report.cache_key.starts_with("eval|"));
        assert!(report.analyzed.is_none());
        // Static plan mirrors the formula: exists → and → atoms.
        assert_eq!(report.plan.kind, "exists");
        assert_eq!(report.plan.children[0].kind, "and");
        assert_eq!(report.plan.children[0].children.len(), 2);
        // Estimated rows are the n^arity bound; no timings.
        assert_eq!(report.plan.rows, 4);
        assert_eq!(report.plan.elapsed_ns, 0);
        let rendered = run_explain(&db, &req, false).unwrap();
        assert!(rendered.contains("backend: dense"));
        assert!(rendered.contains("plan (estimated rows):"));
    }

    #[test]
    fn explain_analyze_measures_the_plan() {
        let db = db();
        let req = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        let report = explain(&db, &req, true).unwrap();
        let stats = report.analyzed.expect("analyze ran the query");
        assert!(stats.operator_applications > 0);
        // Measured spans replace the static estimate: the root reports
        // real (cylindrical) cardinalities and nonzero wall time.
        assert_eq!(report.plan.kind, "exists");
        assert!(report.plan.rows <= 4, "measured, not the n^2 bound");
        assert!(report.plan.elapsed_ns > 0);
        let rendered = run_explain(&db, &req, true).unwrap();
        assert!(rendered.contains("plan (measured):"));
        assert!(rendered.contains("measured: "));
    }

    #[test]
    fn compile_modes_agree_and_key_cache_only_when_forced() {
        let db = db();
        let text = "(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)";
        let auto = ExecRequest::query(text);
        let mut on = auto.clone();
        on.opts.compile = CompileMode::On;
        let mut off = auto.clone();
        off.opts.compile = CompileMode::Off;
        let rows = |req: &ExecRequest| -> Vec<_> {
            let Answer::Rows(r) = execute(&db, req).unwrap().answer else {
                panic!("expected rows")
            };
            r.sorted()
        };
        assert_eq!(rows(&on), rows(&off));
        assert_eq!(rows(&auto), rows(&off));
        // `Auto` keeps the historical key; forcing a mode changes it.
        assert_eq!(auto.cache_key(), ExecRequest::query(text).cache_key());
        assert!(!auto.cache_key().contains("compile="));
        assert!(on.cache_key().contains("compile=on|"));
        assert!(off.cache_key().contains("compile=off|"));
        assert_ne!(on.cache_key(), off.cache_key());
        // The compile mode does not change a Datalog answer.
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let mut d_off = d.clone();
        d_off.opts.compile = CompileMode::Off;
        assert_eq!(rows(&d), rows(&d_off));
    }

    #[test]
    fn execution_records_feedback_on_cached_plans() {
        let db = db();
        let req =
            ExecRequest::query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)");
        let prepared = prepare_request(&req).unwrap();
        let Prepared::Query(plan) = &prepared else {
            panic!("expected a query plan")
        };
        assert!(plan.feedback.get().is_none());
        execute_prepared(&db, &prepared, &req).unwrap();
        let fb = plan.feedback.get().expect("execution recorded feedback");
        assert!(fb.fixpoint_iterations > 0);
        // Clones share the cell — the plan-LRU's Arc'd values observe it.
        let clone = plan.clone();
        assert_eq!(clone.feedback.get(), Some(fb));
    }

    #[test]
    fn compiled_dispatch_honors_trace_and_deadline() {
        let db = db();
        // Traced requests always interpret, so span trees keep their
        // pinned shape even when the cost model would compile.
        let mut req =
            ExecRequest::query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)");
        req.opts.compile = CompileMode::On;
        req.trace = true;
        let out = execute(&db, &req).unwrap();
        assert!(out.trace.is_some());
        // A compiled run under an expired deadline aborts cleanly.
        let mut req =
            ExecRequest::query("(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)");
        req.opts.compile = CompileMode::On;
        req.opts.deadline = Some(Instant::now());
        let err = execute(&db, &req).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded");
    }

    #[test]
    fn explain_reports_engine_cost_and_bytecode() {
        let db = db();
        let req = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        let report = explain(&db, &req, false).unwrap();
        assert!(
            report.engine == "interpreted" || report.engine.starts_with("compiled"),
            "{}",
            report.engine
        );
        assert!(report.cost.iter().any(|l| l.starts_with("cost:")));
        let bc = report.bytecode.as_deref().expect("query lowers");
        assert!(bc.starts_with(";; bytecode"), "{bc}");
        let rendered = run_explain(&db, &req, false).unwrap();
        assert!(rendered.contains("engine: "), "{rendered}");
        assert!(rendered.contains("cost: "), "{rendered}");
        assert!(rendered.contains(";; bytecode"), "{rendered}");
        // Forcing compilation flips the engine row.
        let mut forced = req.clone();
        forced.opts.compile = CompileMode::On;
        let report = explain(&db, &forced, false).unwrap();
        assert!(report.engine.starts_with("compiled ("), "{}", report.engine);
        // Datalog and naive requests label their engines too; the
        // compile mode picks no Datalog engine.
        let mut d = ExecRequest::datalog("T(x,y) :- E(x,y).", "T");
        for mode in [CompileMode::Auto, CompileMode::On, CompileMode::Off] {
            d.opts.compile = mode;
            assert_eq!(explain(&db, &d, false).unwrap().engine, "seminaive");
        }
        d.opts.naive = true;
        assert_eq!(explain(&db, &d, false).unwrap().engine, "naive");
        let mut naive = req.clone();
        naive.opts.naive = true;
        assert_eq!(explain(&db, &naive, false).unwrap().engine, "naive");
    }

    #[test]
    fn referenced_relations_cover_every_kind() {
        let q = prepare_request(&ExecRequest::query("(x1) (E(x1,x1) & exists x2. P(x2))")).unwrap();
        assert_eq!(q.referenced_relations(), ["E", "P"]);
        // Quantified ESO relations are derived, not stored.
        let e = prepare_request(&ExecRequest::eso("exists2 S/1. (S(x1) & P(x1))")).unwrap();
        assert_eq!(e.referenced_relations(), ["P"]);
        // Datalog IDB predicates are excluded; EDB names dedupe.
        let d = prepare_request(&ExecRequest::datalog(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
            "T",
        ))
        .unwrap();
        assert_eq!(d.referenced_relations(), ["E"]);
    }

    #[test]
    fn incr_plans_follow_the_fallback_matrix() {
        use bvq_core::Strategy;
        let plan = |req: &ExecRequest| prepare_request(req).unwrap().incr_plan();
        let d = plan(&ExecRequest::datalog("T(x) :- P(x).", "T"));
        assert_eq!(d.strategy, Strategy::Counting);
        let d = plan(&ExecRequest::datalog(
            "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).",
            "T",
        ));
        assert_eq!(d.strategy, Strategy::DRed);
        let q = plan(&ExecRequest::query("(x1) [pfp S(x1). ~S(x1)](x1)"));
        assert_eq!(q.strategy, Strategy::Rediff);
        assert!(q.reason.starts_with("pfp"), "{}", q.reason);
        let e = plan(&ExecRequest::eso("exists2 S/1. (S(x1) & P(x1))"));
        assert_eq!(e.strategy, Strategy::Rediff);
    }

    #[test]
    fn explain_reports_maintenance_strategy() {
        let db = db();
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let report = explain(&db, &d, false).unwrap();
        assert!(
            report.maintenance.starts_with("dred — "),
            "{}",
            report.maintenance
        );
        let rendered = run_explain(&db, &d, false).unwrap();
        assert!(rendered.contains("maintenance: dred"), "{rendered}");
        let q = ExecRequest::query("(x1) P(x1)");
        let report = explain(&db, &q, false).unwrap();
        assert!(
            report.maintenance.starts_with("rediff — "),
            "{}",
            report.maintenance
        );
    }

    #[test]
    fn forced_backends_agree_and_key_the_cache() {
        let db = db();
        let text = "(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)";
        let auto = ExecRequest::query(text);
        let forced = |m: BackendMode| {
            let mut r = auto.clone();
            r.opts.backend = m;
            r
        };
        let rows = |req: &ExecRequest| -> Vec<_> {
            let Answer::Rows(r) = execute(&db, req).unwrap().answer else {
                panic!("expected rows")
            };
            r.sorted()
        };
        let base = rows(&auto);
        for m in [BackendMode::Dense, BackendMode::Bdd] {
            assert_eq!(rows(&forced(m)), base, "{m}");
            let key = forced(m).cache_key();
            assert!(key.contains(&format!("backend={m}|")), "{key}");
        }
        // `auto` keeps the historical key.
        assert!(!auto.cache_key().contains("backend="));
        assert_eq!(auto.cache_key(), ExecRequest::query(text).cache_key());
        // Datalog routes through the FP translation under a forced
        // backend and still matches the rule engine.
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let mut d_bdd = d.clone();
        d_bdd.opts.backend = BackendMode::Bdd;
        assert_eq!(rows(&d_bdd), rows(&d));
        assert!(d_bdd.cache_key().contains("backend=bdd|"));
        // Unknown outputs stay a typed error on the translated path.
        let mut bad = ExecRequest::datalog("T(x) :- P(x).", "Zap");
        bad.opts.backend = BackendMode::Bdd;
        let err = execute(&db, &bad).unwrap_err();
        assert_eq!(err, RunError::UnknownOutput("Zap".into()));
    }

    #[test]
    fn backend_option_conflicts_are_invalid_options() {
        let db = db();
        let mut naive = ExecRequest::query("(x1) P(x1)");
        naive.opts.naive = true;
        naive.opts.backend = BackendMode::Bdd;
        assert_eq!(execute(&db, &naive).unwrap_err().code(), "invalid_option");
        let mut eso = ExecRequest::eso("exists2 S/1. (S(x1) & P(x1))");
        eso.opts.backend = BackendMode::Dense;
        assert_eq!(execute(&db, &eso).unwrap_err().code(), "invalid_option");
        let mut d = ExecRequest::datalog("T(x) :- P(x).", "T");
        d.opts.naive = true;
        d.opts.backend = BackendMode::Bdd;
        assert_eq!(execute(&db, &d).unwrap_err().code(), "invalid_option");
    }

    #[test]
    fn explain_reports_forced_and_chosen_backends() {
        let db = db();
        let req = ExecRequest::query("(x1) exists x2. (E(x1,x2) & P(x2))");
        let mut bdd = req.clone();
        bdd.opts.backend = BackendMode::Bdd;
        let report = explain(&db, &bdd, false).unwrap();
        assert_eq!(report.backend, "bdd");
        assert_eq!(report.engine, "interpreted", "forced backends interpret");
        assert!(report.cache_key.contains("backend=bdd|"));
        let rendered = run_explain(&db, &bdd, false).unwrap();
        assert!(rendered.contains("backend: bdd"), "{rendered}");
        // `explain analyze` actually runs on the forced backend.
        let report = explain(&db, &bdd, true).unwrap();
        assert!(report.analyzed.is_some());
        // Datalog reports the forced backend too.
        let mut d = ExecRequest::datalog("T(x,y) :- E(x,y).", "T");
        d.opts.backend = BackendMode::Bdd;
        assert_eq!(explain(&db, &d, false).unwrap().backend, "bdd");
        assert_eq!(explain(&db, &d, false).unwrap().engine, "interpreted");
    }

    #[test]
    fn explain_covers_eso_and_datalog_backends() {
        let db = db();
        let e = ExecRequest::eso("exists2 S/1. (S(x1) & forall x1. (S(x1) -> P(x1)))");
        let report = explain(&db, &e, false).unwrap();
        assert_eq!(report.backend, "sat-grounding");
        assert_eq!(report.plan.kind, "eso");
        let d = ExecRequest::datalog("T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T");
        let report = explain(&db, &d, false).unwrap();
        assert_eq!(report.backend, "seminaive");
        assert_eq!(report.label, "DATALOG");
        assert_eq!(report.plan.children.len(), 2);
        assert!(report.plan.children.iter().all(|c| c.kind == "rule"));
        let analyzed = explain(&db, &d, true).unwrap();
        assert_eq!(analyzed.plan.kind, "datalog");
        assert!(analyzed.plan.children.iter().all(|c| c.kind == "round"));
    }
}
