//! The differential oracle layer: every applicable evaluator pair runs
//! the same case and the answers must be set-equal.
//!
//! Answers normalize to [`Norm`] — a boolean, a sorted tuple set, or a
//! structured error code. Two sides *agree* when their norms are equal;
//! in particular both sides failing with the same error code is
//! agreement (shrinking may drive a case into an error state, and the
//! engines must at least fail consistently).

use std::io;

use bvq_cert::{check_text, CertError, CheckRequest, CheckedAnswer};
use bvq_core::{plan_query, EvalError, FpEvaluator, FpStrategy};
use bvq_datalog::{eval_seminaive, to_fp_formula_multi};
use bvq_ivm::{MutableDb, Mutation as IvmMutation, StandingQuery};
use bvq_logic::{Query, Var};
use bvq_relation::{write_database, BackendMode, Database, Elem, EvalConfig, Relation};
use bvq_server::exec::{execute, Answer, CompileMode, EvalOptions, ExecRequest};
use bvq_server::{Client, Json, Server, ServerConfig, ServerHandle};

use crate::gen::{Case, CaseKind};
use crate::metamorphic;
use crate::Lang;

/// A normalized answer: what every evaluator pair is compared on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Norm {
    /// A sentence's truth value.
    Bool(bool),
    /// Sorted answer tuples.
    Rows(Vec<Vec<Elem>>),
    /// A structured error, by stable code.
    Error(String),
}

impl Norm {
    fn summary(&self) -> String {
        match self {
            Norm::Bool(b) => format!("boolean {b}"),
            Norm::Rows(rows) => {
                let head: Vec<String> = rows.iter().take(8).map(|r| format!("{r:?}")).collect();
                format!(
                    "{} rows: {}{}",
                    rows.len(),
                    head.join(" "),
                    if rows.len() > 8 { " …" } else { "" }
                )
            }
            Norm::Error(code) => format!("error `{code}`"),
        }
    }

    /// Applies a domain permutation to row contents.
    fn rename(&self, perm: &[Elem]) -> Norm {
        match self {
            Norm::Rows(rows) => {
                let mut mapped: Vec<Vec<Elem>> = rows
                    .iter()
                    .map(|r| r.iter().map(|&e| perm[e as usize]).collect())
                    .collect();
                mapped.sort();
                Norm::Rows(mapped)
            }
            other => other.clone(),
        }
    }
}

/// A deliberate result corruption, used by the harness's own mutation
/// sanity tests: with a mutation installed, every oracle pair whose
/// reference result is non-trivial must report a divergence, and the
/// shrinker must minimize it. This stands in for "deliberately breaking
/// one evaluator" without actually corrupting shipped evaluator code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mutation {
    /// Drop the first row of the reference answer (flip it, when
    /// boolean).
    DropRow,
}

fn mutate(norm: Norm, mutation: Option<Mutation>) -> Norm {
    match (mutation, norm) {
        (Some(Mutation::DropRow), Norm::Rows(mut rows)) if !rows.is_empty() => {
            rows.remove(0);
            Norm::Rows(rows)
        }
        (Some(Mutation::DropRow), Norm::Bool(b)) => Norm::Bool(!b),
        (_, norm) => norm,
    }
}

/// One oracle disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Which oracle pair disagreed (stable name, stored in repro files).
    pub oracle: String,
    /// Human-readable summary of both sides.
    pub detail: String,
}

/// Runs a request directly through [`execute`] and normalizes.
fn run_direct(db: &Database, req: &ExecRequest) -> Norm {
    match execute(db, req) {
        Ok(outcome) => match outcome.answer {
            Answer::Boolean(b) => Norm::Bool(b),
            Answer::Rows(rel) => Norm::Rows(
                rel.sorted()
                    .into_iter()
                    .map(|t| t.as_slice().to_vec())
                    .collect(),
            ),
            Answer::Text(t) => Norm::Error(format!("unexpected text answer: {t}")),
        },
        Err(e) => Norm::Error(e.code().to_string()),
    }
}

fn base_request(case: &Case) -> ExecRequest {
    match &case.kind {
        CaseKind::Query(q) => ExecRequest::query(q.to_string()),
        CaseKind::Datalog(p, out) => ExecRequest::datalog(p.to_text(), out.clone()),
    }
}

/// The reference answer: the default engine for the case's language.
pub fn reference(case: &Case) -> Norm {
    run_direct(&case.db, &base_request(case))
}

/// A live server the round-trip oracles talk to. One instance serves a
/// whole fuzz run; each case's database is loaded under the name
/// `fuzz` (the result cache stays sound across reloads because its key
/// includes the database fingerprint).
pub struct ServerOracle {
    handle: ServerHandle,
    client: Client,
    loaded: Option<u64>,
}

impl ServerOracle {
    /// Starts a loopback server with a small worker pool.
    pub fn start() -> io::Result<ServerOracle> {
        let handle = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            ..ServerConfig::default()
        })?;
        let client = Client::connect(handle.addr())?;
        Ok(ServerOracle {
            handle,
            client,
            loaded: None,
        })
    }

    /// Graceful shutdown (also happens on drop of the handle).
    pub fn shutdown(&mut self) {
        let _ = self.client.shutdown();
        self.handle.shutdown();
    }

    fn ensure_db(&mut self, db: &Database) -> Result<(), Norm> {
        let fp = db.fingerprint();
        if self.loaded == Some(fp) {
            return Ok(());
        }
        let resp = self
            .client
            .load_db("fuzz", &write_database(db))
            .map_err(|e| Norm::Error(format!("io: {e}")))?;
        if !Client::is_ok(&resp) {
            return Err(Norm::Error(
                Client::error_code(&resp).unwrap_or("load_db failed").into(),
            ));
        }
        self.loaded = Some(fp);
        Ok(())
    }

    fn norm_response(resp: &Json) -> Norm {
        if !Client::is_ok(resp) {
            return Norm::Error(Client::error_code(resp).unwrap_or("unknown_error").into());
        }
        if let Some(b) = resp.get("boolean") {
            return Norm::Bool(b.is_true());
        }
        let mut rows: Vec<Vec<Elem>> = resp
            .get("rows")
            .and_then(Json::as_arr)
            .map(|rs| {
                rs.iter()
                    .map(|r| {
                        r.as_arr()
                            .map(|xs| {
                                xs.iter()
                                    .filter_map(Json::as_u64)
                                    .map(|x| x as Elem)
                                    .collect()
                            })
                            .unwrap_or_default()
                    })
                    .collect()
            })
            .unwrap_or_default();
        rows.sort();
        Norm::Rows(rows)
    }

    /// One materialized round trip.
    fn eval(&mut self, case: &Case) -> Norm {
        if let Err(e) = self.ensure_db(&case.db) {
            return e;
        }
        let resp = match &case.kind {
            CaseKind::Query(q) => self.client.eval("fuzz", &q.to_string()),
            CaseKind::Datalog(p, out) => self.client.datalog("fuzz", &p.to_text(), out),
        };
        match resp {
            Ok(r) => Self::norm_response(&r),
            Err(e) => Norm::Error(format!("io: {e}")),
        }
    }

    /// One streaming round trip (query cases only).
    fn eval_streaming(&mut self, case: &Case) -> Option<Norm> {
        let CaseKind::Query(q) = &case.kind else {
            return None;
        };
        if let Err(e) = self.ensure_db(&case.db) {
            return Some(e);
        }
        match self.client.eval_stream("fuzz", &q.to_string()) {
            Ok((header, rows, _footer)) => {
                if !Client::is_ok(&header) {
                    return Some(Norm::Error(
                        Client::error_code(&header)
                            .unwrap_or("unknown_error")
                            .into(),
                    ));
                }
                if let Some(b) = header.get("boolean") {
                    return Some(Norm::Bool(b.is_true()));
                }
                let mut rows: Vec<Vec<Elem>> = rows
                    .into_iter()
                    .map(|r| r.into_iter().map(|x| x as Elem).collect())
                    .collect();
                rows.sort();
                Some(Norm::Rows(rows))
            }
            Err(e) => Some(Norm::Error(format!("io: {e}"))),
        }
    }
}

/// The stable oracle names applicable to a language, in execution
/// order. Shrinking re-runs a single one of these by name.
pub fn oracles(lang: Lang, with_server: bool) -> Vec<&'static str> {
    let mut names: Vec<&'static str> = Vec::new();
    match lang {
        Lang::Fo => names.extend([
            "naive-vs-bounded",
            "compiled-vs-interpreted",
            "bdd-vs-dense",
            "threads-1-vs-n",
            "metamorphic-double-negation",
            "metamorphic-conjunct-shuffle",
            "metamorphic-exists-reorder",
            "metamorphic-minimize-width",
            "rewritten-vs-original",
            "metamorphic-domain-rename",
        ]),
        Lang::Fp | Lang::Pfp => names.extend([
            "fp-seminaive-vs-naive",
            "compiled-vs-interpreted",
            "bdd-vs-dense",
            "threads-1-vs-n",
            "metamorphic-double-negation",
            "metamorphic-conjunct-shuffle",
            "rewritten-vs-original",
            "metamorphic-domain-rename",
            "certified-vs-direct",
        ]),
        Lang::Datalog => names.extend([
            "datalog-naive-vs-seminaive",
            "datalog-vs-fp-translation",
            "bdd-vs-dense",
            "threads-1-vs-n",
            "metamorphic-domain-rename",
            "incremental-vs-recompute",
            "certified-vs-direct",
        ]),
    }
    if with_server {
        names.extend(["server-materialized", "server-streaming", "server-cached"]);
    }
    names
}

fn compare(
    oracle: &str,
    left_label: &str,
    left: Norm,
    right_label: &str,
    right: Norm,
) -> Option<Divergence> {
    if left == right {
        return None;
    }
    Some(Divergence {
        oracle: oracle.to_string(),
        detail: format!(
            "{left_label}: {} ≠ {right_label}: {}",
            left.summary(),
            right.summary()
        ),
    })
}

/// Runs one named oracle pair on a case. `seed` drives the seeded
/// rewrites (shuffle order, domain permutation) so a given
/// `(case, oracle, seed)` triple is fully deterministic — the shrinker
/// relies on that. Returns `Ok(checks_performed)` or the divergence.
pub fn run_oracle(
    case: &Case,
    oracle: &str,
    server: Option<&mut ServerOracle>,
    mutation: Option<Mutation>,
    seed: u64,
) -> Result<usize, Divergence> {
    let rf = || mutate(reference(case), mutation);
    let against = |name: &str, other: Norm| -> Result<usize, Divergence> {
        match compare(name, "reference", rf(), name, other) {
            None => Ok(1),
            Some(d) => Err(d),
        }
    };
    match oracle {
        "naive-vs-bounded" => {
            let req = base_request(case).with_opts(EvalOptions {
                naive: true,
                ..EvalOptions::default()
            });
            against(oracle, run_direct(&case.db, &req))
        }
        "datalog-naive-vs-seminaive" => {
            let req = base_request(case).with_opts(EvalOptions {
                naive: true,
                ..EvalOptions::default()
            });
            against(oracle, run_direct(&case.db, &req))
        }
        "datalog-vs-fp-translation" => {
            let CaseKind::Datalog(p, out) = &case.kind else {
                return Ok(0);
            };
            let arity = p
                .idb_predicates()
                .iter()
                .find(|(name, _)| name == out)
                .map(|(_, a)| *a)
                .unwrap_or(0);
            let formula = match to_fp_formula_multi(p, out) {
                Ok(f) => f,
                // The translation rejects what the engines reject;
                // agreement-on-error keeps shrinking sound.
                Err(_) => return Ok(0),
            };
            let q = Query::new((0..arity as u32).map(Var).collect(), formula);
            let req = ExecRequest::query(q.to_string());
            against(oracle, run_direct(&case.db, &req))
        }
        "compiled-vs-interpreted" => {
            let interpreted = base_request(case).with_opts(EvalOptions {
                compile: CompileMode::Off,
                ..EvalOptions::default()
            });
            let compiled = base_request(case).with_opts(EvalOptions {
                compile: CompileMode::On,
                ..EvalOptions::default()
            });
            let left = mutate(run_direct(&case.db, &interpreted), mutation);
            match compare(
                oracle,
                "interpreted",
                left,
                "compiled",
                run_direct(&case.db, &compiled),
            ) {
                None => Ok(1),
                Some(d) => Err(d),
            }
        }
        "bdd-vs-dense" => {
            // The symbolic backend against the bitset; Datalog cases
            // exercise the FP-translation route both forced dispatches
            // take. Fuzz domains stay far inside the dense budget, so
            // forcing dense never trips its guard.
            let bdd = base_request(case).with_opts(EvalOptions {
                backend: BackendMode::Bdd,
                ..EvalOptions::default()
            });
            let dense = base_request(case).with_opts(EvalOptions {
                backend: BackendMode::Dense,
                ..EvalOptions::default()
            });
            let left = mutate(run_direct(&case.db, &bdd), mutation);
            match compare(oracle, "bdd", left, "dense", run_direct(&case.db, &dense)) {
                None => Ok(1),
                Some(d) => Err(d),
            }
        }
        "threads-1-vs-n" => {
            let one = base_request(case).with_opts(EvalOptions {
                threads: Some(1),
                ..EvalOptions::default()
            });
            let many = base_request(case).with_opts(EvalOptions {
                threads: Some(3),
                ..EvalOptions::default()
            });
            let left = mutate(run_direct(&case.db, &one), mutation);
            match compare(
                oracle,
                "threads=1",
                left,
                "threads=3",
                run_direct(&case.db, &many),
            ) {
                None => Ok(1),
                Some(d) => Err(d),
            }
        }
        "metamorphic-double-negation" => {
            let CaseKind::Query(q) = &case.kind else {
                return Ok(0);
            };
            let dn = metamorphic::double_negation(q);
            against(
                oracle,
                run_direct(&case.db, &ExecRequest::query(dn.to_string())),
            )
        }
        "metamorphic-conjunct-shuffle" => {
            let CaseKind::Query(q) = &case.kind else {
                return Ok(0);
            };
            let s = metamorphic::conjunct_shuffle(q, seed);
            against(
                oracle,
                run_direct(&case.db, &ExecRequest::query(s.to_string())),
            )
        }
        "metamorphic-exists-reorder" => {
            let CaseKind::Query(q) = &case.kind else {
                return Ok(0);
            };
            match metamorphic::exists_reorder(q) {
                Some(r) => against(
                    oracle,
                    run_direct(&case.db, &ExecRequest::query(r.to_string())),
                ),
                None => Ok(0),
            }
        }
        "metamorphic-minimize-width" => {
            let CaseKind::Query(q) = &case.kind else {
                return Ok(0);
            };
            match metamorphic::minimized(q) {
                Some(m) => against(
                    oracle,
                    run_direct(&case.db, &ExecRequest::query(m.to_string())),
                ),
                None => Ok(0),
            }
        }
        "rewritten-vs-original" => {
            // The certified width-minimizing rewrite must evaluate
            // identically to the original. A rejected certificate
            // (`certified == Some(false)`) is itself a bug: the
            // analyzer emitted a rewrite its own validator refused.
            let CaseKind::Query(q) = &case.kind else {
                return Ok(0);
            };
            let analysis = bvq_analysis::analyze_query(q);
            if analysis.certified == Some(false) {
                return Err(Divergence {
                    oracle: oracle.to_string(),
                    detail: format!(
                        "analyzer emitted a width certificate its validator rejected \
                         (width {} claimed {})",
                        analysis.width, analysis.k_min
                    ),
                });
            }
            match analysis.certificate {
                Some(cert) => {
                    let rq = Query::new(q.output.clone(), cert.rewritten);
                    against(
                        oracle,
                        run_direct(&case.db, &ExecRequest::query(rq.to_string())),
                    )
                }
                None => Ok(0),
            }
        }
        "metamorphic-domain-rename" => {
            let perm = metamorphic::permutation(case.db.domain_size(), seed);
            let db2 = metamorphic::rename_db(&case.db, &perm);
            let renamed = match &case.kind {
                CaseKind::Query(q) => {
                    let q2 = metamorphic::rename_query(q, &perm);
                    run_direct(&db2, &ExecRequest::query(q2.to_string()))
                }
                CaseKind::Datalog(p, out) => {
                    let p2 = metamorphic::rename_program(p, &perm);
                    run_direct(&db2, &ExecRequest::datalog(p2.to_text(), out.clone()))
                }
            };
            let expected = rf().rename(&perm);
            match compare(oracle, "π(reference)", expected, "eval∘π", renamed) {
                None => Ok(1),
                Some(d) => Err(d),
            }
        }
        "incremental-vs-recompute" => incremental_vs_recompute(case, mutation, seed),
        "certified-vs-direct" => certified_vs_direct(case, mutation),
        "fp-seminaive-vs-naive" => fp_seminaive_vs_naive(case, mutation),
        "server-materialized" => match server {
            Some(s) => against(oracle, s.eval(case)),
            None => Ok(0),
        },
        "server-streaming" => match server {
            Some(s) => match s.eval_streaming(case) {
                Some(norm) => against(oracle, norm),
                None => Ok(0),
            },
            None => Ok(0),
        },
        "server-cached" => match server {
            Some(s) => {
                // Two round trips: the second is served from the result
                // LRU when cacheable; both must match the reference.
                let first = s.eval(case);
                let second = s.eval(case);
                if let Some(d) = compare(oracle, "cold", first.clone(), "cached", second) {
                    return Err(d);
                }
                against(oracle, first).map(|c| c + 1)
            }
            None => Ok(0),
        },
        other => {
            debug_assert!(false, "unknown oracle `{other}`");
            Ok(0)
        }
    }
}

/// The seminaive-rounds oracle: the default strategy (Emerson–Lei, with
/// seminaive μ rounds where eligible) against `FpStrategy::Naive`, whose
/// rounds re-apply the whole body, on the interpreted and the compiled
/// path. Answers must agree. Round counts must agree wherever naive
/// restarts and Emerson–Lei warm starts cannot differ — no fixpoint
/// nested in another — and the two default paths must always count the
/// same rounds. Cases outside `FP^k` (PFP) are skipped.
fn fp_seminaive_vs_naive(case: &Case, mutation: Option<Mutation>) -> Result<usize, Divergence> {
    let oracle = "fp-seminaive-vs-naive";
    let CaseKind::Query(q) = &case.kind else {
        return Ok(0);
    };
    if !q.formula.is_fp() {
        return Ok(0);
    }
    let k = q
        .formula
        .width()
        .max(q.output.iter().map(|v| v.index() + 1).max().unwrap_or(0))
        .max(1);
    let cfg = EvalConfig::sequential();
    let norm = |run: Result<(Relation, u64), EvalError>| match run {
        Ok((rel, rounds)) => (Norm::Rows(rel_rows(&rel)), Some(rounds)),
        Err(e) => (Norm::Error(e.to_string()), None),
    };
    let interpreted = |strategy| {
        norm(
            FpEvaluator::new(&case.db, k)
                .with_config(cfg)
                .with_strategy(strategy)
                .eval_query(q)
                .map(|(rel, stats)| (rel, stats.fixpoint_iterations)),
        )
    };
    let (naive, naive_rounds) = interpreted(FpStrategy::Naive);
    let (default, default_rounds) = interpreted(FpStrategy::EmersonLei);
    let (compiled, compiled_rounds) = norm(
        plan_query(&case.db, q, k, false, None)
            .and_then(|plan| plan.eval_compiled(&case.db, &cfg))
            .map(|ev| (ev.answer, ev.stats.fixpoint_iterations)),
    );
    let flat = q.formula.fixpoint_nesting() <= 1;
    let sides = [
        ("interpreted", mutate(default, mutation), default_rounds),
        ("compiled", compiled, compiled_rounds),
    ];
    for (label, answer, rounds) in sides {
        if let Some(d) = compare(oracle, "naive", naive.clone(), label, answer) {
            return Err(d);
        }
        if flat && rounds != naive_rounds {
            return Err(Divergence {
                oracle: oracle.to_string(),
                detail: format!("{label} ran {rounds:?} rounds, naive {naive_rounds:?}"),
            });
        }
    }
    if default_rounds != compiled_rounds {
        return Err(Divergence {
            oracle: oracle.to_string(),
            detail: format!(
                "interpreted ran {default_rounds:?} rounds, compiled {compiled_rounds:?}"
            ),
        });
    }
    Ok(2)
}

/// Number of seeded mutation steps the IVM oracle drives per case.
const IVM_STEPS: usize = 8;

fn rel_rows(rel: &Relation) -> Vec<Vec<Elem>> {
    rel.sorted()
        .into_iter()
        .map(|t| t.as_slice().to_vec())
        .collect()
}

/// The IVM oracle: installs the case's program as a standing query,
/// drives a seeded sequence of single-tuple inserts and deletes over
/// its EDB relations, and after every step checks the incrementally
/// maintained answer against a cold semi-naive re-evaluation on the new
/// epoch — the invariant the Counting and DRed maintenance strategies
/// promise. The harness mutation corrupts the recompute side, so the
/// sanity tests can force a divergence here too.
fn incremental_vs_recompute(
    case: &Case,
    mutation: Option<Mutation>,
    seed: u64,
) -> Result<usize, Divergence> {
    let CaseKind::Datalog(p, out) = &case.kind else {
        return Ok(0);
    };
    let edb = p.edb_predicates();
    let n = case.db.domain_size() as u64;
    if edb.is_empty() || n == 0 {
        return Ok(0);
    }
    let cfg = EvalConfig::sequential();
    let mut mdb = MutableDb::new(case.db.clone());
    let mut sq = match StandingQuery::install(p.clone(), out, mdb.db(), &cfg) {
        Ok(sq) => sq,
        // Installation rejects what the engines reject; nothing to
        // maintain, agreement-on-error keeps shrinking sound.
        Err(_) => return Ok(0),
    };
    let mut rng = bvq_prng::Rng::seed_from_u64(seed ^ 0x1f4a_9c3d_77b1_e055);
    let oracle = "incremental-vs-recompute";
    let mut checks = 0;
    for step in 0..IVM_STEPS {
        let (rel, arity) = &edb[(rng.next_u64() as usize) % edb.len()];
        let tuple: Vec<Elem> = (0..*arity).map(|_| (rng.next_u64() % n) as Elem).collect();
        let m = if rng.next_u64() % 2 == 0 {
            IvmMutation::Insert {
                rel: rel.clone(),
                tuple,
            }
        } else {
            IvmMutation::Delete {
                rel: rel.clone(),
                tuple,
            }
        };
        let old = mdb.snapshot();
        let delta = match mdb.apply(std::slice::from_ref(&m)) {
            Ok(d) => d,
            Err(e) => {
                return Err(Divergence {
                    oracle: oracle.to_string(),
                    detail: format!("step {step}: in-domain mutation rejected: {e}"),
                })
            }
        };
        if let Err(e) = sq.apply(&old.db, mdb.db(), &delta, &cfg) {
            return Err(Divergence {
                oracle: oracle.to_string(),
                detail: format!("step {step}: maintenance failed: {e}"),
            });
        }
        let cold = match eval_seminaive(p, mdb.db()) {
            Ok(idb) => Norm::Rows(idb.get(out).map(rel_rows).unwrap_or_default()),
            Err(e) => Norm::Error(format!("recompute failed: {e}")),
        };
        let maintained = Norm::Rows(rel_rows(sq.answer()));
        if let Some(d) = compare(
            oracle,
            &format!("recompute@{step}"),
            mutate(cold, mutation),
            "maintained",
            maintained,
        ) {
            return Err(d);
        }
        checks += 1;
    }
    Ok(checks)
}

/// The certificate oracle: emits a certificate with the engine-side
/// producer, replays it through the trusted [`bvq_cert`] checker, and
/// compares the *checked* answer against the reference. Both failure
/// directions are bugs this oracle exists to catch: the checker
/// rejecting an honestly produced certificate (the coordinator would
/// burn the replica and re-evaluate locally), and — under the harness
/// mutation, which corrupts the reference side — the checker accepting
/// an answer that disagrees with direct evaluation. Cases outside the
/// certifiable fragment (`CertError::Unsupported`, e.g. IFP) or past
/// the production work caps are skipped, matching the server's own
/// `not_certifiable` refusal.
fn certified_vs_direct(case: &Case, mutation: Option<Mutation>) -> Result<usize, Divergence> {
    let oracle = "certified-vs-direct";
    let produced = match &case.kind {
        CaseKind::Query(q) => bvq_core::certgen::certify_query(&case.db, q),
        CaseKind::Datalog(p, out) => bvq_core::certgen::certify_datalog(&case.db, p, out),
    };
    let cert = match produced {
        Ok(c) => c,
        Err(CertError::Unsupported(_)) | Err(CertError::TooLarge) => return Ok(0),
    };
    let encoded = cert.encode();
    let (q_held, p_held);
    let req = match &case.kind {
        CaseKind::Query(q) => {
            q_held = q.clone();
            CheckRequest::Query(&q_held)
        }
        CaseKind::Datalog(p, out) => {
            p_held = p.clone();
            CheckRequest::Datalog {
                program: &p_held,
                output: out,
            }
        }
    };
    let checked = match check_text(&case.db, &req, &encoded) {
        Ok(CheckedAnswer::Boolean(b)) => Norm::Bool(b),
        Ok(CheckedAnswer::Rows(rel)) => Norm::Rows(rel_rows(&rel)),
        Err(reject) => {
            return Err(Divergence {
                oracle: oracle.to_string(),
                detail: format!(
                    "trusted checker rejected an honestly produced certificate: \
                     {} ({reject})",
                    reject.code()
                ),
            })
        }
    };
    match compare(
        oracle,
        "direct",
        mutate(reference(case), mutation),
        "certified",
        checked,
    ) {
        None => Ok(1),
        Some(d) => Err(d),
    }
}

/// The outcome of pushing one case through every applicable oracle.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// Comparisons performed.
    pub checks: usize,
    /// The first divergence, if any.
    pub divergence: Option<Divergence>,
}

/// Runs every applicable oracle pair on a case, stopping at the first
/// divergence.
pub fn check_case(
    case: &Case,
    mut server: Option<&mut ServerOracle>,
    mutation: Option<Mutation>,
    seed: u64,
) -> CheckOutcome {
    let mut checks = 0;
    for name in oracles(case.lang, server.is_some()) {
        match run_oracle(case, name, server.as_deref_mut(), mutation, seed) {
            Ok(c) => checks += c,
            Err(d) => {
                return CheckOutcome {
                    checks,
                    divergence: Some(d),
                }
            }
        }
    }
    CheckOutcome {
        checks,
        divergence: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;
    use bvq_prng::Rng;

    #[test]
    fn reference_agrees_with_itself_across_small_sweep() {
        for lang in Lang::all() {
            for i in 0..25u64 {
                let case = gen_case(&mut Rng::seed_from_u64(500 + i), lang);
                let out = check_case(&case, None, None, i);
                assert!(
                    out.divergence.is_none(),
                    "{lang} case {i} diverged: {:?}\ncase: {}",
                    out.divergence,
                    case.text()
                );
                assert!(out.checks > 0);
            }
        }
    }

    #[test]
    fn incremental_vs_recompute_agrees_across_seeded_sweep() {
        // Acceptance gate: 200+ seeded Datalog cases, each driven
        // through a seeded mutation sequence, with zero divergences
        // between maintenance and cold recompute.
        let mut checks = 0;
        for i in 0..225u64 {
            let case = gen_case(&mut Rng::seed_from_u64(9_000 + i), Lang::Datalog);
            match run_oracle(&case, "incremental-vs-recompute", None, None, i) {
                Ok(c) => checks += c,
                Err(d) => panic!("case {i} diverged: {}\ncase: {}", d.detail, case.text()),
            }
        }
        assert!(
            checks >= 200,
            "sweep performed only {checks} incremental checks"
        );
    }

    #[test]
    fn certified_vs_direct_agrees_across_seeded_sweep() {
        // Acceptance gate: seeded FP/PFP/Datalog cases, each certified
        // by the engine-side producer and replayed through the trusted
        // checker, with zero divergences against direct evaluation.
        let mut checks = 0;
        for lang in [Lang::Fp, Lang::Pfp, Lang::Datalog] {
            for i in 0..60u64 {
                let case = gen_case(&mut Rng::seed_from_u64(12_000 + i), lang);
                match run_oracle(&case, "certified-vs-direct", None, None, i) {
                    Ok(c) => checks += c,
                    Err(d) => panic!(
                        "{lang} case {i} diverged: {}\ncase: {}",
                        d.detail,
                        case.text()
                    ),
                }
            }
        }
        assert!(
            checks >= 60,
            "sweep performed only {checks} certificate checks"
        );
    }

    #[test]
    fn certified_vs_direct_catches_a_wrong_accepted_answer() {
        // The mutation hook stands in for "the checker accepted a wrong
        // answer": with the reference side corrupted, any case with a
        // non-trivial certified answer must report a divergence.
        let mut found = false;
        for i in 0..60u64 {
            let case = gen_case(&mut Rng::seed_from_u64(13_000 + i), Lang::Fp);
            if matches!(reference(&case), Norm::Rows(ref r) if r.is_empty()) {
                continue;
            }
            match run_oracle(
                &case,
                "certified-vs-direct",
                None,
                Some(Mutation::DropRow),
                i,
            ) {
                Ok(0) => continue, // outside the certifiable fragment
                Ok(_) => panic!(
                    "checker accepted a corrupted answer silently\ncase: {}",
                    case.text()
                ),
                Err(d) => {
                    assert_eq!(d.oracle, "certified-vs-direct");
                    found = true;
                    break;
                }
            }
        }
        assert!(
            found,
            "sweep produced no certifiable case with a non-trivial answer"
        );
    }

    #[test]
    fn mutation_forces_a_divergence_on_nonempty_results() {
        let mut found = false;
        for i in 0..30u64 {
            let case = gen_case(&mut Rng::seed_from_u64(i), Lang::Fo);
            if reference(&case) == Norm::Rows(Vec::new()) {
                continue;
            }
            let out = check_case(&case, None, Some(Mutation::DropRow), i);
            assert!(out.divergence.is_some(), "mutation must be caught");
            found = true;
            break;
        }
        assert!(found, "sweep produced no case with a non-trivial answer");
    }
}
