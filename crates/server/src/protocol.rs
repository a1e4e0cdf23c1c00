//! The wire protocol: line-delimited JSON requests and responses.
//!
//! Every request is one JSON object on one line with an `"op"` field and
//! an optional `"id"` echoed back verbatim. Responses carry `"ok":true`
//! plus op-specific fields, or `"ok":false` with a structured
//! `{"code","message"}` error — never a bare string, so clients (and the
//! integration tests) branch on `code`, not on message text.
//!
//! ```text
//! request   := { "op": <op>, "id"?: <any>, ...op fields }
//! op        := "ping" | "list_dbs" | "load_db" | "stats" | "shutdown"
//!            | "eval" | "eso" | "datalog" | "explain" | "lint"
//!            | "eval_certified" | "register_replica"
//!            | "insert" | "delete" | "batch"
//!            | "subscribe" | "unsubscribe" | "subscriptions"
//!            | "debug_sleep"
//! response  := { "id": <echo>, "ok": true, ... }
//!            | { "id": <echo>, "ok": false,
//!                "error": { "code": <code>, "message": <string> } }
//! stream    := header { ..., "stream": true, "count": N }
//!              then N lines { "row": [e, ...] }
//!              then { "done": true, "count": N }
//! delta     := { "sub": <id>, "epoch": <E>,
//!                "add": [[e, ...], ...], "del": [[e, ...], ...] }
//! ```
//!
//! **Mutations & subscriptions (v2).** `insert`/`delete` mutate one
//! tuple of a named database; `batch` applies a list of `"muts"`
//! atomically (each `{"rel": R, "tuple": [...], "delete"?: bool}`).
//! Every mutation batch advances the database's *epoch*; in-flight
//! queries keep reading the snapshot they pinned at admission.
//! `subscribe` registers a standing `eval` or `datalog` query: the ack
//! carries the subscription id, the chosen maintenance strategy
//! (`counting`/`dred`/`rediff`), and the initial answer, and every
//! later mutation that changes the answer pushes one unsolicited
//! `delta` frame (above) on the subscribing connection. `unsubscribe`
//! drops a subscription; `subscriptions` lists them with maintenance
//! statistics.
//!
//! **Certified evaluation & replicas (v3).** `eval_certified` evaluates
//! like `eval`/`datalog`/`eso` (pick with `"target"`, default `eval`)
//! but additionally returns `"certificate"`: a portable `bvq-cert`
//! text certificate for the answer, and `"certified": true`. Requests
//! outside the certifiable fragment fail with `not_certifiable`. A
//! server started with `--replica-of ADDR` registers itself at the
//! coordinator with `register_replica`; the coordinator then fans
//! eligible compute requests out to registered replicas as
//! `eval_certified` ops and **validates every returned certificate
//! with its own trusted checker** against its own epoch snapshot
//! before caching or answering — a lying replica is rejected
//! (`cert_rejected` in stats) and the request falls back to local
//! evaluation.
//!
//! **Versioning & compatibility.** `ping` reports `"v"`:
//! [`PROTOCOL_VERSION`] and a `"capabilities"` object listing the
//! supported [`OPS`] and [`FEATURES`], so clients feature-detect instead
//! of guessing. The compatibility rule is: *unknown fields in a request
//! are ignored* (a `{"op":"ping","shiny":1}` is a valid ping), so old
//! servers accept requests from newer clients; unknown **ops** are
//! rejected with `unknown_op`, whose message lists the supported set.
//!
//! Compute ops accept `"trace": true` to attach a span tree to the
//! response; traced requests bypass the result cache (the spans must be
//! measured, not replayed), so `trace` implies `no_cache`.
//!
//! Error codes: `bad_request`, `unknown_op`, `unknown_db`, `parse_error`,
//! `invalid_option`, `eval_error`, `schema_error`, `admission_rejected`,
//! `lint_error`, `deadline_exceeded`, `overloaded`, `shutting_down`,
//! `db_error`, `mutation_error`, `unknown_sub`, `internal`.

use bvq_ivm::Mutation;
use bvq_relation::BackendMode;

use crate::json::Json;

/// The protocol version reported by `ping`. Version 2 added mutations,
/// epochs, and standing-query subscriptions; version 3 added certified
/// evaluation (`eval_certified`) and replica registration
/// (`register_replica`).
pub const PROTOCOL_VERSION: u64 = 3;

/// Every op the server understands, as reported in `ping`'s
/// capabilities. (`debug_sleep` is excluded: it only exists when the
/// server runs with debug ops enabled.)
pub const OPS: &[&str] = &[
    "ping",
    "list_dbs",
    "load_db",
    "stats",
    "shutdown",
    "eval",
    "eso",
    "datalog",
    "explain",
    "lint",
    "eval_certified",
    "register_replica",
    "insert",
    "delete",
    "batch",
    "subscribe",
    "unsubscribe",
    "subscriptions",
];

/// Optional features clients can detect from `ping`.
pub const FEATURES: &[&str] = &[
    "trace",
    "stream",
    "explain",
    "result_cache",
    "lint",
    "admission",
    "mutations",
    "subscriptions",
    "certificates",
    "replicas",
];

/// A parsed request: the echoed id plus the operation.
#[derive(Clone, Debug)]
pub struct Request {
    /// The request id, echoed back in the response (`Null` if absent).
    pub id: Json,
    /// The operation to perform.
    pub op: Op,
}

/// The operations the server understands. Control-plane ops run inline
/// on the connection thread; compute ops go through the bounded queue.
#[derive(Clone, Debug)]
pub enum Op {
    /// Liveness probe; reports version and capabilities.
    Ping,
    /// List loaded databases.
    ListDbs,
    /// Load (or replace) a named database from db-text.
    LoadDb {
        /// Name the database will be addressed by.
        name: String,
        /// The database in db-text format.
        text: String,
    },
    /// Snapshot the stats registry.
    Stats,
    /// Graceful shutdown: drain in-flight work, then stop.
    Shutdown,
    /// Mutate a named database: one atomic batch of tuple
    /// inserts/deletes (the `insert`, `delete` and `batch` ops all
    /// lower to this). Advances the epoch and propagates deltas to
    /// standing queries.
    Mutate {
        /// Target database.
        db: String,
        /// The batch (a singleton for `insert`/`delete`).
        muts: Vec<Mutation>,
    },
    /// Register a standing query (the `subscribe` op). The ack carries
    /// the initial answer; later mutations push delta frames.
    Subscribe {
        /// Target database.
        db: String,
        /// The subscribed request (`Eval` or `Datalog` kinds only).
        inner: Box<ComputeKind>,
    },
    /// Drop a subscription by id (the `unsubscribe` op).
    Unsubscribe {
        /// The id from the `subscribe` ack.
        sub: u64,
    },
    /// List active subscriptions with maintenance statistics.
    Subscriptions,
    /// Register an untrusted replica (the `register_replica` op): the
    /// coordinator adds `addr` to its fan-out pool. Certificates are
    /// what make this safe — nothing a replica returns is trusted until
    /// the coordinator's own checker validates it.
    RegisterReplica {
        /// The replica's listening address (`host:port`).
        addr: String,
    },
    /// A compute request (queued, runs on a worker).
    Compute(Compute),
}

/// A compute request: what to run, against which database, under which
/// deadline.
#[derive(Clone, Debug)]
pub struct Compute {
    /// Name of the target database (empty for `debug_sleep`).
    pub db: String,
    /// The work itself.
    pub kind: ComputeKind,
    /// Per-request deadline in milliseconds (overrides the server
    /// default); measured from enqueue, so queue wait counts.
    pub deadline_ms: Option<u64>,
    /// Stream the answer tuple-by-tuple instead of one response object.
    pub stream: bool,
    /// Bypass the result cache (still records a miss). Implied by
    /// `trace` — cached results carry no measured spans.
    pub no_cache: bool,
    /// Attach the evaluator's span tree to the response.
    pub trace: bool,
    /// Return a validated `bvq-cert` certificate with the answer (the
    /// `eval_certified` op). Not part of the cache key — a certified
    /// answer equals the uncertified one — but a cache hit only counts
    /// if the cached entry actually carries a certificate.
    pub certificate: bool,
}

/// The kinds of compute work.
#[derive(Clone, Debug)]
pub enum ComputeKind {
    /// An FO/FP/PFP query (the `eval` op).
    Eval {
        /// Query text.
        query: String,
        /// Variable bound override.
        k: Option<usize>,
        /// Use the naive evaluator (FO only).
        naive: bool,
        /// Width-minimize first (FO only).
        minimize: bool,
        /// Evaluator thread count.
        threads: Option<usize>,
        /// Cylinder backend (the `"backend"` field): `auto` (dense if
        /// `n^k` fits, else the BDD) when absent, else forced to
        /// `dense`/`bdd`.
        backend: BackendMode,
    },
    /// An ESO sentence/query (the `eso` op).
    Eso {
        /// ESO text.
        query: String,
        /// Variable bound override.
        k: Option<usize>,
    },
    /// A Datalog program (the `datalog` op).
    Datalog {
        /// Program text.
        program: String,
        /// Output predicate to return.
        output: String,
        /// Use naive instead of semi-naive evaluation.
        naive: bool,
        /// Cylinder backend (the `"backend"` field): cost-based when
        /// absent, else forced — routed through the FP translation.
        backend: BackendMode,
    },
    /// Explain a request's plan (the `explain` op): width analysis,
    /// backend choice, `n^k` bound, cache key, and a plan tree — static
    /// by default, measured when `analyze` is set.
    Explain {
        /// The request being explained (`Eval`, `Eso` or `Datalog`).
        inner: Box<ComputeKind>,
        /// Execute (with tracing forced on) and report measured spans.
        analyze: bool,
    },
    /// Statically lint a request (the `lint` op): diagnostics, fragment
    /// classification and Tables 1–3 complexity cells, with **zero
    /// evaluation** — only the database schema and domain size are read.
    Lint {
        /// The request being linted (`Eval`, `Eso` or `Datalog`).
        inner: Box<ComputeKind>,
        /// Flag queries whose `n^k` bound exceeds this many tuples.
        budget: Option<u64>,
    },
    /// Occupy a worker for `millis` ms (`debug_sleep`; only when the
    /// server runs with `debug_ops` — used by backpressure tests).
    Sleep {
        /// How long to hold the worker.
        millis: u64,
    },
}

impl ComputeKind {
    /// The plan/result-cache key for this request: every plan-affecting
    /// input, concatenated. Two requests with equal keys have equal
    /// answers on databases with equal fingerprints. `threads` and
    /// `trace` never affect answers, so they are not in the key.
    pub fn cache_key(&self) -> String {
        // The backend only appears when forced, so default-`auto` keys
        // stay byte-identical to what older clients produced.
        let backend = |mode: &BackendMode| match mode.forced() {
            Some(kind) => format!("backend={kind}|"),
            None => String::new(),
        };
        match self {
            ComputeKind::Eval {
                query,
                k,
                naive,
                minimize,
                backend: b,
                ..
            } => format!(
                "eval|k={k:?}|naive={naive}|min={minimize}|{}{query}",
                backend(b)
            ),
            ComputeKind::Eso { query, k } => format!("eso|k={k:?}|{query}"),
            ComputeKind::Datalog {
                program,
                output,
                naive,
                backend: b,
            } => format!("datalog|out={output}|naive={naive}|{}{program}", backend(b)),
            ComputeKind::Explain { inner, analyze } => {
                format!("explain|analyze={analyze}|{}", inner.cache_key())
            }
            ComputeKind::Lint { inner, budget } => {
                format!("lint|budget={budget:?}|{}", inner.cache_key())
            }
            ComputeKind::Sleep { millis } => format!("sleep|{millis}"),
        }
    }
}

/// Renders the one-line `eval_certified` request a coordinator sends to
/// a replica when fanning out an eligible compute request, or `None`
/// when the kind is not fanned out: ESO answers are textual reports
/// with no row/boolean claim to check, and explain/lint/sleep are not
/// certifiable executions at all.
pub fn certified_wire_line(db: &str, kind: &ComputeKind) -> Option<String> {
    let mut fields: Vec<(String, Json)> = vec![
        ("op".into(), Json::str("eval_certified")),
        ("db".into(), Json::Str(db.to_string())),
    ];
    match kind {
        ComputeKind::Eval {
            query,
            k,
            naive,
            minimize,
            threads: _,
            backend,
        } => {
            fields.push(("target".into(), Json::str("eval")));
            fields.push(("query".into(), Json::Str(query.clone())));
            if let Some(k) = k {
                fields.push(("k".into(), Json::num(*k as u64)));
            }
            if *naive {
                fields.push(("naive".into(), Json::Bool(true)));
            }
            if *minimize {
                fields.push(("minimize".into(), Json::Bool(true)));
            }
            if let Some(forced) = backend.forced() {
                fields.push(("backend".into(), Json::Str(forced.to_string())));
            }
        }
        ComputeKind::Datalog {
            program,
            output,
            naive,
            backend,
        } => {
            fields.push(("target".into(), Json::str("datalog")));
            fields.push(("program".into(), Json::Str(program.clone())));
            fields.push(("output".into(), Json::Str(output.clone())));
            if *naive {
                fields.push(("naive".into(), Json::Bool(true)));
            }
            if let Some(forced) = backend.forced() {
                fields.push(("backend".into(), Json::Str(forced.to_string())));
            }
        }
        ComputeKind::Eso { .. }
        | ComputeKind::Explain { .. }
        | ComputeKind::Lint { .. }
        | ComputeKind::Sleep { .. } => return None,
    }
    Some(Json::Obj(fields).to_string_compact())
}

/// A protocol-level error: the `code` a client branches on plus a
/// human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (see module docs for the full set).
    pub code: String,
    /// Diagnostic message.
    pub message: String,
}

impl ProtoError {
    /// Builds an error from a code and message.
    pub fn new(code: &str, message: impl Into<String>) -> Self {
        ProtoError {
            code: code.into(),
            message: message.into(),
        }
    }
}

/// Parses one request line. On failure returns the echoed id (if the
/// line parsed as JSON at all) and the error to report — the connection
/// stays open either way.
///
/// Unknown fields are ignored by construction (each op reads only the
/// fields it knows), which is the protocol's forward-compatibility
/// rule; see the module docs.
pub fn parse_request(line: &str) -> Result<Request, (Json, ProtoError)> {
    let json = Json::parse(line)
        .map_err(|e| (Json::Null, ProtoError::new("bad_request", e.to_string())))?;
    let id = json.get("id").cloned().unwrap_or(Json::Null);
    let op = match json.get("op").and_then(Json::as_str) {
        Some(op) => op,
        None => {
            return Err((
                id,
                ProtoError::new("bad_request", "missing string field `op`"),
            ))
        }
    };
    let need_str = |field: &str| -> Result<String, (Json, ProtoError)> {
        json.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                (
                    id.clone(),
                    ProtoError::new(
                        "bad_request",
                        format!("`{op}` needs string field `{field}`"),
                    ),
                )
            })
    };
    let opt_u64 = |field: &str| json.get(field).and_then(Json::as_u64);
    let flag = |field: &str| json.get(field).map(Json::is_true).unwrap_or(false);
    // `"backend"` is optional; a present-but-unknown value is a
    // structured `invalid_option`, not a silent fall-back to `auto`.
    let backend = || -> Result<BackendMode, (Json, ProtoError)> {
        match json.get("backend").and_then(Json::as_str) {
            None => Ok(BackendMode::Auto),
            Some(s) => BackendMode::parse(s).ok_or_else(|| {
                (
                    id.clone(),
                    ProtoError::new(
                        "invalid_option",
                        format!("`backend` must be auto|dense|bdd, got `{s}`"),
                    ),
                )
            }),
        }
    };

    let eval_kind = || -> Result<ComputeKind, (Json, ProtoError)> {
        Ok(ComputeKind::Eval {
            query: need_str("query")?,
            k: opt_u64("k").map(|v| v as usize),
            naive: flag("naive"),
            minimize: flag("minimize"),
            threads: opt_u64("threads").map(|v| v as usize),
            backend: backend()?,
        })
    };
    let eso_kind = || -> Result<ComputeKind, (Json, ProtoError)> {
        Ok(ComputeKind::Eso {
            query: need_str("query")?,
            k: opt_u64("k").map(|v| v as usize),
        })
    };
    let datalog_kind = || -> Result<ComputeKind, (Json, ProtoError)> {
        Ok(ComputeKind::Datalog {
            program: need_str("program")?,
            output: need_str("output")?,
            naive: flag("naive"),
            backend: backend()?,
        })
    };
    let compute = |kind: ComputeKind, stream: bool, no_cache: bool, trace: bool| {
        Op::Compute(Compute {
            db: String::new(), // filled below
            kind,
            deadline_ms: opt_u64("deadline_ms"),
            stream,
            no_cache,
            trace,
            certificate: false,
        })
    };

    // One wire mutation: `{"rel": R, "tuple": [e, ...], "delete"?: b}`.
    // `insert`/`delete` read the fields off the request itself; `batch`
    // reads a list of such objects from `muts`.
    let mutation = |obj: &Json, force_delete: bool| -> Result<Mutation, (Json, ProtoError)> {
        let bad = |msg: &str| {
            (
                id.clone(),
                ProtoError::new("bad_request", format!("`{op}`: {msg}")),
            )
        };
        let rel = obj
            .get("rel")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("each mutation needs string field `rel`"))?
            .to_string();
        let tuple = obj
            .get("tuple")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("each mutation needs array field `tuple`"))?
            .iter()
            .map(|e| e.as_u64().map(|v| v as u32))
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| bad("`tuple` elements must be non-negative integers"))?;
        let delete = force_delete || obj.get("delete").map(Json::is_true).unwrap_or(false);
        Ok(if delete {
            Mutation::Delete { rel, tuple }
        } else {
            Mutation::Insert { rel, tuple }
        })
    };

    let trace = flag("trace");
    let parsed = match op {
        "ping" => Op::Ping,
        "list_dbs" => Op::ListDbs,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "load_db" => Op::LoadDb {
            name: need_str("name")?,
            text: need_str("text")?,
        },
        "insert" | "delete" => Op::Mutate {
            db: need_str("db")?,
            muts: vec![mutation(&json, op == "delete")?],
        },
        "batch" => {
            let muts = json
                .get("muts")
                .and_then(Json::as_arr)
                .ok_or_else(|| {
                    (
                        id.clone(),
                        ProtoError::new("bad_request", "`batch` needs array field `muts`"),
                    )
                })?
                .iter()
                .map(|m| mutation(m, false))
                .collect::<Result<Vec<_>, _>>()?;
            Op::Mutate {
                db: need_str("db")?,
                muts,
            }
        }
        "subscribe" => {
            let inner = match json.get("target").and_then(Json::as_str).unwrap_or("eval") {
                "eval" => eval_kind()?,
                "datalog" => datalog_kind()?,
                other => {
                    return Err((
                        id,
                        ProtoError::new(
                            "bad_request",
                            format!("`subscribe` target must be eval|datalog, got `{other}`"),
                        ),
                    ))
                }
            };
            Op::Subscribe {
                db: need_str("db")?,
                inner: Box::new(inner),
            }
        }
        "unsubscribe" => Op::Unsubscribe {
            sub: opt_u64("sub").ok_or_else(|| {
                (
                    id.clone(),
                    ProtoError::new("bad_request", "`unsubscribe` needs integer field `sub`"),
                )
            })?,
        },
        "subscriptions" => Op::Subscriptions,
        "register_replica" => Op::RegisterReplica {
            addr: need_str("addr")?,
        },
        "eval_certified" => {
            let inner = match json.get("target").and_then(Json::as_str).unwrap_or("eval") {
                "eval" => eval_kind()?,
                "eso" => eso_kind()?,
                "datalog" => datalog_kind()?,
                other => {
                    return Err((
                        id,
                        ProtoError::new(
                            "bad_request",
                            format!(
                                "`eval_certified` target must be eval|eso|datalog, got `{other}`"
                            ),
                        ),
                    ))
                }
            };
            // Certified requests never trace (the certificate is the
            // evidence) and may stream rows like a plain eval.
            let mut c = match compute(inner, flag("stream"), flag("no_cache"), false) {
                Op::Compute(c) => c,
                _ => unreachable!(),
            };
            c.certificate = true;
            Op::Compute(c)
        }
        "eval" => compute(
            eval_kind()?,
            flag("stream"),
            flag("no_cache") || trace,
            trace,
        ),
        "eso" => compute(eso_kind()?, false, flag("no_cache") || trace, trace),
        "datalog" => compute(
            datalog_kind()?,
            flag("stream"),
            flag("no_cache") || trace,
            trace,
        ),
        "explain" => {
            let inner = match json.get("target").and_then(Json::as_str).unwrap_or("eval") {
                "eval" => eval_kind()?,
                "eso" => eso_kind()?,
                "datalog" => datalog_kind()?,
                other => {
                    return Err((
                        id,
                        ProtoError::new(
                            "bad_request",
                            format!("`explain` target must be eval|eso|datalog, got `{other}`"),
                        ),
                    ))
                }
            };
            // Explain reports are never served from the result cache:
            // static ones are cheap, analyzed ones must be measured.
            compute(
                ComputeKind::Explain {
                    inner: Box::new(inner),
                    analyze: flag("analyze"),
                },
                false,
                true,
                false,
            )
        }
        "lint" => {
            let inner = match json.get("target").and_then(Json::as_str).unwrap_or("eval") {
                "eval" => eval_kind()?,
                "eso" => eso_kind()?,
                "datalog" => datalog_kind()?,
                other => {
                    return Err((
                        id,
                        ProtoError::new(
                            "bad_request",
                            format!("`lint` target must be eval|eso|datalog, got `{other}`"),
                        ),
                    ))
                }
            };
            // Lint reports are cheap and never evaluate, so they bypass
            // the result cache entirely.
            compute(
                ComputeKind::Lint {
                    inner: Box::new(inner),
                    budget: opt_u64("budget"),
                },
                false,
                true,
                false,
            )
        }
        "debug_sleep" => compute(
            ComputeKind::Sleep {
                millis: opt_u64("millis").unwrap_or(100),
            },
            false,
            true,
            false,
        ),
        other => {
            return Err((
                id,
                ProtoError::new(
                    "unknown_op",
                    format!("unknown op `{other}`; supported ops: {}", OPS.join(", ")),
                ),
            ))
        }
    };
    let parsed = match parsed {
        Op::Compute(mut c) => {
            if !matches!(c.kind, ComputeKind::Sleep { .. }) {
                c.db = need_str("db")?;
            }
            Op::Compute(c)
        }
        other => other,
    };
    Ok(Request { id, op: parsed })
}

/// Builds an `ok:true` response with the given extra fields.
pub fn ok_response(id: &Json, fields: Vec<(String, Json)>) -> Json {
    let mut obj = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
    ];
    obj.extend(fields);
    Json::Obj(obj)
}

/// Builds an `ok:false` response carrying a structured error.
pub fn err_response(id: &Json, err: &ProtoError) -> Json {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(false)),
        (
            "error".to_string(),
            Json::obj([
                ("code", Json::Str(err.code.clone())),
                ("message", Json::Str(err.message.clone())),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_eval_request() {
        let req = parse_request(
            r#"{"op":"eval","id":7,"db":"g","query":"(x1) E(x1,x1)","k":3,"stream":true}"#,
        )
        .unwrap();
        assert_eq!(req.id, Json::Num(7.0));
        match req.op {
            Op::Compute(c) => {
                assert_eq!(c.db, "g");
                assert!(c.stream);
                assert!(!c.trace);
                match c.kind {
                    ComputeKind::Eval { query, k, .. } => {
                        assert_eq!(query, "(x1) E(x1,x1)");
                        assert_eq!(k, Some(3));
                    }
                    other => panic!("wrong kind: {other:?}"),
                }
            }
            other => panic!("wrong op: {other:?}"),
        }
    }

    #[test]
    fn trace_flag_implies_no_cache() {
        let req = parse_request(r#"{"op":"eval","db":"g","query":"(x1) E(x1,x1)","trace":true}"#)
            .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.trace);
        assert!(c.no_cache, "traced requests must bypass the result cache");
        let req = parse_request(
            r#"{"op":"datalog","db":"g","program":"T(x) :- P(x).","output":"T","trace":true}"#,
        )
        .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.trace && c.no_cache);
    }

    #[test]
    fn parses_explain_requests() {
        let req =
            parse_request(r#"{"op":"explain","db":"g","query":"(x1) E(x1,x1)","analyze":true}"#)
                .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.no_cache);
        let ComputeKind::Explain { inner, analyze } = c.kind else {
            panic!("wrong kind")
        };
        assert!(analyze);
        assert!(matches!(*inner, ComputeKind::Eval { .. }));
        let req = parse_request(
            r#"{"op":"explain","db":"g","target":"datalog","program":"T(x) :- P(x).","output":"T"}"#,
        )
        .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        let ComputeKind::Explain { inner, analyze } = c.kind else {
            panic!("wrong kind")
        };
        assert!(!analyze);
        assert!(matches!(*inner, ComputeKind::Datalog { .. }));
        let (_, err) =
            parse_request(r#"{"op":"explain","db":"g","target":"warp","query":"q"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn parses_lint_requests() {
        let req =
            parse_request(r#"{"op":"lint","db":"g","query":"(x1) P(x1)","budget":1000}"#).unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.no_cache, "lint reports are never cached");
        assert!(!c.trace && !c.stream);
        let ComputeKind::Lint { inner, budget } = c.kind else {
            panic!("wrong kind")
        };
        assert_eq!(budget, Some(1000));
        assert!(matches!(*inner, ComputeKind::Eval { .. }));
        let req = parse_request(
            r#"{"op":"lint","db":"g","target":"datalog","program":"T(x) :- P(x).","output":"T"}"#,
        )
        .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        let ComputeKind::Lint { inner, budget } = c.kind else {
            panic!("wrong kind")
        };
        assert_eq!(budget, None);
        assert!(matches!(*inner, ComputeKind::Datalog { .. }));
        let (_, err) =
            parse_request(r#"{"op":"lint","db":"g","target":"warp","query":"q"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn parses_mutation_requests() {
        let req = parse_request(r#"{"op":"insert","db":"g","rel":"E","tuple":[0,4]}"#).unwrap();
        let Op::Mutate { db, muts } = req.op else {
            panic!("wrong op")
        };
        assert_eq!(db, "g");
        assert_eq!(
            muts,
            vec![Mutation::Insert {
                rel: "E".into(),
                tuple: vec![0, 4]
            }]
        );
        let req = parse_request(r#"{"op":"delete","db":"g","rel":"E","tuple":[0,4]}"#).unwrap();
        let Op::Mutate { muts, .. } = req.op else {
            panic!("wrong op")
        };
        assert!(matches!(muts[0], Mutation::Delete { .. }));
        let req = parse_request(
            r#"{"op":"batch","db":"g","muts":[{"rel":"E","tuple":[0,4]},{"rel":"E","tuple":[1,2],"delete":true}]}"#,
        )
        .unwrap();
        let Op::Mutate { muts, .. } = req.op else {
            panic!("wrong op")
        };
        assert_eq!(muts.len(), 2);
        assert!(matches!(muts[0], Mutation::Insert { .. }));
        assert!(matches!(muts[1], Mutation::Delete { .. }));
        // Malformed tuples are structured bad_request errors.
        let (_, err) =
            parse_request(r#"{"op":"insert","db":"g","rel":"E","tuple":[0,-1]}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let (_, err) = parse_request(r#"{"op":"insert","db":"g","rel":"E"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let (_, err) = parse_request(r#"{"op":"batch","db":"g"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn parses_subscription_requests() {
        let req = parse_request(
            r#"{"op":"subscribe","db":"g","target":"datalog","program":"T(x) :- P(x).","output":"T"}"#,
        )
        .unwrap();
        let Op::Subscribe { db, inner } = req.op else {
            panic!("wrong op")
        };
        assert_eq!(db, "g");
        assert!(matches!(*inner, ComputeKind::Datalog { .. }));
        // `eval` is the default target.
        let req = parse_request(r#"{"op":"subscribe","db":"g","query":"(x1) P(x1)"}"#).unwrap();
        let Op::Subscribe { inner, .. } = req.op else {
            panic!("wrong op")
        };
        assert!(matches!(*inner, ComputeKind::Eval { .. }));
        // ESO has no standing-query semantics on the wire.
        let (_, err) =
            parse_request(r#"{"op":"subscribe","db":"g","target":"eso","query":"q"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let req = parse_request(r#"{"op":"unsubscribe","sub":3}"#).unwrap();
        assert!(matches!(req.op, Op::Unsubscribe { sub: 3 }));
        let (_, err) = parse_request(r#"{"op":"unsubscribe"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
        let req = parse_request(r#"{"op":"subscriptions"}"#).unwrap();
        assert!(matches!(req.op, Op::Subscriptions));
    }

    #[test]
    fn parses_certified_and_replica_requests() {
        let req =
            parse_request(r#"{"op":"eval_certified","db":"g","query":"(x1) E(x1,x1)"}"#).unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.certificate);
        assert!(!c.trace, "certified requests never trace");
        assert!(matches!(c.kind, ComputeKind::Eval { .. }));
        let req = parse_request(
            r#"{"op":"eval_certified","db":"g","target":"datalog","program":"T(x) :- P(x).","output":"T"}"#,
        )
        .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.certificate);
        assert!(matches!(c.kind, ComputeKind::Datalog { .. }));
        let (_, err) =
            parse_request(r#"{"op":"eval_certified","db":"g","target":"warp","query":"q"}"#)
                .unwrap_err();
        assert_eq!(err.code, "bad_request");
        // Plain ops never set the certificate flag.
        let req = parse_request(r#"{"op":"eval","db":"g","query":"q"}"#).unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(!c.certificate);

        let req = parse_request(r#"{"op":"register_replica","addr":"127.0.0.1:9"}"#).unwrap();
        let Op::RegisterReplica { addr } = req.op else {
            panic!("wrong op")
        };
        assert_eq!(addr, "127.0.0.1:9");
        let (_, err) = parse_request(r#"{"op":"register_replica"}"#).unwrap_err();
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn certified_wire_line_round_trips_through_the_parser() {
        let kind = ComputeKind::Eval {
            query: "(x1) \"quoted\" E(x1,x1)".into(),
            k: Some(3),
            naive: true,
            minimize: false,
            threads: Some(4),
            backend: BackendMode::Bdd,
        };
        let line = certified_wire_line("g", &kind).unwrap();
        let req = parse_request(&line).unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(c.certificate);
        assert_eq!(c.db, "g");
        let ComputeKind::Eval {
            query,
            k,
            naive,
            backend,
            ..
        } = c.kind
        else {
            panic!("wrong kind")
        };
        assert_eq!(query, "(x1) \"quoted\" E(x1,x1)");
        assert_eq!(k, Some(3));
        assert!(naive);
        assert_eq!(backend, BackendMode::Bdd);

        let kind = ComputeKind::Datalog {
            program: "T(x) :- P(x).".into(),
            output: "T".into(),
            naive: false,
            backend: BackendMode::Auto,
        };
        let line = certified_wire_line("db2", &kind).unwrap();
        let req = parse_request(&line).unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        assert!(matches!(c.kind, ComputeKind::Datalog { .. }));

        // ESO (textual answers) and non-executions are never fanned out.
        assert!(certified_wire_line(
            "g",
            &ComputeKind::Eso {
                query: "q".into(),
                k: None
            }
        )
        .is_none());
        assert!(certified_wire_line("g", &ComputeKind::Sleep { millis: 1 }).is_none());
    }

    #[test]
    fn malformed_json_is_bad_request() {
        let (id, err) = parse_request("{nope").unwrap_err();
        assert_eq!(id, Json::Null);
        assert_eq!(err.code, "bad_request");
    }

    #[test]
    fn missing_fields_echo_id() {
        let (id, err) = parse_request(r#"{"op":"eval","id":"a"}"#).unwrap_err();
        assert_eq!(id, Json::Str("a".into()));
        assert_eq!(err.code, "bad_request");
        let (_, err) = parse_request(r#"{"op":"warp"}"#).unwrap_err();
        assert_eq!(err.code, "unknown_op");
        assert!(
            err.message.contains("supported ops:") && err.message.contains("explain"),
            "unknown_op lists the supported set, got: {}",
            err.message
        );
    }

    #[test]
    fn unknown_request_fields_are_ignored() {
        // The forward-compatibility rule: a request with fields this
        // server has never heard of is still valid.
        let req = parse_request(r#"{"op":"ping","shiny":1,"future_mode":"hyper"}"#).unwrap();
        assert!(matches!(req.op, Op::Ping));
        let req = parse_request(
            r#"{"op":"eval","db":"g","query":"(x1) E(x1,x1)","wormhole":true,"priority":9}"#,
        )
        .unwrap();
        assert!(matches!(req.op, Op::Compute(_)));
    }

    #[test]
    fn cache_keys_distinguish_options() {
        let a = ComputeKind::Eval {
            query: "q".into(),
            k: Some(2),
            naive: false,
            minimize: false,
            threads: None,
            backend: BackendMode::Auto,
        };
        let b = ComputeKind::Eval {
            query: "q".into(),
            k: Some(3),
            naive: false,
            minimize: false,
            threads: Some(4),
            backend: BackendMode::Auto,
        };
        assert_ne!(a.cache_key(), b.cache_key());
        // Threads never affect answers, so they are not in the key.
        let c = ComputeKind::Eval {
            query: "q".into(),
            k: Some(3),
            naive: false,
            minimize: false,
            threads: None,
            backend: BackendMode::Auto,
        };
        assert_eq!(b.cache_key(), c.cache_key());
        // `auto` keeps the historical key; a forced backend joins it.
        assert!(!c.cache_key().contains("backend="));
        let forced = ComputeKind::Eval {
            query: "q".into(),
            k: Some(3),
            naive: false,
            minimize: false,
            threads: None,
            backend: BackendMode::Bdd,
        };
        assert_ne!(forced.cache_key(), c.cache_key());
        assert!(forced.cache_key().contains("backend=bdd|"));
        let e = ComputeKind::Explain {
            inner: Box::new(c),
            analyze: true,
        };
        assert!(e.cache_key().starts_with("explain|analyze=true|eval|"));
    }

    #[test]
    fn parses_backend_field() {
        let req =
            parse_request(r#"{"op":"eval","db":"g","query":"(x1) E(x1,x1)","backend":"bdd"}"#)
                .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        let ComputeKind::Eval { backend, .. } = c.kind else {
            panic!("wrong kind")
        };
        assert_eq!(backend, BackendMode::Bdd);
        // Absent means auto; Datalog accepts the field too.
        let req = parse_request(
            r#"{"op":"datalog","db":"g","program":"T(x) :- P(x).","output":"T","backend":"dense"}"#,
        )
        .unwrap();
        let Op::Compute(c) = req.op else {
            panic!("wrong op")
        };
        let ComputeKind::Datalog { backend, .. } = c.kind else {
            panic!("wrong kind")
        };
        assert_eq!(backend, BackendMode::Dense);
        // An unknown value, the retired `sparse` included, is a
        // structured invalid_option, not a silent fall-back to auto.
        for bad in ["warp", "sparse"] {
            let line = format!(r#"{{"op":"eval","db":"g","query":"q","backend":"{bad}"}}"#);
            let (_, err) = parse_request(&line).unwrap_err();
            assert_eq!(err.code, "invalid_option");
            assert!(err.message.contains("auto|dense|bdd"), "{}", err.message);
        }
    }

    #[test]
    fn responses_round_trip() {
        let ok = ok_response(&Json::Num(1.0), vec![("pong".into(), Json::Bool(true))]);
        let parsed = Json::parse(&ok.to_string_compact()).unwrap();
        assert!(parsed.get("ok").map(Json::is_true).unwrap());
        let err = err_response(&Json::Null, &ProtoError::new("overloaded", "queue full"));
        let parsed = Json::parse(&err.to_string_compact()).unwrap();
        assert_eq!(
            parsed
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded")
        );
    }
}
