//! The traced run: spans recorded around calls into each crate's public
//! functions, from the benchmark's own code. The server is never
//! instrumented, so measured and traced runs execute the same server.
//!
//! For each request the recorder opens a root span `request` whose
//! children replay the server's uncached path in-process:
//! `protocol.parse_request`, `exec.prepare_request`,
//! `exec.execute_prepared`, `json.encode` and `json.decode`. Probe spans
//! outside the root time `core.plan_query`, `cert.*`, the `ivm.*` calls,
//! and a `loopback` round trip of the same request over one connection.

use std::time::Instant;

use bvq_core::{plan_query, PlanChoice};
use bvq_ivm::{AnswerDelta, MutableDb, StandingQuery};
use bvq_relation::{Database, EvalConfig, EvalStats};
use bvq_server::exec::{
    check_certificate, execute_prepared, prepare_request, Answer, CompileMode, ExecOutcome,
    ExecRequest, Prepared,
};
use bvq_server::protocol::{ok_response, parse_request};
use bvq_server::{Json, Language};

use crate::gen::{self, Body, Next, Request, Stream, Workload, CERT_TEMPLATES, TEMPLATES};
use crate::stats::{mean, median};
use crate::wire::{parse_reply, scan_stream_line, Conn, Reply, Signature};

/// Repetitions of each template probe; the median is reported.
const PROBE_REPS: usize = 5;
/// Mutations of `write_mix`'s sequence replayed in-process.
const IVM_MUTATIONS: usize = 120;
/// Every how many replayed mutations the closure is recomputed cold.
const IVM_RECOMPUTE_EVERY: usize = 10;
/// Templates whose loopback time is at least this many µs must have
/// their in-process layers cover [`COVERAGE_FLOOR`] of it.
pub const COVERAGE_MIN_US: f64 = 5_000.0;
/// The share of loopback time the in-process layers must cover.
pub const COVERAGE_FLOOR: f64 = 0.8;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (index into the recorder's list).
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: u64,
    /// Layer name.
    pub name: &'static str,
    /// What was measured (template or request label).
    pub detail: String,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; [`Recorder::to_json`] writes them out.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    next_request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            next_request: 0,
        }
    }
}

impl Recorder {
    /// A fresh request id.
    pub fn request(&mut self) -> u64 {
        self.next_request += 1;
        self.next_request
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        detail: &str,
    ) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            id: self.spans.len(),
            parent,
            request,
            name,
            detail: detail.to_string(),
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in µs.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        span.duration_ns() as f64 / 1e3
    }

    /// Runs `f` inside a span; returns its result and duration in µs.
    pub fn time<T>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        detail: &str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(request, parent, name, detail);
        let out = f();
        (out, self.close(id))
    }

    /// Per layer: spans, total µs, and self µs (duration minus the time
    /// covered by child spans).
    pub fn layers(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for s in &self.spans {
            let self_ns = s.duration_ns().saturating_sub(child_ns[s.id]);
            let row = match out.iter_mut().find(|r| r.0 == s.name) {
                Some(r) => r,
                None => {
                    out.push((s.name, 0, 0.0, 0.0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.duration_ns() as f64 / 1e3;
            row.3 += self_ns as f64 / 1e3;
        }
        out
    }

    /// Every span plus the per-layer self-time summary, as JSON.
    pub fn to_json(&self) -> Json {
        let f = |v: f64| Json::Num(v);
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::num(s.id as u64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::num(p as u64)),
                    ),
                    ("request", Json::num(s.request)),
                    ("name", Json::str(s.name)),
                    ("detail", Json::str(s.detail.as_str())),
                    ("start_ns", Json::num(s.start_ns)),
                    ("end_ns", Json::num(s.end_ns)),
                ])
            })
            .collect();
        let layers = self
            .layers()
            .into_iter()
            .map(|(name, n, total, own)| {
                Json::obj([
                    ("name", Json::str(name)),
                    ("spans", Json::num(n as u64)),
                    ("total_us", f(total)),
                    ("self_us", f(own)),
                ])
            })
            .collect();
        Json::obj([("layers", Json::Arr(layers)), ("spans", Json::Arr(spans))])
    }
}

/// The layer times of one in-process replay of a request's uncached
/// server path, µs.
#[derive(Clone, Debug, Default)]
pub struct Pipeline {
    /// `protocol::parse_request` of the wire line.
    pub parse_us: f64,
    /// `exec::prepare_request`.
    pub prepare_us: f64,
    /// `exec::execute_prepared` with the server's default options.
    pub execute_us: f64,
    /// Building and serializing the response.
    pub encode_us: f64,
    /// `Json::parse` of the response.
    pub decode_us: f64,
    /// Answer rows.
    pub rows: u64,
    /// The answer's signature.
    pub sig: Signature,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl Pipeline {
    /// The time the in-process layers account for, µs.
    pub fn total_us(&self) -> f64 {
        self.parse_us + self.prepare_us + self.execute_us + self.encode_us + self.decode_us
    }
}

/// Replays `req`'s uncached server path in-process under a root span.
pub fn pipeline(
    rec: &mut Recorder,
    db: &Database,
    req: &Request,
) -> Result<(Pipeline, Prepared), String> {
    let line = req.wire_line(false);
    let rid = rec.request();
    let detail = format!("{}@{}", req.template, req.db);
    let root = rec.open(rid, None, "request", &detail);
    let mut p = Pipeline::default();
    let (parsed, us) = rec.time(rid, Some(root), "protocol.parse_request", &detail, || {
        parse_request(&line)
    });
    p.parse_us = us;
    parsed.map_err(|(_, e)| format!("{line}: {}", e.message))?;
    let ereq = req.exec_request(CompileMode::Auto);
    let (prepared, us) = rec.time(rid, Some(root), "exec.prepare_request", &detail, || {
        prepare_request(&ereq)
    });
    p.prepare_us = us;
    let prepared = prepared.map_err(|e| format!("{line}: {e}"))?;
    let (out, us) = rec.time(rid, Some(root), "exec.execute_prepared", &detail, || {
        execute_prepared(db, &prepared, &ereq)
    });
    p.execute_us = us;
    let out = out.map_err(|e| format!("{line}: {e}"))?;
    p.sig = Signature::of_answer(&out.answer);
    p.rows = p.sig.rows;
    p.stats = out.stats;
    let (encoded, us) = rec.time(rid, Some(root), "json.encode", &detail, || encode(&out));
    p.encode_us = us;
    let (decoded, us) = rec.time(rid, Some(root), "json.decode", &detail, || {
        Json::parse(&encoded)
    });
    p.decode_us = us;
    decoded.map_err(|e| format!("re-decoding the response failed: {e}"))?;
    rec.close(root);
    Ok((p, prepared))
}

/// The response the server writes for an uncached, unstreamed answer.
fn encode(out: &ExecOutcome) -> String {
    let mut fields = vec![
        ("language".to_string(), Json::str(out.language.label())),
        ("cached".to_string(), Json::Bool(false)),
    ];
    match &out.answer {
        Answer::Rows(rel) => {
            let rows = rel
                .sorted()
                .iter()
                .map(|t| {
                    Json::Arr(
                        t.as_slice()
                            .iter()
                            .map(|&e| Json::num(u64::from(e)))
                            .collect(),
                    )
                })
                .collect::<Vec<_>>();
            fields.push(("count".to_string(), Json::num(rows.len() as u64)));
            fields.push(("rows".to_string(), Json::Arr(rows)));
        }
        Answer::Boolean(b) => fields.push(("boolean".to_string(), Json::Bool(*b))),
        Answer::Text(t) => fields.push(("text".to_string(), Json::str(t.as_str()))),
    }
    ok_response(&Json::Null, fields).to_string_compact()
}

/// Sends `line` over `conn` inside a `loopback` span and checks the
/// answer; returns the round trip in µs.
pub fn loopback(
    rec: &mut Recorder,
    conn: &mut Conn,
    line: &str,
    expected: Signature,
    detail: &str,
) -> Result<f64, String> {
    let rid = rec.request();
    let id = rec.open(rid, None, "loopback", detail);
    let reply = conn.call(line, |_| {}).map_err(|e| e.to_string())?;
    let sig = match parse_reply(&reply)? {
        Reply::Ok {
            stream: Some(_), ..
        } => {
            let mut sig = Signature::default();
            while scan_stream_line(conn.recv().map_err(|e| e.to_string())?, &mut sig)? {}
            sig
        }
        Reply::Ok { sig, .. } => sig,
        Reply::Err(code) => return Err(format!("{line}: server answered {code}")),
    };
    let us = rec.close(id);
    if sig != expected {
        return Err(format!(
            "{line}: loopback answer {sig:?} differs from {expected:?}"
        ));
    }
    Ok(us)
}

/// Replays each distinct request of the workload in-process and over one
/// connection to its server. Returns the aggregate layer metrics.
pub fn workload_requests(
    rec: &mut Recorder,
    plan: &gen::Plan,
    conn: &mut Conn,
) -> Result<Vec<(String, f64)>, String> {
    let mut parse = Vec::new();
    let mut prepare = Vec::new();
    let (mut encode_us, mut decode_us, mut rows) = (0.0, 0.0, 0u64);
    for req in &plan.pool {
        let db = &plan
            .dbs
            .iter()
            .find(|d| d.name == req.db)
            .expect("pool requests address generated dbs")
            .db;
        let (p, _) = pipeline(rec, db, req)?;
        let detail = format!("{}@{}", req.template, req.db);
        loopback(rec, conn, &req.wire_line(false), p.sig, &detail)?;
        parse.push(p.parse_us);
        prepare.push(p.prepare_us);
        encode_us += p.encode_us;
        decode_us += p.decode_us;
        rows += p.rows;
    }
    let per_krow = |us: f64| us * 1000.0 / rows.max(1) as f64;
    Ok(vec![
        ("protocol.parse_request_us".into(), mean(&parse)),
        ("exec.prepare_us".into(), mean(&prepare)),
        ("json.encode_us_per_krow".into(), per_krow(encode_us)),
        ("json.decode_us_per_krow".into(), per_krow(decode_us)),
    ])
}

fn med(v: &[f64]) -> f64 {
    median(v).unwrap_or(0.0)
}

/// What the template probes measured.
pub struct TemplateProbes {
    /// Per-template metrics.
    pub metrics: Vec<(String, f64)>,
    /// The smallest share of a template's loopback time the in-process
    /// layers cover, over templates of at least [`COVERAGE_MIN_US`].
    pub coverage: f64,
    /// Each such template's share, for the report.
    pub notes: Vec<String>,
}

/// The per-template probes: planning, execution, evaluation statistics,
/// loopback residual and layer coverage. `conn` is connected to a
/// default server holding `dbs`.
pub fn template_probes(
    rec: &mut Recorder,
    dbs: &[gen::GenDb],
    reqs: &[Request],
    conn: &mut Conn,
) -> Result<TemplateProbes, String> {
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let mut coverage = f64::INFINITY;
    for (name, req) in TEMPLATES.iter().zip(reqs) {
        let db = &dbs.iter().find(|d| d.name == req.db).expect("probe db").db;
        let line = req.wire_line(false);
        let (mut plan_us, mut exec_us, mut resid, mut shares, mut loops) =
            (vec![], vec![], vec![], vec![], vec![]);
        // Datalog runs its compiled rule kernels unless traced; ESO is
        // never compiled.
        let mut compiled = matches!(req.body, Body::Datalog { .. });
        let mut stats = EvalStats::default();
        for _ in 0..PROBE_REPS {
            let (p, prepared) = pipeline(rec, db, req)?;
            if let Prepared::Query(plan) = &prepared {
                // Planned with the feedback the execution just recorded,
                // as the server plans a cached query.
                let rid = rec.request();
                let (planned, us) = rec.time(rid, None, "core.plan_query", name, || {
                    plan_query(
                        db,
                        &plan.query,
                        plan.k,
                        plan.language == Language::Pfp,
                        plan.feedback.get().as_ref(),
                    )
                });
                plan_us.push(us);
                // A query that does not lower runs interpreted.
                compiled = planned.is_ok_and(|qp| qp.choice() != PlanChoice::Interpreted);
            }
            let lb = loopback(rec, conn, &line, p.sig, name)?;
            exec_us.push(p.execute_us);
            resid.push(lb - p.total_us());
            // Each replay is paired with the round trip right after it,
            // so a scheduling hiccup spoils one pair, not the median.
            shares.push(p.total_us() / lb);
            loops.push(lb);
            stats = p.stats;
        }
        metrics.push((format!("core.plan_us.{name}"), med(&plan_us)));
        metrics.push((format!("exec.execute_us.{name}"), med(&exec_us)));
        metrics.push((
            format!("core.compiled.{name}"),
            f64::from(u8::from(compiled)),
        ));
        metrics.push((
            format!("relation.rounds.{name}"),
            stats.fixpoint_iterations as f64,
        ));
        metrics.push((format!("relation.tuples.{name}"), stats.total_tuples as f64));
        metrics.push((
            format!("relation.peak_bytes.{name}"),
            stats.peak_bytes as f64,
        ));
        metrics.push((format!("server.residual_us.{name}"), med(&resid)));
        let lb = med(&loops);
        if lb >= COVERAGE_MIN_US {
            let share = med(&shares);
            notes.push(format!(
                "coverage {name}: in-process layers cover {share:.3} of {lb:.0} us loopback"
            ));
            coverage = coverage.min(share);
        }
    }
    if coverage.is_infinite() {
        return Err(format!(
            "no template took {COVERAGE_MIN_US} µs over loopback; coverage is undefined"
        ));
    }
    Ok(TemplateProbes {
        metrics,
        coverage,
        notes,
    })
}

/// Median wall time of `reps` runs of `f`, µs.
fn time_median(reps: usize, mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut v = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f()?;
        v.push(t.elapsed().as_secs_f64() * 1e6);
    }
    Ok(med(&v))
}

/// Certificate emission and checking for [`CERT_TEMPLATES`], against the
/// fastest engine that computes the same answer: `compile=auto`,
/// `compile=off`, and for the transitive closure both its FP and its
/// Datalog form.
pub fn cert_probes(
    rec: &mut Recorder,
    dbs: &[gen::GenDb],
    reqs: &[Request],
) -> Result<Vec<(String, f64)>, String> {
    let mut metrics = Vec::new();
    for name in CERT_TEMPLATES {
        let i = TEMPLATES
            .iter()
            .position(|t| *t == name)
            .expect("cert template");
        let req = &reqs[i];
        let db = &dbs.iter().find(|d| d.name == req.db).expect("probe db").db;
        let ereq = req.exec_request(CompileMode::Auto);
        let prepared = prepare_request(&ereq).map_err(|e| e.to_string())?;
        let rid = rec.request();
        let (cert, emit_us) = rec.time(rid, None, "cert.emit", name, || match &prepared {
            Prepared::Query(p) => {
                bvq_core::certgen::certify_query(db, &p.query).map(|c| c.encode())
            }
            Prepared::Datalog(p) => {
                bvq_core::certgen::certify_datalog(db, &p.program, "T").map(|c| c.encode())
            }
            Prepared::Eso(_) => unreachable!("no ESO template is certified here"),
        });
        let cert = cert.map_err(|e| format!("{name}: certificate emission failed: {e}"))?;
        let mut checks = Vec::new();
        for _ in 0..PROBE_REPS {
            let (checked, us) = rec.time(rid, None, "cert.check_text", name, || {
                check_certificate(db, &prepared, &ereq, &cert)
            });
            checked.map_err(|e| format!("{name}: honest certificate rejected: {e:?}"))?;
            checks.push(us);
        }
        let check_us = med(&checks);
        let mut engines: Vec<Request> = vec![req.clone()];
        if name == "fp_tc" || name == "dl_tc" {
            let other = if name == "fp_tc" { "dl_tc" } else { "fp_tc" };
            engines.push(gen::template(other, &req.db, 0));
        }
        let mut fastest = f64::INFINITY;
        for engine in &engines {
            for mode in [CompileMode::Auto, CompileMode::Off] {
                let er = engine.exec_request(mode);
                let p = prepare_request(&er).map_err(|e| e.to_string())?;
                let us = time_median(PROBE_REPS, || {
                    execute_prepared(db, &p, &er)
                        .map(|_| ())
                        .map_err(|e| e.to_string())
                })?;
                fastest = fastest.min(us);
            }
        }
        metrics.push((format!("cert.emit_us.{name}"), emit_us));
        metrics.push((format!("cert.check_us.{name}"), check_us));
        metrics.push((format!("cert.bytes.{name}"), cert.len() as f64));
        metrics.push((
            format!("cert.check_vs_fastest_pct.{name}"),
            check_us * 100.0 / fastest,
        ));
    }
    Ok(metrics)
}

/// Replays the start of `write_mix`'s mutation sequence through
/// `MutableDb::apply`, a DRed-maintained transitive closure and a
/// re-evaluated FO 2-hop, with a cold recompute every few mutations.
pub fn ivm_probes(rec: &mut Recorder, seed: u64) -> Result<Vec<(String, f64)>, String> {
    let plan = gen::plan(Workload::WriteMix, seed);
    let db = plan.dbs[0].db.clone();
    let cfg = EvalConfig::from_env();
    let program = bvq_datalog::parse_program(gen::TC_PROGRAM).map_err(|e| e.to_string())?;
    let mut mdb = MutableDb::new(db);
    let mut tc =
        StandingQuery::install(program.clone(), "T", mdb.db(), &cfg).map_err(|e| e.to_string())?;
    let rediff = ExecRequest::query(match &plan.subs[1].request.body {
        Body::Query(q) => q.clone(),
        _ => unreachable!("write_mix's second subscription is an FO query"),
    });
    let rediff_plan = prepare_request(&rediff).map_err(|e| e.to_string())?;
    let answer_of = |db: &Database| -> Result<bvq_relation::Relation, String> {
        match execute_prepared(db, &rediff_plan, &rediff)
            .map_err(|e| e.to_string())?
            .answer
        {
            Answer::Rows(r) => Ok(r),
            _ => Err("the FO 2-hop answers rows".into()),
        }
    };
    let mut fo_answer = answer_of(mdb.db())?;
    let mut stream = Stream::new(&plan, 0, 0);
    let (mut apply, mut ins, mut del, mut rediffs, mut cold, mut delta_rows) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    for k in 0..IVM_MUTATIONS {
        let Next::Mutate(m) = stream.next_request() else {
            unreachable!("write_mix's connection 0 mutates")
        };
        let rid = rec.request();
        let old = mdb.snapshot();
        let (delta, us) = rec.time(rid, None, "ivm.apply", "E", || mdb.apply(&[m.to_ivm()]));
        let delta = delta.map_err(|e| e.to_string())?;
        apply.push(us);
        let span = if m.delete {
            "ivm.dred_delete"
        } else {
            "ivm.dred_insert"
        };
        let (d, us) = rec.time(rid, None, span, "T", || {
            tc.apply(&old.db, mdb.db(), &delta, &cfg)
        });
        let d = d.map_err(|e| e.to_string())?;
        if m.delete { &mut del } else { &mut ins }.push(us);
        delta_rows.push((d.added.len() + d.removed.len()) as f64);
        let (new, us) = rec.time(rid, None, "ivm.rediff", "fo_2hop", || {
            answer_of(mdb.db()).map(|new| (AnswerDelta::diff(&fo_answer, &new), new))
        });
        fo_answer = new?.1;
        rediffs.push(us);
        if k % IVM_RECOMPUTE_EVERY == 0 {
            let (fresh, us) = rec.time(rid, None, "ivm.recompute", "T", || {
                bvq_datalog::eval_seminaive_with(&program, mdb.db(), &cfg)
            });
            let fresh = fresh.map_err(|e| e.to_string())?;
            if fresh.get("T") != Some(tc.answer()) {
                return Err("DRed-maintained closure differs from a cold recompute".into());
            }
            cold.push(us);
        }
    }
    let recompute = mean(&cold);
    Ok(vec![
        ("ivm.apply_us".into(), mean(&apply)),
        ("ivm.dred_insert_us".into(), mean(&ins)),
        ("ivm.dred_delete_us".into(), mean(&del)),
        ("ivm.rediff_us".into(), mean(&rediffs)),
        ("ivm.recompute_us".into(), recompute),
        (
            "ivm.delete_vs_recompute_pct".into(),
            mean(&del) * 100.0 / recompute,
        ),
        ("ivm.answer_delta_rows".into(), mean(&delta_rows)),
    ])
}

/// Median ping round trip over `conn`, µs.
pub fn ping_rtt_us(conn: &mut Conn, n: usize) -> Result<f64, String> {
    time_median(n, || {
        let reply = conn
            .call("{\"op\":\"ping\"}", |_| {})
            .map_err(|e| e.to_string())?;
        if reply.contains("\"pong\":true") {
            Ok(())
        } else {
            Err(format!("bad ping reply: {reply}"))
        }
    })
}
