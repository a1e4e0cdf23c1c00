//! # bvq-benchmark
//!
//! The repository's end-to-end benchmark. Each run generates one
//! workload from a seed, starts `bvq serve` as a child process (the
//! benchmark's own binary re-executed as `serve-child`, which calls
//! [`bvq_cli::run_serve`]), loads the generated databases over the wire,
//! and drives a closed loop of connections with no think time. Every
//! answer is checked against a reference computed in-process with the
//! interpreter before any server starts.
//!
//! A measured run is split into rounds, each against a freshly started
//! server: the process-level luck of one start (thread placement,
//! address layout) moves a single server's numbers by 10–20% on a small
//! host, and pooling the rounds' samples averages it out.
//!
//! With tracing off a run reports the end-to-end metrics; with tracing
//! on it reports per-layer metrics, timed from outside the server: the
//! server's own `stats`/`subscriptions` counters diffed over the window,
//! and spans around calls into each crate's public functions
//! ([`trace`]). See `BENCHMARK.md` for the workloads, the metrics and
//! which layer metric should move which end-to-end metric.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod load;
pub mod proc;
pub mod report;
pub mod stats;
pub mod trace;
pub mod wire;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bvq_server::exec::{execute, CompileMode};
use bvq_server::Json;

use crate::gen::{Plan, Workload};
use crate::load::{ConnOutcome, Live};
use crate::proc::ServerProc;
use crate::report::{Metric, RunReport, COVERAGE, END_TO_END};
use crate::stats::{median, percentile, MIN_BEYOND};
use crate::wire::{Conn, Signature};

/// Pings timed for `wire.ping_rtt_us`.
const PINGS: usize = 200;

/// One run's settings.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is generated from.
    pub seed: u64,
    /// Total length of the measured windows, split evenly over rounds.
    pub seconds: f64,
    /// Stop after this many requests in total (split over rounds and
    /// connections); tests use it to run short.
    pub max_ops: Option<u64>,
    /// Run the traced variant (per-layer metrics, one round).
    pub trace: bool,
    /// The executable that serves `serve-child`.
    pub server_exe: PathBuf,
    /// Rounds of a measured run, each with its own server; `setup_s` is
    /// the median of their set-up times.
    pub rounds: usize,
    /// Where the traced run writes its spans.
    pub trace_out: Option<PathBuf>,
}

/// Runs one workload and returns its report. `Err` means the run could
/// not be carried out (a server did not start, a connection broke);
/// wrong answers are reported in the result, not as errors.
pub fn run(cfg: &RunConfig) -> Result<RunReport, String> {
    let plan = gen::plan(cfg.workload, cfg.seed);
    let refs = references(&plan)?;
    let rounds = if cfg.trace { 1 } else { cfg.rounds.max(1) };
    let mut rec = trace::Recorder::default();
    let mut done = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let (mut live, setup_s) = load::set_up(&cfg.server_exe, &plan, &refs)?;
        let measured = measure(cfg, &plan, &refs, &mut live, (round, rounds), &mut rec);
        let shut = live.shutdown();
        done.push(Round {
            setup_s,
            ..measured?
        });
        shut?;
    }
    let mut report = RunReport {
        workload: plan.workload.name().to_string(),
        seed: plan.seed,
        trace: cfg.trace,
        metrics: Vec::new(),
        attempted: sum(&done, |o| o.attempted),
        failed: sum(&done, |o| o.failed),
        correct: false,
        problems: done.iter().flat_map(|r| r.problems.clone()).collect(),
        notes: Vec::new(),
    };
    if cfg.trace {
        let probed = probes(cfg, &mut rec)?;
        let coverage = probed.coverage;
        report.notes.extend(probed.notes);
        layers(&done[0], &mut report.metrics, probed.metrics, coverage)?;
        if coverage < trace::COVERAGE_FLOOR {
            report.problems.push(format!(
                "in-process layers cover {coverage:.3} of a template's loopback time \
                 (floor {})",
                trace::COVERAGE_FLOOR
            ));
        }
        for (name, n, total, own) in rec.layers() {
            report.notes.push(format!(
                "layer {name:<24} spans={n:<6} total_us={total:<14.1} self_us={own:.1}"
            ));
        }
        if let Some(path) = &cfg.trace_out {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            std::fs::write(path, rec.to_json().to_string_compact())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            report
                .notes
                .push(format!("spans written to {}", path.display()));
        }
    } else {
        end_to_end(&plan, &done, &mut report)?;
    }
    report.correct = report.failed == 0 && report.problems.is_empty();
    Ok(report)
}

/// Evaluates every pool request in-process with the interpreter.
fn references(plan: &Plan) -> Result<Vec<Signature>, String> {
    plan.pool
        .iter()
        .map(|r| {
            let db = &plan
                .dbs
                .iter()
                .find(|d| d.name == r.db)
                .expect("pool requests address generated dbs")
                .db;
            execute(db, &r.exec_request(CompileMode::Off))
                .map(|out| Signature::of_answer(&out.answer))
                .map_err(|e| format!("reference for {}: {e}", r.wire_line(false)))
        })
        .collect()
}

/// What one round produced, before it becomes metrics.
struct Round {
    setup_s: f64,
    outcomes: Vec<ConnOutcome>,
    wall: f64,
    cpu: f64,
    before: Json,
    after: Json,
    subscriptions: Json,
    rss_kib: u64,
    problems: Vec<String>,
    ping_us: f64,
    requests: Vec<(String, f64)>,
}

fn sum(rounds: &[Round], f: impl Fn(&ConnOutcome) -> u64) -> u64 {
    rounds.iter().flat_map(|r| &r.outcomes).map(f).sum()
}

/// Drives round `round` of `rounds`, then checks subscriptions and
/// fan-out counters and reads the servers' peak memory. The caller fills
/// in the set-up time.
fn measure(
    cfg: &RunConfig,
    plan: &Plan,
    refs: &[Signature],
    live: &mut Live,
    (round, rounds): (usize, usize),
    rec: &mut trace::Recorder,
) -> Result<Round, String> {
    const STATS: &str = "{\"op\":\"stats\"}";
    let before = load::fetch(&mut live.control, STATS)?;
    let cpu0 = cpu_seconds()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(cfg.seconds / rounds as f64);
    let conns = plan.conns.len() as u64;
    let per_conn = cfg
        .max_ops
        .map_or(u64::MAX, |n| n.div_ceil(rounds as u64 * conns));
    let mut outcomes: Vec<ConnOutcome> = std::thread::scope(|s| {
        let handles: Vec<_> = live
            .conns
            .iter_mut()
            .enumerate()
            .map(|(i, c)| s.spawn(move || load::drive(plan, i, round, c, refs, deadline, per_conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load threads do not panic"))
            .collect()
    });
    let end = outcomes
        .iter()
        .filter_map(|o| o.last)
        .max()
        .unwrap_or(start);
    let wall = end.duration_since(start).as_secs_f64();
    let cpu = cpu_seconds()? - cpu0;
    let after = load::fetch(&mut live.control, STATS)?;
    let subscriptions = load::fetch(&mut live.control, "{\"op\":\"subscriptions\"}")?;
    let mut problems = load::check_subscriptions(live, plan, &mut outcomes[0]);
    for o in &outcomes {
        problems.extend(o.errors.iter().cloned());
    }
    if plan.workload == Workload::ReplicaFanout {
        let delta = |key: &str| counter(&after, key) - counter(&before, key);
        let (checked, rejected, fallback) = (
            delta("cert_checked"),
            delta("cert_rejected"),
            delta("replica_fallback"),
        );
        if rejected > 0.0 || fallback > 0.0 || checked == 0.0 {
            problems.push(format!(
                "fan-out not verified end to end: {checked} checked, {rejected} rejected, \
                 {fallback} fell back"
            ));
        }
    }
    let mut rss_kib = 0;
    for p in &live.procs {
        rss_kib += p.peak_rss_kib()?;
    }
    let (mut ping_us, mut requests) = (0.0, Vec::new());
    if cfg.trace {
        ping_us = trace::ping_rtt_us(&mut live.control, PINGS)?;
        let mut conn = Conn::connect(live.addr()).map_err(|e| e.to_string())?;
        requests = trace::workload_requests(rec, plan, &mut conn)?;
    }
    Ok(Round {
        setup_s: 0.0,
        outcomes,
        wall,
        cpu,
        before,
        after,
        subscriptions,
        rss_kib,
        problems,
        ping_us,
        requests,
    })
}

/// The template, certificate and IVM probes, against a fresh default
/// server holding the engine databases.
fn probes(cfg: &RunConfig, rec: &mut trace::Recorder) -> Result<trace::TemplateProbes, String> {
    let (dbs, reqs) = gen::probe_requests(cfg.seed);
    let server = ServerProc::spawn(&cfg.server_exe, &[])?;
    let mut conn = Conn::connect(&server.addr).map_err(|e| e.to_string())?;
    load::load_dbs(&mut conn, &dbs)?;
    let probed = trace::template_probes(rec, &dbs, &reqs, &mut conn);
    drop(conn);
    server.shutdown()?;
    let mut probed = probed?;
    probed.metrics.extend(trace::cert_probes(rec, &dbs, &reqs)?);
    probed.metrics.extend(trace::ivm_probes(rec, cfg.seed)?);
    Ok(probed)
}

/// A numeric field of a `stats` response.
fn counter(stats: &Json, key: &str) -> f64 {
    stat(stats, &[key])
}

fn stat(stats: &Json, path: &[&str]) -> f64 {
    let mut v = stats.get("stats");
    for k in path {
        v = v.and_then(|j| j.get(k));
    }
    match v {
        Some(Json::Num(n)) => *n,
        _ => 0.0,
    }
}

/// CPU time this process has used, s (`utime + stime` from
/// `/proc/self/stat`, in clock ticks of 1/100 s).
fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat").map_err(|e| e.to_string())?;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    // Fields after the command name start at field 3 (state); utime and
    // stime are fields 14 and 15.
    Ok((tick(11)? + tick(12)?) / 100.0)
}

/// The end-to-end metrics, pooling the rounds' samples.
fn end_to_end(plan: &Plan, rounds: &[Round], report: &mut RunReport) -> Result<(), String> {
    // `write_mix` is judged by its mutations; its reads show in
    // throughput and in `loadgen.read_p50_ms`.
    let latencies = |round: &Round| -> Vec<f64> {
        round
            .outcomes
            .iter()
            .flat_map(|o| {
                if plan.workload == Workload::WriteMix {
                    o.mutations.iter().map(|m| m.1).collect::<Vec<f64>>()
                } else {
                    o.reads.iter().map(|r| r.ms).collect()
                }
            })
            .collect()
    };
    let lat: Vec<f64> = rounds.iter().flat_map(latencies).collect();
    let round_p50s: Vec<String> = rounds
        .iter()
        .map(|r| percentile(&latencies(r), 0.5).map_or("-".into(), |p| format!("{p:.4}")))
        .collect();
    report
        .notes
        .push(format!("lat_p50_ms by round: {}", round_p50s.join(" ")));
    let p50 = percentile(&lat, 0.5)?;
    let p90 = percentile(&lat, 0.9)?;
    match percentile(&lat, 0.99) {
        Ok(p99) => report.notes.push(format!(
            "lat_p99_ms = {p99:.4} ms over {} samples",
            lat.len()
        )),
        Err(e) => report.notes.push(format!("lat_p99_ms not reported: {e}")),
    }
    let completed = sum(rounds, |o| o.completed);
    let wall: f64 = rounds.iter().map(|r| r.wall).sum();
    let setups: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.rss_kib as f64 / 1024.0).collect();
    let values = [
        median(&setups).expect("at least one round"),
        p50,
        p90,
        completed as f64 / wall,
        median(&rss).expect("at least one round"),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        report.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    report.notes.extend(by_template(plan, rounds));
    report.notes.push(format!(
        "{} latency samples over {} rounds, {wall:.3} s measured",
        lat.len(),
        rounds.len()
    ));
    Ok(())
}

/// One note per template (and streaming mode) or mutation kind with its
/// share of the requests and its median, showing which band each
/// percentile falls in.
fn by_template(plan: &Plan, rounds: &[Round]) -> Vec<String> {
    let mut groups: Vec<(String, Vec<f64>)> = Vec::new();
    let mut add = |key: String, ms: f64| match groups.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => v.push(ms),
        None => groups.push((key, vec![ms])),
    };
    for o in rounds.iter().flat_map(|r| &r.outcomes) {
        for r in &o.reads {
            let req = &plan.pool[r.pool];
            let stream = if r.stream { " streamed" } else { "" };
            add(format!("reads {}@{}{stream}", req.template, req.db), r.ms);
        }
        for (m, ms) in &o.mutations {
            let kind = if m.delete { "delete" } else { "insert" };
            let class = if m.leaf { "leaf" } else { "core" };
            add(format!("mutations {kind} {class} edge"), *ms);
        }
    }
    // Shares are within reads or within mutations.
    let kind = |key: &str| key.split(' ').next().unwrap_or_default().to_string();
    let total = |k: &str| -> usize {
        groups
            .iter()
            .filter(|(key, _)| kind(key) == k)
            .map(|(_, v)| v.len())
            .sum()
    };
    let mut rows: Vec<(f64, String, f64)> = groups
        .iter()
        .map(|(key, v)| {
            let share = 100.0 * v.len() as f64 / total(&kind(key)) as f64;
            (median(v).unwrap_or(0.0), key.clone(), share)
        })
        .collect();
    rows.sort_by(|a, b| a.0.total_cmp(&b.0));
    rows.into_iter()
        .map(|(m, key, share)| format!("{key:<34} share {share:>5.1}% median {m:>10.4} ms"))
        .collect()
}

/// The per-layer metrics of a traced run's single round plus the
/// probes.
fn layers(
    round: &Round,
    out: &mut Vec<Metric>,
    probes: Vec<(String, f64)>,
    coverage: f64,
) -> Result<(), String> {
    let d = |key: &str| counter(&round.after, key) - counter(&round.before, key);
    let nested = |path: &[&str]| stat(&round.after, path) - stat(&round.before, path);
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    let ratio = |hits: f64, misses: f64| per(hits, hits + misses);
    let phase = |p: &str, f: &str| nested(&["latency_micros_by_phase", p, f]);
    let lang_total = |f: &str| -> f64 {
        ["FO", "FP", "PFP", "ESO", "DATALOG", "OTHER"]
            .iter()
            .map(|l| nested(&["latency_micros_by_language", l, f]))
            .sum()
    };
    let sub_p50 = |strategy: &str| -> f64 {
        round
            .subscriptions
            .get("subscriptions")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .filter(|s| s.get("strategy").and_then(Json::as_str) == Some(strategy))
            .max_by_key(|s| s.get("evaluations").and_then(Json::as_u64).unwrap_or(0))
            .and_then(|s| s.get("update_p50_ns").and_then(Json::as_u64))
            .map_or(0.0, |ns| ns as f64 / 1e3)
    };
    let outcomes = &round.outcomes;
    let reads: Vec<f64> = outcomes
        .iter()
        .flat_map(|o| o.reads.iter().map(|r| r.ms))
        .collect();
    let first_rows: Vec<f64> = outcomes.iter().flat_map(|o| o.first_rows.clone()).collect();
    let (rows, secs) = outcomes
        .iter()
        .fold((0, 0.0), |(r, s), o| (r + o.stream_rows, s + o.stream_secs));
    let completed: u64 = outcomes.iter().map(|o| o.completed).sum();
    let bytes: u64 = outcomes.iter().map(|o| o.bytes_in).sum();
    let values = [
        ratio(d("plan_hits"), d("plan_misses")),
        ratio(d("result_hits"), d("result_misses")),
        per(phase("prepare", "total_micros"), phase("prepare", "count")),
        per(phase("execute", "total_micros"), phase("execute", "count")),
        // Language latency runs from enqueue to reply; what prepare and
        // execute do not account for is queueing, cache probes and the
        // replica round trip.
        per(
            lang_total("total_micros")
                - phase("prepare", "total_micros")
                - phase("execute", "total_micros"),
            lang_total("count"),
        ),
        d("errors"),
        d("overloaded"),
        d("deadline_exceeded"),
        sub_p50("dred"),
        sub_p50("rediff"),
        d("sub_fallbacks"),
        d("cert_checked"),
        d("cert_rejected"),
        d("replica_fallback"),
        round.cpu / round.wall,
        percentile(&reads, 0.5)?,
        per(bytes as f64, completed as f64),
        round.ping_us,
        // Only `cold_eval` streams.
        if first_rows.len() >= 2 * MIN_BEYOND {
            percentile(&first_rows, 0.5)?
        } else {
            0.0
        },
        per(rows as f64, secs),
    ];
    let measured: Vec<(String, f64)> = report::WINDOW_LAYERS
        .iter()
        .map(|(n, _)| n.to_string())
        .zip(values)
        .chain(probes)
        .chain(round.requests.iter().cloned())
        .chain([(COVERAGE.to_string(), coverage)])
        .collect();
    for (name, unit) in report::per_layer() {
        let value = measured
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        out.push(Metric { name, value, unit });
    }
    Ok(())
}
