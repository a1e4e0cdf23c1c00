//! Set-up and the closed loop: spawning the server processes, loading
//! the generated databases over the wire, subscribing, warming up, and
//! driving each connection with no think time until the window closes.

use std::collections::HashSet;
use std::path::Path;
use std::time::{Duration, Instant};

use bvq_server::Json;

use crate::gen::{EdgeMutation, GenDb, Next, Plan, Stream};
use crate::proc::ServerProc;
use crate::wire::{is_frame, parse_reply, scan_stream_line, Conn, Reply, Signature};

/// How long set-up waits for a replica to register.
const REGISTER_TIMEOUT: Duration = Duration::from_secs(10);
/// How long the final check waits for outstanding delta frames.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// Failure descriptions kept per connection.
const KEEP_ERRORS: usize = 5;

/// A standing query's client-side state: the answer rebuilt from the
/// `subscribe` ack plus every delta frame.
pub struct SubState {
    /// Subscription id from the ack.
    pub id: u64,
    /// Strategy the server reported.
    pub strategy: String,
    /// The rebuilt answer.
    pub rows: HashSet<Vec<u64>>,
}

/// The running servers and the workload's connections after set-up.
pub struct Live {
    /// Server processes, coordinator first.
    pub procs: Vec<ServerProc>,
    /// One connection per [`Plan::conns`] entry.
    pub conns: Vec<Conn>,
    /// A control connection to the coordinator (stats, final checks).
    pub control: Conn,
    /// Subscriptions made on connection 0.
    pub subs: Vec<SubState>,
}

impl Live {
    /// The coordinator's address.
    pub fn addr(&self) -> &str {
        &self.procs[0].addr
    }

    /// Shuts every server down, coordinator last, and reports the first
    /// failure.
    pub fn shutdown(self) -> Result<(), String> {
        drop(self.conns);
        drop(self.control);
        let mut first = Ok(());
        for p in self.procs.into_iter().rev() {
            if let Err(e) = p.shutdown() {
                first = first.and(Err(e));
            }
        }
        first
    }
}

/// Starts the workload's servers and brings them to the state the
/// measured window starts from. Returns them with the set-up time.
pub fn set_up(exe: &Path, plan: &Plan, refs: &[Signature]) -> Result<(Live, f64), String> {
    let start = Instant::now();
    let mut procs: Vec<ServerProc> = Vec::new();
    for spec in &plan.procs {
        let mut args = spec.args.clone();
        if spec.replica {
            args.extend(["--replica-of".to_string(), procs[0].addr.clone()]);
        }
        procs.push(ServerProc::spawn(exe, &args)?);
    }
    let io = |e: std::io::Error| format!("set-up: {e}");
    let mut control = Conn::connect(&procs[0].addr).map_err(io)?;
    for p in &procs {
        load_dbs(&mut Conn::connect(&p.addr).map_err(io)?, &plan.dbs)?;
    }
    if procs.len() > 1 {
        wait_for_replicas(&mut control, procs.len() as u64 - 1)?;
    }
    let mut conns = Vec::new();
    for _ in &plan.conns {
        conns.push(Conn::connect(&procs[0].addr).map_err(io)?);
    }
    let mut subs = Vec::new();
    for s in &plan.subs {
        let ack = conns[0].call(&s.wire_line(), |_| {}).map_err(io)?;
        let json = Json::parse(&ack).map_err(|e| format!("bad subscribe ack: {e}"))?;
        let strategy = json.get("strategy").and_then(Json::as_str).unwrap_or("");
        if strategy != s.strategy {
            return Err(format!(
                "subscription expected strategy {}, server chose `{strategy}`: {ack}",
                s.strategy
            ));
        }
        subs.push(SubState {
            id: json
                .get("sub")
                .and_then(Json::as_u64)
                .ok_or("ack has no sub id")?,
            strategy: strategy.to_string(),
            rows: json_rows(json.get("rows").ok_or("ack has no rows")?)?,
        });
    }
    // Warm-up: every connection sends its share concurrently, as it will
    // in the window.
    let n = conns.len();
    std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(k, conn)| {
                s.spawn(move || -> Result<(), String> {
                    for &(i, stream) in plan.warmup.iter().skip(k).step_by(n) {
                        let line = plan.pool[i].wire_line(stream);
                        match read_one(conn, &line, refs[i], Instant::now()) {
                            Ok(Done { ok: true, .. }) => {}
                            Ok(Done { error, .. }) => {
                                return Err(format!("warm-up request failed: {line}: {error}"))
                            }
                            Err(e) => return Err(format!("warm-up request failed: {line}: {e}")),
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up threads do not panic"))
    })?;
    let secs = start.elapsed().as_secs_f64();
    Ok((
        Live {
            procs,
            conns,
            control,
            subs,
        },
        secs,
    ))
}

fn wait_for_replicas(control: &mut Conn, n: u64) -> Result<(), String> {
    let start = Instant::now();
    loop {
        let stats = fetch(control, "{\"op\":\"stats\"}")?;
        let healthy = stats
            .get("stats")
            .and_then(|s| s.get("replicas_healthy"))
            .and_then(Json::as_u64);
        if healthy >= Some(n) {
            return Ok(());
        }
        if start.elapsed() > REGISTER_TIMEOUT {
            return Err("the replica did not register with the coordinator".into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Loads every database into the server behind `conn` with `load_db`.
pub fn load_dbs(conn: &mut Conn, dbs: &[GenDb]) -> Result<(), String> {
    for db in dbs {
        let line = Json::obj([
            ("op", Json::str("load_db")),
            ("name", Json::str(db.name.as_str())),
            ("text", Json::str(db.text.as_str())),
        ])
        .to_string_compact();
        let reply = fetch(conn, &line)?;
        if !reply.get("ok").is_some_and(Json::is_true) {
            return Err(format!("load_db {} failed: {reply}", db.name));
        }
    }
    Ok(())
}

/// Sends a control op and parses its response.
pub fn fetch(control: &mut Conn, line: &str) -> Result<Json, String> {
    let reply = control
        .call(line, |_| {})
        .map_err(|e| format!("{line}: {e}"))?;
    Json::parse(&reply).map_err(|e| format!("{line}: bad response: {e}"))
}

fn json_rows(rows: &Json) -> Result<HashSet<Vec<u64>>, String> {
    rows.as_arr()
        .ok_or("rows is not a list")?
        .iter()
        .map(|r| {
            r.as_arr()
                .ok_or_else(|| "row is not a list".to_string())
                .map(|r| r.iter().filter_map(Json::as_u64).collect())
        })
        .collect()
}

/// One finished request.
struct Done {
    ok: bool,
    error: String,
    /// Time to the first streamed row, ms.
    first_row_ms: Option<f64>,
    /// Streamed rows and the header-to-footer time, s.
    streamed: Option<(u64, f64)>,
}

/// Sends one read and reads its whole response, checking the answer
/// against `expected`. `Err` is a transport failure.
fn read_one(
    conn: &mut Conn,
    line: &str,
    expected: Signature,
    t0: Instant,
) -> std::io::Result<Done> {
    conn.send(line)?;
    let mut header = conn.recv()?;
    while is_frame(header) {
        header = conn.recv()?;
    }
    let fail = |error: String| Done {
        ok: false,
        error,
        first_row_ms: None,
        streamed: None,
    };
    let reply = match parse_reply(header) {
        Ok(r) => r,
        Err(e) => return Ok(fail(e)),
    };
    match reply {
        Reply::Err(code) => Ok(fail(format!("server answered {code}"))),
        Reply::Ok {
            stream: Some(count),
            ..
        } => {
            let header_at = Instant::now();
            let mut sig = Signature::default();
            let mut first_row_ms = None;
            loop {
                let row = conn.recv()?;
                match scan_stream_line(row, &mut sig) {
                    Ok(true) => {
                        first_row_ms.get_or_insert_with(|| ms_since(t0));
                    }
                    Ok(false) => break,
                    Err(e) => return Ok(fail(e)),
                }
            }
            let streamed = Some((sig.rows, header_at.elapsed().as_secs_f64()));
            if sig != expected || sig.rows != count {
                return Ok(fail(format!(
                    "wrong streamed answer: {sig:?}, expected {expected:?}"
                )));
            }
            Ok(Done {
                ok: true,
                error: String::new(),
                first_row_ms,
                streamed,
            })
        }
        Reply::Ok { sig, .. } if sig != expected => Ok(fail(format!(
            "wrong answer: {sig:?}, expected {expected:?}"
        ))),
        Reply::Ok { .. } => Ok(Done {
            ok: true,
            error: String::new(),
            first_row_ms: None,
            streamed: None,
        }),
    }
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// One read's latency.
#[derive(Clone, Copy, Debug)]
pub struct ReadSample {
    /// The pool request.
    pub pool: usize,
    /// Whether it was streamed.
    pub stream: bool,
    /// Send to last byte, ms.
    pub ms: f64,
}

/// What one connection measured in the window.
#[derive(Default)]
pub struct ConnOutcome {
    /// Read latencies (`INFINITY` for a failed read).
    pub reads: Vec<ReadSample>,
    /// Mutation latencies, send to ack, ms.
    pub mutations: Vec<(EdgeMutation, f64)>,
    /// Send-to-first-row latencies of streamed reads, ms.
    pub first_rows: Vec<f64>,
    /// Rows received in streams.
    pub stream_rows: u64,
    /// Header-to-footer time of streams, s.
    pub stream_secs: f64,
    /// Requests sent.
    pub attempted: u64,
    /// Requests answered.
    pub completed: u64,
    /// Requests failed: error replies, wrong answers, transport errors.
    pub failed: u64,
    /// The first failures, described.
    pub errors: Vec<String>,
    /// Response bytes read.
    pub bytes_in: u64,
    /// Delta frames the server announced (`notified` in acks).
    pub notified: u64,
    /// Delta frames received, raw.
    pub frames: Vec<String>,
    /// When the last response arrived.
    pub last: Option<Instant>,
}

impl ConnOutcome {
    fn failure(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < KEEP_ERRORS {
            self.errors.push(what);
        }
    }
}

/// Drives connection `index` of `plan` in round `round` until `deadline`
/// or `max_ops` requests, whichever comes first.
pub fn drive(
    plan: &Plan,
    index: usize,
    round: usize,
    conn: &mut Conn,
    refs: &[Signature],
    deadline: Instant,
    max_ops: u64,
) -> ConnOutcome {
    let mut out = ConnOutcome::default();
    let mut stream = Stream::new(plan, index, round as u64);
    let lines: Vec<[String; 2]> = plan
        .pool
        .iter()
        .map(|r| [r.wire_line(false), r.wire_line(true)])
        .collect();
    let bytes_before = conn.bytes_in;
    while out.attempted < max_ops && Instant::now() < deadline {
        out.attempted += 1;
        let t0 = Instant::now();
        match stream.next_request() {
            Next::Read(i, streamed) => {
                let line = &lines[i][usize::from(streamed)];
                match read_one(conn, line, refs[i], t0) {
                    Ok(done) => {
                        out.completed += 1;
                        let ms = if done.ok { ms_since(t0) } else { f64::INFINITY };
                        out.reads.push(ReadSample {
                            pool: i,
                            stream: streamed,
                            ms,
                        });
                        if !done.ok {
                            out.failure(format!("{line}: {}", done.error));
                        }
                        out.first_rows.extend(done.first_row_ms);
                        if let Some((rows, secs)) = done.streamed {
                            out.stream_rows += rows;
                            out.stream_secs += secs;
                        }
                    }
                    Err(e) => {
                        out.failure(format!("{line}: {e}"));
                        break;
                    }
                }
            }
            Next::Mutate(m) => {
                let line = m.wire_line(match &plan.conns[index].order {
                    crate::gen::Order::Mutations { db } => db,
                    _ => unreachable!("mutations come from mutation streams"),
                });
                let frames = &mut out.frames;
                match conn.call(&line, |f| frames.push(f.to_string())) {
                    Ok(ack) => {
                        out.completed += 1;
                        match check_ack(&ack, m.delete) {
                            Ok(notified) => {
                                out.notified += notified;
                                out.mutations.push((m, ms_since(t0)));
                            }
                            Err(e) => {
                                out.mutations.push((m, f64::INFINITY));
                                out.failure(format!("{line}: {e}"));
                            }
                        }
                    }
                    Err(e) => {
                        out.failure(format!("{line}: {e}"));
                        break;
                    }
                }
            }
        }
        out.last = Some(Instant::now());
    }
    out.bytes_in = conn.bytes_in - bytes_before;
    out
}

/// Checks a mutation ack: the tuple was added (or removed) and the
/// epoch advanced. Returns how many subscribers got a frame.
fn check_ack(ack: &str, delete: bool) -> Result<u64, String> {
    let json = Json::parse(ack).map_err(|e| format!("bad ack: {e}"))?;
    if !json.get("ok").is_some_and(Json::is_true) {
        return Err(format!("mutation refused: {ack}"));
    }
    let field = if delete { "removed" } else { "added" };
    if json.get(field).and_then(Json::as_u64) != Some(1) {
        return Err(format!("mutation had no effect: {ack}"));
    }
    Ok(json.get("notified").and_then(Json::as_u64).unwrap_or(0))
}

/// Rebuilds every subscription's answer from its ack and the frames
/// connection 0 received (waiting for frames still in flight), then
/// compares each with a fresh uncached evaluation. Returns one message
/// per mismatch.
pub fn check_subscriptions(live: &mut Live, plan: &Plan, outcome: &mut ConnOutcome) -> Vec<String> {
    let mut problems = Vec::new();
    if live.subs.is_empty() {
        return problems;
    }
    let start = Instant::now();
    while (outcome.frames.len() as u64) < outcome.notified {
        let conn = &mut live.conns[0];
        let left = FRAME_TIMEOUT.saturating_sub(start.elapsed());
        if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
            problems.push(format!(
                "only {} of {} announced delta frames arrived",
                outcome.frames.len(),
                outcome.notified
            ));
            break;
        }
        match conn.recv() {
            Ok(line) if is_frame(line) => outcome.frames.push(line.to_string()),
            Ok(line) => problems.push(format!("unexpected line on the subscriber: {line}")),
            Err(e) => {
                problems.push(format!(
                    "{} of {} announced delta frames arrived: {e}",
                    outcome.frames.len(),
                    outcome.notified
                ));
                break;
            }
        }
    }
    for frame in &outcome.frames {
        if let Err(e) = apply_frame(&mut live.subs, frame) {
            problems.push(e);
        }
    }
    for (state, spec) in live.subs.iter().zip(&plan.subs) {
        let mut fresh = spec.request.clone();
        fresh.no_cache = true;
        let mut rebuilt = Signature::default();
        for row in &state.rows {
            rebuilt.add_row(row);
        }
        let reply = live.control.call(&fresh.wire_line(false), |_| {});
        match reply.map_err(|e| e.to_string()).and_then(|r| parse_reply(&r)) {
            Ok(Reply::Ok { sig, .. }) if sig == rebuilt => {}
            Ok(other) => problems.push(format!(
                "subscription {} ({}): rebuilt answer {rebuilt:?} differs from a fresh evaluation {other:?}",
                state.id, state.strategy
            )),
            Err(e) => problems.push(format!("fresh evaluation failed: {e}")),
        }
    }
    problems
}

fn apply_frame(subs: &mut [SubState], frame: &str) -> Result<(), String> {
    let json = Json::parse(frame).map_err(|e| format!("bad delta frame: {e}"))?;
    let id = json.get("sub").and_then(Json::as_u64);
    let sub = subs
        .iter_mut()
        .find(|s| Some(s.id) == id)
        .ok_or_else(|| format!("frame for an unknown subscription: {id:?}"))?;
    for row in json_rows(json.get("del").ok_or("frame has no del")?)? {
        if !sub.rows.remove(&row) {
            return Err(format!(
                "subscription {}: frame deletes absent row {row:?}",
                sub.id
            ));
        }
    }
    for row in json_rows(json.get("add").ok_or("frame has no add")?)? {
        if !sub.rows.insert(row.clone()) {
            return Err(format!(
                "subscription {}: frame adds present row {row:?}",
                sub.id
            ));
        }
    }
    Ok(())
}
