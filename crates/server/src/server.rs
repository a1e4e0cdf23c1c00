//! The query server: acceptor, per-connection threads, and a fixed
//! worker pool fed by a bounded queue.
//!
//! Concurrency model:
//!
//! - One **acceptor** thread; one thread per connection reading
//!   line-delimited JSON requests.
//! - Control-plane ops (`ping`, `stats`, `list_dbs`, `load_db`,
//!   `shutdown`) run inline on the connection thread — they must stay
//!   responsive even when every worker is busy.
//! - Compute ops (`eval`, `eso`, `datalog`, `explain`, `lint`,
//!   `debug_sleep`) are pushed
//!   onto a **bounded** `sync_channel` with `try_send`: a full queue
//!   sheds the request with a structured `overloaded` error instead of
//!   buffering unboundedly. The connection thread then blocks on the
//!   job's private reply channel, so each connection has at most one
//!   compute request in flight and the queue bound is the real
//!   admission control.
//! - Each job carries an absolute deadline (request `deadline_ms` or
//!   the server default), measured **from enqueue** so queue wait
//!   counts against it; workers pass it into [`EvalConfig`], where the
//!   fixpoint engines check it between rounds.
//!
//! Caching: a plan LRU keyed by the full plan-affecting request text,
//! and a result LRU keyed by `(plan key, dependency fingerprint)`. The
//! dependency fingerprint is a structural hash of **only the relations
//! the plan reads** (plus the domain size), so a mutation invalidates
//! exactly the cached results that depend on the mutated relations —
//! answers over untouched relations keep hitting across epochs, and an
//! identical reload (or a second database with identical content)
//! keeps hitting too, because the hash sees content, not versions.
//!
//! Mutations & epochs: each database is a [`bvq_ivm::MutableDb`] behind
//! a writer mutex plus a current-epoch [`Snapshot`] behind an `RwLock`.
//! Compute jobs pin the snapshot at admission and never observe a
//! concurrent mutation; a mutation batch applies under the writer
//! mutex, swaps the snapshot, and — still under the mutex, so
//! maintenance is serialized with writes — propagates the net delta to
//! every standing query subscribed to that database, pushing one
//! unsolicited delta frame per changed answer.
//!
//! Graceful shutdown: the flag flips first (new compute requests get
//! `shutting_down`), then the already-admitted queue drains and
//! in-flight jobs complete and deliver their responses, then worker
//! threads stop via sentinel messages and are joined.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use bvq_core::IncrPlan;
use bvq_ivm::{AnswerDelta, DeltaSet, MutableDb, Mutation, Snapshot, StandingQuery};
use bvq_relation::trace::truncate_detail;
use bvq_relation::{Database, EvalConfig, Relation, Span, Tuple};

use crate::exec::{self, EvalOptions, RunError};
use crate::json::Json;
use crate::lru::Lru;
use crate::protocol::{
    certified_wire_line, err_response, ok_response, parse_request, Compute, ComputeKind, Op,
    ProtoError, Request, FEATURES, OPS, PROTOCOL_VERSION,
};
use crate::replica::{self, ReplicaPool};
use crate::stats::{dec, inc, Language, Phase, StatsRegistry};

/// Server construction parameters.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing compute jobs.
    pub workers: usize,
    /// Bounded-queue capacity; a full queue sheds with `overloaded`.
    pub queue_capacity: usize,
    /// Plan-cache entries (0 disables).
    pub plan_cache_capacity: usize,
    /// Result-cache entries (0 disables).
    pub result_cache_capacity: usize,
    /// Default per-request deadline when the request sets none.
    pub default_deadline_ms: Option<u64>,
    /// Enable `debug_sleep` (used by backpressure tests/benches).
    pub debug_ops: bool,
    /// Admission control: statically lint every compute request before
    /// it reaches the worker pool and reject error-level queries with
    /// `admission_rejected` — unsafe or ill-formed work never occupies
    /// a worker.
    pub admission: bool,
    /// Maximum accepted request-frame length in bytes. A longer line is
    /// drained (never buffered whole), answered with a structured
    /// `bad_request`, and the connection keeps serving — a hostile or
    /// buggy client cannot make a connection thread allocate
    /// unboundedly.
    pub max_frame_bytes: usize,
    /// Width budget for admission: compute requests wider than this are
    /// swapped for their certified variable-minimizing rewrite when one
    /// fits the budget, and rejected with `admission_rejected`
    /// otherwise. `None` disables the gate.
    pub max_width: Option<usize>,
    /// Run as an untrusted replica of the coordinator at this address:
    /// on startup the server registers its own bound address there with
    /// `register_replica` (retrying while the coordinator comes up).
    /// Databases are **not** synchronized — a replica serves the
    /// databases it was given, and a stale or divergent replica is
    /// harmless because the coordinator's checker validates every
    /// certificate against its *own* snapshot.
    pub replica_of: Option<String>,
    /// Per-exchange timeout (connect, write, and read each) for replica
    /// fan-out and registration.
    pub replica_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8),
            queue_capacity: 64,
            plan_cache_capacity: 256,
            result_cache_capacity: 256,
            default_deadline_ms: None,
            debug_ops: false,
            admission: false,
            max_frame_bytes: 1 << 20,
            max_width: None,
            replica_of: None,
            replica_timeout_ms: 2000,
        }
    }
}

/// A loaded database: the writer side of the epoch machinery plus the
/// current snapshot readers pin.
pub struct DbHandle {
    /// Name clients address it by.
    pub name: String,
    /// The single-writer mutable database; mutation batches serialize
    /// here, and standing-query maintenance runs under the same lock.
    writer: Mutex<MutableDb>,
    /// The current epoch's snapshot, swapped after every batch. Readers
    /// clone it (O(#relations), copy-on-write) and never block writers.
    current: RwLock<Snapshot>,
}

impl DbHandle {
    fn new(name: &str, db: Database) -> DbHandle {
        let writer = MutableDb::new(db);
        let current = RwLock::new(writer.snapshot());
        DbHandle {
            name: name.to_string(),
            writer: Mutex::new(writer),
            current,
        }
    }

    /// Pins the current epoch.
    pub fn snapshot(&self) -> Snapshot {
        self.current.read().unwrap().clone()
    }
}

/// Maintenance statistics of one subscription.
#[derive(Default)]
struct SubStats {
    /// Maintenance passes that ran (including ones with empty deltas).
    evaluations: u64,
    /// Passes that pushed a non-empty delta frame.
    updates: u64,
    /// Passes that fell back to re-evaluate-and-diff.
    fallbacks: u64,
    /// Answer tuples added / removed across all frames.
    added: u64,
    removed: u64,
    /// Per-pass maintenance latencies (ns), capped; quantiles on demand.
    latencies_ns: Vec<u64>,
}

const SUB_LATENCY_SAMPLES: usize = 4096;

impl SubStats {
    fn record(&mut self, ns: u64) {
        if self.latencies_ns.len() < SUB_LATENCY_SAMPLES {
            self.latencies_ns.push(ns);
        } else {
            let i = (self.evaluations as usize) % SUB_LATENCY_SAMPLES;
            self.latencies_ns[i] = ns;
        }
        self.evaluations += 1;
    }

    fn quantile_ns(&self, q: f64) -> u64 {
        if self.latencies_ns.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_ns.clone();
        sorted.sort_unstable();
        let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
        sorted[idx.min(sorted.len() - 1)]
    }
}

/// How one subscription's answer is kept current.
enum SubKind {
    /// Differential maintenance (counting or DRed) via [`StandingQuery`].
    Datalog(Box<StandingQuery>),
    /// Re-evaluate-and-diff (Rediff): languages without delta semantics.
    Query {
        prepared: Arc<exec::Prepared>,
        req: exec::ExecRequest,
        /// The materialized answer (booleans as 0-ary relations).
        answer: Relation,
        /// Relations the plan reads; deltas elsewhere are skipped.
        deps: Vec<String>,
    },
}

/// One registered standing query.
struct SubEntry {
    id: u64,
    db: String,
    label: String,
    plan: IncrPlan,
    epoch: u64,
    kind: SubKind,
    /// Pre-rendered delta frames go here; a per-connection forwarder
    /// thread drains them onto the subscriber's socket.
    sender: mpsc::Sender<String>,
    stats: SubStats,
}

impl SubEntry {
    fn answer(&self) -> &Relation {
        match &self.kind {
            SubKind::Datalog(sq) => sq.answer(),
            SubKind::Query { answer, .. } => answer,
        }
    }

    fn answer_len(&self) -> usize {
        self.answer().len()
    }
}

/// A cached answer, shared between the cache and in-flight responses.
pub struct ResultPayload {
    /// Language the request was classified as.
    pub language: Language,
    /// Effective variable bound (0 where not applicable).
    pub k: usize,
    /// Formula width (0 where not applicable).
    pub width: usize,
    /// `Some(truth value)` for boolean (sentence) queries.
    pub boolean: Option<bool>,
    /// Sorted answer tuples (empty for boolean queries).
    pub rows: Vec<Tuple>,
    /// Rendered report, for ops whose answer is textual (ESO).
    pub text: Option<String>,
    /// The measured span tree, when the request set `"trace": true`.
    /// Always `None` on cache hits: traced requests bypass the cache.
    pub trace: Option<Span>,
    /// The explain report (pre-rendered JSON), for the `explain` op.
    pub explain: Option<Json>,
    /// The lint report (pre-rendered JSON), for the `lint` op.
    pub lint: Option<Json>,
    /// The encoded `bvq-cert` certificate backing this answer, when one
    /// was produced locally or validated from a replica. Cached entries
    /// keep it, so a certified request can be served from the cache —
    /// but only from an entry that actually carries one.
    pub certificate: Option<String>,
}

enum Outcome {
    Done {
        payload: Arc<ResultPayload>,
        cached: bool,
    },
    Slept {
        millis: u64,
    },
    Failed {
        error: ProtoError,
        language: Language,
    },
}

struct Job {
    compute: Compute,
    /// The epoch snapshot pinned at admission: concurrent mutations
    /// never change what this job reads.
    snapshot: Option<Snapshot>,
    deadline: Option<Instant>,
    reply: mpsc::Sender<Outcome>,
}

enum Msg {
    Job(Box<Job>),
    Stop,
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    dbs: RwLock<HashMap<String, Arc<DbHandle>>>,
    plan_cache: Mutex<Lru<String, Arc<exec::Prepared>>>,
    result_cache: Mutex<Lru<(String, u64), Arc<ResultPayload>>>,
    subs: Mutex<Vec<SubEntry>>,
    next_sub: AtomicU64,
    stats: StatsRegistry,
    shutting_down: AtomicBool,
    /// `shutdown` replies not yet written: raised before the shutdown
    /// flag flips, lowered once the reply is out, so
    /// [`ServerHandle::wait`] never returns ahead of its own reply.
    shutdown_replies: AtomicU64,
    /// Registered untrusted replicas; empty means no fan-out.
    replicas: ReplicaPool,
}

impl Shared {
    fn begin_shutdown(&self) {
        if !self.shutting_down.swap(true, Ordering::SeqCst) {
            // Wake the acceptor out of its blocking accept().
            let _ = TcpStream::connect(self.addr);
        }
    }

    fn drained(&self) -> bool {
        self.stats.queue_depth.load(Ordering::SeqCst) == 0
            && self.stats.inflight.load(Ordering::SeqCst) == 0
    }

    fn wait_drained(&self) {
        while !self.drained() {
            thread::sleep(Duration::from_millis(1));
        }
    }
}

/// The server entry point.
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the acceptor, and returns a
    /// handle. Databases are loaded via [`ServerHandle::load_db`] or
    /// the `load_db` protocol op.
    pub fn start(cfg: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers.max(1);
        let (tx, rx) = mpsc::sync_channel::<Msg>(cfg.queue_capacity.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let shared = Arc::new(Shared {
            plan_cache: Mutex::new(Lru::new(cfg.plan_cache_capacity)),
            result_cache: Mutex::new(Lru::new(cfg.result_cache_capacity)),
            cfg,
            addr,
            dbs: RwLock::new(HashMap::new()),
            subs: Mutex::new(Vec::new()),
            next_sub: AtomicU64::new(0),
            stats: StatsRegistry::new(),
            shutting_down: AtomicBool::new(false),
            shutdown_replies: AtomicU64::new(0),
            replicas: ReplicaPool::new(),
        });

        let mut worker_handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let rx = rx.clone();
            worker_handles.push(
                thread::Builder::new()
                    .name(format!("bvq-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &rx))?,
            );
        }

        let acceptor = {
            let shared = shared.clone();
            let tx = tx.clone();
            thread::Builder::new()
                .name("bvq-acceptor".into())
                .spawn(move || acceptor_loop(&listener, &shared, &tx))?
        };

        // Replica mode: announce ourselves to the coordinator, retrying
        // briefly so start order doesn't matter. Registration failing is
        // non-fatal — the server still serves direct clients.
        if let Some(coordinator) = shared.cfg.replica_of.clone() {
            let my_addr = addr.to_string();
            let timeout = Duration::from_millis(shared.cfg.replica_timeout_ms.max(1));
            let cap = shared.cfg.max_frame_bytes.max(1);
            thread::Builder::new()
                .name("bvq-replica-reg".into())
                .spawn(move || {
                    let line = Json::obj([
                        ("op", Json::str("register_replica")),
                        ("addr", Json::Str(my_addr)),
                    ])
                    .to_string_compact();
                    for _ in 0..10 {
                        if let Ok(resp) = replica::exchange(&coordinator, &line, timeout, cap) {
                            let accepted = Json::parse(&resp)
                                .ok()
                                .and_then(|j| j.get("ok").map(Json::is_true))
                                .unwrap_or(false);
                            if accepted {
                                return;
                            }
                        }
                        thread::sleep(Duration::from_millis(200));
                    }
                })?;
        }

        Ok(ServerHandle {
            addr,
            shared,
            tx,
            acceptor: Some(acceptor),
            workers: worker_handles,
        })
    }
}

/// Owner handle for a running server: address, programmatic database
/// loading, stats access, and shutdown/join.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    tx: SyncSender<Msg>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with `addr: "127.0.0.1:0"`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The live stats registry.
    pub fn stats(&self) -> &StatsRegistry {
        &self.shared.stats
    }

    /// Loads (or replaces) a named database in-process. Replacing an
    /// existing name advances its epoch and rebases standing queries,
    /// pushing the resulting answer diffs to their subscribers.
    pub fn load_db(&self, name: &str, db: Database) {
        load_database(&self.shared, name, db);
    }

    /// Pins the current epoch snapshot of a loaded database (tests and
    /// benches observe epochs through this).
    pub fn db_snapshot(&self, name: &str) -> Option<Snapshot> {
        self.shared
            .dbs
            .read()
            .unwrap()
            .get(name)
            .map(|h| h.snapshot())
    }

    /// Whether a shutdown (client- or owner-initiated) has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutting_down.load(Ordering::SeqCst)
    }

    /// Initiates graceful shutdown and joins all server threads.
    /// In-flight compute jobs complete and deliver their responses.
    pub fn shutdown(&mut self) {
        self.shared.begin_shutdown();
        self.finalize();
    }

    /// Blocks until a client-initiated `shutdown` op (or a concurrent
    /// [`ServerHandle::shutdown`]) stops the server, then joins. A
    /// client's `shutdown` reply has been written by the time this
    /// returns, so a process that exits right after still answers it.
    pub fn wait(mut self) {
        while !self.is_shutting_down() || self.shared.shutdown_replies.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(10));
        }
        self.finalize();
    }

    fn finalize(&mut self) {
        if self.acceptor.is_none() {
            return;
        }
        self.shared.wait_drained();
        for _ in 0..self.workers.len() {
            // The queue is drained, so these cannot block for long.
            let _ = self.tx.send(Msg::Stop);
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.acceptor.is_some() {
            self.shared.begin_shutdown();
            self.finalize();
        }
    }
}

fn acceptor_loop(listener: &TcpListener, shared: &Arc<Shared>, tx: &SyncSender<Msg>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break; // The wake-up connection (or a late client).
                }
                inc(&shared.stats.connections);
                let shared = shared.clone();
                let tx = tx.clone();
                let _ = thread::Builder::new()
                    .name("bvq-conn".into())
                    .spawn(move || {
                        let _ = handle_connection(stream, &shared, &tx);
                    });
            }
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
    }
}

/// The connection's response channel: shared with per-subscription
/// forwarder threads, so delta frames and request responses interleave
/// only at line granularity.
type ConnWriter = Arc<Mutex<BufWriter<TcpStream>>>;

/// Writes one response line and flushes, under the connection lock.
fn send(writer: &ConnWriter, json: &Json) -> io::Result<()> {
    let mut w = writer.lock().unwrap();
    write_json(&mut *w, json)?;
    w.flush()
}

fn handle_connection(
    stream: TcpStream,
    shared: &Arc<Shared>,
    tx: &SyncSender<Msg>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let writer: ConnWriter = Arc::new(Mutex::new(BufWriter::new(stream)));
    let cap = shared.cfg.max_frame_bytes.max(1);
    // Subscriptions registered on this connection; dropped with it.
    let mut my_subs: Vec<u64> = Vec::new();
    let result = loop {
        let line = match read_frame(&mut reader, cap) {
            Err(e) => break Err(e),
            Ok(Frame::Eof) => break Ok(()),
            Ok(Frame::Line(line)) => line,
            Ok(Frame::Oversized) => {
                inc(&shared.stats.requests);
                inc(&shared.stats.errors);
                let error = ProtoError::new(
                    "bad_request",
                    format!(
                        "frame exceeds the {cap}-byte limit; split the request or \
                         raise the server's max_frame_bytes"
                    ),
                );
                if let Err(e) = send(&writer, &err_response(&Json::Null, &error)) {
                    break Err(e);
                }
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        inc(&shared.stats.requests);
        if let Err(e) = process_line(&line, shared, tx, &writer, &mut my_subs) {
            break Err(e);
        }
    };
    // The connection is gone: its subscriptions have nowhere to push.
    remove_subs(shared, &my_subs);
    result
}

/// Unregisters subscriptions by id, ending their forwarder threads.
fn remove_subs(shared: &Shared, ids: &[u64]) {
    if ids.is_empty() {
        return;
    }
    let mut subs = shared.subs.lock().unwrap();
    subs.retain(|s| {
        if ids.contains(&s.id) {
            dec(&shared.stats.subscriptions_active);
            false
        } else {
            true
        }
    });
}

/// One read attempt from the request stream.
enum Frame {
    /// A complete newline-terminated (or EOF-terminated) frame.
    Line(String),
    /// The frame exceeded the byte cap; its remainder has been drained.
    Oversized,
    /// Clean end of stream.
    Eof,
}

/// Reads one `\n`-terminated frame, holding at most `cap` bytes in
/// memory. An over-long line is discarded chunk by chunk up to its
/// terminating newline (or EOF), so the connection can keep serving
/// subsequent well-formed requests.
fn read_frame<R: BufRead>(reader: &mut R, cap: usize) -> io::Result<Frame> {
    let mut buf = Vec::new();
    let mut oversized = false;
    let mut saw_any = false;
    loop {
        let available = match reader.fill_buf() {
            Ok(a) => a,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if available.is_empty() {
            if !saw_any {
                return Ok(Frame::Eof);
            }
            break;
        }
        saw_any = true;
        match available.iter().position(|&b| b == b'\n') {
            Some(i) => {
                if !oversized {
                    buf.extend_from_slice(&available[..i]);
                }
                reader.consume(i + 1);
                break;
            }
            None => {
                let len = available.len();
                if !oversized {
                    buf.extend_from_slice(available);
                }
                reader.consume(len);
            }
        }
        if buf.len() > cap {
            // Cap hit mid-line: stop accumulating, keep draining to the
            // terminating newline (or EOF).
            oversized = true;
            buf.clear();
        }
    }
    if oversized || buf.len() > cap {
        return Ok(Frame::Oversized);
    }
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    match String::from_utf8(buf) {
        Ok(s) => Ok(Frame::Line(s)),
        Err(e) => Ok(Frame::Line(String::from_utf8_lossy(e.as_bytes()).into())),
    }
}

fn write_json<W: Write + ?Sized>(writer: &mut W, json: &Json) -> io::Result<()> {
    writeln!(writer, "{}", json.to_string_compact())
}

fn process_line(
    line: &str,
    shared: &Arc<Shared>,
    tx: &SyncSender<Msg>,
    writer: &ConnWriter,
    my_subs: &mut Vec<u64>,
) -> io::Result<()> {
    let Request { id, op } = match parse_request(line) {
        Ok(req) => req,
        Err((id, error)) => {
            inc(&shared.stats.errors);
            return send(writer, &err_response(&id, &error));
        }
    };
    match op {
        Op::Ping => {
            inc(&shared.stats.ok);
            let str_arr =
                |xs: &[&str]| Json::Arr(xs.iter().map(|s| Json::Str((*s).to_string())).collect());
            send(
                writer,
                &ok_response(
                    &id,
                    vec![
                        ("pong".into(), Json::Bool(true)),
                        ("v".into(), Json::num(PROTOCOL_VERSION)),
                        (
                            "capabilities".into(),
                            Json::obj([("ops", str_arr(OPS)), ("features", str_arr(FEATURES))]),
                        ),
                    ],
                ),
            )
        }
        Op::Stats => {
            inc(&shared.stats.ok);
            let mut snapshot = shared
                .stats
                .to_json(shared.cfg.queue_capacity, shared.cfg.workers.max(1));
            if let Json::Obj(fields) = &mut snapshot {
                let (total, healthy) = shared.replicas.occupancy();
                let certified = shared
                    .result_cache
                    .lock()
                    .unwrap()
                    .values()
                    .filter(|p| p.certificate.is_some())
                    .count();
                fields.push(("replicas".into(), Json::num(total as u64)));
                fields.push(("replicas_healthy".into(), Json::num(healthy as u64)));
                fields.push(("result_cache_certified".into(), Json::num(certified as u64)));
            }
            send(writer, &ok_response(&id, vec![("stats".into(), snapshot)]))
        }
        Op::ListDbs => {
            inc(&shared.stats.ok);
            let handles: Vec<Arc<DbHandle>> = {
                let dbs = shared.dbs.read().unwrap();
                let mut hs: Vec<Arc<DbHandle>> = dbs.values().cloned().collect();
                hs.sort_by(|a, b| a.name.cmp(&b.name));
                hs
            };
            let list = handles
                .iter()
                .map(|h| {
                    let snap = h.snapshot();
                    Json::obj([
                        ("name", Json::Str(h.name.clone())),
                        ("domain_size", Json::num(snap.db.domain_size() as u64)),
                        ("relations", Json::num(snap.db.schema().len() as u64)),
                        (
                            "fingerprint",
                            Json::Str(format!("{:016x}", snap.db.fingerprint())),
                        ),
                        ("epoch", Json::num(snap.epoch)),
                    ])
                })
                .collect();
            send(
                writer,
                &ok_response(&id, vec![("dbs".into(), Json::Arr(list))]),
            )
        }
        Op::LoadDb { name, text } => match bvq_relation::parse_database(&text) {
            Ok(db) => {
                let fp = db.fingerprint();
                let n = db.domain_size();
                let (epoch, rebased) = load_database(shared, &name, db);
                inc(&shared.stats.ok);
                send(
                    writer,
                    &ok_response(
                        &id,
                        vec![
                            ("loaded".into(), Json::Str(name)),
                            ("fingerprint".into(), Json::Str(format!("{fp:016x}"))),
                            ("domain_size".into(), Json::num(n as u64)),
                            ("epoch".into(), Json::num(epoch)),
                            ("resubscribed".into(), Json::num(rebased as u64)),
                        ],
                    ),
                )
            }
            Err(e) => {
                inc(&shared.stats.errors);
                send(
                    writer,
                    &err_response(&id, &ProtoError::new("db_error", e.to_string())),
                )
            }
        },
        Op::Shutdown => {
            shared.shutdown_replies.fetch_add(1, Ordering::SeqCst);
            shared.begin_shutdown();
            shared.wait_drained();
            inc(&shared.stats.ok);
            let sent = send(
                writer,
                &ok_response(&id, vec![("stopped".into(), Json::Bool(true))]),
            );
            shared.shutdown_replies.fetch_sub(1, Ordering::SeqCst);
            sent
        }
        Op::Mutate { db, muts } => handle_mutate(shared, &id, &db, &muts, writer),
        Op::Subscribe { db, inner } => handle_subscribe(shared, &id, &db, &inner, writer, my_subs),
        Op::Unsubscribe { sub } => {
            let removed = {
                let mut subs = shared.subs.lock().unwrap();
                let before = subs.len();
                subs.retain(|s| s.id != sub);
                before != subs.len()
            };
            if removed {
                dec(&shared.stats.subscriptions_active);
                my_subs.retain(|&s| s != sub);
                inc(&shared.stats.ok);
                send(
                    writer,
                    &ok_response(
                        &id,
                        vec![
                            ("sub".into(), Json::num(sub)),
                            ("removed".into(), Json::Bool(true)),
                        ],
                    ),
                )
            } else {
                inc(&shared.stats.errors);
                send(
                    writer,
                    &err_response(
                        &id,
                        &ProtoError::new("unknown_sub", format!("no subscription with id {sub}")),
                    ),
                )
            }
        }
        Op::Subscriptions => {
            inc(&shared.stats.ok);
            let subs = shared.subs.lock().unwrap();
            let list = subs
                .iter()
                .map(|s| {
                    Json::obj([
                        ("sub", Json::num(s.id)),
                        ("db", Json::Str(s.db.clone())),
                        ("label", Json::Str(s.label.clone())),
                        ("strategy", Json::str(s.plan.strategy.label())),
                        ("reason", Json::str(s.plan.reason)),
                        ("epoch", Json::num(s.epoch)),
                        ("rows", Json::num(s.answer_len() as u64)),
                        ("evaluations", Json::num(s.stats.evaluations)),
                        ("updates", Json::num(s.stats.updates)),
                        ("fallbacks", Json::num(s.stats.fallbacks)),
                        ("added", Json::num(s.stats.added)),
                        ("removed", Json::num(s.stats.removed)),
                        ("update_p50_ns", Json::num(s.stats.quantile_ns(0.50))),
                        ("update_p99_ns", Json::num(s.stats.quantile_ns(0.99))),
                    ])
                })
                .collect();
            drop(subs);
            send(
                writer,
                &ok_response(&id, vec![("subscriptions".into(), Json::Arr(list))]),
            )
        }
        Op::RegisterReplica { addr } => {
            // A server fanning out to itself would recurse until the
            // connection pool starves — refuse self-registration.
            if addr == shared.addr.to_string() {
                inc(&shared.stats.errors);
                return send(
                    writer,
                    &err_response(
                        &id,
                        &ProtoError::new("bad_request", "a server cannot be its own replica"),
                    ),
                );
            }
            let n = shared.replicas.register(&addr);
            inc(&shared.stats.ok);
            send(
                writer,
                &ok_response(
                    &id,
                    vec![
                        ("registered".into(), Json::Str(addr)),
                        ("replicas".into(), Json::num(n as u64)),
                    ],
                ),
            )
        }
        Op::Compute(compute) => handle_compute(compute, id, shared, tx, writer),
    }
}

/// Loads (or replaces) a named database. Replacing advances the epoch
/// and rebases the name's standing queries; the returned pair is the
/// new epoch and how many subscriptions were rebased.
fn load_database(shared: &Shared, name: &str, db: Database) -> (u64, usize) {
    let handle = {
        let mut dbs = shared.dbs.write().unwrap();
        if let Some(h) = dbs.get(name) {
            h.clone()
        } else {
            dbs.insert(name.to_string(), Arc::new(DbHandle::new(name, db)));
            return (0, 0);
        }
    };
    // Replacement: swap under the writer mutex so maintenance stays
    // serialized with mutation batches, then rebase standing queries.
    let mut w = handle.writer.lock().unwrap();
    let snap = w.replace(db);
    *handle.current.write().unwrap() = snap.clone();
    let rebased = rebase_subs(shared, name, &snap);
    drop(w);
    (snap.epoch, rebased)
}

/// Rebuilds every standing query on `db_name` against a wholesale
/// replacement (no meaningful delta exists), pushing answer diffs.
fn rebase_subs(shared: &Shared, db_name: &str, snap: &Snapshot) -> usize {
    let cfg = EvalConfig::from_env();
    let mut subs = shared.subs.lock().unwrap();
    let mut rebased = 0;
    for sub in subs.iter_mut().filter(|s| s.db == db_name) {
        let start = Instant::now();
        let adelta = match &mut sub.kind {
            SubKind::Datalog(sq) => match sq.rebase(&snap.db, &cfg) {
                Ok(d) => d,
                // The new database no longer fits the program (e.g. a
                // dropped EDB relation): the answer goes stale.
                Err(_) => continue,
            },
            SubKind::Query {
                prepared,
                req,
                answer,
                ..
            } => match exec::execute_prepared(&snap.db, prepared, req) {
                Ok(out) => {
                    let new = answer_relation(out.answer);
                    let d = AnswerDelta::diff(answer, &new);
                    *answer = new;
                    d
                }
                Err(_) => continue,
            },
        };
        sub.epoch = snap.epoch;
        sub.stats.record(start.elapsed().as_nanos() as u64);
        sub.stats.fallbacks += 1;
        inc(&shared.stats.sub_fallbacks);
        rebased += 1;
        push_delta(shared, sub, snap.epoch, &adelta);
    }
    rebased
}

/// Materializes an execution answer as a relation (booleans at arity 0).
fn answer_relation(ans: exec::Answer) -> Relation {
    match ans {
        exec::Answer::Boolean(b) => Relation::boolean(b),
        exec::Answer::Rows(rel) => rel,
        exec::Answer::Text(_) => Relation::new(0),
    }
}

/// Renders one unsolicited delta frame.
fn delta_frame(sub: u64, epoch: u64, d: &AnswerDelta) -> String {
    let rows = |r: &Relation| Json::Arr(r.sorted().iter().map(row_json).collect());
    Json::obj([
        ("sub", Json::num(sub)),
        ("epoch", Json::num(epoch)),
        ("add", rows(&d.added)),
        ("del", rows(&d.removed)),
    ])
    .to_string_compact()
}

/// Records a maintenance pass's outcome and, when the answer changed,
/// enqueues the delta frame for the subscriber's forwarder.
fn push_delta(shared: &Shared, sub: &mut SubEntry, epoch: u64, d: &AnswerDelta) {
    if d.is_empty() {
        return;
    }
    sub.stats.updates += 1;
    sub.stats.added += d.added.len() as u64;
    sub.stats.removed += d.removed.len() as u64;
    inc(&shared.stats.sub_updates);
    let _ = sub.sender.send(delta_frame(sub.id, epoch, d));
}

/// Pushes one mutation batch's net delta through every standing query
/// on `db_name`. Runs under the database's writer mutex, so maintenance
/// is serialized with mutations and no epoch is skipped or reordered.
/// Returns how many subscribers received a frame.
fn propagate(
    shared: &Shared,
    db_name: &str,
    old_db: &Database,
    snap: &Snapshot,
    delta: &DeltaSet,
) -> usize {
    let cfg = EvalConfig::from_env();
    let mut notified = 0;
    let mut subs = shared.subs.lock().unwrap();
    for sub in subs.iter_mut().filter(|s| s.db == db_name) {
        let start = Instant::now();
        let adelta = match &mut sub.kind {
            SubKind::Datalog(sq) => match sq.apply(old_db, &snap.db, delta, &cfg) {
                Ok(d) => d,
                // Propagation failure leaves the state stale; a rebase
                // from the new epoch repairs it (counted as a fallback).
                Err(_) => {
                    sub.stats.fallbacks += 1;
                    inc(&shared.stats.sub_fallbacks);
                    match sq.rebase(&snap.db, &cfg) {
                        Ok(d) => d,
                        Err(_) => continue,
                    }
                }
            },
            SubKind::Query {
                prepared,
                req,
                answer,
                deps,
            } => {
                if !delta.rels.iter().any(|(n, _)| deps.contains(n)) {
                    // The batch missed every relation this plan reads.
                    sub.epoch = snap.epoch;
                    continue;
                }
                sub.stats.fallbacks += 1;
                inc(&shared.stats.sub_fallbacks);
                match exec::execute_prepared(&snap.db, prepared, req) {
                    Ok(out) => {
                        let new = answer_relation(out.answer);
                        let d = AnswerDelta::diff(answer, &new);
                        *answer = new;
                        d
                    }
                    Err(_) => continue,
                }
            }
        };
        sub.epoch = snap.epoch;
        sub.stats.record(start.elapsed().as_nanos() as u64);
        if !adelta.is_empty() {
            notified += 1;
        }
        push_delta(shared, sub, snap.epoch, &adelta);
    }
    notified
}

/// The `insert`/`delete`/`batch` ops: applies the batch atomically,
/// swaps the epoch snapshot, and maintains standing queries inline.
fn handle_mutate(
    shared: &Arc<Shared>,
    id: &Json,
    db: &str,
    muts: &[Mutation],
    writer: &ConnWriter,
) -> io::Result<()> {
    let Some(handle) = shared.dbs.read().unwrap().get(db).cloned() else {
        inc(&shared.stats.errors);
        return send(
            writer,
            &err_response(
                id,
                &ProtoError::new("unknown_db", format!("no database named `{db}` is loaded")),
            ),
        );
    };
    let mut w = handle.writer.lock().unwrap();
    let old_db = w.db().clone();
    let delta = match w.apply(muts) {
        Ok(d) => d,
        Err(e) => {
            drop(w);
            inc(&shared.stats.errors);
            return send(
                writer,
                &err_response(id, &ProtoError::new("mutation_error", e.to_string())),
            );
        }
    };
    let snap = w.snapshot();
    *handle.current.write().unwrap() = snap.clone();
    let notified = if delta.is_empty() {
        0
    } else {
        inc(&shared.stats.mutations);
        propagate(shared, &handle.name, &old_db, &snap, &delta)
    };
    drop(w);
    inc(&shared.stats.ok);
    send(
        writer,
        &ok_response(
            id,
            vec![
                ("db".into(), Json::Str(handle.name.clone())),
                ("epoch".into(), Json::num(snap.epoch)),
                ("added".into(), Json::num(delta.total_added() as u64)),
                ("removed".into(), Json::num(delta.total_removed() as u64)),
                ("notified".into(), Json::num(notified as u64)),
            ],
        ),
    )
}

/// Spawns the forwarder draining one subscription's pre-rendered delta
/// frames onto the connection. Ends when the sender is dropped
/// (unsubscribe or connection close) or the socket dies.
fn spawn_forwarder(writer: ConnWriter, rx: mpsc::Receiver<String>) {
    let _ = thread::Builder::new()
        .name("bvq-sub".into())
        .spawn(move || {
            for frame in rx {
                let mut w = writer.lock().unwrap();
                if writeln!(w, "{frame}").and_then(|()| w.flush()).is_err() {
                    break;
                }
            }
        });
}

/// The `subscribe` op: registers a standing query over the current
/// epoch and answers with the initial materialization. Holds the writer
/// mutex across install + registration so no mutation slips between the
/// snapshot the answer reflects and the first delta the query sees.
fn handle_subscribe(
    shared: &Arc<Shared>,
    id: &Json,
    db: &str,
    inner: &ComputeKind,
    writer: &ConnWriter,
    my_subs: &mut Vec<u64>,
) -> io::Result<()> {
    let refuse = |error: ProtoError| {
        inc(&shared.stats.errors);
        err_response(id, &error)
    };
    let Some(handle) = shared.dbs.read().unwrap().get(db).cloned() else {
        return send(
            writer,
            &refuse(ProtoError::new(
                "unknown_db",
                format!("no database named `{db}` is loaded"),
            )),
        );
    };
    let Some(req) = exec_request(inner, None, false, false) else {
        return send(
            writer,
            &refuse(ProtoError::new(
                "bad_request",
                "`subscribe` target must be eval|datalog",
            )),
        );
    };
    let w = handle.writer.lock().unwrap();
    let snap = handle.snapshot();
    // Admission: standing queries are linted with the same rules as
    // one-shot `eval` — a query the server would refuse to run once is
    // also refused as a subscription, with a distinguishable code.
    if shared.cfg.admission {
        let report = exec::lint_with_db(&snap.db, &req, None);
        if report.has_errors() {
            let first = report
                .diagnostics
                .iter()
                .find(|d| d.severity == bvq_lint::Severity::Error)
                .expect("has_errors implies an error diagnostic");
            inc(&shared.stats.admission_rejected);
            drop(w);
            return send(
                writer,
                &refuse(ProtoError::new(
                    "lint_error",
                    format!("[{}] {}", first.code, first.message),
                )),
            );
        }
    }
    // Width budget: a standing query's registered text is what its
    // deltas are computed against, so it is never rewritten silently —
    // over-budget subscriptions are refused, quoting the certified
    // rewrite (when one exists) for the client to resubmit.
    if let Some(budget) = shared.cfg.max_width {
        match exec::admit_width(&req, budget) {
            exec::WidthAdmission::Admit => {}
            exec::WidthAdmission::Rewrite { text, width, k_min } => {
                inc(&shared.stats.admission_rejected);
                drop(w);
                return send(
                    writer,
                    &refuse(ProtoError::new(
                        "admission_rejected",
                        format!(
                            "width {width} exceeds the server's --max-width {budget}; \
                             subscribe to the certified width-{k_min} rewrite instead: {text}"
                        ),
                    )),
                );
            }
            exec::WidthAdmission::Reject { width, budget } => {
                inc(&shared.stats.admission_rejected);
                drop(w);
                return send(
                    writer,
                    &refuse(ProtoError::new(
                        "admission_rejected",
                        format!(
                            "width {width} exceeds the server's --max-width {budget} \
                             and no certified rewrite fits the budget"
                        ),
                    )),
                );
            }
        }
    }
    let prepared = match cached_prepare(shared, &req, &inner.cache_key()) {
        Ok(p) => p,
        Err(e) => {
            drop(w);
            return send(writer, &refuse(ProtoError::new(e.code(), e.to_string())));
        }
    };
    let plan = prepared.incr_plan();
    let cfg = EvalConfig::from_env();
    let (kind, label) = match (&*prepared, inner) {
        (exec::Prepared::Datalog(p), ComputeKind::Datalog { output, .. }) => {
            match StandingQuery::install(p.program.clone(), output, &snap.db, &cfg) {
                Ok(sq) => (
                    SubKind::Datalog(Box::new(sq)),
                    format!("datalog → {output}"),
                ),
                Err(e) => {
                    drop(w);
                    return send(
                        writer,
                        &refuse(ProtoError::new("bad_request", e.to_string())),
                    );
                }
            }
        }
        _ => {
            // Rediff: no delta semantics — materialize by evaluation now,
            // re-evaluate-and-diff on every dependent mutation.
            let label = match inner {
                ComputeKind::Eval { query, .. } => truncate_detail(query, 60),
                other => truncate_detail(&other.cache_key(), 60),
            };
            match exec::execute_prepared(&snap.db, &prepared, &req) {
                Ok(out) => (
                    SubKind::Query {
                        deps: prepared.referenced_relations(),
                        prepared: prepared.clone(),
                        req,
                        answer: answer_relation(out.answer),
                    },
                    label,
                ),
                Err(e) => {
                    drop(w);
                    return send(writer, &refuse(ProtoError::new(e.code(), e.to_string())));
                }
            }
        }
    };
    let sub_id = shared.next_sub.fetch_add(1, Ordering::SeqCst) + 1;
    let (frames_tx, frames_rx) = mpsc::channel::<String>();
    spawn_forwarder(writer.clone(), frames_rx);
    let entry = SubEntry {
        id: sub_id,
        db: handle.name.clone(),
        label,
        plan,
        epoch: snap.epoch,
        kind,
        sender: frames_tx,
        stats: SubStats::default(),
    };
    let count = entry.answer_len();
    let rows = Json::Arr(entry.answer().sorted().iter().map(row_json).collect());
    shared.subs.lock().unwrap().push(entry);
    drop(w);
    inc(&shared.stats.subscriptions_active);
    my_subs.push(sub_id);
    inc(&shared.stats.ok);
    send(
        writer,
        &ok_response(
            id,
            vec![
                ("sub".into(), Json::num(sub_id)),
                ("strategy".into(), Json::str(plan.strategy.label())),
                ("reason".into(), Json::str(plan.reason)),
                ("epoch".into(), Json::num(snap.epoch)),
                ("count".into(), Json::num(count as u64)),
                ("rows".into(), rows),
            ],
        ),
    )
}

fn handle_compute(
    mut compute: Compute,
    id: Json,
    shared: &Arc<Shared>,
    tx: &SyncSender<Msg>,
    writer: &ConnWriter,
) -> io::Result<()> {
    let fail = |error: &ProtoError| {
        inc(&shared.stats.errors);
        send(writer, &err_response(&id, error))
    };
    if shared.shutting_down.load(Ordering::SeqCst) {
        return fail(&ProtoError::new("shutting_down", "server is shutting down"));
    }
    if matches!(compute.kind, ComputeKind::Sleep { .. }) && !shared.cfg.debug_ops {
        return fail(&ProtoError::new(
            "unknown_op",
            "debug ops are disabled on this server",
        ));
    }
    // Pin the epoch at admission: concurrent mutations never change what
    // this job reads.
    let snapshot = if matches!(compute.kind, ComputeKind::Sleep { .. }) {
        None
    } else {
        match shared.dbs.read().unwrap().get(&compute.db) {
            Some(handle) => Some(handle.snapshot()),
            None => {
                return fail(&ProtoError::new(
                    "unknown_db",
                    format!("no database named `{}` is loaded", compute.db),
                ))
            }
        }
    };
    // Admission control: lint executable requests before they occupy a
    // queue slot; error-level findings (unsafe queries, arity/schema
    // mismatches, non-positive recursion) are rejected here. Purely
    // static — no evaluation happens on the connection thread.
    if shared.cfg.admission {
        if let (Some(snap), Some(req)) =
            (&snapshot, exec_request(&compute.kind, None, false, false))
        {
            let report = exec::lint_with_db(&snap.db, &req, None);
            if report.has_errors() {
                let first = report
                    .diagnostics
                    .iter()
                    .find(|d| d.severity == bvq_lint::Severity::Error)
                    .expect("has_errors implies an error diagnostic");
                inc(&shared.stats.admission_rejected);
                return fail(&ProtoError::new(
                    "admission_rejected",
                    format!("[{}] {}", first.code, first.message),
                ));
            }
        }
    }
    // Width budget: requests wider than `--max-width` are swapped for
    // their certified variable-minimizing rewrite when one fits, and
    // rejected otherwise. The rewrite is only trusted because the
    // analyzer's certificate validator accepted it.
    if let Some(budget) = shared.cfg.max_width {
        if let Some(req) = exec_request(&compute.kind, None, false, false) {
            match exec::admit_width(&req, budget) {
                exec::WidthAdmission::Admit => {}
                exec::WidthAdmission::Rewrite { text, .. } => {
                    if let ComputeKind::Eval { query, .. } = &mut compute.kind {
                        *query = text;
                        inc(&shared.stats.admission_rewritten);
                    }
                }
                exec::WidthAdmission::Reject { width, budget } => {
                    inc(&shared.stats.admission_rejected);
                    return fail(&ProtoError::new(
                        "admission_rejected",
                        format!(
                            "width {width} exceeds the server's --max-width {budget} \
                             and no certified rewrite fits the budget"
                        ),
                    ));
                }
            }
        }
    }
    let deadline = compute
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));
    let (reply_tx, reply_rx) = mpsc::channel();
    let stream = compute.stream;
    let want_cert = compute.certificate;
    let job = Box::new(Job {
        compute,
        snapshot,
        deadline,
        reply: reply_tx,
    });
    // Gauge first so a drain never misses an admitted job.
    inc(&shared.stats.queue_depth);
    // Stamped before the send: a worker may pick the job up, prepare and
    // execute it before `try_send` returns, and the language latency must
    // cover all of that.
    let enqueued = Instant::now();
    match tx.try_send(Msg::Job(job)) {
        Ok(()) => {}
        Err(TrySendError::Full(_)) => {
            dec(&shared.stats.queue_depth);
            inc(&shared.stats.overloaded);
            return fail(&ProtoError::new(
                "overloaded",
                "compute queue is full, retry later",
            ));
        }
        Err(TrySendError::Disconnected(_)) => {
            dec(&shared.stats.queue_depth);
            return fail(&ProtoError::new("shutting_down", "server is shutting down"));
        }
    }
    match reply_rx.recv() {
        Ok(Outcome::Failed { error, language }) => {
            if error.code == "deadline_exceeded" {
                inc(&shared.stats.deadline_exceeded);
            }
            shared.stats.record_latency(language, enqueued.elapsed());
            fail(&error)
        }
        Ok(Outcome::Slept { millis }) => {
            inc(&shared.stats.ok);
            shared
                .stats
                .record_latency(Language::Other, enqueued.elapsed());
            send(
                writer,
                &ok_response(&id, vec![("slept_ms".into(), Json::num(millis))]),
            )
        }
        Ok(Outcome::Done { payload, cached }) => {
            inc(&shared.stats.ok);
            shared
                .stats
                .record_latency(payload.language, enqueued.elapsed());
            // One lock for the whole (possibly streamed) result, so
            // delta frames never interleave inside it.
            let mut w = writer.lock().unwrap();
            write_result(&id, &payload, cached, stream, want_cert, &mut *w)?;
            w.flush()
        }
        Err(_) => fail(&ProtoError::new(
            "internal",
            "worker dropped the reply channel",
        )),
    }
}

fn row_json(t: &Tuple) -> Json {
    Json::Arr(t.as_slice().iter().map(|&e| Json::num(e as u64)).collect())
}

fn write_result(
    id: &Json,
    payload: &ResultPayload,
    cached: bool,
    stream: bool,
    want_cert: bool,
    writer: &mut impl Write,
) -> io::Result<()> {
    let mut fields: Vec<(String, Json)> = vec![
        (
            "language".into(),
            Json::Str(payload.language.label().into()),
        ),
        ("cached".into(), Json::Bool(cached)),
    ];
    if payload.k > 0 {
        fields.push(("k".into(), Json::num(payload.k as u64)));
    }
    if payload.width > 0 {
        fields.push(("width".into(), Json::num(payload.width as u64)));
    }
    if let Some(explain) = &payload.explain {
        fields.push(("explain".into(), explain.clone()));
        return write_json(writer, &ok_response(id, fields));
    }
    if let Some(lint) = &payload.lint {
        fields.push(("lint".into(), lint.clone()));
        return write_json(writer, &ok_response(id, fields));
    }
    if let Some(trace) = &payload.trace {
        fields.push(("trace".into(), span_json(trace)));
    }
    // Only `eval_certified` requests see the certificate on the wire;
    // plain requests served from a certificate-backed cache entry get
    // the ordinary response shape.
    if want_cert {
        if let Some(cert) = &payload.certificate {
            fields.push(("certified".into(), Json::Bool(true)));
            fields.push(("certificate".into(), Json::Str(cert.clone())));
        }
    }
    if let Some(text) = &payload.text {
        fields.push(("text".into(), Json::Str(text.clone())));
        return write_json(writer, &ok_response(id, fields));
    }
    if let Some(b) = payload.boolean {
        fields.push(("boolean".into(), Json::Bool(b)));
        return write_json(writer, &ok_response(id, fields));
    }
    let count = payload.rows.len();
    if stream {
        // Header, then one line per tuple, then a footer — constant
        // memory on the wire regardless of answer size.
        fields.push(("stream".into(), Json::Bool(true)));
        fields.push(("count".into(), Json::num(count as u64)));
        write_json(writer, &ok_response(id, fields))?;
        for t in &payload.rows {
            write_json(writer, &Json::Obj(vec![("row".into(), row_json(t))]))?;
        }
        write_json(
            writer,
            &Json::obj([
                ("done", Json::Bool(true)),
                ("count", Json::num(count as u64)),
            ]),
        )
    } else {
        fields.push(("count".into(), Json::num(count as u64)));
        fields.push((
            "rows".into(),
            Json::Arr(payload.rows.iter().map(row_json).collect()),
        ));
        write_json(writer, &ok_response(id, fields))
    }
}

fn worker_loop(shared: &Arc<Shared>, rx: &Arc<Mutex<Receiver<Msg>>>) {
    loop {
        let msg = {
            let rx = rx.lock().unwrap();
            rx.recv()
        };
        match msg {
            Err(_) | Ok(Msg::Stop) => break,
            Ok(Msg::Job(job)) => {
                // Inflight up before queue-depth down, so a drain check
                // never sees the job in neither gauge.
                inc(&shared.stats.inflight);
                dec(&shared.stats.queue_depth);
                let outcome = run_job(shared, &job);
                let _ = job.reply.send(outcome);
                dec(&shared.stats.inflight);
            }
        }
    }
}

fn run_job(shared: &Shared, job: &Job) -> Outcome {
    if let Some(d) = job.deadline {
        if Instant::now() >= d {
            return Outcome::Failed {
                error: ProtoError::new(
                    "deadline_exceeded",
                    "deadline expired while the request was queued",
                ),
                language: Language::Other,
            };
        }
    }
    match &job.compute.kind {
        ComputeKind::Sleep { millis } => {
            thread::sleep(Duration::from_millis((*millis).min(10_000)));
            Outcome::Slept { millis: *millis }
        }
        ComputeKind::Explain { inner, analyze } => run_explain_job(shared, job, inner, *analyze),
        ComputeKind::Lint { inner, budget } => run_lint_job(shared, job, inner, *budget),
        _ => run_compute_job(shared, job),
    }
}

/// Lowers a wire-level compute kind into the typed [`exec::ExecRequest`]
/// that [`exec::execute_prepared`] dispatches on. `None` for kinds that
/// are not executions (`Sleep`, `Explain` — the latter wraps one).
fn exec_request(
    kind: &ComputeKind,
    deadline: Option<Instant>,
    trace: bool,
    certificate: bool,
) -> Option<exec::ExecRequest> {
    let (ekind, mut opts) = match kind {
        ComputeKind::Eval {
            query,
            k,
            naive,
            minimize,
            threads,
            backend,
        } => (
            exec::ExecKind::Query {
                text: query.clone(),
            },
            EvalOptions {
                k: *k,
                naive: *naive,
                minimize: *minimize,
                threads: *threads,
                deadline,
                backend: *backend,
                ..Default::default()
            },
        ),
        ComputeKind::Eso { query, k } => (
            exec::ExecKind::Eso {
                text: query.clone(),
            },
            EvalOptions {
                k: *k,
                deadline,
                ..Default::default()
            },
        ),
        ComputeKind::Datalog {
            program,
            output,
            naive,
            backend,
        } => (
            exec::ExecKind::Datalog {
                program: program.clone(),
                output: output.clone(),
            },
            EvalOptions {
                naive: *naive,
                backend: *backend,
                deadline,
                ..Default::default()
            },
        ),
        ComputeKind::Explain { .. } | ComputeKind::Lint { .. } | ComputeKind::Sleep { .. } => {
            return None
        }
    };
    opts.certificate = certificate;
    Some(exec::ExecRequest {
        kind: ekind,
        opts,
        trace,
    })
}

/// Looks up (or prepares and caches) the plan for a request. Prepare
/// time is recorded in the phase histogram only on misses — a hit costs
/// one LRU probe.
fn cached_prepare(
    shared: &Shared,
    req: &exec::ExecRequest,
    key: &str,
) -> Result<Arc<exec::Prepared>, RunError> {
    if let Some(p) = shared.plan_cache.lock().unwrap().get(&key.to_string()) {
        inc(&shared.stats.plan_hits);
        return Ok(p);
    }
    inc(&shared.stats.plan_misses);
    let start = Instant::now();
    let p = Arc::new(exec::prepare_request(req)?);
    shared.stats.record_phase(Phase::Prepare, start.elapsed());
    shared
        .plan_cache
        .lock()
        .unwrap()
        .insert(key.to_string(), p.clone());
    Ok(p)
}

/// The one compute path: every `eval`/`eso`/`datalog` job flows through
/// here — plan cache, result cache, certified replica fan-out, then
/// [`exec::execute_prepared`].
fn run_compute_job(shared: &Shared, job: &Job) -> Outcome {
    let key = job.compute.kind.cache_key();
    let req = exec_request(
        &job.compute.kind,
        job.deadline,
        job.compute.trace,
        job.compute.certificate,
    )
    .expect("run_compute_job only sees executable kinds");
    let prepared = match cached_prepare(shared, &req, &key) {
        Ok(p) => p,
        Err(e) => return run_error(e, Language::Other),
    };
    let snapshot = job
        .snapshot
        .as_ref()
        .expect("compute job carries a snapshot");
    // Delta-keyed caching: the dependency fingerprint sees only the
    // relations this plan reads, so mutations elsewhere never evict it.
    let rkey = (
        key,
        snapshot.dep_fingerprint(&prepared.referenced_relations()),
    );
    if !job.compute.no_cache {
        if let Some(hit) = shared.result_cache.lock().unwrap().get(&rkey) {
            // A certified request may only be served from a cache entry
            // that actually carries a certificate — the certificate flag
            // is not in the cache key, so plain `eval` answers share
            // entries with `eval_certified` but never satisfy one bare.
            if !job.compute.certificate || hit.certificate.is_some() {
                inc(&shared.stats.result_hits);
                return Outcome::Done {
                    payload: hit,
                    cached: true,
                };
            }
        }
    }
    inc(&shared.stats.result_misses);
    if let Some(payload) = try_replica(shared, job, &prepared, &req, snapshot) {
        store_result(shared, job, rkey, &payload);
        return Outcome::Done {
            payload,
            cached: false,
        };
    }
    let start = Instant::now();
    match exec::execute_prepared(&snapshot.db, &prepared, &req) {
        Ok(out) => {
            shared.stats.record_phase(Phase::Execute, start.elapsed());
            if out.certificate.is_some() {
                inc(&shared.stats.cert_emitted);
            }
            let (boolean, rows, text) = match out.answer {
                exec::Answer::Boolean(b) => (Some(b), Vec::new(), None),
                exec::Answer::Rows(rel) => (None, rel.sorted(), None),
                exec::Answer::Text(t) => (None, Vec::new(), Some(t)),
            };
            let payload = Arc::new(ResultPayload {
                language: out.language,
                k: out.k,
                width: out.width,
                boolean,
                rows,
                text,
                trace: out.trace,
                explain: None,
                lint: None,
                certificate: out.certificate,
            });
            store_result(shared, job, rkey, &payload);
            Outcome::Done {
                payload,
                cached: false,
            }
        }
        Err(e) => run_error(e, prepared.language()),
    }
}

/// Certified replica fan-out. `Some(payload)` means a replica answered
/// **and** the coordinator's trusted checker validated the returned
/// certificate against this job's own epoch snapshot — the payload's
/// answer is the *checked claim*, never anything the replica asserted
/// outside the certificate. `None` means "evaluate locally": no
/// replicas, an ineligible kind (ESO reports are textual; traced
/// requests must be measured here), a transport failure, a replica-side
/// error, or a rejected certificate. Every fall-back after a fan-out
/// attempt bumps `replica_fallback`; rejections additionally bump
/// `cert_rejected` and are never served or cached.
fn try_replica(
    shared: &Shared,
    job: &Job,
    prepared: &exec::Prepared,
    req: &exec::ExecRequest,
    snapshot: &Snapshot,
) -> Option<Arc<ResultPayload>> {
    if job.compute.trace {
        return None;
    }
    let line = certified_wire_line(&job.compute.db, &job.compute.kind)?;
    let addr = shared.replicas.pick()?;
    let timeout = Duration::from_millis(shared.cfg.replica_timeout_ms.max(1));
    let fall = || {
        inc(&shared.stats.replica_fallback);
        None
    };
    let cap = shared.cfg.max_frame_bytes.max(1);
    let resp = match replica::exchange(&addr, &line, timeout, cap) {
        Ok(r) => r,
        Err(_) => {
            shared.replicas.report_failure(&addr);
            return fall();
        }
    };
    shared.replicas.report_success(&addr);
    let Ok(parsed) = Json::parse(&resp) else {
        shared.replicas.report_failure(&addr);
        return fall();
    };
    // `ok:false` is a healthy replica that couldn't serve the request
    // (unknown db, not_certifiable, ...) — fall back, no strikes.
    if !parsed.get("ok").map(Json::is_true).unwrap_or(false) {
        return fall();
    }
    let Some(cert_text) = parsed.get("certificate").and_then(Json::as_str) else {
        return fall();
    };
    inc(&shared.stats.cert_checked);
    match exec::check_certificate(&snapshot.db, prepared, req, cert_text) {
        Ok(answer) => {
            let (k, width) = exec::plan_dims(prepared);
            let (boolean, rows) = match answer {
                exec::Answer::Boolean(b) => (Some(b), Vec::new()),
                exec::Answer::Rows(rel) => (None, rel.sorted()),
                // The checker only ever produces booleans or rows.
                exec::Answer::Text(_) => return fall(),
            };
            Some(Arc::new(ResultPayload {
                language: prepared.language(),
                k,
                width,
                boolean,
                rows,
                text: None,
                trace: None,
                explain: None,
                lint: None,
                certificate: Some(cert_text.to_string()),
            }))
        }
        Err(_reject) => {
            inc(&shared.stats.cert_rejected);
            fall()
        }
    }
}

/// The `explain` op: shares the plan cache with the op it explains
/// (keyed by the *inner* request's cache key), never touches the result
/// cache, and under `analyze` runs the request with tracing forced on.
fn run_explain_job(shared: &Shared, job: &Job, inner: &ComputeKind, analyze: bool) -> Outcome {
    let Some(req) = exec_request(inner, job.deadline, false, false) else {
        return Outcome::Failed {
            error: ProtoError::new("bad_request", "`explain` target must be eval|eso|datalog"),
            language: Language::Other,
        };
    };
    let prepared = match cached_prepare(shared, &req, &inner.cache_key()) {
        Ok(p) => p,
        Err(e) => return run_error(e, Language::Other),
    };
    let snap = job
        .snapshot
        .as_ref()
        .expect("explain job carries a snapshot");
    let start = Instant::now();
    match exec::explain_prepared(&snap.db, &prepared, &req, analyze) {
        Ok(report) => {
            if analyze {
                shared.stats.record_phase(Phase::Execute, start.elapsed());
            }
            let payload = Arc::new(ResultPayload {
                language: report.language,
                k: report.k,
                width: report.width,
                boolean: None,
                rows: Vec::new(),
                text: None,
                trace: None,
                explain: Some(explain_json(&report)),
                lint: None,
                certificate: None,
            });
            Outcome::Done {
                payload,
                cached: false,
            }
        }
        Err(e) => run_error(e, prepared.language()),
    }
}

/// The `lint` op: a purely static pass — the target request is parsed
/// and analysed against the database's schema and domain size, but
/// **never evaluated**. Reports are cheap and never cached.
fn run_lint_job(shared: &Shared, job: &Job, inner: &ComputeKind, budget: Option<u64>) -> Outcome {
    let Some(req) = exec_request(inner, None, false, false) else {
        return Outcome::Failed {
            error: ProtoError::new("bad_request", "`lint` target must be eval|eso|datalog"),
            language: Language::Other,
        };
    };
    let snap = job.snapshot.as_ref().expect("lint job carries a snapshot");
    let start = Instant::now();
    let report = exec::lint_with_db(&snap.db, &req, budget.map(u128::from));
    shared.stats.record_phase(Phase::Prepare, start.elapsed());
    let payload = Arc::new(ResultPayload {
        language: Language::Other,
        k: 0,
        width: report.width,
        boolean: None,
        rows: Vec::new(),
        text: None,
        trace: None,
        explain: None,
        lint: Some(exec::lint_json(&report)),
        certificate: None,
    });
    Outcome::Done {
        payload,
        cached: false,
    }
}

/// Serialises an explain report for the wire.
fn explain_json(report: &exec::ExplainReport) -> Json {
    let mut fields = vec![
        ("label", Json::Str(report.label.clone())),
        ("backend", Json::Str(report.backend.to_string())),
        ("engine", Json::Str(report.engine.clone())),
        ("bound", Json::Str(report.bound.clone())),
        ("cache_key", Json::Str(report.cache_key.clone())),
        ("maintenance", Json::Str(report.maintenance.clone())),
        ("analyzed", Json::Bool(report.analyzed.is_some())),
    ];
    if !report.cost.is_empty() {
        fields.push((
            "cost",
            Json::Arr(report.cost.iter().map(|l| Json::str(l.clone())).collect()),
        ));
    }
    if let Some(bc) = &report.bytecode {
        fields.push(("bytecode", Json::str(bc.clone())));
    }
    if let Some(note) = &report.minimized {
        fields.push(("minimized", Json::Str(note.clone())));
    }
    if !report.analysis.is_empty() {
        fields.push((
            "analysis",
            Json::Arr(
                report
                    .analysis
                    .iter()
                    .map(|l| Json::str(l.clone()))
                    .collect(),
            ),
        ));
    }
    fields.push(("plan", span_json(&report.plan)));
    Json::obj(fields)
}

/// Serialises a span tree for the wire (omitting empty/zero fields).
fn span_json(span: &Span) -> Json {
    let mut fields = vec![
        ("kind", Json::Str(span.kind.to_string())),
        ("detail", Json::Str(span.detail.clone())),
        ("arity", Json::num(span.arity as u64)),
        ("rows", Json::num(span.rows as u64)),
    ];
    if let Some(r) = span.round {
        fields.push(("round", Json::num(r)));
    }
    if span.elapsed_ns > 0 {
        fields.push(("elapsed_ns", Json::num(span.elapsed_ns)));
    }
    if !span.children.is_empty() {
        fields.push((
            "children",
            Json::Arr(span.children.iter().map(span_json).collect()),
        ));
    }
    Json::obj(fields)
}

fn run_error(e: RunError, language: Language) -> Outcome {
    Outcome::Failed {
        error: ProtoError::new(e.code(), e.to_string()),
        language,
    }
}

fn store_result(shared: &Shared, job: &Job, rkey: (String, u64), payload: &Arc<ResultPayload>) {
    if !job.compute.no_cache {
        shared
            .result_cache
            .lock()
            .unwrap()
            .insert(rkey, payload.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;

    fn graph_db() -> Database {
        bvq_relation::parse_database("domain 5\nrel E/2\n0 1\n1 2\n2 3\n3 4\nend").unwrap()
    }

    fn start_default() -> ServerHandle {
        let handle = Server::start(ServerConfig::default()).unwrap();
        handle.load_db("g", graph_db());
        handle
    }

    #[test]
    fn ping_eval_and_cache_hits() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        assert!(c.ping().unwrap());

        let q = "(x1) exists x2. (E(x1,x2) & E(x2,x1))";
        let first = c.eval("g", q).unwrap();
        assert!(first.get("ok").map(Json::is_true).unwrap());
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let second = c.eval("g", q).unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(first.get("rows"), second.get("rows"));
        assert!(handle.stats().result_hits.load(Ordering::Relaxed) >= 1);
        assert!(handle.stats().plan_hits.load(Ordering::Relaxed) >= 1);
        handle.shutdown();
    }

    #[test]
    fn ping_reports_version_and_capabilities() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.send_line(r#"{"op":"ping"}"#).unwrap();
        let resp = c.recv().unwrap();
        assert_eq!(resp.get("v").and_then(Json::as_u64), Some(3));
        let caps = resp.get("capabilities").expect("capabilities").clone();
        let rendered = caps.to_string_compact();
        for op in [
            "\"eval\"",
            "\"explain\"",
            "\"datalog\"",
            "\"eval_certified\"",
            "\"register_replica\"",
        ] {
            assert!(rendered.contains(op), "missing {op} in {rendered}");
        }
        assert!(rendered.contains("\"trace\""));
        assert!(rendered.contains("\"certificates\"") && rendered.contains("\"replicas\""));
        handle.shutdown();
    }

    #[test]
    fn explain_and_traced_eval_round_trip() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        // Static explain: a plan tree, no execution.
        c.send_line(r#"{"op":"explain","db":"g","query":"(x1) exists x2. E(x1,x2)"}"#)
            .unwrap();
        let resp = c.recv().unwrap();
        assert!(resp.get("ok").map(Json::is_true).unwrap(), "{resp:?}");
        let explain = resp.get("explain").expect("explain payload");
        assert_eq!(explain.get("backend").and_then(Json::as_str), Some("dense"));
        let plan = explain.get("plan").expect("plan tree");
        assert_eq!(plan.get("kind").and_then(Json::as_str), Some("exists"));
        // Traced eval: span tree attached, result cache bypassed.
        let traced = r#"{"op":"eval","db":"g","query":"(x1) exists x2. E(x1,x2)","trace":true}"#;
        c.send_line(traced).unwrap();
        let first = c.recv().unwrap();
        let trace = first.get("trace").expect("span tree");
        assert_eq!(trace.get("kind").and_then(Json::as_str), Some("exists"));
        assert!(trace.get("children").is_some());
        c.send_line(traced).unwrap();
        let second = c.recv().unwrap();
        assert_eq!(second.get("cached"), Some(&Json::Bool(false)));
        assert!(second.get("trace").is_some());
        // Traced datalog carries round spans.
        c.send_line(
            r#"{"op":"datalog","db":"g","program":"T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).","output":"T","trace":true}"#,
        )
        .unwrap();
        let resp = c.recv().unwrap();
        let trace = resp.get("trace").expect("datalog span tree");
        assert_eq!(trace.get("kind").and_then(Json::as_str), Some("datalog"));
        handle.shutdown();
    }

    #[test]
    fn lint_op_round_trips_without_evaluating() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        let resp = c.lint("g", "(x1) exists x2. E(x1,x2)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        let lint = resp.get("lint").expect("lint payload");
        assert_eq!(
            lint.get("language").and_then(Json::as_str),
            Some("acyclic CQ (⊆ FO^2)")
        );
        assert_eq!(
            lint.get("errors").and_then(Json::as_u64),
            Some(0),
            "{lint:?}"
        );
        // An unsafe query lints with an error but still answers ok:true
        // — the lint op reports, it does not reject.
        let resp = c.lint("g", "(x1) ~E(x1,x1)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        let lint = resp.get("lint").expect("lint payload");
        assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(1));
        let diags = lint
            .get("diagnostics")
            .and_then(Json::as_arr)
            .expect("diagnostics array");
        assert_eq!(
            diags[0].get("code").and_then(Json::as_str),
            Some("BVQ-E001")
        );
        // A datalog target with a budget.
        c.send_line(
            r#"{"op":"lint","db":"g","target":"datalog","program":"T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).","output":"T","budget":2}"#,
        )
        .unwrap();
        let resp = c.recv().unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        let lint = resp.get("lint").expect("lint payload");
        assert_eq!(
            lint.get("language").and_then(Json::as_str),
            Some("DATALOG^3")
        );
        // n^k = 5^3 = 125 > 2, so the budget warning fires.
        assert!(lint.get("warnings").and_then(Json::as_u64) >= Some(1));
        handle.shutdown();
    }

    #[test]
    fn admission_rejects_error_level_queries() {
        let mut handle = Server::start(ServerConfig {
            admission: true,
            ..ServerConfig::default()
        })
        .unwrap();
        handle.load_db("g", graph_db());
        let mut c = Client::connect(handle.addr()).unwrap();
        // Clean queries pass admission and evaluate normally.
        let resp = c.eval("g", "(x1) E(x1,x1)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        // Unsafe FO: rejected before reaching a worker.
        let resp = c.eval("g", "(x1) ~E(x1,x1)").unwrap();
        assert_eq!(Client::error_code(&resp), Some("admission_rejected"));
        let msg = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("BVQ-E001"), "{msg}");
        // Unknown relation: also rejected.
        let resp = c.eval("g", "(x1) Zap(x1)").unwrap();
        assert_eq!(Client::error_code(&resp), Some("admission_rejected"));
        assert!(handle.stats().admission_rejected.load(Ordering::Relaxed) >= 2);
        // The lint op itself is never admission-checked (it wraps the
        // target rather than executing it), so clients can still ask
        // *why* a query was rejected.
        let resp = c.lint("g", "(x1) ~E(x1,x1)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        handle.shutdown();
    }

    #[test]
    fn max_width_gate_rewrites_or_rejects() {
        let mut handle = Server::start(ServerConfig {
            admission: true,
            max_width: Some(2),
            ..ServerConfig::default()
        })
        .unwrap();
        handle.load_db("g", graph_db());
        let mut c = Client::connect(handle.addr()).unwrap();
        // Width 4 as written, but the analyzer certifies a width-2
        // rewrite: admitted, evaluated as the rewrite, same answer.
        let chain = "(x1) exists x2. exists x3. exists x4. ((E(x1,x2) & E(x2,x3)) & E(x3,x4))";
        let resp = c.eval("g", chain).unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        let rows = resp.get("rows").and_then(Json::as_arr).unwrap();
        assert_eq!(rows.len(), 2, "path of length 3 starts at 0 and 1");
        assert!(handle.stats().admission_rewritten.load(Ordering::Relaxed) >= 1);
        // A genuinely width-3 query (cyclic core, no rewrite fits):
        // rejected before reaching a worker.
        let tri = "(x1) exists x2. exists x3. ((E(x1,x2) & E(x2,x3)) & E(x3,x1))";
        let resp = c.eval("g", tri).unwrap();
        assert_eq!(Client::error_code(&resp), Some("admission_rejected"));
        let msg = resp
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("--max-width 2"), "{msg}");
        // Subscriptions are never rewritten silently: the refusal quotes
        // the certified rewrite for the client to resubmit.
        let ack = c.subscribe_eval("g", chain).unwrap();
        assert_eq!(Client::error_code(&ack), Some("admission_rejected"));
        let msg = ack
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap();
        assert!(msg.contains("width-2 rewrite"), "{msg}");
        // Queries already within budget pass untouched.
        let resp = c.eval("g", "(x1) exists x2. E(x1,x2)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        handle.shutdown();
    }

    #[test]
    fn mutations_advance_epochs_and_deltas_reach_subscribers() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        // Subscribe to transitive closure: recursive → DRed.
        let ack = c
            .subscribe_datalog("g", "T(x,y) :- E(x,y).\nT(x,z) :- T(x,y), E(y,z).", "T")
            .unwrap();
        assert!(Client::is_ok(&ack), "{ack:?}");
        assert_eq!(ack.get("strategy").and_then(Json::as_str), Some("dred"));
        let sub = ack.get("sub").and_then(Json::as_u64).unwrap();
        assert_eq!(ack.get("count").and_then(Json::as_u64), Some(10));
        // Epoch pinning: a snapshot taken now must not see the insert.
        let pinned = handle.db_snapshot("g").unwrap();
        assert_eq!(pinned.epoch, 0);
        // Insert a closing edge 4→0: the closure becomes all 25 pairs.
        let resp = c.insert("g", "E", &[4, 0]).unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(resp.get("notified").and_then(Json::as_u64), Some(1));
        let (epoch, add, del) = c.recv_delta(sub).unwrap();
        assert_eq!(epoch, 1);
        assert_eq!(add.len(), 15, "10 → 25 closure tuples");
        assert!(del.is_empty());
        assert!(!pinned.db.relation_by_name("E").unwrap().contains(&[4, 0]));
        assert_eq!(handle.db_snapshot("g").unwrap().epoch, 1);
        // A no-op batch does not advance the epoch or notify.
        let resp = c.insert("g", "E", &[4, 0]).unwrap();
        assert_eq!(resp.get("epoch").and_then(Json::as_u64), Some(1));
        assert_eq!(resp.get("notified").and_then(Json::as_u64), Some(0));
        // Subscription stats are live.
        let resp = c.subscriptions().unwrap();
        let subs = resp.get("subscriptions").and_then(Json::as_arr).unwrap();
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].get("rows").and_then(Json::as_u64), Some(25));
        assert_eq!(subs[0].get("updates").and_then(Json::as_u64), Some(1));
        // Unsubscribe; a second unsubscribe is unknown_sub.
        assert!(Client::is_ok(&c.unsubscribe(sub).unwrap()));
        assert_eq!(
            Client::error_code(&c.unsubscribe(sub).unwrap()),
            Some("unknown_sub")
        );
        handle.shutdown();
    }

    #[test]
    fn result_cache_is_delta_keyed() {
        let mut handle = Server::start(ServerConfig::default()).unwrap();
        handle.load_db(
            "g",
            bvq_relation::parse_database("domain 5\nrel E/2\n0 1\n1 2\nend\nrel P/1\n3\nend")
                .unwrap(),
        );
        let mut c = Client::connect(handle.addr()).unwrap();
        let p_query = "(x1) P(x1)";
        assert_eq!(
            c.eval("g", p_query).unwrap().get("cached"),
            Some(&Json::Bool(false))
        );
        // Mutating E must not evict the P-only cached answer...
        assert!(Client::is_ok(&c.insert("g", "E", &[2, 3]).unwrap()));
        assert_eq!(
            c.eval("g", p_query).unwrap().get("cached"),
            Some(&Json::Bool(true))
        );
        // ...but mutating P must.
        assert!(Client::is_ok(&c.insert("g", "P", &[4]).unwrap()));
        let resp = c.eval("g", p_query).unwrap();
        assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(2));
        // Invalid mutations are structured errors, database untouched.
        let resp = c.insert("g", "Zap", &[0]).unwrap();
        assert_eq!(Client::error_code(&resp), Some("mutation_error"));
        let resp = c.insert("g", "E", &[9, 9]).unwrap();
        assert_eq!(Client::error_code(&resp), Some("mutation_error"));
        assert_eq!(handle.db_snapshot("g").unwrap().epoch, 2);
        handle.shutdown();
    }

    #[test]
    fn structured_errors_keep_connection_alive() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        c.send_line("this is not json").unwrap();
        let resp = c.recv().unwrap();
        assert_eq!(Client::error_code(&resp), Some("bad_request"));
        let resp = c.eval("nope", "(x1) E(x1,x1)").unwrap();
        assert_eq!(Client::error_code(&resp), Some("unknown_db"));
        // The connection survived both errors.
        assert!(c.ping().unwrap());
        handle.shutdown();
    }

    #[test]
    fn client_shutdown_drains() {
        let handle = start_default();
        let addr = handle.addr();
        let mut c = Client::connect(addr).unwrap();
        let resp = c.shutdown().unwrap();
        assert!(resp.get("ok").map(Json::is_true).unwrap());
        handle.wait();
        // New compute work is refused after shutdown.
        let mut c2 = Client::connect(addr);
        if let Ok(c2) = c2.as_mut() {
            if let Ok(resp) = c2.eval("g", "(x1) E(x1,x1)") {
                assert_eq!(Client::error_code(&resp), Some("shutting_down"));
            }
        }
    }

    // ---- certified evaluation & replicas -------------------------------

    /// Transitive closure of the 5-node path in `graph_db` (an FP query,
    /// so the certificate is an iteration trace).
    const TC_QUERY: &str =
        "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)";

    #[test]
    fn eval_certified_returns_a_checkable_certificate() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        let resp = c.eval_certified("g", TC_QUERY).unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        assert_eq!(resp.get("certified"), Some(&Json::Bool(true)));
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(10));
        let cert = resp
            .get("certificate")
            .and_then(Json::as_str)
            .expect("certificate text");
        // The certificate is independently checkable by the trusted
        // checker, straight off the wire.
        let q = bvq_logic::parser::parse_query(TC_QUERY).unwrap();
        let ans =
            bvq_cert::check_text(&graph_db(), &bvq_cert::CheckRequest::Query(&q), cert).unwrap();
        match ans {
            bvq_cert::CheckedAnswer::Rows(rel) => assert_eq!(rel.len(), 10),
            other => panic!("expected rows, got {other:?}"),
        }
        assert_eq!(handle.stats().cert_emitted.load(Ordering::Relaxed), 1);
        handle.shutdown();
    }

    #[test]
    fn certified_datalog_and_plain_eval_share_cache_entries_one_way() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        let prog = "T(x,y) :- E(x,y). T(x,y) :- E(x,z), T(z,y).";
        // A plain answer is cached without a certificate...
        let plain = c.datalog("g", prog, "T").unwrap();
        assert!(Client::is_ok(&plain));
        assert_eq!(plain.get("cached"), Some(&Json::Bool(false)));
        // ...so a certified request must NOT be served from it bare.
        let certified = c.datalog_certified("g", prog, "T").unwrap();
        assert!(Client::is_ok(&certified), "{certified:?}");
        assert_eq!(certified.get("cached"), Some(&Json::Bool(false)));
        assert!(certified.get("certificate").is_some());
        assert_eq!(plain.get("rows"), certified.get("rows"));
        // The certified entry replaced the bare one; both request shapes
        // now hit it (the plain response just omits the certificate).
        let again = c.datalog_certified("g", prog, "T").unwrap();
        assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
        assert!(again.get("certificate").is_some());
        let plain_again = c.datalog("g", prog, "T").unwrap();
        assert_eq!(plain_again.get("cached"), Some(&Json::Bool(true)));
        assert!(plain_again.get("certificate").is_none());
        // The stats op reports the certificate-backed cache entry.
        let stats = c.stats().unwrap();
        assert_eq!(
            stats.get("result_cache_certified").and_then(Json::as_u64),
            Some(1)
        );
        handle.shutdown();
    }

    #[test]
    fn uncertifiable_requests_fail_structurally() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        // IFP is outside the certificate fragment (Theorem 3.5 covers
        // FP; inflationary traces are refused, not faked).
        let resp = c
            .call_op(
                "eval_certified",
                vec![
                    ("db", Json::str("g")),
                    (
                        "query",
                        Json::str("(x1) [ifp S(x1) . E(x1, x1) | S(x1)](x1)"),
                    ),
                ],
            )
            .unwrap();
        assert_eq!(Client::error_code(&resp), Some("not_certifiable"));
        // The failure is not cached: a plain eval still works.
        let resp = c
            .eval("g", "(x1) [ifp S(x1) . E(x1, x1) | S(x1)](x1)")
            .unwrap();
        assert!(Client::is_ok(&resp));
        handle.shutdown();
    }

    fn start_replica_of(coordinator: SocketAddr) -> ServerHandle {
        let handle = Server::start(ServerConfig {
            replica_of: Some(coordinator.to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        handle.load_db("g", graph_db());
        handle
    }

    fn wait_for_replicas(handle: &ServerHandle, n: usize) {
        for _ in 0..200 {
            if handle.shared.replicas.occupancy().0 >= n {
                return;
            }
            thread::sleep(Duration::from_millis(10));
        }
        panic!("replica never registered");
    }

    #[test]
    fn replica_fan_out_validates_certificates_before_answering() {
        let mut coord = start_default();
        let mut replica = start_replica_of(coord.addr());
        wait_for_replicas(&coord, 1);

        let mut c = Client::connect(coord.addr()).unwrap();
        let resp = c.eval("g", TC_QUERY).unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(10));
        // The work ran on the replica; the coordinator only checked.
        assert_eq!(coord.stats().cert_checked.load(Ordering::Relaxed), 1);
        assert_eq!(coord.stats().cert_rejected.load(Ordering::Relaxed), 0);
        assert_eq!(coord.stats().replica_fallback.load(Ordering::Relaxed), 0);
        assert_eq!(replica.stats().cert_emitted.load(Ordering::Relaxed), 1);
        // The checked answer was cached (with its certificate), so a
        // certified request is a cache hit that does not touch the
        // replica again.
        let again = c.eval_certified("g", TC_QUERY).unwrap();
        assert_eq!(again.get("cached"), Some(&Json::Bool(true)));
        assert!(again.get("certificate").is_some());
        assert_eq!(coord.stats().cert_checked.load(Ordering::Relaxed), 1);
        replica.shutdown();
        coord.shutdown();
    }

    #[test]
    fn divergent_replica_data_is_rejected_by_the_checker() {
        let mut coord = start_default();
        // The replica serves the same db *name* with different edges —
        // a stale or lying worker. Its certificates are honest for its
        // own data, which is exactly what the coordinator must reject.
        let mut replica = Server::start(ServerConfig {
            replica_of: Some(coord.addr().to_string()),
            ..ServerConfig::default()
        })
        .unwrap();
        replica.load_db(
            "g",
            bvq_relation::parse_database("domain 5\nrel E/2\n0 1\nend").unwrap(),
        );
        wait_for_replicas(&coord, 1);

        let mut c = Client::connect(coord.addr()).unwrap();
        let resp = c.eval("g", TC_QUERY).unwrap();
        // The client still gets the *correct* answer — local fallback.
        assert!(Client::is_ok(&resp), "{resp:?}");
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(10));
        assert_eq!(coord.stats().cert_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(coord.stats().replica_fallback.load(Ordering::Relaxed), 1);
        // A rejected certificate is never cached: the cached entry is
        // the locally-computed one.
        let stats = Client::connect(coord.addr()).unwrap().stats().unwrap();
        assert_eq!(
            stats.get("result_cache_certified").and_then(Json::as_u64),
            Some(0)
        );
        replica.shutdown();
        coord.shutdown();
    }

    /// A fake replica: answers every connection with `response` (or
    /// drops it immediately when `None`), `conns` times.
    fn byzantine_replica(response: Option<String>, conns: usize) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        thread::spawn(move || {
            for _ in 0..conns {
                let Ok((stream, _)) = listener.accept() else {
                    return;
                };
                let mut reader = io::BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                if let Some(resp) = &response {
                    let mut w = stream;
                    let _ = writeln!(w, "{resp}");
                }
                // `None`: drop the connection mid-exchange.
            }
        });
        addr
    }

    #[test]
    fn corrupted_replica_certificates_are_rejected_with_local_fallback() {
        let mut coord = start_default();
        // An actively lying replica: protocol-shaped response, garbage
        // certificate (a boolean claim for a rows query).
        let forged = Json::obj([
            ("ok", Json::Bool(true)),
            (
                "certificate",
                Json::str("bvqcert 1 fp\nclaim bool true\nend\n"),
            ),
        ])
        .to_string_compact();
        let addr = byzantine_replica(Some(forged), 1);
        let mut c = Client::connect(coord.addr()).unwrap();
        assert!(Client::is_ok(
            &c.register_replica(&addr.to_string()).unwrap()
        ));

        let resp = c.eval("g", "(x1) exists x2. E(x1,x2)").unwrap();
        assert!(Client::is_ok(&resp), "{resp:?}");
        assert_eq!(resp.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(coord.stats().cert_checked.load(Ordering::Relaxed), 1);
        assert_eq!(coord.stats().cert_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(coord.stats().replica_fallback.load(Ordering::Relaxed), 1);
        coord.shutdown();
    }

    #[test]
    fn dropped_replica_connections_fall_back_and_quarantine() {
        let mut coord = Server::start(ServerConfig {
            replica_timeout_ms: 200,
            ..ServerConfig::default()
        })
        .unwrap();
        coord.load_db("g", graph_db());
        let addr = byzantine_replica(None, 8); // drops every exchange
        let mut c = Client::connect(coord.addr()).unwrap();
        assert!(Client::is_ok(
            &c.register_replica(&addr.to_string()).unwrap()
        ));

        // Distinct queries so the result cache never short-circuits the
        // fan-out path; three transport failures quarantine the pool.
        for (i, q) in [
            "(x1) E(x1, x1)",
            "(x1) exists x2. E(x1,x2)",
            "(x1) exists x2. E(x2,x1)",
            "(x1, x2) E(x1, x2)",
        ]
        .iter()
        .enumerate()
        {
            let resp = c.eval("g", q).unwrap();
            assert!(Client::is_ok(&resp), "query {i} failed: {resp:?}");
        }
        // Never more than MAX_FAILURES fan-out attempts reached the
        // dead replica; the tail ran purely locally.
        assert_eq!(coord.stats().replica_fallback.load(Ordering::Relaxed), 3);
        assert_eq!(coord.stats().cert_checked.load(Ordering::Relaxed), 0);
        let stats = c.stats().unwrap();
        assert_eq!(stats.get("replicas").and_then(Json::as_u64), Some(1));
        assert_eq!(
            stats.get("replicas_healthy").and_then(Json::as_u64),
            Some(0)
        );
        coord.shutdown();
    }

    /// A fake replica that reads one request line, then sends reply
    /// bytes without a newline until the coordinator hangs up: 4 KiB at
    /// a time, or one byte every 10 ms when `trickle`.
    fn endless_replica(trickle: bool) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = thread::spawn(move || {
            if let Ok((stream, _)) = listener.accept() {
                let mut reader = io::BufReader::new(stream.try_clone().unwrap());
                let mut line = String::new();
                let _ = reader.read_line(&mut line);
                let mut w = stream;
                let bytes = if trickle { 1 } else { 4096 };
                while w.write_all(&vec![b'x'; bytes]).is_ok() {
                    if trickle {
                        thread::sleep(Duration::from_millis(10));
                    }
                }
            }
        });
        (addr, sender)
    }

    #[test]
    fn endless_and_trickling_replica_replies_fall_back_to_local_answers() {
        let mut coord = Server::start(ServerConfig {
            replica_timeout_ms: 300,
            max_frame_bytes: 1 << 16,
            ..ServerConfig::default()
        })
        .unwrap();
        coord.load_db("g", graph_db());
        let mut c = Client::connect(coord.addr()).unwrap();
        for (i, trickle) in [false, true].into_iter().enumerate() {
            let (addr, sender) = endless_replica(trickle);
            assert!(Client::is_ok(
                &c.register_replica(&addr.to_string()).unwrap()
            ));
            // Each query is new, so the result cache never answers it.
            let q = ["(x1) exists x2. E(x1,x2)", "(x1) exists x2. E(x2,x1)"][i];
            let start = Instant::now();
            let resp = c.eval("g", q).unwrap();
            assert!(Client::is_ok(&resp), "trickle={trickle}: {resp:?}");
            assert_eq!(resp.get("count").and_then(Json::as_u64), Some(4));
            assert!(
                start.elapsed() < Duration::from_secs(2),
                "trickle={trickle}: {:?}",
                start.elapsed()
            );
            assert_eq!(
                coord.stats().replica_fallback.load(Ordering::Relaxed),
                i as u64 + 1
            );
            sender.join().unwrap();
        }
        assert_eq!(coord.stats().cert_checked.load(Ordering::Relaxed), 0);
        coord.shutdown();
    }

    #[test]
    fn self_registration_is_refused() {
        let mut handle = start_default();
        let mut c = Client::connect(handle.addr()).unwrap();
        let resp = c.register_replica(&handle.addr().to_string()).unwrap();
        assert_eq!(Client::error_code(&resp), Some("bad_request"));
        assert_eq!(handle.shared.replicas.occupancy(), (0, 0));
        handle.shutdown();
    }
}
