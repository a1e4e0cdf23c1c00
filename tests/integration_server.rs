//! End-to-end tests for the bvq query server over loopback TCP:
//! concurrent clients across languages agree with direct evaluation,
//! caches hit on repeats, structured errors never kill a connection,
//! deadlines abort between fixpoint rounds, the bounded queue sheds
//! load, and graceful shutdown drains in-flight work.

use std::sync::atomic::Ordering::Relaxed;
use std::time::Duration;

use bvq_relation::parse_database;
use bvq_server::{run_eval, Client, EvalOptions, Json, Server, ServerConfig, ServerHandle};
use bvq_workload::graphs::{graph_db, GraphKind};

const DB_TEXT: &str = "domain 6\nrel E/2\n0 1\n1 2\n2 3\n3 4\n4 5\nend\nrel P/1\n3\nend";

const FO_QUERY: &str = "(x1) exists x2. (E(x1,x2) & P(x2))";
const FP_QUERY: &str = "(x1) [lfp S(x1). (x1 = 0 | exists x2. (S(x2) & E(x2,x1)))](x1)";
const DATALOG_TC: &str = "T(x,y) :- E(x,y). T(x,z) :- T(x,y), E(y,z).";

fn start_server(cfg: ServerConfig) -> ServerHandle {
    let handle = Server::start(cfg).expect("bind loopback");
    handle.load_db("g", parse_database(DB_TEXT).expect("parse db"));
    handle
}

fn default_server() -> ServerHandle {
    start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
}

fn rows_of(resp: &Json) -> Vec<Vec<u64>> {
    resp.get("rows")
        .and_then(Json::as_arr)
        .expect("rows")
        .iter()
        .map(|r| {
            r.as_arr()
                .unwrap()
                .iter()
                .filter_map(Json::as_u64)
                .collect()
        })
        .collect()
}

/// ≥ 8 concurrent clients mixing FO^k, FP^k and Datalog queries get
/// exactly the answers direct evaluation computes.
#[test]
fn concurrent_clients_agree_with_direct_eval() {
    let db = parse_database(DB_TEXT).unwrap();
    // Direct answers, via the same front-end the CLI uses.
    let direct_fo = run_eval(&db, FO_QUERY, &EvalOptions::default()).unwrap();
    let direct_fp = run_eval(&db, FP_QUERY, &EvalOptions::default()).unwrap();
    assert!(direct_fo.contains("⟨2⟩"));

    let mut handle = default_server();
    let addr = handle.addr();
    let (direct_fo, direct_fp) = (&direct_fo, &direct_fp);
    std::thread::scope(|s| {
        for i in 0..9 {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..5 {
                    match i % 3 {
                        0 => {
                            let resp = c.eval("g", FO_QUERY).expect("fo");
                            assert!(Client::is_ok(&resp), "{resp}");
                            // run_eval reported exactly one answer ⟨2⟩.
                            assert_eq!(rows_of(&resp), vec![vec![2]], "vs: {direct_fo}");
                        }
                        1 => {
                            let resp = c.eval("g", FP_QUERY).expect("fp");
                            assert!(Client::is_ok(&resp), "{resp}");
                            // Reachability from 0 on the 6-path: everything.
                            let rows = rows_of(&resp);
                            assert_eq!(rows.len(), 6, "vs: {direct_fp}");
                            assert_eq!(resp.get("language"), Some(&Json::str("FP")));
                        }
                        _ => {
                            let resp = c.datalog("g", DATALOG_TC, "T").expect("datalog");
                            assert!(Client::is_ok(&resp), "{resp}");
                            // Transitive closure of the 6-path: 5+4+3+2+1.
                            assert_eq!(resp.get("count").and_then(Json::as_u64), Some(15));
                        }
                    }
                }
            });
        }
    });
    handle.shutdown();
}

/// Repeating a query raises the cache-hit counters, and the repeated
/// answer is byte-identical and flagged `cached`.
#[test]
fn repeated_queries_hit_the_caches() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();

    let first = c.eval("g", FP_QUERY).unwrap();
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let hits_before = handle.stats().result_hits.load(Relaxed);
    let plan_hits_before = handle.stats().plan_hits.load(Relaxed);

    let second = c.eval("g", FP_QUERY).unwrap();
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(rows_of(&first), rows_of(&second));
    assert!(handle.stats().result_hits.load(Relaxed) > hits_before);
    assert!(handle.stats().plan_hits.load(Relaxed) > plan_hits_before);

    // The stats op sees the same counters.
    let stats = c.stats().unwrap();
    assert!(stats.get("result_hits").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

/// Two databases loaded from identical text share result-cache entries:
/// the key is the structural fingerprint, not the name.
#[test]
fn identical_databases_share_cached_results() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(Client::is_ok(&c.load_db("g2", DB_TEXT).unwrap()));
    let on_g = c.eval("g", FO_QUERY).unwrap();
    assert_eq!(on_g.get("cached"), Some(&Json::Bool(false)));
    let on_g2 = c.eval("g2", FO_QUERY).unwrap();
    assert_eq!(on_g2.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(rows_of(&on_g), rows_of(&on_g2));
    handle.shutdown();
}

/// Malformed JSON and unknown databases get structured errors and the
/// connection keeps serving.
#[test]
fn structured_errors_do_not_kill_the_connection() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();

    c.send_line("{{{ not json").unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(Client::error_code(&resp), Some("bad_request"));

    let resp = c.eval("missing", FO_QUERY).unwrap();
    assert_eq!(Client::error_code(&resp), Some("unknown_db"));

    let resp = c.eval("g", "(x1) E(x1").unwrap();
    assert_eq!(Client::error_code(&resp), Some("parse_error"));

    let resp = c.call_op("eval", vec![("db", Json::str("g"))]).unwrap();
    assert_eq!(Client::error_code(&resp), Some("bad_request"));

    let resp = c.call_op("frobnicate", vec![]).unwrap();
    assert_eq!(Client::error_code(&resp), Some("unknown_op"));

    // After five straight errors the connection still works.
    assert!(c.ping().unwrap());
    let resp = c.eval("g", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp));
    handle.shutdown();
}

/// An expired deadline aborts between fixpoint rounds with the
/// `deadline_exceeded` code (and no partial answer is cached).
#[test]
fn deadlines_abort_fixpoint_queries() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c
        .eval_with("g", FP_QUERY, vec![("deadline_ms", Json::num(0))])
        .unwrap();
    assert_eq!(Client::error_code(&resp), Some("deadline_exceeded"));
    // The aborted run cached nothing: the next run is a fresh miss…
    let resp = c.eval("g", FP_QUERY).unwrap();
    assert!(Client::is_ok(&resp));
    assert_eq!(resp.get("cached"), Some(&Json::Bool(false)));
    assert!(handle.stats().deadline_exceeded.load(Relaxed) >= 1);
    handle.shutdown();
}

/// A burst of 10× the queue capacity against a single busy worker is
/// shed with `overloaded`; admitted requests still complete.
#[test]
fn bounded_queue_sheds_load_under_burst() {
    let queue = 3;
    let mut handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        queue_capacity: queue,
        debug_ops: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut sleeper = Client::connect(addr).unwrap();
    sleeper
        .send(Client::request(
            "debug_sleep",
            vec![("millis", Json::num(400))],
        ))
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let burst = 10 * queue;
    let mut clients: Vec<Client> = (0..burst).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut clients {
        c.send(Client::request(
            "eval",
            vec![("db", Json::str("g")), ("query", Json::str(FO_QUERY))],
        ))
        .unwrap();
    }
    let mut shed = 0;
    let mut served = 0;
    for c in &mut clients {
        let resp = c.recv().unwrap();
        match Client::error_code(&resp) {
            Some("overloaded") => shed += 1,
            None if Client::is_ok(&resp) => served += 1,
            other => panic!("unexpected response {other:?}: {resp}"),
        }
    }
    assert!(sleeper.recv().is_ok());
    assert!(shed > 0, "a 10x burst must shed ({served} served)");
    assert!(served > 0, "admitted requests must complete ({shed} shed)");
    assert_eq!(shed + served, burst);
    assert!(handle.stats().overloaded.load(Relaxed) as usize >= shed);
    // Control-plane ops stayed responsive throughout.
    assert!(Client::connect(addr).unwrap().ping().unwrap());
    handle.shutdown();
}

/// Graceful shutdown: the `shutdown` response arrives only after
/// in-flight work drained, and that work still gets its answer.
#[test]
fn graceful_shutdown_drains_in_flight_requests() {
    let handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        debug_ops: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();
    let mut slow = Client::connect(addr).unwrap();
    slow.send(Client::request(
        "debug_sleep",
        vec![("millis", Json::num(300))],
    ))
    .unwrap();
    std::thread::sleep(Duration::from_millis(50));

    let mut admin = Client::connect(addr).unwrap();
    let resp = admin.shutdown().unwrap();
    assert!(Client::is_ok(&resp));
    // The in-flight sleep completed and delivered its response.
    let resp = slow.recv().unwrap();
    assert!(Client::is_ok(&resp));
    assert_eq!(resp.get("slept_ms").and_then(Json::as_u64), Some(300));
    // New compute work after shutdown is refused in a structured way.
    let resp = admin.eval("g", FO_QUERY).unwrap();
    assert_eq!(Client::error_code(&resp), Some("shutting_down"));
    handle.wait();
}

/// `wait()` returns only after the `shutdown` reply was written: a
/// process that exits as soon as `wait()` returns (`bvq serve`) still
/// answers the client that stopped it. An in-flight sleep makes the
/// reply and the join race for the same drained moment; repeated so a
/// regression shows on most runs.
#[test]
fn shutdown_reply_is_written_before_wait_returns() {
    use std::io::{Read, Write};
    for round in 0..12 {
        let handle = start_server(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 1,
            debug_ops: true,
            ..ServerConfig::default()
        });
        let addr = handle.addr();
        let mut slow = Client::connect(addr).unwrap();
        slow.send(Client::request(
            "debug_sleep",
            vec![("millis", Json::num(30))],
        ))
        .unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let mut admin = std::net::TcpStream::connect(addr).unwrap();
        admin.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
        handle.wait();
        // No waiting from here on: the reply must already be readable.
        admin.set_nonblocking(true).unwrap();
        let mut reply = Vec::new();
        let mut buf = [0u8; 512];
        loop {
            match admin.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => {
                    reply.extend_from_slice(&buf[..n]);
                    if reply.ends_with(b"\n") {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("round {round}: read failed: {e}"),
            }
        }
        let text = String::from_utf8_lossy(&reply);
        assert!(
            text.contains("\"stopped\":true"),
            "round {round}: reply not written before wait() returned: {text:?}"
        );
        assert!(slow.recv().is_ok());
    }
}

/// The per-language latency of a request covers the worker's prepare and
/// execute phases: it is stamped before the job is queued, so a worker
/// that starts before the enqueue returns is still inside it.
#[test]
fn language_latency_covers_prepare_and_execute() {
    let mut handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let total = |j: &Json, path: &[&str]| {
        path.iter()
            .try_fold(j, |v, k| v.get(k))
            .and_then(|v| v.get("total_micros"))
            .and_then(Json::as_u64)
            .expect("histogram total")
    };
    for _ in 0..20 {
        let resp = c
            .call(Client::request(
                "eval",
                vec![
                    ("db", Json::str("g")),
                    ("query", Json::str(FP_QUERY)),
                    ("no_cache", Json::Bool(true)),
                ],
            ))
            .unwrap();
        assert!(Client::is_ok(&resp), "{resp}");
        // Every request so far is a single uncached FP evaluation, so
        // the running totals compare request by request.
        let stats = handle.stats().to_json(0, 0);
        let language = total(&stats, &["latency_micros_by_language", "FP"]);
        let prepare = total(&stats, &["latency_micros_by_phase", "prepare"]);
        let execute = total(&stats, &["latency_micros_by_phase", "execute"]);
        assert!(
            language >= prepare + execute,
            "language {language} µs < prepare {prepare} + execute {execute} µs"
        );
    }
    handle.shutdown();
}

/// Streaming mode returns the same tuples as the materialized response,
/// row by row.
#[test]
fn streaming_matches_materialized_rows() {
    let mut handle = default_server();
    handle.load_db("big", graph_db(GraphKind::Sparse(3), 60, 17));
    let mut c = Client::connect(handle.addr()).unwrap();
    let q = "(x1) exists x2. E(x1,x2)";
    let materialized = c.eval("big", q).unwrap();
    let (header, rows, footer) = c.eval_stream("big", q).unwrap();
    assert!(Client::is_ok(&header));
    assert_eq!(header.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(rows_of(&materialized), rows);
    assert_eq!(
        footer.get("count").and_then(Json::as_u64),
        Some(rows.len() as u64)
    );
    handle.shutdown();
}

/// The `lint` op round-trips over the wire: classification, Tables 1–3
/// cells, and diagnostics — with zero evaluation (no result-cache
/// traffic, no rows).
#[test]
fn lint_over_the_wire() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    // ping advertises the capability.
    c.send_line(r#"{"op":"ping"}"#).unwrap();
    let caps = c.recv().unwrap().to_string_compact();
    assert!(caps.contains("\"lint\"") && caps.contains("\"admission\""));

    let misses_before = handle.stats().result_misses.load(Relaxed);
    let resp = c.lint("g", FP_QUERY).unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    let lint = resp.get("lint").expect("lint payload");
    assert_eq!(lint.get("language").and_then(Json::as_str), Some("FP^2"));
    assert_eq!(
        lint.get("data_complexity").and_then(Json::as_str),
        Some("PTIME-complete")
    );
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(0));
    assert!(resp.get("rows").is_none(), "lint never evaluates");
    assert_eq!(
        handle.stats().result_misses.load(Relaxed),
        misses_before,
        "lint must not touch the result cache"
    );

    // A broken query comes back ok:true with the diagnostic inline.
    let resp = c.lint("g", "(x1) Zap(x1)").unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    let lint = resp.get("lint").expect("lint payload");
    assert_eq!(lint.get("errors").and_then(Json::as_u64), Some(1));
    let diags = lint.get("diagnostics").and_then(Json::as_arr).unwrap();
    assert_eq!(
        diags[0].get("code").and_then(Json::as_str),
        Some("BVQ-E008")
    );
    handle.shutdown();
}

/// With `admission: true`, error-level queries are rejected before the
/// worker pool; clean queries and the `lint` op itself still pass.
#[test]
fn admission_control_rejects_before_the_queue() {
    let mut handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        admission: true,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.eval("g", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    let resp = c.eval("g", "(x1) ~P(x1)").unwrap();
    assert_eq!(Client::error_code(&resp), Some("admission_rejected"));
    // The lint op explains the rejection without tripping admission.
    let resp = c.lint("g", "(x1) ~P(x1)").unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    assert!(handle.stats().admission_rejected.load(Relaxed) >= 1);
    let stats = c.stats().unwrap();
    assert!(stats.get("admission_rejected").and_then(Json::as_u64) >= Some(1));
    handle.shutdown();
}

/// Schema mismatches fail with a structured `schema_error` at dispatch,
/// before any evaluation.
#[test]
fn schema_errors_are_structured_over_the_wire() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c.eval("g", "(x1) Zap(x1)").unwrap();
    assert_eq!(Client::error_code(&resp), Some("schema_error"));
    let resp = c.eval("g", "(x1) E(x1)").unwrap();
    assert_eq!(Client::error_code(&resp), Some("schema_error"));
    let resp = c.datalog("g", "T(x) :- Zap(x).", "T").unwrap();
    assert_eq!(Client::error_code(&resp), Some("schema_error"));
    // The connection survives and valid work still runs.
    let resp = c.eval("g", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp));
    handle.shutdown();
}

/// ESO sentences evaluate over the wire with witness output.
#[test]
fn eso_over_the_wire() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    let resp = c
        .eso("g", "exists2 S/1. forall x1. (S(x1) <-> ~P(x1))")
        .unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    let text = resp.get("text").and_then(Json::as_str).unwrap();
    assert!(text.contains("sentence: true"));
    assert!(text.contains("witness S"));
    assert_eq!(resp.get("language"), Some(&Json::str("ESO")));
    handle.shutdown();
}

/// An *empty* database — relations declared, zero tuples — answers
/// every language with clean empty (or false) results, not errors.
#[test]
fn empty_database_answers_cleanly_in_every_language() {
    let mut handle = default_server();
    handle.load_db(
        "empty",
        parse_database("domain 4\nrel E/2\nend\nrel P/1\nend").unwrap(),
    );
    let mut c = Client::connect(handle.addr()).unwrap();

    let resp = c.eval("empty", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    assert!(rows_of(&resp).is_empty());

    // The FP query still holds at the seeded constant 0.
    let resp = c.eval("empty", FP_QUERY).unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    assert_eq!(rows_of(&resp), vec![vec![0]]);

    let resp = c.datalog("empty", DATALOG_TC, "T").unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    assert!(rows_of(&resp).is_empty());
    handle.shutdown();
}

/// 0-ary (boolean) queries come back as a structured `boolean` field in
/// both materialized and streaming form — never a row set, never a hang.
#[test]
fn boolean_queries_answer_structurally_over_the_wire() {
    let mut handle = default_server();
    let mut c = Client::connect(handle.addr()).unwrap();
    for (sentence, want) in [
        ("() exists x1. P(x1)", true),
        ("() exists x1. (P(x1) & E(x1,x1))", false),
    ] {
        let resp = c.eval("g", sentence).unwrap();
        assert!(Client::is_ok(&resp), "{resp}");
        assert_eq!(resp.get("boolean"), Some(&Json::Bool(want)), "{resp}");
        assert!(resp.get("rows").is_none(), "boolean answers carry no rows");

        // Streaming a sentence degenerates to the same single object.
        let (header, rows, _footer) = c.eval_stream("g", sentence).unwrap();
        assert!(Client::is_ok(&header), "{header}");
        assert_eq!(header.get("boolean"), Some(&Json::Bool(want)));
        assert!(rows.is_empty());
    }
    handle.shutdown();
}

/// Deadlines expiring exactly on the between-rounds check (budget ≈ one
/// fixpoint round) still produce a structured response — `ok` or
/// `deadline_exceeded`, never a hang — and the connection keeps serving.
#[test]
fn deadline_on_the_round_boundary_stays_structured() {
    let mut handle = default_server();
    handle.load_db("big", graph_db(GraphKind::Sparse(2), 400, 23));
    let mut c = Client::connect(handle.addr()).unwrap();
    for deadline_ms in [0u64, 1, 2, 3] {
        let resp = c
            .eval_with(
                "big",
                FP_QUERY,
                vec![
                    ("deadline_ms", Json::num(deadline_ms)),
                    ("no_cache", Json::Bool(true)),
                ],
            )
            .unwrap();
        let ok = Client::is_ok(&resp);
        assert!(
            ok || Client::error_code(&resp) == Some("deadline_exceeded"),
            "deadline_ms={deadline_ms} answered {resp}"
        );
    }
    // The worker survived every race.
    assert!(c.ping().unwrap());
    let resp = c.eval("g", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp));
    handle.shutdown();
}

/// Frames longer than `max_frame_bytes` are drained and rejected with
/// a structured `bad_request`; the same connection keeps serving.
#[test]
fn oversized_frames_get_a_structured_rejection() {
    let mut handle = start_server(ServerConfig {
        addr: "127.0.0.1:0".into(),
        max_frame_bytes: 1024,
        ..ServerConfig::default()
    });
    let mut c = Client::connect(handle.addr()).unwrap();
    let huge = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "y".repeat(4096));
    c.send_line(&huge).unwrap();
    let resp = c.recv().unwrap();
    assert_eq!(Client::error_code(&resp), Some("bad_request"));
    // Under the cap passes; the connection is still healthy.
    assert!(c.ping().unwrap());
    let resp = c.eval("g", FO_QUERY).unwrap();
    assert!(Client::is_ok(&resp), "{resp}");
    handle.shutdown();
}
