//! Runs every workload for a few hundred requests against the real
//! server (this package's binary, re-executed as `serve-child`) and
//! checks that every metric `BENCHMARK.json` names is reported, with its
//! unit, and that no request failed.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use bvq_benchmark::gen::{Workload, DEFAULT_SEED};
use bvq_benchmark::report::{self, RunReport};
use bvq_benchmark::{run, RunConfig};
use bvq_server::Json;

fn bench_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json sits beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn listed(key: &str) -> Vec<(String, String)> {
    bench_json()
        .get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn reported(r: &RunReport) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// Held by each smoke run: the traced run's coverage check compares
/// in-process time with loopback time, and fails when other runs load
/// the CPU between the two.
static SERIAL: Mutex<()> = Mutex::new(());

fn smoke(workload: Workload, ops: u64, trace: bool) -> RunReport {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cfg = RunConfig {
        workload,
        seed: DEFAULT_SEED,
        seconds: 120.0,
        max_ops: Some(ops),
        trace,
        server_exe: PathBuf::from(env!("CARGO_BIN_EXE_bvq-benchmark")),
        rounds: 1,
        trace_out: None,
    };
    let r = run(&cfg).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
    assert_eq!(r.failed, 0, "{}", r.table());
    assert!(r.correct, "{}", r.table());
    assert!(r.attempted >= ops.min(200), "{}", r.table());
    r
}

fn end_to_end(workload: Workload, ops: u64) {
    let r = smoke(workload, ops, false);
    assert_eq!(reported(&r), listed("end_to_end"), "{}", r.table());
    assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}", r.table());
}

#[test]
fn warm_mix_reports_every_end_to_end_metric() {
    end_to_end(Workload::WarmMix, 400);
}

#[test]
fn cold_eval_reports_every_end_to_end_metric() {
    end_to_end(Workload::ColdEval, 200);
}

#[test]
fn write_mix_reports_every_end_to_end_metric() {
    end_to_end(Workload::WriteMix, 400);
}

#[test]
fn replica_fanout_reports_every_end_to_end_metric() {
    end_to_end(Workload::ReplicaFanout, 200);
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_covers_the_loopback_time() {
    let r = smoke(Workload::WriteMix, 300, true);
    assert_eq!(reported(&r), listed("per_layer"), "{}", r.table());
    let coverage = r.get(report::COVERAGE).expect("coverage is reported");
    assert!(coverage >= 0.8, "coverage {coverage}");
    assert!(
        r.get("ivm.sub_update_p50_us.dred").unwrap() > 0.0,
        "{}",
        r.table()
    );
}

#[test]
fn benchmark_json_lists_exactly_what_the_runs_report() {
    let e2e: Vec<(String, String)> = report::END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = report::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let names: Vec<String> = bench_json()
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}
