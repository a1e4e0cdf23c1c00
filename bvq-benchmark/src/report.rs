//! Metric names and units, the result line, and the host stamp.

use bvq_server::Json;

use crate::gen::{CERT_TEMPLATES, TEMPLATES};

/// The end-to-end metrics (reported with tracing off), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("lat_p50_ms", "ms"),
    ("lat_p90_ms", "ms"),
    ("throughput_rps", "ops/s"),
    ("server_rss_mb", "MB"),
];

/// Per-layer metrics read off the measured window, with units.
pub const WINDOW_LAYERS: [(&str, &str); 20] = [
    ("server.plan_hit_ratio", "ratio"),
    ("server.result_hit_ratio", "ratio"),
    ("server.prepare_us_mean", "us"),
    ("server.execute_us_mean", "us"),
    ("server.wait_us_mean", "us"),
    ("server.errors", "count"),
    ("server.overloaded", "count"),
    ("server.deadline_exceeded", "count"),
    ("ivm.sub_update_p50_us.dred", "us"),
    ("ivm.sub_update_p50_us.rediff", "us"),
    ("ivm.sub_fallbacks", "count"),
    ("cert.checked", "count"),
    ("cert.rejected", "count"),
    ("replica.fallback", "count"),
    ("loadgen.cpu_share", "ratio"),
    ("loadgen.read_p50_ms", "ms"),
    ("wire.response_bytes_mean", "B"),
    ("wire.ping_rtt_us", "us"),
    ("stream.first_row_p50_ms", "ms"),
    ("stream.rows_per_s", "rows/s"),
];

/// Per-template probe metrics: `(prefix, unit)`; the name is
/// `prefix.template`.
const TEMPLATE_LAYERS: [(&str, &str); 7] = [
    ("core.plan_us", "us"),
    ("exec.execute_us", "us"),
    ("core.compiled", "flag"),
    ("relation.rounds", "count"),
    ("relation.tuples", "count"),
    ("relation.peak_bytes", "B"),
    ("server.residual_us", "us"),
];

/// Aggregates over the workload's distinct requests.
const REQUEST_LAYERS: [(&str, &str); 4] = [
    ("protocol.parse_request_us", "us"),
    ("exec.prepare_us", "us"),
    ("json.encode_us_per_krow", "us/krow"),
    ("json.decode_us_per_krow", "us/krow"),
];

/// Certificate probe metrics, as for [`TEMPLATE_LAYERS`].
const CERT_LAYERS: [(&str, &str); 4] = [
    ("cert.emit_us", "us"),
    ("cert.check_us", "us"),
    ("cert.bytes", "B"),
    ("cert.check_vs_fastest_pct", "%"),
];

/// Incremental-maintenance replay metrics.
const IVM_LAYERS: [(&str, &str); 7] = [
    ("ivm.apply_us", "us"),
    ("ivm.dred_insert_us", "us"),
    ("ivm.dred_delete_us", "us"),
    ("ivm.rediff_us", "us"),
    ("ivm.recompute_us", "us"),
    ("ivm.delete_vs_recompute_pct", "%"),
    ("ivm.answer_delta_rows", "rows"),
];

/// The layer-coverage metric of the traced run.
pub const COVERAGE: &str = "trace.coverage.cold_eval";

/// Every per-layer metric (reported with tracing on), in report order.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = WINDOW_LAYERS
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for (prefix, unit) in TEMPLATE_LAYERS {
        out.extend(TEMPLATES.iter().map(|t| (format!("{prefix}.{t}"), unit)));
    }
    out.extend(REQUEST_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    for (prefix, unit) in CERT_LAYERS {
        out.extend(
            CERT_TEMPLATES
                .iter()
                .map(|t| (format!("{prefix}.{t}"), unit)),
        );
    }
    out.extend(IVM_LAYERS.iter().map(|&(n, u)| (n.to_string(), u)));
    out.push((COVERAGE.to_string(), "ratio"));
    out
}

/// One measured value.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run produced.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// The reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Requests sent in the measured window.
    pub attempted: u64,
    /// Requests that failed: error replies, transport errors and wrong
    /// answers.
    pub failed: u64,
    /// Whether every check passed.
    pub correct: bool,
    /// Why a check failed, one line each.
    pub problems: Vec<String>,
    /// Informational lines printed before the result (sample counts,
    /// unreported percentiles, layer self times).
    pub notes: Vec<String>,
}

impl RunReport {
    /// The value of a metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn result_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::num(self.attempted)),
            ("failed", Json::num(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The record `--out` appends: the result plus workload, seed,
    /// tracing and the host stamp.
    pub fn record_json(&self, stamp: &Json) -> Json {
        let mut obj = vec![
            ("workload".to_string(), Json::str(self.workload.as_str())),
            ("seed".to_string(), Json::num(self.seed)),
            ("trace".to_string(), Json::Bool(self.trace)),
            ("host".to_string(), stamp.clone()),
        ];
        if let Json::Obj(fields) = self.result_json() {
            obj.extend(fields);
        }
        Json::Obj(obj)
    }

    /// The human-readable table printed before the result line.
    pub fn table(&self) -> String {
        let mut out = format!(
            "bvq-benchmark {} seed={} trace={}\n",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for m in &self.metrics {
            out.push_str(&format!("  {:<36} {:>16.4} {}\n", m.name, m.value, m.unit));
        }
        for n in &self.notes {
            out.push_str(&format!("  # {n}\n"));
        }
        out.push_str(&format!(
            "  attempted={} failed={} correct={}\n",
            self.attempted, self.failed, self.correct
        ));
        for p in &self.problems {
            out.push_str(&format!("  FAILED: {p}\n"));
        }
        out
    }
}

/// The host a result was measured on: only results with equal stamps
/// (except commit and seed) are compared.
pub fn host_stamp(seed: u64) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let command = |prog: &str, args: &[&str]| -> String {
        std::process::Command::new(prog)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    Json::obj([
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command("rustc", &["--version"]))),
        ("commit", Json::Str(command("git", &["rev-parse", "HEAD"]))),
        ("seed", Json::num(seed)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric names");
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        assert_eq!(per_layer().len(), 111);
    }
}
