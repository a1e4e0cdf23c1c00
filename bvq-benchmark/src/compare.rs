//! `bvq-benchmark compare A B`: applies the bounds in `BENCHMARK.json`
//! to every end-to-end metric × workload pair of two sets of runs (files
//! written with `--out`, one JSON record per line) and prints `ok`,
//! `regressed` or `unresolved` for each.

use bvq_server::Json;

use crate::stats::{median, relative_spread};

/// One end-to-end metric's bound, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Whether larger values are better.
    pub higher_better: bool,
    /// The largest worsening, as a share of the baseline median, that
    /// still counts as no change.
    pub bound: f64,
}

/// Reads the `end_to_end` bounds of a `BENCHMARK.json`.
pub fn parse_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let json = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("an end_to_end entry has no name")?,
                higher_better: s("better").as_deref() == Some("higher"),
                bound: match m.get("bound") {
                    Some(Json::Num(b)) => *b,
                    _ => return Err("an end_to_end entry has no numeric bound".to_string()),
                },
            })
        })
        .collect()
}

/// One run, as `--out` records it.
#[derive(Clone, Debug)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// `nproc`, CPU model and rustc version: what must match.
    pub host: String,
    /// Whether the run passed its checks.
    pub correct: bool,
    /// Whether it was a traced run.
    pub trace: bool,
    /// Metric values by name.
    pub metrics: Vec<(String, f64)>,
}

/// Parses a results file: one JSON record per non-empty line.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let j = Json::parse(line).map_err(|e| format!("record {}: {e}", i + 1))?;
            let host = j
                .get("host")
                .ok_or(format!("record {} has no host stamp", i + 1))?;
            let field = |k: &str| {
                host.get(k)
                    .map(|v| v.to_string_compact())
                    .unwrap_or_default()
            };
            let metrics = match j.get("metrics") {
                Some(Json::Obj(pairs)) => pairs
                    .iter()
                    .filter_map(|(k, v)| match v.get("value") {
                        Some(Json::Num(n)) => Some((k.clone(), *n)),
                        _ => None,
                    })
                    .collect(),
                _ => Vec::new(),
            };
            Ok(Record {
                workload: j
                    .get("workload")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                host: format!(
                    "nproc={} cpu={} rustc={}",
                    field("nproc"),
                    field("cpu"),
                    field("rustc")
                ),
                correct: j.get("correct").is_some_and(Json::is_true),
                trace: j.get("trace").is_some_and(Json::is_true),
                metrics,
            })
        })
        .collect()
}

/// The verdict on one metric × workload pair.
#[derive(Clone, Debug, PartialEq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The runs cannot tell: the reason.
    Unresolved(String),
}

/// One compared pair.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: String,
    /// Median of side A.
    pub a: f64,
    /// Median of side B.
    pub b: f64,
    /// How much worse B is than A, as a share of A (negative: better).
    pub worse: f64,
    /// The larger of the two sides' quartile spreads, as a share of the
    /// median.
    pub spread: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Judges B against A under `bound`: regressed when B's median is worse
/// than A's by more than the bound, unresolved when either side's spread
/// is wider than the bound — unless every run of B beats every run of A.
pub fn judge(bound: &Bound, a: &[f64], b: &[f64]) -> (f64, f64, f64, f64, Verdict) {
    let (Some(ma), Some(mb)) = (median(a), median(b)) else {
        return (0.0, 0.0, 0.0, 0.0, Verdict::Unresolved("no runs".into()));
    };
    let worse = if bound.higher_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if a.len() < 2 || b.len() < 2 {
        let why = "needs at least two runs per side".to_string();
        return (ma, mb, worse, f64::NAN, Verdict::Unresolved(why));
    }
    let spread = relative_spread(a)
        .unwrap_or(f64::INFINITY)
        .max(relative_spread(b).unwrap_or(f64::INFINITY));
    let lo = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let all_better = if bound.higher_better {
        lo(b) > hi(a)
    } else {
        hi(b) < lo(a)
    };
    let verdict = if spread > bound.bound && !all_better {
        Verdict::Unresolved(format!(
            "spread {:.1}% exceeds the {:.1}% bound",
            spread * 100.0,
            bound.bound * 100.0
        ))
    } else if worse > bound.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (ma, mb, worse, spread, verdict)
}

/// Compares every end-to-end metric on every workload both sides ran.
/// Traced and failed runs are left out; runs from different hosts make
/// every pair unresolved.
pub fn compare(bounds: &[Bound], a: &[Record], b: &[Record]) -> Vec<Row> {
    let usable = |rs: &[Record]| -> Vec<Record> {
        rs.iter()
            .filter(|r| r.correct && !r.trace)
            .cloned()
            .collect()
    };
    let (a, b) = (usable(a), usable(b));
    let mut hosts: Vec<&str> = a.iter().chain(&b).map(|r| r.host.as_str()).collect();
    hosts.sort_unstable();
    hosts.dedup();
    let mut workloads: Vec<&str> = a.iter().map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    workloads.retain(|w| b.iter().any(|r| r.workload == *w));
    let mut rows = Vec::new();
    for w in workloads {
        for bound in bounds {
            let values = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter(|r| r.workload == w)
                    .filter_map(|r| r.metrics.iter().find(|(n, _)| *n == bound.name))
                    .map(|(_, v)| *v)
                    .collect()
            };
            let (ma, mb, worse, spread, mut verdict) = judge(bound, &values(&a), &values(&b));
            if hosts.len() > 1 {
                verdict = Verdict::Unresolved(format!("runs come from {} hosts", hosts.len()));
            }
            rows.push(Row {
                workload: w.to_string(),
                metric: bound.name.clone(),
                a: ma,
                b: mb,
                worse,
                spread,
                verdict,
            });
        }
    }
    rows
}

/// The comparison as a table, one row per metric × workload.
pub fn render(rows: &[Row], bounds: &[Bound]) -> String {
    let mut out = format!(
        "{:<16} {:<16} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict\n",
        "workload", "metric", "A median", "B median", "worse", "spread", "bound"
    );
    for r in rows {
        let bound = bounds.iter().find(|b| b.name == r.metric);
        let verdict = match &r.verdict {
            Verdict::Ok => "ok".to_string(),
            Verdict::Regressed => "regressed".to_string(),
            Verdict::Unresolved(why) => format!("unresolved ({why})"),
        };
        out.push_str(&format!(
            "{:<16} {:<16} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>6.1}%  {verdict}\n",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse * 100.0,
            r.spread * 100.0,
            bound.map_or(f64::NAN, |b| b.bound * 100.0),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_better: bool) -> Bound {
        Bound {
            name: "m".into(),
            higher_better,
            bound: 0.1,
        }
    }

    #[test]
    fn bounds_comparison_works() {
        let lower = bound(false);
        let a = [10.0, 10.1, 9.9];
        // 5% slower: within the bound.
        assert_eq!(judge(&lower, &a, &[10.5, 10.4, 10.6]).4, Verdict::Ok);
        // 20% slower with tight spreads: regressed.
        assert_eq!(judge(&lower, &a, &[12.0, 12.1, 11.9]).4, Verdict::Regressed);
        // Faster is never a regression.
        assert_eq!(judge(&lower, &a, &[5.0, 5.1, 4.9]).4, Verdict::Ok);
        // A spread wider than the bound leaves the pair unresolved ...
        assert!(matches!(
            judge(&lower, &[8.0, 10.0, 12.0], &[12.0, 9.0, 13.0]).4,
            Verdict::Unresolved(_)
        ));
        // ... unless every run of B beats every run of A.
        assert_eq!(
            judge(&lower, &[8.0, 10.0, 12.0], &[4.0, 5.0, 7.0]).4,
            Verdict::Ok
        );
        // Direction flips for higher-is-better metrics.
        let higher = bound(true);
        assert_eq!(judge(&higher, &a, &[12.0, 12.1, 11.9]).4, Verdict::Ok);
        assert_eq!(judge(&higher, &a, &[8.0, 8.1, 7.9]).4, Verdict::Regressed);
        // One run per side cannot show a spread.
        assert!(matches!(
            judge(&lower, &[1.0], &[1.0]).4,
            Verdict::Unresolved(_)
        ));
    }

    #[test]
    fn compare_reads_records_and_refuses_mixed_hosts() {
        let rec = |host: &str, v: f64| {
            format!(
                r#"{{"workload":"w","seed":1,"trace":false,"host":{{"nproc":2,"cpu":"{host}","rustc":"r","commit":"c","seed":1}},"correct":true,"attempted":9,"failed":0,"metrics":{{"m":{{"value":{v},"unit":"ms"}}}}}}"#
            )
        };
        let a = parse_records(&[rec("x", 10.0), rec("x", 10.1), rec("x", 9.9)].join("\n")).unwrap();
        let b =
            parse_records(&[rec("x", 13.0), rec("x", 13.1), rec("x", 12.9)].join("\n")).unwrap();
        let rows = compare(&[bound(false)], &a, &b);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert!(render(&rows, &[bound(false)]).contains("regressed"));
        let other = parse_records(&[rec("y", 10.0), rec("y", 10.0)].join("\n")).unwrap();
        let rows = compare(&[bound(false)], &a, &other);
        assert!(matches!(rows[0].verdict, Verdict::Unresolved(_)));
        let bounds = parse_bounds(
            r#"{"end_to_end":[{"name":"m","unit":"ms","better":"lower","bound":0.1}]}"#,
        )
        .unwrap();
        assert_eq!(bounds, vec![bound(false)]);
    }
}
