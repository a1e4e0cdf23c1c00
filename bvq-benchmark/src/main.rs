//! The `bvq-benchmark` command; see `BENCHMARK.md`.
//!
//! ```text
//! bvq-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!               [--out FILE] [--trace-out FILE]
//! bvq-benchmark compare A B [--bench BENCHMARK.json]
//! bvq-benchmark serve-child <bvq serve flags>
//! ```
//!
//! A run prints a table of its metrics with units, then, as its last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. It exits 0 when every check passed, 1 when one failed, and
//! 2 (printing no result) when the run could not be carried out.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bvq_benchmark::compare::{compare, parse_bounds, parse_records, render, Verdict};
use bvq_benchmark::gen::{Workload, DEFAULT_SEED};
use bvq_benchmark::report::host_stamp;
use bvq_benchmark::{run, RunConfig};

/// Length of the measured window when `--seconds` is not given; the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 25.0;
/// Rounds of a measured run, each against a freshly started server.
const ROUNDS: usize = 4;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => bvq_cli::run_serve(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_cmd(&args[1..]),
        _ => run_cmd(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn run_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut out: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{name}`; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed value")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds value")?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(PathBuf::from(value()?)),
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if trace && trace_out.is_none() {
        let name = format!("trace-{}-{seed}.json", workload.name());
        trace_out = Some(Path::new(env!("CARGO_MANIFEST_DIR")).join("out").join(name));
    }
    let cfg = RunConfig {
        workload,
        seed,
        seconds,
        max_ops: None,
        trace,
        server_exe: std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?,
        rounds: ROUNDS,
        trace_out,
    };
    let report = run(&cfg)?;
    print!("{}", report.table());
    if let Some(path) = out {
        use std::io::Write;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(
            file,
            "{}",
            report.record_json(&host_stamp(seed)).to_string_compact()
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report.result_json().to_string_compact());
    Ok(if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut files = Vec::new();
    let mut bench: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => bench = Some(PathBuf::from(it.next().ok_or("--bench needs a path")?)),
            path => files.push(PathBuf::from(path)),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("compare needs two results files: compare A B [--bench BENCHMARK.json]".into());
    };
    let bench = bench.unwrap_or_else(|| {
        let here = PathBuf::from("BENCHMARK.json");
        if here.exists() {
            here
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        }
    });
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = parse_bounds(&read(&bench)?)?;
    let rows = compare(
        &bounds,
        &parse_records(&read(a)?)?,
        &parse_records(&read(b)?)?,
    );
    if rows.is_empty() {
        return Err("the two files share no workload with usable runs".into());
    }
    print!("{}", render(&rows, &bounds));
    Ok(if rows.iter().any(|r| r.verdict == Verdict::Regressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
