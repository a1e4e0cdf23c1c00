//! The `bvq` command-line tool.
//!
//! ```text
//! bvq eval    <db-file> '<query>' [--k N] [--naive] [--threads N] [--trace] [--backend B] [--certify t1,t2;u1,u2]
//! bvq eso     <db-file> '<eso sentence>' [--k N] [--trace]
//! bvq explain <db-file> '<query>' [--analyze] [--eso] [--k N] [--naive] [--backend B]
//! bvq lint    <db-file> <query|file|dir> [--eso] [--datalog] [--output P]
//!             [--budget N] [--json] [--deny warnings]
//! bvq repl    <db-file>
//! bvq serve   <db-file>… [--addr HOST:PORT] [--threads N] [--queue N] [--debug-ops] [--replica-of ADDR]
//! bvq client  <addr> <ping|stats|list-dbs|eval|eval-certified|eso|datalog|explain|lint|load-db|insert|delete|subscribe|unsubscribe|subscriptions|register-replica|sleep|shutdown> […]
//! bvq cert    <emit|check> <db-file> '<query>' [--datalog OUT] [--eso [--k N]] [--tamper MODE] [--cert FILE]
//! bvq fuzz    [--cases N] [--seed S] [--filter LANG] [--deny-divergence] [--repro FILE]
//! ```

use std::io::{BufRead, Write};

use bvq_cli::{
    run_cert_cmd, run_client, run_explain, run_fuzz_cmd, run_lint, run_request, run_serve,
    BackendMode, CompileMode, EvalOptions, ExecRequest,
};
use bvq_relation::parse_database;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => {}
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("usage:");
            eprintln!(
                "  bvq eval <db-file> '<query>' [--k N] [--naive] [--threads N] [--trace] [--backend auto|dense|sparse|bdd] [--certify T]"
            );
            eprintln!("  bvq eso  <db-file> '<eso sentence>' [--k N] [--trace]");
            eprintln!(
                "  bvq explain <db-file> '<query>' [--analyze] [--eso] [--k N] [--naive] [--backend B]"
            );
            eprintln!(
                "  bvq lint <db-file> <query|file|dir> [--eso] [--datalog] [--output P] [--budget N] [--json] [--deny warnings]"
            );
            eprintln!("  bvq repl <db-file>");
            eprintln!("  bvq serve <db-file>... [--addr HOST:PORT] [--threads N] [--queue N]");
            eprintln!("  bvq client <addr> <command> [args...]");
            eprintln!(
                "  bvq fuzz [--cases N] [--seed S] [--filter LANG] [--deny-divergence] [--repro FILE]"
            );
            eprintln!(
                "  bvq cert <emit|check> <db-file> '<query>' [--datalog OUT] [--eso [--k N]] [--tamper MODE] [--cert FILE]"
            );
            std::process::exit(1);
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), String> {
    let cmd = args.first().ok_or("missing command")?;
    match cmd.as_str() {
        "serve" => return run_serve(&args[1..]),
        "client" => return run_client(&args[1..]),
        "fuzz" => return run_fuzz_cmd(&args[1..]),
        "cert" => return run_cert_cmd(&args[1..]),
        _ => {}
    }
    let db_path = args.get(1).ok_or("missing database file")?;
    let text =
        std::fs::read_to_string(db_path).map_err(|e| format!("cannot read `{db_path}`: {e}"))?;
    let db = parse_database(&text).map_err(|e| e.to_string())?;

    match cmd.as_str() {
        "eval" => {
            let query = args.get(2).ok_or("missing query")?;
            let flags = parse_opts(&args[3..])?;
            let req = ExecRequest::query(query.as_str())
                .with_opts(flags.opts)
                .with_trace(flags.trace);
            print!("{}", run_request(&db, &req)?);
            Ok(())
        }
        "eso" => {
            let query = args.get(2).ok_or("missing query")?;
            let flags = parse_opts(&args[3..])?;
            let req = ExecRequest::eso(query.as_str())
                .with_opts(flags.opts)
                .with_trace(flags.trace);
            print!("{}", run_request(&db, &req)?);
            Ok(())
        }
        "explain" => {
            let query = args.get(2).ok_or("missing query")?;
            let flags = parse_opts(&args[3..])?;
            let req = if flags.eso {
                ExecRequest::eso(query.as_str())
            } else {
                ExecRequest::query(query.as_str())
            }
            .with_opts(flags.opts);
            print!("{}", run_explain(&db, &req, flags.analyze)?);
            Ok(())
        }
        "lint" => run_lint(&db, &args[2..]),
        "repl" => {
            println!(
                "bvq repl — database `{db_path}` (n = {}); enter queries, `:eso <sentence>`, `:explain <query>`, or `:quit`",
                db.domain_size()
            );
            let stdin = std::io::stdin();
            loop {
                print!("bvq> ");
                std::io::stdout().flush().ok();
                let mut line = String::new();
                if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
                    break;
                }
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                if line == ":quit" || line == ":q" {
                    break;
                }
                let result = if let Some(eso) = line.strip_prefix(":eso ") {
                    run_request(&db, &ExecRequest::eso(eso))
                } else if let Some(q) = line.strip_prefix(":explain ") {
                    run_explain(&db, &ExecRequest::query(q), false)
                } else {
                    run_request(&db, &ExecRequest::query(line))
                };
                match result {
                    Ok(out) => print!("{out}"),
                    Err(e) => println!("error: {e}"),
                }
            }
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Options parsed from the flags of `eval`/`eso`/`explain`.
struct Flags {
    opts: EvalOptions,
    trace: bool,
    analyze: bool,
    eso: bool,
}

/// Parses `--k N`, `--naive`, `--threads N`, `--trace`, `--analyze`,
/// `--eso`, `--compile auto|on|off`, `--backend auto|dense|sparse|bdd`,
/// `--certify a,b;c,d`.
fn parse_opts(rest: &[String]) -> Result<Flags, String> {
    let mut opts = EvalOptions::default();
    let mut trace = false;
    let mut analyze = false;
    let mut eso = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--k" => {
                let v = it.next().ok_or("--k needs a value")?;
                opts.k = Some(v.parse().map_err(|_| format!("bad --k value `{v}`"))?);
            }
            "--naive" => opts.naive = true,
            "--minimize" => opts.minimize = true,
            "--compile" => {
                let v = it.next().ok_or("--compile needs auto|on|off")?;
                opts.compile = CompileMode::parse(v)
                    .ok_or_else(|| format!("bad --compile value `{v}` (auto|on|off)"))?;
            }
            "--backend" => {
                let v = it.next().ok_or("--backend needs auto|dense|sparse|bdd")?;
                opts.backend = BackendMode::parse(v)
                    .ok_or_else(|| format!("bad --backend value `{v}` (auto|dense|sparse|bdd)"))?;
            }
            "--trace" => trace = true,
            "--analyze" => analyze = true,
            "--eso" => eso = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let t: usize = v
                    .parse()
                    .map_err(|_| format!("bad --threads value `{v}`"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                opts.threads = Some(t);
            }
            "--certify" => {
                let v = it.next().ok_or("--certify needs tuples")?;
                for group in v.split(';') {
                    if group.is_empty() {
                        opts.certify.push(Vec::new());
                        continue;
                    }
                    let tuple: Vec<u32> = group
                        .split(',')
                        .map(|t| t.parse().map_err(|_| format!("bad tuple element `{t}`")))
                        .collect::<Result<_, _>>()?;
                    opts.certify.push(tuple);
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Flags {
        opts,
        trace,
        analyze,
        eso,
    })
}
