//! # bvq-cli
//!
//! The library behind the `bvq` command-line tool: a text format for
//! relational databases and the command dispatch used by `main`.
//!
//! Database text format (`#` starts a comment):
//!
//! ```text
//! domain 6
//! rel E/2
//! 0 1
//! 1 2
//! end
//! rel P/1
//! 2
//! end
//! ```
//!
//! Usage:
//!
//! ```text
//! bvq eval    <db-file> '<query>' [--k N] [--naive] [--trace] [--certify t1,t2,…]
//! bvq eso     <db-file> '<eso sentence>' [--k N] [--trace]
//! bvq explain <db-file> '<query>' [--analyze] [--eso] [--k N] [--naive]
//! bvq lint    <db-file> <query|file|dir> [--eso] [--datalog] [--json] [--deny warnings]
//! bvq repl    <db-file>
//! bvq serve   <db-file>… [--addr HOST:PORT] [--threads N] [--queue N] [--replica-of ADDR]
//! bvq client  <addr> ping|stats|eval|eval-certified|eso|datalog|explain|load-db|register-replica|shutdown …
//! bvq cert    emit|check <db-file> '<query>' [--datalog OUT] [--eso] [--tamper MODE] [--cert FILE]
//! bvq fuzz    [--cases N] [--seed S] [--filter LANG] [--deny-divergence] [--repro FILE]
//! ```
//!
//! The db-text parser lives in [`bvq_relation::dbtext`]; import it from
//! there.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod fuzz;
pub mod lint;
pub mod run;
pub mod serve;

pub use cert::run_cert_cmd;
pub use fuzz::run_fuzz_cmd;
pub use lint::run_lint;
pub use run::{
    run_eso, run_eval, run_explain, run_request, BackendMode, CompileMode, EvalOptions, ExecKind,
    ExecRequest, RunError,
};
pub use serve::{run_client, run_serve};
