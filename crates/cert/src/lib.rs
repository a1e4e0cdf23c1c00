//! # bvq-cert — certificate-carrying evaluation
//!
//! Theorem 3.5 of the paper places bounded-variable fixpoint queries in
//! NP ∩ co-NP by exhibiting *short certificates*: an `l·n^k` iteration
//! trace pins down a fixpoint answer that costs `n^{k·l}`-flavored work
//! to recompute. This crate turns that observation into machinery:
//!
//! * a [`Certificate`] format — iteration traces for FO/FP/PFP queries,
//!   derivation trees for Datalog, existential witnesses for ESO — with a
//!   canonical line-based text encoding ([`Certificate::encode`] /
//!   [`Certificate::parse`]);
//! * [`produce`]rs that package what an engine recorded while it
//!   evaluated (the FO/FP/PFP trace producer lives in `bvq-core`);
//! * a self-contained trusted [`check`]er that replays the evidence in
//!   one linear pass, with **zero reference to the producing evaluator**,
//!   and rejects with a structured [`Reject`] reason.
//!
//! # Trust boundary
//!
//! The checker trusts three things only: the database, the query (as
//! parsed by the checker's owner), and its own replay. It trusts nothing
//! in the certificate — claims are confirmed against the replayed state,
//! deltas are justified tuple by tuple, convergence is re-verified, and
//! nested fixpoints are subject to a freshness discipline that makes
//! "stale inner value" a structural rejection rather than a lucky catch.
//! A verified [`CheckedAnswer`] is therefore as trustworthy as a local
//! evaluation at a fraction of the cost — which is what lets `bvq-server`
//! fan evaluation out to untrusted replicas and audit what comes back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
mod eval;
pub mod fixes;
pub mod format;
pub mod produce;

pub use check::{check, check_text, CheckRequest, CheckedAnswer, Reject};
pub use eval::MAX_SWEEP;
pub use fixes::{FixIndex, Unsupported};
pub use format::{Certificate, Claim, DerivStep, Evidence, FixEvent, ParseError, FORMAT_VERSION};
pub use produce::{certify_datalog, recorded_derivation, witness_certificate, CertError};
