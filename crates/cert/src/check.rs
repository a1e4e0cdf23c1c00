//! The trusted checker: replays a certificate against the (trusted)
//! query and database in one linear pass over the evidence, with zero
//! reference to the evaluator that produced it.
//!
//! # What each evidence kind proves
//!
//! **Iteration traces** (Theorem 3.5). For `lfp S.φ`, each `step`'s added
//! tuples are justified individually — `t̄ ∈ φ(Q_prev)` — which by
//! positivity keeps every chain value inside the least fixpoint; the
//! `conv` record triggers one full sweep `φ(Q) ⊆ Q`, so the final value
//! is also a prefixpoint and hence *equals* the least fixpoint. `gfp` is
//! the mirror image (justified deletions + a per-tuple `Q ⊆ φ(Q)`
//! sweep). `pfp` has no order to lean on, so each round is replayed as an
//! exact application (`Q_next = φ(Q_prev)`, verified by one sweep), with
//! `cycle r` verified against the recorded round-`r` snapshot — a
//! genuine cycle, since every replayed step had a non-empty delta, and a
//! cycling PFP denotes ∅ (§2.2). Checking costs `l·n^k` membership tests
//! against the `n^{k·l}`-flavored evaluation — the NP ∩ co-NP gap the
//! certificate exploits.
//!
//! Nested fixpoints replay under a *freshness discipline*: reading an
//! inner fixpoint's converged value (a `Fix` node) requires that value to
//! have re-converged since any enclosing chain value it reads last
//! changed; reading an in-progress chain value (a bound atom) does not.
//! A certificate that omits an inner re-convergence is rejected with
//! [`Reject::StaleFix`] — the staleness attack is structural, not a
//! matter of luck.
//!
//! **Derivation trees.** Each step must unify its rule's body with
//! premise tuples that are EDB facts or *previously derived* tuples and
//! reproduce the claimed head — so everything derived is in the least
//! model. One naive application of every rule over the final IDB must
//! then derive nothing new — so nothing of the least model is missing.
//! The `rounds` field must equal the tree's depth (longest premise
//! chain), pinning the producer's round accounting.
//!
//! **ESO witnesses** substitute the witness relations and evaluate the
//! first-order body once; only satisfiability (`claim bool true`) is
//! certifiable — Theorem 3.5's NP side.
//!
//! In every case the *claim* is confirmed last, against the replayed
//! state — a certificate whose evidence is impeccable but whose claim
//! disagrees is rejected with [`Reject::ClaimMismatch`]. Nothing is ever
//! accepted because the evidence "looks plausible": acceptance means the
//! claim was re-derived from trusted inputs plus verified evidence.

use std::fmt;

use bvq_datalog::{AtomTerm, Program, Rule};
use bvq_logic::{Eso, Formula, Query, Term};
use bvq_relation::{Database, Elem, FxHashMap, Relation, Tuple};

use crate::eval::{domain_product, Ctx, MAX_SWEEP};
use crate::fixes::{FixIndex, Unsupported};
use crate::format::{Certificate, Claim, DerivStep, Evidence, FixEvent, ParseError};

/// Why the checker refused a certificate. Every variant carries enough
/// detail to be actionable and maps to a stable token via
/// [`Reject::code`] — the server reports that token, tests pin it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reject {
    /// The text did not parse as a certificate at all.
    Malformed(ParseError),
    /// Evidence kind does not match the request (e.g. a Datalog
    /// derivation offered for a fixpoint query).
    WrongKind {
        /// Kind the request calls for.
        expected: &'static str,
        /// Kind the certificate carries.
        found: &'static str,
    },
    /// The query itself is outside the certifiable fragment — a refusal,
    /// not evidence of tampering.
    Unsupported(String),
    /// Replay would exceed the checker's work cap.
    TooLarge,
    /// A tuple mentions an element outside the database domain.
    OutOfDomain(Tuple),
    /// An event names a fixpoint index the formula does not have.
    UnknownFix(usize),
    /// An event arrived for a fixpoint that is not the innermost open
    /// one (or `begin` under the wrong parent).
    BadNesting(usize),
    /// A `step` with an empty delta — padding is not evidence.
    EmptyStep(usize),
    /// A delta is inconsistent with the chain (re-added tuple, deletion
    /// of an absent tuple, wrong delta side for the operator kind).
    BadDelta {
        /// The fixpoint.
        fix: usize,
        /// What was wrong.
        detail: String,
    },
    /// A chain move with no justification: an `lfp` addition not in
    /// `φ(Q_prev)`, or a `gfp` deletion still in `φ(Q_prev)`.
    Unjustified {
        /// The fixpoint.
        fix: usize,
        /// The unjustified tuple.
        tuple: Tuple,
    },
    /// A PFP round's delta does not equal the exact application, or a
    /// Datalog `rounds` field disagrees with the derivation tree depth.
    RoundMismatch(String),
    /// `conv` claimed on a value that is not a fixpoint of the body.
    NotAFixpoint(usize),
    /// A `cycle` record that does not close a genuine cycle (bad round
    /// reference, state mismatch, or non-PFP operator).
    BadCycle(usize),
    /// A converged value was read after something it depends on changed,
    /// without re-convergence in between.
    StaleFix(usize),
    /// A fixpoint value was read before any `begin` established one.
    MissingFix(usize),
    /// The trace ended with a fixpoint still open.
    UnfinishedFix(usize),
    /// A relation (database, witness, or predicate) the evidence names
    /// does not exist.
    UnknownRelation(String),
    /// Arities disagree between evidence and schema.
    ArityMismatch(String),
    /// A derivation step names a rule index outside the program.
    UnknownRule(usize),
    /// A derivation step's premise count differs from its rule's body.
    PremiseCount(usize),
    /// A premise tuple does not unify with its body atom under a single
    /// consistent substitution.
    PremiseMismatch {
        /// The derivation step (0-based).
        step: usize,
        /// The body atom position.
        atom: usize,
    },
    /// A premise tuple is neither an EDB fact nor previously derived.
    UnderivedPremise {
        /// The derivation step (0-based).
        step: usize,
        /// The offending premise tuple.
        tuple: Tuple,
    },
    /// The instantiated head does not equal the step's claimed tuple.
    HeadMismatch(usize),
    /// The same tuple was derived twice.
    DuplicateDerivation(usize),
    /// Saturation failed: a rule still derives a tuple the tree lacks.
    IncompleteDerivation {
        /// The rule index.
        rule: usize,
        /// A tuple the tree should have derived but did not.
        tuple: Tuple,
    },
    /// The witness relations do not satisfy the ESO body.
    WitnessViolation,
    /// The evidence verified but the claimed answer is not what it
    /// supports.
    ClaimMismatch(String),
}

impl Reject {
    /// Stable machine-readable token for this rejection class.
    pub fn code(&self) -> &'static str {
        match self {
            Reject::Malformed(_) => "malformed",
            Reject::WrongKind { .. } => "wrong_kind",
            Reject::Unsupported(_) => "unsupported",
            Reject::TooLarge => "too_large",
            Reject::OutOfDomain(_) => "out_of_domain",
            Reject::UnknownFix(_) => "unknown_fix",
            Reject::BadNesting(_) => "bad_nesting",
            Reject::EmptyStep(_) => "empty_step",
            Reject::BadDelta { .. } => "bad_delta",
            Reject::Unjustified { .. } => "unjustified",
            Reject::RoundMismatch(_) => "round_mismatch",
            Reject::NotAFixpoint(_) => "not_a_fixpoint",
            Reject::BadCycle(_) => "bad_cycle",
            Reject::StaleFix(_) => "stale_fix",
            Reject::MissingFix(_) => "missing_fix",
            Reject::UnfinishedFix(_) => "unfinished_fix",
            Reject::UnknownRelation(_) => "unknown_relation",
            Reject::ArityMismatch(_) => "arity_mismatch",
            Reject::UnknownRule(_) => "unknown_rule",
            Reject::PremiseCount(_) => "premise_count",
            Reject::PremiseMismatch { .. } => "premise_mismatch",
            Reject::UnderivedPremise { .. } => "underived_premise",
            Reject::HeadMismatch(_) => "head_mismatch",
            Reject::DuplicateDerivation(_) => "duplicate_derivation",
            Reject::IncompleteDerivation { .. } => "incomplete_derivation",
            Reject::WitnessViolation => "witness_violation",
            Reject::ClaimMismatch(_) => "claim_mismatch",
        }
    }
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Malformed(e) => write!(f, "malformed certificate: {e}"),
            Reject::WrongKind { expected, found } => {
                write!(
                    f,
                    "wrong evidence kind: request needs `{expected}`, got `{found}`"
                )
            }
            Reject::Unsupported(s) => write!(f, "{s}"),
            Reject::TooLarge => write!(f, "replay exceeds the checker work cap"),
            Reject::OutOfDomain(t) => write!(f, "tuple {t:?} outside the database domain"),
            Reject::UnknownFix(i) => write!(f, "no fixpoint #{i} in the query"),
            Reject::BadNesting(i) => write!(f, "event for fixpoint #{i} violates nesting"),
            Reject::EmptyStep(i) => write!(f, "empty step for fixpoint #{i}"),
            Reject::BadDelta { fix, detail } => {
                write!(f, "inconsistent delta for fixpoint #{fix}: {detail}")
            }
            Reject::Unjustified { fix, tuple } => {
                write!(f, "unjustified chain move {tuple:?} for fixpoint #{fix}")
            }
            Reject::RoundMismatch(s) => write!(f, "round mismatch: {s}"),
            Reject::NotAFixpoint(i) => {
                write!(f, "claimed convergence of fixpoint #{i} is not a fixpoint")
            }
            Reject::BadCycle(i) => write!(f, "invalid cycle declaration for fixpoint #{i}"),
            Reject::StaleFix(i) => {
                write!(f, "fixpoint #{i} read while stale (missing re-convergence)")
            }
            Reject::MissingFix(i) => write!(f, "fixpoint #{i} read before any `begin`"),
            Reject::UnfinishedFix(i) => write!(f, "trace ends with fixpoint #{i} open"),
            Reject::UnknownRelation(n) => write!(f, "unknown relation `{n}`"),
            Reject::ArityMismatch(s) => write!(f, "arity mismatch: {s}"),
            Reject::UnknownRule(i) => write!(f, "no rule #{i} in the program"),
            Reject::PremiseCount(i) => write!(f, "step {i}: premise count differs from rule body"),
            Reject::PremiseMismatch { step, atom } => {
                write!(
                    f,
                    "step {step}: premise {atom} does not unify with its body atom"
                )
            }
            Reject::UnderivedPremise { step, tuple } => {
                write!(
                    f,
                    "step {step}: premise {tuple:?} is neither EDB nor derived"
                )
            }
            Reject::HeadMismatch(i) => write!(f, "step {i}: head does not match the substitution"),
            Reject::DuplicateDerivation(i) => write!(f, "step {i}: tuple already derived"),
            Reject::IncompleteDerivation { rule, tuple } => {
                write!(f, "incomplete: rule #{rule} still derives {tuple:?}")
            }
            Reject::WitnessViolation => write!(f, "witness does not satisfy the sentence body"),
            Reject::ClaimMismatch(s) => write!(f, "claim mismatch: {s}"),
        }
    }
}

impl std::error::Error for Reject {}

impl From<Unsupported> for Reject {
    fn from(u: Unsupported) -> Reject {
        Reject::Unsupported(u.to_string())
    }
}

/// What a verified claim amounts to — safe to serve, cache, or compare.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckedAnswer {
    /// A verified sentence value.
    Boolean(bool),
    /// A verified answer relation.
    Rows(Relation),
}

/// The trusted side of a check: the query/program/sentence as parsed by
/// the *checker's* owner, never taken from the certificate.
pub enum CheckRequest<'q> {
    /// An FO/FP/PFP query expecting trace evidence.
    Query(&'q Query),
    /// A Datalog program and its designated output predicate, expecting
    /// derivation-tree evidence.
    Datalog {
        /// The program.
        program: &'q Program,
        /// The output predicate.
        output: &'q str,
    },
    /// An ESO sentence expecting witness evidence.
    Eso(&'q Eso),
}

impl CheckRequest<'_> {
    fn expected_kind(&self) -> &'static str {
        match self {
            CheckRequest::Query(_) => "fp",
            CheckRequest::Datalog { .. } => "datalog",
            CheckRequest::Eso(_) => "eso",
        }
    }
}

/// Parses and checks a certificate in its text encoding.
pub fn check_text(
    db: &Database,
    req: &CheckRequest<'_>,
    text: &str,
) -> Result<CheckedAnswer, Reject> {
    let cert = Certificate::parse(text).map_err(Reject::Malformed)?;
    check(db, req, &cert)
}

/// Checks a certificate against a request and database. `Ok` returns the
/// now-trusted answer; `Err` explains the rejection.
pub fn check(
    db: &Database,
    req: &CheckRequest<'_>,
    cert: &Certificate,
) -> Result<CheckedAnswer, Reject> {
    match (req, &cert.evidence) {
        (CheckRequest::Query(q), Evidence::Trace { events }) => {
            check_trace(db, q, events, &cert.claim)
        }
        (CheckRequest::Datalog { program, output }, Evidence::Derivation { rounds, steps }) => {
            check_derivation(db, program, output, *rounds, steps, &cert.claim)
        }
        (CheckRequest::Eso(eso), Evidence::Witness { rels }) => {
            check_witness(db, eso, rels, &cert.claim)
        }
        _ => Err(Reject::WrongKind {
            expected: req.expected_kind(),
            found: cert.kind(),
        }),
    }
}

fn tuple_in_domain(t: &Tuple, n: usize) -> Result<(), Reject> {
    if t.as_slice().iter().any(|&e| e as usize >= n) {
        return Err(Reject::OutOfDomain(t.clone()));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Iteration traces
// ---------------------------------------------------------------------

fn check_trace(
    db: &Database,
    query: &Query,
    events: &[FixEvent],
    claim: &Claim,
) -> Result<CheckedAnswer, Reject> {
    for (i, v) in query.output.iter().enumerate() {
        if query.output[..i].contains(v) {
            return Err(Reject::Unsupported(
                "repeated output variables are not certified".into(),
            ));
        }
    }
    if events.len() > MAX_SWEEP {
        return Err(Reject::TooLarge);
    }
    let idx = FixIndex::build(&query.formula, &[])?;
    let mut ctx = Ctx::new(db, &idx);
    let mut stack: Vec<usize> = Vec::new();
    // Per-PFP-fixpoint snapshots of every round state (index 0 = seed),
    // for cycle verification.
    let mut snaps: FxHashMap<usize, Vec<Relation>> = FxHashMap::default();

    use bvq_logic::FixKind;
    for ev in events {
        let fix = ev.fix();
        if fix >= idx.len() {
            return Err(Reject::UnknownFix(fix));
        }
        let kind = idx.fixes[fix].kind;
        let arity = idx.fixes[fix].arity;
        match ev {
            FixEvent::Begin { .. } => {
                if idx.fixes[fix].parent != stack.last().copied() {
                    return Err(Reject::BadNesting(fix));
                }
                let seed = match kind {
                    FixKind::Lfp | FixKind::Pfp => Relation::new(arity),
                    FixKind::Gfp => {
                        if domain_product(arity, ctx.n).is_err() {
                            return Err(Reject::TooLarge);
                        }
                        Relation::full(arity, ctx.n)
                    }
                    FixKind::Ifp => unreachable!("IFP rejected at index build"),
                };
                if kind == FixKind::Pfp {
                    snaps.insert(fix, vec![seed.clone()]);
                }
                ctx.set_val(fix, Some(seed));
                ctx.fresh[fix] = false;
                ctx.invalidate_readers_of(fix);
                stack.push(fix);
            }
            FixEvent::Step { add, del, .. } => {
                if stack.last() != Some(&fix) {
                    return Err(Reject::BadNesting(fix));
                }
                if add.is_empty() && del.is_empty() {
                    return Err(Reject::EmptyStep(fix));
                }
                for t in add.iter().chain(del) {
                    if t.arity() != arity {
                        return Err(Reject::ArityMismatch(format!(
                            "delta tuple of arity {} for fixpoint #{fix} of arity {arity}",
                            t.arity()
                        )));
                    }
                    tuple_in_domain(t, ctx.n)?;
                }
                match kind {
                    FixKind::Lfp => {
                        if !del.is_empty() {
                            return Err(Reject::BadDelta {
                                fix,
                                detail: "lfp chains never delete".into(),
                            });
                        }
                        // Justify every addition against Q_prev, then apply.
                        for t in add {
                            if ctx.val_contains(fix, t)? {
                                return Err(Reject::BadDelta {
                                    fix,
                                    detail: format!("{t:?} already present"),
                                });
                            }
                            if !ctx.body_holds_at(fix, t)? {
                                return Err(Reject::Unjustified {
                                    fix,
                                    tuple: t.clone(),
                                });
                            }
                        }
                        for t in add {
                            ctx.insert_val(fix, t.clone());
                        }
                    }
                    FixKind::Gfp => {
                        if !add.is_empty() {
                            return Err(Reject::BadDelta {
                                fix,
                                detail: "gfp chains never add".into(),
                            });
                        }
                        for t in del {
                            if !ctx.val_contains(fix, t)? {
                                return Err(Reject::BadDelta {
                                    fix,
                                    detail: format!("{t:?} not present"),
                                });
                            }
                            if ctx.body_holds_at(fix, t)? {
                                return Err(Reject::Unjustified {
                                    fix,
                                    tuple: t.clone(),
                                });
                            }
                        }
                        for t in del {
                            ctx.remove_val(fix, t);
                        }
                    }
                    FixKind::Pfp => {
                        // No order to lean on: replay the round exactly.
                        let next = ctx.apply_body(fix)?;
                        let cur = ctx.val(fix).ok_or(Reject::MissingFix(fix))?;
                        let want_add = next.difference(cur);
                        let want_del = cur.difference(&next);
                        let (mut got_add, mut got_del) =
                            (Relation::new(arity), Relation::new(arity));
                        for t in add {
                            got_add.insert(t.clone());
                        }
                        for t in del {
                            got_del.insert(t.clone());
                        }
                        if got_add != want_add || got_del != want_del {
                            return Err(Reject::RoundMismatch(format!(
                                "pfp #{fix} round delta does not match the exact application"
                            )));
                        }
                        snaps.get_mut(&fix).unwrap().push(next.clone());
                        ctx.set_val(fix, Some(next));
                    }
                    FixKind::Ifp => unreachable!("IFP rejected at index build"),
                }
                ctx.invalidate_readers_of(fix);
            }
            FixEvent::Converged { .. } => {
                if stack.last() != Some(&fix) {
                    return Err(Reject::BadNesting(fix));
                }
                match kind {
                    FixKind::Lfp => {
                        // φ(Q) ⊆ Q: one sweep; with the justified chain
                        // this pins Q = lfp.
                        for t in domain_product(arity, ctx.n)? {
                            let inside = ctx.val_contains(fix, &t)?;
                            if !inside && ctx.body_holds_at(fix, &t)? {
                                return Err(Reject::NotAFixpoint(fix));
                            }
                        }
                    }
                    FixKind::Gfp => {
                        // Q ⊆ φ(Q): per-tuple, dual of the above.
                        let members = ctx.val(fix).ok_or(Reject::MissingFix(fix))?.sorted();
                        for t in members {
                            if !ctx.body_holds_at(fix, &t)? {
                                return Err(Reject::NotAFixpoint(fix));
                            }
                        }
                    }
                    FixKind::Pfp => {
                        let next = ctx.apply_body(fix)?;
                        if Some(&next) != ctx.val(fix) {
                            return Err(Reject::NotAFixpoint(fix));
                        }
                    }
                    FixKind::Ifp => unreachable!("IFP rejected at index build"),
                }
                stack.pop();
                ctx.fresh[fix] = true;
            }
            FixEvent::Cycle { back_to, .. } => {
                if stack.last() != Some(&fix) {
                    return Err(Reject::BadNesting(fix));
                }
                if kind != FixKind::Pfp {
                    return Err(Reject::BadCycle(fix));
                }
                let states = snaps.get(&fix).ok_or(Reject::BadCycle(fix))?;
                // The reference must be a strictly earlier state equal to
                // the current one. Every replayed step had a non-empty
                // (exact) delta, so no state in the cycle is a fixpoint:
                // the iteration genuinely diverges and denotes ∅.
                // (`states` holds the seed, so `len() - 1` cannot wrap;
                // `back_to + 1` would, at `usize::MAX`.)
                if *back_to >= states.len() - 1 || states[*back_to] != *states.last().unwrap() {
                    return Err(Reject::BadCycle(fix));
                }
                ctx.set_val(fix, Some(Relation::new(arity)));
                ctx.invalidate_readers_of(fix);
                stack.pop();
                ctx.fresh[fix] = true;
            }
        }
    }
    if let Some(&open) = stack.last() {
        return Err(Reject::UnfinishedFix(open));
    }

    // Evidence replayed; now confirm the claim against the final state.
    if query.output.is_empty() {
        let Claim::Boolean(b) = claim else {
            return Err(Reject::ClaimMismatch(
                "sentence query needs a boolean claim".into(),
            ));
        };
        let actual = ctx.member(&query.formula)?;
        if actual != *b {
            return Err(Reject::ClaimMismatch(format!(
                "sentence evaluates to {actual}, claim says {b}"
            )));
        }
        Ok(CheckedAnswer::Boolean(actual))
    } else {
        let Claim::Rows { arity, rows } = claim else {
            return Err(Reject::ClaimMismatch("row query needs a row claim".into()));
        };
        if *arity != query.output.len() {
            return Err(Reject::ClaimMismatch(format!(
                "claim arity {arity} vs output arity {}",
                query.output.len()
            )));
        }
        let mut claimed = Relation::with_capacity(*arity, rows.len());
        for t in rows {
            if t.arity() != *arity {
                return Err(Reject::ClaimMismatch("ragged claim rows".into()));
            }
            tuple_in_domain(t, ctx.n)?;
            claimed.insert(t.clone());
        }
        let mismatch = |t: &Tuple| {
            Reject::ClaimMismatch(format!(
                "row {t:?} {} the claim but {} the replayed answer",
                if claimed.contains(t) {
                    "is in"
                } else {
                    "is missing from"
                },
                if claimed.contains(t) { "not in" } else { "in" },
            ))
        };
        let sweep = domain_product(*arity, ctx.n)?;
        if let Some(fix) = applied_fix(&idx, query) {
            // The answer is the fixpoint's converged value itself: compare
            // the two sets instead of testing every point of the domain.
            if !ctx.has_val(fix) {
                return Err(Reject::MissingFix(fix));
            }
            if !ctx.fresh[fix] {
                return Err(Reject::StaleFix(fix));
            }
            let equal = ctx.val_len(fix) == claimed.len()
                && claimed.iter().all(|t| ctx.val_contains(fix, t) == Ok(true));
            if equal {
                return Ok(CheckedAnswer::Rows(claimed));
            }
            let value = ctx.val(fix).expect("checked above");
            let first_difference = value
                .difference(&claimed)
                .iter()
                .chain(claimed.difference(value).iter())
                .min()
                .cloned();
            return match first_difference {
                Some(t) => Err(mismatch(&t)),
                None => Ok(CheckedAnswer::Rows(claimed)),
            };
        }
        for t in sweep {
            let saved = ctx.bind_tuple(&query.output, &t);
            let sat = ctx.member(&query.formula);
            ctx.unbind_tuple(&query.output, saved);
            if sat? != claimed.contains(&t) {
                return Err(mismatch(&t));
            }
        }
        Ok(CheckedAnswer::Rows(claimed))
    }
}

/// The fixpoint a query applies directly to its distinct output
/// variables, in order — `(x̄) [fix S(ȳ). φ](x̄)` — whose answer is then
/// exactly that fixpoint's value.
fn applied_fix(idx: &FixIndex<'_>, query: &Query) -> Option<usize> {
    let Formula::Fix { args, .. } = &query.formula else {
        return None;
    };
    let direct = args.len() == query.output.len()
        && args
            .iter()
            .zip(&query.output)
            .all(|(a, v)| *a == Term::Var(*v));
    if direct {
        idx.fix_of_node(&query.formula)
    } else {
        None
    }
}

// ---------------------------------------------------------------------
// Datalog derivation trees
// ---------------------------------------------------------------------

fn unify_atom(args: &[AtomTerm], tuple: &Tuple, theta: &mut FxHashMap<u32, Elem>) -> bool {
    if args.len() != tuple.arity() {
        return false;
    }
    for (a, &e) in args.iter().zip(tuple.as_slice()) {
        match a {
            AtomTerm::Const(c) => {
                if *c != e {
                    return false;
                }
            }
            AtomTerm::Var(v) => match theta.get(v) {
                Some(&bound) => {
                    if bound != e {
                        return false;
                    }
                }
                None => {
                    theta.insert(*v, e);
                }
            },
        }
    }
    true
}

fn check_derivation(
    db: &Database,
    program: &Program,
    output: &str,
    rounds: u64,
    steps: &[DerivStep],
    claim: &Claim,
) -> Result<CheckedAnswer, Reject> {
    if steps.len() > MAX_SWEEP {
        return Err(Reject::TooLarge);
    }
    let idb = program.idb_predicates();
    if !idb.iter().any(|(p, _)| p == output) {
        return Err(Reject::UnknownRelation(output.to_string()));
    }
    let mut derived: FxHashMap<&str, Relation> = idb
        .iter()
        .map(|(p, a)| (p.as_str(), Relation::new(*a)))
        .collect();
    let mut depth: FxHashMap<(&str, Tuple), u64> = FxHashMap::default();

    for (i, step) in steps.iter().enumerate() {
        let rule: &Rule = program
            .rules
            .get(step.rule)
            .ok_or(Reject::UnknownRule(step.rule))?;
        if step.premises.len() != rule.body.len() {
            return Err(Reject::PremiseCount(i));
        }
        let mut theta: FxHashMap<u32, Elem> = FxHashMap::default();
        let mut step_depth = 0u64;
        for (j, (atom, premise)) in rule.body.iter().zip(&step.premises).enumerate() {
            if !unify_atom(&atom.args, premise, &mut theta) {
                return Err(Reject::PremiseMismatch { step: i, atom: j });
            }
            if derived.contains_key(atom.pred.as_str()) {
                let rel = &derived[atom.pred.as_str()];
                if !rel.contains(premise) {
                    return Err(Reject::UnderivedPremise {
                        step: i,
                        tuple: premise.clone(),
                    });
                }
                step_depth = step_depth.max(
                    depth
                        .get(&(atom.pred.as_str(), premise.clone()))
                        .copied()
                        .unwrap_or(0)
                        + 1,
                );
            } else {
                let rel = db
                    .relation_by_name(&atom.pred)
                    .ok_or_else(|| Reject::UnknownRelation(atom.pred.clone()))?;
                if !rel.contains(premise) {
                    return Err(Reject::UnderivedPremise {
                        step: i,
                        tuple: premise.clone(),
                    });
                }
                step_depth = step_depth.max(1);
            }
        }
        let mut head = Vec::with_capacity(rule.head.vars.len());
        for v in &rule.head.vars {
            match theta.get(v) {
                Some(&e) => head.push(e),
                None => return Err(Reject::HeadMismatch(i)),
            }
        }
        if Tuple::from_slice(&head) != step.tuple {
            return Err(Reject::HeadMismatch(i));
        }
        let pred = idb
            .iter()
            .find(|(p, _)| *p == rule.head.pred)
            .map(|(p, _)| p.as_str())
            .ok_or_else(|| Reject::UnknownRelation(rule.head.pred.clone()))?;
        let rel = derived.get_mut(pred).unwrap();
        if rel.arity() != step.tuple.arity() {
            return Err(Reject::ArityMismatch(format!(
                "derived tuple arity {} for `{pred}` of arity {}",
                step.tuple.arity(),
                rel.arity()
            )));
        }
        if !rel.insert(step.tuple.clone()) {
            return Err(Reject::DuplicateDerivation(i));
        }
        depth.insert((pred, step.tuple.clone()), step_depth);
    }

    let tree_depth = depth.values().copied().max().unwrap_or(0);
    if tree_depth != rounds {
        return Err(Reject::RoundMismatch(format!(
            "certificate says {rounds} rounds, derivation tree has depth {tree_depth}"
        )));
    }

    // Saturation: one naive application of every rule over the final IDB
    // must derive nothing new.
    let mut work = 0usize;
    for (ri, rule) in program.rules.iter().enumerate() {
        let mut theta: FxHashMap<u32, Elem> = FxHashMap::default();
        saturated(db, &derived, rule, ri, 0, &mut theta, &mut work)?;
    }

    // Confirm the claim: it must be exactly the derived output relation.
    let Claim::Rows { arity, rows } = claim else {
        return Err(Reject::ClaimMismatch(
            "datalog claims are row claims".into(),
        ));
    };
    let out_rel = &derived[output];
    if *arity != out_rel.arity() {
        return Err(Reject::ClaimMismatch(format!(
            "claim arity {arity} vs `{output}` arity {}",
            out_rel.arity()
        )));
    }
    let mut claimed = Relation::new(*arity);
    for t in rows {
        if t.arity() != *arity {
            return Err(Reject::ClaimMismatch("ragged claim rows".into()));
        }
        claimed.insert(t.clone());
    }
    if claimed != *out_rel {
        return Err(Reject::ClaimMismatch(format!(
            "claimed `{output}` has {} rows, derivation supports {}",
            claimed.len(),
            out_rel.len()
        )));
    }
    Ok(CheckedAnswer::Rows(claimed))
}

/// Backtracking join over one rule's body; errors with
/// [`Reject::IncompleteDerivation`] on any satisfying valuation whose
/// head is not already derived.
fn saturated(
    db: &Database,
    derived: &FxHashMap<&str, Relation>,
    rule: &Rule,
    rule_idx: usize,
    atom: usize,
    theta: &mut FxHashMap<u32, Elem>,
    work: &mut usize,
) -> Result<(), Reject> {
    *work += 1;
    if *work > MAX_SWEEP {
        return Err(Reject::TooLarge);
    }
    if atom == rule.body.len() {
        let mut head = Vec::with_capacity(rule.head.vars.len());
        for v in &rule.head.vars {
            match theta.get(v) {
                Some(&e) => head.push(e),
                // Not range-restricted: the program itself is invalid;
                // surface as unsupported rather than guessing.
                None => {
                    return Err(Reject::Unsupported(format!(
                        "rule #{rule_idx} is not range-restricted"
                    )))
                }
            }
        }
        let t = Tuple::from_slice(&head);
        let ok = derived
            .get(rule.head.pred.as_str())
            .is_some_and(|r| r.contains(&t));
        if !ok {
            return Err(Reject::IncompleteDerivation {
                rule: rule_idx,
                tuple: t,
            });
        }
        return Ok(());
    }
    let a = &rule.body[atom];
    let rel: &Relation = match derived.get(a.pred.as_str()) {
        Some(r) => r,
        None => db
            .relation_by_name(&a.pred)
            .ok_or_else(|| Reject::UnknownRelation(a.pred.clone()))?,
    };
    for t in rel.iter() {
        let saved: Vec<(u32, bool)> = a
            .args
            .iter()
            .filter_map(|at| match at {
                AtomTerm::Var(v) => Some((*v, theta.contains_key(v))),
                AtomTerm::Const(_) => None,
            })
            .collect();
        if unify_atom(&a.args, t, theta) {
            saturated(db, derived, rule, rule_idx, atom + 1, theta, work)?;
        }
        // Roll back bindings this atom introduced.
        for (v, was_bound) in saved {
            if !was_bound {
                theta.remove(&v);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// ESO witnesses
// ---------------------------------------------------------------------

fn check_witness(
    db: &Database,
    eso: &Eso,
    rels: &[(String, Relation)],
    claim: &Claim,
) -> Result<CheckedAnswer, Reject> {
    let Claim::Boolean(b) = claim else {
        return Err(Reject::ClaimMismatch("witness claims are boolean".into()));
    };
    if !*b {
        return Err(Reject::Unsupported(
            "only satisfiability is witness-certifiable (the NP side)".into(),
        ));
    }
    if !eso.body.free_vars().is_empty() {
        return Err(Reject::Unsupported(
            "only ESO sentences are witness-certifiable".into(),
        ));
    }
    let names: Vec<String> = eso.rels.iter().map(|(n, _)| n.clone()).collect();
    for (name, rel) in rels {
        let Some((_, want)) = eso.rels.iter().find(|(n, _)| n == name) else {
            return Err(Reject::UnknownRelation(name.clone()));
        };
        if rel.arity() != *want {
            return Err(Reject::ArityMismatch(format!(
                "witness `{name}` has arity {}, sentence declares {want}",
                rel.arity()
            )));
        }
        for t in rel.iter() {
            tuple_in_domain(t, db.domain_size())?;
        }
    }
    let idx = FixIndex::build(&eso.body, &names)?;
    if !idx.is_empty() {
        return Err(Reject::Unsupported(
            "fixpoints inside an ESO body are not witness-certifiable".into(),
        ));
    }
    let mut ctx = Ctx::new(db, &idx);
    // Quantified symbols without a witness block default to empty — the
    // evaluator's `check_with_witness` leaves unreferenced relations out.
    ctx.witness = eso
        .rels
        .iter()
        .map(|(n, a)| {
            rels.iter()
                .find(|(rn, _)| rn == n)
                .map(|(rn, r)| (rn.clone(), r.clone()))
                .unwrap_or_else(|| (n.clone(), Relation::new(*a)))
        })
        .collect();
    if !ctx.member(&eso.body)? {
        return Err(Reject::WitnessViolation);
    }
    Ok(CheckedAnswer::Boolean(true))
}
