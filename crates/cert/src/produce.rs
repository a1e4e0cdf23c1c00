//! Certificate producers: the untrusted half of the protocol.
//!
//! Producers run a straightforward evaluation and write down what a
//! checker needs to replay it: per-round deltas for fixpoint chains,
//! rule + premises per derived Datalog tuple. They share the [`Ctx`]
//! membership machinery with the checker, but nothing downstream trusts
//! their output — callers always run [`crate::check`] (or compare
//! against an independent evaluation) before serving a certified answer.

use bvq_datalog::{eval_recorded, Program};
use bvq_logic::{FixKind, Query};
use bvq_relation::{Database, EvalConfig, Relation};

use crate::check::Reject;
use crate::eval::{domain_product, Ctx, MAX_SWEEP};
use crate::fixes::{FixIndex, Unsupported};
use crate::format::{Certificate, Claim, DerivStep, Evidence, FixEvent};

/// Iteration-round cap for producers: a PFP that has not converged or
/// cycled by then is refused rather than certified.
const MAX_ROUNDS: usize = 1 << 14;

/// Why a certificate could not be produced. Callers fall back to plain
/// uncertified evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CertError {
    /// The query is outside the certifiable fragment.
    Unsupported(String),
    /// Production would exceed the work caps.
    TooLarge,
}

impl std::fmt::Display for CertError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertError::Unsupported(s) => write!(f, "{s}"),
            CertError::TooLarge => write!(f, "certificate production exceeds the work caps"),
        }
    }
}

impl std::error::Error for CertError {}

impl From<Unsupported> for CertError {
    fn from(u: Unsupported) -> CertError {
        CertError::Unsupported(u.to_string())
    }
}

impl From<Reject> for CertError {
    fn from(r: Reject) -> CertError {
        match r {
            Reject::TooLarge => CertError::TooLarge,
            Reject::Unsupported(s) => CertError::Unsupported(s),
            other => CertError::Unsupported(format!("production failed: {other}")),
        }
    }
}

/// Produces an iteration-trace certificate for an FO/FP/PFP query: every
/// fixpoint is iterated to convergence (or to a detected cycle, for PFP)
/// with per-round deltas recorded, then the answer is computed and
/// claimed.
pub fn certify_query(db: &Database, query: &Query) -> Result<Certificate, CertError> {
    for (i, v) in query.output.iter().enumerate() {
        if query.output[..i].contains(v) {
            return Err(CertError::Unsupported(
                "repeated output variables are not certified".into(),
            ));
        }
    }
    let idx = FixIndex::build(&query.formula, &[])?;
    let mut ctx = Ctx::new(db, &idx);
    let mut events: Vec<FixEvent> = Vec::new();
    for fix in 0..idx.len() {
        if idx.fixes[fix].parent.is_none() {
            converge(&mut ctx, &idx, fix, &mut events)?;
        }
    }
    let claim = if query.output.is_empty() {
        Claim::Boolean(ctx.member(&query.formula)?)
    } else {
        let mut rows = Relation::new(query.output.len());
        for t in domain_product(query.output.len(), ctx.n)? {
            let saved = ctx.bind_tuple(&query.output, &t);
            let sat = ctx.member(&query.formula);
            ctx.unbind_tuple(&query.output, saved);
            if sat? {
                rows.insert(t);
            }
        }
        Claim::from_relation(&rows)
    };
    Ok(Certificate {
        claim,
        evidence: Evidence::Trace { events },
    })
}

/// Iterates fixpoint `fix` to its value, emitting trace events, with
/// stale direct children re-converged before every round (the same
/// freshness discipline the checker enforces on replay).
fn converge(
    ctx: &mut Ctx<'_, '_>,
    idx: &FixIndex<'_>,
    fix: usize,
    events: &mut Vec<FixEvent>,
) -> Result<(), CertError> {
    let kind = idx.fixes[fix].kind;
    let arity = idx.fixes[fix].arity;
    events.push(FixEvent::Begin { fix });
    let seed = match kind {
        FixKind::Lfp | FixKind::Pfp => Relation::new(arity),
        FixKind::Gfp => {
            domain_product(arity, ctx.n)?;
            Relation::full(arity, ctx.n)
        }
        FixKind::Ifp => unreachable!("IFP refused at index build"),
    };
    let mut snaps: Vec<Relation> = if kind == FixKind::Pfp {
        vec![seed.clone()]
    } else {
        Vec::new()
    };
    ctx.set_val(fix, Some(seed));
    ctx.fresh[fix] = false;
    ctx.invalidate_readers_of(fix);
    let mut rounds = 0usize;
    loop {
        rounds += 1;
        if rounds > MAX_ROUNDS || events.len() > MAX_SWEEP {
            return Err(CertError::TooLarge);
        }
        for c in 0..idx.len() {
            if idx.fixes[c].parent == Some(fix) && !ctx.fresh[c] {
                converge(ctx, idx, c, events)?;
            }
        }
        let next = ctx.apply_body(fix)?;
        let cur = ctx.val(fix).expect("seeded above");
        if next == *cur {
            events.push(FixEvent::Converged { fix });
            ctx.fresh[fix] = true;
            return Ok(());
        }
        let add = next.difference(cur).sorted();
        let del = cur.difference(&next).sorted();
        events.push(FixEvent::Step { fix, add, del });
        if kind == FixKind::Pfp {
            if let Some(back_to) = snaps.iter().position(|s| *s == next) {
                // The iteration revisited an earlier state: it diverges,
                // and the fixpoint denotes ∅ (§2.2).
                events.push(FixEvent::Cycle { fix, back_to });
                ctx.set_val(fix, Some(Relation::new(arity)));
                ctx.invalidate_readers_of(fix);
                ctx.fresh[fix] = true;
                return Ok(());
            }
            snaps.push(next.clone());
        }
        ctx.set_val(fix, Some(next));
        ctx.invalidate_readers_of(fix);
    }
}

/// Produces a derivation-tree certificate for a positive Datalog program
/// and its designated output predicate: the semi-naive loop with a
/// recording sink, on the calling thread.
pub fn certify_datalog(
    db: &Database,
    program: &Program,
    output: &str,
) -> Result<Certificate, CertError> {
    derivation_certificate(db, program, output, &EvalConfig::sequential())
}

fn derivation_certificate(
    db: &Database,
    program: &Program,
    output: &str,
    cfg: &EvalConfig,
) -> Result<Certificate, CertError> {
    let (out, recorder) = eval_recorded(program, db, cfg)
        .map_err(|e| CertError::Unsupported(format!("datalog evaluation failed: {e}")))?;
    let out_rel = out
        .get(output)
        .ok_or_else(|| CertError::Unsupported(format!("`{output}` is not an IDB predicate")))?;
    let claim = Claim::from_relation(out_rel);
    let steps = recorder
        .steps
        .into_iter()
        .map(|s| DerivStep {
            rule: s.rule,
            tuple: s.head,
            premises: s.premises,
        })
        .collect();
    Ok(Certificate {
        claim,
        evidence: Evidence::Derivation {
            rounds: recorder.rounds,
            steps,
        },
    })
}

/// Packages an ESO existential witness (as found by an evaluator) into a
/// certificate for `claim bool true`.
pub fn witness_certificate(rels: Vec<(String, Relation)>) -> Certificate {
    let mut rels = rels;
    rels.sort_by(|(a, _), (b, _)| a.cmp(b));
    Certificate {
        claim: Claim::Boolean(true),
        evidence: Evidence::Witness { rels },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, CheckRequest, CheckedAnswer};
    use bvq_logic::{Formula, Term, Var};

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn path_db(n: usize) -> Database {
        Database::builder(n)
            .relation("E", 2, (0..n as u32 - 1).map(|i| [i, i + 1]))
            .build()
    }

    /// reach(x1) ≡ [lfp S(x1). x1 = 0 ∨ ∃x2. S(x2) ∧ E(x2, x1)](x1)
    fn reach_query() -> Query {
        let body = Formula::Eq(v(0), Term::Const(0)).or(Formula::rel_var("S", [v(1)])
            .and(Formula::atom("E", [v(1), v(0)]))
            .exists(Var(1)));
        Query::new(
            vec![Var(0)],
            Formula::lfp("S", vec![Var(0)], body, vec![v(0)]),
        )
    }

    #[test]
    fn lfp_reach_certificate_round_trips_through_the_checker() {
        let db = path_db(6);
        let q = reach_query();
        let cert = certify_query(&db, &q).unwrap();
        // Re-encode through the wire format, then check.
        let text = cert.encode();
        let parsed = Certificate::parse(&text).unwrap();
        let ans = check(&db, &CheckRequest::Query(&q), &parsed).unwrap();
        let CheckedAnswer::Rows(rel) = ans else {
            panic!("row answer expected")
        };
        assert_eq!(rel.len(), 6); // every node reachable from 0 on a path
    }

    #[test]
    fn tampered_delta_is_rejected() {
        let db = path_db(6);
        let q = reach_query();
        let mut cert = certify_query(&db, &q).unwrap();
        // Smuggle an extra tuple into the first step.
        let Evidence::Trace { events } = &mut cert.evidence else {
            panic!("trace")
        };
        let step = events
            .iter_mut()
            .find_map(|e| match e {
                FixEvent::Step { add, .. } => Some(add),
                _ => None,
            })
            .unwrap();
        step.push(bvq_relation::Tuple::from_slice(&[5]));
        let err = check(&db, &CheckRequest::Query(&q), &cert).unwrap_err();
        assert!(
            matches!(err, Reject::Unjustified { .. } | Reject::BadDelta { .. }),
            "{err}"
        );
    }

    #[test]
    fn wrong_claim_with_honest_trace_is_rejected() {
        let db = path_db(4);
        let q = reach_query();
        let mut cert = certify_query(&db, &q).unwrap();
        let Claim::Rows { rows, .. } = &mut cert.claim else {
            panic!("rows")
        };
        rows.pop(); // drop a correct answer row
        let err = check(&db, &CheckRequest::Query(&q), &cert).unwrap_err();
        assert_eq!(err.code(), "claim_mismatch");
    }

    #[test]
    fn gfp_certificate_checks() {
        // [gfp S(x1). ∃x2. E(x1,x2) ∧ S(x2)](x1): nodes with an infinite
        // outgoing path — none on a finite path graph.
        let body = Formula::atom("E", [v(0), v(1)])
            .and(Formula::rel_var("S", [v(1)]))
            .exists(Var(1));
        let q = Query::new(
            vec![Var(0)],
            Formula::gfp("S", vec![Var(0)], body, vec![v(0)]),
        );
        let db = path_db(5);
        let cert = certify_query(&db, &q).unwrap();
        let ans = check(&db, &CheckRequest::Query(&q), &cert).unwrap();
        assert_eq!(ans, CheckedAnswer::Rows(Relation::new(1)));
    }

    #[test]
    fn pfp_cycle_certificate_checks_and_denotes_empty() {
        // [pfp S(x1). ¬S(x1)](x1) flips between ∅ and the full domain:
        // a 2-cycle, so the fixpoint is empty.
        let q = Query::new(
            vec![Var(0)],
            Formula::pfp(
                "S",
                vec![Var(0)],
                Formula::rel_var("S", [v(0)]).not(),
                vec![v(0)],
            ),
        );
        let db = path_db(3);
        let cert = certify_query(&db, &q).unwrap();
        let Evidence::Trace { events } = &cert.evidence else {
            panic!("trace")
        };
        assert!(events.iter().any(|e| matches!(e, FixEvent::Cycle { .. })));
        let ans = check(&db, &CheckRequest::Query(&q), &cert).unwrap();
        assert_eq!(ans, CheckedAnswer::Rows(Relation::new(1)));
    }

    #[test]
    fn nested_fixpoint_staleness_discipline_round_trips() {
        // Outer lfp whose only recursive route runs *through* an inner
        // gfp reading the outer chain value — so every outer step's
        // justification reads the inner converged value, and the inner
        // fixpoint must re-converge between outer rounds.
        //
        // outer(x1) = [lfp S(x1). x1 = 0
        //                       ∨ ∃x2. E(x2,x1) ∧ [gfp T(x3). S(x3)](x2)](x1)
        //
        // The inner gfp's operator is constant in T, so its value is
        // just the current S — the query is plain reachability, routed
        // through a nested fixpoint.
        let inner = Formula::gfp("T", vec![Var(2)], Formula::rel_var("S", [v(2)]), vec![v(1)]);
        let body = Formula::Eq(v(0), Term::Const(0))
            .or(Formula::atom("E", [v(1), v(0)]).and(inner).exists(Var(1)));
        let q = Query::new(
            vec![Var(0)],
            Formula::lfp("S", vec![Var(0)], body, vec![v(0)]),
        );
        let db = path_db(4);
        let cert = certify_query(&db, &q).unwrap();
        let Evidence::Trace { events } = &cert.evidence else {
            panic!("trace")
        };
        // The inner fixpoint must re-converge more than once.
        let inner_begins: Vec<usize> = events
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e, FixEvent::Begin { fix: 1 }))
            .map(|(i, _)| i)
            .collect();
        assert!(
            inner_begins.len() > 2,
            "inner fixpoint re-converged only {} times",
            inner_begins.len()
        );
        let ans = check(&db, &CheckRequest::Query(&q), &cert).unwrap();
        let CheckedAnswer::Rows(rel) = ans else {
            panic!("rows")
        };
        assert_eq!(rel.len(), 4);
        // Dropping a *middle* inner re-convergence block leaves the next
        // outer step justifying against a stale inner value: StaleFix.
        let mut forged = cert.clone();
        let Evidence::Trace { events } = &mut forged.evidence else {
            panic!("trace")
        };
        let begin = inner_begins[1];
        let conv = events[begin..]
            .iter()
            .position(|e| matches!(e, FixEvent::Converged { fix: 1 }))
            .map(|i| begin + i)
            .unwrap();
        events.drain(begin..=conv);
        let err = check(&db, &CheckRequest::Query(&q), &forged).unwrap_err();
        assert_eq!(err.code(), "stale_fix", "{err}");
    }

    #[test]
    fn datalog_certificate_round_trips() {
        use bvq_datalog::ast::AtomTerm::Var as DV;
        let prog = Program::new()
            .rule("T", &[0, 1], &[("E", &[DV(0), DV(1)])])
            .rule(
                "T",
                &[0, 2],
                &[("E", &[DV(0), DV(1)]), ("T", &[DV(1), DV(2)])],
            );
        let db = path_db(4);
        let cert = certify_datalog(&db, &prog, "T").unwrap();
        let req = CheckRequest::Datalog {
            program: &prog,
            output: "T",
        };
        let parsed = Certificate::parse(&cert.encode()).unwrap();
        let CheckedAnswer::Rows(rel) = check(&db, &req, &parsed).unwrap() else {
            panic!("rows")
        };
        assert_eq!(rel.len(), 6);

        // Truncating the tree (dropping a leaf someone depends on) must
        // fail with an underived premise; dropping a final step fails
        // saturation.
        let Evidence::Derivation { steps, rounds } = &cert.evidence else {
            panic!("derivation")
        };
        let mut truncated = cert.clone();
        let Evidence::Derivation { steps: ts, .. } = &mut truncated.evidence else {
            panic!()
        };
        ts.remove(0);
        let err = check(&db, &req, &truncated).unwrap_err();
        assert!(
            matches!(
                err,
                Reject::UnderivedPremise { .. }
                    | Reject::IncompleteDerivation { .. }
                    | Reject::ClaimMismatch(_)
            ),
            "{err}"
        );

        // Off-by-one round count.
        let mut off = Certificate {
            claim: cert.claim.clone(),
            evidence: Evidence::Derivation {
                rounds: rounds + 1,
                steps: steps.clone(),
            },
        };
        assert_eq!(check(&db, &req, &off).unwrap_err().code(), "round_mismatch");
        let Evidence::Derivation { rounds: r, .. } = &mut off.evidence else {
            panic!()
        };
        *r = rounds.saturating_sub(1);
        assert_eq!(check(&db, &req, &off).unwrap_err().code(), "round_mismatch");
    }

    #[test]
    fn datalog_certificate_bytes_are_thread_count_independent() {
        use bvq_datalog::ast::AtomTerm::Var as DV;
        // Two full items of ~3.3k tuples each make round 1 large enough
        // to split across threads; E and F overlap, so some facts have a
        // derivation from each item.
        let pairs = |m: u32| {
            (0..100u32)
                .flat_map(|a| (0..100u32).map(move |b| [a, b]))
                .filter(move |[a, b]| (a * 31 + b * 17 + m) % 3 == 0)
        };
        let db = Database::builder(100)
            .relation("E", 2, pairs(0))
            .relation("F", 2, pairs(1))
            .relation("P", 1, (0..100u32).step_by(7).map(|a| [a]))
            .build();
        let prog = Program::new()
            .rule("R", &[0, 1], &[("E", &[DV(0), DV(1)])])
            .rule("R", &[0, 1], &[("F", &[DV(1), DV(0)])])
            .rule("S", &[0], &[("R", &[DV(0), DV(1)]), ("P", &[DV(1)])]);
        let cert = |threads| {
            derivation_certificate(&db, &prog, "S", &EvalConfig::with_threads(threads))
                .unwrap()
                .encode()
        };
        let one = cert(1);
        assert_eq!(one, cert(4));
        let req = CheckRequest::Datalog {
            program: &prog,
            output: "S",
        };
        let parsed = Certificate::parse(&one).unwrap();
        assert!(check(&db, &req, &parsed).is_ok());
    }

    #[test]
    fn fo_query_gets_an_empty_trace() {
        let q = Query::new(
            vec![Var(0)],
            Formula::atom("E", [v(0), v(1)]).exists(Var(1)),
        );
        let db = path_db(3);
        let cert = certify_query(&db, &q).unwrap();
        assert!(matches!(&cert.evidence, Evidence::Trace { events } if events.is_empty()));
        let CheckedAnswer::Rows(rel) = check(&db, &CheckRequest::Query(&q), &cert).unwrap() else {
            panic!("rows")
        };
        assert_eq!(rel.len(), 2);
    }
}
