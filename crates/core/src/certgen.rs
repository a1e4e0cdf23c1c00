//! Engine-side producers for the portable [`bvq_cert`] certificates.
//!
//! [`bvq_cert`] keeps its checker self-contained — it re-derives
//! everything from the database and query text and never calls back into
//! the engine. Production, on the other hand, *is* the engine: this
//! module is the one place where the evaluators in this crate are wired
//! to certificate emission, so callers (exec, server, CLI) get one entry
//! point per query class:
//!
//! * FO/FP/PFP queries → [`certify_query`] (iteration-trace evidence):
//!   one evaluation whose fixpoint round loops write each round's delta
//!   into a [`TraceRecorder`], claiming the engine's own answer;
//! * ESO sentences → [`certify_eso`] (existential-witness evidence,
//!   extracted from the SAT model of the grounding).
//!
//! Datalog production lives in [`bvq_cert::certify_datalog`] directly
//! (the recording evaluator is part of `bvq-datalog`); it is re-exported
//! here so integrators depend on a single module.

use bvq_cert::{
    witness_certificate, CertError, Certificate, Claim, Evidence, FixEvent, FixIndex, MAX_SWEEP,
};
use bvq_logic::{Eso, Query};
use bvq_relation::{CylCtx, CylinderOps, Database, EvalConfig, Relation, Tuple};

pub use bvq_cert::certify_datalog;

use crate::compile::{plan_query, PlanChoice};
use crate::eso::EsoEvaluator;
use crate::{EvalError, FpEvaluator, PfpEvaluator};

/// The iteration trace of one evaluation, written by the engine's
/// fixpoint round loops while they compute the answer.
///
/// A recording run restarts every fixpoint from its seed each time it
/// is evaluated (no Emerson–Lei warm starts: the trace format has no
/// warm-start event), so each evaluation of a fixpoint is one
/// `begin … conv` (or `… cycle`) block, and a nested fixpoint
/// re-converges inside every round of its parent. Empty deltas are not
/// recorded. Without a recorder the loops do none of this work.
#[derive(Debug, Default)]
pub struct TraceRecorder {
    events: Vec<FixEvent>,
    /// Whether the trace outgrew [`MAX_SWEEP`] events, which the checker
    /// refuses; recording stops there.
    overflow: bool,
}

impl TraceRecorder {
    /// An empty recorder for `query`, or why its trace would not be
    /// certifiable: repeated output variables, a fixpoint outside the
    /// Theorem 3.5 fragment (IFP, parameterized), or a fixpoint or
    /// answer space over [`MAX_SWEEP`] points, which the checker would
    /// have to sweep.
    pub fn for_query(db: &Database, query: &Query) -> Result<TraceRecorder, CertError> {
        for (i, v) in query.output.iter().enumerate() {
            if query.output[..i].contains(v) {
                return Err(CertError::Unsupported(
                    "repeated output variables are not certified".into(),
                ));
            }
        }
        let idx = FixIndex::build(&query.formula, &[])?;
        let n = db.domain_size() as u128;
        let arities = idx.fixes.iter().map(|f| f.arity);
        for arity in arities.chain((!query.output.is_empty()).then_some(query.output.len())) {
            if n.checked_pow(arity as u32)
                .map_or(true, |points| points > MAX_SWEEP as u128)
            {
                return Err(CertError::TooLarge);
            }
        }
        Ok(TraceRecorder::default())
    }

    /// Appends `event` to the trace.
    pub(crate) fn push(&mut self, event: FixEvent) {
        if self.events.len() < MAX_SWEEP {
            self.events.push(event);
        } else {
            self.overflow = true;
        }
    }

    /// One round of `fix` added `add` and removed `del`; nothing is
    /// recorded when both are empty.
    pub(crate) fn step(&mut self, fix: usize, add: Vec<Tuple>, del: Vec<Tuple>) {
        if !add.is_empty() || !del.is_empty() {
            self.push(FixEvent::Step { fix, add, del });
        }
    }

    /// The round of `fix` that took its stage from `cur` to `next`, read
    /// on the fixpoint's bound coordinates `bound`. A certified fixpoint
    /// has no parameters, so its stages are cylindrical in every other
    /// coordinate and their slices are exact.
    pub(crate) fn step_between<C: CylinderOps>(
        &mut self,
        ctx: &CylCtx,
        fix: usize,
        bound: &[usize],
        cur: &C,
        next: &C,
    ) {
        if cur == next {
            return;
        }
        // The differences are small next to the stages: take them on the
        // cylinders, and read only them back as tuples.
        let mut add = next.clone();
        add.and_not_with(ctx, cur);
        let mut del = cur.clone();
        del.and_not_with(ctx, next);
        let tuples = |c: C| c.slice_to_relation(ctx, bound).sorted();
        self.step(fix, tuples(add), tuples(del));
    }

    /// The certificate claiming `answer`, the recorded run's answer to
    /// `query` (a 0-ary relation for a sentence).
    pub fn certificate(self, query: &Query, answer: &Relation) -> Result<Certificate, CertError> {
        if self.overflow {
            return Err(CertError::TooLarge);
        }
        let claim = if query.output.is_empty() {
            Claim::Boolean(answer.as_boolean())
        } else {
            Claim::from_relation(answer)
        };
        Ok(Certificate {
            claim,
            evidence: Evidence::Trace {
                events: self.events,
            },
        })
    }
}

/// Produces an iteration-trace certificate for an FO/FP/PFP query by
/// evaluating it once with a [`TraceRecorder`]: on the bytecode machine
/// when the cost model picks it, else on the interpreter, at the
/// query's own width, on the calling thread.
pub fn certify_query(db: &Database, query: &Query) -> Result<Certificate, CertError> {
    let mut rec = TraceRecorder::for_query(db, query)?;
    let outputs = query.output.iter().map(|v| v.index() + 1).max();
    let k = query.formula.width().max(outputs.unwrap_or(0)).max(1);
    let pfp = !query.formula.is_fp();
    let cfg = EvalConfig::sequential();
    let evaluated = match plan_query(db, query, k, pfp, None) {
        Ok(qp) if qp.choice() != PlanChoice::Interpreted => {
            qp.eval_compiled_recorded(db, &cfg, Some(&mut rec))
        }
        _ if pfp => PfpEvaluator::new(db, k)
            .with_config(cfg)
            .eval_query_recorded(query, Some(&mut rec)),
        _ => FpEvaluator::new(db, k)
            .with_config(cfg)
            .eval_query_recorded(query, Some(&mut rec)),
    }
    .map_err(|e: EvalError| CertError::Unsupported(format!("evaluation failed: {e}")))?;
    rec.certificate(query, &evaluated.answer)
}

/// Certifies a *true* ESO sentence by extracting a witness environment
/// from the SAT model of its grounding (the NP half of Theorem 4.2-style
/// membership; false sentences have no short witness on this side and
/// come back [`CertError::Unsupported`]).
///
/// `k` bounds the variable width exactly as in [`EsoEvaluator::new`].
pub fn certify_eso(db: &Database, eso: &Eso, k: usize) -> Result<Certificate, CertError> {
    let eval = EsoEvaluator::new(db, k);
    let env = eval
        .check_with_witness(eso, &[], &[])
        .map_err(|e| match e {
            EvalError::WidthExceeded { k, width } => {
                CertError::Unsupported(format!("ESO body width {width} exceeds the k={k} bound"))
            }
            other => CertError::Unsupported(format!("ESO grounding failed: {other}")),
        })?;
    let Some(env) = env else {
        return Err(CertError::Unsupported(
            "false ESO sentence: the witness format only certifies satisfiability".to_string(),
        ));
    };
    let rels: Vec<(String, Relation)> = env
        .iter()
        .map(|(name, rel)| (name.to_string(), rel.clone()))
        .collect();
    Ok(witness_certificate(rels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_cert::{check, CheckRequest, CheckedAnswer, Reject};
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

    /// ∃C. ∀x. C(x) ∨ E(x,x) over a db where E is reflexive nowhere:
    /// satisfiable with C = full domain.
    #[test]
    fn true_eso_sentence_round_trips_through_the_checker() {
        let db = Database::builder(3)
            .relation("E", 2, [[0u32, 1], [1, 2]])
            .build();
        let eso = Eso {
            rels: vec![("C".to_string(), 1)],
            body: Formula::rel_var("C", [v(0)])
                .or(Formula::atom("E", [v(0), v(0)]))
                .forall(Var(0)),
        };
        let cert = certify_eso(&db, &eso, 2).unwrap();
        assert_eq!(cert.claim, Claim::Boolean(true));
        let reparsed = Certificate::parse(&cert.encode()).unwrap();
        let ans = check(&db, &CheckRequest::Eso(&eso), &reparsed).unwrap();
        assert_eq!(ans, CheckedAnswer::Boolean(true));
    }

    /// ∃P (nullary). P ∧ ¬P is unsatisfiable — no witness exists, so the
    /// producer refuses rather than emitting a bogus certificate.
    #[test]
    fn false_eso_sentence_is_uncertifiable() {
        let db = Database::builder(2).relation("E", 2, [[0u32, 1]]).build();
        let p = || Formula::rel_var("P", Vec::<Term>::new());
        let eso = Eso {
            rels: vec![("P".to_string(), 0)],
            body: p().and(p().not()),
        };
        let err = certify_eso(&db, &eso, 2).unwrap_err();
        assert!(matches!(err, CertError::Unsupported(_)));
    }

    /// The fixpoint producer agrees with the checker on a reachability
    /// query given as a formula rather than a pattern.
    #[test]
    fn reexported_fp_producer_checks_out() {
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .build();
        let reach = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::Eq(v(0), Term::Const(0)).or(Formula::rel_var("S", [v(1)])
                .and(Formula::atom("E", [v(1), v(0)]))
                .exists(Var(1))),
            vec![v(0)],
        );
        let q = Query::new(vec![Var(0)], reach);
        let cert = certify_query(&db, &q).unwrap();
        let ans = check(&db, &CheckRequest::Query(&q), &cert).unwrap();
        match ans {
            CheckedAnswer::Rows(rel) => assert_eq!(rel.len(), 4),
            other => panic!("expected rows, got {other:?}"),
        }
    }
}
