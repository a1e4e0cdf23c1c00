//! Certificate producers: the untrusted half of the protocol.
//!
//! Producers record what a checker needs to replay an evaluation while
//! an engine runs it; this crate evaluates nothing itself. Datalog
//! derivation trees come from `bvq-datalog`'s semi-naive loop and its
//! recording sink (rule + premises per derived tuple). Iteration traces
//! for FO/FP/PFP queries come from `bvq-core`'s fixpoint round loops
//! (`bvq_core::certgen::certify_query`), which this crate cannot depend
//! on. Nothing downstream trusts a producer's output — callers always
//! run [`crate::check`] before serving a certified answer.

use bvq_datalog::{eval_recorded, Program, Recorder};
use bvq_relation::{Database, EvalConfig, Relation};

use crate::fixes::Unsupported;
use crate::format::{Certificate, Claim, DerivStep, Evidence};

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

/// Produces a derivation-tree certificate for a positive Datalog program
/// and its designated output predicate: the semi-naive loop with a
/// recording sink, on the calling thread.
pub fn certify_datalog(
    db: &Database,
    program: &Program,
    output: &str,
) -> Result<Certificate, CertError> {
    let (out, recorder) = eval_recorded(program, db, &EvalConfig::sequential())
        .map_err(|e| CertError::Unsupported(format!("datalog evaluation failed: {e}")))?;
    let out_rel = out
        .get(output)
        .ok_or_else(|| CertError::Unsupported(format!("`{output}` is not an IDB predicate")))?;
    Ok(recorded_derivation(out_rel, recorder))
}

/// Packages what a recording semi-naive run derived into a certificate
/// claiming `answer`, that run's relation for the output predicate.
pub fn recorded_derivation(answer: &Relation, recorder: Recorder) -> Certificate {
    let steps = recorder
        .steps
        .into_iter()
        .map(|s| DerivStep {
            rule: s.rule,
            tuple: s.head,
            premises: s.premises,
        })
        .collect();
    Certificate {
        claim: Claim::from_relation(answer),
        evidence: Evidence::Derivation {
            rounds: recorder.rounds,
            steps,
        },
    }
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
    use crate::check::{check, CheckRequest, CheckedAnswer, Reject};

    fn path_db(n: usize) -> Database {
        Database::builder(n)
            .relation("E", 2, (0..n as u32 - 1).map(|i| [i, i + 1]))
            .build()
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
            let (out, recorder) =
                eval_recorded(&prog, &db, &EvalConfig::with_threads(threads)).unwrap();
            recorded_derivation(out.get("S").unwrap(), recorder).encode()
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
}
