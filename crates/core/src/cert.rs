//! The NP ∩ co-NP certificate system for `FP^k` (Theorem 3.5).
//!
//! The paper's key idea is to approximate **both** least and greatest
//! fixpoints *from below* (Lemmas 3.3 and 3.4):
//!
//! * `a ∈ gfp(f)` iff there is a set `Q` with `a ∈ Q` and `Q ⊆ f(Q)` — a
//!   post-fixpoint witness;
//! * `a ∈ lfp(f)` iff there is a chain `Q₀ = ∅`, `Qᵢ ⊆ f(Qᵢ₋₁)` with
//!   `a ∈ ⋃Qᵢ` (under-approximating functions compose monotonically).
//!
//! A [`Certificate`] is the syntactic realisation: one post-fixpoint
//! witness per ν operator, one chain per μ operator, nested along the
//! formula structure so that checking a witness requires only **single
//! applications** of operator bodies — never a nested fixpoint iteration.
//! The verifier ([`CertifiedChecker::verify`]) therefore runs in
//! polynomial time, and because under-approximations compose monotonically
//! through positive formulas, `Valid { member: true }` is *sound*: the
//! tuple really is in the answer. Completeness holds because the exact
//! Kleene iterates (produced by [`CertifiedChecker::extract`]) always
//! verify.
//!
//! Non-membership is certified the same way on the **dual** formula
//! (negation in NNF, μ ↔ ν swapped) — the co-NP half of the theorem.
//!
//! Formulas are put into negation normal form before certification:
//! positivity of recursion variables only forbids negations over *recursion
//! atoms*, but a closed fixpoint subformula may still sit under a negation,
//! which would flip an under- into an over-approximation. NNF dualizes
//! such fixpoints away.

use bvq_logic::{FixKind, Formula, Query, Term};
use bvq_relation::backend::{choose, BackendKind, BackendMode, BddCylinder, DenseCylinder};
use bvq_relation::{CylCtx, CylinderOps, Database, EvalStats, Relation, StatsRecorder};

use crate::fp::{fix_read_map, load_atom};
use crate::ir::{self, AtomSource, CompileOpts, Node, NodeRef, Program};
use crate::EvalError;

/// A certificate for one fixpoint operator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Certificate {
    /// For a ν operator: a post-fixpoint witness `Q ⊆ φ(Q)`, stored as a
    /// `k`-ary cylinder relation, plus certificates for the single
    /// application `φ(Q)`.
    Gfp {
        /// The witness `Q`.
        witness: Relation,
        /// Certificates for the fixpoints inside the one body application.
        body: AppCert,
    },
    /// For a μ operator: an increasing chain `Q₁, Q₂, …` with
    /// `Qᵢ ⊆ φ(Qᵢ₋₁)` (`Q₀ = ∅`), each step carrying the certificates for
    /// its body application.
    Lfp {
        /// The chain steps in order.
        steps: Vec<LfpStep>,
    },
}

/// One step of a μ chain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LfpStep {
    /// The chain value `Qᵢ` (a `k`-ary cylinder relation).
    pub value: Relation,
    /// Certificates for the fixpoints inside the application `φ(Qᵢ₋₁)`.
    pub body: AppCert,
}

/// Certificates for the top-level fixpoint operators of one formula (or
/// one operator-body application), in evaluation order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AppCert {
    /// One certificate per top-level fixpoint, in visit order.
    pub certs: Vec<Certificate>,
}

impl Certificate {
    /// Total number of tuples stored in the certificate — the paper's
    /// "polynomial size" claim, measurable.
    pub fn size_tuples(&self) -> usize {
        match self {
            Certificate::Gfp { witness, body } => witness.len() + body.size_tuples(),
            Certificate::Lfp { steps } => steps
                .iter()
                .map(|s| s.value.len() + s.body.size_tuples())
                .sum(),
        }
    }
}

impl AppCert {
    /// Total number of tuples stored.
    pub fn size_tuples(&self) -> usize {
        self.certs.iter().map(Certificate::size_tuples).sum()
    }
}

/// Outcome of verifying a certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every local condition checked out; `member` reports whether the
    /// queried tuple lies in the certified under-approximation.
    Valid {
        /// Whether the tuple is certified to belong to the answer.
        member: bool,
    },
    /// A local condition failed (wrong shape, or some `Q ⊄ φ(Q)`).
    Invalid(String),
}

/// Extraction and verification of Theorem 3.5 certificates.
pub struct CertifiedChecker<'d> {
    db: &'d Database,
    k: usize,
}

impl<'d> CertifiedChecker<'d> {
    /// Creates a checker with variable bound `k`.
    pub fn new(db: &'d Database, k: usize) -> Self {
        CertifiedChecker { db, k }
    }

    fn prepare(&self, q: &Query) -> Result<(Formula, Program, CylCtx), EvalError> {
        let nnf = q
            .formula
            .nnf()
            .map_err(|_| EvalError::UnsupportedConstruct("PFP operators cannot be certified"))?;
        let prog = ir::compile(
            &nnf,
            self.db,
            &[],
            CompileOpts {
                k: self.k,
                allow_pfp: false,
                allow_fix: true,
            },
        )?;
        let width = q
            .output
            .iter()
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0)
            .max(prog.width)
            .max(1);
        if width > self.k.max(1) {
            return Err(EvalError::WidthExceeded { k: self.k, width });
        }
        let ctx = CylCtx::new(self.db.domain_size(), self.k.max(1));
        Ok((nnf, prog, ctx))
    }

    /// Extracts a membership certificate (the exact Kleene iterates) for
    /// the query. Returns the certificate together with the exact answer
    /// relation (over the output variables).
    pub fn extract(&self, q: &Query) -> Result<(AppCert, Relation), EvalError> {
        let (_nnf, prog, ctx) = self.prepare(q)?;
        let coords: Vec<usize> = q.output.iter().map(|v| v.index()).collect();
        match choose(&ctx, BackendMode::Auto) {
            BackendKind::Dense => Extractor::<DenseCylinder>::new(&prog, self.db, ctx).run(&coords),
            BackendKind::Bdd => Extractor::<BddCylinder>::new(&prog, self.db, ctx).run(&coords),
        }
    }

    /// Verifies a certificate and decides membership of `t`. Polynomial
    /// time: each fixpoint body is applied once per witness / chain step,
    /// never iterated.
    pub fn verify(
        &self,
        q: &Query,
        cert: &AppCert,
        t: &[u32],
    ) -> Result<(VerifyOutcome, EvalStats), EvalError> {
        if t.len() != q.output.len() {
            return Ok((VerifyOutcome::Valid { member: false }, EvalStats::new()));
        }
        let (_nnf, prog, ctx) = self.prepare(q)?;
        let coords: Vec<usize> = q.output.iter().map(|v| v.index()).collect();
        match choose(&ctx, BackendMode::Auto) {
            BackendKind::Dense => {
                Verifier::<DenseCylinder>::new(&prog, self.db, ctx).run(cert, &coords, t)
            }
            BackendKind::Bdd => {
                Verifier::<BddCylinder>::new(&prog, self.db, ctx).run(cert, &coords, t)
            }
        }
    }

    /// Full NP ∩ co-NP demonstration for one tuple: extract and verify a
    /// membership certificate for the query *or* for its dual, reporting
    /// which side certified. Returns `(member, cert_size_tuples,
    /// verify_stats)`.
    pub fn decide(&self, q: &Query, t: &[u32]) -> Result<(bool, usize, EvalStats), EvalError> {
        let (cert, answer) = self.extract(q)?;
        if answer.contains(t) {
            let (out, stats) = self.verify(q, &cert, t)?;
            match out {
                VerifyOutcome::Valid { member: true } => Ok((true, cert.size_tuples(), stats)),
                other => Err(verification_bug(other)),
            }
        } else {
            // co-NP side: certify membership of t in the dual query.
            let dual = Query::new(
                q.output.clone(),
                q.formula.dual().map_err(|_| {
                    EvalError::UnsupportedConstruct("PFP operators cannot be certified")
                })?,
            );
            let (dcert, danswer) = self.extract(&dual)?;
            debug_assert!(danswer.contains(t) || t.len() != q.output.len());
            let (out, stats) = self.verify(&dual, &dcert, t)?;
            match out {
                VerifyOutcome::Valid { member } => {
                    debug_assert!(member || t.len() != q.output.len());
                    Ok((false, dcert.size_tuples(), stats))
                }
                other => Err(verification_bug(other)),
            }
        }
    }
}

fn verification_bug(out: VerifyOutcome) -> EvalError {
    // Extracted certificates always verify; reaching this indicates an
    // internal inconsistency rather than a user error.
    panic!("extracted certificate failed verification: {out:?}");
}

/// Converts a `k`-ary cylinder relation back into a cylinder.
fn cyl_from_relation<C: CylinderOps>(ctx: &CylCtx, rel: &Relation) -> Result<C, EvalError> {
    if rel.arity() != ctx.width() {
        return Err(EvalError::ArityMismatch {
            name: "certificate relation".into(),
            expected: ctx.width(),
            found: rel.arity(),
        });
    }
    let coords: Vec<usize> = (0..ctx.width()).collect();
    Ok(C::from_atom(ctx, rel, &coords))
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

struct Extractor<'p, 'd, C: CylinderOps> {
    prog: &'p Program,
    db: &'d Database,
    ctx: CylCtx,
    fix_values: Vec<Option<C>>,
}

impl<'p, 'd, C: CylinderOps> Extractor<'p, 'd, C> {
    fn new(prog: &'p Program, db: &'d Database, ctx: CylCtx) -> Self {
        Extractor {
            prog,
            db,
            ctx,
            fix_values: vec![None; prog.fixes.len()],
        }
    }

    /// Extracts the root's certificate and the answer over `coords`.
    fn run(mut self, coords: &[usize]) -> Result<(AppCert, Relation), EvalError> {
        let (c, certs) = self.extract(self.prog.root)?;
        Ok((AppCert { certs }, c.to_relation(&self.ctx, coords)))
    }

    /// Plain evaluation (no recording) — used to reach fixpoints cheaply.
    fn eval(&mut self, node: NodeRef) -> Result<C, EvalError> {
        match self.prog.nodes[node as usize].clone() {
            Node::Const(true) => Ok(C::full(&self.ctx)),
            Node::Const(false) => Ok(C::empty(&self.ctx)),
            Node::Eq(a, b) => eval_eq(&self.ctx, a, b),
            Node::Atom { source, args } => self.eval_atom(&source, &args),
            Node::Not(g) => {
                let mut c = self.eval(g)?;
                c.not(&self.ctx);
                Ok(c)
            }
            Node::And(a, b) => {
                let mut ca = self.eval(a)?;
                let cb = self.eval(b)?;
                ca.and_with(&self.ctx, &cb);
                Ok(ca)
            }
            Node::Or(a, b) => {
                let mut ca = self.eval(a)?;
                let cb = self.eval(b)?;
                ca.or_with(&self.ctx, &cb);
                Ok(ca)
            }
            Node::Exists(v, g) => Ok(self.eval(g)?.exists(&self.ctx, v)),
            Node::Forall(v, g) => Ok(self.eval(g)?.forall(&self.ctx, v)),
            Node::Fix { fix } => Ok(self.extract_fix(fix)?.0),
        }
    }

    fn eval_atom(&mut self, source: &AtomSource, args: &[Term]) -> Result<C, EvalError> {
        match source {
            AtomSource::Db(id) => load_atom(&self.ctx, self.db.relation(*id), args),
            AtomSource::External(_) => Err(EvalError::UnsupportedConstruct(
                "external relation variables cannot be certified",
            )),
            AtomSource::Fix(fix) => {
                let map = fix_read_map(self.ctx.width(), &self.prog.fixes[*fix].bound, args)?;
                Ok(self.fix_values[*fix]
                    .as_ref()
                    .expect("recursion variable read outside its fixpoint")
                    .preimage(&self.ctx, &map))
            }
        }
    }

    /// Evaluation that also collects certificates for top-level fixpoints.
    fn extract(&mut self, node: NodeRef) -> Result<(C, Vec<Certificate>), EvalError> {
        match self.prog.nodes[node as usize].clone() {
            Node::Const(true) => Ok((C::full(&self.ctx), Vec::new())),
            Node::Const(false) => Ok((C::empty(&self.ctx), Vec::new())),
            Node::Eq(a, b) => Ok((eval_eq(&self.ctx, a, b)?, Vec::new())),
            Node::Atom { source, args } => Ok((self.eval_atom(&source, &args)?, Vec::new())),
            Node::Not(g) => {
                let (mut c, certs) = self.extract(g)?;
                debug_assert!(certs.is_empty(), "NNF: no fixpoints under negation");
                c.not(&self.ctx);
                Ok((c, certs))
            }
            Node::And(a, b) => {
                let (mut ca, mut certs) = self.extract(a)?;
                let (cb, certs_b) = self.extract(b)?;
                ca.and_with(&self.ctx, &cb);
                certs.extend(certs_b);
                Ok((ca, certs))
            }
            Node::Or(a, b) => {
                let (mut ca, mut certs) = self.extract(a)?;
                let (cb, certs_b) = self.extract(b)?;
                ca.or_with(&self.ctx, &cb);
                certs.extend(certs_b);
                Ok((ca, certs))
            }
            Node::Exists(v, g) => {
                let (c, certs) = self.extract(g)?;
                Ok((c.exists(&self.ctx, v), certs))
            }
            Node::Forall(v, g) => {
                let (c, certs) = self.extract(g)?;
                Ok((c.forall(&self.ctx, v), certs))
            }
            Node::Fix { fix } => {
                let (value, cert) = self.extract_fix(fix)?;
                Ok((value, vec![cert]))
            }
        }
    }

    fn extract_fix(&mut self, fix: usize) -> Result<(C, Certificate), EvalError> {
        let info = self.prog.fixes[fix].clone();
        let coords: Vec<usize> = (0..self.ctx.width()).collect();
        match info.kind {
            FixKind::Gfp => {
                // Iterate to the greatest fixpoint, then record one body
                // application at the fixpoint (the witness check).
                let mut cur = C::full(&self.ctx);
                loop {
                    self.fix_values[fix] = Some(cur.clone());
                    let next = self.eval(info.body)?;
                    if next == cur {
                        break;
                    }
                    cur = next;
                }
                self.fix_values[fix] = Some(cur.clone());
                let (body_val, certs) = self.extract(info.body)?;
                debug_assert!(cur.is_subset(&self.ctx, &body_val));
                self.fix_values[fix] = None;
                let witness = cur.to_relation(&self.ctx, &coords);
                let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
                let value = cur.preimage(&self.ctx, &map);
                Ok((
                    value,
                    Certificate::Gfp {
                        witness,
                        body: AppCert { certs },
                    },
                ))
            }
            FixKind::Lfp => {
                // Record the whole Kleene chain, with per-step inner certs.
                let mut steps = Vec::new();
                let mut cur = C::empty(&self.ctx);
                loop {
                    self.fix_values[fix] = Some(cur.clone());
                    let (next, certs) = self.extract(info.body)?;
                    let converged = next == cur;
                    if !converged {
                        steps.push(LfpStep {
                            value: next.to_relation(&self.ctx, &coords),
                            body: AppCert { certs },
                        });
                    }
                    if converged {
                        break;
                    }
                    cur = next;
                }
                self.fix_values[fix] = None;
                let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
                let value = cur.preimage(&self.ctx, &map);
                Ok((value, Certificate::Lfp { steps }))
            }
            FixKind::Pfp | FixKind::Ifp => Err(EvalError::UnsupportedConstruct(
                "PFP/IFP operators cannot be certified",
            )),
        }
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

struct Verifier<'p, 'd, C: CylinderOps> {
    prog: &'p Program,
    db: &'d Database,
    ctx: CylCtx,
    fix_values: Vec<Option<C>>,
    rec: StatsRecorder,
}

/// Internal verification error: carries the human-readable reason.
struct CertInvalid(String);

impl<'p, 'd, C: CylinderOps> Verifier<'p, 'd, C> {
    fn new(prog: &'p Program, db: &'d Database, ctx: CylCtx) -> Self {
        Verifier {
            prog,
            db,
            ctx,
            fix_values: vec![None; prog.fixes.len()],
            rec: StatsRecorder::new(),
        }
    }

    /// Verifies `cert` from the root and decides membership of `t`.
    fn run(
        mut self,
        cert: &AppCert,
        coords: &[usize],
        t: &[u32],
    ) -> Result<(VerifyOutcome, EvalStats), EvalError> {
        let out = self.verify_root(self.prog.root, cert, coords, t)?;
        Ok((out, self.rec.stats()))
    }

    fn verify_root(
        &mut self,
        root: NodeRef,
        cert: &AppCert,
        coords: &[usize],
        t: &[u32],
    ) -> Result<VerifyOutcome, EvalError> {
        let mut cursor = cert.certs.iter();
        let under = match self.verify_node(root, &mut cursor) {
            Ok(c) => c,
            Err(VerifyError::Invalid(CertInvalid(reason))) => {
                return Ok(VerifyOutcome::Invalid(reason))
            }
            Err(VerifyError::Eval(e)) => return Err(e),
        };
        if cursor.next().is_some() {
            return Ok(VerifyOutcome::Invalid(
                "certificate has extra entries".into(),
            ));
        }
        let member = under.to_relation(&self.ctx, coords).contains(t);
        Ok(VerifyOutcome::Valid { member })
    }

    fn verify_node(
        &mut self,
        node: NodeRef,
        cursor: &mut std::slice::Iter<'_, Certificate>,
    ) -> Result<C, VerifyError> {
        let out = match self.prog.nodes[node as usize].clone() {
            Node::Const(true) => C::full(&self.ctx),
            Node::Const(false) => C::empty(&self.ctx),
            Node::Eq(a, b) => eval_eq(&self.ctx, a, b)?,
            Node::Atom { source, args } => match source {
                AtomSource::Db(id) => load_atom(&self.ctx, self.db.relation(id), &args)?,
                AtomSource::External(_) => {
                    return Err(VerifyError::Eval(EvalError::UnsupportedConstruct(
                        "external relation variables cannot be certified",
                    )))
                }
                AtomSource::Fix(fix) => {
                    let map = fix_read_map(self.ctx.width(), &self.prog.fixes[fix].bound, &args)
                        .map_err(VerifyError::Eval)?;
                    match self.fix_values[fix].as_ref() {
                        Some(cur) => cur.preimage(&self.ctx, &map),
                        None => {
                            return Err(VerifyError::Invalid(CertInvalid(
                                "recursion variable read outside its fixpoint".into(),
                            )))
                        }
                    }
                }
            },
            Node::Not(g) => {
                // NNF guarantees no fixpoints below: plain evaluation.
                let mut c = self.verify_node(g, cursor)?;
                c.not(&self.ctx);
                c
            }
            Node::And(a, b) => {
                let mut ca = self.verify_node(a, cursor)?;
                let cb = self.verify_node(b, cursor)?;
                ca.and_with(&self.ctx, &cb);
                ca
            }
            Node::Or(a, b) => {
                let mut ca = self.verify_node(a, cursor)?;
                let cb = self.verify_node(b, cursor)?;
                ca.or_with(&self.ctx, &cb);
                ca
            }
            Node::Exists(v, g) => self.verify_node(g, cursor)?.exists(&self.ctx, v),
            Node::Forall(v, g) => self.verify_node(g, cursor)?.forall(&self.ctx, v),
            Node::Fix { fix } => {
                let cert = cursor.next().ok_or_else(|| {
                    VerifyError::Invalid(CertInvalid("missing fixpoint certificate".into()))
                })?;
                self.verify_fix(fix, cert)?
            }
        };
        Ok(out)
    }

    fn verify_fix(&mut self, fix: usize, cert: &Certificate) -> Result<C, VerifyError> {
        let info = self.prog.fixes[fix].clone();
        let invalid = |msg: &str| VerifyError::Invalid(CertInvalid(msg.to_string()));
        match (&info.kind, cert) {
            (FixKind::Gfp, Certificate::Gfp { witness, body }) => {
                let q: C = cyl_from_relation(&self.ctx, witness).map_err(VerifyError::Eval)?;
                self.fix_values[fix] = Some(q.clone());
                self.rec.iteration();
                let mut cursor = body.certs.iter();
                let body_val = self.verify_node(info.body, &mut cursor);
                self.fix_values[fix] = None;
                let body_val = body_val?;
                if cursor.next().is_some() {
                    return Err(invalid("extra inner certificates in ν body"));
                }
                if !q.is_subset(&self.ctx, &body_val) {
                    return Err(invalid("ν witness is not a post-fixpoint"));
                }
                let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)
                    .map_err(VerifyError::Eval)?;
                Ok(q.preimage(&self.ctx, &map))
            }
            (FixKind::Lfp, Certificate::Lfp { steps }) => {
                let mut prev = C::empty(&self.ctx);
                for step in steps {
                    let q: C =
                        cyl_from_relation(&self.ctx, &step.value).map_err(VerifyError::Eval)?;
                    self.fix_values[fix] = Some(prev.clone());
                    self.rec.iteration();
                    let mut cursor = step.body.certs.iter();
                    let body_val = self.verify_node(info.body, &mut cursor);
                    self.fix_values[fix] = None;
                    let body_val = body_val?;
                    if cursor.next().is_some() {
                        return Err(invalid("extra inner certificates in μ step"));
                    }
                    if !q.is_subset(&self.ctx, &body_val) {
                        return Err(invalid("μ chain step exceeds one body application"));
                    }
                    prev = q;
                }
                let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)
                    .map_err(VerifyError::Eval)?;
                Ok(prev.preimage(&self.ctx, &map))
            }
            _ => Err(invalid(
                "certificate kind does not match the fixpoint operator",
            )),
        }
    }
}

enum VerifyError {
    Invalid(CertInvalid),
    Eval(EvalError),
}

impl From<EvalError> for VerifyError {
    fn from(e: EvalError) -> Self {
        VerifyError::Eval(e)
    }
}

fn eval_eq<C: CylinderOps>(ctx: &CylCtx, a: Term, b: Term) -> Result<C, EvalError> {
    let n = ctx.domain_size();
    Ok(match (a, b) {
        (Term::Var(x), Term::Var(y)) => C::equality(ctx, x.index(), y.index()),
        (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
            if c as usize >= n {
                return Err(EvalError::ConstOutOfDomain(c));
            }
            C::const_eq(ctx, x.index(), c)
        }
        (Term::Const(c), Term::Const(d)) => {
            if c as usize >= n || d as usize >= n {
                return Err(EvalError::ConstOutOfDomain(c.max(d)));
            }
            if c == d {
                C::full(ctx)
            } else {
                C::empty(ctx)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::FpEvaluator;
    use bvq_logic::{patterns, Query, Var};
    use bvq_relation::Tuple;

    fn path_db() -> Database {
        Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .relation("P", 1, [[1u32], [3]])
            .build()
    }

    #[test]
    fn extracted_certificates_verify_and_agree_with_eval() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        let (exact, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(answer.sorted(), exact.sorted());
        for t in 0..5u32 {
            let (out, _) = checker.verify(&q, &cert, &[t]).unwrap();
            assert_eq!(
                out,
                VerifyOutcome::Valid {
                    member: exact.contains(&[t])
                },
                "t={t}"
            );
        }
    }

    #[test]
    fn decide_covers_both_sides() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (exact, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        for t in 0..5u32 {
            let (member, size, stats) = checker.decide(&q, &[t]).unwrap();
            assert_eq!(member, exact.contains(&[t]), "t={t}");
            assert!(size > 0 || !member);
            assert!(stats.fixpoint_iterations > 0);
        }
    }

    #[test]
    fn alternating_fixpoints_certify() {
        // The fairness sentence on a cycle: false with P empty, true with
        // P everywhere.
        let empty_p = Database::builder(2)
            .relation("E", 2, [[0u32, 1], [1, 0]])
            .relation("P", 1, Vec::<[u32; 1]>::new())
            .build();
        let q = Query::sentence(patterns::fairness(Term::Const(0)));
        let checker = CertifiedChecker::new(&empty_p, 3);
        let (member, _, _) = checker.decide(&q, &[]).unwrap();
        assert!(!member);

        let full_p = Database::builder(2)
            .relation("E", 2, [[0u32, 1], [1, 0]])
            .relation("P", 1, [[0u32], [1]])
            .build();
        let checker2 = CertifiedChecker::new(&full_p, 3);
        let (member2, size, stats) = checker2.decide(&q, &[]).unwrap();
        assert!(member2);
        assert!(size > 0);
        assert!(stats.fixpoint_iterations > 0);
    }

    #[test]
    fn corrupted_witness_is_rejected() {
        // Inflate a ν witness with a tuple outside the true gfp: the
        // post-fixpoint check must fail.
        let db = path_db();
        // Nodes with an infinite outgoing path: none on a finite path.
        let q =
            bvq_logic::parser::parse_query("(x1) [gfp S(x1). exists x2. (E(x1,x2) & S(x2))](x1)")
                .unwrap();
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        assert!(answer.is_empty());
        // Forge: claim node 0 is in the gfp.
        let mut forged = cert.clone();
        if let Certificate::Gfp { witness, .. } = &mut forged.certs[0] {
            // The witness is a k-ary cylinder: add all points with x1 = 0.
            for b in 0..5u32 {
                witness.insert(Tuple::from_slice(&[0, b]));
            }
        } else {
            panic!("expected a ν certificate");
        }
        let (out, _) = checker.verify(&q, &forged, &[0]).unwrap();
        assert!(
            matches!(out, VerifyOutcome::Invalid(_)),
            "forged witness accepted: {out:?}"
        );
    }

    #[test]
    fn corrupted_chain_is_rejected() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, _) = checker.extract(&q).unwrap();
        // Forge: claim the unreachable node 4 appears in the first step.
        let mut forged = cert.clone();
        if let Certificate::Lfp { steps } = &mut forged.certs[0] {
            for b in 0..5u32 {
                steps[0].value.insert(Tuple::from_slice(&[4, b]));
            }
        } else {
            panic!("expected a μ certificate");
        }
        let (out, _) = checker.verify(&q, &forged, &[4]).unwrap();
        assert!(
            matches!(out, VerifyOutcome::Invalid(_)),
            "forged chain accepted: {out:?}"
        );
    }

    #[test]
    fn shrunken_certificate_stays_sound() {
        // Removing chain steps keeps the certificate valid (it is still an
        // under-approximation) but may lose members — soundness intact.
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (cert, _) = checker.extract(&q).unwrap();
        let mut shrunk = cert.clone();
        if let Certificate::Lfp { steps } = &mut shrunk.certs[0] {
            steps.truncate(1);
        }
        let (out0, _) = checker.verify(&q, &shrunk, &[0]).unwrap();
        assert_eq!(
            out0,
            VerifyOutcome::Valid { member: true },
            "0 enters at step 1"
        );
        let (out3, _) = checker.verify(&q, &shrunk, &[3]).unwrap();
        assert_eq!(
            out3,
            VerifyOutcome::Valid { member: false },
            "3 needs more steps"
        );
    }

    #[test]
    fn certificate_size_is_polynomial() {
        // Chain length ≤ n (reachability adds ≥ 1 node per step), each
        // step ≤ n^k tuples.
        let n = 8u32;
        let edges: Vec<[u32; 2]> = (0..n - 1).map(|i| [i, i + 1]).collect();
        let db = Database::builder(n as usize)
            .relation("E", 2, edges)
            .build();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let (cert, _) = CertifiedChecker::new(&db, 2).extract(&q).unwrap();
        let nk = (n as usize).pow(2);
        assert!(
            cert.size_tuples() <= (n as usize + 1) * nk,
            "certificate too large: {} tuples",
            cert.size_tuples()
        );
    }

    #[test]
    fn wrong_kind_certificate_rejected() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let forged = AppCert {
            certs: vec![Certificate::Gfp {
                witness: Relation::full(2, 5),
                body: AppCert::default(),
            }],
        };
        let (out, _) = checker.verify(&q, &forged, &[0]).unwrap();
        assert!(matches!(out, VerifyOutcome::Invalid(_)));
    }

    #[test]
    fn missing_certificate_rejected() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = CertifiedChecker::new(&db, 2);
        let (out, _) = checker.verify(&q, &AppCert::default(), &[0]).unwrap();
        assert!(matches!(out, VerifyOutcome::Invalid(_)));
    }
}
