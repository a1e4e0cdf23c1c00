//! Trace certificates — the paper's `l·n^k` form of Theorem 3.5.
//!
//! The nested certificates of [`cert`](crate::cert) re-certify inner
//! fixpoints per enclosing chain step; for μ-above-ν-above-μ nestings this
//! multiplies chain lengths. The proof of Theorem 3.5 avoids that with
//! **globally shared, monotonically growing** approximation sequences: one
//! chain per μ operator and one growing witness sequence per ν operator,
//! interleaved so that every local condition is checked by a *single*
//! operator application — `l·n^k` applications in total.
//!
//! A [`TraceCertificate`] is exactly that interleaving, as a flat event
//! sequence:
//!
//! * `Step { fix, value }` (μ): check `value ⊇ current` and
//!   `value ⊆ body(env)` (one application, the μ variable still holding
//!   its previous value), then advance `env[fix] := value`;
//! * `Witness { fix, value }` (ν): check `value ⊇ current`, set
//!   `env[fix] := value` *provisionally* and push it on a pending stack;
//! * `Check { fix }` (ν): pop (stack discipline enforced) and verify the
//!   post-fixpoint condition `env[fix] ⊆ body(env)` (one application).
//!
//! Soundness rests on two replay invariants the verifier enforces: the
//! environment only *grows* (so every earlier subset claim remains valid
//! against the final environment — all operators are positive after NNF),
//! and ν checks close innermost-first. Given those, induction over events
//! shows every `env[f]` is an under-approximation of `f`'s fixpoint at the
//! final environment, so evaluating the root formula with fixpoint atoms
//! *read off the environment* under-approximates the true answer.
//! Completeness holds because the extractor records an Emerson–Lei-style
//! run whose environment is monotone by construction.

use bvq_logic::{FixKind, Query, Term};
use bvq_relation::backend::{choose, BackendKind, BackendMode, BddCylinder, DenseCylinder};
use bvq_relation::{CylCtx, CylinderOps, Database, EvalStats, Relation, StatsRecorder};

use crate::cert::VerifyOutcome;
use crate::fp::{fix_read_map, load_atom, Engine, FpStrategy};
use crate::ir::{self, AtomSource, CompileOpts, Node, NodeRef, Program};
use crate::EvalError;

/// One event of a trace certificate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A μ chain step: the fixpoint's next (grown) value.
    Step {
        /// Which fixpoint (pre-order index of its operator).
        fix: usize,
        /// The new chain value, as a `k`-ary cylinder relation.
        value: Relation,
    },
    /// A ν witness: a claimed post-fixpoint, validated by the matching
    /// [`TraceEvent::Check`].
    Witness {
        /// Which fixpoint.
        fix: usize,
        /// The claimed witness.
        value: Relation,
    },
    /// Closes the most recent open [`TraceEvent::Witness`] for `fix`.
    Check {
        /// Which fixpoint.
        fix: usize,
    },
}

/// A Theorem 3.5 certificate in the paper's shared-sequence form.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceCertificate {
    /// The event sequence.
    pub events: Vec<TraceEvent>,
}

impl TraceCertificate {
    /// Number of events — the `l·n^k` quantity (each event costs one
    /// operator application to verify).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty (first-order query).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total tuples stored.
    pub fn size_tuples(&self) -> usize {
        self.events
            .iter()
            .map(|e| match e {
                TraceEvent::Step { value, .. } | TraceEvent::Witness { value, .. } => value.len(),
                TraceEvent::Check { .. } => 0,
            })
            .sum()
    }
}

/// Extraction and verification of trace certificates.
pub struct TraceChecker<'d> {
    db: &'d Database,
    k: usize,
}

impl<'d> TraceChecker<'d> {
    /// Creates a checker with variable bound `k`.
    pub fn new(db: &'d Database, k: usize) -> Self {
        TraceChecker { db, k }
    }

    fn prepare(&self, q: &Query) -> Result<(Program, CylCtx), EvalError> {
        let nnf = q.formula.nnf().map_err(|_| {
            EvalError::UnsupportedConstruct("PFP/IFP operators cannot be certified")
        })?;
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
        Ok((prog, CylCtx::new(self.db.domain_size(), self.k.max(1))))
    }

    /// Extracts a trace certificate and the exact answer relation.
    pub fn extract(&self, q: &Query) -> Result<(TraceCertificate, Relation), EvalError> {
        let (prog, ctx) = self.prepare(q)?;
        let coords: Vec<usize> = q.output.iter().map(|v| v.index()).collect();
        match choose(&ctx, BackendMode::Auto) {
            BackendKind::Dense => extract_impl::<DenseCylinder>(&prog, self.db, &ctx, &coords),
            BackendKind::Bdd => extract_impl::<BddCylinder>(&prog, self.db, &ctx, &coords),
        }
    }

    /// Verifies a trace and decides membership of `t`. One operator
    /// application per event, plus one closing root evaluation.
    pub fn verify(
        &self,
        q: &Query,
        cert: &TraceCertificate,
        t: &[u32],
    ) -> Result<(VerifyOutcome, EvalStats), EvalError> {
        if t.len() != q.output.len() {
            return Ok((VerifyOutcome::Valid { member: false }, EvalStats::new()));
        }
        let (prog, ctx) = self.prepare(q)?;
        let coords: Vec<usize> = q.output.iter().map(|v| v.index()).collect();
        match choose(&ctx, BackendMode::Auto) {
            BackendKind::Dense => {
                verify_impl::<DenseCylinder>(&prog, self.db, &ctx, cert, &coords, t)
            }
            BackendKind::Bdd => verify_impl::<BddCylinder>(&prog, self.db, &ctx, cert, &coords, t),
        }
    }
}

// ---------------------------------------------------------------------
// Extraction
// ---------------------------------------------------------------------

struct TraceExtractor<'p, 'd, C: CylinderOps> {
    prog: &'p Program,
    db: &'d Database,
    ctx: CylCtx,
    /// The *recorded* environment (what the verifier will reconstruct).
    env: Vec<Option<C>>,
    events: Vec<TraceEvent>,
}

fn extract_impl<C: CylinderOps>(
    prog: &Program,
    db: &Database,
    ctx: &CylCtx,
    coords: &[usize],
) -> Result<(TraceCertificate, Relation), EvalError> {
    let mut ex = TraceExtractor::<C> {
        prog,
        db,
        ctx: ctx.clone(),
        env: vec![None; prog.fixes.len()],
        events: Vec::new(),
    };
    let c = ex.record(prog.root)?;
    Ok((
        TraceCertificate { events: ex.events },
        c.to_relation(ctx, coords),
    ))
}

impl<C: CylinderOps> TraceExtractor<'_, '_, C> {
    fn all_coords(&self) -> Vec<usize> {
        (0..self.ctx.width()).collect()
    }

    /// Recorded evaluation: brings every fixpoint under `node` up to date
    /// in the recorded environment (emitting events) and returns the
    /// node's value read from it.
    fn record(&mut self, node: NodeRef) -> Result<C, EvalError> {
        match self.prog.nodes[node as usize].clone() {
            Node::Const(true) => Ok(C::full(&self.ctx)),
            Node::Const(false) => Ok(C::empty(&self.ctx)),
            Node::Eq(a, b) => eval_eq(&self.ctx, a, b),
            Node::Atom { source, args } => self.read_atom(&source, &args),
            Node::Not(g) => {
                let mut c = self.record(g)?;
                c.not(&self.ctx);
                Ok(c)
            }
            Node::And(a, b) => {
                let mut ca = self.record(a)?;
                let cb = self.record(b)?;
                ca.and_with(&self.ctx, &cb);
                Ok(ca)
            }
            Node::Or(a, b) => {
                let mut ca = self.record(a)?;
                let cb = self.record(b)?;
                ca.or_with(&self.ctx, &cb);
                Ok(ca)
            }
            Node::Exists(v, g) => Ok(self.record(g)?.exists(&self.ctx, v)),
            Node::Forall(v, g) => Ok(self.record(g)?.forall(&self.ctx, v)),
            Node::Fix { fix } => {
                let info = self.prog.fixes[fix].clone();
                match info.kind {
                    FixKind::Lfp => {
                        // Extend the global chain from its recorded value.
                        let mut cur = self.env[fix].clone().unwrap_or_else(|| C::empty(&self.ctx));
                        loop {
                            self.env[fix] = Some(cur.clone());
                            let next = self.record(info.body)?;
                            if next == cur {
                                break;
                            }
                            self.events.push(TraceEvent::Step {
                                fix,
                                value: next.to_relation(&self.ctx, &self.all_coords()),
                            });
                            cur = next;
                        }
                        self.env[fix] = Some(cur.clone());
                        let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
                        Ok(cur.preimage(&self.ctx, &map))
                    }
                    FixKind::Gfp => {
                        // Compute the exact gfp silently, then witness it
                        // and record one body application.
                        let w = {
                            // Shadow evaluation of the whole Fix node:
                            // compute the fixpoint cylinder.
                            let mut engine = Engine::<C>::new(
                                self.prog,
                                self.db,
                                self.ctx.clone(),
                                Vec::new(),
                                FpStrategy::Naive,
                                false,
                            );
                            engine.fix_values = self.env.clone();
                            engine.compute_fix(fix)?
                        };
                        // Unchanged witness: the earlier Witness/Check pair
                        // still covers it (the environment only grew).
                        if self.env[fix].as_ref() == Some(&w) {
                            let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
                            return Ok(w.preimage(&self.ctx, &map));
                        }
                        self.events.push(TraceEvent::Witness {
                            fix,
                            value: w.to_relation(&self.ctx, &self.all_coords()),
                        });
                        self.env[fix] = Some(w.clone());
                        let body_val = self.record(info.body)?;
                        debug_assert!(w.is_subset(&self.ctx, &body_val));
                        self.events.push(TraceEvent::Check { fix });
                        let map = fix_read_map(self.ctx.width(), &info.bound, &info.args)?;
                        Ok(w.preimage(&self.ctx, &map))
                    }
                    FixKind::Pfp | FixKind::Ifp => Err(EvalError::UnsupportedConstruct(
                        "PFP/IFP operators cannot be certified",
                    )),
                }
            }
        }
    }

    fn read_atom(&mut self, source: &AtomSource, args: &[Term]) -> Result<C, EvalError> {
        match source {
            AtomSource::Db(id) => load_atom(&self.ctx, self.db.relation(*id), args),
            AtomSource::External(_) => Err(EvalError::UnsupportedConstruct(
                "external relation variables cannot be certified",
            )),
            AtomSource::Fix(fix) => {
                let map = fix_read_map(self.ctx.width(), &self.prog.fixes[*fix].bound, args)?;
                let cur = self.env[*fix]
                    .clone()
                    .unwrap_or_else(|| C::empty(&self.ctx));
                Ok(cur.preimage(&self.ctx, &map))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Verification
// ---------------------------------------------------------------------

fn verify_impl<C: CylinderOps>(
    prog: &Program,
    db: &Database,
    ctx: &CylCtx,
    cert: &TraceCertificate,
    coords: &[usize],
    t: &[u32],
) -> Result<(VerifyOutcome, EvalStats), EvalError> {
    let mut env: Vec<Option<C>> = vec![None; prog.fixes.len()];
    let mut pending: Vec<usize> = Vec::new();
    let mut rec = StatsRecorder::new();
    let invalid = |msg: String| Ok((VerifyOutcome::Invalid(msg), EvalStats::new()));

    let k = ctx.width();
    let all_coords: Vec<usize> = (0..k).collect();
    for (i, ev) in cert.events.iter().enumerate() {
        match ev {
            TraceEvent::Step { fix, value } => {
                let Some(info) = prog.fixes.get(*fix) else {
                    return invalid(format!("event {i}: unknown fixpoint {fix}"));
                };
                if info.kind != FixKind::Lfp {
                    return invalid(format!("event {i}: Step on a non-μ operator"));
                }
                if value.arity() != k {
                    return invalid(format!("event {i}: wrong cylinder arity"));
                }
                let v: C = C::from_atom(ctx, value, &all_coords);
                // Monotone growth.
                if let Some(old) = &env[*fix] {
                    if !old.is_subset(ctx, &v) {
                        return invalid(format!("event {i}: μ chain not increasing"));
                    }
                }
                rec.iteration();
                let body_val = eval_env(prog, db, ctx, &env, info.body, &mut rec)?;
                if !v.is_subset(ctx, &body_val) {
                    return invalid(format!("event {i}: μ step exceeds one body application"));
                }
                env[*fix] = Some(v);
            }
            TraceEvent::Witness { fix, value } => {
                let Some(info) = prog.fixes.get(*fix) else {
                    return invalid(format!("event {i}: unknown fixpoint {fix}"));
                };
                if info.kind != FixKind::Gfp {
                    return invalid(format!("event {i}: Witness on a non-ν operator"));
                }
                if value.arity() != k {
                    return invalid(format!("event {i}: wrong cylinder arity"));
                }
                let v: C = C::from_atom(ctx, value, &all_coords);
                if let Some(old) = &env[*fix] {
                    if !old.is_subset(ctx, &v) {
                        return invalid(format!("event {i}: ν witnesses not increasing"));
                    }
                }
                env[*fix] = Some(v);
                pending.push(*fix);
            }
            TraceEvent::Check { fix } => {
                if pending.pop() != Some(*fix) {
                    return invalid(format!("event {i}: ν checks must close innermost-first"));
                }
                let info = &prog.fixes[*fix];
                rec.iteration();
                let body_val = eval_env(prog, db, ctx, &env, info.body, &mut rec)?;
                let w = env[*fix].as_ref().expect("witness set");
                if !w.is_subset(ctx, &body_val) {
                    return invalid(format!("event {i}: ν witness is not a post-fixpoint"));
                }
            }
        }
    }
    if !pending.is_empty() {
        return invalid("unchecked ν witnesses remain".to_string());
    }
    // Closing root evaluation with fixpoint atoms read off the environment.
    let root_val = eval_env(prog, db, ctx, &env, prog.root, &mut rec)?;
    let member = root_val.to_relation(ctx, coords).contains(t);
    Ok((VerifyOutcome::Valid { member }, rec.stats()))
}

/// One application: evaluates `node` with every fixpoint *atom and
/// operator* read from the environment (no iteration whatsoever).
fn eval_env<C: CylinderOps>(
    prog: &Program,
    db: &Database,
    ctx: &CylCtx,
    env: &[Option<C>],
    node: NodeRef,
    rec: &mut StatsRecorder,
) -> Result<C, EvalError> {
    let out = match prog.nodes[node as usize].clone() {
        Node::Const(true) => C::full(ctx),
        Node::Const(false) => C::empty(ctx),
        Node::Eq(a, b) => eval_eq(ctx, a, b)?,
        Node::Atom { source, args } => match source {
            AtomSource::Db(id) => load_atom(ctx, db.relation(id), &args)?,
            AtomSource::External(_) => {
                return Err(EvalError::UnsupportedConstruct(
                    "external relation variables cannot be certified",
                ))
            }
            AtomSource::Fix(fix) => {
                let map = fix_read_map(ctx.width(), &prog.fixes[fix].bound, &args)?;
                match &env[fix] {
                    Some(v) => v.preimage(ctx, &map),
                    None => C::empty(ctx).preimage(ctx, &map),
                }
            }
        },
        Node::Not(g) => {
            let mut c = eval_env(prog, db, ctx, env, g, rec)?;
            c.not(ctx);
            c
        }
        Node::And(a, b) => {
            let mut ca = eval_env(prog, db, ctx, env, a, rec)?;
            let cb = eval_env(prog, db, ctx, env, b, rec)?;
            ca.and_with(ctx, &cb);
            ca
        }
        Node::Or(a, b) => {
            let mut ca = eval_env(prog, db, ctx, env, a, rec)?;
            let cb = eval_env(prog, db, ctx, env, b, rec)?;
            ca.or_with(ctx, &cb);
            ca
        }
        Node::Exists(v, g) => eval_env(prog, db, ctx, env, g, rec)?.exists(ctx, v),
        Node::Forall(v, g) => eval_env(prog, db, ctx, env, g, rec)?.forall(ctx, v),
        Node::Fix { fix } => {
            // Read the operator's recorded value — never iterate.
            let info = &prog.fixes[fix];
            let map = fix_read_map(ctx.width(), &info.bound, &info.args)?;
            match &env[fix] {
                Some(v) => v.preimage(ctx, &map),
                None => C::empty(ctx).preimage(ctx, &map),
            }
        }
    };
    if rec.is_enabled() {
        let count = out.count(ctx);
        rec.intermediate(ctx.width(), count);
    }
    Ok(out)
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
    use bvq_logic::{patterns, Formula, Query, Var};
    use bvq_relation::Tuple;

    fn path_db() -> Database {
        Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .relation("P", 1, [[1u32], [3]])
            .build()
    }

    #[test]
    fn extract_verify_roundtrip() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = TraceChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        let (exact, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(answer.sorted(), exact.sorted());
        assert!(!cert.is_empty());
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
    fn alternating_fixpoints_trace() {
        // The fairness sentence (μ outer, ν inner) across structures.
        for (edges, p, expected) in [
            (vec![[0u32, 1], [1, 0]], vec![], false),
            (vec![[0u32, 1], [1, 0]], vec![[0u32], [1]], true),
            (vec![[0u32, 1], [1, 2]], vec![], true), // finite paths only
        ] {
            let db = Database::builder(3)
                .relation("E", 2, edges.clone())
                .relation("P", 1, p.clone())
                .build();
            let q = Query::sentence(patterns::fairness(Term::Const(0)));
            let checker = TraceChecker::new(&db, 3);
            let (cert, answer) = checker.extract(&q).unwrap();
            assert_eq!(answer.as_boolean(), expected, "edges {edges:?} p {p:?}");
            let (out, _) = checker.verify(&q, &cert, &[]).unwrap();
            assert_eq!(out, VerifyOutcome::Valid { member: expected });
        }
    }

    /// μ-above-ν-above-μ over a path of length `n`, engineered so that the
    /// outer μ chain has Θ(n) steps *and* each body application contains a
    /// nested μ whose own chain has Θ(n) steps. The nested certificate
    /// re-records the inner chain per outer step (Θ(n²) work); the trace
    /// records it once and skips the unchanged re-visits (Θ(n)).
    fn mu_nu_mu_formula() -> Formula {
        let x1 = Term::Var(Var(0));
        let x2 = Term::Var(Var(1));
        // Inner: C = nodes reachable from 0 (an n-step chain, independent
        // of A), guarded by a trivial ν for the μνμ shape.
        let body_c = Formula::Eq(x1, Term::Const(0)).or(Formula::rel_var("C", [x2])
            .and(Formula::atom("E", [x2, x1]))
            .exists(Var(1)));
        let mu_c = Formula::lfp("C", vec![Var(0)], body_c, vec![x1]);
        let body_b = Formula::rel_var("B", [x1]).and(mu_c);
        let nu_b = Formula::gfp("B", vec![Var(0)], body_b, vec![x1]);
        // Outer: A also walks the path one node per step — Θ(n) steps —
        // and each step's body contains the nested ν/μ.
        let body_a = nu_b.and(
            Formula::Eq(x1, Term::Const(0)).or(Formula::rel_var("A", [x2])
                .and(Formula::atom("E", [x2, x1]))
                .exists(Var(1))),
        );
        Formula::lfp("A", vec![Var(0)], body_a, vec![x1])
    }

    #[test]
    fn trace_beats_nested_on_mu_over_nu_over_mu() {
        let f = mu_nu_mu_formula();
        assert!(f.validate_fp().is_ok());
        let n = 12u32;
        let db = Database::builder(n as usize)
            .relation("E", 2, (0..n - 1).map(|i| [i, i + 1]))
            .relation("P", 1, [[0u32]])
            .build();
        let q = Query::new(vec![Var(0)], f);

        let trace_checker = TraceChecker::new(&db, 2);
        let (trace, ta) = trace_checker.extract(&q).unwrap();
        let nested_checker = crate::cert::CertifiedChecker::new(&db, 2);
        let (nested, na) = nested_checker.extract(&q).unwrap();
        assert_eq!(
            ta.sorted(),
            na.sorted(),
            "both extractors agree on the answer"
        );
        let (exact, _) = FpEvaluator::new(&db, 2).eval_query(&q).unwrap();
        assert_eq!(ta.sorted(), exact.sorted());

        // Both verify correctly; the trace needs fewer body applications.
        let (out_t, st) = trace_checker.verify(&q, &trace, &[n - 1]).unwrap();
        let (out_n, sn) = nested_checker.verify(&q, &nested, &[n - 1]).unwrap();
        assert_eq!(
            out_t,
            VerifyOutcome::Valid {
                member: exact.contains(&[n - 1])
            }
        );
        assert_eq!(out_n, out_t);
        assert!(
            st.fixpoint_iterations < sn.fixpoint_iterations,
            "trace {} applications ≥ nested {}",
            st.fixpoint_iterations,
            sn.fixpoint_iterations
        );
        assert!(
            trace.size_tuples() < nested.size_tuples(),
            "trace {} tuples ≥ nested {}",
            trace.size_tuples(),
            nested.size_tuples()
        );
    }

    #[test]
    fn forged_step_rejected() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = TraceChecker::new(&db, 2);
        let (cert, _) = checker.extract(&q).unwrap();
        // Claim node 4 (unreachable) in the first step.
        let mut forged = cert.clone();
        if let TraceEvent::Step { value, .. } = &mut forged.events[0] {
            for b in 0..5u32 {
                value.insert(Tuple::from_slice(&[4, b]));
            }
        } else {
            panic!("expected a Step first");
        }
        let (out, _) = checker.verify(&q, &forged, &[4]).unwrap();
        assert!(matches!(out, VerifyOutcome::Invalid(_)), "{out:?}");
    }

    #[test]
    fn decreasing_chain_rejected() {
        let db = path_db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        let checker = TraceChecker::new(&db, 2);
        let (cert, _) = checker.extract(&q).unwrap();
        assert!(cert.events.len() >= 2, "need at least two steps");
        // Swap the first two steps: the chain is no longer increasing (or
        // the step check fails) — either way, Invalid.
        let mut forged = cert.clone();
        forged.events.swap(0, 1);
        let (out, _) = checker.verify(&q, &forged, &[0]).unwrap();
        assert!(matches!(out, VerifyOutcome::Invalid(_)), "{out:?}");
    }

    #[test]
    fn unchecked_witness_rejected() {
        let db = Database::builder(3)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 0]])
            .build();
        let q =
            bvq_logic::parser::parse_query("(x1) [gfp S(x1). exists x2. (E(x1,x2) & S(x2))](x1)")
                .unwrap();
        let checker = TraceChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        assert_eq!(answer.len(), 3, "the cycle has infinite paths everywhere");
        // Drop the Check event: must be rejected.
        let mut forged = cert.clone();
        forged
            .events
            .retain(|e| !matches!(e, TraceEvent::Check { .. }));
        let (out, _) = checker.verify(&q, &forged, &[0]).unwrap();
        assert!(matches!(out, VerifyOutcome::Invalid(_)));
        // And the original verifies.
        let (ok, _) = checker.verify(&q, &cert, &[0]).unwrap();
        assert_eq!(ok, VerifyOutcome::Valid { member: true });
    }

    #[test]
    fn fo_query_has_empty_trace() {
        let db = path_db();
        let q = bvq_logic::parser::parse_query("(x1) exists x2. E(x1,x2)").unwrap();
        let checker = TraceChecker::new(&db, 2);
        let (cert, answer) = checker.extract(&q).unwrap();
        assert!(cert.is_empty());
        let (out, _) = checker.verify(&q, &cert, &[0]).unwrap();
        assert_eq!(
            out,
            VerifyOutcome::Valid {
                member: answer.contains(&[0])
            }
        );
    }
}
