//! Seminaive μ rounds: the derivative `d(φ, S, ΔS)` of a fixpoint body,
//! and the one round loop that both the interpreting
//! [`Engine`](crate::fp::Engine) and the bytecode executor call.
//!
//! Kleene iteration re-applies the body of `[lfp S(x̄). φ]` to all `n^k`
//! points every round, although only the tuples the previous round added
//! can derive anything new. For a body built from `∧`, `∨` and `∃` over
//! reads of `S` and `S`-free subformulas,
//!
//! ```text
//! φ(S ∪ ΔS) = φ(S) ∪ d(φ, S, ΔS)
//! ```
//!
//! holds exactly, with
//!
//! * `d(A ∧ B) = dA ∧ B' ∪ A ∧ dB`, where `A` reads the old `S` and `B'`
//!   reads the new `S' = S ∪ ΔS`;
//! * `d(A ∨ B) = dA ∪ dB` and `d(∃v A) = ∃v dA`;
//! * `d(S(t̄)) = ΔS(p̄, t̄)`, where `p̄` are the fixpoint's parameters;
//! * `d(A) = ⊥` when `A` does not read `S`.
//!
//! `datalog::delta` is the rule-level counterpart. Because the identity is
//! an equality, the seminaive stages are the Kleene stages
//! `Sᵢ₊₁ = Sᵢ ∪ d(φ, Sᵢ₋₁, Sᵢ ∖ Sᵢ₋₁)`: round counts, round spans,
//! deadline checks and answers do not change, only what a round costs.
//!
//! A fixpoint value is a cylinder read through its argument terms with
//! every other coordinate passed through, so a parameterised fixpoint is
//! a relation over its parameters `p̄` and its bound variables `x̄`; the
//! reads `ΔS(p̄, t̄)` carry that pass-through explicitly, and a quantifier
//! inside the body that rebinds a parameter rebinds it in the read too,
//! exactly as the cylinder preimage does.
//!
//! Eligibility ([`plan`]) is decided once, in `ir::compile`. Round 1 runs
//! the body on the engine's cylinders as before; later rounds
//! ([`run_rounds`]) evaluate the derivative relationally with the
//! [`NaiveEvaluator`], and the fixpoint cylinder is built once, at exit.
//! Since the stages are the Kleene stages, a recording run writes each
//! round's new tuples as that round's certificate trace step.

use bvq_logic::{Atom, FixKind, Formula, Query, RelRef, Term, Var};
use bvq_relation::{CylCtx, CylinderOps, Database, EvalConfig};

use crate::certgen::TraceRecorder;
use crate::env::RelEnv;
use crate::fo::NaiveEvaluator;
use crate::ir::FixId;
use crate::EvalError;

/// The relation variable a derivative reads for the previous stage.
const OLD: &str = "S";
/// … for the tuples the last round added.
const DELTA: &str = "ΔS";
/// … for the current stage, `S ∪ ΔS`.
const NEW: &str = "S'";

/// Why a fixpoint keeps naive rounds (the whole body every round).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Ineligible {
    /// Not a least fixpoint: `gfp` stages shrink, and `PFP`/`IFP` bodies
    /// need not be monotone.
    NotLfp,
    /// The body contains another fixpoint operator.
    NestedFixpoint,
    /// The body reads a relation variable other than its own: an
    /// enclosing recursion variable or an external.
    ReadsOtherRelVar,
    /// The recursion variable occurs under a negation.
    UnderNegation,
    /// The recursion variable occurs under a universal quantifier.
    UnderForall,
}

/// A fixpoint that runs seminaive rounds.
#[derive(Clone, Debug)]
pub(crate) struct Seminaive {
    /// Coordinates of the tuple set that holds `S`: the parameters
    /// (ascending), then the bound coordinates in binder order.
    columns: Vec<usize>,
    /// `d(body, S, ΔS)` as a query over `columns`, its `S`-free leaves
    /// hoisted into `leaves`; `None` when the body does not read `S`.
    derivative: Option<Query>,
    /// Maximal `S`-free subformulas of the derivative, each bound under
    /// its name once per loop entry.
    leaves: Vec<(String, Query)>,
    /// Whether the derivative reads the old stage (a body that reads `S`
    /// twice in one conjunction); otherwise it is never kept.
    reads_old: bool,
    /// The largest constant among the arguments of `S`'s reads. The
    /// cylinder reads such a point as empty where the relational one
    /// fails, so domains that do not contain it keep naive rounds.
    max_read_const: Option<u32>,
}

/// Decides whether `[kind rel(bound). body]` runs seminaive rounds and,
/// if so, derives its round plan.
pub(crate) fn plan(
    kind: FixKind,
    rel: &str,
    bound: &[Var],
    body: &Formula,
) -> Result<Seminaive, Ineligible> {
    if kind != FixKind::Lfp {
        return Err(Ineligible::NotLfp);
    }
    check(body, rel, None)?;
    let params: Vec<Var> = body
        .free_vars()
        .into_iter()
        .filter(|v| !bound.contains(v))
        .collect();
    let columns: Vec<usize> = params.iter().chain(bound).map(|v| v.index()).collect();
    let mut leaves = Vec::new();
    let derivative = derivative(body, rel, &params).map(|d| {
        let output = columns.iter().map(|&c| Var(c as u32)).collect();
        Query::new(output, hoist(d, &mut leaves))
    });
    let reads_old = derivative.as_ref().is_some_and(|q| reads(&q.formula, OLD));
    let mut max_read_const = None;
    body.visit(&mut |f| {
        if let Formula::Atom(Atom { args, .. }) = f {
            if is_read(f, rel) {
                for t in args {
                    if let Term::Const(c) = t {
                        max_read_const = max_read_const.max(Some(*c));
                    }
                }
            }
        }
    });
    Ok(Seminaive {
        columns,
        derivative,
        leaves,
        reads_old,
        max_read_const,
    })
}

/// Walks `f`, failing on the first shape that rules seminaive rounds
/// out. `under` is the enclosing `¬`/`∀`, if any.
fn check(f: &Formula, s: &str, under: Option<Ineligible>) -> Result<(), Ineligible> {
    match f {
        Formula::Const(_) | Formula::Eq(..) => Ok(()),
        Formula::Atom(Atom { rel, .. }) => match rel {
            RelRef::Db(_) => Ok(()),
            RelRef::Bound(n) if n == s => under.map_or(Ok(()), Err),
            RelRef::Bound(_) => Err(Ineligible::ReadsOtherRelVar),
        },
        Formula::Not(g) => check(g, s, under.or(Some(Ineligible::UnderNegation))),
        Formula::Forall(_, g) => check(g, s, under.or(Some(Ineligible::UnderForall))),
        Formula::Exists(_, g) => check(g, s, under),
        Formula::And(a, b) | Formula::Or(a, b) => {
            check(a, s, under)?;
            check(b, s, under)
        }
        Formula::Fix { .. } => Err(Ineligible::NestedFixpoint),
    }
}

/// `d(body, S, ΔS)` (see the module docs), simplified, with the reads of
/// `S` renamed to the old, delta and new stages and `params` prepended.
/// `None` is ⊥: the body does not read `S`. The body must pass [`plan`]'s
/// eligibility check.
fn derivative(body: &Formula, s: &str, params: &[Var]) -> Option<Formula> {
    d(body, s, params)
        .map(|f| f.simplify())
        .filter(|f| *f != Formula::ff())
}

fn d(f: &Formula, s: &str, params: &[Var]) -> Option<Formula> {
    if !reads(f, s) {
        return None;
    }
    match f {
        Formula::Atom(Atom { args, .. }) => Some(read(DELTA, params, args)),
        Formula::And(a, b) => {
            let left = d(a, s, params).map(|da| da.and(rename(b, s, NEW, params)));
            let right = d(b, s, params).map(|db| rename(a, s, OLD, params).and(db));
            union(left, right)
        }
        Formula::Or(a, b) => union(d(a, s, params), d(b, s, params)),
        Formula::Exists(v, g) => d(g, s, params).map(|g| g.exists(*v)),
        _ => unreachable!("reads under ¬, ∀ or a nested fixpoint are ineligible"),
    }
}

fn union(a: Option<Formula>, b: Option<Formula>) -> Option<Formula> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.or(b)),
        (a, b) => a.or(b),
    }
}

/// The read `stage(p̄, t̄)`.
fn read(stage: &str, params: &[Var], args: &[Term]) -> Formula {
    let args = params
        .iter()
        .map(|&v| Term::Var(v))
        .chain(args.iter().copied());
    Formula::rel_var(stage, args)
}

fn is_read(f: &Formula, s: &str) -> bool {
    matches!(f, Formula::Atom(Atom { rel: RelRef::Bound(n), .. }) if n == s)
}

fn reads(f: &Formula, s: &str) -> bool {
    let mut found = false;
    f.visit(&mut |g| found |= is_read(g, s));
    found
}

/// `f` with every read `S(t̄)` replaced by `stage(p̄, t̄)`.
fn rename(f: &Formula, s: &str, stage: &str, params: &[Var]) -> Formula {
    let go = |g: &Formula| Box::new(rename(g, s, stage, params));
    match f {
        Formula::Atom(Atom { args, .. }) if is_read(f, s) => read(stage, params, args),
        Formula::Const(_) | Formula::Eq(..) | Formula::Atom(_) | Formula::Fix { .. } => f.clone(),
        Formula::Not(g) => Formula::Not(go(g)),
        Formula::And(a, b) => Formula::And(go(a), go(b)),
        Formula::Or(a, b) => Formula::Or(go(a), go(b)),
        Formula::Exists(v, g) => Formula::Exists(*v, go(g)),
        Formula::Forall(v, g) => Formula::Forall(*v, go(g)),
    }
}

/// Replaces every maximal subformula that reads no stage by an atom over
/// its free variables, bound to a leaf query evaluated once per loop
/// entry. Equal subformulas share one leaf.
fn hoist(f: Formula, leaves: &mut Vec<(String, Query)>) -> Formula {
    if ![OLD, DELTA, NEW].iter().any(|s| reads(&f, s)) {
        let vars = f.free_vars();
        let args: Vec<Term> = vars.iter().map(|&v| Term::Var(v)).collect();
        let leaf = Query::new(vars, f);
        let slot = match leaves.iter().position(|(_, q)| *q == leaf) {
            Some(slot) => slot,
            None => {
                leaves.push((format!("#{}", leaves.len()), leaf));
                leaves.len() - 1
            }
        };
        return Formula::rel_var(&leaves[slot].0, args);
    }
    match f {
        Formula::And(a, b) => hoist(*a, leaves).and(hoist(*b, leaves)),
        Formula::Or(a, b) => hoist(*a, leaves).or(hoist(*b, leaves)),
        Formula::Exists(v, g) => hoist(*g, leaves).exists(v),
        read => read,
    }
}

/// What [`run_rounds`] needs from the engine running the loop.
pub(crate) trait Rounds {
    /// Starts a round: checks the deadline, counts the round and, when
    /// tracing, opens its span.
    fn open_round(&mut self) -> Result<(), EvalError>;
    /// Ends round `round` of `fix`, whose stage has `rows` points (the
    /// cylinder cardinality).
    fn close_round(&mut self, fix: FixId, round: u64, rows: usize);
    /// The certificate trace to write each round's added tuples into,
    /// when recording.
    fn recorder(&mut self) -> Option<&mut TraceRecorder>;
}

/// Runs rounds 2, 3, … of `fix` seminaively, after round 1 took the
/// stage from `prev` to `next ≠ prev`, and returns the fixpoint cylinder.
/// When recording, it writes round 1's step as well as its own.
/// Returns `None` — the caller keeps its Kleene loop — when the stages
/// do not grow (`prev ⊄ next`, possible only from a warm start) or the
/// domain lacks a constant the body reads `S` at.
pub(crate) fn run_rounds<C: CylinderOps>(
    host: &mut impl Rounds,
    fix: FixId,
    plan: &Seminaive,
    db: &Database,
    ctx: &CylCtx,
    prev: &C,
    next: &C,
) -> Result<Option<C>, EvalError> {
    let n = ctx.domain_size();
    if plan.max_read_const.is_some_and(|c| c as usize >= n) || !prev.is_subset(ctx, next) {
        return Ok(None);
    }
    let cols = &plan.columns;
    // Every tuple of S is a cylinder broadcast over the other coordinates.
    let spread = n.saturating_pow((ctx.width() - cols.len()) as u32);
    let stage = next.slice_to_relation(ctx, cols);
    let Some(derivative) = &plan.derivative else {
        if let Some(rec) = host.recorder() {
            let old = prev.slice_to_relation(ctx, cols);
            rec.step(fix, stage.difference(&old).sorted(), Vec::new());
        }
        // The body does not read S: the next round only confirms.
        host.open_round()?;
        host.close_round(fix, 2, stage.len().saturating_mul(spread));
        return Ok(Some(next.clone()));
    };
    let eval = NaiveEvaluator::new(db)
        .without_stats()
        .with_config(EvalConfig::with_threads(ctx.threads()));
    let mut env = RelEnv::new();
    for (name, leaf) in &plan.leaves {
        env.bind(name, eval.eval_query(leaf)?.0);
    }
    let old = prev.slice_to_relation(ctx, cols);
    let delta = stage.difference(&old);
    if let Some(rec) = host.recorder() {
        rec.step(fix, delta.sorted(), Vec::new());
    }
    env.bind(DELTA, delta);
    if plan.reads_old {
        env.bind(OLD, old);
    }
    env.bind(NEW, stage);
    let mut round = 1;
    loop {
        round += 1;
        host.open_round()?;
        let derived = eval.eval_query_with_env(derivative, &env)?.0;
        let mut stage = env.take(NEW).expect("the current stage is bound");
        let fresh = derived.difference(&stage);
        host.close_round(
            fix,
            round,
            (stage.len() + fresh.len()).saturating_mul(spread),
        );
        if fresh.is_empty() {
            return Ok(Some(C::from_relation(ctx, &stage, cols)));
        }
        if let Some(rec) = host.recorder() {
            rec.step(fix, fresh.sorted(), Vec::new());
        }
        if plan.reads_old {
            env.take(OLD);
            env.bind(OLD, stage.clone());
        }
        for t in fresh.iter() {
            stage.insert(t.clone());
        }
        env.take(DELTA);
        env.bind(DELTA, fresh);
        env.bind(NEW, stage);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::parser::parse_query;
    use bvq_logic::patterns;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn stage(name: &str, args: &[Term]) -> Formula {
        Formula::rel_var(name, args.iter().copied())
    }

    /// The `nth` fixpoint of `text`'s formula, in pre-order.
    fn fix_of(text: &str, nth: usize) -> (FixKind, String, Vec<Var>, Formula) {
        let q = parse_query(text).unwrap();
        let mut fixes = Vec::new();
        q.formula.visit(&mut |f| {
            if let Formula::Fix {
                kind,
                rel,
                bound,
                body,
                ..
            } = f
            {
                fixes.push((*kind, rel.clone(), bound.clone(), (**body).clone()));
            }
        });
        fixes.swap_remove(nth)
    }

    fn reason(text: &str, nth: usize) -> Ineligible {
        let (kind, rel, bound, body) = fix_of(text, nth);
        plan(kind, &rel, &bound, &body).unwrap_err()
    }

    #[test]
    fn read_becomes_delta_with_parameters_prepended() {
        let body = Formula::rel_var("T", [v(0)]);
        assert_eq!(derivative(&body, "T", &[]), Some(stage(DELTA, &[v(0)])));
        assert_eq!(
            derivative(&body, "T", &[Var(2)]),
            Some(stage(DELTA, &[v(2), v(0)]))
        );
        let constant = Formula::rel_var("T", [Term::Const(3)]);
        assert_eq!(
            derivative(&constant, "T", &[]),
            Some(stage(DELTA, &[Term::Const(3)]))
        );
    }

    #[test]
    fn s_free_formulas_derive_nothing() {
        let body = Formula::atom("E", [v(0), v(1)]).and(Formula::atom("P", [v(0)]).not());
        assert_eq!(derivative(&body, "T", &[]), None);
        assert_eq!(derivative(&Formula::tt(), "T", &[]), None);
    }

    #[test]
    fn disjunction_distributes_and_drops_s_free_sides() {
        let t0 = Formula::rel_var("T", [v(0)]);
        let t1 = Formula::rel_var("T", [v(1)]);
        let body = t0.clone().or(Formula::atom("P", [v(0)]));
        assert_eq!(derivative(&body, "T", &[]), Some(stage(DELTA, &[v(0)])));
        let both = t0.or(t1);
        assert_eq!(
            derivative(&both, "T", &[]),
            Some(stage(DELTA, &[v(0)]).or(stage(DELTA, &[v(1)])))
        );
    }

    #[test]
    fn existential_distributes() {
        let body = Formula::rel_var("T", [v(1)])
            .and(Formula::atom("E", [v(1), v(0)]))
            .exists(Var(1));
        let expected = stage(DELTA, &[v(1)])
            .and(Formula::atom("E", [v(1), v(0)]))
            .exists(Var(1));
        assert_eq!(derivative(&body, "T", &[]), Some(expected));
    }

    #[test]
    fn conjunction_reads_old_then_new() {
        // d(A ∧ B) = dA ∧ B' ∪ A ∧ dB.
        let body = Formula::rel_var("T", [v(0), v(2)]).and(Formula::rel_var("T", [v(2), v(1)]));
        let expected = stage(DELTA, &[v(0), v(2)])
            .and(stage(NEW, &[v(2), v(1)]))
            .or(stage(OLD, &[v(0), v(2)]).and(stage(DELTA, &[v(2), v(1)])));
        assert_eq!(derivative(&body, "T", &[]), Some(expected));
        // An S-free conjunct keeps only the side that differentiates S,
        // and simplification removes constant conjuncts.
        let linear = Formula::atom("E", [v(0), v(2)])
            .and(Formula::rel_var("T", [v(2), v(1)]))
            .and(Formula::tt());
        assert_eq!(
            derivative(&linear, "T", &[]),
            Some(Formula::atom("E", [v(0), v(2)]).and(stage(DELTA, &[v(2), v(1)])))
        );
    }

    #[test]
    fn transitive_closure_plan() {
        let (kind, rel, bound, body) = fix_of(
            "(x1, x2) [lfp T(x1, x2) . E(x1, x2) | exists x3. (E(x1, x3) & T(x3, x2))](x1, x2)",
            0,
        );
        let p = plan(kind, &rel, &bound, &body).unwrap();
        assert_eq!(p.columns, vec![0, 1]);
        assert!(!p.reads_old);
        // The S-free leaf E(x1, x3) is evaluated once per loop entry.
        assert_eq!(p.leaves.len(), 1);
        assert_eq!(
            p.derivative.unwrap().formula,
            stage("#0", &[v(0), v(2)])
                .and(stage(DELTA, &[v(2), v(1)]))
                .exists(Var(2))
        );
    }

    #[test]
    fn parameters_precede_bound_columns() {
        // Reachability from the parameter x2: T(x1) is T over (x2, x1).
        let (kind, rel, bound, body) = fix_of(
            "(x1, x2) [lfp T(x1). x1 = x2 | exists x3. (T(x3) & E(x3, x1))](x1)",
            0,
        );
        let p = plan(kind, &rel, &bound, &body).unwrap();
        assert_eq!(p.columns, vec![1, 0]);
        let d = p.derivative.unwrap();
        assert_eq!(d.output, vec![Var(1), Var(0)]);
        assert!(reads(&d.formula, DELTA));
    }

    #[test]
    fn reads_at_constants_outside_the_domain_keep_whole_body_rounds() {
        // `T(7)` on a 5-element domain: the cylinder reads it as empty,
        // where a relational read would reject the constant.
        let db = bvq_relation::Database::builder(5)
            .relation("P", 1, [[1u32], [3]])
            .relation("E", 2, [[1u32, 2], [3, 4]])
            .build();
        let q = parse_query("(x1) [lfp T(x1). P(x1) | T(7) | exists x2. (T(x2) & E(x2, x1))](x1)")
            .unwrap();
        let (kind, rel, bound, body) = fix_of(&q.to_string(), 0);
        assert_eq!(
            plan(kind, &rel, &bound, &body).unwrap().max_read_const,
            Some(7)
        );
        let run = |strategy| {
            crate::FpEvaluator::new(&db, 2)
                .with_strategy(strategy)
                .eval_query(&q)
                .map(|(r, s)| (r.sorted(), s.fixpoint_iterations))
        };
        let naive = run(crate::FpStrategy::Naive).unwrap();
        assert_eq!(run(crate::FpStrategy::EmersonLei).unwrap(), naive);
        assert_eq!(naive.0.len(), 4);
    }

    #[test]
    fn ineligible_shapes_report_their_reason() {
        assert_eq!(
            reason("(x1) [gfp T(x1). T(x1) & P(x1)](x1)", 0),
            Ineligible::NotLfp
        );
        assert_eq!(
            reason("(x1) [pfp T(x1). ~T(x1)](x1)", 0),
            Ineligible::NotLfp
        );
        let nested = "(x1) [lfp T(x1). P(x1) | [lfp U(x1). U(x1) | T(x1)](x1)](x1)";
        assert_eq!(reason(nested, 0), Ineligible::NestedFixpoint);
        // The inner fixpoint reads the outer recursion variable.
        assert_eq!(reason(nested, 1), Ineligible::ReadsOtherRelVar);
        assert_eq!(
            reason("(x1) [lfp T(x1). ~~T(x1) | P(x1)](x1)", 0),
            Ineligible::UnderNegation
        );
        assert_eq!(
            reason(
                "(x1) [lfp T(x1). P(x1) | forall x2. (~E(x1, x2) | T(x2))](x1)",
                0
            ),
            Ineligible::UnderForall
        );
        // An external relation variable.
        let (kind, rel, bound, _) = fix_of("(x1) [lfp T(x1). T(x1)](x1)", 0);
        let reads_x = Formula::rel_var("T", [v(0)]).or(Formula::rel_var("X", [v(0)]));
        assert_eq!(
            plan(kind, &rel, &bound, &reads_x).unwrap_err(),
            Ineligible::ReadsOtherRelVar
        );
        // Fairness: an lfp around a gfp — neither runs seminaive rounds.
        let fair = Query::sentence(patterns::fairness(Term::Const(0))).to_string();
        assert_eq!(reason(&fair, 0), Ineligible::NestedFixpoint);
        assert_eq!(reason(&fair, 1), Ineligible::NotLfp);
    }
}
