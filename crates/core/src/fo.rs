//! First-order evaluation: the bounded-variable evaluator of Proposition
//! 3.1, and the naive unbounded-arity evaluator whose intermediate results
//! exhibit the exponential gap of Table 1.

use bvq_logic::{Atom, Formula, Query, RelRef, Term, Var};
use bvq_relation::trace::truncate_detail;
use bvq_relation::{
    parallel, Database, EvalConfig, EvalStats, Relation, StatsRecorder, Tracer, Tuple,
};

use crate::env::RelEnv;
use crate::fp::{Evaluated, FpEvaluator};
use crate::EvalError;

/// The `FO^k` evaluator of Proposition 3.1: bottom-up, every subformula a
/// `k`-ary (cylindrical) relation, so evaluation is polynomial in both the
/// database and the expression.
///
/// A thin wrapper over the shared engine that rejects fixpoint operators.
///
/// ```
/// use bvq_core::BoundedEvaluator;
/// use bvq_logic::{parser::parse_query, patterns};
/// use bvq_logic::{Query, Var};
/// use bvq_relation::Database;
///
/// let db = Database::builder(5)
///     .relation("E", 2, (0u32..4).map(|i| [i, i + 1]))
///     .build();
/// // The paper's FO³ path-of-length-3 formula.
/// let q = Query::new(vec![Var(0), Var(1)], patterns::path_bounded(3));
/// let ev = BoundedEvaluator::new(&db, 3);
/// let (r, stats) = ev.eval_query(&q).unwrap();
/// assert!(r.contains(&[0, 3]));
/// assert_eq!(stats.max_arity, 3); // never exceeds k
/// ```
pub struct BoundedEvaluator<'d> {
    inner: FpEvaluator<'d>,
}

impl<'d> BoundedEvaluator<'d> {
    /// Creates an `FO^k` evaluator.
    pub fn new(db: &'d Database, k: usize) -> Self {
        BoundedEvaluator {
            inner: FpEvaluator::new(db, k).forbid_fix(),
        }
    }

    /// Disables statistics collection.
    #[must_use]
    pub fn without_stats(mut self) -> Self {
        self.inner = self.inner.without_stats();
        self
    }

    /// Selects the cylinder backend (see
    /// [`FpEvaluator::with_backend`](crate::FpEvaluator::with_backend)).
    #[must_use]
    pub fn with_backend(mut self, backend: bvq_relation::BackendMode) -> Self {
        self.inner = self.inner.with_backend(backend);
        self
    }

    /// Sets the parallel-evaluation configuration (thread count).
    #[must_use]
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.inner = self.inner.with_config(config);
        self
    }

    /// Evaluates a query.
    pub fn eval_query(&self, q: &Query) -> Result<(Relation, EvalStats), EvalError> {
        self.inner.eval_query(q)
    }

    /// Evaluates a query, also returning the span tree when tracing is
    /// enabled ([`EvalConfig::with_trace`]).
    pub fn eval_query_traced(&self, q: &Query) -> Result<Evaluated, EvalError> {
        self.inner.eval_query_traced(q)
    }

    /// Evaluates with external relation-variable bindings (used by the
    /// naive ESO enumeration).
    pub fn eval_query_with_env(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<(Relation, EvalStats), EvalError> {
        self.inner.eval_query_with_env(q, env)
    }

    /// Decides `t ∈ Q(B)`.
    pub fn check(&self, q: &Query, t: &[u32]) -> Result<bool, EvalError> {
        self.inner.check(q, t)
    }
}

/// The span kind for one surface-syntax operator (naive evaluator).
fn naive_kind(f: &Formula) -> &'static str {
    match f {
        Formula::Const(_) => "const",
        Formula::Eq(..) => "eq",
        Formula::Atom(_) => "atom",
        Formula::Not(_) => "not",
        Formula::And(..) => "and",
        Formula::Or(..) => "or",
        Formula::Exists(..) => "exists",
        Formula::Forall(..) => "forall",
        Formula::Fix { .. } => "fix",
    }
}

/// The naive first-order evaluator: classical relational-algebra
/// evaluation over *named columns*, where a subformula with `m` free
/// variables denotes an `m`-ary relation. Arities — and therefore
/// intermediate sizes — grow with the formula, which is exactly the
/// exponential combined-complexity behaviour of Table 1 that
/// bounded-variable evaluation eliminates.
pub struct NaiveEvaluator<'d> {
    db: &'d Database,
    collect_stats: bool,
    config: EvalConfig,
}

/// A relation tagged with its column variables (sorted ascending).
#[derive(Clone, Debug)]
struct Tagged {
    cols: Vec<Var>,
    rel: Relation,
}

impl<'d> NaiveEvaluator<'d> {
    /// Creates a naive evaluator (thread count from [`EvalConfig::default`]).
    pub fn new(db: &'d Database) -> Self {
        NaiveEvaluator {
            db,
            collect_stats: true,
            config: EvalConfig::default(),
        }
    }

    /// Disables statistics collection.
    #[must_use]
    pub fn without_stats(mut self) -> Self {
        self.collect_stats = false;
        self
    }

    /// Sets the parallel-evaluation configuration (thread count).
    #[must_use]
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.config = config;
        self
    }

    /// Evaluates a query.
    pub fn eval_query(&self, q: &Query) -> Result<(Relation, EvalStats), EvalError> {
        self.eval_query_with_env(q, &RelEnv::new())
    }

    /// Evaluates a query, also returning the span tree when tracing is
    /// enabled ([`EvalConfig::with_trace`]). Naive spans mirror the
    /// surface formula; arities grow with the formula, which makes the
    /// Table 1 blow-up directly visible in the trace.
    pub fn eval_query_traced(&self, q: &Query) -> Result<Evaluated, EvalError> {
        self.eval_query_with_env_traced(q, &RelEnv::new())
    }

    /// Evaluates a query with external relation-variable bindings.
    pub fn eval_query_with_env(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<(Relation, EvalStats), EvalError> {
        self.eval_query_with_env_traced(q, env)
            .map(|e| (e.answer, e.stats))
    }

    /// [`NaiveEvaluator::eval_query_traced`] with external bindings.
    pub fn eval_query_with_env_traced(
        &self,
        q: &Query,
        env: &RelEnv,
    ) -> Result<Evaluated, EvalError> {
        let mut rec = if self.collect_stats {
            StatsRecorder::new()
        } else {
            StatsRecorder::disabled()
        };
        let mut tracer = Tracer::new(self.config.trace());
        let t = self.eval(&q.formula, env, &mut rec, &mut tracer)?;
        // Adjust to the query's output columns. Free variables of the
        // formula must be among the outputs; outputs not free in the
        // formula range over the whole domain.
        let missing: Vec<Var> = q
            .output
            .iter()
            .copied()
            .filter(|v| !t.cols.contains(v))
            .collect();
        let mut extended = t;
        for v in missing {
            extended = extend_with_domain(extended, v, self.db.domain_size());
        }
        let positions: Vec<usize> = q
            .output
            .iter()
            .map(|v| {
                extended
                    .cols
                    .iter()
                    .position(|c| c == v)
                    .expect("output variable present after extension")
            })
            .collect();
        let result = parallel::project(&extended.rel, &positions, &self.config);
        Ok(Evaluated {
            answer: result,
            stats: rec.stats(),
            trace: tracer.finish(),
        })
    }

    /// Decides `t ∈ Q(B)`.
    pub fn check(&self, q: &Query, t: &[u32]) -> Result<bool, EvalError> {
        if t.len() != q.output.len() {
            return Ok(false);
        }
        let (rel, _) = self.eval_query(q)?;
        Ok(rel.contains(t))
    }

    fn record(&self, rec: &mut StatsRecorder, t: &Tagged) {
        rec.intermediate(t.rel.arity(), t.rel.len());
    }

    fn eval(
        &self,
        f: &Formula,
        env: &RelEnv,
        rec: &mut StatsRecorder,
        tracer: &mut Tracer,
    ) -> Result<Tagged, EvalError> {
        let traced = tracer.is_enabled();
        if traced {
            tracer.open();
        }
        let out = self.eval_inner(f, env, rec, tracer)?;
        self.record(rec, &out);
        if traced {
            tracer.close(
                naive_kind(f),
                truncate_detail(&f.to_string(), 64),
                out.rel.arity(),
                out.rel.len(),
                None,
            );
        }
        Ok(out)
    }

    fn eval_inner(
        &self,
        f: &Formula,
        env: &RelEnv,
        rec: &mut StatsRecorder,
        tracer: &mut Tracer,
    ) -> Result<Tagged, EvalError> {
        let out = match f {
            Formula::Const(b) => Tagged {
                cols: Vec::new(),
                rel: Relation::boolean(*b),
            },
            Formula::Eq(a, b) => self.eval_eq(*a, *b)?,
            Formula::Atom(Atom { rel, args }) => {
                let relation = match rel {
                    RelRef::Db(name) => self
                        .db
                        .relation_by_name(name)
                        .ok_or_else(|| EvalError::UnknownRelation(name.clone()))?,
                    RelRef::Bound(name) => env
                        .get(name)
                        .ok_or_else(|| EvalError::UnboundRelVar(name.clone()))?,
                };
                if relation.arity() != args.len() {
                    return Err(EvalError::ArityMismatch {
                        name: rel.name().to_string(),
                        expected: relation.arity(),
                        found: args.len(),
                    });
                }
                self.eval_atom(relation, args)?
            }
            Formula::Not(g) => {
                let t = self.eval(g, env, rec, tracer)?;
                // Complement w.r.t. D^{|cols|}: the exponential operation.
                Tagged {
                    rel: t.rel.complement(self.db.domain_size()),
                    cols: t.cols,
                }
            }
            Formula::And(a, b) => {
                let ta = self.eval(a, env, rec, tracer)?;
                let tb = self.eval(b, env, rec, tracer)?;
                join_tagged(ta, tb, &self.config)
            }
            Formula::Or(a, b) => {
                let ta = self.eval(a, env, rec, tracer)?;
                let tb = self.eval(b, env, rec, tracer)?;
                let n = self.db.domain_size();
                let (ta, tb) = align_columns(ta, tb, n);
                Tagged {
                    rel: parallel::union(&ta.rel, &tb.rel, &self.config),
                    cols: ta.cols,
                }
            }
            Formula::Exists(v, g) => {
                let t = self.eval(g, env, rec, tracer)?;
                project_out(t, *v, &self.config)
            }
            Formula::Forall(v, g) => {
                // ∀v φ = ¬∃v ¬φ over the columns of φ.
                let t = self.eval(g, env, rec, tracer)?;
                let n = self.db.domain_size();
                let neg = Tagged {
                    rel: t.rel.complement(n),
                    cols: t.cols,
                };
                self.record(rec, &neg);
                let ex = project_out(neg, *v, &self.config);
                Tagged {
                    rel: ex.rel.complement(n),
                    cols: ex.cols,
                }
            }
            Formula::Fix { .. } => {
                return Err(EvalError::UnsupportedConstruct(
                    "fixpoint operator in the naive FO evaluator",
                ))
            }
        };
        Ok(out)
    }

    fn eval_eq(&self, a: Term, b: Term) -> Result<Tagged, EvalError> {
        let n = self.db.domain_size();
        let check = |c: u32| {
            if c as usize >= n {
                Err(EvalError::ConstOutOfDomain(c))
            } else {
                Ok(())
            }
        };
        Ok(match (a, b) {
            (Term::Var(x), Term::Var(y)) if x == y => {
                // x = x: all of D over one column.
                Tagged {
                    cols: vec![x],
                    rel: Relation::full(1, n),
                }
            }
            (Term::Var(x), Term::Var(y)) => {
                let (lo, hi) = if x < y { (x, y) } else { (y, x) };
                let diag =
                    Relation::from_tuples(2, (0..n as u32).map(|e| Tuple::from_slice(&[e, e])));
                Tagged {
                    cols: vec![lo, hi],
                    rel: diag,
                }
            }
            (Term::Var(x), Term::Const(c)) | (Term::Const(c), Term::Var(x)) => {
                check(c)?;
                Tagged {
                    cols: vec![x],
                    rel: Relation::from_tuples(1, [[c]]),
                }
            }
            (Term::Const(c), Term::Const(d)) => {
                check(c)?;
                check(d)?;
                Tagged {
                    cols: Vec::new(),
                    rel: Relation::boolean(c == d),
                }
            }
        })
    }

    /// An atom: select constants and repeated variables, project to the
    /// sorted distinct variable columns.
    fn eval_atom(&self, rel: &Relation, args: &[Term]) -> Result<Tagged, EvalError> {
        let n = self.db.domain_size();
        let mut filtered = rel.clone();
        let mut first_pos: Vec<(Var, usize)> = Vec::new();
        for (i, t) in args.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    if *c as usize >= n {
                        return Err(EvalError::ConstOutOfDomain(*c));
                    }
                    filtered = filtered.select_const(i, *c);
                }
                Term::Var(v) => match first_pos.iter().find(|(w, _)| w == v) {
                    Some(&(_, j)) => filtered = filtered.select_eq(j, i),
                    None => first_pos.push((*v, i)),
                },
            }
        }
        first_pos.sort_by_key(|(v, _)| *v);
        let cols: Vec<Var> = first_pos.iter().map(|(v, _)| *v).collect();
        let positions: Vec<usize> = first_pos.iter().map(|(_, p)| *p).collect();
        Ok(Tagged {
            rel: filtered.project(&positions),
            cols,
        })
    }
}

/// Projects out one column (if present).
fn project_out(t: Tagged, v: Var, cfg: &EvalConfig) -> Tagged {
    match t.cols.iter().position(|c| *c == v) {
        None => t,
        Some(i) => {
            let keep: Vec<usize> = (0..t.cols.len()).filter(|&j| j != i).collect();
            Tagged {
                rel: parallel::project(&t.rel, &keep, cfg),
                cols: t.cols.iter().copied().filter(|c| *c != v).collect(),
            }
        }
    }
}

/// Extends a tagged relation with a new column ranging over the domain.
fn extend_with_domain(t: Tagged, v: Var, n: usize) -> Tagged {
    debug_assert!(!t.cols.contains(&v));
    let domain = Relation::full(1, n);
    let crossed = t.rel.product(&domain);
    // Insert v in sorted position.
    let mut cols = t.cols.clone();
    let insert_at = cols.iter().position(|c| *c > v).unwrap_or(cols.len());
    cols.insert(insert_at, v);
    // Column order after product: t.cols ++ [v]; permute to sorted.
    let mut positions: Vec<usize> = Vec::with_capacity(cols.len());
    for c in &cols {
        let p = if *c == v {
            t.cols.len()
        } else {
            t.cols.iter().position(|d| d == c).expect("existing column")
        };
        positions.push(p);
    }
    Tagged {
        rel: crossed.project(&positions),
        cols,
    }
}

/// Natural join on shared columns; result columns sorted.
fn join_tagged(a: Tagged, b: Tagged, cfg: &EvalConfig) -> Tagged {
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for (i, c) in a.cols.iter().enumerate() {
        if let Some(j) = b.cols.iter().position(|d| d == c) {
            pairs.push((i, j));
        }
    }
    let joined = parallel::join_on(&a.rel, &b.rel, &pairs, cfg);
    // Columns of `joined`: a.cols ++ b.cols. Keep a's columns plus b's
    // non-shared ones, sorted.
    let mut cols: Vec<Var> = a.cols.clone();
    for c in &b.cols {
        if !cols.contains(c) {
            cols.push(*c);
        }
    }
    cols.sort();
    let positions: Vec<usize> = cols
        .iter()
        .map(|c| {
            if let Some(i) = a.cols.iter().position(|d| d == c) {
                i
            } else {
                a.cols.len() + b.cols.iter().position(|d| d == c).expect("column exists")
            }
        })
        .collect();
    Tagged {
        rel: parallel::project(&joined, &positions, cfg),
        cols,
    }
}

/// Brings two tagged relations to the same (union) column set, extending
/// each with domain columns as needed.
fn align_columns(mut a: Tagged, mut b: Tagged, n: usize) -> (Tagged, Tagged) {
    let missing_in_a: Vec<Var> = b
        .cols
        .iter()
        .copied()
        .filter(|c| !a.cols.contains(c))
        .collect();
    for v in missing_in_a {
        a = extend_with_domain(a, v, n);
    }
    let missing_in_b: Vec<Var> = a
        .cols
        .iter()
        .copied()
        .filter(|c| !b.cols.contains(c))
        .collect();
    for v in missing_in_b {
        b = extend_with_domain(b, v, n);
    }
    debug_assert_eq!(a.cols, b.cols);
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::parser::parse_query;
    use bvq_logic::patterns;

    fn db() -> Database {
        Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3], [3, 4]])
            .relation("P", 1, [[2u32], [4]])
            .build()
    }

    #[test]
    fn naive_matches_bounded_on_fo2() {
        let db = db();
        let queries = [
            "(x1,x2) (E(x1,x2) & ~P(x2))",
            "(x1) exists x2. E(x2,x1)",
            "(x1) forall x2. (E(x1,x2) -> P(x2))",
            "(x1,x2) (E(x1,x2) | E(x2,x1))",
            "() exists x1. (P(x1) & exists x2. E(x2,x1))",
            "(x1,x2) x1 = x2",
            "(x1) x1 = 3",
        ];
        for qs in queries {
            let q = parse_query(qs).unwrap();
            let k = 2;
            let naive = NaiveEvaluator::new(&db).eval_query(&q).unwrap().0;
            let bounded = BoundedEvaluator::new(&db, k).eval_query(&q).unwrap().0;
            assert_eq!(naive.sorted(), bounded.sorted(), "query {qs}");
        }
    }

    #[test]
    fn trace_mirrors_surface_formula() {
        let db = db();
        let q = parse_query("(x1) exists x2. (E(x1,x2) & P(x2))").unwrap();
        let cfg = EvalConfig::default().with_trace(true);

        // Naive: spans mirror the surface syntax tree exactly.
        let ev = NaiveEvaluator::new(&db).with_config(cfg);
        let out = ev.eval_query_traced(&q).unwrap();
        let root = out.trace.expect("trace enabled");
        assert_eq!(root.kind, "exists");
        assert_eq!(root.children.len(), 1);
        let and = &root.children[0];
        assert_eq!(and.kind, "and");
        assert_eq!(and.children.len(), 2);
        assert_eq!(and.children[0].kind, "atom");
        assert_eq!(and.children[1].kind, "atom");
        assert_eq!(and.children[0].detail, "E(x1,x2)");
        // Answer/stats agree with the untraced run.
        let (r, s) = NaiveEvaluator::new(&db).eval_query(&q).unwrap();
        assert_eq!(out.answer.sorted(), r.sorted());
        assert_eq!(out.stats, s);

        // Bounded: spans mirror the compiled IR, root is the same operator.
        let bv = BoundedEvaluator::new(&db, 2).with_config(cfg);
        let bout = bv.eval_query_traced(&q).unwrap();
        let broot = bout.trace.expect("trace enabled");
        assert_eq!(broot.kind, "exists");
        assert!(broot.total_spans() >= 4);
        assert_eq!(bout.answer.sorted(), r.sorted());

        // Trace off by default: no span tree is built.
        assert!(NaiveEvaluator::new(&db)
            .eval_query_traced(&q)
            .unwrap()
            .trace
            .is_none());
    }

    #[test]
    fn naive_path_matches_bounded_rewrite() {
        // ψ_n (naive, n+1 variables) ≡ φ_n (FO³) — the §2.2 equivalence.
        let db = db();
        for n in 1..5 {
            let qn = Query::new(vec![Var(0), Var(1)], patterns::path_naive(n));
            let qb = Query::new(vec![Var(0), Var(1)], patterns::path_bounded(n));
            let naive = NaiveEvaluator::new(&db).eval_query(&qn).unwrap().0;
            let bounded = BoundedEvaluator::new(&db, 3).eval_query(&qb).unwrap().0;
            assert_eq!(naive.sorted(), bounded.sorted(), "path length {n}");
        }
    }

    #[test]
    fn naive_intermediate_arity_grows_with_formula() {
        let db = db();
        let q3 = Query::new(vec![Var(0), Var(1)], patterns::path_naive(3));
        let (_, s3) = NaiveEvaluator::new(&db).eval_query(&q3).unwrap();
        let q5 = Query::new(vec![Var(0), Var(1)], patterns::path_naive(5));
        let (_, s5) = NaiveEvaluator::new(&db).eval_query(&q5).unwrap();
        assert!(s5.max_arity > s3.max_arity, "naive arity must grow with n");
        // The bounded evaluator stays at 3 regardless.
        let qb = Query::new(vec![Var(0), Var(1)], patterns::path_bounded(5));
        let (_, sb) = BoundedEvaluator::new(&db, 3).eval_query(&qb).unwrap();
        assert_eq!(sb.max_arity, 3);
    }

    #[test]
    fn unused_output_variable_ranges_over_domain() {
        let db = db();
        let q = parse_query("(x1,x2) P(x1)").unwrap();
        let naive = NaiveEvaluator::new(&db).eval_query(&q).unwrap().0;
        assert_eq!(naive.len(), 2 * 5);
        let bounded = BoundedEvaluator::new(&db, 2).eval_query(&q).unwrap().0;
        assert_eq!(naive.sorted(), bounded.sorted());
    }

    #[test]
    fn repeated_vars_and_constants_in_atoms() {
        let db = Database::builder(3)
            .relation("T", 3, [[0u32, 0, 1], [0, 1, 2], [2, 2, 2]])
            .build();
        let q = parse_query("(x1) T(x1,x1,2)").unwrap();
        let naive = NaiveEvaluator::new(&db).eval_query(&q).unwrap().0;
        let bounded = BoundedEvaluator::new(&db, 1).eval_query(&q).unwrap().0;
        assert_eq!(naive.sorted(), bounded.sorted());
        assert_eq!(naive.len(), 1); // only (2,2,2)
    }

    #[test]
    fn bounded_rejects_fixpoints() {
        let db = db();
        let q = Query::new(vec![Var(0)], patterns::reach_from_const(0));
        assert!(matches!(
            BoundedEvaluator::new(&db, 2).eval_query(&q),
            Err(EvalError::UnsupportedConstruct(_))
        ));
        assert!(matches!(
            NaiveEvaluator::new(&db).eval_query(&q),
            Err(EvalError::UnsupportedConstruct(_))
        ));
    }

    #[test]
    fn boolean_sentences() {
        let db = db();
        let q = parse_query("() exists x1. P(x1)").unwrap();
        assert!(NaiveEvaluator::new(&db)
            .eval_query(&q)
            .unwrap()
            .0
            .as_boolean());
        let q2 = parse_query("() forall x1. P(x1)").unwrap();
        assert!(!NaiveEvaluator::new(&db)
            .eval_query(&q2)
            .unwrap()
            .0
            .as_boolean());
        assert!(BoundedEvaluator::new(&db, 1)
            .eval_query(&q)
            .unwrap()
            .0
            .as_boolean());
        assert!(!BoundedEvaluator::new(&db, 1)
            .eval_query(&q2)
            .unwrap()
            .0
            .as_boolean());
    }
}
