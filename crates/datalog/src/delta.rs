//! The reusable rule×delta evaluation engine.
//!
//! Semi-naive evaluation ([`crate::eval::seminaive`]) works in
//! (rule × delta-position) items: a rule body joined with one position
//! bound to a *delta* relation instead of the full predicate. Incremental
//! view maintenance (the `bvq-ivm` crate) needs exactly the same machinery,
//! generalized two ways: the delta may sit on an **EDB** position (a
//! mutation, not just last round's IDB growth), and *every* position may be
//! overridden independently (counting-based maintenance telescopes
//! new/Δ/old states across the body). This module is that generalization,
//! extracted so both the evaluator and the maintenance engine share one
//! join pipeline — same running-join order, same statistics.

use std::borrow::Cow;

use bvq_relation::{parallel, Database, Elem, EvalConfig, Relation, StatsRecorder};

use crate::ast::{AtomTerm, BodyAtom, DatalogError, Rule};

/// Resolves predicate names to relations during rule evaluation.
///
/// Implementations layer IDB state over a database's EDB relations; the
/// maintenance engine swaps in historical (pre-mutation) views without the
/// join code knowing.
pub trait RelSource {
    /// The current relation for `pred`, if any.
    fn rel(&self, pred: &str) -> Option<&Relation>;
}

/// IDB relations layered over a database's EDB relations: a predicate
/// named in `idb` reads that relation, any other the database's.
pub struct View<'a> {
    /// The EDB side.
    pub db: &'a Database,
    /// The IDB state, one entry per IDB predicate.
    pub idb: &'a [(String, Relation)],
}

impl RelSource for View<'_> {
    fn rel(&self, pred: &str) -> Option<&Relation> {
        self.idb
            .iter()
            .find(|(p, _)| p == pred)
            .map(|(_, r)| r)
            .or_else(|| self.db.relation_by_name(pred))
    }
}

/// The rule with body atom `pos` rotated to the front, so the running
/// left-to-right join in [`rule_bindings`] starts from the (small)
/// delta relation rather than materializing a full-size prefix atom
/// first. Bodies are positive conjunctions, so reordering preserves the
/// natural join, and head projection binds by variable name, not body
/// position. This is what makes a point insert cost `O(|Δ| ⋈ …)`
/// instead of `O(|IDB|)`.
pub fn delta_first(rule: &Rule, pos: usize) -> Cow<'_, Rule> {
    if pos == 0 {
        return Cow::Borrowed(rule);
    }
    let mut r = rule.clone();
    let atom = r.body.remove(pos);
    r.body.insert(0, atom);
    Cow::Owned(r)
}

/// The full variable-binding relation of one rule body: `cols` names the
/// rule's distinct variables in running-join order, and every tuple of
/// `rel` is one satisfying valuation — i.e. exactly one derivation of its
/// head projection, which is what derivation counting needs.
pub struct Bindings {
    /// Distinct body variables, in the order of `rel`'s columns.
    pub cols: Vec<u32>,
    /// One tuple per satisfying valuation of `cols`.
    pub rel: Relation,
}

/// Evaluates one rule body as a conjunctive query over `src`, with
/// per-position overrides: body position `i` reads `sources[i]` when set
/// (`sources` may be shorter than the body; missing entries mean "no
/// override"). Returns the full binding relation; project with
/// [`project_head`] for the derived head tuples.
///
/// # Errors
/// Fails when a body predicate has neither an override nor a `src` entry.
pub fn rule_bindings(
    rule: &Rule,
    sources: &[Option<&Relation>],
    src: &dyn RelSource,
    cfg: &EvalConfig,
    rec: &mut StatsRecorder,
) -> Result<Bindings, DatalogError> {
    // Running join state: columns = sorted rule variables bound so far.
    let mut cols: Vec<u32> = Vec::new();
    let mut rel = Relation::boolean(true); // unit: the empty join
    for (pos, atom) in rule.body.iter().enumerate() {
        let source: &Relation = match sources.get(pos) {
            Some(Some(over)) => over,
            _ => src
                .rel(&atom.pred)
                .ok_or_else(|| DatalogError::UnknownPredicate(atom.pred.clone()))?,
        };
        let (acols, arel) = normalise_atom(source, atom);
        // Natural join on shared variables.
        let mut pairs = Vec::new();
        for (i, c) in cols.iter().enumerate() {
            if let Some(j) = acols.iter().position(|d| d == c) {
                pairs.push((i, j));
            }
        }
        let joined = parallel::join_on(&rel, arel.as_ref(), &pairs, cfg);
        // Merge columns.
        let mut new_cols = cols.clone();
        for c in &acols {
            if !new_cols.contains(c) {
                new_cols.push(*c);
            }
        }
        let positions: Vec<usize> = new_cols
            .iter()
            .map(|c| {
                cols.iter()
                    .position(|d| d == c)
                    .unwrap_or_else(|| cols.len() + acols.iter().position(|d| d == c).expect("col"))
            })
            .collect();
        rel = parallel::project(&joined, &positions, cfg);
        cols = new_cols;
        rec.intermediate(rel.arity(), rel.len());
    }
    Ok(Bindings { cols, rel })
}

/// Projects a binding relation to the rule's head variables.
///
/// # Panics
/// Panics when a head variable is missing from `cols` — impossible for
/// range-restricted rules (enforced by [`crate::Program::validate`]).
pub fn project_head(rule: &Rule, bindings: &Bindings, cfg: &EvalConfig) -> Relation {
    let positions: Vec<usize> = rule
        .head
        .vars
        .iter()
        .map(|v| {
            bindings
                .cols
                .iter()
                .position(|c| c == v)
                .expect("range-restricted")
        })
        .collect();
    parallel::project(&bindings.rel, &positions, cfg)
}

/// Normalises one atom: applies constant selections and repeated-variable
/// equalities, returning (distinct variable columns, relation). Clean
/// atoms — no constants, no repeated variables — borrow the input
/// untouched, so a point-delta join does not pay a copy of the full
/// relation on every non-delta position.
pub fn normalise_atom<'a>(rel: &'a Relation, atom: &BodyAtom) -> (Vec<u32>, Cow<'a, Relation>) {
    let mut filtered = Cow::Borrowed(rel);
    let mut first: Vec<(u32, usize)> = Vec::new();
    for (i, t) in atom.args.iter().enumerate() {
        match t {
            AtomTerm::Const(c) => filtered = Cow::Owned(filtered.select_const(i, *c as Elem)),
            AtomTerm::Var(v) => match first.iter().find(|(w, _)| w == v) {
                Some(&(_, j)) => filtered = Cow::Owned(filtered.select_eq(j, i)),
                None => first.push((*v, i)),
            },
        }
    }
    let cols: Vec<u32> = first.iter().map(|(v, _)| *v).collect();
    let positions: Vec<usize> = first.iter().map(|(_, p)| *p).collect();
    let identity =
        positions.len() == filtered.arity() && positions.iter().enumerate().all(|(i, &p)| i == p);
    if identity {
        (cols, filtered)
    } else {
        let projected = filtered.project(&positions);
        (cols, Cow::Owned(projected))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AtomTerm::Var;
    use crate::ast::Program;
    use bvq_relation::Database;

    struct DbSource<'a>(&'a Database);
    impl RelSource for DbSource<'_> {
        fn rel(&self, pred: &str) -> Option<&Relation> {
            self.0.relation_by_name(pred)
        }
    }

    fn cfg() -> EvalConfig {
        EvalConfig::sequential()
    }

    #[test]
    fn bindings_count_derivations() {
        // Q(x) :- E(x,y), E(y,z): bindings enumerate (x,y,z) valuations,
        // so a head tuple with two distinct mid-points has two bindings.
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [0, 2], [1, 3], [2, 3]])
            .build();
        let p = Program::new().rule(
            "Q",
            &[0],
            &[("E", &[Var(0), Var(1)]), ("E", &[Var(1), Var(2)])],
        );
        let rule = &p.rules[0];
        let mut rec = StatsRecorder::new();
        let b = rule_bindings(rule, &[], &DbSource(&db), &cfg(), &mut rec).unwrap();
        assert_eq!(b.cols.len(), 3);
        // Valuations: (0,1,3) and (0,2,3) — two derivations of Q(0).
        assert_eq!(b.rel.len(), 2);
        let heads = project_head(rule, &b, &cfg());
        assert_eq!(heads.len(), 1);
        assert!(heads.contains(&[0]));
    }

    #[test]
    fn per_position_overrides() {
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .build();
        let p = Program::new().rule(
            "Q",
            &[0, 2],
            &[("E", &[Var(0), Var(1)]), ("E", &[Var(1), Var(2)])],
        );
        let rule = &p.rules[0];
        let delta = Relation::from_tuples(2, [[1u32, 2]]);
        let mut rec = StatsRecorder::new();
        // Override position 0 only: Q pairs starting from the delta edge.
        let b = rule_bindings(rule, &[Some(&delta)], &DbSource(&db), &cfg(), &mut rec).unwrap();
        let heads = project_head(rule, &b, &cfg());
        assert_eq!(
            heads.sorted(),
            Relation::from_tuples(2, [[1u32, 3]]).sorted()
        );
        // Unknown predicate without override or source errors.
        let bad = Program::new().rule("Q", &[0], &[("Nope", &[Var(0)])]);
        assert!(matches!(
            rule_bindings(&bad.rules[0], &[], &DbSource(&db), &cfg(), &mut rec),
            Err(DatalogError::UnknownPredicate(_))
        ));
    }
}
