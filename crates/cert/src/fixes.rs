//! Structural index of the fixpoint operators in a formula.
//!
//! Certificates identify a fixpoint by its **pre-order index** among the
//! `Fix` nodes of the query formula — a numbering both producer and
//! checker derive independently from the (trusted) query text, so the
//! certificate never has to name engine-internal identifiers. The index
//! also records, per fixpoint, its parent, positivity, and the set of
//! *enclosing* fixpoints its subtree reads — which is exactly the
//! invalidation relation the checker's freshness discipline needs: when
//! an outer chain value changes, every inner fixpoint that read it must
//! re-converge before its value may be read again.

use bvq_logic::{Atom, FixKind, Formula, RelRef, Term, Var};
use bvq_relation::FxHashMap;

/// Why a query cannot be certified (neither produced nor checked).
/// Unsupported shapes fall back to plain uncertified evaluation — they are
/// a refusal, not a rejection of evidence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Unsupported(pub String);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "uncertifiable query: {}", self.0)
    }
}

impl std::error::Error for Unsupported {}

/// Static facts about one fixpoint operator.
#[derive(Debug)]
pub struct FixInfo<'f> {
    /// The `Fix` node itself.
    pub node: &'f Formula,
    /// The operator's body.
    pub body: &'f Formula,
    /// The operator kind.
    pub kind: FixKind,
    /// The recursion variable's name.
    pub rel: String,
    /// The bound individual variables, in binding order.
    pub bound: Vec<Var>,
    /// `bound.len()`.
    pub arity: usize,
    /// The enclosing fixpoint, if any (pre-order index).
    pub parent: Option<usize>,
}

/// Pre-order index over the `Fix` nodes of a formula. See the module
/// docs for the role each field plays in checking.
#[derive(Debug)]
pub struct FixIndex<'f> {
    /// One entry per `Fix` node, in pre-order.
    pub fixes: Vec<FixInfo<'f>>,
    /// `rdeps[a]` = fixpoints whose subtree reads fixpoint `a`'s value
    /// — the ones to invalidate when `a`'s value changes.
    pub rdeps: Vec<Vec<usize>>,
    /// One more than the largest variable index mentioned anywhere —
    /// the assignment-vector length the evaluator needs.
    pub var_space: usize,
    /// `Fix` node address → pre-order index.
    node_ids: FxHashMap<usize, usize>,
    /// Bound-atom address → pre-order index of the fixpoint it reads.
    /// Bound atoms *not* in this map refer to ESO-quantified relations
    /// and resolve against the witness environment instead.
    atom_ids: FxHashMap<usize, usize>,
}

impl<'f> FixIndex<'f> {
    /// Builds the index, rejecting shapes the certificate machinery does
    /// not model: parameterized fixpoints (body free variables outside
    /// the bound tuple) and non-positive `Lfp`/`Gfp` recursion (the
    /// chain-justification argument needs monotonicity).
    ///
    /// `witness_rels` names ESO-quantified relations: bound atoms that
    /// resolve to one of these instead of an enclosing fixpoint are
    /// fine; any other dangling relation variable is an error.
    pub fn build(root: &'f Formula, witness_rels: &[String]) -> Result<FixIndex<'f>, Unsupported> {
        let mut idx = FixIndex {
            fixes: Vec::new(),
            rdeps: Vec::new(),
            var_space: 0,
            node_ids: FxHashMap::default(),
            atom_ids: FxHashMap::default(),
        };
        // (rel name, fix id) scope of enclosing fixpoints, innermost last.
        let mut scope: Vec<(&'f str, usize)> = Vec::new();
        idx.walk(root, &mut scope, witness_rels)?;
        Ok(idx)
    }

    /// Number of fixpoints.
    pub fn len(&self) -> usize {
        self.fixes.len()
    }

    /// Whether the formula has no fixpoints at all (plain FO).
    pub fn is_empty(&self) -> bool {
        self.fixes.is_empty()
    }

    /// The pre-order index of a `Fix` node of the indexed formula.
    pub fn fix_of_node(&self, node: &Formula) -> Option<usize> {
        self.node_ids
            .get(&(node as *const Formula as usize))
            .copied()
    }

    /// The fixpoint a bound atom of the indexed formula reads, or `None`
    /// for ESO-witness atoms.
    pub fn fix_of_atom(&self, atom: &Atom) -> Option<usize> {
        self.atom_ids.get(&(atom as *const Atom as usize)).copied()
    }

    fn note_term(&mut self, t: &Term) {
        if let Term::Var(v) = t {
            self.var_space = self.var_space.max(v.index() + 1);
        }
    }

    fn walk(
        &mut self,
        f: &'f Formula,
        scope: &mut Vec<(&'f str, usize)>,
        witness_rels: &[String],
    ) -> Result<(), Unsupported> {
        match f {
            Formula::Const(_) => Ok(()),
            Formula::Eq(a, b) => {
                self.note_term(a);
                self.note_term(b);
                Ok(())
            }
            Formula::Atom(atom) => {
                for t in &atom.args {
                    self.note_term(t);
                }
                if let RelRef::Bound(name) = &atom.rel {
                    if let Some(&(_, id)) = scope.iter().rev().find(|(n, _)| n == name) {
                        self.atom_ids.insert(atom as *const Atom as usize, id);
                        // Every fixpoint open *inside* `id` reads `id`'s
                        // chain value through this atom: invalidate them
                        // when `id` steps.
                        let from = scope.iter().position(|&(_, i)| i == id).unwrap();
                        for &(_, inner) in &scope[from + 1..] {
                            if !self.rdeps[id].contains(&inner) {
                                self.rdeps[id].push(inner);
                            }
                        }
                    } else if !witness_rels.iter().any(|w| w == name) {
                        return Err(Unsupported(format!(
                            "relation variable `{name}` is bound by no enclosing fixpoint"
                        )));
                    }
                }
                Ok(())
            }
            Formula::Not(g) => self.walk(g, scope, witness_rels),
            Formula::And(a, b) | Formula::Or(a, b) => {
                self.walk(a, scope, witness_rels)?;
                self.walk(b, scope, witness_rels)
            }
            Formula::Exists(v, g) | Formula::Forall(v, g) => {
                self.var_space = self.var_space.max(v.index() + 1);
                self.walk(g, scope, witness_rels)
            }
            Formula::Fix {
                kind,
                rel,
                bound,
                body,
                args,
            } => {
                for t in args {
                    self.note_term(t);
                }
                for v in bound {
                    self.var_space = self.var_space.max(v.index() + 1);
                }
                // A parameterized fixpoint's value varies with outer
                // individual bindings; a single stored relation per
                // fixpoint cannot represent that.
                let stray: Vec<Var> = body
                    .free_vars()
                    .into_iter()
                    .filter(|v| !bound.contains(v))
                    .collect();
                if !stray.is_empty() {
                    return Err(Unsupported(format!(
                        "parameterized fixpoint `{rel}`: body mentions free variable x{} \
                         outside its bound tuple",
                        stray[0].0 + 1
                    )));
                }
                if matches!(kind, FixKind::Lfp | FixKind::Gfp) && !body.is_positive_in(rel) {
                    return Err(Unsupported(format!(
                        "`{rel}` occurs non-positively in its {kind:?} body"
                    )));
                }
                // §3.2: the Theorem 3.5 certificate technique does not
                // apply to IFP^k — an inflationary chain admits no
                // per-tuple justification, so IFP queries stay uncertified.
                if matches!(kind, FixKind::Ifp) {
                    return Err(Unsupported(format!(
                        "inflationary fixpoint `{rel}`: IFP is outside the Theorem 3.5 \
                         certificate fragment"
                    )));
                }
                let id = self.fixes.len();
                self.fixes.push(FixInfo {
                    node: f,
                    body,
                    kind: *kind,
                    rel: rel.clone(),
                    bound: bound.clone(),
                    arity: bound.len(),
                    parent: scope.last().map(|&(_, p)| p),
                });
                self.rdeps.push(Vec::new());
                self.node_ids.insert(f as *const Formula as usize, id);
                scope.push((rel.as_str(), id));
                let r = self.walk(body, scope, witness_rels);
                scope.pop();
                r
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    #[test]
    fn preorder_ids_parents_and_rdeps() {
        // [lfp S(x1). P(x1) | [lfp T(x2). S(x2) | T(x2)](x1)](x1)
        let inner = Formula::lfp(
            "T",
            vec![Var(1)],
            Formula::rel_var("S", [v(1)]).or(Formula::rel_var("T", [v(1)])),
            vec![v(0)],
        );
        let outer = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::atom("P", [v(0)]).or(inner),
            vec![v(0)],
        );
        let idx = FixIndex::build(&outer, &[]).unwrap();
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.fixes[0].rel, "S");
        assert_eq!(idx.fixes[0].parent, None);
        assert_eq!(idx.fixes[1].rel, "T");
        assert_eq!(idx.fixes[1].parent, Some(0));
        // The inner T reads S's chain value, so stepping S invalidates T.
        assert_eq!(idx.rdeps[0], vec![1]);
        assert!(idx.rdeps[1].is_empty());
        assert!(idx.var_space >= 2);
    }

    #[test]
    fn parameterized_fix_is_unsupported() {
        // [lfp S(x1). S(x1) & x1 = x2](x1) — x2 leaks in from outside.
        let fix = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::rel_var("S", [v(0)]).and(Formula::Eq(v(0), v(1))),
            vec![v(0)],
        );
        let err = FixIndex::build(&fix, &[]).unwrap_err();
        assert!(err.0.contains("parameterized"));
    }

    #[test]
    fn negative_lfp_is_unsupported_but_pfp_is_fine() {
        let neg = |k: fn(&str, Vec<Var>, Formula, Vec<Term>) -> Formula| {
            k(
                "S",
                vec![Var(0)],
                Formula::rel_var("S", [v(0)]).not(),
                vec![v(0)],
            )
        };
        fn lfp(r: &str, b: Vec<Var>, f: Formula, a: Vec<Term>) -> Formula {
            Formula::lfp(r, b, f, a)
        }
        fn pfp(r: &str, b: Vec<Var>, f: Formula, a: Vec<Term>) -> Formula {
            Formula::pfp(r, b, f, a)
        }
        assert!(FixIndex::build(&neg(lfp), &[]).is_err());
        assert!(FixIndex::build(&neg(pfp), &[]).is_ok());
    }

    #[test]
    fn dangling_rel_var_needs_a_witness_declaration() {
        let atom = Formula::rel_var("W", [v(0)]);
        let q = atom.exists(Var(0));
        assert!(FixIndex::build(&q, &[]).is_err());
        let idx = FixIndex::build(&q, &["W".to_string()]).unwrap();
        assert!(idx.is_empty());
        // The witness atom resolves to no fixpoint.
        if let Formula::Exists(_, g) = &q {
            if let Formula::Atom(a) = g.as_ref() {
                assert_eq!(idx.fix_of_atom(a), None);
            } else {
                panic!("shape");
            }
        }
    }
}
