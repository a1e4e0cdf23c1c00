//! Compiled intermediate representation of formulas.
//!
//! Evaluation-time name resolution (database relations, recursion
//! variables, external relation variables) is done once here, producing an
//! arena of [`Node`]s with integer references. The compiler also performs
//! all validation the evaluators rely on:
//!
//! * the formula's width must not exceed the evaluator's bound `k`;
//! * database atoms must name existing relations with the right arity;
//! * `Lfp`/`Gfp` bodies must be positive in their recursion variables
//!   (§2.2), and fixpoint applications must match their binders' arities;
//! * `Pfp` is admitted only when the caller allows it (the FP evaluator of
//!   Theorem 3.5 must not see partial fixpoints).
//!
//! Every fixpoint operator receives a stable index (`FixId`), which is what
//! the Emerson–Lei strategy and the certificate system key their state on.

use std::sync::Arc;

use bvq_logic::{Atom, FixKind, Formula, RelRef, Term};
use bvq_relation::{Database, RelId};

use crate::delta::{self, Ineligible, Seminaive};
use crate::EvalError;

/// Reference to a node in the arena.
pub(crate) type NodeRef = u32;

/// Index of a fixpoint operator.
pub(crate) type FixId = usize;

/// Where an atom's relation comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum AtomSource {
    /// A database relation.
    Db(RelId),
    /// The recursion variable of the fixpoint with this id.
    Fix(FixId),
    /// A caller-bound external relation (slot into the externals list).
    External(usize),
}

/// A compiled formula node.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Node {
    Const(bool),
    Atom { source: AtomSource, args: Vec<Term> },
    Eq(Term, Term),
    Not(NodeRef),
    And(NodeRef, NodeRef),
    Or(NodeRef, NodeRef),
    Exists(usize, NodeRef),
    Forall(usize, NodeRef),
    Fix { fix: FixId },
}

/// Metadata for one fixpoint operator.
#[derive(Clone, Debug)]
pub(crate) struct FixInfo {
    /// The recursion variable's surface name (diagnostics, trace spans).
    pub name: String,
    pub kind: FixKind,
    /// Bound coordinates (variable indices).
    pub bound: Vec<usize>,
    /// The operator body.
    pub body: NodeRef,
    /// Application argument terms (`len == bound.len()`).
    pub args: Vec<Term>,
    /// Fix ids of *top-level* fixpoints inside `body` (not nested within a
    /// deeper fixpoint) whose kind differs — the ones the Emerson–Lei
    /// strategy must reset whenever this fixpoint's value changes.
    pub toplevel_opposite: Vec<FixId>,
    /// All fixpoints nested anywhere inside `body`.
    pub descendants: Vec<FixId>,
    /// The seminaive round plan, or why this fixpoint keeps naive rounds
    /// (decided here once, so the interpreter and the bytecode agree).
    pub seminaive: Result<Arc<Seminaive>, Ineligible>,
}

/// A compiled formula.
#[derive(Clone, Debug)]
pub(crate) struct Program {
    pub nodes: Vec<Node>,
    pub root: NodeRef,
    pub fixes: Vec<FixInfo>,
    /// External relation variables: `(name, arity)`, slot-indexed.
    pub externals: Vec<(String, usize)>,
    /// The formula width (≤ the evaluator's k).
    pub width: usize,
}

/// Longest rendered subformula in a trace-span detail.
const DETAIL_MAX: usize = 64;

impl Program {
    /// The span kind for a node: the operator it applies.
    pub(crate) fn node_kind(&self, r: NodeRef) -> &'static str {
        match &self.nodes[r as usize] {
            Node::Const(_) => "const",
            Node::Eq(..) => "eq",
            Node::Atom { source, .. } => match source {
                AtomSource::Db(_) => "atom",
                AtomSource::Fix(_) => "recvar",
                AtomSource::External(_) => "extvar",
            },
            Node::Not(_) => "not",
            Node::And(..) => "and",
            Node::Or(..) => "or",
            Node::Exists(..) => "exists",
            Node::Forall(..) => "forall",
            Node::Fix { fix } => match self.fixes[*fix].kind {
                FixKind::Lfp => "lfp",
                FixKind::Gfp => "gfp",
                FixKind::Ifp => "ifp",
                FixKind::Pfp => "pfp",
            },
        }
    }

    /// Renders the subformula rooted at `r` back to (truncated) surface
    /// syntax, resolving relation ids to their database names. Used for
    /// the `detail` field of trace spans, so the output depends only on
    /// the compiled program and the schema — never on evaluation order.
    pub(crate) fn render_node(&self, r: NodeRef, db: &Database) -> String {
        let mut out = String::new();
        self.write_node(r, db, &mut out);
        bvq_relation::trace::truncate_detail(&out, DETAIL_MAX)
    }

    fn write_node(&self, r: NodeRef, db: &Database, out: &mut String) {
        use std::fmt::Write;
        // Truncation happens at the end; stop descending once the buffer
        // is already over the limit so huge formulas stay cheap.
        if out.chars().count() > DETAIL_MAX {
            return;
        }
        match &self.nodes[r as usize] {
            Node::Const(b) => out.push_str(if *b { "true" } else { "false" }),
            Node::Eq(a, b) => {
                let _ = write!(out, "{a} = {b}");
            }
            Node::Atom { source, args } => {
                let name = match source {
                    AtomSource::Db(id) => db.schema().name(*id),
                    AtomSource::Fix(fix) => self.fixes[*fix].name.as_str(),
                    AtomSource::External(slot) => self.externals[*slot].0.as_str(),
                };
                out.push_str(name);
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{a}");
                }
                out.push(')');
            }
            Node::Not(g) => {
                out.push('~');
                self.write_node(*g, db, out);
            }
            Node::And(a, b) | Node::Or(a, b) => {
                let sep = if matches!(self.nodes[r as usize], Node::And(..)) {
                    " & "
                } else {
                    " | "
                };
                out.push('(');
                self.write_node(*a, db, out);
                out.push_str(sep);
                self.write_node(*b, db, out);
                out.push(')');
            }
            Node::Exists(v, g) | Node::Forall(v, g) => {
                let q = if matches!(self.nodes[r as usize], Node::Exists(..)) {
                    "exists"
                } else {
                    "forall"
                };
                let _ = write!(out, "{q} x{}. ", v + 1);
                self.write_node(*g, db, out);
            }
            Node::Fix { fix } => {
                let info = &self.fixes[*fix];
                let _ = write!(out, "[{} {}(", self.node_kind(r), info.name);
                for (i, v) in info.bound.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "x{}", v + 1);
                }
                out.push_str("). ");
                self.write_node(info.body, db, out);
                out.push_str("](");
                for (i, a) in info.args.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{a}");
                }
                out.push(')');
            }
        }
    }
}

/// Compilation options.
pub(crate) struct CompileOpts {
    /// Maximum admissible width.
    pub k: usize,
    /// Whether partial fixpoints are admitted.
    pub allow_pfp: bool,
    /// Whether any fixpoints are admitted at all (false for pure FO).
    pub allow_fix: bool,
}

struct Compiler<'d> {
    db: &'d Database,
    nodes: Vec<Node>,
    fixes: Vec<FixInfo>,
    externals: Vec<(String, usize)>,
    /// Stack of (name, fix id) for in-scope recursion variables.
    scope: Vec<(String, FixId)>,
    opts: CompileOpts,
}

/// Compiles `formula` against `db`. External relation variables (free
/// relation variables of the formula) must be declared in `externals`.
pub(crate) fn compile(
    formula: &Formula,
    db: &Database,
    externals: &[(String, usize)],
    opts: CompileOpts,
) -> Result<Program, EvalError> {
    let width = formula.width();
    if width > opts.k {
        return Err(EvalError::WidthExceeded { k: opts.k, width });
    }
    // Positivity / arity validation once, via the logic crate.
    formula.validate_fp().map_err(|e| match e {
        bvq_logic::LogicError::NotPositive(n) => EvalError::NotPositive(n),
        bvq_logic::LogicError::RelArityMismatch {
            name,
            expected,
            found,
        } => EvalError::ArityMismatch {
            name,
            expected,
            found,
        },
        other => EvalError::UnsupportedConstruct(match other {
            bvq_logic::LogicError::DuplicateBoundVariable(_) => "duplicate bound variable",
            _ => "invalid fixpoint structure",
        }),
    })?;
    let mut c = Compiler {
        db,
        nodes: Vec::new(),
        fixes: Vec::new(),
        externals: externals.to_vec(),
        scope: Vec::new(),
        opts,
    };
    let root = c.go(formula)?;
    Ok(Program {
        nodes: c.nodes,
        root,
        fixes: c.fixes,
        externals: c.externals,
        width,
    })
}

impl Compiler<'_> {
    fn push(&mut self, node: Node) -> NodeRef {
        let r = self.nodes.len() as NodeRef;
        self.nodes.push(node);
        r
    }

    fn go(&mut self, f: &Formula) -> Result<NodeRef, EvalError> {
        match f {
            Formula::Const(b) => Ok(self.push(Node::Const(*b))),
            Formula::Eq(a, b) => Ok(self.push(Node::Eq(*a, *b))),
            Formula::Atom(Atom { rel, args }) => {
                let source = match rel {
                    RelRef::Db(name) => {
                        let id = self
                            .db
                            .schema()
                            .resolve(name)
                            .ok_or_else(|| EvalError::UnknownRelation(name.clone()))?;
                        let arity = self.db.schema().arity(id);
                        if arity != args.len() {
                            return Err(EvalError::ArityMismatch {
                                name: name.clone(),
                                expected: arity,
                                found: args.len(),
                            });
                        }
                        AtomSource::Db(id)
                    }
                    RelRef::Bound(name) => {
                        if let Some((_, fix)) = self.scope.iter().rev().find(|(n, _)| n == name) {
                            let fix = *fix;
                            if self.fixes[fix].bound.len() != args.len() {
                                return Err(EvalError::ArityMismatch {
                                    name: name.clone(),
                                    expected: self.fixes[fix].bound.len(),
                                    found: args.len(),
                                });
                            }
                            AtomSource::Fix(fix)
                        } else if let Some(slot) =
                            self.externals.iter().position(|(n, _)| n == name)
                        {
                            if self.externals[slot].1 != args.len() {
                                return Err(EvalError::ArityMismatch {
                                    name: name.clone(),
                                    expected: self.externals[slot].1,
                                    found: args.len(),
                                });
                            }
                            AtomSource::External(slot)
                        } else {
                            return Err(EvalError::UnboundRelVar(name.clone()));
                        }
                    }
                };
                Ok(self.push(Node::Atom {
                    source,
                    args: args.clone(),
                }))
            }
            Formula::Not(g) => {
                let c = self.go(g)?;
                Ok(self.push(Node::Not(c)))
            }
            Formula::And(a, b) => {
                let (a, b) = (self.go(a)?, self.go(b)?);
                Ok(self.push(Node::And(a, b)))
            }
            Formula::Or(a, b) => {
                let (a, b) = (self.go(a)?, self.go(b)?);
                Ok(self.push(Node::Or(a, b)))
            }
            Formula::Exists(v, g) => {
                let c = self.go(g)?;
                Ok(self.push(Node::Exists(v.index(), c)))
            }
            Formula::Forall(v, g) => {
                let c = self.go(g)?;
                Ok(self.push(Node::Forall(v.index(), c)))
            }
            Formula::Fix {
                kind,
                rel,
                bound,
                body,
                args,
            } => {
                if !self.opts.allow_fix {
                    return Err(EvalError::UnsupportedConstruct(
                        "fixpoint operator in a first-order evaluator",
                    ));
                }
                if matches!(kind, FixKind::Pfp | FixKind::Ifp) && !self.opts.allow_pfp {
                    return Err(EvalError::UnsupportedConstruct(
                        "partial/inflationary fixpoint in the FP evaluator (use PfpEvaluator)",
                    ));
                }
                let fix_id: FixId = self.fixes.len();
                self.fixes.push(FixInfo {
                    name: rel.clone(),
                    kind: *kind,
                    bound: bound.iter().map(|v| v.index()).collect(),
                    body: 0, // patched below
                    args: args.clone(),
                    toplevel_opposite: Vec::new(),
                    descendants: Vec::new(),
                    seminaive: delta::plan(*kind, rel, bound, body).map(Arc::new),
                });
                self.scope.push((rel.clone(), fix_id));
                let body_ref = self.go(body);
                self.scope.pop();
                let body_ref = body_ref?;
                // Descendants: every fix created after this one, during the
                // body compilation.
                let descendants: Vec<FixId> = (fix_id + 1..self.fixes.len()).collect();
                // Top-level: descendants not themselves inside another
                // descendant's body.
                let mut covered = vec![false; self.fixes.len()];
                for &d in &descendants {
                    for &dd in &self.fixes[d].descendants {
                        covered[dd] = true;
                    }
                }
                let toplevel_opposite: Vec<FixId> = descendants
                    .iter()
                    .copied()
                    .filter(|&d| !covered[d] && self.fixes[d].kind != *kind)
                    .collect();
                let info = &mut self.fixes[fix_id];
                info.body = body_ref;
                info.descendants = descendants;
                info.toplevel_opposite = toplevel_opposite;
                Ok(self.push(Node::Fix { fix: fix_id }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::Var;
    use bvq_relation::Relation;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn db() -> Database {
        Database::builder(3)
            .relation("E", 2, [[0u32, 1]])
            .relation("P", 1, [[0u32]])
            .relation_from("Q", Relation::new(3))
            .build()
    }

    fn opts(k: usize) -> CompileOpts {
        CompileOpts {
            k,
            allow_pfp: true,
            allow_fix: true,
        }
    }

    #[test]
    fn compiles_and_resolves() {
        let db = db();
        let f = Formula::atom("E", [v(0), v(1)]).and(Formula::atom("P", [v(0)]).not());
        let p = compile(&f, &db, &[], opts(2)).unwrap();
        assert_eq!(p.width, 2);
        assert_eq!(p.fixes.len(), 0);
        assert!(matches!(p.nodes[p.root as usize], Node::And(..)));
    }

    #[test]
    fn rejects_unknown_relation_and_arity() {
        let db = db();
        let f = Formula::atom("Z", [v(0)]);
        assert!(matches!(
            compile(&f, &db, &[], opts(2)),
            Err(EvalError::UnknownRelation(_))
        ));
        let g = Formula::atom("E", [v(0)]);
        assert!(matches!(
            compile(&g, &db, &[], opts(2)),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn rejects_width_overflow() {
        let db = db();
        let f = Formula::atom("Q", [v(0), v(1), v(2)]);
        assert!(matches!(
            compile(&f, &db, &[], opts(2)),
            Err(EvalError::WidthExceeded { k: 2, width: 3 })
        ));
        assert!(compile(&f, &db, &[], opts(3)).is_ok());
    }

    #[test]
    fn resolves_external_and_fix_variables() {
        let db = db();
        let fixf = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::rel_var("S", [v(0)]).or(Formula::rel_var("X", [v(0)])),
            vec![v(0)],
        );
        let p = compile(&fixf, &db, &[("X".to_string(), 1)], opts(2)).unwrap();
        assert_eq!(p.fixes.len(), 1);
        // Unbound without the external declaration.
        assert!(matches!(
            compile(&fixf, &db, &[], opts(2)),
            Err(EvalError::UnboundRelVar(_))
        ));
    }

    #[test]
    fn fix_metadata_tracks_alternation_structure() {
        let db = db();
        // ν P. ( μ Q. (Q ∨ P) ∧ ν R. (R ∧ P) )  — P has two top-level
        // children: Q (opposite) and R (same kind).
        let mu_q = Formula::lfp(
            "Qv",
            vec![Var(0)],
            Formula::rel_var("Qv", [v(0)]).or(Formula::rel_var("Pv", [v(0)])),
            vec![v(0)],
        );
        let nu_r = Formula::gfp(
            "Rv",
            vec![Var(0)],
            Formula::rel_var("Rv", [v(0)]).and(Formula::rel_var("Pv", [v(0)])),
            vec![v(0)],
        );
        let f = Formula::gfp("Pv", vec![Var(0)], mu_q.and(nu_r), vec![v(0)]);
        let p = compile(&f, &db, &[], opts(1)).unwrap();
        assert_eq!(p.fixes.len(), 3);
        let outer = &p.fixes[0];
        assert_eq!(outer.kind, FixKind::Gfp);
        assert_eq!(outer.descendants, vec![1, 2]);
        assert_eq!(outer.toplevel_opposite.len(), 1);
        assert_eq!(p.fixes[outer.toplevel_opposite[0]].kind, FixKind::Lfp);
    }

    #[test]
    fn pfp_gating() {
        let db = db();
        let f = Formula::pfp(
            "S",
            vec![Var(0)],
            Formula::rel_var("S", [v(0)]).not(),
            vec![v(0)],
        );
        assert!(compile(&f, &db, &[], opts(2)).is_ok());
        let no_pfp = CompileOpts {
            k: 2,
            allow_pfp: false,
            allow_fix: true,
        };
        assert!(matches!(
            compile(&f, &db, &[], no_pfp),
            Err(EvalError::UnsupportedConstruct(_))
        ));
        let no_fix = CompileOpts {
            k: 2,
            allow_pfp: false,
            allow_fix: false,
        };
        assert!(matches!(
            compile(&f, &db, &[], no_fix),
            Err(EvalError::UnsupportedConstruct(_))
        ));
    }

    #[test]
    fn renders_nodes_for_trace_spans() {
        let db = db();
        let f = Formula::atom("E", [v(0), v(1)])
            .and(Formula::atom("P", [v(0)]).not())
            .exists(Var(1));
        let p = compile(&f, &db, &[], opts(2)).unwrap();
        assert_eq!(p.node_kind(p.root), "exists");
        assert_eq!(p.render_node(p.root, &db), "exists x2. (E(x1,x2) & ~P(x1))");
        let fixf = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::rel_var("S", [v(0)]).or(Formula::atom("P", [v(0)])),
            vec![v(0)],
        );
        let p = compile(&fixf, &db, &[], opts(2)).unwrap();
        assert_eq!(p.node_kind(p.root), "lfp");
        assert_eq!(
            p.render_node(p.root, &db),
            "[lfp S(x1). (S(x1) | P(x1))](x1)"
        );
        // Huge formulas truncate with an ellipsis instead of exploding.
        let mut big = Formula::atom("P", [v(0)]);
        for _ in 0..100 {
            big = big.and(Formula::atom("P", [v(0)]));
        }
        let p = compile(&big, &db, &[], opts(2)).unwrap();
        let detail = p.render_node(p.root, &db);
        assert!(detail.chars().count() <= 64);
        assert!(detail.ends_with('…'));
    }

    #[test]
    fn rejects_negative_recursion() {
        let db = db();
        let f = Formula::lfp(
            "S",
            vec![Var(0)],
            Formula::rel_var("S", [v(0)]).not(),
            vec![v(0)],
        );
        assert!(matches!(
            compile(&f, &db, &[], opts(2)),
            Err(EvalError::NotPositive(_))
        ));
    }
}
