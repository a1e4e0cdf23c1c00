//! Derivation recording for certificate production.
//!
//! A derivation-tree certificate needs, for every derived tuple, the rule
//! that produced it and the premise tuple matched against each body atom.
//! [`rule_bindings`](crate::delta::rule_bindings) already enumerates one
//! tuple per satisfying valuation, so a [`Recorder`] is a sink of the
//! semi-naive loop ([`crate::eval::seminaive`]): each item keeps its
//! least valuation per head, and the first item to derive a fresh fact
//! has that valuation's body instantiated as the premises. Premises come
//! from the state at round start, so the recorded list is a proper tree
//! (premise pointers only reach backwards), and a fact first derived in
//! round `r` sits at depth `r` — in round `r > 1` every item binds one
//! atom to round `r - 1`'s fresh facts.

use bvq_relation::{Database, Elem, EvalConfig, FxHashMap, Tuple};

use crate::ast::{AtomTerm, DatalogError, Program, Rule};
use crate::delta::Bindings;
use crate::eval::{empty_idb, seminaive, EvalOutput};

/// One recorded derivation: rule index, derived head tuple, and one
/// premise tuple per body atom (in body order).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordedStep {
    /// Index of the producing rule in the program.
    pub rule: usize,
    /// The derived head tuple.
    pub head: Tuple,
    /// The premise tuple matched against each body atom.
    pub premises: Vec<Tuple>,
}

/// The recording sink: one derivation per derived fact, taken in the
/// round that first derives it.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Recorder {
    /// One step per derived fact, in round order; within a round by IDB
    /// predicate, then head tuple — so the list is the same for every
    /// thread count.
    pub steps: Vec<RecordedStep>,
    /// The last round that derived a fact (0 when nothing derives): the
    /// depth of the derivation tree.
    pub rounds: u64,
    /// The open round's steps, keyed by the head's IDB slot.
    round: Vec<(usize, RecordedStep)>,
}

impl Recorder {
    /// Records the derivation of fresh fact `head` (IDB slot `slot`) by
    /// rule `rule_index`, under valuation `val` of the variables `cols`.
    pub(crate) fn derive(
        &mut self,
        slot: usize,
        rule_index: usize,
        rule: &Rule,
        cols: &[u32],
        head: &Tuple,
        val: &Tuple,
    ) {
        let premises = rule
            .body
            .iter()
            .map(|atom| {
                Tuple::from_fn(atom.args.len(), |j| match &atom.args[j] {
                    AtomTerm::Const(c) => *c as Elem,
                    AtomTerm::Var(v) => val[column(cols, *v)],
                })
            })
            .collect();
        let step = RecordedStep {
            rule: rule_index,
            head: head.clone(),
            premises,
        };
        self.round.push((slot, step));
    }

    /// Closes round `round`, appending its steps in (slot, head) order.
    pub(crate) fn close_round(&mut self, round: u64) {
        if self.round.is_empty() {
            return;
        }
        self.round
            .sort_unstable_by(|(a, s), (b, t)| (a, &s.head).cmp(&(b, &t.head)));
        self.steps.extend(self.round.drain(..).map(|(_, s)| s));
        self.rounds = round;
    }
}

/// One item's derived heads under a recording sink, each with its least
/// valuation — the same valuation for every thread count, whatever order
/// the parallel kernels left the binding relation in.
pub(crate) struct Witnessed {
    cols: Vec<u32>,
    by_head: FxHashMap<Tuple, Tuple>,
}

impl Witnessed {
    pub(crate) fn new(rule: &Rule, bindings: Bindings) -> Self {
        let head_cols: Vec<usize> = rule
            .head
            .vars
            .iter()
            .map(|v| column(&bindings.cols, *v))
            .collect();
        let mut by_head: FxHashMap<Tuple, Tuple> = FxHashMap::default();
        for val in bindings.rel.iter() {
            let head = Tuple::from_fn(head_cols.len(), |j| val[head_cols[j]]);
            let least = by_head.entry(head).or_insert_with(|| val.clone());
            if val < least {
                *least = val.clone();
            }
        }
        Witnessed {
            cols: bindings.cols,
            by_head,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.by_head.len()
    }

    /// Each head with its valuation's columns and tuple.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&Tuple, Option<(&[u32], &Tuple)>)> {
        let cols = self.cols.as_slice();
        self.by_head.iter().map(move |(h, v)| (h, Some((cols, v))))
    }
}

/// The binding column of variable `v`.
fn column(cols: &[u32], v: u32) -> usize {
    cols.iter().position(|c| *c == v).expect("bound variable")
}

/// Evaluates `program` semi-naively from the empty IDB state, recording
/// one derivation per derived fact.
pub fn eval_recorded(
    program: &Program,
    db: &Database,
    cfg: &EvalConfig,
) -> Result<(EvalOutput, Recorder), DatalogError> {
    let mut idb = empty_idb(program, db)?;
    let mut recorder = Recorder::default();
    let run = seminaive(program, db, &mut idb, None, Some(&mut recorder), cfg)?;
    Ok((EvalOutput::new(idb, run.stats, run.trace), recorder))
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::ast::AtomTerm::Var;

    fn tc_program() -> Program {
        Program::new()
            .rule("T", &[0, 1], &[("E", &[Var(0), Var(1)])])
            .rule(
                "T",
                &[0, 2],
                &[("E", &[Var(0), Var(1)]), ("T", &[Var(1), Var(2)])],
            )
    }

    #[test]
    fn records_one_step_per_derived_tuple_with_backward_premises() {
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .build();
        let prog = tc_program();
        let (out, d) = eval_recorded(&prog, &db, &EvalConfig::sequential()).unwrap();
        let t = out.get("T").unwrap();
        assert_eq!(t.len(), 6); // full transitive closure of the path
        assert_eq!(d.steps.len(), 6);
        // Premises point strictly backwards: every IDB premise was
        // derived by an earlier step.
        let mut seen: Vec<&Tuple> = Vec::new();
        for s in &d.steps {
            for (atom, p) in prog.rules[s.rule].body.iter().zip(&s.premises) {
                if atom.pred == "T" {
                    assert!(seen.contains(&p), "premise {p:?} not yet derived");
                }
            }
            seen.push(&s.head);
        }
        // Path of 3 edges: longest chain T(0,3) needs depth 3.
        assert_eq!(d.rounds, 3);
        // Rounds in order, sorted by head within a round; the recursive
        // rule's delta atom sits at body position 1.
        let heads: Vec<&[Elem]> = d.steps.iter().map(|s| s.head.as_slice()).collect();
        assert_eq!(heads, [[0, 1], [1, 2], [2, 3], [0, 2], [1, 3], [0, 3]]);
    }

    #[test]
    fn steps_are_sorted_within_rounds_with_least_premises() {
        // On a 30-node path the fact T(x,z) is first derived in round
        // z − x, so the recorded order is (z − x, x). Hash order over
        // hundreds of facts is not that order.
        let db = Database::builder(30)
            .relation("E", 2, (0..29u32).map(|i| [i, i + 1]))
            .build();
        let (_, d) = eval_recorded(&tc_program(), &db, &EvalConfig::sequential()).unwrap();
        let heads: Vec<(Elem, Elem)> = d
            .steps
            .iter()
            .map(|s| (s.head[1] - s.head[0], s.head[0]))
            .collect();
        let mut sorted = heads.clone();
        sorted.sort_unstable();
        assert_eq!(heads, sorted);
        assert_eq!(d.rounds, 29);
        // Q(x) :- E(x,y) has 40 derivations of Q(0); the least valuation
        // supplies the premise.
        let p = Program::new().rule("Q", &[0], &[("E", &[Var(0), Var(1)])]);
        let db = Database::builder(50)
            .relation("E", 2, (0..40u32).rev().map(|y| [0, y + 7]))
            .build();
        let (_, d) = eval_recorded(&p, &db, &EvalConfig::sequential()).unwrap();
        assert_eq!(d.steps[0].premises, [Tuple::from_slice(&[0, 7])]);
    }

    #[test]
    fn empty_edb_derives_nothing() {
        let db = Database::builder(3)
            .relation("E", 2, [] as [[u32; 2]; 0])
            .build();
        let (out, d) = eval_recorded(&tc_program(), &db, &EvalConfig::sequential()).unwrap();
        assert!(d.steps.is_empty());
        assert_eq!(d.rounds, 0);
        assert_eq!(out.get("T").unwrap().len(), 0);
    }
}
