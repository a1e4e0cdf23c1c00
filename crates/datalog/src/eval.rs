//! Naive and semi-naive Datalog evaluation.
//!
//! Both compute the least model of the program over the database's EDB
//! relations. The naive evaluator re-derives everything each round; it
//! is the reference the `datalog-naive-vs-seminaive` fuzz oracle checks
//! the semi-naive loop against. The semi-naive loop, [`seminaive`],
//! joins each rule once per IDB body atom against that atom's *delta*
//! (tuples new in the previous round), delta atom first. It is the only
//! Datalog round loop: cold evaluation ([`eval_seminaive_with`]),
//! derivation recording for certificates ([`crate::eval_recorded`]) and
//! incremental view maintenance (`bvq-ivm`, which continues from a
//! materialized state with a mutation as the seed) all run it.
//!
//! The items of a round read the pre-round IDB state, so they are
//! independent. With an [`EvalConfig`] of more than one thread they
//! evaluate on scoped worker threads once the round's input reaches
//! [`parallel::PAR_THRESHOLD`] tuples, and the joins inside an item use
//! the partitioned relational kernels. Derived tuples are absorbed in
//! item order after the round's barrier, and all merges are set unions,
//! so the computed least model — and the statistics — are identical for
//! every thread count.

use bvq_relation::trace::truncate_detail;
use bvq_relation::{
    parallel, Database, EvalConfig, EvalStats, Relation, Span, StatsRecorder, Tracer, Tuple,
};

use crate::ast::{DatalogError, Program};
use crate::delta::{delta_first, project_head, rule_bindings, RelSource, View};
use crate::record::{Recorder, Witnessed};

/// The result of evaluating a program.
#[derive(Clone, Debug)]
pub struct EvalOutput {
    /// Computed IDB relations, keyed by predicate name (sorted).
    pub idb: Vec<(String, Relation)>,
    /// Rounds until fixpoint and intermediate-size statistics.
    pub stats: EvalStats,
    /// The span tree, when the config enables tracing
    /// ([`EvalConfig::with_trace`]): a `datalog` root with one `round`
    /// span per iteration, each holding one `rule` span per work item in
    /// item order — so the structure is identical for every thread count.
    pub trace: Option<Span>,
}

impl EvalOutput {
    /// Wraps a final IDB state, sorting it by predicate name.
    pub(crate) fn new(
        mut idb: Vec<(String, Relation)>,
        stats: EvalStats,
        trace: Option<Span>,
    ) -> Self {
        idb.sort_by(|a, b| a.0.cmp(&b.0));
        EvalOutput { idb, stats, trace }
    }

    /// Looks up a computed IDB relation.
    pub fn get(&self, pred: &str) -> Option<&Relation> {
        self.idb.iter().find(|(p, _)| p == pred).map(|(_, r)| r)
    }
}

/// What a [`seminaive`] run reports besides the IDB it absorbed into.
#[derive(Clone, Debug)]
pub struct Rounds {
    /// For a seeded run, the tuples it added, one relation per IDB
    /// entry (in the order of the state it was given). An unseeded run
    /// leaves them empty rather than hold a second copy of everything
    /// it derives.
    pub fresh: Vec<Relation>,
    /// Rounds run and intermediate-size statistics.
    pub stats: EvalStats,
    /// The span tree, when the config enables tracing.
    pub trace: Option<Span>,
}

/// The empty IDB state of `program` over `db`, one entry per IDB
/// predicate. Validates the program and checks that every body
/// predicate is IDB or a database relation of matching arity.
pub fn empty_idb(
    program: &Program,
    db: &Database,
) -> Result<Vec<(String, Relation)>, DatalogError> {
    program.validate()?;
    let idb: Vec<(String, Relation)> = program
        .idb_predicates()
        .into_iter()
        .map(|(p, a)| (p, Relation::new(a)))
        .collect();
    for atom in program.rules.iter().flat_map(|r| &r.body) {
        if idb.iter().any(|(p, _)| *p == atom.pred) {
            continue;
        }
        match db.relation_by_name(&atom.pred) {
            None => return Err(DatalogError::UnknownPredicate(atom.pred.clone())),
            Some(r) if r.arity() != atom.args.len() => {
                return Err(DatalogError::ArityMismatch {
                    pred: atom.pred.clone(),
                    expected: r.arity(),
                    found: atom.args.len(),
                })
            }
            Some(_) => {}
        }
    }
    Ok(idb)
}

/// Evaluates `program` naively: every round recomputes every rule against
/// the full current IDB state, until no new tuples appear. Thread count
/// from [`EvalConfig::default`].
pub fn eval_naive(program: &Program, db: &Database) -> Result<EvalOutput, DatalogError> {
    eval_naive_with(program, db, &EvalConfig::default())
}

/// [`eval_naive`] with an explicit parallel-evaluation configuration.
pub fn eval_naive_with(
    program: &Program,
    db: &Database,
    cfg: &EvalConfig,
) -> Result<EvalOutput, DatalogError> {
    let mut idb = empty_idb(program, db)?;
    let heads = slots_of(&idb, program.rules.iter().map(|r| r.head.pred.as_str()));
    let items: Vec<Item<'_>> = (0..program.rules.len()).map(Item::full).collect();
    let mut rec = StatsRecorder::new();
    let mut tracer = Tracer::new(cfg.trace());
    let traced = tracer.is_enabled();
    if traced {
        tracer.open(); // the `datalog` root
    }
    let mut round: u64 = 0;
    loop {
        check_deadline(cfg)?;
        rec.iteration();
        round += 1;
        if traced {
            tracer.open();
        }
        let view = View { db, idb: &idb };
        let derived = eval_round(program, &view, &items, false, cfg, &mut rec)?;
        let mut changed = false;
        let mut round_rows = 0;
        for (item, d) in items.iter().zip(derived) {
            if traced {
                round_rows += d.len();
                tracer.attach(rule_span(program, item, &d));
            }
            let slot = &mut idb[heads[item.rule]].1;
            for (t, _) in d.derivations() {
                changed |= slot.insert(t.clone());
            }
        }
        if traced {
            tracer.close(
                "round",
                format!("{} rules", items.len()),
                0,
                round_rows,
                Some(round),
            );
        }
        if !changed {
            break;
        }
    }
    close_root(&mut tracer, "naive", &idb);
    Ok(EvalOutput::new(idb, rec.stats(), tracer.finish()))
}

/// Evaluates `program` semi-naively from the empty IDB state (see
/// [`seminaive`]). Thread count from [`EvalConfig::default`].
pub fn eval_seminaive(program: &Program, db: &Database) -> Result<EvalOutput, DatalogError> {
    eval_seminaive_with(program, db, &EvalConfig::default())
}

/// [`eval_seminaive`] with an explicit parallel-evaluation configuration.
pub fn eval_seminaive_with(
    program: &Program,
    db: &Database,
    cfg: &EvalConfig,
) -> Result<EvalOutput, DatalogError> {
    let mut idb = empty_idb(program, db)?;
    let run = seminaive(program, db, &mut idb, None, None, cfg)?;
    Ok(EvalOutput::new(idb, run.stats, run.trace))
}

/// Runs semi-naive rounds to fixpoint over `db`, continuing from — and
/// absorbing into — the IDB state `idb`, which holds one entry per IDB
/// predicate of `program` (as [`empty_idb`] builds it, after checking
/// the program).
///
/// `seed` chooses round 1. With `None` every rule is evaluated in full
/// against the current state. With `Some(seed)` each body atom whose
/// predicate the seed names is bound to the seeded tuples, delta atom
/// first, while every other position reads the full state, so a point
/// insert costs `O(|Δ| ⋈ …)`, not `O(|IDB|)`. Every later round binds
/// the IDB atoms to the previous round's fresh tuples the same way.
///
/// `sink`, when given, receives one derivation per fresh fact, taken in
/// the round that first derives it.
pub fn seminaive(
    program: &Program,
    db: &Database,
    idb: &mut [(String, Relation)],
    seed: Option<&[(&str, &Relation)]>,
    mut sink: Option<&mut Recorder>,
    cfg: &EvalConfig,
) -> Result<Rounds, DatalogError> {
    let heads = slots_of(idb, program.rules.iter().map(|r| r.head.pred.as_str()));
    // The IDB slot each body atom reads, if it reads one.
    let body: Vec<Vec<Option<usize>>> = program
        .rules
        .iter()
        .map(|r| {
            r.body
                .iter()
                .map(|a| idb.iter().position(|(p, _)| *p == a.pred))
                .collect()
        })
        .collect();
    let arities: Vec<usize> = idb.iter().map(|(_, r)| r.arity()).collect();
    let empty = || -> Vec<Relation> { arities.iter().map(|&a| Relation::new(a)).collect() };
    let mut fresh = empty();
    let mut deltas = empty();
    let mut rec = StatsRecorder::new();
    let mut tracer = Tracer::new(cfg.trace());
    let traced = tracer.is_enabled();
    if traced {
        tracer.open(); // the `datalog` root
    }
    let mut round: u64 = 0;
    loop {
        let items: Vec<Item<'_>> = match (round, seed) {
            (0, None) => (0..program.rules.len()).map(Item::full).collect(),
            (0, Some(seed)) => delta_items(program, |r, pos| {
                let pred = &program.rules[r].body[pos].pred;
                seed.iter()
                    .find(|(p, _)| *p == pred.as_str())
                    .map(|(_, d)| *d)
            }),
            _ if deltas.iter().all(Relation::is_empty) => break,
            _ => delta_items(program, |r, pos| body[r][pos].map(|i| &deltas[i])),
        };
        check_deadline(cfg)?;
        rec.iteration();
        round += 1;
        if traced {
            tracer.open();
        }
        let view = View { db, idb: &*idb };
        let derived = eval_round(program, &view, &items, sink.is_some(), cfg, &mut rec)?;
        let mut next = empty();
        let mut round_rows = 0;
        for (item, d) in items.iter().zip(&derived) {
            if traced {
                round_rows += d.len();
                tracer.attach(rule_span(program, item, d));
            }
            let slot = heads[item.rule];
            for (t, witness) in d.derivations() {
                // The first item to derive a fact supplies its derivation.
                if !idb[slot].1.contains(t) && next[slot].insert(t.clone()) {
                    if let (Some(sink), Some((cols, val))) = (sink.as_deref_mut(), witness) {
                        sink.derive(slot, item.rule, &program.rules[item.rule], cols, t, val);
                    }
                }
            }
        }
        if let Some(sink) = sink.as_deref_mut() {
            sink.close_round(round);
        }
        if traced {
            let unit = if round == 1 && seed.is_none() {
                "rules"
            } else {
                "items"
            };
            tracer.close(
                "round",
                format!("{} {unit}", items.len()),
                0,
                round_rows,
                Some(round),
            );
        }
        drop(items);
        for (slot, d) in next.iter().enumerate() {
            for t in d.iter() {
                idb[slot].1.insert(t.clone());
                if seed.is_some() {
                    fresh[slot].insert(t.clone());
                }
            }
        }
        deltas = next;
    }
    close_root(&mut tracer, "seminaive", idb);
    Ok(Rounds {
        fresh,
        stats: rec.stats(),
        trace: tracer.finish(),
    })
}

/// One independent unit of a round: a rule (by index), optionally with
/// one body position bound to a delta relation.
struct Item<'a> {
    rule: usize,
    delta: Option<(usize, &'a Relation)>,
}

impl Item<'_> {
    fn full(rule: usize) -> Self {
        Item { rule, delta: None }
    }
}

/// What one item derived, and its wall time in nanoseconds (0 unless
/// tracing).
struct Derived {
    heads: Heads,
    elapsed_ns: u64,
}

/// An item's head tuples: a plain set, or under a recording sink each
/// head with its least valuation.
enum Heads {
    Plain(Relation),
    Witnessed(Witnessed),
}

impl Derived {
    fn len(&self) -> usize {
        match &self.heads {
            Heads::Plain(r) => r.len(),
            Heads::Witnessed(w) => w.len(),
        }
    }

    /// Each head tuple, with its valuation's columns and tuple when
    /// witnessed.
    fn derivations(&self) -> impl Iterator<Item = (&Tuple, Option<(&[u32], &Tuple)>)> {
        let (plain, witnessed) = match &self.heads {
            Heads::Plain(r) => (Some(r), None),
            Heads::Witnessed(w) => (None, Some(w)),
        };
        let plain = plain.into_iter().flat_map(|r| r.iter().map(|t| (t, None)));
        plain.chain(witnessed.into_iter().flat_map(Witnessed::iter))
    }
}

/// The items binding each body position for which `delta_of` supplies a
/// non-empty relation, in rule then body order.
fn delta_items<'a>(
    program: &Program,
    delta_of: impl Fn(usize, usize) -> Option<&'a Relation>,
) -> Vec<Item<'a>> {
    let mut items = Vec::new();
    for (rule, r) in program.rules.iter().enumerate() {
        for pos in 0..r.body.len() {
            if let Some(d) = delta_of(rule, pos).filter(|d| !d.is_empty()) {
                items.push(Item {
                    rule,
                    delta: Some((pos, d)),
                });
            }
        }
    }
    items
}

/// The IDB slot of each predicate in `preds`.
fn slots_of<'p>(idb: &[(String, Relation)], preds: impl Iterator<Item = &'p str>) -> Vec<usize> {
    preds
        .map(|p| idb.iter().position(|(q, _)| q == p).expect("idb predicate"))
        .collect()
}

/// One completed item as a span: the rule text (with the delta-bound
/// body position), head arity, derived tuple count, and the measured
/// wall time.
fn rule_span(program: &Program, item: &Item<'_>, derived: &Derived) -> Span {
    let rule = &program.rules[item.rule];
    let mut detail = truncate_detail(&rule.to_string(), 64);
    if let Some((pos, _)) = item.delta {
        detail.push_str(&format!(" [Δ{pos}]"));
    }
    let mut s = Span::leaf("rule", detail, rule.head.vars.len(), derived.len());
    s.elapsed_ns = derived.elapsed_ns;
    s
}

/// Closes the `datalog` root span over the final IDB state.
fn close_root(tracer: &mut Tracer, strategy: &str, idb: &[(String, Relation)]) {
    if tracer.is_enabled() {
        let arity = idb.iter().map(|(_, r)| r.arity()).max().unwrap_or(0);
        let rows = idb.iter().map(|(_, r)| r.len()).sum();
        tracer.close("datalog", strategy, arity, rows, None);
    }
}

/// Aborts with [`DatalogError::DeadlineExceeded`] once the config's
/// deadline has passed. Checked at round boundaries only, so evaluation
/// never exposes a half-absorbed round.
fn check_deadline(cfg: &EvalConfig) -> Result<(), DatalogError> {
    if cfg.deadline_exceeded() {
        Err(DatalogError::DeadlineExceeded)
    } else {
        Ok(())
    }
}

/// Evaluates a round's items. They run on scoped worker threads only
/// when the config asks for more than one and the round reads at least
/// [`parallel::PAR_THRESHOLD`] input tuples — its deltas, or the first
/// body relation of a full item — so point-sized rounds stay on the
/// calling thread. Results come back in item order; worker-local
/// statistics are merged into `rec` (`EvalStats::merge` is commutative
/// up to the final value, so the totals match the sequential run).
fn eval_round(
    program: &Program,
    view: &View<'_>,
    items: &[Item<'_>],
    witnessed: bool,
    cfg: &EvalConfig,
    rec: &mut StatsRecorder,
) -> Result<Vec<Derived>, DatalogError> {
    let timed = cfg.trace();
    let run_item = |item: &Item<'_>, rec: &mut StatsRecorder| -> Result<Derived, DatalogError> {
        let start = timed.then(std::time::Instant::now);
        let rule = delta_first(
            &program.rules[item.rule],
            item.delta.map_or(0, |(pos, _)| pos),
        );
        let bindings = rule_bindings(&rule, &[item.delta.map(|(_, d)| d)], view, cfg, rec)?;
        Ok(Derived {
            heads: if witnessed {
                Heads::Witnessed(Witnessed::new(&rule, bindings))
            } else {
                Heads::Plain(project_head(&rule, &bindings, cfg))
            },
            elapsed_ns: start.map_or(0, |s| s.elapsed().as_nanos() as u64),
        })
    };
    let input: usize = items
        .iter()
        .map(|item| match item.delta {
            Some((_, d)) => d.len(),
            None => program.rules[item.rule]
                .body
                .first()
                .and_then(|a| view.rel(&a.pred))
                .map_or(0, Relation::len),
        })
        .sum();
    if cfg.is_sequential() || items.len() <= 1 || input < parallel::PAR_THRESHOLD {
        return items.iter().map(|item| run_item(item, rec)).collect();
    }
    let chunks = parallel::map_chunks(cfg.threads(), items.len(), |range| {
        let mut local = StatsRecorder::new();
        let out: Result<Vec<Derived>, DatalogError> = items[range]
            .iter()
            .map(|item| run_item(item, &mut local))
            .collect();
        (out, local.stats())
    });
    let mut derived = Vec::with_capacity(items.len());
    for (out, stats) in chunks {
        derived.extend(out?);
        rec.absorb(&stats);
    }
    Ok(derived)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::AtomTerm::{Const, Var};
    use bvq_relation::Tuple;

    fn tc_program() -> Program {
        Program::new()
            .rule("T", &[0, 1], &[("E", &[Var(0), Var(1)])])
            .rule(
                "T",
                &[0, 1],
                &[("T", &[Var(0), Var(2)]), ("E", &[Var(2), Var(1)])],
            )
    }

    fn chain_db(n: u32) -> Database {
        Database::builder(n as usize)
            .relation("E", 2, (0..n - 1).map(|i| Tuple::from_slice(&[i, i + 1])))
            .build()
    }

    #[test]
    fn transitive_closure_naive() {
        let db = chain_db(5);
        let out = eval_naive(&tc_program(), &db).unwrap();
        let t = out.get("T").unwrap();
        assert_eq!(t.len(), 4 + 3 + 2 + 1);
        assert!(t.contains(&[0, 4]));
        assert!(!t.contains(&[4, 0]));
    }

    #[test]
    fn seminaive_agrees_with_naive() {
        let db = chain_db(7);
        let a = eval_naive(&tc_program(), &db).unwrap();
        let b = eval_seminaive(&tc_program(), &db).unwrap();
        assert_eq!(a.get("T").unwrap().sorted(), b.get("T").unwrap().sorted());
    }

    #[test]
    fn seminaive_materialises_less() {
        let db = chain_db(16);
        let a = eval_naive(&tc_program(), &db).unwrap();
        let b = eval_seminaive(&tc_program(), &db).unwrap();
        assert!(
            b.stats.total_tuples < a.stats.total_tuples,
            "semi-naive {} ≥ naive {}",
            b.stats.total_tuples,
            a.stats.total_tuples
        );
    }

    #[test]
    fn constants_in_bodies() {
        // Reach(x) :- E(0, x);  Reach(x) :- Reach(y), E(y, x).
        let p = Program::new()
            .rule("Reach", &[0], &[("E", &[Const(0), Var(0)])])
            .rule(
                "Reach",
                &[0],
                &[("Reach", &[Var(1)]), ("E", &[Var(1), Var(0)])],
            );
        let db = chain_db(4);
        let out = eval_seminaive(&p, &db).unwrap();
        let r = out.get("Reach").unwrap();
        assert_eq!(
            r.sorted(),
            Relation::from_tuples(1, [[1u32], [2], [3]]).sorted()
        );
    }

    #[test]
    fn mutual_recursion() {
        // Even/Odd distance from node 0 along the chain.
        let p = Program::new()
            .rule("Even", &[0], &[("Z", &[Var(0)])])
            .rule(
                "Even",
                &[0],
                &[("Odd", &[Var(1)]), ("E", &[Var(1), Var(0)])],
            )
            .rule(
                "Odd",
                &[0],
                &[("Even", &[Var(1)]), ("E", &[Var(1), Var(0)])],
            );
        let db = Database::builder(5)
            .relation("E", 2, (0u32..4).map(|i| [i, i + 1]))
            .relation("Z", 1, [[0u32]])
            .build();
        for eval in [eval_naive, eval_seminaive] {
            let out = eval(&p, &db).unwrap();
            assert_eq!(
                out.get("Even").unwrap().sorted(),
                Relation::from_tuples(1, [[0u32], [2], [4]]).sorted()
            );
            assert_eq!(
                out.get("Odd").unwrap().sorted(),
                Relation::from_tuples(1, [[1u32], [3]]).sorted()
            );
        }
    }

    #[test]
    fn trace_has_round_and_rule_spans() {
        let db = chain_db(5);
        let cfg = EvalConfig::sequential().with_trace(true);
        let out = eval_seminaive_with(&tc_program(), &db, &cfg).unwrap();
        let root = out.trace.as_ref().expect("trace enabled");
        assert_eq!(root.kind, "datalog");
        assert_eq!(root.detail, "seminaive");
        assert_eq!(root.rows, out.get("T").unwrap().len());
        assert_eq!(
            root.children.len() as u64,
            out.stats.fixpoint_iterations,
            "one round span per iteration"
        );
        for (i, r) in root.children.iter().enumerate() {
            assert_eq!(r.kind, "round");
            assert_eq!(r.round, Some(i as u64 + 1));
            assert!(r.children.iter().all(|c| c.kind == "rule"));
        }
        // Round 0 evaluates both rules in full; later rounds only the
        // recursive rule's delta item, marked with its body position.
        assert_eq!(root.children[0].children.len(), 2);
        assert!(root.children[1].children[0].detail.ends_with("[Δ0]"));
        // The naive strategy labels its root accordingly, and tracing
        // never changes answers or stats.
        let plain = eval_seminaive_with(&tc_program(), &db, &EvalConfig::sequential()).unwrap();
        assert!(plain.trace.is_none());
        assert_eq!(plain.stats, out.stats);
        assert_eq!(
            plain.get("T").unwrap().sorted(),
            out.get("T").unwrap().sorted()
        );
        let naive = eval_naive_with(&tc_program(), &db, &cfg).unwrap();
        assert_eq!(naive.trace.unwrap().detail, "naive");
    }

    #[test]
    fn deadline_aborts_between_rounds() {
        let db = chain_db(6);
        let cfg = EvalConfig::sequential().with_deadline(std::time::Instant::now());
        assert!(matches!(
            eval_seminaive_with(&tc_program(), &db, &cfg),
            Err(DatalogError::DeadlineExceeded)
        ));
        assert!(matches!(
            eval_naive_with(&tc_program(), &db, &cfg),
            Err(DatalogError::DeadlineExceeded)
        ));
    }

    #[test]
    fn recorded_and_seeded_runs_abort_at_deadline() {
        let p = tc_program();
        let cfg = EvalConfig::sequential().with_deadline(std::time::Instant::now());
        assert!(matches!(
            crate::record::eval_recorded(&p, &chain_db(6), &cfg),
            Err(DatalogError::DeadlineExceeded)
        ));
        // A seeded run with a sink stops before round 1 absorbs anything.
        let old = eval_seminaive(&p, &chain_db(6)).unwrap();
        let mut idb = old.idb.clone();
        let mut sink = Recorder::default();
        let edge = Relation::from_tuples(2, [[5u32, 6]]);
        assert!(matches!(
            seminaive(
                &p,
                &chain_db(7),
                &mut idb,
                Some(&[("E", &edge)]),
                Some(&mut sink),
                &cfg,
            ),
            Err(DatalogError::DeadlineExceeded)
        ));
        assert_eq!(idb, old.idb);
        assert!(sink.steps.is_empty());
    }

    #[test]
    fn recorded_run_rejects_unknown_predicates() {
        let p = Program::new().rule("Q", &[0], &[("Nope", &[Var(0)])]);
        assert!(matches!(
            crate::record::eval_recorded(&p, &chain_db(3), &EvalConfig::sequential()),
            Err(DatalogError::UnknownPredicate(_))
        ));
    }

    #[test]
    fn unknown_predicate_rejected() {
        let p = Program::new().rule("Q", &[0], &[("Nope", &[Var(0)])]);
        let db = chain_db(3);
        for eval in [eval_naive, eval_seminaive] {
            assert!(matches!(
                eval(&p, &db),
                Err(DatalogError::UnknownPredicate(_))
            ));
        }
    }

    #[test]
    fn constants_and_repeated_variables_agree_with_naive() {
        // Reach(x) :- E(0, x);  Reach(x) :- Reach(y), E(y, x);
        // Loop(x) :- E(x, x).
        let p = Program::new()
            .rule("Reach", &[0], &[("E", &[Const(0), Var(0)])])
            .rule(
                "Reach",
                &[0],
                &[("Reach", &[Var(1)]), ("E", &[Var(1), Var(0)])],
            )
            .rule("Loop", &[0], &[("E", &[Var(0), Var(0)])]);
        let db = Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [3, 3]])
            .build();
        let a = eval_seminaive(&p, &db).unwrap();
        let b = eval_naive(&p, &db).unwrap();
        for pred in ["Reach", "Loop"] {
            assert_eq!(
                a.get(pred).unwrap().sorted(),
                b.get(pred).unwrap().sorted(),
                "{pred}"
            );
        }
        assert_eq!(a.get("Loop").unwrap().sorted(), [Tuple::from_slice(&[3])]);
    }

    #[test]
    fn thread_count_independent() {
        // A chain (one item per round) and a round whose two full items
        // read 2 × 4950 tuples, enough to split across threads.
        let both = Program::new()
            .rule("S", &[0, 1], &[("E", &[Var(0), Var(1)])])
            .rule("S", &[0, 1], &[("E", &[Var(1), Var(0)])]);
        let dense = Database::builder(100)
            .relation(
                "E",
                2,
                (0..100u32).flat_map(|a| (a + 1..100).map(move |b| [a, b])),
            )
            .build();
        for (p, db) in [(tc_program(), chain_db(12)), (both, dense)] {
            let one = eval_seminaive_with(&p, &db, &EvalConfig::with_threads(1)).unwrap();
            let four = eval_seminaive_with(&p, &db, &EvalConfig::with_threads(4)).unwrap();
            assert_eq!(one.idb, four.idb);
            assert_eq!(one.stats, four.stats);
        }
    }

    #[test]
    fn seeded_run_continues_from_a_state() {
        // Close the chain 0..5, then add E(5,6) and continue with only
        // that edge as round 1's delta: the state reaches the cold
        // closure, and `fresh` is exactly what the edge added.
        let p = tc_program();
        let old = eval_seminaive(&p, &chain_db(6)).unwrap();
        let db = chain_db(7);
        let mut idb = old.idb.clone();
        let edge = Relation::from_tuples(2, [[5u32, 6]]);
        let run = seminaive(
            &p,
            &db,
            &mut idb,
            Some(&[("E", &edge)]),
            None,
            &EvalConfig::sequential(),
        )
        .unwrap();
        let cold = eval_seminaive(&p, &db).unwrap();
        assert_eq!(idb, cold.idb);
        assert_eq!(
            run.fresh[0].sorted(),
            cold.get("T")
                .unwrap()
                .difference(old.get("T").unwrap())
                .sorted()
        );
        // Round 1 binds the edge in both rules and derives all six new
        // tuples; round 2 extends them by nothing.
        assert_eq!(run.stats.fixpoint_iterations, 2);
    }

    #[test]
    fn repeated_variables_in_atom() {
        // Loop(x) :- E(x, x).
        let p = Program::new().rule("Loop", &[0], &[("E", &[Var(0), Var(0)])]);
        let db = Database::builder(3)
            .relation("E", 2, [[0u32, 1], [2, 2]])
            .build();
        let out = eval_seminaive(&p, &db).unwrap();
        assert_eq!(
            out.get("Loop").unwrap().sorted(),
            Relation::from_tuples(1, [[2u32]]).sorted()
        );
    }

    #[test]
    fn empty_program() {
        let p = Program::new();
        let db = chain_db(3);
        let out = eval_naive(&p, &db).unwrap();
        assert!(out.idb.is_empty());
    }
}
