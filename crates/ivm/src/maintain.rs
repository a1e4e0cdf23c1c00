//! Standing queries: materialized Datalog views maintained differentially.
//!
//! A [`StandingQuery`] pins a validated positive Datalog program with a
//! designated output predicate and keeps its full IDB state materialized
//! across mutation batches. The maintenance strategy comes from
//! [`bvq_core::incr::classify_datalog`]:
//!
//! * **Counting** (non-recursive): per-tuple exact derivation counts.
//!   Each rule's derivations are the valuations of its body variables
//!   ([`bvq_datalog::delta::rule_bindings`]); a batch's count changes are
//!   the classical telescoping sum — position `i` bound to the signed
//!   delta, positions before it to the *new* state, positions after it to
//!   the *old* state — so a tuple leaves the view exactly when its last
//!   derivation dies, with no recomputation.
//! * **DRed** (recursive): deletions *overdelete* the downward closure of
//!   the removed tuples to a fixpoint, subtract, then *rederive* by
//!   continuing semi-naive evaluation against the shrunk database —
//!   recursively-derivable tuples (e.g. reachability inside a surviving
//!   cycle) come back. Insertions propagate semi-naively with the EDB
//!   delta seeding round one. Both the rederivation and the insertion
//!   propagation are runs of the one semi-naive loop,
//!   [`bvq_datalog::eval::seminaive`], continued from the materialized
//!   state.
//!
//! Both phases share one invariant: after `apply`, the IDB equals the
//! least model of the program over the new epoch's EDB — the
//! `incremental-vs-recompute` fuzz oracle checks exactly this.

use bvq_core::incr::{classify_datalog, IncrPlan, Strategy};
use bvq_datalog::delta::{delta_first, project_head, rule_bindings, Bindings, RelSource, View};
use bvq_datalog::eval::{empty_idb, seminaive};
use bvq_datalog::{AtomTerm, BodyAtom, Program, Rule};
use bvq_relation::{Database, EvalConfig, FxHashMap, Relation, StatsRecorder, Tuple};

use crate::epoch::DeltaSet;
use crate::IvmError;

/// The net change of a standing query's answer across one mutation batch.
#[derive(Clone, Debug)]
pub struct AnswerDelta {
    /// Tuples newly in the answer.
    pub added: Relation,
    /// Tuples no longer in the answer.
    pub removed: Relation,
}

impl AnswerDelta {
    /// An empty delta at the given arity.
    pub fn empty(arity: usize) -> Self {
        AnswerDelta {
            added: Relation::new(arity),
            removed: Relation::new(arity),
        }
    }

    /// The delta turning `old` into `new` — the re-evaluate-and-diff
    /// fallback for languages without a delta semantics.
    pub fn diff(old: &Relation, new: &Relation) -> Self {
        AnswerDelta {
            added: new.difference(old),
            removed: old.difference(new),
        }
    }

    /// Whether the answer did not change.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

fn find<'a>(rels: &'a [(String, Relation)], pred: &str) -> Option<&'a Relation> {
    rels.iter().find(|(p, _)| p == pred).map(|(_, r)| r)
}

fn slot<'a>(rels: &'a mut [(String, Relation)], pred: &str) -> &'a mut Relation {
    rels.iter_mut()
        .find(|(p, _)| p == pred)
        .map(|(_, r)| r)
        .expect("idb predicate")
}

/// A registered standing query with its materialized state.
pub struct StandingQuery {
    program: Program,
    output: String,
    out_arity: usize,
    plan: IncrPlan,
    /// Full materialized IDB state, one entry per IDB predicate.
    idb: Vec<(String, Relation)>,
    /// Exact derivation counts per IDB predicate (Counting strategy only;
    /// empty maps under DRed).
    counts: Vec<FxHashMap<Tuple, i64>>,
    /// IDB indices in topological (upstream-first) order — the dependency
    /// order Counting processes strata in. Under DRed (cyclic dependency
    /// graph) this is just declaration order and unused.
    topo: Vec<usize>,
}

impl StandingQuery {
    /// Validates and registers `program` against `db`, materializing the
    /// initial state of every IDB predicate.
    ///
    /// # Errors
    /// Fails on invalid programs, unknown/arity-mismatched body
    /// predicates, or an `output` that no rule defines.
    pub fn install(
        program: Program,
        output: &str,
        db: &Database,
        cfg: &EvalConfig,
    ) -> Result<Self, IvmError> {
        let idb = empty_idb(&program, db)?;
        let out_arity = match find(&idb, output) {
            Some(r) => r.arity(),
            None => return Err(IvmError::UnknownOutput(output.to_string())),
        };
        let plan = classify_datalog(program.is_recursive());
        let topo = topo_order(&program, &idb);
        let mut sq = StandingQuery {
            counts: idb.iter().map(|_| FxHashMap::default()).collect(),
            program,
            output: output.to_string(),
            out_arity,
            plan,
            idb,
            topo,
        };
        match sq.plan.strategy {
            Strategy::Counting => sq.recount(db, cfg)?,
            _ => {
                seminaive(&sq.program, db, &mut sq.idb, None, None, cfg)?;
            }
        }
        Ok(sq)
    }

    /// The classification that chose the maintenance strategy.
    pub fn plan(&self) -> IncrPlan {
        self.plan
    }

    /// The output predicate name.
    pub fn output(&self) -> &str {
        &self.output
    }

    /// The output arity.
    pub fn out_arity(&self) -> usize {
        self.out_arity
    }

    /// The program text (for display/stats).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The current materialized answer.
    pub fn answer(&self) -> &Relation {
        find(&self.idb, &self.output).expect("output is idb")
    }

    /// Propagates one mutation batch: `old_db` is the pre-batch epoch,
    /// `new_db` the post-batch epoch, `delta` the net change between them
    /// (from [`crate::MutableDb::apply`]). Returns the answer delta.
    ///
    /// # Errors
    /// Propagation failures (e.g. deadline exceeded mid-maintenance)
    /// leave the state *stale*; callers should rebase or drop the query.
    pub fn apply(
        &mut self,
        old_db: &Database,
        new_db: &Database,
        delta: &DeltaSet,
        cfg: &EvalConfig,
    ) -> Result<AnswerDelta, IvmError> {
        if delta.is_empty() {
            return Ok(AnswerDelta::empty(self.out_arity));
        }
        match self.plan.strategy {
            Strategy::Counting => self.counting_apply(old_db, new_db, delta, cfg),
            _ => self.dred_apply(old_db, new_db, delta, cfg),
        }
    }

    /// Rebuilds the state from scratch on `db` (a wholesale database
    /// replacement, where no meaningful delta exists) and returns the
    /// answer delta against the previous materialization.
    ///
    /// # Errors
    /// Fails like [`StandingQuery::install`] — e.g. the new database may
    /// lack an EDB relation the program needs.
    pub fn rebase(&mut self, db: &Database, cfg: &EvalConfig) -> Result<AnswerDelta, IvmError> {
        let old_answer = self.answer().clone();
        let fresh = StandingQuery::install(self.program.clone(), &self.output, db, cfg)?;
        *self = fresh;
        Ok(AnswerDelta::diff(&old_answer, self.answer()))
    }

    /// Recomputes all derivation counts from scratch (Counting install).
    fn recount(&mut self, db: &Database, cfg: &EvalConfig) -> Result<(), IvmError> {
        let mut rec = StatsRecorder::new();
        for &pi in &self.topo {
            let pred = self.idb[pi].0.clone();
            let mut map: FxHashMap<Tuple, i64> = FxHashMap::default();
            for rule in self.program.rules.iter().filter(|r| r.head.pred == pred) {
                let view = View { db, idb: &self.idb };
                let b = rule_bindings(rule, &[], &view, cfg, &mut rec)?;
                accumulate(1, rule, &b, &mut map);
            }
            let mut rel = Relation::new(self.idb[pi].1.arity());
            for (t, &c) in &map {
                if c > 0 {
                    rel.insert(t.clone());
                }
            }
            self.idb[pi].1 = rel;
            self.counts[pi] = map;
        }
        Ok(())
    }

    /// Counting maintenance: telescoped signed delta joins, strata in
    /// topological order, zero-crossings become the set-level delta fed
    /// downstream.
    fn counting_apply(
        &mut self,
        old_db: &Database,
        new_db: &Database,
        delta: &DeltaSet,
        cfg: &EvalConfig,
    ) -> Result<AnswerDelta, IvmError> {
        let mut rec = StatsRecorder::new();
        let old_idb = self.idb.clone();
        // Net set-level deltas of already-processed IDB strata.
        let mut idb_deltas: Vec<(String, Relation, Relation)> = Vec::new(); // (pred, added, removed)
        for &pi in &self.topo {
            let pred = self.idb[pi].0.clone();
            let mut signed: FxHashMap<Tuple, i64> = FxHashMap::default();
            for rule in self.program.rules.iter().filter(|r| r.head.pred == pred) {
                let m = rule.body.len();
                for i in 0..m {
                    let pred_i = &rule.body[i].pred;
                    let (d_add, d_rem) = match idb_deltas.iter().find(|(p, _, _)| p == pred_i) {
                        Some((_, a, r)) => (Some(a), Some(r)),
                        None => match delta.get(pred_i) {
                            Some(rd) => (Some(&rd.added), Some(&rd.removed)),
                            None => (None, None),
                        },
                    };
                    for (sign, drel) in [(1i64, d_add), (-1, d_rem)] {
                        let Some(drel) = drel else { continue };
                        if drel.is_empty() {
                            continue;
                        }
                        // Telescoping: j<i new, j=i delta, j>i old — with
                        // the delta atom rotated to the front so the
                        // running join starts from the smallest input.
                        let r = delta_first(rule, i);
                        let new = View {
                            db: new_db,
                            idb: &self.idb,
                        };
                        let old = View {
                            db: old_db,
                            idb: &old_idb,
                        };
                        let mut sources: Vec<Option<&Relation>> = vec![Some(drel)];
                        sources.extend((0..m).filter(|&j| j != i).map(|j| {
                            let state = if j < i { &new } else { &old };
                            Some(state.rel(&rule.body[j].pred).expect("validated"))
                        }));
                        let b = rule_bindings(&r, &sources, &new, cfg, &mut rec)?;
                        accumulate(sign, &r, &b, &mut signed);
                    }
                }
            }
            // Zero-crossings are the stratum's set-level delta.
            let arity = self.idb[pi].1.arity();
            let mut added = Relation::new(arity);
            let mut removed = Relation::new(arity);
            for (t, s) in signed {
                if s == 0 {
                    continue;
                }
                let c = self.counts[pi].entry(t.clone()).or_insert(0);
                let was = *c > 0;
                *c += s;
                debug_assert!(*c >= 0, "derivation counts never go negative");
                let now = *c > 0;
                if !was && now {
                    added.insert(t);
                } else if was && !now {
                    removed.insert(t);
                }
            }
            self.counts[pi].retain(|_, c| *c > 0);
            if !added.is_empty() || !removed.is_empty() {
                let rel = slot(&mut self.idb, &pred);
                *rel = rel.union(&added).difference(&removed);
                idb_deltas.push((pred, added, removed));
            }
        }
        Ok(
            match idb_deltas.iter().find(|(p, _, _)| *p == self.output) {
                Some((_, a, r)) => AnswerDelta {
                    added: a.clone(),
                    removed: r.clone(),
                },
                None => AnswerDelta::empty(self.out_arity),
            },
        )
    }

    /// DRed maintenance: overdelete → subtract → rederive (continuation
    /// semi-naive against the shrunk EDB), then seed insertion
    /// propagation with the added EDB tuples.
    fn dred_apply(
        &mut self,
        old_db: &Database,
        new_db: &Database,
        delta: &DeltaSet,
        cfg: &EvalConfig,
    ) -> Result<AnswerDelta, IvmError> {
        let mut rec = StatsRecorder::new();
        let mut over_out = Relation::new(self.out_arity);
        if delta.has_removals() {
            // 1. Overdelete to fixpoint: anything with a derivation step
            // through a removed tuple. Non-delta positions read the OLD
            // state throughout (the classical overestimate).
            let mut over: Vec<(String, Relation)> = self
                .idb
                .iter()
                .map(|(p, r)| (p.clone(), Relation::new(r.arity())))
                .collect();
            // Frontier round 1: the removed EDB tuples.
            let mut frontier: Vec<(String, Relation)> = delta
                .rels
                .iter()
                .filter(|(_, d)| !d.removed.is_empty())
                .map(|(p, d)| (p.clone(), d.removed.clone()))
                .collect();
            loop {
                if frontier.iter().all(|(_, r)| r.is_empty()) {
                    break;
                }
                let mut fresh: Vec<(String, Relation)> = self
                    .idb
                    .iter()
                    .map(|(p, r)| (p.clone(), Relation::new(r.arity())))
                    .collect();
                for rule in &self.program.rules {
                    for (pos, atom) in rule.body.iter().enumerate() {
                        let Some(d) = find(&frontier, &atom.pred) else {
                            continue;
                        };
                        if d.is_empty() {
                            continue;
                        }
                        let r = delta_first(rule, pos);
                        let sources: Vec<Option<&Relation>> = vec![Some(d)];
                        let view = View {
                            db: old_db,
                            idb: &self.idb,
                        };
                        let b = rule_bindings(&r, &sources, &view, cfg, &mut rec)?;
                        let heads = project_head(&r, &b, cfg);
                        // Only currently-derived tuples not yet overdeleted.
                        let cur = find(&self.idb, &rule.head.pred).expect("idb");
                        let new_over = heads
                            .intersect(cur)
                            .difference(find(&over, &rule.head.pred).expect("idb"));
                        let f = slot(&mut fresh, &rule.head.pred);
                        *f = f.union(&new_over);
                    }
                }
                for (p, f) in &fresh {
                    let o = slot(&mut over, p);
                    *o = o.union(f);
                }
                frontier = fresh;
            }
            // 2. Subtract the overdeletion.
            for (p, o) in &over {
                if o.is_empty() {
                    continue;
                }
                let rel = slot(&mut self.idb, p);
                *rel = rel.difference(o);
            }
            over_out = find(&over, &self.output).expect("idb").clone();
            // 3. Rederive against the mid state (old EDB minus removals;
            // additions not yet visible). Only overdeleted tuples can
            // come back, so instead of a full re-evaluation: one pass
            // per rule with a synthetic leading atom restricting the
            // head to the overdeletion finds every tuple immediately
            // rederivable from the surviving state, and those seed a
            // delta-driven continuation run that restores the rest
            // (chains through rederived tuples, surviving cycles). Cost
            // scales with the overdeleted set, not the database.
            let mid = mid_database(old_db, delta)?;
            let mut seed: Vec<(String, Relation)> = Vec::new();
            for rule in &self.program.rules {
                let rem = find(&over, &rule.head.pred).expect("idb");
                if rem.is_empty() {
                    continue;
                }
                let mut r = rule.clone();
                r.body.insert(
                    0,
                    BodyAtom {
                        pred: "__overdeleted".into(),
                        args: rule.head.vars.iter().map(|&v| AtomTerm::Var(v)).collect(),
                    },
                );
                let sources: Vec<Option<&Relation>> = vec![Some(rem)];
                let view = View {
                    db: &mid,
                    idb: &self.idb,
                };
                let b = rule_bindings(&r, &sources, &view, cfg, &mut rec)?;
                let back = project_head(&r, &b, cfg)
                    .difference(find(&self.idb, &rule.head.pred).expect("idb"));
                if back.is_empty() {
                    continue;
                }
                let rel = slot(&mut self.idb, &rule.head.pred);
                *rel = rel.union(&back);
                match seed.iter_mut().find(|(p, _)| *p == rule.head.pred) {
                    Some((_, d)) => *d = d.union(&back),
                    None => seed.push((rule.head.pred.clone(), back)),
                }
            }
            if !seed.is_empty() {
                let seed: Vec<(&str, &Relation)> =
                    seed.iter().map(|(p, d)| (p.as_str(), d)).collect();
                seminaive(&self.program, &mid, &mut self.idb, Some(&seed), None, cfg)?;
            }
        }
        // 4. Insertions: semi-naive propagation seeded by the added EDB
        // tuples — the fast path a point insert takes.
        let mut added_out = Relation::new(self.out_arity);
        if delta.rels.iter().any(|(_, d)| !d.added.is_empty()) {
            let seed: Vec<(&str, &Relation)> = delta
                .rels
                .iter()
                .map(|(p, d)| (p.as_str(), &d.added))
                .collect();
            let mut fresh =
                seminaive(&self.program, new_db, &mut self.idb, Some(&seed), None, cfg)?.fresh;
            let out = self.idb.iter().position(|(p, _)| *p == self.output);
            added_out = fresh.swap_remove(out.expect("output is idb"));
        }
        // Net answer delta: overdeleted tuples still absent were really
        // removed; fresh tuples that were overdeleted merely came back.
        let final_out = find(&self.idb, &self.output).expect("idb");
        Ok(AnswerDelta {
            removed: over_out.difference(final_out),
            added: added_out.difference(&over_out),
        })
    }
}

/// One derivation per binding: projects each valuation to the head tuple
/// and adds `sign` to its count. (Relation projection would deduplicate —
/// counting must not.)
fn accumulate(sign: i64, rule: &Rule, b: &Bindings, map: &mut FxHashMap<Tuple, i64>) {
    let positions: Vec<usize> = rule
        .head
        .vars
        .iter()
        .map(|v| {
            b.cols
                .iter()
                .position(|c| c == v)
                .expect("range-restricted")
        })
        .collect();
    for t in b.rel.iter() {
        let ht: Tuple = positions.iter().map(|&p| t.as_slice()[p]).collect();
        *map.entry(ht).or_insert(0) += sign;
    }
}

/// The old database minus the batch's removed tuples (additions not yet
/// applied) — the state DRed rederives against.
fn mid_database(old_db: &Database, delta: &DeltaSet) -> Result<Database, IvmError> {
    let mut mid = old_db.clone();
    for (name, d) in &delta.rels {
        if d.removed.is_empty() {
            continue;
        }
        let id = mid
            .schema()
            .resolve(name)
            .ok_or_else(|| IvmError::UnknownRelation(name.clone()))?;
        let shrunk = mid.relation(id).difference(&d.removed);
        mid.set_relation(id, shrunk)?;
    }
    Ok(mid)
}

/// Kahn topological order of the IDB dependency graph (upstream strata
/// first). Falls back to declaration order on cycles — only reached under
/// DRed, which does not consult the order.
fn topo_order(program: &Program, idb: &[(String, Relation)]) -> Vec<usize> {
    let n = idb.len();
    let index = |p: &str| idb.iter().position(|(q, _)| q == p);
    let mut deps: Vec<Vec<usize>> = vec![Vec::new(); n]; // deps[i] = IDB preds i reads
    for r in &program.rules {
        let Some(i) = index(&r.head.pred) else {
            continue;
        };
        for a in &r.body {
            if let Some(j) = index(&a.pred) {
                if j != i && !deps[i].contains(&j) {
                    deps[i].push(j);
                }
            }
        }
    }
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        let next = (0..n)
            .find(|&i| !placed[i] && deps[i].iter().all(|&j| placed[j]))
            .unwrap_or_else(|| (0..n).find(|&i| !placed[i]).expect("unplaced"));
        placed[next] = true;
        order.push(next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::{MutableDb, Mutation};
    use bvq_datalog::eval_seminaive;
    use bvq_datalog::AtomTerm::Var;

    fn cfg() -> EvalConfig {
        EvalConfig::sequential()
    }

    fn tc_program() -> Program {
        Program::new()
            .rule("T", &[0, 1], &[("E", &[Var(0), Var(1)])])
            .rule(
                "T",
                &[0, 1],
                &[("T", &[Var(0), Var(2)]), ("E", &[Var(2), Var(1)])],
            )
    }

    fn ins(rel: &str, t: &[u32]) -> Mutation {
        Mutation::Insert {
            rel: rel.into(),
            tuple: t.to_vec(),
        }
    }

    fn del(rel: &str, t: &[u32]) -> Mutation {
        Mutation::Delete {
            rel: rel.into(),
            tuple: t.to_vec(),
        }
    }

    /// The maintained answer must equal cold re-evaluation.
    fn assert_matches_cold(sq: &StandingQuery, db: &Database) {
        let cold = eval_seminaive(sq.program(), db).unwrap();
        assert_eq!(
            sq.answer().sorted(),
            cold.get(sq.output()).unwrap().sorted(),
            "maintained answer diverged from recompute"
        );
    }

    #[test]
    fn dred_keeps_recursively_derivable_tuples_alive() {
        // Cycle 0→1→2→0 with a tail 2→3: deleting E(0,1)'s *alternative*
        // path forces rederivation through the cycle.
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 0], [0, 2], [2, 3]])
            .build();
        let mut m = MutableDb::new(db);
        let mut sq = StandingQuery::install(tc_program(), "T", m.db(), &cfg()).unwrap();
        assert_eq!(sq.plan().strategy, Strategy::DRed);
        assert!(sq.answer().contains(&[0, 2]));
        // Delete the direct edge 0→2: T(0,2) must survive via 0→1→2, and
        // the whole cyclic closure must survive rederivation.
        let s0 = m.snapshot();
        let d = m.apply(&[del("E", &[0, 2])]).unwrap();
        let out = sq.apply(&s0.db, m.db(), &d, &cfg()).unwrap();
        assert!(sq.answer().contains(&[0, 2]), "rederived through the cycle");
        assert!(out.added.is_empty());
        assert!(
            out.removed.is_empty(),
            "every closure tuple is still derivable: {:?}",
            out.removed.sorted()
        );
        assert_matches_cold(&sq, m.db());
        // Now cut the cycle: tuples that only went through 1→2 die.
        let s1 = m.snapshot();
        let d = m.apply(&[del("E", &[1, 2])]).unwrap();
        let out = sq.apply(&s1.db, m.db(), &d, &cfg()).unwrap();
        assert!(!sq.answer().contains(&[0, 2]));
        assert!(out.removed.contains(&[0, 2]));
        assert_matches_cold(&sq, m.db());
    }

    #[test]
    fn dred_insert_fast_path_matches_cold() {
        let db = Database::builder(8)
            .relation("E", 2, (0u32..6).map(|i| [i, i + 1]))
            .build();
        let mut m = MutableDb::new(db);
        let mut sq = StandingQuery::install(tc_program(), "T", m.db(), &cfg()).unwrap();
        let s = m.snapshot();
        let d = m.apply(&[ins("E", &[6, 7])]).unwrap();
        let out = sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
        assert!(out.removed.is_empty());
        assert!(out.added.contains(&[0, 7]), "new reachability appears");
        assert_matches_cold(&sq, m.db());
    }

    #[test]
    fn counting_tracks_multiple_derivations() {
        // Q(x,z) :- E(x,y), E(y,z): Q(0,2) has two derivations (via 1 and
        // via 3). Deleting one leaves the tuple; deleting both kills it.
        let p = Program::new().rule(
            "Q",
            &[0, 2],
            &[("E", &[Var(0), Var(1)]), ("E", &[Var(1), Var(2)])],
        );
        let db = Database::builder(5)
            .relation("E", 2, [[0u32, 1], [1, 2], [0, 3], [3, 2]])
            .build();
        let mut m = MutableDb::new(db);
        let mut sq = StandingQuery::install(p, "Q", m.db(), &cfg()).unwrap();
        assert_eq!(sq.plan().strategy, Strategy::Counting);
        assert!(sq.answer().contains(&[0, 2]));
        let s = m.snapshot();
        let d = m.apply(&[del("E", &[1, 2])]).unwrap();
        let out = sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
        assert!(sq.answer().contains(&[0, 2]), "second derivation holds it");
        assert!(out.is_empty());
        let s = m.snapshot();
        let d = m.apply(&[del("E", &[3, 2])]).unwrap();
        let out = sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
        assert!(!sq.answer().contains(&[0, 2]), "last derivation died");
        assert!(out.removed.contains(&[0, 2]));
        assert_matches_cold(&sq, m.db());
    }

    #[test]
    fn counting_layered_strata() {
        // Two layers: A(x) :- E(x,y); B(x) :- A(x), P(x).
        let p = Program::new()
            .rule("A", &[0], &[("E", &[Var(0), Var(1)])])
            .rule("B", &[0], &[("A", &[Var(0)]), ("P", &[Var(0)])]);
        let db = Database::builder(4)
            .relation("E", 2, [[0u32, 1], [2, 3]])
            .relation("P", 1, [[0u32], [1]])
            .build();
        let mut m = MutableDb::new(db);
        let mut sq = StandingQuery::install(p, "B", m.db(), &cfg()).unwrap();
        assert_eq!(
            sq.answer().sorted(),
            Relation::from_tuples(1, [[0u32]]).sorted()
        );
        // Insert E(1,2): A gains 1, and downstream B gains 1 (P(1) holds).
        let s = m.snapshot();
        let d = m.apply(&[ins("E", &[1, 2])]).unwrap();
        let out = sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
        assert!(out.added.contains(&[1]));
        assert_matches_cold(&sq, m.db());
        // Mixed batch touching both layers at once.
        let s = m.snapshot();
        let d = m
            .apply(&[del("E", &[0, 1]), ins("P", &[2]), ins("E", &[2, 0])])
            .unwrap();
        sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
        assert_matches_cold(&sq, m.db());
    }

    #[test]
    fn random_mutation_sequences_match_recompute() {
        let mut rng = bvq_prng::Rng::seed_from_u64(0x117f);
        run_random(&mut rng);
    }

    fn run_random(rng: &mut bvq_prng::Rng) {
        let n = 8usize;
        let db = Database::builder(n)
            .relation("E", 2, [[0u32, 1], [1, 2], [2, 3]])
            .build();
        let mut m = MutableDb::new(db);
        let mut sq = StandingQuery::install(tc_program(), "T", m.db(), &cfg()).unwrap();
        for _ in 0..60 {
            let a = (rng.next_u64() % n as u64) as u32;
            let b = (rng.next_u64() % n as u64) as u32;
            let mu = if rng.next_u64() % 2 == 0 {
                ins("E", &[a, b])
            } else {
                del("E", &[a, b])
            };
            let s = m.snapshot();
            let d = m.apply(&[mu]).unwrap();
            let before = sq.answer().clone();
            let out = sq.apply(&s.db, m.db(), &d, &cfg()).unwrap();
            assert_matches_cold(&sq, m.db());
            // The reported delta really is the answer diff.
            let expect = AnswerDelta::diff(&before, sq.answer());
            assert_eq!(out.added.sorted(), expect.added.sorted());
            assert_eq!(out.removed.sorted(), expect.removed.sorted());
        }
    }

    #[test]
    fn rebase_reports_diff() {
        let db = Database::builder(4).relation("E", 2, [[0u32, 1]]).build();
        let mut sq = StandingQuery::install(tc_program(), "T", &db, &cfg()).unwrap();
        let db2 = Database::builder(4).relation("E", 2, [[1u32, 2]]).build();
        let out = sq.rebase(&db2, &cfg()).unwrap();
        assert!(out.added.contains(&[1, 2]));
        assert!(out.removed.contains(&[0, 1]));
    }

    #[test]
    fn install_rejects_bad_programs() {
        let db = Database::builder(3).relation("E", 2, [[0u32, 1]]).build();
        assert!(matches!(
            StandingQuery::install(tc_program(), "Nope", &db, &cfg()),
            Err(IvmError::UnknownOutput(_))
        ));
        let p = Program::new().rule("Q", &[0], &[("Missing", &[Var(0)])]);
        assert!(StandingQuery::install(p, "Q", &db, &cfg()).is_err());
        let p = Program::new().rule("Q", &[0], &[("E", &[Var(0)])]);
        assert!(
            StandingQuery::install(p, "Q", &db, &cfg()).is_err(),
            "arity mismatch"
        );
    }
}
