//! The checker's self-contained membership evaluator.
//!
//! This is deliberately *not* the engine from `bvq-core`: the whole point
//! of the trusted checker is that it replays certificates with zero
//! reference to the code that produced the answer. Everything here is a
//! direct transcription of the §2.2 semantics — a recursive truth test
//! `member(φ, ᾱ)` over a fixed database, a fixpoint-value store, and (for
//! ESO) a witness environment.
//!
//! Per-tuple membership is the checker's unit of work, so `∃` is the hot
//! path: instead of scanning the whole domain, the evaluator harvests
//! candidate values from a positive conjunct atom that mentions the
//! quantified variable — via a lazily built hash index for database
//! relations (immutable for the life of the check, so indexes are built
//! once), or a filtered scan for in-progress fixpoint relations (which
//! mutate between rounds and must not be cached).

use std::rc::Rc;

use bvq_logic::{Atom, Formula, RelRef, Term, Var};
use bvq_relation::{BitSet, Database, Elem, FxHashMap, Relation, Tuple};

use crate::check::Reject;
use crate::fixes::FixIndex;

/// Cap on `n^arity` enumeration work (seeds, sweeps, applications):
/// beyond this the certificate is refused/rejected as [`Reject::TooLarge`]
/// rather than letting a hostile certificate buy unbounded checker time.
pub const MAX_SWEEP: usize = 1 << 22;

/// Odometer over `domain^arity`, yielding tuples in lexicographic order.
pub(crate) struct DomainProduct {
    cur: Vec<Elem>,
    n: Elem,
    done: bool,
}

/// `domain^arity` enumeration, guarded by [`MAX_SWEEP`].
pub(crate) fn domain_product(arity: usize, n: usize) -> Result<DomainProduct, Reject> {
    let count = (n as u128).checked_pow(arity as u32);
    match count {
        Some(c) if c <= MAX_SWEEP as u128 => Ok(DomainProduct {
            cur: vec![0; arity],
            n: n as Elem,
            done: n == 0 && arity > 0,
        }),
        _ => Err(Reject::TooLarge),
    }
}

impl Iterator for DomainProduct {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.done {
            return None;
        }
        let out = Tuple::from_slice(&self.cur);
        // Advance the odometer; carry past the last digit ends the walk.
        let mut i = self.cur.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            self.cur[i] += 1;
            if self.cur[i] < self.n {
                break;
            }
            self.cur[i] = 0;
        }
        Some(out)
    }
}

/// Candidate values for one position of a database relation, keyed by
/// the values at its fixed positions.
enum CandidateIndex {
    /// One fixed position: a table indexed by its value.
    ByElem(Vec<Rc<[Elem]>>),
    /// Several fixed positions, keyed by their values in order.
    ByKey(FxHashMap<Tuple, Rc<[Elem]>>),
}

/// Variable bindings saved by [`Ctx::bind_tuple`]: inline for the short
/// tuples every check binds, so binding allocates nothing.
pub(crate) struct Saved {
    inline: [Option<Elem>; Saved::INLINE],
    spill: Vec<Option<Elem>>,
}

impl Saved {
    const INLINE: usize = 8;
}

/// A database relation as the checker reads it.
struct DbRel<'d> {
    name: &'d str,
    rel: &'d Relation,
    /// The relation as a bitmap (see [`bitmap`]), built on first use:
    /// membership by rank instead of by hash. `Some(None)` when there is
    /// none.
    bits: Option<Option<BitSet>>,
}

/// `rel` as a bitmap over `domain^arity`, or `None` when that space
/// exceeds [`MAX_SWEEP`] or `rel` holds an out-of-domain element (such
/// relations keep hash lookups).
fn bitmap(rel: &Relation, n: usize) -> Option<BitSet> {
    let size = (n as u128).checked_pow(rel.arity() as u32)?;
    if size > MAX_SWEEP as u128 {
        return None;
    }
    let mut bits = BitSet::new(size as usize);
    for t in rel.iter() {
        bits.insert(rank(t, n)?);
    }
    Some(bits)
}

/// The rank of `t` in `domain^arity`, or `None` when an element lies
/// outside the domain.
fn rank(t: &[Elem], n: usize) -> Option<usize> {
    t.iter().try_fold(0usize, |acc, &e| {
        ((e as usize) < n).then(|| acc * n + e as usize)
    })
}

/// Evaluation state: the trusted database, the per-fixpoint value store
/// with freshness flags, the ESO witness environment, and the current
/// variable assignment.
pub(crate) struct Ctx<'a, 'd> {
    pub n: usize,
    pub idx: &'a FixIndex<'a>,
    /// Current value of each fixpoint (chain value while iterating,
    /// final value once converged), `None` until begun.
    val: Vec<Option<Relation>>,
    /// `val` as bitmaps over `domain^arity` where that space fits
    /// [`MAX_SWEEP`]: chain reads test a rank instead of a hash.
    val_bits: Vec<Option<BitSet>>,
    /// Tuples already in `val_bits` but not yet in `val`: a chain grows
    /// by one insert per tuple, and most checks never read the set back.
    pending: Vec<Vec<Tuple>>,
    /// Whether a fixpoint's value is converged *under the current values
    /// of everything it reads*. Reading a `Fix` node requires freshness;
    /// reading a chain value through a bound atom does not.
    pub fresh: Vec<bool>,
    /// ESO witness relations, by name.
    pub witness: Vec<(String, Relation)>,
    asg: Vec<Option<Elem>>,
    /// The database's relations, looked up by name linearly: a check
    /// reads a handful of relations hundreds of thousands of times, and
    /// comparing a short name beats hashing it.
    rels: Vec<DbRel<'d>>,
    /// Lazy `(relation, candidate position, fixed-position mask)` →
    /// candidate index, for immutable database relations only.
    indexes: Vec<((usize, usize, u64), CandidateIndex)>,
}

impl<'a, 'd> Ctx<'a, 'd> {
    pub fn new(db: &'d Database, idx: &'a FixIndex<'a>) -> Ctx<'a, 'd> {
        let fixes = idx.len();
        Ctx {
            n: db.domain_size(),
            idx,
            val: vec![None; fixes],
            val_bits: vec![None; fixes],
            pending: vec![Vec::new(); fixes],
            fresh: vec![false; fixes],
            witness: Vec::new(),
            asg: vec![None; idx.var_space],
            rels: db
                .schema()
                .iter()
                .map(|(id, name, _)| DbRel {
                    name,
                    rel: db.relation(id),
                    bits: None,
                })
                .collect(),
            indexes: Vec::new(),
        }
    }

    /// The current value of fixpoint `fix`, if begun.
    pub fn val(&mut self, fix: usize) -> Option<&Relation> {
        self.flush(fix);
        self.val[fix].as_ref()
    }

    /// Whether fixpoint `fix` has begun.
    pub fn has_val(&self, fix: usize) -> bool {
        self.val[fix].is_some()
    }

    /// The number of tuples in the (begun) value of fixpoint `fix`.
    pub fn val_len(&self, fix: usize) -> usize {
        match &self.val_bits[fix] {
            Some(bits) => bits.count(),
            None => self.val[fix].as_ref().map_or(0, Relation::len),
        }
    }

    /// Moves the pending inserts of fixpoint `fix` into its relation.
    fn flush(&mut self, fix: usize) {
        if let Some(rel) = &mut self.val[fix] {
            for t in self.pending[fix].drain(..) {
                rel.insert(t);
            }
        }
    }

    /// Replaces the value of fixpoint `fix`.
    pub fn set_val(&mut self, fix: usize, value: Option<Relation>) {
        let n = self.n;
        self.pending[fix].clear();
        self.val_bits[fix] = value.as_ref().and_then(|rel| bitmap(rel, n));
        self.val[fix] = value;
    }

    /// Adds `t` to the (begun) value of fixpoint `fix`.
    pub fn insert_val(&mut self, fix: usize, t: Tuple) {
        let n = self.n;
        if let Some(bits) = &mut self.val_bits[fix] {
            if let Some(r) = rank(&t, n) {
                bits.insert(r);
                self.pending[fix].push(t);
                return;
            }
            // Out of the domain: the bitmap can no longer mirror the set.
            self.val_bits[fix] = None;
            self.flush(fix);
        }
        self.val[fix].as_mut().expect("a begun fixpoint").insert(t);
    }

    /// Removes `t` from the (begun) value of fixpoint `fix`.
    pub fn remove_val(&mut self, fix: usize, t: &Tuple) {
        self.flush(fix);
        if let (Some(bits), Some(r)) = (&mut self.val_bits[fix], rank(t, self.n)) {
            bits.remove(r);
        }
        self.val[fix].as_mut().expect("a begun fixpoint").remove(t);
    }

    /// Whether the value of fixpoint `fix` contains `t`.
    pub fn val_contains(&self, fix: usize, t: &Tuple) -> Result<bool, Reject> {
        match (&self.val_bits[fix], &self.val[fix]) {
            (Some(bits), _) => Ok(rank(t, self.n).is_some_and(|r| bits.contains(r))),
            (None, Some(rel)) => Ok(rel.contains(t)),
            (None, None) => Err(Reject::MissingFix(fix)),
        }
    }

    /// Marks every fixpoint whose subtree reads `fix` as stale. Call
    /// after any change to `val[fix]`.
    pub fn invalidate_readers_of(&mut self, fix: usize) {
        for &r in &self.idx.rdeps[fix] {
            self.fresh[r] = false;
        }
    }

    /// Binds variable `v`, returning the previous binding for restore.
    pub fn bind(&mut self, v: Var, e: Elem) -> Option<Elem> {
        self.asg[v.index()].replace(e)
    }

    /// Restores a binding saved by [`Ctx::bind`].
    pub fn unbind(&mut self, v: Var, prev: Option<Elem>) {
        self.asg[v.index()] = prev;
    }

    /// Binds the tuple `t` to the variables `vars` pairwise, returning
    /// the previous bindings.
    pub fn bind_tuple(&mut self, vars: &[Var], t: &Tuple) -> Saved {
        let mut saved = Saved {
            inline: [None; Saved::INLINE],
            spill: Vec::new(),
        };
        for (i, (&v, &e)) in vars.iter().zip(t.as_slice()).enumerate() {
            let prev = self.bind(v, e);
            match saved.inline.get_mut(i) {
                Some(slot) => *slot = prev,
                None => saved.spill.push(prev),
            }
        }
        saved
    }

    /// Restores bindings saved by [`Ctx::bind_tuple`].
    pub fn unbind_tuple(&mut self, vars: &[Var], saved: Saved) {
        let prevs = saved.inline.into_iter().chain(saved.spill);
        for (&v, prev) in vars.iter().zip(prevs) {
            self.unbind(v, prev);
        }
    }

    fn term(&self, t: &Term) -> Result<Elem, Reject> {
        match t {
            Term::Const(c) => Ok(*c),
            Term::Var(v) => self.asg[v.index()]
                .ok_or_else(|| Reject::Unsupported(format!("unbound variable x{}", v.0 + 1))),
        }
    }

    fn atom_tuple(&self, args: &[Term]) -> Result<Tuple, Reject> {
        if args.len() <= Tuple::INLINE {
            let mut elems = [0; Tuple::INLINE];
            for (e, a) in elems.iter_mut().zip(args) {
                *e = self.term(a)?;
            }
            return Ok(Tuple::from_slice(&elems[..args.len()]));
        }
        let elems = args
            .iter()
            .map(|a| self.term(a))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Tuple::from_slice(&elems))
    }

    /// The position in `rels` of the database relation named `name`.
    fn db_rel(&self, name: &str) -> Result<usize, Reject> {
        self.rels
            .iter()
            .position(|r| r.name == name)
            .ok_or_else(|| Reject::UnknownRelation(name.to_string()))
    }

    /// Whether database relation `i` contains `t`.
    fn db_contains(&mut self, i: usize, t: &Tuple) -> bool {
        let n = self.n;
        let db = &mut self.rels[i];
        let rel = db.rel;
        let bits = db.bits.get_or_insert_with(|| bitmap(rel, n));
        match bits {
            Some(bits) => rank(t, n).is_some_and(|r| bits.contains(r)),
            None => rel.contains(t),
        }
    }

    /// The §2.2 truth test: does the current assignment satisfy `f`?
    pub fn member(&mut self, f: &'a Formula) -> Result<bool, Reject> {
        match f {
            Formula::Const(b) => Ok(*b),
            Formula::Eq(a, b) => Ok(self.term(a)? == self.term(b)?),
            Formula::Atom(atom) => {
                let t = self.atom_tuple(&atom.args)?;
                match &atom.rel {
                    RelRef::Db(name) => {
                        let i = self.db_rel(name)?;
                        let arity = self.rels[i].rel.arity();
                        if arity != t.arity() {
                            return Err(Reject::ArityMismatch(format!(
                                "atom `{name}` has arity {}, relation has {arity}",
                                t.arity(),
                            )));
                        }
                        Ok(self.db_contains(i, &t))
                    }
                    RelRef::Bound(name) => match self.idx.fix_of_atom(atom) {
                        // In-progress chain value: `Some` required,
                        // freshness not — this *is* the recursive read.
                        Some(fix) => self.val_contains(fix, &t),
                        None => {
                            let rel = self
                                .witness
                                .iter()
                                .find(|(n, _)| n == name)
                                .map(|(_, r)| r)
                                .ok_or_else(|| Reject::UnknownRelation(name.clone()))?;
                            if rel.arity() != t.arity() {
                                return Err(Reject::ArityMismatch(format!(
                                    "witness `{name}` has arity {}, atom has {}",
                                    rel.arity(),
                                    t.arity()
                                )));
                            }
                            Ok(rel.contains(&t))
                        }
                    },
                }
            }
            Formula::Not(g) => Ok(!self.member(g)?),
            Formula::And(a, b) => Ok(self.member(a)? && self.member(b)?),
            Formula::Or(a, b) => Ok(self.member(a)? || self.member(b)?),
            Formula::Exists(v, g) => {
                let cands = self.candidates(*v, g)?;
                let prev = self.asg[v.index()].take();
                let mut found = false;
                match cands {
                    Some(cs) => {
                        for &c in cs.iter() {
                            self.asg[v.index()] = Some(c);
                            if self.member(g)? {
                                found = true;
                                break;
                            }
                        }
                    }
                    None => {
                        for c in 0..self.n as Elem {
                            self.asg[v.index()] = Some(c);
                            if self.member(g)? {
                                found = true;
                                break;
                            }
                        }
                    }
                }
                self.asg[v.index()] = prev;
                Ok(found)
            }
            Formula::Forall(v, g) => {
                let prev = self.asg[v.index()].take();
                let mut holds = true;
                for c in 0..self.n as Elem {
                    self.asg[v.index()] = Some(c);
                    if !self.member(g)? {
                        holds = false;
                        break;
                    }
                }
                self.asg[v.index()] = prev;
                Ok(holds)
            }
            Formula::Fix { args, .. } => {
                // Converged-value read: `Some` *and* fresh required —
                // a stale inner value here is exactly the staleness
                // attack the freshness discipline exists to reject.
                let fix = self
                    .idx
                    .fix_of_node(f)
                    .ok_or_else(|| Reject::Unsupported("unindexed fixpoint node".into()))?;
                let t = self.atom_tuple(args)?;
                match &self.val[fix] {
                    Some(_) if !self.fresh[fix] => Err(Reject::StaleFix(fix)),
                    _ => self.val_contains(fix, &t),
                }
            }
        }
    }

    /// One full application of fixpoint `fix`'s body under the current
    /// store: `{ t̄ ∈ domainᵃ : member(body, t̄) }`.
    pub fn apply_body(&mut self, fix: usize) -> Result<Relation, Reject> {
        let idx = self.idx;
        let info = &idx.fixes[fix];
        let mut out = Relation::new(info.arity);
        for t in domain_product(info.arity, self.n)? {
            let saved = self.bind_tuple(&info.bound, &t);
            let sat = self.member(info.body);
            self.unbind_tuple(&info.bound, saved);
            if sat? {
                out.insert(t);
            }
        }
        Ok(out)
    }

    /// Does the current assignment for `fix`'s bound tuple satisfy its
    /// body? (The per-tuple unit of chain justification.)
    pub fn body_holds_at(&mut self, fix: usize, t: &Tuple) -> Result<bool, Reject> {
        let idx = self.idx;
        let info = &idx.fixes[fix];
        let saved = self.bind_tuple(&info.bound, t);
        let sat = self.member(info.body);
        self.unbind_tuple(&info.bound, saved);
        sat
    }

    /// Candidate values for `∃v` harvested from a positive conjunct atom
    /// of `g` that mentions `v` and whose other arguments are all fixed.
    /// Returns a *superset* of the satisfying values (the caller re-tests
    /// each candidate against the full body), or `None` when no conjunct
    /// constrains `v`.
    fn candidates(&mut self, v: Var, g: &'a Formula) -> Result<Option<Rc<[Elem]>>, Reject> {
        // First pass: database atoms only (index lookup, cheap).
        // Fixpoint/witness scans are a fallback — they cannot be cached
        // across rounds, so only pay for one when no index applies.
        let mut best: Option<Rc<[Elem]>> = None;
        let mut bound_atom: Option<&'a Atom> = None;
        self.harvest(v, g, &mut best, &mut bound_atom)?;
        if best.is_some() {
            return Ok(best);
        }
        if let Some(atom) = bound_atom {
            return Ok(Some(self.scan_candidates(v, atom)?.into()));
        }
        Ok(None)
    }

    /// Walks the conjuncts of `f`, keeping the smallest database-index
    /// candidate list in `best` and the first bound atom that could be
    /// scanned instead in `bound_atom`.
    fn harvest(
        &mut self,
        v: Var,
        f: &'a Formula,
        best: &mut Option<Rc<[Elem]>>,
        bound_atom: &mut Option<&'a Atom>,
    ) -> Result<(), Reject> {
        match f {
            Formula::And(a, b) => {
                self.harvest(v, b, best, bound_atom)?;
                self.harvest(v, a, best, bound_atom)
            }
            Formula::Atom(atom) => match self.atom_shape(v, atom) {
                None => Ok(()),
                Some(_) if matches!(atom.rel, RelRef::Bound(_)) => {
                    bound_atom.get_or_insert(atom);
                    Ok(())
                }
                Some((pos, mask, key)) => {
                    let cs = self.db_candidates(atom, pos, mask, key)?;
                    if !matches!(best, Some(b) if b.len() <= cs.len()) {
                        *best = Some(cs);
                    }
                    Ok(())
                }
            },
            _ => Ok(()),
        }
    }

    /// Classifies an atom for candidate harvesting: `v` occurs, and every
    /// other argument is a constant or an already-bound variable. Returns
    /// the first `v` position, the fixed-position mask, and the fixed
    /// values in position order.
    #[allow(clippy::type_complexity)]
    fn atom_shape(&self, v: Var, atom: &Atom) -> Option<(usize, u64, Tuple)> {
        if atom.args.len() > 64 {
            return None;
        }
        let mut pos = None;
        let mut mask = 0u64;
        let mut key = [0; 64];
        let mut len = 0;
        for (i, a) in atom.args.iter().enumerate() {
            match a {
                Term::Var(u) if *u == v => {
                    if pos.is_none() {
                        pos = Some(i);
                    }
                }
                Term::Const(c) => {
                    mask |= 1 << i;
                    key[len] = *c;
                    len += 1;
                }
                Term::Var(u) => match self.asg[u.index()] {
                    Some(e) => {
                        mask |= 1 << i;
                        key[len] = e;
                        len += 1;
                    }
                    None => return None,
                },
            }
        }
        pos.map(|p| (p, mask, Tuple::from_slice(&key[..len])))
    }

    fn db_candidates(
        &mut self,
        atom: &Atom,
        pos: usize,
        mask: u64,
        key: Tuple,
    ) -> Result<Rc<[Elem]>, Reject> {
        let RelRef::Db(name) = &atom.rel else {
            unreachable!("db_candidates on a bound atom");
        };
        let i = self.db_rel(name)?;
        let slot = match self.indexes.iter().position(|(k, _)| *k == (i, pos, mask)) {
            Some(slot) => slot,
            None => {
                let index = candidate_index(self.rels[i].rel, self.n, pos, mask);
                self.indexes.push(((i, pos, mask), index));
                self.indexes.len() - 1
            }
        };
        let found = match &self.indexes[slot].1 {
            CandidateIndex::ByElem(table) => table.get(key[0] as usize).cloned(),
            CandidateIndex::ByKey(map) => map.get(&key).cloned(),
        };
        Ok(found.unwrap_or_else(|| Rc::from([])))
    }

    fn scan_candidates(&mut self, v: Var, atom: &'a Atom) -> Result<Vec<Elem>, Reject> {
        let RelRef::Bound(name) = &atom.rel else {
            unreachable!("scan_candidates on a db atom");
        };
        let rel: &Relation = match self.idx.fix_of_atom(atom) {
            Some(fix) => {
                self.flush(fix);
                self.val[fix].as_ref().ok_or(Reject::MissingFix(fix))?
            }
            None => self
                .witness
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, r)| r)
                .ok_or_else(|| Reject::UnknownRelation(name.clone()))?,
        };
        let mut out = Vec::new();
        'tuples: for t in rel.iter() {
            if t.arity() != atom.args.len() {
                continue;
            }
            let mut cand = None;
            for (i, a) in atom.args.iter().enumerate() {
                match a {
                    Term::Var(u) if *u == v => match cand {
                        None => cand = Some(t[i]),
                        Some(c) if c == t[i] => {}
                        Some(_) => continue 'tuples,
                    },
                    Term::Const(c) => {
                        if t[i] != *c {
                            continue 'tuples;
                        }
                    }
                    Term::Var(u) => {
                        if self.asg[u.index()] != Some(t[i]) {
                            continue 'tuples;
                        }
                    }
                }
            }
            if let Some(c) = cand {
                out.push(c);
            }
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

/// Builds the candidate index of `rel` for position `pos`, keyed by the
/// positions in `mask`: a table by element when one in-domain position
/// is fixed, else a map by key.
fn candidate_index(rel: &Relation, n: usize, pos: usize, mask: u64) -> CandidateIndex {
    let mut lists: FxHashMap<Tuple, Vec<Elem>> = FxHashMap::default();
    for t in rel.iter() {
        if t.arity() <= pos {
            continue;
        }
        let k: Vec<Elem> = (0..t.arity())
            .filter(|i| mask >> i & 1 == 1)
            .map(|i| t[i])
            .collect();
        lists.entry(Tuple::from_slice(&k)).or_default().push(t[pos]);
    }
    let lists: Vec<(Tuple, Rc<[Elem]>)> = lists
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            v.dedup();
            (k, v.into())
        })
        .collect();
    if mask.count_ones() != 1 || lists.iter().any(|(k, _)| k[0] as usize >= n) {
        return CandidateIndex::ByKey(lists.into_iter().collect());
    }
    let mut table: Vec<Rc<[Elem]>> = vec![Rc::from([]); n];
    for (k, v) in lists {
        table[k[0] as usize] = v;
    }
    CandidateIndex::ByElem(table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bvq_logic::Query;

    fn v(i: u32) -> Term {
        Term::Var(Var(i))
    }

    fn path_db(n: usize) -> Database {
        Database::builder(n)
            .relation("E", 2, (0..n as u32 - 1).map(|i| [i, i + 1]))
            .build()
    }

    #[test]
    fn domain_product_enumerates_lexicographically() {
        let all: Vec<Tuple> = domain_product(2, 2).unwrap().collect();
        let want: Vec<Tuple> = [[0, 0], [0, 1], [1, 0], [1, 1]]
            .iter()
            .map(|t| Tuple::from_slice(&t[..]))
            .collect();
        assert_eq!(all, want);
        assert_eq!(domain_product(0, 5).unwrap().count(), 1);
        assert_eq!(domain_product(3, 0).unwrap().count(), 0);
        assert!(domain_product(64, 100).is_err());
    }

    #[test]
    fn fo_membership_with_indexed_exists() {
        // ∃x2. E(x1, x2) — "x1 has a successor".
        let f = Formula::atom("E", [v(0), v(1)]).exists(Var(1));
        let q = Query::new(vec![Var(0)], f);
        let db = path_db(4);
        let idx = FixIndex::build(&q.formula, &[]).unwrap();
        let mut ctx = Ctx::new(&db, &idx);
        for (e, want) in [(0, true), (1, true), (2, true), (3, false)] {
            let prev = ctx.bind(Var(0), e);
            assert_eq!(ctx.member(&q.formula).unwrap(), want, "x1 = {e}");
            ctx.unbind(Var(0), prev);
        }
    }

    #[test]
    fn chain_read_needs_value_but_not_freshness() {
        // [lfp S(x1). S(x1)](x1) read through the bound atom vs the node.
        let fixf = Formula::lfp("S", vec![Var(0)], Formula::rel_var("S", [v(0)]), vec![v(0)]);
        let db = path_db(2);
        let idx = FixIndex::build(&fixf, &[]).unwrap();
        let mut ctx = Ctx::new(&db, &idx);
        let prev = ctx.bind(Var(0), 0);
        // No value at all: both reads fail.
        assert!(matches!(ctx.member(&fixf), Err(Reject::MissingFix(0))));
        ctx.set_val(0, Some(Relation::from_tuples(1, [[0u32]])));
        // Node read while stale: rejected.
        assert!(matches!(ctx.member(&fixf), Err(Reject::StaleFix(0))));
        // Chain read (the body's bound atom) is fine while stale.
        assert!(ctx.body_holds_at(0, &Tuple::from_slice(&[0])).unwrap());
        ctx.fresh[0] = true;
        assert!(ctx.member(&fixf).unwrap());
        ctx.unbind(Var(0), prev);
    }
}
