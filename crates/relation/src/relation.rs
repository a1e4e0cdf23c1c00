//! Finite relations and their algebra.
//!
//! [`Relation`] is the user-facing, sparse (hash-set backed) relation type:
//! a set of [`Tuple`]s of a fixed arity. It provides the operations of the
//! relational algebra that both the naive (unbounded) evaluator and the
//! join-based planners in `bvq-optimizer` are built from. The cylindrical
//! `FO^k` evaluator uses the [`CylinderOps`](crate::CylinderOps) backends
//! instead, converting to and from `Relation` at the boundary.
//!
//! Arity 0 is fully supported: an arity-0 relation is either `{}` (false)
//! or `{⟨⟩}` (true), which is how Boolean queries and the propositional
//! quantifiers of Theorem 4.5 are represented.

use std::fmt;

use crate::hasher::FxHashSet;
use crate::{Arity, Elem, Tuple};

/// A finite relation: a set of tuples of fixed arity.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Relation {
    arity: Arity,
    tuples: FxHashSet<Tuple>,
}

impl Relation {
    /// The empty relation of the given arity.
    pub fn new(arity: Arity) -> Self {
        Relation {
            arity,
            tuples: FxHashSet::default(),
        }
    }

    /// The empty relation of the given arity, with room for `capacity`
    /// tuples before it reallocates.
    pub fn with_capacity(arity: Arity, capacity: usize) -> Self {
        let mut tuples = FxHashSet::default();
        tuples.reserve(capacity);
        Relation { arity, tuples }
    }

    /// The arity-0 relation representing Boolean `value`.
    pub fn boolean(value: bool) -> Self {
        let mut r = Relation::new(0);
        if value {
            r.insert(Tuple::unit());
        }
        r
    }

    /// Interprets an arity-0 relation as a Boolean.
    ///
    /// # Panics
    /// Panics if the arity is not 0.
    pub fn as_boolean(&self) -> bool {
        assert_eq!(self.arity, 0, "as_boolean on arity-{} relation", self.arity);
        !self.tuples.is_empty()
    }

    /// Builds a relation from tuples. Panics if any tuple has the wrong arity.
    pub fn from_tuples<I, T>(arity: Arity, tuples: I) -> Self
    where
        I: IntoIterator<Item = T>,
        T: Into<Tuple>,
    {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t.into());
        }
        r
    }

    /// The full relation `D^arity` over a domain of size `n`.
    pub fn full(arity: Arity, n: usize) -> Self {
        let mut r = Relation::new(arity);
        let mut t = vec![0 as Elem; arity];
        loop {
            r.insert(Tuple::from_slice(&t));
            // Odometer increment.
            let mut i = arity;
            loop {
                if i == 0 {
                    return r;
                }
                i -= 1;
                t[i] += 1;
                if (t[i] as usize) < n {
                    break;
                }
                t[i] = 0;
            }
        }
    }

    /// The arity of the relation.
    pub fn arity(&self) -> Arity {
        self.arity
    }

    /// The number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Inserts a tuple; returns whether it was new.
    ///
    /// # Panics
    /// Panics if the tuple arity differs from the relation arity.
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "tuple arity {} ≠ relation arity {}",
            t.arity(),
            self.arity
        );
        self.tuples.insert(t)
    }

    /// Removes a tuple; returns whether it was present.
    pub fn remove(&mut self, t: &[Elem]) -> bool {
        self.tuples.remove(t)
    }

    /// Membership test.
    pub fn contains(&self, t: &[Elem]) -> bool {
        t.len() == self.arity && self.tuples.contains(t)
    }

    /// Iterates over the tuples (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// The tuples in sorted order (for deterministic output).
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut v: Vec<Tuple> = self.tuples.iter().cloned().collect();
        // Set elements are distinct, so an unstable sort is exact.
        v.sort_unstable();
        v
    }

    /// The set of elements appearing anywhere in the relation.
    pub fn active_domain(&self) -> Vec<Elem> {
        let mut seen = FxHashSet::default();
        for t in &self.tuples {
            for &e in t.as_slice() {
                seen.insert(e);
            }
        }
        let mut v: Vec<Elem> = seen.into_iter().collect();
        v.sort_unstable();
        v
    }

    /// Set union. Panics on arity mismatch.
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "union arity mismatch");
        let (big, small) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut r = big.clone();
        for t in small.iter() {
            r.tuples.insert(t.clone());
        }
        r
    }

    /// Set intersection. Panics on arity mismatch.
    #[must_use]
    pub fn intersect(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "intersect arity mismatch");
        let (big, small) = if self.len() >= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut r = Relation::new(self.arity);
        for t in small.iter() {
            if big.tuples.contains(t) {
                r.tuples.insert(t.clone());
            }
        }
        r
    }

    /// Set difference `self \ other`. Panics on arity mismatch.
    #[must_use]
    pub fn difference(&self, other: &Relation) -> Relation {
        assert_eq!(self.arity, other.arity, "difference arity mismatch");
        let mut r = Relation::new(self.arity);
        for t in self.iter() {
            if !other.tuples.contains(t.as_slice()) {
                r.tuples.insert(t.clone());
            }
        }
        r
    }

    /// Complement with respect to `D^arity`, `|D| = n`.
    ///
    /// This materialises up to `n^arity` tuples — the exponential cost the
    /// paper associates with unrestricted evaluation. The bounded evaluator
    /// only ever calls this with `arity ≤ k`.
    #[must_use]
    pub fn complement(&self, n: usize) -> Relation {
        Relation::full(self.arity, n).difference(self)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.iter().all(|t| other.tuples.contains(t.as_slice()))
    }

    /// Selection σ: keeps tuples where positions `i` and `j` are equal.
    #[must_use]
    pub fn select_eq(&self, i: usize, j: usize) -> Relation {
        let mut r = Relation::new(self.arity);
        for t in self.iter() {
            if t[i] == t[j] {
                r.tuples.insert(t.clone());
            }
        }
        r
    }

    /// Selection σ: keeps tuples where position `i` equals `value`.
    #[must_use]
    pub fn select_const(&self, i: usize, value: Elem) -> Relation {
        let mut r = Relation::new(self.arity);
        for t in self.iter() {
            if t[i] == value {
                r.tuples.insert(t.clone());
            }
        }
        r
    }

    /// Generalised projection π: the result tuple is
    /// `(t[positions[0]], t[positions[1]], …)`. Positions may repeat and
    /// permute, so this subsumes column permutation (renaming).
    #[must_use]
    pub fn project(&self, positions: &[usize]) -> Relation {
        for &p in positions {
            assert!(
                p < self.arity,
                "projection position {p} out of arity {}",
                self.arity
            );
        }
        let mut r = Relation::new(positions.len());
        for t in self.iter() {
            r.tuples.insert(t.select(positions));
        }
        r
    }

    /// Cartesian product; the result has arity `self.arity + other.arity`.
    #[must_use]
    pub fn product(&self, other: &Relation) -> Relation {
        let mut r = Relation::new(self.arity + other.arity);
        for a in self.iter() {
            for b in other.iter() {
                r.tuples.insert(a.concat(b));
            }
        }
        r
    }

    /// Equi-join: pairs `(i, j)` require `left[i] == right[j]`. The result
    /// is the concatenation of the left and right tuples (all columns kept);
    /// apply [`project`](Self::project) afterwards to drop duplicates.
    ///
    /// Implemented as a hash join, building on the smaller side.
    #[must_use]
    pub fn join_on(&self, other: &Relation, pairs: &[(usize, usize)]) -> Relation {
        use crate::hasher::FxHashMap;
        let mut r = Relation::new(self.arity + other.arity);
        if pairs.is_empty() {
            return self.product(other);
        }
        let left_keys: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let right_keys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        // Build on the right side, probe with the left.
        let mut table: FxHashMap<Tuple, Vec<&Tuple>> = FxHashMap::default();
        for t in other.iter() {
            table.entry(t.select(&right_keys)).or_default().push(t);
        }
        for a in self.iter() {
            if let Some(matches) = table.get(&a.select(&left_keys)) {
                for b in matches {
                    r.tuples.insert(a.concat(b));
                }
            }
        }
        r
    }

    /// Semijoin: the tuples of `self` that join with at least one tuple of
    /// `other` under the given column pairs. The workhorse of Yannakakis's
    /// algorithm [Yan81].
    #[must_use]
    pub fn semijoin(&self, other: &Relation, pairs: &[(usize, usize)]) -> Relation {
        let left_keys: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let right_keys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let keys: FxHashSet<Tuple> = other.iter().map(|t| t.select(&right_keys)).collect();
        let mut r = Relation::new(self.arity);
        for t in self.iter() {
            if keys.contains(&t.select(&left_keys)) {
                r.tuples.insert(t.clone());
            }
        }
        r
    }

    /// Antijoin: the tuples of `self` that join with *no* tuple of `other`.
    #[must_use]
    pub fn antijoin(&self, other: &Relation, pairs: &[(usize, usize)]) -> Relation {
        let left_keys: Vec<usize> = pairs.iter().map(|p| p.0).collect();
        let right_keys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
        let keys: FxHashSet<Tuple> = other.iter().map(|t| t.select(&right_keys)).collect();
        let mut r = Relation::new(self.arity);
        for t in self.iter() {
            if !keys.contains(&t.select(&left_keys)) {
                r.tuples.insert(t.clone());
            }
        }
        r
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation(arity={}, ", self.arity)?;
        f.debug_set().entries(self.sorted()).finish()?;
        write!(f, ")")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collects tuples into a relation; the arity is taken from the first
    /// tuple (empty iterators yield an empty arity-0 relation).
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, Tuple::arity);
        let mut r = Relation::new(arity);
        for t in it {
            r.insert(t);
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(pairs: &[(Elem, Elem)]) -> Relation {
        Relation::from_tuples(2, pairs.iter().map(|&(a, b)| Tuple::from_slice(&[a, b])))
    }

    #[test]
    fn boolean_relations() {
        assert!(!Relation::boolean(false).as_boolean());
        assert!(Relation::boolean(true).as_boolean());
        assert_eq!(Relation::boolean(true).len(), 1);
    }

    #[test]
    #[should_panic(expected = "as_boolean")]
    fn as_boolean_rejects_positive_arity() {
        Relation::new(2).as_boolean();
    }

    #[test]
    fn full_relation_size() {
        assert_eq!(Relation::full(3, 4).len(), 64);
        assert_eq!(Relation::full(0, 5).len(), 1); // D^0 = {⟨⟩}
    }

    #[test]
    fn insert_contains() {
        let mut r = Relation::new(2);
        assert!(r.insert(Tuple::from_slice(&[1, 2])));
        assert!(!r.insert(Tuple::from_slice(&[1, 2])));
        assert!(r.contains(&[1, 2]));
        assert!(!r.contains(&[2, 1]));
        assert!(!r.contains(&[1])); // wrong arity is just "not a member"
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn insert_wrong_arity_panics() {
        Relation::new(2).insert(Tuple::from_slice(&[1]));
    }

    #[test]
    fn set_operations() {
        let a = edges(&[(1, 2), (2, 3)]);
        let b = edges(&[(2, 3), (3, 4)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersect(&b).len(), 1);
        assert!(a.intersect(&b).contains(&[2, 3]));
        assert_eq!(a.difference(&b).len(), 1);
        assert!(a.difference(&b).contains(&[1, 2]));
    }

    #[test]
    fn complement_has_complementary_size() {
        let a = edges(&[(0, 1), (1, 0)]);
        let c = a.complement(3);
        assert_eq!(c.len(), 9 - 2);
        assert!(!c.contains(&[0, 1]));
        assert!(c.contains(&[2, 2]));
    }

    #[test]
    fn select_and_project() {
        let r = Relation::from_tuples(3, [[1u32, 1, 2], [1, 2, 2], [3, 3, 3]]);
        let eq01 = r.select_eq(0, 1);
        assert_eq!(eq01.len(), 2);
        let c = r.select_const(2, 2);
        assert_eq!(c.len(), 2);
        let p = r.project(&[2, 0]);
        assert!(p.contains(&[2, 1]));
        assert_eq!(p.arity(), 2);
        // Projection can merge tuples.
        let q = r.project(&[2]);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn join_composes_edges() {
        let e = edges(&[(1, 2), (2, 3), (3, 4)]);
        // Paths of length 2: join E(x,y) with E(y,z) on y.
        let paths = e.join_on(&e, &[(1, 0)]).project(&[0, 3]);
        assert_eq!(paths.sorted(), edges(&[(1, 3), (2, 4)]).sorted());
    }

    #[test]
    fn join_with_empty_pairs_is_product() {
        let a = edges(&[(1, 2)]);
        let b = edges(&[(3, 4), (5, 6)]);
        let j = a.join_on(&b, &[]);
        assert_eq!(j.arity(), 4);
        assert_eq!(j.len(), 2);
        assert!(j.contains(&[1, 2, 3, 4]));
    }

    #[test]
    fn semijoin_and_antijoin_partition() {
        let e = edges(&[(1, 2), (2, 3), (5, 6)]);
        let nodes = Relation::from_tuples(1, [[2u32], [6]]);
        let semi = e.semijoin(&nodes, &[(1, 0)]);
        let anti = e.antijoin(&nodes, &[(1, 0)]);
        assert_eq!(semi.len() + anti.len(), e.len());
        assert!(semi.contains(&[1, 2]));
        assert!(semi.contains(&[5, 6]));
        assert!(anti.contains(&[2, 3]));
    }

    #[test]
    fn subset() {
        let a = edges(&[(1, 2)]);
        let b = edges(&[(1, 2), (2, 3)]);
        assert!(a.is_subset(&b));
        assert!(!b.is_subset(&a));
        assert!(Relation::new(2).is_subset(&a));
        assert!(!Relation::new(3).is_subset(&a)); // arity mismatch
    }

    #[test]
    fn active_domain_sorted() {
        let e = edges(&[(7, 2), (2, 9)]);
        assert_eq!(e.active_domain(), vec![2, 7, 9]);
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = [[1u32, 2], [3, 4]].into_iter().map(Tuple::from).collect();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
    }
}
