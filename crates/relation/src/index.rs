//! Ranking of `k`-tuples over a domain of size `n`.
//!
//! The cylindrical `FO^k` evaluator identifies the assignment space `D^k`
//! with `{0, …, n^k - 1}` via the base-`n` positional encoding
//! `rank(a₁,…,a_k) = a₁·n^(k-1) + … + a_k`. [`PointIndex`] precomputes the
//! strides and provides rank/unrank plus the decompositions needed by the
//! existential-quantifier operation.

use crate::{Elem, Tuple};

/// Rank/unrank for tuples in `D^k`, `D = {0,…,n-1}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PointIndex {
    n: usize,
    k: usize,
    /// `strides[i] = n^(k-1-i)`: the weight of coordinate `i`.
    strides: Vec<usize>,
    /// `n^k`.
    size: usize,
}

impl PointIndex {
    /// Creates an index for `D^k` with `|D| = n`.
    ///
    /// Returns `None` if `n^k` overflows `usize` or exceeds
    /// [`PointIndex::MAX_SIZE`] (a guard against accidentally materialising
    /// an astronomically large dense space; callers fall back to the BDD
    /// backend).
    pub fn new(n: usize, k: usize) -> Option<Self> {
        let mut size: usize = 1;
        let mut strides = vec![0; k];
        for i in (0..k).rev() {
            strides[i] = size;
            size = size.checked_mul(n)?;
            if size > Self::MAX_SIZE {
                return None;
            }
        }
        Some(PointIndex {
            n,
            k,
            strides,
            size,
        })
    }

    /// Maximum dense space size (bits): 2^32 bits = 512 MiB.
    pub const MAX_SIZE: usize = 1 << 32;

    /// The domain size `n`.
    pub fn domain_size(&self) -> usize {
        self.n
    }

    /// The tuple width `k`.
    pub fn width(&self) -> usize {
        self.k
    }

    /// `n^k`, the number of points.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The stride (weight) of coordinate `i`.
    pub fn stride(&self, i: usize) -> usize {
        self.strides[i]
    }

    /// Ranks a tuple. Panics if the tuple has the wrong arity or an element
    /// is outside the domain (debug builds).
    #[inline]
    pub fn rank(&self, t: &[Elem]) -> usize {
        debug_assert_eq!(t.len(), self.k);
        let mut idx = 0;
        for (e, s) in t.iter().zip(&self.strides) {
            debug_assert!((*e as usize) < self.n);
            idx += *e as usize * s;
        }
        idx
    }

    /// Unranks an index back into a tuple.
    pub fn unrank(&self, mut idx: usize) -> Tuple {
        debug_assert!(idx < self.size);
        Tuple::from_fn(self.k, |i| {
            let v = idx / self.strides[i];
            idx %= self.strides[i];
            v as Elem
        })
    }

    /// The coordinate-`i` digit of `idx`.
    #[inline]
    pub fn digit(&self, idx: usize, i: usize) -> Elem {
        ((idx / self.strides[i]) % self.n) as Elem
    }

    /// Replaces the coordinate-`i` digit of `idx` by `value`.
    #[inline]
    pub fn with_digit(&self, idx: usize, i: usize, value: Elem) -> usize {
        idx - self.digit(idx, i) as usize * self.strides[i] + value as usize * self.strides[i]
    }

    /// Collapses `idx` by removing coordinate `i`: the result is a rank in a
    /// `(k-1)`-dimensional space formed by the remaining coordinates in
    /// order, compressed so that outer digits keep their relative weights.
    ///
    /// Concretely, writing `idx = outer·(n·s) + d·s + inner` with
    /// `s = strides[i]`, the collapsed index is `outer·s + inner`.
    #[inline]
    pub fn collapse(&self, idx: usize, i: usize) -> usize {
        let s = self.strides[i];
        let outer = idx / (s * self.n);
        let inner = idx % s;
        outer * s + inner
    }

    /// Inverse of [`collapse`](Self::collapse): re-inserts digit `d` at
    /// coordinate `i` into a collapsed index.
    #[inline]
    pub fn expand(&self, collapsed: usize, i: usize, d: Elem) -> usize {
        let s = self.strides[i];
        let outer = collapsed / s;
        let inner = collapsed % s;
        outer * (s * self.n) + d as usize * s + inner
    }

    /// Iterates over all points as tuples, in rank order.
    pub fn points(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.size).map(|i| self.unrank(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_unrank_roundtrip() {
        let ix = PointIndex::new(5, 3).unwrap();
        assert_eq!(ix.size(), 125);
        for i in 0..125 {
            let t = ix.unrank(i);
            assert_eq!(ix.rank(&t), i);
        }
    }

    #[test]
    fn rank_is_positional() {
        let ix = PointIndex::new(10, 3).unwrap();
        assert_eq!(ix.rank(&[1, 2, 3]), 123);
        assert_eq!(ix.unrank(907).as_slice(), &[9, 0, 7]);
    }

    #[test]
    fn digit_and_with_digit() {
        let ix = PointIndex::new(10, 4).unwrap();
        let idx = ix.rank(&[4, 5, 6, 7]);
        assert_eq!(ix.digit(idx, 0), 4);
        assert_eq!(ix.digit(idx, 3), 7);
        let idx2 = ix.with_digit(idx, 1, 9);
        assert_eq!(ix.unrank(idx2).as_slice(), &[4, 9, 6, 7]);
    }

    #[test]
    fn collapse_expand_roundtrip() {
        let ix = PointIndex::new(4, 3).unwrap();
        for idx in 0..ix.size() {
            for i in 0..3 {
                let d = ix.digit(idx, i);
                let c = ix.collapse(idx, i);
                assert!(c < ix.size() / 4);
                assert_eq!(ix.expand(c, i, d), idx);
            }
        }
    }

    #[test]
    fn collapse_merges_exactly_the_fiber() {
        // Two indices collapse to the same value at coordinate i iff they
        // differ only in coordinate i.
        let ix = PointIndex::new(3, 3).unwrap();
        for a in 0..ix.size() {
            for b in 0..ix.size() {
                let same_fiber = (0..3)
                    .filter(|&j| j != 1)
                    .all(|j| ix.digit(a, j) == ix.digit(b, j));
                assert_eq!(ix.collapse(a, 1) == ix.collapse(b, 1), same_fiber);
            }
        }
    }

    #[test]
    fn zero_width() {
        let ix = PointIndex::new(7, 0).unwrap();
        assert_eq!(ix.size(), 1);
        assert_eq!(ix.rank(&[]), 0);
        assert_eq!(ix.unrank(0).arity(), 0);
    }

    #[test]
    fn overflow_returns_none() {
        assert!(PointIndex::new(1 << 20, 4).is_none());
        assert!(PointIndex::new(2, 40).is_none()); // 2^40 > MAX_SIZE? 2^40 bits > 2^32
    }

    #[test]
    fn domain_one() {
        let ix = PointIndex::new(1, 5).unwrap();
        assert_eq!(ix.size(), 1);
        assert_eq!(ix.unrank(0).as_slice(), &[0, 0, 0, 0, 0]);
    }
}
