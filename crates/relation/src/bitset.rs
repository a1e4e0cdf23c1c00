//! A fixed-capacity bit set.
//!
//! [`BitSet`] is the storage backing [`DenseCylinder`](crate::dense::DenseCylinder):
//! a subset of `D^k` is a subset of `{0, …, n^k - 1}` under the mixed-radix
//! point index, and the Boolean connectives of `FO^k` become word-parallel
//! bit operations.

use std::fmt;
use std::ops::Range;

const WORD_BITS: usize = 64;

/// A set of integers in `0..capacity`, stored one bit each.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    capacity: usize,
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set over `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            capacity,
            words: vec![0; capacity.div_ceil(WORD_BITS)],
        }
    }

    /// The full set `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = BitSet::new(capacity);
        for w in &mut s.words {
            *w = !0;
        }
        s.clear_tail();
        s
    }

    /// The number of representable elements.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Zeroes the bits beyond `capacity` in the last word, maintaining the
    /// invariant that tail bits are always clear (so `PartialEq`, `count`
    /// and `is_empty` can operate word-wise).
    fn clear_tail(&mut self) {
        let tail = self.capacity % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Tests whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        self.words[i / WORD_BITS] & (1 << (i % WORD_BITS)) != 0
    }

    /// Inserts `i`. Returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1 << (i % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.capacity);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1 << (i % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// The number of elements in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The `len ≤ 64` bits starting at bit `start`, as the low bits of a
    /// word (bit `start` lowest). The run may straddle a word boundary.
    #[inline]
    pub fn get_bits(&self, start: usize, len: usize) -> u64 {
        debug_assert!(len <= WORD_BITS && start + len <= self.capacity);
        if len == 0 {
            return 0;
        }
        let (w, off) = (start / WORD_BITS, start % WORD_BITS);
        let mut v = self.words[w] >> off;
        if off + len > WORD_BITS {
            v |= self.words[w + 1] << (WORD_BITS - off);
        }
        v & low_mask(len)
    }

    /// ORs the low `len ≤ 64` bits of `bits` into the run starting at bit
    /// `start` (the inverse placement of [`BitSet::get_bits`]).
    #[inline]
    pub fn or_bits(&mut self, start: usize, len: usize, bits: u64) {
        debug_assert!(len <= WORD_BITS && start + len <= self.capacity);
        if len == 0 {
            return;
        }
        let bits = bits & low_mask(len);
        let (w, off) = (start / WORD_BITS, start % WORD_BITS);
        self.words[w] |= bits << off;
        if off + len > WORD_BITS {
            self.words[w + 1] |= bits >> (WORD_BITS - off);
        }
    }

    /// Whether some element of `range` is in the set.
    pub fn any_in(&self, range: Range<usize>) -> bool {
        debug_assert!(range.end <= self.capacity);
        word_masks(range).any(|(w, m)| self.words[w] & m != 0)
    }

    /// Whether every element of `range` is in the set (true when empty).
    pub fn all_in(&self, range: Range<usize>) -> bool {
        debug_assert!(range.end <= self.capacity);
        word_masks(range).all(|(w, m)| self.words[w] & m == m)
    }

    /// Inserts every element of `range`.
    pub fn fill(&mut self, range: Range<usize>) {
        debug_assert!(range.end <= self.capacity);
        for (w, m) in word_masks(range) {
            self.words[w] |= m;
        }
    }

    /// In-place union. Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection. Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`). Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// In-place complement with respect to `0..capacity`.
    pub fn complement(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.clear_tail();
    }

    /// Whether `self ⊆ other`. Panics if capacities differ.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// The word with bits `0..len` set, `len ≤ 64`.
#[inline]
fn low_mask(len: usize) -> u64 {
    if len >= WORD_BITS {
        !0
    } else {
        (1 << len) - 1
    }
}

/// The words overlapping `range`, each with the mask of the range's bits
/// in it.
fn word_masks(range: Range<usize>) -> impl Iterator<Item = (usize, u64)> {
    let Range { start, end } = range;
    let words = if start < end {
        start / WORD_BITS..end.div_ceil(WORD_BITS)
    } else {
        0..0
    };
    words.map(move |w| {
        let base = w * WORD_BITS;
        let lo = start.max(base) - base;
        let hi = end.min(base + WORD_BITS) - base;
        (w, low_mask(hi) & !low_mask(lo))
    })
}

/// Iterator over set bits, lowest first.
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(129));
        assert!(!s.insert(129));
        assert!(s.contains(0));
        assert!(s.contains(129));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.count(), 1);
    }

    #[test]
    fn full_respects_capacity() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
    }

    #[test]
    fn full_of_word_multiple() {
        let s = BitSet::full(128);
        assert_eq!(s.count(), 128);
    }

    #[test]
    fn complement_twice_is_identity() {
        let mut s = BitSet::new(100);
        s.insert(3);
        s.insert(77);
        let orig = s.clone();
        s.complement();
        assert_eq!(s.count(), 98);
        assert!(!s.contains(3));
        s.complement();
        assert_eq!(s, orig);
    }

    #[test]
    fn set_algebra() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new(10);
        b.insert(2);
        b.insert(3);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);

        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for i in [0, 63, 64, 127, 128, 199] {
            s.insert(i);
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128, 199]);
    }

    #[test]
    fn empty_capacity_zero() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        let f = BitSet::full(0);
        assert!(f.is_empty());
    }

    /// A set holding every third element of `0..capacity`, plus one run
    /// of ones across the first word boundary.
    fn patterned(capacity: usize) -> BitSet {
        let mut s = BitSet::new(capacity);
        for i in (0..capacity).step_by(3).chain(60..capacity.min(70)) {
            s.insert(i);
        }
        s
    }

    #[test]
    fn get_bits_reads_runs_at_any_offset() {
        for capacity in [1usize, 63, 64, 65, 128, 130, 200] {
            let s = patterned(capacity);
            for start in 0..capacity {
                for len in 0..=WORD_BITS.min(capacity - start) {
                    let expect = (0..len)
                        .filter(|&b| s.contains(start + b))
                        .fold(0u64, |v, b| v | 1 << b);
                    assert_eq!(s.get_bits(start, len), expect, "{capacity} {start}+{len}");
                }
            }
        }
    }

    #[test]
    fn or_bits_places_runs_and_keeps_the_tail_clear() {
        for capacity in [1usize, 64, 65, 127, 130] {
            for start in 0..capacity {
                for len in [0usize, 1, 5, 63, 64] {
                    if start + len > capacity {
                        continue;
                    }
                    let mut s = BitSet::new(capacity);
                    // High garbage beyond `len` must be ignored.
                    s.or_bits(start, len, !0);
                    assert_eq!(s.count(), len, "{capacity} {start}+{len}");
                    assert!(s.iter().all(|i| (start..start + len).contains(&i)));
                    let mut t = patterned(capacity);
                    let expect: Vec<usize> = (0..capacity)
                        .filter(|&i| t.contains(i) || (start..start + len).contains(&i))
                        .collect();
                    t.or_bits(start, len, !0);
                    assert_eq!(t.iter().collect::<Vec<_>>(), expect);
                    // Copying a run with get/or reproduces it.
                    let src = patterned(capacity);
                    let mut dst = BitSet::new(capacity);
                    dst.or_bits(start, len, src.get_bits(start, len));
                    assert_eq!(dst.get_bits(start, len), src.get_bits(start, len));
                    assert_eq!(dst.count(), src.get_bits(start, len).count_ones() as usize);
                }
            }
        }
    }

    #[test]
    fn range_tests_and_fill_match_pointwise() {
        for capacity in [0usize, 1, 63, 64, 65, 128, 190] {
            let s = patterned(capacity);
            let full = BitSet::full(capacity);
            for start in 0..=capacity {
                for end in start..=capacity {
                    let any = (start..end).any(|i| s.contains(i));
                    let all = (start..end).all(|i| s.contains(i));
                    assert_eq!(s.any_in(start..end), any, "{capacity} {start}..{end}");
                    assert_eq!(s.all_in(start..end), all, "{capacity} {start}..{end}");
                    assert!(full.all_in(start..end));
                    let mut f = BitSet::new(capacity);
                    f.fill(start..end);
                    assert_eq!(f.count(), end - start);
                    assert!(f.all_in(start..end));
                    assert!(!f.any_in(0..start) && !f.any_in(end..capacity));
                }
            }
        }
        // Filling to capacity keeps the tail clear, so equality holds.
        let mut f = BitSet::new(70);
        f.fill(0..70);
        assert_eq!(f, BitSet::full(70));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn mismatched_capacity_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }
}
