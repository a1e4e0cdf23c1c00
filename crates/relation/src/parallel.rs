//! Partitioned parallel kernels for the hot relational operators.
//!
//! The paper's bound is what makes this easy: every intermediate relation
//! in bounded-variable evaluation is a subset of `D^k`, so the hot
//! operators (join, projection, union) are data-parallel over tuple
//! partitions. Each kernel splits the probe side
//! into per-thread chunks evaluated under [`std::thread::scope`], then
//! merges per-thread result buffers into one hash set.
//!
//! **Determinism.** Results are sets ([`Relation`] is backed by a hash
//! set), every worker computes a pure function of its chunk, and set
//! insertion is idempotent and commutative — so the merged result contains
//! exactly the tuples the sequential operator produces, regardless of
//! thread count or merge order. The differential tests in
//! `tests/parallel_kernels.rs` and `bvq-core` enforce tuple-for-tuple
//! equality against the sequential paths.
//!
//! With `threads = 1` (or inputs below [`PAR_THRESHOLD`]) every kernel
//! delegates to the corresponding sequential [`Relation`] method, so the
//! sequential path is exactly the pre-parallel code.

use std::ops::Range;

use crate::config::EvalConfig;
use crate::hasher::FxHashMap;
use crate::{Relation, Tuple};

/// Inputs smaller than this run sequentially: below a few thousand tuples
/// the cost of spawning scoped threads exceeds the work being split.
pub const PAR_THRESHOLD: usize = 4096;

/// Splits `0..len` into at most `parts` non-empty contiguous ranges of
/// near-equal size.
pub fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Runs `f` over the chunks of `0..len` on up to `threads` scoped workers
/// and returns the per-chunk results in chunk order.
///
/// With one chunk (or `threads <= 1`) `f` runs on the calling thread.
pub fn map_chunks<T, F>(threads: usize, len: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(Range<usize>) -> T + Sync,
{
    let ranges = chunk_ranges(len, threads);
    if ranges.len() <= 1 {
        return ranges.into_iter().map(f).collect();
    }
    let f = &f;
    std::thread::scope(|s| {
        let handles: Vec<_> = ranges.into_iter().map(|r| s.spawn(move || f(r))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("parallel kernel worker panicked"))
            .collect()
    })
}

/// Collects per-thread tuple buffers into a relation of the given arity.
fn merge(arity: usize, buffers: Vec<Vec<Tuple>>) -> Relation {
    let mut r = Relation::new(arity);
    for buf in buffers {
        for t in buf {
            r.insert(t);
        }
    }
    r
}

fn use_sequential(cfg: &EvalConfig, probe_len: usize) -> bool {
    cfg.threads() <= 1 || probe_len < PAR_THRESHOLD
}

/// Parallel equi-join (see [`Relation::join_on`]): builds the hash table on
/// the right side once, then probes left-side chunks concurrently.
pub fn join_on(
    left: &Relation,
    right: &Relation,
    pairs: &[(usize, usize)],
    cfg: &EvalConfig,
) -> Relation {
    if use_sequential(cfg, left.len()) || pairs.is_empty() {
        return left.join_on(right, pairs);
    }
    let left_keys: Vec<usize> = pairs.iter().map(|p| p.0).collect();
    let right_keys: Vec<usize> = pairs.iter().map(|p| p.1).collect();
    let mut table: FxHashMap<Tuple, Vec<&Tuple>> = FxHashMap::default();
    for t in right.iter() {
        table.entry(t.select(&right_keys)).or_default().push(t);
    }
    let probe: Vec<&Tuple> = left.iter().collect();
    let buffers = map_chunks(cfg.threads(), probe.len(), |range| {
        let mut out = Vec::new();
        for a in &probe[range] {
            if let Some(matches) = table.get(&a.select(&left_keys)) {
                for b in matches {
                    out.push(a.concat(b));
                }
            }
        }
        out
    });
    merge(left.arity() + right.arity(), buffers)
}

/// Parallel generalised projection (see [`Relation::project`]): workers map
/// chunks through the column selection; deduplication happens in the merge.
pub fn project(rel: &Relation, positions: &[usize], cfg: &EvalConfig) -> Relation {
    if use_sequential(cfg, rel.len()) {
        return rel.project(positions);
    }
    for &p in positions {
        assert!(
            p < rel.arity(),
            "projection position {p} out of arity {}",
            rel.arity()
        );
    }
    let input: Vec<&Tuple> = rel.iter().collect();
    let buffers = map_chunks(cfg.threads(), input.len(), |range| {
        input[range]
            .iter()
            .map(|t| t.select(positions))
            .collect::<Vec<_>>()
    });
    merge(positions.len(), buffers)
}

/// Parallel union (see [`Relation::union`]): workers filter the smaller
/// side down to the tuples absent from the larger, which are then inserted
/// into a clone of the larger side.
pub fn union(a: &Relation, b: &Relation, cfg: &EvalConfig) -> Relation {
    assert_eq!(a.arity(), b.arity(), "union arity mismatch");
    let (big, small) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    if use_sequential(cfg, small.len()) {
        return a.union(b);
    }
    let probe: Vec<&Tuple> = small.iter().collect();
    let buffers = map_chunks(cfg.threads(), probe.len(), |range| {
        probe[range]
            .iter()
            .filter(|t| !big.contains(t.as_slice()))
            .map(|t| (*t).clone())
            .collect::<Vec<_>>()
    });
    let mut r = big.clone();
    for buf in buffers {
        for t in buf {
            r.insert(t);
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 7, 100, 4097] {
            for parts in [1usize, 2, 4, 7] {
                let ranges = chunk_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len, "len {len} parts {parts}");
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }

    #[test]
    fn map_chunks_orders_results() {
        let got = map_chunks(4, 100, |r| r.start);
        assert_eq!(got, vec![0, 25, 50, 75]);
        let one = map_chunks(1, 100, |r| r.len());
        assert_eq!(one, vec![100]);
        let empty: Vec<usize> = map_chunks(4, 0, |r| r.len());
        assert!(empty.is_empty());
    }
}
