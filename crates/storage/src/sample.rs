//! Block-level random sampling for sample-first table scans.
//!
//! The paper (§3, §5 *Implementation*) requires table scans to first deliver
//! a block-level random sample of the base table, then scan the remainder
//! while excluding the already-delivered blocks ("a simple antijoin on
//! block-ids"). [`ScanOrder`] materializes that plan as a permutation of
//! block ids: a shuffled random prefix of `sample_blocks` ids followed by
//! the remaining ids in storage order.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::table::Table;

/// The order in which a sample-first scan visits a table's blocks.
#[derive(Debug, Clone)]
pub struct ScanOrder {
    order: Vec<usize>,
    sample_blocks: usize,
}

impl ScanOrder {
    /// Storage-order scan (no sampling).
    pub fn sequential(num_blocks: usize) -> Self {
        ScanOrder {
            order: (0..num_blocks).collect(),
            sample_blocks: 0,
        }
    }

    /// Sample-first scan: a uniform random `fraction` of blocks (rounded up,
    /// clamped to the table size) is visited first in random order; the rest
    /// follow in storage order. Deterministic in `seed`.
    pub fn sample_first(num_blocks: usize, fraction: f64, seed: u64) -> Self {
        let fraction = fraction.clamp(0.0, 1.0);
        let k = ((num_blocks as f64 * fraction).ceil() as usize).min(num_blocks);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ids: Vec<usize> = (0..num_blocks).collect();
        // Partial Fisher-Yates: the first k positions end up holding a
        // uniform random k-subset in random order.
        for i in 0..k {
            let j = rng.random_range(i..num_blocks);
            ids.swap(i, j);
        }
        let mut sampled: Vec<usize> = ids[..k].to_vec();
        sampled.shuffle(&mut rng);
        let mut in_sample = vec![false; num_blocks];
        for &b in &sampled {
            in_sample[b] = true;
        }
        let mut order = sampled;
        order.extend((0..num_blocks).filter(|&b| !in_sample[b]));
        ScanOrder {
            order,
            sample_blocks: k,
        }
    }

    /// Sample-first scan over a table.
    pub fn for_table(table: &Table, fraction: f64, seed: u64) -> Self {
        if fraction <= 0.0 {
            ScanOrder::sequential(table.num_blocks())
        } else {
            ScanOrder::sample_first(table.num_blocks(), fraction, seed)
        }
    }

    /// The visit order of block ids.
    pub fn blocks(&self) -> &[usize] {
        &self.order
    }

    /// How many leading blocks constitute the random sample.
    pub fn sample_blocks(&self) -> usize {
        self.sample_blocks
    }

    /// Split the visit order into `ways` contiguous chunks for
    /// partition-parallel scans. Concatenating the chunks in order yields
    /// the original visit order exactly, so a parallel scan that drains
    /// chunk `i` before chunk `i+1`'s output reproduces the serial row
    /// order. Chunks may be empty when `ways > num_blocks`; each chunk's
    /// `sample_blocks` covers the portion of the sample prefix it holds.
    pub fn split(&self, ways: usize) -> Vec<ScanOrder> {
        let ways = ways.max(1);
        let n = self.order.len();
        let base = n / ways;
        let extra = n % ways;
        let mut out = Vec::with_capacity(ways);
        let mut start = 0;
        for i in 0..ways {
            let len = base + usize::from(i < extra);
            let end = start + len;
            let sample = self.sample_blocks.clamp(start, end) - start;
            out.push(ScanOrder {
                order: self.order[start..end].to_vec(),
                sample_blocks: sample,
            });
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn sequential_is_identity() {
        let o = ScanOrder::sequential(4);
        assert_eq!(o.blocks(), &[0, 1, 2, 3]);
        assert_eq!(o.sample_blocks(), 0);
    }

    #[test]
    fn sample_first_is_a_permutation() {
        for &n in &[0usize, 1, 7, 100] {
            for &f in &[0.0, 0.1, 0.5, 1.0] {
                let o = ScanOrder::sample_first(n, f, 42);
                let seen: HashSet<usize> = o.blocks().iter().copied().collect();
                assert_eq!(seen.len(), n, "n={n} f={f}");
                assert!(o.blocks().iter().all(|&b| b < n));
            }
        }
    }

    #[test]
    fn sample_size_matches_fraction() {
        let o = ScanOrder::sample_first(100, 0.1, 1);
        assert_eq!(o.sample_blocks(), 10);
        let o = ScanOrder::sample_first(100, 1.0, 1);
        assert_eq!(o.sample_blocks(), 100);
        // rounds up
        let o = ScanOrder::sample_first(100, 0.001, 1);
        assert_eq!(o.sample_blocks(), 1);
    }

    #[test]
    fn remainder_is_in_storage_order() {
        let o = ScanOrder::sample_first(50, 0.2, 7);
        let rest = &o.blocks()[o.sample_blocks()..];
        let mut sorted = rest.to_vec();
        sorted.sort_unstable();
        assert_eq!(rest, sorted.as_slice());
    }

    #[test]
    fn deterministic_in_seed() {
        let a = ScanOrder::sample_first(64, 0.25, 9);
        let b = ScanOrder::sample_first(64, 0.25, 9);
        let c = ScanOrder::sample_first(64, 0.25, 10);
        assert_eq!(a.blocks(), b.blocks());
        assert_ne!(a.blocks(), c.blocks());
    }

    #[test]
    fn samples_are_roughly_uniform() {
        // Each block should appear in the sample prefix with probability
        // ~k/n across seeds.
        let n = 20;
        let mut counts = vec![0u32; n];
        for seed in 0..2000 {
            let o = ScanOrder::sample_first(n, 0.25, seed);
            for &b in &o.blocks()[..o.sample_blocks()] {
                counts[b] += 1;
            }
        }
        // expected 2000 * 5/20 = 500 per block; allow generous slack
        for (b, &c) in counts.iter().enumerate() {
            assert!(
                (350..=650).contains(&c),
                "block {b} sampled {c} times, expected ~500"
            );
        }
    }

    #[test]
    fn split_concatenation_reproduces_visit_order() {
        let o = ScanOrder::sample_first(53, 0.3, 11);
        for ways in [1usize, 2, 3, 4, 7, 53, 60] {
            let parts = o.split(ways);
            assert_eq!(parts.len(), ways);
            let cat: Vec<usize> = parts
                .iter()
                .flat_map(|p| p.blocks().iter().copied())
                .collect();
            assert_eq!(cat, o.blocks(), "ways={ways}");
            let sample_sum: usize = parts.iter().map(|p| p.sample_blocks()).sum();
            assert_eq!(sample_sum, o.sample_blocks(), "ways={ways}");
            // Chunk sizes are balanced within one block.
            let (min, max) = parts
                .iter()
                .map(|p| p.blocks().len())
                .fold((usize::MAX, 0), |(lo, hi), l| (lo.min(l), hi.max(l)));
            assert!(max - min <= 1, "ways={ways}");
        }
    }

    #[test]
    fn split_sample_prefix_stays_a_prefix_per_chunk() {
        // Every chunk's sample_blocks must cover exactly its slice of the
        // global sample prefix: chunks fully inside the prefix are all
        // sample, chunks past it have none.
        let o = ScanOrder::sample_first(40, 0.5, 3);
        let parts = o.split(4);
        let mut covered = 0;
        for p in &parts {
            let start = covered;
            let end = covered + p.blocks().len();
            let expect = o.sample_blocks().clamp(start, end) - start;
            assert_eq!(p.sample_blocks(), expect);
            covered = end;
        }
    }

    #[test]
    fn split_zero_ways_is_one_chunk() {
        let o = ScanOrder::sequential(5);
        let parts = o.split(0);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].blocks(), o.blocks());
    }
}
