//! A chained hash index over the rows of a columnar buffer.
//!
//! The hash join's per-partition table and the aggregate's group table are
//! the same structure: rows live column-major in a `RowBatch` their
//! operator keeps anyway, and this index finds the rows of a hash bucket as
//! a chain of `u32` row numbers — two flat vectors, no allocation per key
//! or per row, nothing to free but the vectors. The index stores neither
//! keys nor hashes; the caller compares key cells of the candidates it is
//! handed.

use std::hash::{Hash, Hasher};
use std::ops::Range;

use qprog_types::{Column, Key, QResult};

/// End of a chain / empty bucket.
pub(crate) const NIL: u32 = u32::MAX;

/// Into `out`, the tagged Fx hash of the [`Key`]s of rows `rows` of `cols`
/// (the join or grouping key columns): `% partitions` picks the grace
/// partition, its spread high bits the bucket; a DOUBLE column is an error.
pub(crate) fn key_hashes<'a>(
    cols: impl Iterator<Item = &'a Column> + Clone,
    rows: Range<usize>,
    out: &mut Vec<u64>,
) -> QResult<()> {
    out.clear();
    if !rows.is_empty() {
        cols.clone()
            .try_for_each(|c| Key::check_type(c.data_type()))?;
    }
    let mut seed = qprog_core::fx::FxHasher::default();
    // Fixed tag decorrelates this from the estimators' Fx tables.
    0x9E37_79B9_7F4A_7C15_u64.hash(&mut seed);
    out.extend(rows.map(|r| {
        let mut h = seed;
        cols.clone().for_each(|c| c.key(r).hash(&mut h));
        h.finish()
    }));
    Ok(())
}

/// Low bits folded into the high bucket bits, so sequential integers spread.
#[inline]
fn spread(h: u64) -> u64 {
    h ^ (h << 17) ^ (h >> 29)
}

/// `heads[bucket]` is the first row of the bucket's chain, `next[row]` the
/// row after it.
pub(crate) struct ChainIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash's bucket is its spread high bits.
    shift: u32,
}

const MIN_BUCKETS: usize = 16;

impl Default for ChainIndex {
    /// An index of no rows.
    fn default() -> Self {
        ChainIndex {
            heads: vec![NIL; MIN_BUCKETS],
            next: Vec::new(),
            shift: 64 - MIN_BUCKETS.trailing_zeros(),
        }
    }
}

impl ChainIndex {
    /// Index rows `0..hashes.len()`, row `r` of hash `hashes[r]`, afresh
    /// over at least `2 × rows` buckets (allocations are reused). Rows are
    /// linked last to first, so every chain ascends: walking it yields rows
    /// in buffer order.
    pub fn rebuild(&mut self, hashes: &[u64]) {
        let rows = hashes.len();
        assert!(rows < NIL as usize, "row index exceeds u32");
        let buckets = (2 * rows).next_power_of_two().max(MIN_BUCKETS);
        self.shift = 64 - buckets.trailing_zeros();
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        self.next.clear();
        self.next.resize(rows, NIL);
        for (row, &h) in hashes.iter().enumerate().rev() {
            let b = (spread(h) >> self.shift) as usize;
            self.next[row] = std::mem::replace(&mut self.heads[b], row as u32);
        }
    }

    /// True when one more row would outnumber the buckets: the caller
    /// [`rebuild`](Self::rebuild)s before it [`push`](Self::push)es.
    pub fn is_crowded(&self) -> bool {
        self.next.len() >= self.heads.len()
    }

    /// Index one more row — its number is the count of rows indexed so
    /// far — at the front of its chain.
    pub fn push(&mut self, hash: u64) -> u32 {
        let row = self.next.len() as u32;
        let b = (spread(hash) >> self.shift) as usize;
        self.next.push(std::mem::replace(&mut self.heads[b], row));
        row
    }

    /// First candidate row for `hash`, or [`NIL`].
    #[inline]
    pub fn first(&self, hash: u64) -> u32 {
        self.heads[(spread(hash) >> self.shift) as usize]
    }

    /// The candidate after `row` in its chain, or [`NIL`].
    #[inline]
    pub fn next(&self, row: u32) -> u32 {
        self.next[row as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{DataType, Value};

    fn lane(ty: DataType, cells: &[Value]) -> Column {
        let mut col = Column::with_capacity(ty, cells.len());
        cells.iter().for_each(|v| col.push(v.clone()).unwrap());
        col
    }

    fn hashes<'a>(cols: impl Iterator<Item = &'a Column> + Clone, rows: usize) -> Vec<u64> {
        let mut out = Vec::new();
        key_hashes(cols, 0..rows, &mut out).unwrap();
        out
    }

    /// A lane cell of every key type, NULL included, hashes as its tagged
    /// `Key` does, and cells hash in column order.
    #[test]
    fn key_hash_is_the_tagged_hash_of_the_key() {
        let by_key = |k: &Key| {
            let mut h = qprog_core::fx::FxHasher::default();
            0x9E37_79B9_7F4A_7C15_u64.hash(&mut h);
            k.hash(&mut h);
            h.finish()
        };
        let lanes = [
            lane(DataType::Bool, &[true, false].map(Value::Bool)),
            lane(
                DataType::Int64,
                &[-7, 0, i64::MAX, i64::MIN].map(Value::Int64),
            ),
            lane(
                DataType::Utf8,
                &["", "nine bytes", "sixteen bytes.."].map(Value::str),
            ),
            lane(DataType::Null, &[Value::Null]),
        ];
        for (col, n) in lanes.iter().zip([3, 5, 4, 2]) {
            let mut nullable = col.clone();
            nullable.push(Value::Null).unwrap();
            let got = hashes(std::iter::once(&nullable), n);
            for (r, h) in got.into_iter().enumerate() {
                let key = Key::from_value(&nullable.value(r)).unwrap();
                assert_eq!(h, by_key(&key), "{key:?}");
            }
        }
        let doubles = lane(DataType::Float64, &[Value::Null]);
        let mut out = Vec::new();
        let err = key_hashes(std::iter::once(&doubles), 0..1, &mut out).unwrap_err();
        assert_eq!(err, Key::from_value(&Value::Float64(0.5)).unwrap_err());
        assert!(key_hashes(std::iter::once(&doubles), 0..0, &mut out).is_ok());
        // Cells hash in column order: (-7, 0) is not (0, -7).
        let zero = lane(DataType::Int64, &[Value::Int64(0)]);
        let pair = |x, y| hashes([x, y].into_iter(), 1)[0];
        assert_ne!(pair(&lanes[1], &zero), pair(&zero, &lanes[1]));
    }

    /// Sequential BIGINT keys, grouped the way the aggregate grows its
    /// index, occupy most of the buckets once spread (the raw hash's top
    /// bits occupy about a quarter).
    #[test]
    fn sequential_keys_spread_over_the_buckets() {
        let keys = lane(
            DataType::Int64,
            &(0..24_989).map(Value::Int64).collect::<Vec<_>>(),
        );
        let h = hashes(std::iter::once(&keys), 24_989);
        let mut index = ChainIndex::default();
        for (row, &hash) in h.iter().enumerate() {
            if index.is_crowded() {
                index.rebuild(&h[..row]);
            }
            index.push(hash);
        }
        assert_eq!(index.heads.len(), 32_768);
        let occupied = index.heads.iter().filter(|&&r| r != NIL).count();
        assert!(occupied * 100 >= 45 * 32_768, "{occupied} of 32768");
    }

    /// Every row is found from its hash exactly once, chains of a rebuilt
    /// index ascend, and pushes past the bucket count keep everything
    /// reachable after the rebuild they ask for.
    #[test]
    fn chains_hold_every_row_once_and_ascend_after_rebuild() {
        // Few distinct hashes: long chains in few buckets.
        let hash = |row: usize| (((row % 7) as u64) << 61) | (row as u64 % 3);
        let mut index = ChainIndex::default();
        assert_eq!(index.first(hash(5)), NIL);
        let all: Vec<u64> = (0..1000).map(hash).collect();
        index.rebuild(&all[..100]);
        let chain = |index: &ChainIndex, h: u64| {
            let mut rows = Vec::new();
            let mut c = index.first(h);
            while c != NIL {
                rows.push(c as usize);
                c = index.next(c);
            }
            rows
        };
        let mut seen = 0;
        for b in 0..7u64 {
            let rows = chain(&index, b << 61);
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "{rows:?}");
            assert!(rows.iter().all(|r| hash(*r) >> 61 == b));
            seen += rows.len();
        }
        assert_eq!(seen, 100);

        let mut grown = ChainIndex::default();
        let mut rebuilds = 0;
        for row in 0..1000usize {
            if grown.is_crowded() {
                grown.rebuild(&all[..row]);
                rebuilds += 1;
            }
            assert_eq!(grown.push(hash(row)) as usize, row);
        }
        assert!(rebuilds >= 5, "{rebuilds}");
        let mut all: Vec<usize> = (0..7u64).flat_map(|b| chain(&grown, b << 61)).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
