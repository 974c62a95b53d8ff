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

use qprog_types::{Key, QResult, Value};

/// End of a chain / empty bucket.
pub(crate) const NIL: u32 = u32::MAX;

/// Tagged Fx hash of a key's cells (one cell for a join key, one per
/// grouping column). `% partitions` of it picks the grace partition, its
/// high bits pick the bucket — so the rows of one partition, which agree on
/// the low bits, still spread over all buckets. DOUBLE cells raise the
/// "cannot be join/grouping keys" type error.
#[inline]
pub(crate) fn key_hash<'a>(cells: impl IntoIterator<Item = &'a Value>) -> QResult<u64> {
    let mut h = qprog_core::fx::FxHasher::default();
    // Fixed tag decorrelates this from the estimators' Fx tables.
    0x9E37_79B9_7F4A_7C15_u64.hash(&mut h);
    for cell in cells {
        Key::hash_value(cell, &mut h)?;
    }
    Ok(h.finish())
}

/// `heads[bucket]` is the first row of the bucket's chain, `next[row]` the
/// row after it.
pub(crate) struct ChainIndex {
    heads: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(heads.len())`: a hash's bucket is its high bits.
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
    /// Index rows `0..rows` afresh over at least `2 × rows` buckets
    /// (allocations are reused). Rows are linked last to first, so every
    /// chain ascends: walking it yields rows in buffer order.
    pub fn rebuild(
        &mut self,
        rows: usize,
        mut hash_of: impl FnMut(usize) -> QResult<u64>,
    ) -> QResult<()> {
        assert!(rows < NIL as usize, "row index exceeds u32");
        let buckets = (2 * rows).next_power_of_two().max(MIN_BUCKETS);
        self.shift = 64 - buckets.trailing_zeros();
        self.heads.clear();
        self.heads.resize(buckets, NIL);
        self.next.clear();
        self.next.resize(rows, NIL);
        for row in (0..rows).rev() {
            let b = (hash_of(row)? >> self.shift) as usize;
            self.next[row] = std::mem::replace(&mut self.heads[b], row as u32);
        }
        Ok(())
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
        let b = (hash >> self.shift) as usize;
        self.next.push(std::mem::replace(&mut self.heads[b], row));
        row
    }

    /// First candidate row for `hash`, or [`NIL`].
    #[inline]
    pub fn first(&self, hash: u64) -> u32 {
        self.heads[(hash >> self.shift) as usize]
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

    #[test]
    fn key_hash_is_the_tagged_hash_of_the_key() {
        let by_key = |k: &Key| {
            let mut h = qprog_core::fx::FxHasher::default();
            0x9E37_79B9_7F4A_7C15_u64.hash(&mut h);
            k.hash(&mut h);
            h.finish()
        };
        for v in [
            Value::Bool(true),
            Value::Int64(-7),
            Value::Int64(i64::MAX),
            Value::str(""),
            Value::str("nine bytes"),
        ] {
            let key = Key::from_value(&v).unwrap();
            assert_eq!(key_hash([&v]).unwrap(), by_key(&key), "{v:?}");
        }
        assert!(key_hash([&Value::Float64(0.5)]).is_err());
        assert_ne!(
            key_hash([&Value::Int64(1), &Value::Int64(2)]).unwrap(),
            key_hash([&Value::Int64(2), &Value::Int64(1)]).unwrap()
        );
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
        index.rebuild(100, |r| Ok(hash(r))).unwrap();
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
                grown.rebuild(row, |r| Ok(hash(r))).unwrap();
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
