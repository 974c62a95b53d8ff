//! Exact frequency histograms — the `N_i` counts of §4.1.
//!
//! A [`FreqHist`] maintains, for every attribute value seen so far, the exact
//! number of occurrences. On top of the raw counts it *incrementally*
//! maintains the aggregates every estimator in the paper needs:
//!
//! - `t` — total observations,
//! - `d` — number of distinct values,
//! - the **count-of-counts** profile `f_j` (how many values occur exactly
//!   `j` times) used by GEE and MLE,
//! - `Σ N_i²` used by the `γ²` skew measure,
//!
//! all in `O(1)` per observation, which is what makes the framework
//! *lightweight*. Memory accounting (`memory_used` / `memory_allocated`)
//! reproduces the bookkeeping of the paper's Table 2.

use std::ops::Range;

use qprog_types::{Column, Key, QError, QResult};

use crate::fx::FxHashMap;

/// Upper bound on dense-lane slots (8 bytes each, ≤ 8 MiB): integer key
/// spans wider than this fall back to the hash lane.
const DENSE_MAX_SLOTS: usize = 1 << 20;

/// Frequencies below this keep their class count `f_j` in a vector indexed
/// by `j` (≤ 32 KiB, grown on demand); only the few classes of heavy
/// hitters above it pay for a hash map entry.
const DENSE_CLASSES: u64 = 4096;

/// Count storage: a contiguous array when the keys are integers in a
/// bounded span (the common case for synthetic and surrogate keys, and the
/// layout that makes the per-probe-tuple `N_i` lookup an array read instead
/// of a hash probe), falling back to a hash map for strings, composites,
/// and wide integer spans.
#[derive(Debug, Clone)]
enum CountLane {
    /// `slots[(k - lo) as usize]` is the count of `Key::Int(k)`.
    Dense {
        lo: i64,
        slots: Vec<u64>,
    },
    Map(FxHashMap<Key, u64>),
}

impl Default for CountLane {
    fn default() -> Self {
        CountLane::Dense {
            lo: 0,
            slots: Vec::new(),
        }
    }
}

/// An exact frequency histogram over [`Key`]s with incrementally maintained
/// summary aggregates.
///
/// # Example
///
/// ```
/// use qprog_core::freq_hist::FreqHist;
/// use qprog_types::Key;
///
/// let mut h = FreqHist::new();
/// for v in [1i64, 1, 2, 3, 3, 3] {
///     h.observe(&Key::Int(v));
/// }
/// assert_eq!(h.total(), 6);
/// assert_eq!(h.distinct(), 3);
/// assert_eq!(h.count(&Key::Int(3)), 3);
/// assert_eq!(h.singletons(), 1); // only the value 2
/// ```
#[derive(Debug, Clone, Default)]
pub struct FreqHist {
    counts: CountLane,
    total: u64,
    distinct: u64,
    /// `f_j`, the number of distinct values with frequency exactly `j`:
    /// `class_dense[j]` for `j <` [`DENSE_CLASSES`], `class_sparse[&j]`
    /// (never holding a zero) above.
    class_dense: Vec<u64>,
    class_sparse: FxHashMap<u64, u64>,
    /// Largest frequency ever reached (monotone: when a value moves from
    /// count `M` to `M+1`, the maximum becomes `M+1`).
    max_freq: u64,
    /// `Σ N_i²`, for the squared coefficient of variation.
    sum_sq: u128,
    /// Payload bytes of stored string keys (for memory accounting).
    key_payload_bytes: usize,
}

impl FreqHist {
    /// An empty histogram.
    pub fn new() -> Self {
        FreqHist::default()
    }

    /// Convert the dense lane to the hash lane (non-integer key observed,
    /// or the integer span outgrew [`DENSE_MAX_SLOTS`]). Counts and every
    /// derived aggregate are unchanged.
    fn spill_to_map(&mut self) {
        if let CountLane::Dense { lo, slots } = &self.counts {
            let mut map: FxHashMap<Key, u64> =
                FxHashMap::with_capacity_and_hasher(self.distinct as usize, Default::default());
            for (i, &c) in slots.iter().enumerate() {
                if c > 0 {
                    map.insert(Key::Int(lo + i as i64), c);
                }
            }
            self.counts = CountLane::Map(map);
        }
    }

    /// Add `n` (≥ 1) to `key`'s count, returning the count before. Handles
    /// lane selection, dense growth, and spill.
    fn bump(&mut self, key: &Key, n: u64) -> u64 {
        loop {
            match &mut self.counts {
                CountLane::Dense { lo, slots } => {
                    let Key::Int(k) = *key else {
                        // Bool/Str/Composite keys use the hash lane.
                        self.spill_to_map();
                        continue;
                    };
                    if slots.is_empty() {
                        *lo = k;
                        slots.push(n);
                        return 0;
                    }
                    let off = k.wrapping_sub(*lo) as u64;
                    if k >= *lo && off < slots.len() as u64 {
                        let slot = &mut slots[off as usize];
                        let before = *slot;
                        *slot += n;
                        return before;
                    }
                    // Out of range: grow (with ~25% slack on the extended
                    // side, capped by the dense budget) or spill.
                    let hi = *lo as i128 + slots.len() as i128 - 1;
                    let span = (hi.max(k as i128) - (*lo as i128).min(k as i128) + 1) as u128;
                    if span > DENSE_MAX_SLOTS as u128 {
                        self.spill_to_map();
                        continue;
                    }
                    if (k as i128) > hi {
                        let want = (k as i128 - *lo as i128 + 1) as usize;
                        let slack = (want / 4).min(DENSE_MAX_SLOTS - want);
                        // Keep slack within i64 range above `lo`.
                        let room = (i64::MAX as i128 - *lo as i128 + 1 - want as i128)
                            .clamp(0, usize::MAX as i128)
                            as usize;
                        slots.resize(want + slack.min(room), 0);
                    } else {
                        let need = (*lo as i128 - k as i128) as usize;
                        let want = need + slots.len();
                        let slack = (want / 4)
                            .min(DENSE_MAX_SLOTS - want.min(DENSE_MAX_SLOTS))
                            .min((k as i128 - i64::MIN as i128) as u128 as usize);
                        let front = need + slack;
                        let mut grown = vec![0u64; front + slots.len()];
                        grown[front..].copy_from_slice(slots);
                        *slots = grown;
                        *lo -= front as i64;
                    }
                    // Re-enter the in-range path.
                }
                CountLane::Map(map) => {
                    let slot = match map.entry(key.clone()) {
                        std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                        std::collections::hash_map::Entry::Vacant(v) => {
                            if let Key::Str(s) = key {
                                self.key_payload_bytes += s.len();
                            }
                            v.insert(0)
                        }
                    };
                    let before = *slot;
                    *slot += n;
                    return before;
                }
            }
        }
    }

    /// Record one occurrence of `key`; returns the count *before* this
    /// observation (0 for a first occurrence) — exactly the `N_i` transition
    /// the GEE update (Algorithm 2) needs.
    pub fn observe(&mut self, key: &Key) -> u64 {
        self.observe_n(key, 1)
    }

    /// Record `n` occurrences of `key` at once (used when folding derived
    /// histograms in pipeline estimation). A no-op when `n == 0`.
    /// Returns the count before the observation.
    pub fn observe_n(&mut self, key: &Key, n: u64) -> u64 {
        if n == 0 {
            return self.count(key);
        }
        let before = self.bump(key, n);
        self.transition(before, n);
        before
    }

    /// Some value's count rose from `before` to `before + n` (`n ≥ 1`):
    /// update `t`, `d`, `f_j`, `Σ N_i²` and `M`. This is everything an
    /// observation does besides the per-key count, so a caller that keeps
    /// the counts in a table of its own (an aggregate's group table) feeds
    /// transitions and leaves the per-key lane empty.
    pub(crate) fn transition(&mut self, before: u64, n: u64) {
        let after = before + n;
        self.total += n;
        // after² − before², with one narrow product instead of two squares.
        self.sum_sq += u128::from(n) * (u128::from(before) + u128::from(after));
        if before == 0 {
            self.distinct += 1;
        } else if before < DENSE_CLASSES {
            self.class_dense[before as usize] -= 1;
        } else {
            let f = self
                .class_sparse
                .get_mut(&before)
                .expect("count-of-counts must contain the old frequency");
            *f -= 1;
            if *f == 0 {
                self.class_sparse.remove(&before);
            }
        }
        if after < DENSE_CLASSES {
            if self.class_dense.len() <= after as usize {
                self.class_dense.resize(after as usize + 1, 0);
            }
            self.class_dense[after as usize] += 1;
        } else {
            *self.class_sparse.entry(after).or_insert(0) += 1;
        }
        self.max_freq = self.max_freq.max(after);
    }

    /// [`observe_n`](Self::observe_n) of every non-NULL cell of rows `rows`
    /// of `col`, `weights[i]` times the `i`-th (once each when `None`): the
    /// build side of a join. A DOUBLE lane is the [`Key::check_type`] error.
    pub fn observe_column(
        &mut self,
        col: &Column,
        rows: Range<usize>,
        weights: Option<&[u64]>,
    ) -> QResult<()> {
        Key::check_type(col.data_type())?;
        if weights.is_some_and(|w| w.len() != rows.len()) {
            return Err(QError::internal("observe_column: one weight per key"));
        }
        let ints = col.ints();
        for (i, r) in rows.enumerate() {
            let n = weights.map_or(1, |w| w[i]);
            if n == 0 || !col.is_valid(r) {
                continue;
            }
            // A BIGINT cell inside the dense lane is counted in place; any
            // other cell takes `bump`'s lane selection, growth and spill.
            let slot = match (&mut self.counts, ints) {
                (CountLane::Dense { lo, slots }, Some(v)) => {
                    slots.get_mut(v[r].wrapping_sub(*lo) as usize)
                }
                _ => None,
            };
            let before = match slot {
                Some(slot) => std::mem::replace(slot, *slot + n),
                None => self.bump(&col.key(r), n),
            };
            self.transition(before, n);
        }
        Ok(())
    }

    /// Current count `N_i` for `key` (0 if never seen).
    pub fn count(&self, key: &Key) -> u64 {
        match &self.counts {
            CountLane::Dense { lo, slots, .. } => match key {
                Key::Int(k) => dense_count(*lo, slots, *k),
                _ => 0,
            },
            CountLane::Map(map) => map.get(key).copied().unwrap_or(0),
        }
    }

    /// `out[i]` = [`count`](Self::count) of the `i`-th of rows `rows` of
    /// `col` (0 for NULL), at the positions of `sel` only (all when `None`).
    /// The lane is resolved once per column: on the dense lane a BIGINT cell
    /// costs one array read. A DOUBLE lane is the [`Key::check_type`] error.
    pub fn counts_of_column(
        &self,
        col: &Column,
        rows: Range<usize>,
        sel: Option<&[u32]>,
        out: &mut [u64],
    ) -> QResult<()> {
        Key::check_type(col.data_type())?;
        if rows.len() != out.len() {
            return Err(QError::internal("counts_of_column: one slot per row"));
        }
        let start = rows.start;
        match (&self.counts, col.ints()) {
            (CountLane::Dense { lo, slots }, Some(v)) => {
                fill_counts(col, start, sel, out, |r| dense_count(*lo, slots, v[r]))
            }
            // Only integers live on the dense lane.
            (CountLane::Dense { .. }, _) => fill_counts(col, start, sel, out, |_| 0),
            (CountLane::Map(map), _) => fill_counts(col, start, sel, out, |r| {
                map.get(&col.key(r)).copied().unwrap_or(0)
            }),
        }
        Ok(())
    }

    /// Total observations `t`.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of distinct values `d`.
    pub fn distinct(&self) -> u64 {
        self.distinct
    }

    /// `f_1`: the number of singleton values.
    pub fn singletons(&self) -> u64 {
        self.class_dense.get(1).copied().unwrap_or(0)
    }

    /// The count-of-counts profile `(j, f_j)` with `f_j > 0`, in ascending
    /// `j` — a function of the multiset of counts alone, whatever order the
    /// observations arrived in.
    pub fn frequency_classes(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut sparse: Vec<(u64, u64)> = self.class_sparse.iter().map(|(&j, &f)| (j, f)).collect();
        sparse.sort_unstable();
        let dense = self.class_dense.iter().enumerate();
        dense
            .filter(|(_, &f)| f > 0)
            .map(|(j, &f)| (j as u64, f))
            .chain(sparse)
    }

    /// The largest observed frequency `M` (0 when empty).
    pub fn max_frequency(&self) -> u64 {
        self.max_freq
    }

    /// `Σ N_i²` over all values.
    pub fn sum_squared_counts(&self) -> u128 {
        self.sum_sq
    }

    /// Squared coefficient of variation `γ²` of the group frequencies:
    /// `Var(N) / Mean(N)²`. Returns 0 when fewer than one distinct value.
    ///
    /// Maintained from `t`, `d` and `Σ N_i²`, i.e. O(1) to read — §4.2's
    /// requirement for the online estimator chooser.
    pub fn gamma_squared(&self) -> f64 {
        let d = self.distinct() as f64;
        if d == 0.0 || self.total == 0 {
            return 0.0;
        }
        let mean = self.total as f64 / d;
        let var = (self.sum_sq as f64 / d) - mean * mean;
        (var / (mean * mean)).max(0.0)
    }

    /// Iterate over `(key, count)` pairs (unspecified order). Keys are
    /// yielded by value: the dense lane materializes them from slot indices.
    pub fn iter(&self) -> impl Iterator<Item = (Key, u64)> + '_ {
        let (dense, map) = match &self.counts {
            CountLane::Dense { lo, slots, .. } => (Some((*lo, slots)), None),
            CountLane::Map(m) => (None, Some(m)),
        };
        dense
            .into_iter()
            .flat_map(|(lo, slots)| {
                slots
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(move |(i, &c)| (Key::Int(lo + i as i64), c))
            })
            .chain(
                map.into_iter()
                    .flat_map(|m| m.iter().map(|(k, &c)| (k.clone(), c))),
            )
    }

    /// Fold another histogram into this one: every aggregate (`t`, `d`,
    /// `f_j`, `Σ N_i²`, `M`) ends up exactly as if each underlying
    /// observation had been applied here directly. Per-key counts add, so
    /// the merge is associative and commutative — the property that lets
    /// partition-parallel workers build private fragments and combine them
    /// into a histogram identical to the serial build.
    pub fn merge(&mut self, other: &FreqHist) {
        for (key, n) in other.iter() {
            self.observe_n(&key, n);
        }
    }

    /// Bytes of live data — the "Mem. Used" column of the paper's Table 2.
    /// Hash lane: one `(Key, u64)` entry per distinct value plus string
    /// payloads. Dense lane: one `u64` slot per key in the covered span.
    /// Either way plus the `f_j` profile: one `u64` per dense class and one
    /// `(u64, u64)` entry per class above it.
    pub fn memory_used(&self) -> usize {
        let body = match &self.counts {
            CountLane::Dense { slots, .. } => slots.len() * std::mem::size_of::<u64>(),
            CountLane::Map(map) => {
                let entry = std::mem::size_of::<Key>() + std::mem::size_of::<u64>();
                map.len() * entry
            }
        };
        let profile = self.class_dense.len() * std::mem::size_of::<u64>()
            + self.class_sparse.len() * std::mem::size_of::<(u64, u64)>();
        std::mem::size_of::<Self>() + body + profile + self.key_payload_bytes
    }

    /// Bytes reserved by the backing storage (capacity, not length) —
    /// the "Mem. Alloc." column of the paper's Table 2.
    pub fn memory_allocated(&self) -> usize {
        let body = match &self.counts {
            CountLane::Dense { slots, .. } => slots.capacity() * std::mem::size_of::<u64>(),
            CountLane::Map(map) => {
                // Hash table slots hold (Key, u64) pairs plus one control
                // byte each, sized to capacity.
                let slot = std::mem::size_of::<(Key, u64)>() + 1;
                map.capacity() * slot
            }
        };
        let profile = self.class_dense.capacity() * std::mem::size_of::<u64>()
            + self.class_sparse.capacity() * (std::mem::size_of::<(u64, u64)>() + 1);
        std::mem::size_of::<Self>() + body + profile + self.key_payload_bytes
    }
}

/// Dense-lane read of `Key::Int(k)`. The wrapping difference is `k - lo`
/// exactly when `k >= lo` and at least `2^63` otherwise, so one unsigned
/// compare covers both ends of the span.
#[inline]
fn dense_count(lo: i64, slots: &[u64], k: i64) -> u64 {
    let off = k.wrapping_sub(lo) as u64;
    if off < slots.len() as u64 {
        slots[off as usize]
    } else {
        0
    }
}

/// `out[i] = count(start + i)`, 0 for NULL, at the positions of `sel` (all
/// when `None`): one loop per count lane, its lookup inlined.
fn fill_counts(
    col: &Column,
    start: usize,
    sel: Option<&[u32]>,
    out: &mut [u64],
    count: impl Fn(usize) -> u64,
) {
    let at = |i: usize| u64::from(col.is_valid(start + i)) * count(start + i);
    match sel {
        None => out.iter_mut().enumerate().for_each(|(i, o)| *o = at(i)),
        Some(sel) => sel.iter().for_each(|&i| out[i as usize] = at(i as usize)),
    }
}

impl<'a> FromIterator<&'a Key> for FreqHist {
    fn from_iter<I: IntoIterator<Item = &'a Key>>(iter: I) -> Self {
        let mut h = FreqHist::new();
        for k in iter {
            h.observe(k);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{DataType, Value};

    fn hist_of(keys: &[i64]) -> FreqHist {
        let mut h = FreqHist::new();
        for &k in keys {
            h.observe(&Key::Int(k));
        }
        h
    }

    #[test]
    fn observe_returns_prior_count() {
        let mut h = FreqHist::new();
        assert_eq!(h.observe(&Key::Int(1)), 0);
        assert_eq!(h.observe(&Key::Int(1)), 1);
        assert_eq!(h.observe(&Key::Int(2)), 0);
        assert_eq!(h.count(&Key::Int(1)), 2);
        assert_eq!(h.count(&Key::Int(3)), 0);
    }

    #[test]
    fn totals_and_distinct() {
        let h = hist_of(&[1, 1, 1, 2, 2, 3]);
        assert_eq!(h.total(), 6);
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.max_frequency(), 3);
    }

    #[test]
    fn count_of_counts_profile() {
        let h = hist_of(&[1, 1, 1, 2, 2, 3, 4]);
        // frequencies: {1:3, 2:2, 3:1, 4:1} → f_1 = 2, f_2 = 1, f_3 = 1
        let mut classes: Vec<(u64, u64)> = h.frequency_classes().collect();
        classes.sort_unstable();
        assert_eq!(classes, vec![(1, 2), (2, 1), (3, 1)]);
        assert_eq!(h.singletons(), 2);
    }

    #[test]
    fn count_of_counts_sums_match() {
        let h = hist_of(&[5, 5, 5, 5, 7, 7, 9, 11, 11, 11]);
        let d: u64 = h.frequency_classes().map(|(_, f)| f).sum();
        let t: u64 = h.frequency_classes().map(|(j, f)| j * f).sum();
        assert_eq!(d, h.distinct());
        assert_eq!(t, h.total());
    }

    #[test]
    fn sum_sq_incremental_matches_direct() {
        let h = hist_of(&[1, 1, 2, 2, 2, 3, 4, 4, 4, 4]);
        let direct: u128 = h.iter().map(|(_, c)| (c as u128) * (c as u128)).sum();
        assert_eq!(h.sum_squared_counts(), direct);
    }

    #[test]
    fn gamma_squared_zero_for_uniform() {
        // all frequencies equal → variance 0 → γ² = 0
        let h = hist_of(&[1, 2, 3, 4, 1, 2, 3, 4]);
        assert!(h.gamma_squared().abs() < 1e-12);
    }

    #[test]
    fn gamma_squared_grows_with_skew() {
        let uniform = hist_of(&(0..100).map(|i| i % 10).collect::<Vec<_>>());
        let mut skewed_keys = vec![0i64; 91];
        skewed_keys.extend(1..10);
        let skewed = hist_of(&skewed_keys);
        assert!(skewed.gamma_squared() > uniform.gamma_squared() + 1.0);
    }

    #[test]
    fn gamma_squared_matches_definition() {
        let h = hist_of(&[1, 1, 1, 2, 3]); // freqs 3,1,1
        let freqs = [3.0f64, 1.0, 1.0];
        let mean = freqs.iter().sum::<f64>() / 3.0;
        let var = freqs.iter().map(|f| (f - mean) * (f - mean)).sum::<f64>() / 3.0;
        let expect = var / (mean * mean);
        assert!((h.gamma_squared() - expect).abs() < 1e-12);
    }

    #[test]
    fn observe_n_equivalent_to_repeated_observe() {
        let mut a = FreqHist::new();
        let mut b = FreqHist::new();
        for _ in 0..5 {
            a.observe(&Key::Int(9));
        }
        a.observe(&Key::Int(2));
        b.observe_n(&Key::Int(9), 5);
        b.observe_n(&Key::Int(2), 1);
        b.observe_n(&Key::Int(3), 0); // no-op
        assert_eq!(a.total(), b.total());
        assert_eq!(a.distinct(), b.distinct());
        assert_eq!(a.sum_squared_counts(), b.sum_squared_counts());
        let sorted = |h: &FreqHist| {
            let mut v: Vec<_> = h.frequency_classes().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&a), sorted(&b));
        assert_eq!(b.count(&Key::Int(3)), 0);
    }

    #[test]
    fn merge_equals_serial_observation_order_independently() {
        let all = [1i64, 1, 1, 2, 2, 3, 4, 4, 5, 5, 5, 5];
        let serial = hist_of(&all);
        // Split into fragments, merge in both orders.
        let a = hist_of(&all[..5]);
        let b = hist_of(&all[5..]);
        for (x, y) in [(&a, &b), (&b, &a)] {
            let mut merged = x.clone();
            merged.merge(y);
            assert_eq!(merged.total(), serial.total());
            assert_eq!(merged.distinct(), serial.distinct());
            assert_eq!(merged.max_frequency(), serial.max_frequency());
            assert_eq!(merged.sum_squared_counts(), serial.sum_squared_counts());
            let sorted = |h: &FreqHist| {
                let mut v: Vec<_> = h.frequency_classes().collect();
                v.sort_unstable();
                v
            };
            assert_eq!(sorted(&merged), sorted(&serial));
            for (k, c) in serial.iter() {
                assert_eq!(merged.count(&k), c);
            }
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = hist_of(&[7, 7, 8]);
        let mut merged = h.clone();
        merged.merge(&FreqHist::new());
        assert_eq!(merged.total(), h.total());
        let mut empty = FreqHist::new();
        empty.merge(&h);
        assert_eq!(empty.total(), h.total());
        assert_eq!(empty.distinct(), h.distinct());
    }

    #[test]
    fn string_keys_and_memory_accounting() {
        let mut h = FreqHist::new();
        let used0 = h.memory_used();
        h.observe(&Key::from("abcdefgh"));
        h.observe(&Key::from("abcdefgh"));
        h.observe(&Key::Int(1));
        assert!(h.memory_used() > used0);
        assert!(h.memory_allocated() >= h.memory_used() - std::mem::size_of::<FreqHist>());
        // duplicate string key payload counted once: the second occurrence
        // costs only the `f_2` slot its count moved to
        let one_str = h.memory_used();
        let mut h2 = FreqHist::new();
        h2.observe(&Key::from("abcdefgh"));
        h2.observe(&Key::Int(1));
        assert_eq!(one_str, h2.memory_used() + std::mem::size_of::<u64>());
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let h = FreqHist::new();
        assert_eq!(h.total(), 0);
        assert_eq!(h.distinct(), 0);
        assert_eq!(h.singletons(), 0);
        assert_eq!(h.max_frequency(), 0);
        assert_eq!(h.gamma_squared(), 0.0);
        assert_eq!(h.frequency_classes().count(), 0);
    }

    #[test]
    fn from_iterator() {
        let keys: Vec<Key> = [1i64, 1, 2].iter().map(|&i| Key::Int(i)).collect();
        let h: FreqHist = keys.iter().collect();
        assert_eq!(h.total(), 3);
        assert_eq!(h.distinct(), 2);
    }

    /// The dense lane must be observationally identical to the hash lane.
    fn assert_same(a: &FreqHist, b: &FreqHist, keys: &[Key]) {
        assert_eq!(a.total(), b.total());
        assert_eq!(a.distinct(), b.distinct());
        assert_eq!(a.max_frequency(), b.max_frequency());
        assert_eq!(a.sum_squared_counts(), b.sum_squared_counts());
        assert_eq!(a.singletons(), b.singletons());
        let sorted = |h: &FreqHist| {
            let mut v: Vec<_> = h.frequency_classes().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(a), sorted(b));
        for k in keys {
            assert_eq!(a.count(k), b.count(k));
        }
        let pairs = |h: &FreqHist| {
            let mut v: Vec<_> = h.iter().map(|(k, c)| (format!("{k:?}"), c)).collect();
            v.sort();
            v
        };
        assert_eq!(pairs(a), pairs(b));
    }

    #[test]
    fn dense_lane_front_extension_and_negative_keys() {
        let seq = [10i64, 500, -3, 10, -3, 0, -100, 499, -3];
        let mut dense = FreqHist::new();
        let mut map = FreqHist::new();
        map.observe(&Key::from("force-map-lane"));
        let mut befores = Vec::new();
        for &v in &seq {
            befores.push((dense.observe(&Key::Int(v)), map.observe(&Key::Int(v))));
        }
        for (d, m) in befores {
            assert_eq!(d, m);
        }
        assert_eq!(dense.total(), seq.len() as u64);
        assert_eq!(dense.count(&Key::Int(-3)), 3);
        assert_eq!(dense.count(&Key::Int(12345)), 0);
        assert_eq!(dense.distinct(), 6);
    }

    #[test]
    fn dense_lane_spills_on_wide_span() {
        let mut h = FreqHist::new();
        h.observe(&Key::Int(0));
        h.observe(&Key::Int(0));
        // Span of 10M slots exceeds the dense budget → hash lane.
        assert_eq!(h.observe(&Key::Int(10_000_000)), 0);
        assert_eq!(h.count(&Key::Int(0)), 2);
        assert_eq!(h.count(&Key::Int(10_000_000)), 1);
        assert_eq!(h.total(), 3);
        assert_eq!(h.distinct(), 2);
        assert_eq!(h.sum_squared_counts(), 5);
        // Extreme spans must not overflow the growth arithmetic.
        h.observe(&Key::Int(i64::MIN));
        h.observe(&Key::Int(i64::MAX));
        assert_eq!(h.distinct(), 4);
    }

    #[test]
    fn dense_lane_spills_on_mixed_key_types() {
        let mut h = FreqHist::new();
        h.observe(&Key::Int(7));
        h.observe(&Key::Int(7));
        h.observe(&Key::from("abc"));
        assert_eq!(h.observe(&Key::Int(7)), 2);
        assert_eq!(h.count(&Key::from("abc")), 1);
        assert_eq!(h.distinct(), 2);
        let mut pairs: Vec<_> = h.iter().map(|(k, c)| (format!("{k:?}"), c)).collect();
        pairs.sort();
        assert_eq!(
            pairs,
            vec![
                (format!("{:?}", Key::Int(7)), 3),
                (format!("{:?}", Key::from("abc")), 1),
            ]
        );
    }

    /// A column of `cells`, and its length.
    fn lane(ty: DataType, cells: &[Value]) -> (Column, usize) {
        let mut col = Column::with_capacity(ty, cells.len());
        cells.iter().for_each(|v| col.push(v.clone()).unwrap());
        (col, cells.len())
    }

    #[test]
    fn column_kernels_match_per_key_calls_on_both_lanes() {
        let (ints, _) = lane(
            DataType::Int64,
            &[5, 0, -2, 5, i64::MAX, i64::MIN].map(|k| match k {
                0 => Value::Null,
                k => Value::Int64(k),
            }),
        );
        let others = [
            lane(
                DataType::Utf8,
                &[Value::str("s"), Value::Null, Value::str("s")],
            ),
            lane(DataType::Bool, &[Value::Bool(true), Value::Bool(false)]),
            lane(DataType::Null, &[Value::Null, Value::Null]),
        ];
        let mut dense = FreqHist::new();
        dense.observe_column(&ints, 0..4, None).unwrap();
        let mut map = FreqHist::new();
        map.observe_column(&ints, 0..6, None).unwrap();
        for (col, n) in &others {
            map.observe_column(col, 0..*n, None).unwrap();
        }
        assert_eq!((dense.total(), dense.distinct()), (3, 2)); // NULL skipped
        assert_eq!((map.total(), map.distinct()), (9, 7));
        for h in [&dense, &map] {
            for (col, n) in others.iter().chain([&(ints.clone(), 6)]) {
                let n = *n;
                let mut out = vec![u64::MAX; n - 1];
                h.counts_of_column(col, 1..n, None, &mut out).unwrap();
                for (r, got) in (1..n).zip(&out) {
                    let key = Key::from_value(&col.value(r)).unwrap();
                    let expect = if key.is_null() { 0 } else { h.count(&key) };
                    assert_eq!(*got, expect, "{key:?}");
                }
                // A selection fills only its positions, with the same counts.
                let mut picked = vec![u64::MAX; n - 1];
                h.counts_of_column(col, 1..n, Some(&[0]), &mut picked)
                    .unwrap();
                assert_eq!(picked[0], out[0]);
                assert!(picked[1..].iter().all(|&c| c == u64::MAX));
            }
        }
        // Weighted observe is observe_n per row; zero weights are skipped.
        let mut weighted = FreqHist::new();
        weighted
            .observe_column(&ints, 0..4, Some(&[2, 9, 0, 3]))
            .unwrap();
        assert_eq!(weighted.count(&Key::Int(5)), 5);
        assert_eq!((weighted.total(), weighted.distinct()), (5, 1));
        assert_eq!(weighted.sum_squared_counts(), 25);
    }

    #[test]
    fn column_kernels_reject_double_lanes_and_ragged_slices() {
        let (doubles, _) = lane(DataType::Float64, &[Value::Float64(1.5), Value::Null]);
        let expect = Key::from_value(&Value::Float64(1.5)).unwrap_err();
        let mut dense = FreqHist::new();
        dense.observe(&Key::Int(1));
        let mut map = dense.clone();
        map.observe(&Key::from("force-map-lane"));
        for h in [&dense, &map] {
            // The lane type is rejected, whichever cells are read.
            for (rows, sel) in [(0..2, None), (1..2, None), (0..2, Some(&[1u32][..]))] {
                let mut out = vec![0; rows.len()];
                let got = h.counts_of_column(&doubles, rows, sel, &mut out);
                assert_eq!(got, Err(expect.clone()));
            }
            let (ints, _) = lane(DataType::Int64, &[Value::Int64(1)]);
            assert!(h.counts_of_column(&ints, 0..1, None, &mut [0; 2]).is_err());
        }
        assert_eq!(dense.observe_column(&doubles, 1..2, None), Err(expect));
        let (ints, _) = lane(DataType::Int64, &[Value::Int64(1)]);
        assert!(dense.observe_column(&ints, 0..1, Some(&[1, 1])).is_err());
    }

    #[test]
    fn dense_lane_matches_map_lane_under_random_workload() {
        // Deterministic LCG over a moderate span with duplicates.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut keys = Vec::new();
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            keys.push(Key::Int(((state >> 33) % 700) as i64 - 350));
        }
        let mut dense = FreqHist::new();
        let mut map = FreqHist::new();
        map.observe(&Key::from("force-map-lane"));
        for k in &keys {
            dense.observe(k);
            map.observe_n(k, 1);
        }
        // Remove the lane-forcing sentinel's contribution before comparing.
        let mut map_clean = FreqHist::new();
        for (k, c) in map.iter() {
            if !matches!(k, Key::Str(_)) {
                map_clean.observe_n(&k, c);
            }
        }
        assert_same(&dense, &map_clean, &keys);
    }
}
