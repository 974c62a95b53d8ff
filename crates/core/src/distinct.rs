//! Composed online distinct-value (GROUP BY output cardinality) tracking.
//!
//! [`DistinctTracker`] wires together the pieces of §4.2 the way the
//! prototype does inside an aggregation operator's hashing/sorting phase:
//! one shared [`FreqHist`] feeds the O(1)-per-tuple GEE update
//! (Algorithm 2), the adaptively-recomputed MLE estimate (Algorithm 3), the
//! incrementally maintained `γ²` skew measure, and the online chooser.

use qprog_types::Key;

use crate::chooser::{choose_estimator, EstimatorChoice, DEFAULT_TAU};
use crate::freq_hist::FreqHist;
use crate::gee::Gee;
use crate::interval::AdaptiveInterval;
use crate::mle::mle_estimate;

/// Online estimator for the number of groups a grouping column will
/// produce, refined as input tuples stream by.
///
/// # Example
///
/// ```
/// use qprog_core::distinct::DistinctTracker;
/// use qprog_types::Key;
///
/// let mut tracker = DistinctTracker::new(6);
/// for v in [5i64, 5, 7, 7, 7, 9] {
///     tracker.observe(&Key::Int(v));
/// }
/// // the whole input has been seen: the count is exact
/// assert_eq!(tracker.estimate(), 3.0);
/// ```
#[derive(Debug, Clone)]
pub struct DistinctTracker {
    hist: FreqHist,
    gee: Gee,
    interval: AdaptiveInterval,
    /// Cached MLE estimate from the last recomputation.
    mle_cache: f64,
    input_size: u64,
    tau: f64,
}

impl DistinctTracker {
    /// New tracker for a grouping column of a stream of (known or
    /// estimated) size `input_size`, using the paper's Algorithm 3
    /// parameters and `τ = 10`.
    pub fn new(input_size: u64) -> Self {
        DistinctTracker {
            hist: FreqHist::new(),
            gee: Gee::new(input_size),
            interval: AdaptiveInterval::paper_default(input_size),
            mle_cache: 0.0,
            input_size,
            tau: DEFAULT_TAU,
        }
    }

    /// Override the `γ²` threshold `τ`.
    pub fn with_tau(mut self, tau: f64) -> Self {
        self.tau = tau;
        self
    }

    /// Override the MLE recomputation interval controller.
    pub fn with_interval(mut self, interval: AdaptiveInterval) -> Self {
        self.interval = interval;
        self
    }

    /// Observe one grouping key.
    pub fn observe(&mut self, key: &Key) {
        self.observe_n(key, 1);
    }

    /// Observe `n` occurrences of a grouping key at once (weighted
    /// observation, e.g. from a join's derived output histogram). Counts as
    /// a single tick of the MLE recomputation interval.
    pub fn observe_n(&mut self, key: &Key, n: u64) {
        if n > 0 {
            let prior = self.hist.observe_n(key, n);
            self.after_transition(prior, n);
        }
    }

    /// Observe `n` occurrences of a grouping key the *caller* counts: its
    /// count was `prior` before them. An aggregate's hashing phase keeps a
    /// row count per group in the table it probes anyway, so it feeds the
    /// tracker transitions and the tracker keeps no per-key table at all —
    /// every estimate is the same as if the keys had been
    /// [`observe_n`](Self::observe_n)d, but [`histogram`](Self::histogram)
    /// then holds the aggregates only, no per-key counts. One tracker takes
    /// keys or transitions, not both.
    pub fn observe_transition(&mut self, prior: u64, n: u64) {
        if n > 0 {
            self.hist.transition(prior, n);
            self.after_transition(prior, n);
        }
    }

    /// [`observe_transition`](Self::observe_transition)`(prior, 1)` for each
    /// of a batch's rows in order: `priors[r]` is the count row `r`'s group
    /// had before that row (so a group met twice in the batch shows `c`,
    /// then `c + 1`). One call per batch instead of one per row.
    pub fn observe_transitions(&mut self, priors: &[u64]) {
        for &prior in priors {
            self.observe_transition(prior, 1);
        }
    }

    /// Algorithm 2's GEE step and one tick of Algorithm 3's interval.
    fn after_transition(&mut self, prior: u64, n: u64) {
        self.gee.observe_transition_n(prior, n);
        if self.interval.tick() {
            let new = mle_estimate(&self.hist, self.input_size);
            self.interval.feedback(self.mle_cache, new);
            self.mle_cache = new;
        }
    }

    /// Which estimator the `γ²` rule currently selects.
    pub fn choice(&self) -> EstimatorChoice {
        choose_estimator(self.hist.gamma_squared(), self.tau)
    }

    /// Current skew measure `γ²`.
    pub fn gamma_squared(&self) -> f64 {
        self.hist.gamma_squared()
    }

    /// The group-count estimate from the currently chosen estimator.
    ///
    /// Once the whole input has been seen this is the exact group count
    /// (both estimators converge, and the hashing/sorting phase has then
    /// literally enumerated the groups).
    pub fn estimate(&self) -> f64 {
        if self.seen() >= self.input_size {
            return self.hist.distinct() as f64;
        }
        match self.choice() {
            EstimatorChoice::Gee => self.gee.estimate(),
            EstimatorChoice::Mle => {
                // Between recomputations the cache may lag behind newly seen
                // groups; the observed distinct count is a hard lower bound.
                self.mle_cache.max(self.hist.distinct() as f64)
            }
        }
    }

    /// The GEE estimate regardless of the chooser.
    pub fn gee_estimate(&self) -> f64 {
        self.gee.estimate()
    }

    /// A freshly recomputed MLE estimate regardless of the chooser (does
    /// not consult the cache; costs O(#frequency classes)).
    pub fn mle_estimate_fresh(&self) -> f64 {
        mle_estimate(&self.hist, self.input_size)
    }

    /// Groups actually seen so far.
    pub fn groups_seen(&self) -> u64 {
        self.hist.distinct()
    }

    /// Tuples observed so far.
    pub fn seen(&self) -> u64 {
        self.hist.total()
    }

    /// The underlying frequency histogram.
    pub fn histogram(&self) -> &FreqHist {
        &self.hist
    }

    /// Revise the input size (e.g. refined upstream estimate).
    pub fn set_input_size(&mut self, input_size: u64) {
        self.input_size = input_size;
        self.gee.set_input_size(input_size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn feed(tracker: &mut DistinctTracker, stream: &[i64]) {
        for &v in stream {
            tracker.observe(&Key::Int(v));
        }
    }

    #[test]
    fn exact_after_full_input() {
        let stream: Vec<i64> = (0..1000).map(|i| i % 37).collect();
        let mut t = DistinctTracker::new(stream.len() as u64);
        feed(&mut t, &stream);
        assert_eq!(t.estimate(), 37.0);
        assert_eq!(t.groups_seen(), 37);
        assert_eq!(t.seen(), 1000);
    }

    #[test]
    fn chooser_switches_with_skew() {
        // Low-skew stream → MLE
        let uniform: Vec<i64> = (0..2000).map(|i| (i * 7919) % 200).collect();
        let mut t = DistinctTracker::new(10_000);
        feed(&mut t, &uniform);
        assert_eq!(t.choice(), EstimatorChoice::Mle);
        // High-skew stream → GEE
        let mut skewed = vec![0i64; 5000];
        skewed.extend(1..100);
        let mut t = DistinctTracker::new(50_000);
        feed(&mut t, &skewed);
        assert_eq!(t.choice(), EstimatorChoice::Gee);
    }

    #[test]
    fn mle_path_reasonable_on_uniform_random() {
        let mut rng = StdRng::seed_from_u64(7);
        let input: Vec<i64> = (0..20_000).map(|_| rng.random_range(0..500)).collect();
        let mut t = DistinctTracker::new(input.len() as u64);
        feed(&mut t, &input[..4000]);
        assert_eq!(t.choice(), EstimatorChoice::Mle);
        let est = t.estimate();
        assert!(
            (400.0..=600.0).contains(&est),
            "expected ≈500 groups from 20% sample, got {est}"
        );
    }

    #[test]
    fn gee_path_reasonable_on_high_skew() {
        // Zipf-ish: value v appears ~ 1/(v+1)² → heavy skew.
        let mut input = Vec::new();
        for v in 0..200i64 {
            let reps = (20_000.0 / ((v + 1) * (v + 1)) as f64).ceil() as usize;
            input.extend(std::iter::repeat_n(v, reps));
        }
        let mut rng = StdRng::seed_from_u64(3);
        use rand::seq::SliceRandom;
        input.shuffle(&mut rng);
        let n = input.len() as u64;
        let mut t = DistinctTracker::new(n);
        feed(&mut t, &input[..(n as usize / 5)]);
        assert_eq!(t.choice(), EstimatorChoice::Gee);
        let est = t.estimate();
        assert!(
            (100.0..=420.0).contains(&est),
            "expected order-of-200 groups, got {est}"
        );
    }

    #[test]
    fn estimate_never_below_groups_seen() {
        let stream: Vec<i64> = (0..500).collect(); // all distinct
        let mut t = DistinctTracker::new(5_000);
        for &v in &stream {
            t.observe(&Key::Int(v));
            assert!(t.estimate() >= t.groups_seen() as f64);
        }
    }

    #[test]
    fn set_input_size_propagates() {
        let mut t = DistinctTracker::new(10);
        feed(&mut t, &[1, 2, 3]);
        let before = t.gee_estimate();
        t.set_input_size(1000);
        assert!(t.gee_estimate() > before);
    }

    #[test]
    fn string_keys_supported() {
        let mut t = DistinctTracker::new(4);
        for s in ["a", "b", "a", "c"] {
            t.observe(&Key::from(s));
        }
        assert_eq!(t.estimate(), 3.0);
    }

    /// A tracker handed prior counts out of the caller's own table is, bit
    /// for bit and after every observation, the tracker handed the keys.
    #[test]
    fn transition_fed_tracker_matches_key_fed_tracker() {
        let mut rng = StdRng::seed_from_u64(0x7ab1e);
        for input_size in [15_000u64, 40_000, 1_000_000] {
            let mut by_key = DistinctTracker::new(input_size);
            let mut by_count = DistinctTracker::new(input_size);
            let mut table: std::collections::HashMap<Key, u64> = Default::default();
            // Key 0 arrives 10 000 times, one at a time (its class climbs
            // through the dense-class limit and on); the rest are light
            // keys, some weighted (classes jump over the limit and back
            // down to nothing as the heavy key leaves them).
            let mut heavy_left = 10_000;
            while heavy_left > 0 {
                let (key, n) = match rng.random_range(0..10) {
                    0..=5 => {
                        heavy_left -= 1;
                        (Key::Int(0), 1)
                    }
                    6..=8 => (Key::Int(rng.random_range(1..400)), 1),
                    _ => (Key::Int(rng.random_range(1..40)), rng.random_range(1..900)),
                };
                by_key.observe_n(&key, n);
                let count = table.entry(key).or_insert(0);
                by_count.observe_transition(*count, n);
                *count += n;

                assert_eq!(by_count.seen(), by_key.seen());
                assert_eq!(by_count.groups_seen(), by_key.groups_seen());
                let bits = |t: &DistinctTracker| {
                    [
                        t.estimate(),
                        t.gee_estimate(),
                        t.gamma_squared(),
                        t.mle_cache,
                    ]
                    .map(f64::to_bits)
                };
                assert_eq!(bits(&by_count), bits(&by_key), "t = {}", by_key.seen());
            }
            assert!(by_key.histogram().max_frequency() >= 10_000);
            assert!(by_key.mle_cache > 0.0, "the MLE interval fired");
            // Only the key-fed tracker holds per-key counts.
            assert_eq!(by_key.histogram().count(&Key::Int(0)), 10_000);
            assert_eq!(by_count.histogram().iter().count(), 0);
        }
    }

    /// A stream cut into batches at random offsets and handed over a batch
    /// at a time leaves, after every batch, the tracker that per-row
    /// feeding leaves — MLE recomputes inside a batch included.
    #[test]
    fn batch_fed_tracker_matches_row_fed_tracker_after_every_batch() {
        let mut rng = StdRng::seed_from_u64(0xba7c4);
        for input_size in [15_000u64, 40_000, 1_000_000] {
            let mut by_row = DistinctTracker::new(input_size);
            let mut by_batch = DistinctTracker::new(input_size);
            let mut counts = vec![0u64; 400];
            let mut batch = Vec::new();
            for _ in 0..20_000 {
                // Key 0 is heavy; a batch meets the same group repeatedly.
                let key = match rng.random_range(0..10) {
                    0..=5 => 0,
                    _ => rng.random_range(1..400),
                };
                by_row.observe_transition(counts[key], 1);
                batch.push(counts[key]);
                counts[key] += 1;
                if rng.random_range(0..300) > 0 {
                    continue;
                }
                by_batch.observe_transitions(&batch);
                batch.clear();
                let state = |t: &DistinctTracker| {
                    let floats = [
                        t.estimate(),
                        t.gee_estimate(),
                        t.gamma_squared(),
                        t.mle_cache,
                    ];
                    (floats.map(f64::to_bits), t.groups_seen(), t.seen())
                };
                assert_eq!(state(&by_batch), state(&by_row), "t = {}", by_row.seen());
            }
            assert!(by_row.mle_cache > 0.0, "the MLE interval fired");
            assert!(by_batch.seen() > 15_000, "batches were handed over");
        }
    }
}
