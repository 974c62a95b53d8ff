//! The GEE distinct-value estimator, maintained incrementally
//! (§4.2, Algorithm 2 of the paper; estimator due to Charikar et al.).
//!
//! For a random sample of `t` values from a stream of size `|T|`,
//!
//! ```text
//! D_t = √(|T|/t) · f₁ + Σ_{j≥2} f_j
//! ```
//!
//! where `f_j` is the number of values occurring exactly `j` times in the
//! sample. Algorithm 2 maintains `S₁ = f₁` and `Sₙ = Σ_{j≥2} f_j` in O(1)
//! per tuple from the *count transition* of the observed value, so the
//! estimate is available after every tuple at negligible cost.

/// Incrementally maintained GEE estimator state.
///
/// The caller owns the frequency histogram (usually a shared
/// [`FreqHist`](crate::FreqHist)) and feeds this struct the pre-increment
/// count of each observed value — exactly the `N_i` transition Algorithm 2
/// consumes.
#[derive(Debug, Clone, Copy)]
pub struct Gee {
    /// `S₁`: number of values seen exactly once.
    s1: u64,
    /// `Sₙ`: number of values seen more than once.
    sn: u64,
    /// Tuples observed (`t`).
    t: u64,
    /// Stream size `|T|` (known or estimated).
    input_size: u64,
}

impl Gee {
    /// New estimator for a stream of (known or estimated) size `|T|`.
    pub fn new(input_size: u64) -> Self {
        Gee {
            s1: 0,
            sn: 0,
            t: 0,
            input_size,
        }
    }

    /// Algorithm 2's update: observe a value whose count *before* this
    /// observation was `prior_count`.
    pub fn observe_transition(&mut self, prior_count: u64) {
        self.observe_transition_n(prior_count, 1);
    }

    /// Bulk form of [`observe_transition`](Self::observe_transition):
    /// `n` occurrences of a value whose count before them was
    /// `prior_count`. Used when folding weighted (derived-histogram)
    /// observations, e.g. aggregation push-down into a join. No-op for
    /// `n == 0`.
    pub fn observe_transition_n(&mut self, prior_count: u64, n: u64) {
        if n == 0 {
            return;
        }
        let after = prior_count + n;
        if prior_count == 0 && after == 1 {
            self.s1 += 1;
        } else if prior_count == 0 {
            self.sn += 1;
        } else if prior_count == 1 {
            self.s1 -= 1;
            self.sn += 1;
        }
        self.t += n;
    }

    /// Revise `|T|` (e.g. when the input size was itself an estimate).
    pub fn set_input_size(&mut self, input_size: u64) {
        self.input_size = input_size;
    }

    /// Tuples observed so far.
    pub fn seen(&self) -> u64 {
        self.t
    }

    /// `S₁`, the current singleton count.
    pub fn singletons(&self) -> u64 {
        self.s1
    }

    /// Current estimate `D_t = √(|T|/t)·S₁ + Sₙ`. Returns 0 before any
    /// observation.
    pub fn estimate(&self) -> f64 {
        if self.t == 0 {
            return 0.0;
        }
        let scale = (self.input_size as f64 / self.t as f64).max(1.0).sqrt();
        scale * self.s1 as f64 + self.sn as f64
    }

    /// GEE's guaranteed bounds: the number of distinct values lies in
    /// `[S₁ + Sₙ, (|T|/t)·S₁ + Sₙ]` (the estimate is their geometric mean
    /// in the `S₁` term).
    pub fn bounds(&self) -> (f64, f64) {
        if self.t == 0 {
            return (0.0, self.input_size as f64);
        }
        let scale = (self.input_size as f64 / self.t as f64).max(1.0);
        (
            (self.s1 + self.sn) as f64,
            scale * self.s1 as f64 + self.sn as f64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq_hist::FreqHist;
    use qprog_types::Key;

    /// Drive a GEE from a stream through a shared histogram.
    fn run_gee(stream: &[i64], input_size: u64) -> (Gee, FreqHist) {
        let mut hist = FreqHist::new();
        let mut gee = Gee::new(input_size);
        for &v in stream {
            let prior = hist.observe(&Key::Int(v));
            gee.observe_transition(prior);
        }
        (gee, hist)
    }

    #[test]
    fn matches_closed_form() {
        let stream = [1i64, 1, 2, 3, 3, 3, 4];
        let (gee, hist) = run_gee(&stream, 70);
        // f1 = 2 (values 2, 4); f_{≥2} values: 1, 3 → Sn = 2
        assert_eq!(gee.singletons(), 2);
        let expect = (70.0f64 / 7.0).sqrt() * 2.0 + 2.0;
        assert!((gee.estimate() - expect).abs() < 1e-12);
        // cross-check S1/Sn against the histogram profile
        assert_eq!(gee.singletons(), hist.singletons());
    }

    #[test]
    fn exact_when_sample_is_whole_input() {
        let stream: Vec<i64> = (0..100).map(|i| i % 17).collect();
        let (gee, hist) = run_gee(&stream, stream.len() as u64);
        assert_eq!(gee.estimate().round() as u64, hist.distinct());
        assert_eq!(hist.distinct(), 17);
    }

    #[test]
    fn all_distinct_scales_up() {
        // 10 singletons from a 1000-value stream → estimate √(1000/10)·10 = 100
        let stream: Vec<i64> = (0..10).collect();
        let (gee, _) = run_gee(&stream, 1000);
        assert!((gee.estimate() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn bounds_bracket_estimate() {
        let stream = [1i64, 1, 2, 3, 4, 4, 5];
        let (gee, _) = run_gee(&stream, 700);
        let (lo, hi) = gee.bounds();
        assert!(lo <= gee.estimate() && gee.estimate() <= hi);
        // lower bound is exactly the observed distinct count
        assert_eq!(lo, 5.0);
    }

    #[test]
    fn empty_and_oversampled_edge_cases() {
        let gee = Gee::new(100);
        assert_eq!(gee.estimate(), 0.0);
        assert_eq!(gee.bounds(), (0.0, 100.0));
        // t can exceed |T| when the size was an underestimate: scale clamps at 1
        let stream: Vec<i64> = (0..20).collect();
        let (gee, _) = run_gee(&stream, 10);
        assert_eq!(gee.estimate().round() as u64, 20);
    }

    #[test]
    fn set_input_size_rescales() {
        let stream = [1i64, 2, 3];
        let (mut gee, _) = run_gee(&stream, 3);
        assert!((gee.estimate() - 3.0).abs() < 1e-12);
        gee.set_input_size(300);
        assert!((gee.estimate() - 30.0).abs() < 1e-12);
    }

    #[test]
    fn known_overestimation_on_low_skew_small_sample() {
        // The failure mode motivating the MLE estimator (§4.2): uniform data
        // with many small groups — GEE scales singletons up too aggressively.
        // ~1000 distinct values uniform in a 10_000-value stream; sample 500.
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let full: Vec<i64> = (0..10_000).map(|_| rng.random_range(0..1000)).collect();
        let (gee, hist) = run_gee(&full[..500], 10_000);
        assert!(hist.distinct() < 500);
        // GEE overestimates the true 1000 groups here.
        assert!(
            gee.estimate() > 1200.0,
            "expected characteristic overestimate, got {}",
            gee.estimate()
        );
    }
}
