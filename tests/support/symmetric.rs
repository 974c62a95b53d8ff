//! The §4.1 "basic scheme" join-size estimator, a reference for the test
//! suite and the ablation bench: both streams are observed simultaneously
//! (`D_t = |R||S| Σ_i N_i^R N_i^S / t²`). The paper presents it to motivate
//! the cheaper asymmetric form the engine runs.

use qprog::core::freq_hist::FreqHist;
use qprog_types::Key;

/// The §4.1 "basic scheme": both streams observed simultaneously.
///
/// After `t` tuples from each stream,
/// `D_t = |R||S| · Σ_i N_i^R N_i^S / t²`. Expensive relative to
/// `OnceJoinEstimator` (it must correlate two histograms), which is
/// exactly the overhead argument the paper makes before push-down.
#[derive(Debug, Clone, Default)]
pub struct SymmetricJoinEstimator {
    r_hist: FreqHist,
    s_hist: FreqHist,
    r_size: u64,
    s_size: u64,
    /// Incrementally maintained `Σ_i N_i^R N_i^S`.
    cross_sum: u128,
}

impl SymmetricJoinEstimator {
    /// New estimator for streams of (known or estimated) sizes.
    pub fn new(r_size: u64, s_size: u64) -> Self {
        SymmetricJoinEstimator {
            r_size,
            s_size,
            ..SymmetricJoinEstimator::default()
        }
    }

    /// Observe one tuple from `R`.
    pub fn observe_r(&mut self, key: &Key) {
        if key.is_null() {
            return;
        }
        self.r_hist.observe(key);
        // N_R[i] increased by one → cross term increases by N_S[i].
        self.cross_sum += self.s_hist.count(key) as u128;
    }

    /// Observe one tuple from `S`.
    pub fn observe_s(&mut self, key: &Key) {
        if key.is_null() {
            return;
        }
        self.s_hist.observe(key);
        self.cross_sum += self.r_hist.count(key) as u128;
    }

    /// Tuples observed from `R` / `S`.
    pub fn seen(&self) -> (u64, u64) {
        (self.r_hist.total(), self.s_hist.total())
    }

    /// Current estimate `D_t`.
    pub fn estimate(&self) -> f64 {
        let (tr, ts) = self.seen();
        if tr == 0 || ts == 0 {
            return 0.0;
        }
        self.cross_sum as f64 * (self.r_size as f64 / tr as f64) * (self.s_size as f64 / ts as f64)
    }

    /// Whether both streams have been fully observed (estimate is exact).
    pub fn converged(&self) -> bool {
        let (tr, ts) = self.seen();
        tr >= self.r_size && ts >= self.s_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_join(r: &[i64], s: &[i64]) -> u64 {
        r.iter()
            .map(|a| s.iter().filter(|&&b| b == *a).count() as u64)
            .sum()
    }

    #[test]
    fn symmetric_estimator_converges_to_exact() {
        let r: Vec<i64> = vec![1, 1, 2, 3, 3, 3, 9];
        let s: Vec<i64> = vec![3, 1, 3, 2, 2, 7];
        let mut est = SymmetricJoinEstimator::new(r.len() as u64, s.len() as u64);
        for (a, b) in r.iter().zip(s.iter()) {
            est.observe_r(&Key::Int(*a));
            est.observe_s(&Key::Int(*b));
        }
        est.observe_r(&Key::Int(r[6]));
        assert!(est.converged());
        assert_eq!(est.estimate().round() as u64, exact_join(&r, &s));
    }

    #[test]
    fn symmetric_estimator_cross_sum_matches_direct() {
        let r = vec![5i64, 5, 6, 7];
        let s = vec![5i64, 6, 6];
        let mut est = SymmetricJoinEstimator::new(10, 10);
        for &a in &r {
            est.observe_r(&Key::Int(a));
        }
        for &b in &s {
            est.observe_s(&Key::Int(b));
        }
        // Σ N_R·N_S = (5: 2·1) + (6: 1·2) = 4; scaled by (10/4)(10/3)
        let expect = 4.0 * (10.0 / 4.0) * (10.0 / 3.0);
        assert!((est.estimate() - expect).abs() < 1e-9);
        assert!(!est.converged());
    }

    #[test]
    fn symmetric_estimator_interleaving_invariance() {
        // cross_sum is order-independent
        let r = vec![1i64, 2, 1, 3];
        let s = vec![1i64, 1, 2, 2];
        let mut a = SymmetricJoinEstimator::new(4, 4);
        let mut b = SymmetricJoinEstimator::new(4, 4);
        for i in 0..4 {
            a.observe_r(&Key::Int(r[i]));
            a.observe_s(&Key::Int(s[i]));
        }
        for &x in &r {
            b.observe_r(&Key::Int(x));
        }
        for &x in &s {
            b.observe_s(&Key::Int(x));
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn symmetric_ignores_nulls() {
        let mut est = SymmetricJoinEstimator::new(2, 2);
        est.observe_r(&Key::Null);
        est.observe_s(&Key::Null);
        assert_eq!(est.seen(), (0, 0));
        assert_eq!(est.estimate(), 0.0);
    }
}
