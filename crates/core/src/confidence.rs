//! Confidence machinery for online estimates (§4.1 of the paper).
//!
//! The paper derives per-value confidence from the normal approximation to
//! the binomial: after `t` observations, `p̂ ± Z_α √(p̂(1−p̂)/t)`, and bounds
//! the half-width by `β = Z_α / (2√t)` using `p(1−p) ≤ 1/4`. For the
//! composite join estimates we additionally provide the standard
//! empirical-variance CLT interval (via [`PowerSums`]) — the paper's
//! footnote 1 notes such strengthened limit-theorem techniques "can be
//! easily adapted".

/// `Z_α` for a two-sided confidence level `alpha ∈ (0, 1)`, i.e. the
/// `(1+α)/2` quantile of the standard normal.
///
/// Uses Acklam's rational approximation of the inverse normal CDF
/// (relative error < 1.15e-9), so no tables are needed.
pub fn z_alpha(alpha: f64) -> f64 {
    assert!(
        (0.0..1.0).contains(&alpha),
        "confidence level must be in [0, 1), got {alpha}"
    );
    inverse_normal_cdf(0.5 + alpha / 2.0)
}

/// Inverse standard normal CDF (probit), Acklam's approximation.
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!((0.0..1.0).contains(&p) && p > 0.0, "p must be in (0,1)");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inverse_normal_cdf(1.0 - p)
    }
}

/// The distribution-free half-width bound `β = Z_α / (2√t)` on a fraction
/// estimate after `t` observations (§4.1). Returns `∞` for `t == 0`.
pub fn beta(t: u64, z: f64) -> f64 {
    if t == 0 {
        f64::INFINITY
    } else {
        z / (2.0 * (t as f64).sqrt())
    }
}

/// `sum` over `n` observations scaled to a population of `size`,
/// `sum / n · max(size, n)`: exactly `sum` once `n ≥ size`, the observed sum
/// being a floor (0 when empty).
pub fn scale_sum(sum: u128, n: u64, size: u64) -> f64 {
    match n {
        0 => 0.0,
        n if n >= size => sum as f64,
        n => sum as f64 / n as f64 * size as f64,
    }
}

/// A symmetric confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub estimate: f64,
    pub lo: f64,
    pub hi: f64,
}

impl ConfidenceInterval {
    /// Interval from a point estimate and half-width, clamping the lower
    /// bound at zero (cardinalities are non-negative).
    pub fn around(estimate: f64, half_width: f64) -> Self {
        ConfidenceInterval {
            estimate,
            lo: (estimate - half_width).max(0.0),
            hi: estimate + half_width,
        }
    }

    /// Width of the interval.
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether a value lies inside the interval.
    pub fn contains(&self, v: f64) -> bool {
        (self.lo..=self.hi).contains(&v)
    }

    /// Binomial-proportion interval `p̂ ± z √(p̂(1−p̂)/t)` (§4.1).
    pub fn binomial_proportion(successes: u64, t: u64, z: f64) -> Self {
        if t == 0 {
            return ConfidenceInterval {
                estimate: 0.0,
                lo: 0.0,
                hi: 1.0,
            };
        }
        let p = successes as f64 / t as f64;
        let hw = z * (p * (1.0 - p) / t as f64).sqrt();
        ConfidenceInterval {
            estimate: p,
            lo: (p - hw).max(0.0),
            hi: (p + hw).min(1.0),
        }
    }
}

/// Exact power sums `(n, Σx, Σx²)` of non-negative integer observations —
/// the one moments accumulator of the crate.
///
/// Join estimates of the form `|S|/t · Σ X_i` are scaled sample means of
/// integer contributions: an observation costs three integer additions,
/// sums combine in any grouping and order to the same value (so worker
/// fragments merge bit-exactly), and the mean, variance and CLT interval
/// are derived when read. Sums saturate at `u128::MAX`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PowerSums {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl PowerSums {
    /// Fold in one observation.
    #[inline]
    pub fn push(&mut self, x: u128) {
        self.n += 1;
        self.sum = self.sum.saturating_add(x);
        self.sum_sq = self.sum_sq.saturating_add(x.saturating_mul(x));
    }

    /// Fold in one observation known to fit 64 bits: its square cannot
    /// overflow, so this is the cheap form batch kernels loop over.
    #[inline]
    pub fn push_u64(&mut self, x: u64) {
        self.n += 1;
        self.sum = self.sum.saturating_add(x as u128);
        self.sum_sq = self.sum_sq.saturating_add(x as u128 * x as u128);
    }

    /// [`push_u64`](Self::push_u64) of every `x` of `xs`, each below 2³²
    /// (fewer than 2³² of them): no square or sum can saturate, so the loop
    /// is plain additions.
    pub fn push_small(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.n += xs.len() as u64;
        let (sum, sum_sq) = xs.fold((0u128, 0u128), |(s, q), x| {
            debug_assert!(x < 1 << 32);
            (s + u128::from(x), q + u128::from(x * x))
        });
        self.merge(&PowerSums { n: 0, sum, sum_sq });
    }

    /// Fold in `k` observations of zero, which move only `n`.
    pub(crate) fn push_zeros(&mut self, k: u64) {
        self.n += k;
    }

    /// Combine with independently accumulated observations (associative
    /// and commutative: integer addition).
    pub fn merge(&mut self, other: &PowerSums) {
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// `Σx`.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Population variance `(n·Σx² − (Σx)²) / n²` (0 when fewer than 2
    /// observations). The numerator is formed in integers whenever it fits
    /// 128 bits, so equal observations give exactly 0 rather than the
    /// cancellation noise of `Σx²/n − mean²`.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let n = self.n as u128;
        match (n.checked_mul(self.sum_sq), self.sum.checked_mul(self.sum)) {
            (Some(a), Some(b)) => a.saturating_sub(b) as f64 / (n as f64 * n as f64),
            _ => {
                let mean = self.mean();
                (self.sum_sq as f64 / n as f64 - mean * mean).max(0.0)
            }
        }
    }

    /// CLT confidence interval for the mean at `z` (`[0, ∞)` when empty).
    pub fn mean_ci(&self, z: f64) -> ConfidenceInterval {
        if self.n == 0 {
            return ConfidenceInterval {
                estimate: 0.0,
                lo: 0.0,
                hi: f64::INFINITY,
            };
        }
        let std_error = (self.variance() / self.n as f64).sqrt();
        ConfidenceInterval::around(self.mean(), z * std_error)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sums_of(xs: &[u64]) -> PowerSums {
        let mut sums = PowerSums::default();
        xs.iter().for_each(|&x| sums.push_u64(x));
        sums
    }

    #[test]
    fn scale_sum_is_the_sum_itself_once_the_population_is_seen() {
        // 1/49·49 rounds below 1 in f64: the sum must not go through it.
        assert_ne!(1.0 / 49.0 * 49.0, 1.0);
        for size in [0, 1, 48, 49] {
            assert_eq!(scale_sum(1, 49, size), 1.0, "size {size}");
        }
        assert_eq!(scale_sum(1, 2, 4), 2.0);
        assert_eq!(scale_sum(7, 0, 10), 0.0);
    }

    #[test]
    fn power_sums_match_direct_computation_and_merge_exactly() {
        let xs: Vec<u64> = (0..1000).map(|i| (i * 37) % 101).collect();
        let whole = sums_of(&xs);
        let mean = xs.iter().sum::<u64>() as f64 / 1000.0;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / 1000.0;
        assert_eq!(whole.count(), 1000);
        assert!((whole.mean() - mean).abs() < 1e-9);
        assert!((whole.variance() - var).abs() < 1e-6);
        let ci = whole.mean_ci(2.576);
        let hw = 2.576 * (var / 1000.0).sqrt();
        assert!((ci.lo - (mean - hw)).abs() < 1e-9 && (ci.hi - (mean + hw)).abs() < 1e-9);
        // Any split merges to the identical sums — and so to a bit-equal
        // mean, variance and interval — wide pushes included.
        for split in [0, 1, 250, 999, 1000] {
            let mut left = sums_of(&xs[..split]);
            let mut right = PowerSums::default();
            xs[split..].iter().for_each(|&x| right.push(x as u128));
            left.merge(&right);
            assert_eq!(left, whole, "split {split}");
            assert_eq!(left.mean_ci(2.576), whole.mean_ci(2.576), "split {split}");
        }
    }

    #[test]
    fn power_sums_small_case_by_hand() {
        let m = sums_of(&[2, 4, 4, 4, 5, 5, 7, 9]);
        assert_eq!(m.count(), 8);
        assert!((m.mean() - 5.0).abs() < 1e-12);
        assert!((m.variance() - 4.0).abs() < 1e-12);
        // z = 1: the half-width is the standard error √(var/n)
        assert!((m.mean_ci(1.0).hi - 5.0 - (4.0f64 / 8.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn power_sums_edges() {
        let empty = PowerSums::default();
        assert_eq!(empty.mean(), 0.0);
        assert_eq!(empty.variance(), 0.0);
        assert_eq!(empty.mean_ci(2.0).hi, f64::INFINITY);
        assert_eq!(sums_of(&[3]).variance(), 0.0);
        // Equal observations: variance exactly 0, no cancellation noise.
        let mut flat = PowerSums::default();
        (0..1000).for_each(|_| flat.push_u64(1_000_003));
        assert_eq!(flat.variance(), 0.0);
        assert_eq!(flat.mean_ci(4.0).width(), 0.0);
        // Observations beyond 64 bits saturate instead of wrapping, and the
        // variance falls back to floating point without going negative.
        let mut wide = PowerSums::default();
        wide.push(u128::MAX / 2);
        wide.push(u128::MAX);
        assert_eq!(wide.sum(), u128::MAX);
        assert!(wide.variance() >= 0.0);
    }

    #[test]
    fn push_small_is_push_u64_of_each() {
        let xs = [0u64, 1, 7, u32::MAX as u64, 3, u32::MAX as u64];
        let mut small = sums_of(&[5, 9]);
        small.push_small(xs.iter().copied());
        assert_eq!(
            small,
            sums_of(&[5, 9, 0, 1, 7, u32::MAX as u64, 3, u32::MAX as u64])
        );
        let mut empty = PowerSums::default();
        empty.push_small(std::iter::empty());
        assert_eq!(empty, PowerSums::default());
    }

    #[test]
    fn merge_is_order_insensitive() {
        let (a, b) = (sums_of(&[1, 2, 3]), sums_of(&[10, 20]));
        let (mut ab, mut ba) = (a, b);
        ab.merge(&b);
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab, sums_of(&[1, 2, 3, 10, 20]));
    }

    #[test]
    fn mean_ci_narrows_with_samples() {
        let small = sums_of(&(0..10).map(|i| i % 5).collect::<Vec<_>>());
        let large = sums_of(&(0..10_000).map(|i| i % 5).collect::<Vec<_>>());
        let z = z_alpha(0.95);
        assert!(large.mean_ci(z).width() < small.mean_ci(z).width());
        assert!(large.mean_ci(z).contains(2.0));
    }

    #[test]
    fn z_alpha_matches_standard_table() {
        // classic two-sided z values
        assert!((z_alpha(0.90) - 1.6449).abs() < 1e-3);
        assert!((z_alpha(0.95) - 1.9600).abs() < 1e-3);
        assert!((z_alpha(0.99) - 2.5758).abs() < 1e-3);
        // paper: "for α = 99.99%, Z_α = 4" (rounded)
        assert!((z_alpha(0.9999) - 3.8906).abs() < 1e-3);
    }

    #[test]
    fn inverse_normal_cdf_symmetry_and_median() {
        assert!(inverse_normal_cdf(0.5).abs() < 1e-9);
        for p in [0.001, 0.01, 0.1, 0.3] {
            let lo = inverse_normal_cdf(p);
            let hi = inverse_normal_cdf(1.0 - p);
            assert!((lo + hi).abs() < 1e-7, "p={p}: {lo} vs {hi}");
            assert!(lo < 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "confidence level")]
    fn z_alpha_rejects_out_of_range() {
        z_alpha(1.5);
    }

    #[test]
    fn beta_shrinks_with_t() {
        let z = z_alpha(0.95);
        assert_eq!(beta(0, z), f64::INFINITY);
        assert!(beta(100, z) > beta(10_000, z));
        // β = z / (2√t): quadrupling t halves β
        assert!((beta(100, z) / beta(400, z) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn binomial_proportion_interval_covers_truth() {
        // p = 0.3, t = 1000: interval should cover truth comfortably
        let ci = ConfidenceInterval::binomial_proportion(300, 1000, z_alpha(0.99));
        assert!(ci.contains(0.3));
        assert!(ci.width() < 0.1);
        // clamped to [0,1]
        let ci = ConfidenceInterval::binomial_proportion(0, 10, 4.0);
        assert_eq!(ci.lo, 0.0);
        let ci = ConfidenceInterval::binomial_proportion(10, 10, 4.0);
        assert_eq!(ci.hi, 1.0);
        // empty
        let ci = ConfidenceInterval::binomial_proportion(0, 0, 4.0);
        assert_eq!((ci.lo, ci.hi), (0.0, 1.0));
    }

    #[test]
    fn interval_around_clamps_at_zero() {
        let ci = ConfidenceInterval::around(5.0, 10.0);
        assert_eq!(ci.lo, 0.0);
        assert_eq!(ci.hi, 15.0);
        assert!(ci.contains(0.0));
        assert!(!ci.contains(16.0));
    }
}
