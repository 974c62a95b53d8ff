//! The paper's MLE-based distinct-value estimator (§4.2).
//!
//! After observing `t` of `|T|` values, with `f_j` values seen exactly `j`
//! times, the maximum-likelihood estimate of each observed group's fraction
//! is `p̂ = j/t`. The expected number of groups that are unseen after `t`
//! draws but appear among the remaining `r = |T| − t` draws is approximated
//! over the observed groups:
//!
//! ```text
//! D_t = d_seen + Σ_j f_j · [ (1 − j/t)^t − (1 − j/t)^{t+r} ]
//! ```
//!
//! The estimate is monotone in the information observed and converges to the
//! true count as `t → |T|` (the bracketed term vanishes at `r = 0`). It
//! rarely overestimates but is prone to underestimation, and — unlike GEE —
//! works best on *low-skew* data; the chooser in [`crate::chooser`] picks
//! between them online.
//!
//! Unlike GEE the estimate cannot be maintained in O(1) per tuple; it is
//! recomputed from the count-of-counts profile (O(#distinct frequencies) =
//! O(√t) work) at the adaptive interval of
//! [`AdaptiveInterval`](crate::interval::AdaptiveInterval).

use crate::freq_hist::FreqHist;

/// Compute the MLE distinct-value estimate from a frequency histogram of the
/// first `t = hist.total()` values of a stream of size `input_size`.
///
/// Returns the observed distinct count when the stream is exhausted
/// (`t ≥ input_size`) and 0 for an empty histogram.
///
/// The terms are added in ascending `j` — the order
/// [`FreqHist::frequency_classes`] yields — so two histograms holding the
/// same multiset of counts give bit-equal estimates however they were
/// built.
pub fn mle_estimate(hist: &FreqHist, input_size: u64) -> f64 {
    let t = hist.total();
    if t == 0 {
        return 0.0;
    }
    let d_seen = hist.distinct() as f64;
    if t >= input_size {
        return d_seen;
    }
    let r = (input_size - t) as f64;
    let tf = t as f64;
    let mut expected_new = 0.0;
    for (j, f_j) in hist.frequency_classes() {
        let q = 1.0 - j as f64 / tf; // (1 − p̂)
        if q <= 0.0 {
            continue; // a group occupying the whole sample contributes nothing
        }
        // (1−p̂)^t − (1−p̂)^{t+r}, computed in log space for stability.
        let lq = q.ln();
        let term = (tf * lq).exp() - ((tf + r) * lq).exp();
        expected_new += f_j as f64 * term;
    }
    d_seen + expected_new
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::Key;

    fn hist_of(stream: &[i64]) -> FreqHist {
        let mut h = FreqHist::new();
        for &v in stream {
            h.observe(&Key::Int(v));
        }
        h
    }

    #[test]
    fn empty_histogram_is_zero() {
        assert_eq!(mle_estimate(&FreqHist::new(), 100), 0.0);
    }

    #[test]
    fn exact_at_full_input() {
        let stream: Vec<i64> = (0..50).map(|i| i % 7).collect();
        let h = hist_of(&stream);
        assert_eq!(mle_estimate(&h, 50), 7.0);
        // also when input_size was an underestimate
        assert_eq!(mle_estimate(&h, 30), 7.0);
    }

    #[test]
    fn estimate_at_least_observed_distinct() {
        let stream = [1i64, 2, 3, 3];
        let h = hist_of(&stream);
        assert!(mle_estimate(&h, 100) >= h.distinct() as f64);
    }

    #[test]
    fn accurate_on_low_skew_data() {
        // Uniform over 100 groups, sample 20% of 5000 values: the MLE
        // estimator should land near 100 where GEE overshoots.
        let full: Vec<i64> = (0..5000).map(|i| (i * 7919) % 100).collect();
        let h = hist_of(&full[..1000]);
        let est = mle_estimate(&h, 5000);
        assert!(
            (90.0..=110.0).contains(&est),
            "expected ≈100 groups, got {est}"
        );
    }

    #[test]
    fn underestimates_rather_than_overestimates_on_sparse_tail() {
        // Many groups appear 0 or 1 times in the sample; MLE's documented
        // bias is downward.
        let full: Vec<i64> = (0..10_000).map(|i| (i * 6007) % 5000).collect();
        let h = hist_of(&full[..500]);
        let est = mle_estimate(&h, 10_000);
        assert!(est < 5500.0, "should not wildly overestimate, got {est}");
    }

    #[test]
    fn monotone_convergence_toward_truth() {
        // As t grows, the estimate should approach the true count.
        let full: Vec<i64> = (0..4000)
            .map(|i| (i * 2654435761u64 as i64) % 200)
            .collect();
        let errors: Vec<f64> = [200usize, 800, 2000, 4000]
            .iter()
            .map(|&t| {
                let h = hist_of(&full[..t]);
                (mle_estimate(&h, 4000) - 200.0).abs()
            })
            .collect();
        assert!(
            errors.last().unwrap() < &1e-9,
            "must be exact at full input: {errors:?}"
        );
        assert!(
            errors[0] >= errors[2],
            "error should shrink with more data: {errors:?}"
        );
    }

    #[test]
    fn single_dominant_group_contributes_nothing_new() {
        // One group occupies the whole sample: q = 0 branch.
        let h = hist_of(&[9i64; 10]);
        let est = mle_estimate(&h, 1000);
        assert_eq!(est, 1.0);
    }

    #[test]
    fn same_multiset_gives_bit_equal_estimates_whatever_the_history() {
        // Counts {7: 5000, 8: 4097, 9: 4096, 10..40: 1 + k % 5}: classes on
        // both sides of the dense-class limit.
        let light: Vec<(i64, u64)> = (10..40).map(|k| (k, 1 + k as u64 % 5)).collect();
        // One at a time, heavy keys first: every class below 5000 is
        // entered and emptied again on the way up.
        let mut stepped = FreqHist::new();
        for (key, n) in [(7, 5000), (8, 4097), (9, 4096)].iter().chain(&light) {
            for _ in 0..*n {
                stepped.observe(&Key::Int(*key));
            }
        }
        // Weighted, light keys first, in descending key order.
        let mut bulk = FreqHist::new();
        for (key, n) in light.iter().rev().chain(&[(9, 4096), (8, 4097), (7, 5000)]) {
            bulk.observe_n(&Key::Int(*key), *n);
        }
        let classes = |h: &FreqHist| h.frequency_classes().collect::<Vec<_>>();
        assert_eq!(classes(&stepped), classes(&bulk));
        assert!(classes(&bulk).is_sorted());
        for input_size in [20_000, 100_000, 10_000_000] {
            assert_eq!(
                mle_estimate(&stepped, input_size).to_bits(),
                mle_estimate(&bulk, input_size).to_bits(),
                "|T| = {input_size}"
            );
        }
    }
}
