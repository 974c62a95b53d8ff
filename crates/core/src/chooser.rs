//! Online choice between the GEE and MLE estimators (§4.2).
//!
//! GEE is cheap and accurate on high-skew data but overestimates badly on
//! low-skew data with many groups; the MLE estimator is the reverse. The
//! paper measures skew with the squared coefficient of variation `γ²` of
//! the observed group frequencies — incrementally maintainable, hence
//! cheap — and thresholds it at `τ = 10`: `γ² < τ → MLE`, else GEE.

/// The paper's empirically chosen threshold `τ` on `γ²`.
pub const DEFAULT_TAU: f64 = 10.0;

/// Which distinct-value estimator to trust at the moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorChoice {
    /// Guaranteed-Error Estimator — high-skew data.
    Gee,
    /// Maximum-likelihood estimator — low-skew data.
    Mle,
}

impl EstimatorChoice {
    /// Short label used in benchmark output.
    pub fn label(self) -> &'static str {
        match self {
            EstimatorChoice::Gee => "GEE",
            EstimatorChoice::Mle => "MLE",
        }
    }
}

/// Choose an estimator from the skew measure: MLE when `γ² < τ`, GEE
/// otherwise.
pub fn choose_estimator(gamma_squared: f64, tau: f64) -> EstimatorChoice {
    if gamma_squared < tau {
        EstimatorChoice::Mle
    } else {
        EstimatorChoice::Gee
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::freq_hist::FreqHist;
    use qprog_types::Key;

    #[test]
    fn thresholding() {
        assert_eq!(choose_estimator(0.0, 10.0), EstimatorChoice::Mle);
        assert_eq!(choose_estimator(9.99, 10.0), EstimatorChoice::Mle);
        assert_eq!(choose_estimator(10.0, 10.0), EstimatorChoice::Gee);
        assert_eq!(choose_estimator(1e6, 10.0), EstimatorChoice::Gee);
    }

    #[test]
    fn uniform_data_selects_mle() {
        let mut h = FreqHist::new();
        for i in 0..10_000 {
            h.observe(&Key::Int(i % 500));
        }
        assert_eq!(
            choose_estimator(h.gamma_squared(), DEFAULT_TAU),
            EstimatorChoice::Mle
        );
    }

    #[test]
    fn highly_skewed_data_selects_gee() {
        let mut h = FreqHist::new();
        // one value dominates among many rare values
        for _ in 0..9_000 {
            h.observe(&Key::Int(0));
        }
        for i in 1..1_000 {
            h.observe(&Key::Int(i));
        }
        assert!(h.gamma_squared() > DEFAULT_TAU);
        assert_eq!(
            choose_estimator(h.gamma_squared(), DEFAULT_TAU),
            EstimatorChoice::Gee
        );
    }

    #[test]
    fn labels() {
        assert_eq!(EstimatorChoice::Gee.label(), "GEE");
        assert_eq!(EstimatorChoice::Mle.label(), "MLE");
    }
}
