//! The two published baselines the paper compares its framework against,
//! as rules over counters every operator already keeps: `K_out`, the output
//! rows emitted so far, and `K_driver`, the rows consumed from the
//! operator's *driver* input (the input feeding tuples into it, e.g. the
//! probe side of a hash join), of known or estimated size `N_driver`. A
//! baseline keeps no counters of its own; the engine evaluates it over the
//! operator's metrics.
//!
//! **dne**, the driver-node estimator of Chaudhuri et al. (ICDE 2004), §2/§5
//! of the paper, scales the output observed so far by the inverse of the
//! driver's progress:
//!
//! ```text
//! E = K_out / (K_driver / N_driver)
//! ```
//!
//! On randomly ordered input this has zero error in expectation — which is
//! why the paper *adopts* it for operators with no preprocessing phase
//! (selections, naive nested-loops joins). Its weakness, demonstrated in the
//! paper's Fig. 4, is that a hash join's output is observed *after*
//! partitioning has clustered equal keys together, so the "observed output
//! per driver tuple" rate fluctuates wildly under skew.
//!
//! **byte**, the byte-model estimator of Luo et al. (SIGMOD 2004), is
//! approximated per its published qualitative behaviour: "the byte estimator
//! imposes a weighted average operation involving the original cardinality
//! estimate, and so it converges slowly to the correct answer" (§5.1.2),
//! while sharing dne's vulnerability to output clustered by hash
//! partitioning or sorting:
//!
//! ```text
//! c = K_driver / N_driver                 (input progress)
//! E = (1 − c) · E_opt + c · (K_out / c)   (cardinality estimate)
//! ```
//!
//! Luo et al. measure progress in bytes. Under a fixed-width row model the
//! fraction of input bytes consumed *is* the fraction of input rows
//! consumed, so `c` is read off the row counters (DESIGN.md records this
//! substitution).

/// Which baseline's rule an operator's estimate follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Driver-node extrapolation.
    Dne,
    /// Optimizer-anchored weighted average.
    Byte,
}

/// A baseline bound to one operator: its rule, the driver input's size
/// `N_driver` and the optimizer's estimate of the operator's output, which
/// stands until the driver makes progress.
///
/// # Example
///
/// ```
/// use qprog_core::baseline::Baseline;
///
/// let dne = Baseline::dne(100, 42.0);
/// assert_eq!(dne.estimate(0, 0), 42.0); // the driver has not started
/// assert_eq!(dne.estimate(10, 25), 40.0); // 10 outputs over 25% of the driver
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Baseline {
    pub rule: Rule,
    /// `N_driver`, known or estimated.
    pub driver_total: u64,
    /// `E_opt`, the optimizer's output-cardinality estimate.
    pub optimizer_estimate: f64,
}

impl Baseline {
    /// The dne rule over a driver of `driver_total` rows.
    pub fn dne(driver_total: u64, optimizer_estimate: f64) -> Self {
        Baseline {
            rule: Rule::Dne,
            driver_total,
            optimizer_estimate,
        }
    }

    /// The byte rule over a driver of `driver_total` rows.
    pub fn byte(driver_total: u64, optimizer_estimate: f64) -> Self {
        Baseline {
            rule: Rule::Byte,
            driver_total,
            optimizer_estimate,
        }
    }

    /// Driver progress `c = K_driver / N_driver`, clamped to 1 (1 for an
    /// empty driver).
    fn driver_fraction(&self, driver_seen: u64) -> f64 {
        if self.driver_total == 0 {
            1.0
        } else {
            (driver_seen as f64 / self.driver_total as f64).min(1.0)
        }
    }

    /// The operator's cardinality estimate after `output_seen` output rows
    /// and `driver_seen` driver rows: `E_opt` until the driver starts, exact
    /// once it is exhausted, and never below the output seen after it
    /// starts.
    pub fn estimate(&self, output_seen: u64, driver_seen: u64) -> f64 {
        let out = output_seen as f64;
        let c = self.driver_fraction(driver_seen);
        match self.rule {
            Rule::Dne if c <= 0.0 => self.optimizer_estimate.max(out),
            Rule::Dne => (out / c).max(out),
            Rule::Byte if c <= 0.0 => self.optimizer_estimate,
            Rule::Byte => ((1.0 - c) * self.optimizer_estimate + c * (out / c)).max(out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dne_scales_output_by_driver_progress() {
        let e = Baseline::dne(100, 10.0);
        // 50 outputs from 25% of the driver → 200 expected
        assert!((e.estimate(50, 25) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn exact_when_driver_exhausted() {
        assert_eq!(Baseline::dne(10, 99.0).estimate(7, 10), 7.0);
        assert_eq!(Baseline::byte(100, 9999.0).estimate(42, 100), 42.0);
        // A driver that overshoots its estimated size clamps at 1.
        assert_eq!(Baseline::byte(10, 5.0).driver_fraction(100), 1.0);
    }

    #[test]
    fn never_below_observed_output() {
        assert!(Baseline::dne(1000, 1.0).estimate(5000, 999) >= 5000.0);
        assert!(Baseline::byte(100, 0.0).estimate(500, 10) >= 500.0);
    }

    #[test]
    fn dne_fluctuates_on_clustered_output() {
        // The pathology of Fig. 4: all matching tuples clustered at the
        // start of the partitionwise output.
        let e = Baseline::dne(100, 0.0);
        // the first 10 driver tuples each produce 10 outputs
        let early = e.estimate(100, 10); // extrapolates to 1000
        let late = e.estimate(100, 100); // the other 90 produce nothing
        assert!(early > 5.0 * late, "early {early} vs late {late}");
        assert_eq!(late, 100.0);
    }

    #[test]
    fn zero_driver_edge_case() {
        let e = Baseline::dne(0, 3.0);
        assert_eq!(e.driver_fraction(0), 1.0);
        assert_eq!(e.estimate(2, 0), 2.0);
    }

    #[test]
    fn byte_converges_slower_than_dne() {
        // Optimizer says 1000; truth is 100, output arriving uniformly.
        let (byte, dne) = (Baseline::byte(1000, 1000.0), Baseline::dne(1000, 1000.0));
        // 10% consumed: dne extrapolates to 100, byte stays near 1000.
        assert_eq!(dne.estimate(10, 100), 100.0);
        let est = byte.estimate(10, 100);
        assert!(est > 500.0, "byte should converge slowly, got {est}");
        // ... and by 90% it is close to the truth
        let est = byte.estimate(90, 900);
        assert!((90.0..=250.0).contains(&est), "late estimate {est}");
    }

    #[test]
    fn byte_weighted_average_formula() {
        // c = 0.5: E = 0.5·200 + 0.5·(20/0.5) = 100 + 20 = 120
        assert!((Baseline::byte(100, 200.0).estimate(20, 50) - 120.0).abs() < 1e-9);
        assert_eq!(Baseline::byte(1000, 500.0).estimate(0, 0), 500.0);
    }
}
