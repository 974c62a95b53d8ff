//! The `getnext()` model (gnm) of query progress (§3, §4.4).
//!
//! A query's progress is `C(Q)/T(Q)` where `C(Q) = Σ K_i` counts the
//! `getnext()` calls made so far over all operators and `T(Q) = Σ N_i` the
//! calls over the query's lifetime. `C(Q)` is observable; `T(Q)` is the sum
//! of per-pipeline totals `T(p)`:
//!
//! - **finished** pipelines: `T(p)` known exactly,
//! - the **running** pipeline: `T(p)` from the online estimators of this
//!   crate,
//! - **pending** pipelines: `T(p)` from refined optimizer estimates.
//!
//! No `T(p)` is ever below the calls its pipeline has already made.
//!
//! The executor summarizes each pipeline into a [`PipelineProgress`] and
//! hands the set to [`ProgressSnapshot`], which does the gnm arithmetic.

/// Execution state of a pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineState {
    /// All operators in the pipeline have completed.
    Finished,
    /// Currently executing.
    Running,
    /// Not yet started.
    Pending,
}

/// Progress summary for one pipeline.
#[derive(Debug, Clone)]
pub struct PipelineProgress {
    /// Pipeline identifier (assigned by the planner's decomposition).
    pub id: usize,
    /// Execution state.
    pub state: PipelineState,
    /// `C(p)`: `getnext()` calls made so far over the pipeline's operators.
    pub done: u64,
    /// `T(p)`: estimated total `getnext()` calls over the pipeline's
    /// lifetime (exact when finished).
    pub total_estimate: f64,
}

impl PipelineProgress {
    /// A finished pipeline with exact totals.
    pub fn finished(id: usize, total: u64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Finished,
            done: total,
            total_estimate: total as f64,
        }
    }

    /// A running pipeline with an online total estimate.
    pub fn running(id: usize, done: u64, total_estimate: f64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Running,
            done,
            total_estimate,
        }
    }

    /// A pending pipeline with an optimizer estimate.
    pub fn pending(id: usize, total_estimate: f64) -> Self {
        PipelineProgress {
            id,
            state: PipelineState::Pending,
            done: 0,
            total_estimate,
        }
    }

    /// `T(p)`: the estimate, never below the work already observed (a NaN
    /// or negative estimate reads as that work).
    pub fn total(&self) -> f64 {
        self.total_estimate.max(self.done as f64)
    }
}

/// A point-in-time gnm progress snapshot over all pipelines of a query.
#[derive(Debug, Clone)]
pub struct ProgressSnapshot {
    pipelines: Vec<PipelineProgress>,
    /// Monotonicity floor: the highest fraction previously reported for
    /// this query. A concurrent sampler can catch `C(Q)` and `T(Q)` between
    /// a batch's counter advance and its estimate publication (they live in
    /// separate atomics), momentarily lowering the raw ratio; the floor
    /// keeps the *reported* fraction non-decreasing. Zero (the default)
    /// leaves the raw ratio untouched.
    floor: f64,
    /// The bracket `[lo, hi]` on the raw ratio, before the floor: `[0, 1]`
    /// (nothing known) unless one was attached.
    lo: f64,
    hi: f64,
}

impl ProgressSnapshot {
    /// Assemble a snapshot from per-pipeline summaries.
    pub fn new(pipelines: Vec<PipelineProgress>) -> Self {
        ProgressSnapshot {
            pipelines,
            floor: 0.0,
            lo: 0.0,
            hi: 1.0,
        }
    }

    /// Attach a monotonicity floor: [`fraction`](Self::fraction) reports at
    /// least this value (clamped to `[0, 1]`).
    pub fn with_floor(mut self, floor: f64) -> Self {
        self.floor = floor.clamp(0.0, 1.0);
        self
    }

    /// Attach the bracket on the raw ratio that per-operator estimate
    /// bounds give.
    pub fn with_bracket(mut self, lo: f64, hi: f64) -> Self {
        (self.lo, self.hi) = (lo, hi);
        self
    }

    /// The confidence bracket `(lo, hi)` around [`fraction`](Self::fraction).
    pub fn bounds(&self) -> (f64, f64) {
        let (_, lo, hi) = self.floored(0.0);
        (lo, hi)
    }

    /// `(fraction, lo, hi)` with the fraction raised to at least `floor` (a
    /// floor this snapshot's query does not know, such as an earlier
    /// attempt's), and `hi` raised to the fraction so the bracket holds it.
    pub fn floored(&self, floor: f64) -> (f64, f64, f64) {
        let fraction = self.fraction().max(floor);
        (fraction, self.lo, self.hi.max(fraction))
    }

    /// The per-pipeline summaries.
    pub fn pipelines(&self) -> &[PipelineProgress] {
        &self.pipelines
    }

    /// `C(Q)`: total `getnext()` calls made so far.
    pub fn current(&self) -> u64 {
        self.pipelines.iter().map(|p| p.done).sum()
    }

    /// `T(Q)`: estimated total `getnext()` calls over the query.
    pub fn total(&self) -> f64 {
        self.pipelines.iter().map(|p| p.total()).sum()
    }

    /// gnm progress `C(Q)/T(Q)`, clamped to `[0, 1]` and to the
    /// monotonicity floor (if one was attached). An empty snapshot with no
    /// floor reports 0.
    pub fn fraction(&self) -> f64 {
        self.raw_fraction().max(self.floor)
    }

    /// The unclamped-by-floor ratio `C(Q)/T(Q)` in `[0, 1]`.
    pub fn raw_fraction(&self) -> f64 {
        let total = self.total();
        if total <= 0.0 {
            return 0.0;
        }
        (self.current() as f64 / total).clamp(0.0, 1.0)
    }

    /// Whether every pipeline has finished.
    pub fn is_complete(&self) -> bool {
        !self.pipelines.is_empty()
            && self
                .pipelines
                .iter()
                .all(|p| p.state == PipelineState::Finished)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_combines_pipeline_states() {
        let snap = ProgressSnapshot::new(vec![
            PipelineProgress::finished(0, 100),
            PipelineProgress::running(1, 50, 100.0),
            PipelineProgress::pending(2, 200.0),
        ]);
        assert_eq!(snap.current(), 150);
        assert!((snap.total() - 400.0).abs() < 1e-9);
        assert!((snap.fraction() - 0.375).abs() < 1e-9);
        assert!(!snap.is_complete());
    }

    #[test]
    fn complete_query_reports_one() {
        let snap = ProgressSnapshot::new(vec![
            PipelineProgress::finished(0, 10),
            PipelineProgress::finished(1, 20),
        ]);
        assert_eq!(snap.fraction(), 1.0);
        assert!(snap.is_complete());
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = ProgressSnapshot::new(vec![]);
        assert_eq!(snap.fraction(), 0.0);
        assert!(!snap.is_complete());
    }

    #[test]
    fn floor_clamps_fraction_from_below_only() {
        let snap = ProgressSnapshot::new(vec![PipelineProgress::running(0, 25, 100.0)]);
        assert_eq!(snap.fraction(), 0.25);
        let floored = snap.clone().with_floor(0.4);
        assert_eq!(floored.fraction(), 0.4);
        assert_eq!(floored.raw_fraction(), 0.25);
        // a floor below the raw ratio changes nothing, and the floor never
        // pushes past 1.0
        assert_eq!(snap.clone().with_floor(0.1).fraction(), 0.25);
        assert_eq!(snap.with_floor(7.0).fraction(), 1.0);
    }

    #[test]
    fn bracket_holds_the_floored_fraction() {
        let snap = ProgressSnapshot::new(vec![PipelineProgress::running(0, 25, 100.0)]);
        assert_eq!(snap.bounds(), (0.0, 1.0), "no bracket attached");
        let snap = snap.with_bracket(0.2, 0.3);
        assert_eq!(snap.bounds(), (0.2, 0.3));
        assert_eq!(snap.clone().with_floor(0.4).bounds(), (0.2, 0.4));
        assert_eq!(snap.floored(0.5), (0.5, 0.2, 0.5));
        assert_eq!(snap.floored(0.1), (0.25, 0.2, 0.3));
    }

    #[test]
    fn running_total_never_below_done() {
        // Underestimating estimator must not push progress past 1.
        let p = PipelineProgress::running(0, 100, 10.0);
        assert_eq!(p.total(), 100.0);
        let snap = ProgressSnapshot::new(vec![p]);
        assert!(snap.fraction() <= 1.0);
    }

    #[test]
    fn nan_and_negative_estimates_total_as_the_bounds_clamp_did() {
        // Every constructor's old `[lower, ∞]` clamp: lower was the calls
        // made (running), 0 (pending) or the exact total (finished).
        for est in [
            f64::NAN,
            f64::NEG_INFINITY,
            -5.0,
            0.0,
            3.0,
            1e9,
            f64::INFINITY,
        ] {
            for (p, lower) in [
                (PipelineProgress::running(0, 7, est), 7.0),
                (PipelineProgress::pending(0, est), 0.0),
            ] {
                let old = est.clamp(lower, f64::INFINITY).max(p.done as f64);
                assert_eq!(p.total(), old, "{est}");
                if est.is_nan() || est < lower {
                    assert_eq!(p.total(), lower, "{est}");
                }
            }
        }
        assert_eq!(PipelineProgress::finished(0, 9).total(), 9.0);
    }

    #[test]
    fn fraction_is_monotone_under_progress() {
        let mut fractions = Vec::new();
        for done in [0u64, 25, 50, 75, 100] {
            let snap = ProgressSnapshot::new(vec![
                PipelineProgress::finished(0, 40),
                PipelineProgress::running(1, done, 100.0),
            ]);
            fractions.push(snap.fraction());
        }
        for w in fractions.windows(2) {
            assert!(w[1] >= w[0], "{fractions:?}");
        }
    }
}
