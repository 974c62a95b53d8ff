//! Progress-quality scoring: the paper's §5 evaluation, computed from a
//! live or replayed trace.
//!
//! The paper judges a progress indicator by how its estimated fraction
//! tracks the *retrospective oracle* — gnm evaluated with the true `N_i`,
//! which after the fact is simply `K(t) / K(final)` (the work done so far
//! over the total work the query turned out to need). [`score_samples`]
//! distills a trajectory of `(estimated fraction, work done)` samples into:
//!
//! - **mean / max absolute progress error** vs the oracle,
//! - **monotonicity violations** — adjacent samples where the estimate
//!   *decreased* by more than a tolerance (refinements may wobble the
//!   fraction; sustained regressions indicate an estimator bug),
//! - **convergence point** — the earliest oracle fraction from which the
//!   estimate stays within [`CONVERGENCE_BAND`] of the truth for the rest
//!   of the query (the paper's "once converges by the end of the probe's
//!   first scan" claim, made measurable),
//! - a **q-error summary** over the operators' last online estimates vs
//!   their exact final cardinalities (mirroring the
//!   [`MetricsSink`](crate::metrics_sink::MetricsSink) histogram: only
//!   operators that actually refined online are scored).
//!
//! Input: [`score_events`] consumes a trace (live ring or
//! [`ReplayedTrace`](crate::replay::ReplayedTrace)) using its embedded
//! `progress_sampled` snapshots — the query's own progress publications.

use qprog_exec::trace::{EstimateSource, TraceEvent, TraceEventKind};
use qprog_types::json::{self, num};

use crate::explain::q_error;

/// Absolute progress-error band defining convergence (±10 points, the
/// issue's "within 10% of truth").
pub const CONVERGENCE_BAND: f64 = 0.10;

/// Default tolerance for monotonicity violations: refinements may shave
/// the fraction by floating-point noise without it counting as a
/// regression.
pub const MONOTONICITY_TOLERANCE: f64 = 1e-9;

/// Summary statistics over per-operator final q-errors.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QErrorSummary {
    /// Operators scored (those with at least one online refinement and a
    /// finite last estimate).
    pub count: usize,
    /// Mean q-error (1.0 = every estimate exact); 0 when `count == 0`.
    pub mean: f64,
    /// Worst q-error; 0 when `count == 0`.
    pub max: f64,
}

impl QErrorSummary {
    fn from_errors(errors: &[f64]) -> QErrorSummary {
        if errors.is_empty() {
            return QErrorSummary::default();
        }
        QErrorSummary {
            count: errors.len(),
            mean: errors.iter().sum::<f64>() / errors.len() as f64,
            max: errors.iter().cloned().fold(0.0, f64::max),
        }
    }
}

/// Quality scores for one query's progress trajectory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProgressScore {
    /// Progress samples the trajectory scores were computed over.
    pub samples: usize,
    /// Mean `|estimated fraction − oracle fraction|` across samples.
    pub mean_abs_err: f64,
    /// Worst absolute progress error.
    pub max_abs_err: f64,
    /// Adjacent-sample estimate regressions beyond
    /// [`MONOTONICITY_TOLERANCE`].
    pub monotonicity_violations: usize,
    /// Earliest oracle fraction from which the estimate stayed within
    /// [`CONVERGENCE_BAND`] of truth through the end (`Some(0.0)` =
    /// accurate from the first sample; `None` = never converged or no
    /// samples).
    pub convergence: Option<f64>,
    /// Final-estimate accuracy over online-refined operators.
    pub q_error: QErrorSummary,
}

impl ProgressScore {
    /// Encode as a flat JSON object (for `BENCH_progress.json`).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"samples\":{},\"mean_abs_err\":{},\"max_abs_err\":{},\
             \"monotonicity_violations\":{},\"convergence\":{},\
             \"q_error_count\":{},\"q_error_mean\":{},\"q_error_max\":{}}}",
            self.samples,
            num(self.mean_abs_err),
            num(self.max_abs_err),
            self.monotonicity_violations,
            self.convergence.map_or("null".to_string(), num),
            self.q_error.count,
            num(self.q_error.mean),
            num(self.q_error.max),
        )
    }

    /// Parse the flat fields written by [`Self::to_json`] back out of a
    /// one-line JSON object. The object may carry extra fields (a corpus
    /// index record embeds the scorecard alongside run metadata); `null`
    /// numerics decode as NaN and a `null` convergence as `None`.
    pub fn from_json(line: &str) -> Result<ProgressScore, String> {
        let parsed = || {
            Some(ProgressScore {
                samples: json::u64(line, "samples")? as usize,
                mean_abs_err: json::f64(line, "mean_abs_err")?,
                max_abs_err: json::f64(line, "max_abs_err")?,
                monotonicity_violations: json::u64(line, "monotonicity_violations")? as usize,
                convergence: Some(json::f64(line, "convergence")?).filter(|c| !c.is_nan()),
                q_error: QErrorSummary {
                    count: json::u64(line, "q_error_count")? as usize,
                    mean: json::f64(line, "q_error_mean")?,
                    max: json::f64(line, "q_error_max")?,
                },
            })
        };
        parsed().ok_or_else(|| "missing or malformed scorecard field".to_string())
    }
}

/// One point of a progress trajectory: the indicator's estimate and the
/// work counter it was derived from.
#[derive(Debug, Clone, Copy)]
pub struct SamplePoint {
    /// Estimated gnm fraction at the sample instant.
    pub fraction: f64,
    /// `ΣK_i` — true work done at the sample instant (the oracle's input).
    pub current: u64,
}

/// Score a trajectory of samples against the retrospective oracle.
///
/// The oracle fraction at each sample is `current / final_current`, where
/// `final_current` is the largest work counter observed — gnm with the true
/// `N_i`, reconstructed after the fact. Queries whose trace ends mid-run
/// (abort, truncation) are scored against the work they actually did.
pub fn score_samples(points: &[SamplePoint], q_errors: &[f64]) -> ProgressScore {
    let q_error = QErrorSummary::from_errors(q_errors);
    let final_current = points.iter().map(|p| p.current).max().unwrap_or(0);
    if points.is_empty() || final_current == 0 {
        return ProgressScore {
            q_error,
            ..ProgressScore::default()
        };
    }

    let mut sum_err = 0.0f64;
    let mut max_err = 0.0f64;
    let mut errs = Vec::with_capacity(points.len());
    for p in points {
        let oracle = p.current as f64 / final_current as f64;
        let est = if p.fraction.is_finite() {
            p.fraction
        } else {
            0.0
        };
        let err = (est - oracle).abs();
        errs.push((oracle, err));
        sum_err += err;
        max_err = max_err.max(err);
    }

    let monotonicity_violations = points
        .windows(2)
        .filter(|w| {
            w[1].fraction.is_finite()
                && w[0].fraction.is_finite()
                && w[1].fraction < w[0].fraction - MONOTONICITY_TOLERANCE
        })
        .count();

    // Convergence: walk back from the end to find the first sample after
    // which every error stays inside the band, then report the *oracle*
    // fraction at that sample (how far through the true work the indicator
    // became reliable).
    let mut convergence = None;
    for (i, &(oracle, err)) in errs.iter().enumerate().rev() {
        if err > CONVERGENCE_BAND {
            break;
        }
        convergence = Some(if i == 0 { 0.0 } else { oracle });
    }

    ProgressScore {
        samples: points.len(),
        mean_abs_err: sum_err / points.len() as f64,
        max_abs_err: max_err,
        monotonicity_violations,
        convergence,
        q_error,
    }
}

/// Score a trace using its embedded `progress_sampled` snapshots (the
/// query must have run traced with publication on: a progress subscriber,
/// or a session with a corpus); q-errors come from the `estimate_refined`
/// stream, mirroring the metrics sink: each operator's last pre-exact
/// estimate vs its exact pin, online-refined operators only.
pub fn score_events(events: &[TraceEvent]) -> ProgressScore {
    let mut points = Vec::new();
    // (last_estimate, refined_online) per operator.
    let mut ops: Vec<(f64, bool)> = Vec::new();
    let mut q_errors = Vec::new();
    for e in events {
        match e.kind {
            TraceEventKind::ProgressSampled {
                current, fraction, ..
            } => points.push(SamplePoint { fraction, current }),
            TraceEventKind::EstimateRefined {
                op, new, source, ..
            } => {
                let idx = op as usize;
                if ops.len() <= idx {
                    ops.resize(idx + 1, (f64::NAN, false));
                }
                match source {
                    EstimateSource::Exact => {
                        let (prior, refined) = ops[idx];
                        if refined && prior.is_finite() {
                            q_errors.push(q_error(new, prior));
                        }
                    }
                    _ => {
                        ops[idx].0 = new;
                        ops[idx].1 |= source == EstimateSource::Online;
                    }
                }
            }
            _ => {}
        }
    }
    score_samples(&points, &q_errors)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(v: &[(f64, u64)]) -> Vec<SamplePoint> {
        v.iter()
            .map(|&(fraction, current)| SamplePoint { fraction, current })
            .collect()
    }

    #[test]
    fn perfect_trajectory_scores_zero_error() {
        let p = pts(&[(0.0, 0), (0.25, 25), (0.5, 50), (1.0, 100)]);
        let s = score_samples(&p, &[]);
        assert_eq!(s.samples, 4);
        assert_eq!(s.mean_abs_err, 0.0);
        assert_eq!(s.max_abs_err, 0.0);
        assert_eq!(s.monotonicity_violations, 0);
        assert_eq!(s.convergence, Some(0.0));
        assert_eq!(s.q_error.count, 0);
    }

    #[test]
    fn errors_and_convergence_are_measured() {
        // Estimate wildly low early (optimistic denominator), converges at
        // the third sample (oracle fraction 0.5).
        let p = pts(&[(0.6, 10), (0.8, 25), (0.52, 50), (0.77, 75), (1.0, 100)]);
        let s = score_samples(&p, &[]);
        assert_eq!(s.samples, 5);
        assert!(s.max_abs_err > 0.4, "{s:?}");
        assert!(s.mean_abs_err > 0.1 && s.mean_abs_err < 0.4, "{s:?}");
        assert_eq!(s.convergence, Some(0.5));
        // 0.8 → 0.52 is a real regression
        assert_eq!(s.monotonicity_violations, 1);
    }

    #[test]
    fn never_converging_trajectory_reports_none() {
        let p = pts(&[(0.9, 10), (0.9, 50), (0.5, 100)]);
        let s = score_samples(&p, &[]);
        assert_eq!(s.convergence, None);
    }

    #[test]
    fn empty_and_zero_work_are_safe() {
        assert_eq!(score_samples(&[], &[]).samples, 0);
        let s = score_samples(&pts(&[(0.0, 0)]), &[1.5, 2.5]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.q_error.count, 2);
        assert_eq!(s.q_error.mean, 2.0);
        assert_eq!(s.q_error.max, 2.5);
    }

    #[test]
    fn score_events_uses_sampled_snapshots_and_refinements() {
        use qprog_exec::trace::EstimateSource;
        let mk = |kind| TraceEvent {
            seq: 0,
            at_us: 0,
            kind,
        };
        let events = vec![
            mk(TraceEventKind::EstimateRefined {
                op: 0,
                old: f64::NAN,
                new: 1000.0,
                source: EstimateSource::Optimizer,
                lo: f64::NAN,
                hi: f64::NAN,
            }),
            mk(TraceEventKind::ProgressSampled {
                current: 50,
                total: 100.0,
                fraction: 0.5,
                lo: f64::NAN,
                hi: f64::NAN,
            }),
            mk(TraceEventKind::EstimateRefined {
                op: 0,
                old: 1000.0,
                new: 50.0,
                source: EstimateSource::Online,
                lo: f64::NAN,
                hi: f64::NAN,
            }),
            mk(TraceEventKind::EstimateRefined {
                op: 0,
                old: 50.0,
                new: 100.0,
                source: EstimateSource::Exact,
                lo: f64::NAN,
                hi: f64::NAN,
            }),
            mk(TraceEventKind::ProgressSampled {
                current: 100,
                total: 100.0,
                fraction: 1.0,
                lo: f64::NAN,
                hi: f64::NAN,
            }),
        ];
        let s = score_events(&events);
        assert_eq!(s.samples, 2);
        assert_eq!(s.mean_abs_err, 0.0);
        assert_eq!(s.q_error.count, 1);
        assert_eq!(s.q_error.mean, 2.0, "q-error(100, 50) = 2");
    }

    #[test]
    fn score_json_is_flat_and_parsable() {
        let s = score_samples(&pts(&[(0.5, 50), (1.0, 100)]), &[2.0]);
        let json = s.to_json();
        assert_eq!(json::raw(&json, "samples"), Some("2"));
        assert_eq!(json::raw(&json, "q_error_mean"), Some("2"));
        assert_eq!(json::raw(&json, "convergence"), Some("0"));
        let none = ProgressScore::default().to_json();
        assert_eq!(json::raw(&none, "convergence"), Some("null"));
    }

    #[test]
    fn score_json_round_trips() {
        let s = score_samples(&pts(&[(0.3, 30), (0.8, 60), (1.0, 100)]), &[1.5, 3.0]);
        let back = ProgressScore::from_json(&s.to_json()).unwrap();
        assert_eq!(s, back);
        // None convergence and extra surrounding fields survive.
        let none = ProgressScore::default();
        let embedded = format!("{{\"run\":7,\"label\":\"q8\",{}", &none.to_json()[1..]);
        let back = ProgressScore::from_json(&embedded).unwrap();
        assert_eq!(back.convergence, None);
        assert_eq!(back.samples, 0);
        assert!(ProgressScore::from_json("{\"samples\":1}").is_err());
    }
}
