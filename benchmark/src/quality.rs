//! Progress-quality scoring on a **work grid**.
//!
//! A sampler thread reads `tracker.snapshot()` while the query runs. The
//! error is not averaged over the samples themselves (their spacing in
//! work depends on wall-clock scheduling, which made the old scorecard
//! swing 0.16–0.18 on the same code); it is read at 100 fixed points of
//! the oracle `C / C_final`, which repeats to the fourth digit.
//!
//! The error at a grid point is that of the last sample at or before it,
//! and a sample is compared with **its own** oracle position
//! (`|p̂ᵢ − Cᵢ / C_final|`, both numbers from one snapshot), not with the
//! grid point's. Subtracting the grid point instead adds the sampler's
//! staleness to the indicator's error — 0.0076 at a 500 µs period against
//! 0.0018 at 5 µs on `hash_agg_uniform` — and would score a faster engine
//! (fewer samples per run) as a worse indicator. The price: an error
//! between two samples is not seen, so the sampler has to be dense.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qprog::plan::ProgressTracker;

/// Convergence band: |error| ≤ 0.10 from some point to the end, the same
/// band the program's own scorecard uses.
pub use qprog::obs::scoring::CONVERGENCE_BAND;

/// One reading of the indicator: work done and the fraction it published.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub current: u64,
    pub fraction: f64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridScore {
    pub mean_abs_err: f64,
    pub max_abs_err: f64,
    /// Smallest g/100 from which the error stays within the band.
    pub convergence_frac: f64,
    /// Adjacent samples whose published fraction went down.
    pub monotonicity_violations: usize,
    pub samples: usize,
}

/// Score `samples` (in time order) against the oracle `current / final`.
/// For g = 1…100 the error is `|fraction − current / final|` of the last
/// sample with `current / final ≤ g/100`; before the first sample it is 0
/// (nothing done, nothing claimed).
pub fn score_work_grid(samples: &[Sample], final_current: u64) -> GridScore {
    let total = final_current.max(1) as f64;
    let mut errs = [0.0f64; 100];
    let mut next = 0usize;
    let mut err_at_last = 0.0f64;
    for (i, err) in errs.iter_mut().enumerate() {
        let g = (i + 1) as f64 / 100.0;
        while next < samples.len() && samples[next].current as f64 / total <= g {
            let s = samples[next];
            if s.fraction.is_finite() {
                err_at_last = (s.fraction - s.current as f64 / total).abs();
            }
            next += 1;
        }
        *err = err_at_last;
    }
    let mut convergence_frac = 1.0;
    for (i, err) in errs.iter().enumerate().rev() {
        if *err > CONVERGENCE_BAND {
            break;
        }
        convergence_frac = (i + 1) as f64 / 100.0;
    }
    GridScore {
        mean_abs_err: errs.iter().sum::<f64>() / 100.0,
        max_abs_err: errs.iter().cloned().fold(0.0, f64::max),
        convergence_frac,
        monotonicity_violations: samples
            .windows(2)
            .filter(|w| w[1].fraction < w[0].fraction - 1e-9)
            .count(),
        samples: samples.len(),
    }
}

/// A thread sampling one query's tracker every `period` until stopped.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<Sample>>,
}

impl Sampler {
    pub fn spawn(tracker: ProgressTracker, period: Duration) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("bench-sampler".into())
            .spawn(move || {
                let mut samples = Vec::with_capacity(1 << 14);
                let read = |samples: &mut Vec<Sample>| {
                    let snap = tracker.snapshot();
                    samples.push(Sample {
                        current: snap.current(),
                        fraction: snap.fraction(),
                    });
                };
                // SeqCst: the flag is set after the query returned, and the
                // closing read below must see the finished query.
                while !stop2.load(Ordering::SeqCst) {
                    read(&mut samples);
                    wait(period);
                }
                read(&mut samples);
                samples
            })
            .expect("spawn sampler thread");
        Sampler { stop, thread }
    }

    /// Stop after one closing sample and return everything read.
    pub fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("sampler thread panicked")
    }
}

/// Spin: the periods used here (microseconds) are far below what the
/// scheduler honours for a sleep.
fn wait(period: Duration) {
    let until = Instant::now() + period;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(current: u64, fraction: f64) -> Sample {
        Sample { current, fraction }
    }

    #[test]
    fn perfect_indicator_scores_zero() {
        let samples: Vec<Sample> = (0..=1000).map(|c| s(c, c as f64 / 1000.0)).collect();
        let score = score_work_grid(&samples, 1000);
        assert!(score.mean_abs_err < 1e-12 && score.max_abs_err < 1e-12);
        assert_eq!(score.convergence_frac, 0.01);
        assert_eq!(score.monotonicity_violations, 0);
    }

    #[test]
    fn an_error_between_samples_is_not_seen() {
        // Only "not started" and "done" were read, and both were right: a
        // sparse sampler scores 0 whatever happened in between. Density is
        // the caller's job (`inproc::SAMPLE_PERIOD`).
        let score = score_work_grid(&[s(0, 0.0), s(500, 1.0)], 500);
        assert_eq!((score.mean_abs_err, score.max_abs_err), (0.0, 0.0));
        // The same two readings plus one in the middle that was 0.4 off.
        let score = score_work_grid(&[s(0, 0.0), s(250, 0.9), s(500, 1.0)], 500);
        assert!((score.max_abs_err - 0.4).abs() < 1e-12);
        // Held from g = 50 to g = 99: 50 of the 100 grid points.
        assert!((score.mean_abs_err - 0.2).abs() < 1e-12);
        assert_eq!(score.convergence_frac, 1.0);
    }

    #[test]
    fn late_converging_indicator() {
        // Runs 0.3 ahead until 60% of the work, exact afterwards.
        let samples: Vec<Sample> = (0..=100)
            .map(|c| {
                let truth = c as f64 / 100.0;
                s(
                    c,
                    if c < 60 {
                        (truth + 0.3).min(1.0)
                    } else {
                        truth
                    },
                )
            })
            .collect();
        let score = score_work_grid(&samples, 100);
        assert!((score.max_abs_err - 0.3).abs() < 1e-9);
        assert_eq!(score.convergence_frac, 0.60);
        assert_eq!(score.monotonicity_violations, 1);
    }
}
