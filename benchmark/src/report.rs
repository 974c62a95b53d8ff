//! What one workload run reports: named metrics with their dispersion, and
//! the attempted/failed tally behind `failed_share`.

use std::time::Instant;

use crate::json::{obj, Json};
use crate::stats::{median, Summary};

/// One reported number. `value` is the headline statistic (a median, a
/// percentile, a ratio of medians, an exact count); `summary` describes the
/// sample it came from when there is one.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
}

/// Operations attempted and failed (wrong result, refused, timed out).
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the operator.
    pub messages: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = outcome {
            self.failed += 1;
            if self.messages.len() < 5 {
                self.messages.push(msg);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 5usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }
}

#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Iteration counts by phase, for the fingerprint.
    pub iterations: Vec<(String, u64)>,
    /// Things a reader of the numbers must know (e.g. an overhead flag).
    pub notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, name: &str, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
        });
    }

    /// A metric whose headline value is the median of `samples`.
    pub fn push_median(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        self.push_with(name, unit, median(samples), samples);
    }

    /// A metric with its own headline `value` over `samples`.
    pub fn push_with(&mut self, name: &str, unit: &'static str, value: f64, samples: &[f64]) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            summary: (!samples.is_empty()).then(|| Summary::of(samples)),
        });
    }

    /// The last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.into())),
                ]),
            )
        });
        obj([
            ("correct", Json::Bool(self.tally.failed == 0)),
            ("attempted", Json::Num(self.tally.attempted.max(1) as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .encode()
    }

    /// The full report, with quartiles and sample counts.
    pub fn detail_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value".to_string(), Json::Num(m.value)),
                ("unit".to_string(), Json::Str(m.unit.into())),
            ];
            if let Some(s) = m.summary {
                fields.extend([
                    ("median".to_string(), Json::Num(s.median)),
                    ("q1".to_string(), Json::Num(s.q1)),
                    ("q3".to_string(), Json::Num(s.q3)),
                    ("n".to_string(), Json::Num(s.n as f64)),
                ]);
            }
            (m.name.clone(), Json::Obj(fields))
        });
        obj([
            ("attempted", Json::Num(self.tally.attempted as f64)),
            ("failed", Json::Num(self.tally.failed as f64)),
            (
                "failures",
                Json::Arr(self.tally.messages.iter().cloned().map(Json::Str).collect()),
            ),
            (
                "iterations",
                obj(self
                    .iterations
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))),
            ),
            (
                "notes",
                Json::Arr(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics", obj(metrics)),
        ])
    }

    /// Every metric by name with unit, value, quartiles and sample count.
    pub fn print_table(&self) {
        for m in &self.metrics {
            match m.summary {
                Some(s) => println!(
                    "  {:<40} {:>14.6} {:<9} median {:.6}  q1 {:.6}  q3 {:.6}  n {}",
                    m.name, m.value, m.unit, s.median, s.q1, s.q3, s.n
                ),
                None => println!("  {:<40} {:>14.6} {:<9}", m.name, m.value, m.unit),
            }
        }
    }
}

/// How long a measuring phase runs: a share of `--seconds`, or a fixed
/// iteration count under `--iters` (the quick smoke).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub seconds: f64,
    pub min_iters: usize,
    pub fixed: Option<usize>,
}

impl Budget {
    /// True while iteration number `done` (0-based) should still run.
    pub fn more(&self, started: Instant, done: usize) -> bool {
        match self.fixed {
            Some(n) => done < n,
            None => done < self.min_iters || started.elapsed().as_secs_f64() < self.seconds,
        }
    }
}

/// `VmHWM` of this process in MB (Linux), the peak resident set.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let mut r = Report::default();
        r.push("setup_s", "s", 0.8127);
        r.tally.record(Ok(()));
        r.tally.record(Err("wrong rows".into()));
        let doc = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(doc.get("failed").unwrap().as_f64(), Some(1.0));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn peak_rss_reads_on_linux() {
        assert!(peak_rss_mb() > 0.0);
    }
}
