//! `run` and `repeat`: the whole suite, one child process per workload
//! and mode so peak RSS and allocator state never leak across workloads.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{obj, Json};
use crate::spec::{Better, END_TO_END};
use crate::workloads::WORKLOADS;

pub struct SuiteConfig {
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

/// One child's detail report.
pub struct ChildReport {
    pub workload: &'static str,
    pub trace: bool,
    pub doc: Json,
}

impl ChildReport {
    pub fn value(&self, metric: &str) -> Option<f64> {
        self.doc.get("metrics")?.get(metric)?.get("value")?.as_f64()
    }

    fn failed(&self) -> u64 {
        self.doc.get("failed").and_then(Json::as_f64).unwrap_or(1.0) as u64
    }
}

pub fn report_path(out_dir: &Path, workload: &str, trace: bool) -> PathBuf {
    out_dir.join(format!("report-{workload}-trace{}.json", u8::from(trace)))
}

fn run_child(
    cfg: &SuiteConfig,
    workload: &'static str,
    trace: bool,
) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&cfg.out_dir)
        .env_remove("QPROG_THREADS")
        .env_remove("QPROG_BATCH_ROWS");
    if cfg.quick {
        cmd.args(["--iters", "3"]);
    }
    println!("\n== {workload} (--trace {}) ==", u8::from(trace));
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let path = report_path(&cfg.out_dir, workload, trace);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let report = ChildReport {
        workload,
        trace,
        doc,
    };
    if !status.success() && report.failed() == 0 {
        return Err(format!("{workload} exited with {status}"));
    }
    Ok(report)
}

/// One full set: every workload, timed run then traced run.
pub fn run_set(cfg: &SuiteConfig) -> Result<Vec<ChildReport>, String> {
    let mut reports = Vec::new();
    for w in &WORKLOADS {
        for trace in [false, true] {
            reports.push(run_child(cfg, w.name, trace)?);
        }
    }
    Ok(reports)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where the numbers were measured.
pub fn fingerprint(cfg: &SuiteConfig) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj([
        ("nproc", Json::Num(crate::inproc::clients() as f64)),
        ("cpu", Json::Str(cpu)),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(cfg.seed as f64)),
        ("seconds", Json::Num(cfg.seconds as f64)),
        ("quick", Json::Bool(cfg.quick)),
    ])
}

pub fn results_json(cfg: &SuiteConfig, sets: &[Vec<ChildReport>]) -> Json {
    let sets = sets.iter().map(|set| {
        Json::Arr(
            set.iter()
                .map(|r| {
                    obj([
                        ("workload", Json::Str(r.workload.into())),
                        ("trace", Json::Bool(r.trace)),
                        ("report", r.doc.clone()),
                    ])
                })
                .collect(),
        )
    });
    obj([
        ("fingerprint", fingerprint(cfg)),
        ("sets", Json::Arr(sets.collect())),
    ])
}

pub fn total_failed(set: &[ChildReport]) -> u64 {
    set.iter().map(ChildReport::failed).sum()
}

/// Relative worsening of `second` against `first` (positive = worse).
fn worsening(better: Better, first: f64, second: f64) -> f64 {
    if first == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (second - first) / first.abs(),
        Better::Higher => (first - second) / first.abs(),
    }
}

/// Compare two sets: every end-to-end metric of every workload must agree
/// within its bound, in either direction (the code did not change, so a
/// move either way is noise the bound has to absorb). Returns the number
/// of pairs out of bound.
pub fn compare_sets(first: &[ChildReport], second: &[ChildReport]) -> usize {
    println!("\n== repeat: set 2 against set 1 ==");
    println!(
        "  {:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "spread", "bound"
    );
    let mut out_of_bound = 0;
    for (a, b) in first.iter().zip(second).filter(|(a, _)| !a.trace) {
        for m in END_TO_END {
            let (Some(x), Some(y)) = (a.value(m.name), b.value(m.name)) else {
                println!("  {:<18} {:<24} missing", a.workload, m.name);
                out_of_bound += 1;
                continue;
            };
            let spread = worsening(m.better, x, y)
                .abs()
                .max(worsening(m.better, y, x).abs());
            let verdict = if spread > m.bound {
                out_of_bound += 1;
                "  OUT OF BOUND"
            } else {
                ""
            };
            println!(
                "  {:<18} {:<24} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%{verdict}",
                a.workload,
                m.name,
                x,
                y,
                spread * 100.0,
                m.bound * 100.0
            );
        }
    }
    // Counts the acceptance criteria want repeating to 1%.
    for (a, b) in first.iter().zip(second).filter(|(a, _)| a.trace) {
        for name in ["exec.tuples", "obs.events", "core.hist_bytes"] {
            if let (Some(x), Some(y)) = (a.value(name), b.value(name)) {
                let diff = if x == 0.0 { 0.0 } else { (y - x).abs() / x };
                let verdict = if diff > 0.01 {
                    out_of_bound += 1;
                    "  OUT OF BOUND"
                } else {
                    ""
                };
                println!(
                    "  {:<18} {:<24} {:>14.1} {:>14.1} {:>8.2}% {:>6.1}%{verdict}",
                    a.workload,
                    name,
                    x,
                    y,
                    diff * 100.0,
                    1.0
                );
            }
        }
    }
    out_of_bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_respects_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
        assert_eq!(worsening(Better::Lower, 0.0, 1.0), 0.0);
    }
}
