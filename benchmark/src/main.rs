//! The repository's one benchmark (see `BENCHMARK.json` and `README.md`).
//!
//! ```text
//! qprog-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload
//! qprog-benchmark run    [--seed 88] [--seconds 22] [--quick]                the suite
//! qprog-benchmark repeat [--seed 88] [--seconds 22] [--quick]                the suite twice
//! qprog-benchmark manifest                                                   print BENCHMARK.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use qprog_benchmark::inproc::RunConfig;
use qprog_benchmark::report::Report;
use qprog_benchmark::spec::{manifest, END_TO_END, PER_LAYER, RUN_SECONDS};
use qprog_benchmark::suite::SuiteConfig;
use qprog_benchmark::{inproc, layers, service, suite, trace, workloads};

/// The documented default seed; 7 is the held-out second seed.
const DEFAULT_SEED: u64 = 88;

struct Args(Vec<String>);

impl Args {
    fn value(&self, flag: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == flag)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("bad value for {flag}: {v:?}"))
            })
            .transpose()
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Everything the benchmark writes goes under `benchmark/out` (or `--out`).
fn out_dir(args: &Args) -> PathBuf {
    args.value("--out").map_or_else(
        || PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"),
        PathBuf::from,
    )
}

/// Put the report's metrics in catalogue order and make the set exact:
/// every end-to-end metric must have been measured; a per-layer metric of
/// a layer the workload does not exercise reads 0.
fn finalize(report: &mut Report, trace: bool) -> Result<(), String> {
    let names: Vec<(&str, &str)> = if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    if let Some(stray) = report
        .metrics
        .iter()
        .find(|m| !names.iter().any(|(n, _)| *n == m.name))
    {
        return Err(format!("metric {} is not in the catalogue", stray.name));
    }
    let mut measured = std::mem::take(&mut report.metrics);
    for (name, unit) in names {
        match measured.iter().position(|m| m.name == name) {
            Some(at) => {
                let m = measured.swap_remove(at);
                if m.unit != unit {
                    return Err(format!("{name} reported in {} not {unit}", m.unit));
                }
                let measured = m.value.is_finite() && m.value != 0.0;
                if !trace && !measured {
                    return Err(format!("end-to-end metric {name} read {}", m.value));
                }
                report.metrics.push(m);
            }
            None if trace => report.push(name, unit, 0.0),
            None => return Err(format!("end-to-end metric {name} was not measured")),
        }
    }
    Ok(())
}

fn print_self_times(recorder: &trace::Recorder) {
    println!("  self time per layer span (span minus children), us:");
    for (name, s, total) in recorder.self_time_table() {
        println!(
            "    {:<24} median {:>12.1}  q1 {:>12.1}  q3 {:>12.1}  n {:>4}  total {:>14.1}",
            name, s.median, s.q1, s.q3, s.n, total
        );
    }
}

/// Driver mode: one workload, one mode, result as the last line of stdout.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.value("--workload").ok_or("--workload needs a name")?;
    let w = workloads::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let trace = match args.value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
    };
    let cfg = RunConfig {
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args
            .parsed::<f64>("--seconds")?
            .unwrap_or(RUN_SECONDS as f64),
        iters: args.parsed("--iters")?,
        sabotage: args.has("--sabotage"),
        out_dir: out_dir(args),
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;

    let mut report = if trace {
        let (report, recorder) = if w.service {
            service::run_layers(w, &cfg)
        } else {
            layers::run_layers(w, &cfg)
        }
        .map_err(|e| e.to_string())?;
        let path = cfg.out_dir.join(format!("trace-{}.json", w.name));
        std::fs::write(&path, recorder.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "  trace: {} spans -> {}",
            recorder.spans().len(),
            path.display()
        );
        print_self_times(&recorder);
        report
    } else if w.service {
        service::run_end_to_end(w, &cfg).map_err(|e| e.to_string())?
    } else {
        inproc::run_end_to_end(w, &cfg).map_err(|e| e.to_string())?
    };
    finalize(&mut report, trace)?;

    report.print_table();
    for note in &report.notes {
        println!("  NOTE {note}");
    }
    for msg in &report.tally.messages {
        println!("  FAILED {msg}");
    }
    println!(
        "  attempted {}  failed {}  failed_share {}",
        report.tally.attempted,
        report.tally.failed,
        report.tally.failed as f64 / report.tally.attempted.max(1) as f64
    );
    let path = suite::report_path(&cfg.out_dir, w.name, trace);
    std::fs::write(&path, report.detail_json().encode())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{}", report.contract_line());
    Ok(if report.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run_suite(args: &Args, sets: usize) -> Result<ExitCode, String> {
    let cfg = SuiteConfig {
        seed: args.parsed("--seed")?.unwrap_or(DEFAULT_SEED),
        seconds: args.parsed("--seconds")?.unwrap_or(RUN_SECONDS),
        quick: args.has("--quick"),
        out_dir: out_dir(args),
    };
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;
    let mut done = Vec::new();
    for _ in 0..sets {
        done.push(suite::run_set(&cfg)?);
    }
    let path = cfg.out_dir.join("results.json");
    std::fs::write(&path, suite::results_json(&cfg, &done).encode())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresults: {}", path.display());

    let failed: u64 = done.iter().map(|s| suite::total_failed(s)).sum();
    let mut ok = failed == 0;
    if failed > 0 {
        println!("FAILED: {failed} operations failed their correctness check");
    }
    if let [first, second] = &done[..] {
        let out = suite::compare_sets(first, second);
        if out > 0 {
            println!("FAILED: {out} metrics moved by more than their bound between two sets of the same code");
            ok = false;
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // The workloads fix threads and batch size themselves; a stray
    // environment must not reconfigure the program under test.
    std::env::remove_var("QPROG_THREADS");
    std::env::remove_var("QPROG_BATCH_ROWS");
    let args = Args(std::env::args().skip(1).collect());
    let outcome = match args.0.first().map(String::as_str) {
        Some("run") => run_suite(&args, 1),
        Some("repeat") => run_suite(&args, 2),
        Some("manifest") => {
            print!("{}", manifest().encode_pretty());
            Ok(ExitCode::SUCCESS)
        }
        _ if args.has("--workload") => run_workload(&args),
        _ => Err(
            "usage: qprog-benchmark run|repeat [--seed N] [--seconds S] [--quick]\n       \
                  qprog-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                .into(),
        ),
    };
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}
