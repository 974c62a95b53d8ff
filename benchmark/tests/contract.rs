//! The benchmark's contract with its driver: `BENCHMARK.json` declares
//! exactly what the program prints, a quick run of the whole suite prints
//! exactly that, and a wrong expectation fails the command.

use std::path::{Path, PathBuf};
use std::process::Command;

use qprog_benchmark::json::Json;
use qprog_benchmark::spec::{manifest, valid_name, valid_unit, END_TO_END, PER_LAYER};
use qprog_benchmark::workloads::WORKLOADS;

const EXE: &str = env!("CARGO_BIN_EXE_qprog-benchmark");

fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// A scratch output directory under `out/`, emptied first.
fn out_dir(tag: &str) -> PathBuf {
    let dir = package_dir().join("out").join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn names(list: &Json) -> Vec<&str> {
    list.as_array()
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap())
        .collect()
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let path = package_dir().join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    assert_eq!(
        doc,
        manifest(),
        "BENCHMARK.json drifted from src/spec.rs; regenerate it with `qprog-benchmark manifest`"
    );
    assert!(text.len() <= 64 * 1024);

    let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    // The command names nothing of the repository outside `paths`.
    for arg in doc.get("command").unwrap().as_array().unwrap() {
        let arg = arg.as_str().unwrap();
        assert!(!arg.starts_with('/') && !arg.contains(".."), "{arg}");
        assert!(!arg.contains('/') || arg.starts_with("benchmark/"), "{arg}");
    }
    let seconds = doc.get("run_seconds").unwrap().as_f64().unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    assert!(names(doc.get("end_to_end").unwrap()).contains(&"setup_s"));
}

/// Metric names of one report, in the order printed.
fn reported(report: &Json) -> Vec<String> {
    report
        .get("metrics")
        .unwrap()
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

#[test]
fn quick_suite_prints_every_declared_metric() {
    let out = out_dir("test-smoke");
    let run = Command::new(EXE)
        .args(["run", "--quick", "--seed", "88", "--out"])
        .arg(&out)
        .output()
        .expect("spawn the suite");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "quick suite failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let results = Json::parse(&std::fs::read_to_string(out.join("results.json")).unwrap()).unwrap();
    let fingerprint = results.get("fingerprint").unwrap();
    for key in ["nproc", "cpu", "rustc", "commit", "seed"] {
        assert!(fingerprint.get(key).is_some(), "fingerprint lacks {key}");
    }
    let sets = results.get("sets").unwrap().as_array().unwrap();
    assert_eq!(sets.len(), 1);
    let reports = sets[0].as_array().unwrap();
    assert_eq!(
        reports.len(),
        2 * WORKLOADS.len(),
        "one child per workload and mode"
    );

    let end_to_end: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let per_layer: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for entry in reports {
        let workload = entry.get("workload").unwrap().as_str().unwrap();
        let trace = entry.get("trace").unwrap().as_bool().unwrap();
        let report = entry.get("report").unwrap();
        assert_eq!(
            report.get("failed").unwrap().as_f64(),
            Some(0.0),
            "{workload}"
        );
        assert!(report.get("attempted").unwrap().as_f64().unwrap() >= 1.0);
        let declared = if trace { &per_layer } else { &end_to_end };
        assert_eq!(&reported(report), declared, "{workload} --trace {trace}");
        for (name, m) in report.get("metrics").unwrap().as_object().unwrap() {
            assert!(valid_name(name), "{name}");
            assert!(
                valid_unit(m.get("unit").unwrap().as_str().unwrap()),
                "{name}"
            );
            let value = m.get("value").unwrap().as_f64().expect("finite value");
            // Timed samples come with quartiles and a count.
            if let Some(n) = m.get("n") {
                assert!(
                    n.as_f64().unwrap() >= 1.0 && m.get("q1").is_some() && m.get("q3").is_some()
                );
            }
            assert!(
                trace || value != 0.0,
                "{workload}: end-to-end {name} read 0"
            );
        }
        if trace {
            let trace_file = out.join(format!("trace-{workload}.json"));
            let doc = Json::parse(&std::fs::read_to_string(&trace_file).unwrap()).unwrap();
            assert!(!doc
                .get("traceEvents")
                .unwrap()
                .as_array()
                .unwrap()
                .is_empty());
            let gap = report
                .get("metrics")
                .unwrap()
                .get("bench.reconcile_gap_pct")
                .unwrap();
            assert!(
                gap.get("value").unwrap().as_f64().unwrap() <= 2.0,
                "{workload}: traced self times do not sum to the end-to-end time"
            );
        }
    }
    // Temp dirs are removed when a workload ends.
    let leftovers: Vec<_> = std::fs::read_dir(out.join("tmp"))
        .map(|d| d.flatten().collect())
        .unwrap_or_default();
    assert!(leftovers.is_empty(), "scratch left behind: {leftovers:?}");
}

#[test]
fn a_wrong_expectation_fails_the_command() {
    for workload in ["hash_agg_uniform", "service_short"] {
        let out = out_dir(&format!("test-sabotage-{workload}"));
        let run = Command::new(EXE)
            .args(["--workload", workload, "--seed", "88", "--trace", "0"])
            .args(["--iters", "2", "--sabotage", "--out"])
            .arg(&out)
            .output()
            .expect("spawn the workload");
        assert!(!run.status.success(), "{workload}: sabotaged run exited 0");
        let stdout = String::from_utf8_lossy(&run.stdout);
        let last = Json::parse(stdout.trim().lines().last().unwrap()).unwrap();
        assert_eq!(
            last.get("correct").unwrap().as_bool(),
            Some(false),
            "{workload}"
        );
        assert!(
            last.get("failed").unwrap().as_f64().unwrap() >= 1.0,
            "{workload}"
        );
    }
}

#[test]
fn the_driver_line_has_exactly_the_contract_keys() {
    let out = out_dir("test-driver-line");
    let run = Command::new(EXE)
        .args(["--workload", "merge_zipf1", "--seed", "7", "--seconds", "1"])
        .args(["--trace", "0", "--iters", "2", "--out"])
        .arg(&out)
        .output()
        .expect("spawn the workload");
    assert!(run.status.success());
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = Json::parse(stdout.trim().lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| &**k)
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    for (name, m) in last.get("metrics").unwrap().as_object().unwrap() {
        let keys: Vec<&str> = m.as_object().unwrap().iter().map(|(k, _)| &**k).collect();
        assert_eq!(keys, ["value", "unit"], "{name}");
    }
}
