//! End-to-end tests spanning the whole stack: SQL → planning → execution
//! with every estimation mode, checked for result consistency and sane
//! progress reporting.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use qprog::core::EstimationMode;
use qprog::exec::trace::{EstimateSource, TraceEventKind};
use qprog::plan::physical::{compile_traced, PhysicalOptions};
use qprog::plan::{LogicalPlan, ProgressTracker};
use qprog::prelude::*;
use qprog::workloads::q8_plan;
use qprog_datagen::{TpchConfig, TpchGenerator};

fn skewed_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 20_000, 1.5, 300, 1,
    ))
    .unwrap();
    c.register(qprog::datagen::customer_table(
        "customer2",
        20_000,
        1.5,
        300,
        2,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 300))
        .unwrap();
    c
}

/// Row multisets must be identical across estimation modes — estimation is
/// observational only.
#[test]
fn estimation_modes_do_not_change_results() {
    let sql = "SELECT customer.custkey, nation.name FROM customer \
               JOIN nation ON customer.nationkey = nation.nationkey \
               WHERE customer.custkey < 5000 ORDER BY custkey";
    let mut reference: Option<Vec<String>> = None;
    for mode in EstimationMode::ALL {
        let session = Session::new(skewed_catalog()).with_options(PhysicalOptions::with_mode(mode));
        let rows: Vec<String> = session
            .query(sql)
            .unwrap()
            .collect()
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        match &reference {
            None => reference = Some(rows),
            Some(expect) => assert_eq!(&rows, expect, "mode {mode:?} changed results"),
        }
    }
    assert_eq!(reference.unwrap().len(), 5000);
}

/// Once-mode join estimates must be exact as soon as the first output row
/// appears (preprocessing done), even under heavy skew where the optimizer
/// estimate is far off.
#[test]
fn once_estimates_exact_at_first_output_under_skew() {
    let session = Session::new(skewed_catalog());
    let mut q = session
        .query(
            "SELECT * FROM customer JOIN customer2 \
             ON customer.nationkey = customer2.nationkey",
        )
        .unwrap();
    let first = q.step().unwrap();
    assert!(first.is_some());
    let join_estimate = q
        .registry()
        .iter()
        .find(|(n, _)| *n == "hash_join")
        .map(|(_, m)| m.estimated_total())
        .unwrap();
    let mut count = 1u64;
    while q.step().unwrap().is_some() {
        count += 1;
    }
    assert_eq!(join_estimate, count as f64);
}

/// gnm progress: monotone non-decreasing as published, seen in flight
/// (a blocking root emits nothing until its work is done), ends at 1.0.
#[test]
fn progress_is_monotone_and_complete() {
    let session = Session::new(skewed_catalog());
    let mut q = session
        .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
        .unwrap();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    q.run(RunOptions::new().observer(move |s| sink.lock().unwrap().push(s.fraction())))
        .unwrap();
    let fractions = seen.lock().unwrap();
    let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
    assert!(inside >= 5, "{fractions:?}");
    for w in fractions.windows(2) {
        assert!(
            w[1] >= w[0] - 1e-9,
            "progress went backwards: {} → {}",
            w[0],
            w[1]
        );
    }
    assert_eq!(*fractions.last().unwrap(), 1.0);
}

/// Publication happens in the executing thread at batch boundaries, so a
/// serial run publishes the same sequence every time, and two traced runs
/// score bit-identically — no sampler decides what is seen.
#[test]
fn serial_q8_publishes_the_same_sequence_every_run() {
    let catalog = TpchGenerator::new(TpchConfig {
        scale: 0.004,
        skew: 2.0,
        seed: 88,
    })
    .catalog()
    .unwrap();
    let plan = q8_plan(&PlanBuilder::new(catalog)).unwrap();
    let opts = PhysicalOptions {
        threads: 1,
        batch_rows: 1024,
        ..PhysicalOptions::default()
    };
    let run = || {
        let ring = Arc::new(RingSink::with_capacity(1 << 16));
        let bus = EventBus::with_sink(Arc::clone(&ring) as _);
        let mut q = compile_traced(&plan, &opts, Some(bus)).unwrap();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        q.on_progress(move |s| sink.lock().unwrap().push((s.current(), s.fraction())));
        q.collect().unwrap();
        let published = std::mem::take(&mut *seen.lock().unwrap());
        (published, qprog::obs::score_events(&ring.drain()))
    };
    let (first, first_score) = run();
    let (second, second_score) = run();
    assert!(first.len() >= 10, "{first:?}");
    assert_eq!(first, second);
    assert_eq!(first_score.samples, first.len());
    assert_eq!(format!("{first_score:?}"), format!("{second_score:?}"));
}

/// Early termination (LIMIT) must still drive progress to completion.
#[test]
fn limit_terminates_progress() {
    let session = Session::new(skewed_catalog());
    let mut q = session
        .query("SELECT * FROM customer ORDER BY custkey LIMIT 5")
        .unwrap();
    let tracker = q.tracker();
    let rows = q.collect().unwrap();
    assert_eq!(rows.len(), 5);
    assert!(tracker.snapshot().is_complete());
    assert_eq!(tracker.fraction(), 1.0);
}

/// TPC-H Q8 runs identically in all modes on a small skewed database, and
/// all seven joins form a single estimation pipeline in Once mode.
#[test]
fn q8_all_modes_agree() {
    let catalog = TpchGenerator::new(TpchConfig {
        scale: 0.003,
        skew: 2.0,
        seed: 3,
    })
    .catalog()
    .unwrap();
    let mut reference: Option<Vec<String>> = None;
    for mode in EstimationMode::ALL {
        let session = Session::new(catalog.clone()).with_options(PhysicalOptions::with_mode(mode));
        let plan = q8_plan(session.builder()).unwrap();
        let rows: Vec<String> = session
            .query_plan(plan)
            .unwrap()
            .collect()
            .unwrap()
            .iter()
            .map(|r| r.to_string())
            .collect();
        match &reference {
            None => reference = Some(rows),
            Some(expect) => assert_eq!(&rows, expect, "mode {mode:?}"),
        }
    }
}

/// Merge-join plans agree with hash-join plans on results and reach exact
/// estimates before the merge emits.
#[test]
fn merge_join_agrees_with_hash_join() {
    let b = Session::new(skewed_catalog());
    let hash = b
        .builder()
        .scan("customer")
        .unwrap()
        .hash_join(
            b.builder().scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
        )
        .unwrap();
    let merge = b
        .builder()
        .scan("customer")
        .unwrap()
        .join_build(
            b.builder().scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
            qprog::plan::JoinAlgo::Merge,
        )
        .unwrap();
    let n_hash = b.query_plan(hash).unwrap().collect().unwrap().len();
    let n_merge = b.query_plan(merge).unwrap().collect().unwrap().len();
    assert_eq!(n_hash, n_merge);
    assert_eq!(n_hash, 20_000);
}

/// The sampling fraction changes scan order but never results.
#[test]
fn sampling_fraction_is_semantically_invisible() {
    for fraction in [0.0, 0.05, 0.5, 1.0] {
        let opts = PhysicalOptions {
            sample_fraction: fraction,
            ..PhysicalOptions::default()
        };
        let session = Session::new(skewed_catalog()).with_options(opts);
        let rows = session
            .query("SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey")
            .unwrap()
            .collect()
            .unwrap();
        assert_eq!(rows[0].get(0).unwrap().as_i64().unwrap(), 20_000);
    }
}

/// Samples a query's tracker from inside the executing thread, once per
/// trace event, so the series is the same on every run (no sampler thread
/// to race the query).
#[derive(Default)]
struct InlineSampler {
    tracker: OnceLock<ProgressTracker>,
    state: Mutex<SamplerState>,
}

#[derive(Default)]
struct SamplerState {
    /// Joins an online estimator has published an estimate for.
    refined: BTreeSet<usize>,
    samples: Vec<Sample>,
}

struct Sample {
    /// `refined.len()` when the sample was taken.
    refined_ops: usize,
    /// `C(Q)`, the published fraction and `T(Q)`.
    current: u64,
    fraction: f64,
    total: f64,
    /// `Σ estimated_total()` over started or refined operators.
    own_total: f64,
}

impl TraceSink for InlineSampler {
    fn publish(&self, event: &TraceEvent) {
        let Some(tracker) = self.tracker.get() else {
            return; // compile-time optimizer estimates
        };
        let mut state = self.state.lock().unwrap();
        if let TraceEventKind::EstimateRefined {
            op,
            source: EstimateSource::Online,
            ..
        } = event.kind
        {
            let name = tracker
                .registry()
                .iter()
                .nth(op as usize)
                .map(|(name, _)| name);
            if name.is_some_and(|n| n.contains("join")) {
                state.refined.insert(op as usize);
            }
        }
        let snap = tracker.snapshot();
        let own_total = tracker
            .registry()
            .iter()
            .enumerate()
            .filter(|(i, (_, m))| {
                let started = m.is_finished() || m.emitted() > 0 || m.driver_consumed() > 0;
                started || state.refined.contains(i)
            })
            .map(|(_, (_, m))| m.estimated_total())
            .sum();
        let sample = Sample {
            refined_ops: state.refined.len(),
            current: snap.current(),
            fraction: snap.fraction(),
            total: snap.total(),
            own_total,
        };
        state.samples.push(sample);
    }
}

/// Run `plan` in `mode` under an [`InlineSampler`]; returns the samples
/// and the work-weighted mean `|fraction − C/C_final|` over them.
fn sampled_run(session: &Session, plan: LogicalPlan, mode: EstimationMode) -> (Vec<Sample>, f64) {
    let sampler = Arc::new(InlineSampler::default());
    let bus = EventBus::builder().sink(Arc::clone(&sampler) as _).build();
    let opts = PhysicalOptions {
        mode,
        ..*session.options()
    };
    let mut q = compile_traced(&plan, &opts, Some(bus)).unwrap();
    sampler.tracker.set(q.tracker()).unwrap();
    q.collect().unwrap();
    let final_c = q.tracker().snapshot().current() as f64;
    let samples = std::mem::take(&mut sampler.state.lock().unwrap().samples);
    let mean_abs_err = samples
        .windows(2)
        .map(|w| {
            let err = (w[0].fraction - w[0].current as f64 / final_c).abs();
            err * (w[1].current - w[0].current) as f64 / final_c
        })
        .sum();
    (samples, mean_abs_err)
}

/// ROADMAP 1(a): the published total must use the estimates the online
/// framework has published, from the moment it publishes them — not the
/// optimizer's guess until the probe/sort pass ends.
#[test]
fn published_total_follows_refined_estimates_during_the_probe_pass() {
    let tpch = TpchGenerator::new(TpchConfig {
        scale: 0.003,
        skew: 2.0,
        seed: 3,
    })
    .catalog()
    .unwrap();
    let q8 = Session::new(tpch);
    let merge = Session::new(skewed_catalog());
    let merge_chain = |b: &PlanBuilder| {
        b.scan("customer")
            .unwrap()
            .join_build(
                b.scan("customer2").unwrap(),
                "customer2.nationkey",
                "customer.nationkey",
                qprog::plan::JoinAlgo::Merge,
            )
            .unwrap()
            .join_build(
                b.scan("nation").unwrap(),
                "nation.nationkey",
                "customer.nationkey",
                qprog::plan::JoinAlgo::Merge,
            )
            .unwrap()
    };
    for (name, session, plan) in [
        ("q8", &q8, q8_plan(q8.builder()).unwrap()),
        ("merge chain", &merge, merge_chain(merge.builder())),
    ] {
        let (samples, once_err) = sampled_run(session, plan.clone(), EstimationMode::Once);
        // The pass proper: every join the framework refines has published.
        let refined_ops = samples.last().unwrap().refined_ops;
        let pass: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.refined_ops == refined_ops)
            .collect();
        assert!(
            refined_ops >= 2 && pass.len() > 20,
            "{name}: {refined_ops} ops, {} samples",
            pass.len()
        );
        for s in pass {
            assert!(
                (s.total - s.own_total).abs() <= 0.02 * s.total,
                "{name}: at C = {} the published total {} ignores the refined \
                 estimates (Σ = {})",
                s.current,
                s.total,
                s.own_total
            );
        }
        let (_, dne_err) = sampled_run(session, plan, EstimationMode::Dne);
        assert!(
            once_err < 0.5 * dne_err,
            "{name}: once mean |err| {once_err:.4} vs dne {dne_err:.4}"
        );
    }
}
