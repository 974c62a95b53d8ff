//! Randomized invariants on the core data structures and estimators,
//! cross-checked against brute-force models.
//!
//! Formerly property-based via `proptest`; now driven by the vendored
//! deterministic PRNG so the workspace builds with no external crates.
//! Each property runs over many seeded random cases, including the empty
//! and size-one edges proptest used to shrink towards.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use qprog::core::freq_hist::FreqHist;
use qprog::core::gee::Gee;
use qprog::core::gnm::{PipelineProgress, ProgressSnapshot};
use qprog::core::join_est::OnceJoinEstimator;
use qprog::core::mle::mle_estimate;
use qprog::core::pipeline_est::{AttrSource, JoinSpec, PipelineEstimator};
use qprog_types::{DataType, Key, Row, RowBatch, Value};

#[path = "support/multi_est.rs"]
mod multi_est;
#[path = "support/symmetric.rs"]
mod symmetric;
use symmetric::SymmetricJoinEstimator;

const CASES: u64 = 64;

/// A random vector with length drawn from `0..=max_len` (always exercising
/// the empty and singleton edges in the first two cases) and values drawn
/// from `lo..hi`.
fn rand_vec(rng: &mut StdRng, case: u64, max_len: usize, lo: i64, hi: i64) -> Vec<i64> {
    let len = match case {
        0 => 0,
        1 => 1,
        _ => rng.random_range(0..=max_len),
    };
    (0..len).map(|_| rng.random_range(lo..hi)).collect()
}

fn keys(vals: &[i64]) -> Vec<Key> {
    vals.iter().map(|&v| Key::Int(v)).collect()
}

fn exact_join(r: &[i64], s: &[i64]) -> u64 {
    r.iter()
        .map(|a| s.iter().filter(|&&b| b == *a).count() as u64)
        .sum()
}

/// FreqHist's incrementally maintained aggregates always match direct
/// recomputation from the raw counts.
#[test]
fn freq_hist_aggregates_consistent() {
    let mut rng = StdRng::seed_from_u64(0xf4e9);
    for case in 0..CASES {
        let vals = rand_vec(&mut rng, case, 300, -20, 20);
        let mut h = FreqHist::new();
        for k in keys(&vals) {
            h.observe(&k);
        }
        let direct_counts: std::collections::HashMap<i64, u64> =
            vals.iter()
                .fold(std::collections::HashMap::new(), |mut m, &v| {
                    *m.entry(v).or_default() += 1;
                    m
                });
        assert_eq!(h.total(), vals.len() as u64);
        assert_eq!(h.distinct(), direct_counts.len() as u64);
        let direct_sum_sq: u128 = direct_counts
            .values()
            .map(|&c| (c as u128) * (c as u128))
            .sum();
        assert_eq!(h.sum_squared_counts(), direct_sum_sq);
        let direct_singletons = direct_counts.values().filter(|&&c| c == 1).count() as u64;
        assert_eq!(h.singletons(), direct_singletons);
        // frequency classes partition the distinct values and weight to t
        let d: u64 = h.frequency_classes().map(|(_, f)| f).sum();
        let t: u64 = h.frequency_classes().map(|(j, f)| j * f).sum();
        assert_eq!(d, h.distinct());
        assert_eq!(t, h.total());
        assert!(h.gamma_squared() >= 0.0);
    }
}

/// `Σ f_j = d` and `Σ j·f_j = t` hold at every step while counts climb
/// through the limit between `f_j`'s dense lane and its overflow map, one
/// at a time and in weighted jumps over it.
#[test]
fn freq_hist_profile_invariants_across_the_class_lane_boundary() {
    let mut rng = StdRng::seed_from_u64(0xc1a55);
    let mut h = FreqHist::new();
    let mut counts = std::collections::HashMap::<i64, u64>::new();
    for step in 0..6000 {
        // Key 0 climbs by one per step; keys 1..5 jump by up to 3000.
        let (key, n) = match step % 4 {
            0 => (rng.random_range(1..5), rng.random_range(1..3000)),
            _ => (0, 1),
        };
        let before = h.observe_n(&Key::Int(key), n);
        let count = counts.entry(key).or_insert(0);
        assert_eq!(before, *count);
        *count += n;
        let d: u64 = h.frequency_classes().map(|(_, f)| f).sum();
        let t: u64 = h.frequency_classes().map(|(j, f)| j * f).sum();
        assert_eq!(d, h.distinct());
        assert_eq!(t, h.total());
        assert!(h
            .frequency_classes()
            .all(|(j, f)| f > 0 && f == counts.values().filter(|&&c| c == j).count() as u64));
    }
    assert!(counts[&0] > 4096 && h.max_frequency() > 100_000);
    assert_eq!(h.distinct(), counts.len() as u64);
}

/// The once estimator is exact once the probe stream is exhausted, for any
/// pair of key vectors and any probe order.
#[test]
fn once_join_exact_at_convergence() {
    let mut rng = StdRng::seed_from_u64(0x01ce);
    for case in 0..CASES {
        let r = rand_vec(&mut rng, case, 120, -10, 10);
        let s = rand_vec(&mut rng, case, 120, -10, 10);
        let build = keys(&r);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), s.len() as u64);
        for k in keys(&s) {
            est.observe_probe(&k);
        }
        assert!(est.converged());
        assert_eq!(est.estimate().round() as u64, exact_join(&r, &s));
    }
}

/// Partial once estimates are always non-negative and scale linearly with
/// the assumed probe size.
#[test]
fn once_join_scaling() {
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    for case in 0..CASES {
        let mut r = rand_vec(&mut rng, case, 50, 0, 5);
        let mut s = rand_vec(&mut rng, case, 50, 0, 5);
        if r.is_empty() {
            r.push(0);
        }
        if s.is_empty() {
            s.push(0);
        }
        let probe_size = rng.random_range(1u64..10_000);
        let build = keys(&r);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), probe_size);
        for k in keys(&s) {
            est.observe_probe(&k);
        }
        let e1 = est.estimate();
        est.set_probe_size(probe_size * 2);
        let e2 = est.estimate();
        assert!(e1 >= 0.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-6 * (1.0 + e1));
    }
}

/// The symmetric estimator agrees with brute force at full observation.
#[test]
fn symmetric_join_exact_at_convergence() {
    let mut rng = StdRng::seed_from_u64(0x53);
    for case in 0..CASES {
        let r = rand_vec(&mut rng, case, 80, -5, 5);
        let s = rand_vec(&mut rng, case, 80, -5, 5);
        let mut est = SymmetricJoinEstimator::new(r.len() as u64, s.len() as u64);
        for k in keys(&r) {
            est.observe_r(&k);
        }
        for k in keys(&s) {
            est.observe_s(&k);
        }
        assert!(est.converged());
        assert_eq!(est.estimate().round() as u64, exact_join(&r, &s));
    }
}

/// GEE and MLE never report fewer groups than observed, and both are exact
/// when the sample is the whole input.
#[test]
fn distinct_estimators_bounds() {
    let mut rng = StdRng::seed_from_u64(0xd157);
    for case in 0..CASES {
        let mut vals = rand_vec(&mut rng, case, 400, 0, 40);
        if vals.is_empty() {
            vals.push(0);
        }
        let mut h = FreqHist::new();
        let mut gee = Gee::new(vals.len() as u64);
        for k in keys(&vals) {
            let prior = h.observe(&k);
            gee.observe_transition(prior);
        }
        let d = h.distinct() as f64;
        assert!((gee.estimate() - d).abs() < 1e-9);
        assert!((mle_estimate(&h, vals.len() as u64) - d).abs() < 1e-9);
        // On a half-size claim of the input, estimates are ≥ observed.
        let bigger = vals.len() as u64 * 2;
        gee.set_input_size(bigger);
        assert!(gee.estimate() >= d - 1e-9);
        assert!(mle_estimate(&h, bigger) >= d - 1e-9);
    }
}

/// gnm fractions are always within [0, 1] no matter how wrong the
/// estimates are.
#[test]
fn gnm_fraction_bounded() {
    let mut rng = StdRng::seed_from_u64(0xf2ac);
    for case in 0..CASES {
        let n = match case {
            0 => 0,
            1 => 1,
            _ => rng.random_range(0..8usize),
        };
        let pipelines = (0..n)
            .map(|i| {
                let done = rng.random_range(0u64..1000);
                let est = rng.random_f64() * 2000.0;
                PipelineProgress::running(i, done, est)
            })
            .collect();
        let snap = ProgressSnapshot::new(pipelines);
        let f = snap.fraction();
        assert!((0.0..=1.0).contains(&f), "fraction {f} out of range");
    }
}

/// Pipeline estimator (2-join same-attribute) agrees with brute force at
/// convergence for arbitrary key data.
#[test]
fn pipeline_two_join_exact() {
    let mut rng = StdRng::seed_from_u64(0x2101);
    for case in 0..CASES {
        let b0 = rand_vec(&mut rng, case, 40, 0, 6);
        let b1 = rand_vec(&mut rng, case.wrapping_add(2), 40, 0, 6);
        let c = rand_vec(&mut rng, case.wrapping_add(3), 40, 0, 6);
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            };
            2
        ];
        let mut est = PipelineEstimator::new(specs, c.len() as u64).unwrap();
        let to_rows = |vals: &[i64]| -> Vec<Row> {
            vals.iter()
                .map(|&v| Row::new(vec![Value::Int64(v)]))
                .collect()
        };
        est.feed_build(1, to_rows(&b1).iter()).unwrap();
        est.feed_build(0, to_rows(&b0).iter()).unwrap();
        for row in to_rows(&c) {
            est.observe_probe(&row).unwrap();
        }
        // brute force
        let lower: u64 = c
            .iter()
            .map(|x| b0.iter().filter(|&&v| v == *x).count() as u64)
            .sum();
        let upper: u64 = c
            .iter()
            .map(|x| {
                (b0.iter().filter(|&&v| v == *x).count() * b1.iter().filter(|&&v| v == *x).count())
                    as u64
            })
            .sum();
        assert_eq!(est.estimate(0).round() as u64, lower);
        assert_eq!(est.estimate(1).round() as u64, upper);
    }
}

/// Adaptive interval: the recomputation interval always stays within its
/// configured bounds.
#[test]
fn adaptive_interval_bounds() {
    use qprog::core::interval::AdaptiveInterval;
    let mut rng = StdRng::seed_from_u64(0xad1);
    for case in 0..CASES {
        let l = rng.random_range(1u64..50);
        let u = l + rng.random_range(0u64..100);
        let mut ai = AdaptiveInterval::new(l, u, 0.05);
        let rounds = match case {
            0 => 0,
            _ => rng.random_range(0..50usize),
        };
        for _ in 0..rounds {
            let old = rng.random_f64() * 100.0;
            let new = rng.random_f64() * 100.0;
            ai.feedback(old, new);
            assert!(ai.current_interval() >= l);
            assert!(ai.current_interval() <= u);
        }
    }
}

/// Join algorithm agreement on random data: hash, merge and nested-loops
/// joins must produce identical result multisets.
#[test]
fn join_algorithms_agree_on_random_data() {
    use qprog::plan::physical::{compile, PhysicalOptions};
    use qprog::plan::JoinAlgo;
    use qprog::prelude::*;

    for seed in 0..5u64 {
        let mut catalog = Catalog::new();
        catalog
            .register(qprog::datagen::customer_table("left", 800, 1.0, 60, seed))
            .unwrap();
        catalog
            .register(qprog::datagen::customer_table(
                "right",
                700,
                1.0,
                60,
                seed + 100,
            ))
            .unwrap();
        let builder = qprog::plan::PlanBuilder::new(catalog);
        let mut counts = Vec::new();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::NestedLoops] {
            let plan = builder
                .scan("right")
                .unwrap()
                .join_build(
                    builder.scan("left").unwrap(),
                    "left.nationkey",
                    "right.nationkey",
                    algo,
                )
                .unwrap();
            let mut q = compile(&plan, &PhysicalOptions::default()).unwrap();
            let mut rows: Vec<String> =
                q.collect().unwrap().iter().map(|r| r.to_string()).collect();
            rows.sort();
            counts.push(rows);
        }
        assert_eq!(counts[0], counts[1], "hash vs merge, seed {seed}");
        assert_eq!(counts[0], counts[2], "hash vs nl, seed {seed}");
    }
}

/// All four join kinds agree with brute force at probe exhaustion, for
/// arbitrary key vectors.
#[test]
fn join_kinds_exact_at_convergence() {
    use qprog::core::join_est::JoinKind;
    let mut rng = StdRng::seed_from_u64(0x1c1d);
    for case in 0..CASES {
        let r = rand_vec(&mut rng, case, 60, -6, 6);
        let s = rand_vec(&mut rng, case, 60, -6, 6);
        let multiplicity = |x: i64| r.iter().filter(|&&v| v == x).count() as u64;
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let truth: u64 = s.iter().map(|&x| kind.contribution(multiplicity(x))).sum();
            let build = keys(&r);
            let hist: FreqHist = build.iter().collect();
            let mut est = OnceJoinEstimator::with_kind(hist, s.len() as u64, kind);
            for k in keys(&s) {
                est.observe_probe(&k);
            }
            assert_eq!(est.estimate().round() as u64, truth, "{kind:?}");
        }
    }
}

/// Pipeline estimator, Case 2 (derived histograms), agrees with brute force
/// at convergence for arbitrary two-column build data.
#[test]
fn pipeline_case2_exact() {
    let mut rng = StdRng::seed_from_u64(0xca5e2);
    for case in 0..CASES {
        let b0: Vec<(i64, i64)> = {
            let xs = rand_vec(&mut rng, case, 30, 0, 5);
            xs.iter().map(|&x| (x, rng.random_range(0i64..5))).collect()
        };
        let b1 = rand_vec(&mut rng, case.wrapping_add(2), 30, 0, 5);
        let c = rand_vec(&mut rng, case.wrapping_add(3), 30, 0, 5);
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 1 },
            },
        ];
        let mut est = PipelineEstimator::new(specs, c.len() as u64).unwrap();
        let b0_rows: Vec<Row> = b0
            .iter()
            .map(|&(x, y)| Row::new(vec![Value::Int64(x), Value::Int64(y)]))
            .collect();
        let b1_rows: Vec<Row> = b1
            .iter()
            .map(|&y| Row::new(vec![Value::Int64(y)]))
            .collect();
        est.feed_build(1, b1_rows.iter()).unwrap();
        est.feed_build(0, b0_rows.iter()).unwrap();
        for &x in &c {
            est.observe_probe(&Row::new(vec![Value::Int64(x)])).unwrap();
        }
        let lower: u64 = c
            .iter()
            .map(|&x| b0.iter().filter(|&&(bx, _)| bx == x).count() as u64)
            .sum();
        let upper: u64 = c
            .iter()
            .map(|&x| {
                b0.iter()
                    .filter(|&&(bx, _)| bx == x)
                    .map(|&(_, by)| b1.iter().filter(|&&v| v == by).count() as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(est.estimate(0).round() as u64, lower);
        assert_eq!(est.estimate(1).round() as u64, upper);
    }
}

/// `observe_n` is equivalent to repeated `observe` for every aggregate the
/// histogram maintains.
#[test]
fn freq_hist_observe_n_equivalence() {
    let mut rng = StdRng::seed_from_u64(0x0b5e);
    for case in 0..CASES {
        let n_batches = match case {
            0 => 0,
            _ => rng.random_range(0..60usize),
        };
        let batches: Vec<(i64, u64)> = (0..n_batches)
            .map(|_| (rng.random_range(0i64..10), rng.random_range(1u64..6)))
            .collect();
        let mut bulk = FreqHist::new();
        let mut single = FreqHist::new();
        for &(v, n) in &batches {
            bulk.observe_n(&Key::Int(v), n);
            for _ in 0..n {
                single.observe(&Key::Int(v));
            }
        }
        assert_eq!(bulk.total(), single.total());
        assert_eq!(bulk.distinct(), single.distinct());
        assert_eq!(bulk.sum_squared_counts(), single.sum_squared_counts());
        assert_eq!(bulk.max_frequency(), single.max_frequency());
        let sorted = |h: &FreqHist| {
            let mut v: Vec<_> = h.frequency_classes().collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&bulk), sorted(&single));
    }
}

/// The disjunction estimator equals brute force for arbitrary pairs.
#[test]
fn disjunction_estimator_exact() {
    use multi_est::DisjunctionJoinEstimator;
    let mut rng = StdRng::seed_from_u64(0xd15);
    for case in 0..CASES {
        let pairs = |rng: &mut StdRng, case: u64| -> Vec<(i64, i64)> {
            let len = match case {
                0 => 0,
                1 => 1,
                _ => rng.random_range(0..40usize),
            };
            (0..len)
                .map(|_| (rng.random_range(0i64..6), rng.random_range(0i64..6)))
                .collect()
        };
        let build = pairs(&mut rng, case);
        let probe = pairs(&mut rng, case);
        let bp: Vec<(Key, Key)> = build
            .iter()
            .map(|&(a, b)| (Key::Int(a), Key::Int(b)))
            .collect();
        let mut est = DisjunctionJoinEstimator::from_build_pairs(
            bp.iter().map(|(a, b)| (a, b)),
            probe.len() as u64,
        );
        for &(x, y) in &probe {
            est.observe_probe(&Key::Int(x), &Key::Int(y));
        }
        let truth: u64 = probe
            .iter()
            .map(|&(x, y)| build.iter().filter(|&&(a, b)| a == x || b == y).count() as u64)
            .sum();
        assert_eq!(est.estimate().round() as u64, truth);
    }
}

// ---- Kernel equivalence: the batch kernels against their one-row wrappers ----

/// How a join attribute's small value indices become keys: `Dense` stays
/// on the histogram's array lane, the others force the hash lane (strings,
/// an integer span wider than 2^20 slots, or both kinds in one column).
#[derive(Clone, Copy)]
enum Domain {
    Dense,
    Str,
    Wide,
    Mixed,
}

const DOMAINS: [Domain; 4] = [Domain::Dense, Domain::Str, Domain::Wide, Domain::Mixed];

impl Domain {
    fn value(self, i: i64) -> Value {
        match self {
            Domain::Dense => Value::Int64(i - 3),
            Domain::Str => Value::str(format!("k{i}")),
            Domain::Wide => Value::Int64((i - 3) << 21),
            Domain::Mixed if i % 2 == 0 => Value::Int64(i),
            Domain::Mixed => Value::str(format!("k{i}")),
        }
    }

    fn pick(rng: &mut StdRng) -> Domain {
        DOMAINS[rng.random_range(0..DOMAINS.len())]
    }

    /// One key in eight is NULL; the rest are drawn from 8 values.
    fn random(self, rng: &mut StdRng) -> Value {
        if rng.random_range(0..8) == 0 {
            Value::Null
        } else {
            self.value(rng.random_range(0i64..8))
        }
    }
}

/// One one-column row per value.
fn one_column(values: &[Value]) -> Vec<Row> {
    values.iter().map(|v| Row::new(vec![v.clone()])).collect()
}

/// Rows to batches of typed lanes, in order, cut wherever a column's type
/// changes (NULL fits every lane): a column mixing types is no one lane.
fn to_batches(rows: &[Row]) -> Vec<RowBatch> {
    let mut runs: Vec<(Vec<DataType>, Vec<Row>)> = Vec::new();
    for r in rows {
        let types = r.values().iter().map(Value::data_type);
        let fits = |run: &[DataType]| {
            run.iter()
                .zip(types.clone())
                .all(|(&a, b)| a == b || a == DataType::Null || b == DataType::Null)
        };
        match runs.last_mut().filter(|(run, _)| fits(run)) {
            Some((run, rows)) => {
                for (a, b) in run.iter_mut().zip(types) {
                    if *a == DataType::Null {
                        *a = b;
                    }
                }
                rows.push(r.clone());
            }
            None => runs.push((types.collect(), vec![r.clone()])),
        }
    }
    runs.into_iter()
        .map(|(types, rows)| {
            let mut batch = RowBatch::with_capacity(types, rows.len());
            for r in rows {
                batch.push_drain(&mut r.into_values()).unwrap();
            }
            batch
        })
        .collect()
}

/// Drive a pipeline estimator over `builds` (bottom-up) and `probe`, row by
/// row through the wrappers (`split == 0`) or in batches of `split` rows.
fn drive_pipeline(
    specs: &[JoinSpec],
    builds: &[Vec<Row>],
    probe: &[Row],
    probe_size: u64,
    split: usize,
) -> qprog_types::QResult<PipelineEstimator> {
    let mut est = PipelineEstimator::new(specs.to_vec(), probe_size)?;
    for (j, rows) in builds.iter().enumerate().rev() {
        est.begin_build(j)?;
        if split == 0 {
            rows.iter().try_for_each(|r| est.build_tuple(j, r))?;
        } else {
            for chunk in rows.chunks(split) {
                for batch in to_batches(chunk) {
                    est.build_batch(j, &batch)?;
                }
            }
        }
        est.end_build(j)?;
    }
    if split == 0 {
        probe.iter().try_for_each(|r| est.observe_probe(r))?;
    } else {
        for chunk in probe.chunks(split) {
            for batch in to_batches(chunk) {
                est.observe_probe_batch(&batch)?;
            }
        }
    }
    Ok(est)
}

/// Everything a histogram exposes, in a comparable (and printable) form.
fn hist_contents(h: &FreqHist) -> String {
    let mut pairs: Vec<_> = h.iter().map(|(k, c)| (format!("{k:?}"), c)).collect();
    pairs.sort();
    let mut classes: Vec<_> = h.frequency_classes().collect();
    classes.sort_unstable();
    format!(
        "{pairs:?} f_j {classes:?} t {} d {} M {} sum_sq {}",
        h.total(),
        h.distinct(),
        h.max_frequency(),
        h.sum_squared_counts()
    )
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!(
        a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()),
        "{what}: {a} vs {b}"
    );
}

fn assert_same_pipeline(rows: &PipelineEstimator, batches: &PipelineEstimator, what: &str) {
    assert_eq!(rows.probe_seen(), batches.probe_seen(), "{what}");
    let bits = |e: &PipelineEstimator| {
        e.estimates()
            .into_iter()
            .map(f64::to_bits)
            .collect::<Vec<_>>()
    };
    assert_eq!(bits(rows), bits(batches), "{what}");
    for u in 0..rows.num_joins() {
        assert_eq!(
            hist_contents(rows.histogram(u)),
            hist_contents(batches.histogram(u)),
            "{what} join {u}"
        );
        let (a, b) = (
            rows.confidence_interval(u, 2.576),
            batches.confidence_interval(u, 2.576),
        );
        assert_close(a.lo, b.lo, what);
        assert_close(a.hi, b.hi, what);
    }
}

fn probe_spec(col: usize) -> JoinSpec {
    JoinSpec {
        build_attr_col: 0,
        probe_attr: AttrSource::Probe { col },
    }
}

fn build_spec(join: usize) -> JoinSpec {
    JoinSpec {
        build_attr_col: 0,
        probe_attr: AttrSource::Build { join, col: 1 },
    }
}

/// The pipeline shapes of §4.1.4: same attribute, Case 1, Case 2, a
/// two-level cascade, and a cascade under a Case-1 join.
fn pipeline_shapes() -> Vec<Vec<JoinSpec>> {
    vec![
        vec![probe_spec(0); 3],
        vec![probe_spec(0), probe_spec(1)],
        vec![probe_spec(0), build_spec(0)],
        vec![probe_spec(0), build_spec(0), build_spec(1)],
        vec![probe_spec(1), build_spec(0), probe_spec(0), build_spec(2)],
    ]
}

/// Feeding a pipeline in batches of any size leaves the estimator exactly
/// where feeding it row by row does: estimates bit for bit, histograms
/// value for value, confidence intervals to rounding.
#[test]
fn pipeline_batch_kernels_match_row_wrappers() {
    let mut rng = StdRng::seed_from_u64(0xba7c4);
    let shapes = pipeline_shapes();
    for case in 0..CASES {
        let specs = &shapes[case as usize % shapes.len()];
        // One domain per join attribute; joins probing the same probe
        // column share it, so keys actually meet.
        let probe_domains = [Domain::pick(&mut rng), Domain::pick(&mut rng)];
        let attr: Vec<Domain> = specs
            .iter()
            .map(|s| match s.probe_attr {
                AttrSource::Probe { col } => probe_domains[col],
                AttrSource::Build { .. } => Domain::pick(&mut rng),
            })
            .collect();
        // Build j = (own key, the key carried for the join sourced from it).
        let builds: Vec<Vec<Row>> = (0..specs.len())
            .map(|j| {
                let carried = specs
                    .iter()
                    .position(
                        |s| matches!(s.probe_attr, AttrSource::Build { join, .. } if join == j),
                    )
                    .map_or(Domain::Dense, |u| attr[u]);
                let len = match case {
                    0 => 0,
                    1 => 1,
                    _ => rng.random_range(0..60usize),
                };
                (0..len)
                    .map(|_| Row::new(vec![attr[j].random(&mut rng), carried.random(&mut rng)]))
                    .collect()
            })
            .collect();
        let probe: Vec<Row> = (0..rng.random_range(0..200usize))
            .map(|_| {
                Row::new(vec![
                    probe_domains[0].random(&mut rng),
                    probe_domains[1].random(&mut rng),
                ])
            })
            .collect();
        // Twice the stream: mid-flight, so the intervals are not collapsed.
        let size = 2 * probe.len() as u64 + 1;
        let by_row = drive_pipeline(specs, &builds, &probe, size, 0).unwrap();
        for split in [1usize, 7, 1024] {
            let by_batch = drive_pipeline(specs, &builds, &probe, size, split).unwrap();
            assert_same_pipeline(&by_row, &by_batch, &format!("case {case} split {split}"));
        }
    }
}

/// Contributions beyond 64 bits: two three-level cascades of 2100-row
/// builds on one key multiply to 2100^6 ≈ 8.6e19 per probe tuple. The sum
/// is carried exactly (the sum of squares saturates) on both paths.
#[test]
fn pipeline_kernels_agree_beyond_u64_products() {
    const R: usize = 2100;
    let specs = vec![
        probe_spec(0),
        build_spec(0),
        build_spec(1),
        probe_spec(1),
        build_spec(3),
        build_spec(4),
    ];
    let one = |v: i64| Row::new(vec![Value::Int64(v), Value::Int64(v)]);
    let builds: Vec<Vec<Row>> = (0..specs.len()).map(|_| vec![one(1); R]).collect();
    let probe = vec![
        one(1),
        one(2),
        one(1),
        Row::new(vec![Value::Null, Value::Int64(1)]),
        one(1),
    ];
    let by_row = drive_pipeline(&specs, &builds, &probe, 10, 0).unwrap();
    for split in [1usize, 7, 1024] {
        let by_batch = drive_pipeline(&specs, &builds, &probe, 10, split).unwrap();
        assert_same_pipeline(&by_row, &by_batch, &format!("split {split}"));
    }
    // Three of the five probe tuples match everywhere.
    let per_match = (R as u128).pow(6);
    assert!(per_match > u64::MAX as u128);
    assert_eq!(by_row.estimate(5), (3 * per_match) as f64 / 5.0 * 10.0);
    assert_eq!(
        by_row.estimate(4),
        (3 * (R as u128).pow(5)) as f64 / 5.0 * 10.0
    );
    let ci = by_row.confidence_interval(5, 2.576);
    assert!(ci.lo <= ci.estimate && ci.estimate <= ci.hi);
}

/// A DOUBLE key column is the same typed error on both paths, build side
/// and probe side.
#[test]
fn pipeline_kernels_reject_double_keys_alike() {
    let specs = vec![probe_spec(0), build_spec(0)];
    let int = |a: i64, b: i64| Row::new(vec![Value::Int64(a), Value::Int64(b)]);
    let bad = Row::new(vec![Value::Int64(1), Value::Float64(0.5)]);
    let good_builds = vec![vec![int(1, 1), int(2, 1)], vec![int(1, 0)]];
    let bad_builds = vec![vec![int(1, 1), bad.clone()], vec![int(1, 0)]];
    let bad_probe = vec![int(1, 0), Row::new(vec![Value::Float64(1.0), Value::Null])];
    for split in [0usize, 1, 7, 1024] {
        for (builds, probe) in [(&bad_builds, &vec![int(1, 0)]), (&good_builds, &bad_probe)] {
            let err = drive_pipeline(&specs, builds, probe, 4, split).unwrap_err();
            assert_eq!(
                err,
                Key::from_value(&Value::Float64(0.0)).unwrap_err(),
                "split {split}"
            );
            assert!(matches!(err, qprog_types::QError::Type(_)));
        }
    }
}

/// The binary estimator's batch kernel against its one-key wrapper, for
/// every join kind: same multiplicities, same `(t, Σ)`, and bit-identical
/// estimates and published Welford bounds.
#[test]
fn once_batch_kernel_matches_row_wrapper() {
    use qprog::core::join_est::JoinKind;
    let mut rng = StdRng::seed_from_u64(0x0ba7c4);
    for case in 0..CASES {
        let domain = DOMAINS[case as usize % 4];
        let mut hist = FreqHist::new();
        let build: Vec<Value> = (0..rng.random_range(0..80usize))
            .map(|_| domain.random(&mut rng))
            .collect();
        for lane in to_batches(&one_column(&build)) {
            hist.observe_column(lane.col(0), 0..lane.len(), None)
                .unwrap();
        }
        let by_key: FreqHist = build
            .iter()
            .map(|v| Key::from_value(v).unwrap())
            .filter(|k| !k.is_null())
            .collect::<Vec<_>>()
            .iter()
            .collect();
        assert_eq!(hist_contents(&hist), hist_contents(&by_key), "case {case}");
        let probe: Vec<Value> = (0..rng.random_range(0..300usize))
            .map(|_| domain.random(&mut rng))
            .collect();
        let size = 2 * probe.len() as u64 + 1;
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let mut by_row = OnceJoinEstimator::with_kind(hist.clone(), size, kind);
            let mults: Vec<u64> = probe
                .iter()
                .map(|v| by_row.observe_probe(&Key::from_value(v).unwrap()))
                .collect();
            for split in [1usize, 7, 1024] {
                let mut by_batch = OnceJoinEstimator::with_kind(hist.clone(), size, kind);
                let mut seen = Vec::new();
                for chunk in probe.chunks(split) {
                    for lane in to_batches(&one_column(chunk)) {
                        let counts = by_batch.observe_probe_batch(lane.col(0), 0..lane.len());
                        seen.extend_from_slice(counts.unwrap());
                    }
                }
                let what = format!("case {case} {kind:?} split {split}");
                assert_eq!(seen, mults, "{what}");
                assert_eq!(by_batch.probe_seen(), by_row.probe_seen(), "{what}");
                assert_eq!(by_batch.matched_so_far(), by_row.matched_so_far(), "{what}");
                assert_eq!(
                    by_batch.estimate().to_bits(),
                    by_row.estimate().to_bits(),
                    "{what}"
                );
                let (a, b) = (
                    by_batch.confidence_interval(2.576),
                    by_row.confidence_interval(2.576),
                );
                assert_eq!(
                    (a.lo.to_bits(), a.hi.to_bits()),
                    (b.lo.to_bits(), b.hi.to_bits()),
                    "{what}"
                );
            }
        }
    }
    // A DOUBLE key is the typed error of the one-key path, and observes nothing.
    let mut est = OnceJoinEstimator::new(FreqHist::new(), 4);
    let keys = [Value::Float64(2.0), Value::Null];
    let lane = &to_batches(&one_column(&keys))[0];
    assert_eq!(
        est.observe_probe_batch(lane.col(0), 0..2).unwrap_err(),
        Key::from_value(&keys[0]).unwrap_err()
    );
    assert_eq!(est.probe_seen(), 0);
}
