//! Accuracy claims from the paper, checked at test scale: the `once`
//! estimator converges within the probe sample, the baselines do not, and
//! the estimator chooser tracks skew.

use std::sync::Arc;

use qprog::core::baseline::Baseline;
use qprog::core::chooser::EstimatorChoice;
use qprog::core::distinct::DistinctTracker;
use qprog::core::freq_hist::FreqHist;
use qprog::core::join_est::OnceJoinEstimator;
use qprog_types::Key;

fn keys_of(table: &qprog_storage::Table, col: usize) -> Vec<Key> {
    table
        .iter()
        .map(|r| r.key(col).expect("int column"))
        .collect()
}

fn exact_join(r: &[Key], s: &[Key]) -> u64 {
    let mut hist = FreqHist::new();
    for k in r {
        hist.observe(k);
    }
    s.iter().map(|k| hist.count(k)).sum()
}

/// Ratio error of `once` reaches ~1 within a 10% probe prefix on skewed
/// data with mismatched hot values (the Fig. 3 claim).
#[test]
fn once_ratio_error_converges_within_sample() {
    for z in [0.0, 1.0, 2.0] {
        let r = keys_of(&qprog::datagen::customer_table("a", 30_000, z, 2_000, 1), 1);
        let s = keys_of(&qprog::datagen::customer_table("b", 30_000, z, 2_000, 2), 1);
        let truth = exact_join(&r, &s) as f64;
        let mut est = OnceJoinEstimator::from_build_keys(r.iter(), s.len() as u64);
        for k in s.iter().take(3_000) {
            est.observe_probe(k);
        }
        let ratio = est.estimate() / truth;
        assert!(
            (0.75..=1.25).contains(&ratio),
            "z={z}: ratio error {ratio} after 10% of probe"
        );
        for k in s.iter().skip(3_000) {
            est.observe_probe(k);
        }
        assert_eq!(est.estimate(), truth, "z={z}: exact at convergence");
    }
}

/// With output clustered by value (as hash partitioning produces), dne's
/// trajectory is far less stable than once's (the Fig. 4 claim).
#[test]
fn dne_unstable_on_clustered_output_once_is_not() {
    let z = 1.5;
    let r = keys_of(&qprog::datagen::customer_table("a", 20_000, z, 1_000, 1), 1);
    let s = keys_of(&qprog::datagen::customer_table("b", 20_000, z, 1_000, 2), 1);
    let truth = exact_join(&r, &s) as f64;

    // once: observes the probe stream in (random) generation order.
    let mut once = OnceJoinEstimator::from_build_keys(r.iter(), s.len() as u64);
    let mut once_worst_late_ratio = 1.0f64;
    for (i, k) in s.iter().enumerate() {
        once.observe_probe(k);
        if i >= 2_000 {
            let ratio = once.estimate() / truth;
            once_worst_late_ratio = once_worst_late_ratio.max(ratio.max(1.0 / ratio));
        }
    }

    // dne: observes the join's *output*, clustered by value (simulate by
    // sorting the probe stream — what partition-wise joining effectively
    // does to value order).
    let mut hist = FreqHist::new();
    for k in &r {
        hist.observe(k);
    }
    let mut clustered = s.clone();
    clustered.sort_by_key(|k| match k {
        Key::Int(i) => *i,
        _ => 0,
    });
    let dne = Baseline::dne(s.len() as u64, truth / 13.0);
    let mut dne_worst_late_ratio = 1.0f64;
    let mut output_seen = 0;
    for (i, k) in clustered.iter().enumerate() {
        output_seen += hist.count(k);
        if i >= 2_000 && i < clustered.len() - 100 {
            let ratio = dne.estimate(output_seen, i as u64 + 1) / truth;
            dne_worst_late_ratio = dne_worst_late_ratio.max(ratio.max(1.0 / ratio));
        }
    }
    assert!(
        dne_worst_late_ratio > 1.3 * once_worst_late_ratio,
        "dne worst {dne_worst_late_ratio} vs once worst {once_worst_late_ratio}"
    );
    assert!(once_worst_late_ratio < 1.5);
    // and once finishes exact, unlike dne mid-flight
    assert_eq!(once.estimate(), truth);
}

/// byte stays anchored to a bad optimizer estimate far longer than once
/// (the Fig. 4 "converges slowly" claim).
#[test]
fn byte_converges_slowly_from_bad_optimizer_estimate() {
    let truth = 100_000.0f64;
    let optimizer = truth / 13.0; // the paper's observed 13× error
    let n = 10_000u64;
    let byte = Baseline::byte(n, optimizer);
    // Output arrives uniformly. Halfway through, byte should still be
    // pulled toward the optimizer.
    let mid = byte.estimate((truth / 2.0) as u64, n / 2);
    assert!(
        mid < 0.8 * truth,
        "byte at 50% should still underestimate: {mid} vs {truth}"
    );
    let end = byte.estimate(truth as u64, n);
    assert!((end / truth - 1.0).abs() < 0.05, "end {end}");
}

/// γ² chooser: MLE on low skew, GEE on high skew, and the chosen estimate
/// beats the rejected one on its home turf (the Table 1 claim).
#[test]
fn chooser_picks_the_better_estimator_per_skew() {
    let rows = 50_000usize;
    let domain = 5_000usize;
    for (z, expect) in [(0.0, EstimatorChoice::Mle), (2.0, EstimatorChoice::Gee)] {
        let table = qprog::datagen::customer_table("c", rows, z, domain, 1);
        let keys = keys_of(&table, 1);
        let truth = {
            let mut h = FreqHist::new();
            for k in &keys {
                h.observe(k);
            }
            h.distinct() as f64
        };
        let mut tracker = DistinctTracker::new(rows as u64);
        for k in keys.iter().take(rows / 10) {
            tracker.observe(k);
        }
        assert_eq!(tracker.choice(), expect, "z={z}");
        let chosen_err = (tracker.estimate() - truth).abs() / truth;
        let other = match expect {
            EstimatorChoice::Mle => tracker.gee_estimate(),
            EstimatorChoice::Gee => tracker.mle_estimate_fresh(),
        };
        let other_err = (other - truth).abs() / truth;
        assert!(
            chosen_err <= other_err + 0.05,
            "z={z}: chosen err {chosen_err:.3} vs other {other_err:.3} (truth {truth})"
        );
    }
}

/// Aggregation push-down: the tracker fed by a join's probe pass reaches
/// the exact distinct count of the join output before the aggregate runs.
#[test]
fn agg_pushdown_tracker_is_exact_after_probe_pass() {
    use qprog_exec::metrics::OpMetrics;
    use qprog_exec::ops::{BoxedOp, RowSource, TableScan};
    use qprog_exec::ops::{HashJoin, JoinEstimation};

    let r = qprog::datagen::customer_table("r", 5_000, 1.0, 400, 1).into_shared();
    let s = qprog::datagen::customer_table("s", 5_000, 1.0, 400, 2).into_shared();
    // exact distinct join keys of the output
    let r_keys = keys_of(&r, 1);
    let s_keys = keys_of(&s, 1);
    let mut hist = FreqHist::new();
    for k in &r_keys {
        hist.observe(k);
    }
    let expected_groups = {
        let mut set = std::collections::HashSet::new();
        for k in &s_keys {
            if hist.count(k) > 0 {
                set.insert(k.clone());
            }
        }
        set.len() as u64
    };

    let scan = |t: &Arc<qprog_storage::Table>| -> BoxedOp {
        Box::new(TableScan::new(
            Arc::clone(t),
            OpMetrics::with_initial_estimate(0.0),
        ))
    };
    let (to_agg, inbox) = std::sync::mpsc::channel();
    let m = OpMetrics::with_initial_estimate(0.0);
    let mut join = HashJoin::new(
        scan(&r),
        scan(&s),
        1,
        1,
        JoinEstimation::once(1, 1, 5_000, Arc::clone(&m)),
        m,
    )
    .with_agg_pushdown(DistinctTracker::new(100), to_agg);
    // pull one row: preprocessing has completed and sent the tracker up
    assert!(RowSource::new(&mut join).next_row().unwrap().is_some());
    let tracker = inbox.try_recv().unwrap();
    assert_eq!(tracker.groups_seen(), expected_groups);
    assert_eq!(tracker.estimate(), expected_groups as f64);
}
