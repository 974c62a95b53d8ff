//! Ablations of the design choices the paper motivates (DESIGN.md §6):
//!
//! 1. the incremental `D_{t+1}` update vs periodically cross-multiplying
//!    two histograms (the §4.1 "basic scheme" the paper rejects);
//! 2. Algorithm 3's adaptive MLE recomputation interval vs fixed intervals;
//! 3. the γ² chooser vs always-GEE vs always-MLE;
//! 4. estimating on every probe tuple vs every k-th tuple.

use std::time::Instant;

use qprog_bench::{banner, paper_note, print_table, time_it, write_csv, Scale};
use qprog_core::distinct::DistinctTracker;
use qprog_core::freq_hist::FreqHist;
use qprog_core::interval::AdaptiveInterval;
use qprog_core::join_est::OnceJoinEstimator;
use qprog_core::mle::mle_estimate;
use qprog_datagen::customer_table;
use qprog_types::Key;

fn nationkeys(rows: usize, z: f64, domain: usize, variant: u64) -> Vec<Key> {
    customer_table("c", rows, z, domain, variant)
        .iter()
        .map(|r| r.key(1).expect("int column"))
        .collect()
}

/// Ablation 1: per-tuple incremental update vs periodic full
/// histogram-multiply at several refresh cadences.
fn ablate_join_update(rows: usize, domain: usize) {
    println!("\n[1] incremental D_t update vs periodic histogram cross-multiply");
    let build = nationkeys(rows, 1.0, domain, 1);
    let probe = nationkeys(rows, 1.0, domain, 2);

    let (final_inc, inc_time) = time_it(|| {
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), probe.len() as u64);
        for k in &probe {
            est.observe_probe(k);
        }
        est.estimate()
    });

    let mut rows_out = vec![vec![
        "incremental (every tuple)".to_string(),
        format!("{:.1}", inc_time.as_secs_f64() * 1000.0),
        format!("{final_inc:.0}"),
    ]];
    for refresh in [100usize, 1000, 10000] {
        let (final_batch, batch_time) = time_it(|| {
            // the basic scheme: maintain a histogram on the probe side too,
            // recompute Σ N_i^R N_i^S by a full pass every `refresh` tuples
            let mut build_hist = FreqHist::new();
            for k in &build {
                build_hist.observe(k);
            }
            let mut probe_hist = FreqHist::new();
            let mut estimate = 0.0f64;
            for (i, k) in probe.iter().enumerate() {
                probe_hist.observe(k);
                if (i + 1) % refresh == 0 || i + 1 == probe.len() {
                    let t = probe_hist.total() as f64;
                    let cross: u128 = probe_hist
                        .iter()
                        .map(|(key, c)| (build_hist.count(&key) * c) as u128)
                        .sum();
                    estimate = cross as f64 / t * probe.len() as f64;
                }
            }
            estimate
        });
        rows_out.push(vec![
            format!("cross-multiply every {refresh}"),
            format!("{:.1}", batch_time.as_secs_f64() * 1000.0),
            format!("{final_batch:.0}"),
        ]);
    }
    print_table(&["strategy", "time ms", "final estimate"], &rows_out);
    write_csv(
        "ablation1_join_update",
        &["strategy", "time_ms", "final"],
        &rows_out,
    );
}

/// Ablation 2: Algorithm 3 vs fixed recomputation intervals.
fn ablate_mle_interval(rows: usize, domain: usize) {
    println!("\n[2] adaptive MLE recomputation (Algorithm 3) vs fixed intervals");
    let keys = nationkeys(rows, 0.5, domain, 1);
    let n = rows as u64;

    let run = |mut due: Box<dyn FnMut(u64) -> bool>| {
        let mut hist = FreqHist::new();
        let mut recomputes = 0u64;
        let start = Instant::now();
        let mut last = 0.0;
        for (i, k) in keys.iter().enumerate() {
            hist.observe(k);
            if due(i as u64 + 1) {
                last = mle_estimate(&hist, n);
                recomputes += 1;
            }
        }
        (recomputes, start.elapsed(), last)
    };

    let mut out = Vec::new();
    // Algorithm 3
    let mut ai = AdaptiveInterval::paper_default(n);
    let mut last_est = 0.0f64;
    let mut hist2 = FreqHist::new();
    let start = Instant::now();
    let mut recomputes = 0u64;
    for k in &keys {
        hist2.observe(k);
        if ai.tick() {
            let new = mle_estimate(&hist2, n);
            ai.feedback(last_est, new);
            last_est = new;
            recomputes += 1;
        }
    }
    out.push(vec![
        "adaptive (Algorithm 3)".to_string(),
        recomputes.to_string(),
        format!("{:.1}", start.elapsed().as_secs_f64() * 1000.0),
        format!("{last_est:.0}"),
    ]);
    for fixed in [n / 1000, n / 100, n / 10] {
        let fixed = fixed.max(1);
        let (r, d, e) = run(Box::new(move |t| t % fixed == 0));
        out.push(vec![
            format!("fixed every {fixed}"),
            r.to_string(),
            format!("{:.1}", d.as_secs_f64() * 1000.0),
            format!("{e:.0}"),
        ]);
    }
    print_table(&["policy", "recomputes", "time ms", "final estimate"], &out);
    write_csv(
        "ablation2_mle_interval",
        &["policy", "recomputes", "time_ms", "final"],
        &out,
    );
}

/// Ablation 3: chooser accuracy vs committing to one estimator.
fn ablate_chooser(rows: usize) {
    println!("\n[3] γ² chooser vs always-GEE vs always-MLE (error at a 10% sample)");
    let mut out = Vec::new();
    for &(z, domain) in &[
        (0.0, 5_000usize),
        (1.0, 5_000),
        (2.0, 5_000),
        (0.0, 200),
        (2.0, 200),
    ] {
        let keys = nationkeys(rows, z, domain, 1);
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
        let err = |e: f64| format!("{:+.1}%", (e / truth - 1.0) * 100.0);
        out.push(vec![
            format!("z={z}, domain={domain}"),
            format!("{truth:.0}"),
            tracker.choice().label().to_string(),
            err(tracker.estimate()),
            err(tracker.gee_estimate()),
            err(tracker.mle_estimate_fresh()),
        ]);
    }
    print_table(
        &[
            "config",
            "true groups",
            "chosen",
            "chooser err",
            "GEE err",
            "MLE err",
        ],
        &out,
    );
    write_csv(
        "ablation3_chooser",
        &[
            "config",
            "truth",
            "chosen",
            "chooser_err",
            "gee_err",
            "mle_err",
        ],
        &out,
    );
}

/// Ablation 4: estimate on every probe tuple vs every k-th tuple.
fn ablate_update_cadence(rows: usize, domain: usize) {
    println!("\n[4] estimation on every tuple vs every k-th tuple");
    let build = nationkeys(rows, 1.0, domain, 1);
    let probe = nationkeys(rows, 1.0, domain, 2);
    let truth: f64 = {
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), probe.len() as u64);
        for k in &probe {
            est.observe_probe(k);
        }
        est.estimate()
    };
    let mut out = Vec::new();
    for k_every in [1usize, 4, 16, 64] {
        let (est_at_10pct, d) = time_it(|| {
            let mut est = OnceJoinEstimator::from_build_keys(build.iter(), probe.len() as u64);
            let mut at_10 = 0.0;
            for (i, k) in probe.iter().enumerate() {
                if i % k_every == 0 {
                    est.observe_probe(k);
                }
                if i + 1 == probe.len() / 10 {
                    at_10 = est.estimate();
                }
            }
            at_10
        });
        out.push(vec![
            format!("every {k_every}"),
            format!("{:.1}", d.as_secs_f64() * 1000.0),
            format!("{:+.1}%", (est_at_10pct / truth - 1.0) * 100.0),
        ]);
    }
    print_table(&["cadence", "time ms", "err@10% sample"], &out);
    write_csv(
        "ablation4_cadence",
        &["cadence", "time_ms", "err_at_10pct"],
        &out,
    );
}

fn main() {
    let scale = Scale::detect();
    banner("ablation", "design-choice ablations (DESIGN.md §6)", scale);
    let rows = scale.accuracy_rows();
    let (small, _) = scale.domains();
    ablate_join_update(rows, small);
    ablate_mle_interval(rows, small);
    ablate_chooser(rows);
    ablate_update_cadence(rows, small);
    paper_note(&[
        "incremental per-tuple updates cost no more than coarse periodic \
         cross-multiplies while staying continuously fresh (§4.1.1's argument)",
        "Algorithm 3 buys near-finest-interval accuracy at a fraction of the \
         recomputations",
        "the γ² chooser follows the paper's skew rule (MLE on low skew, GEE \
         otherwise); when the group count rivals the sample size both \
         estimators are biased (GEE up, MLE down) and neither dominates",
    ]);
}
