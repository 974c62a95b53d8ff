//! Figure 8: estimated vs actual progress of TPC-H Q8 on a Zipf-2
//! database, comparing the paper's framework (`once`) with the `dne`
//! baseline. 10% samples, as in the paper.
//!
//! Actual progress is computed post-hoc: a progress subscriber records
//! `(C(Q), estimated fraction)` at each of the query's publications (made
//! in-thread at operator batch boundaries, so the series is deterministic);
//! after completion the true total `T(Q) = C_final(Q)` is known, so actual
//! progress at each publication is `C/C_final`.

use std::sync::{Arc, Mutex};

use qprog::plan::physical::{compile, PhysicalOptions};
use qprog::plan::PlanBuilder;
use qprog::workloads::q8_plan;
use qprog_bench::{banner, paper_note, print_table, write_csv, Scale};
use qprog_core::EstimationMode;
use qprog_datagen::{TpchConfig, TpchGenerator};

const CHECKPOINTS: [f64; 10] = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Run Q8 in `mode`; return (actual fraction, estimated fraction) samples.
fn run_q8(builder: &PlanBuilder, mode: EstimationMode) -> Vec<(f64, f64)> {
    let plan = q8_plan(builder).expect("q8 plan");
    let opts = PhysicalOptions {
        mode,
        sample_fraction: 0.10,
        ..PhysicalOptions::default()
    };
    let mut q = compile(&plan, &opts).expect("compile");
    let published = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&published);
    q.on_progress(move |snap| sink.lock().unwrap().push((snap.current(), snap.fraction())));
    q.collect().expect("q8 run");
    let final_c = q.tracker().snapshot().current().max(1);
    let samples = std::mem::take(&mut *published.lock().unwrap());
    samples
        .into_iter()
        .map(|(c, est)| (c as f64 / final_c as f64, est))
        .collect()
}

/// Estimated progress at each actual-progress checkpoint (last sample at or
/// below the checkpoint).
fn at_checkpoints(samples: &[(f64, f64)]) -> Vec<f64> {
    CHECKPOINTS
        .iter()
        .map(|&cp| {
            samples
                .iter()
                .take_while(|(actual, _)| *actual <= cp)
                .last()
                .or(samples.first())
                .map(|(_, est)| *est)
                .unwrap_or(0.0)
        })
        .collect()
}

fn main() {
    let scale = Scale::detect();
    banner(
        "fig8",
        "progress of TPC-H Q8 under skew: once vs dne (paper Fig. 8)",
        scale,
    );
    println!(
        "generating TPC-H-lite SF {} with Zipf-2 foreign keys...",
        scale.q8_sf()
    );
    let catalog = TpchGenerator::new(TpchConfig {
        scale: scale.q8_sf(),
        skew: 2.0,
        seed: 88,
    })
    .catalog()
    .expect("catalog");
    let builder = PlanBuilder::new(catalog);

    let once = at_checkpoints(&run_q8(&builder, EstimationMode::Once));
    let dne = at_checkpoints(&run_q8(&builder, EstimationMode::Dne));

    let rows: Vec<Vec<String>> = CHECKPOINTS
        .iter()
        .enumerate()
        .map(|(i, cp)| {
            vec![
                format!("{:.0}%", cp * 100.0),
                format!("{:.1}%", once[i] * 100.0),
                format!("{:.1}%", dne[i] * 100.0),
            ]
        })
        .collect();
    print_table(&["actual progress", "once estimate", "dne estimate"], &rows);
    write_csv(
        "fig8_progress_q8",
        &["actual", "once_estimate", "dne_estimate"],
        &rows
            .iter()
            .map(|r| {
                r.iter()
                    .map(|c| c.trim_end_matches('%').to_string())
                    .collect()
            })
            .collect::<Vec<_>>(),
    );
    // summary: mean absolute progress error
    let mae = |est: &[f64]| {
        est.iter()
            .zip(CHECKPOINTS.iter())
            .map(|(e, a)| (e - a).abs())
            .sum::<f64>()
            / est.len() as f64
    };
    println!(
        "\nmean |estimated − actual| progress: once {:.3}, dne {:.3}",
        mae(&once),
        mae(&dne)
    );
    paper_note(&[
        "paper: once pushes estimation down as soon as the main 3-hash-join \
         pipeline begins, giving correct progress for the rest of the query; \
         dne does not adjust upper-join cardinalities until much later and \
         overestimates progress for a long time",
        "expect: the once column tracks the actual column closely; dne \
         deviates farther (typically running ahead), with a larger mean error",
    ]);
}
