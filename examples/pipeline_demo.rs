//! Watch Algorithm-1 push-down estimation converge inside a join pipeline
//! (the paper's Fig. 1/2 plan shapes, live).
//!
//! Builds a three-join pipeline over tables whose hot values deliberately
//! do not line up (the paper's `C, C¹, C²` worst case), then prints each
//! join's cardinality estimate as the probe stream is consumed — all three
//! converge to the exact counts while the upper joins have emitted nothing.
//!
//! ```sh
//! cargo run --release --example pipeline_demo
//! ```

use qprog::core::pipeline_est::{AttrSource, JoinSpec, PipelineEstimator};
use qprog_types::QResult;

fn main() -> QResult<()> {
    let rows = 50_000;
    let domain = 2_000;
    let z = 1.0;
    // Same skew, different peak-frequency values per table.
    let b0 = qprog::datagen::customer_table("b0", rows, z, domain, 1);
    let b1 = qprog::datagen::customer_table("b1", rows, z, domain, 2);
    let b2 = qprog::datagen::customer_table("b2", rows, z, domain, 3);
    let probe = qprog::datagen::customer_table("c", rows, z, domain, 4);

    // Three hash joins on the same attribute (nationkey = column 1).
    let mut est = PipelineEstimator::new(
        vec![
            JoinSpec {
                build_attr_col: 1,
                probe_attr: AttrSource::Probe { col: 1 },
            };
            3
        ],
        rows as u64,
    )?;

    // Builds are fed top-down, exactly like the execution engine does.
    for (j, table) in [(2usize, &b2), (1, &b1), (0, &b0)] {
        let rows: Vec<_> = table.iter().collect();
        est.feed_build(j, rows.iter())?;
    }

    println!(
        "{:>9} {:>16} {:>16} {:>16}",
        "probe %", "lower join", "middle join", "upper join"
    );
    let mut next = rows / 100; // 1%
    for (i, row) in probe.iter().enumerate() {
        est.observe_probe(&row)?;
        if i + 1 == next {
            let e = est.estimates();
            println!(
                "{:>8.1}% {:>16.0} {:>16.0} {:>16.0}",
                (i + 1) as f64 / rows as f64 * 100.0,
                e[0],
                e[1],
                e[2]
            );
            next = (next * 2).min(rows);
        }
    }
    let finals = est.estimates();
    println!(
        "\nconverged (exact) cardinalities: lower={:.0} middle={:.0} upper={:.0}",
        finals[0], finals[1], finals[2]
    );
    assert!(est.converged());
    Ok(())
}
