//! Table 3: runtime overhead of the estimation framework on binary hash
//! and sort-merge joins — lineitem ⋈ orders on orderkey (PK-FK), per
//! TPC-H scale factor and sample size.
//!
//! Compares wall time with estimation Off vs Once at 5% and 10% block
//! samples. Absolute numbers differ from the paper's 2007 hardware; the
//! claim to reproduce is the *relative* overhead staying small.

use qprog::plan::physical::{compile, PhysicalOptions};
use qprog::plan::{JoinAlgo, PlanBuilder};
use qprog_bench::{banner, ms, overhead_pct, paper_note, print_table, write_csv, Scale};
use qprog_core::EstimationMode;
use qprog_datagen::{TpchConfig, TpchGenerator};

/// Simulated page-read cost per 256-row block when reproducing the paper's
/// disk-resident context ("io" rows): ~50µs is a 2007-era sequential page
/// read of an 8 KB page.
const BLOCK_IO_US: u64 = 150;

fn main() {
    let scale = Scale::detect();
    banner(
        "table3",
        "estimation overhead on binary joins (paper Table 3)",
        scale,
    );
    let runs = if scale.full { 3 } else { 7 };
    let mut rows = Vec::new();
    for sf in scale.tpch_sfs() {
        let gen = TpchGenerator::new(TpchConfig {
            scale: sf,
            skew: 0.0,
            seed: 21,
        });
        let mut catalog = qprog_storage::Catalog::new();
        catalog.register(gen.orders()).expect("register");
        catalog.register(gen.lineitem()).expect("register");
        let builder = PlanBuilder::new(catalog);

        for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = builder
                .scan("lineitem")
                .expect("scan")
                .join_build(
                    builder.scan("orders").expect("scan"),
                    "orders.orderkey",
                    "lineitem.orderkey",
                    algo,
                )
                .expect("join");
            let exec = |mode: EstimationMode, sample: f64, io_us: u64| {
                let opts = PhysicalOptions {
                    mode,
                    sample_fraction: sample,
                    block_io_us: io_us,
                    ..PhysicalOptions::default()
                };
                let mut q = compile(&plan, &opts).expect("compile");
                q.collect().expect("run");
            };
            for (ctx, io_us) in [("mem", 0u64), ("io", BLOCK_IO_US)] {
                let times = qprog_bench::interleaved_min_times(
                    runs,
                    vec![
                        Box::new(|| exec(EstimationMode::Off, 0.10, io_us)),
                        Box::new(|| exec(EstimationMode::Once, 0.05, io_us)),
                        Box::new(|| exec(EstimationMode::Once, 0.10, io_us)),
                    ],
                );
                let (off, once5, once10) = (times[0], times[1], times[2]);
                rows.push(vec![
                    format!("{sf}"),
                    format!("{algo:?}"),
                    ctx.to_string(),
                    ms(off),
                    ms(once5),
                    overhead_pct(off, once5),
                    ms(once10),
                    overhead_pct(off, once10),
                ]);
            }
        }
    }
    print_table(
        &[
            "SF",
            "join",
            "ctx",
            "off ms",
            "once 5% ms",
            "ovh 5%",
            "once 10% ms",
            "ovh 10%",
        ],
        &rows,
    );
    write_csv(
        "table3_join_overhead",
        &[
            "sf",
            "join",
            "ctx",
            "off_ms",
            "once5_ms",
            "overhead5",
            "once10_ms",
            "overhead10",
        ],
        &rows,
    );
    paper_note(&[
        "paper: overhead is a small fraction of response time for both hash \
         and sort-merge joins at every scale factor, because estimation runs \
         inside the (I/O-heavy) preprocessing phases",
        "the `mem` rows run fully in memory, where there is no I/O for the \
         same absolute work to hide behind; the `io` rows restore the \
         paper's disk-page cost model (150µs/block); EXPERIMENTS.md quotes \
         the CSV this run wrote",
    ]);
}
