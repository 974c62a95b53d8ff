//! Live monitoring of concurrent TPC-H queries in a browser.
//!
//! Starts a [`MonitorServer`] via [`Observability::serve_on`], then runs a
//! mix of queries — the paper's Fig. 8 eight-table Q8 join pipeline plus a
//! couple of SQL joins/aggregations — over and over on worker threads.
//! While they run:
//!
//! - `http://localhost:PORT/` renders a dashboard with one progress bar per
//!   live query (gnm point estimate plus its `[lo, hi]` confidence band)
//!   and a per-operator `K_i`/`N̂_i` table,
//! - `GET /progress` and `GET /progress/{id}` serve the same as JSON,
//! - `GET /metrics` exposes fleet-wide Prometheus counters and the
//!   per-estimator q-error histograms.
//!
//! A terminal progress bar is drawn too, so the example is useful without a
//! browser.
//!
//! ```sh
//! cargo run --release --example sql_monitor
//! # then open the printed http://localhost:PORT/ while it runs
//! ```

use std::io::Write;
use std::sync::Arc;
use std::time::Duration;

use qprog::prelude::*;
use qprog::workloads::q8_plan;
use qprog_datagen::{TpchConfig, TpchGenerator};

const SQL_MIX: &[&str] = &[
    "SELECT c.nationkey, count(*) FROM customer c \
     JOIN orders o ON c.custkey = o.custkey GROUP BY c.nationkey",
    "SELECT o.orderkey, count(*) FROM orders o \
     JOIN lineitem l ON o.orderkey = l.orderkey GROUP BY o.orderkey",
];

fn main() -> QResult<()> {
    eprintln!("generating TPC-H-lite (scale 0.02, Zipf z=2 foreign keys)...");
    let catalog = TpchGenerator::new(TpchConfig {
        scale: 0.02,
        skew: 2.0,
        seed: 8,
    })
    .catalog()?;

    let session = Arc::new(
        SessionBuilder::new(catalog)
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()?,
    );
    let server = Arc::clone(session.monitor().expect("serve_on attached a monitor"));
    eprintln!();
    eprintln!("  live dashboard:  {}/", server.url());
    eprintln!("  progress JSON:   {}/progress", server.url());
    eprintln!("  Prometheus:      {}/metrics", server.url());
    eprintln!();

    // Background SQL workers: re-run the SQL mix so the dashboard always
    // has company for the foreground Q8 runs.
    let workers: Vec<_> = SQL_MIX
        .iter()
        .map(|sql| {
            let session = Arc::clone(&session);
            std::thread::spawn(move || -> QResult<usize> {
                let mut total = 0;
                for _ in 0..3 {
                    total += session.query(sql)?.collect()?.len();
                }
                Ok(total)
            })
        })
        .collect();

    // Foreground: Q8 with a terminal progress bar mirroring the dashboard.
    for run in 1..=3 {
        let plan = q8_plan(session.builder())?;
        let mut query = session.query_plan_labeled(plan, "TPC-H Q8 (8-table join)")?;
        let id = query.query_id().expect("registered with the monitor");
        // Redrawn at each of the query's progress publications.
        let rows = query.run(RunOptions::new().observer(move |snap| {
            let frac = snap.fraction();
            let filled = (frac * 40.0) as usize;
            eprint!(
                "\rQ8 run {run} (query #{id}) [{}{}] {:5.1}%",
                "#".repeat(filled),
                "-".repeat(40 - filled),
                frac * 100.0,
            );
            std::io::stderr().flush().ok();
        }));
        eprintln!();
        eprintln!("  -> {} result rows", rows?.len());
        // Keep the finished query on the dashboard briefly before its
        // handle drops and it unregisters.
        std::thread::sleep(Duration::from_millis(300));
    }

    for w in workers {
        let rows = w.join().expect("sql worker")?;
        eprintln!("sql worker done ({rows} rows total)");
    }

    let registry = session.metrics().expect("serve_on created a registry");
    println!();
    println!("final /metrics exposition:");
    println!("{}", registry.render());
    Ok(())
}
