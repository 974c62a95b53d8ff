//! Interactive SQL REPL over a TPC-H-lite database with live progress.
//!
//! ```sh
//! cargo run --release --example repl            # scale 0.01, uniform
//! QPROG_SCALE=0.05 QPROG_SKEW=2 cargo run --release --example repl
//! ```
//!
//! Commands: any supported SELECT statement; `\explain <sql>` to show the
//! plan without running; `\tables` to list tables; `\mode once|dne|byte|off`
//! to switch the estimation framework; `\quit` to exit.

use std::io::{BufRead, Write};
use std::time::Instant;

use qprog::core::EstimationMode;
use qprog::plan::physical::PhysicalOptions;
use qprog::prelude::*;
use qprog_datagen::{TpchConfig, TpchGenerator};

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> QResult<()> {
    let scale = env_f64("QPROG_SCALE", 0.01);
    let skew = env_f64("QPROG_SKEW", 0.0);
    eprintln!("loading TPC-H-lite (scale {scale}, skew {skew})...");
    let catalog = TpchGenerator::new(TpchConfig {
        scale,
        skew,
        seed: 42,
    })
    .catalog()?;
    let mut mode = EstimationMode::Once;

    let stdin = std::io::stdin();
    eprintln!("qprog repl — \\tables, \\explain <sql>, \\mode <m>, \\quit");
    loop {
        eprint!("qprog> ");
        std::io::stderr().flush().ok();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break; // EOF
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.eq_ignore_ascii_case("\\quit") || line.eq_ignore_ascii_case("\\q") {
            break;
        }
        if line.eq_ignore_ascii_case("\\tables") {
            let session = Session::new(catalog.clone());
            for t in session.builder().catalog().table_names() {
                let rows = session.builder().catalog().table(t)?.num_rows();
                println!("  {t} ({rows} rows)");
            }
            continue;
        }
        if let Some(m) = line.strip_prefix("\\mode") {
            mode = match m.trim().to_ascii_lowercase().as_str() {
                "once" => EstimationMode::Once,
                "dne" => EstimationMode::Dne,
                "byte" => EstimationMode::Byte,
                "off" => EstimationMode::Off,
                other => {
                    eprintln!("unknown mode `{other}` (once|dne|byte|off)");
                    continue;
                }
            };
            eprintln!("estimation mode: {}", mode.label());
            continue;
        }
        let (explain_only, sql) = match line.strip_prefix("\\explain") {
            Some(rest) => (true, rest.trim()),
            None => (false, line),
        };
        let session = Session::new(catalog.clone()).with_options(PhysicalOptions::with_mode(mode));
        let mut query = match session.query(sql) {
            Ok(q) => q,
            Err(e) => {
                eprintln!("error: {e}");
                continue;
            }
        };
        if explain_only {
            print!("{}", query.explain());
            continue;
        }

        // The bar is redrawn at each of the query's progress publications,
        // in the executing thread; the run's result ends it, however the
        // query ends.
        let started = Instant::now();
        let result = query.run(RunOptions::new().observer(|snap| {
            let frac = snap.fraction();
            let (lo, hi) = snap.bounds();
            let filled = (frac * 30.0) as usize;
            eprint!(
                "\r[{}{}] {:5.1}%  (bounds {:.1}–{:.1}%)   ",
                "#".repeat(filled),
                "-".repeat(30 - filled),
                frac * 100.0,
                lo * 100.0,
                hi * 100.0,
            );
            std::io::stderr().flush().ok();
        }));
        eprintln!();
        match result {
            Ok(rows) => {
                let shown = rows.len().min(20);
                for row in &rows[..shown] {
                    println!("{row}");
                }
                if rows.len() > shown {
                    println!("... ({} rows total)", rows.len());
                }
                println!(
                    "{} rows in {:.1} ms [{}]",
                    rows.len(),
                    started.elapsed().as_secs_f64() * 1000.0,
                    mode.label()
                );
            }
            Err(e) => eprintln!("error: {e}"),
        }
    }
    Ok(())
}
