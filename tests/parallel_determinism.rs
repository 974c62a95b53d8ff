//! Partition-parallel execution must be invisible in every output: result
//! multisets, final progress, and converged online estimates are identical
//! at any degree of parallelism, and the worker pool leaves no threads
//! behind.
//!
//! The engine guarantees this by splitting scans into contiguous chunks
//! concatenated in worker order (= serial scan order) and merging
//! per-partition estimator fragments associatively, so P > 1 replays the
//! exact serial observation stream.

use std::time::{Duration, Instant};

use qprog::prelude::*;

const PARALLELISM: &[usize] = &[1, 2, 4];

/// Heavy Zipf skew (z=2) so partitions carry very different loads — the
/// regime where a naive merge would diverge from the serial estimate.
fn skewed_catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 50_000, 2.0, 400, 11,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 400))
        .unwrap();
    c
}

fn session(threads: usize) -> Session {
    Session::new(skewed_catalog()).with_options(PhysicalOptions {
        threads,
        ..PhysicalOptions::default()
    })
}

/// Current thread count of this process (Linux; `None` elsewhere).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Run `sql` at parallelism `threads`; return the sorted row multiset, the
/// final progress fraction, and the converged hash-join estimate.
fn run(sql: &str, threads: usize) -> (Vec<String>, f64, f64) {
    let s = session(threads);
    let mut q = s.query(sql).unwrap();
    let tracker = q.tracker();
    let mut rows: Vec<String> = q
        .run(RunOptions::new())
        .unwrap()
        .iter()
        .map(|r| r.to_string())
        .collect();
    rows.sort();
    let estimate = q
        .registry()
        .iter()
        .find(|(n, _)| *n == "hash_join")
        .map(|(_, m)| m.estimated_total())
        .unwrap();
    (rows, tracker.snapshot().fraction(), estimate)
}

/// The skew join: result multisets identical for P ∈ {1, 2, 4}, progress
/// ends at exactly 1.0, and the converged join estimate equals the serial
/// exact cardinality at every P.
#[test]
fn skew_join_is_deterministic_across_parallelism() {
    let sql = "SELECT * FROM customer \
               JOIN nation ON customer.nationkey = nation.nationkey";
    let (serial_rows, serial_fraction, serial_estimate) = run(sql, 1);
    // once-mode converges to the exact join size; the pure join's output
    // count *is* that cardinality.
    assert_eq!(serial_estimate, serial_rows.len() as f64);
    assert_eq!(serial_fraction, 1.0);
    for &threads in &PARALLELISM[1..] {
        let (rows, fraction, estimate) = run(sql, threads);
        assert_eq!(
            rows, serial_rows,
            "threads={threads} changed the result multiset"
        );
        assert_eq!(fraction, 1.0, "threads={threads} final progress != 1.0");
        assert_eq!(
            estimate, serial_estimate,
            "threads={threads} changed the converged join estimate"
        );
    }
}

/// Aggregation over the join — a blocking consumer on top of the parallel
/// drains — must also be bit-identical at every P.
#[test]
fn aggregation_over_parallel_join_matches_serial() {
    let sql = "SELECT nation.name, count(*) AS customers FROM customer \
               JOIN nation ON customer.nationkey = nation.nationkey \
               GROUP BY nation.name";
    let (serial_rows, _, serial_estimate) = run(sql, 1);
    for &threads in &PARALLELISM[1..] {
        let (rows, fraction, estimate) = run(sql, threads);
        assert_eq!(rows, serial_rows, "threads={threads} changed group counts");
        assert_eq!(fraction, 1.0);
        assert_eq!(estimate, serial_estimate);
    }
}

/// At P = 4 the drains' workers publish progress from their own threads,
/// skipping a publication rather than block when another holds the
/// publisher: the observed series stays rate-limited by work (≤ 1 per
/// 0.1% of `T̂`, plus the terminal), monotone, and ends at 1.0.
#[test]
fn parallel_publications_are_bounded_monotone_and_complete() {
    let s = session(4);
    let mut q = s
        .query(
            "SELECT nation.name, count(*) AS customers FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey \
             GROUP BY nation.name",
        )
        .unwrap();
    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&seen);
    q.run(RunOptions::new().observer(move |snap| sink.lock().unwrap().push(snap.fraction())))
        .unwrap();
    let fractions = seen.lock().unwrap();
    let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
    assert!(inside >= 5, "{fractions:?}");
    assert!(fractions.len() <= 1_001, "{} publications", fractions.len());
    assert!(fractions.windows(2).all(|w| w[0] <= w[1]), "{fractions:?}");
    assert_eq!(fractions.last(), Some(&1.0));
}

/// The worker pool is scoped: every worker joins before the drain returns,
/// so repeated parallel queries leave the process at its baseline thread
/// count.
#[test]
fn parallel_queries_leak_zero_threads() {
    let baseline = match thread_count() {
        Some(n) => n,
        None => return, // not a procfs platform; nothing to measure
    };
    for &threads in PARALLELISM {
        for _ in 0..2 {
            let s = session(threads);
            let mut q = s
                .query(
                    "SELECT * FROM customer \
                     JOIN nation ON customer.nationkey = nation.nationkey",
                )
                .unwrap();
            q.collect().unwrap();
        }
    }
    // Workers are joined synchronously by the scoped pool; poll briefly so
    // concurrently running tests' threads can drain too.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count().unwrap();
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: {now} threads, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// An Algorithm-1 chain drains in parallel too. TPC-H Q8's seven hash
/// joins share one pipeline estimator whose lowest join probes with the
/// `lineitem` scan: at P ∈ {2, 4} the row multiset is the serial one, every
/// chain join's converged `N̂` is bit-equal to the serial run's, and the
/// lowest join reports at least two workers.
#[test]
fn q8_chain_drains_in_parallel_and_converges_bit_identically() {
    let run = |threads: usize| {
        let catalog = qprog::datagen::TpchGenerator::new(qprog::datagen::TpchConfig {
            scale: 0.004,
            skew: 2.0,
            seed: 88,
        })
        .catalog()
        .unwrap();
        let s = Session::new(catalog).with_options(PhysicalOptions {
            threads,
            ..PhysicalOptions::default()
        });
        let plan = qprog::workloads::q8_plan(s.builder()).unwrap();
        let mut q = s.query_plan(plan).unwrap();
        let mut rows: Vec<String> = q.collect().unwrap().iter().map(|r| r.to_string()).collect();
        rows.sort();
        // The chain's joins are registered top-down: join 0, the lowest,
        // is the seventh.
        let joins: Vec<(u64, Option<u32>)> = q
            .registry()
            .iter()
            .filter(|(n, _)| *n == "hash_join")
            .map(|(_, m)| (m.estimated_total().to_bits(), m.workers()))
            .collect();
        (rows, joins)
    };
    let (serial_rows, serial_joins) = run(1);
    assert_eq!(serial_joins.len(), 7);
    assert!(serial_joins.iter().all(|&(_, workers)| workers.is_none()));
    for threads in [2usize, 4] {
        let (rows, joins) = run(threads);
        assert_eq!(
            rows, serial_rows,
            "threads={threads} changed the result multiset"
        );
        let estimates =
            |joins: &[(u64, Option<u32>)]| joins.iter().map(|j| j.0).collect::<Vec<_>>();
        assert_eq!(
            estimates(&joins),
            estimates(&serial_joins),
            "threads={threads} changed a chain join's converged estimate"
        );
        assert!(
            joins[6].1 >= Some(2),
            "threads={threads}: the lowest join ran on {:?} workers",
            joins[6].1
        );
    }
}
