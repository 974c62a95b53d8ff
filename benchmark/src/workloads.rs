//! The four workloads: seeded inputs, plans, and reference answers.
//!
//! Sizes and distribution shapes are fixed; `--seed` varies the data
//! within them. The program under test receives nothing but the generated
//! tables and plans.

use std::collections::HashMap;

use qprog::datagen::{customer_table, nation_table, two_key_table, TpchConfig, TpchGenerator};
use qprog::exec::ops::agg::AggFunc;
use qprog::plan::{JoinAlgo, LogicalPlan, PlanBuilder};
use qprog::storage::{Catalog, Table};
use qprog::types::{row, Key, QResult, Row};

use crate::rng::SplitMix;

/// The SQL the service workload submits.
pub const SERVICE_SQL: &str = "SELECT count(*) FROM customer \
                               JOIN nation ON customer.nationkey = nation.nationkey";

/// What a workload's result must equal.
pub enum Expect {
    /// `GROUP BY key COUNT(*)`: the exact group → count map, computed at
    /// setup from `Table::iter` with a plain `HashMap`.
    GroupCounts(HashMap<i64, i64>),
    /// No independent reference: every arm must return the same rows, and
    /// every hash join's converged estimate must equal its emitted count.
    AgreeAcrossArms,
    /// A single `count(*)` row holding this value.
    Count(i64),
}

/// Key columns of the workload's real tables, for the estimator
/// micro-loops: `joins[i]` is `(build rows holding only the key, probe
/// column index)` for the i-th join bottom-up, all probing columns of
/// `probe_rows`.
pub struct KeyColumns {
    pub joins: Vec<(Vec<Row>, usize)>,
    pub probe_rows: Vec<Row>,
    /// Grouping keys in input order (the probe key column when the query
    /// has no GROUP BY).
    pub group: Vec<Key>,
}

#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Runs through the HTTP service instead of an in-process session.
    pub service: bool,
    /// Has the `observed` arm (trace + monitor + metrics + corpus).
    pub observed_arm: bool,
    /// The driving (largest) table, for the scan-only storage measurement.
    pub scan_table: &'static str,
    pub generate: fn(u64) -> QResult<Catalog>,
    pub plan: fn(&PlanBuilder) -> QResult<LogicalPlan>,
    pub expect: fn(&Catalog) -> QResult<Expect>,
    pub keys: fn(&Catalog) -> QResult<KeyColumns>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "q8_zipf2",
        why: "The paper's Fig. 8 query: 7-join hash pipeline on Zipf-2 TPC-H keys, where the \
              pipeline estimator and its histograms are about 44% of the run; the only workload \
              with an observed arm.",
        service: false,
        observed_arm: true,
        scan_table: "lineitem",
        generate: q8_generate,
        plan: qprog::workloads::q8_plan,
        expect: |_| Ok(Expect::AgreeAcrossArms),
        keys: q8_keys,
    },
    Workload {
        name: "hash_agg_uniform",
        why: "One hash join into a 25k-group aggregate on uniform, near-unique keys: scan, build, \
              probe and aggregate are about 90% of the run, and key folding or skew tricks have \
              nothing to fold.",
        service: false,
        observed_arm: false,
        scan_table: "a",
        generate: hash_agg_generate,
        plan: hash_agg_plan,
        expect: |c| group_count_reference(c, "a", "nation"),
        keys: |c| single_join_keys(c, "nation", 0, "a", 0, 1),
    },
    Workload {
        name: "merge_zipf1",
        why: "Sort-merge join of two Zipf-1 tables into a hash aggregate: sort and merge dominate \
              and estimation rides the sort phase, so hash-join or key changes must leave it flat.",
        service: false,
        observed_arm: false,
        scan_table: "m1",
        generate: merge_generate,
        plan: merge_plan,
        expect: |c| group_count_reference(c, "m1", "m2"),
        keys: |c| single_join_keys(c, "m2", 0, "m1", 0, 1),
    },
    Workload {
        name: "service_short",
        why: "A 2 ms count(*) join through POST /submit, journal, queue, dispatch and the SSE \
              terminal frame, idle and under bursts: sql, plan, service and monitor own the \
              latency, the engine barely registers.",
        service: true,
        observed_arm: false,
        scan_table: "customer",
        generate: service_generate,
        plan: |b| qprog::sql::plan_sql(b, SERVICE_SQL),
        expect: service_expect,
        keys: |c| single_join_keys(c, "nation", 0, "customer", 1, 1),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn q8_generate(seed: u64) -> QResult<Catalog> {
    TpchGenerator::new(TpchConfig {
        scale: 0.02,
        skew: 2.0,
        seed,
    })
    .catalog()
}

fn hash_agg_generate(seed: u64) -> QResult<Catalog> {
    let mut c = Catalog::new();
    c.register(two_key_table(
        "a",
        200_000,
        0.0,
        50_000,
        seed,
        0.0,
        25_000,
        seed.wrapping_add(1),
    ))?;
    c.register(nation_table("nation", 50_000))?;
    Ok(c)
}

fn hash_agg_plan(b: &PlanBuilder) -> QResult<LogicalPlan> {
    b.scan("a")?
        .hash_join(b.scan("nation")?, "nation.nationkey", "a.custkey")?
        .aggregate(&["a.nationkey"], &[(AggFunc::CountStar, None, "tally")])
}

/// The two tables' Zipf shapes come from fixed variants, so the join's
/// structure (which ranks of `m1` meet which ranks of `m2`, hence C(Q), the
/// group counts and how wrong the optimizer starts out) is the same for
/// every seed: with seed-fed variants C(Q) ran from 250k to 410k and the
/// convergence point from 0.01 to 0.60 across ten seeds, which is ten
/// different workloads. The seed instead relabels both key domains (one
/// bijection per domain, shared by the two tables) and shuffles the rows:
/// different values, hashes, sort input and block samples, same shape.
fn merge_generate(seed: u64) -> QResult<Catalog> {
    const CUSTKEYS: usize = 25_000;
    const NATIONKEYS: usize = 1000;
    let mut rng = SplitMix(seed ^ 0x6D65_7267_655F_7A31);
    let custkey = rng.permutation(CUSTKEYS);
    let nationkey = rng.permutation(NATIONKEYS);
    let mut c = Catalog::new();
    for (name, rows, variants) in [("m1", 100_000, (88, 89)), ("m2", 40_000, (90, 91))] {
        let base = two_key_table(
            name, rows, 1.0, CUSTKEYS, variants.0, 1.0, NATIONKEYS, variants.1,
        );
        let mut relabelled: Vec<Row> = base
            .iter()
            .map(|r| {
                Ok(row![
                    custkey[r.get(0)?.as_i64()? as usize],
                    nationkey[r.get(1)?.as_i64()? as usize]
                ])
            })
            .collect::<QResult<_>>()?;
        rng.shuffle(&mut relabelled);
        let mut table = Table::new(name, base.schema().as_ref().clone());
        table.extend(relabelled)?;
        c.register(table)?;
    }
    Ok(c)
}

fn merge_plan(b: &PlanBuilder) -> QResult<LogicalPlan> {
    b.scan("m1")?
        .join_build(b.scan("m2")?, "m2.custkey", "m1.custkey", JoinAlgo::Merge)?
        .aggregate(&["m1.nationkey"], &[(AggFunc::CountStar, None, "tally")])
}

fn service_generate(seed: u64) -> QResult<Catalog> {
    let mut c = Catalog::new();
    c.register(customer_table("customer", 10_000, 1.0, 200, seed))?;
    c.register(nation_table("nation", 200))?;
    Ok(c)
}

fn service_expect(c: &Catalog) -> QResult<Expect> {
    let nations = key_counts(c, "nation", 0)?;
    let mut total = 0i64;
    for row in c.table("customer")?.iter() {
        total += nations.get(&row.get(1)?.as_i64()?).copied().unwrap_or(0);
    }
    Ok(Expect::Count(total))
}

fn key_counts(c: &Catalog, table: &str, col: usize) -> QResult<HashMap<i64, i64>> {
    let mut counts = HashMap::new();
    for row in c.table(table)?.iter() {
        *counts.entry(row.get(col)?.as_i64()?).or_insert(0) += 1;
    }
    Ok(counts)
}

/// `probe ⋈ build ON probe.col0 = build.col0 GROUP BY probe.col1 COUNT(*)`.
fn group_count_reference(c: &Catalog, probe: &str, build: &str) -> QResult<Expect> {
    let build_counts = key_counts(c, build, 0)?;
    let mut groups: HashMap<i64, i64> = HashMap::new();
    for row in c.table(probe)?.iter() {
        if let Some(&n) = build_counts.get(&row.get(0)?.as_i64()?) {
            *groups.entry(row.get(1)?.as_i64()?).or_insert(0) += n;
        }
    }
    Ok(Expect::GroupCounts(groups))
}

fn column_keys(c: &Catalog, table: &str, col: usize) -> QResult<Vec<Key>> {
    c.table(table)?.iter().map(|r| r.key(col)).collect()
}

fn column_rows(c: &Catalog, table: &str, col: usize) -> QResult<Vec<Row>> {
    c.table(table)?.iter().map(|r| r.project(&[col])).collect()
}

fn single_join_keys(
    c: &Catalog,
    build: &str,
    build_col: usize,
    probe: &str,
    probe_col: usize,
    group_col: usize,
) -> QResult<KeyColumns> {
    Ok(KeyColumns {
        joins: vec![(column_rows(c, build, build_col)?, probe_col)],
        probe_rows: c.table(probe)?.iter().collect(),
        group: column_keys(c, probe, group_col)?,
    })
}

/// The three lowest joins of Q8, all keyed by a lineitem column (the
/// pipeline's Case 1): part, supplier, orders.
fn q8_keys(c: &Catalog) -> QResult<KeyColumns> {
    Ok(KeyColumns {
        joins: vec![
            (column_rows(c, "part", 0)?, 1),
            (column_rows(c, "supplier", 0)?, 2),
            (column_rows(c, "orders", 0)?, 0),
        ],
        probe_rows: c.table("lineitem")?.iter().collect(),
        group: column_keys(c, "orders", 2)?,
    })
}
