//! Base-table statistics for optimizer cardinality estimates.
//!
//! These statistics are intentionally "optimizer-grade": equi-width
//! histograms with a fixed bucket budget, uniformity assumed inside buckets
//! and independence assumed across columns. Under the Zipfian skew used in
//! the paper's evaluation they produce the badly wrong initial estimates
//! (e.g. the ~13× error in Fig. 4(a)) that motivate online refinement.

use std::collections::HashSet;

use qprog_types::{Key, QResult, Value};

use crate::table::Table;

/// Default number of equi-width histogram buckets.
pub const DEFAULT_BUCKETS: usize = 64;

/// An equi-width histogram over an integer column.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiWidthHistogram {
    min: i64,
    max: i64,
    counts: Vec<u64>,
    total: u64,
}

impl EquiWidthHistogram {
    /// Build from integer observations with the given bucket budget.
    /// Returns `None` when there are no (non-null integer) observations.
    pub fn build(values: impl IntoIterator<Item = i64>, buckets: usize) -> Option<Self> {
        let vals: Vec<i64> = values.into_iter().collect();
        if vals.is_empty() {
            return None;
        }
        let min = *vals.iter().min().expect("non-empty");
        let max = *vals.iter().max().expect("non-empty");
        let buckets = buckets.max(1);
        let mut h = EquiWidthHistogram {
            min,
            max,
            counts: vec![0; buckets],
            total: 0,
        };
        for v in vals {
            let b = h.bucket_of(v);
            h.counts[b] += 1;
            h.total += 1;
        }
        Some(h)
    }

    fn width(&self) -> f64 {
        // +1: the domain [min, max] is inclusive on both ends.
        ((self.max - self.min) as f64 + 1.0) / self.counts.len() as f64
    }

    fn bucket_of(&self, v: i64) -> usize {
        let w = self.width();
        (((v - self.min) as f64 / w) as usize).min(self.counts.len() - 1)
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observed minimum / maximum.
    pub fn bounds(&self) -> (i64, i64) {
        (self.min, self.max)
    }

    /// Selectivity of `col = v` assuming uniformity inside the bucket.
    pub fn eq_selectivity(&self, v: i64, ndv: u64) -> f64 {
        if v < self.min || v > self.max || self.total == 0 {
            return 0.0;
        }
        let b = self.bucket_of(v);
        let bucket_frac = self.counts[b] as f64 / self.total as f64;
        // Assume the column's distinct values are spread evenly over the
        // buckets, so a bucket holds ndv / buckets of them.
        let per_bucket_ndv = (ndv as f64 / self.counts.len() as f64).max(1.0);
        bucket_frac / per_bucket_ndv
    }

    /// Selectivity of `col < v` with linear interpolation inside the bucket.
    pub fn lt_selectivity(&self, v: i64) -> f64 {
        if self.total == 0 || v <= self.min {
            return 0.0;
        }
        if v > self.max {
            return 1.0;
        }
        let b = self.bucket_of(v);
        let below: u64 = self.counts[..b].iter().sum();
        let w = self.width();
        let bucket_lo = self.min as f64 + b as f64 * w;
        let frac_in_bucket = ((v as f64 - bucket_lo) / w).clamp(0.0, 1.0);
        (below as f64 + frac_in_bucket * self.counts[b] as f64) / self.total as f64
    }

    /// Bucket counts (for inspection / tests).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

/// Per-column statistics.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Exact distinct-value count at ANALYZE time.
    pub ndv: u64,
    /// Number of NULLs.
    pub null_count: u64,
    /// Equi-width histogram (integer columns only).
    pub histogram: Option<EquiWidthHistogram>,
}

impl ColumnStats {
    /// Selectivity of `col = v` under these stats; falls back to `1/ndv`
    /// when no histogram exists.
    pub fn eq_selectivity(&self, v: &Value) -> f64 {
        if self.ndv == 0 {
            return 0.0;
        }
        match (&self.histogram, v) {
            (Some(h), Value::Int64(i)) => h.eq_selectivity(*i, self.ndv),
            _ => 1.0 / self.ndv as f64,
        }
    }
}

/// Whole-table statistics.
#[derive(Debug, Clone)]
pub struct TableStats {
    /// Exact row count at ANALYZE time.
    pub row_count: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Compute statistics for a table (full scan, exact NDV), one column
    /// at a time over the block columns. Insertion type-checks every value,
    /// so only BIGINT columns hold integers and get a histogram.
    pub fn analyze(table: &Table) -> QResult<TableStats> {
        let columns = (0..table.schema().arity())
            .map(|c| {
                let mut distinct: HashSet<Key> = HashSet::new();
                let mut null_count = 0u64;
                let mut ints: Vec<i64> = Vec::new();
                for b in table.blocks() {
                    for v in (0..b.len()).map(|r| b.col(c).value(r)) {
                        if v.is_null() {
                            null_count += 1;
                            continue;
                        }
                        distinct.extend(Key::from_value(&v).ok());
                        if let Value::Int64(x) = v {
                            ints.push(x);
                        }
                    }
                }
                ColumnStats {
                    ndv: distinct.len() as u64,
                    null_count,
                    histogram: EquiWidthHistogram::build(ints, DEFAULT_BUCKETS),
                }
            })
            .collect();
        Ok(TableStats {
            row_count: table.num_rows() as u64,
            columns,
        })
    }

    /// Stats for column `idx`, if present.
    pub fn column(&self, idx: usize) -> Option<&ColumnStats> {
        self.columns.get(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{row, DataType, Field, Row, Schema};

    fn table_with_ints(vals: &[i64]) -> Table {
        let mut t = Table::new("t", Schema::new(vec![Field::new("a", DataType::Int64)]));
        for &v in vals {
            t.push(row![v]).unwrap();
        }
        t
    }

    #[test]
    fn histogram_build_and_totals() {
        let h = EquiWidthHistogram::build(0..100, 10).unwrap();
        assert_eq!(h.total(), 100);
        assert_eq!(h.bounds(), (0, 99));
        assert_eq!(h.counts(), &[10; 10]);
        assert!(EquiWidthHistogram::build(std::iter::empty(), 10).is_none());
    }

    #[test]
    fn histogram_single_value_domain() {
        let h = EquiWidthHistogram::build(std::iter::repeat_n(5, 10), 4).unwrap();
        assert_eq!(h.total(), 10);
        assert_eq!(h.eq_selectivity(5, 1), 1.0);
        assert_eq!(h.eq_selectivity(6, 1), 0.0);
    }

    #[test]
    fn lt_selectivity_interpolates() {
        let h = EquiWidthHistogram::build(0..1000, 10).unwrap();
        assert_eq!(h.lt_selectivity(0), 0.0);
        assert_eq!(h.lt_selectivity(1001), 1.0);
        let half = h.lt_selectivity(500);
        assert!((half - 0.5).abs() < 0.02, "got {half}");
        let q = h.lt_selectivity(250);
        assert!((q - 0.25).abs() < 0.02, "got {q}");
    }

    #[test]
    fn eq_selectivity_uniform_column() {
        // 1000 rows, values 0..100 → eq selectivity ≈ 1/100.
        let vals: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let h = EquiWidthHistogram::build(vals.iter().copied(), 10).unwrap();
        let s = h.eq_selectivity(42, 100);
        assert!((s - 0.01).abs() < 0.003, "got {s}");
    }

    #[test]
    fn eq_selectivity_is_skew_blind() {
        // 90% of the mass on value 0, but the histogram averages it over
        // the bucket — the known weakness the paper exploits.
        let mut vals = vec![0i64; 900];
        vals.extend(1..=100);
        let h = EquiWidthHistogram::build(vals.iter().copied(), 10).unwrap();
        let hot = h.eq_selectivity(0, 101);
        assert!(hot < 0.5, "histogram should underestimate the hot value");
    }

    #[test]
    fn analyze_computes_ndv_nulls_and_histograms() {
        let mut t = Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("s", DataType::Utf8).with_nullable(true),
            ]),
        );
        t.push(row![1i64, "x"]).unwrap();
        t.push(row![1i64, "y"]).unwrap();
        t.push(Row::new(vec![Value::Int64(2), Value::Null]))
            .unwrap();
        let st = TableStats::analyze(&t).unwrap();
        assert_eq!(st.row_count, 3);
        assert_eq!(st.columns[0].ndv, 2);
        assert_eq!(st.columns[1].ndv, 2);
        assert_eq!(st.columns[1].null_count, 1);
        assert!(st.columns[0].histogram.is_some());
        assert!(st.columns[1].histogram.is_none());
    }

    #[test]
    fn column_stats_fallback_selectivity() {
        let t = table_with_ints(&[1, 2, 3, 4]);
        let st = TableStats::analyze(&t).unwrap();
        let c = st.column(0).unwrap();
        let s = c.eq_selectivity(&Value::Int64(2));
        assert!(s > 0.0 && s <= 1.0);
        // string value on int column → 1/ndv fallback
        assert!((c.eq_selectivity(&Value::str("x")) - 0.25).abs() < 1e-9);
    }
}
