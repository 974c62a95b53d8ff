//! In-memory, block-structured storage for the `qprog` engine.
//!
//! The paper's framework needs three things from the storage layer:
//!
//! 1. **Block-level random samples**: table scans must be able to deliver a
//!    random sample of a requested size *first*, then the remainder of the
//!    table excluding the sampled blocks (§3, §5 of the paper). [`ScanOrder`]
//!    provides exactly that permutation of block ids.
//! 2. **Base-table statistics** for the optimizer's initial cardinality
//!    estimates (row counts, min/max, distinct counts, equi-width
//!    histograms) — see [`stats`].
//! 3. A **catalog** mapping table names to tables and their statistics —
//!    see [`catalog`].
//!
//! Storage owns no row container of its own: a [`Table`]'s blocks are
//! [`RowBatch`](qprog_types::RowBatch)es of at most [`BLOCK_CAPACITY`]
//! rows, the same columnar batch every operator reads, so scans copy
//! column slices and ANALYZE reads block columns without building a row.

pub mod catalog;
pub mod sample;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use sample::ScanOrder;
pub use stats::{ColumnStats, EquiWidthHistogram, TableStats};
pub use table::{Table, BLOCK_CAPACITY};
