//! Fundamental data types shared by every `qprog` crate.
//!
//! This crate defines the dynamically typed [`Value`], the [`Row`] at the
//! engine's edges, the [`RowBatch`] of typed [`Column`] lanes between
//! operators, [`Schema`]/[`Field`] metadata, the hashable [`Key`] of join
//! and grouping attributes, and the crate-wide [`QError`]/[`QResult`].
//!
//! It deliberately has no dependencies: everything above it (storage,
//! execution, planning, the estimation framework) builds on these types.

pub mod batch;
pub mod column;
pub mod error;
pub mod json;
pub mod key;
pub mod row;
pub mod schema;
pub mod value;

pub use batch::{BatchStatus, RowBatch, DEFAULT_BATCH_ROWS, NO_ROW};
pub use column::Column;
pub use error::{ExecError, QError, QResult};
pub use key::Key;
pub use row::Row;
pub use schema::{Field, Schema, SchemaRef};
pub use value::{DataType, Value};
