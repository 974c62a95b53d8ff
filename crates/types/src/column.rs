//! Typed column lanes: a [`RowBatch`](crate::RowBatch) column is one plain
//! vector of `i64`, `f64`, `bool` or `Arc<str>` cells plus a validity mask
//! that stays empty while no cell is NULL, so copying, gathering and
//! dropping cells is slice work with no per-cell tag.

use std::cmp::Ordering;
use std::sync::Arc;

use crate::error::{QError, QResult};
use crate::key::Key;
use crate::value::{DataType, Value};

/// A column's cells; a NULL cell holds its type's default.
#[derive(Debug, Clone)]
enum Lane {
    /// Every cell is NULL; the mask holds one `false` per cell.
    Null,
    Bool(Vec<bool>),
    Int64(Vec<i64>),
    Float64(Vec<f64>),
    Utf8(Vec<Arc<str>>),
}

/// One typed column of a batch.
#[derive(Debug, Clone)]
pub struct Column {
    lane: Lane,
    /// `valid[r]` is false iff cell `r` is NULL; empty while none is.
    valid: Vec<bool>,
}

/// `$body` over the vector of a typed lane bound as `$v`, `$null` for the
/// NULL lane.
macro_rules! each_lane {
    ($lane:expr, $v:ident => $body:expr, $null:expr) => {
        match $lane {
            Lane::Null => $null,
            Lane::Bool($v) => $body,
            Lane::Int64($v) => $body,
            Lane::Float64($v) => $body,
            Lane::Utf8($v) => $body,
        }
    };
}

/// `$body` over the vectors of two lanes of one type, bound as `$d`/`$s`;
/// lanes of two types are a bug of the caller's schema.
macro_rules! lane_pair {
    ($dst:expr, $src:expr, ($d:ident, $s:ident) => $body:expr, $null:expr) => {
        match ($dst, $src) {
            (Lane::Null, Lane::Null) => $null,
            (Lane::Bool($d), Lane::Bool($s)) => $body,
            (Lane::Int64($d), Lane::Int64($s)) => $body,
            (Lane::Float64($d), Lane::Float64($s)) => $body,
            (Lane::Utf8($d), Lane::Utf8($s)) => $body,
            _ => panic!("cells gathered into a lane of another type"),
        }
    };
}

impl Column {
    /// An empty column of type `ty` with room for `capacity` cells.
    pub fn with_capacity(ty: DataType, capacity: usize) -> Column {
        let lane = match ty {
            DataType::Null => Lane::Null,
            DataType::Bool => Lane::Bool(Vec::with_capacity(capacity)),
            DataType::Int64 => Lane::Int64(Vec::with_capacity(capacity)),
            DataType::Float64 => Lane::Float64(Vec::with_capacity(capacity)),
            DataType::Utf8 => Lane::Utf8(Vec::with_capacity(capacity)),
        };
        let valid = Vec::new();
        Column { lane, valid }
    }

    /// The cells of a BIGINT column.
    pub fn ints(&self) -> Option<&[i64]> {
        match &self.lane {
            Lane::Int64(v) => Some(v),
            _ => None,
        }
    }

    /// The column's type.
    pub fn data_type(&self) -> DataType {
        match self.lane {
            Lane::Null => DataType::Null,
            Lane::Bool(_) => DataType::Bool,
            Lane::Int64(_) => DataType::Int64,
            Lane::Float64(_) => DataType::Float64,
            Lane::Utf8(_) => DataType::Utf8,
        }
    }

    /// Number of cells.
    pub(crate) fn len(&self) -> usize {
        each_lane!(&self.lane, v => v.len(), self.valid.len())
    }

    /// False iff cell `r` is NULL.
    #[inline]
    pub fn is_valid(&self, r: usize) -> bool {
        self.valid.is_empty() || self.valid[r]
    }

    /// Cell `r` as a [`Value`].
    pub fn value(&self, r: usize) -> Value {
        match &self.lane {
            _ if !self.is_valid(r) => Value::Null,
            Lane::Null => Value::Null,
            Lane::Bool(v) => Value::Bool(v[r]),
            Lane::Int64(v) => Value::Int64(v[r]),
            Lane::Float64(v) => Value::Float64(v[r]),
            Lane::Utf8(v) => Value::Str(Arc::clone(&v[r])),
        }
    }

    /// Append `value`. NULL fits every lane; any other value of another
    /// type is a type error that appends nothing, never a cast.
    pub fn push(&mut self, value: Value) -> QResult<()> {
        let (n, null, want) = (self.len(), value.is_null(), self.data_type());
        match (&mut self.lane, value) {
            (Lane::Bool(v), Value::Bool(b)) => v.push(b),
            (Lane::Int64(v), Value::Int64(i)) => v.push(i),
            (Lane::Float64(v), Value::Float64(f)) => v.push(f),
            (Lane::Utf8(v), Value::Str(s)) => v.push(s),
            (lane, Value::Null) => each_lane!(lane, v => v.push(Default::default()), ()),
            (_, value) => {
                let got = value.data_type();
                let msg = format!("a {want} column cannot hold the {got} value {value}");
                return Err(QError::type_err(msg));
            }
        }
        self.extend_valid(n, 1, null.then_some([false].into_iter()));
        Ok(())
    }

    /// Grow the mask over `n` cells appended from `start` on: `cells` when
    /// any may be NULL, all valid when `None`.
    fn extend_valid(&mut self, start: usize, n: usize, cells: Option<impl Iterator<Item = bool>>) {
        match cells {
            Some(cells) => {
                self.valid.resize(start, true);
                self.valid.extend(cells);
            }
            None if !self.valid.is_empty() => self.valid.resize(start + n, true),
            None => {}
        }
    }

    /// Append the cells of `src` at `rows`, in order, `None` appending a
    /// NULL. A row past the end of `src` panics.
    pub(crate) fn gather(
        &mut self,
        src: &Column,
        rows: impl ExactSizeIterator<Item = Option<usize>> + Clone,
    ) {
        let start = self.len();
        lane_pair!(&mut self.lane, &src.lane, (d, s) => d.extend(
            rows.clone().map(|r| r.map(|r| &s[r]).cloned().unwrap_or_default())
        ), rows.clone().flatten().for_each(|r| _ = src.valid[r]));
        let masked = !src.valid.is_empty() || matches!(src.lane, Lane::Null);
        let cells = rows.clone().map(|r| r.is_some_and(|r| src.is_valid(r)));
        let masked = masked || rows.clone().any(|r| r.is_none());
        self.extend_valid(start, rows.len(), masked.then_some(cells));
    }

    /// Keep the first `len` cells.
    pub(crate) fn truncate(&mut self, len: usize) {
        each_lane!(&mut self.lane, v => v.truncate(len), ());
        self.valid.truncate(len);
    }

    /// Cell `r` as a [`Key`]; a DOUBLE cell, never a key, is NULL (key
    /// columns reject DOUBLE by type, [`Key::check_type`], before reading).
    pub fn key(&self, r: usize) -> Key {
        match &self.lane {
            _ if !self.is_valid(r) => Key::Null,
            Lane::Null | Lane::Float64(_) => Key::Null,
            Lane::Bool(v) => Key::Bool(v[r]),
            Lane::Int64(v) => Key::Int(v[r]),
            Lane::Utf8(v) => Key::Str(Arc::clone(&v[r])),
        }
    }

    /// [`Value::total_cmp`] of cell `i` and `other`'s cell `j`, NULLs first;
    /// key cells are equal exactly when structurally equal.
    #[inline]
    pub fn cell_cmp(&self, i: usize, other: &Column, j: usize) -> Ordering {
        let valid = self.is_valid(i) && other.is_valid(j);
        match (valid, &self.lane, &other.lane) {
            (true, Lane::Bool(a), Lane::Bool(b)) => a[i].cmp(&b[j]),
            (true, Lane::Int64(a), Lane::Int64(b)) => a[i].cmp(&b[j]),
            (true, Lane::Float64(a), Lane::Float64(b)) => a[i].total_cmp(&b[j]),
            (true, Lane::Utf8(a), Lane::Utf8(b)) => a[i].cmp(&b[j]),
            _ => self.value(i).total_cmp(&other.value(j)),
        }
    }
}
