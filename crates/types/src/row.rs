//! The tuple representation flowing between operators.

use std::fmt;

use crate::error::{QError, QResult};
use crate::key::Key;
use crate::value::Value;

/// A row (tuple) of dynamically typed values.
///
/// Rows are the unit of exchange in the Volcano iterator model: each
/// `getnext()` call produces one [`Row`]. The paper's *gnm* progress measure
/// is literally a count of these productions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Row {
    values: Vec<Value>,
}

impl Row {
    /// Build a row from a vector of values.
    pub fn new(values: Vec<Value>) -> Self {
        Row { values }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// True iff the row has no columns.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Borrow the value at `idx`, erroring when out of bounds.
    pub fn get(&self, idx: usize) -> QResult<&Value> {
        self.values.get(idx).ok_or_else(|| {
            QError::internal(format!(
                "column index {idx} out of bounds for row of arity {}",
                self.values.len()
            ))
        })
    }

    /// Borrow all values.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Consume the row, returning its values.
    pub fn into_values(self) -> Vec<Value> {
        self.values
    }

    /// Extract a single-column [`Key`] from column `idx`.
    pub fn key(&self, idx: usize) -> QResult<Key> {
        Key::from_value(self.get(idx)?)
    }

    /// Concatenate two rows (used by join operators).
    pub fn concat(&self, other: &Row) -> Row {
        let mut values = Vec::with_capacity(self.values.len() + other.values.len());
        values.extend_from_slice(&self.values);
        values.extend_from_slice(&other.values);
        Row { values }
    }

    /// Project the row onto the given column indices.
    pub fn project(&self, cols: &[usize]) -> QResult<Row> {
        let mut values = Vec::with_capacity(cols.len());
        for &c in cols {
            values.push(self.get(c)?.clone());
        }
        Ok(Row { values })
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row::new(values)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

/// Build a row from literal-convertible values: `row![1i64, "x", 2.5]`.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let r = row![1i64, "a", 2.5];
        assert_eq!(r.arity(), 3);
        assert_eq!(r.get(0).unwrap(), &Value::Int64(1));
        assert_eq!(r.get(1).unwrap(), &Value::str("a"));
        assert!(r.get(3).is_err());
        assert!(!r.is_empty());
        assert!(Row::default().is_empty());
    }

    #[test]
    fn concat_preserves_order() {
        let a = row![1i64, 2i64];
        let b = row!["x"];
        let c = a.concat(&b);
        assert_eq!(c.arity(), 3);
        assert_eq!(c.get(2).unwrap(), &Value::str("x"));
        // concat does not mutate inputs
        assert_eq!(a.arity(), 2);
    }

    #[test]
    fn project_selects_and_reorders() {
        let r = row![10i64, 20i64, 30i64];
        let p = r.project(&[2, 0]).unwrap();
        assert_eq!(p.values(), &[Value::Int64(30), Value::Int64(10)]);
        assert!(r.project(&[5]).is_err());
    }

    #[test]
    fn key_extraction() {
        let r = row![7i64, "k"];
        assert_eq!(r.key(0).unwrap(), Key::Int(7));
    }

    #[test]
    fn display_and_size() {
        let r = row![1i64, "ab"];
        assert_eq!(r.to_string(), "[1, ab]");
    }
}
