//! Dynamically typed scalar values.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{QError, QResult};

/// The logical data types supported by the engine.
///
/// The set mirrors what the paper's TPC-H workloads require: integers for
/// keys and grouping attributes, floats for prices/discounts, strings for
/// names, booleans for predicates, and `Null` for missing data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int64,
    Float64,
    Utf8,
    /// The type of the SQL NULL literal before coercion.
    Null,
}

impl DataType {
    /// Whether values of this type may be used as join/grouping keys.
    ///
    /// Floats are excluded because their bit patterns do not define a sound
    /// equality for hashing (NaN, -0.0).
    pub fn is_key_type(self) -> bool {
        matches!(self, DataType::Bool | DataType::Int64 | DataType::Utf8)
    }

    /// Whether this type supports arithmetic.
    pub fn is_numeric(self) -> bool {
        matches!(self, DataType::Int64 | DataType::Float64)
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOLEAN",
            DataType::Int64 => "BIGINT",
            DataType::Float64 => "DOUBLE",
            DataType::Utf8 => "VARCHAR",
            DataType::Null => "NULL",
        };
        f.write_str(s)
    }
}

/// A dynamically typed scalar value.
///
/// Strings are reference counted so that copying rows through the Volcano
/// iterator chain does not reallocate payloads.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int64(i64),
    Float64(f64),
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The [`DataType`] of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int64(_) => DataType::Int64,
            Value::Float64(_) => DataType::Float64,
            Value::Str(_) => DataType::Utf8,
        }
    }

    /// True iff this value is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Extract an `i64`, erroring on any other type.
    pub fn as_i64(&self) -> QResult<i64> {
        match self {
            Value::Int64(v) => Ok(*v),
            other => Err(QError::type_err(format!(
                "expected BIGINT, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract an `f64`, transparently widening integers.
    pub fn as_f64(&self) -> QResult<f64> {
        match self {
            Value::Float64(v) => Ok(*v),
            Value::Int64(v) => Ok(*v as f64),
            other => Err(QError::type_err(format!(
                "expected DOUBLE, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a `bool`, erroring on any other type.
    pub fn as_bool(&self) -> QResult<bool> {
        match self {
            Value::Bool(v) => Ok(*v),
            other => Err(QError::type_err(format!(
                "expected BOOLEAN, got {}",
                other.data_type()
            ))),
        }
    }

    /// Extract a string slice, erroring on any other type.
    pub fn as_str(&self) -> QResult<&str> {
        match self {
            Value::Str(v) => Ok(v),
            other => Err(QError::type_err(format!(
                "expected VARCHAR, got {}",
                other.data_type()
            ))),
        }
    }

    /// SQL three-valued comparison: `None` when either side is NULL or the
    /// types are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int64(a), Value::Int64(b)) => Some(a.cmp(b)),
            (Value::Float64(a), Value::Float64(b)) => a.partial_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).partial_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.as_ref().cmp(b.as_ref())),
            _ => None,
        }
    }

    /// SQL equality (three-valued; NULL = anything is `None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Total ordering used by the sort operator: NULLs sort first, values of
    /// different types are ordered by a type rank so the order is total.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int64(_) => 2,
                Value::Float64(_) => 2, // numerics share a rank and compare by value
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Float64(a), Value::Float64(b)) => a.total_cmp(b),
            (Value::Int64(a), Value::Float64(b)) => (*a as f64).total_cmp(b),
            (Value::Float64(a), Value::Int64(b)) => a.total_cmp(&(*b as f64)),
            _ => match rank(self).cmp(&rank(other)) {
                Ordering::Equal => self.sql_cmp(other).unwrap_or(Ordering::Equal),
                o => o,
            },
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality (NULL == NULL here); SQL semantics live in
        // `sql_eq`. This impl is what tests and collections rely on.
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int64(a), Value::Int64(b)) => a == b,
            (Value::Float64(a), Value::Float64(b)) => a.to_bits() == b.to_bits(),
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_classification() {
        assert!(DataType::Int64.is_key_type());
        assert!(DataType::Utf8.is_key_type());
        assert!(!DataType::Float64.is_key_type());
        assert!(DataType::Float64.is_numeric());
        assert!(!DataType::Utf8.is_numeric());
    }

    #[test]
    fn accessors_enforce_types() {
        assert_eq!(Value::Int64(7).as_i64().unwrap(), 7);
        assert!(Value::str("x").as_i64().is_err());
        assert_eq!(Value::Int64(7).as_f64().unwrap(), 7.0);
        assert!(Value::Bool(true).as_bool().unwrap());
        assert_eq!(Value::str("ab").as_str().unwrap(), "ab");
        assert!(Value::Null.as_bool().is_err());
    }

    #[test]
    fn sql_cmp_is_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int64(1)), None);
        assert_eq!(
            Value::Int64(1).sql_cmp(&Value::Int64(2)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int64(2).sql_cmp(&Value::Float64(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(Value::str("a").sql_cmp(&Value::Int64(1)), None);
        assert_eq!(Value::Int64(1).sql_eq(&Value::Int64(1)), Some(true));
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn total_cmp_sorts_nulls_first_and_mixed_types() {
        let mut vals = [
            Value::str("b"),
            Value::Int64(3),
            Value::Null,
            Value::Float64(1.5),
            Value::Int64(1),
        ];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int64(1));
        assert_eq!(vals[2], Value::Float64(1.5));
        assert_eq!(vals[3], Value::Int64(3));
        assert_eq!(vals[4], Value::str("b"));
    }

    #[test]
    fn structural_eq_handles_floats_bitwise() {
        assert_eq!(Value::Float64(f64::NAN), Value::Float64(f64::NAN));
        assert_ne!(Value::Float64(0.0), Value::Float64(-0.0));
        assert_eq!(Value::Float64(1.0), Value::Float64(1.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int64(-4).to_string(), "-4");
        assert_eq!(Value::str("hi").to_string(), "hi");
    }
}
