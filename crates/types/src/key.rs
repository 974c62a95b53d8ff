//! Hashable, equatable join/grouping keys.
//!
//! The estimation framework maintains exact frequency histograms keyed by
//! attribute value (the `N_i` counts of the paper). [`Key`] is the subset of
//! [`Value`](crate::Value) that supports sound hashing and equality, plus a
//! compact composite form for multi-column keys.

use std::fmt;
use std::sync::Arc;

use crate::error::{QError, QResult};
use crate::value::{DataType, Value};

/// A single-column join or grouping key.
///
/// `Null` keys are representable so that grouping can place all NULLs in one
/// group; equi-joins must filter them out (NULL never equi-joins in SQL),
/// which the join operators do before consulting their histograms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Key {
    Null,
    Bool(bool),
    Int(i64),
    Str(Arc<str>),
    /// A composite key over multiple columns (conjunctive multi-attribute
    /// join conditions, multi-column grouping).
    Composite(Arc<[Key]>),
}

impl Key {
    /// Convert a [`Value`] into a key, rejecting non-key types (floats).
    pub fn from_value(v: &Value) -> QResult<Key> {
        Key::check_type(v.data_type())?;
        Ok(match v {
            Value::Bool(b) => Key::Bool(*b),
            Value::Int64(i) => Key::Int(*i),
            Value::Str(s) => Key::Str(Arc::clone(s)),
            Value::Null | Value::Float64(_) => Key::Null,
        })
    }

    /// Reject DOUBLE, a type whose bit patterns define no sound equality.
    pub fn check_type(ty: DataType) -> QResult<()> {
        let msg = "DOUBLE columns cannot be join/grouping keys";
        (ty != DataType::Float64)
            .then_some(())
            .ok_or_else(|| QError::type_err(msg))
    }

    /// Build a composite key from parts. A composite containing any NULL
    /// part is itself considered NULL for equi-join purposes.
    pub fn composite(parts: Vec<Key>) -> Key {
        Key::Composite(Arc::from(parts))
    }

    /// True iff this key is the NULL key (a composite counts as NULL when
    /// any component is — SQL conjunctive equality cannot hold then).
    pub fn is_null(&self) -> bool {
        match self {
            Key::Null => true,
            Key::Composite(parts) => parts.iter().any(Key::is_null),
            _ => false,
        }
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Key::Null => f.write_str("NULL"),
            Key::Bool(b) => write!(f, "{b}"),
            Key::Int(i) => write!(f, "{i}"),
            Key::Str(s) => write!(f, "{s}"),
            Key::Composite(parts) => {
                write!(f, "(")?;
                for (i, k) in parts.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl From<i64> for Key {
    fn from(v: i64) -> Self {
        Key::Int(v)
    }
}

impl From<&str> for Key {
    fn from(v: &str) -> Self {
        Key::Str(Arc::from(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn from_value_accepts_key_types() {
        assert_eq!(Key::from_value(&Value::Int64(3)).unwrap(), Key::Int(3));
        assert_eq!(
            Key::from_value(&Value::str("x")).unwrap(),
            Key::Str(Arc::from("x"))
        );
        assert_eq!(Key::from_value(&Value::Null).unwrap(), Key::Null);
        assert!(Key::from_value(&Value::Float64(1.0)).is_err());
    }

    #[test]
    fn keys_work_in_hash_maps() {
        let mut m: HashMap<Key, u64> = HashMap::new();
        *m.entry(Key::Int(5)).or_default() += 1;
        *m.entry(Key::Int(5)).or_default() += 1;
        *m.entry(Key::from("a")).or_default() += 1;
        assert_eq!(m[&Key::Int(5)], 2);
        assert_eq!(m[&Key::from("a")], 1);
    }

    #[test]
    fn composite_key_variant() {
        let k = Key::composite(vec![Key::Int(1), Key::from("a")]);
        assert_eq!(k.to_string(), "(1, a)");
        assert!(!k.is_null());
        let n = Key::composite(vec![Key::Int(1), Key::Null]);
        assert!(n.is_null());
        // usable in maps
        let mut m = HashMap::new();
        m.insert(k.clone(), 5);
        assert_eq!(m[&Key::composite(vec![Key::Int(1), Key::from("a")])], 5);
    }
}
