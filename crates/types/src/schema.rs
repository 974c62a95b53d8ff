//! Schemas: ordered, optionally table-qualified column metadata.

use std::fmt;
use std::sync::Arc;

use crate::error::{QError, QResult};
use crate::value::DataType;

/// A single column: optional table qualifier, name, type, nullability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Table (or alias) qualifier, e.g. `customer` in `customer.nationkey`.
    pub qualifier: Option<String>,
    /// Column name.
    pub name: String,
    /// Logical type.
    pub data_type: DataType,
    /// Whether NULLs may appear.
    pub nullable: bool,
}

impl Field {
    /// An unqualified, non-nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            qualifier: None,
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// A qualified, non-nullable field.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Self {
        Field {
            qualifier: Some(qualifier.into()),
            name: name.into(),
            data_type,
            nullable: false,
        }
    }

    /// Make the field nullable.
    pub fn with_nullable(mut self, nullable: bool) -> Self {
        self.nullable = nullable;
        self
    }

    /// Replace the qualifier (used when aliasing tables).
    pub fn with_qualifier(mut self, qualifier: impl Into<String>) -> Self {
        self.qualifier = Some(qualifier.into());
        self
    }

    /// `qualifier.name` when qualified, else just `name`.
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// Whether a reference (possibly qualified) matches this field.
    fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .is_some_and(|fq| fq.eq_ignore_ascii_case(q)),
        }
    }
}

impl fmt::Display for Field {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.qualified_name(), self.data_type)
    }
}

/// Shared schema handle passed between operators.
pub type SchemaRef = Arc<Schema>;

/// An ordered list of [`Field`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    fields: Vec<Field>,
}

impl Schema {
    /// Build a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Schema { fields }
    }

    /// Wrap in an [`Arc`].
    pub fn into_ref(self) -> SchemaRef {
        Arc::new(self)
    }

    /// The fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// The column types in order.
    pub fn types(&self) -> impl Iterator<Item = DataType> + '_ {
        self.fields.iter().map(|f| f.data_type)
    }

    /// Borrow the field at `idx`.
    pub fn field(&self, idx: usize) -> QResult<&Field> {
        self.fields.get(idx).ok_or_else(|| {
            QError::schema(format!(
                "field index {idx} out of bounds for schema of arity {}",
                self.fields.len()
            ))
        })
    }

    /// Resolve a column reference of the form `name` or `qualifier.name`
    /// to its index, erroring on unknown or ambiguous references.
    pub fn index_of(&self, reference: &str) -> QResult<usize> {
        let (qualifier, name) = match reference.split_once('.') {
            Some((q, n)) => (Some(q), n),
            None => (None, reference),
        };
        let mut found: Option<usize> = None;
        for (i, f) in self.fields.iter().enumerate() {
            if f.matches(qualifier, name) {
                if let Some(prev) = found {
                    return Err(QError::schema(format!(
                        "ambiguous column `{reference}`: matches both `{}` and `{}`",
                        self.fields[prev].qualified_name(),
                        f.qualified_name()
                    )));
                }
                found = Some(i);
            }
        }
        found.ok_or_else(|| QError::schema(format!("unknown column `{reference}`")))
    }

    /// Concatenate two schemas (join output schema).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = Vec::with_capacity(self.fields.len() + other.fields.len());
        fields.extend_from_slice(&self.fields);
        fields.extend_from_slice(&other.fields);
        Schema { fields }
    }

    /// Project onto the given indices.
    pub fn project(&self, cols: &[usize]) -> QResult<Schema> {
        let mut fields = Vec::with_capacity(cols.len());
        for &c in cols {
            fields.push(self.field(c)?.clone());
        }
        Ok(Schema { fields })
    }

    /// Re-qualify every field with a new table alias.
    pub fn with_qualifier(&self, qualifier: &str) -> Schema {
        Schema {
            fields: self
                .fields
                .iter()
                .map(|f| f.clone().with_qualifier(qualifier))
                .collect(),
        }
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{field}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Field::qualified("customer", "custkey", DataType::Int64),
            Field::qualified("customer", "nationkey", DataType::Int64),
            Field::qualified("nation", "nationkey", DataType::Int64),
            Field::new("comment", DataType::Utf8),
        ])
    }

    #[test]
    fn index_of_unqualified_unique() {
        let s = schema();
        assert_eq!(s.index_of("custkey").unwrap(), 0);
        assert_eq!(s.index_of("comment").unwrap(), 3);
    }

    #[test]
    fn index_of_ambiguous_errors() {
        let s = schema();
        let err = s.index_of("nationkey").unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn index_of_qualified_disambiguates() {
        let s = schema();
        assert_eq!(s.index_of("customer.nationkey").unwrap(), 1);
        assert_eq!(s.index_of("nation.nationkey").unwrap(), 2);
        assert!(s.index_of("orders.custkey").is_err());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("CUSTKEY").unwrap(), 0);
        assert_eq!(s.index_of("Customer.NationKey").unwrap(), 1);
    }

    #[test]
    fn join_concatenates() {
        let a = Schema::new(vec![Field::new("a", DataType::Int64)]);
        let b = Schema::new(vec![Field::new("b", DataType::Utf8)]);
        let j = a.join(&b);
        assert_eq!(j.arity(), 2);
        assert_eq!(j.field(1).unwrap().name, "b");
    }

    #[test]
    fn project_and_requalify() {
        let s = schema();
        let p = s.project(&[3, 0]).unwrap();
        assert_eq!(p.field(0).unwrap().name, "comment");
        assert!(s.project(&[9]).is_err());
        let rq = s.with_qualifier("c2");
        assert_eq!(rq.index_of("c2.custkey").unwrap(), 0);
        assert!(rq.index_of("customer.custkey").is_err());
    }

    #[test]
    fn display_roundtrip_readable() {
        let s = schema();
        let d = s.to_string();
        assert!(d.contains("customer.custkey BIGINT"));
        assert!(d.contains("comment VARCHAR"));
    }
}
