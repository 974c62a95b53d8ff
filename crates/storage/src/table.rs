//! In-memory tables.

use std::sync::Arc;

use qprog_types::{QError, QResult, Row, RowBatch, Schema, SchemaRef};

/// Rows per block: few enough that a sample fraction of a few percent still
/// selects many blocks, enough that per-block bookkeeping is negligible.
pub const BLOCK_CAPACITY: usize = 256;

/// A named in-memory table: a sequence of [`RowBatch`] blocks of at most
/// [`BLOCK_CAPACITY`] rows, so that scans can sample whole blocks (the
/// paper's block-level sampling) and copy column slices straight out.
///
/// Rows are type-checked against the schema on insertion so that downstream
/// operators can rely on column types without re-validating.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: SchemaRef,
    blocks: Vec<RowBatch>,
    num_rows: usize,
}

impl Table {
    /// An empty table with the given name and schema. Fields are qualified
    /// with the table name so that joins can disambiguate columns.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        let name = name.into();
        let schema = schema.with_qualifier(&name).into_ref();
        Table {
            name,
            schema,
            blocks: Vec::new(),
            num_rows: 0,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Table schema (fields qualified with the table name).
    pub fn schema(&self) -> &SchemaRef {
        &self.schema
    }

    /// Total number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// All blocks, in storage order.
    pub fn blocks(&self) -> &[RowBatch] {
        &self.blocks
    }

    /// Append a row, validating arity, nullability and column types.
    pub fn push(&mut self, row: Row) -> QResult<()> {
        if row.arity() != self.schema.arity() {
            return Err(QError::schema(format!(
                "row arity {} does not match schema arity {} for table `{}`",
                row.arity(),
                self.schema.arity(),
                self.name
            )));
        }
        for (field, v) in self.schema.fields().iter().zip(row.values()) {
            if v.is_null() && !field.nullable {
                return Err(QError::schema(format!(
                    "NULL in non-nullable column `{}` of `{}`",
                    field.name, self.name
                )));
            }
        }
        if self.blocks.last().is_none_or(RowBatch::is_full) {
            let block = RowBatch::with_capacity(self.schema.types(), BLOCK_CAPACITY);
            self.blocks.push(block);
        }
        self.blocks
            .last_mut()
            .expect("block just ensured")
            .push_drain(&mut row.into_values())?;
        self.num_rows += 1;
        Ok(())
    }

    /// Append many rows.
    pub fn extend(&mut self, rows: impl IntoIterator<Item = Row>) -> QResult<()> {
        for r in rows {
            self.push(r)?;
        }
        Ok(())
    }

    /// Iterate over all rows in storage order, materializing each from the
    /// columnar blocks (for tests and examples; scans and ANALYZE read the
    /// block columns directly).
    pub fn iter(&self) -> impl Iterator<Item = Row> + '_ {
        self.blocks
            .iter()
            .flat_map(|b| (0..b.len()).map(|r| b.row(r)))
    }

    /// Wrap in an [`Arc`] for registration in a catalog.
    pub fn into_shared(self) -> Arc<Table> {
        Arc::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{row, DataType, Field, Value};

    fn two_col_table() -> Table {
        Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64),
                Field::new("b", DataType::Utf8).with_nullable(true),
            ]),
        )
    }

    #[test]
    fn schema_is_qualified_with_table_name() {
        let t = two_col_table();
        assert_eq!(t.schema().index_of("t.a").unwrap(), 0);
    }

    #[test]
    fn push_validates_arity_and_types() {
        let mut t = two_col_table();
        t.push(row![1i64, "x"]).unwrap();
        assert!(t.push(row![1i64]).is_err());
        assert!(t.push(row!["bad", "x"]).is_err());
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn nullability_is_enforced() {
        let mut t = two_col_table();
        t.push(Row::new(vec![Value::Int64(1), Value::Null]))
            .unwrap();
        assert!(t
            .push(Row::new(vec![Value::Null, Value::str("x")]))
            .is_err());
    }

    #[test]
    fn rows_span_blocks() {
        let mut t = two_col_table();
        let n = BLOCK_CAPACITY * 2 + 10;
        for i in 0..n {
            t.push(row![i as i64, "r"]).unwrap();
        }
        assert_eq!(t.num_rows(), n);
        assert_eq!(t.num_blocks(), 3);
        assert!(t.blocks().iter().all(|b| b.capacity() == BLOCK_CAPACITY));
        assert_eq!(
            t.blocks()[1].col(0).value(0),
            Value::Int64(BLOCK_CAPACITY as i64)
        );
        // iteration preserves insertion order
        let collected: Vec<i64> = t
            .iter()
            .map(|r| r.get(0).unwrap().as_i64().unwrap())
            .collect();
        assert_eq!(collected, (0..n as i64).collect::<Vec<_>>());
    }

    #[test]
    fn empty_table_has_no_blocks() {
        let t = two_col_table();
        assert_eq!((t.num_blocks(), t.iter().count()), (0, 0));
    }
}
