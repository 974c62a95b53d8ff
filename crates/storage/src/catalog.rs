//! The system catalog: table registry plus statistics.

use std::collections::BTreeMap;
use std::sync::Arc;

use qprog_types::{QError, QResult};

use crate::stats::TableStats;
use crate::table::Table;

/// Maps table names to tables and their ANALYZE-time statistics.
///
/// Statistics are computed eagerly on registration, mirroring a freshly
/// analyzed database — the paper assumes base-table sizes are "usually
/// available in the system catalogs" (§3).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    stats: BTreeMap<String, Arc<TableStats>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Register a table, computing its statistics. Replaces any existing
    /// table of the same name.
    pub fn register(&mut self, table: Table) -> QResult<()> {
        let stats = TableStats::analyze(&table)?;
        let name = table.name().to_string();
        self.tables.insert(name.clone(), Arc::new(table));
        self.stats.insert(name, Arc::new(stats));
        Ok(())
    }

    /// Look up a table by name (case-insensitive).
    pub fn table(&self, name: &str) -> QResult<Arc<Table>> {
        self.lookup(&self.tables, name)
            .ok_or_else(|| QError::TableNotFound(name.to_string()))
    }

    /// Look up a table's statistics by name (case-insensitive).
    pub fn stats(&self, name: &str) -> QResult<Arc<TableStats>> {
        self.lookup(&self.stats, name)
            .ok_or_else(|| QError::TableNotFound(name.to_string()))
    }

    fn lookup<T: Clone>(&self, map: &BTreeMap<String, T>, name: &str) -> Option<T> {
        map.get(name).cloned().or_else(|| {
            map.iter()
                .find(|(k, _)| k.eq_ignore_ascii_case(name))
                .map(|(_, v)| v.clone())
        })
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{row, DataType, Field, Schema};

    fn small_table(name: &str) -> Table {
        let mut t = Table::new(name, Schema::new(vec![Field::new("a", DataType::Int64)]));
        for i in 0..10 {
            t.push(row![i]).unwrap();
        }
        t
    }

    #[test]
    fn register_and_lookup() {
        let mut c = Catalog::new();
        assert!(c.is_empty());
        c.register(small_table("orders")).unwrap();
        assert_eq!(c.len(), 1);
        assert_eq!(c.table("orders").unwrap().num_rows(), 10);
        assert_eq!(c.stats("orders").unwrap().row_count, 10);
        assert!(c.table("lineitem").is_err());
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let mut c = Catalog::new();
        c.register(small_table("Orders")).unwrap();
        assert!(c.table("orders").is_ok());
        assert!(c.stats("ORDERS").is_ok());
    }

    #[test]
    fn reregistration_replaces() {
        let mut c = Catalog::new();
        c.register(small_table("t")).unwrap();
        let mut bigger = small_table("t");
        bigger.push(row![99i64]).unwrap();
        c.register(bigger).unwrap();
        assert_eq!(c.table("t").unwrap().num_rows(), 11);
        assert_eq!(c.stats("t").unwrap().row_count, 11);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn table_names_sorted() {
        let mut c = Catalog::new();
        c.register(small_table("b")).unwrap();
        c.register(small_table("a")).unwrap();
        assert_eq!(c.table_names(), vec!["a", "b"]);
    }
}
