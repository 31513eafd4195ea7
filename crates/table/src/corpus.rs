//! The [`Corpus`] — an id-addressed collection of tables (a data lake).
//!
//! The corpus is the source of truth during discovery: the index answers
//! *where* values occur, but the final joinability verification (`calculateJ`
//! in Algorithm 1 of the paper) re-reads the actual cell values from here.

use crate::ids::TableId;
use crate::table::{Column, Table};
use std::sync::Arc;

/// A collection of tables addressed by [`TableId`].
///
/// Tables sit behind per-table [`Arc`]s, so cloning a corpus is a shallow
/// spine copy (one refcount bump per table) and two clones share table
/// payloads until one of them mutates — [`Corpus::table_mut`] copies the
/// touched table on demand (`Arc::make_mut`). Value semantics are
/// unchanged: a clone never observes later mutations of its source. This
/// is what makes point-in-time corpus snapshots (the engine's Arc-snapshot
/// serving) affordable: a snapshot pins every table by reference, and a
/// writer editing one table pays for copying that table only.
#[derive(Debug, Clone, Default)]
pub struct Corpus {
    tables: Vec<Arc<Table>>,
}

impl Corpus {
    /// Creates an empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    /// Creates a corpus from a vector of tables; ids are assigned by position.
    pub fn from_tables(tables: Vec<Table>) -> Self {
        Corpus {
            tables: tables.into_iter().map(Arc::new).collect(),
        }
    }

    /// Adds a table and returns its id.
    pub fn add_table(&mut self, table: Table) -> TableId {
        let id = TableId::from(self.tables.len());
        self.tables.push(Arc::new(table));
        id
    }

    /// The table with the given id.
    ///
    /// # Panics
    /// Panics if `id` is out of bounds.
    #[inline]
    pub fn table(&self, id: TableId) -> &Table {
        &self.tables[id.index()]
    }

    /// Mutable access to a table (used by the index-update paths). If the
    /// table is shared with a corpus clone (a snapshot), it is copied first
    /// so the clone keeps its point-in-time view.
    #[inline]
    pub fn table_mut(&mut self, id: TableId) -> &mut Table {
        Arc::make_mut(&mut self.tables[id.index()])
    }

    /// The table with the given id, or `None` if out of bounds.
    pub fn get(&self, id: TableId) -> Option<&Table> {
        self.tables.get(id.index()).map(Arc::as_ref)
    }

    /// Number of tables.
    #[inline]
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True if the corpus has no tables.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates `(TableId, &Table)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TableId, &Table)> {
        self.tables
            .iter()
            .enumerate()
            .map(|(i, t)| (TableId::from(i), t.as_ref()))
    }

    /// Total number of rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|t| t.num_rows()).sum()
    }

    /// Total number of columns across all tables.
    pub fn total_cols(&self) -> usize {
        self.tables.iter().map(|t| t.num_cols()).sum()
    }

    /// Total number of cells across all tables.
    pub fn total_cells(&self) -> usize {
        self.tables
            .iter()
            .map(|t| t.num_rows() * t.num_cols())
            .sum()
    }

    /// Number of distinct normalized values in the corpus.
    ///
    /// This is `C_unique` in Eq. 5 of the paper, the quantity that determines
    /// the optimal number of 1-bits (`alpha`) per XASH result.
    pub fn count_unique_values(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        for t in &self.tables {
            for c in t.columns() {
                seen.extend(c.iter());
            }
        }
        seen.len()
    }

    /// Heap bytes the corpus holds, from capacities: the table spine and,
    /// per table, its shared allocation (two reference counts and the
    /// table), name, column spine and [`Column::heap_bytes`]. A table
    /// shared with a clone is counted in full by each.
    pub fn heap_bytes(&self) -> usize {
        let table = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Table>();
        let tables = self.tables.iter().map(|t| {
            let cols = t.columns();
            table
                + t.name.capacity()
                + std::mem::size_of_val(cols)
                + cols.iter().map(Column::heap_bytes).sum::<usize>()
        });
        self.tables.capacity() * std::mem::size_of::<Arc<Table>>() + tables.sum::<usize>()
    }
}

impl std::ops::Index<TableId> for Corpus {
    type Output = Table;
    fn index(&self, id: TableId) -> &Table {
        self.table(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        c.add_table(
            TableBuilder::new("a", ["x", "y"])
                .row(["1", "foo"])
                .row(["2", "bar"])
                .build(),
        );
        c.add_table(TableBuilder::new("b", ["z"]).row(["foo"]).build());
        c
    }

    #[test]
    fn ids_are_positional() {
        let c = corpus();
        assert_eq!(c.table(TableId(0)).name, "a");
        assert_eq!(c.table(TableId(1)).name, "b");
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn totals() {
        let c = corpus();
        assert_eq!(c.total_rows(), 3);
        assert_eq!(c.total_cols(), 3);
        assert_eq!(c.total_cells(), 5);
    }

    #[test]
    fn unique_values() {
        let c = corpus();
        // values: 1, foo, 2, bar, foo -> 4 unique
        assert_eq!(c.count_unique_values(), 4);
    }

    #[test]
    fn get_out_of_bounds() {
        let c = corpus();
        assert!(c.get(TableId(99)).is_none());
    }

    #[test]
    fn index_op() {
        let c = corpus();
        assert_eq!(c[TableId(1)].name, "b");
    }

    #[test]
    fn iter_pairs() {
        let c = corpus();
        let names: Vec<_> = c.iter().map(|(id, t)| (id.0, t.name.as_str())).collect();
        assert_eq!(names, vec![(0, "a"), (1, "b")]);
    }
}
