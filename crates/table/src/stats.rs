//! Per-column statistics used by the discovery phase.
//!
//! The initial-column-selection heuristics of §6.1/§7.5.4 need, per query
//! column: the number of distinct values (cardinality heuristic) and the
//! longest cell value (the "TLS" baseline heuristic).

use crate::ids::ColId;
use crate::table::{Column, Table};
use std::collections::HashSet;

/// Statistics of a single column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnStats {
    /// Column this was computed for.
    pub col: ColId,
    /// Number of rows (including duplicates and empties).
    pub num_rows: usize,
    /// Number of distinct non-empty values.
    pub cardinality: usize,
    /// Length (in chars) of the longest value.
    pub max_value_len: usize,
    /// Number of empty (null-like) cells.
    pub num_empty: usize,
}

impl ColumnStats {
    /// Computes statistics for one column.
    pub fn compute(col: ColId, column: &Column) -> Self {
        let mut distinct: HashSet<&str> = HashSet::with_capacity(column.len());
        let mut max_len = 0;
        let mut empty = 0;
        for v in column.iter() {
            if v.is_empty() {
                empty += 1;
                continue;
            }
            max_len = max_len.max(v.chars().count());
            distinct.insert(v);
        }
        ColumnStats {
            col,
            num_rows: column.len(),
            cardinality: distinct.len(),
            max_value_len: max_len,
            num_empty: empty,
        }
    }

    /// Computes statistics for every column of a table.
    pub fn compute_all(table: &Table) -> Vec<ColumnStats> {
        table
            .columns()
            .iter()
            .enumerate()
            .map(|(i, c)| ColumnStats::compute(ColId::from(i), c))
            .collect()
    }
}

/// Average distinct-count across a set of columns of a table (used to report
/// "Cardinality" in Table 1 of the paper).
pub fn avg_cardinality(table: &Table, cols: &[ColId]) -> f64 {
    if cols.is_empty() {
        return 0.0;
    }
    let total: usize = cols
        .iter()
        .map(|&c| ColumnStats::compute(c, table.column(c)).cardinality)
        .sum();
    total as f64 / cols.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::TableBuilder;

    #[test]
    fn basic_stats() {
        let t = TableBuilder::new("t", ["a"])
            .row(["x"])
            .row(["y"])
            .row(["x"])
            .row([""])
            .build();
        let s = ColumnStats::compute(ColId(0), &t.columns()[0]);
        assert_eq!(s.num_rows, 4);
        assert_eq!(s.cardinality, 2);
        assert_eq!(s.max_value_len, 1);
        assert_eq!(s.num_empty, 1);
    }

    #[test]
    fn longest_value() {
        let t = TableBuilder::new("t", ["a", "b"])
            .row(["aa", "welcome to the lake"])
            .row(["b", "hi"])
            .build();
        let all = ColumnStats::compute_all(&t);
        assert_eq!(all[0].max_value_len, 2);
        assert_eq!(all[1].max_value_len, 19);
    }

    #[test]
    fn avg_cardinality_over_cols() {
        let t = TableBuilder::new("t", ["a", "b"])
            .row(["x", "1"])
            .row(["y", "1"])
            .build();
        let avg = avg_cardinality(&t, &[ColId(0), ColId(1)]);
        assert!((avg - 1.5).abs() < 1e-9);
        assert_eq!(avg_cardinality(&t, &[]), 0.0);
    }

    #[test]
    fn unicode_length_counts_chars() {
        let t = TableBuilder::new("t", ["a"]).row(["äöü"]).build();
        let s = ColumnStats::compute(ColId(0), &t.columns()[0]);
        assert_eq!(s.max_value_len, 3);
    }
}
