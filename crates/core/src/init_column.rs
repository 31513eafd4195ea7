//! Initial query-column selection (§6.1).
//!
//! MATE fetches candidate tables through a *single* key column; picking the
//! column that matches the fewest posting-list items dominates the fetch
//! cost. The true optimum requires the index (the oracle baselines); MATE's
//! heuristic needs only the query table: minimum cardinality.

use crate::config::InitColumnHeuristic;
use mate_index::PostingSource;
use mate_table::{ColId, ColumnStats, Table};

/// Chooses the initial column among the key columns `q_cols` of `query`.
///
/// The oracle strategies consult the posting source for actual posting-list
/// item counts (list lengths come from the header alone — in cold mode no
/// payload is decoded); the heuristics use only query-table statistics.
///
/// # Panics
/// Panics if `q_cols` is empty or `Fixed(i)` is out of bounds.
pub fn select_initial_column(
    query: &Table,
    q_cols: &[ColId],
    heuristic: InitColumnHeuristic,
    index: &dyn PostingSource,
) -> ColId {
    assert!(
        !q_cols.is_empty(),
        "composite key must have at least one column"
    );
    match heuristic {
        InitColumnHeuristic::MinCardinality => *q_cols
            .iter()
            .min_by_key(|&&c| {
                let s = ColumnStats::compute(c, query.column(c));
                (s.cardinality, c.0)
            })
            // panic-exempt: min over `q_cols`, asserted non-empty above.
            .unwrap(),
        // panic-exempt: min over `q_cols`, asserted non-empty above.
        InitColumnHeuristic::ColumnOrder => *q_cols.iter().min_by_key(|c| c.0).unwrap(),
        InitColumnHeuristic::LongestString => *q_cols
            .iter()
            .max_by_key(|&&c| {
                let s = ColumnStats::compute(c, query.column(c));
                (s.max_value_len, std::cmp::Reverse(c.0))
            })
            // panic-exempt: max over `q_cols`, asserted non-empty above.
            .unwrap(),
        InitColumnHeuristic::WorstOracle => *q_cols
            .iter()
            .max_by_key(|&&c| (pl_items_for_column(query, c, index), std::cmp::Reverse(c.0)))
            // panic-exempt: max over `q_cols`, asserted non-empty above.
            .unwrap(),
        InitColumnHeuristic::BestOracle => *q_cols
            .iter()
            .min_by_key(|&&c| (pl_items_for_column(query, c, index), c.0))
            // panic-exempt: min over `q_cols`, asserted non-empty above.
            .unwrap(),
        InitColumnHeuristic::Fixed(i) => {
            assert!(
                i < q_cols.len(),
                "Fixed({i}) out of bounds for |Q| = {}",
                q_cols.len()
            );
            q_cols[i]
        }
    }
}

/// Total posting-list items the distinct values of `col` would fetch.
pub fn pl_items_for_column(query: &Table, col: ColId, index: &dyn PostingSource) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut scratch = mate_index::ProbeScratch::new();
    let mut total = 0usize;
    for v in query.column(col).iter() {
        if v.is_empty() || !seen.insert(v) {
            continue;
        }
        if let Some(list) = index.find_list(v, &mut scratch) {
            total += list.len as usize;
        }
    }
    total
}

/// Number of distinct posting lists (values with hits) `col` would fetch —
/// the metric reported in §7.5.4.
pub fn pl_lists_for_column(query: &Table, col: ColId, index: &dyn PostingSource) -> usize {
    let mut seen = std::collections::HashSet::new();
    let mut scratch = mate_index::ProbeScratch::new();
    let mut total = 0usize;
    for v in query.column(col).iter() {
        if v.is_empty() || !seen.insert(v) {
            continue;
        }
        if index.find_list(v, &mut scratch).is_some() {
            total += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_index::{IndexBuilder, InvertedIndex};
    use mate_table::{Corpus, TableBuilder};

    /// Corpus where "common" appears everywhere and "rare" once.
    fn setup() -> (Corpus, InvertedIndex, Table) {
        let mut c = Corpus::new();
        for i in 0..5 {
            c.add_table(
                TableBuilder::new(format!("t{i}"), ["x", "y"])
                    .row(["common", &format!("u{i}")])
                    .row(["common", "shared"])
                    .build(),
            );
        }
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        // Query: col0 has 1 distinct value ("common", many hits);
        // col1 has 2 distinct values with few hits; col2 long strings.
        let q = TableBuilder::new("q", ["a", "b", "c"])
            .row(["common", "u1", "a very long string value"])
            .row(["common", "shared", "tiny"])
            .build();
        (c, idx, q)
    }

    #[test]
    fn min_cardinality_picks_fewest_distinct() {
        let (_, idx, q) = setup();
        let cols = [ColId(0), ColId(1)];
        let c = select_initial_column(&q, &cols, InitColumnHeuristic::MinCardinality, idx.store());
        assert_eq!(c, ColId(0)); // 1 distinct < 2 distinct
    }

    #[test]
    fn column_order_picks_first() {
        let (_, idx, q) = setup();
        let c = select_initial_column(
            &q,
            &[ColId(2), ColId(1)],
            InitColumnHeuristic::ColumnOrder,
            idx.store(),
        );
        assert_eq!(c, ColId(1));
    }

    #[test]
    fn longest_string_picks_col2() {
        let (_, idx, q) = setup();
        let c = select_initial_column(
            &q,
            &[ColId(0), ColId(1), ColId(2)],
            InitColumnHeuristic::LongestString,
            idx.store(),
        );
        assert_eq!(c, ColId(2));
    }

    #[test]
    fn oracles_bracket_the_heuristic() {
        let (_, idx, q) = setup();
        let cols = [ColId(0), ColId(1)];
        let best = select_initial_column(&q, &cols, InitColumnHeuristic::BestOracle, idx.store());
        let worst = select_initial_column(&q, &cols, InitColumnHeuristic::WorstOracle, idx.store());
        // col0 fetches 10 items ("common" in 5 tables × 2 rows); col1 fetches
        // 1 ("u1") + 5 ("shared") = 6.
        assert_eq!(pl_items_for_column(&q, ColId(0), idx.store()), 10);
        assert_eq!(pl_items_for_column(&q, ColId(1), idx.store()), 6);
        assert_eq!(best, ColId(1));
        assert_eq!(worst, ColId(0));
    }

    #[test]
    fn pl_lists_counts_distinct_hit_values() {
        let (_, idx, q) = setup();
        assert_eq!(pl_lists_for_column(&q, ColId(0), idx.store()), 1);
        assert_eq!(pl_lists_for_column(&q, ColId(1), idx.store()), 2);
        assert_eq!(pl_lists_for_column(&q, ColId(2), idx.store()), 0);
    }

    #[test]
    fn fixed_heuristic() {
        let (_, idx, q) = setup();
        let c = select_initial_column(
            &q,
            &[ColId(2), ColId(0)],
            InitColumnHeuristic::Fixed(1),
            idx.store(),
        );
        assert_eq!(c, ColId(0));
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_key_rejected() {
        let (_, idx, q) = setup();
        select_initial_column(&q, &[], InitColumnHeuristic::MinCardinality, idx.store());
    }
}
