//! Union table search on the MATE index.
//!
//! Two tables are unionable when their columns can be aligned so that
//! corresponding columns draw from the same value domains (Nargesian et al.,
//! "Table union search on open data", PVLDB 2018). The same inverted index
//! that powers join discovery answers this directly: for every query column,
//! posting lists reveal which candidate columns share values. The final
//! score aligns columns one-to-one (greedy on overlap, which is within a
//! factor 2 of the optimal assignment) and sums the per-column overlaps.

use mate_hash::fx::FxHashMap;
use mate_index::InvertedIndex;
use mate_table::{ColId, Table, TableId};

/// One unionable candidate table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnionResult {
    /// The candidate table.
    pub table: TableId,
    /// Sum of distinct-value overlaps over the aligned column pairs.
    pub score: u64,
    /// The column alignment: `(query column, candidate column, overlap)`.
    pub alignment: Vec<(ColId, ColId, u64)>,
}

/// Top-k unionable-table search over an [`InvertedIndex`].
#[derive(Debug)]
pub struct UnionSearch<'a> {
    index: &'a InvertedIndex,
}

impl<'a> UnionSearch<'a> {
    /// Creates a search over the given index.
    pub fn new(index: &'a InvertedIndex) -> Self {
        UnionSearch { index }
    }

    /// Finds the top-`k` tables unionable with `query`, considering all its
    /// columns.
    pub fn top_k(&self, query: &Table, k: usize) -> Vec<UnionResult> {
        // Per (candidate table, query col, candidate col): distinct overlap.
        let mut overlap: FxHashMap<(u32, u32, u32), u64> = FxHashMap::default();
        for (qc, col) in query.columns().iter().enumerate() {
            let mut seen = std::collections::HashSet::new();
            for v in col.iter() {
                if v.is_empty() || !seen.insert(v) {
                    continue;
                }
                if let Some(pl) = self.index.posting_list(v) {
                    // Count each (table, col) once per distinct value.
                    let mut per_col = std::collections::HashSet::new();
                    for e in pl {
                        per_col.insert((e.table.0, e.col.0));
                    }
                    for (t, c) in per_col {
                        *overlap.entry((t, qc as u32, c)).or_insert(0) += 1;
                    }
                }
            }
        }

        // Group per candidate table.
        let mut per_table: FxHashMap<u32, Vec<(u32, u32, u64)>> = FxHashMap::default();
        for ((t, qc, c), n) in overlap {
            per_table.entry(t).or_default().push((qc, c, n));
        }

        let mut results: Vec<UnionResult> = per_table
            .into_iter()
            .map(|(t, mut edges)| {
                // Greedy one-to-one matching by descending overlap.
                edges.sort_unstable_by(|a, b| b.2.cmp(&a.2).then((a.0, a.1).cmp(&(b.0, b.1))));
                let mut used_q = std::collections::HashSet::new();
                let mut used_c = std::collections::HashSet::new();
                let mut alignment = Vec::new();
                let mut score = 0;
                for (qc, c, n) in edges {
                    if used_q.contains(&qc) || used_c.contains(&c) {
                        continue;
                    }
                    used_q.insert(qc);
                    used_c.insert(c);
                    score += n;
                    alignment.push((ColId(qc), ColId(c), n));
                }
                alignment.sort_unstable_by_key(|(qc, _, _)| qc.0);
                UnionResult {
                    table: TableId(t),
                    score,
                    alignment,
                }
            })
            .collect();
        results.sort_unstable_by(|a, b| b.score.cmp(&a.score).then(a.table.0.cmp(&b.table.0)));
        results.truncate(k);
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_index::IndexBuilder;
    use mate_table::{Corpus, TableBuilder};

    fn setup() -> (Corpus, InvertedIndex) {
        let mut corpus = Corpus::new();
        // Highly unionable: same domains, swapped column order.
        corpus.add_table(
            TableBuilder::new("people_eu", ["country", "name"])
                .row(["germany", "helmut"])
                .row(["france", "marie"])
                .row(["spain", "carlos"])
                .build(),
        );
        // Partially unionable: one shared domain.
        corpus.add_table(
            TableBuilder::new("capitals", ["country", "capital"])
                .row(["germany", "berlin"])
                .row(["france", "paris"])
                .build(),
        );
        // Unrelated.
        corpus.add_table(
            TableBuilder::new("numbers", ["x", "y"])
                .row(["1", "2"])
                .row(["3", "4"])
                .build(),
        );
        let index = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus);
        (corpus, index)
    }

    #[test]
    fn ranks_by_alignment_score() {
        let (_, index) = setup();
        let query = TableBuilder::new("q", ["person", "nation"])
            .row(["helmut", "germany"])
            .row(["marie", "france"])
            .row(["carlos", "spain"])
            .build();
        let results = UnionSearch::new(&index).top_k(&query, 3);
        assert_eq!(results[0].table, TableId(0));
        assert_eq!(results[0].score, 6); // 3 names + 3 countries
        assert_eq!(results[1].table, TableId(1));
        assert_eq!(results[1].score, 2); // germany, france
        assert!(results.iter().all(|r| r.table != TableId(2)));
    }

    #[test]
    fn alignment_is_injective() {
        let (_, index) = setup();
        let query = TableBuilder::new("q", ["a", "b"])
            .row(["germany", "france"]) // both columns overlap the same
            .row(["spain", "germany"]) //   candidate column
            .build();
        let results = UnionSearch::new(&index).top_k(&query, 1);
        let r = &results[0];
        let mut cand_cols: Vec<u32> = r.alignment.iter().map(|(_, c, _)| c.0).collect();
        cand_cols.dedup();
        let dedup_len = cand_cols.len();
        assert_eq!(dedup_len, r.alignment.len(), "candidate column used twice");
    }

    #[test]
    fn empty_query() {
        let (_, index) = setup();
        let query = TableBuilder::new("q", ["a"]).row(["zzz-nothing"]).build();
        assert!(UnionSearch::new(&index).top_k(&query, 5).is_empty());
    }

    #[test]
    fn k_truncates() {
        let (_, index) = setup();
        let query = TableBuilder::new("q", ["c"]).row(["germany"]).build();
        let results = UnionSearch::new(&index).top_k(&query, 1);
        assert_eq!(results.len(), 1);
    }
}
