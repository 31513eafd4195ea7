//! Exact joinability verification (the `calculateJ` step of Algorithm 1).
//!
//! After filtering, each surviving `(candidate row, query row)` pair is
//! verified against the actual cell values, and the joinability
//! `j = max over injective column mappings |π_Q(d) ∩ π_Y'(T)|` (Eq. 2) is
//! computed. The paper stresses that the candidate side has no known key
//! columns: a key value may appear in *any* column, so verification
//! enumerates injective mappings `Q → columns(T)` consistent with the
//! observed values (the factorial space of Eq. 3, bounded here by
//! `max_mappings`) and counts, per mapping, the distinct query key tuples it
//! realizes. The best mapping wins.
//!
//! # Cost
//!
//! Verification runs once per surviving pair, so it allocates nothing per
//! pair: a reusable scratch holds the per-position column options, the
//! mappings a pair realizes (one flat buffer) and a `used` flag per
//! candidate column; discovery keeps one scratch per worker for the whole
//! query. The depth-first search visits positions in ascending branching
//! order (ties in position order) and stops at `max_mappings`. Each
//! verified mapping gets a dense id per table — a map from the mapping's
//! columns, allocating only for a mapping the table has not realized
//! before — and records one `(mapping id, tuple id)` hit; the hits are
//! sorted and deduplicated once per table to count distinct tuples per
//! mapping.

use mate_hash::fx::FxHashMap;
use mate_table::{ColId, RowId, Table};

/// One filtered row pair to verify: candidate-table row, query row, and the
/// query row's key-tuple id (rows with equal tuples share ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowPair {
    /// Row in the candidate table.
    pub candidate_row: RowId,
    /// Row in the query table.
    pub query_row: RowId,
    /// Key-tuple id of the query row (see `query_keys`).
    pub tuple_id: u32,
}

/// Result of verifying one candidate table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Joinability `j` of the table (Eq. 2).
    pub joinability: u64,
    /// Pairs in which the composite key was actually present (true
    /// positives of the row filter).
    pub true_positive_pairs: usize,
    /// Pairs checked in total.
    pub pairs_checked: usize,
    /// True if the mapping enumeration hit `max_mappings` for some row and
    /// the joinability is therefore a lower bound.
    pub mappings_capped: bool,
}

/// Verifies filtered row pairs against actual cell values and computes the
/// best-mapping joinability.
pub fn verify_table_joinability(
    candidate: &Table,
    query: &Table,
    q_cols: &[ColId],
    pairs: &[RowPair],
    max_mappings: usize,
) -> VerifyOutcome {
    VerifyScratch::default().verify(candidate, query, q_cols, pairs, max_mappings)
}

/// Reusable buffers for [`verify_table_joinability`]. One scratch serves any
/// number of tables of one query table `'q`; after the first few pairs it
/// allocates only when a table is wider, or realizes more mappings, than any
/// before it.
#[derive(Debug, Default)]
pub(crate) struct VerifyScratch<'q> {
    /// The current pair's query key values.
    key: Vec<&'q str>,
    /// Candidate columns holding each key position's value.
    options: Vec<Vec<u32>>,
    /// Key positions in search order.
    order: Vec<usize>,
    /// The search's current partial mapping.
    assignment: Vec<u32>,
    /// Candidate columns taken by the current partial mapping; all `false`
    /// between pairs.
    used: Vec<bool>,
    /// Mappings the current pair realizes, `key.len()` columns each.
    found: Vec<u32>,
    /// Dense id per distinct mapping of the current table.
    mapping_ids: FxHashMap<Vec<u32>, u32>,
    /// `mapping id << 32 | tuple id` per verified mapping.
    hits: Vec<u64>,
}

impl<'q> VerifyScratch<'q> {
    /// [`verify_table_joinability`] on this scratch's buffers.
    pub(crate) fn verify(
        &mut self,
        candidate: &Table,
        query: &'q Table,
        q_cols: &[ColId],
        pairs: &[RowPair],
        max_mappings: usize,
    ) -> VerifyOutcome {
        let width = q_cols.len();
        let ncols = candidate.num_cols();
        self.options.resize_with(width, Vec::new);
        if self.used.len() < ncols {
            self.used.resize(ncols, false);
        }
        self.mapping_ids.clear();
        self.hits.clear();
        let mut tp = 0usize;
        let mut capped = false;

        for pair in pairs {
            self.key.clear();
            self.key
                .extend(q_cols.iter().map(|&q| query.cell(pair.query_row, q)));

            // Candidate columns per key position.
            for opts in &mut self.options {
                opts.clear();
            }
            for c in 0..ncols {
                let v = candidate.cell(pair.candidate_row, ColId::from(c));
                if v.is_empty() {
                    continue;
                }
                for (opts, k) in self.options.iter_mut().zip(&self.key) {
                    if v == *k {
                        opts.push(c as u32);
                    }
                }
            }
            if self.options.iter().any(Vec::is_empty) {
                continue; // false positive: some key value missing from the row
            }

            let n = self.enumerate_injective(max_mappings);
            if n == 0 {
                continue; // values present but no injective assignment (e.g.
                          // key (x, x) with only one column holding x)
            }
            if n >= max_mappings {
                capped = true;
            }
            tp += 1;
            for i in 0..n {
                let mapping = &self.found[i * width..(i + 1) * width];
                let id = match self.mapping_ids.get(mapping) {
                    Some(&id) => id,
                    None => {
                        let id = self.mapping_ids.len() as u32;
                        self.mapping_ids.insert(mapping.to_vec(), id);
                        id
                    }
                };
                self.hits
                    .push(u64::from(id) << 32 | u64::from(pair.tuple_id));
            }
        }

        VerifyOutcome {
            joinability: self.best_mapping_tuples(),
            true_positive_pairs: tp,
            pairs_checked: pairs.len(),
            mappings_capped: capped,
        }
    }

    /// Fills `found` with the injective assignments choosing one column from
    /// `options[i]` per position, up to `max` of them, and returns how many.
    ///
    /// Positions are explored in order of ascending branching factor (ties in
    /// position order); assignments are stored in position order.
    fn enumerate_injective(&mut self, max: usize) -> usize {
        self.found.clear();
        self.order.clear();
        self.order.extend(0..self.options.len());
        let options = &self.options;
        self.order.sort_by_key(|&i| options[i].len());
        self.assignment.clear();
        self.assignment.resize(self.options.len(), 0);
        let mut search = Search {
            order: &self.order,
            options: &self.options,
            assignment: &mut self.assignment,
            used: &mut self.used,
            found: &mut self.found,
            count: 0,
            max,
        };
        search.descend(0);
        search.count
    }

    /// The largest number of distinct tuple ids any one mapping realized.
    fn best_mapping_tuples(&mut self) -> u64 {
        self.hits.sort_unstable();
        self.hits.dedup();
        let mut best = 0u64;
        let mut run = 0u64;
        let mut mapping = u64::MAX;
        for &hit in &self.hits {
            if hit >> 32 != mapping {
                mapping = hit >> 32;
                run = 0;
            }
            run += 1;
            best = best.max(run);
        }
        best
    }
}

/// The depth-first search over injective assignments.
struct Search<'a> {
    order: &'a [usize],
    options: &'a [Vec<u32>],
    assignment: &'a mut [u32],
    used: &'a mut [bool],
    found: &'a mut Vec<u32>,
    count: usize,
    max: usize,
}

impl Search<'_> {
    fn descend(&mut self, depth: usize) {
        if self.count >= self.max {
            return;
        }
        let Some(&pos) = self.order.get(depth) else {
            self.found.extend_from_slice(self.assignment);
            self.count += 1;
            return;
        };
        for &col in &self.options[pos] {
            if !self.used[col as usize] {
                self.used[col as usize] = true;
                self.assignment[pos] = col;
                self.descend(depth + 1);
                self.used[col as usize] = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_table::TableBuilder;

    fn figure1_tables() -> (Table, Table) {
        let candidate = TableBuilder::new("T1", ["Vorname", "Nachname", "Land", "Besetzung"])
            .row(["Helmut", "Newton", "Germany", "Photographer"])
            .row(["Muhammad", "Lee", "US", "Dancer"])
            .row(["Ansel", "Adams", "UK", "Dancer"])
            .row(["Ansel", "Adams", "US", "Photographer"])
            .row(["Muhammad", "Ali", "US", "Boxer"])
            .row(["Muhammad", "Lee", "Germany", "Birder"])
            .row(["Gretchen", "Lee", "Germany", "Artist"])
            .row(["Adam", "Sandler", "US", "Actor"])
            .build();
        let query = TableBuilder::new("d", ["F", "L", "C", "Salary"])
            .row(["Muhammad", "Lee", "US", "60k"])
            .row(["Ansel", "Adams", "UK", "50k"])
            .row(["Ansel", "Adams", "US", "400k"])
            .row(["Muhammad", "Lee", "Germany", "90k"])
            .row(["Helmut", "Newton", "Germany", "300k"])
            .build();
        (candidate, query)
    }

    fn all_pairs(candidate: &Table, query: &Table) -> Vec<RowPair> {
        let mut pairs = Vec::new();
        for qr in 0..query.num_rows() {
            for cr in 0..candidate.num_rows() {
                pairs.push(RowPair {
                    candidate_row: RowId::from(cr),
                    query_row: RowId::from(qr),
                    tuple_id: qr as u32,
                });
            }
        }
        pairs
    }

    #[test]
    fn running_example_joinability_is_5() {
        // §2: the best mapping (F→Vorname, L→Nachname, C→Land) yields j = 5.
        let (cand, query) = figure1_tables();
        let q_cols = [ColId(0), ColId(1), ColId(2)];
        let out =
            verify_table_joinability(&cand, &query, &q_cols, &all_pairs(&cand, &query), 10_000);
        assert_eq!(out.joinability, 5);
        assert!(!out.mappings_capped);
    }

    #[test]
    fn swapped_mapping_would_be_zero() {
        // Mapping F→Nachname, L→Vorname yields 0 — verification must find the
        // max, not the column-order mapping.
        let cand = TableBuilder::new("T", ["last", "first"])
            .row(["lee", "muhammad"])
            .build();
        let query = TableBuilder::new("d", ["f", "l"])
            .row(["muhammad", "lee"])
            .build();
        let out = verify_table_joinability(
            &cand,
            &query,
            &[ColId(0), ColId(1)],
            &[RowPair {
                candidate_row: RowId(0),
                query_row: RowId(0),
                tuple_id: 0,
            }],
            100,
        );
        assert_eq!(out.joinability, 1);
        assert_eq!(out.true_positive_pairs, 1);
    }

    #[test]
    fn partial_match_is_false_positive() {
        let cand = TableBuilder::new("T", ["a", "b"])
            .row(["muhammad", "ali"])
            .build();
        let query = TableBuilder::new("d", ["f", "l"])
            .row(["muhammad", "lee"])
            .build();
        let out = verify_table_joinability(
            &cand,
            &query,
            &[ColId(0), ColId(1)],
            &[RowPair {
                candidate_row: RowId(0),
                query_row: RowId(0),
                tuple_id: 0,
            }],
            100,
        );
        assert_eq!(out.joinability, 0);
        assert_eq!(out.true_positive_pairs, 0);
        assert_eq!(out.pairs_checked, 1);
    }

    #[test]
    fn injectivity_enforced_for_repeated_key_values() {
        // Key (x, x): candidate with only one column equal to x cannot match.
        let cand1 = TableBuilder::new("T", ["a", "b"]).row(["x", "y"]).build();
        let query = TableBuilder::new("d", ["p", "q"]).row(["x", "x"]).build();
        let pair = [RowPair {
            candidate_row: RowId(0),
            query_row: RowId(0),
            tuple_id: 0,
        }];
        let out = verify_table_joinability(&cand1, &query, &[ColId(0), ColId(1)], &pair, 100);
        assert_eq!(out.joinability, 0);

        // Two columns holding x do match.
        let cand2 = TableBuilder::new("T", ["a", "b"]).row(["x", "x"]).build();
        let out = verify_table_joinability(&cand2, &query, &[ColId(0), ColId(1)], &pair, 100);
        assert_eq!(out.joinability, 1);
    }

    #[test]
    fn mapping_must_be_consistent_across_rows() {
        // Each row matches under a *different* mapping; no single mapping
        // covers both tuples, so j = 1, not 2.
        let cand = TableBuilder::new("T", ["a", "b"])
            .row(["k1", "k2"]) // matches (p→a, q→b)
            .row(["m2", "m1"]) // matches (p→b, q→a)
            .build();
        let query = TableBuilder::new("d", ["p", "q"])
            .row(["k1", "k2"])
            .row(["m1", "m2"])
            .build();
        let out = verify_table_joinability(
            &cand,
            &query,
            &[ColId(0), ColId(1)],
            &all_pairs(&cand, &query),
            100,
        );
        assert_eq!(out.joinability, 1);
        assert_eq!(out.true_positive_pairs, 2);
    }

    #[test]
    fn duplicate_query_tuples_count_once() {
        let cand = TableBuilder::new("T", ["a", "b"]).row(["k1", "k2"]).build();
        let query = TableBuilder::new("d", ["p", "q"])
            .row(["k1", "k2"])
            .row(["k1", "k2"])
            .build();
        // Both query rows share tuple_id 0.
        let pairs = [
            RowPair {
                candidate_row: RowId(0),
                query_row: RowId(0),
                tuple_id: 0,
            },
            RowPair {
                candidate_row: RowId(0),
                query_row: RowId(1),
                tuple_id: 0,
            },
        ];
        let out = verify_table_joinability(&cand, &query, &[ColId(0), ColId(1)], &pairs, 100);
        assert_eq!(out.joinability, 1);
        assert_eq!(out.true_positive_pairs, 2);
    }

    #[test]
    fn empty_pairs_zero_joinability() {
        let (cand, query) = figure1_tables();
        let out = verify_table_joinability(&cand, &query, &[ColId(0)], &[], 100);
        assert_eq!(out.joinability, 0);
        assert_eq!(out.pairs_checked, 0);
    }

    #[test]
    fn empty_candidate_cells_ignored() {
        let cand = TableBuilder::new("T", ["a", "b"]).row(["", "k1"]).build();
        let query = TableBuilder::new("d", ["p"]).row(["k1"]).build();
        let out = verify_table_joinability(
            &cand,
            &query,
            &[ColId(0)],
            &[RowPair {
                candidate_row: RowId(0),
                query_row: RowId(0),
                tuple_id: 0,
            }],
            100,
        );
        assert_eq!(out.joinability, 1);
    }

    #[test]
    fn mapping_cap_reported() {
        // A row where every key value matches every column explodes
        // combinatorially; the cap must kick in and be reported.
        let headers: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        let row: Vec<&str> = vec!["x"; 8];
        let cand = TableBuilder::new("T", headers.clone())
            .row(row.clone())
            .build();
        let query = TableBuilder::new("d", ["a", "b", "c", "d", "e", "f", "g", "h"])
            .row(vec!["x"; 8])
            .build();
        let q_cols: Vec<ColId> = (0..8u32).map(ColId).collect();
        let out = verify_table_joinability(
            &cand,
            &query,
            &q_cols,
            &[RowPair {
                candidate_row: RowId(0),
                query_row: RowId(0),
                tuple_id: 0,
            }],
            100, // << 8! = 40320
        );
        assert!(out.mappings_capped);
        assert_eq!(out.joinability, 1);
    }

    /// The mappings `enumerate_injective` finds for `options`, in search order.
    fn enumerate(options: &[Vec<u32>], max: usize) -> Vec<Vec<u32>> {
        let mut s = VerifyScratch {
            options: options.to_vec(),
            used: vec![false; 8],
            ..Default::default()
        };
        let n = s.enumerate_injective(max);
        assert!(s.used.iter().all(|&u| !u), "used flags must be left clear");
        let w = options.len();
        (0..n)
            .map(|i| s.found[i * w..(i + 1) * w].to_vec())
            .collect()
    }

    #[test]
    fn enumerate_injective_basics() {
        // options: pos0 ∈ {0,1}, pos1 ∈ {1} → only (0,1) is injective.
        assert_eq!(enumerate(&[vec![0, 1], vec![1]], 100), vec![vec![0, 1]]);
        // no options → no assignment
        assert!(enumerate(&[vec![], vec![1]], 100).is_empty());
        // zero positions → one empty assignment
        assert_eq!(enumerate(&[], 100), vec![Vec::<u32>::new()]);
        // a cap of zero admits nothing, not even the empty assignment
        assert!(enumerate(&[], 0).is_empty());
    }

    #[test]
    fn single_option_positions() {
        // One column per position: one mapping if the columns are distinct…
        assert_eq!(
            enumerate(&[vec![2], vec![0], vec![5]], 100),
            vec![vec![2, 0, 5]]
        );
        // …none if two positions share their only column.
        assert!(enumerate(&[vec![2], vec![5], vec![2]], 100).is_empty());
        assert!(enumerate(&[vec![3]], 0).is_empty());
    }

    #[test]
    fn search_order_and_cap_are_stable() {
        // pos1 has the fewest options, so it is fixed first; results are
        // still reported in position order and cut at the cap.
        let all = enumerate(&[vec![0, 1, 2], vec![1, 2], vec![0, 1, 2]], 100);
        assert_eq!(
            all,
            vec![vec![0, 1, 2], vec![2, 1, 0], vec![0, 2, 1], vec![1, 2, 0],]
        );
        assert_eq!(
            enumerate(&[vec![0, 1, 2], vec![1, 2], vec![0, 1, 2]], 3),
            all[..3]
        );
    }

    #[test]
    fn columns_beyond_u16_do_not_alias() {
        // Key values in columns 0 and 65 536 of a 65 537-column row: a
        // 16-bit column id would fold 65 536 onto 0 and reject the mapping.
        let ncols = 65_537;
        let headers: Vec<String> = (0..ncols).map(|c| format!("c{c}")).collect();
        let mut row = vec![String::new(); ncols];
        row[0] = "a".into();
        row[65_536] = "b".into();
        let cand = TableBuilder::new("wide", headers).row(row).build();
        let query = TableBuilder::new("d", ["p", "q"]).row(["a", "b"]).build();
        let pair = [RowPair {
            candidate_row: RowId(0),
            query_row: RowId(0),
            tuple_id: 0,
        }];
        let out = verify_table_joinability(&cand, &query, &[ColId(0), ColId(1)], &pair, 100);
        assert_eq!(out.joinability, 1);
        assert_eq!(out.true_positive_pairs, 1);
    }

    #[test]
    fn scratch_reuse_across_tables_is_clean() {
        // One scratch over several tables gives each table's fresh answer.
        let (fig_cand, fig_query) = figure1_tables();
        let fig_pairs = all_pairs(&fig_cand, &fig_query);
        let wide_cand = TableBuilder::new("T", ["a", "b", "c"])
            .row(["x", "x", "x"])
            .build();
        let wide_query = TableBuilder::new("d", ["p", "q"]).row(["x", "x"]).build();
        let wide_pairs = all_pairs(&wide_cand, &wide_query);
        let key3 = [ColId(0), ColId(1), ColId(2)];
        let key2 = [ColId(0), ColId(1)];
        let mut scratch = VerifyScratch::default();
        for _ in 0..2 {
            let fig = scratch.verify(&fig_cand, &fig_query, &key3, &fig_pairs, 10_000);
            assert_eq!(
                fig,
                verify_table_joinability(&fig_cand, &fig_query, &key3, &fig_pairs, 10_000)
            );
            assert_eq!(fig.joinability, 5);
            let wide = scratch.verify(&wide_cand, &wide_query, &key2, &wide_pairs, 4);
            assert_eq!(wide.joinability, 1);
            assert!(wide.mappings_capped); // 3 · 2 = 6 mappings > cap 4
        }
    }
}
