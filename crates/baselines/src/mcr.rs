//! MCR — Multi-Column Retrieval (§7.1.1).
//!
//! MCR fetches posting lists for **every** key column (not just the initial
//! one), intersects the per-column `(table, row)` hit sets, and verifies the
//! surviving rows. It avoids many of SCR's false positives at the price of
//! fetching |Q| times more posting lists — the trade-off visible in Figure 4,
//! where MCR wins on small corpora and loses once posting lists get long.

use crate::system::DiscoverySystem;
use mate_core::joinability::{verify_table_joinability, RowPair};
use mate_core::{DiscoveryResult, DiscoveryStats, TopK};
use mate_hash::fx::{FxHashMap, FxHashSet};
use mate_index::InvertedIndex;
use mate_table::{ColId, Corpus, RowId, Table, TableId};
use std::time::Instant;

/// The MCR baseline system.
pub struct McrDiscovery<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    max_mappings_per_row: usize,
}

impl<'a> McrDiscovery<'a> {
    /// Creates an MCR system.
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex) -> Self {
        McrDiscovery {
            corpus,
            index,
            max_mappings_per_row: 10_000,
        }
    }
}

impl DiscoverySystem for McrDiscovery<'_> {
    fn system_name(&self) -> String {
        "MCR".to_string()
    }

    fn discover(&self, query: &Table, q_cols: &[ColId], k: usize) -> DiscoveryResult {
        let start = Instant::now();
        let mut stats = DiscoveryStats::default();

        // ---- Fetch per key column and intersect -------------------------
        // For the first key column we also remember *which* values hit each
        // row, so candidate rows can be paired with query rows afterwards.
        let q0 = q_cols[0];
        let mut first_hits: FxHashMap<(u32, u32), Vec<u32>> = FxHashMap::default();
        let mut intersection: FxHashSet<(u32, u32)> = FxHashSet::default();

        for (qi, &q) in q_cols.iter().enumerate() {
            let mut col_set: FxHashSet<(u32, u32)> = FxHashSet::default();
            let mut seen_vals: FxHashSet<&str> = FxHashSet::default();
            let mut vid = 0u32;
            for v in query.column(q).iter() {
                if v.is_empty() || !seen_vals.insert(v) {
                    continue;
                }
                if let Some(pl) = self.index.posting_list(v) {
                    stats.pl_lists_fetched += 1;
                    stats.pl_items_fetched += pl.len();
                    for e in pl {
                        let loc = (e.table.0, e.row.0);
                        col_set.insert(loc);
                        if qi == 0 {
                            first_hits.entry(loc).or_default().push(vid);
                        }
                    }
                }
                vid += 1;
            }
            if qi == 0 {
                intersection = col_set;
            } else {
                intersection.retain(|loc| col_set.contains(loc));
            }
            if intersection.is_empty() {
                break;
            }
        }

        // ---- Group candidate rows per table ------------------------------
        let mut by_table: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (t, r) in &intersection {
            by_table.entry(*t).or_default().push(*r);
        }
        let mut candidates: Vec<(u32, Vec<u32>)> = by_table.into_iter().collect();
        candidates.sort_unstable_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
        stats.candidate_tables = candidates.len();

        // Query rows per distinct first-column value id, plus tuple ids.
        let (rows_by_vid, _tuples) = query_rows_by_first_value(query, q_cols, q0);

        let mut topk = TopK::new(k);
        for (t, mut rows) in candidates {
            // Same coarse bound as Algorithm 1 rule 1: candidate rows upper-
            // bound the joinability; sorted order makes the stop sound.
            if topk.is_full() && rows.len() as u64 <= topk.min_joinability() {
                stats.stopped_early_rule1 = true;
                break;
            }
            stats.tables_evaluated += 1;
            rows.sort_unstable();

            let mut pairs: Vec<RowPair> = Vec::new();
            let mut seen: FxHashSet<(u32, u32)> = FxHashSet::default();
            for &r in &rows {
                if let Some(vids) = first_hits.get(&(t, r)) {
                    for vid in vids {
                        for &(qrow, tuple_id) in &rows_by_vid[*vid as usize] {
                            if seen.insert((r, qrow)) {
                                pairs.push(RowPair {
                                    candidate_row: RowId(r),
                                    query_row: RowId(qrow),
                                    tuple_id,
                                });
                            }
                        }
                    }
                }
            }
            stats.rows_passed_filter += pairs.len();

            let outcome = verify_table_joinability(
                self.corpus.table(TableId(t)),
                query,
                q_cols,
                &pairs,
                self.max_mappings_per_row,
            );
            stats.rows_verified_joinable += outcome.true_positive_pairs;
            stats.false_positive_rows += outcome.pairs_checked - outcome.true_positive_pairs;
            stats.mappings_capped |= outcome.mappings_capped;
            topk.update(TableId(t), outcome.joinability);
        }

        stats.elapsed = start.elapsed();
        DiscoveryResult {
            top_k: topk.into_sorted(),
            stats,
        }
    }
}

/// Builds, per distinct non-empty value of the first key column, the list of
/// `(query row, tuple id)` pairs with a complete key. Returns the per-value
/// lists (indexed by value id in first-seen order) and the tuple count.
fn query_rows_by_first_value(
    query: &Table,
    q_cols: &[ColId],
    q0: ColId,
) -> (Vec<Vec<(u32, u32)>>, u32) {
    let mut vids: FxHashMap<&str, u32> = FxHashMap::default();
    // Assign ids to distinct values in the same order the fetch loop does.
    for v in query.column(q0).iter() {
        if v.is_empty() {
            continue;
        }
        let next = vids.len() as u32;
        vids.entry(v).or_insert(next);
    }
    let mut rows: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vids.len()];
    let mut tuple_ids: FxHashMap<Vec<&str>, u32> = FxHashMap::default();
    'rows: for r in 0..query.num_rows() {
        let mut tuple = Vec::with_capacity(q_cols.len());
        for &q in q_cols {
            let v = query.cell(RowId::from(r), q);
            if v.is_empty() {
                continue 'rows;
            }
            tuple.push(v);
        }
        let next = tuple_ids.len() as u32;
        let tid = *tuple_ids.entry(tuple).or_insert(next);
        let vid = vids[query.cell(RowId::from(r), q0)];
        rows[vid as usize].push((r as u32, tid));
    }
    (rows, tuple_ids.len() as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_core::MateDiscovery;
    use mate_hash::{HashSize, Xash};
    use mate_index::IndexBuilder;
    use mate_table::TableBuilder;

    fn setup() -> (Corpus, InvertedIndex, Xash, Table) {
        let mut corpus = Corpus::new();
        corpus.add_table(
            TableBuilder::new("joinable", ["f", "l", "c"])
                .row(["muhammad", "lee", "us"])
                .row(["ansel", "adams", "uk"])
                .row(["helmut", "newton", "germany"])
                .build(),
        );
        corpus.add_table(
            TableBuilder::new("partial", ["f", "l", "c"])
                .row(["muhammad", "ali", "us"]) // f+c hit, l misses
                .row(["ansel", "adams", "jp"]) // f+l hit, c misses
                .build(),
        );
        corpus.add_table(TableBuilder::new("single", ["x"]).row(["muhammad"]).build());
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let query = TableBuilder::new("q", ["a", "b", "c"])
            .row(["muhammad", "lee", "us"])
            .row(["ansel", "adams", "uk"])
            .row(["helmut", "newton", "germany"])
            .build();
        (corpus, index, hasher, query)
    }

    #[test]
    fn agrees_with_mate() {
        let (corpus, index, hasher, query) = setup();
        let cols = [ColId(0), ColId(1), ColId(2)];
        let mate = MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &cols, 3);
        let mcr = McrDiscovery::new(&corpus, &index).discover(&query, &cols, 3);
        assert_eq!(mate.top_k, mcr.top_k);
        assert_eq!(mcr.top_k[0].joinability, 3);
    }

    #[test]
    fn intersection_prunes_single_column_rows() {
        let (corpus, index, _, query) = setup();
        let cols = [ColId(0), ColId(1), ColId(2)];
        let r = McrDiscovery::new(&corpus, &index).discover(&query, &cols, 3);
        // The "single" table only matches one column → never a candidate.
        assert!(r.top_k.iter().all(|t| t.table != TableId(2)));
        // "partial" rows contain hits for some columns but the row-level
        // intersection removes rows missing any column... row 0 of partial:
        // f ("muhammad") and c ("us") hit but l ("ali") never occurs in the
        // query's l/f/c values → row dropped by intersection.
        // Row 1: "ansel","adams" hit but "jp" doesn't → dropped.
        assert!(r.top_k.iter().all(|t| t.table != TableId(1)));
    }

    #[test]
    fn fetches_all_columns() {
        let (corpus, index, hasher, query) = setup();
        let cols = [ColId(0), ColId(1), ColId(2)];
        let mcr = McrDiscovery::new(&corpus, &index).discover(&query, &cols, 1);
        let mate = MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &cols, 1);
        // MCR reads posting lists for every key column; MATE only for one.
        assert!(mcr.stats.pl_items_fetched > mate.stats.pl_items_fetched);
    }

    #[test]
    fn single_column_key_degenerates_gracefully() {
        let (corpus, index, _, query) = setup();
        let r = McrDiscovery::new(&corpus, &index).discover(&query, &[ColId(0)], 2);
        assert!(!r.top_k.is_empty());
        assert_eq!(r.top_k[0].table, TableId(0));
    }

    #[test]
    fn no_hits() {
        let (corpus, index, _, _) = setup();
        let query = TableBuilder::new("q", ["a", "b"]).row(["zz", "ww"]).build();
        let r = McrDiscovery::new(&corpus, &index).discover(&query, &[ColId(0), ColId(1)], 2);
        assert!(r.top_k.is_empty());
    }
}
