//! JOSIE adaptations for n-ary discovery (§7.1.1).
//!
//! JOSIE is a *unary* top-k engine; the paper evaluates two ways of pressing
//! it into n-ary service:
//!
//! * **SCR JOSIE** ([`ScrJosieDiscovery`]): run JOSIE on the initial key
//!   column to propose candidate tables, then verify the full composite key
//!   against those tables through the SCR index ("To infer the joinable rows
//!   we fall back on the SCR index").
//! * **MCR JOSIE** ([`McrJosieDiscovery`]): run JOSIE once per key column,
//!   intersect the proposed table sets, and verify the survivors.
//!
//! Both adaptations over-fetch candidates by `candidate_factor × k` columns
//! per JOSIE call, because high unary overlap does not imply high n-ary
//! joinability ("it is not guaranteed that the joinability of each join
//! column is equally high in each candidate table") — exactly the weakness
//! the paper's Figure 4 exposes.

use crate::josie::JosieEngine;
use crate::system::DiscoverySystem;
use mate_core::joinability::{verify_table_joinability, RowPair};
use mate_core::{DiscoveryResult, DiscoveryStats, InitColumnHeuristic, TopK};
use mate_hash::fx::{FxHashMap, FxHashSet};
use mate_index::InvertedIndex;
use mate_table::{ColId, Corpus, RowId, Table, TableId};
use std::time::Instant;

/// Default over-fetch multiplier for JOSIE candidate columns.
pub const DEFAULT_CANDIDATE_FACTOR: usize = 10;

/// SCR JOSIE: JOSIE proposes tables via the initial column; SCR verifies.
pub struct ScrJosieDiscovery<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    josie: &'a JosieEngine,
    candidate_factor: usize,
}

impl<'a> ScrJosieDiscovery<'a> {
    /// Creates the adaptation with the default candidate factor.
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex, josie: &'a JosieEngine) -> Self {
        ScrJosieDiscovery {
            corpus,
            index,
            josie,
            candidate_factor: DEFAULT_CANDIDATE_FACTOR,
        }
    }

    /// Overrides the candidate over-fetch factor.
    pub fn with_candidate_factor(mut self, factor: usize) -> Self {
        self.candidate_factor = factor.max(1);
        self
    }
}

impl DiscoverySystem for ScrJosieDiscovery<'_> {
    fn system_name(&self) -> String {
        "SCR Josie".to_string()
    }

    fn discover(&self, query: &Table, q_cols: &[ColId], k: usize) -> DiscoveryResult {
        let start = Instant::now();
        let mut stats = DiscoveryStats::default();

        let initial = mate_core::init_column::select_initial_column(
            query,
            q_cols,
            InitColumnHeuristic::MinCardinality,
            self.index.store(),
        );
        stats.initial_column = Some(initial);

        let tokens = distinct_values(query, initial);
        let (cols, _) = self.josie.top_k_columns(&tokens, self.candidate_factor * k);
        let tables: FxHashSet<u32> = cols.iter().map(|((t, _), _)| *t).collect();

        verify_tables(
            self.corpus,
            self.index,
            query,
            q_cols,
            initial,
            &tables,
            k,
            &mut stats,
        )
        .finish(start, stats)
    }
}

/// MCR JOSIE: one JOSIE call per key column; table sets intersected.
pub struct McrJosieDiscovery<'a> {
    corpus: &'a Corpus,
    index: &'a InvertedIndex,
    josie: &'a JosieEngine,
    candidate_factor: usize,
}

impl<'a> McrJosieDiscovery<'a> {
    /// Creates the adaptation with the default candidate factor.
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex, josie: &'a JosieEngine) -> Self {
        McrJosieDiscovery {
            corpus,
            index,
            josie,
            candidate_factor: DEFAULT_CANDIDATE_FACTOR,
        }
    }

    /// Overrides the candidate over-fetch factor.
    pub fn with_candidate_factor(mut self, factor: usize) -> Self {
        self.candidate_factor = factor.max(1);
        self
    }
}

impl DiscoverySystem for McrJosieDiscovery<'_> {
    fn system_name(&self) -> String {
        "MCR Josie".to_string()
    }

    fn discover(&self, query: &Table, q_cols: &[ColId], k: usize) -> DiscoveryResult {
        let start = Instant::now();
        let mut stats = DiscoveryStats::default();

        let mut tables: Option<FxHashSet<u32>> = None;
        for &q in q_cols {
            let tokens = distinct_values(query, q);
            let (cols, _) = self.josie.top_k_columns(&tokens, self.candidate_factor * k);
            let set: FxHashSet<u32> = cols.iter().map(|((t, _), _)| *t).collect();
            tables = Some(match tables {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
        }
        let tables = tables.unwrap_or_default();
        let initial = q_cols[0];
        stats.initial_column = Some(initial);

        verify_tables(
            self.corpus,
            self.index,
            query,
            q_cols,
            initial,
            &tables,
            k,
            &mut stats,
        )
        .finish(start, stats)
    }
}

// ------------------------------------------------------------------ shared --

fn distinct_values(query: &Table, col: ColId) -> Vec<&str> {
    let mut seen = FxHashSet::default();
    query
        .column(col)
        .iter()
        .filter(|v| !v.is_empty())
        .filter(|v| seen.insert(*v))
        .collect()
}

struct Verified {
    topk: TopK,
}

impl Verified {
    fn finish(self, start: Instant, mut stats: DiscoveryStats) -> DiscoveryResult {
        stats.elapsed = start.elapsed();
        DiscoveryResult {
            top_k: self.topk.into_sorted(),
            stats,
        }
    }
}

/// SCR-style exact verification of the composite key against a table set:
/// pair candidate rows (reached through the initial column's posting lists)
/// with query rows, verify values, rank by joinability.
#[allow(clippy::too_many_arguments)]
fn verify_tables(
    corpus: &Corpus,
    index: &InvertedIndex,
    query: &Table,
    q_cols: &[ColId],
    initial: ColId,
    tables: &FxHashSet<u32>,
    k: usize,
    stats: &mut DiscoveryStats,
) -> Verified {
    // Query rows per initial value (complete keys only).
    let mut by_value: FxHashMap<&str, Vec<(u32, u32)>> = FxHashMap::default();
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
        by_value
            .entry(query.cell(RowId::from(r), initial))
            .or_default()
            .push((r as u32, tid));
    }

    // Candidate pairs per table.
    let mut pairs_by_table: FxHashMap<u32, Vec<RowPair>> = FxHashMap::default();
    let mut seen: FxHashSet<(u32, u32, u32)> = FxHashSet::default();
    for (value, qrows) in &by_value {
        if let Some(pl) = index.posting_list(value) {
            stats.pl_lists_fetched += 1;
            for e in pl {
                if !tables.contains(&e.table.0) {
                    continue;
                }
                stats.pl_items_fetched += 1;
                for &(qrow, tuple_id) in qrows {
                    if seen.insert((e.table.0, e.row.0, qrow)) {
                        pairs_by_table.entry(e.table.0).or_default().push(RowPair {
                            candidate_row: e.row,
                            query_row: RowId(qrow),
                            tuple_id,
                        });
                    }
                }
            }
        }
    }

    let mut candidates: Vec<(u32, Vec<RowPair>)> = pairs_by_table.into_iter().collect();
    candidates.sort_unstable_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(&b.0)));
    stats.candidate_tables = candidates.len();

    let mut topk = TopK::new(k);
    for (t, pairs) in candidates {
        if topk.is_full() && pairs.len() as u64 <= topk.min_joinability() {
            stats.stopped_early_rule1 = true;
            break;
        }
        stats.tables_evaluated += 1;
        stats.rows_passed_filter += pairs.len();
        let outcome =
            verify_table_joinability(corpus.table(TableId(t)), query, q_cols, &pairs, 10_000);
        stats.rows_verified_joinable += outcome.true_positive_pairs;
        stats.false_positive_rows += outcome.pairs_checked - outcome.true_positive_pairs;
        topk.update(TableId(t), outcome.joinability);
    }
    Verified { topk }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_core::MateDiscovery;
    use mate_hash::{HashSize, Xash};
    use mate_index::IndexBuilder;
    use mate_table::TableBuilder;

    fn setup() -> (Corpus, InvertedIndex, Xash, JosieEngine, Table) {
        let mut corpus = Corpus::new();
        corpus.add_table(
            TableBuilder::new("best", ["f", "l"])
                .row(["muhammad", "lee"])
                .row(["ansel", "adams"])
                .row(["helmut", "newton"])
                .build(),
        );
        corpus.add_table(
            TableBuilder::new("half", ["f", "l"])
                .row(["muhammad", "lee"])
                .row(["ansel", "nope"])
                .build(),
        );
        corpus.add_table(TableBuilder::new("noise", ["x"]).row(["unrelated"]).build());
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let josie = JosieEngine::build(&index);
        let query = TableBuilder::new("q", ["a", "b"])
            .row(["muhammad", "lee"])
            .row(["ansel", "adams"])
            .row(["helmut", "newton"])
            .build();
        (corpus, index, hasher, josie, query)
    }

    #[test]
    fn scr_josie_finds_the_best_table() {
        let (corpus, index, hasher, josie, query) = setup();
        let cols = [ColId(0), ColId(1)];
        let sj = ScrJosieDiscovery::new(&corpus, &index, &josie);
        let r = sj.discover(&query, &cols, 2);
        let mate = MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &cols, 2);
        assert_eq!(r.top_k, mate.top_k);
        assert_eq!(r.top_k[0].table, TableId(0));
        assert_eq!(r.top_k[0].joinability, 3);
    }

    #[test]
    fn mcr_josie_finds_the_best_table() {
        let (corpus, index, _, josie, query) = setup();
        let cols = [ColId(0), ColId(1)];
        let mj = McrJosieDiscovery::new(&corpus, &index, &josie);
        let r = mj.discover(&query, &cols, 2);
        assert_eq!(r.top_k[0].table, TableId(0));
        assert_eq!(r.top_k[0].joinability, 3);
        assert_eq!(r.top_k[1].table, TableId(1));
        assert_eq!(r.top_k[1].joinability, 1);
    }

    #[test]
    fn candidate_factor_can_miss_tables() {
        // With factor 1 and k = 1, JOSIE proposes only the single best
        // column; tables beyond it are invisible — the documented weakness.
        let (corpus, index, _, josie, query) = setup();
        let cols = [ColId(0), ColId(1)];
        let sj = ScrJosieDiscovery::new(&corpus, &index, &josie).with_candidate_factor(1);
        let r = sj.discover(&query, &cols, 1);
        assert_eq!(r.top_k.len(), 1); // still finds the best here
        assert!(r.stats.candidate_tables <= 2);
    }

    #[test]
    fn names() {
        let (corpus, index, _, josie, _) = setup();
        assert_eq!(
            ScrJosieDiscovery::new(&corpus, &index, &josie).system_name(),
            "SCR Josie"
        );
        assert_eq!(
            McrJosieDiscovery::new(&corpus, &index, &josie).system_name(),
            "MCR Josie"
        );
    }

    #[test]
    fn empty_query() {
        let (corpus, index, _, josie, _) = setup();
        let q = TableBuilder::new("q", ["a", "b"]).row(["zz", "yy"]).build();
        let r =
            ScrJosieDiscovery::new(&corpus, &index, &josie).discover(&q, &[ColId(0), ColId(1)], 3);
        assert!(r.top_k.is_empty());
    }
}
