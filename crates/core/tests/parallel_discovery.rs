//! Property tests: parallel discovery is bit-identical to sequential on
//! generated Zipf lakes, across thread counts, k, and filter toggles.

use mate_core::{MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::{IndexBuilder, InvertedIndex};
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_table::{Corpus, RowId, TableBuilder};
use proptest::prelude::*;

/// Builds a Zipf lake with planted joins and planted false-positive tables,
/// plus `vocab_tables` tables drawn from a tiny vocabulary of the query's
/// key values (see [`add_small_vocab_tables`]).
fn build_lake(
    seed: u64,
    rows: usize,
    key_size: usize,
    vocab_tables: usize,
) -> (Corpus, GeneratedQuery) {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), seed));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows,
        key_size,
        payload_cols: 2,
        column_cardinality: 8,
        column_cardinalities: None,
        joinable_tables: 4,
        fp_tables: 6,
        share_range: (0.2, 0.9),
        duplication: (1, 2),
        fp_rows: (5, 15),
        hard_fp_fraction: 0.15,
        noise_rows: (3, 10),
    };
    let query = generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 50);
    add_small_vocab_tables(&mut corpus, &query, seed, vocab_tables);
    (corpus, query)
}

/// Adds `count` tables whose cells repeat the key values of the query's
/// first two rows: a value then sits in several columns of one row and
/// several rows of one table, so the row filter meets repeated
/// (candidate row, query row) pairs and verification meets rows with more
/// than one column mapping.
fn add_small_vocab_tables(corpus: &mut Corpus, query: &GeneratedQuery, seed: u64, count: usize) {
    let mut vocab: Vec<String> = Vec::new();
    for r in 0..query.table.num_rows().min(2) {
        for &c in &query.key {
            let v = query.table.cell(RowId::from(r), c);
            if !v.is_empty() && !vocab.iter().any(|w| w == v) {
                vocab.push(v.to_string());
            }
        }
    }
    if vocab.is_empty() {
        return;
    }
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    for t in 0..count {
        let ncols = 2 + next(4);
        let headers: Vec<String> = (0..ncols).map(|c| format!("v{c}")).collect();
        let mut tb = TableBuilder::new(format!("vocab{t}"), headers);
        for _ in 0..2 + next(10) {
            let row: Vec<&str> = (0..ncols)
                .map(|_| vocab[next(vocab.len())].as_str())
                .collect();
            tb = tb.row(row);
        }
        corpus.add_table(tb.build());
    }
}

fn run(
    corpus: &Corpus,
    index: &InvertedIndex,
    hasher: &Xash,
    query: &GeneratedQuery,
    threads: usize,
    k: usize,
) -> mate_core::DiscoveryResult {
    let cfg = MateConfig {
        query_threads: threads,
        ..Default::default()
    };
    MateDiscovery::with_config(corpus, index, hasher, cfg).discover(&query.table, &query.key, k)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `query_threads ∈ {1, 2, 4, 8}` return identical `top_k` — tables,
    /// joinability scores, and order — and their filter-rule stats stay
    /// consistent with each other.
    #[test]
    fn thread_count_never_changes_results(
        seed in 0u64..10_000,
        rows in 5usize..40,
        key_size in 1usize..4,
        k in 1usize..8,
        vocab_tables in 0usize..8,
    ) {
        let (corpus, query) = build_lake(seed, rows, key_size, vocab_tables);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);

        let seq = run(&corpus, &index, &hasher, &query, 1, k);
        for threads in [2usize, 4, 8] {
            let par = run(&corpus, &index, &hasher, &query, threads, k);
            prop_assert_eq!(&seq.top_k, &par.top_k, "threads={}", threads);

            // Stats consistency: identical init-phase counters, per-worker
            // counters summing to the aggregates, and pruning never
            // evaluating more tables than exist.
            let s = &par.stats;
            prop_assert_eq!(s.query_threads, threads);
            prop_assert_eq!(s.candidate_tables, seq.stats.candidate_tables);
            prop_assert_eq!(s.pl_lists_fetched, seq.stats.pl_lists_fetched);
            prop_assert_eq!(s.pl_items_fetched, seq.stats.pl_items_fetched);
            prop_assert_eq!(s.initial_column, seq.stats.initial_column);
            prop_assert!(s.tables_evaluated <= s.candidate_tables);
            let from_workers: usize =
                s.per_worker.iter().map(|w| w.tables_evaluated).sum();
            prop_assert_eq!(from_workers, s.tables_evaluated);
            let filtered: usize =
                s.per_worker.iter().map(|w| w.rows_filter_checked).sum();
            prop_assert_eq!(filtered, s.rows_filter_checked);
            // Parallel pruning is conservative: it evaluates at least the
            // tables the sequential engine evaluated (a superset), so its
            // verified-pair count can only grow.
            prop_assert!(s.rows_verified_joinable >= seq.stats.rows_verified_joinable);
        }
    }

    /// Thread equivalence holds with the pruning rules disabled too (every
    /// candidate evaluated ⇒ even the aggregate row counters line up).
    #[test]
    fn thread_count_equivalent_without_pruning(seed in 0u64..10_000, rows in 5usize..25) {
        let (corpus, query) = build_lake(seed, rows, 2, 0);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let base = MateConfig {
            table_filtering: false,
            ..Default::default()
        };
        let seq_cfg = base.clone();
        let par_cfg = MateConfig { query_threads: 4, ..base };
        let seq = MateDiscovery::with_config(&corpus, &index, &hasher, seq_cfg)
            .discover(&query.table, &query.key, 5);
        let par = MateDiscovery::with_config(&corpus, &index, &hasher, par_cfg)
            .discover(&query.table, &query.key, 5);
        prop_assert_eq!(&seq.top_k, &par.top_k);
        prop_assert_eq!(seq.stats.tables_evaluated, par.stats.tables_evaluated);
        prop_assert_eq!(seq.stats.rows_filter_checked, par.stats.rows_filter_checked);
        prop_assert_eq!(seq.stats.rows_passed_filter, par.stats.rows_passed_filter);
        prop_assert_eq!(
            seq.stats.rows_verified_joinable,
            par.stats.rows_verified_joinable
        );
        prop_assert_eq!(seq.stats.false_positive_rows, par.stats.false_positive_rows);
    }
}
