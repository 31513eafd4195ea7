//! Property tests: cold-mode discovery (compressed segment files served
//! through a page cache) is bit-identical to the hot arena store on
//! generated Zipf lakes.

use mate_core::{MateConfig, MateDiscovery};
use mate_hash::{HashSize, RowHasher, Xash};
use mate_index::{persist, ColdPostingStore, IndexBuilder, InvertedIndex};
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_obs::Obs;
use mate_storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
use mate_storage::{SegmentReader, StdVfs};
use mate_table::Corpus;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Builds a Zipf lake with planted joins and planted false-positive tables.
fn build_lake(seed: u64, rows: usize, key_size: usize) -> (Corpus, GeneratedQuery) {
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
    (corpus, query)
}

/// A saved index served the way the engine serves a cold segment: its
/// posting streams paged from the file through a page cache, its super
/// keys loaded from the same file. Removes the file on drop.
struct Frozen {
    store: ColdPostingStore,
    saved: InvertedIndex,
    path: PathBuf,
}

impl Frozen {
    /// A discovery engine over the frozen segment.
    fn discovery<'a>(
        &'a self,
        corpus: &'a Corpus,
        hasher: &'a dyn RowHasher,
        config: MateConfig,
    ) -> MateDiscovery<'a> {
        MateDiscovery::from_parts(corpus, &self.store, self.saved.superkeys(), hasher, config)
    }
}

impl Drop for Frozen {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Saves the hot index as a segment file with `block_len`-entry posting
/// blocks and opens it through the paged opener.
fn freeze(index: &InvertedIndex, block_len: usize) -> Frozen {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "mate-cold-discovery-{}-{}.seg",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let bytes = persist::index_to_bytes_v3(index, block_len);
    std::fs::write(&path, &bytes).expect("write segment");
    let cache = Arc::new(PageCache::new(
        Arc::new(StdVfs),
        DEFAULT_PAGE_SIZE,
        1 << 20,
        &Arc::new(Obs::new()),
    ));
    cache.register_segment(0, &path);
    let seg = SegmentReader::open(bytes.clone()).expect("segment");
    Frozen {
        store: persist::read_cold_store_paged(&seg, &cache, 0).expect("paged open"),
        saved: persist::index_from_bytes(bytes).expect("hot load"),
        path,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Hot and cold serving modes return identical top-k results (tables,
    /// scores, order) and identical algorithmic counters — only the block
    /// counters may differ (the hot store has no blocks).
    #[test]
    fn cold_results_identical_to_hot(
        seed in 0u64..10_000,
        rows in 5usize..40,
        key_size in 1usize..4,
        k in 1usize..8,
    ) {
        let (corpus, query) = build_lake(seed, rows, key_size);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let cold = freeze(&index, mate_storage::postings::DEFAULT_BLOCK_LEN);

        let hot = MateDiscovery::new(&corpus, &index, &hasher)
            .discover(&query.table, &query.key, k);
        let coldr = cold
            .discovery(&corpus, &hasher, MateConfig::default())
            .discover(&query.table, &query.key, k);

        prop_assert_eq!(&hot.top_k, &coldr.top_k);
        prop_assert_eq!(hot.stats.initial_column, coldr.stats.initial_column);
        prop_assert_eq!(hot.stats.pl_lists_fetched, coldr.stats.pl_lists_fetched);
        prop_assert_eq!(hot.stats.pl_items_fetched, coldr.stats.pl_items_fetched);
        prop_assert_eq!(hot.stats.candidate_tables, coldr.stats.candidate_tables);
        prop_assert_eq!(hot.stats.tables_evaluated, coldr.stats.tables_evaluated);
        prop_assert_eq!(hot.stats.rows_filter_checked, coldr.stats.rows_filter_checked);
        prop_assert_eq!(hot.stats.rows_passed_filter, coldr.stats.rows_passed_filter);
        prop_assert_eq!(
            hot.stats.rows_verified_joinable,
            coldr.stats.rows_verified_joinable
        );
        prop_assert_eq!(hot.stats.stopped_early_rule1, coldr.stats.stopped_early_rule1);
        prop_assert_eq!(hot.stats.tables_skipped_rule2, coldr.stats.tables_skipped_rule2);
        // The hot arena never touches blocks; the cold store reports its
        // decode activity.
        prop_assert_eq!(hot.stats.blocks_decoded, 0);
        prop_assert_eq!(hot.stats.blocks_skipped, 0);
    }

    /// Identity also holds for parallel cold-mode discovery and with the
    /// pruning rules disabled.
    #[test]
    fn cold_parallel_and_unpruned_identical(seed in 0u64..10_000, rows in 5usize..25) {
        let (corpus, query) = build_lake(seed, rows, 2);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let cold = freeze(&index, mate_storage::postings::DEFAULT_BLOCK_LEN);

        for (threads, table_filtering) in [(1, false), (4, true), (4, false)] {
            let cfg = MateConfig {
                query_threads: threads,
                table_filtering,
                ..Default::default()
            };
            let hot = MateDiscovery::with_config(&corpus, &index, &hasher, cfg.clone())
                .discover(&query.table, &query.key, 5);
            let coldr = cold
                .discovery(&corpus, &hasher, cfg)
                .discover(&query.table, &query.key, 5);
            prop_assert_eq!(&hot.top_k, &coldr.top_k,
                "threads={} filtering={}", threads, table_filtering);
            if !table_filtering {
                // Every candidate evaluated ⇒ row counters line up exactly.
                prop_assert_eq!(hot.stats.rows_passed_filter, coldr.stats.rows_passed_filter);
                prop_assert_eq!(
                    hot.stats.rows_verified_joinable,
                    coldr.stats.rows_verified_joinable
                );
            }
        }
    }
}

/// A deterministic non-property check that block skipping actually happens
/// in cold mode on a lake big enough to produce multi-block lists.
#[test]
fn cold_mode_skips_blocks_on_large_lakes() {
    let (corpus, query) = build_lake(77, 120, 2);
    let hasher = Xash::new(HashSize::B128);
    let index = IndexBuilder::new(hasher).build(&corpus);
    // Small blocks force multi-block lists even on a modest lake.
    let cold = freeze(&index, 16);
    let hot = MateDiscovery::new(&corpus, &index, &hasher).discover(&query.table, &query.key, 3);
    let coldr = cold
        .discovery(&corpus, &hasher, MateConfig::default())
        .discover(&query.table, &query.key, 3);
    assert_eq!(hot.top_k, coldr.top_k);
    assert!(
        coldr.stats.blocks_decoded > 0,
        "evaluating candidates must decode blocks"
    );
    assert!(
        coldr.stats.blocks_skipped > 0,
        "per-table runs must skip blocks outside their range: {:?}",
        coldr.stats
    );
}
