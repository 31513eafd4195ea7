//! Property tests: discovery over the multi-segment engine is bit-identical
//! to a single-shot built index at every flush state — memtable only, after
//! N flushes, after compaction, and after crash recovery — including
//! workloads with updates and deletes.

use mate_core::{discover_lake, discover_snapshot, MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::engine::{Engine, EngineConfig, EngineLake};
use mate_index::{IndexBuilder, WalRecord};
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_table::{ColId, Corpus, RowId, TableId};
use proptest::prelude::*;
use std::path::PathBuf;

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
        fp_tables: 5,
        share_range: (0.2, 0.9),
        duplication: (1, 2),
        fp_rows: (5, 12),
        hard_fp_fraction: 0.15,
        noise_rows: (3, 8),
    };
    let query = generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 25);
    (corpus, query)
}

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mate-engine-disc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn engine_config(budget: usize) -> EngineConfig {
    EngineConfig {
        memtable_budget_bytes: budget,
        max_cold_segments: 0, // compaction is explicit in these tests
        ..EngineConfig::default()
    }
}

/// The ingest workload: every lake table as an insert, then a deterministic
/// mix of updates/deletes derived from `seed`. Records are generated
/// against a live scratch engine so every edit targets a valid location.
fn workload(corpus: &Corpus, seed: u64, dir: &std::path::Path) -> Vec<WalRecord> {
    let mut records: Vec<WalRecord> = corpus
        .iter()
        .map(|(_, t)| WalRecord::InsertTable { table: t.clone() })
        .collect();
    let mut scratch = Engine::create(dir.join("scratch"), engine_config(1 << 30)).unwrap();
    for r in &records {
        scratch.apply(r.clone()).unwrap();
    }
    let ntables = corpus.len() as u64;
    let mut x = seed | 1;
    let mut next = || {
        // SplitMix64 step: deterministic, no dependency on the rand crate.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for _ in 0..12 {
        let t = TableId((next() % ntables) as u32);
        let table = scratch.corpus().table(t);
        let (rows, cols) = (table.num_rows(), table.num_cols());
        let record = match next() % 4 {
            0 if rows > 0 && cols > 0 => WalRecord::UpdateCell {
                table: t,
                row: RowId((next() % rows as u64) as u32),
                col: ColId((next() % cols as u64) as u32),
                value: format!("edited-{}", next() % 1000),
            },
            1 if rows > 1 => WalRecord::DeleteRow {
                table: t,
                row: RowId((next() % rows as u64) as u32),
            },
            2 if cols > 0 => WalRecord::InsertRow {
                table: t,
                cells: (0..cols)
                    .map(|c| format!("new-{c}-{}", next() % 500))
                    .collect(),
            },
            _ if rows > 0 => WalRecord::DeleteTable { table: t },
            _ => continue,
        };
        scratch.apply(record.clone()).unwrap();
        records.push(record);
    }
    records
}

/// Asserts that engine discovery equals single-shot discovery, counters
/// included (probe order over the merged view reproduces the single-shot
/// order exactly — only the block counters may differ between serving
/// modes, and `source_layers` is engine-only instrumentation).
fn assert_equivalent(engine: &Engine, query: &GeneratedQuery, k: usize) {
    let hasher = Xash::new(HashSize::B128);
    let fresh = IndexBuilder::new(hasher).build(engine.corpus());
    let single =
        MateDiscovery::new(engine.corpus(), &fresh, &hasher).discover(&query.table, &query.key, k);
    let merged = discover_snapshot(
        &engine.snapshot(),
        MateConfig::default(),
        &query.table,
        &query.key,
        k,
    );
    assert_eq!(single.top_k, merged.top_k);
    assert_eq!(single.stats.initial_column, merged.stats.initial_column);
    assert_eq!(single.stats.pl_lists_fetched, merged.stats.pl_lists_fetched);
    assert_eq!(single.stats.pl_items_fetched, merged.stats.pl_items_fetched);
    assert_eq!(single.stats.candidate_tables, merged.stats.candidate_tables);
    assert_eq!(single.stats.tables_evaluated, merged.stats.tables_evaluated);
    assert_eq!(
        single.stats.rows_filter_checked,
        merged.stats.rows_filter_checked
    );
    assert_eq!(
        single.stats.rows_passed_filter,
        merged.stats.rows_passed_filter
    );
    assert_eq!(
        single.stats.rows_verified_joinable,
        merged.stats.rows_verified_joinable
    );
    assert_eq!(
        single.stats.stopped_early_rule1,
        merged.stats.stopped_early_rule1
    );
    assert_eq!(
        single.stats.tables_skipped_rule2,
        merged.stats.tables_skipped_rule2
    );
    assert_eq!(merged.stats.source_layers, engine.num_layers());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// (memtable only) ≡ (after N flushes) ≡ (after compaction) ≡
    /// (after reopen) ≡ single-shot built index, with updates and deletes
    /// in the workload.
    #[test]
    fn engine_flush_states_are_discovery_equivalent(
        seed in 0u64..10_000,
        rows in 5usize..25,
        key_size in 1usize..4,
        k in 1usize..6,
    ) {
        let (corpus, query) = build_lake(seed, rows, key_size);
        let dir = tmpdir(&format!("p{seed}-{rows}-{key_size}-{k}"));
        let records = workload(&corpus, seed, &dir);

        // Memtable only: huge budget, no flush ever.
        let mut mem_only = Engine::create(dir.join("mem"), engine_config(1 << 30)).unwrap();
        for r in &records {
            mem_only.apply(r.clone()).unwrap();
        }
        prop_assert_eq!(mem_only.num_cold_segments(), 0);
        assert_equivalent(&mem_only, &query, k);

        // Tiny budget: the same workload through many flush states.
        let d = dir.join("flush");
        let mut flushed = Engine::create(&d, engine_config(2048)).unwrap();
        for r in &records {
            flushed.apply(r.clone()).unwrap();
        }
        prop_assert!(flushed.stats().flushes >= 1, "budget must force flushes");
        assert_equivalent(&flushed, &query, k);

        // Compaction folds the stack without changing any result.
        let before = flushed.num_cold_segments();
        flushed.compact().unwrap();
        if before >= 2 {
            prop_assert_eq!(flushed.num_cold_segments(), 1);
        }
        assert_equivalent(&flushed, &query, k);

        // Recovery from manifest + WAL tail reproduces the same state.
        drop(flushed);
        let reopened = Engine::open(&d, engine_config(2048)).unwrap();
        assert_equivalent(&reopened, &query, k);

        // The shared EngineLake handle serves the same bits, from
        // concurrent reader threads ∈ {1, 2, 4}, with the cold-resolution
        // cache warm after the first query.
        let hasher = Xash::new(HashSize::B128);
        let fresh = IndexBuilder::new(hasher).build(reopened.corpus());
        let single = MateDiscovery::new(reopened.corpus(), &fresh, &hasher)
            .discover(&query.table, &query.key, k);
        let lake = EngineLake::new(reopened);
        for threads in [1usize, 2, 4] {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let r = discover_lake(
                            &lake,
                            MateConfig::default(),
                            &query.table,
                            &query.key,
                            k,
                        );
                        assert_eq!(r.top_k, single.top_k);
                        assert_eq!(r.stats.pl_items_fetched, single.stats.pl_items_fetched);
                        assert_eq!(r.stats.candidate_tables, single.stats.candidate_tables);
                        assert_eq!(
                            r.stats.rows_verified_joinable,
                            single.stats.rows_verified_joinable
                        );
                    });
                }
            });
        }
        prop_assert!(
            lake.source_cache().hits() > 0,
            "repeated queries must hit the shared cache"
        );

        std::fs::remove_dir_all(dir).ok();
    }
}
