//! Paged cold tier acceptance: discovery over a demand-paged engine is
//! bit-identical to a single-shot built index at *every* page-cache
//! budget — including budgets smaller than one segment, where every probe
//! is a read-through `pread` — with `pager.resident_bytes` never
//! exceeding the budget; and an injected `pread`-fill fault surfaces as a
//! typed error or is absorbed by the probe retry, never as a panic.

use mate_core::{discover_lake, discover_snapshot, MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::engine::{Engine, EngineConfig, EngineError};
use mate_index::{EngineLake, IndexBuilder, WalRecord};
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_storage::FaultVfs;
use mate_table::Corpus;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mate-paged-disc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Zipf lake with planted joins and false-positive tables.
fn build_lake(seed: u64, rows: usize) -> (Corpus, GeneratedQuery) {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), seed));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows,
        key_size: 2,
        payload_cols: 2,
        column_cardinality: 8,
        column_cardinalities: None,
        joinable_tables: 4,
        fp_tables: 4,
        share_range: (0.2, 0.9),
        duplication: (1, 2),
        fp_rows: (5, 10),
        hard_fp_fraction: 0.15,
        noise_rows: (3, 8),
    };
    let query = generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 15);
    (corpus, query)
}

/// Ingests the whole corpus with an explicit flush every `flush_every`
/// tables, producing a deterministic multi-segment cold stack on disk.
fn build_cold_stack(dir: &Path, corpus: &Corpus, flush_every: usize) {
    let mut engine = Engine::create(
        dir,
        EngineConfig {
            max_cold_segments: 0,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    for (i, (_, t)) in corpus.iter().enumerate() {
        engine
            .apply(WalRecord::InsertTable { table: t.clone() })
            .unwrap();
        if i % flush_every == flush_every - 1 {
            engine.flush().unwrap();
        }
    }
    engine.flush().unwrap();
}

/// Total bytes of cold segment files in `dir`.
fn cold_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .filter(|f| {
            let n = f.file_name().to_string_lossy().into_owned();
            n.starts_with("seg-") && n.ends_with(".seg")
        })
        .map(|f| f.metadata().unwrap().len())
        .sum()
}

fn paged_config(budget: usize) -> EngineConfig {
    EngineConfig {
        max_cold_segments: 0,
        cold_cache_budget_bytes: budget,
        ..EngineConfig::default()
    }
}

/// Asserts paged discovery equals single-shot discovery, counters included.
fn assert_equivalent(engine: &Engine, query: &GeneratedQuery, k: usize) {
    let hasher = Xash::new(HashSize::B128);
    let fresh = IndexBuilder::new(hasher).build(engine.corpus());
    let single =
        MateDiscovery::new(engine.corpus(), &fresh, &hasher).discover(&query.table, &query.key, k);
    let paged = discover_snapshot(
        &engine.snapshot(),
        MateConfig::default(),
        &query.table,
        &query.key,
        k,
    );
    assert_eq!(single.top_k, paged.top_k);
    assert_eq!(single.stats.initial_column, paged.stats.initial_column);
    assert_eq!(single.stats.pl_lists_fetched, paged.stats.pl_lists_fetched);
    assert_eq!(single.stats.pl_items_fetched, paged.stats.pl_items_fetched);
    assert_eq!(single.stats.candidate_tables, paged.stats.candidate_tables);
    assert_eq!(single.stats.tables_evaluated, paged.stats.tables_evaluated);
    assert_eq!(
        single.stats.rows_filter_checked,
        paged.stats.rows_filter_checked
    );
    assert_eq!(
        single.stats.rows_passed_filter,
        paged.stats.rows_passed_filter
    );
    assert_eq!(
        single.stats.rows_verified_joinable,
        paged.stats.rows_verified_joinable
    );
    assert_eq!(
        single.stats.false_positive_rows,
        paged.stats.false_positive_rows
    );
    assert_eq!(
        single.stats.stopped_early_rule1,
        paged.stats.stopped_early_rule1
    );
    assert_eq!(
        single.stats.tables_skipped_rule2,
        paged.stats.tables_skipped_rule2
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Discovery over a paged cold stack is bit-identical to a single-shot
    /// index for a *random* cache budget — from smaller than any segment
    /// (read-through on every probe) up to everything-resident — and
    /// `pager.resident_bytes` never exceeds the budget.
    #[test]
    fn paged_discovery_is_bit_identical_at_any_budget(
        seed in 0u64..10_000,
        rows in 5usize..20,
        budget_exp in 9u32..24, // 512 B .. 8 MiB
        k in 1usize..5,
    ) {
        let (corpus, query) = build_lake(seed, rows);
        let dir = tmpdir(&format!("budget-{seed}-{rows}-{budget_exp}-{k}"));
        build_cold_stack(&dir, &corpus, 4);
        let budget = 1usize << budget_exp;

        let engine = Engine::open(&dir, paged_config(budget)).unwrap();
        prop_assert!(engine.num_cold_segments() >= 2, "stack must be multi-segment");
        for _ in 0..2 {
            assert_equivalent(&engine, &query, k);
            let s = engine.pager().stats();
            prop_assert!(
                s.resident_bytes <= budget as u64,
                "resident {} exceeds budget {budget}", s.resident_bytes
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The fault sweep: reopen the same paged lake with the Nth vfs read
/// operation armed to fail, for N = 1, 2, ... until a run completes
/// without the fault firing. Requirements: `Engine::open` failures are
/// typed `EngineError`s (never panics), and a fault that fires on a
/// *probe-time* `pread` fill is absorbed by the single probe retry — the
/// query completes bit-identical to the control (a failed fill caches
/// nothing, so the retry re-reads the file and converges).
#[test]
fn pread_fill_fault_sweep_never_panics_and_retries_converge() {
    let (corpus, query) = build_lake(77, 10);
    let base = tmpdir("fault-sweep");
    let lake_dir = base.join("lake");
    build_cold_stack(&lake_dir, &corpus, 4);

    let hasher = Xash::new(HashSize::B128);
    let fresh = IndexBuilder::new(hasher).build(&corpus);
    let control =
        MateDiscovery::new(&corpus, &fresh, &hasher).discover(&query.table, &query.key, 3);

    // Budget below one page: every probe read is a read-through pread, so
    // the sweep is guaranteed to reach fill-time faults once opens succeed.
    let budget = 1024;
    let mut query_fill_faults = 0u64;
    let mut open_errors = 0u64;
    let mut n = 0u64;
    loop {
        n += 1;
        let fault = Arc::new(FaultVfs::new());
        fault.fail_nth(n);
        let cfg = EngineConfig {
            vfs: Arc::new(Arc::clone(&fault)),
            ..paged_config(budget)
        };
        match Engine::open(&lake_dir, cfg) {
            Err(e) => {
                // Typed error is the contract; drill no further.
                open_errors += 1;
                let _: &EngineError = &e;
                assert!(fault.injected() > 0, "op {n}: open failed without a fault");
                continue;
            }
            Ok(engine) => {
                let fired_during_open = fault.injected() > 0;
                let r = discover_snapshot(
                    &engine.snapshot(),
                    MateConfig::default(),
                    &query.table,
                    &query.key,
                    3,
                );
                assert_eq!(r.top_k, control.top_k, "op {n}: faulted run diverged");
                if fault.injected() == 0 {
                    // N is past the whole workload's operation count.
                    assert!(n > 5, "sweep ended after only {n} ops");
                    break;
                }
                if !fired_during_open {
                    query_fill_faults += 1;
                }
            }
        }
    }
    assert!(open_errors > 0, "sweep never exercised a failed open");
    assert!(
        query_fill_faults > 0,
        "sweep never hit a probe-time pread fill"
    );
    std::fs::remove_dir_all(base).ok();
}

/// The headline bound: a lake at least 4x the cache budget serves
/// bit-identical results while `pager.resident_bytes` stays under the
/// budget at every observation point, and the per-query
/// `DiscoveryStats::pager_hits` / `pager_misses` deltas are live.
#[test]
fn lake_4x_budget_serves_bit_identical_under_ceiling() {
    let (corpus, query) = build_lake(4141, 30);
    let dir = tmpdir("ceiling");
    build_cold_stack(&dir, &corpus, 2);
    let total = cold_bytes(&dir);
    // Largest power of two with lake >= 4x budget (a power-of-two budget
    // is no whole number of segments, so it exercises partial occupancy,
    // not an exact fit).
    let budget = ((total / 4) as usize).next_power_of_two() / 2;
    assert!(budget > 0, "lake too small: {total} bytes");
    assert!(total >= 4 * budget as u64);

    let engine = Engine::open(&dir, paged_config(budget)).unwrap();
    assert!(engine.num_cold_segments() >= 4);
    let hasher = Xash::new(HashSize::B128);
    let fresh = IndexBuilder::new(hasher).build(engine.corpus());
    let single =
        MateDiscovery::new(engine.corpus(), &fresh, &hasher).discover(&query.table, &query.key, 5);

    // Repeated queries over the engine's snapshot: later rounds re-read
    // the same pages, so the cache must show both misses and hits while
    // the ceiling holds on every check.
    for _ in 0..3 {
        let paged = discover_snapshot(
            &engine.snapshot(),
            MateConfig::default(),
            &query.table,
            &query.key,
            5,
        );
        assert_eq!(paged.top_k, single.top_k);
        let s = engine.pager().stats();
        assert!(
            s.resident_bytes <= budget as u64,
            "resident {} exceeds budget {budget}",
            s.resident_bytes
        );
    }
    let s = engine.pager().stats();
    assert!(s.misses > 0, "a 4x lake cannot be served without fills");
    assert!(s.hits > 0, "repeat queries must hit cached pages");

    // The lake path surfaces the same activity as per-query deltas.
    let lake = EngineLake::new(engine);
    let first = discover_lake(&lake, MateConfig::default(), &query.table, &query.key, 5);
    assert_eq!(first.top_k, single.top_k);
    assert!(
        first.stats.pager_hits + first.stats.pager_misses > 0,
        "a query over a paged stack must touch the page cache"
    );
    assert!(lake.pager_stats().resident_bytes <= budget as u64);
    std::fs::remove_dir_all(dir).ok();
}
