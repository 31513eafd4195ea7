//! Concurrent ingest-while-serve acceptance for [`EngineLake`].
//!
//! Reader threads run discovery queries *while* a writer thread applies
//! inserts/updates/deletes (group-committed, with flushes and tiered
//! compactions firing mid-stream). Every query must be bit-identical to a
//! single-shot index built from the corpus snapshot that query observed —
//! an [`EngineSnapshot`] pins corpus, layer stack, and super keys
//! together, so "the snapshot the query observed" is well-defined even
//! though the lake keeps moving between queries.
//!
//! The final states (flushed / tier-compacted / crash-recovered) are each
//! re-checked from two concurrent reader threads.
//!
//! Two regression suites ride along:
//! * **snapshot isolation** — a [`LakeReader`] taken mid-stream keeps
//!   answering from its pinned state, bit-identically, across later
//!   ingest, flushes, and tiered compactions;
//! * **writer starvation** — a writer's `apply_many` completes a bounded
//!   batch while reader threads hammer queries back-to-back (pre-fix,
//!   guard-based serving on a fairness-free `RwLock` could starve or —
//!   with a reader held on the writing thread — deadlock this).
//!
//! [`EngineSnapshot`]: mate_index::EngineSnapshot
//! [`LakeReader`]: mate_index::LakeReader

use mate_core::{discover_lake, discover_snapshot, MateConfig, MateDiscovery};
use mate_index::engine::{EngineConfig, EngineLake};
use mate_index::{IndexBuilder, WalRecord};
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_table::{ColId, Corpus, RowId, TableId};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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
        joinable_tables: 3,
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

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mate-engine-lake-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The ingest workload: every lake table as an insert, then a
/// deterministic mix of updates/deletes derived from `seed` (generated
/// against a scratch engine so every edit targets a valid location).
fn workload(corpus: &Corpus, seed: u64, dir: &std::path::Path) -> Vec<WalRecord> {
    let mut records: Vec<WalRecord> = corpus
        .iter()
        .map(|(_, t)| WalRecord::InsertTable { table: t.clone() })
        .collect();
    let scratch_cfg = EngineConfig {
        memtable_budget_bytes: 1 << 30,
        max_cold_segments: 0,
        ..EngineConfig::default()
    };
    let mut scratch =
        mate_index::Engine::create(dir.join("scratch"), scratch_cfg).expect("scratch engine");
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
    for _ in 0..10 {
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

/// One serve-while-ingest query: run discovery over the lake's current
/// snapshot, then verify it against a single-shot index built from the
/// corpus **that same snapshot** pinned (a cheap Arc-spine clone).
fn snapshot_discover(lake: &EngineLake, query: &GeneratedQuery, k: usize) {
    let (got, corpus, hasher) = {
        let reader = lake.reader();
        let snapshot = reader.snapshot();
        let source = reader.source();
        let hasher = snapshot.hasher();
        let got = MateDiscovery::from_parts(
            snapshot.corpus(),
            &source,
            snapshot.superkeys(),
            &hasher,
            MateConfig::default(),
        )
        .discover(&query.table, &query.key, k);
        (got, snapshot.corpus().clone(), hasher)
    };
    // Rebuild after dropping the reader — the comparison is against the
    // pinned snapshot, so the writer racing ahead cannot disturb it.
    let fresh = IndexBuilder::new(hasher).build(&corpus);
    let expected =
        MateDiscovery::new(&corpus, &fresh, &hasher).discover(&query.table, &query.key, k);
    assert_eq!(got.top_k, expected.top_k, "top-k drifted from snapshot");
    assert_eq!(got.stats.pl_items_fetched, expected.stats.pl_items_fetched);
    assert_eq!(got.stats.candidate_tables, expected.stats.candidate_tables);
    assert_eq!(
        got.stats.rows_verified_joinable,
        expected.stats.rows_verified_joinable
    );
}

/// Runs the snapshot-identity check from `threads` concurrent readers.
fn check_state(lake: &EngineLake, query: &GeneratedQuery, k: usize, threads: usize) {
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| snapshot_discover(lake, query, k));
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Writers and readers interleave freely; every observed snapshot is
    /// bit-identical to its single-shot rebuild, across memtable-only,
    /// flushed, tier-compacted, and crash-recovered states.
    #[test]
    fn lake_snapshots_are_bit_identical_under_concurrent_ingest(
        seed in 0u64..10_000,
        rows in 5usize..20,
        key_size in 1usize..4,
        k in 1usize..5,
        threads in 1usize..5,
    ) {
        let (corpus, query) = build_lake(seed, rows, key_size);
        let dir = tmpdir(&format!("p{seed}-{rows}-{key_size}-{k}-{threads}"));
        let records = workload(&corpus, seed, &dir);
        let cfg = EngineConfig {
            memtable_budget_bytes: 4096,
            max_cold_segments: 3,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let lake = EngineLake::create(dir.join("lake"), cfg.clone()).unwrap();
        let done = AtomicBool::new(false);

        std::thread::scope(|scope| {
            let (lake, query, done, records) = (&lake, &query, &done, &records);
            scope.spawn(move || {
                // Mix single applies and group batches; flushes and tiered
                // compactions fire from the budget mid-stream.
                for chunk in records.chunks(3) {
                    if chunk.len() == 1 {
                        lake.apply(chunk[0].clone()).unwrap();
                    } else {
                        lake.apply_many(chunk.iter().cloned()).unwrap();
                    }
                }
                done.store(true, Ordering::Release);
            });
            for _ in 0..threads {
                scope.spawn(move || {
                    let mut iters = 0usize;
                    while !done.load(Ordering::Acquire) && iters < 25 {
                        snapshot_discover(lake, query, k);
                        iters += 1;
                    }
                });
            }
        });
        prop_assert_eq!(
            lake.reader().snapshot().corpus().len(),
            corpus.len(),
            "every insert landed"
        );

        // Final states, each observed by two concurrent readers.
        check_state(&lake, &query, k, 2); // as-ingested (memtable + segments)
        lake.flush().unwrap();
        check_state(&lake, &query, k, 2); // flushed
        lake.compact_tiered().unwrap();
        check_state(&lake, &query, k, 2); // tier-compacted

        // Crash-equivalent drop + recovery (manifest + WAL tail replay).
        drop(lake);
        let lake = EngineLake::open(dir.join("lake"), cfg).unwrap();
        check_state(&lake, &query, k, 2); // crash-recovered

        // discover_lake (the public wiring) agrees with the manual path
        // and exercises the shared cache.
        let r1 = discover_lake(&lake, MateConfig::default(), &query.table, &query.key, k);
        let r2 = discover_lake(&lake, MateConfig::default(), &query.table, &query.key, k);
        prop_assert_eq!(r1.top_k, r2.top_k);
        prop_assert!(r2.stats.cold_cache_hits > 0 || lake.stats().cold_segments == 0);

        std::fs::remove_dir_all(dir).ok();
    }

    /// Snapshot isolation: a [`mate_index::LakeReader`] pinned mid-stream
    /// answers from the corpus state it observed — bit-identically — no
    /// matter how much ingest, flushing, and compaction happens after it,
    /// while fresh readers follow the moving state.
    #[test]
    fn readers_are_snapshot_isolated_across_flush_and_compaction(
        seed in 0u64..10_000,
        rows in 5usize..15,
        key_size in 1usize..3,
        k in 1usize..4,
    ) {
        let (corpus, query) = build_lake(seed, rows, key_size);
        let dir = tmpdir(&format!("iso{seed}-{rows}-{key_size}-{k}"));
        let records = workload(&corpus, seed, &dir);
        let cfg = EngineConfig {
            memtable_budget_bytes: 4096,
            max_cold_segments: 3,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let lake = EngineLake::create(dir.join("lake"), cfg).unwrap();
        let half = records.len() / 2;
        lake.apply_many(records[..half].iter().cloned()).unwrap();

        // Pin a mid-stream snapshot plus the corpus state it observed, and
        // the single-shot ground truth for that state.
        let reader = lake.reader();
        let pinned_corpus = reader.snapshot().corpus().clone();
        let pinned_postings = reader.snapshot().live_postings();
        let hasher = reader.snapshot().hasher();
        let fresh = IndexBuilder::new(hasher).build(&pinned_corpus);
        let expected = MateDiscovery::new(&pinned_corpus, &fresh, &hasher)
            .discover(&query.table, &query.key, k);
        let before = discover_snapshot(
            reader.snapshot(), MateConfig::default(), &query.table, &query.key, k,
        );
        prop_assert_eq!(&before.top_k, &expected.top_k, "pre-churn identity");

        // Churn: the rest of the ingest (budget-driven flushes + tiered
        // compactions fire mid-stream), then an explicit flush, a tiered
        // round, and a full fold — every structural transition the engine
        // has.
        lake.apply_many(records[half..].iter().cloned()).unwrap();
        lake.flush().unwrap();
        lake.compact_tiered().unwrap();
        lake.compact().unwrap();

        // The old reader's world did not move: same top-k AND the same
        // evaluation counters as the single-shot rebuild of its pinned
        // corpus — results stay bit-identical to snapshot time.
        let after = discover_snapshot(
            reader.snapshot(), MateConfig::default(), &query.table, &query.key, k,
        );
        prop_assert_eq!(&after.top_k, &expected.top_k, "post-churn identity");
        prop_assert_eq!(after.stats.pl_items_fetched, expected.stats.pl_items_fetched);
        prop_assert_eq!(after.stats.candidate_tables, expected.stats.candidate_tables);
        prop_assert_eq!(
            after.stats.rows_verified_joinable,
            expected.stats.rows_verified_joinable
        );
        prop_assert_eq!(reader.snapshot().live_postings(), pinned_postings);
        // The reader is now measurably behind the published state, and the
        // lake wiring reports that age.
        prop_assert!(lake.published_epoch() > reader.snapshot().source_epoch());
        let lagged = discover_lake(&lake, MateConfig::default(), &query.table, &query.key, k);
        prop_assert_eq!(lagged.stats.snapshot_lag, 0, "fresh reader serves the newest state");

        // Fresh readers see the final state exactly (single-shot identity).
        snapshot_discover(&lake, &query, k);
        std::fs::remove_dir_all(dir).ok();
    }

    /// K writer threads own **disjoint table ranges** and race each other
    /// (plus a flush/compaction churn thread). Whole-table inserts race
    /// for the engine write lock; row edits target only
    /// the writer's own tables. Because edits to disjoint tables commute,
    /// the final state must be bit-identical to a sequential engine that
    /// applies the same records thread-major — per-table corpus bytes,
    /// live posting totals, and discovery results. Assertions are
    /// counter-based (records, flushes, deltas), never wall-clock, so the
    /// test is meaningful on one core.
    #[test]
    fn disjoint_multi_writer_matches_sequential_apply(
        seed in 0u64..10_000,
        writers in 2usize..5,
    ) {
        let (corpus, query) = build_lake(seed, 8, 2);
        let dir = tmpdir(&format!("mw{seed}-{writers}"));
        let cfg = EngineConfig {
            memtable_budget_bytes: 4096,
            max_cold_segments: 3,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let lake = EngineLake::create(dir.join("lake"), cfg).unwrap();

        // Unique names so set-equality below is well-defined.
        let named: Vec<mate_table::Table> = corpus
            .iter()
            .enumerate()
            .map(|(i, (_, t))| {
                let mut t = t.clone();
                t.name = format!("u{i}-{}", t.name);
                t
            })
            .collect();

        // Phase 1: concurrent whole-table inserts, round-robin.
        // Ids are allocated under the engine lock, so they are dense and
        // unique, but their order depends on scheduling — the check is
        // set-equality plus single-shot rebuild identity.
        std::thread::scope(|scope| {
            for w in 0..writers {
                let (lake, named) = (&lake, &named);
                scope.spawn(move || {
                    for t in named.iter().skip(w).step_by(writers) {
                        lake.insert_table(t.clone()).unwrap();
                    }
                });
            }
        });
        let phase1 = lake.reader().into_snapshot();
        prop_assert_eq!(phase1.corpus().len(), named.len());
        let mut expect: std::collections::BTreeMap<&str, &mate_table::Table> =
            named.iter().map(|t| (t.name.as_str(), t)).collect();
        for (_, t) in phase1.corpus().iter() {
            let e = expect.remove(t.name.as_str()).expect("unknown table name");
            prop_assert_eq!(e, t);
        }
        prop_assert!(expect.is_empty(), "missing tables: {:?}", expect.keys());
        snapshot_discover(&lake, &query, 3);

        // Phase 2: disjoint row edits (writer w owns ids ≡ w mod K),
        // racing a churn thread that flushes and tier-compacts. The same
        // records applied thread-major into a sequential engine are the
        // ground truth.
        let per_writer: Vec<Vec<WalRecord>> = (0..writers)
            .map(|w| {
                let mut rs = Vec::new();
                for (tid, table) in phase1.corpus().iter() {
                    if tid.0 as usize % writers != w {
                        continue;
                    }
                    let (rows, cols) = (table.num_rows(), table.num_cols());
                    if rows > 0 && cols > 0 {
                        rs.push(WalRecord::UpdateCell {
                            table: tid,
                            row: RowId(0),
                            col: ColId(0),
                            value: format!("w{w}-edit-{}", tid.0),
                        });
                    }
                    if cols > 0 {
                        rs.push(WalRecord::InsertRow {
                            table: tid,
                            cells: (0..cols).map(|c| format!("w{w}-new-{c}")).collect(),
                        });
                    }
                }
                rs
            })
            .collect();
        std::thread::scope(|scope| {
            for rs in &per_writer {
                let lake = &lake;
                scope.spawn(move || {
                    for chunk in rs.chunks(3) {
                        lake.apply_many(chunk.iter().cloned()).unwrap();
                    }
                });
            }
            let lake = &lake;
            scope.spawn(move || {
                for _ in 0..3 {
                    lake.flush().unwrap();
                    lake.compact_tiered().unwrap();
                    std::thread::yield_now();
                }
            });
        });

        // Sequential ground truth: same tables in the lake's id order,
        // then the same edits thread-major.
        let mut control =
            mate_index::Engine::create(dir.join("control"), EngineConfig {
                memtable_budget_bytes: 1 << 30,
                max_cold_segments: 0,
                ..EngineConfig::default()
            })
            .unwrap();
        for (_, t) in phase1.corpus().iter() {
            control.insert_table(t.clone()).unwrap();
        }
        for rs in &per_writer {
            for r in rs {
                control.apply(r.clone()).unwrap();
            }
        }

        let fin = lake.reader().into_snapshot();
        prop_assert_eq!(fin.corpus().len(), control.corpus().len());
        for (tid, t) in control.corpus().iter() {
            prop_assert_eq!(t, fin.corpus().table(tid), "table {} diverged", tid.0);
        }
        prop_assert_eq!(fin.live_postings(), control.live_postings());
        snapshot_discover(&lake, &query, 3);

        // Counter-based progress assertions (1-core-safe, no wall clock).
        let s = lake.stats();
        let edits: u64 = per_writer.iter().map(|r| r.len() as u64).sum();
        prop_assert_eq!(s.wal_records, named.len() as u64 + edits);
        prop_assert!(s.flushes >= 1, "churn thread flushed");
        prop_assert!(
            s.deltas_written + s.checkpoints_written >= 1,
            "dirty tables checkpointed incrementally"
        );
        prop_assert!(lake.group_syncs() >= 1);

        // Crash-equivalent drop + reopen: the concurrent history is fully
        // durable and replays to the same state.
        drop(lake);
        let cfg2 = EngineConfig {
            memtable_budget_bytes: 4096,
            max_cold_segments: 3,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let lake = EngineLake::open(dir.join("lake"), cfg2).unwrap();
        let re = lake.reader().into_snapshot();
        for (tid, t) in control.corpus().iter() {
            prop_assert_eq!(t, re.corpus().table(tid), "table {} lost in reopen", tid.0);
        }
        prop_assert_eq!(re.live_postings(), control.live_postings());
        std::fs::remove_dir_all(dir).ok();
    }
}

/// Writer-starvation regression: reader threads issue back-to-back queries
/// with zero think time while one writer ingests a bounded batch. Snapshot
/// readers never touch the engine lock, so the writer must finish well
/// inside the budget. Pre-fix, readers held `RwLock` read guards for whole
/// queries; the vendored `parking_lot` is a thin `std::sync::RwLock`
/// wrapper with no fairness guarantee, so a saturated read side could
/// delay the write side indefinitely (and a reader held on the writing
/// thread deadlocked it outright — see
/// `reader_outlives_flush_compaction_and_further_ingest` in
/// `mate_index::engine::lake` for the single-threaded variant).
///
/// Thread counts stay 1-core-safe: 2 readers + the writer on the main
/// thread, all yielding via the OS scheduler.
#[test]
fn writer_completes_bounded_batch_under_saturated_readers() {
    let (corpus, query) = build_lake(7, 10, 2);
    let dir = tmpdir("starve");
    let records = workload(&corpus, 7, &dir);
    let cfg = EngineConfig {
        memtable_budget_bytes: 4096,
        max_cold_segments: 3,
        tier_fanout: 2,
        ..EngineConfig::default()
    };
    let lake = EngineLake::create(dir.join("lake"), cfg).unwrap();
    // Seed the corpus so reader queries have real work to saturate on.
    let inserts = corpus.len();
    lake.apply_many(records[..inserts].iter().cloned()).unwrap();

    let done = AtomicBool::new(false);
    let queries_run = AtomicU64::new(0);
    // Generous wall-clock budget: the writer's work is a handful of edit
    // batches + one flush (< 1s unloaded). Pre-fix this could block
    // unboundedly behind the query stream; the budget turns "starved"
    // into a failure instead of a CI timeout.
    let budget = std::time::Duration::from_secs(60);

    let elapsed = std::thread::scope(|scope| {
        for _ in 0..2 {
            let (lake, query, done, queries_run) = (&lake, &query, &done, &queries_run);
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let reader = lake.reader();
                    let r = discover_snapshot(
                        reader.snapshot(),
                        MateConfig::default(),
                        &query.table,
                        &query.key,
                        3,
                    );
                    std::hint::black_box(r.top_k.len());
                    queries_run.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        let t = std::time::Instant::now();
        // Collect the writer outcome instead of unwrapping inline: the
        // readers spin on `done`, so it must be set before any panic.
        let write: Result<(), String> = (|| {
            for chunk in records[inserts..].chunks(2) {
                lake.apply_many(chunk.iter().cloned())
                    .map_err(|e| format!("writer apply: {e:?}"))?;
            }
            lake.flush().map_err(|e| format!("writer flush: {e:?}"))?;
            Ok(())
        })();
        let elapsed = t.elapsed();
        done.store(true, Ordering::Release);
        write.unwrap();
        elapsed
    });

    assert!(
        elapsed < budget,
        "writer took {elapsed:?} under saturated readers (budget {budget:?})"
    );
    assert!(
        queries_run.load(Ordering::Relaxed) > 0,
        "readers must actually have run during the write window"
    );
    // The writes all landed despite the query saturation.
    assert_eq!(lake.reader().snapshot().corpus().len(), corpus.len());
    std::fs::remove_dir_all(dir).ok();
}

/// The memo lives in the published snapshot: queries served by one
/// snapshot share its resolutions, a write batch republishes a snapshot
/// whose memo starts empty, and a reader still holding the old snapshot
/// keeps answering from it bit-identically.
#[test]
fn memo_lives_and_dies_with_the_published_snapshot() {
    let (corpus, query) = build_lake(11, 10, 2);
    let dir = tmpdir("memo");
    let cfg = EngineConfig {
        memtable_budget_bytes: 4096,
        max_cold_segments: 0,
        ..EngineConfig::default()
    };
    let lake = EngineLake::create(dir.join("lake"), cfg).unwrap();
    lake.apply_many(
        corpus
            .iter()
            .map(|(_, t)| WalRecord::InsertTable { table: t.clone() }),
    )
    .unwrap();
    assert!(lake.stats().cold_segments > 0, "budget must force flushes");
    let run = || discover_lake(&lake, MateConfig::default(), &query.table, &query.key, 3);

    let first = run();
    assert!(first.stats.cold_cache_misses > 0, "first query fills");
    let second = run();
    assert_eq!(second.top_k, first.top_k);
    assert!(second.stats.cold_cache_hits > 0, "repeat query hits");
    assert_eq!(
        second.stats.cold_cache_misses, 0,
        "same snapshot, same memo"
    );

    // A write batch republishes: the next query resolves afresh.
    let old = lake.reader();
    let cells = (0..corpus.table(TableId(0)).num_cols())
        .map(|c| format!("memo-{c}"))
        .collect();
    lake.apply_many([WalRecord::InsertRow {
        table: TableId(0),
        cells,
    }])
    .unwrap();
    let third = run();
    assert!(
        third.stats.cold_cache_misses > 0,
        "republished memo starts empty"
    );

    // The held reader still answers from its own snapshot and memo.
    let pinned = discover_snapshot(
        old.snapshot(),
        MateConfig::default(),
        &query.table,
        &query.key,
        3,
    );
    assert_eq!(pinned.top_k, first.top_k);
    assert_eq!(pinned.stats.pl_items_fetched, first.stats.pl_items_fetched);
    assert_eq!(pinned.stats.candidate_tables, first.stats.candidate_tables);
    assert_eq!(
        pinned.stats.cold_cache_misses, 0,
        "old snapshot keeps its memo"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The structural memory bound of a dictionary-encoded corpus: four bytes
/// per cell, twice each column's distinct text, 64 bytes per column. A
/// layout that gives any cell its own allocation (a 24-byte `String`
/// header alone) cannot meet it.
fn corpus_bound(corpus: &Corpus) -> (usize, usize) {
    let (mut cells, mut text, mut cols) = (0, 0, 0);
    for (_, t) in corpus.iter() {
        for c in t.columns() {
            let distinct: std::collections::HashSet<&str> = c.iter().collect();
            cells += c.len();
            text += distinct.iter().map(|v| v.len()).sum::<usize>();
            cols += 1;
        }
    }
    (4 * cells + 2 * text + 64 * cols, cells)
}

/// `Corpus::heap_bytes` of an open-data lake stays within the structural
/// bound — as generated, as ingested and as reloaded from the checkpoint —
/// and the engine exports it as `mem.corpus_bytes` with each snapshot.
#[test]
fn corpus_memory_ledger_on_open_data() {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::open_data(0), 5));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows: 200,
        key_size: 2,
        payload_cols: 4,
        column_cardinality: 100,
        column_cardinalities: None,
        joinable_tables: 6,
        fp_tables: 10,
        share_range: (0.3, 0.9),
        duplication: (1, 3),
        fp_rows: (20, 60),
        hard_fp_fraction: 0.15,
        noise_rows: (10, 40),
    };
    generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 10);
    let (bound, cells) = corpus_bound(&corpus);
    assert!(
        cells > 10_000,
        "lake too small to mean anything: {cells} cells"
    );
    assert!(bound < 24 * cells, "bound {bound} admits a String per cell");
    assert!(
        corpus.heap_bytes() <= bound,
        "{} > {bound}",
        corpus.heap_bytes()
    );

    let dir = tmpdir("ledger");
    let gauge = |lake: &EngineLake| lake.obs_handle().gauge("mem.corpus_bytes").get() as usize;
    let lake = EngineLake::create(dir.join("lake"), EngineConfig::default()).unwrap();
    lake.apply_many(
        corpus
            .iter()
            .map(|(_, t)| WalRecord::InsertTable { table: t.clone() }),
    )
    .unwrap();
    let ingested = lake.reader().snapshot().corpus().heap_bytes();
    assert_eq!(gauge(&lake), ingested);
    assert!(ingested <= bound, "{ingested} > {bound}");
    lake.flush().unwrap();
    drop(lake);

    let lake = EngineLake::open(dir.join("lake"), EngineConfig::default()).unwrap();
    let reloaded = lake.reader().snapshot().corpus().heap_bytes();
    assert_eq!(gauge(&lake), reloaded);
    assert!(reloaded <= bound, "{reloaded} > {bound}");
    drop(lake);
    std::fs::remove_dir_all(dir).ok();
}
