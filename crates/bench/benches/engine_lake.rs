//! EngineLake bench: group-commit ingest vs per-record fsync, and
//! query latency over the published snapshot.
//!
//! Emits a machine-readable `BENCH_engine_lake.json` (path overridable via
//! `MATE_BENCH_JSON`). The headline comparisons are **fsync counts**, not
//! wall clock — deterministic on any container:
//!
//! * per-record ingest acknowledges every record with its own fsync
//!   (`group_syncs == records`);
//! * grouped ingest batches records per durability wait
//!   (`EngineLake::apply_many`), so one fsync covers a whole batch. The
//!   bench asserts the grouped path needs ≤ half the fsyncs of the
//!   baseline (it needs ~`1/GROUP` of them).
//!
//! Query latency is wall clock (informational on a busy CI box); the memo
//! hit count beside it is exact, and top-k identity between
//! `discover_lake` and `discover_snapshot` over a held reader is asserted
//! before anything is reported.
//!
//! **Flush-stall section**: measures query latency *while a flush runs
//! concurrently* and how long a flush takes *while a reader snapshot is
//! outstanding*. Under the pre-snapshot guard-based serving both were
//! unbounded (a reader guard held across a flush deadlocked the flusher;
//! a flush held the write lock against every query start); with
//! Arc-snapshot serving both sides proceed, and the old reader's results
//! are asserted bit-identical to its pre-flush snapshot before anything
//! is reported.
//!
//! **Multi-writer section**: `WRITERS` threads race whole-table inserts
//! (`EngineLake::insert_table`: each append + in-memory apply runs under
//! the engine write lock, and concurrent inserters share group fsyncs)
//! and throughput is reported. Posting-count identity with the
//! single-writer lake is asserted first.
//!
//! **Flush-cost section**: dirties a handful of tables, flushes (one
//! incremental `cdelta-*` record covering only those tables), then
//! compacts (the fold rewrites the monolithic checkpoint) and asserts
//! the delta wrote fewer checkpoint bytes than the full rewrite —
//! the point of incremental checkpoints. Reports
//! `flush_bytes_per_dirty_table` and the delta/full byte ratio.

use mate_bench::{build_lakes, fmt_duration, Report};
use mate_core::{discover_lake, discover_snapshot, MateConfig};
use mate_hash::{HashSize, Xash};
use mate_index::engine::{EngineConfig, EngineLake};
use mate_index::{IndexBuilder, WalRecord};
use mate_table::{ColId, RowId, TableId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Records per durability wait in the grouped ingest.
const GROUP: usize = 16;
/// Timed repetitions of each query batch.
const QUERY_REPS: usize = 3;
/// Concurrent inserting threads in the multi-writer section.
const WRITERS: usize = 4;
/// Tables dirtied before the measured delta flush in the flush-cost
/// section.
const DIRTY_TABLES: usize = 4;

struct CorpusRow {
    name: String,
    tables: usize,
    rows: usize,
    sync_secs: f64,
    sync_rows_per_s: f64,
    sync_fsyncs: u64,
    commit_p50_us: u64,
    commit_p95_us: u64,
    commit_p99_us: u64,
    grouped_secs: f64,
    grouped_rows_per_s: f64,
    grouped_fsyncs: u64,
    fsync_ratio: f64,
    flushes: u64,
    compactions: u64,
    segments: usize,
    query_us: f64,
    query_p50_us: u64,
    query_p95_us: u64,
    query_p99_us: u64,
    memo_hits: u64,
    query_us_during_flush: f64,
    flush_ms_with_open_reader: f64,
    snapshot_lag_observed: u64,
    mw_secs: f64,
    mw_rows_per_s: f64,
    deltas_written: u64,
    flush_bytes_per_dirty_table: f64,
    checkpoint_delta_ratio: f64,
}

fn main() {
    let lakes = build_lakes();
    let hasher = Xash::new(HashSize::B128);
    let base = std::env::temp_dir().join(format!("mate-engine-lake-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut rows_out: Vec<CorpusRow> = Vec::new();

    for (name, corpus) in [
        ("webtables", &lakes.webtables),
        ("opendata", &lakes.opendata),
        ("school", &lakes.school),
    ] {
        // Budget sized off the single-shot hot index so every scale
        // produces a handful of flushes (and tiered compactions).
        let single = IndexBuilder::new(hasher).build(corpus);
        let budget = (single.stats().posting_store_bytes / 6).max(16 << 10);
        let config = EngineConfig {
            memtable_budget_bytes: budget,
            max_cold_segments: 3,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let total_rows: usize = corpus.iter().map(|(_, t)| t.num_rows()).sum();
        let records: Vec<WalRecord> = corpus
            .iter()
            .map(|(_, t)| WalRecord::InsertTable { table: t.clone() })
            .collect();
        // Cloning a config shares its obs hub (registry counters would
        // aggregate across lakes); each measured lake gets its own hub so
        // `group_syncs` et al. count that lake alone.
        let fresh_config = || EngineConfig {
            obs: std::sync::Arc::new(mate_obs::Obs::new()),
            ..config.clone()
        };

        // ---- baseline: one durability wait (= one fsync) per record -----
        let lake = EngineLake::create(base.join(format!("{name}-sync")), fresh_config())
            .expect("create lake");
        let commit_hist = mate_obs::Histogram::new();
        let t = Instant::now();
        for r in &records {
            let t_commit = Instant::now();
            lake.apply(r.clone()).expect("ingest");
            commit_hist.record(t_commit.elapsed().as_micros() as u64);
        }
        let sync_secs = t.elapsed().as_secs_f64();
        let commit_q = commit_hist.snapshot();
        let sync_fsyncs = lake.group_syncs();
        // Every record pays its own fsync, except the ones whose apply
        // triggered a flush — the rotation's manifest flip makes those
        // durable without a WAL sync.
        assert_eq!(
            sync_fsyncs + lake.stats().flushes,
            records.len() as u64,
            "per-record applies must fsync (or rotate) once each"
        );
        drop(lake);

        // ---- grouped: one durability wait per GROUP-record batch --------
        let lake = EngineLake::create(base.join(format!("{name}-grouped")), fresh_config())
            .expect("create lake");
        let t = Instant::now();
        for chunk in records.chunks(GROUP) {
            lake.apply_many(chunk.iter().cloned()).expect("ingest");
        }
        let grouped_secs = t.elapsed().as_secs_f64();
        let grouped_fsyncs = lake.group_syncs();
        let fsync_ratio = sync_fsyncs as f64 / grouped_fsyncs.max(1) as f64;
        assert!(
            sync_fsyncs >= 2 * grouped_fsyncs,
            "group commit must need ≤ half the fsyncs ({sync_fsyncs} vs {grouped_fsyncs})"
        );
        let stats = lake.stats();

        // ---- queries over the published snapshot ------------------------
        let queries: Vec<_> = lakes
            .iter_sets()
            .filter(|(_, c)| std::ptr::eq(*c, corpus))
            .flat_map(|(set, _)| set.queries.iter().take(2))
            .collect();

        // Identity guard first: the bench refuses to report numbers for a
        // lake path that returns different bits from a held snapshot.
        for q in &queries {
            let reader = lake.reader();
            let fresh = discover_snapshot(
                reader.snapshot(),
                MateConfig::default(),
                &q.table,
                &q.key,
                10,
            );
            drop(reader);
            let lake_r = discover_lake(&lake, MateConfig::default(), &q.table, &q.key, 10);
            assert_eq!(fresh.top_k, lake_r.top_k, "lake/snapshot identity");
        }

        let h0 = lake.source_cache().hits();
        let t = Instant::now();
        let mut hits = 0usize;
        for _ in 0..QUERY_REPS {
            for q in &queries {
                hits += discover_lake(&lake, MateConfig::default(), &q.table, &q.key, 10)
                    .top_k
                    .len();
            }
        }
        std::hint::black_box(hits);
        let query_us = t.elapsed().as_secs_f64() * 1e6 / (queries.len() * QUERY_REPS).max(1) as f64;
        let memo_hits = lake.source_cache().hits() - h0;
        // Per-query latency quantiles straight from the lake's obs hub:
        // every `discover_lake` call above recorded a `discovery` span
        // into its `span_us.discovery` histogram.
        let query_q = if queries.is_empty() {
            mate_obs::HistogramSnapshot::default()
        } else {
            let h = lake
                .obs()
                .histograms
                .iter()
                .find(|(n, _)| n == "span_us.discovery")
                .map(|(_, h)| h.clone())
                .expect("lake queries must record discovery spans");
            assert!(
                h.count() >= (queries.len() * QUERY_REPS) as u64,
                "span histogram missing recorded queries"
            );
            h
        };

        // ---- flush stall: force a flush mid-query ------------------------
        // Dirty the memtable so the forced flush has real work (row inserts
        // promote their cold-owned tables and add fresh postings).
        let dirty: Vec<WalRecord> = corpus
            .iter()
            .filter(|(_, t)| t.num_cols() > 0)
            .take(8)
            .map(|(id, t)| WalRecord::InsertRow {
                table: id,
                cells: (0..t.num_cols()).map(|c| format!("stall-{c}")).collect(),
            })
            .collect();
        lake.apply_many(dirty).expect("dirty memtable");

        // Pin a pre-flush snapshot and record its answer for the identity
        // check after the flush has restructured the layer stack.
        let reader = lake.reader();
        let pinned: Vec<_> = queries
            .iter()
            .map(|q| {
                discover_snapshot(
                    reader.snapshot(),
                    MateConfig::default(),
                    &q.table,
                    &q.key,
                    10,
                )
                .top_k
            })
            .collect();

        // Run the query batch while a flush executes on another thread.
        // Pre-snapshot serving, this configuration could not even be
        // expressed without deadlock (reader guard vs. flush write lock);
        // the numbers below are the residual interference.
        let (query_us_during_flush, flush_ms_with_open_reader) = std::thread::scope(|scope| {
            let lake_ref = &lake;
            let flusher = scope.spawn(move || {
                let t = Instant::now();
                let flushed = lake_ref.flush().expect("flush during queries");
                (t.elapsed().as_secs_f64() * 1e3, flushed)
            });
            let t = Instant::now();
            let mut hits = 0usize;
            for q in &queries {
                hits += discover_snapshot(
                    reader.snapshot(),
                    MateConfig::default(),
                    &q.table,
                    &q.key,
                    10,
                )
                .top_k
                .len();
            }
            std::hint::black_box(hits);
            let query_us = t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64;
            let (flush_ms, flushed) = flusher.join().expect("flusher thread");
            assert!(flushed, "the dirtied memtable must actually flush");
            (query_us, flush_ms)
        });

        // The outstanding reader's view did not move: bit-identical to its
        // pre-flush answers.
        for (q, pre) in queries.iter().zip(&pinned) {
            let post = discover_snapshot(
                reader.snapshot(),
                MateConfig::default(),
                &q.table,
                &q.key,
                10,
            );
            assert_eq!(&post.top_k, pre, "snapshot moved under an open reader");
        }
        // And the reader is now behind the published state — the snapshot-
        // age counter a lake query reports.
        let snapshot_lag_observed = lake
            .published_epoch()
            .saturating_sub(reader.snapshot().source_epoch());
        assert!(snapshot_lag_observed > 0, "flush must advance the epoch");
        drop(reader);
        drop(lake);

        // ---- multi-writer ingest -----------------------------------------
        // WRITERS threads race whole-table inserts; whole-table inserts
        // commute, so the resulting lake indexes exactly the same postings
        // as the single-writer one.
        let lake = EngineLake::create(base.join(format!("{name}-mw")), fresh_config())
            .expect("create lake");
        let t = Instant::now();
        let inserted: Vec<(TableId, usize, usize)> = std::thread::scope(|scope| {
            let lake_ref = &lake;
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    scope.spawn(move || {
                        corpus
                            .iter()
                            .skip(w)
                            .step_by(WRITERS)
                            .map(|(_, tbl)| {
                                let id = lake_ref.insert_table(tbl.clone()).expect("insert");
                                (id, tbl.num_cols(), tbl.num_rows())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("writer thread"))
                .collect()
        });
        let mw_secs = t.elapsed().as_secs_f64();
        let mw_stats = lake.stats();
        assert_eq!(mw_stats.tables, corpus.len(), "every insert landed");
        assert_eq!(
            mw_stats.live_postings, stats.live_postings,
            "multi-writer ingest must index the same posting count"
        );

        // ---- flush cost: incremental delta vs the monolithic fold -------
        // Drain whatever the ingest left dirty, dirty exactly
        // DIRTY_TABLES tables, and flush: the checkpoint work is one
        // cdelta record covering only those tables. Compacting then folds
        // the chain into a full checkpoint — the cost a non-incremental
        // design would pay on *every* flush. Reopen with an uncapped
        // memtable budget first: editing a cold-owned table promotes its
        // whole posting set into the memtable, and a budget flush firing
        // mid-measurement would smear a second delta (or an auto-
        // compaction fold) into the measured window.
        drop(lake);
        let lake = EngineLake::open(
            base.join(format!("{name}-mw")),
            EngineConfig {
                memtable_budget_bytes: usize::MAX,
                ..fresh_config()
            },
        )
        .expect("reopen lake");
        let _ = lake.flush().expect("drain flush");
        let edits: Vec<WalRecord> = inserted
            .iter()
            .filter(|(_, cols, rows)| *cols > 0 && *rows > 0)
            .take(DIRTY_TABLES)
            .map(|(id, _, _)| WalRecord::UpdateCell {
                table: *id,
                row: RowId(0),
                col: ColId(0),
                value: "delta-probe".to_string(),
            })
            .collect();
        let dirty_tables = edits.len();
        let s0 = lake.stats();
        lake.apply_many(edits).expect("dirty edits");
        assert!(lake.flush().expect("delta flush"), "edits must flush");
        let s1 = lake.stats();
        assert_eq!(
            s1.deltas_written,
            s0.deltas_written + 1,
            "the edit flush writes exactly one incremental delta record"
        );
        let delta_bytes = s1.checkpoint_delta_bytes - s0.checkpoint_delta_bytes;
        let flush_bytes_per_dirty_table = delta_bytes as f64 / dirty_tables.max(1) as f64;
        lake.compact().expect("fold compaction");
        let s2 = lake.stats();
        assert!(
            s2.checkpoints_written > s1.checkpoints_written,
            "compaction must fold the delta chain into a full checkpoint"
        );
        let full_bytes = s2.checkpoint_full_bytes - s1.checkpoint_full_bytes;
        assert!(
            delta_bytes < full_bytes,
            "a {dirty_tables}-table delta must be smaller than the monolithic \
             checkpoint ({delta_bytes} vs {full_bytes} bytes)"
        );
        let checkpoint_delta_ratio = delta_bytes as f64 / full_bytes.max(1) as f64;
        drop(lake);

        rows_out.push(CorpusRow {
            name: name.to_string(),
            tables: corpus.len(),
            rows: total_rows,
            sync_secs,
            sync_rows_per_s: total_rows as f64 / sync_secs.max(1e-9),
            sync_fsyncs,
            commit_p50_us: commit_q.quantile(0.50),
            commit_p95_us: commit_q.quantile(0.95),
            commit_p99_us: commit_q.quantile(0.99),
            grouped_secs,
            grouped_rows_per_s: total_rows as f64 / grouped_secs.max(1e-9),
            grouped_fsyncs,
            fsync_ratio,
            flushes: stats.flushes,
            compactions: stats.compactions,
            segments: stats.cold_segments,
            query_us,
            query_p50_us: query_q.quantile(0.50),
            query_p95_us: query_q.quantile(0.95),
            query_p99_us: query_q.quantile(0.99),
            memo_hits,
            query_us_during_flush,
            flush_ms_with_open_reader,
            snapshot_lag_observed,
            mw_secs,
            mw_rows_per_s: total_rows as f64 / mw_secs.max(1e-9),
            deltas_written: s2.deltas_written,
            flush_bytes_per_dirty_table,
            checkpoint_delta_ratio,
        });
    }
    let _ = std::fs::remove_dir_all(&base);

    // ---- human-readable report -----------------------------------------
    let mut report = Report::new(
        "EngineLake: group-commit ingest + snapshot serving",
        &[
            "Corpus",
            "Tables",
            "Rows",
            "Sync ingest",
            "fsyncs",
            "Grouped ingest",
            "fsyncs",
            "Ratio",
            "Flushes",
            "Tiered",
            "Segs",
            "Query",
            "Memo hits",
            "Query @flush",
            "Flush w/reader",
        ],
    );
    for r in &rows_out {
        report.row(vec![
            r.name.clone(),
            r.tables.to_string(),
            r.rows.to_string(),
            fmt_duration(Duration::from_secs_f64(r.sync_secs)),
            r.sync_fsyncs.to_string(),
            fmt_duration(Duration::from_secs_f64(r.grouped_secs)),
            r.grouped_fsyncs.to_string(),
            format!("{:.1}x", r.fsync_ratio),
            r.flushes.to_string(),
            r.compactions.to_string(),
            r.segments.to_string(),
            format!("{:.0}us", r.query_us),
            r.memo_hits.to_string(),
            format!("{:.0}us", r.query_us_during_flush),
            format!("{:.1}ms", r.flush_ms_with_open_reader),
        ]);
    }
    report.note(format!(
        "grouped ingest batches {GROUP} records per durability wait (EngineLake::apply_many)"
    ));
    report.note("fsync counts are exact and container-independent; x = per-record/grouped");
    report.note("identity asserted: lake top-k == held-snapshot top-k before reporting");
    report.note(
        "flush-stall section: queries ran on a pre-flush snapshot WHILE the flush executed; \
         pre-snapshot (guard) serving deadlocked this configuration outright",
    );
    report.note("old-reader identity asserted after the flush: its snapshot never moved");
    report.print();

    let mut report2 = Report::new(
        "EngineLake: multi-writer ingest + delta checkpoint cost",
        &[
            "Corpus",
            "Writers",
            "MW ingest",
            "rows/s",
            "Deltas",
            "B/dirty tbl",
            "Delta/full",
        ],
    );
    for r in &rows_out {
        report2.row(vec![
            r.name.clone(),
            WRITERS.to_string(),
            fmt_duration(Duration::from_secs_f64(r.mw_secs)),
            format!("{:.0}", r.mw_rows_per_s),
            r.deltas_written.to_string(),
            format!("{:.0}", r.flush_bytes_per_dirty_table),
            format!("{:.3}", r.checkpoint_delta_ratio),
        ]);
    }
    report2.note(format!(
        "{WRITERS} threads race EngineLake::insert_table; \
         posting-count identity with the single-writer lake asserted first"
    ));
    report2.note(format!(
        "delta flush covers {DIRTY_TABLES} dirty tables; asserted smaller than \
         the monolithic checkpoint the compaction fold rewrites"
    ));
    report2.print();

    // ---- machine-readable JSON ------------------------------------------
    let path =
        std::env::var("MATE_BENCH_JSON").unwrap_or_else(|_| "BENCH_engine_lake.json".to_string());
    let mut json = String::from("{\n  \"bench\": \"engine_lake\",\n");
    let _ = writeln!(json, "  \"group_commit_batch\": {GROUP},");
    let _ = writeln!(json, "  \"multi_writer_threads\": {WRITERS},");
    let _ = writeln!(json, "  \"delta_flush_dirty_tables\": {DIRTY_TABLES},");
    json.push_str("  \"corpora\": [\n");
    for (i, r) in rows_out.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"corpus\": \"{}\", \"tables\": {}, \"rows\": {}, \
             \"per_record_ingest_secs\": {:.4}, \"per_record_rows_per_s\": {:.1}, \
             \"per_record_fsyncs\": {}, \"commit_p50_us\": {}, \"commit_p95_us\": {}, \
             \"commit_p99_us\": {}, \"grouped_ingest_secs\": {:.4}, \
             \"grouped_rows_per_s\": {:.1}, \"grouped_fsyncs\": {}, \"fsync_ratio\": {:.2}, \
             \"flushes\": {}, \"tiered_compactions\": {}, \"cold_segments\": {}, \
             \"query_us\": {:.1}, \
             \"query_p50_us\": {}, \"query_p95_us\": {}, \"query_p99_us\": {}, \
             \"memo_hits\": {}, \
             \"query_us_during_flush\": {:.1}, \"flush_ms_with_open_reader\": {:.2}, \
             \"snapshot_lag_observed\": {}, \
             \"multi_writer_ingest_secs\": {:.4}, \"multi_writer_rows_per_s\": {:.1}, \
             \"deltas_written\": {}, \"flush_bytes_per_dirty_table\": {:.1}, \
             \"checkpoint_delta_ratio\": {:.4}}}{}",
            r.name,
            r.tables,
            r.rows,
            r.sync_secs,
            r.sync_rows_per_s,
            r.sync_fsyncs,
            r.commit_p50_us,
            r.commit_p95_us,
            r.commit_p99_us,
            r.grouped_secs,
            r.grouped_rows_per_s,
            r.grouped_fsyncs,
            r.fsync_ratio,
            r.flushes,
            r.compactions,
            r.segments,
            r.query_us,
            r.query_p50_us,
            r.query_p95_us,
            r.query_p99_us,
            r.memo_hits,
            r.query_us_during_flush,
            r.flush_ms_with_open_reader,
            r.snapshot_lag_observed,
            r.mw_secs,
            r.mw_rows_per_s,
            r.deltas_written,
            r.flush_bytes_per_dirty_table,
            r.checkpoint_delta_ratio,
            if i + 1 < rows_out.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("[engine_lake] wrote {path}");
}
