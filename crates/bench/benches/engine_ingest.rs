//! Engine ingest bench: WAL-durable ingest throughput, flush/compaction
//! behavior, crash-recovery time, and query latency hot vs merged.
//!
//! Emits a machine-readable `BENCH_engine.json` (path overridable via
//! `MATE_BENCH_JSON`) next to the human-readable report. All metrics are
//! single-core-safe (rows/s of a sequential ingest loop, counts, per-op
//! latencies) — nothing here claims a parallel speedup.

use mate_bench::{build_lakes, fmt_duration, Report};
use mate_core::{discover_snapshot, MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::engine::{Engine, EngineConfig};
use mate_index::{IndexBuilder, WalRecord};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

struct CorpusRow {
    name: String,
    tables: usize,
    rows: usize,
    ingest_secs: f64,
    rows_per_s: f64,
    flushes: u64,
    segments_before: usize,
    segments_after: usize,
    compact_ms: f64,
    recovery_ms: f64,
    replayed_records: u64,
    apply_p50_us: u64,
    apply_p95_us: u64,
    apply_p99_us: u64,
    query_us_hot: f64,
    query_us_merged: f64,
    live_postings: usize,
    cold_bytes: usize,
}

/// Obs overhead control: the same ingest run twice in one process, once
/// with the engine's obs hub enabled (spans + events recorded) and once
/// disabled. A same-run pair cancels machine noise better than comparing
/// against a historical baseline.
struct ObsOverhead {
    enabled_secs: f64,
    disabled_secs: f64,
    ratio: f64,
}

fn measure_obs_overhead(corpus: &mate_table::Corpus, base: &std::path::Path) -> ObsOverhead {
    let run = |label: &str, obs: std::sync::Arc<mate_obs::Obs>| -> f64 {
        let config = EngineConfig {
            obs,
            ..EngineConfig::default()
        };
        let mut engine =
            Engine::create(base.join(format!("obs-{label}")), config).expect("create engine");
        let t = Instant::now();
        for (_, table) in corpus.iter() {
            engine
                .apply(WalRecord::InsertTable {
                    table: table.clone(),
                })
                .expect("ingest");
        }
        engine.flush().expect("flush");
        t.elapsed().as_secs_f64()
    };
    // Warm-up pass so neither measured run pays first-touch costs.
    let _ = run("warmup", std::sync::Arc::new(mate_obs::Obs::disabled()));
    let disabled_secs = run("off", std::sync::Arc::new(mate_obs::Obs::disabled()));
    let enabled_secs = run("on", std::sync::Arc::new(mate_obs::Obs::new()));
    let ratio = enabled_secs / disabled_secs.max(1e-9);
    // Generous band for a shared CI box: the enabled hub must not show a
    // systematic regression (its per-apply cost is a few atomics), and a
    // "speedup" beyond noise would mean the measurement itself is broken.
    assert!(
        (0.5..=2.0).contains(&ratio),
        "obs enabled/disabled ingest ratio out of band: {ratio:.3} \
         ({enabled_secs:.4}s vs {disabled_secs:.4}s)"
    );
    ObsOverhead {
        enabled_secs,
        disabled_secs,
        ratio,
    }
}

fn main() {
    let lakes = build_lakes();
    let hasher = Xash::new(HashSize::B128);
    let base = std::env::temp_dir().join(format!("mate-engine-ingest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let mut rows_out: Vec<CorpusRow> = Vec::new();

    for (name, corpus) in [
        ("webtables", &lakes.webtables),
        ("opendata", &lakes.opendata),
        ("school", &lakes.school),
    ] {
        // Budget sized off the single-shot hot index so every scale
        // produces a handful of flushes.
        let single = IndexBuilder::new(hasher).build(corpus);
        let budget = (single.stats().posting_store_bytes / 6).max(16 << 10);
        let config = EngineConfig {
            memtable_budget_bytes: budget,
            max_cold_segments: 0, // compaction timed explicitly below
            ..EngineConfig::default()
        };
        let dir = base.join(name);

        // ---- ingest: one WAL-durable InsertTable per lake table ---------
        let total_rows: usize = corpus.iter().map(|(_, t)| t.num_rows()).sum();
        let mut engine = Engine::create(&dir, config.clone()).expect("create engine");
        let apply_hist = mate_obs::Histogram::new();
        let t = Instant::now();
        for (_, table) in corpus.iter() {
            let t_apply = Instant::now();
            engine
                .apply(WalRecord::InsertTable {
                    table: table.clone(),
                })
                .expect("ingest");
            apply_hist.record(t_apply.elapsed().as_micros() as u64);
        }
        let ingest_secs = t.elapsed().as_secs_f64();
        let apply_q = apply_hist.snapshot();
        let flushes = engine.stats().flushes;
        let segments_before = engine.num_cold_segments();

        // ---- queries over the multi-layer engine vs a hot index ---------
        let queries: Vec<_> = lakes
            .iter_sets()
            .filter(|(_, c)| std::ptr::eq(*c, corpus))
            .flat_map(|(set, _)| set.queries.iter().take(2))
            .collect();
        let time_queries = |f: &mut dyn FnMut(
            &mate_table::Table,
            &[mate_table::ColId],
        ) -> mate_core::DiscoveryResult|
         -> f64 {
            let t = Instant::now();
            let mut hits = 0usize;
            for q in &queries {
                hits += f(&q.table, &q.key).top_k.len();
            }
            std::hint::black_box(hits);
            t.elapsed().as_secs_f64() * 1e6 / queries.len().max(1) as f64
        };
        let query_us_hot = time_queries(&mut |q, key| {
            MateDiscovery::new(corpus, &single, &hasher).discover(q, key, 10)
        });
        let query_us_merged = time_queries(&mut |q, key| {
            discover_snapshot(&engine.snapshot(), MateConfig::default(), q, key, 10)
        });

        // Identity guard: the bench refuses to report numbers for a broken
        // engine.
        for q in queries.iter().take(1) {
            let hot = MateDiscovery::new(corpus, &single, &hasher).discover(&q.table, &q.key, 10);
            let merged = discover_snapshot(
                &engine.snapshot(),
                MateConfig::default(),
                &q.table,
                &q.key,
                10,
            );
            assert_eq!(hot.top_k, merged.top_k, "engine/hot identity violated");
        }

        // ---- compaction --------------------------------------------------
        let t = Instant::now();
        engine.compact().expect("compact");
        let compact_ms = t.elapsed().as_secs_f64() * 1e3;
        let segments_after = engine.num_cold_segments();
        let live_postings = engine.live_postings();
        let cold_bytes = engine.stats().cold_bytes;

        // ---- crash recovery ---------------------------------------------
        drop(engine);
        let t = Instant::now();
        let reopened = Engine::open(&dir, config).expect("recover engine");
        let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
        let replayed_records = reopened.stats().replayed_records;
        assert_eq!(reopened.live_postings(), live_postings, "recovery drift");

        rows_out.push(CorpusRow {
            name: name.to_string(),
            tables: corpus.len(),
            rows: total_rows,
            ingest_secs,
            rows_per_s: total_rows as f64 / ingest_secs.max(1e-9),
            flushes,
            segments_before,
            segments_after,
            compact_ms,
            recovery_ms,
            replayed_records,
            apply_p50_us: apply_q.quantile(0.50),
            apply_p95_us: apply_q.quantile(0.95),
            apply_p99_us: apply_q.quantile(0.99),
            query_us_hot,
            query_us_merged,
            live_postings,
            cold_bytes,
        });
    }
    // ---- obs overhead: same ingest with the hub enabled vs disabled -----
    let overhead = measure_obs_overhead(&lakes.school, &base);
    let _ = std::fs::remove_dir_all(&base);

    // ---- human-readable report -----------------------------------------
    let mut report = Report::new(
        "Engine ingest: WAL-durable writes, flush, compaction, recovery",
        &[
            "Corpus",
            "Tables",
            "Rows",
            "Ingest",
            "Rows/s",
            "Flushes",
            "Segs",
            "Compacted",
            "Compact ms",
            "Recover ms",
            "Query hot",
            "Query merged",
        ],
    );
    for r in &rows_out {
        report.row(vec![
            r.name.clone(),
            r.tables.to_string(),
            r.rows.to_string(),
            fmt_duration(Duration::from_secs_f64(r.ingest_secs)),
            format!("{:.0}", r.rows_per_s),
            r.flushes.to_string(),
            r.segments_before.to_string(),
            r.segments_after.to_string(),
            format!("{:.1}", r.compact_ms),
            format!("{:.1}", r.recovery_ms),
            format!("{:.0}us", r.query_us_hot),
            format!("{:.0}us", r.query_us_merged),
        ]);
    }
    report.note(
        "ingest is fully WAL-durable: one fsync per record (see engine_lake for group commit)",
    );
    report.note(
        "merged queries share the engine snapshot's memo; latency includes cold block decode",
    );
    report.note("identity asserted: merged top-k == single-shot hot top-k before reporting");
    report.note("single-core metrics only (rows/s, counts, per-op latency); no parallel claims");
    report.note(format!(
        "obs overhead (school, same-run control): enabled {:.4}s vs disabled {:.4}s = {:.3}x",
        overhead.enabled_secs, overhead.disabled_secs, overhead.ratio
    ));
    report.print();

    // ---- machine-readable JSON ------------------------------------------
    let path = std::env::var("MATE_BENCH_JSON").unwrap_or_else(|_| "BENCH_engine.json".to_string());
    let mut json = String::from("{\n  \"bench\": \"engine_ingest\",\n");
    let _ = writeln!(
        json,
        "  \"obs_enabled_ingest_secs\": {:.4},\n  \"obs_disabled_ingest_secs\": {:.4},\n  \
         \"obs_overhead_ratio\": {:.4},",
        overhead.enabled_secs, overhead.disabled_secs, overhead.ratio
    );
    json.push_str("  \"corpora\": [\n");
    for (i, r) in rows_out.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"corpus\": \"{}\", \"tables\": {}, \"rows\": {}, \"ingest_secs\": {:.4}, \
             \"ingest_rows_per_s\": {:.1}, \"flushes\": {}, \"segments_before_compaction\": {}, \
             \"segments_after_compaction\": {}, \"compact_ms\": {:.2}, \"recovery_ms\": {:.2}, \
             \"replayed_records\": {}, \"apply_p50_us\": {}, \"apply_p95_us\": {}, \
             \"apply_p99_us\": {}, \"query_us_hot\": {:.1}, \"query_us_merged\": {:.1}, \
             \"live_postings\": {}, \"cold_segment_bytes\": {}}}{}",
            r.name,
            r.tables,
            r.rows,
            r.ingest_secs,
            r.rows_per_s,
            r.flushes,
            r.segments_before,
            r.segments_after,
            r.compact_ms,
            r.recovery_ms,
            r.replayed_records,
            r.apply_p50_us,
            r.apply_p95_us,
            r.apply_p99_us,
            r.query_us_hot,
            r.query_us_merged,
            r.live_postings,
            r.cold_bytes,
            if i + 1 < rows_out.len() { "," } else { "" },
        );
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("[engine_ingest] wrote {path}");
}
