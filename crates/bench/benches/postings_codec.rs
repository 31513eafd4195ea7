//! Posting-codec bench: segment size against the fixed-width size model,
//! cold-start time, probe throughput, and block skip effectiveness — the
//! perf trajectory of the compressed-postings work.
//!
//! Emits a machine-readable `BENCH_postings.json` (path overridable via
//! `MATE_BENCH_JSON`) next to the human-readable report. All metrics are
//! single-core-safe (bytes, ratios, per-op latencies) — nothing here claims
//! a parallel speedup.

use mate_bench::{build_lakes, fmt_duration, Report};
use mate_core::{MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::engine::{Engine, EngineConfig};
use mate_index::{persist, IndexBuilder, PostingSource, ProbeCounters, ProbeScratch};
use mate_storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
use mate_storage::{SegmentReader, StdVfs};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Size of one named block inside a segment, 0 if absent.
fn block_len(data: &bytes::Bytes, name: &str) -> usize {
    SegmentReader::open(data.clone())
        .ok()
        .and_then(|seg| seg.block(name).ok())
        .map_or(0, |b| b.len())
}

struct CorpusRow {
    name: String,
    segment_bytes: usize,
    fixed_bytes: usize,
    posting_bytes: usize,
    superkey_bytes: usize,
    hot_load_us: f64,
    cold_load_us: f64,
    probe_ns_hot: f64,
    probe_ns_cold: f64,
    probe_p50_ns_hot: u64,
    probe_p99_ns_hot: u64,
    probe_p50_ns_cold: u64,
    probe_p99_ns_cold: u64,
    probes: usize,
    blocks_decoded: u64,
    blocks_skipped: u64,
}

/// Results of the paged cold-tier section: a lake 4x the cache budget
/// probed through the pager, cold then warm.
struct PagedRow {
    lake_bytes: u64,
    budget_bytes: usize,
    page_size: usize,
    segments: usize,
    probes: usize,
    cold_mean_ns: f64,
    cold_q: mate_obs::HistogramSnapshot,
    warm_mean_ns: f64,
    warm_q: mate_obs::HistogramSnapshot,
    stats: mate_storage::pager::PagerStats,
    hit_rate: f64,
    resident_peak: u64,
}

fn main() {
    let lakes = build_lakes();
    let hasher = Xash::new(HashSize::B128);
    let mut rows: Vec<CorpusRow> = Vec::new();

    for (name, corpus) in [
        ("webtables", &lakes.webtables),
        ("opendata", &lakes.opendata),
        ("school", &lakes.school),
    ] {
        let index = IndexBuilder::new(hasher).build(corpus);
        let seg = persist::index_to_bytes(&index);
        // The naive fixed-width representation (12 B per posting entry +
        // raw super-key words + value text): what an uncompressed segment
        // or the resident arena costs.
        let stats = index.stats();
        let fixed_bytes =
            stats.posting_bytes + stats.superkey_bytes_per_row + stats.value_arena_bytes;

        let t = Instant::now();
        let hot = persist::index_from_bytes(seg.clone()).expect("hot load");
        let hot_load_us = t.elapsed().as_secs_f64() * 1e6;
        // The paged open, as the engine serves a segment: parse and
        // validate the file's streams, then probe them through a page cache
        // large enough to hold the whole file.
        let seg_path = std::env::temp_dir().join(format!(
            "mate-bench-codec-{}-{name}.seg",
            std::process::id()
        ));
        std::fs::write(&seg_path, &seg).expect("write segment");
        let cache = Arc::new(PageCache::new(
            Arc::new(StdVfs),
            DEFAULT_PAGE_SIZE,
            seg.len(),
            &Arc::new(mate_obs::Obs::new()),
        ));
        cache.register_segment(0, &seg_path);
        let t = Instant::now();
        let cold = SegmentReader::open(seg.clone())
            .and_then(|s| persist::read_cold_store_paged(&s, &cache, 0))
            .expect("paged open");
        let cold_load_us = t.elapsed().as_secs_f64() * 1e6;
        assert_eq!(hot.num_postings(), cold.num_postings());

        // Probe throughput: resolve + fully decode every distinct value
        // once, in both modes (identical work, different representations).
        let values: Vec<String> = hot.iter_values().map(|(v, _)| v.to_string()).collect();
        let mut scratch = ProbeScratch::new();
        let mut counters = ProbeCounters::default();
        let mut out = Vec::new();
        // The mean comes from one timestamp pair around the whole loop (the
        // historical metric, cheapest to measure); the per-probe histogram
        // adds tail visibility at one extra clock read per probe.
        let mut probe_all = |src: &dyn PostingSource| -> (f64, mate_obs::HistogramSnapshot) {
            let hist = mate_obs::Histogram::new();
            let t = Instant::now();
            let mut total = 0usize;
            for v in &values {
                let t_probe = Instant::now();
                let list = src.find_list(v, &mut scratch).expect("known value");
                out.clear();
                src.collect_run(list, 0, list.len, &mut scratch, &mut out, &mut counters);
                hist.record(t_probe.elapsed().as_nanos() as u64);
                total += out.len();
            }
            assert_eq!(total, hot.num_postings());
            let mean = t.elapsed().as_secs_f64() * 1e9 / values.len().max(1) as f64;
            (mean, hist.snapshot())
        };
        let (probe_ns_hot, probe_hot_q) = probe_all(hot.store());
        let (probe_ns_cold, probe_cold_q) = probe_all(&cold);

        // Block skip effectiveness: run the corpus's query sets against the
        // paged store and aggregate the discovery block counters.
        let (mut decoded, mut skipped) = (0u64, 0u64);
        for (set, set_corpus) in lakes.iter_sets() {
            if !std::ptr::eq(set_corpus, corpus) {
                continue;
            }
            for q in set.queries.iter().take(2) {
                let r = MateDiscovery::from_parts(
                    corpus,
                    &cold,
                    hot.superkeys(),
                    &hasher,
                    MateConfig::default(),
                )
                .discover(&q.table, &q.key, 10);
                decoded += r.stats.blocks_decoded;
                skipped += r.stats.blocks_skipped;
            }
        }

        let _ = std::fs::remove_file(&seg_path);
        rows.push(CorpusRow {
            name: name.to_string(),
            segment_bytes: seg.len(),
            fixed_bytes,
            posting_bytes: block_len(&seg, "index.values2") + block_len(&seg, "index.postings3"),
            superkey_bytes: block_len(&seg, "index.superkeys2"),
            hot_load_us,
            cold_load_us,
            probe_ns_hot,
            probe_ns_cold,
            probe_p50_ns_hot: probe_hot_q.quantile(0.50),
            probe_p99_ns_hot: probe_hot_q.quantile(0.99),
            probe_p50_ns_cold: probe_cold_q.quantile(0.50),
            probe_p99_ns_cold: probe_cold_q.quantile(0.99),
            probes: values.len(),
            blocks_decoded: decoded,
            blocks_skipped: skipped,
        });
    }

    // ---- paged cold tier: bounded-RSS serving through the page cache ----
    // Flush the webtables corpus into a multi-segment engine, then reopen
    // it with a cache budget of 1/4 the cold bytes and re-run the probe
    // workload twice: a cold pass that faults every page in, and a warm
    // pass over the populated cache. The budget bound (`resident_bytes <=
    // budget`) holds at every instant by construction; the samples here
    // report the observed ceiling.
    let paged = {
        let corpus = &lakes.webtables;
        let dir = std::env::temp_dir().join(format!("mate-bench-paged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let flush_every = (corpus.len() / 8).max(1);
        let mut engine = Engine::create(
            &dir,
            EngineConfig {
                max_cold_segments: 0,
                ..EngineConfig::default()
            },
        )
        .expect("create paged lake");
        for (i, (_, t)) in corpus.iter().enumerate() {
            engine.insert_table(t.clone()).expect("insert");
            if i % flush_every == flush_every - 1 {
                engine.flush().expect("flush");
            }
        }
        engine.flush().expect("flush");
        drop(engine);
        let lake_bytes: u64 = std::fs::read_dir(&dir)
            .expect("lake dir")
            .flatten()
            .filter(|f| {
                let n = f.file_name().to_string_lossy().into_owned();
                n.starts_with("seg-") && n.ends_with(".seg")
            })
            .map(|f| f.metadata().unwrap().len())
            .sum();
        let budget = (lake_bytes / 4) as usize;
        let engine = Engine::open(
            &dir,
            EngineConfig {
                max_cold_segments: 0,
                cold_cache_budget_bytes: budget,
                ..EngineConfig::default()
            },
        )
        .expect("open paged lake");
        let segments = engine.num_cold_segments();

        let values: Vec<String> = IndexBuilder::new(hasher)
            .build(corpus)
            .iter_values()
            .map(|(v, _)| v.to_string())
            .collect();
        let mut scratch = ProbeScratch::new();
        let mut counters = ProbeCounters::default();
        let mut out = Vec::new();
        let mut probe_pass = |src: &dyn PostingSource| -> (f64, mate_obs::HistogramSnapshot) {
            let hist = mate_obs::Histogram::new();
            let t = Instant::now();
            let mut total = 0usize;
            for v in &values {
                let t_probe = Instant::now();
                let list = src.find_list(v, &mut scratch).expect("known value");
                out.clear();
                src.collect_run(list, 0, list.len, &mut scratch, &mut out, &mut counters);
                hist.record(t_probe.elapsed().as_nanos() as u64);
                total += out.len();
            }
            assert_eq!(total, engine.live_postings());
            let mean = t.elapsed().as_secs_f64() * 1e9 / values.len().max(1) as f64;
            (mean, hist.snapshot())
        };
        // Fresh merged view per pass — the pass difference is purely page
        // cache state, not the merged source's resolved-list memo.
        let source = engine.source();
        let (cold_mean, cold_q) = probe_pass(&source);
        let resident_after_cold = engine.pager().stats().resident_bytes;
        drop(source);
        let source = engine.source();
        let (warm_mean, warm_q) = probe_pass(&source);
        drop(source);
        let stats = engine.pager().stats();
        let resident_peak = resident_after_cold.max(stats.resident_bytes);
        assert!(
            resident_peak <= budget as u64,
            "pager ceiling violated: {resident_peak} > {budget}"
        );
        let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
        let page_size = engine.pager().page_size();
        let _ = std::fs::remove_dir_all(&dir);
        PagedRow {
            lake_bytes,
            budget_bytes: budget,
            page_size,
            segments,
            probes: values.len(),
            cold_mean_ns: cold_mean,
            cold_q,
            warm_mean_ns: warm_mean,
            warm_q,
            stats,
            hit_rate,
            resident_peak,
        }
    };

    // ---- human-readable report -----------------------------------------
    let mut report = Report::new(
        "Posting codec: segment size, paged cold serving",
        &[
            "Corpus",
            "Fixed MB",
            "Segment MB",
            "vs fixed",
            "Hot load",
            "Cold load",
            "Speedup",
            "Probe hot",
            "Probe cold",
            "Blk dec",
            "Blk skip",
        ],
    );
    let mb = |b: usize| format!("{:.2}", b as f64 / 1_048_576.0);
    for r in &rows {
        report.row(vec![
            r.name.clone(),
            mb(r.fixed_bytes),
            mb(r.segment_bytes),
            format!("{:.2}x", r.fixed_bytes as f64 / r.segment_bytes as f64),
            fmt_duration(std::time::Duration::from_secs_f64(r.hot_load_us / 1e6)),
            fmt_duration(std::time::Duration::from_secs_f64(r.cold_load_us / 1e6)),
            format!("{:.1}x", r.hot_load_us / r.cold_load_us.max(0.001)),
            format!("{:.0}ns", r.probe_ns_hot),
            format!("{:.0}ns", r.probe_ns_cold),
            r.blocks_decoded.to_string(),
            r.blocks_skipped.to_string(),
        ]);
    }
    report.note("fixed-width = 12 B/posting + raw super-key words + value text");
    report.note("acceptance: the segment is ≥ 2x smaller than the fixed-width representation");
    report.note(
        "cold load = paged open (validate, no posting decode); probes page + decode per block",
    );
    report.note("single-core metrics only (bytes / per-op latency); no parallel speedup claimed");
    report.print();

    let mut paged_report = Report::new(
        "Paged cold tier: webtables lake at 4x the cache budget",
        &[
            "Lake MB",
            "Budget MB",
            "Segs",
            "Cold p50",
            "Cold p99",
            "Warm p50",
            "Warm p99",
            "Hit rate",
            "Resident peak",
        ],
    );
    paged_report.row(vec![
        mb(paged.lake_bytes as usize),
        mb(paged.budget_bytes),
        paged.segments.to_string(),
        format!("{}ns", paged.cold_q.quantile(0.50)),
        format!("{}ns", paged.cold_q.quantile(0.99)),
        format!("{}ns", paged.warm_q.quantile(0.50)),
        format!("{}ns", paged.warm_q.quantile(0.99)),
        format!("{:.1}%", paged.hit_rate * 100.0),
        mb(paged.resident_peak as usize),
    ]);
    paged_report.note("acceptance: resident_bytes never exceeds the budget (asserted above)");
    paged_report.note("cold pass = empty cache (every probe faults pages in), warm = repeat pass");
    paged_report.print();

    // ---- machine-readable JSON ------------------------------------------
    let path =
        std::env::var("MATE_BENCH_JSON").unwrap_or_else(|_| "BENCH_postings.json".to_string());
    let mut json = String::from("{\n  \"bench\": \"postings_codec\",\n  \"corpora\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"corpus\": \"{}\", \"fixed_width_bytes\": {}, \"segment_bytes\": {}, \
             \"compression_ratio_vs_fixed\": {:.4}, \"posting_bytes\": {}, \
             \"superkey_bytes\": {}, \"hot_load_us\": {:.1}, \
             \"cold_load_us\": {:.1}, \"cold_load_speedup\": {:.2}, \"probe_ns_hot\": {:.1}, \
             \"probe_ns_cold\": {:.1}, \"probe_p50_ns_hot\": {}, \"probe_p99_ns_hot\": {}, \
             \"probe_p50_ns_cold\": {}, \"probe_p99_ns_cold\": {}, \
             \"probes\": {}, \"blocks_decoded\": {}, \
             \"blocks_skipped\": {}}}{}",
            r.name,
            r.fixed_bytes,
            r.segment_bytes,
            r.fixed_bytes as f64 / r.segment_bytes as f64,
            r.posting_bytes,
            r.superkey_bytes,
            r.hot_load_us,
            r.cold_load_us,
            r.hot_load_us / r.cold_load_us.max(0.001),
            r.probe_ns_hot,
            r.probe_ns_cold,
            r.probe_p50_ns_hot,
            r.probe_p99_ns_hot,
            r.probe_p50_ns_cold,
            r.probe_p99_ns_cold,
            r.probes,
            r.blocks_decoded,
            r.blocks_skipped,
            if i + 1 < rows.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"paged\": {{\"corpus\": \"webtables\", \"lake_bytes\": {}, \"budget_bytes\": {}, \
         \"page_size\": {}, \"segments\": {}, \"probes\": {}, \
         \"probe_ns_cold\": {:.1}, \"probe_p50_ns_cold\": {}, \"probe_p99_ns_cold\": {}, \
         \"probe_ns_warm\": {:.1}, \"probe_p50_ns_warm\": {}, \"probe_p99_ns_warm\": {}, \
         \"pager_hits\": {}, \"pager_misses\": {}, \"pager_evictions\": {}, \
         \"hit_rate\": {:.4}, \"resident_bytes_peak\": {}, \"resident_under_budget\": true}}",
        paged.lake_bytes,
        paged.budget_bytes,
        paged.page_size,
        paged.segments,
        paged.probes,
        paged.cold_mean_ns,
        paged.cold_q.quantile(0.50),
        paged.cold_q.quantile(0.99),
        paged.warm_mean_ns,
        paged.warm_q.quantile(0.50),
        paged.warm_q.quantile(0.99),
        paged.stats.hits,
        paged.stats.misses,
        paged.stats.evictions,
        paged.hit_rate,
        paged.resident_peak,
    );
    json.push_str("}\n");
    std::fs::write(&path, &json).expect("write bench json");
    eprintln!("[postings_codec] wrote {path}");
}
