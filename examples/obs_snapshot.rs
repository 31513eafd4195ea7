//! obs_snapshot: one observability snapshot of a working engine lake.
//!
//! Drives an [`EngineLake`] through its whole lifecycle — ingest, flush,
//! tiered compaction, scrub, and discovery queries — then dumps the lake's
//! unified `mate_obs` snapshot: every registered counter, gauge, and span
//! histogram, the retained event log, and a per-query profile. The JSON is
//! re-parsed with `mate_obs::json` and checked for completeness (every
//! registered metric must appear), so this example doubles as the CI obs
//! smoke test.
//!
//! Run with: `cargo run --release --example obs_snapshot`
//!
//! [`EngineLake`]: mate_index::EngineLake

use mate_core::{discover_lake, export_discovery_stats, MateConfig};
use mate_index::engine::{EngineConfig, EngineLake};
use mate_table::{ColId, TableBuilder};

fn main() {
    let dir = std::env::temp_dir().join(format!("mate-obs-snapshot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Small memtable budget so the workload crosses flush and compaction
    // boundaries; the default obs hub records spans and events throughout.
    let config = EngineConfig {
        memtable_budget_bytes: 32 << 10,
        max_cold_segments: 2,
        tier_fanout: 2,
        ..EngineConfig::default()
    };
    let lake = EngineLake::create(&dir, config).expect("create lake");

    // ---- ingest enough tables to force flushes and a tiered merge ------
    for t in 0..24 {
        let mut tb = TableBuilder::new(format!("t{t}"), ["a", "b", "c"]);
        for i in 0..40 {
            tb = tb.row([
                format!("k{}", (i + t) % 50),
                format!("v{}", (i * 3 + t) % 50),
                format!("w{t}-{i}"),
            ]);
        }
        lake.insert_table(tb.build()).expect("insert");
    }
    let _ = lake.flush().expect("flush");
    let merged = lake.compact_tiered().expect("tiered compaction");
    let report = lake.scrub().expect("scrub");
    assert_eq!(report.corruptions_found, 0, "clean lake must scrub clean");

    // ---- queries: spans land in the lake's hub, stats become a profile --
    let query = TableBuilder::new("q", ["x", "y"])
        .row(["k0", "v0"])
        .row(["k1", "v3"])
        .row(["k2", "v6"])
        .build();
    let result = discover_lake(
        &lake,
        MateConfig::default(),
        &query,
        &[ColId(0), ColId(1)],
        5,
    );
    let profile = result.stats.profile();
    export_discovery_stats(lake.obs_handle(), &result.stats);

    // ---- export ---------------------------------------------------------
    let snap = lake.obs();
    let json = snap.to_json();
    println!("=== ObsSnapshot (JSON) ===\n{json}\n");
    println!("=== QueryProfile ===\n{}\n", profile.to_json());
    println!("=== Prometheus exposition ===\n{}", snap.to_prometheus());

    // ---- smoke assertions (CI gate) -------------------------------------
    let doc = mate_obs::json::parse(&json).expect("snapshot JSON must parse");
    let counters = doc
        .get("counters")
        .and_then(|v| v.as_obj())
        .expect("counters");
    let gauges = doc.get("gauges").and_then(|v| v.as_obj()).expect("gauges");
    let hists = doc
        .get("histograms")
        .and_then(|v| v.as_obj())
        .expect("histograms");
    for name in snap.metric_names() {
        assert!(
            counters.contains_key(&name) || gauges.contains_key(&name) || hists.contains_key(&name),
            "registered metric {name} missing from JSON export"
        );
    }
    // The lifecycle left its fingerprints: spans for every phase that ran,
    // the engine's counters, and a non-empty event log.
    for span in [
        "span_us.flush",
        "span_us.compact",
        "span_us.scrub",
        "span_us.discovery",
    ] {
        assert!(hists.contains_key(span), "missing {span} histogram");
    }
    assert!(
        counters.contains_key("engine.flushes"),
        "engine counters missing"
    );
    assert!(
        gauges.contains_key("discovery_stats.candidate_tables"),
        "discovery catalog missing"
    );
    // The paged cold tier mirrors its page-cache traffic: the discovery
    // query faulted cold pages in, so every `pager.*` metric must appear
    // in the JSON export AND carry the same value on the Prometheus side
    // (the round-trip the ops pipeline depends on).
    let prom = snap.to_prometheus();
    for name in ["pager.hits", "pager.misses", "pager.evictions"] {
        let v = counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing from JSON export"));
        let line = format!("{} {}", name.replace('.', "_"), v as u64);
        assert!(prom.contains(&line), "Prometheus export missing `{line}`");
    }
    let resident = gauges
        .get("pager.resident_bytes")
        .and_then(|v| v.as_f64())
        .expect("pager.resident_bytes gauge missing");
    assert!(prom.contains(&format!("pager_resident_bytes {}", resident as u64)));
    assert!(
        hists.contains_key("pager.fills_us"),
        "pager fill-latency histogram missing"
    );
    assert!(prom.contains("pager_fills_us_count"));
    let pager_misses = counters
        .get("pager.misses")
        .and_then(|v| v.as_f64())
        .unwrap();
    assert!(
        pager_misses > 0.0,
        "a query over flushed segments must fault pages in"
    );

    let events = doc.get("events").and_then(|v| v.as_arr()).expect("events");
    assert!(!events.is_empty(), "lifecycle must leave events");
    assert!(
        profile.total_us >= profile.init_us,
        "profile timing inverted"
    );

    println!(
        "ok: {} metrics exported, {} events retained, {} segments merged, profile total {}us",
        snap.metric_names().len(),
        events.len(),
        merged,
        profile.total_us
    );
    let _ = std::fs::remove_dir_all(&dir);
}
