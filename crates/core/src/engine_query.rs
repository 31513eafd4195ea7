//! Discovery over the multi-segment engine.
//!
//! The engine's [`MergedSource`] implements [`mate_index::PostingSource`],
//! so Algorithm 1 runs over it unchanged — this module is just the wiring:
//! borrow the engine's corpus, merged posting view, and global super-key
//! store, and hand them to [`MateDiscovery::from_parts`]. Results are
//! bit-identical to a single-shot built index at every flush state
//! (property-tested in `tests/engine_discovery.rs`).
//!
//! Two entry points: [`discover_snapshot`] for an owned
//! [`EngineSnapshot`] — an exclusively-held [`Engine`](mate_index::Engine)
//! serves through `discover_snapshot(&engine.snapshot(), …)` — and
//! [`discover_lake`] for a shared [`EngineLake`] (takes the current
//! published snapshot). Both resolve through the snapshot's memo, so the
//! queries served by one snapshot share resolutions. Each returns a
//! [`DiscoveryResult`] whose `stats.profile()` yields the query's
//! [`QueryProfile`](mate_obs::QueryProfile) at no extra measurement cost.
//!
//! [`MergedSource`]: mate_index::MergedSource

use crate::config::MateConfig;
use crate::discovery::{DiscoveryResult, MateDiscovery};
use mate_index::engine::{EngineLake, EngineSnapshot};
use mate_table::{ColId, Table};

/// Runs a top-k discovery over an owned [`EngineSnapshot`] — the lock-free
/// serving path. The snapshot pins corpus, layer stack, and super keys
/// together, so the query is immune to concurrent flushes, compactions,
/// and ingest, and results are bit-identical to a single-shot index over
/// the snapshot's corpus. The query resolves through the snapshot's memo,
/// shared with every other query served by the same snapshot.
///
/// Sets [`DiscoveryStats::source_layers`] and
/// [`DiscoveryStats::snapshot_epoch`] ([`DiscoveryStats::snapshot_lag`]
/// stays 0 — a bare snapshot has no "current" state to compare against;
/// [`discover_lake`] fills it in), and records the query's
/// [`DiscoveryStats::cold_cache_hits`] / `cold_cache_misses` and
/// [`DiscoveryStats::pager_hits`] / `pager_misses` deltas.
///
/// [`DiscoveryStats::source_layers`]: crate::stats::DiscoveryStats::source_layers
/// [`DiscoveryStats::snapshot_epoch`]: crate::stats::DiscoveryStats::snapshot_epoch
/// [`DiscoveryStats::snapshot_lag`]: crate::stats::DiscoveryStats::snapshot_lag
/// [`DiscoveryStats::cold_cache_hits`]: crate::stats::DiscoveryStats::cold_cache_hits
/// [`DiscoveryStats::pager_hits`]: crate::stats::DiscoveryStats::pager_hits
pub fn discover_snapshot(
    snapshot: &EngineSnapshot,
    config: MateConfig,
    query: &Table,
    q_cols: &[ColId],
    k: usize,
) -> DiscoveryResult {
    let source = snapshot.source();
    let hasher = snapshot.hasher();
    let memo = snapshot.source_cache();
    let (hits0, misses0) = (memo.hits(), memo.misses());
    let pager0 = snapshot.pager_stats();
    let mut result = MateDiscovery::from_parts(
        snapshot.corpus(),
        &source,
        snapshot.superkeys(),
        &hasher,
        config,
    )
    .discover(query, q_cols, k);
    result.stats.source_layers = snapshot.num_layers();
    result.stats.snapshot_epoch = snapshot.source_epoch();
    result.stats.cold_cache_hits = memo.hits().saturating_sub(hits0);
    result.stats.cold_cache_misses = memo.misses().saturating_sub(misses0);
    let pager1 = snapshot.pager_stats();
    result.stats.pager_hits = pager1.hits.saturating_sub(pager0.hits);
    result.stats.pager_misses = pager1.misses.saturating_sub(pager0.misses);
    result
}

/// Runs a top-k discovery over an [`EngineLake`]: clones the published
/// snapshot (no engine lock — returns promptly even mid-flush, and never
/// delays writers) and runs [`discover_snapshot`] over it, so the queries
/// served by one published snapshot share its memo (property-tested
/// bit-identical in `tests/engine_lake.rs`). Queries record into the
/// lake's obs hub, and [`DiscoveryStats::snapshot_lag`] says how many
/// structural changes the served snapshot fell behind the published state
/// by query end.
///
/// [`DiscoveryStats::snapshot_lag`]: crate::stats::DiscoveryStats::snapshot_lag
pub fn discover_lake(
    lake: &EngineLake,
    mut config: MateConfig,
    query: &Table,
    q_cols: &[ColId],
    k: usize,
) -> DiscoveryResult {
    // Queries over a lake record into the lake's obs hub (its clock, its
    // `discovery` span histogram), so one snapshot shows ingest, flush, and
    // query activity side by side.
    config.obs = std::sync::Arc::clone(lake.obs_handle());
    let reader = lake.reader();
    let snapshot = reader.snapshot();
    let mut result = discover_snapshot(snapshot, config, query, q_cols, k);
    result.stats.snapshot_lag = lake
        .published_epoch()
        .saturating_sub(snapshot.source_epoch());
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_index::engine::{Engine, EngineConfig};
    use mate_index::IndexBuilder;
    use mate_table::TableBuilder;

    #[test]
    fn engine_discovery_matches_single_shot_across_flushes() {
        let dir = std::env::temp_dir().join(format!("mate-engine-query-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = EngineConfig {
            max_cold_segments: 0,
            ..EngineConfig::default()
        };
        let mut engine = Engine::create(&dir, config).unwrap();
        for t in 0..6 {
            let mut tb = TableBuilder::new(format!("t{t}"), ["a", "b"]);
            for i in 0..=t {
                tb = tb.row([format!("k{i}"), format!("v{i}")]);
            }
            engine.insert_table(tb.build()).unwrap();
            if t % 2 == 1 {
                engine.flush().unwrap();
            }
        }
        let query = TableBuilder::new("q", ["x", "y"])
            .row(["k0", "v0"])
            .row(["k1", "v1"])
            .row(["k2", "v2"])
            .build();
        let key = [ColId(0), ColId(1)];

        let fresh = IndexBuilder::new(Xash::new(HashSize::B128)).build(engine.corpus());
        let hasher = Xash::new(HashSize::B128);
        let single = MateDiscovery::new(engine.corpus(), &fresh, &hasher).discover(&query, &key, 3);
        let merged = discover_snapshot(&engine.snapshot(), MateConfig::default(), &query, &key, 3);
        assert_eq!(single.top_k, merged.top_k);
        assert_eq!(merged.stats.source_layers, engine.num_layers());
        assert!(merged.stats.source_layers > 1, "flushes built cold layers");
        assert!(merged.stats.cold_cache_misses > 0, "first query fills");

        // The lake publishes the engine's cached snapshot, so its queries
        // resolve through the memo the engine query filled.
        let lake = mate_index::EngineLake::new(engine);
        let first = discover_lake(&lake, MateConfig::default(), &query, &key, 3);
        assert_eq!(first.top_k, single.top_k);
        assert!(first.stats.cold_cache_hits > 0, "repeat query hits");
        assert_eq!(first.stats.cold_cache_misses, 0, "nothing left to fill");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn queries_record_spans_profiles_and_use_the_pluggable_clock() {
        use std::sync::Arc;

        let dir = std::env::temp_dir().join(format!("mate-obs-query-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut engine = Engine::create(&dir, EngineConfig::default()).unwrap();
        for t in 0..4 {
            let mut tb = TableBuilder::new(format!("t{t}"), ["a", "b"]);
            for i in 0..=(2 * t) {
                tb = tb.row([format!("k{i}"), format!("v{i}")]);
            }
            engine.insert_table(tb.build()).unwrap();
        }
        engine.flush().unwrap();
        let query = TableBuilder::new("q", ["x", "y"])
            .row(["k0", "v0"])
            .row(["k1", "v1"])
            .build();
        let key = [ColId(0), ColId(1)];

        // A lake query lands a `discovery` span in the *lake's* obs hub,
        // even though the passed config carries its own fresh hub.
        let lake = mate_index::EngineLake::new(engine);
        let r = discover_lake(&lake, MateConfig::default(), &query, &key, 2);
        let snap = lake.obs();
        assert!(
            snap.histograms
                .iter()
                .any(|(n, h)| n == "span_us.discovery" && h.count() >= 1),
            "lake hub should hold the discovery span"
        );
        assert!(snap.events.iter().any(|e| e.kind == "discovery"));

        // The profile condenses the same run's stats.
        let p = r.stats.profile();
        assert!(p.total_us >= p.init_us);
        assert_eq!(p.worker_busy_us.len(), 1, "sequential run: one worker");

        // The snapshot entry point agrees with the lake path.
        let reader = lake.reader();
        let res = discover_snapshot(reader.snapshot(), MateConfig::default(), &query, &key, 2);
        assert_eq!(res.top_k, r.top_k);

        // A parallel run reports one busy time per worker.
        let cfg = MateConfig {
            query_threads: 3,
            ..Default::default()
        };
        let par = discover_snapshot(reader.snapshot(), cfg, &query, &key, 2);
        assert_eq!(par.stats.profile().worker_busy_us.len(), 3);

        // All query timing comes from the pluggable clock: under a manual
        // clock that never advances, elapsed is exactly zero.
        let obs = Arc::new(mate_obs::Obs::with_clock(Arc::new(
            mate_obs::ManualClock::new(),
        )));
        let cfg = MateConfig {
            obs,
            ..Default::default()
        };
        let frozen = discover_snapshot(reader.snapshot(), cfg, &query, &key, 2);
        assert_eq!(frozen.top_k, r.top_k);
        assert_eq!(frozen.stats.elapsed, std::time::Duration::ZERO);
        assert_eq!(frozen.stats.init_elapsed, std::time::Duration::ZERO);
        std::fs::remove_dir_all(dir).ok();
    }
}
