//! Discovery instrumentation.
//!
//! Every run of the engine produces a [`DiscoveryStats`]: the counter values
//! the paper's evaluation reports — PL items fetched (§7.5.4), rows filtered
//! vs. passed, false-positive rows and precision (Table 3), pruning-rule
//! activity (§6.2), and wall-clock time (Table 2 / Fig. 4).

use mate_table::ColId;
use std::time::Duration;

/// Counters collected by one discovery worker thread (or the single
/// sequential pass). The aggregate fields of [`DiscoveryStats`] are the
/// element-wise sums of these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tables whose row scan this worker started.
    pub tables_evaluated: usize,
    /// Tables this worker abandoned mid-scan via filtering rule 2.
    pub tables_skipped_rule2: usize,
    /// Super-key containment checks this worker performed.
    pub rows_filter_checked: usize,
    /// Row pairs that passed the filter on this worker.
    pub rows_passed_filter: usize,
    /// Verified joinable row pairs on this worker.
    pub rows_verified_joinable: usize,
    /// Filter false positives on this worker.
    pub false_positive_rows: usize,
    /// True if a verification on this worker hit the mapping cap.
    pub mappings_capped: bool,
    /// Posting blocks this worker decoded (cold serving mode; always 0 on a
    /// hot arena store, which has no blocks).
    pub blocks_decoded: u64,
    /// Posting blocks this worker bypassed via their skip headers without
    /// touching the payload (cold serving mode).
    pub blocks_skipped: u64,
    /// Wall time this worker spent inside the candidate loop (busy time:
    /// excludes waiting for work to be partitioned, includes evaluation
    /// and verification). NOT summed by `fold_into` — per-worker busy
    /// times are reported side by side in [`QueryProfile`], not
    /// aggregated into run totals.
    ///
    /// [`QueryProfile`]: mate_obs::QueryProfile
    pub busy: Duration,
}

impl WorkerStats {
    /// Adds this worker's counters into the run-level aggregates.
    pub fn fold_into(&self, stats: &mut DiscoveryStats) {
        stats.tables_evaluated += self.tables_evaluated;
        stats.tables_skipped_rule2 += self.tables_skipped_rule2;
        stats.rows_filter_checked += self.rows_filter_checked;
        stats.rows_passed_filter += self.rows_passed_filter;
        stats.rows_verified_joinable += self.rows_verified_joinable;
        stats.false_positive_rows += self.false_positive_rows;
        stats.mappings_capped |= self.mappings_capped;
        stats.blocks_decoded += self.blocks_decoded;
        stats.blocks_skipped += self.blocks_skipped;
    }
}

/// Counters collected during one discovery run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiscoveryStats {
    /// The initial column that was selected (§6.1).
    pub initial_column: Option<ColId>,
    /// Distinct initial-column values that had a posting list.
    pub pl_lists_fetched: usize,
    /// Total posting-list items fetched through the initial column.
    pub pl_items_fetched: usize,
    /// Candidate tables after grouping the fetched PL items.
    pub candidate_tables: usize,
    /// Tables whose rows were actually evaluated.
    pub tables_evaluated: usize,
    /// Tables skipped mid-scan by filtering rule 2 (Algorithm 1 line 14).
    pub tables_skipped_rule2: usize,
    /// True if rule 1 fired and the scan stopped early (line 9).
    pub stopped_early_rule1: bool,
    /// Super-key containment checks performed (row filter, §6.3).
    pub rows_filter_checked: usize,
    /// Row pairs that passed the filter and went to verification.
    pub rows_passed_filter: usize,
    /// Verified joinable row pairs (true positives).
    pub rows_verified_joinable: usize,
    /// Row pairs that passed the filter but failed verification
    /// (false positives of the hash filter).
    pub false_positive_rows: usize,
    /// True if any verification hit the mapping-enumeration cap.
    pub mappings_capped: bool,
    /// Posting blocks decoded while evaluating candidates (cold serving
    /// mode; 0 on a hot index — see [`WorkerStats::blocks_decoded`]).
    pub blocks_decoded: u64,
    /// Posting blocks skipped via skip headers (cold serving mode).
    pub blocks_skipped: u64,
    /// Worker threads used by the per-table loop (1 = sequential).
    pub query_threads: usize,
    /// Posting layers that served the query: 0 when probing a plain
    /// hot/cold index directly, `cold segments + 1` (the memtable) when
    /// running over the multi-segment engine (set by
    /// [`crate::engine_query::discover_snapshot`]).
    pub source_layers: usize,
    /// Merged-list resolutions answered by the serving snapshot's memo
    /// during this query, repeats within the query included (set by
    /// [`crate::engine_query::discover_snapshot`]; approximate when other
    /// queries run concurrently — the
    /// [`SourceCache`](mate_index::SourceCache) counters are
    /// engine-global).
    pub cold_cache_hits: u64,
    /// Resolutions that had to walk the layer stack and filled the memo
    /// (see [`DiscoveryStats::cold_cache_hits`]).
    pub cold_cache_misses: u64,
    /// Page-cache hits while faulting cold segment bytes in during this
    /// query (set by [`crate::engine_query::discover_snapshot`];
    /// approximate under concurrency — the pager counters are engine-global, like
    /// [`DiscoveryStats::cold_cache_hits`]). 0 when every cold layer the
    /// query touched was resident, or when probing a plain index.
    pub pager_hits: u64,
    /// Page-cache fills (pread round trips) the query's cold probes
    /// triggered (see [`DiscoveryStats::pager_hits`]).
    pub pager_misses: u64,
    /// Source epoch of the engine snapshot that served the query (set by
    /// [`crate::engine_query::discover_snapshot`] /
    /// [`crate::engine_query::discover_lake`]; 0 when probing a plain
    /// index). Every flush, compaction, promotion, and cold tombstone
    /// bumps the engine's epoch, so two queries reporting the same epoch
    /// observed the same layer structure.
    pub snapshot_epoch: u64,
    /// How many epochs the served snapshot was behind the lake's published
    /// state when the query finished (set by
    /// [`crate::engine_query::discover_lake`]) — the snapshot-age counter.
    /// 0 means the query ran over the newest published state; a non-zero
    /// lag means writers advanced mid-query, which snapshot serving makes
    /// harmless (the query's view stayed pinned).
    pub snapshot_lag: u64,
    /// Per-worker counter breakdown for parallel runs (empty when
    /// sequential; the aggregate fields above are their sums).
    pub per_worker: Vec<WorkerStats>,
    /// Wall-clock time of the discovery run.
    pub elapsed: Duration,
    /// Wall-clock time of the init phase alone (initial-column selection,
    /// key-map build, candidate collection and ordering) — the prefix of
    /// `elapsed` before the candidate loop started.
    pub init_elapsed: Duration,
}

impl DiscoveryStats {
    /// Filter precision `TP / (TP + FP)` over the row pairs that reached
    /// verification (Table 3 of the paper). A run in which nothing passed
    /// the filter produced no false positives and scores 1.0.
    pub fn precision(&self) -> f64 {
        let tp = self.rows_verified_joinable as f64;
        let fp = self.false_positive_rows as f64;
        if tp + fp == 0.0 {
            1.0
        } else {
            tp / (tp + fp)
        }
    }

    /// Fraction of filter checks that passed (lower = stronger filter).
    pub fn filter_pass_rate(&self) -> f64 {
        if self.rows_filter_checked == 0 {
            0.0
        } else {
            self.rows_passed_filter as f64 / self.rows_filter_checked as f64
        }
    }

    /// Condenses the run's counters into a flat [`mate_obs::QueryProfile`]
    /// (where the query spent its time and I/O budget). For a sequential
    /// run the single "worker"'s busy time is `elapsed - init_elapsed`.
    pub fn profile(&self) -> mate_obs::QueryProfile {
        let worker_busy_us = if self.per_worker.is_empty() {
            vec![self.elapsed.saturating_sub(self.init_elapsed).as_micros() as u64]
        } else {
            self.per_worker
                .iter()
                .map(|w| w.busy.as_micros() as u64)
                .collect()
        };
        mate_obs::QueryProfile {
            init_us: self.init_elapsed.as_micros() as u64,
            total_us: self.elapsed.as_micros() as u64,
            worker_busy_us,
            postings_probed: self.pl_items_fetched as u64,
            blocks_decoded: self.blocks_decoded,
            blocks_skipped: self.blocks_skipped,
            cache_hits: self.cold_cache_hits,
            cache_misses: self.cold_cache_misses,
            snapshot_lag: self.snapshot_lag,
        }
    }
}

/// Mirrors the counter fields of a [`DiscoveryStats`] into `obs` as gauges
/// under the `discovery_stats.` prefix, completing the unified metric
/// catalog alongside the engine's `engine.*` metrics and
/// `export_index_stats` (gauges, not counters: a stats struct is one run's
/// snapshot — callers export the run they want visible, typically the
/// latest).
pub fn export_discovery_stats(obs: &mate_obs::Obs, stats: &DiscoveryStats) {
    let pairs: [(&str, u64); 18] = [
        ("pl_lists_fetched", stats.pl_lists_fetched as u64),
        ("pl_items_fetched", stats.pl_items_fetched as u64),
        ("candidate_tables", stats.candidate_tables as u64),
        ("tables_evaluated", stats.tables_evaluated as u64),
        ("tables_skipped_rule2", stats.tables_skipped_rule2 as u64),
        ("stopped_early_rule1", stats.stopped_early_rule1 as u64),
        ("rows_filter_checked", stats.rows_filter_checked as u64),
        ("rows_passed_filter", stats.rows_passed_filter as u64),
        (
            "rows_verified_joinable",
            stats.rows_verified_joinable as u64,
        ),
        ("false_positive_rows", stats.false_positive_rows as u64),
        ("blocks_decoded", stats.blocks_decoded),
        ("blocks_skipped", stats.blocks_skipped),
        ("query_threads", stats.query_threads as u64),
        ("snapshot_lag", stats.snapshot_lag),
        ("pager_hits", stats.pager_hits),
        ("pager_misses", stats.pager_misses),
        ("elapsed_us", stats.elapsed.as_micros() as u64),
        ("init_elapsed_us", stats.init_elapsed.as_micros() as u64),
    ];
    for (name, v) in pairs {
        obs.gauge(&format!("discovery_stats.{name}")).set(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_basic() {
        let s = DiscoveryStats {
            rows_verified_joinable: 30,
            false_positive_rows: 10,
            ..Default::default()
        };
        assert!((s.precision() - 0.75).abs() < 1e-9);
    }

    #[test]
    fn precision_empty_is_one() {
        assert_eq!(DiscoveryStats::default().precision(), 1.0);
    }

    #[test]
    fn pass_rate() {
        let s = DiscoveryStats {
            rows_filter_checked: 200,
            rows_passed_filter: 50,
            ..Default::default()
        };
        assert!((s.filter_pass_rate() - 0.25).abs() < 1e-9);
        assert_eq!(DiscoveryStats::default().filter_pass_rate(), 0.0);
    }
}
