//! The MATE discovery engine — Algorithm 1 of the paper, sequential or
//! multi-threaded, over any posting source.
//!
//! # Posting sources
//!
//! The engine reads posting lists through the [`PostingSource`] trait, so
//! one implementation of Algorithm 1 serves the hot arena-backed
//! [`InvertedIndex`], a paged cold segment
//! ([`mate_index::ColdPostingStore`], through [`MateDiscovery::from_parts`])
//! and the engine's merged layer stack — and is property-tested to return
//! identical results on all of them.
//!
//! Probes are **positional**: the initialization phase groups candidates by
//! table using only `table_runs` (cold mode decodes just the table-id
//! streams — column/row payloads stay untouched), recording `(list, start,
//! len)` runs instead of materialized entries. A candidate's entries are
//! decoded by `collect_run` only when the per-table loop actually evaluates
//! it, so everything the §6.2 pruning rules skip is never decoded at all.
//! In cold mode the per-block skip headers bound each `collect_run` to the
//! blocks overlapping the run; [`DiscoveryStats::blocks_decoded`] /
//! [`DiscoveryStats::blocks_skipped`] count the effect.
//!
//! # Parallel discovery
//!
//! With [`MateConfig::query_threads`] ≥ 2, the per-candidate-table loop
//! (posting-group scan → super-key row filtering → `calculateJ`
//! verification) runs on a crossbeam-scoped worker pool. Workers pull
//! candidates from the PL-count-sorted list through an atomic cursor and
//! share the current top-k floor `j_k` through an `AtomicU64`, so the two
//! table-filtering rules of §6.2 keep pruning across workers.
//!
//! The result is **bit-identical** to the sequential engine:
//!
//! * The shared floor is the k-th best joinability of the *subset* of tables
//!   finished so far, which never exceeds the final `j_k`. Parallel pruning
//!   compares bounds with **strict** `<` (the sequential engine uses `≤`):
//!   a pruned table has `j ≤ bound < floor ≤ final j_k`, so it can never
//!   belong to the final top-k — not even as a tie, since ties at `j_k`
//!   never evict. Sequential `≤`-pruning is equally lossless, so both paths
//!   drop only tables the full scan would discard anyway.
//! * Workers record `(candidate position, table, j)` for every table they
//!   fully evaluate; the merge replays those in candidate order into a fresh
//!   [`TopK`], reproducing the sequential tie-breaking exactly.
//!
//! Because the sorted candidate order makes rule 1 a *global* stop ("no
//! later table can win either"), the first worker that proves it raises a
//! shared stop flag instead of merely skipping its own candidate.

use crate::config::MateConfig;
use crate::init_column::select_initial_column;
use crate::joinability::{RowPair, VerifyScratch};
use crate::query_keys::{QueryKeyMap, QueryRowKey};
use crate::stats::{DiscoveryStats, WorkerStats};
pub use crate::topk::TableResult;
use crate::topk::TopK;
use mate_hash::fx::{FxHashMap, FxHashSet};
use mate_hash::{covers, RowHasher};
use mate_index::{
    InvertedIndex, ListHandle, PostingEntry, PostingSource, ProbeScratch, SuperKeyStore,
};
use mate_table::{ColId, Corpus, Table, TableId};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Output of a discovery run: the top-k joinable tables plus instrumentation.
#[derive(Debug, Clone)]
pub struct DiscoveryResult {
    /// Top-k tables sorted by joinability descending.
    pub top_k: Vec<TableResult>,
    /// Counters and timing for this run.
    pub stats: DiscoveryStats,
}

/// One value's contiguous slice of posting entries inside one candidate
/// table: resolved positionally during initialization, decoded only if the
/// candidate is evaluated.
#[derive(Debug, Clone, Copy)]
struct ValueRun {
    /// The candidate table.
    table: u32,
    /// Dense id of the query value (index into the run's `value_rows`).
    vid: u32,
    /// The posting list in the source.
    list: ListHandle,
    /// First entry of the run within the list.
    start: u32,
    /// Entries in the run.
    len: u32,
}

/// One candidate table: its value runs (ascending value id) and its PL-item
/// count `l_t`.
struct Candidate<'r> {
    table: u32,
    runs: &'r [ValueRun],
    l_t: usize,
}

/// The discovery engine. Borrows the corpus (for verification), a posting
/// source plus super-key store (a hot [`InvertedIndex`], or any
/// [`PostingSource`] through [`MateDiscovery::from_parts`]), and the hash
/// function that built the index (for query-side super keys).
pub struct MateDiscovery<'a> {
    corpus: &'a Corpus,
    source: &'a dyn PostingSource,
    superkeys: &'a SuperKeyStore,
    hasher: &'a dyn RowHasher,
    config: MateConfig,
}

impl<'a> MateDiscovery<'a> {
    /// Creates an engine with the default configuration.
    ///
    /// # Panics
    /// Panics if `hasher` does not match the index (size or kind).
    pub fn new(corpus: &'a Corpus, index: &'a InvertedIndex, hasher: &'a dyn RowHasher) -> Self {
        Self::with_config(corpus, index, hasher, MateConfig::default())
    }

    /// Creates an engine with an explicit configuration.
    pub fn with_config(
        corpus: &'a Corpus,
        index: &'a InvertedIndex,
        hasher: &'a dyn RowHasher,
        config: MateConfig,
    ) -> Self {
        assert_eq!(
            hasher.name(),
            index.hasher_name(),
            "hasher kind does not match index"
        );
        Self::from_parts(corpus, index.store(), index.superkeys(), hasher, config)
    }

    /// Creates an engine from a bare posting source + super-key store (the
    /// named constructors above are sugar over this).
    ///
    /// # Panics
    /// Panics if the hasher size does not match the super keys.
    pub fn from_parts(
        corpus: &'a Corpus,
        source: &'a dyn PostingSource,
        superkeys: &'a SuperKeyStore,
        hasher: &'a dyn RowHasher,
        config: MateConfig,
    ) -> Self {
        assert_eq!(
            hasher.hash_size(),
            superkeys.hash_size(),
            "hasher size does not match index"
        );
        MateDiscovery {
            corpus,
            source,
            superkeys,
            hasher,
            config,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &MateConfig {
        &self.config
    }

    /// Finds the top-`k` tables joinable with `query` on the composite key
    /// `q_cols` (Algorithm 1). Runs on [`MateConfig::query_threads`] worker
    /// threads; any thread count returns results bit-identical to the
    /// sequential engine.
    ///
    /// # Panics
    /// Panics if `q_cols` is empty, contains duplicates, or indexes columns
    /// that do not exist in `query`.
    pub fn discover(&self, query: &Table, q_cols: &[ColId], k: usize) -> DiscoveryResult {
        let obs = self.config.obs.clone();
        let _span = obs.span("discovery");
        let clock = obs.clock();
        let start_nanos = clock.now_nanos();
        validate_key(query, q_cols);
        let mut stats = DiscoveryStats::default();

        // ---- Initialization (lines 3-6) --------------------------------
        let initial = select_initial_column(query, q_cols, self.config.heuristic, self.source);
        stats.initial_column = Some(initial);

        let key_map = QueryKeyMap::build(query, q_cols, initial, self.hasher);

        // Resolve the PL of every distinct initial-column value — and its
        // query rows, once — then group the runs by table positionally
        // (table runs), without decoding entries.
        let mut runs: Vec<ValueRun> = Vec::new();
        let mut value_rows: Vec<&[QueryRowKey]> = Vec::new();
        {
            let mut scratch = ProbeScratch::new();
            let mut seen: FxHashSet<&str> = FxHashSet::default();
            for v in query.column(initial).iter() {
                if v.is_empty() || !seen.insert(v) {
                    continue;
                }
                // Only values that reach at least one usable query row matter.
                let rows = key_map.rows_for(v);
                if rows.is_empty() {
                    continue;
                }
                let vid = value_rows.len() as u32;
                value_rows.push(rows);
                if let Some(list) = self.source.find_list(v, &mut scratch) {
                    stats.pl_lists_fetched += 1;
                    stats.pl_items_fetched += list.len as usize;
                    let mut at = 0u32;
                    self.source
                        .table_runs(list, &mut scratch, &mut |table, len| {
                            runs.push(ValueRun {
                                table,
                                vid,
                                list,
                                start: at,
                                len,
                            });
                            at += len;
                        });
                }
            }
        }
        // Runs were pushed in (value id, start) order; this keeps it per table.
        runs.sort_unstable_by_key(|r| (r.table, r.vid, r.start));

        // Sort candidate tables by PL-item count descending (line 5); ties by
        // table id for determinism.
        let mut candidates: Vec<Candidate<'_>> = runs
            .chunk_by(|a, b| a.table == b.table)
            .map(|runs| Candidate {
                table: runs[0].table,
                runs,
                l_t: runs.iter().map(|r| r.len as usize).sum(),
            })
            .collect();
        candidates.sort_unstable_by(|a, b| b.l_t.cmp(&a.l_t).then(a.table.cmp(&b.table)));
        stats.candidate_tables = candidates.len();
        stats.init_elapsed = Duration::from_nanos(clock.now_nanos().saturating_sub(start_nanos));

        let threads = self.config.query_threads.max(1);
        stats.query_threads = threads;
        let shared = SharedCtx {
            corpus: self.corpus,
            source: self.source,
            superkeys: self.superkeys,
            config: &self.config,
            clock: clock.as_ref(),
            query,
            q_cols,
            value_rows: &value_rows,
        };
        let top_k = if threads <= 1 || candidates.len() < 2 {
            Self::discover_sequential(&shared, &candidates, k, &mut stats)
        } else {
            Self::discover_parallel(&shared, &candidates, k, threads, &mut stats)
        };

        stats.elapsed = Duration::from_nanos(clock.now_nanos().saturating_sub(start_nanos));
        DiscoveryResult { top_k, stats }
    }

    /// The sequential per-table loop (line 7), exactly the seed engine.
    fn discover_sequential(
        ctx: &SharedCtx<'_>,
        candidates: &[Candidate<'_>],
        k: usize,
        stats: &mut DiscoveryStats,
    ) -> Vec<TableResult> {
        let mut topk = TopK::new(k);
        let mut worker = WorkerStats::default();
        let mut probe = ProbeState::default();

        for cand in candidates {
            // Table filtering rule 1 (line 9): tables are sorted, so once the
            // PL count cannot beat j_k nothing later can either.
            if ctx.config.table_filtering
                && topk.is_full()
                && cand.l_t as u64 <= topk.min_joinability()
            {
                stats.stopped_early_rule1 = true;
                break;
            }

            let floor = if ctx.config.table_filtering && topk.is_full() {
                // Sequential rule 2 abandons when the bound is ≤ j_k.
                Some(topk.min_joinability() + 1)
            } else {
                None
            };
            if let Some(joinability) = evaluate_candidate(ctx, cand, floor, &mut worker, &mut probe)
            {
                topk.update(TableId(cand.table), joinability);
            }
        }

        worker.fold_into(stats);
        stats.per_worker.clear(); // sequential runs report aggregates only
        topk.into_sorted()
    }

    /// The parallel per-table loop: an atomic cursor over the sorted
    /// candidates, a shared `j_k` floor, and a deterministic merge.
    fn discover_parallel(
        ctx: &SharedCtx<'_>,
        candidates: &[Candidate<'_>],
        k: usize,
        threads: usize,
        stats: &mut DiscoveryStats,
    ) -> Vec<TableResult> {
        // 0 while the shared top-k is not full; `j_k` once it is (admitted
        // scores are ≥ 1, so 0 is a safe sentinel).
        // obs-exempt: pruning-protocol state shared between workers, not a metric.
        let floor = AtomicU64::new(0);
        let cursor = AtomicUsize::new(0);
        let stopped = AtomicBool::new(false);
        let shared_topk = Mutex::new(TopK::new(k));
        // One slot per worker: (candidate position, table, j) + counters.
        type WorkerOut = (Vec<(usize, u32, u64)>, WorkerStats, bool);
        let mut outputs: Vec<Option<WorkerOut>> = Vec::new();
        outputs.resize_with(threads, || None);

        crossbeam::thread::scope(|scope| {
            for slot in outputs.iter_mut() {
                let floor = &floor;
                let cursor = &cursor;
                let stopped = &stopped;
                let shared_topk = &shared_topk;
                scope.spawn(move |_| {
                    let busy_start = ctx.clock.now_nanos();
                    let mut results: Vec<(usize, u32, u64)> = Vec::new();
                    let mut worker = WorkerStats::default();
                    let mut probe = ProbeState::default();
                    let mut hit_rule1 = false;
                    loop {
                        if stopped.load(Ordering::Relaxed) {
                            break;
                        }
                        // Snapshot the floor *before* claiming: every score
                        // in it then comes from candidates claimed earlier,
                        // i.e. positions before ours — a subset of what the
                        // sequential engine knows at this position. That
                        // keeps parallel pruning weaker-or-equal, so the
                        // evaluated set is a superset of the sequential one
                        // (the per-worker stats tests rely on this; reading
                        // the floor after claiming could see scores of
                        // *later* candidates and over-prune).
                        let jk = floor.load(Ordering::Relaxed);
                        let at = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(cand) = candidates.get(at) else {
                            break;
                        };

                        // Rule 1, strict form: the shared floor never exceeds
                        // the final j_k, so `l_t < floor` proves this table —
                        // and every later (smaller) one — is out.
                        if ctx.config.table_filtering && jk > 0 && (cand.l_t as u64) < jk {
                            stopped.store(true, Ordering::Relaxed);
                            hit_rule1 = true;
                            break;
                        }

                        let floor_arg = if ctx.config.table_filtering && jk > 0 {
                            Some(jk)
                        } else {
                            None
                        };
                        let Some(joinability) =
                            evaluate_candidate(ctx, cand, floor_arg, &mut worker, &mut probe)
                        else {
                            continue;
                        };
                        results.push((at, cand.table, joinability));
                        if joinability > 0 {
                            // panic-exempt: poisoning means a sibling
                            // worker panicked, and that panic propagates
                            // at the scope join below anyway — this
                            // thread's result is discarded either way.
                            let mut topk = shared_topk.lock().expect("topk lock");
                            topk.update(TableId(cand.table), joinability);
                            if topk.is_full() {
                                // Floors from different workers only ever
                                // grow; store keeps the freshest k-th best.
                                floor.store(topk.min_joinability(), Ordering::Relaxed);
                            }
                        }
                    }
                    worker.busy =
                        Duration::from_nanos(ctx.clock.now_nanos().saturating_sub(busy_start));
                    *slot = Some((results, worker, hit_rule1));
                });
            }
        })
        // panic-exempt: deliberate propagation — a worker's panic must
        // surface on the calling thread, not produce a partial top-k.
        .expect("discovery worker panicked");

        // Deterministic merge: replay fully-evaluated tables in candidate
        // order into a fresh top-k — identical tie-breaking to sequential.
        let mut merged: Vec<(usize, u32, u64)> = Vec::new();
        for slot in outputs {
            // panic-exempt: every worker fills its slot before its scope
            // ends, and a panicked worker already propagated above.
            let (results, worker, hit_rule1) = slot.expect("worker did not report");
            merged.extend(results);
            stats.stopped_early_rule1 |= hit_rule1;
            worker.fold_into(stats);
            stats.per_worker.push(worker);
        }
        merged.sort_unstable_by_key(|&(at, _, _)| at);
        let mut topk = TopK::new(k);
        for (_, tid_raw, joinability) in merged {
            topk.update(TableId(tid_raw), joinability);
        }
        topk.into_sorted()
    }
}

/// Read-only state shared by every worker of one discovery run.
struct SharedCtx<'a> {
    corpus: &'a Corpus,
    source: &'a dyn PostingSource,
    superkeys: &'a SuperKeyStore,
    config: &'a MateConfig,
    clock: &'a dyn mate_obs::Clock,
    query: &'a Table,
    q_cols: &'a [ColId],
    /// Query rows per value id.
    value_rows: &'a [&'a [QueryRowKey]],
}

/// Rows below this index keep their row-filter stamp in a dense array (at
/// most 64 KiB per worker, grown only as far as the rows touched); rows
/// beyond it — only tables longer than 16 Ki rows have them — keep it in a
/// hash map, so touching a few rows of a very long table does not
/// zero-fill a stamp for every row before them.
const DENSE_STAMP_ROWS: usize = 1 << 14;

/// Per-worker probe state, reused across every candidate a worker
/// evaluates so candidate evaluation allocates nothing in the steady state:
/// the source scratch, the run decode buffer, the filtered pairs, the row
/// stamps of the row filter, and the verification scratch.
#[derive(Default)]
struct ProbeState<'q> {
    scratch: ProbeScratch,
    entries: Vec<PostingEntry>,
    pairs: Vec<RowPair>,
    stamps: RowStamps,
    verify: VerifyScratch<'q>,
}

/// Candidate row → the generation in which the row filter last saw it.
#[derive(Default)]
struct RowStamps {
    /// Rows below [`DENSE_STAMP_ROWS`].
    dense: Vec<u32>,
    /// Rows at or beyond [`DENSE_STAMP_ROWS`].
    far: FxHashMap<u32, u32>,
    /// Bumped per (table, value id); never 0 once evaluation starts.
    generation: u32,
}

impl RowStamps {
    /// Starts a new generation, so every row reads as not seen.
    fn next_generation(&mut self) {
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            self.dense.fill(0);
            self.far.clear();
            self.generation = 1;
        }
    }

    /// Stamps `row` with the current generation; true if it already was.
    fn restamp(&mut self, row: u32) -> bool {
        let stamp = if (row as usize) < DENSE_STAMP_ROWS {
            let row = row as usize;
            if row >= self.dense.len() {
                self.dense.resize(row + 1, 0);
            }
            &mut self.dense[row]
        } else {
            self.far.entry(row).or_insert(0)
        };
        std::mem::replace(stamp, self.generation) == self.generation
    }
}

/// Runs row filtering (lines 13-20) and `calculateJ` (lines 21-22) for one
/// candidate table, decoding each value run on demand through the posting
/// source.
///
/// `floor` is the pruning threshold for table-filtering rule 2 (line 14):
/// the table is abandoned (returning `None`) once even a perfect remainder
/// could not reach `floor`. Sequential callers pass `j_k + 1` (the seed's
/// `≤ j_k` test); parallel callers pass the shared floor itself, whose
/// strict `<` comparison stays lossless while other workers are still
/// raising it.
fn evaluate_candidate<'a>(
    ctx: &SharedCtx<'a>,
    cand: &Candidate<'_>,
    floor: Option<u64>,
    worker: &mut WorkerStats,
    probe: &mut ProbeState<'a>,
) -> Option<u64> {
    worker.tables_evaluated += 1;
    let l_t = cand.l_t;
    let mut r_checked = 0usize;
    let mut r_match = 0usize;
    probe.pairs.clear();
    // A (candidate row, query row) pair is filtered once. A query row has
    // exactly one initial-column value, so its pairs can only recur inside
    // that value's runs — when the value sits in several columns of one
    // candidate row. A row stamp per candidate row, in a generation bumped
    // whenever the value id changes, therefore identifies every repeat; a
    // repeated row recomputes whether it matches without counting a check
    // or pushing a pair again.
    let mut vid = None;

    // ---- Row filtering (lines 13-20) ----------------------------------
    for run in cand.runs {
        debug_assert!(vid <= Some(run.vid), "runs arrive in ascending value id");
        if vid != Some(run.vid) {
            vid = Some(run.vid);
            probe.stamps.next_generation();
        }
        // Decode this value's entries for the candidate (hot: a slice copy;
        // cold: only the blocks the run overlaps — the skip headers bound
        // the decode before any payload is touched).
        let mut counters = mate_index::ProbeCounters::default();
        probe.entries.clear();
        ctx.source.collect_run(
            run.list,
            run.start,
            run.len,
            &mut probe.scratch,
            &mut probe.entries,
            &mut counters,
        );
        worker.blocks_decoded += counters.decoded;
        worker.blocks_skipped += counters.skipped;
        let rows = ctx.value_rows[run.vid as usize];
        let row_filtering = ctx.config.row_filtering;

        for entry in &probe.entries {
            // Table filtering rule 2 (line 14): even if every remaining row
            // matched, the table cannot reach the floor.
            if let Some(floor) = floor {
                if ((l_t - r_checked + r_match) as u64) < floor {
                    // The table stays counted in `tables_evaluated` (its row
                    // scan started) — the seed's accounting.
                    worker.tables_skipped_rule2 += 1;
                    return None;
                }
            }
            r_checked += 1;

            let superkey = ctx.superkeys.key(entry.table, entry.row);
            let passes = |qk: &QueryRowKey| !row_filtering || covers(superkey, qk.superkey.words());
            let entry_matched = if probe.stamps.restamp(entry.row.0) {
                rows.iter().any(passes)
            } else {
                let mut matched = false;
                for qk in rows {
                    if row_filtering {
                        worker.rows_filter_checked += 1;
                    }
                    if passes(qk) {
                        probe.pairs.push(RowPair {
                            candidate_row: entry.row,
                            query_row: qk.row,
                            tuple_id: qk.tuple_id,
                        });
                        matched = true;
                    }
                }
                matched
            };
            if entry_matched {
                r_match += 1;
            }
        }
    }
    worker.rows_passed_filter += probe.pairs.len();

    // ---- calculateJ (lines 21-22) --------------------------------------
    let candidate = ctx.corpus.table(TableId(cand.table));
    let outcome = probe.verify.verify(
        candidate,
        ctx.query,
        ctx.q_cols,
        &probe.pairs,
        ctx.config.max_mappings_per_row,
    );
    worker.rows_verified_joinable += outcome.true_positive_pairs;
    worker.false_positive_rows += outcome.pairs_checked - outcome.true_positive_pairs;
    worker.mappings_capped |= outcome.mappings_capped;
    Some(outcome.joinability)
}

fn validate_key(query: &Table, q_cols: &[ColId]) {
    assert!(
        !q_cols.is_empty(),
        "composite key must have at least one column"
    );
    let mut seen = std::collections::HashSet::new();
    for &c in q_cols {
        assert!(c.index() < query.num_cols(), "key column {c} out of bounds");
        assert!(seen.insert(c), "duplicate key column {c}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_index::IndexBuilder;
    use mate_table::TableBuilder;

    /// Figure 1 of the paper plus distractor tables.
    fn setup() -> (Corpus, InvertedIndex, Xash, Table) {
        let mut corpus = Corpus::new();
        // T0: the joinable table of the running example.
        corpus.add_table(
            TableBuilder::new("T1", ["Vorname", "Nachname", "Land", "Besetzung"])
                .row(["Helmut", "Newton", "Germany", "Photographer"])
                .row(["Muhammad", "Lee", "US", "Dancer"])
                .row(["Ansel", "Adams", "UK", "Dancer"])
                .row(["Ansel", "Adams", "US", "Photographer"])
                .row(["Muhammad", "Ali", "US", "Boxer"])
                .row(["Muhammad", "Lee", "Germany", "Birder"])
                .row(["Gretchen", "Lee", "Germany", "Artist"])
                .row(["Adam", "Sandler", "US", "Actor"])
                .build(),
        );
        // T1: shares individual values but only 2 full key combos.
        corpus.add_table(
            TableBuilder::new("T2", ["first", "last", "country"])
                .row(["Muhammad", "Lee", "US"])
                .row(["Helmut", "Newton", "Germany"])
                .row(["Muhammad", "Smith", "US"])
                .build(),
        );
        // T2: unary hits only (classic FP table for single-column systems).
        corpus.add_table(
            TableBuilder::new("T3", ["name", "city"])
                .row(["Muhammad", "Cairo"])
                .row(["Ansel", "SF"])
                .row(["Helmut", "Berlin"])
                .build(),
        );
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let query = TableBuilder::new("d", ["F. Name", "L. Name", "Country", "Salary"])
            .row(["Muhammad", "Lee", "US", "60k"])
            .row(["Ansel", "Adams", "UK", "50k"])
            .row(["Ansel", "Adams", "US", "400k"])
            .row(["Muhammad", "Lee", "Germany", "90k"])
            .row(["Helmut", "Newton", "Germany", "300k"])
            .build();
        (corpus, index, hasher, query)
    }

    #[test]
    fn running_example_top1() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 1);
        assert_eq!(r.top_k.len(), 1);
        assert_eq!(r.top_k[0].table, TableId(0));
        assert_eq!(r.top_k[0].joinability, 5);
    }

    #[test]
    fn top2_includes_partial_table() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 2);
        assert_eq!(r.top_k.len(), 2);
        assert_eq!(r.top_k[0].table, TableId(0));
        assert_eq!(r.top_k[0].joinability, 5);
        assert_eq!(r.top_k[1].table, TableId(1));
        // T2 contains (Muhammad,Lee,US) and (Helmut,Newton,Germany).
        assert_eq!(r.top_k[1].joinability, 2);
    }

    #[test]
    fn unary_only_table_not_joinable() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 3);
        // T3 never contains a full key combo → j = 0 → excluded entirely.
        assert_eq!(r.top_k.len(), 2);
        assert!(r.top_k.iter().all(|t| t.table != TableId(2)));
    }

    #[test]
    fn no_false_negatives_vs_unfiltered() {
        // With row filtering on and off the reported top-k must be identical
        // (the super key never drops a joinable row).
        let (corpus, index, hasher, query) = setup();
        let on = MateDiscovery::new(&corpus, &index, &hasher).discover(
            &query,
            &[ColId(0), ColId(1), ColId(2)],
            3,
        );
        let off_cfg = MateConfig {
            row_filtering: false,
            ..Default::default()
        };
        let off = MateDiscovery::with_config(&corpus, &index, &hasher, off_cfg).discover(
            &query,
            &[ColId(0), ColId(1), ColId(2)],
            3,
        );
        assert_eq!(on.top_k, off.top_k);
        // And the filter never passes more rows than the unfiltered run.
        assert!(on.stats.rows_passed_filter <= off.stats.rows_passed_filter);
    }

    #[test]
    fn stats_are_populated() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 1);
        let s = &r.stats;
        assert!(s.initial_column.is_some());
        assert!(s.pl_items_fetched > 0);
        assert!(s.candidate_tables >= 2);
        assert!(s.tables_evaluated >= 1);
        assert!(s.rows_filter_checked > 0);
        assert!(s.rows_verified_joinable >= 5);
        assert!(s.precision() > 0.0);
        assert_eq!(s.query_threads, 1);
        assert!(s.per_worker.is_empty());
    }

    #[test]
    fn single_column_key_works() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(2)], 1);
        // Countries: us, uk, germany — T1 contains all three → j = 3.
        assert_eq!(r.top_k[0].joinability, 3);
    }

    #[test]
    fn k_larger_than_matches() {
        let (corpus, index, hasher, query) = setup();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 50);
        assert_eq!(r.top_k.len(), 2);
    }

    #[test]
    fn query_with_no_hits() {
        let (corpus, index, hasher, _) = setup();
        let query = TableBuilder::new("d", ["a", "b"])
            .row(["zzzznope", "yyyynope"])
            .build();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1)], 5);
        assert!(r.top_k.is_empty());
        assert_eq!(r.stats.candidate_tables, 0);
    }

    #[test]
    fn table_filter_rule1_fires() {
        // Corpus with one strong table and many single-hit tables; k=1.
        let mut corpus = Corpus::new();
        let mut strong = TableBuilder::new("strong", ["a", "b"]);
        for i in 0..10 {
            strong = strong.row([format!("k{i}"), format!("v{i}")]);
        }
        corpus.add_table(strong.build());
        for t in 0..20 {
            corpus.add_table(
                TableBuilder::new(format!("weak{t}"), ["x", "y"])
                    .row(["k0", "v0"])
                    .build(),
            );
        }
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let mut query = TableBuilder::new("q", ["p", "q"]);
        for i in 0..10 {
            query = query.row([format!("k{i}"), format!("v{i}")]);
        }
        let query = query.build();
        let mate = MateDiscovery::new(&corpus, &index, &hasher);
        let r = mate.discover(&query, &[ColId(0), ColId(1)], 1);
        assert_eq!(r.top_k[0].joinability, 10);
        // The strong table (10 PL items) sorts first and sets j_k = 10; every
        // weak table has 1 PL item ≤ 10 → rule 1 stops the scan immediately.
        assert!(r.stats.stopped_early_rule1);
        assert_eq!(r.stats.tables_evaluated, 1);
    }

    #[test]
    fn disabling_table_filter_scans_everything() {
        let (corpus, index, hasher, query) = setup();
        let cfg = MateConfig {
            table_filtering: false,
            ..Default::default()
        };
        let r = MateDiscovery::with_config(&corpus, &index, &hasher, cfg).discover(
            &query,
            &[ColId(0), ColId(1), ColId(2)],
            1,
        );
        assert!(!r.stats.stopped_early_rule1);
        assert_eq!(r.stats.tables_skipped_rule2, 0);
        assert_eq!(r.stats.tables_evaluated, r.stats.candidate_tables);
        assert_eq!(r.top_k[0].joinability, 5);
    }

    #[test]
    #[should_panic(expected = "duplicate key column")]
    fn duplicate_key_rejected() {
        let (corpus, index, hasher, query) = setup();
        MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &[ColId(0), ColId(0)], 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_key_rejected() {
        let (corpus, index, hasher, query) = setup();
        MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &[ColId(99)], 1);
    }

    #[test]
    #[should_panic(expected = "kind does not match")]
    fn mismatched_hasher_rejected() {
        let (corpus, index, _, _) = setup();
        let wrong = mate_hash::BloomFilterHasher::new(HashSize::B128, 3);
        MateDiscovery::new(&corpus, &index, &wrong);
    }

    #[test]
    fn repeated_initial_value_in_one_row_is_filtered_once() {
        // T0 row 0 holds the initial value "x" in two columns, so its pairs
        // with query rows 0 and 1 resurface on the second occurrence; row 2
        // holds "z" twice. Row 3 holds both "x" and "z": it is a first visit
        // in each value's run. T0 rows 1 and 3 and every row of T1 fail the
        // super-key filter.
        let mut corpus = Corpus::new();
        corpus.add_table(
            TableBuilder::new("T0", ["a", "b", "c"])
                .row(["x", "x", "y1"])
                .row(["x", "q", "w"])
                .row(["z", "z", "y3"])
                .row(["x", "z", "y9"])
                .build(),
        );
        corpus.add_table(
            TableBuilder::new("T1", ["a", "b"])
                .row(["x", "n1"])
                .row(["x", "n2"])
                .row(["z", "n3"])
                .build(),
        );
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let query = TableBuilder::new("d", ["p", "q"])
            .row(["x", "y1"])
            .row(["x", "y2"])
            .row(["z", "y3"])
            .build();
        let run = |row_filtering: bool| {
            let cfg = MateConfig {
                heuristic: crate::InitColumnHeuristic::ColumnOrder,
                row_filtering,
                ..Default::default()
            };
            MateDiscovery::with_config(&corpus, &index, &hasher, cfg).discover(
                &query,
                &[ColId(0), ColId(1)],
                1,
            )
        };
        let expect_top = vec![TableResult {
            table: TableId(0),
            joinability: 2,
        }];

        // Filter on. T0 (l_t = 7) is evaluated first. "x" run: row 0 checks
        // query rows 0 and 1 (row 0 passes), its repeat checks nothing; rows
        // 1 and 3 check 2 each and fail. "z" run: row 2 checks 1 and passes,
        // its repeat checks nothing; row 3 checks 1 and fails. That is 8
        // checks and 2 pairs, j = 2 (both under p→a, q→c). T1 (l_t = 3) runs
        // against floor j_k + 1 = 3: its first entry checks 2 and fails,
        // leaving a bound of 2, so rule 2 abandons it.
        let on = run(true);
        assert_eq!(on.top_k, expect_top);
        assert_eq!(on.stats.tables_evaluated, 2);
        assert_eq!(on.stats.rows_filter_checked, 8 + 2);
        assert_eq!(on.stats.rows_passed_filter, 2);
        assert_eq!(on.stats.tables_skipped_rule2, 1);
        assert_eq!(on.stats.rows_verified_joinable, 2);
        assert_eq!(on.stats.false_positive_rows, 0);

        // Filter off. Every first visit pairs with every query row of its
        // value (T0: 2 + 2 + 2 + 1 + 1, T1: 2 + 2 + 1) and every entry
        // matches, so rule 2 never fires.
        let off = run(false);
        assert_eq!(off.top_k, expect_top);
        assert_eq!(off.stats.tables_evaluated, 2);
        assert_eq!(off.stats.rows_filter_checked, 0);
        assert_eq!(off.stats.rows_passed_filter, 8 + 5);
        assert_eq!(off.stats.tables_skipped_rule2, 0);
        assert_eq!(off.stats.rows_verified_joinable, 2);
        assert_eq!(off.stats.false_positive_rows, 11);
    }

    #[test]
    fn repeated_row_beyond_dense_stamps_is_filtered_once() {
        // The repeat sits in a row past DENSE_STAMP_ROWS, so its stamp lives
        // in the hash map: "x" in two columns of the last row, and once in
        // row 0, which fails the filter. Every other cell is empty.
        let last = DENSE_STAMP_ROWS + 16;
        let mut tb = TableBuilder::new("long", ["a", "b", "c"]).row(["x", "q", "w"]);
        for _ in 1..last {
            tb = tb.row(["", "", ""]);
        }
        let mut corpus = Corpus::new();
        corpus.add_table(tb.row(["x", "x", "y1"]).build());
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let query = TableBuilder::new("d", ["p", "q"])
            .row(["x", "y1"])
            .row(["x", "y2"])
            .build();
        let run = |row_filtering: bool| {
            let cfg = MateConfig {
                heuristic: crate::InitColumnHeuristic::ColumnOrder,
                row_filtering,
                ..Default::default()
            };
            MateDiscovery::with_config(&corpus, &index, &hasher, cfg).discover(
                &query,
                &[ColId(0), ColId(1)],
                1,
            )
        };
        let expect_top = vec![TableResult {
            table: TableId(0),
            joinability: 1,
        }];

        // Row 0 checks 2 and fails; the last row checks 2 and passes with
        // query row 0; its repeat checks nothing.
        let on = run(true);
        assert_eq!(on.top_k, expect_top);
        assert_eq!(on.stats.rows_filter_checked, 4);
        assert_eq!(on.stats.rows_passed_filter, 1);
        assert_eq!(on.stats.false_positive_rows, 0);

        // Unfiltered, each first visit pairs with both query rows.
        let off = run(false);
        assert_eq!(off.top_k, expect_top);
        assert_eq!(off.stats.rows_passed_filter, 4);
        assert_eq!(off.stats.false_positive_rows, 3);
    }

    // ------------------------------------------------------- parallelism --

    /// A corpus large enough that several workers stay busy, with planted
    /// joins of different strengths so the top-k ordering is non-trivial.
    fn wide_setup() -> (Corpus, Table) {
        let mut corpus = Corpus::new();
        for t in 0..60u32 {
            let mut tb = TableBuilder::new(format!("t{t}"), ["a", "b", "c"]);
            // Table t contains the first (t % 13) query key combos, plus
            // noise rows sharing individual values in wrong combinations.
            for i in 0..(t % 13) {
                tb = tb.row([format!("k{i}"), format!("v{i}"), format!("w{i}")]);
            }
            for i in 0..8u32 {
                tb = tb.row([
                    format!("k{}", (i + t) % 12),
                    format!("v{}", (i + t + 1) % 12),
                    format!("noise{t}-{i}"),
                ]);
            }
            corpus.add_table(tb.build());
        }
        let mut query = TableBuilder::new("q", ["x", "y", "z"]);
        for i in 0..12 {
            query = query.row([format!("k{i}"), format!("v{i}"), format!("w{i}")]);
        }
        (corpus, query.build())
    }

    #[test]
    fn parallel_discover_matches_sequential_exactly() {
        let (corpus, query) = wide_setup();
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let key = [ColId(0), ColId(1), ColId(2)];
        for k in [1, 3, 7, 100] {
            let seq = MateDiscovery::new(&corpus, &index, &hasher).discover(&query, &key, k);
            for threads in [2, 4, 8] {
                let cfg = MateConfig {
                    query_threads: threads,
                    ..Default::default()
                };
                let par = MateDiscovery::with_config(&corpus, &index, &hasher, cfg)
                    .discover(&query, &key, k);
                assert_eq!(seq.top_k, par.top_k, "k={k} threads={threads}");
                assert_eq!(par.stats.query_threads, threads);
                assert_eq!(par.stats.per_worker.len(), threads);
                // Worker counters sum to the aggregates.
                let evaluated: usize = par
                    .stats
                    .per_worker
                    .iter()
                    .map(|w| w.tables_evaluated)
                    .sum();
                assert_eq!(evaluated, par.stats.tables_evaluated);
                // Nothing is double-counted or lost entirely.
                assert!(par.stats.tables_evaluated <= par.stats.candidate_tables);
                assert!(par.stats.rows_verified_joinable >= seq.stats.rows_verified_joinable);
            }
        }
    }

    #[test]
    fn parallel_respects_filter_toggles() {
        let (corpus, query) = wide_setup();
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let key = [ColId(0), ColId(1), ColId(2)];
        for (table_filtering, row_filtering) in [(false, true), (true, false), (false, false)] {
            let seq_cfg = MateConfig {
                table_filtering,
                row_filtering,
                ..Default::default()
            };
            let par_cfg = MateConfig {
                query_threads: 4,
                ..seq_cfg.clone()
            };
            let seq = MateDiscovery::with_config(&corpus, &index, &hasher, seq_cfg)
                .discover(&query, &key, 5);
            let par = MateDiscovery::with_config(&corpus, &index, &hasher, par_cfg)
                .discover(&query, &key, 5);
            assert_eq!(seq.top_k, par.top_k);
            if !table_filtering {
                // With pruning off every candidate is fully evaluated, so
                // even the aggregate counters agree exactly.
                assert_eq!(par.stats.tables_evaluated, par.stats.candidate_tables);
                assert_eq!(seq.stats.rows_passed_filter, par.stats.rows_passed_filter);
            }
        }
    }

    #[test]
    fn parallel_handles_edge_shapes() {
        let (corpus, index, hasher, query) = setup();
        let cfg = MateConfig {
            query_threads: 8, // more workers than candidates
            ..Default::default()
        };
        let r = MateDiscovery::with_config(&corpus, &index, &hasher, cfg).discover(
            &query,
            &[ColId(0), ColId(1), ColId(2)],
            1,
        );
        assert_eq!(r.top_k[0].joinability, 5);

        // No hits at all.
        let nohit = TableBuilder::new("d", ["a", "b"])
            .row(["zzzznope", "yyyynope"])
            .build();
        let cfg = MateConfig {
            query_threads: 4,
            ..Default::default()
        };
        let r = MateDiscovery::with_config(&corpus, &index, &hasher, cfg).discover(
            &nohit,
            &[ColId(0), ColId(1)],
            5,
        );
        assert!(r.top_k.is_empty());
    }
}
