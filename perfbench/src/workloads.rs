//! The three workloads (see README.md for why each exists and what each
//! per-layer metric should move).
//!
//! All run with one client thread and `MateConfig::query_threads = 1`.
//! Query phases are closed loops over whole rounds of the query list, so
//! every count-derived metric is a function of the seed alone; times are
//! sums or quantiles over every query of the phase.

use crate::gen::{self, Lake, Query};
use crate::measure::{dir_bytes, host_ref_us, median, peak_rss_mb, quantile, ratio};
use crate::trace::{TracedHasher, TracedSource};
use crate::vfs::{CountingVfs, FileKind, IoCounters, IoSnapshot};
use mate_core::{discover_lake, DiscoveryResult, MateConfig, MateDiscovery, TableResult};
use mate_hash::{HashSize, RowHasher, Xash};
use mate_index::engine::{EngineConfig, EngineLake};
use mate_index::{persist, IndexBuilder, InvertedIndex, PostingSource, WalRecord};
use mate_lake::GeneratedQuery;
use mate_obs::ObsSnapshot;
use mate_table::Corpus;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Top-k of every query.
const K: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Reopen cycles after the last set-up (`hot_opendata`,
/// `lake_opendata_paged`) or after each pass (`ingest_webtables`);
/// `reopen_ms` is the median over all reopens of the run.
const REOPENS: usize = 3;

/// Flush policy of `lake_opendata_paged`: tables per `apply_many` call.
pub const PAGED_GROUP: usize = 32;
/// Flush policy of `lake_opendata_paged`: memtable budget in bytes.
pub const PAGED_MEMTABLE_BYTES: usize = 8 << 20;
/// Flush policy of `lake_opendata_paged`: size-tiered compaction fanout.
pub const PAGED_TIER_FANOUT: usize = 4;
/// Flush policy of `lake_opendata_paged`: cold segments before compaction.
pub const PAGED_MAX_SEGMENTS: usize = 4;
/// Page-cache budget of the reopened paged lake, as a divisor of the cold
/// stack's bytes. The queries touch a few MB of a ~23 MB stack: at a
/// quarter that sometimes fits and paging all but stops (a handful of
/// misses per query), at an eighth every seed pages on every query.
pub const PAGED_CACHE_DIVISOR: usize = 8;

/// Flush policy of `ingest_webtables`: tables per `apply_many` call (one
/// query follows each call).
pub const INGEST_GROUP: usize = 16;
/// Flush policy of `ingest_webtables`: memtable budget in bytes.
pub const INGEST_MEMTABLE_BYTES: usize = 1 << 20;
/// Flush policy of `ingest_webtables`: size-tiered compaction fanout.
pub const INGEST_TIER_FANOUT: usize = 2;
/// Flush policy of `ingest_webtables`: cold segments before compaction.
pub const INGEST_MAX_SEGMENTS: usize = 4;

/// Command-line settings of one run.
pub struct Settings {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for index files and lakes; removed at the end.
    pub work: PathBuf,
}

/// What a run prints: every metric of its mode, plus operation counts.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Set when the traced and untraced paths disagreed on an answer.
    pub mismatch: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// Counts one operation; a storage error counts as failed and yields
    /// `None`.
    fn op<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("[perfbench] {what} failed: {e}");
                None
            }
        }
    }

    /// Counts one checked query answer.
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn xash() -> Xash {
    Xash::new(HashSize::B128)
}

fn mate_config() -> MateConfig {
    MateConfig {
        query_threads: 1,
        ..MateConfig::default()
    }
}

fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Top-1 reaches the planted lower bound, and (when given) the whole top-k
/// equals the single-shot reference answer.
fn answer_ok(r: &DiscoveryResult, q: &GeneratedQuery, reference: Option<&[TableResult]>) -> bool {
    let top1 = r.top_k.first().map_or(0, |t| t.joinability);
    top1 >= q.planted_best && reference.is_none_or(|want| r.top_k == want)
}

/// Traced and untraced answers agree bit for bit: top-k and every counter
/// Algorithm 1 itself sets.
fn same_answer(a: &DiscoveryResult, b: &DiscoveryResult) -> bool {
    let (s, t) = (&a.stats, &b.stats);
    a.top_k == b.top_k
        && s.initial_column == t.initial_column
        && s.pl_lists_fetched == t.pl_lists_fetched
        && s.pl_items_fetched == t.pl_items_fetched
        && s.candidate_tables == t.candidate_tables
        && s.tables_evaluated == t.tables_evaluated
        && s.tables_skipped_rule2 == t.tables_skipped_rule2
        && s.stopped_early_rule1 == t.stopped_early_rule1
        && s.rows_filter_checked == t.rows_filter_checked
        && s.rows_passed_filter == t.rows_passed_filter
        && s.rows_verified_joinable == t.rows_verified_joinable
        && s.false_positive_rows == t.false_positive_rows
        && s.mappings_capped == t.mappings_capped
        && s.blocks_decoded == t.blocks_decoded
        && s.blocks_skipped == t.blocks_skipped
}

fn reference_answers(
    corpus: &Corpus,
    index: &InvertedIndex,
    queries: &[Query],
) -> Vec<Vec<TableResult>> {
    let hasher = xash();
    let engine = MateDiscovery::with_config(corpus, index, &hasher, mate_config());
    queries
        .iter()
        .map(|q| engine.discover(&q.q.table, &q.q.key, K).top_k)
        .collect()
}

// ------------------------------------------------------------ logs ----

/// End-to-end query figures of the timed phase.
#[derive(Default)]
struct QueryLog {
    lat_us: Vec<f64>,
    busy_s: f64,
    verified: u64,
    passed: u64,
}

impl QueryLog {
    fn record(&mut self, wall: Duration, r: &DiscoveryResult) {
        self.lat_us.push(wall.as_secs_f64() * 1e6);
        self.busy_s += wall.as_secs_f64();
        self.verified += r.stats.rows_verified_joinable as u64;
        self.passed += r.stats.rows_passed_filter as u64;
    }

    fn put(&self, rep: &mut Report) {
        rep.put(
            "queries_per_s",
            ratio(self.lat_us.len() as f64, self.busy_s),
            "1/s",
        );
        rep.put("query_p50_us", quantile(&self.lat_us, 0.50), "us");
        rep.put("query_p95_us", quantile(&self.lat_us, 0.95), "us");
    }
}

/// Per-layer sums over the traced queries.
#[derive(Default)]
struct LayerLog {
    queries: u64,
    traced_s: f64,
    untraced_s: f64,
    self_ns: f64,
    init_ns: f64,
    pl_items: u64,
    tables_evaluated: u64,
    skipped_rule2: u64,
    filter_checked: u64,
    fp_rows: u64,
    find_calls: u64,
    find_ns: u64,
    runs_ns: u64,
    collect_calls: u64,
    collect_ns: u64,
    blocks_decoded: u64,
    blocks_skipped: u64,
    layers: u64,
    hash_calls: u64,
    hash_ns: u64,
    cache_hits: u64,
    cache_misses: u64,
    pager_hits: u64,
    pager_misses: u64,
    pager_evictions: u64,
    resident_peak: u64,
    fill_count: u64,
    fill_us: u64,
    io: IoSnapshot,
    host_us: Vec<f64>,
}

impl LayerLog {
    fn add(
        &mut self,
        src: &TracedSource,
        hasher: &TracedHasher<Xash>,
        r: &DiscoveryResult,
        layers: usize,
    ) {
        let s = &r.stats;
        let (find_calls, find_ns) = src.find_list.get();
        let (collect_calls, collect_ns) = src.collect_run.get();
        let (hash_calls, hash_ns) = hasher.value.get();
        self.queries += 1;
        self.self_ns += (s.elapsed.as_nanos() as f64 - src.ns() as f64 - hash_ns as f64).max(0.0);
        self.init_ns += s.init_elapsed.as_nanos() as f64;
        self.pl_items += s.pl_items_fetched as u64;
        self.tables_evaluated += s.tables_evaluated as u64;
        self.skipped_rule2 += s.tables_skipped_rule2 as u64;
        self.filter_checked += s.rows_filter_checked as u64;
        self.fp_rows += s.false_positive_rows as u64;
        self.find_calls += find_calls;
        self.find_ns += find_ns;
        self.runs_ns += src.table_runs.get().1;
        self.collect_calls += collect_calls;
        self.collect_ns += collect_ns;
        self.blocks_decoded += s.blocks_decoded;
        self.blocks_skipped += s.blocks_skipped;
        self.layers += layers as u64;
        self.hash_calls += hash_calls;
        self.hash_ns += hash_ns;
    }

    /// Folds in the lake-side deltas measured around the traced queries.
    fn add_lake(&mut self, before: &LakeProbe, after: &LakeProbe) {
        self.cache_hits += after.cache_hits - before.cache_hits;
        self.cache_misses += after.cache_misses - before.cache_misses;
        self.pager_hits += after.pager.hits - before.pager.hits;
        self.pager_misses += after.pager.misses - before.pager.misses;
        self.pager_evictions += after.pager.evictions - before.pager.evictions;
        self.resident_peak = self.resident_peak.max(after.pager.resident_bytes);
        self.io.add(&after.io.since(&before.io));
    }

    fn put(&self, rep: &mut Report) {
        let n = self.queries.max(1) as f64;
        let per = |v: u64| v as f64 / n;
        let us = |ns: u64| ns as f64 / 1e3 / n;
        rep.put("core.self_us", self.self_ns / 1e3 / n, "us");
        rep.put("core.init_us", self.init_ns / 1e3 / n, "us");
        rep.put("core.pl_items", per(self.pl_items), "count");
        rep.put("core.tables_evaluated", per(self.tables_evaluated), "count");
        rep.put(
            "core.tables_skipped_rule2",
            per(self.skipped_rule2),
            "count",
        );
        rep.put(
            "core.rows_filter_checked",
            per(self.filter_checked),
            "count",
        );
        rep.put("core.fp_rows", per(self.fp_rows), "count");
        rep.put("index.find_list_us", us(self.find_ns), "us");
        rep.put("index.find_list_calls", per(self.find_calls), "count");
        rep.put("index.table_runs_us", us(self.runs_ns), "us");
        rep.put("index.collect_run_us", us(self.collect_ns), "us");
        rep.put("index.collect_run_calls", per(self.collect_calls), "count");
        rep.put("index.blocks_decoded", per(self.blocks_decoded), "count");
        rep.put("index.blocks_skipped", per(self.blocks_skipped), "count");
        rep.put("index.source_layers", per(self.layers), "count");
        rep.put(
            "index.source_cache_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
            "ratio",
        );
        rep.put(
            "pager.hit_ratio",
            ratio(
                self.pager_hits as f64,
                (self.pager_hits + self.pager_misses) as f64,
            ),
            "ratio",
        );
        rep.put("pager.misses", per(self.pager_misses), "count");
        rep.put("pager.evictions", per(self.pager_evictions), "count");
        rep.put(
            "pager.fill_us",
            ratio(self.fill_us as f64, self.fill_count as f64),
            "us",
        );
        rep.put(
            "pager.resident_bytes_peak",
            self.resident_peak as f64,
            "bytes",
        );
        rep.put("vfs.pread_calls", per(self.io.preads), "count");
        rep.put("vfs.pread_bytes", per(self.io.pread_bytes), "bytes");
        rep.put("vfs.pread_us", us(self.io.pread_ns), "us");
        rep.put("hash.value_calls", per(self.hash_calls), "count");
        rep.put("hash.us", us(self.hash_ns), "us");
        rep.put("host.ref_us", median(&self.host_us), "us");
        rep.put(
            "trace.overhead",
            ratio(self.untraced_s, self.traced_s),
            "ratio",
        );
    }
}

/// Lake-global counters read around a traced query.
struct LakeProbe {
    cache_hits: u64,
    cache_misses: u64,
    pager: mate_storage::PagerStats,
    io: IoSnapshot,
}

impl LakeProbe {
    fn read(lake: &EngineLake, io: &IoCounters) -> Self {
        LakeProbe {
            cache_hits: lake.source_cache().hits(),
            cache_misses: lake.source_cache().misses(),
            pager: lake.pager_stats(),
            io: io.snapshot(),
        }
    }
}

/// `(count, sum)` of a histogram in an obs snapshot.
fn hist(obs: &ObsSnapshot, name: &str) -> (u64, u64) {
    obs.histograms
        .iter()
        .find(|(n, _)| n == name)
        .map_or((0, 0), |(_, h)| (h.count(), h.sum()))
}

/// Engine-side per-layer sums over ingest cycles.
#[derive(Default)]
struct EngineLog {
    cycles: u64,
    rows: u64,
    apply_s: f64,
    flushes: u64,
    compactions: u64,
    flush: (u64, u64),
    compact: (u64, u64),
    commit_sync: (u64, u64),
    recovery: (u64, u64),
    replayed: u64,
    cold_segments: u64,
    io: IoSnapshot,
}

fn add2(a: &mut (u64, u64), b: (u64, u64)) {
    a.0 += b.0;
    a.1 += b.1;
}

impl EngineLog {
    /// Records one create → ingest → close → reopen cycle.
    fn add_cycle(
        &mut self,
        ingest: &ObsSnapshot,
        stats: &mate_index::EngineStats,
        reopened: &EngineLake,
        io: IoSnapshot,
    ) {
        self.cycles += 1;
        self.flushes += stats.flushes;
        self.compactions += stats.compactions;
        add2(&mut self.flush, hist(ingest, "span_us.flush"));
        add2(&mut self.compact, hist(ingest, "span_us.compact"));
        add2(
            &mut self.commit_sync,
            hist(ingest, "span_us.group_commit_sync"),
        );
        add2(
            &mut self.recovery,
            hist(&reopened.obs(), "span_us.recovery"),
        );
        let after = reopened.stats();
        self.replayed += after.replayed_records;
        self.cold_segments += after.cold_segments as u64;
        self.io.add(&io);
    }

    fn put(&self, rep: &mut Report) {
        let n = self.cycles.max(1) as f64;
        let per = |v: u64| v as f64 / n;
        let mean = |(c, s): (u64, u64)| ratio(s as f64, c as f64);
        for (name, k) in [
            ("vfs.write_bytes.wal", FileKind::Wal),
            ("vfs.write_bytes.segment", FileKind::Segment),
            ("vfs.write_bytes.checkpoint", FileKind::Checkpoint),
            ("vfs.write_bytes.other", FileKind::Other),
        ] {
            rep.put(name, per(self.io.written(k)), "bytes");
        }
        rep.put("vfs.write_calls", per(self.io.write_calls), "count");
        rep.put("vfs.fsyncs", per(self.io.syncs), "count");
        rep.put("vfs.fsync_us", self.io.sync_ns as f64 / 1e3 / n, "us");
        rep.put("vfs.read_calls", per(self.io.reads), "count");
        rep.put("vfs.read_bytes", per(self.io.read_bytes), "bytes");
        rep.put("vfs.meta_ops", per(self.io.meta_ops), "count");
        rep.put(
            "engine.apply_us_per_row",
            ratio(self.apply_s * 1e6, self.rows as f64),
            "us",
        );
        rep.put("engine.flushes", per(self.flushes), "count");
        rep.put("engine.flush_us", mean(self.flush), "us");
        rep.put("engine.compact_us", mean(self.compact), "us");
        rep.put("engine.commit_sync_us", mean(self.commit_sync), "us");
        rep.put("engine.recovery_us", mean(self.recovery), "us");
        rep.put("engine.compactions", per(self.compactions), "count");
        rep.put("engine.replayed_records", per(self.replayed), "count");
        rep.put("engine.cold_segments", per(self.cold_segments), "count");
    }
}

/// Build/persist figures of the single-shot index.
#[derive(Default)]
struct BuildLog {
    build_s: Vec<f64>,
    save_ms: Vec<f64>,
    load_ms: Vec<f64>,
}

impl BuildLog {
    fn put(&self, rep: &mut Report) {
        rep.put("index.build_s", median(&self.build_s), "s");
        rep.put("index.save_ms", median(&self.save_ms), "ms");
        rep.put("index.load_ms", median(&self.load_ms), "ms");
    }
}

/// `RowHasher::superkey` over every row of the corpus, in ns per row.
fn hash_ns_per_row(corpus: &Corpus) -> f64 {
    let hasher = xash();
    let mut rows = 0u64;
    let t = Instant::now();
    for (_, table) in corpus.iter() {
        for r in 0..table.num_rows() {
            std::hint::black_box(hasher.superkey(table.row_iter(r.into())));
            rows += 1;
        }
    }
    ratio(t.elapsed().as_nanos() as f64, rows as f64)
}

/// Everything a per-layer report needs besides the logs.
struct TraceOut<'a> {
    layers: LayerLog,
    engine: EngineLog,
    build: BuildLog,
    corpus: &'a Corpus,
}

fn put_trace(rep: &mut Report, t: TraceOut) {
    t.layers.put(rep);
    t.engine.put(rep);
    t.build.put(rep);
    rep.put("hash.ns_per_row", hash_ns_per_row(t.corpus), "ns");
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json`
/// order.
struct EndToEnd {
    setup_s: Vec<f64>,
    ingest_rows: f64,
    ingest_s: f64,
    reopen_ms: Vec<f64>,
    disk_bytes: f64,
    postings: f64,
    written: f64,
    logical: f64,
}

fn put_end_to_end(rep: &mut Report, e: &EndToEnd, q: &QueryLog) {
    rep.put("setup_s", median(&e.setup_s), "s");
    q.put(rep);
    rep.put(
        "ingest_rows_per_s",
        ratio(e.ingest_rows, e.ingest_s),
        "rows/s",
    );
    rep.put("reopen_ms", median(&e.reopen_ms), "ms");
    rep.put(
        "disk_bytes_per_posting",
        ratio(e.disk_bytes, e.postings),
        "bytes",
    );
    rep.put("write_amp", ratio(e.written, e.logical), "ratio");
    rep.put("peak_rss_mb", peak_rss_mb(), "MiB");
    rep.put(
        "filter_precision",
        ratio(q.verified as f64, q.passed as f64),
        "ratio",
    );
}

/// Fisher–Yates shuffle driven by a xorshift64 state.
fn shuffle(v: &mut [usize], state: &mut u64) {
    for i in (1..v.len()).rev() {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        v.swap(i, (*state % (i as u64 + 1)) as usize);
    }
}

/// Runs closed-loop rounds over `queries` until `seconds` have passed
/// (at least one round). With `trace`, every query also runs through the
/// traced path, alternating which goes first, and the two answers must
/// agree bit for bit.
fn query_rounds(
    rep: &mut Report,
    s: &Settings,
    queries: &[Query],
    reference: &[Vec<TableResult>],
    plain: &dyn Fn(&GeneratedQuery) -> (DiscoveryResult, Duration),
    traced: &mut dyn FnMut(&GeneratedQuery, &mut LayerLog) -> (DiscoveryResult, Duration),
) -> (QueryLog, LayerLog) {
    let trace = s.trace;
    let mut qlog = QueryLog::default();
    let mut layers = LayerLog::default();
    // Each round visits the queries in a fresh seeded order, so no query
    // always follows the same neighbour (whose pages it would find cached
    // or evicted every time).
    let mut order: Vec<usize> = (0..queries.len()).collect();
    let mut rng = (s.seed ^ 0x5851_f42d_4c95_7f2d) | 1;
    let start = Instant::now();
    let mut round = 0usize;
    while round == 0 || start.elapsed().as_secs_f64() < s.seconds {
        layers.host_us.push(host_ref_us());
        shuffle(&mut order, &mut rng);
        for (pos, &i) in order.iter().enumerate() {
            let q = &queries[i];
            let traced_first = trace && (round + pos) % 2 == 1;
            let mut traced_answer = None;
            if traced_first {
                traced_answer = Some(traced(&q.q, &mut layers));
            }
            let (r, wall) = plain(&q.q);
            qlog.record(wall, &r);
            rep.check(answer_ok(&r, &q.q, Some(&reference[i])));
            if trace && !traced_first {
                traced_answer = Some(traced(&q.q, &mut layers));
            }
            if let Some((t, twall)) = traced_answer {
                layers.traced_s += twall.as_secs_f64();
                layers.untraced_s += wall.as_secs_f64();
                if !same_answer(&r, &t) {
                    eprintln!("[perfbench] traced answer differs for a {} query", q.set);
                    rep.mismatch = true;
                }
            }
        }
        round += 1;
    }
    eprintln!(
        "[perfbench] {round} rounds, {} timed queries in {:.1}s, {}",
        qlog.lat_us.len(),
        start.elapsed().as_secs_f64(),
        host_summary(&layers.host_us)
    );
    (qlog, layers)
}

/// The reference kernel's median and range over a run, for the log.
fn host_summary(host_us: &[f64]) -> String {
    let (lo, hi) = host_us
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    format!(
        "host.ref_us median {:.0} (min {lo:.0}, max {hi:.0})",
        median(host_us)
    )
}

/// One query through the traced adapters over a lake snapshot, mirroring
/// `discover_lake`.
fn traced_lake(
    lake: &EngineLake,
    config: &MateConfig,
    io: &IoCounters,
    q: &GeneratedQuery,
    layers: &mut LayerLog,
) -> (DiscoveryResult, Duration) {
    let config = MateConfig {
        obs: Arc::clone(lake.obs_handle()),
        ..config.clone()
    };
    let before = LakeProbe::read(lake, io);
    let t = Instant::now();
    let reader = lake.reader();
    let snapshot = reader.snapshot();
    let source = reader.source();
    let src = TracedSource::new(&source);
    let hasher = TracedHasher::new(snapshot.hasher());
    let r = MateDiscovery::from_parts(
        snapshot.corpus(),
        &src,
        snapshot.superkeys(),
        &hasher,
        config,
    )
    .discover(&q.table, &q.key, K);
    let wall = t.elapsed();
    layers.add(&src, &hasher, &r, snapshot.num_layers());
    drop(reader);
    layers.add_lake(&before, &LakeProbe::read(lake, io));
    (r, wall)
}

fn plain_lake(
    lake: &EngineLake,
    config: &MateConfig,
    q: &GeneratedQuery,
) -> (DiscoveryResult, Duration) {
    let t = Instant::now();
    let r = discover_lake(lake, config.clone(), &q.table, &q.key, K);
    (r, t.elapsed())
}

// ---------------------------------------------------- hot_opendata ----

/// `hot_opendata`: the CLI path — build, save, load — then closed-loop
/// OD queries on the single-shot index.
pub fn hot_opendata(s: &Settings) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut build = BuildLog::default();
    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        ingest_rows: 0.0,
        ingest_s: 0.0,
        reopen_ms: Vec::new(),
        disk_bytes: 0.0,
        postings: 0.0,
        written: 0.0,
        logical: 0.0,
    };
    let idx_path = s.work.join("index.seg");
    let corpus_path = s.work.join("corpus.seg");
    let mut state = None;
    for i in 0..SETUPS {
        fresh_dir(&s.work).map_err(|e| e.to_string())?;
        state = None;
        let t = Instant::now();
        let lake = gen::opendata(s.seed);
        let tb = Instant::now();
        let index = IndexBuilder::new(xash()).build(&lake.corpus);
        build.build_s.push(secs(tb.elapsed()));
        let ts = Instant::now();
        rep.op("save_index", persist::save_index(&index, &idx_path));
        rep.op(
            "save_corpus",
            persist::save_corpus(&lake.corpus, &corpus_path),
        );
        let save = tb.elapsed();
        build.save_ms.push(secs(ts.elapsed()) * 1e3);
        let paused = t.elapsed();

        // Untimed: the reference answers come from the index as built,
        // before it went through the disk.
        let reference =
            (i + 1 == SETUPS).then(|| reference_answers(&lake.corpus, &index, &lake.queries));
        e2e.ingest_rows += lake.rows() as f64;
        e2e.ingest_s += secs(save);
        if i + 1 == SETUPS {
            let on_disk = dir_bytes(&s.work) as f64;
            e2e.disk_bytes = on_disk;
            e2e.written = on_disk;
            e2e.postings = index.num_postings() as f64;
            e2e.logical = persist::corpus_to_bytes(&lake.corpus).len() as f64;
        }
        let Lake { corpus, queries } = lake;
        drop((index, corpus));

        let tr = Instant::now();
        let corpus = rep.op("load_corpus", persist::load_corpus(&corpus_path));
        let tl = Instant::now();
        let index = rep.op("load_index", persist::load_index(&idx_path));
        build.load_ms.push(secs(tl.elapsed()) * 1e3);
        e2e.reopen_ms.push(secs(tr.elapsed()) * 1e3);
        e2e.setup_s.push(secs(paused + tr.elapsed()));
        if let (Some(corpus), Some(index), Some(reference)) = (corpus, index, reference) {
            state = Some((corpus, index, queries, reference));
        }
    }
    let (mut corpus, mut index, queries, reference) = state.ok_or("set-up failed")?;
    // More reopen samples, outside the set-up time.
    for _ in 1..REOPENS {
        drop((corpus, index));
        let tr = Instant::now();
        let c = rep.op("load_corpus", persist::load_corpus(&corpus_path));
        let i = rep.op("load_index", persist::load_index(&idx_path));
        e2e.reopen_ms.push(secs(tr.elapsed()) * 1e3);
        (corpus, index) = c.zip(i).ok_or("reload failed")?;
    }

    let hasher = xash();
    let config = mate_config();
    let engine = MateDiscovery::with_config(&corpus, &index, &hasher, config.clone());
    let plain = |q: &GeneratedQuery| {
        let t = Instant::now();
        let r = engine.discover(&q.table, &q.key, K);
        (r, t.elapsed())
    };
    let mut traced = |q: &GeneratedQuery, layers: &mut LayerLog| {
        let t = Instant::now();
        let src = TracedSource::new(index.store() as &dyn PostingSource);
        let hasher = TracedHasher::new(xash());
        let r =
            MateDiscovery::from_parts(&corpus, &src, index.superkeys(), &hasher, config.clone())
                .discover(&q.table, &q.key, K);
        let wall = t.elapsed();
        layers.add(&src, &hasher, &r, r.stats.source_layers);
        (r, wall)
    };
    let (qlog, layers) = query_rounds(&mut rep, s, &queries, &reference, &plain, &mut traced);

    if s.trace {
        put_trace(
            &mut rep,
            TraceOut {
                layers,
                engine: EngineLog::default(),
                build,
                corpus: &corpus,
            },
        );
    } else {
        put_end_to_end(&mut rep, &e2e, &qlog);
    }
    Ok(rep)
}

// --------------------------------------------- lake_opendata_paged ----

fn engine_config(
    vfs: Arc<dyn mate_storage::Vfs>,
    budget: usize,
    fanout: usize,
    segments: usize,
) -> EngineConfig {
    EngineConfig {
        memtable_budget_bytes: budget,
        tier_fanout: fanout,
        max_cold_segments: segments,
        vfs,
        ..EngineConfig::default()
    }
}

/// Streams `corpus` into a fresh lake in groups of `group` tables; returns
/// the lake and the seconds spent inside `apply_many`. `after_group` runs
/// after each group with the number of tables ingested so far.
fn ingest(
    rep: &mut Report,
    dir: &Path,
    config: EngineConfig,
    corpus: &Corpus,
    group: usize,
    after_group: &mut dyn FnMut(&mut Report, &EngineLake, usize),
) -> Result<(EngineLake, f64), String> {
    fresh_dir(dir).map_err(|e| e.to_string())?;
    let lake = rep
        .op("create", EngineLake::create(dir, config))
        .ok_or("cannot create the lake")?;
    let tables: Vec<_> = corpus.iter().map(|(_, t)| t).collect();
    let mut apply_s = 0.0;
    let mut done = 0;
    for chunk in tables.chunks(group) {
        let records: Vec<WalRecord> = chunk
            .iter()
            .map(|t| WalRecord::InsertTable {
                table: (*t).clone(),
            })
            .collect();
        let t = Instant::now();
        let r = lake.apply_many(records);
        apply_s += secs(t.elapsed());
        rep.op("apply_many", r);
        done += chunk.len();
        after_group(rep, &lake, done);
    }
    Ok((lake, apply_s))
}

/// `lake_opendata_paged`: the OD corpus ingested into an `EngineLake`,
/// reopened with a page cache a quarter of the cold stack, then the OD
/// queries through `discover_lake`.
pub fn lake_opendata_paged(s: &Settings) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut build = BuildLog::default();
    let mut engine_log = EngineLog::default();
    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        ingest_rows: 0.0,
        ingest_s: 0.0,
        reopen_ms: Vec::new(),
        disk_bytes: 0.0,
        postings: 0.0,
        written: 0.0,
        logical: 0.0,
    };
    let io = Arc::new(IoCounters::new(s.trace));
    let vfs: Arc<dyn mate_storage::Vfs> = Arc::new(CountingVfs::new(Arc::clone(&io)));
    let dir = s.work.join("lake");
    let config = || {
        engine_config(
            Arc::clone(&vfs),
            PAGED_MEMTABLE_BYTES,
            PAGED_TIER_FANOUT,
            PAGED_MAX_SEGMENTS,
        )
    };
    let mut state = None;
    for _ in 0..SETUPS {
        state = None;
        let io0 = io.snapshot();
        let t = Instant::now();
        let lake = gen::opendata(s.seed);
        let (elake, apply_s) = ingest(
            &mut rep,
            &dir,
            config(),
            &lake.corpus,
            PAGED_GROUP,
            &mut |_, _, _| {},
        )?;
        // Flushing before close leaves no WAL tail, whose replay cost would
        // otherwise jump with where the last budget flush fell.
        rep.op("flush", elake.flush());
        let stats = elake.stats();
        let ingest_obs = elake.obs();
        drop(elake);
        let disk = dir_bytes(&dir);
        let reopen_config = EngineConfig {
            cold_cache_budget_bytes: (stats.cold_bytes / PAGED_CACHE_DIVISOR).max(1),
            ..config()
        };
        let tr = Instant::now();
        let reopened = rep.op("open", EngineLake::open(&dir, reopen_config.clone()));
        e2e.reopen_ms.push(secs(tr.elapsed()) * 1e3);
        e2e.setup_s.push(secs(t.elapsed()));
        e2e.ingest_rows += lake.rows() as f64;
        e2e.ingest_s += apply_s;
        let cycle_io = io.snapshot().since(&io0);
        e2e.disk_bytes = disk as f64;
        e2e.postings = stats.live_postings as f64;
        e2e.written = cycle_io.written_total() as f64;
        e2e.logical = persist::corpus_to_bytes(&lake.corpus).len() as f64;
        engine_log.rows += lake.rows() as u64;
        engine_log.apply_s += apply_s;
        let Some(reopened) = reopened else { continue };
        engine_log.add_cycle(&ingest_obs, &stats, &reopened, cycle_io);
        eprintln!(
            "[perfbench] lake: {} tables, {} rows, {} flushes, {} compactions, {} segments, cold {} B, cache {} B",
            lake.corpus.len(),
            lake.rows(),
            stats.flushes,
            stats.compactions,
            stats.cold_segments,
            stats.cold_bytes,
            stats.cold_bytes / PAGED_CACHE_DIVISOR
        );
        state = Some((lake, reopened, reopen_config));
    }
    let (lake, mut elake, reopen_config) = state.ok_or("set-up failed")?;
    // More reopen samples, outside the set-up time.
    for _ in 1..REOPENS {
        drop(elake);
        let tr = Instant::now();
        let reopened = rep.op("open", EngineLake::open(&dir, reopen_config.clone()));
        e2e.reopen_ms.push(secs(tr.elapsed()) * 1e3);
        elake = reopened.ok_or("reopen failed")?;
    }

    // Untimed: single-shot reference answers, then one warm-up pass.
    let tb = Instant::now();
    let index = IndexBuilder::new(xash()).build(&lake.corpus);
    build.build_s.push(secs(tb.elapsed()));
    let reference = reference_answers(&lake.corpus, &index, &lake.queries);
    let Lake { corpus, queries } = lake;
    drop(index);
    let config = mate_config();
    for (q, want) in queries.iter().zip(&reference) {
        let (r, _) = plain_lake(&elake, &config, &q.q);
        rep.check(answer_ok(&r, &q.q, Some(want)));
    }

    let fills0 = hist(&elake.obs(), "pager.fills_us");
    let pager0 = elake.pager_stats();
    let (qlog, mut layers) = query_rounds(
        &mut rep,
        s,
        &queries,
        &reference,
        &|q| plain_lake(&elake, &config, q),
        &mut |q, layers| traced_lake(&elake, &config, &io, q, layers),
    );
    let fills1 = hist(&elake.obs(), "pager.fills_us");
    layers.fill_count = fills1.0 - fills0.0;
    layers.fill_us = fills1.1 - fills0.1;
    let pager1 = elake.pager_stats();
    eprintln!(
        "[perfbench] pager over the timed phase: {} hits, {} misses, {} evictions",
        pager1.hits - pager0.hits,
        pager1.misses - pager0.misses,
        pager1.evictions - pager0.evictions
    );
    drop(elake);

    if s.trace {
        put_trace(
            &mut rep,
            TraceOut {
                layers,
                engine: engine_log,
                build,
                corpus: &corpus,
            },
        );
    } else {
        put_end_to_end(&mut rep, &e2e, &qlog);
    }
    Ok(rep)
}

// ------------------------------------------------- ingest_webtables ----

/// `ingest_webtables`: every web table streamed through `apply_many` in
/// small groups with a small memtable, one WT query on the live lake after
/// each group, then close and reopen; repeated for the run's seconds.
pub fn ingest_webtables(s: &Settings) -> Result<Report, String> {
    let mut rep = Report::default();
    let mut build = BuildLog::default();
    let mut engine_log = EngineLog::default();
    let mut e2e = EndToEnd {
        setup_s: Vec::new(),
        ingest_rows: 0.0,
        ingest_s: 0.0,
        reopen_ms: Vec::new(),
        disk_bytes: 0.0,
        postings: 0.0,
        written: 0.0,
        logical: 0.0,
    };
    let mut state = None;
    for i in 0..SETUPS {
        state = None;
        let t = Instant::now();
        let lake = gen::webtables(s.seed);
        let tb = Instant::now();
        let index = IndexBuilder::new(xash()).build(&lake.corpus);
        build.build_s.push(secs(tb.elapsed()));
        e2e.setup_s.push(secs(t.elapsed()));
        if i + 1 == SETUPS {
            let reference = reference_answers(&lake.corpus, &index, &lake.queries);
            state = Some((lake, index.num_postings(), reference));
        }
    }
    let (lake, postings, reference) = state.ok_or("set-up failed")?;
    let logical = persist::corpus_to_bytes(&lake.corpus).len() as f64;
    // A query may run once every table it was planted with is in the lake.
    let ready_at: Vec<usize> = lake
        .queries
        .iter()
        .map(|q| {
            q.q.planted_tables
                .iter()
                .map(|t| t.index() + 1)
                .max()
                .unwrap_or(0)
        })
        .collect();

    let io = Arc::new(IoCounters::new(s.trace));
    let vfs: Arc<dyn mate_storage::Vfs> = Arc::new(CountingVfs::new(Arc::clone(&io)));
    let dir = s.work.join("lake");
    let config = || {
        engine_config(
            Arc::clone(&vfs),
            INGEST_MEMTABLE_BYTES,
            INGEST_TIER_FANOUT,
            INGEST_MAX_SEGMENTS,
        )
    };
    let query_config = mate_config();
    let mut qlog = QueryLog::default();
    let mut layers = LayerLog::default();
    let start = Instant::now();
    let mut passes = 0usize;
    let mut cursor = 0usize;
    while passes == 0 || start.elapsed().as_secs_f64() < s.seconds {
        layers.host_us.push(host_ref_us());
        let io0 = io.snapshot();
        // Space is sampled after every group and reported as Σ bytes ÷
        // Σ postings: the end state alone jumps with where the last
        // compaction happened to fall.
        let (mut disk_sum, mut postings_sum) = (0.0, 0.0);
        let mut after_group = |rep: &mut Report, elake: &EngineLake, done: usize| {
            disk_sum += dir_bytes(&dir) as f64;
            postings_sum += elake.stats().live_postings as f64;
            let n = lake.queries.len();
            let Some(i) = (0..n)
                .map(|j| (cursor + j) % n)
                .find(|&i| ready_at[i] <= done)
            else {
                return;
            };
            cursor = i + 1;
            let q = &lake.queries[i].q;
            let traced_first = s.trace && cursor % 2 == 1;
            let mut traced_answer = None;
            if traced_first {
                traced_answer = Some(traced_lake(elake, &query_config, &io, q, &mut layers));
            }
            let (r, wall) = plain_lake(elake, &query_config, q);
            qlog.record(wall, &r);
            rep.check(answer_ok(&r, q, None));
            if s.trace && !traced_first {
                traced_answer = Some(traced_lake(elake, &query_config, &io, q, &mut layers));
            }
            if let Some((t, twall)) = traced_answer {
                layers.traced_s += secs(twall);
                layers.untraced_s += secs(wall);
                if !same_answer(&r, &t) {
                    eprintln!("[perfbench] traced answer differs on the live lake");
                    rep.mismatch = true;
                }
            }
        };
        let (elake, apply_s) = ingest(
            &mut rep,
            &dir,
            config(),
            &lake.corpus,
            INGEST_GROUP,
            &mut after_group,
        )?;
        let stats = elake.stats();
        let ingest_obs = elake.obs();
        drop(elake);
        let (fills, fill_us) = hist(&ingest_obs, "pager.fills_us");
        layers.fill_count += fills;
        layers.fill_us += fill_us;
        e2e.disk_bytes += disk_sum;
        e2e.postings += postings_sum;
        e2e.ingest_rows += lake.rows() as f64;
        e2e.ingest_s += apply_s;
        engine_log.rows += lake.rows() as u64;
        engine_log.apply_s += apply_s;

        let mut reopened = None;
        for _ in 0..REOPENS {
            drop(reopened.take());
            let tr = Instant::now();
            reopened = rep.op("open", EngineLake::open(&dir, config()));
            e2e.reopen_ms.push(secs(tr.elapsed()) * 1e3);
        }
        let cycle_io = io.snapshot().since(&io0);
        e2e.written += cycle_io.written_total() as f64;
        e2e.logical += logical;
        if let Some(reopened) = reopened {
            engine_log.add_cycle(&ingest_obs, &stats, &reopened, cycle_io);
            // Untimed: the reopened lake answers every query exactly as
            // the single-shot index over the whole corpus does.
            rep.check(reopened.stats().live_postings == postings);
            for (q, want) in lake.queries.iter().zip(&reference) {
                let (r, _) = plain_lake(&reopened, &query_config, &q.q);
                rep.check(answer_ok(&r, &q.q, Some(want)));
            }
            if passes == 0 {
                eprintln!(
                    "[perfbench] lake: {} tables, {} rows, {} flushes, {} compactions, {} segments, cold {} B",
                    lake.corpus.len(),
                    lake.rows(),
                    stats.flushes,
                    stats.compactions,
                    stats.cold_segments,
                    stats.cold_bytes
                );
            }
        }
        passes += 1;
    }
    eprintln!(
        "[perfbench] {passes} passes, {} live queries in {:.1}s, {}",
        qlog.lat_us.len(),
        start.elapsed().as_secs_f64(),
        host_summary(&layers.host_us)
    );

    if s.trace {
        put_trace(
            &mut rep,
            TraceOut {
                layers,
                engine: engine_log,
                build,
                corpus: &lake.corpus,
            },
        );
    } else {
        put_end_to_end(&mut rep, &e2e, &qlog);
    }
    Ok(rep)
}
