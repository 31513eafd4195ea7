//! [`EngineLake`]: a shared, concurrently-readable handle over an
//! [`Engine`] — ingest while serving, across threads.
//!
//! The bare [`Engine`] is `&mut self`-only: one writer, no readers while it
//! writes, and every [`Engine::apply`] pays its own fsync. `EngineLake`
//! wraps it with **Arc-snapshot serving** and a group-commit protocol:
//!
//! * **Snapshot serving (no reader locks)** — queries never take the
//!   engine lock. Writers keep an always-valid [`EngineSnapshot`] in a
//!   published slot (swapped under the engine write lock after every
//!   batch, flush, and compaction); [`EngineLake::reader`] clones that
//!   `Arc` out of the slot — a few nanoseconds under a plain mutex — and
//!   runs the whole query against the owned snapshot. Consequences:
//!
//!   - a long discovery query cannot stall a flush or compaction, and a
//!     saturated read side cannot starve writers (the pre-snapshot design
//!     served reads through `RwLock` read guards held for the full query;
//!     on reader-preferring `std::sync::RwLock` builds that could delay
//!     writers indefinitely);
//!   - a [`LakeReader`] taken before a flush/compaction stays queryable
//!     *during and after* it, bit-identical to the corpus state it
//!     observed (writers copy-on-write; they never edit pinned data);
//!   - memory of superseded state (old memtable stores, compacted-away
//!     segments, pre-edit table payloads) is freed when the last reader
//!     pinning it drops — holding a reader for a long time holds that
//!     memory, so drop readers when done, but correctness never depends
//!     on it.
//!
//!   The write side pays for this with one copy-on-write of the memtable
//!   posting store per write batch that follows a published snapshot
//!   (bounded by [`EngineConfig::memtable_budget_bytes`]); the corpus and
//!   super keys copy per-*table*, not wholesale. All three locks are
//!   ranked ([`mate_obs::lockrank`]): `engine` (rank 10) → `commit`
//!   (rank 20) → `published` (rank 50); the lock-rank table in the
//!   [`engine module docs`](super) is the single source of truth, and
//!   debug builds panic on any path acquiring them out of order.
//! * **Group commit** — [`EngineLake::apply`] appends the record and
//!   applies it in memory under the write lock (unsynced), then blocks
//!   until a *covering* fsync. The first waiter becomes the leader and
//!   issues one `fdatasync` for every record appended so far; writers that
//!   arrive while the leader is in the kernel batch up and are covered by
//!   the next leader's single fsync. A record is therefore never
//!   acknowledged before it is durable — batching comes from concurrency,
//!   not from weakening the contract. A flush rotation also completes
//!   waiters: rotation folds every applied record into the flushed
//!   segment + checkpoint behind the manifest flip, which is itself
//!   durable. The sequential path, one fsync per record, remains
//!   available as [`Engine::apply`].
//!
//! Readers of one published snapshot share its memo of resolved merged
//! lists (see [`MergedSource`]), so a query stream pays the multi-layer
//! walk once per value per published snapshot; the next publish starts a
//! fresh memo, and a reader holding an older snapshot keeps resolving
//! through that snapshot's own.
//!
//! Commit-queue locking note: the queue mutex and its condvar recover from
//! poisoning (a writer thread that panics mid-commit must not cascade
//! panics into every other writer). This is sound because the queue is
//! only ever advanced by whole-field writes made *after* the corresponding
//! engine/WAL state transition completed under the engine write lock, and
//! every consumer re-validates what it reads against its own ticket — a
//! panic between queue updates leaves conservative state (waiters wait for
//! the next leader or rotation), never a false durability claim.

use super::ranks;
use super::{
    Engine, EngineConfig, EngineSnapshot, EngineStats, MergedSource, SourceCache, WalTicket,
};
use crate::wal::WalRecord;
use mate_obs::lockrank::{RankedCondvar, RankedMutex, RankedRwLock};
use mate_obs::Obs;
use mate_storage::{StorageError, VfsFile};
use mate_table::{Table, TableId};
use std::path::Path;
use std::sync::Arc;

/// Group-commit bookkeeping for the active WAL file.
struct CommitQueue {
    /// WAL rotation epoch ([`Engine::wal_seq`]) the offsets refer to.
    epoch: u64,
    /// Bytes appended (buffered) in this epoch.
    appended: u64,
    /// Bytes made durable by group fsyncs in this epoch.
    durable: u64,
    /// A leader is currently in `fdatasync`.
    syncing: bool,
    /// A group fsync failed: durability of buffered records is unknown.
    /// The engine's WAL is poisoned alongside (refusing appends *and*
    /// flushes), so the in-memory state containing the failed writes can
    /// never be durably committed — reopening is the only way forward.
    poisoned: bool,
    /// Duplicated handle to the active WAL file, synced outside the
    /// engine lock.
    file: Option<Arc<dyn VfsFile>>,
}

/// A shared engine handle: lock-free snapshot readers, group-committed
/// writers (see module docs).
pub struct EngineLake {
    engine: RankedRwLock<Engine>,
    /// The most recently published snapshot — always valid, replaced (never
    /// mutated) under the engine write lock after every write batch.
    published: RankedMutex<Arc<EngineSnapshot>>,
    commit: RankedMutex<CommitQueue>,
    commit_cv: RankedCondvar,
    /// The wrapped engine's observability hub (cached so monitoring reads
    /// never touch the engine lock). Registered as `lake.group_syncs`:
    /// group fsyncs issued by this lake.
    obs: Arc<Obs>,
    group_syncs: Arc<mate_obs::Counter>,
}

/// An owned read snapshot of the lake: pins a consistent engine state
/// (corpus, layer stack, super keys, epoch) with **no lock held**. Queries
/// over it are immune to concurrent flushes/compactions/ingest, and
/// writers never wait for it — holding one indefinitely only holds the
/// memory of the pinned state alive.
pub struct LakeReader {
    snapshot: Arc<EngineSnapshot>,
}

impl LakeReader {
    /// The pinned engine snapshot (corpus, super keys, stats, ...).
    pub fn snapshot(&self) -> &EngineSnapshot {
        &self.snapshot
    }

    /// Unwraps into the shareable snapshot `Arc`.
    pub fn into_snapshot(self) -> Arc<EngineSnapshot> {
        self.snapshot
    }

    /// A merged posting view of the snapshot: its
    /// [`EngineSnapshot::source`], sharing the snapshot's memo.
    pub fn source(&self) -> MergedSource<'_> {
        self.snapshot.source()
    }
}

impl EngineLake {
    /// Creates a fresh engine in `dir` and wraps it (see
    /// [`Engine::create`]).
    pub fn create(dir: impl AsRef<Path>, config: EngineConfig) -> Result<Self, StorageError> {
        Engine::create(dir, config).map(EngineLake::new)
    }

    /// Recovers an engine from `dir` and wraps it (see [`Engine::open`]).
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> Result<Self, StorageError> {
        Engine::open(dir, config).map(EngineLake::new)
    }

    /// Wraps an already-constructed engine.
    pub fn new(engine: Engine) -> Self {
        let queue = CommitQueue {
            epoch: engine.wal_seq(),
            appended: engine.wal_len(),
            // Everything already in the file at wrap time is either
            // fsynced (acknowledged by the sequential path) or replayed
            // recovery state — nothing the lake still owes an fsync for.
            durable: engine.wal_len(),
            syncing: false,
            poisoned: false,
            file: engine.wal_try_clone().ok().map(Arc::from),
        };
        let published = engine.snapshot();
        let obs = Arc::clone(engine.obs());
        let group_syncs = obs.counter("lake.group_syncs");
        EngineLake {
            engine: RankedRwLock::new(ranks::ENGINE_WRITE, engine),
            published: RankedMutex::new(ranks::SNAPSHOT_SLOT, published),
            commit: RankedMutex::new(ranks::COMMIT_QUEUE, queue),
            commit_cv: RankedCondvar::new(),
            obs,
            group_syncs,
        }
    }

    /// Unwraps the lake back into the owned engine.
    pub fn into_engine(self) -> Engine {
        self.engine.into_inner()
    }

    /// Takes an owned read snapshot for queries: clones the published
    /// snapshot `Arc` — no engine lock, so this returns promptly even
    /// while a flush or compaction is running, and however long the caller
    /// keeps the reader, no writer ever waits for it.
    pub fn reader(&self) -> LakeReader {
        LakeReader {
            snapshot: Arc::clone(&self.published.lock()),
        }
    }

    /// Hit/miss counters of the snapshot memos every reader resolves
    /// through.
    pub fn source_cache(&self) -> SourceCache {
        self.published.lock().source_cache().clone()
    }

    /// Live counters of the engine's shared page cache — the budgeted pool
    /// every cold segment in this lake is demand-paged through. Reads the
    /// published snapshot's handle, so this never takes the engine lock.
    pub fn pager_stats(&self) -> mate_storage::pager::PagerStats {
        self.published.lock().pager_stats()
    }

    /// Group fsyncs issued by this lake (each may cover many records).
    pub fn group_syncs(&self) -> u64 {
        self.group_syncs.get()
    }

    /// The wrapped engine's counters with the structural state of the
    /// published snapshot ([`EngineSnapshot::stats`]): monitoring never
    /// contends with writers (or waits behind a flush).
    pub fn stats(&self) -> EngineStats {
        self.published.lock().stats()
    }

    /// The lake's observability hub: registry metrics, the event ring
    /// buffer, and the clock that spans read. Discovery over this lake
    /// ([`discover_lake`]) records its spans and profiles here.
    ///
    /// [`discover_lake`]: ../../mate_core/engine_query/fn.discover_lake.html
    pub fn obs_handle(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// One export of everything observable about this lake: every
    /// registered metric (the `engine.*` counters, and the `engine.*`
    /// gauges of the published snapshot among them) and the event log.
    /// Render it with [`mate_obs::ObsSnapshot::to_json`] or
    /// [`mate_obs::ObsSnapshot::to_prometheus`].
    pub fn obs(&self) -> mate_obs::ObsSnapshot {
        self.obs.snapshot()
    }

    /// Source epoch of the currently published snapshot. A reader's
    /// [`EngineSnapshot::source_epoch`] subtracted from this is the number
    /// of structural changes (flushes/compactions/promotions) the reader's
    /// view is behind — the snapshot-age counter surfaced in discovery
    /// stats.
    pub fn published_epoch(&self) -> u64 {
        self.published.lock().source_epoch()
    }

    /// Applies one edit durably: buffered WAL append + in-memory apply
    /// under the write lock, then blocks until a group fsync (or a flush
    /// rotation) covers the record. Durable from the moment this returns.
    pub fn apply(&self, record: WalRecord) -> Result<(), StorageError> {
        let (ticket, _) = self.append(record)?;
        self.wait_durable(ticket)
    }

    /// Convenience: insert a table durably; returns its id (allocated
    /// under the write lock, so concurrent inserters get distinct ids).
    pub fn insert_table(&self, table: Table) -> Result<TableId, StorageError> {
        let (ticket, id) = self.append(WalRecord::InsertTable { table })?;
        self.wait_durable(ticket)?;
        Ok(id)
    }

    /// Applies a batch of edits with **one** durability wait: all records
    /// are appended and applied under one write-lock acquisition, then a
    /// single covering fsync acknowledges the batch (the flush budget is
    /// still enforced per record).
    pub fn apply_many(
        &self,
        records: impl IntoIterator<Item = WalRecord>,
    ) -> Result<(), StorageError> {
        let last = {
            let mut engine = self.engine.write();
            let mut last = None;
            let mut res: Result<(), StorageError> = Ok(());
            for record in records {
                match engine.apply_nosync(record) {
                    Ok(ticket) => last = Some(ticket),
                    Err(e) => {
                        res = Err(e);
                        break;
                    }
                }
                if let Err(e) = self.flush_budget(&mut engine) {
                    res = Err(e);
                    break;
                }
            }
            self.finish_write(&mut engine);
            res?;
            last
        };
        match last {
            Some(ticket) => self.wait_durable(ticket),
            None => Ok(()),
        }
    }

    /// Flushes the memtable (see [`Engine::flush`]). Outstanding readers
    /// keep serving their pre-flush snapshots; new readers see the flushed
    /// state as soon as this returns.
    pub fn flush(&self) -> Result<bool, StorageError> {
        let mut engine = self.engine.write();
        let r = engine.flush();
        self.finish_write(&mut engine);
        r
    }

    /// Full-stack compaction (see [`Engine::compact`]).
    pub fn compact(&self) -> Result<usize, StorageError> {
        let mut engine = self.engine.write();
        let r = engine.compact();
        self.finish_write(&mut engine);
        r
    }

    /// Size-tiered compaction (see [`Engine::compact_tiered`]).
    pub fn compact_tiered(&self) -> Result<usize, StorageError> {
        let mut engine = self.engine.write();
        let r = engine.compact_tiered();
        self.finish_write(&mut engine);
        r
    }

    /// Scrub pass over every manifest-referenced file (see
    /// [`Engine::scrub`]): corrupt segments are quarantined and rebuilt,
    /// corrupt checkpoints replaced, unhealable states degrade the lake to
    /// read-only. Readers keep serving their snapshots throughout; the
    /// healed state is published on return.
    pub fn scrub(&self) -> Result<super::ScrubReport, StorageError> {
        let mut engine = self.engine.write();
        let r = engine.scrub();
        self.finish_write(&mut engine);
        r
    }

    // ------------------------------------------------- group commit core --

    /// Appends and applies one record under the write lock (unsynced),
    /// then runs the budgets and publishes. Returns the record's ticket and
    /// the table count at append time, which is the id an inserted table
    /// takes.
    fn append(&self, record: WalRecord) -> Result<(WalTicket, TableId), StorageError> {
        let mut engine = self.engine.write();
        let id = TableId::from(engine.corpus().len());
        let result = engine.apply_nosync(record);
        let budget = match &result {
            Ok(_) => self.flush_budget(&mut engine),
            Err(_) => Ok(()),
        };
        self.finish_write(&mut engine);
        let ticket = result?;
        budget?;
        Ok((ticket, id))
    }

    /// Runs the flush/compaction budgets after an append. A failure here
    /// poisons the engine and the queue (under the held write lock, so no
    /// concurrent flush can slip through): the just-appended record was
    /// applied but will be reported failed, and letting a later fsync or
    /// flush commit it would turn the caller's retry into a duplicate.
    /// Like any failed commit, the record's durability is *unknown* (its
    /// frame is in the WAL file); the guarantee kept is that this engine
    /// instance never silently acknowledges or re-serves progress past
    /// what callers were told.
    fn flush_budget(&self, engine: &mut Engine) -> Result<(), StorageError> {
        if let Err(e) = engine.maybe_flush() {
            engine.poison_wal();
            let mut q = self.commit.lock();
            q.poisoned = true;
            drop(q);
            self.commit_cv.notify_all();
            return Err(e);
        }
        Ok(())
    }

    /// Publishes the engine's current snapshot and brings the commit queue
    /// up to date. Called while still holding the engine write lock —
    /// always, success or failure, so readers and the queue observe every
    /// in-memory transition in append order.
    fn finish_write(&self, engine: &mut Engine) {
        // Build the snapshot before taking the snapshot slot, so the slot
        // is held only for the pointer swap.
        let snapshot = engine.snapshot();
        *self.published.lock() = snapshot;
        let mut q = self.commit.lock();
        if q.epoch != engine.wal_seq() {
            // Rotation: every record of the previous epoch is folded into
            // a flushed segment + checkpoint behind the manifest flip.
            q.epoch = engine.wal_seq();
            q.durable = 0;
            q.poisoned = false;
            q.file = engine.wal_try_clone().ok().map(Arc::from);
        }
        q.appended = engine.wal_len();
        drop(q);
        // An epoch advance may have completed waiters of the old epoch.
        self.commit_cv.notify_all();
    }

    /// Blocks until `ticket` is durable: covered by a group fsync, or
    /// superseded by a rotation into a later epoch. The first waiter to
    /// find no sync in flight becomes the leader and fsyncs for the whole
    /// group.
    fn wait_durable(&self, ticket: WalTicket) -> Result<(), StorageError> {
        let mut q = self.commit.lock();
        loop {
            if q.epoch > ticket.wal_seq || (q.epoch == ticket.wal_seq && q.durable >= ticket.end) {
                return Ok(());
            }
            if q.poisoned {
                return Err(StorageError::Degraded {
                    reason: "group-commit fsync failed; reopen the lake".to_string(),
                });
            }
            if !q.syncing {
                // Leader: one fsync covers every record appended so far.
                q.syncing = true;
                let epoch = q.epoch;
                let target = q.appended;
                let file = q.file.clone();
                drop(q);
                let res = match &file {
                    Some(f) => {
                        // Leader election won: this fsync commits the
                        // whole group (span covers just the sync syscall).
                        let _span = self.obs.span("group_commit_sync");
                        f.sync_data()
                    }
                    None => Err(std::io::Error::other("group-commit WAL handle unavailable")),
                };
                q = self.commit.lock();
                q.syncing = false;
                match res {
                    Ok(()) => {
                        self.group_syncs.inc();
                        if q.epoch == epoch && target > q.durable {
                            q.durable = target;
                        }
                        self.commit_cv.notify_all();
                    }
                    Err(e) => {
                        self.commit_cv.notify_all();
                        if q.epoch != epoch || q.durable >= target {
                            // The file rotated away mid-sync (contents are
                            // durable via the manifest flip) or a retry by
                            // another leader already covered the group —
                            // benign; re-examine the loop condition.
                            continue;
                        }
                        // Durability of the buffered records is unknown.
                        // Poison engine + queue together under the engine
                        // write lock (lock order engine → commit), so no
                        // concurrent writer can flush — and thereby
                        // durably commit — the failed records between our
                        // decision and the poison taking effect.
                        drop(q);
                        let mut engine = self.engine.write();
                        let mut q2 = self.commit.lock();
                        if q2.epoch == epoch && q2.durable < target {
                            q2.poisoned = true;
                            engine.poison_wal();
                            drop(q2);
                            self.commit_cv.notify_all();
                            return Err(e.into());
                        }
                        // A rotation or successful retry landed while we
                        // were re-locking: benign after all.
                        drop(q2);
                        drop(engine);
                        q = self.commit.lock();
                    }
                }
            } else {
                q = self.commit_cv.wait(q);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_table::TableBuilder;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mate-lake-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn config(budget: usize) -> EngineConfig {
        EngineConfig {
            memtable_budget_bytes: budget,
            max_cold_segments: 0,
            ..EngineConfig::default()
        }
    }

    fn people(n: usize, tag: &str) -> Table {
        let mut tb = TableBuilder::new(format!("t-{tag}"), ["first", "last"]);
        for i in 0..n {
            tb = tb.row([format!("{tag}-first-{i}"), format!("shared-{}", i % 3)]);
        }
        tb.build()
    }

    #[test]
    fn lake_apply_is_durable_and_reopens() {
        let dir = tmpdir("durable");
        {
            let lake = EngineLake::create(&dir, config(1 << 30)).unwrap();
            lake.insert_table(people(4, "a")).unwrap();
            lake.apply(WalRecord::InsertRow {
                table: TableId(0),
                cells: vec!["grace".into(), "hopper".into()],
            })
            .unwrap();
            assert!(lake.group_syncs() >= 2, "each apply waited on an fsync");
            // Crash-equivalent drop: no flush.
        }
        let lake = EngineLake::open(&dir, config(1 << 30)).unwrap();
        {
            let reader = lake.reader();
            assert_eq!(reader.snapshot().corpus().len(), 1);
            assert_eq!(reader.snapshot().corpus().table(TableId(0)).num_rows(), 5);
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn concurrent_writers_and_readers_stay_consistent() {
        let dir = tmpdir("concurrent");
        let lake = EngineLake::create(&dir, config(1 << 30)).unwrap();
        lake.insert_table(people(3, "seed")).unwrap();

        std::thread::scope(|scope| {
            for w in 0..2 {
                let lake = &lake;
                scope.spawn(move || {
                    for i in 0..10 {
                        lake.apply(WalRecord::InsertRow {
                            table: TableId(0),
                            cells: vec![format!("w{w}-{i}"), format!("l{w}-{i}")],
                        })
                        .unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let lake = &lake;
                scope.spawn(move || {
                    for _ in 0..25 {
                        let reader = lake.reader();
                        // Row count only grows; postings stay internally
                        // consistent within the snapshot.
                        let rows = reader.snapshot().corpus().table(TableId(0)).num_rows();
                        assert!((3..=23).contains(&rows));
                        assert!(reader.snapshot().decoded_postings("seed-first-0").is_some());
                    }
                });
            }
        });
        assert_eq!(
            lake.reader()
                .snapshot()
                .corpus()
                .table(TableId(0))
                .num_rows(),
            23
        );
        // Everything survives a reopen (all writes were acknowledged).
        drop(lake);
        let lake = EngineLake::open(&dir, config(1 << 30)).unwrap();
        assert_eq!(
            lake.reader()
                .snapshot()
                .corpus()
                .table(TableId(0))
                .num_rows(),
            23
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn apply_many_batches_one_wait() {
        let dir = tmpdir("batch");
        let lake = EngineLake::create(&dir, config(1 << 30)).unwrap();
        lake.insert_table(people(2, "a")).unwrap();
        let syncs_before = lake.group_syncs();
        lake.apply_many((0..8).map(|i| WalRecord::InsertRow {
            table: TableId(0),
            cells: vec![format!("b{i}"), format!("c{i}")],
        }))
        .unwrap();
        assert_eq!(
            lake.group_syncs(),
            syncs_before + 1,
            "a batch takes one covering fsync"
        );
        assert_eq!(
            lake.reader()
                .snapshot()
                .corpus()
                .table(TableId(0))
                .num_rows(),
            10
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reader_outlives_flush_compaction_and_further_ingest() {
        // The deterministic writer-starvation / snapshot-isolation
        // regression: pre-snapshot serving, the held reader guard would
        // self-deadlock the apply() below; now writers never wait for
        // readers, and the reader's view never moves.
        let dir = tmpdir("outlive");
        let lake = EngineLake::create(&dir, config(1 << 30)).unwrap();
        lake.insert_table(people(4, "a")).unwrap();

        let reader = lake.reader();
        let pinned_rows = reader.snapshot().corpus().table(TableId(0)).num_rows();
        let pinned_postings = reader.snapshot().live_postings();

        // Writer proceeds while the reader is held — including flushes and
        // compactions that completely restructure the layer stack.
        lake.apply(WalRecord::InsertRow {
            table: TableId(0),
            cells: vec!["late".into(), "row".into()],
        })
        .unwrap();
        lake.insert_table(people(5, "b")).unwrap();
        lake.flush().unwrap();
        lake.insert_table(people(5, "c")).unwrap();
        lake.flush().unwrap();
        lake.compact().unwrap();

        // The old reader still serves its pre-write state, bit for bit.
        assert_eq!(
            reader.snapshot().corpus().table(TableId(0)).num_rows(),
            pinned_rows
        );
        assert_eq!(reader.snapshot().live_postings(), pinned_postings);
        assert!(reader.snapshot().decoded_postings("late").is_none());
        assert!(reader.snapshot().decoded_postings("a-first-0").is_some());

        // A fresh reader sees everything.
        let fresh = lake.reader();
        assert_eq!(fresh.snapshot().corpus().len(), 3);
        assert!(fresh.snapshot().decoded_postings("late").is_some());
        assert!(fresh.snapshot().source_epoch() > reader.snapshot().source_epoch());
        std::fs::remove_dir_all(dir).ok();
    }

    /// Every counter field of an [`EngineStats`], by its registry name.
    fn counters(s: &EngineStats) -> Vec<(&'static str, u64)> {
        vec![
            ("engine.flushes", s.flushes),
            ("engine.compactions", s.compactions),
            ("engine.wal_records", s.wal_records),
            ("engine.wal_syncs", s.wal_syncs),
            ("engine.replayed_records", s.replayed_records),
            ("engine.checkpoints_written", s.checkpoints_written),
            ("engine.checkpoints_skipped", s.checkpoints_skipped),
            ("engine.deltas_written", s.deltas_written),
            ("engine.checkpoint_delta_bytes", s.checkpoint_delta_bytes),
            ("engine.checkpoint_full_bytes", s.checkpoint_full_bytes),
            ("engine.values_hashed", s.values_hashed),
            ("engine.scrub_runs", s.scrub_runs),
            ("engine.scrub_corruptions_found", s.scrub_corruptions_found),
            ("engine.segments_quarantined", s.segments_quarantined),
            ("engine.segments_rebuilt", s.segments_rebuilt),
            ("vfs.faults_injected", s.io_errors_injected),
        ]
    }

    /// One counter store. After every step of create → ingest → flush →
    /// tiered compaction → scrub → reopen, `Engine::stats`,
    /// `EngineLake::stats` and the hub's counters agree field for field,
    /// and two lakes sharing one hub read the sum of what their twins,
    /// fed the same records on hubs of their own, read.
    #[test]
    fn counters_have_one_store_summed_per_hub() {
        let base = tmpdir("one-store");
        let shared = Arc::new(Obs::new());
        let hubs = [
            Arc::clone(&shared),
            shared,
            Arc::new(Obs::new()),
            Arc::new(Obs::new()),
        ];
        let open = |i: usize, create: bool| {
            let cfg = EngineConfig {
                tier_fanout: 2,
                obs: Arc::clone(&hubs[i]),
                ..config(1 << 30)
            };
            let dir = base.join(format!("lake{i}"));
            if create {
                EngineLake::create(dir, cfg).unwrap()
            } else {
                EngineLake::open(dir, cfg).unwrap()
            }
        };
        let check = |lakes: &[EngineLake], step: &str| {
            for (i, lake) in lakes.iter().enumerate() {
                let s = lake.stats();
                assert_eq!(lake.engine.read().stats(), s, "{step}: lake {i}");
                let hub = lake.obs().counters;
                for (name, v) in counters(&s) {
                    let got = hub.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
                    assert_eq!(got, Some(v), "{step}: lake {i} {name}");
                }
            }
            let (a, b) = (counters(&lakes[2].stats()), counters(&lakes[3].stats()));
            for ((name, v), (x, y)) in counters(&lakes[0].stats())
                .into_iter()
                .zip(a.iter().zip(&b))
            {
                assert_eq!(
                    v,
                    x.1 + y.1,
                    "{step}: shared hub must read the sum of {name}"
                );
            }
        };
        // Lake i and its twin i + 2 get the same records; lakes 0 and 1
        // get different ones.
        let ingest = |lakes: &[EngineLake], tag: &str| {
            for (i, lake) in lakes.iter().enumerate() {
                let n = 2 + i % 2;
                lake.apply_many((0..n).map(|t| WalRecord::InsertTable {
                    table: people(3 + t, &format!("{tag}{t}")),
                }))
                .unwrap();
            }
        };

        let mut lakes: Vec<EngineLake> = (0..4).map(|i| open(i, true)).collect();
        check(&lakes, "create");
        ingest(&lakes, "a");
        check(&lakes, "ingest");
        for round in ["b", "c"] {
            for lake in &lakes {
                assert!(lake.flush().unwrap());
            }
            check(&lakes, "flush");
            ingest(&lakes, round);
        }
        for lake in &lakes {
            assert!(lake.flush().unwrap());
            assert!(lake.compact_tiered().unwrap() >= 2);
        }
        check(&lakes, "tiered compaction");
        for i in 0..4 {
            let seg = std::fs::read_dir(base.join(format!("lake{i}")))
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
                .unwrap();
            let mut bytes = std::fs::read(&seg).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x10;
            std::fs::write(&seg, &bytes).unwrap();
        }
        for lake in &lakes {
            assert_eq!(lake.scrub().unwrap().segments_rebuilt, 1);
        }
        check(&lakes, "scrub");
        ingest(&lakes, "d");
        drop(lakes);
        lakes = (0..4).map(|i| open(i, false)).collect();
        check(&lakes, "reopen");
        assert!(lakes[2].stats().replayed_records > 0);
        drop(lakes);
        std::fs::remove_dir_all(base).ok();
    }

    #[test]
    fn stats_served_from_snapshot() {
        let dir = tmpdir("stats");
        let lake = EngineLake::create(&dir, config(1 << 30)).unwrap();
        lake.insert_table(people(4, "a")).unwrap();
        let s = lake.stats();
        assert_eq!(s.tables, 1);
        assert_eq!(s.wal_records, 1);
        lake.flush().unwrap();
        assert_eq!(lake.stats().flushes, 1, "stats follow the published slot");
        assert_eq!(lake.stats().memtable_postings, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
