//! The log-structured multi-segment index engine: ingest while serving.
//!
//! A single-segment index can only absorb edits by mutating one hot
//! [`crate::index::InvertedIndex`] and re-persisting one monolithic
//! segment — incompatible with serving heavy query traffic while the lake
//! grows. [`Engine`] is the standard log-structured answer:
//!
//! ```text
//!              writes                          reads
//!                │                               │
//!                ▼                               ▼
//!   WAL ──► memtable (PostingStore) ─────┐  MergedSource
//!   wal-S.log      │ flush (byte budget) ├──  newest-wins union
//!                  ▼                     │    over all layers
//!        seg-N.seg (immutable, cold) ────┤
//!        seg-M.seg (immutable, cold) ────┘
//!                  ▲
//!                  └── compaction merges the stack, drops tombstones
//! ```
//!
//! * **Memtable** — the hot postings of every memtable-owned table live in
//!   one [`PostingStore`], next to the engine-resident *global* super-key
//!   store (super keys are per-row and small; keeping them global makes
//!   row filtering identical across serving modes). Edits arrive as
//!   [`WalRecord`]s: appended to `wal-<seq>.log` and fsynced *first*
//!   (write-ahead rule), then applied through one [`IndexUpdater`]
//!   transition — whole-table inserts included, on live writes and on
//!   replay alike. Writes go through `Arc::make_mut` under `&mut Engine`,
//!   so the store needs no latch of its own.
//! * **Ownership / claims** — masking is tracked at table granularity.
//!   Each layer *claims* the tables whose postings it carries; the newest
//!   claim wins. Editing a table whose postings live in a cold segment
//!   first **promotes** it: its current postings are re-derived from the
//!   corpus into the memtable (exact, because cold postings always equal
//!   the corpus projection of the tables they own), and the cold copy is
//!   masked from then on. Deleting a cold-owned table just records a
//!   zero-count claim — a **tombstone**.
//! * **Flush** — when the memtable exceeds
//!   [`EngineConfig::memtable_budget_bytes`], its postings are written as
//!   an immutable segment (the standard index blocks plus an `engine.claims`
//!   block), the corpus checkpoint advances **incrementally**, the WAL
//!   rotates to a fresh file, and the [`Manifest`] is atomically
//!   replaced. Only then is the memtable cleared. A crash at *any* byte of
//!   this sequence recovers: the manifest flip is the commit point, and
//!   everything it references is fsynced before the flip.
//! * **Corpus delta checkpoints** — instead of rewriting the whole
//!   `corpus-<gen>.seg` on every flush, the engine tracks which tables
//!   changed since the last flush and appends one
//!   `cdelta-<gen>-<seq>.seg` carrying only those tables' current
//!   content (table-granular, last-wins, so replaying a delta twice is
//!   idempotent). The manifest records the checkpoint generation plus
//!   the delta-chain length ([`Manifest::corpus_delta_seq`]); recovery
//!   loads the base checkpoint and folds the chain in order. The chain
//!   folds into a fresh monolithic generation at compaction (or after
//!   `MAX_DELTA_CHAIN` deltas), bounding recovery replay work. Flush
//!   cost after touching *d* of *T* tables is thereby proportional to
//!   *d*, not *T*.
//! * **Recovery** — [`Engine::open`] loads the manifest's segment stack
//!   cold (zero-copy, no posting decode), materializes super keys from the
//!   newest segment (which always carries them as of the WAL watermark),
//!   loads the corpus checkpoint plus its delta chain, replays the active
//!   WAL into a fresh memtable, and deletes orphan files from interrupted
//!   flushes.
//! * **Compaction** — [`Engine::compact_tiered`] runs a **size-tiered
//!   policy**: segments are bucketed into factor-4 size classes, and
//!   whenever a class holds at least [`EngineConfig::tier_fanout`]
//!   segments, the oldest `tier_fanout` of that class are merged into one
//!   segment placed at the stack position of the newest input. Masked
//!   entries are dropped; a tombstone is retained only while an older
//!   *remaining* segment still claims the table it masks. Write
//!   amplification is bounded: a merge only ever rewrites segments of one
//!   size class, never the whole stack. [`Engine::compact`] (the full-stack
//!   fold) remains available for tooling. Either way discovery results are
//!   preserved exactly (property-tested), and the WAL watermark is
//!   untouched (the checkpoint chain only folds, at the same watermark), so
//!   crash recovery around compaction needs no special cases.
//! * **Group commit** — [`Engine::apply`] acknowledges a record once its
//!   WAL frame is fsynced. [`Engine::apply_nosync`] + [`Engine::sync_wal`]
//!   expose the two halves for callers (the [`EngineLake`] group-commit
//!   protocol, tests) that defer the fsync themselves: records are
//!   buffered (written, not yet synced) and one `fdatasync` acknowledges
//!   the whole window — a crash may lose the buffered tail, never a
//!   synced prefix.
//!
//! # Durability guarantee (one commit primitive)
//!
//! Every change to the on-disk state — flush, compaction merge, scrub's
//! segment rebuild, checkpoint heal, and manifest rewrite — goes through
//! one commit (`Engine::commit`) under one rule: **every fallible step
//! happens before the manifest flip**.
//!
//! * **Before the flip** the caller makes everything the new manifest
//!   references durable through [`write_file_atomic_vfs`] (contents
//!   fsynced, renamed into place, parent directory fsynced): the segment
//!   from the one segment writer, already opened as a paged layer; the
//!   corpus delta or full checkpoint; and, for a flush, the rotated WAL
//!   file, created *and* opened for appends. A failure here leaves the
//!   engine unchanged and consistent with the old manifest; what was
//!   written is an orphan the next open garbage-collects. A corpus delta
//!   is a whole CRC-framed file, never an in-place append, so the chain a
//!   manifest references is always complete.
//! * **The flip**, the atomic `MANIFEST` replace, is the only commit
//!   point. [`Engine::create`] writes its first manifest through the same
//!   save.
//! * **After the flip** nothing can fail: an in-memory switch of stack,
//!   WAL, checkpoint, segment-id counter, and ownership (one resolution:
//!   the newest claim wins, the memtable outranks cold), then best-effort
//!   cleanup. Retired segments are doomed — unlinked once the last
//!   snapshot serving them drops — and superseded WAL and checkpoint files
//!   are deleted without a directory fsync: a crash that resurrects one is
//!   harmless, since [`Engine::open`] collects every file the manifest
//!   does not reference.
//!
//! So a maintenance call that returns an error leaves an engine that keeps
//! acknowledging writes into the WAL the manifest names (swept per I/O op
//! in `engine_recovery.rs`). Two rules sit outside the commit:
//!
//! * **WAL appends** are made durable by `fdatasync` before they are
//!   acknowledged (write-ahead rule).
//! * **Torn-tail trims** at recovery use in-place `set_len` + fsync —
//!   never a rewrite of the acknowledged prefix, so a crash during the
//!   trim cannot destroy acknowledged records.
//!
//! The directory fsync in [`write_file_atomic_vfs`] is best-effort by
//! design: on filesystems where it fails, file *contents* are still fully
//! synced and only the durability of the rename itself degrades to the
//! filesystem's own ordering guarantees.
//!
//! # Failure model (fault injection, scrub, self-healing)
//!
//! Every durability-relevant I/O call goes through a [`Vfs`] handle
//! ([`EngineConfig::vfs`], [`StdVfs`] in production) so tests can inject
//! deterministic faults ([`mate_storage::FaultVfs`]): failing the Nth
//! call, `ENOSPC` on append, `EIO` on fsync, torn writes, silent bit
//! flips on read. The engine's contract under any such fault:
//!
//! * An I/O error never panics and never silently acknowledges an
//!   unsynced record — it surfaces as a typed [`EngineError`] carrying
//!   the failing operation and path ([`StorageError::IoAt`]).
//! * Reopening after the fault recovers a state bit-identical to some
//!   acknowledged prefix of the write history (the commit-point
//!   discipline above; swept exhaustively in `engine_recovery.rs`).
//! * [`Engine::scrub`] re-reads and CRC-verifies every file the manifest
//!   references. A corrupt cold segment is moved to `quarantine/` and
//!   **rebuilt from the watermark corpus** — exact, because cold postings
//!   always equal the corpus projection of the tables they own (the
//!   promote invariant). A corrupt checkpoint/delta-chain link heals by
//!   writing a fresh full checkpoint. [`EngineConfig::scrub_every_flushes`]
//!   runs the pass automatically every K flushes.
//! * Unhealable states (rebuild mismatch, heal-write failure, WAL
//!   poisoning) degrade the engine to **read-only**: reads keep serving
//!   from memory, write paths return [`EngineError::Degraded`].
//!
//! Every read goes through an [`EngineSnapshot`]: an owned, immutable view
//! pinning the read-relevant state by `Arc`, cached by [`Engine::snapshot`]
//! until the next mutation. [`Engine::source`] is that snapshot's
//! [`EngineSnapshot::source`], a [`MergedSource`] over which `mate_core`
//! discovery runs unchanged, bit-identical to a single-shot built index at
//! every flush state. Each snapshot owns one memo of resolved merged
//! lists shared by all its sources, so the readers of one snapshot share
//! resolutions and a republished snapshot starts empty. [`EngineLake`] is
//! the concurrent handle: writers behind a write lock publish snapshots;
//! readers clone the published `Arc` and query without any engine lock.
//!
//! # Lock ranks (canonical acquisition order)
//!
//! Every lock in this crate is a [`mate_obs::lockrank`] ranked wrapper
//! (statically enforced by `mate-analyze` rule R4); a thread may only
//! acquire a lock whose rank is strictly greater than every rank it
//! already holds. Debug builds panic on the first violation; release
//! builds pay nothing. The table (constants live in `engine::ranks`):
//!
//! | rank  | name            | lock                                            |
//! |-------|-----------------|-------------------------------------------------|
//! | 10.0  | engine-write    | `EngineLake::engine` (`RankedRwLock<Engine>`)   |
//! | 20.0  | commit-queue    | `EngineLake::commit` group-commit queue + cv    |
//! | 40.0  | memo-slot       | `MemoSlot::current` a snapshot's memo slot      |
//! | 40.1  | source-memo     | the memo of resolved merged lists               |
//! | 50.0  | snapshot-slot   | `EngineLake::published` snapshot slot           |
//! | 55.0  | pager-cache     | `mate_storage::pager::PageCache::inner` page map|
//!
//! Notable legal paths: a lake writer holds `engine-write` while pushing
//! to `commit-queue` (10 → 20); snapshot publication takes
//! `snapshot-slot` only after the engine snapshot was built under
//! `engine-write` (10 → 50). `memo-slot` nests `source-memo` only to read the
//! memo's size when handing it to a new source (40.0 → 40.1).
//! `pager-cache` is always acquired *last*: cold probes fault pages in
//! while holding `source-memo` (`MergedSource::collect_run` holds its
//! read lock across the layer probe), and publishing a snapshot drops the
//! superseded one while holding `snapshot-slot` — evicting its dead
//! layers' pages (50 → 55). A page fill takes no further locks, so the
//! reverse edges never exist.

mod lake;
mod manifest;
mod merged;
mod snapshot;

pub use lake::{EngineLake, LakeReader};
pub use manifest::{Manifest, SegmentMeta};
use merged::MemoSlot;
pub use merged::{MergedSource, SourceCache};
pub use snapshot::EngineSnapshot;

use crate::builder::IndexBuilder;
use crate::cold::ColdPostingStore;
use crate::persist;
use crate::posting::PostingEntry;
use crate::source::PostingSource;
use crate::store::PostingStore;
use crate::superkeys::SuperKeyStore;
use crate::updates::IndexUpdater;
use crate::wal::{self, frame_record, WalRecord};
use bytes::Bytes;
use mate_hash::{HashBits, HashSize, Xash};
use mate_obs::{Counter, Obs};
use mate_storage::manifest::write_file_atomic_vfs;
use mate_storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
use mate_storage::tombstone::{decode_claims, encode_claims, Claim};
use mate_storage::{
    postings, IoCtx as _, Reader, SegmentReader, SegmentWriter, StdVfs, StorageError, Vfs, VfsFile,
    Writer,
};
use mate_table::{Corpus, Table, TableId};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

/// Engine file names inside the directory.
const MANIFEST_FILE: &str = "MANIFEST";

/// Subdirectory corrupt segment files are moved into before a rebuild
/// replaces them (preserved for post-mortem; never scanned by orphan GC).
const QUARANTINE_DIR: &str = "quarantine";

/// Fold the corpus delta chain into a fresh full checkpoint once it grows
/// this long, even if no compaction ran (bounds recovery replay work).
const MAX_DELTA_CHAIN: u64 = 64;

/// Read grain of scrub's verification walk and quarantine copy. Scrub
/// streams whole files sequentially, so it keeps a coarse 64 KiB chunk of
/// its own instead of following the pager's small probe-sized pages.
const SCRUB_CHUNK_BYTES: usize = 64 * 1024;

fn seg_file(id: u64) -> String {
    format!("seg-{id:08}.seg")
}
fn corpus_file(gen: u64) -> String {
    format!("corpus-{gen:08}.seg")
}
fn corpus_delta_file(gen: u64, seq: u64) -> String {
    format!("cdelta-{gen:08}-{seq:08}.seg")
}
fn wal_file(seq: u64) -> String {
    format!("wal-{seq:08}.log")
}

/// The files of the checkpoint chain `(gen, delta_seq)` in replay order:
/// the full checkpoint `corpus-<gen>`, then `cdelta-<gen>-1..=delta_seq`.
fn checkpoint_files(gen: u64, delta_seq: u64) -> impl Iterator<Item = String> {
    std::iter::once(corpus_file(gen)).chain((1..=delta_seq).map(move |s| corpus_delta_file(gen, s)))
}

/// Loads the checkpoint chain `(gen, delta_seq)` through `vfs`: the full
/// checkpoint with every delta folded on top, in order. Each delta
/// carries the full content of its dirty tables — last-wins, so the fold
/// is order-dependent but idempotent per table.
fn load_checkpoint(
    vfs: &dyn Vfs,
    dir: &Path,
    gen: u64,
    delta_seq: u64,
) -> Result<Corpus, StorageError> {
    let mut corpus = persist::load_corpus_vfs(vfs, &dir.join(corpus_file(gen)))?;
    for seq in 1..=delta_seq {
        let payload =
            mate_storage::manifest::load_vfs(vfs, &dir.join(corpus_delta_file(gen, seq)))?;
        persist::apply_corpus_delta(&mut corpus, payload)?;
    }
    Ok(corpus)
}

/// Atomically replaces `MANIFEST`: the commit point of every engine state
/// change. [`Engine::create`] and [`Engine::commit`] are its only callers.
fn save_manifest(vfs: &dyn Vfs, dir: &Path, m: &Manifest) -> Result<(), StorageError> {
    m.save_vfs(vfs, &dir.join(MANIFEST_FILE))
}

/// Lock-rank table of the engine (the canonical acquisition order is in
/// the module docs above). Every lock in this crate is a
/// [`mate_obs::lockrank`] ranked wrapper built from one of these
/// constants, so debug builds panic on the first acquisition that
/// violates the documented order; release builds compile the check away.
pub(crate) mod ranks {
    use mate_obs::lockrank::Rank;

    /// The lake's engine-wide write lock (`EngineLake::engine`).
    pub const ENGINE_WRITE: Rank = Rank::new(10, 0, "engine-write");
    /// The lake's group-commit queue (`EngineLake::commit`).
    pub const COMMIT_QUEUE: Rank = Rank::new(20, 0, "commit-queue");
    /// A snapshot's memo slot (`MemoSlot::current`). Held only to swap a
    /// full memo and hand out the current one.
    pub const MEMO_SLOT: Rank = Rank::new(40, 0, "memo-slot");
    /// A snapshot's memo of resolved merged lists, read under
    /// [`MEMO_SLOT`] for its size.
    pub const SOURCE_MEMO: Rank = Rank::new(40, 1, "source-memo");
    /// The published-snapshot slot (`EngineLake::published`).
    pub const SNAPSHOT_SLOT: Rank = Rank::new(50, 0, "snapshot-slot");
    /// The global page-cache mutex (`PageCache::inner`), defined next to
    /// the cache in `mate_storage::pager` and re-exported here so the
    /// whole acquisition order reads off one table. Highest rank: probes
    /// fault pages in under [`SOURCE_MEMO`], and snapshot publication
    /// evicts a superseded snapshot's pages under [`SNAPSHOT_SLOT`].
    pub const PAGER_CACHE: Rank = mate_storage::pager::PAGER_CACHE_RANK;
}

// Compile-time guard: the pager (defined in another crate) must outrank
// every engine lock, or the fault-in edges documented above would deadlock
// in debug builds.
const _: () = assert!(ranks::PAGER_CACHE.key() > ranks::SNAPSHOT_SLOT.key());

/// Size class of a segment for the tiered policy: factor-4 byte buckets
/// (`⌊log₂ bytes / 2⌋`), so segments within 4× of each other merge
/// together and the output lands roughly one class up.
fn size_class(bytes: usize) -> u32 {
    bytes.max(1).ilog2() / 2
}

/// Tuning knobs of the engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hash size of the super keys (fixed at creation; reopen reads it from
    /// the manifest and validates it against this field).
    pub hash_size: HashSize,
    /// Flush the memtable once its flattened posting store exceeds this
    /// many bytes.
    pub memtable_budget_bytes: usize,
    /// Auto-compact when the cold stack grows beyond this many segments
    /// after a flush (`0` disables auto-compaction).
    pub max_cold_segments: usize,
    /// Size-tiered compaction fanout: merge the oldest `tier_fanout`
    /// segments of a size class once the class holds that many. Values
    /// below 2 disable tiering — auto-compaction falls back to the
    /// full-stack [`Engine::compact`].
    pub tier_fanout: usize,
    /// The filesystem behind every durability-relevant I/O call of the
    /// engine (WAL, segments, checkpoints, manifest, GC). [`StdVfs`] in
    /// production; tests inject a [`mate_storage::FaultVfs`] to exercise
    /// the failure model (see module docs).
    pub vfs: Arc<dyn Vfs>,
    /// Run a [`Engine::scrub`] pass automatically after every this many
    /// flushes (`0`, the default, disables the hook — scrub on demand).
    pub scrub_every_flushes: u64,
    /// Byte budget of the cold tier's shared page cache: segment files are
    /// demand-paged through one [`PageCache`] instead of being resident in
    /// full, so cold-tier memory is bounded by this number no matter how
    /// large the cold stack grows. Small budgets only cost extra `pread`
    /// fills — results are bit-identical at any setting. Per-engine (the
    /// cache is built in [`Engine::create`]/[`Engine::open`] from
    /// [`EngineConfig::vfs`]).
    pub cold_cache_budget_bytes: usize,
    /// The observability hub this engine records into: every engine
    /// counter lives here as an `engine.<name>` registry counter (see
    /// [`EngineStats`]), and maintenance operations (flush, compact,
    /// scrub, recovery, quarantine/rebuild, degrade) emit spans/events when
    /// the hub is enabled. Each `EngineConfig::default()` makes a fresh
    /// hub; share one `Arc` across engines to aggregate.
    pub obs: Arc<Obs>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            hash_size: HashSize::B128,
            memtable_budget_bytes: 32 << 20,
            max_cold_segments: 6,
            tier_fanout: 4,
            vfs: Arc::new(StdVfs),
            scrub_every_flushes: 0,
            cold_cache_budget_bytes: 64 << 20,
            obs: Arc::new(Obs::new()),
        }
    }
}

/// Durability ticket of a buffered (written, not yet fsynced) WAL record:
/// the WAL rotation epoch it was appended to and the byte offset one past
/// its frame. The record is durable once that WAL file is fsynced through
/// `end`, **or** once the engine rotates to a later epoch (rotation folds
/// the whole file into a flushed segment + checkpoint before the manifest
/// flip).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalTicket {
    /// WAL file sequence number (`wal-<seq>.log`) holding the record.
    pub wal_seq: u64,
    /// Offset one past the record's frame within that file.
    pub end: u64,
}

/// Which layer currently owns a table's postings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Owner {
    /// No layer: the table was deleted and its tombstone compacted away.
    None,
    /// The memtable.
    Mem,
    /// Cold segment at this position in the stack.
    Cold(u32),
}

/// Keeps a cold segment's file readable for as long as any layer (engine
/// stack or outstanding [`EngineSnapshot`]) still serves from it.
///
/// Paged stores read the file lazily, so "delete the file at compaction"
/// would pull bytes out from under a snapshot that still probes the old
/// stack. Instead, compaction/rebuild *dooms* the pin; the drop of the
/// last `Arc` holding it evicts the segment's pages from the shared
/// [`PageCache`] and — only if doomed — unlinks the file (best-effort;
/// orphan GC at the next open covers a crash in between).
pub(crate) struct SegmentFilePin {
    vfs: Arc<dyn Vfs>,
    pager: Arc<PageCache>,
    id: u64,
    path: PathBuf,
    doomed: std::sync::atomic::AtomicBool,
}

impl SegmentFilePin {
    fn new(vfs: Arc<dyn Vfs>, pager: Arc<PageCache>, id: u64, path: PathBuf) -> Self {
        SegmentFilePin {
            vfs,
            pager,
            id,
            path,
            doomed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Marks the file for deletion once the last holder drops.
    fn doom(&self) {
        self.doomed
            .store(true, std::sync::atomic::Ordering::Release);
    }
}

impl Drop for SegmentFilePin {
    fn drop(&mut self) {
        self.pager.remove_segment(self.id);
        if self.doomed.load(std::sync::atomic::Ordering::Acquire) {
            let _ = self.vfs.remove_file(&self.path);
        }
    }
}

/// One immutable cold segment loaded for serving. Fully immutable after
/// construction (mutable bookkeeping like per-layer live-posting counts
/// lives in [`Engine::cold_live`]), so layers are shared by reference
/// between the engine and every outstanding [`EngineSnapshot`].
pub(crate) struct ColdLayer {
    /// Segment id (file `seg-<id>.seg`).
    id: u64,
    /// Claimed tables with write-time posting counts, sorted by table id.
    claims: Vec<Claim>,
    /// Demand-paged posting store over the segment file.
    pub(crate) store: ColdPostingStore,
    /// The segment's raw `index.superkeys2` block (carried forward verbatim
    /// by compaction so the newest segment always holds the super keys as
    /// of the WAL watermark). Deep-copied at open so it pins nothing but
    /// itself.
    superkeys_block: Bytes,
    /// Segment file size.
    bytes: usize,
    /// Keeps the backing file alive (and registered with the page cache)
    /// until the last snapshot serving this layer drops.
    pin: Arc<SegmentFilePin>,
}

impl ColdLayer {
    /// Builds the serving layer of segment `id` from its parsed resident
    /// bytes (`file_bytes` long): decodes the claims, stream-validates the
    /// posting blocks — so later paged probes are infallible — and rebinds
    /// them as demand-paged extents of the file, registered with `pager`.
    /// Shared by recovery and the segment writer; the caller drops the
    /// resident buffer afterwards.
    fn open(
        vfs: &Arc<dyn Vfs>,
        pager: &Arc<PageCache>,
        dir: &Path,
        id: u64,
        seg: &SegmentReader,
        file_bytes: usize,
    ) -> Result<Self, StorageError> {
        let path = dir.join(seg_file(id));
        let store = persist::read_cold_store_paged(seg, pager, id)?;
        let claims = decode_claims(&mut Reader::new(seg.block("engine.claims")?))?;
        // Deep copy: a `Bytes` slice would pin the whole segment buffer.
        let superkeys_block = Bytes::from(seg.block("index.superkeys2")?.to_vec());
        pager.register_segment(id, &path);
        Ok(ColdLayer {
            id,
            claims,
            store,
            superkeys_block,
            bytes: file_bytes,
            pin: Arc::new(SegmentFilePin::new(
                Arc::clone(vfs),
                Arc::clone(pager),
                id,
                path,
            )),
        })
    }

    /// Write-time posting count of a claimed table (0 if not claimed).
    fn claim_postings(&self, table: u32) -> u64 {
        self.claims
            .binary_search_by_key(&table, |c| c.0)
            .map(|i| self.claims[i].1)
            .unwrap_or(0)
    }

    /// Whether the layer claims `table` at all (tombstones included —
    /// unlike [`ColdLayer::claim_postings`], which reads 0 for both).
    fn claims_table(&self, table: u32) -> bool {
        self.claims.binary_search_by_key(&table, |c| c.0).is_ok()
    }

    fn meta(&self) -> SegmentMeta {
        let (table_min, table_max) = match (self.claims.first(), self.claims.last()) {
            (Some(f), Some(l)) => (f.0, l.0),
            _ => (0, 0),
        };
        SegmentMeta {
            id: self.id,
            num_values: PostingSource::num_values(&self.store) as u64,
            num_postings: PostingSource::num_postings(&self.store) as u64,
            num_claims: self.claims.len() as u64,
            table_min,
            table_max,
            file_bytes: self.bytes as u64,
        }
    }
}

/// Typed read of an engine's metrics. The first seven fields describe the
/// [`Engine`] or [`EngineSnapshot`] read; each snapshot build also sets
/// them as `engine.<field>` gauges. Every other field is the
/// `engine.<field>` counter of the engine's hub ([`EngineConfig::obs`]),
/// so engines that share one hub read the hub's sum.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Live posting entries in the memtable.
    pub memtable_postings: usize,
    /// Flattened byte size of the memtable posting store.
    pub memtable_bytes: usize,
    /// Cold segments in the stack.
    pub cold_segments: usize,
    /// Total cold segment file bytes.
    pub cold_bytes: usize,
    /// Posting entries still owned by cold segments.
    pub cold_live_postings: usize,
    /// Total live posting entries across all layers.
    pub live_postings: usize,
    /// Tables in the corpus (including deleted placeholders).
    pub tables: usize,
    /// Flushes recorded in the engine's hub.
    pub flushes: u64,
    /// Compactions recorded in the engine's hub.
    pub compactions: u64,
    /// WAL records appended, recorded in the engine's hub.
    pub wal_records: u64,
    /// WAL fsyncs issued, recorded in the engine's hub ([`Engine::apply`]
    /// fsyncs every record, so it tracks `wal_records` there; a deferred
    /// window closed by one [`Engine::sync_wal`] counts once).
    pub wal_syncs: u64,
    /// WAL records replayed at open.
    pub replayed_records: u64,
    /// Full corpus checkpoints recorded in the engine's hub.
    pub checkpoints_written: u64,
    /// Flushes that skipped the corpus checkpoint because the live corpus
    /// was unchanged since the previous checkpoint (postings-only flush).
    pub checkpoints_skipped: u64,
    /// Incremental corpus delta records recorded in the engine's hub
    /// (dirty-table-proportional checkpoints; see module docs).
    pub deltas_written: u64,
    /// Total payload bytes of corpus delta records written.
    pub checkpoint_delta_bytes: u64,
    /// Total payload bytes of full (monolithic) corpus checkpoints
    /// written, including delta folds at compaction.
    pub checkpoint_full_bytes: u64,
    /// Distinct memtable values hashed for super keys, counted when their
    /// memtable is flushed (a value repeated in one memtable counts once).
    pub values_hashed: u64,
    /// Scrub passes recorded in the engine's hub (manual [`Engine::scrub`]
    /// calls plus the [`EngineConfig::scrub_every_flushes`] hook).
    pub scrub_runs: u64,
    /// Corrupt files (segments, checkpoint/delta chain, manifest) scrub
    /// passes found, recorded in the engine's hub.
    pub scrub_corruptions_found: u64,
    /// Corrupt segments moved into `quarantine/` by scrub passes.
    pub segments_quarantined: u64,
    /// Segments rebuilt from the watermark corpus after quarantine.
    pub segments_rebuilt: u64,
    /// Faults a [`mate_storage::FaultVfs`] injected while attached to the
    /// engine's hub (its `vfs.faults_injected` counter; 0 under [`StdVfs`]).
    pub io_errors_injected: u64,
}

/// Declares `Metrics`, the registry handles of the engine's counters (like
/// the pager's): one `engine.<field>` counter per listed [`EngineStats`]
/// field, plus `vfs.faults_injected`, which a [`mate_storage::FaultVfs`]
/// bumps. The hub is the only store of every counter, and `Metrics::stats`
/// is the only read of them. Shared by the engine and its snapshots.
macro_rules! metrics {
    ($($field:ident),* $(,)?) => {
        #[derive(Debug)]
        struct Metrics {
            $($field: Arc<Counter>,)*
            faults_injected: Arc<Counter>,
        }

        impl Metrics {
            fn new(obs: &Obs) -> Self {
                Metrics {
                    $($field: obs.counter(concat!("engine.", stringify!($field))),)*
                    faults_injected: obs.counter("vfs.faults_injected"),
                }
            }

            /// The one constructor of [`EngineStats`]: the hub's counters
            /// plus the structural state of the memtable `mem`, the cold
            /// stack `cold`, the `live_postings` across both, and the
            /// corpus's `tables`.
            fn stats(
                &self,
                mem: &PostingStore,
                cold: &[Arc<ColdLayer>],
                live_postings: usize,
                tables: usize,
            ) -> EngineStats {
                EngineStats {
                    memtable_postings: mem.num_postings(),
                    memtable_bytes: mem.flat_bytes(),
                    cold_segments: cold.len(),
                    cold_bytes: cold.iter().map(|l| l.bytes).sum(),
                    cold_live_postings: live_postings - mem.num_postings(),
                    live_postings,
                    tables,
                    $($field: self.$field.get(),)*
                    io_errors_injected: self.faults_injected.get(),
                }
            }
        }
    };
}

metrics!(
    flushes,
    compactions,
    wal_records,
    wal_syncs,
    replayed_records,
    checkpoints_written,
    checkpoints_skipped,
    deltas_written,
    checkpoint_delta_bytes,
    checkpoint_full_bytes,
    values_hashed,
    scrub_runs,
    scrub_corruptions_found,
    segments_quarantined,
    segments_rebuilt,
);

/// Error type of every fallible engine operation. An alias of
/// [`StorageError`] — the variants the failure model adds are
/// engine-visible through it: [`EngineError::IoAt`] (which file failed,
/// doing what) and [`EngineError::Degraded`] (the engine is read-only; see
/// the failure-model section of the module docs).
pub type EngineError = StorageError;

/// What one [`Engine::scrub`] pass found and repaired.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Cold segments whose files were re-read and CRC-verified.
    pub segments_checked: usize,
    /// Corrupt files found (segments + checkpoint chain + manifest).
    pub corruptions_found: u64,
    /// Corrupt segments preserved under `quarantine/`.
    pub segments_quarantined: u64,
    /// Segments rebuilt bit-identically from the watermark corpus.
    pub segments_rebuilt: u64,
    /// Whether a corrupt checkpoint/delta chain was replaced by a fresh
    /// full checkpoint.
    pub checkpoint_rewritten: bool,
    /// Whether a corrupt manifest was rewritten from the live state.
    pub manifest_rewritten: bool,
}

/// The multi-segment log-structured index engine (see module docs).
///
/// The read-relevant state (corpus, memtable, cold stack) sits
/// behind [`Arc`]s so [`Engine::snapshot`] can capture an immutable
/// point-in-time view in O(layers): writers mutate through
/// `Arc::make_mut`, which copies a structure only while a snapshot still
/// pins it — and the COW substrate is fine-grained (per-table [`Arc`]s
/// inside [`Corpus`] and [`SuperKeyStore`], per-chunk [`Arc`]s inside
/// [`PostingStore`]), so the copy is one table or one 4 KiB-entry chunk,
/// not the lake.
///
/// Every write happens under `&mut Engine`, so none of this state needs a
/// lock: concurrency is [`EngineLake`]'s job (one write lock, lock-free
/// snapshot readers).
pub struct Engine {
    dir: PathBuf,
    config: EngineConfig,
    /// The filesystem every durability-relevant I/O call goes through
    /// (shared with [`EngineConfig::vfs`]).
    vfs: Arc<dyn Vfs>,
    /// The shared page cache every cold layer demand-pages through
    /// (budgeted by [`EngineConfig::cold_cache_budget_bytes`]).
    pager: Arc<PageCache>,
    hasher: Xash,
    hasher_name: String,
    corpus: Arc<Corpus>,
    /// Hot layer: the posting store of every memtable-owned table.
    mem: Arc<PostingStore>,
    /// Hash of each `mem` value id, filled on first use (values that
    /// `promote` interns stay empty until hashed). Cleared with `mem`.
    mem_hashes: Vec<Option<HashBits>>,
    /// The global super-key store (always materialized and current).
    superkeys: Arc<SuperKeyStore>,
    /// Cold segment stack, oldest first.
    cold: Vec<Arc<ColdLayer>>,
    /// Posting entries still *owned* by each cold layer (parallel to
    /// `cold`; shrinks as tables are promoted to the memtable). Kept
    /// outside [`ColdLayer`] so layers stay immutable and shareable.
    cold_live: Vec<usize>,
    /// Table id → owning layer.
    owners: Vec<Owner>,
    /// Cached [`EngineSnapshot`] of the current state; cleared by
    /// [`Engine::invalidate_snapshot`] before any mutation so an engine
    /// with no outstanding readers never pays a copy-on-write.
    snapshot_cache: OnceLock<Arc<EngineSnapshot>>,
    /// Hit/miss counters of the snapshots' memos.
    source_cache: SourceCache,
    wal: Box<dyn VfsFile>,
    /// Set when a failed append could not be rolled back (or an fsync
    /// failed with records buffered): the log tail is torn, so
    /// acknowledging further writes would be a durability lie.
    wal_poisoned: bool,
    /// Set when scrub hit an unhealable state: the engine serves reads
    /// but every write path returns [`EngineError::Degraded`] with this
    /// reason.
    degraded: Option<String>,
    wal_seq: u64,
    /// Tracked byte length of the active WAL file (rollback boundary and
    /// group-commit ticket offsets).
    wal_len: u64,
    /// Records appended since the last fsync (the open group-commit
    /// window; rotation resets it — the rotated file's tail is folded).
    wal_pending: usize,
    /// Tables whose corpus rows changed since the last checkpoint or
    /// delta: the flush checkpoint writes exactly these tables as a delta
    /// record (or skips the checkpoint entirely when empty).
    dirty_tables: BTreeSet<u32>,
    /// Delta records stacked on top of `corpus_gen`'s full checkpoint
    /// (recovery replays `cdelta-<gen>-1..=seq` after loading it).
    corpus_delta_seq: u64,
    /// Bumped whenever the cold stack or cold-table ownership changes
    /// (flush, compaction, promotion, cold tombstone). Feeds only the
    /// readers' snapshot lag ([`EngineSnapshot::source_epoch`]).
    source_epoch: u64,
    corpus_gen: u64,
    next_segment_id: u64,
    /// Flushes since the last automatic scrub: the schedule of
    /// [`EngineConfig::scrub_every_flushes`].
    flushes_since_scrub: u64,
    metrics: Arc<Metrics>,
}

impl Engine {
    // ------------------------------------------------------ construction --

    /// Creates a fresh, empty engine in `dir` (created if missing; existing
    /// engine state in the directory is superseded).
    pub fn create(dir: impl AsRef<Path>, config: EngineConfig) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let vfs = Arc::clone(&config.vfs);
        // Attach before the first I/O so even a fault during creation is
        // mirrored into the hub's events.
        vfs.attach_obs(&config.obs);
        vfs.create_dir_all(&dir)
            .io_ctx("creating engine dir", &dir)?;
        let corpus = Corpus::new();
        write_file_atomic_vfs(
            vfs.as_ref(),
            &dir.join(corpus_file(0)),
            &persist::corpus_to_bytes(&corpus),
        )?;
        write_file_atomic_vfs(vfs.as_ref(), &dir.join(wal_file(0)), &[])?;
        let m = Manifest {
            hash_bits: config.hash_size.bits() as u64,
            hasher_name: "Xash".to_string(),
            corpus_gen: 0,
            corpus_delta_seq: 0,
            wal_seq: 0,
            next_segment_id: 0,
            segments: Vec::new(),
        };
        save_manifest(vfs.as_ref(), &dir, &m)?;
        let engine = Engine::assemble(dir, config, &m, corpus)?;
        engine
            .obs()
            .event("create", format!("{}", engine.dir.display()));
        engine.gc_orphans();
        Ok(engine)
    }

    /// Recovers an engine from `dir`: manifest → cold segment stack
    /// (paged) + super keys from the newest segment + corpus checkpoint,
    /// then WAL tail replay into a fresh memtable. Every acknowledged
    /// (fsynced) mutation survives a kill at any point; a torn WAL tail is
    /// trimmed. A CRC-valid record that does not fit the corpus fails the
    /// open with [`StorageError::InFileAt`] naming the WAL file and the
    /// frame offset.
    pub fn open(dir: impl AsRef<Path>, config: EngineConfig) -> Result<Self, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let vfs = Arc::clone(&config.vfs);
        vfs.attach_obs(&config.obs);
        let obs = Arc::clone(&config.obs);
        let _recovery_span = obs.span("recovery");
        let m = Manifest::load_vfs(vfs.as_ref(), &dir.join(MANIFEST_FILE))?;
        let hash_size =
            HashSize::from_bits(m.hash_bits as usize).ok_or(StorageError::InvalidLength {
                context: "manifest hash size",
                value: m.hash_bits,
            })?;
        if hash_size != config.hash_size {
            return Err(StorageError::InvalidLength {
                context: "engine hash size mismatch",
                value: config.hash_size.bits() as u64,
            });
        }
        let corpus = load_checkpoint(vfs.as_ref(), &dir, m.corpus_gen, m.corpus_delta_seq)?;
        let mut engine = Engine::assemble(dir, config, &m, corpus)?;

        // Replay the WAL tail (everything after the watermark). A read
        // error here must abort the open — this is the one file holding
        // acknowledged-but-unflushed mutations, and recovering without it
        // would silently drop them (and the next flush would then destroy
        // them for good).
        let wal_path = engine.dir.join(wal_file(m.wal_seq));
        let log = vfs.read(&wal_path).io_ctx("reading WAL", &wal_path)?;
        let (records, valid_len) = wal::parse_log(&log);
        let mut at = 0usize;
        let replayed = records.len();
        for rec in records {
            // A CRC-valid frame whose record does not fit the corpus was
            // never written by this engine (appends check first): refuse
            // the open rather than replay it into a panic.
            if let Err(e) = rec.check(&engine.corpus) {
                return Err(StorageError::InFileAt {
                    path: wal_path,
                    offset: at as u64,
                    source: Box::new(e),
                });
            }
            // `parse_log` consumed this frame whole, length header first.
            at += 8 + log
                .get(at..at + 4)
                .map_or(0, |h| u32::from_le_bytes([h[0], h[1], h[2], h[3]]) as usize);
            engine.apply_in_memory(rec);
        }
        engine.metrics.replayed_records.add(replayed as u64);
        if valid_len < log.len() {
            // Trim the torn tail *in place* (`set_len`, never a rewrite:
            // a crash mid-rewrite of a full copy could destroy the
            // acknowledged prefix, a crash mid-truncation cannot), and
            // fsync so the trim itself is durable before new appends.
            wal::trim_torn_tail(vfs.as_ref(), &wal_path, valid_len as u64)?;
            engine.wal = vfs
                .open_append(&wal_path)
                .io_ctx("reopening trimmed WAL", &wal_path)?;
        }
        engine.wal_len = valid_len as u64;
        engine.gc_orphans();
        obs.event(
            "recovery",
            format!(
                "replayed={} segments={} trimmed={}",
                replayed,
                engine.cold.len(),
                log.len() - valid_len
            ),
        );
        Ok(engine)
    }

    /// The one constructor behind [`Engine::create`] and [`Engine::open`]:
    /// opens every segment `m` names as a paged layer over `corpus` (the
    /// checkpoint chain the manifest names), takes the super keys from the
    /// newest segment, resolves ownership, and opens the manifest's WAL for
    /// appends. Replays nothing: `open` replays the WAL into the result.
    fn assemble(
        dir: PathBuf,
        config: EngineConfig,
        m: &Manifest,
        corpus: Corpus,
    ) -> Result<Self, StorageError> {
        let vfs = Arc::clone(&config.vfs);
        let pager = Arc::new(PageCache::new(
            Arc::clone(&vfs),
            DEFAULT_PAGE_SIZE,
            config.cold_cache_budget_bytes,
            &config.obs,
        ));
        let mut superkeys = SuperKeyStore::new(config.hash_size);
        let mut cold = Vec::with_capacity(m.segments.len());
        for (i, sm) in m.segments.iter().enumerate() {
            let seg_path = dir.join(seg_file(sm.id));
            // The whole file is resident only inside this iteration: the
            // layer open validates every stream (so paged probes stay
            // infallible), then the resident buffer is dropped —
            // steady-state cold memory is whatever the page cache holds
            // under its budget.
            let data = Bytes::from(vfs.read(&seg_path).io_ctx("reading segment", &seg_path)?);
            let file_bytes = data.len();
            let seg = SegmentReader::open(data)?;
            let layer = ColdLayer::open(&vfs, &pager, &dir, sm.id, &seg, file_bytes)?;
            if let Some(last) = layer.claims.last() {
                if last.0 as usize >= corpus.len() {
                    return Err(StorageError::InvalidLength {
                        context: "segment claim table id",
                        value: u64::from(last.0),
                    });
                }
            }
            if i + 1 == m.segments.len() {
                // Newest segment: authoritative super keys as of the WAL
                // watermark.
                let (size, _) = persist::read_meta(&seg)?;
                if size != config.hash_size {
                    return Err(StorageError::InvalidLength {
                        context: "segment hash size",
                        value: size.bits() as u64,
                    });
                }
                persist::read_superkeys(&seg, config.hash_size, &mut superkeys)?;
            }
            cold.push(Arc::new(layer));
        }
        if superkeys.num_tables() != corpus.len() {
            return Err(StorageError::InvalidLength {
                context: "superkey/corpus table count",
                value: superkeys.num_tables() as u64,
            });
        }
        let wal_path = dir.join(wal_file(m.wal_seq));
        let wal = vfs
            .open_append(&wal_path)
            .io_ctx("opening WAL", &wal_path)?;
        let mut engine = Engine {
            dir,
            vfs,
            pager,
            hasher: Xash::new(config.hash_size),
            hasher_name: m.hasher_name.clone(),
            owners: vec![Owner::None; corpus.len()],
            corpus: Arc::new(corpus),
            mem: Arc::new(PostingStore::new()),
            mem_hashes: Vec::new(),
            superkeys: Arc::new(superkeys),
            metrics: Arc::new(Metrics::new(&config.obs)),
            source_cache: SourceCache::new(&config.obs),
            config,
            cold,
            cold_live: Vec::new(),
            snapshot_cache: OnceLock::new(),
            wal,
            wal_poisoned: false,
            degraded: None,
            wal_seq: m.wal_seq,
            wal_len: 0,
            wal_pending: 0,
            dirty_tables: BTreeSet::new(),
            corpus_delta_seq: m.corpus_delta_seq,
            source_epoch: 0,
            corpus_gen: m.corpus_gen,
            next_segment_id: m.next_segment_id,
            flushes_since_scrub: 0,
        };
        engine.resolve_owners();
        Ok(engine)
    }

    /// Deletes files in the engine directory that the manifest does not
    /// reference — leftovers of flushes/compactions interrupted before
    /// their manifest flip. Best-effort by design.
    fn gc_orphans(&self) {
        let mut keep: Vec<String> = vec![MANIFEST_FILE.to_string(), wal_file(self.wal_seq)];
        keep.extend(checkpoint_files(self.corpus_gen, self.corpus_delta_seq));
        keep.extend(self.cold.iter().map(|l| seg_file(l.id)));
        let Ok(entries) = self.vfs.read_dir(&self.dir) else {
            return;
        };
        for entry in entries {
            let Some(name) = entry.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let engine_owned = name.starts_with("seg-")
                || name.starts_with("corpus-")
                || name.starts_with("cdelta-")
                || name.starts_with("wal-")
                || name.ends_with(".tmp");
            if engine_owned && !keep.iter().any(|k| k == name) {
                let _ = self.vfs.remove_file(&self.dir.join(name));
            }
        }
    }
    // ----------------------------------------------------------- writing --

    /// Applies one edit durably: WAL append (write-ahead rule) + in-memory
    /// apply, one fsync, then flushes and compacts per the configured
    /// budgets. The record is recoverable from the moment this returns.
    /// Callers that want one fsync to cover several records use
    /// [`Engine::apply_nosync`] + [`Engine::sync_wal`] instead.
    pub fn apply(&mut self, record: WalRecord) -> Result<(), StorageError> {
        self.apply_nosync(record)?;
        self.sync_wal()?;
        self.maybe_flush()?;
        Ok(())
    }

    /// The append half of [`Engine::apply`]: writes the record's WAL frame
    /// (no fsync) and applies it in memory. The returned [`WalTicket`]
    /// says when the record becomes durable; until then a crash may drop
    /// it. Callers own the sync policy — the sequential path closes the
    /// window via [`Engine::sync_wal`], [`EngineLake`] runs a cross-writer
    /// group-commit protocol over the ticket.
    ///
    /// A record that does not fit the corpus ([`WalRecord::check`]) is
    /// refused before its frame is written.
    ///
    /// A failed append is rolled back to the previous record boundary so a
    /// torn frame can never sit *in front of* later acknowledged records
    /// (replay stops at the first bad frame); if even the rollback fails,
    /// the WAL is poisoned and every subsequent append errors rather than
    /// acknowledge writes that recovery would silently drop.
    pub fn apply_nosync(&mut self, record: WalRecord) -> Result<WalTicket, StorageError> {
        if let Some(reason) = &self.degraded {
            return Err(StorageError::Degraded {
                reason: reason.clone(),
            });
        }
        if self.wal_poisoned {
            return Err(StorageError::Degraded {
                reason: "WAL poisoned by an earlier failed append or fsync; reopen the engine"
                    .to_string(),
            });
        }
        // A record that does not fit the corpus would panic in
        // `apply_in_memory` after its frame reached the log, and again on
        // every replay: reject it before anything is written.
        record.check(&self.corpus)?;
        // Drop the engine's own reference to the cached snapshot *before*
        // mutating: outstanding readers keep theirs (and force the
        // copy-on-write), but a reader-less engine mutates in place.
        self.invalidate_snapshot();
        let boundary = self.wal_len;
        let frame = frame_record(&record);
        if let Err(e) = self.wal.write_all(&frame) {
            if self.wal.set_len(boundary).is_err() {
                self.wal_poisoned = true;
            }
            return Err(StorageError::IoAt {
                op: "appending to",
                path: self.dir.join(wal_file(self.wal_seq)),
                source: e,
            });
        }
        self.wal_len = boundary + frame.len() as u64;
        self.wal_pending += 1;
        self.metrics.wal_records.inc();
        self.apply_in_memory(record);
        Ok(WalTicket {
            wal_seq: self.wal_seq,
            end: self.wal_len,
        })
    }

    /// Closes the open group-commit window: one fsync makes every buffered
    /// record durable. No-op when nothing is buffered. An fsync failure
    /// poisons the WAL — the durability of the buffered records is
    /// unknown, and the in-memory state already includes them, so the
    /// engine refuses further appends *and flushes* (a flush would
    /// durably commit writes whose callers were told they failed).
    /// Reopening recovers the last trustworthy on-disk state.
    pub fn sync_wal(&mut self) -> Result<(), StorageError> {
        if self.wal_pending == 0 {
            return Ok(());
        }
        match self.wal.sync_data() {
            Ok(()) => {
                self.metrics.wal_syncs.inc();
                self.wal_pending = 0;
                Ok(())
            }
            Err(e) => {
                self.wal_poisoned = true;
                Err(StorageError::IoAt {
                    op: "fsyncing",
                    path: self.dir.join(wal_file(self.wal_seq)),
                    source: e,
                })
            }
        }
    }

    /// Marks the WAL poisoned (see [`Engine::sync_wal`]) — used by
    /// [`EngineLake`] when a group fsync on its duplicated handle fails.
    pub(crate) fn poison_wal(&mut self) {
        self.wal_poisoned = true;
    }

    /// Flushes if the memtable exceeds its budget, then auto-compacts
    /// once the cold stack exceeds [`EngineConfig::max_cold_segments`]:
    /// the size-tiered policy runs first (when
    /// [`EngineConfig::tier_fanout`] ≥ 2), and if it makes no progress —
    /// every class under-full — the full-stack fold restores the cap, so
    /// the stack stays bounded either way. Returns whether a flush
    /// happened.
    pub fn maybe_flush(&mut self) -> Result<bool, StorageError> {
        if self.mem.flat_bytes() <= self.config.memtable_budget_bytes {
            return Ok(false);
        }
        self.flush()?;
        if self.config.max_cold_segments > 0 && self.cold.len() > self.config.max_cold_segments {
            if self.config.tier_fanout >= 2 {
                self.compact_tiered()?;
            }
            // The cap is a hard bound: when tiering made no (or not
            // enough) progress — classes under-full — the full fold
            // restores it.
            if self.cold.len() > self.config.max_cold_segments {
                self.compact()?;
            }
        }
        // The automatic scrub cadence: re-verify everything the manifest
        // references every K flushes (see module docs' failure model).
        let every = self.config.scrub_every_flushes;
        if every > 0 && self.flushes_since_scrub >= every {
            self.flushes_since_scrub = 0;
            self.scrub()?;
        }
        Ok(true)
    }

    /// Convenience: insert a table durably; returns its id.
    pub fn insert_table(&mut self, table: Table) -> Result<TableId, StorageError> {
        let id = TableId::from(self.corpus.len());
        self.apply(WalRecord::InsertTable { table })?;
        Ok(id)
    }

    /// True if applying `record` to the current corpus would change it.
    /// The one systematically clean case is rewriting a cell with its
    /// existing value (idempotent re-upsert): postings may still move
    /// between layers (promotion), but the checkpoint stays valid — the
    /// flush path uses this to skip the corpus rewrite. Everything
    /// unrecognized is conservatively "changes".
    fn record_changes_corpus(&self, record: &WalRecord) -> bool {
        match record {
            WalRecord::UpdateCell {
                table,
                row,
                col,
                value,
            } => self.corpus.get(*table).is_none_or(|t| {
                t.columns().get(col.index()).and_then(|c| c.get(*row)) != Some(value.as_str())
            }),
            _ => true,
        }
    }

    /// The deterministic in-memory transition (shared by live writes and
    /// WAL replay — determinism here is what makes kill-at-any-point
    /// recovery bit-identical).
    fn apply_in_memory(&mut self, record: WalRecord) {
        if self.record_changes_corpus(&record) {
            // An edit dirties its target; an insert, the id it is about to
            // take.
            let t = record
                .target_table()
                .unwrap_or(TableId::from(self.corpus.len()));
            self.dirty_tables.insert(t.0);
        }
        match record {
            WalRecord::DeleteTable { table }
                if matches!(
                    self.owners.get(table.index()),
                    Some(Owner::Cold(_) | Owner::None)
                ) =>
            {
                // The memtable holds no postings for this table (cold-owned,
                // or compacted away during replay): no need to materialize
                // them just to remove them — tombstone the table directly.
                let t = table;
                if let Owner::Cold(li) = self.owners[t.index()] {
                    let n = self.cold[li as usize].claim_postings(t.0) as usize;
                    self.cold_live[li as usize] -= n;
                    self.source_epoch += 1;
                }
                self.owners[t.index()] = Owner::Mem;
                let name = self.corpus.table(t).name.clone();
                *Arc::make_mut(&mut self.corpus).table_mut(t) = Table::new(name, vec![]);
                Arc::make_mut(&mut self.superkeys).clear_table(t);
            }
            record => {
                if let Some(t) = record.target_table() {
                    self.promote(t);
                }
                record.apply(&mut IndexUpdater::from_parts(
                    Arc::make_mut(&mut self.corpus),
                    Arc::make_mut(&mut self.mem),
                    Arc::make_mut(&mut self.superkeys),
                    self.hasher,
                    Some(&mut self.mem_hashes),
                ));
            }
        }
        // New tables enter owned by the memtable.
        while self.owners.len() < self.corpus.len() {
            self.owners.push(Owner::Mem);
        }
    }

    /// Moves ownership of `t` into the memtable, re-deriving its postings
    /// from the corpus. Exact: a cold layer's postings for a table it owns
    /// are always the corpus projection of that table (any divergence would
    /// require an edit, and every edit promotes first).
    ///
    /// `Owner::None` with a non-empty corpus table happens only during WAL
    /// replay after a compaction dropped the table's masked cold copy (the
    /// live run had already promoted it); the corpus checkpoint still holds
    /// the watermark-time rows, so the same derivation reproduces exactly
    /// the postings the live promotion produced.
    fn promote(&mut self, t: TableId) {
        let from_layer = match self.owners.get(t.index()) {
            Some(Owner::Cold(li)) => Some(*li),
            Some(Owner::None) => None,
            Some(Owner::Mem) => return,
            None => return, // brand-new id; registered after the updater runs
        };
        let table = self.corpus.table(t);
        let store = Arc::make_mut(&mut self.mem);
        for (ci, col) in table.columns().iter().enumerate() {
            for (ri, v) in col.iter().enumerate() {
                if v.is_empty() {
                    continue;
                }
                let vid = store.intern(v);
                store.insert_sorted(vid, PostingEntry::new(t, ci as u32, ri as u32));
            }
        }
        if let Some(li) = from_layer {
            self.cold_live[li as usize] -= self.cold[li as usize].claim_postings(t.0) as usize;
            // Cold runs of this table just went dead: the ownership change
            // moves the epoch that snapshot lag counts.
            self.source_epoch += 1;
        }
        self.owners[t.index()] = Owner::Mem;
    }

    // ------------------------------------------------------------ commit --

    /// The one segment writer: writes `seg-<next_segment_id>.seg` — the
    /// index meta block, the posting blocks of `values` (sorted in place),
    /// `superkeys_block` as `index.superkeys2`, and the `engine.claims`
    /// block — durably through [`write_file_atomic_vfs`], then opens it as
    /// a paged layer. Nothing references the file until a
    /// [`Engine::commit`] publishes the layer; a failure leaves at worst an
    /// orphan for the next open's GC.
    fn write_segment(
        &self,
        values: &mut [(&str, &[PostingEntry])],
        num_tables: usize,
        superkeys_block: Bytes,
        claims: &[Claim],
    ) -> Result<ColdLayer, StorageError> {
        let id = self.next_segment_id;
        let mut sw = SegmentWriter::new();
        sw.add_block(
            "index.meta",
            persist::meta_block(self.hash_size(), &self.hasher_name, num_tables),
        );
        persist::add_posting_blocks(&mut sw, values, postings::DEFAULT_BLOCK_LEN);
        sw.add_block("index.superkeys2", superkeys_block);
        let mut cw = Writer::new();
        encode_claims(claims, &mut cw);
        sw.add_block("engine.claims", cw.finish());
        let bytes = sw.finish();
        write_file_atomic_vfs(self.vfs.as_ref(), &self.dir.join(seg_file(id)), &bytes)?;
        let file_bytes = bytes.len();
        let seg = SegmentReader::open(bytes)?;
        ColdLayer::open(&self.vfs, &self.pager, &self.dir, id, &seg, file_bytes)
    }

    /// Writes `corpus` as the next full checkpoint generation
    /// (`corpus-<gen + 1>`); returns that generation and the payload size.
    fn write_full_checkpoint(&self, corpus: &Corpus) -> Result<(u64, u64), StorageError> {
        let gen = self.corpus_gen + 1;
        let payload = persist::corpus_to_bytes(corpus);
        write_file_atomic_vfs(
            self.vfs.as_ref(),
            &self.dir.join(corpus_file(gen)),
            &payload,
        )?;
        Ok((gen, payload.len() as u64))
    }

    /// The one commit of every on-disk state change — flush, merge,
    /// rebuild, checkpoint heal, and scrub's manifest rewrite. The caller
    /// has done every fallible step already: `cold`'s new layer is durable
    /// and open, the checkpoint chain `(gen, delta_seq)` is durable, and a
    /// rotated `wal` is created and its handle opened. Saving the manifest
    /// is the commit point; if it fails, the engine is unchanged.
    ///
    /// After the flip only an infallible in-memory switch remains: the
    /// stack, checkpoint, and segment-id counter move; a rotated WAL
    /// replaces the active one and, since the flush folded the memtable
    /// into the new layer, the memtable empties and its tables fall to the
    /// new layer's claims; ownership is re-resolved. Then `retired` layers
    /// are doomed (their files go with the last snapshot serving them) and
    /// the superseded WAL and checkpoint files are deleted, best-effort.
    fn commit(
        &mut self,
        cold: Vec<Arc<ColdLayer>>,
        retired: Vec<Arc<ColdLayer>>,
        (gen, delta_seq): (u64, u64),
        wal: Option<(u64, Box<dyn VfsFile>)>,
    ) -> Result<(), StorageError> {
        let m = Manifest {
            hash_bits: self.hash_size().bits() as u64,
            hasher_name: self.hasher_name.clone(),
            corpus_gen: gen,
            corpus_delta_seq: delta_seq,
            wal_seq: wal.as_ref().map_or(self.wal_seq, |(seq, _)| *seq),
            next_segment_id: self.next_segment_id + 1,
            segments: cold.iter().map(|l| l.meta()).collect(),
        };
        save_manifest(self.vfs.as_ref(), &self.dir, &m)?;

        // ---- committed: infallible in-memory switch ---------------------
        self.invalidate_snapshot();
        let mut superseded = Vec::new();
        if let Some((seq, handle)) = wal {
            superseded.push(wal_file(self.wal_seq));
            self.wal = handle;
            self.wal_seq = seq;
            self.wal_len = 0;
            self.wal_pending = 0;
            self.dirty_tables.clear();
            // A fresh store rather than `make_mut` + clear: if a snapshot
            // still pins the old store, `make_mut` would deep-copy it just
            // to throw it away.
            self.mem = Arc::new(PostingStore::new());
            let hashed = self.mem_hashes.iter().filter(|h| h.is_some()).count();
            self.metrics.values_hashed.add(hashed as u64);
            self.mem_hashes.clear();
            for owner in &mut self.owners {
                if *owner == Owner::Mem {
                    *owner = Owner::None;
                }
            }
        }
        if gen != self.corpus_gen {
            // A generation bump supersedes the previous full checkpoint
            // and its whole delta chain.
            superseded.extend(checkpoint_files(self.corpus_gen, self.corpus_delta_seq));
        }
        // The manifest always reserves one id past the counter; the counter
        // itself moves only when this commit publishes the segment written
        // under it (a heal or manifest rewrite writes none).
        if cold.iter().any(|l| l.id == self.next_segment_id) {
            self.next_segment_id += 1;
        }
        self.cold = cold;
        self.corpus_gen = gen;
        self.corpus_delta_seq = delta_seq;
        self.resolve_owners();
        self.source_epoch += 1;
        // Retired layers' files go once the last snapshot still serving
        // them drops its `Arc` (immediately, when nothing pins them).
        // Deleting eagerly would tear pages out from under paged readers
        // of older snapshots.
        for layer in retired {
            layer.pin.doom();
        }
        // Superseded files; ignorable failures (orphan GC covers them).
        for name in superseded {
            let _ = self.vfs.remove_file(&self.dir.join(name));
        }
        Ok(())
    }

    /// Recomputes `owners` and `cold_live` from the claim stack: the newest
    /// cold claim wins, and memtable ownership outranks every cold claim.
    /// A table no layer claims any more (its tombstone was compacted away)
    /// is owned by none.
    fn resolve_owners(&mut self) {
        for owner in &mut self.owners {
            if *owner != Owner::Mem {
                *owner = Owner::None;
            }
        }
        for (li, layer) in self.cold.iter().enumerate() {
            for &(t, _) in &layer.claims {
                let owner = &mut self.owners[t as usize];
                if *owner != Owner::Mem {
                    *owner = Owner::Cold(li as u32);
                }
            }
        }
        self.cold_live = self
            .cold
            .iter()
            .enumerate()
            .map(|(li, layer)| {
                layer
                    .claims
                    .iter()
                    .filter(|(t, _)| self.owners[*t as usize] == Owner::Cold(li as u32))
                    .map(|(_, n)| *n as usize)
                    .sum()
            })
            .collect();
    }

    // ----------------------------------------------------------- flushing --

    /// Flushes the memtable into a new immutable cold segment,
    /// checkpoints the corpus **incrementally** — a `cdelta` record
    /// holding only the tables dirtied since the last checkpoint (skipped
    /// entirely when none changed, folded into a fresh full checkpoint
    /// once the chain hits `MAX_DELTA_CHAIN` or at compaction) — rotates
    /// the WAL, and atomically flips the manifest. Returns `false` when
    /// there was nothing to flush. On error the in-memory engine is
    /// unchanged and still consistent with the on-disk manifest; partial
    /// files are garbage-collected at the next open.
    ///
    /// The store's runs are already table-sorted per value; the segment
    /// writer sorts the values, so segment bytes do not depend on the order
    /// the memtable interned them.
    pub fn flush(&mut self) -> Result<bool, StorageError> {
        self.flush_inner(false)
    }

    /// [`Engine::flush`] with an optional override: `force_full_checkpoint`
    /// writes a fresh monolithic corpus checkpoint even when the dirty set
    /// is empty or the delta chain is short — the scrub path uses it to
    /// replace a corrupt checkpoint/delta chain with a known-good
    /// generation.
    fn flush_inner(&mut self, force_full_checkpoint: bool) -> Result<bool, StorageError> {
        if let Some(reason) = &self.degraded {
            return Err(StorageError::Degraded {
                reason: reason.clone(),
            });
        }
        if self.wal_poisoned {
            // The in-memory state may contain records whose append or
            // fsync *failed* (their callers were told so). Folding it
            // into a segment would durably commit those failed writes —
            // refuse; reopening recovers the trustworthy on-disk state.
            return Err(StorageError::Degraded {
                reason: "WAL poisoned; refusing to flush unacknowledged state — reopen the engine"
                    .to_string(),
            });
        }
        self.invalidate_snapshot();
        if !self.owners.contains(&Owner::Mem) {
            return Ok(false);
        }
        let obs = Arc::clone(&self.config.obs);
        let _span = obs.span("flush");
        let mut values: Vec<(&str, &[PostingEntry])> = self.mem.iter().collect();
        // The new layer claims every memtable-owned table with its live
        // posting count.
        let mut counts = vec![0u64; self.corpus.len()];
        for (_, pl) in &values {
            for e in *pl {
                counts[e.table.index()] += 1;
            }
        }
        let claims: Vec<Claim> = self
            .owners
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Owner::Mem)
            .map(|(t, _)| (t as u32, counts[t]))
            .collect();

        // ---- every fallible step, before the manifest flip ----------------
        let layer = self.write_segment(
            &mut values,
            self.superkeys.num_tables(),
            persist::superkeys_block(&self.superkeys),
            &claims,
        )?;
        // Checkpoint only what changed: nothing (generation and chain
        // kept), a delta record of the dirty tables, or — once the chain
        // is long enough that replay cost would creep (or the scrub path
        // demanded a known-good checkpoint) — a fold into a fresh full
        // checkpoint.
        enum Ckpt {
            Skip,
            Delta(u64),
            Full(u64),
        }
        let dirty: Vec<u32> = self.dirty_tables.iter().copied().collect();
        let (ckpt, checkpoint) = if dirty.is_empty() && !force_full_checkpoint {
            (Ckpt::Skip, (self.corpus_gen, self.corpus_delta_seq))
        } else if !force_full_checkpoint && self.corpus_delta_seq < MAX_DELTA_CHAIN {
            let seq = self.corpus_delta_seq + 1;
            let payload = persist::corpus_delta_to_bytes(&self.corpus, &dirty);
            mate_storage::manifest::save_vfs(
                self.vfs.as_ref(),
                &self.dir.join(corpus_delta_file(self.corpus_gen, seq)),
                &payload,
            )?;
            (Ckpt::Delta(payload.len() as u64), (self.corpus_gen, seq))
        } else {
            let (gen, bytes) = self.write_full_checkpoint(&self.corpus)?;
            (Ckpt::Full(bytes), (gen, 0))
        };
        let wal_seq = self.wal_seq + 1;
        let wal_path = self.dir.join(wal_file(wal_seq));
        write_file_atomic_vfs(self.vfs.as_ref(), &wal_path, &[])?;
        let wal = self
            .vfs
            .open_append(&wal_path)
            .io_ctx("opening rotated WAL", &wal_path)?;
        let mut cold = self.cold.clone();
        cold.push(Arc::new(layer));
        self.commit(cold, Vec::new(), checkpoint, Some((wal_seq, wal)))?;

        match ckpt {
            Ckpt::Skip => self.metrics.checkpoints_skipped.inc(),
            Ckpt::Delta(bytes) => {
                self.metrics.deltas_written.inc();
                self.metrics.checkpoint_delta_bytes.add(bytes);
            }
            Ckpt::Full(bytes) => {
                self.metrics.checkpoints_written.inc();
                self.metrics.checkpoint_full_bytes.add(bytes);
            }
        }
        self.metrics.flushes.inc();
        self.flushes_since_scrub += 1;
        Ok(true)
    }

    // --------------------------------------------------------- compaction --

    /// Merges the entire cold stack into one segment, dropping masked
    /// entries and tombstones. Discovery results are preserved exactly;
    /// the corpus checkpoint and WAL watermark are untouched. Returns the
    /// number of segments merged (0 if the stack has fewer than two).
    pub fn compact(&mut self) -> Result<usize, StorageError> {
        if self.cold.len() < 2 {
            return Ok(0);
        }
        let all: Vec<usize> = (0..self.cold.len()).collect();
        self.merge_segments(&all)?;
        Ok(all.len())
    }

    /// One round-robin of the **size-tiered** policy: while any size class
    /// (factor-4 byte buckets) holds at least [`EngineConfig::tier_fanout`]
    /// segments, merge the oldest `tier_fanout` of that class — smallest
    /// class first, so small flush outputs fold together before anything
    /// large is rewritten. Returns the total number of segments merged.
    ///
    /// Unlike [`Engine::compact`], a tiered merge never rewrites segments
    /// outside the chosen class, so write amplification per flush is
    /// bounded by the class size instead of the whole stack.
    pub fn compact_tiered(&mut self) -> Result<usize, StorageError> {
        let fanout = self.config.tier_fanout.max(2);
        let mut total = 0usize;
        loop {
            // Size class → stack positions, oldest first (stack order).
            let mut classes: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            for (li, l) in self.cold.iter().enumerate() {
                classes.entry(size_class(l.bytes)).or_default().push(li);
            }
            let Some(picks) = classes
                .into_values()
                .find(|ps| ps.len() >= fanout)
                .map(|ps| ps[..fanout].to_vec())
            else {
                break;
            };
            self.merge_segments(&picks)?;
            total += fanout;
        }
        Ok(total)
    }

    /// Merges the cold segments at stack positions `picks` (ascending)
    /// into one segment placed at the position of the **newest** input.
    ///
    /// Correctness of a *partial* merge rests on table-granular ownership:
    /// * Only entries of tables **owned** by a picked layer are carried
    ///   over; dead (masked) copies are dropped. The owner is the newest
    ///   claimant, so every other claimant of a carried table is *older*
    ///   than the owner — placing the output at the newest picked position
    ///   keeps it newer than all of them, and ownership resolution is
    ///   unchanged.
    /// * A tombstone (zero-count claim) owned by a picked layer still
    ///   masks older claims. It is carried into the output while any
    ///   **remaining** segment older than the output claims that table,
    ///   and dropped only when nothing is left to mask (a full-stack merge
    ///   therefore drops every tombstone).
    fn merge_segments(&mut self, picks: &[usize]) -> Result<(), StorageError> {
        debug_assert!(picks.windows(2).all(|w| w[0] < w[1]), "picks ascending");
        // Merging zero segments is a no-op, not a panic: both callers pick
        // non-empty sets today, but an empty pick has an obvious graceful
        // meaning.
        let Some(&out_pos) = picks.last() else {
            return Ok(());
        };
        let obs = Arc::clone(&self.config.obs);
        let _span = obs.span("compact");
        self.invalidate_snapshot();

        // Union of the picked layers' live (owned) postings. A table is
        // owned by one layer, so per-value lists concatenate without
        // duplicates; the sort restores global (table, col, row) order.
        let mut merged: BTreeMap<String, Vec<PostingEntry>> = BTreeMap::new();
        let mut counts = vec![0u64; self.corpus.len()];
        for &li in picks {
            // Read one input at a time (fallible whole-stream reads and
            // decodes become typed errors here, not probe panics); its
            // streams are dropped before the next input loads, so
            // compaction's peak resident overhead is one segment, not the
            // whole pick set.
            let owner = Some(&Owner::Cold(li as u32));
            self.cold[li]
                .store
                .read_view()?
                .decode_each(|value, list| {
                    let kept: Vec<PostingEntry> = list
                        .iter()
                        .copied()
                        .filter(|e| self.owners.get(e.table.index()) == owner)
                        .collect();
                    if !kept.is_empty() {
                        for e in &kept {
                            counts[e.table.index()] += 1;
                        }
                        merged.entry(value.to_string()).or_default().extend(kept);
                    }
                })?;
        }
        for pl in merged.values_mut() {
            pl.sort_unstable();
        }

        // Claims: live posting counts of owned tables, plus retained
        // tombstones (see method docs).
        let mut claims: Vec<Claim> = counts
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(t, n)| (t as u32, *n))
            .collect();
        for &li in picks {
            for &(t, n) in &self.cold[li].claims {
                if n != 0 || self.owners.get(t as usize) != Some(&Owner::Cold(li as u32)) {
                    continue; // live claims collected above; dead claims drop
                }
                let masks_older = self
                    .cold
                    .iter()
                    .enumerate()
                    .any(|(lj, l)| lj < out_pos && !picks.contains(&lj) && l.claims_table(t));
                if masks_older {
                    claims.push((t, 0));
                }
            }
        }
        claims.sort_unstable_by_key(|c| c.0);

        // ---- every fallible step, before the manifest flip ----------------
        let mut values: Vec<(&str, &[PostingEntry])> = merged
            .iter()
            .map(|(v, pl)| (v.as_str(), pl.as_slice()))
            .collect();
        // Super keys carried forward verbatim from the newest input. When
        // the output becomes the newest segment of the stack these are the
        // watermark-time keys recovery must replay from; otherwise only
        // the newest stack segment's block is ever read back.
        let layer = Arc::new(self.write_segment(
            &mut values,
            self.corpus.len(),
            self.cold[out_pos].superkeys_block.clone(),
            &claims,
        )?);
        // Compaction is when the corpus delta chain folds: materialize
        // checkpoint ⊕ deltas **from disk** into a fresh full checkpoint
        // under the next generation. Folding the *live* corpus instead
        // would be wrong — the WAL watermark is unchanged here, so the
        // checkpoint must stay at watermark state (the live corpus already
        // contains post-watermark records that replay will re-apply).
        let folded = if self.corpus_delta_seq == 0 {
            None
        } else {
            Some(self.write_full_checkpoint(&self.load_watermark_corpus()?)?)
        };
        let checkpoint = folded.map_or((self.corpus_gen, self.corpus_delta_seq), |(gen, _)| {
            (gen, 0)
        });
        let mut cold = Vec::with_capacity(self.cold.len() + 1 - picks.len());
        let mut retired = Vec::with_capacity(picks.len());
        for (li, l) in self.cold.iter().enumerate() {
            if !picks.contains(&li) {
                cold.push(Arc::clone(l));
                continue;
            }
            retired.push(Arc::clone(l));
            if li == out_pos {
                cold.push(Arc::clone(&layer));
            }
        }
        self.commit(cold, retired, checkpoint, None)?;

        if let Some((_, bytes)) = folded {
            self.metrics.checkpoints_written.inc();
            self.metrics.checkpoint_full_bytes.add(bytes);
        }
        self.metrics.compactions.inc();
        Ok(())
    }

    /// Loads the on-disk corpus state at the WAL watermark:
    /// `corpus-<gen>` ⊕ `cdelta-<gen>-1..=seq`, read back through the
    /// [`Vfs`]. This is what recovery would reconstruct — *behind* the
    /// live corpus by the unflushed WAL tail — and therefore the base
    /// both checkpoint folds and scrub rebuilds must work from.
    fn load_watermark_corpus(&self) -> Result<Corpus, StorageError> {
        load_checkpoint(
            self.vfs.as_ref(),
            &self.dir,
            self.corpus_gen,
            self.corpus_delta_seq,
        )
    }

    // ----------------------------------------------- scrub / self-healing --

    /// Marks the engine read-only with `reason` and returns the matching
    /// typed error. Every later write path (and scrub itself) refuses with
    /// the same reason; reads keep serving from memory.
    fn degrade(&mut self, reason: String) -> StorageError {
        self.config.obs.event("degraded", reason.clone());
        self.degraded = Some(reason.clone());
        StorageError::Degraded { reason }
    }

    /// Re-reads and fully re-validates every file the manifest references:
    /// the corpus checkpoint ⊕ delta chain, every cold segment (all CRC-
    /// checked blocks, claims drift, hash size), and the manifest frame
    /// itself. Detected corruption self-heals where a known-good source
    /// exists:
    ///
    /// * **cold segment** → the corrupt file is preserved under
    ///   `quarantine/` and the segment is rebuilt from the watermark
    ///   corpus (exact by the promote invariant: cold postings always
    ///   equal the corpus projection of the tables they own);
    /// * **checkpoint / delta chain** → replaced by a fresh full
    ///   checkpoint (forced-full flush when the memtable holds claims;
    ///   direct rewrite otherwise — the live corpus *is* the watermark
    ///   then);
    /// * **manifest** → rewritten from the live in-memory state.
    ///
    /// Unhealable states (rebuild mismatch, heal-write failure) degrade
    /// the engine to read-only and surface as [`EngineError::Degraded`].
    pub fn scrub(&mut self) -> Result<ScrubReport, StorageError> {
        if let Some(reason) = &self.degraded {
            return Err(StorageError::Degraded {
                reason: reason.clone(),
            });
        }
        self.metrics.scrub_runs.inc();
        let obs = Arc::clone(&self.config.obs);
        let _span = obs.span("scrub");
        let mut report = ScrubReport::default();

        // 1. Checkpoint ⊕ delta chain first: segment rebuilds need it as
        //    their known-good source.
        //    A failed read (here and below) is returned as is: it says
        //    nothing about the bytes on disk, so it heals nothing.
        let watermark = match self.load_watermark_corpus() {
            Ok(c) => c,
            Err(e) if e.is_io() => return Err(e),
            Err(_) => {
                report.corruptions_found += 1;
                self.metrics.scrub_corruptions_found.inc();
                self.heal_checkpoint()?;
                report.checkpoint_rewritten = true;
                // The heal moved the watermark (fresh generation; possibly
                // a flush) — reload it for the segment pass below.
                self.load_watermark_corpus()
                    .map_err(|e| self.degrade(format!("checkpoint heal did not verify: {e}")))?
            }
        };

        // 2. Every cold segment file, newest-wins order irrelevant here.
        for li in 0..self.cold.len() {
            report.segments_checked += 1;
            match self.verify_segment(li) {
                Ok(()) => continue,
                Err(e) if e.is_io() => return Err(e),
                Err(_) => {}
            }
            report.corruptions_found += 1;
            self.metrics.scrub_corruptions_found.inc();
            self.quarantine_and_rebuild(li, &watermark)?;
            report.segments_quarantined += 1;
            report.segments_rebuilt += 1;
        }

        // 3. The manifest frame itself (cheap; rebuilds above already
        //    rewrote it as their commit point).
        if let Err(e) = Manifest::load_vfs(self.vfs.as_ref(), &self.dir.join(MANIFEST_FILE)) {
            if e.is_io() {
                return Err(e);
            }
            report.corruptions_found += 1;
            self.metrics.scrub_corruptions_found.inc();
            let checkpoint = (self.corpus_gen, self.corpus_delta_seq);
            self.commit(self.cold.clone(), Vec::new(), checkpoint, None)
                .map_err(|e| self.degrade(format!("manifest rewrite failed: {e}")))?;
            report.manifest_rewritten = true;
        }
        obs.event(
            "scrub_report",
            format!(
                "checked={} corrupt={} rebuilt={}",
                report.segments_checked, report.corruptions_found, report.segments_rebuilt
            ),
        );
        Ok(report)
    }

    /// Full validation of one cold segment's on-disk file, streamed in
    /// [`SCRUB_CHUNK_BYTES`] preads so scrub's resident overhead stays
    /// bounded: every block CRC is re-verified (which is exactly what
    /// detects rot — the file is immutable and its structure was
    /// stream-validated at open),
    /// every block the engine consumes must be present, and the decoded
    /// claims and hash size are cross-checked against the in-memory layer.
    fn verify_segment(&self, li: usize) -> Result<(), StorageError> {
        let layer = &self.cold[li];
        let path = self.dir.join(seg_file(layer.id));
        let blocks = mate_storage::segment::verify_segment_file(
            self.vfs.as_ref(),
            &path,
            SCRUB_CHUNK_BYTES,
            &["index.meta", "engine.claims"],
        )?;
        let block = |name: &str| -> Result<Bytes, StorageError> {
            blocks
                .iter()
                .find(|(n, _)| n == name)
                .and_then(|(_, b)| b.clone())
                .ok_or_else(|| StorageError::MissingBlock(name.to_string()))
        };
        let present = |name: &str| blocks.iter().any(|(n, _)| n == name);
        for required in ["index.superkeys2", "index.values2", "index.postings3"] {
            if !present(required) {
                return Err(StorageError::MissingBlock(required.to_string()));
            }
        }
        let claims = decode_claims(&mut Reader::new(block("engine.claims")?))?;
        if claims != layer.claims {
            return Err(StorageError::ChecksumMismatch {
                block: "engine.claims (drifted from manifest state)".to_string(),
            });
        }
        let mut meta = Reader::new(block("index.meta")?);
        let bits = meta.get_varint()? as usize;
        let size = HashSize::from_bits(bits).ok_or(StorageError::InvalidLength {
            context: "hash size",
            value: bits as u64,
        })?;
        if size != self.hash_size() {
            return Err(StorageError::InvalidLength {
                context: "segment hash size",
                value: size.bits() as u64,
            });
        }
        Ok(())
    }

    /// Replaces a corrupt corpus checkpoint / delta chain with a fresh
    /// full checkpoint. When the memtable holds claims, a forced-full
    /// flush does it (the flush rotation makes the live corpus the new
    /// watermark); when it holds none, the WAL tail is empty — every WAL
    /// record leaves its table memtable-owned until the next flush — so
    /// the live corpus already *is* the watermark and can be written
    /// directly under the next generation.
    fn heal_checkpoint(&mut self) -> Result<(), StorageError> {
        if self.wal_poisoned {
            return Err(self.degrade(
                "corpus checkpoint corrupt and WAL poisoned; no trustworthy source to heal from"
                    .to_string(),
            ));
        }
        if self.owners.contains(&Owner::Mem) {
            return match self.flush_inner(true) {
                Ok(_) => Ok(()),
                Err(e) => Err(self.degrade(format!("checkpoint heal flush failed: {e}"))),
            };
        }
        let (gen, bytes) = self
            .write_full_checkpoint(&self.corpus)
            .map_err(|e| self.degrade(format!("checkpoint heal write failed: {e}")))?;
        self.commit(self.cold.clone(), Vec::new(), (gen, 0), None)
            .map_err(|e| self.degrade(format!("checkpoint heal manifest flip failed: {e}")))?;
        self.metrics.checkpoints_written.inc();
        self.metrics.checkpoint_full_bytes.add(bytes);
        Ok(())
    }

    /// Preserves the corrupt segment at stack position `li` under
    /// `quarantine/` and rebuilds it from the watermark corpus: owned live
    /// claims become the corpus projection of their tables (exact by the
    /// promote invariant — a count mismatch means the invariant is broken
    /// and the engine degrades instead of guessing), owned tombstones are
    /// carried, and claims masked by a *newer cold layer* are dropped
    /// (safe: the newer claimant keeps winning; live memtable promotions
    /// are ignored on purpose — reopen-time ownership comes from the
    /// claim stack plus WAL replay, so the rebuilt file must reproduce
    /// the flushed state, not the live one).
    fn quarantine_and_rebuild(
        &mut self,
        li: usize,
        watermark: &Corpus,
    ) -> Result<(), StorageError> {
        self.invalidate_snapshot();
        let old_id = self.cold[li].id;
        let old_path = self.dir.join(seg_file(old_id));
        self.config.obs.event(
            "quarantine",
            format!("seg={old_id} path={}", old_path.display()),
        );

        // Preserve the corrupt bytes for post-mortem *before* anything
        // else touches disk: a crash anywhere later leaves either the old
        // manifest (still referencing the corrupt file — no worse than
        // before) or the healed state. The copy streams `SCRUB_CHUNK_BYTES` chunks
        // (never the whole file) and is best-effort by design: a partial
        // quarantine copy of an already-corrupt file loses nothing.
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = self.vfs.create_dir_all(&qdir);
        let qpath = qdir.join(seg_file(old_id));
        if let Ok(mut f) = self.vfs.create(&qpath) {
            let chunk = SCRUB_CHUNK_BYTES;
            let mut off = 0u64;
            while let Ok(part) = self.vfs.pread(&old_path, off, chunk) {
                if part.is_empty() || f.write_all(&part).is_err() {
                    break;
                }
                off += part.len() as u64;
                if part.len() < chunk {
                    break;
                }
            }
            let _ = f.sync_all();
        }

        // Watermark-time ownership comes from the claim stack alone: a
        // claim is live when no newer cold layer claims the table (the
        // in-memory `owners` map also reflects live post-watermark
        // promotions, which must not leak into the file).
        let nt = watermark.len();
        let corrupt = Arc::clone(&self.cold[li]);
        let newer = &self.cold[li + 1..];
        let claims: Vec<Claim> = corrupt
            .claims
            .iter()
            .copied()
            .filter(|&(t, _)| (t as usize) < nt && !newer.iter().any(|l| l.claims_table(t)))
            .collect();
        // Postings and super keys come from one single-shot build of the
        // watermark corpus. Only the newest stack segment's super keys are
        // ever read back (recovery), and for it they are exactly the
        // watermark-time store; for older segments the block is dead bytes
        // carried for uniformity. The postings kept are those of the live
        // claimed tables (tombstones carry none).
        let index = IndexBuilder::new(self.hasher).build(watermark);
        let mut keep = vec![false; nt];
        for &(t, n) in &claims {
            keep[t as usize] = n > 0;
        }
        let mut counts = vec![0u64; nt];
        let kept: Vec<(&str, Vec<PostingEntry>)> = index
            .iter_values()
            .filter_map(|(v, pl)| {
                let pl: Vec<PostingEntry> = pl
                    .iter()
                    .copied()
                    .filter(|e| keep[e.table.index()])
                    .collect();
                for e in &pl {
                    counts[e.table.index()] += 1;
                }
                (!pl.is_empty()).then_some((v, pl))
            })
            .collect();
        if let Some(&(t, n)) = claims.iter().find(|&&(t, n)| counts[t as usize] != n) {
            return Err(self.degrade(format!(
                "segment {old_id} rebuild: corpus projection of table {t} has {} \
                 postings but the claim recorded {n}; promote invariant broken",
                counts[t as usize]
            )));
        }

        let mut values: Vec<(&str, &[PostingEntry])> =
            kept.iter().map(|(v, pl)| (*v, pl.as_slice())).collect();
        let layer = self
            .write_segment(
                &mut values,
                nt,
                persist::superkeys_block(index.superkeys()),
                &claims,
            )
            .map_err(|e| self.degrade(format!("segment {old_id} rebuild failed: {e}")))?;
        let seg_id = layer.id;
        // The rebuilt segment takes the corrupt one's stack position
        // (masking order unchanged); the corrupt file goes once its last
        // pin drops (a quarantine copy was preserved above).
        let mut cold = self.cold.clone();
        cold[li] = Arc::new(layer);
        let checkpoint = (self.corpus_gen, self.corpus_delta_seq);
        self.commit(cold, vec![corrupt], checkpoint, None)
            .map_err(|e| {
                self.degrade(format!(
                    "segment {old_id} rebuild manifest flip failed: {e}"
                ))
            })?;
        self.metrics.segments_quarantined.inc();
        self.metrics.segments_rebuilt.inc();
        self.config
            .obs
            .event("rebuild", format!("seg={old_id} rebuilt_as={seg_id}"));
        Ok(())
    }

    // ----------------------------------------------------------- reading --

    /// A merged [`PostingSource`] over every layer: the source of the
    /// current [`Engine::snapshot`]. The borrow prevents mutation while it
    /// lives.
    pub fn source(&self) -> MergedSource<'_> {
        self.current_snapshot().source()
    }

    /// The owner map in [`MergedSource`] layout: table id → layer index
    /// (cold position, `cold.len()` for the memtable, or
    /// [`merged::NO_OWNER`]).
    fn owners_u32(&self) -> Vec<u32> {
        let num_cold = self.cold.len() as u32;
        self.owners
            .iter()
            .map(|o| match o {
                Owner::None => merged::NO_OWNER,
                Owner::Mem => num_cold,
                Owner::Cold(i) => *i,
            })
            .collect()
    }

    /// An immutable point-in-time view of the read-relevant engine state
    /// (corpus, memtable postings, super keys, cold stack, source epoch),
    /// shareable across threads without holding any lock on the engine.
    /// Building one is O(layers + tables) — the payloads are pinned by
    /// reference, not copied; later writes copy-on-write only what they
    /// touch, so the snapshot stays bit-identical to the state it was
    /// taken from for as long as it is held. Building one also sets the
    /// hub's structural `engine.*` gauges and `mem.corpus_bytes` from it.
    ///
    /// The snapshot is cached until the next mutation, so back-to-back
    /// calls between writes return the same `Arc` — and share its memo.
    pub fn snapshot(&self) -> Arc<EngineSnapshot> {
        Arc::clone(self.current_snapshot())
    }

    fn current_snapshot(&self) -> &Arc<EngineSnapshot> {
        self.snapshot_cache.get_or_init(|| {
            let values_hint = self.mem.num_values()
                + self
                    .cold
                    .iter()
                    .map(|l| PostingSource::num_values(&l.store))
                    .sum::<usize>();
            let snapshot = EngineSnapshot {
                corpus: Arc::clone(&self.corpus),
                mem: Arc::clone(&self.mem),
                superkeys: Arc::clone(&self.superkeys),
                cold: self.cold.clone(),
                pager: Arc::clone(&self.pager),
                owners: self.owners_u32(),
                hasher: self.hasher,
                epoch: self.source_epoch,
                num_values_hint: values_hint,
                num_postings: self.live_postings(),
                metrics: Arc::clone(&self.metrics),
                source_cache: self.source_cache.clone(),
                memo: MemoSlot::new(),
            };
            let s = snapshot.stats();
            for (name, v) in [
                ("engine.memtable_postings", s.memtable_postings),
                ("engine.memtable_bytes", s.memtable_bytes),
                ("engine.cold_segments", s.cold_segments),
                ("engine.cold_bytes", s.cold_bytes),
                ("engine.cold_live_postings", s.cold_live_postings),
                ("engine.live_postings", s.live_postings),
                ("engine.tables", s.tables),
                ("mem.corpus_bytes", self.corpus.heap_bytes()),
            ] {
                self.config.obs.gauge(name).set(v as u64);
            }
            Arc::new(snapshot)
        })
    }

    /// Drops the engine's cached snapshot. Every mutation path calls this
    /// *before* touching COW state, so the copy-on-write is paid only when
    /// an outstanding reader still pins the data.
    fn invalidate_snapshot(&mut self) {
        self.snapshot_cache.take();
    }

    /// Structural epoch of the engine: moves on flush, compaction,
    /// promotion, and cold tombstones — exactly the events that change
    /// which cold runs are live.
    pub fn source_epoch(&self) -> u64 {
        self.source_epoch
    }

    /// Sequence number of the active WAL file (the rotation epoch of
    /// [`WalTicket`]s issued now).
    pub fn wal_seq(&self) -> u64 {
        self.wal_seq
    }

    /// Tracked byte length of the active WAL file (every buffered record
    /// ends at or before this offset).
    pub(crate) fn wal_len(&self) -> u64 {
        self.wal_len
    }

    /// A duplicated handle to the active WAL file, for fsyncing outside
    /// the engine's exclusive borrow (the [`EngineLake`] group-commit
    /// leader).
    pub(crate) fn wal_try_clone(&self) -> std::io::Result<Box<dyn VfsFile>> {
        self.wal.try_clone()
    }

    /// Why the engine is read-only, if it is (see the failure-model
    /// section of the module docs). `None` for a healthy engine.
    pub fn degraded_reason(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// The corpus (verification reads candidate tables from here).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The global super-key store (always materialized and current).
    pub fn superkeys(&self) -> &SuperKeyStore {
        &self.superkeys
    }

    /// The row hasher the engine indexes with.
    pub fn hasher(&self) -> Xash {
        self.hasher
    }

    /// Hash size of the super keys.
    pub fn hash_size(&self) -> HashSize {
        self.config.hash_size
    }

    /// The active configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cold segments currently in the stack.
    pub fn num_cold_segments(&self) -> usize {
        self.cold.len()
    }

    /// Serving layers (cold segments + the memtable).
    pub fn num_layers(&self) -> usize {
        self.cold.len() + 1
    }

    /// Exact live posting entries across all layers.
    pub fn live_postings(&self) -> usize {
        self.mem.num_postings() + self.cold_live.iter().sum::<usize>()
    }

    /// The engine's counters and current structural state (see
    /// [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.metrics.stats(
            &self.mem,
            &self.cold,
            self.live_postings(),
            self.corpus.len(),
        )
    }

    /// The observability hub this engine records into (shared with
    /// [`EngineConfig::obs`]).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.config.obs
    }

    /// The shared page cache the cold tier demand-pages through. Its
    /// [`PageCache::stats`] expose the `pager.{hits, misses, evictions,
    /// resident_bytes}` counters (also mirrored into [`Engine::obs`]).
    pub fn pager(&self) -> &Arc<PageCache> {
        &self.pager
    }

    /// Fully decodes the merged posting list of `value` (testing/tooling —
    /// the serving path never materializes whole lists).
    pub fn decoded_postings(&self, value: &str) -> Option<Vec<PostingEntry>> {
        self.current_snapshot().decoded_postings(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use mate_table::{ColId, RowId, TableBuilder};

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mate-engine-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_config(budget: usize) -> EngineConfig {
        EngineConfig {
            memtable_budget_bytes: budget,
            max_cold_segments: 0, // manual compaction in tests
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

    /// The engine's merged view must equal a single-shot index built from
    /// its corpus: same values, same posting sets, same super keys. The
    /// merged virtual list concatenates layers, so cross-table order may
    /// differ from the globally sorted single-shot list — but each table's
    /// run must itself be sorted and contiguous (discovery's contract).
    fn assert_matches_rebuild(engine: &Engine) {
        let fresh = IndexBuilder::new(engine.hasher()).build(engine.corpus());
        assert_eq!(engine.live_postings(), fresh.num_postings(), "postings");
        for (v, pl) in fresh.iter_values() {
            let got = engine.decoded_postings(v).unwrap_or_default();
            let mut tables_seen = Vec::new();
            for run in got.chunk_by(|a, b| a.table == b.table) {
                assert!(
                    run.windows(2).all(|w| w[0] < w[1]),
                    "run of {v:?} not sorted"
                );
                assert!(
                    !tables_seen.contains(&run[0].table),
                    "table {} of {v:?} split across runs",
                    run[0].table
                );
                tables_seen.push(run[0].table);
            }
            let mut sorted = got;
            sorted.sort_unstable();
            assert_eq!(sorted.as_slice(), pl, "posting set of {v:?}");
        }
        for (tid, table) in engine.corpus().iter() {
            for r in 0..table.num_rows() {
                assert_eq!(
                    engine.superkeys().key(tid, RowId::from(r)),
                    fresh.superkey(tid, RowId::from(r)),
                    "superkey {tid}/{r}"
                );
            }
        }
    }

    /// The pager lock must rank strictly above every lock held while it
    /// is acquired: the 40-family probe locks (probes fault pages in
    /// under them) and the snapshot slot (publication drops the
    /// superseded snapshot — and evicts its pages — while holding it).
    /// This is the whole reason the constant is re-exported into the
    /// `ranks` table.
    #[test]
    fn pager_rank_is_the_last_acquired() {
        assert!(ranks::PAGER_CACHE.key() > ranks::MEMO_SLOT.key());
        assert!(ranks::PAGER_CACHE.key() > ranks::SOURCE_MEMO.key());
        assert!(ranks::PAGER_CACHE.key() > ranks::SNAPSHOT_SLOT.key());
    }

    #[test]
    fn create_ingest_flush_reopen() {
        let dir = tmpdir("basic");
        {
            let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
            e.insert_table(people(4, "a")).unwrap();
            e.insert_table(people(3, "b")).unwrap();
            assert_eq!(e.num_cold_segments(), 0);
            assert_matches_rebuild(&e);
            assert!(e.flush().unwrap());
            assert_eq!(e.num_cold_segments(), 1);
            assert_eq!(e.stats().memtable_postings, 0);
            assert_matches_rebuild(&e);
            // Nothing new → flush is a no-op.
            assert!(!e.flush().unwrap());
        }
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.num_cold_segments(), 1);
        assert_eq!(e.corpus().len(), 2);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn budget_triggers_flushes_and_masking_stays_exact() {
        let dir = tmpdir("budget");
        let mut e = Engine::create(&dir, small_config(4096)).unwrap();
        for t in 0..12 {
            e.insert_table(people(10, &format!("t{t}"))).unwrap();
        }
        assert!(e.stats().flushes >= 2, "budget must force flushes");
        assert!(e.num_cold_segments() >= 2);
        assert_matches_rebuild(&e);

        // Edit a cold-owned table: promote + newest-wins masking.
        e.apply(WalRecord::UpdateCell {
            table: TableId(0),
            row: RowId(0),
            col: ColId(0),
            value: "replacement".into(),
        })
        .unwrap();
        assert_matches_rebuild(&e);
        // Delete a row of another cold table.
        e.apply(WalRecord::DeleteRow {
            table: TableId(1),
            row: RowId(2),
        })
        .unwrap();
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn delete_table_tombstones_and_compaction_drops_them() {
        let dir = tmpdir("tombstone");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        for t in 0..4 {
            e.insert_table(people(6, &format!("t{t}"))).unwrap();
            e.flush().unwrap(); // one table per segment
        }
        assert_eq!(e.num_cold_segments(), 4);
        // Tombstone a cold-owned table (fast path: no promotion).
        e.apply(WalRecord::DeleteTable { table: TableId(2) })
            .unwrap();
        assert!(e.decoded_postings("t2-first-0").is_none());
        assert_matches_rebuild(&e);
        e.flush().unwrap();
        assert_eq!(e.num_cold_segments(), 5);
        assert_matches_rebuild(&e);

        let merged = e.compact().unwrap();
        assert_eq!(merged, 5);
        assert_eq!(e.num_cold_segments(), 1);
        assert_matches_rebuild(&e);
        // The tombstone itself is gone from the compacted claims.
        assert!(e.cold[0].claims.iter().all(|c| c.1 > 0));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recovery_replays_wal_tail() {
        let dir = tmpdir("replay");
        {
            let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
            e.insert_table(people(5, "a")).unwrap();
            e.flush().unwrap();
            // Post-flush edits live only in the WAL.
            e.apply(WalRecord::InsertRow {
                table: TableId(0),
                cells: vec!["grace".into(), "hopper".into()],
            })
            .unwrap();
            e.insert_table(people(2, "late")).unwrap();
            // Dropped without flush: crash-equivalent.
        }
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.stats().replayed_records, 2);
        assert_eq!(e.corpus().len(), 2);
        assert_eq!(e.corpus().table(TableId(0)).num_rows(), 6);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_wal_tail_trimmed_and_engine_continues() {
        let dir = tmpdir("torn");
        {
            let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
            e.insert_table(people(5, "a")).unwrap();
            e.apply(WalRecord::InsertRow {
                table: TableId(0),
                cells: vec!["x".into(), "y".into()],
            })
            .unwrap();
        }
        // Crash mid-append: chop bytes off the active WAL.
        let wal_path = dir.join(wal_file(0));
        let log = std::fs::read(&wal_path).unwrap();
        std::fs::write(&wal_path, &log[..log.len() - 3]).unwrap();

        let mut e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.corpus().table(TableId(0)).num_rows(), 5, "torn row gone");
        assert_matches_rebuild(&e);
        e.apply(WalRecord::InsertRow {
            table: TableId(0),
            cells: vec!["k".into(), "g".into()],
        })
        .unwrap();
        drop(e);
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.corpus().table(TableId(0)).num_rows(), 6);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn crash_between_segment_write_and_manifest_flip_recovers_cleanly() {
        let dir = tmpdir("orphan");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        e.insert_table(people(5, "a")).unwrap();
        // Simulate the torn flush: the segment file exists but the manifest
        // was never flipped (write it by hand, bypassing flush()).
        std::fs::write(dir.join(seg_file(99)), b"half a segment").unwrap();
        std::fs::write(dir.join(corpus_file(9)), b"half a corpus").unwrap();
        std::fs::write(dir.join("MANIFEST.tmp"), b"half a manifest").unwrap();
        drop(e);
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_matches_rebuild(&e);
        // Orphans are gone.
        assert!(!dir.join(seg_file(99)).exists());
        assert!(!dir.join(corpus_file(9)).exists());
        assert!(!dir.join("MANIFEST.tmp").exists());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn replay_after_compaction_rederives_dropped_cold_copies() {
        // Regression: a post-watermark edit promotes a cold-owned table;
        // compaction then drops the masked cold copy. Recovery replays the
        // edit against a stack where the table is owned by *no* layer — the
        // promotion must re-derive its postings from the corpus checkpoint
        // instead of assuming a layer holds them.
        let dir = tmpdir("replay-compact");
        {
            let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
            e.insert_table(people(5, "a")).unwrap();
            e.insert_table(people(5, "b")).unwrap();
            e.flush().unwrap();
            e.insert_table(people(5, "c")).unwrap();
            e.flush().unwrap();
            // Post-watermark edits on cold-owned tables (one promote-and-
            // mutate, one tombstone), then compact. No flush afterwards.
            e.apply(WalRecord::UpdateCell {
                table: TableId(0),
                row: RowId(1),
                col: ColId(0),
                value: "patched".into(),
            })
            .unwrap();
            e.apply(WalRecord::DeleteTable { table: TableId(1) })
                .unwrap();
            e.compact().unwrap();
            assert_matches_rebuild(&e);
        }
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.stats().replayed_records, 2);
        assert!(e.decoded_postings("patched").is_some());
        assert!(e.decoded_postings("b-first-0").is_none(), "tombstoned");
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn wrong_hash_size_rejected_at_open() {
        let dir = tmpdir("hashsize");
        Engine::create(&dir, small_config(1 << 30)).unwrap();
        let wrong = EngineConfig {
            hash_size: HashSize::B256,
            ..small_config(1 << 30)
        };
        assert!(Engine::open(&dir, wrong).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn group_commit_amortizes_fsyncs_and_recovers() {
        let dir = tmpdir("group");
        let cfg = small_config(1 << 30);
        {
            let mut e = Engine::create(&dir, cfg.clone()).unwrap();
            for i in 0..10 {
                e.apply_nosync(WalRecord::InsertTable {
                    table: people(2, &format!("g{i}")),
                })
                .unwrap();
                // Close a window after every 4th record.
                if i % 4 == 3 {
                    e.sync_wal().unwrap();
                }
            }
            assert_eq!(e.stats().wal_records, 10);
            assert_eq!(e.stats().wal_syncs, 2, "records 4 and 8 closed windows");
            // The sync path closes the open window on demand.
            e.sync_wal().unwrap();
            assert_eq!(e.stats().wal_syncs, 3);
            e.sync_wal().unwrap();
            assert_eq!(e.stats().wal_syncs, 3, "empty window is a no-op");
        }
        // Everything was synced → everything replays.
        let e = Engine::open(&dir, cfg).unwrap();
        assert_eq!(e.stats().replayed_records, 10);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn default_config_fsyncs_every_record() {
        let dir = tmpdir("sync-each");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        for i in 0..3 {
            e.insert_table(people(2, &format!("s{i}"))).unwrap();
        }
        assert_eq!(e.stats().wal_syncs, 3);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn flush_checkpoints_are_dirty_table_proportional() {
        let dir = tmpdir("ckpt-delta");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        for i in 0..8 {
            e.insert_table(people(4, &format!("t{i}"))).unwrap();
        }
        assert!(e.flush().unwrap());
        assert_eq!(e.stats().deltas_written, 1);
        assert_eq!(e.stats().checkpoints_written, 0, "no monolithic rewrite");
        let first_delta = e.stats().checkpoint_delta_bytes;
        assert!(first_delta > 0);

        // Touch one of the eight tables: the next delta carries only that
        // table — checkpoint bytes proportional to the dirty set, not the
        // corpus.
        e.apply(WalRecord::UpdateCell {
            table: TableId(0),
            row: RowId(0),
            col: ColId(0),
            value: "changed".into(),
        })
        .unwrap();
        assert!(e.stats().memtable_postings > 0, "promotion filled memtable");
        assert!(e.flush().unwrap());
        assert_eq!(e.stats().deltas_written, 2);
        let second_delta = e.stats().checkpoint_delta_bytes - first_delta;
        assert!(
            second_delta * 4 < first_delta,
            "1-of-8-dirty delta should be proportionally small: {second_delta}B vs {first_delta}B"
        );
        // The base generation is untouched; the chain sits beside it.
        assert!(dir.join(corpus_file(0)).exists());
        assert!(dir.join(corpus_delta_file(0, 1)).exists());
        assert!(dir.join(corpus_delta_file(0, 2)).exists());
        assert_matches_rebuild(&e);

        // Recovery folds checkpoint ⊕ delta chain ⊕ WAL tail exactly.
        drop(e);
        let mut e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_matches_rebuild(&e);

        // Compaction folds the chain into a fresh monolithic generation.
        assert!(e.compact().unwrap() >= 1);
        assert_eq!(e.stats().checkpoints_written, 1, "fold wrote one full gen");
        assert!(e.stats().checkpoint_full_bytes > 0);
        assert!(dir.join(corpus_file(1)).exists());
        assert!(!dir.join(corpus_file(0)).exists(), "superseded gen removed");
        assert!(!dir.join(corpus_delta_file(0, 1)).exists(), "chain folded");
        assert!(!dir.join(corpus_delta_file(0, 2)).exists(), "chain folded");
        assert_matches_rebuild(&e);

        // And recovery from the folded generation still reproduces state.
        drop(e);
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tiered_compaction_merges_oldest_of_a_class() {
        let dir = tmpdir("tiered");
        let cfg = EngineConfig {
            tier_fanout: 3,
            ..small_config(1 << 30)
        };
        let mut e = Engine::create(&dir, cfg.clone()).unwrap();
        // Three small segments (one class) + two large ones (another).
        for t in 0..3 {
            e.insert_table(people(6, &format!("t{t}"))).unwrap();
            e.flush().unwrap();
        }
        for t in 3..5 {
            e.insert_table(people(300, &format!("t{t}"))).unwrap();
            e.flush().unwrap();
        }
        assert_eq!(e.num_cold_segments(), 5);
        let small = size_class(e.cold[0].bytes);
        assert!(
            e.cold[..3].iter().all(|l| size_class(l.bytes) == small),
            "small segments share a class"
        );
        assert!(
            e.cold[3..].iter().all(|l| size_class(l.bytes) > small),
            "large segments sit in a higher class"
        );
        let large_ids: Vec<u64> = e.cold[3..].iter().map(|l| l.id).collect();
        let merged = e.compact_tiered().unwrap();
        assert_eq!(merged, 3, "one merge of the oldest 3 (the small class)");
        assert_eq!(e.num_cold_segments(), 3, "output + the 2 untouched large");
        // The output replaced the newest picked position: it is the oldest
        // remaining layer and owns the three merged tables; the large
        // segments were not rewritten.
        assert_eq!(
            e.cold[0].claims.iter().map(|c| c.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(
            e.cold[1..].iter().map(|l| l.id).collect::<Vec<_>>(),
            large_ids,
            "write amplification bounded to the merged class"
        );
        assert_matches_rebuild(&e);
        drop(e);
        let e = Engine::open(&dir, cfg).unwrap();
        assert_eq!(e.num_cold_segments(), 3);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tiered_merge_retains_masking_tombstones() {
        let dir = tmpdir("tier-tomb");
        let cfg = small_config(1 << 30);
        let mut e = Engine::create(&dir, cfg.clone()).unwrap();
        e.insert_table(people(6, "a")).unwrap();
        e.flush().unwrap(); // seg @0: claims table 0 (live)
        e.insert_table(people(6, "b")).unwrap();
        e.flush().unwrap(); // seg @1: claims table 1
        e.apply(WalRecord::DeleteTable { table: TableId(0) })
            .unwrap();
        e.insert_table(people(6, "c")).unwrap();
        e.flush().unwrap(); // seg @2: tombstone of table 0 + table 2
        assert_eq!(e.num_cold_segments(), 3);
        assert!(e.decoded_postings("a-first-0").is_none());

        // Merge the two NEWEST segments. The oldest remains and still
        // claims table 0, so the tombstone must be carried forward.
        e.merge_segments(&[1, 2]).unwrap();
        assert_eq!(e.num_cold_segments(), 2);
        assert!(
            e.cold[1].claims.contains(&(0, 0)),
            "tombstone retained while an older claimant remains"
        );
        assert!(e.decoded_postings("a-first-0").is_none(), "stays dead");
        assert_matches_rebuild(&e);

        // Recovery resolves ownership the same way — no resurrection.
        drop(e);
        let mut e = Engine::open(&dir, cfg).unwrap();
        assert!(e.decoded_postings("a-first-0").is_none());
        assert_matches_rebuild(&e);

        // The full fold has nothing older left to mask: tombstone dropped.
        e.compact().unwrap();
        assert!(e.cold[0].claims.iter().all(|c| c.1 > 0));
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn poisoned_wal_refuses_appends_and_flushes() {
        let dir = tmpdir("poison");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        e.insert_table(people(3, "a")).unwrap();
        e.poison_wal();
        // Nothing may durably commit the possibly-unacknowledged memory
        // state: appends and flushes both refuse until a reopen.
        assert!(e
            .apply(WalRecord::DeleteTable { table: TableId(0) })
            .is_err());
        assert!(e.flush().is_err());
        drop(e);
        // Reopen recovers the acknowledged (fsynced) state.
        let e = Engine::open(&dir, small_config(1 << 30)).unwrap();
        assert_eq!(e.corpus().len(), 1);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn auto_tiered_compaction_triggers_past_max_segments() {
        let dir = tmpdir("auto-tier");
        let cfg = EngineConfig {
            memtable_budget_bytes: 2048,
            max_cold_segments: 2,
            tier_fanout: 2,
            ..EngineConfig::default()
        };
        let mut e = Engine::create(&dir, cfg.clone()).unwrap();
        for t in 0..10 {
            e.insert_table(people(8, &format!("t{t}"))).unwrap();
        }
        assert!(e.stats().flushes >= 3, "budget must force flushes");
        assert!(e.stats().compactions >= 1, "tiering must have kicked in");
        assert_matches_rebuild(&e);
        drop(e);
        let e = Engine::open(&dir, cfg).unwrap();
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    /// `engine.values_hashed` counts the distinct values a memtable hashed:
    /// re-inserting a table whose values are already in the memtable
    /// hashes none of them again.
    #[test]
    fn values_hashed_counts_each_memtable_value_once() {
        let dir = tmpdir("values-hashed");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        e.insert_table(people(4, "a")).unwrap();
        e.flush().unwrap();
        // Four distinct first names and three `shared-*` last names.
        assert_eq!(e.stats().values_hashed, 7);
        e.insert_table(people(4, "a")).unwrap();
        e.insert_table(people(4, "a")).unwrap();
        e.flush().unwrap();
        assert_eq!(e.stats().values_hashed, 14, "the re-insert hashed again");
        assert_eq!(e.obs().counter("engine.values_hashed").get(), 14);
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }

    /// One store interns a value once, whatever tables share it: a second
    /// table repeating a 4 KiB cell grows the flush-budget metric by its
    /// posting entries and bookkeeping, not by another copy of the text.
    #[test]
    fn memtable_budget_counts_a_shared_value_once() {
        let dir = tmpdir("shared-value");
        let mut e = Engine::create(&dir, small_config(1 << 30)).unwrap();
        let big = "v".repeat(4096);
        let table = |name: &str| TableBuilder::new(name, ["c"]).row([big.as_str()]).build();
        e.insert_table(table("t0")).unwrap();
        let before = e.stats().memtable_bytes;
        e.insert_table(table("t1")).unwrap();
        let grown = e.stats().memtable_bytes - before;
        assert!(
            grown < 4096,
            "shared value counted again: grew {grown} bytes"
        );
        assert_matches_rebuild(&e);
        std::fs::remove_dir_all(dir).ok();
    }
}
