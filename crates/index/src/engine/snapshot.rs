//! [`EngineSnapshot`]: an owned, immutable point-in-time view of an
//! [`Engine`](super::Engine) — the unit of Arc-snapshot serving.
//!
//! A snapshot pins everything a discovery query reads:
//!
//! * the **corpus** (per-table `Arc` spine — verification re-reads cell
//!   values from here),
//! * the **memtable** posting store and the global **super-key** store,
//! * the **cold segment stack** (each layer an `Arc`d zero-copy store),
//! * the owner map and the **source epoch**.
//!
//! Nothing of that state is behind a lock and none of it ever mutates:
//! writers replace the engine's `Arc`s (copy-on-write) instead of editing
//! shared data in place, so a query running over a snapshot is immune to
//! concurrent flushes, compactions, and ingest — and, symmetrically, never
//! delays them. Memory of superseded state (an old memtable store, a
//! compacted-away segment, a pre-edit table payload) is released when the
//! last snapshot pinning it drops. The one thing a snapshot adds is the
//! memo of resolved merged lists that every [`EngineSnapshot::source`]
//! shares (see [`MergedSource`]): the snapshot never changes, so neither
//! does a resolution made over it.
//!
//! Obtain one from [`Engine::snapshot`](super::Engine::snapshot) or, on the
//! concurrent handle, [`EngineLake::reader`](super::EngineLake::reader).

use super::merged::MemoSlot;
use super::{ColdLayer, EngineStats, MergedSource, Metrics, SourceCache};
use crate::posting::PostingEntry;
use crate::source::{PostingSource, ProbeCounters, ProbeScratch};
use crate::store::PostingStore;
use crate::superkeys::SuperKeyStore;
use mate_hash::{HashSize, RowHasher, Xash};
use mate_table::Corpus;
use std::sync::Arc;

/// An immutable view of the read-relevant engine state (see module docs).
/// Cheap to clone through its `Arc`; safe to move across threads and to
/// outlive the engine itself.
pub struct EngineSnapshot {
    pub(super) corpus: Arc<Corpus>,
    /// The memtable store, pinned by refcount (layer `cold.len()` in
    /// [`MergedSource`] layout).
    pub(super) mem: Arc<PostingStore>,
    pub(super) superkeys: Arc<SuperKeyStore>,
    pub(super) cold: Vec<Arc<ColdLayer>>,
    /// The engine's shared page cache (cold layers in `cold` read through
    /// it; holding it here keeps pager stats reachable from any reader).
    pub(super) pager: Arc<mate_storage::pager::PageCache>,
    /// Table id → serving layer in [`MergedSource`] layout.
    pub(super) owners: Vec<u32>,
    pub(super) hasher: Xash,
    /// [`Engine::source_epoch`](super::Engine::source_epoch) at snapshot
    /// time.
    pub(super) epoch: u64,
    pub(super) num_values_hint: usize,
    pub(super) num_postings: usize,
    /// The engine's registry handles, read by [`EngineSnapshot::stats`].
    pub(super) metrics: Arc<Metrics>,
    /// The engine's memo hit/miss counters.
    pub(super) source_cache: SourceCache,
    /// The memo every source built from this snapshot shares.
    pub(super) memo: MemoSlot,
}

impl std::fmt::Debug for EngineSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineSnapshot")
            .field("epoch", &self.epoch)
            .field("tables", &self.corpus.len())
            .field("cold_segments", &self.cold.len())
            .field("num_postings", &self.num_postings)
            .finish_non_exhaustive()
    }
}

impl EngineSnapshot {
    /// The corpus as of snapshot time (verification reads candidate tables
    /// from here).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The global super-key store as of snapshot time.
    pub fn superkeys(&self) -> &SuperKeyStore {
        &self.superkeys
    }

    /// The row hasher the engine indexes with.
    pub fn hasher(&self) -> Xash {
        self.hasher
    }

    /// Hash size of the super keys.
    pub fn hash_size(&self) -> HashSize {
        self.hasher.hash_size()
    }

    /// Cold segments in the snapshot's stack.
    pub fn num_cold_segments(&self) -> usize {
        self.cold.len()
    }

    /// Serving layers (cold segments + the memtable).
    pub fn num_layers(&self) -> usize {
        self.cold.len() + 1
    }

    /// Exact live posting entries across all layers at snapshot time.
    pub fn live_postings(&self) -> usize {
        self.num_postings
    }

    /// The engine's source epoch at snapshot time. Comparing two snapshots'
    /// epochs says whether the cold stack / ownership changed between them
    /// (every flush, compaction, promotion, and cold tombstone bumps it).
    pub fn source_epoch(&self) -> u64 {
        self.epoch
    }

    /// The engine's counters as of now, with the structural fields of the
    /// state this snapshot pins (see [`EngineStats`]).
    pub fn stats(&self) -> EngineStats {
        self.metrics
            .stats(&self.mem, &self.cold, self.num_postings, self.corpus.len())
    }

    /// Live counters of the shared page cache the snapshot's cold layers
    /// read through. The cache is shared with the engine and other
    /// snapshots, so hits/misses keep moving; readers diff two calls to
    /// attribute paging activity to a query.
    pub fn pager_stats(&self) -> mate_storage::pager::PagerStats {
        self.pager.stats()
    }

    /// Hit/miss counters of the memos the snapshot's sources resolve
    /// through (shared with the engine and all its snapshots).
    pub fn source_cache(&self) -> &SourceCache {
        &self.source_cache
    }

    /// A merged [`PostingSource`] over the snapshot's layers, resolving
    /// through the snapshot's memo: every source built from one snapshot
    /// shares its resolutions, and results are stable no matter what the
    /// engine does meanwhile.
    pub fn source(&self) -> MergedSource<'_> {
        let layers = self
            .cold
            .iter()
            .map(|l| &l.store as &dyn PostingSource)
            .chain(std::iter::once(self.mem.as_ref() as &dyn PostingSource))
            .collect();
        MergedSource::new(
            layers,
            &self.owners,
            self.num_values_hint,
            self.num_postings,
            self.memo.get(),
            &self.source_cache,
        )
    }

    /// Fully decodes the merged posting list of `value` (testing/tooling —
    /// the serving path never materializes whole lists).
    pub fn decoded_postings(&self, value: &str) -> Option<Vec<PostingEntry>> {
        let source = self.source();
        let mut scratch = ProbeScratch::new();
        let handle = source.find_list(value, &mut scratch)?;
        let mut out = Vec::with_capacity(handle.len as usize);
        let mut counters = ProbeCounters::default();
        source.collect_run(handle, 0, handle.len, &mut scratch, &mut out, &mut counters);
        Some(out)
    }
}
