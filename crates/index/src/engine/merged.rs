//! [`MergedSource`]: one [`PostingSource`] over the memtable and every cold
//! segment, with newest-wins masking.
//!
//! Each layer of the engine (cold segments oldest → newest, then the
//! memtable) serves its own posting lists; a table's entries are live in
//! exactly **one** layer — its *owner*, the newest layer that claims it
//! (see [`crate::engine`]). `MergedSource` presents the union as a single
//! virtual posting list per value:
//!
//! * a probe resolves the value in every layer, decodes only the table-id
//!   runs (cold layers never touch column/row payloads here), and keeps the
//!   runs whose table is owned by that layer;
//! * the kept runs are concatenated layer by layer into one virtual list.
//!   A table is owned by a single layer and lists are table-sorted within a
//!   layer, so each `(value, table)` pair contributes exactly one
//!   contiguous run — the same shape a single-shot index would produce,
//!   which is why discovery over the merged view is bit-identical;
//! * `collect_run` maps virtual positions back to the owning layer and
//!   decodes only there.
//!
//! Resolved lists are memoized in the [`Memo`] of the
//! [`EngineSnapshot`](crate::engine::EngineSnapshot) the source was built
//! from, shared by every source built from that snapshot. A snapshot never
//! changes, so a resolution stays valid for the snapshot's whole life: the
//! repeated probes of one query, and every query served by one published
//! snapshot, pay the multi-layer walk once per distinct value, and a
//! republished snapshot simply starts with an empty memo. The memo is
//! behind an `RwLock`; parallel discovery workers only ever take the read
//! path for values already resolved.
//!
//! Cold layers opened paged fault their bytes in through the engine's
//! shared [`PageCache`](mate_storage::pager::PageCache) *during* these
//! probes — i.e. while this module holds the `source-memo` lock. That is
//! why the pager's lock ranks strictly above it (see the rank table in
//! [`crate::engine`]): the fault-in path acquires it last, and a page fill
//! takes no further locks.
//!
//! A `MergedSource` borrows its snapshot, so the layers it reads stay
//! pinned for its whole lifetime.

use super::ranks;
use crate::posting::PostingEntry;
use crate::source::{ListHandle, PostingSource, ProbeCounters, ProbeScratch};
use mate_hash::fx::FxHashMap;
use mate_obs::lockrank::{RankedMutex, RankedRwLock};
use mate_obs::{Counter, Obs};
use std::sync::Arc;

// Lock poisoning note: the ranked locks in this module recover poisoned
// guards (the `lockrank` wrappers always do). That is sound here because
// the memo is *memoization* state: every entry is re-derivable from the
// immutable layers, and the two-step fill (push a list, then insert the
// value pointing at it) leaves at worst an orphaned list behind a panic —
// never a dangling reference. Propagating the poison would turn one
// panicking query thread into a panic in every later query.

/// Owner value meaning "no layer owns this table" (deleted and compacted
/// away).
pub(crate) const NO_OWNER: u32 = u32::MAX;

/// Hit/miss counters of the snapshot memos: registry counters
/// `source_cache.hits` / `source_cache.misses` on the engine's
/// [`Obs`](mate_obs::Obs), shared by every snapshot of the engine.
///
/// A hit is a [`MergedSource::find_list`](PostingSource::find_list)
/// answered by the serving snapshot's memo (repeats within one query
/// included); a miss walked the layers and filled the memo.
#[derive(Debug, Clone)]
pub struct SourceCache {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
}

impl SourceCache {
    /// The counters registered on `obs`.
    pub(crate) fn new(obs: &Obs) -> Self {
        SourceCache {
            hits: obs.counter("source_cache.hits"),
            misses: obs.counter("source_cache.misses"),
        }
    }

    /// Probes answered from a snapshot memo.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Probes that had to walk the layers (and filled the memo).
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }
}

/// Cap on distinct values per memo (see [`MemoSlot::get`]). Entries cost
/// roughly a value string + a few runs/handles each; the cap keeps
/// worst-case memo memory in the low hundreds of MB.
const MAX_MEMO_VALUES: usize = 1 << 20;

/// One contiguous piece of a virtual posting list, served by one layer.
#[derive(Debug, Clone, Copy)]
struct MergedRun {
    /// Table id of every entry in the run.
    table: u32,
    /// Layer index into [`MergedSource::layers`].
    layer: u32,
    /// Start position within the layer's (unfiltered) list.
    layer_start: u32,
    /// Entries in the run.
    len: u32,
    /// Start position within the virtual merged list.
    virt_start: u32,
}

/// A resolved virtual list: per-layer handles plus the kept runs in
/// virtual order.
#[derive(Debug)]
struct ResolvedList {
    total: u32,
    handles: Vec<Option<ListHandle>>,
    runs: Vec<MergedRun>,
}

/// Complete merged lists of one snapshot: value → resolved list. A
/// [`ListHandle`] a [`MergedSource`] hands out is an index into `lists`,
/// valid for as long as the source holds the memo.
#[derive(Debug, Default)]
pub(crate) struct Memo {
    /// Value → resolved list id (`None` = probed, no live entries).
    by_value: FxHashMap<String, Option<u32>>,
    lists: Vec<ResolvedList>,
}

impl Memo {
    /// The handle of a memoized value (`Some(None)`: known absent).
    fn handle(&self, value: &str) -> Option<Option<ListHandle>> {
        let id = *self.by_value.get(value)?;
        Some(id.map(|id| ListHandle {
            id,
            len: self.lists[id as usize].total,
        }))
    }
}

/// An [`EngineSnapshot`](crate::engine::EngineSnapshot)'s memo slot. The
/// memo is bounded: once it holds `cap` values the next source gets a fresh
/// one, while sources already built keep serving the old one through their
/// `Arc`. Entries are re-derivable, so the swap never affects results.
#[derive(Debug)]
pub(crate) struct MemoSlot {
    current: RankedMutex<Arc<RankedRwLock<Memo>>>,
    cap: usize,
}

impl MemoSlot {
    /// An empty slot bounded at [`MAX_MEMO_VALUES`].
    pub(crate) fn new() -> Self {
        MemoSlot::with_cap(MAX_MEMO_VALUES)
    }

    fn with_cap(cap: usize) -> Self {
        MemoSlot {
            current: RankedMutex::new(ranks::MEMO_SLOT, MemoSlot::fresh()),
            cap,
        }
    }

    fn fresh() -> Arc<RankedRwLock<Memo>> {
        Arc::new(RankedRwLock::new(ranks::SOURCE_MEMO, Memo::default()))
    }

    /// The memo a new source shares: the current one, or a fresh one in its
    /// place once the current one is full.
    pub(crate) fn get(&self) -> Arc<RankedRwLock<Memo>> {
        let mut current = self.current.lock();
        if current.read().by_value.len() >= self.cap {
            *current = MemoSlot::fresh();
        }
        Arc::clone(&current)
    }
}

/// A read-only union of posting layers with newest-wins table masking.
pub struct MergedSource<'a> {
    /// Cold segment stores oldest → newest, then the memtable store.
    layers: Vec<&'a dyn PostingSource>,
    /// Table id → index into `layers` of its owner, or [`NO_OWNER`].
    owners: &'a [u32],
    /// Live distinct-value estimate (sum over layers; values present in
    /// several layers are counted once per layer).
    num_values_hint: usize,
    /// Exact live posting count (maintained by the engine).
    num_postings: usize,
    /// The snapshot's memo (see module docs).
    memo: Arc<RankedRwLock<Memo>>,
    counters: &'a SourceCache,
}

impl std::fmt::Debug for MergedSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MergedSource")
            .field("layers", &self.layers.len())
            .field("num_postings", &self.num_postings)
            .finish_non_exhaustive()
    }
}

impl<'a> MergedSource<'a> {
    pub(crate) fn new(
        layers: Vec<&'a dyn PostingSource>,
        owners: &'a [u32],
        num_values_hint: usize,
        num_postings: usize,
        memo: Arc<RankedRwLock<Memo>>,
        counters: &'a SourceCache,
    ) -> Self {
        MergedSource {
            layers,
            owners,
            num_values_hint,
            num_postings,
            memo,
            counters,
        }
    }

    /// Number of layers in the union (cold segments + the memtable).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    #[inline]
    fn owner(&self, table: u32) -> u32 {
        self.owners.get(table as usize).copied().unwrap_or(NO_OWNER)
    }

    /// Walks one layer, appending its live (owned) runs to `runs` and
    /// advancing `total` through virtual positions. Returns the layer's
    /// list handle.
    fn walk_layer(
        &self,
        li: usize,
        value: &str,
        scratch: &mut ProbeScratch,
        runs: &mut Vec<MergedRun>,
        total: &mut u32,
    ) -> Option<ListHandle> {
        let layer = self.layers[li];
        let handle = layer.find_list(value, scratch);
        if let Some(h) = handle {
            let mut at = 0u32;
            layer.table_runs(h, scratch, &mut |table, len| {
                if self.owner(table) == li as u32 {
                    runs.push(MergedRun {
                        table,
                        layer: li as u32,
                        layer_start: at,
                        len,
                        virt_start: *total,
                    });
                    *total += len;
                }
                at += len;
            });
        }
        handle
    }

    /// Resolves `value` across all layers into a virtual list, memoizing
    /// the result.
    fn resolve(&self, value: &str, scratch: &mut ProbeScratch) -> Option<ListHandle> {
        if let Some(handle) = self.memo.read().handle(value) {
            self.counters.hits.inc();
            return handle;
        }
        self.counters.misses.inc();

        // Walk the layers outside the memo lock (decoding may be slow).
        let mut handles = Vec::with_capacity(self.layers.len());
        let mut runs = Vec::new();
        let mut total = 0u32;
        for li in 0..self.layers.len() {
            handles.push(self.walk_layer(li, value, scratch, &mut runs, &mut total));
        }

        let mut memo = self.memo.write();
        // A concurrent resolver may have won the race; keep the first entry
        // so ids stay stable.
        if let Some(handle) = memo.handle(value) {
            return handle;
        }
        let id = (total > 0).then(|| {
            memo.lists.push(ResolvedList {
                total,
                handles,
                runs,
            });
            memo.lists.len() as u32 - 1
        });
        memo.by_value.insert(value.to_string(), id);
        id.map(|id| ListHandle { id, len: total })
    }
}

impl PostingSource for MergedSource<'_> {
    fn find_list(&self, value: &str, scratch: &mut ProbeScratch) -> Option<ListHandle> {
        self.resolve(value, scratch)
    }

    fn table_runs(
        &self,
        list: ListHandle,
        _scratch: &mut ProbeScratch,
        f: &mut dyn FnMut(u32, u32),
    ) {
        let memo = self.memo.read();
        for run in &memo.lists[list.id as usize].runs {
            f(run.table, run.len);
        }
    }

    fn collect_run(
        &self,
        list: ListHandle,
        start: u32,
        len: u32,
        scratch: &mut ProbeScratch,
        out: &mut Vec<PostingEntry>,
        counters: &mut ProbeCounters,
    ) {
        if len == 0 {
            return;
        }
        let memo = self.memo.read();
        let merged = &memo.lists[list.id as usize];
        // First run overlapping `start`.
        let mut i = merged
            .runs
            .partition_point(|r| r.virt_start + r.len <= start);
        let mut pos = start;
        let mut remaining = len;
        while remaining > 0 {
            let run = &merged.runs[i];
            let off = pos - run.virt_start;
            let take = (run.len - off).min(remaining);
            // panic-exempt: a MergedRun is only ever built from a layer
            // that resolved a handle (resolve() records the handle and the
            // run together), so the slot is always Some.
            let handle = merged.handles[run.layer as usize].expect("run without a layer list");
            self.layers[run.layer as usize].collect_run(
                handle,
                run.layer_start + off,
                take,
                scratch,
                out,
                counters,
            );
            pos += take;
            remaining -= take;
            i += 1;
        }
    }

    /// Upper bound: layer-local distinct-value counts summed (a value
    /// served from several layers is counted once per layer).
    fn num_values(&self) -> usize {
        self.num_values_hint
    }

    fn num_postings(&self) -> usize {
        self.num_postings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::PostingStore;

    fn e(t: u32, c: u32, r: u32) -> PostingEntry {
        PostingEntry::new(t, c, r)
    }

    /// Two hot stores acting as layers: layer 0 owns tables 0-1, layer 1
    /// owns tables 2-3 and *masks* table 1 (claims it, newer wins).
    fn setup() -> (PostingStore, PostingStore, Vec<u32>) {
        let mut old = PostingStore::new();
        let a = old.intern("a");
        old.append(a, e(0, 0, 0));
        old.append(a, e(0, 0, 1));
        old.append(a, e(1, 0, 0)); // masked by layer 1
        let b = old.intern("b");
        old.append(b, e(1, 1, 0)); // masked by layer 1

        let mut new = PostingStore::new();
        let a = new.intern("a");
        new.append(a, e(1, 0, 5));
        new.append(a, e(2, 0, 0));
        let c = new.intern("c");
        new.append(c, e(3, 0, 0));

        // owners: t0 → layer 0; t1, t2, t3 → layer 1.
        (old, new, vec![0, 1, 1, 1])
    }

    /// A source over the two `setup` layers sharing `slot`'s memo.
    fn source<'a>(
        old: &'a PostingStore,
        new: &'a PostingStore,
        owners: &'a [u32],
        slot: &MemoSlot,
        counters: &'a SourceCache,
    ) -> MergedSource<'a> {
        MergedSource::new(vec![old, new], owners, 0, 6, slot.get(), counters)
    }

    fn collect(src: &MergedSource<'_>, h: ListHandle, start: u32, len: u32) -> Vec<PostingEntry> {
        let mut out = Vec::new();
        let mut counters = ProbeCounters::default();
        src.collect_run(
            h,
            start,
            len,
            &mut ProbeScratch::new(),
            &mut out,
            &mut counters,
        );
        out
    }

    #[test]
    fn masking_and_virtual_order() {
        let (old, new, owners) = setup();
        let counters = SourceCache::new(&Obs::new());
        let src = source(&old, &new, &owners, &MemoSlot::new(), &counters);
        let mut scratch = ProbeScratch::new();

        let h = src.find_list("a", &mut scratch).unwrap();
        assert_eq!(h.len, 4, "t1's old entry is masked, t1's new one is live");
        let mut runs = Vec::new();
        src.table_runs(h, &mut scratch, &mut |t, n| runs.push((t, n)));
        assert_eq!(runs, vec![(0, 2), (1, 1), (2, 1)]);
        assert_eq!(
            collect(&src, h, 0, h.len),
            vec![e(0, 0, 0), e(0, 0, 1), e(1, 0, 5), e(2, 0, 0)]
        );

        // Fully-masked lists read as absent.
        assert!(src.find_list("b", &mut scratch).is_none());
        // Layer-1-only values come through.
        let hc = src.find_list("c", &mut scratch).unwrap();
        assert_eq!(hc.len, 1);
        assert!(src.find_list("zzz", &mut scratch).is_none());
    }

    #[test]
    fn partial_collects_cross_layer_boundaries() {
        let (old, new, owners) = setup();
        let counters = SourceCache::new(&Obs::new());
        let src = source(&old, &new, &owners, &MemoSlot::new(), &counters);
        let h = src.find_list("a", &mut ProbeScratch::new()).unwrap();
        // [1, 3) spans the tail of layer 0's run and layer 1's first run.
        assert_eq!(collect(&src, h, 1, 2), vec![e(0, 0, 1), e(1, 0, 5)]);
        // Single-entry slice in the middle.
        assert_eq!(collect(&src, h, 2, 1), vec![e(1, 0, 5)]);
    }

    /// A value resolves to one stable handle, shared by every source of
    /// one memo slot.
    #[test]
    fn memoization_is_stable() {
        let (old, new, owners) = setup();
        let counters = SourceCache::new(&Obs::new());
        let slot = MemoSlot::new();
        let mut scratch = ProbeScratch::new();
        let first = source(&old, &new, &owners, &slot, &counters);
        let h1 = first.find_list("a", &mut scratch).unwrap();
        assert_eq!(first.find_list("a", &mut scratch), Some(h1));
        let second = source(&old, &new, &owners, &slot, &counters);
        assert_eq!(second.find_list("a", &mut scratch), Some(h1));
        assert_eq!((counters.hits(), counters.misses()), (2, 1));
        // Absence is memoized too.
        assert!(first.find_list("zzz", &mut scratch).is_none());
        assert!(second.find_list("zzz", &mut scratch).is_none());
        assert_eq!((counters.hits(), counters.misses()), (3, 2));
        assert_eq!(second.num_postings(), 6);
    }

    #[test]
    fn a_full_memo_is_replaced_for_new_sources_only() {
        let (old, new, owners) = setup();
        let counters = SourceCache::new(&Obs::new());
        let slot = MemoSlot::with_cap(2);
        let mut scratch = ProbeScratch::new();

        // Two probed values fill the memo (an absent value counts too).
        let first = source(&old, &new, &owners, &slot, &counters);
        let ha = first.find_list("a", &mut scratch).unwrap();
        assert!(first.find_list("b", &mut scratch).is_none());

        // The next source gets a fresh memo: "a" resolves again, under an
        // id of the new memo's own.
        let second = source(&old, &new, &owners, &slot, &counters);
        assert!(!Arc::ptr_eq(&first.memo, &second.memo));
        let hc = second.find_list("c", &mut scratch).unwrap();
        assert_eq!(hc.id, ha.id, "ids restart in the fresh memo");
        assert_eq!(counters.misses(), 3);

        // The existing source keeps serving its handles from the old memo.
        assert_eq!(first.find_list("a", &mut scratch), Some(ha));
        assert_eq!(
            collect(&first, ha, 0, ha.len),
            vec![e(0, 0, 0), e(0, 0, 1), e(1, 0, 5), e(2, 0, 0)]
        );
        assert_eq!(collect(&second, hc, 0, hc.len), vec![e(3, 0, 0)]);

        // A memo with room is shared, not replaced.
        let third = source(&old, &new, &owners, &slot, &counters);
        assert!(Arc::ptr_eq(&second.memo, &third.memo));
    }
}
