//! Demand-paged segment reads under a global byte budget.
//!
//! Cold segments used to be served from one resident `Bytes` per file, so
//! resident memory grew linearly with the cold stack. [`PageCache`] bounds
//! that: immutable segment files are read in fixed-size pages (default
//! [`DEFAULT_PAGE_SIZE`]) keyed by `(segment_id, page_no)`, filled on demand
//! via [`Vfs::pread`], and evicted by a CLOCK ring so the total resident
//! payload never exceeds the configured budget.
//!
//! Design notes:
//!
//! * **One lock.** All cache state sits behind a single [`RankedMutex`] at
//!   [`PAGER_CACHE_RANK`] (rank 55.0 in the `mate_index::engine` table —
//!   the highest rank, because the cache lock is always acquired *last*:
//!   probes fault pages in while holding the 40-family probe locks, and
//!   dropping a superseded snapshot evicts pages while the 50.0 snapshot
//!   slot is held). Fills run *outside* the lock: lookup, unlock, `pread`,
//!   relock, re-check for a racing fill, insert.
//! * **Strict budget.** Eviction happens *before* insertion, so
//!   `resident_bytes <= budget_bytes` holds at every instant, not just
//!   eventually. A page larger than the whole budget (tiny test budgets) is
//!   served read-through without being cached at all.
//! * **Immutability.** Segment files never change after the manifest commit
//!   that publishes them, so pages carry no version and a hit can never be
//!   stale. Files are unlinked only after [`PageCache::remove_segment`]
//!   drops their registration (the engine pins files until the last
//!   snapshot referencing them is gone).
//! * **Faults.** Fills go through the same [`Vfs`] seam as whole-file
//!   reads, so `FaultVfs` read faults and bit flips fire on pread fills
//!   exactly as they do on `Vfs::read`. A failed fill caches nothing and
//!   surfaces as a typed [`StorageError`]; the next call retries the read.
//! * **One counter store.** [`PageCache::new`] resolves its registry
//!   handles (`pager.{hits, misses, evictions}`, the `pager.resident_bytes`
//!   gauge, the `pager.fills_us` histogram) once; [`PageCache::stats`]
//!   reads them back. A hit costs one map probe plus one relaxed add, and
//!   the gauge is written only where residency changes.
//! * **Whole extents bypass the cache.** [`PageCache::read_uncached`]
//!   serves a materialization of a whole stream with one `pread`, so it
//!   neither costs thousands of page fills nor evicts the query working set.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use mate_obs::{Counter, Gauge, Histogram, Obs, Rank, RankedMutex};

use crate::error::{IoCtx, StorageError};
use crate::vfs::Vfs;

/// Lock rank of the page-cache mutex: strictly above every engine lock
/// (probes fault pages in under the 40-family probe locks; snapshot-slot
/// holders at 50.0 evict pages when dropping superseded layers), and
/// nothing is ever acquired while it is held. Re-exported into the
/// `mate_index::engine::ranks` table.
pub const PAGER_CACHE_RANK: Rank = Rank::new(55, 0, "pager-cache");

/// Default page size: 4 KiB, the OS page. The page is the unit a miss
/// reads and the unit the budget holds, so it should match what a probe
/// touches: on the generated opendata lake the posting lists a query
/// decodes average about 340 bytes, so a 64 KiB page read ~37× more than
/// the probe used, and the same budget held 16× fewer distinct hot lists.
/// Swept at equal budget (a page cache of 1/8 of the cold stack), query
/// latency ranked 4 KiB ≈ 16 KiB ≫ 64 KiB, and bytes read per query
/// were 0.14 / 1.0 / 20.6 MB. Whole-stream reads (compaction inputs)
/// bypass the cache with one extent `pread`, and scrub streams
/// files in its own larger chunks, so neither pays for the small grain.
pub const DEFAULT_PAGE_SIZE: usize = 4 * 1024;

/// A point-in-time view of the cache counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PagerStats {
    /// Page lookups served from the cache.
    pub hits: u64,
    /// Page lookups that required a `pread` fill.
    pub misses: u64,
    /// Pages evicted by the CLOCK ring to make room.
    pub evictions: u64,
    /// Bytes of page payload currently resident (always `<= budget`).
    pub resident_bytes: u64,
}

/// One resident page.
#[derive(Debug)]
struct Slot {
    key: (u64, u64),
    data: Bytes,
    referenced: bool,
}

/// All mutable cache state, guarded by the single pager mutex.
#[derive(Debug, Default)]
struct PagerInner {
    /// Registered segments: id -> file path used for fills.
    segments: HashMap<u64, Arc<PathBuf>>,
    /// Page table: (segment, page_no) -> slot index.
    map: HashMap<(u64, u64), usize>,
    /// CLOCK ring of slots; `None` entries are free.
    slots: Vec<Option<Slot>>,
    /// Free slot indices, reused before the ring grows.
    free: Vec<usize>,
    /// CLOCK hand: next slot the eviction sweep inspects.
    hand: usize,
    /// Sum of `data.len()` over occupied slots.
    resident_bytes: usize,
}

/// Registry handles resolved once at construction: the cache's only
/// counter store, so recording a hit is one relaxed add.
#[derive(Debug)]
struct PagerMetrics {
    obs: Arc<Obs>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
    resident_bytes: Arc<Gauge>,
    fills_us: Arc<Histogram>,
}

/// A shared, budgeted page cache over immutable segment files (see the
/// module docs for the design).
#[derive(Debug)]
pub struct PageCache {
    vfs: Arc<dyn Vfs>,
    page_size: usize,
    budget_bytes: usize,
    inner: RankedMutex<PagerInner>,
    metrics: PagerMetrics,
}

impl PageCache {
    /// A cache filling `page_size`-byte pages from `vfs`, keeping at most
    /// `budget_bytes` of payload resident. A zero `page_size` is clamped
    /// to one byte. Traffic is recorded in `obs`: the `pager.{hits,
    /// misses, evictions}` counters, the `pager.resident_bytes` gauge and
    /// the `pager.fills_us` histogram of each fill's `pread` latency.
    pub fn new(
        vfs: Arc<dyn Vfs>,
        page_size: usize,
        budget_bytes: usize,
        obs: &Arc<Obs>,
    ) -> PageCache {
        let metrics = PagerMetrics {
            obs: Arc::clone(obs),
            hits: obs.counter("pager.hits"),
            misses: obs.counter("pager.misses"),
            evictions: obs.counter("pager.evictions"),
            resident_bytes: obs.gauge("pager.resident_bytes"),
            fills_us: obs.histogram("pager.fills_us"),
        };
        metrics.resident_bytes.set(0);
        PageCache {
            vfs,
            page_size: page_size.max(1),
            budget_bytes,
            inner: RankedMutex::new(PAGER_CACHE_RANK, PagerInner::default()),
            metrics,
        }
    }

    /// The configured page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// The resident-payload budget in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Registers `id` as readable from `path`. Fills for unregistered ids
    /// fail with a typed error, so registration doubles as a use-after-
    /// remove guard. Re-registering an id replaces the path and drops any
    /// pages cached under the old one.
    pub fn register_segment(&self, id: u64, path: &Path) {
        let mut inner = self.inner.lock();
        if inner.segments.contains_key(&id) {
            self.evict_segment_locked(&mut inner, id);
        }
        inner.segments.insert(id, Arc::new(path.to_path_buf()));
    }

    /// Drops `id`'s registration and evicts all of its resident pages.
    /// Call before unlinking the underlying file.
    pub fn remove_segment(&self, id: u64) {
        let mut inner = self.inner.lock();
        inner.segments.remove(&id);
        self.evict_segment_locked(&mut inner, id);
    }

    /// Reads `len` bytes at `offset` of segment `id` into `out` (cleared
    /// first), faulting in exactly the pages the range overlaps.
    ///
    /// Errors are typed: an unregistered `id`, a fill failure from the
    /// [`Vfs`], or a range past end-of-file ([`StorageError::UnexpectedEof`]).
    /// A failed fill caches nothing, so a later retry re-reads the file.
    pub fn read_into(
        &self,
        id: u64,
        offset: u64,
        len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), StorageError> {
        out.clear();
        if len == 0 {
            return Ok(());
        }
        out.reserve(len);
        let ps = self.page_size as u64;
        let end = offset
            .checked_add(len as u64)
            .ok_or(StorageError::InvalidLength {
                context: "pager read range",
                value: u64::MAX,
            })?;
        let first = offset / ps;
        let last = (end - 1) / ps;
        for page_no in first..=last {
            let page = self.page(id, page_no)?;
            let page_start = page_no * ps;
            let lo = offset.saturating_sub(page_start) as usize;
            let hi = (end - page_start).min(ps) as usize;
            if page.len() < hi {
                return Err(StorageError::UnexpectedEof {
                    context: "paged segment read past end of file",
                });
            }
            out.extend_from_slice(&page[lo..hi]);
        }
        Ok(())
    }

    /// Reads `len` bytes at `offset` of segment `id` with one `pread` that
    /// bypasses the cache: no page is filled, hit, or evicted, so a whole-
    /// stream materialization neither pays per-page fills nor flushes the
    /// query working set. Errors are typed as for [`PageCache::read_into`].
    pub fn read_uncached(&self, id: u64, offset: u64, len: usize) -> Result<Vec<u8>, StorageError> {
        let path = self.segment_path(id)?;
        let buf = self
            .vfs
            .pread(&path, offset, len)
            .io_ctx("pread-reading extent of", &path)?;
        if buf.len() < len {
            return Err(StorageError::UnexpectedEof {
                context: "paged segment read past end of file",
            });
        }
        Ok(buf)
    }

    /// Current counters, read from the registry handles (resident bytes
    /// under the lock).
    pub fn stats(&self) -> PagerStats {
        let resident = self.inner.lock().resident_bytes as u64;
        PagerStats {
            hits: self.metrics.hits.get(),
            misses: self.metrics.misses.get(),
            evictions: self.metrics.evictions.get(),
            resident_bytes: resident,
        }
    }

    /// The file `id` was registered under.
    fn segment_path(&self, id: u64) -> Result<Arc<PathBuf>, StorageError> {
        self.inner
            .lock()
            .segments
            .get(&id)
            .map(Arc::clone)
            .ok_or(StorageError::InvalidLength {
                context: "pager fill for unregistered segment id",
                value: id,
            })
    }

    /// Returns page `page_no` of segment `id`, filling it on a miss.
    fn page(&self, id: u64, page_no: u64) -> Result<Bytes, StorageError> {
        let key = (id, page_no);
        {
            let mut inner = self.inner.lock();
            if let Some(&idx) = inner.map.get(&key) {
                if let Some(slot) = inner.slots[idx].as_mut() {
                    slot.referenced = true;
                    let data = slot.data.clone();
                    drop(inner);
                    self.metrics.hits.inc();
                    return Ok(data);
                }
            }
        }
        let path = self.segment_path(id)?;
        // Fill outside the lock: concurrent probes of other pages proceed.
        self.metrics.misses.inc();
        let clock = self.metrics.obs.clock();
        let t0 = clock.now_nanos();
        let buf = self
            .vfs
            .pread(&path, page_no * self.page_size as u64, self.page_size)
            .io_ctx("pread-filling page from", &path)?;
        self.metrics
            .fills_us
            .record(clock.now_nanos().saturating_sub(t0) / 1_000);
        let data = Bytes::from(buf);
        let mut inner = self.inner.lock();
        // A racing fill may have inserted the page while we read; keep the
        // cached copy so both callers observe the same bytes.
        if let Some(&idx) = inner.map.get(&key) {
            if let Some(slot) = inner.slots[idx].as_mut() {
                slot.referenced = true;
                return Ok(slot.data.clone());
            }
        }
        if inner.segments.contains_key(&id) && data.len() <= self.budget_bytes {
            // Evict *before* inserting so resident_bytes never exceeds the
            // budget, not even transiently.
            self.make_room_locked(&mut inner, data.len());
            let slot = Slot {
                key,
                data: data.clone(),
                referenced: true,
            };
            inner.resident_bytes += data.len();
            let idx = match inner.free.pop() {
                Some(i) => {
                    inner.slots[i] = Some(slot);
                    i
                }
                None => {
                    inner.slots.push(Some(slot));
                    inner.slots.len() - 1
                }
            };
            inner.map.insert(key, idx);
            self.metrics.resident_bytes.set(inner.resident_bytes as u64);
        }
        // else: read-through — a page over budget (or a segment removed
        // mid-fill) is served without being cached.
        Ok(data)
    }

    /// CLOCK sweep: clears referenced bits and evicts unreferenced pages
    /// until `incoming` more bytes fit under the budget.
    fn make_room_locked(&self, inner: &mut PagerInner, incoming: usize) {
        while inner.resident_bytes + incoming > self.budget_bytes && !inner.map.is_empty() {
            let n = inner.slots.len();
            let idx = inner.hand % n;
            inner.hand = (idx + 1) % n;
            let Some(slot) = inner.slots[idx].as_mut() else {
                continue;
            };
            if slot.referenced {
                slot.referenced = false;
                continue;
            }
            let key = slot.key;
            let freed = slot.data.len();
            inner.slots[idx] = None;
            inner.map.remove(&key);
            inner.free.push(idx);
            inner.resident_bytes -= freed;
            self.metrics.evictions.inc();
        }
    }

    /// Evicts every resident page of segment `id` (lock already held).
    fn evict_segment_locked(&self, inner: &mut PagerInner, id: u64) {
        let victims: Vec<(u64, u64)> = inner.map.keys().filter(|k| k.0 == id).copied().collect();
        for key in victims {
            if let Some(idx) = inner.map.remove(&key) {
                if let Some(slot) = inner.slots[idx].take() {
                    inner.resident_bytes -= slot.data.len();
                    inner.free.push(idx);
                    self.metrics.evictions.inc();
                }
            }
        }
        self.metrics.resident_bytes.set(inner.resident_bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultVfs, StdVfs};

    fn tmpfile(tag: &str, data: &[u8]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mate-pager-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("seg.bin");
        std::fs::write(&p, data).unwrap();
        p
    }

    fn cache_over(vfs: Arc<dyn Vfs>, page_size: usize, budget: usize) -> PageCache {
        PageCache::new(vfs, page_size, budget, &Arc::new(Obs::new()))
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn reads_match_file_contents_across_page_boundaries() {
        let data = pattern(1000);
        let p = tmpfile("bounds", &data);
        let cache = cache_over(Arc::new(StdVfs), 64, 1 << 20);
        cache.register_segment(7, &p);
        let mut out = Vec::new();
        for (off, len) in [(0, 1000), (0, 64), (63, 2), (64, 64), (999, 1), (500, 0)] {
            cache.read_into(7, off as u64, len, &mut out).unwrap();
            assert_eq!(out, &data[off..off + len], "off={off} len={len}");
        }
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let p = tmpfile("counts", &pattern(256));
        let cache = cache_over(Arc::new(StdVfs), 64, 1 << 20);
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        cache.read_into(1, 0, 128, &mut out).unwrap(); // pages 0,1: 2 misses
        cache.read_into(1, 0, 128, &mut out).unwrap(); // 2 hits
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.resident_bytes, 128);
    }

    #[test]
    fn resident_bytes_never_exceeds_budget() {
        let data = pattern(4096);
        let p = tmpfile("budget", &data);
        let cache = cache_over(Arc::new(StdVfs), 64, 256); // 4 pages max
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        for off in (0..4096).step_by(64) {
            cache.read_into(1, off as u64, 64, &mut out).unwrap();
            assert_eq!(out, &data[off..off + 64]);
            assert!(cache.stats().resident_bytes <= 256);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 64);
        assert!(s.evictions >= 60, "evictions: {}", s.evictions);
    }

    #[test]
    fn page_larger_than_budget_is_read_through() {
        let data = pattern(512);
        let p = tmpfile("huge-page", &data);
        let cache = cache_over(Arc::new(StdVfs), 128, 64); // page > budget
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        cache.read_into(1, 0, 512, &mut out).unwrap();
        assert_eq!(out, data);
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 0, "nothing cached");
        cache.read_into(1, 0, 512, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(cache.stats().hits, 0, "every read is a fill");
    }

    #[test]
    fn eof_and_unregistered_are_typed_errors() {
        let p = tmpfile("eof", &pattern(100));
        let cache = cache_over(Arc::new(StdVfs), 64, 1 << 20);
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        let e = cache.read_into(1, 90, 20, &mut out).unwrap_err();
        assert!(matches!(e, StorageError::UnexpectedEof { .. }), "{e}");
        let e = cache.read_into(2, 0, 10, &mut out).unwrap_err();
        assert!(
            matches!(e, StorageError::InvalidLength { value: 2, .. }),
            "{e}"
        );
    }

    #[test]
    fn remove_segment_drops_pages_and_registration() {
        let p = tmpfile("remove", &pattern(256));
        let cache = cache_over(Arc::new(StdVfs), 64, 1 << 20);
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        cache.read_into(1, 0, 256, &mut out).unwrap();
        assert_eq!(cache.stats().resident_bytes, 256);
        cache.remove_segment(1);
        let s = cache.stats();
        assert_eq!(s.resident_bytes, 0);
        assert!(cache.read_into(1, 0, 10, &mut out).is_err());
    }

    #[test]
    fn failed_fill_is_typed_and_retry_converges() {
        let data = pattern(256);
        let p = tmpfile("fault", &data);
        let vfs = Arc::new(FaultVfs::new());
        let cache = cache_over(Arc::new(Arc::clone(&vfs)), 64, 1 << 20);
        cache.register_segment(1, &p);
        let mut out = Vec::new();
        vfs.fail_nth(1);
        let e = cache.read_into(1, 0, 256, &mut out).unwrap_err();
        assert!(matches!(e, StorageError::IoAt { .. }), "{e}");
        // Nothing was cached for the failed page; the retry refills and
        // serves the true bytes.
        cache.read_into(1, 0, 256, &mut out).unwrap();
        assert_eq!(out, data);
        assert_eq!(vfs.injected(), 1);
    }

    #[test]
    fn registry_is_the_only_counter_store() {
        let p = tmpfile("obs", &pattern(1024));
        let q = tmpfile("obs-b", &pattern(512));
        let obs = Arc::new(Obs::new());
        let cache = PageCache::new(Arc::new(StdVfs), 64, 256, &obs); // 4 pages
        cache.register_segment(1, &p);
        cache.register_segment(2, &q);
        let mut out = Vec::new();
        let registry = |cache: &PageCache| {
            let s = cache.stats();
            assert_eq!(obs.counter("pager.hits").get(), s.hits);
            assert_eq!(obs.counter("pager.misses").get(), s.misses);
            assert_eq!(obs.counter("pager.evictions").get(), s.evictions);
            assert_eq!(obs.gauge("pager.resident_bytes").get(), s.resident_bytes);
            s
        };
        cache.read_into(1, 0, 128, &mut out).unwrap(); // 2 misses
        cache.read_into(1, 0, 64, &mut out).unwrap(); // 1 hit
        let s = registry(&cache);
        assert_eq!(
            (s.hits, s.misses, s.evictions, s.resident_bytes),
            (1, 2, 0, 128)
        );
        cache.read_into(2, 0, 192, &mut out).unwrap(); // 3 misses, evicts
        cache.read_into(1, 512, 128, &mut out).unwrap(); // 2 misses, evicts
        let s = registry(&cache);
        assert_eq!(s.misses, 7);
        assert!(s.evictions >= 3, "evictions: {}", s.evictions);
        assert!(s.resident_bytes <= 256);
        let before = s.evictions;
        cache.remove_segment(1);
        let s = registry(&cache);
        assert!(s.evictions > before, "remove_segment evicts resident pages");
        cache.remove_segment(2);
        let s = registry(&cache);
        assert_eq!(s.resident_bytes, 0);
        assert_eq!(obs.histogram("pager.fills_us").count(), s.misses);
    }

    #[test]
    fn uncached_reads_bypass_the_cache_and_keep_faults_typed() {
        let data = pattern(1000);
        let p = tmpfile("uncached", &data);
        let vfs = Arc::new(FaultVfs::new());
        let cache = cache_over(Arc::new(Arc::clone(&vfs)), 64, 1 << 20);
        cache.register_segment(1, &p);
        assert_eq!(cache.read_uncached(1, 100, 900).unwrap(), &data[100..]);
        assert_eq!(
            cache.stats(),
            PagerStats::default(),
            "nothing filled or hit"
        );
        let e = cache.read_uncached(1, 900, 200).unwrap_err();
        assert!(matches!(e, StorageError::UnexpectedEof { .. }), "{e}");
        let e = cache.read_uncached(2, 0, 10).unwrap_err();
        assert!(
            matches!(e, StorageError::InvalidLength { value: 2, .. }),
            "{e}"
        );
        vfs.fail_nth(1);
        let e = cache.read_uncached(1, 0, 1000).unwrap_err();
        assert!(matches!(e, StorageError::IoAt { .. }), "{e}");
        assert_eq!(vfs.injected(), 1);
    }

    #[test]
    fn reregistering_an_id_drops_stale_pages() {
        let a = tmpfile("rereg-a", &[1u8; 128]);
        let b = tmpfile("rereg-b", &[2u8; 128]);
        let cache = cache_over(Arc::new(StdVfs), 64, 1 << 20);
        cache.register_segment(1, &a);
        let mut out = Vec::new();
        cache.read_into(1, 0, 128, &mut out).unwrap();
        assert_eq!(out, [1u8; 128]);
        cache.register_segment(1, &b);
        cache.read_into(1, 0, 128, &mut out).unwrap();
        assert_eq!(out, [2u8; 128], "no stale pages under the old path");
    }
}
