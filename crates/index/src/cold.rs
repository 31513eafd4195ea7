//! Cold serving mode: posting lookups straight out of segment bytes.
//!
//! [`crate::persist::load_index`] materializes a full [`PostingStore`] —
//! every list decoded, every value re-interned — before the first query can
//! run. For a read-mostly replica that is wasted work and wasted RSS: the
//! query phase of Algorithm 1 touches only the lists of the query's initial
//! column, and (with the §6.2 pruning rules) decodes only a fraction of
//! those.
//!
//! [`ColdPostingStore`] serves the `index.values2` / `index.postings3`
//! payloads through a [`SegmentSource`] — either shared [`Bytes`] slices
//! (zero-copy out of a loaded segment, the tooling/test path) or demand-
//! paged extents of the segment *file* through a budgeted
//! [`mate_storage::pager::PageCache`] (the engine's serving path, so
//! resident memory no longer grows with the cold stack). Probes decode
//! only the bytes they touch into small reusable scratch buffers:
//!
//! * `find_list` binary-searches the front-coded value dictionary through
//!   its restart index, fetching one restart *group* (at most
//!   `restart_interval` front-coded records) per comparison, then reads
//!   only the list's leading count varint;
//! * `table_runs` decodes only the table-id streams of a list (column/row
//!   payloads are jumped over via their width bytes);
//! * `collect_run` decodes only the blocks overlapping the requested range,
//!   counting everything else as skipped, and within a block only the
//!   requested entries (random access into the bit-packed streams).
//!
//! Whole-stream reads — [`SegmentSource::to_bytes`], behind compaction
//! inputs, [`ColdPostingStore::iter_decoded`] and [`ColdIndex::thaw`] —
//! bypass the page cache with one extent `pread`: the cache's small pages
//! are sized for probes, and a materialization served through them would
//! cost thousands of fills and evict the query working set.
//!
//! The always-materialized state of a [`ColdIndex`] is the super-key store
//! (raw `u64` words, needed for random access during row filtering) and the
//! tiny restart/list directories — the probe "page table". Open-time
//! validation still walks every directory and stream, so probe-time
//! decoding stays infallible in both modes. [`ColdIndex::thaw`] upgrades to
//! a hot [`InvertedIndex`] when mutation is needed.
//!
//! [`PostingStore`]: crate::store::PostingStore

use crate::index::{IndexStats, InvertedIndex};
use crate::posting::PostingEntry;
use crate::source::{ListHandle, PostingSource, ProbeCounters, ProbeScratch};
use crate::superkeys::SuperKeyStore;
use bytes::Bytes;
use mate_hash::HashSize;
use mate_storage::pager::PageCache;
use mate_storage::{postings, varint, StorageError};
use std::sync::Arc;

/// Reads the `i`-th u32 of a little-endian u32 array stored in `data`.
#[inline]
fn u32_at(data: &[u8], i: usize) -> u32 {
    let at = i * 4;
    // panic-exempt: 4-byte subslice of a directory whose length the
    // open-time validation walk checked; `try_into` to [u8; 4] cannot fail.
    u32::from_le_bytes(data[at..at + 4].try_into().expect("validated at open"))
}

/// The list-offset directory of a cold store (the `index.postings3`
/// layout): a varint byte-*length* per list plus one `(payload offset,
/// length-stream offset)` u32 anchor pair every `interval` lists. Random
/// access lands on the preceding anchor and walks at most `interval - 1`
/// varints; the directory costs ~1.5 B/list on real lakes instead of the
/// 4 B/list of fixed-width offsets.
#[derive(Debug, Clone)]
pub struct ListDirectory {
    /// Varint byte-length of each list, concatenated.
    pub lengths: Bytes,
    /// Per group of `interval` lists: payload offset u32 LE, length-
    /// stream offset u32 LE.
    pub anchors: Bytes,
    /// Lists per anchor group.
    pub interval: usize,
}

impl ListDirectory {
    /// Byte range `[lo, hi)` of list `i` within the list payload.
    ///
    /// Relies on the open-time validation walk: every anchor and varint has
    /// been checked, so decoding here is infallible.
    #[inline]
    fn bounds(&self, i: usize) -> (usize, usize) {
        let group = i / self.interval;
        let mut lo = u32_at(&self.anchors, group * 2) as usize;
        let mut rest = &self.lengths[u32_at(&self.anchors, group * 2 + 1) as usize..];
        for _ in group * self.interval..i {
            // panic-exempt: every varint in the length stream was
            // decoded once by the open-time validation walk.
            lo += varint::read_u64(&mut rest).expect("validated at open") as usize;
        }
        // panic-exempt: same open-time varint validation as above.
        let len = varint::read_u64(&mut rest).expect("validated at open") as usize;
        (lo, lo + len)
    }

    /// Bytes of segment payload the directory keeps mapped.
    fn mapped_bytes(&self) -> usize {
        self.lengths.len() + self.anchors.len()
    }

    /// Validates shape and internal consistency against `n` lists over a
    /// payload of `payload_len` bytes: every anchor agrees with the varint
    /// lengths before it, and the lengths sum exactly to the payload.
    fn validate(&self, n: usize, payload_len: usize) -> Result<(), StorageError> {
        let interval = self.interval;
        if interval == 0 {
            return Err(StorageError::InvalidLength {
                context: "cold anchor interval",
                value: 0,
            });
        }
        let ngroups = n.div_ceil(interval);
        if self.anchors.len() != ngroups * 8 {
            return Err(StorageError::InvalidLength {
                context: "cold directory shape",
                value: self.anchors.len() as u64,
            });
        }
        let mut rest: &[u8] = &self.lengths;
        let mut payload_at = 0usize;
        for i in 0..n {
            if i % interval == 0 {
                let group = i / interval;
                let stream_at = self.lengths.len() - rest.len();
                if u32_at(&self.anchors, group * 2) as usize != payload_at
                    || u32_at(&self.anchors, group * 2 + 1) as usize != stream_at
                {
                    return Err(StorageError::InvalidLength {
                        context: "cold list anchor",
                        value: group as u64,
                    });
                }
            }
            let len = varint::read_u64(&mut rest)? as usize;
            if len > payload_len - payload_at {
                return Err(StorageError::InvalidLength {
                    context: "cold list length",
                    value: len as u64,
                });
            }
            payload_at += len;
        }
        if !rest.is_empty() {
            return Err(StorageError::InvalidLength {
                context: "cold directory slack",
                value: rest.len() as u64,
            });
        }
        if payload_at != payload_len {
            return Err(StorageError::InvalidLength {
                context: "cold list length",
                value: payload_at as u64,
            });
        }
        Ok(())
    }
}

/// Where a cold payload stream's bytes physically live.
///
/// A [`ColdPostingStore`] addresses its value and list streams by offsets
/// that open-time validation has fully checked; this enum resolves those
/// offsets to bytes either from a resident buffer or by demand-paging the
/// backing segment file through a shared, budgeted [`PageCache`].
#[derive(Debug, Clone)]
pub enum SegmentSource {
    /// The whole stream is resident in memory (tooling, tests, `thaw()`).
    Resident(Bytes),
    /// The stream is an extent of an immutable segment file, read page-wise
    /// through the engine's global cache.
    Paged {
        /// The shared page cache filling from the segment file.
        cache: Arc<PageCache>,
        /// Segment id the file was registered under.
        segment: u64,
        /// Byte offset of this stream within the segment file.
        offset: u64,
        /// Stream length in bytes.
        len: usize,
    },
}

impl SegmentSource {
    /// Stream length in bytes.
    pub fn len(&self) -> usize {
        match self {
            SegmentSource::Resident(b) => b.len(),
            SegmentSource::Paged { len, .. } => *len,
        }
    }

    /// Whether the stream is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes resident right now (the paged variant holds none itself; its
    /// pages are accounted to the shared cache).
    fn resident_bytes(&self) -> usize {
        match self {
            SegmentSource::Resident(b) => b.len(),
            SegmentSource::Paged { .. } => 0,
        }
    }

    /// Infallible probe-path read: open-time validation guarantees the
    /// range is well-formed, so the only failure left is I/O on a page
    /// fill. One retry absorbs transient faults (the cache caches nothing
    /// on a failed fill); a fill that fails twice is unrecoverable at
    /// probe time and panics rather than serving wrong results.
    fn read<'a>(&'a self, lo: usize, hi: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        match self {
            SegmentSource::Resident(b) => &b[lo..hi],
            SegmentSource::Paged {
                cache,
                segment,
                offset,
                ..
            } => {
                let start = *offset + lo as u64;
                if cache.read_into(*segment, start, hi - lo, buf).is_err() {
                    cache
                        .read_into(*segment, start, hi - lo, buf)
                        // panic-exempt: range validated at open; a doubly
                        // failed page fill is unrecoverable probe-time I/O
                        // (scrub/quarantine is the repair path).
                        .expect("paged segment read failed after retry");
                }
                &buf[..]
            }
        }
    }

    /// Materializes the whole stream (tooling: `thaw`, compaction inputs).
    /// A paged stream is read with one extent `pread` that bypasses the
    /// page cache: no fills, no hits, no evictions of the query working set.
    pub fn to_bytes(&self) -> Result<Bytes, StorageError> {
        match self {
            SegmentSource::Resident(b) => Ok(b.clone()),
            SegmentSource::Paged {
                cache,
                segment,
                offset,
                len,
            } => Ok(Bytes::from(cache.read_uncached(*segment, *offset, *len)?)),
        }
    }
}

/// Posting lists served directly from segment payloads.
#[derive(Debug, Clone)]
pub struct ColdPostingStore {
    /// Distinct values (every one has a non-empty list).
    n: usize,
    /// Total posting entries across all lists.
    total_postings: usize,
    /// Front-coding restart interval.
    restart_interval: usize,
    /// Front-coded sorted value stream.
    values: SegmentSource,
    /// Byte offset of each restart point within `values` (u32 LE array).
    /// Always resident: this is the probe "page table".
    restarts: Bytes,
    /// Where each list lives inside `lists`. Always resident, like
    /// `restarts`.
    dir: ListDirectory,
    /// Concatenated block-compressed lists ([`mate_storage::postings`]).
    lists: SegmentSource,
}

impl ColdPostingStore {
    /// Assembles a store from the parsed block parts, validating every
    /// directory offset against its payload before anything is sliced.
    pub(crate) fn new(
        n: usize,
        total_postings: usize,
        restart_interval: usize,
        values: Bytes,
        restarts: Bytes,
        dir: ListDirectory,
        lists: Bytes,
    ) -> Result<Self, StorageError> {
        if restart_interval == 0 {
            return Err(StorageError::InvalidLength {
                context: "value restart interval",
                value: 0,
            });
        }
        let nrestarts = n.div_ceil(restart_interval);
        if restarts.len() != nrestarts * 4 {
            return Err(StorageError::InvalidLength {
                context: "cold directory shape",
                value: restarts.len() as u64,
            });
        }
        // Every directory offset must land inside its payload, monotonically:
        // a corrupt directory fails here instead of panicking at probe time.
        dir.validate(n, lists.len())?;
        let mut prev = 0u32;
        for i in 0..nrestarts {
            let off = u32_at(&restarts, i);
            if (i > 0 && off <= prev) || off as usize >= values.len().max(1) {
                return Err(StorageError::InvalidLength {
                    context: "cold restart offset",
                    value: u64::from(off),
                });
            }
            prev = off;
        }
        let store = ColdPostingStore {
            n,
            total_postings,
            restart_interval,
            values: SegmentSource::Resident(values),
            restarts,
            dir,
            lists: SegmentSource::Resident(lists),
        };
        store.validate_streams()?;
        Ok(store)
    }

    /// Rebinds the value and list streams of a *validated* resident store
    /// to paged extents of the segment file (`values_off` / `lists_off`
    /// are the streams' byte offsets within that file). The restart and
    /// list directories are deep-copied: a `Bytes` slice would keep the
    /// whole segment buffer alive, defeating the point of paging.
    pub(crate) fn into_paged(
        self,
        cache: Arc<PageCache>,
        segment: u64,
        values_off: u64,
        lists_off: u64,
    ) -> ColdPostingStore {
        let detach = |b: &Bytes| Bytes::from(b.to_vec());
        let dir = ListDirectory {
            lengths: detach(&self.dir.lengths),
            anchors: detach(&self.dir.anchors),
            interval: self.dir.interval,
        };
        ColdPostingStore {
            n: self.n,
            total_postings: self.total_postings,
            restart_interval: self.restart_interval,
            values: SegmentSource::Paged {
                cache: Arc::clone(&cache),
                segment,
                offset: values_off,
                len: self.values.len(),
            },
            restarts: detach(&self.restarts),
            dir,
            lists: SegmentSource::Paged {
                cache,
                segment,
                offset: lists_off,
                len: self.lists.len(),
            },
        }
    }

    /// A fully resident clone of this store (compaction inputs and
    /// `thaw()` read whole streams; re-validation is skipped — the store
    /// was validated when it was opened).
    pub(crate) fn materialized(&self) -> Result<ColdPostingStore, StorageError> {
        Ok(ColdPostingStore {
            n: self.n,
            total_postings: self.total_postings,
            restart_interval: self.restart_interval,
            values: SegmentSource::Resident(self.values.to_bytes()?),
            restarts: self.restarts.clone(),
            dir: self.dir.clone(),
            lists: SegmentSource::Resident(self.lists.to_bytes()?),
        })
    }

    /// Walks the value stream and every list header once, so that probe-time
    /// decoding is infallible for any segment that passes `open` — a crafted
    /// CRC-valid segment with malformed varints, out-of-bounds front-coding
    /// lengths, invalid UTF-8, unsorted values, or lying block widths fails
    /// *here* with a structured error instead of panicking mid-probe.
    /// Payload bit-streams are never decoded (widths and byte accounting are
    /// checked instead), so this is O(values + list headers), not O(postings).
    fn validate_streams(&self) -> Result<(), StorageError> {
        // Only resident stores are validated: `new` always constructs one,
        // and `into_paged` rebinds a store that already passed this walk.
        let SegmentSource::Resident(values) = &self.values else {
            return Ok(());
        };
        let mut cur: Vec<u8> = Vec::new();
        let mut prev: Vec<u8> = Vec::new();
        let mut rest: &[u8] = values;
        for i in 0..self.n {
            if i % self.restart_interval == 0 {
                // The restart index must point exactly at this record.
                let at = (self.values.len() - rest.len()) as u32;
                if u32_at(&self.restarts, i / self.restart_interval) != at {
                    return Err(StorageError::InvalidLength {
                        context: "cold restart offset",
                        value: u64::from(at),
                    });
                }
                let len = varint::read_u64(&mut rest)? as usize;
                if len > rest.len() {
                    return Err(StorageError::UnexpectedEof {
                        context: "cold value stream",
                    });
                }
                cur.clear();
                cur.extend_from_slice(&rest[..len]);
                rest = &rest[len..];
            } else {
                let shared = varint::read_u64(&mut rest)? as usize;
                let suffix = varint::read_u64(&mut rest)? as usize;
                if shared > cur.len() || suffix > rest.len() {
                    return Err(StorageError::UnexpectedEof {
                        context: "cold value stream",
                    });
                }
                cur.truncate(shared);
                cur.extend_from_slice(&rest[..suffix]);
                rest = &rest[suffix..];
            }
            if std::str::from_utf8(&cur).is_err() {
                return Err(StorageError::InvalidUtf8);
            }
            // Strictly ascending — find_ordinal's binary search relies on it.
            if i > 0 && cur <= prev {
                return Err(StorageError::InvalidLength {
                    context: "cold value order",
                    value: i as u64,
                });
            }
            // `cur` must survive as the front-coding base for the next
            // record, so the order check keeps a copy instead of swapping.
            prev.clone_from(&cur);
        }
        if !rest.is_empty() {
            return Err(StorageError::InvalidLength {
                context: "cold value stream slack",
                value: rest.len() as u64,
            });
        }

        let mut scratch = mate_storage::postings::ListScratch::new();
        let mut ext: Vec<u8> = Vec::new();
        let mut total = 0usize;
        for i in 0..self.n as u32 {
            total +=
                mate_storage::postings::validate_list(self.list_bytes(i, &mut ext), &mut scratch)?;
        }
        if total != self.total_postings {
            return Err(StorageError::InvalidLength {
                context: "cold posting total",
                value: total as u64,
            });
        }
        Ok(())
    }

    /// Raw bytes of the `i`-th list, staged through `ext` when paged.
    #[inline]
    fn list_bytes<'a>(&'a self, i: u32, ext: &'a mut Vec<u8>) -> &'a [u8] {
        let (lo, hi) = self.dir.bounds(i as usize);
        self.lists.read(lo, hi, ext)
    }

    /// Bytes of one restart *group*: the restart record plus the at most
    /// `restart_interval - 1` front-coded records that follow it, ending at
    /// the next restart (or the end of the value stream). One bounded
    /// extent read per binary-search comparison in the paged mode.
    fn restart_group<'a>(&'a self, restart: usize, ext: &'a mut Vec<u8>) -> &'a [u8] {
        let lo = u32_at(&self.restarts, restart) as usize;
        let hi = if restart + 1 < self.restarts.len() / 4 {
            u32_at(&self.restarts, restart + 1) as usize
        } else {
            self.values.len()
        };
        self.values.read(lo, hi, ext)
    }

    /// Decodes the full string opening a restart group, returning
    /// `(value bytes, rest of the group)`.
    fn restart_first(group: &[u8]) -> (&[u8], &[u8]) {
        let mut at = group;
        // panic-exempt: restart offsets and their varints were decoded
        // once by the open-time validation walk.
        let len = varint::read_u64(&mut at).expect("validated at open") as usize;
        (&at[..len], &at[len..])
    }

    /// Finds the ordinal of `value` via restart binary search plus a bounded
    /// forward scan, reconstructing at most `restart_interval` values into
    /// `buf`; `ext` stages one restart group at a time when paged.
    fn find_ordinal(&self, value: &str, ext: &mut Vec<u8>, buf: &mut Vec<u8>) -> Option<u32> {
        if self.n == 0 {
            return None;
        }
        let target = value.as_bytes();
        let nrestarts = self.restarts.len() / 4;
        // Greatest restart whose first value is <= target.
        let (mut lo, mut hi) = (0usize, nrestarts);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if Self::restart_first(self.restart_group(mid, ext)).0 <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let group_bytes = self.restart_group(lo, ext);
        let (first, mut rest) = Self::restart_first(group_bytes);
        if first > target {
            return None; // smaller than the smallest value
        }
        if first == target {
            return Some((lo * self.restart_interval) as u32);
        }
        buf.clear();
        buf.extend_from_slice(first);
        let group = self
            .restart_interval
            .min(self.n - lo * self.restart_interval);
        for i in 1..group {
            // panic-exempt: prefix-compression varints were decoded once
            // by the open-time validation walk.
            let shared = varint::read_u64(&mut rest).expect("validated at open") as usize;
            // panic-exempt: same open-time varint validation as above.
            let suffix = varint::read_u64(&mut rest).expect("validated at open") as usize;
            buf.truncate(shared);
            buf.extend_from_slice(&rest[..suffix]);
            rest = &rest[suffix..];
            if buf.as_slice() == target {
                return Some((lo * self.restart_interval + i) as u32);
            }
            if buf.as_slice() > target {
                return None; // sorted: passed the insertion point
            }
        }
        None
    }

    /// Iterates `(value, decoded posting list)` pairs in sorted-value order,
    /// decoding everything — the migration/testing path, not the probe path.
    /// A paged store materializes its value stream once up front.
    pub fn iter_decoded(&self) -> impl Iterator<Item = (String, Vec<PostingEntry>)> + '_ {
        let values = self
            .values
            .to_bytes()
            // panic-exempt: tooling-path materialization of a store that
            // was validated at open; a failed whole-stream read here has
            // no recovery short of scrub/quarantine.
            .expect("cold value stream read failed");
        let mut pos = 0usize;
        let mut buf: Vec<u8> = Vec::new();
        let mut ext: Vec<u8> = Vec::new();
        (0..self.n as u32).map(move |i| {
            let mut rest = &values[pos..];
            if (i as usize).is_multiple_of(self.restart_interval) {
                // panic-exempt: open-time varint validation (see bounds).
                let len = varint::read_u64(&mut rest).expect("validated at open") as usize;
                buf.clear();
                buf.extend_from_slice(&rest[..len]);
                rest = &rest[len..];
            } else {
                // panic-exempt: open-time varint validation (see bounds).
                let shared = varint::read_u64(&mut rest).expect("validated at open") as usize;
                // panic-exempt: open-time varint validation (see bounds).
                let suffix = varint::read_u64(&mut rest).expect("validated at open") as usize;
                buf.truncate(shared);
                buf.extend_from_slice(&rest[..suffix]);
                rest = &rest[suffix..];
            }
            pos = values.len() - rest.len();
            let mut raw = Vec::new();
            let list_bytes = self.list_bytes(i, &mut ext);
            // panic-exempt: every list decoded once by the open-time walk.
            postings::decode_list(list_bytes, &mut raw).expect("validated at open");
            let list = raw
                .into_iter()
                .map(|(t, c, r)| PostingEntry::new(t, c, r))
                .collect();
            (
                // panic-exempt: values were UTF-8-checked at open.
                String::from_utf8(buf.clone()).expect("validated at open"),
                list,
            )
        })
    }

    /// Bytes of segment payload this store addresses — resident or paged
    /// (the stable "cold stack size" statistic).
    pub fn mapped_bytes(&self) -> usize {
        self.values.len() + self.restarts.len() + self.dir.mapped_bytes() + self.lists.len()
    }

    /// Bytes this store itself keeps resident: the restart and list
    /// directories always, plus the payload streams when not paged (a
    /// paged store's pages are accounted to the shared cache instead).
    pub fn resident_bytes(&self) -> usize {
        self.values.resident_bytes()
            + self.restarts.len()
            + self.dir.mapped_bytes()
            + self.lists.resident_bytes()
    }

    /// Whether the payload streams are served through a page cache.
    pub fn is_paged(&self) -> bool {
        matches!(self.values, SegmentSource::Paged { .. })
    }

    /// Bytes of the list-offset directory alone.
    pub fn directory_bytes(&self) -> usize {
        self.dir.mapped_bytes()
    }
}

impl PostingSource for ColdPostingStore {
    fn find_list(&self, value: &str, scratch: &mut ProbeScratch) -> Option<ListHandle> {
        let ProbeScratch { buf, ext, .. } = scratch;
        let id = self.find_ordinal(value, ext, buf)?;
        // Only the leading count varint is needed, not the whole list.
        let (lo, hi) = self.dir.bounds(id as usize);
        let prefix = self
            .lists
            .read(lo, hi.min(lo + varint::MAX_VARINT_LEN), ext);
        // panic-exempt: every list header decoded once by the open walk.
        let len = postings::list_count(prefix).expect("validated at open");
        Some(ListHandle {
            id,
            len: len as u32,
        })
    }

    fn table_runs(
        &self,
        list: ListHandle,
        scratch: &mut ProbeScratch,
        f: &mut dyn FnMut(u32, u32),
    ) {
        let ProbeScratch {
            list: list_scratch,
            ext,
            ..
        } = scratch;
        postings::table_runs(self.list_bytes(list.id, ext), list_scratch, f)
            // panic-exempt: every list decoded once by the open-time walk.
            .expect("validated at open");
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
        let before = out.len();
        let ProbeScratch {
            list: list_scratch,
            raw,
            ext,
            ..
        } = scratch;
        raw.clear();
        postings::collect_range(
            self.list_bytes(list.id, ext),
            start as usize,
            len as usize,
            list_scratch,
            raw,
            counters,
        )
        // panic-exempt: every list decoded once by the open-time walk.
        .expect("validated at open");
        out.extend(raw.iter().map(|&(t, c, r)| PostingEntry::new(t, c, r)));
        debug_assert_eq!(out.len() - before, len as usize);
    }

    fn num_values(&self) -> usize {
        self.n
    }

    fn num_postings(&self) -> usize {
        self.total_postings
    }
}

/// A read-only index serving discovery from segment bytes: compressed
/// posting lists stay encoded; only super keys are materialized.
#[derive(Debug)]
pub struct ColdIndex {
    pub(crate) store: ColdPostingStore,
    pub(crate) superkeys: SuperKeyStore,
    pub(crate) hasher_name: String,
}

impl ColdIndex {
    pub(crate) fn new(
        store: ColdPostingStore,
        superkeys: SuperKeyStore,
        hasher_name: String,
    ) -> Self {
        ColdIndex {
            store,
            superkeys,
            hasher_name,
        }
    }

    /// The compressed posting store.
    pub fn store(&self) -> &ColdPostingStore {
        &self.store
    }

    /// Super key of `(table, row)`, same layout as the hot index.
    #[inline]
    pub fn superkey(&self, table: mate_table::TableId, row: mate_table::RowId) -> &[u64] {
        self.superkeys.key(table, row)
    }

    /// The super-key store.
    pub fn superkeys(&self) -> &SuperKeyStore {
        &self.superkeys
    }

    /// Hash size of the super keys.
    pub fn hash_size(&self) -> HashSize {
        self.superkeys.hash_size()
    }

    /// Name of the hash function that produced the super keys.
    pub fn hasher_name(&self) -> &str {
        &self.hasher_name
    }

    /// Distinct indexed values.
    pub fn num_values(&self) -> usize {
        self.store.n
    }

    /// Total posting entries.
    pub fn num_postings(&self) -> usize {
        self.store.total_postings
    }

    /// Upgrades to a fully materialized [`InvertedIndex`] (for workloads
    /// that need §5.4 incremental updates — the cold store is read-only).
    pub fn thaw(&self) -> InvertedIndex {
        let mut index = InvertedIndex::empty(self.hash_size(), self.hasher_name.clone());
        for (value, list) in self.store.iter_decoded() {
            let vid = index.store.intern(&value);
            index.store.load_list(vid, &list);
        }
        index.superkeys = self.superkeys.clone();
        index
    }

    /// Size/shape statistics. `on_disk_postings_bytes` is the mapped
    /// segment payload; `heap_postings_bytes` is what this mode actually
    /// holds on the heap beyond the shared segment buffer (nothing — the
    /// directory slices are zero-copy views).
    pub fn stats(&self) -> IndexStats {
        let key_bytes = self.hash_size().bits() / 8;
        IndexStats {
            num_values: self.num_values(),
            num_postings: self.num_postings(),
            num_superkeys: self.superkeys.total_keys(),
            posting_bytes: self.num_postings() * std::mem::size_of::<PostingEntry>(),
            posting_store_bytes: 0,
            posting_map_bytes: 0,
            value_arena_bytes: 0,
            on_disk_postings_bytes: self.store.mapped_bytes(),
            heap_postings_bytes: 0,
            superkey_bytes_per_row: self.superkeys.payload_bytes(),
            superkey_bytes_per_cell: self.num_postings() * key_bytes,
            hash_bits: self.hash_size().bits(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::persist;
    use mate_hash::Xash;
    use mate_obs::Obs;
    use mate_storage::segment::SegmentReader;
    use mate_storage::vfs::FaultVfs;
    use mate_table::{Corpus, TableBuilder};

    #[test]
    fn paged_materialization_bypasses_the_cache_and_keeps_faults_typed() {
        let mut corpus = Corpus::new();
        for t in 0..40 {
            let mut b = TableBuilder::new(format!("t{t}"), ["a", "b"]);
            for r in 0..60 {
                b = b.row([format!("v{}", (t * 7 + r) % 150), format!("w{r}")]);
            }
            corpus.add_table(b.build());
        }
        let index = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus);
        let data = persist::index_to_bytes(&index);
        let dir = std::env::temp_dir().join(format!("mate-cold-bypass-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        std::fs::write(&path, &data).unwrap();

        let seg = SegmentReader::open(data).unwrap();
        let resident = persist::read_cold_store(&seg).unwrap();
        let vfs = Arc::new(FaultVfs::new());
        let cache = Arc::new(PageCache::new(
            Arc::new(Arc::clone(&vfs)),
            64,
            1 << 20,
            &Arc::new(Obs::new()),
        ));
        cache.register_segment(3, &path);
        let paged = persist::read_cold_store_paged(&seg, &cache, 3).unwrap();
        assert!(paged.is_paged());

        let before = cache.stats();
        let copy = paged.materialized().unwrap();
        assert_eq!(cache.stats(), before, "no page hit, fill or eviction");
        assert_eq!(
            copy.values.to_bytes().unwrap(),
            resident.values.to_bytes().unwrap()
        );
        assert_eq!(
            copy.lists.to_bytes().unwrap(),
            resident.lists.to_bytes().unwrap()
        );
        assert!(copy.iter_decoded().eq(resident.iter_decoded()));

        vfs.fail_nth(1);
        let e = paged.materialized().unwrap_err();
        assert!(matches!(e, StorageError::IoAt { .. }), "{e}");
        assert_eq!(vfs.injected(), 1);
        assert_eq!(cache.stats(), before);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
