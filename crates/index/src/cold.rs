//! Cold serving: posting lookups straight out of segment files.
//!
//! [`crate::persist::load_index`] materializes a full [`PostingStore`] —
//! every list decoded, every value re-interned — before the first query can
//! run. The engine's cold segments skip that work and that memory: the
//! query phase of Algorithm 1 touches only the lists of the query's initial
//! column, and (with the §6.2 pruning rules) decodes only a fraction of
//! those.
//!
//! [`ColdPostingStore`] serves the `index.values2` / `index.postings3`
//! payloads as demand-paged extents of the segment *file* through a
//! budgeted [`mate_storage::pager::PageCache`], so resident memory does not
//! grow with the cold stack. Probes decode only the bytes they touch into
//! small reusable scratch buffers:
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
//! Everything that reads a whole stream runs over one byte view of a
//! segment's streams (`StreamView`): open-time validation, the hot load
//! behind [`crate::persist::index_from_bytes`], and compaction inputs. A
//! compaction reads its view with one extent `pread` per stream that
//! bypasses the page cache: the cache's small pages are sized for probes,
//! and a materialization served through them would cost thousands of fills
//! and evict the query working set.
//!
//! The always-resident state of a store is the tiny restart/list
//! directories — the probe "page table". Open-time validation walks every
//! directory and stream, so probe-time decoding is infallible.
//!
//! [`PostingStore`]: crate::store::PostingStore

use crate::posting::PostingEntry;
use crate::source::{ListHandle, PostingSource, ProbeCounters, ProbeScratch};
use bytes::Bytes;
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

/// Decodes the next front-coded record of a value stream into `cur` — a
/// restart record (full string) when `restart`, else a shared-prefix
/// length plus suffix over the previous value — and advances `rest`.
fn next_value(rest: &mut &[u8], cur: &mut Vec<u8>, restart: bool) -> Result<(), StorageError> {
    let shared = if restart {
        0
    } else {
        varint::read_u64(rest)? as usize
    };
    let len = varint::read_u64(rest)? as usize;
    if shared > cur.len() || len > rest.len() {
        return Err(StorageError::UnexpectedEof {
            context: "cold value stream",
        });
    }
    cur.truncate(shared);
    cur.extend_from_slice(&rest[..len]);
    *rest = &rest[len..];
    Ok(())
}

/// One segment's posting streams as whole byte buffers: the front-coded
/// value stream, its restart index, the list directory and the list
/// payload. All four are zero-copy slices of one segment's [`Bytes`] (or,
/// for a compaction input, the two streams of a validated segment file read
/// whole). Open-time validation and every whole-stream decode run over
/// this view; probes never do — they go through a [`ColdPostingStore`].
#[derive(Debug)]
pub(crate) struct StreamView {
    /// Distinct values (every one has a non-empty list).
    n: usize,
    /// Total posting entries across all lists.
    total_postings: usize,
    /// Front-coding restart interval.
    restart_interval: usize,
    /// Front-coded sorted value stream.
    values: Bytes,
    /// Byte offset of each restart point within `values` (u32 LE array).
    restarts: Bytes,
    /// Where each list lives inside `lists`.
    dir: ListDirectory,
    /// Concatenated block-compressed lists ([`mate_storage::postings`]).
    lists: Bytes,
}

impl StreamView {
    /// Assembles a view from the parsed block parts and validates it, so
    /// that probes of a store built from it ([`StreamView::into_paged`])
    /// and its whole-stream decode meet only well-formed bytes.
    pub(crate) fn new(
        n: usize,
        total_postings: usize,
        restart_interval: usize,
        values: Bytes,
        restarts: Bytes,
        dir: ListDirectory,
        lists: Bytes,
    ) -> Result<Self, StorageError> {
        let view = StreamView {
            n,
            total_postings,
            restart_interval,
            values,
            restarts,
            dir,
            lists,
        };
        view.validate()?;
        Ok(view)
    }

    /// Checks every directory offset against its payload, then walks the
    /// value stream and every list header once — a crafted CRC-valid
    /// segment with malformed varints, out-of-bounds front-coding lengths,
    /// invalid UTF-8, unsorted values, or lying block widths fails *here*
    /// with a structured error instead of panicking mid-probe. Payload
    /// bit-streams are never decoded (widths and byte accounting are
    /// checked instead), so this is O(values + list headers), not
    /// O(postings).
    fn validate(&self) -> Result<(), StorageError> {
        if self.restart_interval == 0 {
            return Err(StorageError::InvalidLength {
                context: "value restart interval",
                value: 0,
            });
        }
        let nrestarts = self.n.div_ceil(self.restart_interval);
        if self.restarts.len() != nrestarts * 4 {
            return Err(StorageError::InvalidLength {
                context: "cold directory shape",
                value: self.restarts.len() as u64,
            });
        }
        self.dir.validate(self.n, self.lists.len())?;
        let mut cur: Vec<u8> = Vec::new();
        let mut prev: Vec<u8> = Vec::new();
        let mut rest: &[u8] = &self.values;
        for i in 0..self.n {
            let restart = i % self.restart_interval == 0;
            if restart {
                // The restart index must point exactly at this record.
                let at = (self.values.len() - rest.len()) as u32;
                if u32_at(&self.restarts, i / self.restart_interval) != at {
                    return Err(StorageError::InvalidLength {
                        context: "cold restart offset",
                        value: u64::from(at),
                    });
                }
            }
            next_value(&mut rest, &mut cur, restart)?;
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

        let mut scratch = postings::ListScratch::new();
        let mut total = 0usize;
        for i in 0..self.n {
            let (lo, hi) = self.dir.bounds(i);
            total += postings::validate_list(&self.lists[lo..hi], &mut scratch)?;
        }
        if total != self.total_postings {
            return Err(StorageError::InvalidLength {
                context: "cold posting total",
                value: total as u64,
            });
        }
        Ok(())
    }

    /// Calls `f(value, list)` for every value in sorted order with its
    /// fully decoded posting list — the load and compaction path, not the
    /// probe path. Every step is checked: a compaction input re-read from
    /// a file that changed since open returns an error, never a panic.
    pub(crate) fn decode_each(
        &self,
        mut f: impl FnMut(&str, &[PostingEntry]),
    ) -> Result<(), StorageError> {
        let mut rest: &[u8] = &self.values;
        let mut value: Vec<u8> = Vec::new();
        let mut raw = Vec::new();
        let mut list: Vec<PostingEntry> = Vec::new();
        for i in 0..self.n {
            next_value(&mut rest, &mut value, i % self.restart_interval == 0)?;
            let (lo, hi) = self.dir.bounds(i);
            let bytes = self.lists.get(lo..hi).ok_or(StorageError::UnexpectedEof {
                context: "cold list payload",
            })?;
            raw.clear();
            postings::decode_list(bytes, &mut raw)?;
            list.clear();
            list.extend(raw.iter().map(|&(t, c, r)| PostingEntry::new(t, c, r)));
            let value = std::str::from_utf8(&value).map_err(|_| StorageError::InvalidUtf8)?;
            f(value, &list);
        }
        Ok(())
    }

    /// The probe store over this (validated) view's segment: the value and
    /// list streams become demand-paged extents of the segment file at
    /// `values_off` / `lists_off`, read through `cache` (which knows the
    /// file as `segment`). The restart and list directories are
    /// deep-copied: a `Bytes` slice would keep the whole segment buffer
    /// alive, defeating the point of paging.
    pub(crate) fn into_paged(
        self,
        cache: Arc<PageCache>,
        segment: u64,
        values_off: u64,
        lists_off: u64,
    ) -> ColdPostingStore {
        let detach = |b: &Bytes| Bytes::from(b.to_vec());
        ColdPostingStore {
            n: self.n,
            total_postings: self.total_postings,
            restart_interval: self.restart_interval,
            values: SegmentSource {
                cache: Arc::clone(&cache),
                segment,
                offset: values_off,
                len: self.values.len(),
            },
            restarts: detach(&self.restarts),
            dir: ListDirectory {
                lengths: detach(&self.dir.lengths),
                anchors: detach(&self.dir.anchors),
                interval: self.dir.interval,
            },
            lists: SegmentSource {
                cache,
                segment,
                offset: lists_off,
                len: self.lists.len(),
            },
        }
    }
}

/// A payload stream of a [`ColdPostingStore`]: an extent of an immutable
/// segment file, read page-wise through the engine's shared, budgeted
/// [`PageCache`]. Open-time validation has checked every offset a probe
/// addresses within it.
#[derive(Debug, Clone)]
struct SegmentSource {
    /// The shared page cache filling from the segment file.
    cache: Arc<PageCache>,
    /// Segment id the file was registered under.
    segment: u64,
    /// Byte offset of this stream within the segment file.
    offset: u64,
    /// Stream length in bytes.
    len: usize,
}

impl SegmentSource {
    /// Infallible probe-path read: open-time validation guarantees the
    /// range is well-formed, so the only failure left is I/O on a page
    /// fill. One retry absorbs transient faults (the cache caches nothing
    /// on a failed fill); a fill that fails twice is unrecoverable at
    /// probe time and panics rather than serving wrong results.
    fn read<'a>(&self, lo: usize, hi: usize, buf: &'a mut Vec<u8>) -> &'a [u8] {
        let start = self.offset + lo as u64;
        if self
            .cache
            .read_into(self.segment, start, hi - lo, buf)
            .is_err()
        {
            self.cache
                .read_into(self.segment, start, hi - lo, buf)
                // panic-exempt: range validated at open; a doubly failed
                // page fill is unrecoverable probe-time I/O
                // (scrub/quarantine is the repair path).
                .expect("paged segment read failed after retry");
        }
        &buf[..]
    }

    /// The whole stream, read with one extent `pread` that bypasses the
    /// page cache: no fills, no hits, no evictions of the query working
    /// set.
    fn read_all(&self) -> Result<Bytes, StorageError> {
        Ok(Bytes::from(self.cache.read_uncached(
            self.segment,
            self.offset,
            self.len,
        )?))
    }
}

/// Posting lists served from a segment file through the page cache.
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
    /// The store's streams read whole — one uncached `pread` each — under
    /// its resident directories: the input a compaction decodes.
    pub(crate) fn read_view(&self) -> Result<StreamView, StorageError> {
        Ok(StreamView {
            n: self.n,
            total_postings: self.total_postings,
            restart_interval: self.restart_interval,
            values: self.values.read_all()?,
            restarts: self.restarts.clone(),
            dir: self.dir.clone(),
            lists: self.lists.read_all()?,
        })
    }

    /// Raw bytes of the `i`-th list, staged through `ext`.
    #[inline]
    fn list_bytes<'a>(&self, i: u32, ext: &'a mut Vec<u8>) -> &'a [u8] {
        let (lo, hi) = self.dir.bounds(i as usize);
        self.lists.read(lo, hi, ext)
    }

    /// Bytes of one restart *group*: the restart record plus the at most
    /// `restart_interval - 1` front-coded records that follow it, ending at
    /// the next restart (or the end of the value stream). One bounded
    /// extent read per binary-search comparison.
    fn restart_group<'a>(&self, restart: usize, ext: &'a mut Vec<u8>) -> &'a [u8] {
        let lo = u32_at(&self.restarts, restart) as usize;
        let hi = if restart + 1 < self.restarts.len() / 4 {
            u32_at(&self.restarts, restart + 1) as usize
        } else {
            self.values.len
        };
        self.values.read(lo, hi, ext)
    }

    /// Decodes the full string opening a restart group.
    fn restart_first(group: &[u8]) -> &[u8] {
        let mut at = group;
        // panic-exempt: restart offsets and their varints were decoded
        // once by the open-time validation walk.
        let len = varint::read_u64(&mut at).expect("validated at open") as usize;
        &at[..len]
    }

    /// Finds the ordinal of `value` via restart binary search plus a bounded
    /// forward scan, reconstructing at most `restart_interval` values into
    /// `buf`; `ext` stages one restart group at a time.
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
            if Self::restart_first(self.restart_group(mid, ext)) <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut rest = self.restart_group(lo, ext);
        let group = self
            .restart_interval
            .min(self.n - lo * self.restart_interval);
        for i in 0..group {
            // panic-exempt: every record of the value stream was decoded
            // once by the open-time validation walk.
            next_value(&mut rest, buf, i == 0).expect("validated at open");
            match buf.as_slice().cmp(target) {
                std::cmp::Ordering::Equal => return Some((lo * self.restart_interval + i) as u32),
                // Sorted: passed the insertion point (or, for the first
                // record, smaller than the smallest value).
                std::cmp::Ordering::Greater => return None,
                std::cmp::Ordering::Less => {}
            }
        }
        None
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use crate::persist;
    use mate_hash::{HashSize, Xash};
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

        let seg = SegmentReader::open(data.clone()).unwrap();
        let (parsed, values_in, _) = persist::read_stream_view(&seg).unwrap();
        let vfs = Arc::new(FaultVfs::new());
        let cache = Arc::new(PageCache::new(
            Arc::new(Arc::clone(&vfs)),
            64,
            1 << 20,
            &Arc::new(Obs::new()),
        ));
        cache.register_segment(3, &path);
        let paged = persist::read_cold_store_paged(&seg, &cache, 3).unwrap();

        let before = cache.stats();
        let view = paged.read_view().unwrap();
        assert_eq!(cache.stats(), before, "no page hit, fill or eviction");
        assert_eq!(view.values, parsed.values);
        assert_eq!(view.lists, parsed.lists);
        let decoded = |v: &StreamView| {
            let mut out = Vec::new();
            v.decode_each(|value, list| out.push((value.to_string(), list.to_vec())))
                .map(|()| out)
        };
        let all = decoded(&view).unwrap();
        assert_eq!(all, decoded(&parsed).unwrap());
        assert_eq!(all.len(), index.num_values());
        for (value, list) in &all {
            assert_eq!(index.posting_list(value), Some(list.as_slice()));
        }

        vfs.fail_nth(1);
        let e = paged.read_view().unwrap_err();
        assert!(matches!(e, StorageError::IoAt { .. }), "{e}");
        assert_eq!(vfs.injected(), 1);
        assert_eq!(cache.stats(), before);

        // A file that changed after open (bit rot) makes the decode fail
        // with a typed error; it never panics.
        let at = (seg.block_offset("index.values2").unwrap() + values_in) as usize;
        let mut rotten = data.to_vec();
        rotten[at..at + 16].fill(0xFF);
        std::fs::write(&path, &rotten).unwrap();
        let e = paged
            .read_view()
            .unwrap()
            .decode_each(|_, _| {})
            .unwrap_err();
        assert!(matches!(e, StorageError::VarintOverflow), "{e}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
