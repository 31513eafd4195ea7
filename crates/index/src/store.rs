//! Flattened, arena-backed posting storage with copy-on-write chunks.
//!
//! The seed implementation kept postings in a
//! `FxHashMap<Box<str>, Vec<PostingEntry>>`: one heap allocation per distinct
//! value for the key, another for the posting `Vec`, and a pointer chase per
//! lookup. [`PostingStore`] flattens all of that into a handful of big
//! buffers:
//!
//! * `arena` — every distinct value's bytes, concatenated;
//! * `spans` — per value id, the `(offset, len)` of its bytes in `arena`;
//! * `chunks` — **all** posting entries, stored as a sequence of
//!   `Arc<Vec<PostingEntry>>` chunks of at most `CHUNK_CAP` slots; each
//!   value's live entries form one contiguous run inside a single chunk;
//! * `ranges` — per value id, the `(chunk, offset, len, capacity)` of its
//!   run.
//!
//! Lookup goes through an open-addressing table (`value → value id`, FxHash,
//! linear probing) instead of a general-purpose hash map, so interning a
//! value that already exists performs **zero allocations** — the probe
//! compares against arena bytes directly. Value ids are dense (`0..n` in
//! first-intern order), which the index builder exploits to replace its
//! value→hash cache map with a plain `Vec` indexed by value id.
//!
//! Chunking exists for the engine's snapshot path: a published snapshot
//! holds a clone of the memtable store, and the first write after a publish
//! must copy-on-write. With a single entries `Vec` that copy was
//! proportional to the whole memtable (the PR-5 cliff); with `Arc` chunks a
//! clone shares every chunk pointer and a write copies only the one chunk
//! (≤ `CHUNK_CAP` entries) it touches via `Arc::make_mut`. The small
//! side tables (arena, spans, ranges, lookup table) are still copied
//! wholesale — posting entries dominate memtable bytes, so that is the
//! cheap part by design.
//!
//! Mutation (the §5.4 incremental updates) uses a slab discipline: a run
//! that outgrows its capacity is relocated to the tail chunk with doubled
//! capacity, leaving a dead hole that a compaction sweep reclaims once
//! holes exceed half the allocated slots. Runs never span chunks; a run
//! larger than `CHUNK_CAP` gets a dedicated oversized chunk of its own.
//! Appends during bulk builds are amortized O(1); the build finishes with
//! [`PostingStore::compact`], which packs runs back-to-back in value-id
//! order with zero slack.

use crate::posting::PostingEntry;
use std::hash::{BuildHasher, Hasher};
use std::sync::Arc;

/// Maximum slots per entries chunk (larger runs get a dedicated chunk).
/// 4096 × 12-byte entries ≈ 48 KiB: small enough that a post-publish COW
/// copies a bounded sliver, large enough that chunk bookkeeping is noise.
pub(crate) const CHUNK_CAP: usize = 4096;

/// One value's run inside [`PostingStore`]'s chunked entry storage.
#[derive(Debug, Clone, Copy)]
struct PlRange {
    /// Chunk holding the run.
    chunk: u32,
    /// First slot of the run within its chunk.
    off: u32,
    /// Live entries.
    len: u32,
    /// Allocated slots (`len..cap` is slack).
    cap: u32,
}

const EMPTY_SLOT: u32 = 0;

/// Arena-backed posting storage: all distinct values interned into one
/// string arena, all posting entries in chunked copy-on-write buffers.
#[derive(Debug, Clone)]
pub struct PostingStore {
    arena: String,
    /// Value id → `(byte offset, byte len)` into `arena`.
    spans: Vec<(u32, u32)>,
    /// Value id → FxHash of the value (avoids re-hashing on table resize).
    hashes: Vec<u64>,
    /// Value id → run of posting entries.
    ranges: Vec<PlRange>,
    /// All posting entries; per-value runs are contiguous within one chunk.
    /// `Arc` so a cloned store shares chunks until a write COWs one.
    chunks: Vec<Arc<Vec<PostingEntry>>>,
    /// Open-addressing lookup table holding `value id + 1` (0 = empty).
    /// Length is always a power of two.
    table: Vec<u32>,
    /// Values with at least one live posting entry.
    live_values: usize,
    /// Total live posting entries.
    live_postings: usize,
    /// Total allocated slots across all chunks.
    slots: usize,
    /// Dead slots (abandoned by relocations/removals).
    dead: usize,
}

impl Default for PostingStore {
    fn default() -> Self {
        PostingStore::new()
    }
}

impl PostingStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PostingStore {
            arena: String::new(),
            spans: Vec::new(),
            hashes: Vec::new(),
            ranges: Vec::new(),
            chunks: Vec::new(),
            table: vec![EMPTY_SLOT; 16],
            live_values: 0,
            live_postings: 0,
            slots: 0,
            dead: 0,
        }
    }

    // ------------------------------------------------------------ lookup --

    #[inline]
    fn hash_value(value: &str) -> u64 {
        let mut h = mate_hash::fx::FxBuildHasher::default().build_hasher();
        h.write(value.as_bytes());
        h.finish()
    }

    #[inline]
    fn value_at(&self, vid: u32) -> &str {
        let (off, len) = self.spans[vid as usize];
        &self.arena[off as usize..(off + len) as usize]
    }

    /// The interned text of `vid`.
    #[inline]
    pub fn value(&self, vid: u32) -> &str {
        self.value_at(vid)
    }

    /// Finds the value id of `value`, if interned.
    #[inline]
    pub fn lookup(&self, value: &str) -> Option<u32> {
        let mask = self.table.len() - 1;
        let mut slot = (Self::hash_value(value) as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY_SLOT => return None,
                stored => {
                    let vid = stored - 1;
                    if self.value_at(vid) == value {
                        return Some(vid);
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// Interns `value`, returning its dense id. Existing values are found
    /// without allocating; new values extend the arena.
    pub fn intern(&mut self, value: &str) -> u32 {
        let hash = Self::hash_value(value);
        let mask = self.table.len() - 1;
        let mut slot = (hash as usize) & mask;
        loop {
            match self.table[slot] {
                EMPTY_SLOT => break,
                stored => {
                    let vid = stored - 1;
                    if self.value_at(vid) == value {
                        return vid;
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
        // New value.
        let vid = self.spans.len() as u32;
        assert!(
            self.arena.len() + value.len() <= u32::MAX as usize,
            "value arena exceeds 4 GiB; widen PostingStore spans"
        );
        self.spans
            .push((self.arena.len() as u32, value.len() as u32));
        self.arena.push_str(value);
        self.hashes.push(hash);
        self.ranges.push(PlRange {
            chunk: 0,
            off: 0,
            len: 0,
            cap: 0,
        });
        self.table[slot] = vid + 1;
        // Keep load factor below ~0.7 for linear probing.
        if (self.spans.len() + 1) * 10 > self.table.len() * 7 {
            self.grow_table();
        }
        vid
    }

    fn grow_table(&mut self) {
        let new_len = self.table.len() * 2;
        let mask = new_len - 1;
        let mut table = vec![EMPTY_SLOT; new_len];
        for (vid, &hash) in self.hashes.iter().enumerate() {
            let mut slot = (hash as usize) & mask;
            while table[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            table[slot] = vid as u32 + 1;
        }
        self.table = table;
    }

    // ----------------------------------------------------------- reading --

    /// Number of distinct interned values (including ones whose posting run
    /// is currently empty).
    #[inline]
    pub fn num_interned(&self) -> usize {
        self.spans.len()
    }

    /// Number of values with at least one live posting entry.
    #[inline]
    pub fn num_values(&self) -> usize {
        self.live_values
    }

    /// Total live posting entries.
    #[inline]
    pub fn num_postings(&self) -> usize {
        self.live_postings
    }

    /// The posting run of `vid` as a contiguous slice.
    #[inline]
    pub fn postings(&self, vid: u32) -> &[PostingEntry] {
        let r = self.ranges[vid as usize];
        if r.len == 0 {
            return &[];
        }
        &self.chunks[r.chunk as usize][r.off as usize..(r.off + r.len) as usize]
    }

    /// Posting list of `value`, or `None` if the value is unknown or all its
    /// entries were removed (matching the seed's map-removal semantics).
    #[inline]
    pub fn posting_list(&self, value: &str) -> Option<&[PostingEntry]> {
        let vid = self.lookup(value)?;
        let pl = self.postings(vid);
        if pl.is_empty() {
            None
        } else {
            Some(pl)
        }
    }

    /// Iterates `(value, posting list)` for every value with live entries,
    /// in value-id (first-intern) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &[PostingEntry])> {
        (0..self.spans.len() as u32).filter_map(move |vid| {
            let pl = self.postings(vid);
            if pl.is_empty() {
                None
            } else {
                Some((self.value_at(vid), pl))
            }
        })
    }

    // ---------------------------------------------------------- mutation --

    /// Allocates `n` placeholder slots at the tail: extends the last chunk
    /// when the run fits, otherwise opens a new chunk (dedicated when
    /// `n > CHUNK_CAP`). Returns the `(chunk, offset)` of the new slots.
    fn alloc(&mut self, n: usize) -> (u32, u32) {
        debug_assert!(n > 0, "alloc of zero slots");
        let zero = PostingEntry::new(0u32, 0u32, 0u32);
        if n <= CHUNK_CAP {
            if let Some(last) = self.chunks.last_mut() {
                let off = last.len();
                if off + n <= CHUNK_CAP {
                    Arc::make_mut(last).resize(off + n, zero);
                    self.slots += n;
                    return ((self.chunks.len() - 1) as u32, off as u32);
                }
            }
        }
        self.chunks.push(Arc::new(vec![zero; n]));
        self.slots += n;
        ((self.chunks.len() - 1) as u32, 0)
    }

    /// Makes room for one more entry in `vid`'s run, relocating it to the
    /// tail with doubled capacity when full.
    fn ensure_room(&mut self, vid: u32) {
        // Compact *before* growing, never after: compaction resets every
        // run to `cap == len`, so running it later would destroy the slack
        // this call is about to hand to the caller.
        if self.dead > self.slots / 2 && self.slots > 1024 {
            self.compact();
        }
        let r = self.ranges[vid as usize];
        if r.len < r.cap {
            return;
        }
        let new_cap = (r.cap * 2).max(4);
        let zero = PostingEntry::new(0u32, 0u32, 0u32);
        let at_tail = r.chunk as usize + 1 == self.chunks.len()
            && (r.off + r.cap) as usize == self.chunks[r.chunk as usize].len();
        if at_tail && (r.off == 0 || (r.off + new_cap) as usize <= CHUNK_CAP) {
            // Run at the tail of the last chunk: extend in place. A run
            // starting at offset 0 owns its chunk outright and may grow
            // past CHUNK_CAP (oversized dedicated chunk).
            let chunk = Arc::make_mut(&mut self.chunks[r.chunk as usize]);
            chunk.resize((r.off + new_cap) as usize, zero);
            self.slots += (new_cap - r.cap) as usize;
        } else {
            let run: Vec<PostingEntry> = self.postings(vid).to_vec();
            let (chunk, off) = self.alloc(new_cap as usize);
            let dst = Arc::make_mut(&mut self.chunks[chunk as usize]);
            dst[off as usize..off as usize + run.len()].copy_from_slice(&run);
            self.dead += r.cap as usize;
            self.ranges[vid as usize].chunk = chunk;
            self.ranges[vid as usize].off = off;
        }
        self.ranges[vid as usize].cap = new_cap;
    }

    /// Appends `entry` to `vid`'s run. The caller guarantees `entry` is
    /// strictly greater than the run's last entry (bulk builds scan tables
    /// in `(table, col, row)` order, which is exactly posting order).
    pub fn append(&mut self, vid: u32, entry: PostingEntry) {
        self.ensure_room(vid);
        let r = self.ranges[vid as usize];
        let chunk = Arc::make_mut(&mut self.chunks[r.chunk as usize]);
        debug_assert!(
            r.len == 0 || chunk[(r.off + r.len - 1) as usize] < entry,
            "append would break posting order",
        );
        chunk[(r.off + r.len) as usize] = entry;
        self.ranges[vid as usize].len += 1;
        if r.len == 0 {
            self.live_values += 1;
        }
        self.live_postings += 1;
    }

    /// Inserts `entry` into `vid`'s run at its sorted position.
    ///
    /// # Panics
    /// Panics if the entry is already present (an index/corpus divergence).
    pub fn insert_sorted(&mut self, vid: u32, entry: PostingEntry) {
        let pos = self
            .postings(vid)
            .binary_search(&entry)
            .expect_err("posting entry already present");
        self.ensure_room(vid);
        let r = self.ranges[vid as usize];
        let chunk = Arc::make_mut(&mut self.chunks[r.chunk as usize]);
        let off = r.off as usize;
        chunk.copy_within(off + pos..off + r.len as usize, off + pos + 1);
        chunk[off + pos] = entry;
        self.ranges[vid as usize].len += 1;
        if r.len == 0 {
            self.live_values += 1;
        }
        self.live_postings += 1;
    }

    /// Removes `entry` from `vid`'s run.
    ///
    /// # Panics
    /// Panics if the entry is not present (an index/corpus divergence).
    pub fn remove_sorted(&mut self, vid: u32, entry: PostingEntry) {
        let pos = self
            .postings(vid)
            .binary_search(&entry)
            // panic-exempt: documented `# Panics` contract — a missing
            // entry is an index/corpus divergence (a logic bug), and
            // WAL-replay determinism requires apply to be infallible
            // rather than silently skipping (see updates::remove_posting).
            .expect("posting entry not found");
        let r = self.ranges[vid as usize];
        let chunk = Arc::make_mut(&mut self.chunks[r.chunk as usize]);
        let off = r.off as usize;
        chunk.copy_within(off + pos + 1..off + r.len as usize, off + pos);
        self.ranges[vid as usize].len -= 1;
        self.live_postings -= 1;
        if r.len == 1 {
            self.live_values -= 1;
        }
    }

    /// Replaces `vid`'s run with `list` (used by the segment loader; the
    /// slice is appended verbatim, sorted or not, matching the tolerance of
    /// the seed loader on corrupt input).
    pub fn load_list(&mut self, vid: u32, list: &[PostingEntry]) {
        let r = self.ranges[vid as usize];
        self.dead += r.cap as usize;
        if r.len > 0 {
            // Duplicate value block in the segment: drop the previous run.
            self.live_values -= 1;
            self.live_postings -= r.len as usize;
        }
        if list.is_empty() {
            self.ranges[vid as usize] = PlRange {
                chunk: 0,
                off: 0,
                len: 0,
                cap: 0,
            };
            return;
        }
        let (chunk, off) = self.alloc(list.len());
        let dst = Arc::make_mut(&mut self.chunks[chunk as usize]);
        dst[off as usize..off as usize + list.len()].copy_from_slice(list);
        self.ranges[vid as usize] = PlRange {
            chunk,
            off,
            len: list.len() as u32,
            cap: list.len() as u32,
        };
        self.live_values += 1;
        self.live_postings += list.len();
    }

    /// Packs all runs back-to-back in value-id order, dropping dead slots
    /// and slack. Bulk builds call this once at the end.
    pub fn compact(&mut self) {
        if self.dead == 0 && self.slots == self.live_postings {
            return;
        }
        let old_chunks = std::mem::take(&mut self.chunks);
        self.slots = 0;
        for vid in 0..self.ranges.len() {
            let r = self.ranges[vid];
            if r.len == 0 {
                self.ranges[vid] = PlRange {
                    chunk: 0,
                    off: 0,
                    len: 0,
                    cap: 0,
                };
                continue;
            }
            let src = &old_chunks[r.chunk as usize][r.off as usize..(r.off + r.len) as usize];
            // Pack exactly r.len slots: extend the last chunk when the run
            // fits, else open a new (possibly oversized) chunk.
            let n = r.len as usize;
            self.slots += n;
            let (chunk, off) = match self.chunks.last_mut() {
                Some(last) if n <= CHUNK_CAP && last.len() + n <= CHUNK_CAP => {
                    let off = last.len();
                    Arc::make_mut(last).extend_from_slice(src);
                    ((self.chunks.len() - 1) as u32, off as u32)
                }
                _ => {
                    self.chunks.push(Arc::new(src.to_vec()));
                    ((self.chunks.len() - 1) as u32, 0)
                }
            };
            self.ranges[vid] = PlRange {
                chunk,
                off,
                len: r.len,
                cap: r.len,
            };
        }
        self.dead = 0;
    }

    /// Pre-sizes every run to the exact counts given (indexed by value id),
    /// with all runs packed in value-id order and `len == cap == count`.
    /// The entries themselves are left as placeholder slots for the caller
    /// to fill via [`PostingStore::run_slices_mut`] — the parallel build
    /// merge uses this.
    pub(crate) fn allocate_exact(&mut self, counts: &[usize]) {
        assert_eq!(counts.len(), self.spans.len(), "one count per value");
        assert!(self.chunks.is_empty(), "allocate_exact on a filled store");
        let total: usize = counts.iter().sum();
        for (vid, &n) in counts.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let (chunk, off) = self.alloc(n);
            self.ranges[vid] = PlRange {
                chunk,
                off,
                len: n as u32,
                cap: n as u32,
            };
        }
        self.live_postings = total;
        self.live_values = counts.iter().filter(|&&n| n > 0).count();
    }

    /// One mutable slice per value id (empty for empty runs), for callers
    /// (the parallel merge) that fill runs through disjoint splits. Only
    /// valid right after [`PostingStore::allocate_exact`], which packs runs
    /// in monotonically increasing `(chunk, offset)` order.
    pub(crate) fn run_slices_mut(&mut self) -> Vec<&mut [PostingEntry]> {
        let mut rest: Vec<&mut [PostingEntry]> = Vec::with_capacity(self.chunks.len());
        for chunk in &mut self.chunks {
            rest.push(Arc::make_mut(chunk).as_mut_slice());
        }
        let mut consumed = vec![0usize; rest.len()];
        let mut out: Vec<&mut [PostingEntry]> = Vec::with_capacity(self.ranges.len());
        for r in &self.ranges {
            if r.len == 0 {
                out.push(&mut []);
                continue;
            }
            let ci = r.chunk as usize;
            assert_eq!(
                r.off as usize, consumed[ci],
                "runs not packed; call allocate_exact first"
            );
            let slice = std::mem::take(&mut rest[ci]);
            let (run, tail) = slice.split_at_mut(r.len as usize);
            rest[ci] = tail;
            consumed[ci] += r.len as usize;
            out.push(run);
        }
        out
    }

    // ------------------------------------------------------------- sizes --

    /// Bytes held by the flattened layout: arena text, spans, hashes,
    /// ranges, lookup table, and the posting chunks themselves.
    pub fn flat_bytes(&self) -> usize {
        self.arena.len()
            + self.spans.len() * std::mem::size_of::<(u32, u32)>()
            + self.hashes.len() * 8
            + self.ranges.len() * std::mem::size_of::<PlRange>()
            + self.table.len() * 4
            + self.slots * std::mem::size_of::<PostingEntry>()
    }

    /// Estimated bytes the seed's per-value layout
    /// (`FxHashMap<Box<str>, Vec<PostingEntry>>`) would hold for the same
    /// content: per value a `Box<str>` (16-byte fat pointer + text), a
    /// 24-byte `Vec` header, and a hash-table slot (~48 bytes per occupied
    /// slot at 7/8 load, counting key+value+control), plus the entries.
    pub fn per_value_layout_bytes(&self) -> usize {
        let text: usize = self.spans.iter().map(|&(_, len)| len as usize).sum();
        let per_value = 16 + 24 + 48;
        text + self.num_interned() * per_value
            + self.live_postings * std::mem::size_of::<PostingEntry>()
    }

    /// Bytes of value-arena text alone.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Number of entry chunks (test/observability hook for the COW layout).
    #[cfg(test)]
    fn num_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Whether chunk `i` is physically shared with `other` (same `Arc`).
    #[cfg(test)]
    fn shares_chunk_with(&self, other: &PostingStore, i: usize) -> bool {
        Arc::ptr_eq(&self.chunks[i], &other.chunks[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(t: u32, c: u32, r: u32) -> PostingEntry {
        PostingEntry::new(t, c, r)
    }

    /// Sequential keys must keep the interner's probe chains short. Slots
    /// come from the low bits of the Fx hash, so its `finish` has to mix a
    /// value's later bytes into them; without that, keys that differ only
    /// at the end (`key1`, `key2`, ...) pile into one cluster and indexing
    /// a long column goes quadratic. Counts probes, never time.
    #[test]
    fn sequential_keys_keep_probe_chains_short() {
        let keys: [fn(usize) -> String; 2] = [|i| format!("k{i}"), |i| format!("key_{i:08}")];
        for key in keys {
            let mut store = PostingStore::new();
            for i in 0..100_000 {
                store.intern(&key(i));
            }
            // A successful lookup probes from the value's home slot to the
            // slot holding it: displacement + 1.
            let mask = store.table.len() - 1;
            let probes: usize = store
                .table
                .iter()
                .enumerate()
                .filter(|(_, &stored)| stored != EMPTY_SLOT)
                .map(|(slot, &stored)| {
                    let home = store.hashes[stored as usize - 1] as usize & mask;
                    (slot.wrapping_sub(home) & mask) + 1
                })
                .sum();
            let mean = probes as f64 / store.num_interned() as f64;
            assert!(mean < 4.0, "{}: mean probe chain {mean:.1}", key(0));
        }
    }

    #[test]
    fn intern_dedups_without_leak() {
        let mut s = PostingStore::new();
        let a = s.intern("foo");
        let b = s.intern("bar");
        let a2 = s.intern("foo");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(s.num_interned(), 2);
        assert_eq!(s.value(a), "foo");
        assert_eq!(s.value(b), "bar");
        assert_eq!(s.lookup("foo"), Some(a));
        assert_eq!(s.lookup("baz"), None);
    }

    #[test]
    fn dense_ids_in_intern_order() {
        let mut s = PostingStore::new();
        for (i, v) in ["a", "b", "c", "a", "d", "b"].iter().enumerate() {
            let vid = s.intern(v);
            let expect = match *v {
                "a" => 0,
                "b" => 1,
                "c" => 2,
                _ => 3,
            };
            assert_eq!(vid, expect, "at step {i}");
        }
    }

    #[test]
    fn append_and_lookup() {
        let mut s = PostingStore::new();
        let foo = s.intern("foo");
        let bar = s.intern("bar");
        s.append(foo, e(0, 0, 0));
        s.append(bar, e(0, 1, 0));
        s.append(foo, e(0, 1, 1));
        s.append(foo, e(1, 0, 0));
        assert_eq!(
            s.posting_list("foo").unwrap(),
            &[e(0, 0, 0), e(0, 1, 1), e(1, 0, 0)]
        );
        assert_eq!(s.posting_list("bar").unwrap(), &[e(0, 1, 0)]);
        assert_eq!(s.num_values(), 2);
        assert_eq!(s.num_postings(), 4);
        assert!(s.posting_list("nope").is_none());
    }

    #[test]
    fn growth_relocation_keeps_runs_contiguous() {
        let mut s = PostingStore::new();
        let ids: Vec<u32> = (0..8).map(|i| s.intern(&format!("v{i}"))).collect();
        // Interleave appends so every run relocates several times.
        for round in 0..100u32 {
            for (i, &vid) in ids.iter().enumerate() {
                s.append(vid, e(round, i as u32, 0));
            }
        }
        for (i, &vid) in ids.iter().enumerate() {
            let pl = s.postings(vid);
            assert_eq!(pl.len(), 100);
            assert!(pl.windows(2).all(|w| w[0] < w[1]));
            assert_eq!(pl[99], e(99, i as u32, 0));
        }
        assert_eq!(s.num_postings(), 800);
        s.compact();
        assert_eq!(s.num_postings(), 800);
        for &vid in &ids {
            assert_eq!(s.postings(vid).len(), 100);
        }
    }

    #[test]
    fn insert_and_remove_sorted() {
        let mut s = PostingStore::new();
        let v = s.intern("v");
        s.append(v, e(0, 0, 0));
        s.append(v, e(2, 0, 0));
        s.insert_sorted(v, e(1, 0, 0));
        assert_eq!(s.postings(v), &[e(0, 0, 0), e(1, 0, 0), e(2, 0, 0)]);
        s.remove_sorted(v, e(1, 0, 0));
        assert_eq!(s.postings(v), &[e(0, 0, 0), e(2, 0, 0)]);
        s.remove_sorted(v, e(0, 0, 0));
        s.remove_sorted(v, e(2, 0, 0));
        assert_eq!(s.num_values(), 0);
        assert!(s.posting_list("v").is_none(), "empty run reads as absent");
        // The value id stays valid and can be refilled.
        s.insert_sorted(v, e(5, 0, 0));
        assert_eq!(s.posting_list("v").unwrap(), &[e(5, 0, 0)]);
        assert_eq!(s.num_values(), 1);
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn duplicate_insert_rejected() {
        let mut s = PostingStore::new();
        let v = s.intern("v");
        s.insert_sorted(v, e(0, 0, 0));
        s.insert_sorted(v, e(0, 0, 0));
    }

    #[test]
    #[should_panic(expected = "not found")]
    fn missing_remove_rejected() {
        let mut s = PostingStore::new();
        let v = s.intern("v");
        s.remove_sorted(v, e(0, 0, 0));
    }

    #[test]
    fn many_values_force_table_growth() {
        let mut s = PostingStore::new();
        let n = 10_000u32;
        for i in 0..n {
            let vid = s.intern(&format!("value-{i}"));
            s.append(vid, e(i, 0, 0));
        }
        for i in 0..n {
            assert_eq!(s.lookup(&format!("value-{i}")).unwrap(), i);
        }
        assert_eq!(s.num_values(), n as usize);
    }

    #[test]
    fn iter_skips_empty_runs() {
        let mut s = PostingStore::new();
        let a = s.intern("a");
        let _b = s.intern("b"); // never filled
        let c = s.intern("c");
        s.append(a, e(0, 0, 0));
        s.append(c, e(1, 0, 0));
        let got: Vec<&str> = s.iter().map(|(v, _)| v).collect();
        assert_eq!(got, vec!["a", "c"]);
    }

    #[test]
    fn internal_compact_preserves_fresh_slack() {
        // Regression: compaction fired *after* ensure_room doubled a run's
        // capacity would reset cap == len and make the subsequent write go
        // out of bounds (or into the next run). Build up dead space via
        // duplicate load_list calls, then insert — must stay correct.
        let mut s = PostingStore::new();
        let v = s.intern("v");
        let big: Vec<PostingEntry> = (0..2000).map(|i| e(i, 0, 0)).collect();
        s.load_list(v, &big);
        s.load_list(v, &[e(0, 0, 0)]); // dead += 2000 > slots/2
        s.insert_sorted(v, e(1, 0, 0));
        s.insert_sorted(v, e(2, 0, 0));
        assert_eq!(
            s.posting_list("v").unwrap(),
            &[e(0, 0, 0), e(1, 0, 0), e(2, 0, 0)]
        );
        // Multi-value variant: the write must not clobber a neighbor run.
        let w = s.intern("w");
        s.load_list(w, &[e(9, 0, 0)]);
        s.load_list(v, &big);
        s.load_list(v, &[e(0, 0, 0)]);
        s.insert_sorted(v, e(5, 0, 0));
        assert_eq!(s.posting_list("w").unwrap(), &[e(9, 0, 0)]);
        assert_eq!(s.posting_list("v").unwrap(), &[e(0, 0, 0), e(5, 0, 0)]);
    }

    #[test]
    fn load_list_replaces_duplicates() {
        let mut s = PostingStore::new();
        let v = s.intern("v");
        s.load_list(v, &[e(0, 0, 0), e(1, 0, 0)]);
        assert_eq!(s.num_postings(), 2);
        // A corrupt segment can mention the same value twice; last wins.
        s.load_list(v, &[e(2, 0, 0)]);
        assert_eq!(s.posting_list("v").unwrap(), &[e(2, 0, 0)]);
        assert_eq!(s.num_postings(), 1);
        assert_eq!(s.num_values(), 1);
    }

    #[test]
    fn size_model_orders_sanely() {
        let mut s = PostingStore::new();
        for i in 0..500u32 {
            let vid = s.intern(&format!("value-{i}"));
            for t in 0..4 {
                s.append(vid, e(t, 0, i));
            }
        }
        s.compact();
        assert!(s.arena_bytes() > 0);
        assert!(
            s.flat_bytes() < s.per_value_layout_bytes(),
            "flat layout should be smaller: {} vs {}",
            s.flat_bytes(),
            s.per_value_layout_bytes()
        );
    }

    #[test]
    fn oversized_runs_get_dedicated_chunks() {
        let mut s = PostingStore::new();
        let v = s.intern("v");
        let big: Vec<PostingEntry> = (0..(CHUNK_CAP as u32 * 2)).map(|i| e(i, 0, 0)).collect();
        s.load_list(v, &big);
        assert_eq!(s.postings(v).len(), CHUNK_CAP * 2);
        // The run stays contiguous through further growth past CHUNK_CAP.
        s.insert_sorted(v, e(CHUNK_CAP as u32 * 2, 0, 0));
        assert_eq!(s.postings(v).len(), CHUNK_CAP * 2 + 1);
        assert!(s.postings(v).windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn clone_shares_chunks_until_write() {
        let mut s = PostingStore::new();
        // Fill several chunks' worth of entries across many values.
        let ids: Vec<u32> = (0..64).map(|i| s.intern(&format!("v{i}"))).collect();
        for round in 0..200u32 {
            for (i, &vid) in ids.iter().enumerate() {
                s.append(vid, e(round, i as u32, 0));
            }
        }
        s.compact();
        assert!(s.num_chunks() > 1, "test needs multiple chunks");
        let snap = s.clone();
        for i in 0..s.num_chunks() {
            assert!(s.shares_chunk_with(&snap, i), "clone shares chunk {i}");
        }
        // A single in-place write COWs exactly the chunk it touches.
        let target = ids[0];
        s.remove_sorted(target, e(0, 0, 0));
        let shared: usize = (0..snap.num_chunks())
            .filter(|&i| s.shares_chunk_with(&snap, i))
            .count();
        assert_eq!(
            shared,
            snap.num_chunks() - 1,
            "exactly one chunk should have been copied"
        );
        // The snapshot still reads the old state.
        assert_eq!(snap.postings(target).len(), 200);
        assert_eq!(s.postings(target).len(), 199);
    }

    #[test]
    fn allocate_exact_and_run_slices_fill() {
        let mut s = PostingStore::new();
        let a = s.intern("a");
        let _b = s.intern("b"); // stays empty
        let c = s.intern("c");
        s.allocate_exact(&[3, 0, 2]);
        {
            let mut runs = s.run_slices_mut();
            assert_eq!(runs.len(), 3);
            assert_eq!(runs[0].len(), 3);
            assert_eq!(runs[1].len(), 0);
            assert_eq!(runs[2].len(), 2);
            runs[0][0] = e(0, 0, 0);
            runs[0][1] = e(1, 0, 0);
            runs[0][2] = e(2, 0, 0);
            runs[2][0] = e(0, 1, 0);
            runs[2][1] = e(3, 0, 0);
        }
        assert_eq!(s.postings(a), &[e(0, 0, 0), e(1, 0, 0), e(2, 0, 0)]);
        assert_eq!(s.postings(c), &[e(0, 1, 0), e(3, 0, 0)]);
        assert_eq!(s.num_postings(), 5);
        assert_eq!(s.num_values(), 2);
    }
}
