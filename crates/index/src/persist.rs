//! Segment-file persistence for corpora and indexes.
//!
//! Corpus segment blocks: `corpus.meta`, `corpus.dict`, `corpus.tables`
//! (dictionary-encoded cells). Index segments carry four blocks:
//!
//! * `index.meta` — hash size, hasher name, table count;
//! * `index.values2` — the sorted distinct values, front-coded with restart
//!   points every [`VALUE_RESTART_INTERVAL`] entries plus a fixed-width
//!   restart index;
//! * `index.postings3` — block-compressed posting lists
//!   ([`mate_storage::postings`]) behind a directory of one varint
//!   byte-length per list plus one u32 anchor pair per
//!   [`LIST_ANCHOR_INTERVAL`] lists. Random access lands on the preceding
//!   anchor and walks at most `interval - 1` varints;
//! * `index.superkeys2` — per row, the super key's set bits Rice-coded as a
//!   sparse bitmap ([`mate_storage::bitset`]).
//!
//! The value and posting directories are what make cold serving possible:
//! [`read_cold_store_paged`] validates these payloads once and serves them
//! as a [`ColdPostingStore`] that pages them from the segment file and
//! random-accesses them without decoding; [`index_from_bytes`] decodes the
//! same validated byte view whole into the hot form. A segment
//! of an older encoding lacks `index.postings3` and is rejected with
//! [`StorageError::MissingBlock`]; a version-1 container is rejected with
//! [`StorageError::UnsupportedVersion`].

use crate::cold::{ColdPostingStore, ListDirectory, StreamView};
use crate::index::InvertedIndex;
use crate::posting::PostingEntry;
use crate::superkeys::SuperKeyStore;
use bytes::Bytes;
use mate_hash::HashSize;
use mate_storage::pager::PageCache;
use mate_storage::postings::{self, RawPosting};
use mate_storage::{
    DictBuilder, Dictionary, IoCtx as _, Reader, SegmentReader, SegmentWriter, StdVfs,
    StorageError, Vfs, Writer,
};
use mate_table::{Column, ColumnBuilder, Corpus, Table, TableId};
use std::path::Path;
use std::sync::Arc;

/// Front-coding restart interval of the `index.values2` dictionary.
pub const VALUE_RESTART_INTERVAL: usize = 16;

// ---------------------------------------------------------------- corpus --

/// Serializes a corpus into segment bytes.
pub fn corpus_to_bytes(corpus: &Corpus) -> Bytes {
    // Dictionary over all cell values, in first-occurrence order. Each
    // column dictionary entry is interned once, at its first row; `global`
    // maps the column's entry ids to corpus ids (`u32::MAX`: not yet).
    let mut dict = DictBuilder::new();
    let mut global: Vec<u32> = Vec::new();
    let mut tables = Writer::new();
    tables.put_varint(corpus.len() as u64);
    for (_, table) in corpus.iter() {
        tables.put_str(&table.name);
        tables.put_varint(table.num_cols() as u64);
        tables.put_varint(table.num_rows() as u64);
        for col in table.columns() {
            tables.put_str(&col.name);
            global.clear();
            global.resize(col.num_entries(), u32::MAX);
            for &id in col.ids() {
                let g = &mut global[id as usize];
                if *g == u32::MAX {
                    *g = dict.intern(col.entry(id));
                }
                tables.put_varint(u64::from(*g));
            }
        }
    }
    let dict = dict.build();
    let mut dict_block = Writer::new();
    dict.encode(&mut dict_block);

    let mut meta = Writer::new();
    meta.put_varint(corpus.len() as u64);
    meta.put_varint(corpus.total_rows() as u64);

    let mut seg = SegmentWriter::new();
    seg.add_block("corpus.meta", meta.finish());
    seg.add_block("corpus.dict", dict_block.finish());
    seg.add_block("corpus.tables", tables.finish());
    seg.finish()
}

/// Deserializes a corpus from segment bytes. Cell ids go straight into
/// per-column dictionary ids: no cell is materialized as a `String`.
pub fn corpus_from_bytes(data: Bytes) -> Result<Corpus, StorageError> {
    let seg = SegmentReader::open(data)?;
    let dict = Dictionary::decode(&mut Reader::new(seg.block("corpus.dict")?))?;
    let mut r = Reader::new(seg.block("corpus.tables")?);
    let ntables = r.get_varint()? as usize;
    let mut corpus = Corpus::new();
    let bad_id = |id: u64| StorageError::InvalidLength {
        context: "cell dictionary id",
        value: id,
    };
    // Corpus id → id in the column being decoded (`u32::MAX`: not yet),
    // reset through `entries` (the column's corpus ids in order).
    let mut local = vec![u32::MAX; dict.len()];
    let mut entries: Vec<u32> = Vec::new();
    for _ in 0..ntables {
        let name = r.get_str()?;
        let ncols = r.get_varint()? as usize;
        let nrows = r.get_varint()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            let col_name = r.get_str()?;
            let mut ids = Vec::with_capacity(nrows.min(r.remaining()));
            for _ in 0..nrows {
                let id = r.get_varint()?;
                let slot = local.get_mut(id as usize).ok_or_else(|| bad_id(id))?;
                if *slot == u32::MAX {
                    *slot = entries.len() as u32;
                    entries.push(id as u32);
                }
                ids.push(*slot);
            }
            let texts = entries.iter().filter_map(|&g| dict.get(g));
            let column = Column::from_dictionary(col_name, texts, ids);
            for &g in &entries {
                local[g as usize] = u32::MAX;
            }
            entries.clear();
            columns.push(column.ok_or_else(|| bad_id(u64::from(u32::MAX)))?);
        }
        corpus.add_table(Table::new(name, columns));
    }
    Ok(corpus)
}

/// Reads one length-prefixed cell into `col` without allocating it.
pub(crate) fn read_cell(r: &mut Reader, col: &mut ColumnBuilder) -> Result<(), StorageError> {
    let b = r.get_bytes()?;
    col.push(std::str::from_utf8(&b).map_err(|_| StorageError::InvalidUtf8)?);
    Ok(())
}

/// Writes a corpus to a segment file (atomically: tmp + fsync + rename +
/// directory fsync — a crash never leaves a half-written checkpoint).
pub fn save_corpus(corpus: &Corpus, path: impl AsRef<Path>) -> Result<(), StorageError> {
    save_corpus_vfs(&StdVfs, corpus, path.as_ref())
}

/// [`save_corpus`] through an explicit [`Vfs`].
pub fn save_corpus_vfs(vfs: &dyn Vfs, corpus: &Corpus, path: &Path) -> Result<(), StorageError> {
    mate_storage::manifest::write_file_atomic_vfs(vfs, path, &corpus_to_bytes(corpus))
}

/// Loads a corpus from a segment file.
pub fn load_corpus(path: impl AsRef<Path>) -> Result<Corpus, StorageError> {
    load_corpus_vfs(&StdVfs, path.as_ref())
}

/// [`load_corpus`] through an explicit [`Vfs`]. Errors carry the path.
pub fn load_corpus_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Corpus, StorageError> {
    corpus_from_bytes(Bytes::from(
        vfs.read(path).io_ctx("reading corpus checkpoint", path)?,
    ))
}

/// Serializes an incremental corpus delta: the **full current content** of
/// each listed table (id, name, columns, raw cells). A delta is a
/// table-granular snapshot, not an operation log — applying it over any
/// base that has at least `id` tables replaces (or appends, when
/// `id == len`) those tables wholesale, so replaying a delta chain in
/// order reproduces the corpus no matter what earlier deltas said about
/// the same tables. The engine writes one per flush, covering exactly the
/// tables dirtied since the previous checkpoint.
pub(crate) fn corpus_delta_to_bytes(corpus: &Corpus, tables: &[u32]) -> Bytes {
    let mut w = Writer::new();
    w.put_varint(tables.len() as u64);
    for &t in tables {
        let table = corpus.table(TableId(t));
        w.put_varint(u64::from(t));
        w.put_str(&table.name);
        w.put_varint(table.num_cols() as u64);
        w.put_varint(table.num_rows() as u64);
        for col in table.columns() {
            w.put_str(&col.name);
            for v in col.iter() {
                w.put_str(v);
            }
        }
    }
    w.finish()
}

/// Applies a [`corpus_delta_to_bytes`] payload on top of `corpus`.
/// Table ids beyond one past the current length are structurally invalid
/// (a delta chain is replayed in write order, so appends arrive densely).
pub(crate) fn apply_corpus_delta(corpus: &mut Corpus, payload: Bytes) -> Result<(), StorageError> {
    let mut r = Reader::new(payload);
    let ntables = r.get_varint()? as usize;
    if ntables > r.remaining() {
        return Err(StorageError::InvalidLength {
            context: "corpus delta table count",
            value: ntables as u64,
        });
    }
    for _ in 0..ntables {
        let id = r.get_varint()? as usize;
        let name = r.get_str()?;
        let ncols = r.get_varint()? as usize;
        let nrows = r.get_varint()? as usize;
        let mut columns = Vec::with_capacity(ncols.min(r.remaining()));
        for _ in 0..ncols {
            let mut col = ColumnBuilder::new(r.get_str()?, nrows.min(r.remaining()));
            for _ in 0..nrows {
                read_cell(&mut r, &mut col)?;
            }
            columns.push(col.finish());
        }
        let table = Table::new(name, columns);
        if id == corpus.len() {
            corpus.add_table(table);
        } else if id < corpus.len() {
            *corpus.table_mut(TableId::from(id)) = table;
        } else {
            return Err(StorageError::InvalidLength {
                context: "corpus delta table id",
                value: id as u64,
            });
        }
    }
    Ok(())
}

// ----------------------------------------------------------------- index --

/// Shared meta block: hash size, hasher name, table count.
pub(crate) fn meta_block(size: HashSize, hasher_name: &str, num_tables: usize) -> Bytes {
    let mut meta = Writer::new();
    meta.put_varint(size.bits() as u64);
    meta.put_str(hasher_name);
    meta.put_varint(num_tables as u64);
    meta.finish()
}

/// [`meta_block`] for a hot index.
fn index_meta_block(index: &InvertedIndex) -> Bytes {
    meta_block(
        index.hash_size(),
        index.hasher_name(),
        index.superkeys().num_tables(),
    )
}

/// `index.superkeys2` block: per row, the key's set-bit positions Rice-coded
/// ([`mate_storage::bitset`]) — super keys are sparse (a handful of bits per
/// cell, OR-ed per row), so this is the segment's biggest single win.
/// `pub(crate)` because the engine's flush assembles its segment blocks
/// directly from the global super-key store.
pub(crate) fn superkeys_block(superkeys: &SuperKeyStore) -> Bytes {
    let mut keys = Writer::new();
    let ntables = superkeys.num_tables();
    let wpk = superkeys.words_per_key();
    keys.put_varint(ntables as u64);
    for t in 0..ntables {
        let tid = TableId::from(t);
        let words = superkeys.table_words(tid);
        let nrows = words.len() / wpk.max(1);
        keys.put_varint(nrows as u64);
        for row in words.chunks_exact(wpk) {
            mate_storage::bitset::encode_bitmap(row, &mut keys);
        }
    }
    keys.finish()
}

/// Anchor sampling interval of the `index.postings3` directory: one `(payload
/// offset, length-stream offset)` u32 pair per this many lists. Random
/// access walks at most `interval - 1` varint lengths past the anchor.
pub const LIST_ANCHOR_INTERVAL: usize = 32;

/// Builds the `index.values2` block: front-coded sorted values with a
/// restart index. `values` must be sorted by value.
fn values2_block(values: &[(&str, &[PostingEntry])]) -> Bytes {
    let n = values.len();
    let mut stream = Writer::with_capacity(values.iter().map(|(v, _)| v.len() + 2).sum());
    let mut restarts: Vec<u32> = Vec::with_capacity(n.div_ceil(VALUE_RESTART_INTERVAL));
    let mut prev = "";
    for (i, (v, _)) in values.iter().enumerate() {
        if i % VALUE_RESTART_INTERVAL == 0 {
            restarts.push(stream.len() as u32);
            stream.put_str(v);
        } else {
            let shared = prev
                .as_bytes()
                .iter()
                .zip(v.as_bytes())
                .take_while(|(a, b)| a == b)
                .count();
            stream.put_varint(shared as u64);
            stream.put_varint((v.len() - shared) as u64);
            stream.put_raw(&v.as_bytes()[shared..]);
        }
        prev = v;
    }
    let stream = stream.finish();
    assert!(
        stream.len() <= u32::MAX as usize,
        "value stream exceeds 4 GiB"
    );
    let mut vals = Writer::with_capacity(stream.len() + restarts.len() * 4 + 16);
    vals.put_varint(n as u64);
    vals.put_varint(VALUE_RESTART_INTERVAL as u64);
    vals.put_varint(stream.len() as u64);
    vals.put_raw(&stream);
    for r in &restarts {
        vals.put_u32_le(*r);
    }
    vals.finish()
}

/// Encodes every posting list ([`mate_storage::postings`] block format),
/// returning the concatenated payload, the per-list start offsets
/// (`n + 1` entries), and the total posting count.
fn encoded_lists(values: &[(&str, &[PostingEntry])], block_len: usize) -> (Bytes, Vec<u32>, u64) {
    let mut lists = Writer::new();
    let mut offsets: Vec<u32> = Vec::with_capacity(values.len() + 1);
    let mut raw: Vec<RawPosting> = Vec::new();
    let mut total_postings = 0u64;
    for (_, pl) in values {
        offsets.push(lists.len() as u32);
        raw.clear();
        raw.extend(pl.iter().map(|e| (e.table.0, e.col.0, e.row.0)));
        total_postings += raw.len() as u64;
        postings::encode_list(&raw, block_len, &mut lists);
        assert!(
            lists.len() <= u32::MAX as usize,
            "posting payload exceeds 4 GiB"
        );
    }
    offsets.push(lists.len() as u32);
    (lists.finish(), offsets, total_postings)
}

/// Builds the `index.postings3` block: sampled-anchor directory (varint
/// byte-length per list + one u32 anchor pair per [`LIST_ANCHOR_INTERVAL`]
/// lists) + compressed lists — ~1.5 B/list on real lakes against 4 B/list
/// for fixed-width u32 offsets.
fn postings3_block(offsets: &[u32], lists: &Bytes, total_postings: u64) -> Bytes {
    let n = offsets.len() - 1;
    let mut lengths = Writer::with_capacity(n * 2);
    let mut anchors = Writer::with_capacity(n.div_ceil(LIST_ANCHOR_INTERVAL) * 8);
    for i in 0..n {
        if i % LIST_ANCHOR_INTERVAL == 0 {
            anchors.put_u32_le(offsets[i]);
            anchors.put_u32_le(lengths.len() as u32);
        }
        lengths.put_varint(u64::from(offsets[i + 1] - offsets[i]));
    }
    let lengths = lengths.finish();
    let anchors = anchors.finish();
    let mut pb = Writer::with_capacity(lists.len() + lengths.len() + anchors.len() + 24);
    pb.put_varint(n as u64);
    pb.put_varint(total_postings);
    pb.put_varint(LIST_ANCHOR_INTERVAL as u64);
    pb.put_varint(lengths.len() as u64);
    pb.put_raw(&lengths);
    pb.put_raw(&anchors);
    pb.put_raw(lists);
    pb.finish()
}

/// Adds the value/posting blocks (`index.values2`, `index.postings3`) for
/// an arbitrary posting map to a segment under construction. Sorts `values`
/// in place.
pub(crate) fn add_posting_blocks(
    seg: &mut SegmentWriter,
    values: &mut [(&str, &[PostingEntry])],
    block_len: usize,
) {
    values.sort_unstable_by_key(|(v, _)| *v);
    let (lists, offsets, total_postings) = encoded_lists(values, block_len);
    seg.add_block("index.values2", values2_block(values));
    seg.add_block(
        "index.postings3",
        postings3_block(&offsets, &lists, total_postings),
    );
}

/// Adds the standard index blocks (`index.meta`, `index.values2`,
/// `index.postings3`, `index.superkeys2`) to a segment under construction.
/// The engine uses this to append its own blocks (claims) to a flush
/// segment; [`index_to_bytes`] is this plus `finish`.
pub(crate) fn add_index_blocks(seg: &mut SegmentWriter, index: &InvertedIndex, block_len: usize) {
    let mut values: Vec<(&str, &[PostingEntry])> = index.iter_values().collect();
    seg.add_block("index.meta", index_meta_block(index));
    add_posting_blocks(seg, &mut values, block_len);
    seg.add_block("index.superkeys2", superkeys_block(index.superkeys()));
}

/// Serializes an index into segment bytes (front-coded values,
/// block-compressed posting lists behind a sampled-anchor directory).
/// Values are written in sorted order so the output is deterministic.
pub fn index_to_bytes(index: &InvertedIndex) -> Bytes {
    index_to_bytes_v3(index, postings::DEFAULT_BLOCK_LEN)
}

/// [`index_to_bytes`] with an explicit posting block length (the bench
/// sweeps this; [`index_to_bytes`] uses [`postings::DEFAULT_BLOCK_LEN`]).
pub fn index_to_bytes_v3(index: &InvertedIndex, block_len: usize) -> Bytes {
    let mut seg = SegmentWriter::new();
    add_index_blocks(&mut seg, index, block_len);
    seg.finish()
}

/// Parses the shared meta block.
pub(crate) fn read_meta(seg: &SegmentReader) -> Result<(HashSize, String), StorageError> {
    let mut meta = Reader::new(seg.block("index.meta")?);
    let bits = meta.get_varint()? as usize;
    let size = HashSize::from_bits(bits).ok_or(StorageError::InvalidLength {
        context: "hash size",
        value: bits as u64,
    })?;
    let hasher_name = meta.get_str()?;
    Ok((size, hasher_name))
}

/// Loads the `index.superkeys2` block into `superkeys`.
pub(crate) fn read_superkeys(
    seg: &SegmentReader,
    size: HashSize,
    superkeys: &mut SuperKeyStore,
) -> Result<(), StorageError> {
    let mut kr = Reader::new(seg.block("index.superkeys2")?);
    let ntables = kr.get_varint()? as usize;
    let wpk = size.words();
    let mut key = vec![0u64; wpk];
    for _ in 0..ntables {
        let nrows = kr.get_varint()? as usize;
        // Each key costs ≥ 1 byte, so a count beyond the remaining
        // bytes is corrupt — reject before allocating for it.
        if nrows > kr.remaining() {
            return Err(StorageError::InvalidLength {
                context: "superkey row count",
                value: nrows as u64,
            });
        }
        let mut words = Vec::with_capacity(nrows * wpk);
        for _ in 0..nrows {
            mate_storage::bitset::decode_bitmap(&mut kr, &mut key)?;
            words.extend_from_slice(&key);
        }
        let tid = superkeys.push_table(0);
        superkeys.set_table_words(tid, words);
    }
    Ok(())
}

/// Opens the value/posting blocks of `seg` for serving: validates them as
/// one byte view of the segment's streams, then rebinds the value and list
/// streams as demand-paged extents of the segment file, read through
/// `cache` (which must know the file as `segment_id`). Probes of the
/// returned store meet only bytes the validation walk accepted.
pub fn read_cold_store_paged(
    seg: &SegmentReader,
    cache: &Arc<PageCache>,
    segment_id: u64,
) -> Result<ColdPostingStore, StorageError> {
    let (view, values_in, lists_in) = read_stream_view(seg)?;
    let values_off = seg.block_offset("index.values2")? + values_in;
    let lists_off = seg.block_offset("index.postings3")? + lists_in;
    Ok(view.into_paged(Arc::clone(cache), segment_id, values_off, lists_off))
}

/// Parses and validates the value/posting blocks of `seg` into a
/// zero-copy [`StreamView`]; also returns the byte offsets of the value
/// stream within `index.values2` and of the list payload within
/// `index.postings3`, so a paged caller can resolve them to file extents.
pub(crate) fn read_stream_view(
    seg: &SegmentReader,
) -> Result<(StreamView, u64, u64), StorageError> {
    // The posting block first: a segment of an older encoding lacks it and
    // is reported as missing `index.postings3`.
    let pblock = seg.block("index.postings3")?;
    let vblock = seg.block("index.values2")?;
    let vblock_len = vblock.len();
    let mut vr = Reader::new(vblock);
    let n = vr.get_varint()? as usize;
    let restart_interval = vr.get_varint()? as usize;
    if restart_interval == 0 {
        return Err(StorageError::InvalidLength {
            context: "value restart interval",
            value: 0,
        });
    }
    // Directory sizes are derived from the attacker-controlled count, so
    // bound it by what the block could physically hold before any
    // arithmetic: each value costs ≥ 1 byte in the stream and 4 bytes of
    // offset, so a huge `n` can never overflow the checked math below.
    if n > vr.remaining() {
        return Err(StorageError::InvalidLength {
            context: "value count",
            value: n as u64,
        });
    }
    let stream_len = vr.get_varint()? as usize;
    if stream_len > vr.remaining() {
        return Err(StorageError::InvalidLength {
            context: "value stream length",
            value: stream_len as u64,
        });
    }
    let values_in_block = (vblock_len - vr.remaining()) as u64;
    let values = vr.get_raw(stream_len)?;
    let restarts = vr.get_raw(n.div_ceil(restart_interval) * 4)?;
    if !vr.is_exhausted() {
        // Strict like every other payload: no smuggled trailing bytes.
        return Err(StorageError::InvalidLength {
            context: "value block slack",
            value: vr.remaining() as u64,
        });
    }

    let pblock_len = pblock.len();
    let mut pr = Reader::new(pblock);
    let pn = pr.get_varint()? as usize;
    if pn != n {
        return Err(StorageError::InvalidLength {
            context: "posting directory count",
            value: pn as u64,
        });
    }
    let total_postings = pr.get_varint()? as usize;
    let interval = pr.get_varint()? as usize;
    if interval == 0 || interval > 1 << 16 {
        return Err(StorageError::InvalidLength {
            context: "cold anchor interval",
            value: interval as u64,
        });
    }
    let lengths_len = pr.get_varint()? as usize;
    if lengths_len > pr.remaining() {
        return Err(StorageError::InvalidLength {
            context: "cold directory shape",
            value: lengths_len as u64,
        });
    }
    let lengths = pr.get_raw(lengths_len)?;
    // Each list costs ≥ 1 length byte, so `n` is bounded by the stream we
    // just sliced — the anchor-count math below cannot overflow.
    if n > lengths.len() && n > 0 {
        return Err(StorageError::InvalidLength {
            context: "posting directory count",
            value: n as u64,
        });
    }
    let anchors = pr.get_raw(n.div_ceil(interval) * 8)?;
    let lists = pr.get_raw(pr.remaining())?;
    let dir = ListDirectory {
        lengths,
        anchors,
        interval,
    };
    let lists_in_block = (pblock_len - lists.len()) as u64;
    let view = StreamView::new(
        n,
        total_postings,
        restart_interval,
        values,
        restarts,
        dir,
        lists,
    )?;
    Ok((view, values_in_block, lists_in_block))
}

/// Deserializes an index from segment bytes into the hot in-memory form,
/// decoding every list.
pub fn index_from_bytes(data: Bytes) -> Result<InvertedIndex, StorageError> {
    let seg = SegmentReader::open(data)?;
    let (size, hasher_name) = read_meta(&seg)?;
    let mut index = InvertedIndex::empty(size, hasher_name);
    read_stream_view(&seg)?.0.decode_each(|value, pl| {
        let vid = index.store.intern(value);
        index.store.load_list(vid, pl);
    })?;
    read_superkeys(&seg, size, &mut index.superkeys)?;
    Ok(index)
}

/// Writes an index to a segment file (atomically, like [`save_corpus`]).
pub fn save_index(index: &InvertedIndex, path: impl AsRef<Path>) -> Result<(), StorageError> {
    mate_storage::manifest::write_file_atomic(path, &index_to_bytes(index))
}

/// Loads an index from a segment file.
pub fn load_index(path: impl AsRef<Path>) -> Result<InvertedIndex, StorageError> {
    let path = path.as_ref();
    index_from_bytes(Bytes::from(
        StdVfs.read(path).io_ctx("reading index segment", path)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use mate_hash::{HashSize, Xash};
    use mate_table::{RowId, TableBuilder};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Runs `f` on `data` opened through the paged opener, as the engine
    /// serves a segment: written to a temp file registered with a fresh
    /// page cache, which outlives `f`.
    fn with_paged<R>(
        data: Bytes,
        f: impl FnOnce(Result<ColdPostingStore, StorageError>) -> R,
    ) -> R {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "mate-persist-paged-{}-{}.seg",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &data).unwrap();
        let obs = Arc::new(mate_obs::Obs::new());
        let cache = Arc::new(PageCache::new(Arc::new(StdVfs), 4096, 1 << 20, &obs));
        cache.register_segment(0, &path);
        let r = f(SegmentReader::open(data).and_then(|seg| read_cold_store_paged(&seg, &cache, 0)));
        let _ = std::fs::remove_file(&path);
        r
    }

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        c.add_table(
            TableBuilder::new("t0", ["a", "b"])
                .row(["foo", "bar"])
                .row(["baz", "foo"])
                .row(["", "x"])
                .build(),
        );
        c.add_table(TableBuilder::new("empty", Vec::<String>::new()).build());
        c.add_table(TableBuilder::new("t2", ["z"]).row(["foo"]).build());
        c
    }

    #[test]
    fn corpus_roundtrip() {
        let c = corpus();
        let c2 = corpus_from_bytes(corpus_to_bytes(&c)).unwrap();
        assert_eq!(c.len(), c2.len());
        for (id, t) in c.iter() {
            assert_eq!(t, c2.table(id));
        }
    }

    #[test]
    fn index_roundtrip() {
        let c = corpus();
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        let idx2 = index_from_bytes(index_to_bytes(&idx)).unwrap();
        assert_eq!(idx.num_values(), idx2.num_values());
        assert_eq!(idx.num_postings(), idx2.num_postings());
        assert_eq!(idx2.hasher_name(), "Xash");
        assert_eq!(idx2.hash_size(), HashSize::B128);
        for (v, pl) in idx.iter_values() {
            assert_eq!(idx2.posting_list(v), Some(pl));
        }
        for (tid, table) in c.iter() {
            for r in 0..table.num_rows() {
                assert_eq!(
                    idx.superkey(tid, RowId::from(r)),
                    idx2.superkey(tid, RowId::from(r))
                );
            }
        }
    }

    #[test]
    fn deterministic_bytes() {
        let c = corpus();
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        assert_eq!(index_to_bytes(&idx), index_to_bytes(&idx));
        assert_eq!(corpus_to_bytes(&c), corpus_to_bytes(&c));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mate-index-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let c = corpus();
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);

        let cp = dir.join("corpus.seg");
        let ip = dir.join("index.seg");
        save_corpus(&c, &cp).unwrap();
        save_index(&idx, &ip).unwrap();
        let c2 = load_corpus(&cp).unwrap();
        let idx2 = load_index(&ip).unwrap();
        assert_eq!(c.len(), c2.len());
        assert_eq!(idx.num_postings(), idx2.num_postings());
        std::fs::remove_file(cp).ok();
        std::fs::remove_file(ip).ok();
    }

    #[test]
    fn corrupted_index_rejected() {
        let c = corpus();
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        let mut raw = index_to_bytes(&idx).to_vec();
        let mid = raw.len() / 2;
        raw[mid] ^= 0xAA;
        // Either the segment parse or a block CRC must fail.
        let result = index_from_bytes(Bytes::from(raw));
        assert!(result.is_err(), "corruption must not load silently");
    }

    #[test]
    fn crafted_crc_valid_v2_blocks_error_instead_of_panicking() {
        // CRC protects against corruption, not against adversarial writers:
        // a segment whose blocks checksum correctly but whose *content* lies
        // (bad front-coding lengths, non-UTF-8, bogus counts) must come back
        // as a structured error from the open-time validation walk.
        let make_seg = |values2: Vec<u8>, postings3: Bytes| {
            let mut meta = Writer::new();
            meta.put_varint(128);
            meta.put_str("Xash");
            meta.put_varint(0);
            let mut keys = Writer::new();
            keys.put_varint(0);
            let mut seg = SegmentWriter::new();
            seg.add_block("index.meta", meta.finish());
            seg.add_block("index.values2", Bytes::from(values2));
            seg.add_block("index.postings3", postings3);
            seg.add_block("index.superkeys2", keys.finish());
            seg.finish()
        };
        let postings_for = |n: u64| {
            // n lists, each a valid single-entry inline list.
            let mut lists = Writer::new();
            let mut offs = Vec::new();
            for _ in 0..n {
                offs.push(lists.len() as u32);
                lists.put_varint(1);
                lists.put_varint(0);
                lists.put_varint(0);
                lists.put_varint(0);
            }
            offs.push(lists.len() as u32);
            postings3_block(&offs, &lists.finish(), n)
        };
        // (a) value-length varint runs past the stream.
        let mut v = Writer::new();
        v.put_varint(1); // n = 1
        v.put_varint(16); // restart interval
        v.put_varint(1); // stream length 1
        v.put_u8(0x05); // claims a 5-byte string in a 1-byte stream
        v.put_u32_le(0); // restart offset
        assert!(with_paged(
            make_seg(v.finish().to_vec(), postings_for(1)),
            |s| s.is_err()
        ));
        // (b) non-UTF-8 value bytes.
        let mut v = Writer::new();
        v.put_varint(1);
        v.put_varint(16);
        v.put_varint(3);
        v.put_u8(2); // 2-byte string...
        v.put_raw(&[0xFF, 0xFE]); // ...that is not UTF-8
        v.put_u32_le(0);
        assert!(with_paged(
            make_seg(v.finish().to_vec(), postings_for(1)),
            |s| s.is_err()
        ));
        // (c) values out of sorted order (breaks the binary search contract).
        let mut v = Writer::new();
        v.put_varint(2);
        v.put_varint(1); // restart every value → both full strings
        let mut stream = Writer::new();
        stream.put_str("b");
        let second = stream.len() as u32;
        stream.put_str("a");
        let stream = stream.finish();
        v.put_varint(stream.len() as u64);
        v.put_raw(&stream);
        v.put_u32_le(0);
        v.put_u32_le(second);
        assert!(with_paged(
            make_seg(v.finish().to_vec(), postings_for(2)),
            |s| s.is_err()
        ));
        // And the hot loader rejects the same bytes rather than panicking.
        let mut v = Writer::new();
        v.put_varint(1);
        v.put_varint(16);
        v.put_varint(1);
        v.put_u8(0x05);
        v.put_u32_le(0);
        assert!(index_from_bytes(make_seg(v.finish().to_vec(), postings_for(1))).is_err());
    }

    #[test]
    fn wrong_block_type_rejected() {
        let c = corpus();
        // A corpus segment is not an index segment.
        let result = index_from_bytes(corpus_to_bytes(&c));
        assert!(matches!(result, Err(StorageError::MissingBlock(_))));
    }

    /// Builds a wide synthetic index (many values) for directory tests.
    fn wide_index() -> InvertedIndex {
        let mut corpus = Corpus::new();
        let mut tb = TableBuilder::new("wide", ["a", "b"]);
        for i in 0..400 {
            tb = tb.row([format!("key-{:04}", i % 311), format!("val-{i:04}")]);
        }
        corpus.add_table(tb.build());
        IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus)
    }

    #[test]
    fn legacy_encodings_rejected() {
        // Segments of the retired encodings, built by hand: each must come
        // back as a typed error from both loaders, never a partial index.
        let bytes = index_to_bytes(&wide_index());
        let current = SegmentReader::open(bytes.clone()).unwrap();
        let block = |name: &str| current.block(name).unwrap();
        let load_errors = |seg: Bytes| {
            [
                index_from_bytes(seg.clone()).err(),
                with_paged(seg, Result::err),
            ]
        };
        let mut v1_postings = Writer::new();
        v1_postings.put_varint(1); // one value
        v1_postings.put_str("foo");
        v1_postings.put_varint(1); // one (table delta, col, row) triple
        v1_postings.put_raw(&[0, 0, 0]);
        let mut v1_keys = Writer::new();
        v1_keys.put_varint(1); // one table of raw words
        v1_keys.put_u64_slice(&[1, 0]);
        let mut v1 = SegmentWriter::new();
        v1.add_block("index.meta", block("index.meta"));
        v1.add_block("index.postings", v1_postings.finish());
        v1.add_block("index.superkeys", v1_keys.finish());
        let mut v2 = SegmentWriter::new();
        for name in ["index.meta", "index.values2", "index.superkeys2"] {
            v2.add_block(name, block(name));
        }
        v2.add_block("index.postings2", Bytes::from_static(&[0, 0, 0, 0, 0, 0]));
        for legacy in [v1.finish(), v2.finish()] {
            for err in load_errors(legacy) {
                assert!(
                    matches!(&err, Some(StorageError::MissingBlock(b)) if b == "index.postings3"),
                    "{err:?}"
                );
            }
        }
        let mut v1_container = bytes.to_vec();
        v1_container[8] = 1; // container version LE byte 0
        for err in load_errors(Bytes::from(v1_container)) {
            assert!(
                matches!(err, Some(StorageError::UnsupportedVersion(1))),
                "{err:?}"
            );
        }
    }

    #[test]
    fn v3_directory_is_materially_smaller() {
        let idx = wide_index();
        let n = idx.num_values();
        let flat_dir = (n + 1) * 4;
        let v3_dir = with_paged(index_to_bytes(&idx), |s| s.unwrap().directory_bytes());
        assert!(
            v3_dir * 2 < flat_dir,
            "anchored directory ({v3_dir}) should be ≥ 2x smaller than fixed-width ({flat_dir})"
        );
    }

    #[test]
    fn default_writer_emits_v3_and_random_access_crosses_anchors() {
        let idx = wide_index();
        let bytes = index_to_bytes(&idx);
        let seg = SegmentReader::open(bytes.clone()).unwrap();
        assert!(seg.block_names().contains(&"index.postings3"));
        // Probe every value out of order so bounds() exercises anchor walks
        // at every in-group position, including across group boundaries.
        let mut values: Vec<(&str, &[PostingEntry])> = idx.iter_values().collect();
        values.sort_unstable_by_key(|(v, _)| std::cmp::Reverse(*v));
        let mut scratch = crate::ProbeScratch::new();
        let mut counters = crate::ProbeCounters::default();
        with_paged(bytes, |cold| {
            use crate::PostingSource;
            let cold = cold.unwrap();
            for (v, pl) in values {
                let h = cold.find_list(v, &mut scratch).expect("known value");
                assert_eq!(h.len as usize, pl.len());
                let mut out = Vec::new();
                cold.collect_run(h, 0, h.len, &mut scratch, &mut out, &mut counters);
                assert_eq!(out, pl);
            }
        });
    }

    #[test]
    fn corrupt_v3_directory_rejected_at_open() {
        let idx = wide_index();
        let bytes = index_to_bytes(&idx);
        let seg = SegmentReader::open(bytes).unwrap();
        // Rebuild the segment with a tampered postings3 directory: nudge
        // the second group's payload anchor (bytes re-framed so the CRC is
        // *valid* — the open-time walk, not the checksum, must catch it).
        let p3 = seg.block("index.postings3").unwrap();
        let mut r = Reader::new(p3.clone());
        let n = r.get_varint().unwrap() as usize;
        assert!(n > LIST_ANCHOR_INTERVAL, "need ≥ 2 anchor groups");
        let _total = r.get_varint().unwrap();
        let _interval = r.get_varint().unwrap();
        let lengths_len = r.get_varint().unwrap() as usize;
        let anchors_at = (p3.len() - r.remaining()) + lengths_len;
        let mut p3 = p3.to_vec();
        p3[anchors_at + 8] ^= 0x01; // second group's payload offset
        let mut sw = SegmentWriter::new();
        for name in ["index.meta", "index.values2", "index.superkeys2"] {
            sw.add_block(name, seg.block(name).unwrap());
        }
        sw.add_block("index.postings3", Bytes::from(p3));
        assert!(with_paged(sw.finish(), |s| s.is_err()));
    }

    #[test]
    fn delta_rejects_sparse_table_id() {
        let mut w = Writer::new();
        w.put_varint(1); // one table
        w.put_varint(5); // id 5 over an empty corpus: a gap
        w.put_str("ghost");
        w.put_varint(0);
        w.put_varint(0);
        let mut c = Corpus::new();
        assert!(apply_corpus_delta(&mut c, w.finish()).is_err());
    }

    use proptest::prelude::{prop_assert_eq, ProptestConfig};

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Folding a base checkpoint through any chain of table-granular
        /// deltas is bit-identical to a monolithic checkpoint of the final
        /// corpus — including deltas that re-cover the same table (last
        /// wins) and deltas that append new tables.
        #[test]
        fn delta_chain_fold_equals_monolithic_checkpoint(
            base_tables in 0usize..5,
            steps in proptest::collection::vec(
                (0usize..7, 0usize..4, proptest::collection::vec("[a-c]{0,3}", 1..6)),
                1..6,
            ),
        ) {
            // Base corpus.
            let mut live = Corpus::new();
            for i in 0..base_tables {
                live.add_table(
                    TableBuilder::new(format!("base{i}"), ["k", "v"])
                        .row([format!("key-{i}"), "shared".to_string()])
                        .build(),
                );
            }
            let mut folded = corpus_from_bytes(corpus_to_bytes(&live)).unwrap();

            // Each step mutates/appends some tables in the live corpus and
            // writes a delta covering exactly those ids.
            for (slot, ncols, cells) in steps {
                let id = slot.min(live.len()); // append when == len
                let cols: Vec<String> = (0..=ncols).map(|c| format!("c{c}")).collect();
                let mut tb = TableBuilder::new(format!("tbl-{id}-{ncols}"), cols);
                for chunk in cells.chunks(ncols + 1) {
                    let mut row: Vec<String> = chunk.to_vec();
                    row.resize(ncols + 1, String::new());
                    tb = tb.row(row);
                }
                let table = tb.build();
                if id == live.len() {
                    live.add_table(table);
                } else {
                    *live.table_mut(TableId::from(id)) = table;
                }
                let delta = corpus_delta_to_bytes(&live, &[id as u32]);
                apply_corpus_delta(&mut folded, delta).unwrap();
            }

            // The fold must equal a monolithic checkpoint of the live
            // corpus, down to the serialized bytes.
            prop_assert_eq!(live.len(), folded.len());
            for (tid, t) in live.iter() {
                prop_assert_eq!(t, folded.table(tid));
            }
            prop_assert_eq!(corpus_to_bytes(&live), corpus_to_bytes(&folded));

            // And a delta covering *every* table over the old base is a
            // full resync: idempotent to apply twice.
            let all: Vec<u32> = (0..live.len() as u32).collect();
            let resync = corpus_delta_to_bytes(&live, &all);
            let mut twice = corpus_from_bytes(corpus_to_bytes(&folded)).unwrap();
            apply_corpus_delta(&mut twice, resync.clone()).unwrap();
            apply_corpus_delta(&mut twice, resync).unwrap();
            prop_assert_eq!(corpus_to_bytes(&twice), corpus_to_bytes(&live));
        }

        /// Checkpoint and delta bytes survive a decode and re-encode
        /// unchanged, and the checkpoint equals one written by interning
        /// every cell in row order — over cells with empty and non-ASCII
        /// text, and tables whose edits left stale or duplicate
        /// dictionary entries.
        #[test]
        fn checkpoint_and_delta_bytes_round_trip(
            tables in proptest::collection::vec(
                (1usize..4, proptest::collection::vec(0usize..8, 0..12)),
                0..5,
            ),
            edits in proptest::collection::vec(
                (0usize..5, 0usize..12, 0usize..4, 0u8..4, 0usize..8),
                0..40,
            ),
        ) {
            const TEXT: [&str; 8] = ["", "a", "É", "日本", "  x  Y ", "ß", "ab", "é日"];
            let mut corpus = Corpus::new();
            for (i, (ncols, cells)) in tables.iter().enumerate() {
                let cols: Vec<String> = (0..*ncols).map(|c| format!("c{c}")).collect();
                let mut tb = TableBuilder::new(format!("t{i}"), cols);
                for chunk in cells.chunks_exact(*ncols) {
                    tb = tb.row(chunk.iter().map(|&c| TEXT[c]));
                }
                corpus.add_table(tb.build());
            }
            for (t, row, col, op, v) in edits {
                let v = TEXT[v];
                if corpus.is_empty() {
                    break;
                }
                let table = corpus.table_mut(TableId::from(t % corpus.len()));
                let (rows, cols) = (table.num_rows(), table.num_cols());
                match op {
                    0 if rows > 0 => table.set_cell(RowId::from(row % rows), (col % cols).into(), v),
                    1 if cols > 0 => table.push_row(&vec![v; cols]),
                    2 if rows > 0 => table.swap_remove_row(RowId::from(row % rows)),
                    3 if cols > 1 => {
                        let moved = table.remove_column((col % cols).into());
                        table.push_column(moved);
                    }
                    _ => {}
                }
            }

            let bytes = corpus_to_bytes(&corpus);
            let decoded = corpus_from_bytes(bytes.clone()).unwrap();
            prop_assert_eq!(&corpus_to_bytes(&decoded), &bytes);
            for (tid, t) in corpus.iter() {
                prop_assert_eq!(t, decoded.table(tid));
            }

            // The per-cell reference: one intern per cell, row order.
            let mut dict = std::collections::HashMap::new();
            let mut ordered: Vec<&str> = Vec::new();
            let mut cells = Writer::new();
            cells.put_varint(corpus.len() as u64);
            for (_, t) in corpus.iter() {
                cells.put_str(&t.name);
                cells.put_varint(t.num_cols() as u64);
                cells.put_varint(t.num_rows() as u64);
                for c in t.columns() {
                    cells.put_str(&c.name);
                    for v in c.iter() {
                        let id = *dict.entry(v).or_insert_with(|| {
                            ordered.push(v);
                            ordered.len() - 1
                        });
                        cells.put_varint(id as u64);
                    }
                }
            }
            let seg = SegmentReader::open(bytes).unwrap();
            let mut dict_block = Writer::new();
            dict_block.put_varint(ordered.len() as u64);
            for v in &ordered {
                dict_block.put_str(v);
            }
            prop_assert_eq!(seg.block("corpus.dict").unwrap(), dict_block.finish());
            prop_assert_eq!(seg.block("corpus.tables").unwrap(), cells.finish());

            let all: Vec<u32> = (0..corpus.len() as u32).collect();
            let delta = corpus_delta_to_bytes(&corpus, &all);
            let mut replayed = Corpus::new();
            apply_corpus_delta(&mut replayed, delta.clone()).unwrap();
            prop_assert_eq!(corpus_delta_to_bytes(&replayed, &all), delta);
            prop_assert_eq!(corpus_to_bytes(&replayed), corpus_to_bytes(&corpus));
        }
    }
}
