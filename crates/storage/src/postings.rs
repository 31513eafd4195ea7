//! Block-compressed posting lists with skip headers (segment format v2).
//!
//! A posting list is a `(table, col, row)` sequence sorted ascending. A
//! plain encoding writes one varint triple per entry; this module packs
//! lists the way IR systems store inverted files:
//!
//! * **Inline lists** (≤ [`INLINE_MAX`] entries): varint triples with the
//!   table id delta-encoded — block machinery would cost more than it saves
//!   on the long tail of rare values.
//! * **Blocked lists**: entries split into blocks of `block_len` (default
//!   [`DEFAULT_BLOCK_LEN`]). Per block, the three component streams are
//!   **bit-packed** at the block's maximum bit width: table-id deltas
//!   (the first table comes from the skip header), columns, and rows.
//!   A varint triple costs ≥ 24 bits per entry; dense lakes pack the same
//!   entry into 8–16 bits.
//!
//! Every blocked list carries a **skip directory**: per block, the first and
//! last table id plus the payload byte length. A probe that only needs
//! entries of one table (or one slice of the list) consults the directory
//! and decodes just the blocks that overlap — the rest are *skipped* without
//! touching their payload bytes.
//!
//! ```text
//! list            := count:varint body
//! body            := ε                      (count == 0)
//!                  | inline-entries         (count ≤ INLINE_MAX)
//!                  | blocked                (count > INLINE_MAX)
//! inline-entries  := { table-delta:varint col:varint row:varint }*
//! blocked         := block_len:varint skip-dir payloads
//! skip-dir        := { first-table-delta:varint       (block 0: absolute)
//!                      last-minus-first:varint
//!                      payload-bytes:varint }*
//! payloads        := { tables cols rows }*            (one per block)
//! tables          := width:u8 bitpacked(n-1 deltas)   (first from skip dir)
//! cols            := width:u8 bitpacked(n values)
//! rows            := width:u8 bitpacked(n values)
//! ```
//!
//! Block entry counts are implicit: every block holds `block_len` entries
//! except the last, which holds the remainder. Bit-packing is LSB-first.

use crate::codec::Writer;
use crate::error::StorageError;
use crate::varint;

/// One posting entry as raw ids: `(table, col, row)`.
pub type RawPosting = (u32, u32, u32);

/// Entries per block in blocked lists (the encoder parameter; the chosen
/// value is stored in the stream, so readers never assume it).
pub const DEFAULT_BLOCK_LEN: usize = 128;

/// Largest list stored inline (varint triples, no skip directory). Block
/// overhead (~10 bytes of directory + 3 width bytes) only pays for itself
/// once bit-packing can amortize it over enough entries.
pub const INLINE_MAX: usize = 8;

/// Skip-directory entry for one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipEntry {
    /// Table id of the block's first entry.
    pub first_table: u32,
    /// Table id of the block's last entry.
    pub last_table: u32,
    /// Entry index (within the list) of the block's first entry.
    pub first_entry: u32,
    /// Number of entries in the block.
    pub entries: u32,
    /// Byte offset of the block payload, relative to the payload area.
    pub offset: usize,
    /// Byte length of the block payload.
    pub bytes: usize,
}

/// Reusable scratch for probing blocked lists: the parsed skip directory and
/// per-stream unpack buffers. One instance per worker thread amortizes all
/// probe-time allocations.
#[derive(Debug, Default)]
pub struct ListScratch {
    dir: Vec<SkipEntry>,
    tables: Vec<u32>,
    cols: Vec<u32>,
    rows: Vec<u32>,
}

impl ListScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        ListScratch::default()
    }
}

/// Block decode counters for one or more probes: how many blocks had their
/// payload decoded vs. how many were bypassed via the skip directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCounters {
    /// Blocks whose payload streams were decoded.
    pub decoded: u64,
    /// Blocks skipped via the skip directory without touching their payload.
    pub skipped: u64,
}

// ------------------------------------------------------------ bit packing --

/// Bits needed to represent `v` (0 for 0).
#[inline]
fn width_of(v: u32) -> u32 {
    32 - v.leading_zeros()
}

/// Appends `values` LSB-first at `width` bits each. `width == 0` writes
/// nothing (all values are zero).
fn pack(values: &[u32], width: u32, w: &mut Writer) {
    debug_assert!(width <= 32);
    if width == 0 {
        return;
    }
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    for &v in values {
        debug_assert!(width == 32 || u64::from(v) < (1u64 << width));
        acc |= u64::from(v) << bits;
        bits += width;
        while bits >= 8 {
            w.put_u8((acc & 0xff) as u8);
            acc >>= 8;
            bits -= 8;
        }
    }
    if bits > 0 {
        w.put_u8((acc & 0xff) as u8);
    }
}

/// Bytes [`pack`] produces for `n` values at `width` bits.
#[inline]
fn packed_len(n: usize, width: u32) -> usize {
    (n * width as usize).div_ceil(8)
}

/// Reads `n` values of `width` bits from `data`, appending to `out`.
fn unpack(data: &[u8], n: usize, width: u32, out: &mut Vec<u32>) -> Result<(), StorageError> {
    if width == 0 {
        out.resize(out.len() + n, 0);
        return Ok(());
    }
    if width > 32 || data.len() < packed_len(n, width) {
        return Err(StorageError::UnexpectedEof {
            context: "bitpacked stream",
        });
    }
    let mut acc: u64 = 0;
    let mut bits: u32 = 0;
    let mut at = 0usize;
    let mask: u64 = if width == 32 {
        u32::MAX as u64
    } else {
        (1u64 << width) - 1
    };
    for _ in 0..n {
        while bits < width {
            acc |= u64::from(data[at]) << bits;
            at += 1;
            bits += 8;
        }
        out.push((acc & mask) as u32);
        acc >>= width;
        bits -= width;
    }
    Ok(())
}

/// Value `i` of a stream packed LSB-first at `width` bits (≤ 32), read by
/// random access. The caller has checked that `data` holds the stream, so
/// the value's bytes are in bounds; a short tail is zero-padded.
#[inline]
fn packed_at(data: &[u8], i: usize, width: u32) -> u32 {
    if width == 0 {
        return 0;
    }
    let bit = i * width as usize;
    let at = bit / 8;
    let mut word = [0u8; 8];
    match data.get(at..at + 8) {
        Some(chunk) => word.copy_from_slice(chunk),
        None => {
            let tail = data.get(at..).unwrap_or_default();
            word[..tail.len()].copy_from_slice(tail);
        }
    }
    // width ≤ 32 and the in-byte shift ≤ 7, so the value sits in 39 bits.
    ((u64::from_le_bytes(word) >> (bit % 8)) & ((1u64 << width) - 1)) as u32
}

// --------------------------------------------------------------- encoding --

/// Appends the v2 encoding of `entries` (sorted ascending) to `w`.
///
/// # Panics
/// Debug-asserts that `entries` is sorted; `block_len` must be ≥ 2.
pub fn encode_list(entries: &[RawPosting], block_len: usize, w: &mut Writer) {
    assert!(block_len >= 2, "block_len must be at least 2");
    debug_assert!(entries.windows(2).all(|p| p[0] < p[1]), "unsorted postings");
    w.put_varint(entries.len() as u64);
    if entries.is_empty() {
        return;
    }
    if entries.len() <= INLINE_MAX {
        let mut prev_table = 0u32;
        for &(t, c, r) in entries {
            w.put_varint_u32(t - prev_table);
            prev_table = t;
            w.put_varint_u32(c);
            w.put_varint_u32(r);
        }
        return;
    }

    w.put_varint(block_len as u64);
    let blocks: Vec<&[RawPosting]> = entries.chunks(block_len).collect();

    // Pass 1: per-block stream widths → exact payload lengths for the skip
    // directory (presized via `varint::encoded_len`, so the directory is
    // written in one forward pass with no back-patching).
    struct Plan {
        tw: u32,
        cw: u32,
        rw: u32,
        bytes: usize,
    }
    let mut plans = Vec::with_capacity(blocks.len());
    let mut dir_bytes = 0usize;
    let mut prev_first = 0u32;
    for block in &blocks {
        let first = block[0].0;
        let last = block[block.len() - 1].0;
        let tw = block
            .windows(2)
            .map(|p| width_of(p[1].0 - p[0].0))
            .max()
            .unwrap_or(0);
        let cw = width_of(block.iter().map(|e| e.1).max().unwrap_or(0));
        let rw = width_of(block.iter().map(|e| e.2).max().unwrap_or(0));
        let bytes = 3
            + packed_len(block.len() - 1, tw)
            + packed_len(block.len(), cw)
            + packed_len(block.len(), rw);
        dir_bytes += varint::encoded_len(u64::from(first - prev_first))
            + varint::encoded_len(u64::from(last - first))
            + varint::encoded_len(bytes as u64);
        prev_first = first;
        plans.push(Plan { tw, cw, rw, bytes });
    }
    w.reserve(dir_bytes + plans.iter().map(|p| p.bytes).sum::<usize>());

    // Skip directory.
    let mut prev_first = 0u32;
    for (block, plan) in blocks.iter().zip(&plans) {
        let first = block[0].0;
        let last = block[block.len() - 1].0;
        w.put_varint(u64::from(first - prev_first));
        w.put_varint(u64::from(last - first));
        w.put_varint(plan.bytes as u64);
        prev_first = first;
    }

    // Block payloads.
    let mut stream: Vec<u32> = Vec::with_capacity(block_len);
    for (block, plan) in blocks.iter().zip(&plans) {
        let before = w.len();
        w.put_u8(plan.tw as u8);
        stream.clear();
        stream.extend(block.windows(2).map(|p| p[1].0 - p[0].0));
        pack(&stream, plan.tw, w);
        w.put_u8(plan.cw as u8);
        stream.clear();
        stream.extend(block.iter().map(|e| e.1));
        pack(&stream, plan.cw, w);
        w.put_u8(plan.rw as u8);
        stream.clear();
        stream.extend(block.iter().map(|e| e.2));
        pack(&stream, plan.rw, w);
        debug_assert_eq!(w.len() - before, plan.bytes);
    }
}

// --------------------------------------------------------------- decoding --

/// A parsed list header: entry count plus, for blocked lists, the skip
/// directory (left in the caller's scratch) and the payload area.
struct Header<'a> {
    count: usize,
    /// `Some(payload)` for blocked lists (directory parsed into scratch),
    /// `None` for inline lists (body is the remaining bytes).
    blocked: Option<&'a [u8]>,
    /// Inline body / blocked payload start.
    body: &'a [u8],
}

/// Varint at the front of `data`, returning `(value, rest)`.
fn take_varint(data: &[u8]) -> Result<(u64, &[u8]), StorageError> {
    let mut slice = data;
    let v = varint::read_u64(&mut slice)?;
    Ok((v, slice))
}

fn parse_header<'a>(
    data: &'a [u8],
    scratch: &mut Vec<SkipEntry>,
) -> Result<Header<'a>, StorageError> {
    scratch.clear();
    let (count, rest) = take_varint(data)?;
    // Entry positions are u32 throughout (ListHandle, SkipEntry), so an
    // attacker-controlled count beyond u32 must fail here — truncating it
    // would make per-block entry counts wrap (possibly to 0) downstream.
    let count = u32::try_from(count).map_err(|_| StorageError::InvalidLength {
        context: "posting count",
        value: count,
    })? as usize;
    if count <= INLINE_MAX {
        return Ok(Header {
            count,
            blocked: None,
            body: rest,
        });
    }
    let (block_len, mut rest) = take_varint(rest)?;
    if block_len < 2 || block_len > u64::from(u32::MAX) {
        return Err(StorageError::InvalidLength {
            context: "posting block length",
            value: block_len,
        });
    }
    let block_len = block_len as usize;
    let nblocks = count.div_ceil(block_len);
    // Each skip entry costs ≥ 3 bytes; reject an impossible directory
    // before walking (and allocating) anything proportional to it.
    if nblocks * 3 > rest.len() {
        return Err(StorageError::UnexpectedEof {
            context: "skip directory",
        });
    }
    let mut prev_first = 0u32;
    let mut offset = 0usize;
    for b in 0..nblocks {
        let (fd, r1) = take_varint(rest)?;
        let (span, r2) = take_varint(r1)?;
        let (bytes, r3) = take_varint(r2)?;
        rest = r3;
        let first = prev_first
            .checked_add(u32::try_from(fd).map_err(|_| StorageError::InvalidLength {
                context: "skip first-table delta",
                value: fd,
            })?)
            .ok_or(StorageError::InvalidLength {
                context: "skip first-table delta",
                value: fd,
            })?;
        let entries = if b + 1 < nblocks {
            block_len
        } else {
            count - (nblocks - 1) * block_len
        };
        scratch.push(SkipEntry {
            first_table: first,
            last_table: first.saturating_add(u32::try_from(span).unwrap_or(u32::MAX)),
            first_entry: (b * block_len) as u32,
            entries: entries as u32,
            offset,
            bytes: bytes as usize,
        });
        prev_first = first;
        offset = offset
            .checked_add(bytes as usize)
            .ok_or(StorageError::InvalidLength {
                context: "skip payload length",
                value: bytes,
            })?;
    }
    // The directory's total payload length must fit the remaining bytes —
    // a corrupt directory must fail here, not panic at block-slice time.
    if offset > rest.len() {
        return Err(StorageError::InvalidLength {
            context: "skip directory span",
            value: offset as u64,
        });
    }
    Ok(Header {
        count,
        blocked: Some(&rest[..offset]),
        body: rest,
    })
}

/// Entry count of the list at `data` without decoding anything else.
pub fn list_count(data: &[u8]) -> Result<usize, StorageError> {
    let (count, _) = take_varint(data)?;
    usize::try_from(count).map_err(|_| StorageError::InvalidLength {
        context: "posting count",
        value: count,
    })
}

/// One bit-packed stream of a block: `(width, packed bytes)`.
type Stream<'a> = (u32, &'a [u8]);

/// Splits one `width:u8 bitpacked(n values)` stream off the front of
/// `data`, returning the stream and the bytes after it.
fn split_stream(data: &[u8], n: usize) -> Result<(Stream<'_>, &[u8]), StorageError> {
    let eof = || StorageError::UnexpectedEof {
        context: "bitpacked stream",
    };
    let (&width, rest) = data.split_first().ok_or_else(eof)?;
    let width = u32::from(width);
    if width > 32 {
        return Err(eof());
    }
    let len = packed_len(n, width);
    if rest.len() < len {
        return Err(eof());
    }
    Ok(((width, &rest[..len]), &rest[len..]))
}

/// The three streams of one block: table-id deltas, columns, rows.
fn block_streams<'a>(
    payload: &'a [u8],
    entry: &SkipEntry,
) -> Result<[Stream<'a>; 3], StorageError> {
    let n = entry.entries as usize;
    let block = payload
        .get(entry.offset..entry.offset + entry.bytes)
        .ok_or(StorageError::UnexpectedEof {
            context: "posting block payload",
        })?;
    let (tables, rest) = split_stream(block, n - 1)?;
    let (cols, rest) = split_stream(rest, n)?;
    let (rows, _) = split_stream(rest, n)?;
    Ok([tables, cols, rows])
}

/// Decodes the three streams of one block into the scratch buffers.
fn decode_block(
    payload: &[u8],
    entry: &SkipEntry,
    scratch: &mut ListScratch,
) -> Result<(), StorageError> {
    let n = entry.entries as usize;
    let [(tw, tables), (cw, cols), (rw, rows)] = block_streams(payload, entry)?;
    scratch.tables.clear();
    scratch.cols.clear();
    scratch.rows.clear();
    scratch.tables.push(entry.first_table);
    unpack(tables, n - 1, tw, &mut scratch.tables)?;
    // Deltas → absolute table ids.
    for i in 1..n {
        scratch.tables[i] = scratch.tables[i].wrapping_add(scratch.tables[i - 1]);
    }
    unpack(cols, n, cw, &mut scratch.cols)?;
    unpack(rows, n, rw, &mut scratch.rows)?;
    Ok(())
}

/// Appends entries `[lo, hi)` of one block to `out` without unpacking the
/// whole block: table ids are prefix-summed from the deltas up to `hi`,
/// and columns and rows are read by random access into their fixed-width
/// streams.
fn collect_block_range(
    payload: &[u8],
    entry: &SkipEntry,
    lo: usize,
    hi: usize,
    out: &mut Vec<RawPosting>,
) -> Result<(), StorageError> {
    let [(tw, tables), (cw, cols), (rw, rows)] = block_streams(payload, entry)?;
    // Entry i's table is first_table plus deltas 0..i; a zero-width delta
    // stream (every single-table block) adds nothing.
    let mut table = entry.first_table;
    if tw > 0 {
        for i in 0..lo {
            table = table.wrapping_add(packed_at(tables, i, tw));
        }
    }
    for i in lo..hi {
        if i > lo && tw > 0 {
            table = table.wrapping_add(packed_at(tables, i - 1, tw));
        }
        out.push((table, packed_at(cols, i, cw), packed_at(rows, i, rw)));
    }
    Ok(())
}

/// Decodes entries `[start, end)` of an inline body, appending to `out`
/// (the entries before `start` are walked, not kept).
fn decode_inline(
    mut body: &[u8],
    start: usize,
    end: usize,
    out: &mut Vec<RawPosting>,
) -> Result<(), StorageError> {
    let mut prev_table = 0u32;
    out.reserve(end - start);
    for i in 0..end {
        let dt = varint::read_u32(&mut body)?;
        let c = varint::read_u32(&mut body)?;
        let r = varint::read_u32(&mut body)?;
        let t = prev_table
            .checked_add(dt)
            .ok_or(StorageError::InvalidLength {
                context: "posting table delta",
                value: u64::from(dt),
            })?;
        prev_table = t;
        if i >= start {
            out.push((t, c, r));
        }
    }
    Ok(())
}

/// Fully decodes the list at `data`, appending to `out`. Blocks are
/// decoded with the streaming unpack (every value of every stream is
/// needed, so random access would buy nothing).
pub fn decode_list(data: &[u8], out: &mut Vec<RawPosting>) -> Result<(), StorageError> {
    let mut scratch = ListScratch::new();
    let header = parse_header(data, &mut scratch.dir)?;
    let Some(payload) = header.blocked else {
        return decode_inline(header.body, 0, header.count, out);
    };
    out.reserve(header.count);
    for b in 0..scratch.dir.len() {
        let entry = scratch.dir[b];
        decode_block(payload, &entry, &mut scratch)?;
        let ListScratch {
            tables, cols, rows, ..
        } = &scratch;
        out.extend(
            tables
                .iter()
                .zip(cols)
                .zip(rows)
                .map(|((&t, &c), &r)| (t, c, r)),
        );
    }
    Ok(())
}

/// Calls `f(table, run_len)` for every maximal run of equal table ids, in
/// list order. Blocked lists decode **only the table streams**; column and
/// row payloads are jumped over via the stream width bytes.
pub fn table_runs(
    data: &[u8],
    scratch: &mut ListScratch,
    f: &mut dyn FnMut(u32, u32),
) -> Result<(), StorageError> {
    let header = parse_header(data, &mut scratch.dir)?;
    if header.count == 0 {
        return Ok(());
    }
    let mut cur: Option<(u32, u32)> = None;
    let push = |table: u32, cur: &mut Option<(u32, u32)>, f: &mut dyn FnMut(u32, u32)| match cur {
        Some((t, n)) if *t == table => *n += 1,
        Some((t, n)) => {
            f(*t, *n);
            *cur = Some((table, 1));
        }
        None => *cur = Some((table, 1)),
    };
    match header.blocked {
        None => {
            let mut body = header.body;
            let mut prev_table = 0u32;
            for _ in 0..header.count {
                let dt = varint::read_u32(&mut body)?;
                let _c = varint::read_u32(&mut body)?;
                let _r = varint::read_u32(&mut body)?;
                prev_table = prev_table
                    .checked_add(dt)
                    .ok_or(StorageError::InvalidLength {
                        context: "posting table delta",
                        value: u64::from(dt),
                    })?;
                push(prev_table, &mut cur, f);
            }
        }
        Some(payload) => {
            for b in 0..scratch.dir.len() {
                let entry = scratch.dir[b];
                // Single-table block: the skip header already proves every
                // entry has `first_table` — no payload touched, and the
                // whole block merges into the current run in one step.
                if entry.first_table == entry.last_table {
                    match &mut cur {
                        Some((t, n)) if *t == entry.first_table => *n += entry.entries,
                        Some((t, n)) => {
                            f(*t, *n);
                            cur = Some((entry.first_table, entry.entries));
                        }
                        None => cur = Some((entry.first_table, entry.entries)),
                    }
                    continue;
                }
                let n = entry.entries as usize;
                let block = payload
                    .get(entry.offset..entry.offset + entry.bytes)
                    .ok_or(StorageError::UnexpectedEof {
                        context: "posting block payload",
                    })?;
                let tw = u32::from(*block.first().ok_or(StorageError::UnexpectedEof {
                    context: "posting block payload",
                })?);
                scratch.tables.clear();
                scratch.tables.push(entry.first_table);
                unpack(&block[1..], n - 1, tw, &mut scratch.tables)?;
                let mut prev = entry.first_table;
                push(prev, &mut cur, f);
                for i in 1..n {
                    prev = prev.wrapping_add(scratch.tables[i]);
                    push(prev, &mut cur, f);
                }
            }
        }
    }
    if let Some((t, n)) = cur {
        f(t, n);
    }
    Ok(())
}

/// Structurally validates the list at `data` without decoding payload
/// streams, returning its entry count. After this succeeds, every probe
/// function on the same bytes is infallible: inline bodies are walked
/// varint-by-varint, and each block's three width bytes are checked to be
/// ≤ 32 and to account for exactly the block's declared byte length.
/// Loaders that serve probes through `expect()` call this once at open.
pub fn validate_list(data: &[u8], scratch: &mut ListScratch) -> Result<usize, StorageError> {
    let header = parse_header(data, &mut scratch.dir)?;
    match header.blocked {
        None => {
            let mut body = header.body;
            let mut prev_table = 0u32;
            for _ in 0..header.count {
                let dt = varint::read_u32(&mut body)?;
                let _c = varint::read_u32(&mut body)?;
                let _r = varint::read_u32(&mut body)?;
                prev_table = prev_table
                    .checked_add(dt)
                    .ok_or(StorageError::InvalidLength {
                        context: "posting table delta",
                        value: u64::from(dt),
                    })?;
            }
            if !body.is_empty() {
                return Err(StorageError::InvalidLength {
                    context: "posting list slack",
                    value: body.len() as u64,
                });
            }
        }
        Some(payload) => {
            // `payload` is the directory's span of `body`; any bytes past
            // it are smuggled slack a strict validator must reject.
            if payload.len() != header.body.len() {
                return Err(StorageError::InvalidLength {
                    context: "posting list slack",
                    value: (header.body.len() - payload.len()) as u64,
                });
            }
            for entry in &scratch.dir {
                let n = entry.entries as usize;
                let block = payload
                    .get(entry.offset..entry.offset + entry.bytes)
                    .ok_or(StorageError::UnexpectedEof {
                        context: "posting block payload",
                    })?;
                let eof = || StorageError::UnexpectedEof {
                    context: "posting block payload",
                };
                let tw = u32::from(*block.first().ok_or_else(eof)?);
                let at = 1 + packed_len(n - 1, tw.min(32));
                let cw = u32::from(*block.get(at).ok_or_else(eof)?);
                let at = at + 1 + packed_len(n, cw.min(32));
                let rw = u32::from(*block.get(at).ok_or_else(eof)?);
                let total = at + 1 + packed_len(n, rw.min(32));
                if tw > 32 || cw > 32 || rw > 32 || total != entry.bytes {
                    return Err(StorageError::InvalidLength {
                        context: "posting block widths",
                        value: entry.bytes as u64,
                    });
                }
            }
        }
    }
    Ok(header.count)
}

/// Decodes entries `[start, start + len)` of the list, appending to `out`.
/// Blocked lists decode only the blocks overlapping the range — the rest
/// are counted as skipped — and within those only the requested entries.
pub fn collect_range(
    data: &[u8],
    start: usize,
    len: usize,
    scratch: &mut ListScratch,
    out: &mut Vec<RawPosting>,
    counters: &mut BlockCounters,
) -> Result<(), StorageError> {
    let header = parse_header(data, &mut scratch.dir)?;
    let end = start.saturating_add(len);
    if end > header.count {
        return Err(StorageError::InvalidLength {
            context: "posting range",
            value: end as u64,
        });
    }
    if len == 0 {
        return Ok(());
    }
    let Some(payload) = header.blocked else {
        return decode_inline(header.body, start, end, out);
    };
    out.reserve(len);
    for entry in &scratch.dir {
        let b_start = entry.first_entry as usize;
        let b_end = b_start + entry.entries as usize;
        if b_end <= start || b_start >= end {
            counters.skipped += 1;
            continue;
        }
        counters.decoded += 1;
        collect_block_range(
            payload,
            entry,
            start.max(b_start) - b_start,
            end.min(b_end) - b_start,
            out,
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn encode(entries: &[RawPosting], block_len: usize) -> Vec<u8> {
        let mut w = Writer::new();
        encode_list(entries, block_len, &mut w);
        w.finish().to_vec()
    }

    fn roundtrip(entries: &[RawPosting], block_len: usize) {
        let data = encode(entries, block_len);
        assert_eq!(list_count(&data).unwrap(), entries.len());
        let mut out = Vec::new();
        decode_list(&data, &mut out).unwrap();
        assert_eq!(out, entries);
    }

    fn make(n: usize, tables: u32) -> Vec<RawPosting> {
        let mut v: Vec<RawPosting> = (0..n as u32)
            .map(|i| (i % tables, (i * 7) % 13, i * 3 % 977))
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    #[test]
    fn bitpack_roundtrip_all_widths() {
        for width in 0..=32u32 {
            let max: u32 = if width == 32 {
                u32::MAX
            } else {
                (1u64 << width) as u32 - 1
            };
            let values: Vec<u32> = (0..67).map(|i| max.wrapping_sub(i * 31) & max).collect();
            let mut w = Writer::new();
            pack(&values, width, &mut w);
            let data = w.finish();
            assert_eq!(data.len(), packed_len(values.len(), width));
            let mut out = Vec::new();
            unpack(&data, values.len(), width, &mut out).unwrap();
            assert_eq!(out, values);
        }
    }

    #[test]
    fn empty_and_inline_lists() {
        roundtrip(&[], 128);
        roundtrip(&[(0, 0, 0)], 128);
        roundtrip(&[(3, 1, 2), (9, 0, 0), (9, 0, 1)], 128);
        let exactly_inline = make(INLINE_MAX, 3);
        roundtrip(&exactly_inline, 128);
    }

    #[test]
    fn blocked_lists_roundtrip() {
        for n in [INLINE_MAX + 1, 100, 128, 129, 1000] {
            for tables in [1, 2, 50] {
                roundtrip(&make(n, tables), 128);
                roundtrip(&make(n, tables), 16);
            }
        }
    }

    #[test]
    fn collect_range_matches_slice() {
        let entries = make(500, 37);
        let data = encode(&entries, 64);
        let mut scratch = ListScratch::new();
        let mut counters = BlockCounters::default();
        for (start, len) in [(0, 500), (0, 1), (499, 1), (100, 64), (63, 130), (250, 0)] {
            let mut out = Vec::new();
            collect_range(&data, start, len, &mut scratch, &mut out, &mut counters).unwrap();
            assert_eq!(out, &entries[start..start + len], "range {start}+{len}");
        }
    }

    #[test]
    fn collect_range_skips_blocks() {
        let entries = make(640, 17); // 10 blocks of 64
        let data = encode(&entries, 64);
        let mut scratch = ListScratch::new();
        let mut counters = BlockCounters::default();
        let mut out = Vec::new();
        collect_range(&data, 320, 10, &mut scratch, &mut out, &mut counters).unwrap();
        assert_eq!(counters.decoded, 1);
        assert_eq!(counters.skipped, 9);
        assert_eq!(out, &entries[320..330]);
    }

    #[test]
    fn table_runs_match_decoded() {
        for (n, tables, block) in [(5, 2, 128), (300, 7, 64), (640, 1, 64), (129, 129, 128)] {
            let entries = make(n, tables);
            let data = encode(&entries, block);
            let mut scratch = ListScratch::new();
            let mut runs = Vec::new();
            table_runs(&data, &mut scratch, &mut |t, len| runs.push((t, len))).unwrap();
            // Expected: maximal runs of the decoded sequence.
            let mut expect: Vec<(u32, u32)> = Vec::new();
            for e in &entries {
                match expect.last_mut() {
                    Some((t, n)) if *t == e.0 => *n += 1,
                    _ => expect.push((e.0, 1)),
                }
            }
            assert_eq!(runs, expect, "n={n} tables={tables}");
            assert_eq!(
                runs.iter().map(|&(_, n)| n as usize).sum::<usize>(),
                entries.len()
            );
        }
    }

    #[test]
    fn validate_list_accepts_real_and_rejects_crafted() {
        let mut scratch = ListScratch::new();
        for n in [0, 1, INLINE_MAX, 100, 640] {
            let entries = make(n, 7);
            let data = encode(&entries, 64);
            assert_eq!(validate_list(&data, &mut scratch).unwrap(), entries.len());
        }
        // Crafted blocked list with an impossible stream width: flip the
        // first width byte of the first block payload to 33.
        let entries = make(100, 7);
        let mut data = encode(&entries, 64);
        // Locate the payload start by re-parsing the header.
        let header_len = {
            let mut dir = Vec::new();
            let before = data.len();
            let h = super::parse_header(&data, &mut dir).unwrap();
            before - h.body.len()
        };
        data[header_len] = 33;
        assert!(validate_list(&data, &mut scratch).is_err());
        // Truncations never validate (or at least never panic).
        let data = encode(&make(300, 9), 64);
        for cut in 0..data.len() {
            let _ = validate_list(&data[..cut], &mut scratch);
        }
    }

    #[test]
    fn oversized_count_and_block_len_rejected() {
        // count = 2^32 + 9 with block_len = 2^32: naive truncation would
        // give the first block 0 entries and underflow `n - 1` downstream.
        let mut w = Writer::new();
        w.put_varint((1u64 << 32) + 9);
        w.put_varint(1u64 << 32);
        w.put_raw(&[0u8; 64]);
        let data = w.finish();
        let mut scratch = ListScratch::new();
        assert!(matches!(
            validate_list(&data, &mut scratch),
            Err(StorageError::InvalidLength { .. })
        ));
        let mut out = Vec::new();
        assert!(decode_list(&data, &mut out).is_err());
        // In-range count with an absurd block_len fails on the block_len.
        let mut w = Writer::new();
        w.put_varint(100);
        w.put_varint(1u64 << 32);
        w.put_raw(&[0u8; 64]);
        assert!(validate_list(&w.finish(), &mut scratch).is_err());
        // An impossible directory (count implies more skip entries than
        // bytes) fails before allocating anything proportional to it.
        let mut w = Writer::new();
        w.put_varint(u32::MAX as u64);
        w.put_varint(2);
        w.put_raw(&[0u8; 16]);
        assert!(matches!(
            validate_list(&w.finish(), &mut scratch),
            Err(StorageError::UnexpectedEof { .. })
        ));
    }

    #[test]
    fn trailing_slack_rejected_by_validate() {
        let mut scratch = ListScratch::new();
        for n in [3, 50] {
            let entries = make(n, 5);
            let mut data = encode(&entries, 16);
            data.push(0xAB); // one smuggled byte after the list
            assert!(
                matches!(
                    validate_list(&data, &mut scratch),
                    Err(StorageError::InvalidLength { .. })
                ),
                "slack after a {n}-entry list must not validate"
            );
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let entries = make(100, 5);
        let data = encode(&entries, 32);
        let mut scratch = ListScratch::new();
        let mut counters = BlockCounters::default();
        let mut out = Vec::new();
        assert!(matches!(
            collect_range(&data, 90, 20, &mut scratch, &mut out, &mut counters),
            Err(StorageError::InvalidLength { .. })
        ));
    }

    #[test]
    fn truncation_never_panics() {
        let entries = make(300, 9);
        let data = encode(&entries, 64);
        let mut out = Vec::new();
        for cut in 0..data.len() {
            out.clear();
            // Must return an error (or, for cuts inside trailing zero-width
            // padding, possibly succeed) — never panic.
            let _ = decode_list(&data[..cut], &mut out);
            let mut scratch = ListScratch::new();
            let _ = table_runs(&data[..cut], &mut scratch, &mut |_, _| {});
        }
    }

    #[test]
    fn compresses_vs_varint_triples() {
        // A dense lake-like list: many entries, few distinct tables.
        let entries = make(4000, 40);
        let v2 = encode(&entries, DEFAULT_BLOCK_LEN).len();
        // v1-style: varint table delta + col + row per entry.
        let mut w = Writer::new();
        let mut prev = 0u32;
        for &(t, c, r) in &entries {
            w.put_varint(u64::from(t - prev));
            prev = t;
            w.put_varint(u64::from(c));
            w.put_varint(u64::from(r));
        }
        let v1 = w.len();
        assert!(
            (v2 as f64) < (v1 as f64) * 0.6,
            "v2 {v2} should be well under v1 {v1}"
        );
    }

    /// Random lists whose component streams span bit widths 0–32: entries
    /// draw their table from a handful of ids (so many blocks are
    /// single-table) and mask columns and rows to per-list widths.
    fn width_lists() -> impl Strategy<Value = (Vec<RawPosting>, usize)> {
        (
            proptest::collection::vec(any::<u32>(), 1..4),
            proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..90),
            (0u32..=32, 0u32..=32, 0u32..=32),
            2usize..24,
        )
            .prop_map(|(tables, raw, (wt, wc, wr), block_len)| {
                let mask = |w: u32| if w == 32 { u32::MAX } else { (1u32 << w) - 1 };
                let mut entries: Vec<RawPosting> = raw
                    .into_iter()
                    .map(|(t, c, r)| {
                        (
                            tables[t as usize % tables.len()] & mask(wt),
                            c & mask(wc),
                            r & mask(wr),
                        )
                    })
                    .collect();
                entries.sort_unstable();
                entries.dedup();
                (entries, block_len)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_range_decode_matches_full_decode((entries, block_len) in width_lists()) {
            let data = encode(&entries, block_len);
            let mut full = Vec::new();
            decode_list(&data, &mut full).unwrap();
            prop_assert_eq!(&full, &entries);
            let n = entries.len();
            let nblocks = if n > INLINE_MAX { n.div_ceil(block_len) } else { 0 };
            let mut scratch = ListScratch::new();
            let mut out = Vec::new();
            for start in 0..=n {
                for len in 0..=n - start {
                    let mut counters = BlockCounters::default();
                    out.clear();
                    collect_range(&data, start, len, &mut scratch, &mut out, &mut counters).unwrap();
                    prop_assert_eq!(&out[..], &full[start..start + len], "range {}+{}", start, len);
                    // Counters are those of whole-block decoding: every
                    // block overlapping the range is decoded, the rest skipped.
                    let decoded = if len == 0 || nblocks == 0 {
                        0
                    } else {
                        (start + len - 1) / block_len - start / block_len + 1
                    };
                    let skipped = if len == 0 { 0 } else { nblocks - decoded };
                    prop_assert_eq!(
                        (counters.decoded, counters.skipped),
                        (decoded as u64, skipped as u64),
                        "counters for {}+{}", start, len
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prop_roundtrip(raw in proptest::collection::vec((0u32..200, 0u32..32, 0u32..5000), 0..600),
                          block_len in 2usize..200) {
            let mut entries = raw;
            entries.sort_unstable();
            entries.dedup();
            let data = encode(&entries, block_len);
            let mut out = Vec::new();
            decode_list(&data, &mut out).unwrap();
            prop_assert_eq!(&out, &entries);
            // Ranges agree with slices.
            if !entries.is_empty() {
                let mid = entries.len() / 2;
                let mut scratch = ListScratch::new();
                let mut counters = BlockCounters::default();
                let mut ranged = Vec::new();
                collect_range(&data, mid, entries.len() - mid, &mut scratch, &mut ranged, &mut counters).unwrap();
                prop_assert_eq!(&ranged, &entries[mid..]);
            }
        }
    }
}
