//! The segment file container.
//!
//! Layout:
//!
//! ```text
//! magic "MATESEG1" (8 bytes)
//! version: u32 LE
//! block count: varint
//! per block:
//!   name: varint-prefixed string
//!   payload length: varint
//!   crc32 of (name ++ length:u64 LE ++ payload): u32 LE
//!   payload bytes
//! ```
//!
//! Blocks are named so readers can evolve independently of writers; every
//! payload is CRC-checked on access. The CRC covers the block *name and
//! length* as well as the payload: a bit flip in the framing would otherwise
//! make the reader checksum a different byte range, and for degenerate
//! payloads (e.g. all zeros, where the CRC register cycles under zero input)
//! a payload-only checksum can collide. Covering the length guarantees any
//! single-bit framing flip changes the CRC input prefix, which a CRC always
//! detects.

use crate::codec::{Reader, Writer};
use crate::error::{IoCtx, StorageError};
use crate::vfs::Vfs;
use bytes::Bytes;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MATESEG1";

/// Window [`verify_segment_file`] preads per block header (name + length +
/// CRC). Far larger than any real header; a header that does not fit is
/// reported as corrupt.
const HEADER_PROBE: usize = 1024;

/// Block checksum covering name, length, and payload (see module docs).
fn block_crc(name: &str, payload: &[u8]) -> u32 {
    let mut c = crate::crc32::Crc32::new();
    c.write(name.as_bytes());
    c.write(&(payload.len() as u64).to_le_bytes());
    c.write(payload);
    c.finish()
}
/// The format version [`SegmentWriter`] writes and the only one
/// [`SegmentReader`] and [`verify_segment_file`] accept.
///
/// Version 2 introduced the block-compressed posting-list payloads (see
/// [`crate::postings`]); a version-1 container predates them and is
/// rejected with [`StorageError::UnsupportedVersion`].
pub const FORMAT_VERSION: u32 = 2;

/// Accumulates named blocks and serializes them into a segment.
#[derive(Debug, Default)]
pub struct SegmentWriter {
    blocks: Vec<(String, Bytes)>,
}

impl SegmentWriter {
    /// Creates an empty segment writer.
    pub fn new() -> Self {
        SegmentWriter::default()
    }

    /// Adds a named block.
    pub fn add_block(&mut self, name: impl Into<String>, payload: Bytes) {
        self.blocks.push((name.into(), payload));
    }

    /// Serializes the segment to a byte buffer.
    pub fn finish(self) -> Bytes {
        let mut w = Writer::with_capacity(
            16 + self
                .blocks
                .iter()
                .map(|(n, p)| n.len() + p.len() + 16)
                .sum::<usize>(),
        );
        w.put_raw(MAGIC);
        w.put_u32_le(FORMAT_VERSION);
        w.put_varint(self.blocks.len() as u64);
        for (name, payload) in &self.blocks {
            w.put_str(name);
            w.put_varint(payload.len() as u64);
            w.put_u32_le(block_crc(name, payload));
            w.put_raw(payload);
        }
        w.finish()
    }

    /// Serializes and writes the segment to a file (no fsync — tooling
    /// convenience, not a durability path; the engine's durable segment
    /// writes go through `manifest::write_file_atomic_vfs`). Routed through
    /// the [`Vfs`] seam so fault sweeps cover tool-path writes too.
    pub fn write_to(self, vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<(), StorageError> {
        let path = path.as_ref();
        let mut f = vfs.create(path).io_ctx("creating", path)?;
        f.write_all(&self.finish()).io_ctx("writing", path)?;
        Ok(())
    }
}

/// Parses a segment and provides checked access to its blocks.
#[derive(Debug)]
pub struct SegmentReader {
    /// Per block: name, stored CRC, payload, payload's byte offset in the
    /// original buffer/file (for paged extent reads).
    blocks: Vec<(String, u32, Bytes, usize)>,
}

impl SegmentReader {
    /// Parses a segment from bytes, validating magic and version.
    pub fn open(data: Bytes) -> Result<Self, StorageError> {
        let total = data.len();
        let mut r = Reader::new(data);
        let mut magic = [0u8; 8];
        for b in &mut magic {
            *b = r.get_u8().map_err(|_| StorageError::BadMagic)?;
        }
        if &magic != MAGIC {
            return Err(StorageError::BadMagic);
        }
        let version = r.get_u32_le()?;
        if version != FORMAT_VERSION {
            return Err(StorageError::UnsupportedVersion(version));
        }
        let n = r.get_varint()? as usize;
        let mut blocks = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let name = r.get_str()?;
            let len = r.get_varint()? as usize;
            let crc = r.get_u32_le()?;
            // Validate the directory entry against the buffer *before*
            // slicing: a declared length beyond the remaining bytes means a
            // truncated or corrupt file, reported as a structured error (the
            // reader must never panic on untrusted input).
            if len > r.remaining() {
                return Err(StorageError::InvalidLength {
                    context: "segment block length",
                    value: len as u64,
                });
            }
            let offset = total - r.remaining();
            let payload = r.get_raw(len)?;
            blocks.push((name, crc, payload, offset));
        }
        Ok(SegmentReader { blocks })
    }

    /// Reads and parses a segment from a file through the [`Vfs`] seam
    /// (read-only tooling entry point; the engine opens segments from
    /// bytes it read through its own handle).
    pub fn open_file(vfs: &dyn Vfs, path: impl AsRef<Path>) -> Result<Self, StorageError> {
        let path = path.as_ref();
        let data = vfs.read(path).io_ctx("reading", path)?;
        SegmentReader::open(Bytes::from(data))
    }

    /// Names of the contained blocks, in file order.
    pub fn block_names(&self) -> Vec<&str> {
        self.blocks.iter().map(|(n, ..)| n.as_str()).collect()
    }

    /// Returns a block payload after verifying its CRC.
    pub fn block(&self, name: &str) -> Result<Bytes, StorageError> {
        let (stored_name, crc, payload, _) = self
            .blocks
            .iter()
            .find(|(n, ..)| n == name)
            .ok_or_else(|| StorageError::MissingBlock(name.to_string()))?;
        if block_crc(stored_name, payload) != *crc {
            return Err(StorageError::ChecksumMismatch {
                block: name.to_string(),
            });
        }
        Ok(payload.clone())
    }

    /// Byte offset of `name`'s payload within the segment file, for
    /// resolving validated in-block slices into paged extent reads.
    pub fn block_offset(&self, name: &str) -> Result<u64, StorageError> {
        self.blocks
            .iter()
            .find(|(n, ..)| n == name)
            .map(|(_, _, _, off)| *off as u64)
            .ok_or_else(|| StorageError::MissingBlock(name.to_string()))
    }
}

/// Verifies a segment file's framing and every block CRC without ever
/// materializing the whole file: headers and payloads are read in
/// `chunk`-byte preads and checksummed streamingly. Returns every block's
/// name in file order; blocks named in `keep` also carry their
/// materialized payload (so callers can run cheap cross-checks and block-
/// presence checks without a second pass).
///
/// Any framing damage — bad magic, truncated header or payload, a length
/// past end-of-file — surfaces as the same typed errors [`SegmentReader`]
/// produces, so callers can treat every `Err` as "segment corrupt".
pub fn verify_segment_file(
    vfs: &dyn Vfs,
    path: &Path,
    chunk: usize,
    keep: &[&str],
) -> Result<Vec<(String, Option<Bytes>)>, StorageError> {
    let chunk = chunk.max(64);
    let head = vfs
        .pread(path, 0, HEADER_PROBE)
        .io_ctx("pread-verifying", path)?;
    let head_len = head.len();
    let mut r = Reader::new(Bytes::from(head));
    let mut magic = [0u8; 8];
    for b in &mut magic {
        *b = r.get_u8().map_err(|_| StorageError::BadMagic)?;
    }
    if &magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = r.get_u32_le()?;
    if version != FORMAT_VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    let n = r.get_varint()? as usize;
    let mut pos = (head_len - r.remaining()) as u64;
    let mut blocks = Vec::new();
    for _ in 0..n {
        let hdr = vfs
            .pread(path, pos, HEADER_PROBE)
            .io_ctx("pread-verifying", path)?;
        let hdr_len = hdr.len();
        let mut r = Reader::new(Bytes::from(hdr));
        let name = r.get_str()?;
        let len = r.get_varint()? as usize;
        let crc = r.get_u32_le()?;
        pos += (hdr_len - r.remaining()) as u64;
        let mut c = crate::crc32::Crc32::new();
        c.write(name.as_bytes());
        c.write(&(len as u64).to_le_bytes());
        let mut body = if keep.contains(&name.as_str()) {
            Some(Vec::with_capacity(len))
        } else {
            None
        };
        let mut remaining = len;
        while remaining > 0 {
            let want = remaining.min(chunk);
            let part = vfs.pread(path, pos, want).io_ctx("pread-verifying", path)?;
            if part.len() < want {
                return Err(StorageError::UnexpectedEof {
                    context: "segment block payload (truncated file)",
                });
            }
            c.write(&part);
            if let Some(b) = body.as_mut() {
                b.extend_from_slice(&part);
            }
            pos += want as u64;
            remaining -= want;
        }
        if c.finish() != crc {
            return Err(StorageError::ChecksumMismatch { block: name });
        }
        blocks.push((name, body.map(Bytes::from)));
    }
    Ok(blocks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_segment() -> Bytes {
        let mut sw = SegmentWriter::new();
        sw.add_block("meta", Bytes::from_static(b"hello"));
        sw.add_block("data", Bytes::from(vec![1u8, 2, 3, 4]));
        sw.finish()
    }

    #[test]
    fn roundtrip() {
        let seg = SegmentReader::open(sample_segment()).unwrap();
        assert_eq!(seg.block_names(), vec!["meta", "data"]);
        assert_eq!(seg.block("meta").unwrap().as_ref(), b"hello");
        assert_eq!(seg.block("data").unwrap().as_ref(), &[1, 2, 3, 4]);
    }

    #[test]
    fn missing_block() {
        let seg = SegmentReader::open(sample_segment()).unwrap();
        assert!(matches!(
            seg.block("nope"),
            Err(StorageError::MissingBlock(_))
        ));
    }

    #[test]
    fn bad_magic() {
        assert!(matches!(
            SegmentReader::open(Bytes::from_static(b"NOTMAGIC\x01\x00\x00\x00")),
            Err(StorageError::BadMagic)
        ));
        assert!(matches!(
            SegmentReader::open(Bytes::from_static(b"x")),
            Err(StorageError::BadMagic)
        ));
    }

    #[test]
    fn corruption_detected() {
        let mut raw = sample_segment().to_vec();
        // Flip a byte inside the "hello" payload (find it).
        let pos = raw.windows(5).position(|w| w == b"hello").unwrap();
        raw[pos] ^= 0xFF;
        let seg = SegmentReader::open(Bytes::from(raw)).unwrap();
        assert!(matches!(
            seg.block("meta"),
            Err(StorageError::ChecksumMismatch { .. })
        ));
        // The other block is still intact.
        assert!(seg.block("data").is_ok());
    }

    #[test]
    fn truncation_detected() {
        let raw = sample_segment();
        let truncated = raw.slice(..raw.len() - 3);
        assert!(SegmentReader::open(truncated).is_err());
    }

    #[test]
    fn v1_container_rejected() {
        let mut raw = sample_segment().to_vec();
        raw[8] = 1; // version LE byte 0 → a v1-era file
        assert!(matches!(
            SegmentReader::open(Bytes::from(raw.clone())),
            Err(StorageError::UnsupportedVersion(1))
        ));
        let dir = std::env::temp_dir().join(format!("mate-seg-v1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            verify_segment_file(&crate::vfs::StdVfs, &path, 64, &[]),
            Err(StorageError::UnsupportedVersion(1))
        ));
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn oversized_block_length_rejected_cleanly() {
        // Directory claims a payload far past the end of the buffer.
        let mut w = crate::codec::Writer::new();
        w.put_raw(MAGIC);
        w.put_u32_le(FORMAT_VERSION);
        w.put_varint(1); // one block
        w.put_str("big");
        w.put_varint(1 << 40); // absurd length
        w.put_u32_le(0);
        assert!(matches!(
            SegmentReader::open(w.finish()),
            Err(StorageError::InvalidLength { .. })
        ));
    }

    #[test]
    fn wrong_version() {
        let mut raw = sample_segment().to_vec();
        raw[8] = 99; // version LE byte 0
        assert!(matches!(
            SegmentReader::open(Bytes::from(raw)),
            Err(StorageError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("mate-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut sw = SegmentWriter::new();
        sw.add_block("b", Bytes::from_static(b"payload"));
        sw.write_to(&crate::vfs::StdVfs, &path).unwrap();
        let seg = SegmentReader::open_file(&crate::vfs::StdVfs, &path).unwrap();
        assert_eq!(seg.block("b").unwrap().as_ref(), b"payload");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn file_entry_points_route_through_the_vfs_seam() {
        use crate::vfs::FaultVfs;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!("mate-seg-vfs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let vfs = Arc::new(FaultVfs::new());
        let mk = || {
            let mut sw = SegmentWriter::new();
            sw.add_block("b", Bytes::from_static(b"payload"));
            sw
        };
        vfs.fail_nth(1);
        assert!(mk().write_to(&vfs, &path).is_err(), "write fault injected");
        mk().write_to(&vfs, &path).unwrap();
        vfs.fail_nth(1);
        assert!(
            SegmentReader::open_file(&vfs, &path).is_err(),
            "read fault injected"
        );
        let seg = SegmentReader::open_file(&vfs, &path).unwrap();
        assert_eq!(seg.block("b").unwrap().as_ref(), b"payload");
        assert_eq!(vfs.injected(), 2);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn block_offsets_locate_payloads() {
        let raw = sample_segment();
        let seg = SegmentReader::open(raw.clone()).unwrap();
        let off = seg.block_offset("meta").unwrap() as usize;
        assert_eq!(&raw[off..off + 5], b"hello");
        let off = seg.block_offset("data").unwrap() as usize;
        assert_eq!(&raw[off..off + 4], &[1, 2, 3, 4]);
        assert!(matches!(
            seg.block_offset("nope"),
            Err(StorageError::MissingBlock(_))
        ));
    }

    #[test]
    fn streaming_verify_matches_whole_file_reader() {
        let dir = std::env::temp_dir().join(format!("mate-seg-verify-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg.bin");
        let mut sw = SegmentWriter::new();
        sw.add_block("meta", Bytes::from_static(b"hello"));
        sw.add_block("data", Bytes::from(vec![7u8; 5000]));
        sw.write_to(&crate::vfs::StdVfs, &path).unwrap();
        // Tiny chunk: payloads span many preads.
        let blocks = verify_segment_file(&crate::vfs::StdVfs, &path, 64, &["meta"]).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].0, "meta");
        assert_eq!(blocks[0].1.as_deref(), Some(b"hello".as_slice()));
        assert_eq!(blocks[1].0, "data");
        assert_eq!(blocks[1].1, None, "non-kept payloads stay unmaterialized");
        // Corrupt one payload byte: the verify fails with a checksum error.
        let mut raw = std::fs::read(&path).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0xFF;
        std::fs::write(&path, &raw).unwrap();
        assert!(matches!(
            verify_segment_file(&crate::vfs::StdVfs, &path, 64, &[]),
            Err(StorageError::ChecksumMismatch { ref block }) if block == "data"
        ));
        // Truncate mid-payload: typed EOF, no panic.
        raw.truncate(raw.len() - 100);
        std::fs::write(&path, &raw).unwrap();
        assert!(verify_segment_file(&crate::vfs::StdVfs, &path, 64, &[]).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_segment() {
        let seg = SegmentReader::open(SegmentWriter::new().finish()).unwrap();
        assert!(seg.block_names().is_empty());
    }
}
