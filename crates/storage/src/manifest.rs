//! CRC-framed manifest files with atomic replacement.
//!
//! The multi-segment index engine records its live state (segment stack, WAL
//! watermark, checkpoint generations) in a single small manifest file that
//! must be updated *atomically*: a crash can never leave a half-written
//! manifest, because readers would then recover a state that mixes two
//! generations. The classic recipe is used here:
//!
//! 1. write the new manifest to `<path>.tmp` and `fsync` it,
//! 2. `rename` it over `<path>` (atomic on POSIX filesystems),
//! 3. `fsync` the parent directory so the rename itself is durable.
//!
//! The file body is framed, independent of its schema:
//!
//! ```text
//! magic "MATEMAN1" (8 bytes)
//! version: u32 LE
//! payload length: u32 LE
//! crc32(payload): u32 LE
//! payload bytes
//! ```
//!
//! A torn write (power loss between steps) either leaves the old file intact
//! or a `.tmp` orphan that readers ignore; a corrupt payload fails the CRC
//! and is reported as a structured error instead of being half-applied.
//!
//! The same framed [`save`]/[`load`] path is reused for every small record
//! the engine commits via rename — not just the MANIFEST file but also the
//! `cdelta-*` incremental corpus-delta records that flushes append (each is
//! an independently CRC-checked frame; the manifest names the chain that is
//! live, so stray delta files from dead generations are ignored and GC'd).

use crate::crc32::crc32;
use crate::error::{IoCtx as _, StorageError};
use crate::vfs::{StdVfs, Vfs};
use bytes::Bytes;
use std::path::Path;

const MAGIC: &[u8; 8] = b"MATEMAN1";

/// Current manifest framing version.
pub const MANIFEST_VERSION: u32 = 1;

/// Wraps a schema payload in the manifest frame (magic, version, length,
/// CRC).
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 20);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Unframes a manifest file body, validating magic, version, length, and
/// CRC. Returns the schema payload.
pub fn unframe(data: &[u8]) -> Result<Bytes, StorageError> {
    if data.len() < 20 || &data[..8] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    // panic-exempt: 4-byte subslices of a buffer length-checked (>= 20)
    // above; `try_into` to [u8; 4] cannot fail.
    let version = u32::from_le_bytes(data[8..12].try_into().expect("fixed slice"));
    if version != MANIFEST_VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }
    // panic-exempt: same fixed-slice invariant as `version` above.
    let len = u32::from_le_bytes(data[12..16].try_into().expect("fixed slice")) as usize;
    // panic-exempt: same fixed-slice invariant as `version` above.
    let crc = u32::from_le_bytes(data[16..20].try_into().expect("fixed slice"));
    if data.len() - 20 != len {
        return Err(StorageError::InvalidLength {
            context: "manifest payload length",
            value: len as u64,
        });
    }
    let payload = &data[20..];
    if crc32(payload) != crc {
        return Err(StorageError::ChecksumMismatch {
            block: "payload".to_string(),
        });
    }
    Ok(Bytes::from(payload.to_vec()))
}

/// Writes `bytes` to `path` atomically: tmp file + fsync + rename + best-
/// effort directory fsync. Used for manifests and for immutable segment
/// files (which must be fully durable *before* the manifest that references
/// them is renamed into place).
pub fn write_file_atomic(path: impl AsRef<Path>, bytes: &[u8]) -> Result<(), StorageError> {
    write_file_atomic_vfs(&StdVfs, path.as_ref(), bytes)
}

/// [`write_file_atomic`] through an explicit [`Vfs`] (the engine threads
/// its fault-injectable handle here). Errors carry the path and the step
/// that failed.
pub fn write_file_atomic_vfs(vfs: &dyn Vfs, path: &Path, bytes: &[u8]) -> Result<(), StorageError> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = vfs.create(&tmp).io_ctx("creating", &tmp)?;
        f.write_all(bytes).io_ctx("writing", &tmp)?;
        f.sync_all().io_ctx("fsyncing", &tmp)?;
    }
    vfs.rename(&tmp, path).io_ctx("renaming into place", path)?;
    // Make the rename durable. Directory fsync is not available on every
    // platform/filesystem; failing to sync the directory only weakens
    // durability of the *rename* (the file contents are already synced), so
    // this is best-effort by design.
    if let Some(dir) = path.parent() {
        let _ = vfs.sync_dir(dir);
    }
    Ok(())
}

/// Writes a framed manifest payload to `path` atomically.
pub fn save(path: impl AsRef<Path>, payload: &[u8]) -> Result<(), StorageError> {
    save_vfs(&StdVfs, path.as_ref(), payload)
}

/// [`save`] through an explicit [`Vfs`].
pub fn save_vfs(vfs: &dyn Vfs, path: &Path, payload: &[u8]) -> Result<(), StorageError> {
    write_file_atomic_vfs(vfs, path, &frame(payload))
}

/// Reads and unframes a manifest file.
pub fn load(path: impl AsRef<Path>) -> Result<Bytes, StorageError> {
    load_vfs(&StdVfs, path.as_ref())
}

/// [`load`] through an explicit [`Vfs`]. Errors carry the path: a read
/// failure as [`StorageError::IoAt`], a frame that fails to validate as
/// [`StorageError::InFile`].
pub fn load_vfs(vfs: &dyn Vfs, path: &Path) -> Result<Bytes, StorageError> {
    unframe(&vfs.read(path).io_ctx("reading", path)?).map_err(|e| StorageError::InFile {
        path: path.to_path_buf(),
        source: Box::new(e),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = b"engine state goes here";
        let framed = frame(payload);
        assert_eq!(unframe(&framed).unwrap().as_ref(), payload);
    }

    #[test]
    fn empty_payload_roundtrip() {
        assert_eq!(unframe(&frame(b"")).unwrap().as_ref(), b"");
    }

    #[test]
    fn corruption_detected() {
        let mut framed = frame(b"some payload");
        *framed.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            unframe(&framed),
            Err(StorageError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn truncation_detected() {
        let framed = frame(b"some payload");
        for cut in [0, 7, 19, framed.len() - 1] {
            assert!(unframe(&framed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version() {
        let mut framed = frame(b"x");
        framed[0] ^= 0xFF;
        assert!(matches!(unframe(&framed), Err(StorageError::BadMagic)));
        let mut framed = frame(b"x");
        framed[8] = 99;
        assert!(matches!(
            unframe(&framed),
            Err(StorageError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn atomic_save_load() {
        let dir = std::env::temp_dir().join(format!("mate-manifest-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("MANIFEST");
        save(&path, b"gen 1").unwrap();
        assert_eq!(load(&path).unwrap().as_ref(), b"gen 1");
        // Replacement is all-or-nothing: a second save fully supersedes.
        save(&path, b"gen 2 with more bytes").unwrap();
        assert_eq!(load(&path).unwrap().as_ref(), b"gen 2 with more bytes");
        // No tmp residue after a clean save.
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_dir_all(dir).ok();
    }
}
