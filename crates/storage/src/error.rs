//! Storage error type.

use std::fmt;
use std::path::{Path, PathBuf};

/// Errors raised while encoding, decoding, or validating stored data.
#[derive(Debug)]
pub enum StorageError {
    /// The input ended before a complete value could be decoded.
    UnexpectedEof {
        /// What was being decoded.
        context: &'static str,
    },
    /// A varint ran past its maximum width (corrupt data).
    VarintOverflow,
    /// A length prefix or id was out of the valid range.
    InvalidLength {
        /// What was being decoded.
        context: &'static str,
        /// The offending length/id.
        value: u64,
    },
    /// A CRC check failed.
    ChecksumMismatch {
        /// Block name whose checksum failed.
        block: String,
    },
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file has an unsupported format version.
    UnsupportedVersion(u32),
    /// A required named block is missing from a segment.
    MissingBlock(String),
    /// Invalid UTF-8 in a stored string.
    InvalidUtf8,
    /// Underlying I/O error.
    Io(std::io::Error),
    /// An I/O error with file and operation context (what failed, where —
    /// see [`IoCtx`]): `while fsyncing wal-00000012.log: ...`.
    IoAt {
        /// The operation in progress, gerund form ("fsyncing", "reading").
        op: &'static str,
        /// The file or directory the operation targeted.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A decode error of the named file (`cdelta-…seg: checksum mismatch
    /// in block 'payload'`).
    InFile {
        /// The file whose bytes failed to decode.
        path: PathBuf,
        /// The decode error.
        source: Box<StorageError>,
    },
    /// An error at a byte offset of the named file (`wal-…log at byte 96:
    /// invalid length 1 while decoding wal column length`).
    InFileAt {
        /// The file holding the bad bytes.
        path: PathBuf,
        /// Byte offset of the bad record within the file.
        offset: u64,
        /// The error.
        source: Box<StorageError>,
    },
    /// The engine is in degraded read-only mode: an unhealable storage
    /// fault was detected (or durability became unknowable) and write
    /// paths refuse rather than risk committing unverifiable state. Reads
    /// keep serving from memory.
    Degraded {
        /// Why the engine degraded.
        reason: String,
    },
}

impl StorageError {
    /// Whether an I/O call failed, as opposed to bytes that failed to
    /// decode: a failed read says nothing about the data on disk.
    pub fn is_io(&self) -> bool {
        match self {
            StorageError::Io(_) | StorageError::IoAt { .. } => true,
            StorageError::InFile { source, .. } | StorageError::InFileAt { source, .. } => {
                source.is_io()
            }
            _ => false,
        }
    }
}

/// Attaches operation + path context to raw `std::io` results, turning
/// them into [`StorageError::IoAt`] — so a degraded-mode report says
/// *which* file failed *how* (`while fsyncing wal-00000012.log: ...`)
/// instead of a bare OS error.
pub trait IoCtx<T> {
    /// Wraps the error with the operation (gerund form) and target path.
    fn io_ctx(self, op: &'static str, path: &Path) -> Result<T, StorageError>;
}

impl<T> IoCtx<T> for std::io::Result<T> {
    fn io_ctx(self, op: &'static str, path: &Path) -> Result<T, StorageError> {
        self.map_err(|source| StorageError::IoAt {
            op,
            path: path.to_path_buf(),
            source,
        })
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::UnexpectedEof { context } => {
                write!(f, "unexpected end of input while decoding {context}")
            }
            StorageError::VarintOverflow => write!(f, "varint exceeds 10 bytes"),
            StorageError::InvalidLength { context, value } => {
                write!(f, "invalid length {value} while decoding {context}")
            }
            StorageError::ChecksumMismatch { block } => {
                write!(f, "checksum mismatch in block '{block}'")
            }
            StorageError::BadMagic => write!(f, "bad magic bytes (not a MATE segment file)"),
            StorageError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StorageError::MissingBlock(b) => write!(f, "missing required block '{b}'"),
            StorageError::InvalidUtf8 => write!(f, "invalid UTF-8 in stored string"),
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::IoAt { op, path, source } => {
                write!(f, "I/O error while {op} {}: {source}", path.display())
            }
            StorageError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
            StorageError::InFileAt {
                path,
                offset,
                source,
            } => write!(f, "{} at byte {offset}: {source}", path.display()),
            StorageError::Degraded { reason } => {
                write!(f, "engine degraded to read-only: {reason}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            StorageError::IoAt { source, .. } => Some(source),
            StorageError::InFile { source, .. } | StorageError::InFileAt { source, .. } => {
                Some(source.as_ref())
            }
            _ => None,
        }
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let cases: Vec<(StorageError, &str)> = vec![
            (StorageError::UnexpectedEof { context: "plist" }, "plist"),
            (StorageError::VarintOverflow, "varint"),
            (StorageError::BadMagic, "magic"),
            (StorageError::UnsupportedVersion(9), "9"),
            (StorageError::MissingBlock("tables".into()), "tables"),
            (StorageError::InvalidUtf8, "UTF-8"),
            (
                StorageError::ChecksumMismatch { block: "b".into() },
                "checksum",
            ),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e}");
        }
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: StorageError = io.into();
        assert!(matches!(e, StorageError::Io(_)));
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn io_ctx_names_operation_and_path() {
        let r: std::io::Result<()> = Err(std::io::Error::other("disk on fire"));
        let e = r
            .io_ctx("fsyncing", Path::new("wal-00000012.log"))
            .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("while fsyncing"), "{msg}");
        assert!(msg.contains("wal-00000012.log"), "{msg}");
        assert!(msg.contains("disk on fire"), "{msg}");
        assert!(std::error::Error::source(&e).is_some());
    }

    #[test]
    fn degraded_is_typed_and_displayed() {
        let e = StorageError::Degraded {
            reason: "segment rebuild failed".into(),
        };
        assert!(matches!(e, StorageError::Degraded { .. }));
        assert!(e.to_string().contains("read-only"));
        assert!(e.to_string().contains("segment rebuild failed"));
    }
}
