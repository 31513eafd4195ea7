//! The virtual filesystem seam of the storage layer.
//!
//! Every durability-relevant I/O operation of the engine — WAL appends and
//! fsyncs, atomic segment/checkpoint/manifest writes, torn-tail trims,
//! recovery reads, orphan GC — goes through a [`Vfs`] handle instead of
//! calling `std::fs` directly. Two implementations ship:
//!
//! * [`StdVfs`] — the production impl, a zero-cost passthrough to
//!   `std::fs`.
//! * [`FaultVfs`] — a deterministic fault injector for tests: fail the Nth
//!   I/O call, ENOSPC on an append, EIO on an fsync, a *torn* write that
//!   persists only a prefix before failing, or a silent bit-flip on a
//!   read. Faults are armed explicitly ([`FaultVfs::arm`]) and counted
//!   ([`FaultVfs::injected`]), so a test can sweep every I/O call site of
//!   a workload (`for n in 1..=total`) and assert the engine never panics,
//!   never lies about durability, and recovers (or degrades) cleanly.
//!
//! The trait is object-safe and threaded as `Arc<dyn Vfs>`; long-lived
//! file handles (the engine's WAL) are [`VfsFile`] trait objects so the
//! injector can also fault appends and fsyncs on handles opened before the
//! fault was armed.
//!
//! Operations deliberately mirror what the engine's fsync discipline
//! needs, nothing more: whole-file read, positional `pread` (the cold
//! serving path — every [`pager::PageCache`](crate::pager::PageCache)
//! fill, so read faults and bit flips fire on demand-paged probes too),
//! create / append / write-mode open, rename, remove, directory
//! create/sync/list.
//! Anything outside this surface inside `crates/{index,storage}/src` is
//! either test code or carries a `// vfs-exempt:` comment (enforced by
//! `cargo run -p mate-analyze -- --rule vfs`).

use std::fmt;
use std::io::{self, Read as _, Seek as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A writable file handle obtained from a [`Vfs`].
///
/// The surface matches what the engine's WAL and atomic-write paths use:
/// buffered-append (`write_all`), durability (`sync_data`/`sync_all`),
/// rollback (`set_len`), and handle duplication (`try_clone`, used by the
/// group-commit leader to fsync outside the engine lock).
pub trait VfsFile: Send + Sync {
    /// Appends/writes the whole buffer at the current position.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;
    /// `fdatasync`: makes previously written contents durable.
    fn sync_data(&self) -> io::Result<()>;
    /// `fsync`: contents + metadata.
    fn sync_all(&self) -> io::Result<()>;
    /// Truncates (or extends) the file to `len` bytes.
    fn set_len(&self, len: u64) -> io::Result<()>;
    /// Duplicates the handle (shared cursor/offset, like `dup(2)`).
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>>;
}

/// A filesystem abstraction for durability-critical I/O (see module docs).
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Reads the entire file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Reads `len` bytes at byte `offset` (short reads at EOF allowed).
    /// This is the page-cache fill primitive: the paged cold tier serves
    /// every probe through it.
    fn pread(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>>;
    /// Creates (truncating) a file for writing.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file in append mode (`create` if missing).
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Opens an existing file in write mode without truncation (torn-tail
    /// trims: `set_len` + fsync).
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically renames `from` over `to` (POSIX rename semantics).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Creates a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// Fsyncs a directory, making renames within it durable.
    fn sync_dir(&self, path: &Path) -> io::Result<()>;
    /// Lists the file names (not full paths) inside a directory.
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
    /// Connects this vfs to an observability hub: fault-injecting impls
    /// count every fault they inject from now on in the hub's
    /// `vfs.faults_injected` counter (the engine's `io_errors_injected`
    /// stat) and emit a `fault_injected` event (with op class and path)
    /// for it. Production impls ignore this.
    fn attach_obs(&self, _obs: &Arc<mate_obs::Obs>) {}
}

// ------------------------------------------------------------- StdVfs ----

/// The production [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl VfsFile for std::fs::File {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(self, buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        std::fs::File::sync_data(self)
    }
    fn sync_all(&self) -> io::Result<()> {
        std::fs::File::sync_all(self)
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        std::fs::File::set_len(self, len)
    }
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        std::fs::File::try_clone(self).map(|f| Box::new(f) as Box<dyn VfsFile>)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn pread(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut f = std::fs::File::open(path)?;
        f.seek(io::SeekFrom::Start(offset))?;
        let mut buf = vec![0u8; len];
        let mut filled = 0;
        while filled < len {
            match f.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => filled += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        buf.truncate(filled);
        Ok(buf)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        std::fs::File::create(path).map(|f| Box::new(f) as Box<dyn VfsFile>)
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(path)
            .map(|f| Box::new(f) as Box<dyn VfsFile>)
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map(|f| Box::new(f) as Box<dyn VfsFile>)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            names.push(PathBuf::from(entry?.file_name()));
        }
        names.sort();
        Ok(names)
    }
}

// ----------------------------------------------------------- FaultVfs ----

/// Which class of I/O operation a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Any fallible operation.
    Any,
    /// Whole-file and positional reads.
    Read,
    /// Data writes (`write_all` on any handle, whatever it was opened as).
    Write,
    /// `sync_data` / `sync_all` on files and directories.
    Sync,
    /// Metadata operations: create/open, rename, remove, `set_len`,
    /// directory create/list.
    Meta,
}

impl OpClass {
    fn matches(self, op: OpClass) -> bool {
        self == OpClass::Any || self == op
    }
}

/// What an armed fault does when it fires.
#[derive(Debug, Clone, Copy)]
pub enum FaultMode {
    /// Fail the operation with this error kind; no side effect.
    Error(io::ErrorKind),
    /// For a write: persist a seed-derived strict prefix of the buffer,
    /// then fail (a torn write). For any other operation class this
    /// degenerates to an EIO error.
    TornWrite {
        /// Determines the persisted prefix length.
        seed: u64,
    },
    /// For a read: succeed but flip one seed-derived bit of the returned
    /// buffer (silent corruption). For any other class: no-op.
    BitFlip {
        /// Determines the flipped bit position.
        seed: u64,
    },
}

/// One armed fault: fires on the `nth` (1-based) operation matching
/// `class`, counted from the moment it was armed.
#[derive(Debug, Clone, Copy)]
pub struct Fault {
    /// Operation class the countdown counts.
    pub class: OpClass,
    /// Fire on the nth matching operation (1 = the next one).
    pub nth: u64,
    /// Behavior when firing.
    pub mode: FaultMode,
    /// Keep firing on every later matching operation as well (a full disk
    /// stays full). One-shot when false.
    pub sticky: bool,
}

#[derive(Debug)]
struct Armed {
    fault: Fault,
    remaining: u64,
}

/// The action resolved for one concrete operation.
enum Action {
    Proceed,
    Fail(io::ErrorKind),
    Torn { seed: u64 },
    Flip { seed: u64 },
}

/// A deterministic fault-injecting [`Vfs`] wrapping [`StdVfs`].
///
/// All state is interior (shared with the file handles it vends), so a
/// single `Arc<FaultVfs>` can be threaded through an engine and armed /
/// inspected from the test driving it.
#[derive(Debug, Default)]
pub struct FaultVfs {
    inner: StdVfs,
    ops: AtomicU64,
    injected: AtomicU64,
    armed: Mutex<Vec<Armed>>,
    obs: Mutex<Option<Arc<mate_obs::Obs>>>,
}

impl FaultVfs {
    /// A fault-free injector (arm faults later).
    pub fn new() -> Self {
        FaultVfs::default()
    }

    /// Arms a fault (several may be armed at once).
    pub fn arm(&self, fault: Fault) {
        self.armed
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Armed {
                remaining: fault.nth.max(1),
                fault,
            });
    }

    /// Convenience: fail the `n`th fallible operation of any class with a
    /// generic I/O error (the fault-sweep workhorse).
    pub fn fail_nth(&self, n: u64) {
        self.arm(Fault {
            class: OpClass::Any,
            nth: n,
            mode: FaultMode::Error(io::ErrorKind::Other),
            sticky: false,
        });
    }

    /// Convenience: the `n`th write fails with ENOSPC (sticky — a full
    /// disk stays full until [`FaultVfs::disarm_all`]).
    pub fn enospc_on_nth_write(&self, n: u64) {
        self.arm(Fault {
            class: OpClass::Write,
            nth: n,
            mode: FaultMode::Error(io::ErrorKind::StorageFull),
            sticky: true,
        });
    }

    /// Convenience: the `n`th fsync (data or full, file or directory)
    /// fails with EIO.
    pub fn eio_on_nth_sync(&self, n: u64) {
        self.arm(Fault {
            class: OpClass::Sync,
            nth: n,
            mode: FaultMode::Error(io::ErrorKind::Other),
            sticky: false,
        });
    }

    /// Convenience: the `n`th write persists only a seed-derived prefix,
    /// then fails.
    pub fn torn_nth_write(&self, n: u64, seed: u64) {
        self.arm(Fault {
            class: OpClass::Write,
            nth: n,
            mode: FaultMode::TornWrite { seed },
            sticky: false,
        });
    }

    /// Convenience: the `n`th read silently returns one flipped bit.
    pub fn bitflip_nth_read(&self, n: u64, seed: u64) {
        self.arm(Fault {
            class: OpClass::Read,
            nth: n,
            mode: FaultMode::BitFlip { seed },
            sticky: false,
        });
    }

    /// Removes every armed fault (already-injected counts are kept).
    pub fn disarm_all(&self) {
        self.armed.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }

    /// Total fallible operations observed (the sweep bound: run once
    /// fault-free, read this, then iterate `1..=ops`).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }

    /// Counts one operation of `op` class against `path` and resolves the
    /// armed faults against it.
    fn check(&self, op: OpClass, path: &Path) -> Action {
        self.ops.fetch_add(1, Ordering::Relaxed);
        let mut armed = self.armed.lock().unwrap_or_else(|e| e.into_inner());
        let mut fired: Option<FaultMode> = None;
        armed.retain_mut(|a| {
            if fired.is_some() || !a.fault.class.matches(op) {
                return true;
            }
            if a.remaining > 1 {
                a.remaining -= 1;
                return true;
            }
            fired = Some(a.fault.mode);
            a.fault.sticky
        });
        drop(armed);
        let Some(mode) = fired else {
            return Action::Proceed;
        };
        self.injected.fetch_add(1, Ordering::Relaxed);
        if let Some(obs) = &*self.obs.lock().unwrap_or_else(|e| e.into_inner()) {
            obs.counter("vfs.faults_injected").inc();
            obs.event(
                "fault_injected",
                format!("{:?} {} ({:?})", op, path.display(), mode),
            );
        }
        match (mode, op) {
            (FaultMode::Error(kind), _) => Action::Fail(kind),
            (FaultMode::TornWrite { seed }, OpClass::Write) => Action::Torn { seed },
            (FaultMode::TornWrite { .. }, _) => Action::Fail(io::ErrorKind::Other),
            (FaultMode::BitFlip { seed }, OpClass::Read) => Action::Flip { seed },
            (FaultMode::BitFlip { .. }, _) => Action::Proceed,
        }
    }

    fn injected_err(kind: io::ErrorKind) -> io::Error {
        io::Error::new(kind, "injected fault")
    }
}

/// A file handle vended by [`FaultVfs`]: shares the injector state, so
/// faults armed after the open still hit this handle's writes and fsyncs.
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<FaultVfs>,
    path: PathBuf,
}

impl VfsFile for FaultFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self.state.check(OpClass::Write, &self.path) {
            Action::Proceed | Action::Flip { .. } => self.inner.write_all(buf),
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            Action::Torn { seed } => {
                // Persist a strict prefix, then fail: the on-disk state a
                // real torn write leaves behind.
                let keep = if buf.is_empty() {
                    0
                } else {
                    (seed as usize) % buf.len()
                };
                self.inner.write_all(&buf[..keep])?;
                let _ = self.inner.sync_data();
                Err(FaultVfs::injected_err(io::ErrorKind::Other))
            }
        }
    }
    fn sync_data(&self) -> io::Result<()> {
        match self.state.check(OpClass::Sync, &self.path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.sync_data(),
        }
    }
    fn sync_all(&self) -> io::Result<()> {
        match self.state.check(OpClass::Sync, &self.path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.sync_all(),
        }
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        match self.state.check(OpClass::Meta, &self.path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.set_len(len),
        }
    }
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(FaultFile {
            inner: self.inner.try_clone()?,
            state: Arc::clone(&self.state),
            path: self.path.clone(),
        }))
    }
}

/// [`FaultVfs`] is used through an `Arc` so its vended file handles can
/// share the armed-fault state; this impl forwards the trait through the
/// `Arc` and wraps every handle.
impl Vfs for Arc<FaultVfs> {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        match self.check(OpClass::Read, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            Action::Flip { seed } => {
                let mut data = self.inner.read(path)?;
                if !data.is_empty() {
                    let bit = (seed as usize) % (data.len() * 8);
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(data)
            }
            _ => self.inner.read(path),
        }
    }
    fn pread(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        match self.check(OpClass::Read, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            Action::Flip { seed } => {
                let mut data = self.inner.pread(path, offset, len)?;
                if !data.is_empty() {
                    let bit = (seed as usize) % (data.len() * 8);
                    data[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(data)
            }
            _ => self.inner.pread(path, offset, len),
        }
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => Ok(Box::new(FaultFile {
                inner: self.inner.create(path)?,
                state: Arc::clone(self),
                path: path.to_path_buf(),
            })),
        }
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => Ok(Box::new(FaultFile {
                inner: self.inner.open_append(path)?,
                state: Arc::clone(self),
                path: path.to_path_buf(),
            })),
        }
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => Ok(Box::new(FaultFile {
                inner: self.inner.open_write(path)?,
                state: Arc::clone(self),
                path: path.to_path_buf(),
            })),
        }
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        match self.check(OpClass::Meta, from) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.rename(from, to),
        }
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.remove_file(path),
        }
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.create_dir_all(path),
        }
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        match self.check(OpClass::Sync, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.sync_dir(path),
        }
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        match self.check(OpClass::Meta, path) {
            Action::Fail(kind) => Err(FaultVfs::injected_err(kind)),
            _ => self.inner.read_dir(path),
        }
    }
    fn attach_obs(&self, obs: &Arc<mate_obs::Obs>) {
        // Register the counter now so the metric is enumerable even
        // before any fault fires.
        obs.counter("vfs.faults_injected");
        *self.obs.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(obs));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mate-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_vfs_roundtrip() {
        let dir = tmpdir("std");
        let vfs = StdVfs;
        let p = dir.join("a.bin");
        let mut f = vfs.create(&p).unwrap();
        f.write_all(b"hello world").unwrap();
        f.sync_all().unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"hello world");
        assert_eq!(vfs.pread(&p, 6, 5).unwrap(), b"world");
        assert_eq!(
            vfs.pread(&p, 6, 100).unwrap(),
            b"world",
            "short read at EOF"
        );
        vfs.rename(&p, &dir.join("b.bin")).unwrap();
        assert_eq!(vfs.read_dir(&dir).unwrap(), vec![PathBuf::from("b.bin")]);
        vfs.sync_dir(&dir).unwrap();
        vfs.remove_file(&dir.join("b.bin")).unwrap();
        assert!(vfs.read(&dir.join("b.bin")).is_err());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fault_fail_nth_is_deterministic() {
        let dir = tmpdir("nth");
        let vfs = Arc::new(FaultVfs::new());
        let p = dir.join("x");
        // ops: create(Meta)=1, write=2, read=3
        vfs.fail_nth(2);
        let mut f = vfs.create(&p).unwrap();
        let err = f.write_all(b"data").unwrap_err();
        assert_eq!(err.to_string(), "injected fault");
        assert_eq!(vfs.injected(), 1);
        // One-shot: the next write goes through.
        f.write_all(b"data").unwrap();
        drop(f);
        assert_eq!(vfs.read(&p).unwrap(), b"data");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn torn_write_persists_prefix() {
        let dir = tmpdir("torn");
        let vfs = Arc::new(FaultVfs::new());
        let p = dir.join("x");
        let mut f = vfs.create(&p).unwrap();
        vfs.torn_nth_write(1, 7); // keep 7 % 10 = 7 bytes
        assert!(f.write_all(b"0123456789").is_err());
        drop(f);
        assert_eq!(std::fs::read(&p).unwrap(), b"0123456");
        assert_eq!(vfs.injected(), 1);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn enospc_is_sticky_and_syncs_fail_eio() {
        let dir = tmpdir("enospc");
        let vfs = Arc::new(FaultVfs::new());
        let mut f = vfs.create(&dir.join("x")).unwrap();
        vfs.enospc_on_nth_write(1);
        for _ in 0..3 {
            let e = f.write_all(b"zz").unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::StorageFull);
        }
        vfs.disarm_all();
        f.write_all(b"ok").unwrap();
        vfs.eio_on_nth_sync(1);
        assert!(f.sync_data().is_err());
        f.sync_data().unwrap();
        assert_eq!(vfs.injected(), 4);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn bitflip_read_corrupts_exactly_one_bit() {
        let dir = tmpdir("flip");
        let vfs = Arc::new(FaultVfs::new());
        let p = dir.join("x");
        std::fs::write(&p, [0u8; 16]).unwrap();
        vfs.bitflip_nth_read(1, 21); // bit 21 of 128
        let data = vfs.read(&p).unwrap();
        let ones: u32 = data.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1, "exactly one bit flipped");
        assert_eq!(data[21 / 8], 1 << (21 % 8));
        // Disarmed after firing: clean read.
        assert_eq!(vfs.read(&p).unwrap(), vec![0u8; 16]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn attached_obs_records_fault_events_with_op_and_path() {
        let dir = tmpdir("obs");
        let vfs = Arc::new(FaultVfs::new());
        let obs = Arc::new(mate_obs::Obs::new());
        Vfs::attach_obs(&vfs, &obs);
        assert_eq!(obs.counter("vfs.faults_injected").get(), 0);
        let p = dir.join("wal");
        let mut f = vfs.create(&p).unwrap();
        vfs.fail_nth(1);
        vfs.eio_on_nth_sync(1);
        assert!(f.write_all(b"rec").is_err());
        assert!(f.sync_data().is_err());
        assert_eq!(obs.counter("vfs.faults_injected").get(), 2);
        let events = obs.events();
        assert_eq!(events.len(), 2);
        assert!(events[0].kind == "fault_injected");
        assert!(
            events[0].detail.starts_with("Write"),
            "{}",
            events[0].detail
        );
        assert!(events[0].detail.contains("wal"), "{}", events[0].detail);
        assert!(events[1].detail.starts_with("Sync"), "{}", events[1].detail);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cloned_handles_share_fault_state() {
        let dir = tmpdir("clone");
        let vfs = Arc::new(FaultVfs::new());
        let f = vfs.create(&dir.join("x")).unwrap();
        let mut dup = f.try_clone().unwrap();
        vfs.fail_nth(1);
        assert!(dup.write_all(b"x").is_err());
        assert_eq!(vfs.injected(), 1);
        std::fs::remove_dir_all(dir).ok();
    }
}
