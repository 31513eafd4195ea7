//! A counting pass-through over [`StdVfs`], handed to the engine through
//! `EngineConfig::vfs`.
//!
//! Call and byte counts are plain relaxed atomics and stay on in every run
//! (`write_amp` is computed from them). The timers around `pread` and the
//! fsyncs read the clock only when the counter set was created with
//! `timed = true`, which the traced run alone does.

use mate_storage::{StdVfs, Vfs, VfsFile};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// What an engine file holds, read off its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `wal-*.log`: the write-ahead log.
    Wal,
    /// `seg-*`: flushed or compacted posting segments.
    Segment,
    /// `corpus-*` / `cdelta-*`: full and incremental corpus checkpoints.
    Checkpoint,
    /// The manifest and anything else.
    Other,
}

impl FileKind {
    pub fn of(path: &Path) -> FileKind {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy())
            .unwrap_or_default();
        if name.starts_with("wal-") {
            FileKind::Wal
        } else if name.starts_with("seg-") {
            FileKind::Segment
        } else if name.starts_with("corpus-") || name.starts_with("cdelta-") {
            FileKind::Checkpoint
        } else {
            FileKind::Other
        }
    }
}

/// Counters shared by a [`CountingVfs`] and every file handle it vends,
/// one group per `mate_storage::vfs::OpClass`: reads, writes, syncs and
/// metadata operations.
#[derive(Debug, Default)]
pub struct IoCounters {
    timed: bool,
    write_calls: AtomicU64,
    write_bytes: [AtomicU64; 4],
    syncs: AtomicU64,
    sync_ns: AtomicU64,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    preads: AtomicU64,
    pread_bytes: AtomicU64,
    pread_ns: AtomicU64,
    meta_ops: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`]; subtract two to get the I/O of
/// the interval between them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoSnapshot {
    pub write_calls: u64,
    /// Bytes written, indexed by [`FileKind`].
    pub write_bytes: [u64; 4],
    pub syncs: u64,
    pub sync_ns: u64,
    /// Whole-file reads.
    pub reads: u64,
    pub read_bytes: u64,
    /// Positional reads (page-cache fills).
    pub preads: u64,
    pub pread_bytes: u64,
    pub pread_ns: u64,
    pub meta_ops: u64,
}

impl IoSnapshot {
    fn zip(&self, o: &IoSnapshot, f: impl Fn(u64, u64) -> u64) -> IoSnapshot {
        IoSnapshot {
            write_calls: f(self.write_calls, o.write_calls),
            write_bytes: std::array::from_fn(|i| f(self.write_bytes[i], o.write_bytes[i])),
            syncs: f(self.syncs, o.syncs),
            sync_ns: f(self.sync_ns, o.sync_ns),
            reads: f(self.reads, o.reads),
            read_bytes: f(self.read_bytes, o.read_bytes),
            preads: f(self.preads, o.preads),
            pread_bytes: f(self.pread_bytes, o.pread_bytes),
            pread_ns: f(self.pread_ns, o.pread_ns),
            meta_ops: f(self.meta_ops, o.meta_ops),
        }
    }

    /// The I/O done between `earlier` and this snapshot.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        self.zip(earlier, |a, b| a - b)
    }

    /// Adds another interval's I/O into this one.
    pub fn add(&mut self, other: &IoSnapshot) {
        *self = self.zip(other, |a, b| a + b);
    }

    pub fn written(&self, kind: FileKind) -> u64 {
        self.write_bytes[kind as usize]
    }

    pub fn written_total(&self) -> u64 {
        self.write_bytes.iter().sum()
    }
}

impl IoCounters {
    pub fn new(timed: bool) -> Self {
        IoCounters {
            timed,
            ..IoCounters::default()
        }
    }

    pub fn snapshot(&self) -> IoSnapshot {
        let g = |a: &AtomicU64| a.load(Relaxed);
        IoSnapshot {
            write_calls: g(&self.write_calls),
            write_bytes: std::array::from_fn(|i| g(&self.write_bytes[i])),
            syncs: g(&self.syncs),
            sync_ns: g(&self.sync_ns),
            reads: g(&self.reads),
            read_bytes: g(&self.read_bytes),
            preads: g(&self.preads),
            pread_bytes: g(&self.pread_bytes),
            pread_ns: g(&self.pread_ns),
            meta_ops: g(&self.meta_ops),
        }
    }

    fn start(&self) -> Option<Instant> {
        self.timed.then(Instant::now)
    }

    fn stop(&self, start: Option<Instant>, into: &AtomicU64) {
        if let Some(t) = start {
            into.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        }
    }

    fn sync<T>(&self, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
        self.syncs.fetch_add(1, Relaxed);
        let t = self.start();
        let r = f();
        self.stop(t, &self.sync_ns);
        r
    }

    fn meta<T>(&self, r: io::Result<T>) -> io::Result<T> {
        self.meta_ops.fetch_add(1, Relaxed);
        r
    }
}

/// The counting file system (see module docs).
#[derive(Debug)]
pub struct CountingVfs {
    inner: StdVfs,
    counters: Arc<IoCounters>,
}

impl CountingVfs {
    pub fn new(counters: Arc<IoCounters>) -> Self {
        CountingVfs {
            inner: StdVfs,
            counters,
        }
    }

    fn wrap(
        &self,
        path: &Path,
        file: io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        let file = self.counters.meta(file)?;
        Ok(Box::new(CountingFile {
            inner: file,
            kind: FileKind::of(path),
            counters: Arc::clone(&self.counters),
        }))
    }
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    kind: FileKind,
    counters: Arc<IoCounters>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters.write_calls.fetch_add(1, Relaxed);
        self.counters.write_bytes[self.kind as usize].fetch_add(buf.len() as u64, Relaxed);
        self.inner.write_all(buf)
    }
    fn sync_data(&self) -> io::Result<()> {
        self.counters.sync(|| self.inner.sync_data())
    }
    fn sync_all(&self) -> io::Result<()> {
        self.counters.sync(|| self.inner.sync_all())
    }
    fn set_len(&self, len: u64) -> io::Result<()> {
        self.counters.meta(self.inner.set_len(len))
    }
    fn try_clone(&self) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.try_clone()?,
            kind: self.kind,
            counters: Arc::clone(&self.counters),
        }))
    }
}

impl Vfs for CountingVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let data = self.inner.read(path)?;
        self.counters.reads.fetch_add(1, Relaxed);
        self.counters
            .read_bytes
            .fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }
    fn pread(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let c = &self.counters;
        let t = c.start();
        let data = self.inner.pread(path, offset, len);
        c.stop(t, &c.pread_ns);
        let data = data?;
        c.preads.fetch_add(1, Relaxed);
        c.pread_bytes.fetch_add(data.len() as u64, Relaxed);
        Ok(data)
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(path, self.inner.create(path))
    }
    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(path, self.inner.open_append(path))
    }
    fn open_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(path, self.inner.open_write(path))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.meta(self.inner.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counters.meta(self.inner.remove_file(path))
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counters.meta(self.inner.create_dir_all(path))
    }
    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        self.counters.sync(|| self.inner.sync_dir(path))
    }
    fn read_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.counters.meta(self.inner.read_dir(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_core::{discover_lake, MateConfig};
    use mate_index::engine::{EngineConfig, EngineLake};
    use mate_index::WalRecord;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("perfbench-vfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn on_disk(dir: &Path, kind: FileKind) -> u64 {
        std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| FileKind::of(p) == kind)
            .map(|p| std::fs::metadata(p).unwrap().len())
            .sum()
    }

    /// Ingests the same small lake with and without the wrapper, flushing
    /// exactly once and never compacting.
    #[test]
    fn counts_match_files_after_one_flush_and_answers_are_unchanged() {
        let lake = crate::gen::webtables(3);
        let tables: Vec<_> = lake
            .corpus
            .iter()
            .map(|(_, t)| t.clone())
            .take(400)
            .collect();
        let config = |vfs: Arc<dyn Vfs>| EngineConfig {
            memtable_budget_bytes: usize::MAX,
            max_cold_segments: 0,
            vfs,
            ..EngineConfig::default()
        };
        let counters = Arc::new(IoCounters::new(true));
        let counted_dir = tmpdir("counted");
        let plain_dir = tmpdir("plain");
        let counted = EngineLake::create(
            &counted_dir,
            config(Arc::new(CountingVfs::new(Arc::clone(&counters)))),
        )
        .unwrap();
        let plain = EngineLake::create(&plain_dir, config(Arc::new(StdVfs))).unwrap();
        for l in [&counted, &plain] {
            for chunk in tables.chunks(50) {
                l.apply_many(
                    chunk
                        .iter()
                        .map(|t| WalRecord::InsertTable { table: t.clone() }),
                )
                .unwrap();
            }
            assert!(l.flush().unwrap());
            assert_eq!(l.stats().flushes, 1);
            assert_eq!(l.stats().compactions, 0);
        }

        let io = counters.snapshot();
        assert!(io.written(FileKind::Segment) > 0);
        assert!(io.written(FileKind::Checkpoint) > 0);
        assert!(io.written(FileKind::Wal) > 0);
        assert!(io.syncs > 0);
        assert_eq!(
            io.written(FileKind::Segment),
            on_disk(&counted_dir, FileKind::Segment)
        );
        assert_eq!(
            io.written(FileKind::Checkpoint),
            on_disk(&counted_dir, FileKind::Checkpoint)
        );

        for query in lake
            .queries
            .iter()
            .filter(|q| q.q.planted_tables.iter().all(|t| t.index() < tables.len()))
        {
            let a = discover_lake(
                &counted,
                MateConfig::default(),
                &query.q.table,
                &query.q.key,
                10,
            );
            let b = discover_lake(
                &plain,
                MateConfig::default(),
                &query.q.table,
                &query.q.key,
                10,
            );
            assert_eq!(a.top_k, b.top_k);
            assert_eq!(
                a.stats.rows_verified_joinable,
                b.stats.rows_verified_joinable
            );
        }
        drop((counted, plain));
        let _ = std::fs::remove_dir_all(counted_dir);
        let _ = std::fs::remove_dir_all(plain_dir);
    }
}
