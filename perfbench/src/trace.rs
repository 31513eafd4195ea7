//! Traced adapters for the per-layer run: a [`PostingSource`] and a
//! [`RowHasher`] that forward every call to the real implementation and
//! time it from outside. Discovery is driven through
//! `MateDiscovery::from_parts` over these, so the program itself carries
//! no spans or switches for the benchmark.

use mate_hash::{HashBits, HashSize, RowHasher};
use mate_index::{ListHandle, PostingEntry, PostingSource, ProbeCounters, ProbeScratch};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// Calls and nanoseconds spent in one traced function.
#[derive(Debug, Default)]
pub struct CallTimer {
    pub calls: AtomicU64,
    pub ns: AtomicU64,
}

impl CallTimer {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let r = f();
        self.ns.fetch_add(t.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        r
    }

    /// `(calls, ns)` so far.
    pub fn get(&self) -> (u64, u64) {
        (self.calls.load(Relaxed), self.ns.load(Relaxed))
    }
}

/// Times each probe of the `mate_index::source` layer.
pub struct TracedSource<'a> {
    inner: &'a dyn PostingSource,
    pub find_list: CallTimer,
    pub table_runs: CallTimer,
    pub collect_run: CallTimer,
}

impl<'a> TracedSource<'a> {
    pub fn new(inner: &'a dyn PostingSource) -> Self {
        TracedSource {
            inner,
            find_list: CallTimer::default(),
            table_runs: CallTimer::default(),
            collect_run: CallTimer::default(),
        }
    }

    /// Nanoseconds spent inside the wrapped source so far.
    pub fn ns(&self) -> u64 {
        self.find_list.get().1 + self.table_runs.get().1 + self.collect_run.get().1
    }
}

impl PostingSource for TracedSource<'_> {
    fn find_list(&self, value: &str, scratch: &mut ProbeScratch) -> Option<ListHandle> {
        self.find_list.time(|| self.inner.find_list(value, scratch))
    }

    fn table_runs(
        &self,
        list: ListHandle,
        scratch: &mut ProbeScratch,
        f: &mut dyn FnMut(u32, u32),
    ) {
        self.table_runs
            .time(|| self.inner.table_runs(list, scratch, f))
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
        self.collect_run.time(|| {
            self.inner
                .collect_run(list, start, len, scratch, out, counters)
        })
    }

    fn num_values(&self) -> usize {
        self.inner.num_values()
    }

    fn num_postings(&self) -> usize {
        self.inner.num_postings()
    }
}

/// Times each value hash of the `mate_hash` layer.
pub struct TracedHasher<H> {
    inner: H,
    pub value: CallTimer,
}

impl<H: RowHasher> TracedHasher<H> {
    pub fn new(inner: H) -> Self {
        TracedHasher {
            inner,
            value: CallTimer::default(),
        }
    }
}

impl<H: RowHasher> RowHasher for TracedHasher<H> {
    fn hash_size(&self) -> HashSize {
        self.inner.hash_size()
    }

    fn hash_value(&self, value: &str) -> HashBits {
        self.value.time(|| self.inner.hash_value(value))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
