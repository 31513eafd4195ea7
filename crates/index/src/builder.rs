//! Offline index construction (the paper's indexing phase, Fig. 2 left).
//!
//! For every non-empty cell the builder interns the value into the posting
//! store's arena, appends a posting entry, and OR-aggregates the hash of the
//! cell into the row's super key. Because [`PostingStore`] hands out dense
//! value ids in first-intern order, the per-value hash cache is a plain
//! `Vec<HashBits>` indexed by value id — no second hash map on the build hot
//! path, and probing an existing value allocates nothing.
//!
//! [`IndexBuilder::parallel`] splits the corpus into contiguous table ranges
//! processed by worker threads (crossbeam scoped threads), each building a
//! local [`PostingStore`]. The merge interns all worker values in worker
//! order (which reproduces the sequential first-intern order, since worker
//! ranges are contiguous and ascending), sizes every posting run exactly via
//! prefix sums, and fills the runs in parallel over disjoint splits of the
//! entry buffer — so the result is bit-identical to the sequential build.

use crate::index::InvertedIndex;
use crate::posting::PostingEntry;
use crate::store::PostingStore;
use crate::superkeys::SuperKeyStore;
use mate_hash::{HashBits, RowHasher};
use mate_table::{Corpus, Table, TableId};

/// Builds an [`InvertedIndex`] from a [`Corpus`] with a chosen hash function.
#[derive(Debug, Clone)]
pub struct IndexBuilder<H: RowHasher> {
    hasher: H,
    threads: usize,
}

impl<H: RowHasher> IndexBuilder<H> {
    /// Creates a sequential builder.
    pub fn new(hasher: H) -> Self {
        IndexBuilder { hasher, threads: 1 }
    }

    /// Uses up to `threads` worker threads (values < 2 mean sequential).
    pub fn parallel(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The hash function in use.
    pub fn hasher(&self) -> &H {
        &self.hasher
    }

    /// Builds the index.
    pub fn build(&self, corpus: &Corpus) -> InvertedIndex {
        if self.threads <= 1 || corpus.len() < 2 * self.threads {
            self.build_sequential(corpus)
        } else {
            self.build_parallel(corpus)
        }
    }

    fn build_sequential(&self, corpus: &Corpus) -> InvertedIndex {
        let mut index = InvertedIndex::empty(self.hasher.hash_size(), self.hasher.name());
        let mut hash_cache = Vec::new();
        for (tid, table) in corpus.iter() {
            index.superkeys.push_table(table.num_rows());
            index_table(
                &self.hasher,
                tid,
                tid,
                table,
                &mut index.store,
                &mut index.superkeys,
                &mut hash_cache,
            );
        }
        // Pack runs back-to-back: drops growth slack and relocation holes.
        index.store.compact();
        index
    }

    fn build_parallel(&self, corpus: &Corpus) -> InvertedIndex {
        let n = corpus.len();
        let chunk = n.div_ceil(self.threads);
        // Each worker builds postings + superkeys for a contiguous table range.
        type Partial = (PostingStore, Vec<Vec<u64>>);
        let mut partials: Vec<Option<Partial>> = Vec::new();
        partials.resize_with(self.threads, || None);

        crossbeam::thread::scope(|scope| {
            let hasher = &self.hasher;
            for (wi, slot) in partials.iter_mut().enumerate() {
                let lo = wi * chunk;
                let hi = ((wi + 1) * chunk).min(n);
                scope.spawn(move |_| {
                    let mut store = PostingStore::new();
                    let mut keys: Vec<Vec<u64>> = Vec::with_capacity(hi.saturating_sub(lo));
                    let mut hash_cache = Vec::new();
                    for t in lo..hi {
                        let tid = TableId::from(t);
                        let table = corpus.table(tid);
                        // Per-table local store at local id 0.
                        let mut local_store = SuperKeyStore::new(hasher.hash_size());
                        local_store.push_table(table.num_rows());
                        index_table(
                            hasher,
                            tid,
                            TableId(0),
                            table,
                            &mut store,
                            &mut local_store,
                            &mut hash_cache,
                        );
                        keys.push(local_store.table_words(TableId(0)).to_vec());
                    }
                    *slot = Some((store, keys));
                });
            }
        })
        // panic-exempt: deliberate propagation — a build worker's panic
        // must surface on the calling thread, not produce a partial index.
        .expect("index build worker panicked");

        // Merge. Super keys go in range order; posting stores are merged
        // with exact pre-sizing and a parallel fill (one thread per
        // contiguous value-id chunk) — a single-threaded merge dominates
        // build time on corpora with large tables.
        let mut index = InvertedIndex::empty(self.hasher.hash_size(), self.hasher.name());
        for (_, table) in corpus.iter() {
            index.superkeys.push_table(table.num_rows());
        }
        let mut worker_stores: Vec<PostingStore> = Vec::with_capacity(self.threads);
        let mut next_table = 0usize;
        for slot in partials {
            // panic-exempt: every worker fills its slot before its scope
            // ends, and a panicked worker already propagated above.
            let (store, keys) = slot.expect("worker did not report");
            for words in keys {
                index
                    .superkeys
                    .set_table_words(TableId::from(next_table), words);
                next_table += 1;
            }
            worker_stores.push(store);
        }
        index.store = merge_posting_stores(worker_stores, self.threads);
        index
    }
}

/// Merges worker posting stores into one flat store, bit-identical to a
/// sequential build: values interned in worker order (= global first-seen
/// order), runs exactly sized via prefix sums, filled in parallel over
/// disjoint splits of the entry buffer, and sorted per value (worker ranges
/// may interleave per value).
fn merge_posting_stores(worker_stores: Vec<PostingStore>, threads: usize) -> PostingStore {
    let mut merged = PostingStore::new();

    // 1. Deterministic interning + per-value entry counts, recording each
    //    worker's local-id → merged-id map so the fill never has to resolve
    //    values by text again.
    let mut counts: Vec<usize> = Vec::new();
    let mut id_maps: Vec<Vec<u32>> = Vec::with_capacity(worker_stores.len());
    for store in &worker_stores {
        let mut map = Vec::with_capacity(store.num_interned());
        for local in 0..store.num_interned() as u32 {
            let vid = merged.intern(store.value(local)) as usize;
            if vid == counts.len() {
                counts.push(0);
            }
            counts[vid] += store.postings(local).len();
            map.push(vid as u32);
        }
        id_maps.push(map);
    }

    // 2. Exact allocation: runs are packed in value-id order, so a
    //    contiguous chunk of value ids owns a contiguous set of run slices.
    merged.allocate_exact(&counts);
    let num_values = counts.len();
    let mut runs = merged.run_slices_mut();

    // 3. Parallel fill: split value ids into `threads` chunks balanced by
    //    entry count, hand each worker its disjoint run slices.
    let mut offsets: Vec<usize> = Vec::with_capacity(num_values);
    let mut total = 0usize;
    for &n in &counts {
        offsets.push(total);
        total += n;
    }
    let per_chunk = total.div_ceil(threads.max(1)).max(1);
    let mut chunks: Vec<(usize, usize)> = Vec::new(); // value-id ranges
    {
        let mut start = 0usize;
        while start < num_values {
            let budget = offsets[start] + per_chunk;
            let mut end = start + 1;
            while end < num_values && offsets[end] < budget {
                end += 1;
            }
            chunks.push((start, end));
            start = end;
        }
    }

    crossbeam::thread::scope(|scope| {
        let stores = &worker_stores;
        let id_maps = &id_maps;
        let mut rest: &mut [&mut [PostingEntry]] = &mut runs;
        for &(lo, hi) in &chunks {
            let (head, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            scope.spawn(move |_| {
                fill_chunk(stores, id_maps, lo, hi, head);
            });
        }
    })
    // panic-exempt: deliberate propagation — a merge worker's panic must
    // surface on the calling thread, not produce a partial store.
    .expect("posting merge worker panicked");
    drop(runs);

    merged
}

/// Copies every worker's run for merged value ids `[lo, hi)` into the
/// corresponding run slices (`runs[vid - lo]`), then sorts each merged run.
/// Worker-local ids resolve through the precomputed `id_maps` — no text
/// lookups.
fn fill_chunk(
    stores: &[PostingStore],
    id_maps: &[Vec<u32>],
    lo: usize,
    hi: usize,
    runs: &mut [&mut [PostingEntry]],
) {
    let mut cursor = vec![0usize; hi - lo];
    for (store, map) in stores.iter().zip(id_maps) {
        for (local, &vid) in map.iter().enumerate() {
            let vid = vid as usize;
            if vid < lo || vid >= hi {
                continue;
            }
            let pl = store.postings(local as u32);
            let at = cursor[vid - lo];
            runs[vid - lo][at..at + pl.len()].copy_from_slice(pl);
            cursor[vid - lo] += pl.len();
        }
    }
    for run in runs.iter_mut() {
        run.sort_unstable();
    }
}

/// Indexes one table: postings carry the global `tid`; super keys are written
/// to `store_tid` (global id for sequential builds, local id 0 for parallel
/// workers). `hash_cache` is indexed by the store's dense value ids.
fn index_table<H: RowHasher>(
    hasher: &H,
    tid: TableId,
    store_tid: TableId,
    table: &Table,
    store: &mut PostingStore,
    sk_store: &mut SuperKeyStore,
    hash_cache: &mut Vec<HashBits>,
) {
    // Store id of each entry of the column's dictionary, interned at its
    // first row (`u32::MAX`: not yet), so values keep their first-seen order.
    let mut vids: Vec<u32> = Vec::new();
    for (ci, col) in table.columns().iter().enumerate() {
        vids.clear();
        vids.resize(col.num_entries(), u32::MAX);
        for (ri, &id) in col.ids().iter().enumerate() {
            let value = col.entry(id);
            if value.is_empty() {
                continue;
            }
            let vid = &mut vids[id as usize];
            if *vid == u32::MAX {
                *vid = store.intern(value);
            }
            store.append(*vid, PostingEntry::new(tid, ci as u32, ri as u32));
            // Values repeat heavily (Zipf lakes); hash each distinct value
            // once. New ids are dense, so the cache is a Vec, not a map.
            if *vid as usize == hash_cache.len() {
                hash_cache.push(hasher.hash_value(value));
            }
            sk_store.or_into(
                store_tid,
                mate_table::RowId::from(ri),
                hash_cache[*vid as usize].words(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_table::{ColId, RowId, TableBuilder};

    fn corpus() -> Corpus {
        let mut c = Corpus::new();
        c.add_table(
            TableBuilder::new("t0", ["a", "b"])
                .row(["foo", "bar"])
                .row(["baz", "foo"])
                .build(),
        );
        c.add_table(
            TableBuilder::new("t1", ["x"])
                .row(["foo"])
                .row([""])
                .build(),
        );
        c
    }

    #[test]
    fn posting_lists_complete_and_sorted() {
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus());
        let pl = idx.posting_list("foo").unwrap();
        assert_eq!(
            pl,
            &[
                PostingEntry::new(0u32, 0u32, 0u32),
                PostingEntry::new(0u32, 1u32, 1u32),
                PostingEntry::new(1u32, 0u32, 0u32),
            ]
        );
        assert_eq!(idx.posting_list("bar").unwrap().len(), 1);
        assert!(idx.posting_list("nope").is_none());
    }

    #[test]
    fn empty_cells_not_indexed() {
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus());
        assert!(idx.posting_list("").is_none());
        // t1 row 1 is all-empty → zero super key.
        assert!(idx.superkey(TableId(1), RowId(1)).iter().all(|&w| w == 0));
    }

    #[test]
    fn superkey_covers_every_cell_hash() {
        let hasher = Xash::new(HashSize::B128);
        let c = corpus();
        let idx = IndexBuilder::new(hasher).build(&c);
        for (tid, table) in c.iter() {
            for r in 0..table.num_rows() {
                let sk = idx.superkey(tid, RowId::from(r));
                for v in table.row_iter(RowId::from(r)) {
                    if v.is_empty() {
                        continue;
                    }
                    let h = hasher.hash_value(v);
                    assert!(h.covered_by(sk), "{v} not covered in {tid}/{r}");
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        // Build a corpus large enough to hit the parallel path.
        let mut c = Corpus::new();
        for i in 0..40 {
            let mut tb = TableBuilder::new(format!("t{i}"), ["a", "b", "c"]);
            for j in 0..10 {
                tb = tb.row([
                    format!("v{}", (i * 7 + j) % 23),
                    format!("w{}", (i + j * 3) % 17),
                    format!("u{}", j),
                ]);
            }
            c.add_table(tb.build());
        }
        let seq = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        let par = IndexBuilder::new(Xash::new(HashSize::B128))
            .parallel(4)
            .build(&c);
        assert_eq!(seq.num_values(), par.num_values());
        assert_eq!(seq.num_postings(), par.num_postings());
        for (v, pl) in seq.iter_values() {
            assert_eq!(par.posting_list(v).unwrap(), pl, "value {v}");
        }
        // The merged layout is bit-identical, not just equivalent: values
        // intern in the same order with the same runs.
        let seq_vals: Vec<&str> = seq.iter_values().map(|(v, _)| v).collect();
        let par_vals: Vec<&str> = par.iter_values().map(|(v, _)| v).collect();
        assert_eq!(seq_vals, par_vals);
        for (tid, table) in c.iter() {
            for r in 0..table.num_rows() {
                assert_eq!(
                    seq.superkey(tid, RowId::from(r)),
                    par.superkey(tid, RowId::from(r))
                );
            }
        }
    }

    #[test]
    fn stats_shape() {
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus());
        let s = idx.stats();
        assert_eq!(s.num_postings, 5); // 4 cells in t0 + 1 non-empty in t1
        assert_eq!(s.num_superkeys, 4); // 2 + 2 rows
        assert_eq!(s.superkey_bytes_per_row, 4 * 16);
        assert_eq!(s.superkey_bytes_per_cell, 5 * 16);
        assert!(s.superkey_bytes_per_cell > s.superkey_bytes_per_row);
    }

    #[test]
    fn values_are_reachable_via_cells() {
        let c = corpus();
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        for (v, pl) in idx.iter_values() {
            for e in pl {
                assert_eq!(c.table(e.table).cell(e.row, e.col), v);
            }
        }
    }

    #[test]
    fn builder_exposes_hasher() {
        let b = IndexBuilder::new(Xash::new(HashSize::B256));
        assert_eq!(b.hasher().hash_size(), HashSize::B256);
        let _ = ColId(0);
    }
}
