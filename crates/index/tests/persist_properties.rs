//! Property tests: corpus/index persistence round-trips over random corpora.

use mate_hash::{HashSize, Xash};
use mate_index::{persist, ColdPostingStore, IndexBuilder};
use mate_obs::Obs;
use mate_storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
use mate_storage::{SegmentReader, StdVfs, StorageError};
use mate_table::{Column, Corpus, RowId, Table, TableId};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runs `f` on `data` opened through the paged opener, as the engine
/// serves a segment: written to a temp file registered with a fresh page
/// cache, which outlives `f`.
fn with_paged<R>(
    data: bytes::Bytes,
    f: impl FnOnce(Result<ColdPostingStore, StorageError>) -> R,
) -> R {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "mate-persist-properties-{}-{}.seg",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, &data).unwrap();
    let cache = Arc::new(PageCache::new(
        Arc::new(StdVfs),
        DEFAULT_PAGE_SIZE,
        1 << 20,
        &Arc::new(Obs::new()),
    ));
    cache.register_segment(0, &path);
    let r =
        f(SegmentReader::open(data)
            .and_then(|seg| persist::read_cold_store_paged(&seg, &cache, 0)));
    let _ = std::fs::remove_file(&path);
    r
}

/// Random corpus strategy: up to 5 tables, each up to 4 × 6 cells.
fn corpus_strategy() -> impl Strategy<Value = Corpus> {
    let cell = "[a-zA-Z0-9 ,\"\n]{0,12}";
    let table = (1usize..5, 1usize..7).prop_flat_map(move |(cols, rows)| {
        proptest::collection::vec(proptest::collection::vec(cell, rows..=rows), cols..=cols)
    });
    proptest::collection::vec(table, 0..5).prop_map(|tables| {
        let mut corpus = Corpus::new();
        for (ti, cols) in tables.into_iter().enumerate() {
            let columns: Vec<Column> = cols
                .into_iter()
                .enumerate()
                .map(|(ci, values)| Column::new(format!("c{ci}"), values))
                .collect();
            corpus.add_table(Table::new(format!("t{ti}"), columns));
        }
        corpus
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn corpus_roundtrip(corpus in corpus_strategy()) {
        let restored =
            persist::corpus_from_bytes(persist::corpus_to_bytes(&corpus)).unwrap();
        prop_assert_eq!(corpus.len(), restored.len());
        for (id, t) in corpus.iter() {
            prop_assert_eq!(t, restored.table(id));
        }
    }

    #[test]
    fn index_roundtrip(corpus in corpus_strategy()) {
        for size in [HashSize::B128, HashSize::B512] {
            let hasher = Xash::new(size);
            let index = IndexBuilder::new(hasher).build(&corpus);
            let restored =
                persist::index_from_bytes(persist::index_to_bytes(&index)).unwrap();
            prop_assert_eq!(index.num_values(), restored.num_values());
            prop_assert_eq!(restored.hash_size(), size);
            for (v, pl) in index.iter_values() {
                prop_assert_eq!(restored.posting_list(v), Some(pl));
            }
            for (tid, t) in corpus.iter() {
                for r in 0..t.num_rows() {
                    prop_assert_eq!(
                        index.superkey(tid, RowId::from(r)),
                        restored.superkey(tid, RowId::from(r))
                    );
                }
            }
        }
    }

    #[test]
    fn serialized_form_is_deterministic(corpus in corpus_strategy()) {
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        prop_assert_eq!(persist::index_to_bytes(&index), persist::index_to_bytes(&index));
        prop_assert_eq!(persist::corpus_to_bytes(&corpus), persist::corpus_to_bytes(&corpus));
    }

    /// Arbitrary bytes never panic the index loader (hot or paged cold).
    #[test]
    fn arbitrary_bytes_never_panic(data: Vec<u8>) {
        let _ = persist::index_from_bytes(bytes::Bytes::from(data.clone()));
        with_paged(bytes::Bytes::from(data.clone()), drop);
        let _ = persist::corpus_from_bytes(bytes::Bytes::from(data));
    }

    /// The paged cold store serves exactly the flat store's content: every
    /// value resolves to an identical list (via full and ranged probes),
    /// and unknown values miss.
    #[test]
    fn cold_store_equals_flat_store(corpus in corpus_strategy()) {
        use mate_index::{PostingSource, ProbeCounters, ProbeScratch};
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        with_paged(persist::index_to_bytes(&index), |cold| {
            let cold = cold.unwrap();
            prop_assert_eq!(index.num_values(), cold.num_values());
            prop_assert_eq!(index.num_postings(), cold.num_postings());
            let mut scratch = ProbeScratch::new();
            let mut counters = ProbeCounters::default();
            for (v, pl) in index.iter_values() {
                let list = cold.find_list(v, &mut scratch).expect("value must resolve");
                prop_assert_eq!(list.len as usize, pl.len());
                let mut got = Vec::new();
                cold.collect_run(list, 0, list.len, &mut scratch, &mut got, &mut counters);
                prop_assert_eq!(got.as_slice(), pl);
                // Ranged probe: the list's second half alone.
                let half = list.len / 2;
                got.clear();
                cold.collect_run(list, half, list.len - half, &mut scratch, &mut got, &mut counters);
                prop_assert_eq!(got.as_slice(), &pl[half as usize..]);
                // Table runs tile the list.
                let mut total = 0u32;
                cold.table_runs(list, &mut scratch, &mut |_, n| total += n);
                prop_assert_eq!(total, list.len);
            }
            prop_assert!(cold.find_list("\u{1}never-a-cell-value", &mut scratch).is_none());
            Ok(())
        })?;
    }

    /// Parallel and sequential builds agree for random corpora (not just the
    /// hand-built ones in unit tests).
    #[test]
    fn parallel_build_agrees(corpus in corpus_strategy()) {
        let hasher = Xash::new(HashSize::B128);
        let seq = IndexBuilder::new(hasher).build(&corpus);
        let par = IndexBuilder::new(hasher).parallel(3).build(&corpus);
        prop_assert_eq!(seq.num_postings(), par.num_postings());
        for (v, pl) in seq.iter_values() {
            prop_assert_eq!(par.posting_list(v), Some(pl));
        }
        let _ = TableId(0);
    }
}
