//! Property tests: corpus/index persistence round-trips over random corpora.

use mate_hash::{HashSize, Xash};
use mate_index::{persist, IndexBuilder};
use mate_table::{Column, Corpus, RowId, Table, TableId};
use proptest::prelude::*;

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

    /// Arbitrary bytes never panic the index loader (hot or cold).
    #[test]
    fn arbitrary_bytes_never_panic(data: Vec<u8>) {
        let _ = persist::index_from_bytes(bytes::Bytes::from(data.clone()));
        let _ = persist::cold_index_from_bytes(bytes::Bytes::from(data.clone()));
        let _ = persist::corpus_from_bytes(bytes::Bytes::from(data));
    }

    /// The cold store serves exactly the flat store's content: every value
    /// resolves to an identical list (via full decode and via ranged
    /// probes), and unknown values miss.
    #[test]
    fn cold_store_equals_flat_store(corpus in corpus_strategy()) {
        use mate_index::{PostingSource, ProbeCounters, ProbeScratch};
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let cold = persist::cold_index_from_bytes(persist::index_to_bytes(&index)).unwrap();
        prop_assert_eq!(index.num_values(), cold.num_values());
        prop_assert_eq!(index.num_postings(), cold.num_postings());
        let mut scratch = ProbeScratch::new();
        let mut counters = ProbeCounters::default();
        for (v, pl) in index.iter_values() {
            let list = cold.store().find_list(v, &mut scratch).expect("value must resolve");
            prop_assert_eq!(list.len as usize, pl.len());
            let mut got = Vec::new();
            cold.store().collect_run(list, 0, list.len, &mut scratch, &mut got, &mut counters);
            prop_assert_eq!(got.as_slice(), pl);
            // Table runs tile the list.
            let mut total = 0u32;
            cold.store().table_runs(list, &mut scratch, &mut |_, n| total += n);
            prop_assert_eq!(total, list.len);
        }
        prop_assert!(cold.store().find_list("\u{1}never-a-cell-value", &mut scratch).is_none());
        // Thawing the cold index reproduces the hot index.
        let thawed = cold.thaw();
        for (v, pl) in index.iter_values() {
            prop_assert_eq!(thawed.posting_list(v), Some(pl));
        }
        for (tid, t) in corpus.iter() {
            for r in 0..t.num_rows() {
                prop_assert_eq!(
                    index.superkey(tid, RowId::from(r)),
                    thawed.superkey(tid, RowId::from(r))
                );
            }
        }
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
