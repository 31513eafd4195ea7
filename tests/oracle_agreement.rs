//! Property tests: every discovery system agrees with the brute-force
//! oracle on random lakes, and super keys never drop a joinable row.

use mate::baselines::{oracle_topk, DiscoverySystem, McrDiscovery, ScrDiscovery};
use mate::lake::QuerySpec;
use mate::prelude::*;
use proptest::prelude::*;

/// Builds a small random lake from proptest-chosen parameters.
fn build(
    seed: u64,
    rows: usize,
    card: usize,
    key_size: usize,
) -> (Corpus, mate::lake::GeneratedQuery) {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), seed));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows,
        key_size,
        payload_cols: 2,
        column_cardinality: card,
        column_cardinalities: None,
        joinable_tables: 3,
        fp_tables: 6,
        share_range: (0.2, 0.9),
        duplication: (1, 2),
        fp_rows: (5, 15),
        hard_fp_fraction: 0.15,
        noise_rows: (3, 10),
    };
    let query = generator.generate_query(&mut corpus, &spec);
    generator.generate_noise(&mut corpus, 40);
    (corpus, query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// MATE's top-k joinability scores equal the exhaustive ground truth.
    #[test]
    fn mate_matches_oracle(seed in 0u64..10_000, rows in 5usize..40, key_size in 1usize..4) {
        let (corpus, query) = build(seed, rows, 8, key_size);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);
        let mate = MateDiscovery::new(&corpus, &index, &hasher)
            .discover(&query.table, &query.key, 5);
        let oracle = oracle_topk(&corpus, &query.table, &query.key, 5);

        let mate_scores: Vec<u64> = mate.top_k.iter().map(|t| t.joinability).collect();
        let oracle_scores: Vec<u64> = oracle.iter().map(|t| t.joinability).collect();
        prop_assert_eq!(mate_scores, oracle_scores);
    }

    /// SCR and MCR agree with MATE on the returned scores.
    #[test]
    fn systems_agree(seed in 0u64..10_000, rows in 5usize..30) {
        let (corpus, query) = build(seed, rows, 6, 2);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);

        let mate = MateDiscovery::new(&corpus, &index, &hasher)
            .discover(&query.table, &query.key, 5);
        let scr = ScrDiscovery::new(&corpus, &index, &hasher)
            .discover(&query.table, &query.key, 5);
        let mcr = McrDiscovery::new(&corpus, &index)
            .discover(&query.table, &query.key, 5);

        prop_assert_eq!(&mate.top_k, &scr.top_k);
        let mate_scores: Vec<u64> = mate.top_k.iter().map(|t| t.joinability).collect();
        let mcr_scores: Vec<u64> = mcr.top_k.iter().map(|t| t.joinability).collect();
        prop_assert_eq!(mate_scores, mcr_scores);
    }

    /// The no-false-negatives lemma (§6.3) at the structural level: every
    /// value subset of a row is covered by the row's super key, for every
    /// hash function.
    #[test]
    fn superkey_never_misses(values in proptest::collection::vec("[a-z0-9 ]{0,20}", 1..8)) {
        use mate::hash::{superkey_dyn, RowHasher};
        let normalized: Vec<String> =
            values.iter().map(|v| mate::table::normalize(v)).collect();
        let refs: Vec<&str> = normalized.iter().map(String::as_str).collect();

        let hashers: Vec<Box<dyn RowHasher>> = vec![
            Box::new(Xash::new(HashSize::B128)),
            Box::new(Xash::new(HashSize::B512)),
            Box::new(mate::hash::BloomFilterHasher::new(HashSize::B128, 7)),
            Box::new(mate::hash::LessHashBloomFilter::new(HashSize::B128, 7)),
            Box::new(mate::hash::HashTableHasher::new(HashSize::B128)),
            Box::new(mate::hash::Md5Hasher::new(HashSize::B128)),
            Box::new(mate::hash::SimHashHasher::new(HashSize::B128)),
        ];
        for hasher in &hashers {
            let sk = superkey_dyn(hasher.as_ref(), &refs);
            // Any combination of the row's values must be covered.
            for a in &refs {
                for b in &refs {
                    let mut key = hasher.hash_value(a);
                    key.or_assign(&hasher.hash_value(b));
                    prop_assert!(
                        key.covered_by(sk.words()),
                        "{} missed ({a:?}, {b:?})",
                        hasher.name()
                    );
                }
            }
        }
    }

    /// Discovery-level no-false-negatives: the filtered engine returns the
    /// same score set as the engine with filtering disabled.
    #[test]
    fn filtering_is_lossless(seed in 0u64..10_000) {
        let (corpus, query) = build(seed, 20, 8, 2);
        let hasher = Xash::new(HashSize::B128);
        let index = IndexBuilder::new(hasher).build(&corpus);

        let with = MateDiscovery::new(&corpus, &index, &hasher)
            .discover(&query.table, &query.key, 5);
        let without = MateDiscovery::with_config(
            &corpus,
            &index,
            &hasher,
            MateConfig { row_filtering: false, table_filtering: false, ..Default::default() },
        )
        .discover(&query.table, &query.key, 5);

        prop_assert_eq!(with.top_k, without.top_k);
    }
}

/// A candidate table longer than the row filter's dense stamp range
/// (16 Ki rows): past row 16 Ki, every row holding a query key repeats each
/// key value across two columns, so the filter must deduplicate those rows
/// through its far stamps. Hot and paged cold discovery agree with each
/// other and with brute force on the top-k and on the row-filter checks.
#[test]
fn long_candidate_table_matches_oracle() {
    use mate::index::{persist, ColdPostingStore};
    use mate::storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
    use mate::storage::{SegmentReader, StdVfs};
    use std::sync::Arc;

    let (mut corpus, query) = build(11, 12, 8, 2);
    let q = &query.table;
    let key_rows: Vec<RowId> = (0..q.num_rows())
        .map(RowId::from)
        .filter(|&r| query.key.iter().all(|&c| !q.cell(r, c).is_empty()))
        .collect();
    let mut long = TableBuilder::new("long", ["a", "b", "c", "d", "e"]);
    for r in 0..20_000usize {
        let pad = format!("pad-{}", r % 101);
        long = if r >= 16_400 && r % 7 == 0 {
            let k = key_rows[(r / 7) % key_rows.len()];
            let first = q.cell(k, query.key[0]);
            // Odd rows carry only the first key value: filter candidates
            // that cannot join.
            let second = if r % 2 == 0 {
                q.cell(k, query.key[1])
            } else {
                "no-match"
            };
            long.row([first, first, second, second, &pad])
        } else {
            long.row([pad.as_str(), "pad", "pad", "pad", "pad"])
        };
    }
    let long_id = corpus.add_table(long.build());

    let hasher = Xash::new(HashSize::B128);
    let index = IndexBuilder::new(hasher).build(&corpus);
    let bytes = persist::index_to_bytes(&index);
    let path = std::env::temp_dir().join(format!("mate-oracle-long-{}.seg", std::process::id()));
    std::fs::write(&path, &bytes).unwrap();
    let cache = Arc::new(PageCache::new(
        Arc::new(StdVfs),
        DEFAULT_PAGE_SIZE,
        1 << 20,
        &Arc::new(mate::obs::Obs::new()),
    ));
    cache.register_segment(0, &path);
    let cold: ColdPostingStore = SegmentReader::open(bytes)
        .and_then(|seg| persist::read_cold_store_paged(&seg, &cache, 0))
        .unwrap();

    // No table pruning: every candidate's rows are filter-checked, so the
    // check count has a closed form.
    let config = MateConfig {
        table_filtering: false,
        ..Default::default()
    };
    let hot = MateDiscovery::with_config(&corpus, &index, &hasher, config.clone())
        .discover(q, &query.key, 5);
    let coldr = MateDiscovery::from_parts(&corpus, &cold, index.superkeys(), &hasher, config)
        .discover(q, &query.key, 5);
    let _ = std::fs::remove_file(&path);

    let oracle = oracle_topk(&corpus, q, &query.key, 5);
    let scores =
        |r: &[mate::core::TableResult]| r.iter().map(|t| t.joinability).collect::<Vec<_>>();
    assert_eq!(scores(&hot.top_k), scores(&oracle));
    assert_eq!(hot.top_k, coldr.top_k);
    assert!(
        hot.top_k.iter().any(|t| t.table == long_id),
        "{:?}",
        hot.top_k
    );

    // Brute force: each key row is checked once against every candidate
    // row holding its initial-column value, in however many columns.
    let init = hot.stats.initial_column.expect("initial column");
    let expected: usize = corpus
        .iter()
        .map(|(_, t)| {
            key_rows
                .iter()
                .map(|&k| {
                    let v = q.cell(k, init);
                    (0..t.num_rows())
                        .filter(|&r| t.row_iter(RowId::from(r)).any(|c| c == v))
                        .count()
                })
                .sum::<usize>()
        })
        .sum();
    assert_eq!(hot.stats.rows_filter_checked, expected);
    assert_eq!(coldr.stats.rows_filter_checked, expected);
}
