//! Acceptance checks for the segment format on a generated Zipf lake:
//! compression against the fixed-width size model, paged cold-mode result
//! identity, and the serving-mode memory model. (Timing-based claims live
//! in the `postings_codec` bench, which reports them without asserting —
//! CI machines are too noisy for that.)

use mate_core::{MateConfig, MateDiscovery};
use mate_hash::{HashSize, Xash};
use mate_index::{persist, ColdPostingStore, IndexBuilder};
use mate_lake::{StandardLakes, WorkloadScale};
use mate_obs::Obs;
use mate_storage::pager::{PageCache, DEFAULT_PAGE_SIZE};
use mate_storage::{SegmentReader, StdVfs};
use std::sync::Arc;

/// Runs `f` on `seg` opened through the paged opener, as the engine serves
/// a segment: written to a temp file registered with a fresh page cache.
fn with_paged<R>(
    seg: &bytes::Bytes,
    tag: &str,
    f: impl FnOnce(&ColdPostingStore, &PageCache) -> R,
) -> R {
    let path = std::env::temp_dir().join(format!(
        "mate-codec-acceptance-{}-{tag}.seg",
        std::process::id()
    ));
    std::fs::write(&path, seg).unwrap();
    let cache = Arc::new(PageCache::new(
        Arc::new(StdVfs),
        DEFAULT_PAGE_SIZE,
        1 << 20,
        &Arc::new(Obs::new()),
    ));
    cache.register_segment(0, &path);
    let store = SegmentReader::open(seg.clone())
        .and_then(|s| persist::read_cold_store_paged(&s, &cache, 0))
        .unwrap();
    let r = f(&store, &cache);
    let _ = std::fs::remove_file(&path);
    r
}

#[test]
fn v2_segments_meet_size_and_identity_acceptance() {
    use mate_index::PostingSource;
    let lakes = StandardLakes::build(WorkloadScale::Smoke, 42);
    let hasher = Xash::new(HashSize::B128);

    for (name, corpus) in [
        ("webtables", &lakes.webtables),
        ("opendata", &lakes.opendata),
        ("school", &lakes.school),
    ] {
        let index = IndexBuilder::new(hasher).build(corpus);
        let seg = persist::index_to_bytes(&index);
        let stats = index.stats();
        let fixed_width =
            stats.posting_bytes + stats.superkey_bytes_per_row + stats.value_arena_bytes;

        // ≥ 2x smaller than the fixed-width representation (12 B/posting +
        // raw super-key words + value text).
        assert!(
            seg.len() * 2 <= fixed_width,
            "segment ({}) must be ≥ 2x smaller than fixed-width ({fixed_width})",
            seg.len()
        );

        // Both loaders agree on the segment bytes; the paged open decodes
        // no posting and reads nothing through the page cache — only the
        // small directories stay resident.
        let hot = persist::index_from_bytes(seg.clone()).unwrap();
        assert_eq!(hot.num_postings(), index.num_postings());
        with_paged(&seg, name, |cold, cache| {
            assert_eq!(cold.num_postings(), index.num_postings());
            let pager = cache.stats();
            assert_eq!((pager.misses, pager.resident_bytes), (0, 0));
            assert!(cold.directory_bytes() * 4 < seg.len());
        });
        assert!(index.stats().heap_postings_bytes > 0);
    }

    // Paged cold-mode discovery returns identical top-k results to the hot
    // arena store on real query workloads (byte-identical scores and
    // order).
    for (set, corpus) in lakes.iter_sets().take(3) {
        let index = IndexBuilder::new(hasher).build(corpus);
        let seg = persist::index_to_bytes(&index);
        with_paged(&seg, &format!("set-{}", set.name), |cold, _| {
            for q in set.queries.iter().take(2) {
                let hot =
                    MateDiscovery::new(corpus, &index, &hasher).discover(&q.table, &q.key, 10);
                let coldr = MateDiscovery::from_parts(
                    corpus,
                    cold,
                    index.superkeys(),
                    &hasher,
                    MateConfig::default(),
                )
                .discover(&q.table, &q.key, 10);
                assert_eq!(hot.top_k, coldr.top_k, "set {}", set.name);
            }
        });
    }
}
