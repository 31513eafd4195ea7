//! Acceptance checks for the segment format on a generated Zipf lake:
//! compression against the fixed-width size model, cold-mode result
//! identity, and the serving-mode memory model. (Timing-based claims live in the `postings_codec` bench, which
//! reports them without asserting — CI machines are too noisy for that.)

use mate_core::MateDiscovery;
use mate_hash::{HashSize, Xash};
use mate_index::{persist, IndexBuilder};
use mate_lake::{StandardLakes, WorkloadScale};

#[test]
fn v2_segments_meet_size_and_identity_acceptance() {
    let lakes = StandardLakes::build(WorkloadScale::Smoke, 42);
    let hasher = Xash::new(HashSize::B128);

    for corpus in [&lakes.webtables, &lakes.opendata, &lakes.school] {
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

        // Both loaders agree on the segment bytes; cold mode holds no
        // decoded posting state on the heap (zero-copy segment serving).
        let hot = persist::index_from_bytes(seg.clone()).unwrap();
        let cold = persist::cold_index_from_bytes(seg).unwrap();
        assert_eq!(hot.num_postings(), index.num_postings());
        assert_eq!(cold.num_postings(), index.num_postings());
        let cold_stats = cold.stats();
        assert_eq!(cold_stats.heap_postings_bytes, 0);
        assert!(cold_stats.on_disk_postings_bytes > 0);
        assert!(index.stats().heap_postings_bytes > 0);
    }

    // Cold-mode discovery returns identical top-k results to the hot arena
    // store on real query workloads (byte-identical scores and order).
    for (set, corpus) in lakes.iter_sets().take(3) {
        let index = IndexBuilder::new(hasher).build(corpus);
        let cold = persist::cold_index_from_bytes(persist::index_to_bytes(&index)).unwrap();
        for q in set.queries.iter().take(2) {
            let hot = MateDiscovery::new(corpus, &index, &hasher).discover(&q.table, &q.key, 10);
            let coldr = MateDiscovery::cold(corpus, &cold, &hasher).discover(&q.table, &q.key, 10);
            assert_eq!(hot.top_k, coldr.top_k, "set {}", set.name);
        }
    }
}
