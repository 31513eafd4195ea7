//! The [`InvertedIndex`]: value → posting list, plus the super-key store.

use crate::posting::PostingEntry;
use crate::store::PostingStore;
use crate::superkeys::SuperKeyStore;
use mate_hash::HashSize;
use mate_table::{RowId, TableId};

/// The MATE index: a single-attribute inverted index over all cell values of
/// a corpus, extended with one super key per row (§5 of the paper).
///
/// Postings live in a flattened, arena-backed [`PostingStore`] — one string
/// arena for all distinct values and one contiguous entry buffer with
/// per-value ranges — instead of a hash map of per-value `Vec`s; see the
/// [`crate::store`] module docs for the layout and why it is faster.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    pub(crate) store: PostingStore,
    pub(crate) superkeys: SuperKeyStore,
    pub(crate) hasher_name: String,
}

impl InvertedIndex {
    /// Creates an empty index for the given hash size.
    pub fn empty(size: HashSize, hasher_name: impl Into<String>) -> Self {
        InvertedIndex {
            store: PostingStore::new(),
            superkeys: SuperKeyStore::new(size),
            hasher_name: hasher_name.into(),
        }
    }

    /// Posting list of `value` (normalized), or `None` if the value does not
    /// occur in the corpus.
    #[inline]
    pub fn posting_list(&self, value: &str) -> Option<&[PostingEntry]> {
        self.store.posting_list(value)
    }

    /// The flattened posting storage.
    pub fn store(&self) -> &PostingStore {
        &self.store
    }

    /// Super key of `(table, row)` as a word slice, ready for
    /// [`mate_hash::covers`].
    #[inline]
    pub fn superkey(&self, table: TableId, row: RowId) -> &[u64] {
        self.superkeys.key(table, row)
    }

    /// The super-key store.
    pub fn superkeys(&self) -> &SuperKeyStore {
        &self.superkeys
    }

    /// Hash size of the super keys.
    pub fn hash_size(&self) -> HashSize {
        self.superkeys.hash_size()
    }

    /// Name of the hash function that produced the super keys.
    pub fn hasher_name(&self) -> &str {
        &self.hasher_name
    }

    /// Number of distinct indexed values.
    pub fn num_values(&self) -> usize {
        self.store.num_values()
    }

    /// Total number of posting entries.
    pub fn num_postings(&self) -> usize {
        self.store.num_postings()
    }

    /// Iterates `(value, posting list)` pairs in first-indexed order.
    pub fn iter_values(&self) -> impl Iterator<Item = (&str, &[PostingEntry])> {
        self.store.iter()
    }

    /// Produces a copy of this index whose super keys are recomputed with a
    /// different hash function, reusing the posting lists unchanged.
    ///
    /// Posting lists are independent of the hash function, so evaluation
    /// sweeps over hashers (Tables 2–3 of the paper) only pay for super-key
    /// regeneration (the posting clone is one contiguous memcpy per buffer).
    /// `corpus` must be the corpus this index was built from.
    pub fn rehash(&self, corpus: &mate_table::Corpus, hasher: &dyn mate_hash::RowHasher) -> Self {
        let mut superkeys = SuperKeyStore::new(hasher.hash_size());
        // Values repeat heavily across a lake (Zipf); hash each distinct
        // value once, keyed by its interned id.
        let mut cache: Vec<Option<mate_hash::HashBits>> = vec![None; self.store.num_interned()];
        for (tid, table) in corpus.iter() {
            superkeys.push_table(table.num_rows());
            for r in 0..table.num_rows() {
                let row = RowId::from(r);
                let mut sk = mate_hash::HashBits::zero(hasher.hash_size());
                for v in table.row_iter(row) {
                    if !v.is_empty() {
                        let h = match self.store.lookup(v) {
                            Some(vid) => {
                                *cache[vid as usize].get_or_insert_with(|| hasher.hash_value(v))
                            }
                            // Not in the index (cannot happen for a matching
                            // corpus, but stay total): hash directly.
                            None => hasher.hash_value(v),
                        };
                        sk.or_assign(&h);
                    }
                }
                superkeys.set(tid, row, sk.words());
            }
        }
        InvertedIndex {
            store: self.store.clone(),
            superkeys,
            hasher_name: hasher.name().to_string(),
        }
    }

    /// Size/shape statistics (reported by the §7.1 index-generation bench).
    pub fn stats(&self) -> IndexStats {
        let postings = self.num_postings();
        let key_bytes = self.hash_size().bits() / 8;
        IndexStats {
            num_values: self.num_values(),
            num_postings: postings,
            num_superkeys: self.superkeys.total_keys(),
            posting_bytes: postings * std::mem::size_of::<PostingEntry>(),
            posting_store_bytes: self.store.flat_bytes(),
            posting_map_bytes: self.store.per_value_layout_bytes(),
            value_arena_bytes: self.store.arena_bytes(),
            heap_postings_bytes: self.store.flat_bytes(),
            superkey_bytes_per_row: self.superkeys.payload_bytes(),
            superkey_bytes_per_cell: postings * key_bytes,
            hash_bits: self.hash_size().bits(),
        }
    }
}

/// Shape and memory statistics of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Distinct indexed values.
    pub num_values: usize,
    /// Total posting entries (one per non-empty cell).
    pub num_postings: usize,
    /// Stored super keys (one per row — the paper's efficient layout).
    pub num_superkeys: usize,
    /// Bytes of posting-entry payload.
    pub posting_bytes: usize,
    /// Total bytes of the flattened posting store (arena + spans + ranges +
    /// lookup table + entry buffer) — what this index holds in memory.
    pub posting_store_bytes: usize,
    /// Estimated bytes of the seed's per-value layout
    /// (`FxHashMap<Box<str>, Vec<PostingEntry>>`) for the same content, for
    /// the index-generation report's memory-footprint comparison.
    pub posting_map_bytes: usize,
    /// Bytes of distinct value text in the string arena.
    pub value_arena_bytes: usize,
    /// Bytes of decoded posting state resident on the heap (the flattened
    /// store).
    pub heap_postings_bytes: usize,
    /// Super-key bytes in the per-row layout (what this index stores).
    pub superkey_bytes_per_row: usize,
    /// Super-key bytes a per-cell layout would need (the naive layout of
    /// §7.1, where each PL item carries its own copy).
    pub superkey_bytes_per_cell: usize,
    /// Hash size in bits.
    pub hash_bits: usize,
}

/// Mirrors every field of an [`IndexStats`] into `obs` as gauges under
/// the `index_stats.` prefix, so the pull-only struct joins the unified
/// metric catalog (as `export_discovery_stats` does for discovery runs).
pub fn export_index_stats(obs: &mate_obs::Obs, stats: &IndexStats) {
    let pairs: [(&str, usize); 11] = [
        ("num_values", stats.num_values),
        ("num_postings", stats.num_postings),
        ("num_superkeys", stats.num_superkeys),
        ("posting_bytes", stats.posting_bytes),
        ("posting_store_bytes", stats.posting_store_bytes),
        ("posting_map_bytes", stats.posting_map_bytes),
        ("value_arena_bytes", stats.value_arena_bytes),
        ("heap_postings_bytes", stats.heap_postings_bytes),
        ("superkey_bytes_per_row", stats.superkey_bytes_per_row),
        ("superkey_bytes_per_cell", stats.superkey_bytes_per_cell),
        ("hash_bits", stats.hash_bits),
    ];
    for (name, v) in pairs {
        obs.gauge(&format!("index_stats.{name}")).set(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_index() {
        let idx = InvertedIndex::empty(HashSize::B128, "Xash");
        assert_eq!(idx.num_values(), 0);
        assert_eq!(idx.num_postings(), 0);
        assert!(idx.posting_list("anything").is_none());
        assert_eq!(idx.hasher_name(), "Xash");
        assert_eq!(idx.hash_size(), HashSize::B128);
    }

    #[test]
    fn rehash_swaps_hasher_keeps_postings() {
        use crate::builder::IndexBuilder;
        use mate_hash::{BloomFilterHasher, RowHasher, Xash};
        use mate_table::TableBuilder;

        let mut corpus = mate_table::Corpus::new();
        corpus.add_table(
            TableBuilder::new("t", ["a", "b"])
                .row(["x", "y"])
                .row(["z", "w"])
                .build(),
        );
        let xash = Xash::new(HashSize::B128);
        let idx = IndexBuilder::new(xash).build(&corpus);
        let bf = BloomFilterHasher::new(HashSize::B256, 4);
        let re = idx.rehash(&corpus, &bf);

        assert_eq!(re.hasher_name(), "BF");
        assert_eq!(re.hash_size(), HashSize::B256);
        assert_eq!(re.num_postings(), idx.num_postings());
        for (v, pl) in idx.iter_values() {
            assert_eq!(re.posting_list(v), Some(pl));
        }
        // Rehash result equals a fresh build with the new hasher.
        let fresh = IndexBuilder::new(bf).build(&corpus);
        for (tid, table) in corpus.iter() {
            for r in 0..table.num_rows() {
                assert_eq!(
                    re.superkey(tid, RowId::from(r)),
                    fresh.superkey(tid, RowId::from(r))
                );
            }
        }
        let _ = bf.hash_value("x");
    }

    #[test]
    fn stats_of_empty() {
        let idx = InvertedIndex::empty(HashSize::B256, "BF");
        let s = idx.stats();
        assert_eq!(s.num_values, 0);
        assert_eq!(s.hash_bits, 256);
        assert_eq!(s.superkey_bytes_per_row, 0);
        assert_eq!(s.value_arena_bytes, 0);
    }

    #[test]
    fn stats_memory_comparison() {
        use crate::builder::IndexBuilder;
        use mate_hash::Xash;
        use mate_table::TableBuilder;

        let mut corpus = mate_table::Corpus::new();
        let mut tb = TableBuilder::new("t", ["a", "b"]);
        for i in 0..200 {
            tb = tb.row([format!("left-{}", i % 37), format!("right-{i}")]);
        }
        corpus.add_table(tb.build());
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&corpus);
        let s = idx.stats();
        assert!(s.posting_store_bytes > 0);
        assert!(s.value_arena_bytes > 0);
        assert!(
            s.posting_store_bytes < s.posting_map_bytes,
            "flat layout should be smaller: {} vs {}",
            s.posting_store_bytes,
            s.posting_map_bytes
        );
    }
}
