//! Incremental index maintenance (§5.4 of the paper).
//!
//! The paper enumerates the edit types and their index consequences:
//!
//! | Edit | Index work |
//! |---|---|
//! | insert table | postings for all cells + one super key per row |
//! | insert row | postings for the row + one new super key |
//! | insert column | postings + OR each cell hash into its row's super key |
//! | update cell | swap posting entry; **full re-hash** of the row's super key |
//! | delete table | drop its postings; tombstone its super keys |
//! | delete row | drop its postings; drop its super key |
//! | delete column | drop its postings; **re-hash all row super keys** |
//!
//! OR-aggregation is not invertible, which is why cell updates and column
//! deletions re-hash whole rows while insertions are cheap — the asymmetry
//! the table above (and our unit tests) make explicit.
//!
//! [`IndexUpdater`] borrows the corpus and the index together so the two can
//! never drift apart; every method keeps the invariant "index == rebuild from
//! corpus" (property-tested in `tests/`).
//!
//! Updates require the hot [`InvertedIndex`]; cold segments
//! ([`crate::cold::ColdPostingStore`]) are read-only by design. A saved
//! index that must accept edits is loaded hot
//! ([`crate::persist::load_index`]), mutated, and re-persisted; the
//! engine ([`crate::engine::Engine`]) instead routes edits to its memtable.

use crate::index::InvertedIndex;
use crate::posting::PostingEntry;
use crate::store::PostingStore;
use crate::superkeys::SuperKeyStore;
use mate_hash::{HashBits, RowHasher};
use mate_table::{ColId, Column, Corpus, RowId, Table, TableId};

/// Applies edits to a corpus and its index in lock-step: one posting store
/// and one super-key store (the halves of an [`InvertedIndex`], or the
/// engine's memtable and global super keys).
#[derive(Debug)]
pub struct IndexUpdater<'a, H: RowHasher> {
    corpus: &'a mut Corpus,
    store: &'a mut PostingStore,
    superkeys: &'a mut SuperKeyStore,
    hasher: H,
    /// Hash of each `store` value id, filled on first use; `None` hashes
    /// every cell (see [`cached_hash`]).
    hashes: Option<&'a mut Vec<Option<HashBits>>>,
}

impl<'a, H: RowHasher> IndexUpdater<'a, H> {
    /// Creates an updater. The hasher must match the one the index was built
    /// with (checked by name and hash size).
    pub fn new(corpus: &'a mut Corpus, index: &'a mut InvertedIndex, hasher: H) -> Self {
        assert_eq!(
            hasher.hash_size(),
            index.hash_size(),
            "hasher size does not match index"
        );
        assert_eq!(
            hasher.name(),
            index.hasher_name(),
            "hasher kind does not match index"
        );
        IndexUpdater::from_parts(corpus, &mut index.store, &mut index.superkeys, hasher, None)
    }

    /// Creates an updater over a posting store and a super-key store held
    /// apart (the engine's memtable). The engine validates hasher
    /// compatibility at open, so no check here. `hashes`, when given,
    /// caches the hash of each `store` value id across calls: it must be
    /// empty or have been filled against this same store only.
    pub(crate) fn from_parts(
        corpus: &'a mut Corpus,
        store: &'a mut PostingStore,
        superkeys: &'a mut SuperKeyStore,
        hasher: H,
        hashes: Option<&'a mut Vec<Option<HashBits>>>,
    ) -> Self {
        IndexUpdater {
            corpus,
            store,
            superkeys,
            hasher,
            hashes,
        }
    }

    /// Inserts a new table into the corpus and indexes it.
    pub fn insert_table(&mut self, table: Table) -> TableId {
        let tid = self.corpus.add_table(table);
        let num_rows = self.corpus.table(tid).num_rows();
        self.superkeys.push_table(num_rows);
        for r in 0..num_rows {
            self.index_row(tid, RowId::from(r));
        }
        tid
    }

    /// Appends a row to an existing table and indexes it.
    pub fn insert_row(&mut self, tid: TableId, cells: &[&str]) -> RowId {
        self.corpus.table_mut(tid).push_row(cells);
        let row = self.superkeys.push_row(tid);
        debug_assert_eq!(row.index(), self.corpus.table(tid).num_rows() - 1);
        self.index_row(tid, row);
        row
    }

    /// Appends a column: adds postings and ORs each cell hash into the
    /// existing super keys (cheap — no re-hash needed, §5.4).
    pub fn insert_column(&mut self, tid: TableId, column: Column) -> ColId {
        let col = ColId::from(self.corpus.table(tid).num_cols());
        self.corpus.table_mut(tid).push_column(column);
        for (r, value) in self.corpus.table(tid).column(col).iter().enumerate() {
            if value.is_empty() {
                continue;
            }
            let row = RowId::from(r);
            let vid = insert_posting(self.store, value, PostingEntry::new(tid, col, row));
            let h = cached_hash(&mut self.hashes, &self.hasher, vid, value);
            self.superkeys.or_into(tid, row, h.words());
        }
        col
    }

    /// Overwrites one cell: swaps the posting entry and re-hashes the whole
    /// row's super key (OR-aggregation is not invertible, §5.4).
    pub fn update_cell(&mut self, tid: TableId, row: RowId, col: ColId, raw: &str) {
        let old = self.corpus.table(tid).cell(row, col).to_string();
        self.corpus.table_mut(tid).set_cell(row, col, raw);
        let new = self.corpus.table(tid).cell(row, col);
        if old == new {
            return;
        }
        let entry = PostingEntry::new(tid, col, row);
        if !old.is_empty() {
            remove_posting(self.store, &old, entry);
        }
        if !new.is_empty() {
            insert_posting(self.store, new, entry);
        }
        self.rehash_row(tid, row);
    }

    /// Deletes a row (swap-remove). The last row of the table takes the
    /// deleted row's id; its postings are re-pointed accordingly.
    pub fn delete_row(&mut self, tid: TableId, row: RowId) {
        let table = self.corpus.table(tid);
        let last = RowId::from(table.num_rows() - 1);
        // 1. Remove postings of the victim row.
        for (ci, v) in table.row_iter(row).enumerate() {
            if !v.is_empty() {
                remove_posting(self.store, v, PostingEntry::new(tid, ci as u32, row));
            }
        }
        // 2. Re-point postings of the last row to the victim's id.
        if last != row {
            for (ci, v) in table.row_iter(last).enumerate() {
                if !v.is_empty() {
                    let old_e = PostingEntry::new(tid, ci as u32, last);
                    let new_e = PostingEntry::new(tid, ci as u32, row);
                    move_posting(self.store, v, old_e, new_e);
                }
            }
        }
        // 3. Mirror in corpus + super keys.
        self.corpus.table_mut(tid).swap_remove_row(row);
        self.superkeys.swap_remove_row(tid, row);
    }

    /// Deletes a whole table: removes its postings and tombstones its super
    /// keys. The `TableId` remains allocated (ids are positional); the
    /// corpus keeps an empty table under that id.
    pub fn delete_table(&mut self, tid: TableId) {
        let table = self.corpus.table(tid);
        for (ci, col) in table.columns().iter().enumerate() {
            for (ri, v) in col.iter().enumerate() {
                if !v.is_empty() {
                    remove_posting(self.store, v, PostingEntry::new(tid, ci as u32, ri as u32));
                }
            }
        }
        let name = table.name.clone();
        *self.corpus.table_mut(tid) = Table::new(name, vec![]);
        self.superkeys.clear_table(tid);
    }

    /// Deletes a column: removes its postings and re-hashes every row's super
    /// key (§5.4: "deleting a column ... triggering a rehashing of all rows").
    pub fn delete_column(&mut self, tid: TableId, col: ColId) {
        let table = self.corpus.table(tid);
        for (ri, v) in table.column(col).iter().enumerate() {
            if !v.is_empty() {
                remove_posting(self.store, v, PostingEntry::new(tid, col, RowId::from(ri)));
            }
        }
        // Columns right of `col` shift left by one: re-point their postings.
        for ci in col.index() + 1..table.num_cols() {
            for (ri, v) in table.column(ColId::from(ci)).iter().enumerate() {
                if v.is_empty() {
                    continue;
                }
                let old_e = PostingEntry::new(tid, ci as u32, RowId::from(ri));
                let new_e = PostingEntry::new(tid, (ci - 1) as u32, RowId::from(ri));
                move_posting(self.store, v, old_e, new_e);
            }
        }
        self.corpus.table_mut(tid).remove_column(col);
        for r in 0..self.corpus.table(tid).num_rows() {
            self.rehash_row(tid, RowId::from(r));
        }
    }

    /// Adds postings + super key for one (already present) corpus row.
    fn index_row(&mut self, tid: TableId, row: RowId) {
        for (ci, v) in self.corpus.table(tid).row_iter(row).enumerate() {
            if v.is_empty() {
                continue;
            }
            let vid = insert_posting(self.store, v, PostingEntry::new(tid, ci as u32, row));
            let h = cached_hash(&mut self.hashes, &self.hasher, vid, v);
            self.superkeys.or_into(tid, row, h.words());
        }
    }

    /// Recomputes the super key of a row from scratch.
    fn rehash_row(&mut self, tid: TableId, row: RowId) {
        let table = self.corpus.table(tid);
        let sk = self.hasher.superkey(table.row_iter(row));
        self.superkeys.set(tid, row, sk.words());
    }
}

/// The hash of `value`, whose store id is `vid`: from `cache` when there
/// is one (store ids are stable for a store's lifetime), else computed.
fn cached_hash<H: RowHasher>(
    cache: &mut Option<&mut Vec<Option<HashBits>>>,
    hasher: &H,
    vid: u32,
    value: &str,
) -> HashBits {
    let Some(cache) = cache else {
        return hasher.hash_value(value);
    };
    let i = vid as usize;
    if i >= cache.len() {
        cache.resize(i + 1, None);
    }
    *cache[i].get_or_insert_with(|| hasher.hash_value(value))
}

/// Adds `entry` to the run of `value`; returns the value's store id.
fn insert_posting(store: &mut PostingStore, value: &str, entry: PostingEntry) -> u32 {
    let vid = store.intern(value);
    store.insert_sorted(vid, entry);
    vid
}

fn remove_posting(store: &mut PostingStore, value: &str, entry: PostingEntry) {
    let Some(vid) = store.lookup(value) else {
        // panic-exempt: the WAL record being applied was validated against
        // the corpus when first appended, so a missing value here is an
        // index/corpus divergence (a logic bug). Returning an error instead
        // could let a replay skip the record and diverge from the live run.
        panic!("removing posting for unindexed value {value:?}");
    };
    // An emptied run stays interned (the arena is append-only) but reads as
    // absent through `posting_list`, matching the seed's map-removal
    // semantics.
    store.remove_sorted(vid, entry);
}

fn move_posting(store: &mut PostingStore, value: &str, old: PostingEntry, new: PostingEntry) {
    remove_posting(store, value, old);
    insert_posting(store, value, new);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;
    use mate_hash::{HashSize, Xash};
    use mate_table::TableBuilder;

    fn setup() -> (Corpus, InvertedIndex) {
        let mut c = Corpus::new();
        c.add_table(
            TableBuilder::new("t0", ["a", "b"])
                .row(["foo", "bar"])
                .row(["baz", "qux"])
                .build(),
        );
        let idx = IndexBuilder::new(Xash::new(HashSize::B128)).build(&c);
        (c, idx)
    }

    /// The fundamental invariant: after any edit sequence, the incrementally
    /// maintained index equals a fresh rebuild of the edited corpus.
    fn assert_matches_rebuild(corpus: &Corpus, index: &InvertedIndex) {
        let fresh = IndexBuilder::new(Xash::new(HashSize::B128)).build(corpus);
        assert_eq!(index.num_values(), fresh.num_values(), "value count");
        for (v, pl) in fresh.iter_values() {
            assert_eq!(index.posting_list(v), Some(pl), "postings of {v:?}");
        }
        for (tid, table) in corpus.iter() {
            for r in 0..table.num_rows() {
                assert_eq!(
                    index.superkey(tid, RowId::from(r)),
                    fresh.superkey(tid, RowId::from(r)),
                    "superkey {tid}/{r}"
                );
            }
        }
    }

    #[test]
    fn insert_table() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        let tid = u.insert_table(TableBuilder::new("t1", ["x"]).row(["foo"]).build());
        assert_eq!(tid, TableId(1));
        assert_eq!(idx.posting_list("foo").unwrap().len(), 2);
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn insert_row() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        let r = u.insert_row(TableId(0), &["new1", "bar"]);
        assert_eq!(r, RowId(2));
        assert_eq!(idx.posting_list("bar").unwrap().len(), 2);
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn insert_column_cheap_or() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.insert_column(TableId(0), Column::new("c", ["v1", "v2"]));
        assert!(idx.posting_list("v1").is_some());
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn update_cell_rehashes() {
        let (mut c, mut idx) = setup();
        let sk_before = idx.superkey(TableId(0), RowId(0)).to_vec();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.update_cell(TableId(0), RowId(0), ColId(0), "replacement");
        assert!(idx.posting_list("foo").is_none());
        assert!(idx.posting_list("replacement").is_some());
        assert_ne!(idx.superkey(TableId(0), RowId(0)), sk_before.as_slice());
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn update_cell_to_same_value_is_noop() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.update_cell(TableId(0), RowId(0), ColId(0), "FOO"); // normalizes to "foo"
        assert_eq!(idx.posting_list("foo").unwrap().len(), 1);
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn update_cell_to_empty() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.update_cell(TableId(0), RowId(0), ColId(0), "  ");
        assert!(idx.posting_list("foo").is_none());
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn delete_row_swaps_last() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.delete_row(TableId(0), RowId(0));
        assert!(idx.posting_list("foo").is_none());
        // baz (was row 1) is now row 0.
        assert_eq!(
            idx.posting_list("baz").unwrap(),
            &[PostingEntry::new(0u32, 0u32, 0u32)]
        );
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn delete_last_row() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.delete_row(TableId(0), RowId(1));
        assert!(idx.posting_list("baz").is_none());
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn delete_table_tombstones() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.delete_table(TableId(0));
        assert_eq!(idx.num_values(), 0);
        assert_eq!(c.table(TableId(0)).num_rows(), 0);
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn delete_column_repoints_and_rehashes() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        u.delete_column(TableId(0), ColId(0));
        assert!(idx.posting_list("foo").is_none());
        // "bar" moved from col 1 to col 0.
        assert_eq!(
            idx.posting_list("bar").unwrap(),
            &[PostingEntry::new(0u32, 0u32, 0u32)]
        );
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    fn edit_sequence_stays_consistent() {
        let (mut c, mut idx) = setup();
        let mut u = IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B128));
        let t1 = u.insert_table(TableBuilder::new("t1", ["x", "y"]).row(["p", "q"]).build());
        u.insert_row(t1, &["r", "s"]);
        u.update_cell(t1, RowId(0), ColId(1), "q2");
        u.insert_column(t1, Column::new("z", ["z1", "z2"]));
        u.delete_row(t1, RowId(0));
        u.delete_column(TableId(0), ColId(1));
        assert_matches_rebuild(&c, &idx);
    }

    #[test]
    #[should_panic(expected = "size does not match")]
    fn size_mismatch_rejected() {
        let (mut c, mut idx) = setup();
        IndexUpdater::new(&mut c, &mut idx, Xash::new(HashSize::B256));
    }

    #[test]
    #[should_panic(expected = "kind does not match")]
    fn hasher_kind_mismatch_rejected() {
        let (mut c, mut idx) = setup();
        IndexUpdater::new(
            &mut c,
            &mut idx,
            mate_hash::BloomFilterHasher::new(HashSize::B128, 4),
        );
    }
}
