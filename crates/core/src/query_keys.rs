//! Query-side super keys (Algorithm 1 line 6).
//!
//! For every query row, the discovery phase needs (a) the OR-aggregated hash
//! of its composite-key values and (b) a way to reach those rows from an
//! initial-column value in O(1). [`QueryKeyMap`] precomputes both: a
//! dictionary `initial-column value → [query rows]`, each row carrying its
//! key-combination super key and a *key-tuple id* (rows with identical key
//! tuples share an id, so joinability can count distinct tuples cheaply).

use mate_hash::fx::FxHashMap;
use mate_hash::{HashBits, RowHasher};
use mate_table::{ColId, RowId, Table};

/// One query row reachable from an initial-column value.
#[derive(Debug, Clone)]
pub struct QueryRowKey {
    /// The query-table row.
    pub row: RowId,
    /// Id shared by all query rows with the same composite-key tuple.
    pub tuple_id: u32,
    /// OR-aggregation of the hashes of the row's key values.
    pub superkey: HashBits,
}

/// Maps initial-column values to the query rows they occur in. Borrows the
/// query table's cells as keys.
#[derive(Debug)]
pub struct QueryKeyMap<'q> {
    map: FxHashMap<&'q str, Vec<QueryRowKey>>,
    num_tuples: u32,
    num_key_rows: usize,
}

impl<'q> QueryKeyMap<'q> {
    /// Builds the map.
    ///
    /// Rows in which any key column is empty are skipped: they can never form
    /// a complete composite-key match. The hasher runs once per distinct key
    /// value, and a super key is OR-aggregated once per distinct key tuple.
    pub fn build(
        query: &'q Table,
        q_cols: &[ColId],
        initial_col: ColId,
        hasher: &dyn RowHasher,
    ) -> Self {
        let mut map: FxHashMap<&'q str, Vec<QueryRowKey>> = FxHashMap::default();
        let mut tuple_ids: FxHashMap<Vec<&'q str>, u32> = FxHashMap::default();
        // Super key per tuple id; hash per distinct value.
        let mut tuple_keys: Vec<HashBits> = Vec::new();
        let mut value_hashes: FxHashMap<&'q str, HashBits> = FxHashMap::default();
        let mut tuple: Vec<&'q str> = Vec::with_capacity(q_cols.len());
        let mut num_key_rows = 0usize;

        'rows: for r in 0..query.num_rows() {
            let row = RowId::from(r);
            tuple.clear();
            for &q in q_cols {
                let v = query.cell(row, q);
                if v.is_empty() {
                    continue 'rows;
                }
                tuple.push(v);
            }
            let tuple_id = match tuple_ids.get(tuple.as_slice()) {
                Some(&id) => id,
                None => {
                    let id = tuple_keys.len() as u32;
                    let mut sk = HashBits::zero(hasher.hash_size());
                    for &v in &tuple {
                        sk.or_assign(
                            value_hashes
                                .entry(v)
                                .or_insert_with(|| hasher.hash_value(v)),
                        );
                    }
                    tuple_keys.push(sk);
                    tuple_ids.insert(tuple.clone(), id);
                    id
                }
            };

            num_key_rows += 1;
            map.entry(query.cell(row, initial_col))
                .or_default()
                .push(QueryRowKey {
                    row,
                    tuple_id,
                    superkey: tuple_keys[tuple_id as usize],
                });
        }
        QueryKeyMap {
            num_tuples: tuple_keys.len() as u32,
            map,
            num_key_rows,
        }
    }

    /// Query rows whose initial-column cell equals `value`.
    #[inline]
    pub fn rows_for(&self, value: &str) -> &[QueryRowKey] {
        self.map.get(value).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct composite-key tuples among usable query rows —
    /// the maximum possible joinability.
    pub fn num_distinct_tuples(&self) -> u32 {
        self.num_tuples
    }

    /// Number of query rows with a complete key.
    pub fn num_key_rows(&self) -> usize {
        self.num_key_rows
    }

    /// Distinct initial-column values with at least one usable row.
    pub fn num_initial_values(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_hash::{HashSize, Xash};
    use mate_table::TableBuilder;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn query() -> Table {
        TableBuilder::new("d", ["f", "l", "c"])
            .row(["muhammad", "lee", "us"])
            .row(["ansel", "adams", "uk"])
            .row(["muhammad", "lee", "us"]) // duplicate tuple
            .row(["muhammad", "", "de"]) // incomplete key
            .build()
    }

    #[test]
    fn groups_by_initial_value() {
        let q = query();
        let h = Xash::new(HashSize::B128);
        let m = QueryKeyMap::build(&q, &[ColId(0), ColId(1), ColId(2)], ColId(0), &h);
        assert_eq!(m.rows_for("muhammad").len(), 2); // row 3 skipped (empty l)
        assert_eq!(m.rows_for("ansel").len(), 1);
        assert_eq!(m.rows_for("nobody").len(), 0);
        assert_eq!(m.num_key_rows(), 3);
        assert_eq!(m.num_initial_values(), 2);
    }

    #[test]
    fn duplicate_tuples_share_tuple_id() {
        let q = query();
        let h = Xash::new(HashSize::B128);
        let m = QueryKeyMap::build(&q, &[ColId(0), ColId(1), ColId(2)], ColId(0), &h);
        let rows = m.rows_for("muhammad");
        assert_eq!(rows[0].tuple_id, rows[1].tuple_id);
        assert_eq!(m.num_distinct_tuples(), 2); // (muh,lee,us) and (ansel,adams,uk)
    }

    #[test]
    fn superkey_is_or_of_key_values() {
        let q = query();
        let h = Xash::new(HashSize::B128);
        let m = QueryKeyMap::build(&q, &[ColId(0), ColId(1), ColId(2)], ColId(0), &h);
        let row = &m.rows_for("ansel")[0];
        let mut expect = HashBits::zero(HashSize::B128);
        for v in ["ansel", "adams", "uk"] {
            expect.or_assign(&h.hash_value(v));
        }
        assert_eq!(row.superkey, expect);
    }

    #[test]
    fn single_column_key() {
        let q = query();
        let h = Xash::new(HashSize::B128);
        let m = QueryKeyMap::build(&q, &[ColId(2)], ColId(2), &h);
        // All 4 rows have a non-empty country.
        assert_eq!(m.num_key_rows(), 4);
        assert_eq!(m.num_distinct_tuples(), 3); // us, uk, de
    }

    /// Counts `hash_value` calls on the way to an inner hasher.
    struct Counting<H> {
        inner: H,
        calls: AtomicUsize,
    }

    impl<H: RowHasher> RowHasher for Counting<H> {
        fn hash_size(&self) -> HashSize {
            self.inner.hash_size()
        }
        fn hash_value(&self, value: &str) -> HashBits {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.hash_value(value)
        }
        fn name(&self) -> &'static str {
            self.inner.name()
        }
    }

    #[test]
    fn hashes_each_distinct_key_value_once() {
        // Values repeat within and across rows and columns: "x" sits in both
        // key columns, "lee" in three rows.
        let q = TableBuilder::new("d", ["f", "l", "c"])
            .row(["x", "lee", "us"])
            .row(["ansel", "lee", "x"])
            .row(["x", "lee", "us"])
            .row(["x", "", "us"]) // incomplete key: never hashed
            .row(["muhammad", "lee", "uk"])
            .build();
        let key = [ColId(0), ColId(1), ColId(2)];
        let h = Counting {
            inner: Xash::new(HashSize::B128),
            calls: AtomicUsize::new(0),
        };
        let m = QueryKeyMap::build(&q, &key, ColId(0), &h);
        // Distinct values over complete rows: x, lee, us, ansel, muhammad, uk.
        assert_eq!(h.calls.load(Ordering::Relaxed), 6);

        // Super keys are those of hashing every value of every row.
        let plain = Xash::new(HashSize::B128);
        for value in ["x", "ansel", "muhammad"] {
            for qk in m.rows_for(value) {
                let mut expect = HashBits::zero(HashSize::B128);
                for &c in &key {
                    expect.or_assign(&plain.hash_value(q.cell(qk.row, c)));
                }
                assert_eq!(qk.superkey, expect, "row {}", qk.row);
            }
        }
        assert_eq!(m.rows_for("x").len(), 2);
        assert_eq!(m.num_distinct_tuples(), 3);
    }
}
