//! The [`Table`] relation type and its builder.
//!
//! Tables are stored column-major: the inverted-index builder iterates
//! columns, the statistics pass iterates columns, and the verification step
//! of the discovery phase materializes individual rows on demand via
//! [`Table::row`]. All columns of a table have the same length.
//!
//! Each [`Column`] is dictionary-encoded on its own (the shape of an Arrow
//! dictionary array): its distinct cell texts sit back to back in one
//! arena with a `u32` end offset each, and every row holds one `u32` id
//! into that dictionary. A cell costs four bytes plus its share of the
//! distinct text, instead of a heap `String`; a column moves between
//! tables without re-interning. Edits append to the dictionary, and the
//! entries they orphan are reclaimed once they may outweigh the live ones.

use crate::ids::{ColId, RowId};
use crate::value::normalize;

/// Fx-style multiply-rotate hash of a cell text: the tables that use it
/// only dedupe the texts of one column while it is built.
fn text_hash(text: &str) -> usize {
    let mut h = 0u64;
    for chunk in text.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    h.rotate_left(26) as usize
}

/// A single named column holding normalized string cells, stored as its
/// own dictionary (see the module docs). Equality compares the name and
/// the cell texts, never the encoding.
#[derive(Clone, Default)]
pub struct Column {
    /// Header / attribute name (not normalized — headers are metadata).
    pub name: String,
    /// Dictionary texts back to back: entry `i` ends at `ends[i]`.
    text: String,
    ends: Vec<u32>,
    /// Dictionary id of each row's cell.
    ids: Vec<u32>,
    /// Upper bound on the bytes (text + end offset) of the entries that
    /// edits since the last rebuild may have orphaned or duplicated.
    stale_bytes: usize,
}

impl Column {
    /// Creates a column, normalizing every cell.
    pub fn new(
        name: impl Into<String>,
        raw_values: impl IntoIterator<Item = impl AsRef<str>>,
    ) -> Self {
        let raw_values = raw_values.into_iter();
        let mut b = ColumnBuilder::new(name, raw_values.size_hint().0);
        for v in raw_values {
            b.push(&normalize(v.as_ref()));
        }
        b.finish()
    }

    /// Creates a column from its dictionary `entries` (distinct, each
    /// referenced) and one id into them per row, taken as given; `None` if
    /// an id is out of range.
    pub fn from_dictionary<'a>(
        name: impl Into<String>,
        entries: impl IntoIterator<Item = &'a str>,
        ids: Vec<u32>,
    ) -> Option<Self> {
        let mut col = ColumnBuilder::new(name, 0).column;
        for e in entries {
            col.push_entry(e);
        }
        let n = col.ends.len() as u32;
        col.ids = ids;
        col.ids.iter().all(|&id| id < n).then(|| col.shrunk())
    }

    /// Number of rows in this column.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the column has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The cell at `row`, or `None` past the last row.
    #[inline]
    pub fn get(&self, row: RowId) -> Option<&str> {
        self.ids.get(row.index()).map(|&id| self.entry(id))
    }

    /// The cells in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + Clone + '_ {
        self.ids.iter().map(|&id| self.entry(id))
    }

    /// The dictionary id of every row, in row order.
    #[inline]
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// Number of dictionary entries; every id is below it.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.ends.len()
    }

    /// The text of dictionary entry `id`.
    ///
    /// # Panics
    /// Panics if `id >= self.num_entries()`.
    #[inline]
    pub fn entry(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Heap bytes this column holds, from capacities.
    pub fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.text.capacity()
            + 4 * (self.ends.capacity() + self.ids.capacity())
    }

    /// Appends a normalized cell as a new entry (possibly a duplicate).
    fn push(&mut self, cell: &str) {
        let id = self.push_entry(cell);
        self.ids.push(id);
        self.stale_bytes += cell.len() + 4;
        self.reclaim();
    }

    /// Overwrites the cell at row index `row` with a normalized value.
    fn set(&mut self, row: usize, cell: &str) {
        let old = self.entry(self.ids[row]);
        if old != cell {
            self.stale_bytes += old.len() + cell.len() + 8;
            self.ids[row] = self.push_entry(cell);
            self.reclaim();
        }
    }

    /// Removes the cell at row index `row`; the last row takes its place.
    fn swap_remove(&mut self, row: usize) {
        self.stale_bytes += self.entry(self.ids[row]).len() + 4;
        self.ids.swap_remove(row);
        self.reclaim();
    }

    fn push_entry(&mut self, text: &str) -> u32 {
        self.text.push_str(text);
        assert!(
            self.text.len() <= u32::MAX as usize,
            "column text exceeds 4 GiB"
        );
        self.ends.push(self.text.len() as u32);
        (self.ends.len() - 1) as u32
    }

    fn shrunk(mut self) -> Self {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.ids.shrink_to_fit();
        self
    }

    /// Rebuilds once the stale entries may outweigh the rest of the column.
    /// A rebuild costs O(column bytes) and follows at least half as many
    /// bytes of edits, so edits stay amortized O(1).
    fn reclaim(&mut self) {
        if 2 * self.stale_bytes > 4 * self.ids.len() + self.text.len() + 4 * self.ends.len() {
            *self = std::mem::take(self).rebuilt();
        }
    }

    /// The same cells with each distinct text once, in first-occurrence
    /// order, and exact capacities (`self` when nothing is stale). Each
    /// old entry is interned once.
    fn rebuilt(self) -> Self {
        if self.stale_bytes == 0 {
            return self;
        }
        let mut b = ColumnBuilder::new(self.name.as_str(), self.ids.len());
        let mut remap = vec![u32::MAX; self.ends.len()];
        for &id in &self.ids {
            let new = &mut remap[id as usize];
            if *new == u32::MAX {
                *new = b.intern(self.entry(id));
            }
            b.column.ids.push(*new);
        }
        b.finish()
    }
}

/// Builds a [`Column`] cell by cell, storing each distinct text once, in
/// first-occurrence order: one probe per cell into an open-addressing
/// table of entry ids (`id + 1`; 0 is empty).
#[derive(Debug)]
pub struct ColumnBuilder {
    column: Column,
    slots: Vec<u32>,
}

impl ColumnBuilder {
    /// Starts an empty column sized for `rows` cells (0 if unknown) of
    /// about eight bytes each.
    pub fn new(name: impl Into<String>, rows: usize) -> Self {
        let column = Column {
            name: name.into(),
            text: String::with_capacity(8 * rows),
            ends: Vec::with_capacity(rows),
            ids: Vec::with_capacity(rows),
            ..Column::default()
        };
        ColumnBuilder {
            column,
            slots: vec![0; (2 * rows).next_power_of_two().max(16)],
        }
    }

    /// Appends one cell, taken as already normalized.
    pub fn push(&mut self, cell: &str) {
        let id = self.intern(cell);
        self.column.ids.push(id);
    }

    /// Finishes the column, trimming its buffers to their lengths.
    pub fn finish(self) -> Column {
        self.column.shrunk()
    }

    /// The entry id of `text`, appended as a new entry when absent.
    fn intern(&mut self, text: &str) -> u32 {
        if 2 * self.column.ends.len() >= self.slots.len() {
            self.slots = vec![0; 2 * self.slots.len()];
            for id in 0..self.column.ends.len() as u32 {
                let s = self.probe(self.column.entry(id));
                self.slots[s] = id + 1;
            }
        }
        let s = self.probe(text);
        if self.slots[s] == 0 {
            self.slots[s] = self.column.push_entry(text) + 1;
        }
        self.slots[s] - 1
    }

    /// The slot holding `text`, or the empty slot where it belongs.
    fn probe(&self, text: &str) -> usize {
        let mask = self.slots.len() - 1;
        let mut s = text_hash(text) & mask;
        while self.slots[s] != 0 && self.column.entry(self.slots[s] - 1) != text {
            s = (s + 1) & mask;
        }
        s
    }
}

impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for Column {}

impl std::fmt::Debug for Column {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cells: Vec<&str> = self.iter().collect();
        f.debug_struct("Column")
            .field("name", &self.name)
            .field("cells", &cells)
            .finish()
    }
}

/// A relation: a named list of equal-length columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table name (file name, page title, ...).
    pub name: String,
    columns: Vec<Column>,
}

impl Table {
    /// Creates a table from columns, checking that all columns have equal
    /// length.
    ///
    /// # Panics
    /// Panics if column lengths differ; use [`TableBuilder`] for fallible,
    /// row-wise construction.
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Self {
        if let Some(first) = columns.first() {
            let n = first.len();
            assert!(
                columns.iter().all(|c| c.len() == n),
                "all columns of a table must have the same number of rows"
            );
        }
        Table {
            name: name.into(),
            columns,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    #[inline]
    pub fn num_cols(&self) -> usize {
        self.columns.len()
    }

    /// All columns.
    #[inline]
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column with the given id.
    #[inline]
    pub fn column(&self, col: ColId) -> &Column {
        &self.columns[col.index()]
    }

    /// The cell at (`row`, `col`).
    #[inline]
    pub fn cell(&self, row: RowId, col: ColId) -> &str {
        let c = &self.columns[col.index()];
        c.entry(c.ids[row.index()])
    }

    /// Materializes one row as a vector of cell references.
    pub fn row(&self, row: RowId) -> Vec<&str> {
        self.row_iter(row).collect()
    }

    /// Iterates over the cells of one row without allocating.
    pub fn row_iter(&self, row: RowId) -> impl Iterator<Item = &str> + '_ {
        let r = row.index();
        self.columns.iter().map(move |c| c.entry(c.ids[r]))
    }

    /// Looks up a column id by header name (exact match).
    pub fn column_by_name(&self, name: &str) -> Option<ColId> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .map(ColId::from)
    }

    /// Header names in column order.
    pub fn header(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Appends a row of raw cell values (normalized on insert).
    ///
    /// # Panics
    /// Panics if `cells.len() != self.num_cols()`.
    pub fn push_row(&mut self, cells: &[&str]) {
        assert_eq!(cells.len(), self.num_cols(), "row arity mismatch");
        for (col, cell) in self.columns.iter_mut().zip(cells) {
            col.push(&normalize(cell));
        }
    }

    /// Removes a row by swap-remove (O(1), does not preserve row order).
    ///
    /// # Panics
    /// Panics if `row` is out of bounds.
    pub fn swap_remove_row(&mut self, row: RowId) {
        for col in &mut self.columns {
            col.swap_remove(row.index());
        }
    }

    /// Appends a new column. The column must have `num_rows()` values
    /// (checked), unless the table is empty.
    pub fn push_column(&mut self, column: Column) {
        if !self.columns.is_empty() {
            assert_eq!(column.len(), self.num_rows(), "column length mismatch");
        }
        self.columns.push(column);
    }

    /// Removes a column and returns it.
    pub fn remove_column(&mut self, col: ColId) -> Column {
        self.columns.remove(col.index())
    }

    /// Overwrites a single cell with a normalized value.
    pub fn set_cell(&mut self, row: RowId, col: ColId, raw: &str) {
        self.columns[col.index()].set(row.index(), &normalize(raw));
    }
}

/// Row-wise table construction with header first.
///
/// ```
/// use mate_table::TableBuilder;
/// let t = TableBuilder::new("people", ["first", "last"])
///     .row(["Muhammad", "Lee"])
///     .row(["Ansel", "Adams"])
///     .build();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.cell(0u32.into(), 1u32.into()), "lee");
/// ```
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    columns: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// Starts a builder with the given table name and column headers.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        headers: impl IntoIterator<Item = S>,
    ) -> Self {
        TableBuilder {
            name: name.into(),
            columns: headers
                .into_iter()
                .map(|h| ColumnBuilder::new(h, 0))
                .collect(),
        }
    }

    /// Appends one row of raw values.
    ///
    /// # Panics
    /// Panics if the arity does not match the header.
    pub fn row<S: AsRef<str>>(mut self, cells: impl IntoIterator<Item = S>) -> Self {
        let mut n = 0;
        for (i, cell) in cells.into_iter().enumerate() {
            assert!(i < self.columns.len(), "row has more cells than headers");
            self.columns[i].push(&normalize(cell.as_ref()));
            n = i + 1;
        }
        assert_eq!(n, self.columns.len(), "row has fewer cells than headers");
        self
    }

    /// Finishes construction.
    pub fn build(self) -> Table {
        let columns = self
            .columns
            .into_iter()
            .map(ColumnBuilder::finish)
            .collect();
        Table::new(self.name, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        TableBuilder::new("t1", ["Vorname", "Nachname", "Land"])
            .row(["Helmut", "Newton", "Germany"])
            .row(["Muhammad", "Lee", "US"])
            .row(["Ansel", "Adams", "UK"])
            .build()
    }

    #[test]
    fn dims() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_cols(), 3);
    }

    #[test]
    fn cells_are_normalized() {
        let t = sample();
        assert_eq!(t.cell(RowId(1), ColId(0)), "muhammad");
        assert_eq!(t.cell(RowId(2), ColId(2)), "uk");
    }

    #[test]
    fn row_materialization() {
        let t = sample();
        assert_eq!(t.row(RowId(0)), vec!["helmut", "newton", "germany"]);
        let collected: Vec<_> = t.row_iter(RowId(2)).collect();
        assert_eq!(collected, vec!["ansel", "adams", "uk"]);
    }

    #[test]
    fn column_lookup() {
        let t = sample();
        assert_eq!(t.column_by_name("Land"), Some(ColId(2)));
        assert_eq!(t.column_by_name("nope"), None);
    }

    #[test]
    fn push_and_remove_row() {
        let mut t = sample();
        t.push_row(&["Gretchen", "Lee", "Germany"]);
        assert_eq!(t.num_rows(), 4);
        t.swap_remove_row(RowId(0));
        assert_eq!(t.num_rows(), 3);
        // swap_remove moved the last row to position 0
        assert_eq!(t.cell(RowId(0), ColId(0)), "gretchen");
    }

    #[test]
    fn push_and_remove_column() {
        let mut t = sample();
        t.push_column(Column::new(
            "Besetzung",
            ["Photographer", "Dancer", "Dancer"],
        ));
        assert_eq!(t.num_cols(), 4);
        let removed = t.remove_column(ColId(3));
        assert_eq!(removed.name, "Besetzung");
        assert_eq!(t.num_cols(), 3);
    }

    #[test]
    fn set_cell_normalizes() {
        let mut t = sample();
        t.set_cell(RowId(0), ColId(0), "  NEW  Value ");
        assert_eq!(t.cell(RowId(0), ColId(0)), "new value");
    }

    #[test]
    #[should_panic(expected = "same number of rows")]
    fn unequal_columns_panic() {
        Table::new(
            "bad",
            vec![Column::new("a", ["1", "2"]), Column::new("b", ["1"])],
        );
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn push_row_arity_panics() {
        let mut t = sample();
        t.push_row(&["only-one"]);
    }

    #[test]
    fn equality_is_by_cell_text_not_encoding() {
        let mut t = sample();
        t.set_cell(RowId(1), ColId(1), "X");
        assert_ne!(t, sample());
        t.set_cell(RowId(1), ColId(1), "Lee");
        // The edited column's dictionary now holds "x" and two "lee"
        // entries; the fresh one holds one of each cell.
        assert_eq!(t, sample());
        let mut renamed = sample();
        renamed.name = "t2".into();
        assert_ne!(renamed, sample());
    }

    #[test]
    fn edit_garbage_stays_bounded() {
        let cells: Vec<String> = (0..100).map(|i| format!("value {i}")).collect();
        let mut col = Column::new("c", &cells);
        let fresh = col.heap_bytes();
        let mut peak = 0;
        for i in 0..10_000 {
            col.set(0, &format!("edit {i}"));
            peak = peak.max(col.heap_bytes());
        }
        assert!(peak <= 2 * fresh + 1024, "peak {peak} vs fresh {fresh}");
        assert_eq!(col.get(RowId(0)), Some("edit 9999"));
        assert_eq!(col.get(RowId(99)), Some("value 99"));
    }

    #[test]
    fn pushes_and_removals_keep_cells_and_reclaim_duplicates() {
        let mut t = TableBuilder::new("t", ["a"]).build();
        let mut want = Vec::new();
        for i in 0..5_000 {
            let v = format!("v{}", i % 7);
            t.push_row(&[&v]);
            want.push(v);
            if i % 3 == 0 {
                t.swap_remove_row(RowId(0));
                want.swap_remove(0);
            }
        }
        let fresh = Column::new("a", &want);
        assert_eq!(t.column(ColId(0)), &fresh);
        assert!(t.column(ColId(0)).heap_bytes() <= 2 * fresh.heap_bytes() + 1024);
    }

    #[test]
    fn from_dictionary_checks_ids() {
        let c = Column::from_dictionary("c", ["a", "b"], vec![1, 0, 1]).unwrap();
        assert_eq!(c.iter().collect::<Vec<_>>(), ["b", "a", "b"]);
        assert_eq!(c, Column::new("c", ["b", "a", "b"]));
        assert!(Column::from_dictionary("c", ["a"], vec![1]).is_none());
    }

    #[test]
    fn empty_table() {
        let t = Table::new("empty", vec![]);
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_cols(), 0);
    }
}
