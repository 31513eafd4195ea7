//! Write-ahead log for incremental index maintenance (§5.4 + durability).
//!
//! The paper's update taxonomy (insert/update/delete of tables, rows,
//! columns, cells) is applied in memory by [`crate::IndexUpdater`]; the WAL
//! makes those edits durable without rewriting the corpus/index segments on
//! every change. Each record is length-prefixed and CRC-checked, so replay
//! stops cleanly at a torn tail (crash mid-append loses at most the last
//! record, never corrupts earlier ones).
//!
//! A WAL file covers exactly the records since the last engine flush: the
//! flush folds them into an immutable segment plus an incremental corpus
//! delta record and rotates to a fresh log, so recovery replays one file —
//! checkpoint ⊕ delta chain first, then this tail (see
//! [`crate::engine::Engine`]'s module docs for the full fsync discipline).
//!
//! Format per record:
//!
//! ```text
//! payload length: u32 LE
//! crc32(payload): u32 LE
//! payload: opcode u8 + operands (varint/string encoded)
//! ```

use crate::persist;
use crate::updates::IndexUpdater;
use mate_hash::RowHasher;
use mate_storage::{crc32::crc32, IoCtx as _, Reader, StorageError, Vfs, Writer};
use mate_table::{ColId, Column, ColumnBuilder, Corpus, RowId, Table, TableId};
use std::path::Path;

/// One durable edit operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Insert a whole new table.
    InsertTable {
        /// The table (name, header, rows).
        table: Table,
    },
    /// Append a row to a table.
    InsertRow {
        /// Target table.
        table: TableId,
        /// Raw cell values.
        cells: Vec<String>,
    },
    /// Append a column to a table.
    InsertColumn {
        /// Target table.
        table: TableId,
        /// Column name.
        name: String,
        /// Raw cell values (one per existing row).
        values: Vec<String>,
    },
    /// Overwrite one cell.
    UpdateCell {
        /// Target table.
        table: TableId,
        /// Target row.
        row: RowId,
        /// Target column.
        col: ColId,
        /// New raw value.
        value: String,
    },
    /// Delete a row (swap-remove semantics).
    DeleteRow {
        /// Target table.
        table: TableId,
        /// Target row.
        row: RowId,
    },
    /// Delete a column.
    DeleteColumn {
        /// Target table.
        table: TableId,
        /// Target column.
        col: ColId,
    },
    /// Delete a whole table (tombstone).
    DeleteTable {
        /// Target table.
        table: TableId,
    },
}

impl WalRecord {
    fn opcode(&self) -> u8 {
        match self {
            WalRecord::InsertTable { .. } => 1,
            WalRecord::InsertRow { .. } => 2,
            WalRecord::InsertColumn { .. } => 3,
            WalRecord::UpdateCell { .. } => 4,
            WalRecord::DeleteRow { .. } => 5,
            WalRecord::DeleteColumn { .. } => 6,
            WalRecord::DeleteTable { .. } => 7,
        }
    }

    /// Serializes the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u8(self.opcode());
        match self {
            WalRecord::InsertTable { table } => {
                w.put_str(&table.name);
                w.put_varint(table.num_cols() as u64);
                w.put_varint(table.num_rows() as u64);
                for col in table.columns() {
                    w.put_str(&col.name);
                    for v in col.iter() {
                        w.put_str(v);
                    }
                }
            }
            WalRecord::InsertRow { table, cells } => {
                w.put_varint(table.0 as u64);
                w.put_varint(cells.len() as u64);
                for c in cells {
                    w.put_str(c);
                }
            }
            WalRecord::InsertColumn {
                table,
                name,
                values,
            } => {
                w.put_varint(table.0 as u64);
                w.put_str(name);
                w.put_varint(values.len() as u64);
                for v in values {
                    w.put_str(v);
                }
            }
            WalRecord::UpdateCell {
                table,
                row,
                col,
                value,
            } => {
                w.put_varint(table.0 as u64);
                w.put_varint(row.0 as u64);
                w.put_varint(col.0 as u64);
                w.put_str(value);
            }
            WalRecord::DeleteRow { table, row } => {
                w.put_varint(table.0 as u64);
                w.put_varint(row.0 as u64);
            }
            WalRecord::DeleteColumn { table, col } => {
                w.put_varint(table.0 as u64);
                w.put_varint(col.0 as u64);
            }
            WalRecord::DeleteTable { table } => {
                w.put_varint(table.0 as u64);
            }
        }
        w.finish().to_vec()
    }

    /// Deserializes a record payload.
    pub fn decode(payload: &[u8]) -> Result<WalRecord, StorageError> {
        let mut r = Reader::new(bytes::Bytes::from(payload.to_vec()));
        let op = r.get_u8()?;
        let rec = match op {
            1 => {
                let name = r.get_str()?;
                let ncols = r.get_varint()? as usize;
                let nrows = r.get_varint()? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    let mut col = ColumnBuilder::new(r.get_str()?, nrows.min(r.remaining()));
                    for _ in 0..nrows {
                        persist::read_cell(&mut r, &mut col)?;
                    }
                    columns.push(col.finish());
                }
                WalRecord::InsertTable {
                    table: Table::new(name, columns),
                }
            }
            2 => {
                let table = TableId(r.get_varint()? as u32);
                let n = r.get_varint()? as usize;
                let mut cells = Vec::with_capacity(n);
                for _ in 0..n {
                    cells.push(r.get_str()?);
                }
                WalRecord::InsertRow { table, cells }
            }
            3 => {
                let table = TableId(r.get_varint()? as u32);
                let name = r.get_str()?;
                let n = r.get_varint()? as usize;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(r.get_str()?);
                }
                WalRecord::InsertColumn {
                    table,
                    name,
                    values,
                }
            }
            4 => WalRecord::UpdateCell {
                table: TableId(r.get_varint()? as u32),
                row: RowId(r.get_varint()? as u32),
                col: ColId(r.get_varint()? as u32),
                value: r.get_str()?,
            },
            5 => WalRecord::DeleteRow {
                table: TableId(r.get_varint()? as u32),
                row: RowId(r.get_varint()? as u32),
            },
            6 => WalRecord::DeleteColumn {
                table: TableId(r.get_varint()? as u32),
                col: ColId(r.get_varint()? as u32),
            },
            7 => WalRecord::DeleteTable {
                table: TableId(r.get_varint()? as u32),
            },
            other => {
                return Err(StorageError::InvalidLength {
                    context: "wal opcode",
                    value: other as u64,
                })
            }
        };
        Ok(rec)
    }

    /// The *existing* table an edit targets — the engine promotes that
    /// table into its memtable before applying. Whole-table inserts
    /// allocate a fresh id and return `None`.
    pub fn target_table(&self) -> Option<TableId> {
        match self {
            WalRecord::InsertTable { .. } => None,
            WalRecord::InsertRow { table, .. }
            | WalRecord::InsertColumn { table, .. }
            | WalRecord::UpdateCell { table, .. }
            | WalRecord::DeleteRow { table, .. }
            | WalRecord::DeleteColumn { table, .. }
            | WalRecord::DeleteTable { table } => Some(*table),
        }
    }

    /// Checks that the record fits `corpus`, the state it is about to be
    /// applied to: its table exists, an inserted row has the table's
    /// arity (a table without columns takes no rows), an inserted column
    /// the table's length, and every row and column it names is in range.
    /// [`WalRecord::apply`] panics on a record that fails this, so writers
    /// check before the record reaches the log, and replay checks every
    /// record it reads back.
    pub fn check(&self, corpus: &Corpus) -> Result<(), StorageError> {
        let Some(tid) = self.target_table() else {
            return Ok(()); // a whole new table fits any corpus
        };
        let Some(table) = corpus.get(tid) else {
            return Err(StorageError::InvalidLength {
                context: "wal record table id",
                value: u64::from(tid.0),
            });
        };
        let (rows, cols) = (table.num_rows(), table.num_cols());
        let misfit = match self {
            WalRecord::InsertRow { cells, .. } if cols == 0 || cells.len() != cols => {
                Some(("wal row arity", cells.len() as u64))
            }
            WalRecord::InsertColumn { values, .. } if values.len() != rows => {
                Some(("wal column length", values.len() as u64))
            }
            WalRecord::UpdateCell { row, .. } | WalRecord::DeleteRow { row, .. }
                if row.index() >= rows =>
            {
                Some(("wal record row", u64::from(row.0)))
            }
            WalRecord::UpdateCell { col, .. } | WalRecord::DeleteColumn { col, .. }
                if col.index() >= cols =>
            {
                Some(("wal record column", u64::from(col.0)))
            }
            _ => None,
        };
        misfit.map_or(Ok(()), |(context, value)| {
            Err(StorageError::InvalidLength { context, value })
        })
    }

    /// Applies the record through an updater (live writes and replay).
    /// Takes the record by value, so an inserted table or column moves into
    /// the corpus instead of being copied.
    pub fn apply<H: RowHasher>(self, updater: &mut IndexUpdater<'_, H>) {
        match self {
            WalRecord::InsertTable { table } => {
                updater.insert_table(table);
            }
            WalRecord::InsertRow { table, cells } => {
                let refs: Vec<&str> = cells.iter().map(String::as_str).collect();
                updater.insert_row(table, &refs);
            }
            WalRecord::InsertColumn {
                table,
                name,
                values,
            } => {
                updater.insert_column(table, Column::new(name, values));
            }
            WalRecord::UpdateCell {
                table,
                row,
                col,
                value,
            } => {
                updater.update_cell(table, row, col, &value);
            }
            WalRecord::DeleteRow { table, row } => updater.delete_row(table, row),
            WalRecord::DeleteColumn { table, col } => updater.delete_column(table, col),
            WalRecord::DeleteTable { table } => updater.delete_table(table),
        }
    }
}

/// Frames and encodes one record for appending to a log buffer/file.
pub fn frame_record(record: &WalRecord) -> Vec<u8> {
    let payload = record.encode();
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses a log buffer into records, stopping cleanly at the first torn or
/// corrupt record. Returns the records and the number of bytes consumed —
/// the offset the engine may truncate the log to (everything before it
/// parsed and checksummed; everything after is a torn or corrupt tail).
///
/// Every slice is taken through checked `get` accessors, so no input —
/// truncated, bit-flipped, or adversarial — can make this panic (property-
/// tested in `tests/wal_properties.rs`).
pub fn parse_log(data: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = data.get(pos..pos + 8) {
        // panic-exempt: 4-byte subslices of the 8-byte header the `get`
        // above just produced; `try_into` to [u8; 4] cannot fail.
        let len = u32::from_le_bytes(header[..4].try_into().expect("fixed slice")) as usize;
        // panic-exempt: same fixed-slice invariant as `len` above.
        let crc = u32::from_le_bytes(header[4..8].try_into().expect("fixed slice"));
        let Some(end) = (pos + 8).checked_add(len) else {
            break; // absurd length: treat as a torn tail
        };
        let Some(payload) = data.get(pos + 8..end) else {
            break; // torn tail
        };
        if crc32(payload) != crc {
            break; // corrupt record: stop replay here
        }
        match WalRecord::decode(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
        pos += 8 + len;
    }
    (records, pos)
}

/// Reads a WAL file through `vfs` and parses it with [`parse_log`].
/// Returns the records plus the valid byte length (torn tails excluded).
pub fn read_log(vfs: &dyn Vfs, path: &Path) -> Result<(Vec<WalRecord>, usize), StorageError> {
    let data = vfs.read(path).io_ctx("reading WAL", path)?;
    Ok(parse_log(&data))
}

/// Truncates a WAL file to `valid_len` (discarding a torn tail found by
/// [`parse_log`]) and fsyncs the truncation so it survives a crash.
pub fn trim_torn_tail(vfs: &dyn Vfs, path: &Path, valid_len: u64) -> Result<(), StorageError> {
    let f = vfs
        .open_write(path)
        .io_ctx("opening WAL to trim torn tail of", path)?;
    f.set_len(valid_len)
        .io_ctx("truncating torn tail of", path)?;
    f.sync_data().io_ctx("fsyncing trimmed", path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mate_table::TableBuilder;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::InsertTable {
                table: TableBuilder::new("t", ["a", "b"]).row(["x", "y"]).build(),
            },
            WalRecord::InsertRow {
                table: TableId(0),
                cells: vec!["p".into(), "q".into()],
            },
            WalRecord::InsertColumn {
                table: TableId(0),
                name: "c".into(),
                values: vec!["1".into(), "2".into(), "3".into()],
            },
            WalRecord::UpdateCell {
                table: TableId(0),
                row: RowId(1),
                col: ColId(0),
                value: "new".into(),
            },
            WalRecord::DeleteRow {
                table: TableId(0),
                row: RowId(0),
            },
            WalRecord::DeleteColumn {
                table: TableId(0),
                col: ColId(1),
            },
            WalRecord::DeleteTable { table: TableId(0) },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        for rec in sample_records() {
            let decoded = WalRecord::decode(&rec.encode()).unwrap();
            assert_eq!(decoded, rec);
        }
    }

    #[test]
    fn log_roundtrip() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend(frame_record(r));
        }
        let (parsed, consumed) = parse_log(&log);
        assert_eq!(parsed, records);
        assert_eq!(consumed, log.len());
    }

    #[test]
    fn torn_tail_stops_cleanly() {
        let records = sample_records();
        let mut log = Vec::new();
        for r in &records {
            log.extend(frame_record(r));
        }
        // Cut the last record in half.
        let cut = log.len() - 5;
        let (parsed, consumed) = parse_log(&log[..cut]);
        assert_eq!(parsed.len(), records.len() - 1);
        assert!(consumed <= cut);
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let records = sample_records();
        let mut log = Vec::new();
        let mut offsets = Vec::new();
        for r in &records {
            offsets.push(log.len());
            log.extend(frame_record(r));
        }
        // Flip a payload byte in record 2.
        log[offsets[2] + 9] ^= 0xFF;
        let (parsed, _) = parse_log(&log);
        assert_eq!(parsed.len(), 2, "replay must stop at the corrupt record");
        assert_eq!(parsed[0], records[0]);
        assert_eq!(parsed[1], records[1]);
    }

    #[test]
    fn bad_opcode_rejected() {
        let mut payload = sample_records()[0].encode();
        payload[0] = 99;
        assert!(WalRecord::decode(&payload).is_err());
    }

    #[test]
    fn empty_log() {
        let (parsed, consumed) = parse_log(&[]);
        assert!(parsed.is_empty());
        assert_eq!(consumed, 0);
    }
}
