//! A small RFC-4180-ish CSV reader/writer.
//!
//! Supports quoted fields, embedded commas/newlines/escaped quotes, and CRLF
//! line endings. Intentionally dependency-free: the examples import small
//! real-world-shaped files and the lake generator exports corpora for
//! inspection, neither of which needs a streaming parser.

use crate::table::{ColumnBuilder, Table};

/// Errors produced by [`parse_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A record had a different number of fields than the header.
    RaggedRow {
        /// 1-based line of the offending record.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected (header arity).
        expected: usize,
    },
    /// Input ended inside a quoted field.
    UnterminatedQuote,
    /// Input was empty (no header row).
    Empty,
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => {
                write!(
                    f,
                    "record on line {line} has {found} fields, expected {expected}"
                )
            }
            CsvError::UnterminatedQuote => write!(f, "unterminated quoted field"),
            CsvError::Empty => write!(f, "empty csv input"),
        }
    }
}

impl std::error::Error for CsvError {}

/// Splits CSV text into records of fields.
fn parse_records(input: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = input.chars().peekable();
    let mut in_quotes = false;
    let mut saw_any = false;

    while let Some(c) = chars.next() {
        saw_any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {
                    if chars.peek() == Some(&'\n') {
                        chars.next();
                    }
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote);
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !saw_any {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// Parses CSV text (first record = header) into a [`Table`].
///
/// Cell values are normalized by [`Table`] construction rules.
///
/// ```
/// use mate_table::csv::parse_csv;
/// let t = parse_csv("people", "first,last\nMuhammad,Lee\n\"A, B\",C\n").unwrap();
/// assert_eq!(t.num_rows(), 2);
/// assert_eq!(t.cell(1u32.into(), 0u32.into()), "a, b");
/// ```
pub fn parse_csv(name: &str, input: &str) -> Result<Table, CsvError> {
    let records = parse_records(input)?;
    let mut it = records.into_iter();
    let header = it.next().ok_or(CsvError::Empty)?;
    let ncols = header.len();
    let rows = it.len();
    let mut columns: Vec<ColumnBuilder> = header
        .into_iter()
        .map(|h| ColumnBuilder::new(h, rows))
        .collect();
    for (i, rec) in it.enumerate() {
        // A lone trailing newline yields an empty single-field record; skip it.
        if rec.len() == 1 && rec[0].is_empty() && ncols > 1 {
            continue;
        }
        if rec.len() != ncols {
            return Err(CsvError::RaggedRow {
                line: i + 2,
                found: rec.len(),
                expected: ncols,
            });
        }
        for (col, cell) in columns.iter_mut().zip(rec) {
            col.push(&crate::value::normalize(&cell));
        }
    }
    let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
    Ok(Table::new(name, columns))
}

/// Serializes a table to CSV (header first, quoting where needed).
pub fn write_csv(table: &Table) -> String {
    fn quote(field: &str) -> String {
        if field.contains([',', '"', '\n', '\r']) {
            format!("\"{}\"", field.replace('"', "\"\""))
        } else {
            field.to_string()
        }
    }
    let mut out = String::new();
    out.push_str(
        &table
            .header()
            .iter()
            .map(|h| quote(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for r in 0..table.num_rows() {
        let row: Vec<String> = table.row_iter((r as u32).into()).map(quote).collect();
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple() {
        let t = parse_csv("t", "a,b\n1,2\n3,4\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.num_cols(), 2);
        assert_eq!(t.cell(0u32.into(), 1u32.into()), "2");
    }

    #[test]
    fn quoted_fields() {
        let t = parse_csv("t", "a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(t.cell(0u32.into(), 0u32.into()), "x, y");
        assert_eq!(t.cell(0u32.into(), 1u32.into()), "he said \"hi\"");
    }

    #[test]
    fn crlf() {
        let t = parse_csv("t", "a,b\r\n1,2\r\n").unwrap();
        assert_eq!(t.num_rows(), 1);
    }

    #[test]
    fn embedded_newline_in_quotes() {
        let t = parse_csv("t", "a\n\"line1\nline2\"\n").unwrap();
        assert_eq!(t.num_rows(), 1);
        // normalization collapses whitespace
        assert_eq!(t.cell(0u32.into(), 0u32.into()), "line1 line2");
    }

    #[test]
    fn ragged_row_error() {
        let err = parse_csv("t", "a,b\n1\n").unwrap_err();
        assert!(matches!(
            err,
            CsvError::RaggedRow {
                line: 2,
                found: 1,
                expected: 2
            }
        ));
    }

    #[test]
    fn unterminated_quote() {
        assert_eq!(
            parse_csv("t", "a\n\"oops\n").unwrap_err(),
            CsvError::UnterminatedQuote
        );
    }

    #[test]
    fn empty_input() {
        assert_eq!(parse_csv("t", "").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn roundtrip() {
        let t = parse_csv("t", "a,b\nhello,\"x,y\"\nfoo,bar\n").unwrap();
        let csv = write_csv(&t);
        let t2 = parse_csv("t", &csv).unwrap();
        assert_eq!(t, t2);
    }

    #[test]
    fn no_trailing_newline() {
        let t = parse_csv("t", "a,b\n1,2").unwrap();
        assert_eq!(t.num_rows(), 1);
    }
}
