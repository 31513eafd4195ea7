//! Table data model for the MATE join-discovery system.
//!
//! This crate provides the substrate every other MATE crate builds on:
//!
//! * [`Table`] — a named relation stored column-major, holding normalized
//!   string cells (web tables and open-data tables are untyped text in the
//!   corpora the paper evaluates on). Each [`Column`] is dictionary-encoded:
//!   its distinct texts once, plus one `u32` id per row.
//! * [`Corpus`] — an id-addressed collection of tables (a "data lake").
//! * [`ColumnStats`] — per-column statistics (cardinality, longest value)
//!   used by the initial-column-selection heuristics of the discovery phase.
//! * [`csv`] — a small, dependency-free CSV reader/writer for the examples
//!   and for importing real data.
//!
//! Cell values are normalized once at ingestion time (see [`normalize`]) so
//! that hashing, indexing, and verification all agree on the representation.

#![warn(missing_docs)]

pub mod corpus;
pub mod csv;
pub mod ids;
pub mod stats;
pub mod table;
pub mod value;

pub use corpus::Corpus;
pub use ids::{ColId, RowId, TableId};
pub use stats::ColumnStats;
pub use table::{Column, ColumnBuilder, Table, TableBuilder};
pub use value::normalize;
