//! The MATE inverted index: posting lists + per-row super keys.
//!
//! MATE extends the classic single-attribute inverted index (DataXformer
//! style, Eq. 4 of the paper) `value → [(table, column, row), ...]` with one
//! additional element per row: the **super key** (§5.1) — the OR-aggregation
//! of the hash of every cell in the row. The super key lets the discovery
//! phase test "could this row contain this composite key?" with one bitwise
//! containment check instead of fetching and comparing cell values.
//!
//! * [`posting`] — posting-list entry types.
//! * [`store`] — the flattened, arena-backed posting storage (one string
//!   arena + one contiguous entry buffer with per-value ranges) — the
//!   **hot** serving mode.
//! * [`cold`] — the **cold** serving mode: block-compressed posting lists
//!   probed through a page cache directly out of segment files, nothing
//!   re-materialized.
//! * [`source`] — the [`PostingSource`] probe trait unifying both modes for
//!   the discovery engine.
//! * [`superkeys`] — the per-row super-key store (the paper's space-efficient
//!   layout; §7.1 also discusses a per-cell layout, reported by
//!   [`IndexStats`]).
//! * [`index`] — the [`InvertedIndex`] itself.
//! * [`builder`] — offline index construction, single-threaded or parallel
//!   ([`IndexBuilder::parallel`]).
//! * [`updates`] — incremental maintenance (§5.4): insert/delete/update of
//!   tables, rows, columns, and cells.
//! * [`persist`] — segment-file serialization for both corpora and indexes.
//! * [`wal`] — a CRC-framed write-ahead log making the §5.4 edits durable.
//! * [`engine`] — the log-structured multi-segment engine: a memtable over
//!   a stack of immutable cold segments, with a manifest, WAL crash
//!   recovery (group-committed appends), newest-wins masking, and
//!   size-tiered compaction. [`EngineLake`] is its shared handle for
//!   concurrent ingest-while-serve.

#![warn(missing_docs)]

pub mod builder;
pub mod cold;
pub mod engine;
pub mod index;
pub mod persist;
pub mod posting;
pub mod source;
pub mod store;
pub mod superkeys;
pub mod updates;
pub mod wal;

pub use builder::IndexBuilder;
pub use cold::{ColdPostingStore, ListDirectory};
pub use engine::{
    Engine, EngineConfig, EngineError, EngineLake, EngineSnapshot, EngineStats, LakeReader,
    MergedSource, ScrubReport, SourceCache, WalTicket,
};
pub use index::{export_index_stats, IndexStats, InvertedIndex};
pub use posting::PostingEntry;
pub use source::{ListHandle, PostingSource, ProbeCounters, ProbeScratch};
pub use store::PostingStore;
pub use superkeys::SuperKeyStore;
pub use updates::IndexUpdater;
pub use wal::WalRecord;
