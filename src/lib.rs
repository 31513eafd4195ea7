//! # MATE — Multi-Attribute Table Extraction
//!
//! A Rust reproduction of *MATE: Multi-Attribute Table Extraction*
//! (Esmailoghli, Quiané-Ruiz, Abedjan — VLDB 2022). MATE discovers the
//! **top-k tables of a data lake that join with a query table on an n-ary
//! (composite) key**, using:
//!
//! * **XASH** — a syntax-aware hash that encodes a value's rarest characters,
//!   their positions, and its length into a sparse fixed-size bit pattern
//!   ([`mate_hash::Xash`]);
//! * a **super key** per row — the OR-aggregation of the XASH of every cell,
//!   stored alongside a single-attribute inverted index
//!   ([`mate_index::InvertedIndex`]), acting as a per-row bloom filter over
//!   *all* possible column combinations with **no false negatives**;
//! * **two-tier filtering** — table-level bounds against the current top-k
//!   and row-level super-key masking — before exact joinability verification
//!   ([`mate_core::MateDiscovery`]).
//!
//! ## Quickstart
//!
//! ```
//! use mate::prelude::*;
//!
//! // A tiny data lake (Figure 1 of the paper).
//! let mut corpus = Corpus::new();
//! corpus.add_table(
//!     TableBuilder::new("T1", ["Vorname", "Nachname", "Land", "Besetzung"])
//!         .row(["Helmut", "Newton", "Germany", "Photographer"])
//!         .row(["Muhammad", "Lee", "US", "Dancer"])
//!         .row(["Ansel", "Adams", "UK", "Dancer"])
//!         .row(["Ansel", "Adams", "US", "Photographer"])
//!         .row(["Muhammad", "Ali", "US", "Boxer"])
//!         .row(["Muhammad", "Lee", "Germany", "Birder"])
//!         .row(["Gretchen", "Lee", "Germany", "Artist"])
//!         .row(["Adam", "Sandler", "US", "Actor"])
//!         .build(),
//! );
//!
//! // Offline phase: build the XASH super-key index.
//! let hasher = Xash::new(HashSize::B128);
//! let index = IndexBuilder::new(hasher).build(&corpus);
//!
//! // Online phase: find tables joinable with (F. Name, L. Name, Country).
//! let query = TableBuilder::new("d", ["F. Name", "L. Name", "Country", "Salary"])
//!     .row(["Muhammad", "Lee", "US", "60k"])
//!     .row(["Ansel", "Adams", "UK", "50k"])
//!     .row(["Ansel", "Adams", "US", "400k"])
//!     .row(["Muhammad", "Lee", "Germany", "90k"])
//!     .row(["Helmut", "Newton", "Germany", "300k"])
//!     .build();
//!
//! let mate = MateDiscovery::new(&corpus, &index, &hasher);
//! let result = mate.discover(&query, &[ColId(0), ColId(1), ColId(2)], 1);
//! assert_eq!(result.top_k[0].joinability, 5); // all five query rows join T1
//! ```
//!
//! See the crate-level docs of the member crates for the substrates:
//! [`mate_table`] (data model), [`mate_hash`] (XASH and baseline hash
//! functions), [`mate_index`] (inverted index + super keys), [`mate_core`]
//! (discovery engine), [`mate_baselines`] (SCR/MCR/JOSIE baselines),
//! [`mate_lake`] (synthetic data-lake generator), [`mate_storage`]
//! (binary persistence), [`mate_apps`] (union search, duplicate detection,
//! similarity joins), [`mate_obs`] (metrics registry, spans/events, and
//! per-query profiles — see the README's *Observability* section).

pub use mate_apps as apps;
pub use mate_baselines as baselines;
pub use mate_core as core;
pub use mate_hash as hash;
pub use mate_index as index;
pub use mate_lake as lake;
pub use mate_obs as obs;
pub use mate_storage as storage;
pub use mate_table as table;

/// Convenience re-exports covering the common workflow:
/// build a corpus → index it → discover joinable tables.
pub mod prelude {
    pub use mate_baselines::{McrDiscovery, ScrDiscovery};
    pub use mate_core::{
        DiscoveryResult, DiscoveryStats, InitColumnHeuristic, MateConfig, MateDiscovery,
    };
    pub use mate_hash::{BloomFilterHasher, HashSize, RowHasher, Xash, XashVariant};
    pub use mate_index::{IndexBuilder, InvertedIndex};
    pub use mate_lake::{CorpusProfile, LakeGenerator, LakeSpec};
    pub use mate_table::{ColId, Column, Corpus, RowId, Table, TableBuilder, TableId};
}
