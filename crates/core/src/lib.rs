//! The MATE discovery engine (Algorithm 1 of the paper).
//!
//! Given a query table `d`, a composite key `Q ⊂ columns(d)`, and `k`, MATE
//! returns the top-k corpus tables by joinability
//! `j(d, T) = max over column mappings |π_Q(d) ∩ π_Y'(T)|` (Eq. 2), in four
//! phases:
//!
//! 1. **Initialization** (§6.1, [`init_column`]): pick one key column via a
//!    cardinality heuristic, fetch its posting lists, group them per table
//!    (sorted by hit count, descending), and build the query-side super keys
//!    ([`query_keys`]).
//! 2. **Table filtering** (§6.2, in [`discovery`]): prune tables whose hit
//!    count — or whose remaining unchecked rows plus matches so far — cannot
//!    beat the current k-th best joinability ([`topk`]).
//! 3. **Row filtering** (§6.3): one bitwise containment check per candidate
//!    row against the stored super key; no false negatives.
//! 4. **Joinability calculation** ([`joinability`]): fetch surviving rows
//!    from the corpus and compute the exact best-mapping joinability.
//!
//! [`DiscoveryStats`] instruments every phase (PL items fetched, rows
//! filtered, false positives, precision) — the quantities Tables 2–3 and
//! Figures 4–6 of the paper report.
//!
//! Phases 2–4 run on a worker pool when [`MateConfig::query_threads`] ≥ 2,
//! with a shared atomic `j_k` floor keeping both pruning rules sound across
//! workers and a deterministic merge keeping results bit-identical to the
//! sequential engine (see [`discovery`]).

#![warn(missing_docs)]

pub mod config;
pub mod discovery;
pub mod engine_query;
pub mod init_column;
pub mod joinability;
pub mod query_keys;
pub mod stats;
pub mod topk;

pub use config::{InitColumnHeuristic, MateConfig};
pub use discovery::{DiscoveryResult, MateDiscovery, TableResult};
pub use engine_query::{discover_lake, discover_snapshot};
pub use joinability::verify_table_joinability;
pub use stats::{export_discovery_stats, DiscoveryStats, WorkerStats};
pub use topk::TopK;
