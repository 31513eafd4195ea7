//! Seeded workload inputs: the open-data and web-table lakes of Table 1
//! with their query sets, built through the public `mate_lake` generator.
//!
//! Key cardinalities, query sizes and neighbourhood sizes follow
//! `mate_lake::StandardLakes` at `Small` scale. Two things differ, both to
//! keep figures steady across seeds: the randomized ranges of each query's
//! planted neighbourhood (shared fraction, duplication, false-positive and
//! noise rows) are narrowed around the same means, so queries of one set
//! cost about the same; and the query counts are fixed here.

use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_table::Corpus;

/// Queries generated for OD(100), OD(1000) and OD(10000). OD(1000) has the
/// most, so that `query_p50_us` is the median of one class of a dozen
/// queries rather than a boundary between classes.
pub const OD_QUERIES: [usize; 3] = [6, 12, 6];
/// Noise tables appended to the open-data lake.
pub const OD_NOISE_TABLES: usize = 150;
/// Queries generated per web-table set (WT(10), WT(100), WT(1000)).
pub const WT_QUERIES_PER_SET: usize = 16;
/// Noise tables appended to the web-table lake.
pub const WT_NOISE_TABLES: usize = 2500;

/// One query with the name of the set it belongs to.
pub struct Query {
    pub set: &'static str,
    pub q: GeneratedQuery,
}

/// A generated corpus plus its queries, interleaved across sets so that a
/// closed loop over them alternates cheap and expensive queries.
pub struct Lake {
    pub corpus: Corpus,
    pub queries: Vec<Query>,
}

impl Lake {
    /// Total rows over all corpus tables.
    pub fn rows(&self) -> usize {
        self.corpus.total_rows()
    }
}

fn interleave(sets: Vec<(&'static str, Vec<GeneratedQuery>)>) -> Vec<Query> {
    let mut iters: Vec<_> = sets
        .into_iter()
        .map(|(name, qs)| (name, qs.into_iter()))
        .collect();
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for (name, it) in iters.iter_mut() {
            if let Some(q) = it.next() {
                out.push(Query { set: name, q });
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// The German-Open-Data stand-in: wide, long tables and the OD query sets.
pub fn opendata(seed: u64) -> Lake {
    let mut gen = LakeGenerator::new(LakeSpec::new(
        CorpusProfile::open_data(0),
        seed ^ 0x9e37_79b9,
    ));
    let mut corpus = Corpus::new();
    let spec = |card: usize, rows: usize| QuerySpec {
        rows,
        key_size: 2,
        payload_cols: 4,
        column_cardinality: card,
        column_cardinalities: None,
        joinable_tables: 10,
        share_range: (0.6, 0.65),
        duplication: (2, 3),
        fp_tables: 45,
        fp_rows: (90, 100),
        hard_fp_fraction: 0.15,
        noise_rows: (45, 55),
    };
    let mut sets = Vec::new();
    for ((name, card, rows), n) in [
        ("OD(100)", 15, 60),
        ("OD(1000)", 120, 400),
        ("OD(10000)", 350, 1200),
    ]
    .into_iter()
    .zip(OD_QUERIES)
    {
        let qs = (0..n)
            .map(|_| gen.generate_query(&mut corpus, &spec(card, rows)))
            .collect();
        sets.push((name, qs));
    }
    gen.generate_noise(&mut corpus, OD_NOISE_TABLES);
    Lake {
        corpus,
        queries: interleave(sets),
    }
}

/// The web-table stand-in: many small narrow tables and the WT query sets.
pub fn webtables(seed: u64) -> Lake {
    let mut gen = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), seed));
    let mut corpus = Corpus::new();
    let spec = |card: usize, rows: usize| QuerySpec {
        rows,
        key_size: 2,
        payload_cols: 2,
        column_cardinality: card,
        column_cardinalities: None,
        joinable_tables: 8,
        share_range: (0.5, 0.6),
        duplication: (1, 2),
        fp_tables: 60,
        fp_rows: (28, 32),
        hard_fp_fraction: 0.15,
        noise_rows: (10, 14),
    };
    let mut sets = Vec::new();
    for (name, card, rows) in [
        ("WT(10)", 3, 8),
        ("WT(100)", 16, 45),
        ("WT(1000)", 150, 400),
    ] {
        let qs = (0..WT_QUERIES_PER_SET)
            .map(|_| gen.generate_query(&mut corpus, &spec(card, rows)))
            .collect();
        sets.push((name, qs));
    }
    gen.generate_noise(&mut corpus, WT_NOISE_TABLES);
    Lake {
        corpus,
        queries: interleave(sets),
    }
}
