//! Criterion micro-benchmarks: index construction, posting-list lookup, and
//! end-to-end discovery on a small fixed lake.

use criterion::{criterion_group, criterion_main, Criterion};
use mate_core::MateDiscovery;
use mate_hash::{HashSize, Xash};
use mate_index::IndexBuilder;
use mate_lake::{CorpusProfile, GeneratedQuery, LakeGenerator, LakeSpec, QuerySpec};
use mate_table::Corpus;
use std::hint::black_box;

fn small_lake() -> (Corpus, Vec<GeneratedQuery>) {
    let mut generator = LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), 1234));
    let mut corpus = Corpus::new();
    let spec = QuerySpec {
        rows: 30,
        column_cardinality: 12,
        joinable_tables: 5,
        fp_tables: 15,
        ..Default::default()
    };
    let queries = (0..3)
        .map(|_| generator.generate_query(&mut corpus, &spec))
        .collect();
    generator.generate_noise(&mut corpus, 400);
    (corpus, queries)
}

fn bench_index_build(c: &mut Criterion) {
    let (corpus, _) = small_lake();
    let hasher = Xash::new(HashSize::B128);
    c.bench_function("index_build_seq_400t", |b| {
        b.iter(|| IndexBuilder::new(hasher).build(black_box(&corpus)))
    });
    c.bench_function("index_build_par4_400t", |b| {
        b.iter(|| {
            IndexBuilder::new(hasher)
                .parallel(4)
                .build(black_box(&corpus))
        })
    });
}

fn bench_posting_lookup(c: &mut Criterion) {
    let (corpus, queries) = small_lake();
    let hasher = Xash::new(HashSize::B128);
    let index = IndexBuilder::new(hasher).build(&corpus);
    let q = &queries[0];
    let col = q.key[0];
    let values: Vec<&str> = q.table.column(col).iter().collect();
    c.bench_function("posting_lookup", |b| {
        b.iter(|| {
            let mut total = 0usize;
            for v in &values {
                if let Some(pl) = index.posting_list(black_box(v)) {
                    total += pl.len();
                }
            }
            total
        })
    });
}

fn bench_discovery(c: &mut Criterion) {
    let (corpus, queries) = small_lake();
    let hasher = Xash::new(HashSize::B128);
    let index = IndexBuilder::new(hasher).build(&corpus);
    let mate = MateDiscovery::new(&corpus, &index, &hasher);
    let q = &queries[0];
    c.bench_function("discover_top10", |b| {
        b.iter(|| mate.discover(black_box(&q.table), &q.key, 10))
    });
}

fn bench_wal_roundtrip(c: &mut Criterion) {
    use mate_index::wal::{frame_record, parse_log, WalRecord};
    let records: Vec<WalRecord> = (0..200)
        .map(|i| WalRecord::InsertRow {
            table: 0u32.into(),
            cells: vec![format!("first{i}"), format!("last{i}"), format!("{i}")],
        })
        .collect();
    c.bench_function("wal_encode_200_records", |b| {
        b.iter(|| {
            let mut log = Vec::new();
            for r in &records {
                log.extend(frame_record(black_box(r)));
            }
            log
        })
    });
    let mut log = Vec::new();
    for r in &records {
        log.extend(frame_record(r));
    }
    c.bench_function("wal_replay_200_records", |b| {
        b.iter(|| parse_log(black_box(&log)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_index_build, bench_posting_lookup, bench_discovery, bench_wal_roundtrip
);
criterion_main!(benches);
