//! The lake generator: noise tables, query tables, planted joinable tables,
//! and planted false-positive tables.

use crate::profile::LakeSpec;
use crate::words::WordGenerator;
use crate::zipf::ZipfSampler;
use mate_table::{ColId, ColumnBuilder, Corpus, Table, TableId};
use rand::prelude::*;

/// Parameters for one query table and its planted neighborhood.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySpec {
    /// Rows of the query table.
    pub rows: usize,
    /// Composite-key width |Q|.
    pub key_size: usize,
    /// Non-key payload columns.
    pub payload_cols: usize,
    /// Target distinct values per key column (Table 1's "Cardinality").
    pub column_cardinality: usize,
    /// Optional per-key-column cardinality override (length must equal
    /// `key_size`); enables heterogeneous keys for the §7.5.4 experiment.
    pub column_cardinalities: Option<Vec<usize>>,
    /// Number of planted joinable corpus tables.
    pub joinable_tables: usize,
    /// Fraction range of the query's distinct key tuples each planted table
    /// shares.
    pub share_range: (f64, f64),
    /// Range of copies of each shared tuple in a planted table (open-data
    /// tables repeat keys; drives joins wider than the key cardinality).
    pub duplication: (usize, usize),
    /// Number of planted false-positive tables (unary hits, wrong combos).
    pub fp_tables: usize,
    /// Rows per FP table.
    pub fp_rows: (usize, usize),
    /// Fraction of FP rows built from *same-domain* key values in wrong
    /// combinations (the adversarial near-miss case the paper's conclusion
    /// describes as XASH's residual FP mode). The remainder are the common
    /// case: one real key value, all other cells from unrelated domains
    /// ("candidate rows ... only contain one value of the key value
    /// combination", §3).
    pub hard_fp_fraction: f64,
    /// Extra noise rows mixed into each planted joinable table.
    pub noise_rows: (usize, usize),
}

impl Default for QuerySpec {
    fn default() -> Self {
        QuerySpec {
            rows: 50,
            key_size: 2,
            payload_cols: 2,
            column_cardinality: 20,
            column_cardinalities: None,
            joinable_tables: 8,
            share_range: (0.2, 0.9),
            duplication: (1, 2),
            fp_tables: 20,
            fp_rows: (10, 40),
            hard_fp_fraction: 0.15,
            noise_rows: (5, 30),
        }
    }
}

/// A generated query table plus ground-truth information about what was
/// planted for it.
#[derive(Debug, Clone)]
pub struct GeneratedQuery {
    /// The query table.
    pub table: Table,
    /// The composite-key columns within [`Self::table`].
    pub key: Vec<ColId>,
    /// Ids of the planted joinable tables.
    pub planted_tables: Vec<TableId>,
    /// Distinct shared tuples of the *best* planted table — a lower bound on
    /// the achievable top-1 joinability (noise can only add matches).
    pub planted_best: u64,
    /// Number of distinct key tuples in the query table.
    pub distinct_tuples: u64,
}

/// Deterministic generator for one corpus and its query workloads.
#[derive(Debug)]
pub struct LakeGenerator {
    rng: StdRng,
    domains: Vec<Vec<String>>,
    zipf: ZipfSampler,
    spec: LakeSpec,
    name_counter: usize,
}

impl LakeGenerator {
    /// Creates a generator; vocabulary and domains are built eagerly.
    pub fn new(spec: LakeSpec) -> Self {
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let words = WordGenerator::new();
        let vocab = words.vocabulary(&mut rng, spec.profile.vocab_size);
        let domain_size = spec.profile.vocab_size / spec.profile.num_domains;
        assert!(domain_size > 0, "vocabulary smaller than domain count");
        let domains: Vec<Vec<String>> = vocab
            .chunks(domain_size)
            .take(spec.profile.num_domains)
            .map(<[String]>::to_vec)
            .collect();
        let zipf = ZipfSampler::new(domain_size, spec.profile.zipf_exponent);
        LakeGenerator {
            rng,
            domains,
            zipf,
            spec,
            name_counter: 0,
        }
    }

    /// The corpus profile in use.
    pub fn profile(&self) -> &crate::profile::CorpusProfile {
        &self.spec.profile
    }

    fn fresh_name(&mut self, kind: &str) -> String {
        self.name_counter += 1;
        format!("{}_{}_{}", self.spec.profile.name, kind, self.name_counter)
    }

    /// Draws one value from domain `d` under the Zipf distribution.
    fn domain_value(&mut self, d: usize) -> String {
        let rank = self.zipf.sample(&mut self.rng);
        self.domains[d][rank].clone()
    }

    /// Picks a random domain outside the key domains (falls back to any
    /// domain if the key uses all of them).
    fn random_non_key_domain(&mut self, key_domains: &std::collections::HashSet<usize>) -> usize {
        if key_domains.len() >= self.domains.len() {
            return self.rng.random_range(0..self.domains.len());
        }
        loop {
            let d = self.rng.random_range(0..self.domains.len());
            if !key_domains.contains(&d) {
                return d;
            }
        }
    }

    /// Appends `n` background noise tables to `corpus`.
    pub fn generate_noise(&mut self, corpus: &mut Corpus, n: usize) {
        for _ in 0..n {
            let t = self.noise_table();
            corpus.add_table(t);
        }
    }

    /// Generates one noise table with the profile's shape.
    pub fn noise_table(&mut self) -> Table {
        let (cmin, cmax) = self.spec.profile.cols;
        let (rmin, rmax) = self.spec.profile.rows;
        let ncols = self.rng.random_range(cmin..=cmax);
        let nrows = self.rng.random_range(rmin..=rmax);
        let name = self.fresh_name("noise");
        let mut columns = Vec::with_capacity(ncols);
        for c in 0..ncols {
            let d = self.rng.random_range(0..self.domains.len());
            let mut col = ColumnBuilder::new(format!("c{c}"), nrows);
            for _ in 0..nrows {
                let rank = self.zipf.sample(&mut self.rng);
                col.push(&self.domains[d][rank]);
            }
            columns.push(col.finish());
        }
        Table::new(name, columns)
    }

    /// Generates a query table and plants its joinable and FP neighborhoods
    /// into `corpus`. Returns the query with ground truth.
    pub fn generate_query(&mut self, corpus: &mut Corpus, qs: &QuerySpec) -> GeneratedQuery {
        assert!(qs.key_size >= 1 && qs.key_size <= self.domains.len());
        assert!(qs.rows >= 1);

        // --- Key domains and per-column value pools ----------------------
        let mut domain_ids: Vec<usize> = (0..self.domains.len()).collect();
        domain_ids.shuffle(&mut self.rng);
        let key_domains: Vec<usize> = domain_ids[..qs.key_size].to_vec();
        let cardinalities: Vec<usize> = match &qs.column_cardinalities {
            Some(cs) => {
                assert_eq!(cs.len(), qs.key_size, "column_cardinalities length");
                cs.clone()
            }
            None => vec![qs.column_cardinality.max(1); qs.key_size],
        };
        // Each key column draws from a random subset ("pool") of its domain,
        // so pools mix frequent (Zipf-head) and rare values like real key
        // columns do.
        let pools: Vec<Vec<String>> = key_domains
            .iter()
            .zip(&cardinalities)
            .map(|(&d, &card)| {
                let mut idx: Vec<usize> = (0..self.domains[d].len()).collect();
                idx.shuffle(&mut self.rng);
                idx[..card.clamp(1, self.domains[d].len())]
                    .iter()
                    .map(|&i| self.domains[d][i].clone())
                    .collect()
            })
            .collect();

        // --- Query rows ---------------------------------------------------
        let mut key_rows: Vec<Vec<String>> = Vec::with_capacity(qs.rows);
        for _ in 0..qs.rows {
            let tuple: Vec<String> = pools
                .iter()
                .map(|pool| pool[self.rng.random_range(0..pool.len())].clone())
                .collect();
            key_rows.push(tuple);
        }
        let mut distinct: Vec<Vec<String>> = Vec::new();
        {
            let mut seen = std::collections::HashSet::new();
            for t in &key_rows {
                if seen.insert(t.clone()) {
                    distinct.push(t.clone());
                }
            }
        }

        // --- Assemble the query table (key cols at random positions) -----
        let total_cols = qs.key_size + qs.payload_cols;
        let mut positions: Vec<usize> = (0..total_cols).collect();
        positions.shuffle(&mut self.rng);
        let key_positions: Vec<usize> = positions[..qs.key_size].to_vec();

        let mut columns: Vec<ColumnBuilder> = (0..total_cols)
            .map(|c| ColumnBuilder::new(format!("q{c}"), qs.rows))
            .collect();
        for tuple in &key_rows {
            for (ki, &pos) in key_positions.iter().enumerate() {
                columns[pos].push(&tuple[ki]);
            }
        }
        for (pos, col) in columns.iter_mut().enumerate() {
            if key_positions.contains(&pos) {
                continue;
            }
            let d = self.rng.random_range(0..self.domains.len());
            for _ in 0..qs.rows {
                let rank = self.zipf.sample(&mut self.rng);
                col.push(&self.domains[d][rank]);
            }
        }
        let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
        let query_table = Table::new(self.fresh_name("query"), columns);
        let key: Vec<ColId> = key_positions.iter().map(|&p| ColId::from(p)).collect();

        // --- Plant joinable tables ----------------------------------------
        let mut planted_tables = Vec::with_capacity(qs.joinable_tables);
        let mut planted_best = 0u64;
        for _ in 0..qs.joinable_tables {
            let frac = self.rng.random_range(qs.share_range.0..=qs.share_range.1);
            let share = ((distinct.len() as f64 * frac).round() as usize).clamp(1, distinct.len());
            let mut idx: Vec<usize> = (0..distinct.len()).collect();
            idx.shuffle(&mut self.rng);
            let shared: Vec<&Vec<String>> = idx[..share].iter().map(|&i| &distinct[i]).collect();

            let dup = self
                .rng
                .random_range(qs.duplication.0..=qs.duplication.1)
                .max(1);
            let noise_rows = self.rng.random_range(qs.noise_rows.0..=qs.noise_rows.1);
            let table = self.plant_joinable(&pools, &shared, dup, noise_rows);
            planted_best = planted_best.max(share as u64);
            planted_tables.push(corpus.add_table(table));
        }

        // --- Plant FP tables ------------------------------------------------
        if distinct.len() >= 2 && qs.key_size >= 2 {
            for _ in 0..qs.fp_tables {
                let rows = self.rng.random_range(qs.fp_rows.0..=qs.fp_rows.1);
                let table = self.plant_fp(&key_domains, &distinct, rows, qs.hard_fp_fraction);
                corpus.add_table(table);
            }
        }

        GeneratedQuery {
            table: query_table,
            key,
            planted_tables,
            planted_best,
            distinct_tuples: distinct.len() as u64,
        }
    }

    /// Builds a corpus table sharing `shared` key tuples (each duplicated
    /// `dup` times), with noise rows and extra columns, in shuffled column
    /// order.
    fn plant_joinable(
        &mut self,
        pools: &[Vec<String>],
        shared: &[&Vec<String>],
        dup: usize,
        noise_rows: usize,
    ) -> Table {
        let m = pools.len();
        let extra_cols = self.rng.random_range(1..=3usize);
        let total_cols = m + extra_cols;

        let mut rows: Vec<Vec<String>> = Vec::with_capacity(shared.len() * dup + noise_rows);
        for tuple in shared {
            for _ in 0..dup {
                rows.push((*tuple).clone());
            }
        }
        // Noise rows from the same column pools (realistic near-misses).
        for _ in 0..noise_rows {
            let tuple: Vec<String> = pools
                .iter()
                .map(|pool| pool[self.rng.random_range(0..pool.len())].clone())
                .collect();
            rows.push(tuple);
        }
        rows.shuffle(&mut self.rng);

        // Key columns at shuffled positions.
        let mut positions: Vec<usize> = (0..total_cols).collect();
        positions.shuffle(&mut self.rng);
        let key_positions = &positions[..m];

        let nrows = rows.len();
        let mut columns: Vec<ColumnBuilder> = (0..total_cols)
            .map(|c| ColumnBuilder::new(format!("c{c}"), nrows))
            .collect();
        for row in &rows {
            for (ki, &pos) in key_positions.iter().enumerate() {
                columns[pos].push(&row[ki]);
            }
        }
        for (pos, col) in columns.iter_mut().enumerate() {
            if key_positions.contains(&pos) {
                continue;
            }
            let d = self.rng.random_range(0..self.domains.len());
            for _ in 0..nrows {
                let rank = self.zipf.sample(&mut self.rng);
                col.push(&self.domains[d][rank]);
            }
        }
        let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
        Table::new(self.fresh_name("joinable"), columns)
    }

    /// Builds a false-positive table: rows give unary hits on the key values
    /// without containing any full composite key.
    ///
    /// Two row shapes (§3's FP definition vs. the conclusion's near-miss
    /// observation): *easy* FP rows hold exactly one real key value, with
    /// every other cell drawn from unrelated domains; *hard* FP rows combine
    /// key values from different query tuples (same domains, wrong combos).
    fn plant_fp(
        &mut self,
        key_domains: &[usize],
        distinct: &[Vec<String>],
        rows: usize,
        hard_fraction: f64,
    ) -> Table {
        let m = key_domains.len();
        let tuple_set: std::collections::HashSet<&[String]> =
            distinct.iter().map(Vec::as_slice).collect();
        let key_domain_set: std::collections::HashSet<usize> =
            key_domains.iter().copied().collect();

        let mut out_rows: Vec<Vec<String>> = Vec::with_capacity(rows);
        let mut attempts = 0;
        while out_rows.len() < rows && attempts < rows * 10 {
            attempts += 1;
            let hard = self.rng.random::<f64>() < hard_fraction;
            let mut row: Vec<String> = if hard {
                // Wrong combination of real key values.
                (0..m)
                    .map(|ki| {
                        let t = self.rng.random_range(0..distinct.len());
                        distinct[t][ki].clone()
                    })
                    .collect()
            } else {
                // One real key value; the rest from unrelated domains.
                let hit = self.rng.random_range(0..m);
                let t = self.rng.random_range(0..distinct.len());
                (0..m)
                    .map(|ki| {
                        if ki == hit {
                            distinct[t][ki].clone()
                        } else {
                            let d = self.random_non_key_domain(&key_domain_set);
                            let rank = self.zipf.sample(&mut self.rng);
                            self.domains[d][rank].clone()
                        }
                    })
                    .collect()
            };
            if tuple_set.contains(row.as_slice()) {
                // Accidentally reassembled a real tuple; perturb one value.
                let ki = self.rng.random_range(0..m);
                row[ki] = self.domain_value(key_domains[ki]);
                if tuple_set.contains(row.as_slice()) {
                    continue;
                }
            }
            out_rows.push(row);
        }

        let extra_cols = self.rng.random_range(1..=2usize);
        let total_cols = m + extra_cols;
        let nrows = out_rows.len();
        let mut columns: Vec<ColumnBuilder> = (0..total_cols)
            .map(|c| ColumnBuilder::new(format!("c{c}"), nrows))
            .collect();
        for row in &out_rows {
            for (ki, v) in row.iter().enumerate() {
                columns[ki].push(v);
            }
        }
        for col in columns.iter_mut().skip(m) {
            let d = self.rng.random_range(0..self.domains.len());
            for _ in 0..nrows {
                let rank = self.zipf.sample(&mut self.rng);
                col.push(&self.domains[d][rank]);
            }
        }
        let columns = columns.into_iter().map(ColumnBuilder::finish).collect();
        Table::new(self.fresh_name("fp"), columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::CorpusProfile;
    use mate_table::RowId;

    fn generator() -> LakeGenerator {
        LakeGenerator::new(LakeSpec::new(CorpusProfile::web_tables(0), 42))
    }

    #[test]
    fn noise_tables_have_profile_shape() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        g.generate_noise(&mut corpus, 20);
        assert_eq!(corpus.len(), 20);
        for (_, t) in corpus.iter() {
            assert!((2..=8).contains(&t.num_cols()));
            assert!((4..=30).contains(&t.num_rows()));
        }
    }

    #[test]
    fn query_generation_plants_ground_truth() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        let qs = QuerySpec::default();
        let gq = g.generate_query(&mut corpus, &qs);
        assert_eq!(gq.key.len(), 2);
        assert_eq!(gq.table.num_rows(), 50);
        assert_eq!(gq.planted_tables.len(), 8);
        assert!(gq.planted_best >= 1);
        assert!(gq.distinct_tuples >= gq.planted_best);
        // joinable + fp tables landed in the corpus
        assert_eq!(corpus.len(), 8 + 20);
    }

    #[test]
    fn planted_tables_really_contain_shared_tuples() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        let qs = QuerySpec {
            joinable_tables: 3,
            fp_tables: 0,
            ..Default::default()
        };
        let gq = g.generate_query(&mut corpus, &qs);

        // Collect query key tuples.
        let qtuples: std::collections::HashSet<Vec<&str>> = (0..gq.table.num_rows())
            .map(|r| {
                gq.key
                    .iter()
                    .map(|&c| gq.table.cell(RowId::from(r), c))
                    .collect::<Vec<_>>()
            })
            .collect();

        // Each planted table must contain at least one full tuple in some
        // column arrangement — check by value-set containment per row.
        for &tid in &gq.planted_tables {
            let t = corpus.table(tid);
            let mut found = false;
            'rows: for r in 0..t.num_rows() {
                let row_vals: std::collections::HashSet<&str> =
                    t.row_iter(RowId::from(r)).collect();
                for tuple in &qtuples {
                    if tuple.iter().all(|v| row_vals.contains(v)) {
                        found = true;
                        break 'rows;
                    }
                }
            }
            assert!(found, "planted table {tid} contains no shared tuple");
        }
    }

    #[test]
    fn fp_tables_contain_no_full_tuple_as_planted() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        let qs = QuerySpec {
            joinable_tables: 0,
            fp_tables: 10,
            rows: 30,
            column_cardinality: 25,
            ..Default::default()
        };
        let gq = g.generate_query(&mut corpus, &qs);
        let qtuples: std::collections::HashSet<Vec<&str>> = (0..gq.table.num_rows())
            .map(|r| {
                gq.key
                    .iter()
                    .map(|&c| gq.table.cell(RowId::from(r), c))
                    .collect::<Vec<_>>()
            })
            .collect();
        // FP rows are built to avoid exact key-position tuples; verify on the
        // first m columns (the construction's key layout).
        let m = gq.key.len();
        for (_, t) in corpus.iter() {
            for r in 0..t.num_rows() {
                let tuple: Vec<&str> = (0..m)
                    .map(|c| t.cell(RowId::from(r), ColId::from(c)))
                    .collect();
                assert!(!qtuples.contains(&tuple), "FP table contains planted tuple");
            }
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let build = || {
            let mut g = generator();
            let mut corpus = Corpus::new();
            g.generate_noise(&mut corpus, 5);
            let gq = g.generate_query(&mut corpus, &QuerySpec::default());
            (corpus, gq.table)
        };
        let (c1, q1) = build();
        let (c2, q2) = build();
        assert_eq!(q1, q2);
        assert_eq!(c1.len(), c2.len());
        for (id, t) in c1.iter() {
            assert_eq!(t, c2.table(id));
        }
    }

    #[test]
    fn single_column_key_supported() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        let qs = QuerySpec {
            key_size: 1,
            fp_tables: 5,
            ..Default::default()
        };
        let gq = g.generate_query(&mut corpus, &qs);
        assert_eq!(gq.key.len(), 1);
        // FP tables are skipped for unary keys (no wrong combos possible).
        assert_eq!(corpus.len(), qs.joinable_tables);
    }

    #[test]
    fn wide_keys_supported() {
        let mut g = generator();
        let mut corpus = Corpus::new();
        let qs = QuerySpec {
            key_size: 5,
            payload_cols: 3,
            ..Default::default()
        };
        let gq = g.generate_query(&mut corpus, &qs);
        assert_eq!(gq.key.len(), 5);
        assert_eq!(gq.table.num_cols(), 8);
    }
}
