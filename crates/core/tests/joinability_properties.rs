//! Property tests for the exact joinability computation (Eq. 2): against a
//! naive reference implementation that enumerates *all* column permutations,
//! and against a straightforward hash-map implementation of `calculateJ`
//! that must agree on every field of [`VerifyOutcome`].

use mate_core::joinability::{verify_table_joinability, RowPair, VerifyOutcome};
use mate_table::{ColId, RowId, Table};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// `calculateJ` as a map from each mapping to its set of tuple ids: per
/// pair, the candidate columns holding each key value, then every injective
/// assignment up to `max_mappings` (positions searched in ascending
/// branching order, ties in position order).
fn reference_verify(
    candidate: &Table,
    query: &Table,
    q_cols: &[ColId],
    pairs: &[RowPair],
    max_mappings: usize,
) -> VerifyOutcome {
    let mut per_mapping: HashMap<Vec<u32>, HashSet<u32>> = HashMap::new();
    let mut tp = 0usize;
    let mut capped = false;

    for pair in pairs {
        let key: Vec<&str> = q_cols
            .iter()
            .map(|&q| query.cell(pair.query_row, q))
            .collect();
        let mut options: Vec<Vec<u32>> = vec![Vec::new(); q_cols.len()];
        for c in 0..candidate.num_cols() {
            let v = candidate.cell(pair.candidate_row, ColId::from(c));
            if v.is_empty() {
                continue;
            }
            for (i, k) in key.iter().enumerate() {
                if v == *k {
                    options[i].push(c as u32);
                }
            }
        }
        if options.iter().any(Vec::is_empty) {
            continue;
        }
        let mappings = reference_enumerate(&options, max_mappings);
        if mappings.is_empty() {
            continue;
        }
        if mappings.len() >= max_mappings {
            capped = true;
        }
        tp += 1;
        for m in mappings {
            per_mapping.entry(m).or_default().insert(pair.tuple_id);
        }
    }

    VerifyOutcome {
        joinability: per_mapping
            .values()
            .map(|s| s.len() as u64)
            .max()
            .unwrap_or(0),
        true_positive_pairs: tp,
        pairs_checked: pairs.len(),
        mappings_capped: capped,
    }
}

/// Injective assignments of one column from `options[i]` per position, up
/// to `max`, by backtracking over positions sorted by option count.
fn reference_enumerate(options: &[Vec<u32>], max: usize) -> Vec<Vec<u32>> {
    fn backtrack(
        depth: usize,
        order: &[usize],
        options: &[Vec<u32>],
        assignment: &mut Vec<u32>,
        used: &mut HashSet<u32>,
        results: &mut Vec<Vec<u32>>,
        max: usize,
    ) {
        if results.len() >= max {
            return;
        }
        if depth == order.len() {
            results.push(assignment.clone());
            return;
        }
        let pos = order[depth];
        for &col in &options[pos] {
            if used.insert(col) {
                assignment[pos] = col;
                backtrack(depth + 1, order, options, assignment, used, results, max);
                used.remove(&col);
            }
        }
    }

    let mut order: Vec<usize> = (0..options.len()).collect();
    order.sort_by_key(|&i| options[i].len());
    let mut results = Vec::new();
    backtrack(
        0,
        &order,
        options,
        &mut vec![u32::MAX; options.len()],
        &mut HashSet::new(),
        &mut results,
        max,
    );
    results
}

/// Naive Eq. 2: enumerate every injective mapping from key positions to
/// candidate columns; count distinct query tuples present under the mapping;
/// take the max.
fn naive_joinability(candidate: &Table, query: &Table, q_cols: &[ColId]) -> u64 {
    let m = q_cols.len();
    let ncols = candidate.num_cols();
    if ncols < m {
        return 0;
    }

    // All injective mappings (positions → candidate columns).
    fn mappings(m: usize, ncols: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut current = Vec::new();
        fn rec(m: usize, ncols: usize, current: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
            if current.len() == m {
                out.push(current.clone());
                return;
            }
            for c in 0..ncols {
                if !current.contains(&c) {
                    current.push(c);
                    rec(m, ncols, current, out);
                    current.pop();
                }
            }
        }
        rec(m, ncols, &mut current, &mut out);
        out
    }

    let mut best = 0u64;
    for mapping in mappings(m, ncols) {
        // Project candidate rows under this mapping.
        let mut projected: HashSet<Vec<&str>> = HashSet::new();
        for r in 0..candidate.num_rows() {
            projected.insert(
                mapping
                    .iter()
                    .map(|&c| candidate.cell(RowId::from(r), ColId::from(c)))
                    .collect(),
            );
        }
        // Count distinct query tuples present.
        let mut hit: HashSet<Vec<&str>> = HashSet::new();
        'rows: for r in 0..query.num_rows() {
            let mut tuple = Vec::with_capacity(m);
            for &q in q_cols {
                let v = query.cell(RowId::from(r), q);
                if v.is_empty() {
                    continue 'rows;
                }
                tuple.push(v);
            }
            if projected.contains(&tuple) {
                hit.insert(tuple);
            }
        }
        best = best.max(hit.len() as u64);
    }
    best
}

/// All-pairs RowPair list with tuple ids (mirrors the engine's pairing).
fn all_pairs(candidate: &Table, query: &Table, q_cols: &[ColId]) -> Vec<RowPair> {
    let mut tuple_ids: std::collections::HashMap<Vec<&str>, u32> = std::collections::HashMap::new();
    let mut pairs = Vec::new();
    'rows: for qr in 0..query.num_rows() {
        let mut tuple = Vec::new();
        for &q in q_cols {
            let v = query.cell(RowId::from(qr), q);
            if v.is_empty() {
                continue 'rows;
            }
            tuple.push(v);
        }
        let next = tuple_ids.len() as u32;
        let tid = *tuple_ids.entry(tuple).or_insert(next);
        for cr in 0..candidate.num_rows() {
            pairs.push(RowPair {
                candidate_row: RowId::from(cr),
                query_row: RowId::from(qr),
                tuple_id: tid,
            });
        }
    }
    pairs
}

fn small_table(name: &str, cols: usize, cells: Vec<String>) -> Table {
    let rows = cells.len() / cols;
    let columns = (0..cols)
        .map(|c| mate_table::Column::new(format!("c{c}"), (0..rows).map(|r| &cells[r * cols + c])))
        .collect();
    Table::new(name, columns)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Engine joinability == naive permutation enumeration, on small random
    /// tables over a tiny value alphabet (to force repeats and collisions).
    #[test]
    fn matches_naive_reference(
        cand_cells in proptest::collection::vec("[abc]", 2..24),
        query_cells in proptest::collection::vec("[abc]", 2..12),
        cand_cols in 2usize..4,
        m in 1usize..3,
    ) {
        let cand_cells: Vec<String> = cand_cells;
        let query_cells: Vec<String> = query_cells;
        prop_assume!(cand_cells.len() >= cand_cols);
        prop_assume!(query_cells.len() >= m);

        // Trim to rectangular shapes.
        let cand_rows = cand_cells.len() / cand_cols;
        prop_assume!(cand_rows >= 1);
        let candidate = small_table("cand", cand_cols, cand_cells[..cand_rows * cand_cols].to_vec());

        let q_rows = query_cells.len() / m;
        prop_assume!(q_rows >= 1);
        let query = small_table("query", m, query_cells[..q_rows * m].to_vec());
        let q_cols: Vec<ColId> = (0..m as u32).map(ColId).collect();

        let naive = naive_joinability(&candidate, &query, &q_cols);
        let engine = verify_table_joinability(
            &candidate,
            &query,
            &q_cols,
            &all_pairs(&candidate, &query, &q_cols),
            100_000,
        );
        prop_assert_eq!(engine.joinability, naive);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The engine's `calculateJ` returns the reference's `VerifyOutcome`
    /// field for field: tiny vocabularies so values repeat across columns
    /// (key positions with several column options), duplicate and shuffled pairs, key widths 1–4, and mapping caps from
    /// zero to effectively unbounded.
    #[test]
    fn matches_hash_map_reference(
        cand_cells in proptest::collection::vec("[abc]{0,1}", 1..36),
        cand_cols in 1usize..9,
        query_cells in proptest::collection::vec("[ab]{0,1}", 1..20),
        m in 1usize..5,
        picks in proptest::collection::vec((0usize..64, 0usize..64), 0..40),
        max_mappings in prop_oneof![Just(0usize), Just(1), Just(2), Just(7), Just(10_000)],
    ) {
        let cand_rows = cand_cells.len() / cand_cols;
        prop_assume!(cand_rows >= 1);
        let candidate = small_table("cand", cand_cols, cand_cells[..cand_rows * cand_cols].to_vec());
        let q_rows = query_cells.len() / m;
        prop_assume!(q_rows >= 1);
        let query = small_table("query", m, query_cells[..q_rows * m].to_vec());
        let q_cols: Vec<ColId> = (0..m as u32).map(ColId).collect();

        // Random (candidate row, query row) picks — repeats and any order —
        // carrying the query rows' engine-style tuple ids.
        let all = all_pairs(&candidate, &query, &q_cols);
        let tuple_of: HashMap<RowId, u32> =
            all.iter().map(|p| (p.query_row, p.tuple_id)).collect();
        let pairs: Vec<RowPair> = picks
            .iter()
            .filter_map(|&(c, q)| {
                let query_row = RowId::from(q % q_rows);
                tuple_of.get(&query_row).map(|&tuple_id| RowPair {
                    candidate_row: RowId::from(c % cand_rows),
                    query_row,
                    tuple_id,
                })
            })
            .collect();

        for pairs in [&pairs[..], &all[..]] {
            let engine = verify_table_joinability(&candidate, &query, &q_cols, pairs, max_mappings);
            let reference = reference_verify(&candidate, &query, &q_cols, pairs, max_mappings);
            prop_assert_eq!(engine, reference);
        }
    }
}
