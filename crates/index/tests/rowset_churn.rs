//! Churn property test for the column-major row store behind the flat
//! scan and every IVF list: random interleavings of `add`,
//! `remove_label` and `swap_label` on a `FlatIndex` and on an
//! `IvfIndex` at full probe, run next to a row-major model
//! (`Vec<(id, label, row)>` compacted with `retain`). After every step:
//!
//! - `export` equals the model's rows in insertion order;
//! - `search_block` at block sizes {1, 3, all} equals a naive scan of
//!   the model (flat ids are model positions, IVF ids insertion ids);
//! - a rebuilt index is `==` to the mutated one although its capacity
//!   differs: `FlatIndex::from_rows` of the export for flat, a snapshot
//!   round trip (which re-stores every list at exact capacity) for IVF.
//!
//! Starting sizes cover the lane-block edges (0, 1, 15, 16, 17, 47, 48,
//! 49 rows), dims run 1..=33, and rows come from a small pool, so exact
//! duplicates (and distance ties between distinct ids) are planted.

use proptest::prelude::*;

use tlsfp_index::{
    FlatIndex, IvfIndex, IvfParams, Metric, Neighbor, Rows, SearchResult, VectorIndex,
};

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Pool row `p` of `dim` coarse-grid values.
fn pool_row(p: u64, dim: usize, salt: u64) -> Vec<f32> {
    (0..dim as u64)
        .map(|d| (hash(salt ^ hash(p * 97 + d + 1)) % 7) as f32 * 0.5 - 1.5)
        .collect()
}

/// The naive reference: every model row, sorted by `(dist, id)` and cut
/// to `k`, with `extra_evals` added when anything was scanned.
fn naive(
    model: &[(u64, usize, Vec<f32>)],
    flat_ids: bool,
    query: &[f32],
    k: usize,
    extra_evals: u64,
) -> SearchResult {
    let mut all: Vec<Neighbor> = model
        .iter()
        .enumerate()
        .map(|(pos, (id, label, row))| Neighbor {
            id: if flat_ids { pos as u64 } else { *id },
            label: *label,
            dist: Metric::Euclidean.eval(query, row),
        })
        .collect();
    all.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
    let nearest = all.first().map_or(f32::INFINITY, |n| n.dist);
    let evals = if all.is_empty() {
        0
    } else {
        all.len() as u64 + extra_evals
    };
    all.truncate(k.max(1));
    SearchResult {
        neighbors: all,
        nearest,
        distance_evals: evals,
    }
}

/// A result as bits: `(dist, id, label)` per neighbor, `nearest`, evals.
fn bits(r: &SearchResult) -> (Vec<(u32, u64, usize)>, u32, u64) {
    let neighbors = r
        .neighbors
        .iter()
        .map(|n| (n.dist.to_bits(), n.id, n.label))
        .collect();
    (neighbors, r.nearest.to_bits(), r.distance_evals)
}

/// Checks one backend against the model after a step.
fn check(
    index: &dyn VectorIndex,
    model: &[(u64, usize, Vec<f32>)],
    flat_ids: bool,
    extra_evals: u64,
    queries: &[Vec<f32>],
) {
    let (labels, data) = index.export();
    let want_labels: Vec<usize> = model.iter().map(|(_, l, _)| *l).collect();
    let want_data: Vec<f32> = model.iter().flat_map(|(_, _, r)| r.clone()).collect();
    prop_assert_eq!(labels, want_labels, "export labels");
    prop_assert_eq!(data, want_data, "export rows");
    for k in [1usize, 5, model.len() + 3] {
        for block in [1usize, 3, queries.len()] {
            let got = queries.chunks(block).flat_map(|b| index.search_block(b, k));
            for (q, got) in queries.iter().zip(got) {
                let want = naive(model, flat_ids, q, k, extra_evals);
                prop_assert_eq!(bits(&got), bits(&want), "k={} block={}", k, block);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn churn_matches_a_row_major_model(
        n0 in prop::sample::select(vec![0usize, 1, 15, 16, 17, 47, 48, 49]),
        dim in 1usize..34,
        pool in 3u64..24,
        classes in 1usize..7,
        n_lists in 1usize..5,
        ops in prop::collection::vec((0u8..3, 0usize..8, 0usize..20), 1..24),
        salt in 0u64..1_000_000,
    ) {
        let mut model: Vec<(u64, usize, Vec<f32>)> = (0..n0 as u64)
            .map(|i| {
                let label = (hash(salt ^ i) % classes as u64) as usize;
                (i, label, pool_row(hash(i ^ salt) % pool, dim, salt))
            })
            .collect();
        let labels: Vec<usize> = model.iter().map(|(_, l, _)| *l).collect();
        let data: Vec<f32> = model.iter().flat_map(|(_, _, r)| r.clone()).collect();
        let rows = Rows::new(dim, &data);
        let mut flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let mut ivf = IvfIndex::build(
            IvfParams::new(n_lists, 0),
            Metric::Euclidean,
            rows,
            &labels,
        );
        ivf.set_n_probe(ivf.n_lists());
        let centroids = ivf.n_lists() as u64;
        let mut next_id = n0 as u64;
        let queries: Vec<Vec<f32>> = (0..4)
            .map(|qi| pool_row(hash(salt + qi) % (pool + 2), dim, salt))
            .collect();

        for (step, &(op, label, count)) in ops.iter().enumerate() {
            let fresh = |j: usize| pool_row(hash(salt ^ (step * 31 + j) as u64) % pool, dim, salt);
            match op {
                0 => {
                    let row = fresh(0);
                    flat.add(label, &row);
                    ivf.add(label, &row);
                    model.push((next_id, label, row));
                    next_id += 1;
                }
                1 => {
                    let before = model.len();
                    model.retain(|(_, l, _)| *l != label);
                    let removed = before - model.len();
                    prop_assert_eq!(flat.remove_label(label), removed);
                    prop_assert_eq!(ivf.remove_label(label), removed);
                }
                _ => {
                    let fresh_rows: Vec<Vec<f32>> = (0..count).map(fresh).collect();
                    let flat_rows: Vec<f32> = fresh_rows.concat();
                    let before = model.len();
                    model.retain(|(_, l, _)| *l != label);
                    let removed = before - model.len();
                    prop_assert_eq!(flat.swap_label(label, Rows::new(dim, &flat_rows)), removed);
                    prop_assert_eq!(ivf.swap_label(label, Rows::new(dim, &flat_rows)), removed);
                    for row in fresh_rows {
                        model.push((next_id, label, row));
                        next_id += 1;
                    }
                }
            }
            prop_assert_eq!(flat.len(), model.len());
            prop_assert_eq!(ivf.len(), model.len());
            check(&flat, &model, true, 0, &queries);
            check(&ivf, &model, false, centroids, &queries);

            let (labels, data) = flat.export();
            let rebuilt = FlatIndex::from_rows(Metric::Euclidean, Rows::new(dim, &data), &labels);
            prop_assert_eq!(&rebuilt, &flat, "rebuilt flat differs at step {}", step);
            let reloaded: IvfIndex =
                serde_json::from_str(&serde_json::to_string(&ivf).unwrap()).unwrap();
            prop_assert_eq!(&reloaded, &ivf, "reloaded IVF differs at step {}", step);
        }
    }
}
