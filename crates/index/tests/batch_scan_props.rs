//! Property tests for block composition and thread invariance of the
//! scan kernels: over random ragged batches, corpora full of exact
//! duplicate rows (guaranteed distance ties), every backend's
//! `search_block` must give each query the result it gets in a block of
//! one (`search`) — distances, ids, labels, `(dist, id)` neighbor order
//! and `distance_evals` — at block sizes {1, 3, 64, > batch}, and so
//! must `search_batch` at its auto block size and worker counts
//! {1, 4, 0}. Through the sharded store, the batch fan-out must equal
//! single `search_concurrent` calls at the same worker counts.
//!
//! A block of one runs the same kernel, so these tests pin only that
//! blocking and threading never change a result; each backend's unit
//! tests hold its kernel against a naive reference scan.

use proptest::prelude::*;

use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{
    FlatIndex, IndexConfig, IvfIndex, IvfParams, Metric, PqIndex, PqParams, Rows, SearchResult,
    VectorIndex,
};

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// A coarse-grid coordinate: few distinct values => frequent exact
/// distance ties even between non-duplicate rows.
fn grid_coord(h: u64) -> f32 {
    (h % 5) as f32 * 0.5
}

/// Corpus with exact duplicate rows and a ragged query batch, both
/// derived deterministically from the proptest-drawn parameters.
fn corpus(
    n_rows: usize,
    dim: usize,
    n_classes: usize,
    n_queries: usize,
    salt: u64,
) -> (Vec<f32>, Vec<usize>, Vec<Vec<f32>>) {
    let base = (n_rows / 2).max(1);
    let mut data = Vec::with_capacity(n_rows * dim);
    let mut labels = Vec::with_capacity(n_rows);
    for i in 0..n_rows {
        let src = (i % base) as u64;
        for d in 0..dim {
            data.push(grid_coord(hash(salt ^ hash(src * 31 + d as u64 + 1))));
        }
        labels.push((hash(salt ^ hash(i as u64 + 7_777)) % n_classes as u64) as usize);
    }
    let queries: Vec<Vec<f32>> = (0..n_queries)
        .map(|qi| {
            (0..dim)
                .map(|d| grid_coord(hash(salt ^ hash(900 + qi as u64 * 13 + d as u64))))
                .collect()
        })
        .collect();
    (data, labels, queries)
}

/// Asserts every block composition and worker count gives each query
/// its block-of-one result on `index`.
fn assert_blocks_match_singles(
    index: &dyn VectorIndex,
    queries: &[Vec<f32>],
    k: usize,
    backend: &str,
) {
    let singles: Vec<SearchResult> = queries.iter().map(|q| index.search(q, k)).collect();
    // The single-block kernel itself (one scan pass for the whole batch).
    prop_assert_eq!(
        &index.search_block(queries, k),
        &singles,
        "{} search_block diverged",
        backend
    );
    for block in [1usize, 3, 64, queries.len() + 7] {
        let blocked: Vec<SearchResult> = queries
            .chunks(block)
            .flat_map(|b| index.search_block(b, k))
            .collect();
        prop_assert_eq!(
            &blocked,
            &singles,
            "{} diverged at block size {}",
            backend,
            block
        );
    }
    // The auto block size through the batch front door.
    for threads in [1usize, 4, 0] {
        prop_assert_eq!(
            &index.search_batch(queries, k, threads),
            &singles,
            "{} auto-block search_batch diverged at threads={}",
            backend,
            threads
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn blocked_batch_is_bit_identical_on_every_backend(
        n_rows in 4usize..48,
        k in 1usize..40,
        dim in 2usize..5,
        n_classes in 1usize..12,
        n_queries in 1usize..14,
        salt in 0u64..1_000_000,
    ) {
        let (data, labels, queries) = corpus(n_rows, dim, n_classes, n_queries, salt);
        let rows = Rows::new(dim, &data);

        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        assert_blocks_match_singles(&flat, &queries, k, "flat");

        let ivf = IvfIndex::build(IvfParams::auto(), Metric::Euclidean, rows, &labels);
        assert_blocks_match_singles(&ivf, &queries, k, "ivf");

        let pq = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &labels);
        assert_blocks_match_singles(&pq, &queries, k, "pq");
    }

    #[test]
    fn blocked_batch_is_bit_identical_through_the_sharded_store(
        n_rows in 4usize..48,
        shards in 1usize..6,
        k in 1usize..40,
        dim in 2usize..5,
        n_classes in 1usize..12,
        n_queries in 1usize..14,
        salt in 0u64..1_000_000,
    ) {
        let (data, labels, queries) = corpus(n_rows, dim, n_classes, n_queries, salt);
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(dim, &data),
            &labels,
            n_classes,
            shards,
        );
        let singles: Vec<SearchResult> = queries
            .iter()
            .map(|q| store.search_concurrent(q, k, 1))
            .collect();
        for threads in [1usize, 4, 0] {
            prop_assert_eq!(
                &store.search_batch_concurrent(&queries, k, threads),
                &singles,
                "sharded batch fan-out diverged at threads={}",
                threads
            );
        }
    }
}
