//! Property tests for the concurrent fan-out/merge: over random shard
//! counts, `k`, and corpora full of exact duplicate rows (guaranteed
//! distance ties), the sharded search must be element-identical to a
//! monolithic sorted scan under the `(dist, global id)` tie-break, and
//! bit-identical to itself at every worker count.
//!
//! The distance-bit sequence, `nearest` bits and eval count of the
//! merged top-k equal the monolithic scan's, and so do its elements —
//! ids and labels included; and the one-worker pass, the single-query
//! fan-out and the batch fan-out agree bit-for-bit at worker counts
//! {1, 2, 5, 0}.

use proptest::prelude::*;

use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{IndexConfig, Metric, Rows};

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// A coarse-grid coordinate: few distinct values => frequent exact
/// distance ties even between non-duplicate rows.
fn grid_coord(h: u64) -> f32 {
    (h % 5) as f32 * 0.5
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fanout_merge_matches_monolithic_sorted_scan(
        n_rows in 4usize..48,
        shards in 1usize..9,
        k in 1usize..40,
        dim in 2usize..5,
        n_classes in 1usize..12,
        salt in 0u64..1_000_000,
    ) {
        // Half the rows are exact copies of earlier rows: duplicate
        // distances are guaranteed, not just likely.
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
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(dim, &data),
            &labels,
            n_classes,
            shards,
        );
        prop_assert_eq!(store.n_shards(), shards);

        // Replay the build's routing to learn each row's global id:
        // local insertion order within its shard, then local*S + s.
        let mut per_shard = vec![0u64; shards];
        let gids: Vec<u64> = labels
            .iter()
            .map(|&l| {
                let s = l % shards;
                let gid = per_shard[s] * shards as u64 + s as u64;
                per_shard[s] += 1;
                gid
            })
            .collect();

        let queries: Vec<Vec<f32>> = (0..4)
            .map(|qi| {
                (0..dim)
                    .map(|d| grid_coord(hash(salt ^ hash(900 + qi * 13 + d as u64))))
                    .collect()
            })
            .collect();

        let serial: Vec<_> = queries
            .iter()
            .map(|q| store.search_concurrent(q, k, 1))
            .collect();
        for (q, got) in queries.iter().zip(&serial) {
            // The monolithic oracle: every row's (dist, gid, label),
            // one sort under the (dist, id) tie-break, truncate to k.
            let mut all: Vec<(f32, u64, usize)> = data
                .chunks_exact(dim)
                .zip(gids.iter().zip(&labels))
                .map(|(row, (&g, &l))| (Metric::Euclidean.eval(q, row), g, l))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Vec<(u32, u64, usize)> = all
                .iter()
                .take(k.max(1))
                .map(|&(d, g, l)| (d.to_bits(), g, l))
                .collect();

            let got_dists: Vec<u32> = got.neighbors.iter().map(|n| n.dist.to_bits()).collect();
            let want_dists: Vec<u32> = want.iter().map(|&(d, _, _)| d).collect();
            prop_assert_eq!(got_dists, want_dists, "distance profile diverged");
            prop_assert_eq!(got.nearest.to_bits(), all[0].0.to_bits());
            prop_assert_eq!(got.distance_evals, n_rows as u64);
            let got_elems: Vec<(u32, u64, usize)> = got
                .neighbors
                .iter()
                .map(|n| (n.dist.to_bits(), n.id, n.label))
                .collect();
            prop_assert_eq!(got_elems, want, "element identity diverged");
        }

        // Worker-count invariance: single-query fan-out and the batch
        // front door are bit-identical to the one-worker pass.
        for workers in [1usize, 2, 5, 0] {
            for (q, want) in queries.iter().zip(&serial) {
                prop_assert_eq!(
                    &store.search_concurrent(q, k, workers),
                    want,
                    "search_concurrent diverged at {} workers",
                    workers
                );
            }
            prop_assert_eq!(
                &store.search_batch_concurrent(&queries, k, workers),
                &serial,
                "search_batch_concurrent diverged at {} workers",
                workers
            );
        }
    }
}
