//! Property tests for the flat backend's list layout: a store built with
//! at least `LIST_MIN_ROWS` rows keeps them in k-means lists and skips
//! every list a triangle-inequality bound rules out of the top-k. It must
//! still return a naive scan's result bit for bit:
//!
//! - over 512–5,000 rows — exact duplicates, coarse-grid ties, and rows
//!   and queries holding NaN, ±inf, −0.0 and subnormals — every
//!   neighbor's `(dist bits, id, label)` and `nearest`'s bits equal a
//!   naive `(dist, position)` sort's, at `k` ∈ {1, 15, 250, n + 5} and
//!   block sizes {1, 3, all}, at no more than rows + lists evals;
//! - through interleaved `swap_label` / `remove_label` / `add`, `export`
//!   equals a row-major model and ids stay model positions;
//! - a `ShardedStore` of multi-list shards serves the same full
//!   `SearchResult`s, evals included, at workers {1, 2, 5, 0};
//! - a snapshot round trip after churn serves identical results, and a
//!   snapshot that could make the scan inexact or panic is refused.

use proptest::prelude::*;

use tlsfp_index::flat::{LIST_MIN_ROWS, ROWS_PER_LIST};
use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{FlatIndex, IndexConfig, Metric, Rows, SearchResult, VectorIndex};

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Values a row or query coordinate may take besides the grid.
const SPECIALS: [f32; 6] = [
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -0.0,
    1e-40, // subnormal
    -1e-39,
];

/// `n` rows in a few blobs on a 0.25 grid (exact duplicates and distance
/// ties are common), labeled in runs; with `specials`, about one row in
/// 300 carries a special value.
fn corpus(n: usize, dim: usize, salt: u64, specials: bool) -> (Vec<f32>, Vec<usize>) {
    let blobs = 3 + salt % 9;
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n as u64 {
        let src = if i % 3 == 0 { i / 2 } else { i }; // planted duplicates
        let blob = hash(salt ^ src) % blobs;
        for d in 0..dim as u64 {
            let center = (hash(salt + blob * 31 + d) % 41) as f32 - 20.0;
            let offset = (hash(salt ^ hash(src * 131 + d)) % 9) as f32 * 0.25;
            data.push(center + offset);
        }
        if specials && hash(salt ^ !i) % 300 == 0 {
            let at = i as usize * dim + (hash(i) % dim as u64) as usize;
            data[at] = SPECIALS[(hash(salt + i) % SPECIALS.len() as u64) as usize];
        }
    }
    let labels = (0..n).map(|i| (i / 7) % 23).collect();
    (data, labels)
}

/// Queries: copies of stored rows (distance-zero ties), rows nudged off
/// the grid, far-away points, and special-valued queries.
fn queries(data: &[f32], dim: usize, salt: u64, n: usize) -> Vec<Vec<f32>> {
    let rows = data.len() / dim;
    (0..n as u64)
        .map(|qi| {
            let row = &data[(hash(salt ^ qi) % rows as u64) as usize * dim..][..dim];
            let mut q = row.to_vec();
            match qi % 5 {
                0 => {}
                1 => q.iter_mut().for_each(|v| *v += 0.1),
                2 => q.iter_mut().for_each(|v| *v = -*v * 3.0),
                3 => q[0] = SPECIALS[(qi / 5) as usize % SPECIALS.len()],
                _ => q.iter_mut().for_each(|v| *v += 0.125),
            }
            q
        })
        .collect()
}

type Bits = Vec<(u32, u64, usize)>;

fn bits(r: &SearchResult) -> Bits {
    r.neighbors
        .iter()
        .map(|n| (n.dist.to_bits(), n.id, n.label))
        .collect()
}

/// A whole result by bits — `==` on `SearchResult` fails on NaN.
fn all_bits(rs: &[SearchResult]) -> Vec<(Bits, u32, u64)> {
    rs.iter()
        .map(|r| (bits(r), r.nearest.to_bits(), r.distance_evals))
        .collect()
}

/// The naive oracle: every row's `(dist, position, label)` sorted by
/// `(dist, position)` under `total_cmp`, and `nearest` folded by
/// `f32::min`, as `TopK` folds it.
fn naive(data: &[f32], labels: &[usize], dim: usize, q: &[f32]) -> (Bits, u32) {
    let mut all: Vec<(f32, u64, usize)> = data
        .chunks_exact(dim)
        .zip(labels)
        .enumerate()
        .map(|(i, (row, &l))| (Metric::Euclidean.eval(q, row), i as u64, l))
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let nearest = all.iter().fold(f32::INFINITY, |m, a| m.min(a.0));
    let bits = all.iter().map(|&(d, i, l)| (d.to_bits(), i, l)).collect();
    (bits, nearest.to_bits())
}

/// Asserts `ix` (holding `data`/`labels` in id order) answers every
/// query as the oracle at every `k` and block size, and that blocking
/// never changes a result.
fn check_against_oracle(ix: &FlatIndex, data: &[f32], labels: &[usize], qs: &[Vec<f32>]) {
    let dim = ix.dim();
    let n = ix.len();
    let oracles: Vec<(Bits, u32)> = qs.iter().map(|q| naive(data, labels, dim, q)).collect();
    for k in [1usize, 15, 250, n + 5] {
        let singles: Vec<SearchResult> = qs.iter().map(|q| ix.search(q, k)).collect();
        for (qi, (got, (want, nearest))) in singles.iter().zip(&oracles).enumerate() {
            prop_assert_eq!(&bits(got), &want[..k.min(n)], "query {} k {}", qi, k);
            prop_assert_eq!(got.nearest.to_bits(), *nearest, "query {} k {}", qi, k);
            prop_assert!(got.distance_evals <= (n + ix.n_lists()) as u64);
        }
        for block in [1usize, 3, qs.len()] {
            let blocked: Vec<SearchResult> = qs
                .chunks(block)
                .flat_map(|b| ix.search_block(b, k))
                .collect();
            prop_assert_eq!(
                all_bits(&blocked),
                all_bits(&singles),
                "k {} block {}",
                k,
                block
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn list_scan_equals_the_naive_sort(
        n in LIST_MIN_ROWS..5_000usize,
        dim in 1usize..9,
        salt in 0u64..1_000_000,
        specials in prop::bool::ANY,
    ) {
        let (data, labels) = corpus(n, dim, salt, specials);
        let ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(dim, &data), &labels);
        prop_assert_eq!(ix.n_lists(), n / ROWS_PER_LIST);
        let qs = queries(&data, dim, salt, 10);
        check_against_oracle(&ix, &data, &labels, &qs);
    }

    #[test]
    fn churn_keeps_the_scan_exact_and_the_export_a_model(
        n in LIST_MIN_ROWS..1_500usize,
        dim in 1usize..7,
        salt in 0u64..1_000_000,
        ops in prop::collection::vec((0u8..3, 0usize..23, 0usize..40), 1..12),
    ) {
        let (data, labels) = corpus(n, dim, salt, salt % 2 == 0);
        let mut ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(dim, &data), &labels);
        let mut model: Vec<(usize, Vec<f32>)> = labels
            .iter()
            .zip(data.chunks_exact(dim))
            .map(|(&l, row)| (l, row.to_vec()))
            .collect();
        for (step, &(op, label, count)) in ops.iter().enumerate() {
            // Stored values moved off the grid, some scaled out of
            // their blob: an add far from every centroid must grow the
            // radius of the list it joins.
            let scale = 1.0 + (step % 3) as f32;
            let fresh: Vec<f32> = (0..count * dim)
                .map(|v| data[(v * 7 + step * 13) % data.len()] * scale + 0.5)
                .collect();
            match op {
                0 => {
                    let removed = ix.swap_label(label, Rows::new(dim, &fresh));
                    let before = model.len();
                    model.retain(|(l, _)| *l != label);
                    prop_assert_eq!(removed, before - model.len());
                    model.extend(fresh.chunks_exact(dim).map(|r| (label, r.to_vec())));
                }
                1 => {
                    let before = model.len();
                    model.retain(|(l, _)| *l != label);
                    prop_assert_eq!(ix.remove_label(label), before - model.len());
                }
                _ => {
                    for row in fresh.chunks_exact(dim) {
                        ix.add(label, row);
                        model.push((label, row.to_vec()));
                    }
                }
            }
            let (want_labels, want_data): (Vec<usize>, Vec<Vec<f32>>) =
                model.iter().cloned().unzip();
            let want_data = want_data.concat();
            let (got_labels, got_data) = ix.export();
            prop_assert_eq!(&got_labels, &want_labels);
            let as_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(as_bits(&got_data), as_bits(&want_data));
            prop_assert_eq!(ix.labels(), &want_labels[..]);
            let qs = queries(&want_data, dim, salt ^ step as u64, 4);
            check_against_oracle(&ix, &want_data, &want_labels, &qs);
        }
    }
}

/// Three classes' shards of 600–700 rows each, all in lists: the fan-out
/// serves the same full results — evals included — at every worker
/// count, single queries and batches alike, and each equals the global
/// oracle under ids `local · S + s`.
#[test]
fn sharded_multi_list_results_are_equal_at_every_worker_count() {
    let (dim, shards, n) = (5, 3, 2_000);
    let (data, _) = corpus(n, dim, 77, true);
    let labels: Vec<usize> = (0..n).map(|i| i % 9).collect();
    let store = ShardedStore::build(
        &IndexConfig::Flat,
        Metric::Euclidean,
        Rows::new(dim, &data),
        &labels,
        9,
        shards,
    );
    // Each shard's rows in routing order, and their global ids.
    let mut gids = vec![0u64; n];
    let mut next = [0u64; 3];
    for (i, &l) in labels.iter().enumerate() {
        let s = l % shards;
        gids[i] = next[s] * shards as u64 + s as u64;
        next[s] += 1;
    }
    assert!(next.iter().all(|&len| len as usize >= LIST_MIN_ROWS));
    let qs = queries(&data, dim, 78, 12);
    for k in [1usize, 15, 250] {
        let serial: Vec<SearchResult> = qs
            .iter()
            .map(|q| store.search_concurrent(q, k, 1))
            .collect();
        for (q, got) in qs.iter().zip(&serial) {
            let mut all: Vec<(f32, u64, usize)> = data
                .chunks_exact(dim)
                .zip(gids.iter().zip(&labels))
                .map(|(row, (&g, &l))| (Metric::Euclidean.eval(q, row), g, l))
                .collect();
            all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let want: Bits = all[..k]
                .iter()
                .map(|&(d, g, l)| (d.to_bits(), g, l))
                .collect();
            assert_eq!(bits(got), want, "k {k}");
            let nearest = all.iter().fold(f32::INFINITY, |m, a| m.min(a.0));
            assert_eq!(got.nearest.to_bits(), nearest.to_bits());
            assert!(got.distance_evals <= n as u64 + 6);
        }
        for workers in [1usize, 2, 5, 0] {
            let singles: Vec<SearchResult> = qs
                .iter()
                .map(|q| store.search_concurrent(q, k, workers))
                .collect();
            assert_eq!(all_bits(&singles), all_bits(&serial), "workers {workers}");
            assert_eq!(
                all_bits(&store.search_batch_concurrent(&qs, k, workers)),
                all_bits(&serial),
                "batch at workers {workers}"
            );
        }
    }
}

/// Replaces `key`'s array in a snapshot's JSON with `f` of it.
fn edit(json: &str, key: &str, f: impl Fn(&mut Vec<serde::json::Value>)) -> String {
    let mut v = serde::json::parse(json).unwrap();
    let serde::json::Value::Object(pairs) = &mut v else {
        panic!("a snapshot is an object")
    };
    let (_, serde::json::Value::Array(items)) = pairs.iter_mut().find(|(k, _)| k == key).unwrap()
    else {
        panic!("`{key}` is an array")
    };
    f(items);
    let mut out = String::new();
    serde::json::write_compact(&v, &mut out);
    out
}

#[test]
fn snapshot_round_trip_after_churn_serves_identical_results() {
    let dim = 4;
    let (data, labels) = corpus(1_300, dim, 5, false);
    let mut ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(dim, &data), &labels);
    ix.swap_label(3, Rows::new(dim, &data[..60]));
    ix.remove_label(11);
    ix.add(40, &[100.0, -100.0, 100.0, -100.0]);
    let json = serde_json::to_string(&ix).unwrap();
    let back: FlatIndex = serde_json::from_str(&json).unwrap();
    assert_eq!(back, ix);
    assert_eq!(serde_json::to_string(&back).unwrap(), json);
    let qs = queries(&data, dim, 6, 16);
    for k in [1usize, 15, 250] {
        assert_eq!(
            all_bits(&back.search_batch(&qs, k, 2)),
            all_bits(&ix.search_batch(&qs, k, 2))
        );
    }

    let refused = |json: String, why: &str| {
        let got: Result<FlatIndex, _> = serde_json::from_str(&json);
        assert!(got.is_err(), "loaded a snapshot with {why}");
    };
    refused(edit(&json, "radii", |r| drop(r.pop())), "a radius missing");
    refused(
        edit(&json, "lists", |l| drop(l.pop())),
        "a row's list missing",
    );
    refused(
        edit(&json, "lists", |l| l[7] = serde::json::Value::Int(1 << 20)),
        "a list index out of range",
    );
    refused(
        edit(&json, "radii", |r| r[1] = serde::json::Value::Float(0.5)),
        "a radius below its members",
    );
}
