//! Concurrency battery for the shard-parallel `ShardedStore`.
//!
//! Edge cases first — `k` beyond any shard's row count, shards left
//! empty by `remove_class`, more shards than classes, and queries
//! racing mutations on a one-row shard — then the tier-1 stress test:
//! writer threads churning disjoint shards while reader threads query,
//! with the final state required to be **bit-identical to a serial
//! replay** of the same per-writer operation logs, and recall@1 of the
//! churned IVF store at least 0.95 against an exact flat scan.
//!
//! Deadlock-freedom is asserted by construction *and* by completion:
//! every store method takes at most one shard lock at a time, so the
//! stress test terminating at all is the no-deadlock check.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{FlatIndex, IndexConfig, IvfParams, Metric, PqParams, Rows, SearchResult};

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17)
}

/// Deterministic pseudo-random coordinate in `[-1, 1)`.
fn coord(h: u64) -> f32 {
    (hash(h) % 2_000) as f32 / 1_000.0 - 1.0
}

/// A well-separated center for `class`: classes live on distinct
/// lattice points so nearest-center queries have unambiguous answers.
fn center(class: usize, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|d| 4.0 * coord((class * 131 + d) as u64))
        .collect()
}

/// `n` rows jittered around `class`'s center; `salt` varies the draw.
fn class_rows(class: usize, dim: usize, n: usize, salt: u64) -> Vec<f32> {
    let c = center(class, dim);
    let mut rows = Vec::with_capacity(n * dim);
    for r in 0..n {
        for (d, &cd) in c.iter().enumerate() {
            let h = salt ^ ((class * 10_007 + r * 97 + d) as u64);
            rows.push(cd + 0.05 * coord(h));
        }
    }
    rows
}

/// Build a flat-backend store: `classes` classes, `per_class` rows
/// each, routed over `shards` shards.
fn build_store(
    config: &IndexConfig,
    dim: usize,
    classes: usize,
    per_class: usize,
    shards: usize,
) -> ShardedStore {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        data.extend_from_slice(&class_rows(c, dim, per_class, 1));
        labels.extend(vec![c; per_class]);
    }
    ShardedStore::build(
        config,
        Metric::Euclidean,
        Rows::new(dim, &data),
        &labels,
        classes,
        shards,
    )
}

/// The monolithic oracle for an exhaustive result: every populated
/// row's `(dist_bits, label)` sorted under `(dist, global id)`.
fn exhaustive_oracle(store: &ShardedStore, query: &[f32]) -> Vec<(u32, usize)> {
    let dim = store.dim();
    let mut all: Vec<(f32, u64, usize)> = Vec::new();
    for s in 0..store.n_shards() {
        let (labels, data) = store.shard_snapshot(s);
        for (local, (row, &label)) in data.chunks_exact(dim).zip(&labels).enumerate() {
            let gid = (local * store.n_shards() + s) as u64;
            all.push((Metric::Euclidean.eval(query, row), gid, label));
        }
    }
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.into_iter().map(|(d, _, l)| (d.to_bits(), l)).collect()
}

fn result_elems(r: &SearchResult) -> Vec<(u32, usize)> {
    r.neighbors
        .iter()
        .map(|n| (n.dist.to_bits(), n.label))
        .collect()
}

#[test]
fn k_beyond_every_shard_returns_all_rows_in_merge_order() {
    // 3 shards x 2 rows: k = 50 dwarfs every shard AND the whole store.
    let store = build_store(&IndexConfig::Flat, 4, 3, 2, 3);
    assert_eq!(store.len(), 6);
    let query = center(1, 4);
    let want = exhaustive_oracle(&store, &query);
    for workers in [1usize, 2, 4, 0] {
        let got = store.search_concurrent(&query, 50, workers);
        assert_eq!(got.neighbors.len(), 6, "all rows must surface");
        assert_eq!(result_elems(&got), want, "merge order at {workers} workers");
        assert_eq!(got.distance_evals, 6);
        let batch = store.search_batch_concurrent(std::slice::from_ref(&query), 50, workers);
        assert_eq!(batch[0], got);
    }
}

#[test]
fn shards_emptied_by_remove_class_still_serve() {
    // 4 classes over 4 shards: removing class 2 leaves shard 2 empty.
    let store = build_store(&IndexConfig::Flat, 4, 4, 3, 4);
    assert_eq!(store.remove_class(2), 3);
    assert_eq!(store.shard_sizes(), vec![3, 3, 0, 3]);

    let query = center(2, 4);
    for workers in [1usize, 3, 0] {
        let got = store.search_concurrent(&query, 4, workers);
        assert_eq!(got.neighbors.len(), 4);
        assert!(
            got.neighbors.iter().all(|n| n.label != 2),
            "removed class must not surface"
        );
        assert_eq!(got.distance_evals, 9, "empty shard contributes zero evals");
        assert_eq!(
            result_elems(&got),
            exhaustive_oracle(&store, &query)[..4].to_vec()
        );
    }

    // Empty the whole store: the merge must degrade to the canonical
    // empty result, not panic on an all-empty fan-out.
    for c in [0usize, 1, 3] {
        store.remove_class(c);
    }
    assert!(store.is_empty());
    for workers in [1usize, 3, 0] {
        let got = store.search_concurrent(&query, 4, workers);
        assert!(got.neighbors.is_empty());
        assert_eq!(got.nearest, f32::INFINITY);
        assert_eq!(got.distance_evals, 0);
        assert_eq!(got.top(), None);
        let batch = store.search_batch_concurrent(std::slice::from_ref(&query), 4, workers);
        assert_eq!(batch[0], got);
    }
}

#[test]
fn more_shards_than_classes_leaves_spare_shards_harmless() {
    // 8 shards, 3 classes: shards 3..8 never receive a row.
    let store = build_store(&IndexConfig::Flat, 4, 3, 2, 8);
    assert_eq!(store.n_shards(), 8);
    assert_eq!(&store.shard_sizes()[3..], &[0, 0, 0, 0, 0]);

    let query = center(0, 4);
    let want = exhaustive_oracle(&store, &query);
    for workers in [1usize, 4, 0] {
        let got = store.search_concurrent(&query, 3, workers);
        assert_eq!(result_elems(&got), want[..3].to_vec());
        assert_eq!(got.neighbors[0].label, 0);
    }

    // A freshly allocated class routes onto one of the spare shards
    // and is immediately servable.
    let new_class = store.allocate_class();
    assert_eq!(new_class, 3);
    let rows = class_rows(new_class, 4, 2, 9);
    store.add_rows(&[new_class, new_class], Rows::new(4, &rows));
    let got = store.search_concurrent(&center(new_class, 4), 1, 0);
    assert_eq!(got.neighbors[0].label, new_class);
}

#[test]
fn queries_race_mutations_on_a_one_row_shard() {
    // Class 1 is alone on shard 1 with a single row; a writer churns
    // it through swap / remove / re-add while readers hammer queries.
    // Readers must never panic, deadlock, or observe a malformed
    // result — the shard oscillates between 0 and 1 rows under them.
    let store = build_store(&IndexConfig::Flat, 4, 2, 1, 2);
    assert_eq!(store.shard_sizes(), vec![1, 1]);
    let done = AtomicBool::new(false);
    let reads = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let store = &store;
        let done = &done;
        let reads = &reads;
        scope.spawn(move || {
            for round in 0..400u64 {
                match round % 3 {
                    0 => {
                        let rows = class_rows(1, 4, 1, round);
                        store.swap_class(1, Rows::new(4, &rows));
                    }
                    1 => {
                        store.remove_class(1);
                    }
                    _ => {
                        let rows = class_rows(1, 4, 1, round);
                        store.add_row(1, &rows[..4]);
                    }
                }
            }
            // Leave the shard populated for the post-join check.
            let rows = class_rows(1, 4, 1, 7);
            store.swap_class(1, Rows::new(4, &rows));
            done.store(true, Ordering::Release);
        });
        for r in 0..2 {
            scope.spawn(move || {
                let query = center(1, 4);
                // Floor of 50 iterations: on a single-core box the
                // writer may finish before a reader is ever scheduled,
                // and the race check still wants real read traffic.
                let mut remaining = 50u32;
                while !done.load(Ordering::Acquire) || remaining > 0 {
                    remaining = remaining.saturating_sub(1);
                    let got = store.search_concurrent(&query, 3, 1 + r);
                    assert!(got.neighbors.len() <= 3);
                    assert!(got.neighbors.iter().all(|n| n.label < 2));
                    assert!(
                        got.neighbors.windows(2).all(|w| w[0].dist <= w[1].dist),
                        "merged neighbors must stay distance-sorted"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });

    assert!(reads.load(Ordering::Relaxed) > 0, "readers must have run");
    let got = store.search_concurrent(&center(1, 4), 1, 0);
    assert_eq!(got.neighbors[0].label, 1, "settled shard serves its row");
}

/// One churn operation, recorded so the concurrent run and the serial
/// replay apply byte-identical mutations.
enum Op {
    Swap { class: usize, rows: Vec<f32> },
    Add { class: usize, row: Vec<f32> },
    Remove { class: usize },
}

fn apply(store: &ShardedStore, dim: usize, op: &Op) {
    match op {
        Op::Swap { class, rows } => {
            store.swap_class(*class, Rows::new(dim, rows));
        }
        Op::Add { class, row } => store.add_row(*class, row),
        Op::Remove { class } => {
            store.remove_class(*class);
        }
    }
}

/// Tier-1 stress test: 4 writers churn disjoint shard sets (class % S
/// routing keeps every writer's mutations on shards no other writer
/// touches) while 4 readers query concurrently. Afterwards the store
/// must equal — `PartialEq`, which compares every shard's backend,
/// rows included — a serial replay of the same logs, its
/// searches must be bit-identical to the replay's, and recall@1 of
/// the churned IVF store must be >= 0.95 against an exact flat scan.
#[test]
fn writer_reader_stress_matches_serial_replay() {
    const DIM: usize = 8;
    const SHARDS: usize = 8;
    const CLASSES: usize = 16;
    const WRITERS: usize = 4;
    const ROUNDS: u64 = 6;

    let config = IndexConfig::Ivf(IvfParams::new(2, 1));
    let initial = build_store(&config, DIM, CLASSES, 6, SHARDS);

    // Writer w owns shards {w, w + 4}; with 16 classes and class % 8
    // routing that is classes {w, w+4, w+8, w+12} — disjoint per writer.
    let scripts: Vec<Vec<Op>> = (0..WRITERS)
        .map(|w| {
            let owned: Vec<usize> = (0..CLASSES)
                .filter(|c| c % SHARDS == w || c % SHARDS == w + WRITERS)
                .collect();
            let mut ops = Vec::new();
            for round in 0..ROUNDS {
                for &class in &owned {
                    match (round as usize + class) % 3 {
                        0 => ops.push(Op::Swap {
                            class,
                            rows: class_rows(class, DIM, 5, 100 + round),
                        }),
                        1 => ops.push(Op::Add {
                            class,
                            row: class_rows(class, DIM, 1, 200 + round),
                        }),
                        _ => {
                            ops.push(Op::Remove { class });
                            ops.push(Op::Add {
                                class,
                                row: class_rows(class, DIM, 1, 300 + round),
                            });
                        }
                    }
                }
            }
            // Settle: every owned class ends on a clean draw near its
            // center so the recall check below has a live target.
            for &class in &owned {
                ops.push(Op::Swap {
                    class,
                    rows: class_rows(class, DIM, 5, 999),
                });
            }
            ops
        })
        .collect();

    let concurrent = initial.clone();
    let done = AtomicBool::new(false);
    let pending = AtomicUsize::new(WRITERS);
    std::thread::scope(|scope| {
        let store = &concurrent;
        let done = &done;
        let pending = &pending;
        for script in &scripts {
            scope.spawn(move || {
                for op in script {
                    apply(store, DIM, op);
                }
                if pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                    done.store(true, Ordering::Release);
                }
            });
        }
        for r in 0..4usize {
            scope.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let class = r * 3;
                    let got = store.search_concurrent(&center(class, DIM), 3, 0);
                    assert!(got.neighbors.len() <= 3);
                    assert!(got.neighbors.iter().all(|n| n.label < CLASSES));
                    let batch = store.search_batch_concurrent(
                        &[center(class + 1, DIM), center(class + 2, DIM)],
                        3,
                        2,
                    );
                    assert_eq!(batch.len(), 2);
                }
            });
        }
    });

    // Serial replay: same per-writer logs, applied one writer at a
    // time. Each shard sees exactly the op sequence of its one owner,
    // in the same order as the concurrent run, so the stores must be
    // equal down to every shard's backend.
    let replay = initial.clone();
    for script in &scripts {
        for op in script {
            apply(&replay, DIM, op);
        }
    }
    assert_eq!(concurrent, replay, "churned store must equal serial replay");

    let queries: Vec<Vec<f32>> = (0..CLASSES).map(|c| center(c, DIM)).collect();
    for workers in [1usize, 4, 0] {
        let a = concurrent.search_batch_concurrent(&queries, 3, workers);
        let b = replay.search_batch_concurrent(&queries, 3, workers);
        assert_eq!(a, b, "decisions must be bit-identical at {workers} workers");
    }

    // Recall@1 after churn: IVF answers vs an exact flat scan.
    let mut exact = concurrent.clone();
    exact.set_index(IndexConfig::Flat);
    let hits = queries
        .iter()
        .filter(|q| {
            let ivf_top = concurrent.search_concurrent(q, 1, 0).neighbors[0].label;
            let flat_top = exact.search_concurrent(q, 1, 0).neighbors[0].label;
            ivf_top == flat_top
        })
        .count();
    let recall = hits as f64 / queries.len() as f64;
    assert!(recall >= 0.95, "recall@1 after churn was {recall:.3}");
}

/// Balance diagnostics stay well-defined as `remove_class` drains
/// shards: every skew and mean is finite (never `inf`/NaN), a drained
/// store reports 0.0 across the board, and under mixed per-shard
/// backends the aggregated IVF `mean_list` counts only the rows of the
/// shards that actually serve lists.
#[test]
fn balance_stats_stay_finite_on_drained_and_mixed_shards() {
    let store = build_store(&IndexConfig::Ivf(IvfParams::new(2, 2)), 4, 4, 3, 4);

    // Drain one shard; stats must stay finite and lists consistent.
    store.remove_class(2);
    assert_eq!(store.shard_sizes(), vec![3, 3, 0, 3]);
    let b = store.balance_stats();
    assert!(b.shard_skew.is_finite() && b.mean_shard.is_finite());
    assert!(b.shard_skew >= 1.0, "populated store: max >= mean");
    let lists = b.ivf_lists.expect("IVF shards report lists");
    assert!(lists.skew.is_finite() && lists.mean_list.is_finite());
    assert_eq!((lists.mean_list * lists.n_lists as f64).round() as usize, 9);

    // Drain everything: skews pin to 0.0, not inf or NaN.
    for c in [0usize, 1, 3] {
        store.remove_class(c);
    }
    assert!(store.is_empty());
    let b = store.balance_stats();
    assert_eq!(b.max_shard, 0);
    assert_eq!(b.mean_shard, 0.0);
    assert_eq!(b.shard_skew, 0.0);
    let lists = b.ivf_lists.expect("empty IVF shards still report");
    assert_eq!(lists.max_list, 0);
    assert_eq!(lists.mean_list, 0.0);
    assert_eq!(lists.skew, 0.0);

    // Mixed backends: move shard 1's rows off IVF. The IVF aggregate
    // must now divide by the *listed* shards' rows only — a flat (or
    // PQ) shard's rows must not inflate `mean_list`.
    let mut mixed = build_store(&IndexConfig::Ivf(IvfParams::new(2, 2)), 4, 4, 3, 2);
    mixed.set_shard_index(1, &IndexConfig::Flat);
    let b = mixed.balance_stats();
    let lists = b.ivf_lists.expect("shard 0 still serves IVF");
    // Shard 0 holds classes {0, 2} = 6 rows over its 2 lists.
    assert_eq!((lists.mean_list * lists.n_lists as f64).round() as usize, 6);
    assert!(lists.skew.is_finite());
}

/// Satellite of the PQ work: a store whose shards run *different*
/// backends (PQ / IVF / flat) keeps serving exact decisions where its
/// shards are exact, compares equal to itself through `PartialEq`
/// (which descends into each shard's backend), and serde round-trips
/// each shard's actual backend faithfully.
#[test]
fn mixed_per_shard_configs_serve_compare_and_round_trip() {
    let mut store = build_store(&IndexConfig::Flat, 4, 6, 4, 3);
    store.set_shard_index(0, &IndexConfig::pq_default());
    store.set_shard_index(1, &IndexConfig::ivf_default());
    // Shard 2 stays flat.

    // Every class still resolves to itself at top-1 (well-separated
    // centers; PQ re-ranks exactly, IVF probes its nearest lists).
    for class in 0..6 {
        let got = store.search_concurrent(&center(class, 4), 1, 0);
        assert_eq!(got.neighbors[0].label, class, "class {class} top-1");
    }

    // Clone → equal, including each shard's backend.
    let clone = store.clone();
    assert_eq!(clone, store);

    // Serde round-trip preserves the mixed backends: the rehydrated
    // store is equal AND bit-identical on a query battery.
    let json = serde_json::to_string(&store).unwrap();
    let back: ShardedStore = serde_json::from_str(&json).unwrap();
    assert_eq!(back, store, "mixed-config store must round-trip");
    let queries: Vec<Vec<f32>> = (0..6).map(|c| center(c, 4)).collect();
    for workers in [1usize, 2, 0] {
        assert_eq!(
            back.search_batch_concurrent(&queries, 3, workers),
            store.search_batch_concurrent(&queries, 3, workers),
            "round-tripped store must serve bit-identical results"
        );
    }

    // Mutations through the store still land on the overridden
    // backends.
    assert_eq!(store.remove_class(0), 4); // shard 0 (PQ)
    assert_eq!(store.remove_class(1), 4); // shard 1 (IVF)
    assert_eq!(store.len(), 16);
    let got = store.search_concurrent(&center(0, 4), 16, 0);
    // The PQ and flat shards surface all their survivors; the IVF
    // shard is probe-limited, so only a lower bound holds there.
    assert!(got.neighbors.len() >= 12, "got {}", got.neighbors.len());
    assert!(got.neighbors.iter().all(|n| n.label != 0 && n.label != 1));
    let b = store.balance_stats();
    assert!(b.shard_skew.is_finite());

    // A whole-store rebuild reverts every shard to the store config.
    store.set_index(IndexConfig::Flat);
    let oracle = exhaustive_oracle(&store, &center(3, 4));
    let got = store.search_concurrent(&center(3, 4), 4, 0);
    assert_eq!(result_elems(&got), oracle[..4].to_vec());
}

/// One churn script under Flat, IVF and PQ leaves every shard with the
/// same rows in the same insertion order — the export every rebuild
/// starts from. IVF spreads rows over lists and must gather them back
/// by id. So converting the IVF and PQ stores to Flat yields the Flat
/// store exactly, and a Flat → IVF → PQ → Flat round trip is the
/// identity.
#[test]
fn rebuilds_keep_insertion_order_on_every_backend() {
    const DIM: usize = 4;
    let configs = [
        IndexConfig::Flat,
        IndexConfig::Ivf(IvfParams::new(3, 1)),
        IndexConfig::pq_default(),
    ];
    for shards in [1usize, 3] {
        let churned: Vec<ShardedStore> = configs
            .iter()
            .map(|config| {
                let store = build_store(config, DIM, 6, 5, shards);
                store.swap_class(2, Rows::new(DIM, &class_rows(2, DIM, 3, 11)));
                assert_eq!(store.remove_class(4), 5);
                let new_class = store.allocate_class();
                let rows = class_rows(new_class, DIM, 2, 12);
                store.add_rows(&[new_class; 2], Rows::new(DIM, &rows));
                store.swap_class(0, Rows::new(DIM, &class_rows(0, DIM, 4, 13)));
                store.add_rows(&[4], Rows::new(DIM, &class_rows(4, DIM, 1, 14)));
                store
            })
            .collect();
        let flat = &churned[0];
        for (config, store) in configs.iter().zip(&churned).skip(1) {
            let mut rebuilt = store.clone();
            rebuilt.set_index(IndexConfig::Flat);
            assert_eq!(&rebuilt, flat, "{config:?} at shards={shards}");
        }
        let mut round_trip = flat.clone();
        for config in [configs[1], configs[2], IndexConfig::Flat] {
            round_trip.set_index(config);
        }
        assert_eq!(&round_trip, flat, "round trip at shards={shards}");
    }
}

/// The formatted panic message `f` raised; fails if `f` returned.
fn panic_message<R>(f: impl FnOnce() -> R) -> String {
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    *payload
        .err()
        .expect("a wrong-dimension query was served")
        .downcast::<String>()
        .expect("a formatted panic message")
}

/// Every query entry refuses a query of the wrong dimension with a
/// panic naming both dims — each backend, full and empty, and the
/// store at one and three shards (two classes leave the third shard
/// empty) — instead of serving it or slicing out of bounds.
#[test]
fn wrong_dimension_queries_panic_naming_both_dims() {
    const DIM: usize = 4;
    for config in [
        IndexConfig::Flat,
        IndexConfig::ivf_default(),
        IndexConfig::Pq(PqParams::auto()),
    ] {
        let stores = [1usize, 3].map(|shards| build_store(&config, DIM, 2, 6, shards));
        let (labels, data) = stores[0].shard_snapshot(0);
        let full = config.build(Metric::Euclidean, Rows::new(DIM, &data), &labels);
        let empty = config.build(Metric::Euclidean, Rows::new(DIM, &[]), &[]);
        for bad in [3usize, 5] {
            let query = vec![0.5f32; bad];
            let block = [query.clone()];
            let mut messages = vec![
                panic_message(|| full.search(&query, 3)),
                panic_message(|| empty.search_block(&block, 3)),
            ];
            for store in &stores {
                messages.push(panic_message(|| store.search_concurrent(&query, 3, 1)));
                messages.push(panic_message(|| {
                    store.search_batch_concurrent(&block, 3, 2)
                }));
            }
            for message in &messages {
                assert!(
                    message.contains("query dim mismatch")
                        && message.contains(&format!("left: {bad}"))
                        && message.contains(&format!("right: {DIM}")),
                    "{config:?} dim {bad}: {message}"
                );
            }
        }
    }
}

/// Each shard is one backend holding its rows once: a flat store
/// serializes to about the summed JSON of one `FlatIndex` per shard
/// (a second row buffer per shard would double it), and a snapshot
/// whose shards carry the older `{labels, data, index}` two-copy shape
/// is refused with an error rather than loaded.
#[test]
fn store_serializes_each_row_once_and_refuses_two_copy_shards() {
    const DIM: usize = 8;
    for shards in [1usize, 3] {
        let store = build_store(&IndexConfig::Flat, DIM, 9, 20, shards);
        let json = serde_json::to_string(&store).unwrap();
        let mut backends_len = 0usize;
        let mut two_copy_shards = Vec::new();
        for s in 0..store.n_shards() {
            let (labels, data) = store.shard_snapshot(s);
            let flat = FlatIndex::from_rows(Metric::Euclidean, Rows::new(DIM, &data), &labels);
            let flat_json = serde_json::to_string(&flat).unwrap();
            backends_len += flat_json.len();
            two_copy_shards.push(format!(
                r#"{{"labels":{},"data":{},"index":{{"Flat":{flat_json}}}}}"#,
                serde_json::to_string(&labels).unwrap(),
                serde_json::to_string(&data).unwrap(),
            ));
        }
        let ratio = json.len() as f64 / backends_len as f64;
        assert!(
            ratio < 1.2,
            "store JSON is {ratio:.3}x its backends at shards={shards}"
        );

        let head = &json[..json.find(r#""shards":"#).expect("shards key")];
        let two_copy = format!(r#"{head}"shards":[{}]}}"#, two_copy_shards.join(","));
        assert!(
            serde_json::from_str::<ShardedStore>(&two_copy).is_err(),
            "a two-copy snapshot loaded at shards={shards}"
        );
    }
}
