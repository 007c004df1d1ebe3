//! The sharded reference store: class-partitioned storage with one
//! serving index per shard — the 13k-class serving layout — and a
//! lock-per-shard execution model that lets queries fan out across a
//! worker pool while mutations touch only the owning shard's lock.
//!
//! A single [`crate::FlatIndex`] or [`crate::IvfIndex`] holds every
//! reference embedding in one monolith, and provisioning materializes
//! the whole corpus's embeddings at once. Neither survives the paper's
//! large-scale regime (thousands of monitored classes): build peak
//! memory grows with the corpus, and every mutation contends on one
//! structure. [`ShardedStore`] partitions **classes** across `S` shards
//! instead:
//!
//! - **Routing is deterministic and stateless**: class `c` lives on
//!   shard [`shard_of`]`(c, S) = c % S`, so a label alone names its
//!   shard — no directory, no rebalancing state to serialize.
//! - **Each shard is one backend, behind its own lock**: a
//!   [`ServingIndex`] ([`IndexConfig::Flat`], [`IndexConfig::Ivf`] or
//!   [`IndexConfig::Pq`] per shard) that holds the shard's rows once,
//!   wrapped in one `RwLock`. Rebuilds start from the backend's own
//!   insertion-order [`export`](crate::VectorIndex::export). Because
//!   `class % S` routing means no mutation ever crosses a shard, the
//!   locks never need to be held together — see the concurrency model
//!   below.
//! - **Provisioning is shard-bounded**: [`ShardedStore::load_shard`]
//!   ingests one shard's embeddings at a time, so the embedding
//!   scratch peaks at the largest shard, not the whole corpus.
//! - **Mutations touch one shard's write lock**:
//!   [`ShardedStore::swap_class`], [`ShardedStore::remove_class`] and
//!   [`ShardedStore::add_row`] take `&self`, route to the owning
//!   shard, and lock only it; churn on one webpage never blocks
//!   queries or churn on another shard.
//! - **Queries fan out and merge deterministically**: every shard is
//!   searched under its read lock and the per-shard top-k merge under
//!   a fixed `(distance, id)` tie-break, so results are identical for
//!   every thread count. Every shard count — `S = 1` included — takes
//!   this one path, and the merge is the one place neighbors get their
//!   `(dist, id)` order (backends keep their own). Across *different*
//!   shard counts, exact backends serve identical decisions up to one
//!   edge case: the merge breaks an exact distance tie at the k-th
//!   neighbor by global id, and global ids depend on `S`. Real
//!   embeddings don't produce such ties; the tier-1 profile tests hold
//!   full identity on every corpus.
//!
//! # Concurrency model
//!
//! Three rules make the store deadlock-free and deterministic at the
//! same time:
//!
//! 1. **One lock at a time.** No method ever acquires a second shard
//!    lock while holding one. Queries lock shards one after another
//!    (or one per worker); mutations lock exactly the owning shard;
//!    whole-store operations ([`ShardedStore::set_shards`],
//!    [`ShardedStore::set_index`], [`ShardedStore::load_shard`]) take
//!    `&mut self`, which the borrow checker proves exclusive — they
//!    use no locks at all. With no thread ever waiting on a second
//!    lock, a cycle in the wait-for graph — the precondition for
//!    deadlock — cannot form.
//! 2. **(Shard × query-block) fan-out.** [`ShardedStore::search_batch_concurrent`]
//!    hands each worker a *(shard, query-block)* pair: the worker
//!    read-locks its shard once, runs one contiguous block of
//!    [`crate::kernels::auto_query_block`] queries against it through
//!    the blocked scan kernel ([`crate::VectorIndex::search_block`]), and
//!    releases. One query's scan is never split across threads, so no
//!    floating-point reduction ever changes order — blocking only
//!    decides *which* queries share a worker's row loads.
//! 3. **Ordered commit.** Workers finish in any order, but per-shard
//!    results are merged strictly in shard order (ids remapped, then
//!    the `k` smallest selected and sorted under `(dist, global id)`),
//!    so the merged neighbor list, the `nearest` fold and the eval
//!    counter are bit-identical to the sequential pass at every worker
//!    count.
//!
//! Every query takes this one fan-out and merge:
//! [`ShardedStore::search_concurrent`] is a batch of one through
//! [`ShardedStore::search_batch_concurrent`], which `tlsfp-core`
//! serves every decision through.

use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use tlsfp_nn::parallel::{map_elems, resolve_threads};
use tlsfp_telemetry::Gauge;

use crate::ivf::BalanceStats;
use crate::{IndexConfig, Metric, Neighbor, Rows, SearchResult, ServingIndex};

/// The shard that owns `class` under `n_shards`-way partitioning.
///
/// Stateless and deterministic: `class % n_shards`. Contiguous class
/// ids (the corpus convention) spread evenly, and a class allocated
/// later ([`ShardedStore::allocate_class`]) routes without any
/// directory update.
///
/// ```
/// use tlsfp_index::sharded::shard_of;
/// assert_eq!(shard_of(0, 4), 0);
/// assert_eq!(shard_of(7, 4), 3);
/// assert_eq!(shard_of(7, 1), 0); // one shard owns everything
/// ```
#[inline]
pub fn shard_of(class: usize, n_shards: usize) -> usize {
    class % n_shards.max(1)
}

/// Resolves the shard-count knob: `0` means auto — `⌈√n_classes⌉`, the
/// scaling point where per-shard size and shard count grow together —
/// and any explicit value is clamped to at least 1.
///
/// ```
/// use tlsfp_index::sharded::resolve_shards;
/// assert_eq!(resolve_shards(0, 100), 10);   // auto: √100
/// assert_eq!(resolve_shards(0, 13_000), 115); // auto: ⌈√13000⌉
/// assert_eq!(resolve_shards(4, 100), 4);    // explicit wins
/// assert_eq!(resolve_shards(0, 0), 1);      // never zero shards
/// ```
pub fn resolve_shards(requested: usize, n_classes: usize) -> usize {
    if requested == 0 {
        ((n_classes as f64).sqrt().ceil() as usize).max(1)
    } else {
        requested
    }
}

/// Appends each labeled row to its shard's `(labels, row_data)` buffer
/// under `class % parts.len()` routing, keeping input order per shard.
fn route(parts: &mut [(Vec<usize>, Vec<f32>)], labels: &[usize], rows: Rows<'_>) {
    let n_shards = parts.len();
    for (row, &label) in rows.iter().zip(labels) {
        let (l, d) = &mut parts[shard_of(label, n_shards)];
        l.push(label);
        d.extend_from_slice(row);
    }
}

/// Per-shard gauge handles into the process-wide telemetry registry
/// (`tlsfp_shard_rows{shard=...}`), held by the store so mutation-path
/// refreshes are handle derefs — no registry lookup, no allocation.
///
/// Deliberately **not** part of the store's serialized form or its
/// `PartialEq`: handles are identity, not state, and are rebuilt on
/// clone/deserialize (the registry dedupes by name+labels, so every
/// store with shard `s` shares one gauge — last writer wins, the
/// process-wide semantic).
#[derive(Debug)]
struct StoreTelemetry {
    shard_rows: Vec<Arc<Gauge>>,
}

impl StoreTelemetry {
    fn new(n_shards: usize) -> Self {
        StoreTelemetry {
            shard_rows: (0..n_shards)
                .map(|s| {
                    let shard = s.to_string();
                    tlsfp_telemetry::global().gauge(
                        "tlsfp_shard_rows",
                        &[("shard", shard.as_str())],
                        "Reference rows currently stored on each shard",
                    )
                })
                .collect(),
        }
    }
}

/// Aggregate balance diagnostics for a [`ShardedStore`]: shard-level
/// occupancy plus, when the per-shard backend is IVF, the inverted-list
/// occupancy aggregated across every shard's lists.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StoreBalance {
    /// Number of shards.
    pub n_shards: usize,
    /// Occupancy of the fullest shard.
    pub max_shard: usize,
    /// Mean shard occupancy.
    pub mean_shard: f64,
    /// `max_shard / mean_shard` — 1.0 is perfectly balanced. Shard
    /// skew is fixed by the class→shard routing and per-class sample
    /// counts, not by churn.
    pub shard_skew: f64,
    /// IVF list-occupancy stats aggregated over the lists of every
    /// shard that reports them (`None` when no shard serves IVF —
    /// flat and PQ backends are list-free). `mean_list` counts only
    /// the rows of those reporting shards, so mixed per-shard
    /// deployments stay honest. `skew` here is the churn signal: past
    /// ~3, rebuild the quantizers ([`ShardedStore::set_index`]).
    pub ivf_lists: Option<BalanceStats>,
}

/// A class-sharded reference store: `S` shards, each one index backend
/// holding its classes' embeddings behind its own `RwLock`. See the
/// [module docs](crate::sharded) for the design and concurrency model,
/// and [`crate::VectorIndex`] for the per-shard query/mutation
/// contract.
///
/// Queries take per-shard *read* locks (many readers in parallel);
/// single-shard mutations ([`ShardedStore::swap_class`],
/// [`ShardedStore::add_row`], [`ShardedStore::remove_class`]) take
/// `&self` and only the owning shard's *write* lock, so churn on one
/// class never blocks queries against any other shard.
///
/// ```
/// use tlsfp_index::sharded::ShardedStore;
/// use tlsfp_index::{IndexConfig, Metric, Rows};
///
/// // Four classes across two shards: even classes on shard 0, odd on 1.
/// let store = ShardedStore::new(2, Metric::Euclidean, &IndexConfig::Flat, 4, 2);
/// let rows = [0.0f32, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0];
/// store.add_rows(&[0, 1, 2, 3], Rows::new(2, &rows));
/// assert_eq!(store.n_shards(), 2);
/// assert_eq!(store.shard_len(0), 2); // classes 0 and 2
///
/// // Queries fan out across shards and merge deterministically.
/// let one = store.search_concurrent(&[1.1, 1.1], 2, 1);
/// assert_eq!(one.top().unwrap().label, 1);
///
/// // The batch front door fans out shard-major across a worker pool;
/// // the ordered-commit merge is bit-identical at every worker count.
/// let batch = store.search_batch_concurrent(&[vec![1.1, 1.1]], 2, 4);
/// assert_eq!(batch[0], one);
///
/// // Mutations route to the owning shard only — through `&self`.
/// store.swap_class(1, Rows::new(2, &[9.0, 9.0]));
/// assert_eq!(store.class_count(1), 1);
/// assert_eq!(store.shard_len(0), 2); // shard 0 untouched
/// ```
#[derive(Debug)]
pub struct ShardedStore {
    dim: usize,
    metric: Metric,
    config: IndexConfig,
    n_classes: AtomicUsize,
    shards: Vec<RwLock<ServingIndex>>,
    /// Gauge handles only — never serialized, never compared.
    telemetry: StoreTelemetry,
}

impl Clone for ShardedStore {
    fn clone(&self) -> Self {
        ShardedStore {
            dim: self.dim,
            metric: self.metric,
            config: self.config,
            n_classes: AtomicUsize::new(self.n_classes()),
            shards: (0..self.shards.len())
                .map(|s| RwLock::new(self.read_shard(s).clone()))
                .collect(),
            telemetry: StoreTelemetry::new(self.shards.len()),
        }
    }
}

impl PartialEq for ShardedStore {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim
            && self.metric == other.metric
            && self.config == other.config
            && self.n_classes() == other.n_classes()
            && self.shards.len() == other.shards.len()
            && (0..self.shards.len()).all(|s| *self.read_shard(s) == *other.read_shard(s))
    }
}

impl Serialize for ShardedStore {
    fn to_value(&self) -> serde::json::Value {
        use serde::json::Value;
        Value::Object(vec![
            ("dim".to_string(), self.dim.to_value()),
            ("metric".to_string(), self.metric.to_value()),
            ("config".to_string(), self.config.to_value()),
            ("n_classes".to_string(), self.n_classes().to_value()),
            (
                "shards".to_string(),
                Value::Array(
                    (0..self.shards.len())
                        .map(|s| self.read_shard(s).to_value())
                        .collect(),
                ),
            ),
        ])
    }
}

impl Deserialize for ShardedStore {
    fn from_value(v: &serde::json::Value) -> Result<Self, serde::json::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::json::Error::custom("ShardedStore: expected object"))?;
        let shards: Vec<ServingIndex> = serde::json::field(pairs, "shards")?;
        let telemetry = StoreTelemetry::new(shards.len());
        Ok(ShardedStore {
            dim: serde::json::field(pairs, "dim")?,
            metric: serde::json::field(pairs, "metric")?,
            config: serde::json::field(pairs, "config")?,
            n_classes: AtomicUsize::new(serde::json::field(pairs, "n_classes")?),
            shards: shards.into_iter().map(RwLock::new).collect(),
            telemetry,
        })
    }
}

impl ShardedStore {
    /// An empty store for `dim`-dimensional embeddings of `n_classes`
    /// classes, partitioned into [`resolve_shards`]`(shards,
    /// n_classes)` shards, each serving through the `config` backend.
    ///
    /// The shard count is resolved **once, here**: later
    /// [`ShardedStore::allocate_class`] calls route new classes into
    /// the existing shards (deterministically) without re-sharding.
    pub fn new(
        dim: usize,
        metric: Metric,
        config: &IndexConfig,
        n_classes: usize,
        shards: usize,
    ) -> Self {
        let n_shards = resolve_shards(shards, n_classes);
        ShardedStore {
            dim,
            metric,
            config: *config,
            n_classes: AtomicUsize::new(n_classes),
            shards: (0..n_shards)
                .map(|_| RwLock::new(config.build(metric, Rows::new(dim, &[]), &[])))
                .collect(),
            telemetry: StoreTelemetry::new(n_shards),
        }
    }

    /// Builds a store directly from labeled rows — the one-call
    /// equivalent of [`ShardedStore::new`] + [`ShardedStore::add_rows`]
    /// + a per-shard index build.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()` or any row's dimension
    /// differs from `rows.dim()`.
    pub fn build(
        config: &IndexConfig,
        metric: Metric,
        rows: Rows<'_>,
        labels: &[usize],
        n_classes: usize,
        shards: usize,
    ) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let mut store = ShardedStore::new(rows.dim(), metric, config, n_classes, shards);
        let mut parts = vec![(Vec::new(), Vec::new()); store.shards.len()];
        route(&mut parts, labels, rows);
        store.load_parts(parts);
        store
    }

    /// The read guard for shard `s`; a poisoned lock is recovered (the
    /// store's invariants are maintained before any operation that
    /// could panic, so the data behind a poisoned lock is intact).
    fn read_shard(&self, s: usize) -> RwLockReadGuard<'_, ServingIndex> {
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_store_lock_acquisitions_total",
                "Shard lock acquisitions, by kind",
                "kind" => "read"
            )
            .inc();
        }
        self.shards[s]
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The write guard for shard `s` (see [`ShardedStore::read_shard`]
    /// on poisoning).
    fn write_shard(&self, s: usize) -> RwLockWriteGuard<'_, ServingIndex> {
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_store_lock_acquisitions_total",
                "Shard lock acquisitions, by kind",
                "kind" => "write"
            )
            .inc();
        }
        self.shards[s]
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock-free exclusive access for `&mut self` operations.
    fn shard_mut(&mut self, s: usize) -> &mut ServingIndex {
        self.shards[s]
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Grows the label space to cover `class` (monotonic).
    fn note_class(&self, class: usize) {
        self.n_classes.fetch_max(class + 1, AtomicOrdering::AcqRel);
    }

    /// Number of shards (fixed at construction).
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total reference points across every shard. Shard locks are
    /// taken one at a time, so under concurrent churn this is a
    /// coherent per-shard sum, not an atomic global snapshot.
    pub fn len(&self) -> usize {
        (0..self.shards.len())
            .map(|s| self.read_shard(s).len())
            .sum()
    }

    /// Whether the store holds no reference points.
    pub fn is_empty(&self) -> bool {
        (0..self.shards.len()).all(|s| self.read_shard(s).is_empty())
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The distance metric every shard serves with.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Size of the label space (grows via
    /// [`ShardedStore::allocate_class`]).
    pub fn n_classes(&self) -> usize {
        self.n_classes.load(AtomicOrdering::Acquire)
    }

    /// The per-shard index backend in use.
    pub fn index_config(&self) -> IndexConfig {
        self.config
    }

    /// The shard owning `class` under this store's partitioning.
    pub fn shard_of(&self, class: usize) -> usize {
        shard_of(class, self.shards.len())
    }

    /// Number of reference points stored on shard `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards()`.
    pub fn shard_len(&self, s: usize) -> usize {
        self.read_shard(s).len()
    }

    /// An owned snapshot of shard `s`: `(labels, row_data)` in
    /// insertion order, where `row_data` is the contiguous row-major
    /// buffer (`labels.len() * dim()` floats) — the backend's
    /// [`crate::VectorIndex::export`]. Owned because the rows live
    /// behind the shard's lock; the copy is taken under one read lock,
    /// so it is internally consistent even during churn.
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards()`.
    pub fn shard_snapshot(&self, s: usize) -> (Vec<usize>, Vec<f32>) {
        self.read_shard(s).export()
    }

    /// Per-shard occupancy, shard-major.
    pub fn shard_sizes(&self) -> Vec<usize> {
        (0..self.shards.len())
            .map(|s| self.read_shard(s).len())
            .collect()
    }

    /// Number of reference points for `class` (exports the owning
    /// shard only — a diagnostic, not a serving-path call).
    pub fn class_count(&self, class: usize) -> usize {
        let (labels, _) = self.shard_snapshot(self.shard_of(class));
        labels.iter().filter(|&&l| l == class).count()
    }

    /// Grows the label space by one class and returns the new id. The
    /// class routes into an existing shard; the shard count never
    /// changes after construction. Takes `&self`: allocation is one
    /// atomic fetch-add, safe under concurrent churn.
    pub fn allocate_class(&self) -> usize {
        self.n_classes.fetch_add(1, AtomicOrdering::AcqRel)
    }

    /// Replaces shard `s` with a fresh backend built from these labeled
    /// rows under the store-wide config — the shard-bounded provisioning
    /// primitive: ingest one shard's embedding batch at a time and
    /// peak memory tracks the largest shard, never the corpus.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`, any row's dimension
    /// differs from the store's, or any label routes to a different
    /// shard than `s`.
    pub fn load_shard(&mut self, s: usize, labels: &[usize], rows: Rows<'_>) {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        assert!(
            rows.is_empty() || rows.dim() == self.dim,
            "row dim {} does not match store dim {}",
            rows.dim(),
            self.dim
        );
        let n_shards = self.shards.len();
        for &label in labels {
            assert_eq!(
                shard_of(label, n_shards),
                s,
                "class {label} does not route to shard {s}"
            );
            self.note_class(label);
        }
        *self.shard_mut(s) =
            self.config
                .build(self.metric, Rows::new(self.dim, rows.data()), labels);
        self.refresh_balance_gauges();
    }

    /// Adds one reference point, routing it to its class's shard;
    /// under an IVF backend the vector joins its nearest list
    /// incrementally (no re-clustering). Takes `&self` and only the
    /// owning shard's write lock.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len()` differs from the store's dimension.
    pub fn add_row(&self, class: usize, vector: &[f32]) {
        let (s, rows_after) = self.add_row_inner(class, vector);
        self.publish_mutation(s, rows_after);
    }

    /// The locked body of [`ShardedStore::add_row`], without the gauge
    /// refresh — bulk ingestion loops over this and publishes once.
    fn add_row_inner(&self, class: usize, vector: &[f32]) -> (usize, usize) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        self.note_class(class);
        let s = self.shard_of(class);
        let mut shard = self.write_shard(s);
        shard.add(class, vector);
        (s, shard.len())
    }

    /// Adds many labeled rows, each routed to its class's shard (one
    /// write-lock acquisition per row — rows may interleave with
    /// concurrent churn on other classes).
    ///
    /// # Panics
    ///
    /// As [`ShardedStore::add_row`]; also panics if `labels` and
    /// `rows` disagree in length.
    pub fn add_rows(&self, labels: &[usize], rows: Rows<'_>) {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        for (row, &label) in rows.iter().zip(labels) {
            self.add_row_inner(label, row);
        }
        // One gauge refresh for the whole batch, not one per row.
        self.refresh_balance_gauges();
    }

    /// Replaces every reference point of `class` with `rows` — the
    /// paper's §IV-C adaptation swap, confined to the owning shard.
    /// Survivors keep their order; replacements append at the shard's
    /// tail. Returns how many points were dropped. Takes `&self` and
    /// only the owning shard's write lock: queries against other
    /// shards proceed in parallel.
    ///
    /// # Panics
    ///
    /// Panics if any row's dimension differs from the store's.
    pub fn swap_class(&self, class: usize, rows: Rows<'_>) -> usize {
        assert!(
            rows.is_empty() || rows.dim() == self.dim,
            "row dim {} does not match store dim {}",
            rows.dim(),
            self.dim
        );
        self.note_class(class);
        let s = self.shard_of(class);
        let (removed, rows_after) = {
            let mut shard = self.write_shard(s);
            (shard.swap_label(class, rows), shard.len())
        };
        self.publish_mutation(s, rows_after);
        removed
    }

    /// Removes every reference point of `class` from its owning shard
    /// (the label space keeps its size; the class just becomes empty).
    /// Returns how many points were dropped. Takes `&self` and only
    /// the owning shard's write lock.
    pub fn remove_class(&self, class: usize) -> usize {
        let s = self.shard_of(class);
        let (removed, rows_after) = {
            let mut shard = self.write_shard(s);
            (shard.remove_label(class), shard.len())
        };
        self.publish_mutation(s, rows_after);
        removed
    }

    /// Switches every shard's index backend, rebuilding each from its
    /// old backend's insertion-order export (IVF quantizers re-train
    /// here — the only non-incremental step, and the skew remedy: see
    /// [`ShardedStore::balance_stats`]). Exclusive (`&mut self`).
    pub fn set_index(&mut self, config: IndexConfig) {
        self.config = config;
        for s in 0..self.shards.len() {
            self.rebuild_shard(s, &config);
        }
        self.refresh_balance_gauges();
    }

    /// Rebuilds shard `s` alone on a different backend, leaving the
    /// store-wide config (and every other shard) untouched — mixed
    /// deployments pin, say, one hot shard on Flat while the long tail
    /// serves from PQ. The override lives in the shard's index itself:
    /// snapshots serialize it faithfully, but any whole-store rebuild
    /// ([`ShardedStore::set_index`], [`ShardedStore::set_shards`])
    /// reverts the shard to the store-wide config. Exclusive
    /// (`&mut self`).
    ///
    /// # Panics
    ///
    /// Panics if `s >= n_shards()`.
    pub fn set_shard_index(&mut self, s: usize, config: &IndexConfig) {
        self.rebuild_shard(s, config);
        self.refresh_balance_gauges();
    }

    /// Rebuilds shard `s` on `config` from its own export.
    fn rebuild_shard(&mut self, s: usize, config: &IndexConfig) {
        let (labels, data) = self.shard_mut(s).export();
        *self.shard_mut(s) = config.build(self.metric, Rows::new(self.dim, &data), &labels);
    }

    /// Re-partitions the store across a new shard count, re-routing
    /// every class. Rows move in shard-major order, so ids assigned by
    /// the rebuilt per-shard indexes may differ from a fresh
    /// provisioning pass; exact backends serve identical decisions
    /// either way. Exclusive (`&mut self`).
    pub fn set_shards(&mut self, shards: usize) {
        let n_shards = resolve_shards(shards, self.n_classes());
        if n_shards == self.shards.len() {
            return;
        }
        let mut parts = vec![(Vec::new(), Vec::new()); n_shards];
        for lock in std::mem::take(&mut self.shards) {
            let (labels, data) = lock
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .export();
            route(&mut parts, &labels, Rows::new(self.dim, &data));
        }
        // The old layout's per-shard gauges would otherwise keep
        // reporting rows for shards that no longer exist.
        if tlsfp_telemetry::enabled() {
            for g in &self.telemetry.shard_rows {
                g.set(0.0);
            }
        }
        self.telemetry = StoreTelemetry::new(n_shards);
        self.load_parts(parts);
    }

    /// Replaces every shard with a store-config backend built from its
    /// routed `(labels, row_data)` part, in shard order.
    fn load_parts(&mut self, parts: Vec<(Vec<usize>, Vec<f32>)>) {
        self.shards = parts
            .into_iter()
            .map(|(labels, data)| {
                labels.iter().for_each(|&l| self.note_class(l));
                RwLock::new(
                    self.config
                        .build(self.metric, Rows::new(self.dim, &data), &labels),
                )
            })
            .collect();
        self.refresh_balance_gauges();
    }

    /// Shard-occupancy and (for IVF backends) aggregated inverted-list
    /// balance across every shard. Locks are taken one shard at a
    /// time. Allocation-free — one fold over the shards — so the
    /// mutation paths can afford to republish the balance gauges after
    /// every churn event.
    ///
    /// Every ratio here is total — an empty store, a drained shard
    /// (e.g. after [`ShardedStore::remove_class`] empties it) or an
    /// empty list all report a skew of `0.0`, never `inf`/NaN, so
    /// operators can alert on thresholds without NaN-poisoning. The
    /// aggregated `mean_list` divides by the row count of the shards
    /// that actually reported list stats, so mixed per-shard backends
    /// ([`ShardedStore::set_shard_index`]) don't inflate the IVF mean
    /// with rows served flat or product-quantized.
    pub fn balance_stats(&self) -> StoreBalance {
        let n_shards = self.shards.len();
        let mut total = 0usize;
        let mut listed_total = 0usize;
        let mut max = 0usize;
        let mut any_lists = false;
        let mut n_lists = 0usize;
        let mut max_list = 0usize;
        for s in 0..n_shards {
            let shard = self.read_shard(s);
            total += shard.len();
            max = max.max(shard.len());
            if let ServingIndex::Ivf(ivf) = &*shard {
                let stats = ivf.balance_stats();
                any_lists = true;
                listed_total += shard.len();
                n_lists += stats.n_lists;
                max_list = max_list.max(stats.max_list);
            }
        }
        let mean = total as f64 / n_shards.max(1) as f64;
        let ivf_lists = if !any_lists {
            None
        } else {
            let mean_list = listed_total as f64 / n_lists.max(1) as f64;
            Some(BalanceStats {
                n_lists,
                max_list,
                mean_list,
                skew: if mean_list > 0.0 {
                    max_list as f64 / mean_list
                } else {
                    0.0
                },
            })
        };
        StoreBalance {
            n_shards,
            max_shard: max,
            mean_shard: mean,
            shard_skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
            ivf_lists,
        }
    }

    /// Republishes every per-shard row gauge and the store-level
    /// balance gauges from the store's current state. Gauges are
    /// pushed on mutation, so after a [`tlsfp_telemetry::reset`] they
    /// stay zero until the next mutation touches their shard — call
    /// this to seed a fresh measurement window. A no-op while
    /// telemetry is disabled.
    pub fn publish_telemetry(&self) {
        self.refresh_balance_gauges();
    }

    /// Post-mutation telemetry for shard `s`: its row gauge, the
    /// mutation counter, and the store-level balance gauges. Called
    /// with **no shard lock held** (the balance walk re-takes each
    /// shard's read lock); a no-op while telemetry is disabled, so the
    /// serving path's work is identical either way.
    fn publish_mutation(&self, s: usize, rows_after: usize) {
        if !tlsfp_telemetry::enabled() {
            return;
        }
        if let Some(g) = self.telemetry.shard_rows.get(s) {
            g.set(rows_after as f64);
        }
        tlsfp_telemetry::counter!(
            "tlsfp_store_mutations_total",
            "Mutations applied to the sharded reference store"
        )
        .inc();
        self.publish_balance_gauges();
    }

    /// Refreshes every per-shard row gauge plus the store-level
    /// balance gauges — the bulk variant of
    /// [`ShardedStore::publish_mutation`], used after whole-store
    /// rebuilds and batched ingestion.
    fn refresh_balance_gauges(&self) {
        if !tlsfp_telemetry::enabled() {
            return;
        }
        for (s, g) in self.telemetry.shard_rows.iter().enumerate() {
            g.set(self.read_shard(s).len() as f64);
        }
        self.publish_balance_gauges();
    }

    /// One allocation-free [`ShardedStore::balance_stats`] walk fanned
    /// into the store-level gauges. `tlsfp_store_ivf_list_skew` reads
    /// `0.0` when no shard serves IVF, matching the balance report's
    /// never-NaN convention.
    fn publish_balance_gauges(&self) {
        let b = self.balance_stats();
        tlsfp_telemetry::gauge!(
            "tlsfp_store_shards",
            "Shard count of the sharded reference store"
        )
        .set(b.n_shards as f64);
        tlsfp_telemetry::gauge!(
            "tlsfp_store_rows",
            "Total reference rows across every shard"
        )
        .set(b.mean_shard * b.n_shards as f64);
        tlsfp_telemetry::gauge!(
            "tlsfp_store_max_shard_rows",
            "Occupancy of the fullest shard"
        )
        .set(b.max_shard as f64);
        tlsfp_telemetry::gauge!("tlsfp_store_mean_shard_rows", "Mean shard occupancy")
            .set(b.mean_shard);
        tlsfp_telemetry::gauge!(
            "tlsfp_store_shard_skew",
            "max_shard / mean_shard occupancy ratio; 1.0 is perfectly balanced"
        )
        .set(b.shard_skew);
        tlsfp_telemetry::gauge!(
            "tlsfp_store_ivf_list_skew",
            "Aggregated IVF inverted-list skew across shards; 0 when no shard serves IVF"
        )
        .set(b.ivf_lists.map_or(0.0, |l| l.skew));
    }

    /// Translates shard `s`'s local insertion id into the store's
    /// global id space: `local * n_shards + s` — unique across shards,
    /// and equal to the local id when `S = 1`.
    fn global_id(&self, s: usize, local: u64) -> u64 {
        local * self.shards.len() as u64 + s as u64
    }

    /// The ordered-commit merge: consumes per-shard results **in shard
    /// order** (regardless of which worker produced which), remaps ids
    /// into the global space, folds `nearest` and the eval counter in
    /// that fixed order, then keeps the `k` smallest under the
    /// `(dist, global id)` tie-break, sorted. When more than `k` were
    /// gathered, a selection finds them first, so only `k` are sorted;
    /// `(dist, global id)` is a total order over distinct ids, so this
    /// keeps exactly what sorting everything would. Bit-identical output
    /// for every worker count by construction.
    ///
    /// This is the one place neighbors get their `(dist, id)` order —
    /// backends keep their own — and where the `backend="sharded"`
    /// query/eval counters record, once per query at every shard count
    /// (the inner backend's own counters advance too).
    fn merge_shard_results(&self, per_shard: Vec<SearchResult>, k: usize) -> SearchResult {
        // The first shard's buffer becomes the merge buffer (grown once,
        // to the exact total), so a one-shard store merges in place.
        let gathered: usize = per_shard.iter().map(|r| r.neighbors.len()).sum();
        let mut merged: Vec<Neighbor> = Vec::new();
        let mut nearest = f32::INFINITY;
        let mut evals = 0u64;
        for (s, r) in per_shard.into_iter().enumerate() {
            evals += r.distance_evals;
            nearest = nearest.min(r.nearest);
            let start = merged.len();
            if merged.is_empty() {
                merged = r.neighbors;
                merged.reserve_exact(gathered - merged.len());
            } else {
                merged.extend(r.neighbors);
            }
            for n in &mut merged[start..] {
                n.id = self.global_id(s, n.id);
            }
        }
        let keep = k.max(1);
        if merged.len() > keep {
            merged.select_nth_unstable_by(keep - 1, crate::by_dist_id);
            merged.truncate(keep);
        }
        merged.sort_by(crate::by_dist_id);
        let result = SearchResult {
            neighbors: merged,
            nearest,
            distance_evals: evals,
        };
        crate::record_backend_search!("sharded", result);
        result
    }

    /// One query: a batch of one through
    /// [`ShardedStore::search_batch_concurrent`] — one (shard, block)
    /// task per shard across `workers` threads (`0` = all cores).
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim()`.
    pub fn search_concurrent(&self, query: &[f32], k: usize, workers: usize) -> SearchResult {
        self.search_batch_concurrent(&[query.to_vec()], k, workers)
            .pop()
            .expect("one result per query")
    }

    /// The query front door — single queries are batches of one. The
    /// batch is split into contiguous query-blocks
    /// ([`crate::kernels::auto_query_block`]) and every *(shard, block)*
    /// pair becomes one worker task fanned out across `workers` threads
    /// (`0` = all cores). Each worker read-locks its shard, runs its
    /// block through the backend's scan kernel
    /// ([`crate::VectorIndex::search_block`] — each row tile loaded
    /// once per block), and releases; per-shard results then merge
    /// under the ordered-commit rule. Each query's result is
    /// bit-identical at every worker count and every batch
    /// composition.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread if any query's length differs from
    /// `dim()`, whatever the shards hold.
    pub fn search_batch_concurrent(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        workers: usize,
    ) -> Vec<SearchResult> {
        crate::assert_query_dims(queries, self.dim);
        if queries.is_empty() {
            return Vec::new();
        }
        let workers = resolve_threads(workers);
        let n_shards = self.shards.len();
        let qb = crate::kernels::auto_query_block(queries.len(), workers);
        let n_blocks = queries.len().div_ceil(qb);
        let tasks: Vec<(usize, usize)> = (0..n_shards)
            .flat_map(|s| (0..n_blocks).map(move |b| (s, b)))
            .collect();
        let per_task: Vec<Vec<SearchResult>> = {
            let _fanout = tlsfp_telemetry::stage_timer!("fanout");
            map_elems(&tasks, workers, |&(s, b)| {
                let _scan = tlsfp_telemetry::stage_timer!("shard_scan");
                let block = &queries[b * qb..((b + 1) * qb).min(queries.len())];
                self.read_shard(s).search_block(block, k)
            })
        };
        // Ordered commit: `per_task` is (shard-major, then block-major)
        // by construction (map_elems preserves input order), so pulling
        // query `qi`'s result from task `s * n_blocks + qi / qb`
        // consumes shard results in shard order no matter which worker
        // produced them, or when. Queries are consumed in ascending
        // order, so each task's iterator advances exactly in step.
        let _merge = tlsfp_telemetry::stage_timer!("merge");
        let mut cursors: Vec<std::vec::IntoIter<SearchResult>> =
            per_task.into_iter().map(|v| v.into_iter()).collect();
        (0..queries.len())
            .map(|qi| {
                let b = qi / qb;
                let per_shard: Vec<SearchResult> = (0..n_shards)
                    .map(|s| {
                        cursors[s * n_blocks + b]
                            .next()
                            .expect("one result per query per (shard, block) task")
                    })
                    .collect();
                self.merge_shard_results(per_shard, k)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, IvfParams, VectorIndex};

    /// Clustered labeled rows: `classes` groups of `per_class` points.
    fn clustered(classes: usize, per_class: usize, dim: usize) -> (Vec<f32>, Vec<usize>) {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            for j in 0..per_class {
                for d in 0..dim {
                    data.push(c as f32 * 3.0 + j as f32 * 0.01 + d as f32 * 0.001);
                }
                labels.push(c);
            }
        }
        (data, labels)
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for n_shards in 1..6 {
            for class in 0..50 {
                assert!(shard_of(class, n_shards) < n_shards);
                assert_eq!(shard_of(class, n_shards), shard_of(class, n_shards));
            }
        }
        assert_eq!(shard_of(5, 0), 0, "zero shards clamps to one");
    }

    #[test]
    fn single_shard_search_is_flat_result_in_merge_order() {
        let (data, labels) = clustered(6, 5, 3);
        let rows = Rows::new(3, &data);
        let store = ShardedStore::build(&IndexConfig::Flat, Metric::Euclidean, rows, &labels, 6, 1);
        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        for c in 0..6 {
            let q = vec![c as f32 * 3.0 + 0.005; 3];
            // Same neighbors and score bits; only the merge's
            // `(dist, id)` order differs from the flat heap's.
            let mut want = flat.search(&q, 4);
            want.neighbors
                .sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
            assert_eq!(store.search_concurrent(&q, 4, 1), want);
        }
    }

    #[test]
    fn multi_shard_search_matches_flat_ground_truth() {
        let (data, labels) = clustered(8, 6, 4);
        let rows = Rows::new(4, &data);
        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        for shards in [2usize, 3, 4, 8] {
            let store = ShardedStore::build(
                &IndexConfig::Flat,
                Metric::Euclidean,
                rows,
                &labels,
                8,
                shards,
            );
            assert_eq!(store.n_shards(), shards);
            assert_eq!(store.len(), flat.len());
            for c in 0..8 {
                let q = vec![c as f32 * 3.0 + 0.004; 4];
                let st = store.search_concurrent(&q, 5, 1);
                let fl = flat.search(&q, 5);
                assert_eq!(st.nearest.to_bits(), fl.nearest.to_bits());
                // Same neighbor set by (dist bits, label).
                let canon = |r: &SearchResult| {
                    let mut v: Vec<(u32, usize)> = r
                        .neighbors
                        .iter()
                        .map(|n| (n.dist.to_bits(), n.label))
                        .collect();
                    v.sort_unstable();
                    v
                };
                assert_eq!(canon(&st), canon(&fl), "shards={shards} class={c}");
                // Merged order is the canonical (dist, id) ascending.
                for w in st.neighbors.windows(2) {
                    assert!(
                        (w[0].dist, w[0].id) <= (w[1].dist, w[1].id),
                        "merge order broken"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_search_paths_are_bit_identical_to_serial() {
        let (data, labels) = clustered(9, 6, 4);
        let rows = Rows::new(4, &data);
        for shards in [1usize, 3, 5] {
            let store = ShardedStore::build(
                &IndexConfig::Flat,
                Metric::Euclidean,
                rows,
                &labels,
                9,
                shards,
            );
            let queries: Vec<Vec<f32>> = (0..9).map(|c| vec![c as f32 * 3.0 + 0.004; 4]).collect();
            let serial: Vec<SearchResult> = queries
                .iter()
                .map(|q| store.search_concurrent(q, 5, 1))
                .collect();
            for workers in [1usize, 2, 4, 0] {
                for (q, want) in queries.iter().zip(&serial) {
                    assert_eq!(
                        &store.search_concurrent(q, 5, workers),
                        want,
                        "search_concurrent diverged at shards={shards} workers={workers}"
                    );
                }
                assert_eq!(
                    store.search_batch_concurrent(&queries, 5, workers),
                    serial,
                    "batch fan-out diverged at shards={shards} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn mutations_route_to_owning_shard_only() {
        let (data, labels) = clustered(6, 4, 2);
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(2, &data),
            &labels,
            6,
            3,
        );
        let before = store.shard_sizes();
        // Class 4 lives on shard 1 (4 % 3); swap it.
        let fresh = [42.0f32, 42.0, 43.0, 43.0];
        let removed = store.swap_class(4, Rows::new(2, &fresh));
        assert_eq!(removed, 4);
        assert_eq!(store.class_count(4), 2);
        let after = store.shard_sizes();
        assert_eq!(after[0], before[0], "shard 0 touched by class-4 swap");
        assert_eq!(after[2], before[2], "shard 2 touched by class-4 swap");
        assert_eq!(after[1], before[1] - 2);
        // The swap is visible to search.
        assert_eq!(
            store
                .search_concurrent(&[42.0, 42.0], 1, 1)
                .top()
                .unwrap()
                .label,
            4
        );
        // Remove empties the class without shrinking the label space.
        assert_eq!(store.remove_class(4), 2);
        assert_eq!(store.class_count(4), 0);
        assert_eq!(store.n_classes(), 6);
    }

    #[test]
    fn allocate_and_add_route_new_classes() {
        let (data, labels) = clustered(4, 3, 2);
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(2, &data),
            &labels,
            4,
            2,
        );
        let id = store.allocate_class();
        assert_eq!(id, 4);
        store.add_row(id, &[99.0, 99.0]);
        assert_eq!(store.shard_of(id), 0);
        assert_eq!(store.class_count(id), 1);
        assert_eq!(
            store
                .search_concurrent(&[99.0, 99.0], 1, 1)
                .top()
                .unwrap()
                .label,
            id
        );
    }

    #[test]
    fn ivf_backend_per_shard_with_balance_aggregation() {
        let (data, labels) = clustered(9, 8, 3);
        let store = ShardedStore::build(
            &IndexConfig::Ivf(IvfParams::auto()),
            Metric::Euclidean,
            Rows::new(3, &data),
            &labels,
            9,
            3,
        );
        let balance = store.balance_stats();
        assert_eq!(balance.n_shards, 3);
        assert!(balance.shard_skew >= 1.0);
        let lists = balance.ivf_lists.expect("IVF backend reports lists");
        assert!(lists.n_lists >= 3, "one quantizer per shard at least");
        assert!(lists.skew >= 1.0);
        // Queries still resolve to the right class.
        for c in [0usize, 4, 8] {
            let q = vec![c as f32 * 3.0 + 0.002; 3];
            assert_eq!(store.search_concurrent(&q, 3, 1).top().unwrap().label, c);
        }
    }

    #[test]
    fn set_shards_repartitions_without_changing_decisions() {
        let (data, labels) = clustered(6, 5, 3);
        let rows = Rows::new(3, &data);
        let mut store =
            ShardedStore::build(&IndexConfig::Flat, Metric::Euclidean, rows, &labels, 6, 1);
        let queries: Vec<Vec<f32>> = (0..6).map(|c| vec![c as f32 * 3.0 + 0.004; 3]).collect();
        let before: Vec<Option<usize>> = queries
            .iter()
            .map(|q| store.search_concurrent(q, 3, 1).top().map(|n| n.label))
            .collect();
        store.set_shards(3);
        assert_eq!(store.n_shards(), 3);
        let after: Vec<Option<usize>> = queries
            .iter()
            .map(|q| store.search_concurrent(q, 3, 1).top().map(|n| n.label))
            .collect();
        assert_eq!(before, after);
        // And scores are the same bits — the same distances exist.
        store.set_shards(1);
        let (labels0, data0) = store.shard_snapshot(0);
        for q in &queries {
            let r = store.search_concurrent(q, 3, 1);
            assert_eq!(
                r.nearest.to_bits(),
                FlatIndex::from_rows(Metric::Euclidean, Rows::new(3, &data0), &labels0)
                    .search(q, 3)
                    .nearest
                    .to_bits()
            );
        }
    }

    #[test]
    fn serde_round_trip_preserves_store_and_decisions() {
        let (data, labels) = clustered(5, 4, 3);
        let store = ShardedStore::build(
            &IndexConfig::Ivf(IvfParams::auto()),
            Metric::Euclidean,
            Rows::new(3, &data),
            &labels,
            5,
            2,
        );
        store.swap_class(2, Rows::new(3, &[50.0, 50.0, 50.0]));
        let json = serde_json::to_string(&store).unwrap();
        let back: ShardedStore = serde_json::from_str(&json).unwrap();
        assert_eq!(back, store);
        let q = vec![50.0f32; 3];
        assert_eq!(
            back.search_concurrent(&q, 3, 1),
            store.search_concurrent(&q, 3, 1)
        );
    }

    #[test]
    fn load_shard_bulk_builds_one_shard() {
        let mut store = ShardedStore::new(2, Metric::Euclidean, &IndexConfig::Flat, 4, 2);
        // Shard 0 owns classes 0 and 2.
        store.load_shard(0, &[0, 0, 2], Rows::new(2, &[0.0, 0.0, 0.1, 0.0, 2.0, 2.0]));
        store.load_shard(1, &[1, 3], Rows::new(2, &[1.0, 1.0, 3.0, 3.0]));
        assert_eq!(store.len(), 5);
        assert_eq!(store.shard_len(0), 3);
        assert_eq!(
            store
                .search_concurrent(&[3.0, 3.0], 1, 1)
                .top()
                .unwrap()
                .label,
            3
        );
    }

    #[test]
    #[should_panic(expected = "does not route")]
    fn load_shard_rejects_misrouted_labels() {
        let mut store = ShardedStore::new(2, Metric::Euclidean, &IndexConfig::Flat, 4, 2);
        store.load_shard(0, &[1], Rows::new(2, &[1.0, 1.0]));
    }
}
