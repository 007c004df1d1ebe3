//! The adaptive-fingerprinting pipeline (Figure 2): provisioning,
//! fingerprinting and adaptation.
//!
//! - **Provisioning** (once, expensive): train the embedding model on
//!   pairs from a labeled corpus.
//! - **Fingerprinting** (cheap, repeated): embed a captured trace and
//!   classify it against the reference set with kNN.
//! - **Adaptation** (cheap, repeated): when pages change or new pages
//!   appear, re-embed a handful of fresh traces and swap them into the
//!   reference set. The model is never retrained.

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{IndexConfig, Metric};
use tlsfp_nn::embedding::{EmbedScratch, EmbedderConfig, SequenceEmbedder};
use tlsfp_nn::optim::Sgd;
use tlsfp_nn::pairs::{random_pairs, semi_hard_pairs, ClassIndex};
use tlsfp_nn::seq::SeqInput;
use tlsfp_nn::siamese::SiameseTrainer;
use tlsfp_trace::dataset::Dataset;

use crate::error::{CoreError, Result};
use crate::knn::{rank_search, RankedPrediction, ScoredPrediction};
use crate::metrics::EvalReport;
use crate::open_world::{self, OpenWorldReport, PerClassThresholds};

/// Everything that parameterizes provisioning and classification.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Embedding-network architecture.
    pub embedder: EmbedderConfig,
    /// Contrastive-loss margin (10 in Table I).
    pub margin: f32,
    /// Pairs per SGD step (512 in Table I).
    pub batch_size: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Pairs sampled per epoch.
    pub pairs_per_epoch: usize,
    /// SGD learning rate (0.001 in Table I).
    pub learning_rate: f32,
    /// SGD momentum (0 = Table I's plain SGD).
    pub momentum: f32,
    /// From this epoch onwards, pairs are mined semi-hard instead of
    /// uniformly (`None` = always uniform).
    pub semi_hard_from_epoch: Option<usize>,
    /// kNN neighbourhood size (250 in the paper).
    pub k: usize,
    /// Worker threads for training and embedding (0 = all cores; the
    /// auto default honors the `TLSFP_THREADS` environment variable).
    pub threads: usize,
    /// Worker threads for the concurrent query fan-out across shards
    /// (0 = all cores, honoring `TLSFP_THREADS`). Separate from
    /// `threads` because serving and provisioning often want different
    /// pool sizes. Results are bit-identical for every value — the
    /// fan-out's one `(dist, id)` top-k rule guarantees it (see the
    /// `tlsfp_index::sharded` module docs).
    pub query_workers: usize,
    /// Nearest-neighbor index backend each shard serves from. The
    /// default [`IndexConfig::Flat`] keeps every decision bit-identical
    /// to an exhaustive reference scan; [`IndexConfig::ivf_default`]
    /// trades a bounded recall loss for an order-of-magnitude fewer
    /// distance computations at scale; [`IndexConfig::pq_default`]
    /// compresses each stored embedding to a few code bytes (with an
    /// exact re-rank of the top candidates) — the memory-bound
    /// 10⁵-class regime's backend.
    pub index: IndexConfig,
    /// Shard count for the reference store: classes are partitioned
    /// across this many shards, each with its own contiguous storage
    /// and serving index (`1` is the default); `0` resolves to
    /// `⌈√n_classes⌉` at provisioning time — the 13k-class layout,
    /// where provisioning peak memory and per-mutation work are
    /// bounded by one shard instead of the corpus. Every value serves
    /// through the same fan-out and merge, and with exact (flat)
    /// per-shard backends decisions are identical for every value (up
    /// to an exact distance tie at the k-th neighbor, which the merge
    /// breaks by a global id that depends on the shard count — see the
    /// `tlsfp_index::sharded` module docs).
    pub shards: usize,
}

impl PipelineConfig {
    /// Table I's configuration for `channels` IP sequences, at a
    /// laptop-scale epoch budget.
    pub fn paper(channels: usize) -> Self {
        PipelineConfig {
            embedder: EmbedderConfig::paper(channels),
            margin: 10.0,
            batch_size: 512,
            epochs: 30,
            pairs_per_epoch: 8_192,
            learning_rate: 0.001,
            momentum: 0.0,
            semi_hard_from_epoch: None,
            k: 250,
            threads: 0,
            query_workers: 0,
            index: IndexConfig::Flat,
            shards: 1,
        }
    }

    /// A fast configuration for tests, examples and scaled-down
    /// experiment runs (3-channel Wikipedia encoding). Hyperparameters
    /// were tuned on a held-out synthetic corpus.
    pub fn small() -> Self {
        PipelineConfig {
            embedder: EmbedderConfig {
                input_size: 3,
                lstm_hidden: 24,
                hidden_layers: vec![96, 96],
                output_size: 24,
                ..EmbedderConfig::small(3)
            },
            margin: 4.0,
            batch_size: 128,
            epochs: 40,
            pairs_per_epoch: 2_048,
            learning_rate: 0.03,
            momentum: 0.9,
            semi_hard_from_epoch: Some(6),
            k: 15,
            threads: 0,
            query_workers: 0,
            index: IndexConfig::Flat,
            shards: 1,
        }
    }

    /// The two-sequence variant of [`PipelineConfig::small`] (§VI-D).
    pub fn small_two_seq() -> Self {
        let mut cfg = PipelineConfig::small();
        cfg.embedder.input_size = 2;
        cfg
    }
}

/// Per-epoch training diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingLog {
    /// Mean contrastive loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock seconds spent training.
    pub train_seconds: f64,
}

/// A provisioned adaptive-fingerprinting deployment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptiveFingerprinter {
    embedder: SequenceEmbedder,
    /// The sharded reference store: one serving index per shard, which
    /// holds that shard's embeddings and is the only copy of them. All
    /// classify/fingerprint paths route through it.
    store: ShardedStore,
    /// kNN neighbourhood size (250 in the paper; capped to the
    /// reference set's size at query time). The metric is the store's.
    k: usize,
    threads: usize,
    /// Worker-pool size for the concurrent shard fan-out on the query
    /// paths (`0` = auto). Never changes a decision.
    query_workers: usize,
    log: TrainingLog,
    /// The shard-count knob (`0` = auto), re-resolved against the
    /// class count whenever the reference store is rebuilt.
    shards: usize,
}

impl AdaptiveFingerprinter {
    /// Provisions a deployment: trains the embedding model on `train`
    /// and initializes the reference set from the same data (call
    /// [`AdaptiveFingerprinter::set_reference`] to point it elsewhere,
    /// as Exp. 2 does with Set C).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for `k = 0` (checked before any
    /// training), [`CoreError::BadDataset`] for empty/degenerate
    /// training data, and configuration errors from the substrate.
    pub fn provision(train: &Dataset, config: &PipelineConfig, seed: u64) -> Result<Self> {
        if config.k == 0 {
            return Err(CoreError::BadConfig("k must be positive".into()));
        }
        if train.is_empty() {
            return Err(CoreError::BadDataset("empty training set".into()));
        }
        if train.channels() != config.embedder.input_size {
            return Err(CoreError::BadDataset(format!(
                "dataset has {} channels but the embedder expects {}",
                train.channels(),
                config.embedder.input_size
            )));
        }
        let mut embedder = SequenceEmbedder::new(config.embedder.clone(), seed)?;
        let log = train_embedder(&mut embedder, train, config, seed)?;

        let store = ShardedStore::new(
            config.embedder.output_size,
            Metric::Euclidean,
            &config.index,
            train.n_classes(),
            config.shards,
        );
        let mut fp = AdaptiveFingerprinter {
            embedder,
            store,
            k: config.k,
            threads: config.threads,
            query_workers: config.query_workers,
            log,
            shards: config.shards,
        };
        fp.set_reference(train)?;
        Ok(fp)
    }

    /// Builds a deployment around an already-trained embedder (model
    /// reuse across experiments, or a deserialized model), with an
    /// empty one-shard flat reference store.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadConfig`] for `k = 0`.
    pub fn from_trained(embedder: SequenceEmbedder, k: usize, threads: usize) -> Result<Self> {
        if k == 0 {
            return Err(CoreError::BadConfig("k must be positive".into()));
        }
        let dim = embedder.output_size();
        let store = ShardedStore::new(dim, Metric::Euclidean, &IndexConfig::Flat, 0, 1);
        Ok(AdaptiveFingerprinter {
            embedder,
            store,
            k,
            threads,
            query_workers: 0,
            log: TrainingLog {
                epoch_losses: Vec::new(),
                train_seconds: 0.0,
            },
            shards: 1,
        })
    }

    /// The trained embedding model.
    pub fn embedder(&self) -> &SequenceEmbedder {
        &self.embedder
    }

    /// The current sharded reference store.
    pub fn reference(&self) -> &ShardedStore {
        &self.store
    }

    /// The configured per-shard index backend.
    pub fn index_config(&self) -> IndexConfig {
        self.store.index_config()
    }

    /// The resolved shard count the store is serving with.
    pub fn n_shards(&self) -> usize {
        self.store.n_shards()
    }

    /// Switches every shard's index backend, rebuilding each from its
    /// stored rows. With [`IndexConfig::Flat`] every decision is
    /// bit-identical to an exhaustive scan; an IVF backend re-trains
    /// its per-shard coarse quantizers here (the only non-incremental
    /// step — subsequent [`AdaptiveFingerprinter::update_class`] /
    /// [`AdaptiveFingerprinter::add_class`] calls mutate them in
    /// place).
    pub fn set_index(&mut self, config: IndexConfig) {
        self.store.set_index(config);
    }

    /// Re-partitions the reference store across a new shard count
    /// (`0` = auto `⌈√n_classes⌉`) in place, and records the knob for
    /// future [`AdaptiveFingerprinter::set_reference`] rebuilds. With
    /// exact (flat) per-shard backends decisions are identical for
    /// every shard count; see `ARCHITECTURE.md` for the full
    /// determinism contract.
    pub fn set_shards(&mut self, shards: usize) {
        self.shards = shards;
        self.store.set_shards(shards);
    }

    /// Training diagnostics from provisioning.
    pub fn training_log(&self) -> &TrainingLog {
        &self.log
    }

    /// kNN neighbourhood size in use.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sets the worker-thread count used by batch operations
    /// (`0` = all cores). Results are identical for every value; only
    /// wall-clock time changes.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Sets the worker-pool size for the concurrent query fan-out
    /// across shards (`0` = all cores, honoring `TLSFP_THREADS`).
    /// Every query path — single-trace and batch, closed- and
    /// open-world — fans its shard scans across this many workers and
    /// selects under one `(dist, id)` top-k rule, so results are
    /// **bit-identical** for every value; only wall-clock time changes.
    pub fn set_query_workers(&mut self, workers: usize) {
        self.query_workers = workers;
    }

    /// The configured query-fan-out worker count (`0` = auto).
    pub fn query_workers(&self) -> usize {
        self.query_workers
    }

    /// Replaces the whole reference store with embeddings of `data`
    /// (initialization, step 2 of Figure 2). The label space becomes
    /// `data.n_classes()`, the shard count re-resolves against it, and
    /// shards build one at a time: each shard's traces are embedded in
    /// one `embed_batch` pass and loaded before the next shard starts,
    /// so provisioning peak memory is bounded by the **largest shard's**
    /// embeddings, never the whole corpus's.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadDataset`] on shape mismatch.
    pub fn set_reference(&mut self, data: &Dataset) -> Result<()> {
        if data.channels() != self.embedder.input_size() {
            return Err(CoreError::BadDataset(format!(
                "reference data has {} channels, embedder expects {}",
                data.channels(),
                self.embedder.input_size()
            )));
        }
        let mut store = ShardedStore::new(
            self.embedder.output_size(),
            self.store.metric(),
            &self.store.index_config(),
            data.n_classes(),
            self.shards,
        );
        if store.n_shards() == 1 {
            // Single shard: embed the corpus in one pass and load it in
            // dataset order — exactly the historical unsharded path,
            // bit for bit.
            self.embedder
                .embed_batch_with(data.seqs(), self.threads, |rows| {
                    store.load_shard(0, data.labels(), rows);
                });
        } else {
            for s in 0..store.n_shards() {
                let mut seqs = Vec::new();
                let mut labels = Vec::new();
                for (i, &label) in data.labels().iter().enumerate() {
                    if store.shard_of(label) == s {
                        seqs.push(data.seqs()[i].clone());
                        labels.push(label);
                    }
                }
                self.embedder.embed_batch_with(&seqs, self.threads, |rows| {
                    store.load_shard(s, &labels, rows);
                });
            }
        }
        self.store = store;
        Ok(())
    }

    /// Adaptation (§IV-C): replaces one class's reference points with
    /// embeddings of freshly-crawled traces. No retraining happens,
    /// and only the owning shard's index is touched.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ClassOutOfRange`] for a bad class id.
    pub fn update_class(&mut self, class: usize, fresh_traces: &[SeqInput]) -> Result<usize> {
        if class >= self.store.n_classes() {
            return Err(CoreError::ClassOutOfRange {
                class,
                n_classes: self.store.n_classes(),
            });
        }
        Ok(self.swap_in(class, fresh_traces))
    }

    /// Adds a brand-new webpage to the monitored set and returns its
    /// class id — possible without retraining because the embedder is
    /// class-agnostic. The new class routes into an existing shard and
    /// is filled by one swap, like [`AdaptiveFingerprinter::update_class`]:
    /// no other shard is touched, and readers see the class empty or
    /// whole, never half-added.
    pub fn add_class(&mut self, traces: &[SeqInput]) -> Result<usize> {
        let class = self.store.allocate_class();
        self.swap_in(class, traces);
        Ok(class)
    }

    /// Embeds `traces` in one batch and swaps them in as `class`'s
    /// reference points (one write lock on the owning shard); returns
    /// how many points were dropped.
    fn swap_in(&self, class: usize, traces: &[SeqInput]) -> usize {
        self.embedder
            .embed_batch_with(traces, self.threads, |rows| {
                self.store.swap_class(class, rows)
            })
    }

    /// Stops monitoring a webpage: drops every reference point of
    /// `class` from its owning shard (the label space keeps its size;
    /// the class becomes empty and can be re-populated later with
    /// [`AdaptiveFingerprinter::update_class`]). Returns how many
    /// points were dropped.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ClassOutOfRange`] for a bad class id.
    pub fn remove_class(&mut self, class: usize) -> Result<usize> {
        if class >= self.store.n_classes() {
            return Err(CoreError::ClassOutOfRange {
                class,
                n_classes: self.store.n_classes(),
            });
        }
        Ok(self.store.remove_class(class))
    }

    /// Embeds and classifies one captured trace (steps 3–4 of Figure 2)
    /// through the serving index.
    pub fn fingerprint(&self, trace: &SeqInput) -> RankedPrediction {
        self.fingerprint_with_score(trace).prediction
    }

    /// Embeds and classifies a whole dataset — the batch front door:
    /// one fused `embed_batch` pass pipelined into the concurrent
    /// search fan-out (`ShardedStore::search_batch_concurrent`), which
    /// selects under one `(dist, id)` top-k rule. Bit-identical to calling
    /// [`AdaptiveFingerprinter::fingerprint`] per trace, at every
    /// worker count.
    pub fn fingerprint_all(&self, data: &Dataset) -> Vec<RankedPrediction> {
        self.fingerprint_with_score_all(data)
            .into_iter()
            .map(|sp| sp.prediction)
            .collect()
    }

    /// Embeds and classifies one trace, also reporting its outlier
    /// score — the open-world primitive. The per-shard searches fan
    /// out across the query worker pool
    /// ([`AdaptiveFingerprinter::set_query_workers`]) and merge
    /// deterministically.
    pub fn fingerprint_with_score(&self, trace: &SeqInput) -> ScoredPrediction {
        self.decide(&self.embedder.embed(trace))
    }

    /// Open-world fingerprinting (§VI-C): returns `None` when `rule`
    /// rejects the trace — its outlier score lies outside its predicted
    /// class's radius — signalling a page outside the monitored set.
    /// Calibrate the rule with
    /// [`AdaptiveFingerprinter::calibrate_rejection_radii`], or with
    /// [`AdaptiveFingerprinter::calibrate_rejection_threshold`] for one
    /// shared radius.
    pub fn fingerprint_open_world(
        &self,
        trace: &SeqInput,
        rule: &PerClassThresholds,
    ) -> Option<RankedPrediction> {
        let sp = self.fingerprint_with_score(trace);
        let accepted = rule.accepts(sp.score, sp.prediction.top(), 0.0);
        record_decisions(accepted as u64, !accepted as u64);
        accepted.then_some(sp.prediction)
    }

    /// Embeds and score-classifies a whole dataset in parallel (the
    /// batch open-world path).
    pub fn fingerprint_with_score_all(&self, data: &Dataset) -> Vec<ScoredPrediction> {
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_fingerprints_total",
                "Traces fingerprinted through the batch serving path"
            )
            .add(data.seqs().len() as u64);
        }
        let embeddings = self.embed_all(data.seqs());
        // The "decide" span covers classification end to end (search
        // fan-out + rank), so the fanout/shard_scan/merge spans nest
        // inside it; embedding is accounted separately.
        let _decide = tlsfp_telemetry::stage_timer!("decide");
        self.decide_all(&embeddings)
    }

    /// Nearest-reference outlier scores for a whole dataset.
    pub fn outlier_scores(&self, data: &Dataset) -> Vec<f32> {
        self.fingerprint_with_score_all(data)
            .into_iter()
            .map(|sp| sp.score)
            .collect()
    }

    /// Full open-world evaluation: `monitored` is a labeled test set of
    /// monitored pages, `unmonitored` holds loads of pages outside the
    /// monitored set (its labels are ignored). Every load is accepted
    /// or rejected by `rule` ([`PerClassThresholds::accepts`]), giving
    /// the accept/reject counts and the accepted-top-1 accuracy; the
    /// ROC sweeps normalized scores, so its thresholds are offsets from
    /// the calibrated radii ([`OpenWorldReport::for_rule`]).
    pub fn evaluate_open_world(
        &self,
        monitored: &Dataset,
        unmonitored: &Dataset,
        rule: &PerClassThresholds,
    ) -> OpenWorldReport {
        let report = OpenWorldReport::for_rule(
            rule,
            &self.fingerprint_with_score_all(monitored),
            monitored.labels(),
            &self.fingerprint_with_score_all(unmonitored),
        );
        let accepts = (report.counts.true_positives + report.counts.false_positives) as u64;
        record_decisions(accepts, report.counts.total() as u64 - accepts);
        report
    }

    /// Calibrates a global open-world rejection threshold from held-out
    /// *known* traces: the `percentile` (0–100) of their nearest-
    /// reference distances, as the accept rule with that one shared
    /// radius ([`PerClassThresholds::global`]). A 95th-percentile
    /// threshold accepts ~95% of monitored-page loads while rejecting
    /// far-away unknowns.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadDataset`] if `known` is empty.
    pub fn calibrate_rejection_threshold(
        &self,
        known: &Dataset,
        percentile: f64,
    ) -> Result<PerClassThresholds> {
        if known.is_empty() {
            return Err(CoreError::BadDataset(
                "cannot calibrate on an empty dataset".into(),
            ));
        }
        let _calibrate = tlsfp_telemetry::stage_timer!("calibrate");
        record_calibration_event();
        let scores = self.outlier_scores(known);
        open_world::calibrate_threshold(&scores, percentile)
            .map(PerClassThresholds::global)
            .ok_or_else(|| CoreError::BadDataset("cannot calibrate on an empty dataset".into()))
    }

    /// Per-class variant of
    /// [`AdaptiveFingerprinter::calibrate_rejection_threshold`]: each
    /// monitored class gets its own acceptance radius (the `percentile`
    /// of *its* held-out scores), falling back to the global percentile
    /// for classes with fewer than `min_samples` calibration loads.
    /// Tight classes can then reject impostors a single global
    /// threshold would accept.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::BadDataset`] if `known` is empty.
    pub fn calibrate_rejection_radii(
        &self,
        known: &Dataset,
        percentile: f64,
        min_samples: usize,
    ) -> Result<PerClassThresholds> {
        if known.is_empty() {
            return Err(CoreError::BadDataset(
                "cannot calibrate on an empty dataset".into(),
            ));
        }
        let _calibrate = tlsfp_telemetry::stage_timer!("calibrate");
        record_calibration_event();
        let scores = self.outlier_scores(known);
        open_world::calibrate_per_class(
            &scores,
            known.labels(),
            self.store.n_classes(),
            percentile,
            min_samples,
        )
        .ok_or_else(|| CoreError::BadDataset("cannot calibrate on an empty dataset".into()))
    }

    /// Embeds a batch of traces through the fused batched engine
    /// (`SequenceEmbedder::embed_batch`), sharded across the worker
    /// pool. Every serving/provisioning path embeds through this (or
    /// `embed_batch` directly) — nothing embeds one trace at a time.
    pub fn embed_all(&self, traces: &[SeqInput]) -> Vec<Vec<f32>> {
        self.embedder
            .embed_batch_with(traces, self.threads, |rows| rows.to_vecs())
    }

    /// Evaluates against a labeled test set, producing the full report
    /// (top-N curves, per-class guesses, CDFs).
    pub fn evaluate(&self, test: &Dataset) -> EvalReport {
        let predictions: Vec<RankedPrediction> = self
            .decide_all(&self.embed_all(test.seqs()))
            .into_iter()
            .map(|sp| sp.prediction)
            .collect();
        EvalReport::from_predictions(&predictions, test.labels(), self.store.n_classes())
    }

    /// Decides one embedding through the serving path every query
    /// takes: the concurrent shard fan-out, the merge of its top-k
    /// accumulators, then the vote.
    pub(crate) fn decide(&self, embedding: &[f32]) -> ScoredPrediction {
        rank_search(
            self.store
                .search_concurrent(embedding, self.k, self.query_workers),
        )
    }

    /// Batch form of [`AdaptiveFingerprinter::decide`]: the
    /// (shard group × query-block) fan-out, merged per query, then the
    /// vote.
    /// Bit-identical to deciding each embedding alone.
    pub(crate) fn decide_all(&self, embeddings: &[Vec<f32>]) -> Vec<ScoredPrediction> {
        self.store
            .search_batch_concurrent(embeddings, self.k, self.query_workers)
            .into_iter()
            .map(rank_search)
            .collect()
    }

    /// Serializes the whole deployment (model + reference set) to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] on failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| CoreError::Serialization(e.to_string()))
    }

    /// Restores a deployment from [`AdaptiveFingerprinter::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Serialization`] on failure.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| CoreError::Serialization(e.to_string()))
    }
}

/// Tallies open-world accept/reject outcomes into
/// `tlsfp_decisions_total{outcome=...}`. A no-op while telemetry is
/// disabled; never inspects or alters the decisions themselves.
fn record_decisions(accepts: u64, rejects: u64) {
    if !tlsfp_telemetry::enabled() {
        return;
    }
    tlsfp_telemetry::counter!(
        "tlsfp_decisions_total",
        "Open-world accept/reject decisions, by outcome",
        "outcome" => "accept"
    )
    .add(accepts);
    tlsfp_telemetry::counter!(
        "tlsfp_decisions_total",
        "Open-world accept/reject decisions, by outcome",
        "outcome" => "reject"
    )
    .add(rejects);
}

/// Counts one rejection-threshold/radius calibration run.
fn record_calibration_event() {
    if tlsfp_telemetry::enabled() {
        tlsfp_telemetry::counter!(
            "tlsfp_calibration_events_total",
            "Rejection threshold/radius calibration runs"
        )
        .inc();
    }
}

/// Trains an embedder on a dataset per the config; returns diagnostics.
///
/// # Errors
///
/// Returns [`CoreError::BadDataset`] if no positive or negative pairs
/// can be formed.
pub fn train_embedder(
    embedder: &mut SequenceEmbedder,
    train: &Dataset,
    config: &PipelineConfig,
    seed: u64,
) -> Result<TrainingLog> {
    let index = ClassIndex::from_labels(train.labels());
    if index.pairable_classes().is_empty() {
        return Err(CoreError::BadDataset(
            "no class has two samples; cannot form positive pairs".into(),
        ));
    }
    if train.n_classes() < 2 {
        return Err(CoreError::BadDataset(
            "need at least two classes for negative pairs".into(),
        ));
    }

    let trainer = SiameseTrainer {
        loss: tlsfp_nn::loss::ContrastiveLoss::new(config.margin),
        batch_size: config.batch_size,
        threads: config.threads,
    };
    let mut opt = Sgd::with_momentum(config.learning_rate, config.momentum).clip(5.0);
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xDEAD_BEEF));

    let start = std::time::Instant::now();
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    // One scratch across all mining epochs: the SGD steps bump the
    // embedder's weights version, so the scratch re-transposes exactly
    // once per epoch and reuses every buffer.
    let mut mining_scratch = EmbedScratch::with_threads(config.threads);
    for epoch in 0..config.epochs {
        let pairs = match config.semi_hard_from_epoch {
            Some(from) if epoch >= from => {
                let embeddings = embedder
                    .embed_batch(train.seqs(), &mut mining_scratch)
                    .to_vecs();
                semi_hard_pairs(
                    &embeddings,
                    &index,
                    config.margin,
                    config.pairs_per_epoch / 2,
                    16,
                    &mut rng,
                )
            }
            _ => random_pairs(&index, config.pairs_per_epoch, 0.5, &mut rng),
        };
        let stats = trainer.train_epoch(embedder, train.seqs(), &pairs, &mut opt, epoch as u64);
        epoch_losses.push(stats.mean_loss);
    }
    Ok(TrainingLog {
        epoch_losses,
        train_seconds: start.elapsed().as_secs_f64(),
    })
}

#[cfg(test)]
mod tests {
    use tlsfp_trace::tensorize::TensorConfig;
    use tlsfp_web::corpus::CorpusSpec;

    use super::*;

    fn small_corpus(classes: usize, traces: usize, seed: u64) -> Dataset {
        let (_, ds) = Dataset::generate(
            &CorpusSpec::wiki_like(classes, traces),
            &TensorConfig::wiki(),
            seed,
        )
        .unwrap();
        ds
    }

    fn tiny_config() -> PipelineConfig {
        let mut cfg = PipelineConfig::small();
        cfg.epochs = 30;
        cfg.pairs_per_epoch = 1_024;
        cfg.embedder.hidden_layers = vec![48, 48];
        cfg.embedder.lstm_hidden = 16;
        cfg.embedder.output_size = 16;
        cfg.k = 10;
        cfg
    }

    #[test]
    fn provision_and_classify_beats_chance_soundly() {
        let ds = small_corpus(8, 12, 3);
        let (train, test) = ds.split_per_class(0.25, 0);
        let fp = AdaptiveFingerprinter::provision(&train, &tiny_config(), 7).unwrap();
        let report = fp.evaluate(&test);
        let top1 = report.top_n_accuracy(1);
        // Chance is 1/8 = 0.125; the embedder should do much better.
        assert!(top1 > 0.5, "top-1 accuracy only {top1}");
        // Loss decreased during training.
        let log = fp.training_log();
        assert!(log.epoch_losses.last().unwrap() < log.epoch_losses.first().unwrap());
    }

    #[test]
    fn unseen_class_reference_swap_works() {
        // Train on 6 classes, then point the reference at 4 *different*
        // classes the model never saw (Exp. 2's structure).
        let ds = small_corpus(10, 12, 5);
        let split = ds.figure5(6, 0.25, 1).unwrap();
        let mut fp = AdaptiveFingerprinter::provision(&split.set_a, &tiny_config(), 7).unwrap();
        fp.set_reference(&split.set_c).unwrap();
        let report = fp.evaluate(&split.set_d);
        let top1 = report.top_n_accuracy(1);
        assert!(top1 > 0.4, "unseen-class top-1 only {top1} (chance 0.25)");
    }

    #[test]
    fn adaptation_updates_single_class() {
        let ds = small_corpus(5, 10, 9);
        let (train, test) = ds.split_per_class(0.3, 0);
        let mut fp = AdaptiveFingerprinter::provision(&train, &tiny_config(), 7).unwrap();
        let before = fp.reference().class_count(2);
        assert!(before > 0);
        // Swap class 2's reference points with some test traces.
        let fresh: Vec<SeqInput> = test
            .iter()
            .filter(|(l, _)| *l == 2)
            .map(|(_, s)| s.clone())
            .collect();
        let removed = fp.update_class(2, &fresh).unwrap();
        assert_eq!(removed, before);
        assert_eq!(fp.reference().class_count(2), fresh.len());
    }

    #[test]
    fn add_class_extends_label_space() {
        let ds = small_corpus(4, 8, 11);
        let mut fp = AdaptiveFingerprinter::provision(&ds, &tiny_config(), 7).unwrap();
        assert_eq!(fp.reference().n_classes(), 4);
        let new_traces: Vec<SeqInput> = ds.seqs()[..3].to_vec();
        let id = fp.add_class(&new_traces).unwrap();
        assert_eq!(id, 4);
        assert_eq!(fp.reference().n_classes(), 5);
        assert_eq!(fp.reference().class_count(4), 3);
    }

    #[test]
    fn open_world_rejection_separates_monitored_from_foreign() {
        // Monitor 5 pages of one site; loads of a *different* site must
        // mostly be rejected while monitored loads mostly classify.
        let monitored = small_corpus(5, 12, 17);
        let (train, test) = monitored.split_per_class(0.3, 0);
        let fp = AdaptiveFingerprinter::provision(&train, &tiny_config(), 7).unwrap();
        let threshold = fp.calibrate_rejection_threshold(&test, 95.0).unwrap();
        assert!(threshold.fallback.is_finite() && threshold.fallback > 0.0);
        assert!(threshold.radii.is_empty(), "one shared radius");

        let accepted_known = test
            .seqs()
            .iter()
            .filter(|t| fp.fingerprint_open_world(t, &threshold).is_some())
            .count();
        assert!(
            accepted_known as f64 >= 0.7 * test.len() as f64,
            "only {accepted_known}/{} known traces accepted",
            test.len()
        );

        // A foreign site (github-like: different theme, protocol,
        // hosting) should trip the outlier detector far more often.
        let (_, foreign) =
            Dataset::generate(&CorpusSpec::github_like(5, 6), &TensorConfig::wiki(), 99).unwrap();
        let accepted_foreign = foreign
            .seqs()
            .iter()
            .filter(|t| fp.fingerprint_open_world(t, &threshold).is_some())
            .count();
        assert!(
            accepted_foreign < foreign.len(),
            "every foreign trace was accepted"
        );
    }

    #[test]
    fn evaluate_open_world_reports_consistent_metrics() {
        let monitored = small_corpus(5, 12, 17);
        let (train, test) = monitored.split_per_class(0.3, 0);
        let fp = AdaptiveFingerprinter::provision(&train, &tiny_config(), 7).unwrap();
        let threshold = fp.calibrate_rejection_threshold(&test, 95.0).unwrap();
        let (_, foreign) =
            Dataset::generate(&CorpusSpec::github_like(5, 6), &TensorConfig::wiki(), 99).unwrap();

        let report = fp.evaluate_open_world(&test, &foreign, &threshold);
        // Counts cover every sample exactly once.
        assert_eq!(report.counts.total(), test.len() + foreign.len());
        // The report's accept counts agree with the per-trace API.
        let accepted_known = test
            .seqs()
            .iter()
            .filter(|t| fp.fingerprint_open_world(t, &threshold).is_some())
            .count();
        assert_eq!(report.counts.true_positives, accepted_known);
        // Calibrated at the 95th percentile, most known traces pass.
        assert!(report.counts.tpr() > 0.7, "TPR {}", report.counts.tpr());
        // The ROC ends at accept-everything.
        let last = report.roc.last().unwrap();
        assert_eq!((last.tpr, last.fpr), (1.0, 1.0));
        // Scored fingerprints agree with the unscored path.
        let sp = fp.fingerprint_with_score(&test.seqs()[0]);
        assert_eq!(sp.prediction, fp.fingerprint(&test.seqs()[0]));
    }

    #[test]
    fn provision_rejects_bad_inputs() {
        let empty = Dataset::new(3, 3, 60);
        assert!(matches!(
            AdaptiveFingerprinter::provision(&empty, &tiny_config(), 0),
            Err(CoreError::BadDataset(_))
        ));
        // Channel mismatch.
        let ds = small_corpus(3, 4, 0);
        let mut cfg = tiny_config();
        cfg.embedder.input_size = 2;
        assert!(matches!(
            AdaptiveFingerprinter::provision(&ds, &cfg, 0),
            Err(CoreError::BadDataset(_))
        ));
        // k = 0 fails closed before any training.
        let mut cfg = tiny_config();
        cfg.k = 0;
        assert!(matches!(
            AdaptiveFingerprinter::provision(&ds, &cfg, 0),
            Err(CoreError::BadConfig(_))
        ));
        // So does k = 0 around an already-trained model.
        let embedder = SequenceEmbedder::new(cfg.embedder, 0).unwrap();
        assert!(matches!(
            AdaptiveFingerprinter::from_trained(embedder, 0, 1),
            Err(CoreError::BadConfig(_))
        ));
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let ds = small_corpus(4, 8, 13);
        let fp = AdaptiveFingerprinter::provision(&ds, &tiny_config(), 7).unwrap();
        let json = fp.to_json().unwrap();
        let back = AdaptiveFingerprinter::from_json(&json).unwrap();
        let trace = &ds.seqs()[0];
        assert_eq!(fp.fingerprint(trace), back.fingerprint(trace));
    }

    #[test]
    fn paper_config_matches_table_one() {
        let cfg = PipelineConfig::paper(3);
        assert_eq!(cfg.margin, 10.0);
        assert_eq!(cfg.batch_size, 512);
        assert_eq!(cfg.learning_rate, 0.001);
        assert_eq!(cfg.k, 250);
        assert_eq!(cfg.embedder.lstm_hidden, 30);
        assert_eq!(cfg.embedder.output_size, 32);
    }
}
