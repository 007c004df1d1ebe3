//! The paper's embedding network (Table I): an LSTM front-end over the
//! IP sequences followed by a stack of fully-connected layers producing a
//! low-dimensional embedding.
//!
//! | Hyperparameter | Table I value |
//! |---|---|
//! | Input layer | 30 LSTM units |
//! | Hidden fully-connected layers | 4 |
//! | Hidden layer size | 100–2000 neurons (grid-searched) |
//! | Hidden activation | ReLU |
//! | Output size | 32 |
//! | Output activation | Leaky ReLU |
//! | Dropout | 0.1 |

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::dropout::Dropout;
use crate::error::{NnError, Result};
use crate::init::Init;
use crate::linear::{Dense, DenseGrad};
use crate::lstm::{GateWeightsT, Lstm, LstmCache, LstmGrad, LstmScratch, LstmStream};
use crate::parallel::{resolve_threads, scatter_chunks_mut};
use crate::seq::SeqInput;
use crate::tensor::{GradRows, Rows};

/// Process-wide monotonic counter behind [`SequenceEmbedder`]'s weights
/// version: every freshly-built, deserialized, or mutably-borrowed
/// parameter state gets a distinct id, so cached [`EmbedWeightsT`] can
/// be told from stale ones without hashing 500 KB of parameters per
/// call.
static WEIGHTS_VERSION: AtomicU64 = AtomicU64::new(1);

fn next_weights_version() -> u64 {
    WEIGHTS_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// Architecture description for a [`SequenceEmbedder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbedderConfig {
    /// Channels per timestep (number of IP sequences; 3 or 2 in the paper).
    pub input_size: usize,
    /// LSTM hidden units (30 in Table I).
    pub lstm_hidden: usize,
    /// Sizes of the hidden fully-connected layers (Table I: 4 layers,
    /// 100–2000 neurons each).
    pub hidden_layers: Vec<usize>,
    /// Embedding dimensionality (32 in Table I).
    pub output_size: usize,
    /// Hidden activation (ReLU in Table I).
    pub hidden_activation: Activation,
    /// Output activation (Leaky ReLU in Table I).
    pub output_activation: Activation,
    /// Dropout probability applied after each hidden layer (0.1 in Table I).
    pub dropout: f32,
}

impl EmbedderConfig {
    /// The paper's architecture for `input_size` IP sequences, using
    /// 200-unit hidden layers (within Table I's grid-search range and
    /// large enough for the synthetic corpora in this repo).
    pub fn paper(input_size: usize) -> Self {
        EmbedderConfig {
            input_size,
            lstm_hidden: 30,
            hidden_layers: vec![200, 200, 200, 200],
            output_size: 32,
            hidden_activation: Activation::Relu,
            output_activation: Activation::leaky_relu_default(),
            dropout: 0.1,
        }
    }

    /// A small architecture for unit tests and quick examples.
    pub fn small(input_size: usize) -> Self {
        EmbedderConfig {
            input_size,
            lstm_hidden: 16,
            hidden_layers: vec![48, 48],
            output_size: 16,
            hidden_activation: Activation::Relu,
            output_activation: Activation::leaky_relu_default(),
            dropout: 0.1,
        }
    }

    /// Validates structural invariants.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when any size is zero or the
    /// dropout probability is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.input_size == 0 {
            return Err(NnError::InvalidConfig("input_size must be > 0".into()));
        }
        if self.lstm_hidden == 0 {
            return Err(NnError::InvalidConfig("lstm_hidden must be > 0".into()));
        }
        if self.output_size == 0 {
            return Err(NnError::InvalidConfig("output_size must be > 0".into()));
        }
        if self.hidden_layers.contains(&0) {
            return Err(NnError::InvalidConfig(
                "hidden layer sizes must be > 0".into(),
            ));
        }
        if !(0.0..1.0).contains(&self.dropout) {
            return Err(NnError::InvalidConfig(format!(
                "dropout must be in [0,1), got {}",
                self.dropout
            )));
        }
        Ok(())
    }
}

/// The siamese embedding network: LSTM → dense stack → embedding.
///
/// The same instance embeds both sides of a training pair (shared
/// weights), and at attack time maps captured traces into the embedding
/// space where a kNN classifier operates. All inference entry points
/// ([`SequenceEmbedder::embed`], [`SequenceEmbedder::embed_all`]) are
/// thin wrappers over the batched engine
/// ([`SequenceEmbedder::embed_batch`]).
#[derive(Debug, Clone)]
pub struct SequenceEmbedder {
    config: EmbedderConfig,
    lstm: Lstm,
    hidden: Vec<Dense>,
    output: Dense,
    /// Identity of the current parameter state (see
    /// [`WEIGHTS_VERSION`]); bumped by every mutable parameter borrow
    /// so scratch-cached transposed weights invalidate automatically.
    version: u64,
}

impl PartialEq for SequenceEmbedder {
    fn eq(&self, other: &Self) -> bool {
        // The weights version is an identity tag, not model state.
        self.config == other.config
            && self.lstm == other.lstm
            && self.hidden == other.hidden
            && self.output == other.output
    }
}

impl Serialize for SequenceEmbedder {
    fn to_value(&self) -> serde::json::Value {
        serde::json::Value::Object(vec![
            ("config".to_string(), self.config.to_value()),
            ("lstm".to_string(), self.lstm.to_value()),
            ("hidden".to_string(), self.hidden.to_value()),
            ("output".to_string(), self.output.to_value()),
        ])
    }
}

impl Deserialize for SequenceEmbedder {
    fn from_value(v: &serde::json::Value) -> std::result::Result<Self, serde::json::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| serde::json::Error::custom("SequenceEmbedder: expected object"))?;
        Ok(SequenceEmbedder {
            config: serde::json::field(pairs, "config")?,
            lstm: serde::json::field(pairs, "lstm")?,
            hidden: serde::json::field(pairs, "hidden")?,
            output: serde::json::field(pairs, "output")?,
            version: next_weights_version(),
        })
    }
}

/// Caller-owned scratch for [`SequenceEmbedder::embed_batch`]: the
/// transposed-weight cache, per-worker LSTM/dense panels, and the
/// output row buffer.
///
/// # Amortization model
///
/// Batched embedding wins on three axes, all of which live here:
///
/// 1. **Weight traffic** — the `(4H)×(I+H)` gate matrix and the dense
///    stack are transposed once into an [`EmbedWeightsT`] and then
///    streamed once per timestep for the *whole* batch (a
///    matrix–matrix product), instead of being re-walked per trace.
///    The transposes are cached across calls and keyed on the
///    embedder's weights version, so repeated `embed_batch` calls
///    against an unchanged model never re-copy them.
/// 2. **Allocations** — every intermediate (gate pre-activations,
///    hidden/cell states, dense activations) lives in reusable buffers;
///    after the first call on the largest batch shape, embedding is
///    allocation-free.
/// 3. **Ragged batches** — sequences are planned longest-first and
///    retire off the active prefix as they finish, so mixed-length
///    batches never pad or re-scan.
///
/// Batching wins whenever more than a handful of traces are embedded
/// together (provisioning, reference swaps, batch evaluation); for a
/// single trace the engine degrades gracefully to a batch of one. The
/// per-trace arithmetic is identical in every case, so batched results
/// are bit-identical to [`SequenceEmbedder::embed`].
#[derive(Debug)]
pub struct EmbedScratch {
    /// Worker threads for batch sharding (`0` = all cores).
    threads: usize,
    /// The cached transposed weights (checked against the embedder's
    /// version on every call).
    weights: EmbedWeightsT,
    /// Per-worker engine buffers.
    workers: Vec<WorkerScratch>,
    /// Output embeddings (`batch × output_size`, original order).
    out: Vec<f32>,
}

/// One worker's engine buffers: LSTM panels plus the dense ping-pong
/// activations.
#[derive(Debug, Default)]
struct WorkerScratch {
    lstm: LstmScratch,
    /// Dense-stack input rows (starts as the LSTM final states).
    a: Vec<f32>,
    /// Dense-stack output rows (swapped with `a` after each layer).
    b: Vec<f32>,
}

impl Default for EmbedScratch {
    /// Same as [`EmbedScratch::new`]: single-threaded.
    fn default() -> Self {
        EmbedScratch::new()
    }
}

impl EmbedScratch {
    /// Single-threaded scratch (the default).
    pub fn new() -> Self {
        EmbedScratch::with_threads(1)
    }

    /// Scratch that shards batches across `threads` workers
    /// (`0` = all cores). Results are identical for every value; only
    /// wall-clock changes.
    pub fn with_threads(threads: usize) -> Self {
        EmbedScratch {
            threads,
            weights: EmbedWeightsT::default(),
            workers: Vec::new(),
            out: Vec::new(),
        }
    }

    /// Changes the worker-thread count for subsequent calls.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads;
    }
}

/// Transposed weights frozen at one parameter version: the layout the
/// fused engine streams, built by one routine for both of its callers —
/// the [`EmbedScratch`] cache behind `embed_batch`, and the copy every
/// streaming session of a model shares (see
/// [`SequenceEmbedder::stream_weights`]). Holding these outside the
/// per-session state keeps an [`EmbedStream`] down to a few LSTM
/// panels.
#[derive(Debug, Default)]
pub struct EmbedWeightsT {
    /// Weights version these transposes were taken from (`0`, which no
    /// model carries, until first filled).
    version: u64,
    /// Transposed, panel-padded LSTM gate weights.
    lstm: GateWeightsT,
    /// Transposed hidden dense weights, one buffer per layer.
    hidden: Vec<Vec<f32>>,
    /// Transposed output-layer weights.
    output: Vec<f32>,
}

/// Incremental embedding state for one streaming session: the live
/// LSTM fold. The dense stack is stateless and replayed on demand by
/// [`SequenceEmbedder::stream_embedding`], so peeking at the embedding
/// mid-trace costs one dense pass and consumes nothing. Cloning is
/// cheap (a few `hp`-sized panels).
#[derive(Debug, Clone)]
pub struct EmbedStream {
    lstm: LstmStream,
}

impl EmbedStream {
    /// Number of tensor timesteps folded so far.
    pub fn steps(&self) -> usize {
        self.lstm.steps()
    }
}

/// Forward-pass cache for [`SequenceEmbedder::forward_train`].
#[derive(Debug, Clone)]
pub struct EmbedCache {
    lstm: LstmCache,
    /// LSTM final hidden state (input to the first dense layer).
    lstm_out: Vec<f32>,
    /// Per hidden layer: pre-activation values.
    pre: Vec<Vec<f32>>,
    /// Per hidden layer: post-activation, post-dropout values (the input
    /// to the next layer).
    post: Vec<Vec<f32>>,
    /// Per hidden layer: the dropout mask that was applied.
    masks: Vec<Vec<f32>>,
    /// Output layer pre-activation.
    out_pre: Vec<f32>,
}

/// One sample's pre-activation gradients, from
/// `SequenceEmbedder::backward_deltas`: what
/// `SequenceEmbedder::backward_params_only` folds into the parameter
/// gradients, together with the layer inputs the sample's
/// [`EmbedCache`] kept.
#[derive(Debug, Clone)]
pub(crate) struct EmbedDeltas {
    /// LSTM gate deltas, `T × 4H` in step order.
    lstm: Vec<f32>,
    /// Per hidden layer: the pre-activation gradient.
    hidden: Vec<Vec<f32>>,
    /// Output-layer pre-activation gradient.
    output: Vec<f32>,
}

/// Gradient accumulator matching a [`SequenceEmbedder`].
#[derive(Debug, Clone, PartialEq)]
pub struct EmbedderGrads {
    /// LSTM gradients.
    pub lstm: LstmGrad,
    /// Hidden dense-layer gradients.
    pub hidden: Vec<DenseGrad>,
    /// Output layer gradients.
    pub output: DenseGrad,
}

/// A band of rows of every layer's gradient in an [`EmbedderGrads`]:
/// one replay worker's share (see `EmbedderGrads::rows`).
#[derive(Debug)]
pub(crate) struct EmbedderGradRows<'g> {
    lstm: GradRows<'g>,
    hidden: Vec<GradRows<'g>>,
    output: GradRows<'g>,
}

impl<'g> EmbedderGradRows<'g> {
    /// Splits every layer's band into `parts` contiguous row bands
    /// (`GradRows::split`); part `i` holds band `i` of each layer.
    pub(crate) fn split(self, parts: usize) -> Vec<EmbedderGradRows<'g>> {
        let parts = parts.max(1);
        let mut lstm = self.lstm.split(parts).into_iter();
        let mut hidden: Vec<_> = self
            .hidden
            .into_iter()
            .map(|h| h.split(parts).into_iter())
            .collect();
        let mut output = self.output.split(parts).into_iter();
        (0..parts)
            .map(|_| EmbedderGradRows {
                lstm: lstm.next().expect("one band per part"),
                hidden: hidden
                    .iter_mut()
                    .map(|h| h.next().expect("one band per part"))
                    .collect(),
                output: output.next().expect("one band per part"),
            })
            .collect()
    }
}

impl SequenceEmbedder {
    /// Builds a freshly-initialized network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: EmbedderConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let lstm = Lstm::new(config.input_size, config.lstm_hidden, &mut rng);
        let mut hidden = Vec::with_capacity(config.hidden_layers.len());
        let mut prev = config.lstm_hidden;
        for &h in &config.hidden_layers {
            hidden.push(Dense::new(prev, h, Init::HeUniform, &mut rng));
            prev = h;
        }
        let output = Dense::new(prev, config.output_size, Init::XavierUniform, &mut rng);
        Ok(SequenceEmbedder {
            config,
            lstm,
            hidden,
            output,
            version: next_weights_version(),
        })
    }

    /// The architecture this network was built with.
    pub fn config(&self) -> &EmbedderConfig {
        &self.config
    }

    /// Embedding dimensionality.
    pub fn output_size(&self) -> usize {
        self.config.output_size
    }

    /// Expected channels per timestep.
    pub fn input_size(&self) -> usize {
        self.config.input_size
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.lstm.param_count()
            + self.hidden.iter().map(Dense::param_count).sum::<usize>()
            + self.output.param_count()
    }

    /// Maps a trace to its embedding (evaluation mode: no dropout).
    ///
    /// A thin wrapper over [`SequenceEmbedder::embed_batch`] with a
    /// batch of one; callers embedding many traces should batch them
    /// (and hold an [`EmbedScratch`]) instead.
    ///
    /// # Panics
    ///
    /// Panics if `x.channels() != input_size`.
    pub fn embed(&self, x: &SeqInput) -> Vec<f32> {
        self.embed_batch_with(std::slice::from_ref(x), 1, |rows| rows.row(0).to_vec())
    }

    /// Embeds a batch through this thread's shared scratch and hands
    /// the resulting rows to `f` — for callers that want the batched
    /// engine and cross-call transposed-weight caching without owning
    /// an [`EmbedScratch`] (the core pipeline's serving/provisioning
    /// calls all come through here). `threads` shards the batch
    /// (`0` = all cores); results are identical for every value.
    pub fn embed_batch_with<R>(
        &self,
        xs: &[SeqInput],
        threads: usize,
        f: impl FnOnce(Rows<'_>) -> R,
    ) -> R {
        self.with_thread_scratch(|net, scratch| {
            scratch.set_threads(threads);
            f(net.embed_batch(xs, scratch))
        })
    }

    /// Runs `f` with this thread's shared [`EmbedScratch`] — the
    /// convenience wrappers use it so repeated single-trace calls keep
    /// their transposed-weight cache warm (the version key makes
    /// sharing the scratch across models safe).
    fn with_thread_scratch<R>(&self, f: impl FnOnce(&Self, &mut EmbedScratch) -> R) -> R {
        thread_local! {
            static SCRATCH: std::cell::RefCell<EmbedScratch> =
                std::cell::RefCell::new(EmbedScratch::new());
        }
        SCRATCH.with(|cell| f(self, &mut cell.borrow_mut()))
    }

    /// Embeds a batch of traces (evaluation mode). A thin wrapper over
    /// [`SequenceEmbedder::embed_batch`] that copies the rows out; hold
    /// your own [`EmbedScratch`] to skip the copies and reuse buffers
    /// across calls.
    pub fn embed_all(&self, xs: &[SeqInput]) -> Vec<Vec<f32>> {
        self.embed_batch_with(xs, 1, |rows| rows.to_vecs())
    }

    /// Embeds a whole batch through the fused engine: one gate
    /// matrix–matrix product per timestep and one product per dense
    /// layer for the entire batch, into caller-owned scratch.
    ///
    /// Returns the embeddings as a borrowed row-major view
    /// (`xs.len() × output_size`, input order) into `scratch`; the rows
    /// stay valid until the next call against the same scratch.
    ///
    /// Every trace's arithmetic runs in a fixed order independent of
    /// batch composition, worker count, or scratch history, so each row
    /// is **bit-identical** to [`SequenceEmbedder::embed`] of that
    /// trace. See [`EmbedScratch`] for the amortization model.
    ///
    /// # Panics
    ///
    /// Panics if any trace's channel count differs from `input_size`.
    pub fn embed_batch<'s>(&self, xs: &[SeqInput], scratch: &'s mut EmbedScratch) -> Rows<'s> {
        for x in xs {
            assert_eq!(
                x.channels(),
                self.config.input_size,
                "embedder expects {} channels, trace has {}",
                self.config.input_size,
                x.channels()
            );
        }
        // Telemetry is observation-only: nothing below branches on a
        // recorded value, so embeddings are bit-identical with it on
        // or off (the zero-perturbation contract).
        let _span = tlsfp_telemetry::stage_timer!("embed");
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_embed_batches_total",
                "Batches through the fused embed engine"
            )
            .inc();
            tlsfp_telemetry::counter!("tlsfp_embed_traces_total", "Traces embedded")
                .add(xs.len() as u64);
            tlsfp_telemetry::histogram!("tlsfp_embed_batch_size", "Traces per embed_batch call")
                .observe(xs.len() as u64);
        }
        let dim = self.config.output_size;
        if scratch.weights.version != self.version {
            self.transpose_weights(&mut scratch.weights);
            if tlsfp_telemetry::enabled() {
                tlsfp_telemetry::counter!(
                    "tlsfp_embed_weight_cache_misses_total",
                    "embed_batch calls that re-transposed the weights (scratch cache miss)"
                )
                .inc();
            }
        } else if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_embed_weight_cache_hits_total",
                "embed_batch calls that reused the scratch's transposed weights"
            )
            .inc();
        }
        let n_workers = resolve_threads(scratch.threads).clamp(1, xs.len().max(1));
        let EmbedScratch {
            weights,
            workers,
            out,
            ..
        } = scratch;
        if workers.len() < n_workers {
            workers.resize_with(n_workers, WorkerScratch::default);
        }
        out.clear();
        out.resize(xs.len() * dim, 0.0);
        scatter_chunks_mut(
            xs,
            &mut workers[..n_workers],
            out,
            dim,
            |chunk, worker, out_rows| self.embed_chunk(chunk, weights, worker, out_rows),
        );
        Rows::new(dim, out)
    }

    /// One worker's share of a batch: the fused LSTM, then the dense
    /// stack.
    fn embed_chunk(
        &self,
        xs: &[SeqInput],
        weights: &EmbedWeightsT,
        worker: &mut WorkerScratch,
        out: &mut [f32],
    ) {
        worker.a.clear();
        worker.a.resize(xs.len() * self.config.lstm_hidden, 0.0);
        self.lstm
            .forward_batch_t(xs, &weights.lstm, &mut worker.lstm, &mut worker.a);
        self.dense_stack(weights, xs.len(), &mut worker.a, &mut worker.b, out);
    }

    /// The dense stack on `n` LSTM final states held row-major in `a`:
    /// each hidden layer as one matrix product ping-ponging between `a`
    /// and `b`, then the output layer into `out` (`n × output_size`).
    /// The one dense body [`SequenceEmbedder::embed_batch`] and
    /// [`SequenceEmbedder::stream_embedding`] share; each row's
    /// arithmetic is independent of `n`.
    fn dense_stack(
        &self,
        weights: &EmbedWeightsT,
        n: usize,
        a: &mut Vec<f32>,
        b: &mut Vec<f32>,
        out: &mut [f32],
    ) {
        let mut width = self.config.lstm_hidden;
        for (layer, wt) in self.hidden.iter().zip(&weights.hidden) {
            let next = layer.output_size();
            b.clear();
            b.resize(n * next, 0.0);
            layer.forward_batch_t(wt, &a[..n * width], b);
            self.config.hidden_activation.apply_fast_slice(b);
            std::mem::swap(a, b);
            width = next;
        }
        self.output
            .forward_batch_t(&weights.output, &a[..n * width], out);
        self.config.output_activation.apply_fast_slice(out);
    }

    /// Transposes every layer's weights into `w`, reusing its buffers,
    /// in the layout the fused engine streams, and tags it with the
    /// current parameter version — the one routine behind both weight
    /// caches.
    fn transpose_weights(&self, w: &mut EmbedWeightsT) {
        self.lstm.gate_weights_t(&mut w.lstm);
        w.hidden.resize_with(self.hidden.len(), Vec::new);
        for (layer, wt) in self.hidden.iter().zip(&mut w.hidden) {
            layer.weights_t(wt);
        }
        self.output.weights_t(&mut w.output);
        w.version = self.version;
    }

    /// Transposed weights for the streaming path, frozen at the current
    /// parameter version and shared behind an [`Arc`] so every live
    /// session on a thread reuses one copy.
    ///
    /// The per-thread cache is keyed on the weights version (the same
    /// key [`EmbedScratch`] uses), so retraining or deserializing a new
    /// model naturally invalidates it; streams started against stale
    /// [`EmbedWeightsT`] are rejected by the version assert in
    /// [`SequenceEmbedder::stream_start`]. The cache is its own slot,
    /// not the thread's [`EmbedScratch`], so it never counts toward the
    /// `embed_batch` weight-cache counters.
    pub fn stream_weights(&self) -> Arc<EmbedWeightsT> {
        thread_local! {
            static CACHE: std::cell::RefCell<Option<Arc<EmbedWeightsT>>> =
                const { std::cell::RefCell::new(None) };
        }
        CACHE.with(|cell| {
            let mut cached = cell.borrow_mut();
            match cached.as_ref() {
                Some(w) if w.version == self.version => Arc::clone(w),
                _ => {
                    let mut w = EmbedWeightsT::default();
                    self.transpose_weights(&mut w);
                    Arc::clone(cached.insert(Arc::new(w)))
                }
            }
        })
    }

    /// Starts an incremental embedding fold with zeroed LSTM state.
    ///
    /// # Panics
    ///
    /// Panics if `weights` was built for a different parameter version
    /// (the model was retrained or replaced since
    /// [`SequenceEmbedder::stream_weights`]).
    pub fn stream_start(&self, weights: &EmbedWeightsT) -> EmbedStream {
        assert_eq!(
            weights.version, self.version,
            "stream weights were built for a different parameter state"
        );
        EmbedStream {
            lstm: self.lstm.stream_start(&weights.lstm),
        }
    }

    /// Folds one tensorized timestep (length [`EmbedderConfig::input_size`])
    /// into the stream — the LSTM advances; the dense stack is deferred
    /// to [`SequenceEmbedder::stream_embedding`].
    pub fn stream_fold(&self, weights: &EmbedWeightsT, stream: &mut EmbedStream, x_t: &[f32]) {
        debug_assert_eq!(weights.version, self.version, "stale stream weights");
        self.lstm.stream_step(&weights.lstm, &mut stream.lstm, x_t);
    }

    /// The embedding at the stream's current prefix, without consuming
    /// the stream: the dense stack replayed on the live hidden state as
    /// a batch of one through the fused engine's dense body, so after
    /// folding a trace's full tensor step-by-step the result is
    /// **bit-identical** to [`SequenceEmbedder::embed`] of that trace.
    pub fn stream_embedding(&self, weights: &EmbedWeightsT, stream: &EmbedStream) -> Vec<f32> {
        assert_eq!(
            weights.version, self.version,
            "stream weights were built for a different parameter state"
        );
        let mut a = self.lstm.stream_hidden(&stream.lstm).to_vec();
        let mut out = vec![0.0; self.config.output_size];
        self.dense_stack(weights, 1, &mut a, &mut Vec::new(), &mut out);
        out
    }

    /// The pre-batching reference path: one allocation-per-step LSTM
    /// walk and one matrix–vector product per dense layer, per trace,
    /// with libm transcendentals.
    ///
    /// Kept as the regression oracle for the fused engine (which must
    /// stay within the fast-activation tolerance of this path) and as
    /// the per-query **loop baseline** the `fig_embed` experiment and
    /// throughput smoke tests measure `embed_batch` against. Nothing on
    /// the serving path calls this.
    pub fn embed_looped(&self, x: &SeqInput) -> Vec<f32> {
        assert_eq!(
            x.channels(),
            self.config.input_size,
            "embedder expects {} channels, trace has {}",
            self.config.input_size,
            x.channels()
        );
        let mut cur = self.lstm.forward(x.as_slice());
        for layer in &self.hidden {
            let mut next = layer.forward_alloc(&cur);
            self.config.hidden_activation.apply_slice(&mut next);
            cur = next;
        }
        let mut out = self.output.forward_alloc(&cur);
        self.config.output_activation.apply_slice(&mut out);
        out
    }

    /// Forward pass with dropout, caching everything needed for
    /// [`SequenceEmbedder::backward`]. `rng` drives dropout masks: one
    /// uniform per hidden unit, layer by layer, when dropout is on (see
    /// `SequenceEmbedder::skip_forward_train`).
    pub fn forward_train<R: Rng + ?Sized>(
        &self,
        x: &SeqInput,
        rng: &mut R,
    ) -> (Vec<f32>, EmbedCache) {
        debug_assert_eq!(x.channels(), self.config.input_size);
        let dropout = Dropout::new(self.config.dropout);
        let (lstm_out, lstm_cache) = self.lstm.forward_train(x.as_slice());

        let n = self.hidden.len();
        let mut pre = Vec::with_capacity(n);
        let mut post: Vec<Vec<f32>> = Vec::with_capacity(n);
        let mut masks = Vec::with_capacity(n);
        for layer in &self.hidden {
            // Each layer reads the previous layer's cached activations
            // in place — the cache is the only copy.
            let input: &[f32] = post.last().map(Vec::as_slice).unwrap_or(&lstm_out);
            let p = layer.forward_alloc(input);
            let mut a = p.clone();
            self.config.hidden_activation.apply_slice(&mut a);
            let mask = dropout.apply_train(&mut a, rng);
            pre.push(p);
            masks.push(mask);
            post.push(a);
        }
        let out_input: &[f32] = post.last().map(Vec::as_slice).unwrap_or(&lstm_out);
        let out_pre = self.output.forward_alloc(out_input);
        let mut emb = out_pre.clone();
        self.config.output_activation.apply_slice(&mut emb);
        (
            emb,
            EmbedCache {
                lstm: lstm_cache,
                lstm_out,
                pre,
                post,
                masks,
                out_pre,
            },
        )
    }

    /// Advances `rng` past the dropout draws one
    /// [`SequenceEmbedder::forward_train`] makes, without running it.
    /// The trainer uses this to start each pair of a batch at its place
    /// in the batch's one dropout stream.
    pub(crate) fn skip_forward_train<R: Rng + ?Sized>(&self, rng: &mut R) {
        let dropout = Dropout::new(self.config.dropout);
        for layer in &self.hidden {
            dropout.skip_train(layer.output_size(), rng);
        }
    }

    /// Backward pass: accumulates parameter gradients for one sample —
    /// `SequenceEmbedder::backward_deltas`, then
    /// `SequenceEmbedder::backward_params_only` over every row.
    ///
    /// `grad_emb` is `dL/d(embedding)`.
    pub fn backward(&self, grad_emb: &[f32], cache: &EmbedCache, grads: &mut EmbedderGrads) {
        let deltas = self.backward_deltas(grad_emb, cache);
        self.backward_params_only(cache, &deltas, &mut grads.rows());
    }

    /// The delta half of [`SequenceEmbedder::backward`]: every layer's
    /// pre-activation gradient for one sample, given `grad_emb =
    /// dL/d(embedding)`. Touches no parameter gradient, so the samples
    /// of a batch can run it in parallel.
    pub(crate) fn backward_deltas(&self, grad_emb: &[f32], cache: &EmbedCache) -> EmbedDeltas {
        debug_assert_eq!(grad_emb.len(), self.config.output_size);
        // Output layer.
        let mut output = grad_emb.to_vec();
        self.config
            .output_activation
            .backprop_slice(&cache.out_pre, &mut output);
        let mut d_prev = vec![0.0f32; self.output.input_size()];
        self.output.backward_input(&output, &mut d_prev);

        // Hidden stack, in reverse.
        let mut hidden = vec![Vec::new(); self.hidden.len()];
        for i in (0..self.hidden.len()).rev() {
            let mut g = d_prev;
            Dropout::backprop(&cache.masks[i], &mut g);
            self.config
                .hidden_activation
                .backprop_slice(&cache.pre[i], &mut g);
            d_prev = vec![0.0f32; self.hidden[i].input_size()];
            self.hidden[i].backward_input(&g, &mut d_prev);
            hidden[i] = g;
        }

        EmbedDeltas {
            lstm: self.lstm.backward_deltas(&d_prev, &cache.lstm),
            hidden,
            output,
        }
    }

    /// The parameter half of [`SequenceEmbedder::backward`] on a band of
    /// every layer's gradient rows: folds one sample's `deltas`, with
    /// the layer inputs its `cache` kept, into `grads` — the LSTM's
    /// steps last to first. Training replays a batch's samples through
    /// this in order, with the rows split across threads; each gradient
    /// element then sums the samples in the same order at every split.
    pub(crate) fn backward_params_only(
        &self,
        cache: &EmbedCache,
        deltas: &EmbedDeltas,
        grads: &mut EmbedderGradRows<'_>,
    ) {
        let out_input = cache
            .post
            .last()
            .map(Vec::as_slice)
            .unwrap_or(&cache.lstm_out);
        self.output
            .backward_params_only(out_input, &deltas.output, &mut grads.output);
        for (i, (layer, rows)) in self.hidden.iter().zip(&mut grads.hidden).enumerate() {
            let input: &[f32] = if i == 0 {
                &cache.lstm_out
            } else {
                &cache.post[i - 1]
            };
            layer.backward_params_only(input, &deltas.hidden[i], rows);
        }
        self.lstm
            .backward_params_only(&cache.lstm, &deltas.lstm, &mut grads.lstm);
    }

    /// Mutable parameter groups in a stable order (for [`crate::optim::Sgd`]).
    ///
    /// Handing out mutable parameter access bumps the weights version,
    /// which invalidates any [`EmbedScratch`]-cached transposed weights
    /// on their next use.
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        self.version = next_weights_version();
        let mut out = Vec::new();
        out.extend(self.lstm.param_slices_mut());
        for layer in &mut self.hidden {
            out.extend(layer.param_slices_mut());
        }
        out.extend(self.output.param_slices_mut());
        out
    }

    /// Serializes the model to a JSON string.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if encoding fails.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NnError::Serialization(e.to_string()))
    }

    /// Restores a model from [`SequenceEmbedder::to_json`] output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] if decoding fails.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| NnError::Serialization(e.to_string()))
    }
}

impl EmbedderGrads {
    /// Zeroed gradients shaped like `net`.
    pub fn zeros_like(net: &SequenceEmbedder) -> Self {
        EmbedderGrads {
            lstm: LstmGrad::zeros_like(&net.lstm),
            hidden: net.hidden.iter().map(DenseGrad::zeros_like).collect(),
            output: DenseGrad::zeros_like(&net.output),
        }
    }

    /// Every row of every layer's gradient, as one band to split across
    /// replay workers (`EmbedderGradRows::split`).
    pub(crate) fn rows(&mut self) -> EmbedderGradRows<'_> {
        EmbedderGradRows {
            lstm: self.lstm.rows(),
            hidden: self.hidden.iter_mut().map(DenseGrad::rows).collect(),
            output: self.output.rows(),
        }
    }

    /// Scales all gradients (e.g. by `1/batch_size`).
    pub fn scale(&mut self, s: f32) {
        self.lstm.scale(s);
        for g in &mut self.hidden {
            g.scale(s);
        }
        self.output.scale(s);
    }

    /// Resets all gradients to zero, keeping allocations.
    pub fn zero(&mut self) {
        self.lstm.zero();
        for g in &mut self.hidden {
            g.zero();
        }
        self.output.zero();
    }

    /// Gradient groups aligned with [`SequenceEmbedder::param_slices_mut`].
    pub fn grad_slices(&self) -> Vec<&[f32]> {
        let mut out = Vec::new();
        out.extend(self.lstm.grad_slices());
        for g in &self.hidden {
            out.extend(g.grad_slices());
        }
        out.extend(self.output.grad_slices());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_net() -> SequenceEmbedder {
        let cfg = EmbedderConfig {
            input_size: 2,
            lstm_hidden: 4,
            hidden_layers: vec![5, 5],
            output_size: 3,
            hidden_activation: Activation::Relu,
            output_activation: Activation::leaky_relu_default(),
            dropout: 0.0, // deterministic for gradient checks
        };
        SequenceEmbedder::new(cfg, 42).unwrap()
    }

    fn tiny_input() -> SeqInput {
        let data: Vec<f32> = (0..10).map(|i| ((i * 7 % 5) as f32 - 2.0) * 0.2).collect();
        SeqInput::new(5, 2, data).unwrap()
    }

    #[test]
    fn embed_shape_and_determinism() {
        let net = tiny_net();
        let x = tiny_input();
        let e1 = net.embed(&x);
        let e2 = net.embed(&x);
        assert_eq!(e1.len(), 3);
        assert_eq!(e1, e2);
    }

    #[test]
    fn skip_forward_train_draws_what_forward_train_draws() {
        for dropout in [0.0, 0.25] {
            let net = SequenceEmbedder::new(
                EmbedderConfig {
                    dropout,
                    ..tiny_net().config().clone()
                },
                42,
            )
            .unwrap();
            let mut ran = StdRng::seed_from_u64(3);
            let mut skipped = ran.clone();
            let _ = net.forward_train(&tiny_input(), &mut ran);
            net.skip_forward_train(&mut skipped);
            assert_eq!(ran, skipped, "dropout {dropout}");
        }
    }

    #[test]
    fn forward_train_without_dropout_matches_looped_reference() {
        let net = tiny_net();
        let x = tiny_input();
        let mut rng = StdRng::seed_from_u64(0);
        let (e, _) = net.forward_train(&x, &mut rng);
        // The training forward and the pre-batching reference path run
        // the same per-step kernels: bit-identical.
        assert_eq!(e, net.embed_looped(&x));
        // The fused engine stays within the fast-activation tolerance.
        for (a, b) in e.iter().zip(net.embed(&x)) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    /// The regression the refactor rests on: the batched engine is
    /// bit-identical to the per-query wrapper, and both track the
    /// pre-batching reference path to within the fast-activation
    /// tolerance.
    #[test]
    fn embed_batch_is_bit_identical_to_embed() {
        let net = tiny_net();
        // Ragged lengths, including empty and single-step sequences.
        let xs: Vec<SeqInput> = [5usize, 0, 1, 9, 3, 5, 2]
            .iter()
            .enumerate()
            .map(|(i, &steps)| {
                let data: Vec<f32> = (0..steps * 2)
                    .map(|j| ((j * 7 + i * 13) % 11) as f32 * 0.15 - 0.8)
                    .collect();
                SeqInput::new(steps, 2, data).unwrap()
            })
            .collect();
        for threads in [1usize, 4, 0] {
            let mut scratch = EmbedScratch::with_threads(threads);
            let rows = net.embed_batch(&xs, &mut scratch);
            assert_eq!(rows.len(), xs.len());
            assert_eq!(rows.dim(), 3);
            for (i, x) in xs.iter().enumerate() {
                assert_eq!(
                    rows.row(i),
                    net.embed(x).as_slice(),
                    "threads {threads} row {i}"
                );
                for (a, b) in rows.row(i).iter().zip(net.embed_looped(x)) {
                    assert!((a - b).abs() < 1e-4, "row {i}: fused {a} vs looped {b}");
                }
            }
        }
    }

    /// The streaming fold is bit-identical to the batched engine at
    /// every prefix length: folding `t` timesteps and asking for the
    /// embedding equals `embed` of the `t`-step prefix tensor exactly.
    #[test]
    fn stream_fold_matches_embed_at_every_prefix() {
        let net = tiny_net();
        let steps = 9usize;
        let data: Vec<f32> = (0..steps * 2)
            .map(|j| ((j * 5 + 3) % 13) as f32 * 0.1 - 0.6)
            .collect();
        let full = SeqInput::new(steps, 2, data).unwrap();

        let weights = net.stream_weights();
        let mut stream = net.stream_start(&weights);
        // Empty prefix equals embedding the empty sequence.
        let empty = SeqInput::new(0, 2, Vec::new()).unwrap();
        assert_eq!(
            net.stream_embedding(&weights, &stream),
            net.embed(&empty),
            "empty prefix"
        );
        for t in 0..steps {
            net.stream_fold(&weights, &mut stream, full.step(t));
            assert_eq!(stream.steps(), t + 1);
            let prefix = SeqInput::new(t + 1, 2, full.as_slice()[..(t + 1) * 2].to_vec()).unwrap();
            assert_eq!(
                net.stream_embedding(&weights, &stream),
                net.embed(&prefix),
                "prefix length {}",
                t + 1
            );
        }
        // stream_embedding does not consume: asking twice is stable,
        // and a clone can run ahead without disturbing the parent.
        let again = net.stream_embedding(&weights, &stream);
        assert_eq!(again, net.embed(&full));
        let mut peek = stream.clone();
        net.stream_fold(&weights, &mut peek, full.step(0));
        assert_eq!(net.stream_embedding(&weights, &stream), net.embed(&full));
    }

    /// Retraining (any mutable parameter borrow) invalidates cached
    /// stream weights; stale handles are refused.
    #[test]
    fn stream_weights_track_parameter_version() {
        let mut net = tiny_net();
        let w1 = net.stream_weights();
        let w2 = net.stream_weights();
        assert!(Arc::ptr_eq(&w1, &w2), "cache should hand out one copy");
        net.param_slices_mut()[0][0] += 0.5;
        let w3 = net.stream_weights();
        assert!(!Arc::ptr_eq(&w1, &w3), "mutation must invalidate cache");
        let x = tiny_input();
        let mut stream = net.stream_start(&w3);
        for t in 0..x.steps() {
            net.stream_fold(&w3, &mut stream, x.step(t));
        }
        assert_eq!(net.stream_embedding(&w3, &stream), net.embed(&x));
        let stale = std::panic::catch_unwind(|| net.stream_start(&w1));
        assert!(stale.is_err(), "stale weights must be rejected");
    }

    #[test]
    fn embed_all_matches_embed_batch() {
        let net = tiny_net();
        let xs: Vec<SeqInput> = (0..5).map(|_| tiny_input()).collect();
        let all = net.embed_all(&xs);
        let mut scratch = EmbedScratch::new();
        let rows = net.embed_batch(&xs, &mut scratch);
        for (i, e) in all.iter().enumerate() {
            assert_eq!(e.as_slice(), rows.row(i));
        }
    }

    /// Mutating parameters through `param_slices_mut` must invalidate
    /// scratch-cached transposed weights.
    #[test]
    fn scratch_cache_invalidates_on_parameter_mutation() {
        let mut net = tiny_net();
        let x = tiny_input();
        let mut scratch = EmbedScratch::new();
        let before = net
            .embed_batch(std::slice::from_ref(&x), &mut scratch)
            .row(0)
            .to_vec();
        net.param_slices_mut()[0][0] += 0.25;
        let stale_risk = net
            .embed_batch(std::slice::from_ref(&x), &mut scratch)
            .row(0)
            .to_vec();
        let fresh = net.embed(&x);
        assert_eq!(stale_risk, fresh);
        assert_ne!(before, fresh);
    }

    #[test]
    fn empty_batch_is_fine() {
        let net = tiny_net();
        let mut scratch = EmbedScratch::new();
        let rows = net.embed_batch(&[], &mut scratch);
        assert_eq!(rows.len(), 0);
        assert!(rows.is_empty());
    }

    #[test]
    fn param_and_grad_groups_align() {
        let mut net = tiny_net();
        let grads = EmbedderGrads::zeros_like(&net);
        let gs = grads.grad_slices();
        let ps = net.param_slices_mut();
        assert_eq!(gs.len(), ps.len());
        for (g, p) in gs.iter().zip(&ps) {
            assert_eq!(g.len(), p.len());
        }
    }

    /// End-to-end finite-difference check through LSTM + MLP.
    ///
    /// Uses smooth activations (tanh/identity) so finite differences are
    /// valid everywhere; the ReLU-family derivatives have their own kink
    /// tests in `activation`.
    #[test]
    fn gradient_check_full_network() {
        let cfg = EmbedderConfig {
            input_size: 2,
            lstm_hidden: 4,
            hidden_layers: vec![5, 5],
            output_size: 3,
            hidden_activation: Activation::Tanh,
            output_activation: Activation::Identity,
            dropout: 0.0,
        };
        let net = SequenceEmbedder::new(cfg, 42).unwrap();
        let x = tiny_input();
        let mut rng = StdRng::seed_from_u64(0);

        // Loss = sum(embedding).
        let (emb, cache) = net.forward_train(&x, &mut rng);
        let mut grads = EmbedderGrads::zeros_like(&net);
        net.backward(&vec![1.0; emb.len()], &cache, &mut grads);

        let eps = 1e-2f32;
        let mut net2 = net.clone();
        let analytic: Vec<f32> = grads.grad_slices().concat();
        // Perturb a deterministic spread of parameters across all groups.
        let total = analytic.len();
        let mut flat_idx = 0usize;
        let mut checked = 0usize;
        let groups = net2.param_slices_mut().len();
        for gi in 0..groups {
            let glen = net2.param_slices_mut()[gi].len();
            for k in (0..glen).step_by((glen / 6).max(1)) {
                let orig = net2.param_slices_mut()[gi][k];
                net2.param_slices_mut()[gi][k] = orig + eps;
                let plus: f32 = net2.embed(&x).iter().sum();
                net2.param_slices_mut()[gi][k] = orig - eps;
                let minus: f32 = net2.embed(&x).iter().sum();
                net2.param_slices_mut()[gi][k] = orig;
                let numeric = (plus - minus) / (2.0 * eps);
                let ana = analytic[flat_idx + k];
                assert!(
                    (numeric - ana).abs() < 5e-2,
                    "group {gi} param {k}: numeric {numeric} vs analytic {ana}"
                );
                checked += 1;
            }
            flat_idx += glen;
        }
        assert_eq!(flat_idx, total);
        assert!(checked > 20, "checked too few parameters: {checked}");
    }

    #[test]
    fn serde_round_trip_preserves_outputs() {
        let net = tiny_net();
        let x = tiny_input();
        let json = net.to_json().unwrap();
        let back = SequenceEmbedder::from_json(&json).unwrap();
        assert_eq!(net.embed(&x), back.embed(&x));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = EmbedderConfig::small(2);
        cfg.output_size = 0;
        assert!(SequenceEmbedder::new(cfg, 0).is_err());
        let mut cfg = EmbedderConfig::small(2);
        cfg.dropout = 1.5;
        assert!(SequenceEmbedder::new(cfg, 0).is_err());
        let mut cfg = EmbedderConfig::small(2);
        cfg.hidden_layers = vec![8, 0];
        assert!(SequenceEmbedder::new(cfg, 0).is_err());
    }

    #[test]
    fn paper_config_matches_table_one() {
        let cfg = EmbedderConfig::paper(3);
        assert_eq!(cfg.lstm_hidden, 30);
        assert_eq!(cfg.hidden_layers.len(), 4);
        assert!(cfg.hidden_layers.iter().all(|&h| (100..=2000).contains(&h)));
        assert_eq!(cfg.output_size, 32);
        assert_eq!(cfg.dropout, 0.1);
        assert_eq!(cfg.hidden_activation, Activation::Relu);
    }
}
