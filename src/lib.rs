//! # tlsfp — Adaptive Webpage Fingerprinting from TLS Traces
//!
//! A full reproduction of *Mavroudis & Hayes, "Adaptive Webpage
//! Fingerprinting from TLS Traces" (DSN 2023)* as a Rust workspace:
//!
//! - [`nn`] — from-scratch neural-network substrate (dense, LSTM, Conv1D,
//!   SGD, contrastive loss, siamese training).
//! - [`net`] — TLS 1.2/1.3 record layer, handshake flights, record padding
//!   policies and TCP segmentation producing packet captures.
//! - [`web`] — synthetic website/browser/crawler models with shared themes,
//!   multi-server hosting and content drift.
//! - [`trace`] — capture → per-IP byte-count sequence extraction, datasets
//!   and experiment splits.
//! - [`index`] — the serving store: mutable nearest-neighbor indexes
//!   (exact contiguous flat scan, candidate-pruning IVF, product-
//!   quantized PQ) and the class-sharded `ShardedStore`, each of whose
//!   shards is one such index, for the large-class regime.
//! - [`core`] — the paper's contribution: embedding model, sharded
//!   reference store, kNN top-N classification,
//!   provision/fingerprint/adapt pipeline, metrics and padding
//!   defenses.
//! - [`baselines`] — k-fingerprinting, Deep-Fingerprinting-lite, HMM
//!   journey decoding and the operational-cost framework.
//! - [`telemetry`] — zero-perturbation runtime observability: stage
//!   timers, per-shard gauges, query histograms and an exportable
//!   metrics registry wired through the whole serving path
//!   (Prometheus text exposition + JSON snapshots).
//!
//! ## Quickstart
//!
//! ```no_run
//! use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
//! use tlsfp::trace::dataset::Dataset;
//! use tlsfp::trace::tensorize::TensorConfig;
//! use tlsfp::web::corpus::CorpusSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Generate a Wikipedia-like corpus: 50 pages, 20 traces each.
//! let spec = CorpusSpec::wiki_like(50, 20);
//! let (_site, dataset) = Dataset::generate(&spec, &TensorConfig::wiki(), 7)?;
//! let (reference, test) = dataset.split_per_class(0.1, 0);
//!
//! // Provision (train the embedding model), then fingerprint.
//! let adversary = AdaptiveFingerprinter::provision(&reference, &PipelineConfig::small(), 7)?;
//! let report = adversary.evaluate(&test);
//! println!("top-1 accuracy: {:.3}", report.top_n_accuracy(1));
//! # Ok(())
//! # }
//! ```
//!
//! See `ARCHITECTURE.md` for the serving data flow, determinism
//! contract and scaling knobs; `examples/` for runnable end-to-end
//! scenarios; and `crates/bench` for the harness regenerating every
//! table and figure of the paper.

pub use tlsfp_baselines as baselines;
pub use tlsfp_core as core;
pub use tlsfp_index as index;
pub use tlsfp_net as net;
pub use tlsfp_nn as nn;
pub use tlsfp_telemetry as telemetry;
pub use tlsfp_trace as trace;
pub use tlsfp_web as web;
