//! # tlsfp-core — adaptive webpage fingerprinting
//!
//! The paper's primary contribution (*Mavroudis & Hayes, DSN 2023*): a
//! webpage-fingerprinting adversary that embeds TLS traces with a
//! siamese LSTM network and classifies them by k-nearest-neighbour
//! search over a *reference set* of labeled embeddings. Because the
//! model is class-agnostic, adapting to content drift or brand-new
//! pages is a reference-set swap — never a retraining run.
//!
//! - [`pipeline::AdaptiveFingerprinter`] — provision / fingerprint /
//!   adapt (Figure 2). Serves from a class-sharded reference store
//!   (`tlsfp_index::sharded::ShardedStore`) sized by
//!   [`PipelineConfig::shards`](pipeline::PipelineConfig): one serving
//!   path at every shard count — store search, ordered-commit merge,
//!   [`knn::rank_search`], one accept rule. Many shards bound
//!   provisioning memory and mutation cost for the 13k-class regime.
//! - [`knn`] — top-N ranked classification (k = 250) from the store's
//!   merged neighbors. Each shard serves an exact flat scan by default
//!   ([`PipelineConfig::index`](pipeline::PipelineConfig)), or an IVF
//!   or PQ index that prunes or compresses candidates.
//! - [`metrics::EvalReport`] — top-N accuracy, per-class guess CDFs,
//!   the Table II smallest-n search.
//! - [`open_world`] — §VI-C open-world detection: the one accept rule
//!   ([`PerClassThresholds`]; a global threshold is one shared radius),
//!   confusion counts, ROC sweeps, calibration.
//! - [`streaming`] — per-session incremental serving: fold TLS records
//!   in as they arrive, decide at any prefix, early-stop on per-class
//!   calibrated radii; full-trace decisions are bit-identical to the
//!   batch path.
//! - [`defense`] — fixed-length and anonymity-set padding (§VII) with
//!   bandwidth accounting.
//!
//! ## Example
//!
//! ```no_run
//! use tlsfp_core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
//! use tlsfp_trace::dataset::Dataset;
//! use tlsfp_trace::tensorize::TensorConfig;
//! use tlsfp_web::corpus::CorpusSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CorpusSpec::wiki_like(50, 20);
//! let (_site, ds) = Dataset::generate(&spec, &TensorConfig::wiki(), 7)?;
//! let (train, test) = ds.split_per_class(0.1, 0);
//! let adversary = AdaptiveFingerprinter::provision(&train, &PipelineConfig::small(), 7)?;
//! let report = adversary.evaluate(&test);
//! println!("top-1: {:.3}  top-3: {:.3}", report.top_n_accuracy(1), report.top_n_accuracy(3));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod defense;
pub mod error;
pub mod knn;
pub mod metrics;
pub mod open_world;
pub mod pipeline;
pub mod streaming;

pub use error::{CoreError, Result};
pub use knn::{RankedPrediction, ScoredPrediction};
pub use metrics::EvalReport;
pub use open_world::{ConfusionCounts, OpenWorldReport, PerClassThresholds, RocPoint};
pub use pipeline::{AdaptiveFingerprinter, PipelineConfig};
pub use streaming::{EarlyDecision, EarlyStopPolicy, PrefixDecision, StreamingSession};
pub use tlsfp_index::{IndexConfig, IvfParams, VectorIndex};
