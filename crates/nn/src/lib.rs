//! # tlsfp-nn — neural-network substrate for TLS traffic fingerprinting
//!
//! A from-scratch, dependency-light `f32` neural-network library sized
//! for the models in *Mavroudis & Hayes, "Adaptive Webpage Fingerprinting
//! from TLS Traces" (DSN 2023)*:
//!
//! - [`embedding::SequenceEmbedder`] — the paper's Table I model: a
//!   30-unit LSTM over per-IP byte-count sequences feeding a dense stack
//!   that produces 32-d embeddings.
//! - [`siamese::SiameseTrainer`] — contrastive-loss training over
//!   positive/negative trace pairs, data-parallel and bit-identical at
//!   every thread count.
//! - [`cnn::Cnn1dClassifier`] — a Deep-Fingerprinting-style CNN used by
//!   the retraining-required baseline.
//! - [`pairs`] — random and semi-hard pair mining.
//!
//! Every backward pass is verified against finite differences in unit
//! and property tests; see `tests/gradcheck.rs`.
//!
//! ## Example: train a toy siamese embedder
//!
//! ```
//! use tlsfp_nn::embedding::{EmbedderConfig, SequenceEmbedder};
//! use tlsfp_nn::optim::Sgd;
//! use tlsfp_nn::pairs::{random_pairs, ClassIndex};
//! use tlsfp_nn::seq::SeqInput;
//! use tlsfp_nn::siamese::SiameseTrainer;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Two classes of trivially-separable sequences.
//! let pool: Vec<SeqInput> = (0..8)
//!     .map(|i| {
//!         let v = if i < 4 { 0.1 } else { 0.9 };
//!         SeqInput::new(4, 2, vec![v; 8]).unwrap()
//!     })
//!     .collect();
//! let labels = vec![0, 0, 0, 0, 1, 1, 1, 1];
//!
//! let mut net = SequenceEmbedder::new(EmbedderConfig::small(2), 7)?;
//! let trainer = SiameseTrainer::new(4.0, 8);
//! let mut opt = Sgd::with_momentum(0.01, 0.9);
//! let index = ClassIndex::from_labels(&labels);
//! let mut rng = StdRng::seed_from_u64(0);
//! for epoch in 0..5 {
//!     let pairs = random_pairs(&index, 16, 0.5, &mut rng);
//!     trainer.train_epoch(&mut net, &pool, &pairs, &mut opt, epoch);
//! }
//! let e = net.embed(&pool[0]);
//! assert_eq!(e.len(), net.output_size());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod activation;
pub mod cnn;
pub mod conv;
pub mod dropout;
pub mod embedding;
pub mod error;
pub mod init;
pub mod linear;
pub mod loss;
pub mod lstm;
pub mod optim;
pub mod pairs;
pub mod parallel;
pub mod seq;
pub mod siamese;
pub mod tensor;

pub use error::{NnError, Result};
pub use seq::SeqInput;
