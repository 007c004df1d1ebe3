//! Siamese training of the embedding network with contrastive loss
//! (Section IV-A.3 of the paper).
//!
//! Each training pair is embedded twice through the *same* network; the
//! Euclidean distance between the two embeddings feeds the contrastive
//! loss, whose gradient flows back through both branches.
//!
//! A step trains the same model bits at every `threads` value. It runs
//! its batch in blocks of pairs, each block in two phases:
//!
//! 1. **Forward and deltas, in parallel across pairs.** Each pair runs
//!    both forward passes and a delta-only backward pass
//!    (`SequenceEmbedder::backward_deltas`), which keeps every
//!    layer's pre-activation gradient and touches no parameter
//!    gradient. Dropout draws from the step's one stream,
//!    `StdRng::seed_from_u64(seed)`: each pair starts where the pairs
//!    before it left that stream
//!    (`SequenceEmbedder::skip_forward_train`), so the masks do not
//!    depend on which worker ran the pair.
//! 2. **Ordered replay, in parallel across gradient rows.** The
//!    parameter updates are replayed
//!    (`SequenceEmbedder::backward_params_only`) pair by pair in batch
//!    order, branch a before branch b, with each worker owning a band of
//!    every layer's rows. Pairs whose loss gradient is zero add nothing.
//!    So every gradient element sums its samples in one order, the order
//!    a single sequential pass over the batch uses.
//!
//! The block size bounds the caches a step holds at once; it changes no
//! bit.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::embedding::{EmbedCache, EmbedDeltas, EmbedderGrads, SequenceEmbedder};
use crate::loss::ContrastiveLoss;
use crate::optim::Sgd;
use crate::pairs::TrainPair;
use crate::parallel::{for_each_mut, map_chunks, map_elems, resolve_threads};
use crate::seq::SeqInput;
use crate::tensor::euclidean;

/// Pairs each worker runs per block of a training step: a step holds the
/// caches of at most `PAIRS_PER_WORKER × threads` pairs at a time,
/// whatever its batch size.
const PAIRS_PER_WORKER: usize = 8;

/// Configuration for siamese training.
#[derive(Debug, Clone, PartialEq)]
pub struct SiameseTrainer {
    /// Contrastive loss (margin 10 in Table I).
    pub loss: ContrastiveLoss,
    /// Pairs per SGD step (512 in Table I).
    pub batch_size: usize,
    /// Worker threads; `0` means use all available cores.
    pub threads: usize,
}

/// Summary statistics of one training epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochStats {
    /// Mean contrastive loss over all processed pairs.
    pub mean_loss: f32,
    /// Number of SGD steps taken.
    pub batches: usize,
    /// Number of pairs consumed.
    pub pairs: usize,
}

impl SiameseTrainer {
    /// Creates a trainer with the paper's margin (10) and batch size (512).
    pub fn paper() -> Self {
        SiameseTrainer {
            loss: ContrastiveLoss::new(10.0),
            batch_size: 512,
            threads: 0,
        }
    }

    /// Creates a trainer with explicit margin and batch size.
    pub fn new(margin: f32, batch_size: usize) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        SiameseTrainer {
            loss: ContrastiveLoss::new(margin),
            batch_size,
            threads: 0,
        }
    }

    /// Runs one SGD step over a batch of pairs and returns the mean loss.
    ///
    /// `pool` is the flat trace pool the pair indices refer to. `seed`
    /// drives the dropout masks (vary it per batch). The loss and the
    /// updated weights are the same bits at every `threads` (see the
    /// module docs).
    ///
    /// # Panics
    ///
    /// Panics if `pairs` is empty or an index is out of bounds.
    pub fn train_batch(
        &self,
        net: &mut SequenceEmbedder,
        pool: &[SeqInput],
        pairs: &[TrainPair],
        opt: &mut Sgd,
        seed: u64,
    ) -> f32 {
        assert!(!pairs.is_empty(), "empty batch");
        let threads = resolve_threads(self.threads);
        let net_ref: &SequenceEmbedder = net;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut grads = EmbedderGrads::zeros_like(net_ref);
        let mut bands = grads.rows().split(threads);
        let mut loss_sum = 0.0f64;
        for block in pairs.chunks(PAIRS_PER_WORKER * threads) {
            let starts: Vec<StdRng> = block
                .iter()
                .map(|_| {
                    let start = rng.clone();
                    net_ref.skip_forward_train(&mut rng);
                    net_ref.skip_forward_train(&mut rng);
                    start
                })
                .collect();
            let tapes: Vec<PairTape> = map_chunks(block, threads, |_, offset, chunk| {
                chunk
                    .iter()
                    .zip(&starts[offset..])
                    .map(|(pair, start)| self.pair_tape(net_ref, pool, pair, &mut start.clone()))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
            for_each_mut(&mut bands, |rows| {
                for branches in tapes.iter().filter_map(|t| t.branches.as_ref()) {
                    for (cache, deltas) in branches {
                        net_ref.backward_params_only(cache, deltas, rows);
                    }
                }
            });
            for tape in &tapes {
                loss_sum += tape.loss as f64;
            }
        }
        grads.scale(1.0 / pairs.len() as f32);
        let grad_slices = grads.grad_slices();
        let mut param_slices = net.param_slices_mut();
        opt.step(&mut param_slices, &grad_slices);

        (loss_sum / pairs.len() as f64) as f32
    }

    /// One pair's forward passes and delta-only backward passes, with
    /// dropout drawn from `rng`.
    fn pair_tape(
        &self,
        net: &SequenceEmbedder,
        pool: &[SeqInput],
        pair: &TrainPair,
        rng: &mut StdRng,
    ) -> PairTape {
        let (ea, ca) = net.forward_train(&pool[pair.a], rng);
        let (eb, cb) = net.forward_train(&pool[pair.b], rng);
        let d = euclidean(&ea, &eb);
        let dl_dd = self.loss.grad_wrt_distance(d, pair.label);
        let branches = (dl_dd != 0.0).then(|| {
            // dL/de_a = dL/dd · (e_a − e_b)/d ; dL/de_b is its negation.
            let coef = dl_dd / d.max(1e-6);
            let ga: Vec<f32> = ea.iter().zip(&eb).map(|(a, b)| coef * (a - b)).collect();
            let gb: Vec<f32> = ga.iter().map(|g| -g).collect();
            let da = net.backward_deltas(&ga, &ca);
            let db = net.backward_deltas(&gb, &cb);
            [(ca, da), (cb, db)]
        });
        PairTape {
            loss: self.loss.value(d, pair.label),
            branches,
        }
    }

    /// Runs one epoch: consumes `pairs` in batches of `batch_size`.
    pub fn train_epoch(
        &self,
        net: &mut SequenceEmbedder,
        pool: &[SeqInput],
        pairs: &[TrainPair],
        opt: &mut Sgd,
        seed: u64,
    ) -> EpochStats {
        let mut total = 0.0f64;
        let mut batches = 0usize;
        let mut consumed = 0usize;
        for (bi, batch) in pairs.chunks(self.batch_size).enumerate() {
            let l = self.train_batch(net, pool, batch, opt, seed.wrapping_add(bi as u64));
            total += l as f64 * batch.len() as f64;
            batches += 1;
            consumed += batch.len();
        }
        EpochStats {
            mean_loss: if consumed == 0 {
                0.0
            } else {
                (total / consumed as f64) as f32
            },
            batches,
            pairs: consumed,
        }
    }

    /// Mean contrastive loss on a pair set without updating the model
    /// (validation).
    pub fn evaluate(&self, net: &SequenceEmbedder, pool: &[SeqInput], pairs: &[TrainPair]) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let losses = map_elems(pairs, resolve_threads(self.threads), |p| {
            let d = euclidean(&net.embed(&pool[p.a]), &net.embed(&pool[p.b]));
            self.loss.value(d, p.label) as f64
        });
        (losses.into_iter().sum::<f64>() / pairs.len() as f64) as f32
    }
}

/// One pair's share of a training step, from its forward and delta-only
/// backward passes.
struct PairTape {
    /// The pair's contrastive loss.
    loss: f32,
    /// Each branch's cache and deltas, branch a first; `None` when the
    /// loss gradient is zero, so the pair adds nothing to the gradients.
    branches: Option<[(EmbedCache, EmbedDeltas); 2]>,
}

#[cfg(test)]
mod tests {
    use rand::RngExt;

    use super::*;
    use crate::embedding::EmbedderConfig;
    use crate::pairs::{random_pairs, ClassIndex};

    /// Builds a toy two-class pool with clearly-separable sequences.
    fn toy_pool(per_class: usize) -> (Vec<SeqInput>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(99);
        let mut pool = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for _ in 0..per_class {
                let base = if class == 0 { 0.2 } else { 0.9 };
                let data: Vec<f32> = (0..12)
                    .map(|_| base + rng.random_range(-0.05..0.05))
                    .collect();
                pool.push(SeqInput::new(6, 2, data).unwrap());
                labels.push(class);
            }
        }
        (pool, labels)
    }

    #[test]
    fn training_reduces_loss_and_separates_classes() {
        let (pool, labels) = toy_pool(10);
        let index = ClassIndex::from_labels(&labels);
        let mut rng = StdRng::seed_from_u64(5);

        let mut net = SequenceEmbedder::new(
            EmbedderConfig {
                dropout: 0.0,
                ..EmbedderConfig::small(2)
            },
            7,
        )
        .unwrap();
        let trainer = SiameseTrainer::new(4.0, 32);
        let mut opt = Sgd::with_momentum(0.01, 0.9).clip(5.0);

        let eval_pairs = random_pairs(&index, 64, 0.5, &mut rng);
        let before = trainer.evaluate(&net, &pool, &eval_pairs);
        for epoch in 0..30 {
            let pairs = random_pairs(&index, 128, 0.5, &mut rng);
            trainer.train_epoch(&mut net, &pool, &pairs, &mut opt, epoch);
        }
        let after = trainer.evaluate(&net, &pool, &eval_pairs);
        assert!(
            after < before * 0.5,
            "loss did not drop: before {before}, after {after}"
        );

        // Same-class distance < cross-class distance on held-out-ish samples.
        let e0 = net.embed(&pool[0]);
        let e1 = net.embed(&pool[1]);
        let e10 = net.embed(&pool[10]);
        let d_same = euclidean(&e0, &e1);
        let d_diff = euclidean(&e0, &e10);
        assert!(
            d_diff > d_same,
            "classes not separated: same {d_same}, diff {d_diff}"
        );
    }

    /// The sequential step, kept as the oracle for
    /// [`SiameseTrainer::train_batch`]: one dropout stream for the whole
    /// batch, and each pair's gradients accumulated in batch order,
    /// branch a before branch b.
    fn sequential_step(
        trainer: &SiameseTrainer,
        net: &mut SequenceEmbedder,
        pool: &[SeqInput],
        pairs: &[TrainPair],
        opt: &mut Sgd,
        seed: u64,
    ) -> f32 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut grads = EmbedderGrads::zeros_like(net);
        let mut loss_sum = 0.0f64;
        for pair in pairs {
            let (ea, ca) = net.forward_train(&pool[pair.a], &mut rng);
            let (eb, cb) = net.forward_train(&pool[pair.b], &mut rng);
            let d = euclidean(&ea, &eb);
            loss_sum += trainer.loss.value(d, pair.label) as f64;
            let dl_dd = trainer.loss.grad_wrt_distance(d, pair.label);
            if dl_dd != 0.0 {
                let coef = dl_dd / d.max(1e-6);
                let ga: Vec<f32> = ea.iter().zip(&eb).map(|(a, b)| coef * (a - b)).collect();
                let gb: Vec<f32> = ga.iter().map(|g| -g).collect();
                net.backward(&ga, &ca, &mut grads);
                net.backward(&gb, &cb, &mut grads);
            }
        }
        grads.scale(1.0 / pairs.len() as f32);
        let grad_slices = grads.grad_slices();
        opt.step(&mut net.param_slices_mut(), &grad_slices);
        (loss_sum / pairs.len() as f64) as f32
    }

    #[test]
    fn single_thread_and_multi_thread_agree() {
        // Dropout on, and enough pairs that every thread count runs
        // several blocks of uneven length: the loss and the weights after
        // each step are the sequential oracle's, bit for bit.
        let (pool, labels) = toy_pool(4);
        let index = ClassIndex::from_labels(&labels);
        let mut rng = StdRng::seed_from_u64(5);
        let batches: Vec<Vec<TrainPair>> = (0..3)
            .map(|_| random_pairs(&index, 40, 0.5, &mut rng))
            .collect();

        let cfg = EmbedderConfig::small(2);
        assert!(cfg.dropout > 0.0, "the check needs dropout on");
        let trainer = SiameseTrainer::new(4.0, 40);
        let start = SequenceEmbedder::new(cfg, 7).unwrap();

        let mut oracle = start.clone();
        let mut oracle_opt = Sgd::with_momentum(0.01, 0.9);
        let oracle_losses: Vec<f32> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                sequential_step(&trainer, &mut oracle, &pool, b, &mut oracle_opt, i as u64)
            })
            .collect();
        assert_ne!(oracle, start, "training moved no weight");

        for threads in [1usize, 2, 4] {
            let t = SiameseTrainer {
                threads,
                ..trainer.clone()
            };
            let mut net = start.clone();
            let mut opt = Sgd::with_momentum(0.01, 0.9);
            for (i, b) in batches.iter().enumerate() {
                let loss = t.train_batch(&mut net, &pool, b, &mut opt, i as u64);
                assert_eq!(
                    loss.to_bits(),
                    oracle_losses[i].to_bits(),
                    "loss of step {i} at {threads} threads"
                );
            }
            assert!(
                net.to_json().unwrap() == oracle.to_json().unwrap(),
                "weights diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn paper_trainer_matches_table_one() {
        let t = SiameseTrainer::paper();
        assert_eq!(t.loss.margin, 10.0);
        assert_eq!(t.batch_size, 512);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn empty_batch_is_rejected() {
        let (pool, _) = toy_pool(2);
        let mut net = SequenceEmbedder::new(EmbedderConfig::small(2), 7).unwrap();
        let mut opt = Sgd::new(0.01);
        let t = SiameseTrainer::new(4.0, 16);
        let _ = t.train_batch(&mut net, &pool, &[], &mut opt, 0);
    }
}
