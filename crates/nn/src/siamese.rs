//! Siamese training of the embedding network with contrastive loss
//! (Section IV-A.3 of the paper).
//!
//! Each training pair is embedded twice through the *same* network; the
//! Euclidean distance between the two embeddings feeds the contrastive
//! loss, whose gradient flows back through both branches. Batches are
//! processed data-parallel: each worker accumulates gradients for its
//! slice of the batch and the slices are merged before the SGD step.

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::embedding::{EmbedderGrads, SequenceEmbedder};
use crate::loss::ContrastiveLoss;
use crate::optim::Sgd;
use crate::pairs::TrainPair;
use crate::parallel::{map_chunks, resolve_threads};
use crate::seq::SeqInput;
use crate::tensor::euclidean;

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
    /// drives the dropout masks (vary it per batch).
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
        let loss = self.loss;
        let net_ref: &SequenceEmbedder = net;

        let results = map_chunks(pairs, threads, |chunk_idx, _, chunk| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(chunk_idx as u64 * 0x9E37_79B9));
            let mut grads = EmbedderGrads::zeros_like(net_ref);
            let mut loss_sum = 0.0f64;
            for pair in chunk {
                let xa = &pool[pair.a];
                let xb = &pool[pair.b];
                let (ea, ca) = net_ref.forward_train(xa, &mut rng);
                let (eb, cb) = net_ref.forward_train(xb, &mut rng);
                let d = euclidean(&ea, &eb);
                loss_sum += loss.value(d, pair.label) as f64;
                let dl_dd = loss.grad_wrt_distance(d, pair.label);
                if dl_dd != 0.0 {
                    // dL/de_a = dL/dd · (e_a − e_b)/d ; dL/de_b is its negation.
                    let coef = dl_dd / d.max(1e-6);
                    let ga: Vec<f32> = ea.iter().zip(&eb).map(|(a, b)| coef * (a - b)).collect();
                    let gb: Vec<f32> = ga.iter().map(|g| -g).collect();
                    net_ref.backward(&ga, &ca, &mut grads);
                    net_ref.backward(&gb, &cb, &mut grads);
                }
            }
            (grads, loss_sum)
        });

        let mut merged: Option<EmbedderGrads> = None;
        let mut total_loss = 0.0f64;
        for (grads, l) in results {
            total_loss += l;
            match merged.as_mut() {
                None => merged = Some(grads),
                Some(m) => m.add_assign(&grads),
            }
        }
        let mut merged = merged.expect("at least one chunk");
        merged.scale(1.0 / pairs.len() as f32);
        let grad_slices = merged.grad_slices();
        let mut param_slices = net.param_slices_mut();
        opt.step(&mut param_slices, &grad_slices);

        (total_loss / pairs.len() as f64) as f32
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
        let threads = resolve_threads(self.threads);
        let loss = self.loss;
        let sums = map_chunks(pairs, threads, |_, _, chunk| {
            chunk
                .iter()
                .map(|p| {
                    let d = euclidean(&net.embed(&pool[p.a]), &net.embed(&pool[p.b]));
                    loss.value(d, p.label) as f64
                })
                .sum::<f64>()
        });
        (sums.into_iter().sum::<f64>() / pairs.len() as f64) as f32
    }
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

    #[test]
    fn single_thread_and_multi_thread_agree() {
        // With identical seeds and no dropout, gradients are deterministic
        // regardless of the chunking, so final weights must match.
        let (pool, labels) = toy_pool(4);
        let index = ClassIndex::from_labels(&labels);
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = random_pairs(&index, 16, 0.5, &mut rng);

        let cfg = EmbedderConfig {
            dropout: 0.0,
            ..EmbedderConfig::small(2)
        };
        let mut net1 = SequenceEmbedder::new(cfg.clone(), 7).unwrap();
        let mut net2 = net1.clone();
        let mut opt1 = Sgd::new(0.01);
        let mut opt2 = Sgd::new(0.01);

        let t1 = SiameseTrainer {
            threads: 1,
            ..SiameseTrainer::new(4.0, 16)
        };
        let t4 = SiameseTrainer {
            threads: 4,
            ..SiameseTrainer::new(4.0, 16)
        };
        let l1 = t1.train_batch(&mut net1, &pool, &pairs, &mut opt1, 3);
        let l4 = t4.train_batch(&mut net2, &pool, &pairs, &mut opt2, 3);
        assert!((l1 - l4).abs() < 1e-4, "losses diverged: {l1} vs {l4}");
        let e1 = net1.embed(&pool[0]);
        let e2 = net2.embed(&pool[0]);
        for (a, b) in e1.iter().zip(&e2) {
            assert!((a - b).abs() < 1e-4, "weights diverged");
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
