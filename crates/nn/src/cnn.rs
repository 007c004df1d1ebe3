//! A 1-D convolutional softmax classifier in the style of Deep
//! Fingerprinting (Sirinam et al., CCS 2018).
//!
//! Unlike the paper's embedding model, this classifier couples feature
//! extraction to a fixed label set: adding or changing target webpages
//! requires full retraining — exactly the operational-cost contrast
//! Table III draws.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::activation::Activation;
use crate::conv::{Conv1d, Conv1dGrad, MaxPool1d};
use crate::dropout::Dropout;
use crate::error::{NnError, Result};
use crate::init::Init;
use crate::linear::{Dense, DenseGrad};
use crate::loss::{cross_entropy, softmax};
use crate::optim::Sgd;
use crate::parallel::{map_chunks, resolve_threads};
use crate::seq::SeqInput;

/// One convolutional block: conv → ReLU → max-pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConvBlockConfig {
    /// Output channels of the convolution.
    pub out_channels: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Convolution stride.
    pub stride: usize,
    /// Max-pool window (also its stride).
    pub pool: usize,
}

/// Architecture description for a [`Cnn1dClassifier`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CnnConfig {
    /// Input channels (direction sequences; 2 for up/down traffic).
    pub input_channels: usize,
    /// Fixed input length (traces are padded/truncated to this).
    pub input_len: usize,
    /// Convolutional blocks.
    pub blocks: Vec<ConvBlockConfig>,
    /// Fully-connected layer width after flattening.
    pub fc_size: usize,
    /// Number of target classes.
    pub n_classes: usize,
    /// Dropout applied after the fully-connected layer.
    pub dropout: f32,
}

impl CnnConfig {
    /// A compact Deep-Fingerprinting-style configuration.
    pub fn df_lite(input_channels: usize, input_len: usize, n_classes: usize) -> Self {
        CnnConfig {
            input_channels,
            input_len,
            blocks: vec![
                ConvBlockConfig {
                    out_channels: 16,
                    kernel: 5,
                    stride: 1,
                    pool: 2,
                },
                ConvBlockConfig {
                    out_channels: 32,
                    kernel: 5,
                    stride: 1,
                    pool: 2,
                },
            ],
            fc_size: 64,
            n_classes,
            dropout: 0.1,
        }
    }

    /// Validates structural invariants, returning the flattened feature
    /// length feeding the dense head.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any dimension is zero or the
    /// input is too short for the conv/pool stack.
    pub fn validate(&self) -> Result<usize> {
        if self.input_channels == 0 || self.input_len == 0 {
            return Err(NnError::InvalidConfig("zero input dimensions".into()));
        }
        if self.n_classes == 0 {
            return Err(NnError::InvalidConfig("zero classes".into()));
        }
        if self.blocks.is_empty() {
            return Err(NnError::InvalidConfig("at least one conv block".into()));
        }
        let mut len = self.input_len;
        for (i, b) in self.blocks.iter().enumerate() {
            if b.out_channels == 0 || b.kernel == 0 || b.stride == 0 || b.pool == 0 {
                return Err(NnError::InvalidConfig(format!(
                    "block {i} has a zero field"
                )));
            }
            if len < b.kernel {
                return Err(NnError::InvalidConfig(format!(
                    "input too short at block {i}: length {len} < kernel {}",
                    b.kernel
                )));
            }
            len = (len - b.kernel) / b.stride + 1;
            len /= b.pool;
            if len == 0 {
                return Err(NnError::InvalidConfig(format!(
                    "input fully consumed at block {i}"
                )));
            }
        }
        let channels = self.blocks.last().expect("non-empty").out_channels;
        Ok(channels * len)
    }
}

/// CNN classifier producing class logits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cnn1dClassifier {
    config: CnnConfig,
    convs: Vec<Conv1d>,
    pools: Vec<MaxPool1d>,
    fc: Dense,
    out: Dense,
}

/// Gradients matching a [`Cnn1dClassifier`].
#[derive(Debug, Clone, PartialEq)]
pub struct CnnGrads {
    convs: Vec<Conv1dGrad>,
    fc: DenseGrad,
    out: DenseGrad,
}

struct CnnCache {
    /// Input (channel-major) and length per block.
    block_inputs: Vec<Vec<f32>>,
    block_lens: Vec<usize>,
    /// Conv pre-activation outputs per block.
    conv_pre: Vec<Vec<f32>>,
    /// Conv output length per block.
    conv_lens: Vec<usize>,
    /// Argmax routing per block.
    pool_argmax: Vec<Vec<usize>>,
    /// Flattened features (input to `fc`).
    flat: Vec<f32>,
    fc_pre: Vec<f32>,
    fc_post: Vec<f32>,
    fc_mask: Vec<f32>,
}

impl Cnn1dClassifier {
    /// Builds a freshly-initialized classifier.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: CnnConfig, seed: u64) -> Result<Self> {
        let flat_len = config.validate()?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut convs = Vec::with_capacity(config.blocks.len());
        let mut pools = Vec::with_capacity(config.blocks.len());
        let mut in_ch = config.input_channels;
        for b in &config.blocks {
            convs.push(Conv1d::new(
                in_ch,
                b.out_channels,
                b.kernel,
                b.stride,
                &mut rng,
            ));
            pools.push(MaxPool1d::new(b.pool));
            in_ch = b.out_channels;
        }
        let fc = Dense::new(flat_len, config.fc_size, Init::HeUniform, &mut rng);
        let out = Dense::new(
            config.fc_size,
            config.n_classes,
            Init::XavierUniform,
            &mut rng,
        );
        Ok(Cnn1dClassifier {
            config,
            convs,
            pools,
            fc,
            out,
        })
    }

    /// The architecture this network was built with.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    /// Number of target classes.
    pub fn n_classes(&self) -> usize {
        self.config.n_classes
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.convs.iter().map(Conv1d::param_count).sum::<usize>()
            + self.fc.param_count()
            + self.out.param_count()
    }

    /// Converts a trace into the fixed-size channel-major input buffer
    /// (pad with zeros / truncate to `input_len`).
    pub fn prepare_input(&self, x: &SeqInput) -> Vec<f32> {
        let c = self.config.input_channels;
        let l = self.config.input_len;
        let mut buf = vec![0.0f32; c * l];
        let copy_steps = x.steps().min(l);
        let ch = x.channels().min(c);
        for t in 0..copy_steps {
            let row = x.step(t);
            for (cc, &v) in row.iter().take(ch).enumerate() {
                buf[cc * l + t] = v;
            }
        }
        buf
    }

    fn forward_impl(&self, input: Vec<f32>, mut cache: Option<&mut CnnCache>) -> Vec<f32> {
        let mut cur = input;
        let mut len = self.config.input_len;
        for (i, (conv, pool)) in self.convs.iter().zip(&self.pools).enumerate() {
            let pre = conv.forward(&cur, len);
            let conv_len = conv.output_len(len);
            let mut act = pre.clone();
            Activation::Relu.apply_slice(&mut act);
            let (pooled, argmax) = pool.forward(&act, conv.out_channels(), conv_len);
            if let Some(c) = cache.as_deref_mut() {
                c.block_inputs.push(cur);
                c.block_lens.push(len);
                c.conv_pre.push(pre);
                c.conv_lens.push(conv_len);
                c.pool_argmax.push(argmax);
            }
            let _ = i;
            cur = pooled;
            len = pool.output_len(conv_len);
        }
        cur
    }

    /// Class logits for a trace (evaluation mode: no dropout).
    pub fn logits(&self, x: &SeqInput) -> Vec<f32> {
        let input = self.prepare_input(x);
        let flat = self.forward_impl(input, None);
        let mut h = self.fc.forward_alloc(&flat);
        Activation::Relu.apply_slice(&mut h);
        self.out.forward_alloc(&h)
    }

    /// Class probabilities for a trace.
    pub fn predict_proba(&self, x: &SeqInput) -> Vec<f32> {
        softmax(&self.logits(x))
    }

    /// Most-likely class for a trace.
    pub fn predict(&self, x: &SeqInput) -> usize {
        let logits = self.logits(x);
        logits
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Classes ordered from most to least likely (for top-N metrics).
    pub fn ranked_classes(&self, x: &SeqInput) -> Vec<usize> {
        let logits = self.logits(x);
        let mut order: Vec<usize> = (0..logits.len()).collect();
        order.sort_by(|&a, &b| logits[b].total_cmp(&logits[a]));
        order
    }

    fn forward_train<R: Rng + ?Sized>(&self, x: &SeqInput, rng: &mut R) -> (Vec<f32>, CnnCache) {
        let mut cache = CnnCache {
            block_inputs: Vec::new(),
            block_lens: Vec::new(),
            conv_pre: Vec::new(),
            conv_lens: Vec::new(),
            pool_argmax: Vec::new(),
            flat: Vec::new(),
            fc_pre: Vec::new(),
            fc_post: Vec::new(),
            fc_mask: Vec::new(),
        };
        let input = self.prepare_input(x);
        let flat = self.forward_impl(input, Some(&mut cache));
        cache.flat = flat;
        cache.fc_pre = self.fc.forward_alloc(&cache.flat);
        let mut post = cache.fc_pre.clone();
        Activation::Relu.apply_slice(&mut post);
        let dropout = Dropout::new(self.config.dropout);
        cache.fc_mask = dropout.apply_train(&mut post, rng);
        cache.fc_post = post;
        let logits = self.out.forward_alloc(&cache.fc_post);
        (logits, cache)
    }

    fn backward(&self, dlogits: &[f32], cache: &CnnCache, grads: &mut CnnGrads) {
        let mut d_post = vec![0.0f32; cache.fc_post.len()];
        self.out
            .backward(&cache.fc_post, dlogits, &mut grads.out, &mut d_post);
        Dropout::backprop(&cache.fc_mask, &mut d_post);
        Activation::Relu.backprop_slice(&cache.fc_pre, &mut d_post);
        let mut d_flat = vec![0.0f32; cache.flat.len()];
        self.fc
            .backward(&cache.flat, &d_post, &mut grads.fc, &mut d_flat);

        let mut d_cur = d_flat;
        for i in (0..self.convs.len()).rev() {
            let conv = &self.convs[i];
            let pool = &self.pools[i];
            let conv_total = conv.out_channels() * cache.conv_lens[i];
            let mut d_act = pool.backward(&d_cur, &cache.pool_argmax[i], conv_total);
            Activation::Relu.backprop_slice(&cache.conv_pre[i], &mut d_act);
            d_cur = conv.backward(
                &cache.block_inputs[i],
                cache.block_lens[i],
                &d_act,
                &mut grads.convs[i],
            );
        }
    }

    /// One data-parallel SGD step on `(trace, label)` samples; returns
    /// the mean cross-entropy loss.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or a label is out of range.
    pub fn train_batch(
        &mut self,
        samples: &[(&SeqInput, usize)],
        opt: &mut Sgd,
        threads: usize,
        seed: u64,
    ) -> f32 {
        assert!(!samples.is_empty(), "empty batch");
        let threads = resolve_threads(threads);
        let net: &Cnn1dClassifier = self;
        let results = map_chunks(samples, threads, |ci, _, chunk| {
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(ci as u64 * 0x9E37_79B9));
            let mut grads = CnnGrads::zeros_like(net);
            let mut loss_sum = 0.0f64;
            for (x, label) in chunk {
                let (logits, cache) = net.forward_train(x, &mut rng);
                let (loss, dlogits) = cross_entropy(&logits, *label);
                loss_sum += loss as f64;
                net.backward(&dlogits, &cache, &mut grads);
            }
            (grads, loss_sum)
        });

        let mut merged: Option<CnnGrads> = None;
        let mut total = 0.0f64;
        for (g, l) in results {
            total += l;
            match merged.as_mut() {
                None => merged = Some(g),
                Some(m) => m.add_assign(&g),
            }
        }
        let mut merged = merged.expect("chunk");
        merged.scale(1.0 / samples.len() as f32);
        let grad_slices = merged.grad_slices();
        let mut params = self.param_slices_mut();
        opt.step(&mut params, &grad_slices);
        (total / samples.len() as f64) as f32
    }

    /// Mutable parameter groups for the optimizer.
    pub fn param_slices_mut(&mut self) -> Vec<&mut [f32]> {
        let mut out = Vec::new();
        for c in &mut self.convs {
            out.extend(c.param_slices_mut());
        }
        out.extend(self.fc.param_slices_mut());
        out.extend(self.out.param_slices_mut());
        out
    }

    /// Serializes the model to JSON.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] on encoding failure.
    pub fn to_json(&self) -> Result<String> {
        serde_json::to_string(self).map_err(|e| NnError::Serialization(e.to_string()))
    }

    /// Restores a model serialized with [`Cnn1dClassifier::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::Serialization`] on decoding failure.
    pub fn from_json(json: &str) -> Result<Self> {
        serde_json::from_str(json).map_err(|e| NnError::Serialization(e.to_string()))
    }
}

impl CnnGrads {
    /// Zeroed gradients shaped like `net`.
    pub fn zeros_like(net: &Cnn1dClassifier) -> Self {
        CnnGrads {
            convs: net.convs.iter().map(Conv1dGrad::zeros_like).collect(),
            fc: DenseGrad::zeros_like(&net.fc),
            out: DenseGrad::zeros_like(&net.out),
        }
    }

    /// Accumulates another gradient set.
    pub fn add_assign(&mut self, other: &CnnGrads) {
        for (a, b) in self.convs.iter_mut().zip(&other.convs) {
            a.add_assign(b);
        }
        self.fc.add_assign(&other.fc);
        self.out.add_assign(&other.out);
    }

    /// Scales all gradients.
    pub fn scale(&mut self, s: f32) {
        for g in &mut self.convs {
            g.scale(s);
        }
        self.fc.scale(s);
        self.out.scale(s);
    }

    /// Gradient groups aligned with [`Cnn1dClassifier::param_slices_mut`].
    pub fn grad_slices(&self) -> Vec<&[f32]> {
        let mut out = Vec::new();
        for g in &self.convs {
            out.extend(g.grad_slices());
        }
        out.extend(self.fc.grad_slices());
        out.extend(self.out.grad_slices());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    fn toy_samples(per_class: usize, len: usize) -> (Vec<SeqInput>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(17);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for class in 0..3usize {
            for _ in 0..per_class {
                let data: Vec<f32> = (0..len * 2)
                    .map(|i| {
                        let phase = (i / 2 + class * 3) % 9;
                        (phase as f32) * 0.1 + rng.random_range(-0.02..0.02)
                    })
                    .collect();
                xs.push(SeqInput::new(len, 2, data).unwrap());
                ys.push(class);
            }
        }
        (xs, ys)
    }

    #[test]
    fn shapes_and_validation() {
        let cfg = CnnConfig::df_lite(2, 40, 5);
        assert!(cfg.validate().is_ok());
        let net = Cnn1dClassifier::new(cfg, 0).unwrap();
        let x = SeqInput::zeros(40, 2);
        assert_eq!(net.logits(&x).len(), 5);
        let p = net.predict_proba(&x);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert_eq!(net.ranked_classes(&x).len(), 5);
    }

    #[test]
    fn rejects_too_short_input() {
        let mut cfg = CnnConfig::df_lite(2, 4, 5);
        cfg.blocks[0].kernel = 8;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn training_fits_toy_classes() {
        let (xs, ys) = toy_samples(8, 30);
        let mut cfg = CnnConfig::df_lite(2, 30, 3);
        cfg.dropout = 0.0;
        let mut net = Cnn1dClassifier::new(cfg, 3).unwrap();
        let mut opt = Sgd::with_momentum(0.05, 0.9).clip(5.0);
        let samples: Vec<(&SeqInput, usize)> = xs.iter().zip(ys.iter().copied()).collect();
        let first = net.train_batch(&samples, &mut opt, 2, 0);
        let mut last = first;
        for step in 1..60 {
            last = net.train_batch(&samples, &mut opt, 2, step);
        }
        assert!(last < first * 0.5, "loss: first {first}, last {last}");
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, y)| net.predict(x) == **y)
            .count();
        assert!(
            correct as f32 / xs.len() as f32 > 0.9,
            "train accuracy {}/{}",
            correct,
            xs.len()
        );
    }

    #[test]
    fn gradient_check_through_whole_cnn() {
        let cfg = CnnConfig {
            input_channels: 2,
            input_len: 12,
            blocks: vec![ConvBlockConfig {
                out_channels: 3,
                kernel: 3,
                stride: 1,
                pool: 2,
            }],
            fc_size: 4,
            n_classes: 3,
            dropout: 0.0,
        };
        let net = Cnn1dClassifier::new(cfg, 9).unwrap();
        let data: Vec<f32> = (0..24).map(|i| ((i * 5 % 7) as f32 - 3.0) * 0.1).collect();
        let x = SeqInput::new(12, 2, data).unwrap();
        let label = 1usize;

        let mut rng = StdRng::seed_from_u64(0);
        let (logits, cache) = net.forward_train(&x, &mut rng);
        let (_, dlogits) = cross_entropy(&logits, label);
        let mut grads = CnnGrads::zeros_like(&net);
        net.backward(&dlogits, &cache, &mut grads);

        let analytic: Vec<f32> = grads.grad_slices().concat();
        let mut net2 = net.clone();
        let eps = 1e-2f32;
        let groups = net2.param_slices_mut().len();
        let mut flat = 0usize;
        for gi in 0..groups {
            let glen = net2.param_slices_mut()[gi].len();
            for k in (0..glen).step_by((glen / 5).max(1)) {
                let orig = net2.param_slices_mut()[gi][k];
                net2.param_slices_mut()[gi][k] = orig + eps;
                let (lp, _) = cross_entropy(&net2.logits(&x), label);
                net2.param_slices_mut()[gi][k] = orig - eps;
                let (lm, _) = cross_entropy(&net2.logits(&x), label);
                net2.param_slices_mut()[gi][k] = orig;
                let numeric = (lp - lm) / (2.0 * eps);
                let ana = analytic[flat + k];
                assert!(
                    (numeric - ana).abs() < 5e-2,
                    "group {gi} param {k}: numeric {numeric} vs analytic {ana}"
                );
            }
            flat += glen;
        }
    }

    #[test]
    fn serde_round_trip() {
        let net = Cnn1dClassifier::new(CnnConfig::df_lite(2, 24, 4), 1).unwrap();
        let x = SeqInput::zeros(24, 2);
        let json = net.to_json().unwrap();
        let back = Cnn1dClassifier::from_json(&json).unwrap();
        assert_eq!(net.logits(&x), back.logits(&x));
    }
}
