//! A single-layer LSTM with full backpropagation through time (BPTT).
//!
//! The paper's embedding network (Table I) consumes each traffic trace —
//! a `T × S` matrix of per-step byte counts over `S` IP sequences — with a
//! 30-unit LSTM front-end and feeds the final hidden state to a dense
//! stack. This module implements exactly that front-end.
//!
//! Gate layout follows the common `[i, f, g, o]` convention:
//!
//! ```text
//! z_t = W·[x_t ; h_{t-1}] + b          (z ∈ R^{4H})
//! i = σ(z_i)   f = σ(z_f)   g = tanh(z_g)   o = σ(z_o)
//! c_t = f ⊙ c_{t-1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```

use std::cmp::Reverse;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::activation::{fast_sigmoid_slice, fast_tanh_slice, sigmoid};
use crate::init::Init;
use crate::seq::SeqInput;
use crate::tensor::{add_assign_slice, matmul_t, scale_slice, GradRows, Matrix};

/// Single-layer LSTM. Weights are stored as one `(4H) × (I+H)` matrix so
/// all four gates are computed with a single matrix–vector product.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lstm {
    w: Matrix,
    b: Vec<f32>,
    input_size: usize,
    hidden_size: usize,
}

/// Gradients matching an [`Lstm`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LstmGrad {
    /// Gradient of the packed gate weight matrix.
    pub w: Matrix,
    /// Gradient of the packed gate bias.
    pub b: Vec<f32>,
}

/// Forward-pass cache for a whole sequence: the values BPTT needs from
/// every step, in flat step-major buffers (a few allocations per
/// sequence, not per step).
#[derive(Debug, Clone, Default)]
pub struct LstmCache {
    /// Timesteps cached.
    steps: usize,
    /// Per step: the concatenated `[x_t ; h_{t-1}]` (`T × (I+H)`).
    xh: Vec<f32>,
    /// Per step: the previous cell state `c_{t-1}` (`T × H`).
    c_prev: Vec<f32>,
    /// Per step: the gate activations `i, f, g, o` (`T × 4H`).
    gates: Vec<f32>,
    /// Per step: `tanh(c_t)` (`T × H`).
    tanh_c: Vec<f32>,
}

/// Transposed, panel-padded gate weights for [`Lstm::forward_batch_t`]
/// (built by [`Lstm::gate_weights_t`]).
#[derive(Debug, Clone, Default)]
pub struct GateWeightsT {
    /// Four concatenated `(I+H) × Hp` panels (`i`, `f`, `g`, `o`).
    wt: Vec<f32>,
    /// Four concatenated `Hp`-wide bias rows.
    bias: Vec<f32>,
    /// Padded panel width (`H` rounded up to a multiple of 8).
    hp: usize,
}

/// Caller-owned buffers for [`Lstm::forward_batch_t`]: the batch plan
/// (sorted order + lengths) and the per-sequence state panels. Reusing
/// one scratch across calls makes the batched forward allocation-free
/// after warm-up.
#[derive(Debug, Clone, Default)]
pub struct LstmScratch {
    /// Sequence indices sorted by length, longest first (stable).
    order: Vec<usize>,
    /// Lengths aligned with `order`.
    lens: Vec<usize>,
    /// State panels, one row per sequence in plan order.
    panels: StatePanels,
}

/// The per-sequence panels one timestep ([`Lstm::step`]) reads and
/// writes, for a plan of `n` sequences at the padded stride `hp`.
#[derive(Debug, Clone, Default)]
struct StatePanels {
    /// Concatenated `[x_t ; h_{t-1}]` rows, one per active sequence.
    xh: Vec<f32>,
    /// Gate pre-activations: four `n × hp` panels (`i`, `f`, `g`, `o`).
    z: Vec<f32>,
    /// Hidden states (`n × hp`).
    h: Vec<f32>,
    /// Cell states (`n × hp`).
    c: Vec<f32>,
}

impl StatePanels {
    /// Zeroed panels for `n` sequences with `xh_w`-wide input rows.
    fn reset(&mut self, n: usize, xh_w: usize, hp: usize) {
        for (buf, len) in [
            (&mut self.xh, n * xh_w),
            (&mut self.z, 4 * n * hp),
            (&mut self.h, n * hp),
            (&mut self.c, n * hp),
        ] {
            buf.clear();
            buf.resize(len, 0.0);
        }
    }
}

impl LstmCache {
    /// Number of timesteps that were processed.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// Whether the cached sequence was empty.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }
}

/// Incremental per-session LSTM state for the streaming serving path:
/// the state panels of a batch of one, folded one timestep at a time
/// by [`Lstm::stream_step`].
///
/// The panels use the padded stride `hp` from the [`GateWeightsT`] the
/// stream was started with, and every step runs the same step body as
/// [`Lstm::forward_batch_t`] with `n = 1`, so the fold is the batched
/// engine's batch-of-one arithmetic bit for bit. Cloning a stream is
/// cheap (a few `hp`-sized buffers) — sessions clone it to peek at a
/// decision that includes a not-yet-sealed feature step without
/// consuming state.
#[derive(Debug, Clone)]
pub struct LstmStream {
    /// The batch-of-one panels (the first `H` lanes of `h` are real).
    panels: StatePanels,
    /// Timesteps folded so far.
    steps: usize,
}

impl LstmStream {
    /// Number of timesteps folded into this stream.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Whether no timestep has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }
}

impl Lstm {
    /// Creates an LSTM with Xavier-initialized gate weights and the
    /// customary forget-gate bias of 1 (helps gradient flow early on).
    pub fn new<R: Rng + ?Sized>(input_size: usize, hidden_size: usize, rng: &mut R) -> Self {
        let w = Init::XavierUniform.matrix(4 * hidden_size, input_size + hidden_size, rng);
        let mut b = vec![0.0; 4 * hidden_size];
        // Forget-gate block is the second H-sized chunk.
        for v in &mut b[hidden_size..2 * hidden_size] {
            *v = 1.0;
        }
        Lstm {
            w,
            b,
            input_size,
            hidden_size,
        }
    }

    /// Input dimensionality (one element per IP sequence).
    pub fn input_size(&self) -> usize {
        self.input_size
    }

    /// Hidden-state dimensionality (30 in the paper).
    pub fn hidden_size(&self) -> usize {
        self.hidden_size
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Runs the sequence and returns the final hidden state.
    ///
    /// `xs` is a flat row-major `T × input_size` buffer.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of `input_size`.
    pub fn forward(&self, xs: &[f32]) -> Vec<f32> {
        self.run(xs, None)
    }

    /// Runs the sequence, caching every step for [`Lstm::backward`].
    pub fn forward_train(&self, xs: &[f32]) -> (Vec<f32>, LstmCache) {
        let mut cache = LstmCache::default();
        let h = self.run(xs, Some(&mut cache));
        (h, cache)
    }

    fn run(&self, xs: &[f32], mut cache: Option<&mut LstmCache>) -> Vec<f32> {
        assert_eq!(
            xs.len() % self.input_size.max(1),
            0,
            "sequence buffer length {} is not a multiple of input size {}",
            xs.len(),
            self.input_size
        );
        let hs = self.hidden_size;
        let xh_w = self.input_size + hs;
        let mut h = vec![0.0f32; hs];
        let mut c = vec![0.0f32; hs];
        let mut z = vec![0.0f32; 4 * hs];
        let mut xh = vec![0.0f32; xh_w];
        let mut gates = vec![0.0f32; 4 * hs];
        let mut tanh_c = vec![0.0f32; hs];
        if let Some(cache) = cache.as_deref_mut() {
            let steps = xs.len() / self.input_size.max(1);
            cache.xh.reserve(steps * xh_w);
            cache.c_prev.reserve(steps * hs);
            cache.gates.reserve(steps * 4 * hs);
            cache.tanh_c.reserve(steps * hs);
        }

        for x_t in xs.chunks_exact(self.input_size) {
            xh[..self.input_size].copy_from_slice(x_t);
            xh[self.input_size..].copy_from_slice(&h);
            self.w.matvec(&xh, &mut z);
            add_assign_slice(&mut z, &self.b);
            if let Some(cache) = cache.as_deref_mut() {
                cache.xh.extend_from_slice(&xh);
                cache.c_prev.extend_from_slice(&c);
            }

            let (i, rest) = gates.split_at_mut(hs);
            let (f, rest) = rest.split_at_mut(hs);
            let (g, o) = rest.split_at_mut(hs);
            for k in 0..hs {
                i[k] = sigmoid(z[k]);
                f[k] = sigmoid(z[hs + k]);
                g[k] = z[2 * hs + k].tanh();
                o[k] = sigmoid(z[3 * hs + k]);
                c[k] = f[k] * c[k] + i[k] * g[k];
            }
            for (t, cv) in tanh_c.iter_mut().zip(&c) {
                *t = cv.tanh();
            }
            for k in 0..hs {
                h[k] = o[k] * tanh_c[k];
            }

            if let Some(cache) = cache.as_deref_mut() {
                cache.gates.extend_from_slice(&gates);
                cache.tanh_c.extend_from_slice(&tanh_c);
                cache.steps += 1;
            }
        }
        h
    }

    /// BPTT given the gradient of the loss w.r.t. the *final* hidden state.
    ///
    /// Accumulates parameter gradients into `grad`: the step deltas of
    /// `Lstm::backward_deltas`, then their replay by
    /// `Lstm::backward_params_only` over every row. Gradients w.r.t.
    /// the inputs are not produced (the sequences are data, not
    /// parameters).
    pub fn backward(&self, dh_final: &[f32], cache: &LstmCache, grad: &mut LstmGrad) {
        let dzs = self.backward_deltas(dh_final, cache);
        self.backward_params_only(cache, &dzs, &mut grad.rows());
    }

    /// The delta half of BPTT: every step's gate pre-activation gradient
    /// `dz_t` (`4H` wide, `[i, f, g, o]`), in step order (`T × 4H`),
    /// given the gradient w.r.t. the final hidden state. Touches no
    /// parameter gradient, so samples can run it in parallel.
    pub(crate) fn backward_deltas(&self, dh_final: &[f32], cache: &LstmCache) -> Vec<f32> {
        let hs = self.hidden_size;
        debug_assert_eq!(dh_final.len(), hs);

        let mut dzs = vec![0.0f32; cache.steps * 4 * hs];
        let mut dh = dh_final.to_vec();
        let mut dc = vec![0.0f32; hs];
        let mut dxh = vec![0.0f32; self.input_size + hs];

        for (t, dz) in dzs.chunks_exact_mut(4 * hs).enumerate().rev() {
            let gates = &cache.gates[t * 4 * hs..(t + 1) * 4 * hs];
            let (i, f) = (&gates[..hs], &gates[hs..2 * hs]);
            let (g, o) = (&gates[2 * hs..3 * hs], &gates[3 * hs..]);
            let c_prev = &cache.c_prev[t * hs..(t + 1) * hs];
            let tanh_c = &cache.tanh_c[t * hs..(t + 1) * hs];
            for k in 0..hs {
                let d_o = dh[k] * tanh_c[k];
                let d_c = dh[k] * o[k] * (1.0 - tanh_c[k] * tanh_c[k]) + dc[k];
                let d_i = d_c * g[k];
                let d_f = d_c * c_prev[k];
                let d_g = d_c * i[k];

                dz[k] = d_i * i[k] * (1.0 - i[k]);
                dz[hs + k] = d_f * f[k] * (1.0 - f[k]);
                dz[2 * hs + k] = d_g * (1.0 - g[k] * g[k]);
                dz[3 * hs + k] = d_o * o[k] * (1.0 - o[k]);

                dc[k] = d_c * f[k];
            }

            dxh.iter_mut().for_each(|v| *v = 0.0);
            self.w.matvec_t_add(dz, &mut dxh);
            dh.copy_from_slice(&dxh[self.input_size..]);
        }
        dzs
    }

    /// The parameter half of BPTT on a band of the gradient's rows:
    /// replays `dW += dz_t ⊗ [x_t ; h_{t-1}]` and `db += dz_t` for the
    /// deltas `dzs` of `Lstm::backward_deltas`, from the last step to
    /// the first — the order BPTT produces them in.
    pub(crate) fn backward_params_only(
        &self,
        cache: &LstmCache,
        dzs: &[f32],
        grad: &mut GradRows<'_>,
    ) {
        let gates = 4 * self.hidden_size;
        debug_assert_eq!(dzs.len(), cache.steps * gates, "step delta shape");
        let rows = cache.xh.chunks_exact(self.input_size + self.hidden_size);
        for (dz, xh) in dzs.chunks_exact(gates).zip(rows).rev() {
            grad.add_outer(dz, xh);
        }
    }

    /// Fills `out` with the transposed gate weights as four
    /// concatenated per-gate panels (`i`, `f`, `g`, `o`), each
    /// `(I+H) × Hp` row-major with the output width padded to a
    /// multiple of eight — the layout [`Lstm::forward_batch_t`]
    /// streams, sized so every inner sweep is a whole number of SIMD
    /// lanes. Pad columns carry zero weight and zero bias, so they
    /// never influence a real output. Callers amortize this copy across
    /// a whole batch (and, via the embedding engine's scratch cache,
    /// across calls).
    pub fn gate_weights_t(&self, out: &mut GateWeightsT) {
        let hs = self.hidden_size;
        let hp = hs.div_ceil(8) * 8;
        let cols = self.input_size + hs;
        out.hp = hp;
        out.wt.clear();
        out.wt.resize(4 * hp * cols, 0.0);
        out.bias.clear();
        out.bias.resize(4 * hp, 0.0);
        let w = self.w.as_slice();
        for gate in 0..4 {
            let panel = &mut out.wt[gate * hp * cols..(gate + 1) * hp * cols];
            for r in 0..hs {
                for c in 0..cols {
                    panel[c * hp + r] = w[(gate * hs + r) * cols + c];
                }
            }
            out.bias[gate * hp..gate * hp + hs]
                .copy_from_slice(&self.b[gate * hs..(gate + 1) * hs]);
        }
    }

    /// Fused batched forward pass: one gate matrix–matrix product per
    /// timestep for the whole batch, into caller-owned scratch — no
    /// per-step allocations.
    ///
    /// `wt` is the transposed gate matrix from [`Lstm::gate_weights_t`].
    /// Ragged lengths are handled by a sorted-by-length batch plan:
    /// sequences are processed longest-first, so as shorter sequences
    /// finish they retire off the end of the active prefix and later
    /// timesteps run on a shrinking batch. Final hidden states are
    /// written to `h_out` (`seqs.len() × H`, row-major, **original**
    /// order; empty sequences yield the zero state).
    ///
    /// Every per-sequence arithmetic operation is performed in the same
    /// fixed order regardless of batch composition, so each row of
    /// `h_out` is bit-identical to running that sequence through a
    /// batch of one.
    ///
    /// # Panics
    ///
    /// Panics (debug) if a sequence's channel count, `wt`, or `h_out`
    /// disagree with the layer shape.
    pub fn forward_batch_t(
        &self,
        seqs: &[SeqInput],
        wt: &GateWeightsT,
        scratch: &mut LstmScratch,
        h_out: &mut [f32],
    ) {
        let hs = self.hidden_size;
        let xd = self.input_size;
        let hp = wt.hp;
        let n = seqs.len();
        debug_assert!(hp >= hs, "panel width below hidden size");
        debug_assert_eq!(h_out.len(), n * hs, "h_out shape");

        // Sorted-by-length plan: longest first, ties by original index
        // (the sort is stable), so the active set is always a prefix.
        scratch.order.clear();
        scratch.order.extend(0..n);
        scratch.order.sort_by_key(|&i| Reverse(seqs[i].steps()));
        scratch.lens.clear();
        scratch
            .lens
            .extend(scratch.order.iter().map(|&i| seqs[i].steps()));

        // All state panels use the padded stride `hp`: pad lanes carry
        // zero-weight, zero-bias gate outputs that decay harmlessly and
        // are never read back, and in exchange every sweep in the step
        // body is a whole number of SIMD lanes.
        scratch.panels.reset(n, xd + hs, hp);

        let mut active = n;
        while active > 0 && scratch.lens[active - 1] == 0 {
            active -= 1;
        }
        let mut t = 0usize;
        while active > 0 {
            let order = &scratch.order;
            self.step(
                wt,
                n,
                active,
                |s| seqs[order[s]].step(t),
                &mut scratch.panels,
            );
            t += 1;
            // Retire sequences that just finished.
            while active > 0 && scratch.lens[active - 1] <= t {
                active -= 1;
            }
        }

        // Scatter final states back to original order.
        for s in 0..n {
            h_out[scratch.order[s] * hs..(scratch.order[s] + 1) * hs]
                .copy_from_slice(&scratch.panels.h[s * hp..s * hp + hs]);
        }
    }

    /// One timestep for the `active` leading sequences of a plan of
    /// `n` — the step body [`Lstm::forward_batch_t`] runs per timestep
    /// and [`Lstm::stream_step`] runs with `n = 1`. Assembles each
    /// active row's `[x_t ; h_{t-1}]` (`x(s)` is row `s`'s input), runs
    /// the four gate products into contiguous panels of `z` (panel `g`
    /// starts at `g · n · hp`), then the gate nonlinearities and the
    /// state update as whole-panel sweeps: branchless over long
    /// contiguous runs, so every pass vectorizes. Each row's arithmetic
    /// is independent of `n` and `active`.
    fn step<'x>(
        &self,
        wt: &GateWeightsT,
        n: usize,
        active: usize,
        x: impl Fn(usize) -> &'x [f32],
        p: &mut StatePanels,
    ) {
        let (hs, xd, hp) = (self.hidden_size, self.input_size, wt.hp);
        let xh_w = xd + hs;
        for s in 0..active {
            let x_t = x(s);
            debug_assert_eq!(x_t.len(), xd, "input channel count");
            let row = &mut p.xh[s * xh_w..(s + 1) * xh_w];
            row[..xd].copy_from_slice(x_t);
            row[xd..].copy_from_slice(&p.h[s * hp..s * hp + hs]);
        }
        let gate_wt = hp * xh_w;
        let span = active * hp;
        let (zi, rest) = p.z.split_at_mut(n * hp);
        let (zf, rest) = rest.split_at_mut(n * hp);
        let (zg, zo) = rest.split_at_mut(n * hp);
        let xh = &p.xh[..active * xh_w];
        for (gate, panel) in [&mut *zi, &mut *zf, &mut *zg, &mut *zo]
            .into_iter()
            .enumerate()
        {
            matmul_t(
                xh,
                xh_w,
                &wt.wt[gate * gate_wt..(gate + 1) * gate_wt],
                &wt.bias[gate * hp..(gate + 1) * hp],
                &mut panel[..span],
            );
        }
        fast_sigmoid_slice(&mut zi[..span]);
        fast_sigmoid_slice(&mut zf[..span]);
        fast_tanh_slice(&mut zg[..span]);
        fast_sigmoid_slice(&mut zo[..span]);
        let c = &mut p.c[..span];
        for (idx, cv) in c.iter_mut().enumerate() {
            *cv = zf[idx] * *cv + zi[idx] * zg[idx];
        }
        // The spent g panel becomes tanh(c_t).
        zg[..span].copy_from_slice(c);
        fast_tanh_slice(&mut zg[..span]);
        for (idx, hv) in p.h[..span].iter_mut().enumerate() {
            *hv = zo[idx] * zg[idx];
        }
    }

    /// Starts an incremental fold with zeroed state sized for `wt`.
    ///
    /// The returned [`LstmStream`] advances one timestep per
    /// [`Lstm::stream_step`] call, so after `t` steps
    /// [`Lstm::stream_hidden`] is bit-identical to the batched final
    /// hidden state of the corresponding `t`-step prefix. A stream that
    /// never steps reads back the zero state, matching the batched
    /// engine's empty-sequence convention.
    pub fn stream_start(&self, wt: &GateWeightsT) -> LstmStream {
        debug_assert!(wt.hp >= self.hidden_size, "panel width below hidden size");
        let mut panels = StatePanels::default();
        panels.reset(1, self.input_size + self.hidden_size, wt.hp);
        LstmStream { panels, steps: 0 }
    }

    /// Folds one timestep `x_t` (length [`Lstm::input_size`]) into the
    /// stream: [`Lstm::forward_batch_t`]'s step body on a batch of one.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `x_t` or the stream's panels disagree with the
    /// layer shape or with `wt`.
    pub fn stream_step(&self, wt: &GateWeightsT, st: &mut LstmStream, x_t: &[f32]) {
        debug_assert_eq!(st.panels.h.len(), wt.hp, "stream panel width");
        self.step(wt, 1, 1, |_| x_t, &mut st.panels);
        st.steps += 1;
    }

    /// The stream's current hidden state (the real `H` lanes).
    pub fn stream_hidden<'a>(&self, st: &'a LstmStream) -> &'a [f32] {
        &st.panels.h[..self.hidden_size]
    }

    /// Mutable parameter views (weights then biases) for optimizers.
    pub fn param_slices_mut(&mut self) -> [&mut [f32]; 2] {
        [self.w.as_mut_slice(), &mut self.b]
    }

    /// Immutable parameter views (weights then biases).
    pub fn param_slices(&self) -> [&[f32]; 2] {
        [self.w.as_slice(), &self.b]
    }
}

impl LstmGrad {
    /// Zeroed gradients shaped like `lstm`.
    pub fn zeros_like(lstm: &Lstm) -> Self {
        LstmGrad {
            w: Matrix::zeros(4 * lstm.hidden_size, lstm.input_size + lstm.hidden_size),
            b: vec![0.0; 4 * lstm.hidden_size],
        }
    }

    /// Every row of this gradient, as one band.
    pub(crate) fn rows(&mut self) -> GradRows<'_> {
        GradRows::new(&mut self.w, &mut self.b)
    }

    /// Scales all gradients.
    pub fn scale(&mut self, s: f32) {
        self.w.scale(s);
        scale_slice(&mut self.b, s);
    }

    /// Resets to zero, keeping allocations.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Gradient views aligned with [`Lstm::param_slices_mut`].
    pub fn grad_slices(&self) -> [&[f32]; 2] {
        [self.w.as_slice(), &self.b]
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn output_shape_and_determinism() {
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(3, 5, &mut rng);
        let xs: Vec<f32> = (0..12).map(|i| (i as f32) * 0.1).collect(); // T=4, I=3
        let h1 = lstm.forward(&xs);
        let h2 = lstm.forward(&xs);
        assert_eq!(h1.len(), 5);
        assert_eq!(h1, h2);
    }

    #[test]
    fn empty_sequence_yields_zero_state() {
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(3, 4, &mut rng);
        let h = lstm.forward(&[]);
        assert_eq!(h, vec![0.0; 4]);
    }

    #[test]
    fn cache_records_every_step() {
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(2, 3, &mut rng);
        let xs = vec![0.1; 10]; // T=5
        let (h, cache) = lstm.forward_train(&xs);
        assert_eq!(cache.len(), 5);
        assert!(!cache.is_empty());
        assert_eq!(h, lstm.forward(&xs));
    }

    #[test]
    fn forget_bias_initialized_to_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(2, 3, &mut rng);
        let [_, b] = lstm.param_slices();
        assert_eq!(&b[3..6], &[1.0, 1.0, 1.0]);
        assert_eq!(&b[0..3], &[0.0, 0.0, 0.0]);
    }

    /// BPTT as one interleaved pass: each step's deltas, then at once
    /// that step's parameter gradient. Splitting BPTT into deltas and a
    /// replay must not move a bit of what this order sums.
    fn interleaved_bptt(lstm: &Lstm, dh_final: &[f32], cache: &LstmCache, grad: &mut LstmGrad) {
        let hs = lstm.hidden_size;
        let xh_w = lstm.input_size + hs;
        let mut dh = dh_final.to_vec();
        let mut dc = vec![0.0f32; hs];
        let mut dz = vec![0.0f32; 4 * hs];
        let mut dxh = vec![0.0f32; xh_w];
        for t in (0..cache.steps).rev() {
            let gate = |g: usize, k: usize| cache.gates[(4 * t + g) * hs + k];
            for k in 0..hs {
                let (i, f, g, o) = (gate(0, k), gate(1, k), gate(2, k), gate(3, k));
                let tanh_c = cache.tanh_c[t * hs + k];
                let d_o = dh[k] * tanh_c;
                let d_c = dh[k] * o * (1.0 - tanh_c * tanh_c) + dc[k];
                let d_i = d_c * g;
                let d_f = d_c * cache.c_prev[t * hs + k];
                let d_g = d_c * i;
                dz[k] = d_i * i * (1.0 - i);
                dz[hs + k] = d_f * f * (1.0 - f);
                dz[2 * hs + k] = d_g * (1.0 - g * g);
                dz[3 * hs + k] = d_o * o * (1.0 - o);
                dc[k] = d_c * f;
            }
            grad.w.outer_add(&dz, &cache.xh[t * xh_w..(t + 1) * xh_w]);
            add_assign_slice(&mut grad.b, &dz);
            dxh.iter_mut().for_each(|v| *v = 0.0);
            lstm.w.matvec_t_add(&dz, &mut dxh);
            dh.copy_from_slice(&dxh[lstm.input_size..]);
        }
    }

    #[test]
    fn backward_sums_in_the_interleaved_bptt_order() {
        let mut rng = StdRng::seed_from_u64(17);
        let lstm = Lstm::new(3, 5, &mut rng);
        let mut split = LstmGrad::zeros_like(&lstm);
        let mut interleaved = LstmGrad::zeros_like(&lstm);
        // Two samples into one accumulator, as a training step sums them.
        for (salt, dh) in [(1u64, [0.3f32, -1.0, 0.0, 2.0, 0.5]), (2, [1.0; 5])] {
            let (_, cache) = lstm.forward_train(seq(9, 3, salt).as_slice());
            lstm.backward(&dh, &cache, &mut split);
            interleaved_bptt(&lstm, &dh, &cache, &mut interleaved);
        }
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(split.w.as_slice()), bits(interleaved.w.as_slice()));
        assert_eq!(bits(&split.b), bits(&interleaved.b));
    }

    /// Full finite-difference gradient check of BPTT: loss = sum(h_T).
    #[test]
    fn gradient_check_bptt() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs: Vec<f32> = (0..8).map(|i| ((i * 37 % 11) as f32 - 5.0) * 0.1).collect(); // T=4

        let (h, cache) = lstm.forward_train(&xs);
        assert_eq!(h.len(), 3);
        let mut grad = LstmGrad::zeros_like(&lstm);
        lstm.backward(&[1.0, 1.0, 1.0], &cache, &mut grad);

        let eps = 1e-3f32;
        // Check every weight (the matrix is tiny: 12 × 5).
        for idx in 0..lstm.w.len() {
            let orig = lstm.w.as_slice()[idx];
            lstm.w.as_mut_slice()[idx] = orig + eps;
            let plus: f32 = lstm.forward(&xs).iter().sum();
            lstm.w.as_mut_slice()[idx] = orig - eps;
            let minus: f32 = lstm.forward(&xs).iter().sum();
            lstm.w.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad.w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "dW[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // And every bias.
        for idx in 0..lstm.b.len() {
            let orig = lstm.b[idx];
            lstm.b[idx] = orig + eps;
            let plus: f32 = lstm.forward(&xs).iter().sum();
            lstm.b[idx] = orig - eps;
            let minus: f32 = lstm.forward(&xs).iter().sum();
            lstm.b[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad.b[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "db[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn rejects_misaligned_sequence() {
        let mut rng = StdRng::seed_from_u64(7);
        let lstm = Lstm::new(3, 4, &mut rng);
        let _ = lstm.forward(&[1.0, 2.0]);
    }

    fn seq(steps: usize, channels: usize, salt: u64) -> SeqInput {
        let data: Vec<f32> = (0..steps * channels)
            .map(|i| (((i as u64).wrapping_mul(31).wrapping_add(salt) % 17) as f32) * 0.1 - 0.8)
            .collect();
        SeqInput::new(steps, channels, data).unwrap()
    }

    fn batch_forward(lstm: &Lstm, seqs: &[SeqInput]) -> Vec<f32> {
        let mut wt = GateWeightsT::default();
        lstm.gate_weights_t(&mut wt);
        let mut scratch = LstmScratch::default();
        let mut out = vec![0.0f32; seqs.len() * lstm.hidden_size()];
        lstm.forward_batch_t(seqs, &wt, &mut scratch, &mut out);
        out
    }

    /// Each row of a ragged batch is bit-identical to running that
    /// sequence through a batch of one — the invariance everything
    /// above this layer (embed vs embed_batch) rests on.
    #[test]
    fn ragged_batch_rows_match_batch_of_one_exactly() {
        let mut rng = StdRng::seed_from_u64(3);
        let lstm = Lstm::new(3, 5, &mut rng);
        let seqs: Vec<SeqInput> = [7usize, 0, 3, 12, 1, 3, 9]
            .iter()
            .enumerate()
            .map(|(i, &t)| seq(t, 3, i as u64))
            .collect();
        let batched = batch_forward(&lstm, &seqs);
        for (i, s) in seqs.iter().enumerate() {
            let single = batch_forward(&lstm, std::slice::from_ref(s));
            assert_eq!(
                &batched[i * 5..(i + 1) * 5],
                single.as_slice(),
                "row {i} (len {})",
                s.steps()
            );
        }
        // Empty sequence keeps the zero state.
        assert_eq!(&batched[5..10], &[0.0; 5]);
    }

    /// The fused engine evaluates the same math as the per-sequence
    /// reference path up to the fast-activation tolerance.
    #[test]
    fn batched_forward_tracks_reference_forward() {
        let mut rng = StdRng::seed_from_u64(9);
        let lstm = Lstm::new(2, 6, &mut rng);
        let seqs: Vec<SeqInput> = (0..5).map(|i| seq(4 + i * 3, 2, i as u64)).collect();
        let batched = batch_forward(&lstm, &seqs);
        for (i, s) in seqs.iter().enumerate() {
            let reference = lstm.forward(s.as_slice());
            for (a, b) in batched[i * 6..(i + 1) * 6].iter().zip(&reference) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "row {i}: batched {a} vs reference {b}"
                );
            }
        }
    }

    /// Folding a sequence one timestep at a time through the stream
    /// state reproduces the batched engine's final hidden state bit for
    /// bit at every prefix length — the invariance the streaming
    /// serving path rests on.
    #[test]
    fn stream_fold_matches_batched_prefixes_exactly() {
        let mut rng = StdRng::seed_from_u64(13);
        let lstm = Lstm::new(3, 5, &mut rng);
        let full = seq(11, 3, 42);
        let mut wt = GateWeightsT::default();
        lstm.gate_weights_t(&mut wt);
        let mut st = lstm.stream_start(&wt);
        // Prefix length 0 reads back the zero state.
        assert_eq!(lstm.stream_hidden(&st), &[0.0; 5]);
        assert!(st.is_empty());
        for t in 0..full.steps() {
            lstm.stream_step(&wt, &mut st, full.step(t));
            assert_eq!(st.steps(), t + 1);
            let prefix = SeqInput::new(t + 1, 3, full.as_slice()[..(t + 1) * 3].to_vec()).unwrap();
            let batched = batch_forward(&lstm, std::slice::from_ref(&prefix));
            assert_eq!(
                lstm.stream_hidden(&st),
                batched.as_slice(),
                "prefix length {}",
                t + 1
            );
        }
        // A cloned stream advances independently of its parent.
        let frozen = st.clone();
        let mut branch = st.clone();
        lstm.stream_step(&wt, &mut branch, full.step(0));
        assert_eq!(lstm.stream_hidden(&st), lstm.stream_hidden(&frozen));
        assert_ne!(branch.steps(), st.steps());
    }

    /// Scratch reuse across differently-shaped batches never leaks
    /// state between calls.
    #[test]
    fn scratch_reuse_is_stateless() {
        let mut rng = StdRng::seed_from_u64(5);
        let lstm = Lstm::new(3, 4, &mut rng);
        let mut wt = GateWeightsT::default();
        lstm.gate_weights_t(&mut wt);
        let mut scratch = LstmScratch::default();

        let big: Vec<SeqInput> = (0..6).map(|i| seq(10, 3, i as u64)).collect();
        let mut out_big = vec![0.0f32; big.len() * 4];
        lstm.forward_batch_t(&big, &wt, &mut scratch, &mut out_big);

        let small = [seq(2, 3, 99)];
        let mut out_small = vec![0.0f32; 4];
        lstm.forward_batch_t(&small, &wt, &mut scratch, &mut out_small);
        let mut fresh = LstmScratch::default();
        let mut out_fresh = vec![0.0f32; 4];
        lstm.forward_batch_t(&small, &wt, &mut fresh, &mut out_fresh);
        assert_eq!(out_small, out_fresh);
    }
}
