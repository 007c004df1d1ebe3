//! Fully-connected (dense) layer with manual forward/backward passes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init::Init;
use crate::tensor::{add_assign_slice, matmul_t, transpose_into, GradRows, Matrix};

/// A dense layer computing `y = W·x + b` (no activation — activations are
/// applied by the caller so pre-activations can be cached for backprop).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
}

/// Gradient accumulator matching a [`Dense`] layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DenseGrad {
    /// Gradient of the weight matrix.
    pub w: Matrix,
    /// Gradient of the bias vector.
    pub b: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with `out × in` weights drawn from `init` and
    /// zero biases.
    pub fn new<R: Rng + ?Sized>(input: usize, output: usize, init: Init, rng: &mut R) -> Self {
        Dense {
            w: init.matrix(output, input, rng),
            b: vec![0.0; output],
        }
    }

    /// Input dimensionality.
    pub fn input_size(&self) -> usize {
        self.w.cols()
    }

    /// Output dimensionality.
    pub fn output_size(&self) -> usize {
        self.w.rows()
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Forward pass: writes `W·x + b` into `out`.
    pub fn forward(&self, x: &[f32], out: &mut [f32]) {
        self.w.matvec(x, out);
        add_assign_slice(out, &self.b);
    }

    /// Forward pass allocating the output vector.
    pub fn forward_alloc(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; self.output_size()];
        self.forward(x, &mut out);
        out
    }

    /// Writes the transposed weight matrix `Wᵀ` (`in × out`, row-major)
    /// into `wt` — the layout [`Dense::forward_batch_t`] streams.
    pub fn weights_t(&self, wt: &mut Vec<f32>) {
        transpose_into(self.w.as_slice(), self.w.rows(), self.w.cols(), wt);
    }

    /// Batched forward pass through a transposed weight buffer: for
    /// every row `x_i` of the row-major `xs` (`n × in`), writes
    /// `W·x_i + b` into the matching row of `out` (`n × out`). One
    /// matrix–matrix product per layer per batch instead of one
    /// matrix–vector product per trace; per-row results are
    /// bit-identical for every batch size.
    pub fn forward_batch_t(&self, wt: &[f32], xs: &[f32], out: &mut [f32]) {
        matmul_t(xs, self.input_size(), wt, &self.b, out);
    }

    /// Backward pass.
    ///
    /// Given the gradient `dz` w.r.t. this layer's *pre-activation* output
    /// and the input `x` that produced it, accumulates parameter gradients
    /// into `grad` and adds `Wᵀ·dz` into `dx` (gradient w.r.t. the input).
    pub fn backward(&self, x: &[f32], dz: &[f32], grad: &mut DenseGrad, dx: &mut [f32]) {
        self.backward_params_only(x, dz, &mut grad.rows());
        self.backward_input(dz, dx);
    }

    /// The input half of [`Dense::backward`]: adds `Wᵀ·dz` into `dx`.
    pub(crate) fn backward_input(&self, dz: &[f32], dx: &mut [f32]) {
        self.w.matvec_t_add(dz, dx);
    }

    /// The parameter half of [`Dense::backward`] on a band of the
    /// gradient's rows: `dW += dz ⊗ x` and `db += dz` on those rows.
    /// Training replays this step per sample once every delta of a
    /// block is known, with the rows split across threads.
    pub(crate) fn backward_params_only(&self, x: &[f32], dz: &[f32], grad: &mut GradRows<'_>) {
        debug_assert_eq!(x.len(), self.input_size(), "backward input length");
        debug_assert_eq!(dz.len(), self.output_size(), "backward delta length");
        grad.add_outer(dz, x);
    }

    /// Mutable views of all parameter buffers (weights then biases),
    /// used by optimizers.
    pub fn param_slices_mut(&mut self) -> [&mut [f32]; 2] {
        [self.w.as_mut_slice(), &mut self.b]
    }

    /// Immutable views of all parameter buffers (weights then biases).
    pub fn param_slices(&self) -> [&[f32]; 2] {
        [self.w.as_slice(), &self.b]
    }
}

impl DenseGrad {
    /// Zeroed gradients shaped like `layer`.
    pub fn zeros_like(layer: &Dense) -> Self {
        DenseGrad {
            w: Matrix::zeros(layer.output_size(), layer.input_size()),
            b: vec![0.0; layer.output_size()],
        }
    }

    /// Every row of this gradient, as one band.
    pub(crate) fn rows(&mut self) -> GradRows<'_> {
        GradRows::new(&mut self.w, &mut self.b)
    }

    /// Accumulates another gradient (used when merging per-thread grads).
    pub fn add_assign(&mut self, other: &DenseGrad) {
        self.w.add_assign(&other.w);
        add_assign_slice(&mut self.b, &other.b);
    }

    /// Scales all gradients (e.g. by `1/batch`).
    pub fn scale(&mut self, s: f32) {
        self.w.scale(s);
        crate::tensor::scale_slice(&mut self.b, s);
    }

    /// Resets to zero, keeping allocations.
    pub fn zero(&mut self) {
        self.w.fill_zero();
        self.b.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Gradient views aligned with [`Dense::param_slices_mut`].
    pub fn grad_slices(&self) -> [&[f32]; 2] {
        [self.w.as_slice(), &self.b]
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    fn tiny_layer() -> Dense {
        let mut l = Dense::new(2, 2, Init::Zeros, &mut StdRng::seed_from_u64(0));
        l.w = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        l.b = vec![0.5, -0.5];
        l
    }

    #[test]
    fn forward_matches_hand_computation() {
        let l = tiny_layer();
        let y = l.forward_alloc(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn backward_accumulates_expected_grads() {
        let l = tiny_layer();
        let mut g = DenseGrad::zeros_like(&l);
        let mut dx = vec![0.0; 2];
        l.backward(&[1.0, 2.0], &[1.0, 1.0], &mut g, &mut dx);
        // dW = dz ⊗ x = [[1,2],[1,2]]
        assert_eq!(g.w.as_slice(), &[1.0, 2.0, 1.0, 2.0]);
        assert_eq!(g.b, vec![1.0, 1.0]);
        // dx = Wᵀ dz = [1+3, 2+4]
        assert_eq!(dx, vec![4.0, 6.0]);
    }

    #[test]
    fn gradient_check_weights() {
        // Loss = sum(y); dL/dz = 1 → compare dW against finite differences.
        let mut rng = StdRng::seed_from_u64(3);
        let l = Dense::new(4, 3, Init::XavierUniform, &mut rng);
        let x: Vec<f32> = (0..4).map(|i| 0.1 * i as f32 - 0.2).collect();
        let mut g = DenseGrad::zeros_like(&l);
        let mut dx = vec![0.0; 4];
        l.backward(&x, &[1.0, 1.0, 1.0], &mut g, &mut dx);

        let eps = 1e-3f32;
        let mut l2 = l.clone();
        for idx in 0..l2.w.len() {
            let orig = l2.w.as_slice()[idx];
            l2.w.as_mut_slice()[idx] = orig + eps;
            let plus: f32 = l2.forward_alloc(&x).iter().sum();
            l2.w.as_mut_slice()[idx] = orig - eps;
            let minus: f32 = l2.forward_alloc(&x).iter().sum();
            l2.w.as_mut_slice()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = g.w.as_slice()[idx];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "dW[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn batched_forward_matches_per_item() {
        let mut rng = StdRng::seed_from_u64(11);
        let l = Dense::new(5, 3, Init::XavierUniform, &mut rng);
        let mut wt = Vec::new();
        l.weights_t(&mut wt);
        let xs: Vec<f32> = (0..4 * 5).map(|i| (i as f32) * 0.17 - 1.5).collect();
        let mut batched = vec![0.0f32; 4 * 3];
        l.forward_batch_t(&wt, &xs, &mut batched);
        for i in 0..4 {
            // Batch rows are independent of batch composition.
            let mut one = vec![0.0f32; 3];
            l.forward_batch_t(&wt, &xs[i * 5..(i + 1) * 5], &mut one);
            assert_eq!(&batched[i * 3..(i + 1) * 3], one.as_slice());
            // And numerically agree with the per-item path.
            let direct = l.forward_alloc(&xs[i * 5..(i + 1) * 5]);
            for (a, b) in one.iter().zip(&direct) {
                assert!((a - b).abs() < 1e-5, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn grad_merge_and_scale() {
        let l = tiny_layer();
        let mut a = DenseGrad::zeros_like(&l);
        let mut b = DenseGrad::zeros_like(&l);
        let mut dx = vec![0.0; 2];
        l.backward(&[1.0, 0.0], &[1.0, 0.0], &mut a, &mut dx);
        l.backward(&[0.0, 1.0], &[0.0, 1.0], &mut b, &mut dx);
        a.add_assign(&b);
        a.scale(0.5);
        assert_eq!(a.w.as_slice(), &[0.5, 0.0, 0.0, 0.5]);
        a.zero();
        assert_eq!(a.w.as_slice(), &[0.0; 4]);
    }
}
