//! Inverted dropout.
//!
//! During training each unit is zeroed with probability `p` and the
//! survivors are scaled by `1/(1-p)`, so evaluation needs no rescaling.

use rand::{Rng, RngExt};

/// Dropout configuration (probability of *dropping* a unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dropout {
    p: f32,
}

impl Dropout {
    /// Creates a dropout layer.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1)`.
    pub fn new(p: f32) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "dropout probability must be in [0,1), got {p}"
        );
        Dropout { p }
    }

    /// Drop probability.
    pub fn p(&self) -> f32 {
        self.p
    }

    /// Samples a mask and applies it in place; returns the mask so the
    /// backward pass can reuse it. With `p == 0` this is a no-op and the
    /// returned mask is all-ones.
    pub fn apply_train<R: Rng + ?Sized>(&self, xs: &mut [f32], rng: &mut R) -> Vec<f32> {
        if self.p == 0.0 {
            return vec![1.0; xs.len()];
        }
        let keep = 1.0 - self.p;
        let scale = 1.0 / keep;
        let mut mask = Vec::with_capacity(xs.len());
        for x in xs.iter_mut() {
            if rng.random::<f32>() < self.p {
                *x = 0.0;
                mask.push(0.0);
            } else {
                *x *= scale;
                mask.push(scale);
            }
        }
        mask
    }

    /// Advances `rng` past the draws [`Dropout::apply_train`] makes on
    /// `units` values, without sampling a mask: one uniform per unit,
    /// none when `p == 0`.
    pub(crate) fn skip_train<R: Rng + ?Sized>(&self, units: usize, rng: &mut R) {
        if self.p == 0.0 {
            return;
        }
        for _ in 0..units {
            let _: f32 = rng.random();
        }
    }

    /// Applies a previously-sampled mask to a gradient.
    pub fn backprop(mask: &[f32], grad: &mut [f32]) {
        debug_assert_eq!(mask.len(), grad.len());
        for (g, m) in grad.iter_mut().zip(mask) {
            *g *= m;
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use super::*;

    #[test]
    fn zero_probability_is_identity() {
        let d = Dropout::new(0.0);
        let mut xs = vec![1.0, 2.0, 3.0];
        let mask = d.apply_train(&mut xs, &mut StdRng::seed_from_u64(0));
        assert_eq!(xs, vec![1.0, 2.0, 3.0]);
        assert_eq!(mask, vec![1.0; 3]);
    }

    #[test]
    fn survivors_are_scaled() {
        let d = Dropout::new(0.5);
        let mut xs = vec![1.0; 1000];
        let mask = d.apply_train(&mut xs, &mut StdRng::seed_from_u64(1));
        let dropped = xs.iter().filter(|v| **v == 0.0).count();
        // Roughly half dropped.
        assert!((300..700).contains(&dropped), "dropped {dropped}");
        // Survivors scaled by 2.
        assert!(xs.iter().all(|v| *v == 0.0 || (*v - 2.0).abs() < 1e-6));
        // Expected value approximately preserved.
        let mean: f32 = xs.iter().sum::<f32>() / xs.len() as f32;
        assert!((mean - 1.0).abs() < 0.2, "mean {mean}");
        // Mask matches output.
        for (x, m) in xs.iter().zip(&mask) {
            assert_eq!(*x, *m);
        }
    }

    #[test]
    fn skip_train_draws_what_apply_train_draws() {
        for p in [0.0, 0.3] {
            let d = Dropout::new(p);
            let mut applied = StdRng::seed_from_u64(4);
            let mut skipped = applied.clone();
            d.apply_train(&mut [1.0; 7], &mut applied);
            d.skip_train(7, &mut skipped);
            assert_eq!(applied, skipped, "p = {p}");
        }
    }

    #[test]
    fn backprop_applies_same_mask() {
        let mask = vec![0.0, 2.0, 2.0];
        let mut grad = vec![1.0, 1.0, 1.0];
        Dropout::backprop(&mask, &mut grad);
        assert_eq!(grad, vec![0.0, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dropout probability")]
    fn rejects_p_of_one() {
        let _ = Dropout::new(1.0);
    }
}
