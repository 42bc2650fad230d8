//! The layer abstraction and parameter-free activation layers.

use crate::matrix::Matrix;

/// A differentiable layer in a sequential [`crate::Network`].
///
/// Each layer has one forward kernel, [`Layer::infer_rows`], which reads
/// only `&self` and caches nothing. Inference calls it directly (through
/// [`Layer::infer_into`] or [`crate::Network::infer_into`]); the training
/// forward pass, [`Layer::forward_into`], first records whatever the
/// backward pass needs and then calls the same kernel, so both paths are
/// bit-identical by construction. `backward` consumes the gradient w.r.t.
/// the layer's output and returns the gradient w.r.t. its input,
/// accumulating parameter gradients internally. Gradients accumulate
/// across calls until [`Layer::zero_grads`].
pub trait Layer: Send + Sync {
    /// The stateless forward kernel: `input` holds whole rows, row-major,
    /// of this layer's input width, and `out` receives the matching rows of
    /// its output width. Every element of `out` is overwritten.
    fn infer_rows(&self, input: &[f64], out: &mut [f64]);

    /// Applies the layer to `data` in place and returns `true` when it is
    /// element-wise (an activation); returns `false`, leaving `data`
    /// untouched, otherwise. [`crate::Network::infer_into`] uses this to
    /// fuse activations into the preceding layer's output buffer.
    fn infer_in_place(&self, _data: &mut [f64]) -> bool {
        false
    }

    /// Stateless forward pass over a batch (rows = samples) into a
    /// caller-owned buffer, reusing its allocation.
    fn infer_into(&self, input: &Matrix, out: &mut Matrix) {
        out.reshape_for_overwrite(input.rows(), self.output_width(input.cols()));
        self.infer_rows(input.as_slice(), out.as_mut_slice());
    }

    /// Training forward pass into a caller-owned output buffer: records
    /// what [`Layer::backward`] needs, then runs [`Layer::infer_into`].
    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix);

    /// Allocating form of [`Layer::forward_into`].
    fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.forward_into(input, &mut out);
        out
    }

    /// Backward pass; must follow a `forward` with the matching batch.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Flat view of trainable parameters (empty for activations).
    fn params(&self) -> Vec<f64>;

    /// Overwrites trainable parameters from a flat buffer, returning the
    /// number of values consumed.
    fn set_params(&mut self, flat: &[f64]) -> usize;

    /// Flat view of accumulated parameter gradients (same layout as
    /// [`Layer::params`]).
    fn grads(&self) -> Vec<f64>;

    /// Clears accumulated gradients.
    fn zero_grads(&mut self);

    /// Number of trainable parameters.
    fn param_count(&self) -> usize;

    /// Output width for a given input width; panics if incompatible.
    /// Lets [`crate::Network`] validate layer chains at construction.
    fn output_width(&self, input_width: usize) -> usize;

    /// Short layer name for debugging.
    fn name(&self) -> &'static str;
}

/// Rectified linear unit: `max(0, x)`.
#[derive(Clone, Debug, Default)]
pub struct Relu {
    mask: Matrix,
}

impl Relu {
    /// Creates a ReLU activation.
    #[must_use]
    pub fn new() -> Relu {
        Relu { mask: Matrix::zeros(0, 0) }
    }
}

impl Layer for Relu {
    fn infer_rows(&self, input: &[f64], out: &mut [f64]) {
        for (o, &v) in out.iter_mut().zip(input) {
            *o = v.max(0.0);
        }
    }

    fn infer_in_place(&self, data: &mut [f64]) -> bool {
        for v in data {
            *v = v.max(0.0);
        }
        true
    }

    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        input.map_into(|v| if v > 0.0 { 1.0 } else { 0.0 }, &mut self.mask);
        self.infer_into(input, out);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        assert_eq!(grad_output.shape(), self.mask.shape(), "backward before forward");
        grad_output.hadamard(&self.mask)
    }

    fn params(&self) -> Vec<f64> {
        Vec::new()
    }

    fn set_params(&mut self, _flat: &[f64]) -> usize {
        0
    }

    fn grads(&self) -> Vec<f64> {
        Vec::new()
    }

    fn zero_grads(&mut self) {}

    fn param_count(&self) -> usize {
        0
    }

    fn output_width(&self, input_width: usize) -> usize {
        input_width
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clips_negatives() {
        let mut relu = Relu::new();
        let x = Matrix::row_vector(&[-2.0, 0.0, 3.0]);
        let y = relu.forward(&x);
        assert_eq!(y.as_slice(), &[0.0, 0.0, 3.0]);
    }

    #[test]
    fn relu_backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Matrix::row_vector(&[-2.0, 0.5, 3.0]);
        let _ = relu.forward(&x);
        let g = relu.backward(&Matrix::row_vector(&[1.0, 1.0, 1.0]));
        assert_eq!(g.as_slice(), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn activations_have_no_params() {
        let relu = Relu::new();
        assert_eq!(relu.param_count(), 0);
        assert!(relu.params().is_empty());
        assert!(relu.grads().is_empty());
        assert_eq!(relu.output_width(7), 7);
        assert_eq!(relu.name(), "relu");
    }

    #[test]
    fn relu_finite_difference() {
        // For y = relu(x), dL/dx where L = sum(y * w).
        let mut relu = Relu::new();
        let x = Matrix::row_vector(&[0.3, -0.7, 1.2]);
        let w = [2.0, 3.0, -1.0];
        let _ = relu.forward(&x);
        let analytic = relu.backward(&Matrix::row_vector(&w));
        let eps = 1e-6;
        for i in 0..3 {
            let mut plus = x.clone();
            plus.set(0, i, x.get(0, i) + eps);
            let mut minus = x.clone();
            minus.set(0, i, x.get(0, i) - eps);
            let mut r2 = Relu::new();
            let loss =
                |m: &Matrix| -> f64 { m.as_slice().iter().zip(&w).map(|(a, b)| a * b).sum() };
            let fd = (loss(&r2.forward(&plus)) - loss(&r2.forward(&minus))) / (2.0 * eps);
            assert!((analytic.get(0, i) - fd).abs() < 1e-5, "dim {i}");
        }
    }
}
