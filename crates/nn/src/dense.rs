//! Fully-connected layer.

use crate::init::glorot_uniform;
use crate::layer::Layer;
use crate::matrix::{matmul_rows, Matrix};

/// A dense (fully-connected) layer: `y = x W + b`.
///
/// `W` is `in_dim x out_dim`, `b` is `1 x out_dim`. Parameters flatten as
/// `[W row-major, b]`.
#[derive(Clone, Debug)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    weights: Matrix,
    bias: Vec<f64>,
    grad_weights: Matrix,
    grad_bias: Vec<f64>,
    last_input: Matrix,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform weights and zero biases,
    /// seeded by `seed`.
    #[must_use]
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Dense {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let w = glorot_uniform(in_dim, out_dim, in_dim * out_dim, seed);
        Dense {
            in_dim,
            out_dim,
            weights: Matrix::from_vec(in_dim, out_dim, w),
            bias: vec![0.0; out_dim],
            grad_weights: Matrix::zeros(in_dim, out_dim),
            grad_bias: vec![0.0; out_dim],
            last_input: Matrix::zeros(0, 0),
        }
    }

    /// Input width.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output width.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }
}

impl Layer for Dense {
    /// `x W + b` through the register-tiled product kernel, with the bias
    /// added after each element's full sum.
    fn infer_rows(&self, input: &[f64], out: &mut [f64]) {
        let w = self.weights.as_slice();
        matmul_rows(input, self.in_dim, w, self.out_dim, Some(&self.bias), out);
    }

    fn forward_into(&mut self, input: &Matrix, out: &mut Matrix) {
        assert_eq!(input.cols(), self.in_dim, "dense input width mismatch");
        self.last_input.copy_from(input);
        self.infer_into(input, out);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        assert_eq!(grad_output.cols(), self.out_dim, "dense grad width mismatch");
        assert_eq!(grad_output.rows(), self.last_input.rows(), "backward batch mismatch");
        // dW += x^T g and db += g, in place with rows in ascending order:
        // per element the same sum as one single-row call per row in turn.
        self.last_input.t_matmul_acc(grad_output, &mut self.grad_weights);
        for g in grad_output.as_slice().chunks_exact(self.out_dim) {
            for (gb, &v) in self.grad_bias.iter_mut().zip(g) {
                *gb += v;
            }
        }
        // dx = g W^T
        grad_output.matmul_t(&self.weights)
    }

    fn params(&self) -> Vec<f64> {
        let mut flat = self.weights.as_slice().to_vec();
        flat.extend_from_slice(&self.bias);
        flat
    }

    fn set_params(&mut self, flat: &[f64]) -> usize {
        let n = self.param_count();
        assert!(flat.len() >= n, "parameter buffer too short");
        let w_len = self.in_dim * self.out_dim;
        self.weights.as_mut_slice().copy_from_slice(&flat[..w_len]);
        self.bias.copy_from_slice(&flat[w_len..n]);
        n
    }

    fn grads(&self) -> Vec<f64> {
        let mut flat = self.grad_weights.as_slice().to_vec();
        flat.extend_from_slice(&self.grad_bias);
        flat
    }

    fn zero_grads(&mut self) {
        self.grad_weights.as_mut_slice().fill(0.0);
        self.grad_bias.fill(0.0);
    }

    fn param_count(&self) -> usize {
        self.in_dim * self.out_dim + self.out_dim
    }

    fn output_width(&self, input_width: usize) -> usize {
        assert_eq!(input_width, self.in_dim, "dense input width mismatch");
        self.out_dim
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_params(in_dim: usize, out_dim: usize, w: &[f64], b: &[f64]) -> Dense {
        let mut d = Dense::new(in_dim, out_dim, 0);
        let mut flat = w.to_vec();
        flat.extend_from_slice(b);
        d.set_params(&flat);
        d
    }

    #[test]
    fn forward_is_affine() {
        // W = [[1, 2], [3, 4]], b = [10, 20], x = [1, 1] -> [14, 26]
        let mut d = with_params(2, 2, &[1.0, 2.0, 3.0, 4.0], &[10.0, 20.0]);
        let y = d.forward(&Matrix::row_vector(&[1.0, 1.0]));
        assert_eq!(y.as_slice(), &[14.0, 26.0]);
    }

    #[test]
    fn forward_batch() {
        let mut d = with_params(2, 1, &[1.0, -1.0], &[0.5]);
        let x = Matrix::from_rows(vec![vec![1.0, 0.0], vec![0.0, 1.0]]);
        let y = d.forward(&x);
        assert_eq!(y.as_slice(), &[1.5, -0.5]);
    }

    #[test]
    fn param_round_trip() {
        let d = Dense::new(3, 4, 7);
        let flat = d.params();
        assert_eq!(flat.len(), d.param_count());
        let mut d2 = Dense::new(3, 4, 99);
        assert_ne!(d2.params(), flat);
        let consumed = d2.set_params(&flat);
        assert_eq!(consumed, flat.len());
        assert_eq!(d2.params(), flat);
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut d = with_params(1, 1, &[2.0], &[0.0]);
        let x = Matrix::row_vector(&[3.0]);
        let g = Matrix::row_vector(&[1.0]);
        let _ = d.forward(&x);
        let _ = d.backward(&g);
        let _ = d.forward(&x);
        let _ = d.backward(&g);
        // dW = x * g = 3.0, accumulated twice.
        assert_eq!(d.grads(), vec![6.0, 2.0]);
        d.zero_grads();
        assert_eq!(d.grads(), vec![0.0, 0.0]);
    }

    #[test]
    fn bias_gradient_adds_rows_in_order() {
        let mut d = with_params(1, 2, &[0.0, 0.0], &[0.0, 0.0]);
        let x = Matrix::from_rows(vec![vec![1.0], vec![0.0], vec![2.0]]);
        let _ = d.forward(&x);
        let g = Matrix::from_rows(vec![vec![1.0, 1e16], vec![2.0, 1.0], vec![3.0, -1e16]]);
        let _ = d.backward(&g);
        // (1e16 + 1.0) rounds back to 1e16, so only ascending row order
        // gives 0.0 for the second bias; dW skips the zero input row.
        assert_eq!(d.grads(), vec![7.0, -1e16, 6.0, 0.0]);
    }

    #[test]
    fn finite_difference_gradient_check() {
        // L = 0.5 * ||y||^2 with y = dense(x); dL/dy = y.
        let mut d = Dense::new(3, 2, 42);
        let x = Matrix::row_vector(&[0.3, -0.5, 0.9]);
        let y = d.forward(&x);
        let grad_in = d.backward(&y);
        let analytic_param_grads = d.grads();

        let eps = 1e-6;
        let loss = |dense: &mut Dense, x: &Matrix| -> f64 {
            let y = dense.forward(x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };

        // Parameter gradients.
        let base_params = d.params();
        for i in 0..base_params.len() {
            let mut plus = base_params.clone();
            plus[i] += eps;
            let mut minus = base_params.clone();
            minus[i] -= eps;
            let mut dp = d.clone();
            dp.set_params(&plus);
            let mut dm = d.clone();
            dm.set_params(&minus);
            let fd = (loss(&mut dp, &x) - loss(&mut dm, &x)) / (2.0 * eps);
            assert!(
                (analytic_param_grads[i] - fd).abs() < 1e-5,
                "param {i}: analytic {} vs fd {fd}",
                analytic_param_grads[i]
            );
        }

        // Input gradients.
        for i in 0..3 {
            let mut xp = x.clone();
            xp.set(0, i, x.get(0, i) + eps);
            let mut xm = x.clone();
            xm.set(0, i, x.get(0, i) - eps);
            let mut dc = d.clone();
            let fd = (loss(&mut dc, &xp) - loss(&mut dc, &xm)) / (2.0 * eps);
            assert!(
                (grad_in.get(0, i) - fd).abs() < 1e-5,
                "input {i}: analytic {} vs fd {fd}",
                grad_in.get(0, i)
            );
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn wrong_input_width_panics() {
        let mut d = Dense::new(2, 2, 1);
        let _ = d.forward(&Matrix::row_vector(&[1.0, 2.0, 3.0]));
    }

    proptest::proptest! {
        #[test]
        fn dense_bit_identical_to_scalar_affine(
            rows in 1usize..20, in_dim in 1usize..300, out_dim in 1usize..40, seed in 0u64..1000,
        ) {
            // The register-tiled kernel against `x W` by the scalar ikj loop
            // (ascending, zero inputs skipped), then `+ b`.
            let mut d = Dense::new(in_dim, out_dim, seed);
            let mut flat = d.params();
            let bias = crate::matrix::filled(1, out_dim, seed);
            flat[in_dim * out_dim..].copy_from_slice(bias.as_slice());
            d.set_params(&flat);
            let x = crate::matrix::filled(rows, in_dim, seed ^ 1);
            let mut expect = Matrix::zeros(rows, out_dim);
            for r in 0..rows {
                for p in 0..in_dim {
                    let a = x.get(r, p);
                    if a == 0.0 {
                        continue;
                    }
                    for j in 0..out_dim {
                        expect.set(r, j, expect.get(r, j) + a * d.weights.get(p, j));
                    }
                }
                for j in 0..out_dim {
                    expect.set(r, j, expect.get(r, j) + d.bias[j]);
                }
            }
            let mut out = Matrix::default();
            d.infer_into(&x, &mut out);
            proptest::prop_assert!(crate::matrix::same_bits(&out, &expect));
        }
    }

    #[test]
    fn output_width_checks_input() {
        let d = Dense::new(5, 3, 1);
        assert_eq!(d.output_width(5), 3);
        assert_eq!(d.name(), "dense");
    }
}
