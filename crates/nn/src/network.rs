//! Sequential network container.

use crate::layer::Layer;
use crate::matrix::Matrix;

/// Rows per tile of [`Network::infer_into`]: small enough that a tile's
/// activations stay in L2 at width 128 (64 rows x 518 features is 265 KB)
/// instead of streaming whole-batch buffers through memory.
const ROW_TILE: usize = 64;

/// A sequential stack of layers with flat parameter/gradient access.
///
/// Flat vectors are the currency of the A3C parameter store: workers pull
/// `param_vector()`-shaped snapshots and push `grad_vector()`-shaped
/// updates.
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
}

impl Network {
    /// Builds a network from layers. Empty networks are identities.
    #[must_use]
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Network {
        Network { layers }
    }

    /// Validates that the layer chain is consistent for `input_width`,
    /// returning the final output width. Panics (inside a layer) on
    /// mismatch — call this once at construction time in debug paths.
    #[must_use]
    pub fn check_widths(&self, input_width: usize) -> usize {
        self.layers.iter().fold(input_width, |w, layer| layer.output_width(w))
    }

    /// Training forward pass over a batch.
    ///
    /// Thin allocating wrapper over [`Network::forward_into`]; both paths
    /// run the same layer kernels, so their outputs are bit-identical.
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        let mut scratch = ForwardScratch::default();
        self.forward_into(input, &mut scratch);
        scratch.out
    }

    /// Training forward pass into caller-owned scratch, reusing its
    /// allocations; every layer records what [`Network::backward`] needs.
    /// The returned reference borrows the scratch's output buffer.
    /// Decision paths that never backprop use [`Network::infer_into`].
    pub fn forward_into<'s>(
        &mut self,
        input: &Matrix,
        scratch: &'s mut ForwardScratch,
    ) -> &'s Matrix {
        let ForwardScratch { out, spare, .. } = scratch;
        match self.layers.split_first_mut() {
            None => out.copy_from(input),
            Some((first, rest)) => {
                first.forward_into(input, out);
                for layer in rest {
                    layer.forward_into(out, spare);
                    std::mem::swap(out, spare);
                }
            }
        }
        &scratch.out
    }

    /// Stateless forward pass: bit-identical to [`Network::forward_into`],
    /// but it needs only `&self`, caches nothing for backprop and copies
    /// nothing up front, so one network can serve many threads by
    /// reference.
    ///
    /// The batch runs through every layer one tile of `ROW_TILE` rows at a
    /// time (rows never mix, so tiling cannot change a result). The first
    /// layer reads the tile straight from `input`; each later activation
    /// layer is applied in place on the preceding layer's output. Once the
    /// scratch has grown to the widest tile, repeated calls allocate
    /// nothing.
    pub fn infer_into<'s>(&self, input: &Matrix, scratch: &'s mut ForwardScratch) -> &'s Matrix {
        let (rows, in_w) = input.shape();
        let (out_w, max_w) = self.layers.iter().fold((in_w, in_w), |(w, widest), layer| {
            let next = layer.output_width(w);
            (next, widest.max(next))
        });
        let ForwardScratch { out, tile, spare_tile, .. } = scratch;
        out.reshape_for_overwrite(rows, out_w);
        let tile_len = ROW_TILE.min(rows) * max_w;
        for buf in [&mut *tile, &mut *spare_tile] {
            if buf.len() < tile_len {
                buf.resize(tile_len, 0.0);
            }
        }
        for r0 in (0..rows).step_by(ROW_TILE) {
            let n = ROW_TILE.min(rows - r0);
            let x = &input.as_slice()[r0 * in_w..(r0 + n) * in_w];
            let mut width = in_w;
            // False while the activations are still the input rows.
            let mut staged = false;
            for layer in &self.layers {
                if staged && layer.infer_in_place(&mut tile[..n * width]) {
                    continue;
                }
                let next = layer.output_width(width);
                let src = if staged { &tile[..n * width] } else { x };
                layer.infer_rows(src, &mut spare_tile[..n * next]);
                std::mem::swap(tile, spare_tile);
                staged = true;
                width = next;
            }
            let y = if staged { &tile[..n * width] } else { x };
            out.as_mut_slice()[r0 * out_w..(r0 + n) * out_w].copy_from_slice(y);
        }
        &scratch.out
    }

    /// Backward pass from the loss gradient at the output; returns the
    /// gradient at the input. Parameter gradients accumulate in the layers.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut current = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            current = layer.backward(&current);
        }
        current
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(|l| l.param_count()).sum()
    }

    /// All parameters, concatenated in layer order.
    #[must_use]
    pub fn param_vector(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.param_count());
        self.param_vector_into(&mut flat);
        flat
    }

    /// Writes all parameters, concatenated in layer order, into `out`
    /// (cleared first), reusing its allocation. The optimizer's pull path.
    pub fn param_vector_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for layer in &self.layers {
            out.extend(layer.params());
        }
    }

    /// Overwrites all parameters from a flat vector.
    /// Panics if `flat` is shorter than [`Network::param_count`].
    pub fn set_params(&mut self, flat: &[f64]) {
        let mut offset = 0;
        for layer in &mut self.layers {
            offset += layer.set_params(&flat[offset..]);
        }
        assert_eq!(offset, self.param_count(), "parameter vector length mismatch");
    }

    /// All accumulated gradients, concatenated in layer order.
    #[must_use]
    pub fn grad_vector(&self) -> Vec<f64> {
        let mut flat = Vec::with_capacity(self.param_count());
        self.grad_vector_into(&mut flat);
        flat
    }

    /// Writes all accumulated gradients, concatenated in layer order, into
    /// `out` (cleared first), reusing its allocation. The optimizer's push
    /// path.
    pub fn grad_vector_into(&self, out: &mut Vec<f64>) {
        out.clear();
        for layer in &self.layers {
            out.extend(layer.grads());
        }
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Number of layers.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Layer names in order, for debugging.
    #[must_use]
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

/// Reusable scratch for [`Network::forward_into`] and
/// [`Network::infer_into`].
///
/// After a pass [`ForwardScratch::output`] is the network output. The
/// training pass ping-pongs whole-batch activations between two matrices;
/// the inference pass ping-pongs one row tile between two flat buffers. One
/// scratch serves one network at a time but may be shared across networks
/// of any widths — the buffers reshape (and grow monotonically) as needed.
#[derive(Clone, Debug, Default)]
pub struct ForwardScratch {
    out: Matrix,
    spare: Matrix,
    tile: Vec<f64>,
    spare_tile: Vec<f64>,
}

impl ForwardScratch {
    /// A fresh scratch with empty buffers.
    #[must_use]
    pub fn new() -> ForwardScratch {
        ForwardScratch::default()
    }

    /// The output of the most recent forward or inference pass.
    #[must_use]
    pub fn output(&self) -> &Matrix {
        &self.out
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("layers", &self.layer_names())
            .field("params", &self.param_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv::{Conv1d, ConvBranch};
    use crate::dense::Dense;
    use crate::layer::Relu;

    fn mlp() -> Network {
        Network::new(vec![
            Box::new(Dense::new(3, 5, 1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, 2)),
        ])
    }

    #[test]
    fn forward_shapes() {
        let mut net = mlp();
        let x = Matrix::from_rows(vec![vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]]);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (2, 2));
        assert_eq!(net.check_widths(3), 2);
    }

    #[test]
    fn empty_network_is_identity() {
        let mut net = Network::new(vec![]);
        let x = Matrix::row_vector(&[1.0, 2.0]);
        assert_eq!(net.forward(&x), x);
        assert_eq!(net.backward(&x), x);
        assert_eq!(net.param_count(), 0);
        assert_eq!(net.check_widths(2), 2);
    }

    #[test]
    fn param_vector_round_trip() {
        let net = mlp();
        let flat = net.param_vector();
        assert_eq!(flat.len(), net.param_count());
        let mut net2 = Network::new(vec![
            Box::new(Dense::new(3, 5, 77)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, 78)),
        ]);
        assert_ne!(net2.param_vector(), flat);
        net2.set_params(&flat);
        assert_eq!(net2.param_vector(), flat);
    }

    #[test]
    fn identical_params_give_identical_outputs() {
        let mut a = mlp();
        let mut b = Network::new(vec![
            Box::new(Dense::new(3, 5, 50)),
            Box::new(Relu::new()),
            Box::new(Dense::new(5, 2, 51)),
        ]);
        b.set_params(&a.param_vector());
        let x = Matrix::row_vector(&[0.5, -1.0, 2.0]);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn grads_accumulate_and_zero() {
        let mut net = mlp();
        let x = Matrix::row_vector(&[1.0, -1.0, 0.5]);
        let y = net.forward(&x);
        net.backward(&y);
        let g1 = net.grad_vector();
        assert!(g1.iter().any(|&g| g != 0.0));
        let _ = net.forward(&x);
        net.backward(&y);
        let g2 = net.grad_vector();
        // Accumulation doubles the gradient for identical passes.
        for (a, b) in g1.iter().zip(&g2) {
            assert!((2.0 * a - b).abs() < 1e-9);
        }
        net.zero_grads();
        assert!(net.grad_vector().iter().all(|&g| g == 0.0));
    }

    #[test]
    fn end_to_end_finite_difference() {
        // Full-network gradient check with conv branch + dense trunk:
        // exactly the paper's topology in miniature.
        let conv = Conv1d::new(1, 6, 2, 3, 1, 9);
        let mut net = Network::new(vec![
            Box::new(ConvBranch::new(conv, 2)),
            Box::new(Relu::new()),
            Box::new(Dense::new(2 * 4 + 2, 4, 10)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 3, 11)),
        ]);
        let x = Matrix::row_vector(&[0.2, -0.3, 0.5, 0.1, -0.6, 0.4, 1.0, -0.5]);
        assert_eq!(net.check_widths(8), 3);

        let y = net.forward(&x);
        net.backward(&y); // L = 0.5||y||^2
        let analytic = net.grad_vector();

        let eps = 1e-6;
        let base = net.param_vector();
        let loss_at = |net: &mut Network, params: &[f64], x: &Matrix| -> f64 {
            net.set_params(params);
            let y = net.forward(x);
            0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>()
        };
        // Check a spread of parameters (every 7th) to keep the test fast.
        for i in (0..base.len()).step_by(7) {
            let mut plus = base.clone();
            plus[i] += eps;
            let mut minus = base.clone();
            minus[i] -= eps;
            let fd = (loss_at(&mut net, &plus, &x) - loss_at(&mut net, &minus, &x)) / (2.0 * eps);
            assert!(
                (analytic[i] - fd).abs() < 1e-5,
                "param {i}: analytic {} vs fd {fd}",
                analytic[i]
            );
        }
    }

    #[test]
    fn gradient_descent_reduces_loss() {
        // Train the MLP to map a fixed input to a fixed target; loss must
        // drop monotonically-ish under plain SGD.
        let mut net = mlp();
        let x = Matrix::row_vector(&[0.5, -0.2, 0.8]);
        let target = [1.0, -1.0];
        let loss_of = |y: &Matrix| -> f64 {
            y.as_slice().iter().zip(&target).map(|(a, b)| 0.5 * (a - b) * (a - b)).sum()
        };
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..200 {
            let y = net.forward(&x);
            last = loss_of(&y);
            first.get_or_insert(last);
            let grad: Vec<f64> = y.as_slice().iter().zip(&target).map(|(a, b)| a - b).collect();
            net.zero_grads();
            net.backward(&Matrix::row_vector(&grad));
            let g = net.grad_vector();
            let mut p = net.param_vector();
            for (pi, gi) in p.iter_mut().zip(&g) {
                *pi -= 0.05 * gi;
            }
            net.set_params(&p);
        }
        assert!(last < 0.01 * first.unwrap(), "loss {last} from {:?}", first);
    }

    #[test]
    fn forward_into_bit_identical_to_forward() {
        // The paper's conv-branch topology in miniature: every layer kind
        // exercises its forward_into override through a reused scratch.
        let conv = Conv1d::new(1, 6, 2, 3, 1, 9);
        let mut net = Network::new(vec![
            Box::new(ConvBranch::new(conv, 2)),
            Box::new(Relu::new()),
            Box::new(Dense::new(2 * 4 + 2, 4, 10)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 3, 11)),
        ]);
        let mut scratch = ForwardScratch::new();
        for trial in 0..3 {
            let vals: Vec<f64> =
                (0..8).map(|i| f64::from(i - 3) * 0.3 + f64::from(trial)).collect();
            let x = Matrix::from_rows(vec![vals.clone(), vals.iter().map(|v| -v).collect()]);
            let owned = net.forward(&x);
            let into = net.forward_into(&x, &mut scratch);
            assert_eq!(into, &owned, "trial {trial}");
            assert_eq!(scratch.output(), &owned);
        }
    }

    /// The paper's actor topology at small sizes: a conv branch over
    /// `channels x window` history features plus `extras` pass-through
    /// features, ReLU, a `width`-wide hidden layer, ReLU, `actions` logits.
    struct ActorShape {
        channels: usize,
        window: usize,
        width: usize,
        kernel: usize,
        stride: usize,
        extras: usize,
        actions: usize,
    }

    fn actor_like(s: &ActorShape, seed: u64) -> Network {
        let conv = Conv1d::new(s.channels, s.window, s.width, s.kernel, s.stride, seed);
        let hidden_in = conv.out_width() + s.extras;
        let mut net = Network::new(vec![
            Box::new(ConvBranch::new(conv, s.extras)),
            Box::new(Relu::new()),
            Box::new(Dense::new(hidden_in, s.width, seed ^ 1)),
            Box::new(Relu::new()),
            Box::new(Dense::new(s.width, s.actions, seed ^ 2)),
        ]);
        // Nonzero biases, with exact zeros among them, so bias-after-sum
        // ordering and signed zeros both matter.
        let mut flat = net.param_vector();
        let noise = crate::matrix::filled(1, flat.len(), seed ^ 3);
        for (p, n) in flat.iter_mut().zip(noise.as_slice()) {
            *p += 0.25 * n;
        }
        net.set_params(&flat);
        net
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn infer_into_bit_identical_to_forward_into(
            shape in (1usize..4, 1usize..10, 1usize..41, 1usize..5),
            stride in 1usize..4,
            extras in 0usize..7,
            actions in 1usize..6,
            rows in 1usize..(2 * ROW_TILE + 8),
        ) {
            let (channels, extra_len, width, kernel) = shape;
            let seed = (rows * 131 + width * 7 + extras) as u64;
            let window = kernel + extra_len - 1;
            let s = ActorShape { channels, window, width, kernel, stride, extras, actions };
            let mut net = actor_like(&s, seed);
            let x = crate::matrix::filled(rows, channels * window + extras, seed ^ 9);
            let mut train = ForwardScratch::new();
            let mut infer = ForwardScratch::new();
            let expect = net.forward_into(&x, &mut train).clone();
            let got = net.infer_into(&x, &mut infer);
            proptest::prop_assert!(crate::matrix::same_bits(got, &expect));
            // A reused, larger scratch still gives the same bits.
            let again = net.infer_into(&crate::matrix::filled(1, x.cols(), 1), &mut infer).clone();
            let single = net.forward(&crate::matrix::filled(1, x.cols(), 1));
            proptest::prop_assert!(crate::matrix::same_bits(&again, &single));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(32))]

        #[test]
        fn batched_backward_equals_single_row_calls_from_nonzero_grads(
            shape in (1usize..3, 1usize..6, 1usize..37, 1usize..4),
            extras in 0usize..5,
            actions in 1usize..5,
            rows in 1usize..40,
            warm_rows in 1usize..6,
        ) {
            // One forward+backward over `rows` rows must leave the same
            // gradient bits as `rows` single-row forward+backward calls in
            // order, starting from the same nonzero gradients; each row's
            // input gradient must match too.
            let (channels, extra_len, width, kernel) = shape;
            let seed = (rows * 97 + width * 5 + extras) as u64;
            let window = kernel + extra_len - 1;
            let s = ActorShape { channels, window, width, kernel, stride: 1, extras, actions };
            let (mut batched, mut single) = (actor_like(&s, seed), actor_like(&s, seed));
            let in_w = channels * window + extras;
            let warm_x = crate::matrix::filled(warm_rows, in_w, seed ^ 11);
            let warm_g = crate::matrix::filled(warm_rows, actions, seed ^ 12);
            for net in [&mut batched, &mut single] {
                let _ = net.forward(&warm_x);
                let _ = net.backward(&warm_g);
            }
            let x = crate::matrix::filled(rows, in_w, seed ^ 13);
            let g = crate::matrix::filled(rows, actions, seed ^ 14);
            let _ = batched.forward(&x);
            let dx = batched.backward(&g);
            for r in 0..rows {
                let _ = single.forward(&Matrix::row_vector(x.row(r)));
                let dx_r = single.backward(&Matrix::row_vector(g.row(r)));
                proptest::prop_assert!(crate::matrix::same_bits(
                    &dx_r,
                    &Matrix::row_vector(dx.row(r))
                ));
            }
            let (gb, gs) = (batched.grad_vector(), single.grad_vector());
            proptest::prop_assert!(gb.iter().zip(&gs).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn infer_into_bit_identical_through_every_layer_kind() {
        // ReLU in place after the conv branch, after a dense layer and as
        // the last layer, an activation first (so it reads the input rows
        // directly), and the empty network.
        let conv = Conv1d::new(1, 6, 2, 3, 1, 9);
        let mut net = Network::new(vec![
            Box::new(Relu::new()),
            Box::new(ConvBranch::new(conv, 2)),
            Box::new(Relu::new()),
            Box::new(Dense::new(2 * 4 + 2, 4, 10)),
            Box::new(Relu::new()),
            Box::new(Dense::new(4, 3, 11)),
            Box::new(Relu::new()),
        ]);
        let x = crate::matrix::filled(3 * ROW_TILE + 1, 8, 5);
        let mut scratch = ForwardScratch::new();
        let got = net.infer_into(&x, &mut scratch).clone();
        assert!(crate::matrix::same_bits(&got, &net.forward(&x)));
        assert_eq!(scratch.output(), &got);
        let empty = Network::new(vec![]);
        assert_eq!(empty.infer_into(&x, &mut scratch), &x);
        let none = Matrix::zeros(0, 8);
        assert_eq!(net.infer_into(&none, &mut scratch).shape(), (0, 3));
    }

    #[test]
    fn network_is_shareable_across_threads() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<Network>();
    }

    #[test]
    fn param_and_grad_vector_into_match_owned() {
        let mut net = mlp();
        let x = Matrix::row_vector(&[1.0, -1.0, 0.5]);
        let y = net.forward(&x);
        net.backward(&y);
        let mut buf = vec![99.0; 3]; // dirty, wrong-length buffer
        net.param_vector_into(&mut buf);
        assert_eq!(buf, net.param_vector());
        net.grad_vector_into(&mut buf);
        assert_eq!(buf, net.grad_vector());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn check_widths_rejects_bad_chain() {
        let net = Network::new(vec![
            Box::new(Dense::new(3, 5, 1)),
            Box::new(Dense::new(6, 2, 2)), // 5 != 6
        ]);
        let _ = net.check_widths(3);
    }

    #[test]
    fn debug_format_lists_layers() {
        let net = mlp();
        let s = format!("{net:?}");
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
    }
}
