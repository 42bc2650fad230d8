//! From-scratch neural networks for MiniCost's A3C actor and critic.
//!
//! The paper trains its actor and critic networks with TensorFlow/TFLearn
//! (§6.1: "128 filters, each of size 4 with stride 1 ... aggregated with
//! other inputs in a hidden layer that uses 128 neurons"). This crate
//! provides the equivalent building blocks in pure Rust:
//!
//! * [`Matrix`] — a small row-major `f64` matrix with the handful of BLAS-1/2
//!   kernels the layers need.
//! * Layers — [`Dense`], [`Conv1d`], [`ConvBranch`] (conv over the history
//!   window concatenated with pass-through scalar features, matching the
//!   paper's "aggregated with other inputs"), [`Relu`].
//! * [`Network`] — a sequential container with a training forward/backward
//!   pass, a stateless `&self` inference pass ([`Network::infer_into`],
//!   bit-identical to the training forward and shareable across threads),
//!   and flat parameter/gradient vectors (what the A3C parameter store
//!   shares).
//! * Optimizers — [`Sgd`] and [`Adam`], both operating on flat parameter
//!   vectors.
//! * Ops — softmax and the advantage-weighted policy-gradient loss with
//!   entropy bonus used by the actor.
//!
//! Backward passes are hand-written and verified against central finite
//! differences in the test suite.
//!
//! # Quick example
//!
//! ```
//! use nn::{Network, Dense, Relu, Sgd, Optimizer, Matrix};
//!
//! let mut net = Network::new(vec![
//!     Box::new(Dense::new(2, 8, 1)),
//!     Box::new(Relu::new()),
//!     Box::new(Dense::new(8, 1, 2)),
//! ]);
//! let x = Matrix::from_rows(vec![vec![0.5, -0.5]]);
//! let y = net.forward(&x);
//! assert_eq!(y.shape(), (1, 1));
//! let mut opt = Sgd::new(0.01);
//! net.backward(&y); // dL/dy = y for L = y^2 / 2
//! let grads = net.grad_vector();
//! let mut params = net.param_vector();
//! opt.step(&mut params, &grads);
//! net.set_params(&params);
//! ```

#![warn(missing_docs)]
// Library code must surface failures as values; tests may unwrap freely.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::panic, reason = "tests may panic")
)]
// Tests assert bit-exact float reproducibility on purpose.
#![cfg_attr(test, allow(clippy::float_cmp, reason = "bit-exact float asserts"))]

pub mod conv;
pub mod dense;
pub mod init;
pub mod layer;
pub mod matrix;
pub mod network;
pub mod ops;
pub mod optimizer;

pub use conv::{Conv1d, ConvBranch};
pub use dense::Dense;
pub use layer::{Layer, Relu};
pub use matrix::Matrix;
pub use network::{ForwardScratch, Network};
pub use ops::{policy_gradient_loss, softmax, PolicyGrad};
pub use optimizer::{clip_grad_norm, Adam, Optimizer, Sgd};
