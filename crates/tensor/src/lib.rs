//! # rbnn-tensor
//!
//! Minimal, dependency-light numerical foundation for the
//! [rram-bnn](https://arxiv.org/abs/2006.11595) reproduction:
//!
//! * [`Tensor`] — a contiguous, row-major, `f32` N-dimensional array with the
//!   small set of operations a from-scratch CNN training stack needs
//!   (elementwise maps, reductions, blocked matrix multiplication, `im2col`
//!   lowering for 1-D and 2-D convolutions).
//! * [`BitVec`] / [`BitMatrix`] — bit-packed ±1 vectors and matrices with the
//!   XNOR + popcount kernels that binarized neural networks execute
//!   (Eq. 3 of the paper: `y = sign(popcount(XNOR(w, x)) − b)`).
//! * [`par`] — a tiny scoped-thread parallel-for built on `crossbeam`, used to
//!   split batch work across cores without pulling in a full runtime.
//!
//! The crate is deliberately *not* a general array library: shapes are always
//! contiguous and row-major, broadcasting is limited to what the NN stack
//! uses, and every operation is implemented with plain loops so the numerical
//! behaviour is easy to audit against the paper's equations.
//!
//! ```
//! use rbnn_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b);
//! assert_eq!(c.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bits;
pub mod gemm;
mod im2col;
pub mod kernels;
mod matmul;
pub mod par;
mod scratch;
mod shape;
mod tensor;

pub use bits::{pack_signs_into, xnor_popcount, BitMatrix, BitVec, InterleavedRows, RowThresholds};
pub use im2col::{
    im2col1d, im2col1d_backward, im2col1d_batch, im2col1d_batch_backward, im2col2d,
    im2col2d_backward, im2col2d_batch, im2col2d_batch_backward, Conv1dGeom, Conv2dGeom,
};
pub use kernels::dispatch::{
    clear_forced_scalar, dispatch_report, forced_scalar, host_features, set_forced_scalar,
    CpuFeatures, DispatchReport,
};
pub use kernels::sign_bit;
pub use scratch::Scratch;
pub use shape::Shape;
pub use tensor::{argmax, Tensor};

/// Numerical tolerance used throughout the test-suites of this workspace.
pub const TEST_EPS: f32 = 1e-4;
