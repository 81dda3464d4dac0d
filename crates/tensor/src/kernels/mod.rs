//! Runtime-dispatched SIMD kernels with scalar parity oracles.
//!
//! Layout:
//!
//! * [`dispatch`] — CPU-feature detection (`is_x86_feature_detected!`),
//!   the process-global forced-scalar override, and the per-family kernel
//!   selectors + [`dispatch::DispatchReport`] for bench envelopes.
//! * [`popcount`](self) — XNOR-popcount word kernels and the 8-row
//!   interleaved rows kernels, including the fused popcount → threshold →
//!   pack hidden-layer kernel (scalar / AVX2 Harley-Seal / AVX-512
//!   VPOPCNTDQ); integer arithmetic, bitwise equal across all paths
//!   unconditionally.
//! * [`pack`](self) — the canonical binarization predicate [`sign_bit`]
//!   and sign-packing kernels (scalar / AVX movemask / AVX-512 mask
//!   compare); bitwise equal across all paths including NaN and `-0.0`
//!   inputs.
//!
//! The f32 GEMM micro-kernels live in [`crate::gemm`] next to the packing
//! and tiling they serve, but select through [`dispatch::gemm_kernel`] the
//! same way. The invariant all of this enforces: **numeric results are
//! host-invariant; the instruction set only changes speed** (see
//! ARCHITECTURE.md § "Kernel dispatch").

pub mod dispatch;
pub(crate) mod pack;
pub(crate) mod popcount;

pub use pack::sign_bit;
