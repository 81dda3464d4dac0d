//! # rbnn-graph
//!
//! Static execution plans for deployed binarized networks: compiles a
//! [`BinaryNetwork`](rbnn_binary::BinaryNetwork) straight from its layer
//! chain into an [`ExecPlan`] that serving workers replay with zero
//! per-request planning or allocation.
//!
//! A plan has two stages:
//!
//! 1. **Compile** ([`ExecPlan::compile`]) — one walk of `layers()` emits a
//!    [`Step::Pack`] of the float input, one [`Step::FusedHidden`]
//!    (XNOR-popcount → folded threshold → sign-pack, one packed-word
//!    kernel, no materialized counts) per hidden layer, and a final
//!    [`Step::FusedLogits`] (XNOR-popcount → affine). The only
//!    materialized values are bit-packed activation matrices — the
//!    software analogue of the paper's in-memory datapath, where arrays
//!    sense, thresholds fire in the periphery and packed words flow to the
//!    next array group. Exactly two of those matrices are live at any
//!    step, so they alternate between two arena slots: even buffers at
//!    offset 0, odd buffers right after the widest even one.
//! 2. **Replay** ([`ExecPlan::replay_rows`]) — a compiled `(model,
//!    max_batch)` plan streams packed words through the runtime-dispatched
//!    `rbnn-tensor` kernels into caller-provided buffers. `replay_rows`
//!    packs float rows into the plan's input region ([`ExecPlan::input`])
//!    and calls [`ExecPlan::replay_packed`], the fused steps alone, which a
//!    caller holding rows already packed (a serve worker) calls directly.
//!    The replay path is a zero-alloc zone enforced by `analysis.toml`
//!    (RA0005).
//!
//! The plan is the workspace's only batched inference path: serve workers
//! and the RRAM fabric replay it per batch, and offline callers evaluate
//! whole feature matrices through the one-shot [`logits_batch`] /
//! [`classify_batch`] / [`accuracy`] helpers, which compile a plan and
//! replay it in chunks.
//!
//! Bitwise parity with the single-sample scalar oracle
//! (`BinaryNetwork::logits`) is by construction — the fused kernels change
//! loop order and materialization, never arithmetic — and is locked by the
//! conformance oracle's plan path (`plan_bitwise`), which replays every
//! generated model through an `ExecPlan` and requires bit-for-bit equality
//! with the oracle.
//!
//! ```
//! use rbnn_binary::BinaryNetwork;
//! use rbnn_graph::ExecPlan;
//! # use rbnn_tensor::BitMatrix;
//! # use rbnn_binary::BinaryDense;
//! # let w = BitMatrix::from_signs(&[1.0, -1.0, 1.0, 1.0, 1.0, 1.0], 2, 3);
//! # let net = BinaryNetwork::new(vec![BinaryDense::new(w, vec![1.0, 1.0], vec![0.0, 0.0])]);
//!
//! let plan = ExecPlan::compile(&net, 8);
//! let mut buffers = plan.buffers();
//! let rows = [[1.0_f32, -1.0, 1.0]];
//! let row_refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
//! let mut logits = vec![0.0; plan.out_features()];
//! plan.replay_rows(&row_refs, &mut buffers, &mut logits);
//! assert_eq!(logits, net.logits(&rows[0]));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod exec;

pub use batch::{accuracy, classify_batch, logits_batch, logits_rows};
pub use exec::{pack_rows, threshold_pack_row, ExecPlan, PlanBuffers, Region, Step};
