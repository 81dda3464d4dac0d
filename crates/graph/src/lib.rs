//! # rbnn-graph
//!
//! Op-graph executor for deployed binarized networks: lowers a
//! [`BinaryNetwork`](rbnn_binary::BinaryNetwork) (or a trained `rbnn-nn`
//! classifier) into an explicit op graph, fuses each
//! binarize→XNOR-popcount→threshold→sign chain into a single packed-word
//! kernel, plans buffer reuse from exact tensor lifetimes, and compiles the
//! result into a static [`ExecPlan`] that serving workers replay with zero
//! per-request planning or allocation.
//!
//! The pipeline has four stages, each independently testable:
//!
//! 1. **Lowering** ([`lower`] / [`lower_sequential`]) — the model becomes an
//!    explicit [`OpGraph`] of primitive ops (`PackInput`, `XnorPopcount`,
//!    `Threshold`, `SignPack`, `Affine`) over typed values, exactly the
//!    stages the single-sample `BinaryNetwork::logits` walk computes.
//! 2. **Fusion** ([`fuse`]) — adjacent `XnorPopcount → Threshold → SignPack`
//!    runs collapse into one [`FusedOp::FusedHidden`] and the final
//!    `XnorPopcount → Affine` into [`FusedOp::FusedLogits`]; after fusion the
//!    only materialized values are bit-packed activation matrices. This is
//!    the software analogue of the paper's in-memory datapath: one pass over
//!    packed words, no intermediate count/flag tensors written back.
//! 3. **Lifetime planning** ([`plan_arena`]) — every surviving buffer gets a
//!    `[first-def, last-use]` interval and a best-fit offset in a single
//!    coalescing word arena, so buffers with disjoint lifetimes share
//!    storage and peak plan memory never exceeds naive per-op allocation.
//! 4. **Replay** ([`ExecPlan::replay_rows`]) — a compiled `(model,
//!    max_batch)` plan streams packed words through the runtime-dispatched
//!    `rbnn-tensor` kernels into caller-provided buffers. The replay path is
//!    a zero-alloc zone enforced by `analysis.toml` (RA0005).
//!
//! The plan is the workspace's only batched inference path: serve workers
//! and the RRAM fabric replay it per batch, and offline callers evaluate
//! whole feature matrices through the one-shot [`logits_batch`] /
//! [`classify_batch`] / [`accuracy`] helpers, which compile a plan and
//! replay it in chunks.
//!
//! Bitwise parity with the single-sample scalar oracle
//! (`BinaryNetwork::logits`) is by construction — fusion changes loop order
//! and materialization, never arithmetic — and is locked by the
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
mod fuse;
mod graph;
mod plan;

pub use batch::{accuracy, classify_batch, logits_batch, logits_rows};
pub use exec::{pack_rows, threshold_pack_row, ExecPlan, PlanBuffers, Region, Step};
pub use fuse::{fuse, FusedGraph, FusedOp, FusedStep};
pub use graph::{lower, lower_sequential, Node, Op, OpGraph, ValueInfo, ValueKind};
pub use plan::{plan_arena, ArenaPlan, BufferRequest};
