//! # rbnn-rram
//!
//! Behavioural simulator of the paper's hybrid CMOS / HfO₂ resistive-memory
//! substrate — the hardware half of the
//! [rram-bnn](https://arxiv.org/abs/2006.11595) reproduction:
//!
//! * [`RramCell`] / [`DeviceParams`] — log-normal LRS/HRS statistics with
//!   cycling-induced wear and weak-programming tail events;
//! * [`Pcsa`] — the precharge sense amplifier of Fig 3, plain and
//!   XNOR-augmented;
//! * [`Synapse2T2R`] — differential weight storage (+1 = LRS/HRS);
//! * [`RramArray`] — the 32×32 test-chip array of Fig 2 with decoders,
//!   per-column PCSAs and operation counters;
//! * [`endurance`] — the Fig 4 experiment: 1T1R vs 2T2R bit-error rate over
//!   hundreds of millions of cycles, Monte-Carlo and closed-form;
//! * [`DenseEngine`] / [`NetworkEngine`] — the Fig 5 architecture: tiled
//!   arrays + popcount logic executing whole binarized classifiers in
//!   memory;
//! * [`faults`] — i.i.d. weight bit-flip injection for accuracy-vs-BER
//!   sweeps (the ECC-less operation argument);
//! * [`energy`] — first-order energy comparison against digital int8/fp32
//!   implementations.
//!
//! Everything physical is Monte-Carlo over explicit, documented statistical
//! models; see README § Scale and substitutions for why this preserves the
//! paper's claims.
//!
//! ```
//! use rbnn_rram::{DeviceParams, Pcsa, Synapse2T2R};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let params = DeviceParams::hfo2_default();
//! let mut rng = StdRng::seed_from_u64(1);
//! let synapse = Synapse2T2R::new(true, &params, &mut rng);
//! let pcsa = Pcsa::ideal();
//! assert!(synapse.read(&pcsa, &params, &mut rng)); // reads back +1
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod array;
mod device;
pub mod endurance;
pub mod energy;
mod engine;
pub mod faults;
mod graph_exec;
mod pcsa;
pub mod stats;
mod synapse;
pub mod verify;

pub use array::{ArrayStats, RramArray};
pub use device::{DeviceParams, ResistiveState, RramCell};
pub use endurance::{EnduranceConfig, EndurancePoint};
pub use engine::{DenseEngine, EngineConfig, NetworkEngine};
pub use pcsa::{Pcsa, PcsaParams};
pub use synapse::Synapse2T2R;
pub use verify::{VerifyConfig, VerifyOutcome};
