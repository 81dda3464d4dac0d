//! Test-and-bench engine-fault injection: the chaos hook.
//!
//! The resilience contracts of the worker pool — a panicking replica
//! degrades one batch and is respawned by the supervisor, a stalled
//! replica slows one batch, a transient error fails one batch without
//! retiring anyone — are only worth having if a harness can exercise
//! them. This module is the hook: arming it makes engine dispatches
//! (process-wide, across all workers) misbehave inside the dispatch that
//! [`serve_batch`](crate::Server) guards, exactly where a real engine
//! defect would surface.
//!
//! The one arming mode is [`arm_chaos`] with a seeded [`ChaosPlan`]:
//! every dispatch draws a pseudo-random event (panic, bounded stall,
//! transient error, or a one-shot fabric-drift episode) from a splitmix64
//! stream keyed on the plan seed and a process-wide dispatch ordinal.
//! Deterministic for a given seed and dispatch interleaving; statistically
//! deterministic (event rates) regardless of interleaving. Targeted
//! regression tests that need "exactly N faults, right now" arm
//! [`ChaosPlan::panics`], which panics the first N dispatches.
//!
//! Hidden from docs; not part of the public serving API. Production code
//! never arms it, so the steady-state cost is one acquire load per batch.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// A seeded fault-injection schedule for sustained chaos runs.
///
/// Rates are per-mille of engine dispatches and mutually exclusive per
/// dispatch: each dispatch draws one uniform value and falls into at
/// most one event bucket, so `panic_per_mille + stall_per_mille +
/// transient_per_mille` must stay ≤ 1000.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    /// Seed of the splitmix64 event stream.
    pub seed: u64,
    /// The first `panic_first` dispatches after arming panic — exactly
    /// that many, process-wide, before any drawn event applies.
    pub panic_first: u64,
    /// Per-mille of dispatches that panic inside the engine.
    pub panic_per_mille: u16,
    /// Per-mille of dispatches stalled by a bounded sleep (slow replica).
    pub stall_per_mille: u16,
    /// Upper bound of an injected stall; actual stalls are drawn in
    /// `[max_stall/4, max_stall]`.
    pub max_stall: Duration,
    /// Per-mille of dispatches that fail with a transient error (the
    /// replica itself stays healthy).
    pub transient_per_mille: u16,
    /// One-shot fabric-drift episode: at this dispatch ordinal (counted
    /// from arming), the dispatching RRAM replica is aged by
    /// [`drift_cycles`](Self::drift_cycles) SET/RESET cycles before
    /// evaluating. Software replicas ignore drift.
    pub drift_at_dispatch: Option<u64>,
    /// Endurance cycles applied by the drift episode. The default (3×10⁹)
    /// puts the test-chip fabric at ≈6.5% marginal cells after the
    /// post-drift weight refresh — past the serving layer's default 5%
    /// degrade threshold, so a drifted replica visibly falls back to
    /// software evaluation.
    pub drift_cycles: u64,
}

impl Default for ChaosPlan {
    fn default() -> Self {
        Self {
            seed: 0xC4A0_5EED,
            panic_first: 0,
            panic_per_mille: 0,
            stall_per_mille: 0,
            max_stall: Duration::from_millis(2),
            transient_per_mille: 0,
            drift_at_dispatch: None,
            drift_cycles: 3_000_000_000,
        }
    }
}

impl ChaosPlan {
    /// A plan whose first `n` dispatches panic and which is quiet after.
    pub fn panics(n: u64) -> Self {
        Self {
            panic_first: n,
            ..Self::default()
        }
    }
}

/// One drawn injection event, executed by the worker's guarded dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChaosEvent {
    /// Panic inside the engine dispatch (contained by `catch_unwind`).
    Panic,
    /// Sleep this long before evaluating (slow replica).
    Stall(Duration),
    /// Fail the batch with [`ServeError::Transient`](crate::ServeError)
    /// without retiring the replica.
    Transient,
    /// Age the dispatching RRAM fabric (marginal-cell fraction grows).
    Drift { cycles: u64 },
}

static PLAN_ARMED: AtomicBool = AtomicBool::new(false);
static DISPATCHES: AtomicU64 = AtomicU64::new(0);
static PLAN: Mutex<Option<ChaosPlan>> = Mutex::new(None);

fn lock_plan() -> std::sync::MutexGuard<'static, Option<ChaosPlan>> {
    PLAN.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms a [`ChaosPlan`] (process-wide) and resets the dispatch ordinal.
pub fn arm_chaos(plan: ChaosPlan) {
    debug_assert!(
        plan.panic_per_mille as u32 + plan.stall_per_mille as u32 + plan.transient_per_mille as u32
            <= 1000,
        "chaos event rates must sum to <= 1000 per mille"
    );
    let mut slot = lock_plan();
    // Relaxed: the ordinal reset is published by the Release store below.
    DISPATCHES.store(0, Ordering::Relaxed);
    *slot = Some(plan);
    // Release pairs with the Acquire in `next_event`: a worker that sees
    // the flag set also sees the plan and the reset ordinal.
    PLAN_ARMED.store(true, Ordering::Release);
}

/// Disarms any armed [`ChaosPlan`].
pub fn disarm_chaos() {
    // Release: mirrors `arm_chaos`; pairs with the Acquire in `next_event`.
    PLAN_ARMED.store(false, Ordering::Release);
    *lock_plan() = None;
}

/// Total engine dispatches counted since the last [`arm_chaos`].
pub fn dispatches_since_armed() -> u64 {
    // Relaxed: an advisory progress counter read by harnesses after the
    // fact; exactness against in-flight dispatches is not required.
    DISPATCHES.load(Ordering::Relaxed)
}

/// splitmix64 finalizer over (seed, ordinal) — a stateless, seekable
/// pseudo-random stream: event k is a pure function of the plan seed and
/// the dispatch ordinal.
fn mix(seed: u64, ordinal: u64) -> u64 {
    let mut z = seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws the injection event for one engine dispatch, or `None` when the
/// dispatch should proceed untouched. Called from inside the worker's
/// `catch_unwind` guard.
pub(crate) fn next_event() -> Option<ChaosEvent> {
    // Acquire pairs with the Release in `arm_chaos`.
    if !PLAN_ARMED.load(Ordering::Acquire) {
        return None;
    }
    // Relaxed: the ordinal only needs to be unique per dispatch; the
    // armed-flag Acquire above already ordered it against the reset.
    let ordinal = DISPATCHES.fetch_add(1, Ordering::Relaxed);
    let guard = lock_plan();
    let plan = guard.as_ref()?;
    if ordinal < plan.panic_first {
        return Some(ChaosEvent::Panic);
    }
    if plan.drift_at_dispatch == Some(ordinal) {
        return Some(ChaosEvent::Drift {
            cycles: plan.drift_cycles,
        });
    }
    let draw = mix(plan.seed, ordinal);
    let bucket = (draw % 1000) as u16;
    if bucket < plan.panic_per_mille {
        return Some(ChaosEvent::Panic);
    }
    if bucket < plan.panic_per_mille + plan.stall_per_mille {
        // Stall in [max/4, max], quantized to quarters of the bound.
        let quarters = 1 + ((draw >> 32) % 4) as u32;
        return Some(ChaosEvent::Stall(plan.max_stall / 4 * quarters));
    }
    if bucket < plan.panic_per_mille + plan.stall_per_mille + plan.transient_per_mille {
        return Some(ChaosEvent::Transient);
    }
    None
}

/// Fires the injected panic. Lives here so the `panic!` token stays out
/// of the lint-enforced panic-freedom zones that call into this module.
pub(crate) fn injected_panic() -> ! {
    panic!("injected engine fault");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_stream_is_seed_deterministic_and_rate_accurate() {
        let plan = ChaosPlan {
            seed: 42,
            panic_per_mille: 10,
            stall_per_mille: 20,
            transient_per_mille: 30,
            ..Default::default()
        };
        let draw = |ordinal| {
            let d = mix(plan.seed, ordinal);
            (d % 1000) as u16
        };
        // Same seed + ordinal → same event, always.
        assert_eq!(draw(7), draw(7));
        // Rates land near the per-mille targets over a long stream.
        let n = 100_000u64;
        let mut panics = 0;
        let mut stalls = 0;
        let mut transients = 0;
        for i in 0..n {
            let b = draw(i);
            if b < 10 {
                panics += 1;
            } else if b < 30 {
                stalls += 1;
            } else if b < 60 {
                transients += 1;
            }
        }
        let near =
            |got: u64, want: u64| (got as f64 - want as f64).abs() < (want as f64) * 0.25 + 10.0;
        assert!(near(panics, n * 10 / 1000), "panics {panics}");
        assert!(near(stalls, n * 20 / 1000), "stalls {stalls}");
        assert!(near(transients, n * 30 / 1000), "transients {transients}");
    }

    #[test]
    fn stall_durations_stay_bounded() {
        let max = Duration::from_millis(2);
        for draw in [0u64, u64::MAX, 0x1234_5678_9ABC_DEF0] {
            let quarters = 1 + ((draw >> 32) % 4) as u32;
            let stall = max / 4 * quarters;
            assert!(stall >= max / 4 && stall <= max);
        }
    }
}
