//! Runtime CPU-feature detection and kernel selection.
//!
//! Every SIMD kernel in this crate is chosen **at runtime** from the
//! features the host actually reports (via `is_x86_feature_detected!`),
//! never from compile-time `cfg(target_feature)`. The repo deliberately
//! builds with `target-cpu=native` locally and `x86-64-v2` in CI, so any
//! compile-time feature branch silently forks the numerics between hosts —
//! exactly the bug this module exists to make unrepresentable (see
//! ARCHITECTURE.md § "Kernel dispatch": numeric results are host-invariant;
//! the instruction set only changes speed).
//!
//! The scalar kernels are the always-available fallback and the parity
//! oracle: [`set_forced_scalar`] (or the `RBNN_KERNELS=scalar` environment
//! variable, read once) forces every dispatched entry point onto them, and
//! the conformance gate requires bit-for-bit agreement between the two
//! modes.

use std::sync::atomic::{AtomicU8, Ordering};

/// CPU features relevant to this crate's kernels, as detected at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// Baseline x86-64 SIMD (always true on x86_64).
    pub sse2: bool,
    /// 256-bit float ops (`vcmpps` + `vmovmskps` sign-packing).
    pub avx: bool,
    /// 256-bit integer ops (Harley-Seal popcount).
    pub avx2: bool,
    /// Fused multiply-add (`vfmadd231ps` GEMM micro-kernel).
    pub fma: bool,
    /// AVX-512 foundation (512-bit registers and masks; mask-register
    /// sign-packing).
    pub avx512f: bool,
    /// Hardware 64-bit lane popcount (`vpopcntq`).
    pub avx512_vpopcntdq: bool,
}

impl CpuFeatures {
    /// Names of the detected features, in a fixed order.
    pub fn names(&self) -> Vec<&'static str> {
        let mut out = Vec::new();
        for (on, name) in [
            (self.sse2, "sse2"),
            (self.avx, "avx"),
            (self.avx2, "avx2"),
            (self.fma, "fma"),
            (self.avx512f, "avx512f"),
            (self.avx512_vpopcntdq, "avx512vpopcntdq"),
        ] {
            if on {
                out.push(name);
            }
        }
        out
    }
}

/// Detects the host's kernel-relevant CPU features.
///
/// `is_x86_feature_detected!` caches its own CPUID results, so this is
/// cheap enough to call per kernel-selection.
pub fn host_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    {
        CpuFeatures {
            sse2: is_x86_feature_detected!("sse2"),
            avx: is_x86_feature_detected!("avx"),
            avx2: is_x86_feature_detected!("avx2"),
            fma: is_x86_feature_detected!("fma"),
            avx512f: is_x86_feature_detected!("avx512f"),
            avx512_vpopcntdq: is_x86_feature_detected!("avx512vpopcntdq"),
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        CpuFeatures {
            sse2: false,
            avx: false,
            avx2: false,
            fma: false,
            avx512f: false,
            avx512_vpopcntdq: false,
        }
    }
}

/// Process-global kernel-mode override: `0` = unset (defer to the
/// `RBNN_KERNELS` environment variable), `1` = auto dispatch, `2` = forced
/// scalar. Written by tests/benches, read on every kernel selection.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// Cached `RBNN_KERNELS` environment mode: `0` = not yet read, `1` = auto,
/// `2` = scalar.
static ENV_MODE: AtomicU8 = AtomicU8::new(0);

const MODE_UNSET: u8 = 0;
const MODE_AUTO: u8 = 1;
const MODE_SCALAR: u8 = 2;

/// Forces (or un-forces) the scalar kernel path for the whole process.
///
/// A programmatic override always wins over the `RBNN_KERNELS` environment
/// variable; use [`clear_forced_scalar`] to return control to the
/// environment. Tests toggling this must serialize on a shared lock (the
/// kernels are pure, so a racing reader only ever sees one of two
/// bitwise-identical results, but timing measurements would interleave).
pub fn set_forced_scalar(forced: bool) {
    let mode = if forced { MODE_SCALAR } else { MODE_AUTO };
    // Relaxed: a standalone flag with no dependent shared state — every
    // kernel produces bitwise-identical results in either mode, so readers
    // need no ordering with respect to other memory.
    OVERRIDE.store(mode, Ordering::Relaxed);
}

/// Clears any programmatic override, restoring the `RBNN_KERNELS`
/// environment default.
pub fn clear_forced_scalar() {
    // Relaxed: see `set_forced_scalar` — no dependent state to order.
    OVERRIDE.store(MODE_UNSET, Ordering::Relaxed);
}

/// True when the process is pinned to the scalar kernels, either via
/// [`set_forced_scalar`] or `RBNN_KERNELS=scalar` in the environment.
pub fn forced_scalar() -> bool {
    // Relaxed: standalone flag, no dependent shared state (see
    // `set_forced_scalar`).
    match OVERRIDE.load(Ordering::Relaxed) {
        MODE_SCALAR => true,
        MODE_AUTO => false,
        _ => env_mode() == MODE_SCALAR,
    }
}

/// Reads (once) and caches the `RBNN_KERNELS` environment mode.
fn env_mode() -> u8 {
    // Relaxed: the cached value is write-once and self-contained; racing
    // initializers compute the same answer from the same environment.
    let cached = ENV_MODE.load(Ordering::Relaxed);
    if cached != MODE_UNSET {
        return cached;
    }
    let mode = match std::env::var("RBNN_KERNELS") {
        Ok(v) if v.eq_ignore_ascii_case("scalar") => MODE_SCALAR,
        _ => MODE_AUTO,
    };
    // Relaxed: see above — idempotent write of a value derived from the
    // (stable) process environment.
    ENV_MODE.store(mode, Ordering::Relaxed);
    mode
}

/// Which implementation backs the XNOR-popcount word kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopcountKernel {
    /// Portable `u64::count_ones` loop (the parity oracle).
    Scalar,
    /// AVX2 Harley-Seal carry-save adder with a nibble-LUT byte popcount.
    Avx2,
    /// AVX-512 `vpopcntq` (VPOPCNTDQ extension).
    Avx512,
}

/// Which implementation backs the float sign-packing kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PackKernel {
    /// Portable branchless bit loop (the parity oracle).
    Scalar,
    /// AVX `vcmpps`/`vmovmskps`, 8 sign bits per instruction pair.
    Avx,
    /// AVX-512 `vcmpps` into a mask register, 16 sign bits per compare.
    Avx512,
}

/// Which implementation backs the f32 GEMM micro-kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmKernel {
    /// Portable `f32::mul_add` loop (the parity oracle; correctly-rounded
    /// fused contraction even without hardware FMA).
    Scalar,
    /// AVX2+FMA `vfmadd231ps` register tile, same contraction order.
    Fma,
}

/// Selects the XNOR-popcount kernel for this host (and override state).
#[inline]
pub fn popcount_kernel() -> PopcountKernel {
    if forced_scalar() {
        return PopcountKernel::Scalar;
    }
    let f = host_features();
    if f.avx512f && f.avx512_vpopcntdq {
        PopcountKernel::Avx512
    } else if f.avx2 {
        PopcountKernel::Avx2
    } else {
        PopcountKernel::Scalar
    }
}

/// Selects the sign-packing kernel for this host (and override state).
#[inline]
pub fn pack_kernel() -> PackKernel {
    if forced_scalar() {
        return PackKernel::Scalar;
    }
    let f = host_features();
    if f.avx512f {
        PackKernel::Avx512
    } else if f.avx {
        PackKernel::Avx
    } else {
        PackKernel::Scalar
    }
}

/// Selects the GEMM micro-kernel for this host (and override state).
#[inline]
pub fn gemm_kernel() -> GemmKernel {
    if forced_scalar() {
        return GemmKernel::Scalar;
    }
    let f = host_features();
    if f.avx2 && f.fma {
        GemmKernel::Fma
    } else {
        GemmKernel::Scalar
    }
}

/// A snapshot of the dispatch decisions, for bench envelopes and CI
/// self-checks — cross-host artifact diffs must be explainable from the
/// recorded feature set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchReport {
    /// Detected host features (names, fixed order).
    pub features: Vec<&'static str>,
    /// True when the scalar override (programmatic or `RBNN_KERNELS`) is on.
    pub forced_scalar: bool,
    /// Selected popcount kernel name.
    pub popcount: &'static str,
    /// Selected sign-packing kernel name.
    pub pack: &'static str,
    /// Selected GEMM micro-kernel name.
    pub gemm: &'static str,
}

impl DispatchReport {
    /// Comma-separated feature list (for flat text/JSON fields).
    pub fn features_csv(&self) -> String {
        self.features.join(",")
    }
}

/// Captures the current dispatch decisions.
pub fn dispatch_report() -> DispatchReport {
    DispatchReport {
        features: host_features().names(),
        forced_scalar: forced_scalar(),
        popcount: match popcount_kernel() {
            PopcountKernel::Scalar => "scalar",
            PopcountKernel::Avx2 => "avx2-harley-seal",
            PopcountKernel::Avx512 => "avx512-vpopcntdq",
        },
        pack: match pack_kernel() {
            PackKernel::Scalar => "scalar",
            PackKernel::Avx => "avx-movemask",
            PackKernel::Avx512 => "avx512-cmp-mask",
        },
        gemm: match gemm_kernel() {
            GemmKernel::Scalar => "scalar-fma",
            GemmKernel::Fma => "avx2-fma",
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn x86_64_reports_at_least_sse2() {
        // The CI self-check in workflow terms: every x86-64 host must
        // report the baseline feature, whatever else it has.
        #[cfg(target_arch = "x86_64")]
        assert!(host_features().sse2, "x86_64 host must report sse2");
        let report = dispatch_report();
        #[cfg(target_arch = "x86_64")]
        assert!(report.features_csv().contains("sse2"));
        // Kernel names are always drawn from the documented set.
        assert!(["scalar", "avx2-harley-seal", "avx512-vpopcntdq"].contains(&report.popcount));
        assert!(["scalar", "avx-movemask", "avx512-cmp-mask"].contains(&report.pack));
        assert!(["scalar-fma", "avx2-fma"].contains(&report.gemm));
    }

    #[test]
    fn forced_scalar_override_wins() {
        let _guard = crate::gemm::TEST_GLOBALS_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        set_forced_scalar(true);
        assert!(forced_scalar());
        assert_eq!(popcount_kernel(), PopcountKernel::Scalar);
        assert_eq!(pack_kernel(), PackKernel::Scalar);
        assert_eq!(gemm_kernel(), GemmKernel::Scalar);
        let report = dispatch_report();
        assert!(report.forced_scalar);
        assert_eq!(report.popcount, "scalar");
        set_forced_scalar(false);
        assert!(!forced_scalar());
        clear_forced_scalar();
    }
}
