//! Register-tiled, cache-blocked GEMM micro-kernels.
//!
//! This is the floating-point hot path of the whole training stack: every
//! dense layer and every `im2col`-lowered convolution executes here, three
//! times per batch (forward, weight gradient, input gradient). The kernel
//! follows the classic packed-GEMM structure:
//!
//! * both operands are **packed** into cache-blocked panels — an `MR`-row
//!   column-major A panel and `NR`-column row-major B tiles — so the micro
//!   kernel reads both streams contiguously regardless of whether the caller
//!   asked for `A·B`, `Aᵀ·B` or `A·Bᵀ`;
//! * the **micro kernel** keeps an `MR × NR` accumulator tile in registers
//!   and walks the shared dimension once. The contraction order is
//!   canonical and host-invariant: every output lane is one fused
//!   multiply-add chain in fixed k-order (see `microkernel_scalar`), and
//!   the AVX2+FMA variant is selected **at runtime** via
//!   [`crate::kernels::dispatch`] — never by compile-time
//!   `cfg(target_feature)`, which silently forked the numerics between the
//!   local `target-cpu=native` build and the CI `x86-64-v2` build;
//! * work is **split over row panels** across scoped worker threads (one
//!   tight closure-free path when a single worker is configured). Each
//!   output element is produced by exactly one worker accumulating in a
//!   fixed k-order, so results are bitwise identical for every thread
//!   count.
//!
//! There is one kernel oracle: the forced-scalar micro kernel
//! ([`crate::set_forced_scalar`], or `RBNN_KERNELS=scalar`), which must
//! agree with the dispatched kernel bit for bit. The tests additionally
//! check every layout against a naive triple loop to tolerance.

use std::cell::RefCell;

use crate::kernels::dispatch::{gemm_kernel, GemmKernel};
use crate::par;

/// Rows of the register accumulator tile (4×16 measured fastest on this
/// repo's reference container; 8×16 spills registers, 8×8 gains nothing).
pub const MR: usize = 4;
/// Columns of the register accumulator tile (two 8-lane SIMD vectors).
pub const NR: usize = 16;
/// Cache block along the output columns: B is packed one `NC`-column
/// stripe at a time (`k × NC` f32, ~1 MiB at the workspace's largest `k`),
/// and every row panel streams over the stripe from L2/L3.
const NC: usize = 256;

/// Serializes tests that toggle process-global kernel state
/// ([`crate::set_forced_scalar`], the `par` thread-count override) against
/// tests whose assertions would observe the toggle (bitwise comparisons
/// between two kernel invocations, timing measurements).
#[cfg(test)]
pub(crate) static TEST_GLOBALS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// How an operand matrix is laid out relative to the logical GEMM operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// The buffer stores the logical operand row-major as-is.
    RowMajor,
    /// The buffer stores the *transpose* of the logical operand row-major
    /// (i.e. the logical operand is read column-major).
    Transposed,
}

thread_local! {
    // Packing buffers, reused across calls on the same thread. Workers
    // spawned by `par_for` get their own A-panel buffer; the B block is
    // packed once by the calling thread and shared read-only.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Packs the full-`k` `NC`-column stripe of B starting at column `j0` into
/// `NR`-column tiles: tile `jt` holds `k` rows of `NR` contiguous values,
/// zero-padded past the true column count.
fn pack_b_stripe(
    b: &[f32],
    layout: Layout,
    k: usize,
    n: usize,
    j0: usize,
    nc: usize,
    bp: &mut Vec<f32>,
) {
    let tiles = nc.div_ceil(NR);
    bp.clear();
    bp.resize(tiles * k * NR, 0.0);
    for jt in 0..tiles {
        let jbase = j0 + jt * NR;
        let jlim = NR.min(j0 + nc - jbase);
        let tile = &mut bp[jt * k * NR..(jt + 1) * k * NR];
        match layout {
            Layout::RowMajor => {
                for p in 0..k {
                    let src = &b[p * n + jbase..p * n + jbase + jlim];
                    tile[p * NR..p * NR + jlim].copy_from_slice(src);
                }
            }
            Layout::Transposed => {
                // b stores Bᵀ ([n, k] row-major): column j of B is row j of
                // b. Walk p outermost so stores are contiguous and the jlim
                // strided reads run as independent prefetch streams.
                for (p, trow) in tile.chunks_exact_mut(NR).enumerate() {
                    for (jr, t) in trow[..jlim].iter_mut().enumerate() {
                        *t = b[(jbase + jr) * k + p];
                    }
                }
            }
        }
    }
}

/// Packs the full-`k` `mr`-row panel of A starting at row `i0` column-major
/// (`ap[p * MR + r]`), zero-padded to `MR` rows.
fn pack_a_panel(
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    i0: usize,
    mr: usize,
    ap: &mut Vec<f32>,
) {
    ap.clear();
    ap.resize(k * MR, 0.0);
    match layout {
        Layout::RowMajor => {
            // p outermost: contiguous stores, `mr` strided read streams.
            for (p, arow) in ap.chunks_exact_mut(MR).enumerate() {
                for (r, dst) in arow[..mr].iter_mut().enumerate() {
                    *dst = a[(i0 + r) * k + p];
                }
            }
        }
        Layout::Transposed => {
            // a stores Aᵀ ([k, m] row-major): walk k rows, gather mr values.
            for p in 0..k {
                let src = &a[p * m + i0..p * m + i0 + mr];
                ap[p * MR..p * MR + mr].copy_from_slice(src);
            }
        }
    }
}

/// Dispatches the register-tile micro kernel selected once per [`gemm`]
/// call: accumulates the packed `kc`-long panels into an `MR × NR` tile.
#[inline]
fn microkernel(kern: GemmKernel, ap: &[f32], btile: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    match kern {
        // SAFETY: `GemmKernel::Fma` is only ever constructed by
        // `dispatch::gemm_kernel()` after `is_x86_feature_detected!`
        // confirmed the host executes AVX2 and FMA instructions.
        #[cfg(target_arch = "x86_64")]
        GemmKernel::Fma => unsafe { microkernel_fma(ap, btile, kc, acc) },
        _ => microkernel_scalar(ap, btile, kc, acc),
    }
}

/// The canonical scalar micro kernel and the definition of this crate's
/// **contraction order**: each accumulator lane `acc[r][j]` is one fused
/// multiply-add chain `acc = fma(a[p·MR+r], b[p·NR+j], acc)` walked in
/// ascending `p`. `f32::mul_add` is correctly rounded on every target —
/// hardware `vfmadd` where the build enables it, libm `fmaf` otherwise —
/// so this kernel produces bit-identical results on every host, and the
/// SIMD variant below reproduces the same chains lane-for-lane. (The old
/// `cfg(target_feature = "fma")` mul-vs-fuse branch picked *different
/// numerics* per build target; runtime dispatch may only change speed.)
///
/// Constant bounds + `chunks_exact` keep the inner loops free of bounds
/// checks so they vectorize on builds whose baseline includes FMA.
#[inline]
fn microkernel_scalar(ap: &[f32], btile: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    for (arow, brow) in ap[..kc * MR]
        .chunks_exact(MR)
        .zip(btile[..kc * NR].chunks_exact(NR))
    {
        for r in 0..MR {
            let av = arow[r];
            let accr = &mut acc[r];
            for j in 0..NR {
                accr[j] = av.mul_add(brow[j], accr[j]);
            }
        }
    }
}

/// AVX2+FMA micro kernel: the 4×16 accumulator tile lives in eight `__m256`
/// registers and every k-step issues one `vfmadd231ps` per row half — the
/// same per-lane fused chains, in the same k-order, as
/// [`microkernel_scalar`], so the two are bitwise interchangeable.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn microkernel_fma(ap: &[f32], btile: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    use std::arch::x86_64::*;

    debug_assert!(ap.len() >= kc * MR && btile.len() >= kc * NR);
    let mut vacc = [[_mm256_setzero_ps(); 2]; MR];
    for (v, row) in vacc.iter_mut().zip(acc.iter()) {
        v[0] = _mm256_loadu_ps(row.as_ptr());
        v[1] = _mm256_loadu_ps(row.as_ptr().add(8));
    }
    let mut a = ap.as_ptr();
    let mut b = btile.as_ptr();
    for _ in 0..kc {
        let b0 = _mm256_loadu_ps(b);
        let b1 = _mm256_loadu_ps(b.add(8));
        for (r, v) in vacc.iter_mut().enumerate() {
            let av = _mm256_broadcast_ss(&*a.add(r));
            v[0] = _mm256_fmadd_ps(av, b0, v[0]);
            v[1] = _mm256_fmadd_ps(av, b1, v[1]);
        }
        a = a.add(MR);
        b = b.add(NR);
    }
    for (v, row) in vacc.iter().zip(acc.iter_mut()) {
        _mm256_storeu_ps(row.as_mut_ptr(), v[0]);
        _mm256_storeu_ps(row.as_mut_ptr().add(8), v[1]);
    }
}

/// Computes `C = op_a(A) × op_b(B)` for `[m, k] × [k, n]` logical operands,
/// overwriting `out` (`m·n` elements, any prior contents).
///
/// Parallelism splits output **row panels** only; the k-accumulation order
/// per element is fixed, so results are invariant to the worker count.
///
/// # Panics
///
/// Panics if a buffer length disagrees with the stated dimensions.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm: A buffer/shape mismatch");
    assert_eq!(b.len(), k * n, "gemm: B buffer/shape mismatch");
    assert_eq!(out.len(), m * n, "gemm: C buffer/shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        out.fill(0.0);
        return;
    }
    // Resolved once per call: the same kernel runs for every panel and
    // every worker, so a concurrent override flip cannot mix kernels
    // within one GEMM (not that it would matter — they are bitwise equal).
    let kern = gemm_kernel();

    let row_panels = m.div_ceil(MR);
    let workers = par::num_threads().min(row_panels);
    if workers <= 1 {
        // Tight single-thread path: both packing buffers taken from TLS
        // once, then plain nested loops with no closures or raw pointers —
        // the closure-per-stripe structure of the parallel path measurably
        // inhibits the optimizer on small-k shapes.
        PACK_B.with(|bcell| {
            PACK_A.with(|acell| {
                let mut bp = bcell.take();
                let mut ap = acell.take();
                gemm_sequential(
                    kern, a, a_layout, b, b_layout, m, k, n, out, &mut bp, &mut ap,
                );
                bcell.replace(bp);
                acell.replace(ap);
            });
        });
        return;
    }

    let out_ptr = SendPtr(out.as_mut_ptr());
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        PACK_B.with(|cell| {
            let mut bp = cell.take();
            pack_b_stripe(b, b_layout, k, n, j0, nc, &mut bp);
            // One worker scope per column stripe: panels are claimed
            // dynamically and each worker takes its packing buffer once
            // per stripe. Workers own disjoint row panels, and the
            // k-accumulation order per element is fixed, so results do not
            // depend on the claim order or worker count. Known tradeoff:
            // wide outputs re-spawn the scope per 256-column stripe
            // (~tens of µs each) — hoisting the scope above the stripe
            // loop needs a per-stripe pack barrier; revisit if multi-core
            // training becomes the bottleneck.
            let next = std::sync::atomic::AtomicUsize::new(0);
            let (bp_ref, out_ref, next_ref) = (&bp, &out_ptr, &next);
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| {
                        PACK_A.with(|acell| {
                            let mut ap = acell.take();
                            loop {
                                // Relaxed: the fetch_add only needs to hand
                                // out unique panel indices; the thread-scope
                                // join publishes the written rows.
                                let panel =
                                    next_ref.fetch_add(1, std::sync::atomic::Ordering::Relaxed); // Relaxed: see above.
                                if panel >= row_panels {
                                    break;
                                }
                                run_panel(
                                    kern, a, a_layout, m, k, n, panel, j0, nc, bp_ref, &mut ap,
                                    out_ref,
                                );
                            }
                            acell.replace(ap);
                        });
                    });
                }
            });
            cell.replace(bp);
        });
    }
}

/// The single-worker kernel body: identical blocking and accumulation
/// order to the parallel path (so results are bitwise equal), written as
/// plain loops over `&mut out`.
#[allow(clippy::too_many_arguments)]
fn gemm_sequential(
    kern: GemmKernel,
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    out: &mut [f32],
    bp: &mut Vec<f32>,
    ap: &mut Vec<f32>,
) {
    let row_panels = m.div_ceil(MR);
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        pack_b_stripe(b, b_layout, k, n, j0, nc, bp);
        for panel in 0..row_panels {
            let i0 = panel * MR;
            let mr = MR.min(m - i0);
            pack_a_panel(a, a_layout, m, k, i0, mr, ap);
            let tiles = nc.div_ceil(NR);
            for jt in 0..tiles {
                let jbase = j0 + jt * NR;
                let jlim = NR.min(j0 + nc - jbase);
                let mut acc = [[0.0f32; NR]; MR];
                microkernel(kern, ap, &bp[jt * k * NR..(jt + 1) * k * NR], k, &mut acc);
                for r in 0..mr {
                    let orow = &mut out[(i0 + r) * n + jbase..(i0 + r) * n + jbase + jlim];
                    for (o, &v) in orow.iter_mut().zip(&acc[r][..jlim]) {
                        *o = v;
                    }
                }
            }
        }
    }
}

/// Packs one `MR`-row panel of A and sweeps it across the packed B stripe,
/// writing the output rows this panel owns (each output element is produced
/// by exactly one panel × tile pair, so rows are stored directly — no
/// pre-zeroing of `out` needed).
#[allow(clippy::too_many_arguments)]
#[inline]
fn run_panel(
    kern: GemmKernel,
    a: &[f32],
    a_layout: Layout,
    m: usize,
    k: usize,
    n: usize,
    panel: usize,
    j0: usize,
    nc: usize,
    bp: &[f32],
    ap: &mut Vec<f32>,
    out_ptr: &SendPtr,
) {
    let i0 = panel * MR;
    let mr = MR.min(m - i0);
    pack_a_panel(a, a_layout, m, k, i0, mr, ap);
    let tiles = nc.div_ceil(NR);
    for jt in 0..tiles {
        let jbase = j0 + jt * NR;
        let jlim = NR.min(j0 + nc - jbase);
        let mut acc = [[0.0f32; NR]; MR];
        microkernel(kern, ap, &bp[jt * k * NR..(jt + 1) * k * NR], k, &mut acc);
        for (r, acc_row) in acc.iter().enumerate().take(mr) {
            // SAFETY: `out_ptr` points at the `m × n` output buffer, which
            // outlives the thread scope. Bounds: `i0 + r < m` (r < mr) and
            // `jbase + jlim <= n`, so the `jlim`-element row slice is in
            // bounds. Aliasing: each output row belongs to exactly one
            // panel and panels are claimed uniquely via `fetch_add`, so no
            // two workers ever overlap a row.
            let orow = unsafe {
                std::slice::from_raw_parts_mut(out_ptr.0.add((i0 + r) * n + jbase), jlim)
            };
            // Explicit store loop: `copy_from_slice` lowers to an
            // out-of-line memcpy call, measurable at tens of thousands of
            // sub-64-byte row writebacks per GEMM.
            for (o, &v) in orow.iter_mut().zip(&acc_row[..jlim]) {
                *o = v;
            }
        }
    }
}

/// Raw pointer wrapper asserting cross-thread transferability; the caller
/// guarantees workers touch disjoint rows.
struct SendPtr(*mut f32);
// SAFETY: the wrapper is only shared within a `thread::scope` whose workers
// write disjoint output rows (panel ownership is unique), so sending the
// pointer across threads cannot create aliased mutable access.
unsafe impl Send for SendPtr {}
// SAFETY: `&SendPtr` only exposes the raw pointer; all dereferencing sites
// uphold the disjoint-row contract documented above.
unsafe impl Sync for SendPtr {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut t = vec![0.0f32; x.len()];
        for r in 0..rows {
            for c in 0..cols {
                t[c * rows + r] = x[r * cols + c];
            }
        }
        t
    }

    /// Shapes chosen to exercise every edge: unit, sub-tile, exact-tile,
    /// tall/skinny, fat/short, and spans crossing the KC/NC cache blocks.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (1, 7, 1),
        (3, 5, 2),
        (4, 16, 16),
        (5, 17, 19),
        (130, 3, 2),
        (2, 3, 130),
        (31, 300, 33),
        (16, 257, 272),
    ];

    #[test]
    fn gemm_matches_naive_for_all_layouts() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(m, k, n) in SHAPES {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let expect = naive(&a, &b, m, k, n);
            let at = transpose(&a, m, k);
            let bt = transpose(&b, k, n);
            let mut out = vec![0.0f32; m * n];
            for (abuf, al, bbuf, bl) in [
                (&a, Layout::RowMajor, &b, Layout::RowMajor),
                (&at, Layout::Transposed, &b, Layout::RowMajor),
                (&a, Layout::RowMajor, &bt, Layout::Transposed),
                (&at, Layout::Transposed, &bt, Layout::Transposed),
            ] {
                gemm(abuf, al, bbuf, bl, m, k, n, &mut out);
                for (got, want) in out.iter().zip(&expect) {
                    assert!(
                        (got - want).abs() <= 1e-3,
                        "({m},{k},{n}) {al:?}/{bl:?}: {got} vs {want}"
                    );
                }
            }
        }
    }

    #[test]
    fn gemm_overwrites_stale_output() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut out = vec![999.0f32; 1];
        gemm(
            &a,
            Layout::RowMajor,
            &b,
            Layout::RowMajor,
            1,
            2,
            1,
            &mut out,
        );
        assert_eq!(out[0], 11.0);
    }

    /// Satellite regression test for the `cfg(target_feature = "fma")` bug:
    /// the forced-scalar and runtime-dispatched micro kernels must agree
    /// **bit for bit** on the same host (the canonical fused contraction
    /// order is one set of numerics, whatever ISA executes it), and both
    /// must agree with the naive oracle to tolerance.
    #[test]
    fn forced_scalar_and_dispatched_gemm_bitwise_equal() {
        let _guard = TEST_GLOBALS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = StdRng::seed_from_u64(7);
        for &(m, k, n) in SHAPES {
            let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0..1.0f32)).collect();
            let mut scalar_out = vec![0.0f32; m * n];
            let mut simd_out = vec![0.0f32; m * n];
            crate::kernels::dispatch::set_forced_scalar(true);
            gemm(
                &a,
                Layout::RowMajor,
                &b,
                Layout::RowMajor,
                m,
                k,
                n,
                &mut scalar_out,
            );
            crate::kernels::dispatch::set_forced_scalar(false);
            gemm(
                &a,
                Layout::RowMajor,
                &b,
                Layout::RowMajor,
                m,
                k,
                n,
                &mut simd_out,
            );
            crate::kernels::dispatch::clear_forced_scalar();
            for (i, (s, d)) in scalar_out.iter().zip(&simd_out).enumerate() {
                assert_eq!(
                    s.to_bits(),
                    d.to_bits(),
                    "({m},{k},{n}) elem {i}: scalar {s} vs dispatched {d}"
                );
            }
            let expect = naive(&a, &b, m, k, n);
            for (got, want) in simd_out.iter().zip(&expect) {
                assert!((got - want).abs() <= 1e-3, "({m},{k},{n}): {got} vs {want}");
            }
        }
    }
}
