//! XNOR-popcount kernels: scalar oracle, AVX2 Harley-Seal, AVX-512
//! VPOPCNTDQ.
//!
//! Two families, each with all three implementations:
//!
//! * **word kernels** count `Σ popcount(!(a[w] ^ b[w]))` over two whole-word
//!   operands;
//! * **rows kernels** work on a matrix stored in the [`ROW_LANES`] = 8-row
//!   interleaved layout (one 512-bit load per word column of a row block).
//!   [`xnor_popcount_rows`] counts one operand against every row;
//!   [`xnor_threshold_pack_rows`] runs a whole fused hidden layer for a
//!   batch — count, compare against per-row `i64` thresholds held in
//!   registers, sign-pack into the destination rows — in one dispatch. Its
//!   AVX-512 kernel is weight-stationary: each weight column is loaded
//!   once for [`SAMPLE_BLOCK`] samples, each with its own `vpopcntq`
//!   accumulator.
//!
//! Everything is pure integer arithmetic, so every path is **bitwise equal
//! unconditionally**; runtime dispatch (see [`crate::kernels::dispatch`])
//! only changes speed. Tail-bit masking for lengths that are not a multiple
//! of 64 stays with the callers in `bits`: `xnor_popcount` slices its
//! operands to whole words, and `InterleavedRows` folds the constant word
//! slack into counts and thresholds.

use super::dispatch::{popcount_kernel, PopcountKernel};

const WORD_BITS: usize = 64;

/// Counts matching bits of `a` vs `b` over whole words, dispatched to the
/// fastest kernel the host supports (forced-scalar override respected).
///
/// Extra words in the longer slice are ignored (`zip` semantics); callers
/// pass equal-length slices.
#[inline]
pub(crate) fn xnor_popcount_words(a: &[u64], b: &[u64]) -> u32 {
    match popcount_kernel() {
        PopcountKernel::Scalar => xnor_popcount_words_scalar(a, b),
        // SAFETY: `PopcountKernel::Avx2` is only ever selected by
        // `popcount_kernel()` after `is_x86_feature_detected!("avx2")`
        // confirmed the host executes AVX2 instructions.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx2 => unsafe { xnor_popcount_words_avx2(a, b) },
        // SAFETY: `PopcountKernel::Avx512` is only selected after runtime
        // detection of both `avx512f` and `avx512vpopcntdq`.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx512 => unsafe { xnor_popcount_words_avx512(a, b) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => xnor_popcount_words_scalar(a, b),
    }
}

/// Rows interleaved per block in the batched rows kernels' operand layout:
/// word `j` of eight consecutive rows sits contiguously, so one 512-bit
/// load fetches the same word column of a whole row block. AVX2 reads the
/// column as two 256-bit halves and the scalar oracle walks it lane by
/// lane; the layout itself is the same on every host, so compiled plans
/// are byte-identical everywhere.
pub(crate) const ROW_LANES: usize = 8;

/// Row blocks whose verdict bits fill one packed destination word.
const BLOCKS_PER_WORD: usize = WORD_BITS / ROW_LANES;

/// Samples the AVX-512 fused kernel streams past each loaded weight column
/// (weight-stationary blocking); batch tails run one sample at a time.
const SAMPLE_BLOCK: usize = 4;

/// Batched XNOR-popcount: counts matching bits of every interleaved row of
/// `blocks` against the single operand `x`, over whole words, with **one**
/// kernel dispatch for the entire matrix.
///
/// `blocks` holds `out.len()` rows of `words_per_row` words in
/// [`ROW_LANES`]-interleaved layout (`blocks[(block * words_per_row + j) *
/// ROW_LANES + lane]` is word `j` of row `block * ROW_LANES + lane`). This
/// is the primitive behind [`InterleavedRows`](crate::InterleavedRows)'
/// count query: per-row entry points pay the dispatch, bounds checks, and
/// (for short rows) the SIMD remainder handling once per row, which
/// dominates when rows are a handful of words long.
///
/// # Panics
///
/// Panics unless `out.len()` is a multiple of [`ROW_LANES`], `blocks`
/// holds exactly `out.len() * words_per_row` words, and `x` holds at least
/// `words_per_row` words.
pub(crate) fn xnor_popcount_rows(blocks: &[u64], words_per_row: usize, x: &[u64], out: &mut [u32]) {
    assert!(
        out.len().is_multiple_of(ROW_LANES),
        "row count must be padded to a multiple of {ROW_LANES}"
    );
    assert_eq!(
        blocks.len(),
        out.len() * words_per_row,
        "interleaved operand size mismatch"
    );
    assert!(x.len() >= words_per_row, "x shorter than one row");
    match popcount_kernel() {
        PopcountKernel::Scalar => xnor_popcount_rows_scalar(blocks, words_per_row, x, out),
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection; the
        // asserts above keep every block column and `x` word in bounds.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx2 => unsafe { xnor_popcount_rows_avx2(blocks, words_per_row, x, out) },
        // SAFETY: `Avx512` is only selected after runtime detection of
        // avx512f + avx512vpopcntdq; bounds as for the AVX2 arm.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx512 => unsafe {
            xnor_popcount_rows_avx512(blocks, words_per_row, x, out)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => xnor_popcount_rows_scalar(blocks, words_per_row, x, out),
    }
}

/// Fused batched hidden layer — XNOR-popcount → threshold → sign-pack for
/// a whole batch in **one** kernel dispatch.
///
/// For every sample row of `xs` (`words_per_row` words each) and every
/// interleaved row `r` of `blocks` (layout as in [`xnor_popcount_rows`]),
/// the whole-word XNOR count `c` fires bit `r` of that sample's `dst` row
/// when `c >= thresholds[r]`, inverted where bit `r % ROW_LANES` of
/// `negate[r / ROW_LANES]` is set. `thresholds` holds one entry per padded
/// row and so sets the row count; each `dst` row is
/// `thresholds.len().div_ceil(64)` words, every one overwritten, and the
/// batch size is `dst`'s row count. The comparison is exact integer
/// arithmetic, so every kernel agrees bit for bit.
///
/// # Panics
///
/// Panics unless `thresholds.len()` is a multiple of [`ROW_LANES`],
/// `negate` holds one byte per row block, `blocks` holds exactly
/// `thresholds.len() * words_per_row` words, `dst` is a whole number of
/// rows, and `xs` holds at least as many sample rows.
pub(crate) fn xnor_threshold_pack_rows(
    blocks: &[u64],
    words_per_row: usize,
    thresholds: &[i64],
    negate: &[u8],
    xs: &[u64],
    dst: &mut [u64],
) {
    let rows = thresholds.len();
    assert!(
        rows.is_multiple_of(ROW_LANES),
        "row count must be padded to a multiple of {ROW_LANES}"
    );
    assert_eq!(
        negate.len(),
        rows / ROW_LANES,
        "one negate byte per row block"
    );
    assert_eq!(
        blocks.len(),
        rows * words_per_row,
        "interleaved operand size mismatch"
    );
    let dst_words = rows.div_ceil(WORD_BITS);
    if dst_words == 0 {
        return;
    }
    assert!(
        dst.len().is_multiple_of(dst_words),
        "destination is not a whole number of rows"
    );
    assert!(
        xs.len() >= dst.len() / dst_words * words_per_row,
        "fewer sample rows than destination rows"
    );
    match popcount_kernel() {
        PopcountKernel::Scalar => {
            xnor_threshold_pack_rows_scalar(blocks, words_per_row, thresholds, negate, xs, dst)
        }
        // SAFETY: `Avx2` is only selected after runtime AVX2 detection; the
        // asserts above keep every block, threshold, sample and destination
        // word the kernel touches in bounds.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx2 => unsafe {
            xnor_threshold_pack_rows_avx2(blocks, words_per_row, thresholds, negate, xs, dst)
        },
        // SAFETY: `Avx512` is only selected after runtime detection of
        // avx512f + avx512vpopcntdq; bounds as for the AVX2 arm.
        #[cfg(target_arch = "x86_64")]
        PopcountKernel::Avx512 => unsafe {
            xnor_threshold_pack_rows_avx512(blocks, words_per_row, thresholds, negate, xs, dst)
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => xnor_threshold_pack_rows_scalar(blocks, words_per_row, thresholds, negate, xs, dst),
    }
}

/// Row block `b` of an interleaved operand (empty when rows have no words).
#[inline]
fn row_block(blocks: &[u64], words_per_row: usize, b: usize) -> &[u64] {
    let block_words = words_per_row * ROW_LANES;
    blocks
        .get(b * block_words..(b + 1) * block_words)
        .unwrap_or_default()
}

/// XNOR counts of one interleaved row block against `x`, walked a block
/// column at a time — the scalar oracle's inner loop.
#[inline]
fn block_counts_scalar(block: &[u64], x: &[u64]) -> [u32; ROW_LANES] {
    let mut c = [0u32; ROW_LANES];
    for (col, &xw) in block.chunks_exact(ROW_LANES).zip(x) {
        for (acc, &w) in c.iter_mut().zip(col) {
            *acc += (!(w ^ xw)).count_ones();
        }
    }
    c
}

/// Scalar oracle for [`xnor_popcount_rows`]; the SIMD paths must match it
/// bit for bit.
fn xnor_popcount_rows_scalar(blocks: &[u64], words_per_row: usize, x: &[u64], out: &mut [u32]) {
    for (b, chunk) in out.chunks_exact_mut(ROW_LANES).enumerate() {
        chunk.copy_from_slice(&block_counts_scalar(row_block(blocks, words_per_row, b), x));
    }
}

/// Scalar oracle for [`xnor_threshold_pack_rows`]: the per-row count plus
/// the `FoldedThreshold::fire` rule, `(count >= threshold) ^ negate`, one
/// row at a time.
fn xnor_threshold_pack_rows_scalar(
    blocks: &[u64],
    words_per_row: usize,
    thresholds: &[i64],
    negate: &[u8],
    xs: &[u64],
    dst: &mut [u64],
) {
    let dst_words = thresholds.len().div_ceil(WORD_BITS);
    for (i, drow) in dst.chunks_exact_mut(dst_words).enumerate() {
        let x = xs.get(i * words_per_row..).unwrap_or_default();
        let word_rules = thresholds
            .chunks(WORD_BITS)
            .zip(negate.chunks(BLOCKS_PER_WORD));
        for (w, (word, (word_thresholds, word_negate))) in
            drow.iter_mut().zip(word_rules).enumerate()
        {
            let mut acc = 0u64;
            let block_rules = word_thresholds.chunks_exact(ROW_LANES).zip(word_negate);
            for (k, (block_thresholds, &neg)) in block_rules.enumerate() {
                let block = row_block(blocks, words_per_row, w * BLOCKS_PER_WORD + k);
                let counts = block_counts_scalar(block, x);
                for (lane, (&c, &t)) in counts.iter().zip(block_thresholds).enumerate() {
                    let fire = (i64::from(c) >= t) ^ ((neg >> lane) & 1 == 1);
                    acc |= u64::from(fire) << (k * ROW_LANES + lane);
                }
            }
            *word = acc;
        }
    }
}

/// Sums the popcounts of the 32 bytes of `v` into four u64 lanes (nibble
/// lookup table, then `vpsadbw`).
///
/// # Safety
///
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn pc_bytes_avx2(v: std::arch::x86_64::__m256i) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let lo = _mm256_and_si256(v, low);
    let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low);
    let p = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
    _mm256_sad_epu8(p, _mm256_setzero_si256())
}

/// AVX2 counts of four lanes of an 8-row block against one sample. Each
/// word column's half is one 256-bit load (`col` already points at the
/// half) XNORed with the broadcast sample word; a carry-save
/// `ones`/`twos` pair runs the nibble-LUT byte popcount once per two
/// columns.
///
/// # Safety
///
/// The host must support AVX2; `col` must point at `words_per_row`
/// readable half columns `ROW_LANES` words apart and `x` at
/// `words_per_row` readable words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn half_counts_avx2(
    col: *const u64,
    words_per_row: usize,
    x: *const u64,
) -> std::arch::x86_64::__m256i {
    use std::arch::x86_64::*;

    let ones = _mm256_set1_epi64x(-1);
    let xnor = |j: usize| {
        _mm256_xor_si256(
            _mm256_xor_si256(
                _mm256_loadu_si256(col.add(j * ROW_LANES) as *const __m256i),
                _mm256_set1_epi64x(*x.add(j) as i64),
            ),
            ones,
        )
    };
    let mut onesv = _mm256_setzero_si256();
    let mut twos = _mm256_setzero_si256();
    let mut j = 0usize;
    while j + 2 <= words_per_row {
        let (v1, v2) = (xnor(j), xnor(j + 1));
        // Carry-save add: carries weigh 2, the running sum weighs 1.
        let u = _mm256_xor_si256(v1, v2);
        let carry = _mm256_or_si256(_mm256_and_si256(v1, v2), _mm256_and_si256(u, onesv));
        onesv = _mm256_xor_si256(u, onesv);
        twos = _mm256_add_epi64(twos, pc_bytes_avx2(carry));
        j += 2;
    }
    if j < words_per_row {
        let v = xnor(j);
        let carry = _mm256_and_si256(onesv, v);
        onesv = _mm256_xor_si256(onesv, v);
        twos = _mm256_add_epi64(twos, pc_bytes_avx2(carry));
    }
    _mm256_add_epi64(_mm256_slli_epi64::<1>(twos), pc_bytes_avx2(onesv))
}

/// AVX2 counts of one 8-row block against one sample, as the block's low
/// and high four lanes (the layout's two 256-bit halves).
///
/// # Safety
///
/// The host must support AVX2; `col` must point at `words_per_row`
/// readable block columns and `x` at `words_per_row` readable words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn block_counts_avx2(
    col: *const u64,
    words_per_row: usize,
    x: *const u64,
) -> (std::arch::x86_64::__m256i, std::arch::x86_64::__m256i) {
    (
        half_counts_avx2(col, words_per_row, x),
        half_counts_avx2(col.add(ROW_LANES / 2), words_per_row, x),
    )
}

/// AVX2 rows kernel: one [`block_counts_avx2`] per row block.
///
/// # Safety
///
/// The host must support AVX2, and the slices must satisfy the size
/// contract [`xnor_popcount_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xnor_popcount_rows_avx2(
    blocks: &[u64],
    words_per_row: usize,
    x: &[u64],
    out: &mut [u32],
) {
    use std::arch::x86_64::*;

    for (b, chunk) in out.chunks_exact_mut(ROW_LANES).enumerate() {
        let col = blocks.as_ptr().add(b * words_per_row * ROW_LANES);
        let (lo, hi) = block_counts_avx2(col, words_per_row, x.as_ptr());
        let mut lanes = [0u64; ROW_LANES];
        _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, lo);
        _mm256_storeu_si256(lanes.as_mut_ptr().add(ROW_LANES / 2) as *mut __m256i, hi);
        for (o, &lane) in chunk.iter_mut().zip(&lanes) {
            *o = lane as u32;
        }
    }
}

/// AVX2 fused kernel: one sample at a time, [`block_counts_avx2`] per row
/// block, then `vpcmpgtq` of each half against its thresholds — a lane
/// fires unless its threshold exceeds its count.
///
/// # Safety
///
/// The host must support AVX2, and the slices must satisfy the size
/// contract [`xnor_threshold_pack_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xnor_threshold_pack_rows_avx2(
    blocks: &[u64],
    words_per_row: usize,
    thresholds: &[i64],
    negate: &[u8],
    xs: &[u64],
    dst: &mut [u64],
) {
    use std::arch::x86_64::*;

    let dst_words = thresholds.len().div_ceil(WORD_BITS);
    let nblocks = thresholds.len() / ROW_LANES;
    let (bp, tp, np) = (blocks.as_ptr(), thresholds.as_ptr(), negate.as_ptr());
    // Bit mask of the lanes whose threshold exceeds their count.
    let below = |counts: __m256i, t: *const i64| {
        let gt = _mm256_cmpgt_epi64(_mm256_loadu_si256(t as *const __m256i), counts);
        _mm256_movemask_pd(_mm256_castsi256_pd(gt)) as u8
    };
    for (i, drow) in dst.chunks_exact_mut(dst_words).enumerate() {
        let x = xs.as_ptr().add(i * words_per_row);
        for (w, word) in drow.iter_mut().enumerate() {
            let mut acc = 0u64;
            for b in w * BLOCKS_PER_WORD..nblocks.min((w + 1) * BLOCKS_PER_WORD) {
                let col = bp.add(b * words_per_row * ROW_LANES);
                let (lo, hi) = block_counts_avx2(col, words_per_row, x);
                let t = tp.add(b * ROW_LANES);
                let half = ROW_LANES / 2;
                let fire = !(below(lo, t) | (below(hi, t.add(half)) << half)) ^ *np.add(b);
                acc |= u64::from(fire) << ((b % BLOCKS_PER_WORD) * ROW_LANES);
            }
            *word = acc;
        }
    }
}

/// AVX-512 counts of one 8-row block against `S` samples, weight
/// stationary: each word column is loaded and inverted once, then XORed
/// with every sample's broadcast word, one `vpopcntq` accumulator per
/// sample. Sample `s` reads `x.add(s * x_stride)`.
///
/// # Safety
///
/// The host must support AVX-512F and VPOPCNTDQ; `col` must point at
/// `words_per_row` readable block columns and each sample at
/// `words_per_row` readable words.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn block_counts_avx512<const S: usize>(
    col: *const u64,
    words_per_row: usize,
    x: *const u64,
    x_stride: usize,
) -> [std::arch::x86_64::__m512i; S] {
    use std::arch::x86_64::*;

    let mut acc = [_mm512_setzero_si512(); S];
    for j in 0..words_per_row {
        let w = _mm512_loadu_si512(col.add(j * ROW_LANES) as *const __m512i);
        for (s, a) in acc.iter_mut().enumerate() {
            let xw = _mm512_set1_epi64(*x.add(s * x_stride + j) as i64);
            // Truth table 0xC3 is XNOR of the first two operands: one
            // `vpternlogq` with the sample word broadcast from memory.
            let v = _mm512_ternarylogic_epi64::<0xC3>(w, xw, w);
            *a = _mm512_add_epi64(*a, _mm512_popcnt_epi64(v));
        }
    }
    acc
}

/// AVX-512 rows kernel: one [`block_counts_avx512`] per row block, its
/// eight 64-bit counts narrowed to `u32` in one `vpmovqd`.
///
/// # Safety
///
/// The host must support AVX-512F and VPOPCNTDQ, and the slices must
/// satisfy the size contract [`xnor_popcount_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn xnor_popcount_rows_avx512(
    blocks: &[u64],
    words_per_row: usize,
    x: &[u64],
    out: &mut [u32],
) {
    use std::arch::x86_64::*;

    for (b, chunk) in out.chunks_exact_mut(ROW_LANES).enumerate() {
        let col = blocks.as_ptr().add(b * words_per_row * ROW_LANES);
        let [counts] = block_counts_avx512::<1>(col, words_per_row, x.as_ptr(), 0);
        _mm256_storeu_si256(
            chunk.as_mut_ptr() as *mut __m256i,
            _mm512_cvtepi64_epi32(counts),
        );
    }
}

/// Fires and packs `S` consecutive samples' destination rows starting at
/// sample `i`: per row block, [`block_counts_avx512`] then one
/// `vpcmpq` (`>=`) per sample against the block's in-register thresholds,
/// XORed with its negate bits and ORed into the sample's word register.
///
/// # Safety
///
/// As for [`xnor_threshold_pack_rows_avx512`], and samples `i..i + S`
/// must exist.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
#[inline]
unsafe fn pack_samples_avx512<const S: usize>(
    blocks: &[u64],
    words_per_row: usize,
    thresholds: &[i64],
    negate: &[u8],
    xs: *const u64,
    dst: *mut u64,
) {
    use std::arch::x86_64::*;

    let dst_words = thresholds.len().div_ceil(WORD_BITS);
    let nblocks = thresholds.len() / ROW_LANES;
    for w in 0..dst_words {
        let mut acc = [0u64; S];
        for b in w * BLOCKS_PER_WORD..nblocks.min((w + 1) * BLOCKS_PER_WORD) {
            let col = blocks.as_ptr().add(b * words_per_row * ROW_LANES);
            let counts = block_counts_avx512::<S>(col, words_per_row, xs, words_per_row);
            let t = _mm512_loadu_si512(thresholds.as_ptr().add(b * ROW_LANES) as *const __m512i);
            let neg = *negate.as_ptr().add(b);
            let shift = (b % BLOCKS_PER_WORD) * ROW_LANES;
            for (a, c) in acc.iter_mut().zip(counts) {
                *a |= u64::from(_mm512_cmpge_epi64_mask(c, t) ^ neg) << shift;
            }
        }
        for (s, a) in acc.into_iter().enumerate() {
            *dst.add(s * dst_words + w) = a;
        }
    }
}

/// AVX-512 fused kernel: [`SAMPLE_BLOCK`] samples per pass over the weight
/// blocks, then a one-sample pass for the batch tail.
///
/// # Safety
///
/// The host must support AVX-512F and VPOPCNTDQ, and the slices must
/// satisfy the size contract [`xnor_threshold_pack_rows`] asserts.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn xnor_threshold_pack_rows_avx512(
    blocks: &[u64],
    words_per_row: usize,
    thresholds: &[i64],
    negate: &[u8],
    xs: &[u64],
    dst: &mut [u64],
) {
    let dst_words = thresholds.len().div_ceil(WORD_BITS);
    let n = dst.len() / dst_words;
    let (xp, dp) = (xs.as_ptr(), dst.as_mut_ptr());
    let mut i = 0usize;
    while i + SAMPLE_BLOCK <= n {
        pack_samples_avx512::<SAMPLE_BLOCK>(
            blocks,
            words_per_row,
            thresholds,
            negate,
            xp.add(i * words_per_row),
            dp.add(i * dst_words),
        );
        i += SAMPLE_BLOCK;
    }
    while i < n {
        pack_samples_avx512::<1>(
            blocks,
            words_per_row,
            thresholds,
            negate,
            xp.add(i * words_per_row),
            dp.add(i * dst_words),
        );
        i += 1;
    }
}

/// The canonical scalar kernel — the parity oracle every SIMD path must
/// match bit for bit (`zip` keeps it panic-free on any slice lengths).
#[inline]
pub(crate) fn xnor_popcount_words_scalar(a: &[u64], b: &[u64]) -> u32 {
    let mut count = 0u32;
    for (x, y) in a.iter().zip(b) {
        count += (!(x ^ y)).count_ones();
    }
    count
}

/// AVX2 Harley-Seal popcount: carry-save adders compress 16 vectors per
/// block so the (comparatively expensive) nibble-LUT byte popcount runs
/// once per 1024 input bits instead of once per 256.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xnor_popcount_words_avx2(a: &[u64], b: &[u64]) -> u32 {
    use std::arch::x86_64::*;

    let n = a.len().min(b.len());
    let ap = a.as_ptr() as *const __m256i;
    let bp = b.as_ptr() as *const __m256i;
    let nvec = n / 4;
    // Per-nibble popcount table, replicated across both 128-bit lanes.
    let lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3,
        3, 4,
    );
    let low = _mm256_set1_epi8(0x0f);
    let ones = _mm256_set1_epi64x(-1);

    /// Sums the popcounts of the 32 bytes of `v` into four u64 lanes.
    ///
    /// # Safety
    ///
    /// Caller must be executing with AVX2 available (guaranteed here: only
    /// called from inside this `#[target_feature(enable = "avx2")]` body).
    #[inline(always)]
    unsafe fn pc_bytes(v: __m256i, lut: __m256i, low: __m256i) -> __m256i {
        let lo = _mm256_and_si256(v, low);
        let hi = _mm256_and_si256(_mm256_srli_epi32::<4>(v), low);
        let p = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo), _mm256_shuffle_epi8(lut, hi));
        _mm256_sad_epu8(p, _mm256_setzero_si256())
    }

    /// Carry-save adder: returns (carry, sum) of three bit-vectors.
    ///
    /// # Safety
    ///
    /// Caller must be executing with AVX2 available (guaranteed here: only
    /// called from inside this `#[target_feature(enable = "avx2")]` body).
    #[inline(always)]
    unsafe fn csa(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        (
            _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c)),
            _mm256_xor_si256(u, c),
        )
    }

    /// Loads vector `i` of each operand and forms their XNOR.
    ///
    /// # Safety
    ///
    /// `i` must be a valid vector index for both operands.
    #[inline(always)]
    unsafe fn ldx(ap: *const __m256i, bp: *const __m256i, i: usize, ones: __m256i) -> __m256i {
        _mm256_xor_si256(
            _mm256_xor_si256(_mm256_loadu_si256(ap.add(i)), _mm256_loadu_si256(bp.add(i))),
            ones,
        )
    }

    let mut total = _mm256_setzero_si256();
    let mut onesv = _mm256_setzero_si256();
    let mut twos = _mm256_setzero_si256();
    let mut fours = _mm256_setzero_si256();
    let mut eights = _mm256_setzero_si256();
    let mut i = 0usize;
    while i + 16 <= nvec {
        let (twos_a, o1) = csa(onesv, ldx(ap, bp, i, ones), ldx(ap, bp, i + 1, ones));
        let (twos_b, o2) = csa(o1, ldx(ap, bp, i + 2, ones), ldx(ap, bp, i + 3, ones));
        let (fours_a, t1) = csa(twos, twos_a, twos_b);
        let (twos_a, o3) = csa(o2, ldx(ap, bp, i + 4, ones), ldx(ap, bp, i + 5, ones));
        let (twos_b, o4) = csa(o3, ldx(ap, bp, i + 6, ones), ldx(ap, bp, i + 7, ones));
        let (fours_b, t2) = csa(t1, twos_a, twos_b);
        let (eights_a, f1) = csa(fours, fours_a, fours_b);
        let (twos_a, o5) = csa(o4, ldx(ap, bp, i + 8, ones), ldx(ap, bp, i + 9, ones));
        let (twos_b, o6) = csa(o5, ldx(ap, bp, i + 10, ones), ldx(ap, bp, i + 11, ones));
        let (fours_a, t3) = csa(t2, twos_a, twos_b);
        let (twos_a, o7) = csa(o6, ldx(ap, bp, i + 12, ones), ldx(ap, bp, i + 13, ones));
        let (twos_b, o8) = csa(o7, ldx(ap, bp, i + 14, ones), ldx(ap, bp, i + 15, ones));
        let (fours_b, t4) = csa(t3, twos_a, twos_b);
        let (eights_b, f2) = csa(f1, fours_a, fours_b);
        let (sixteens, e1) = csa(eights, eights_a, eights_b);
        onesv = o8;
        twos = t4;
        fours = f2;
        eights = e1;
        total = _mm256_add_epi64(total, pc_bytes(sixteens, lut, low));
        i += 16;
    }
    // Fold the partial carry-save counters back in with their weights.
    total = _mm256_slli_epi64::<4>(total);
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<3>(pc_bytes(eights, lut, low)));
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<2>(pc_bytes(fours, lut, low)));
    total = _mm256_add_epi64(total, _mm256_slli_epi64::<1>(pc_bytes(twos, lut, low)));
    total = _mm256_add_epi64(total, pc_bytes(onesv, lut, low));
    while i < nvec {
        total = _mm256_add_epi64(total, pc_bytes(ldx(ap, bp, i, ones), lut, low));
        i += 1;
    }
    let mut lanes = [0u64; 4];
    _mm256_storeu_si256(lanes.as_mut_ptr() as *mut __m256i, total);
    let mut count = lanes.iter().sum::<u64>() as u32;
    // Remaining 0–3 words fall through to the scalar oracle.
    let (_, a_tail) = a.split_at(nvec * 4);
    let (_, b_tail) = b.split_at(nvec * 4);
    count += xnor_popcount_words_scalar(a_tail, b_tail);
    count
}

/// AVX-512 popcount via the VPOPCNTDQ extension: one `vpopcntq` per eight
/// words, accumulated in 64-bit lanes.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F and AVX-512 VPOPCNTDQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vpopcntdq")]
unsafe fn xnor_popcount_words_avx512(a: &[u64], b: &[u64]) -> u32 {
    use std::arch::x86_64::*;

    let n = a.len().min(b.len());
    let mut acc = _mm512_setzero_si512();
    let ones = _mm512_set1_epi64(-1);
    let mut i = 0usize;
    while i + 8 <= n {
        let va = _mm512_loadu_si512(a.as_ptr().add(i) as *const _);
        let vb = _mm512_loadu_si512(b.as_ptr().add(i) as *const _);
        let x = _mm512_xor_si512(_mm512_xor_si512(va, vb), ones);
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
        i += 8;
    }
    let mut count = _mm512_reduce_add_epi64(acc) as u32;
    // Remaining 0–7 words fall through to the scalar oracle.
    let (_, a_tail) = a.split_at(i);
    let (_, b_tail) = b.split_at(i);
    count += xnor_popcount_words_scalar(a_tail, b_tail);
    count
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xorshift(seed: &mut u64) -> u64 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 7;
        *seed ^= *seed << 17;
        *seed
    }

    #[test]
    fn simd_kernels_match_scalar_bitwise() {
        let mut seed = 0x243f_6a88_85a3_08d3u64;
        for words in [0usize, 1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 128, 257] {
            let a: Vec<u64> = (0..words).map(|_| xorshift(&mut seed)).collect();
            let b: Vec<u64> = (0..words).map(|_| xorshift(&mut seed)).collect();
            let want = xnor_popcount_words_scalar(&a, &b);
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx2") {
                    // SAFETY: avx2 detected on this host.
                    let got = unsafe { xnor_popcount_words_avx2(&a, &b) };
                    assert_eq!(got, want, "avx2 mismatch at {words} words");
                }
                if is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx512vpopcntdq")
                {
                    // SAFETY: avx512f + avx512vpopcntdq detected on this host.
                    let got = unsafe { xnor_popcount_words_avx512(&a, &b) };
                    assert_eq!(got, want, "avx512 mismatch at {words} words");
                }
            }
            // The dispatched entry point agrees with the oracle too,
            // whichever kernel it picked.
            assert_eq!(xnor_popcount_words(&a, &b), want);
        }
    }

    /// Row widths, row counts and batch sizes the rows-kernel parity tests
    /// cover: word edges, row counts off the 8-lane grid, and every
    /// remainder of the 4-sample blocking.
    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 127, 128, 408];
    const ROW_COUNTS: [usize; 7] = [1, 2, 7, 8, 9, 75, 80];

    /// `count` random rows of `width` bits with zero tail bits.
    fn random_rows(count: usize, width: usize, seed: &mut u64) -> Vec<Vec<u64>> {
        let words = width.div_ceil(WORD_BITS);
        let tail = match width % WORD_BITS {
            0 => u64::MAX,
            rem => (1u64 << rem) - 1,
        };
        (0..count)
            .map(|_| {
                let mut row: Vec<u64> = (0..words).map(|_| xorshift(seed)).collect();
                if let Some(last) = row.last_mut() {
                    *last &= tail;
                }
                row
            })
            .collect()
    }

    /// `rows` in the [`ROW_LANES`]-interleaved layout, padded with zero
    /// rows to a whole number of blocks.
    fn interleave(rows: &[Vec<u64>], words_per_row: usize) -> Vec<u64> {
        let padded = rows.len().div_ceil(ROW_LANES) * ROW_LANES;
        let mut out = vec![0u64; padded * words_per_row];
        for (r, row) in rows.iter().enumerate() {
            let (block, lane) = (r / ROW_LANES, r % ROW_LANES);
            for (j, &w) in row.iter().enumerate() {
                out[(block * words_per_row + j) * ROW_LANES + lane] = w;
            }
        }
        out
    }

    /// Matching bits of `a` and `b` over `width` bits, one bit at a time.
    fn oracle_count(a: &[u64], b: &[u64], width: usize) -> u32 {
        (0..width)
            .filter(|&i| (a[i / 64] >> (i % 64)) & 1 == (b[i / 64] >> (i % 64)) & 1)
            .count() as u32
    }

    type FusedKernel = Box<dyn Fn(&[u64], usize, &[i64], &[u8], &[u64], &mut [u64])>;

    /// Every fused rows kernel this host can run, plus the dispatched one.
    fn fused_kernels() -> Vec<(&'static str, FusedKernel)> {
        let mut kernels: Vec<(&'static str, FusedKernel)> = vec![
            ("scalar", Box::new(xnor_threshold_pack_rows_scalar)),
            ("dispatched", Box::new(xnor_threshold_pack_rows)),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                kernels.push((
                    "avx2",
                    Box::new(|b, w, t, n, x, d| {
                        // SAFETY: avx2 detected on this host; the test
                        // operands satisfy the kernel's size contract.
                        unsafe { xnor_threshold_pack_rows_avx2(b, w, t, n, x, d) }
                    }),
                ));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512vpopcntdq") {
                kernels.push((
                    "avx512",
                    Box::new(|b, w, t, n, x, d| {
                        // SAFETY: avx512f + avx512vpopcntdq detected on this
                        // host; the test operands satisfy the size contract.
                        unsafe { xnor_threshold_pack_rows_avx512(b, w, t, n, x, d) }
                    }),
                ));
            }
        }
        kernels
    }

    #[test]
    fn batched_rows_kernel_matches_per_row_oracle() {
        let mut seed = 0x1357_9bdf_2468_ace0u64;
        for width in WIDTHS {
            let words_per_row = width.div_ceil(WORD_BITS);
            let slack = (words_per_row * WORD_BITS - width) as u32;
            for rows in ROW_COUNTS {
                let matrix = random_rows(rows, width, &mut seed);
                let blocks = interleave(&matrix, words_per_row);
                let x = random_rows(1, width, &mut seed).remove(0);
                let padded = rows.div_ceil(ROW_LANES) * ROW_LANES;
                let want: Vec<u32> = matrix
                    .iter()
                    .map(|row| oracle_count(row, &x, width) + slack)
                    .collect();

                let mut runs: Vec<(&str, Vec<u32>)> = Vec::new();
                let mut got = vec![u32::MAX; padded];
                xnor_popcount_rows_scalar(&blocks, words_per_row, &x, &mut got);
                runs.push(("scalar", got));
                let mut got = vec![u32::MAX; padded];
                xnor_popcount_rows(&blocks, words_per_row, &x, &mut got);
                runs.push(("dispatched", got));
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx2") {
                        let mut got = vec![u32::MAX; padded];
                        // SAFETY: avx2 detected on this host.
                        unsafe { xnor_popcount_rows_avx2(&blocks, words_per_row, &x, &mut got) };
                        runs.push(("avx2", got));
                    }
                    if is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx512vpopcntdq")
                    {
                        let mut got = vec![u32::MAX; padded];
                        // SAFETY: avx512f + avx512vpopcntdq detected on this host.
                        unsafe { xnor_popcount_rows_avx512(&blocks, words_per_row, &x, &mut got) };
                        runs.push(("avx512", got));
                    }
                }
                for (name, got) in runs {
                    assert_eq!(
                        &got[..rows],
                        &want[..],
                        "{name} rows kernel, {rows}×{width}"
                    );
                }
            }
        }
    }

    #[test]
    fn fused_rows_kernels_match_per_row_count_and_fire() {
        let mut seed = 0x0bad_cafe_1234_5678u64;
        let kernels = fused_kernels();
        for width in WIDTHS {
            let words_per_row = width.div_ceil(WORD_BITS);
            let slack = (words_per_row * WORD_BITS - width) as i64;
            let w = width as i64;
            let edges = [i64::MIN, 0, w, w + 1, i64::MAX];
            for rows in ROW_COUNTS {
                let matrix = random_rows(rows, width, &mut seed);
                let blocks = interleave(&matrix, words_per_row);
                let padded = rows.div_ceil(ROW_LANES) * ROW_LANES;
                let dst_words = rows.div_ceil(WORD_BITS);
                // Twelve rule rotations give every row count each edge
                // threshold (and a mid-range one) with negate on and off.
                for rotation in 0..12 {
                    let rules: Vec<(i64, bool)> = (0..rows)
                        .map(|r| {
                            let k = r + rotation;
                            let min = edges.get(k % 6).copied().unwrap_or(w / 2);
                            (min, (k / 6) % 2 == 1)
                        })
                        .collect();
                    let mut thresholds = vec![i64::MAX; padded];
                    let mut negate = vec![0u8; padded / ROW_LANES];
                    for (r, &(min, neg)) in rules.iter().enumerate() {
                        thresholds[r] = min.saturating_add(slack);
                        negate[r / ROW_LANES] |= u8::from(neg) << (r % ROW_LANES);
                    }
                    for n in 1..=9usize {
                        let samples = random_rows(n, width, &mut seed);
                        let xs: Vec<u64> = samples.concat();
                        let mut want = vec![0u64; n * dst_words];
                        for (i, x) in samples.iter().enumerate() {
                            for (r, (row, &(min, neg))) in matrix.iter().zip(&rules).enumerate() {
                                let fire = (oracle_count(row, x, width) as i64 >= min) ^ neg;
                                want[i * dst_words + r / 64] |= u64::from(fire) << (r % 64);
                            }
                        }
                        for (name, kernel) in &kernels {
                            let mut dst = vec![u64::MAX; n * dst_words];
                            kernel(&blocks, words_per_row, &thresholds, &negate, &xs, &mut dst);
                            assert_eq!(
                                dst, want,
                                "{name} fused kernel, {rows}×{width}, batch {n}, rotation {rotation}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn all_ones_and_all_zeros() {
        let ones = vec![u64::MAX; 33];
        let zeros = vec![0u64; 33];
        assert_eq!(xnor_popcount_words(&ones, &ones), 33 * 64);
        assert_eq!(xnor_popcount_words(&ones, &zeros), 0);
        assert_eq!(xnor_popcount_words(&zeros, &zeros), 33 * 64);
    }
}
