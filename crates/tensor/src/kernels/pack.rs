//! Float sign-packing kernels: the canonical binarization predicate and
//! the word packers built on it.
//!
//! Binarization semantics are pinned **here, once**, by [`sign_bit`]:
//! `x >= 0.0`, so `+0.0` and `-0.0` both binarize to `+1` (IEEE comparison
//! treats them as equal) and NaN binarizes to `-1` (every ordered
//! comparison with NaN is false). `BitVec::from_signs`,
//! `BitMatrix::from_signs`, `Tensor::signum_binary` and
//! `signum_binary_into` all route through this predicate, and the AVX and
//! AVX-512 packers reproduce it exactly (`_CMP_GE_OQ` is ordered-quiet:
//! false on NaN, true on `-0.0 >= +0.0`) — so packed words are bitwise
//! identical across kernels and hosts regardless of input cleanliness.

use super::dispatch::{pack_kernel, PackKernel};

const WORD_BITS: usize = 64;

/// The canonical binarization predicate: `true` (bit 1, value +1) iff
/// `x >= 0.0`. NaN maps to `false` (−1); `-0.0` maps to `true` (+1).
#[inline]
pub fn sign_bit(x: f32) -> bool {
    x >= 0.0
}

/// Packs the signs of `values` into `words`, 64 bits per word, dispatched
/// to the fastest kernel the host supports (forced-scalar override
/// respected). Tail bits beyond `values.len()` are written as zero.
///
/// `words` must hold exactly `values.len().div_ceil(64)` words (checked).
#[inline]
pub(crate) fn pack_signs(values: &[f32], words: &mut [u64]) {
    assert!(
        words.len() == values.len().div_ceil(WORD_BITS),
        "pack_signs: words/values size mismatch"
    );
    match pack_kernel() {
        PackKernel::Scalar => pack_signs_scalar(values, words),
        // SAFETY: `PackKernel::Avx` is only ever selected by
        // `pack_kernel()` after `is_x86_feature_detected!("avx")`
        // confirmed the host executes AVX instructions.
        #[cfg(target_arch = "x86_64")]
        PackKernel::Avx => unsafe { pack_signs_avx(values, words) },
        // SAFETY: `PackKernel::Avx512` is only selected after runtime
        // detection of `avx512f`; the size check above bounds every word.
        #[cfg(target_arch = "x86_64")]
        PackKernel::Avx512 => unsafe { pack_signs_avx512(values, words) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => pack_signs_scalar(values, words),
    }
}

/// The canonical scalar packer — branchless bit loop, the parity oracle
/// every SIMD packer must match bit for bit.
#[inline]
pub(crate) fn pack_signs_scalar(values: &[f32], words: &mut [u64]) {
    for (chunk, word) in values.chunks(WORD_BITS).zip(words.iter_mut()) {
        let mut acc = 0u64;
        for (i, &v) in chunk.iter().enumerate() {
            acc |= (sign_bit(v) as u64) << i;
        }
        *word = acc;
    }
}

/// AVX packer: `vcmpps` (ordered-quiet `>=`) plus `vmovmskps` extract
/// 8 sign bits per instruction pair, 64 per packed word.
///
/// # Safety
///
/// Caller must ensure the host supports AVX, and `words` must hold
/// `values.len().div_ceil(64)` words (checked by the dispatch wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn pack_signs_avx(values: &[f32], words: &mut [u64]) {
    use std::arch::x86_64::*;

    let zero = _mm256_setzero_ps();
    let full = values.len() / WORD_BITS;
    let vp = values.as_ptr();
    let (head, tail) = words.split_at_mut(full.min(words.len()));
    for (w, word) in head.iter_mut().enumerate() {
        let base = vp.add(w * WORD_BITS);
        let mut acc = 0u64;
        for g in 0..8 {
            let v = _mm256_loadu_ps(base.add(g * 8));
            // `_CMP_GE_OQ` matches `sign_bit` exactly: NaN compares false,
            // -0.0 >= +0.0 compares true.
            let m = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, zero)) as u32 as u64;
            acc |= m << (g * 8);
        }
        *word = acc;
    }
    // Partial final word: `vcmpps` on its whole 8-float groups, the scalar
    // oracle on the remaining < 8 floats.
    if let Some(word) = tail.first_mut() {
        let (_, rest) = values.split_at(full * WORD_BITS);
        let groups = rest.len() / 8;
        let mut acc = 0u64;
        for g in 0..groups {
            let v = _mm256_loadu_ps(rest.as_ptr().add(g * 8));
            let m = _mm256_movemask_ps(_mm256_cmp_ps::<_CMP_GE_OQ>(v, zero)) as u32 as u64;
            acc |= m << (g * 8);
        }
        let (_, last) = rest.split_at(groups * 8);
        for (i, &v) in last.iter().enumerate() {
            acc |= (sign_bit(v) as u64) << (groups * 8 + i);
        }
        *word = acc;
    }
}

/// AVX-512 packer: one `vcmpps` into a mask register per 16 floats, four
/// per packed word. The partial final word uses masked loads; lanes past
/// the end load as `0.0`, which compares true, so each compare is ANDed
/// with its load mask to keep tail bits zero.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F, and `words` must hold
/// `values.len().div_ceil(64)` words (checked by the dispatch wrapper).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn pack_signs_avx512(values: &[f32], words: &mut [u64]) {
    use std::arch::x86_64::*;

    const LANES: usize = 16;
    let zero = _mm512_setzero_ps();
    let full = values.len() / WORD_BITS;
    let vp = values.as_ptr();
    // `_CMP_GE_OQ` matches `sign_bit` exactly: NaN compares false,
    // -0.0 >= +0.0 compares true.
    let signs = |v: __m512| u64::from(_mm512_cmp_ps_mask::<_CMP_GE_OQ>(v, zero));
    let (head, tail) = words.split_at_mut(full.min(words.len()));
    for (w, word) in head.iter_mut().enumerate() {
        let base = vp.add(w * WORD_BITS);
        let mut acc = 0u64;
        for g in 0..WORD_BITS / LANES {
            acc |= signs(_mm512_loadu_ps(base.add(g * LANES))) << (g * LANES);
        }
        *word = acc;
    }
    // Partial final word: masked loads neither read nor fault past the end.
    if let Some(word) = tail.first_mut() {
        let (_, rest) = values.split_at(full * WORD_BITS);
        let mut acc = 0u64;
        for (g, group) in rest.chunks(LANES).enumerate() {
            let load: __mmask16 = (1u32 << group.len()).wrapping_sub(1) as __mmask16;
            let v = _mm512_maskz_loadu_ps(load, group.as_ptr());
            acc |= (signs(v) & u64::from(load)) << (g * LANES);
        }
        *word = acc;
    }
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

    fn adversarial_values(len: usize, seed: &mut u64) -> Vec<f32> {
        (0..len)
            .map(|i| match i % 7 {
                // Special values every kernel must binarize identically.
                0 => f32::NAN,
                1 => -0.0,
                2 => 0.0,
                3 => f32::NEG_INFINITY,
                4 => f32::INFINITY,
                _ => (xorshift(seed) as i64 as f32) / 1e18,
            })
            .collect()
    }

    #[test]
    fn avx_pack_matches_scalar_bitwise() {
        let mut seed = 0x13198a2e_03707344u64;
        for len in [
            0usize, 1, 7, 8, 15, 16, 17, 63, 64, 65, 127, 128, 200, 408, 8191,
        ] {
            let values = adversarial_values(len, &mut seed);
            let nw = len.div_ceil(WORD_BITS);
            let mut scalar_words = vec![0u64; nw];
            pack_signs_scalar(&values, &mut scalar_words);
            #[cfg(target_arch = "x86_64")]
            {
                if is_x86_feature_detected!("avx") {
                    let mut simd_words = vec![u64::MAX; nw];
                    // SAFETY: avx detected on this host.
                    unsafe { pack_signs_avx(&values, &mut simd_words) };
                    assert_eq!(simd_words, scalar_words, "avx mismatch at {len} floats");
                }
                if is_x86_feature_detected!("avx512f") {
                    let mut simd_words = vec![u64::MAX; nw];
                    // SAFETY: avx512f detected on this host.
                    unsafe { pack_signs_avx512(&values, &mut simd_words) };
                    assert_eq!(simd_words, scalar_words, "avx512 mismatch at {len} floats");
                }
            }
            let mut dispatched = vec![u64::MAX; nw];
            pack_signs(&values, &mut dispatched);
            assert_eq!(dispatched, scalar_words, "dispatch mismatch at {len}");
        }
    }

    #[test]
    fn sign_bit_pins_special_cases() {
        assert!(sign_bit(0.0));
        assert!(sign_bit(-0.0), "-0.0 binarizes to +1");
        assert!(sign_bit(f32::INFINITY));
        assert!(!sign_bit(f32::NAN), "NaN binarizes to -1");
        assert!(!sign_bit(-f32::NAN));
        assert!(!sign_bit(f32::NEG_INFINITY));
        assert!(!sign_bit(-f32::EPSILON));
        assert!(sign_bit(f32::MIN_POSITIVE));
    }
}
