//! Cross-kernel parity: the runtime-dispatched SIMD kernels must be
//! bitwise equal to the forced-scalar oracle on every public entry point,
//! at every word-boundary length, on adversarial float inputs (NaN,
//! `±0.0`, infinities) — the invariant ARCHITECTURE.md states as "numeric
//! results are host-invariant; the instruction set only changes speed".

use std::sync::Mutex;

use rbnn_tensor::{
    clear_forced_scalar, set_forced_scalar, sign_bit, xnor_popcount, BitMatrix, BitVec, Tensor,
};

/// Serializes tests that toggle the process-global forced-scalar override.
static SCALAR_TOGGLE: Mutex<()> = Mutex::new(());

/// Bit lengths hitting every word-boundary edge: empty, single bit, one
/// bit below/at/above one and two words, and a long multi-block length
/// that exercises the Harley-Seal 16-vector blocks (8191 = 128 words − 1).
const EDGE_LENGTHS: &[usize] = &[0, 1, 63, 64, 65, 127, 128, 8191];

fn xorshift(seed: &mut u64) -> u64 {
    *seed ^= *seed << 13;
    *seed ^= *seed >> 7;
    *seed ^= *seed << 17;
    *seed
}

/// Pseudorandom floats salted with the special values the canonical
/// `sign_bit` predicate pins: NaN → −1, `-0.0` → +1.
fn adversarial_values(len: usize, seed: &mut u64) -> Vec<f32> {
    (0..len)
        .map(|i| match i % 11 {
            0 => f32::NAN,
            1 => -0.0,
            2 => 0.0,
            3 => f32::NEG_INFINITY,
            4 => f32::INFINITY,
            5 => -f32::NAN,
            _ => (xorshift(seed) as i64 as f32) / 1e17,
        })
        .collect()
}

fn random_words(n: usize, seed: &mut u64) -> Vec<u64> {
    (0..n).map(|_| xorshift(&mut *seed)).collect()
}

/// Runs `f` once with the scalar override on and once with dispatch
/// active, returning both results for bitwise comparison.
fn both_modes<T>(mut f: impl FnMut() -> T) -> (T, T) {
    set_forced_scalar(true);
    let scalar = f();
    set_forced_scalar(false);
    let dispatched = f();
    clear_forced_scalar();
    (scalar, dispatched)
}

#[test]
fn popcount_dispatched_matches_scalar_at_word_boundaries() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0x9e37_79b9_7f4a_7c15u64;
    for &len in EDGE_LENGTHS {
        let nw = len.div_ceil(64);
        let a = random_words(nw, &mut seed);
        let b = random_words(nw, &mut seed);
        let (scalar, dispatched) = both_modes(|| xnor_popcount(&a, &b, len));
        assert_eq!(scalar, dispatched, "len {len}");
        // And against a per-bit oracle.
        let mut expect = 0u32;
        for i in 0..len {
            let ba = (a[i / 64] >> (i % 64)) & 1;
            let bb = (b[i / 64] >> (i % 64)) & 1;
            expect += (ba == bb) as u32;
        }
        assert_eq!(dispatched, expect, "len {len} vs per-bit oracle");
    }
}

#[test]
fn popcount_ignores_junk_words_beyond_words_for_len() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0x2545_f491_4f6c_dd1du64;
    for &len in EDGE_LENGTHS {
        let nw = len.div_ceil(64);
        let mut a = random_words(nw, &mut seed);
        let mut b = random_words(nw, &mut seed);
        let clean = xnor_popcount(&a, &b, len);
        // Slices longer than words_for(len), padded with junk the kernel
        // must never read into the count — including a full-ones word that
        // would add 64 matches if the tail masking slipped.
        a.extend_from_slice(&[u64::MAX, 0xdead_beef_dead_beefu64, 0]);
        b.extend_from_slice(&[u64::MAX, 0x1234_5678_9abc_def0u64, u64::MAX]);
        let (scalar, dispatched) = both_modes(|| xnor_popcount(&a, &b, len));
        assert_eq!(scalar, clean, "len {len}: scalar read past words_for");
        assert_eq!(
            dispatched, clean,
            "len {len}: dispatched read past words_for"
        );
    }
}

#[test]
fn bitvec_ops_dispatched_match_scalar_bitwise() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0xda3e_39cb_94b9_5bdbu64;
    for &len in EDGE_LENGTHS {
        let values_a = adversarial_values(len, &mut seed);
        let values_b = adversarial_values(len, &mut seed);
        let (scalar, dispatched) = both_modes(|| {
            let va = BitVec::from_signs(&values_a);
            let vb = BitVec::from_signs(&values_b);
            let pop = if len > 0 { va.xnor_popcount(&vb) } else { 0 };
            (va.as_words().to_vec(), vb.as_words().to_vec(), pop)
        });
        assert_eq!(scalar, dispatched, "len {len}");
    }
}

#[test]
fn bitmatrix_packing_dispatched_matches_scalar_bitwise() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0xb5ad_4ece_da1c_e2a9u64;
    for &cols in &[1usize, 63, 64, 65, 127, 128, 408] {
        let rows = 5usize;
        let values = adversarial_values(rows * cols, &mut seed);
        let (scalar, dispatched) = both_modes(|| BitMatrix::from_signs(&values, rows, cols));
        assert_eq!(scalar, dispatched, "cols {cols}");
    }
}

/// Satellite 2: the four binarization entry points share one canonical
/// predicate, so NaN and `-0.0` (and everything else) map identically
/// through every one of them.
#[test]
fn binarization_semantics_pinned_across_entry_points() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0xc2b2_ae3d_27d4_eb4fu64;
    let values = adversarial_values(131, &mut seed);
    for forced in [true, false] {
        set_forced_scalar(forced);
        let bv = BitVec::from_signs(&values);
        let bm = BitMatrix::from_signs(&values, 1, values.len());
        let t = Tensor::from_vec(values.clone(), &[values.len()]);
        let sig = t.signum_binary();
        let mut sig_into = Tensor::zeros(&[values.len()]);
        t.signum_binary_into(&mut sig_into);
        for (i, &v) in values.iter().enumerate() {
            let expect = sign_bit(v);
            assert_eq!(bv.get(i), expect, "BitVec bit {i} of {v} (forced={forced})");
            assert_eq!(bm.get(0, i), expect, "BitMatrix bit {i} of {v}");
            assert_eq!(sig.as_slice()[i] == 1.0, expect, "signum_binary {i} of {v}");
            assert_eq!(
                sig_into.as_slice()[i],
                sig.as_slice()[i],
                "signum_binary_into {i} of {v}"
            );
            // The predicate itself stays what the docs promise.
            if v.is_nan() {
                assert!(!expect, "NaN must binarize to -1");
            }
            if v == 0.0 {
                assert!(expect, "±0.0 must binarize to +1");
            }
        }
    }
    clear_forced_scalar();
}

#[test]
fn matmul_dispatched_matches_scalar_bitwise() {
    let _guard = SCALAR_TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
    let mut seed = 0x27d4_eb2f_1656_67c5u64;
    for &(m, k, n) in &[
        (1usize, 1usize, 1usize),
        (4, 16, 16),
        (5, 17, 19),
        (31, 300, 33),
    ] {
        let a_values: Vec<f32> = (0..m * k)
            .map(|_| (xorshift(&mut seed) as i64 as f32) / 1e17)
            .collect();
        let b_values: Vec<f32> = (0..k * n)
            .map(|_| (xorshift(&mut seed) as i64 as f32) / 1e17)
            .collect();
        let ta = Tensor::from_vec(a_values, &[m, k]);
        let tb = Tensor::from_vec(b_values, &[k, n]);
        let (scalar, dispatched) = both_modes(|| ta.matmul(&tb));
        for (i, (s, d)) in scalar
            .as_slice()
            .iter()
            .zip(dispatched.as_slice())
            .enumerate()
        {
            assert_eq!(
                s.to_bits(),
                d.to_bits(),
                "({m},{k},{n}) elem {i}: {s} vs {d}"
            );
        }
    }
}
