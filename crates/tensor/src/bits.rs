//! Bit-packed ±1 vectors and matrices with XNOR/popcount kernels.
//!
//! A binarized neural network layer evaluates Eq. 3 of the paper,
//! `y = sign(popcount(XNOR(w, x)) − b)`: weights and activations take values
//! in {−1, +1}, encoded here as single bits (`1 ↔ +1`, `0 ↔ −1`) packed into
//! `u64` words. The XNOR of two bits is `1` exactly when the corresponding
//! ±1 values multiply to +1, so the ±1 dot product of two length-`n` vectors
//! is `2·popcount(XNOR) − n`.

use std::fmt;

use crate::kernels::{pack, popcount};

const WORD_BITS: usize = 64;

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// Mask with ones in the valid bit positions of the final word.
#[inline]
fn tail_mask(len: usize) -> u64 {
    let rem = len % WORD_BITS;
    if rem == 0 {
        u64::MAX
    } else {
        (1u64 << rem) - 1
    }
}

/// Fills `words` from a bit predicate over `0..len`, branchlessly.
#[inline]
fn pack_words(words: &mut [u64], len: usize, bit: impl Fn(usize) -> bool) {
    for (w, word) in words.iter_mut().enumerate() {
        let base = w * WORD_BITS;
        let n = WORD_BITS.min(len - base);
        let mut acc = 0u64;
        for i in 0..n {
            acc |= (bit(base + i) as u64) << i;
        }
        *word = acc;
    }
}

/// ORs the low `nbits ≤ 64` bits of `value` into `words` starting at bit
/// position `pos` (destination bits assumed clear; may straddle two words).
#[inline]
fn write_bits(words: &mut [u64], pos: usize, nbits: usize, value: u64) {
    debug_assert!(nbits <= WORD_BITS);
    let w = pos / WORD_BITS;
    let shift = pos % WORD_BITS;
    words[w] |= value << shift;
    if shift != 0 && shift + nbits > WORD_BITS {
        words[w + 1] |= value >> (WORD_BITS - shift);
    }
}

/// Counts positions where `a` and `b` hold the same bit, over `len` bits.
///
/// This is `popcount(XNOR(a, b))` restricted to the first `len` bits; the
/// corresponding ±1 dot product is `2 · xnor_popcount(a, b, len) − len`.
///
/// # Panics
///
/// Panics if either slice is shorter than `len` bits requires.
#[inline]
pub fn xnor_popcount(a: &[u64], b: &[u64], len: usize) -> u32 {
    let nw = words_for(len);
    assert!(
        a.len() >= nw && b.len() >= nw,
        "operand shorter than {len} bits"
    );
    // Full words go through the runtime-dispatched kernel (scalar oracle /
    // AVX2 Harley-Seal / AVX-512 VPOPCNTDQ — all bitwise equal), then the
    // partially occupied tail word is masked and counted once. Slicing to
    // `full` words here means the SIMD kernels never see tail or
    // out-of-range words.
    let full = if len.is_multiple_of(WORD_BITS) {
        nw
    } else {
        nw - 1
    };
    let mut count = popcount::xnor_popcount_words(&a[..full], &b[..full]);
    if full < nw {
        count += ((!(a[full] ^ b[full])) & tail_mask(len)).count_ones();
    }
    count
}

/// Packs the signs of `values` into caller-provided `words` via the
/// canonical [`sign_bit`](crate::sign_bit) predicate (`x ≥ 0` → bit 1 /
/// value +1), through the runtime-dispatched packing kernel. Tail bits
/// beyond `values.len()` are written as zero.
///
/// This is the word-level entry the execution plans use to pack input
/// rows directly into an execution-plan arena with no intermediate
/// [`BitVec`]/[`BitMatrix`]; it produces exactly the words
/// [`BitVec::from_signs`] would.
///
/// # Panics
///
/// Panics unless `words.len() == values.len().div_ceil(64)`.
#[inline]
pub fn pack_signs_into(values: &[f32], words: &mut [u64]) {
    pack::pack_signs(values, words);
}

/// A bit-packed vector of ±1 values (`1 ↔ +1`, `0 ↔ −1`).
///
/// ```
/// use rbnn_tensor::BitVec;
///
/// let w = BitVec::from_signs(&[1.0, -1.0, 1.0, 1.0]);
/// let x = BitVec::from_signs(&[1.0, 1.0, -1.0, 1.0]);
/// // ±1 dot product: 1·1 + (−1)·1 + 1·(−1) + 1·1 = 0
/// assert_eq!(w.dot_pm1(&x), 0);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates an all-zero (all −1) vector of `len` bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; words_for(len)],
            len,
        }
    }

    /// Packs the signs of a float slice via the canonical
    /// [`sign_bit`](crate::sign_bit) predicate (`x ≥ 0` becomes bit 1 /
    /// value +1, NaN → −1, `-0.0` → +1, matching
    /// [`Tensor::signum_binary`](crate::Tensor::signum_binary)).
    ///
    /// Word-at-a-time, branchless, and runtime-dispatched to the AVX
    /// movemask kernel where the host supports it: sign-random data would
    /// mispredict a per-bit branch on nearly every element, which once
    /// dominated the whole inference hot path.
    pub fn from_signs(values: &[f32]) -> Self {
        let mut v = Self::zeros(values.len());
        pack::pack_signs(values, &mut v.words);
        v
    }

    /// Builds a vector of `len` bits from pre-packed words (e.g. a row of
    /// an execution-plan arena). Bits beyond `len` in the final word are
    /// masked off, so callers may pass words whose tail bits are stale.
    ///
    /// # Panics
    ///
    /// Panics unless `words.len() == len.div_ceil(64)`.
    pub fn from_words(words: &[u64], len: usize) -> Self {
        assert!(
            words.len() == words_for(len),
            "from_words: words/len mismatch"
        );
        let mut v = Self {
            words: words.to_vec(),
            len,
        };
        if let Some(last) = v.words.last_mut() {
            *last &= tail_mask(len);
        }
        v
    }

    /// Packs a boolean slice.
    pub fn from_bools(values: &[bool]) -> Self {
        let mut v = Self::zeros(values.len());
        pack_words(&mut v.words, values.len(), |i| values[i]);
        v
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Flips bit `i` (used by the RRAM fault-injection model).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn flip(&mut self, i: usize) {
        assert!(
            i < self.len,
            "bit index {i} out of range for length {}",
            self.len
        );
        self.words[i / WORD_BITS] ^= 1u64 << (i % WORD_BITS);
    }

    /// Number of set bits (+1 values).
    pub fn count_ones(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Number of set bits among the first `n` positions.
    ///
    /// # Panics
    ///
    /// Panics if `n > len`.
    #[inline]
    pub fn count_ones_first(&self, n: usize) -> u32 {
        assert!(n <= self.len, "prefix {n} longer than vector {}", self.len);
        if n == 0 {
            return 0;
        }
        let full = n / WORD_BITS;
        let mut count: u32 = self.words[..full].iter().map(|w| w.count_ones()).sum();
        let rem = n % WORD_BITS;
        if rem != 0 {
            count += (self.words[full] & ((1u64 << rem) - 1)).count_ones();
        }
        count
    }

    /// Copies `take` bits starting at `start` into a fresh vector of length
    /// `out_len ≥ take`, zero-padded at the tail — the word-level kernel
    /// behind tiled engines slicing a batch input across column tiles.
    ///
    /// # Panics
    ///
    /// Panics if `start + take > len` or `take > out_len`.
    pub fn slice_padded(&self, start: usize, take: usize, out_len: usize) -> BitVec {
        assert!(
            start + take <= self.len,
            "slice {start}+{take} exceeds length {}",
            self.len
        );
        assert!(
            take <= out_len,
            "slice of {take} bits cannot fit output of {out_len}"
        );
        let mut out = BitVec::zeros(out_len);
        if take == 0 {
            return out;
        }
        let word0 = start / WORD_BITS;
        let shift = start % WORD_BITS;
        let out_words = take.div_ceil(WORD_BITS);
        for w in 0..out_words {
            let lo = self.words.get(word0 + w).copied().unwrap_or(0) >> shift;
            let hi = if shift == 0 {
                0
            } else {
                self.words.get(word0 + w + 1).copied().unwrap_or(0) << (WORD_BITS - shift)
            };
            out.words[w] = lo | hi;
        }
        // Mask bits beyond `take` so padding stays −1 (zero bits).
        let rem = take % WORD_BITS;
        if rem != 0 {
            out.words[out_words - 1] &= (1u64 << rem) - 1;
        }
        for w in &mut out.words[out_words..] {
            *w = 0;
        }
        out
    }

    /// The packed words (tail bits beyond `len` are always zero).
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Extracts `nbits ≤ 64` bits starting at `start` as the low bits of a
    /// `u64` (word-level: two shifts instead of a per-bit loop). Positions
    /// past `len` read as zero.
    ///
    /// # Panics
    ///
    /// Panics if `nbits > 64` or `start >= len` for a non-empty read.
    #[inline]
    pub fn extract_bits(&self, start: usize, nbits: usize) -> u64 {
        assert!(nbits <= WORD_BITS, "cannot extract more than 64 bits");
        if nbits == 0 {
            return 0;
        }
        assert!(
            start < self.len,
            "bit index {start} out of range for length {}",
            self.len
        );
        let w = start / WORD_BITS;
        let shift = start % WORD_BITS;
        let lo = self.words[w] >> shift;
        let hi = if shift == 0 {
            0
        } else {
            self.words.get(w + 1).copied().unwrap_or(0) << (WORD_BITS - shift)
        };
        let v = lo | hi;
        if nbits == WORD_BITS {
            v
        } else {
            v & ((1u64 << nbits) - 1)
        }
    }

    /// Number of positions where `self` and `other` agree.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn xnor_popcount(&self, other: &BitVec) -> u32 {
        assert_eq!(self.len, other.len, "xnor_popcount: length mismatch");
        xnor_popcount(&self.words, &other.words, self.len)
    }

    /// Number of positions among the first `n` where `self` and `other`
    /// agree — [`xnor_popcount`](Self::xnor_popcount) restricted to a
    /// prefix, the word-level kernel behind partially occupied edge tiles
    /// (padding columns excluded from the popcount but not re-scanned
    /// bit-by-bit).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ or `n > len`.
    #[inline]
    pub fn xnor_popcount_first(&self, other: &BitVec, n: usize) -> u32 {
        assert_eq!(self.len, other.len, "xnor_popcount_first: length mismatch");
        assert!(n <= self.len, "prefix {n} longer than vector {}", self.len);
        xnor_popcount(&self.words, &other.words, n)
    }

    /// Element-wise XNOR: bit `i` of the result is set when `self` and
    /// `other` agree at `i` (±1 product of +1). Tail bits beyond `len`
    /// stay zero.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xnor(&self, other: &BitVec) -> BitVec {
        assert_eq!(self.len, other.len, "xnor: length mismatch");
        let mut out = BitVec::zeros(self.len);
        for (o, (a, b)) in out
            .words
            .iter_mut()
            .zip(self.words.iter().zip(&other.words))
        {
            *o = !(a ^ b);
        }
        if let Some(last) = out.words.last_mut() {
            *last &= tail_mask(self.len);
        }
        out
    }

    /// ±1 dot product: `2 · xnor_popcount − len`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    #[inline]
    pub fn dot_pm1(&self, other: &BitVec) -> i32 {
        2 * self.xnor_popcount(other) as i32 - self.len as i32
    }

    /// Expands back to a ±1 float vector.
    pub fn to_signs(&self) -> Vec<f32> {
        (0..self.len)
            .map(|i| if self.get(i) { 1.0 } else { -1.0 })
            .collect()
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec(len={}, ones={})", self.len, self.count_ones())
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        Self::from_bools(&bools)
    }
}

/// A dense matrix of ±1 values, bit-packed row by row.
///
/// Each row starts on a fresh `u64` boundary so rows can be handed to
/// [`xnor_popcount`] directly — this mirrors how weight rows map onto RRAM
/// array word lines in the paper's architecture (Fig 5).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitMatrix {
    rows: usize,
    cols: usize,
    words_per_row: usize,
    data: Vec<u64>,
}

impl BitMatrix {
    /// Creates an all −1 matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let wpr = words_for(cols);
        Self {
            rows,
            cols,
            words_per_row: wpr,
            data: vec![0; wpr * rows],
        }
    }

    /// Packs the signs of a row-major float matrix of shape `[rows, cols]`
    /// via the canonical [`sign_bit`](crate::sign_bit) predicate
    /// (branchless, word-at-a-time, runtime-dispatched — see
    /// [`BitVec::from_signs`]).
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != rows * cols`.
    pub fn from_signs(values: &[f32], rows: usize, cols: usize) -> Self {
        assert_eq!(values.len(), rows * cols, "from_signs: size mismatch");
        let mut m = Self::zeros(rows, cols);
        for r in 0..rows {
            let row_values = &values[r * cols..(r + 1) * cols];
            let row_words = &mut m.data[r * m.words_per_row..(r + 1) * m.words_per_row];
            pack::pack_signs(row_values, row_words);
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> bool {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        (self.data[r * self.words_per_row + c / WORD_BITS] >> (c % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, value: bool) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        let mask = 1u64 << (c % WORD_BITS);
        let w = &mut self.data[r * self.words_per_row + c / WORD_BITS];
        if value {
            *w |= mask;
        } else {
            *w &= !mask;
        }
    }

    /// Flips bit `(r, c)` (fault injection).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn flip(&mut self, r: usize, c: usize) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of range"
        );
        self.data[r * self.words_per_row + c / WORD_BITS] ^= 1u64 << (c % WORD_BITS);
    }

    /// The packed words of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    #[inline]
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range");
        &self.data[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Copies row `r` into an owned [`BitVec`].
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> BitVec {
        BitVec {
            words: self.row_words(r).to_vec(),
            len: self.cols,
        }
    }

    /// Builds the bit-packed `im2col`-style window matrix of a multichannel
    /// ±1 signal: row `t` holds the kernel window starting at step `t` of
    /// every channel, laid out channel-major then tap-major (matching the
    /// weight layout of `rbnn_nn::Conv1d` and `rbnn_binary::BinaryConv1d`).
    ///
    /// The resulting `[out_len, channels·kernel]` matrix lets a binarized
    /// convolution run as row-versus-row [`xnor_popcount`] — the same
    /// word-level kernel the dense inference and RRAM sense paths use —
    /// instead of assembling each window bit by bit. Each window field is
    /// gathered with [`BitVec::extract_bits`] (two shifts per channel,
    /// kernels up to 64 taps; wider kernels fall back to a per-bit loop).
    ///
    /// # Panics
    ///
    /// Panics if `input` is empty, channel lengths differ, or the signal is
    /// shorter than the kernel.
    pub fn conv1d_windows(input: &[BitVec], kernel: usize) -> BitMatrix {
        assert!(!input.is_empty(), "need at least one input channel");
        assert!(kernel > 0, "kernel must be positive");
        let len = input[0].len();
        assert!(
            input.iter().all(|c| c.len() == len),
            "channel lengths differ"
        );
        assert!(len >= kernel, "input shorter than kernel");
        let channels = input.len();
        let out_len = len - kernel + 1;
        let mut m = BitMatrix::zeros(out_len, channels * kernel);
        for t in 0..out_len {
            let row = &mut m.data[t * m.words_per_row..(t + 1) * m.words_per_row];
            if kernel <= WORD_BITS {
                for (c, chan) in input.iter().enumerate() {
                    write_bits(row, c * kernel, kernel, chan.extract_bits(t, kernel));
                }
            } else {
                for (c, chan) in input.iter().enumerate() {
                    for k in 0..kernel {
                        if chan.get(t + k) {
                            let pos = c * kernel + k;
                            row[pos / WORD_BITS] |= 1u64 << (pos % WORD_BITS);
                        }
                    }
                }
            }
        }
        m
    }

    /// Matrix–vector ±1 product: element `r` is `2·popcount(XNOR(row_r, x)) − cols`.
    ///
    /// This is the operation one RRAM array + XNOR-PCSA column bank +
    /// popcount tree performs for a fully-connected BNN layer.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn matvec_pm1(&self, x: &BitVec) -> Vec<i32> {
        assert_eq!(x.len(), self.cols, "matvec_pm1: length mismatch");
        (0..self.rows)
            .map(|r| {
                2 * xnor_popcount(self.row_words(r), x.as_words(), self.cols) as i32
                    - self.cols as i32
            })
            .collect()
    }

    /// Total number of +1 entries.
    pub fn count_ones(&self) -> u64 {
        self.data.iter().map(|w| w.count_ones() as u64).sum()
    }
}

impl fmt::Debug for BitMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "BitMatrix({}×{}, ones={})",
            self.rows,
            self.cols,
            self.count_ones()
        )
    }
}

/// A [`BitMatrix`] copied into the lane-interleaved layout of the batched
/// XNOR-popcount kernels: rows are grouped in blocks of eight, and within a
/// block word `j` of the eight rows sits contiguously, so one 512-bit load
/// fetches the same word column of the whole block (AVX2 reads it as two
/// 256-bit halves). The layout is the same on every host.
///
/// Built once (an allocation — e.g. at execution-plan compile time) and
/// queried many times. [`popcounts_into`](Self::popcounts_into) counts one
/// operand against every row with one kernel dispatch;
/// [`threshold_pack_into`](Self::threshold_pack_into) runs a whole fused
/// hidden layer — count, threshold against [`RowThresholds`] held in
/// registers, sign-pack — for a batch of operands with one dispatch, the
/// AVX-512 kernel streaming several samples past each loaded weight column.
/// For the short rows typical of fused-executor replay (a few words each),
/// per-row dispatch, bounds checks, and SIMD remainder handling cost more
/// than the popcounts themselves; this layout amortizes all three across
/// the matrix and the batch.
#[derive(Clone, PartialEq, Eq)]
pub struct InterleavedRows {
    words: Vec<u64>,
    rows: usize,
    words_per_row: usize,
    len: usize,
}

impl InterleavedRows {
    /// Copies `m` into interleaved layout, padding the row count up to a
    /// multiple of the lane width with all-zero rows.
    pub fn from_matrix(m: &BitMatrix) -> Self {
        let rows = m.rows();
        let len = m.cols();
        let words_per_row = words_for(len);
        let lanes = popcount::ROW_LANES;
        let padded = rows.div_ceil(lanes) * lanes;
        let mut words = vec![0u64; padded * words_per_row];
        for r in 0..rows {
            let src = m.row_words(r);
            let (block, lane) = (r / lanes, r % lanes);
            for (j, &w) in src.iter().enumerate() {
                words[(block * words_per_row + j) * lanes + lane] = w;
            }
        }
        Self {
            words,
            rows,
            words_per_row,
            len,
        }
    }

    /// Number of real (unpadded) rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row count padded to the kernel's lane width — the minimum length of
    /// the `out` slice passed to [`popcounts_into`](Self::popcounts_into).
    pub fn padded_rows(&self) -> usize {
        if self.words_per_row == 0 {
            return self.rows.div_ceil(popcount::ROW_LANES) * popcount::ROW_LANES;
        }
        self.words.len() / self.words_per_row
    }

    /// Bits per row.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Writes `popcount(XNOR(row_r, x))` over `len` bits into `out[r]` for
    /// every real row, with a single kernel dispatch. Entries of `out`
    /// beyond [`rows`](Self::rows) (up to [`padded_rows`](Self::padded_rows))
    /// are clobbered with unspecified values.
    ///
    /// Tail bits beyond `len` in `x`'s last word **must be zero** (as
    /// [`pack_signs_into`] and [`BitVec::from_signs`] guarantee): the
    /// kernel counts whole words — the XNOR of two all-zero tails is
    /// all-ones — and subtracts the constant tail contribution afterwards,
    /// which is exact only under that invariant. Debug builds assert it.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than one row or `out` is shorter than
    /// [`padded_rows`](Self::padded_rows).
    #[inline]
    pub fn popcounts_into(&self, x: &[u64], out: &mut [u32]) {
        let padded = self.padded_rows();
        assert!(x.len() >= self.words_per_row, "x shorter than one row");
        assert!(out.len() >= padded, "out shorter than padded row count");
        debug_assert!(
            self.words_per_row == 0 || x[self.words_per_row - 1] & !tail_mask(self.len) == 0,
            "x tail bits beyond len must be zero"
        );
        popcount::xnor_popcount_rows(&self.words, self.words_per_row, x, &mut out[..padded]);
        let slack = self.slack() as u32;
        if slack != 0 {
            for c in &mut out[..self.rows] {
                *c -= slack;
            }
        }
    }

    /// Folds per-row firing rules `(min_popcount, negate)` — a row fires
    /// when `(popcount >= min_popcount) ^ negate`, the rule of
    /// `rbnn_binary::FoldedThreshold::fire` — into the layout
    /// [`threshold_pack_into`](Self::threshold_pack_into) compares in
    /// registers.
    ///
    /// The kernels count whole words, so each threshold absorbs the
    /// constant word slack (`min_popcount.saturating_add(slack)`, exact
    /// under the zero-tail invariant). Padded rows get `i64::MAX` with no
    /// negate bit and therefore never fire, which keeps the destination's
    /// tail bits zero for the next layer.
    ///
    /// # Panics
    ///
    /// Panics unless `rules` yields exactly [`rows`](Self::rows) entries.
    pub fn fold_thresholds(&self, rules: impl IntoIterator<Item = (i64, bool)>) -> RowThresholds {
        let slack = self.slack();
        let padded = self.padded_rows();
        let mut min_counts = vec![i64::MAX; padded];
        let mut negate = vec![0u8; padded / popcount::ROW_LANES];
        let mut rows = 0;
        for (r, (min_popcount, neg)) in rules.into_iter().enumerate() {
            assert!(r < self.rows, "more thresholds than rows");
            min_counts[r] = min_popcount.saturating_add(slack as i64);
            negate[r / popcount::ROW_LANES] |= u8::from(neg) << (r % popcount::ROW_LANES);
            rows += 1;
        }
        assert_eq!(rows, self.rows, "one threshold per row");
        RowThresholds {
            min_counts,
            negate,
            slack,
        }
    }

    /// Fused hidden layer over a batch, with a single kernel dispatch: for
    /// every sample row of `xs` (`len().div_ceil(64)` words each), fires
    /// row `r` by `thresholds` on `popcount(XNOR(row_r, x))` and packs the
    /// verdicts into that sample's row of `dst`
    /// (`rows().div_ceil(64)` words each, every word overwritten, tail
    /// bits beyond [`rows`](Self::rows) zero). The batch size is `dst`'s
    /// row count. Bitwise equal to counting each row with [`xnor_popcount`]
    /// and firing it by the folded rule, on every kernel.
    ///
    /// Tail bits beyond `len` in each `x` row **must be zero**, as for
    /// [`popcounts_into`](Self::popcounts_into). Debug builds assert it.
    ///
    /// # Panics
    ///
    /// Panics if `thresholds` was folded for a different matrix shape,
    /// `dst` is not a whole number of rows, or `xs` holds fewer rows.
    #[inline]
    pub fn threshold_pack_into(&self, thresholds: &RowThresholds, xs: &[u64], dst: &mut [u64]) {
        assert!(
            thresholds.min_counts.len() == self.padded_rows() && thresholds.slack == self.slack(),
            "thresholds folded for a different matrix"
        );
        debug_assert!(
            self.words_per_row == 0
                || xs
                    .chunks_exact(self.words_per_row)
                    .all(|x| x[self.words_per_row - 1] & !tail_mask(self.len) == 0),
            "x tail bits beyond len must be zero"
        );
        popcount::xnor_threshold_pack_rows(
            &self.words,
            self.words_per_row,
            &thresholds.min_counts,
            &thresholds.negate,
            xs,
            dst,
        );
    }

    /// Bits of whole-word padding per row: the constant the kernels' XNOR
    /// counts exceed the true counts by under the zero-tail invariant.
    fn slack(&self) -> usize {
        self.words_per_row * WORD_BITS - self.len
    }
}

/// Per-row firing rules of an [`InterleavedRows`] matrix, folded by
/// [`InterleavedRows::fold_thresholds`] into the fused kernel's layout:
/// one `i64` threshold per padded row with the word slack added, and one
/// negate byte per 8-row block, so a block's eight rows are compared and
/// corrected in one vector instruction each.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowThresholds {
    min_counts: Vec<i64>,
    negate: Vec<u8>,
    slack: usize,
}

impl fmt::Debug for InterleavedRows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "InterleavedRows({}×{})", self.rows, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn set_get_flip_roundtrip() {
        let mut v = BitVec::zeros(130);
        assert!(!v.get(129));
        v.set(129, true);
        assert!(v.get(129));
        v.flip(129);
        assert!(!v.get(129));
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn from_signs_zero_is_plus_one() {
        let v = BitVec::from_signs(&[0.0, -0.1, 0.1]);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(2));
    }

    #[test]
    fn dot_pm1_matches_float_dot() {
        let mut rng = StdRng::seed_from_u64(21);
        for len in [1usize, 7, 64, 65, 200] {
            let a: Vec<f32> = (0..len)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let b: Vec<f32> = (0..len)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let fa = a.iter().zip(&b).map(|(x, y)| x * y).sum::<f32>() as i32;
            let bv_a = BitVec::from_signs(&a);
            let bv_b = BitVec::from_signs(&b);
            assert_eq!(bv_a.dot_pm1(&bv_b), fa, "len {len}");
        }
    }

    #[test]
    fn interleaved_rows_match_per_row_popcounts() {
        let mut rng = StdRng::seed_from_u64(31);
        for cols in [1usize, 63, 64, 65, 127, 128, 200] {
            for rows in [1usize, 2, 4, 5, 7, 75] {
                let signs: Vec<f32> = (0..rows * cols)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect();
                let m = BitMatrix::from_signs(&signs, rows, cols);
                let iw = InterleavedRows::from_matrix(&m);
                assert_eq!(iw.rows(), rows);
                assert_eq!(iw.len(), cols);
                assert!(
                    iw.padded_rows() >= rows
                        && iw.padded_rows().is_multiple_of(popcount::ROW_LANES)
                );

                let xs: Vec<f32> = (0..cols)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect();
                let x = BitVec::from_signs(&xs);
                // Dirty scratch: padded entries may be clobbered, real
                // entries must be exact.
                let mut out = vec![u32::MAX; iw.padded_rows()];
                iw.popcounts_into(x.as_words(), &mut out);
                for (r, &got) in out.iter().enumerate().take(rows) {
                    let want = xnor_popcount(m.row_words(r), x.as_words(), cols);
                    assert_eq!(got, want, "row {r}, {rows}×{cols}");
                }
            }
        }
    }

    #[test]
    fn interleaved_threshold_pack_matches_count_and_fire() {
        let mut rng = StdRng::seed_from_u64(37);
        let pm1 = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            (0..n)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect()
        };
        for cols in [1usize, 63, 64, 65, 127, 128, 408] {
            let w = cols as i64;
            let edges = [i64::MIN, 0, w, w + 1, i64::MAX];
            for rows in [1usize, 2, 7, 8, 9, 75, 80] {
                let m = BitMatrix::from_signs(&pm1(&mut rng, rows * cols), rows, cols);
                let iw = InterleavedRows::from_matrix(&m);
                let dst_words = rows.div_ceil(WORD_BITS);
                for rotation in 0..12 {
                    // Every edge threshold (and a random one) with negate
                    // on and off, rotated across the rows.
                    let rules: Vec<(i64, bool)> = (0..rows)
                        .map(|r| {
                            let k = r + rotation;
                            let min = edges
                                .get(k % 6)
                                .copied()
                                .unwrap_or_else(|| rng.gen_range(0..=w));
                            (min, (k / 6) % 2 == 1)
                        })
                        .collect();
                    let folded = iw.fold_thresholds(rules.iter().copied());
                    for n in 1..=9usize {
                        let xs: Vec<BitVec> = (0..n)
                            .map(|_| BitVec::from_signs(&pm1(&mut rng, cols)))
                            .collect();
                        let words: Vec<u64> = xs
                            .iter()
                            .flat_map(|x| x.as_words().iter().copied())
                            .collect();
                        // Dirty destination: every word must be overwritten
                        // and bits past `rows` must come out zero.
                        let mut dst = vec![u64::MAX; n * dst_words];
                        iw.threshold_pack_into(&folded, &words, &mut dst);
                        for (i, x) in xs.iter().enumerate() {
                            let want: BitVec = (0..rows)
                                .map(|r| {
                                    let (min, neg) = rules[r];
                                    let count = xnor_popcount(m.row_words(r), x.as_words(), cols);
                                    (count as i64 >= min) ^ neg
                                })
                                .collect();
                            assert_eq!(
                                &dst[i * dst_words..(i + 1) * dst_words],
                                want.as_words(),
                                "sample {i} of {n}, {rows}×{cols}, rotation {rotation}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "folded for a different matrix")]
    fn thresholds_from_another_shape_are_refused() {
        let a = InterleavedRows::from_matrix(&BitMatrix::zeros(8, 64));
        let b = InterleavedRows::from_matrix(&BitMatrix::zeros(8, 63));
        let folded = b.fold_thresholds((0..8).map(|_| (0, false)));
        a.threshold_pack_into(&folded, &[0], &mut [0]);
    }

    #[test]
    fn tail_bits_do_not_leak() {
        // 65 bits: the second word has 63 padding bits; XNOR of equal
        // vectors must count exactly 65, not 128.
        let v = BitVec::zeros(65);
        assert_eq!(v.xnor_popcount(&v), 65);
    }

    #[test]
    fn to_signs_roundtrip() {
        let signs = [1.0f32, -1.0, -1.0, 1.0, 1.0];
        let v = BitVec::from_signs(&signs);
        assert_eq!(v.to_signs(), signs);
    }

    #[test]
    fn from_iterator() {
        let v: BitVec = [true, false, true].into_iter().collect();
        assert_eq!(v.len(), 3);
        assert_eq!(v.count_ones(), 2);
    }

    #[test]
    fn matrix_roundtrip_and_rows() {
        let vals: Vec<f32> = vec![1.0, -1.0, -1.0, 1.0, 1.0, 1.0];
        let m = BitMatrix::from_signs(&vals, 2, 3);
        assert!(m.get(0, 0) && !m.get(0, 1) && !m.get(0, 2));
        assert!(m.get(1, 0) && m.get(1, 1) && m.get(1, 2));
        assert_eq!(m.row(1).count_ones(), 3);
    }

    #[test]
    fn matvec_pm1_matches_float() {
        let mut rng = StdRng::seed_from_u64(23);
        let (rows, cols) = (5, 97);
        let w: Vec<f32> = (0..rows * cols)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let x: Vec<f32> = (0..cols)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        let m = BitMatrix::from_signs(&w, rows, cols);
        let xv = BitVec::from_signs(&x);
        let got = m.matvec_pm1(&xv);
        for r in 0..rows {
            let expect: f32 = (0..cols).map(|c| w[r * cols + c] * x[c]).sum();
            assert_eq!(got[r], expect as i32, "row {r}");
        }
    }

    #[test]
    fn xnor_matches_bit_loop_and_masks_tail() {
        let mut rng = StdRng::seed_from_u64(41);
        for len in [1usize, 64, 65, 130] {
            let a_bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let b_bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let a = BitVec::from_bools(&a_bits);
            let b = BitVec::from_bools(&b_bits);
            let x = a.xnor(&b);
            for i in 0..len {
                assert_eq!(x.get(i), a_bits[i] == b_bits[i], "len {len}, bit {i}");
            }
            // Tail bits must not leak into popcounts.
            assert_eq!(x.count_ones(), a.xnor_popcount(&b));
        }
    }

    #[test]
    fn xnor_popcount_first_matches_bit_loop() {
        let mut rng = StdRng::seed_from_u64(37);
        for len in [1usize, 63, 64, 65, 130, 200] {
            let a_bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let b_bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let a = BitVec::from_bools(&a_bits);
            let b = BitVec::from_bools(&b_bits);
            for n in [0, 1, len / 3, len / 2, len] {
                let expect = a_bits[..n]
                    .iter()
                    .zip(&b_bits[..n])
                    .filter(|(x, y)| x == y)
                    .count() as u32;
                assert_eq!(a.xnor_popcount_first(&b, n), expect, "len {len}, n {n}");
            }
            assert_eq!(a.xnor_popcount_first(&b, len), a.xnor_popcount(&b));
        }
    }

    #[test]
    fn count_ones_first_matches_bit_loop() {
        let mut rng = StdRng::seed_from_u64(31);
        for len in [1usize, 63, 64, 65, 130, 200] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let v = BitVec::from_bools(&bits);
            for n in [0, 1, len / 2, len] {
                let expect = bits[..n].iter().filter(|&&b| b).count() as u32;
                assert_eq!(v.count_ones_first(n), expect, "len {len}, n {n}");
            }
        }
    }

    #[test]
    fn slice_padded_matches_bit_loop() {
        let mut rng = StdRng::seed_from_u64(32);
        for len in [1usize, 64, 65, 130, 300] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let v = BitVec::from_bools(&bits);
            for _ in 0..20 {
                let start = rng.gen_range(0..len);
                let take = rng.gen_range(0..=(len - start));
                let out_len = take + rng.gen_range(0usize..70);
                let s = v.slice_padded(start, take, out_len);
                assert_eq!(s.len(), out_len);
                for i in 0..take {
                    assert_eq!(s.get(i), bits[start + i], "len {len} start {start} i {i}");
                }
                for i in take..out_len {
                    assert!(!s.get(i), "padding must be zero");
                }
            }
        }
    }

    #[test]
    fn extract_bits_matches_bit_loop() {
        let mut rng = StdRng::seed_from_u64(51);
        for len in [1usize, 63, 64, 65, 130, 200] {
            let bits: Vec<bool> = (0..len).map(|_| rng.gen::<bool>()).collect();
            let v = BitVec::from_bools(&bits);
            for _ in 0..40 {
                let start = rng.gen_range(0..len);
                let nbits = rng.gen_range(0..=64usize);
                let got = v.extract_bits(start, nbits);
                for i in 0..nbits {
                    let expect = start + i < len && bits[start + i];
                    assert_eq!(
                        (got >> i) & 1 == 1,
                        expect,
                        "len {len} start {start} nbits {nbits} bit {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn conv1d_windows_matches_per_bit_assembly() {
        let mut rng = StdRng::seed_from_u64(53);
        // Kernel sizes cross word boundaries in the row layout (channels·k
        // spanning > 64 bits) and include the wide-kernel fallback (> 64).
        for &(channels, kernel, len) in &[
            (1usize, 1usize, 5usize),
            (3, 5, 20),
            (12, 13, 80),
            (2, 70, 100),
        ] {
            let input: Vec<BitVec> = (0..channels)
                .map(|_| (0..len).map(|_| rng.gen::<bool>()).collect())
                .collect();
            let m = BitMatrix::conv1d_windows(&input, kernel);
            let out_len = len - kernel + 1;
            assert_eq!((m.rows(), m.cols()), (out_len, channels * kernel));
            for t in 0..out_len {
                for (c, channel) in input.iter().enumerate() {
                    for k in 0..kernel {
                        assert_eq!(
                            m.get(t, c * kernel + k),
                            channel.get(t + k),
                            "({channels},{kernel},{len}) t={t} c={c} k={k}"
                        );
                    }
                }
            }
        }
    }

    /// Reference window assembly: the per-bit loop the > 64-tap fallback
    /// uses, applied unconditionally. The fast path must equal this —
    /// including the packed tail words, so padding-bit leaks are caught by
    /// whole-struct equality.
    fn conv1d_windows_per_bit(input: &[BitVec], kernel: usize) -> BitMatrix {
        let channels = input.len();
        let out_len = input[0].len() - kernel + 1;
        let mut m = BitMatrix::zeros(out_len, channels * kernel);
        for t in 0..out_len {
            for (c, chan) in input.iter().enumerate() {
                for k in 0..kernel {
                    if chan.get(t + k) {
                        m.set(t, c * kernel + k, true);
                    }
                }
            }
        }
        m
    }

    #[test]
    fn conv1d_windows_fast_path_equals_fallback_at_word_boundary() {
        // 63/64/65 taps straddle the ≤ 64-tap `extract_bits` word-gather
        // fast path (65 falls back to the per-bit loop); channel counts
        // and odd, non-word-aligned signal lengths make the per-row field
        // offsets land at every alignment. The packed structures must be
        // *identical* (bit content and zeroed tails), not merely
        // bit-by-bit equal through the accessor.
        let mut rng = StdRng::seed_from_u64(61);
        for &kernel in &[63usize, 64, 65] {
            for &channels in &[1usize, 2, 3] {
                for &len in &[kernel + 1, 97, 129, 191] {
                    let input: Vec<BitVec> = (0..channels)
                        .map(|_| (0..len).map(|_| rng.gen::<bool>()).collect())
                        .collect();
                    let fast = BitMatrix::conv1d_windows(&input, kernel);
                    let reference = conv1d_windows_per_bit(&input, kernel);
                    assert_eq!(
                        fast, reference,
                        "windows diverge at kernel={kernel}, channels={channels}, len={len}"
                    );
                }
            }
        }
    }

    #[test]
    fn conv1d_windows_boundary_taps_popcount_like_float_convolution() {
        // End-to-end use of the boundary-tap windows: row-vs-row
        // xnor_popcount against random filters must reproduce the ±1
        // convolution computed in floats, at 63/64/65 taps on
        // non-word-aligned widths.
        let mut rng = StdRng::seed_from_u64(67);
        for &kernel in &[63usize, 64, 65] {
            let channels = 2usize;
            let len = 101usize; // odd, non-aligned
            let taps = channels * kernel;
            let x: Vec<Vec<f32>> = (0..channels)
                .map(|_| {
                    (0..len)
                        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                        .collect()
                })
                .collect();
            let w: Vec<f32> = (0..taps)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let input: Vec<BitVec> = x.iter().map(|c| BitVec::from_signs(c)).collect();
            let wv = BitVec::from_signs(&w);
            let windows = BitMatrix::conv1d_windows(&input, kernel);
            for t in 0..(len - kernel + 1) {
                let p = xnor_popcount(windows.row_words(t), wv.as_words(), taps);
                let dot = 2 * p as i32 - taps as i32;
                let expect: f32 = (0..channels)
                    .map(|c| {
                        (0..kernel)
                            .map(|k| w[c * kernel + k] * x[c][t + k])
                            .sum::<f32>()
                    })
                    .sum();
                assert_eq!(dot, expect as i32, "kernel {kernel}, step {t}");
            }
        }
    }

    #[test]
    fn conv1d_windows_rows_popcount_cleanly() {
        // Word-aligned rows: the window rows must be directly usable by
        // xnor_popcount without tail-bit leakage.
        let input = vec![BitVec::from_bools(&[true; 70])];
        let m = BitMatrix::conv1d_windows(&input, 65);
        let w = BitVec::from_bools(&[true; 65]);
        assert_eq!(xnor_popcount(m.row_words(0), w.as_words(), 65), 65);
    }

    #[test]
    fn flip_changes_exactly_one_dot_term() {
        let mut m = BitMatrix::from_signs(&vec![1.0; 64], 1, 64);
        let x = BitVec::from_signs(&vec![1.0; 64]);
        assert_eq!(m.matvec_pm1(&x)[0], 64);
        m.flip(0, 10);
        assert_eq!(m.matvec_pm1(&x)[0], 62);
    }
}
