//! Static execution plans: compile once, replay with zero allocation.
//!
//! [`ExecPlan::compile`] walks one `(model, max_batch)` pair's layer chain
//! and freezes the result: fused steps with resolved arena regions, folded
//! thresholds, and affine parameters. A worker then replays the plan for
//! any batch of up to `max_batch` rows via
//! [`ExecPlan::replay_rows`], which touches only caller-provided storage
//! ([`PlanBuffers`] and the output slice). The replay functions in this
//! module form an `analysis.toml` zero-alloc zone (RA0005): no heap
//! operation is permitted between a request arriving and its logits being
//! written.
//!
//! Replay is bitwise-equal to the single-sample scalar oracle
//! ([`BinaryNetwork::logits`]) by construction: packing uses the same
//! dispatched sign-pack kernel; each hidden layer is one fused rows-kernel
//! dispatch per batch whose in-register comparison is the
//! [`FoldedThreshold::fire`] rule on exact integer counts; and logits use
//! the same `scale · (2p − n) + shift` float expression evaluated in the
//! same per-sample, ascending-neuron order.

use rbnn_binary::{BinaryNetwork, FoldedThreshold};
use rbnn_tensor::{pack_signs_into, InterleavedRows, RowThresholds};

const WORD_BITS: usize = 64;

#[inline]
fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// A resolved arena region holding one bit-packed activation matrix:
/// `max_batch` rows of `width` bits, `words_per_row` words apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First word of the region in the arena.
    pub offset: usize,
    /// Words per packed row (`width.div_ceil(64)`).
    pub words_per_row: usize,
    /// Valid bits per row.
    pub width: usize,
}

impl Region {
    /// Row `i` of the region, immutably.
    #[inline]
    pub fn row<'a>(&self, arena: &'a [u64], i: usize) -> &'a [u64] {
        &arena[self.offset + i * self.words_per_row..][..self.words_per_row]
    }

    /// Row `i` of the region, mutably.
    #[inline]
    pub fn row_mut<'a>(&self, arena: &'a mut [u64], i: usize) -> &'a mut [u64] {
        &mut arena[self.offset + i * self.words_per_row..][..self.words_per_row]
    }
}

/// One compiled step of an [`ExecPlan`].
///
/// A plan is `Pack`, then one `FusedHidden` per hidden layer, then
/// `FusedLogits` — the paper's chain of XNOR-popcount-threshold layers,
/// with packed sign bits flowing from one step to the next. Each step
/// names its arena [`Region`]s and carries its per-layer parameters
/// (folded thresholds, affine scale/shift) frozen at compile time so
/// replay never recomputes them.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Binarize + pack the float input rows into `dst`.
    Pack {
        /// Packed-input region.
        dst: Region,
    },
    /// Fused hidden layer: XNOR-popcount → threshold → sign-pack, one
    /// kernel dispatch from `src` to `dst` for the whole batch with no
    /// materialized count matrix.
    FusedHidden {
        /// Index of the layer in the compiled network's `layers()`.
        layer: usize,
        /// Input activation region.
        src: Region,
        /// Output activation region.
        dst: Region,
        /// Folded integer thresholds, one per output neuron (engines that
        /// sense popcounts themselves fire these).
        thresholds: Vec<FoldedThreshold>,
        /// The same thresholds in the fused rows kernel's layout: word
        /// slack folded in, padded rows never firing.
        kernel_thresholds: RowThresholds,
        /// Weight rows copied into the batched popcount kernel's
        /// lane-interleaved layout at compile time.
        weights: InterleavedRows,
    },
    /// Fused output layer: XNOR-popcount → affine logits straight into the
    /// caller's output slice.
    FusedLogits {
        /// Index of the layer in the compiled network's `layers()`.
        layer: usize,
        /// Input activation region.
        src: Region,
        /// Per-class affine scale.
        scale: Vec<f32>,
        /// Per-class affine shift.
        shift: Vec<f32>,
        /// Weight rows copied into the batched popcount kernel's
        /// lane-interleaved layout at compile time.
        weights: InterleavedRows,
    },
}

/// Caller-owned replay storage for one [`ExecPlan`]: the word arena every
/// packed activation region lives in, plus the per-sample popcount scratch
/// the fused output step streams counts through. Allocated once by
/// [`ExecPlan::buffers`]; replay never grows either.
#[derive(Debug, Clone)]
pub struct PlanBuffers {
    arena: Vec<u64>,
    counts: Vec<u32>,
}

impl PlanBuffers {
    /// The arena words, immutably.
    pub fn arena(&self) -> &[u64] {
        &self.arena
    }

    /// The arena words, mutably (for engine-backed replay, e.g.
    /// `rbnn-rram`).
    pub fn arena_mut(&mut self) -> &mut [u64] {
        &mut self.arena
    }
}

/// A static execution plan for one `(model, max_batch)` pair.
///
/// Compiling is the expensive, allocating part (threshold folding, weight
/// interleaving); replaying is allocation-free and valid for any batch of
/// `1..=max_batch` rows — region offsets computed for
/// `max_batch` rows remain correct for smaller batches because rows are
/// packed from each region's start.
#[derive(Debug, Clone)]
pub struct ExecPlan {
    steps: Vec<Step>,
    arena_words: usize,
    counts_len: usize,
    max_batch: usize,
    in_features: usize,
    out_features: usize,
}

impl ExecPlan {
    /// Compiles a plan: walks the layer chain once, emitting `Pack`, one
    /// `FusedHidden` per hidden layer and a final `FusedLogits`, folds
    /// every hidden layer's BatchNorm thresholds, and lays the packed
    /// activation buffers out in two alternating arena slots.
    ///
    /// Activation buffer `k` (the packed input is buffer 0, hidden layer
    /// `k − 1`'s output is buffer `k`) lives at offset 0 when `k` is even
    /// and right after the widest even buffer when `k` is odd: a fused
    /// step reads buffer `k` and writes buffer `k + 1`, so its source and
    /// destination are always in different slots, and no other buffer is
    /// live while it runs.
    ///
    /// # Panics
    ///
    /// Panics if `max_batch == 0`.
    pub fn compile(network: &BinaryNetwork, max_batch: usize) -> Self {
        assert!(max_batch > 0, "a plan must admit at least one row");
        let layers = network.layers();
        let (output, hidden) = layers
            .split_last()
            .expect("a network has at least one layer");

        // Buffer k's width: the packed input, then each hidden layer's output.
        let widths: Vec<usize> = std::iter::once(network.in_features())
            .chain(hidden.iter().map(|l| l.out_features()))
            .collect();
        let slot_words = |parity: usize| {
            widths
                .iter()
                .skip(parity)
                .step_by(2)
                .map(|&w| max_batch * words_for(w))
                .max()
                .unwrap_or(0)
        };
        let odd_offset = slot_words(0);
        let region = |k: usize| Region {
            offset: if k.is_multiple_of(2) { 0 } else { odd_offset },
            words_per_row: words_for(widths[k]),
            width: widths[k],
        };

        let mut steps = Vec::with_capacity(layers.len() + 1);
        steps.push(Step::Pack { dst: region(0) });
        for (layer, dense) in hidden.iter().enumerate() {
            let thresholds = dense.folded_thresholds();
            let weights = InterleavedRows::from_matrix(dense.weights());
            let kernel_thresholds =
                weights.fold_thresholds(thresholds.iter().map(|t| (t.min_popcount, t.negate)));
            steps.push(Step::FusedHidden {
                layer,
                src: region(layer),
                dst: region(layer + 1),
                thresholds,
                kernel_thresholds,
                weights,
            });
        }
        let (scale, shift) = output.affine();
        let weights = InterleavedRows::from_matrix(output.weights());
        let counts_len = weights.padded_rows();
        steps.push(Step::FusedLogits {
            layer: hidden.len(),
            src: region(hidden.len()),
            scale: scale.to_vec(),
            shift: shift.to_vec(),
            weights,
        });

        Self {
            steps,
            arena_words: odd_offset + slot_words(1),
            counts_len,
            max_batch,
            in_features: network.in_features(),
            out_features: network.out_features(),
        }
    }

    /// Allocates fresh, zeroed replay storage (arena + popcount scratch)
    /// sized for this plan.
    pub fn buffers(&self) -> PlanBuffers {
        PlanBuffers {
            arena: vec![0; self.arena_words],
            counts: vec![0; self.counts_len],
        }
    }

    /// Compiled steps in execution order (engine-backed replays walk these
    /// directly).
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Planned arena size in words (peak plan memory).
    pub fn arena_words(&self) -> usize {
        self.arena_words
    }

    /// Largest batch the plan can replay.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Input feature width.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output classes.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Replays the plan over a batch of float feature rows, writing
    /// `rows.len() × out_features` logits row-major into `out`.
    ///
    /// Allocation-free: everything lives in `buffers` and `out`
    /// (`analysis.toml` zero-alloc zone). Bitwise-equal to
    /// [`BinaryNetwork::logits`] on every row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() > max_batch`, a row's width differs from
    /// `in_features`, `out` is shorter than `rows.len() * out_features`, or
    /// `buffers` was built for a smaller plan.
    pub fn replay_rows(&self, rows: &[&[f32]], buffers: &mut PlanBuffers, out: &mut [f32]) {
        let n = rows.len();
        assert!(n <= self.max_batch, "batch exceeds plan capacity");
        assert!(
            out.len() >= n * self.out_features,
            "output slice too short for batch"
        );
        assert!(
            buffers.arena.len() >= self.arena_words,
            "buffers built for a smaller plan"
        );
        assert!(
            buffers.counts.len() >= self.counts_len,
            "popcount scratch built for a smaller plan"
        );
        let PlanBuffers { arena, counts } = buffers;
        for step in &self.steps {
            match step {
                Step::Pack { dst } => pack_rows(rows, dst, arena),
                Step::FusedHidden {
                    src,
                    dst,
                    kernel_thresholds,
                    weights,
                    ..
                } => fused_hidden(weights, kernel_thresholds, src, dst, n, arena),
                Step::FusedLogits {
                    src,
                    scale,
                    shift,
                    weights,
                    ..
                } => fused_logits(weights, src, scale, shift, n, arena, counts, out),
            }
        }
    }
}

/// Packs each float row's sign bits into its row of `dst`, via the same
/// runtime-dispatched kernel [`rbnn_tensor::BitVec::from_signs`] uses —
/// bit-identical words.
///
/// # Panics
///
/// Panics if a row's length differs from `dst.width`.
pub fn pack_rows(rows: &[&[f32]], dst: &Region, arena: &mut [u64]) {
    for (i, row) in rows.iter().enumerate() {
        assert!(row.len() == dst.width, "row width mismatch");
        pack_signs_into(row, dst.row_mut(arena, i));
    }
}

/// Fused hidden-layer kernel: one dispatch of the fused rows kernel over
/// all `n` source rows — XNOR-popcount, the folded thresholds compared in
/// registers, sign bits written straight into the `dst` rows. No count
/// scratch, no per-request allocation, no materialized `[batch, out]`
/// matrix.
fn fused_hidden(
    weights: &InterleavedRows,
    thresholds: &RowThresholds,
    src: &Region,
    dst: &Region,
    n: usize,
    arena: &mut [u64],
) {
    let (src_words, dst_words) = split_src_dst(arena, src, dst, n);
    weights.threshold_pack_into(thresholds, src_words, dst_words);
}

/// Fused output-layer kernel: one batched XNOR-popcount sweep of the class
/// rows per sample, then `scale[r] · (2p − n_in) + shift[r]` — the exact
/// float expression, evaluation order included, of the scalar oracle's
/// `BinaryDense::forward_affine`, so logits match it bit for bit.
#[allow(clippy::too_many_arguments)]
fn fused_logits(
    weights: &InterleavedRows,
    src: &Region,
    scale: &[f32],
    shift: &[f32],
    n: usize,
    arena: &[u64],
    counts: &mut [u32],
    out: &mut [f32],
) {
    let classes = scale.len();
    let n_in = src.width as f32;
    for i in 0..n {
        let x = src.row(arena, i);
        weights.popcounts_into(x, counts);
        let orow = &mut out[i * classes..(i + 1) * classes];
        for (r, o) in orow.iter_mut().enumerate() {
            *o = scale[r] * (2.0 * counts[r] as f32 - n_in) + shift[r];
        }
    }
}

/// Fires `thresholds` against pre-sensed popcounts and packs the verdict
/// bits into one destination row, overwriting every word — the
/// threshold+pack stage of a fused hidden step, for engines (e.g. the
/// RRAM tile simulator) that produce popcounts externally.
///
/// Bit layout matches the fused hidden kernel's output exactly.
///
/// # Panics
///
/// Panics if `counts` is shorter than `thresholds` or `dst` does not hold
/// exactly `thresholds.len().div_ceil(64)` words.
pub fn threshold_pack_row(thresholds: &[FoldedThreshold], counts: &[u32], dst: &mut [u64]) {
    assert!(
        counts.len() >= thresholds.len(),
        "counts shorter than layer"
    );
    assert!(
        dst.len() == words_for(thresholds.len()),
        "destination row width mismatch"
    );
    for (w, word) in dst.iter_mut().enumerate() {
        let base = w * WORD_BITS;
        let m = WORD_BITS.min(thresholds.len() - base);
        let mut acc = 0u64;
        for b in 0..m {
            acc |= (thresholds[base + b].fire(counts[base + b]) as u64) << b;
        }
        *word = acc;
    }
}

/// Splits the arena into this step's source (shared) and destination
/// (mutable) rows. Compile puts a step's source and destination in
/// different arena slots, so the regions are disjoint and the split is a
/// pure reborrow.
fn split_src_dst<'a>(
    arena: &'a mut [u64],
    src: &Region,
    dst: &Region,
    n: usize,
) -> (&'a [u64], &'a mut [u64]) {
    let s_len = n * src.words_per_row;
    let d_len = n * dst.words_per_row;
    if src.offset + s_len <= dst.offset {
        let (lo, hi) = arena.split_at_mut(dst.offset);
        (&lo[src.offset..src.offset + s_len], &mut hi[..d_len])
    } else {
        assert!(
            dst.offset + d_len <= src.offset,
            "plan produced aliasing src/dst regions"
        );
        let (lo, hi) = arena.split_at_mut(src.offset);
        (&hi[..s_len], &mut lo[dst.offset..dst.offset + d_len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rbnn_binary::BinaryDense;
    use rbnn_tensor::BitMatrix;

    fn random_net(dims: &[usize], seed: u64) -> BinaryNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| {
                let (inp, out) = (w[0], w[1]);
                let signs: Vec<f32> = (0..inp * out)
                    .map(|_| if rng.gen_range(0..2) == 0 { -1.0 } else { 1.0 })
                    .collect();
                // Mixed-sign scales exercise the negated threshold fold.
                let scale: Vec<f32> = (0..out)
                    .map(|_| (rng.gen_range(1..100) as f32 / 50.0) - 1.0)
                    .collect();
                let shift: Vec<f32> = (0..out)
                    .map(|_| (rng.gen_range(0..100) as f32 / 10.0) - 5.0)
                    .collect();
                BinaryDense::new(BitMatrix::from_signs(&signs, out, inp), scale, shift)
            })
            .collect();
        BinaryNetwork::new(layers)
    }

    fn random_rows(n: usize, width: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                (0..width)
                    .map(|_| (rng.gen_range(0..200) as f32 / 10.0) - 10.0)
                    .collect()
            })
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// The scalar oracle's logits for every row, concatenated.
    fn oracle(net: &BinaryNetwork, rows: &[Vec<f32>]) -> Vec<f32> {
        rows.iter().flat_map(|r| net.logits(r)).collect()
    }

    fn assert_parity(dims: &[usize], n: usize, seed: u64) {
        let net = random_net(dims, seed);
        let rows = random_rows(n, dims[0], seed ^ 0xFEED);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();

        let plan = ExecPlan::compile(&net, n.max(1));
        let mut buffers = plan.buffers();
        let mut out = vec![0.0f32; n * net.out_features()];
        plan.replay_rows(&refs, &mut buffers, &mut out);
        assert_eq!(
            bits(&out),
            bits(&oracle(&net, &rows)),
            "plan replay diverged from the scalar oracle on dims {dims:?}"
        );
    }

    #[test]
    fn replay_is_bitwise_equal_to_the_oracle_at_every_edge_width() {
        for (i, dims) in [
            vec![63, 64, 2],
            vec![64, 65, 127, 3],
            vec![65, 63, 64, 127, 128, 5],
            vec![128, 127, 4],
            vec![33, 17, 2],
            vec![1, 1, 2],
            // Degenerate shapes: a single layer (Pack → FusedLogits, one
            // buffer), one output class, width-1 layers, and 63/64/65 at
            // every layer.
            vec![65, 3],
            vec![1, 1],
            vec![64, 65, 1],
            vec![1, 1, 1, 1],
            vec![63, 64, 65, 63],
            vec![65, 63, 64, 65],
        ]
        .iter()
        .enumerate()
        {
            assert_parity(dims, 7, 0xA11CE + i as u64);
        }
    }

    #[test]
    fn replay_is_bitwise_equal_in_forced_scalar_mode() {
        rbnn_tensor::set_forced_scalar(true);
        let result = std::panic::catch_unwind(|| {
            assert_parity(&[65, 127, 64, 3], 9, 0x5CA1A);
        });
        rbnn_tensor::clear_forced_scalar();
        if let Err(e) = result {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn smaller_batches_replay_against_a_larger_plan() {
        let net = random_net(&[65, 64, 3], 0xB00);
        let plan = ExecPlan::compile(&net, 32);
        let mut buffers = plan.buffers();
        for n in [1usize, 5, 31, 32] {
            let rows = random_rows(n, 65, n as u64);
            let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let mut out = vec![0.0f32; n * 3];
            plan.replay_rows(&refs, &mut buffers, &mut out);
            assert_eq!(bits(&out), bits(&oracle(&net, &rows)), "batch {n}");
        }
    }

    #[test]
    fn two_compiles_of_the_same_model_are_byte_identical() {
        let net = random_net(&[127, 65, 63, 4], 0xD0D0);
        let a = ExecPlan::compile(&net, 16);
        let b = ExecPlan::compile(&net, 16);
        assert_eq!(a.steps(), b.steps());
        assert_eq!(a.arena_words(), b.arena_words());
        assert_eq!(format!("{:?}", a.steps()), format!("{:?}", b.steps()));
    }

    #[test]
    fn replay_reusing_dirty_buffers_is_deterministic() {
        let net = random_net(&[64, 63, 2], 0xCAFE);
        let plan = ExecPlan::compile(&net, 8);
        let mut buffers = plan.buffers();
        let rows = random_rows(8, 64, 1);
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        let mut first = vec![0.0f32; 8 * 2];
        plan.replay_rows(&refs, &mut buffers, &mut first);
        // Second replay over the now-dirty arena — and over different rows
        // in between — must give the same bits.
        let other = random_rows(3, 64, 2);
        let other_refs: Vec<&[f32]> = other.iter().map(|r| r.as_slice()).collect();
        let mut scratch = vec![0.0f32; 3 * 2];
        plan.replay_rows(&other_refs, &mut buffers, &mut scratch);
        let mut second = vec![0.0f32; 8 * 2];
        plan.replay_rows(&refs, &mut buffers, &mut second);
        assert_eq!(bits(&first), bits(&second));
    }

    #[test]
    fn deep_chains_reuse_arena_storage() {
        let net = random_net(&[128, 128, 128, 128, 128, 2], 0xFADE);
        let plan = ExecPlan::compile(&net, 64);
        // Five packed buffers, but only two are ever live at once.
        assert_eq!(plan.arena_words(), 2 * 64 * 2);
    }

    /// Every region a step names, as `(offset, words)` for `max_batch` rows.
    fn step_regions(step: &Step, max_batch: usize) -> Vec<(usize, usize)> {
        let span = |r: &Region| (r.offset, max_batch * r.words_per_row);
        match step {
            Step::Pack { dst } => vec![span(dst)],
            Step::FusedHidden { src, dst, .. } => vec![span(src), span(dst)],
            Step::FusedLogits { src, .. } => vec![span(src)],
        }
    }

    #[test]
    fn random_chains_lay_out_disjoint_in_bounds_regions() {
        const WIDTHS: [usize; 6] = [1, 63, 64, 65, 127, 128];
        let mut rng = StdRng::seed_from_u64(0x51075);
        for _ in 0..60 {
            let depth = rng.gen_range(1..7);
            let dims: Vec<usize> = (0..=depth)
                .map(|_| WIDTHS[rng.gen_range(0..WIDTHS.len())])
                .collect();
            let net = random_net(&dims, rng.gen_range(0..u64::MAX));
            for max_batch in [1usize, 3, 17, 64] {
                let plan = ExecPlan::compile(&net, max_batch);
                let steps = plan.steps();
                assert_eq!(steps.len(), depth + 1, "dims {dims:?}");
                assert!(matches!(steps[0], Step::Pack { .. }));
                assert!(matches!(steps[depth], Step::FusedLogits { .. }));

                let mut buffer_words = 0;
                for step in steps {
                    let regions = step_regions(step, max_batch);
                    for &(offset, words) in &regions {
                        assert!(
                            offset + words <= plan.arena_words(),
                            "region outside the arena on dims {dims:?} at batch {max_batch}"
                        );
                    }
                    if let [(so, sw), (d_o, dw)] = regions[..] {
                        assert!(
                            so + sw <= d_o || d_o + dw <= so,
                            "src/dst alias on dims {dims:?} at batch {max_batch}"
                        );
                    }
                    // Each buffer is written by exactly one step.
                    if !matches!(step, Step::FusedLogits { .. }) {
                        buffer_words += regions.last().unwrap().1;
                    }
                }
                assert!(
                    plan.arena_words() <= buffer_words,
                    "arena exceeds the sum of its regions on dims {dims:?}"
                );
            }
        }
    }

    #[test]
    fn deployed_ecg_model_keeps_its_arena_layout() {
        let net = random_net(&[408, 75, 2], 0xEC6);
        let plan = ExecPlan::compile(&net, 64);
        let steps = plan.steps();
        assert!(matches!(steps[0], Step::Pack { .. }));
        assert!(matches!(steps[1], Step::FusedHidden { .. }));
        assert!(matches!(steps[2], Step::FusedLogits { .. }));
        // 408 bits = 7 words and 75 bits = 2 words per row, 64 rows each.
        assert_eq!(step_regions(&steps[0], 64), [(0, 448)]);
        assert_eq!(step_regions(&steps[1], 64), [(0, 448), (448, 128)]);
        assert_eq!(step_regions(&steps[2], 64), [(448, 128)]);
        assert_eq!(plan.arena_words(), 576);
    }

    #[test]
    fn threshold_pack_row_matches_the_fused_kernel_layout() {
        let net = random_net(&[64, 65, 2], 0x7777);
        let layer = &net.layers()[0];
        let thresholds = layer.folded_thresholds();
        let rows = random_rows(1, 64, 9);
        let x = rbnn_tensor::BitVec::from_signs(&rows[0]);
        let counts: Vec<u32> = layer.popcounts(&x);
        let mut packed = vec![0u64; 2];
        threshold_pack_row(&thresholds, &counts, &mut packed);
        let expected = layer.forward_sign(&x);
        assert_eq!(packed, expected.as_words());
    }
}
