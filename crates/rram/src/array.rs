//! The 2T2R memory array with word/bit-line addressing and XNOR-PCSA
//! column sensing (Fig 2(a) of the paper: 32×32 synapses = 2K devices on
//! the fabricated die).
//!
//! # Margin-gated sensing
//!
//! A naive Monte-Carlo sense draws three Gaussians per column read (read
//! noise on each device plus PCSA comparison noise) — ~200k fresh
//! transforms per classifier inference, which made the RRAM backend four
//! orders of magnitude slower than the software XNOR path it models. But
//! the sense decision is just `sign(margin + noise)` where
//! `margin = ln R_BLb − ln R_BL + offset` is fixed between programming
//! events and `noise` is a single zero-mean Gaussian whose σ combines the
//! three per-read terms in quadrature. Following the bit-error-tolerance
//! analysis of Hirtzlin et al. (arXiv:1904.03652), outcomes are
//! deterministic except in a narrow resistance margin: whenever
//! `|margin| ≥ 6σ` the flip probability is below 1e-9 — unobservable at
//! any simulation scale — so the array caches a per-cell verdict at
//! program time. Deterministic cells sense from a cached bit-packed row
//! (word-level XNOR/popcount, no RNG); marginal cells draw one combined
//! Gaussian from a cached-pair Box–Muller sampler. On fresh devices
//! essentially every cell is deterministic; under wear the marginal set
//! grows and the statistics remain those of the original three-draw
//! sampler (same decision distribution, verified against the closed-form
//! endurance model).

use rand::rngs::StdRng;
use rand::SeedableRng;

use rbnn_tensor::{BitMatrix, BitVec};

use crate::{stats, DeviceParams, Pcsa, PcsaParams, Synapse2T2R};

/// Deterministic-verdict threshold in combined-noise σ units: a cell whose
/// sense margin clears this many σ flips with probability < 1e-9 per read
/// and skips RNG entirely.
const DETERMINISTIC_Z: f64 = 6.0;

/// Running operation counters of an array (feed the energy model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArrayStats {
    /// Device-pair programming events.
    pub programs: u64,
    /// PCSA sense operations (one per column per row read).
    pub senses: u64,
}

/// A cell whose sense margin is inside the ±6σ band: its reads stay
/// Monte-Carlo, from the cached margin and one combined Gaussian draw.
#[derive(Debug, Clone, Copy, PartialEq)]
struct MarginalCell {
    col: usize,
    margin: f64,
}

/// A rows × cols array of 2T2R synapses with one PCSA per column.
///
/// Word lines select a row; all columns are sensed in parallel, optionally
/// with per-column XNOR inputs (the architecture of Fig 5 builds
/// fully-connected BNN layers from this primitive plus popcount logic).
#[derive(Debug)]
pub struct RramArray {
    rows: usize,
    cols: usize,
    synapses: Vec<Synapse2T2R>,
    pcsas: Vec<Pcsa>,
    device_params: DeviceParams,
    stats: ArrayStats,
    rng: StdRng,
    /// Combined per-read noise σ of one sense:
    /// `sqrt(2·read_noise² + pcsa_noise²)`.
    sense_sigma: f64,
    /// Cached deterministic sense outcome per cell (bit = weight readout
    /// sign); marginal cells hold `margin > 0` as a placeholder that the
    /// read paths overwrite with a fresh draw.
    det_rows: Vec<BitVec>,
    /// Per-row list of cells whose margin is inside the ±6σ band
    /// (empty on fresh devices).
    marginal: Vec<Vec<MarginalCell>>,
    gauss: stats::GaussianPairCache,
}

impl RramArray {
    /// Builds an array with all synapses initially programmed to −1.
    ///
    /// Each column gets its own PCSA instance with an independent mismatch
    /// offset, as on the real die.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0` or `cols == 0`.
    pub fn new(
        rows: usize,
        cols: usize,
        device_params: DeviceParams,
        pcsa_params: PcsaParams,
        seed: u64,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let synapses: Vec<Synapse2T2R> = (0..rows * cols)
            .map(|_| Synapse2T2R::new(false, &device_params, &mut rng))
            .collect();
        let pcsas: Vec<Pcsa> = (0..cols)
            .map(|_| Pcsa::new(&pcsa_params, &mut rng))
            .collect();
        // Every column amplifier is instantiated from the same params, so
        // one combined σ covers the array; read it back from an instance
        // so a future per-instance noise model cannot silently diverge
        // from the cached value.
        let pcsa_noise = pcsas[0].noise_sigma();
        let sense_sigma = (2.0 * device_params.read_noise * device_params.read_noise
            + pcsa_noise * pcsa_noise)
            .sqrt();
        let mut array = Self {
            rows,
            cols,
            synapses,
            pcsas,
            device_params,
            stats: ArrayStats::default(),
            rng,
            sense_sigma,
            det_rows: (0..rows).map(|_| BitVec::zeros(cols)).collect(),
            marginal: (0..rows).map(|_| Vec::new()).collect(),
            gauss: stats::GaussianPairCache::new(),
        };
        for row in 0..rows {
            for col in 0..cols {
                array.refresh_verdict(row, col);
            }
        }
        array
    }

    /// The paper's test-chip geometry: 32×32 synapses (1K synapses / 2K
    /// RRAM cells, Fig 2(c)).
    pub fn test_chip(seed: u64) -> Self {
        Self::new(
            32,
            32,
            DeviceParams::hfo2_default(),
            PcsaParams::default_130nm(),
            seed,
        )
    }

    /// Row count (word lines).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count (bit-line pairs / PCSAs).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Operation counters so far.
    pub fn stats(&self) -> ArrayStats {
        self.stats
    }

    /// Device parameters in use.
    pub fn device_params(&self) -> &DeviceParams {
        &self.device_params
    }

    /// Number of cells currently inside the marginal (Monte-Carlo) band —
    /// near zero on fresh devices, growing with wear.
    pub fn marginal_cells(&self) -> usize {
        self.marginal.iter().map(Vec::len).sum()
    }

    /// Expected number of sense outcomes deviating from the cached
    /// deterministic verdicts in one full read sweep of the array (every
    /// row sensed once): the sum over marginal cells of the Gaussian tail
    /// `Q(|margin| / σ)` of the combined per-read noise. Deterministic
    /// cells contribute < 1e-9 each by the gating guarantee and are
    /// excluded. This is the margin-model quantity differential testing
    /// uses to bound how far a noisy evaluation may drift from the
    /// noise-free one.
    pub fn flip_expectation(&self) -> f64 {
        if self.sense_sigma <= 0.0 {
            return 0.0;
        }
        self.marginal
            .iter()
            .flatten()
            .map(|m| stats::gaussian_tail(m.margin.abs() / self.sense_sigma))
            .sum()
    }

    fn index(&self, row: usize, col: usize) -> usize {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) out of range"
        );
        row * self.cols + col
    }

    /// Recomputes the cached sense verdict of one cell from its realized
    /// log-resistances and the column PCSA offset. Called at program time;
    /// wear fast-forwarding ([`set_cycles`](Self::set_cycles)) does not
    /// resample resistances, so verdicts stay valid until the next
    /// programming event.
    fn refresh_verdict(&mut self, row: usize, col: usize) {
        let idx = row * self.cols + col;
        let (bl, blb) = self.synapses[idx].cells();
        let margin = blb.log_resistance() - bl.log_resistance() + self.pcsas[col].offset();
        self.det_rows[row].set(col, margin > 0.0);
        let cells = &mut self.marginal[row];
        if let Some(pos) = cells.iter().position(|m| m.col == col) {
            cells.swap_remove(pos);
        }
        if self.sense_sigma > 0.0 && margin.abs() < DETERMINISTIC_Z * self.sense_sigma {
            cells.push(MarginalCell { col, margin });
        }
    }

    /// One Monte-Carlo sense of a marginal cell: the cached margin plus one
    /// combined Gaussian draw — the same decision distribution as the
    /// original three-draw sampler (two device read noises and the PCSA
    /// comparison noise sum to a single zero-mean Gaussian).
    #[inline]
    fn sample_marginal(&mut self, margin: f64) -> bool {
        margin + self.sense_sigma * self.gauss.sample(&mut self.rng) > 0.0
    }

    /// Programs a single synapse.
    pub fn program_bit(&mut self, row: usize, col: usize, weight: bool) {
        let idx = self.index(row, col);
        self.synapses[idx].program(weight, &self.device_params, &mut self.rng);
        self.stats.programs += 1;
        self.refresh_verdict(row, col);
    }

    /// Programs one word line from a bit vector.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != cols`.
    pub fn program_row(&mut self, row: usize, weights: &BitVec) {
        assert_eq!(weights.len(), self.cols, "row width mismatch");
        for col in 0..self.cols {
            self.program_bit(row, col, weights.get(col));
        }
    }

    /// Programs the top-left `matrix.rows() × matrix.cols()` region.
    ///
    /// # Panics
    ///
    /// Panics if the matrix exceeds the array in either dimension.
    pub fn program_matrix(&mut self, matrix: &BitMatrix) {
        assert!(
            matrix.rows() <= self.rows && matrix.cols() <= self.cols,
            "matrix {}×{} exceeds array {}×{}",
            matrix.rows(),
            matrix.cols(),
            self.rows,
            self.cols
        );
        for row in 0..matrix.rows() {
            for col in 0..matrix.cols() {
                self.program_bit(row, col, matrix.get(row, col));
            }
        }
    }

    /// Fast-forwards the wear state of every device.
    ///
    /// Wear changes the statistics of *future* programming events, not the
    /// already-realized resistances, so cached sense verdicts stay valid.
    pub fn set_cycles(&mut self, cycles: u64) {
        for s in &mut self.synapses {
            s.set_cycles(cycles);
        }
    }

    /// Re-programs every synapse to its currently-stored weight — the
    /// periodic refresh cycle of a deployed fabric. On worn devices
    /// (after [`set_cycles`](Self::set_cycles)) the re-realized
    /// resistances draw from the widened, weak-event-prone worn
    /// distributions, so the marginal band grows: refresh is the path
    /// through which accumulated wear becomes visible to inference.
    pub fn refresh(&mut self) {
        for row in 0..self.rows {
            for col in 0..self.cols {
                let idx = row * self.cols + col;
                let weight = self.synapses[idx].programmed_weight();
                self.program_bit(row, col, weight);
            }
        }
    }

    /// Reads one word line through the column PCSAs.
    pub fn read_row(&mut self, row: usize) -> BitVec {
        assert!(row < self.rows, "row {row} out of range");
        self.stats.senses += self.cols as u64;
        let mut out = self.det_rows[row].clone();
        if !self.marginal[row].is_empty() {
            let cells = std::mem::take(&mut self.marginal[row]);
            for m in &cells {
                let bit = self.sample_marginal(m.margin);
                out.set(m.col, bit);
            }
            self.marginal[row] = cells;
        }
        out
    }

    /// Reads one word line with per-column XNOR inputs (Fig 3(b)/Fig 5):
    /// returns the column-wise `XNOR(weight, input)` bits.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != cols`.
    pub fn xnor_read_row(&mut self, row: usize, input: &BitVec) -> BitVec {
        assert_eq!(input.len(), self.cols, "input width mismatch");
        self.read_row(row).xnor(input)
    }

    /// One fully-connected-layer partial sum (Fig 5): XNOR-read row `row`
    /// against `input` and popcount the result in the shared logic.
    pub fn xnor_popcount_row(&mut self, row: usize, input: &BitVec) -> u32 {
        self.xnor_popcount_row_prefix(row, input, self.cols)
    }

    /// [`xnor_popcount_row`](Self::xnor_popcount_row) counting only the
    /// first `prefix` columns — the shared-logic view of a partially
    /// occupied edge tile, where padding columns are excluded from the sum.
    ///
    /// Every column is still physically sensed (and counted in
    /// [`stats`](Self::stats)): the PCSAs fire per word-line activation
    /// regardless of how many outputs the popcount tree consumes.
    ///
    /// This is the engine hot path: deterministic cells resolve through
    /// one word-level XNOR/popcount against the cached row; only marginal
    /// cells touch the RNG.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != cols` or `prefix > cols`.
    pub fn xnor_popcount_row_prefix(&mut self, row: usize, input: &BitVec, prefix: usize) -> u32 {
        assert!(row < self.rows, "row {row} out of range");
        assert_eq!(input.len(), self.cols, "input width mismatch");
        assert!(prefix <= self.cols, "prefix {prefix} exceeds {}", self.cols);
        self.stats.senses += self.cols as u64;
        let mut count = self.det_rows[row].xnor_popcount_first(input, prefix) as i64;
        if !self.marginal[row].is_empty() {
            let cells = std::mem::take(&mut self.marginal[row]);
            for m in cells.iter().filter(|m| m.col < prefix) {
                let sensed = self.sample_marginal(m.margin);
                let actual = sensed == input.get(m.col);
                let cached = self.det_rows[row].get(m.col) == input.get(m.col);
                count += actual as i64 - cached as i64;
            }
            self.marginal[row] = cells;
        }
        count as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endurance;
    use rand::Rng;

    fn checkerboard(rows: usize, cols: usize) -> BitMatrix {
        let vals: Vec<f32> = (0..rows * cols)
            .map(|i| {
                if (i / cols + i % cols).is_multiple_of(2) {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        BitMatrix::from_signs(&vals, rows, cols)
    }

    #[test]
    fn program_read_roundtrip_on_fresh_devices() {
        let mut array = RramArray::test_chip(0);
        let pattern = checkerboard(32, 32);
        array.program_matrix(&pattern);
        for row in 0..32 {
            let bits = array.read_row(row);
            for col in 0..32 {
                assert_eq!(
                    bits.get(col),
                    pattern.get(row, col),
                    "mismatch at ({row},{col})"
                );
            }
        }
    }

    #[test]
    fn xnor_popcount_matches_software_reference() {
        let mut array = RramArray::test_chip(1);
        let pattern = checkerboard(32, 32);
        array.program_matrix(&pattern);
        let mut rng = StdRng::seed_from_u64(2);
        for row in 0..8 {
            let input: BitVec = (0..32).map(|_| rng.gen::<bool>()).collect();
            let hw = array.xnor_popcount_row(row, &input);
            let sw = pattern.row(row).xnor_popcount(&input);
            assert_eq!(hw, sw, "row {row}");
        }
    }

    #[test]
    fn stats_count_operations() {
        let mut array = RramArray::new(
            4,
            8,
            DeviceParams::hfo2_default(),
            PcsaParams::default_130nm(),
            3,
        );
        assert_eq!(array.stats(), ArrayStats::default());
        let row: BitVec = (0..8).map(|i| i % 2 == 0).collect();
        array.program_row(0, &row);
        let _ = array.read_row(0);
        assert_eq!(array.stats().programs, 8);
        assert_eq!(array.stats().senses, 8);
        // Prefix reads still sense every column.
        let input = BitVec::zeros(8);
        let _ = array.xnor_popcount_row_prefix(0, &input, 3);
        assert_eq!(array.stats().senses, 16);
    }

    #[test]
    fn fresh_arrays_are_almost_entirely_deterministic() {
        // The whole point of margin gating: on fresh devices the sense
        // margin clears 6σ for (essentially) every cell, so the hot path
        // never touches the RNG.
        let mut total_cells = 0usize;
        let mut total_marginal = 0usize;
        for seed in 0..8 {
            let mut array = RramArray::test_chip(seed);
            array.program_matrix(&checkerboard(32, 32));
            total_cells += 32 * 32;
            total_marginal += array.marginal_cells();
        }
        let frac = total_marginal as f64 / total_cells as f64;
        assert!(
            frac < 0.01,
            "fresh arrays should be ≫99% deterministic, marginal fraction {frac}"
        );
    }

    #[test]
    fn worn_arrays_grow_a_marginal_population() {
        let mut array = RramArray::test_chip(7);
        array.set_cycles(700_000_000);
        array.program_matrix(&checkerboard(32, 32));
        assert!(
            array.marginal_cells() > 0,
            "7e8-cycle programming must leave some cells in the marginal band"
        );
    }

    #[test]
    fn worn_array_shows_read_errors() {
        let mut array = RramArray::test_chip(4);
        let pattern = checkerboard(32, 32);
        // Wear out, then reprogram at high wear.
        array.set_cycles(700_000_000);
        array.program_matrix(&pattern);
        array.set_cycles(700_000_000);
        let mut errors = 0u32;
        let reads = 200;
        for _ in 0..reads {
            for row in 0..32 {
                let bits = array.read_row(row);
                for col in 0..32 {
                    if bits.get(col) != pattern.get(row, col) {
                        errors += 1;
                    }
                }
            }
        }
        let total = reads * 32 * 32;
        let ber = errors as f64 / total as f64;
        // 2T2R at 7e8 cycles: ≈ 1e-3 scale; definitely nonzero yet ≪ 1T1R's
        // percent scale.
        assert!(ber > 1e-5, "expected some worn-out errors, ber {ber}");
        assert!(ber < 3e-2, "2T2R ber {ber} should stay small");
    }

    #[test]
    fn gated_ber_matches_closed_form_of_ungated_sampler() {
        // Parity with the pre-gating Monte-Carlo path: the margin-gated
        // sense must reproduce the worn-device 2T2R BER of the original
        // three-draw sampler, whose exact value the endurance module
        // derives in closed form. Protocol mirrors Fig 4: re-program at
        // wear before every read so each trial sees fresh margins.
        let dp = DeviceParams::hfo2_default();
        let pp = PcsaParams::default_130nm();
        let cycles = 700_000_000u64;
        let cols = 64usize;
        let mut array = RramArray::new(1, cols, dp.clone(), pp.clone(), 0xBE12);
        let mut errors = 0u64;
        let trials = 3_000usize;
        for t in 0..trials {
            array.set_cycles(cycles);
            let weights: BitVec = (0..cols).map(|c| (t + c) % 2 == 0).collect();
            array.program_row(0, &weights);
            let got = array.read_row(0);
            for c in 0..cols {
                if got.get(c) != weights.get(c) {
                    errors += 1;
                }
            }
        }
        let mc = errors as f64 / (trials * cols) as f64;
        let analytic = endurance::analytic_point(&dp, &pp, cycles, 1.0).ber_2t2r;
        assert!(
            mc / analytic > 0.4 && mc / analytic < 2.5,
            "gated BER {mc:.3e} vs closed-form {analytic:.3e}"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds array")]
    fn oversized_matrix_rejected() {
        let mut array = RramArray::new(
            4,
            4,
            DeviceParams::hfo2_default(),
            PcsaParams::default_130nm(),
            5,
        );
        array.program_matrix(&checkerboard(5, 4));
    }
}
