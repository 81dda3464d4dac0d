//! The in-memory BNN layer engine of Fig 5: RRAM arrays + XNOR-PCSAs +
//! shared popcount/threshold logic composing fully-connected layers.
//!
//! A weight matrix larger than one physical array is tiled: row tiles split
//! the output neurons across arrays, column tiles split each neuron's
//! fan-in, and the shared logic sums the per-tile popcounts before the
//! threshold — exactly the "basic architecture for implementing fully
//! connected BNN layer from in-memory computing basic blocks" of the paper.

use std::sync::{Arc, OnceLock};

use rbnn_binary::{BinaryDense, BinaryNetwork};
use rbnn_telemetry::{Counter, FloatCounter, Gauge};
use rbnn_tensor::{par, BitVec, Tensor};

use crate::energy::{sense_energy_nj, EnergyParams};
use crate::{ArrayStats, DeviceParams, PcsaParams, RramArray};

/// Process-wide RRAM fabric telemetry, aggregated across every
/// [`NetworkEngine`] in the process (serving replicas, tests and benches
/// alike) — the fleet-level view of how much array activity and estimated
/// sense energy the workload is consuming.
struct FabricTelemetry {
    /// PCSA senses across all engines.
    senses: Arc<Counter>,
    /// Device-pair programming events across all engines.
    programs: Arc<Counter>,
    /// Estimated cumulative sense energy in µJ (default energy figures).
    energy_uj: Arc<FloatCounter>,
    /// Marginal-cell fraction of the most recently programmed or aged
    /// fabric (last-write-wins across engines).
    marginal_fraction: Arc<Gauge>,
    energy: EnergyParams,
}

fn fabric_telemetry() -> &'static FabricTelemetry {
    static FABRIC: OnceLock<FabricTelemetry> = OnceLock::new();
    FABRIC.get_or_init(|| {
        let reg = rbnn_telemetry::global();
        FabricTelemetry {
            senses: reg.counter(
                "rbnn_rram_senses_total",
                "",
                "PCSA sense operations across all engines.",
            ),
            programs: reg.counter(
                "rbnn_rram_programs_total",
                "",
                "Device-pair programming events across all engines.",
            ),
            energy_uj: reg.float_counter(
                "rbnn_rram_energy_uj_total",
                "",
                "Estimated cumulative PCSA sense energy (uJ, default figures).",
            ),
            marginal_fraction: reg.gauge(
                "rbnn_rram_marginal_fraction",
                "",
                "Marginal (still-Monte-Carlo) cell fraction of the last programmed/aged fabric.",
            ),
            energy: EnergyParams::default_figures(),
        }
    })
}

/// Records a batch of sense events on the fleet counters (plus their
/// estimated energy through [`sense_energy_nj`]).
pub(crate) fn record_fabric_senses(senses: u64) {
    if senses == 0 {
        return;
    }
    let t = fabric_telemetry();
    t.senses.add(senses);
    t.energy_uj.add(sense_energy_nj(senses, &t.energy) / 1e3);
}

/// Physical configuration of the array fabric.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Word lines per array (the paper's test chip: 32).
    pub array_rows: usize,
    /// Synapse columns per array (the paper's test chip: 32).
    pub array_cols: usize,
    /// Device statistics.
    pub device: DeviceParams,
    /// Sense-amplifier statistics.
    pub pcsa: PcsaParams,
    /// Master seed for device sampling.
    pub seed: u64,
}

impl EngineConfig {
    /// The paper's 1K-synapse test-chip geometry with default device/PCSA
    /// models.
    pub fn test_chip(seed: u64) -> Self {
        Self {
            array_rows: 32,
            array_cols: 32,
            device: DeviceParams::hfo2_default(),
            pcsa: PcsaParams::default_130nm(),
            seed,
        }
    }

    /// A deterministic fabric for differential testing: zero read and PCSA
    /// noise (combined sense σ = 0, so every cell is margin-gated) and
    /// tightened state spreads so a programmed pair's margin never inverts
    /// (order-inversion z ≈ 12, probability ~1e-32). Evaluation on such a
    /// fabric is bit-exact with the software XNOR/popcount path by
    /// construction, which is what makes it a usable oracle reference.
    pub fn noise_free(seed: u64) -> Self {
        let mut device = DeviceParams::hfo2_default();
        device.read_noise = 0.0;
        device.lrs_sigma = 0.18;
        device.hrs_sigma = 0.18;
        Self {
            array_rows: 32,
            array_cols: 32,
            device,
            pcsa: PcsaParams {
                offset_sigma: 0.0,
                noise_sigma: 0.0,
            },
            seed,
        }
    }
}

/// One fully-connected layer mapped onto a grid of physical arrays.
#[derive(Debug)]
pub struct DenseEngine {
    // tiles[row_tile][col_tile]
    tiles: Vec<Vec<RramArray>>,
    tile_rows: usize,
    tile_cols: usize,
    in_features: usize,
    out_features: usize,
    scale: Vec<f32>,
    shift: Vec<f32>,
    /// Thread cap for tile-parallel evaluation (0 = auto).
    threads: usize,
}

impl DenseEngine {
    /// Programs a trained [`BinaryDense`] layer into freshly instantiated
    /// arrays.
    pub fn program(layer: &BinaryDense, cfg: &EngineConfig) -> Self {
        let in_features = layer.in_features();
        let out_features = layer.out_features();
        let row_tiles = out_features.div_ceil(cfg.array_rows);
        let col_tiles = in_features.div_ceil(cfg.array_cols);
        let (scale, shift) = layer.affine();

        let mut tiles = Vec::with_capacity(row_tiles);
        let mut seed = cfg.seed;
        for rt in 0..row_tiles {
            let mut row = Vec::with_capacity(col_tiles);
            for ct in 0..col_tiles {
                seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
                let mut array = RramArray::new(
                    cfg.array_rows,
                    cfg.array_cols,
                    cfg.device.clone(),
                    cfg.pcsa.clone(),
                    seed,
                );
                let r0 = rt * cfg.array_rows;
                let c0 = ct * cfg.array_cols;
                for r in r0..(r0 + cfg.array_rows).min(out_features) {
                    for c in c0..(c0 + cfg.array_cols).min(in_features) {
                        array.program_bit(r - r0, c - c0, layer.weights().get(r, c));
                    }
                }
                row.push(array);
            }
            tiles.push(row);
        }
        Self {
            tiles,
            tile_rows: cfg.array_rows,
            tile_cols: cfg.array_cols,
            in_features,
            out_features,
            scale: scale.to_vec(),
            shift: shift.to_vec(),
            threads: 1,
        }
    }

    /// Caps the number of threads tile-parallel evaluation may use:
    /// `0` = auto (all threads [`rbnn_tensor::par::num_threads`] allows),
    /// `1` = sequential (the default — with margin-gated fresh devices the
    /// per-tile work is microseconds, so per-call scoped-thread spawn and
    /// join would dominate single-sample callers; opt in for worn devices
    /// or deep batches).
    ///
    /// Row tiles run on scoped threads with independent per-tile RNG
    /// streams (each [`RramArray`] owns its generator), so results are
    /// identical at any thread count.
    pub fn set_parallelism(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// Current tile-parallel thread cap (0 = auto, 1 = sequential).
    pub fn parallelism(&self) -> usize {
        self.threads
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output neuron count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// Number of physical arrays used.
    pub fn array_count(&self) -> usize {
        self.tiles.iter().map(|r| r.len()).sum()
    }

    /// Cells across all tiles currently in the marginal (Monte-Carlo)
    /// band — the complement of the senses that short-circuit through the
    /// margin-gated fast path.
    pub fn marginal_cells(&self) -> usize {
        self.tiles
            .iter()
            .flatten()
            .map(RramArray::marginal_cells)
            .sum()
    }

    /// Expected sense flips per evaluated sample: every tile row is read
    /// once per sample, so this is the sum of
    /// [`RramArray::flip_expectation`] over all tiles. Together with a
    /// union bound ("a prediction can only deviate from the noise-free
    /// one if at least one sense flipped"), it upper-bounds the per-sample
    /// probability of disagreeing with the software path.
    pub fn expected_flips_per_sample(&self) -> f64 {
        self.tiles
            .iter()
            .flatten()
            .map(RramArray::flip_expectation)
            .sum()
    }

    /// Fast-forwards device wear across every array.
    pub fn set_cycles(&mut self, cycles: u64) {
        for row in &mut self.tiles {
            for array in row {
                array.set_cycles(cycles);
            }
        }
    }

    /// Re-programs every tile's synapses to their stored weights at the
    /// current wear level; see [`RramArray::refresh`].
    pub fn refresh(&mut self) {
        for row in &mut self.tiles {
            for array in row {
                array.refresh();
            }
        }
    }

    /// Aggregated operation counters across arrays.
    pub fn stats(&self) -> ArrayStats {
        let mut total = ArrayStats::default();
        for row in &self.tiles {
            for array in row {
                total.programs += array.stats().programs;
                total.senses += array.stats().senses;
            }
        }
        total
    }

    /// Hardware popcounts per output neuron: XNOR-senses along the word
    /// line of each tile, popcount summed by the shared logic.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != in_features()`.
    pub fn popcounts(&mut self, x: &BitVec) -> Vec<u32> {
        self.popcounts_batch(std::slice::from_ref(x))
            .pop()
            .expect("one sample in, one out")
    }

    /// Batched hardware popcounts: element `i` of the result is
    /// [`popcounts`](Self::popcounts) of `xs[i]`.
    ///
    /// The tile bookkeeping is amortized across the batch: the input slice
    /// feeding each column tile is cut once per sample (word-level, not
    /// bit-by-bit) and reused across every row tile. Row tiles then fan
    /// out across [`rbnn_tensor::par`] scoped threads (capped by
    /// [`set_parallelism`](Self::set_parallelism)): each worker claims
    /// whole row tiles, so every array — and its private RNG stream — is
    /// driven by exactly one thread in the same per-array operation order
    /// as sequential evaluation. Results and [`stats`](Self::stats)
    /// counters are therefore identical at any thread count; every sample
    /// still performs its own (margin-gated) PCSA senses.
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `in_features()`.
    pub fn popcounts_batch(&mut self, xs: &[BitVec]) -> Vec<Vec<u32>> {
        for x in xs {
            assert_eq!(x.len(), self.in_features, "input width mismatch");
        }
        let col_tiles = self.tiles.first().map_or(0, Vec::len);
        // Cut each sample once per column tile; shared read-only by every
        // row-tile worker.
        let tile_inputs: Vec<Vec<BitVec>> = (0..col_tiles)
            .map(|ct| {
                let c0 = ct * self.tile_cols;
                let cols_used = (self.in_features - c0).min(self.tile_cols);
                xs.iter()
                    .map(|x| x.slice_padded(c0, cols_used, self.tile_cols))
                    .collect()
            })
            .collect();
        let (tile_rows, tile_cols) = (self.tile_rows, self.tile_cols);
        let (in_features, out_features) = (self.in_features, self.out_features);
        let n_samples = xs.len();
        let partials: Vec<Vec<Vec<u32>>> =
            par::par_map_mut(&mut self.tiles, self.threads, |rt, tile_row| {
                let r0 = rt * tile_rows;
                let rows_used = (out_features - r0).min(tile_rows);
                let mut part = vec![vec![0u32; rows_used]; n_samples];
                for (ct, array) in tile_row.iter_mut().enumerate() {
                    let cols_used = (in_features - ct * tile_cols).min(tile_cols);
                    for r in 0..rows_used {
                        for (counts, tile_input) in part.iter_mut().zip(&tile_inputs[ct]) {
                            counts[r] += array.xnor_popcount_row_prefix(r, tile_input, cols_used);
                        }
                    }
                }
                part
            });
        let mut out = vec![vec![0u32; self.out_features]; n_samples];
        for (rt, part) in partials.iter().enumerate() {
            let r0 = rt * tile_rows;
            for (sample, rows) in part.iter().enumerate() {
                out[sample][r0..r0 + rows.len()].copy_from_slice(rows);
            }
        }
        out
    }

    /// Affine outputs (logits): `scale · (2·popcount − n) + shift`.
    pub fn forward_affine(&mut self, x: &BitVec) -> Vec<f32> {
        let counts = self.popcounts(x);
        self.affine_of(&counts)
    }

    fn affine_of(&self, counts: &[u32]) -> Vec<f32> {
        let n = self.in_features as f32;
        counts
            .iter()
            .zip(self.scale.iter().zip(&self.shift))
            .map(|(&p, (&s, &b))| s * (2.0 * p as f32 - n) + b)
            .collect()
    }

    /// Binary outputs through the folded integer thresholds.
    pub fn forward_sign(&mut self, x: &BitVec) -> BitVec {
        self.forward_affine(x).iter().map(|&v| v >= 0.0).collect()
    }

    /// Batched binary outputs: one batched tile sweep, then the sign of
    /// each sample's affine outputs.
    pub fn forward_sign_batch(&mut self, xs: &[BitVec]) -> Vec<BitVec> {
        self.popcounts_batch(xs)
            .iter()
            .map(|counts| self.affine_of(counts).iter().map(|&v| v >= 0.0).collect())
            .collect()
    }
}

/// A whole deployed classifier running in simulated RRAM.
///
/// [`logits`](Self::logits) walks one sample layer by layer (the engine's
/// scalar oracle); batches replay a compiled `rbnn_graph::ExecPlan` through
/// [`replay_plan`](Self::replay_plan).
#[derive(Debug)]
pub struct NetworkEngine {
    layers: Vec<DenseEngine>,
}

impl NetworkEngine {
    /// Programs every layer of a [`BinaryNetwork`] onto array fabric.
    pub fn program(network: &BinaryNetwork, cfg: &EngineConfig) -> Self {
        let layers = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, l)| {
                let mut layer_cfg = cfg.clone();
                layer_cfg.seed = cfg.seed.wrapping_add(1 + i as u64);
                DenseEngine::program(l, &layer_cfg)
            })
            .collect();
        let engine = Self { layers };
        if rbnn_telemetry::enabled() {
            fabric_telemetry().programs.add(engine.stats().programs);
            engine.update_marginal_gauge();
        }
        engine
    }

    /// Total programmed cells (synapses) across layers.
    pub fn cell_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.in_features() * l.out_features())
            .sum()
    }

    /// Publishes this fabric's marginal-cell fraction on the fleet gauge.
    fn update_marginal_gauge(&self) {
        let cells = self.cell_count();
        if cells > 0 {
            fabric_telemetry()
                .marginal_fraction
                .set(self.marginal_cells() as f64 / cells as f64);
        }
    }

    /// The per-layer engines.
    pub fn layers(&self) -> &[DenseEngine] {
        &self.layers
    }

    /// Mutable per-layer engines, for the execution-plan replay
    /// (`graph_exec`): sensing mutates device state and RNG streams.
    pub(crate) fn layers_mut(&mut self) -> &mut [DenseEngine] {
        &mut self.layers
    }

    /// Total physical arrays across layers.
    pub fn array_count(&self) -> usize {
        self.layers.iter().map(|l| l.array_count()).sum()
    }

    /// Total marginal (still-Monte-Carlo) cells across layers.
    pub fn marginal_cells(&self) -> usize {
        self.layers.iter().map(DenseEngine::marginal_cells).sum()
    }

    /// Expected sense flips per classified sample across all layers; see
    /// [`DenseEngine::expected_flips_per_sample`].
    pub fn expected_flips_per_sample(&self) -> f64 {
        self.layers
            .iter()
            .map(DenseEngine::expected_flips_per_sample)
            .sum()
    }

    /// Caps tile-parallel threads on every layer (0 = auto); see
    /// [`DenseEngine::set_parallelism`].
    pub fn set_parallelism(&mut self, threads: usize) {
        for l in &mut self.layers {
            l.set_parallelism(threads);
        }
    }

    /// Fast-forwards wear on every device.
    pub fn set_cycles(&mut self, cycles: u64) {
        for l in &mut self.layers {
            l.set_cycles(cycles);
        }
        // Wear re-evaluates the margin gate, so the marginal fraction
        // shifts; refresh the fleet gauge.
        if rbnn_telemetry::enabled() {
            self.update_marginal_gauge();
        }
    }

    /// Re-programs the whole network onto the (possibly worn) fabric —
    /// the periodic weight-refresh cycle of a deployed chip. Re-realized
    /// resistances draw from the current wear level's distributions, so
    /// after [`set_cycles`](Self::set_cycles) a refresh is what actually
    /// moves cells into the marginal band (wear alone only changes the
    /// statistics of future programming events).
    pub fn refresh(&mut self) {
        for l in &mut self.layers {
            l.refresh();
        }
        if rbnn_telemetry::enabled() {
            self.update_marginal_gauge();
        }
    }

    /// Aggregated operation counters.
    pub fn stats(&self) -> ArrayStats {
        let mut total = ArrayStats::default();
        for l in &self.layers {
            let s = l.stats();
            total.programs += s.programs;
            total.senses += s.senses;
        }
        total
    }

    /// Logits for a real-valued feature vector (sign-binarized at the
    /// input interface).
    pub fn logits(&mut self, x: &[f32]) -> Vec<f32> {
        let before = rbnn_telemetry::enabled().then(|| self.stats().senses);
        let mut h = BitVec::from_signs(x);
        let n = self.layers.len();
        for l in &mut self.layers[..n - 1] {
            h = l.forward_sign(&h);
        }
        let out = self.layers[n - 1].forward_affine(&h);
        if let Some(b) = before {
            record_fabric_senses(self.stats().senses - b);
        }
        out
    }

    /// Predicted class.
    pub fn classify(&mut self, x: &[f32]) -> usize {
        rbnn_tensor::argmax(&self.logits(x))
    }

    /// Top-1 accuracy over a feature matrix `[N, in]` — the hardware
    /// counterpart of `rbnn_graph::accuracy`, one sample at a time.
    pub fn accuracy(&mut self, features: &Tensor, labels: &[usize]) -> f32 {
        assert_eq!(features.dim(0), labels.len(), "label count mismatch");
        if labels.is_empty() {
            return 0.0;
        }
        let f = features.dim(1);
        let xs = features.as_slice();
        let mut hits = 0usize;
        for (i, &y) in labels.iter().enumerate() {
            if self.classify(&xs[i * f..(i + 1) * f]) == y {
                hits += 1;
            }
        }
        hits as f32 / labels.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use rbnn_tensor::BitMatrix;

    /// Independently seeded RNG stream for engine-level tests.
    fn engine_rng(seed: u64) -> impl Rng {
        use rand::SeedableRng;
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn random_network(rng: &mut impl Rng) -> BinaryNetwork {
        let mk = |out: usize, inp: usize, rng: &mut dyn FnMut() -> bool| {
            let w: Vec<f32> = (0..out * inp)
                .map(|_| if rng() { 1.0 } else { -1.0 })
                .collect();
            BinaryDense::new(
                BitMatrix::from_signs(&w, out, inp),
                vec![1.0; out],
                (0..out)
                    .map(|i| (i as f32 - out as f32 / 2.0) * 0.1)
                    .collect(),
            )
        };
        let mut flip = || rng.gen::<bool>();
        let l1 = mk(40, 70, &mut flip); // forces 2×3 tiling on 32×32 arrays
        let l2 = mk(4, 40, &mut flip);
        BinaryNetwork::new(vec![l1, l2])
    }

    /// Batched logits of the `[N, 70]` row-major `xs` through a plan
    /// replayed on `engine` — the engine's one batched path.
    fn replay(engine: &mut NetworkEngine, net: &BinaryNetwork, xs: &[f32]) -> Vec<f32> {
        let rows: Vec<&[f32]> = xs.chunks(70).collect();
        let plan = rbnn_graph::ExecPlan::compile(net, rows.len().max(1));
        let mut buffers = plan.buffers();
        let mut out = vec![0.0; rows.len() * net.out_features()];
        engine.replay_plan(&plan, &rows, &mut buffers, &mut out);
        out
    }

    #[test]
    fn fresh_engine_matches_software_network_exactly() {
        let mut rng = engine_rng(0);
        let net = random_network(&mut rng);
        let cfg = EngineConfig::test_chip(7);
        let mut engine = NetworkEngine::program(&net, &cfg);
        for _ in 0..30 {
            let x: Vec<f32> = (0..70)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let hw = engine.logits(&x);
            let sw = net.logits(&x);
            for (h, s) in hw.iter().zip(&sw) {
                assert!((h - s).abs() < 1e-3, "hw {h} vs sw {s}");
            }
            assert_eq!(engine.classify(&x), net.classify(&x));
        }
    }

    #[test]
    fn tiling_geometry() {
        let mut rng = engine_rng(1);
        let net = random_network(&mut rng);
        let cfg = EngineConfig::test_chip(8);
        let engine = NetworkEngine::program(&net, &cfg);
        // Layer 1: 40×70 → ceil(40/32)=2 row tiles × ceil(70/32)=3 col
        // tiles = 6 arrays; layer 2: 4×40 → 1×2 = 2 arrays.
        assert_eq!(engine.layers()[0].array_count(), 6);
        assert_eq!(engine.layers()[1].array_count(), 2);
        assert_eq!(engine.array_count(), 8);
    }

    #[test]
    fn stats_accumulate_per_inference() {
        let mut rng = engine_rng(2);
        let net = random_network(&mut rng);
        let cfg = EngineConfig::test_chip(9);
        let mut engine = NetworkEngine::program(&net, &cfg);
        let programs_after_mapping = engine.stats().programs;
        assert_eq!(programs_after_mapping, 40 * 70 + 4 * 40);
        let x = vec![1.0f32; 70];
        let _ = engine.logits(&x);
        assert!(engine.stats().senses > 0);
    }

    #[test]
    fn fabric_telemetry_tracks_programs_senses_and_energy() {
        let mut rng = engine_rng(77);
        let net = random_network(&mut rng);
        let t = super::fabric_telemetry();
        let programs_before = t.programs.get();
        let senses_before = t.senses.get();
        let energy_before = t.energy_uj.get();
        let mut engine = NetworkEngine::program(&net, &EngineConfig::test_chip(70));
        // Programming registered every device-pair write on the fleet
        // counter (other tests run concurrently, so assert deltas as
        // lower bounds).
        assert!(t.programs.get() >= programs_before + (40 * 70 + 4 * 40) as u64);
        let frac = t.marginal_fraction.get();
        assert!((0.0..=1.0).contains(&frac), "fraction {frac}");
        let local_before = engine.stats().senses;
        let x = vec![1.0f32; 70];
        let _ = engine.logits(&x);
        let local_delta = engine.stats().senses - local_before;
        assert!(local_delta > 0);
        assert!(t.senses.get() >= senses_before + local_delta);
        // Energy follows the senses through the default figures.
        let expected_uj = crate::energy::sense_energy_nj(
            local_delta,
            &crate::energy::EnergyParams::default_figures(),
        ) / 1e3;
        assert!(t.energy_uj.get() >= energy_before + expected_uj - 1e-12);
        assert_eq!(engine.cell_count(), 40 * 70 + 4 * 40);
    }

    #[test]
    fn batched_engine_matches_software_network_exactly_when_fresh() {
        // On fresh devices every sense resolves correctly, so the batched
        // plan replay must agree with the software network (and hence with
        // the sequential engine path) despite a different RNG draw order.
        let mut rng = engine_rng(4);
        let net = random_network(&mut rng);
        let cfg = EngineConfig::test_chip(11);
        let mut engine = NetworkEngine::program(&net, &cfg);
        for n in [0usize, 1, 5, 33] {
            let xs: Vec<f32> = (0..n * 70)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            let hw = replay(&mut engine, &net, &xs);
            assert_eq!(hw.len(), n * 4);
            for (i, row) in xs.chunks(70).enumerate() {
                let sw = net.logits(row);
                let hw_row = &hw[i * 4..(i + 1) * 4];
                for (h, s) in hw_row.iter().zip(&sw) {
                    assert!((h - s).abs() < 1e-3, "batch {n}: hw {h} vs sw {s}");
                }
                assert_eq!(rbnn_tensor::argmax(hw_row), net.classify(row));
            }
        }
    }

    #[test]
    fn batched_senses_match_sequential_count() {
        // The batched path must fire exactly the same number of PCSA
        // senses as per-sample evaluation: batching amortizes bookkeeping,
        // not physics.
        let mut rng = engine_rng(5);
        let net = random_network(&mut rng);
        let mut seq = NetworkEngine::program(&net, &EngineConfig::test_chip(12));
        let mut bat = NetworkEngine::program(&net, &EngineConfig::test_chip(12));
        let n = 7;
        let xs: Vec<f32> = (0..n * 70)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        for i in 0..n {
            let _ = seq.logits(&xs[i * 70..(i + 1) * 70]);
        }
        let _ = replay(&mut bat, &net, &xs);
        assert_eq!(seq.stats().senses, bat.stats().senses);
        assert_eq!(seq.stats().programs, bat.stats().programs);
    }

    #[test]
    fn tile_parallel_results_are_thread_count_invariant() {
        // Each array owns its RNG stream and is driven by exactly one
        // worker, so the fan-out must be bit-identical at any thread cap —
        // even under wear, where marginal cells actively draw noise.
        let mut rng = engine_rng(7);
        let net = random_network(&mut rng);
        let xs: Vec<f32> = (0..9 * 70)
            .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
            .collect();
        // Heavy read noise puts most cells inside the ±6σ marginal band,
        // so the workers actively consume their per-tile RNG streams.
        let mut cfg = EngineConfig::test_chip(14);
        cfg.device.read_noise = 0.5;
        let run = |threads: usize| {
            let mut engine = NetworkEngine::program(&net, &cfg);
            assert!(engine.marginal_cells() > 100, "test needs marginal cells");
            engine.set_parallelism(threads);
            for l in engine.layers() {
                assert_eq!(l.parallelism(), threads, "cap must propagate");
            }
            replay(&mut engine, &net, &xs)
        };
        let serial = run(1);
        for threads in [2usize, 0] {
            assert_eq!(
                serial,
                run(threads),
                "threads={threads} diverged from serial"
            );
        }
    }

    #[test]
    fn fresh_engine_senses_without_marginal_cells() {
        // Margin gating on fresh devices: (essentially) every cell is
        // deterministic, which is what makes RRAM serving fast.
        let mut rng = engine_rng(8);
        let net = random_network(&mut rng);
        let engine = NetworkEngine::program(&net, &EngineConfig::test_chip(15));
        let total: usize = 40 * 70 + 4 * 40;
        let marginal = engine.marginal_cells();
        assert!(
            (marginal as f64) < 0.01 * total as f64,
            "fresh engine should be ≫99% gated: {marginal}/{total} marginal"
        );
    }

    #[test]
    fn worn_engine_batched_accuracy_statistically_consistent() {
        // Under wear the batched and sequential paths draw different
        // Monte-Carlo streams; their accuracies must still agree within a
        // loose statistical band.
        let mut rng = engine_rng(6);
        let net = random_network(&mut rng);
        let mut engine = NetworkEngine::program(&net, &EngineConfig::test_chip(13));
        let n = 60;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..70)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            labels.push(net.classify(&x));
            xs.extend_from_slice(&x);
        }
        let features = Tensor::from_vec(xs.clone(), [n, 70]);
        engine.set_cycles(500_000_000);
        let seq = engine.accuracy(&features, &labels);
        let logits = replay(&mut engine, &net, &xs);
        let hits = logits
            .chunks(4)
            .zip(&labels)
            .filter(|(row, &y)| rbnn_tensor::argmax(row) == y)
            .count();
        let bat = hits as f32 / n as f32;
        assert!(
            (seq - bat).abs() < 0.15,
            "sequential {seq} vs batched {bat} drifted beyond statistical band"
        );
    }

    #[test]
    fn worn_engine_accuracy_degrades_gracefully() {
        // At 7e8 cycles the 2T2R BER is ~1e-3; a 2-layer network on a
        // linearly separable task should still classify mostly correctly.
        let mut rng = engine_rng(3);
        let net = random_network(&mut rng);
        let cfg = EngineConfig::test_chip(10);
        let mut engine = NetworkEngine::program(&net, &cfg);

        // Reference labels from the software network.
        let n = 40;
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..n {
            let x: Vec<f32> = (0..70)
                .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                .collect();
            labels.push(net.classify(&x));
            xs.extend_from_slice(&x);
        }
        let features = Tensor::from_vec(xs, [n, 70]);
        let fresh_acc = engine.accuracy(&features, &labels);
        assert!(
            fresh_acc > 0.99,
            "fresh engine should agree with software: {fresh_acc}"
        );

        engine.set_cycles(700_000_000);
        let worn_acc = engine.accuracy(&features, &labels);
        // Graceful: still far above chance for 4 classes.
        assert!(worn_acc > 0.5, "worn accuracy collapsed: {worn_acc}");
    }
}
