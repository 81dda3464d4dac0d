//! Synthetic 12-lead ECG dataset with electrode-inversion labels.
//!
//! Stand-in for the Challenge-Data "electrode inversion detection" set used
//! by the paper (§III-B): 1000 three-second, 250 Hz, 12-lead recordings,
//! binary task "electrodes correctly placed vs one pair swapped".
//!
//! The generator is physically grounded so the swap is *consistent across
//! leads*, exactly as in a real recording:
//!
//! 1. a cardiac **dipole vector** traces P/Q/R/S/T Gaussian wavelets in 3-D
//!    (McSharry-style), beat after beat with RR variability;
//! 2. each of the nine measurement electrodes (RA, LA, LL, V1–V6) sees the
//!    projection of the dipole on its own lead vector;
//! 3. the standard 12 leads (I, II, III, aVR, aVL, aVF, V1–V6) are derived
//!    from electrode potentials — so swapping, say, LA↔RA flips lead I
//!    exactly, swaps II↔III, aVL↔aVR, and perturbs the precordial leads
//!    through the Wilson central terminal, the full clinical signature.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_tensor::Tensor;

use crate::signal::gaussian_wave;
use crate::Dataset;

/// Class label for a correctly wired recording.
pub const CORRECT: usize = 0;
/// Class label for a recording with one electrode pair swapped.
pub const INVERTED: usize = 1;

/// The nine measurement electrodes of a standard 12-lead setup
/// (the right leg is the ground and carries no signal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Electrode {
    /// Right arm.
    Ra,
    /// Left arm.
    La,
    /// Left leg.
    Ll,
    /// Precordial V1.
    V1,
    /// Precordial V2.
    V2,
    /// Precordial V3.
    V3,
    /// Precordial V4.
    V4,
    /// Precordial V5.
    V5,
    /// Precordial V6.
    V6,
}

impl Electrode {
    /// All nine electrodes in canonical order.
    pub const ALL: [Electrode; 9] = [
        Electrode::Ra,
        Electrode::La,
        Electrode::Ll,
        Electrode::V1,
        Electrode::V2,
        Electrode::V3,
        Electrode::V4,
        Electrode::V5,
        Electrode::V6,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            Electrode::Ra => 0,
            Electrode::La => 1,
            Electrode::Ll => 2,
            Electrode::V1 => 3,
            Electrode::V2 => 4,
            Electrode::V3 => 5,
            Electrode::V4 => 6,
            Electrode::V5 => 7,
            Electrode::V6 => 8,
        }
    }

    /// Unit-ish lead vector of the electrode in the (x: left, y: down,
    /// z: anterior) torso frame.
    fn lead_vector(self) -> [f32; 3] {
        match self {
            Electrode::Ra => [-0.9, -0.4, 0.0],
            Electrode::La => [0.9, -0.4, 0.0],
            Electrode::Ll => [0.2, 1.0, 0.0],
            // V1 sits over the right ventricle: the mean QRS axis projects
            // *negatively* on it (the clinical rS pattern), making its
            // waveform shape-distinct from V2's — so a V1↔V2 swap is
            // detectable even after per-lead normalization.
            Electrode::V1 => [-0.5, 0.0, 0.35],
            Electrode::V2 => [-0.1, 0.1, 1.0],
            Electrode::V3 => [0.2, 0.2, 0.9],
            Electrode::V4 => [0.5, 0.3, 0.8],
            Electrode::V5 => [0.7, 0.3, 0.6],
            Electrode::V6 => [0.9, 0.3, 0.3],
        }
    }
}

/// Electrode pairs that are plausibly swapped in practice, used for the
/// positive class. Limb swaps produce strong lead inversions; precordial
/// swaps are subtle.
pub const SWAP_CANDIDATES: [(Electrode, Electrode); 5] = [
    (Electrode::Ra, Electrode::La),
    (Electrode::Ra, Electrode::Ll),
    (Electrode::La, Electrode::Ll),
    (Electrode::V1, Electrode::V2),
    (Electrode::V5, Electrode::V6),
];

/// The three limb-electrode swaps only (each inverts at least one of the
/// Einthoven leads — the clearly detectable reversals).
pub const LIMB_SWAPS: [(Electrode, Electrode); 3] = [
    (Electrode::Ra, Electrode::La),
    (Electrode::Ra, Electrode::Ll),
    (Electrode::La, Electrode::Ll),
];

/// The reduced-scale swap mix: the three limb reversals plus the subtle
/// V1↔V2 precordial swap, so model capacity still matters (the hard
/// positives keep the task from saturating).
pub const REDUCED_SWAPS: [(Electrode, Electrode); 4] = [
    (Electrode::Ra, Electrode::La),
    (Electrode::Ra, Electrode::Ll),
    (Electrode::La, Electrode::Ll),
    (Electrode::V1, Electrode::V2),
];

/// One P/Q/R/S/T wavelet of the dipole trajectory.
#[derive(Debug, Clone, Copy)]
struct Wave {
    /// Beat-relative centre (fraction of the RR interval).
    center: f32,
    /// Width as a fraction of the RR interval.
    width: f32,
    /// Amplitude along the wave's axis.
    amp: f32,
    /// Direction in the torso frame.
    dir: [f32; 3],
}

const WAVES: [Wave; 5] = [
    // P wave: small, atrial axis.
    Wave {
        center: 0.15,
        width: 0.025,
        amp: 0.15,
        dir: [0.5, 0.6, 0.1],
    },
    // Q: small negative deflection.
    Wave {
        center: 0.33,
        width: 0.008,
        amp: -0.12,
        dir: [0.6, 0.7, 0.2],
    },
    // R: dominant spike along the electrical axis (~60° frontal).
    Wave {
        center: 0.36,
        width: 0.011,
        amp: 1.0,
        dir: [0.6, 0.8, 0.3],
    },
    // S: negative after-swing.
    Wave {
        center: 0.39,
        width: 0.009,
        amp: -0.25,
        dir: [0.4, 0.8, 0.5],
    },
    // T: broad repolarization, roughly concordant with R.
    Wave {
        center: 0.62,
        width: 0.06,
        amp: 0.35,
        dir: [0.5, 0.6, 0.25],
    },
];

/// Configuration of the synthetic 12-lead ECG generator.
#[derive(Debug, Clone)]
pub struct EcgConfig {
    /// Number of recordings (the paper's dataset holds 1000).
    pub trials: usize,
    /// Samples per recording (the paper: 3 s × 250 Hz = 750).
    pub samples: usize,
    /// Sampling rate in Hz.
    pub sample_rate: f32,
    /// White measurement-noise amplitude relative to the R peak.
    pub noise: f32,
    /// Baseline-wander amplitude.
    pub wander: f32,
    /// Electrode pairs eligible for the inverted class.
    pub swaps: Vec<(Electrode, Electrode)>,
    /// Master seed.
    pub seed: u64,
}

impl EcgConfig {
    /// Paper-scale configuration: 1000 trials of 750 samples at 250 Hz,
    /// all five plausible swaps.
    pub fn paper() -> Self {
        Self {
            trials: 1000,
            samples: 750,
            sample_rate: 250.0,
            noise: 0.04,
            wander: 0.08,
            swaps: SWAP_CANDIDATES.to_vec(),
            seed: 0x0EC6,
        }
    }

    /// Laptop-scale configuration: 480 trials of 250 samples (1 s), the
    /// three limb reversals plus V1↔V2, and noise raised so the task does
    /// not saturate at reduced training budgets (see README § Scale and
    /// substitutions).
    pub fn reduced() -> Self {
        Self {
            trials: 480,
            samples: 250,
            sample_rate: 250.0,
            noise: 0.05,
            wander: 0.08,
            swaps: REDUCED_SWAPS.to_vec(),
            seed: 0x0EC6,
        }
    }
}

/// Simulates the nine electrode potentials of one recording (also the
/// per-segment synthesis step of [`crate::stream::EcgStream`]).
pub(crate) fn electrode_potentials(cfg: &EcgConfig, rng: &mut StdRng) -> Vec<Vec<f32>> {
    let n = cfg.samples;
    let fs = cfg.sample_rate;
    // Per-trial heart rate 60–95 bpm with per-beat jitter.
    let rr_base = 60.0 / rng.gen_range(60.0..95.0); // seconds per beat
                                                    // Small per-trial rotation of the electrical axis.
    let axis_jitter: [f32; 3] = [
        rng.gen_range(-0.1..0.1),
        rng.gen_range(-0.1..0.1),
        rng.gen_range(-0.1..0.1),
    ];
    let amp_scale = rng.gen_range(0.85..1.15);

    // Precompute beat boundaries covering the recording.
    let mut beats = Vec::new();
    let mut t0 = -rr_base * rng.gen_range(0.0..1.0); // random phase offset
    while t0 < n as f32 / fs {
        let rr = rr_base * (1.0 + rng.gen_range(-0.05..0.05));
        beats.push((t0, rr));
        t0 += rr;
    }

    // Dipole trajectory.
    let mut dipole = vec![[0.0f32; 3]; n];
    for (start, rr) in &beats {
        for w in &WAVES {
            let center_s = start + w.center * rr;
            let width_s = w.width * rr.max(0.4);
            // Only touch samples within ±4σ.
            let lo = ((center_s - 4.0 * width_s) * fs).floor().max(0.0) as usize;
            let hi = (((center_s + 4.0 * width_s) * fs).ceil() as usize).min(n);
            for i in lo..hi {
                let t = i as f32 / fs;
                let g = gaussian_wave(t, center_s, width_s, w.amp * amp_scale);
                for k in 0..3 {
                    dipole[i][k] += g * (w.dir[k] + axis_jitter[k]);
                }
            }
        }
    }

    // Project on electrodes and add per-electrode artifacts.
    let mut potentials = Vec::with_capacity(9);
    for e in Electrode::ALL {
        let u = e.lead_vector();
        let wander_freq = rng.gen_range(0.15..0.45);
        let wander_phase = rng.gen_range(0.0..std::f32::consts::TAU);
        let mut v = Vec::with_capacity(n);
        for (i, d) in dipole.iter().enumerate() {
            let t = i as f32 / fs;
            let projection = u[0] * d[0] + u[1] * d[1] + u[2] * d[2];
            let wander =
                cfg.wander * (std::f32::consts::TAU * wander_freq * t + wander_phase).sin();
            let noise = cfg.noise * (rng.gen::<f32>() - 0.5) * 2.0;
            v.push(projection + wander + noise);
        }
        potentials.push(v);
    }
    potentials
}

/// Derives the standard 12 leads (I, II, III, aVR, aVL, aVF, V1–V6) from the
/// nine electrode potentials, each `[T]` long.
///
/// # Panics
///
/// Panics if `potentials` does not hold exactly nine equally long traces.
pub fn derive_leads(potentials: &[Vec<f32>]) -> Vec<Vec<f32>> {
    assert_eq!(potentials.len(), 9, "expected 9 electrode traces");
    let n = potentials[0].len();
    assert!(
        potentials.iter().all(|p| p.len() == n),
        "trace lengths differ"
    );
    let ra = &potentials[Electrode::Ra.index()];
    let la = &potentials[Electrode::La.index()];
    let ll = &potentials[Electrode::Ll.index()];
    let mut leads = vec![vec![0.0f32; n]; 12];
    for t in 0..n {
        let wct = (ra[t] + la[t] + ll[t]) / 3.0;
        leads[0][t] = la[t] - ra[t]; // I
        leads[1][t] = ll[t] - ra[t]; // II
        leads[2][t] = ll[t] - la[t]; // III
        leads[3][t] = ra[t] - (la[t] + ll[t]) / 2.0; // aVR
        leads[4][t] = la[t] - (ra[t] + ll[t]) / 2.0; // aVL
        leads[5][t] = ll[t] - (ra[t] + la[t]) / 2.0; // aVF
        for (vi, lead) in (3..9).zip(6..12) {
            leads[lead][t] = potentials[vi][t] - wct;
        }
    }
    leads
}

/// Generates the electrode-inversion dataset: half the recordings correctly
/// wired (class [`CORRECT`]), half with one randomly chosen plausible
/// electrode pair swapped (class [`INVERTED`]).
///
/// Samples have shape `[12, samples]` (leads × time) and are z-scored per
/// lead over the whole dataset.
pub fn generate(cfg: &EcgConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.trials;
    let mut x = Tensor::zeros([n, 12, cfg.samples]);
    let mut y = Vec::with_capacity(n);
    for i in 0..n {
        let mut potentials = electrode_potentials(cfg, &mut rng);
        let label = if i % 2 == 0 { CORRECT } else { INVERTED };
        if label == INVERTED {
            let (a, b) = cfg.swaps[rng.gen_range(0..cfg.swaps.len())];
            potentials.swap(a.index(), b.index());
        }
        let leads = derive_leads(&potentials);
        let base = i * 12 * cfg.samples;
        let xs = x.as_mut_slice();
        for (l, lead) in leads.iter().enumerate() {
            xs[base + l * cfg.samples..base + (l + 1) * cfg.samples].copy_from_slice(lead);
        }
        y.push(label);
    }
    let mut ds = Dataset::new(x, y, 2);
    ds.normalize_per_channel();
    ds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EcgConfig {
        EcgConfig {
            trials: 12,
            samples: 500,
            sample_rate: 250.0,
            noise: 0.02,
            wander: 0.05,
            swaps: SWAP_CANDIDATES.to_vec(),
            seed: 7,
        }
    }

    #[test]
    fn shapes_balance_determinism() {
        let cfg = tiny_cfg();
        let ds = generate(&cfg);
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.sample_shape(), vec![12, 500]);
        assert_eq!(ds.class_counts(), vec![6, 6]);
        assert_eq!(generate(&cfg), generate(&cfg));
    }

    #[test]
    fn la_ra_swap_inverts_lead_i_exactly() {
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(1);
        let potentials = electrode_potentials(&cfg, &mut rng);
        let leads = derive_leads(&potentials);
        let mut swapped = potentials.clone();
        swapped.swap(Electrode::Ra.index(), Electrode::La.index());
        let leads_sw = derive_leads(&swapped);
        for t in 0..cfg.samples {
            // Lead I flips sign exactly.
            assert!((leads[0][t] + leads_sw[0][t]).abs() < 1e-6);
            // Leads II and III exchange.
            assert!((leads[1][t] - leads_sw[2][t]).abs() < 1e-6);
            assert!((leads[2][t] - leads_sw[1][t]).abs() < 1e-6);
            // aVR and aVL exchange.
            assert!((leads[3][t] - leads_sw[4][t]).abs() < 1e-6);
            // Precordial leads are untouched by a limb swap (WCT invariant).
            assert!((leads[6][t] - leads_sw[6][t]).abs() < 1e-6);
        }
    }

    #[test]
    fn einthoven_law_holds() {
        // I + III = II at every instant, by construction of the leads.
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(2);
        let leads = derive_leads(&electrode_potentials(&cfg, &mut rng));
        for t in 0..cfg.samples {
            assert!((leads[0][t] + leads[2][t] - leads[1][t]).abs() < 1e-5);
        }
    }

    #[test]
    fn augmented_leads_sum_to_zero() {
        // aVR + aVL + aVF = 0 (Goldberger).
        let cfg = tiny_cfg();
        let mut rng = StdRng::seed_from_u64(3);
        let leads = derive_leads(&electrode_potentials(&cfg, &mut rng));
        for t in 0..cfg.samples {
            assert!((leads[3][t] + leads[4][t] + leads[5][t]).abs() < 1e-5);
        }
    }

    #[test]
    fn r_peak_dominates_lead_ii() {
        // Lead II roughly follows the electrical axis, so the R spike should
        // dominate the trace and be positive.
        let cfg = EcgConfig {
            noise: 0.0,
            wander: 0.0,
            ..tiny_cfg()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let leads = derive_leads(&electrode_potentials(&cfg, &mut rng));
        let max = leads[1].iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let min = leads[1].iter().copied().fold(f32::INFINITY, f32::min);
        assert!(max > 0.5, "R peak missing: max {max}");
        assert!(max > -min, "R peak should dominate: max {max}, min {min}");
    }

    #[test]
    #[should_panic(expected = "expected 9 electrode traces")]
    fn derive_leads_rejects_bad_input() {
        let _ = derive_leads(&vec![vec![0.0; 10]; 5]);
    }
}
