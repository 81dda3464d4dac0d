//! Synthetic EEG motor-imagery dataset.
//!
//! Stand-in for the PhysioNet EEG Motor Movement/Imagery Dataset used by the
//! paper (§III-A): 64-channel scalp EEG at 160 Hz, six-second trials, binary
//! task "imagined left-fist vs right-fist movement".
//!
//! The generator reproduces the physiological structure the classifier must
//! exploit in the real data:
//!
//! * a per-channel 1/f (pink) background plus a common posterior alpha
//!   rhythm;
//! * a **mu rhythm** (~8–12 Hz) focused over the left (C3) and right (C4)
//!   motor cortices with per-subject frequency and amplitude;
//! * **event-related desynchronization (ERD)**: imagining a movement of one
//!   hand *attenuates* the mu rhythm over the contralateral motor cortex —
//!   left-fist imagery suppresses C4, right-fist imagery suppresses C3;
//! * per-subject variability so cross-validation folds are non-trivial.
//!
//! The class signal is therefore a *relative band-power* difference buried
//! in noise, the same discrimination problem (and difficulty knob) as the
//! real task.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use rbnn_tensor::Tensor;

use crate::signal;
use crate::Dataset;

/// Class label for left-fist imagery (ERD over the right hemisphere / C4).
pub const LEFT_FIST: usize = 0;
/// Class label for right-fist imagery (ERD over the left hemisphere / C3).
pub const RIGHT_FIST: usize = 1;

/// Configuration of the synthetic motor-imagery generator.
#[derive(Debug, Clone)]
pub struct EegConfig {
    /// Number of simulated subjects (the paper uses 105).
    pub subjects: usize,
    /// Trials per subject (the paper uses 42); split evenly between classes.
    pub trials_per_subject: usize,
    /// Electrode count (the paper uses 64).
    pub channels: usize,
    /// Samples per trial (the paper uses 6 s × 160 Hz = 960).
    pub samples: usize,
    /// Sampling rate in Hz.
    pub sample_rate: f32,
    /// Fractional mu-amplitude suppression under ERD (0–1); larger is
    /// easier. 0.5 gives a realistic, noisy-but-learnable task.
    pub erd_depth: f32,
    /// Background noise amplitude relative to the mu rhythm.
    pub noise_scale: f32,
    /// Master seed.
    pub seed: u64,
}

impl EegConfig {
    /// Paper-scale configuration: 105 subjects × 42 trials, 64 channels,
    /// 960 samples at 160 Hz.
    pub fn paper() -> Self {
        Self {
            subjects: 105,
            trials_per_subject: 42,
            channels: 64,
            samples: 960,
            sample_rate: 160.0,
            erd_depth: 0.5,
            noise_scale: 1.0,
            seed: 0x0EE6,
        }
    }

    /// Laptop-scale configuration preserving the task structure: fewer
    /// subjects/trials, 16 channels, 192 samples (6 s at 32 Hz). The ERD
    /// depth / noise pair is calibrated so the reduced task separates the
    /// three precision strategies the way the paper's full-scale task does
    /// (real ≈ bin-classifier ≫ 1× BNN, recovered by filter augmentation);
    /// see README § Scale and substitutions.
    pub fn reduced() -> Self {
        Self {
            subjects: 6,
            trials_per_subject: 40,
            channels: 16,
            samples: 192,
            sample_rate: 32.0,
            erd_depth: 0.34,
            noise_scale: 1.65,
            seed: 0x0EE6,
        }
    }

    /// Total number of trials.
    pub fn total_trials(&self) -> usize {
        self.subjects * self.trials_per_subject
    }

    /// Index of the electrode closest to the left motor cortex (C3).
    pub fn c3(&self) -> usize {
        self.channels / 4
    }

    /// Index of the electrode closest to the right motor cortex (C4).
    pub fn c4(&self) -> usize {
        3 * self.channels / 4
    }
}

/// Spatial sensitivity of electrode `ch` to a source centred at `center`,
/// as a Gaussian on the (1-D abstracted) electrode axis (shared with the
/// streaming source, [`crate::stream::EegStream`]).
pub(crate) fn spatial_gain(ch: usize, center: usize, channels: usize) -> f32 {
    let sigma = channels as f32 / 10.0;
    let d = (ch as f32 - center as f32) / sigma;
    (-0.5 * d * d).exp()
}

/// One simulated subject's physiology — the per-subject block of the
/// generative model, drawn identically by the dataset generator and the
/// streaming source so the two cannot diverge.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SubjectPhysiology {
    pub(crate) mu_freq: f32,
    pub(crate) beta_freq: f32,
    pub(crate) mu_amp: f32,
    pub(crate) alpha_amp: f32,
    pub(crate) noise: f32,
}

impl SubjectPhysiology {
    pub(crate) fn draw(noise_scale: f32, rng: &mut StdRng) -> Self {
        let mu_freq = 10.5 + rng.gen_range(-1.0..1.0);
        Self {
            mu_freq,
            beta_freq: 2.0 * mu_freq + rng.gen_range(-1.0..1.0),
            mu_amp: 1.0 + rng.gen_range(-0.2..0.2),
            alpha_amp: 0.6 + rng.gen_range(-0.2..0.2),
            noise: noise_scale * (1.0 + rng.gen_range(-0.2..0.2)),
        }
    }
}

/// Generates the synthetic motor-imagery dataset.
///
/// Samples have shape `[1, samples, channels]` — the single-channel 2-D
/// "time × space image" layout the paper's EEG network consumes (Fig 6) —
/// and are already per-electrode z-score normalized (the paper's only
/// preprocessing step).
pub fn generate(cfg: &EegConfig) -> Dataset {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = cfg.total_trials();
    let (t_len, c_len) = (cfg.samples, cfg.channels);
    let mut x = Tensor::zeros([n, 1, t_len, c_len]);
    let mut y = Vec::with_capacity(n);

    let mut trial = 0usize;
    for _subject in 0..cfg.subjects {
        let SubjectPhysiology {
            mu_freq,
            beta_freq,
            mu_amp,
            alpha_amp,
            noise: subject_noise,
        } = SubjectPhysiology::draw(cfg.noise_scale, &mut rng);

        for k in 0..cfg.trials_per_subject {
            let label = if k % 2 == 0 { LEFT_FIST } else { RIGHT_FIST };
            // ERD side: left imagery suppresses the *contralateral* (right,
            // C4) motor cortex and vice versa.
            let (erd_center, intact_center) = if label == LEFT_FIST {
                (cfg.c4(), cfg.c3())
            } else {
                (cfg.c3(), cfg.c4())
            };
            let erd_gain = 1.0 - cfg.erd_depth;

            // Trial-level phases.
            let mu_phase = rng.gen_range(0.0..std::f32::consts::TAU);
            let beta_phase = rng.gen_range(0.0..std::f32::consts::TAU);
            let alpha_phase = rng.gen_range(0.0..std::f32::consts::TAU);

            // Source time courses (shared across channels, scaled per
            // channel by the spatial maps).
            let mu_wave =
                signal::oscillation(t_len, cfg.sample_rate, mu_freq, mu_amp, mu_phase, |_| 1.0);
            let beta_wave = signal::oscillation(
                t_len,
                cfg.sample_rate,
                beta_freq.min(cfg.sample_rate / 2.2),
                0.3 * mu_amp,
                beta_phase,
                |_| 1.0,
            );
            let alpha_wave = signal::oscillation(
                t_len,
                cfg.sample_rate,
                mu_freq - 0.5,
                alpha_amp,
                alpha_phase,
                |_| 1.0,
            );

            let base = trial * t_len * c_len;
            let xs = x.as_mut_slice();
            for ch in 0..c_len {
                let g_erd = spatial_gain(ch, erd_center, c_len);
                let g_int = spatial_gain(ch, intact_center, c_len);
                // Posterior alpha peaks at the back of the "scalp axis".
                let g_alpha = spatial_gain(ch, c_len - 1, c_len);
                let noise = signal::pink_noise(t_len, &mut rng);
                for t in 0..t_len {
                    let mu_component = mu_wave[t] * (g_erd * erd_gain + g_int)
                        + beta_wave[t] * (g_erd * erd_gain + g_int);
                    let v = mu_component + alpha_wave[t] * g_alpha + noise[t] * subject_noise;
                    // Layout [1, T, C]: time-major image rows.
                    xs[base + t * c_len + ch] = v;
                }
            }
            y.push(label);
            trial += 1;
        }
    }

    let mut ds = Dataset::new(x, y, 2);
    normalize_per_electrode(&mut ds);
    ds
}

/// Z-scores each electrode column of `[N, 1, T, C]` EEG images in place.
fn normalize_per_electrode(ds: &mut Dataset) {
    let dims = ds.samples().dims().to_vec();
    let (n, t_len, c_len) = (dims[0], dims[2], dims[3]);
    // Compute per-electrode stats across all trials and time steps.
    let mut means = vec![0.0f32; c_len];
    let mut vars = vec![0.0f32; c_len];
    let count = (n * t_len) as f32;
    {
        let xs = ds.samples().as_slice();
        for i in 0..n {
            for t in 0..t_len {
                let row = (i * t_len + t) * c_len;
                for ch in 0..c_len {
                    means[ch] += xs[row + ch];
                }
            }
        }
        for m in &mut means {
            *m /= count;
        }
        for i in 0..n {
            for t in 0..t_len {
                let row = (i * t_len + t) * c_len;
                for ch in 0..c_len {
                    let d = xs[row + ch] - means[ch];
                    vars[ch] += d * d;
                }
            }
        }
        for v in &mut vars {
            *v /= count;
        }
    }
    let x = ds.samples().clone();
    let mut xn = x.clone();
    {
        let xs = xn.as_mut_slice();
        for i in 0..n {
            for t in 0..t_len {
                let row = (i * t_len + t) * c_len;
                for ch in 0..c_len {
                    xs[row + ch] = (xs[row + ch] - means[ch]) / vars[ch].sqrt().max(1e-8);
                }
            }
        }
    }
    *ds = Dataset::new(xn, ds.labels().to_vec(), ds.classes());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> EegConfig {
        EegConfig {
            subjects: 2,
            trials_per_subject: 8,
            channels: 16,
            samples: 128,
            sample_rate: 64.0,
            erd_depth: 0.6,
            noise_scale: 0.5,
            seed: 42,
        }
    }

    #[test]
    fn shapes_and_balance() {
        let cfg = tiny_cfg();
        let ds = generate(&cfg);
        assert_eq!(ds.len(), 16);
        assert_eq!(ds.sample_shape(), vec![1, 128, 16]);
        assert_eq!(ds.class_counts(), vec![8, 8]);
    }

    #[test]
    fn determinism() {
        let cfg = tiny_cfg();
        assert_eq!(generate(&cfg), generate(&cfg));
        let mut cfg2 = tiny_cfg();
        cfg2.seed += 1;
        assert_ne!(generate(&cfg), generate(&cfg2));
    }

    #[test]
    fn erd_lateralizes_mu_band_power() {
        // The defining property: left-fist trials carry *less* mu power at
        // C4 relative to C3 than right-fist trials, on average.
        let mut cfg = tiny_cfg();
        cfg.subjects = 4;
        cfg.trials_per_subject = 10;
        let ds = generate(&cfg);
        let (t_len, c_len) = (cfg.samples, cfg.channels);
        let (c3, c4) = (cfg.c3(), cfg.c4());
        let mut ratios = [Vec::new(), Vec::new()];
        for i in 0..ds.len() {
            let sample = ds.samples().index_axis0(i);
            let xs = sample.as_slice();
            let extract =
                |ch: usize| -> Vec<f32> { (0..t_len).map(|t| xs[t * c_len + ch]).collect() };
            let p3 = signal::band_power(&extract(c3), cfg.sample_rate, 8.0, 13.0);
            let p4 = signal::band_power(&extract(c4), cfg.sample_rate, 8.0, 13.0);
            ratios[ds.labels()[i]].push(p4 / (p3 + 1e-9));
        }
        let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len() as f32;
        let left = mean(&ratios[LEFT_FIST]);
        let right = mean(&ratios[RIGHT_FIST]);
        assert!(
            left < right,
            "left-fist C4/C3 mu ratio {left} should be below right-fist {right}"
        );
    }

    #[test]
    fn normalized_per_electrode() {
        let ds = generate(&tiny_cfg());
        // Overall statistics near standard normal.
        assert!(ds.samples().mean().abs() < 0.05);
        assert!((ds.samples().variance() - 1.0).abs() < 0.1);
    }

    #[test]
    fn paper_config_dimensions() {
        let cfg = EegConfig::paper();
        assert_eq!(cfg.total_trials(), 105 * 42);
        assert_eq!(cfg.channels, 64);
        assert_eq!(cfg.samples, 960);
        assert_eq!((cfg.c3(), cfg.c4()), (16, 48));
    }
}
