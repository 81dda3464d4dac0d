//! Per-patient session state: segmentation + featurization + alarms.
//!
//! A [`Session`] turns one patient's raw chunked signal into the exact
//! feature vectors the deployed classifier was trained on: sliding-window
//! segmentation (via [`Segmenter`](crate::Segmenter)), per-window
//! normalization matching the training featurization, and layout
//! flattening ([`WindowLayout`]) into the classifier's input order.
//! The debounced [`AlarmState`] machine then turns the resulting verdict
//! stream into the clinically shaped output: an alarm that raises on K of
//! the last M positive windows and clears when the evidence fades, so a
//! single noisy window neither triggers nor silences it.

use std::collections::VecDeque;

use crate::segment::{Segmenter, SegmenterConfig, WindowMeta};

/// How each window is normalized before classification.
///
/// The training pipeline z-scores per channel with *dataset-level*
/// statistics ([`rbnn_data::Dataset::normalize_per_channel`] returns
/// them); a deployed session replays those frozen statistics with
/// [`Normalization::PerChannel`] so streamed windows match the training
/// featurization exactly. [`Normalization::PerWindow`] is the online
/// fallback when no training statistics are available (each window
/// z-scored against itself), and [`Normalization::None`] passes raw
/// samples through.
#[derive(Debug, Clone)]
pub enum Normalization {
    /// Raw samples.
    None,
    /// `(x − mean[c]) / std[c]` with frozen per-channel training
    /// statistics.
    PerChannel {
        /// Per-channel means (training-set statistics).
        mean: Vec<f32>,
        /// Per-channel standard deviations (training-set statistics).
        std: Vec<f32>,
    },
    /// Z-score each channel against this window's own statistics.
    PerWindow,
}

/// Flattening order of an emitted `[window × channels]` block into the
/// classifier's input vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowLayout {
    /// `[channels, window]` — channel-major, the ECG dataset layout
    /// (leads × time).
    ChannelMajor,
    /// `[window, channels]` — time-major, the EEG dataset layout
    /// (time × space image rows).
    TimeMajor,
}

/// Session configuration: geometry plus featurization.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Segmentation geometry.
    pub segmenter: SegmenterConfig,
    /// Flattening order.
    pub layout: WindowLayout,
    /// Per-window normalization.
    pub normalization: Normalization,
}

/// One classifier-ready window.
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Which window of the stream this is.
    pub meta: WindowMeta,
    /// Flattened, normalized features (`window × channels` long).
    pub features: Vec<f32>,
}

/// [`Normalization`] with the frozen per-channel statistics resolved to
/// `(mean, 1/std)` once at session construction, so the per-window hot
/// path neither clones nor divides.
#[derive(Debug)]
enum ResolvedNorm {
    None,
    Frozen { mean: Vec<f32>, inv_std: Vec<f32> },
    PerWindow,
}

/// Per-patient segmentation + featurization state.
#[derive(Debug)]
pub struct Session {
    seg: Segmenter,
    layout: WindowLayout,
    norm: ResolvedNorm,
}

impl Session {
    /// A session with the given geometry and featurization.
    ///
    /// # Panics
    ///
    /// Panics on a zero geometry (see [`Segmenter::new`]) or when
    /// [`Normalization::PerChannel`] statistics do not match the channel
    /// count.
    pub fn new(cfg: SessionConfig) -> Self {
        let norm = match cfg.normalization {
            Normalization::None => ResolvedNorm::None,
            Normalization::PerChannel { mean, std } => {
                assert_eq!(mean.len(), cfg.segmenter.channels, "mean per channel");
                assert_eq!(std.len(), cfg.segmenter.channels, "std per channel");
                assert!(std.iter().all(|s| *s > 0.0), "stds must be positive");
                ResolvedNorm::Frozen {
                    mean,
                    inv_std: std.iter().map(|s| 1.0 / s).collect(),
                }
            }
            Normalization::PerWindow => ResolvedNorm::PerWindow,
        };
        Self {
            seg: Segmenter::new(cfg.segmenter),
            layout: cfg.layout,
            norm,
        }
    }

    /// Feature width of every emitted window (`window × channels`).
    pub fn features_per_window(&self) -> usize {
        self.seg.config().window * self.seg.config().channels
    }

    /// Channels per frame.
    pub fn channels(&self) -> usize {
        self.seg.config().channels
    }

    /// Feeds one chunk of channel-interleaved frames; returns the
    /// classifier-ready windows it completed (possibly none while the
    /// buffer fills, several for a large chunk).
    pub fn push_chunk(&mut self, frames: &[f32]) -> Vec<Window> {
        let mut out = Vec::new();
        let (layout, norm) = (self.layout, &self.norm);
        let cfg = self.seg.config().clone();
        self.seg.push(frames, &mut |meta, interleaved| {
            out.push(Window {
                meta,
                features: featurize(interleaved, &cfg, layout, norm),
            });
        });
        out
    }

    /// Ends the stream, applying the configured
    /// [`TailPolicy`](crate::TailPolicy) to any buffered partial window.
    pub fn finish(&mut self) -> Vec<Window> {
        let mut out = Vec::new();
        let (layout, norm) = (self.layout, &self.norm);
        let cfg = self.seg.config().clone();
        self.seg.flush(&mut |meta, interleaved| {
            out.push(Window {
                meta,
                features: featurize(interleaved, &cfg, layout, norm),
            });
        });
        out
    }
}

/// Normalizes and flattens one interleaved window.
fn featurize(
    interleaved: &[f32],
    cfg: &SegmenterConfig,
    layout: WindowLayout,
    norm: &ResolvedNorm,
) -> Vec<f32> {
    let (c, w) = (cfg.channels, cfg.window);
    debug_assert_eq!(interleaved.len(), c * w);
    // Per-window statistics are only computed when the policy needs them;
    // frozen training stats are borrowed as resolved at construction.
    let window_stats: Option<(Vec<f32>, Vec<f32>)> = match norm {
        ResolvedNorm::PerWindow => {
            let mut mean = vec![0.0f32; c];
            let mut var = vec![0.0f32; c];
            for frame in interleaved.chunks_exact(c) {
                for (ch, &v) in frame.iter().enumerate() {
                    mean[ch] += v;
                }
            }
            for m in &mut mean {
                *m /= w as f32;
            }
            for frame in interleaved.chunks_exact(c) {
                for (ch, &v) in frame.iter().enumerate() {
                    let d = v - mean[ch];
                    var[ch] += d * d;
                }
            }
            let inv: Vec<f32> = var
                .iter()
                .map(|v| 1.0 / (v / w as f32).sqrt().max(1e-8))
                .collect();
            Some((mean, inv))
        }
        _ => None,
    };
    let stats: Option<(&[f32], &[f32])> = match norm {
        ResolvedNorm::None => None,
        ResolvedNorm::Frozen { mean, inv_std } => Some((mean, inv_std)),
        ResolvedNorm::PerWindow => window_stats
            .as_ref()
            .map(|(mean, inv)| (mean.as_slice(), inv.as_slice())),
    };
    let value = |t: usize, ch: usize| -> f32 {
        let v = interleaved[t * c + ch];
        match stats {
            None => v,
            Some((mean, inv)) => (v - mean[ch]) * inv[ch],
        }
    };
    let mut out = Vec::with_capacity(c * w);
    match layout {
        WindowLayout::ChannelMajor => {
            for ch in 0..c {
                for t in 0..w {
                    out.push(value(t, ch));
                }
            }
        }
        WindowLayout::TimeMajor => {
            for t in 0..w {
                for ch in 0..c {
                    out.push(value(t, ch));
                }
            }
        }
    }
    out
}

/// Debounce policy for the alarm state machine.
#[derive(Debug, Clone)]
pub struct AlarmConfig {
    /// Positive windows required among the last [`m`](Self::m) to raise.
    pub k: usize,
    /// History length in windows.
    pub m: usize,
    /// The class index that counts as positive (e.g.
    /// [`rbnn_data::ecg::INVERTED`]).
    pub positive_class: usize,
}

impl Default for AlarmConfig {
    fn default() -> Self {
        Self {
            k: 3,
            m: 5,
            positive_class: 1,
        }
    }
}

/// A change of alarm state produced by one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlarmEvent {
    /// K-of-M evidence reached: the alarm turned on.
    Raised,
    /// Evidence fell below K-of-M: the alarm turned off.
    Cleared,
}

/// Debounced K-of-M alarm: raises when at least `k` of the last `m`
/// windows were positive, clears when the count drops below `k` again.
/// Single spurious windows (a motion artifact, one marginal-sense flip on
/// worn RRAM) therefore neither trigger nor silence it.
#[derive(Debug)]
pub struct AlarmState {
    cfg: AlarmConfig,
    recent: VecDeque<bool>,
    active: bool,
}

impl AlarmState {
    /// A quiet alarm with the given debounce policy.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < k ≤ m`.
    pub fn new(cfg: AlarmConfig) -> Self {
        assert!(cfg.k > 0 && cfg.k <= cfg.m, "need 0 < k <= m");
        Self {
            recent: VecDeque::with_capacity(cfg.m),
            cfg,
            active: false,
        }
    }

    /// Whether the alarm is currently raised.
    pub fn active(&self) -> bool {
        self.active
    }

    /// Feeds one verdict; returns the transition it caused, if any.
    pub fn update(&mut self, class: usize) -> Option<AlarmEvent> {
        if self.recent.len() == self.cfg.m {
            self.recent.pop_front();
        }
        self.recent.push_back(class == self.cfg.positive_class);
        let positives = self.recent.iter().filter(|p| **p).count();
        match (self.active, positives >= self.cfg.k) {
            (false, true) => {
                self.active = true;
                Some(AlarmEvent::Raised)
            }
            (true, false) => {
                self.active = false;
                Some(AlarmEvent::Cleared)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::TailPolicy;

    fn session(
        channels: usize,
        window: usize,
        stride: usize,
        layout: WindowLayout,
        norm: Normalization,
    ) -> Session {
        Session::new(SessionConfig {
            segmenter: SegmenterConfig {
                channels,
                window,
                stride,
                tail: TailPolicy::Drop,
            },
            layout,
            normalization: norm,
        })
    }

    #[test]
    fn channel_major_layout_matches_ecg_dataset_order() {
        // 2 channels, frames [i, 10+i]: channel-major output lists channel
        // 0's timeline then channel 1's.
        let frames: Vec<f32> = (0..4).flat_map(|i| [i as f32, 10.0 + i as f32]).collect();
        let mut s = session(2, 4, 4, WindowLayout::ChannelMajor, Normalization::None);
        let wins = s.push_chunk(&frames);
        assert_eq!(wins.len(), 1);
        assert_eq!(
            wins[0].features,
            vec![0.0, 1.0, 2.0, 3.0, 10.0, 11.0, 12.0, 13.0]
        );
    }

    #[test]
    fn time_major_layout_matches_eeg_dataset_order() {
        let frames: Vec<f32> = (0..4).flat_map(|i| [i as f32, 10.0 + i as f32]).collect();
        let mut s = session(2, 4, 4, WindowLayout::TimeMajor, Normalization::None);
        let wins = s.push_chunk(&frames);
        assert_eq!(
            wins[0].features,
            vec![0.0, 10.0, 1.0, 11.0, 2.0, 12.0, 3.0, 13.0]
        );
    }

    #[test]
    fn per_channel_normalization_replays_training_stats() {
        let frames = vec![3.0f32, -2.0, 5.0, 0.0]; // 2 frames × 2 channels
        let mut s = session(
            2,
            2,
            2,
            WindowLayout::TimeMajor,
            Normalization::PerChannel {
                mean: vec![1.0, -1.0],
                std: vec![2.0, 0.5],
            },
        );
        let wins = s.push_chunk(&frames);
        assert_eq!(wins[0].features, vec![1.0, -2.0, 2.0, 2.0]);
    }

    #[test]
    fn per_window_normalization_zero_means_each_channel() {
        let frames: Vec<f32> = (0..6).flat_map(|i| [i as f32, 100.0]).collect();
        let mut s = session(
            2,
            6,
            6,
            WindowLayout::ChannelMajor,
            Normalization::PerWindow,
        );
        let wins = s.push_chunk(&frames);
        let f = &wins[0].features;
        let mean0: f32 = f[..6].iter().sum::<f32>() / 6.0;
        assert!(mean0.abs() < 1e-6);
        // Constant channel: zero variance clamps to the epsilon floor
        // instead of dividing by zero.
        assert!(f[6..].iter().all(|v| v.is_finite() && v.abs() < 1e-4));
    }

    #[test]
    fn alarm_debounces_and_clears() {
        let mut a = AlarmState::new(AlarmConfig {
            k: 2,
            m: 3,
            positive_class: 1,
        });
        assert_eq!(a.update(1), None); // 1 of 3
        assert!(!a.active());
        assert_eq!(a.update(0), None);
        assert_eq!(a.update(1), Some(AlarmEvent::Raised)); // 2 of last 3
        assert!(a.active());
        assert_eq!(a.update(1), None); // still raised
        assert_eq!(a.update(0), None); // 2 of last 3 — holds
        assert_eq!(a.update(0), Some(AlarmEvent::Cleared)); // 1 of last 3
        assert!(!a.active());
    }

    #[test]
    fn single_spike_never_raises() {
        let mut a = AlarmState::new(AlarmConfig::default()); // 3 of 5
        for _ in 0..10 {
            assert_eq!(a.update(1), None);
            for _ in 0..6 {
                assert_eq!(a.update(0), None);
            }
        }
    }
}
