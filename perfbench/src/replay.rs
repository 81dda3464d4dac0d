//! Playback of pre-recorded signals for the stream workload.
//!
//! Synthesizing ECG live costs about as much as the whole streaming path
//! it feeds, so the stream workload records each patient's signal once,
//! before timing starts, and the timed region only plays it back. A
//! recording is bounded (about 1 MB per patient) and playback loops it, so
//! a run of any length needs no more memory.

use std::sync::Arc;

use crate::adapter::SignalSource;
use crate::trace;

/// An endless, looping playback of one channel-interleaved recording.
#[derive(Debug, Clone)]
pub struct ReplaySource {
    recording: Arc<[f32]>,
    channels: usize,
    sample_rate: f32,
    /// Next frame to emit.
    frame: usize,
}

impl ReplaySource {
    /// Playback of `recording` (`channels` floats per frame) starting at
    /// frame `start` (taken modulo the recording length).
    ///
    /// # Panics
    ///
    /// Panics if the recording is empty or not a whole number of frames.
    pub fn new(recording: Arc<[f32]>, channels: usize, sample_rate: f32, start: usize) -> Self {
        assert!(channels > 0 && !recording.is_empty(), "empty recording");
        assert_eq!(recording.len() % channels, 0, "partial frame in recording");
        let frames = recording.len() / channels;
        Self {
            recording,
            channels,
            sample_rate,
            frame: start % frames,
        }
    }

    fn frames(&self) -> usize {
        self.recording.len() / self.channels
    }
}

impl SignalSource for ReplaySource {
    fn channels(&self) -> usize {
        self.channels
    }

    fn sample_rate(&self) -> f32 {
        self.sample_rate
    }

    fn next_chunk(&mut self, max_frames: usize, out: &mut Vec<f32>) -> usize {
        trace::span("stream.source.next_chunk", || {
            let mut left = max_frames;
            while left > 0 {
                let take = left.min(self.frames() - self.frame);
                let c = self.channels;
                out.extend_from_slice(&self.recording[self.frame * c..(self.frame + take) * c]);
                self.frame = (self.frame + take) % self.frames();
                left -= take;
            }
            max_frames
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::{ecg_recording, ecg_stream};

    fn drain(source: &mut dyn SignalSource, frames: usize, chunk: usize) -> Vec<f32> {
        let mut out = Vec::new();
        let mut got = 0;
        while got < frames {
            got += source.next_chunk(chunk.min(frames - got), &mut out);
        }
        out
    }

    #[test]
    fn playback_is_bit_identical_to_the_live_stream_for_any_chunk_size() {
        // Long enough to cross several synthesis segments and patient 3's
        // mid-stream electrode swap.
        let frames = 4_000;
        let recording: Arc<[f32]> = ecg_recording(0xC0FFEE, 3, frames).into();
        for chunk in [1, 7, 120, 180, 359, 1_080, 3_999, 4_000, 9_000] {
            let mut live = ecg_stream(0xC0FFEE, 3);
            let mut replay = ReplaySource::new(Arc::clone(&recording), 12, 360.0, 0);
            let a = drain(&mut live, frames, chunk);
            let b = drain(&mut replay, frames, chunk);
            let a: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
            let b: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
            assert_eq!(a, b, "chunk size {chunk}");
        }
    }

    #[test]
    fn playback_loops_the_recording_from_any_start() {
        let recording: Arc<[f32]> = (0..30).map(|v| v as f32).collect::<Vec<_>>().into();
        let mut source = ReplaySource::new(recording, 3, 1.0, 8);
        // Ten frames of three channels; start at frame 8 and wrap twice.
        let out = drain(&mut source, 25, 4);
        let expected: Vec<f32> = (0..25)
            .flat_map(|f| {
                let frame = (8 + f) % 10;
                (0..3).map(move |c| (frame * 3 + c) as f32)
            })
            .collect();
        assert_eq!(out, expected);
    }
}
