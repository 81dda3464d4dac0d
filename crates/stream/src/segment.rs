//! Sliding-window segmentation of an unbounded frame stream.
//!
//! A [`Segmenter`] receives channel-interleaved frames in chunks of
//! arbitrary size and emits fixed-size windows at a fixed stride. The
//! invariant everything downstream relies on: **the emitted window
//! sequence is a pure function of the frame sequence** — independent of
//! how the caller chunks it. A window straddling two (or ten) chunk
//! boundaries comes out bitwise identical to the same window cut from the
//! fully buffered signal, which is what lets the tests pin streamed
//! serving against one-shot offline segmentation.
//!
//! Strides larger than the window are supported (duty-cycled monitoring:
//! classify one window, skip the gap); the skip debt is carried across
//! chunk boundaries like everything else.

/// What to do with a final partial window when a *finite* stream ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailPolicy {
    /// Discard the unfilled tail (default: a partial window never reaches
    /// the classifier, matching the offline dataset cut).
    Drop,
    /// Zero-pad the tail to a full window and emit it (monitors that must
    /// classify the final seconds of a detached recording).
    Pad,
}

/// Segmentation geometry.
#[derive(Debug, Clone)]
pub struct SegmenterConfig {
    /// Channels per frame.
    pub channels: usize,
    /// Window length in frames.
    pub window: usize,
    /// Hop between consecutive window starts, in frames. `stride ==
    /// window` tiles the signal exactly; `stride < window` overlaps;
    /// `stride > window` leaves gaps.
    pub stride: usize,
    /// Tail handling at end of stream (see [`Segmenter::flush`]).
    pub tail: TailPolicy,
}

/// Identity of one emitted window within its stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMeta {
    /// 0-based emission index.
    pub index: u64,
    /// Absolute frame index of the window's first frame.
    pub start_frame: u64,
}

/// Streaming sliding-window cutter (see the module docs).
#[derive(Debug)]
pub struct Segmenter {
    cfg: SegmenterConfig,
    /// Channel-interleaved frames not yet consumed.
    buf: Vec<f32>,
    /// Absolute frame index of `buf[0]`.
    buf_start: u64,
    /// Frames still to discard before buffering resumes (stride > window).
    skip: usize,
    emitted: u64,
    flushed: bool,
}

impl Segmenter {
    /// A segmenter with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `channels`, `window` or `stride` is zero.
    pub fn new(cfg: SegmenterConfig) -> Self {
        assert!(cfg.channels > 0, "channels must be positive");
        assert!(cfg.window > 0, "window must be positive");
        assert!(cfg.stride > 0, "stride must be positive");
        Self {
            cfg,
            buf: Vec::new(),
            buf_start: 0,
            skip: 0,
            emitted: 0,
            flushed: false,
        }
    }

    /// The geometry in effect.
    pub fn config(&self) -> &SegmenterConfig {
        &self.cfg
    }

    /// Feeds `frames` (channel-interleaved; length must be a multiple of
    /// `channels`) and invokes `emit` once per completed window with the
    /// window's interleaved `window × channels` samples.
    ///
    /// # Panics
    ///
    /// Panics if the slice length is not a whole number of frames, or if
    /// the segmenter was already [`flush`](Self::flush)ed.
    pub fn push(&mut self, frames: &[f32], emit: &mut impl FnMut(WindowMeta, &[f32])) {
        assert!(!self.flushed, "push after flush");
        let c = self.cfg.channels;
        assert_eq!(frames.len() % c, 0, "partial frame in chunk");
        let mut incoming = frames;
        // Pay off skip debt (stride > window gaps) before buffering.
        if self.skip > 0 {
            let n_frames = incoming.len() / c;
            let skipped = self.skip.min(n_frames);
            incoming = &incoming[skipped * c..];
            self.skip -= skipped;
            self.buf_start += skipped as u64;
            if incoming.is_empty() {
                return;
            }
        }
        self.buf.extend_from_slice(incoming);
        let window_len = self.cfg.window * c;
        while self.buf.len() >= window_len {
            emit(
                WindowMeta {
                    index: self.emitted,
                    start_frame: self.buf_start,
                },
                &self.buf[..window_len],
            );
            self.emitted += 1;
            let buffered = self.buf.len() / c;
            let advance = self.cfg.stride.min(buffered);
            self.buf.drain(..advance * c);
            self.buf_start += advance as u64;
            self.skip = self.cfg.stride - advance;
        }
    }

    /// Ends the stream: applies the [`TailPolicy`] to any buffered partial
    /// window. With [`TailPolicy::Pad`] the tail is zero-padded to a full
    /// window and emitted; with [`TailPolicy::Drop`] it is discarded.
    /// Idempotent; [`push`](Self::push) panics afterwards.
    pub fn flush(&mut self, emit: &mut impl FnMut(WindowMeta, &[f32])) {
        if self.flushed {
            return;
        }
        self.flushed = true;
        if self.buf.is_empty() || self.cfg.tail == TailPolicy::Drop {
            self.buf.clear();
            return;
        }
        let window_len = self.cfg.window * self.cfg.channels;
        debug_assert!(self.buf.len() < window_len, "full window left unemitted");
        self.buf.resize(window_len, 0.0);
        emit(
            WindowMeta {
                index: self.emitted,
                start_frame: self.buf_start,
            },
            &self.buf,
        );
        self.emitted += 1;
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames whose single channel value equals the frame index — windows
    /// then read as index ranges, making slip-ups visible.
    fn ramp(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    fn collect(
        cfg: SegmenterConfig,
        chunks: &[&[f32]],
        flush: bool,
    ) -> Vec<(WindowMeta, Vec<f32>)> {
        let mut seg = Segmenter::new(cfg);
        let mut out = Vec::new();
        let mut emit = |m: WindowMeta, w: &[f32]| out.push((m, w.to_vec()));
        for chunk in chunks {
            seg.push(chunk, &mut emit);
        }
        if flush {
            seg.flush(&mut emit);
        }
        out
    }

    fn cfg(window: usize, stride: usize, tail: TailPolicy) -> SegmenterConfig {
        SegmenterConfig {
            channels: 1,
            window,
            stride,
            tail,
        }
    }

    #[test]
    fn window_equals_stride_tiles_exactly() {
        let sig = ramp(10);
        let wins = collect(cfg(3, 3, TailPolicy::Drop), &[&sig], true);
        assert_eq!(wins.len(), 3);
        for (i, (m, w)) in wins.iter().enumerate() {
            assert_eq!(m.index, i as u64);
            assert_eq!(m.start_frame, 3 * i as u64);
            assert_eq!(w, &ramp(10)[3 * i..3 * i + 3]);
        }
    }

    #[test]
    fn overlapping_stride_repeats_frames() {
        let sig = ramp(7);
        let wins = collect(cfg(4, 2, TailPolicy::Drop), &[&sig], true);
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0].1, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(wins[1].1, vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(wins[1].0.start_frame, 2);
    }

    #[test]
    fn stride_beyond_window_skips_gap_frames() {
        let sig = ramp(20);
        let wins = collect(cfg(3, 7, TailPolicy::Drop), &[&sig], true);
        // Starts at 0, 7, 14.
        assert_eq!(wins.len(), 3);
        assert_eq!(wins[0].1, vec![0.0, 1.0, 2.0]);
        assert_eq!(wins[1].1, vec![7.0, 8.0, 9.0]);
        assert_eq!(wins[2].1, vec![14.0, 15.0, 16.0]);
        assert_eq!(wins[2].0.start_frame, 14);
    }

    #[test]
    fn chunking_is_invariant_including_gap_debt() {
        let sig = ramp(53);
        for (window, stride) in [(5, 5), (8, 3), (3, 11), (4, 4)] {
            let whole = collect(cfg(window, stride, TailPolicy::Drop), &[&sig], true);
            // Single-frame chunks: every window and every gap straddles
            // chunk boundaries.
            let frames: Vec<&[f32]> = sig.chunks(1).collect();
            let dribble = collect(cfg(window, stride, TailPolicy::Drop), &frames, true);
            assert_eq!(whole, dribble, "w={window} s={stride}");
            // Awkward mixed chunks.
            let mixed: Vec<&[f32]> = vec![&sig[..13], &sig[13..13], &sig[13..30], &sig[30..]];
            let mixed = collect(cfg(window, stride, TailPolicy::Drop), &mixed, true);
            assert_eq!(whole, mixed, "w={window} s={stride}");
        }
    }

    #[test]
    fn tail_drop_vs_pad() {
        let sig = ramp(10);
        let dropped = collect(cfg(4, 4, TailPolicy::Drop), &[&sig], true);
        assert_eq!(dropped.len(), 2);
        let padded = collect(cfg(4, 4, TailPolicy::Pad), &[&sig], true);
        assert_eq!(padded.len(), 3);
        assert_eq!(padded[2].1, vec![8.0, 9.0, 0.0, 0.0]);
        assert_eq!(padded[2].0.start_frame, 8);
        // An exactly-tiled signal has no tail to pad.
        let exact = collect(cfg(5, 5, TailPolicy::Pad), &[&ramp(10)], true);
        assert_eq!(exact.len(), 2);
    }

    #[test]
    fn flush_is_idempotent_and_push_after_flush_panics() {
        let mut seg = Segmenter::new(cfg(4, 4, TailPolicy::Pad));
        let mut n = 0usize;
        seg.push(&ramp(6), &mut |_, _| n += 1);
        seg.flush(&mut |_, _| n += 1);
        seg.flush(&mut |_, _| n += 1);
        assert_eq!(n, 2); // one full window + one padded tail
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            seg.push(&ramp(1), &mut |_, _| {});
        }));
        assert!(r.is_err());
    }

    #[test]
    fn multichannel_windows_stay_interleaved() {
        // 2 channels: frame i carries [i, -i].
        let sig: Vec<f32> = (0..8).flat_map(|i| [i as f32, -(i as f32)]).collect();
        let wins = collect(
            SegmenterConfig {
                channels: 2,
                window: 3,
                stride: 2,
                tail: TailPolicy::Drop,
            },
            &[&sig],
            true,
        );
        assert_eq!(wins.len(), 3);
        assert_eq!(wins[1].1, vec![2.0, -2.0, 3.0, -3.0, 4.0, -4.0]);
    }

    #[test]
    #[should_panic(expected = "partial frame")]
    fn rejects_partial_frames() {
        let mut seg = Segmenter::new(SegmenterConfig {
            channels: 3,
            window: 2,
            stride: 2,
            tail: TailPolicy::Drop,
        });
        seg.push(&[1.0, 2.0], &mut |_, _| {});
    }
}
