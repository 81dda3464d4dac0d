//! Micro-batch formation under a deadline/size policy.
//!
//! Workers pull batches straight off the shared request queue through a
//! [`Batcher`]; there is no separate batching thread to hop through. The
//! policy is the classic serving trade-off:
//!
//! * take up to [`max_batch`](BatchPolicy::max_batch) requests immediately
//!   when the queue is deep (throughput mode);
//! * otherwise *linger* briefly for stragglers before dispatching a partial
//!   batch (latency mode).
//!
//! The linger is adaptive: an exponential moving average (EWMA) of recent
//! batch fill scales the wait, so a loaded server waits long enough to
//! fill its batches and a sparsely used one lingers only briefly. A fresh
//! batcher has no history and starts at fill 0, so it does not linger:
//! the first requests of a new pool (a started or restarted server)
//! dispatch at once.
//!
//! A short linger is not a free one: each empty sub-poll oversleeps by
//! the OS timer slack (on a 2-core Linux x86-64 host under the default
//! 50 µs slack, a 1 µs condvar wait slept a median 57 µs and a 16 µs
//! wait 71 µs). Under steady singleton traffic the fill settles near
//! `1 / max_batch` but never at 0, so each lone request still pays two
//! such sleeps before it dispatches.

use std::time::{Duration, Instant};

use crate::queue::BoundedQueue;

/// Batch formation policy.
#[derive(Debug, Clone)]
pub struct BatchPolicy {
    /// Largest batch dispatched to an engine.
    pub max_batch: usize,
    /// Longest time a partial batch may linger waiting for stragglers.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_micros(250),
        }
    }
}

/// Per-worker batch collector (owns the adaptive linger state).
#[derive(Debug)]
pub struct Batcher {
    policy: BatchPolicy,
    /// EWMA of batch fill ratio in `[0, 1]`.
    fill: f64,
}

impl Batcher {
    /// A batcher following `policy`, with no batch history: fill 0, so its
    /// first batch dispatches without lingering and the linger grows as
    /// formed batches are recorded.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch == 0`.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        Self { policy, fill: 0.0 }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Current adaptive linger (exposed for tests/telemetry).
    pub fn current_linger(&self) -> Duration {
        self.policy.max_delay.mul_f64(self.fill.clamp(0.0, 1.0))
    }

    /// Waits up to `initial_wait` for the next batch and appends it to
    /// `batch`, with a dequeue observer. Returns `false` when the queue is
    /// closed and fully drained. When nothing arrives inside the window
    /// the call appends nothing and returns `true` instead of blocking
    /// indefinitely. The worker loop uses this as its idle tick — it must
    /// come back around periodically to heartbeat the supervisor and
    /// respawn due replicas even when no traffic is flowing. An empty tick
    /// skips the linger and leaves the fill EWMA untouched (an idle tick
    /// is not a formed batch and must not drag the adaptive linger toward
    /// zero).
    ///
    /// The caller owns the batch buffer and reuses it across batches (the
    /// serve worker clears one per-worker `Vec` after each batch), so
    /// forming a batch allocates nothing once the buffer has reached
    /// `max_batch` capacity.
    ///
    /// A partial batch lingers for `fill × max_delay`; with no history
    /// (fill 0) it dispatches at once, so a lone request on a fresh pool
    /// neither waits for stragglers nor pays the OS timer slack (~50 µs
    /// per sleep) that each empty sub-poll oversleeps by.
    ///
    /// The linger runs in short sub-polls rather than one sleep to the
    /// full deadline: a straggler request arriving right after a sustained
    /// burst (fill EWMA ≈ 1) would otherwise wait the entire
    /// `fill × max_delay` even though nothing else is coming. Each
    /// sub-poll ([`BoundedQueue::pop_linger`]) sleeps until enough requests
    /// are queued to fill the batch or its slice ends, then takes what
    /// arrived; single arrivals do not wake it. When two consecutive
    /// sub-polls time out with the queue still empty, the batch dispatches
    /// early — an idle tail, not a forming batch.
    ///
    /// `on_pop` runs on each newly popped chunk *at the moment it leaves
    /// the queue*, before any further lingering. The serving layer uses it
    /// to timestamp requests at dequeue, separating queue wait from the
    /// batcher's linger in span traces (stamping after the full batch
    /// formed would fold the whole linger into queue wait; a straggler
    /// that sits queued until a sub-poll collects it counts that time as
    /// queue wait).
    pub fn next_batch_within<T>(
        &mut self,
        queue: &BoundedQueue<T>,
        initial_wait: Duration,
        batch: &mut Vec<T>,
        on_pop: impl FnMut(&mut [T]),
    ) -> bool {
        let start = batch.len();
        let deadline = Instant::now() + initial_wait;
        if !queue.pop_up_to_deadline(self.policy.max_batch, deadline, batch) {
            return false;
        }
        if batch.len() > start {
            self.linger_and_record(queue, batch, start, on_pop);
        }
        true
    }

    /// Tail of batch formation: observe the first chunk
    /// (`batch[start..]`), linger for stragglers on a partial batch, then
    /// fold the final fill ratio into the EWMA.
    fn linger_and_record<T>(
        &mut self,
        queue: &BoundedQueue<T>,
        batch: &mut Vec<T>,
        start: usize,
        mut on_pop: impl FnMut(&mut [T]),
    ) {
        if let Some(chunk) = batch.get_mut(start..) {
            on_pop(chunk);
        }
        let max = self.policy.max_batch;
        let formed = |batch: &Vec<T>| batch.len().saturating_sub(start);
        if formed(batch) < max {
            let linger = self.current_linger();
            if !linger.is_zero() {
                let deadline = Instant::now() + linger;
                let slice = linger / 8;
                let mut empty_polls = 0u32;
                while formed(batch) < max && empty_polls < 2 {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let sub_deadline = (now + slice).min(deadline);
                    let before = batch.len();
                    // Sleeps until the batch could fill, not on every
                    // arrival: a partial top-up lands at the sub-deadline.
                    if !queue.pop_linger(max - formed(batch), sub_deadline, batch) {
                        // Queue closed: dispatch what we have.
                        break;
                    }
                    if batch.len() == before {
                        // Sub-poll timed out with nothing queued.
                        empty_polls += 1;
                    } else {
                        if let Some(chunk) = batch.get_mut(before..) {
                            on_pop(chunk);
                        }
                        empty_polls = 0;
                    }
                }
            }
        }
        let ratio = formed(batch) as f64 / max as f64;
        self.fill = 0.8 * self.fill + 0.2 * ratio;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// The batch forms into a fresh vector: `None` once closed and drained.
    impl Batcher {
        /// Blocks for the next batch: an initial wait no test outlasts.
        fn next_vec<T>(&mut self, q: &BoundedQueue<T>) -> Option<Vec<T>> {
            self.within_vec(q, Duration::from_secs(60))
        }

        fn within_vec<T>(&mut self, q: &BoundedQueue<T>, wait: Duration) -> Option<Vec<T>> {
            let mut batch = Vec::new();
            self.next_batch_within(q, wait, &mut batch, |_| {})
                .then_some(batch)
        }
    }

    #[test]
    fn reused_buffer_forms_every_batch_and_observes_each_request_once() {
        let q = Arc::new(BoundedQueue::new(64));
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_millis(200),
        });
        b.fill = 1.0;
        let mut batch: Vec<(u32, bool)> = Vec::with_capacity(8);
        let buffer = batch.as_ptr();
        for round in 0..3u32 {
            batch.clear();
            // Three queued now, five more while the batcher lingers.
            for i in 0..3 {
                q.push((round * 8 + i, false)).unwrap();
            }
            let q2 = Arc::clone(&q);
            let producer = thread::spawn(move || {
                thread::sleep(Duration::from_millis(5));
                for i in 3..8 {
                    q2.push((round * 8 + i, false)).unwrap();
                }
            });
            let mut observed = 0;
            assert!(
                b.next_batch_within(&q, Duration::from_secs(5), &mut batch, |chunk| {
                    for (_, seen) in chunk.iter_mut() {
                        assert!(!*seen, "a request was observed twice");
                        *seen = true;
                        observed += 1;
                    }
                })
            );
            producer.join().unwrap();
            assert_eq!(observed, 8);
            let ids: Vec<u32> = batch.iter().map(|&(id, _)| id).collect();
            assert_eq!(ids, (round * 8..round * 8 + 8).collect::<Vec<_>>());
            assert_eq!(batch.as_ptr(), buffer, "the batch reused the buffer");
        }
    }

    #[test]
    fn full_queue_dispatches_immediately() {
        let q = BoundedQueue::new(256);
        for i in 0..100 {
            q.push(i).unwrap();
        }
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_secs(1),
        });
        let t0 = Instant::now();
        let batch = b.next_vec(&q).unwrap();
        assert_eq!(batch.len(), 64);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "must not linger when full"
        );
        assert_eq!(b.next_vec(&q).unwrap().len(), 36);
    }

    /// Feeds `rounds` batches of exactly `size` queued items through `b`.
    fn history(b: &mut Batcher, q: &BoundedQueue<u32>, size: u32, rounds: usize) {
        for _ in 0..rounds {
            for i in 0..size {
                q.push(i).unwrap();
            }
            assert_eq!(b.next_vec(q).unwrap().len(), size as usize);
        }
    }

    #[test]
    fn fresh_batcher_dispatches_a_lone_item_at_once() {
        // No history, no linger: an initial fill of 0.5 would wait out
        // two empty sub-polls of 625 ms here.
        let q = BoundedQueue::new(8);
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_secs(10),
        });
        assert_eq!(b.current_linger(), Duration::ZERO);
        q.push(1u32).unwrap();
        let t0 = Instant::now();
        assert_eq!(b.next_vec(&q).unwrap(), vec![1]);
        assert!(
            t0.elapsed() < Duration::from_secs(1),
            "a fresh batcher lingered {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn linger_collects_stragglers() {
        // After full batches the history says batches fill, so a partial
        // one still lingers for the stragglers.
        let q = Arc::new(BoundedQueue::new(64));
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_millis(200),
        });
        history(&mut b, &q, 8, 10);
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            for i in 1..4 {
                q2.push(i).unwrap();
            }
        });
        let batch = b.next_vec(&q).unwrap();
        producer.join().unwrap();
        assert!(
            batch.len() > 1,
            "linger should have caught stragglers, got {batch:?}"
        );
    }

    #[test]
    fn fill_ewma_shrinks_linger_when_idle() {
        let q = BoundedQueue::new(64);
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_millis(10),
        });
        history(&mut b, &q, 64, 10);
        let initial = b.current_linger();
        history(&mut b, &q, 1, 10);
        assert!(
            b.current_linger() < initial / 4,
            "singleton batches should shrink the linger: {:?} vs {initial:?}",
            b.current_linger()
        );
    }

    #[test]
    fn straggler_after_burst_dispatches_early() {
        // Regression: after sustained full batches the fill EWMA is ≈1, so
        // the final straggler of a burst used to linger the whole
        // `fill × max_delay` against an empty queue.
        let q = BoundedQueue::new(1024);
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_millis(400),
        });
        // Saturate the fill EWMA with full batches.
        history(&mut b, &q, 8, 10);
        let linger = b.current_linger();
        assert!(
            linger > Duration::from_millis(300),
            "test premise: linger {linger:?} should be near max_delay"
        );
        // The straggler: one request, then silence.
        q.push(99).unwrap();
        let t0 = Instant::now();
        let batch = b.next_vec(&q).unwrap();
        let waited = t0.elapsed();
        assert_eq!(batch, vec![99]);
        // Two empty sub-polls of linger/8 each ≈ linger/4 ≪ full linger.
        assert!(
            waited < linger / 2,
            "straggler waited {waited:?} against an empty queue (linger {linger:?})"
        );
    }

    #[test]
    fn linger_survives_trickling_arrivals() {
        // Sub-polls that *do* find items must not trip the early-dispatch
        // counter: a trickle keeps the batch forming until deadline/full.
        let q = Arc::new(BoundedQueue::new(64));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            for i in 1..5u32 {
                thread::sleep(Duration::from_millis(3));
                q2.push(i).unwrap();
            }
        });
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_millis(300),
        });
        // Force a long linger: a fresh batcher has no history and would
        // dispatch the first item alone.
        b.fill = 1.0;
        let batch = b.next_vec(&q).unwrap();
        producer.join().unwrap();
        assert!(
            batch.len() >= 3,
            "trickle should accumulate before dispatch, got {batch:?}"
        );
    }

    #[test]
    fn bounded_wait_ticks_empty_without_touching_fill() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let mut b = Batcher::new(BatchPolicy::default());
        // Some history, so an idle tick that moved the EWMA would show.
        b.fill = 0.5;
        let linger_before = b.current_linger();
        let t0 = Instant::now();
        let batch = b.within_vec(&q, Duration::from_millis(20)).unwrap();
        assert!(batch.is_empty(), "idle tick returns an empty batch");
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(
            b.current_linger(),
            linger_before,
            "an idle tick must not move the fill EWMA"
        );
        // With items available it forms a batch like a blocking wait.
        q.push(7).unwrap();
        let batch = b.within_vec(&q, Duration::from_millis(20)).unwrap();
        assert_eq!(batch, vec![7]);
        // A closed drained queue still terminates with None.
        q.close();
        assert_eq!(b.within_vec(&q, Duration::from_millis(5)), None);
    }

    #[test]
    fn closed_queue_terminates() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        let mut b = Batcher::new(BatchPolicy::default());
        assert_eq!(b.next_vec(&q), Some(vec![1]));
        assert_eq!(b.next_vec(&q), None);
    }
}
