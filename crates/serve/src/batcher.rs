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
//! The linger is adaptive: an exponential moving average of recent batch
//! fill scales the wait, so an idle server converges to near-zero added
//! latency while a loaded one waits long enough to fill its batches.

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
    /// A batcher following `policy`.
    ///
    /// # Panics
    ///
    /// Panics if `policy.max_batch == 0`.
    pub fn new(policy: BatchPolicy) -> Self {
        assert!(policy.max_batch > 0, "max_batch must be positive");
        Self { policy, fill: 0.5 }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &BatchPolicy {
        &self.policy
    }

    /// Current adaptive linger (exposed for tests/telemetry).
    pub fn current_linger(&self) -> Duration {
        self.policy.max_delay.mul_f64(self.fill.clamp(0.0, 1.0))
    }

    /// Blocks for the next batch. Returns `None` when the queue is closed
    /// and fully drained.
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
    pub fn next_batch<T>(&mut self, queue: &BoundedQueue<T>) -> Option<Vec<T>> {
        self.next_batch_with(queue, |_| {})
    }

    /// [`next_batch`](Self::next_batch) with a dequeue observer: `on_pop`
    /// runs on each newly popped chunk *at the moment it leaves the
    /// queue*, before any further lingering. The serving layer uses it to
    /// timestamp requests at dequeue, separating queue wait from the
    /// batcher's linger in span traces (stamping after the full batch
    /// formed would fold the whole linger into queue wait; a straggler
    /// that sits queued until a sub-poll collects it counts that time as
    /// queue wait).
    pub fn next_batch_with<T>(
        &mut self,
        queue: &BoundedQueue<T>,
        mut on_pop: impl FnMut(&mut [T]),
    ) -> Option<Vec<T>> {
        let mut batch = queue.pop_up_to(self.policy.max_batch)?;
        on_pop(&mut batch);
        Some(self.linger_and_record(queue, batch, on_pop))
    }

    /// [`next_batch_with`](Self::next_batch_with) whose *initial* wait is
    /// bounded by `initial_wait`: when nothing arrives inside the window
    /// the call returns an **empty** batch instead of blocking
    /// indefinitely. The worker loop uses this as its idle tick — it must
    /// come back around periodically to heartbeat the supervisor and
    /// respawn due replicas even when no traffic is flowing. An empty
    /// return skips the linger and leaves the fill EWMA untouched (an
    /// idle tick is not a formed batch and must not drag the adaptive
    /// linger toward zero).
    pub fn next_batch_within<T>(
        &mut self,
        queue: &BoundedQueue<T>,
        initial_wait: Duration,
        mut on_pop: impl FnMut(&mut [T]),
    ) -> Option<Vec<T>> {
        let deadline = Instant::now() + initial_wait;
        let mut batch = queue.pop_up_to_deadline(self.policy.max_batch, deadline)?;
        if batch.is_empty() {
            return Some(batch);
        }
        on_pop(&mut batch);
        Some(self.linger_and_record(queue, batch, on_pop))
    }

    /// Shared tail of the batch-formation paths: linger for stragglers on
    /// a partial batch, then fold the final fill ratio into the EWMA.
    fn linger_and_record<T>(
        &mut self,
        queue: &BoundedQueue<T>,
        mut batch: Vec<T>,
        mut on_pop: impl FnMut(&mut [T]),
    ) -> Vec<T> {
        if batch.len() < self.policy.max_batch {
            let linger = self.current_linger();
            if !linger.is_zero() {
                let deadline = Instant::now() + linger;
                let slice = linger / 8;
                let mut empty_polls = 0u32;
                while batch.len() < self.policy.max_batch && empty_polls < 2 {
                    let now = Instant::now();
                    if now >= deadline {
                        break;
                    }
                    let sub_deadline = (now + slice).min(deadline);
                    // Sleeps until the batch could fill, not on every
                    // arrival: a partial top-up lands at the sub-deadline.
                    match queue.pop_linger(self.policy.max_batch - batch.len(), sub_deadline) {
                        // Queue closed: dispatch what we have.
                        None => break,
                        // Sub-poll timed out with nothing queued.
                        Some(more) if more.is_empty() => empty_polls += 1,
                        Some(mut more) => {
                            on_pop(&mut more);
                            batch.extend(more);
                            empty_polls = 0;
                        }
                    }
                }
            }
        }
        let ratio = batch.len() as f64 / self.policy.max_batch as f64;
        self.fill = 0.8 * self.fill + 0.2 * ratio;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

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
        let batch = b.next_batch(&q).unwrap();
        assert_eq!(batch.len(), 64);
        assert!(
            t0.elapsed() < Duration::from_millis(100),
            "must not linger when full"
        );
        assert_eq!(b.next_batch(&q).unwrap().len(), 36);
    }

    #[test]
    fn linger_collects_stragglers() {
        let q = Arc::new(BoundedQueue::new(64));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            for i in 1..4 {
                q2.push(i).unwrap();
            }
        });
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 8,
            max_delay: Duration::from_millis(200),
        });
        let batch = b.next_batch(&q).unwrap();
        producer.join().unwrap();
        assert!(
            batch.len() > 1,
            "linger should have caught stragglers, got {batch:?}"
        );
    }

    #[test]
    fn fill_ewma_shrinks_linger_when_idle() {
        let q = BoundedQueue::new(8);
        let mut b = Batcher::new(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_millis(10),
        });
        let initial = b.current_linger();
        for _ in 0..10 {
            q.push(1u32).unwrap();
            let _ = b.next_batch(&q).unwrap();
        }
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
        for _ in 0..10 {
            for i in 0..8 {
                q.push(i).unwrap();
            }
            assert_eq!(b.next_batch(&q).unwrap().len(), 8);
        }
        let linger = b.current_linger();
        assert!(
            linger > Duration::from_millis(300),
            "test premise: linger {linger:?} should be near max_delay"
        );
        // The straggler: one request, then silence.
        q.push(99).unwrap();
        let t0 = Instant::now();
        let batch = b.next_batch(&q).unwrap();
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
        // Force a long linger despite the EWMA starting at 0.5.
        b.fill = 1.0;
        let batch = b.next_batch(&q).unwrap();
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
        let linger_before = b.current_linger();
        let t0 = Instant::now();
        let batch = b
            .next_batch_within(&q, Duration::from_millis(20), |_| {})
            .unwrap();
        assert!(batch.is_empty(), "idle tick returns an empty batch");
        assert!(t0.elapsed() >= Duration::from_millis(15));
        assert_eq!(
            b.current_linger(),
            linger_before,
            "an idle tick must not move the fill EWMA"
        );
        // With items available it forms a batch like next_batch.
        q.push(7).unwrap();
        let batch = b
            .next_batch_within(&q, Duration::from_millis(20), |_| {})
            .unwrap();
        assert_eq!(batch, vec![7]);
        // A closed drained queue still terminates with None.
        q.close();
        assert_eq!(
            b.next_batch_within(&q, Duration::from_millis(5), |_| {}),
            None
        );
    }

    #[test]
    fn closed_queue_terminates() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        q.push(1).unwrap();
        q.close();
        let mut b = Batcher::new(BatchPolicy::default());
        assert_eq!(b.next_batch(&q), Some(vec![1]));
        assert_eq!(b.next_batch(&q), None);
    }
}
