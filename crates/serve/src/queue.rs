//! A bounded MPMC request queue with blocking backpressure, priority
//! lanes, and an optional load-shedding admission path.
//!
//! `std::sync::mpsc` is single-consumer and its `SyncSender` cannot express
//! "try, then tell the caller the queue is full" alongside batch draining
//! with a deadline, so the serving runtime uses its own small primitive:
//! a `Mutex` over two `VecDeque` lanes with condition variables for
//! producers waiting on capacity and consumers waiting on items — the
//! classic bounded-buffer construction, extended with a two-lane priority
//! order and a third condition variable for batchers lingering on a
//! partial batch.
//!
//! Lanes share one capacity budget. Consumers drain the urgent lane
//! first; within a lane order is FIFO. The shedding push
//! ([`BoundedQueue::push_shed`]) never blocks: a full queue rejects the
//! newest routine work — either the incoming item itself or, when the
//! incoming item is urgent, the newest queued routine item, which is
//! handed back to the caller so it can be answered with a typed
//! overload error instead of silently vanishing.
//!
//! Wake policy. Every waiter records itself under the lock before it
//! sleeps, and a notify is only issued when a matching waiter is
//! recorded, so an uncontended push or pop makes no futex syscall:
//!
//! * `ready` — consumers blocked on an empty queue
//!   ([`pop_up_to_deadline`](BoundedQueue::pop_up_to_deadline)); a push
//!   wakes one of them.
//! * `space` — producers blocked on a full queue
//!   ([`push_lane`](BoundedQueue::push_lane)); a pop that frees capacity
//!   wakes all of them.
//! * `linger` — batchers topping up a partial batch
//!   ([`pop_linger`](BoundedQueue::pop_linger)). A lingerer names how many
//!   items it still wants and sleeps until that many are queued, its
//!   deadline passes, or the queue closes; arrivals below the threshold do
//!   not wake it. The wake is edge-triggered: every lingerer registers its
//!   want just before each sleep, the queue keeps the smallest registered
//!   want, and the push that reaches it clears the registration before it
//!   wakes the lingerers. Each registered want so yields at most one wake.
//!   A lingerer woken short of its own want (another lingerer's smaller
//!   want was reached) re-registers and sleeps again, so later arrivals
//!   below its want do not wake it either. No wake is missed: a lingerer
//!   checks the queue length under the lock before every sleep, and every
//!   lingerer wakes by its own deadline at the latest.
//!
//! `close` wakes everyone.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Why a push was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue is at capacity (only from the non-blocking
    /// [`push_shed`](BoundedQueue::push_shed)).
    Full,
    /// The queue has been closed for shutdown.
    Closed,
}

/// Which priority lane an item enters.
///
/// Urgent items are drained before routine ones and, on the shedding
/// path, may evict the newest routine item when the queue is full —
/// the serving layer maps alarm-adjacent stream windows onto
/// [`Lane::Urgent`] so they preempt routine monitoring traffic under
/// overload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Lane {
    /// Alarm-adjacent / latency-critical work; drained first.
    Urgent,
    /// Normal traffic (the default).
    #[default]
    Routine,
}

struct Inner<T> {
    urgent: VecDeque<T>,
    routine: VecDeque<T>,
    closed: bool,
    /// Consumers sleeping on `ready`.
    ready_waiters: usize,
    /// Producers sleeping on `space`.
    space_waiters: usize,
    /// Batchers inside [`BoundedQueue::pop_linger`].
    lingerers: usize,
    /// Queue length at which the lingerers must be woken: the smallest want
    /// registered since the last linger wake (`usize::MAX` when none).
    linger_want: usize,
    /// Linger wakes issued by pushes (not by `close`).
    #[cfg(test)]
    linger_notifies: usize,
}

impl<T> Inner<T> {
    fn len(&self) -> usize {
        self.urgent.len() + self.routine.len()
    }
}

/// The bounded queue. All methods are `&self`; share it through an `Arc`.
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    capacity: usize,
    space: Condvar,
    ready: Condvar,
    linger: Condvar,
}

impl<T> std::fmt::Debug for BoundedQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoundedQueue")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl<T> BoundedQueue<T> {
    /// Acquires the queue lock, recovering from poisoning.
    ///
    /// A panicking holder (e.g. an engine worker dying mid-drain) poisons
    /// the mutex, but every critical section in this module upholds the
    /// queue invariants (`len <= capacity`, `closed` is monotone) on every
    /// exit path — including unwinds — so the recovered state is always
    /// consistent and the queue keeps serving the surviving threads.
    fn lock_inner(&self) -> MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Creates a queue holding at most `capacity` items across both lanes.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        Self {
            inner: Mutex::new(Inner {
                urgent: VecDeque::new(),
                routine: VecDeque::new(),
                closed: false,
                ready_waiters: 0,
                space_waiters: 0,
                lingerers: 0,
                linger_want: usize::MAX,
                #[cfg(test)]
                linger_notifies: 0,
            }),
            capacity,
            space: Condvar::new(),
            ready: Condvar::new(),
            linger: Condvar::new(),
        }
    }

    /// Current number of queued items across both lanes (the queue-depth
    /// gauge).
    pub fn len(&self) -> usize {
        self.lock_inner().len()
    }

    /// True if no items are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum number of queued items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueues on the routine lane, blocking while the queue is full —
    /// the backpressure path: a caller faster than the engine pool is
    /// slowed to its rate.
    pub fn push(&self, item: T) -> Result<(), PushError> {
        self.push_lane(item, Lane::Routine)
    }

    /// Enqueues on `lane`, blocking while the queue is full.
    ///
    /// A concurrent [`close`](Self::close) wakes every blocked producer
    /// and this returns [`PushError::Closed`] promptly: the wait loop
    /// re-checks `closed` before `items.len()` on every wakeup, and
    /// `close` notifies the space condvar while holding the lock.
    pub fn push_lane(&self, item: T, lane: Lane) -> Result<(), PushError> {
        let mut inner = self.lock_inner();
        loop {
            if inner.closed {
                return Err(PushError::Closed);
            }
            if inner.len() < self.capacity {
                self.enqueue_locked(&mut inner, item, lane);
                return Ok(());
            }
            inner.space_waiters += 1;
            inner = self
                .space
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
            inner.space_waiters -= 1;
        }
    }

    /// Load-shedding enqueue: never blocks. On success returns
    /// `Ok(None)`, or `Ok(Some(evicted))` when an urgent push displaced
    /// the newest routine item to make room — the caller owns answering
    /// the evicted item with a typed overload error.
    ///
    /// A full queue rejects the newest work: a routine push into a full
    /// queue gets [`PushError::Full`]; an urgent push evicts the newest
    /// routine item if one exists and is only rejected when the queue is
    /// entirely urgent.
    pub fn push_shed(&self, item: T, lane: Lane) -> Result<Option<T>, PushError> {
        let mut inner = self.lock_inner();
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.len() < self.capacity {
            self.enqueue_locked(&mut inner, item, lane);
            return Ok(None);
        }
        if lane == Lane::Urgent {
            if let Some(evicted) = inner.routine.pop_back() {
                self.enqueue_locked(&mut inner, item, Lane::Urgent);
                return Ok(Some(evicted));
            }
        }
        Err(PushError::Full)
    }

    /// Appends `item` to `lane` and wakes the consumers it may satisfy:
    /// one sleeping on `ready`, and every lingerer once the queue reaches
    /// the smallest registered want — which this wake consumes, so the
    /// pushes after it wake no one until a lingerer registers again.
    fn enqueue_locked(&self, inner: &mut Inner<T>, item: T, lane: Lane) {
        match lane {
            Lane::Urgent => inner.urgent.push_back(item),
            Lane::Routine => inner.routine.push_back(item),
        }
        if inner.ready_waiters > 0 {
            self.ready.notify_one();
        }
        if inner.lingerers > 0 && inner.len() >= inner.linger_want {
            inner.linger_want = usize::MAX;
            #[cfg(test)]
            {
                inner.linger_notifies += 1;
            }
            self.linger.notify_all();
        }
    }

    /// Waits until at least one item is available, the queue closes, or
    /// `deadline` passes, then appends up to `max` items to `out`, urgent
    /// lane first; appends nothing on timeout. Returns `false` only after
    /// close with an empty queue — the consumer's termination signal.
    pub fn pop_up_to_deadline(&self, max: usize, deadline: Instant, out: &mut Vec<T>) -> bool {
        let mut inner = self.lock_inner();
        loop {
            if inner.len() != 0 {
                self.drain_locked(&mut inner, max, out);
                return true;
            }
            if inner.closed {
                return false;
            }
            let now = Instant::now();
            if now >= deadline {
                return true;
            }
            inner.ready_waiters += 1;
            let (guard, timeout) = self
                .ready
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.ready_waiters -= 1;
            if timeout.timed_out() && inner.len() == 0 {
                return true;
            }
        }
    }

    /// The batcher's linger wait: sleeps until `want` items are queued,
    /// `deadline` passes, or the queue closes — arrivals that leave fewer
    /// than `want` queued do not wake it — then appends up to `want` items
    /// to `out`, urgent lane first. Appends nothing when the deadline
    /// passes with nothing queued, and returns `false` only after close
    /// with an empty queue.
    ///
    /// The want is registered before every sleep, not once on entry: the
    /// push that reaches the registered want clears it, so a lingerer
    /// woken short of its own want must re-arm.
    pub fn pop_linger(&self, want: usize, deadline: Instant, out: &mut Vec<T>) -> bool {
        let want = want.max(1);
        let mut inner = self.lock_inner();
        inner.lingerers += 1;
        loop {
            if inner.len() >= want || inner.closed {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            inner.linger_want = inner.linger_want.min(want);
            let (guard, _) = self
                .linger
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        inner.lingerers -= 1;
        if inner.lingerers == 0 {
            inner.linger_want = usize::MAX;
        }
        if inner.closed && inner.len() == 0 {
            return false;
        }
        self.drain_locked(&mut inner, want, out);
        true
    }

    /// Moves up to `max` items (at least one if any are queued) into the
    /// caller's `out`, urgent lane first. Allocation-free under the lock
    /// once `out` has the capacity of a full batch: consumers reuse one
    /// buffer for every batch.
    fn drain_locked(&self, inner: &mut Inner<T>, max: usize, out: &mut Vec<T>) {
        let take = inner.len().min(max.max(1));
        let from_urgent = inner.urgent.len().min(take);
        out.extend(inner.urgent.drain(..from_urgent));
        out.extend(inner.routine.drain(..take - from_urgent));
        // Capacity freed: release every producer blocked on space.
        if take > 0 && inner.space_waiters > 0 {
            self.space.notify_all();
        }
    }

    /// Closes the queue: pending items remain poppable, new pushes fail,
    /// blocked producers and consumers wake.
    pub fn close(&self) {
        let mut inner = self.lock_inner();
        inner.closed = true;
        self.ready.notify_all();
        self.space.notify_all();
        self.linger.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    /// A deadline no test outlasts: the deadline pop then blocks like a
    /// plain one.
    fn far() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// The pops into a fresh vector: `None` once closed and drained.
    impl<T> BoundedQueue<T> {
        fn pop_vec(&self, max: usize) -> Option<Vec<T>> {
            self.pop_deadline_vec(max, far())
        }

        fn pop_deadline_vec(&self, max: usize, deadline: Instant) -> Option<Vec<T>> {
            let mut out = Vec::new();
            self.pop_up_to_deadline(max, deadline, &mut out)
                .then_some(out)
        }

        fn pop_linger_vec(&self, want: usize, deadline: Instant) -> Option<Vec<T>> {
            let mut out = Vec::new();
            self.pop_linger(want, deadline, &mut out).then_some(out)
        }
    }

    #[test]
    fn pops_append_to_the_callers_buffer_without_reallocating() {
        let q = BoundedQueue::new(8);
        let mut out = Vec::with_capacity(4);
        let buffer = out.as_ptr();
        for round in 0..3 {
            out.clear();
            for i in 0..6 {
                q.push(round * 10 + i).unwrap();
            }
            q.push_lane(99, Lane::Urgent).unwrap();
            assert!(q.pop_up_to_deadline(2, far(), &mut out));
            assert!(q.pop_linger(2, Instant::now(), &mut out));
            assert_eq!(out, vec![99, round * 10, round * 10 + 1, round * 10 + 2]);
            // The rest drains into a second round of the same buffer.
            out.clear();
            assert!(q.pop_up_to_deadline(4, Instant::now(), &mut out));
            assert_eq!(out.len(), 3);
            assert_eq!(out.as_ptr(), buffer, "the drain reused the buffer");
        }
        q.close();
        out.clear();
        assert!(
            !q.pop_up_to_deadline(4, far(), &mut out),
            "closed and drained"
        );
        assert!(out.is_empty());
    }

    #[test]
    fn fifo_order_and_batch_drain() {
        let q = BoundedQueue::new(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.pop_vec(3).unwrap(), vec![0, 1, 2]);
        assert_eq!(q.pop_vec(10).unwrap(), vec![3, 4]);
    }

    #[test]
    fn urgent_lane_preempts_routine_fifo() {
        let q = BoundedQueue::new(8);
        q.push_lane(0, Lane::Routine).unwrap();
        q.push_lane(1, Lane::Routine).unwrap();
        q.push_lane(10, Lane::Urgent).unwrap();
        q.push_lane(11, Lane::Urgent).unwrap();
        // Urgent drains first, FIFO within each lane.
        assert_eq!(q.pop_vec(3).unwrap(), vec![10, 11, 0]);
        assert_eq!(q.pop_vec(3).unwrap(), vec![1]);
    }

    #[test]
    fn routine_shed_push_reports_full_until_a_pop_frees_room() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push_shed(1, Lane::Routine), Ok(None));
        assert_eq!(q.push_shed(2, Lane::Routine), Ok(None));
        assert_eq!(q.push_shed(3, Lane::Routine), Err(PushError::Full));
        let _ = q.pop_vec(1);
        assert_eq!(q.push_shed(3, Lane::Routine), Ok(None));
    }

    #[test]
    fn shed_rejects_newest_routine_and_urgent_evicts() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.push_shed(1, Lane::Routine), Ok(None));
        assert_eq!(q.push_shed(2, Lane::Routine), Ok(None));
        // Routine into a full queue: the incoming (newest) item is shed.
        assert_eq!(q.push_shed(3, Lane::Routine), Err(PushError::Full));
        // Urgent into a full queue: the newest *routine* item is evicted
        // and handed back.
        assert_eq!(q.push_shed(10, Lane::Urgent), Ok(Some(2)));
        // Queue now holds [urgent: 10, routine: 1]; urgent into a full
        // all-urgent... still one routine item to evict.
        assert_eq!(q.push_shed(11, Lane::Urgent), Ok(Some(1)));
        // Entirely urgent: nothing left to evict.
        assert_eq!(q.push_shed(12, Lane::Urgent), Err(PushError::Full));
        assert_eq!(q.pop_vec(4).unwrap(), vec![10, 11]);
    }

    #[test]
    fn push_blocks_until_space_then_succeeds() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push(1).unwrap());
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked, not queued");
        assert_eq!(q.pop_vec(1).unwrap(), vec![0]);
        producer.join().unwrap();
        assert_eq!(q.pop_vec(1).unwrap(), vec![1]);
    }

    #[test]
    fn close_wakes_consumer_with_none() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = Arc::clone(&q);
        let consumer = thread::spawn(move || q2.pop_vec(4));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
        assert_eq!(q.push(9), Err(PushError::Closed));
    }

    /// Regression test for the enqueue/shutdown race: a producer blocked
    /// on a full queue must observe a concurrent `close()` and return
    /// `Closed` promptly — never hang on the space condvar waiting for
    /// capacity that will never be freed (after close, consumers may
    /// drain remaining items but no notify path is owed to producers
    /// beyond the close itself).
    #[test]
    fn close_wakes_blocked_producer_with_closed() {
        let q = Arc::new(BoundedQueue::new(1));
        q.push(0u32).unwrap();
        let q2 = Arc::clone(&q);
        let producer = thread::spawn(move || q2.push_lane(1, Lane::Urgent));
        // Let the producer reach the condvar wait with the queue full.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.len(), 1, "producer must be blocked, not queued");
        q.close();
        // The producer must come back with Closed on its own — bound the
        // wait so a regression fails the test instead of wedging it.
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(producer.join());
        });
        let joined = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("blocked producer must wake promptly on close, not hang");
        assert_eq!(joined.unwrap(), Err(PushError::Closed));
        // The item enqueued before close is still poppable.
        assert_eq!(q.pop_vec(4), Some(vec![0]));
        assert_eq!(q.pop_vec(4), None);
    }

    #[test]
    fn poisoned_lock_recovers_on_every_path() {
        let q = Arc::new(BoundedQueue::new(4));
        q.push(1).unwrap();
        // Poison the mutex: a panic while the guard is held.
        let q2 = Arc::clone(&q);
        let poisoner = thread::spawn(move || {
            let _guard = q2.inner.lock().unwrap();
            panic!("poison the queue lock");
        });
        assert!(poisoner.join().is_err());
        // Every public path must recover the poisoned lock and keep the
        // queue serving with its state intact.
        assert_eq!(q.len(), 1);
        q.push(2).unwrap();
        assert_eq!(q.push_shed(3, Lane::Routine), Ok(None));
        assert_eq!(q.push_shed(4, Lane::Urgent), Ok(None));
        assert_eq!(q.pop_vec(8).unwrap(), vec![4, 1, 2, 3]);
        let deadline = Instant::now() + Duration::from_millis(5);
        assert_eq!(q.pop_deadline_vec(4, deadline), Some(Vec::new()));
        q.close();
        assert_eq!(q.push(9), Err(PushError::Closed));
    }

    /// Joins `handle`, failing the test instead of hanging if the thread
    /// does not finish within `limit`.
    fn join_within<R: Send + 'static>(handle: thread::JoinHandle<R>, limit: Duration) -> R {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(handle.join());
        });
        rx.recv_timeout(limit)
            .expect("thread must finish in bounded time")
            .unwrap()
    }

    #[test]
    fn lingering_pop_returns_on_the_wanted_push_not_before() {
        let q = Arc::new(BoundedQueue::new(16));
        let q2 = Arc::clone(&q);
        let deadline = Instant::now() + Duration::from_secs(30);
        let lingerer = thread::spawn(move || q2.pop_linger_vec(3, deadline));
        await_lingerers(&q, 1);
        q.push(1u32).unwrap();
        q.push(2).unwrap();
        thread::sleep(Duration::from_millis(30));
        assert!(
            !lingerer.is_finished(),
            "two of three wanted items must not end the linger"
        );
        q.push(3).unwrap();
        let got = join_within(lingerer, Duration::from_secs(5));
        assert_eq!(got, Some(vec![1, 2, 3]));
    }

    #[test]
    fn lingering_pop_takes_what_is_queued_at_its_deadline() {
        let q = BoundedQueue::new(16);
        let t0 = Instant::now();
        let got = q.pop_linger_vec(3, t0 + Duration::from_millis(30));
        assert_eq!(got, Some(Vec::<u32>::new()), "nothing queued: empty");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        q.push(7u32).unwrap();
        let t0 = Instant::now();
        let got = q.pop_linger_vec(3, t0 + Duration::from_millis(30));
        assert_eq!(got, Some(vec![7]), "a partial top-up lands at the deadline");
        assert!(t0.elapsed() >= Duration::from_millis(25));
        // Never more than wanted, urgent first.
        for i in 0..4 {
            q.push(i).unwrap();
        }
        q.push_lane(9, Lane::Urgent).unwrap();
        assert_eq!(q.pop_linger_vec(2, Instant::now()), Some(vec![9, 0]));
    }

    #[test]
    fn lingering_pop_wakes_on_close() {
        let q = Arc::new(BoundedQueue::new(16));
        q.push(5u32).unwrap();
        let q2 = Arc::clone(&q);
        let deadline = Instant::now() + Duration::from_secs(30);
        let lingerer = thread::spawn(move || q2.pop_linger_vec(4, deadline));
        await_lingerers(&q, 1);
        q.close();
        // Queued work is still handed out; an empty closed queue ends it.
        assert_eq!(join_within(lingerer, Duration::from_secs(5)), Some(vec![5]));
        assert_eq!(q.pop_linger_vec(4, deadline), None);
    }

    /// Spins until `n` lingerers are recorded, so a test can order its
    /// pushes after their registration.
    fn await_lingerers<T>(q: &BoundedQueue<T>, n: usize) {
        while q.lock_inner().lingerers != n {
            thread::yield_now();
        }
    }

    #[test]
    fn lingerers_with_different_wants_each_wake_at_their_own_count() {
        let q = Arc::new(BoundedQueue::new(64));
        let deadline = Instant::now() + Duration::from_secs(30);
        let qa = Arc::clone(&q);
        let small = thread::spawn(move || qa.pop_linger_vec(2, deadline));
        await_lingerers(&q, 1);
        let qb = Arc::clone(&q);
        let large = thread::spawn(move || qb.pop_linger_vec(5, deadline));
        await_lingerers(&q, 2);
        // The smaller want is reached first and must not wait for the
        // larger one registered after it.
        q.push(0u32).unwrap();
        q.push(1).unwrap();
        assert_eq!(join_within(small, Duration::from_secs(5)), Some(vec![0, 1]));
        // The remaining lingerer was woken with the small one, found two
        // of its five and re-registered its own want: arrivals below it
        // leave it asleep until its own count is queued.
        for i in 2..6 {
            q.push(i).unwrap();
        }
        thread::sleep(Duration::from_millis(30));
        assert!(!large.is_finished(), "four of five wanted items");
        q.push(6).unwrap();
        assert_eq!(
            join_within(large, Duration::from_secs(5)),
            Some(vec![2, 3, 4, 5, 6])
        );
    }

    #[test]
    fn each_registered_want_wakes_the_lingerers_at_most_once() {
        let q = Arc::new(BoundedQueue::new(64));
        let deadline = Instant::now() + Duration::from_secs(30);
        let qa = Arc::clone(&q);
        let small = thread::spawn(move || qa.pop_linger_vec(2, deadline));
        await_lingerers(&q, 1);
        let qb = Arc::clone(&q);
        let large = thread::spawn(move || qb.pop_linger_vec(50, deadline));
        await_lingerers(&q, 2);
        q.push(0u32).unwrap();
        q.push(1).unwrap();
        assert_eq!(join_within(small, Duration::from_secs(5)), Some(vec![0, 1]));
        // Forty arrivals while the large lingerer waits for fifty: none of
        // them reaches its want, so none wakes it.
        for i in 2..42 {
            q.push(i).unwrap();
        }
        thread::sleep(Duration::from_millis(30));
        assert!(!large.is_finished(), "forty of fifty wanted items");
        assert!(
            q.lock_inner().linger_notifies <= 1,
            "only the small want's push woke the lingerers"
        );
        for i in 42..52 {
            q.push(i).unwrap();
        }
        assert_eq!(
            join_within(large, Duration::from_secs(5)),
            Some((2..52).collect())
        );
        let notifies = q.lock_inner().linger_notifies;
        assert!(notifies <= 2, "{notifies} linger wakes for two wants");
    }

    #[test]
    fn mpmc_stress_loses_no_item() {
        // Producers block on a small queue while consumers mix every pop
        // flavour with short deadlines: each item arrives exactly once and
        // the run finishes in bounded time (a missed wake would stall a
        // producer on `space` or a consumer until the watchdog fires).
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let q = Arc::new(BoundedQueue::new(8));
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let lane = if i % 7 == 0 {
                            Lane::Urgent
                        } else {
                            Lane::Routine
                        };
                        q.push_lane(p * PER_PRODUCER + i, lane).unwrap();
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..3)
            .map(|c| {
                let q = Arc::clone(&q);
                thread::spawn(move || {
                    let mut got = Vec::new();
                    loop {
                        let soon = Instant::now() + Duration::from_micros(200);
                        let batch = match c {
                            0 => q.pop_vec(4),
                            1 => q.pop_deadline_vec(4, soon),
                            _ => q.pop_linger_vec(4, soon),
                        };
                        match batch {
                            Some(items) => got.extend(items),
                            None => return got,
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            join_within(producer, Duration::from_secs(30));
        }
        q.close();
        let mut all: Vec<u64> = consumers
            .into_iter()
            .flat_map(|c| join_within(c, Duration::from_secs(30)))
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS * PER_PRODUCER).collect::<Vec<_>>());
    }

    #[test]
    fn deadline_pop_returns_empty_on_timeout() {
        let q: BoundedQueue<u32> = BoundedQueue::new(4);
        let t0 = Instant::now();
        let got = q.pop_deadline_vec(4, Instant::now() + Duration::from_millis(30));
        assert_eq!(got, Some(Vec::new()));
        assert!(t0.elapsed() >= Duration::from_millis(25));
    }
}
