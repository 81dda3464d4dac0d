//! One-shot reply slots: how a worker hands each request its answer — and
//! the request's memory back to the thread that made it.
//!
//! A slot is one `Arc` holding a `Mutex` over the answer. The worker keeps
//! the [`ReplyTx`] half inside the queued request; the client keeps the
//! [`ReplyRx`] half inside its ticket. The client allocates the slot when
//! it submits and frees it when it collects the answer; the worker only
//! fills it, and unparks the client only when the client has recorded
//! that it is parked — a client that collects its answer after it landed
//! costs the worker no wake-up syscall.
//!
//! Answering moves memory *to* the client, never frees it on the worker:
//!
//! * a [`Prediction`] holds its logits inline ([`crate::Logits`]), so a
//!   single-sample answer is one prediction moved into the slot
//!   ([`Reply::One`]) with no allocation, and a window answer is one
//!   `Vec<Prediction>` ([`Reply::Many`]) — the only allocation answering
//!   makes, freed by the client with the answer;
//! * the request's [`Payload`] travels back in the same slot, and
//!   [`ReplyRx::wait`] / [`ReplyRx::poll`] drop it on the client thread
//!   after taking the answer. For a single sample that is the packed row
//!   [`TaskClient::enqueue`](crate::TaskClient::enqueue) made from the
//!   float row (which it freed at once, so no float row ever reaches a
//!   worker); for a window it is the client's shared rows. A buffer
//!   allocated on one thread and freed on another takes the allocator's
//!   cross-thread path, which dominated the merged single-sample serve
//!   path before this hand-back.
//!
//! Error answers ([`ReplyTx::fail`]) carry no payload: the request drops
//! its payload where it is, on the rare failure path. The slot itself is
//! freed by whichever half lets go last, and that is the client unless it
//! drops its ticket unanswered. The worker lets go right after filling
//! and *before* it wakes a parked client (the wake needs only the
//! client's thread handle, not the slot), so a woken client finds itself
//! the last owner. A client that finds its answer without parking may
//! reach it in the few instructions between the worker's unlock and its
//! release; it waits those out before letting go.
//!
//! The contract matches the channel the slot replaced:
//!
//! * every slot ends with exactly one answer: dropping the [`ReplyTx`]
//!   unanswered (a request dropped by a dying worker or a closed queue)
//!   fills [`ServeError::ShuttingDown`];
//! * once the answer has been taken, later reads see the slot as
//!   disconnected and also report `ShuttingDown` — never a hang.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use crate::server::{Payload, Prediction, ServeError};

/// What a request is answered with, or why not.
pub(crate) type Answer = Result<Reply, ServeError>;

/// A successful answer, in the shape the request was submitted in.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Reply {
    /// The prediction of a single-sample request.
    One(Prediction),
    /// One prediction per sample of a window request.
    Many(Vec<Prediction>),
}

impl Reply {
    /// The one prediction of a single-sample answer. The worker answers a
    /// single-sample request only with [`Reply::One`]; any other shape
    /// reads as a disconnected slot.
    pub(crate) fn single(self) -> Result<Prediction, ServeError> {
        match self {
            Reply::One(prediction) => Ok(prediction),
            Reply::Many(_) => Err(ServeError::ShuttingDown),
        }
    }

    /// One prediction per sample of a window answer. The worker answers a
    /// window request only with [`Reply::Many`]; any other shape reads as
    /// a disconnected slot.
    pub(crate) fn window(self) -> Result<Vec<Prediction>, ServeError> {
        match self {
            Reply::Many(predictions) => Ok(predictions),
            Reply::One(_) => Err(ServeError::ShuttingDown),
        }
    }
}

struct State {
    /// `None` until the worker half fills the slot. Taking the answer
    /// leaves `ShuttingDown` behind, so later reads see a disconnected
    /// slot.
    answer: Option<Answer>,
    /// The request's payload, handed back with a successful answer so it
    /// is freed by the client that allocated it.
    payload: Option<Payload>,
    /// The client blocked in [`ReplyRx::wait`]; only then does a fill
    /// unpark it.
    parked: Option<Thread>,
}

impl State {
    /// Takes the answer and the handed-back payload, if answered.
    fn take(&mut self) -> Option<(Answer, Option<Payload>)> {
        let answer = self.answer.as_mut()?;
        let answer = std::mem::replace(answer, Err(ServeError::ShuttingDown));
        Some((answer, self.payload.take()))
    }
}

struct Slot {
    state: Mutex<State>,
}

impl Slot {
    /// Acquires the slot lock, recovering from poisoning: every critical
    /// section below leaves `State` consistent on every exit path.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The worker half: answers the request exactly once.
pub(crate) struct ReplyTx {
    slot: Option<Arc<Slot>>,
}

/// The client half: collects the answer.
pub(crate) struct ReplyRx {
    slot: Arc<Slot>,
}

/// A fresh, empty reply slot.
pub(crate) fn slot() -> (ReplyTx, ReplyRx) {
    let slot = Arc::new(Slot {
        state: Mutex::new(State {
            answer: None,
            payload: None,
            parked: None,
        }),
    });
    (
        ReplyTx {
            slot: Some(Arc::clone(&slot)),
        },
        ReplyRx { slot },
    )
}

impl ReplyTx {
    /// Answers the request and hands its `payload` back to the client,
    /// which frees it. A client that gave up (dropped its half) is not an
    /// error; answer and payload are then dropped with the slot. Later
    /// calls on an answered half do nothing.
    pub(crate) fn answer(&mut self, reply: Reply, payload: Payload) {
        self.fill(Ok(reply), Some(payload));
    }

    /// Answers the request with `error`. Later calls on an answered half
    /// do nothing.
    pub(crate) fn fail(&mut self, error: ServeError) {
        self.fill(Err(error), None);
    }

    /// True once this half has answered.
    pub(crate) fn is_answered(&self) -> bool {
        self.slot.is_none()
    }

    fn fill(&mut self, answer: Answer, payload: Option<Payload>) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        let mut state = slot.lock();
        state.answer = Some(answer);
        state.payload = payload;
        // The client records itself under the lock before it parks, so
        // taking it under the lock cannot miss a sleeping client.
        let parked = state.parked.take();
        drop(state);
        // Let go before the wake: a parked client still holds its half, so
        // this never frees the slot, and the client frees it once woken.
        drop(slot);
        if let Some(client) = parked {
            client.unpark();
        }
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        self.fail(ServeError::ShuttingDown);
    }
}

impl ReplyRx {
    /// Blocks until the request is answered, then frees the handed-back
    /// payload on this thread.
    pub(crate) fn wait(self) -> Answer {
        loop {
            let mut state = self.slot.lock();
            if let Some((answer, payload)) = state.take() {
                drop(state);
                drop(payload);
                self.outlast_worker();
                return answer;
            }
            state.parked = Some(std::thread::current());
            drop(state);
            // A wake-up meant for an earlier slot, or a spurious one, only
            // costs another look under the lock.
            std::thread::park();
        }
    }

    /// The answer if it has already arrived; its handed-back payload is
    /// freed on this thread.
    pub(crate) fn poll(&self) -> Option<Answer> {
        let taken = self.slot.lock().take();
        let (answer, payload) = taken?;
        drop(payload);
        self.outlast_worker();
        Some(answer)
    }

    /// Waits, once the answer is taken, until the worker half has let go
    /// of the slot, so that this half frees it. A worker that woke this
    /// client had already let go; otherwise it lets go a few instructions
    /// after its unlock, and the client yields to it only if it was
    /// preempted in between.
    fn outlast_worker(&self) {
        while Arc::strong_count(&self.slot) > 1 {
            std::thread::yield_now();
        }
    }
}

impl std::fmt::Debug for ReplyRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplyRx")
            .field("answered", &self.slot.lock().answer.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Logits;
    use std::thread;
    use std::time::Duration;

    fn reply(class: usize) -> Reply {
        Reply::Many(vec![Prediction {
            class,
            logits: Logits::new(&[class as f32]).expect("fits inline"),
        }])
    }

    fn payload() -> Payload {
        Payload::One(vec![0x5; 4])
    }

    #[test]
    fn send_before_wait() {
        let (mut tx, rx) = slot();
        tx.answer(reply(1), payload());
        assert!(tx.is_answered());
        assert_eq!(rx.wait(), Ok(reply(1)));
    }

    #[test]
    fn wait_before_send() {
        let (mut tx, rx) = slot();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.answer(reply(2), payload());
        });
        assert_eq!(rx.wait(), Ok(reply(2)));
        sender.join().unwrap();
    }

    #[test]
    fn only_the_first_answer_lands() {
        let (mut tx, rx) = slot();
        tx.fail(ServeError::DeadlineExceeded);
        tx.answer(reply(3), payload());
        drop(tx);
        assert_eq!(rx.wait(), Err(ServeError::DeadlineExceeded));
    }

    #[test]
    fn handed_back_payload_is_freed_by_the_collecting_client() {
        // The worker thread answers and exits; the payload outlives it in
        // the slot and is released only when the client collects.
        let rows = Arc::new(vec![vec![1.0f32; 4]; 2]);
        let (mut tx, rx) = slot();
        let worker_rows = Payload::Window(Arc::clone(&rows));
        thread::spawn(move || tx.answer(reply(4), worker_rows))
            .join()
            .unwrap();
        assert_eq!(Arc::strong_count(&rows), 2, "the slot holds the payload");
        assert_eq!(rx.wait(), Ok(reply(4)));
        assert_eq!(Arc::strong_count(&rows), 1, "wait freed it");
        // Polling hands it back the same way.
        let (mut tx, rx) = slot();
        tx.answer(reply(5), Payload::Window(Arc::clone(&rows)));
        assert_eq!(rx.poll(), Some(Ok(reply(5))));
        assert_eq!(Arc::strong_count(&rows), 1, "poll freed it");
    }

    #[test]
    fn each_ticket_reads_only_its_own_answer_shape() {
        let prediction = Prediction {
            class: 1,
            logits: Logits::new(&[0.25, 3.0]).expect("fits inline"),
        };
        assert_eq!(Reply::One(prediction).single(), Ok(prediction));
        assert_eq!(Reply::Many(vec![prediction]).window(), Ok(vec![prediction]));
        assert_eq!(
            Reply::Many(vec![prediction]).single(),
            Err(ServeError::ShuttingDown)
        );
        assert_eq!(
            Reply::One(prediction).window(),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn dropped_unanswered_reads_shutting_down() {
        let (tx, rx) = slot();
        assert_eq!(rx.poll(), None);
        drop(tx);
        assert_eq!(rx.poll(), Some(Err(ServeError::ShuttingDown)));
        // A parked client is woken by the drop, not left hanging.
        let (tx, rx) = slot();
        let dropper = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(rx.wait(), Err(ServeError::ShuttingDown));
        dropper.join().unwrap();
    }

    #[test]
    fn poll_then_wait() {
        // Nothing yet: poll leaves the slot armed and wait still answers.
        let (mut tx, rx) = slot();
        assert_eq!(rx.poll(), None);
        let sender = thread::spawn(move || tx.answer(reply(3), payload()));
        assert_eq!(rx.wait(), Ok(reply(3)));
        sender.join().unwrap();
        // Taken by poll: the slot then reads as disconnected, so neither a
        // second poll nor a wait can hang.
        let (mut tx, rx) = slot();
        tx.answer(reply(4), payload());
        assert_eq!(rx.poll(), Some(Ok(reply(4))));
        assert_eq!(rx.poll(), Some(Err(ServeError::ShuttingDown)));
        assert_eq!(rx.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn answer_outlives_a_dropped_client() {
        let (mut tx, rx) = slot();
        drop(rx);
        tx.answer(reply(5), payload());
    }
}
