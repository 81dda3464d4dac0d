//! One-shot reply slots: how a worker hands each request its answer.
//!
//! A slot is one `Arc` holding a `Mutex` over the answer and a `Condvar`.
//! The worker keeps the [`ReplyTx`] half inside the queued request; the
//! client keeps the [`ReplyRx`] half inside its ticket. Compared with a
//! per-request `mpsc` channel the slot allocates once, carries exactly one
//! value, and the worker only notifies the condvar when the client has
//! recorded that it is parked — a client that collects its answer after
//! it landed costs the worker no wake-up syscall.
//!
//! The contract matches the channel it replaces:
//!
//! * every slot ends with exactly one answer: dropping the [`ReplyTx`]
//!   unanswered (a request dropped by a dying worker or a closed queue)
//!   fills [`ServeError::ShuttingDown`];
//! * once the answer has been taken, later reads see the slot as
//!   disconnected and also report `ShuttingDown` — never a hang.

use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use crate::server::{Prediction, ServeError};

/// What a request is answered with: one prediction per sample, or why not.
pub(crate) type Answer = Result<Vec<Prediction>, ServeError>;

struct State {
    /// `None` until the worker half fills the slot. Taking the answer
    /// leaves `ShuttingDown` behind, so later reads see a disconnected
    /// slot.
    answer: Option<Answer>,
    /// The client is blocked in [`ReplyRx::wait`]; only then does a fill
    /// notify the condvar.
    parked: bool,
}

impl State {
    fn take(&mut self) -> Option<Answer> {
        let answer = self.answer.as_mut()?;
        Some(std::mem::replace(answer, Err(ServeError::ShuttingDown)))
    }
}

struct Slot {
    state: Mutex<State>,
    filled: Condvar,
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
            parked: false,
        }),
        filled: Condvar::new(),
    });
    (
        ReplyTx {
            slot: Some(Arc::clone(&slot)),
        },
        ReplyRx { slot },
    )
}

impl ReplyTx {
    /// Answers the request. A client that gave up (dropped its half) is
    /// not an error; the answer is simply dropped with the slot.
    pub(crate) fn send(mut self, answer: Answer) {
        self.fill(answer);
    }

    fn fill(&mut self, answer: Answer) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        let mut state = slot.lock();
        state.answer = Some(answer);
        let parked = state.parked;
        drop(state);
        // The client records `parked` under the lock before it waits, so
        // reading it under the lock above cannot miss a sleeping client.
        if parked {
            slot.filled.notify_one();
        }
    }
}

impl Drop for ReplyTx {
    fn drop(&mut self) {
        self.fill(Err(ServeError::ShuttingDown));
    }
}

impl ReplyRx {
    /// Blocks until the request is answered.
    pub(crate) fn wait(self) -> Answer {
        let mut state = self.slot.lock();
        loop {
            if let Some(answer) = state.take() {
                return answer;
            }
            state.parked = true;
            state = self
                .slot
                .filled
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// The answer if it has already arrived.
    pub(crate) fn poll(&self) -> Option<Answer> {
        self.slot.lock().take()
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
    use std::thread;
    use std::time::Duration;

    fn answer(class: usize) -> Answer {
        Ok(vec![Prediction {
            class,
            logits: vec![class as f32],
        }])
    }

    #[test]
    fn send_before_wait() {
        let (tx, rx) = slot();
        tx.send(answer(1));
        assert_eq!(rx.wait(), answer(1));
    }

    #[test]
    fn wait_before_send() {
        let (tx, rx) = slot();
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.send(answer(2));
        });
        assert_eq!(rx.wait(), answer(2));
        sender.join().unwrap();
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
        let (tx, rx) = slot();
        assert_eq!(rx.poll(), None);
        let sender = thread::spawn(move || tx.send(answer(3)));
        assert_eq!(rx.wait(), answer(3));
        sender.join().unwrap();
        // Taken by poll: the slot then reads as disconnected, so neither a
        // second poll nor a wait can hang.
        let (tx, rx) = slot();
        tx.send(answer(4));
        assert_eq!(rx.poll(), Some(answer(4)));
        assert_eq!(rx.poll(), Some(Err(ServeError::ShuttingDown)));
        assert_eq!(rx.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn answer_outlives_a_dropped_client() {
        let (tx, rx) = slot();
        drop(rx);
        tx.send(answer(5));
    }
}
