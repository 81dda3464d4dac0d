//! One-shot reply slots: where a request lives from submission until its
//! client collects the answer.
//!
//! A slot is one `Arc` holding the request itself, an immutable [`Job`]
//! (task, samples, submit and deadline stamps), beside a `Mutex` over the
//! answer. The queue carries only the worker half, [`ReplyTx`]; the client
//! keeps the [`ReplyRx`] half inside its ticket. The worker reads the job
//! through its half until it answers, and answering lets go of the slot,
//! so on the worker's side "answered" is "the job is gone". The worker only
//! fills the answer, and unparks the client only when the client has
//! recorded that it is parked — a client that collects its answer after
//! it landed costs the worker no wake-up syscall.
//!
//! The worker never moves or frees the client's memory:
//!
//! * a [`Prediction`] holds its logits inline ([`crate::Logits`]), so a
//!   single-sample answer is one prediction moved into the slot
//!   ([`Reply::One`]) with no allocation, and a window answer is one
//!   `Vec<Prediction>` ([`Reply::Many`]) — the only allocation answering
//!   makes, freed by the client with the answer;
//! * the job — a single's packed words, a window's shared rows — stays
//!   in the slot and goes with it. The slot is freed by whichever half
//!   lets go last, and that is the client unless it drops its ticket
//!   unanswered: the worker lets go right after filling and *before* it
//!   wakes a parked client (the wake needs only the client's thread
//!   handle, not the slot), so a woken client finds itself the last
//!   owner. A client that finds its answer without parking may reach it
//!   in the few instructions between the worker's unlock and its release;
//!   it waits those out. A buffer allocated on one thread and freed on
//!   another takes the allocator's cross-thread path, which dominated the
//!   merged single-sample serve path before the client freed it all.
//!
//! Each thread keeps one spare slot. A client that lets go of an answered
//! slot it alone holds drops the answer and a window's rows at once and
//! keeps the slot, with a single's packed-word buffer inside, as its
//! thread's spare (replacing the one it had). The next request the thread
//! submits moves its job into the spare instead of allocating a slot, and
//! [`TaskClient::enqueue`](crate::TaskClient::enqueue) packs its row into
//! the spare's word buffer ([`spare_words`]). A thread that collects one
//! answer per request it submits therefore allocates neither in steady
//! state. A slot the worker still holds, or one dropped before it was
//! answered, is never reused: its last owner frees it.
//!
//! The contract matches the channel the slot replaced:
//!
//! * every slot ends with exactly one answer: dropping the [`ReplyTx`]
//!   unanswered (a request dropped by a dying worker or a closed queue)
//!   fills [`ServeError::ShuttingDown`];
//! * once the answer has been taken, later reads see the slot as
//!   disconnected and also report `ShuttingDown` — never a hang.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::Thread;

use crate::server::{Job, Prediction, ServeError};

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
    /// The client blocked in [`ReplyRx::wait`]; only then does a fill
    /// unpark it.
    parked: Option<Thread>,
}

impl State {
    /// A slot nobody has answered or waited on.
    const EMPTY: State = State {
        answer: None,
        parked: None,
    };

    /// Takes the answer, if answered.
    fn take(&mut self) -> Option<Answer> {
        let answer = self.answer.as_mut()?;
        Some(std::mem::replace(answer, Err(ServeError::ShuttingDown)))
    }
}

struct Slot {
    /// The request. Written only while one half holds the slot alone
    /// (`Arc::get_mut`), so the worker reads it without a lock.
    job: Job,
    state: Mutex<State>,
}

impl Slot {
    /// Acquires the slot lock, recovering from poisoning: every critical
    /// section below leaves `State` consistent on every exit path.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

thread_local! {
    /// This thread's one spare slot: the last answered slot it let go of
    /// while holding it alone, its answer and window rows already dropped.
    static SPARE: Cell<Option<Arc<Slot>>> = const { Cell::new(None) };
}

/// The worker half: reads the request and answers it exactly once.
pub(crate) struct ReplyTx {
    slot: Option<Arc<Slot>>,
}

/// The client half: collects the answer.
pub(crate) struct ReplyRx {
    /// `None` only once dropped.
    slot: Option<Arc<Slot>>,
}

/// A slot holding `job`, unanswered: this thread's spare if it has one,
/// else a new one.
pub(crate) fn slot(job: Job) -> (ReplyTx, ReplyRx) {
    let slot = take_spare(job).unwrap_or_else(|job| {
        Arc::new(Slot {
            job,
            state: Mutex::new(State::EMPTY),
        })
    });
    (
        ReplyTx {
            slot: Some(Arc::clone(&slot)),
        },
        ReplyRx { slot: Some(slot) },
    )
}

/// Moves `job` into this thread's spare slot and takes the slot, or hands
/// `job` back when the thread has no spare.
fn take_spare(job: Job) -> Result<Arc<Slot>, Job> {
    let Some(mut spare) = SPARE.try_with(Cell::take).ok().flatten() else {
        return Err(job);
    };
    // Only this thread ever held its spare, so this always succeeds.
    let Some(slot) = Arc::get_mut(&mut spare) else {
        return Err(job);
    };
    slot.job = job;
    Ok(spare)
}

/// The packed-word buffer of this thread's spare slot, for the next
/// single-sample request to pack into; empty when the thread has no spare
/// or its spare last carried a window.
pub(crate) fn spare_words() -> Vec<u64> {
    SPARE
        .try_with(|cell| {
            let mut spare = cell.take();
            let words = spare
                .as_mut()
                .and_then(Arc::get_mut)
                .map(|slot| std::mem::take(&mut slot.job.words));
            cell.set(spare);
            words
        })
        .ok()
        .flatten()
        .unwrap_or_default()
}

/// Keeps `slot` as this thread's spare when this half alone holds it —
/// the worker has answered and let go — dropping its answer and any
/// window rows now; the thread's previous spare is freed. A slot the
/// worker still holds is only released here, and its last owner frees it.
fn recycle(mut slot: Arc<Slot>) {
    let Some(spare) = Arc::get_mut(&mut slot) else {
        return;
    };
    spare.job.rows = None;
    *spare
        .state
        .get_mut()
        .unwrap_or_else(PoisonError::into_inner) = State::EMPTY;
    // A thread being torn down has no spare to keep; the slot is freed.
    let _ = SPARE.try_with(|cell| cell.set(Some(slot)));
}

impl ReplyTx {
    /// The request, until this half answers it.
    pub(crate) fn job(&self) -> Option<&Job> {
        self.slot.as_deref().map(|slot| &slot.job)
    }

    /// Answers the request. A client that gave up (dropped its half) is
    /// not an error; the answer is then dropped with the slot. Later calls
    /// on an answered half do nothing.
    pub(crate) fn answer(&mut self, reply: Reply) {
        self.fill(Ok(reply));
    }

    /// Answers the request with `error`. Later calls on an answered half
    /// do nothing.
    pub(crate) fn fail(&mut self, error: ServeError) {
        self.fill(Err(error));
    }

    fn fill(&mut self, answer: Answer) {
        let Some(slot) = self.slot.take() else {
            return;
        };
        let mut state = slot.lock();
        state.answer = Some(answer);
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
    /// Blocks until the request is answered. Dropping the ticket then
    /// keeps the slot as this thread's spare.
    pub(crate) fn wait(self) -> Answer {
        let Some(slot) = self.slot.as_ref() else {
            return Err(ServeError::ShuttingDown);
        };
        loop {
            let mut state = slot.lock();
            if let Some(answer) = state.take() {
                drop(state);
                outlast_worker(slot);
                return answer;
            }
            state.parked = Some(std::thread::current());
            drop(state);
            // A wake-up meant for an earlier slot, or a spurious one, only
            // costs another look under the lock.
            std::thread::park();
        }
    }

    /// The answer if it has already arrived. Dropping the ticket after it
    /// did keeps the slot as this thread's spare.
    pub(crate) fn poll(&self) -> Option<Answer> {
        let slot = self.slot.as_ref()?;
        let answer = slot.lock().take()?;
        outlast_worker(slot);
        Some(answer)
    }
}

/// Waits, once the answer is taken, until the worker half has let go of
/// `slot`, so that the client half holds it alone. A worker that woke this
/// client had already let go; otherwise it lets go a few instructions
/// after its unlock, and the client yields to it only if it was preempted
/// in between.
fn outlast_worker(slot: &Arc<Slot>) {
    while Arc::strong_count(slot) > 1 {
        std::thread::yield_now();
    }
}

impl Drop for ReplyRx {
    fn drop(&mut self) {
        if let Some(slot) = self.slot.take() {
            recycle(slot);
        }
    }
}

impl std::fmt::Debug for ReplyRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let answered = self
            .slot
            .as_ref()
            .is_some_and(|slot| slot.lock().answer.is_some());
        f.debug_struct("ReplyRx")
            .field("answered", &answered)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        demo_network, AdmissionPolicy, Backend, BatchPolicy, Logits, ModelRegistry, ServeConfig,
        ServeTask, Server,
    };
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rbnn_rram::EngineConfig;
    use std::thread;
    use std::time::{Duration, Instant};

    fn reply(class: usize) -> Reply {
        Reply::Many(vec![Prediction {
            class,
            logits: Logits::new(&[class as f32]).expect("fits inline"),
        }])
    }

    fn single(words: Vec<u64>) -> Job {
        Job {
            task: ServeTask::Ecg,
            words,
            rows: None,
            submitted: Instant::now(),
            deadline: None,
        }
    }

    fn job() -> Job {
        single(vec![0x5; 4])
    }

    fn window(rows: &Arc<Vec<Vec<f32>>>) -> Job {
        Job {
            rows: Some(Arc::clone(rows)),
            ..single(Vec::new())
        }
    }

    /// Where a ticket's slot lives.
    fn address(rx: &ReplyRx) -> *const Slot {
        rx.slot.as_ref().map_or(std::ptr::null(), Arc::as_ptr)
    }

    /// Where this thread's spare lives, if it has one.
    fn spare_address() -> Option<*const Slot> {
        SPARE.with(|cell| {
            let spare = cell.take();
            let address = spare.as_ref().map(Arc::as_ptr);
            cell.set(spare);
            address
        })
    }

    #[test]
    fn send_before_wait() {
        let (mut tx, rx) = slot(job());
        assert_eq!(tx.job().map(|job| job.words.len()), Some(4));
        tx.answer(reply(1));
        assert!(tx.job().is_none(), "an answered half has let go of the job");
        assert_eq!(rx.wait(), Ok(reply(1)));
    }

    #[test]
    fn wait_before_send() {
        let (mut tx, rx) = slot(job());
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.answer(reply(2));
        });
        assert_eq!(rx.wait(), Ok(reply(2)));
        sender.join().unwrap();
    }

    #[test]
    fn only_the_first_answer_lands() {
        let (mut tx, rx) = slot(job());
        tx.fail(ServeError::DeadlineExceeded);
        tx.answer(reply(3));
        drop(tx);
        assert_eq!(rx.wait(), Err(ServeError::DeadlineExceeded));
    }

    #[test]
    fn the_job_outlives_the_worker_until_the_client_collects() {
        // The worker thread answers and exits; the job stays in the slot
        // and its rows are released only when the client collects.
        let rows = Arc::new(vec![vec![1.0f32; 4]; 2]);
        let (mut tx, rx) = slot(window(&rows));
        thread::spawn(move || tx.answer(reply(4))).join().unwrap();
        assert_eq!(Arc::strong_count(&rows), 2, "the slot holds the job");
        assert_eq!(rx.wait(), Ok(reply(4)));
        assert_eq!(Arc::strong_count(&rows), 1, "wait let go of the rows");
    }

    #[test]
    fn collecting_a_window_releases_its_rows() {
        let rows = Arc::new(vec![vec![1.0f32; 4]; 3]);
        // By wait, answered from another thread while the client parks.
        let (mut tx, rx) = slot(window(&rows));
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.answer(reply(5));
        });
        assert_eq!(rx.wait(), Ok(reply(5)));
        sender.join().unwrap();
        assert_eq!(Arc::strong_count(&rows), 1, "wait released the rows");
        // By poll, then dropping the ticket.
        let (mut tx, rx) = slot(window(&rows));
        assert_eq!(Arc::strong_count(&rows), 2);
        tx.answer(reply(6));
        assert_eq!(rx.poll(), Some(Ok(reply(6))));
        drop(rx);
        assert_eq!(Arc::strong_count(&rows), 1, "the drop released the rows");
    }

    #[test]
    fn a_reused_slot_starts_empty() {
        // First request: the client parks, the worker wakes it.
        let (mut tx, rx) = slot(job());
        let first = address(&rx);
        let sender = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.answer(reply(7));
        });
        assert_eq!(rx.wait(), Ok(reply(7)));
        sender.join().unwrap();
        assert_eq!(spare_address(), Some(first), "the collected slot is kept");
        // Second request on the same thread reuses it, answer held back.
        let (mut tx, rx) = slot(single(spare_words()));
        assert_eq!(address(&rx), first, "the spare is reused");
        assert_eq!(spare_address(), None, "the spare is taken");
        assert_eq!(tx.job().map(|job| job.words.len()), Some(4));
        {
            let state = rx.slot.as_ref().expect("held").lock();
            assert!(state.answer.is_none(), "no earlier answer survives");
            assert!(state.parked.is_none(), "no earlier parked handle survives");
        }
        assert_eq!(rx.poll(), None);
        tx.answer(reply(8));
        assert_eq!(rx.poll(), Some(Ok(reply(8))));
    }

    #[test]
    fn a_held_or_abandoned_slot_is_never_reused() {
        // Collect one answer so the thread has a spare to reuse.
        let (mut tx, rx) = slot(job());
        tx.answer(reply(1));
        assert_eq!(rx.wait(), Ok(reply(1)));
        let spare = spare_address();
        assert!(spare.is_some());
        // The worker still holds this slot: dropping the ticket does not
        // keep it as the spare.
        let (mut tx, rx) = slot(job());
        let held = address(&rx);
        assert_eq!(Some(held), spare);
        drop(rx);
        assert_eq!(spare_address(), None, "a held slot is not kept");
        // A request submitted meanwhile gets a new slot.
        let (mut other, rx) = slot(job());
        assert_ne!(address(&rx), held);
        // The worker answers the abandoned slot and frees it; it never
        // comes back.
        tx.answer(reply(2));
        drop(tx);
        assert_eq!(spare_address(), None);
        other.answer(reply(3));
        let collected = address(&rx);
        assert_eq!(rx.wait(), Ok(reply(3)));
        assert_eq!(spare_address(), Some(collected));
        // A ticket dropped before its answer is not kept either, and the
        // worker's half still reads the job until it answers.
        let (tx, rx) = slot(job());
        let abandoned = address(&rx);
        drop(rx);
        assert!(tx.job().is_some());
        let (_tx, rx) = slot(job());
        assert_ne!(address(&rx), abandoned);
        drop(tx);
    }

    #[test]
    fn one_thread_alternates_models_of_two_widths() {
        // The spare's word buffer is resized for each model's width, so
        // every answer matches its own model bit for bit.
        let serve = |dims: &[usize], seed: u64| {
            let net = demo_network(dims, seed);
            let mut registry = ModelRegistry::new();
            registry.insert(ServeTask::Ecg, net.clone(), EngineConfig::test_chip(seed));
            let config = ServeConfig {
                workers: 1,
                backend: Backend::Software,
                batch: BatchPolicy {
                    max_batch: 8,
                    max_delay: Duration::from_micros(50),
                },
                admission: AdmissionPolicy::Block,
                ..ServeConfig::default()
            };
            (Server::start(&registry, &config), net)
        };
        let (narrow, narrow_net) = serve(&[408, 75, 2], 3);
        let (wide, wide_net) = serve(&[2520, 32, 2], 4);
        let clients = [
            (narrow.handle().client(ServeTask::Ecg).unwrap(), &narrow_net),
            (wide.handle().client(ServeTask::Ecg).unwrap(), &wide_net),
        ];
        let mut rng = StdRng::seed_from_u64(29);
        for round in 0..40 {
            let (client, net) = &clients[round % 2];
            let row: Vec<f32> = (0..net.in_features())
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let oracle = net.logits(&row);
            let served = client.enqueue(row).and_then(crate::Pending::wait).unwrap();
            assert_eq!(served.logits.len(), oracle.len());
            assert!(
                served
                    .logits
                    .iter()
                    .zip(&oracle)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "round {round}: served logits differ from the model's own"
            );
        }
        narrow.shutdown();
        wide.shutdown();
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
        let (tx, rx) = slot(job());
        assert_eq!(rx.poll(), None);
        drop(tx);
        assert_eq!(rx.poll(), Some(Err(ServeError::ShuttingDown)));
        // A parked client is woken by the drop, not left hanging.
        let (tx, rx) = slot(job());
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
        let (mut tx, rx) = slot(job());
        assert_eq!(rx.poll(), None);
        let sender = thread::spawn(move || tx.answer(reply(3)));
        assert_eq!(rx.wait(), Ok(reply(3)));
        sender.join().unwrap();
        // Taken by poll: the slot then reads as disconnected, so neither a
        // second poll nor a wait can hang.
        let (mut tx, rx) = slot(job());
        tx.answer(reply(4));
        assert_eq!(rx.poll(), Some(Ok(reply(4))));
        assert_eq!(rx.poll(), Some(Err(ServeError::ShuttingDown)));
        assert_eq!(rx.wait(), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn answer_outlives_a_dropped_client() {
        let (mut tx, rx) = slot(job());
        drop(rx);
        tx.answer(reply(5));
    }
}
