//! In-memory spans for the traced run (`--trace 1`).
//!
//! Spans are recorded by the benchmark's own code around each call into a
//! layer of the program (see [`crate::adapter`]); nothing inside the
//! program is instrumented. Every span closes into a per-name aggregate
//! (count, total time, self time, and the gap since the previous sibling
//! span of the same name), so the per-layer numbers are exact however many
//! spans a run produces. The first [`KEPT_SPANS`] raw spans are also kept
//! and written out with the aggregates when the run ends.
//!
//! A layer's self time is its span's duration minus the time its child
//! spans cover. All benchmark-side calls run on one load thread, so the
//! recorder is thread-local.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Raw spans kept for the trace file; aggregates cover every span.
pub const KEPT_SPANS: usize = 50_000;

static ON: AtomicBool = AtomicBool::new(false);

/// One closed span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (open order).
    pub id: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `serve.submit`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Everything recorded under one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans closed.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus time covered by child spans.
    pub self_ns: u64,
    /// Summed time between the end of one span and the start of the next
    /// span of the same name under the same parent.
    pub gap_ns: u64,
    /// Gaps summed into `gap_ns`.
    pub gaps: u64,
}

struct Open {
    id: u64,
    name: &'static str,
    start_ns: u64,
    child_ns: u64,
}

/// One span name's aggregate, plus the parent and end of its latest span
/// (for the sibling gap).
struct Slot {
    name: &'static str,
    agg: Aggregate,
    last: Option<(Option<u64>, u64)>,
}

#[derive(Default)]
struct Recorder {
    next_id: u64,
    stack: Vec<Open>,
    kept: Vec<Span>,
    slots: Vec<Slot>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turns span recording on or off.
pub fn set_enabled(on: bool) {
    // Relaxed: a standalone switch flipped between phases on the load
    // thread itself; it publishes no other data.
    ON.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` with recording off, restoring the previous state after.
pub fn untraced<T>(f: impl FnOnce() -> T) -> T {
    let was = enabled();
    set_enabled(false);
    let out = f();
    set_enabled(was);
    out
}

/// Runs `f` inside a span named `name` when recording is on; otherwise
/// just runs `f`.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let id = r.next_id;
        r.next_id += 1;
        r.stack.push(Open {
            id,
            name,
            start_ns: now_ns(),
            child_ns: 0,
        });
    });
    let out = f();
    let end_ns = now_ns();
    RECORDER.with(|r| r.borrow_mut().close(end_ns));
    out
}

impl Recorder {
    fn close(&mut self, end_ns: u64) {
        let open = self.stack.pop().expect("span closed without being opened");
        let total = end_ns.saturating_sub(open.start_ns);
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += total;
            p.id
        });
        let i = match self.slots.iter().position(|s| s.name == open.name) {
            Some(i) => i,
            None => {
                self.slots.push(Slot {
                    name: open.name,
                    agg: Aggregate::default(),
                    last: None,
                });
                self.slots.len() - 1
            }
        };
        let Slot { agg, last, .. } = &mut self.slots[i];
        agg.count += 1;
        agg.total_ns += total;
        agg.self_ns += total.saturating_sub(open.child_ns);
        if let Some((last_parent, last_end)) = *last {
            if last_parent == parent {
                agg.gap_ns += open.start_ns.saturating_sub(last_end);
                agg.gaps += 1;
            }
        }
        *last = Some((parent, end_ns));
        if self.kept.len() < KEPT_SPANS {
            self.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
            });
        }
    }
}

/// The aggregate recorded under `name` so far on this thread.
pub fn aggregate(name: &str) -> Aggregate {
    RECORDER.with(|r| {
        r.borrow()
            .slots
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.agg)
            .unwrap_or_default()
    })
}

/// Renders every aggregate and the kept raw spans as one JSON document,
/// headed by `stamp` (itself a JSON object).
pub fn to_json(stamp: &str) -> String {
    RECORDER.with(|r| {
        let r = r.borrow();
        let mut out = format!("{{\"stamp\":{stamp},\"layers\":[");
        for (i, Slot { name, agg: a, .. }) in r.slots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"gap_ns\":{},\"gaps\":{}}}",
                a.count, a.total_ns, a.self_ns, a.gap_ns, a.gaps
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in r.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("]}");
        out
    })
}

/// Self time per layer: the aggregates summed by the name's first
/// dot-separated component (`serve.submit` → `serve`), sorted by name.
pub fn self_time_by_layer() -> Vec<(String, u64)> {
    RECORDER.with(|r| {
        let mut layers: Vec<(String, u64)> = Vec::new();
        for slot in &r.borrow().slots {
            let layer = slot.name.split('.').next().unwrap_or(slot.name).to_string();
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, ns)) => *ns += slot.agg.self_ns,
                None => layers.push((layer, slot.agg.self_ns)),
            }
        }
        layers.sort();
        layers
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_gaps_stay_within_a_parent() {
        set_enabled(true);
        span("t.outer", || {
            for _ in 0..3 {
                span("t.inner", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            }
        });
        span("t.outer", || span("t.inner", || ()));
        set_enabled(false);
        let outer = aggregate("t.outer");
        let inner = aggregate("t.inner");
        assert_eq!((outer.count, inner.count), (2, 4));
        assert!(inner.total_ns >= 6_000_000);
        assert_eq!(inner.self_ns, inner.total_ns);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        // Two gaps inside the first outer span; none across the two.
        assert_eq!(inner.gaps, 2);
        // Disabled: nothing more is recorded.
        span("t.outer", || ());
        assert_eq!(aggregate("t.outer").count, 2);
    }
}
