//! Scoped spans, the per-thread event buffers behind them, and the
//! process-wide [`Collector`].
//!
//! # Cost model
//!
//! With no collector installed, [`span`] performs one relaxed atomic
//! load and returns an inert guard whose `Drop` is a branch — the
//! instrumentation stays in release hot paths. With a collector
//! active, events are pushed onto a plain thread-local `Vec` (no lock,
//! no allocation after warm-up) and handed to the shared sink only
//! when the thread's span stack unwinds to depth zero, so worker
//! threads that never exit still deliver everything they recorded.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// A value attached to a span with [`Span::attr`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Unsigned integer.
    U64(u64),
    /// Double-precision float.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// Free-form text.
    Str(String),
    /// A list of floats — e.g. a PCG residual history or per-level
    /// nnz counts.
    F64List(Vec<f64>),
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}

impl From<f64> for AttrValue {
    fn from(v: f64) -> Self {
        AttrValue::F64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> Self {
        AttrValue::Str(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> Self {
        AttrValue::Str(v.to_string())
    }
}

impl From<Vec<f64>> for AttrValue {
    fn from(v: Vec<f64>) -> Self {
        AttrValue::F64List(v)
    }
}

impl From<&[f64]> for AttrValue {
    fn from(v: &[f64]) -> Self {
        AttrValue::F64List(v.to_vec())
    }
}

/// One completed span, as delivered to a [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Span name (a static string by design, so recording never
    /// allocates for the name).
    pub name: &'static str,
    /// Small sequential id of the recording thread (0 = first thread
    /// that ever recorded).
    pub tid: u64,
    /// Nesting depth of the span on its thread (0 = top level).
    pub depth: u32,
    /// Nanoseconds from collector installation to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
    /// Id of the request active on the recording thread when the span
    /// opened (see [`crate::request`]); `0` when none.
    pub request: u64,
    /// Attributes attached with [`Span::attr`].
    pub args: Vec<(&'static str, AttrValue)>,
}

/// `true` while a collector is installed; the only state the disabled
/// fast path touches.
static ACTIVE: AtomicBool = AtomicBool::new(false);
/// Collector generation; buffered events from an older epoch are
/// discarded rather than leaking into the next trace.
static EPOCH: AtomicU64 = AtomicU64::new(0);
/// Source of the small sequential thread ids.
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Process-wide monotonic time base of every span. Set once, on first
/// use, so offsets from it are comparable across threads and
/// collectors.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Nanoseconds since the process anchor (saturating at `u64::MAX`).
fn now_ns() -> u64 {
    u64::try_from(anchor().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

struct Sink {
    events: Vec<Event>,
    /// `(tid, label)` pairs reported by threads that flushed.
    thread_labels: Vec<(u64, String)>,
}

fn sink() -> &'static Mutex<Sink> {
    static SINK: OnceLock<Mutex<Sink>> = OnceLock::new();
    SINK.get_or_init(|| {
        Mutex::new(Sink {
            events: Vec::new(),
            thread_labels: Vec::new(),
        })
    })
}

struct ThreadState {
    tid: u64,
    label: Option<String>,
    /// Epoch the buffered events belong to.
    epoch: u64,
    /// Whether `label` was already delivered for `epoch`.
    label_reported: bool,
    depth: u32,
    buf: Vec<Event>,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            label: None,
            epoch: 0,
            label_reported: false,
            depth: 0,
            buf: Vec::new(),
        }
    }

    /// Drops state belonging to a previous collector generation.
    fn sync_epoch(&mut self) {
        let current = EPOCH.load(Ordering::Relaxed);
        if self.epoch != current {
            self.buf.clear();
            self.depth = 0;
            self.epoch = current;
            self.label_reported = false;
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let mut sink = sink().lock().expect("trace sink poisoned");
        sink.events.append(&mut self.buf);
        if !self.label_reported {
            if let Some(label) = &self.label {
                sink.thread_labels.push((self.tid, label.clone()));
            }
            self.label_reported = true;
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::new());
}

/// Names the calling thread in exported traces (e.g. the runtime pool
/// labels its workers `irf-runtime-N`). Idempotent; the latest label
/// wins.
pub fn set_thread_label(label: &str) {
    TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.label = Some(label.to_string());
        t.label_reported = false;
    });
}

/// A scoped span: records one [`Event`] covering its lifetime when a
/// [`Collector`] is installed, and costs one atomic load otherwise.
///
/// Bind it to a variable (`let _span = span("x");`) — an unnamed `_`
/// binding drops immediately and records an empty interval.
#[must_use = "a span measures its guard's lifetime; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    /// `u64::MAX` marks an inert span (no collector at creation).
    start_ns: u64,
    depth: u32,
    request: u64,
    args: Vec<(&'static str, AttrValue)>,
}

/// Opens a span named `name`. The span closes (and records its event)
/// when the returned guard drops.
pub fn span(name: &'static str) -> Span {
    if !ACTIVE.load(Ordering::Relaxed) {
        return Span {
            name,
            start_ns: u64::MAX,
            depth: 0,
            request: 0,
            args: Vec::new(),
        };
    }
    let depth = TLS.with(|t| {
        let mut t = t.borrow_mut();
        t.sync_epoch();
        let depth = t.depth;
        t.depth += 1;
        depth
    });
    Span {
        name,
        start_ns: now_ns(),
        depth,
        request: crate::request::current(),
        args: Vec::new(),
    }
}

impl Span {
    /// Attaches an attribute (a no-op on inert spans, so attribute
    /// construction cost is only paid while tracing).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) {
        if self.start_ns != u64::MAX {
            self.args.push((key, value.into()));
        }
    }

    /// `true` when a collector was active at span creation — use to
    /// skip building expensive attribute values while not tracing.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.start_ns != u64::MAX
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if self.start_ns == u64::MAX {
            return;
        }
        let end_ns = now_ns();
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let current = EPOCH.load(Ordering::Relaxed);
            if t.epoch != current {
                // The collector changed under this span; its event
                // belongs to a dead trace.
                t.sync_epoch();
                return;
            }
            t.depth = t.depth.saturating_sub(1);
            let event = Event {
                name: self.name,
                tid: t.tid,
                depth: self.depth,
                start_ns: self.start_ns,
                dur_ns: end_ns.saturating_sub(self.start_ns),
                request: self.request,
                args: std::mem::take(&mut self.args),
            };
            t.buf.push(event);
            if t.depth == 0 {
                t.flush();
            }
        });
    }
}

/// The process-wide trace collector. At most one is active at a time:
/// [`Collector::install`] returns `None` while another is running, so
/// concurrent would-be tracers degrade to not tracing instead of
/// corrupting each other's streams.
#[derive(Debug)]
pub struct Collector {
    epoch: u64,
    start_ns: u64,
}

impl Collector {
    /// Starts collecting; `None` if a collector is already installed.
    pub fn install() -> Option<Collector> {
        if ACTIVE.swap(true, Ordering::SeqCst) {
            return None;
        }
        let epoch = EPOCH.fetch_add(1, Ordering::SeqCst) + 1;
        {
            let mut sink = sink().lock().expect("trace sink poisoned");
            sink.events.clear();
            sink.thread_labels.clear();
        }
        Some(Collector {
            epoch,
            start_ns: now_ns(),
        })
    }

    /// Stops collecting and returns everything recorded. Spans still
    /// open on other threads when this is called are dropped from the
    /// trace (they have not completed, so they have no duration yet).
    #[must_use]
    pub fn finish(self) -> Trace {
        ACTIVE.store(false, Ordering::SeqCst);
        // The calling thread may hold buffered events below an open
        // outer scope; deliver them.
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.epoch == self.epoch {
                t.flush();
            }
        });
        let (mut events, thread_labels) = {
            let mut sink = sink().lock().expect("trace sink poisoned");
            (
                std::mem::take(&mut sink.events),
                std::mem::take(&mut sink.thread_labels),
            )
        };
        // Rebase onto the collector's installation instant and order
        // deterministically: by start time, then thread, then depth
        // (parents before children at equal starts).
        events.retain(|e| e.start_ns >= self.start_ns);
        for e in &mut events {
            e.start_ns -= self.start_ns;
        }
        events.sort_by(|a, b| {
            (a.start_ns, a.tid, a.depth, a.name).cmp(&(b.start_ns, b.tid, b.depth, b.name))
        });
        Trace {
            events,
            thread_labels,
        }
    }
}

/// A finished recording: every completed span between
/// [`Collector::install`] and [`Collector::finish`], ordered by start
/// time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Completed spans, ordered by `(start_ns, tid, depth)`.
    pub events: Vec<Event>,
    /// `(tid, label)` pairs for threads named via
    /// [`set_thread_label`].
    pub thread_labels: Vec<(u64, String)>,
}

impl Trace {
    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Chrome trace-event JSON (see [`crate::chrome`]).
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        crate::chrome::to_chrome_json(self)
    }

    /// Human-readable self-profile tree (see [`crate::profile`]).
    #[must_use]
    pub fn profile_tree(&self) -> String {
        crate::profile::profile_tree(self)
    }
}

/// Serializes tests that install the global collector.
#[cfg(test)]
pub(crate) static COLLECTOR_GUARD: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_are_inert_without_a_collector() {
        let _guard = COLLECTOR_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        {
            let mut s = span("ignored");
            s.attr("k", 1u64);
            assert!(!s.is_recording());
        }
        let collector = Collector::install().expect("no collector active");
        let trace = collector.finish();
        assert!(trace.is_empty(), "inert spans must not record");
    }

    #[test]
    fn nested_spans_record_depth_and_order() {
        let _guard = COLLECTOR_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Collector::install().expect("no collector active");
        {
            let _outer = span("outer");
            {
                let mut inner = span("inner");
                inner.attr("answer", 42u64);
            }
        }
        let trace = collector.finish();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].name, "outer");
        assert_eq!(trace.events[0].depth, 0);
        assert_eq!(trace.events[1].name, "inner");
        assert_eq!(trace.events[1].depth, 1);
        assert!(trace.events[0].dur_ns >= trace.events[1].dur_ns);
        assert_eq!(trace.events[1].args, vec![("answer", AttrValue::U64(42))]);
    }

    #[test]
    fn second_collector_install_is_refused() {
        let _guard = COLLECTOR_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let first = Collector::install().expect("no collector active");
        assert!(Collector::install().is_none());
        let _ = first.finish();
        let again = Collector::install().expect("freed");
        let _ = again.finish();
    }

    #[test]
    fn other_threads_flush_into_the_same_trace() {
        let _guard = COLLECTOR_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let collector = Collector::install().expect("no collector active");
        std::thread::spawn(|| {
            set_thread_label("helper");
            let _s = span("on_helper");
        })
        .join()
        .expect("helper thread");
        {
            let _s = span("on_main");
        }
        let trace = collector.finish();
        let names: Vec<_> = trace.events.iter().map(|e| e.name).collect();
        assert!(names.contains(&"on_helper"), "{names:?}");
        assert!(names.contains(&"on_main"), "{names:?}");
        assert!(trace
            .thread_labels
            .iter()
            .any(|(_, label)| label == "helper"));
        let helper = trace.events.iter().find(|e| e.name == "on_helper");
        let main = trace.events.iter().find(|e| e.name == "on_main");
        assert_ne!(helper.map(|e| e.tid), main.map(|e| e.tid));
    }

    #[test]
    fn stale_events_do_not_leak_across_collectors() {
        let _guard = COLLECTOR_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let first = Collector::install().expect("no collector active");
        let open = span("spans_across_finish");
        let trace1 = first.finish();
        assert!(trace1.is_empty());
        drop(open); // completes after finish: discarded
        let second = Collector::install().expect("freed");
        {
            let _s = span("fresh");
        }
        let trace2 = second.finish();
        let names: Vec<_> = trace2.events.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["fresh"]);
    }
}
