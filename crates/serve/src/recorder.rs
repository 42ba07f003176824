//! Request ids and the flight recorder: a fixed-capacity ring of
//! completed request records, always on.
//!
//! A request id is the FNV-1a hash of `(connection id, per-connection
//! sequence)` — cheap, collision-resistant at serving scale, and
//! stable enough to grep for across the access log, the flight
//! recorder, and exported trace span `request` args. Ids are never
//! zero (`0` is `irf-trace`'s "no request" sentinel), and render as 16
//! lowercase hex digits everywhere a human sees them.
//!
//! Every finished HTTP request lands one `RequestRecord` in the
//! recorder — timings, per-request stage-cache and
//! solver counts — and requests slower than the server's slow-request
//! threshold additionally snapshot their span forest. The server dumps
//! the ring via `GET /v1/debug/requests` (most recent first) and
//! `GET /v1/debug/requests/{id}`, so the last N requests are
//! inspectable after the fact without any log scraping.
//!
//! Capacity is fixed at construction: slot assignment is one
//! `fetch_add`, each slot holds an `Arc<RequestRecord>` behind its own
//! (uncontended) mutex, and record N+capacity overwrites record N —
//! memory is bounded no matter the traffic.

use irf_trace::request::RequestStats;
use irf_trace::{AttrValue, SpanTree, Trace};
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Parses exactly 16 ASCII hex digits — the form of every id the API
/// hands out (request ids, design fingerprints). Signs, whitespace and
/// other lengths are refused.
#[must_use]
pub(crate) fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u64::from_str_radix(s, 16).ok()
}

/// A minted request id. Never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RequestId(u64);

impl RequestId {
    /// Mints the id for request `seq` on connection `conn`.
    #[must_use]
    pub fn mint(conn: u64, seq: u64) -> RequestId {
        let mut h = FNV_OFFSET;
        for b in conn.to_le_bytes().into_iter().chain(seq.to_le_bytes()) {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        // 0 means "no request" to irf-trace; remap the (astronomically
        // unlikely) zero hash instead of ever emitting it.
        RequestId(if h == 0 { FNV_OFFSET } else { h })
    }

    /// The raw id, as threaded through `irf_trace::request::scope`.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Parses the 16-hex-digit form produced by `Display` (what
    /// clients read back from `X-Irf-Request-Id`).
    #[must_use]
    pub fn parse(s: &str) -> Option<RequestId> {
        parse_hex16(s).filter(|&v| v != 0).map(RequestId)
    }
}

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Per-connection id source: each accepted connection constructs one
/// and mints an id per request it carries.
#[derive(Debug)]
pub(crate) struct RequestIdMinter {
    conn: u64,
    seq: u64,
}

impl RequestIdMinter {
    /// A minter for connection `conn` (the server's accept counter).
    #[must_use]
    pub fn new(conn: u64) -> RequestIdMinter {
        RequestIdMinter { conn, seq: 0 }
    }

    /// Mints the next request id on this connection.
    pub fn mint(&mut self) -> RequestId {
        let id = RequestId::mint(self.conn, self.seq);
        self.seq += 1;
        id
    }
}

/// One completed request, as retained by the recorder.
#[derive(Debug, Clone)]
pub(crate) struct RequestRecord {
    /// The minted request id (see [`RequestId`]).
    pub id: u64,
    /// Completion sequence number (process-wide, assigned by
    /// [`FlightRecorder::record`]; newer is larger).
    pub seq: u64,
    /// Endpoint label (the `/v1/metrics` route label: `predict`,
    /// `whatif`, ...).
    pub endpoint: &'static str,
    /// HTTP status returned.
    pub status: u16,
    /// Wall-clock start, milliseconds since the Unix epoch.
    pub start_unix_ms: u64,
    /// End-to-end handling time in seconds.
    pub duration_seconds: f64,
    /// Per-request stage-cache and solver counts accumulated while the
    /// request was being served.
    pub stats: RequestStats,
    /// The endpoint's declared latency objective in seconds.
    pub slo_objective_seconds: f64,
    /// `true` when `duration_seconds` exceeded the objective.
    pub slo_breached: bool,
    /// The request's span forest, snapshotted only for slow requests
    /// (the ring stays small for healthy traffic).
    pub spans: Option<Vec<SpanTree>>,
    /// The panic message of a request that answered 500 `internal`.
    pub panic: Option<String>,
}

/// The span forest of the events tagged with `request` in `trace` —
/// what a slow request's record keeps.
#[must_use]
pub(crate) fn span_tree(trace: &Trace, request: u64) -> Vec<SpanTree> {
    irf_trace::span_forest(trace, |e| e.request == request)
}

/// A span attribute as the debug endpoint shows it: plain text.
#[must_use]
pub(crate) fn render_attr(value: &AttrValue) -> String {
    match value {
        AttrValue::U64(v) => v.to_string(),
        AttrValue::F64(v) => v.to_string(),
        AttrValue::Bool(v) => v.to_string(),
        AttrValue::Str(s) => s.clone(),
        AttrValue::F64List(values) => {
            let mut out = String::from("[");
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
            out
        }
    }
}

/// The fixed-capacity ring of completed requests.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    slots: Vec<Mutex<Option<Arc<RequestRecord>>>>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` requests
    /// (`capacity >= 1` enforced).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicU64::new(0),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `record` (stamping its completion sequence), evicting
    /// the oldest entry once full.
    pub fn record(&self, mut record: RequestRecord) -> Arc<RequestRecord> {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        record.seq = seq;
        let record = Arc::new(record);
        let slot = (seq % self.slots.len() as u64) as usize;
        *self.slots[slot].lock().expect("recorder slot poisoned") = Some(record.clone());
        record
    }

    /// Every retained record, most recent first.
    #[must_use]
    pub fn recent(&self) -> Vec<Arc<RequestRecord>> {
        let mut records: Vec<Arc<RequestRecord>> = self
            .slots
            .iter()
            .filter_map(|slot| slot.lock().expect("recorder slot poisoned").clone())
            .collect();
        records.sort_by_key(|r| std::cmp::Reverse(r.seq));
        records
    }

    /// The most recent retained record for request `id`, if still in
    /// the ring.
    #[must_use]
    pub fn find(&self, id: u64) -> Option<Arc<RequestRecord>> {
        self.recent().into_iter().find(|r| r.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use irf_trace::Event;

    #[test]
    fn ids_are_distinct_across_conn_and_seq() {
        let mut seen = std::collections::HashSet::new();
        for conn in 0..64 {
            let mut minter = RequestIdMinter::new(conn);
            for _ in 0..64 {
                assert!(seen.insert(minter.mint().as_u64()));
            }
        }
        assert_eq!(seen.len(), 64 * 64);
        assert!(!seen.contains(&0));
    }

    #[test]
    fn display_parse_round_trip() {
        let id = RequestId::mint(7, 3);
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
        assert_eq!(RequestId::parse(&s), Some(id));
        assert_eq!(RequestId::parse("xyz"), None);
        assert_eq!(RequestId::parse("0000000000000000"), None);
        assert_eq!(RequestId::parse(""), None);
        // `from_str_radix` alone takes a sign: 15 digits behind a `+`
        // are 16 bytes, and must not resolve to 000000000000abcd.
        assert_eq!(RequestId::parse("+00000000000abcd"), None);
        assert_eq!(RequestId::parse("-00000000000abcd"), None);
        assert_eq!(parse_hex16("+00000000000abcd"), None);
        assert_eq!(parse_hex16(" 0000000000000ab"), None);
        assert_eq!(parse_hex16("000000000000ABCD"), Some(0xabcd));
        assert_eq!(parse_hex16("0000000000000000"), Some(0));
    }

    #[test]
    fn minting_is_deterministic() {
        assert_eq!(RequestId::mint(5, 9), RequestId::mint(5, 9));
        assert_ne!(RequestId::mint(5, 9), RequestId::mint(9, 5));
    }

    fn record(id: u64) -> RequestRecord {
        RequestRecord {
            id,
            seq: 0,
            endpoint: "predict",
            status: 200,
            start_unix_ms: 0,
            duration_seconds: 0.01,
            stats: RequestStats::default(),
            slo_objective_seconds: 0.5,
            slo_breached: false,
            spans: None,
            panic: None,
        }
    }

    #[test]
    fn ring_retains_most_recent_within_capacity() {
        let recorder = FlightRecorder::new(4);
        for id in 1..=10u64 {
            recorder.record(record(id));
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 4);
        let ids: Vec<u64> = recent.iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![10, 9, 8, 7]);
        assert!(recorder.find(10).is_some());
        assert!(recorder.find(6).is_none(), "evicted");
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let recorder = FlightRecorder::new(0);
        assert_eq!(recorder.capacity(), 1);
        recorder.record(record(1));
        recorder.record(record(2));
        assert_eq!(recorder.recent().len(), 1);
        assert_eq!(recorder.recent()[0].id, 2);
    }

    #[test]
    fn concurrent_records_stay_within_capacity() {
        let recorder = Arc::new(FlightRecorder::new(8));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let recorder = recorder.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    recorder.record(record(t * 1000 + i));
                }
            }));
        }
        for h in handles {
            h.join().expect("recorder thread");
        }
        let recent = recorder.recent();
        assert_eq!(recent.len(), 8);
        // Sequences are unique and the retained ones are the last 8.
        let seqs: Vec<u64> = recent.iter().map(|r| r.seq).collect();
        assert!(seqs.windows(2).all(|w| w[0] > w[1]));
        assert_eq!(seqs[0], 399);
        assert_eq!(seqs[7], 392);
    }

    fn event(
        name: &'static str,
        tid: u64,
        depth: u32,
        start_ns: u64,
        dur_ns: u64,
        request: u64,
    ) -> Event {
        Event {
            name,
            tid,
            depth,
            start_ns,
            dur_ns,
            request,
            args: Vec::new(),
        }
    }

    #[test]
    fn span_tree_filters_and_nests() {
        let trace = Trace {
            events: vec![
                event("other_request", 0, 0, 0, 50, 99),
                event("whatif", 0, 0, 10, 1_000, 7),
                event("prepare", 0, 1, 20, 400, 7),
                event("stage_cache", 0, 2, 30, 100, 7),
                event("solve", 0, 1, 500, 300, 7),
                // Same request on a second (pool) thread.
                event("forward", 1, 0, 600, 200, 7),
                // Untagged background noise.
                event("untagged", 2, 0, 0, 10, 0),
            ],
            thread_labels: Vec::new(),
        };
        let roots = span_tree(&trace, 7);
        assert_eq!(roots.len(), 2);
        assert_eq!(roots[0].event.name, "whatif");
        assert_eq!(roots[0].children.len(), 2);
        assert_eq!(roots[0].children[0].event.name, "prepare");
        assert_eq!(roots[0].children[0].children[0].event.name, "stage_cache");
        assert_eq!(roots[0].children[1].event.name, "solve");
        assert_eq!(roots[1].event.name, "forward");
        assert_eq!(roots[1].event.tid, 1);
    }

    #[test]
    fn span_tree_handles_sibling_spans_at_equal_depth() {
        let trace = Trace {
            events: vec![
                event("root", 0, 0, 0, 1_000, 1),
                event("a", 0, 1, 10, 100, 1),
                event("b", 0, 1, 200, 100, 1),
                event("b_child", 0, 2, 210, 50, 1),
            ],
            thread_labels: Vec::new(),
        };
        let roots = span_tree(&trace, 1);
        assert_eq!(roots.len(), 1);
        let root = &roots[0];
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].event.name, "a");
        assert!(root.children[0].children.is_empty());
        assert_eq!(root.children[1].children[0].event.name, "b_child");
    }

    #[test]
    fn span_tree_renders_attrs() {
        let mut e = event("pcg_solve", 0, 0, 0, 100, 3);
        e.args = vec![
            ("iterations", AttrValue::U64(2)),
            ("history", AttrValue::F64List(vec![1.0, 0.25])),
        ];
        let trace = Trace {
            events: vec![e],
            thread_labels: Vec::new(),
        };
        let roots = span_tree(&trace, 3);
        let args: Vec<_> = roots[0]
            .event
            .args
            .iter()
            .map(|(k, v)| (*k, render_attr(v)))
            .collect();
        assert_eq!(args[0], ("iterations", "2".to_string()));
        assert_eq!(args[1], ("history", "[1,0.25]".to_string()));
    }
}
