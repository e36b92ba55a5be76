//! Causal spans for traced serve requests.
//!
//! When the load generator samples a request it stamps an op-ID onto
//! the wire frame; every hop that sees the ID (the client itself, the
//! coordinating node, each forward target) records one [`SpanEvent`]
//! into a shared [`SpanLog`]. Grouping the log by `op_id` reconstructs
//! the causal chain client → coordinator → forward target with
//! server-side phase timings at each hop.
//!
//! The log is a bounded mutex-guarded ring like
//! [`TraceRecorder`](crate::TraceRecorder): observation-only, safe to
//! share across listener threads, and drained as pinned-schema JSONL.

use std::collections::VecDeque;
use std::sync::Mutex;

/// One hop of a sampled request.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// The sampled request's identifier, carried on the wire.
    pub op_id: u64,
    /// Where in the chain this hop sits: `"client"`, `"coordinate"`
    /// (the node that owns the keyed partition and fans out), or
    /// `"forward"` (a replica serving a forwarded request).
    pub role: &'static str,
    /// Server id of the recording node; `-1` for the client.
    pub node: i64,
    /// Datacenter of the recording node (or of the client's DC).
    pub dc: u32,
    /// Request kind at this hop: `"get"`, `"put"`, `"fwd_get"` or
    /// `"fwd_put"`.
    pub kind: &'static str,
    /// Microseconds spent waiting on the partition lock (zero at the
    /// client, which has no lock).
    pub queue_us: f64,
    /// Microseconds of local work: total hop time minus queue and
    /// forward phases. At the client this is the full round-trip.
    pub handle_us: f64,
    /// Microseconds with at least one peer round-trip outstanding
    /// (forwards issued by a coordinator; zero elsewhere). A put's
    /// parallel forwards overlap, so this is wall time, not the sum of
    /// their round-trips.
    pub forward_us: f64,
    /// Ack status observed at this hop: `"ok"`, `"not_found"` or
    /// `"unavailable"`.
    pub status: &'static str,
}

impl SpanEvent {
    /// The pinned JSONL schema: fixed key order, one object per line.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"op_id\":{},\"role\":\"{}\",\"node\":{},\"dc\":{},\"kind\":\"{}\",\
             \"queue_us\":{:.1},\"handle_us\":{:.1},\"forward_us\":{:.1},\"status\":\"{}\"}}",
            self.op_id,
            self.role,
            self.node,
            self.dc,
            self.kind,
            self.queue_us,
            self.handle_us,
            self.forward_us,
            self.status,
        )
    }
}

#[derive(Debug, Default)]
struct SpanState {
    ring: VecDeque<SpanEvent>,
    dropped: u64,
    total: u64,
}

/// Bounded, thread-shared ring of [`SpanEvent`]s.
///
/// One log serves a whole cluster: listener threads and the load
/// generator all push into it, and the order within one `op_id` follows
/// causality on a loopback cluster because each hop records after its
/// downstream hops acked.
#[derive(Debug)]
pub struct SpanLog {
    capacity: usize,
    state: Mutex<SpanState>,
}

/// Default span capacity — plenty for smoke runs at 1-in-N sampling.
const DEFAULT_CAPACITY: usize = 1 << 14;

impl SpanLog {
    /// A log with the default capacity (16 384 spans).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A log retaining at most `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        SpanLog { capacity: capacity.max(1), state: Mutex::new(SpanState::default()) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SpanState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one span.
    pub fn record(&self, event: SpanEvent) {
        let mut state = self.lock();
        if state.ring.len() == self.capacity {
            state.ring.pop_front();
            state.dropped += 1;
        }
        state.ring.push_back(event);
        state.total += 1;
    }

    /// Retained spans, oldest first.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.lock().ring.iter().cloned().collect()
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.lock().ring.is_empty()
    }

    /// Spans evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Spans ever recorded (retained + dropped).
    pub fn total(&self) -> u64 {
        self.lock().total
    }

    /// The retained spans as JSONL, one per line.
    pub fn to_jsonl(&self) -> String {
        let state = self.lock();
        let mut out = String::with_capacity(state.ring.len() * 140);
        for ev in &state.ring {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        out
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op_id: u64, role: &'static str) -> SpanEvent {
        SpanEvent {
            op_id,
            role,
            node: 3,
            dc: 1,
            kind: "put",
            queue_us: 2.0,
            handle_us: 40.5,
            forward_us: 100.0,
            status: "ok",
        }
    }

    #[test]
    fn records_in_order_and_bounds_the_ring() {
        let log = SpanLog::with_capacity(2);
        log.record(span(1, "client"));
        log.record(span(1, "coordinate"));
        log.record(span(1, "forward"));
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.total(), 3);
        let roles: Vec<&str> = log.events().iter().map(|e| e.role).collect();
        assert_eq!(roles, ["coordinate", "forward"], "oldest evicted first");
    }

    #[test]
    fn jsonl_schema_is_pinned() {
        let log = SpanLog::new();
        log.record(span(42, "coordinate"));
        assert_eq!(
            log.to_jsonl(),
            "{\"op_id\":42,\"role\":\"coordinate\",\"node\":3,\"dc\":1,\"kind\":\"put\",\
             \"queue_us\":2.0,\"handle_us\":40.5,\"forward_us\":100.0,\"status\":\"ok\"}\n"
        );
    }

    #[test]
    fn empty_log_reports_empty() {
        let log = SpanLog::new();
        assert!(log.is_empty());
        assert_eq!(log.len(), 0);
        assert_eq!(log.to_jsonl(), "");
    }
}
