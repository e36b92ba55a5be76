//! A client handle for a running cluster.
//!
//! Each [`ServeClient`] models one front-end in a specific datacenter:
//! it keeps a single connection to a coordinator node *in that
//! datacenter* (requests enter the system locally, as the paper's
//! traffic model assumes) and fails over to the next local node when
//! the connection breaks or the node refuses service.

use crate::cluster::NodeInfo;
use crate::wire::{AckStatus, Conn, Frame};
use rfh_obs::{SpanEvent, SpanLog};
use rfh_types::{Result, RfhError};
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Connect + read timeout for client requests. Generous: a request can
/// sit behind a partition transfer holding the lock.
const CLIENT_TIMEOUT: Duration = Duration::from_millis(5_000);

/// Attempts per operation before giving up (each attempt may rotate to
/// a different coordinator).
const MAX_TRIES: usize = 8;

/// The outcome of a read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetOutcome {
    /// The key exists with this version and value.
    Found {
        /// Stored write version.
        seq: u64,
        /// Stored bytes.
        value: Vec<u8>,
    },
    /// No replica holds the key.
    NotFound,
}

/// One datacenter-local client connection with failover.
pub struct ServeClient {
    /// Coordinator candidates, all in the client's datacenter.
    addrs: Vec<SocketAddr>,
    /// Index into `addrs` of the current coordinator.
    cursor: usize,
    conn: Option<Conn<TcpStream>>,
    /// The datacenter this client issues from.
    dc: u32,
    /// Where sampled requests' client-side spans land (self-hosted
    /// runs share the cluster's log, so chains are complete).
    spans: Option<Arc<SpanLog>>,
}

impl ServeClient {
    /// A client homed in `dc`, coordinating through that datacenter's
    /// nodes. `offset` staggers which local node different clients pick
    /// first so load spreads.
    pub fn new(nodes: &[NodeInfo], dc: u32, offset: usize) -> Result<Self> {
        let addrs: Vec<SocketAddr> = nodes.iter().filter(|n| n.dc == dc).map(|n| n.addr).collect();
        if addrs.is_empty() {
            return Err(RfhError::Topology(format!("no nodes in datacenter {dc}")));
        }
        let cursor = offset % addrs.len();
        Ok(ServeClient { addrs, cursor, conn: None, dc, spans: None })
    }

    /// Record client-side spans for traced operations into `spans`.
    pub fn set_span_log(&mut self, spans: Arc<SpanLog>) {
        self.spans = Some(spans);
    }

    /// Parse the address-file format `Cluster::render_addr_file` emits
    /// (`server dc ip:port` per line) back into node infos.
    pub fn parse_addr_file(text: &str) -> Result<Vec<NodeInfo>> {
        let bad = |line: &str| RfhError::Io(format!("bad addr line {line:?}"));
        text.lines()
            .filter(|l| !l.trim().is_empty())
            .map(|line| {
                let mut parts = line.split_whitespace();
                let server: u32 =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                let dc: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                let addr: SocketAddr =
                    parts.next().and_then(|s| s.parse().ok()).ok_or_else(|| bad(line))?;
                Ok(NodeInfo { server: rfh_types::ServerId::new(server), dc, addr })
            })
            .collect()
    }

    /// The datacenter this client issues from.
    pub fn datacenter(&self) -> u32 {
        self.dc
    }

    /// Read `key`. Retries through coordinator failover; errors only
    /// when every attempt failed.
    pub fn get(&mut self, key: u64) -> Result<GetOutcome> {
        self.get_traced(key, None)
    }

    /// [`get`](ServeClient::get), optionally carrying a trace op-ID.
    /// `None` keeps the wire bytes identical to an untraced get.
    pub fn get_traced(&mut self, key: u64, op_id: Option<u64>) -> Result<GetOutcome> {
        let ack = self.request(&Frame::Get { key }, op_id)?;
        match ack {
            Frame::Ack { status: AckStatus::Ok, seq, value } => {
                Ok(GetOutcome::Found { seq, value })
            }
            Frame::Ack { status: AckStatus::NotFound, .. } => Ok(GetOutcome::NotFound),
            _ => Err(RfhError::Io("read unavailable".into())),
        }
    }

    /// Write `key = value` at version `seq`. Returns only after a
    /// coordinator acknowledged the write on every live replica; safe
    /// to retry with the same `seq` (idempotent last-writer-wins).
    pub fn put(&mut self, key: u64, seq: u64, value: &[u8]) -> Result<()> {
        self.put_traced(key, seq, value, None)
    }

    /// [`put`](ServeClient::put), optionally carrying a trace op-ID.
    pub fn put_traced(
        &mut self,
        key: u64,
        seq: u64,
        value: &[u8],
        op_id: Option<u64>,
    ) -> Result<()> {
        match self.request(&Frame::Put { key, seq, value: value.to_vec() }, op_id)? {
            Frame::Ack { status: AckStatus::Ok, .. } => Ok(()),
            _ => Err(RfhError::Io("write unavailable".into())),
        }
    }

    /// One request with retry + failover. An `Unavailable` ack rotates
    /// coordinators and backs off briefly — during a node kill the
    /// route row may be mid-repair.
    fn request(&mut self, frame: &Frame, op_id: Option<u64>) -> Result<Frame> {
        let mut last_err = String::from("no attempt made");
        for attempt in 0..MAX_TRIES {
            match self.try_once(frame, op_id) {
                Ok(Frame::Ack { status: AckStatus::Unavailable, .. }) => {
                    last_err = "ack: unavailable".into();
                    self.rotate();
                }
                Ok(ack) => return Ok(ack),
                Err(e) => {
                    last_err = e.to_string();
                    self.rotate();
                }
            }
            std::thread::sleep(Duration::from_millis(10 << attempt.min(5)));
        }
        Err(RfhError::Io(format!("request failed after {MAX_TRIES} tries: {last_err}")))
    }

    fn try_once(&mut self, frame: &Frame, op_id: Option<u64>) -> io::Result<Frame> {
        if self.conn.is_none() {
            let addr = self.addrs[self.cursor];
            let stream = TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT)?;
            stream.set_read_timeout(Some(CLIENT_TIMEOUT))?;
            stream.set_nodelay(true)?;
            self.conn = Some(Conn::new(stream));
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        let t0 = Instant::now();
        match conn.roundtrip_traced(frame, op_id) {
            Ok((ack, _)) => {
                if let (Some(id), Some(spans)) = (op_id, self.spans.as_ref()) {
                    spans.record(SpanEvent {
                        op_id: id,
                        role: "client",
                        node: -1,
                        dc: self.dc,
                        kind: frame_kind(frame),
                        queue_us: 0.0,
                        handle_us: t0.elapsed().as_micros() as f64,
                        forward_us: 0.0,
                        status: ack_status(&ack),
                    });
                }
                Ok(ack)
            }
            Err(e) => {
                self.conn = None; // broken or refused: reconnect next try
                Err(e)
            }
        }
    }

    fn rotate(&mut self) {
        self.conn = None;
        self.cursor = (self.cursor + 1) % self.addrs.len();
    }
}

/// One finished operation from a [`PipelinedClient`] window.
#[derive(Debug)]
pub struct CompletedOp {
    /// The request frame as originally submitted.
    pub request: Frame,
    /// The trace op-ID the request carried, if any.
    pub op_id: Option<u64>,
    /// End-to-end latency from *first* submission — retries and
    /// failovers count against the op, never reset the clock.
    pub latency_us: f64,
    /// The coordinator's ack (synthetic `Unavailable` if the op
    /// exhausted its retries without one).
    pub ack: Frame,
}

/// An in-flight frame awaiting its FIFO-ordered ack.
struct InflightOp {
    request: Frame,
    op_id: Option<u64>,
    t0: Instant,
    tries: usize,
}

/// A datacenter-local client that keeps up to `depth` frames in flight
/// on one connection — the pipelined counterpart of [`ServeClient`].
///
/// Replies correlate by order: coordinators release acks in arrival
/// order, so the n-th ack answers the n-th outstanding request. Traced frames double-check this by comparing
/// the echoed op-ID. On a broken connection or an `Unavailable` ack the
/// client rotates coordinators and replays the whole window — safe
/// because puts are idempotent (LWW at a fixed `seq`) and gets are
/// reads.
pub struct PipelinedClient {
    addrs: Vec<SocketAddr>,
    cursor: usize,
    conn: Option<Conn<TcpStream>>,
    dc: u32,
    depth: usize,
    inflight: std::collections::VecDeque<InflightOp>,
    spans: Option<Arc<SpanLog>>,
}

impl PipelinedClient {
    /// A pipelined client homed in `dc` with a window of `depth`
    /// outstanding frames. `offset` staggers the first coordinator.
    pub fn new(nodes: &[NodeInfo], dc: u32, offset: usize, depth: usize) -> Result<Self> {
        let addrs: Vec<SocketAddr> = nodes.iter().filter(|n| n.dc == dc).map(|n| n.addr).collect();
        if addrs.is_empty() {
            return Err(RfhError::Topology(format!("no nodes in datacenter {dc}")));
        }
        if depth == 0 {
            return Err(RfhError::InvalidConfig {
                parameter: "pipeline",
                reason: "window depth must be at least 1".into(),
            });
        }
        let cursor = offset % addrs.len();
        Ok(PipelinedClient {
            addrs,
            cursor,
            conn: None,
            dc,
            depth,
            inflight: std::collections::VecDeque::new(),
            spans: None,
        })
    }

    /// Record client-side spans for traced operations into `spans`.
    pub fn set_span_log(&mut self, spans: Arc<SpanLog>) {
        self.spans = Some(spans);
    }

    /// Submit one request. When the window is already `depth` deep, the
    /// oldest op is first driven to completion and returned.
    pub fn submit(&mut self, request: Frame, op_id: Option<u64>) -> Result<Option<CompletedOp>> {
        let done = if self.inflight.len() >= self.depth { Some(self.read_one()?) } else { None };
        let op = InflightOp { request, op_id, t0: Instant::now(), tries: 0 };
        self.send_op(&op)?;
        self.inflight.push_back(op);
        Ok(done)
    }

    /// Drive every outstanding op to completion, in order.
    pub fn drain(&mut self) -> Result<Vec<CompletedOp>> {
        let mut done = Vec::with_capacity(self.inflight.len());
        while !self.inflight.is_empty() {
            done.push(self.read_one()?);
        }
        Ok(done)
    }

    /// Send one frame, (re)connecting and replaying the window first if
    /// the connection is down.
    fn send_op(&mut self, op: &InflightOp) -> Result<()> {
        if self.conn.is_none() {
            self.reconnect()?;
        }
        let conn = self.conn.as_mut().expect("connection just ensured");
        if conn.send_traced(&op.request, op.op_id).is_err() {
            // Broken pipe: replay the window on the next coordinator,
            // then send this frame behind it.
            self.rotate_and_replay()?;
            let conn = self.conn.as_mut().expect("reconnected");
            conn.send_traced(&op.request, op.op_id)
                .map_err(|e| RfhError::Io(format!("pipelined send: {e}")))?;
        }
        Ok(())
    }

    /// Complete the window's oldest op: read its ack, retrying through
    /// failover until it resolves or runs out of attempts.
    fn read_one(&mut self) -> Result<CompletedOp> {
        loop {
            let received = match self.conn.as_mut() {
                Some(conn) => conn.recv_envelope(),
                None => {
                    self.rotate_and_replay()?;
                    continue;
                }
            };
            let front = self.inflight.front().expect("read_one needs an inflight op");
            match received {
                Ok(Some((ack @ Frame::Ack { .. }, echoed))) if echoed == front.op_id => {
                    if matches!(ack, Frame::Ack { status: AckStatus::Unavailable, .. })
                        && front.tries < MAX_TRIES
                    {
                        // The coordinator refused (route mid-repair,
                        // dying node). Back off, rotate, replay — the
                        // op keeps its place at the window's front.
                        let tries = front.tries;
                        std::thread::sleep(Duration::from_millis(10 << tries.min(5)));
                        self.bump_tries();
                        self.rotate_and_replay()?;
                        continue;
                    }
                    let op = self.inflight.pop_front().expect("front just inspected");
                    return Ok(self.finish(op, ack));
                }
                // Wrong op-ID echo, a non-ack frame, clean EOF, or an
                // I/O error: the connection is unusable as-is.
                Ok(_) | Err(_) => {
                    if front.tries >= MAX_TRIES {
                        let op = self.inflight.pop_front().expect("front just inspected");
                        let ack = Frame::Ack {
                            status: AckStatus::Unavailable,
                            seq: 0,
                            value: Vec::new(),
                        };
                        return Ok(self.finish(op, ack));
                    }
                    let tries = front.tries;
                    std::thread::sleep(Duration::from_millis(10 << tries.min(5)));
                    self.bump_tries();
                    self.rotate_and_replay()?;
                }
            }
        }
    }

    fn finish(&mut self, op: InflightOp, ack: Frame) -> CompletedOp {
        let latency_us = op.t0.elapsed().as_micros() as f64;
        if let (Some(id), Some(spans)) = (op.op_id, self.spans.as_ref()) {
            spans.record(SpanEvent {
                op_id: id,
                role: "client",
                node: -1,
                dc: self.dc,
                kind: frame_kind(&op.request),
                queue_us: 0.0,
                handle_us: latency_us,
                forward_us: 0.0,
                status: ack_status(&ack),
            });
        }
        CompletedOp { request: op.request, op_id: op.op_id, latency_us, ack }
    }

    /// Every rotation burns one attempt for every op it replays: a
    /// wedged datacenter cannot spin the window forever.
    fn bump_tries(&mut self) {
        for op in &mut self.inflight {
            op.tries += 1;
        }
    }

    /// Drop the connection, advance to the next coordinator, reconnect,
    /// and resend the whole in-flight window in order.
    fn rotate_and_replay(&mut self) -> Result<()> {
        self.conn = None;
        self.cursor = (self.cursor + 1) % self.addrs.len();
        self.reconnect()?;
        let batch: Vec<(Frame, Option<u64>)> =
            self.inflight.iter().map(|op| (op.request.clone(), op.op_id)).collect();
        if batch.is_empty() {
            return Ok(());
        }
        let conn = self.conn.as_mut().expect("reconnected");
        conn.send_batch(&batch).map_err(|e| RfhError::Io(format!("pipeline replay: {e}")))
    }

    /// Connect to the current coordinator, walking the ring once before
    /// giving up — every local node may be mid-restart at once.
    fn reconnect(&mut self) -> Result<()> {
        let mut last = String::new();
        for _ in 0..self.addrs.len().max(1) {
            let addr = self.addrs[self.cursor];
            match TcpStream::connect_timeout(&addr, CLIENT_TIMEOUT) {
                Ok(stream) => {
                    stream
                        .set_read_timeout(Some(CLIENT_TIMEOUT))
                        .and_then(|()| stream.set_nodelay(true))
                        .map_err(|e| RfhError::Io(format!("socket opts: {e}")))?;
                    self.conn = Some(Conn::new(stream));
                    return Ok(());
                }
                Err(e) => {
                    last = e.to_string();
                    self.cursor = (self.cursor + 1) % self.addrs.len();
                }
            }
        }
        Err(RfhError::Io(format!("no coordinator reachable in dc {}: {last}", self.dc)))
    }
}

/// Span label for the request frame a client issues.
fn frame_kind(frame: &Frame) -> &'static str {
    match frame {
        Frame::Get { .. } => "get",
        Frame::Put { .. } => "put",
        _ => "other",
    }
}

/// Span label for the ack a client received.
fn ack_status(ack: &Frame) -> &'static str {
    match ack {
        Frame::Ack { status: AckStatus::Ok, .. } => "ok",
        Frame::Ack { status: AckStatus::NotFound, .. } => "not_found",
        _ => "unavailable",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_file_roundtrip() {
        let text = "0 0 127.0.0.1:4000\n7 3 127.0.0.1:4007\n\n";
        let nodes = ServeClient::parse_addr_file(text).unwrap();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[1].server.0, 7);
        assert_eq!(nodes[1].dc, 3);
        assert_eq!(nodes[1].addr, "127.0.0.1:4007".parse().unwrap());
        assert!(ServeClient::parse_addr_file("nonsense").is_err());
        assert!(ServeClient::new(&nodes, 9, 0).is_err(), "unknown datacenter");
    }
}
