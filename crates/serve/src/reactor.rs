//! The data plane: an epoll reactor serving every node.
//!
//! All node listeners multiplex onto a small pool of reactor threads
//! (`min(cores, 4)`); every accepted connection is nonblocking and
//! pipelined — a client may keep many frames in flight, and replies are
//! released strictly in arrival order so an untraced pipeline
//! correlates acks by position (traced frames additionally echo their
//! op-ID). At pipeline depth 1 this is plain request/ack, which is all
//! the blocking `ServeClient` speaks.
//!
//! A node that receives a client `Get`/`Put` acts as the *coordinator*:
//! it charges the request to `q_ijt` at its own datacenter (the
//! requester column the traffic equations use) and reads or writes the
//! published replica set, forwarding to peer nodes over the same wire
//! protocol when a replica lives elsewhere. Forwarded requests touch
//! only the receiving node's store.
//!
//! ## Zero lost acknowledged writes: the route-epoch invariant
//!
//! A put acks only once it has landed on **every live replica of a
//! route that did not change while it was written**. Each partition
//! carries a route epoch (see `Shared::route_epochs`): even while the
//! route is stable, odd while the control loop moves the partition.
//! The control loop flips the epoch odd *before* it copies the
//! partition onto a new replica and settles it at the next even value
//! only *after* it republished the route. A put therefore snapshots an
//! even epoch, writes every live replica of the route it then reads
//! (local stores directly, remote ones over multiplexed peer channels),
//! and acks only if the epoch still equals the snapshot. If it does,
//! no copy-then-flip began or ended during the write: either the write
//! landed before the copy started (so the copy carried it to the new
//! replica) or the route it wrote is still the published one. If it
//! does not, the attempt restarts against the new route — idempotent,
//! because replicas keep the highest seq per key. An odd epoch at
//! snapshot time defers the put briefly instead of writing into a
//! moving route; the deferral is the request's queue phase.
//!
//! Gets never validate: transfers only ever *add* data and routes are
//! republished after the copy, so both the pre- and post-flip replica
//! sets can serve an authoritative read.
//!
//! ## Peer channels
//!
//! Coordinator → replica forwards share one nonblocking connection per
//! (coordinator node, peer node) pair per reactor thread. Replies
//! correlate by FIFO order: the replica serves forwards synchronously
//! in arrival order, so the n-th ack on a channel answers the n-th
//! outstanding ticket. Op-IDs still ride traced forwards — they are
//! the *span-chain* correlation token, not the transport's. A channel
//! that errors, closes, or dawdles past the peer timeout fails all its
//! tickets (gets walk on to the next replica; puts treat it as a failed
//! write to that replica) and is re-established on next use.

#![allow(clippy::too_many_arguments)]

use crate::cluster::Shared;
use crate::store::partition_of;
use crate::telemetry::{PhaseTimings, ReqKind};
use crate::wire::{AckStatus, Frame, MAX_FRAME};
use rfh_obs::SpanEvent;
use rfh_types::{DatacenterId, Result, RfhError, ServerId};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(unix)]
use rfh_reactor::{Event, FrameReader, Poller, TimerWheel, Waker, WriteQueue};
#[cfg(unix)]
use std::os::fd::AsRawFd;

/// Cap on reactor threads: beyond a few, loopback serving is syscall-
/// bound, not CPU-bound, and more loops just shuffle cache lines.
const MAX_REACTOR_THREADS: usize = 4;

/// Poller token of the wakeup eventfd.
const WAKER_TOKEN: u64 = u64::MAX;

/// Timer-wheel token of the recurring peer-timeout scan.
const SCAN_TOKEN: u64 = u64::MAX;

/// How often each reactor sweeps peer channels for expired tickets.
const SCAN_INTERVAL: Duration = Duration::from_millis(250);

/// Retry delay for a put that found its partition mid-transfer.
const DEFER_RETRY: Duration = Duration::from_millis(1);

/// Hard deadline on one put, defers and restarts included. Transfers
/// settle in milliseconds; a put still unvalidated after this long
/// answers Unavailable and lets the client retry idempotently.
const PUT_DEADLINE: Duration = Duration::from_secs(5);

/// Route-conflict restarts before giving up with Unavailable.
const MAX_RESTARTS: u32 = 32;

/// Upper bound on one `epoll_wait`, so shutdown is always noticed even
/// if the waker write itself were lost.
const MAX_IDLE: Duration = Duration::from_millis(100);

/// How long a forward may wait for its replica's ack before the peer
/// channel is failed.
const PEER_TIMEOUT: Duration = Duration::from_millis(2_000);

/// Cluster-wide connection counter; a connection's id picks its
/// telemetry shard, spreading concurrent connections over the shards.
static CONN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Queue (time parked behind an odd route epoch) and forward (union of
/// peer round-trip stretches) time of one request, accumulated along
/// the serve path; the handle phase is total minus both.
#[derive(Default)]
struct PhaseAcc {
    queue_us: f64,
    forward_us: f64,
}

/// The running reactor pool. Created by `Cluster::start_bound`; joined
/// at cluster shutdown.
pub(crate) struct ReactorPlane {
    threads: Vec<JoinHandle<()>>,
    wakers: Vec<Waker>,
}

#[cfg(unix)]
impl ReactorPlane {
    /// Spawn `min(cores, 4)` reactor threads and deal the node
    /// listeners out round-robin. Each listener's connections are
    /// served wholly by the thread that owns it.
    pub fn start(shared: Arc<Shared>, listeners: Vec<TcpListener>) -> io::Result<ReactorPlane> {
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let nthreads = cores.min(MAX_REACTOR_THREADS).min(listeners.len()).max(1);
        let mut per: Vec<Vec<(usize, TcpListener)>> = (0..nthreads).map(|_| Vec::new()).collect();
        for (i, l) in listeners.into_iter().enumerate() {
            per[i % nthreads].push((i, l));
        }
        let mut threads = Vec::with_capacity(nthreads);
        let mut wakers = Vec::with_capacity(nthreads);
        for (t, own) in per.into_iter().enumerate() {
            let waker = Waker::new()?;
            wakers.push(waker.clone());
            let reactor = Reactor::new(Arc::clone(&shared), own, waker)?;
            threads.push(
                std::thread::Builder::new()
                    .name(format!("rfh-reactor-{t}"))
                    .spawn(move || reactor.run())?,
            );
        }
        Ok(ReactorPlane { threads, wakers })
    }

    /// Wake every reactor out of `epoll_wait` and join. The shutdown
    /// flag is already set by the caller.
    pub fn shutdown(self) -> Result<()> {
        for w in &self.wakers {
            w.wake();
        }
        for h in self.threads {
            h.join().map_err(|_| RfhError::Simulation("reactor thread panicked".into()))?;
        }
        for w in self.wakers {
            w.close();
        }
        Ok(())
    }
}

#[cfg(not(unix))]
impl ReactorPlane {
    pub fn start(_shared: Arc<Shared>, _listeners: Vec<TcpListener>) -> io::Result<ReactorPlane> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "reactor plane requires epoll"))
    }

    pub fn shutdown(self) -> Result<()> {
        Ok(())
    }
}

/// Stable handle to one in-flight coordinated operation: the client
/// connection's slot, its generation (slots are reused; a stale
/// generation means the connection died and the result is discarded),
/// and the op's per-connection sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpRef {
    slot: usize,
    gen: u64,
    op_seq: u64,
}

/// What a peer-channel ticket was sent for, deciding how its ack (or
/// the channel's failure) feeds back into the op's state machine.
#[derive(Debug, Clone, Copy)]
enum Purpose {
    Get,
    Put,
}

/// One outstanding forward on a peer channel, completed FIFO.
#[cfg(unix)]
struct Ticket {
    op: OpRef,
    target: ServerId,
    sent_at: Instant,
    purpose: Purpose,
}

/// Remaining work of one coordinated op.
enum OpState {
    /// Reply computed; waiting only for in-order release.
    Ready,
    Get(GetWork),
    Put(PutWork),
}

struct GetWork {
    key: u64,
    origin: u32,
    /// Replicas not yet tried, coordinator-local first.
    candidates: VecDeque<ServerId>,
}

struct PutWork {
    key: u64,
    seq: u64,
    value: Vec<u8>,
    /// The even route epoch this attempt snapshotted.
    p_epoch: u64,
    /// Remote acks still awaited this attempt.
    outstanding: usize,
    landed: usize,
    failed_live: bool,
    restarts: u32,
    deadline: Instant,
    /// Set while parked behind an odd epoch; elapsed time lands in the
    /// queue phase on retry.
    defer_from: Option<Instant>,
}

/// One client request in the pipeline, kept in arrival order.
struct PendingOp {
    op_seq: u64,
    op_id: Option<u64>,
    kind: ReqKind,
    t0: Instant,
    phases: PhaseAcc,
    /// Forwards sent and not yet resolved (acked or failed).
    forwards_out: u32,
    /// Start of the current stretch with at least one forward
    /// outstanding. The forward phase is the union of these stretches,
    /// not the sum of round-trips: a put's parallel fan-out overlaps,
    /// a get's candidate walk does not.
    forwarding_since: Instant,
    state: OpState,
    reply: Option<Frame>,
}

impl PendingOp {
    fn new(op_seq: u64, op_id: Option<u64>, kind: ReqKind, state: OpState) -> PendingOp {
        let now = Instant::now();
        PendingOp {
            op_seq,
            op_id,
            kind,
            t0: now,
            phases: PhaseAcc::default(),
            forwards_out: 0,
            forwarding_since: now,
            state,
            reply: None,
        }
    }

    /// A forward went out on a peer channel.
    fn forward_sent(&mut self, now: Instant) {
        if self.forwards_out == 0 {
            self.forwarding_since = now;
        }
        self.forwards_out += 1;
    }

    /// A forward resolved; the last one closes the stretch and adds its
    /// wall time to the forward phase.
    fn forward_resolved(&mut self) {
        self.forwards_out -= 1;
        if self.forwards_out == 0 {
            self.phases.forward_us += self.forwarding_since.elapsed().as_micros() as f64;
        }
    }
}

#[cfg(unix)]
struct ClientConn {
    node: usize,
    conn_id: u64,
    gen: u64,
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    want_write: bool,
    dirty: bool,
    eof: bool,
    next_op_seq: u64,
    pending: VecDeque<PendingOp>,
}

#[cfg(unix)]
struct PeerChan {
    owner: usize,
    peer: usize,
    stream: TcpStream,
    reader: FrameReader,
    wq: WriteQueue,
    want_write: bool,
    dirty: bool,
    tickets: VecDeque<Ticket>,
}

#[cfg(unix)]
enum Entry {
    Listener { node: usize, listener: TcpListener },
    Client(ClientConn),
    Peer(PeerChan),
}

#[cfg(unix)]
struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    waker: Waker,
    entries: Vec<Option<Entry>>,
    free: Vec<usize>,
    /// (coordinator node, peer node) → live channel slot.
    peer_map: HashMap<(usize, usize), usize>,
    wheel: TimerWheel,
    /// Timer id → op parked behind an odd route epoch.
    deferred: HashMap<u64, OpRef>,
    next_timer: u64,
    gen_seq: u64,
    /// Slots whose write queue grew this round, flushed together.
    dirty: Vec<usize>,
}

#[cfg(unix)]
fn resolve(entries: &mut [Option<Entry>], op: OpRef) -> Option<&mut PendingOp> {
    match entries.get_mut(op.slot)?.as_mut()? {
        Entry::Client(c) if c.gen == op.gen => c.pending.iter_mut().find(|p| p.op_seq == op.op_seq),
        _ => None,
    }
}

#[cfg(unix)]
impl Reactor {
    fn new(
        shared: Arc<Shared>,
        listeners: Vec<(usize, TcpListener)>,
        waker: Waker,
    ) -> io::Result<Reactor> {
        let poller = Poller::new()?;
        poller.register(waker.fd(), WAKER_TOKEN, true, false)?;
        let now = Instant::now();
        let mut r = Reactor {
            shared,
            poller,
            waker,
            entries: Vec::new(),
            free: Vec::new(),
            peer_map: HashMap::new(),
            // 10 ms × 256 slots spans 2.56 s — past the 2 s peer
            // timeout the wheel polices.
            wheel: TimerWheel::new(Duration::from_millis(10), 256, now),
            deferred: HashMap::new(),
            next_timer: 0,
            gen_seq: 0,
            dirty: Vec::new(),
        };
        r.wheel.schedule_after(SCAN_TOKEN, SCAN_INTERVAL, now);
        for (node, listener) in listeners {
            let slot = r.alloc(Entry::Listener { node, listener });
            let fd = match r.entries[slot].as_ref() {
                Some(Entry::Listener { listener, .. }) => listener.as_raw_fd(),
                _ => unreachable!("just allocated"),
            };
            r.poller.register(fd, slot as u64, true, false)?;
        }
        Ok(r)
    }

    fn alloc(&mut self, entry: Entry) -> usize {
        match self.free.pop() {
            Some(slot) => {
                self.entries[slot] = Some(entry);
                slot
            }
            None => {
                self.entries.push(Some(entry));
                self.entries.len() - 1
            }
        }
    }

    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut due: Vec<u64> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let now = Instant::now();
            let timeout = self.wheel.next_timeout(now).unwrap_or(MAX_IDLE).min(MAX_IDLE);
            if self.poller.wait(&mut events, Some(timeout)).is_err() {
                return;
            }
            if self.shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            for ev in events.drain(..) {
                if ev.token == WAKER_TOKEN {
                    self.waker.drain();
                    continue;
                }
                self.handle_event(ev);
            }
            self.wheel.advance(Instant::now(), &mut due);
            for token in due.drain(..) {
                self.handle_timer(token);
            }
            self.flush_dirty();
        }
    }

    fn handle_event(&mut self, ev: Event) {
        let slot = ev.token as usize;
        match self.entries.get(slot).and_then(Option::as_ref) {
            Some(Entry::Listener { .. }) => self.accept_loop(slot),
            Some(Entry::Client(_)) => {
                if ev.readable() {
                    self.read_client(slot);
                }
                if ev.writable() {
                    self.mark_dirty(slot);
                }
            }
            Some(Entry::Peer(_)) => {
                if ev.readable() {
                    self.read_peer(slot);
                }
                if ev.writable() {
                    self.mark_dirty(slot);
                }
            }
            None => {} // closed earlier this round; stale event
        }
    }

    fn handle_timer(&mut self, token: u64) {
        if token == SCAN_TOKEN {
            self.scan_peer_timeouts();
            self.wheel.schedule_after(SCAN_TOKEN, SCAN_INTERVAL, Instant::now());
            return;
        }
        if let Some(op) = self.deferred.remove(&token) {
            self.start_put(op);
        }
    }

    fn mark_dirty(&mut self, slot: usize) {
        let flag = match self.entries.get_mut(slot).and_then(Option::as_mut) {
            Some(Entry::Client(c)) => &mut c.dirty,
            Some(Entry::Peer(p)) => &mut p.dirty,
            _ => return,
        };
        if !*flag {
            *flag = true;
            self.dirty.push(slot);
        }
    }

    // ---- accept path ----------------------------------------------

    fn accept_loop(&mut self, slot: usize) {
        loop {
            let (node, accepted) = match self.entries.get(slot).and_then(Option::as_ref) {
                Some(Entry::Listener { node, listener }) => (*node, listener.accept()),
                _ => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if !self.shared.is_alive(node) {
                        drop(stream); // fail-stop: refuse service
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                        continue;
                    }
                    self.gen_seq += 1;
                    let conn = ClientConn {
                        node,
                        conn_id: CONN_SEQ.fetch_add(1, Ordering::Relaxed),
                        gen: self.gen_seq,
                        stream,
                        reader: FrameReader::new(MAX_FRAME),
                        wq: WriteQueue::new(),
                        want_write: false,
                        dirty: false,
                        eof: false,
                        next_op_seq: 0,
                        pending: VecDeque::new(),
                    };
                    let cslot = self.alloc(Entry::Client(conn));
                    let fd = match self.entries[cslot].as_ref() {
                        Some(Entry::Client(c)) => c.stream.as_raw_fd(),
                        _ => unreachable!("just allocated"),
                    };
                    if self.poller.register(fd, cslot as u64, true, false).is_err() {
                        self.entries[cslot] = None;
                        self.free.push(cslot);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    // ---- client read / dispatch -----------------------------------

    fn read_client(&mut self, slot: usize) {
        let mut bodies = Vec::new();
        let eof = {
            let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let eof = match c.reader.fill_from(&mut c.stream) {
                Ok((_, eof)) => eof,
                Err(_) => {
                    drop(bodies);
                    self.close_client(slot);
                    return;
                }
            };
            loop {
                match c.reader.next_body() {
                    Ok(Some(b)) => bodies.push(b),
                    Ok(None) => break,
                    Err(_) => {
                        drop(bodies);
                        self.close_client(slot);
                        return;
                    }
                }
            }
            eof
        };
        for body in bodies {
            if !self.dispatch(slot, &body) {
                return; // connection closed mid-batch
            }
        }
        if eof {
            // The client finished sending: stop reading from it, but
            // let already-pipelined work drain — replies still flush,
            // and the conn closes once idle.
            let done = {
                let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return;
                };
                c.eof = true;
                let fd = c.stream.as_raw_fd();
                let _ = self.poller.modify(fd, slot as u64, false, c.want_write);
                c.pending.is_empty() && c.wq.is_empty()
            };
            if done {
                self.close_client(slot);
            }
        }
    }

    /// Decode and route one inbound frame. Returns false when the
    /// connection was closed (protocol error or fail-stop).
    fn dispatch(&mut self, slot: usize, body: &[u8]) -> bool {
        let Ok((frame, op_id)) = Frame::decode_envelope(body) else {
            self.close_client(slot);
            return false;
        };
        let (node, conn_id, gen, op_seq) = {
            let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return false;
            };
            c.next_op_seq += 1;
            (c.node, c.conn_id, c.gen, c.next_op_seq)
        };
        if !self.shared.is_alive(node) {
            self.close_client(slot); // killed mid-connection: drop without reply
            return false;
        }
        let op = OpRef { slot, gen, op_seq };
        match frame {
            Frame::Get { key } => {
                let p = partition_of(key, self.shared.partitions);
                let origin = self.shared.dc_of[node];
                self.shared.load.add(p, DatacenterId::new(origin), 1);
                self.shared.counters.gets.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = self.shared.telemetry.node(node) {
                    tel.hit(p);
                }
                let replicas = self.shared.route(p);
                let me = ServerId::new(node as u32);
                let candidates: VecDeque<ServerId> = replicas
                    .iter()
                    .copied()
                    .filter(|&r| r == me)
                    .chain(replicas.iter().copied().filter(|&r| r != me))
                    .collect();
                self.enqueue_op(
                    slot,
                    op_seq,
                    op_id,
                    ReqKind::Get,
                    OpState::Get(GetWork { key, origin, candidates }),
                );
                self.advance_get(op);
            }
            Frame::Put { key, seq, value } => {
                let p = partition_of(key, self.shared.partitions);
                let origin = self.shared.dc_of[node];
                self.shared.load.add(p, DatacenterId::new(origin), 1);
                self.shared.counters.puts.fetch_add(1, Ordering::Relaxed);
                if let Some(tel) = self.shared.telemetry.node(node) {
                    tel.hit(p);
                }
                self.enqueue_op(
                    slot,
                    op_seq,
                    op_id,
                    ReqKind::Put,
                    OpState::Put(PutWork {
                        key,
                        seq,
                        value,
                        p_epoch: 0,
                        outstanding: 0,
                        landed: 0,
                        failed_live: false,
                        restarts: 0,
                        deadline: Instant::now() + PUT_DEADLINE,
                        defer_from: None,
                    }),
                );
                self.start_put(op);
            }
            // Forwards (and unsolicited acks) are local-only and
            // synchronous.
            other => {
                let reply = serve_forward(node, conn_id, other, op_id, &self.shared);
                let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return false;
                };
                // The kind is unused once Ready.
                let mut pend = PendingOp::new(op_seq, op_id, ReqKind::ForwardGet, OpState::Ready);
                pend.reply = Some(reply);
                c.pending.push_back(pend);
                self.release(slot);
            }
        }
        true
    }

    fn enqueue_op(
        &mut self,
        slot: usize,
        op_seq: u64,
        op_id: Option<u64>,
        kind: ReqKind,
        state: OpState,
    ) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        c.pending.push_back(PendingOp::new(op_seq, op_id, kind, state));
    }

    // ---- get state machine ----------------------------------------

    /// Walk the get's candidate list until a replica answers, a forward
    /// is in flight, or the list is exhausted. Dead replicas are
    /// skipped, a local replica answers from the store, any ack from a
    /// peer is the answer, and a broken channel just moves on to the
    /// next candidate. Every current replica holds the full partition
    /// (writes go to all live replicas; transfers copy whole
    /// partitions), so the first live answer is authoritative.
    fn advance_get(&mut self, op: OpRef) {
        loop {
            let (next, node, key, origin, op_id) = {
                let Some(pend) = resolve(&mut self.entries, op) else { return };
                let OpState::Get(w) = &mut pend.state else { return };
                let (key, origin, op_id) = (w.key, w.origin, pend.op_id);
                let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
                else {
                    return;
                };
                let node = c.node;
                let Some(pend) = c.pending.iter_mut().find(|p| p.op_seq == op.op_seq) else {
                    return;
                };
                let OpState::Get(w) = &mut pend.state else { return };
                (w.candidates.pop_front(), node, key, origin, op_id)
            };
            match next {
                None => {
                    let ack =
                        Frame::Ack { status: AckStatus::Unavailable, seq: 0, value: Vec::new() };
                    self.complete(op, ack);
                    return;
                }
                Some(r) if !self.shared.is_alive(r.index()) => continue,
                Some(r) if r.index() == node => {
                    let ack = match self.shared.stores[node].get(key) {
                        Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
                        None => {
                            Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() }
                        }
                    };
                    self.complete(op, ack);
                    return;
                }
                Some(r) => {
                    let f = Frame::ForwardGet { key, origin_dc: origin };
                    self.forward(op, node, r, f, op_id, Purpose::Get);
                    return;
                }
            }
        }
    }

    // ---- put state machine ----------------------------------------

    /// Begin (or restart) one put attempt: snapshot an even route
    /// epoch, write the local replica directly, fan forwards out to
    /// every remote live replica. An odd epoch parks the op on a short
    /// timer instead of writing into a partition mid-transfer.
    fn start_put(&mut self, op: OpRef) {
        let now = Instant::now();
        let (node, key, seq, value, op_id, deadline) = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let op_id = pend.op_id;
            let OpState::Put(w) = &mut pend.state else { return };
            if let Some(t) = w.defer_from.take() {
                pend.phases.queue_us += t.elapsed().as_micros() as f64;
            }
            let (key, seq, value, deadline) = (w.key, w.seq, w.value.clone(), w.deadline);
            let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut)
            else {
                return;
            };
            (c.node, key, seq, value, op_id, deadline)
        };
        let p = partition_of(key, self.shared.partitions);
        let epoch = self.shared.route_epoch(p);
        if epoch & 1 == 1 {
            if now > deadline {
                let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
                self.complete(op, ack);
                return;
            }
            if let Some(pend) = resolve(&mut self.entries, op) {
                if let OpState::Put(w) = &mut pend.state {
                    w.defer_from = Some(now);
                }
            }
            let id = self.next_timer;
            self.next_timer += 1;
            self.deferred.insert(id, op);
            self.wheel.schedule_after(id, DEFER_RETRY, now);
            return;
        }

        let replicas = self.shared.route(p);
        let me = ServerId::new(node as u32);
        let mut landed = 0usize;
        let mut remote: Vec<ServerId> = Vec::new();
        for r in replicas {
            if !self.shared.is_alive(r.index()) {
                continue; // dead at write time: repaired by the control loop
            }
            if r == me {
                self.shared.stores[node].put(key, seq, &value);
                landed += 1;
            } else {
                remote.push(r);
            }
        }
        {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &mut pend.state else { return };
            w.p_epoch = epoch;
            w.landed = landed;
            w.failed_live = false;
            w.outstanding = remote.len();
        }
        if remote.is_empty() {
            self.finish_put_attempt(op);
            return;
        }
        let origin = self.shared.dc_of[node];
        for r in remote {
            let f = Frame::ForwardPut { key, seq, origin_dc: origin, value: value.clone() };
            self.forward(op, node, r, f, op_id, Purpose::Put);
        }
    }

    /// Feed one remote replica's outcome into the put. `ok` means the
    /// replica acked Ok; anything else (bad ack, broken channel, peer
    /// timeout) counts as a failed write to that replica, fatal only if
    /// the replica still looks alive — a replica that died mid-write is
    /// the control loop's to repair, like one dead at write time.
    fn note_put_result(&mut self, op: OpRef, target: ServerId, ok: bool) {
        let alive = self.shared.is_alive(target.index());
        let finished = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &mut pend.state else { return };
            w.outstanding -= 1;
            if ok {
                w.landed += 1;
            } else if alive {
                w.failed_live = true;
            }
            w.outstanding == 0
        };
        if finished {
            self.finish_put_attempt(op);
        }
    }

    /// All replicas of one attempt have resolved: ack, refuse, or
    /// restart against a changed route.
    fn finish_put_attempt(&mut self, op: OpRef) {
        let (key, seq, p_epoch, landed, failed_live, restarts, deadline) = {
            let Some(pend) = resolve(&mut self.entries, op) else { return };
            let OpState::Put(w) = &pend.state else { return };
            (w.key, w.seq, w.p_epoch, w.landed, w.failed_live, w.restarts, w.deadline)
        };
        if failed_live || landed == 0 {
            let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        let p = partition_of(key, self.shared.partitions);
        if self.shared.route_epoch(p) == p_epoch {
            // No transfer overlapped the write: every live replica of
            // the published route holds it. Safe to acknowledge.
            let ack = Frame::Ack { status: AckStatus::Ok, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        // The route changed under the write. Replicas that landed keep
        // the value harmlessly (LWW); restart against the new route.
        if restarts >= MAX_RESTARTS || Instant::now() > deadline {
            let ack = Frame::Ack { status: AckStatus::Unavailable, seq, value: Vec::new() };
            self.complete(op, ack);
            return;
        }
        if let Some(pend) = resolve(&mut self.entries, op) {
            if let OpState::Put(w) = &mut pend.state {
                w.restarts += 1;
            }
        }
        self.start_put(op);
    }

    // ---- completion / release -------------------------------------

    /// Record the op's telemetry and span, count its ack, mark it
    /// ready, and release any front-complete prefix of the pipeline.
    fn complete(&mut self, op: OpRef, reply: Frame) {
        let Some(Entry::Client(c)) = self.entries.get_mut(op.slot).and_then(Option::as_mut) else {
            return;
        };
        if c.gen != op.gen {
            return;
        }
        let (node, conn_id) = (c.node, c.conn_id);
        let Some(pend) = c.pending.iter_mut().find(|p| p.op_seq == op.op_seq) else {
            return;
        };
        let total_us = pend.t0.elapsed().as_micros() as f64;
        count_ack(&self.shared, &reply);
        record_request(
            &self.shared,
            node,
            conn_id,
            pend.kind,
            pend.op_id,
            total_us,
            &pend.phases,
            &reply,
        );
        pend.state = OpState::Ready;
        pend.reply = Some(reply);
        self.release(op.slot);
    }

    /// Flush the front-complete prefix of a connection's pipeline into
    /// its write queue. In-order release is what lets depth-1 clients
    /// treat the connection as plain request/ack and untraced pipelined
    /// clients correlate acks by position.
    fn release(&mut self, slot: usize) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let mut wrote = false;
        while c.pending.front().is_some_and(|p| p.reply.is_some()) {
            let pend = c.pending.pop_front().expect("front checked");
            let reply = pend.reply.expect("reply checked");
            c.wq.push(reply.encode_traced(pend.op_id));
            wrote = true;
        }
        if wrote && !c.dirty {
            c.dirty = true;
            self.dirty.push(slot);
        }
    }

    // ---- peer channels --------------------------------------------

    /// Queue one forward on the (owner → target) channel, opening it if
    /// needed. Failure to open counts as the forward failing.
    fn forward(
        &mut self,
        op: OpRef,
        owner: usize,
        target: ServerId,
        frame: Frame,
        op_id: Option<u64>,
        purpose: Purpose,
    ) {
        self.shared.counters.forwards.fetch_add(1, Ordering::Relaxed);
        match self.peer_channel(owner, target.index()) {
            Ok(chan) => {
                let Some(Entry::Peer(ch)) = self.entries.get_mut(chan).and_then(Option::as_mut)
                else {
                    return;
                };
                let now = Instant::now();
                ch.wq.push(frame.encode_traced(op_id));
                ch.tickets.push_back(Ticket { op, target, sent_at: now, purpose });
                if !ch.dirty {
                    ch.dirty = true;
                    self.dirty.push(chan);
                }
                if let Some(pend) = resolve(&mut self.entries, op) {
                    pend.forward_sent(now);
                }
            }
            Err(_) => self.forward_failed(op, target, purpose),
        }
    }

    fn forward_failed(&mut self, op: OpRef, target: ServerId, purpose: Purpose) {
        match purpose {
            Purpose::Get => self.advance_get(op),
            Purpose::Put => self.note_put_result(op, target, false),
        }
    }

    /// The live channel slot for (owner → peer), connecting lazily.
    fn peer_channel(&mut self, owner: usize, peer: usize) -> io::Result<usize> {
        if let Some(&slot) = self.peer_map.get(&(owner, peer)) {
            if matches!(self.entries.get(slot).and_then(Option::as_ref), Some(Entry::Peer(_))) {
                return Ok(slot);
            }
            self.peer_map.remove(&(owner, peer));
        }
        let stream = TcpStream::connect(self.shared.addrs[peer])?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        let slot = self.alloc(Entry::Peer(PeerChan {
            owner,
            peer,
            stream,
            reader: FrameReader::new(MAX_FRAME),
            wq: WriteQueue::new(),
            want_write: false,
            dirty: false,
            tickets: VecDeque::new(),
        }));
        let fd = match self.entries[slot].as_ref() {
            Some(Entry::Peer(p)) => p.stream.as_raw_fd(),
            _ => unreachable!("just allocated"),
        };
        if let Err(e) = self.poller.register(fd, slot as u64, true, false) {
            self.entries[slot] = None;
            self.free.push(slot);
            return Err(e);
        }
        self.peer_map.insert((owner, peer), slot);
        Ok(slot)
    }

    /// Drain a peer channel's acks, matching them FIFO to tickets.
    fn read_peer(&mut self, slot: usize) {
        let mut bodies = Vec::new();
        let mut broken;
        {
            let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            broken = match ch.reader.fill_from(&mut ch.stream) {
                Ok((_, eof)) => eof,
                Err(_) => true,
            };
            loop {
                match ch.reader.next_body() {
                    Ok(Some(b)) => bodies.push(b),
                    Ok(None) => break,
                    Err(_) => {
                        broken = true;
                        break;
                    }
                }
            }
        }
        for body in bodies {
            let ticket = {
                let Some(Entry::Peer(ch)) = self.entries.get_mut(slot).and_then(Option::as_mut)
                else {
                    return;
                };
                ch.tickets.pop_front()
            };
            let Some(t) = ticket else {
                broken = true; // unsolicited frame: protocol violation
                break;
            };
            match Frame::decode_envelope(&body) {
                Ok((ack @ Frame::Ack { .. }, _)) => {
                    if let Some(pend) = resolve(&mut self.entries, t.op) {
                        pend.forward_resolved();
                    }
                    match t.purpose {
                        Purpose::Get => self.complete(t.op, ack),
                        Purpose::Put => {
                            let ok = matches!(ack, Frame::Ack { status: AckStatus::Ok, .. });
                            self.note_put_result(t.op, t.target, ok);
                        }
                    }
                }
                _ => {
                    // Non-ack or garbage: the channel is unusable. Put
                    // the ticket back so fail_channel routes it too.
                    if let Some(Entry::Peer(ch)) =
                        self.entries.get_mut(slot).and_then(Option::as_mut)
                    {
                        ch.tickets.push_front(t);
                    }
                    broken = true;
                    break;
                }
            }
        }
        if broken {
            self.fail_channel(slot);
        }
    }

    /// Tear one peer channel down and fail every outstanding ticket:
    /// gets walk on to their next candidate, puts count a failed write.
    fn fail_channel(&mut self, slot: usize) {
        let Some(Entry::Peer(mut ch)) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(ch.stream.as_raw_fd());
        self.peer_map.remove(&(ch.owner, ch.peer));
        self.free.push(slot);
        for t in ch.tickets.drain(..) {
            if let Some(pend) = resolve(&mut self.entries, t.op) {
                pend.forward_resolved();
            }
            self.forward_failed(t.op, t.target, t.purpose);
        }
    }

    /// Periodic sweep: a channel whose oldest ticket exceeded the peer
    /// timeout is failed wholesale (the replica is wedged or the ack
    /// stream stalled — either way FIFO correlation is broken).
    fn scan_peer_timeouts(&mut self) {
        let now = Instant::now();
        let mut expired = Vec::new();
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(Entry::Peer(ch)) = entry {
                if let Some(t) = ch.tickets.front() {
                    if now.duration_since(t.sent_at) > PEER_TIMEOUT {
                        expired.push(slot);
                    }
                }
            }
        }
        for slot in expired {
            self.fail_channel(slot);
        }
    }

    // ---- write path -----------------------------------------------

    fn flush_dirty(&mut self) {
        // fail_channel / close paths may push more dirty slots while we
        // flush; drain until quiescent.
        while let Some(slot) = self.dirty.pop() {
            self.flush_slot(slot);
        }
    }

    fn flush_slot(&mut self, slot: usize) {
        enum Outcome {
            Ok,
            CloseClient,
            FailPeer,
        }
        let outcome = {
            let Some(entry) = self.entries.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            let (stream, wq, want_write, dirty, is_client) = match entry {
                Entry::Client(c) => {
                    (&mut c.stream, &mut c.wq, &mut c.want_write, &mut c.dirty, true)
                }
                Entry::Peer(p) => {
                    (&mut p.stream, &mut p.wq, &mut p.want_write, &mut p.dirty, false)
                }
                Entry::Listener { .. } => return,
            };
            *dirty = false;
            match wq.flush(stream) {
                Ok(drained) => {
                    let fd = stream.as_raw_fd();
                    if drained && *want_write {
                        *want_write = false;
                        let readable = match entry {
                            Entry::Client(c) => !c.eof,
                            _ => true,
                        };
                        let _ = self.poller.modify(fd, slot as u64, readable, false);
                    } else if !drained && !*want_write {
                        *want_write = true;
                        let readable = match entry {
                            Entry::Client(c) => !c.eof,
                            _ => true,
                        };
                        let _ = self.poller.modify(fd, slot as u64, readable, true);
                    }
                    match entry {
                        Entry::Client(c) if c.eof && c.pending.is_empty() && c.wq.is_empty() => {
                            Outcome::CloseClient
                        }
                        _ => Outcome::Ok,
                    }
                }
                Err(_) => {
                    if is_client {
                        Outcome::CloseClient
                    } else {
                        Outcome::FailPeer
                    }
                }
            }
        };
        match outcome {
            Outcome::Ok => {}
            Outcome::CloseClient => self.close_client(slot),
            Outcome::FailPeer => self.fail_channel(slot),
        }
    }

    fn close_client(&mut self, slot: usize) {
        let Some(Entry::Client(c)) = self.entries.get_mut(slot).and_then(Option::take) else {
            return;
        };
        let _ = self.poller.deregister(c.stream.as_raw_fd());
        self.free.push(slot);
        // In-flight tickets referencing this conn resolve to nothing:
        // slot generations make their completions no-ops.
    }
}

/// Serve one frame that needs no coordination: a forward touches only
/// the local shard (the coordinator already charged `q_ijt` at the
/// origin datacenter). Anything else here is an unsolicited frame — a
/// protocol violation answered with Unavailable rather than crashing
/// the loop.
fn serve_forward(
    node: usize,
    conn_id: u64,
    frame: Frame,
    op_id: Option<u64>,
    shared: &Shared,
) -> Frame {
    let t0 = Instant::now();
    let (kind, reply) = match frame {
        Frame::ForwardGet { key, origin_dc: _ } => (
            ReqKind::ForwardGet,
            match shared.stores[node].get(key) {
                Some(v) => Frame::Ack { status: AckStatus::Ok, seq: v.seq, value: v.value },
                None => Frame::Ack { status: AckStatus::NotFound, seq: 0, value: Vec::new() },
            },
        ),
        Frame::ForwardPut { key, seq, origin_dc: _, value } => {
            // An older seq losing LWW is still success: the store
            // holds a version at least as new as the write.
            let _ = shared.stores[node].put(key, seq, &value);
            (ReqKind::ForwardPut, Frame::Ack { status: AckStatus::Ok, seq, value: Vec::new() })
        }
        _ => return Frame::Ack { status: AckStatus::Unavailable, seq: 0, value: Vec::new() },
    };
    let total_us = t0.elapsed().as_micros() as f64;
    record_request(shared, node, conn_id, kind, op_id, total_us, &PhaseAcc::default(), &reply);
    reply
}

/// The per-request telemetry tail: fold the phase split into the node's
/// histograms and, when the request was sampled, append its span to the
/// chain.
fn record_request(
    shared: &Shared,
    node: usize,
    conn_id: u64,
    kind: ReqKind,
    op_id: Option<u64>,
    total_us: f64,
    phases: &PhaseAcc,
    reply: &Frame,
) {
    let timings = PhaseTimings {
        queue_us: phases.queue_us,
        forward_us: phases.forward_us,
        handle_us: (total_us - phases.queue_us - phases.forward_us).max(0.0),
    };
    if let Some(tel) = shared.telemetry.node(node) {
        tel.record(conn_id, kind, timings);
    }
    if let Some(id) = op_id {
        let role = match kind {
            ReqKind::Get | ReqKind::Put => "coordinate",
            ReqKind::ForwardGet | ReqKind::ForwardPut => "forward",
        };
        shared.telemetry.spans().record(SpanEvent {
            op_id: id,
            role,
            node: node as i64,
            dc: shared.dc_of[node],
            kind: kind.as_str(),
            queue_us: timings.queue_us,
            handle_us: timings.handle_us,
            forward_us: timings.forward_us,
            status: ack_status_str(reply),
        });
    }
}

fn ack_status_str(frame: &Frame) -> &'static str {
    match frame {
        Frame::Ack { status: AckStatus::Ok, .. } => "ok",
        Frame::Ack { status: AckStatus::NotFound, .. } => "not_found",
        _ => "unavailable",
    }
}

/// Count one coordinated op's ack by status.
fn count_ack(shared: &Shared, ack: &Frame) {
    if let Frame::Ack { status, .. } = ack {
        let counter = match status {
            AckStatus::Ok => &shared.counters.acks_ok,
            AckStatus::NotFound => &shared.counters.acks_not_found,
            AckStatus::Unavailable => &shared.counters.acks_unavailable,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_forwards_count_their_wall_time_once() {
        let mut pend = PendingOp::new(0, None, ReqKind::Put, OpState::Ready);
        // A put fans out to three replicas at once.
        let sent = Instant::now();
        for _ in 0..3 {
            pend.forward_sent(sent);
        }
        std::thread::sleep(Duration::from_millis(20));
        for _ in 0..3 {
            pend.forward_resolved();
        }
        let total = pend.t0.elapsed().as_micros() as f64;
        assert!(pend.phases.forward_us >= 20_000.0, "{}", pend.phases.forward_us);
        assert!(pend.phases.forward_us <= total, "{} > {total}", pend.phases.forward_us);
    }

    #[test]
    fn sequential_forwards_add_up() {
        let mut pend = PendingOp::new(0, None, ReqKind::Get, OpState::Ready);
        // A get walks two candidates one after the other, idling between.
        for _ in 0..2 {
            pend.forward_sent(Instant::now());
            std::thread::sleep(Duration::from_millis(10));
            pend.forward_resolved();
            std::thread::sleep(Duration::from_millis(10));
        }
        let total = pend.t0.elapsed().as_micros() as f64;
        assert!(pend.phases.forward_us >= 20_000.0, "{}", pend.phases.forward_us);
        assert!(pend.phases.forward_us <= total - 20_000.0, "idle time is not forwarding");
    }
}
