//! A real socket transport over `std::net` TCP.
//!
//! This is the substrate under `seemore-runtime`'s `SocketCluster`: every
//! node (replica or client) owns a [`TcpEndpoint`] with a loopback listener,
//! and a [`TcpMesh`] wires a full set of endpoints together so that any node
//! can reach any other by [`NodeId`]. Messages serialize through the real
//! codec (`seemore_wire::codec`), so the bytes counted by
//! [`TransportStats`] are the bytes that actually crossed a TCP connection.
//!
//! # Topology and threads
//!
//! * One **acceptor** thread per endpoint polls its listener and spawns a
//!   **reader** thread per inbound connection. The reader learns the peer's
//!   identity from a 16-byte preamble, then feeds a streaming
//!   [`FrameReader`] and forwards every decoded message (tagged with the
//!   sender) into the endpoint's incoming queue. A malformed preamble or a
//!   poisoned frame stream drops the connection — never the process.
//! * Connections are dialed lazily: the first [`send`](TcpHandle::send) to a
//!   peer spawns a **writer** thread that connects with exponential backoff
//!   (1 ms doubling to [`MAX_BACKOFF`]), writes the preamble, and drains a
//!   per-peer outbound queue. A write failure triggers a reconnect and the
//!   in-flight frames are retransmitted first, so no frame is lost and order
//!   is FIFO per connection. Across a reconnect, frames still buffered on
//!   the old connection may interleave with the new connection's at the
//!   receiver — the protocol cores tolerate reordering (and duplication) by
//!   design, exactly as they must on a real network.
//!
//! # Hot path
//!
//! Three costs dominate a loopback mesh under protocol load, and each is
//! paid once instead of per-message/per-peer:
//!
//! * **Encode-once broadcast** — [`TcpHandle::broadcast`] serializes a
//!   message a single time into a shared [`Frame`] (`Arc<[u8]>`, built
//!   through a thread-local scratch buffer) and enqueues the same bytes to
//!   every destination's writer; the per-peer cost is a reference-count
//!   bump. [`TransportStats::encodes_saved`] counts the serializations
//!   avoided.
//! * **Zero-hop direct writes, coalesced backlog drains** — while a peer's
//!   connection is up, the *sending* thread writes the frame itself: one
//!   syscall, no writer-thread wakeup, no context switch. Whenever the
//!   connection is down (initial dial, reconnect after a failed write),
//!   frames accumulate in the peer's backlog and the writer thread drains
//!   the whole queue per wakeup into one reused burst buffer — a single
//!   coalesced `write(2)` per burst (up to 256 KiB), not one per frame —
//!   before handing the fresh connection back to the senders.
//!   [`TransportStats::write_syscalls`] and
//!   [`TransportStats::frames_coalesced`] quantify both paths.
//! * **Buffer reuse on receive** — each reader thread owns one read chunk
//!   and one streaming [`FrameReader`] whose reassembly buffer is reused
//!   across frames and capacity-bounded, so steady-state receive performs
//!   no allocations beyond the decoded messages themselves.
//!
//! # Trust model
//!
//! The preamble *asserts* the dialer's identity; nothing authenticates it.
//! That matches the paper's network assumptions — the protocol defends
//! against Byzantine *replicas* with signatures on every message whose
//! sender matters, but assumes point-to-point links are authenticated by
//! the environment (in a real deployment: TLS/mTLS between machines). The
//! one message class that leans on transport identity is the Lion mode's
//! *unsigned* `ACCEPT` (an optimization the paper allows because the
//! trusted primary is the only consumer): on this loopback transport, any
//! local process that can reach the primary's listener could forge it.
//! Loopback test clusters are the intended deployment here; an
//! authenticated handshake belongs to the same future substrate as TLS.
//!
//! # The async seam
//!
//! The container this workspace builds in has no crates.io access, so there
//! is no tokio; everything here is blocking `std::net` plus OS threads. The
//! [`Transport`] trait is the seam a future async substrate slots into: it
//! captures exactly what the runtimes consume (identity, fire-and-forget
//! `send`, timed `recv`, byte accounting) without exposing sockets, so a
//! tokio/mio implementation can replace [`TcpEndpoint`] without touching the
//! protocol cores or the cluster runtimes.

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use seemore_types::{ClientId, NodeId, ReplicaId};
use seemore_wire::codec::{Frame, FrameReader, CODEC_VERSION, MAGIC};
use seemore_wire::Message;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// First reconnect delay of the writer's exponential backoff.
pub const INITIAL_BACKOFF: Duration = Duration::from_millis(1);

/// Ceiling of the reconnect backoff.
pub const MAX_BACKOFF: Duration = Duration::from_millis(100);

/// Length of the per-connection identity preamble.
const PREAMBLE_LEN: usize = 16;

/// Poll interval for accept loops and shutdown checks.
const POLL: Duration = Duration::from_millis(5);

/// Ceiling on how many queued frame bytes a writer folds into one coalesced
/// `write` call. Large enough to swallow a whole broadcast burst, small
/// enough to keep the reused burst buffer cache-friendly.
const MAX_BURST: usize = 256 * 1024;

/// Size of the per-connection read buffer handed to `read(2)`.
const READ_CHUNK: usize = 64 * 1024;

thread_local! {
    /// Per-thread scratch for encoding outgoing messages: `send` and
    /// `broadcast` build each [`Frame`] through this buffer, so a replica
    /// thread's steady-state encode cost is one `Arc` allocation per
    /// *message* (not per destination, and with no intermediate `Vec`).
    static ENCODE_SCRATCH: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
}

/// What the cluster runtimes need from a network substrate.
///
/// Implemented today by [`TcpEndpoint`] (blocking `std::net`); designed so a
/// tokio- or mio-backed endpoint can implement it later without changing the
/// runtimes: no socket types leak through, sends are fire-and-forget (the
/// transport owns queueing and reconnection), and receives are pull-based
/// with a timeout so caller threads keep servicing their timers.
pub trait Transport: Send {
    /// The node this endpoint speaks as.
    fn local(&self) -> NodeId;

    /// Queues `message` for delivery to `to`. Returns immediately; delivery
    /// is asynchronous, FIFO per connection, and best-effort ordered across
    /// reconnects (receivers must tolerate reordering, as protocol cores
    /// do).
    fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError>;

    /// Queues `message` for delivery to every peer in `to`, encoding it
    /// **once**: the same shared frame is placed on every destination's
    /// writer queue, so the fan-out cost of a proposal or vote broadcast is
    /// one serialization plus `n` reference-count bumps instead of `n`
    /// serializations.
    ///
    /// Delivery is attempted to every listed peer even if an earlier one
    /// fails; the first error (if any) is returned afterwards. The default
    /// implementation falls back to per-peer [`send`](Self::send) for
    /// transports without a shared-frame fast path.
    fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        let mut first_error = None;
        for &peer in to {
            if let Err(error) = self.send(peer, message) {
                first_error.get_or_insert(error);
            }
        }
        match first_error {
            None => Ok(()),
            Some(error) => Err(error),
        }
    }

    /// Waits up to `timeout` for the next message addressed to this node,
    /// returning it together with the sender's identity.
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Message), RecvTimeoutError>;

    /// Live byte/message counters for this endpoint's mesh.
    fn stats(&self) -> Arc<TransportStats>;
}

/// Why a send was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The destination is not part of the mesh's address book.
    UnknownPeer(NodeId),
    /// The transport has been shut down.
    Closed,
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownPeer(node) => write!(f, "unknown peer {node}"),
            TransportError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Bytes and messages that crossed the wire, aggregated mesh-wide, plus the
/// hot-path savings counters (writes coalesced, encodes shared).
///
/// Sent counters advance when a frame is written to a socket;
/// [`bytes_read`](Self::bytes_read) advances on raw reads, and the received
/// counters advance on successful decodes. Identity preambles count toward
/// [`bytes_sent`](Self::bytes_sent)/[`bytes_read`](Self::bytes_read) — they
/// are on the wire too.
///
/// # Memory ordering
///
/// Every counter is a *monotonic event count* updated and read with
/// [`Ordering::Relaxed`], deliberately: no control flow ever branches on a
/// counter, no counter update is meant to publish other memory (the frames
/// themselves travel through channels, which provide their own
/// happens-before edges), and the only consumers are end-of-run reports and
/// test assertions that read after the relevant threads have been joined or
/// the channel traffic has quiesced. `SeqCst` would buy nothing here except
/// a full fence on every byte counted on the hot path. A point-in-time read
/// across counters may be mutually inconsistent (e.g. `messages_sent` can
/// momentarily lag `bytes_sent` mid-write); consumers that compare counters
/// must tolerate that, exactly as they must for any concurrent statistics.
#[derive(Debug, Default)]
pub struct TransportStats {
    pub(crate) messages_sent: AtomicU64,
    pub(crate) messages_received: AtomicU64,
    pub(crate) bytes_sent: AtomicU64,
    pub(crate) bytes_received: AtomicU64,
    pub(crate) bytes_read: AtomicU64,
    pub(crate) write_syscalls: AtomicU64,
    pub(crate) direct_writes: AtomicU64,
    pub(crate) vectored_writes: AtomicU64,
    pub(crate) partial_writes: AtomicU64,
    pub(crate) frames_coalesced: AtomicU64,
    pub(crate) encodes_saved: AtomicU64,
    pub(crate) connects: AtomicU64,
    pub(crate) reconnects: AtomicU64,
}

impl TransportStats {
    /// Messages successfully written to a socket.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Messages successfully decoded from a socket.
    pub fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Bytes written to sockets (frames plus preambles).
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Bytes of successfully decoded frames — the payload traffic, net of
    /// preambles, multiplexing tags and partially received frames. By the
    /// codec's size contract this equals the sum of `wire_size()` over every
    /// message counted in [`messages_received`](Self::messages_received).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// Raw bytes pulled off `read(2)` (preambles and multiplexing tags
    /// included — they are on the wire too). `bytes_read - bytes_received`
    /// is the framing overhead plus whatever is still sitting undecoded in
    /// reassembly buffers.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// `write(2)`/`writev(2)` calls issued (preambles included). With
    /// coalescing, `messages_sent - write_syscalls` frames rode along in a
    /// burst instead of paying their own syscall.
    pub fn write_syscalls(&self) -> u64 {
        self.write_syscalls.load(Ordering::Relaxed)
    }

    /// Frames written to the socket by the *sending* thread itself — the
    /// zero-hop happy path (connection up, no queue): no writer/event-loop
    /// handoff, no context switch. On the Lion happy path nearly every frame
    /// should land here; a low ratio means sends keep finding the connection
    /// down or congested.
    pub fn direct_writes(&self) -> u64 {
        self.direct_writes.load(Ordering::Relaxed)
    }

    /// Gather writes (`writev(2)` via `write_vectored`) issued by the
    /// reactor when draining a multi-frame outbox — each one delivers a
    /// whole burst of queued frames without copying them into a coalescing
    /// buffer first.
    pub fn vectored_writes(&self) -> u64 {
        self.vectored_writes.load(Ordering::Relaxed)
    }

    /// Writes that accepted only part of the offered bytes (kernel send
    /// buffer full). Each one leaves a partially written frame at the head
    /// of an outbox; sustained growth means a peer is not keeping up and
    /// backpressure is doing its job.
    pub fn partial_writes(&self) -> u64 {
        self.partial_writes.load(Ordering::Relaxed)
    }

    /// Frames that were appended to an already-pending burst — each one is
    /// a syscall the coalescing writer saved.
    pub fn frames_coalesced(&self) -> u64 {
        self.frames_coalesced.load(Ordering::Relaxed)
    }

    /// Per-destination serializations avoided by encode-once broadcasts
    /// (`peers - 1` per broadcast) — each one is a full message encode plus
    /// its allocation that the old per-peer path would have paid.
    pub fn encodes_saved(&self) -> u64 {
        self.encodes_saved.load(Ordering::Relaxed)
    }

    /// First connections to an outbound peer: one per peer this endpoint
    /// ever dialled successfully.
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Connections re-established to a peer that already had a live one
    /// (first dials are [`connects`](Self::connects)). A run that never
    /// loses a connection shows zero; every count is a rebuild after a
    /// failed write — the per-peer flakiness signal the replica-health
    /// rollup surfaces.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.load(Ordering::Relaxed)
    }

    /// Counts an established outbound connection as a first dial or, if
    /// the peer `had_connection` before, as a reconnect.
    pub(crate) fn count_connection(&self, had_connection: bool) {
        let counter = if had_connection {
            &self.reconnects
        } else {
            &self.connects
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Shared state every handle, writer and reader of one mesh sees.
#[derive(Debug)]
struct MeshShared {
    addresses: HashMap<NodeId, SocketAddr>,
    stats: Arc<TransportStats>,
    shutdown: AtomicBool,
}

impl MeshShared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }
}

/// A full mesh of TCP endpoints on loopback.
///
/// Binds one listener per node up front (so every address is known before
/// any traffic flows), then hands each node's [`TcpEndpoint`] to its owner
/// thread via [`take_endpoint`](Self::take_endpoint). Dropping the mesh or
/// calling [`shutdown`](Self::shutdown) stops every acceptor, reader and
/// writer thread.
#[derive(Debug)]
pub struct TcpMesh {
    shared: Arc<MeshShared>,
    endpoints: Mutex<HashMap<NodeId, TcpEndpoint>>,
}

impl TcpMesh {
    /// Binds a loopback listener for every node and starts the acceptors.
    pub fn new(nodes: &[NodeId]) -> io::Result<TcpMesh> {
        let mut listeners = Vec::with_capacity(nodes.len());
        let mut addresses = HashMap::with_capacity(nodes.len());
        for &node in nodes {
            let listener = TcpListener::bind("127.0.0.1:0")?;
            addresses.insert(node, listener.local_addr()?);
            listeners.push((node, listener));
        }
        let shared = Arc::new(MeshShared {
            addresses,
            stats: Arc::new(TransportStats::default()),
            shutdown: AtomicBool::new(false),
        });
        let mut endpoints = HashMap::with_capacity(nodes.len());
        for (node, listener) in listeners {
            endpoints.insert(
                node,
                TcpEndpoint::start(node, listener, Arc::clone(&shared))?,
            );
        }
        Ok(TcpMesh {
            shared,
            endpoints: Mutex::new(endpoints),
        })
    }

    /// Hands the endpoint of `node` to its owner. Each endpoint can be taken
    /// once.
    pub fn take_endpoint(&self, node: NodeId) -> Option<TcpEndpoint> {
        self.endpoints.lock().expect("mesh lock").remove(&node)
    }

    /// The loopback address `node` listens on, if it is part of the mesh
    /// (exposed for transport-level benchmarks that drive raw connections).
    pub fn address(&self, node: NodeId) -> Option<SocketAddr> {
        self.shared.addresses.get(&node).copied()
    }

    /// Mesh-wide traffic counters.
    pub fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Stops every acceptor, reader and writer thread of this mesh. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }
}

impl Drop for TcpMesh {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One node's attachment to a [`TcpMesh`]: a cloneable sending [`TcpHandle`]
/// plus the queue of decoded inbound messages.
#[derive(Debug)]
pub struct TcpEndpoint {
    handle: TcpHandle,
    incoming: Receiver<(NodeId, Message)>,
}

impl TcpEndpoint {
    fn start(local: NodeId, listener: TcpListener, shared: Arc<MeshShared>) -> io::Result<Self> {
        let (incoming_tx, incoming) = unbounded();
        listener.set_nonblocking(true)?;
        let accept_shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name(format!("tcp-accept-{local}"))
            .spawn(move || accept_loop(listener, incoming_tx, accept_shared))?;
        Ok(TcpEndpoint {
            handle: TcpHandle {
                local,
                shared,
                writers: Arc::new(Mutex::new(HashMap::new())),
            },
            incoming,
        })
    }

    /// A cloneable sending handle (usable from any thread).
    pub fn handle(&self) -> TcpHandle {
        self.handle.clone()
    }

    /// The queue of decoded inbound messages, tagged with their sender.
    pub fn incoming(&self) -> &Receiver<(NodeId, Message)> {
        &self.incoming
    }
}

impl Transport for TcpEndpoint {
    fn local(&self) -> NodeId {
        self.handle.local
    }

    fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError> {
        self.handle.send(to, message)
    }

    fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        self.handle.broadcast(to, message)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Message), RecvTimeoutError> {
        self.incoming.recv_timeout(timeout)
    }

    fn stats(&self) -> Arc<TransportStats> {
        Arc::clone(&self.handle.shared.stats)
    }
}

/// One peer's outbound state, shared between sender threads (direct-write
/// fast path) and the peer's writer thread (dial / reconnect / backlog).
///
/// The invariant that keeps FIFO trivial: **`stream` is installed only
/// while `backlog` is empty.** Sender threads write directly through the
/// installed stream (one `write(2)` from the sending thread, no writer-
/// thread wakeup, no context switch); whenever the connection is down —
/// initial dial, reconnect after a failed write — frames go to the backlog
/// and the writer thread drains it as coalesced bursts before re-installing
/// the stream. All writes happen under the state mutex, so frames of
/// concurrent senders never interleave mid-frame.
#[derive(Debug)]
struct PeerOutbox {
    state: Mutex<PeerState>,
    /// Signalled when the backlog gains frames (the writer thread's wakeup).
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PeerState {
    /// The established connection, present only when `backlog` is empty.
    stream: Option<TcpStream>,
    /// Frames awaiting the writer thread (connection down or mid-drain).
    backlog: VecDeque<Frame>,
}

/// The sending half of a [`TcpEndpoint`]; cheap to clone and share.
#[derive(Debug, Clone)]
pub struct TcpHandle {
    local: NodeId,
    shared: Arc<MeshShared>,
    /// Outbound state per peer; populated lazily by the first send.
    writers: Arc<Mutex<HashMap<NodeId, Arc<PeerOutbox>>>>,
}

impl TcpHandle {
    /// The node this handle sends as.
    pub fn local(&self) -> NodeId {
        self.local
    }

    /// Encodes `message` (through the thread's reusable scratch buffer) and
    /// queues it for `to`, dialing the peer on first use. Order is FIFO
    /// while a connection lasts; a reconnect re-sends the failed frames
    /// first but may interleave with frames the receiver still holds from
    /// the old connection.
    pub fn send(&self, to: NodeId, message: &Message) -> Result<(), TransportError> {
        self.send_frame(to, self.encode_frame(message))
    }

    /// Encodes `message` once and queues the same shared frame for every
    /// peer in `to` (see [`Transport::broadcast`]). Every peer is attempted;
    /// the first error, if any, is returned afterwards.
    pub fn broadcast(&self, to: &[NodeId], message: &Message) -> Result<(), TransportError> {
        let Some((&last, rest)) = to.split_last() else {
            return Ok(());
        };
        let frame = self.encode_frame(message);
        self.shared
            .stats
            .encodes_saved
            .fetch_add(rest.len() as u64, Ordering::Relaxed);
        let mut first_error = None;
        for &peer in rest {
            if let Err(error) = self.send_frame(peer, frame.clone()) {
                first_error.get_or_insert(error);
            }
        }
        if let Err(error) = self.send_frame(last, frame) {
            first_error.get_or_insert(error);
        }
        match first_error {
            None => Ok(()),
            Some(error) => Err(error),
        }
    }

    /// Builds the shared frame for `message` through the thread-local
    /// encode scratch (one `Arc` allocation, no intermediate `Vec`).
    fn encode_frame(&self, message: &Message) -> Frame {
        ENCODE_SCRATCH.with(|scratch| Frame::encode_with(&mut scratch.borrow_mut(), message))
    }

    /// Queues (or directly writes) an already-encoded frame for `to` — the
    /// fan-out primitive under [`broadcast`](Self::broadcast): one encode is
    /// shared by every peer without re-serializing.
    ///
    /// With the connection up and no backlog pending, the frame is written
    /// to the socket **from the calling thread** — the common case pays one
    /// syscall and zero thread hops. Otherwise the frame joins the peer's
    /// backlog and the writer thread delivers it after (re)connecting.
    pub fn send_frame(&self, to: NodeId, frame: Frame) -> Result<(), TransportError> {
        if self.shared.is_shutdown() {
            return Err(TransportError::Closed);
        }
        let outbox = self.outbox(to)?;
        let mut state = outbox.state.lock().expect("peer outbox lock");
        match state.stream.as_mut() {
            Some(stream) => {
                // Direct write: FIFO holds because every write happens under
                // this lock and the stream is only installed with an empty
                // backlog.
                if stream.write_all(frame.bytes()).is_ok() {
                    let stats = &self.shared.stats;
                    stats
                        .bytes_sent
                        .fetch_add(frame.len() as u64, Ordering::Relaxed);
                    stats.messages_sent.fetch_add(1, Ordering::Relaxed);
                    stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
                    stats.direct_writes.fetch_add(1, Ordering::Relaxed);
                } else {
                    // Connection lost mid-write: hand the frame (and the
                    // connection's future) back to the writer thread. The
                    // peer may observe a duplicate of partially delivered
                    // bytes after the retransmit; cores tolerate that.
                    state.stream = None;
                    state.backlog.push_back(frame);
                    outbox.ready.notify_one();
                }
            }
            None => {
                state.backlog.push_back(frame);
                outbox.ready.notify_one();
            }
        }
        Ok(())
    }

    /// Returns the peer's outbox, spawning its writer thread on first use.
    fn outbox(&self, to: NodeId) -> Result<Arc<PeerOutbox>, TransportError> {
        let addr = *self
            .shared
            .addresses
            .get(&to)
            .ok_or(TransportError::UnknownPeer(to))?;
        let mut writers = self.writers.lock().expect("writer map lock");
        Ok(Arc::clone(writers.entry(to).or_insert_with(|| {
            let outbox = Arc::new(PeerOutbox {
                state: Mutex::new(PeerState::default()),
                ready: Condvar::new(),
            });
            let local = self.local;
            let shared = Arc::clone(&self.shared);
            let thread_outbox = Arc::clone(&outbox);
            std::thread::Builder::new()
                .name(format!("tcp-write-{local}-to-{to}"))
                .spawn(move || writer_loop(local, addr, thread_outbox, shared))
                .expect("spawn writer thread");
            outbox
        })))
    }
}

/// The 16-byte connection preamble identifying the dialing node: magic,
/// codec version, a replica/client tag, two reserved bytes, and the id.
fn encode_preamble(node: NodeId) -> [u8; PREAMBLE_LEN] {
    let (tag, id) = match node {
        NodeId::Replica(ReplicaId(r)) => (0u8, u64::from(r)),
        NodeId::Client(ClientId(c)) => (1u8, c),
    };
    let mut out = [0u8; PREAMBLE_LEN];
    out[..4].copy_from_slice(&MAGIC);
    out[4] = CODEC_VERSION;
    out[5] = tag;
    out[8..16].copy_from_slice(&id.to_le_bytes());
    out
}

fn decode_preamble(bytes: &[u8; PREAMBLE_LEN]) -> Option<NodeId> {
    if bytes[..4] != MAGIC || bytes[4] != CODEC_VERSION {
        return None;
    }
    let id = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    match bytes[5] {
        0 => Some(NodeId::Replica(ReplicaId(u32::try_from(id).ok()?))),
        1 => Some(NodeId::Client(ClientId(id))),
        _ => None,
    }
}

fn accept_loop(
    listener: TcpListener,
    incoming: Sender<(NodeId, Message)>,
    shared: Arc<MeshShared>,
) {
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                let incoming = incoming.clone();
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("tcp-read".to_string())
                    .spawn(move || reader_loop(stream, incoming, shared));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            // Transient accept failures (ECONNABORTED when a peer resets
            // mid-handshake, EMFILE under fd pressure) must not kill the
            // acceptor — that would silently partition this node from every
            // future inbound connection. Back off and keep accepting; the
            // loop exits through the shutdown flag.
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Reads `buf.len()` bytes, tolerating read timeouts, aborting on shutdown.
fn read_full(stream: &mut TcpStream, buf: &mut [u8], shared: &MeshShared) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if shared.is_shutdown() {
            return Err(io::ErrorKind::Interrupted.into());
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                filled += n;
                shared
                    .stats
                    .bytes_read
                    .fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn reader_loop(
    mut stream: TcpStream,
    incoming: Sender<(NodeId, Message)>,
    shared: Arc<MeshShared>,
) {
    let _ = stream.set_read_timeout(Some(POLL * 4));
    let mut preamble = [0u8; PREAMBLE_LEN];
    if read_full(&mut stream, &mut preamble, &shared).is_err() {
        return;
    }
    let Some(peer) = decode_preamble(&preamble) else {
        // Not one of ours; drop the connection.
        return;
    };
    // One read buffer and one FrameReader per connection, both reused for
    // every frame of the connection's lifetime: the read chunk is filled by
    // `read(2)` and drained into the FrameReader, whose internal reassembly
    // buffer amortizes to zero allocations (and stays capacity-bounded —
    // see `FrameReader::compact`).
    let mut frames = FrameReader::new();
    let mut buf = vec![0u8; READ_CHUNK];
    while !shared.is_shutdown() {
        match stream.read(&mut buf) {
            Ok(0) => return, // peer closed
            Ok(n) => {
                shared
                    .stats
                    .bytes_read
                    .fetch_add(n as u64, Ordering::Relaxed);
                frames.push(&buf[..n]);
                loop {
                    // The buffered-bytes delta across a successful decode is
                    // exactly the frame's wire length — what bytes_received
                    // counts (payload traffic, net of framing overhead).
                    let before = frames.buffered();
                    match frames.next_frame() {
                        Ok(Some(message)) => {
                            shared
                                .stats
                                .messages_received
                                .fetch_add(1, Ordering::Relaxed);
                            shared
                                .stats
                                .bytes_received
                                .fetch_add((before - frames.buffered()) as u64, Ordering::Relaxed);
                            if incoming.send((peer, message)).is_err() {
                                return; // receiver gone: endpoint dropped
                            }
                        }
                        Ok(None) => break,
                        // Framing lost; a real deployment would log the peer.
                        Err(_) => return,
                    }
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

/// Dials `addr`, doubling the retry delay from [`INITIAL_BACKOFF`] up to
/// [`MAX_BACKOFF`], until connected or the mesh shuts down.
fn connect_with_backoff(addr: SocketAddr, shared: &MeshShared) -> Option<TcpStream> {
    let mut backoff = INITIAL_BACKOFF;
    loop {
        if shared.is_shutdown() {
            return None;
        }
        match TcpStream::connect_timeout(&addr, MAX_BACKOFF) {
            Ok(stream) => return Some(stream),
            Err(_) => {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(MAX_BACKOFF);
            }
        }
    }
}

/// The writer thread: owns the peer's connection lifecycle. It dials (and
/// re-dials with backoff), writes the identity preamble, then drains the
/// backlog accumulated while the connection was down — **whole queue per
/// wakeup, folded into a single coalesced buffered write per burst** (one
/// syscall per burst, not per frame) — and finally installs the stream into
/// the outbox so sender threads switch to the zero-hop direct-write path.
/// In steady state (connection up, backlog empty) this thread sleeps; it
/// wakes only when a direct write fails and the connection must be rebuilt.
fn writer_loop(local: NodeId, addr: SocketAddr, outbox: Arc<PeerOutbox>, shared: Arc<MeshShared>) {
    // Bytes (whole frames) that failed mid-write and must be retransmitted
    // first after reconnecting, preserving FIFO. The receiver may observe a
    // duplicate of a frame the kernel had partially delivered before the
    // failure; the protocol cores tolerate duplication by design.
    let mut carry_over: Vec<u8> = Vec::new();
    let mut carry_frames: u64 = 0;
    // The burst buffer is reused across writes (capacity bounded by
    // MAX_BURST plus one frame), so steady state allocates nothing.
    let mut burst: Vec<u8> = Vec::new();
    let mut had_connection = false;
    'connection: loop {
        // Sleep until there is something to deliver (or shutdown). The
        // stream, if it existed, was taken down by whoever saw the failure.
        {
            let mut state = outbox.state.lock().expect("peer outbox lock");
            loop {
                if shared.is_shutdown() {
                    return;
                }
                if !state.backlog.is_empty() || !carry_over.is_empty() {
                    break;
                }
                state = outbox
                    .ready
                    .wait_timeout(state, POLL * 10)
                    .expect("peer outbox lock")
                    .0;
            }
        }
        let Some(mut stream) = connect_with_backoff(addr, &shared) else {
            return;
        };
        shared.stats.count_connection(had_connection);
        had_connection = true;
        let _ = stream.set_nodelay(true);
        let preamble = encode_preamble(local);
        if stream.write_all(&preamble).is_err() {
            continue 'connection;
        }
        shared
            .stats
            .bytes_sent
            .fetch_add(PREAMBLE_LEN as u64, Ordering::Relaxed);
        shared.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
        // Drain the backlog in coalesced bursts; once it runs dry, publish
        // the connection for sender threads (direct writes) and go back to
        // waiting.
        loop {
            if shared.is_shutdown() {
                return;
            }
            burst.clear();
            let mut frames: u64 = if carry_over.is_empty() {
                0
            } else {
                burst.extend_from_slice(&carry_over);
                carry_frames
            };
            {
                let mut state = outbox.state.lock().expect("peer outbox lock");
                while burst.len() < MAX_BURST {
                    let Some(frame) = state.backlog.pop_front() else {
                        break;
                    };
                    burst.extend_from_slice(frame.bytes());
                    frames += 1;
                }
                if frames == 0 {
                    // Backlog drained under the lock: hand the stream to the
                    // senders. The next send writes directly, with no writer
                    // wakeup and no thread hop.
                    state.stream = Some(stream);
                    continue 'connection;
                }
            }
            if stream.write_all(&burst).is_err() {
                if shared.is_shutdown() {
                    return;
                }
                std::mem::swap(&mut carry_over, &mut burst);
                carry_frames = frames;
                continue 'connection;
            }
            carry_over.clear();
            carry_frames = 0;
            shared
                .stats
                .bytes_sent
                .fetch_add(burst.len() as u64, Ordering::Relaxed);
            shared
                .stats
                .messages_sent
                .fetch_add(frames, Ordering::Relaxed);
            shared.stats.write_syscalls.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .frames_coalesced
                .fetch_add(frames.saturating_sub(1), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seemore_types::{SeqNum, Timestamp};
    use seemore_wire::{ClientRequest, StateRequest, WireSize};

    fn nodes() -> Vec<NodeId> {
        vec![
            NodeId::Replica(ReplicaId(0)),
            NodeId::Replica(ReplicaId(1)),
            NodeId::Client(ClientId(7)),
        ]
    }

    fn state_request(seq: u64) -> Message {
        Message::StateRequest(StateRequest {
            from_seq: SeqNum(seq),
            replica: ReplicaId(0),
        })
    }

    #[test]
    fn messages_cross_the_mesh_with_sender_identity() {
        let mesh = TcpMesh::new(&nodes()).unwrap();
        let a = mesh.take_endpoint(NodeId::Replica(ReplicaId(0))).unwrap();
        let b = mesh.take_endpoint(NodeId::Replica(ReplicaId(1))).unwrap();

        for seq in 0..10 {
            a.send(NodeId::Replica(ReplicaId(1)), &state_request(seq))
                .unwrap();
        }
        for seq in 0..10 {
            let (from, message) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, NodeId::Replica(ReplicaId(0)));
            assert_eq!(message, state_request(seq), "FIFO on one connection");
        }
        mesh.shutdown();
    }

    #[test]
    fn bytes_on_wire_match_the_size_contract() {
        let mesh = TcpMesh::new(&nodes()).unwrap();
        let client = mesh.take_endpoint(NodeId::Client(ClientId(7))).unwrap();
        let replica = mesh.take_endpoint(NodeId::Replica(ReplicaId(0))).unwrap();

        let message = Message::Request(ClientRequest {
            client: ClientId(7),
            timestamp: Timestamp(1),
            operation: vec![0xEE; 500],
            signature: seemore_crypto::Signature::INVALID,
        });
        client
            .send(NodeId::Replica(ReplicaId(0)), &message)
            .unwrap();
        let (from, received) = replica.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, NodeId::Client(ClientId(7)));
        assert_eq!(received, message);

        let stats = mesh.stats();
        assert_eq!(stats.messages_sent(), 1);
        assert_eq!(stats.messages_received(), 1);
        // Wire bytes = one preamble + exactly wire_size() frame bytes.
        assert_eq!(
            stats.bytes_sent(),
            (PREAMBLE_LEN + message.wire_size()) as u64
        );
        // Raw reads saw everything that was written; the decoded-frame
        // counter excludes the preamble, matching the size contract exactly.
        assert_eq!(stats.bytes_read(), stats.bytes_sent());
        assert_eq!(stats.bytes_received(), message.wire_size() as u64);
        mesh.shutdown();
    }

    #[test]
    fn unknown_peers_are_rejected() {
        let mesh = TcpMesh::new(&nodes()).unwrap();
        let a = mesh.take_endpoint(NodeId::Replica(ReplicaId(0))).unwrap();
        assert_eq!(
            a.send(NodeId::Replica(ReplicaId(42)), &state_request(0)),
            Err(TransportError::UnknownPeer(NodeId::Replica(ReplicaId(42))))
        );
        mesh.shutdown();
        assert_eq!(
            a.send(NodeId::Replica(ReplicaId(1)), &state_request(0)),
            Err(TransportError::Closed)
        );
    }

    #[test]
    fn preamble_round_trips_identities() {
        for node in nodes() {
            assert_eq!(decode_preamble(&encode_preamble(node)), Some(node));
        }
        let mut garbage = encode_preamble(NodeId::Client(ClientId(1)));
        garbage[0] = b'!';
        assert_eq!(decode_preamble(&garbage), None);
    }

    #[test]
    fn broadcast_encodes_once_and_delivers_to_every_peer_in_order() {
        let all: Vec<NodeId> = (0..4).map(|r| NodeId::Replica(ReplicaId(r))).collect();
        let mesh = TcpMesh::new(&all).unwrap();
        let sender = mesh.take_endpoint(all[0]).unwrap();
        let peers: Vec<NodeId> = all[1..].to_vec();
        let receivers: Vec<TcpEndpoint> = peers
            .iter()
            .map(|&node| mesh.take_endpoint(node).unwrap())
            .collect();

        const FRAMES: u64 = 20;
        for seq in 0..FRAMES {
            sender.broadcast(&peers, &state_request(seq)).unwrap();
        }
        for receiver in &receivers {
            for seq in 0..FRAMES {
                let (from, message) = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
                assert_eq!(from, all[0]);
                assert_eq!(message, state_request(seq), "exactly once, FIFO");
            }
            assert!(
                receiver.recv_timeout(Duration::from_millis(50)).is_err(),
                "no duplicate deliveries"
            );
        }
        let stats = mesh.stats();
        // One encode per broadcast; the other peers - 1 copies were shared.
        assert_eq!(stats.encodes_saved(), FRAMES * (peers.len() as u64 - 1));
        assert_eq!(stats.messages_sent(), FRAMES * peers.len() as u64);
        // Accounting identity of the coalescing writer: every sent frame
        // either opened a burst (one syscall, minus the per-connection
        // preamble writes) or rode along in one (coalesced).
        let preambles = peers.len() as u64;
        assert_eq!(
            stats.messages_sent(),
            (stats.write_syscalls() - preambles) + stats.frames_coalesced()
        );
        mesh.shutdown();

        // An empty peer list is a no-op, not an error.
        assert_eq!(sender.broadcast(&[], &state_request(0)), Ok(()));
    }

    #[test]
    fn broadcast_reports_unknown_peers_but_still_reaches_the_rest() {
        let mesh = TcpMesh::new(&nodes()).unwrap();
        let a = mesh.take_endpoint(NodeId::Replica(ReplicaId(0))).unwrap();
        let b = mesh.take_endpoint(NodeId::Replica(ReplicaId(1))).unwrap();
        let ghost = NodeId::Replica(ReplicaId(42));
        assert_eq!(
            a.broadcast(&[ghost, NodeId::Replica(ReplicaId(1))], &state_request(7)),
            Err(TransportError::UnknownPeer(ghost))
        );
        let (_, message) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(message, state_request(7), "known peers still served");
        mesh.shutdown();
    }

    /// Satellite regression: a broadcast's shared frame must reach every
    /// listed peer exactly once even when one peer's writer is
    /// mid-reconnect — the frames queued during the connect backoff (the
    /// carry-over/retransmit path) survive until the peer comes up.
    #[test]
    fn broadcast_survives_a_peer_mid_reconnect() {
        let a = NodeId::Replica(ReplicaId(0));
        let b = NodeId::Replica(ReplicaId(1));
        let c = NodeId::Replica(ReplicaId(2));
        let a_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let c_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        // Reserve a port for b, then close it: a's writer to b will spin in
        // connect backoff (ECONNREFUSED) while the broadcasts are queued.
        let b_addr = {
            let reserved = TcpListener::bind("127.0.0.1:0").unwrap();
            reserved.local_addr().unwrap()
        };
        let shared = Arc::new(MeshShared {
            addresses: HashMap::from([
                (a, a_listener.local_addr().unwrap()),
                (b, b_addr),
                (c, c_listener.local_addr().unwrap()),
            ]),
            stats: Arc::new(TransportStats::default()),
            shutdown: AtomicBool::new(false),
        });
        let sender = TcpEndpoint::start(a, a_listener, Arc::clone(&shared)).unwrap();
        let live = TcpEndpoint::start(c, c_listener, Arc::clone(&shared)).unwrap();

        const FRAMES: u64 = 16;
        for seq in 0..FRAMES {
            sender
                .handle()
                .broadcast(&[b, c], &state_request(seq))
                .unwrap();
        }
        // The live peer drains immediately, proving the shared frames are
        // not held hostage by the unreachable one.
        for seq in 0..FRAMES {
            let (_, message) = live.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(message, state_request(seq));
        }

        // Now bring b up on the reserved address; the writer's backoff loop
        // connects and retransmits the queue.
        std::thread::sleep(Duration::from_millis(20));
        let b_listener = (0..100)
            .find_map(|_| {
                TcpListener::bind(b_addr).ok().or_else(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    None
                })
            })
            .expect("rebind the reserved port for b");
        let late = TcpEndpoint::start(b, b_listener, Arc::clone(&shared)).unwrap();
        for seq in 0..FRAMES {
            let (from, message) = late.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, a);
            assert_eq!(message, state_request(seq), "exactly once, in order");
        }
        assert!(
            late.recv_timeout(Duration::from_millis(100)).is_err(),
            "no frame delivered twice after the reconnect"
        );
        shared.shutdown.store(true, Ordering::Relaxed);
    }

    #[test]
    fn coalescing_accounting_holds_under_concurrent_load() {
        let mesh = TcpMesh::new(&nodes()).unwrap();
        let a = mesh.take_endpoint(NodeId::Replica(ReplicaId(0))).unwrap();
        let b = mesh.take_endpoint(NodeId::Replica(ReplicaId(1))).unwrap();
        const FRAMES: u64 = 500;
        for seq in 0..FRAMES {
            a.send(NodeId::Replica(ReplicaId(1)), &state_request(seq))
                .unwrap();
        }
        for seq in 0..FRAMES {
            let (_, message) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(message, state_request(seq));
        }
        let stats = mesh.stats();
        assert_eq!(stats.messages_sent(), FRAMES);
        assert_eq!(stats.messages_received(), FRAMES);
        // One preamble write, then bursts: sent = bursts + coalesced.
        assert_eq!(
            stats.messages_sent(),
            (stats.write_syscalls() - 1) + stats.frames_coalesced()
        );
        assert!(
            stats.write_syscalls() <= FRAMES + 1,
            "coalescing can never issue more writes than frames"
        );
        mesh.shutdown();
    }

    /// `connects` counts first dials and `reconnects` only re-dials of a
    /// peer that already had a live connection: a fault-free exchange shows
    /// none, a crash and recovery of the peer at least one. The peer is a
    /// bare listener, so the test decides when its connections die.
    #[test]
    fn reconnects_count_only_redials_after_a_lost_connection() {
        let a = NodeId::Replica(ReplicaId(0));
        let b = NodeId::Replica(ReplicaId(1));
        let a_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let b_addr = b_listener.local_addr().unwrap();
        let shared = Arc::new(MeshShared {
            addresses: HashMap::from([(a, a_listener.local_addr().unwrap()), (b, b_addr)]),
            stats: Arc::new(TransportStats::default()),
            shutdown: AtomicBool::new(false),
        });
        let sender = TcpEndpoint::start(a, a_listener, Arc::clone(&shared)).unwrap();
        let stats = sender.stats();
        // The writer counts a connection before it writes the preamble, so
        // reading the preamble orders the count before the assertions.
        let mut preamble = [0u8; PREAMBLE_LEN];

        for seq in 0..8 {
            sender.send(b, &state_request(seq)).unwrap();
        }
        let (mut conn, _) = b_listener.accept().unwrap();
        conn.read_exact(&mut preamble).unwrap();
        assert_eq!(decode_preamble(&preamble), Some(a));
        assert_eq!((stats.connects(), stats.reconnects()), (1, 0));

        // Crash b (connection and listener closed), then recover it on its
        // address; a keeps sending until its failed writes make the writer
        // re-dial.
        drop(conn);
        drop(b_listener);
        let b_listener = (0..100)
            .find_map(|_| {
                TcpListener::bind(b_addr).ok().or_else(|| {
                    std::thread::sleep(Duration::from_millis(10));
                    None
                })
            })
            .expect("rebind b's address");
        b_listener.set_nonblocking(true).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut conn = loop {
            assert!(std::time::Instant::now() < deadline, "a never re-dialled b");
            sender.send(b, &state_request(100)).unwrap();
            match b_listener.accept() {
                Ok((conn, _)) => break conn,
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        };
        conn.set_nonblocking(false).unwrap();
        conn.read_exact(&mut preamble).unwrap();
        assert!(
            stats.reconnects() >= 1,
            "the lost connection was re-dialled"
        );
        assert_eq!(stats.connects(), 1, "a re-dial is not a first dial");
        shared.shutdown.store(true, Ordering::Relaxed);
    }
}
