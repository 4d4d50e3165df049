//! Span recording around the program's public trait objects.
//!
//! The program takes its replica cores, client cores, application and
//! durable store as boxed trait objects; the wrappers here implement those
//! same traits, time every call into the wrapped object and record one span
//! per call. Calls nested on one thread (the application and the store run
//! inside a replica handler) take the enclosing span as their parent, and a
//! span's self time is its duration minus its children's.
//!
//! Each wrapper is owned by one thread at a time, so it buffers spans and
//! per-call totals locally and merges them into the shared [`Tracer`] in
//! chunks and when dropped. Only calls that start inside the measured
//! window are recorded; the span log is bounded and counts what it drops.

use crate::ledger::AppLedger;
use seemore_app::{KvStore, StateMachine};
use seemore_core::actions::{Action, Timer};
use seemore_core::client::{ClientCore, ClientOutcome, ClientProtocol};
use seemore_core::exec::ExecutedEntry;
use seemore_core::metrics::ReplicaMetrics;
use seemore_core::protocol::ReplicaProtocol;
use seemore_crypto::Digest;
use seemore_store::{Durability, DurableCheckpoint, RecoveredState, WalRecord};
use seemore_types::{
    ClientId, Instant as ProtoInstant, Mode, NodeId, OpClass, RequestId, SeqNum, View,
};
use seemore_wire::{Message, MessageKind};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Spans kept for the span log; later ones are counted, not stored.
const SPAN_CAPACITY: usize = 1 << 18;
/// Spans a wrapper buffers before merging into the tracer.
const LOCAL_SPANS: usize = 4096;
/// Messages of each kind kept for the wire and crypto replay.
const SAMPLES_PER_KIND: usize = 32;
/// Messages of each kind one wrapper offers for the replay.
const OFFERS_PER_KIND: usize = 8;

thread_local! {
    /// Id of the span enclosing calls on this thread (0 for none).
    static PARENT: Cell<u64> = const { Cell::new(0) };
    /// Nanoseconds the current span's children have taken so far.
    static CHILD_NS: Cell<u64> = const { Cell::new(0) };
}

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    /// The replica or client the call ran for (clients are offset by 1000).
    pub actor: u32,
    pub name: &'static str,
    pub kind: Option<MessageKind>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<RequestId>,
}

/// Calls and their total duration.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    pub calls: u64,
    pub ns: u64,
}

impl Stat {
    fn add(&mut self, other: Stat) {
        self.calls += other.calls;
        self.ns += other.ns;
    }

    /// Mean duration per call in `unit_ns` units, 0 with no calls.
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// A replica completed a view change into `view`, as its `metrics()` count.
#[derive(Debug, Clone, Copy)]
pub struct ViewEvent {
    pub at_ns: u64,
    pub view: u64,
}

/// The shared sink of one traced run.
pub struct Tracer {
    epoch: Instant,
    in_window: AtomicBool,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
    stats: Mutex<BTreeMap<(&'static str, Option<MessageKind>), Stat>>,
    samples: Mutex<BTreeMap<MessageKind, Vec<Message>>>,
    view_events: Mutex<Vec<ViewEvent>>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Arc<Tracer> {
        Arc::new(Tracer {
            epoch,
            in_window: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            stats: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(BTreeMap::new()),
            view_events: Mutex::new(Vec::new()),
        })
    }

    /// Opens or closes the measured window. Only a statistic: nothing else
    /// is published through it, so `Relaxed` suffices.
    pub fn set_window(&self, open: bool) {
        self.in_window.store(open, Ordering::Relaxed);
    }

    fn recording(&self) -> bool {
        self.in_window.load(Ordering::Relaxed)
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn probe(self: &Arc<Self>, actor: u32) -> Probe {
        Probe {
            tracer: Arc::clone(self),
            actor,
            spans: Vec::new(),
            stats: HashMap::new(),
            offered: HashMap::new(),
        }
    }

    /// Per-call totals merged so far, by span name and message kind.
    pub fn stats(&self) -> BTreeMap<(&'static str, Option<MessageKind>), Stat> {
        self.stats.lock().expect("tracer stats lock").clone()
    }

    pub fn samples(&self) -> BTreeMap<MessageKind, Vec<Message>> {
        self.samples.lock().expect("tracer samples lock").clone()
    }

    pub fn view_events(&self) -> Vec<ViewEvent> {
        let mut events = self.view_events.lock().expect("tracer events lock").clone();
        events.sort_by_key(|e| e.at_ns);
        events
    }

    pub fn spans_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes the span log as CSV, one span per line, ordered by start.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<usize> {
        let mut spans = self.spans.lock().expect("tracer spans lock").clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "id,parent,actor,name,kind,start_ns,end_ns,client,timestamp"
        )?;
        for s in &spans {
            let kind = s.kind.map(kind_name).unwrap_or("");
            let (client, ts) = s.request.map_or((String::new(), String::new()), |r| {
                (r.client.0.to_string(), r.timestamp.0.to_string())
            });
            writeln!(
                out,
                "{},{},{},{},{},{},{},{},{}",
                s.id, s.parent, s.actor, s.name, kind, s.start_ns, s.end_ns, client, ts
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

/// Snake-case name of a message kind, as used in metric names.
pub fn kind_name(kind: MessageKind) -> &'static str {
    match kind {
        MessageKind::Request => "request",
        MessageKind::Reply => "reply",
        MessageKind::ReadRequest => "read_request",
        MessageKind::ReadReply => "read_reply",
        MessageKind::Prepare => "prepare",
        MessageKind::PrePrepare => "pre_prepare",
        MessageKind::Accept => "accept",
        MessageKind::PbftPrepare => "pbft_prepare",
        MessageKind::Commit => "commit",
        MessageKind::Inform => "inform",
        MessageKind::Checkpoint => "checkpoint",
        MessageKind::ViewChange => "view_change",
        MessageKind::NewView => "new_view",
        MessageKind::ModeChange => "mode_change",
        MessageKind::StateRequest => "state_request",
        MessageKind::StateResponse => "state_response",
        MessageKind::Redirect => "redirect",
        MessageKind::Recovery => "recovery",
    }
}

/// The request a message is about, where it names one.
fn request_of(message: &Message) -> Option<RequestId> {
    match message {
        Message::Request(r) => Some(r.id()),
        Message::Reply(r) => Some(r.request),
        Message::ReadRequest(r) => Some(RequestId::new(r.client, r.nonce)),
        Message::ReadReply(r) => Some(r.request),
        Message::Prepare(p) => p.batch.requests().first().map(|r| r.id()),
        Message::PrePrepare(p) => p.batch.requests().first().map(|r| r.id()),
        _ => None,
    }
}

/// A span being timed.
pub struct Open {
    id: u64,
    parent: u64,
    start: Instant,
    start_ns: u64,
    saved_child_ns: u64,
    recording: bool,
}

/// One wrapper's recorder: buffers spans, totals and message samples
/// locally and merges them into the [`Tracer`].
pub struct Probe {
    tracer: Arc<Tracer>,
    actor: u32,
    spans: Vec<Span>,
    stats: HashMap<(&'static str, Option<MessageKind>), Stat>,
    offered: HashMap<MessageKind, usize>,
}

impl Probe {
    pub fn begin(&self) -> Open {
        let recording = self.tracer.recording();
        let id = if recording {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        let parent = PARENT.with(|p| p.replace(id));
        Open {
            id,
            parent,
            start: Instant::now(),
            start_ns: if recording { self.tracer.now_ns() } else { 0 },
            saved_child_ns: CHILD_NS.with(|c| c.replace(0)),
            recording,
        }
    }

    /// Closes `open`, returning its self time (duration minus children).
    pub fn end(
        &mut self,
        open: Open,
        name: &'static str,
        kind: Option<MessageKind>,
        request: Option<RequestId>,
    ) -> u64 {
        let dur = u64::try_from(open.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        PARENT.with(|p| p.set(open.parent));
        let children = CHILD_NS.with(|c| c.replace(open.saved_child_ns + dur));
        let self_ns = dur.saturating_sub(children);
        if open.recording {
            self.count(name, kind, Stat { calls: 1, ns: dur });
            self.spans.push(Span {
                id: open.id,
                parent: open.parent,
                actor: self.actor,
                name,
                kind,
                start_ns: open.start_ns,
                end_ns: open.start_ns + dur,
                request,
            });
            if self.spans.len() >= LOCAL_SPANS {
                self.flush();
            }
        }
        self_ns
    }

    /// Adds to a total without a span (self times, counts).
    pub fn count(&mut self, name: &'static str, kind: Option<MessageKind>, stat: Stat) {
        self.stats.entry((name, kind)).or_default().add(stat);
    }

    pub fn recording(&self) -> bool {
        self.tracer.recording()
    }

    /// Offers a received message for the wire and crypto replay.
    fn offer(&mut self, message: &Message) {
        if !self.tracer.recording() {
            return;
        }
        let kind = message.kind();
        let offered = self.offered.entry(kind).or_default();
        if *offered >= OFFERS_PER_KIND {
            return;
        }
        *offered += 1;
        let mut samples = self.tracer.samples.lock().expect("tracer samples lock");
        let list = samples.entry(kind).or_default();
        if list.len() < SAMPLES_PER_KIND {
            list.push(message.clone());
        }
    }

    fn flush(&mut self) {
        {
            let mut spans = self.tracer.spans.lock().expect("tracer spans lock");
            let room = SPAN_CAPACITY.saturating_sub(spans.len());
            let keep = room.min(self.spans.len());
            self.tracer
                .dropped
                .fetch_add((self.spans.len() - keep) as u64, Ordering::Relaxed);
            spans.extend(self.spans.drain(..keep));
            self.spans.clear();
        }
        let mut stats = self.tracer.stats.lock().expect("tracer stats lock");
        for (key, stat) in self.stats.drain() {
            stats.entry(key).or_default().add(stat);
        }
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // A poisoned lock means another thread already panicked; losing this
        // wrapper's totals then does not matter, and Drop must not panic.
        if self.tracer.spans.is_poisoned() || self.tracer.stats.is_poisoned() {
            return;
        }
        self.flush();
    }
}

/// Times every call into a replica core.
pub struct TracedReplica {
    inner: Box<dyn ReplicaProtocol>,
    probe: Probe,
    /// View changes completed and stable checkpoints, as last counted.
    seen: (u64, u64),
}

impl TracedReplica {
    pub fn new(inner: Box<dyn ReplicaProtocol>, tracer: &Arc<Tracer>) -> Self {
        let actor = inner.id().0;
        let metrics = inner.metrics();
        let seen = (metrics.view_changes_completed, metrics.stable_checkpoints);
        TracedReplica {
            inner,
            probe: tracer.probe(actor),
            seen,
        }
    }

    fn handled(
        &mut self,
        open: Open,
        name: &'static str,
        kind: Option<MessageKind>,
        request: Option<RequestId>,
    ) {
        let recording = open.recording;
        let self_ns = self.probe.end(open, name, kind, request);
        if recording {
            self.probe.count(
                "core.self",
                None,
                Stat {
                    calls: 1,
                    ns: self_ns,
                },
            );
        }
        self.watch_metrics();
    }

    /// Notes view changes and stable checkpoints as the core counts them.
    fn watch_metrics(&mut self) {
        let m = self.inner.metrics();
        let now = (m.view_changes_completed, m.stable_checkpoints);
        if now.0 > self.seen.0 {
            let event = ViewEvent {
                at_ns: self.probe.tracer.now_ns(),
                view: self.inner.view().0,
            };
            self.probe
                .tracer
                .view_events
                .lock()
                .expect("tracer events lock")
                .push(event);
        }
        if now.1 > self.seen.1 && self.probe.recording() {
            let stat = Stat {
                calls: now.1 - self.seen.1,
                ns: 0,
            };
            self.probe.count("core.stable_checkpoint", None, stat);
        }
        self.seen = now;
    }
}

impl ReplicaProtocol for TracedReplica {
    fn id(&self) -> seemore_types::ReplicaId {
        self.inner.id()
    }

    fn on_start(&mut self, now: ProtoInstant) -> Vec<Action> {
        let open = self.probe.begin();
        let actions = self.inner.on_start(now);
        self.handled(open, "replica.on_start", None, None);
        actions
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: ProtoInstant) -> Vec<Action> {
        let kind = message.kind();
        let request = request_of(&message);
        self.probe.offer(&message);
        let open = self.probe.begin();
        let actions = self.inner.on_message(from, message, now);
        self.handled(open, "replica.on_message", Some(kind), request);
        actions
    }

    fn on_timer(&mut self, timer: Timer, now: ProtoInstant) -> Vec<Action> {
        let open = self.probe.begin();
        let actions = self.inner.on_timer(timer, now);
        self.handled(open, "replica.on_timer", None, None);
        actions
    }

    fn view(&self) -> View {
        self.inner.view()
    }

    fn mode(&self) -> Mode {
        self.inner.mode()
    }

    fn executed(&self) -> &[ExecutedEntry] {
        self.inner.executed()
    }

    fn metrics(&self) -> &ReplicaMetrics {
        self.inner.metrics()
    }

    fn request_mode_switch(&mut self, mode: Mode, now: ProtoInstant) -> Vec<Action> {
        self.inner.request_mode_switch(mode, now)
    }

    fn is_crashed(&self) -> bool {
        self.inner.is_crashed()
    }

    fn crash(&mut self) {
        self.inner.crash()
    }
}

/// The benchmark's client: a [`ClientCore`] that gives an operation up once
/// it has waited `patience` (so a stalled cluster counts failures instead
/// of hanging the run), and, in a traced run, times every call.
pub struct BenchClient {
    inner: ClientCore,
    patience: Duration,
    deadline: Option<Instant>,
    probe: Option<Probe>,
}

impl BenchClient {
    pub fn new(inner: ClientCore, patience: Duration, tracer: Option<&Arc<Tracer>>) -> Self {
        let actor = 1000 + inner.id().0 as u32;
        BenchClient {
            inner,
            patience,
            deadline: None,
            probe: tracer.map(|t| t.probe(actor)),
        }
    }

    pub fn view(&self) -> View {
        self.inner.view()
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        kind: Option<MessageKind>,
        request: Option<RequestId>,
        call: impl FnOnce(&mut ClientCore) -> T,
    ) -> T {
        match self.probe.as_ref().map(Probe::begin) {
            Some(open) => {
                let out = call(&mut self.inner);
                if let Some(probe) = self.probe.as_mut() {
                    probe.end(open, name, kind, request);
                }
                out
            }
            None => call(&mut self.inner),
        }
    }
}

impl ClientProtocol for BenchClient {
    fn id(&self) -> ClientId {
        self.inner.id()
    }

    fn submit(&mut self, operation: Vec<u8>, now: ProtoInstant) -> Vec<Action> {
        self.submit_op(operation, OpClass::Write, now)
    }

    fn submit_op(&mut self, operation: Vec<u8>, class: OpClass, now: ProtoInstant) -> Vec<Action> {
        self.give_up_expired();
        self.deadline = Some(Instant::now() + self.patience);
        self.timed("client.submit", None, None, |c| {
            c.submit_op(operation, class, now)
        })
    }

    fn on_message(&mut self, from: NodeId, message: Message, now: ProtoInstant) -> Vec<Action> {
        let kind = message.kind();
        let request = request_of(&message);
        if let Some(probe) = self.probe.as_mut() {
            probe.offer(&message);
        }
        self.timed("client.on_message", Some(kind), request, |c| {
            c.on_message(from, message, now)
        })
    }

    fn on_retransmit_timer(&mut self, now: ProtoInstant) -> Vec<Action> {
        self.timed("client.retransmit", None, None, |c| {
            c.on_retransmit_timer(now)
        })
    }

    fn completed(&self) -> &[ClientOutcome] {
        self.inner.completed()
    }

    fn take_completed(&mut self) -> Vec<ClientOutcome> {
        self.inner.take_completed()
    }

    /// Reports an operation that has waited past its deadline as no longer
    /// pending, which ends the runtime's wait for it; the next submit (or
    /// [`give_up_expired`](Self::give_up_expired)) withdraws it.
    fn has_pending(&self) -> bool {
        self.inner.has_pending() && !self.expired()
    }

    fn retransmissions(&self) -> u64 {
        self.inner.retransmissions()
    }

    fn cancel_pending(&mut self) -> bool {
        self.inner.cancel_pending()
    }

    fn pending_request(&self) -> Option<RequestId> {
        self.inner.pending_request()
    }
}

impl BenchClient {
    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Withdraws an operation the runtime stopped waiting for.
    pub fn give_up_expired(&mut self) {
        if self.inner.has_pending() && self.expired() {
            self.inner.cancel_pending();
        }
    }
}

/// The application every replica runs: the preloaded [`KvStore`], with the
/// correctness gate's bookkeeping (see [`AppLedger`]) and, in a traced run,
/// a span per call.
pub struct CheckedApp {
    inner: KvStore,
    replica: u32,
    ledger: Arc<AppLedger>,
    /// Behind a cell because the read-side calls take `&self`; the app is
    /// driven by one replica thread at a time.
    probe: RefCell<Option<Probe>>,
}

impl CheckedApp {
    pub fn new(
        inner: KvStore,
        replica: u32,
        ledger: Arc<AppLedger>,
        tracer: Option<&Arc<Tracer>>,
    ) -> Self {
        CheckedApp {
            inner,
            replica,
            ledger,
            probe: RefCell::new(tracer.map(|t| t.probe(replica))),
        }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.probe.borrow().as_ref().map(Probe::begin);
        let out = call();
        if let (Some(open), Some(probe)) = (open, self.probe.borrow_mut().as_mut()) {
            probe.end(open, name, None, None);
        }
        out
    }
}

impl StateMachine for CheckedApp {
    fn execute(&mut self, op: &[u8]) -> Vec<u8> {
        let open = self.probe.get_mut().as_ref().map(Probe::begin);
        let result = self.inner.execute(op);
        if let (Some(open), Some(probe)) = (open, self.probe.get_mut().as_mut()) {
            probe.end(open, "app.execute", None, None);
        }
        self.ledger
            .executed(self.replica, self.inner.executed_count(), op, &result);
        result
    }

    fn execute_read(&self, op: &[u8]) -> Option<Vec<u8>> {
        self.timed("app.execute_read", || self.inner.execute_read(op))
    }

    fn state_digest(&self) -> Digest {
        let digest = self.timed("app.state_digest", || self.inner.state_digest());
        self.ledger
            .digest(self.replica, self.inner.executed_count(), digest);
        digest
    }

    fn snapshot(&self) -> Vec<u8> {
        self.timed("app.snapshot", || self.inner.snapshot())
    }

    /// Restores, then digests the restored state so the gate can check it
    /// against the checkpoint digests other replicas computed. That digest
    /// is gate work, outside the `app.restore` span.
    fn restore(&mut self, snapshot: &[u8]) {
        let open = self.probe.get_mut().as_ref().map(Probe::begin);
        self.inner.restore(snapshot);
        if let (Some(open), Some(probe)) = (open, self.probe.get_mut().as_mut()) {
            probe.end(open, "app.restore", None, None);
        }
        let count = self.inner.executed_count();
        let digest = self.inner.state_digest();
        self.ledger.restored(self.replica, count, digest);
    }

    fn executed_count(&self) -> u64 {
        self.inner.executed_count()
    }
}

/// Times every call into a durable store.
pub struct TracedStore {
    inner: Arc<dyn Durability>,
    probe: Mutex<Probe>,
}

impl TracedStore {
    pub fn new(inner: Arc<dyn Durability>, replica: u32, tracer: &Arc<Tracer>) -> Self {
        TracedStore {
            inner,
            probe: Mutex::new(tracer.probe(replica)),
        }
    }

    fn timed<T>(&self, name: &'static str, call: impl FnOnce(&dyn Durability) -> T) -> T {
        let mut probe = self.probe.lock().expect("store probe lock");
        let open = probe.begin();
        let out = call(self.inner.as_ref());
        probe.end(open, name, None, None);
        out
    }
}

impl Durability for TracedStore {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn append(&self, record: &WalRecord) {
        self.timed("store.append", |s| s.append(record))
    }

    fn persist_checkpoint(&self, checkpoint: &DurableCheckpoint) {
        self.timed("store.persist_checkpoint", |s| {
            s.persist_checkpoint(checkpoint)
        })
    }

    fn compact_below(&self, seq: SeqNum) {
        self.timed("store.compact_below", |s| s.compact_below(seq))
    }

    fn recover(&self) -> Option<RecoveredState> {
        let state = self.timed("store.recover", |s| s.recover());
        let mut probe = self.probe.lock().expect("store probe lock");
        if probe.recording() {
            let replayed = state.as_ref().map_or(0, |s| s.wal.len() as u64);
            probe.count(
                "store.wal_replayed",
                None,
                Stat {
                    calls: 1,
                    ns: replayed,
                },
            );
        }
        state
    }
}
