//! One pass of a workload: set the cluster up, warm it, measure a window,
//! shut it down and hand back everything measured.

use crate::gauge::Gauge;
use crate::ledger::{Agreement, AppLedger};
use crate::sys::{self, Sched};
use crate::trace::{BenchClient, CheckedApp, TracedReplica, TracedStore, Tracer};
use crate::workload::{classify_reply, preloaded_store, OpStream, Reply, Stamp, Workload};
use seemore_app::KvStore;
use seemore_core::client::ClientCore;
use seemore_core::config::ProtocolConfig;
use seemore_core::protocol::ReplicaProtocol;
use seemore_core::replica::SeeMoReReplica;
use seemore_crypto::KeyStore;
use seemore_runtime::{SocketCluster, SocketOptions};
use seemore_store::{Durability, FileStore, StoreConfig};
use seemore_types::{ClientId, ClusterConfig, ReplicaId, View};
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The window is measured in slices of about this length. Each slice's
/// times and rates are scaled to reference speed by the gauge's readings in
/// it; rates are reported as medians over slices, so a burst of outside
/// load on the machine moves one slice, not the result.
const SLICE: Duration = Duration::from_secs(1);
/// Closed-loop clients, one thread each.
pub const CLIENTS: u32 = 2;
/// How long an operation may wait for its reply before it counts as
/// failed: ten client retransmission timeouts.
const PATIENCE: Duration = Duration::from_secs(5);
/// Where in the window `lion-durable-crash` crashes the primary, and when it
/// recovers it: long after the view change the crash causes, so the two do
/// not race. One cycle per run: a replica recovered at the parent commit
/// does not always reach the cluster head again, and crashing the next
/// primary while it trails makes later cycles, and the whole run, erratic.
const CRASH_AT: f64 = 0.25;
const RECOVER_AT: f64 = 0.5;
/// How long the clients are held before the crash, so the replicas finish
/// agreeing on the last operations, and after it: a replica thread takes a
/// crash command between messages or at its next wake-up (at most 50 ms when
/// idle), and a request that reached the primary first would be proposed
/// before it died, giving the backups a stalled slot to time out on instead
/// of leaving the client to notice. Holding both sides makes every run's
/// crash the same: an idle primary, dead before the next request.
const QUIESCE: Duration = Duration::from_millis(50);
const SETTLE: Duration = Duration::from_millis(100);

/// The deployment every workload runs: c = 1 and m = 1, so six replicas.
pub fn cluster() -> ClusterConfig {
    ClusterConfig::minimal(1, 1).expect("c = 1, m = 1 is a valid cluster")
}

/// The keys of a run: every replica and client of [`cluster`].
pub fn keystore(seed: u64) -> KeyStore {
    KeyStore::generate(seed, cluster().total_size(), u64::from(CLIENTS))
}

/// Lets the crash schedule stop the clients between operations.
#[derive(Default)]
struct Pause {
    held: AtomicBool,
    waiting: AtomicU32,
}

impl Pause {
    /// Called by a client before each operation.
    fn wait_if_held(&self) {
        if !self.held.load(Ordering::SeqCst) {
            return;
        }
        self.waiting.fetch_add(1, Ordering::SeqCst);
        while self.held.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_micros(100));
        }
        self.waiting.fetch_sub(1, Ordering::SeqCst);
    }

    /// Holds the clients and waits until `clients` of them are waiting, or
    /// until `limit`.
    fn hold(&self, clients: u32, limit: Instant) {
        self.held.store(true, Ordering::SeqCst);
        while self.waiting.load(Ordering::SeqCst) < clients && Instant::now() < limit {
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    fn release(&self) {
        self.held.store(false, Ordering::SeqCst);
    }
}

/// What the benchmark asks of one pass.
#[derive(Clone, Copy)]
pub struct Plan<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub warmup: Duration,
    pub window: Duration,
    pub tracer: Option<&'a Arc<Tracer>>,
    /// Directory for durable stores (created and removed by the pass).
    pub store_dir: &'a Path,
    pub epoch: Instant,
    /// The CPU the whole process runs on.
    pub cpu: usize,
}

/// One issued operation.
#[derive(Debug, Clone, Copy)]
pub struct OpRecord {
    pub issued_ns: u64,
    pub done_ns: u64,
    pub key: u32,
    pub put: Option<Stamp>,
    /// `None` when the operation was given up without a reply.
    pub reply: Option<Reply>,
}

/// One crash-recover cycle of the primary.
#[derive(Debug, Clone, Copy)]
pub struct Cycle {
    pub replica: u32,
    /// When the crashed primary had surely stopped and the clients were
    /// let go again.
    pub crash_ns: u64,
    pub recover_ns: u64,
    /// When the recovered replica reached the cluster head, or, if it had
    /// not, when the wait for it ended.
    pub rejoin_ns: u64,
    pub rejoined: bool,
}

/// Counters read at a slice boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mark {
    /// Nanoseconds since the epoch.
    pub at_ns: u64,
    /// CPU time of the whole process so far.
    pub cpu_ns: u64,
    /// Time the hypervisor has stolen from the run's CPU so far.
    pub stolen_ns: u64,
}

/// Transport counters over the window.
#[derive(Debug, Clone, Copy, Default)]
pub struct Net {
    pub messages: u64,
    pub bytes: u64,
    pub write_syscalls: u64,
    pub vectored_writes: u64,
    /// Outbound connections made over the whole pass (first dials included).
    pub reconnects: u64,
}

/// Everything one pass measured.
pub struct Pass {
    /// Time this pass's own set-up took.
    pub setup_s: f64,
    pub window: (u64, u64),
    pub ops: Vec<OpRecord>,
    /// The window's start and the end of each of its slices.
    pub marks: Vec<Mark>,
    pub groups: BTreeMap<String, Sched>,
    /// Share of the run's CPU time the hypervisor stole over the window.
    pub steal_share: f64,
    /// The host-speed gauge's samples over the pass: `(ns since the
    /// epoch, ns one piece of its work took)`.
    pub gauge: Vec<(u64, u64)>,
    pub net: Net,
    pub cycles: Vec<Cycle>,
    /// Highest view any replica reached by shutdown.
    pub final_view: u64,
    /// View changes the replicas completed, summed over replicas.
    pub view_changes_completed: u64,
    /// The replicas' agreement, or where they disagreed.
    pub agreement: Result<Agreement, String>,
}

impl Pass {
    /// Process CPU time over the whole window.
    pub fn cpu_ns(&self) -> u64 {
        match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => last.cpu_ns - first.cpu_ns,
            _ => 0,
        }
    }
}

/// A spawned cluster with everything needed to drive and recover it.
struct Deployment {
    cluster: SocketCluster,
    clients: Vec<BenchClient>,
    streams: Vec<OpStream>,
    ledger: Arc<AppLedger>,
    stores: Vec<Option<Arc<dyn Durability>>>,
    template: KvStore,
    keystore: KeyStore,
    config: ClusterConfig,
    first_op: OpRecord,
}

fn ns_since(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn replica_app(
    template: &KvStore,
    replica: u32,
    ledger: &Arc<AppLedger>,
    tracer: Option<&Arc<Tracer>>,
) -> Box<CheckedApp> {
    Box::new(CheckedApp::new(
        template.clone(),
        replica,
        Arc::clone(ledger),
        tracer,
    ))
}

fn traced_store(
    store: &Arc<dyn Durability>,
    replica: u32,
    tracer: Option<&Arc<Tracer>>,
) -> Arc<dyn Durability> {
    match tracer {
        Some(t) => Arc::new(TracedStore::new(Arc::clone(store), replica, t)),
        None => Arc::clone(store),
    }
}

fn boxed(core: SeeMoReReplica, tracer: Option<&Arc<Tracer>>) -> Box<dyn ReplicaProtocol> {
    match tracer {
        Some(t) => Box::new(TracedReplica::new(Box::new(core), t)),
        None => Box::new(core),
    }
}

/// Runs one client operation to completion (or until it is given up).
fn run_op(
    cluster: &SocketCluster,
    client: BenchClient,
    stream_op: crate::workload::Op,
    epoch: Instant,
) -> (BenchClient, OpRecord) {
    let class = stream_op.class;
    let issued_ns = ns_since(epoch);
    let mut payload = Some((stream_op.bytes, class));
    let (mut client, outcomes) =
        cluster.run_client(client, 1, ProtocolConfig::default().client_timeout, |_| {
            payload.take().expect("one operation per call")
        });
    client.give_up_expired();
    let record = OpRecord {
        issued_ns,
        done_ns: ns_since(epoch),
        key: stream_op.key,
        put: stream_op.put,
        reply: outcomes.first().map(|o| classify_reply(class, &o.result)),
    };
    (client, record)
}

/// Builds the keys, the preloaded replicas and the mesh, and commits a
/// first operation: everything `setup_s` times.
fn deploy(plan: &Plan) -> Deployment {
    let workload = plan.workload;
    let pconfig = ProtocolConfig::default();
    let config = cluster();
    let keystore = keystore(plan.seed);
    let template = preloaded_store(workload.keys);
    let ledger = AppLedger::new(config.total_size() as usize);
    let mut stores = Vec::new();
    let mut replicas = Vec::new();
    for replica in config.replicas() {
        let mut core = SeeMoReReplica::new(
            replica,
            config,
            pconfig,
            keystore.clone(),
            workload.mode,
            replica_app(&template, replica.0, &ledger, plan.tracer),
        );
        let store = workload.durable_crash.then(|| {
            let dir = plan.store_dir.join(format!("replica-{}", replica.0));
            let store: Arc<dyn Durability> = Arc::new(
                FileStore::open(&dir, StoreConfig::default())
                    .expect("open the replica's store directory"),
            );
            core.set_store(traced_store(&store, replica.0, plan.tracer));
            store
        });
        stores.push(store);
        replicas.push(boxed(core, plan.tracer));
    }
    let client_ids: Vec<ClientId> = (0..u64::from(CLIENTS)).map(ClientId).collect();
    let cluster = SocketCluster::spawn_with(
        replicas,
        &client_ids,
        // The default options are the deployable shape: the reactor mesh
        // with encode-once broadcasts; clients share its hub connections.
        SocketOptions {
            client_mux: true,
            ..SocketOptions::default()
        },
    )
    .expect("bind the loopback mesh");
    let mut clients: Vec<BenchClient> = client_ids
        .iter()
        .map(|id| {
            BenchClient::new(
                ClientCore::new(
                    *id,
                    config,
                    keystore.clone(),
                    workload.mode,
                    pconfig.client_timeout,
                ),
                PATIENCE,
                plan.tracer,
            )
        })
        .collect();
    let mut streams: Vec<OpStream> = (0..CLIENTS)
        .map(|i| OpStream::new(workload, plan.seed, i))
        .collect();
    let first = streams[0].put(0);
    let (client, first_op) = run_op(&cluster, clients.remove(0), first, plan.epoch);
    clients.insert(0, client);
    Deployment {
        cluster,
        clients,
        streams,
        ledger,
        stores,
        template,
        keystore,
        config,
        first_op,
    }
}

/// Sets the cluster up in a fresh store directory and times it.
fn timed_deploy(plan: &Plan) -> (Deployment, f64) {
    let _ = std::fs::remove_dir_all(plan.store_dir);
    let start = Instant::now();
    let deployment = deploy(plan);
    let setup_s = start.elapsed().as_secs_f64();
    let first = deployment.first_op.reply;
    assert_eq!(
        first,
        Some(Reply::PutOk),
        "the set-up's first operation failed"
    );
    (deployment, setup_s)
}

/// Sets the cluster up once: one `setup_s` sample. The cluster is left
/// running; the caller is a probe process that exits right after.
pub fn setup_only(plan: &Plan) -> f64 {
    let (deployment, setup_s) = timed_deploy(plan);
    std::mem::forget(deployment);
    setup_s
}

/// Runs `plan`: set-up, warm-up and measured window.
pub fn run(plan: &Plan) -> Pass {
    let (deployment, setup_s) = timed_deploy(plan);
    let pass = drive(plan, deployment, setup_s);
    let _ = std::fs::remove_dir_all(plan.store_dir);
    pass
}

fn net_now(cluster: &SocketCluster) -> Net {
    let stats = cluster.stats();
    Net {
        messages: stats.messages_sent(),
        bytes: stats.bytes_sent(),
        write_syscalls: stats.write_syscalls(),
        vectored_writes: stats.vectored_writes(),
        reconnects: stats.reconnects(),
    }
}

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

fn drive(plan: &Plan, deployment: Deployment, setup_s: f64) -> Pass {
    let Deployment {
        cluster,
        clients,
        streams,
        ledger,
        stores,
        template,
        keystore,
        config,
        first_op,
    } = deployment;
    let w0 = Instant::now() + plan.warmup;
    let w1 = w0 + plan.window;
    let at_ns =
        |at: Instant| u64::try_from(at.duration_since(plan.epoch).as_nanos()).unwrap_or(u64::MAX);
    let window = (at_ns(w0), at_ns(w1));
    let view_seen = AtomicU64::new(0);
    let closed = Barrier::new(CLIENTS as usize + 1);
    let pause = Pause::default();
    let gauge = Gauge::default();

    let (ops, cycles, marks, groups, steal_share, net) = std::thread::scope(|scope| {
        let gauge_thread = {
            let gauge = &gauge;
            std::thread::Builder::new()
                .name("gauge".into())
                .spawn_scoped(scope, move || gauge.run(plan.epoch))
                .expect("spawn the gauge thread")
        };
        let mut handles = Vec::new();
        for (index, (client, stream)) in clients.into_iter().zip(streams).enumerate() {
            let cluster = &cluster;
            let view_seen = &view_seen;
            let closed = &closed;
            let pause = &pause;
            let epoch = plan.epoch;
            let handle = std::thread::Builder::new()
                .name(format!("client-{index}"))
                .spawn_scoped(scope, move || {
                    let mut client = client;
                    let mut stream = stream;
                    let mut records = Vec::new();
                    while Instant::now() < w1 {
                        pause.wait_if_held();
                        let op = stream.next_op();
                        let (c, record) = run_op(cluster, client, op, epoch);
                        client = c;
                        records.push(record);
                        view_seen.fetch_max(client.view().0, Ordering::Relaxed);
                    }
                    // Stay alive until the window's closing snapshot has
                    // read this thread's counters.
                    closed.wait();
                    records
                })
                .expect("spawn a client thread");
            handles.push(handle);
        }

        let crasher = plan.workload.durable_crash.then(|| {
            let cluster = &cluster;
            let view_seen = &view_seen;
            let pause = &pause;
            let ledger = &ledger;
            let stores = &stores;
            let template = &template;
            let keystore = &keystore;
            std::thread::Builder::new()
                .name("crasher".into())
                .spawn_scoped(scope, move || {
                    sleep_until(w0 + plan.window.mul_f64(CRASH_AT));
                    let view = View(view_seen.load(Ordering::Relaxed));
                    let primary = config
                        .primary(plan.workload.mode, view)
                        .expect("the mode has a primary");
                    pause.hold(CLIENTS, Instant::now() + Duration::from_secs(1));
                    std::thread::sleep(QUIESCE);
                    let stale = ledger.executed_count(primary.0);
                    cluster.crash(primary);
                    std::thread::sleep(SETTLE);
                    let crash_ns = ns_since(plan.epoch);
                    pause.release();
                    sleep_until(w0 + plan.window.mul_f64(RECOVER_AT));
                    let store = stores[primary.0 as usize]
                        .as_ref()
                        .expect("durable replicas have stores");
                    let core = SeeMoReReplica::recover(
                        primary,
                        config,
                        ProtocolConfig::default(),
                        keystore.clone(),
                        plan.workload.mode,
                        replica_app(template, primary.0, ledger, plan.tracer),
                        traced_store(store, primary.0, plan.tracer),
                    );
                    let recover_ns = ns_since(plan.epoch);
                    cluster.recover(primary, boxed(core, plan.tracer));
                    let rejoined = wait_rejoin(ledger, primary, stale, w1);
                    vec![Cycle {
                        replica: primary.0,
                        crash_ns,
                        recover_ns,
                        rejoin_ns: ns_since(plan.epoch),
                        rejoined,
                    }]
                })
                .expect("spawn the crash thread")
        });

        sleep_until(w0);
        let sched0 = sys::thread_sched();
        let steal0 = sys::cpu_steal_ticks(plan.cpu);
        let net0 = net_now(&cluster);
        if let Some(t) = plan.tracer {
            t.set_window(true);
        }
        let mark = || Mark {
            at_ns: ns_since(plan.epoch),
            cpu_ns: sys::process_cpu_ns(),
            stolen_ns: sys::cpu_steal_ticks(plan.cpu).0 * sys::NS_PER_TICK,
        };
        let mut marks = vec![mark()];
        let slices = (plan.window.as_secs_f64() / SLICE.as_secs_f64())
            .round()
            .max(1.0) as u32;
        for i in 1..=slices {
            sleep_until(w0 + plan.window * i / slices);
            marks.push(mark());
        }
        if let Some(t) = plan.tracer {
            t.set_window(false);
        }
        let sched1 = sys::thread_sched();
        let steal1 = sys::cpu_steal_ticks(plan.cpu);
        let net1 = net_now(&cluster);
        closed.wait();
        let net = Net {
            messages: net1.messages - net0.messages,
            bytes: net1.bytes - net0.bytes,
            write_syscalls: net1.write_syscalls - net0.write_syscalls,
            vectored_writes: net1.vectored_writes - net0.vectored_writes,
            reconnects: net1.reconnects,
        };
        let mut ops = vec![first_op];
        for handle in handles {
            ops.extend(handle.join().expect("client thread"));
        }
        let cycles = crasher
            .map(|h| h.join().expect("crash thread"))
            .unwrap_or_default();
        gauge.stop();
        gauge_thread
            .join()
            .expect("gauge thread")
            .expect("the gauge's loopback connection");
        (
            ops,
            cycles,
            marks,
            sys::group_delta(&sched0, &sched1),
            (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64,
            net,
        )
    });

    let cores = cluster.shutdown();
    let final_view = cores.iter().map(|c| c.view().0).max().unwrap_or(0);
    let view_changes_completed = cores
        .iter()
        .map(|c| c.metrics().view_changes_completed)
        .sum();
    drop(cores);
    drop(stores);
    let agreement = ledger.check(&template);
    Pass {
        setup_s,
        window,
        ops,
        marks,
        groups,
        steal_share,
        gauge: gauge.samples(),
        net,
        cycles,
        final_view,
        view_changes_completed,
        agreement,
    }
}

/// Waits until `replica`, restarted after it had executed `stale`
/// operations, has executed as many as any other replica while the cluster
/// has moved past `stale`, or until `limit`. Returns whether it got there.
fn wait_rejoin(ledger: &AppLedger, replica: ReplicaId, stale: u64, limit: Instant) -> bool {
    while Instant::now() < limit {
        let head = ledger.head_excluding(replica.0);
        if head > stale && ledger.executed_count(replica.0) >= head {
            return true;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    false
}
