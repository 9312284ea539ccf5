//! The benchmark's three workloads.
//!
//! A repetition builds a fresh cluster, runs a closed-loop client process
//! through a warm-up and a measured window, then checks the outputs. The
//! client is a simulated process bound to its completion queues (the
//! `PrimitiveDriver` pattern): it runs when a CQ or a timer wakes it and
//! the scheduler gives it a core, never between rounds of a host loop. Op
//! streams come from the seed and are built before the clock starts.
//!
//! * `chain_write`: durable 1 KiB HyperLoop gWRITEs on one 3-replica
//!   chain, window 16, no tenants; replica maintenance processes re-post
//!   the consumed descriptors.
//! * `tenant_naive`: the same writes through a Naive-Event chain whose
//!   replica CPUs forward every hop, beside 96 bursty tenants per replica
//!   machine; window 1 with a 300 µs think time.
//! * `txn_contended`: Locking-mode multi-key transactions on a 4 × 3
//!   `ShardedKv`, two-account transfers alternating with YCSB-F reads and
//!   read-modify-writes, zipfian θ = 0.99 over 256 accounts, 8 logical
//!   clients, with the simulator's auditors and trace capture on and the
//!   transaction folds and Perfetto export after the run.

use crate::spans::{run_until, Call, SpanTotals, Spans, Tap, Traced};
use baseline::{NaiveChain, NaiveConfig};
use cpusched::{HogProfile, ProcKind, SchedConfig};
use hyperloop::apps::Maintainer;
use hyperloop::{
    CommitMode, GroupAck, GroupClient, GroupConfig, GroupOp, GroupTransport, HyperLoopGroup,
    ReplicaHandle, TxnManager, TxnOutcome,
};
use kvstore::{KvConfig, ReplicatedKv, ShardedKv};
use netsim::NodeId;
use rnicsim::{Payload, RdmaFabric};
use simcore::hostprof::{self, AllocStats};
use simcore::simaudit::op_id_base;
use simcore::simprof::txn_chrome_trace_with_counters;
use simcore::{
    Audit, MetricsRegistry, Probe, SimDuration, SimRng, SimTime, Simulation, TailProfile,
    TraceEvent, TraceKind, Tracer, TxnAttribution,
};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::ops::Range;
use std::rc::Rc;
use std::time::{Duration, Instant};
use testbed::{Cluster, ClusterConfig, Env, HostApp, HostEvent, ProcRef, ShardPlacement};
use ycsb::{Generator, Operation, Workload};

/// Node memory: what the repository's figure runners give each node.
const NVM_BYTES: u64 = 256 << 20;
/// Bytes of every chain-workload write.
const WRITE_BYTES: usize = 1024;
/// 1 KiB slots the chain workloads write: the whole 4 MiB shared region.
const SLOTS: u64 = 4096;
/// Simulated time past which a repetition has stalled.
const SIM_CAP: SimTime = SimTime::from_secs(3600);
/// Measured writes per lap of the chain workloads' measured window.
const CHAIN_LAP: u64 = 1000;

/// `txn_contended`: shards, each a 3-replica chain.
const SHARDS: u32 = 4;
/// `txn_contended`: transfer accounts; YCSB-F uses as many keys above them.
const ACCOUNTS: u64 = 256;
/// `txn_contended`: zipfian skew of both key streams.
const THETA: f64 = 0.99;
/// `txn_contended`: logical transactions in flight, one per logical client.
const CLIENTS: usize = 8;
/// `txn_contended`: the client's pump timer. A pump whose tick carries no
/// acks wakes every parked transaction, so this period bounds backoff.
const TICK: SimDuration = SimDuration::from_micros(20);
/// `txn_contended`: attempts after which a logical transaction fails.
const MAX_ATTEMPTS: u32 = 256;
/// `txn_contended`: unmeasured transactions after the measured ones, so
/// the last measured ones still contend with the other clients.
const COOLDOWN: u64 = 64;
/// `txn_contended`: cluster instances per repetition, each from its own
/// seed. One instance's contention varies widely from seed to seed; the
/// pooled instances keep a run's figures steady, while a repetition stays
/// short enough for several in one run.
const INSTANCES: u64 = 4;
/// `txn_contended`: how many of the slowest measured transactions the
/// Perfetto export carries with full causal detail, every attempt included.
const EXEMPLARS: usize = 1;
/// `txn_contended`: measured commits per lap of the measured window.
const TXN_LAP: usize = 64;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ChainWrite,
    TenantNaive,
    TxnContended,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ChainWrite, Kind::TenantNaive, Kind::TxnContended];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ChainWrite => "chain_write",
            Kind::TenantNaive => "tenant_naive",
            Kind::TxnContended => "txn_contended",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One repetition's settings.
#[derive(Debug, Clone, Copy)]
pub struct RepOpts {
    pub kind: Kind,
    pub seed: u64,
    /// Measured ops: writes, or logical transactions per instance for
    /// `txn_contended`.
    pub ops: u64,
    /// Ops before the measured ones.
    pub warmup: u64,
    /// Time a sample of spans (the per-layer run).
    pub traced: bool,
    /// The simulator's trace capture and auditors (`txn_contended`). The
    /// observability-tax arm turns them off.
    pub sim_obs: bool,
    /// Drop the client's gFLUSH of every write (`chain_write`), which the
    /// output checks must catch.
    pub skip_flush: bool,
}

impl RepOpts {
    pub fn new(kind: Kind, seed: u64) -> RepOpts {
        let (ops, warmup) = match kind {
            Kind::ChainWrite => (20_000, 1_024),
            Kind::TenantNaive => (20_000, 1_024),
            Kind::TxnContended => (512, 64),
        };
        RepOpts {
            kind,
            seed,
            ops,
            warmup,
            traced: false,
            sim_obs: true,
            skip_flush: false,
        }
    }
}

/// One repetition's measurements.
#[derive(Debug)]
pub struct Rep {
    /// For each cluster the repetition set up, the CPU time the simulator's
    /// thread ran before its first measured op: build, wiring, warm-up.
    pub setups: Vec<Duration>,
    /// `Cluster::new` plus the tenants.
    pub build: Duration,
    /// Chain wiring, stores and processes.
    pub group_setup: Duration,
    /// From the simulation's start to the first measured op.
    pub warmup: Duration,
    /// From the first measured op to the end of post-run folds and exports.
    pub measured: Duration,
    /// CPU time the simulator's thread ran in each lap of that window. Laps
    /// end at fixed counts of measured ops; the post-run folds and the
    /// exports make one lap each.
    pub cpu_laps: Vec<Duration>,
    pub fold: Duration,
    pub export: Duration,
    /// Heap bytes allocated before the first measured op.
    pub setup_alloc_bytes: u64,
    /// Heap activity of the measured window.
    pub alloc: AllocStats,
    /// Span totals of the measured window (traced repetitions).
    pub spans: SpanTotals,
    pub sim: SimResult,
}

/// What the simulation produced: the same for every run of a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Measured ops.
    pub attempted: u64,
    /// Measured ops that failed an output check.
    pub failed: u64,
    /// Why ops failed.
    pub failures: Vec<String>,
    /// Measured ops that completed: writes acked, transactions committed.
    pub completed: u64,
    /// Exact latency quantiles: issue to ack, or first submission to commit.
    pub p50_ns: u64,
    pub p99_ns: u64,
    /// Every measured latency, sorted.
    pub lat_ns: Vec<u64>,
    /// Simulated time from the first measured issue to the last completion.
    pub span_ns: u64,
    /// Bytes the measured ops asked to write.
    pub user_bytes: u64,
    /// Counter deltas over the measured window.
    pub counts: Counts,
    /// CPU share of the busiest replica data-path process over the run.
    pub replica_cpu_frac: f64,
    /// Bytes of trace artifacts exported.
    pub trace_bytes: u64,
    pub events_captured: u64,
    pub dropped: u64,
    pub violations: u64,
}

impl SimResult {
    fn add(&mut self, other: SimResult) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.completed += other.completed;
        self.lat_ns.extend(other.lat_ns);
        self.lat_ns.sort_unstable();
        self.p50_ns = quantile(&self.lat_ns, 0.5);
        self.p99_ns = quantile(&self.lat_ns, 0.99);
        self.span_ns += other.span_ns;
        self.user_bytes += other.user_bytes;
        for (name, v) in other.counts.0 {
            *self.counts.0.entry(name).or_insert(0) += v;
        }
        self.replica_cpu_frac = self.replica_cpu_frac.max(other.replica_cpu_frac);
        self.trace_bytes += other.trace_bytes;
        self.events_captured += other.events_captured;
        self.dropped += other.dropped;
        self.violations += other.violations;
    }

    /// The simulated timeline alone, which must not move when the
    /// simulator's tracer and auditors are off.
    pub fn timeline(&self) -> (u64, u64, u64, u64, &Counts) {
        (
            self.completed,
            self.p50_ns,
            self.p99_ns,
            self.span_ns,
            &self.counts,
        )
    }
}

/// Layer counters by name, read through the layers' public stats.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<&'static str, u64>);

impl Counts {
    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    fn since(&self, earlier: &Counts) -> Counts {
        Counts(
            self.0
                .iter()
                .map(|(&name, &v)| (name, v - earlier.get(name)))
                .collect(),
        )
    }

    /// The cluster's counters, summed over nodes.
    fn of(sim: &Simulation<Cluster>) -> Counts {
        let mut reg = MetricsRegistry::new();
        sim.model.export_into(&mut reg, "c");
        let exact = |name: &str| reg.counter(name).unwrap_or(0);
        let per_node = |prefix: &str, suffix: &str| -> u64 {
            reg.counters()
                .filter(|(name, _)| name.starts_with(prefix) && name.ends_with(suffix))
                .map(|(_, v)| v)
                .sum()
        };
        Counts(BTreeMap::from([
            ("events", sim.queue.stats().popped),
            ("wqes", exact("c.fabric.wqes_executed")),
            ("waits", exact("c.fabric.waits_triggered")),
            ("errors", exact("c.fabric.errors")),
            ("messages", exact("c.fabric.net.messages")),
            ("net_bytes", exact("c.fabric.net.bytes")),
            ("nvm_bytes", per_node("c.fabric.nvm.node", ".bytes_written")),
            ("nvm_flushes", per_node("c.fabric.nvm.node", ".flushes")),
            (
                "context_switches",
                per_node("c.sched.node", ".context_switches"),
            ),
            ("wakeups", per_node("c.sched.node", ".wakeups")),
        ]))
    }

    fn add_txn(&mut self, m: &TxnManager) {
        self.0.extend([
            ("txn.started", m.started),
            ("txn.committed", m.committed),
            ("txn.lock_retries", m.lock_retries),
            ("txn.backoff_ns", m.backoff_delay_ns),
            ("txn.abort.lock_conflict", m.abort_lock_conflict),
            ("txn.abort.validation_failed", m.abort_validation_failed),
            ("txn.abort.backoff_exhausted", m.abort_backoff_exhausted),
        ]);
    }
}

/// Runs one repetition.
///
/// # Errors
///
/// When the simulation stalls.
pub fn run_rep(o: &RepOpts) -> Result<Rep, String> {
    match o.kind {
        Kind::ChainWrite | Kind::TenantNaive => chain_rep(o),
        Kind::TxnContended => {
            let instances = (0..INSTANCES)
                .map(|i| {
                    txn_rep(&RepOpts {
                        seed: o.seed.wrapping_mul(INSTANCES).wrapping_add(i),
                        ..*o
                    })
                })
                .collect::<Result<Vec<Rep>, String>>()?;
            Ok(Rep::pool(instances))
        }
    }
}

impl Rep {
    /// Sums instances run one after another into one repetition.
    fn pool(reps: Vec<Rep>) -> Rep {
        let mut reps = reps.into_iter();
        let mut all = reps.next().expect("at least one instance");
        for r in reps {
            all.setups.extend(r.setups);
            all.build += r.build;
            all.group_setup += r.group_setup;
            all.warmup += r.warmup;
            all.measured += r.measured;
            all.cpu_laps.extend(r.cpu_laps);
            all.fold += r.fold;
            all.export += r.export;
            all.setup_alloc_bytes += r.setup_alloc_bytes;
            all.alloc.allocs += r.alloc.allocs;
            all.alloc.alloc_bytes += r.alloc.alloc_bytes;
            all.spans.add(&r.spans);
            all.sim.add(r.sim);
        }
        all
    }
}

/// Workload progress, set by the client process; the event loop stops on it.
#[derive(Debug, Default)]
struct Flags {
    /// The first measured op was issued.
    measuring: Cell<bool>,
    /// Every measured op finished.
    done: Cell<bool>,
    /// The thread's CPU clock at each lap boundary of the measured window.
    laps: RefCell<Vec<Duration>>,
}

impl Flags {
    /// Ends a lap of the measured window. The client ends one at fixed
    /// counts of measured ops, so lap `k` is the same simulated work in
    /// every repetition of a seed.
    fn lap(&self) {
        self.laps.borrow_mut().push(thread_cpu());
    }
}

/// Marks of one repetition's set-up.
struct Marks {
    /// The thread's CPU clock when set-up began.
    cpu_start: Duration,
    alloc_start: AllocStats,
    build: Duration,
    group_setup: Duration,
}

/// One repetition's event loop, split at the first measured op.
struct Window {
    setup: Duration,
    warmup: Duration,
    setup_alloc_bytes: u64,
    counts0: Counts,
    alloc0: AllocStats,
    start: Instant,
    cpu_start: Duration,
    traced: Option<Traced>,
}

fn drive(
    sim: &mut Simulation<Cluster>,
    flags: &Flags,
    marks: &Marks,
    spans: Option<&Rc<Spans>>,
    snapshot: &mut dyn FnMut(&mut Simulation<Cluster>) -> Counts,
) -> Result<Window, String> {
    let warm = Instant::now();
    let mut traced = spans.map(|s| Traced::new(Rc::clone(s)));
    run_until(sim, &flags.measuring, SIM_CAP, traced.as_mut())?;
    let reached = Instant::now();
    let setup = thread_cpu() - marks.cpu_start;
    let setup_alloc_bytes = hostprof::alloc_snapshot()
        .since(&marks.alloc_start)
        .alloc_bytes;
    let counts0 = snapshot(sim);
    if let Some(t) = traced.as_mut() {
        t.restart();
    }
    let alloc0 = hostprof::alloc_snapshot();
    let start = Instant::now();
    let cpu_start = thread_cpu();
    run_until(sim, &flags.done, SIM_CAP, traced.as_mut())?;
    Ok(Window {
        setup,
        warmup: reached - warm,
        setup_alloc_bytes,
        counts0,
        alloc0,
        start,
        cpu_start,
        traced,
    })
}

/// CPU time the calling thread has run: unlike wall time, it leaves out
/// the time other tenants of a shared machine hold the core.
fn thread_cpu() -> Duration {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the whole call, and
    // `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the thread CPU clock is unavailable");
    Duration::new(ts.sec as u64, ts.nsec as u32)
}

impl Window {
    /// Stops the measured clocks, ending the last lap.
    fn stop(&self, flags: &Flags) -> (Duration, Vec<Duration>, AllocStats) {
        let mut last = self.cpu_start;
        flags.lap();
        let laps = flags
            .laps
            .take()
            .into_iter()
            .map(|t| {
                let lap = t - last;
                last = t;
                lap
            })
            .collect();
        (
            self.start.elapsed(),
            laps,
            hostprof::alloc_snapshot().since(&self.alloc0),
        )
    }

    fn into_rep(
        self,
        marks: &Marks,
        (measured, cpu_laps, alloc): (Duration, Vec<Duration>, AllocStats),
        (fold, export): (Duration, Duration),
        sim: SimResult,
    ) -> Rep {
        Rep {
            setups: vec![self.setup],
            build: marks.build,
            group_setup: marks.group_setup,
            warmup: self.warmup,
            measured,
            cpu_laps,
            fold,
            export,
            setup_alloc_bytes: self.setup_alloc_bytes,
            alloc,
            spans: self.traced.map(|t| t.totals()).unwrap_or_default(),
            sim,
        }
    }
}

/// Failed-op accounting: a per-op check adds its failures, a broken global
/// invariant fails every op.
struct Checks {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Checks {
    fn new(attempted: u64) -> Checks {
        Checks {
            attempted,
            failed: 0,
            failures: Vec::new(),
        }
    }

    fn ops(&mut self, n: u64, what: &str) {
        if n > 0 {
            self.failed = (self.failed + n).min(self.attempted);
            self.failures.push(format!("{n} ops {what}"));
        }
    }

    fn all(&mut self, broken: bool, what: impl FnOnce() -> String) {
        if broken {
            self.failed = self.attempted;
            self.failures.push(what());
        }
    }
}

/// The sample at index `ceil(n·q) − 1` of a sorted population.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

/// CPU share of the busiest replica data-path process over the whole run.
fn replica_cpu_frac(sim: &Simulation<Cluster>, procs: &[ProcRef]) -> f64 {
    let run = sim.now().as_secs_f64();
    procs
        .iter()
        .map(|&p| sim.model.proc_cpu(p).0.as_secs_f64() / run)
        .fold(0.0, f64::max)
}

// ---- chain_write and tenant_naive --------------------------------------

fn chain_rep(o: &RepOpts) -> Result<Rep, String> {
    let naive = o.kind == Kind::TenantNaive;
    let slots = slot_stream(o.seed, o.warmup + o.ops);
    let flags = Rc::new(Flags::default());
    let spans = o.traced.then(|| Rc::new(Spans::new()));
    let tap = Tap::new(spans.as_ref());

    let start = Instant::now();
    let cpu_start = thread_cpu();
    let alloc_start = hostprof::alloc_snapshot();
    let client_node = NodeId(0);
    let replicas: Vec<NodeId> = (1..=3).map(NodeId).collect();
    // Loaded machines get a 6 ms slice: what CFS's minimum granularity
    // yields with hundreds of runnable processes (see DESIGN.md).
    let sched = if naive {
        SchedConfig {
            time_slice: SimDuration::from_millis(6),
            ..SchedConfig::default()
        }
    } else {
        SchedConfig::default()
    };
    let mut cluster = Cluster::new(
        4,
        16,
        NVM_BYTES,
        ClusterConfig {
            seed: o.seed,
            sched,
            ..ClusterConfig::default()
        },
    );
    if naive {
        let tenant = HogProfile {
            busy_mean: SimDuration::from_millis(25),
            idle_mean: SimDuration::from_millis(150),
        };
        for &node in &replicas {
            cluster.add_background_load(node, 96, tenant);
        }
    }
    let build = start.elapsed();

    let group_start = Instant::now();
    let (transport, base, data_procs) = if naive {
        // The chain's shared region is its first allocation on each replica.
        let base = cluster.fab.alloc_cursor(replicas[0]).next_multiple_of(64);
        let chain = NaiveChain::setup(
            &mut cluster,
            client_node,
            &replicas,
            NaiveConfig {
                window: 1,
                prepost_depth: 768,
                replica_kind: ProcKind::EventDriven,
                ..NaiveConfig::default()
            },
        );
        let transport = Box::new(chain.client) as Box<dyn GroupTransport>;
        (transport, base, chain.replica_procs)
    } else {
        let mut group = cluster.setup_fabric(|ctx| {
            HyperLoopGroup::setup(ctx, client_node, &replicas, GroupConfig::default())
        });
        if o.skip_flush {
            group.client.fault_skip_next_flush(u64::MAX);
        }
        let base = group.client.layout().shared_base;
        let procs = install_maintenance(&mut cluster, group.replicas, &tap);
        let transport = Box::new(group.client) as Box<dyn GroupTransport>;
        (transport, base, procs)
    };
    let (window, think) = if naive {
        (1, SimDuration::from_micros(300))
    } else {
        (16, SimDuration::ZERO)
    };
    let ack_cq = transport.ack_cq();
    let driver = ChainDriver::new(transport, slots, o, (window, think), Rc::clone(&flags), tap);
    let client = cluster.add_app(client_node, ProcKind::Polling, Box::new(driver));
    cluster.bind_cq(client, client_node, ack_cq, SimDuration::from_nanos(300));
    let marks = Marks {
        cpu_start,
        alloc_start,
        build,
        group_setup: group_start.elapsed(),
    };

    let mut sim = cluster.into_sim();
    let mut snapshot = |s: &mut Simulation<Cluster>| Counts::of(s);
    let w = drive(&mut sim, &flags, &marks, spans.as_ref(), &mut snapshot)?;
    let stop = w.stop(&flags);

    let counts = Counts::of(&sim).since(&w.counts0);
    let replica_cpu_frac = replica_cpu_frac(&sim, &data_procs);
    let errors = sim.model.fab.stats().errors;
    let d = sim.model.app_mut::<ChainDriver>(client);
    let mut lat = std::mem::take(&mut d.lat_ns);
    let span_ns = d.last_ack.since(d.first_measured).as_nanos();
    let duplicates = d.duplicate_acks;
    let slots = std::mem::take(&mut d.slots);
    let corrupt = verify_writes(&mut sim.model.fab, &replicas, base, &slots, o.seed);

    let mut checks = Checks::new(o.ops);
    checks.all(errors > 0, || {
        format!("{errors} completions carried an error status")
    });
    checks.ops(duplicates, "were acked more than once");
    checks.ops(
        corrupt,
        "were the last write to an offset that is not durable and intact on every replica",
    );
    lat.sort_unstable();
    let sim_result = SimResult {
        attempted: o.ops,
        failed: checks.failed,
        failures: checks.failures,
        completed: lat.len() as u64,
        p50_ns: quantile(&lat, 0.5),
        p99_ns: quantile(&lat, 0.99),
        span_ns,
        user_bytes: o.ops * WRITE_BYTES as u64,
        counts,
        replica_cpu_frac,
        trace_bytes: 0,
        events_captured: 0,
        dropped: 0,
        violations: 0,
        lat_ns: lat,
    };
    Ok(w.into_rep(&marks, stop, (Duration::ZERO, Duration::ZERO), sim_result))
}

/// The chain workloads' op stream: op `i` writes slot `perm[i % SLOTS]` of
/// a seeded permutation, so ops in flight together (at most 16 apart)
/// never touch the same bytes, as pipelined group ops must not.
fn slot_stream(seed: u64, n: u64) -> Vec<u32> {
    let mut perm: Vec<u32> = (0..SLOTS as u32).collect();
    SimRng::new(seed ^ 0x5107).shuffle(&mut perm);
    (0..n).map(|i| perm[(i % SLOTS) as usize]).collect()
}

/// Op `i`'s body: its index, then a fill byte drawn from the seed.
fn fill_payload(seed: u64, i: u64, buf: &mut [u8]) {
    buf.fill(((seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8);
    buf[..8].copy_from_slice(&i.to_le_bytes());
}

fn payload(seed: u64, i: u64) -> Payload {
    Payload::try_with::<std::convert::Infallible>(WRITE_BYTES, |buf| {
        fill_payload(seed, i, buf);
        Ok(())
    })
    .unwrap_or_else(|never| match never {})
}

/// The post-run read-back: the last write to each slot must be durable and
/// intact on every replica. Returns how many slots are not.
fn verify_writes(
    fab: &mut RdmaFabric,
    replicas: &[NodeId],
    base: u64,
    slots: &[u32],
    seed: u64,
) -> u64 {
    let mut last = vec![None; SLOTS as usize];
    for (i, &slot) in slots.iter().enumerate() {
        last[slot as usize] = Some(i as u64);
    }
    let len = WRITE_BYTES as u64;
    let mut expected = vec![0u8; WRITE_BYTES];
    let mut corrupt = 0;
    for (slot, op) in last.iter().enumerate() {
        let Some(op) = *op else { continue };
        fill_payload(seed, op, &mut expected);
        let addr = base + slot as u64 * len;
        let intact = replicas.iter().all(|&node| {
            let mem = fab.mem(node);
            mem.is_durable(addr, len) == Ok(true)
                && mem.read_durable_vec(addr, len).is_ok_and(|v| v == expected)
        });
        corrupt += u64::from(!intact);
    }
    corrupt
}

/// The chain workloads' client process: keeps `window` durable writes in
/// flight (or one, with a think time between an ack and the next issue)
/// and records each measured write's issue-to-ack latency.
struct ChainDriver {
    transport: Box<dyn GroupTransport>,
    /// The slot op `i` writes.
    slots: Vec<u32>,
    seed: u64,
    warmup: u64,
    window: u64,
    think: SimDuration,
    issued: u64,
    completed: u64,
    /// Generation of op 0: op `i` is generation `base_gen + i`.
    base_gen: u64,
    issued_at: Vec<SimTime>,
    acked: Vec<bool>,
    duplicate_acks: u64,
    lat_ns: Vec<u64>,
    first_measured: SimTime,
    last_ack: SimTime,
    /// Measured acks at which the next lap ends.
    next_lap: u64,
    flags: Rc<Flags>,
    tap: Tap,
    acks: Vec<GroupAck>,
}

impl ChainDriver {
    fn new(
        transport: Box<dyn GroupTransport>,
        slots: Vec<u32>,
        o: &RepOpts,
        (window, think): (u64, SimDuration),
        flags: Rc<Flags>,
        tap: Tap,
    ) -> ChainDriver {
        ChainDriver {
            transport,
            seed: o.seed,
            warmup: o.warmup,
            window,
            think,
            issued: 0,
            completed: 0,
            base_gen: 0,
            issued_at: Vec::with_capacity(slots.len()),
            acked: vec![false; slots.len()],
            duplicate_acks: 0,
            lat_ns: Vec::with_capacity(o.ops as usize),
            first_measured: SimTime::ZERO,
            last_ack: SimTime::ZERO,
            next_lap: CHAIN_LAP,
            flags,
            tap,
            acks: Vec::new(),
            slots,
        }
    }

    fn fill(&mut self, env: &mut Env<'_>) {
        while self.issued < self.slots.len() as u64 && self.issued - self.completed < self.window {
            let i = self.issued;
            let op = GroupOp::Write {
                offset: self.slots[i as usize] as u64 * WRITE_BYTES as u64,
                data: payload(self.seed, i),
                flush: true,
            };
            let gen = env
                .with_fabric(|ctx| self.tap.time(Call::Issue, || self.transport.issue(ctx, op)))
                .expect("the window and the shared region bound every write");
            let now = env.now();
            if i == 0 {
                self.base_gen = gen;
            }
            if i == self.warmup {
                self.first_measured = now;
                self.flags.measuring.set(true);
            }
            self.issued_at.push(now);
            self.issued += 1;
        }
    }

    fn collect(&mut self, env: &mut Env<'_>) {
        let mut acks = std::mem::take(&mut self.acks);
        env.with_fabric(|ctx| {
            self.tap
                .time(Call::Poll, || self.transport.poll_into(ctx, &mut acks))
        });
        let now = env.now();
        for ack in acks.drain(..) {
            let i = ack.gen.wrapping_sub(self.base_gen) as usize;
            match self.acked.get_mut(i) {
                Some(seen) if !*seen && i < self.issued_at.len() => {
                    *seen = true;
                    self.completed += 1;
                    if i as u64 >= self.warmup {
                        self.lat_ns.push(now.since(self.issued_at[i]).as_nanos());
                        self.last_ack = now;
                    }
                }
                _ => self.duplicate_acks += 1,
            }
        }
        self.acks = acks;
        let measured = self.lat_ns.len() as u64;
        if measured >= self.next_lap && self.completed < self.slots.len() as u64 {
            self.flags.lap();
            self.next_lap = measured - measured % CHAIN_LAP + CHAIN_LAP;
        }
        if self.completed == self.slots.len() as u64 {
            self.flags.done.set(true);
        } else if self.think.is_zero() {
            self.fill(env);
        } else if self.issued == self.completed {
            env.set_timer(self.think, 0);
        }
    }
}

impl HostApp for ChainDriver {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::Start | HostEvent::Timer(_) => self.fill(env),
            HostEvent::CqReady(_) => self.collect(env),
            HostEvent::WorkDone(_) => {}
        }
    }
}

/// The repository's replica maintenance process, `hyperloop::apps::
/// Maintainer`, with each of its wake-ups spanned.
struct SpannedMaintainer {
    inner: Maintainer,
    tap: Tap,
}

impl HostApp for SpannedMaintainer {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        let inner = &mut self.inner;
        self.tap
            .time(Call::Replenish, || inner.on_event(env, event));
    }
}

/// Installs a maintenance process on every replica of a group, as
/// `hyperloop::apps::install_group_maintenance` does: it re-posts one
/// descriptor chain per consumed generation, off the critical path, for
/// 400 ns of CPU per wake.
fn install_maintenance(
    cluster: &mut Cluster,
    replicas: Vec<ReplicaHandle>,
    tap: &Tap,
) -> Vec<ProcRef> {
    replicas
        .into_iter()
        .map(|handle| {
            let (node, cq) = (handle.node(), handle.recv_cq());
            let app = SpannedMaintainer {
                inner: Maintainer::new(handle),
                tap: tap.clone(),
            };
            let proc = cluster.add_app(node, ProcKind::EventDriven, Box::new(app));
            cluster.bind_cq(proc, node, cq, SimDuration::from_nanos(400));
            proc
        })
        .collect()
}

// ---- txn_contended -----------------------------------------------------

fn txn_rep(o: &RepOpts) -> Result<Rep, String> {
    let ops = mix_stream(o.seed, o.warmup + o.ops + COOLDOWN);
    let flags = Rc::new(Flags::default());
    let spans = o.traced.then(|| Rc::new(Spans::new()));
    let tap = Tap::new(spans.as_ref());

    let start = Instant::now();
    let cpu_start = thread_cpu();
    let alloc_start = hostprof::alloc_snapshot();
    let client_node = NodeId(0);
    let mut cluster = Cluster::new(
        1 + SHARDS * 3,
        4,
        NVM_BYTES,
        ClusterConfig {
            seed: o.seed,
            ..ClusterConfig::default()
        },
    );
    let placement = ShardPlacement::RoundRobin {
        replicas_per_shard: 3,
    };
    let chains = cluster.place_shards(&placement, SHARDS, client_node);
    let build = start.elapsed();

    let group_start = Instant::now();
    let audit = if o.sim_obs {
        Audit::standard()
    } else {
        Audit::disabled()
    };
    // Unbounded, so nothing is evicted: the folds need every span.
    let tracer = if o.sim_obs {
        Tracer::enabled(usize::MAX)
    } else {
        Tracer::disabled()
    }
    .with_audit(audit.clone());
    cluster.set_tracer(tracer.clone());
    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains
            .iter()
            .enumerate()
            .map(|(shard, chain)| {
                let cfg = GroupConfig {
                    first_gen: op_id_base(shard as u32, 0),
                    ..GroupConfig::default()
                };
                HyperLoopGroup::setup(ctx, client_node, chain, cfg)
            })
            .collect()
    });
    let mut stores = Vec::new();
    let mut ack_cqs = Vec::new();
    let mut data_procs = Vec::new();
    for group in groups {
        let mut transport = group.client;
        transport.set_tracer(tracer.clone());
        ack_cqs.push(transport.ack_cq());
        stores.push(ReplicatedKv::new(transport, KvConfig::default()));
        data_procs.extend(install_maintenance(&mut cluster, group.replicas, &tap));
    }
    let mut kv = ShardedKv::with_hash_router(stores);
    kv.enable_txns(CommitMode::Locking, o.seed ^ 0x7);
    kv.set_txn_audit(audit.clone());
    kv.set_txn_tracer(tracer.clone());
    let window = GroupConfig::default().window as u64;
    for shard in 0..SHARDS {
        audit.probe(SimTime::ZERO, Probe::Window { shard, window });
    }
    let first = o.warmup as usize;
    let driver = TxnClient {
        kv,
        ops,
        next: 0,
        ledger: Ledger::new(first..first + o.ops as usize),
        first_measured: SimTime::ZERO,
        next_lap: TXN_LAP,
        flags: Rc::clone(&flags),
        tap,
    };
    let client = cluster.add_app(client_node, ProcKind::Polling, Box::new(driver));
    for cq in ack_cqs {
        cluster.bind_cq(client, client_node, cq, SimDuration::from_nanos(300));
    }
    let marks = Marks {
        cpu_start,
        alloc_start,
        build,
        group_setup: group_start.elapsed(),
    };

    let mut sim = cluster.into_sim();
    let mut snapshot = |s: &mut Simulation<Cluster>| {
        let mut counts = Counts::of(s);
        counts.add_txn(s.model.app_mut::<TxnClient>(client).kv.txn_manager());
        counts
    };
    let w = drive(&mut sim, &flags, &marks, spans.as_ref(), &mut snapshot)?;
    flags.lap();

    // The post-run analysis a user runs to explain the transaction tail.
    let d = sim.model.app_mut::<TxnClient>(client);
    let mut lat: Vec<u64> = d.ledger.commits.iter().map(|&(ns, _)| ns).collect();
    lat.sort_unstable();
    let p99 = quantile(&lat, 0.99);
    let mut obs = (Duration::ZERO, Duration::ZERO);
    let mut trace_bytes = 0;
    let events = tracer.events();
    if o.sim_obs {
        let t = Instant::now();
        black_box((
            TxnAttribution::from_events(&events),
            TailProfile::from_events(&events),
        ));
        obs.0 = t.elapsed();
        flags.lap();
        let t = Instant::now();
        let tail = d.ledger.slowest_attempts();
        let perfetto = txn_chrome_trace_with_counters(&tail_events(&events, &tail), &[]);
        trace_bytes = (perfetto.len() + audit.to_json().len()) as u64;
        obs.1 = t.elapsed();
    }
    let stop = w.stop(&flags);

    let mut checks = Checks::new(o.ops);
    d.ledger.check(&mut checks);
    let span_ns = d.ledger.last_commit.since(d.first_measured).as_nanos();
    let user_bytes = d
        .ledger
        .commits
        .iter()
        .map(|&(_, op)| d.ops[op].user_bytes())
        .sum();
    let balance_sum: i64 = (0..ACCOUNTS).map(|k| balance(d.kv.get(k))).sum();
    let counts = snapshot(&mut sim).since(&w.counts0);
    let replica_cpu_frac = replica_cpu_frac(&sim, &data_procs);
    let errors = sim.model.fab.stats().errors;
    let violations = audit.violation_count();
    let dropped = tracer.dropped();

    checks.all(errors > 0, || {
        format!("{errors} completions carried an error status")
    });
    checks.all(violations > 0, || {
        format!("the auditors reported {violations} violations")
    });
    checks.all(balance_sum != 0, || {
        format!("transfers did not conserve value: balances sum to {balance_sum}")
    });
    checks.all(dropped > 0, || {
        format!("the trace ring evicted {dropped} events")
    });
    let sim_result = SimResult {
        attempted: o.ops,
        failed: checks.failed,
        failures: checks.failures,
        completed: lat.len() as u64,
        p50_ns: quantile(&lat, 0.5),
        p99_ns: p99,
        span_ns,
        user_bytes,
        counts,
        replica_cpu_frac,
        trace_bytes,
        events_captured: events.len() as u64,
        dropped,
        violations,
        lat_ns: lat,
    };
    Ok(w.into_rep(&marks, stop, obs, sim_result))
}

/// One logical transaction of the op stream.
#[derive(Debug, Clone)]
enum MixOp {
    /// A YCSB-F read.
    Read(u64),
    /// A YCSB-F read-modify-write.
    Rmw(u64, Vec<u8>),
    /// A two-account transfer: `(from, to, amount)`.
    Transfer(u64, u64, u64),
}

impl MixOp {
    fn user_bytes(&self) -> u64 {
        match self {
            MixOp::Read(_) => 0,
            MixOp::Rmw(_, value) => value.len() as u64,
            MixOp::Transfer(..) => 16,
        }
    }
}

/// The `txn_contended` op stream: two-account transfers alternating with
/// YCSB-F reads and read-modify-writes on the keys above the accounts.
fn mix_stream(seed: u64, n: u64) -> Vec<MixOp> {
    let mut f = Generator::with_theta(Workload::F, ACCOUNTS, seed ^ 0xF0, THETA);
    let mut transfers = Generator::with_theta(Workload::Transfer, ACCOUNTS, seed ^ 0x71, THETA);
    (0..n)
        .map(|i| {
            if i % 2 == 1 {
                match f.next_op() {
                    Operation::ReadModifyWrite { key, value } => MixOp::Rmw(key, value),
                    other => MixOp::Read(other.key()),
                }
            } else {
                loop {
                    if let Operation::Transfer { from, to, amount } = transfers.next_op() {
                        break MixOp::Transfer(from, to, amount);
                    }
                }
            }
        })
        .collect()
}

fn balance(value: Option<&[u8]>) -> i64 {
    value.map_or(0, |b| {
        i64::from_le_bytes(b[..8].try_into().expect("balances are 8 bytes"))
    })
}

/// Builds and submits one attempt of `op`, reading the current values.
fn build_txn(kv: &mut ShardedKv<GroupClient>, op: &MixOp) -> u64 {
    let mut t = kv.txn();
    let fits = "the keys and values fit the store";
    match op {
        MixOp::Read(key) => {
            kv.txn_get(&mut t, ACCOUNTS + key);
        }
        MixOp::Rmw(key, value) => {
            kv.txn_get(&mut t, ACCOUNTS + key);
            kv.txn_put(&mut t, ACCOUNTS + key, value.clone())
                .expect(fits);
        }
        MixOp::Transfer(from, to, amount) => {
            let amount = *amount as i64;
            let a = balance(kv.txn_get(&mut t, *from).as_deref());
            let b = balance(kv.txn_get(&mut t, *to).as_deref());
            kv.txn_put(&mut t, *from, (a - amount).to_le_bytes().to_vec())
                .expect(fits);
            kv.txn_put(&mut t, *to, (b + amount).to_le_bytes().to_vec())
                .expect(fits);
        }
    }
    kv.txn_commit(t)
}

/// The events a user opens to explain the transaction tail: the phase
/// spans of every transaction, plus the causal detail of each group op the
/// slowest transactions' attempts issued. The Perfetto export scans the
/// whole stream once per op, so causal detail for every transaction would
/// grow with the square of the run.
fn tail_events(events: &[TraceEvent], tail: &HashSet<u64>) -> Vec<TraceEvent> {
    let ops: HashSet<u64> = events
        .iter()
        .filter_map(|e| match e.kind {
            TraceKind::TxnOp { txn } if tail.contains(&txn) => Some(e.op),
            _ => None,
        })
        .collect();
    events
        .iter()
        .filter(|e| match e.kind {
            TraceKind::TxnPhaseBegin { .. } | TraceKind::TxnPhaseEnd { .. } => true,
            _ => ops.contains(&e.op),
        })
        .copied()
        .collect()
}

/// A logical transaction: its op, its first submission and its attempts.
#[derive(Debug, Clone, Copy)]
struct Logical {
    op: usize,
    started: SimTime,
    attempts: u32,
}

/// The logical transactions' bookkeeping: the attempts in flight, those to
/// retry, and what the measured transactions came to.
#[derive(Debug, Default)]
struct Ledger {
    /// The measured logical transactions, by op index.
    measured: Range<usize>,
    live: HashMap<u64, Logical>,
    retry: Vec<Logical>,
    /// `(attempt id, op index)` of every attempt.
    attempt_ids: Vec<(u64, usize)>,
    /// `(latency ns, op index)` of every measured commit.
    commits: Vec<(u64, usize)>,
    /// Measured transactions that reached `MAX_ATTEMPTS`.
    capped: u64,
    /// Outcomes for attempts not in flight: reported twice, or never
    /// submitted.
    stray: u64,
    last_commit: SimTime,
}

impl Ledger {
    fn new(measured: Range<usize>) -> Ledger {
        Ledger {
            commits: Vec::with_capacity(measured.len()),
            measured,
            ..Ledger::default()
        }
    }

    fn submitted(&mut self, id: u64, l: Logical) {
        self.attempt_ids.push((id, l.op));
        self.live.insert(id, l);
    }

    /// Settles an attempt's reported outcome: a commit finishes its logical
    /// transaction, an abort queues a retry until the cap.
    fn settle(&mut self, now: SimTime, id: u64, outcome: TxnOutcome) {
        let Some(mut l) = self.live.remove(&id) else {
            self.stray += 1;
            return;
        };
        let measured = self.measured.contains(&l.op);
        match outcome {
            TxnOutcome::Committed if measured => {
                self.commits.push((now.since(l.started).as_nanos(), l.op));
                self.last_commit = now;
            }
            TxnOutcome::Committed => {}
            TxnOutcome::Aborted => {
                l.attempts += 1;
                if l.attempts < MAX_ATTEMPTS {
                    self.retry.push(l);
                } else if measured {
                    self.capped += 1;
                }
            }
        }
    }

    /// Every measured transaction committed or reached the cap.
    fn finished(&self) -> bool {
        self.commits.len() + self.capped as usize == self.measured.len()
    }

    fn check(&self, checks: &mut Checks) {
        checks.ops(self.capped, "reached the retry cap");
        checks.ops(
            self.stray,
            "were outcomes reported for an attempt not in flight",
        );
    }

    /// Attempt ids of the `EXEMPLARS` slowest measured transactions.
    fn slowest_attempts(&self) -> HashSet<u64> {
        let mut slowest = self.commits.clone();
        slowest.sort_unstable_by(|a, b| b.cmp(a));
        let ops: HashSet<usize> = slowest.iter().take(EXEMPLARS).map(|&(_, op)| op).collect();
        self.attempt_ids
            .iter()
            .filter(|(_, op)| ops.contains(op))
            .map(|&(id, _)| id)
            .collect()
    }
}

/// The `txn_contended` client process: keeps `CLIENTS` logical
/// transactions in flight, retries an aborted one with fresh reads until
/// it commits or reaches `MAX_ATTEMPTS`, and polls and pumps the
/// transaction layer on every completion and every `TICK`.
struct TxnClient {
    kv: ShardedKv<GroupClient>,
    ops: Vec<MixOp>,
    next: usize,
    ledger: Ledger,
    first_measured: SimTime,
    /// Measured commits at which the next lap ends.
    next_lap: usize,
    flags: Rc<Flags>,
    tap: Tap,
}

impl TxnClient {
    fn submit(&mut self, l: Logical) {
        let (kv, op) = (&mut self.kv, &self.ops[l.op]);
        let id = self.tap.time(Call::Build, || build_txn(kv, op));
        self.ledger.submitted(id, l);
    }

    fn tick(&mut self, env: &mut Env<'_>) {
        let now = env.now();
        for l in std::mem::take(&mut self.ledger.retry) {
            self.submit(l);
        }
        while self.ledger.live.len() < CLIENTS && self.next < self.ops.len() {
            if self.next == self.ledger.measured.start {
                self.first_measured = now;
                self.flags.measuring.set(true);
            }
            self.submit(Logical {
                op: self.next,
                started: now,
                attempts: 0,
            });
            self.next += 1;
        }
        let done = env.with_fabric(|ctx| {
            self.tap.time(Call::Poll, || self.kv.poll(ctx));
            self.tap.time(Call::Pump, || self.kv.pump_txns(ctx))
        });
        for (id, outcome) in done {
            self.ledger.settle(now, id, outcome);
        }
        let commits = self.ledger.commits.len();
        if self.ledger.finished() {
            self.flags.done.set(true);
        } else if commits >= self.next_lap {
            self.flags.lap();
            self.next_lap = commits - commits % TXN_LAP + TXN_LAP;
        }
    }
}

impl HostApp for TxnClient {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::Start | HostEvent::Timer(_) => {
                self.tick(env);
                if !self.flags.done.get() {
                    env.set_timer(TICK, 0);
                }
            }
            HostEvent::CqReady(_) => self.tick(env),
            HostEvent::WorkDone(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(kind: Kind) -> RepOpts {
        RepOpts {
            ops: 300,
            warmup: 32,
            ..RepOpts::new(kind, 11)
        }
    }

    #[test]
    fn skipped_flushes_fail_the_read_back_check() {
        let clean = run_rep(&small(Kind::ChainWrite)).expect("clean run");
        assert_eq!(clean.sim.failed, 0, "{:?}", clean.sim.failures);
        let faulty = RepOpts {
            skip_flush: true,
            ..small(Kind::ChainWrite)
        };
        let faulty = run_rep(&faulty).expect("faulty run");
        assert!(faulty.sim.failed > 0, "dropped flushes went unnoticed");
    }

    #[test]
    fn a_repeated_txn_outcome_fails_the_run() {
        let mut ledger = Ledger::new(0..1);
        let first = Logical {
            op: 0,
            started: SimTime::ZERO,
            attempts: 0,
        };
        ledger.submitted(7, first);
        ledger.settle(SimTime::from_micros(5), 7, TxnOutcome::Committed);
        let mut checks = Checks::new(1);
        ledger.check(&mut checks);
        assert!(ledger.finished());
        assert_eq!(checks.failed, 0, "{:?}", checks.failures);

        ledger.settle(SimTime::from_micros(6), 7, TxnOutcome::Committed);
        let mut checks = Checks::new(1);
        ledger.check(&mut checks);
        assert!(checks.failed > 0, "a second outcome went unnoticed");
    }

    #[test]
    fn runs_are_clean_and_tracing_is_observer_only() {
        for kind in Kind::ALL {
            let plain = run_rep(&small(kind)).expect("plain run");
            assert_eq!(
                plain.sim.failed,
                0,
                "{}: {:?}",
                kind.name(),
                plain.sim.failures
            );
            let traced = RepOpts {
                traced: true,
                ..small(kind)
            };
            let traced = run_rep(&traced).expect("traced run");
            assert_eq!(plain.sim, traced.sim, "{}", kind.name());
        }
    }

    #[test]
    fn the_simulators_tracer_and_auditors_are_observer_only() {
        let on = run_rep(&small(Kind::TxnContended)).expect("observed run");
        assert!(on.sim.events_captured > 0 && on.sim.trace_bytes > 0);
        let off = RepOpts {
            sim_obs: false,
            ..small(Kind::TxnContended)
        };
        let off = run_rep(&off).expect("bare run");
        assert_eq!(on.sim.timeline(), off.sim.timeline());
    }
}
