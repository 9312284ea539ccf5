//! Microbenchmark environments: the paper's §6.1 setup.
//!
//! One dedicated client machine drives a chain of `group_size` replica
//! machines (two 8-core CPUs each in the paper; 16 cores here). For the
//! latency experiments the replica machines also host bursty background
//! tenants (the paper's co-located instances / `stress-ng`); the throughput
//! experiment (Fig. 9) runs the paper's best case — pinned, unloaded
//! replicas — because that is where Naïve-RDMA can still keep up on
//! throughput while burning a core.

use crate::driver::{OpPlan, PrimitiveDriver};
use crate::run::{self, Arm, Installed, Outcome, Profile};
use baseline::{NaiveChain, NaiveConfig};
use cpusched::{HogProfile, ProcKind, SchedConfig};
use hyperloop::apps::install_group_maintenance;
use hyperloop::{GroupConfig, GroupOp, GroupTransport, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::{MetricsRegistry, SimDuration, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use testbed::{Cluster, ClusterConfig};

/// Which system runs the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// NIC-offloaded group primitives; replica CPUs off the critical path.
    HyperLoop,
    /// Replica CPUs forward every hop, event-driven (wake per op).
    NaiveEvent,
    /// Replica CPUs forward every hop, spinning on their CQs.
    NaivePolling,
}

impl SystemKind {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SystemKind::HyperLoop => "HyperLoop",
            SystemKind::NaiveEvent => "Naive-Event",
            SystemKind::NaivePolling => "Naive-Polling",
        }
    }

    /// How a Naive chain's replica processes wait for work.
    pub(crate) fn replica_kind(&self) -> ProcKind {
        if *self == SystemKind::NaivePolling {
            ProcKind::Polling
        } else {
            ProcKind::EventDriven
        }
    }
}

/// Cores per machine.
pub const CORES: u32 = 16;

/// Background tenant burst profile.
pub const HOG_PROFILE: HogProfile = HogProfile {
    busy_mean: SimDuration::from_millis(25),
    idle_mean: SimDuration::from_millis(150),
};

/// The loaded servers' scheduler. Its 6 ms slice is what a CFS box
/// running hundreds of processes converges to (sched_min_granularity
/// dominates), which is what bounds a woken process's queueing delay on the
/// paper's loaded servers.
pub(crate) const SCHED: SchedConfig = SchedConfig {
    time_slice: SimDuration::from_millis(6),
};

/// Microbenchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct MicroOpts {
    /// Replication group size.
    pub group_size: u32,
    /// Background tenant processes per replica machine.
    pub hogs_per_node: u32,
    /// Operations measured (after warm-up).
    pub ops: u64,
    /// Warm-up operations discarded from statistics.
    pub warmup: u64,
    /// Operations kept in flight (1 = closed-loop latency).
    pub window: u32,
    /// Think time between completion and next issue (ZERO = closed loop).
    pub pace: SimDuration,
    /// Root seed.
    pub seed: u64,
    /// Capture a causal trace of the run and fold it into stage
    /// attribution and a tail profile on the result.
    pub trace: bool,
}

impl Default for MicroOpts {
    fn default() -> Self {
        MicroOpts {
            group_size: 3,
            hogs_per_node: 96,
            ops: 10_000,
            warmup: 100,
            window: 1,
            pace: SimDuration::from_micros(300),
            seed: 0xBEEF,
            trace: false,
        }
    }
}

/// Result of one microbenchmark run.
#[derive(Debug, Clone)]
pub struct MicroResult {
    /// Peak replica data-path process CPU, as a fraction of the run (1.0 =
    /// one fully-burnt core).
    pub replica_cpu: f64,
    /// The arm's outcome. Its registry holds the whole cluster's counters;
    /// its health carries zero violations (micro runs are not audited).
    pub run: Outcome,
}

fn replica_nodes(gs: u32) -> Vec<NodeId> {
    (1..=gs).map(NodeId).collect()
}

/// Group config sized for long microbenchmark runs: deep pre-posting keeps
/// the data path independent of maintenance wake-ups under load.
pub fn bench_group_config(window: u32) -> GroupConfig {
    GroupConfig {
        shared_size: 4 << 20,
        prepost_depth: 768,
        window,
        first_gen: 0,
    }
}

/// Runs `ops` operations from `plan` through the chosen system and options.
///
/// Traced runs ([`MicroOpts::trace`]) also measure the *observability
/// tax* (`run::tax_pair`): the identical workload re-runs with tracing
/// off, over the same simulated timeline.
///
/// # Panics
///
/// Panics if the run does not complete within the simulation watchdog.
pub fn run_primitive(kind: SystemKind, plan: OpPlan, opts: MicroOpts) -> MicroResult {
    let plan = Rc::new(RefCell::new(plan));
    run::tax_pair(
        |observed| {
            let p = Rc::clone(&plan);
            run_primitive_once(kind, Box::new(move |i| (p.borrow_mut())(i)), opts, observed)
        },
        |r| &mut r.run,
    )
}

/// The client driver over `transport`, installed on the client node.
fn install_driver<T: GroupTransport + 'static>(
    cluster: &mut Cluster,
    arm: &Arm,
    transport: T,
    plan: OpPlan,
    opts: &MicroOpts,
) -> Installed {
    let driver = PrimitiveDriver::with_pace(
        transport,
        plan,
        opts.ops + opts.warmup,
        opts.window,
        opts.warmup,
        opts.pace,
    )
    .with_health(arm.health.clone(), 0);
    run::install(
        cluster,
        ProcKind::Polling,
        driver,
        SimDuration::from_nanos(300),
    )
}

/// One metered run; `observed` keeps the trace tap of a traced run.
fn run_primitive_once(
    kind: SystemKind,
    plan: OpPlan,
    opts: MicroOpts,
    observed: bool,
) -> MicroResult {
    let mut arm = Arm::start(Profile::Micro, observed, opts.trace, opts.ops + opts.warmup);
    let mut cluster = Cluster::new(
        opts.group_size + 1,
        CORES,
        256 << 20,
        ClusterConfig {
            seed: opts.seed,
            sched: SCHED,
        },
    );
    let client_node = NodeId(0);
    let replicas = replica_nodes(opts.group_size);
    for &rn in &replicas {
        cluster.add_background_load(rn, opts.hogs_per_node, HOG_PROFILE);
    }
    arm.wire(&mut cluster);
    let (client, data_procs) = match kind {
        SystemKind::HyperLoop => {
            let mut group = cluster.setup_fabric(|ctx| {
                HyperLoopGroup::setup(ctx, client_node, &replicas, bench_group_config(opts.window))
            });
            group.client.set_tracer(arm.tracer.clone());
            let maint = install_group_maintenance(
                &mut cluster,
                group.replicas,
                SimDuration::from_nanos(400),
            );
            let client = install_driver(&mut cluster, &arm, group.client, plan, &opts);
            (client, maint)
        }
        SystemKind::NaiveEvent | SystemKind::NaivePolling => {
            let mut chain = NaiveChain::setup(
                &mut cluster,
                client_node,
                &replicas,
                NaiveConfig {
                    window: opts.window,
                    prepost_depth: 768,
                    replica_kind: kind.replica_kind(),
                    ..NaiveConfig::default()
                },
            );
            chain.client.set_tracer(arm.tracer.clone());
            let client = install_driver(&mut cluster, &arm, chain.client, plan, &opts);
            (client, chain.replica_procs)
        }
    };

    let mut sim = cluster.into_sim();
    let latencies = arm.poll(
        &mut sim,
        &[client],
        SimDuration::from_millis(20),
        SimTime::from_secs(600),
    );
    let elapsed = client.get(&mut sim.model).elapsed().expect("done");
    // Normalize CPU by the whole run (processes are busy from time zero,
    // including the warm-up ramp), capping at one core.
    let sim_total = sim.now().since(SimTime::ZERO);
    let replica_cpu = data_procs
        .iter()
        .map(|&p| {
            let (busy, _) = sim.model.proc_cpu(p);
            (busy.as_secs_f64() / sim_total.as_secs_f64().max(1e-12)).min(1.0)
        })
        .fold(0.0f64, f64::max);

    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    registry.set_gauge("bench.replica_cpu", replica_cpu);
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
    MicroResult {
        replica_cpu,
        run: arm.finish(&sim, opts.ops, elapsed, &latencies, registry),
    }
}

/// A gWRITE plan: replicate `size` bytes at a rotating offset. `flush`
/// interleaves a gFLUSH (durable at every hop before forwarding).
pub fn gwrite_plan_flush(size: u64, flush: bool) -> OpPlan {
    Box::new(move |i| GroupOp::Write {
        offset: (i % 64) * 8192,
        data: Payload::filled((i & 0xFF) as u8, size as usize),
        flush,
    })
}

/// A durably-flushed gWRITE plan (see [`gwrite_plan_flush`]).
pub fn gwrite_plan(size: u64) -> OpPlan {
    gwrite_plan_flush(size, true)
}

/// A gMEMCPY plan: every replica copies `size` bytes log→db.
pub fn gmemcpy_plan(size: u64) -> OpPlan {
    Box::new(move |i| GroupOp::Memcpy {
        src: (i % 16) * 65536,
        dst: 2 << 20 | ((i % 16) * 65536),
        len: size,
        flush: true,
    })
}

/// A gCAS plan: sequential compare-and-swap on one lock word (always
/// matching, as a lock handover would).
pub fn gcas_plan(group_size: u32) -> OpPlan {
    Box::new(move |i| GroupOp::Cas {
        offset: 0,
        compare: i,
        swap: i + 1,
        execute: hyperloop::ExecuteMap::all(group_size),
    })
}
