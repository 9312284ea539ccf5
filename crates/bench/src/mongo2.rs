//! Figure 2: the motivating experiment — native (CPU-replicated) MongoDB
//! latency and context switches under multi-tenancy.
//!
//! Three server machines host every replica-set (one primary + two backups
//! each, rotated across the servers exactly like the paper's MongoDB
//! deployment); three client machines run the YCSB front ends. All
//! contention is *endogenous*: the co-located replica processes themselves
//! fight for the servers' cores — no synthetic background load.

use crate::driver::DocDriver;
use crate::report::{us, Report, Scenario};
use crate::run::{self, Arm, Outcome};
use baseline::{NaiveChain, NaiveConfig, NaiveCosts};
use cpusched::{ProcKind, SchedConfig};
use docstore::{DocConfig, ReplicatedDocStore, WriteMode};
use netsim::NodeId;
use simcore::{MetricsRegistry, SimDuration, SimTime};
use testbed::{Cluster, ClusterConfig};
use ycsb::{Generator, Workload};

/// Result of one Figure 2 configuration.
#[derive(Debug, Clone)]
pub struct Fig2Point {
    /// Replica sets co-located on the three servers.
    pub replica_sets: u32,
    /// Cores per server.
    pub cores: u32,
    /// Server context switches per second of simulated time.
    pub ctx_per_sec: f64,
    /// The arm's outcome: operation latency pooled across all sets, and
    /// per-replica-set SLO health (each set tracked as its own shard).
    pub run: Outcome,
}

/// The per-op CPU profile of a MongoDB-like replica: command parsing, BSON
/// handling and journal bookkeeping dominate (hundreds of microseconds).
fn mongo_costs() -> NaiveCosts {
    NaiveCosts {
        parse: SimDuration::from_micros(300),
        post: SimDuration::from_micros(1),
        memcpy_bps: 3_000_000_000,
        ..NaiveCosts::default()
    }
}

fn doc_config() -> DocConfig {
    DocConfig {
        capacity: 512,
        max_doc: 1536,
        log_size: 1 << 20,
        n_locks: 64,
    }
}

/// Runs one Figure 2 configuration: `replica_sets` NaiveChain-backed
/// document stores over three `cores`-core servers, each driven closed-loop
/// with `ops_per_set` YCSB-A operations.
pub fn run_fig2_point(replica_sets: u32, cores: u32, ops_per_set: u64, seed: u64) -> Fig2Point {
    let arm = Arm::untapped();
    let servers = [NodeId(0), NodeId(1), NodeId(2)];
    let clients = [NodeId(3), NodeId(4), NodeId(5)];
    let mut cluster = Cluster::new(
        6,
        cores,
        512 << 20,
        ClusterConfig {
            seed,
            sched: SchedConfig {
                time_slice: SimDuration::from_millis(3),
                ..SchedConfig::default()
            },
            ..ClusterConfig::default()
        },
    );

    // Each replica set is tracked as its own health shard, so the series
    // block shows the per-set contention signature.
    let mut drivers = Vec::new();
    for set in 0..replica_sets {
        // Rotate the chain across the servers (primary placement balance).
        let chain_nodes: Vec<NodeId> = (0..3).map(|k| servers[((set + k) % 3) as usize]).collect();
        let client_node = clients[(set % 3) as usize];
        let chain = NaiveChain::setup(
            &mut cluster,
            client_node,
            &chain_nodes,
            NaiveConfig {
                shared_size: 2 << 20,
                cmd_slots: 64,
                prepost_depth: 256,
                window: 16,
                replica_kind: ProcKind::EventDriven,
                costs: mongo_costs(),
            },
        );
        let mut store = ReplicatedDocStore::new(chain.client, doc_config(), set as u64 + 1);
        store.set_mode(WriteMode::AppendOnly);
        let gen = Generator::with_value_len(Workload::A, 512, seed ^ (set as u64 * 7919), 1024);
        let d = DocDriver::new(
            store,
            gen,
            ops_per_set,
            20,
            SimDuration::from_micros(150),
            SimDuration::ZERO, // closed loop: YCSB at full throttle
        )
        .with_concurrency(8) // YCSB client threads per set
        .with_health(arm.health.clone(), set);
        drivers.push(run::install(
            &mut cluster,
            ProcKind::EventDriven,
            d,
            SimDuration::from_micros(1),
        ));
    }

    let mut sim = cluster.into_sim();
    let pooled = arm.poll(
        &mut sim,
        &drivers,
        SimDuration::from_millis(50),
        SimTime::from_secs(3600),
    );
    let ctx: u64 = servers
        .iter()
        .map(|&s| sim.model.sched(s).stats().context_switches)
        .sum();
    let elapsed = sim.now().since(SimTime::ZERO);
    let ops = ops_per_set * replica_sets as u64;
    Fig2Point {
        replica_sets,
        cores,
        ctx_per_sec: ctx as f64 / elapsed.as_secs_f64().max(1e-9),
        run: arm.finish(&sim, ops, elapsed, &pooled, MetricsRegistry::new()),
    }
}

fn report_points(rep: &mut Report, fig: &str, seed: u64, points: &[Fig2Point], vary_cores: bool) {
    let max_ctx = points.iter().map(|p| p.ctx_per_sec).fold(0.0f64, f64::max);
    rep.line(format!(
        "{:<10} {:>10} {:>10} {:>10} {:>14}",
        if vary_cores { "cores" } else { "sets" },
        "mean",
        "p95",
        "p99",
        "norm ctx-sw"
    ));
    for p in points {
        rep.line(format!(
            "{:<10} {:>10} {:>10} {:>10} {:>14.2}",
            if vary_cores { p.cores } else { p.replica_sets },
            us(p.run.latency.mean),
            us(p.run.latency.p95),
            us(p.run.latency.p99),
            p.ctx_per_sec / max_ctx.max(1e-9),
        ));
        let point = if vary_cores { p.cores } else { p.replica_sets };
        let axis = if vary_cores { "cores" } else { "sets" };
        rep.scenario(
            Scenario::new(format!("{fig}/{axis}{point}"))
                .system("native")
                .seed(seed)
                .config("replica_sets", p.replica_sets)
                .config("cores", p.cores)
                .latency(&p.run.latency)
                .gauge("ctx_per_sec", p.ctx_per_sec)
                .outcome(&p.run),
        );
    }
}

/// Figure 2(a): latency and context switches vs number of replica-sets.
pub fn fig2a(rep: &mut Report, quick: bool) {
    rep.banner("Figure 2(a): native MongoDB latency vs co-located replica-sets (16 cores)");
    let ops = if quick { 200 } else { 600 };
    let points: Vec<Fig2Point> = [9u32, 12, 15, 18, 21, 24, 27]
        .into_iter()
        .map(|sets| run_fig2_point(sets, 16, ops, 0x2A))
        .collect();
    report_points(rep, "fig2a", 0x2A, &points, false);
}

/// Figure 2(b): latency and context switches vs cores (18 replica-sets).
pub fn fig2b(rep: &mut Report, quick: bool) {
    rep.banner("Figure 2(b): native MongoDB latency vs server cores (18 replica-sets)");
    let ops = if quick { 200 } else { 600 };
    let points: Vec<Fig2Point> = [2u32, 4, 6, 8, 10, 12, 14, 16]
        .into_iter()
        .map(|cores| run_fig2_point(18, cores, ops, 0x2B))
        .collect();
    report_points(rep, "fig2b", 0x2B, &points, true);
}
