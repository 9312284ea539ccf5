//! Figure 2: the motivating experiment — native (CPU-replicated) MongoDB
//! latency and context switches under multi-tenancy.
//!
//! Three server machines host every replica-set (one primary + two backups
//! each, rotated across the servers exactly like the paper's MongoDB
//! deployment); three client machines run the YCSB front ends. All
//! contention is *endogenous*: the co-located replica processes themselves
//! fight for the servers' cores — no synthetic background load.

use crate::driver::DocDriver;
use crate::exp::{col, each, fmt_ns, fmt_ratio, Band, Claim, Rows, Scn, Section, Table, Verdict};
use crate::report::{Report, Scenario};
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
    }
}

fn doc_config() -> DocConfig {
    DocConfig {
        capacity: 512,
        log_size: 1 << 20,
    }
}

/// Runs one Figure 2 configuration: `replica_sets` NaiveChain-backed
/// document stores over three `cores`-core servers, each driven closed-loop
/// with `ops_per_set` YCSB-A operations.
pub fn run_fig2_point(replica_sets: u32, cores: u32, ops_per_set: u64, seed: u64) -> Fig2Point {
    let mut arm = Arm::untapped();
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
            },
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

/// Records one Figure 2 point as scenario `name`.
fn record(rep: &mut Report, name: String, seed: u64, p: &Fig2Point) {
    rep.scenario(
        Scenario::new(name)
            .system("native")
            .seed(seed)
            .config("replica_sets", p.replica_sets)
            .config("cores", p.cores)
            .latency(&p.run.latency)
            .gauge("ctx_per_sec", p.ctx_per_sec)
            .outcome(&p.run),
    );
}

/// Figure 2(a): latency and context switches vs number of replica-sets.
pub fn fig2a(rep: &mut Report, quick: bool) {
    let ops = if quick { 200 } else { 600 };
    for sets in [9u32, 12, 15, 18, 21, 24, 27] {
        let p = run_fig2_point(sets, 16, ops, 0x2A);
        record(rep, format!("fig2a/sets{sets}"), 0x2A, &p);
    }
}

/// Figure 2(b): latency and context switches vs cores (18 replica-sets).
pub fn fig2b(rep: &mut Report, quick: bool) {
    let ops = if quick { 200 } else { 600 };
    for cores in [2u32, 4, 6, 8, 10, 12, 14, 16] {
        let p = run_fig2_point(18, cores, ops, 0x2B);
        record(rep, format!("fig2b/cores{cores}"), 0x2B, &p);
    }
}

const FIG2A_ROWS: Rows = each("fig2a/");
const FIG2B_ROWS: Rows = each("fig2b/");

/// Mean and p99 at the last point of the sweep over the first, or the
/// first over the last when `drop` is set.
fn end_ratios(rows: Rows, all: &[Scn], drop: bool) -> Vec<f64> {
    let rows = rows.of(all);
    let (Some(first), Some(last)) = (rows.first(), rows.last()) else {
        return Vec::new();
    };
    let (from, to) = if drop { (last, first) } else { (first, last) };
    ["mean", "p99"]
        .iter()
        .map(|f| to.lat(0, f) / from.lat(0, f))
        .collect()
}

fn per_sec(v: f64) -> String {
    format!("{v:.0}/s")
}

/// Figure 2(a)'s section.
pub const FIG2A: Section = Section {
    title: "Figure 2(a) — motivating experiment: latency vs co-located replica-sets",
    lead: "Paper: with 9-27 MongoDB replica-sets on 3 servers, average and tail latency grow substantially and context switches grow with tenancy.",
    tables: &[Table::grid(
        FIG2A_ROWS,
        &[
            col("sets", |r| r.key.trim_start_matches("sets").to_string()),
            col("mean", |r| fmt_ns(r.lat(0, "mean"))),
            col("p95", |r| fmt_ns(r.lat(0, "p95"))),
            col("p99", |r| fmt_ns(r.lat(0, "p99"))),
            col("normalized ctx-switches", |r| {
                let ctx = FIG2A_ROWS.values(r.all, |x| x.gauge(0, "ctx_per_sec"));
                let max = ctx.into_iter().fold(0.0f64, f64::max);
                format!("{:.2}", r.gauge(0, "ctx_per_sec") / max.max(1e-9))
            }),
        ],
    )],
    claims: &[
        Claim {
            says: "Mean and p99 latency grow substantially from the fewest to the most replica-sets.",
            measure: |all| end_ratios(FIG2A_ROWS, all, false),
            band: Band::AtLeast(1.5),
            unit: fmt_ratio,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "Context switches grow with tenancy.",
            measure: |all| FIG2A_ROWS.values(all, |r| r.gauge(0, "ctx_per_sec")),
            band: Band::Rising,
            unit: per_sec,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "",
};

/// Figure 2(b)'s section.
pub const FIG2B: Section = Section {
    title: "Figure 2(b) — latency vs cores (18 replica-sets)",
    lead: "Paper: with more cores, latency and context-switch pressure drop although network throughput is unchanged.",
    tables: &[Table::grid(
        FIG2B_ROWS,
        &[
            col("cores", |r| r.key.trim_start_matches("cores").to_string()),
            col("mean", |r| fmt_ns(r.lat(0, "mean"))),
            col("p99", |r| fmt_ns(r.lat(0, "p99"))),
        ],
    )],
    claims: &[
        Claim {
            says: "Mean and p99 latency drop from the fewest to the most cores.",
            measure: |all| end_ratios(FIG2B_ROWS, all, true),
            band: Band::AtLeast(1.0),
            unit: fmt_ratio,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "Context-switch pressure drops with more cores.",
            measure: |all| FIG2B_ROWS.values(all, |r| r.gauge(0, "ctx_per_sec")),
            band: Band::Falling,
            unit: per_sec,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "",
};
