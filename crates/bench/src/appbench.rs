//! Application benchmarks: the paper's §6.2 (Figures 11 and 12) plus the
//! design-choice ablations DESIGN.md calls out.

use crate::driver::{DocDriver, KvDriver};
use crate::exp::{
    col, each, fmt_ns, fmt_pct, fmt_ratio, sweep, Band, Claim, Col, Layout, Row, Rows, Scn,
    Section, Table, Verdict,
};
use crate::micro::{
    bench_group_config, gwrite_plan, gwrite_plan_flush, run_primitive, MicroOpts, SystemKind,
    CORES, HOG_PROFILE, SCHED,
};
use crate::report::{Report, Scenario};
use crate::run::{self, Arm, Installed, Outcome};
use baseline::{NaiveChain, NaiveClient, NaiveConfig};
use cpusched::ProcKind;
use docstore::{DocConfig, ReplicatedDocStore};
use hyperloop::apps::install_group_maintenance;
use hyperloop::{GroupClient, HyperLoopGroup};
use kvstore::{KvConfig, ReplicatedKv};
use netsim::NodeId;
use simcore::{MetricsRegistry, SimDuration, SimTime};
use testbed::{Cluster, ClusterConfig};
use ycsb::{Generator, Workload};

/// The app chains' replica nodes; the client is node 0.
const REPLICAS: [NodeId; 3] = [NodeId(1), NodeId(2), NodeId(3)];

/// The multi-tenant application environment: client node 0, replicas 1..=3
/// hosting 96 background tenants each, on the microbenchmarks' machines.
fn app_cluster(seed: u64) -> Cluster {
    let mut cluster = Cluster::new(4, CORES, 256 << 20, ClusterConfig { seed, sched: SCHED });
    for n in REPLICAS {
        cluster.add_background_load(n, 96, HOG_PROFILE);
    }
    cluster
}

/// The app's HyperLoop chain: a 16 MiB shared region behind a 16-op window,
/// its replicas maintained off the critical path.
fn hyperloop_chain(cluster: &mut Cluster) -> GroupClient {
    let group = cluster.setup_fabric(|ctx| {
        HyperLoopGroup::setup(
            ctx,
            NodeId(0),
            &REPLICAS,
            hyperloop::GroupConfig {
                shared_size: 16 << 20,
                ..bench_group_config(16)
            },
        )
    });
    install_group_maintenance(cluster, group.replicas, SimDuration::from_nanos(400));
    group.client
}

/// The app's Naive chain, with the same region and window.
fn naive_chain(cluster: &mut Cluster, replica_kind: ProcKind) -> NaiveClient {
    NaiveChain::setup(
        cluster,
        NodeId(0),
        &REPLICAS,
        NaiveConfig {
            shared_size: 16 << 20,
            window: 16,
            prepost_depth: 768,
            replica_kind,
            ..NaiveConfig::default()
        },
    )
    .client
}

/// Polls one app arm to completion and closes it: the cluster's counters,
/// the client's latency histogram under `bench.op_latency`, and health.
fn finish_app(arm: Arm, cluster: Cluster, client: Installed, ops: u64) -> Outcome {
    let mut sim = cluster.into_sim();
    let hist = arm.poll(
        &mut sim,
        &[client],
        SimDuration::from_millis(20),
        SimTime::from_secs(1200),
    );
    let mut registry = MetricsRegistry::new();
    sim.model.export_into(&mut registry, "cluster");
    registry.merge_histogram("bench.op_latency", &hist);
    arm.health.export_into(&mut registry, "health");
    let elapsed = sim.now().since(SimTime::ZERO);
    arm.finish(&sim, ops, elapsed, &hist, registry)
}

fn kv_config() -> KvConfig {
    KvConfig {
        capacity: 4096,
        log_size: 8 << 20,
        durable: true,
    }
}

/// One Fig. 11 arm: replicated RocksDB (kvstore) update latency under
/// YCSB-A with co-located tenants.
pub fn run_fig11_arm(kind: SystemKind, writes: u64, seed: u64) -> Outcome {
    let arm = Arm::untapped();
    let mut cluster = app_cluster(seed);
    let pace = SimDuration::from_micros(300);
    let gen = Generator::with_value_len(Workload::A, 4096, seed ^ 0xA5, 1024);
    let cost = SimDuration::from_nanos(300);
    let client = match kind {
        SystemKind::HyperLoop => {
            let store = ReplicatedKv::new(hyperloop_chain(&mut cluster), kv_config());
            let d = KvDriver::new(store, gen, writes, 50, pace).with_health(arm.health.clone(), 0);
            run::install(&mut cluster, ProcKind::Polling, d, cost)
        }
        SystemKind::NaiveEvent | SystemKind::NaivePolling => {
            let chain = naive_chain(&mut cluster, kind.replica_kind());
            let store = ReplicatedKv::new(chain, kv_config());
            let d = KvDriver::new(store, gen, writes, 50, pace).with_health(arm.health.clone(), 0);
            run::install(&mut cluster, ProcKind::Polling, d, cost)
        }
    };
    finish_app(arm, cluster, client, writes)
}

/// Figure 11: replicated RocksDB update latency, three systems.
pub fn fig11(rep: &mut Report, quick: bool) {
    let writes = if quick { 800 } else { 4000 };
    for kind in [
        SystemKind::NaiveEvent,
        SystemKind::NaivePolling,
        SystemKind::HyperLoop,
    ] {
        let r = run_fig11_arm(kind, writes, 0xF11);
        rep.scenario(
            Scenario::new(format!("fig11/ycsb-a/{}", kind.label()))
                .system(kind.label())
                .seed(0xF11)
                .config("store", "kvstore")
                .config("workload", "YCSB-A")
                .config("writes", writes)
                .latency(&r.latency)
                .outcome(&r),
        );
    }
}

fn doc_config() -> DocConfig {
    DocConfig {
        capacity: 4096,
        log_size: 8 << 20,
    }
}

/// One Fig. 12 arm: replicated MongoDB (docstore) latency for a YCSB
/// workload, native (event-driven CPU replication) vs HyperLoop.
pub fn run_fig12_arm(hl: bool, workload: Workload, ops: u64, seed: u64) -> Outcome {
    let arm = Arm::untapped();
    let mut cluster = app_cluster(seed);
    let stack = SimDuration::from_micros(150);
    let pace = SimDuration::from_micros(200);
    let gen = Generator::with_value_len(workload, 4096, seed ^ 0x12, 1024);
    let cost = SimDuration::from_nanos(300);
    let client = if hl {
        let store = ReplicatedDocStore::new(hyperloop_chain(&mut cluster), doc_config(), 1);
        let d = DocDriver::new(store, gen, ops, 50, stack, pace).with_health(arm.health.clone(), 0);
        run::install(&mut cluster, ProcKind::Polling, d, cost)
    } else {
        let chain = naive_chain(&mut cluster, ProcKind::EventDriven);
        let mut store = ReplicatedDocStore::new(chain, doc_config(), 1);
        // Native MongoDB: journal replication is the critical path; log
        // application is asynchronous (paper §5.2 description of vanilla
        // replication).
        store.set_mode(docstore::WriteMode::AppendOnly);
        let d = DocDriver::new(store, gen, ops, 50, stack, pace).with_health(arm.health.clone(), 0);
        run::install(&mut cluster, ProcKind::Polling, d, cost)
    };
    finish_app(arm, cluster, client, ops)
}

/// Figure 12: replicated MongoDB latency across YCSB workloads.
pub fn fig12(rep: &mut Report, quick: bool) {
    let ops = if quick { 1500 } else { 8000 };
    for (wi, w) in Workload::PAPER_SET.into_iter().enumerate() {
        let seed = 0xF12 + 101 * wi as u64;
        for (hl, label) in [(false, "native"), (true, "HyperLoop")] {
            let r = run_fig12_arm(hl, w, ops, seed);
            rep.scenario(
                Scenario::new(format!("fig12/{w}/{label}"))
                    .system(label)
                    .seed(seed)
                    .config("store", "docstore")
                    .config("workload", w.to_string())
                    .config("ops", ops)
                    .latency(&r.latency)
                    .outcome(&r),
            );
        }
    }
}

/// Design-choice ablations (DESIGN.md):
/// flush cost, polling crossover, fan-out vs chain.
pub fn ablations(rep: &mut Report, quick: bool) {
    let opts = MicroOpts {
        ops: if quick { 500 } else { 3000 },
        hogs_per_node: 0,
        pace: SimDuration::ZERO,
        ..MicroOpts::default()
    };
    for flush in [false, true] {
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, flush), opts).run;
        rep.scenario(
            Scenario::new(format!(
                "ablation/flush-cost/{}",
                if flush { "flush" } else { "no-flush" }
            ))
            .system(SystemKind::HyperLoop.label())
            .seed(opts.seed)
            .config("payload_bytes", 1024u64)
            .config("flush", flush)
            .latency(&r.latency)
            .outcome(&r),
        );
    }

    for gs in [3u32, 5, 7] {
        let chain = crate::fanout_ablation::chain_write_latency(gs, if quick { 200 } else { 800 });
        let fan = crate::fanout_ablation::fanout_write_latency(gs, if quick { 200 } else { 800 });
        let (chain_p50, fan_p50) = (chain.latency.p50, fan.latency.p50);
        // Two runs, one scenario: fold their host meters into one block.
        // The health/series blocks come from the chain arm (the paper's
        // default topology); the fan-out arm's telemetry is equivalent.
        rep.scenario(
            Scenario::new(format!("ablation/fanout/g{gs}"))
                .config("group_size", gs)
                .gauge("chain_p50_ns", chain_p50.as_nanos() as f64)
                .gauge("fanout_p50_ns", fan_p50.as_nanos() as f64)
                .health(chain.health)
                .series(chain.series)
                .host(chain.host.merged(&fan.host)),
        );
    }

    for n in [1u32, 2, 3] {
        let r = crate::fanout_ablation::read_scaling(n, if quick { 1000 } else { 4000 });
        let rps = r.ops_per_sec();
        rep.scenario(
            Scenario::new(format!("ablation/read-scaling/{n}"))
                .config("serving_replicas", n)
                .config("read_bytes", 8192u64)
                .gauge("reads_per_sec", rps)
                .outcome(&r),
        );
    }

    for hogs in [0u32, 32, 96] {
        let opts = MicroOpts {
            ops: if quick { 600 } else { 2500 },
            hogs_per_node: hogs,
            ..MicroOpts::default()
        };
        for kind in [SystemKind::NaiveEvent, SystemKind::NaivePolling] {
            let r = run_primitive(kind, gwrite_plan(1024), opts);
            rep.scenario(
                Scenario::new(format!("ablation/colocation/hogs{hogs}/{}", kind.label()))
                    .system(kind.label())
                    .seed(opts.seed)
                    .config("hogs_per_node", hogs)
                    .config("payload_bytes", 1024u64)
                    .latency(&r.run.latency)
                    .outcome(&r.run),
            );
        }
    }
}

const FIG11_ROWS: Rows = sweep("fig11/", &["Naive-Event", "Naive-Polling", "HyperLoop"]);

/// Figure 11's section.
pub const FIG11: Section = Section {
    title: "Figure 11 — replicated RocksDB (kvstore), YCSB-A updates",
    lead:
        "Paper: HyperLoop's tail is 5.7x lower than Naive-Event and 24.2x lower than Naive-Polling.",
    tables: &[Table::grid(
        each("fig11/ycsb-a/"),
        &[
            col("system", |r| r.key.clone()),
            col("mean", |r| fmt_ns(r.lat(0, "mean"))),
            col("p95", |r| fmt_ns(r.lat(0, "p95"))),
            col("p99", |r| fmt_ns(r.lat(0, "p99"))),
        ],
    )],
    claims: &[
        Claim {
            says: "HyperLoop's p99 is 5.7x lower than Naive-Event's.",
            measure: |all| FIG11_ROWS.values(all, |r| r.lat(0, "p99") / r.lat(2, "p99")),
            band: Band::Order(5.7),
            unit: fmt_ratio,
            verdict: Verdict::Diverges("open"),
        },
        Claim {
            says: "HyperLoop's p99 is 24.2x lower than Naive-Polling's.",
            measure: |all| FIG11_ROWS.values(all, |r| r.lat(1, "p99") / r.lat(2, "p99")),
            band: Band::Order(24.2),
            unit: fmt_ratio,
            verdict: Verdict::Diverges("open"),
        },
        Claim {
            says: "Naive-Polling's p99 is above Naive-Event's.",
            measure: |all| FIG11_ROWS.values(all, |r| r.lat(1, "p99") / r.lat(0, "p99")),
            band: Band::AtLeast(1.0),
            unit: |v| format!("{v:.2}x"),
            verdict: Verdict::Unsettled(
                "quick runs read 11.80 ms over 8.65 ms, full-size runs 6.03 ms under 7.73 ms",
            ),
        },
    ],
    note: "",
};

const FIG12_ROWS: Rows = sweep("fig12/", &["native", "HyperLoop"]);

/// HyperLoop's cut of the native mean latency, as a fraction.
fn mean_cut(r: &Row<'_>) -> f64 {
    1.0 - r.lat(1, "mean") / r.lat(0, "mean")
}

/// HyperLoop's cut of the native mean-to-p99 gap, as a fraction.
fn gap_cut(r: &Row<'_>) -> f64 {
    let gap = |arm| r.lat(arm, "p99") - r.lat(arm, "mean");
    1.0 - gap(1) / gap(0).max(1.0)
}

/// Figure 12's section.
pub const FIG12: Section = Section {
    title: "Figure 12 — replicated MongoDB (docstore), YCSB A/B/D/E/F",
    lead: "Paper: HyperLoop cuts average insert/update latency by up to 79% and the average-to-p99 gap by up to 81%.",
    tables: &[Table::grid(
        FIG12_ROWS,
        &[
            col("workload", |r| r.key.clone()),
            col("native mean", |r| fmt_ns(r.lat(0, "mean"))),
            col("native p99", |r| fmt_ns(r.lat(0, "p99"))),
            col("HL mean", |r| fmt_ns(r.lat(1, "mean"))),
            col("HL p99", |r| fmt_ns(r.lat(1, "p99"))),
            col("mean cut", |r| fmt_pct(mean_cut(r))),
            col("gap cut", |r| fmt_pct(gap_cut(r))),
        ],
    )],
    claims: &[
        Claim {
            says: "HyperLoop cuts average latency by up to 79%.",
            measure: |all| FIG12_ROWS.max(all, mean_cut),
            band: Band::Similar(0.79),
            unit: fmt_pct,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "HyperLoop cuts the average-to-p99 gap by up to 81%.",
            measure: |all| FIG12_ROWS.max(all, gap_cut),
            band: Band::Similar(0.81),
            unit: fmt_pct,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "",
};

/// A table nested in a bullet of the ablations.
const fn bullet(intro: &'static str, rows: Rows, cols: &'static [Col]) -> Table {
    Table {
        intro,
        indent: "  ",
        ..Table::grid(rows, cols)
    }
}

const COLOCATION_ROWS: Rows = sweep("ablation/colocation/", &["Naive-Event", "Naive-Polling"]);
const FANOUT_ROWS: Rows = each("ablation/fanout/");
const READ_ROWS: Rows = each("ablation/read-scaling/");

/// Naive-Polling's p99 over Naive-Event's at the fewest (`last` false) or
/// the most tenants per node.
fn polling_over_event(all: &[Scn], last: bool) -> Vec<f64> {
    let rows = COLOCATION_ROWS.of(all);
    let row = if last { rows.last() } else { rows.first() };
    row.map(|r| r.lat(1, "p99") / r.lat(0, "p99"))
        .into_iter()
        .collect()
}

/// The ablations' section.
pub const ABLATIONS: Section = Section {
    title: "Ablations (design choices from DESIGN.md)",
    lead: "",
    tables: &[
        Table {
            layout: Layout::Sentence(|r| {
                let (a, b) = (r.lat(0, "mean"), r.lat(1, "mean"));
                format!(
                    "* **Interleaved gFLUSH cost**: gWRITE {} -> gWRITE+gFLUSH {} (computed delta {} per op). The durability interleave costs one 0-byte READ round-trip per hop.",
                    fmt_ns(a),
                    fmt_ns(b),
                    fmt_ns(b - a)
                )
            }),
            ..Table::grid(sweep("ablation/", &["no-flush", "flush"]), &[])
        },
        bullet(
            "* **Polling vs event-driven under co-location**:",
            COLOCATION_ROWS,
            &[
                col("tenants/node", |r| r.key.trim_start_matches("hogs").to_string()),
                col("Naive-Event p99", |r| fmt_ns(r.lat(0, "p99"))),
                col("Naive-Polling p99", |r| fmt_ns(r.lat(1, "p99"))),
            ],
        ),
        bullet(
            "* **Fan-out vs chain** (median 1 KB durable-write latency):",
            FANOUT_ROWS,
            &[
                col("replicas", |r| r.key.trim_start_matches('g').to_string()),
                col("chain", |r| fmt_ns(r.gauge(0, "chain_p50_ns"))),
                col("fan-out", |r| fmt_ns(r.gauge(0, "fanout_p50_ns"))),
            ],
        ),
        bullet(
            "* **Consistent-read scaling** (8 KB objects, three reader clients):",
            READ_ROWS,
            &[
                col("serving replicas", |r| r.key.clone()),
                col("reads/s", |r| {
                    format!("{:.0} k", r.gauge(0, "reads_per_sec") / 1e3)
                }),
                col("aggregate Gbps", |r| {
                    format!("{:.1}", r.gauge(0, "reads_per_sec") * 8192.0 * 8.0 / 1e9)
                }),
            ],
        ),
    ],
    claims: &[
        Claim {
            says: "Polling wins while it owns a core: with no tenants, Naive-Polling's p99 is below Naive-Event's.",
            measure: |all| polling_over_event(all, false),
            band: Band::Under(1.0),
            unit: |v| format!("{v:.2}x"),
            verdict: Verdict::Holds,
        },
        Claim {
            says: "Polling loses once tenants contend: at the most tenants per node, Naive-Polling's p99 is above Naive-Event's — the paper's core motivation for not burning cores.",
            measure: |all| polling_over_event(all, true),
            band: Band::AtLeast(1.0),
            unit: |v| format!("{v:.2}x"),
            verdict: Verdict::Holds,
        },
        Claim {
            says: "Fan-out's median write latency is flat in the replica count: the backups are written in parallel.",
            measure: |all| FANOUT_ROWS.values(all, |r| r.gauge(0, "fanout_p50_ns")),
            band: Band::Flat(0.1),
            unit: fmt_ns,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "The chain pays per-hop latency: its median write latency rises with every replica.",
            measure: |all| FANOUT_ROWS.values(all, |r| r.gauge(0, "chain_p50_ns")),
            band: Band::Rising,
            unit: fmt_ns,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "One replica saturates its port: spreading reads over more replicas raises the aggregate read rate.",
            measure: |all| READ_ROWS.values(all, |r| r.gauge(0, "reads_per_sec")),
            band: Band::Rising,
            unit: |v| format!("{:.0} k", v / 1e3),
            verdict: Verdict::Holds,
        },
    ],
    note: "",
};
