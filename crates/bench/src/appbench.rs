//! Application benchmarks: the paper's §6.2 (Figures 11 and 12) plus the
//! design-choice ablations DESIGN.md calls out.

use crate::driver::{DocDriver, KvDriver};
use crate::micro::{
    bench_group_config, gwrite_plan, gwrite_plan_flush, run_primitive, sched_config, MicroOpts,
    SystemKind, CORES, HOG_PROFILE,
};
use crate::report::{latency_header, latency_row, ratio, us, Report, Scenario};
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
    let mut cluster = Cluster::new(
        4,
        CORES,
        256 << 20,
        ClusterConfig {
            seed,
            sched: sched_config(),
            ..ClusterConfig::default()
        },
    );
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
        max_value: 1024,
        log_size: 8 << 20,
        control_size: 4096,
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
    rep.banner("Figure 11: replicated RocksDB (kvstore), YCSB-A updates, loaded replicas");
    let writes = if quick { 800 } else { 4000 };
    rep.line(latency_header("system"));
    let mut p99s = Vec::new();
    for kind in [
        SystemKind::NaiveEvent,
        SystemKind::NaivePolling,
        SystemKind::HyperLoop,
    ] {
        let r = run_fig11_arm(kind, writes, 0xF11);
        rep.line(latency_row(kind.label(), &r.latency));
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
        p99s.push((kind, r.latency.p99));
    }
    let hl = p99s[2].1;
    rep.line(format!(
        "p99 gains over HyperLoop: Naive-Event {} Naive-Polling {}",
        ratio(p99s[0].1, hl),
        ratio(p99s[1].1, hl),
    ));
}

fn doc_config() -> DocConfig {
    DocConfig {
        capacity: 4096,
        max_doc: 1536,
        log_size: 8 << 20,
        n_locks: 64,
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
    rep.banner("Figure 12: replicated MongoDB (docstore), YCSB A/B/D/E/F, loaded replicas");
    let ops = if quick { 1500 } else { 8000 };
    rep.line(format!(
        "{:<10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>9} {:>9}",
        "workload",
        "nat mean",
        "nat p95",
        "nat p99",
        "HL mean",
        "HL p95",
        "HL p99",
        "mean cut",
        "gap cut"
    ));
    for (wi, w) in Workload::PAPER_SET.into_iter().enumerate() {
        let seed = 0xF12 + 101 * wi as u64;
        let nat = run_fig12_arm(false, w, ops, seed);
        let hl = run_fig12_arm(true, w, ops, seed);
        let (n, h) = (&nat.latency, &hl.latency);
        let mean_cut = 100.0 * (1.0 - h.mean.as_micros_f64() / n.mean.as_micros_f64().max(1e-9));
        let gap_nat = n.p99.as_micros_f64() - n.mean.as_micros_f64();
        let gap_hl = h.p99.as_micros_f64() - h.mean.as_micros_f64();
        let gap_cut = 100.0 * (1.0 - gap_hl / gap_nat.max(1e-9));
        rep.line(format!(
            "{:<10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9} | {:>8.0}% {:>8.0}%",
            w.to_string(),
            us(n.mean),
            us(n.p95),
            us(n.p99),
            us(h.mean),
            us(h.p95),
            us(h.p99),
            mean_cut,
            gap_cut,
        ));
        for (label, r) in [("native", &nat), ("HyperLoop", &hl)] {
            rep.scenario(
                Scenario::new(format!("fig12/{w}/{label}"))
                    .system(label)
                    .seed(seed)
                    .config("store", "docstore")
                    .config("workload", w.to_string())
                    .config("ops", ops)
                    .latency(&r.latency)
                    .outcome(r),
            );
        }
    }
}

/// Design-choice ablations (DESIGN.md):
/// flush cost, polling crossover, fan-out vs chain.
pub fn ablations(rep: &mut Report, quick: bool) {
    rep.banner("Ablation: interleaved gFLUSH cost (HyperLoop gWRITE, unloaded)");
    let opts = MicroOpts {
        ops: if quick { 500 } else { 3000 },
        hogs_per_node: 0,
        pace: SimDuration::ZERO,
        ..MicroOpts::default()
    };
    for (label, flush) in [("gWRITE only", false), ("gWRITE + gFLUSH", true)] {
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, flush), opts).run;
        rep.line(format!(
            "{:<18} mean={} p99={}",
            label,
            us(r.latency.mean),
            us(r.latency.p99)
        ));
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

    rep.banner("Ablation: chain vs NIC-coordinated fan-out (unloaded, 1 KB durable writes)");
    rep.line(format!(
        "{:<8} {:>14} {:>14}",
        "replicas", "chain p50", "fan-out p50"
    ));
    for gs in [3u32, 5, 7] {
        let chain = crate::fanout_ablation::chain_write_latency(gs, if quick { 200 } else { 800 });
        let fan = crate::fanout_ablation::fanout_write_latency(gs, if quick { 200 } else { 800 });
        let (chain_p50, fan_p50) = (chain.latency.p50, fan.latency.p50);
        rep.line(format!(
            "{:<8} {:>14} {:>14}",
            gs,
            us(chain_p50),
            us(fan_p50)
        ));
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

    rep.banner("Ablation: consistent-read scaling across serving replicas (beyond the paper)");
    rep.line(format!(
        "{:<18} {:>12} {:>10}",
        "serving replicas", "8KB reads/s", "aggregate"
    ));
    for n in [1u32, 2, 3] {
        let r = crate::fanout_ablation::read_scaling(n, if quick { 1000 } else { 4000 });
        let rps = r.ops_per_sec();
        rep.line(format!(
            "{:<18} {:>12.0} {:>7.1} Gbps",
            n,
            rps,
            rps * 8192.0 * 8.0 / 1e9
        ));
        rep.scenario(
            Scenario::new(format!("ablation/read-scaling/{n}"))
                .config("serving_replicas", n)
                .config("read_bytes", 8192u64)
                .gauge("reads_per_sec", rps)
                .outcome(&r),
        );
    }

    rep.banner("Ablation: polling vs event-driven replicas vs co-location");
    rep.line(format!(
        "{:<10} {:>16} {:>16}",
        "tenants", "Naive-Event p99", "Naive-Polling p99"
    ));
    for hogs in [0u32, 32, 96] {
        let opts = MicroOpts {
            ops: if quick { 600 } else { 2500 },
            hogs_per_node: hogs,
            ..MicroOpts::default()
        };
        let ev = run_primitive(SystemKind::NaiveEvent, gwrite_plan(1024), opts);
        let po = run_primitive(SystemKind::NaivePolling, gwrite_plan(1024), opts);
        rep.line(format!(
            "{:<10} {:>16} {:>16}",
            hogs,
            us(ev.run.latency.p99),
            us(po.run.latency.p99)
        ));
        for (kind, r) in [
            (SystemKind::NaiveEvent, &ev),
            (SystemKind::NaivePolling, &po),
        ] {
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
