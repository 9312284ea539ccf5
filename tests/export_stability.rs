//! Metrics-export stability: snapshotting is idempotent.
//!
//! Every `export_into` in the stack snapshots cumulative totals with
//! `counter_set` / `set_gauge`. The historical bug was exporters using
//! `counter_add`, so exporting the same state twice (a bench that writes a
//! table row and then a JSON report, a test that asserts and then dumps)
//! silently doubled every counter. This test drives a real run — including
//! a live shard migration, so the `migration.*` counters are populated —
//! and asserts that exporting twice into the same registry leaves it
//! byte-identical to exporting once.

use hyperloop_repro::hyperloop::{
    plan_migration, GroupConfig, GroupOp, HyperLoopGroup, MigrationRun, ShardId, ShardSet,
};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;
use hyperloop_repro::simcore::jsonw::canonicalize_report;
use hyperloop_repro::simcore::simaudit::op_id_base;
use hyperloop_repro::simcore::{
    Audit, HealthMonitor, MetricsRegistry, SimDuration, SloConfig, Tracer,
};
use hyperloop_repro::testbed::{drive, Cluster, ClusterConfig};

const CLIENT: NodeId = NodeId(0);

/// Runs a 2-shard workload with one live migration and returns everything
/// needed to export: the cluster model, the resolved chains, the set.
fn export_all(
    reg: &mut MetricsRegistry,
    model: &Cluster,
    chains: &[Vec<NodeId>],
    set: &ShardSet<hyperloop_repro::hyperloop::GroupClient>,
    audit: &Audit,
    health: &HealthMonitor,
) {
    model.export_into(reg, "cluster");
    model.export_shards_into(reg, chains, "bench");
    set.export_into(reg, "bench.shards");
    audit.export_into(reg, "audit");
    health.export_into(reg, "health");
}

#[test]
fn exporting_twice_is_idempotent() {
    let cfg = GroupConfig {
        shared_size: 1 << 20,
        ..GroupConfig::default()
    };
    let chains: Vec<Vec<NodeId>> = vec![vec![NodeId(1), NodeId(2)], vec![NodeId(3), NodeId(4)]];
    let standby = vec![NodeId(5), NodeId(6)];
    let mut cluster = Cluster::new(
        7,
        4,
        64 << 20,
        ClusterConfig {
            seed: 0xE4B,
            ..ClusterConfig::default()
        },
    );
    // Auditors tap the run through an audit-only tracer; their export and
    // the health monitor's must be as idempotent as every other exporter.
    let audit = Audit::standard();
    let tracer = Tracer::disabled().with_audit(audit.clone());
    cluster.set_tracer(tracer.clone());
    let health = HealthMonitor::new(SloConfig::default());
    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains
            .iter()
            .enumerate()
            .map(|(s, chain)| {
                // Per-shard, epoch-qualified generation bases: the chain
                // order auditor tells the two shards' streams apart by the
                // shard bits of every op id.
                let cfg = GroupConfig {
                    first_gen: op_id_base(s as u32, 0),
                    ..cfg
                };
                HyperLoopGroup::setup(ctx, CLIENT, chain, cfg)
            })
            .collect()
    });
    let mut set = ShardSet::with_hash_router(
        groups
            .into_iter()
            .map(|g| {
                let mut c = g.client;
                c.set_tracer(tracer.clone());
                c
            })
            .collect(),
    );
    let mut sim = cluster.into_sim();
    sim.run();

    // Some traffic on both shards, then a live migration of shard 0 so the
    // migration counters exist in the snapshot too.
    drive(&mut sim, |ctx| {
        for s in 0..2 {
            for k in 0..4u64 {
                set.issue_on(
                    ctx,
                    ShardId(s),
                    GroupOp::Write {
                        offset: k * 8192,
                        data: Payload::copy_from(&[7; 128]),
                        flush: true,
                    },
                )
                .unwrap();
                health.record_issue(ctx.now, s);
            }
        }
    });
    let plan = plan_migration(
        ShardId(0),
        set.epoch(ShardId(0)),
        &chains[0],
        &standby,
        cfg.shared_size,
    );
    let run = MigrationRun::begin(&mut sim, &mut set, plan);
    let outcome = run.finish(&mut sim, &mut set);
    for a in &outcome.drained {
        health.record_ack(sim.now(), a.shard.0, SimDuration::from_micros(10));
    }
    loop {
        sim.run();
        let acks = drive(&mut sim, |ctx| set.poll(ctx));
        for a in &acks {
            health.record_ack(sim.now(), a.shard.0, SimDuration::from_micros(10));
        }
        if set.in_flight() == 0 {
            break;
        }
    }
    health.tick(sim.now());
    let chains_now = vec![standby, chains[1].clone()];

    // Export once into a fresh registry, and twice into another: the two
    // must serialize byte-identically — snapshots set, they never add.
    let mut once = MetricsRegistry::new();
    export_all(&mut once, &sim.model, &chains_now, &set, &audit, &health);
    let mut twice = MetricsRegistry::new();
    export_all(&mut twice, &sim.model, &chains_now, &set, &audit, &health);
    export_all(&mut twice, &sim.model, &chains_now, &set, &audit, &health);
    // Byte-identity goes through the shared report canonicalizer so any
    // volatile host-side fields (wall-clock times) can never fail it.
    assert_eq!(
        canonicalize_report(&once.to_json()).expect("canonicalize once"),
        canonicalize_report(&twice.to_json()).expect("canonicalize twice"),
        "exporting the same state twice changed the registry"
    );

    // The migration counters made it into the snapshot with set semantics.
    assert_eq!(
        twice.counter("bench.shards.shard0.migration.epoch"),
        Some(1)
    );
    assert_eq!(
        twice.counter("bench.shards.shard0.acked"),
        once.counter("bench.shards.shard0.acked")
    );
    // Instantaneous values are gauges, not counters: a second export must
    // not have turned them into accumulating state, and they live on the
    // gauge side of the registry.
    assert_eq!(twice.gauge("bench.shards.shards"), Some(2.0));
    assert_eq!(twice.counter("bench.shards.shards"), None);
    assert_eq!(twice.gauge("bench.shards.shard0.in_flight"), Some(0.0));
    assert!(twice.counter("cluster.fabric.wqes_executed").unwrap() > 0);

    // The audit and health exporters follow the same set/gauge discipline:
    // a clean run snapshots zero violations (per auditor and total), the
    // breach totals are counters, and the per-shard states are gauges —
    // none of them doubled by the second export (the byte-compare above is
    // the real witness; these pin the key names).
    assert_eq!(twice.counter("audit.violations"), Some(0));
    for auditor in ["durability", "chain_order", "flow_control", "migration"] {
        assert_eq!(
            twice.counter(&format!("audit.{auditor}.violations")),
            Some(0),
            "auditor {auditor} missing from the snapshot"
        );
    }
    assert_eq!(
        twice.counter("health.breaches"),
        once.counter("health.breaches")
    );
    for s in 0..2 {
        assert!(
            twice.gauge(&format!("health.shard{s}.state")).is_some(),
            "shard {s} state missing from the health snapshot"
        );
        assert_eq!(twice.counter(&format!("health.shard{s}.acks")), Some(4));
    }
}

/// The transaction manager's export follows the same discipline. A
/// contended two-shard workload populates the txnscope counters — abort
/// causes, backoff draws, per-stripe contention — and exporting the same
/// manager twice must leave the registry byte-identical: every
/// `txn.contention.*` / `txn.abort_causes.*` value is `counter_set`,
/// never added.
#[test]
fn txn_observability_export_is_idempotent() {
    use hyperloop_repro::hyperloop::harness::{drive as hl_drive, fabric_sim};
    use hyperloop_repro::hyperloop::txn::CommitMode;
    use hyperloop_repro::kvstore::{KvConfig, ReplicatedKv, ShardedKv};

    let n_shards = 2u32;
    let mut sim = fabric_sim(1 + 2 * n_shards, 64 << 20, 29);
    let mut stores = Vec::new();
    for s in 0..n_shards {
        let nodes = [NodeId(1 + 2 * s), NodeId(2 + 2 * s)];
        let group = hl_drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
        });
        sim.run();
        stores.push(ReplicatedKv::new(group.client, KvConfig::default()));
    }
    let mut kv = ShardedKv::with_hash_router(stores);
    kv.enable_txns(CommitMode::Locking, 23);

    // Two transactions fight over one key so conflicts, parks, and
    // (eventually) per-site contention detail all exist in the snapshot.
    let k = 0u64;
    let mut t1 = kv.txn();
    kv.txn_put(&mut t1, k, b"one".to_vec()).unwrap();
    let mut t2 = kv.txn();
    kv.txn_put(&mut t2, k, b"two".to_vec()).unwrap();
    kv.txn_commit(t1);
    kv.txn_commit(t2);
    for _ in 0..400 {
        sim.run();
        hl_drive(&mut sim, |ctx| {
            kv.poll(ctx);
            kv.pump_txns(ctx)
        });
        if kv.txn_manager().in_flight() == 0 {
            break;
        }
    }
    assert_eq!(kv.txn_manager().in_flight(), 0, "transactions wedged");

    let mgr = kv.txn_manager();
    let mut once = MetricsRegistry::new();
    mgr.export_into(&mut once, "txn");
    let mut twice = MetricsRegistry::new();
    mgr.export_into(&mut twice, "txn");
    mgr.export_into(&mut twice, "txn");
    assert_eq!(
        canonicalize_report(&once.to_json()).expect("canonicalize once"),
        canonicalize_report(&twice.to_json()).expect("canonicalize twice"),
        "exporting the transaction manager twice changed the registry"
    );

    // Pin the txnscope key names with set semantics: the contended run
    // metered the stripe fight, and the abort-cause counters tile the
    // abort total even after the double export.
    assert_eq!(twice.counter("txn.started"), Some(2));
    assert!(twice.counter("txn.contention.attempts").unwrap() >= 2);
    assert!(twice.counter("txn.contention.cas_failures").unwrap() >= 1);
    assert!(twice.counter("txn.contention.conflicts").unwrap() >= 1);
    assert_eq!(twice.counter("txn.contention.false_conflicts"), Some(0));
    assert!(twice.counter("txn.contention.contended_sites").unwrap() >= 1);
    assert!(twice.counter("txn.backoff.parks").unwrap() >= 1);
    let aborted = twice.counter("txn.aborted").unwrap();
    let causes: u64 = [
        "txn.abort_causes.lock_conflict",
        "txn.abort_causes.validation_failed",
        "txn.abort_causes.backoff_exhausted",
    ]
    .iter()
    .map(|k| twice.counter(k).unwrap())
    .sum();
    assert_eq!(causes, aborted, "abort causes must tile txn.aborted");
    // In-flight is instantaneous state: gauge side only.
    assert_eq!(twice.gauge("txn.in_flight"), Some(0.0));
    assert_eq!(twice.counter("txn.in_flight"), None);
}
