//! The shard-scaling benchmark: aggregate throughput vs shard count.
//!
//! One client machine drives 1→8 independent HyperLoop chains through a
//! [`ShardSet`], with a fixed offered load (total operations, uniform
//! random keys, fixed per-shard window). A single group serializes on one
//! chain; sharding lets the chains replicate concurrently, so aggregate
//! throughput should rise monotonically with the shard count until the
//! client NIC saturates — the scale-out story the single-group sections of
//! the paper leave implicit.
//!
//! Chains are laid out disjointly over the rack with
//! [`ShardPlacement::RoundRobin`]; the report carries both the shard-set
//! counters (`bench.shards.shard{i}.*`) and the per-chain NVM counters
//! (`bench.shard{i}.nvm.node{n}.*`), so the JSON shows the traffic each
//! chain actually carried.

use crate::driver::Client;
use crate::exp::{
    col, counter_track, each, fmt_kops, fmt_ns, fmt_ratio, track_label, track_line, track_peak,
    Band, Claim, Col, Rows, Section, Table, Verdict,
};
use crate::migrate::{Move, DEFER};
use crate::report::{Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use cpusched::ProcKind;
use hyperloop::apps::{install_group_maintenance, Maintainer};
use hyperloop::{
    GroupClient, GroupConfig, GroupOp, GroupTransport, HyperLoopGroup, MigrationRun,
    MigrationStats, ShardAck, ShardId, ShardSet,
};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simaudit::{op_id_base, Probe};
use simcore::{HealthMonitor, Latencies, MetricsRegistry, SimDuration, SimRng, SimTime};
use std::collections::VecDeque;
use testbed::{Cluster, ClusterConfig, Env, HostApp, HostEvent, ShardPlacement};

/// Replicas per shard chain.
pub const REPLICAS_PER_SHARD: u32 = 3;
/// Per-shard in-flight window.
pub const WINDOW: u32 = 16;
/// gWRITE payload bytes.
pub const PAYLOAD: u64 = 1024;
/// Bytes of each group's shared region (the image a migration moves).
pub(crate) const SHARED_SIZE: u64 = 4 << 20;
/// Client CPU charged per completion wake.
pub(crate) const HANDLER_COST: SimDuration = SimDuration::from_nanos(300);
/// Replica CPU charged per maintenance wake (as in the micro arms).
const MAINTENANCE_COST: SimDuration = SimDuration::from_nanos(400);
/// The harness cadence of the sharded runners: one SLO bucket between
/// health ticks and counter-track samples.
pub(crate) const CADENCE: SimDuration = SimDuration::from_micros(50);
/// Simulated time past which a sharded arm counts as stalled.
pub(crate) const CAP: SimTime = SimTime::from_secs(10);
/// How often a migrating client steps its coordinator. The bulk copy
/// completes on the source replica's CQ, which cannot wake a process on
/// the client node.
const COORDINATOR_POLL: SimDuration = SimDuration::from_micros(10);

/// Shard-scaling benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct ShardScaleOpts {
    /// Total operations across all shards (the fixed offered load).
    pub ops: u64,
    /// Root seed.
    pub seed: u64,
    /// Capture a causal trace + counter-track samples for this arm.
    pub trace: bool,
}

impl Default for ShardScaleOpts {
    fn default() -> Self {
        ShardScaleOpts {
            ops: 4096,
            seed: 0x5CA1E,
            trace: false,
        }
    }
}

/// Result of one shard-count arm.
#[derive(Debug, Clone)]
pub struct ShardScaleResult {
    /// Per-shard completion counts, shard order.
    pub per_shard_acked: Vec<u64>,
    /// The arm's outcome: latency from issue to chain ack, cluster +
    /// shard-set metrics, audit/health with zero expected violations.
    pub run: Outcome,
}

/// Builds the sharded cluster: a client on node 0 and `n_shards + spare`
/// disjoint chains of [`REPLICAS_PER_SHARD`], with a HyperLoop group on
/// each of the first `n_shards` chains, wired to `arm`, its replicas kept
/// topped up by maintenance processes, and the flow-control auditor
/// taught each shard's [`WINDOW`]. Returns the cluster, every chain
/// (shard order, spares last) and each active shard's group client.
pub(crate) fn sharded_groups(
    arm: &Arm,
    n_shards: u32,
    spare: u32,
    seed: u64,
) -> (Cluster, Vec<Vec<NodeId>>, Vec<GroupClient>) {
    let client = NodeId(0);
    let mut cluster = Cluster::new(
        1 + (n_shards + spare) * REPLICAS_PER_SHARD,
        4,
        256 << 20,
        ClusterConfig {
            seed,
            ..ClusterConfig::default()
        },
    );
    let placement = ShardPlacement::RoundRobin {
        replicas_per_shard: REPLICAS_PER_SHARD,
    };
    let chains = cluster.place_shards(&placement, n_shards + spare, client);
    arm.wire(&mut cluster);
    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains[..n_shards as usize]
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                // Disjoint generation bases keep op ids (= trace ids =
                // WQE wr_ids) globally unique across shards.
                let cfg = GroupConfig {
                    shared_size: SHARED_SIZE,
                    prepost_depth: 128,
                    window: WINDOW,
                    first_gen: op_id_base(i as u32, 0),
                };
                HyperLoopGroup::setup(ctx, client, chain, cfg)
            })
            .collect()
    });
    let mut clients = Vec::new();
    for mut g in groups {
        g.client.set_tracer(arm.tracer.clone());
        clients.push(g.client);
        install_group_maintenance(&mut cluster, g.replicas, MAINTENANCE_COST);
    }
    let window = WINDOW as u64;
    for shard in 0..n_shards {
        arm.audit
            .probe(SimTime::ZERO, Probe::Window { shard, window });
    }
    (cluster, chains, clients)
}

/// The gWRITE a routed `key` issues.
fn op_for(key: u64) -> GroupOp {
    GroupOp::Write {
        offset: (key % 64) * 8192,
        data: Payload::filled((key & 0xFF) as u8, PAYLOAD as usize),
        flush: true,
    }
}

/// The sharded gWRITE client of shardscale and migrate: one process on
/// the client node, woken by every shard's ack CQ. It keeps every shard's
/// window full from a fixed offered load of uniform random keys, routed
/// up front so every arm sees the identical per-key shard assignment the
/// router would give it online, and records each op's latency from issue
/// (from entering the holding pen, for a penned op) to its ack. It issues
/// its first ops at time zero. A migrate arm's client also runs the live
/// migration's coordinator.
pub(crate) struct ShardClient {
    set: ShardSet<GroupClient>,
    /// Each shard's keys still to issue.
    queues: Vec<VecDeque<u64>>,
    /// Each shard's issue times of its ops in flight or penned, in issue
    /// order: a chain acks in issue order, and penned ops issue after
    /// every op the old chain had in flight.
    sent: Vec<VecDeque<SimTime>>,
    /// Reused completion buffer.
    acks: Vec<ShardAck>,
    health: HealthMonitor,
    latencies: Latencies,
    total: u64,
    done_at: Option<SimTime>,
    /// The live migration, on a migrate arm.
    pub mig: Move,
}

impl ShardClient {
    /// A client over `clients` (shard order) that issues `ops` keys.
    pub fn new(clients: Vec<GroupClient>, ops: u64, seed: u64, arm: &Arm) -> ShardClient {
        let set = ShardSet::with_hash_router(clients);
        let mut rng = SimRng::new(seed ^ 0x51AB);
        let mut queues = vec![VecDeque::new(); set.shard_count() as usize];
        for _ in 0..ops {
            let key = rng.next_u64();
            queues[set.route(key).0 as usize].push_back(key);
        }
        ShardClient {
            sent: vec![VecDeque::new(); queues.len()],
            set,
            queues,
            acks: Vec::new(),
            health: arm.health.clone(),
            latencies: Latencies::new(),
            total: ops,
            done_at: None,
            mig: Move::default(),
        }
    }

    /// The shard a migration is moving, while it runs.
    fn moving(&self) -> Option<ShardId> {
        Some(self.mig.run.as_ref()?.plan().shard)
    }

    fn wake(&mut self, env: &mut Env<'_>) {
        let now = env.now();
        let mut acks = std::mem::take(&mut self.acks);
        // The coordinator polls the shard it is moving.
        let moving = self.moving();
        env.with_fabric(|ctx| {
            for s in (0..self.set.shard_count())
                .map(ShardId)
                .filter(|&s| Some(s) != moving)
            {
                self.set.poll_shard_into(ctx, s, &mut acks);
            }
        });
        let moved = self.step_move(env, &mut acks);
        for a in acks.drain(..) {
            let t0 = self.sent[a.shard.0 as usize].pop_front();
            let lat = now.since(t0.expect("an ack for an op we issued"));
            self.latencies.record(lat);
            self.health.record_ack(now, a.shard.0, lat);
        }
        self.acks = acks;
        let done = self.latencies.count();
        if done == self.total {
            self.done_at = Some(now);
        }
        self.refill(env);
        let m = &mut self.mig;
        if let Some(stats) = moved {
            let span = now.since(m.began.0).as_secs_f64().max(1e-12);
            m.window_tput = (done - m.began.1) as f64 / span;
            m.stats = Some(stats);
        } else if let Some(plan) = m.plan.take_if(|_| done >= m.at) {
            // Launched right after a refill, so the shard's window is full
            // and the bulk copy races an in-flight tail; the other shards'
            // windows are full too, so they keep completing work.
            env.unbind_cq(self.set.shard(plan.shard).ack_cq());
            m.run = Some(env.with_fabric(|ctx| MigrationRun::launch(ctx, &mut self.set, plan)));
            m.began = (now, done);
            env.set_timer(COORDINATOR_POLL, 0);
            self.refill(env);
        }
    }

    /// Steps the coordinator: hands its acks to the client, binds the
    /// shard's new ack CQ at the cutover, and starts the new chain's
    /// maintenance once the move is done. Returns the move's stats then.
    fn step_move(&mut self, env: &mut Env<'_>, acks: &mut Vec<ShardAck>) -> Option<MigrationStats> {
        let run = self.mig.run.as_mut()?;
        let shard = run.plan().shard;
        let cq = self.set.shard(shard).ack_cq();
        let out = env.with_fabric(|ctx| run.step(ctx, &mut self.set, acks));
        if self.set.shard(shard).ack_cq() != cq {
            env.bind_cq(self.set.shard(shard).ack_cq(), HANDLER_COST);
        }
        let out = out?;
        for r in out.replicas {
            let (node, cq) = (r.node(), r.recv_cq());
            let app = Box::new(Maintainer::new(r));
            env.spawn(node, ProcKind::EventDriven, app, cq, MAINTENANCE_COST);
        }
        self.mig.run = None;
        Some(out.stats)
    }

    /// Refills every shard's window from its queue. A migrating shard's
    /// ops park in its holding pen while it is paused, up to [`DEFER`]
    /// over the pause window, and wait out the rest of the move.
    fn refill(&mut self, env: &mut Env<'_>) {
        let now = env.now();
        let moving = self.moving();
        env.with_fabric(|ctx| {
            for (s, queue) in self.queues.iter_mut().enumerate() {
                let sid = ShardId(s as u32);
                while Some(sid) != moving && self.set.can_issue_on(sid) {
                    let Some(key) = queue.pop_front() else {
                        break;
                    };
                    self.set
                        .issue_on(ctx, sid, op_for(key))
                        .expect("window checked");
                    self.sent[s].push_back(now);
                    self.health.record_issue(now, sid.0);
                }
            }
        });
        let m = &mut self.mig;
        let Some(plan) = m.run.as_ref().map(|r| r.plan()) else {
            return;
        };
        let (shard, s) = (plan.shard, plan.shard.0 as usize);
        while self.set.epoch(shard) < plan.epoch && m.penned < DEFER {
            let Some(&key) = self.queues[s].front() else {
                break;
            };
            if self.set.defer_on(shard, op_for(key)).is_err() {
                break; // pen full: back-pressure
            }
            self.queues[s].pop_front();
            self.sent[s].push_back(now);
            m.penned += 1;
            let depth = self.set.pen_len(shard) as u64;
            self.health.record_issue(now, shard.0);
            self.health.record_pen_depth(now, shard.0, depth);
            let capacity = self.set.pen_capacity() as u64;
            let probe = Probe::PenDepth {
                shard: shard.0,
                depth,
                capacity,
            };
            m.audit.probe(now, probe);
        }
    }
}

impl HostApp for ShardClient {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        self.wake(env);
        if matches!(event, HostEvent::Timer(_)) && self.moving().is_some() {
            env.set_timer(COORDINATOR_POLL, 0);
        }
    }
}

impl Client for ShardClient {
    fn transports(&self) -> Vec<&dyn GroupTransport> {
        self.set
            .iter()
            .map(|(_, t)| t as &dyn GroupTransport)
            .collect()
    }
    fn is_done(&self) -> bool {
        self.done_at.is_some() && self.moving().is_none()
    }
    fn latencies(&self) -> &Latencies {
        &self.latencies
    }
    fn export_tracks(&self, reg: &mut MetricsRegistry) {
        self.set.export_into(reg, "bench.shards");
    }
}

/// Runs `client` on the sharded cluster through `arm`, then closes the
/// arm: checks nothing was lost and snapshots cluster, chain and shard-set
/// metrics. `chains` are the chains serving each shard at the end.
/// Returns the client's migration, the per-shard completion counts and
/// the outcome.
///
/// # Panics
///
/// Panics on lost operations, data-path errors or a stalled run.
pub(crate) fn run_arm(
    mut arm: Arm,
    mut cluster: Cluster,
    client: ShardClient,
    chains: &[Vec<NodeId>],
) -> (Move, Vec<u64>, Outcome) {
    let ops = client.total;
    let installed = run::install(&mut cluster, ProcKind::Polling, client, HANDLER_COST);
    let mut sim = cluster.into_sim();
    let latencies = arm.poll(&mut sim, &[installed], CADENCE, CAP);
    let c = sim.model.app_mut::<ShardClient>(installed.proc);
    assert_eq!(c.set.completed(), ops, "lost operations");
    let elapsed = c.done_at.expect("done").since(SimTime::ZERO);
    let per_shard = c.set.iter().map(|(s, _)| c.set.completed_on(s)).collect();
    let mut registry = MetricsRegistry::new();
    c.set.export_into(&mut registry, "bench.shards");
    let mig = std::mem::take(&mut c.mig);
    sim.model.export_into(&mut registry, "cluster");
    sim.model.export_shards_into(&mut registry, chains, "bench");
    registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
    (
        mig,
        per_shard,
        arm.finish(&sim, ops, elapsed, &latencies, registry),
    )
}

/// Runs the fixed offered load through `n_shards` chains.
///
/// Auditing is always on in this sweep, so `run::tax_pair` measures the
/// observability tax against a re-run of the identical load with the
/// audit and trace taps off.
///
/// # Panics
///
/// Panics on data-path errors, lost operations, or a stalled run.
pub fn run_shardscale(n_shards: u32, opts: ShardScaleOpts) -> ShardScaleResult {
    run::tax_pair(
        |observed| run_shardscale_once(n_shards, opts, observed),
        |r| &mut r.run,
    )
}

fn run_shardscale_once(n_shards: u32, opts: ShardScaleOpts, observed: bool) -> ShardScaleResult {
    let arm = Arm::start(Profile::Shards, observed, opts.trace, opts.ops);
    let (cluster, chains, clients) = sharded_groups(&arm, n_shards, 0, opts.seed);
    let client = ShardClient::new(clients, opts.ops, opts.seed, &arm);
    let (_, per_shard_acked, run) = run_arm(arm, cluster, client, &chains);
    ShardScaleResult {
        per_shard_acked,
        run,
    }
}

/// The shard counts of the scaling sweep.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Shard-scaling sweep: 1→8 chains under the same offered load.
pub fn shardscale(rep: &mut Report, quick: bool) {
    let opts = ShardScaleOpts {
        ops: if quick { 1024 } else { 4096 },
        trace: rep.profile_enabled(),
        ..ShardScaleOpts::default()
    };
    let mut base = None;
    for n in SHARD_COUNTS {
        let r = run_shardscale(n, opts);
        let tput = r.run.ops_per_sec();
        let base_tput = *base.get_or_insert(tput);
        let name = format!("shardscale/{n}");
        let mut sc = Scenario::new(&name)
            .system("HyperLoop")
            .seed(opts.seed)
            .config("shards", n)
            .config("replicas_per_shard", REPLICAS_PER_SHARD)
            .config("window", WINDOW)
            .config("ops", opts.ops)
            .config("payload_bytes", PAYLOAD)
            .latency(&r.run.latency)
            .gauge("ops_per_sec", tput)
            .gauge("speedup", tput / base_tput)
            .outcome(&r.run);
        for (s, &acked) in r.per_shard_acked.iter().enumerate() {
            sc = sc.config(&format!("shard{s}_ops"), acked);
        }
        r.run.write_artifacts(rep, &name);
        rep.scenario(sc);
    }
}

const ROWS: Rows = each("shardscale/");

/// The columns of a shard sweep's counter-track table.
pub(crate) const TRACK_COLS: &[Col] = &[
    col("shards", |r| r.key.clone()),
    col("track", track_label),
    col("peak", track_peak),
    col("occupancy over time", track_line),
];

/// The shard-scaling section.
pub const SECTION: Section = Section {
    title: "Shard scaling — aggregate gWRITE throughput vs shard count",
    lead: "One client NIC drives 1-8 disjoint chains under a fixed offered load; aggregate throughput should rise monotonically with shard count.",
    tables: &[
        Table::grid(
            ROWS,
            &[
                col("shards", |r| r.key.clone()),
                col("Kops/s", |r| fmt_kops(r.gauge(0, "ops_per_sec"))),
                col("speedup", |r| fmt_ratio(r.gauge(0, "speedup"))),
                col("mean", |r| fmt_ns(r.lat(0, "mean"))),
                col("p99", |r| fmt_ns(r.lat(0, "p99"))),
            ],
        ),
        Table {
            intro: "Counter tracks (folded from `TRACE_shardscale_*.json`): shard 0's in-flight window across the run — a full window means the arm is issue-bound, not completion-bound.",
            tracks: &[counter_track(
                "window occupancy (shard 0)",
                "bench.shards.shard0.in_flight",
            )],
            ..Table::grid(ROWS, TRACK_COLS)
        },
    ],
    claims: &[Claim {
        says: "Aggregate throughput rises with every step in shard count.",
        measure: |all| ROWS.values(all, |r| r.gauge(0, "ops_per_sec")),
        band: Band::Rising,
        unit: |v| format!("{} Kops/s", fmt_kops(v)),
        verdict: Verdict::Holds,
    }],
    note: "",
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_monotonically_with_shards() {
        let opts = ShardScaleOpts {
            ops: 512,
            ..ShardScaleOpts::default()
        };
        let mut last = 0.0f64;
        for n in SHARD_COUNTS {
            let r = run_shardscale(n, opts);
            assert_eq!(r.run.ops, 512);
            assert_eq!(r.per_shard_acked.iter().sum::<u64>(), 512);
            let tput = r.run.ops_per_sec();
            assert!(
                tput > last,
                "{n} shards did not beat the previous arm: {tput:.0} <= {last:.0} ops/s"
            );
            last = tput;
            assert_eq!(
                r.run.health.violations, 0,
                "auditors flagged a clean run:\n{}",
                r.run.audit_json
            );
            assert_eq!(r.run.health.shards.len(), n as usize);
            // The registry carries per-shard counters for every shard.
            for s in 0..n {
                assert_eq!(
                    r.run
                        .registry
                        .counter(&format!("bench.shards.shard{s}.acked")),
                    Some(r.per_shard_acked[s as usize]),
                    "shard {s} counter missing from the snapshot"
                );
            }
        }
    }

    #[test]
    fn a_traced_arm_folds_every_op_its_latency_counts() {
        let r = run_shardscale(
            2,
            ShardScaleOpts {
                ops: 1024,
                trace: true,
                ..ShardScaleOpts::default()
            },
        );
        let tail = r.run.tail.as_ref().expect("a traced arm folds a tail");
        let att = r.run.attribution.as_ref().expect("and a stage attribution");
        assert_eq!(r.run.latency.count, 1024);
        assert_eq!((tail.ops, att.ops), (1024, 1024));
        // Open only: each chain's next pre-posted generation.
        assert!(att.truncated <= 2, "{} ops lost", att.truncated);
        // One population, one quantile rule: the three blocks agree.
        let (lat, e2e) = (r.run.latency, att.e2e.summary());
        let p50 = [lat.p50, e2e.p50].map(|d| d.as_nanos());
        let p99 = [lat.p99, e2e.p99].map(|d| d.as_nanos());
        assert_eq!(p50, [tail.median_e2e_ns; 2], "p50 of latency, stage e2e");
        assert_eq!(p99, [tail.p99_ns; 2], "p99 of latency, stage e2e");
    }
}
