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

use crate::report::{us, Report, Scenario};
use crate::run::{self, Arm, Outcome, Profile};
use hyperloop::{
    GroupClient, GroupConfig, GroupOp, HyperLoopGroup, ReplicaHandle, ShardAck, ShardId, ShardSet,
};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simaudit::{op_id_base, Probe};
use simcore::{HealthMonitor, Histogram, MetricsRegistry, SimRng, SimTime, Simulation};
use std::collections::{HashMap, VecDeque};
use testbed::cluster::drive;
use testbed::{Cluster, ClusterConfig, ShardPlacement};

/// Per-shard op-id base shift: shard `i` issues generations starting at
/// [`op_id_base`]`(i, 0)`, so op ids stay globally unique across shards in
/// one trace stream (re-exported from [`simcore::simaudit`], which owns
/// the op-id layout). A multiple of every `meta_slots` power of two, so
/// the modular slot arithmetic is untouched.
pub use simcore::simaudit::SHARD_GEN_SHIFT;

/// Replicas per shard chain.
pub const REPLICAS_PER_SHARD: u32 = 3;
/// Per-shard in-flight window.
pub const WINDOW: u32 = 16;
/// gWRITE payload bytes.
pub const PAYLOAD: u64 = 1024;
/// Bytes of each group's shared region (the image a migration moves).
pub(crate) const SHARED_SIZE: u64 = 4 << 20;

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
    /// Shard count of this arm.
    pub shards: u32,
    /// Per-shard completion counts, shard order.
    pub per_shard_acked: Vec<u64>,
    /// The arm's outcome: latency from issue to chain ack, cluster +
    /// shard-set metrics, audit/health with zero expected violations.
    pub run: Outcome,
}

/// A sharded cluster, ready for traffic ([`sharded_groups`]).
pub(crate) struct Sharded {
    /// The simulation, group wiring drained.
    pub sim: Simulation<Cluster>,
    /// Every chain, shard order, spares last.
    pub chains: Vec<Vec<NodeId>>,
    /// Each active shard's group client, tracer attached.
    pub clients: Vec<GroupClient>,
    /// Each active shard's replica handles.
    pub replicas: Vec<Vec<ReplicaHandle>>,
}

/// Builds the sharded cluster: a client on node 0 and `n_shards + spare`
/// disjoint chains of [`REPLICAS_PER_SHARD`], with a HyperLoop group on
/// each of the first `n_shards` chains, wired to `arm`, and the
/// flow-control auditor taught each shard's [`WINDOW`].
pub(crate) fn sharded_groups(arm: &Arm, n_shards: u32, spare: u32, seed: u64) -> Sharded {
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
    // Descriptor chains cost ~7 send WQEs per generation on each replica
    // NIC, so the pre-post depth is bounded by the NIC's send queue: keep
    // a runway far deeper than the window and top chains back up as acks
    // drain them, one replenish per completed op.
    let groups: Vec<HyperLoopGroup> = cluster.setup_fabric(|ctx| {
        chains[..n_shards as usize]
            .iter()
            .enumerate()
            .map(|(i, chain)| {
                // Disjoint generation bases keep op ids (= trace ids =
                // WQE wr_ids) globally unique across shards.
                let cfg = GroupConfig {
                    shared_size: SHARED_SIZE,
                    meta_slots: 64,
                    prepost_depth: 128,
                    window: WINDOW,
                    first_gen: op_id_base(i as u32, 0),
                };
                HyperLoopGroup::setup(ctx, client, chain, cfg)
            })
            .collect()
    });
    let (mut clients, replicas): (Vec<_>, Vec<_>) =
        groups.into_iter().map(|g| (g.client, g.replicas)).unzip();
    for c in clients.iter_mut() {
        c.set_tracer(arm.tracer.clone());
    }
    let mut sim = cluster.into_sim();
    sim.run(); // drain group wiring
    for shard in 0..n_shards {
        arm.audit.probe(
            sim.now(),
            Probe::Window {
                shard,
                window: WINDOW as u64,
            },
        );
    }
    Sharded {
        sim,
        chains,
        clients,
        replicas,
    }
}

/// The gWRITE a routed `key` issues.
pub(crate) fn op_for(key: u64) -> GroupOp {
    GroupOp::Write {
        offset: (key % 64) * 8192,
        data: Payload::filled((key & 0xFF) as u8, PAYLOAD as usize),
        flush: true,
    }
}

/// The lock-step rig shardscale and migrate drive: sharded chains behind a
/// hash-routed [`ShardSet`] and a fixed offered load of uniform random
/// keys, routed up front so every arm sees the identical per-key shard
/// assignment the router would give it online.
pub(crate) struct ShardRig {
    pub sim: Simulation<Cluster>,
    pub set: ShardSet<GroupClient>,
    /// The active chains, shard order.
    pub chains: Vec<Vec<NodeId>>,
    /// Idle chains beyond the active ones (migration targets).
    pub spare: Vec<Vec<NodeId>>,
    pub replicas: Vec<Vec<ReplicaHandle>>,
    /// Each shard's keys still to issue.
    pub queues: Vec<VecDeque<u64>>,
    /// Operations acked so far.
    pub done: u64,
    sent: HashMap<(u32, u64), SimTime>,
    hist: Histogram,
    started: SimTime,
}

impl ShardRig {
    /// Builds the rig ([`sharded_groups`]) and routes `ops` keys.
    pub fn new(arm: &Arm, n_shards: u32, spare: u32, ops: u64, seed: u64) -> ShardRig {
        let Sharded {
            sim,
            mut chains,
            clients,
            replicas,
        } = sharded_groups(arm, n_shards, spare, seed);
        let spare = chains.split_off(n_shards as usize);
        let set = ShardSet::with_hash_router(clients);
        let mut rng = SimRng::new(seed ^ 0x51AB);
        let mut queues = vec![VecDeque::new(); n_shards as usize];
        for _ in 0..ops {
            let key = rng.next_u64();
            queues[set.route(key).0 as usize].push_back(key);
        }
        let started = sim.now();
        ShardRig {
            sim,
            set,
            chains,
            spare,
            replicas,
            queues,
            done: 0,
            sent: HashMap::new(),
            hist: Histogram::new(),
            started,
        }
    }

    /// Closed loop: refills every shard's window from its queue.
    pub fn refill(&mut self, health: &HealthMonitor) {
        drive(&mut self.sim, |ctx| {
            for (s, queue) in self.queues.iter_mut().enumerate() {
                let sid = ShardId(s as u32);
                while self.set.can_issue_on(sid) {
                    let Some(key) = queue.pop_front() else {
                        break;
                    };
                    let gen = self
                        .set
                        .issue_on(ctx, sid, op_for(key))
                        .expect("window checked");
                    self.sent.insert((sid.0, gen), ctx.now);
                    health.record_issue(ctx.now, sid.0);
                }
            }
        });
    }

    /// Exports what the counter tracks sample: cluster and shard-set
    /// counters.
    pub fn export_tracks(&self, reg: &mut MetricsRegistry) {
        self.sim.model.export_into(reg, "cluster");
        self.set.export_into(reg, "bench.shards");
    }

    /// Records each ack's latency; returns the acks per shard.
    pub fn record(&mut self, acks: Vec<ShardAck>, health: &HealthMonitor) -> Vec<u32> {
        let now = self.sim.now();
        let mut drained = vec![0u32; self.queues.len()];
        for a in acks {
            let t0 = self
                .sent
                .remove(&(a.shard.0, a.ack.gen))
                .expect("ack for an op we issued");
            let lat = now.since(t0);
            self.hist.record(lat);
            health.record_ack(now, a.shard.0, lat);
            drained[a.shard.0 as usize] += 1;
            self.done += 1;
        }
        drained
    }

    /// Tracks a re-issued op: generation `gen` on `shard`, issued at `t0`.
    pub fn resend(&mut self, shard: u32, gen: u64, t0: SimTime) {
        self.sent.insert((shard, gen), t0);
    }

    /// One lock-step round: lets the chains run dry, collects and records
    /// the acks, ticks health, then re-posts one descriptor chain per
    /// completed generation so the pre-posted runway never shrinks (the
    /// replica maintenance loop in miniature).
    ///
    /// # Panics
    ///
    /// Panics if the round completed nothing.
    pub fn round(&mut self, arm: &mut Arm, ops: u64) {
        self.sim.run();
        let acks = drive(&mut self.sim, |ctx| self.set.poll(ctx));
        arm.sample(self.sim.now(), |reg| self.export_tracks(reg));
        assert!(!acks.is_empty(), "run stalled at {}/{ops} ops", self.done);
        let drained = self.record(acks, &arm.health);
        arm.health.tick(self.sim.now());
        drive(&mut self.sim, |ctx| {
            for (shard, &n) in drained.iter().enumerate() {
                if n > 0 {
                    for r in self.replicas[shard].iter_mut() {
                        r.replenish(ctx, n);
                    }
                }
            }
        });
    }

    /// Closes the run: checks nothing was lost, snapshots cluster, chain
    /// and shard-set metrics, and finishes `arm`. Returns the per-shard
    /// completion counts and the outcome.
    ///
    /// # Panics
    ///
    /// Panics on data-path errors or lost operations.
    pub fn finish(self, arm: Arm, ops: u64) -> (Vec<u64>, Outcome) {
        let elapsed = self.sim.now().since(self.started);
        assert_eq!(self.sim.model.fab.stats().errors, 0, "data-path errors");
        assert_eq!(self.set.completed(), ops, "lost operations");
        let per_shard = (0..self.queues.len() as u32)
            .map(|s| self.set.completed_on(ShardId(s)))
            .collect();
        let mut registry = MetricsRegistry::new();
        self.sim.model.export_into(&mut registry, "cluster");
        self.sim
            .model
            .export_shards_into(&mut registry, &self.chains, "bench");
        self.set.export_into(&mut registry, "bench.shards");
        registry.merge_histogram("bench.op_latency", &self.hist);
        registry.set_gauge("bench.elapsed_secs", elapsed.as_secs_f64());
        arm.health.export_into(&mut registry, "health");
        let run = arm.finish(&self.sim, ops, elapsed, &self.hist, registry);
        (per_shard, run)
    }
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
    let mut arm = Arm::start(Profile::Shards, observed, opts.trace, opts.ops);
    let mut rig = ShardRig::new(&arm, n_shards, 0, opts.ops, opts.seed);
    while rig.done < opts.ops {
        rig.refill(&arm.health);
        // Sample with the windows full (the post-poll sample sees them
        // drained): the in-flight track renders the issue/drain sawtooth
        // instead of a flat zero line.
        arm.sample(rig.sim.now(), |reg| rig.export_tracks(reg));
        rig.round(&mut arm, opts.ops);
    }
    let (per_shard_acked, run) = rig.finish(arm, opts.ops);
    ShardScaleResult {
        shards: n_shards,
        per_shard_acked,
        run,
    }
}

/// The shard counts of the scaling sweep.
pub const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// Shard-scaling sweep: 1→8 chains under the same offered load.
pub fn shardscale(rep: &mut Report, quick: bool) {
    rep.banner("Shard scaling: aggregate gWRITE throughput vs shard count (fixed offered load)");
    let opts = ShardScaleOpts {
        ops: if quick { 1024 } else { 4096 },
        trace: rep.profile_enabled(),
        ..ShardScaleOpts::default()
    };
    rep.line(format!(
        "{:<8} {:>12} {:>10} {:>10} {:>10}  per-shard ops",
        "shards", "Kops/s", "speedup", "mean", "p99"
    ));
    let mut base = None;
    for n in SHARD_COUNTS {
        let r = run_shardscale(n, opts);
        let tput = r.run.ops_per_sec();
        let base_tput = *base.get_or_insert(tput);
        rep.line(format!(
            "{:<8} {:>12.1} {:>9.2}x {:>10} {:>10}  {:?}",
            n,
            tput / 1e3,
            tput / base_tput,
            us(r.run.latency.mean),
            us(r.run.latency.p99),
            r.per_shard_acked,
        ));
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
}
