//! Live shard migration: move one shard's replication chain without losing
//! acknowledged writes.
//!
//! A [`ShardSet`] spreads load over many chains, but the chains themselves
//! are fixed at setup. Rebalancing — draining a hot chain, retiring a
//! machine, growing the rack — needs to move a *running* shard from one
//! chain to another while the other shards keep serving. This module is
//! that move, as a deterministic, epoch-numbered state machine:
//!
//! 1. **Plan** ([`plan_migration`]): the move is
//!    expressed in the same [`RecoveryStep`] vocabulary chain repair uses —
//!    `PauseWrites` (this shard only), one `CopyState` per member of the
//!    new chain, `RebuildDataPath` at `epoch + 1`, `ResumeWrites`. A plan
//!    whose source and target chains are identical has *no* steps: a no-op
//!    migration is the identity and must not perturb the simulation.
//! 2. **Drive** ([`migrate_shard`]): executes the plan over real simulated
//!    time. The new chain is wired with a genuine
//!    [`HyperLoopGroup::setup`] (WQE chains post through the fabric), and
//!    the bulk copy travels the network as chunked RDMA Writes — so the
//!    copy *races* whatever the old chain still had in flight when the
//!    pause opened. After the pipe drains, a delta pass re-reads the
//!    source region and replays every range the bulk copy's NIC gathered
//!    too early: the WAL tail that raced the snapshot. Cutover swaps the
//!    transport inside the [`ShardSet`] (epoch bump; the new chain issues
//!    epoch-qualified generations, so op identity survives the move), then
//!    the shard resumes and its holding pen drains.
//!
//! While one shard is paused, ops for it park in the set's bounded holding
//! pen ([`ShardSet::defer_on`]); every other shard issues and completes
//! normally — the pause window is per-shard, never global.
//!
//! The driver is generic over [`MigrationHost`] so the same code runs on
//! the full [`testbed::Cluster`] (CPU scheduling, host apps) and on the
//! lightweight fabric-only [`harness::FabricSim`](crate::harness).

use crate::group::{GroupClient, HyperLoopGroup, ReplicaHandle};
use crate::membership::RecoveryStep;
use crate::shard::{MigrationStats, ShardAck, ShardId, ShardSet};
use netsim::NodeId;
use rnicsim::{wqe_flags, CqId, CqeStatus, NicCtx, Opcode, QpId, RdmaFabric, Wqe};
use simcore::simtrace::{TraceKind, Tracer, NO_OP};
use simcore::{Model, SimTime, Simulation};
use testbed::cluster::Cluster;

/// A simulation model the migration driver can operate: it exposes the
/// RDMA fabric and knows how to run host-side code against it (posting
/// whatever effects result into its own event queue).
pub trait MigrationHost: Model + Sized {
    /// The fabric the migration copies through.
    fn fab(&self) -> &RdmaFabric;
    /// The fabric, mutably (host-side reads, allocator alignment).
    fn fab_mut(&mut self) -> &mut RdmaFabric;
    /// Runs `f` against the fabric at the current instant and routes the
    /// effects it posted into the simulation's event queue.
    fn drive<R>(sim: &mut Simulation<Self>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R;
}

impl MigrationHost for crate::harness::FabricSim {
    fn fab(&self) -> &RdmaFabric {
        &self.fab
    }
    fn fab_mut(&mut self) -> &mut RdmaFabric {
        &mut self.fab
    }
    fn drive<R>(sim: &mut Simulation<Self>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
        crate::harness::drive(sim, f)
    }
}

impl MigrationHost for Cluster {
    fn fab(&self) -> &RdmaFabric {
        &self.fab
    }
    fn fab_mut(&mut self) -> &mut RdmaFabric {
        &mut self.fab
    }
    fn drive<R>(sim: &mut Simulation<Self>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
        testbed::cluster::drive(sim, f)
    }
}

/// An epoch-numbered plan for moving one shard to a new chain.
///
/// Built by [`plan_migration`]; executed by [`migrate_shard`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MigrationPlan {
    /// The shard being moved.
    pub shard: ShardId,
    /// The epoch the shard serves *after* cutover (current epoch + 1 for a
    /// real move; the unchanged current epoch for a no-op).
    pub epoch: u64,
    /// The chain currently serving the shard.
    pub from: Vec<NodeId>,
    /// The chain that will serve it.
    pub to: Vec<NodeId>,
    /// Bytes of state to copy (the shard's region image: WAL span + db).
    pub copy_bytes: u64,
    /// The move in [`RecoveryStep`] vocabulary. Empty iff `from == to`
    /// (no-op migration).
    pub steps: Vec<RecoveryStep>,
}

impl MigrationPlan {
    /// True when source and target chains are identical: executing the
    /// plan is the identity and touches nothing.
    pub fn is_noop(&self) -> bool {
        self.steps.is_empty()
    }

    /// The member of the old chain that seeds the copy (its head).
    pub fn source(&self) -> NodeId {
        self.from[0]
    }
}

/// Plans the move of `shard` from chain `from` to chain `to`.
///
/// `current_epoch` is the epoch the shard serves now
/// ([`ShardSet::epoch`]); the plan targets `current_epoch + 1`. The copy
/// is seeded from the head of the old chain (`from[0]`) into every member
/// of the new chain. When `from == to` the plan has no steps and
/// [`migrate_shard`] returns without touching the simulation.
///
/// # Panics
///
/// Panics if either chain is empty, or if `to` repeats a node.
pub fn plan_migration(
    shard: ShardId,
    current_epoch: u64,
    from: &[NodeId],
    to: &[NodeId],
    copy_bytes: u64,
) -> MigrationPlan {
    assert!(!from.is_empty(), "{shard} has no current chain");
    assert!(!to.is_empty(), "{shard} needs a non-empty target chain");
    for (i, &n) in to.iter().enumerate() {
        assert!(!to[..i].contains(&n), "target chain repeats node {n}");
    }
    if from == to {
        return MigrationPlan {
            shard,
            epoch: current_epoch,
            from: from.to_vec(),
            to: to.to_vec(),
            copy_bytes,
            steps: Vec::new(),
        };
    }
    let source = from[0];
    let mut steps = vec![RecoveryStep::PauseWrites];
    for &t in to {
        steps.push(RecoveryStep::CopyState {
            from: source,
            to: t,
            bytes: copy_bytes,
        });
    }
    steps.push(RecoveryStep::RebuildDataPath {
        epoch: current_epoch + 1,
    });
    steps.push(RecoveryStep::ResumeWrites);
    MigrationPlan {
        shard,
        epoch: current_epoch + 1,
        from: from.to_vec(),
        to: to.to_vec(),
        copy_bytes,
        steps,
    }
}

/// What [`migrate_shard`] hands back after cutover.
#[derive(Debug)]
pub struct MigrationOutcome {
    /// Pause length, bytes moved, replayed tail ranges, new epoch — also
    /// recorded on the set for metrics export
    /// (`{prefix}.shardN.migration.*`).
    pub stats: MigrationStats,
    /// Maintenance handles for the new chain, in chain order. The old
    /// chain's handles are dead the moment this returns — stop
    /// replenishing them.
    pub replicas: Vec<ReplicaHandle>,
    /// Acks the driver collected while draining the migrating shard (the
    /// pause window's in-flight tail plus penned ops that completed during
    /// the post-resume catch-up). The caller accounts for these exactly as
    /// if its own poll had returned them.
    pub drained: Vec<ShardAck>,
    /// Generations issued (on the new epoch) for ops drained from the
    /// holding pen, in pen arrival order.
    pub resumed: Vec<u64>,
}

/// Chunk size of the bulk copy: one RDMA Write per chunk, so the copy
/// occupies real simulated time on the wire instead of teleporting in a
/// single gather.
const COPY_CHUNK: u64 = 256 << 10;

/// Merge slack of the delta pass: dirty byte ranges closer than this
/// coalesce into one replay Write.
const REPLAY_SLACK: usize = 64;

/// One wired copy path from the source to a member of the new chain.
#[derive(Debug)]
struct CopyPath {
    target: NodeId,
    scq: CqId,
    sqp: QpId,
}

/// An in-progress migration: the span between [`MigrationRun::begin`]
/// (pause opened, new chain wired, bulk copy in flight) and
/// [`MigrationRun::finish`] (drain, delta replay, cutover, resume).
///
/// Between the two calls the caller owns the simulation: it may run it,
/// issue on every *other* shard, and park ops for the paused shard in the
/// holding pen ([`ShardSet::defer_on`]) — that interleaving is what makes
/// the pause window a measurable, bounded thing rather than a global
/// stop-the-world. [`migrate_shard`] is the convenience that does both
/// back-to-back.
#[derive(Debug)]
pub struct MigrationRun {
    plan: MigrationPlan,
    client_node: NodeId,
    old_base: u64,
    new_base: u64,
    tracer: Tracer,
    group: HyperLoopGroup,
    paths: Vec<CopyPath>,
    chunks: u64,
    copy_bytes: u64,
    t0: SimTime,
}

impl MigrationRun {
    /// Opens the pause window and launches the move: emits
    /// `migrate_begin`, pauses the shard (others keep serving), wires the
    /// new chain with a real [`HyperLoopGroup::setup`], and posts the
    /// chunked bulk copy — which then races, through the fabric, whatever
    /// the old chain still had in flight.
    ///
    /// The plan lists the copy before the rebuild (paper order); the
    /// driver hoists the rebuild because the copy's destination addresses
    /// come from it.
    ///
    /// # Panics
    ///
    /// Panics on a no-op plan (nothing to begin — [`migrate_shard`]
    /// short-circuits it), a plan made against a different epoch,
    /// `copy_bytes` beyond the shard's shared region, or an
    /// already-paused shard.
    pub fn begin<M: MigrationHost>(
        sim: &mut Simulation<M>,
        set: &mut ShardSet<GroupClient>,
        plan: MigrationPlan,
    ) -> MigrationRun {
        let shard = plan.shard;
        assert!(!plan.is_noop(), "nothing to begin: {shard} is not moving");
        assert_eq!(
            plan.epoch,
            set.epoch(shard) + 1,
            "plan for {shard} was made against a different epoch"
        );
        let client_node = set.shard(shard).node();
        let mut cfg = set.shard(shard).config();
        assert!(
            plan.copy_bytes <= cfg.shared_size,
            "copy of {} bytes exceeds the {}-byte shard region",
            plan.copy_bytes,
            cfg.shared_size
        );
        let old_base = set.shard(shard).layout().shared_base;
        let tracer = set.shard(shard).tracer();
        let source = plan.source();

        // -- PauseWrites: this shard stops admitting; everyone else
        // serves. --
        let t0 = sim.now();
        tracer.emit(
            t0,
            client_node.0,
            NO_OP,
            TraceKind::MigrateBegin { shard: shard.0 },
        );
        set.pause(shard);

        // Wire one copy QP pair per remote target *before* aligning the
        // allocators — QP rings are bump-allocated, so creating them later
        // would break the symmetric layout the rebuild asserts.
        let paths = M::drive(sim, |ctx| {
            plan.to
                .iter()
                .filter(|&&t| t != source)
                .map(|&t| {
                    let scq = ctx.fab.create_cq(source);
                    let sqp = ctx.fab.create_qp(source, scq, scq);
                    let tcq = ctx.fab.create_cq(t);
                    let tqp = ctx.fab.create_qp(t, tcq, tcq);
                    ctx.fab.connect(source, sqp, t, tqp);
                    CopyPath {
                        target: t,
                        scq,
                        sqp,
                    }
                })
                .collect::<Vec<_>>()
        });

        // -- RebuildDataPath: symmetric setup over the new chain. --
        let cursor = plan
            .to
            .iter()
            .map(|&n| sim.model.fab().alloc_cursor(n))
            .max()
            .expect("non-empty target chain");
        for &n in &plan.to {
            sim.model.fab_mut().align_allocator(n, cursor);
        }
        // The new chain issues under the *new* epoch: keep the shard bits
        // of the old generation base and swap in `plan.epoch`, so op ids
        // (and therefore trace spans) survive the cutover instead of
        // colliding with the retired chain's generations.
        assert!(
            plan.epoch <= simcore::simaudit::EPOCH_GEN_MAX,
            "epoch {} exceeds the op-id epoch field",
            plan.epoch
        );
        cfg.first_gen = (cfg.first_gen >> simcore::simaudit::SHARD_GEN_SHIFT
            << simcore::simaudit::SHARD_GEN_SHIFT)
            | (plan.epoch << simcore::simaudit::EPOCH_GEN_SHIFT);
        let mut group = M::drive(sim, |ctx| {
            HyperLoopGroup::setup(ctx, client_node, &plan.to, cfg)
        });
        group.client.set_tracer(tracer.clone());
        let new_base = group.client.layout().shared_base;

        // -- CopyState, posted in the same instant the pause opened: the
        // chunked Writes race the old chain's in-flight tail through the
        // fabric, exactly the hazard finish()'s delta pass repairs. --
        let mut copy_bytes = 0u64;
        let chunks = plan.copy_bytes.div_ceil(COPY_CHUNK);
        M::drive(sim, |ctx| {
            for p in &paths {
                let mut off = 0;
                while off < plan.copy_bytes {
                    let len = COPY_CHUNK.min(plan.copy_bytes - off);
                    ctx.fab.post_send(
                        ctx.now,
                        source,
                        p.sqp,
                        Wqe {
                            opcode: Opcode::Write,
                            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                            local_addr: old_base + off,
                            len,
                            remote_addr: new_base + off,
                            wr_id: NO_OP,
                            ..Wqe::default()
                        },
                        ctx.out,
                    );
                    off += len;
                }
                copy_bytes += plan.copy_bytes;
            }
        });

        MigrationRun {
            plan,
            client_node,
            old_base,
            new_base,
            tracer,
            group,
            paths,
            chunks,
            copy_bytes,
            t0,
        }
    }

    /// The plan this run is executing.
    pub fn plan(&self) -> &MigrationPlan {
        &self.plan
    }

    /// When the pause window opened.
    pub fn paused_at(&self) -> SimTime {
        self.t0
    }

    /// Completes the move: drains the old chain's in-flight tail, verifies
    /// the bulk copy, replays the delta (the WAL tail that raced the
    /// snapshot), flushes the image durable, cuts over
    /// ([`ShardSet::replace_shard`], epoch bump, `migrate_cutover`),
    /// resumes the shard and drains its holding pen (`migrate_end`).
    ///
    /// # Panics
    ///
    /// Panics if the fabric reports a failed or lost copy completion — a
    /// migration that cannot complete must be loud, not lossy.
    pub fn finish<M: MigrationHost>(
        self,
        sim: &mut Simulation<M>,
        set: &mut ShardSet<GroupClient>,
    ) -> MigrationOutcome {
        let MigrationRun {
            plan,
            client_node,
            old_base,
            new_base,
            tracer,
            group,
            paths,
            chunks,
            mut copy_bytes,
            t0,
        } = self;
        let shard = plan.shard;
        let source = plan.source();

        // -- Drain the pause window: in-flight ops on the old chain
        // complete (and are collected for the caller) while the copy
        // flies. --
        let mut drained = Vec::new();
        loop {
            sim.run();
            drained.extend(M::drive(sim, |ctx| set.poll_shard(ctx, shard)));
            if set.shard(shard).in_flight() == 0 {
                break;
            }
        }
        for p in &paths {
            let cqes = sim
                .model
                .fab_mut()
                .poll_cq(source, p.scq, chunks as usize + 1);
            assert_eq!(
                cqes.len(),
                chunks as usize,
                "bulk copy to {} lost completions",
                p.target
            );
            for c in &cqes {
                assert_eq!(
                    c.status,
                    CqeStatus::Success,
                    "bulk copy chunk to {} failed",
                    p.target
                );
            }
        }

        // A target that is also the source seeds itself host-locally
        // (there is no fabric hop to itself); this runs after the drain,
        // so it is exact and never needs replay.
        if plan.to.contains(&source) {
            let image = sim
                .model
                .fab_mut()
                .mem(source)
                .read_vec(old_base, plan.copy_bytes)
                .expect("source region in bounds");
            sim.model
                .fab_mut()
                .mem(source)
                .write_durable(new_base, &image)
                .expect("seed copy in bounds");
            copy_bytes += plan.copy_bytes;
        }

        // -- Delta pass: the source region is now stable (shard paused,
        // pipe drained). Every byte where a target's copy diverges was
        // gathered by the bulk copy's NIC before a racing write landed —
        // replay exactly those ranges. This is the WAL tail that raced
        // the snapshot. --
        let truth = sim
            .model
            .fab_mut()
            .mem(source)
            .read_vec(old_base, plan.copy_bytes)
            .expect("source region in bounds");
        let mut replayed = 0u64;
        for p in &paths {
            let got = sim
                .model
                .fab_mut()
                .mem(p.target)
                .read_vec(new_base, plan.copy_bytes)
                .expect("target region in bounds");
            let ranges = dirty_ranges(&truth, &got, REPLAY_SLACK);
            if ranges.is_empty() {
                continue;
            }
            M::drive(sim, |ctx| {
                for &(off, len) in &ranges {
                    ctx.fab.post_send(
                        ctx.now,
                        source,
                        p.sqp,
                        Wqe {
                            opcode: Opcode::Write,
                            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                            local_addr: old_base + off,
                            len,
                            remote_addr: new_base + off,
                            wr_id: NO_OP,
                            ..Wqe::default()
                        },
                        ctx.out,
                    );
                }
            });
            sim.run();
            let cqes = sim.model.fab_mut().poll_cq(source, p.scq, ranges.len() + 1);
            assert_eq!(cqes.len(), ranges.len(), "replay to {} stalled", p.target);
            for c in &cqes {
                assert_eq!(
                    c.status,
                    CqeStatus::Success,
                    "replay chunk to {} failed",
                    p.target
                );
            }
            replayed += ranges.len() as u64;
            copy_bytes += ranges.iter().map(|&(_, l)| l).sum::<u64>();
        }

        // Fold the migrated image to durable NVM on every new member.
        for &n in &plan.to {
            sim.model
                .fab_mut()
                .mem(n)
                .flush_range(new_base, plan.copy_bytes)
                .expect("migrated region in bounds");
        }

        // -- Cutover: swap the transport, bump the epoch. --
        let old = set.replace_shard(shard, group.client);
        let epoch = set.epoch(shard);
        assert_eq!(epoch, plan.epoch, "cutover landed on an unplanned epoch");
        drop(old);
        let t1 = sim.now();
        tracer.emit(
            t1,
            client_node.0,
            NO_OP,
            TraceKind::MigrateCutover {
                shard: shard.0,
                epoch,
            },
        );

        // -- ResumeWrites: close the window, drain the holding pen. --
        let mut resumed = M::drive(sim, |ctx| set.resume(ctx, shard));
        while set.pen_len(shard) > 0 {
            sim.run();
            drained.extend(M::drive(sim, |ctx| set.poll_shard(ctx, shard)));
            let gens = M::drive(sim, |ctx| set.drain_pen(ctx, shard));
            assert!(
                !gens.is_empty() || set.pen_len(shard) == 0,
                "holding pen drain stalled on {shard}"
            );
            resumed.extend(gens);
        }

        let stats = MigrationStats {
            epoch,
            pause: t1.since(t0),
            copy_bytes,
            replayed,
        };
        tracer.emit(
            sim.now(),
            client_node.0,
            NO_OP,
            TraceKind::MigrateEnd {
                shard: shard.0,
                replayed,
            },
        );
        set.record_migration(shard, stats);
        MigrationOutcome {
            stats,
            replicas: group.replicas,
            drained,
            resumed,
        }
    }
}

/// Executes `plan` against a running set in one call: pause → rebuild →
/// raced bulk copy → drain → delta replay → cutover → resume
/// ([`MigrationRun::begin`] immediately followed by
/// [`MigrationRun::finish`]; split the phases yourself to interleave
/// traffic on the other shards while the window is open).
///
/// The driver emits `migrate_begin` / `migrate_cutover` / `migrate_end`
/// trace events through the shard client's tracer and records
/// [`MigrationStats`] on the set. The sequence is fully deterministic:
/// same seed, same history, same plan → byte-identical timeline.
///
/// A no-op plan ([`MigrationPlan::is_noop`]) returns immediately without
/// touching the simulation, the fabric, or the set — a run containing a
/// no-op migration is timestamp-identical to one without it.
///
/// # Panics
///
/// As [`MigrationRun::begin`] and [`MigrationRun::finish`].
pub fn migrate_shard<M: MigrationHost>(
    sim: &mut Simulation<M>,
    set: &mut ShardSet<GroupClient>,
    plan: &MigrationPlan,
) -> MigrationOutcome {
    if plan.is_noop() {
        assert_eq!(
            plan.epoch,
            set.epoch(plan.shard),
            "stale no-op plan for {}",
            plan.shard
        );
        return MigrationOutcome {
            stats: MigrationStats {
                epoch: set.epoch(plan.shard),
                pause: simcore::SimDuration::ZERO,
                copy_bytes: 0,
                replayed: 0,
            },
            replicas: Vec::new(),
            drained: Vec::new(),
            resumed: Vec::new(),
        };
    }
    MigrationRun::begin(sim, set, plan.clone()).finish(sim, set)
}

/// Byte ranges `(offset, len)` where `got` diverges from `want`, merging
/// ranges separated by fewer than `slack` clean bytes so the replay posts
/// a bounded number of Writes.
fn dirty_ranges(want: &[u8], got: &[u8], slack: usize) -> Vec<(u64, u64)> {
    assert_eq!(want.len(), got.len());
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    let mut i = 0;
    while i < want.len() {
        if want[i] == got[i] {
            i += 1;
            continue;
        }
        let start = i;
        let mut end = i + 1;
        let mut clean = 0;
        let mut j = end;
        while j < want.len() && clean < slack {
            if want[j] == got[j] {
                clean += 1;
            } else {
                end = j + 1;
                clean = 0;
            }
            j += 1;
        }
        ranges.push((start as u64, (end - start) as u64));
        i = end;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_reuses_recovery_vocabulary_in_paper_order() {
        let from = vec![NodeId(1), NodeId(2)];
        let to = vec![NodeId(3), NodeId(4)];
        let p = plan_migration(ShardId(0), 0, &from, &to, 4096);
        assert_eq!(p.epoch, 1);
        assert!(!p.is_noop());
        assert_eq!(p.steps[0], RecoveryStep::PauseWrites);
        assert_eq!(
            p.steps[1],
            RecoveryStep::CopyState {
                from: NodeId(1),
                to: NodeId(3),
                bytes: 4096
            }
        );
        assert_eq!(
            p.steps[2],
            RecoveryStep::CopyState {
                from: NodeId(1),
                to: NodeId(4),
                bytes: 4096
            }
        );
        assert_eq!(p.steps[3], RecoveryStep::RebuildDataPath { epoch: 1 });
        assert_eq!(p.steps[4], RecoveryStep::ResumeWrites);
    }

    #[test]
    fn identical_chains_plan_to_nothing() {
        let chain = vec![NodeId(1), NodeId(2), NodeId(3)];
        let p = plan_migration(ShardId(2), 7, &chain, &chain, 1 << 20);
        assert!(p.is_noop());
        assert_eq!(p.epoch, 7, "a no-op move keeps the current epoch");
    }

    #[test]
    fn overlapping_chains_copy_to_every_target() {
        // Node 2 survives the move; it still gets a CopyState (its new
        // region is fresh even though the node is not).
        let p = plan_migration(
            ShardId(1),
            3,
            &[NodeId(1), NodeId(2)],
            &[NodeId(2), NodeId(5)],
            512,
        );
        let copies: Vec<_> = p
            .steps
            .iter()
            .filter(|s| matches!(s, RecoveryStep::CopyState { .. }))
            .collect();
        assert_eq!(copies.len(), 2);
        assert_eq!(p.epoch, 4);
    }

    #[test]
    #[should_panic(expected = "repeats node")]
    fn duplicate_target_nodes_are_rejected() {
        plan_migration(ShardId(0), 0, &[NodeId(1)], &[NodeId(2), NodeId(2)], 64);
    }

    #[test]
    fn dirty_ranges_merge_nearby_damage() {
        let want = vec![7u8; 1024];
        let mut got = want.clone();
        got[10] = 0;
        got[20] = 0; // within slack of the first — one range
        got[900] = 0; // far away — its own range
        let r = dirty_ranges(&want, &got, 64);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], (10, 11));
        assert_eq!(r[1], (900, 1));
        assert!(dirty_ranges(&want, &want, 64).is_empty());
    }
}
