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
//! The move is a stepped state machine ([`MigrationRun::step`]), so a
//! coordinator inside a client process advances it on each wake while the
//! client keeps serving the other shards. The run-to-completion wrappers
//! are generic over [`MigrationHost`], so the same code runs from outside
//! the full [`testbed::Cluster`] (CPU scheduling, host apps) and the
//! lightweight fabric-only [`harness::FabricSim`](crate::harness).

use crate::group::{GroupClient, HyperLoopGroup, ReplicaHandle};
use crate::membership::RecoveryStep;
use crate::shard::{MigrationStats, ShardAck, ShardId, ShardSet};
use netsim::NodeId;
use rnicsim::{wqe_flags, CqId, CqeStatus, NicCtx, Opcode, QpId, Wqe};
use simcore::simtrace::{TraceKind, Tracer, NO_OP};
use simcore::{Model, SimTime, Simulation};
use testbed::cluster::Cluster;

/// A simulation model the migration driver can operate: it knows how to
/// run host-side code against its RDMA fabric (posting whatever effects
/// result into its own event queue).
pub trait MigrationHost: Model + Sized {
    /// Runs `f` against the fabric at the current instant and routes the
    /// effects it posted into the simulation's event queue.
    fn drive<R>(sim: &mut Simulation<Self>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R;
}

impl MigrationHost for crate::harness::FabricSim {
    fn drive<R>(sim: &mut Simulation<Self>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
        crate::harness::drive(sim, f)
    }
}

impl MigrationHost for Cluster {
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
    /// Signalled Writes posted on the path whose completions are still
    /// owed: the bulk copy's chunks, then the replayed ranges.
    owed: usize,
}

/// Where a [`MigrationRun`] stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The bulk copy is in flight and the old chain's tail drains.
    Copy,
    /// The replayed ranges are in flight.
    Replay,
    /// Cut over; the holding pen drains onto the new chain.
    Resume,
}

/// An in-progress migration, from [`MigrationRun::launch`] (pause opened,
/// new chain wired, bulk copy in flight) to the [`MigrationRun::step`]
/// that completes it (drain, delta replay, cutover, resume).
///
/// While it runs, the coordinator owns the migrating shard's completions:
/// it leaves the old chain's acks queued until the cutover and then polls
/// the shard itself, so a caller polls only the other shards. Between
/// steps the caller owns the simulation: it may issue on every *other*
/// shard and park ops for the paused one in the holding pen
/// ([`ShardSet::defer_on`]) — that interleaving is what makes the pause
/// window a measurable, bounded thing rather than a global stop-the-world.
/// A client process steps the run on each wake; [`MigrationRun::begin`]/
/// [`finish`](MigrationRun::finish) and [`migrate_shard`] drive it to
/// completion from outside.
#[derive(Debug)]
pub struct MigrationRun {
    plan: MigrationPlan,
    client_node: NodeId,
    old_base: u64,
    new_base: u64,
    tracer: Tracer,
    /// The new chain's client, until the cutover hands it to the set.
    client: Option<GroupClient>,
    replicas: Vec<ReplicaHandle>,
    /// Generations issued from the holding pen, in pen order.
    resumed: Vec<u64>,
    paths: Vec<CopyPath>,
    phase: Phase,
    copy_bytes: u64,
    replayed: u64,
    t0: SimTime,
    t1: SimTime,
}

impl MigrationRun {
    /// [`MigrationRun::launch`] on a simulation, from outside it.
    pub fn begin<M: MigrationHost>(
        sim: &mut Simulation<M>,
        set: &mut ShardSet<GroupClient>,
        plan: MigrationPlan,
    ) -> MigrationRun {
        M::drive(sim, |ctx| MigrationRun::launch(ctx, set, plan))
    }

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
    pub fn launch(
        ctx: &mut NicCtx<'_>,
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
        let t0 = ctx.now;
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
        let mut paths: Vec<CopyPath> = plan
            .to
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
                    owed: 0,
                }
            })
            .collect();

        // -- RebuildDataPath: symmetric setup over the new chain. --
        let cursor = plan
            .to
            .iter()
            .map(|&n| ctx.fab.alloc_cursor(n))
            .max()
            .expect("non-empty target chain");
        for &n in &plan.to {
            ctx.fab.align_allocator(n, cursor);
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
        let mut group = HyperLoopGroup::setup(ctx, client_node, &plan.to, cfg);
        group.client.set_tracer(tracer.clone());
        let new_base = group.client.layout().shared_base;

        // -- CopyState, posted in the same instant the pause opened: the
        // chunked Writes race the old chain's in-flight tail through the
        // fabric, exactly the hazard the delta pass repairs. --
        let mut copy_bytes = 0u64;
        for p in &mut paths {
            let mut off = 0;
            while off < plan.copy_bytes {
                let len = COPY_CHUNK.min(plan.copy_bytes - off);
                post_copy(ctx, source, p, old_base + off, new_base + off, len);
                off += len;
            }
            copy_bytes += plan.copy_bytes;
        }

        MigrationRun {
            plan,
            client_node,
            old_base,
            new_base,
            tracer,
            client: Some(group.client),
            replicas: group.replicas,
            resumed: Vec::new(),
            paths,
            phase: Phase::Copy,
            copy_bytes,
            replayed: 0,
            t0,
            t1: t0,
        }
    }

    /// The plan this run is executing.
    pub fn plan(&self) -> &MigrationPlan {
        &self.plan
    }

    /// Advances the move as far as the fabric allows at `ctx.now`. Once
    /// the bulk copy has landed and every op the old chain had in flight
    /// has acked, it verifies the copy and replays the delta (the WAL
    /// tail that raced the snapshot); once the replay has landed, it
    /// collects the old chain's acks into `drained`, flushes the image
    /// durable, cuts over ([`ShardSet::replace_shard`], epoch bump,
    /// `migrate_cutover`) and resumes the shard; then it drains the
    /// holding pen (`migrate_end`), appending the new chain's acks to
    /// `drained` too. Returns the outcome once the move is done; its
    /// `drained` is empty, since every step hands its acks over at once.
    ///
    /// # Panics
    ///
    /// Panics if the fabric reports a failed or surplus copy completion —
    /// a migration that cannot complete must be loud, not lossy.
    pub fn step(
        &mut self,
        ctx: &mut NicCtx<'_>,
        set: &mut ShardSet<GroupClient>,
        drained: &mut Vec<ShardAck>,
    ) -> Option<MigrationOutcome> {
        let shard = self.plan.shard;
        if self.phase != Phase::Resume {
            if !self.landed(ctx) {
                return None;
            }
            if self.phase == Phase::Copy {
                let old = set.shard(shard);
                if (ctx.fab.cq_depth(self.client_node, old.ack_cq()) as u64) < old.in_flight() {
                    return None;
                }
                self.replay(ctx);
                if !self.landed(ctx) {
                    self.phase = Phase::Replay;
                    return None;
                }
            }
            self.cutover(ctx, set, drained);
        }
        set.poll_shard_into(ctx, shard, drained);
        self.resumed.extend(set.drain_pen(ctx, shard));
        if set.pen_len(shard) > 0 {
            return None;
        }
        let stats = MigrationStats {
            epoch: set.epoch(shard),
            pause: self.t1.since(self.t0),
            copy_bytes: self.copy_bytes,
            replayed: self.replayed,
        };
        self.tracer.emit(
            ctx.now,
            self.client_node.0,
            NO_OP,
            TraceKind::MigrateEnd {
                shard: shard.0,
                replayed: self.replayed,
            },
        );
        set.record_migration(shard, stats);
        Some(MigrationOutcome {
            stats,
            replicas: std::mem::take(&mut self.replicas),
            drained: Vec::new(),
            resumed: std::mem::take(&mut self.resumed),
        })
    }

    /// Polls every copy path; true once none owes a completion.
    fn landed(&mut self, ctx: &mut NicCtx<'_>) -> bool {
        let source = self.plan.source();
        for p in &mut self.paths {
            let cqes = ctx.fab.poll_cq(source, p.scq, p.owed + 1);
            assert!(
                cqes.len() <= p.owed,
                "copy path to {} completed more Writes than it posted",
                p.target
            );
            for c in &cqes {
                assert_eq!(
                    c.status,
                    CqeStatus::Success,
                    "copy Write to {} failed",
                    p.target
                );
            }
            p.owed -= cqes.len();
        }
        self.paths.iter().all(|p| p.owed == 0)
    }

    /// The delta pass, run once the copy has landed and the old chain has
    /// drained, so the source region is stable. A target that is also the
    /// source seeds itself host-locally (there is no fabric hop to
    /// itself). Every byte where a remote target's copy diverges was
    /// gathered by the bulk copy's NIC before a racing write landed:
    /// replay exactly those ranges.
    fn replay(&mut self, ctx: &mut NicCtx<'_>) {
        let (source, len) = (self.plan.source(), self.plan.copy_bytes);
        let truth = ctx
            .fab
            .mem(source)
            .read_vec(self.old_base, len)
            .expect("source region in bounds");
        if self.plan.to.contains(&source) {
            ctx.fab
                .mem(source)
                .write_durable(self.new_base, &truth)
                .expect("seed copy in bounds");
            self.copy_bytes += len;
        }
        for p in &mut self.paths {
            let got = ctx
                .fab
                .mem(p.target)
                .read_vec(self.new_base, len)
                .expect("target region in bounds");
            let ranges = dirty_ranges(&truth, &got, REPLAY_SLACK);
            for &(off, n) in &ranges {
                post_copy(ctx, source, p, self.old_base + off, self.new_base + off, n);
                self.copy_bytes += n;
            }
            self.replayed += ranges.len() as u64;
        }
    }

    /// Collects the old chain's acks, folds the image durable on every new
    /// member, swaps the transport (epoch bump) and resumes the shard.
    fn cutover(
        &mut self,
        ctx: &mut NicCtx<'_>,
        set: &mut ShardSet<GroupClient>,
        drained: &mut Vec<ShardAck>,
    ) {
        let shard = self.plan.shard;
        set.poll_shard_into(ctx, shard, drained);
        for &n in &self.plan.to {
            ctx.fab
                .mem(n)
                .flush_range(self.new_base, self.plan.copy_bytes)
                .expect("migrated region in bounds");
        }
        let client = self.client.take().expect("one cutover per run");
        drop(set.replace_shard(shard, client));
        let epoch = set.epoch(shard);
        assert_eq!(
            epoch, self.plan.epoch,
            "cutover landed on an unplanned epoch"
        );
        self.t1 = ctx.now;
        self.tracer.emit(
            self.t1,
            self.client_node.0,
            NO_OP,
            TraceKind::MigrateCutover {
                shard: shard.0,
                epoch,
            },
        );
        self.resumed = set.resume(ctx, shard);
        self.phase = Phase::Resume;
    }

    /// Steps the run to completion from outside the simulation, running
    /// the simulation between steps.
    ///
    /// # Panics
    ///
    /// As [`MigrationRun::step`], and if the simulation runs dry before
    /// the move completes.
    pub fn finish<M: MigrationHost>(
        mut self,
        sim: &mut Simulation<M>,
        set: &mut ShardSet<GroupClient>,
    ) -> MigrationOutcome {
        let mut drained = Vec::new();
        loop {
            if let Some(out) = M::drive(sim, |ctx| self.step(ctx, set, &mut drained)) {
                return MigrationOutcome { drained, ..out };
            }
            assert!(
                !sim.queue.is_empty(),
                "migration of {} stalled in {:?}",
                self.plan.shard,
                self.phase
            );
            sim.run();
        }
    }
}

/// Posts one signalled copy Write of `len` bytes on `p`.
fn post_copy(ctx: &mut NicCtx<'_>, source: NodeId, p: &mut CopyPath, from: u64, to: u64, len: u64) {
    ctx.fab.post_send(
        ctx.now,
        source,
        p.sqp,
        Wqe {
            opcode: Opcode::Write,
            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
            local_addr: from,
            len,
            remote_addr: to,
            wr_id: NO_OP,
            ..Wqe::default()
        },
        ctx.out,
    );
    p.owed += 1;
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
