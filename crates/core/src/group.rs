//! Group setup and the client/replica runtime state.
//!
//! [`HyperLoopGroup::setup`] wires a chain — client → R0 → R1 → … → R(n-1)
//! → client — and pre-posts the WAIT/INDIRECT descriptor chains on every
//! replica. After setup the data path never touches a replica CPU:
//!
//! * the client issues ops with [`GroupClient::issue`] (plain verbs on its
//!   own NIC);
//! * each replica's NIC reacts to the incoming metadata SEND (WAIT →
//!   loopback op → WAIT → forward);
//! * the last hop's NIC writes the ack (with the gCAS result map) straight
//!   into the client's memory.
//!
//! The only replica-side software is the off-critical-path maintenance that
//! replaces consumed descriptors ([`ReplicaHandle::replenish`]).
//!
//! All data-path calls take a [`NicCtx`] — the bundled
//! `(fabric, now, outbox)` context.

use crate::config::{GroupConfig, SharedLayout, META_SLOTS};
use crate::meta::{build_payload_into, payload_len};
use crate::ops::{GroupAck, GroupOp};
use netsim::NodeId;
use rnicsim::payload::take_sges;
use rnicsim::{wqe_flags, CqId, Cqe, NicCtx, Opcode, Payload, QpId, RecvWqe, Wqe};
use simcore::simaudit::Probe;
use simcore::{TraceKind, Tracer};
use std::collections::VecDeque;
use std::fmt;

/// A write still in flight, tracked (only while an audit tap is attached)
/// so the ack path can decide whether a durability check is meaningful:
/// an overlapping younger write legitimately re-dirties the range, so the
/// check is skipped for it.
#[derive(Debug, Clone, Copy)]
struct PendingWrite {
    gen: u64,
    offset: u64,
    len: u64,
    flush: bool,
}

/// Errors surfaced by the client data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupError {
    /// The in-flight window is full; poll for acks first.
    WindowFull,
    /// The op touches bytes outside the shared region.
    OutOfRange,
}

impl fmt::Display for GroupError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GroupError::WindowFull => f.write_str("in-flight window full"),
            GroupError::OutOfRange => f.write_str("offset outside shared region"),
        }
    }
}

impl std::error::Error for GroupError {}

/// A fully wired group: the client handle plus one handle per replica.
#[derive(Debug)]
pub struct HyperLoopGroup {
    /// The client (transaction coordinator) side.
    pub client: GroupClient,
    /// Per-replica maintenance handles, in chain order.
    pub replicas: Vec<ReplicaHandle>,
}

/// Client-side state: issues group ops and collects acks.
#[derive(Debug)]
pub struct GroupClient {
    node: NodeId,
    layout: SharedLayout,
    cfg: GroupConfig,
    qp_down: QpId,
    cq_ack: CqId,
    qp_ack: QpId,
    mirror_base: u64,
    staging_base: u64,
    ack_base: u64,
    ack_slot_size: u64,
    next_gen: u64,
    completed: u64,
    pending: VecDeque<u64>,
    pending_writes: VecDeque<PendingWrite>,
    replica_nodes: Vec<NodeId>,
    skip_flush: u64,
    tracer: Tracer,
    /// Reusable completion buffer for [`GroupClient::poll`] — the ack loop
    /// runs every host tick, so it must not allocate.
    cqe_scratch: Vec<Cqe>,
    /// Reusable staging buffer for reading ack result maps.
    ack_raw: Vec<u8>,
    /// Reusable metadata-payload staging buffer for issue.
    meta_scratch: Vec<u8>,
}

/// Replica-side state: owns the pre-post cursors for one chain position.
#[derive(Debug)]
pub struct ReplicaHandle {
    node: NodeId,
    idx: u32,
    layout: SharedLayout,
    qp_up: QpId,
    recv_cq_up: CqId,
    qp_loop_a: QpId,
    cq_loop: CqId,
    qp_down: QpId,
    next_prepost: u64,
    first_gen: u64,
}

impl HyperLoopGroup {
    /// Wires the chain and pre-posts every descriptor. `replica_nodes` is
    /// the chain order; the client node must not appear in it.
    ///
    /// Replica nodes must have symmetric allocation state (fresh nodes or
    /// nodes that have only ever run symmetric setups); setup asserts that
    /// the resulting offsets match.
    ///
    /// # Panics
    ///
    /// Panics on an empty chain, asymmetric replica layouts, or exhausted
    /// device memory.
    pub fn setup(
        ctx: &mut NicCtx<'_>,
        client_node: NodeId,
        replica_nodes: &[NodeId],
        cfg: GroupConfig,
    ) -> HyperLoopGroup {
        cfg.validate();
        let gs = replica_nodes.len() as u32;
        assert!(gs >= 1, "need at least one replica");
        assert!(
            !replica_nodes.contains(&client_node),
            "client must not be a replica"
        );

        // Symmetric allocation on every replica.
        let slot_size = SharedLayout::slot_size_for(gs);
        let mut shared_base = None;
        let mut meta_base = None;
        for &rn in replica_nodes {
            let sb = ctx.fab.alloc(rn, cfg.shared_size);
            let mb = ctx.fab.alloc(rn, slot_size * META_SLOTS as u64);
            match (shared_base, meta_base) {
                (None, None) => {
                    shared_base = Some(sb);
                    meta_base = Some(mb);
                }
                (Some(s), Some(m)) => {
                    assert_eq!((s, m), (sb, mb), "replica {rn} layout asymmetric");
                }
                _ => unreachable!(),
            }
            ctx.fab.reg_mr(rn, sb, cfg.shared_size);
            ctx.fab.reg_mr(rn, mb, slot_size * META_SLOTS as u64);
        }
        let layout = SharedLayout {
            shared_base: shared_base.expect("at least one replica"),
            shared_size: cfg.shared_size,
            meta_base: meta_base.expect("at least one replica"),
            meta_slot_size: slot_size,
            group_size: gs,
        };

        // Client-side buffers.
        let mirror_base = ctx.fab.alloc(client_node, cfg.shared_size);
        let staging_base = ctx.fab.alloc(client_node, slot_size * META_SLOTS as u64);
        let ack_slot_size = (layout.result_map_len() + 63) & !63;
        let ack_base = ctx
            .fab
            .alloc(client_node, ack_slot_size * META_SLOTS as u64);
        ctx.fab
            .reg_mr(client_node, ack_base, ack_slot_size * META_SLOTS as u64);

        // Queues: client down + ack.
        let cq_down = ctx.fab.create_cq(client_node);
        let qp_down = ctx.fab.create_qp(client_node, cq_down, cq_down);
        let cq_ack = ctx.fab.create_cq(client_node);
        let qp_ack = ctx.fab.create_qp(client_node, cq_ack, cq_ack);

        // Replica queues.
        let mut replicas = Vec::with_capacity(gs as usize);
        for (i, &rn) in replica_nodes.iter().enumerate() {
            let recv_cq_up = ctx.fab.create_cq(rn);
            let qp_up = ctx.fab.create_qp(rn, recv_cq_up, recv_cq_up);
            let cq_loop = ctx.fab.create_cq(rn);
            // Only the downstream WAIT ever consumes this CQ; no host polls
            // it, so don't retain host-pollable entries for eternity.
            ctx.fab.set_cq_wait_only(rn, cq_loop);
            let qp_loop_a = ctx.fab.create_qp(rn, cq_loop, cq_loop);
            let qp_loop_b = ctx.fab.create_qp(rn, cq_loop, cq_loop);
            ctx.fab.connect(rn, qp_loop_a, rn, qp_loop_b);
            let cq_down = ctx.fab.create_cq(rn);
            let qp_down = ctx.fab.create_qp(rn, cq_down, cq_down);
            replicas.push(ReplicaHandle {
                node: rn,
                idx: i as u32,
                layout,
                qp_up,
                recv_cq_up,
                qp_loop_a,
                cq_loop,
                qp_down,
                next_prepost: cfg.first_gen,
                first_gen: cfg.first_gen,
            });
        }

        // Chain wiring.
        ctx.fab
            .connect(client_node, qp_down, replicas[0].node, replicas[0].qp_up);
        for i in 0..replicas.len() - 1 {
            let (a, b) = (i, i + 1);
            ctx.fab.connect(
                replicas[a].node,
                replicas[a].qp_down,
                replicas[b].node,
                replicas[b].qp_up,
            );
        }
        let last = replicas.len() - 1;
        ctx.fab.connect(
            replicas[last].node,
            replicas[last].qp_down,
            client_node,
            qp_ack,
        );

        // Pre-post descriptor chains and ack receives.
        for r in &mut replicas {
            r.replenish(ctx, cfg.prepost_depth);
        }
        for _ in 0..cfg.window * 2 {
            ctx.post_recv(
                client_node,
                qp_ack,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![],
                },
            );
        }

        HyperLoopGroup {
            client: GroupClient {
                node: client_node,
                layout,
                cfg,
                qp_down,
                cq_ack,
                qp_ack,
                mirror_base,
                staging_base,
                ack_base,
                ack_slot_size,
                next_gen: cfg.first_gen,
                completed: 0,
                pending: VecDeque::new(),
                pending_writes: VecDeque::new(),
                replica_nodes: replica_nodes.to_vec(),
                skip_flush: 0,
                tracer: Tracer::disabled(),
                cqe_scratch: Vec::new(),
                ack_raw: Vec::new(),
                meta_scratch: Vec::new(),
            },
            replicas,
        }
    }
}

impl GroupClient {
    /// Installs a trace sink for the group-op lifecycle (issue → metadata
    /// SEND → per-replica progress → ACK). The operation generation is the
    /// causal op id — it is also the `wr_id` on every WQE of the chain.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The installed trace sink (disabled unless
    /// [`GroupClient::set_tracer`] was called). Clones share one buffer,
    /// so a migration driver can emit alongside the client and carry the
    /// sink over to the replacement client.
    pub fn tracer(&self) -> Tracer {
        self.tracer.clone()
    }

    /// The group configuration this client was set up with.
    pub fn config(&self) -> GroupConfig {
        self.cfg
    }

    /// The replica-space layout (shared by all group members).
    pub fn layout(&self) -> &SharedLayout {
        &self.layout
    }

    /// The client node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The CQ on which chain acks (the last replica's WRITE_IMM) arrive.
    pub fn ack_cq(&self) -> CqId {
        self.cq_ack
    }

    /// Base of the client's local mirror of the shared region.
    pub fn mirror_base(&self) -> u64 {
        self.mirror_base
    }

    /// Operations issued but not yet acked.
    pub fn in_flight(&self) -> u64 {
        self.next_gen - self.cfg.first_gen - self.completed
    }

    /// Total operations acknowledged (a count, regardless of the group's
    /// [`GroupConfig::first_gen`] base).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True if another op can be issued right now.
    pub fn can_issue(&self) -> bool {
        self.in_flight() < self.cfg.window as u64
    }

    /// The configured in-flight window.
    pub fn window(&self) -> u32 {
        self.cfg.window
    }

    fn check_range(&self, offset: u64, len: u64) -> Result<(), GroupError> {
        if offset
            .checked_add(len)
            .is_none_or(|end| end > self.layout.shared_size)
        {
            return Err(GroupError::OutOfRange);
        }
        Ok(())
    }

    /// Issues a group operation down the chain, returning its generation.
    ///
    /// # Errors
    ///
    /// [`GroupError::WindowFull`] when too many ops are outstanding;
    /// [`GroupError::OutOfRange`] for offsets beyond the shared region.
    pub fn issue(&mut self, ctx: &mut NicCtx<'_>, op: GroupOp) -> Result<u64, GroupError> {
        if !self.can_issue() {
            return Err(GroupError::WindowFull);
        }
        match &op {
            GroupOp::Write { offset, data, .. } => self.check_range(*offset, data.len() as u64)?,
            GroupOp::Cas { offset, .. } => self.check_range(*offset, 8)?,
            GroupOp::Memcpy { src, dst, len, .. } => {
                self.check_range(*src, *len)?;
                self.check_range(*dst, *len)?;
            }
            GroupOp::Flush { offset } => self.check_range(*offset, 1)?,
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.tracer
            .emit(ctx.now, self.node.0, gen, TraceKind::OpIssue);

        // Stage the metadata payload in client memory.
        let ack_addr = self.ack_base + (gen % META_SLOTS as u64) * self.ack_slot_size;
        let mut payload = std::mem::take(&mut self.meta_scratch);
        build_payload_into(&op, &self.layout, gen, ack_addr, &mut payload);
        let staging = self.staging_base + (gen % META_SLOTS as u64) * self.layout.meta_slot_size;
        ctx.mem(self.node)
            .write_durable(staging, &payload)
            .expect("staging slot in bounds");
        self.meta_scratch = payload;

        // Maintain the client's local mirror (it is chain member zero in
        // spirit: the op's effects apply to its copy too).
        let mut needs_flush_fence = false;
        match &op {
            GroupOp::Write {
                offset,
                data,
                flush,
            } => {
                ctx.mem(self.node)
                    .write_durable(self.mirror_base + offset, data)
                    .expect("mirror write in bounds");
                // Data WRITE to the first replica. Posted quiet: the
                // metadata SEND below lands on the same QP in the same
                // instant, and its doorbell wakes the engine once for the
                // whole batch.
                ctx.post_send_quiet(
                    self.node,
                    self.qp_down,
                    Wqe {
                        opcode: Opcode::Write,
                        flags: wqe_flags::HW_OWNED,
                        local_addr: self.mirror_base + offset,
                        len: data.len() as u64,
                        remote_addr: self.layout.shared_base + offset,
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
                if *flush {
                    if self.skip_flush > 0 {
                        self.skip_flush -= 1;
                    } else {
                        self.post_flush_read_quiet(ctx, *offset, gen);
                        needs_flush_fence = true;
                    }
                }
                if self.tracer.audit().is_enabled() {
                    self.pending_writes.push_back(PendingWrite {
                        gen,
                        offset: *offset,
                        len: data.len() as u64,
                        flush: *flush,
                    });
                }
            }
            GroupOp::Memcpy { src, dst, len, .. } => {
                // Apply to the local mirror (host-side copy through a
                // pooled buffer).
                let bytes = Payload::try_with(*len as usize, |buf| {
                    ctx.mem(self.node).read(self.mirror_base + src, buf)
                })
                .expect("mirror read in bounds");
                ctx.mem(self.node)
                    .write_durable(self.mirror_base + dst, &bytes)
                    .expect("mirror write in bounds");
            }
            GroupOp::Flush { offset } => {
                self.post_flush_read_quiet(ctx, *offset, gen);
                needs_flush_fence = true;
            }
            GroupOp::Cas { .. } => {}
        }

        // The metadata SEND that triggers the first replica's chain.
        self.tracer.emit(
            ctx.now,
            self.node.0,
            gen,
            TraceKind::MetaSend { replica: 0 },
        );
        ctx.post_send(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Send,
                flags: if needs_flush_fence {
                    wqe_flags::HW_OWNED | wqe_flags::FENCE
                } else {
                    wqe_flags::HW_OWNED
                },
                local_addr: staging,
                len: payload_len(&self.layout),
                wr_id: gen,
                ..Wqe::default()
            },
        );
        self.pending.push_back(gen);
        Ok(gen)
    }

    /// Fault injection for auditor mutation tests: silently drop the
    /// client-side gFLUSH (the 0-byte READ) of the next `n` flushed
    /// writes, leaving the first replica's bytes in the NIC volatile
    /// cache at ack time. The durability auditor must catch this.
    #[doc(hidden)]
    pub fn fault_skip_next_flush(&mut self, n: u64) {
        self.skip_flush += n;
    }

    /// At ack time, verify the acked flushed write is durable on every
    /// replica and feed the verdict to the audit tap. Skipped when a
    /// younger in-flight write overlaps the range: its bytes legitimately
    /// sit in the NIC cache until its own flush, so the check would
    /// false-positive.
    fn probe_ack_durability(&mut self, ctx: &mut NicCtx<'_>, gen: u64) {
        let audit = self.tracer.audit().clone();
        if !audit.is_enabled() {
            return;
        }
        let Some(front) = self.pending_writes.front().copied() else {
            return;
        };
        if front.gen != gen {
            return; // the acked op was not a write
        }
        self.pending_writes.pop_front();
        if !front.flush {
            return;
        }
        let overlapped = self
            .pending_writes
            .iter()
            .any(|w| front.offset < w.offset + w.len && w.offset < front.offset + front.len);
        if overlapped {
            return;
        }
        for &rn in &self.replica_nodes {
            let durable = ctx
                .mem(rn)
                .is_durable(self.layout.shared_base + front.offset, front.len)
                .unwrap_or(false);
            audit.probe(
                ctx.now,
                Probe::AckDurability {
                    op: gen,
                    node: rn.0,
                    durable,
                },
            );
        }
    }

    /// Posts the gFLUSH 0-byte READ without ringing the doorbell — every
    /// caller follows up with the metadata SEND on the same QP, whose
    /// doorbell covers the batch.
    fn post_flush_read_quiet(&mut self, ctx: &mut NicCtx<'_>, offset: u64, gen: u64) {
        ctx.post_send_quiet(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Read,
                flags: wqe_flags::HW_OWNED,
                local_addr: self.mirror_base,
                len: 0,
                remote_addr: self.layout.shared_base + offset,
                wr_id: gen,
                ..Wqe::default()
            },
        );
    }

    /// Collects completed operations (chain acks), re-posting ack receives.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<GroupAck> {
        let mut acks = Vec::new();
        self.poll_into(ctx, &mut acks);
        acks
    }

    /// Collects completed operations into a caller-provided buffer,
    /// returning how many were appended. The allocation-free twin of
    /// [`GroupClient::poll`]: a driver loop reuses one ack vector and the
    /// client reuses its own CQE scratch, so a steady-state poll touches
    /// the allocator zero times.
    pub fn poll_into(&mut self, ctx: &mut NicCtx<'_>, acks: &mut Vec<GroupAck>) -> usize {
        let mut cqes = std::mem::take(&mut self.cqe_scratch);
        cqes.clear();
        ctx.poll_cq_into(self.node, self.cq_ack, 64, &mut cqes);
        let appended = cqes.len();
        for cqe in cqes.drain(..) {
            assert_eq!(
                cqe.status,
                rnicsim::CqeStatus::Success,
                "chain ack failed: {cqe:?}"
            );
            let gen = cqe.imm.expect("ack carries the generation");
            let expected = self.pending.pop_front();
            debug_assert_eq!(expected, Some(gen), "acks must arrive in issue order");
            let slot = self.ack_base + (gen % META_SLOTS as u64) * self.ack_slot_size;
            self.ack_raw.clear();
            self.ack_raw
                .resize(self.layout.result_map_len() as usize, 0);
            ctx.mem(self.node)
                .read(slot, &mut self.ack_raw)
                .expect("ack slot in bounds");
            let result_map: Vec<u64> = self
                .ack_raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
                .collect();
            if self.tracer.is_enabled() {
                // The ack proves every chain position executed: surface each
                // replica's contribution as client-visible progress.
                for replica in 0..result_map.len() as u32 {
                    self.tracer.emit(
                        ctx.now,
                        self.node.0,
                        gen,
                        TraceKind::ReplicaProgress { replica },
                    );
                }
            }
            self.probe_ack_durability(ctx, gen);
            self.tracer
                .emit(ctx.now, self.node.0, gen, TraceKind::OpAck);
            self.completed += 1;
            ctx.post_recv(
                self.node,
                self.qp_ack,
                RecvWqe {
                    wr_id: 0,
                    sges: take_sges(),
                },
            );
            acks.push(GroupAck { gen, result_map });
        }
        self.cqe_scratch = cqes;
        appended
    }
}

impl ReplicaHandle {
    /// This replica's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Chain position (0 = first after the client).
    pub fn idx(&self) -> u32 {
        self.idx
    }

    /// The CQ that fires once per incoming operation — bind the maintenance
    /// app here.
    pub fn recv_cq(&self) -> CqId {
        self.recv_cq_up
    }

    /// Generations pre-posted so far (a count, regardless of the group's
    /// [`GroupConfig::first_gen`] base).
    pub fn preposted(&self) -> u64 {
        self.next_prepost - self.first_gen
    }

    /// Pre-posts descriptor chains for the next `count` generations: the
    /// upstream RECV (scattering metadata into the generation's slot), the
    /// loopback WAIT + two indirect slots, and the downstream WAIT + three
    /// indirect slots. This is the *only* replica-side work in steady state,
    /// and it is off the critical path.
    pub fn replenish(&mut self, ctx: &mut NicCtx<'_>, count: u32) {
        for _ in 0..count {
            let gen = self.next_prepost;
            self.next_prepost += 1;
            let slot = self.layout.meta_slot(gen);
            let mut sges = take_sges();
            sges.push((slot, payload_len(&self.layout) as u32));
            ctx.post_recv(self.node, self.qp_up, RecvWqe { wr_id: gen, sges });
            // Loopback: WAIT on the upstream RECV, then two indirect images.
            ctx.post_send(
                self.node,
                self.qp_loop_a,
                Wqe {
                    opcode: Opcode::Wait,
                    flags: wqe_flags::HW_OWNED,
                    wait_cq: self.recv_cq_up.0,
                    wait_count: 1,
                    enable_count: 2,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
            for img in 0..2 {
                ctx.post_send(
                    self.node,
                    self.qp_loop_a,
                    Wqe {
                        opcode: Opcode::Nop,
                        flags: wqe_flags::INDIRECT, // unowned until the WAIT fires
                        local_addr: self.layout.image_addr(gen, self.idx, img),
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
            }
            // Downstream: WAIT on the loopback completion, then three images.
            ctx.post_send(
                self.node,
                self.qp_down,
                Wqe {
                    opcode: Opcode::Wait,
                    flags: wqe_flags::HW_OWNED,
                    wait_cq: self.cq_loop.0,
                    wait_count: 1,
                    enable_count: 3,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
            for img in 2..5 {
                ctx.post_send(
                    self.node,
                    self.qp_down,
                    Wqe {
                        opcode: Opcode::Nop,
                        flags: wqe_flags::INDIRECT,
                        local_addr: self.layout.image_addr(gen, self.idx, img),
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
            }
        }
    }
}
