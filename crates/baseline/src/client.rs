//! Client side of the Naïve-RDMA chain, plus the chain constructor.

use crate::cmd::{self, CMD_SIZE, CMD_SLOTS};
use crate::replica::{NaiveCosts, NaiveReplica};
use cpusched::ProcKind;
use hyperloop::{GroupAck, GroupError, GroupOp};
use netsim::NodeId;
use rnicsim::payload::take_sges;
use rnicsim::{wqe_flags, CqId, Cqe, NicCtx, Opcode, Payload, QpId, RecvWqe, Wqe};
use simcore::{Outbox, SimDuration, SimTime, TraceKind, Tracer};
use std::collections::VecDeque;
use testbed::{Cluster, ProcRef};

/// Configuration of a Naïve-RDMA chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveConfig {
    /// Bytes of replicated shared state per replica.
    pub shared_size: u64,
    /// Receives pre-posted per replica.
    pub prepost_depth: u32,
    /// Client in-flight window.
    pub window: u32,
    /// How replica processes obtain CPU: the paper's Naïve-Event
    /// ([`ProcKind::EventDriven`]) or Naïve-Polling ([`ProcKind::Polling`]).
    pub replica_kind: ProcKind,
    /// CPU cost model.
    pub costs: NaiveCosts,
}

impl Default for NaiveConfig {
    fn default() -> Self {
        NaiveConfig {
            shared_size: 4 << 20,
            prepost_depth: 128,
            window: 16,
            replica_kind: ProcKind::EventDriven,
            costs: NaiveCosts::default(),
        }
    }
}

/// The wired chain: client handle plus the replicas' process refs.
#[derive(Debug)]
pub struct NaiveChain {
    /// Client-side issue/poll state.
    pub client: NaiveClient,
    /// The replica processes (for `Cluster::app_mut::<NaiveReplica>`).
    pub replica_procs: Vec<ProcRef>,
}

/// Client state: issues ops and collects acks.
#[derive(Debug)]
pub struct NaiveClient {
    node: NodeId,
    shared_base: u64,
    shared_size: u64,
    group_size: u32,
    qp_down: QpId,
    cq_ack: CqId,
    qp_ack: QpId,
    mirror_base: u64,
    staging_base: u64,
    cmd_slot_size: u64,
    ack_base: u64,
    ack_slot_size: u64,
    window: u32,
    next_gen: u64,
    completed: u64,
    pending: VecDeque<u64>,
    tracer: Tracer,
    /// Reusable completion buffer for [`NaiveClient::poll_into`].
    cqe_scratch: Vec<Cqe>,
    /// Reusable staging buffer for reading ack result maps.
    ack_raw: Vec<u8>,
}

impl NaiveChain {
    /// Wires a Naïve-RDMA chain on the cluster: symmetric shared regions,
    /// command rings, QPs, and one replica process per node (registered
    /// with `cfg.replica_kind` and bound to its receive CQ).
    ///
    /// # Panics
    ///
    /// Panics on an empty chain or asymmetric replica layouts.
    pub fn setup(
        cluster: &mut Cluster,
        client_node: NodeId,
        replica_nodes: &[NodeId],
        cfg: NaiveConfig,
    ) -> NaiveChain {
        let gs = replica_nodes.len() as u32;
        assert!(gs >= 1, "need at least one replica");
        let cmd_slot_size = (CMD_SIZE + gs as u64 * 8 + 63) & !63;

        // Symmetric regions.
        let mut shared_base = None;
        let mut cmd_base = None;
        for &rn in replica_nodes {
            let sb = cluster.fab.alloc(rn, cfg.shared_size);
            let cb = cluster.fab.alloc(rn, cmd_slot_size * CMD_SLOTS as u64);
            match (shared_base, cmd_base) {
                (None, None) => {
                    shared_base = Some(sb);
                    cmd_base = Some(cb);
                }
                (Some(s), Some(c)) => assert_eq!((s, c), (sb, cb), "asymmetric {rn}"),
                _ => unreachable!(),
            }
            cluster.fab.reg_mr(rn, sb, cfg.shared_size);
            cluster.fab.reg_mr(rn, cb, cmd_slot_size * CMD_SLOTS as u64);
        }
        let shared_base = shared_base.expect("non-empty chain");
        let cmd_base = cmd_base.expect("non-empty chain");

        // Client buffers.
        let mirror_base = cluster.fab.alloc(client_node, cfg.shared_size);
        let staging_base = cluster
            .fab
            .alloc(client_node, cmd_slot_size * CMD_SLOTS as u64);
        let ack_slot_size = (gs as u64 * 8 + 63) & !63;
        let ack_base = cluster
            .fab
            .alloc(client_node, ack_slot_size * CMD_SLOTS as u64);
        cluster
            .fab
            .reg_mr(client_node, ack_base, ack_slot_size * CMD_SLOTS as u64);

        // Queues.
        let cq_down = cluster.fab.create_cq(client_node);
        let qp_down = cluster.fab.create_qp(client_node, cq_down, cq_down);
        let cq_ack = cluster.fab.create_cq(client_node);
        let qp_ack = cluster.fab.create_qp(client_node, cq_ack, cq_ack);

        let mut ups = Vec::new();
        let mut downs = Vec::new();
        let mut recv_cqs = Vec::new();
        for &rn in replica_nodes {
            let rcq = cluster.fab.create_cq(rn);
            let up = cluster.fab.create_qp(rn, rcq, rcq);
            let dcq = cluster.fab.create_cq(rn);
            let down = cluster.fab.create_qp(rn, dcq, dcq);
            ups.push(up);
            downs.push(down);
            recv_cqs.push(rcq);
        }
        cluster
            .fab
            .connect(client_node, qp_down, replica_nodes[0], ups[0]);
        for i in 0..replica_nodes.len() - 1 {
            cluster
                .fab
                .connect(replica_nodes[i], downs[i], replica_nodes[i + 1], ups[i + 1]);
        }
        let last = replica_nodes.len() - 1;
        cluster
            .fab
            .connect(replica_nodes[last], downs[last], client_node, qp_ack);

        // Pre-post receives (setup time: no effects can fire yet).
        let mut scratch = Outbox::new();
        for (i, &rn) in replica_nodes.iter().enumerate() {
            for g in 0..cfg.prepost_depth as u64 {
                let slot = cmd_base + (g % CMD_SLOTS as u64) * cmd_slot_size;
                cluster.fab.post_recv(
                    SimTime::ZERO,
                    rn,
                    ups[i],
                    RecvWqe {
                        wr_id: g,
                        sges: vec![(slot, (CMD_SIZE + gs as u64 * 8) as u32)],
                    },
                    &mut scratch,
                );
            }
        }
        for _ in 0..cfg.window * 2 {
            cluster.fab.post_recv(
                SimTime::ZERO,
                client_node,
                qp_ack,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![],
                },
                &mut scratch,
            );
        }
        assert!(scratch.is_empty(), "setup posts must not fire effects");

        // Register the replica processes.
        let mut replica_procs = Vec::new();
        for (i, &rn) in replica_nodes.iter().enumerate() {
            let app = NaiveReplica::new(
                rn,
                i as u32,
                gs,
                shared_base,
                cmd_base,
                cmd_slot_size,
                ups[i],
                recv_cqs[i],
                downs[i],
                ack_base,
                ack_slot_size,
                cfg.costs,
                cfg.prepost_depth,
            );
            let proc = cluster.add_app(rn, cfg.replica_kind, Box::new(app));
            // The notification itself is cheap; per-op parse cost is charged
            // by the handler (it applies even when completions batch).
            cluster.bind_cq(proc, rn, recv_cqs[i], SimDuration::from_nanos(500));
            replica_procs.push(proc);
        }

        NaiveChain {
            client: NaiveClient {
                node: client_node,
                shared_base,
                shared_size: cfg.shared_size,
                group_size: gs,
                qp_down,
                cq_ack,
                qp_ack,
                mirror_base,
                staging_base,
                cmd_slot_size,
                ack_base,
                ack_slot_size,
                window: cfg.window,
                next_gen: 0,
                completed: 0,
                pending: VecDeque::new(),
                tracer: Tracer::disabled(),
                cqe_scratch: Vec::new(),
                ack_raw: Vec::new(),
            },
            replica_procs,
        }
    }
}

impl NaiveClient {
    /// Installs a trace sink for the op lifecycle (issue → ack). The
    /// operation generation is the causal op id — it is also the `wr_id`
    /// on the command SEND, matching [`hyperloop::GroupClient`] so stage
    /// attribution folds both systems' ops the same way.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Ops in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_gen - self.completed
    }

    /// Completed ops.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True if another op fits the window.
    pub fn can_issue(&self) -> bool {
        self.in_flight() < self.window as u64
    }

    /// Base of the client's local mirror.
    pub fn mirror_base(&self) -> u64 {
        self.mirror_base
    }

    /// The client node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The CQ on which chain acks arrive.
    pub fn ack_cq(&self) -> CqId {
        self.cq_ack
    }

    /// Issues a group operation; same semantics as
    /// [`hyperloop::GroupClient::issue`] but executed by replica CPUs.
    ///
    /// # Errors
    ///
    /// [`GroupError::WindowFull`] / [`GroupError::OutOfRange`].
    pub fn issue(&mut self, ctx: &mut NicCtx<'_>, op: GroupOp) -> Result<u64, GroupError> {
        if !self.can_issue() {
            return Err(GroupError::WindowFull);
        }
        let range_ok = |off: u64, len: u64| off + len <= self.shared_size;
        let ok = match &op {
            GroupOp::Write { offset, data, .. } => range_ok(*offset, data.len() as u64),
            GroupOp::Cas { offset, .. } => range_ok(*offset, 8),
            GroupOp::Memcpy { src, dst, len, .. } => range_ok(*src, *len) && range_ok(*dst, *len),
            GroupOp::Flush { offset } => range_ok(*offset, 1),
        };
        if !ok {
            return Err(GroupError::OutOfRange);
        }
        let gen = self.next_gen;
        self.next_gen += 1;
        self.tracer
            .emit(ctx.now, self.node.0, gen, TraceKind::OpIssue);
        let slot = gen % CMD_SLOTS as u64;

        // Stage command + zeroed result map.
        let mut buf = cmd::encode(gen, &op).to_vec();
        buf.resize((CMD_SIZE + self.group_size as u64 * 8) as usize, 0);
        let staging = self.staging_base + slot * self.cmd_slot_size;
        ctx.mem(self.node)
            .write_durable(staging, &buf)
            .expect("staging in bounds");

        match &op {
            GroupOp::Write { offset, data, .. } => {
                ctx.mem(self.node)
                    .write_durable(self.mirror_base + offset, data)
                    .expect("mirror in bounds");
                // Quiet post: the command SEND below rings the doorbell
                // for the pair.
                ctx.post_send_quiet(
                    self.node,
                    self.qp_down,
                    Wqe {
                        opcode: Opcode::Write,
                        flags: wqe_flags::HW_OWNED,
                        local_addr: self.mirror_base + offset,
                        len: data.len() as u64,
                        remote_addr: self.shared_base + offset,
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
            }
            GroupOp::Memcpy { src, dst, len, .. } => {
                let bytes = Payload::try_with(*len as usize, |buf| {
                    ctx.mem(self.node).read(self.mirror_base + src, buf)
                })
                .expect("mirror in bounds");
                ctx.mem(self.node)
                    .write_durable(self.mirror_base + dst, &bytes)
                    .expect("mirror in bounds");
            }
            _ => {}
        }

        ctx.post_send(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED,
                local_addr: staging,
                len: CMD_SIZE + self.group_size as u64 * 8,
                wr_id: gen,
                ..Wqe::default()
            },
        );
        self.pending.push_back(gen);
        Ok(gen)
    }

    /// Collects completed operations.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<GroupAck> {
        let mut acks = Vec::new();
        self.poll_into(ctx, &mut acks);
        acks
    }

    /// Collects completed operations into a caller-provided buffer,
    /// returning how many were appended; reuses internal scratch so the
    /// steady-state poll loop does not allocate.
    pub fn poll_into(&mut self, ctx: &mut NicCtx<'_>, acks: &mut Vec<GroupAck>) -> usize {
        let mut cqes = std::mem::take(&mut self.cqe_scratch);
        cqes.clear();
        ctx.poll_cq_into(self.node, self.cq_ack, 64, &mut cqes);
        let appended = cqes.len();
        for cqe in cqes.drain(..) {
            assert_eq!(cqe.status, rnicsim::CqeStatus::Success, "{cqe:?}");
            let gen = cqe.imm.expect("ack imm");
            debug_assert_eq!(self.pending.pop_front(), Some(gen));
            let slot = self.ack_base + (gen % CMD_SLOTS as u64) * self.ack_slot_size;
            self.ack_raw.clear();
            self.ack_raw.resize(self.group_size as usize * 8, 0);
            ctx.mem(self.node)
                .read(slot, &mut self.ack_raw)
                .expect("ack slot in bounds");
            let result_map = self
                .ack_raw
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
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

    /// Per-op wall-clock bookkeeping hook: the per-op cost model parameter
    /// used when issuing (`post` twice + mirror write) is charged by the
    /// caller's process, not here; see the figure harnesses.
    pub fn window(&self) -> u32 {
        self.window
    }
}

impl hyperloop::GroupTransport for NaiveClient {
    fn group_size(&self) -> u32 {
        self.group_size
    }

    fn node(&self) -> NodeId {
        NaiveClient::node(self)
    }

    fn ack_cq(&self) -> CqId {
        NaiveClient::ack_cq(self)
    }

    fn shared_size(&self) -> u64 {
        self.shared_size
    }

    fn in_flight(&self) -> u64 {
        NaiveClient::in_flight(self)
    }

    fn window(&self) -> u32 {
        NaiveClient::window(self)
    }

    fn issue(&mut self, ctx: &mut NicCtx<'_>, op: GroupOp) -> Result<u64, GroupError> {
        NaiveClient::issue(self, ctx, op)
    }

    fn poll_into(&mut self, ctx: &mut NicCtx<'_>, acks: &mut Vec<GroupAck>) -> usize {
        NaiveClient::poll_into(self, ctx, acks)
    }
}
