//! The RDMA fabric: every node's NIC, memory and queue state, plus the
//! network between them.
//!
//! The model executes verbs the way the silicon does:
//!
//! * Send-queue descriptors are 64-byte images living in host memory; the
//!   engine fetches them at execution time, so anything that can write host
//!   memory (including a *remote* NIC, via a registered metadata region and
//!   an `INDIRECT` descriptor) can reprogram a pre-posted operation.
//! * Ownership is a flag bit: HyperLoop's modified driver posts WQEs without
//!   it and hands them to the NIC later ([`RdmaFabric::grant_next`]) or lets
//!   a triggered `WAIT` do it.
//! * Incoming payloads land in the NVM's volatile layer tagged as NIC-dirty;
//!   only an incoming READ (the paper's `gFLUSH`) pushes them to durability.

use crate::payload::{self, Payload};
use crate::types::{
    wqe_flags, CqId, Cqe, CqeStatus, FabricStats, Message, MrId, NicConfig, NicEffect, NicEvent,
    Opcode, QpId, RecvWqe, SrqId, Wqe, SQ_SLOTS, WQE_SIZE,
};
use netsim::{FabricConfig, Network, NodeId};
use nvmsim::NvmDevice;
use simcore::simtrace::{TraceKind, NO_OP};
use simcore::{MetricsRegistry, Outbox, SimDuration, SimRng, SimTime, Tracer};
use std::collections::VecDeque;

#[derive(Debug)]
struct PendingCompletion {
    wr_id: u64,
    opcode: Opcode,
    signaled: bool,
    is_read_or_atomic: bool,
    /// Where a ReadResp/CasResp payload lands in local memory.
    resp_dst: u64,
}

/// A QP's requests awaiting their ack or response, by sequence number.
///
/// Sequence numbers are issued in order, so slot `seq - base` holds
/// request `seq` until it completes. Completions may arrive in any order;
/// settled slots are dropped from the front, so a request that waits long
/// (a SEND stashed for want of a RECV) keeps one slot per later request
/// until it completes. A stale or duplicate sequence number finds no
/// slot.
#[derive(Debug, Default)]
struct PendingAcks {
    base: u64,
    slots: VecDeque<Option<PendingCompletion>>,
}

impl PendingAcks {
    /// Records a new request and returns its sequence number.
    fn push(&mut self, p: PendingCompletion) -> u64 {
        self.slots.push_back(Some(p));
        self.base + self.slots.len() as u64 - 1
    }

    fn slot(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq.checked_sub(self.base)?).ok()
    }

    fn get(&self, seq: u64) -> Option<&PendingCompletion> {
        self.slots.get(self.slot(seq)?)?.as_ref()
    }

    fn remove(&mut self, seq: u64) -> Option<PendingCompletion> {
        let i = self.slot(seq)?;
        let p = self.slots.get_mut(i)?.take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        Some(p)
    }
}

#[derive(Debug)]
struct QueuePair {
    peer: Option<(NodeId, QpId)>,
    /// When set, receives come from this shared pool instead of `recvs`.
    srq: Option<SrqId>,
    sq_base: u64,
    /// Monotone counter of the next slot to execute.
    sq_head: u64,
    /// Monotone counter of the next slot to post into.
    sq_tail: u64,
    send_cq: CqId,
    recv_cq: CqId,
    recvs: VecDeque<RecvWqe>,
    /// Two-sided messages that arrived before a RECV was available.
    pending_rx: VecDeque<Message>,
    inflight: u32,
    outstanding_reads: u32,
    pending_acks: PendingAcks,
    engine_scheduled: bool,
    parked_on_cq: Option<CqId>,
}

#[derive(Debug, Default)]
struct Cq {
    entries: VecDeque<Cqe>,
    /// Completions not yet consumed by a WAIT.
    sem: u64,
    armed: bool,
    waiters: Vec<QpId>,
    /// True for CQs consumed exclusively by in-NIC WAIT counters: the
    /// completion bumps `sem` (and traces) but no host-pollable entry is
    /// retained, mirroring a hardware CQ ring whose entries are overwritten
    /// once the counter has seen them. Without this, a chain's loopback CQ
    /// grows by one entry per operation forever.
    wait_only: bool,
}

#[derive(Debug)]
struct NodeState {
    mem: NvmDevice,
    alloc_cursor: u64,
    mrs: Vec<(u64, u64)>,
    qps: Vec<QueuePair>,
    cqs: Vec<Cq>,
    srqs: Vec<VecDeque<RecvWqe>>,
    /// Ranges written through the NIC since the last flush.
    nic_dirty: Vec<(u64, u64)>,
}

/// The whole RDMA-connected cluster: NICs, host memories, network.
///
/// Drive it by calling the verbs API (`post_send`, `post_recv`, …) from host
/// code and routing every [`NicEffect::Internal`] effect back into
/// [`RdmaFabric::handle`] after its delay.
#[derive(Debug)]
pub struct RdmaFabric {
    config: NicConfig,
    net: Network,
    rng: SimRng,
    nodes: Vec<NodeState>,
    stats: FabricStats,
    tracer: Tracer,
}

impl RdmaFabric {
    /// Builds a fabric of `node_count` machines, each with `mem_capacity`
    /// bytes of NVM.
    ///
    /// # Panics
    ///
    /// Panics if `node_count == 0`.
    pub fn new(
        node_count: u32,
        mem_capacity: u64,
        config: NicConfig,
        fabric: FabricConfig,
        seed: u64,
    ) -> Self {
        RdmaFabric {
            config,
            net: Network::new(node_count, fabric),
            rng: SimRng::new(seed),
            nodes: (0..node_count)
                .map(|_| NodeState {
                    mem: NvmDevice::new(mem_capacity),
                    alloc_cursor: 0,
                    mrs: Vec::new(),
                    qps: Vec::new(),
                    cqs: Vec::new(),
                    srqs: Vec::new(),
                    nic_dirty: Vec::new(),
                })
                .collect(),
            stats: FabricStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a trace sink on the fabric and its network. NIC data-path
    /// events (WQE fetch/execute, WAIT release, DMA, gFLUSH, cache
    /// fill/evict, CQE delivery) carry the WQE `wr_id` as their causal op id.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.net.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Snapshots fabric and per-link statistics into `reg` under `prefix`.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.stats.export_into(reg, prefix);
        self.net.export_into(reg, &format!("{prefix}.net"));
        for (i, n) in self.nodes.iter().enumerate() {
            n.mem
                .stats()
                .export_into(reg, &format!("{prefix}.nvm.node{i}"));
            // Bytes sitting in the NIC volatile cache awaiting a gFLUSH —
            // a point-in-time depth for counter-track sampling.
            let dirty: u64 = n.nic_dirty.iter().map(|&(_, len)| len).sum();
            reg.set_gauge(
                &format!("{prefix}.nvm.node{i}.nic_dirty_bytes"),
                dirty as f64,
            );
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.nodes.len() as u32
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Direct access to a node's memory device (host/CPU view).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn mem(&mut self, node: NodeId) -> &mut NvmDevice {
        &mut self.nodes[node.0 as usize].mem
    }

    /// Snapshot of one node's NVM statistics (immutable; for exporters that
    /// group nodes by replication chain rather than fabric-wide).
    pub fn nvm_stats(&self, node: NodeId) -> nvmsim::NvmStats {
        self.nodes[node.0 as usize].mem.stats()
    }

    /// Current allocation cursor of a node (next free offset).
    pub fn alloc_cursor(&self, node: NodeId) -> u64 {
        self.nodes[node.0 as usize].alloc_cursor
    }

    /// Advances a node's allocation cursor to at least `offset` — used to
    /// align a fresh node's layout with peers before a symmetric setup
    /// (e.g. a standby joining an existing replication group).
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the device capacity.
    pub fn align_allocator(&mut self, node: NodeId, offset: u64) {
        let n = &mut self.nodes[node.0 as usize];
        assert!(offset <= n.mem.capacity(), "cursor beyond device");
        n.alloc_cursor = n.alloc_cursor.max(offset);
    }

    /// Bump-allocates `len` bytes (64-byte aligned) of a node's memory.
    ///
    /// # Panics
    ///
    /// Panics if the device is exhausted.
    pub fn alloc(&mut self, node: NodeId, len: u64) -> u64 {
        let n = &mut self.nodes[node.0 as usize];
        let offset = (n.alloc_cursor + 63) & !63;
        assert!(
            offset + len <= n.mem.capacity(),
            "node {node} out of memory: want {len} at {offset}, capacity {}",
            n.mem.capacity()
        );
        n.alloc_cursor = offset + len;
        offset
    }

    /// Registers `[offset, offset+len)` for remote access.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the device.
    pub fn reg_mr(&mut self, node: NodeId, offset: u64, len: u64) -> MrId {
        let n = &mut self.nodes[node.0 as usize];
        assert!(offset + len <= n.mem.capacity(), "MR outside device");
        n.mrs.push((offset, len));
        MrId(n.mrs.len() as u32 - 1)
    }

    /// Creates a completion queue.
    pub fn create_cq(&mut self, node: NodeId) -> CqId {
        let n = &mut self.nodes[node.0 as usize];
        n.cqs.push(Cq::default());
        CqId(n.cqs.len() as u32 - 1)
    }

    /// Marks a CQ as consumed exclusively by in-NIC WAIT counters: `sem`
    /// and traces behave as usual, but no host-pollable entries accumulate.
    /// Use for loopback chain CQs no host ever polls — their queues would
    /// otherwise grow by one completion per op for the lifetime of the sim.
    pub fn set_cq_wait_only(&mut self, node: NodeId, cq: CqId) {
        self.nodes[node.0 as usize].cqs[cq.0 as usize].wait_only = true;
    }

    /// Creates a shared receive queue: a pool of RECVs drained by every QP
    /// attached to it, in arrival order across the QPs — the building block
    /// the paper names for multi-client HyperLoop groups (§5).
    pub fn create_srq(&mut self, node: NodeId) -> SrqId {
        let n = &mut self.nodes[node.0 as usize];
        n.srqs.push(VecDeque::new());
        SrqId(n.srqs.len() as u32 - 1)
    }

    /// Attaches a QP's receive side to a shared receive queue. Must happen
    /// before any message arrives on the QP.
    ///
    /// # Panics
    ///
    /// Panics if the QP already holds private receives.
    pub fn attach_srq(&mut self, node: NodeId, qp: QpId, srq: SrqId) {
        let n = &mut self.nodes[node.0 as usize];
        assert!(srq.0 < n.srqs.len() as u32, "no such SRQ");
        let q = &mut n.qps[qp.0 as usize];
        assert!(q.recvs.is_empty(), "QP already has private receives");
        q.srq = Some(srq);
    }

    /// Posts a receive to a shared receive queue.
    pub fn post_srq_recv(&mut self, node: NodeId, srq: SrqId, recv: RecvWqe) {
        self.nodes[node.0 as usize].srqs[srq.0 as usize].push_back(recv);
    }

    /// Receives available on a shared receive queue.
    pub fn srq_depth(&self, node: NodeId, srq: SrqId) -> usize {
        self.nodes[node.0 as usize].srqs[srq.0 as usize].len()
    }

    /// Creates a queue pair whose send ring lives in the node's memory.
    pub fn create_qp(&mut self, node: NodeId, send_cq: CqId, recv_cq: CqId) -> QpId {
        let sq_base = self.alloc(node, SQ_SLOTS * WQE_SIZE);
        let n = &mut self.nodes[node.0 as usize];
        assert!(send_cq.0 < n.cqs.len() as u32 && recv_cq.0 < n.cqs.len() as u32);
        n.qps.push(QueuePair {
            peer: None,
            srq: None,
            sq_base,
            sq_head: 0,
            sq_tail: 0,
            send_cq,
            recv_cq,
            recvs: VecDeque::new(),
            pending_rx: VecDeque::new(),
            inflight: 0,
            outstanding_reads: 0,
            pending_acks: PendingAcks::default(),
            engine_scheduled: false,
            parked_on_cq: None,
        });
        QpId(n.qps.len() as u32 - 1)
    }

    /// Connects two queue pairs as a reliable connection (both directions).
    /// `a == b` with two different QPs forms a loopback connection used for
    /// "local RDMA" (`gMEMCPY`, local CAS).
    ///
    /// # Panics
    ///
    /// Panics if either QP is already connected.
    pub fn connect(&mut self, a: NodeId, qa: QpId, b: NodeId, qb: QpId) {
        {
            let qp = &mut self.nodes[a.0 as usize].qps[qa.0 as usize];
            assert!(qp.peer.is_none(), "{a}/{qa} already connected");
            qp.peer = Some((b, qb));
        }
        let qp = &mut self.nodes[b.0 as usize].qps[qb.0 as usize];
        assert!(
            qp.peer.is_none() || (a, qa) == (b, qb),
            "{b}/{qb} already connected"
        );
        qp.peer = Some((a, qa));
    }

    /// Address of a send-queue slot (by monotone slot counter).
    pub fn sq_slot_addr(&self, node: NodeId, qp: QpId, slot: u64) -> u64 {
        let q = &self.nodes[node.0 as usize].qps[qp.0 as usize];
        q.sq_base + (slot & (SQ_SLOTS - 1)) * WQE_SIZE
    }

    /// `(head, tail)` slot counters of a send queue.
    pub fn sq_state(&self, node: NodeId, qp: QpId) -> (u64, u64) {
        let q = &self.nodes[node.0 as usize].qps[qp.0 as usize];
        (q.sq_head, q.sq_tail)
    }

    /// Posts a send-side WQE, returning its slot counter. If the descriptor
    /// carries `HW_OWNED` the engine is kicked; otherwise it sits inert until
    /// [`RdmaFabric::grant_next`] or a WAIT enables it.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full or the QP is unconnected.
    pub fn post_send(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        wqe: Wqe,
        out: &mut Outbox<NicEffect>,
    ) -> u64 {
        let slot = self.post_send_quiet(now, node, qp, wqe);
        if wqe.is_owned() {
            self.kick(node, qp, out);
        }
        slot
    }

    /// Posts a send-side WQE *without ringing the doorbell*: the descriptor
    /// lands in the ring but the engine is not woken, even if it carries
    /// `HW_OWNED`. Callers batching several posts to one QP follow up with
    /// a single [`RdmaFabric::doorbell`] — one engine wake per batch
    /// instead of one per descriptor (doorbell coalescing).
    ///
    /// # Panics
    ///
    /// Panics if the ring is full or the QP is unconnected.
    pub fn post_send_quiet(&mut self, now: SimTime, node: NodeId, qp: QpId, wqe: Wqe) -> u64 {
        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        assert!(q.peer.is_some(), "posting on unconnected {node}/{qp}");
        assert!(
            q.sq_tail - q.sq_head < SQ_SLOTS,
            "send queue overflow on {node}/{qp}"
        );
        let slot = q.sq_tail;
        q.sq_tail += 1;
        let addr = self.sq_slot_addr(node, qp, slot);
        self.nodes[node.0 as usize]
            .mem
            .write_durable(addr, &wqe.encode())
            .expect("ring write in bounds");
        let _ = now;
        slot
    }

    /// Rings a QP's doorbell: wakes the engine if it is not already
    /// scheduled or parked. The closing half of a
    /// [`RdmaFabric::post_send_quiet`] batch.
    pub fn doorbell(&mut self, node: NodeId, qp: QpId, out: &mut Outbox<NicEffect>) {
        self.kick(node, qp, out);
    }

    /// Grants NIC ownership of the next `count` not-yet-owned WQEs (the
    /// modified-driver call HyperLoop's client uses after rewriting
    /// descriptors).
    pub fn grant_next(
        &mut self,
        _now: SimTime,
        node: NodeId,
        qp: QpId,
        count: u32,
        out: &mut Outbox<NicEffect>,
    ) {
        let (head, tail) = self.sq_state(node, qp);
        let mut granted = 0;
        for slot in head..tail {
            if granted == count {
                break;
            }
            let addr = self.sq_slot_addr(node, qp, slot);
            let mut byte = [0u8; 1];
            self.nodes[node.0 as usize]
                .mem
                .read(addr + 1, &mut byte)
                .expect("ring read in bounds");
            if byte[0] & wqe_flags::HW_OWNED == 0 {
                byte[0] |= wqe_flags::HW_OWNED;
                self.nodes[node.0 as usize]
                    .mem
                    .write_durable(addr + 1, &byte)
                    .expect("ring write in bounds");
                granted += 1;
            }
        }
        self.kick(node, qp, out);
    }

    /// Posts a receive-side WQE. If two-sided messages were stashed waiting
    /// for a buffer, the oldest is delivered immediately.
    pub fn post_recv(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        recv: RecvWqe,
        out: &mut Outbox<NicEffect>,
    ) {
        self.nodes[node.0 as usize].qps[qp.0 as usize]
            .recvs
            .push_back(recv);
        if let Some(msg) = self.nodes[node.0 as usize].qps[qp.0 as usize]
            .pending_rx
            .pop_front()
        {
            self.receive(now, node, qp, msg, out);
        }
    }

    /// Drains up to `max` host-visible completions from a CQ.
    pub fn poll_cq(&mut self, node: NodeId, cq: CqId, max: usize) -> Vec<Cqe> {
        let mut out = Vec::new();
        self.poll_cq_into(node, cq, max, &mut out);
        out
    }

    /// Drains up to `max` host-visible completions from a CQ into a
    /// caller-provided buffer (appended), returning how many were drained.
    /// The batched-completion fastpath: a polling loop reuses one buffer
    /// across every poll instead of allocating a fresh `Vec` per call.
    pub fn poll_cq_into(
        &mut self,
        node: NodeId,
        cq: CqId,
        max: usize,
        out: &mut Vec<Cqe>,
    ) -> usize {
        let c = &mut self.nodes[node.0 as usize].cqs[cq.0 as usize];
        let n = max.min(c.entries.len());
        out.extend(c.entries.drain(..n));
        n
    }

    /// Number of host-visible completions pending on a CQ.
    pub fn cq_depth(&self, node: NodeId, cq: CqId) -> usize {
        self.nodes[node.0 as usize].cqs[cq.0 as usize].entries.len()
    }

    /// The causal op id (`wr_id`) of the oldest undrained completion on a
    /// CQ, or [`NO_OP`] when the queue is empty. Lets host layers attribute
    /// the CPU work a notification triggers to the operation that raised it.
    pub fn cq_peek_op(&self, node: NodeId, cq: CqId) -> u64 {
        self.nodes[node.0 as usize].cqs[cq.0 as usize]
            .entries
            .front()
            .map_or(NO_OP, |c| c.wr_id)
    }

    /// Requests a [`NicEffect::HostNotify`] on the next completion.
    pub fn arm_cq(&mut self, node: NodeId, cq: CqId) {
        self.nodes[node.0 as usize].cqs[cq.0 as usize].armed = true;
    }

    /// Routes a previously emitted internal event back into the fabric.
    pub fn handle(&mut self, now: SimTime, event: NicEvent, out: &mut Outbox<NicEffect>) {
        match event {
            NicEvent::EngineRun { node, qp } => self.engine_run(now, node, qp, out),
            NicEvent::Deliver { node, qp, msg } => self.receive(now, node, qp, msg, out),
        }
    }

    // ---- engine ----------------------------------------------------------

    fn kick(&mut self, node: NodeId, qp: QpId, out: &mut Outbox<NicEffect>) {
        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        if !q.engine_scheduled && q.parked_on_cq.is_none() {
            q.engine_scheduled = true;
            out.emit_now(NicEffect::Internal(NicEvent::EngineRun { node, qp }));
        }
    }

    fn read_slot(&mut self, node: NodeId, qp: QpId, slot: u64) -> Option<Wqe> {
        let addr = self.sq_slot_addr(node, qp, slot);
        let mut buf = [0u8; WQE_SIZE as usize];
        self.nodes[node.0 as usize]
            .mem
            .read(addr, &mut buf)
            .expect("ring read in bounds");
        Wqe::decode(&buf)
    }

    fn engine_run(&mut self, now: SimTime, node: NodeId, qp: QpId, out: &mut Outbox<NicEffect>) {
        {
            let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
            q.engine_scheduled = false;
            if q.parked_on_cq.is_some() {
                return; // a CQE will unpark us
            }
            if q.sq_head == q.sq_tail {
                return; // empty: a post will kick
            }
        }
        let slot = self.nodes[node.0 as usize].qps[qp.0 as usize].sq_head;
        let Some(raw) = self.read_slot(node, qp, slot) else {
            // A corrupted descriptor (bad opcode byte): complete with error.
            self.advance_with_error(now, node, qp, 0, Opcode::Nop, out);
            return;
        };
        if !raw.is_owned() {
            return; // stalled: grant_next or a WAIT will kick
        }

        // Resolve indirection: fetch the effective image from host memory.
        let mut fetch_cost = self.config.wqe_fetch;
        let eff = if raw.is_indirect() {
            fetch_cost += self.config.wqe_fetch;
            let mut img = [0u8; WQE_SIZE as usize];
            if self.nodes[node.0 as usize]
                .mem
                .read(raw.local_addr, &mut img)
                .is_err()
            {
                self.advance_with_error(now, node, qp, raw.wr_id, Opcode::Nop, out);
                return;
            }
            match Wqe::decode(&img) {
                Some(w) => w,
                None => {
                    self.advance_with_error(now, node, qp, raw.wr_id, Opcode::Nop, out);
                    return;
                }
            }
        } else {
            raw
        };

        self.tracer.emit(
            now,
            node.0,
            eff.wr_id,
            TraceKind::WqeFetch {
                qp: qp.0,
                opcode: eff.opcode as u8,
            },
        );

        if eff.opcode == Opcode::Wait {
            self.execute_wait(now, node, qp, eff, out);
            return;
        }

        {
            let q = &self.nodes[node.0 as usize].qps[qp.0 as usize];
            if eff.is_fenced() && q.outstanding_reads > 0 {
                return; // a response arrival will kick
            }
            if q.inflight >= self.config.max_inflight {
                return; // an ack will kick
            }
        }

        match eff.opcode {
            Opcode::Nop => {
                let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
                q.sq_head += 1;
                self.stats.wqes_executed += 1;
                self.tracer.emit(
                    now,
                    node.0,
                    eff.wr_id,
                    TraceKind::WqeExec {
                        qp: qp.0,
                        opcode: Opcode::Nop as u8,
                        bytes: 0,
                    },
                );
                if eff.is_signaled() {
                    let cqe = Cqe {
                        qp,
                        wr_id: eff.wr_id,
                        opcode: Opcode::Nop,
                        status: CqeStatus::Success,
                        byte_len: 0,
                        imm: None,
                    };
                    let send_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].send_cq;
                    self.complete(now, node, send_cq, cqe, out);
                }
                self.reschedule(node, qp, self.config.issue_overhead, out);
            }
            Opcode::Send | Opcode::Write | Opcode::WriteImm => {
                self.issue_data_op(now, node, qp, eff, fetch_cost, out)
            }
            Opcode::Read | Opcode::CompareSwap => {
                self.issue_request(now, node, qp, eff, fetch_cost, out)
            }
            Opcode::Wait => unreachable!("handled above"),
        }
    }

    fn execute_wait(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        eff: Wqe,
        out: &mut Outbox<NicEffect>,
    ) {
        let cq_idx = eff.wait_cq as usize;
        assert!(
            cq_idx < self.nodes[node.0 as usize].cqs.len(),
            "WAIT watches nonexistent cq{cq_idx} on {node}"
        );
        let satisfied = self.nodes[node.0 as usize].cqs[cq_idx].sem >= eff.wait_count.max(1) as u64;
        if !satisfied {
            let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
            q.parked_on_cq = Some(CqId(cq_idx as u32));
            self.nodes[node.0 as usize].cqs[cq_idx].waiters.push(qp);
            return;
        }
        self.nodes[node.0 as usize].cqs[cq_idx].sem -= eff.wait_count.max(1) as u64;
        self.stats.waits_triggered += 1;
        self.stats.wqes_executed += 1;
        self.tracer
            .emit(now, node.0, eff.wr_id, TraceKind::WaitRelease { qp: qp.0 });

        // Enable the following WQEs by setting their ownership bit in memory.
        let head = self.nodes[node.0 as usize].qps[qp.0 as usize].sq_head;
        let tail = self.nodes[node.0 as usize].qps[qp.0 as usize].sq_tail;
        for i in 1..=eff.enable_count as u64 {
            let slot = head + i;
            if slot >= tail {
                break;
            }
            let addr = self.sq_slot_addr(node, qp, slot);
            let mut byte = [0u8; 1];
            self.nodes[node.0 as usize]
                .mem
                .read(addr + 1, &mut byte)
                .expect("ring read in bounds");
            byte[0] |= wqe_flags::HW_OWNED;
            self.nodes[node.0 as usize]
                .mem
                .write_durable(addr + 1, &byte)
                .expect("ring write in bounds");
        }

        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        q.sq_head += 1;
        if eff.is_signaled() {
            let cqe = Cqe {
                qp,
                wr_id: eff.wr_id,
                opcode: Opcode::Wait,
                status: CqeStatus::Success,
                byte_len: 0,
                imm: None,
            };
            let send_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].send_cq;
            self.complete(now, node, send_cq, cqe, out);
        }
        self.reschedule(node, qp, self.config.wait_process, out);
    }

    /// SEND / WRITE / WRITE_IMM: gather locally, ship to the peer.
    fn issue_data_op(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        eff: Wqe,
        fetch_cost: SimDuration,
        out: &mut Outbox<NicEffect>,
    ) {
        // Gather into a pooled buffer: the one copy the op pays. Every hop
        // downstream shares this payload by reference.
        let node_idx = node.0 as usize;
        let gathered = if eff.len == 0 {
            self.nodes[node_idx]
                .mem
                .read(eff.local_addr, &mut [])
                .map(|()| Payload::empty())
        } else {
            Payload::try_with(eff.len as usize, |buf| {
                self.nodes[node_idx].mem.read(eff.local_addr, buf)
            })
        };
        let payload = match gathered {
            Ok(p) => p,
            Err(_) => {
                self.advance_with_error(now, node, qp, eff.wr_id, eff.opcode, out);
                return;
            }
        };
        let issue_cost = fetch_cost + self.config.issue_overhead + self.config.dma(eff.len);
        let (peer_node, peer_qp) = self.nodes[node.0 as usize].qps[qp.0 as usize]
            .peer
            .expect("connected");

        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        let seq = q.pending_acks.push(PendingCompletion {
            wr_id: eff.wr_id,
            opcode: eff.opcode,
            signaled: eff.is_signaled(),
            is_read_or_atomic: false,
            resp_dst: 0,
        });
        q.inflight += 1;
        q.sq_head += 1;
        self.stats.wqes_executed += 1;
        self.tracer.emit(
            now,
            node.0,
            eff.wr_id,
            TraceKind::WqeExec {
                qp: qp.0,
                opcode: eff.opcode as u8,
                bytes: eff.len,
            },
        );
        self.tracer
            .emit(now, node.0, eff.wr_id, TraceKind::Dma { bytes: eff.len });

        let msg = match eff.opcode {
            Opcode::Send => Message::Send {
                payload,
                imm: None,
                seq,
            },
            Opcode::Write => Message::Write {
                remote_addr: eff.remote_addr,
                payload,
                imm: None,
                seq,
            },
            Opcode::WriteImm => Message::Write {
                remote_addr: eff.remote_addr,
                payload,
                imm: Some(eff.compare_or_imm),
                seq,
            },
            _ => unreachable!(),
        };
        let arrival = self.net.deliver_at_traced(
            node,
            peer_node,
            msg.wire_bytes(),
            now + issue_cost,
            &mut self.rng,
            eff.wr_id,
        );
        out.emit(
            arrival.since(now),
            NicEffect::Internal(NicEvent::Deliver {
                node: peer_node,
                qp: peer_qp,
                msg,
            }),
        );
        self.reschedule(node, qp, issue_cost, out);
    }

    /// READ / CAS: small request, response carries the data.
    fn issue_request(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        eff: Wqe,
        fetch_cost: SimDuration,
        out: &mut Outbox<NicEffect>,
    ) {
        let issue_cost = fetch_cost + self.config.issue_overhead;
        let (peer_node, peer_qp) = self.nodes[node.0 as usize].qps[qp.0 as usize]
            .peer
            .expect("connected");
        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        let seq = q.pending_acks.push(PendingCompletion {
            wr_id: eff.wr_id,
            opcode: eff.opcode,
            signaled: eff.is_signaled(),
            is_read_or_atomic: true,
            resp_dst: eff.local_addr,
        });
        q.inflight += 1;
        q.outstanding_reads += 1;
        q.sq_head += 1;
        self.stats.wqes_executed += 1;
        self.tracer.emit(
            now,
            node.0,
            eff.wr_id,
            TraceKind::WqeExec {
                qp: qp.0,
                opcode: eff.opcode as u8,
                bytes: eff.len,
            },
        );

        let msg = match eff.opcode {
            Opcode::Read => Message::ReadReq {
                remote_addr: eff.remote_addr,
                len: eff.len,
                seq,
            },
            Opcode::CompareSwap => Message::CasReq {
                remote_addr: eff.remote_addr,
                compare: eff.compare_or_imm,
                swap: eff.swap,
                seq,
            },
            _ => unreachable!(),
        };
        let arrival = self.net.deliver_at_traced(
            node,
            peer_node,
            msg.wire_bytes(),
            now + issue_cost,
            &mut self.rng,
            eff.wr_id,
        );
        out.emit(
            arrival.since(now),
            NicEffect::Internal(NicEvent::Deliver {
                node: peer_node,
                qp: peer_qp,
                msg,
            }),
        );
        self.reschedule(node, qp, issue_cost, out);
    }

    fn advance_with_error(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        wr_id: u64,
        opcode: Opcode,
        out: &mut Outbox<NicEffect>,
    ) {
        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        q.sq_head += 1;
        self.stats.errors += 1;
        let send_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].send_cq;
        let cqe = Cqe {
            qp,
            wr_id,
            opcode,
            status: CqeStatus::LocalAccessError,
            byte_len: 0,
            imm: None,
        };
        self.complete(now, node, send_cq, cqe, out);
        self.reschedule(node, qp, self.config.issue_overhead, out);
    }

    fn reschedule(
        &mut self,
        node: NodeId,
        qp: QpId,
        delay: SimDuration,
        out: &mut Outbox<NicEffect>,
    ) {
        let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
        if !q.engine_scheduled {
            q.engine_scheduled = true;
            out.emit(delay, NicEffect::Internal(NicEvent::EngineRun { node, qp }));
        }
    }

    // ---- responder side --------------------------------------------------

    /// If stashed two-sided messages can now be served, schedule the oldest
    /// for redelivery.
    fn drain_stash(&mut self, node: NodeId, qp: QpId, out: &mut Outbox<NicEffect>) {
        if !self.nodes[node.0 as usize].qps[qp.0 as usize]
            .pending_rx
            .is_empty()
            && self.recv_available(node, qp)
        {
            let msg = self.nodes[node.0 as usize].qps[qp.0 as usize]
                .pending_rx
                .pop_front()
                .expect("non-empty");
            out.emit_now(NicEffect::Internal(NicEvent::Deliver { node, qp, msg }));
        }
    }

    fn recv_available(&self, node: NodeId, qp: QpId) -> bool {
        let q = &self.nodes[node.0 as usize].qps[qp.0 as usize];
        match q.srq {
            Some(srq) => !self.nodes[node.0 as usize].srqs[srq.0 as usize].is_empty(),
            None => !q.recvs.is_empty(),
        }
    }

    fn pop_recv(&mut self, node: NodeId, qp: QpId) -> Option<RecvWqe> {
        let srq = self.nodes[node.0 as usize].qps[qp.0 as usize].srq;
        match srq {
            Some(srq) => self.nodes[node.0 as usize].srqs[srq.0 as usize].pop_front(),
            None => self.nodes[node.0 as usize].qps[qp.0 as usize]
                .recvs
                .pop_front(),
        }
    }

    fn mr_covers(&self, node: NodeId, addr: u64, len: u64) -> bool {
        let span = len.max(1);
        self.nodes[node.0 as usize]
            .mrs
            .iter()
            .any(|&(o, l)| addr >= o && addr + span <= o + l)
    }

    /// Looks up the causal op id (the WQE `wr_id`) a responder-side action
    /// belongs to, via the requester's still-pending completion for `seq`.
    fn requester_op(&self, requester: NodeId, qp: QpId, seq: u64) -> u64 {
        self.nodes[requester.0 as usize].qps[qp.0 as usize]
            .pending_acks
            .get(seq)
            .map_or(NO_OP, |p| p.wr_id)
    }

    fn nic_write(&mut self, now: SimTime, node: NodeId, op: u64, addr: u64, data: &[u8]) {
        self.nodes[node.0 as usize]
            .mem
            .write(addr, data)
            .expect("bounds pre-checked");
        if !data.is_empty() {
            self.nodes[node.0 as usize]
                .nic_dirty
                .push((addr, data.len() as u64));
            self.tracer.emit(
                now,
                node.0,
                op,
                TraceKind::CacheFill {
                    bytes: data.len() as u64,
                },
            );
        }
    }

    fn receive(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        msg: Message,
        out: &mut Outbox<NicEffect>,
    ) {
        // Per-QP FIFO with receiver-not-ready stashing: if older two-sided
        // messages are parked waiting for receives, the newcomer queues
        // behind them and the oldest is (re)tried first.
        let msg = {
            let two_sided = matches!(
                &msg,
                Message::Send { .. } | Message::Write { imm: Some(_), .. }
            );
            let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
            if two_sided && !q.pending_rx.is_empty() {
                q.pending_rx.push_back(msg);
                q.pending_rx.pop_front().expect("non-empty")
            } else {
                msg
            }
        };
        let (peer_node, peer_qp) = self.nodes[node.0 as usize].qps[qp.0 as usize]
            .peer
            .expect("connected");
        match msg {
            Message::Write {
                remote_addr,
                payload,
                imm,
                seq,
            } => {
                if imm.is_some() && !self.recv_available(node, qp) {
                    // Receiver not ready: stash until a RECV is posted.
                    self.nodes[node.0 as usize].qps[qp.0 as usize]
                        .pending_rx
                        .push_back(Message::Write {
                            remote_addr,
                            payload,
                            imm,
                            seq,
                        });
                    return;
                }
                let ok = self.mr_covers(node, remote_addr, payload.len() as u64);
                let op = self.requester_op(peer_node, peer_qp, seq);
                let cost = if ok {
                    self.nic_write(now, node, op, remote_addr, &payload);
                    if let Some(imm_val) = imm {
                        let recv = self.pop_recv(node, qp).expect("checked above");
                        let recv_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].recv_cq;
                        let cqe = Cqe {
                            qp,
                            wr_id: recv.wr_id,
                            opcode: Opcode::WriteImm,
                            status: CqeStatus::Success,
                            byte_len: payload.len() as u64,
                            imm: Some(imm_val),
                        };
                        payload::recycle_sges(recv.sges);
                        self.complete(now, node, recv_cq, cqe, out);
                    }
                    self.config.dma(payload.len() as u64)
                } else {
                    self.stats.errors += 1;
                    SimDuration::ZERO
                };
                let status = if ok {
                    CqeStatus::Success
                } else {
                    CqeStatus::RemoteAccessError
                };
                self.respond(
                    now,
                    cost,
                    node,
                    peer_node,
                    peer_qp,
                    Message::Ack { seq, status },
                    op,
                    out,
                );
            }
            Message::Send { payload, imm, seq } => {
                if !self.recv_available(node, qp) {
                    self.nodes[node.0 as usize].qps[qp.0 as usize]
                        .pending_rx
                        .push_back(Message::Send { payload, imm, seq });
                    return;
                }
                let recv = self.pop_recv(node, qp).expect("checked above");
                let capacity: u64 = recv.sges.iter().map(|&(_, l)| l as u64).sum();
                let ok = capacity >= payload.len() as u64;
                let op = self.requester_op(peer_node, peer_qp, seq);
                let status = if ok {
                    // Scatter straight out of the shared payload — no
                    // intermediate chunk copies.
                    let mut off = 0usize;
                    for &(addr, len) in &recv.sges {
                        if off >= payload.len() {
                            break;
                        }
                        let take = (payload.len() - off).min(len as usize);
                        self.nic_write(now, node, op, addr, &payload[off..off + take]);
                        off += take;
                    }
                    CqeStatus::Success
                } else {
                    self.stats.errors += 1;
                    CqeStatus::LocalAccessError
                };
                let recv_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].recv_cq;
                let cqe = Cqe {
                    qp,
                    wr_id: recv.wr_id,
                    opcode: Opcode::Send,
                    status,
                    byte_len: payload.len() as u64,
                    imm,
                };
                payload::recycle_sges(recv.sges);
                let cost = self.config.dma(payload.len() as u64);
                self.complete(now, node, recv_cq, cqe, out);
                self.respond(
                    now,
                    cost,
                    node,
                    peer_node,
                    peer_qp,
                    Message::Ack { seq, status },
                    op,
                    out,
                );
                self.drain_stash(node, qp, out);
            }
            Message::ReadReq {
                remote_addr,
                len,
                seq,
            } => {
                // A PCIe read forces write-back of everything the NIC has
                // posted: this is the durability point of gFLUSH.
                let op = self.requester_op(peer_node, peer_qp, seq);
                let mut dirty: Vec<(u64, u64)> =
                    std::mem::take(&mut self.nodes[node.0 as usize].nic_dirty);
                let flushed_any = !dirty.is_empty();
                let flushed_bytes: u64 = dirty.iter().map(|&(_, l)| l).sum();
                let flushed_ranges = dirty.len() as u32;
                for &(o, l) in &dirty {
                    self.nodes[node.0 as usize]
                        .mem
                        .flush_range(o, l)
                        .expect("dirty range in bounds");
                }
                // Hand the buffer back: gFLUSH fires once per chained op, so
                // dropping it here would mean an alloc/free pair per flush.
                dirty.clear();
                let nd = &mut self.nodes[node.0 as usize].nic_dirty;
                if nd.is_empty() {
                    *nd = dirty;
                }
                if flushed_any {
                    self.stats.nic_flushes += 1;
                    self.tracer.emit(
                        now,
                        node.0,
                        op,
                        TraceKind::GFlush {
                            bytes: flushed_bytes,
                            ranges: flushed_ranges,
                        },
                    );
                    self.tracer.emit(
                        now,
                        node.0,
                        op,
                        TraceKind::CacheEvict {
                            bytes: flushed_bytes,
                        },
                    );
                }
                let ok = self.mr_covers(node, remote_addr, len);
                let (payload, status) = if ok {
                    let data = if len > 0 {
                        Payload::try_with(len as usize, |buf| {
                            self.nodes[node.0 as usize].mem.read(remote_addr, buf)
                        })
                        .expect("MR-covered read")
                    } else {
                        Payload::empty()
                    };
                    (data, CqeStatus::Success)
                } else {
                    self.stats.errors += 1;
                    (Payload::empty(), CqeStatus::RemoteAccessError)
                };
                let cost = self.config.flush_base + self.config.dma(len);
                self.respond(
                    now,
                    cost,
                    node,
                    peer_node,
                    peer_qp,
                    Message::ReadResp {
                        seq,
                        payload,
                        status,
                    },
                    op,
                    out,
                );
            }
            Message::CasReq {
                remote_addr,
                compare,
                swap,
                seq,
            } => {
                let op = self.requester_op(peer_node, peer_qp, seq);
                let (original, status) = if remote_addr % 8 != 0 {
                    self.stats.errors += 1;
                    (0, CqeStatus::MisalignedAtomic)
                } else if !self.mr_covers(node, remote_addr, 8) {
                    self.stats.errors += 1;
                    (0, CqeStatus::RemoteAccessError)
                } else {
                    let mut cur = [0u8; 8];
                    self.nodes[node.0 as usize]
                        .mem
                        .read(remote_addr, &mut cur)
                        .expect("MR-covered read");
                    let original = u64::from_le_bytes(cur);
                    if original == compare {
                        let bytes = swap.to_le_bytes();
                        self.nic_write(now, node, op, remote_addr, &bytes);
                    }
                    (original, CqeStatus::Success)
                };
                self.respond(
                    now,
                    self.config.cas_latency,
                    node,
                    peer_node,
                    peer_qp,
                    Message::CasResp {
                        seq,
                        original,
                        status,
                    },
                    op,
                    out,
                );
            }
            Message::Ack { seq, status } => {
                self.complete_request(now, node, qp, seq, status, None, out);
            }
            Message::ReadResp {
                seq,
                payload,
                status,
            } => {
                self.complete_request(now, node, qp, seq, status, Some(&payload), out);
            }
            Message::CasResp {
                seq,
                original,
                status,
            } => {
                let bytes = original.to_le_bytes();
                self.complete_request(now, node, qp, seq, status, Some(&bytes), out);
            }
        }
    }

    /// Sends a response `cost` after `now`; the emitted delay is relative to
    /// `now` (the current handler instant).
    #[allow(clippy::too_many_arguments)] // wire-level plumbing, all distinct
    fn respond(
        &mut self,
        now: SimTime,
        cost: SimDuration,
        from: NodeId,
        to: NodeId,
        to_qp: QpId,
        msg: Message,
        op: u64,
        out: &mut Outbox<NicEffect>,
    ) {
        let arrival =
            self.net
                .deliver_at_traced(from, to, msg.wire_bytes(), now + cost, &mut self.rng, op);
        out.emit(
            arrival.since(now),
            NicEffect::Internal(NicEvent::Deliver {
                node: to,
                qp: to_qp,
                msg,
            }),
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn complete_request(
        &mut self,
        now: SimTime,
        node: NodeId,
        qp: QpId,
        seq: u64,
        status: CqeStatus,
        resp_payload: Option<&[u8]>,
        out: &mut Outbox<NicEffect>,
    ) {
        let pending = {
            let q = &mut self.nodes[node.0 as usize].qps[qp.0 as usize];
            let Some(p) = q.pending_acks.remove(seq) else {
                return; // duplicate/stale
            };
            q.inflight -= 1;
            if p.is_read_or_atomic {
                q.outstanding_reads -= 1;
            }
            p
        };
        if let Some(data) = resp_payload {
            if !data.is_empty() && status == CqeStatus::Success {
                self.nic_write(now, node, pending.wr_id, pending.resp_dst, data);
            }
        }
        if pending.signaled || status != CqeStatus::Success {
            let send_cq = self.nodes[node.0 as usize].qps[qp.0 as usize].send_cq;
            let byte_len = 0;
            let cqe = Cqe {
                qp,
                wr_id: pending.wr_id,
                opcode: pending.opcode,
                status,
                byte_len,
                imm: None,
            };
            self.complete(now, node, send_cq, cqe, out);
        }
        // Window/fence capacity freed: let the engine make progress.
        self.kick(node, qp, out);
    }

    /// Appends a CQE, bumps the WAIT semaphore, notifies the host and
    /// unparks engines waiting on this CQ.
    fn complete(
        &mut self,
        now: SimTime,
        node: NodeId,
        cq: CqId,
        cqe: Cqe,
        out: &mut Outbox<NicEffect>,
    ) {
        self.tracer.emit(
            now,
            node.0,
            cqe.wr_id,
            TraceKind::Cqe {
                cq: cq.0,
                ok: cqe.status == CqeStatus::Success,
            },
        );
        let c = &mut self.nodes[node.0 as usize].cqs[cq.0 as usize];
        if !c.wait_only {
            c.entries.push_back(cqe);
        }
        c.sem += 1;
        if c.armed {
            c.armed = false;
            out.emit_now(NicEffect::HostNotify { node, cq });
        }
        let mut waiters = std::mem::take(&mut c.waiters);
        for qp in waiters.drain(..) {
            self.nodes[node.0 as usize].qps[qp.0 as usize].parked_on_cq = None;
            self.kick(node, qp, out);
        }
        // Hand the (drained) buffer back so wake-ups stop allocating. A WQE
        // parked during the loop keeps its fresh vector instead.
        let c = &mut self.nodes[node.0 as usize].cqs[cq.0 as usize];
        if c.waiters.is_empty() {
            c.waiters = waiters;
        }
    }
}
