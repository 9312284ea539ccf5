//! The bundled NIC calling context.
//!
//! Every host-side data path in the stack (group clients, WAL drivers,
//! storage stores, benchmark harnesses) used to thread the same triple —
//! `&mut RdmaFabric`, the current [`SimTime`], and an [`Outbox`] of
//! [`NicEffect`]s — through every call. [`NicCtx`] bundles the three into
//! one reborrowable context, so a data-path call is
//! `client.issue(ctx, op)` instead of `client.issue(fab, now, out, op)`.
//!
//! The fields stay public: code that needs the raw fabric (memory probes,
//! setup-time allocation) reaches through `ctx.fab` directly.

use crate::fabric::RdmaFabric;
use crate::types::{CqId, Cqe, NicEffect, QpId, RecvWqe, Wqe};
use netsim::NodeId;
use nvmsim::NvmDevice;
use simcore::{Outbox, SimTime};

/// The `(fabric, now, outbox)` triple every verb-posting call needs.
#[derive(Debug)]
pub struct NicCtx<'a> {
    /// The RDMA fabric (NICs, host memories, network).
    pub fab: &'a mut RdmaFabric,
    /// The current simulation instant.
    pub now: SimTime,
    /// Sink for effects the fabric emits (internal events, host notifies).
    pub out: &'a mut Outbox<NicEffect>,
}

impl<'a> NicCtx<'a> {
    /// Bundles a fabric borrow, an instant and an effect sink.
    pub fn new(fab: &'a mut RdmaFabric, now: SimTime, out: &'a mut Outbox<NicEffect>) -> Self {
        NicCtx { fab, now, out }
    }

    /// Posts a send-side WQE at the context instant
    /// (see [`RdmaFabric::post_send`]).
    pub fn post_send(&mut self, node: NodeId, qp: QpId, wqe: Wqe) -> u64 {
        self.fab.post_send(self.now, node, qp, wqe, self.out)
    }

    /// Posts a send-side WQE without ringing the doorbell
    /// (see [`RdmaFabric::post_send_quiet`]). Pair with [`Self::doorbell`]
    /// to coalesce a batch of posts into one engine wake.
    pub fn post_send_quiet(&mut self, node: NodeId, qp: QpId, wqe: Wqe) -> u64 {
        self.fab.post_send_quiet(self.now, node, qp, wqe)
    }

    /// Rings the doorbell for a QP after a batch of quiet posts
    /// (see [`RdmaFabric::doorbell`]).
    pub fn doorbell(&mut self, node: NodeId, qp: QpId) {
        self.fab.doorbell(node, qp, self.out)
    }

    /// Posts a receive-side WQE (see [`RdmaFabric::post_recv`]).
    pub fn post_recv(&mut self, node: NodeId, qp: QpId, recv: RecvWqe) {
        self.fab.post_recv(self.now, node, qp, recv, self.out)
    }

    /// Grants NIC ownership of the next `count` unowned WQEs
    /// (see [`RdmaFabric::grant_next`]).
    pub fn grant_next(&mut self, node: NodeId, qp: QpId, count: u32) {
        self.fab.grant_next(self.now, node, qp, count, self.out)
    }

    /// Drains up to `max` completions from a CQ.
    pub fn poll_cq(&mut self, node: NodeId, cq: CqId, max: usize) -> Vec<Cqe> {
        self.fab.poll_cq(node, cq, max)
    }

    /// Drains up to `max` completions into a caller-provided buffer,
    /// returning how many were appended (see [`RdmaFabric::poll_cq_into`]).
    /// The allocation-free twin of [`Self::poll_cq`] for per-tick poll
    /// loops that reuse one scratch vector.
    pub fn poll_cq_into(
        &mut self,
        node: NodeId,
        cq: CqId,
        max: usize,
        out: &mut Vec<Cqe>,
    ) -> usize {
        self.fab.poll_cq_into(node, cq, max, out)
    }

    /// Host-side memory of one node.
    pub fn mem(&mut self, node: NodeId) -> &mut NvmDevice {
        self.fab.mem(node)
    }
}
