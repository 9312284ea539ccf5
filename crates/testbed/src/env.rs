//! The controlled view of the cluster an application handler works through.

use crate::types::{HostApp, ProcRef};
use cpusched::ProcKind;
use netsim::NodeId;
use nvmsim::NvmDevice;
use rnicsim::{CqId, Cqe, NicCtx, NicEffect, QpId, RdmaFabric, RecvWqe, Wqe};
use simcore::{Outbox, SimDuration, SimTime};

/// Actions a handler stages for the cluster to apply after it returns.
#[derive(Debug, Clone, Copy)]
pub enum StagedAction {
    /// Deliver a `Timer(token)` event after `delay` (plus CPU scheduling).
    Timer {
        /// Delay until the timer interrupt.
        delay: SimDuration,
        /// Token passed back to the handler.
        token: u64,
    },
    /// Charge `cost` of CPU to this process, then deliver `WorkDone(token)`.
    Work {
        /// CPU time to burn.
        cost: SimDuration,
        /// Token passed back to the handler.
        token: u64,
    },
    /// Route completions on `cq`, a CQ on this process's node, to this
    /// process at `cost` of CPU per wake; `None` stops routing them.
    Bind {
        /// The completion queue.
        cq: CqId,
        /// Handler cost per wake, or `None` to unbind.
        cost: Option<SimDuration>,
    },
}

/// A process a handler starts with [`Env::spawn`].
pub(crate) struct Spawn {
    pub node: NodeId,
    pub kind: ProcKind,
    pub app: Box<dyn HostApp>,
    pub cq: CqId,
    pub cost: SimDuration,
}

/// Handler-side API: verbs, memory, timers and CPU-work charging.
///
/// All verb calls take effect at the handler's instant; their latency is
/// modelled inside the fabric. CPU cost of the handler itself is charged by
/// the task that delivered the event (and by [`Env::submit_work`] for bulk
/// work such as log application).
pub struct Env<'a> {
    now: SimTime,
    me: ProcRef,
    fab: &'a mut RdmaFabric,
    nic_out: &'a mut Outbox<NicEffect>,
    staged: &'a mut Vec<StagedAction>,
    spawned: &'a mut Vec<Spawn>,
}

impl<'a> Env<'a> {
    pub(crate) fn new(
        now: SimTime,
        me: ProcRef,
        fab: &'a mut RdmaFabric,
        nic_out: &'a mut Outbox<NicEffect>,
        staged: &'a mut Vec<StagedAction>,
        spawned: &'a mut Vec<Spawn>,
    ) -> Self {
        Env {
            now,
            me,
            fab,
            nic_out,
            staged,
            spawned,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// This handler's process handle.
    pub fn me(&self) -> ProcRef {
        self.me
    }

    /// Direct fabric access for setup-style calls not covered below.
    pub fn fabric(&mut self) -> &mut RdmaFabric {
        self.fab
    }

    /// Posts a send-side WQE (see [`RdmaFabric::post_send`]).
    pub fn post_send(&mut self, node: NodeId, qp: QpId, wqe: Wqe) -> u64 {
        self.fab.post_send(self.now, node, qp, wqe, self.nic_out)
    }

    /// Posts a receive-side WQE.
    pub fn post_recv(&mut self, node: NodeId, qp: QpId, recv: RecvWqe) {
        self.fab.post_recv(self.now, node, qp, recv, self.nic_out)
    }

    /// Grants NIC ownership of the next `count` unowned WQEs.
    pub fn grant_next(&mut self, node: NodeId, qp: QpId, count: u32) {
        self.fab.grant_next(self.now, node, qp, count, self.nic_out)
    }

    /// Drains up to `max` completions from a CQ.
    pub fn poll_cq(&mut self, node: NodeId, cq: CqId, max: usize) -> Vec<Cqe> {
        self.fab.poll_cq(node, cq, max)
    }

    /// Like [`Env::poll_cq`], but appends into a caller-owned buffer and
    /// returns the count — the allocation-free completion path.
    pub fn poll_cq_into(
        &mut self,
        node: NodeId,
        cq: CqId,
        max: usize,
        out: &mut Vec<Cqe>,
    ) -> usize {
        self.fab.poll_cq_into(node, cq, max, out)
    }

    /// Host-side memory access on any node this handler legitimately owns
    /// (the model does not stop cross-node access; don't use it for data
    /// paths, only for test instrumentation).
    pub fn mem(&mut self, node: NodeId) -> &mut NvmDevice {
        self.fab.mem(node)
    }

    /// Runs `f` with a bundled [`NicCtx`] — the calling convention of
    /// library data paths (e.g. HyperLoop group clients) that post verbs on
    /// the caller's behalf.
    pub fn with_fabric<R>(&mut self, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
        let mut ctx = NicCtx::new(self.fab, self.now, self.nic_out);
        f(&mut ctx)
    }

    /// Schedules a `Timer(token)` callback after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.staged.push(StagedAction::Timer { delay, token });
    }

    /// Charges `cost` of CPU to this process; `WorkDone(token)` fires when
    /// the work has actually executed (including scheduling delays).
    pub fn submit_work(&mut self, cost: SimDuration, token: u64) {
        self.staged.push(StagedAction::Work { cost, token });
    }

    /// Wakes this process on completions of `cq`, a CQ on its own node,
    /// after `handler_cost` of CPU (`Cluster::bind_cq` at run time).
    pub fn bind_cq(&mut self, cq: CqId, handler_cost: SimDuration) {
        self.staged.push(StagedAction::Bind {
            cq,
            cost: Some(handler_cost),
        });
    }

    /// Stops waking this process on completions of `cq`; entries already
    /// queued there stay for whoever polls the CQ.
    pub fn unbind_cq(&mut self, cq: CqId) {
        self.staged.push(StagedAction::Bind { cq, cost: None });
    }

    /// Starts `app` as a new `kind` process on `node`, woken by
    /// completions on `cq` there after `handler_cost` of CPU. The process
    /// starts once this handler returns; it gets no `Start` event.
    pub fn spawn(
        &mut self,
        node: NodeId,
        kind: ProcKind,
        app: Box<dyn HostApp>,
        cq: CqId,
        handler_cost: SimDuration,
    ) {
        self.spawned.push(Spawn {
            node,
            kind,
            app,
            cq,
            cost: handler_cost,
        });
    }
}
