//! The [`Cluster`]: an RDMA fabric plus one multi-tenant CPU scheduler per
//! node, with host applications attached to completion queues.
//!
//! The flow that the whole reproduction hinges on:
//!
//! 1. a CQE lands on a bound completion queue;
//! 2. the NIC raises a host notification;
//! 3. the owning *process* must get CPU — through the node's scheduler, with
//!    wake latency, run-queue waits and context switches;
//! 4. only then does the application handler run and post follow-up verbs.
//!
//! HyperLoop's entire point is that steps 2–4 disappear on replicas: the
//! pre-posted WAIT chains react inside the NIC. Both paths run on this same
//! cluster, so the comparison is apples-to-apples.

use crate::env::{Env, Spawn, StagedAction};
use crate::types::{ClusterConfig, ClusterEvent, HostApp, HostEvent, ProcRef, TaskKind};
use cpusched::{CpuEffect, CpuScheduler, HogProfile, ProcKind, TaskId};
use netsim::NodeId;
use rnicsim::{CqId, NicCtx, NicEffect, RdmaFabric};
use simcore::{
    simtrace::NO_OP, EventQueue, MetricsRegistry, Model, Outbox, SimDuration, SimRng, SimTime,
    Simulation, Tracer,
};
use std::any::Any;
use std::collections::HashMap;

/// CPU cost charged when an application timer callback runs.
pub const TIMER_HANDLER_COST: SimDuration = SimDuration::from_micros(1);

struct ProcEntry {
    node: NodeId,
    cpu_proc: cpusched::ProcId,
}

/// A multi-node testbed: NICs, memories, network, CPUs and applications.
pub struct Cluster {
    /// The RDMA fabric (NICs, host memories, network). Public so that
    /// experiment drivers and tests can reach the verbs API directly.
    pub fab: RdmaFabric,
    scheds: Vec<CpuScheduler>,
    procs: Vec<ProcEntry>,
    apps: Vec<Option<Box<dyn HostApp>>>,
    cq_bindings: HashMap<(NodeId, CqId), (ProcRef, SimDuration)>,
    tasks: HashMap<u64, (ProcRef, TaskKind)>,
    next_task: u64,
    /// Scheduler effects emitted during setup, before the event queue exists;
    /// drained by the `Start` event.
    pending_boot: Vec<(NodeId, Vec<(SimDuration, CpuEffect)>)>,
    /// Fabric effects emitted during setup (e.g. HyperLoop group wiring);
    /// drained by the `Start` event.
    pending_nic_boot: Vec<(SimDuration, NicEffect)>,
    /// Reused effect buffers — one set of allocations for the whole run
    /// instead of a fresh outbox/vector per simulation event. Taken with
    /// `mem::take` around each use, so accidental re-entrancy degrades to
    /// a fresh allocation instead of corruption.
    nic_scratch: Outbox<NicEffect>,
    cpu_scratch: Outbox<CpuEffect>,
    staged_scratch: Vec<StagedAction>,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.fab.node_count())
            .field("procs", &self.procs.len())
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster of `nodes` machines with `cores` cores and
    /// `mem_capacity` bytes of NVM each.
    pub fn new(nodes: u32, cores: u32, mem_capacity: u64, config: ClusterConfig) -> Self {
        let mut seed_rng = SimRng::new(config.seed);
        Cluster {
            fab: RdmaFabric::new(nodes, mem_capacity, seed_rng.next_u64()),
            scheds: (0..nodes)
                .map(|i| CpuScheduler::new(cores, config.sched, seed_rng.fork(i as u64)))
                .collect(),
            procs: Vec::new(),
            apps: Vec::new(),
            cq_bindings: HashMap::new(),
            tasks: HashMap::new(),
            next_task: 0,
            pending_boot: Vec::new(),
            pending_nic_boot: Vec::new(),
            nic_scratch: Outbox::new(),
            cpu_scratch: Outbox::new(),
            staged_scratch: Vec::new(),
        }
    }

    /// Builder-style constructor with default configuration.
    pub fn with_defaults(nodes: u32, cores: u32) -> Self {
        Cluster::new(nodes, cores, 1 << 26, ClusterConfig::default())
    }

    /// Wraps the cluster into a runnable simulation; application `on_start`
    /// hooks fire at time zero.
    pub fn into_sim(self) -> Simulation<Cluster> {
        let mut sim = Simulation::new(self);
        sim.queue.push(SimTime::ZERO, ClusterEvent::Start);
        sim
    }

    /// Installs a trace sink on every layer of the cluster: the RDMA fabric
    /// (and its network) plus each node's CPU scheduler. Group clients must
    /// be wired separately (`GroupClient::set_tracer`) since they live in
    /// application code.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fab.set_tracer(tracer.clone());
        for (i, sched) in self.scheds.iter_mut().enumerate() {
            sched.set_tracer(tracer.clone(), i as u32);
        }
    }

    /// Snapshots fabric, NVM, network and per-node scheduler statistics into
    /// a [`MetricsRegistry`] under `prefix`.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.fab.export_into(reg, &format!("{prefix}.fabric"));
        for (i, sched) in self.scheds.iter().enumerate() {
            sched
                .stats()
                .export_into(reg, &format!("{prefix}.sched.node{i}"));
            // Point-in-time runqueue depth, for counter-track sampling.
            reg.set_gauge(
                &format!("{prefix}.sched.node{i}.runqueue"),
                sched.runqueue_len() as f64,
            );
        }
    }

    /// The CPU scheduler of one node (for statistics).
    pub fn sched(&self, node: NodeId) -> &CpuScheduler {
        &self.scheds[node.0 as usize]
    }

    /// Runs fabric setup code (e.g. `HyperLoopGroup::setup`) before the
    /// simulation starts, handing it a time-zero [`NicCtx`]; any effects it
    /// posts are delivered at time zero.
    pub fn setup_fabric<R>(&mut self, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
        let mut out = Outbox::new();
        let mut ctx = NicCtx::new(&mut self.fab, SimTime::ZERO, &mut out);
        let r = f(&mut ctx);
        self.pending_nic_boot.extend(out.drain());
        r
    }

    /// Registers an application process on `node`. The handler's `on_start`
    /// runs at time zero (or immediately if the simulation already started).
    pub fn add_app(&mut self, node: NodeId, kind: ProcKind, app: Box<dyn HostApp>) -> ProcRef {
        // Spawning may emit scheduler effects (polling processes dispatch
        // immediately); collect them into a scratch outbox handled lazily —
        // at time zero nothing is racing.
        let mut scratch = Outbox::new();
        let pr = self.register(node, kind, app, SimTime::ZERO, &mut scratch);
        self.pending_boot.push((node, scratch.into_vec()));
        pr
    }

    /// Spawns `app`'s process on `node`'s scheduler at `now`, into `out`.
    fn register(
        &mut self,
        node: NodeId,
        kind: ProcKind,
        app: Box<dyn HostApp>,
        now: SimTime,
        out: &mut Outbox<CpuEffect>,
    ) -> ProcRef {
        let cpu_proc = self.scheds[node.0 as usize].spawn(kind, now, out);
        let pr = ProcRef(self.procs.len() as u32);
        self.procs.push(ProcEntry { node, cpu_proc });
        self.apps.push(Some(app));
        pr
    }

    /// Adds `count` bursty background tenant processes to `node`.
    pub fn add_background_load(&mut self, node: NodeId, count: u32, profile: HogProfile) {
        let mut scratch = Outbox::new();
        for _ in 0..count {
            self.scheds[node.0 as usize].spawn_hog(profile, SimTime::ZERO, &mut scratch);
        }
        self.pending_boot.push((node, scratch.into_vec()));
    }

    /// Routes CQEs of `(node, cq)` to `proc`: each notification costs
    /// `handler_cost` of CPU before the handler runs. Arms the CQ.
    pub fn bind_cq(&mut self, proc: ProcRef, node: NodeId, cq: CqId, handler_cost: SimDuration) {
        assert_eq!(
            self.procs[proc.0 as usize].node, node,
            "process and CQ live on different nodes"
        );
        self.cq_bindings.insert((node, cq), (proc, handler_cost));
        self.fab.arm_cq(node, cq);
    }

    /// CPU accounting of a registered process: `(occupancy, useful)` time.
    /// Occupancy is what `top` would show (context switches and poll-spin
    /// included); useful is time executing submitted work.
    pub fn proc_cpu(&self, proc: ProcRef) -> (SimDuration, SimDuration) {
        let entry = &self.procs[proc.0 as usize];
        let sched = &self.scheds[entry.node.0 as usize];
        (
            sched.proc_busy(entry.cpu_proc),
            sched.proc_useful(entry.cpu_proc),
        )
    }

    /// Downcasts a registered application to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the type does not match or the app is mid-callback.
    pub fn app_mut<T: HostApp>(&mut self, proc: ProcRef) -> &mut T {
        let app = self.apps[proc.0 as usize]
            .as_mut()
            .expect("app is mid-callback");
        let any: &mut dyn Any = app.as_mut();
        any.downcast_mut::<T>().expect("app type mismatch")
    }

    // ---- event routing ----------------------------------------------------

    fn route_nic(
        &mut self,
        now: SimTime,
        out: &mut Outbox<NicEffect>,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        // Newest effect first. The queue orders same-instant events by push
        // order, so the simulated timeline depends on this direction.
        for (delay, eff) in out.drain().rev() {
            match eff {
                NicEffect::Internal(ev) => q.push_after(delay, ClusterEvent::Nic(ev)),
                NicEffect::HostNotify { node, cq } => {
                    if let Some(&(proc, cost)) = self.cq_bindings.get(&(node, cq)) {
                        let op = self.fab.cq_peek_op(node, cq);
                        self.submit_task(now, proc, TaskKind::CqReady(cq), cost, op, q);
                    }
                }
            }
        }
    }

    fn route_cpu(
        &mut self,
        node: NodeId,
        out: &mut Outbox<CpuEffect>,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        for (delay, eff) in out.drain() {
            match eff {
                CpuEffect::Internal(ev) => q.push_after(delay, ClusterEvent::Cpu { node, ev }),
                CpuEffect::TaskDone { task, .. } => {
                    q.push_after(delay, ClusterEvent::TaskDone { id: task.0 })
                }
            }
        }
    }

    fn submit_task(
        &mut self,
        now: SimTime,
        proc: ProcRef,
        kind: TaskKind,
        cost: SimDuration,
        op: u64,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let id = self.next_task;
        self.next_task += 1;
        self.tasks.insert(id, (proc, kind));
        let entry = &self.procs[proc.0 as usize];
        let node = entry.node;
        let cpu_proc = entry.cpu_proc;
        let mut out = std::mem::take(&mut self.cpu_scratch);
        self.scheds[node.0 as usize].submit(cpu_proc, TaskId(id), cost, op, now, &mut out);
        self.route_cpu(node, &mut out, q);
        self.cpu_scratch = out;
    }

    fn run_handler(
        &mut self,
        now: SimTime,
        proc: ProcRef,
        event: HostEvent,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let Some(mut app) = self.apps[proc.0 as usize].take() else {
            return; // re-entrant call; cannot happen with the task protocol
        };
        let mut nic_out = std::mem::take(&mut self.nic_scratch);
        let mut staged = std::mem::take(&mut self.staged_scratch);
        let mut spawned = Vec::new();
        {
            let mut env = Env::new(
                now,
                proc,
                &mut self.fab,
                &mut nic_out,
                &mut staged,
                &mut spawned,
            );
            app.on_event(&mut env, event);
        }
        self.apps[proc.0 as usize] = Some(app);
        self.route_nic(now, &mut nic_out, q);
        self.nic_scratch = nic_out;
        for action in staged.drain(..) {
            match action {
                StagedAction::Timer { delay, token } => {
                    q.push_after(delay, ClusterEvent::TimerDue { proc, token });
                }
                StagedAction::Work { cost, token } => {
                    self.submit_task(now, proc, TaskKind::Work(token), cost, NO_OP, q);
                }
                StagedAction::Bind { cq, cost } => self.bind_now(now, proc, cq, cost, q),
            }
        }
        self.staged_scratch = staged;
        for Spawn {
            node,
            kind,
            app,
            cq,
            cost,
        } in spawned
        {
            let mut out = Outbox::new();
            let pr = self.register(node, kind, app, now, &mut out);
            self.route_cpu(node, &mut out, q);
            self.bind_now(now, pr, cq, Some(cost), q);
        }
    }

    /// Binds (`Some` cost) or unbinds `cq` on `proc`'s node at run time; a
    /// fresh binding wakes `proc` at once if the CQ already holds entries.
    fn bind_now(
        &mut self,
        now: SimTime,
        proc: ProcRef,
        cq: CqId,
        cost: Option<SimDuration>,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let node = self.procs[proc.0 as usize].node;
        match cost {
            Some(cost) => {
                self.cq_bindings.insert((node, cq), (proc, cost));
                self.rearm_cq(now, proc, cq, q);
            }
            None => {
                self.cq_bindings.remove(&(node, cq));
            }
        }
    }

    /// Post-handler protocol for CQ bindings: re-arm, and if completions
    /// raced in while the handler ran, schedule another round.
    fn rearm_cq(
        &mut self,
        now: SimTime,
        proc: ProcRef,
        cq: CqId,
        q: &mut EventQueue<ClusterEvent>,
    ) {
        let node = self.procs[proc.0 as usize].node;
        self.fab.arm_cq(node, cq);
        if self.fab.cq_depth(node, cq) > 0 {
            if let Some(&(p, cost)) = self.cq_bindings.get(&(node, cq)) {
                let op = self.fab.cq_peek_op(node, cq);
                self.submit_task(now, p, TaskKind::CqReady(cq), cost, op, q);
            }
        }
    }

    // Boot effects captured before the simulation existed.
    fn drain_boot(&mut self, q: &mut EventQueue<ClusterEvent>) {
        for (node, effects) in std::mem::take(&mut self.pending_boot) {
            let mut out = Outbox::new();
            out.extend(effects);
            self.route_cpu(node, &mut out, q);
        }
        let mut out = Outbox::new();
        out.extend(std::mem::take(&mut self.pending_nic_boot));
        let now = q.now();
        self.route_nic(now, &mut out, q);
    }
}

impl Model for Cluster {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, ev: ClusterEvent, q: &mut EventQueue<ClusterEvent>) {
        match ev {
            ClusterEvent::Start => {
                self.drain_boot(q);
                for i in 0..self.apps.len() {
                    self.run_handler(now, ProcRef(i as u32), HostEvent::Start, q);
                }
            }
            ClusterEvent::Nic(nic_ev) => {
                let mut out = std::mem::take(&mut self.nic_scratch);
                self.fab.handle(now, nic_ev, &mut out);
                self.route_nic(now, &mut out, q);
                self.nic_scratch = out;
            }
            ClusterEvent::Cpu { node, ev } => {
                let mut out = std::mem::take(&mut self.cpu_scratch);
                self.scheds[node.0 as usize].handle(now, ev, &mut out);
                self.route_cpu(node, &mut out, q);
                self.cpu_scratch = out;
            }
            ClusterEvent::TaskDone { id } => {
                let Some((proc, kind)) = self.tasks.remove(&id) else {
                    return;
                };
                match kind {
                    TaskKind::CqReady(cq) => {
                        self.run_handler(now, proc, HostEvent::CqReady(cq), q);
                        self.rearm_cq(now, proc, cq, q);
                    }
                    TaskKind::Timer(token) => {
                        self.run_handler(now, proc, HostEvent::Timer(token), q)
                    }
                    TaskKind::Work(token) => {
                        self.run_handler(now, proc, HostEvent::WorkDone(token), q)
                    }
                }
            }
            ClusterEvent::TimerDue { proc, token } => {
                // The timer interrupt wakes the process; the callback runs
                // once the process gets CPU.
                self.submit_task(
                    now,
                    proc,
                    TaskKind::Timer(token),
                    TIMER_HANDLER_COST,
                    NO_OP,
                    q,
                );
            }
            ClusterEvent::HostNotify { node, cq } => {
                if let Some(&(proc, cost)) = self.cq_bindings.get(&(node, cq)) {
                    let op = self.fab.cq_peek_op(node, cq);
                    self.submit_task(now, proc, TaskKind::CqReady(cq), cost, op, q);
                }
            }
        }
    }
}

/// Runs external-driver code against a cluster simulation's fabric at the
/// current instant (handing it a bundled [`NicCtx`]), then routes whatever
/// it posted into the event queue. This is how benchmarks inject client
/// operations (e.g. a HyperLoop `GroupClient::issue`) into a running
/// cluster.
pub fn drive<R>(sim: &mut Simulation<Cluster>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
    let now = sim.queue.now();
    let mut out = std::mem::take(&mut sim.model.nic_scratch);
    let mut ctx = NicCtx::new(&mut sim.model.fab, now, &mut out);
    let r = f(&mut ctx);
    for (delay, eff) in out.drain() {
        match eff {
            NicEffect::Internal(ev) => sim.queue.push_after(delay, ClusterEvent::Nic(ev)),
            NicEffect::HostNotify { node, cq } => sim
                .queue
                .push_after(delay, ClusterEvent::HostNotify { node, cq }),
        }
    }
    sim.model.nic_scratch = out;
    r
}
