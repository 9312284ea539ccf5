//! A fabric-only simulation harness.
//!
//! HyperLoop's data path involves no replica CPUs, so microbenchmarks and
//! tests can run on the RDMA fabric alone. [`FabricSim`] is a
//! [`Model`] over [`NicEvent`]s that drops host notifications (callers poll
//! explicitly); [`drive`] runs host-side code against the fabric and routes
//! whatever it posted.

use rnicsim::{NicCtx, NicEffect, NicEvent, RdmaFabric};
use simcore::{EventQueue, Model, Outbox, SimTime, Simulation};

/// A simulation whose only actor is the RDMA fabric.
#[derive(Debug)]
pub struct FabricSim {
    /// The fabric under test.
    pub fab: RdmaFabric,
    /// Reused effect buffer: one allocation for the run, not one per event.
    out: Outbox<NicEffect>,
}

impl Model for FabricSim {
    type Event = NicEvent;
    fn handle(&mut self, now: SimTime, ev: NicEvent, q: &mut EventQueue<NicEvent>) {
        let mut out = std::mem::take(&mut self.out);
        self.fab.handle(now, ev, &mut out);
        route(&mut out, q);
        self.out = out;
    }
}

/// Routes fabric effects into the queue, dropping host notifications.
pub fn route(out: &mut Outbox<NicEffect>, q: &mut EventQueue<NicEvent>) {
    for (delay, eff) in out.drain() {
        if let NicEffect::Internal(ev) = eff {
            q.push_after(delay, ev);
        }
    }
}

/// Builds a fabric-only simulation.
pub fn fabric_sim(nodes: u32, mem_capacity: u64, seed: u64) -> Simulation<FabricSim> {
    Simulation::new(FabricSim {
        fab: RdmaFabric::new(nodes, mem_capacity, seed),
        out: Outbox::new(),
    })
}

/// Runs host-side code against the fabric at the current instant (handing
/// it a bundled [`NicCtx`]), then routes everything it posted into the
/// event queue.
pub fn drive<R>(sim: &mut Simulation<FabricSim>, f: impl FnOnce(&mut NicCtx<'_>) -> R) -> R {
    let now = sim.queue.now();
    let mut out = std::mem::take(&mut sim.model.out);
    let mut ctx = NicCtx::new(&mut sim.model.fab, now, &mut out);
    let r = f(&mut ctx);
    route(&mut out, &mut sim.queue);
    sim.model.out = out;
    r
}
