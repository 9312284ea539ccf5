//! Testbed adapters: the replica-side maintenance process.
//!
//! The only software HyperLoop runs on a replica after setup is the
//! off-critical-path loop that re-posts consumed descriptors (RECV + WAIT +
//! indirect WQE chains). [`Maintainer`] packages that loop as a
//! [`HostApp`]: it wakes on the replica's upstream receive CQ, pays a small
//! CPU cost (visible in the experiments as the "close to 0%" replica CPU
//! the paper reports), and replenishes one generation per completed one.

use crate::group::ReplicaHandle;
use cpusched::ProcKind;
use rnicsim::Cqe;
use simcore::SimDuration;
use testbed::{Cluster, Env, HostApp, HostEvent, ProcRef};

/// The replica maintenance process: replaces consumed descriptor chains.
pub struct Maintainer {
    handle: ReplicaHandle,
    /// Reused completion buffer, so a wake-up allocates nothing once it
    /// has reached its high-water capacity.
    cqes: Vec<Cqe>,
    /// Generations replenished so far (diagnostics).
    pub replenished: u64,
}

impl Maintainer {
    /// Wraps a replica handle.
    pub fn new(handle: ReplicaHandle) -> Self {
        Maintainer {
            handle,
            cqes: Vec::new(),
            replenished: 0,
        }
    }
}

impl HostApp for Maintainer {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        if let HostEvent::CqReady(cq) = event {
            debug_assert_eq!(cq, self.handle.recv_cq());
            let node = self.handle.node();
            self.cqes.clear();
            let consumed = env.poll_cq_into(node, cq, 4096, &mut self.cqes) as u32;
            if consumed > 0 {
                self.replenished += consumed as u64;
                env.with_fabric(|ctx| {
                    self.handle.replenish(ctx, consumed);
                });
            }
        }
    }
}

/// Registers a [`Maintainer`] process for every replica and binds it to the
/// replica's upstream receive CQ. `per_op_cost` is the CPU charged per
/// wake-up (descriptor re-posting is a few hundred nanoseconds of driver
/// work).
pub fn install_group_maintenance(
    cluster: &mut Cluster,
    replicas: Vec<ReplicaHandle>,
    per_op_cost: SimDuration,
) -> Vec<ProcRef> {
    replicas
        .into_iter()
        .map(|handle| {
            let node = handle.node();
            let cq = handle.recv_cq();
            let proc = cluster.add_app(
                node,
                ProcKind::EventDriven,
                Box::new(Maintainer::new(handle)),
            );
            cluster.bind_cq(proc, node, cq, per_op_cost);
            proc
        })
        .collect()
}
