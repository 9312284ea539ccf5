//! Cluster-level events, configuration and the application trait.

use cpusched::{CpuEvent, SchedConfig};
use netsim::NodeId;
use rnicsim::{CqId, NicEvent};
use std::any::Any;

/// A handle to an application process registered with the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcRef(pub u32);

/// What a completed CPU task was for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// A bound completion queue has entries to poll.
    CqReady(CqId),
    /// A timer set by the application fired.
    Timer(u64),
    /// Explicitly charged CPU work finished.
    Work(u64),
}

/// Events delivered to an application handler, always *after* its process
/// was scheduled onto a core (CPU queueing already paid).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostEvent {
    /// The simulation is starting (time zero).
    Start,
    /// A bound completion queue has entries; poll it.
    CqReady(CqId),
    /// A timer set via [`Env::set_timer`](crate::Env::set_timer) fired.
    Timer(u64),
    /// Work charged via [`Env::submit_work`](crate::Env::submit_work) is done.
    WorkDone(u64),
}

/// An application process: storage server, replica backend, or workload
/// client. Handlers run with the process on-CPU; verbs posted through the
/// [`Env`](crate::Env) take effect at the current instant.
pub trait HostApp: Any {
    /// Reacts to one host event.
    fn on_event(&mut self, env: &mut crate::Env<'_>, event: HostEvent);
}

/// The global simulation event for a [`Cluster`](crate::Cluster).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterEvent {
    /// Kick-off: runs every app's `Start` handler.
    Start,
    /// An RDMA-fabric internal event.
    Nic(NicEvent),
    /// A CPU-scheduler internal event on one node.
    Cpu {
        /// The node whose scheduler the event belongs to.
        node: NodeId,
        /// The scheduler event.
        ev: CpuEvent,
    },
    /// A CPU task finished; dispatch its handler.
    TaskDone {
        /// Cluster-global task id.
        id: u64,
    },
    /// An application timer came due; wake the owning process.
    TimerDue {
        /// The owning process.
        proc: ProcRef,
        /// Token passed back to the handler.
        token: u64,
    },
    /// A host notification raised outside the model loop (by an external
    /// driver posting verbs through [`drive`](crate::cluster::drive)).
    HostNotify {
        /// Node whose CQ fired.
        node: NodeId,
        /// The CQ.
        cq: rnicsim::CqId,
    },
}

/// Cluster-wide configuration. NIC, wire and scheduler timings are
/// global constants beside their models (`rnicsim`, `netsim`,
/// `cpusched`, [`TIMER_HANDLER_COST`](crate::cluster::TIMER_HANDLER_COST)).
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// CPU scheduler parameters.
    pub sched: SchedConfig,
    /// Root seed for all deterministic randomness.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            sched: SchedConfig::default(),
            seed: 0x5EED,
        }
    }
}
