//! Identifiers, timing constants, configuration and process kinds for the
//! CPU model.

use simcore::SimDuration;
use std::fmt;

/// Identifies a process (one tenant replica, client thread, or background
/// job) on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u32);

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

/// Identifies a physical core on one server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub u32);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Opaque handle the embedder uses to recognize a finished unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u64);

/// How a process obtains CPU time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcKind {
    /// Sleeps when it has no work; woken by an interrupt/eventfd when a task
    /// arrives (paying [`WAKE_LATENCY`]).
    EventDriven,
    /// Spins on its completion queue: always runnable, burns whole time
    /// slices even when idle, but picks newly arrived work up within
    /// [`INTRA_SLICE_PICKUP`] when it holds the CPU.
    Polling,
    /// A background tenant: alternates exponentially distributed busy bursts
    /// (infinite work) and idle periods. Generates the multi-tenant
    /// contention of the paper's testbed.
    Hog,
}

/// Parameters of the bursty background ("hog") processes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HogProfile {
    /// Mean length of a busy burst.
    pub busy_mean: SimDuration,
    /// Mean length of an idle gap.
    pub idle_mean: SimDuration,
}

impl Default for HogProfile {
    fn default() -> Self {
        // ~25% duty cycle: bursty enough to pile up run queues occasionally
        // (tail) without saturating the machine permanently (average).
        HogProfile {
            busy_mean: SimDuration::from_millis(5),
            idle_mean: SimDuration::from_millis(15),
        }
    }
}

/// Cost of switching a core to a different process (register, TLB and
/// cache state; the paper's Figure 2 blames exactly this).
pub const CONTEXT_SWITCH_COST: SimDuration = SimDuration::from_micros(3);

/// Interrupt and scheduler latency from a task's arrival to its blocked
/// process becoming runnable.
pub const WAKE_LATENCY: SimDuration = SimDuration::from_micros(5);

/// How quickly a *running* process notices newly arrived work (one
/// poll-loop iteration or epoll check).
pub const INTRA_SLICE_PICKUP: SimDuration = SimDuration::from_micros(1);

/// Scheduler parameters (Linux-CFS-flavoured defaults).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedConfig {
    /// Round-robin time slice. The one scheduler parameter that differs by
    /// cluster: CFS's effective slice grows with the runnable load.
    pub time_slice: SimDuration,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            time_slice: SimDuration::from_millis(1),
        }
    }
}

/// Internal self-events of the scheduler; the embedder schedules these on
/// its global queue and routes them back into
/// [`CpuScheduler::handle`](crate::CpuScheduler::handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEvent {
    /// A blocked process finishes waking.
    Wake {
        /// The process that was being woken.
        proc: ProcId,
    },
    /// The slice identified by `(core, seq, gen)` reaches its scheduled end.
    SliceEnd {
        /// Core whose slice ends.
        core: CoreId,
        /// Slice identity (stale events are ignored).
        seq: u64,
        /// End-reschedule generation (extensions invalidate older ends).
        generation: u32,
    },
    /// A hog process flips between busy and idle.
    HogToggle {
        /// The hog process.
        proc: ProcId,
    },
}

/// Effects the scheduler hands back to the embedder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuEffect {
    /// Schedule this internal event after the attached delay.
    Internal(CpuEvent),
    /// A submitted task has finished executing on a core.
    TaskDone {
        /// The owning process.
        proc: ProcId,
        /// The task handle given at submission.
        task: TaskId,
    },
}

/// Cumulative scheduler statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of process switches on any core.
    pub context_switches: u64,
    /// Number of wake-ups of blocked processes.
    pub wakeups: u64,
    /// Number of tasks completed.
    pub tasks_completed: u64,
    /// Total core-occupancy time (includes poll-idle burn).
    pub busy: SimDuration,
    /// Total time spent executing submitted tasks.
    pub useful: SimDuration,
}

impl SchedStats {
    /// Snapshots every counter into `reg` under a dotted `prefix`. Durations
    /// are exported as nanosecond counters.
    pub fn export_into(&self, reg: &mut simcore::MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.context_switches"), self.context_switches);
        reg.counter_set(&format!("{prefix}.wakeups"), self.wakeups);
        reg.counter_set(&format!("{prefix}.tasks_completed"), self.tasks_completed);
        reg.counter_set(&format!("{prefix}.busy_ns"), self.busy.as_nanos());
        reg.counter_set(&format!("{prefix}.useful_ns"), self.useful.as_nanos());
    }
}
