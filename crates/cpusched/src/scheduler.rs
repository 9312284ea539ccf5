//! The multi-core round-robin scheduler.
//!
//! The model is intentionally CFS-flavoured rather than CFS-exact: per-core
//! FIFO run queues, a fixed time slice, a per-switch cost, and a wake-up
//! latency. That is the minimal mechanism that produces the phenomenon the
//! HyperLoop paper builds on — *a blocked replica process waits for a CPU in
//! proportion to how many other runnable processes share the machine*, with
//! heavy-tailed waits when background tenants burst.

use crate::types::{
    CoreId, CpuEffect, CpuEvent, HogProfile, ProcId, ProcKind, SchedConfig, SchedStats, TaskId,
    CONTEXT_SWITCH_COST, INTRA_SLICE_PICKUP, WAKE_LATENCY,
};
use simcore::{Outbox, SimDuration, SimRng, SimTime, TraceKind, Tracer};
use std::collections::VecDeque;

#[derive(Debug)]
struct Task {
    id: TaskId,
    remaining: SimDuration,
    /// Causal operation this task serves (`NO_OP` when none): the `wr_id`
    /// of the completion that woke the process, threaded into
    /// dispatch/preempt trace events so scheduling delays tile into the
    /// op's latency breakdown.
    op: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    Blocked,
    Waking,
    Queued(CoreId),
    Running(CoreId),
}

#[derive(Debug)]
struct Process {
    kind: ProcKind,
    state: ProcState,
    tasks: VecDeque<Task>,
    hog_on: bool,
    hog_profile: HogProfile,
    useful: SimDuration,
    busy: SimDuration,
}

#[derive(Debug)]
struct ActiveSlice {
    proc: ProcId,
    seq: u64,
    generation: u32,
    dispatched_at: SimTime,
    /// First instant of task execution (after the context switch).
    work_start: SimTime,
    /// Absolute cap: `work_start + time_slice`.
    hard_end: SimTime,
    /// Horizon of committed task work (completion events already emitted).
    busy_until: SimTime,
    /// When the currently scheduled `SliceEnd` will fire.
    yield_at: SimTime,
}

#[derive(Debug, Default)]
struct Core {
    queue: VecDeque<ProcId>,
    running: Option<ActiveSlice>,
    last_proc: Option<ProcId>,
    busy: SimDuration,
}

/// One server's CPU complex: cores, run queues and tenant processes.
///
/// Drive it by calling [`CpuScheduler::submit`] when work arrives and
/// routing every [`CpuEffect::Internal`] effect back into
/// [`CpuScheduler::handle`] after its delay.
#[derive(Debug)]
pub struct CpuScheduler {
    config: SchedConfig,
    cores: Vec<Core>,
    procs: Vec<Process>,
    slice_seq: u64,
    stats: SchedStats,
    rng: SimRng,
    tracer: Tracer,
    trace_node: u32,
}

impl CpuScheduler {
    /// Creates a scheduler with `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0`.
    pub fn new(cores: u32, config: SchedConfig, rng: SimRng) -> Self {
        assert!(cores > 0, "server needs at least one core");
        CpuScheduler {
            config,
            cores: (0..cores).map(|_| Core::default()).collect(),
            procs: Vec::new(),
            slice_seq: 0,
            stats: SchedStats::default(),
            rng,
            tracer: Tracer::disabled(),
            trace_node: simcore::simtrace::NO_NODE,
        }
    }

    /// Installs a trace sink; dispatch/preempt events will be attributed to
    /// `node` (the server this scheduler belongs to).
    pub fn set_tracer(&mut self, tracer: Tracer, node: u32) {
        self.tracer = tracer;
        self.trace_node = node;
    }

    /// Tasks waiting on run queues right now, summed across all cores
    /// (excludes the tasks currently running). A point-in-time depth for
    /// counter-track sampling.
    pub fn runqueue_len(&self) -> usize {
        self.cores.iter().map(|c| c.queue.len()).sum()
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Resets all counters (e.g. after warm-up) without touching scheduling
    /// state.
    pub fn reset_stats(&mut self) {
        self.stats = SchedStats::default();
        for core in &mut self.cores {
            core.busy = SimDuration::ZERO;
        }
        for proc in &mut self.procs {
            proc.useful = SimDuration::ZERO;
            proc.busy = SimDuration::ZERO;
        }
    }

    /// Core-occupancy time of one core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_busy(&self, core: CoreId) -> SimDuration {
        self.cores[core.0 as usize].busy
    }

    /// Time `proc` has spent executing submitted tasks.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn proc_useful(&self, proc: ProcId) -> SimDuration {
        self.procs[proc.0 as usize].useful
    }

    /// Core-occupancy time of `proc` (includes context switches and, for
    /// polling processes, idle spinning — what `top` would attribute to it).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn proc_busy(&self, proc: ProcId) -> SimDuration {
        self.procs[proc.0 as usize].busy
    }

    /// Number of tasks queued (not yet finished) for `proc`.
    pub fn proc_backlog(&self, proc: ProcId) -> usize {
        self.procs[proc.0 as usize].tasks.len()
    }

    /// Creates an event-driven or polling process. Polling processes enter a
    /// run queue immediately and start burning their slices.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`ProcKind::Hog`]; use [`CpuScheduler::spawn_hog`].
    pub fn spawn(&mut self, kind: ProcKind, now: SimTime, out: &mut Outbox<CpuEffect>) -> ProcId {
        assert!(
            kind != ProcKind::Hog,
            "use spawn_hog for background tenants"
        );
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Process {
            kind,
            state: ProcState::Blocked,
            tasks: VecDeque::new(),
            hog_on: false,
            hog_profile: HogProfile::default(),
            useful: SimDuration::ZERO,
            busy: SimDuration::ZERO,
        });
        if kind == ProcKind::Polling {
            self.make_runnable(id, now, out);
        }
        id
    }

    /// Creates a bursty background tenant with the given duty profile. Its
    /// first busy burst begins after a random fraction of an idle period, so
    /// a fleet of hogs starts out of phase.
    pub fn spawn_hog(
        &mut self,
        profile: HogProfile,
        _now: SimTime,
        out: &mut Outbox<CpuEffect>,
    ) -> ProcId {
        let id = ProcId(self.procs.len() as u32);
        self.procs.push(Process {
            kind: ProcKind::Hog,
            state: ProcState::Blocked,
            tasks: VecDeque::new(),
            hog_on: false,
            hog_profile: profile,
            useful: SimDuration::ZERO,
            busy: SimDuration::ZERO,
        });
        let phase = SimDuration::from_secs_f64(
            self.rng.next_f64() * profile.idle_mean.as_secs_f64().max(1e-9),
        );
        out.emit(phase, CpuEffect::Internal(CpuEvent::HogToggle { proc: id }));
        id
    }

    /// Submits `cost` worth of CPU work to `proc`; a
    /// [`CpuEffect::TaskDone`] effect fires when it finishes executing.
    /// `op` is the causal operation the work serves (the waking CQE's
    /// `wr_id`), or [`simcore::simtrace::NO_OP`] for op-less work such as
    /// timers.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn submit(
        &mut self,
        proc: ProcId,
        task: TaskId,
        cost: SimDuration,
        op: u64,
        now: SimTime,
        out: &mut Outbox<CpuEffect>,
    ) {
        self.procs[proc.0 as usize].tasks.push_back(Task {
            id: task,
            remaining: cost,
            op,
        });
        match self.procs[proc.0 as usize].state {
            ProcState::Blocked => {
                // An interrupt wakes the sleeping process.
                self.procs[proc.0 as usize].state = ProcState::Waking;
                self.stats.wakeups += 1;
                out.emit(WAKE_LATENCY, CpuEffect::Internal(CpuEvent::Wake { proc }));
            }
            ProcState::Waking | ProcState::Queued(_) => {} // will run later
            ProcState::Running(core) => self.pickup_while_running(core, proc, now, out),
        }
    }

    /// Routes a previously emitted internal event back into the machine.
    pub fn handle(&mut self, now: SimTime, event: CpuEvent, out: &mut Outbox<CpuEffect>) {
        match event {
            CpuEvent::Wake { proc } => {
                if self.procs[proc.0 as usize].state == ProcState::Waking {
                    self.make_runnable(proc, now, out);
                }
            }
            CpuEvent::SliceEnd {
                core,
                seq,
                generation,
            } => self.on_slice_end(core, seq, generation, now, out),
            CpuEvent::HogToggle { proc } => self.on_hog_toggle(proc, now, out),
        }
    }

    // ---- internals -------------------------------------------------------

    fn least_loaded_core(&self) -> CoreId {
        let mut best = 0usize;
        let mut best_load = usize::MAX;
        for (i, core) in self.cores.iter().enumerate() {
            let load = core.queue.len() + usize::from(core.running.is_some());
            if load < best_load {
                best_load = load;
                best = i;
            }
        }
        CoreId(best as u32)
    }

    fn make_runnable(&mut self, proc: ProcId, now: SimTime, out: &mut Outbox<CpuEffect>) {
        let core = self.least_loaded_core();
        self.procs[proc.0 as usize].state = ProcState::Queued(core);
        self.cores[core.0 as usize].queue.push_back(proc);
        self.dispatch(core, now, out);
    }

    fn dispatch(&mut self, core_id: CoreId, now: SimTime, out: &mut Outbox<CpuEffect>) {
        loop {
            let core = &mut self.cores[core_id.0 as usize];
            if core.running.is_some() {
                return;
            }
            let Some(pid) = core.queue.pop_front() else {
                return;
            };
            let proc = &mut self.procs[pid.0 as usize];

            // Lazily drop hogs that went idle while queued.
            if proc.kind == ProcKind::Hog && !proc.hog_on && proc.tasks.is_empty() {
                proc.state = ProcState::Blocked;
                continue;
            }

            let cs = if core.last_proc == Some(pid) {
                SimDuration::ZERO
            } else {
                self.stats.context_switches += 1;
                CONTEXT_SWITCH_COST
            };
            self.slice_seq += 1;
            let work_start = now + cs;
            let hard_end = work_start + self.config.time_slice;
            let mut slice = ActiveSlice {
                proc: pid,
                seq: self.slice_seq,
                generation: 0,
                dispatched_at: now,
                work_start,
                hard_end,
                busy_until: work_start,
                yield_at: hard_end,
            };
            proc.state = ProcState::Running(core_id);

            let floor = slice.work_start;
            Self::commit_tasks(&mut slice, proc, floor, now, &mut self.stats, out);

            slice.yield_at = match proc.kind {
                // Pollers and hogs burn the whole slice even when idle.
                ProcKind::Polling | ProcKind::Hog => slice.hard_end,
                // Event-driven processes yield once out of work.
                ProcKind::EventDriven => slice.busy_until,
            };
            out.emit(
                slice.yield_at.since(now),
                CpuEffect::Internal(CpuEvent::SliceEnd {
                    core: core_id,
                    seq: slice.seq,
                    generation: slice.generation,
                }),
            );
            let op = self.procs[pid.0 as usize]
                .tasks
                .front()
                .map_or(simcore::simtrace::NO_OP, |t| t.op);
            self.cores[core_id.0 as usize].running = Some(slice);
            self.tracer.emit(
                now,
                self.trace_node,
                op,
                TraceKind::Dispatch { task: pid.0 as u64 },
            );
            return;
        }
    }

    /// Commits as much queued task work as fits before `slice.hard_end`,
    /// starting no earlier than `floor`, emitting exact completion times.
    fn commit_tasks(
        slice: &mut ActiveSlice,
        proc: &mut Process,
        floor: SimTime,
        now: SimTime,
        stats: &mut SchedStats,
        out: &mut Outbox<CpuEffect>,
    ) {
        let mut cursor = slice.busy_until.max(floor);
        let mut committed = false;
        let pid = slice.proc;
        while let Some(front) = proc.tasks.front_mut() {
            if cursor >= slice.hard_end {
                break;
            }
            let avail = slice.hard_end.since(cursor);
            let run = front.remaining.min(avail);
            front.remaining -= run;
            cursor += run;
            proc.useful += run;
            stats.useful += run;
            committed = true;
            if front.remaining.is_zero() {
                let task = proc.tasks.pop_front().expect("front task vanished");
                stats.tasks_completed += 1;
                out.emit(
                    cursor.since(now),
                    CpuEffect::TaskDone {
                        proc: pid,
                        task: task.id,
                    },
                );
            } else {
                break; // partial task: slice exhausted
            }
        }
        if committed {
            slice.busy_until = cursor;
        }
    }

    /// A task arrived for a process that currently holds a core: it notices
    /// within [`INTRA_SLICE_PICKUP`] and keeps working inside its slice.
    fn pickup_while_running(
        &mut self,
        core_id: CoreId,
        pid: ProcId,
        now: SimTime,
        out: &mut Outbox<CpuEffect>,
    ) {
        let core = &mut self.cores[core_id.0 as usize];
        let Some(slice) = core.running.as_mut() else {
            return;
        };
        debug_assert_eq!(slice.proc, pid, "running-state/core-slice mismatch");
        let proc = &mut self.procs[pid.0 as usize];
        let floor = now + INTRA_SLICE_PICKUP;
        Self::commit_tasks(slice, proc, floor, now, &mut self.stats, out);

        // An event-driven slice may have been about to yield early; extend it.
        if proc.kind == ProcKind::EventDriven && slice.busy_until > slice.yield_at {
            slice.generation += 1;
            slice.yield_at = slice.busy_until;
            out.emit(
                slice.yield_at.since(now),
                CpuEffect::Internal(CpuEvent::SliceEnd {
                    core: core_id,
                    seq: slice.seq,
                    generation: slice.generation,
                }),
            );
        }
    }

    fn on_slice_end(
        &mut self,
        core_id: CoreId,
        seq: u64,
        generation: u32,
        now: SimTime,
        out: &mut Outbox<CpuEffect>,
    ) {
        let core = &mut self.cores[core_id.0 as usize];
        let valid = core
            .running
            .as_ref()
            .is_some_and(|s| s.seq == seq && s.generation == generation);
        if !valid {
            return; // stale end (slice extended or already finished)
        }
        let slice = core.running.take().expect("validated slice vanished");
        let pid = slice.proc;
        let occupancy = now.since(slice.dispatched_at);
        core.busy += occupancy;
        self.stats.busy += occupancy;
        core.last_proc = Some(pid);
        self.procs[pid.0 as usize].busy += occupancy;

        let proc = &mut self.procs[pid.0 as usize];
        let wants_cpu = match proc.kind {
            ProcKind::EventDriven => !proc.tasks.is_empty(),
            ProcKind::Polling => true,
            ProcKind::Hog => proc.hog_on || !proc.tasks.is_empty(),
        };
        if wants_cpu {
            let op = proc
                .tasks
                .front()
                .map_or(simcore::simtrace::NO_OP, |t| t.op);
            proc.state = ProcState::Queued(core_id);
            self.cores[core_id.0 as usize].queue.push_back(pid);
            self.tracer.emit(
                now,
                self.trace_node,
                op,
                TraceKind::Preempt { task: pid.0 as u64 },
            );
        } else {
            proc.state = ProcState::Blocked;
        }
        self.dispatch(core_id, now, out);
    }

    fn on_hog_toggle(&mut self, pid: ProcId, now: SimTime, out: &mut Outbox<CpuEffect>) {
        let proc = &mut self.procs[pid.0 as usize];
        debug_assert_eq!(proc.kind, ProcKind::Hog, "toggle on non-hog");
        proc.hog_on = !proc.hog_on;
        let mean = if proc.hog_on {
            proc.hog_profile.busy_mean
        } else {
            proc.hog_profile.idle_mean
        };
        let next = SimDuration::from_secs_f64(self.rng.exponential(mean.as_secs_f64().max(1e-9)));
        out.emit(next, CpuEffect::Internal(CpuEvent::HogToggle { proc: pid }));

        if self.procs[pid.0 as usize].hog_on
            && self.procs[pid.0 as usize].state == ProcState::Blocked
        {
            self.make_runnable(pid, now, out);
        }
        // Turning off is lazy: the hog blocks at its next slice end or is
        // skipped at dispatch.
    }
}
