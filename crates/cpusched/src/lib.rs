//! # cpusched — the multi-tenant CPU that HyperLoop removes from the critical path
//!
//! HyperLoop's motivation (paper §2.2) is that in multi-tenant storage
//! servers, hundreds of replica processes share a handful of cores, so the
//! CPU work on a replicated transaction's critical path — receiving the log,
//! running the commit protocol, applying updates, taking locks — waits behind
//! scheduling delay and context switches. This crate models exactly that
//! machine:
//!
//! * [`CpuScheduler`] — per-core run queues, fixed time slices, a per-switch
//!   cost and a wake-up latency;
//! * [`ProcKind::EventDriven`] processes that sleep and pay a wake-up;
//! * [`ProcKind::Polling`] processes that spin (the paper's
//!   Naïve-Polling baseline) — fast when they own a core, poison under
//!   co-location;
//! * bursty background tenants ([`CpuScheduler::spawn_hog`]) standing in for
//!   the paper's co-located instances and `stress-ng` load.
//!
//! Work is submitted as tasks with a CPU cost; completion is reported with
//! exact virtual-time timestamps, so end-to-end experiments see true
//! queueing + context-switch delays.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod types;

pub use scheduler::CpuScheduler;
pub use types::{
    CoreId, CpuEffect, CpuEvent, HogProfile, ProcId, ProcKind, SchedConfig, SchedStats, TaskId,
    CONTEXT_SWITCH_COST, INTRA_SLICE_PICKUP, WAKE_LATENCY,
};

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::*;

    /// Test harness: routes scheduler effects through a real event queue.
    struct Harness {
        sched: CpuScheduler,
        done: Vec<(SimTime, ProcId, TaskId)>,
    }

    #[derive(Debug, Clone, Copy)]
    enum Ev {
        Cpu(CpuEvent),
        Done(ProcId, TaskId),
    }

    impl Harness {
        fn new(cores: u32, config: SchedConfig) -> Simulation<Harness> {
            Simulation::new(Harness {
                sched: CpuScheduler::new(cores, config, SimRng::new(42)),
                done: Vec::new(),
            })
        }

        fn route(out: &mut Outbox<CpuEffect>, q: &mut EventQueue<Ev>) {
            for (delay, eff) in out.drain() {
                match eff {
                    CpuEffect::Internal(ev) => q.push_after(delay, Ev::Cpu(ev)),
                    CpuEffect::TaskDone { proc, task } => q.push_after(delay, Ev::Done(proc, task)),
                }
            }
        }
    }

    impl Model for Harness {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
            match ev {
                Ev::Cpu(cpu) => {
                    let mut out = Outbox::new();
                    self.sched.handle(now, cpu, &mut out);
                    Self::route(&mut out, q);
                }
                Ev::Done(p, t) => self.done.push((now, p, t)),
            }
        }
    }

    /// Submits a task through the harness at the current queue time.
    fn submit(sim: &mut Simulation<Harness>, p: ProcId, t: u64, cost: SimDuration) {
        let mut out = Outbox::new();
        let now = sim.queue.now();
        sim.model
            .sched
            .submit(p, TaskId(t), cost, simcore::simtrace::NO_OP, now, &mut out);
        Harness::route(&mut out, &mut sim.queue);
    }

    fn spawn(sim: &mut Simulation<Harness>, kind: ProcKind) -> ProcId {
        let mut out = Outbox::new();
        let now = sim.queue.now();
        let p = sim.model.sched.spawn(kind, now, &mut out);
        Harness::route(&mut out, &mut sim.queue);
        p
    }

    #[test]
    fn event_driven_idle_machine_latency() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(4, cfg);
        let p = spawn(&mut sim, ProcKind::EventDriven);
        submit(&mut sim, p, 1, SimDuration::from_micros(10));
        sim.run();
        let (t, _, _) = sim.model.done[0];
        // wake (5us) + context switch (3us) + work (10us)
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_micros(18));
    }

    #[test]
    fn polling_process_picks_up_fast() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(4, cfg);
        let p = spawn(&mut sim, ProcKind::Polling);
        // Let the poller take its core first.
        sim.run_until(SimTime::from_micros(100));
        let submit_at = sim.queue.now();
        submit(&mut sim, p, 1, SimDuration::from_micros(10));
        sim.run_until(SimTime::from_millis(10));
        let (t, _, _) = sim.model.done[0];
        // At most pickup (1us) + initial context switch (3us) + work (10us);
        // crucially there is no 5us wake latency and no queueing.
        let lat = t.since(submit_at);
        assert!(lat >= SimDuration::from_micros(10), "{lat}");
        assert!(lat <= SimDuration::from_micros(14), "{lat}");
    }

    #[test]
    fn contention_delays_event_driven_wakeup() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        // Three pollers occupy the single core in round-robin.
        for _ in 0..3 {
            spawn(&mut sim, ProcKind::Polling);
        }
        let p = spawn(&mut sim, ProcKind::EventDriven);
        sim.run_until(SimTime::from_millis(20));
        let submit_at = sim.queue.now();
        submit(&mut sim, p, 7, SimDuration::from_micros(10));
        sim.run_until(SimTime::from_millis(60));
        let (t, _, _) = sim.model.done[0];
        let lat = t.since(submit_at);
        // Must wait for the current slice plus queued pollers: >= 1 slice.
        assert!(
            lat >= SimDuration::from_millis(1),
            "no queueing delay under contention: {lat}"
        );
        assert!(
            lat <= SimDuration::from_millis(5),
            "unreasonably long: {lat}"
        );
    }

    #[test]
    fn multiple_tasks_one_wakeup() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(2, cfg);
        let p = spawn(&mut sim, ProcKind::EventDriven);
        for i in 0..5 {
            submit(&mut sim, p, i, SimDuration::from_micros(2));
        }
        sim.run();
        assert_eq!(sim.model.done.len(), 5);
        assert_eq!(
            sim.model.sched.stats().wakeups,
            1,
            "one interrupt, not five"
        );
        // All five ran back-to-back within one slice.
        let last = sim.model.done.last().unwrap().0;
        assert_eq!(
            last.since(SimTime::ZERO),
            SimDuration::from_micros(5 + 3 + 10)
        );
    }

    #[test]
    fn long_task_spans_multiple_slices() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        let a = spawn(&mut sim, ProcKind::EventDriven);
        let b = spawn(&mut sim, ProcKind::EventDriven);
        submit(&mut sim, a, 1, SimDuration::from_millis(3)); // 3 slices of work
        submit(&mut sim, b, 2, SimDuration::from_micros(10));
        sim.run();
        assert_eq!(sim.model.done.len(), 2);
        let done_a = sim.model.done.iter().find(|(_, p, _)| *p == a).unwrap().0;
        let done_b = sim.model.done.iter().find(|(_, p, _)| *p == b).unwrap().0;
        // b finishes long before a despite arriving later (time slicing).
        assert!(done_b < done_a);
        assert!(done_a.since(SimTime::ZERO) >= SimDuration::from_millis(3));
    }

    #[test]
    fn back_to_back_submissions_to_running_process() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(2, cfg);
        let p = spawn(&mut sim, ProcKind::EventDriven);
        submit(&mut sim, p, 1, SimDuration::from_micros(100));
        // While it runs, feed it another task.
        sim.run_until(SimTime::from_micros(50));
        submit(&mut sim, p, 2, SimDuration::from_micros(10));
        sim.run();
        assert_eq!(sim.model.done.len(), 2);
        assert_eq!(
            sim.model.sched.stats().wakeups,
            1,
            "pickup must not re-wake"
        );
        let t2 = sim.model.done.iter().find(|(_, _, t)| t.0 == 2).unwrap().0;
        // First task ends at 5+3+100=108us; second runs right after.
        assert_eq!(t2.since(SimTime::ZERO), SimDuration::from_micros(118));
    }

    #[test]
    fn context_switches_are_counted() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        for _ in 0..4 {
            spawn(&mut sim, ProcKind::Polling);
        }
        sim.run_until(SimTime::from_millis(100));
        let cs = sim.model.sched.stats().context_switches;
        // Four pollers on one core switch roughly every slice.
        assert!(cs >= 90, "too few context switches: {cs}");
    }

    #[test]
    fn single_poller_does_not_context_switch() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        spawn(&mut sim, ProcKind::Polling);
        sim.run_until(SimTime::from_millis(100));
        // Re-dispatching the same process costs nothing after the first switch.
        assert_eq!(sim.model.sched.stats().context_switches, 1);
    }

    #[test]
    fn polling_burns_cpu_without_useful_work() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        let p = spawn(&mut sim, ProcKind::Polling);
        sim.run_until(SimTime::from_millis(50));
        let stats = sim.model.sched.stats();
        assert!(
            stats.busy >= SimDuration::from_millis(49),
            "poller should burn the core"
        );
        assert_eq!(stats.useful, SimDuration::ZERO);
        assert_eq!(sim.model.sched.proc_useful(p), SimDuration::ZERO);
    }

    #[test]
    fn event_driven_idle_machine_is_idle() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(2, cfg);
        spawn(&mut sim, ProcKind::EventDriven);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.model.sched.stats().busy, SimDuration::ZERO);
    }

    #[test]
    fn hogs_create_bursty_contention() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        let mut out = Outbox::new();
        for _ in 0..8 {
            sim.model
                .sched
                .spawn_hog(HogProfile::default(), SimTime::ZERO, &mut out);
        }
        Harness::route(&mut out, &mut sim.queue);
        sim.run_until(SimTime::from_secs(1));
        let stats = sim.model.sched.stats();
        // 8 hogs at ~25% duty on one core: busy but not zero-idle forever.
        let busy_frac = stats.busy.as_secs_f64() / 1.0;
        assert!(busy_frac > 0.5, "hogs too idle: {busy_frac}");
        assert!(stats.context_switches > 100, "hogs never alternated");
    }

    #[test]
    fn latency_tail_grows_with_colocation() {
        // The crate's raison d'être: same request stream, more co-located
        // tenants, higher p99.
        let mut tails = Vec::new();
        for tenants in [0u32, 12] {
            let cfg = SchedConfig::default();
            let mut sim = Harness::new(2, cfg);
            let mut out = Outbox::new();
            for _ in 0..tenants {
                sim.model
                    .sched
                    .spawn_hog(HogProfile::default(), SimTime::ZERO, &mut out);
            }
            Harness::route(&mut out, &mut sim.queue);
            let p = spawn(&mut sim, ProcKind::EventDriven);

            let mut hist = Histogram::new();
            let mut next = SimTime::from_millis(10);
            for i in 0..300 {
                sim.run_until(next);
                let submit_at = sim.queue.now();
                submit(&mut sim, p, i, SimDuration::from_micros(5));
                sim.run_until(next + SimDuration::from_millis(9));
                if let Some((t, _, _)) = sim.model.done.iter().find(|(_, _, tid)| tid.0 == i) {
                    hist.record(t.since(submit_at));
                }
                next += SimDuration::from_millis(10);
            }
            assert!(hist.count() >= 290, "lost completions: {}", hist.count());
            tails.push(hist.p99());
        }
        assert!(
            tails[1] > tails[0] * 5,
            "co-location did not inflate the tail: {} vs {}",
            tails[1],
            tails[0]
        );
    }

    #[test]
    fn reset_stats_zeroes_counters() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        let p = spawn(&mut sim, ProcKind::EventDriven);
        submit(&mut sim, p, 1, SimDuration::from_micros(10));
        sim.run();
        assert!(sim.model.sched.stats().tasks_completed > 0);
        sim.model.sched.reset_stats();
        let s = sim.model.sched.stats();
        assert_eq!(s.tasks_completed, 0);
        assert_eq!(s.busy, SimDuration::ZERO);
        assert_eq!(sim.model.sched.core_busy(CoreId(0)), SimDuration::ZERO);
    }

    #[test]
    fn backlog_reports_queued_tasks() {
        let cfg = SchedConfig::default();
        let mut sim = Harness::new(1, cfg);
        let p = spawn(&mut sim, ProcKind::EventDriven);
        for i in 0..3 {
            submit(&mut sim, p, i, SimDuration::from_millis(5));
        }
        assert_eq!(sim.model.sched.proc_backlog(p), 3);
        sim.run();
        assert_eq!(sim.model.sched.proc_backlog(p), 0);
    }

    #[test]
    #[should_panic(expected = "use spawn_hog")]
    fn spawning_hog_via_spawn_panics() {
        let mut sim = Harness::new(1, SchedConfig::default());
        spawn(&mut sim, ProcKind::Hog);
    }

    mod randomized {
        use super::*;
        use simcore::SimRng;

        #[test]
        fn every_task_completes_no_earlier_than_cost() {
            for case in 0..32u64 {
                let mut rng = SimRng::new(0x5C4ED + case);
                let cores = rng.gen_range(1..4) as u32;
                let n_procs = 1 + rng.gen_index(5);
                let cfg = SchedConfig::default();
                let mut sim = Harness::new(cores, cfg);
                let procs: Vec<ProcId> = (0..n_procs)
                    .map(|i| {
                        let kind = if i % 2 == 0 {
                            ProcKind::EventDriven
                        } else {
                            ProcKind::Polling
                        };
                        spawn(&mut sim, kind)
                    })
                    .collect();
                let n_tasks = 1 + rng.gen_index(39);
                let mut expect = Vec::new();
                for i in 0..n_tasks {
                    let p = procs[rng.gen_index(procs.len())];
                    let cost = SimDuration::from_micros(rng.gen_range(1..500));
                    submit(&mut sim, p, i as u64, cost);
                    expect.push((i as u64, cost));
                }
                sim.run_until(SimTime::from_secs(5));
                assert_eq!(sim.model.done.len(), expect.len(), "lost tasks");
                for (tid, cost) in expect {
                    let (t, _, _) = sim.model.done.iter().find(|(_, _, x)| x.0 == tid).unwrap();
                    assert!(
                        t.since(SimTime::ZERO) >= cost,
                        "finished faster than its cost"
                    );
                }
            }
        }

        #[test]
        fn useful_time_equals_total_cost() {
            for case in 0..32u64 {
                let mut rng = SimRng::new(0x05EF + case);
                let cfg = SchedConfig::default();
                let mut sim = Harness::new(2, cfg);
                let p = spawn(&mut sim, ProcKind::EventDriven);
                let mut total = SimDuration::ZERO;
                let n = 1 + rng.gen_index(29);
                for i in 0..n {
                    let cost = SimDuration::from_micros(rng.gen_range(1..200));
                    total += cost;
                    submit(&mut sim, p, i as u64, cost);
                }
                sim.run_until(SimTime::from_secs(5));
                assert_eq!(sim.model.sched.stats().useful, total);
            }
        }
    }
}
