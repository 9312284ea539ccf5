//! The run harness: the observability plumbing every figure arm shares.
//!
//! An *arm* is one measured run of one configuration. Every runner wires
//! it the same way, and this module owns that wiring:
//!
//! * `Arm::start` starts the [`HostMeter`], then builds the [`Audit`],
//!   the [`Tracer`] tapped by it and the [`HealthMonitor`] on that tracer.
//!   `Arm::wire` attaches the tracer to a cluster before its groups are
//!   set up; runners hand `Arm::tracer` to each group client.
//! * `Arm::poll` is the event-driven runners' loop (micro, fig11, fig12,
//!   fig2), over clients `install`ed on the cluster.
//! * `Arm::finish` stops the meter before any fold, takes the closing
//!   audit, health and series snapshot, and folds a traced arm's ring into
//!   the report blocks its runner carries: the shared [`Outcome`].
//! * `tax_pair` runs an arm observed and, if it attached any tap, again
//!   bare; it checks that both simulated the same timeline, reports the
//!   bare run's host cost and records the observability tax.
//! * [`Outcome::write_artifacts`] writes a traced arm's `TRACE_`/`FOLDED_`/
//!   `AUDIT_`/`TAIL_` files.
//!
//! The runners differ only where `Profile` says: the trace ring's size,
//! the counter tracks sampled, the folds and the files exported, and
//! whether the arm audits.

use crate::driver::Client;
use crate::report::Report;
use cpusched::ProcKind;
use simcore::hostprof::ObsTax;
use simcore::simaudit::{HealthSummary, SeriesSummary};
use simcore::simprof::{
    chrome_trace_with_counters, folded_stacks, txn_chrome_trace_with_counters, txn_folded_stacks,
    CounterSample,
};
use simcore::{
    Audit, CounterSampler, HealthMonitor, Histogram, HostMeter, HostStats, LatencySummary,
    MetricsRegistry, Model, SimDuration, SimTime, Simulation, SloConfig, StageAttribution,
    TailProfile, TraceEvent, Tracer, TxnAttribution,
};
use std::rc::Rc;
use testbed::{Cluster, ProcRef};

/// The trace choices of the tapped runners, one variant per runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Profile {
    /// `micro` (Figs. 8–10, Table 2, hostperf): stage attribution and tail
    /// for the report; no audit, no counter tracks, no files of its own.
    Micro,
    /// `shardscale`: stage attribution and tail; a Perfetto trace with
    /// counter tracks and collapsed stacks.
    Shards,
    /// `migrate`: tail; a Perfetto trace with counter tracks.
    Migrate,
    /// `txnmix`: tail and txn-phase breakdown; a txn Perfetto trace with
    /// counter tracks and txn collapsed stacks.
    Txn,
}

impl Profile {
    /// Only the lock-step runners audit.
    fn audits(self) -> bool {
        self != Profile::Micro
    }

    /// Trace ring capacity for an arm of `ops` operations. About 96 events
    /// per op across the NIC/wire/sched layers, bounded to keep memory sane.
    fn ring(self, ops: u64) -> usize {
        match self {
            Profile::Txn => 1 << 18,
            _ => ops.saturating_mul(96).clamp(1 << 16, 1 << 21) as usize,
        }
    }

    /// Registry prefixes sampled into counter tracks (exporting runners).
    fn tracks(self) -> Option<&'static [&'static str]> {
        match self {
            Profile::Micro => None,
            Profile::Shards => Some(&["bench.shards.", "cluster.sched.", "cluster.fabric."]),
            Profile::Migrate => Some(&["bench.shards.", "cluster.sched."]),
            Profile::Txn => Some(&["txn."]),
        }
    }
}

/// One arm's observability, from setup to [`Arm::finish`].
pub(crate) struct Arm {
    meter: HostMeter,
    /// The runner's profile on a traced arm; `None` keeps no ring.
    traced: Option<Profile>,
    sampler: Option<CounterSampler>,
    /// The audit: the standard auditors on an observed lock-step arm,
    /// disabled otherwise.
    pub audit: Audit,
    /// The tracer, tapped by [`Arm::audit`]; keeps a ring on traced arms.
    pub tracer: Tracer,
    /// Per-shard SLO health, emitting breaches through the tracer.
    /// Observer-only: it never feeds the event queue or the RNG.
    pub health: HealthMonitor,
}

impl Arm {
    /// Starts an arm of a `profile` runner. A bare arm (`observed` false)
    /// attaches no tap. An observed arm audits if its runner does, and
    /// keeps a trace ring sized for `ops` operations when `trace` is set.
    pub fn start(profile: Profile, observed: bool, trace: bool, ops: u64) -> Arm {
        let meter = HostMeter::start();
        let traced = (observed && trace).then_some(profile);
        let audit = if observed && profile.audits() {
            Audit::standard()
        } else {
            Audit::disabled()
        };
        let tracer = match traced {
            Some(p) => Tracer::enabled(p.ring(ops)),
            None => Tracer::disabled(),
        }
        .with_audit(audit.clone());
        let health = HealthMonitor::new(SloConfig::default());
        health.set_tracer(tracer.clone());
        Arm {
            meter,
            traced,
            sampler: traced
                .and_then(Profile::tracks)
                .map(CounterSampler::with_prefixes),
            audit,
            tracer,
            health,
        }
    }

    /// Starts an arm of a runner with no taps: host meter and health only.
    pub fn untapped() -> Arm {
        Arm::start(Profile::Micro, false, false, 0)
    }

    /// Attaches the tracer to `cluster`'s fabric and schedulers. Call it
    /// before `setup_fabric`, so group wiring is traced too.
    pub fn wire(&self, cluster: &mut Cluster) {
        cluster.set_tracer(self.tracer.clone());
    }

    /// Samples counter tracks at `at` on an arm that exports them: `fill`
    /// writes the registry to sample, and never runs on other arms.
    pub fn sample(&mut self, at: SimTime, fill: impl FnOnce(&mut MetricsRegistry)) {
        if let Some(s) = &mut self.sampler {
            let mut reg = MetricsRegistry::new();
            fill(&mut reg);
            s.sample(at, &reg);
        }
    }

    /// The event-driven runners' loop: advances `sim` by `cadence`, ticks
    /// health, and stops once every client is done. Returns the clients'
    /// pooled latency histogram.
    ///
    /// # Panics
    ///
    /// Panics once a run still going passes `cap` of simulated time, or
    /// on data-path errors.
    pub fn poll(
        &self,
        sim: &mut Simulation<Cluster>,
        clients: &[Installed],
        cadence: SimDuration,
        cap: SimTime,
    ) -> Histogram {
        loop {
            let next = sim.now() + cadence;
            sim.run_until(next);
            self.health.tick(sim.now());
            if clients.iter().all(|c| c.get(&mut sim.model).is_done()) {
                break;
            }
            assert!(sim.now() < cap, "run stalled at {}", sim.now());
        }
        assert_eq!(sim.model.fab.stats().errors, 0, "data-path errors");
        let mut pooled = Histogram::new();
        for c in clients {
            pooled.merge(c.get(&mut sim.model).hist());
        }
        pooled
    }

    /// Closes the arm. Stops the host meter first, so post-run folds are
    /// never billed to the arm's wall clock; then exports the audit into
    /// `registry`, snapshots health (with the audit's violation count) and
    /// series, and folds a traced arm's ring as its [`Profile`] says.
    pub fn finish<M: Model>(
        self,
        sim: &Simulation<M>,
        ops: u64,
        elapsed: SimDuration,
        hist: &Histogram,
        mut registry: MetricsRegistry,
    ) -> Outcome {
        let host = self
            .meter
            .finish(ops, sim.now().since(SimTime::ZERO), sim.queue.stats());
        self.audit.export_into(&mut registry, "audit");
        let mut health = self.health.summary();
        health.violations = self.audit.violation_count();
        let mut run = Outcome {
            latency: hist.summary(),
            elapsed,
            ops,
            registry,
            health,
            series: self.health.series(),
            host,
            audit_json: self.audit.to_json(),
            attribution: None,
            txn_breakdown: None,
            tail: None,
            trace: Trace::default(),
            tapped: self.tracer.is_enabled(),
            traced: self.traced,
        };
        if let Some(profile) = self.traced {
            let events = self.tracer.events();
            match profile {
                Profile::Micro | Profile::Shards => {
                    run.attribution = Some(StageAttribution::from_events(&events));
                }
                Profile::Migrate => {}
                Profile::Txn => run.txn_breakdown = Some(TxnAttribution::from_events(&events)),
            }
            run.tail = Some(TailProfile::from_events(&events));
            if let Some(sampler) = self.sampler {
                let mut samples = sampler.samples().to_vec();
                samples.extend(run.series.counter_samples());
                run.trace = Trace { events, samples };
            }
        }
        run
    }
}

/// What one finished arm measured: the fields every runner's result
/// shares.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Per-op latency distribution.
    pub latency: LatencySummary,
    /// Simulated time the measured ops spanned.
    pub elapsed: SimDuration,
    /// Operations completed.
    pub ops: u64,
    /// Metrics snapshot at the end of the run: the runner's exports plus
    /// the audit's.
    pub registry: MetricsRegistry,
    /// Per-shard SLO health, with the audit's violation count (zero on
    /// unaudited arms).
    pub health: HealthSummary,
    /// Windowed per-shard telemetry, sampled at every health tick.
    pub series: SeriesSummary,
    /// Host-side (wall-clock) statistics, with the observability tax when
    /// the arm was re-run bare.
    pub host: HostStats,
    /// The audit's structured violation report (deterministic JSON).
    pub audit_json: String,
    /// Per-stage latency attribution (traced micro and shardscale arms).
    pub attribution: Option<StageAttribution>,
    /// Per-phase commit-latency attribution (traced txnmix arms).
    pub txn_breakdown: Option<TxnAttribution>,
    /// Tail-latency profile (traced arms).
    pub tail: Option<TailProfile>,
    /// The captured stream of a traced arm that exports files from it;
    /// empty otherwise.
    pub trace: Trace,
    tapped: bool,
    traced: Option<Profile>,
}

/// A traced arm's captured stream, kept for the files exported from it.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The trace ring's events: the ring's own buffer, shared.
    pub events: Rc<Vec<TraceEvent>>,
    /// Counter-track points: the runner's samples, then the health
    /// series' tracks.
    pub samples: Vec<CounterSample>,
}

impl Outcome {
    /// Throughput in operations per simulated second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64().max(1e-12)
    }

    /// Writes a traced arm's files for scenario `name` into the report's
    /// trace directory (`/` becomes `_` in file names): the runner's
    /// Perfetto trace and collapsed stacks, an audited runner's audit
    /// report, and the tail profile. Untraced arms, and reports without a
    /// trace directory, write nothing.
    ///
    /// # Panics
    ///
    /// Panics if the trace directory is not writable.
    pub fn write_artifacts(&self, rep: &Report, name: &str) {
        let Some(profile) = self.traced.filter(|_| rep.trace_enabled()) else {
            return;
        };
        let write = |prefix: &str, ext: &str, body: &str| {
            rep.write_trace(&format!("{prefix}{name}{ext}"), body)
                .expect("trace sink writable");
        };
        let Trace { events, samples } = &self.trace;
        match profile {
            Profile::Micro => {}
            Profile::Shards | Profile::Migrate => {
                let chrome = chrome_trace_with_counters(events, samples);
                write("TRACE_", ".json", &chrome);
                if profile == Profile::Shards {
                    write("FOLDED_", ".txt", &folded_stacks(events, name));
                }
            }
            Profile::Txn => {
                let chrome = txn_chrome_trace_with_counters(events, samples);
                write("TXNTRACE_", ".json", &chrome);
                write("FOLDED_txn_", ".txt", &txn_folded_stacks(events));
            }
        }
        if profile.audits() {
            write("AUDIT_", ".json", &self.audit_json);
        }
        if let Some(tail) = &self.tail {
            write("TAIL_", ".json", &tail.to_artifact_json(name));
        }
    }
}

/// Runs `arm` observed and, if it attached any tap, again bare (every tap
/// off). The result keeps the observed run's blocks but the bare run's
/// host cost (wall, rates and allocator counters), so host throughput
/// never includes the tracer and auditors; the observed run's wall stays
/// in the observability tax. `outcome` picks the runner result's
/// [`Outcome`].
///
/// # Panics
///
/// Taps only read the timeline, so both runs must simulate the same one:
/// panics, naming both values, if the bare run's simulated time, op count
/// or event-queue counters differ from the observed run's.
pub(crate) fn tax_pair<R>(
    mut arm: impl FnMut(bool) -> R,
    outcome: fn(&mut R) -> &mut Outcome,
) -> R {
    let mut res = arm(true);
    let observed = outcome(&mut res);
    if observed.tapped {
        let mut bare_res = arm(false);
        let bare = &outcome(&mut bare_res).host;
        let host = &observed.host;
        for (what, o, b) in [
            ("sim_ns", host.sim_ns, bare.sim_ns),
            ("ops", host.ops, bare.ops),
            ("queue.pushed", host.queue.pushed, bare.queue.pushed),
            ("queue.popped", host.queue.popped, bare.queue.popped),
            (
                "queue.max_depth",
                host.queue.max_depth as u64,
                bare.queue.max_depth as u64,
            ),
        ] {
            assert_eq!(
                o, b,
                "observed and bare arms simulated different timelines: {what} {o} observed, {b} bare"
            );
        }
        observed.host = HostStats {
            obs_tax: ObsTax {
                observed_wall_ns: host.wall_ns,
                bare_wall_ns: bare.wall_ns,
            },
            ..bare.clone()
        };
    }
    res
}

/// A client process on the cluster, readable after the run without naming
/// its type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Installed {
    proc: ProcRef,
    view: fn(&mut Cluster, ProcRef) -> &dyn Client,
}

impl Installed {
    /// The client, read back from `cluster`.
    pub fn get<'a>(&self, cluster: &'a mut Cluster) -> &'a dyn Client {
        (self.view)(cluster, self.proc)
    }
}

fn view<C: Client>(cluster: &mut Cluster, proc: ProcRef) -> &dyn Client {
    cluster.app_mut::<C>(proc)
}

/// Adds `client` as a `kind` process on its transport's node, woken by
/// completions on the transport's ack CQ after `handler_cost`.
pub(crate) fn install<C: Client>(
    cluster: &mut Cluster,
    kind: ProcKind,
    client: C,
    handler_cost: SimDuration,
) -> Installed {
    let (node, cq) = (client.transport().node(), client.transport().ack_cq());
    let proc = cluster.add_app(node, kind, Box::new(client));
    cluster.bind_cq(proc, node, cq, handler_cost);
    Installed {
        proc,
        view: view::<C>,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::QueueStats;
    use std::cell::Cell;

    /// A finished outcome whose host block reports `sim_ns` and `pushed`.
    fn outcome(observed: bool, sim_ns: u64, pushed: u64) -> Outcome {
        let sim = Simulation::new(testbed::Cluster::with_defaults(1, 1));
        let mut run = Arm::start(Profile::Shards, observed, false, 1).finish(
            &sim,
            1,
            SimDuration::from_nanos(sim_ns),
            &Histogram::new(),
            MetricsRegistry::new(),
        );
        run.host.sim_ns = sim_ns;
        run.host.queue = QueueStats {
            pushed,
            popped: pushed,
            max_depth: 1,
        };
        run
    }

    #[test]
    #[should_panic(expected = "sim_ns 100 observed, 101 bare")]
    fn a_bare_arm_on_another_sim_time_panics() {
        tax_pair(
            |observed| outcome(observed, if observed { 100 } else { 101 }, 5),
            |o| o,
        );
    }

    #[test]
    #[should_panic(expected = "queue.pushed 5 observed, 6 bare")]
    fn a_bare_arm_with_other_queue_counts_panics() {
        tax_pair(
            |observed| outcome(observed, 100, if observed { 5 } else { 6 }),
            |o| o,
        );
    }

    #[test]
    fn an_arm_without_taps_runs_once() {
        let runs = Cell::new(0);
        let run = tax_pair(
            |_| {
                runs.set(runs.get() + 1);
                outcome(false, 100, 5)
            },
            |o| o,
        );
        assert_eq!(runs.get(), 1);
        assert_eq!(
            run.host.obs_tax.bare_wall_ns, run.host.obs_tax.observed_wall_ns,
            "no bare re-run, no tax"
        );
    }

    #[test]
    fn a_tapped_arm_reports_the_bare_runs_host_cost() {
        let run = tax_pair(
            |observed| {
                let mut run = outcome(observed, 100, 5);
                (run.host.wall_ns, run.host.alloc.allocs) =
                    if observed { (9_000, 70) } else { (4_000, 30) };
                run
            },
            |o| o,
        );
        assert_eq!((run.host.wall_ns, run.host.alloc.allocs), (4_000, 30));
        assert_eq!(run.host.ops_per_sec(), 250_000.0, "1 op in 4 µs");
        assert_eq!(
            (
                run.host.obs_tax.observed_wall_ns,
                run.host.obs_tax.bare_wall_ns
            ),
            (9_000, 4_000)
        );
        assert_eq!(run.host.obs_tax.overhead_pct(), 125.0);
    }

    #[test]
    fn a_tapped_arm_runs_again_bare() {
        let runs = Cell::new(0);
        let run = tax_pair(
            |observed| {
                runs.set(runs.get() + 1);
                outcome(observed, 100, 5)
            },
            |o| o,
        );
        assert_eq!(runs.get(), 2);
        assert!(run.tapped);
    }
}
