//! `hostperf`: host throughput of the simulator itself.
//!
//! Where every other figure measures the *simulated* system, this one
//! measures the *simulator*: wall-clock operations per second, event-queue
//! throughput, allocation volume and the observability tax (wall-clock
//! overhead of running with the tracer and audit taps on, versus the same
//! seed with them off). The sweep raises the op count to show how host
//! throughput amortizes fixed setup cost.
//!
//! Each arm also captures a wall-clock folded-stack profile
//! (`HOST_hostperf_<ops>.txt` when `--trace` is given) attributing host
//! time to the simulator's subsystems — event queue, rnicsim engine,
//! netsim delivery, cpusched dispatch, nvmsim I/O, trace tap and JSON
//! export — in a format `flamegraph.pl`/speedscope accept directly.
//! The profile comes from a dedicated same-seed re-run with the scope
//! timers enabled; the measured arm runs with them off, because at the
//! fastpath's call density the timers' own clock reads would dominate
//! the number they are trying to measure.

use crate::micro::{gwrite_plan_flush, run_primitive, MicroOpts, SystemKind};
use crate::report::{Report, Scenario};
use simcore::{hostprof, SimDuration};

/// Op counts swept by [`hostperf`]. The full sweep ends on a 64K-op arm —
/// long enough that setup cost and pool warm-up amortize to nothing and
/// the steady-state fastpath (timer wheel + pooled payloads + batched
/// completions) is what's measured. Quick stays short: it exists for CI
/// byte-identity and gate checks, not for steady-state numbers.
pub fn hostperf_ops(quick: bool) -> &'static [u64] {
    if quick {
        &[250, 500, 1000, 2000]
    } else {
        &[1000, 2000, 4000, 8000, 65536]
    }
}

/// Runs the host-throughput sweep: HyperLoop gWRITE 1KB on unloaded
/// replicas (the configuration where host cost, not simulated contention,
/// dominates), at increasing op counts.
///
/// # Panics
///
/// Panics if a run does not complete within the simulation watchdog.
pub fn hostperf(rep: &mut Report, quick: bool) {
    rep.banner("hostperf: simulator host throughput (HyperLoop gWRITE 1KB, unloaded)");
    rep.line(format!(
        "{:<8} {:>12} {:>14} {:>16} {:>12} {:>10}",
        "ops", "host op/s", "host events/s", "sim_ns/wall_ms", "alloc MiB", "obs tax"
    ));
    for &ops in hostperf_ops(quick) {
        let opts = MicroOpts {
            ops,
            warmup: 50,
            window: 16,
            hogs_per_node: 0,
            pace: SimDuration::ZERO,
            // Traced arms measure the observability tax via a bare re-run.
            trace: rep.profile_enabled(),
            ..MicroOpts::default()
        };
        // The measured arm runs with the scope timers OFF: at this
        // call density (~800 scoped calls per simulated op) the two
        // `Instant` reads per scope would be over half the measured wall
        // time — the profiler observing itself, not the simulator. The
        // host block (wall, alloc, queue counters) never needed the
        // scopes: the allocator hooks and queue stats are always-on.
        hostprof::reset();
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, false), opts);
        let h = &r.run.host;
        rep.line(format!(
            "{:<8} {:>12.0} {:>14.0} {:>16.0} {:>12.2} {:>9.1}%",
            ops,
            h.ops_per_sec(),
            h.events_per_sec(),
            h.sim_ns_per_wall_ms(),
            h.alloc.alloc_bytes as f64 / (1 << 20) as f64,
            h.obs_tax.overhead_pct(),
        ));
        if rep.trace_enabled() {
            // Folded stacks come from a dedicated same-seed re-run with the
            // scope timers on. hostprof is read-only with respect to the
            // simulation, so the re-run replays the identical timeline; its
            // wall numbers are attribution shape, not the headline rate.
            hostprof::reset();
            hostprof::enable();
            let _ = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, false), opts);
            hostprof::disable();
            let folded = hostprof::folded_stacks();
            hostprof::reset();
            rep.write_trace(&format!("HOST_hostperf_{ops}.txt"), &folded)
                .expect("write folded stacks");
        }
        let name = format!("hostperf/{ops}");
        let mut sc = Scenario::new(&name)
            .system(SystemKind::HyperLoop.label())
            .seed(opts.seed)
            .config("primitive", "gWRITE")
            .config("payload_bytes", 1024u64)
            .config("ops", ops)
            .config("window", opts.window)
            .latency(&r.run.latency)
            .gauge("ops_per_sec", r.run.ops_per_sec())
            .gauge("replica_cpu", r.replica_cpu)
            .health(r.run.health.clone())
            .series(r.run.series.clone())
            .host(r.run.host.clone());
        if let Some(tail) = &r.run.tail {
            sc = sc.tail(tail.clone());
        }
        r.run.write_artifacts(rep, &name);
        rep.scenario(sc);
    }
}
