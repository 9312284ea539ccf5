//! `hostperf`: host throughput of the simulator itself.
//!
//! Where every other figure measures the *simulated* system, this one
//! measures the *simulator*: wall-clock operations per second, event-queue
//! throughput, allocation volume and the observability tax (wall-clock
//! overhead of running with the tracer and audit taps on, versus the same
//! seed with them off). The sweep raises the op count to show how host
//! throughput amortizes fixed setup cost. The split of host time across
//! the simulator's layers is perfbench's traced run (`--trace 1`), which
//! samples spans around its own event loop.

use crate::exp::{col, each, fmt_kops, Row, Section, Table};
use crate::micro::{gwrite_plan_flush, run_primitive, MicroOpts, SystemKind};
use crate::report::{Report, Scenario};
use simcore::SimDuration;

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
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(1024, false), opts);
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

/// A host-profile value of the row's scenario, zero when absent.
fn host(r: &Row<'_>, key: &str) -> f64 {
    r.scns[0].host(key).unwrap_or(0.0)
}

/// The hostperf section. Its numbers are wall-clock, so it carries no
/// claim.
pub const SECTION: Section = Section {
    title: "Host throughput (hostperf) — simulator wall-clock self-profile",
    lead: "How fast the *host* turns the crank: simulated gWRITE ops per wall-clock second, event-queue events per wall second, simulated nanoseconds advanced per wall millisecond, bytes allocated, and the observability tax (extra wall time when tracing/audit taps are live vs the identical run with them off). These numbers describe the simulator itself, not the modeled system, and vary run to run — the canonicalizer strips them before byte-identity checks.",
    tables: &[Table::grid(
        each("hostperf/"),
        &[
            col("ops", |r| r.key.clone()),
            col("host Kops/s", |r| fmt_kops(host(r, "ops_per_sec"))),
            col("Kevents/s", |r| fmt_kops(host(r, "events_per_sec"))),
            col("sim us / wall ms", |r| format!("{:.1}", host(r, "sim_ns_per_wall_ms") / 1e3)),
            col("alloc MiB", |r| format!("{:.1}", host(r, "alloc_bytes") / (1u64 << 20) as f64)),
            col("obs tax", |r| format!("{:.1}%", host(r, "obs_tax.overhead_pct"))),
        ],
    )],
    claims: &[],
    note: "These numbers read the host, not the modelled system, so no claim rests on them. Per-op host cost does not depend on the op count here, so a collapse across the sweep is a host-side regression, which `benchcheck --host-baseline` gates against the recorded baseline (thresholds documented normatively in benchcheck's doc comment).",
};
