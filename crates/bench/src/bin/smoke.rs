//! A fast sanity pass over the three headline comparisons — useful while
//! tuning simulation parameters. Not a paper figure; see `figures` for the
//! full evaluation.
//!
//! `--json <path>` writes the scenarios as machine-readable JSON (to
//! `<path>/BENCH_smoke.json` when `<path>` is a directory). Any other
//! argument exits with status 2 and the usage line.

use hyperloop_bench::cli;
use hyperloop_bench::fanout_ablation::read_scaling;
use hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};
use hyperloop_bench::report::{Report, Scenario};
use std::path::Path;

fn main() {
    let args = cli::parse_or_exit(
        "smoke",
        "usage: smoke [--json <path>]",
        &[],
        &["--json"],
        0..=0,
    );
    let mut rep = Report::new("smoke");
    if let Some(p) = args.value("--json") {
        rep.set_json_path(Path::new(p));
    }

    let opts = MicroOpts {
        ops: 800,
        warmup: 50,
        ..MicroOpts::default()
    };
    rep.line("1 KB durable gWRITE, 3 replicas, 96 tenants/node:");
    for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
        let r = run_primitive(kind, gwrite_plan(1024), opts);
        rep.line(format!(
            "  {:<13} mean={} p99={} replica-cpu={:.1}%",
            kind.label(),
            r.run.latency.mean,
            r.run.latency.p99,
            r.replica_cpu * 100.0
        ));
        rep.scenario(
            Scenario::new(format!("smoke/gwrite-1KB/{}", kind.label()))
                .system(kind.label())
                .seed(opts.seed)
                .config("payload_bytes", 1024u64)
                .config("ops", opts.ops)
                .latency(&r.run.latency)
                .gauge("ops_per_sec", r.run.ops_per_sec())
                .gauge("replica_cpu", r.replica_cpu)
                .outcome(&r.run),
        );
    }
    rep.line("8 KB read scaling:");
    for n in [1u32, 3] {
        let r = read_scaling(n, 1500);
        let rps = r.ops_per_sec();
        rep.line(format!(
            "  {} serving replica(s): {:.0} reads/s ({:.1} Gbps)",
            n,
            rps,
            rps * 8192.0 * 8.0 / 1e9
        ));
        rep.scenario(
            Scenario::new(format!("smoke/read-scaling/{n}"))
                .config("serving_replicas", n)
                .config("read_bytes", 8192u64)
                .gauge("reads_per_sec", rps)
                .outcome(&r),
        );
    }
    rep.finish().expect("write JSON report");
}
