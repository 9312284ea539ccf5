//! Runners printing the paper's figures and tables.

use crate::micro::{
    gcas_plan, gmemcpy_plan, gwrite_plan_flush, run_primitive, MicroOpts, MicroResult, SystemKind,
};
use crate::report::{latency_header, latency_row, ratio, us, Report, Scenario};
use simcore::SimDuration;

/// Message sizes of Figure 8.
pub const FIG8_SIZES: [u64; 7] = [128, 256, 512, 1024, 2048, 4096, 8192];

/// Message sizes of Figure 9.
pub const FIG9_SIZES: [u64; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

fn scaled(ops: u64, quick: bool) -> u64 {
    if quick {
        (ops / 8).max(400)
    } else {
        ops
    }
}

/// Builds the machine-readable record of one microbenchmark run.
fn micro_scenario(name: String, kind: SystemKind, opts: &MicroOpts, r: &MicroResult) -> Scenario {
    Scenario::new(name)
        .system(kind.label())
        .seed(opts.seed)
        .config("group_size", opts.group_size)
        .config("window", opts.window)
        .config("ops", opts.ops)
        .config("hogs_per_node", opts.hogs_per_node)
        .config("pace_us", opts.pace.as_micros_f64())
        .latency(&r.run.latency)
        .gauge("ops_per_sec", r.run.ops_per_sec())
        .gauge("replica_cpu", r.replica_cpu)
        .outcome(&r.run)
}

/// Figure 8(a): gWRITE latency vs message size, Naïve vs HyperLoop.
pub fn fig8a(rep: &mut Report, quick: bool) {
    rep.banner("Figure 8(a): gWRITE latency vs message size (group=3, loaded replicas)");
    fig8_inner(rep, quick, "fig8a", "gWRITE", |size| {
        gwrite_plan_flush(size, false)
    });
}

/// Figure 8(b): gMEMCPY latency vs message size.
pub fn fig8b(rep: &mut Report, quick: bool) {
    rep.banner("Figure 8(b): gMEMCPY latency vs message size (group=3, loaded replicas)");
    fig8_inner(rep, quick, "fig8b", "gMEMCPY", gmemcpy_plan);
}

fn fig8_inner(
    rep: &mut Report,
    quick: bool,
    fig: &str,
    name: &str,
    plan_of: impl Fn(u64) -> crate::driver::OpPlan,
) {
    let opts = MicroOpts {
        ops: scaled(4000, quick),
        trace: rep.profile_enabled(),
        ..MicroOpts::default()
    };
    rep.line(format!(
        "{:<8} {:<14} {:>10} {:>10} | {:<14} {:>10} {:>10} | p99 gain",
        "size", "Naive", "mean", "p99", "HyperLoop", "mean", "p99"
    ));
    for size in FIG8_SIZES {
        let naive = run_primitive(SystemKind::NaiveEvent, plan_of(size), opts);
        let hl = run_primitive(SystemKind::HyperLoop, plan_of(size), opts);
        rep.line(format!(
            "{:<8} {:<14} {:>10} {:>10} | {:<14} {:>10} {:>10} | {:>8}",
            format!("{size}B"),
            name,
            us(naive.run.latency.mean),
            us(naive.run.latency.p99),
            name,
            us(hl.run.latency.mean),
            us(hl.run.latency.p99),
            ratio(naive.run.latency.p99, hl.run.latency.p99),
        ));
        for (kind, r) in [
            (SystemKind::NaiveEvent, &naive),
            (SystemKind::HyperLoop, &hl),
        ] {
            rep.scenario(
                micro_scenario(format!("{fig}/{size}B/{}", kind.label()), kind, &opts, r)
                    .config("primitive", name)
                    .config("payload_bytes", size),
            );
        }
    }
}

/// Table 2: gCAS latency statistics.
pub fn table2(rep: &mut Report, quick: bool) {
    rep.banner("Table 2: gCAS latency, Naïve vs HyperLoop (group=3, loaded replicas)");
    let opts = MicroOpts {
        ops: scaled(8000, quick),
        trace: rep.profile_enabled(),
        ..MicroOpts::default()
    };
    rep.line(latency_header("system"));
    let naive = run_primitive(SystemKind::NaiveEvent, gcas_plan(3), opts);
    rep.line(latency_row("Naive-RDMA gCAS", &naive.run.latency));
    let hl = run_primitive(SystemKind::HyperLoop, gcas_plan(3), opts);
    rep.line(latency_row("HyperLoop gCAS", &hl.run.latency));
    rep.line(format!(
        "gains: mean {} p95 {} p99 {}",
        ratio(naive.run.latency.mean, hl.run.latency.mean),
        ratio(naive.run.latency.p95, hl.run.latency.p95),
        ratio(naive.run.latency.p99, hl.run.latency.p99),
    ));
    for (kind, r) in [
        (SystemKind::NaiveEvent, &naive),
        (SystemKind::HyperLoop, &hl),
    ] {
        rep.scenario(
            micro_scenario(format!("table2/gCAS/{}", kind.label()), kind, &opts, r)
                .config("primitive", "gCAS"),
        );
    }
}

/// Figure 9: gWRITE throughput and replica CPU vs message size (unloaded
/// best case, pinned polling Naïve replicas — the paper's setup).
pub fn fig9(rep: &mut Report, quick: bool) {
    rep.banner("Figure 9: gWRITE throughput + replica CPU (group=3, unloaded)");
    let total_bytes: u64 = if quick { 32 << 20 } else { 256 << 20 };
    rep.line(format!(
        "{:<8} {:>14} {:>10} | {:>14} {:>10}",
        "size", "Naive Kops/s", "CPU", "HL Kops/s", "CPU"
    ));
    for size in FIG9_SIZES {
        let ops = (total_bytes / size).max(200);
        let opts = MicroOpts {
            ops,
            warmup: 50,
            window: 16,
            hogs_per_node: 0,
            pace: SimDuration::ZERO,
            trace: rep.profile_enabled(),
            ..MicroOpts::default()
        };
        let naive = run_primitive(
            SystemKind::NaivePolling,
            gwrite_plan_flush(size, false),
            opts,
        );
        let hl = run_primitive(SystemKind::HyperLoop, gwrite_plan_flush(size, false), opts);
        rep.line(format!(
            "{:<8} {:>14.0} {:>9.0}% | {:>14.0} {:>9.1}%",
            format!("{size}B"),
            naive.run.ops_per_sec() / 1e3,
            naive.replica_cpu * 100.0,
            hl.run.ops_per_sec() / 1e3,
            hl.replica_cpu * 100.0,
        ));
        for (kind, r) in [
            (SystemKind::NaivePolling, &naive),
            (SystemKind::HyperLoop, &hl),
        ] {
            rep.scenario(
                micro_scenario(format!("fig9/{size}B/{}", kind.label()), kind, &opts, r)
                    .config("primitive", "gWRITE")
                    .config("payload_bytes", size),
            );
        }
    }
}

/// Figure 10: p99 gWRITE latency vs group size (3/5/7), Naïve vs HyperLoop.
pub fn fig10(rep: &mut Report, quick: bool) {
    rep.banner("Figure 10: 99th-percentile gWRITE latency vs group size (loaded)");
    let sizes: [u64; 4] = [128, 512, 2048, 8192];
    rep.line(format!(
        "{:<8} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}",
        "size", "Naive g=3", "g=5", "g=7", "HL g=3", "g=5", "g=7"
    ));
    let mut rows: Vec<Vec<String>> = Vec::new();
    for size in sizes {
        let mut row = vec![format!("{size}B")];
        for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
            for gs in [3u32, 5, 7] {
                let opts = MicroOpts {
                    ops: scaled(2500, quick),
                    group_size: gs,
                    trace: rep.profile_enabled(),
                    ..MicroOpts::default()
                };
                let r = run_primitive(kind, gwrite_plan_flush(size, false), opts);
                row.push(us(r.run.latency.p99));
                rep.scenario(
                    micro_scenario(
                        format!("fig10/{size}B/g{gs}/{}", kind.label()),
                        kind,
                        &opts,
                        &r,
                    )
                    .config("primitive", "gWRITE")
                    .config("payload_bytes", size),
                );
            }
        }
        rows.push(row);
    }
    for row in rows {
        rep.line(format!(
            "{:<8} | {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12}",
            row[0], row[1], row[2], row[3], row[4], row[5], row[6]
        ));
    }
}
