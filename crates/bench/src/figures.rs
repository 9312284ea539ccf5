//! Runners of the paper's microbenchmark figures and tables, and their
//! sections.

use crate::exp::{
    col, find, fmt_kops, fmt_ns, fmt_pct, fmt_ratio, sweep, Band, Claim, Col, Row, Rows, Scn,
    Section, Table, Verdict,
};
use crate::micro::{
    gcas_plan, gmemcpy_plan, gwrite_plan_flush, run_primitive, MicroOpts, MicroResult, SystemKind,
};
use crate::report::{Report, Scenario};
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
    fig8_inner(rep, quick, "fig8a", "gWRITE", |size| {
        gwrite_plan_flush(size, false)
    });
}

/// Figure 8(b): gMEMCPY latency vs message size.
pub fn fig8b(rep: &mut Report, quick: bool) {
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
    for size in FIG8_SIZES {
        for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
            let r = run_primitive(kind, plan_of(size), opts);
            rep.scenario(
                micro_scenario(format!("{fig}/{size}B/{}", kind.label()), kind, &opts, &r)
                    .config("primitive", name)
                    .config("payload_bytes", size),
            );
        }
    }
}

/// Table 2: gCAS latency statistics.
pub fn table2(rep: &mut Report, quick: bool) {
    let opts = MicroOpts {
        ops: scaled(8000, quick),
        trace: rep.profile_enabled(),
        ..MicroOpts::default()
    };
    for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
        let r = run_primitive(kind, gcas_plan(3), opts);
        rep.scenario(
            micro_scenario(format!("table2/gCAS/{}", kind.label()), kind, &opts, &r)
                .config("primitive", "gCAS"),
        );
    }
}

/// Figure 9: gWRITE throughput and replica CPU vs message size (unloaded
/// best case, pinned polling Naïve replicas — the paper's setup).
pub fn fig9(rep: &mut Report, quick: bool) {
    let total_bytes: u64 = if quick { 32 << 20 } else { 256 << 20 };
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
        for kind in [SystemKind::NaivePolling, SystemKind::HyperLoop] {
            let r = run_primitive(kind, gwrite_plan_flush(size, false), opts);
            rep.scenario(
                micro_scenario(format!("fig9/{size}B/{}", kind.label()), kind, &opts, &r)
                    .config("primitive", "gWRITE")
                    .config("payload_bytes", size),
            );
        }
    }
}

/// Figure 10: p99 gWRITE latency vs group size (3/5/7), Naïve vs HyperLoop.
pub fn fig10(rep: &mut Report, quick: bool) {
    let sizes: [u64; 4] = [128, 512, 2048, 8192];
    for size in sizes {
        for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
            for gs in [3u32, 5, 7] {
                let opts = MicroOpts {
                    ops: scaled(2500, quick),
                    group_size: gs,
                    trace: rep.profile_enabled(),
                    ..MicroOpts::default()
                };
                let r = run_primitive(kind, gwrite_plan_flush(size, false), opts);
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
    }
}

/// Naive's p99 over HyperLoop's, on a row of Naive and HyperLoop arms.
fn p99_gain(r: &Row<'_>) -> f64 {
    r.lat(0, "p99") / r.lat(1, "p99")
}

const FIG8_COLS: &[Col] = &[
    col("size", |r| r.key.clone()),
    col("Naive mean", |r| fmt_ns(r.lat(0, "mean"))),
    col("Naive p99", |r| fmt_ns(r.lat(0, "p99"))),
    col("HL mean", |r| fmt_ns(r.lat(1, "mean"))),
    col("HL p99", |r| fmt_ns(r.lat(1, "p99"))),
    col("p99 gain", |r| fmt_ratio(p99_gain(r))),
];

const FIG8A_ROWS: Rows = sweep("fig8a/", &["Naive-Event", "HyperLoop"]);
const FIG8B_ROWS: Rows = sweep("fig8b/", &["Naive-Event", "HyperLoop"]);

/// Figure 8(a)'s section.
pub const FIG8A: Section = Section {
    title: "Figure 8(a) — gWRITE latency vs message size (group = 3, loaded)",
    lead: "Paper: Naive-RDMA p99 is up to 801.8x higher than HyperLoop; HyperLoop is flat across sizes.",
    tables: &[Table::grid(FIG8A_ROWS, FIG8_COLS)],
    claims: &[
        Claim {
            says: "Naive-RDMA p99 is up to 801.8x higher than HyperLoop's.",
            measure: |all| FIG8A_ROWS.max(all, p99_gain),
            band: Band::Order(801.8),
            unit: fmt_ratio,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "HyperLoop's p99 is flat across sizes.",
            measure: |all| FIG8A_ROWS.values(all, |r| r.lat(1, "p99")),
            band: Band::Flat(0.1),
            unit: fmt_ns,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "",
};

/// Figure 8(b)'s section.
pub const FIG8B: Section = Section {
    title: "Figure 8(b) — gMEMCPY latency vs size",
    lead: "Paper: up to 848x p99 reduction.",
    tables: &[Table::grid(FIG8B_ROWS, FIG8_COLS)],
    claims: &[Claim {
        says: "HyperLoop cuts gMEMCPY's p99 up to 848x.",
        measure: |all| FIG8B_ROWS.max(all, p99_gain),
        band: Band::Order(848.0),
        unit: fmt_ratio,
        verdict: Verdict::Holds,
    }],
    note: "",
};

const TABLE2_ROWS: Rows = Rows::Listed(|all| {
    let (Some(n), Some(h)) = (
        find(all, "table2/gCAS/Naive-Event"),
        find(all, "table2/gCAS/HyperLoop"),
    ) else {
        return Vec::new();
    };
    vec![
        Row::new("measured Naive", vec![n], all),
        Row::new("measured HyperLoop", vec![h], all),
        Row::new("measured gains", vec![n, h], all),
    ]
});

/// A Table 2 cell: one system's latency `field`, or on the gains row
/// Naive's over HyperLoop's.
fn table2_cell(r: &Row<'_>, field: &str) -> String {
    match r.scns.len() {
        1 => fmt_ns(r.lat(0, field)),
        _ => fmt_ratio(r.lat(0, field) / r.lat(1, field)),
    }
}

/// Naive's gCAS latency `field` over HyperLoop's.
fn gcas_gain(all: &[Scn], field: &str) -> Vec<f64> {
    let gains = TABLE2_ROWS
        .of(all)
        .into_iter()
        .filter(|r| r.scns.len() == 2);
    gains.map(|r| r.lat(0, field) / r.lat(1, field)).collect()
}

/// Table 2's section.
pub const TABLE2: Section = Section {
    title: "Table 2 — gCAS latency",
    lead: "Paper: Naive 539 us mean / 11 886 us p99 vs HyperLoop 10 us mean / 14 us p99 — gains of 53.9x (mean) to 849x (p99).",
    tables: &[Table::grid(
        TABLE2_ROWS,
        &[
            col("", |r| r.key.clone()),
            col("mean", |r| table2_cell(r, "mean")),
            col("p95", |r| table2_cell(r, "p95")),
            col("p99", |r| table2_cell(r, "p99")),
        ],
    )],
    claims: &[
        Claim {
            says: "HyperLoop cuts gCAS's mean latency 53.9x.",
            measure: |all| gcas_gain(all, "mean"),
            band: Band::Order(53.9),
            unit: fmt_ratio,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "HyperLoop cuts gCAS's p99 latency 849x.",
            measure: |all| gcas_gain(all, "p99"),
            band: Band::Order(849.0),
            unit: fmt_ratio,
            verdict: Verdict::Holds,
        },
    ],
    note: "",
};

const FIG9_ROWS: Rows = sweep("fig9/", &["Naive-Polling", "HyperLoop"]);

/// Figure 9's section.
pub const FIG9: Section = Section {
    title: "Figure 9 — gWRITE throughput + replica CPU (unloaded, pinned baseline)",
    lead: "Paper: similar throughput for both systems; Naive burns a full core per replica, HyperLoop ~0%.",
    tables: &[Table::grid(
        FIG9_ROWS,
        &[
            col("size", |r| r.key.clone()),
            col("Naive Kops/s", |r| fmt_kops(r.gauge(0, "ops_per_sec"))),
            col("Naive CPU", |r| fmt_pct(r.gauge(0, "replica_cpu"))),
            col("HL Kops/s", |r| fmt_kops(r.gauge(1, "ops_per_sec"))),
            col("HL CPU", |r| format!("{:.1}%", r.gauge(1, "replica_cpu") * 100.0)),
        ],
    )],
    claims: &[
        Claim {
            says: "Both systems reach similar throughput.",
            measure: |all| {
                FIG9_ROWS.values(all, |r| {
                    r.gauge(1, "ops_per_sec") / r.gauge(0, "ops_per_sec")
                })
            },
            band: Band::Similar(1.0),
            unit: |v| format!("{v:.2}x"),
            verdict: Verdict::Diverges("open"),
        },
        Claim {
            says: "Naive burns a full core per replica.",
            measure: |all| FIG9_ROWS.values(all, |r| r.gauge(0, "replica_cpu")),
            band: Band::Similar(1.0),
            unit: fmt_pct,
            verdict: Verdict::Holds,
        },
        Claim {
            says: "HyperLoop's replica CPU stays near 0%.",
            measure: |all| FIG9_ROWS.values(all, |r| r.gauge(1, "replica_cpu")),
            band: Band::Under(0.1),
            unit: |v| format!("{:.1}%", v * 100.0),
            verdict: Verdict::Holds,
        },
    ],
    note: "",
};

const FIG10_ROWS: Rows = sweep(
    "fig10/",
    &[
        "g3/Naive-Event",
        "g5/Naive-Event",
        "g7/Naive-Event",
        "g3/HyperLoop",
        "g5/HyperLoop",
        "g7/HyperLoop",
    ],
);

/// Figure 10's section.
pub const FIG10: Section = Section {
    title: "Figure 10 — p99 latency vs group size (3/5/7)",
    lead: "Paper: Naive p99 grows up to 2.97x with group size; HyperLoop shows no significant degradation.",
    tables: &[Table::grid(
        FIG10_ROWS,
        &[
            col("size", |r| r.key.clone()),
            col("Naive g=3", |r| fmt_ns(r.lat(0, "p99"))),
            col("g=5", |r| fmt_ns(r.lat(1, "p99"))),
            col("g=7", |r| fmt_ns(r.lat(2, "p99"))),
            col("HL g=3", |r| fmt_ns(r.lat(3, "p99"))),
            col("g=5", |r| fmt_ns(r.lat(4, "p99"))),
            col("g=7", |r| fmt_ns(r.lat(5, "p99"))),
        ],
    )],
    claims: &[
        Claim {
            says: "Naive's p99 grows up to 2.97x from 3 to 7 replicas.",
            measure: |all| FIG10_ROWS.max(all, |r| r.lat(2, "p99") / r.lat(0, "p99")),
            band: Band::Similar(2.97),
            unit: fmt_ratio,
            verdict: Verdict::Diverges("open"),
        },
        Claim {
            says: "HyperLoop's p99 shows no significant degradation from 3 to 7 replicas.",
            measure: |all| FIG10_ROWS.values(all, |r| r.lat(5, "p99") / r.lat(3, "p99")),
            band: Band::Under(1.2),
            unit: fmt_ratio,
            verdict: Verdict::Diverges("open"),
        },
    ],
    note: "",
};
