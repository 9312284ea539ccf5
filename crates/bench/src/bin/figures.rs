//! Regenerates the HyperLoop paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin figures -- all [--quick]
//! cargo run --release -p hyperloop-bench --bin figures -- fig8a table2 ...
//! cargo run --release -p hyperloop-bench --bin figures -- all --json out/
//! ```
//!
//! `--json <path>` additionally writes every reported scenario (latency
//! summary, metrics-registry snapshot, config, seed and — for traced
//! runners — a `stage_attribution` block) as machine-readable JSON: to
//! `<path>` itself, or to `<path>/BENCH_figures.json` when `<path>` is a
//! directory.
//!
//! `--trace <dir>` additionally writes per-scenario profiling artifacts
//! into `<dir>`: Chrome traces with interleaved counter tracks
//! (`TRACE_*.json`, open in Perfetto), flamegraph collapsed stacks
//! (`FOLDED_*.txt`, feed to flamegraph.pl / speedscope) and — for the
//! `hostperf` sweep — *wall-clock* folded stacks of the simulator itself
//! (`HOST_*.txt`).
//!
//! An unknown figure id, an unknown flag, or `--json`/`--trace` without a
//! value exits with status 2 and a usage line naming every valid id.

use hyperloop_bench::report::Report;
use hyperloop_bench::{cli, figures};
use std::path::Path;

/// Every figure id, in run order.
const IDS: [&str; 14] = [
    "fig2a",
    "fig2b",
    "fig8a",
    "fig8b",
    "table2",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "shardscale",
    "migrate",
    "hostperf",
    "txnmix",
    "ablations",
];

fn main() {
    let usage = format!(
        "usage: figures [all | <id>...] [--quick] [--json <path>] [--trace <dir>]\nids: {}",
        IDS.join(" ")
    );
    let args = cli::parse_or_exit(
        "figures",
        &usage,
        &["--quick"],
        &["--json", "--trace"],
        0..=usize::MAX,
    );
    let wanted = &args.positional;
    if let Some(id) = wanted
        .iter()
        .find(|id| *id != "all" && !IDS.contains(&id.as_str()))
    {
        cli::reject("figures", &format!("unknown figure id {id:?}"), &usage);
    }
    let quick = args.switch("--quick");
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let has = |name: &str| all || wanted.iter().any(|w| w == name);

    let mut rep = Report::new("figures");
    rep.set_quick(quick);
    if let Some(p) = args.value("--json") {
        rep.set_json_path(Path::new(p));
    }
    if let Some(d) = args.value("--trace") {
        rep.set_trace_dir(Path::new(d));
    }

    if quick {
        rep.line("(quick mode: reduced op counts; tails are noisier)");
    }
    if has("fig2a") {
        hyperloop_bench::mongo2::fig2a(&mut rep, quick);
    }
    if has("fig2b") {
        hyperloop_bench::mongo2::fig2b(&mut rep, quick);
    }
    if has("fig8a") {
        figures::fig8a(&mut rep, quick);
    }
    if has("fig8b") {
        figures::fig8b(&mut rep, quick);
    }
    if has("table2") {
        figures::table2(&mut rep, quick);
    }
    if has("fig9") {
        figures::fig9(&mut rep, quick);
    }
    if has("fig10") {
        figures::fig10(&mut rep, quick);
    }
    if has("fig11") {
        hyperloop_bench::appbench::fig11(&mut rep, quick);
    }
    if has("fig12") {
        hyperloop_bench::appbench::fig12(&mut rep, quick);
    }
    if has("shardscale") {
        hyperloop_bench::shardscale::shardscale(&mut rep, quick);
    }
    if has("migrate") {
        hyperloop_bench::migrate::migrate(&mut rep, quick);
    }
    if has("hostperf") {
        hyperloop_bench::hostperf::hostperf(&mut rep, quick);
    }
    if has("txnmix") {
        hyperloop_bench::txnmix::txnmix(&mut rep, quick);
    }
    if has("ablations") {
        hyperloop_bench::appbench::ablations(&mut rep, quick);
    }
    rep.finish().expect("write JSON report");
}
