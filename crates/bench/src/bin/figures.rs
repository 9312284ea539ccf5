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

use hyperloop_bench::figures;
use hyperloop_bench::report::Report;
use std::path::PathBuf;

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

fn usage() -> String {
    format!(
        "usage: figures [all | <id>...] [--quick] [--json <path>] [--trace <dir>]\nids: {}",
        IDS.join(" ")
    )
}

/// The parsed command line.
struct Args {
    quick: bool,
    json_path: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    wanted: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        quick: false,
        json_path: None,
        trace_dir: None,
        wanted: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => parsed.quick = true,
            "--json" | "--trace" => {
                let value = it
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("{arg} needs a value"))?;
                let slot = if arg == "--json" {
                    &mut parsed.json_path
                } else {
                    &mut parsed.trace_dir
                };
                *slot = Some(PathBuf::from(value));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            id if id == "all" || IDS.contains(&id) => parsed.wanted.push(id.to_string()),
            id => return Err(format!("unknown figure id {id:?}")),
        }
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return;
    }
    let Args {
        quick,
        json_path,
        trace_dir,
        wanted,
    } = parse(&args).unwrap_or_else(|msg| {
        eprintln!("figures: {msg}\n{}", usage());
        std::process::exit(2);
    });
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");
    let has = |name: &str| all || wanted.iter().any(|w| w == name);

    let mut rep = Report::new("figures");
    rep.set_quick(quick);
    if let Some(p) = &json_path {
        rep.set_json_path(p);
    }
    if let Some(d) = &trace_dir {
        rep.set_trace_dir(d);
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
