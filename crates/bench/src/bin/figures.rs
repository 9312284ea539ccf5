//! Regenerates the HyperLoop paper's tables and figures.
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin figures -- all [--quick]
//! cargo run --release -p hyperloop-bench --bin figures -- fig8a table2 ...
//! cargo run --release -p hyperloop-bench --bin figures -- all --json out/
//! ```
//!
//! Each id in [`hyperloop_bench::exp::FIGURES`] runs in table order, and
//! its section prints as markdown right after it: the same section
//! `expgen` writes into `EXPERIMENTS.md` from the same scenarios, claim
//! verdict lines included.
//!
//! `--json <path>` additionally writes every reported scenario (latency
//! summary, metrics-registry snapshot, config, seed and — for traced
//! runners — a `stage_attribution` block) as machine-readable JSON: to
//! `<path>` itself, or to `<path>/BENCH_figures.json` when `<path>` is a
//! directory.
//!
//! `--trace <dir>` additionally writes per-scenario profiling artifacts
//! into `<dir>`: Chrome traces with interleaved counter tracks
//! (`TRACE_*.json` and `TXNTRACE_*.json`, open in Perfetto; the printed
//! sections' sparkline tables are folded from `TRACE_*.json`), flamegraph
//! collapsed stacks of simulated time (`FOLDED_*.txt`, feed to
//! flamegraph.pl / speedscope), audit reports (`AUDIT_*.json`) and tail
//! exemplars (`TAIL_*.json`). All of them are deterministic: a same-seed
//! run writes the same bytes.
//!
//! An unknown figure id, an unknown flag, or `--json`/`--trace` without a
//! value exits with status 2 and a usage line naming every valid id.

use hyperloop_bench::cli;
use hyperloop_bench::exp::{self, FIGURES};
use hyperloop_bench::report::Report;
use std::path::Path;

fn main() {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    let usage = format!(
        "usage: figures [all | <id>...] [--quick] [--json <path>] [--trace <dir>]\nids: {}",
        ids.join(" ")
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
        .find(|id| *id != "all" && !ids.contains(&id.as_str()))
    {
        cli::reject("figures", &format!("unknown figure id {id:?}"), &usage);
    }
    let quick = args.switch("--quick");
    let all = wanted.is_empty() || wanted.iter().any(|w| w == "all");

    let mut rep = Report::new("figures");
    rep.set_quick(quick);
    if let Some(p) = args.value("--json") {
        rep.set_json_path(Path::new(p));
    }
    let trace_dir = args.value("--trace").map(Path::new);
    if let Some(d) = trace_dir {
        rep.set_trace_dir(d);
    }

    if quick {
        println!("(quick mode: reduced op counts; tails are noisier)");
    }
    for fig in FIGURES {
        if !all && !wanted.iter().any(|w| w == fig.id) {
            continue;
        }
        let before = rep.len();
        (fig.run)(&mut rep, quick);
        let mut scns = exp::recorded(&rep, before);
        if let Some(d) = trace_dir {
            exp::attach_tracks(d, &mut scns).expect("read back the counter tracks");
        }
        print!("{}", exp::render(fig.id, fig.section, &scns));
    }
    rep.finish().expect("write JSON report");
}
