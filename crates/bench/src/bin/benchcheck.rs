//! Validates machine-readable `BENCH_*.json` reports.
//!
//! ```text
//! cargo run --release -p hyperloop-bench --bin benchcheck -- \
//!     [--baseline BENCH_BASELINE.json] out/BENCH_figures.json ...
//! ```
//!
//! An unknown flag, `--baseline`/`--host-baseline` without a value, or no
//! report at all exits with status 2 and the usage line, so a mistyped
//! gate can never pass silently.
//!
//! A report that parses but carries garbage is worse than no report, so
//! every report, and every baseline before it is used, must pass
//! [`hyperloop_bench::report::check_report`]: the report schema each
//! block declares next to its writer, with the block and scenario rules
//! (DESIGN.md, "Report schema"). The first failure exits 1, naming the
//! file, the scenario and the dotted key.
//!
//! With `--baseline`, every checked scenario that shares a name with a
//! baseline scenario must keep its `ops_per_sec` gauge within 25% of the
//! baseline value (the simulator is deterministic, so a real regression —
//! not machine noise — is the only way to lose throughput). A gated metric
//! the baseline scenario carries must be present in the report's scenario
//! too, so dropping it cannot switch its gate off.
//!
//! `--baseline` also soft-gates tail latency per scenario: a scenario
//! whose `latency.p99_ns` reaches 1.5× the same-name baseline p99 **warns**
//! to stderr, and one that reaches 3× **fails**. The simulator is
//! deterministic, so a p99 excursion is a real regression, but tail
//! percentiles of short quick-mode runs move more under legitimate code
//! changes than means do — hence the wider band than the throughput gate.
//! This paragraph is the single normative statement of those thresholds;
//! DESIGN.md and README.md defer to it.
//!
//! With `--host-baseline`, `host.ops_per_sec` is gated too. Host
//! throughput (unlike sim throughput) moves with machine load, so the gate
//! has two levels: below 50% of the committed baseline the check **fails**
//! (a machine-load excursion that deep on every scenario at once is not
//! plausible; a simulator regression is), and below 90% it **warns** to
//! stderr without failing — the early signal that the fastpath is eroding.
//! This paragraph is the single normative statement of those thresholds;
//! DESIGN.md and README.md defer to it.

use hyperloop_bench::{cli, report};
use simcore::jsonw::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Reads, parses and checks one report or baseline.
fn load(path: &str) -> Result<JsonValue, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = parse(&text).map_err(|e| format!("malformed JSON: {e}"))?;
    report::check_report(&doc)?;
    Ok(doc)
}

/// A checked baseline's scenarios by name.
fn by_name(doc: &JsonValue) -> BTreeMap<&str, &JsonValue> {
    doc.items("scenarios")
        .iter()
        .filter_map(|s| Some((s.get("name")?.as_str()?, s)))
        .collect()
}

/// The gated metric at `path` in the baseline scenario and in the
/// report's, or `None` when the baseline has none. The report must carry
/// every metric its baseline namesake does.
fn gated(
    s: &JsonValue,
    base: Option<&JsonValue>,
    path: [&str; 2],
) -> Result<Option<(f64, f64)>, String> {
    let Some(expected) = base.and_then(|b| b.at(&path)).and_then(JsonValue::as_f64) else {
        return Ok(None);
    };
    let metric = path.join(".");
    let got = s.at(&path).and_then(JsonValue::as_f64).ok_or_else(|| {
        format!("the baseline gates {metric} for this scenario but the report has none")
    })?;
    Ok(Some((expected, got)))
}

/// The three baseline gates for one scenario; warnings go to stderr.
fn gate(
    path: &str,
    name: &str,
    s: &JsonValue,
    base: Option<&JsonValue>,
    host_base: Option<&JsonValue>,
) -> Result<(), String> {
    let warn = |msg: String| eprintln!("benchcheck: {path}: scenario {name:?}: warning: {msg}");
    if let Some((expected, got)) = gated(s, base, ["gauges", "ops_per_sec"])? {
        let threshold = expected * 0.75;
        if got < threshold {
            return Err(format!(
                "throughput regression in scenario {name:?}, metric gauges.ops_per_sec: \
                 measured {got:.0} ops/s is below the threshold {threshold:.0} ops/s \
                 (75% of baseline {expected:.0} ops/s)"
            ));
        }
    }
    let p99 = gated(s, base, ["latency", "p99_ns"])?;
    if let Some((expected, got)) = p99.filter(|&(expected, _)| expected > 0.0) {
        let (fail_at, warn_at) = (expected * 3.0, expected * 1.5);
        if got >= fail_at {
            return Err(format!(
                "tail-latency regression in scenario {name:?}, metric latency.p99_ns: \
                 measured {got:.0} ns is at or above {fail_at:.0} ns (3x baseline \
                 {expected:.0} ns)"
            ));
        } else if got >= warn_at {
            warn(format!(
                "latency.p99_ns {got:.0} is at or above 1.5x the baseline {expected:.0} ns \
                 (soft ceiling {warn_at:.0}); not failing, but the tail is growing"
            ));
        }
    }
    if let Some((expected, got)) = gated(s, host_base, ["host", "ops_per_sec"])? {
        let (fail_below, warn_below) = (expected * 0.5, expected * 0.9);
        if got < fail_below {
            return Err(format!(
                "host throughput regression in scenario {name:?}, metric host.ops_per_sec: \
                 measured {got:.0} ops/s is below the threshold {fail_below:.0} ops/s \
                 (50% of host baseline {expected:.0} ops/s)"
            ));
        } else if got < warn_below {
            warn(format!(
                "host.ops_per_sec {got:.0} is below 90% of the host baseline {expected:.0} \
                 ops/s (soft floor {warn_below:.0}); not failing, but the fastpath is eroding"
            ));
        }
    }
    Ok(())
}

/// Checks every report (and the baselines) and gates each scenario.
fn run(args: &cli::Args) -> Result<(), String> {
    let baseline = |flag| {
        let path = args.value(flag)?;
        Some(load(path).map_err(|e| format!("baseline {path}: {e}")))
    };
    let base = baseline("--baseline").transpose()?;
    let host_base = baseline("--host-baseline").transpose()?;
    let base = base.as_ref().map(by_name).unwrap_or_default();
    let host_base = host_base.as_ref().map(by_name).unwrap_or_default();
    for path in &args.positional {
        let doc = load(path).map_err(|e| format!("{path}: {e}"))?;
        let scenarios = doc.items("scenarios");
        for s in scenarios {
            let name = s
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            gate(
                path,
                name,
                s,
                base.get(name).copied(),
                host_base.get(name).copied(),
            )
            .map_err(|e| format!("{path}: scenario {name:?}: {e}"))?;
        }
        println!("benchcheck: {path}: ok ({} scenarios)", scenarios.len());
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = cli::parse_or_exit(
        "benchcheck",
        "usage: benchcheck [--baseline BENCH_BASELINE.json] \
         [--host-baseline BENCH_BASELINE.json] <BENCH_*.json> ...",
        &[],
        &["--baseline", "--host-baseline"],
        1..=usize::MAX,
    );
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchcheck: {e}");
            ExitCode::FAILURE
        }
    }
}
