//! `perfbench`: the repository's benchmark.
//!
//! One command runs one named workload from a seed for a time budget,
//! checks the outputs, and prints every metric by name with its unit, then
//! a one-line JSON result:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain_write --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics with the benchmark's own
//! instrumentation off. `--trace 1` reports the per-layer metrics of traced
//! repetitions of the same workload and seed, beside untraced ones that
//! give the tracing overhead. A run repeats the workload, on a fresh
//! cluster each time, until the budget is spent and reports medians over
//! the repetitions. See `README.md`.

mod alloc;
mod spans;
mod workload;

use spans::{Call, Class};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{run_rep, Kind, Rep, RepOpts};

const USAGE: &str = "usage: perfbench --workload <chain_write|tenant_naive|txn_contended> \
                     --seed <n> --seconds <n> --trace <0|1>";

const MIB: f64 = 1024.0 * 1024.0;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    match report {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The end-to-end metrics, with the benchmark's own instrumentation off.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let runs = repeat(args.seconds, 2, &[RepOpts::new(args.kind, args.seed)])?;
    let reps = &runs[0];
    let mut r = Report::new(args, reps.iter());
    let sim = &reps[0].sim;
    let ops = sim.completed.max(1) as f64;
    // The simulator is single-threaded, so its thread's CPU time is its
    // wall time on an undisturbed core. Other tenants of a shared machine
    // only ever add to that, in bursts. Lap `k` is the same simulated work
    // in every repetition, so its least disturbed run is the steadiest
    // figure for it; the laps add up to the measured window.
    let measured: Duration = (0..reps[0].cpu_laps.len())
        .map(|k| fastest(reps, |x| x.cpu_laps.get(k)))
        .sum();
    r.metric("host_us_per_op", measured.as_secs_f64() * 1e6 / ops, "us");
    // So is each cluster's set-up: its fastest run, median over the
    // clusters of a repetition.
    let setups = (0..reps[0].setups.len()).map(|k| fastest(reps, |x| x.setups.get(k)));
    r.metric("setup_s", median(setups.map(|d| d.as_secs_f64())), "s");
    r.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
    r.metric("sim_p50_us", sim.p50_ns as f64 / 1e3, "us");
    r.metric("sim_p99_us", sim.p99_ns as f64 / 1e3, "us");
    r.metric(
        "sim_kops",
        ratio(sim.completed as f64, sim.span_ns as f64 / 1e9) / 1e3,
        "kop/s",
    );
    // Zero on a healthy run (and wherever the simulator's tracing is off),
    // so they are printed for people but are not contract metrics.
    r.note(
        "failed_frac",
        ratio(sim.failed as f64, sim.attempted as f64),
        "ratio",
    );
    r.note("trace_mib", sim.trace_bytes as f64 / MIB, "MiB");
    Ok(r)
}

/// The per-layer metrics: traced repetitions for the span times, untraced
/// ones for the tracing overhead, and for `txn_contended` an arm with the
/// simulator's tracer and auditors off for the observability tax.
fn per_layer(args: &Args) -> Result<Report, String> {
    alloc::count_allocations();
    let plain = RepOpts::new(args.kind, args.seed);
    let mut arms = vec![
        plain,
        RepOpts {
            traced: true,
            ..plain
        },
    ];
    if args.kind == Kind::TxnContended {
        arms.push(RepOpts {
            sim_obs: false,
            ..plain
        });
    }
    let runs = repeat(args.seconds, 1, &arms)?;
    let (plain, traced) = (&runs[0], &runs[1]);
    let mut r = Report::new(args, plain.iter().chain(traced));
    let sim = &plain[0].sim;
    if let Some(bare) = runs.get(2) {
        if bare.iter().any(|x| x.sim.timeline() != sim.timeline()) {
            r.problems
                .push("the simulator's tracer and auditors moved the simulated timeline".into());
        }
    }

    let ops = sim.completed.max(1) as f64;
    let count = |name: &str| sim.counts.get(name) as f64;
    let per_op = |name: &str| count(name) / ops;
    let commits = count("txn.committed");
    let per_commit = |name: &str| ratio(count(name), commits);
    let part = |i: usize| median(traced.iter().map(|x| tiling(x)[i].1 / ops));
    let ms = |f: fn(&Rep) -> Duration| median(plain.iter().map(|x| f(x).as_secs_f64() * 1e3));
    let host = |f: fn(&Rep) -> f64| median(plain.iter().map(f));

    r.metric("queue.events_per_op", per_op("events"), "count");
    r.metric("queue.pop_ns_per_op", part(0), "ns");
    r.metric("rnicsim.engine_ns_per_op", part(1), "ns");
    r.metric("rnicsim.deliver_ns_per_op", part(2), "ns");
    r.metric("rnicsim.wqes_per_op", per_op("wqes"), "count");
    r.metric("rnicsim.waits_per_op", per_op("waits"), "count");
    r.metric("rnicsim.errors", count("errors"), "count");
    r.metric("netsim.messages_per_op", per_op("messages"), "count");
    r.metric("netsim.bytes_per_op", per_op("net_bytes"), "B");
    r.metric(
        "nvmsim.write_amp",
        ratio(count("nvm_bytes"), sim.user_bytes as f64),
        "ratio",
    );
    r.metric("nvmsim.flushes_per_op", per_op("nvm_flushes"), "count");
    r.metric("cpusched.ns_per_op", part(3), "ns");
    r.metric(
        "cpusched.events_per_op",
        traced[0].spans.events(Class::Cpu) as f64 / ops,
        "count",
    );
    r.metric(
        "cpusched.context_switches_per_op",
        per_op("context_switches"),
        "count",
    );
    r.metric("cpusched.wakeups_per_op", per_op("wakeups"), "count");
    r.metric("cpusched.replica_cpu_frac", sim.replica_cpu_frac, "ratio");
    r.metric("testbed.dispatch_ns_per_op", part(4), "ns");
    r.metric("testbed.build_ms", ms(|x| x.build), "ms");
    r.metric("group.issue_ns_per_op", part(5), "ns");
    r.metric("group.poll_ns_per_op", part(6), "ns");
    r.metric("group.replenish_ns_per_op", part(7), "ns");
    r.metric("group.setup_ms", ms(|x| x.group_setup), "ms");
    r.metric("txn.pump_ns_per_commit", part(8), "ns");
    r.metric("txn.build_ns_per_commit", part(9), "ns");
    r.metric(
        "txn.attempts_per_commit",
        per_commit("txn.started"),
        "count",
    );
    r.metric(
        "txn.useful_frac",
        ratio(commits, count("txn.started")),
        "ratio",
    );
    r.metric(
        "txn.lock_retries_per_commit",
        per_commit("txn.lock_retries"),
        "count",
    );
    r.metric(
        "txn.backoff_us_per_commit",
        per_commit("txn.backoff_ns") / 1e3,
        "us",
    );
    for name in [
        "txn.abort.lock_conflict",
        "txn.abort.validation_failed",
        "txn.abort.backoff_exhausted",
    ] {
        r.metric(name, count(name), "count");
    }
    let tax = runs.get(2).map_or(0.0, |bare| {
        100.0 * (wall_per_op(plain, ops) / wall_per_op(bare, ops) - 1.0)
    });
    r.metric("obs.tax_pct", tax, "%");
    r.metric("obs.fold_ms", ms(|x| x.fold), "ms");
    r.metric("obs.export_ms", ms(|x| x.export), "ms");
    r.metric("obs.events_captured", sim.events_captured as f64, "count");
    r.metric("obs.dropped", sim.dropped as f64, "count");
    r.metric("obs.audit_violations", sim.violations as f64, "count");
    r.metric("obs.trace_mib", sim.trace_bytes as f64 / MIB, "MiB");
    r.metric(
        "host.allocs_per_op",
        host(|x| x.alloc.allocs as f64) / ops,
        "count",
    );
    r.metric(
        "host.alloc_bytes_per_op",
        host(|x| x.alloc.alloc_bytes as f64) / ops,
        "B",
    );
    r.metric(
        "host.setup_alloc_mib",
        host(|x| x.setup_alloc_bytes as f64) / MIB,
        "MiB",
    );
    r.metric("host.warmup_ms", ms(|x| x.warmup), "ms");
    r.metric(
        "trace.overhead_pct",
        100.0 * (wall_per_op(traced, ops) / wall_per_op(plain, ops) - 1.0),
        "%",
    );
    // The spans tile the traced wall time; the signed residual closes the
    // sum. Below zero the spans overstate their time, so the metric is its
    // distance from zero.
    let residual = median(traced.iter().map(|x| {
        let wall = x.measured.as_nanos() as f64;
        100.0 * (wall - tiling(x).iter().map(|(_, ns)| ns).sum::<f64>()) / wall
    }));
    r.metric("trace.residual_pct", residual.abs(), "%");
    r.note("trace.residual_signed_pct", residual, "%");
    for (i, (name, _)) in tiling(&traced[0]).iter().enumerate() {
        let share = median(
            traced
                .iter()
                .map(|x| 100.0 * tiling(x)[i].1 / x.measured.as_nanos() as f64),
        );
        r.note(&format!("span.{name}_pct"), share, "%");
    }
    Ok(r)
}

/// One traced repetition's measured wall time, tiled into span self times
/// in nanoseconds; what they leave uncovered is `trace.residual_pct`.
fn tiling(x: &Rep) -> [(&'static str, f64); 12] {
    let s = &x.spans;
    let dispatch: f64 = Class::DISPATCH.iter().map(|&c| s.self_ns(c)).sum();
    [
        ("queue.pop", s.pop.total_ns()),
        ("rnicsim.engine", s.handle_ns(Class::Engine)),
        ("rnicsim.deliver", s.handle_ns(Class::Deliver)),
        ("cpusched", s.handle_ns(Class::Cpu)),
        ("testbed.dispatch", dispatch),
        ("group.issue", s.call_ns(Call::Issue)),
        ("group.poll", s.call_ns(Call::Poll)),
        ("group.replenish", s.call_ns(Call::Replenish)),
        ("txn.pump", s.call_ns(Call::Pump)),
        ("txn.build", s.call_ns(Call::Build)),
        ("obs.fold", x.fold.as_nanos() as f64),
        ("obs.export", x.export.as_nanos() as f64),
    ]
}

/// Runs the arms in turn, a fresh cluster each time, while another round
/// of them fits in the budget, and until every arm has `min` repetitions.
/// Alternating the arms spreads the machine's noise over all of them alike.
fn repeat(seconds: u64, min: usize, arms: &[RepOpts]) -> Result<Vec<Vec<Rep>>, String> {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut round = Duration::ZERO;
    let mut runs: Vec<Vec<Rep>> = arms.iter().map(|_| Vec::new()).collect();
    while runs[0].len() < min || start.elapsed() + round <= budget {
        let t = Instant::now();
        for (arm, reps) in arms.iter().zip(&mut runs) {
            reps.push(run_rep(arm)?);
        }
        round = t.elapsed();
    }
    Ok(runs)
}

/// The least disturbed run of one piece of work, which is the same
/// simulated work in every repetition of a seed.
fn fastest<'a>(reps: &'a [Rep], part: impl Fn(&'a Rep) -> Option<&'a Duration>) -> Duration {
    reps.iter()
        .filter_map(part)
        .min()
        .copied()
        .unwrap_or_default()
}

/// Median measured wall nanoseconds per op.
fn wall_per_op(reps: &[Rep], ops: f64) -> f64 {
    median(reps.iter().map(|x| x.measured.as_nanos() as f64 / ops))
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The process's peak resident set (VmHWM), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read the peak resident set: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|kb| kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in the process status".into())
}

/// What a run prints: every metric by name with its unit, then the JSON
/// result line.
struct Report {
    header: String,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// The contract metrics, also in the JSON line.
    metrics: Vec<(String, f64, &'static str)>,
    /// Context for people only.
    notes: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// A report on `reps`, which must all have simulated the same thing.
    fn new<'a>(args: &Args, reps: impl Iterator<Item = &'a Rep>) -> Report {
        let reps: Vec<&Rep> = reps.collect();
        let sim = &reps[0].sim;
        let mut problems = sim.failures.clone();
        if reps.iter().any(|x| x.sim != *sim) {
            problems.push("the simulated results differ between repetitions of one seed".into());
        }
        Report {
            header: format!(
                "perfbench {} seed {} trace {}: {} repetitions",
                args.kind.name(),
                args.seed,
                u8::from(args.trace),
                reps.len()
            ),
            attempted: sim.attempted,
            failed: sim.failed,
            problems,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), finite(value), unit));
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), finite(value), unit));
    }

    fn print(&self) {
        println!("{}", self.header);
        for (name, value, unit) in self.metrics.iter().chain(&self.notes) {
            println!("  {name:<34} {value:>16.4} {unit}");
        }
        for problem in &self.problems {
            println!("  check failed: {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// JSON has no NaN or infinity.
fn finite(value: f64) -> f64 {
    if value.is_finite() {
        value
    } else {
        0.0
    }
}
