//! benchcheck's verdicts, pinned case by case.
//!
//! Every case starts from the committed `BENCH_BASELINE.json`, which holds
//! every report block kind, applies a few edits to one scenario, and runs
//! the `benchcheck` binary on the result with both baseline gates on. A
//! rejection must exit with status 1 and name the scenario and the
//! offending key on stderr; an accepted document must exit 0.
//!
//! Each document keeps only the scenario under test (the checks are per
//! scenario), so a case parses a few dozen kilobytes, not the whole
//! baseline.

use simcore::jsonw::{parse, to_string, JsonValue};
use std::path::{Path, PathBuf};
use std::process::Command;

const BENCHCHECK: &str = env!("CARGO_BIN_EXE_benchcheck");
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_BASELINE.json");

/// A scenario with stage attribution, tail exemplars, series and metrics.
const SHARD: &str = "shardscale/1";
/// A scenario with per-shard `acked`/`issued` counters.
const MIGRATE: &str = "migrate/2";
/// A scenario with `txn.*` counters, `txn_breakdown` and `abort_causes`.
const TXN: &str = "txnmix/locking/theta0.5";
/// A scenario without a `metrics` block.
const HOSTPERF: &str = "hostperf/250";

/// Deletes the addressed key (or array element) instead of setting it.
const DEL: &str = "";

/// One edit: a `/`-separated path of object keys and array indices,
/// relative to the scenario (or to the document root), and the new value.
/// The value is JSON text, [`DEL`], `*k` (scale the current number by
/// `k`), `+k` (add `k` to it) or `@path` (copy the value at `path`,
/// relative to the edited key's parent).
type Edit<'a> = (&'a str, &'a str);

struct Case<'a> {
    /// The scenario kept in the document; the edits apply to it.
    scenario: &'static str,
    /// Edits to the report document.
    report: Vec<Edit<'a>>,
    /// Edits to the copy passed as `--baseline`/`--host-baseline`.
    baseline: Vec<Edit<'a>>,
    /// Substrings stderr must carry besides the scenario name.
    expect: Vec<&'static str>,
}

fn rej<'a>(scenario: &'static str, report: &[Edit<'a>], expect: &[&'static str]) -> Case<'a> {
    Case {
        scenario,
        report: report.to_vec(),
        baseline: Vec::new(),
        expect: expect.to_vec(),
    }
}

fn baseline_doc() -> JsonValue {
    parse(&std::fs::read_to_string(BASELINE).expect("read baseline")).expect("parse baseline")
}

fn fields(v: &mut JsonValue) -> &mut Vec<(String, JsonValue)> {
    match v {
        JsonValue::Obj(f) => f,
        other => panic!("not an object: {other:?}"),
    }
}

/// The document reduced to the named scenario.
fn single(doc: &JsonValue, scenario: &str) -> JsonValue {
    let mut doc = doc.clone();
    for (k, v) in fields(&mut doc) {
        if k == "scenarios" {
            let JsonValue::Arr(all) = v else {
                panic!("scenarios is not an array")
            };
            all.retain(|s| s.get("name").and_then(|n| n.as_str()) == Some(scenario));
            assert_eq!(all.len(), 1, "baseline has no scenario {scenario}");
        }
    }
    doc
}

fn child<'a>(v: &'a mut JsonValue, key: &str) -> &'a mut JsonValue {
    match v {
        JsonValue::Obj(f) => {
            let i = f
                .iter()
                .position(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("no key {key}"));
            &mut f[i].1
        }
        JsonValue::Arr(a) => &mut a[key.parse::<usize>().expect("array index")],
        other => panic!("{key}: not a container: {other:?}"),
    }
}

fn number(v: f64) -> JsonValue {
    if v >= 0.0 && v.fract() == 0.0 {
        JsonValue::U64(v as u64)
    } else {
        JsonValue::F64(v)
    }
}

/// Applies one edit to the document's only scenario, or to the root when
/// the path starts with `/`.
fn apply(doc: &mut JsonValue, (path, value): Edit) {
    let mut node = doc;
    let path = match path.strip_prefix('/') {
        Some(rooted) => rooted,
        None => {
            node = child(child(node, "scenarios"), "0");
            path
        }
    };
    let (parents, last) = match path.rsplit_once('/') {
        Some((p, l)) => (p.split('/').collect::<Vec<_>>(), l),
        None => (Vec::new(), path),
    };
    for k in parents {
        node = child(node, k);
    }
    let old = || match &*node {
        JsonValue::Obj(f) => f.iter().find(|(k, _)| k == last).map(|(_, v)| v.clone()),
        JsonValue::Arr(a) => last.parse::<usize>().ok().and_then(|i| a.get(i).cloned()),
        _ => None,
    };
    let old_num = || {
        old()
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{path} is not a number"))
    };
    let new = match value.as_bytes().first() {
        None => None,
        Some(b'*') => Some(number(old_num() * value[1..].parse::<f64>().unwrap())),
        Some(b'+') => Some(number(old_num() + value[1..].parse::<f64>().unwrap())),
        Some(b'@') => {
            let mut src = node.clone();
            let mut at = &mut src;
            for k in value[1..].split('/') {
                at = child(at, k);
            }
            Some(at.clone())
        }
        Some(_) => Some(parse(value).unwrap_or_else(|e| panic!("{value}: {e}"))),
    };
    match (node, new) {
        (JsonValue::Arr(a), None) => {
            a.remove(last.parse::<usize>().unwrap());
        }
        (JsonValue::Arr(a), Some(v)) => a[last.parse::<usize>().unwrap()] = v,
        (obj, None) => fields(obj).retain(|(k, _)| k != last),
        (obj, Some(v)) => {
            let f = fields(obj);
            match f.iter_mut().find(|(k, _)| k == last) {
                Some(slot) => slot.1 = v,
                None => f.push((last.to_string(), v)),
            }
        }
    }
}

/// Writes `doc` to `dir/name`. The writer has no infinity, so the string
/// `"1e999"` is written as the bare number, which parses as infinite.
fn write(dir: &Path, name: &str, doc: &JsonValue) -> PathBuf {
    let path = dir.join(name);
    let text = to_string(doc).replace(r#""1e999""#, "1e999");
    std::fs::write(&path, text).expect("write case");
    path
}

fn scratch(test: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(test);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs benchcheck on `report` with both gates against `baseline`.
fn benchcheck(report: &Path, baseline: &Path) -> (Option<i32>, String) {
    let out = Command::new(BENCHCHECK)
        .arg("--baseline")
        .arg(baseline)
        .arg("--host-baseline")
        .arg(baseline)
        .arg(report)
        .output()
        .expect("spawn benchcheck");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs every case and returns a description of each that misbehaved.
fn run(test: &str, cases: &[Case<'_>], reject: bool) -> Vec<String> {
    let doc = baseline_doc();
    let dir = scratch(test);
    let mut bad = Vec::new();
    for (i, c) in cases.iter().enumerate() {
        let mut report = single(&doc, c.scenario);
        let mut base = report.clone();
        for &e in &c.report {
            apply(&mut report, e);
        }
        for &e in &c.baseline {
            apply(&mut base, e);
        }
        let report = write(&dir, &format!("report{i}.json"), &report);
        let base = write(&dir, &format!("baseline{i}.json"), &base);
        let (code, stderr) = benchcheck(&report, &base);
        let named = c.expect.iter().all(|s| stderr.contains(s));
        let ok = if reject {
            code == Some(1) && named && stderr.contains(c.scenario)
        } else {
            code == Some(0) && named
        };
        if !ok {
            bad.push(format!(
                "case {i} ({} {:?} / baseline {:?}): exit {code:?}, stderr: {}",
                c.scenario,
                c.report,
                c.baseline,
                stderr.trim()
            ));
        }
    }
    bad
}

fn assert_all(test: &str, cases: &[Case<'_>], reject: bool) {
    let bad = run(test, cases, reject);
    assert!(
        bad.is_empty(),
        "{} of {} cases misbehaved:\n{}",
        bad.len(),
        cases.len(),
        bad.join("\n")
    );
}

#[test]
fn every_rejection_names_its_scenario_and_key() {
    let nni = "non-negative integer";
    let cases = vec![
        // Scenario identity and the mandatory host block.
        rej(SHARD, &[("host", DEL)], &["host"]),
        // latency: an object of non-negative integers.
        rej(SHARD, &[("latency", "[]")], &["latency is not an object"]),
        rej(SHARD, &[("latency/p99_ns", "\"x\"")], &["latency.p99_ns", nni]),
        rej(SHARD, &[("latency/mean_ns", "null")], &["latency.mean_ns", "null"]),
        rej(SHARD, &[("latency/max_ns", "1.5")], &["latency.max_ns", nni]),
        // gauges: an open object of finite numbers.
        rej(SHARD, &[("gauges", "[]")], &["gauges is not an object"]),
        rej(SHARD, &[("gauges/speedup", "\"fast\"")], &["gauges.speedup", "finite number"]),
        rej(SHARD, &[("gauges/ops_per_sec", "null")], &["gauges.ops_per_sec", "null"]),
        // health.
        rej(SHARD, &[("health/violations", "2")], &["2 invariant violation"]),
        rej(SHARD, &[("health/violations", "\"x\"")], &["health.violations"]),
        rej(SHARD, &[("health/breaches", "-1")], &["health.breaches", nni]),
        rej(SHARD, &[("health/shards", "{}")], &["health.shards is not an array"]),
        rej(SHARD, &[("health/shards/0/shard", "\"a\"")], &["].shard is not a non-negative integer"]),
        rej(SHARD, &[("health/shards/0/state", DEL)], &["state"]),
        rej(SHARD, &[("health/shards/0/state", "\"sick\"")], &["state", "\"sick\"", "outside the closed"]),
        rej(SHARD, &[("health/shards/0/acks", "1.5")], &["acks", nni]),
        // host: closed keys, positive rates, balanced queue.
        rej(SHARD, &[("host", "1")], &["host is not an object"]),
        rej(SHARD, &[("host/bogus", "1")], &["host.bogus is outside the closed key set"]),
        rej(SHARD, &[("host/sim_ns", DEL)], &["host.sim_ns is missing"]),
        rej(SHARD, &[("host/wall_ms", "0")], &["host.wall_ms", "positive"]),
        rej(SHARD, &[("host/ops_per_sec", "null")], &["host.ops_per_sec", "null"]),
        rej(SHARD, &[("host/events_per_sec", "\"x\"")], &["host.events_per_sec", "not a"]),
        rej(SHARD, &[("host/ops", "1.5")], &["host.ops", nni]),
        rej(SHARD, &[("host/queue", "[]")], &["host.queue is not an object"]),
        rej(SHARD, &[("host/queue/pushed", "\"x\"")], &["host.queue.pushed", nni]),
        rej(SHARD, &[("host/queue/max_depth", DEL)], &["host.queue.max_depth is missing"]),
        rej(SHARD, &[("host/queue/popped", "@pushed"), ("host/queue/pushed", "1")], &["host.queue.popped=", "exceeds host.queue.pushed=1"]),
        rej(SHARD, &[("host/alloc/frees", DEL)], &["host.alloc.frees is missing"]),
        rej(SHARD, &[("host/alloc/allocs", "null")], &["host.alloc.allocs", "null"]),
        rej(SHARD, &[("host/obs_tax", "3")], &["host.obs_tax is not an object"]),
        rej(SHARD, &[("host/obs_tax/extra", "1")], &["host.obs_tax.extra is outside the closed key set"]),
        rej(SHARD, &[("host/obs_tax/bare_wall_ms", "-1")], &["host.obs_tax.bare_wall_ms", "positive"]),
        rej(SHARD, &[("host/obs_tax/overhead_pct", DEL)], &["host.obs_tax.overhead_pct is missing"]),
        rej(SHARD, &[("host/obs_tax/overhead_pct", "\"1e999\"")], &["host.obs_tax.overhead_pct", "finite"]),
        // metrics: counters, gauges, histograms and the registry rules.
        rej(SHARD, &[("metrics/counters", "[]")], &["metrics.counters is not an object"]),
        rej(SHARD, &[("metrics/counters/audit.violations", "2")], &["audit.violations", "expected 0"]),
        rej(SHARD, &[("metrics/counters/audit.txn.violations", "0.5")], &["metrics.counters.audit.txn.violations", nni]),
        rej(SHARD, &[("metrics/counters/audit.txn.violations", "null")], &["metrics.counters.audit.txn.violations", "null"]),
        rej(MIGRATE, &[("metrics/counters/bench.shards.shard1.acked", "@bench.shards.shard0.issued"), ("metrics/counters/bench.shards.shard1.issued", "1")], &["bench.shards.shard1.acked=", "exceeds bench.shards.shard1.issued=1"]),
        rej(MIGRATE, &[("metrics/counters/bench.shards.shard1.issued", DEL)], &["bench.shards.shard1.acked has no sibling bench.shards.shard1.issued"]),
        rej(SHARD, &[("metrics/gauges/bench.elapsed_secs", "\"x\"")], &["metrics.gauges.bench.elapsed_secs", "finite number"]),
        rej(SHARD, &[("metrics/histograms/bench.op_latency", "3")], &["bench.op_latency is not an object"]),
        rej(SHARD, &[("metrics/histograms/bench.op_latency/p99_ns", "1.5")], &["metrics.histograms.bench.op_latency.p99_ns", nni]),
        // The txn.* registry rules.
        rej(TXN, &[("metrics/counters/txn.committed", DEL)], &["txn.committed", "missing"]),
        rej(TXN, &[("metrics/counters/txn.aborted", DEL)], &["txn.aborted", "missing"]),
        rej(TXN, &[("metrics/counters/txn.lock_retries", DEL)], &["txn.lock_retries", "missing"]),
        rej(TXN, &[("metrics/counters/txn.committed", "*10")], &["txn.committed=", "exceeds txn.started="]),
        rej(TXN, &[("metrics/counters/txn.aborted", "*100")], &["txn.aborted=", "exceeds txn.started="]),
        rej(TXN, &[("metrics/counters/txn.started", "@txn.committed")], &["txn.committed=", " + txn.aborted=", "exceeds txn.started="]),
        rej(TXN, &[("metrics/counters/txn.abort_causes.lock_conflict", DEL)], &["txn.abort_causes.lock_conflict", "missing"]),
        rej(TXN, &[("metrics/counters/txn.abort_causes.backoff_exhausted", "@txn.started")], &["txn.abort_causes.* sum to", "txn.aborted="]),
        rej(TXN, &[("metrics/counters/txn.backoff.parks", DEL)], &["txn.backoff.parks", "missing"]),
        rej(TXN, &[("metrics/counters/txn.contention.wait_ns", DEL)], &["txn.contention.wait_ns", "absent"]),
        rej(TXN, &[("metrics/counters/txn.abort_causes.timeout", "0")], &["txn.abort_causes.timeout", "outside the closed"]),
        rej(TXN, &[("metrics/counters/txn.backoff.jitter", "0")], &["txn.backoff.jitter", "outside the closed"]),
        rej(TXN, &[("metrics/counters/txn.contention.site.s0.lx.attempts", "0")], &["txn.contention.site.s0.lx.attempts", "txn.contention.site.s<shard>.l<lock>.<field>"]),
        rej(TXN, &[("metrics/counters/txn.contention.bogus", "0")], &["txn.contention.bogus", "outside the closed"]),
        rej(TXN, &[("metrics/counters/txn.contention.false_conflicts", "@txn.contention.attempts"), ("metrics/counters/txn.contention.conflicts", "0")], &["txn.contention.false_conflicts=", "exceeds txn.contention.conflicts=0"]),
        rej(TXN, &[("metrics/counters/txn.contention.site.s9.l9.conflicts", "0"), ("metrics/counters/txn.contention.site.s9.l9.false_conflicts", "1")], &["txn.contention.site.s9.l9.false_conflicts=1", "exceeds txn.contention.site.s9.l9.conflicts=0"]),
        rej(TXN, &[("metrics/counters/txn.contention.site.s9.l9.false_conflicts", "0")], &["txn.contention.site.s9.l9.false_conflicts has no sibling txn.contention.site.s9.l9.conflicts"]),
        // tail and series are mandatory on the quick-figure scenarios.
        rej(HOSTPERF, &[("tail", DEL)], &["no tail block"]),
        rej(HOSTPERF, &[("series", DEL)], &["no series block"]),
        // tail.
        rej(SHARD, &[("tail", "[]")], &["tail is not an object"]),
        rej(SHARD, &[("tail/extra", "1")], &["tail.extra is outside the closed key set"]),
        rej(SHARD, &[("tail/ops", "\"x\"")], &["tail.ops", nni]),
        rej(SHARD, &[("tail/ops", "1")], &["tail.tail_ops=", "exceeds tail.ops=1"]),
        rej(SHARD, &[("tail/causes", DEL)], &["tail.causes is missing"]),
        rej(SHARD, &[("tail/causes", "[]")], &["tail.causes is not an object"]),
        rej(SHARD, &[("tail/causes/gremlins", "0")], &["tail.causes.gremlins is outside the closed"]),
        rej(SHARD, &[("tail/causes/residual", "\"x\"")], &["tail.causes.residual", nni]),
        rej(SHARD, &[("tail/causes/residual", DEL)], &["tail.causes.residual is missing"]),
        rej(SHARD, &[("tail/tail_ops", "*2")], &["tail.causes.* sum to", "tail.tail_ops="]),
        rej(SHARD, &[("tail/exemplars", "{}")], &["tail.exemplars is not an array"]),
        rej(SHARD, &[("tail/tail_ops", "1"), ("tail/causes", r#"{"migration_pause":1,"txn_backoff":0,"lock_wait":0,"replica_straggler":0,"queue_wait":0,"flow_control_stall":0,"residual":0}"#)], &["exemplars for 1 tail ops"]),
        rej(SHARD, &[("tail/exemplars/0", "5")], &["tail.exemplars[0] is not an object"]),
        rej(SHARD, &[("tail/exemplars/0/extra", "1")], &["tail.exemplars[0].extra is outside the closed key set"]),
        rej(SHARD, &[("tail/exemplars/0/op", "\"x\"")], &["tail.exemplars[0].op", nni]),
        rej(SHARD, &[("tail/exemplars/0/cause_arg", "-1")], &["tail.exemplars[0].cause_arg", nni]),
        rej(SHARD, &[("tail/exemplars/0/e2e_ns", "1")], &["tail.exemplars[0].e2e_ns=1 is below tail.p99_ns="]),
        rej(SHARD, &[("tail/median_e2e_ns", "*2")], &["tail.exemplars[0].e2e_ns=", "does not exceed tail.median_e2e_ns="]),
        rej(SHARD, &[("tail/exemplars/1/e2e_ns", "*2")], &["tail.exemplars[1]", "slowest-first"]),
        rej(SHARD, &[("tail/exemplars/0/cause", "7")], &["tail.exemplars[0].cause is not a string"]),
        rej(SHARD, &[("tail/exemplars/0/cause", "\"gremlins\"")], &["tail.exemplars[0].cause", "\"gremlins\"", "outside the closed"]),
        rej(SHARD, &[("tail/exemplars/0/excess_ns", "\"x\"")], &["tail.exemplars[0].excess_ns is not a finite number"]),
        rej(SHARD, &[("tail/exemplars/0/residual_ns", "\"x\"")], &["tail.exemplars[0].residual_ns is not a finite number"]),
        rej(SHARD, &[("tail/exemplars/0/excess_ns", "+1000")], &["tail.exemplars[0].excess_ns=", "median_e2e_ns"]),
        rej(SHARD, &[("tail/exemplars/0/stages", "{}")], &["tail.exemplars[0].stages is not an array"]),
        rej(SHARD, &[("tail/exemplars/0/stages/0", "1")], &["tail.exemplars[0].stages[0] is not an object"]),
        rej(SHARD, &[("tail/exemplars/0/stages/0/extra", "1")], &["tail.exemplars[0].stages[0].extra is outside the closed key set"]),
        rej(SHARD, &[("tail/exemplars/0/stages/0/label", "1")], &["tail.exemplars[0].stages[0].label is not a string"]),
        rej(SHARD, &[("tail/exemplars/0/stages/0/actual_ns", "-1")], &["tail.exemplars[0].stages[0].actual_ns", nni]),
        rej(SHARD, &[("tail/exemplars/0/stages/0/excess_ns", "\"x\"")], &["tail.exemplars[0].stages[0].excess_ns is not a finite number"]),
        rej(SHARD, &[("tail/exemplars/0/residual_ns", "+1000")], &["tail.exemplars[0]", "do not tile excess_ns"]),
        // series.
        rej(SHARD, &[("series", "1")], &["series is not an object"]),
        rej(SHARD, &[("series/extra", "1")], &["series.extra is outside the closed key set"]),
        rej(SHARD, &[("series/bucket_ns", "\"x\"")], &["series.bucket_ns", nni]),
        rej(SHARD, &[("series/shards", "{}")], &["series.shards is not an array"]),
        rej(SHARD, &[("series/shards/0", "1")], &["series.shards[", "is not an object"]),
        rej(SHARD, &[("series/shards/0/extra", "1")], &["].extra is outside the closed key set"]),
        rej(SHARD, &[("series/shards/0/shard", "\"x\"")], &["].shard is not a non-negative integer"]),
        rej(SHARD, &[("series/shards/0/points", "{}")], &["points is not an array"]),
        rej(SHARD, &[("series/shards/0/points/0", "1")], &["series", "point", "is not an object"]),
        rej(SHARD, &[("series/shards/0/points/0/extra", "1")], &["extra is outside the closed key set"]),
        rej(SHARD, &[("series/shards/0/points/0/t_ns", "\"x\"")], &["t_ns", nni]),
        rej(SHARD, &[("series/shards/0/points/1/t_ns", "1")], &["t_ns=1", "strictly after"]),
        rej(SHARD, &[("series/shards/0/points/0/ops_per_sec", "\"x\"")], &["ops_per_sec is not a finite number"]),
        rej(SHARD, &[("series/shards/0/points/0/ops_per_sec", "-1")], &["ops_per_sec", "-1"]),
        rej(SHARD, &[("series/shards/0/points/0/pen", "1.5")], &["pen", nni]),
        // stage_attribution and txn_breakdown tile within 1 ns.
        rej(SHARD, &[("stage_attribution/mean_e2e_ns", DEL)], &["stage_attribution", "mean_e2e_ns"]),
        rej(SHARD, &[("stage_attribution/stage_mean_sum_ns", "*2")], &["stage_mean_sum_ns", "do not tile"]),
        rej(SHARD, &[("stage_attribution/mean_e2e_ns", "\"1e999\"")], &["stage_attribution", "finite"]),
        rej(TXN, &[("txn_breakdown/phase_mean_sum_ns", DEL)], &["txn_breakdown", "phase_mean_sum_ns"]),
        rej(TXN, &[("txn_breakdown/phase_mean_sum_ns", "*2")], &["phase_mean_sum_ns", "do not tile"]),
        rej(TXN, &[("txn_breakdown/mean_e2e_ns", "\"1e999\"")], &["txn_breakdown", "finite"]),
        // abort_causes.
        rej(TXN, &[("abort_causes", "[]")], &["abort_causes is not an object"]),
        rej(TXN, &[("abort_causes/total", "\"x\"")], &["abort_causes.total", nni]),
        rej(TXN, &[("abort_causes/gremlins", "0")], &["abort_causes.gremlins is outside the closed key set"]),
        rej(TXN, &[("abort_causes/lock_conflict", DEL)], &["abort_causes.lock_conflict is missing"]),
        rej(TXN, &[("abort_causes/total", DEL)], &["abort_causes.total is missing"]),
        rej(TXN, &[("abort_causes/total", "+1")], &["abort_causes sum to", "abort_causes.total="]),
        rej(TXN, &[("abort_causes", r#"{"lock_conflict":1,"validation_failed":0,"backoff_exhausted":0,"total":1}"#)], &["abort_causes.total=1 disagrees with txn.aborted="]),
        // The three baseline gates.
        rej(SHARD, &[("gauges/ops_per_sec", "*0.1")], &["throughput regression", "gauges.ops_per_sec"]),
        rej(SHARD, &[("latency/p99_ns", "*10")], &["tail-latency regression", "latency.p99_ns"]),
        rej(SHARD, &[("host/ops_per_sec", "*0.1")], &["host throughput regression", "host.ops_per_sec"]),
    ];
    assert_all("rejections", &cases, true);
}

#[test]
fn document_level_rejections_name_the_problem() {
    let doc = single(&baseline_doc(), SHARD);
    let dir = scratch("document");
    let base = write(&dir, "baseline.json", &doc);
    let cases: Vec<(Edit, &str)> = vec![
        (
            ("/schema", "\"hyperloop-bench/v0\""),
            "schema \"hyperloop-bench/v0\"",
        ),
        (("/scenarios", DEL), "scenarios"),
        (("/scenarios", "[]"), "zero scenarios"),
        (("name", DEL), "scenario \"<unnamed>\": "),
    ];
    let mut bad = Vec::new();
    for (i, (edit, expect)) in cases.into_iter().enumerate() {
        let mut report = doc.clone();
        apply(&mut report, edit);
        let report = write(&dir, &format!("report{i}.json"), &report);
        let (code, stderr) = benchcheck(&report, &base);
        if code != Some(1) || !stderr.contains(expect) {
            bad.push(format!(
                "{edit:?}: exit {code:?}, stderr: {}",
                stderr.trim()
            ));
        }
    }
    for (name, text) in [("truncated.json", "{\"schema\":"), ("empty.json", "")] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let (code, stderr) = benchcheck(&path, &base);
        if code != Some(1) || !stderr.contains("malformed JSON") {
            bad.push(format!("{name}: exit {code:?}, stderr: {}", stderr.trim()));
        }
    }
    let (code, stderr) = benchcheck(&dir.join("missing.json"), &base);
    if code != Some(1) || !stderr.contains("missing.json") {
        bad.push(format!(
            "missing report: exit {code:?}, stderr: {}",
            stderr.trim()
        ));
    }
    for (name, text) in [
        ("bad_baseline.json", "{\"scenarios\":"),
        ("no_scenarios.json", "{\"schema\":\"hyperloop-bench/v1\"}"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let (code, stderr) = benchcheck(&base, &path);
        if code != Some(1) || !stderr.contains("baseline") {
            bad.push(format!("{name}: exit {code:?}, stderr: {}", stderr.trim()));
        }
    }
    let (code, stderr) = benchcheck(&base, &dir.join("missing_baseline.json"));
    if code != Some(1) || !stderr.contains("baseline") {
        bad.push(format!(
            "missing baseline: exit {code:?}, stderr: {}",
            stderr.trim()
        ));
    }
    assert!(bad.is_empty(), "misbehaved:\n{}", bad.join("\n"));
}

#[test]
fn valid_reports_are_accepted() {
    let mut cases = vec![
        // Stage excess may be negative (the op was faster there than the
        // median op); the residual keeps the row sum tiling.
        rej(
            SHARD,
            &[
                ("tail/exemplars/0/stages/0/excess_ns", "+-5"),
                ("tail/exemplars/0/residual_ns", "+5"),
            ],
            &[],
        ),
        // A negative observability tax is machine noise, not a bug.
        rej(SHARD, &[("host/obs_tax/overhead_pct", "-12.5")], &[]),
        // Between 1.5x and 3x the baseline p99 only warns.
        rej(
            SHARD,
            &[("latency/p99_ns", "*2")],
            &["warning: latency.p99_ns"],
        ),
        // Between 50% and 90% of the host baseline only warns.
        rej(
            SHARD,
            &[("host/ops_per_sec", "*0.7")],
            &["warning: host.ops_per_sec"],
        ),
    ];
    // An exemplar exactly at the p99 is a tail op (ties at the quantile
    // count), so lowering the p99 to the fastest exemplar stays valid.
    let doc = single(&baseline_doc(), SHARD);
    let exemplars = doc.get("scenarios").unwrap().as_arr().unwrap()[0]
        .get("tail")
        .and_then(|t| t.get("exemplars"))
        .and_then(|e| e.as_arr())
        .expect("shardscale/1 has exemplars");
    let tie = format!("@exemplars/{}/e2e_ns", exemplars.len() - 1);
    cases.push(rej(SHARD, &[("tail/p99_ns", &tie)], &[]));
    assert_all("accepted", &cases, false);

    // The whole committed baseline passes against itself.
    let (code, stderr) = benchcheck(Path::new(BASELINE), Path::new(BASELINE));
    assert_eq!(code, Some(0), "baseline rejected: {stderr}");
}

#[test]
fn malformed_blocks_are_rejected_by_their_declarations() {
    let cases = vec![
        rej(
            SHARD,
            &[("stage_attribution/stages", DEL)],
            &["stage_attribution.stages"],
        ),
        rej(
            SHARD,
            &[("stage_attribution/bogus", "1")],
            &["stage_attribution.bogus"],
        ),
        rej(
            TXN,
            &[("txn_breakdown/phases", "\"nope\"")],
            &["txn_breakdown.phases"],
        ),
        rej(
            TXN,
            &[("txn_breakdown/txns", "-1")],
            &["txn_breakdown.txns"],
        ),
        rej(SHARD, &[("health/violatons", "0")], &["health.violatons"]),
        rej(
            SHARD,
            &[("metrics/histograms/bench.op_latency", r#"{"count":5}"#)],
            &["metrics.histograms.bench.op_latency"],
        ),
        rej(SHARD, &[("latency/p99_ns", DEL)], &["latency.p99_ns"]),
        rej(SHARD, &[("tial", "{}")], &["tial"]),
    ];
    assert_all("declarations", &cases, true);
}

#[test]
fn a_baseline_gate_cannot_be_switched_off_by_the_data() {
    let gate = |report: &[Edit<'static>], baseline: &[Edit<'static>], expect| Case {
        scenario: SHARD,
        report: report.to_vec(),
        baseline: baseline.to_vec(),
        expect,
    };
    let cases = vec![
        // The report drops the gated metric.
        gate(
            &[("latency/p99_ns", "*10"), ("latency", DEL)],
            &[],
            vec!["latency.p99_ns"],
        ),
        gate(
            &[("gauges/ops_per_sec", DEL)],
            &[],
            vec!["gauges.ops_per_sec"],
        ),
        // The baseline itself is malformed.
        gate(
            &[("gauges/ops_per_sec", "*0.1")],
            &[("gauges/ops_per_sec", "\"fast\"")],
            vec!["baseline", "gauges.ops_per_sec"],
        ),
        gate(
            &[("latency/p99_ns", "*10")],
            &[("latency/p99_ns", "-1")],
            vec!["baseline", "latency.p99_ns"],
        ),
    ];
    assert_all("gates", &cases, true);
}
