//! Benchmark reporting: the machine-readable `BENCH_*.json` sink.
//!
//! Every benchmark entry point records through a [`Report`]: each measured
//! configuration is a [`Scenario`] (name, system, seed, config key/values,
//! latency summary and an optional [`MetricsRegistry`] snapshot). The
//! tables a reader sees are rendered from these records by
//! [`crate::exp::render`]. When the binary was given `--json <path>`,
//! [`Report::finish`] serializes all scenarios with
//! [`simcore::jsonw::JsonWriter`].
//!
//! [`DOCUMENT`] declares what [`Report::to_json`] writes: each block's
//! shape sits next to its writer ([`LATENCY`], [`METRICS`] and
//! [`ABORT_CAUSES`] here, the rest on their types in `simcore`), and
//! [`check_report`] is the one check `benchcheck` and `expgen` run.

use crate::run::Outcome;
use hyperloop::txn;
use simcore::jsonw::{join, opt, req, JsonValue, JsonWriter, Shape};
use simcore::simaudit::{HealthSummary, SeriesSummary};
use simcore::simprof::{StageAttribution, TxnAttribution};
use simcore::tailprof::TailProfile;
use simcore::{HostStats, LatencySummary, MetricsRegistry};
use std::path::{Path, PathBuf};

/// One machine-readable benchmark record: a single measured configuration
/// (one table row, one figure point). Built with a fluent API:
///
/// ```ignore
/// rep.scenario(
///     Scenario::new("fig8a/1KB")
///         .system("HyperLoop")
///         .seed(0xBEEF)
///         .config("payload_bytes", 1024)
///         .latency(&result.run.latency)
///         .outcome(&result.run),
/// );
/// ```
#[derive(Debug, Clone, Default)]
pub struct Scenario {
    name: String,
    system: Option<String>,
    seed: Option<u64>,
    config: Vec<(String, String)>,
    latency: Option<LatencySummary>,
    gauges: Vec<(String, f64)>,
    health: Option<HealthSummary>,
    series: Option<SeriesSummary>,
    host: Option<HostStats>,
    metrics: Option<MetricsRegistry>,
    attribution: Option<StageAttribution>,
    txn_breakdown: Option<TxnAttribution>,
    abort_causes: Option<Vec<(String, u64)>>,
    tail: Option<TailProfile>,
}

impl Scenario {
    /// Starts a record named like `"fig8a/1KB"` (figure/point).
    pub fn new(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            ..Scenario::default()
        }
    }

    /// The system under test (a [`SystemKind`](crate::SystemKind) label).
    pub fn system(mut self, s: &str) -> Self {
        self.system = Some(s.to_string());
        self
    }

    /// The root RNG seed the run used.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Adds one configuration key/value (payload size, group size, ...).
    pub fn config(mut self, key: &str, value: impl ToString) -> Self {
        self.config.push((key.to_string(), value.to_string()));
        self
    }

    /// The end-to-end latency summary of the run.
    pub fn latency(mut self, s: &LatencySummary) -> Self {
        self.latency = Some(*s);
        self
    }

    /// Adds one derived measurement (throughput, CPU fraction, ...).
    pub fn gauge(mut self, key: &str, v: f64) -> Self {
        self.gauges.push((key.to_string(), v));
        self
    }

    /// Attaches the run's audit/health summary (violation total, SLO
    /// breach count, per-shard states). Serialized as a `health` block in
    /// the scenario JSON.
    pub fn health(mut self, h: HealthSummary) -> Self {
        self.health = Some(h);
        self
    }

    /// Attaches the run's windowed telemetry series (per-shard
    /// throughput, p50/p99, occupancy and pen depth sampled at
    /// [`simcore::HealthMonitor::tick`] boundaries). Serialized as a
    /// `series` block in the scenario JSON.
    pub fn series(mut self, s: SeriesSummary) -> Self {
        self.series = Some(s);
        self
    }

    /// Attaches the run's host-side (wall-clock) statistics: simulator
    /// ops/sec, events/sec, allocation volume and the observability tax.
    /// Serialized as a `host` block in the scenario JSON. Unlike every
    /// other block, `host` is *volatile* — it changes run to run — so the
    /// report canonicalizer
    /// ([`simcore::jsonw::canonicalize_report`]) strips it before
    /// byte-identity comparisons.
    pub fn host(mut self, h: HostStats) -> Self {
        self.host = Some(h);
        self
    }

    /// Attaches an arm's [`Outcome`]: its health, series and host blocks,
    /// its registry as `metrics` unless the registry is empty (the raw
    /// fabric ablations and fig2 export none), and whichever of the
    /// `stage_attribution`, `txn_breakdown` and `tail` blocks it folded.
    pub fn outcome(mut self, o: &Outcome) -> Self {
        self.health = Some(o.health.clone());
        self.series = Some(o.series.clone());
        self.host = Some(o.host.clone());
        let reg = &o.registry;
        let empty = reg.counters().next().is_none() && reg.gauges().next().is_none();
        self.metrics = (!empty).then(|| reg.clone());
        self.attribution = o.attribution.clone();
        self.txn_breakdown = o.txn_breakdown.clone();
        self.tail = o.tail.clone();
        self
    }

    /// Attaches a full metrics-registry snapshot of the simulated cluster.
    pub fn metrics(mut self, reg: MetricsRegistry) -> Self {
        self.metrics = Some(reg);
        self
    }

    /// Attaches the run's abort root-cause tally (`(label, count)` pairs
    /// in the normative cause order; counts sum to the run's aborted
    /// total). Serialized as an `abort_causes` block with a trailing
    /// `total`.
    pub fn abort_causes(mut self, causes: Vec<(String, u64)>) -> Self {
        self.abort_causes = Some(causes);
        self
    }

    /// Attaches the run's tail-latency profile (exact population
    /// quantiles, closed-sum cause counters, slowest exemplars with
    /// their excess breakdowns). Serialized as a `tail` block in the
    /// scenario JSON; span-tree detail goes to the `TAIL_*.json`
    /// artifact instead.
    pub fn tail(mut self, t: TailProfile) -> Self {
        self.tail = Some(t);
        self
    }
}

/// The report schema tag.
pub const SCHEMA: &str = "hyperloop-bench/v1";

/// A [`LatencySummary`] as the report writes it: the `latency` block.
pub const LATENCY: Shape = Shape::Obj(
    &[
        req("count", Shape::Count),
        req("mean_ns", Shape::Count),
        req("p50_ns", Shape::Count),
        req("p95_ns", Shape::Count),
        req("p99_ns", Shape::Count),
        req("p999_ns", Shape::Count),
        req("min_ns", Shape::Count),
        req("max_ns", Shape::Count),
    ],
    None,
);

/// A [`MetricsRegistry`] snapshot, as [`MetricsRegistry::write_fields`]
/// writes it. The registry rules that span keys sit with [`SCENARIO`].
pub const METRICS: Shape = Shape::Obj(
    &[
        req("counters", Shape::Map(&Shape::Count)),
        req("gauges", Shape::Map(&Shape::Number)),
    ],
    None,
);

/// The `abort_causes` block: one count per [`txn::ABORT_CAUSES`] label,
/// summing to `total`.
pub const ABORT_CAUSES: Shape = Shape::Obj(
    &[
        req(txn::ABORT_CAUSES[0], Shape::Count),
        req(txn::ABORT_CAUSES[1], Shape::Count),
        req(txn::ABORT_CAUSES[2], Shape::Count),
        req("total", Shape::Count),
    ],
    Some(|ac, path| {
        let count = |k| ac.get(k).and_then(JsonValue::as_u64).unwrap_or_default();
        let sum: u64 = txn::ABORT_CAUSES.iter().map(|c| count(c)).sum();
        if sum != count("total") {
            return Err(format!(
                "{path} sum to {sum} but {}={}",
                join(path, "total"),
                count("total")
            ));
        }
        Ok(())
    }),
);

/// One scenario record. Its rule holds what no single block can check.
pub const SCENARIO: Shape = Shape::Obj(
    &[
        req("name", Shape::Str),
        opt("system", Shape::Str),
        opt("seed", Shape::Count),
        req("config", Shape::Map(&Shape::Str)),
        opt("latency", LATENCY),
        req("gauges", Shape::Map(&Shape::Number)),
        opt("health", HealthSummary::SHAPE),
        opt("series", SeriesSummary::SHAPE),
        req("host", HostStats::SHAPE),
        opt("metrics", METRICS),
        opt("stage_attribution", StageAttribution::SHAPE),
        opt("txn_breakdown", TxnAttribution::SHAPE),
        opt("abort_causes", ABORT_CAUSES),
        opt("tail", TailProfile::SHAPE),
    ],
    Some(scenario_rule),
);

/// A whole `BENCH_*.json` document: at least one scenario.
pub const DOCUMENT: Shape = Shape::Obj(
    &[
        req("schema", Shape::Label(&[SCHEMA])),
        req("tool", Shape::Str),
        req("quick", Shape::Bool),
        req("scenarios", Shape::Arr(&SCENARIO)),
    ],
    Some(|doc, _| match doc.items("scenarios") {
        [] => Err("report carries zero scenarios".into()),
        _ => Ok(()),
    }),
);

/// Checks a parsed report against [`DOCUMENT`]. A failure inside a
/// scenario names it: `scenario "shardscale/1": tail.ops is not a
/// non-negative integer`.
///
/// # Errors
///
/// Returns the first mismatch.
pub fn check_report(doc: &JsonValue) -> Result<(), String> {
    // Scenarios first, so that a failure names its scenario; the document
    // walk then repeats their (passed) check on its way to the header.
    for s in doc.items("scenarios") {
        let name = s.get("name").and_then(JsonValue::as_str);
        SCENARIO
            .check(s, "")
            .map_err(|e| format!("scenario {:?}: {e}", name.unwrap_or("<unnamed>")))?;
    }
    DOCUMENT.check(doc, "")
}

/// The scenario families whose runners always fold a `tail` profile and
/// sample a `series`.
pub const TAILSCOPE: [&str; 4] = ["shardscale/", "migrate/", "hostperf/", "txnmix/"];

/// The scenario families whose `latency`, `tail` and stage attribution
/// fold one op population: every op the client completed, none evicted.
pub const ONE_POPULATION: [&str; 2] = ["shardscale/", "migrate/"];

/// The [`ONE_POPULATION`] families whose blocks also time each op over
/// the same interval, so their exact quantiles agree. A migrate client
/// times a penned op from pen entry, but its trace window opens at the
/// drain's issue.
pub const ONE_QUANTILE: [&str; 1] = ["shardscale/"];

/// [`SCENARIO`]'s rule: `tail` and `series` are present on the
/// [`TAILSCOPE`] families, the [`ONE_POPULATION`] families' blocks count
/// the same ops, the [`ONE_QUANTILE`] families' blocks quote the same
/// p50 and p99, the registry rules hold, and `abort_causes` agrees with
/// the `txn.aborted` counter.
fn scenario_rule(s: &JsonValue, _: &str) -> Result<(), String> {
    let name = s
        .get("name")
        .and_then(JsonValue::as_str)
        .unwrap_or_default();
    if TAILSCOPE.iter().any(|p| name.starts_with(p)) {
        if let Some(block) = ["tail", "series"].into_iter().find(|b| s.get(b).is_none()) {
            return Err(format!("scenario has no {block} block"));
        }
    }
    if ONE_POPULATION.iter().any(|p| name.starts_with(p)) {
        one_population(s)?;
    }
    if ONE_QUANTILE.iter().any(|p| name.starts_with(p)) {
        one_quantile(s)?;
    }
    let Some(counters) = s.at(&["metrics", "counters"]) else {
        return Ok(());
    };
    counter_rules(counters)?;
    let total = s.at(&["abort_causes", "total"]).and_then(JsonValue::as_u64);
    let aborted = counters.get("txn.aborted").and_then(JsonValue::as_u64);
    match (total, aborted) {
        (Some(total), Some(aborted)) if total != aborted => Err(format!(
            "abort_causes.total={total} disagrees with txn.aborted={aborted}"
        )),
        _ => Ok(()),
    }
}

/// `latency.count == tail.ops`, and `== stage_attribution.ops` where
/// that block is present. `stage_attribution.truncated` may count only
/// each chain's next pre-posted generation, whose descriptors the
/// replicas fetched though the client never issued it: at most
/// `config.shards`. A scenario without `latency` is left to the baseline
/// gate.
fn one_population(s: &JsonValue) -> Result<(), String> {
    let get = |path: &[&str]| s.at(path).and_then(JsonValue::as_u64);
    let Some(count) = get(&["latency", "count"]) else {
        return Ok(());
    };
    let shards = s.at(&["config", "shards"]).and_then(JsonValue::as_str);
    let shards: u64 = shards.and_then(|n| n.parse().ok()).unwrap_or(0);
    if let Some(t) = get(&["stage_attribution", "truncated"]).filter(|&t| t > shards) {
        return Err(format!(
            "stage_attribution.truncated={t} exceeds config.shards={shards}: the fold lost ops"
        ));
    }
    let ops = ["tail", "stage_attribution"].map(|block| (block, get(&[block, "ops"])));
    match ops
        .into_iter()
        .find(|&(_, ops)| ops.is_some_and(|n| n != count))
    {
        Some((block, Some(n))) => Err(format!(
            "{block}.ops={n} but latency.count={count}: the blocks fold different ops"
        )),
        _ => Ok(()),
    }
}

/// `latency.p50_ns == tail.median_e2e_ns == stage_attribution.e2e.p50_ns`
/// and `latency.p99_ns == tail.p99_ns == stage_attribution.e2e.p99_ns`,
/// for whichever of those blocks are present.
fn one_quantile(s: &JsonValue) -> Result<(), String> {
    let get = |path: &[&str]| s.at(path).and_then(JsonValue::as_u64);
    for (key, tail_key) in [("p50_ns", "median_e2e_ns"), ("p99_ns", "p99_ns")] {
        let Some(want) = get(&["latency", key]) else {
            continue;
        };
        for path in [&["tail", tail_key][..], &["stage_attribution", "e2e", key]] {
            if let Some(got) = get(path).filter(|&got| got != want) {
                return Err(format!(
                    "{}={got} but latency.{key}={want}: one op population quotes one quantile",
                    path.join(".")
                ));
            }
        }
    }
    Ok(())
}

/// The registry rules: the audit total is zero (a report without a
/// `health` block still cannot hide a violation), acks never lead their
/// issues, and the `txn.*` counters are consistent.
fn counter_rules(c: &JsonValue) -> Result<(), String> {
    let get = |k: &str| c.get(k).and_then(JsonValue::as_u64);
    if let Some(v) = get("audit.violations").filter(|&v| v > 0) {
        return Err(format!("audit.violations counter is {v}, expected 0"));
    }
    for (k, v) in c.as_obj().unwrap_or_default() {
        let (Some(base), Some(acked)) = (k.strip_suffix(".acked"), v.as_u64()) else {
            continue;
        };
        let issued_key = format!("{base}.issued");
        let issued = get(&issued_key).ok_or_else(|| format!("{k} has no sibling {issued_key}"))?;
        if acked > issued {
            return Err(format!("{k}={acked} exceeds {issued_key}={issued}"));
        }
    }
    txn_counter_rules(c)
}

/// The `txn.backoff.*` counters.
const BACKOFF_FIELDS: [&str; 1] = ["delay_ns"];

/// The `txn.*` rules, for scenarios that started transactions: a commit
/// attempt resolves once (`committed + aborted <= started`); the
/// [`txn::ABORT_CAUSES`] counters sum to `txn.aborted`; the backoff and
/// contention roll-ups are present and closed, with site detail keyed
/// `txn.contention.site.s<shard>.l<lock>.<field>`; and false conflicts
/// never exceed conflicts, globally or per site.
fn txn_counter_rules(c: &JsonValue) -> Result<(), String> {
    let get = |k: &str| c.get(k).and_then(JsonValue::as_u64);
    let Some(started) = get("txn.started") else {
        return Ok(());
    };
    let need = |k: &str| get(k).ok_or_else(|| format!("txn.started present but {k} missing"));
    let committed = need("txn.committed")?;
    let aborted = need("txn.aborted")?;
    need("txn.lock_retries")?;
    for (k, n) in [("txn.committed", committed), ("txn.aborted", aborted)] {
        if n > started {
            return Err(format!("{k}={n} exceeds txn.started={started}"));
        }
    }
    if committed + aborted > started {
        return Err(format!(
            "txn.committed={committed} + txn.aborted={aborted} exceeds txn.started={started}"
        ));
    }
    let mut cause_sum = 0;
    for cause in txn::ABORT_CAUSES {
        cause_sum += need(&format!("txn.abort_causes.{cause}"))?;
    }
    if cause_sum != aborted {
        return Err(format!(
            "txn.abort_causes.* sum to {cause_sum} but txn.aborted={aborted} — an abort \
             escaped root-cause attribution"
        ));
    }
    for k in BACKOFF_FIELDS {
        need(&format!("txn.backoff.{k}"))?;
    }
    if started > 0 {
        for f in txn::CONTENTION_FIELDS.iter().chain(&["contended_sites"]) {
            get(&format!("txn.contention.{f}")).ok_or_else(|| {
                format!("txn.started={started} > 0 but txn.contention.{f} is absent")
            })?;
        }
    }
    for (k, v) in c.as_obj().unwrap_or_default() {
        if let Some(rest) = k.strip_prefix("txn.contention.site.") {
            if !valid_site_key(rest) {
                return Err(format!(
                    "{k} does not match txn.contention.site.s<shard>.l<lock>.<field>"
                ));
            }
        } else if let Some((set, rest)) = ["abort_causes", "backoff", "contention"]
            .into_iter()
            .find_map(|set| Some((set, k.strip_prefix(&format!("txn.{set}."))?)))
        {
            let closed = match set {
                "abort_causes" => txn::ABORT_CAUSES.contains(&rest),
                "backoff" => BACKOFF_FIELDS.contains(&rest),
                _ => txn::CONTENTION_FIELDS.contains(&rest) || rest == "contended_sites",
            };
            if !closed {
                return Err(format!("{k} is outside the closed txn.{set} key set"));
            }
        }
        // False conflicts are a subset of conflicts by construction; a
        // report claiming otherwise mislabeled a real collision.
        let Some(base) = k
            .strip_suffix(".false_conflicts")
            .filter(|base| base.starts_with("txn.contention"))
        else {
            continue;
        };
        let fc = v.as_u64().unwrap_or_default();
        let conflicts_key = format!("{base}.conflicts");
        let conflicts =
            get(&conflicts_key).ok_or_else(|| format!("{k} has no sibling {conflicts_key}"))?;
        if fc > conflicts {
            return Err(format!("{k}={fc} exceeds {conflicts_key}={conflicts}"));
        }
    }
    Ok(())
}

/// `s<shard>.l<lock>.<field>`, the field one of [`txn::CONTENTION_FIELDS`].
fn valid_site_key(rest: &str) -> bool {
    let mut parts = rest.splitn(3, '.');
    let mut id = |tag: char| {
        parts
            .next()
            .and_then(|p| p.strip_prefix(tag))
            .is_some_and(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))
    };
    id('s')
        && id('l')
        && parts
            .next()
            .is_some_and(|f| txn::CONTENTION_FIELDS.contains(&f))
}

/// Writes a [`LatencySummary`] as the `latency` block.
fn write_latency(w: &mut JsonWriter, s: &LatencySummary) {
    w.begin_obj_field("latency");
    w.field_u64("count", s.count);
    w.field_u64("mean_ns", s.mean.as_nanos());
    w.field_u64("p50_ns", s.p50.as_nanos());
    w.field_u64("p95_ns", s.p95.as_nanos());
    w.field_u64("p99_ns", s.p99.as_nanos());
    w.field_u64("p999_ns", s.p999.as_nanos());
    w.field_u64("min_ns", s.min.as_nanos());
    w.field_u64("max_ns", s.max.as_nanos());
    w.end_obj();
}

/// Collects the machine-readable [`Scenario`] records a benchmark binary
/// reports (serialized by [`Report::finish`] when a JSON sink was
/// requested).
#[derive(Debug, Default)]
pub struct Report {
    tool: String,
    quick: bool,
    json_path: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    scenarios: Vec<Scenario>,
}

impl Report {
    /// Creates a report for the named tool (`"figures"`, `"smoke"`, ...).
    pub fn new(tool: &str) -> Self {
        Report {
            tool: tool.to_string(),
            ..Report::default()
        }
    }

    /// Marks the run as `--quick` (recorded in the JSON header).
    pub fn set_quick(&mut self, quick: bool) {
        self.quick = quick;
    }

    /// Requests a JSON sink. If `path` is a directory (existing, or spelled
    /// with a trailing separator) the file is named `BENCH_<tool>.json`
    /// inside it; otherwise `path` is the file.
    pub fn set_json_path(&mut self, path: &Path) {
        let is_dir = path.is_dir() || path.to_string_lossy().ends_with(std::path::MAIN_SEPARATOR);
        self.json_path = Some(if is_dir {
            path.join(format!("BENCH_{}.json", self.tool))
        } else {
            path.to_path_buf()
        });
    }

    /// Requests per-scenario trace artifacts (Chrome traces with counter
    /// tracks, folded flamegraph stacks) under the given directory.
    pub fn set_trace_dir(&mut self, dir: &Path) {
        self.trace_dir = Some(dir.to_path_buf());
    }

    /// True when a trace directory was requested.
    pub fn trace_enabled(&self) -> bool {
        self.trace_dir.is_some()
    }

    /// True when a JSON sink was requested.
    pub fn json_enabled(&self) -> bool {
        self.json_path.is_some()
    }

    /// True when runs should capture causal traces: either trace artifacts
    /// were requested outright, or a JSON sink was (every `BENCH_*.json`
    /// scenario carries a `stage_attribution` block when its runner can
    /// trace).
    pub fn profile_enabled(&self) -> bool {
        self.trace_enabled() || self.json_enabled()
    }

    /// Writes one trace artifact (`file_name` with `/` mapped to `_`) into
    /// the trace directory, if one was requested. Returns the path written.
    pub fn write_trace(&self, file_name: &str, contents: &str) -> std::io::Result<Option<PathBuf>> {
        let Some(dir) = &self.trace_dir else {
            return Ok(None);
        };
        std::fs::create_dir_all(dir)?;
        let path = dir.join(file_name.replace('/', "_"));
        std::fs::write(&path, contents)?;
        println!("wrote {}", path.display());
        Ok(Some(path))
    }

    /// Records one machine-readable scenario.
    pub fn scenario(&mut self, s: Scenario) {
        self.scenarios.push(s);
    }

    /// Number of scenarios recorded so far.
    pub fn len(&self) -> usize {
        self.scenarios.len()
    }

    /// True when no scenario has been recorded.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }

    /// Serializes the report (header plus all scenarios) to a JSON string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("schema", SCHEMA);
        w.field_str("tool", &self.tool);
        w.field_bool("quick", self.quick);
        w.begin_arr_field("scenarios");
        for s in &self.scenarios {
            w.begin_obj();
            w.field_str("name", &s.name);
            if let Some(sys) = &s.system {
                w.field_str("system", sys);
            }
            if let Some(seed) = s.seed {
                w.field_u64("seed", seed);
            }
            w.begin_obj_field("config");
            for (k, v) in &s.config {
                w.field_str(k, v);
            }
            w.end_obj();
            if let Some(sum) = &s.latency {
                write_latency(&mut w, sum);
            }
            w.begin_obj_field("gauges");
            for (k, v) in &s.gauges {
                w.field_f64(k, *v);
            }
            w.end_obj();
            if let Some(h) = &s.health {
                w.begin_obj_field("health");
                h.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(series) = &s.series {
                w.begin_obj_field("series");
                series.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(h) = &s.host {
                w.begin_obj_field("host");
                h.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(reg) = &s.metrics {
                w.begin_obj_field("metrics");
                reg.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(att) = &s.attribution {
                w.begin_obj_field("stage_attribution");
                att.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(att) = &s.txn_breakdown {
                w.begin_obj_field("txn_breakdown");
                att.write_fields(&mut w);
                w.end_obj();
            }
            if let Some(causes) = &s.abort_causes {
                w.begin_obj_field("abort_causes");
                let mut total = 0u64;
                for (label, n) in causes {
                    w.field_u64(label, *n);
                    total += n;
                }
                w.field_u64("total", total);
                w.end_obj();
            }
            if let Some(tail) = &s.tail {
                w.begin_obj_field("tail");
                tail.write_fields(&mut w);
                w.end_obj();
            }
            w.end_obj();
        }
        w.end_arr();
        w.end_obj();
        w.finish()
    }

    /// Writes the JSON sink, if one was requested. Returns the path written.
    pub fn finish(&self) -> std::io::Result<Option<PathBuf>> {
        let Some(path) = &self.json_path else {
            return Ok(None);
        };
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        std::fs::write(path, self.to_json())?;
        println!("\nwrote {}", path.display());
        Ok(Some(path.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn summary() -> LatencySummary {
        let mut h = simcore::Latencies::new();
        h.record(SimDuration::from_micros(5));
        h.record(SimDuration::from_micros(7));
        h.summary()
    }

    #[test]
    fn report_json_contains_scenarios() {
        let mut rep = Report::new("unit");
        rep.set_quick(true);
        let mut reg = MetricsRegistry::new();
        reg.counter_add("fabric.wqes_executed", 3);
        rep.scenario(
            Scenario::new("fig8a/1KB")
                .system("HyperLoop")
                .seed(0xBEEF)
                .config("payload_bytes", 1024u64)
                .latency(&summary())
                .gauge("ops_per_sec", 1000.0)
                .health(HealthSummary {
                    violations: 0,
                    breaches: 1,
                    shards: vec![simcore::simaudit::ShardHealth {
                        shard: 0,
                        state: simcore::HealthState::Degraded,
                        acks: 2,
                        p50: SimDuration::from_micros(5),
                        p99: SimDuration::from_micros(7),
                        breaches: 1,
                    }],
                })
                .metrics(reg),
        );
        let json = rep.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"schema\":\"hyperloop-bench/v1\""));
        assert!(json.contains("\"tool\":\"unit\""));
        assert!(json.contains("\"quick\":true"));
        assert!(json.contains("\"name\":\"fig8a/1KB\""));
        assert!(json.contains("\"system\":\"HyperLoop\""));
        assert!(json.contains("\"seed\":48879"));
        assert!(json.contains("\"payload_bytes\":\"1024\""));
        assert!(json.contains("\"mean_ns\":6000"));
        assert!(json.contains("\"ops_per_sec\":1000"));
        assert!(json.contains("\"fabric.wqes_executed\":3"));
        assert!(json.contains("\"health\":{\"violations\":0,\"breaches\":1"));
        assert!(json.contains("\"state\":\"degraded\""));
    }

    #[test]
    fn report_serializes_host_block_and_canonicalizer_strips_it() {
        let mut rep = Report::new("unit");
        let meter = simcore::HostMeter::start();
        let host = meter.finish(
            10,
            SimDuration::from_micros(50),
            simcore::QueueStats::default(),
        );
        rep.scenario(Scenario::new("hostperf/10").latency(&summary()).host(host));
        let json = rep.to_json();
        assert!(json.contains("\"host\":{\"wall_ms\":"));
        assert!(json.contains("\"obs_tax\":{"));
        // The canonical form of the report must not depend on wall clock.
        let canon = simcore::jsonw::canonicalize_report(&json).expect("valid json");
        assert!(!canon.contains("\"host\""));
        assert!(canon.contains("\"name\":\"hostperf/10\""));
    }

    #[test]
    fn json_path_directory_gets_bench_name() {
        let dir = std::env::temp_dir();
        let mut rep = Report::new("unitdir");
        rep.set_json_path(&dir);
        let written = rep.finish().expect("write").expect("path");
        assert!(written.ends_with("BENCH_unitdir.json"));
        let body = std::fs::read_to_string(&written).expect("read back");
        assert!(body.contains("\"tool\":\"unitdir\""));
        std::fs::remove_file(written).ok();
    }

    /// A traced stream: 99 ops of 1 µs, one of 50 µs (the tail exemplar),
    /// and two transactions of one acquire and one release phase each.
    fn traced_stream() -> Vec<simcore::TraceEvent> {
        use simcore::simtrace::{txn_op_id, NO_NODE, TXN_PHASE_ACQUIRE, TXN_PHASE_RELEASE};
        use simcore::{SimTime, TraceEvent, TraceKind};
        let ev = |ns, node, op, kind| TraceEvent {
            at: SimTime::from_nanos(ns),
            node,
            op,
            kind,
        };
        let mut evs = Vec::new();
        for op in 0..100u64 {
            let (start, e2e) = (10_000 * op, if op == 99 { 50_000 } else { 1_000 });
            let exec = TraceKind::WqeExec {
                qp: 0,
                opcode: 0,
                bytes: 64,
            };
            evs.push(ev(start, 0, op, TraceKind::OpIssue));
            evs.push(ev(start + e2e / 2, 1, op, exec));
            evs.push(ev(start + e2e, 0, op, TraceKind::OpAck));
        }
        for txn in 0..2u64 {
            let t0 = 2_000_000 + 1_000 * txn;
            for (from, to, phase) in [(0, 100, TXN_PHASE_ACQUIRE), (100, 150, TXN_PHASE_RELEASE)] {
                for (at, begin) in [(t0 + from, true), (t0 + to, false)] {
                    let kind = if begin {
                        TraceKind::TxnPhaseBegin {
                            txn,
                            mode: 0,
                            phase,
                        }
                    } else {
                        TraceKind::TxnPhaseEnd {
                            txn,
                            mode: 0,
                            phase,
                        }
                    };
                    evs.push(ev(at, NO_NODE, txn_op_id(txn), kind));
                }
            }
        }
        evs
    }

    #[test]
    fn written_document_matches_its_declaration() {
        let events = traced_stream();
        let mut reg = MetricsRegistry::new();
        reg.counter_add("bench.shard0.acked", 3);
        reg.counter_add("bench.shard0.issued", 3);
        reg.set_gauge("bench.elapsed_secs", 0.5);
        let queue = simcore::QueueStats {
            pushed: 9,
            popped: 9,
            max_depth: 3,
        };
        let host = simcore::HostMeter::start().finish(100, SimDuration::from_micros(50), queue);
        let mut scenario = Scenario::new("txnmix/unit")
            .system("HyperLoop")
            .seed(7)
            .config("shards", 1)
            .latency(&summary())
            .gauge("ops_per_sec", 1000.0)
            .health(HealthSummary::default())
            .series(SeriesSummary::default())
            .host(host)
            .metrics(reg)
            .abort_causes(
                txn::ABORT_CAUSES
                    .iter()
                    .map(|c| (c.to_string(), 0))
                    .collect(),
            )
            .tail(TailProfile::from_events(&events));
        scenario.attribution = Some(StageAttribution::from_events(&events));
        scenario.txn_breakdown = Some(TxnAttribution::from_events(&events));
        let mut rep = Report::new("unit");
        rep.scenario(scenario);
        let doc = simcore::jsonw::parse(&rep.to_json()).expect("report parses");
        let s = &doc.items("scenarios")[0];
        // Every optional field is exercised.
        for block in ["stage_attribution", "txn_breakdown"] {
            assert!(s.at(&[block, "dominant_path"]).is_some(), "{block}");
        }
        assert!(!s.at(&["tail"]).unwrap().items("exemplars").is_empty());
        check_report(&doc).expect("writer and declaration agree");
    }
}
