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
//! A report that parses but carries garbage is worse than no report: a
//! `null` where a gauge should be means a NaN/Inf leaked out of a bench,
//! a negative or fractional counter means the registry was corrupted, and
//! a shard that acked more than it issued means the accounting
//! double-counted (the failure mode the `export_into` snapshot fix
//! guards). This checker walks every scenario with
//! [`simcore::jsonw::parse`] and fails loudly on any of those, so CI can
//! gate on the reports the figures binary writes. Scenarios carrying a
//! `health` block (the simaudit summary) must also pass the audit gate:
//! states drawn from the closed `healthy`/`degraded`/`stalled` enum,
//! every number finite, and an invariant-violation count of exactly zero.
//!
//! Scenarios carrying `txn.*` counters (the txnmix sweep) get the
//! transaction-lifecycle gate: `txn.committed` and `txn.aborted` must each
//! stay at or below `txn.started`, and so must their sum — a commit
//! attempt resolves exactly once.
//!
//! The same scenarios get the txnscope observability gate. The
//! `txn.abort_causes.*` counters form a closed three-key set that must sum
//! to `txn.aborted` exactly — every abort carries exactly one root cause.
//! The `txn.contention.*` roll-up is a closed eight-key set, and any
//! scenario that started at least one transaction **must** carry it: a
//! txnmix run whose contention block went missing is a report that can
//! silently hide a pathological lock fight. Per-site detail keys must
//! match the `txn.contention.site.s<shard>.l<lock>.<field>` grammar with
//! fields drawn from the same closed set, and false conflicts (distinct
//! keys colliding in one stripe) can never exceed conflicts, globally or
//! per site. Scenarios carrying a `txn_breakdown` block must tile like
//! stage attribution does: per-phase mean contributions sum to the mean
//! end-to-end commit latency within 1 ns. An `abort_causes` block must
//! use the same closed cause set, sum to its own `total`, and agree with
//! the `txn.aborted` counter.
//!
//! Every scenario must also carry a `host` block — the wall-clock
//! self-profile of the simulator ([`simcore::hostprof`]) — with a *closed*
//! key set (unknown keys fail, so schema drift is caught on both sides),
//! finite positive rates, and a queue invariant (`pushed >= popped`).
//!
//! Scenarios produced by the quick-figures sweeps (`shardscale/*`,
//! `migrate/*`, `hostperf/*`, `txnmix/*`) must carry the tailscope blocks
//! — `tail` (tail-latency exemplars + root-cause attribution) and `series`
//! (windowed telemetry) — and any scenario carrying them is validated:
//! both blocks use closed key sets; the seven `tail.causes.*` counters sum
//! exactly to `tail.tail_ops` (exactly one cause per tail op); every
//! exemplar's `e2e_ns` is at or beyond the population `tail.p99_ns` and
//! strictly above `tail.median_e2e_ns` (ties at the quantile are tail ops
//! — see the `simcore::tailprof` module docs for the rationale), its
//! `excess_ns` equals `e2e_ns − median_e2e_ns`, and its per-stage excess
//! rows plus `residual_ns` tile `excess_ns` to within 1 ns; exemplars are
//! ordered slowest first; and every series shard's sample timestamps are
//! strictly monotonic.
//!
//! With `--baseline`, every checked scenario that shares a name with a
//! baseline scenario must keep its `ops_per_sec` gauge within 25% of the
//! baseline value (the simulator is deterministic, so a real regression —
//! not machine noise — is the only way to lose throughput). Scenarios
//! carrying a `stage_attribution` block must also tile: the sum of
//! per-stage mean contributions has to equal the mean end-to-end latency
//! to within 1 ns.
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

use hyperloop_bench::cli;
use simcore::jsonw::{parse, JsonValue};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One validation failure, located well enough to grep the report.
fn fail(path: &str, scenario: &str, msg: &str) -> ExitCode {
    eprintln!("benchcheck: {path}: scenario {scenario:?}: {msg}");
    ExitCode::FAILURE
}

/// Checks one `{key: number}` object: every value a finite number, and —
/// when `counters` — a non-negative integer. Returns the offending message.
fn check_numbers(obj: &JsonValue, what: &str, counters: bool) -> Result<(), String> {
    let Some(fields) = obj.as_obj() else {
        return Err(format!("{what} is not an object"));
    };
    for (k, v) in fields {
        match v {
            JsonValue::U64(_) => {}
            JsonValue::F64(f) if !counters && f.is_finite() => {}
            JsonValue::Null => {
                // The writer emits null for NaN/Inf — a bench leaked a
                // non-finite float.
                return Err(format!("{what}.{k} is null (non-finite value)"));
            }
            _ => {
                return Err(format!(
                    "{what}.{k} is not a {}",
                    if counters {
                        "non-negative integer"
                    } else {
                        "finite number"
                    }
                ));
            }
        }
    }
    Ok(())
}

/// Every `*.shardN.acked` counter must have a sibling `*.shardN.issued`
/// that is at least as large: acks can lag issues, never lead them.
fn check_shard_monotonicity(counters: &JsonValue) -> Result<(), String> {
    let Some(fields) = counters.as_obj() else {
        return Ok(());
    };
    for (k, v) in fields {
        let Some(base) = k.strip_suffix(".acked") else {
            continue;
        };
        let Some(acked) = v.as_u64() else { continue };
        let issued_key = format!("{base}.issued");
        let Some(issued) = counters.get(&issued_key).and_then(|x| x.as_u64()) else {
            return Err(format!("{k} has no sibling {issued_key}"));
        };
        if acked > issued {
            return Err(format!("{k}={acked} exceeds {issued_key}={issued}"));
        }
    }
    Ok(())
}

/// Scenarios carrying transaction counters (`txn.*`, the txnmix sweep)
/// must keep the lifecycle accounting consistent: every commit attempt
/// either committed or aborted, never both, so `committed <= started`,
/// `aborted <= started`, and `committed + aborted <= started` (in-flight
/// transactions make it strict). `txn.lock_retries` only needs to be a
/// non-negative integer, which `check_numbers` already enforces.
fn check_txn_counters(counters: &JsonValue) -> Result<(), String> {
    let Some(started) = counters.get("txn.started").and_then(|v| v.as_u64()) else {
        return Ok(());
    };
    let committed = counters
        .get("txn.committed")
        .and_then(|v| v.as_u64())
        .ok_or("txn.started present but txn.committed missing")?;
    let aborted = counters
        .get("txn.aborted")
        .and_then(|v| v.as_u64())
        .ok_or("txn.started present but txn.aborted missing")?;
    counters
        .get("txn.lock_retries")
        .and_then(|v| v.as_u64())
        .ok_or("txn.started present but txn.lock_retries missing")?;
    if committed > started {
        return Err(format!(
            "txn.committed={committed} exceeds txn.started={started}"
        ));
    }
    if aborted > started {
        return Err(format!(
            "txn.aborted={aborted} exceeds txn.started={started}"
        ));
    }
    if committed + aborted > started {
        return Err(format!(
            "txn.committed={committed} + txn.aborted={aborted} exceeds txn.started={started}"
        ));
    }
    Ok(())
}

/// The three abort root causes — the closed set mirrored from
/// `hyperloop::txn::AbortCause::label`.
const ABORT_CAUSES: [&str; 3] = ["lock_conflict", "validation_failed", "backoff_exhausted"];

/// The per-site contention fields; the global roll-up adds
/// `contended_sites` on top of these.
const CONTENTION_FIELDS: [&str; 7] = [
    "attempts",
    "cas_failures",
    "conflicts",
    "false_conflicts",
    "wait_ns",
    "backoff_retries",
    "queue_depth_hwm",
];

/// `txn.contention.site.` suffix grammar: `s<digits>.l<digits>.<field>`
/// with the field drawn from [`CONTENTION_FIELDS`].
fn valid_site_key(rest: &str) -> bool {
    let Some(rest) = rest.strip_prefix('s') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    let (shard, rest) = rest.split_at(dot);
    if shard.is_empty() || !shard.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    let Some(rest) = rest[1..].strip_prefix('l') else {
        return false;
    };
    let Some(dot) = rest.find('.') else {
        return false;
    };
    let (lock, field) = rest.split_at(dot);
    if lock.is_empty() || !lock.bytes().all(|b| b.is_ascii_digit()) {
        return false;
    }
    CONTENTION_FIELDS.contains(&&field[1..])
}

/// The txnscope gate over registry counters: abort-cause counters form a
/// closed set summing to `txn.aborted`; a scenario that started at least
/// one transaction must carry the whole `txn.contention.*` roll-up (a
/// missing contention block can hide a lock fight); site keys follow the
/// `s<shard>.l<lock>.<field>` grammar; and false conflicts never exceed
/// conflicts, globally or per site.
fn check_txn_observability(counters: &JsonValue) -> Result<(), String> {
    let Some(started) = counters.get("txn.started").and_then(|v| v.as_u64()) else {
        return Ok(());
    };
    let aborted = counters
        .get("txn.aborted")
        .and_then(|v| v.as_u64())
        .ok_or("txn.started present but txn.aborted missing")?;
    let mut cause_sum = 0u64;
    for cause in ABORT_CAUSES {
        let key = format!("txn.abort_causes.{cause}");
        let n = counters
            .get(&key)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("txn.started present but {key} missing"))?;
        cause_sum += n;
    }
    if cause_sum != aborted {
        return Err(format!(
            "txn.abort_causes.* sum to {cause_sum} but txn.aborted={aborted} — \
             an abort escaped root-cause attribution"
        ));
    }
    for k in ["parks", "delay_ns"] {
        counters
            .get(&format!("txn.backoff.{k}"))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("txn.started present but txn.backoff.{k} missing"))?;
    }
    if started > 0 {
        for f in CONTENTION_FIELDS.iter().chain(&["contended_sites"]) {
            counters
                .get(&format!("txn.contention.{f}"))
                .and_then(|v| v.as_u64())
                .ok_or_else(|| {
                    format!("txn.started={started} > 0 but txn.contention.{f} is absent")
                })?;
        }
    }
    let Some(fields) = counters.as_obj() else {
        return Ok(());
    };
    for (k, _) in fields {
        if let Some(rest) = k.strip_prefix("txn.abort_causes.") {
            if !ABORT_CAUSES.contains(&rest) {
                return Err(format!("{k} is outside the closed abort-cause set"));
            }
        } else if let Some(rest) = k.strip_prefix("txn.backoff.") {
            if !matches!(rest, "parks" | "delay_ns") {
                return Err(format!("{k} is outside the closed backoff key set"));
            }
        } else if let Some(rest) = k.strip_prefix("txn.contention.site.") {
            if !valid_site_key(rest) {
                return Err(format!(
                    "{k} does not match txn.contention.site.s<shard>.l<lock>.<field>"
                ));
            }
        } else if let Some(rest) = k.strip_prefix("txn.contention.") {
            if !CONTENTION_FIELDS.contains(&rest) && rest != "contended_sites" {
                return Err(format!("{k} is outside the closed contention key set"));
            }
        }
    }
    // False conflicts are a subset of conflicts by construction; a report
    // claiming otherwise mislabeled a real collision.
    for (k, v) in fields {
        let Some(base) = k.strip_suffix(".false_conflicts") else {
            continue;
        };
        if !base.starts_with("txn.contention") {
            continue;
        }
        let Some(fc) = v.as_u64() else { continue };
        let conflicts_key = format!("{base}.conflicts");
        let conflicts = counters
            .get(&conflicts_key)
            .and_then(|x| x.as_u64())
            .ok_or_else(|| format!("{k} has no sibling {conflicts_key}"))?;
        if fc > conflicts {
            return Err(format!("{k}={fc} exceeds {conflicts_key}={conflicts}"));
        }
    }
    Ok(())
}

/// A `txn_breakdown` block must tile like stage attribution: the sum of
/// per-phase mean contributions equals the mean end-to-end commit
/// latency, within 1 ns.
fn check_txn_breakdown(att: &JsonValue) -> Result<(), String> {
    let mean = att.get("mean_e2e_ns").and_then(|v| v.as_f64());
    let sum = att.get("phase_mean_sum_ns").and_then(|v| v.as_f64());
    let (Some(mean), Some(sum)) = (mean, sum) else {
        return Err("txn_breakdown lacks mean_e2e_ns/phase_mean_sum_ns".into());
    };
    if !mean.is_finite() || !sum.is_finite() {
        return Err("txn_breakdown means are non-finite".into());
    }
    if (mean - sum).abs() > 1.0 {
        return Err(format!(
            "txn phase means do not tile e2e: mean_e2e_ns={mean} vs phase_mean_sum_ns={sum}"
        ));
    }
    Ok(())
}

/// An `abort_causes` block: closed cause set plus `total`, causes sum to
/// `total`, and `total` agrees with the `txn.aborted` registry counter
/// when the scenario carries one.
fn check_abort_causes(ac: &JsonValue, counters: Option<&JsonValue>) -> Result<(), String> {
    let fields = ac.as_obj().ok_or("abort_causes is not an object")?;
    let mut sum = 0u64;
    let mut total = None;
    for (k, v) in fields {
        let n = v
            .as_u64()
            .ok_or_else(|| format!("abort_causes.{k} is not a non-negative integer"))?;
        if k == "total" {
            total = Some(n);
        } else if ABORT_CAUSES.contains(&k.as_str()) {
            sum += n;
        } else {
            return Err(format!("abort_causes.{k} is outside the closed key set"));
        }
    }
    for cause in ABORT_CAUSES {
        if ac.get(cause).is_none() {
            return Err(format!("abort_causes.{cause} is missing"));
        }
    }
    let total = total.ok_or("abort_causes.total is missing")?;
    if sum != total {
        return Err(format!(
            "abort_causes sum to {sum} but abort_causes.total={total}"
        ));
    }
    if let Some(aborted) = counters
        .and_then(|c| c.get("txn.aborted"))
        .and_then(|v| v.as_u64())
    {
        if total != aborted {
            return Err(format!(
                "abort_causes.total={total} disagrees with txn.aborted={aborted}"
            ));
        }
    }
    Ok(())
}

/// A `health` block must be well-formed — violation/breach totals as
/// non-negative integers, per-shard states drawn from the closed enum,
/// finite latency numbers — and must report zero invariant violations: a
/// violation means an auditor watched the run break one of the paper's
/// guarantees, and that fails the gate outright.
fn check_health(h: &JsonValue) -> Result<(), String> {
    let violations = h
        .get("violations")
        .and_then(|v| v.as_u64())
        .ok_or("health.violations is not a non-negative integer")?;
    h.get("breaches")
        .and_then(|v| v.as_u64())
        .ok_or("health.breaches is not a non-negative integer")?;
    let shards = h
        .get("shards")
        .and_then(|v| v.as_arr())
        .ok_or("health.shards is not an array")?;
    for s in shards {
        let shard = s
            .get("shard")
            .and_then(|v| v.as_u64())
            .ok_or("health.shards[].shard is not a non-negative integer")?;
        let state = s
            .get("state")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("health shard {shard} has no state string"))?;
        if !matches!(state, "healthy" | "degraded" | "stalled") {
            return Err(format!(
                "health shard {shard} state {state:?} is outside the closed enum"
            ));
        }
        for key in ["acks", "p50_ns", "p99_ns", "breaches"] {
            s.get(key).and_then(|v| v.as_u64()).ok_or_else(|| {
                format!("health shard {shard} field {key} is not a non-negative integer")
            })?;
        }
    }
    if violations > 0 {
        return Err(format!(
            "{violations} invariant violation(s) — an auditor caught the run misbehaving"
        ));
    }
    Ok(())
}

/// The seven tail root causes in precedence order — the closed set
/// mirrored from `simcore::tailprof::CAUSE_LABELS`.
const TAIL_CAUSES: [&str; 7] = [
    "migration_pause",
    "txn_backoff",
    "lock_wait",
    "replica_straggler",
    "queue_wait",
    "flow_control_stall",
    "residual",
];

/// Reads a signed nanosecond field. The writer emits negative excesses as
/// JSON integers, which the reader parses back as F64 — accept both.
fn signed_ns(obj: &JsonValue, key: &str) -> Option<f64> {
    match obj.get(key)? {
        JsonValue::U64(u) => Some(*u as f64),
        JsonValue::F64(f) if f.is_finite() => Some(*f),
        _ => None,
    }
}

/// The tailscope `tail` block: closed key sets at every level, causes
/// summing exactly to the tail-op count, exemplars at-or-beyond the p99
/// (and above the median) ordered slowest first, and the excess-tiling
/// contract (stage excess rows plus the residual tile `e2e − median_e2e`
/// within 1 ns).
fn check_tail(t: &JsonValue) -> Result<(), String> {
    const KEYS: [&str; 6] = [
        "ops",
        "tail_ops",
        "p99_ns",
        "median_e2e_ns",
        "causes",
        "exemplars",
    ];
    let fields = t.as_obj().ok_or("tail is not an object")?;
    for (k, _) in fields {
        if !KEYS.contains(&k.as_str()) {
            return Err(format!("tail.{k} is outside the closed key set"));
        }
    }
    let mut nums = [0u64; 4];
    for (i, k) in ["ops", "tail_ops", "p99_ns", "median_e2e_ns"]
        .into_iter()
        .enumerate()
    {
        nums[i] = t
            .get(k)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("tail.{k} is not a non-negative integer"))?;
    }
    let [ops, tail_ops, p99_ns, median_e2e_ns] = nums;
    if tail_ops > ops {
        return Err(format!("tail.tail_ops={tail_ops} exceeds tail.ops={ops}"));
    }
    let causes = t.get("causes").ok_or("tail.causes is missing")?;
    let cause_fields = causes.as_obj().ok_or("tail.causes is not an object")?;
    let mut cause_sum = 0u64;
    for (k, v) in cause_fields {
        if !TAIL_CAUSES.contains(&k.as_str()) {
            return Err(format!("tail.causes.{k} is outside the closed cause set"));
        }
        cause_sum += v
            .as_u64()
            .ok_or_else(|| format!("tail.causes.{k} is not a non-negative integer"))?;
    }
    for c in TAIL_CAUSES {
        if causes.get(c).is_none() {
            return Err(format!("tail.causes.{c} is missing"));
        }
    }
    if cause_sum != tail_ops {
        return Err(format!(
            "tail.causes.* sum to {cause_sum} but tail.tail_ops={tail_ops} — \
             a tail op escaped root-cause attribution"
        ));
    }
    let exemplars = t
        .get("exemplars")
        .and_then(|v| v.as_arr())
        .ok_or("tail.exemplars is not an array")?;
    if exemplars.len() as u64 > tail_ops {
        return Err(format!(
            "tail carries {} exemplars for {tail_ops} tail ops",
            exemplars.len()
        ));
    }
    const EX_KEYS: [&str; 9] = [
        "op",
        "shard",
        "start_ns",
        "e2e_ns",
        "excess_ns",
        "cause",
        "cause_arg",
        "stages",
        "residual_ns",
    ];
    let mut prev_e2e = u64::MAX;
    for (i, ex) in exemplars.iter().enumerate() {
        let what = format!("tail.exemplars[{i}]");
        let ex_fields = ex
            .as_obj()
            .ok_or_else(|| format!("{what} is not an object"))?;
        for (k, _) in ex_fields {
            if !EX_KEYS.contains(&k.as_str()) {
                return Err(format!("{what}.{k} is outside the closed key set"));
            }
        }
        for k in ["op", "shard", "start_ns", "e2e_ns", "cause_arg"] {
            ex.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{what}.{k} is not a non-negative integer"))?;
        }
        let e2e = ex.get("e2e_ns").and_then(|v| v.as_u64()).unwrap();
        if e2e < p99_ns {
            return Err(format!("{what}.e2e_ns={e2e} is below tail.p99_ns={p99_ns}"));
        }
        if e2e <= median_e2e_ns {
            return Err(format!(
                "{what}.e2e_ns={e2e} does not exceed tail.median_e2e_ns={median_e2e_ns}"
            ));
        }
        if e2e > prev_e2e {
            return Err(format!("{what} is out of slowest-first order"));
        }
        prev_e2e = e2e;
        let cause = ex
            .get("cause")
            .and_then(|v| v.as_str())
            .ok_or_else(|| format!("{what}.cause is not a string"))?;
        if !TAIL_CAUSES.contains(&cause) {
            return Err(format!(
                "{what}.cause {cause:?} is outside the closed cause set"
            ));
        }
        let excess = signed_ns(ex, "excess_ns")
            .ok_or_else(|| format!("{what}.excess_ns is not a finite number"))?;
        let residual = signed_ns(ex, "residual_ns")
            .ok_or_else(|| format!("{what}.residual_ns is not a finite number"))?;
        let expect_excess = e2e as f64 - median_e2e_ns as f64;
        if (excess - expect_excess).abs() > 1.0 {
            return Err(format!(
                "{what}.excess_ns={excess} but e2e_ns − median_e2e_ns = {expect_excess}"
            ));
        }
        let stages = ex
            .get("stages")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("{what}.stages is not an array"))?;
        let mut explained = 0.0f64;
        for (j, st) in stages.iter().enumerate() {
            let swhat = format!("{what}.stages[{j}]");
            let st_fields = st
                .as_obj()
                .ok_or_else(|| format!("{swhat} is not an object"))?;
            for (k, _) in st_fields {
                if !matches!(
                    k.as_str(),
                    "label" | "actual_ns" | "median_ns" | "excess_ns"
                ) {
                    return Err(format!("{swhat}.{k} is outside the closed key set"));
                }
            }
            st.get("label")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("{swhat}.label is not a string"))?;
            for k in ["actual_ns", "median_ns"] {
                st.get(k)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("{swhat}.{k} is not a non-negative integer"))?;
            }
            explained += signed_ns(st, "excess_ns")
                .ok_or_else(|| format!("{swhat}.excess_ns is not a finite number"))?;
        }
        if (explained + residual - excess).abs() > 1.0 {
            return Err(format!(
                "{what} stage excesses ({explained}) + residual ({residual}) \
                 do not tile excess_ns ({excess})"
            ));
        }
    }
    Ok(())
}

/// The tailscope `series` block: closed key sets, strictly monotonic
/// per-shard sample timestamps, and finite sample values.
fn check_series(se: &JsonValue) -> Result<(), String> {
    let fields = se.as_obj().ok_or("series is not an object")?;
    for (k, _) in fields {
        if !matches!(k.as_str(), "bucket_ns" | "shards") {
            return Err(format!("series.{k} is outside the closed key set"));
        }
    }
    se.get("bucket_ns")
        .and_then(|v| v.as_u64())
        .ok_or("series.bucket_ns is not a non-negative integer")?;
    let shards = se
        .get("shards")
        .and_then(|v| v.as_arr())
        .ok_or("series.shards is not an array")?;
    for sh in shards {
        let sh_fields = sh.as_obj().ok_or("series.shards[] is not an object")?;
        for (k, _) in sh_fields {
            if !matches!(k.as_str(), "shard" | "points") {
                return Err(format!("series.shards[].{k} is outside the closed key set"));
            }
        }
        let shard = sh
            .get("shard")
            .and_then(|v| v.as_u64())
            .ok_or("series.shards[].shard is not a non-negative integer")?;
        let points = sh
            .get("points")
            .and_then(|v| v.as_arr())
            .ok_or_else(|| format!("series shard {shard} points is not an array"))?;
        let mut prev_t: Option<u64> = None;
        for (i, p) in points.iter().enumerate() {
            let what = format!("series shard {shard} point {i}");
            let p_fields = p
                .as_obj()
                .ok_or_else(|| format!("{what} is not an object"))?;
            for (k, _) in p_fields {
                if !matches!(
                    k.as_str(),
                    "t_ns" | "ops_per_sec" | "p50_ns" | "p99_ns" | "inflight" | "pen"
                ) {
                    return Err(format!("{what}.{k} is outside the closed key set"));
                }
            }
            let t = p
                .get("t_ns")
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{what}.t_ns is not a non-negative integer"))?;
            if let Some(prev) = prev_t {
                if t <= prev {
                    return Err(format!(
                        "{what}.t_ns={t} is not strictly after the previous sample at {prev}"
                    ));
                }
            }
            prev_t = Some(t);
            let ops = p
                .get("ops_per_sec")
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{what}.ops_per_sec is not a finite number"))?;
            if !ops.is_finite() || ops < 0.0 {
                return Err(format!("{what}.ops_per_sec = {ops} is not finite and >= 0"));
            }
            for k in ["p50_ns", "p99_ns", "inflight", "pen"] {
                p.get(k)
                    .and_then(|v| v.as_u64())
                    .ok_or_else(|| format!("{what}.{k} is not a non-negative integer"))?;
            }
        }
    }
    Ok(())
}

/// Requires `key` to be a finite, strictly positive number (U64 or F64).
fn positive_number(obj: &JsonValue, key: &str) -> Result<f64, String> {
    let v = obj
        .get(key)
        .ok_or_else(|| format!("host.{key} is missing"))?;
    let n = match v {
        JsonValue::U64(u) => *u as f64,
        JsonValue::F64(f) => *f,
        JsonValue::Null => return Err(format!("host.{key} is null (non-finite value)")),
        _ => return Err(format!("host.{key} is not a number")),
    };
    if !n.is_finite() || n <= 0.0 {
        return Err(format!("host.{key} = {n} is not finite and positive"));
    }
    Ok(n)
}

/// The `host` block: closed key set, finite positive rates, balanced
/// queue counters. Every scenario must carry one — a report without host
/// statistics cannot be gated on simulator speed.
fn check_host(h: &JsonValue) -> Result<(), String> {
    const KEYS: [&str; 10] = [
        "wall_ms",
        "ops_per_sec",
        "events_per_sec",
        "sim_ns_per_wall_ms",
        "ops",
        "sim_ns",
        "alloc_bytes",
        "queue",
        "alloc",
        "obs_tax",
    ];
    let fields = h.as_obj().ok_or("host is not an object")?;
    for (k, _) in fields {
        if !KEYS.contains(&k.as_str()) {
            return Err(format!("host.{k} is outside the closed key set"));
        }
    }
    for k in KEYS {
        if h.get(k).is_none() {
            return Err(format!("host.{k} is missing"));
        }
    }
    for k in [
        "wall_ms",
        "ops_per_sec",
        "events_per_sec",
        "sim_ns_per_wall_ms",
    ] {
        positive_number(h, k)?;
    }
    for k in ["ops", "sim_ns", "alloc_bytes"] {
        h.get(k)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("host.{k} is not a non-negative integer"))?;
    }
    let queue = h.get("queue").unwrap();
    check_numbers(queue, "host.queue", true)?;
    let pushed = queue
        .get("pushed")
        .and_then(|v| v.as_u64())
        .ok_or("host.queue.pushed is missing")?;
    let popped = queue
        .get("popped")
        .and_then(|v| v.as_u64())
        .ok_or("host.queue.popped is missing")?;
    queue
        .get("max_depth")
        .and_then(|v| v.as_u64())
        .ok_or("host.queue.max_depth is missing")?;
    if popped > pushed {
        return Err(format!(
            "host.queue.popped={popped} exceeds host.queue.pushed={pushed}"
        ));
    }
    let alloc = h.get("alloc").unwrap();
    check_numbers(alloc, "host.alloc", true)?;
    for k in ["allocs", "frees", "reallocs", "alloc_bytes", "freed_bytes"] {
        alloc
            .get(k)
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("host.alloc.{k} is missing"))?;
    }
    let tax = h.get("obs_tax").unwrap();
    let obj = tax.as_obj().ok_or("host.obs_tax is not an object")?;
    for (k, _) in obj {
        if !matches!(
            k.as_str(),
            "observed_wall_ms" | "bare_wall_ms" | "overhead_pct"
        ) {
            return Err(format!("host.obs_tax.{k} is outside the closed key set"));
        }
    }
    for k in ["observed_wall_ms", "bare_wall_ms"] {
        let v = tax
            .get(k)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("host.obs_tax.{k} is missing"))?;
        if !v.is_finite() || v <= 0.0 {
            return Err(format!("host.obs_tax.{k} = {v} is not finite and positive"));
        }
    }
    let pct = tax
        .get("overhead_pct")
        .and_then(|v| v.as_f64())
        .ok_or("host.obs_tax.overhead_pct is missing")?;
    // Negative tax is machine noise; non-finite tax is a bug.
    if !pct.is_finite() {
        return Err(format!("host.obs_tax.overhead_pct = {pct} is not finite"));
    }
    Ok(())
}

/// A scenario with stage attribution must tile: sum of per-stage mean
/// contributions == mean end-to-end latency, within 1 ns.
fn check_attribution(att: &JsonValue) -> Result<(), String> {
    let mean = att.get("mean_e2e_ns").and_then(|v| v.as_f64());
    let sum = att.get("stage_mean_sum_ns").and_then(|v| v.as_f64());
    let (Some(mean), Some(sum)) = (mean, sum) else {
        return Err("stage_attribution lacks mean_e2e_ns/stage_mean_sum_ns".into());
    };
    if !mean.is_finite() || !sum.is_finite() {
        return Err("stage_attribution means are non-finite".into());
    }
    if (mean - sum).abs() > 1.0 {
        return Err(format!(
            "stage means do not tile e2e: mean_e2e_ns={mean} vs stage_mean_sum_ns={sum}"
        ));
    }
    Ok(())
}

/// Loads `name -> <block>.<key>` from a baseline report.
fn load_metric(path: &str, block: &str, key: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let root = parse(&text).map_err(|e| format!("malformed JSON: {e}"))?;
    let scenarios = root
        .get("scenarios")
        .and_then(|v| v.as_arr())
        .ok_or("no scenarios array")?;
    let mut out = BTreeMap::new();
    for s in scenarios {
        if let (Some(name), Some(v)) = (
            s.get("name").and_then(|v| v.as_str()),
            s.get(block)
                .and_then(|g| g.get(key))
                .and_then(|v| v.as_f64()),
        ) {
            out.insert(name.to_string(), v);
        }
    }
    Ok(out)
}

/// Loads `name -> ops_per_sec` from a baseline report. `host` reads the
/// gauge from the `host` block instead of `gauges`.
fn load_baseline(path: &str, host: bool) -> Result<BTreeMap<String, f64>, String> {
    load_metric(path, if host { "host" } else { "gauges" }, "ops_per_sec")
}

fn check_file(
    path: &str,
    baseline: Option<&BTreeMap<String, f64>>,
    p99_baseline: Option<&BTreeMap<String, f64>>,
    host_baseline: Option<&BTreeMap<String, f64>>,
) -> Result<usize, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("benchcheck: {path}: {e}");
        ExitCode::FAILURE
    })?;
    let root = parse(&text).map_err(|e| {
        eprintln!("benchcheck: {path}: malformed JSON: {e}");
        ExitCode::FAILURE
    })?;
    let schema = root.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "hyperloop-bench/v1" {
        eprintln!("benchcheck: {path}: unknown schema {schema:?}");
        return Err(ExitCode::FAILURE);
    }
    let Some(scenarios) = root.get("scenarios").and_then(|v| v.as_arr()) else {
        eprintln!("benchcheck: {path}: no scenarios array");
        return Err(ExitCode::FAILURE);
    };
    if scenarios.is_empty() {
        eprintln!("benchcheck: {path}: report carries zero scenarios");
        return Err(ExitCode::FAILURE);
    }
    for s in scenarios {
        let name = s
            .get("name")
            .and_then(|v| v.as_str())
            .unwrap_or("<unnamed>");
        if name == "<unnamed>" {
            return Err(fail(path, name, "scenario has no name"));
        }
        if let Some(lat) = s.get("latency") {
            check_numbers(lat, "latency", true).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(g) = s.get("gauges") {
            check_numbers(g, "gauges", false).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(h) = s.get("health") {
            check_health(h).map_err(|m| fail(path, name, &m))?;
        }
        match s.get("host") {
            Some(h) => check_host(h).map_err(|m| fail(path, name, &m))?,
            None => {
                return Err(fail(
                    path,
                    name,
                    "scenario has no host block (wall-clock self-profile)",
                ))
            }
        }
        if let Some(metrics) = s.get("metrics") {
            if let Some(c) = metrics.get("counters") {
                check_numbers(c, "metrics.counters", true).map_err(|m| fail(path, name, &m))?;
                check_shard_monotonicity(c).map_err(|m| fail(path, name, &m))?;
                check_txn_counters(c).map_err(|m| fail(path, name, &m))?;
                check_txn_observability(c).map_err(|m| fail(path, name, &m))?;
                // The audit total rides in the registry snapshot too — a
                // report without a health block still cannot hide one.
                if let Some(v) = c.get("audit.violations").and_then(|v| v.as_u64()) {
                    if v > 0 {
                        return Err(fail(
                            path,
                            name,
                            &format!("audit.violations counter is {v}, expected 0"),
                        ));
                    }
                }
            }
            if let Some(g) = metrics.get("gauges") {
                check_numbers(g, "metrics.gauges", false).map_err(|m| fail(path, name, &m))?;
            }
            if let Some(h) = metrics.get("histograms") {
                for (k, v) in h.as_obj().unwrap_or(&[]) {
                    check_numbers(v, &format!("metrics.histograms.{k}"), true)
                        .map_err(|m| fail(path, name, &m))?;
                }
            }
        }
        // The tailscope blocks: mandatory on every quick-figures scenario,
        // validated wherever they appear.
        let needs_tailscope = ["shardscale/", "migrate/", "hostperf/", "txnmix/"]
            .iter()
            .any(|p| name.starts_with(p));
        if needs_tailscope && s.get("tail").is_none() {
            return Err(fail(path, name, "scenario has no tail block"));
        }
        if needs_tailscope && s.get("series").is_none() {
            return Err(fail(path, name, "scenario has no series block"));
        }
        if let Some(t) = s.get("tail") {
            check_tail(t).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(se) = s.get("series") {
            check_series(se).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(att) = s.get("stage_attribution") {
            check_attribution(att).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(att) = s.get("txn_breakdown") {
            check_txn_breakdown(att).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(ac) = s.get("abort_causes") {
            let counters = s.get("metrics").and_then(|m| m.get("counters"));
            check_abort_causes(ac, counters).map_err(|m| fail(path, name, &m))?;
        }
        if let Some(base) = baseline {
            if let (Some(expected), Some(got)) = (
                base.get(name),
                s.get("gauges")
                    .and_then(|g| g.get("ops_per_sec"))
                    .and_then(|v| v.as_f64()),
            ) {
                let threshold = expected * 0.75;
                if got < threshold {
                    return Err(fail(
                        path,
                        name,
                        &format!(
                            "throughput regression in scenario {name:?}, metric gauges.ops_per_sec: \
                             measured {got:.0} ops/s is below the threshold {threshold:.0} ops/s \
                             (75% of baseline {expected:.0} ops/s)"
                        ),
                    ));
                }
            }
        }
        if let Some(base) = p99_baseline {
            if let (Some(&expected), Some(got)) = (
                base.get(name),
                s.get("latency")
                    .and_then(|l| l.get("p99_ns"))
                    .and_then(|v| v.as_f64()),
            ) {
                if expected > 0.0 {
                    let fail_at = expected * 3.0;
                    let warn_at = expected * 1.5;
                    if got >= fail_at {
                        return Err(fail(
                            path,
                            name,
                            &format!(
                                "tail-latency regression in scenario {name:?}, metric \
                                 latency.p99_ns: measured {got:.0} ns is at or above \
                                 {fail_at:.0} ns (3x baseline {expected:.0} ns)"
                            ),
                        ));
                    } else if got >= warn_at {
                        eprintln!(
                            "benchcheck: {path}: scenario {name:?}: warning: latency.p99_ns \
                             {got:.0} is at or above 1.5x the baseline {expected:.0} ns \
                             (soft ceiling {warn_at:.0}); not failing, but the tail is growing"
                        );
                    }
                }
            }
        }
        if let Some(base) = host_baseline {
            if let (Some(expected), Some(got)) = (
                base.get(name),
                s.get("host")
                    .and_then(|h| h.get("ops_per_sec"))
                    .and_then(|v| v.as_f64()),
            ) {
                let fail_below = expected * 0.5;
                let warn_below = expected * 0.9;
                if got < fail_below {
                    return Err(fail(
                        path,
                        name,
                        &format!(
                            "host throughput regression in scenario {name:?}, metric host.ops_per_sec: \
                             measured {got:.0} ops/s is below the threshold {fail_below:.0} ops/s \
                             (50% of host baseline {expected:.0} ops/s)"
                        ),
                    ));
                } else if got < warn_below {
                    eprintln!(
                        "benchcheck: {path}: scenario {name:?}: warning: host.ops_per_sec \
                         {got:.0} is below 90% of the host baseline {expected:.0} ops/s \
                         (soft floor {warn_below:.0}); not failing, but the fastpath is eroding"
                    );
                }
            }
        }
    }
    Ok(scenarios.len())
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
    let baseline_path = args.value("--baseline");
    let host_baseline_path = args.value("--host-baseline");
    let paths = &args.positional;
    let baseline = match baseline_path.map(|p| load_baseline(p, false)) {
        None => None,
        Some(Ok(b)) => {
            println!("benchcheck: baseline covers {} scenarios", b.len());
            Some(b)
        }
        Some(Err(e)) => {
            eprintln!("benchcheck: baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let p99_baseline = match baseline_path.map(|p| load_metric(p, "latency", "p99_ns")) {
        None => None,
        Some(Ok(b)) => {
            println!("benchcheck: p99 baseline covers {} scenarios", b.len());
            Some(b)
        }
        Some(Err(e)) => {
            eprintln!("benchcheck: p99 baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    let host_baseline = match host_baseline_path.map(|p| load_baseline(p, true)) {
        None => None,
        Some(Ok(b)) => {
            println!("benchcheck: host baseline covers {} scenarios", b.len());
            Some(b)
        }
        Some(Err(e)) => {
            eprintln!("benchcheck: host baseline: {e}");
            return ExitCode::FAILURE;
        }
    };
    for path in paths {
        match check_file(
            path,
            baseline.as_ref(),
            p99_baseline.as_ref(),
            host_baseline.as_ref(),
        ) {
            Ok(n) => println!("benchcheck: {path}: ok ({n} scenarios)"),
            Err(code) => return code,
        }
    }
    ExitCode::SUCCESS
}
