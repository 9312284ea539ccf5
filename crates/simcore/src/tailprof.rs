//! Tail-latency exemplars, per-stage excess breakdowns and single-cause
//! root-cause attribution over a trace stream.
//!
//! [`StageAttribution`](crate::simprof::StageAttribution) explains the
//! *mean*: where the average op spends its time. This module explains the
//! *tail*: which ops landed past the population p99, how their stage
//! profile differs from the typical op, and — normatively — *why*.
//!
//! Everything here runs at fold time over the captured trace ring, after
//! the simulation finished: like all of `simprof` it is a pure observer
//! and cannot perturb the timeline, so traced and untraced runs of the
//! same seed stay byte-identical.
//!
//! ## Exemplar selection
//!
//! The population is every op with a complete issue→ack window in the
//! stream. End-to-end latencies are ranked exactly by the one quantile
//! rule of [`crate::stats`] (sorted vector, index `ceil(q·n) − 1`), which
//! the `latency` block quotes too, and an op is a *tail op* iff its e2e is
//! **at or beyond** the population p99 and strictly above the population
//! median. Inclusion at the quantile value matters in a deterministic
//! simulator: latencies are heavily quantised, so the slowest ops
//! routinely tie at exactly the p99 order statistic and a strict `>` rule
//! would report an empty tail for precisely the runs (a migration pause,
//! a lock convoy) whose tail needs explaining.
//! The median guard keeps a perfectly flat population — where p99 equals
//! the median — from classifying every op as tail. The slowest
//! [`MAX_EXEMPLARS`] tail ops are retained in full as [`TailExemplar`]s,
//! slowest first.
//!
//! ## Excess tiling contract
//!
//! For each exemplar, every stage kind the op passed through gets an
//! *excess* row: the op's total time in that kind minus the population's
//! per-kind median (median over ops that have the kind at all). The
//! signed rows plus an explicit [`TailExemplar::residual_ns`] tile
//! `e2e − median_e2e` exactly — the same closed-sum discipline as the
//! ±1 ns `StageAttribution` contract, here exact by construction because
//! the residual is computed as the difference.
//!
//! ## Root-cause classification
//!
//! [`TailCause`] is the single normative taxonomy; each tail op gets
//! exactly one cause, so the per-cause counters always sum to the
//! tail-op count (the `AbortCause` closed-sum contract, applied to
//! latency). Causes are tested in the fixed precedence order documented
//! on [`TailCause`]; the first matching signal wins.

use std::collections::BTreeMap;

use crate::jsonw::{join, req, JsonValue, JsonWriter, Shape};
use crate::simaudit::op_id_parts;
use crate::simprof::{issue_ack_window, phase_parts, txn_index};
use crate::simtrace::{
    kind_label, span_tree_from_sorted, OpEvents, OpIndex, SpanNode, TraceEvent, TraceKind,
    KIND_COUNT, NO_NODE, NO_OP, TXN_PHASE_ACQUIRE, TXN_PHASE_BACKOFF, TXN_PHASE_ROLLBACK,
    TXN_PHASE_UNDO,
};
use crate::stats::{quantile, quantile_index};
use crate::time::{SimDuration, SimTime};

/// Maximum fully-materialised exemplars kept per profile (the cause
/// counters still cover *every* tail op).
pub const MAX_EXEMPLARS: usize = 16;

/// Straggler test: the dominant replica's in-op stage total must be at
/// least this multiple of the runner-up's.
pub(crate) const STRAGGLER_RATIO: u64 = 2;

/// Stage kinds whose dominance of the excess profile reads as queueing
/// delay (scheduler dispatch, WQE pickup, chain-release waits, link
/// serialisation).
pub(crate) const QUEUE_KINDS: [&str; 4] = ["wait_release", "wqe_fetch", "link_enqueue", "dispatch"];

/// Why one tail op was slow — the single normative taxonomy.
///
/// Exactly one cause is assigned per tail op, so per-cause counters sum
/// to the tail-op count. Signals are tested in this fixed precedence
/// order; the first match wins:
///
/// 1. [`TailCause::MigrationPause`] — a `migrate_*` event fired inside
///    the op's issue→ack window, on *any* shard: a pause stalls the
///    issuing client's completion loop, so in-flight ops on sibling
///    shards delayed across the window are migration victims too. A
///    shard-matched signal is preferred when choosing the epoch
///    argument.
/// 2. [`TailCause::TxnBackoff`] — the op belongs to a transaction whose
///    `backoff` phase overlaps the op's window.
/// 3. [`TailCause::LockWait`] — the op belongs to a transaction whose
///    `acquire`/`undo`/`rollback` phase covers the op's issue time.
/// 4. [`TailCause::ReplicaStraggler`] — one replica's share of the op's
///    in-window *service* time (queueing stages excluded) is ≥ 2× every
///    sibling's (and at least two replicas took part).
/// 5. [`TailCause::QueueWait`] — the largest positive per-stage excess
///    is a queueing stage (`wait_release`, `wqe_fetch`, `link_enqueue`
///    or `dispatch`).
/// 6. [`TailCause::FlowControlStall`] — the shard's in-flight occupancy
///    at the op's issue equalled the maximum occupancy ever observed on
///    that shard (and that maximum exceeds one op, i.e. the window can
///    bind at all).
/// 7. [`TailCause::Residual`] — none of the above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailCause {
    /// Dominated by queueing delay rather than service time.
    QueueWait,
    /// One replica hop dominated its siblings.
    ReplicaStraggler {
        /// The dominant (slow) replica node.
        node: u32,
    },
    /// Stuck behind a transaction's lock-acquisition pipeline.
    LockWait,
    /// Overlapped a parent transaction's contention backoff.
    TxnBackoff,
    /// Issued into a full flow-control window.
    FlowControlStall,
    /// A shard migration overlapped the op mid-flight (on the op's own
    /// shard, or stalling the shared client loop from a sibling shard).
    MigrationPause {
        /// Epoch the migration signal carried (the cutover's new epoch),
        /// falling back to the op's own epoch for begin/end signals.
        epoch: u64,
    },
    /// No specific signal matched.
    Residual,
}

/// The seven cause labels in precedence order — the closed key set of
/// the `tail.causes` report block.
pub const CAUSE_LABELS: [&str; 7] = [
    "migration_pause",
    "txn_backoff",
    "lock_wait",
    "replica_straggler",
    "queue_wait",
    "flow_control_stall",
    "residual",
];

impl TailCause {
    /// Stable snake_case label used in reports and counters.
    pub fn label(&self) -> &'static str {
        match self {
            TailCause::MigrationPause { .. } => "migration_pause",
            TailCause::TxnBackoff => "txn_backoff",
            TailCause::LockWait => "lock_wait",
            TailCause::ReplicaStraggler { .. } => "replica_straggler",
            TailCause::QueueWait => "queue_wait",
            TailCause::FlowControlStall => "flow_control_stall",
            TailCause::Residual => "residual",
        }
    }

    /// The cause's numeric argument: the straggler node, the migration
    /// epoch, and 0 for every argument-less cause. Keeps the exemplar
    /// JSON key set closed.
    pub fn arg(&self) -> u64 {
        match self {
            TailCause::ReplicaStraggler { node } => *node as u64,
            TailCause::MigrationPause { epoch } => *epoch,
            _ => 0,
        }
    }
}

/// One signed row of an exemplar's excess breakdown: the op's total time
/// in one stage kind versus the population median for that kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageExcess {
    /// Stage kind (node-suffix stripped, e.g. `wait_release`).
    pub label: String,
    /// This op's total time in the kind, ns.
    pub actual_ns: u64,
    /// Population median per-op total for the kind, ns.
    pub median_ns: u64,
    /// `actual_ns − median_ns` (negative when the op was *faster* here).
    pub excess_ns: i64,
}

/// One fully-materialised tail op: identity, cause, excess breakdown and
/// span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TailExemplar {
    /// The op id.
    pub op: u64,
    /// Shard the op ran on (from the op-id encoding).
    pub shard: u32,
    /// Issue time.
    pub start: SimTime,
    /// Issue→ack end-to-end latency.
    pub e2e: SimDuration,
    /// `e2e − median_e2e` for the population, ns.
    pub excess_ns: i64,
    /// The assigned root cause.
    pub cause: TailCause,
    /// Per-stage-kind excess rows, in the op's first-touch order.
    pub stages: Vec<StageExcess>,
    /// `excess_ns − Σ stages.excess_ns`: the part of the op's excess not
    /// explained by stage kinds it shares with the population. The rows
    /// plus this residual tile `excess_ns` exactly by construction.
    pub residual_ns: i64,
    /// The op's reconstructed span tree (artifact export only; the
    /// scenario report block omits it).
    pub span: Option<SpanNode>,
}

/// Tail-latency profile of one trace stream: exact population quantiles,
/// closed-sum cause counters over every tail op, and the slowest
/// exemplars in full.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TailProfile {
    /// Population size: ops with a complete issue→ack window.
    pub ops: u64,
    /// Ops at or beyond the population p99 (and strictly above the
    /// median; see the module docs for why the quantile is inclusive).
    pub tail_ops: u64,
    /// Exact population p99 e2e, ns.
    pub p99_ns: u64,
    /// Exact population median e2e, ns.
    pub median_e2e_ns: u64,
    /// Per-cause tail-op counts, one entry per [`CAUSE_LABELS`] label in
    /// that order (zeros included); they sum to [`TailProfile::tail_ops`].
    pub causes: Vec<(&'static str, u64)>,
    /// The ≤ [`MAX_EXEMPLARS`] slowest tail ops, slowest first (ties
    /// broken by ascending op id).
    pub exemplars: Vec<TailExemplar>,
}

/// [`TailProfile::SHAPE`]'s rule.
fn tail_rule(t: &JsonValue, path: &str) -> Result<(), String> {
    let count = |v: &JsonValue, k| v.get(k).and_then(JsonValue::as_u64).unwrap_or_default();
    let num = |v: &JsonValue, k| v.get(k).and_then(JsonValue::as_f64).unwrap_or_default();
    let at = |k: &str| join(path, k);
    let (ops, tail_ops) = (count(t, "ops"), count(t, "tail_ops"));
    let (p99, median) = (count(t, "p99_ns"), count(t, "median_e2e_ns"));
    if tail_ops > ops {
        return Err(format!(
            "{}={tail_ops} exceeds {}={ops}",
            at("tail_ops"),
            at("ops")
        ));
    }
    let causes = t
        .get("causes")
        .and_then(JsonValue::as_obj)
        .unwrap_or_default();
    let cause_sum: u64 = causes.iter().filter_map(|(_, n)| n.as_u64()).sum();
    if cause_sum != tail_ops {
        return Err(format!(
            "{}.* sum to {cause_sum} but {}={tail_ops} — a tail op escaped root-cause \
             attribution",
            at("causes"),
            at("tail_ops")
        ));
    }
    let exemplars = t.items("exemplars");
    if exemplars.len() as u64 > tail_ops {
        return Err(format!(
            "{path} carries {} exemplars for {tail_ops} tail ops",
            exemplars.len()
        ));
    }
    let mut prev = u64::MAX;
    for (i, ex) in exemplars.iter().enumerate() {
        let what = at(&format!("exemplars[{i}]"));
        let e2e = count(ex, "e2e_ns");
        if e2e < p99 {
            return Err(format!(
                "{what}.e2e_ns={e2e} is below {}={p99}",
                at("p99_ns")
            ));
        }
        if e2e <= median {
            return Err(format!(
                "{what}.e2e_ns={e2e} does not exceed {}={median}",
                at("median_e2e_ns")
            ));
        }
        if e2e > prev {
            return Err(format!("{what} is out of slowest-first order"));
        }
        prev = e2e;
        let (excess, residual) = (num(ex, "excess_ns"), num(ex, "residual_ns"));
        let expect = e2e as f64 - median as f64;
        if (excess - expect).abs() > 1.0 {
            return Err(format!(
                "{what}.excess_ns={excess} but e2e_ns − median_e2e_ns = {expect}"
            ));
        }
        let explained: f64 = ex.items("stages").iter().map(|s| num(s, "excess_ns")).sum();
        if (explained + residual - excess).abs() > 1.0 {
            return Err(format!(
                "{what} stage excesses ({explained}) + residual ({residual}) do not tile \
                 excess_ns ({excess})"
            ));
        }
    }
    Ok(())
}

/// [`quantile`] of an unsorted vector: the same order statistic,
/// selected in linear time (reorders `values`).
fn select_quantile(values: &mut [u64], num: u64, den: u64) -> u64 {
    quantile_index(values.len(), num, den).map_or(0, |i| *values.select_nth_unstable(i).1)
}

/// A transaction phase window `[start, end]` in phase `phase`.
struct PhaseWindow {
    start: SimTime,
    end: SimTime,
    phase: u8,
}

/// Adjacent-event pairing of one txn's phase events into windows: a
/// Begin-opened window is time in that phase (same folding rule as
/// `TxnAttribution`).
fn phase_windows(evs: OpEvents<'_>) -> Vec<PhaseWindow> {
    evs.pairs()
        .filter_map(|(prev, next)| {
            let (is_begin, _, phase) = phase_parts(evs.event(prev));
            is_begin.then_some(PhaseWindow {
                start: prev.at(),
                end: next.at(),
                phase,
            })
        })
        .collect()
}

/// One op's per-stage-kind totals over its window, in first-touch order
/// (kinds by ordinal; a stage belongs to the kind of the event ending it).
fn kind_totals(win: OpEvents<'_>, out: &mut Vec<(usize, u64)>) {
    out.clear();
    let mut row = [u8::MAX; KIND_COUNT];
    for (prev, cur) in win.pairs() {
        let kind = cur.kind();
        let ns = cur.at().since(prev.at()).as_nanos();
        match row[kind] {
            u8::MAX => {
                row[kind] = out.len() as u8;
                out.push((kind, ns));
            }
            i => out[i as usize].1 += ns,
        }
    }
}

/// One op's in-window stage totals per node (the node of the event ending
/// each stage). Queue-stage time is not replica service time: keeping it
/// out stops a long dispatch wait from masquerading as a straggling
/// replica.
fn node_totals(win: OpEvents<'_>) -> BTreeMap<u32, u64> {
    let mut totals = BTreeMap::new();
    for (prev, cur) in win.pairs() {
        if cur.node() != NO_NODE && !QUEUE_KINDS.contains(&kind_label(cur.kind())) {
            *totals.entry(cur.node()).or_insert(0) += cur.at().since(prev.at()).as_nanos();
        }
    }
    totals
}

/// A [`StageExcess`] row before it reaches a report: the label is the
/// kind's static name.
struct Excess {
    label: &'static str,
    actual_ns: u64,
    median_ns: u64,
    excess_ns: i64,
}

/// Cause signals, gathered in the op index's grouping pass.
#[derive(Default)]
struct Signals {
    /// Migration signals: (at, shard, cutover epoch if any).
    migrations: Vec<(SimTime, u32, Option<u64>)>,
    /// Every issue and ack: (at, is_issue, shard, op).
    flow: Vec<(SimTime, bool, u32, u64)>,
    /// `TxnOp` parent tags, in emission order: (op, txn).
    parents: Vec<(u64, u64)>,
    /// The txn phase events, in emission order.
    phases: Vec<TraceEvent>,
}

impl Signals {
    fn observe(&mut self, e: &TraceEvent) {
        match e.kind {
            TraceKind::MigrateBegin { shard } | TraceKind::MigrateEnd { shard, .. } => {
                self.migrations.push((e.at, shard, None))
            }
            TraceKind::MigrateCutover { shard, epoch } => {
                self.migrations.push((e.at, shard, Some(epoch)))
            }
            TraceKind::OpIssue => self.flow.push((e.at, true, op_id_parts(e.op).0, e.op)),
            TraceKind::OpAck => self.flow.push((e.at, false, op_id_parts(e.op).0, e.op)),
            TraceKind::TxnOp { txn } => self.parents.push((e.op, txn)),
            TraceKind::TxnPhaseBegin { .. } | TraceKind::TxnPhaseEnd { .. } => self.phases.push(*e),
            _ => {}
        }
    }
}

/// Flow-control occupancy: per shard, the in-flight count at each op's
/// issue (kept for the ops in `tail`, sorted) and the maximum ever seen.
struct Occupancy {
    at_issue: BTreeMap<u64, u64>,
    shard_max: BTreeMap<u32, u64>,
}

impl Occupancy {
    /// Replays every issue and ack in time order, issues before acks at
    /// one instant.
    fn replay(mut flow: Vec<(SimTime, bool, u32, u64)>, tail: &[u64]) -> Self {
        flow.sort_by_key(|&(at, is_issue, _, op)| (at, !is_issue, op));
        let mut inflight: BTreeMap<u32, u64> = BTreeMap::new();
        let mut occupancy = Occupancy {
            at_issue: BTreeMap::new(),
            shard_max: BTreeMap::new(),
        };
        for (_, is_issue, shard, op) in flow {
            let cur = inflight.entry(shard).or_insert(0);
            if is_issue {
                *cur += 1;
                if tail.binary_search(&op).is_ok() {
                    occupancy.at_issue.insert(op, *cur);
                }
                let max = occupancy.shard_max.entry(shard).or_insert(0);
                *max = (*max).max(*cur);
            } else {
                *cur = cur.saturating_sub(1);
            }
        }
        occupancy
    }
}

impl TailProfile {
    /// Folds a trace stream into a tail profile.
    ///
    /// The population is every op with a complete issue→ack window
    /// (txn pseudo-ops have neither and drop out naturally). Quantiles
    /// are exact; every tail op is classified; only the slowest
    /// [`MAX_EXEMPLARS`] are materialised as [`TailExemplar`]s. One pass
    /// over the stream groups it by op and gathers every cause signal.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut signals = Signals::default();
        let index = OpIndex::build(events, |e| {
            signals.observe(e);
            (e.op != NO_OP).then_some(e.op)
        });

        // The population: every op with a complete issue→ack window, and
        // per stage kind the per-op totals of the ops that have it.
        struct OpFold<'a> {
            op: u64,
            evs: OpEvents<'a>,
            win: OpEvents<'a>,
            e2e_ns: u64,
        }
        let mut folds: Vec<OpFold<'_>> = Vec::new();
        let mut kind_pop: [Vec<u64>; KIND_COUNT] = std::array::from_fn(|_| Vec::new());
        let mut kinds: Vec<(usize, u64)> = Vec::new();
        for (op, evs) in index.iter() {
            let Some(win) = issue_ack_window(evs) else {
                continue;
            };
            kind_totals(win, &mut kinds);
            for &(kind, ns) in &kinds {
                kind_pop[kind].push(ns);
            }
            folds.push(OpFold {
                op,
                evs,
                win,
                e2e_ns: win.last().at().since(win.first().at()).as_nanos(),
            });
        }

        let mut profile = TailProfile {
            ops: folds.len() as u64,
            causes: CAUSE_LABELS.iter().map(|&l| (l, 0)).collect(),
            ..TailProfile::default()
        };
        if folds.is_empty() {
            return profile;
        }

        // Exact population quantiles over e2e and per-stage-kind totals.
        let mut e2e_sorted: Vec<u64> = folds.iter().map(|f| f.e2e_ns).collect();
        e2e_sorted.sort_unstable();
        profile.p99_ns = quantile(&e2e_sorted, 99, 100);
        profile.median_e2e_ns = quantile(&e2e_sorted, 1, 2);
        let kind_median: [u64; KIND_COUNT] =
            std::array::from_fn(|kind| select_quantile(&mut kind_pop[kind], 1, 2));

        // The tail: slowest first, ties by ascending op id (deterministic).
        let mut tail: Vec<&OpFold<'_>> = folds
            .iter()
            .filter(|f| f.e2e_ns >= profile.p99_ns && f.e2e_ns > profile.median_e2e_ns)
            .collect();
        tail.sort_by_key(|f| (std::cmp::Reverse(f.e2e_ns), f.op));
        profile.tail_ops = tail.len() as u64;
        let mut tail_ids: Vec<u64> = tail.iter().map(|f| f.op).collect();
        tail_ids.sort_unstable();
        let occupancy = Occupancy::replay(signals.flow, &tail_ids);
        // A tail op's parent txn is named by its latest-emitted tag.
        let mut parents: BTreeMap<u64, u64> = BTreeMap::new();
        for &(op, txn) in &signals.parents {
            if tail_ids.binary_search(&op).is_ok() {
                parents.insert(op, txn);
            }
        }

        // Classify every tail op; materialise the slowest as exemplars.
        let mut txns: Option<OpIndex<'_>> = None;
        let mut rows: Vec<Excess> = Vec::new();
        for (rank, f) in tail.iter().enumerate() {
            let (shard, op_epoch, _) = op_id_parts(f.op);
            kind_totals(f.win, &mut kinds);
            rows.clear();
            rows.extend(kinds.iter().map(|&(kind, ns)| Excess {
                label: kind_label(kind),
                actual_ns: ns,
                median_ns: kind_median[kind],
                excess_ns: ns as i64 - kind_median[kind] as i64,
            }));
            let windows = parents.get(&f.op).and_then(|&txn| {
                let txns = txns.get_or_insert_with(|| txn_index(&signals.phases));
                txns.get(txn).map(phase_windows)
            });
            let (start, end) = (f.win.first().at(), f.win.last().at());
            let cause = classify(
                shard,
                op_epoch,
                start,
                end,
                &node_totals(f.win),
                &rows,
                windows.as_deref(),
                occupancy.at_issue.get(&f.op).copied(),
                occupancy.shard_max.get(&shard).copied().unwrap_or(0),
                &signals.migrations,
            );
            if let Some(slot) = profile.causes.iter_mut().find(|(l, _)| *l == cause.label()) {
                slot.1 += 1;
            }

            if rank < MAX_EXEMPLARS {
                let excess_ns = f.e2e_ns as i64 - profile.median_e2e_ns as i64;
                let explained: i64 = rows.iter().map(|r| r.excess_ns).sum();
                profile.exemplars.push(TailExemplar {
                    op: f.op,
                    shard,
                    start,
                    e2e: SimDuration::from_nanos(f.e2e_ns),
                    excess_ns,
                    cause,
                    stages: rows
                        .iter()
                        .map(|r| StageExcess {
                            label: r.label.to_string(),
                            actual_ns: r.actual_ns,
                            median_ns: r.median_ns,
                            excess_ns: r.excess_ns,
                        })
                        .collect(),
                    residual_ns: excess_ns - explained,
                    span: span_tree_from_sorted(f.op, &f.evs.to_vec()),
                });
            }
        }
        profile
    }

    /// The count recorded for one cause label (0 for unknown labels).
    pub fn cause_count(&self, label: &str) -> u64 {
        self.causes
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(0, |(_, n)| *n)
    }

    /// The scenario-report `tail` block [`TailProfile::write_fields`]
    /// writes. Its rule: the causes sum to `tail_ops`, and every exemplar
    /// is a tail op (at or beyond `p99_ns`, above the median), slowest
    /// first, whose stage excesses plus residual tile its excess within
    /// 1 ns.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("ops", Shape::Count),
            req("tail_ops", Shape::Count),
            req("p99_ns", Shape::Count),
            req("median_e2e_ns", Shape::Count),
            req("causes", Shape::Keyed(&CAUSE_LABELS, &Shape::Count)),
            req(
                "exemplars",
                Shape::Arr(&Shape::Obj(
                    &[
                        req("op", Shape::Count),
                        req("shard", Shape::Count),
                        req("start_ns", Shape::Count),
                        req("e2e_ns", Shape::Count),
                        req("excess_ns", Shape::Number),
                        req("cause", Shape::Label(&CAUSE_LABELS)),
                        req("cause_arg", Shape::Count),
                        req(
                            "stages",
                            Shape::Arr(&Shape::Obj(
                                &[
                                    req("label", Shape::Str),
                                    req("actual_ns", Shape::Count),
                                    req("median_ns", Shape::Count),
                                    req("excess_ns", Shape::Number),
                                ],
                                None,
                            )),
                        ),
                        req("residual_ns", Shape::Number),
                    ],
                    None,
                )),
            ),
        ],
        Some(tail_rule),
    );

    /// Writes the scenario-report `tail` block as fields of an
    /// already-open JSON object ([`TailProfile::SHAPE`]; span trees are
    /// left to [`TailProfile::to_artifact_json`]).
    pub fn write_fields(&self, w: &mut JsonWriter) {
        self.write_block(w, false);
    }

    /// The block's fields, with each exemplar's span tree when `spans`.
    fn write_block(&self, w: &mut JsonWriter, spans: bool) {
        w.field_u64("ops", self.ops);
        w.field_u64("tail_ops", self.tail_ops);
        w.field_u64("p99_ns", self.p99_ns);
        w.field_u64("median_e2e_ns", self.median_e2e_ns);
        w.begin_obj_field("causes");
        for (label, n) in &self.causes {
            w.field_u64(label, *n);
        }
        w.end_obj();
        w.begin_arr_field("exemplars");
        for ex in &self.exemplars {
            w.begin_obj();
            w.field_u64("op", ex.op);
            w.field_u64("shard", ex.shard as u64);
            w.field_u64("start_ns", ex.start.as_nanos());
            w.field_u64("e2e_ns", ex.e2e.as_nanos());
            w.field_i64("excess_ns", ex.excess_ns);
            w.field_str("cause", ex.cause.label());
            w.field_u64("cause_arg", ex.cause.arg());
            w.begin_arr_field("stages");
            for s in &ex.stages {
                w.begin_obj();
                w.field_str("label", &s.label);
                w.field_u64("actual_ns", s.actual_ns);
                w.field_u64("median_ns", s.median_ns);
                w.field_i64("excess_ns", s.excess_ns);
                w.end_obj();
            }
            w.end_arr();
            w.field_i64("residual_ns", ex.residual_ns);
            if let Some(span) = ex.span.as_ref().filter(|_| spans) {
                w.begin_obj_field("span");
                write_span(w, span);
                w.end_obj();
            }
            w.end_obj();
        }
        w.end_arr();
    }

    /// The block as a standalone JSON object string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        self.write_fields(&mut w);
        w.end_obj();
        w.finish()
    }

    /// The full-detail artifact document (`TAIL_*.json`): the report
    /// block plus each exemplar's span tree.
    pub fn to_artifact_json(&self, scenario: &str) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.field_str("scenario", scenario);
        self.write_block(&mut w, true);
        w.end_obj();
        w.finish()
    }
}

fn write_span(w: &mut JsonWriter, node: &SpanNode) {
    w.field_str("label", &node.label);
    w.field_u64("start_ns", node.start.as_nanos());
    w.field_u64("end_ns", node.end.as_nanos());
    w.begin_arr_field("children");
    for c in &node.children {
        w.begin_obj();
        write_span(w, c);
        w.end_obj();
    }
    w.end_arr();
}

/// Applies the normative precedence chain to one tail op (see
/// [`TailCause`]). `windows` are the parent txn's phase windows, if the op
/// has one; `occupancy` is the shard's in-flight count at its issue and
/// `shard_max` the most it ever held.
#[allow(clippy::too_many_arguments)]
fn classify(
    shard: u32,
    op_epoch: u64,
    start: SimTime,
    end: SimTime,
    node_totals: &BTreeMap<u32, u64>,
    stages: &[Excess],
    windows: Option<&[PhaseWindow]>,
    occupancy: Option<u64>,
    shard_max: u64,
    migrations: &[(SimTime, u32, Option<u64>)],
) -> TailCause {
    // 1. Migration signal inside the op's window — on any shard, since a
    //    pause stalls the issuing client's completion loop and delays
    //    sibling-shard in-flight ops across the window too. Prefer a
    //    shard-matched signal, then a signal carrying an epoch (the
    //    cutover), when picking the cause argument.
    let mut pause: Option<(bool, Option<u64>)> = None;
    for &(at, mshard, epoch) in migrations {
        if at < start || at > end {
            continue;
        }
        let matched = mshard == shard;
        let better = match pause {
            None => true,
            Some((m, e)) => (matched && !m) || (matched == m && e.is_none() && epoch.is_some()),
        };
        if better {
            pause = Some((matched, epoch));
        }
    }
    if let Some((_, epoch)) = pause {
        return TailCause::MigrationPause {
            epoch: epoch.unwrap_or(op_epoch),
        };
    }

    if let Some(windows) = windows {
        // 2. Parent txn backed off while the op was in flight.
        if windows
            .iter()
            .any(|w| w.phase == TXN_PHASE_BACKOFF && w.start <= end && w.end >= start)
        {
            return TailCause::TxnBackoff;
        }
        // 3. Op issued inside the parent txn's lock pipeline.
        if windows.iter().any(|w| {
            matches!(
                w.phase,
                TXN_PHASE_ACQUIRE | TXN_PHASE_UNDO | TXN_PHASE_ROLLBACK
            ) && w.start <= start
                && w.end >= start
        }) {
            return TailCause::LockWait;
        }
    }

    // 4. One replica dominated its siblings.
    if node_totals.len() >= 2 {
        let mut ranked: Vec<(u64, u32)> = node_totals.iter().map(|(&n, &ns)| (ns, n)).collect();
        ranked.sort_unstable_by_key(|&(ns, node)| (std::cmp::Reverse(ns), node));
        let (top_ns, top_node) = ranked[0];
        let (second_ns, _) = ranked[1];
        if second_ns > 0 && top_ns >= STRAGGLER_RATIO * second_ns {
            return TailCause::ReplicaStraggler { node: top_node };
        }
    }

    // 5. The largest positive excess is a queueing stage.
    if let Some(worst) = stages
        .iter()
        .filter(|s| s.excess_ns > 0)
        .max_by_key(|s| (s.excess_ns, std::cmp::Reverse(s.label)))
    {
        if QUEUE_KINDS.contains(&worst.label) {
            return TailCause::QueueWait;
        }
    }

    // 6. Issued into a full flow-control window.
    if shard_max > 1 && occupancy == Some(shard_max) {
        return TailCause::FlowControlStall;
    }

    TailCause::Residual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simtrace::{Tracer, NO_NODE};

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    /// Emits a complete issue→ack op: issue at `start`, one
    /// `wqe_exec`-terminated hop per `(node, at)` pair, ack at `end`.
    fn emit_op(tr: &Tracer, op: u64, start: u64, hops: &[(u32, u64)], end: u64) {
        tr.emit(t(start), 0, op, TraceKind::OpIssue);
        for &(node, at) in hops {
            tr.emit(
                t(at),
                node,
                op,
                TraceKind::WqeExec {
                    qp: 0,
                    opcode: 0,
                    bytes: 64,
                },
            );
        }
        tr.emit(t(end), 0, op, TraceKind::OpAck);
    }

    fn base_population(tr: &Tracer, shard: u32, n: u64) {
        let base = crate::simaudit::op_id_base(shard, 0);
        for i in 0..n {
            let op = base | i;
            let start = 10_000 * i;
            emit_op(
                tr,
                op,
                start,
                &[(1, start + 400), (2, start + 800)],
                start + 1_000,
            );
        }
    }

    #[test]
    fn quantiles_are_exact_and_flat_population_has_no_tail() {
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 100);
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.ops, 100);
        assert_eq!(p.median_e2e_ns, 1_000);
        assert_eq!(p.p99_ns, 1_000);
        // The median guard: when every op is identical, p99 == median and
        // nothing classifies as tail (even though e2e >= p99 everywhere).
        assert_eq!(p.tail_ops, 0);
        assert!(p.exemplars.is_empty());
        assert_eq!(p.causes.len(), CAUSE_LABELS.len());
    }

    #[test]
    fn ties_at_the_quantile_stay_in_the_tail() {
        // Deterministic sims quantise latencies, so the slowest ops often
        // tie at exactly the p99 order statistic; inclusion at the
        // quantile keeps them classifiable (a strict `>` rule would
        // report an empty tail here).
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 99);
        let base = crate::simaudit::op_id_base(0, 0);
        for (i, start) in [(990u64, 2_000_000u64), (991, 3_000_000)] {
            let op = base | i;
            emit_op(
                &tr,
                op,
                start,
                &[(1, start + 400), (2, start + 49_000)],
                start + 50_000,
            );
        }
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.ops, 101);
        // Both slow ops share the p99 value exactly; both are tail ops.
        assert_eq!(p.p99_ns, 50_000);
        assert_eq!(p.tail_ops, 2);
        assert_eq!(p.exemplars.len(), 2);
        let total: u64 = p.causes.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 2);
        // Ties rank by ascending op id.
        assert_eq!(p.exemplars[0].op, base | 990);
        assert_eq!(p.exemplars[1].op, base | 991);
    }

    #[test]
    fn causes_sum_to_tail_ops_and_excess_tiles() {
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 99);
        // One op 50× slower than the rest: its wqe_exec hops blow out.
        let slow = crate::simaudit::op_id_base(0, 0) | 990;
        emit_op(
            &tr,
            slow,
            2_000_000,
            &[(1, 2_000_400), (2, 2_050_000)],
            2_050_200,
        );
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.ops, 100);
        assert_eq!(p.tail_ops, 1);
        let total: u64 = p.causes.iter().map(|(_, n)| n).sum();
        assert_eq!(total, p.tail_ops);
        let ex = &p.exemplars[0];
        assert_eq!(ex.op, slow);
        assert_eq!(
            ex.excess_ns,
            ex.e2e.as_nanos() as i64 - p.median_e2e_ns as i64
        );
        let explained: i64 = ex.stages.iter().map(|s| s.excess_ns).sum();
        assert_eq!(explained + ex.residual_ns, ex.excess_ns);
        // Node 2 took ~49.6µs of the op's ~50.2µs: a straggler.
        assert_eq!(ex.cause, TailCause::ReplicaStraggler { node: 2 });
        assert!(ex.span.is_some());
    }

    #[test]
    fn migration_outranks_straggler() {
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 3, 99);
        let slow = crate::simaudit::op_id_base(3, 0) | 990;
        emit_op(
            &tr,
            slow,
            2_000_000,
            &[(1, 2_000_400), (2, 2_050_000)],
            2_050_200,
        );
        tr.emit(
            t(2_010_000),
            NO_NODE,
            crate::simtrace::NO_OP,
            TraceKind::MigrateCutover { shard: 3, epoch: 7 },
        );
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.exemplars[0].cause, TailCause::MigrationPause { epoch: 7 });
        assert_eq!(p.cause_count("migration_pause"), 1);
        assert_eq!(p.cause_count("replica_straggler"), 0);
    }

    #[test]
    fn sibling_shard_migration_still_reads_as_pause() {
        // The op lives on shard 0; the cutover fires on shard 9 while the
        // op is in flight. The client loop is shared, so the delay is
        // still migration-caused — and the cutover's epoch wins over the
        // op's own epoch (0).
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 99);
        let slow = crate::simaudit::op_id_base(0, 0) | 990;
        emit_op(
            &tr,
            slow,
            2_000_000,
            &[(1, 2_000_400), (2, 2_050_000)],
            2_050_200,
        );
        tr.emit(
            t(2_010_000),
            NO_NODE,
            crate::simtrace::NO_OP,
            TraceKind::MigrateCutover { shard: 9, epoch: 4 },
        );
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.exemplars[0].cause, TailCause::MigrationPause { epoch: 4 });
        assert_eq!(p.cause_count("migration_pause"), 1);
    }

    #[test]
    fn queue_wait_when_wait_release_dominates() {
        let tr = Tracer::enabled(1 << 14);
        let base = crate::simaudit::op_id_base(0, 0);
        for i in 0..99u64 {
            let op = base | i;
            let start = 10_000 * i;
            tr.emit(t(start), 0, op, TraceKind::OpIssue);
            tr.emit(t(start + 500), 1, op, TraceKind::WaitRelease { qp: 0 });
            tr.emit(t(start + 1_000), 0, op, TraceKind::OpAck);
        }
        // Slow op: the wait_release stage alone blows out; only one node
        // participates so the straggler rule cannot fire.
        let slow = base | 990;
        tr.emit(t(2_000_000), 0, slow, TraceKind::OpIssue);
        tr.emit(t(2_090_000), 1, slow, TraceKind::WaitRelease { qp: 0 });
        tr.emit(t(2_090_500), 0, slow, TraceKind::OpAck);
        let p = TailProfile::from_events(&tr.events());
        assert_eq!(p.tail_ops, 1);
        assert_eq!(p.exemplars[0].cause, TailCause::QueueWait);
    }

    #[test]
    fn report_block_has_closed_key_set() {
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 99);
        let slow = crate::simaudit::op_id_base(0, 0) | 990;
        emit_op(
            &tr,
            slow,
            2_000_000,
            &[(1, 2_000_400), (2, 2_050_000)],
            2_050_200,
        );
        let p = TailProfile::from_events(&tr.events());
        let json = p.to_json();
        let v = crate::jsonw::parse(&json).expect("tail block parses");
        let obj = v.as_obj().unwrap();
        let keys: Vec<&str> = obj.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "ops",
                "tail_ops",
                "p99_ns",
                "median_e2e_ns",
                "causes",
                "exemplars"
            ]
        );
        let causes = v.get("causes").unwrap().as_obj().unwrap();
        let cause_keys: Vec<&str> = causes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(cause_keys, CAUSE_LABELS);
        let artifact = p.to_artifact_json("test");
        assert!(crate::jsonw::parse(&artifact).is_ok());
        assert!(artifact.contains("\"span\""));
    }

    #[test]
    fn written_block_matches_its_declaration() {
        let tr = Tracer::enabled(1 << 14);
        base_population(&tr, 0, 99);
        let slow = crate::simaudit::op_id_base(0, 0) | 990;
        emit_op(
            &tr,
            slow,
            2_000_000,
            &[(1, 2_000_400), (2, 2_050_000)],
            2_050_200,
        );
        let p = TailProfile::from_events(&tr.events());
        assert!(!p.exemplars.is_empty() && !p.exemplars[0].stages.is_empty());
        let v = crate::jsonw::parse(&p.to_json()).expect("tail block parses");
        TailProfile::SHAPE
            .check(&v, "tail")
            .expect("writer and declaration agree");
    }
}
