//! The seed-era observability folds and exports, retained as the reference
//! model for the op index.
//!
//! Every function here is the code that [`crate::simprof`],
//! [`crate::tailprof`] and [`crate::simtrace`] ran before their bulk folds
//! and Chrome exports moved onto one grouped op index: per-op `Vec`s in a
//! `BTreeMap`, a `label@nNODE` string per folded stage, and a full-stream
//! rescan per exported op and per tail exemplar. It is slow on purpose and
//! changes only if the intended output changes. The equivalence tests (in
//! this module and in the workspace's `fold_equivalence` test) assert
//! byte-identical output from both on seeded synthetic streams and on a
//! real contended transaction run.
//!
//! Compiled for this crate's tests and, through the `obs-reference`
//! feature, for the workspace's integration tests; never in a release
//! build.

#![allow(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};

use crate::jsonw::JsonWriter;
use crate::simaudit::op_id_parts;
use crate::simprof::{CounterSample, StageAttribution, TxnAttribution, COUNTER_PID, TXN_PID};
use crate::simtrace::{
    breakdown_from_sorted, events_for, op_breakdown, ops, span_tree, txn_mode_label,
    txn_phase_label, TraceEvent, TraceKind, NO_NODE, NO_OP, TXN_PHASE_ACQUIRE, TXN_PHASE_BACKOFF,
    TXN_PHASE_ROLLBACK, TXN_PHASE_UNDO,
};
use crate::stats::quantile;
use crate::tailprof::{
    StageExcess, TailCause, TailExemplar, TailProfile, CAUSE_LABELS, MAX_EXEMPLARS, QUEUE_KINDS,
    STRAGGLER_RATIO,
};
use crate::time::{SimDuration, SimTime};

/// Reference [`StageAttribution::from_events`].
pub fn stage_attribution(events: &[TraceEvent]) -> StageAttribution {
    let mut att = StageAttribution::default();
    for (op, evs) in events_by_op(events) {
        let Some(win) = issue_ack_window(&evs) else {
            att.truncated += 1;
            continue;
        };
        let Some(bd) = breakdown_from_sorted(op, win, 0) else {
            att.truncated += 1;
            continue;
        };
        att.ops += 1;
        let e2e = bd.total();
        att.e2e.record(e2e);
        att.e2e_total_ns += e2e.as_nanos();
        let mut sig = String::new();
        for s in &bd.stages {
            let label = stage_kind(&s.label);
            if !sig.is_empty() {
                sig.push(';');
            }
            sig.push_str(label);
            let agg = att.stages.entry(label.to_string()).or_default();
            agg.count += 1;
            agg.total_ns += s.duration().as_nanos();
            agg.latencies.record(s.duration());
        }
        *att.paths.entry(sig).or_insert(0) += 1;
    }
    att
}

/// Strips the `@nNODE` suffix off a stage label (`"wait_release@n2"` →
/// `"wait_release"`).
pub(crate) fn stage_kind(label: &str) -> &str {
    label.rsplit_once("@n").map_or(label, |(k, _)| k)
}

/// Groups a stream by op in one pass, each op's events time-sorted
/// (stable, so ties keep emission order — same contract as
/// `simtrace::events_for`). Bulk folds over every op are O(n log n) this
/// way instead of O(ops × n) re-filtering.
pub(crate) fn events_by_op(events: &[TraceEvent]) -> BTreeMap<u64, Vec<TraceEvent>> {
    let mut map: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.op != NO_OP {
            map.entry(e.op).or_default().push(*e);
        }
    }
    for evs in map.values_mut() {
        evs.sort_by_key(|e| e.at);
    }
    map
}

/// Trims a time-sorted per-op event slice to the host-observed window:
/// first `OpIssue` through last `OpAck`. HyperLoop preposts RECV WQEs
/// whose `wr_id` names a *future* generation, so an op's stream can open
/// with descriptor-fetch events emitted long before the client issues the
/// op; those are setup cost, not op latency, and are cut here. Returns
/// `None` when the stream never captured the op's issue or its ack.
pub(crate) fn issue_ack_window(evs: &[TraceEvent]) -> Option<&[TraceEvent]> {
    let first = evs
        .iter()
        .position(|e| matches!(e.kind, TraceKind::OpIssue))?;
    let last = evs
        .iter()
        .rposition(|e| matches!(e.kind, TraceKind::OpAck))?;
    if last <= first {
        return None;
    }
    Some(&evs[first..=last])
}

/// Renders a trace stream in the flamegraph collapsed-stack text format:
/// one `root;nodeN;stage total_ns` line per (node, stage) pair, summed
/// over all complete ops and sorted lexicographically. Feed straight into
/// `flamegraph.pl` / speedscope; byte-identical for same-seed runs.
pub fn folded_stacks(events: &[TraceEvent], root: &str) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (op, evs) in events_by_op(events) {
        let Some(win) = issue_ack_window(&evs) else {
            continue;
        };
        let Some(bd) = breakdown_from_sorted(op, win, 0) else {
            continue;
        };
        for (stage, ev) in bd.stages.iter().zip(win.iter().skip(1)) {
            let key = format!("{root};node{};{}", ev.node, stage_kind(&stage.label));
            *folded.entry(key).or_insert(0) += stage.duration().as_nanos();
        }
    }
    let mut out = String::new();
    for (k, v) in &folded {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Exports a trace stream as Chrome trace-event JSON (Perfetto-compatible).
///
/// Per-op stage spans become `"X"` complete events (`pid` = node, `tid` =
/// op), raw events become `"i"` instants with their payload in `args`.
/// Iteration order is fully deterministic, so same-seed runs produce
/// byte-identical output.
///
/// To interleave registry-sampled counter tracks with the span stream, use
/// [`crate::simprof::chrome_trace_with_counters`].
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.begin_arr_field("traceEvents");
    write_chrome_events(&mut w, events);
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

/// Writes the span/instant event stream into an already-open
/// `traceEvents` array (shared by [`chrome_trace_json`] and the
/// counter-track export in [`crate::simprof`]).
pub(crate) fn write_chrome_events(w: &mut JsonWriter, events: &[TraceEvent]) {
    let nodes: BTreeSet<u32> = events
        .iter()
        .map(|e| e.node)
        .filter(|&n| n != NO_NODE)
        .collect();
    for n in &nodes {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", *n as u64);
        w.field_str("name", "process_name");
        w.begin_obj_field("args");
        w.field_str("name", &format!("node{n}"));
        w.end_obj();
        w.end_obj();
    }

    for op in ops(events) {
        let evs = events_for(events, op);
        if let Some(bd) = op_breakdown(events, op) {
            for (stage, ev) in bd.stages.iter().zip(evs.iter().skip(1)) {
                w.begin_obj();
                w.field_str("ph", "X");
                w.field_str("name", ev.kind.label());
                w.field_u64("pid", ev.node as u64);
                w.field_u64("tid", op);
                w.field_f64("ts", ts_us(stage.start));
                w.field_f64("dur", ts_us(stage.end) - ts_us(stage.start));
                w.begin_obj_field("args");
                w.field_u64("op", op);
                write_args(w, ev);
                w.end_obj();
                w.end_obj();
            }
        }
    }

    for ev in events {
        w.begin_obj();
        w.field_str("ph", "i");
        w.field_str("s", "t");
        w.field_str("name", ev.kind.label());
        w.field_u64("pid", ev.node as u64);
        w.field_u64("tid", if ev.op == NO_OP { 0 } else { ev.op });
        w.field_f64("ts", ts_us(ev.at));
        w.begin_obj_field("args");
        if ev.op != NO_OP {
            w.field_u64("op", ev.op);
        }
        write_args(w, ev);
        w.end_obj();
        w.end_obj();
    }
}

fn ts_us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e3
}

/// Writes an event's payload as fields of its open `args` object.
fn write_args(w: &mut JsonWriter, ev: &TraceEvent) {
    match ev.kind {
        TraceKind::WqeFetch { qp, opcode } => {
            w.field_u64("qp", qp as u64);
            w.field_u64("opcode", opcode as u64);
        }
        TraceKind::WqeExec { qp, opcode, bytes } => {
            w.field_u64("qp", qp as u64);
            w.field_u64("opcode", opcode as u64);
            w.field_u64("bytes", bytes);
        }
        TraceKind::WaitRelease { qp } => w.field_u64("qp", qp as u64),
        TraceKind::Dma { bytes } => w.field_u64("bytes", bytes),
        TraceKind::GFlush { bytes, ranges } => {
            w.field_u64("bytes", bytes);
            w.field_u64("ranges", ranges as u64);
        }
        TraceKind::CacheFill { bytes } => w.field_u64("bytes", bytes),
        TraceKind::CacheEvict { bytes } => w.field_u64("bytes", bytes),
        TraceKind::Cqe { cq, ok } => {
            w.field_u64("cq", cq as u64);
            w.field_bool("ok", ok);
        }
        TraceKind::LinkEnqueue { dst, bytes } => {
            // The sender is the node the event is attributed to.
            w.field_u64("src", ev.node as u64);
            w.field_u64("dst", dst as u64);
            w.field_u64("bytes", bytes);
        }
        TraceKind::LinkDeliver { src, dst } => {
            w.field_u64("src", src as u64);
            w.field_u64("dst", dst as u64);
        }
        TraceKind::Dispatch { task } => w.field_u64("task", task),
        TraceKind::Preempt { task } => w.field_u64("task", task),
        TraceKind::OpIssue | TraceKind::OpAck => {}
        TraceKind::MetaSend { replica } => w.field_u64("replica", replica as u64),
        TraceKind::ReplicaProgress { replica } => w.field_u64("replica", replica as u64),
        TraceKind::MigrateBegin { shard } => w.field_u64("shard", shard as u64),
        TraceKind::MigrateCutover { shard, epoch } => {
            w.field_u64("shard", shard as u64);
            w.field_u64("epoch", epoch);
        }
        TraceKind::MigrateEnd { shard, replayed } => {
            w.field_u64("shard", shard as u64);
            w.field_u64("replayed", replayed);
        }
        TraceKind::HealthBreach { shard, state } => {
            w.field_u64("shard", shard as u64);
            w.field_u64("state", state as u64);
        }
        TraceKind::TxnPhaseBegin { txn, mode, phase }
        | TraceKind::TxnPhaseEnd { txn, mode, phase } => {
            w.field_u64("txn", txn);
            w.field_str("mode", txn_mode_label(mode));
            w.field_str("phase", txn_phase_label(phase));
        }
        TraceKind::TxnOp { txn } => w.field_u64("txn", txn),
    }
}

/// Exports a trace stream *plus* counter tracks as one Chrome trace-event
/// JSON document: the span/instant stream of
/// [`chrome_trace_json`](crate::simtrace::chrome_trace_json), followed by
/// `"ph":"C"` counter events under the dedicated [`COUNTER_PID`] process.
/// Fully deterministic — byte-identical for identical inputs.
pub fn chrome_trace_with_counters(events: &[TraceEvent], samples: &[CounterSample]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.begin_arr_field("traceEvents");
    write_chrome_events(&mut w, events);
    if !samples.is_empty() {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", COUNTER_PID);
        w.field_str("name", "process_name");
        w.begin_obj_field("args");
        w.field_str("name", "metrics");
        w.end_obj();
        w.end_obj();
    }
    for s in samples {
        w.begin_obj();
        w.field_str("ph", "C");
        w.field_str("name", &s.track);
        w.field_u64("pid", COUNTER_PID);
        w.field_f64("ts", ts_us(s.at));
        w.begin_obj_field("args");
        w.field_f64("value", s.value);
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

/// One transaction's phase windows, gathered from its
/// [`TraceKind::TxnPhaseBegin`]/[`TraceKind::TxnPhaseEnd`] events.
#[derive(Debug, Clone)]
pub(crate) struct TxnPhaseStream {
    pub(crate) mode: u8,
    /// `(at, is_begin, phase)` in time order (stable, emission-tie order).
    pub(crate) evs: Vec<(SimTime, bool, u8)>,
}

/// Groups a stream's txn phase events by txn id, each txn's events
/// time-sorted (stable). The txn id comes from the event payload, never
/// from [`TraceEvent::op`], so op-id reuse can't fold foreign events in.
pub(crate) fn txn_phase_streams(events: &[TraceEvent]) -> BTreeMap<u64, TxnPhaseStream> {
    let mut map: BTreeMap<u64, TxnPhaseStream> = BTreeMap::new();
    for e in events {
        let (txn, is_begin, mode, phase) = match e.kind {
            TraceKind::TxnPhaseBegin { txn, mode, phase } => (txn, true, mode, phase),
            TraceKind::TxnPhaseEnd { txn, mode, phase } => (txn, false, mode, phase),
            _ => continue,
        };
        map.entry(txn)
            .or_insert_with(|| TxnPhaseStream {
                mode,
                evs: Vec::new(),
            })
            .evs
            .push((e.at, is_begin, phase));
    }
    for s in map.values_mut() {
        s.evs.sort_by_key(|&(at, _, _)| at);
    }
    map
}

/// Parent-txn links for txn-issued ops: op id → txn id, gathered from
/// [`TraceKind::TxnOp`] tag events. Lets attribution split a stream into
/// txn-issued ops (lock/validate gCAS, apply gWRITE) and bare ops.
pub fn txn_op_links(events: &[TraceEvent]) -> BTreeMap<u64, u64> {
    let mut map = BTreeMap::new();
    for e in events {
        if let TraceKind::TxnOp { txn } = e.kind {
            map.insert(e.op, txn);
        }
    }
    map
}

/// Reference [`TxnAttribution::from_events`].
pub fn txn_attribution(events: &[TraceEvent]) -> TxnAttribution {
    let mut att = TxnAttribution {
        linked_ops: txn_op_links(events).len() as u64,
        ..TxnAttribution::default()
    };
    for (_txn, stream) in txn_phase_streams(events) {
        let evs = &stream.evs;
        let well_formed = evs.len() >= 2 && evs.first().unwrap().1 && !evs.last().unwrap().1;
        if !well_formed {
            att.truncated += 1;
            continue;
        }
        att.txns += 1;
        let e2e = evs.last().unwrap().0.since(evs.first().unwrap().0);
        att.e2e.record(e2e);
        att.e2e_total_ns += e2e.as_nanos();
        let mut sig = String::new();
        // Every adjacent event pair is one window; windows tile the
        // txn lifetime by construction. A Begin-opened window is time
        // spent *in* that phase; an End-opened window is the gap to
        // the next phase, zero-length under the emission contract and
        // attributed to the phase just ended if it ever isn't.
        for w in evs.windows(2) {
            let (at0, is_begin, phase) = w[0];
            let dur = w[1].0.since(at0);
            let label = txn_phase_label(phase);
            let agg = att.phases.entry(label.to_string()).or_default();
            agg.total_ns += dur.as_nanos();
            if is_begin {
                agg.count += 1;
                agg.latencies.record(dur);
                if !sig.is_empty() {
                    sig.push(';');
                }
                sig.push_str(label);
            }
        }
        *att.paths.entry(sig).or_insert(0) += 1;
    }
    att
}

/// Renders a stream's txn phase windows in the flamegraph collapsed-stack
/// format, one `txn;<mode>;<phase> total_ns` line per (mode, phase) pair,
/// summed over all well-formed txns and sorted. Byte-identical for
/// same-seed runs.
pub fn txn_folded_stacks(events: &[TraceEvent]) -> String {
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    for (_txn, stream) in txn_phase_streams(events) {
        let evs = &stream.evs;
        if evs.len() < 2 || !evs.first().unwrap().1 || evs.last().unwrap().1 {
            continue;
        }
        for w in evs.windows(2) {
            let (at0, _, phase) = w[0];
            let dur = w[1].0.since(at0).as_nanos();
            let key = format!(
                "txn;{};{}",
                txn_mode_label(stream.mode),
                txn_phase_label(phase)
            );
            *folded.entry(key).or_insert(0) += dur;
        }
    }
    let mut out = String::new();
    for (k, v) in &folded {
        out.push_str(k);
        out.push(' ');
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// Exports a trace stream as Chrome trace-event JSON with first-class
/// transaction tracks: the op span/instant stream of
/// [`chrome_trace_json`](crate::simtrace::chrome_trace_json) (txn phase
/// events excluded — they get spans, not instants), one track per txn
/// (`pid` = [`TXN_PID`], `tid` = txn id, one `"X"` span per phase
/// window), and the sampled counter tracks under [`COUNTER_PID`]. Fully
/// deterministic — byte-identical for identical inputs.
pub fn txn_chrome_trace_with_counters(events: &[TraceEvent], samples: &[CounterSample]) -> String {
    let is_txn_phase = |e: &TraceEvent| {
        matches!(
            e.kind,
            TraceKind::TxnPhaseBegin { .. } | TraceKind::TxnPhaseEnd { .. }
        )
    };
    let ops: Vec<TraceEvent> = events
        .iter()
        .filter(|e| !is_txn_phase(e))
        .copied()
        .collect();
    let streams = txn_phase_streams(events);

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.begin_arr_field("traceEvents");
    write_chrome_events(&mut w, &ops);
    if !streams.is_empty() {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", TXN_PID);
        w.field_str("name", "process_name");
        w.begin_obj_field("args");
        w.field_str("name", "transactions");
        w.end_obj();
        w.end_obj();
    }
    for (txn, stream) in &streams {
        for win in stream.evs.windows(2) {
            let (at0, is_begin, phase) = win[0];
            if !is_begin {
                continue; // End→Begin gaps are zero-length; skip.
            }
            w.begin_obj();
            w.field_str("ph", "X");
            w.field_str("name", txn_phase_label(phase));
            w.field_u64("pid", TXN_PID);
            w.field_u64("tid", *txn);
            w.field_f64("ts", ts_us(at0));
            w.field_f64("dur", ts_us(win[1].0) - ts_us(at0));
            w.begin_obj_field("args");
            w.field_u64("txn", *txn);
            w.field_str("mode", txn_mode_label(stream.mode));
            w.end_obj();
            w.end_obj();
        }
    }
    if !samples.is_empty() {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", COUNTER_PID);
        w.field_str("name", "process_name");
        w.begin_obj_field("args");
        w.field_str("name", "metrics");
        w.end_obj();
        w.end_obj();
    }
    for s in samples {
        w.begin_obj();
        w.field_str("ph", "C");
        w.field_str("name", &s.track);
        w.field_u64("pid", COUNTER_PID);
        w.field_f64("ts", ts_us(s.at));
        w.begin_obj_field("args");
        w.field_f64("value", s.value);
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

/// A transaction phase window `[start, end]` in phase `phase`.
struct PhaseWindow {
    start: SimTime,
    end: SimTime,
    phase: u8,
}

/// Adjacent-event pairing of a txn phase stream into windows: a
/// Begin-opened window is time in that phase (same folding rule as
/// `TxnAttribution`).
fn phase_windows(evs: &[(SimTime, bool, u8)]) -> Vec<PhaseWindow> {
    let mut out = Vec::new();
    for pair in evs.windows(2) {
        let (at, is_begin, phase) = pair[0];
        if is_begin {
            out.push(PhaseWindow {
                start: at,
                end: pair[1].0,
                phase,
            });
        }
    }
    out
}

/// Reference [`TailProfile::from_events`].
pub fn tail_profile(events: &[TraceEvent]) -> TailProfile {
    let by_op = events_by_op(events);

    // Per-op breakdowns over the issue→ack window, plus per-node
    // stage totals (node of the event *ending* each stage).
    struct OpFold {
        start: SimTime,
        end: SimTime,
        e2e_ns: u64,
        kind_totals: Vec<(String, u64)>, // first-touch order
        node_totals: BTreeMap<u32, u64>,
    }
    let mut folds: BTreeMap<u64, OpFold> = BTreeMap::new();
    for (&op, evs) in &by_op {
        let Some(win) = issue_ack_window(evs) else {
            continue;
        };
        let Some(bd) = breakdown_from_sorted(op, win, 0) else {
            continue;
        };
        let mut kind_totals: Vec<(String, u64)> = Vec::new();
        let mut node_totals: BTreeMap<u32, u64> = BTreeMap::new();
        for (stage, ev) in bd.stages.iter().zip(win.iter().skip(1)) {
            let kind = stage_kind(&stage.label);
            let ns = stage.duration().as_nanos();
            match kind_totals.iter_mut().find(|(k, _)| k == kind) {
                Some((_, total)) => *total += ns,
                None => kind_totals.push((kind.to_string(), ns)),
            }
            // Queue-stage time is not replica service time: keeping
            // it out of the per-node totals stops a long dispatch
            // wait from masquerading as a straggling replica.
            if ev.node != crate::simtrace::NO_NODE && !QUEUE_KINDS.contains(&kind) {
                *node_totals.entry(ev.node).or_insert(0) += ns;
            }
        }
        folds.insert(
            op,
            OpFold {
                start: bd.start,
                end: bd.end,
                e2e_ns: bd.total().as_nanos(),
                kind_totals,
                node_totals,
            },
        );
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
    let mut e2e_sorted: Vec<u64> = folds.values().map(|f| f.e2e_ns).collect();
    e2e_sorted.sort_unstable();
    profile.p99_ns = quantile(&e2e_sorted, 99, 100);
    profile.median_e2e_ns = quantile(&e2e_sorted, 1, 2);
    let mut kind_pop: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for f in folds.values() {
        for (kind, ns) in &f.kind_totals {
            kind_pop.entry(kind.as_str()).or_default().push(*ns);
        }
    }
    let kind_median: BTreeMap<&str, u64> = kind_pop
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            (k, quantile(&v, 1, 2))
        })
        .collect();

    // Cause signals shared across tail ops.
    let links = txn_op_links(events);
    let txn_windows: BTreeMap<u64, Vec<PhaseWindow>> = txn_phase_streams(events)
        .iter()
        .map(|(&txn, stream)| (txn, phase_windows(&stream.evs)))
        .collect();
    // Migration signals: (at, shard, cutover epoch if any).
    let mut migrations: Vec<(SimTime, u32, Option<u64>)> = Vec::new();
    // Flow-control occupancy: per-shard inflight at each op's issue
    // plus the per-shard maximum ever observed.
    let mut flow_evs: Vec<(SimTime, bool, u32, u64)> = Vec::new();
    for e in events {
        match e.kind {
            TraceKind::MigrateBegin { shard } => migrations.push((e.at, shard, None)),
            TraceKind::MigrateCutover { shard, epoch } => {
                migrations.push((e.at, shard, Some(epoch)))
            }
            TraceKind::MigrateEnd { shard, .. } => migrations.push((e.at, shard, None)),
            TraceKind::OpIssue => flow_evs.push((e.at, true, op_id_parts(e.op).0, e.op)),
            TraceKind::OpAck => flow_evs.push((e.at, false, op_id_parts(e.op).0, e.op)),
            _ => {}
        }
    }
    flow_evs.sort_by_key(|&(at, is_issue, _, op)| (at, !is_issue, op));
    let mut inflight: BTreeMap<u32, u64> = BTreeMap::new();
    let mut shard_max: BTreeMap<u32, u64> = BTreeMap::new();
    let mut issue_occupancy: BTreeMap<u64, u64> = BTreeMap::new();
    for (_, is_issue, shard, op) in flow_evs {
        let cur = inflight.entry(shard).or_insert(0);
        if is_issue {
            *cur += 1;
            issue_occupancy.insert(op, *cur);
            let max = shard_max.entry(shard).or_insert(0);
            *max = (*max).max(*cur);
        } else {
            *cur = cur.saturating_sub(1);
        }
    }

    // Classify every tail op; materialise the slowest as exemplars.
    let mut tail: Vec<(u64, &OpFold)> = folds
        .iter()
        .filter(|(_, f)| f.e2e_ns >= profile.p99_ns && f.e2e_ns > profile.median_e2e_ns)
        .map(|(&op, f)| (op, f))
        .collect();
    // Slowest first, ties by ascending op id (deterministic).
    tail.sort_by_key(|&(op, f)| (std::cmp::Reverse(f.e2e_ns), op));
    profile.tail_ops = tail.len() as u64;

    for (rank, (op, f)) in tail.iter().enumerate() {
        let (shard, op_epoch, _) = op_id_parts(*op);

        let stages: Vec<StageExcess> = f
            .kind_totals
            .iter()
            .map(|(kind, ns)| {
                let median = kind_median.get(kind.as_str()).copied().unwrap_or(0);
                StageExcess {
                    label: kind.clone(),
                    actual_ns: *ns,
                    median_ns: median,
                    excess_ns: *ns as i64 - median as i64,
                }
            })
            .collect();

        let cause = classify(
            *op,
            shard,
            op_epoch,
            f.start,
            f.end,
            &f.node_totals,
            &stages,
            &migrations,
            &links,
            &txn_windows,
            &issue_occupancy,
            &shard_max,
        );
        if let Some(slot) = profile.causes.iter_mut().find(|(l, _)| *l == cause.label()) {
            slot.1 += 1;
        }

        if rank < MAX_EXEMPLARS {
            let excess_ns = f.e2e_ns as i64 - profile.median_e2e_ns as i64;
            let explained: i64 = stages.iter().map(|s| s.excess_ns).sum();
            profile.exemplars.push(TailExemplar {
                op: *op,
                shard,
                start: f.start,
                e2e: SimDuration::from_nanos(f.e2e_ns),
                excess_ns,
                cause,
                stages,
                residual_ns: excess_ns - explained,
                span: span_tree(events, *op),
            });
        }
    }
    profile
}

/// Applies the normative precedence chain to one tail op (see
/// [`TailCause`]).
#[allow(clippy::too_many_arguments)]
fn classify(
    op: u64,
    shard: u32,
    op_epoch: u64,
    start: SimTime,
    end: SimTime,
    node_totals: &BTreeMap<u32, u64>,
    stages: &[StageExcess],
    migrations: &[(SimTime, u32, Option<u64>)],
    links: &BTreeMap<u64, u64>,
    txn_windows: &BTreeMap<u64, Vec<PhaseWindow>>,
    issue_occupancy: &BTreeMap<u64, u64>,
    shard_max: &BTreeMap<u32, u64>,
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

    let windows = links.get(&op).and_then(|txn| txn_windows.get(txn));
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
        .max_by_key(|s| (s.excess_ns, std::cmp::Reverse(s.label.clone())))
    {
        if QUEUE_KINDS.contains(&worst.label.as_str()) {
            return TailCause::QueueWait;
        }
    }

    // 6. Issued into a full flow-control window.
    let max = shard_max.get(&shard).copied().unwrap_or(0);
    if max > 1 && issue_occupancy.get(&op).copied() == Some(max) {
        return TailCause::FlowControlStall;
    }

    TailCause::Residual
}

/// Asserts that every indexed fold and export matches this reference
/// model byte for byte on `events` (with `samples` as the counter tracks):
/// attribution JSON, tail profiles by value and as artifacts, collapsed
/// stacks and all three Chrome exports.
pub fn assert_equivalent(events: &[TraceEvent], samples: &[CounterSample]) {
    assert_eq!(
        StageAttribution::from_events(events).to_json(),
        stage_attribution(events).to_json(),
        "StageAttribution"
    );
    assert_eq!(
        TxnAttribution::from_events(events).to_json(),
        txn_attribution(events).to_json(),
        "TxnAttribution"
    );
    let tail = TailProfile::from_events(events);
    let reference = tail_profile(events);
    assert_eq!(tail, reference, "TailProfile");
    assert_eq!(
        tail.to_artifact_json("eq"),
        reference.to_artifact_json("eq")
    );
    assert_eq!(
        crate::simprof::folded_stacks(events, "eq"),
        folded_stacks(events, "eq")
    );
    assert_eq!(
        crate::simprof::txn_folded_stacks(events),
        txn_folded_stacks(events)
    );
    assert_eq!(
        crate::simtrace::chrome_trace_json(events),
        chrome_trace_json(events)
    );
    assert_eq!(
        crate::simprof::chrome_trace_with_counters(events, samples),
        chrome_trace_with_counters(events, samples)
    );
    assert_eq!(
        crate::simprof::txn_chrome_trace_with_counters(events, samples),
        txn_chrome_trace_with_counters(events, samples)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::simaudit::op_id_base;
    use crate::simprof::CounterSampler;
    use crate::simtrace::{
        txn_op_id, MetricsRegistry, KIND_COUNT, TXN_PHASE_APPLY, TXN_PHASE_RELEASE,
    };

    /// A seeded synthetic stream exercising every ordering rule the folds
    /// depend on: equal-timestamp ties decided by emission order, prepost
    /// events before `OpIssue`, single-event ops, `NO_OP`/`NO_NODE` events,
    /// interleaved ops, ops missing their issue or ack, txn phase streams
    /// (well-formed and not, unknown phase and mode codes) linked to ops by
    /// `TxnOp` tags, and migration signals. Emission order is time order
    /// with jitter, so a send's future delivery is often emitted first. The
    /// orderings a one-pass fold could get wrong are there too: stragglers
    /// of an op emitted long after its ack, a second ack, a parent tag
    /// emitted after the ack, and migration ends inside op windows.
    fn synthetic(seed: u64) -> Vec<TraceEvent> {
        let mut rng = SimRng::new(seed);
        // (at, emission jitter, event)
        let mut evs: Vec<(u64, u64, TraceEvent)> = Vec::new();
        // `late` delays the emission past the jitter.
        let mut emit = |rng: &mut SimRng, at: u64, late: u64, node: u32, op: u64, kind| {
            let jitter = at + late + rng.gen_range(0..400);
            evs.push((
                at,
                jitter,
                TraceEvent {
                    at: SimTime::from_nanos(at),
                    node,
                    op,
                    kind,
                },
            ));
        };
        let middle = [
            TraceKind::WqeExec {
                qp: 1,
                opcode: 2,
                bytes: 64,
            },
            TraceKind::WaitRelease { qp: 3 },
            TraceKind::Dma { bytes: 128 },
            TraceKind::LinkEnqueue { dst: 1, bytes: 64 },
            TraceKind::LinkDeliver { src: 0, dst: 1 },
            TraceKind::Dispatch { task: 9 },
            TraceKind::MetaSend { replica: 1 },
            TraceKind::ReplicaProgress { replica: 2 },
            TraceKind::Cqe { cq: 4, ok: true },
            TraceKind::Cqe { cq: 5, ok: false },
            TraceKind::GFlush {
                bytes: 64,
                ranges: 1,
            },
            TraceKind::CacheFill { bytes: 4096 },
            TraceKind::Preempt { task: 17 },
        ];
        let nodes = [0, 1, 2, 3, NO_NODE];
        let n_txns = 24u64;
        let n_ops = 160 + rng.gen_range(0..80);
        for i in 0..n_ops {
            let shard = rng.gen_range(0..3) as u32;
            let op = op_id_base(shard, rng.gen_range(0..2)) | i;
            // Coarse timestamps so ties are common.
            let start = rng.gen_range(0..200) * 50;
            if rng.gen_bool(0.2) {
                // Prepost descriptor fetches long before the issue.
                for _ in 0..rng.gen_range(1..3) {
                    let at = start.saturating_sub(rng.gen_range(1..40) * 50);
                    emit(
                        &mut rng,
                        at,
                        0,
                        1,
                        op,
                        TraceKind::WqeFetch { qp: 3, opcode: 0 },
                    );
                }
            }
            if rng.gen_bool(0.05) {
                // A single-event op.
                emit(&mut rng, start, 0, 0, op, TraceKind::OpIssue);
                continue;
            }
            let has_issue = !rng.gen_bool(0.05);
            let has_ack = !rng.gen_bool(0.05);
            if has_issue {
                emit(&mut rng, start, 0, 0, op, TraceKind::OpIssue);
            }
            // One slow op in ~20: a long hop on one node.
            let slow = rng.gen_bool(0.05);
            let mut at = start;
            for _ in 0..rng.gen_range(1..7) {
                at += rng.gen_range(0..4) * 50;
                if slow && rng.gen_bool(0.3) {
                    at += 20_000;
                }
                let kind = middle[rng.gen_index(middle.len())];
                let node = nodes[rng.gen_index(nodes.len())];
                emit(&mut rng, at, 0, node, op, kind);
            }
            if rng.gen_bool(0.4) {
                let txn = rng.gen_range(0..n_txns);
                emit(&mut rng, start, 0, 0, op, TraceKind::TxnOp { txn });
                if rng.gen_bool(0.1) {
                    // A second tag: the latest-emitted one names the parent.
                    let txn = rng.gen_range(0..n_txns);
                    emit(&mut rng, start, 0, 0, op, TraceKind::TxnOp { txn });
                }
            }
            if has_ack {
                at += rng.gen_range(0..4) * 50;
                emit(&mut rng, at, 0, 0, op, TraceKind::OpAck);
                if rng.gen_bool(0.05) {
                    // A second ack: the window runs to the last one.
                    let again = at + rng.gen_range(0..3) * 50;
                    emit(&mut rng, again, 0, 0, op, TraceKind::OpAck);
                }
            }
            if rng.gen_bool(0.1) {
                // A straggler emitted long after the ack, stamped inside
                // the op's span or past its end.
                let at = start + rng.gen_range(0..8) * 50;
                let kind = middle[rng.gen_index(middle.len())];
                emit(&mut rng, at, 20_000, 1, op, kind);
            }
            if slow || rng.gen_bool(0.05) {
                // A parent tag emitted after the ack, stamped at the issue.
                let txn = rng.gen_range(0..n_txns);
                emit(&mut rng, start, 20_000, 0, op, TraceKind::TxnOp { txn });
            }
        }
        // Transactions: phase streams with contiguous Begin/End pairs.
        let phases = [
            TXN_PHASE_ACQUIRE,
            TXN_PHASE_UNDO,
            TXN_PHASE_ROLLBACK,
            TXN_PHASE_BACKOFF,
            TXN_PHASE_APPLY,
            TXN_PHASE_RELEASE,
            9,
            200,
        ];
        for txn in 0..n_txns {
            let mode = [0u8, 1, 5][rng.gen_index(3)];
            let op = if rng.gen_bool(0.1) {
                NO_OP
            } else {
                txn_op_id(txn)
            };
            let mut at = rng.gen_range(0..200) * 50;
            let open_on_end = rng.gen_bool(0.05);
            let n_phases = rng.gen_range(0..5);
            for p in 0..n_phases {
                let phase = phases[rng.gen_index(phases.len())];
                let begin = TraceKind::TxnPhaseBegin { txn, mode, phase };
                let end = TraceKind::TxnPhaseEnd { txn, mode, phase };
                if !(p == 0 && open_on_end) {
                    emit(&mut rng, at, 0, NO_NODE, op, begin);
                }
                at += rng.gen_range(0..6) * 100;
                if !(p + 1 == n_phases && rng.gen_bool(0.1)) {
                    emit(&mut rng, at, 0, NO_NODE, op, end);
                }
            }
        }
        // Unattributable traffic, and migration signals on odd seeds: they
        // land in nearly every slow op's window and outrank the txn causes
        // the even seeds reach.
        for _ in 0..rng.gen_range(10..40) {
            let at = rng.gen_range(0..220) * 50;
            let kind = match rng.gen_range(0..5) {
                0 => TraceKind::CacheEvict { bytes: 64 },
                _ if seed.is_multiple_of(2) => TraceKind::CacheEvict { bytes: 32 },
                1 => TraceKind::MigrateBegin { shard: 1 },
                2 => TraceKind::MigrateCutover { shard: 2, epoch: 3 },
                3 => TraceKind::MigrateEnd {
                    shard: 0,
                    replayed: 2,
                },
                _ => TraceKind::HealthBreach { shard: 0, state: 1 },
            };
            let node = nodes[rng.gen_index(nodes.len())];
            emit(&mut rng, at, 0, node, NO_OP, kind);
        }
        // Emission order: time order with jitter, ties by generation order.
        evs.sort_by_key(|&(_, jitter, _)| jitter);
        evs.into_iter().map(|(_, _, e)| e).collect()
    }

    fn samples() -> Vec<CounterSample> {
        let mut reg = MetricsRegistry::new();
        let mut s = CounterSampler::new();
        reg.counter_set("txn.committed", 1);
        s.sample(SimTime::from_nanos(500), &reg);
        reg.counter_set("txn.committed", 4);
        reg.set_gauge("txn.in_flight", 2.5);
        s.sample(SimTime::from_nanos(1500), &reg);
        s.samples().to_vec()
    }

    #[test]
    fn indexed_folds_match_the_reference_on_synthetic_streams() {
        let mut tails = 0;
        let mut truncated_txns = 0;
        for seed in 0..24 {
            let events = synthetic(seed);
            assert_equivalent(&events, &samples());
            tails += tail_profile(&events).tail_ops;
            truncated_txns += txn_attribution(&events).truncated;
        }
        // The streams reach the paths worth comparing.
        assert!(tails > 0, "no synthetic stream had a tail");
        assert!(truncated_txns > 0, "no malformed txn stream");
    }

    #[test]
    fn synthetic_streams_carry_every_trace_kind() {
        // An odd seed also draws the migration and health signals, so the
        // equivalence check sees every kind's `args` in both exports.
        let mut seen = [false; KIND_COUNT];
        for e in synthetic(7) {
            seen[e.kind.ordinal()] = true;
        }
        let missing: Vec<&str> = (0..KIND_COUNT)
            .filter(|&k| !seen[k])
            .map(crate::simtrace::kind_label)
            .collect();
        assert!(
            missing.is_empty(),
            "kinds missing from the stream: {missing:?}"
        );
    }

    #[test]
    fn synthetic_streams_cover_ties_and_out_of_order_emission() {
        let events = synthetic(7);
        let ties = events.windows(2).any(|w| w[0].at == w[1].at);
        let reordered = events.windows(2).any(|w| w[0].at > w[1].at);
        assert!(ties && reordered);
        assert!(events.iter().any(|e| e.op == NO_OP));
        assert!(events.iter().any(|e| e.node == NO_NODE));

        // The orderings a one-pass fold could get wrong.
        let mut acks: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
        for (pos, e) in events.iter().enumerate() {
            if matches!(e.kind, TraceKind::OpAck) {
                acks.entry(e.op).or_default().push(pos);
            }
        }
        // Emitted more than `gap` events after its op's last ack.
        let after_ack = |pos: usize, e: &TraceEvent, gap: usize| {
            acks.get(&e.op).is_some_and(|a| pos > a[a.len() - 1] + gap)
        };
        let straggler = events.iter().enumerate().any(|(pos, e)| {
            !matches!(e.kind, TraceKind::OpAck | TraceKind::TxnOp { .. }) && after_ack(pos, e, 50)
        });
        assert!(straggler, "no event emitted long after its op's ack");
        assert!(acks.values().any(|a| a.len() > 1), "no op acked twice");
        let late_tag = events
            .iter()
            .enumerate()
            .any(|(pos, e)| matches!(e.kind, TraceKind::TxnOp { .. }) && after_ack(pos, e, 0));
        assert!(late_tag, "no parent tag emitted after its op's ack");
        let windows: Vec<(SimTime, SimTime)> = events_by_op(&events)
            .values()
            .filter_map(|evs| issue_ack_window(evs))
            .map(|w| (w[0].at, w[w.len() - 1].at))
            .collect();
        let end_inside = events.iter().any(|e| {
            matches!(e.kind, TraceKind::MigrateEnd { .. })
                && windows.iter().any(|&(s, t)| s <= e.at && e.at <= t)
        });
        assert!(end_inside, "no migrate_end inside an op window");
    }

    #[test]
    fn an_op_emitted_latest_first_folds_like_the_reference() {
        // 300 events of one op in reverse time order: far past the
        // insertion sort's move budget, so the op index's general sort
        // orders the group.
        let n = 300u64;
        let events: Vec<TraceEvent> = (0..n)
            .rev()
            .map(|i| TraceEvent {
                at: SimTime::from_nanos(10 * i),
                node: (i % 3) as u32,
                op: 1,
                kind: match i {
                    0 => TraceKind::OpIssue,
                    i if i == n - 1 => TraceKind::OpAck,
                    i => TraceKind::Dma { bytes: i },
                },
            })
            .collect();
        assert_equivalent(&events, &[]);
        assert_eq!(stage_attribution(&events).ops, 1);
    }

    #[test]
    fn equal_timestamps_keep_emission_order() {
        // Three events of one op at one instant: the stage labels follow
        // emission order, not kind or node order.
        let at = SimTime::from_nanos(10);
        let ev = |node, kind| TraceEvent {
            at,
            node,
            op: 1,
            kind,
        };
        let events = [
            ev(2, TraceKind::OpIssue),
            ev(1, TraceKind::Dma { bytes: 1 }),
            ev(0, TraceKind::OpAck),
        ];
        assert_equivalent(&events, &[]);
        let folded = crate::simprof::folded_stacks(&events, "t");
        assert_eq!(folded, "t;node0;op_ack 0\nt;node1;dma 0\n");
        assert_equivalent(&[], &samples());
    }
}
