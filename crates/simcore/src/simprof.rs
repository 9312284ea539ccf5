//! Critical-path profiling over [`simtrace`](crate::simtrace) streams.
//!
//! `simtrace` answers "where did *this* op's latency go"; `simprof` answers
//! the same question across thousands of ops:
//!
//! * [`StageAttribution`] folds every per-op breakdown in a trace stream
//!   into per-stage latency histograms whose totals *tile* the aggregate
//!   end-to-end latency exactly — the sum of per-stage means equals the
//!   mean end-to-end latency over the same op set, by construction.
//! * [`StageAttribution::dominant_path`] reports the most common stage
//!   signature (the critical path almost every op takes) with its share.
//! * [`folded_stacks`] renders the stream in the flamegraph
//!   collapsed-stack text format (`scenario;nodeN;stage count`).
//! * [`CounterSampler`] samples [`MetricsRegistry`] values on a sim-time
//!   cadence and [`chrome_trace_with_counters`] interleaves the resulting
//!   Perfetto counter tracks (`"ph":"C"`) with the span stream, so one
//!   trace file shows *why* a latency knee happens, not just that it does.
//!
//! Everything here is deterministic: same events in, byte-identical text
//! out (BTreeMap iteration everywhere, integer nanosecond arithmetic).

use crate::jsonw::{opt, req, JsonValue, JsonWriter, Shape};
use crate::simtrace::{
    kind_label, ts_us, txn_mode_label, txn_phase_label, write_chrome_events, MetricsRegistry,
    OpEvents, OpIndex, TraceEvent, TraceKind, KIND_COUNT, OP_ACK, OP_ISSUE, TXN_PHASE_BACKOFF,
    TXN_PHASE_BEGIN,
};
use crate::stats::Histogram;
use crate::time::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Synthetic Perfetto process id hosting all counter tracks (far above any
/// real node id, so it sorts to its own process group in the UI).
pub const COUNTER_PID: u64 = 9_999;

/// Synthetic Perfetto process id hosting the per-transaction phase tracks
/// (one `tid` per txn), directly below [`COUNTER_PID`] so transactions and
/// metrics group next to each other in the UI.
pub const TXN_PID: u64 = 9_998;

/// Aggregate latency of one stage kind across all ops in a stream.
#[derive(Debug, Clone, Default)]
pub struct StageAgg {
    /// How many stage instances were folded in.
    pub count: u64,
    /// Total nanoseconds spent in this stage, summed over all ops.
    pub total_ns: u64,
    /// Distribution of per-instance stage durations.
    pub hist: Histogram,
}

/// Per-stage latency attribution aggregated over every complete op in a
/// trace stream.
///
/// Stages are keyed by [`TraceKind::label`](crate::TraceKind::label) (node
/// suffixes stripped), so "wire time" on replica 1 and replica 2 fold into
/// one `link_deliver` row. Because each op's stages tile its own
/// `[issue, ack]` interval exactly, the stage totals tile the aggregate:
///
/// ```text
/// sum over stages of total_ns  ==  sum over ops of e2e_ns        (exact)
/// sum over stages of (total_ns / ops)  ==  mean e2e              (±1 ns)
/// ```
#[derive(Debug, Clone, Default)]
pub struct StageAttribution {
    /// Complete ops folded in.
    pub ops: u64,
    /// Ops without a complete `[OpIssue, OpAck]` window in the stream
    /// (never issued, still in flight, or decapitated), excluded from the
    /// fold so the tiling invariant holds over real host-observed latency.
    pub truncated: u64,
    /// End-to-end latency distribution over the folded ops.
    pub e2e: Histogram,
    /// Exact sum of end-to-end nanoseconds over the folded ops.
    pub e2e_total_ns: u64,
    /// Per-stage aggregates, stage-label-ordered.
    pub stages: BTreeMap<String, StageAgg>,
    /// Stage-signature → op count (signature = stage labels joined by `;`).
    pub paths: BTreeMap<String, u64>,
}

impl StageAttribution {
    /// Folds every op with a complete `[OpIssue, OpAck]` window in
    /// `events`. Each op is trimmed to that window first (see
    /// `issue_ack_window`); ops lacking one — never issued inside the
    /// captured stream, still in flight at capture end, or decapitated —
    /// are counted in `truncated` and excluded so the tiling invariant
    /// holds over host-observed latency.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut att = StageAttribution::default();
        let mut stages: [Option<StageAgg>; KIND_COUNT] = std::array::from_fn(|_| None);
        // Signatures as kind-ordinal sequences; spelled out once at the end.
        let mut paths = Paths::default();
        let mut sig: Vec<u8> = Vec::new();
        for (_op, evs) in OpIndex::by_op(events).iter() {
            let Some(win) = issue_ack_window(evs) else {
                att.truncated += 1;
                continue;
            };
            att.ops += 1;
            let e2e = win.last().at().since(win.first().at());
            att.e2e.record(e2e);
            att.e2e_total_ns += e2e.as_nanos();
            sig.clear();
            for (prev, cur) in win.pairs() {
                let kind = cur.kind();
                let d = cur.at().since(prev.at());
                let agg = stages[kind].get_or_insert_with(StageAgg::default);
                agg.count += 1;
                agg.total_ns += d.as_nanos();
                agg.hist.record(d);
                sig.push(kind as u8);
            }
            paths.record(&sig);
        }
        att.stages = labelled(stages, kind_label);
        att.paths = paths.spell(kind_label);
        att
    }

    /// Mean end-to-end latency in nanoseconds over the folded ops.
    pub fn mean_e2e_ns(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.e2e_total_ns as f64 / self.ops as f64
    }

    /// Sum of per-stage mean contributions in nanoseconds: each stage's
    /// total divided by the *op* count (not the stage count), so stages
    /// appearing in only some ops are weighted by their true share. Equals
    /// [`StageAttribution::mean_e2e_ns`] exactly (same numerator, same
    /// denominator) — the aggregate tiling invariant.
    pub fn stage_mean_sum_ns(&self) -> f64 {
        if self.ops == 0 {
            return 0.0;
        }
        self.stages
            .values()
            .map(|a| a.total_ns as f64 / self.ops as f64)
            .sum()
    }

    /// The most frequent stage signature and the fraction of ops that took
    /// it, or `None` if nothing was folded. Ties break to the
    /// lexicographically-first signature (deterministic).
    pub fn dominant_path(&self) -> Option<(&str, f64)> {
        let (sig, &n) = self.paths.iter().max_by(|a, b| {
            a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)) // prefer lexicographically smaller
        })?;
        Some((sig.as_str(), n as f64 / self.ops.max(1) as f64))
    }

    /// The `stage_attribution` block [`StageAttribution::write_fields`]
    /// writes; the stage means tile the mean end-to-end latency.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("ops", Shape::Count),
            req("truncated", Shape::Count),
            req("e2e_total_ns", Shape::Count),
            req("mean_e2e_ns", Shape::Number),
            req("stage_mean_sum_ns", Shape::Number),
            req("e2e", E2E),
            req("stages", ROWS),
            opt("dominant_path", DOMINANT_PATH),
        ],
        Some(|att, path| tiles(att, path, "stage_mean_sum_ns")),
    );

    /// Writes the attribution as fields of an already-open JSON object:
    /// op counts, the e2e summary, the per-stage table (count, total,
    /// mean, p99, share-of-e2e) and the dominant path.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("ops", self.ops);
        w.field_u64("truncated", self.truncated);
        w.field_u64("e2e_total_ns", self.e2e_total_ns);
        w.field_f64("mean_e2e_ns", self.mean_e2e_ns());
        w.field_f64("stage_mean_sum_ns", self.stage_mean_sum_ns());
        write_table(
            w,
            &self.e2e,
            self.e2e_total_ns,
            ("stages", &self.stages),
            self.dominant_path(),
        );
    }

    /// The attribution as a standalone JSON object string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        self.write_fields(&mut w);
        w.end_obj();
        w.finish()
    }
}

/// The `e2e` summary of both attribution blocks.
const E2E: Shape = Shape::Obj(
    &[
        req("count", Shape::Count),
        req("mean_ns", Shape::Count),
        req("p50_ns", Shape::Count),
        req("p99_ns", Shape::Count),
        req("max_ns", Shape::Count),
    ],
    None,
);

/// The per-stage (or per-phase) table of both attribution blocks.
const ROWS: Shape = Shape::Map(&Shape::Obj(
    &[
        req("count", Shape::Count),
        req("total_ns", Shape::Count),
        req("mean_ns", Shape::Number),
        req("p99_ns", Shape::Count),
        req("share", Shape::Number),
    ],
    None,
));

/// The most common stage (or phase) signature and its share.
const DOMINANT_PATH: Shape = Shape::Obj(
    &[req("signature", Shape::Str), req("share", Shape::Number)],
    None,
);

/// Both attribution blocks' rule: the per-row mean contributions, summed
/// in `sum_key`, tile `mean_e2e_ns` within 1 ns.
fn tiles(att: &JsonValue, path: &str, sum_key: &str) -> Result<(), String> {
    let num = |k| att.get(k).and_then(JsonValue::as_f64).unwrap_or_default();
    let (mean, sum) = (num("mean_e2e_ns"), num(sum_key));
    if (mean - sum).abs() > 1.0 {
        return Err(format!(
            "{path} means do not tile e2e: mean_e2e_ns={mean} vs {sum_key}={sum}"
        ));
    }
    Ok(())
}

/// Writes the part both attribution blocks share: the `e2e` summary, the
/// per-row table under `rows.0` and the dominant path.
fn write_table(
    w: &mut JsonWriter,
    e2e: &Histogram,
    e2e_total_ns: u64,
    rows: (&str, &BTreeMap<String, StageAgg>),
    dominant: Option<(&str, f64)>,
) {
    let s = e2e.summary();
    w.begin_obj_field("e2e");
    w.field_u64("count", s.count);
    w.field_u64("mean_ns", s.mean.as_nanos());
    w.field_u64("p50_ns", s.p50.as_nanos());
    w.field_u64("p99_ns", s.p99.as_nanos());
    w.field_u64("max_ns", s.max.as_nanos());
    w.end_obj();
    w.begin_obj_field(rows.0);
    for (label, agg) in rows.1 {
        w.begin_obj_field(label);
        w.field_u64("count", agg.count);
        w.field_u64("total_ns", agg.total_ns);
        w.field_f64("mean_ns", agg.total_ns as f64 / agg.count.max(1) as f64);
        w.field_u64("p99_ns", agg.hist.p99().as_nanos());
        w.field_f64("share", agg.total_ns as f64 / e2e_total_ns.max(1) as f64);
        w.end_obj();
    }
    w.end_obj();
    if let Some((sig, share)) = dominant {
        w.begin_obj_field("dominant_path");
        w.field_str("signature", sig);
        w.field_f64("share", share);
        w.end_obj();
    }
}

/// Path signatures (one code sequence per folded op or txn), counted
/// without an allocation per op: every signature is appended to one arena,
/// and equal signatures merge when the counts are spelled out.
#[derive(Default)]
struct Paths {
    arena: Vec<u8>,
    /// `arena[start..end]` of each recorded signature.
    spans: Vec<(u32, u32)>,
}

impl Paths {
    fn record(&mut self, sig: &[u8]) {
        let start = self.arena.len() as u32;
        self.arena.extend_from_slice(sig);
        self.spans.push((start, self.arena.len() as u32));
    }

    /// Signature → count, each signature spelled as its codes' labels
    /// joined by `;`. Labels hold no `;` and are distinct per code, so
    /// distinct sequences stay distinct strings.
    fn spell(self, label: impl Fn(usize) -> &'static str) -> BTreeMap<String, u64> {
        let Paths { arena, mut spans } = self;
        let sig = |&(start, end): &(u32, u32)| &arena[start as usize..end as usize];
        spans.sort_unstable_by(|a, b| sig(a).cmp(sig(b)));
        let mut out = BTreeMap::new();
        for run in spans.chunk_by(|a, b| sig(a) == sig(b)) {
            let codes = sig(&run[0]);
            let len: usize = codes.iter().map(|&c| label(c as usize).len() + 1).sum();
            let mut s = String::with_capacity(len);
            for (i, &code) in codes.iter().enumerate() {
                if i > 0 {
                    s.push(';');
                }
                s.push_str(label(code as usize));
            }
            out.insert(s, run.len() as u64);
        }
        out
    }
}

/// The report rows of a code-indexed fold: one `(label, agg)` per code
/// that was touched. Labels are distinct per code, so no two rows merge.
fn labelled<const N: usize>(
    aggs: [Option<StageAgg>; N],
    label: impl Fn(usize) -> &'static str,
) -> BTreeMap<String, StageAgg> {
    aggs.into_iter()
        .enumerate()
        .filter_map(|(code, agg)| Some((label(code).to_string(), agg?)))
        .collect()
}

/// Trims one op's time-ordered events to the host-observed window: first
/// `OpIssue` through last `OpAck`. HyperLoop preposts RECV WQEs whose
/// `wr_id` names a *future* generation, so an op's stream can open with
/// descriptor-fetch events emitted long before the client issues the op;
/// those are setup cost, not op latency, and are cut here. Returns `None`
/// when the stream never captured the op's issue or its ack.
pub(crate) fn issue_ack_window(evs: OpEvents<'_>) -> Option<OpEvents<'_>> {
    let first = evs.iter().position(|e| e.kind() == OP_ISSUE)?;
    let last = evs.iter().rposition(|e| e.kind() == OP_ACK)?;
    if last <= first {
        return None;
    }
    Some(evs.slice(first, last))
}

/// Renders a trace stream in the flamegraph collapsed-stack text format:
/// one `root;nodeN;stage total_ns` line per (node, stage) pair, summed
/// over all complete ops and sorted lexicographically. Feed straight into
/// `flamegraph.pl` / speedscope; byte-identical for same-seed runs.
pub fn folded_stacks(events: &[TraceEvent], root: &str) -> String {
    let mut folded: BTreeMap<(u32, usize), u64> = BTreeMap::new();
    for (_op, evs) in OpIndex::by_op(events).iter() {
        let Some(win) = issue_ack_window(evs) else {
            continue;
        };
        for (prev, cur) in win.pairs() {
            *folded.entry((cur.node(), cur.kind())).or_insert(0) +=
                cur.at().since(prev.at()).as_nanos();
        }
    }
    let lines = folded
        .into_iter()
        .map(|((node, kind), ns)| (format!("{root};node{node};{}", kind_label(kind)), ns));
    collapsed(lines.collect())
}

/// Writes `line total\n` rows in line order.
fn collapsed(lines: BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (k, v) in &lines {
        let _ = writeln!(out, "{k} {v}");
    }
    out
}

/// One sampled counter-track point.
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Sample sim-time.
    pub at: SimTime,
    /// Track name (the registry metric name).
    pub track: String,
    /// Sampled value.
    pub value: f64,
}

/// Samples [`MetricsRegistry`] counters and gauges on a sim-time cadence,
/// recording only *changes* so long flat stretches cost nothing.
///
/// Call [`CounterSampler::sample`] with a freshly-exported registry at a
/// fixed cadence from the bench loop; every metric whose name starts with
/// one of the configured prefixes (or every metric, with no prefixes)
/// becomes a Perfetto counter track via [`chrome_trace_with_counters`].
#[derive(Debug, Clone, Default)]
pub struct CounterSampler {
    prefixes: Vec<String>,
    last: BTreeMap<String, f64>,
    samples: Vec<CounterSample>,
}

impl CounterSampler {
    /// A sampler tracking every metric in the registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A sampler tracking only metrics whose name starts with one of the
    /// given prefixes (e.g. `["bench.shards.", "cluster.sched."]`).
    pub fn with_prefixes(prefixes: &[&str]) -> Self {
        CounterSampler {
            prefixes: prefixes.iter().map(|p| p.to_string()).collect(),
            ..CounterSampler::default()
        }
    }

    fn tracked(&self, name: &str) -> bool {
        self.prefixes.is_empty() || self.prefixes.iter().any(|p| name.starts_with(p))
    }

    /// Records one cadence tick: every tracked counter/gauge whose value
    /// changed since the previous tick becomes a sample at `at`.
    pub fn sample(&mut self, at: SimTime, reg: &MetricsRegistry) {
        for (name, v) in reg.counters() {
            self.observe(at, name, v as f64);
        }
        for (name, v) in reg.gauges() {
            self.observe(at, name, v);
        }
    }

    fn observe(&mut self, at: SimTime, name: &str, value: f64) {
        if !self.tracked(name) {
            return;
        }
        if self.last.get(name) == Some(&value) {
            return;
        }
        self.last.insert(name.to_string(), value);
        self.samples.push(CounterSample {
            at,
            track: name.to_string(),
            value,
        });
    }

    /// The recorded samples, in recording order (time-ascending).
    pub fn samples(&self) -> &[CounterSample] {
        &self.samples
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
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
    write_chrome_events(&mut w, events, |_| true);
    write_counter_tracks(&mut w, samples);
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

/// Writes the `"ph":"C"` counter events (and, when there are any, their
/// process metadata) into an open `traceEvents` array.
fn write_counter_tracks(w: &mut JsonWriter, samples: &[CounterSample]) {
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
        w.field_micros("ts", s.at.as_nanos());
        w.begin_obj_field("args");
        w.field_f64("value", s.value);
        w.end_obj();
        w.end_obj();
    }
}

/// Phase-code slots of the txn folds: one per known phase, the last one
/// shared by every unknown code (they all read `"unknown"`).
const PHASE_SLOTS: usize = TXN_PHASE_BACKOFF as usize + 2;

fn phase_slot(code: u8) -> usize {
    (code as usize).min(PHASE_SLOTS - 1)
}

/// Mode-code slots: locking, optimistic, and one for every unknown code.
const MODE_SLOTS: usize = 3;

/// The `(is_begin, mode, phase)` codes of a txn phase event.
pub(crate) fn phase_parts(e: &TraceEvent) -> (bool, u8, u8) {
    match e.kind {
        TraceKind::TxnPhaseBegin { mode, phase, .. } => (true, mode, phase),
        TraceKind::TxnPhaseEnd { mode, phase, .. } => (false, mode, phase),
        _ => unreachable!("the txn index holds txn phase events only"),
    }
}

/// The txn index's key: the txn id in a phase event's payload, never
/// [`TraceEvent::op`], so op-id reuse can't fold foreign events in.
pub(crate) fn txn_key(e: &TraceEvent) -> Option<u64> {
    match e.kind {
        TraceKind::TxnPhaseBegin { txn, .. } | TraceKind::TxnPhaseEnd { txn, .. } => Some(txn),
        _ => None,
    }
}

/// Groups a stream's txn phase events by txn id (see [`txn_key`]). Phase
/// events are a small share of a stream, so the txn folds read each one's
/// phase and mode codes through [`OpEvents::event`].
pub(crate) fn txn_index(events: &[TraceEvent]) -> OpIndex<'_> {
    OpIndex::build(events, txn_key)
}

/// A txn's commit-mode code: that of its first-emitted phase event.
pub(crate) fn txn_mode(evs: OpEvents<'_>) -> u8 {
    phase_parts(evs.first_emitted()).1
}

/// A txn phase stream is well-formed when it has at least one window,
/// opens on a Begin and closes on an End.
fn well_formed(evs: OpEvents<'_>) -> bool {
    evs.len() >= 2 && evs.first().kind() == TXN_PHASE_BEGIN && evs.last().kind() != TXN_PHASE_BEGIN
}

/// Per-phase latency attribution aggregated over every complete
/// transaction in a trace stream — the txn-level sibling of
/// [`StageAttribution`].
///
/// Folds [`TraceKind::TxnPhaseBegin`]/[`TraceKind::TxnPhaseEnd`] events.
/// Each txn's consecutive events bound consecutive windows that tile its
/// `[first begin, last end]` lifetime exactly (phase changes emit End and
/// Begin at the same instant), so the same tiling identity as
/// [`StageAttribution`] holds:
///
/// ```text
/// sum over phases of total_ns  ==  sum over txns of e2e_ns        (exact)
/// sum over phases of (total_ns / txns)  ==  mean commit latency   (±1 ns)
/// ```
#[derive(Debug, Clone, Default)]
pub struct TxnAttribution {
    /// Complete transactions folded in.
    pub txns: u64,
    /// Transactions without a well-formed `[Begin … End]` stream (still in
    /// flight at capture end, or span evicted by ring overflow), excluded
    /// from the fold so the tiling invariant holds.
    pub truncated: u64,
    /// Distinct ops carrying a [`TraceKind::TxnOp`] parent-txn tag in the
    /// stream (txn-issued gCAS/gWRITE traffic, as opposed to bare ops).
    pub linked_ops: u64,
    /// End-to-end (begin→outcome) latency distribution over folded txns.
    pub e2e: Histogram,
    /// Exact sum of end-to-end nanoseconds over the folded txns.
    pub e2e_total_ns: u64,
    /// Per-phase aggregates, phase-label-ordered.
    pub phases: BTreeMap<String, StageAgg>,
    /// Phase-signature → txn count (signature = Begin phases joined `;`).
    pub paths: BTreeMap<String, u64>,
}

impl TxnAttribution {
    /// Folds every transaction with a well-formed phase stream in
    /// `events`: at least one Begin/End pair, opening on a Begin and
    /// closing on an End. Malformed streams count as `truncated` and are
    /// excluded. One sweep of the stream gathers the phase events and the
    /// linked ops' tags; the txn index then groups the phase events.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut linked: Vec<u64> = Vec::new();
        let mut phases: Vec<TraceEvent> = Vec::new();
        for e in events {
            match e.kind {
                TraceKind::TxnOp { .. } => linked.push(e.op),
                TraceKind::TxnPhaseBegin { .. } | TraceKind::TxnPhaseEnd { .. } => phases.push(*e),
                _ => {}
            }
        }
        let txns = txn_index(&phases);
        linked.sort_unstable();
        linked.dedup();
        let mut att = TxnAttribution {
            linked_ops: linked.len() as u64,
            ..TxnAttribution::default()
        };
        let mut aggs: [Option<StageAgg>; PHASE_SLOTS] = std::array::from_fn(|_| None);
        let mut paths = Paths::default();
        let mut sig: Vec<u8> = Vec::new();
        for (_txn, evs) in txns.iter() {
            if !well_formed(evs) {
                att.truncated += 1;
                continue;
            }
            att.txns += 1;
            let e2e = evs.last().at().since(evs.first().at());
            att.e2e.record(e2e);
            att.e2e_total_ns += e2e.as_nanos();
            sig.clear();
            // Every adjacent event pair is one window; windows tile the
            // txn lifetime by construction. A Begin-opened window is time
            // spent *in* that phase; an End-opened window is the gap to
            // the next phase, zero-length under the emission contract and
            // attributed to the phase just ended if it ever isn't.
            for (prev, next) in evs.pairs() {
                let (is_begin, _, phase) = phase_parts(evs.event(prev));
                let dur = next.at().since(prev.at());
                let slot = phase_slot(phase);
                let agg = aggs[slot].get_or_insert_with(StageAgg::default);
                agg.total_ns += dur.as_nanos();
                if is_begin {
                    agg.count += 1;
                    agg.hist.record(dur);
                    sig.push(slot as u8);
                }
            }
            paths.record(&sig);
        }
        let label = |slot: usize| txn_phase_label(slot as u8);
        att.phases = labelled(aggs, label);
        att.paths = paths.spell(label);
        att
    }

    /// Mean commit latency (begin→outcome) in ns over the folded txns.
    pub fn mean_e2e_ns(&self) -> f64 {
        if self.txns == 0 {
            return 0.0;
        }
        self.e2e_total_ns as f64 / self.txns as f64
    }

    /// Sum of per-phase mean contributions in ns: each phase's total over
    /// the *txn* count. Equals [`TxnAttribution::mean_e2e_ns`] exactly
    /// (same numerator, same denominator) — the tiling invariant.
    pub fn phase_mean_sum_ns(&self) -> f64 {
        if self.txns == 0 {
            return 0.0;
        }
        self.phases
            .values()
            .map(|a| a.total_ns as f64 / self.txns as f64)
            .sum()
    }

    /// The most frequent phase signature and the fraction of txns that
    /// took it. Ties break to the lexicographically-first signature.
    pub fn dominant_path(&self) -> Option<(&str, f64)> {
        let (sig, &n) = self
            .paths
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))?;
        Some((sig.as_str(), n as f64 / self.txns.max(1) as f64))
    }

    /// The `txn_breakdown` block [`TxnAttribution::write_fields`] writes:
    /// [`StageAttribution::SHAPE`]'s layout over phases, whose means tile
    /// the mean commit latency.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("txns", Shape::Count),
            req("truncated", Shape::Count),
            req("linked_ops", Shape::Count),
            req("e2e_total_ns", Shape::Count),
            req("mean_e2e_ns", Shape::Number),
            req("phase_mean_sum_ns", Shape::Number),
            req("e2e", E2E),
            req("phases", ROWS),
            opt("dominant_path", DOMINANT_PATH),
        ],
        Some(|att, path| tiles(att, path, "phase_mean_sum_ns")),
    );

    /// Writes the breakdown as fields of an already-open JSON object,
    /// mirroring [`StageAttribution::write_fields`].
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("txns", self.txns);
        w.field_u64("truncated", self.truncated);
        w.field_u64("linked_ops", self.linked_ops);
        w.field_u64("e2e_total_ns", self.e2e_total_ns);
        w.field_f64("mean_e2e_ns", self.mean_e2e_ns());
        w.field_f64("phase_mean_sum_ns", self.phase_mean_sum_ns());
        write_table(
            w,
            &self.e2e,
            self.e2e_total_ns,
            ("phases", &self.phases),
            self.dominant_path(),
        );
    }

    /// The breakdown as a standalone JSON object string.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        self.write_fields(&mut w);
        w.end_obj();
        w.finish()
    }
}

/// Renders a stream's txn phase windows in the flamegraph collapsed-stack
/// format, one `txn;<mode>;<phase> total_ns` line per (mode, phase) pair,
/// summed over all well-formed txns and sorted. Byte-identical for
/// same-seed runs.
pub fn txn_folded_stacks(events: &[TraceEvent]) -> String {
    let mut folded = [[None::<u64>; PHASE_SLOTS]; MODE_SLOTS];
    for (_txn, evs) in txn_index(events).iter() {
        if !well_formed(evs) {
            continue;
        }
        let mode = (txn_mode(evs) as usize).min(MODE_SLOTS - 1);
        for (prev, next) in evs.pairs() {
            let (_, _, phase) = phase_parts(evs.event(prev));
            *folded[mode][phase_slot(phase)].get_or_insert(0) +=
                next.at().since(prev.at()).as_nanos();
        }
    }
    let mut lines = BTreeMap::new();
    for (mode, row) in folded.iter().enumerate() {
        for (phase, ns) in row.iter().enumerate() {
            if let Some(ns) = ns {
                let line = format!(
                    "txn;{};{}",
                    txn_mode_label(mode as u8),
                    txn_phase_label(phase as u8)
                );
                lines.insert(line, *ns);
            }
        }
    }
    collapsed(lines)
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
    let txns = txn_index(events);

    let mut w = JsonWriter::new();
    w.begin_obj();
    w.begin_arr_field("traceEvents");
    write_chrome_events(&mut w, events, |e| !is_txn_phase(e));
    if !txns.is_empty() {
        w.begin_obj();
        w.field_str("ph", "M");
        w.field_u64("pid", TXN_PID);
        w.field_str("name", "process_name");
        w.begin_obj_field("args");
        w.field_str("name", "transactions");
        w.end_obj();
        w.end_obj();
    }
    for (txn, evs) in txns.iter() {
        let mode = txn_mode_label(txn_mode(evs));
        for (prev, next) in evs.pairs() {
            let (is_begin, _, phase) = phase_parts(evs.event(prev));
            if !is_begin {
                continue; // End→Begin gaps are zero-length; skip.
            }
            w.begin_obj();
            w.field_str("ph", "X");
            w.field_str("name", txn_phase_label(phase));
            w.field_u64("pid", TXN_PID);
            w.field_u64("tid", txn);
            w.field_micros("ts", prev.at().as_nanos());
            w.field_f64("dur", ts_us(next.at()) - ts_us(prev.at()));
            w.begin_obj_field("args");
            w.field_u64("txn", txn);
            w.field_str("mode", mode);
            w.end_obj();
            w.end_obj();
        }
    }
    write_counter_tracks(&mut w, samples);
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simtrace::TraceKind;

    fn ev(ns: u64, node: u32, op: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            node,
            op,
            kind,
        }
    }

    /// Two ops with identical shapes and one op with an extra DMA stage.
    fn stream() -> Vec<TraceEvent> {
        let mut evs = Vec::new();
        for (base, op) in [(0u64, 1u64), (1000, 2)] {
            evs.push(ev(base, 0, op, TraceKind::OpIssue));
            evs.push(ev(base + 100, 0, op, TraceKind::MetaSend { replica: 0 }));
            evs.push(ev(base + 300, 1, op, TraceKind::WaitRelease { qp: 0 }));
            evs.push(ev(base + 600, 0, op, TraceKind::OpAck));
        }
        evs.push(ev(2000, 0, 3, TraceKind::OpIssue));
        evs.push(ev(2100, 0, 3, TraceKind::MetaSend { replica: 0 }));
        evs.push(ev(2200, 1, 3, TraceKind::Dma { bytes: 64 }));
        evs.push(ev(2300, 1, 3, TraceKind::WaitRelease { qp: 0 }));
        evs.push(ev(2800, 0, 3, TraceKind::OpAck));
        evs
    }

    #[test]
    fn attribution_tiles_aggregate_latency_exactly() {
        let att = StageAttribution::from_events(&stream());
        assert_eq!(att.ops, 3);
        assert_eq!(att.truncated, 0);
        // e2e: 600 + 600 + 800
        assert_eq!(att.e2e_total_ns, 2000);
        // Stage totals tile the e2e total exactly.
        let stage_total: u64 = att.stages.values().map(|a| a.total_ns).sum();
        assert_eq!(stage_total, att.e2e_total_ns);
        // And the mean identity holds to the ns.
        assert!((att.stage_mean_sum_ns() - att.mean_e2e_ns()).abs() <= 1.0);
        // The odd op's extra stage is weighted by its true share.
        assert_eq!(att.stages["dma"].count, 1);
        assert_eq!(att.stages["meta_send"].count, 3);
    }

    #[test]
    fn dominant_path_is_the_common_signature() {
        let att = StageAttribution::from_events(&stream());
        let (sig, share) = att.dominant_path().expect("paths recorded");
        assert_eq!(sig, "meta_send;wait_release;op_ack");
        assert!((share - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(att.paths.len(), 2);
    }

    #[test]
    fn truncated_ops_are_excluded_not_mis_tiled() {
        // Op 9 never captured its issue: it must be counted out, leaving
        // the tiling invariant intact.
        let mut evs = stream();
        evs.push(ev(5000, 1, 9, TraceKind::Dma { bytes: 8 }));
        evs.push(ev(5100, 0, 9, TraceKind::OpAck));
        // Op 11 issued but never acked (in flight at capture end).
        evs.push(ev(6000, 0, 11, TraceKind::OpIssue));
        evs.push(ev(6100, 1, 11, TraceKind::Dma { bytes: 8 }));
        let att = StageAttribution::from_events(&evs);
        assert_eq!(att.ops, 3);
        assert_eq!(att.truncated, 2);
        let stage_total: u64 = att.stages.values().map(|a| a.total_ns).sum();
        assert_eq!(stage_total, att.e2e_total_ns);
    }

    #[test]
    fn pre_issue_prepost_events_are_trimmed_not_mistaken_for_truncation() {
        // HyperLoop preposts RECV WQEs carrying a *future* generation, so
        // an op's stream can open with a descriptor fetch long before its
        // issue. The fold must anchor at OpIssue, not at the prepost.
        let mut evs = vec![
            ev(10, 1, 5, TraceKind::WqeFetch { qp: 3, opcode: 0 }),
            ev(20, 2, 5, TraceKind::WqeFetch { qp: 3, opcode: 0 }),
        ];
        evs.push(ev(1000, 0, 5, TraceKind::OpIssue));
        evs.push(ev(1100, 0, 5, TraceKind::MetaSend { replica: 0 }));
        evs.push(ev(1300, 1, 5, TraceKind::WaitRelease { qp: 0 }));
        evs.push(ev(1600, 0, 5, TraceKind::OpAck));
        let att = StageAttribution::from_events(&evs);
        assert_eq!(att.ops, 1);
        assert_eq!(att.truncated, 0);
        // e2e measures issue→ack, not prepost→ack.
        assert_eq!(att.e2e_total_ns, 600);
        assert!(!att.stages.contains_key("wqe_fetch"));
        let (sig, _) = att.dominant_path().expect("path recorded");
        assert_eq!(sig, "meta_send;wait_release;op_ack");
    }

    #[test]
    fn attribution_json_is_deterministic_and_complete() {
        let att = StageAttribution::from_events(&stream());
        let a = att.to_json();
        let b = StageAttribution::from_events(&stream()).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"ops\":3"));
        assert!(a.contains("\"stages\":{"));
        assert!(a.contains("\"dominant_path\":{"));
        assert!(a.contains("\"signature\":\"meta_send;wait_release;op_ack\""));
    }

    #[test]
    fn folded_stacks_are_sorted_and_deterministic() {
        let evs = stream();
        let a = folded_stacks(&evs, "unit");
        assert_eq!(a, folded_stacks(&evs, "unit"));
        let lines: Vec<&str> = a.lines().collect();
        assert!(!lines.is_empty());
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted, "collapsed stacks must be sorted");
        // meta_send on node 0: 100ns × 3 ops.
        assert!(a.contains("unit;node0;meta_send 300\n"), "got:\n{a}");
    }

    #[test]
    fn sampler_records_only_changes() {
        let mut reg = MetricsRegistry::new();
        reg.counter_set("x.acked", 1);
        reg.set_gauge("x.pen", 0.0);
        let mut s = CounterSampler::new();
        s.sample(SimTime::from_nanos(10), &reg);
        assert_eq!(s.len(), 2);
        // Nothing changed: no new samples.
        s.sample(SimTime::from_nanos(20), &reg);
        assert_eq!(s.len(), 2);
        reg.counter_set("x.acked", 5);
        s.sample(SimTime::from_nanos(30), &reg);
        assert_eq!(s.len(), 3);
        assert_eq!(s.samples()[2].track, "x.acked");
        assert_eq!(s.samples()[2].value, 5.0);
    }

    #[test]
    fn sampler_prefix_filter_applies() {
        let mut reg = MetricsRegistry::new();
        reg.counter_set("keep.a", 1);
        reg.counter_set("drop.b", 2);
        let mut s = CounterSampler::with_prefixes(&["keep."]);
        s.sample(SimTime::ZERO, &reg);
        assert_eq!(s.len(), 1);
        assert_eq!(s.samples()[0].track, "keep.a");
    }

    #[test]
    fn counter_trace_is_valid_and_deterministic() {
        let evs = stream();
        let mut reg = MetricsRegistry::new();
        reg.counter_set("bench.acked", 2);
        let mut s = CounterSampler::new();
        s.sample(SimTime::from_nanos(500), &reg);
        reg.counter_set("bench.acked", 3);
        s.sample(SimTime::from_nanos(1500), &reg);

        let a = chrome_trace_with_counters(&evs, s.samples());
        let b = chrome_trace_with_counters(&evs, s.samples());
        assert_eq!(a, b);
        assert!(a.contains("\"ph\":\"C\""));
        assert!(a.contains("\"name\":\"metrics\""));
        assert!(a.contains("\"name\":\"bench.acked\""));
        // Without samples the output degrades to the plain span stream.
        let plain = chrome_trace_with_counters(&evs, &[]);
        assert_eq!(plain, crate::simtrace::chrome_trace_json(&evs));
    }

    fn txn_ev(ns: u64, txn: u64, begin: bool, phase: u8) -> TraceEvent {
        let kind = if begin {
            TraceKind::TxnPhaseBegin {
                txn,
                mode: 1,
                phase,
            }
        } else {
            TraceKind::TxnPhaseEnd {
                txn,
                mode: 1,
                phase,
            }
        };
        ev(
            ns,
            crate::simtrace::NO_NODE,
            crate::simtrace::txn_op_id(txn),
            kind,
        )
    }

    /// Two optimistic txns: one clean acquire→validate→apply→release, one
    /// with a backoff round in the middle. Phases are contiguous (End and
    /// next Begin share a timestamp), like the emitter guarantees.
    fn txn_stream() -> Vec<TraceEvent> {
        use crate::simtrace::*;
        let mut evs = Vec::new();
        // txn 0: 100ns acquire, 50ns validate, 30ns apply, 20ns release.
        for (t0, t1, p) in [
            (0u64, 100u64, TXN_PHASE_ACQUIRE),
            (100, 150, TXN_PHASE_VALIDATE),
            (150, 180, TXN_PHASE_APPLY),
            (180, 200, TXN_PHASE_RELEASE),
        ] {
            evs.push(txn_ev(t0, 0, true, p));
            evs.push(txn_ev(t1, 0, false, p));
        }
        // txn 1: acquire 40ns, backoff 60ns, acquire 40ns, release 10ns.
        for (t0, t1, p) in [
            (1000u64, 1040u64, TXN_PHASE_ACQUIRE),
            (1040, 1100, TXN_PHASE_BACKOFF),
            (1100, 1140, TXN_PHASE_ACQUIRE),
            (1140, 1150, TXN_PHASE_RELEASE),
        ] {
            evs.push(txn_ev(t0, 1, true, p));
            evs.push(txn_ev(t1, 1, false, p));
        }
        // A txn-issued op tag plus an op event, to exercise the link map.
        evs.push(ev(5, 0, 77, TraceKind::OpIssue));
        evs.push(ev(6, 0, 77, TraceKind::TxnOp { txn: 0 }));
        evs.push(ev(90, 0, 77, TraceKind::OpAck));
        evs
    }

    #[test]
    fn txn_attribution_tiles_commit_latency_exactly() {
        let att = TxnAttribution::from_events(&txn_stream());
        assert_eq!(att.txns, 2);
        assert_eq!(att.truncated, 0);
        assert_eq!(att.linked_ops, 1);
        // e2e: 200 + 150.
        assert_eq!(att.e2e_total_ns, 350);
        let phase_total: u64 = att.phases.values().map(|a| a.total_ns).sum();
        assert_eq!(phase_total, att.e2e_total_ns);
        assert!((att.phase_mean_sum_ns() - att.mean_e2e_ns()).abs() <= 1.0);
        // txn 1's two acquire rounds fold into one phase row.
        assert_eq!(att.phases["acquire"].count, 3);
        assert_eq!(att.phases["acquire"].total_ns, 180);
        assert_eq!(att.phases["backoff"].total_ns, 60);
        let (sig, share) = att.dominant_path().unwrap();
        assert_eq!(sig, "acquire;backoff;acquire;release");
        assert!((share - 0.5).abs() < 1e-9);
    }

    #[test]
    fn txn_attribution_excludes_in_flight_txns() {
        let mut evs = txn_stream();
        // txn 9 still in a phase at capture end: Begin without End.
        evs.push(txn_ev(9000, 9, true, crate::simtrace::TXN_PHASE_ACQUIRE));
        let att = TxnAttribution::from_events(&evs);
        assert_eq!(att.txns, 2);
        assert_eq!(att.truncated, 1);
        let phase_total: u64 = att.phases.values().map(|a| a.total_ns).sum();
        assert_eq!(phase_total, att.e2e_total_ns);
    }

    #[test]
    fn txn_folded_stacks_are_rooted_and_sorted() {
        let evs = txn_stream();
        let a = txn_folded_stacks(&evs);
        assert_eq!(a, txn_folded_stacks(&evs));
        let lines: Vec<&str> = a.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
        assert!(lines.iter().all(|l| l.starts_with("txn;optimistic;")));
        assert!(a.contains("txn;optimistic;acquire 180\n"), "got:\n{a}");
        assert!(a.contains("txn;optimistic;backoff 60\n"));
    }

    #[test]
    fn txn_chrome_trace_has_per_txn_tracks_and_is_deterministic() {
        let evs = txn_stream();
        let mut reg = MetricsRegistry::new();
        reg.counter_set("txn.contention.conflicts", 4);
        let mut s = CounterSampler::with_prefixes(&["txn."]);
        s.sample(SimTime::from_nanos(500), &reg);

        let a = txn_chrome_trace_with_counters(&evs, s.samples());
        assert_eq!(a, txn_chrome_trace_with_counters(&evs, s.samples()));
        assert!(a.contains("\"name\":\"transactions\""));
        assert!(a.contains(&format!("\"pid\":{TXN_PID}")));
        // Both txns own a track; phase spans carry mode + txn args.
        assert!(a.contains("\"tid\":0"));
        assert!(a.contains("\"tid\":1"));
        assert!(a.contains("\"name\":\"backoff\""));
        assert!(a.contains("\"mode\":\"optimistic\""));
        assert!(a.contains("\"name\":\"txn.contention.conflicts\""));
        // Txn phase events are rendered as spans only, not op instants.
        assert!(!a.contains("\"name\":\"txn_phase_begin\""));
        // The tagged op's instant stream survives untouched.
        assert!(a.contains("\"name\":\"txn_op\""));
    }

    #[test]
    fn written_blocks_match_their_declarations() {
        let stage = StageAttribution::from_events(&stream());
        let txn = TxnAttribution::from_events(&txn_stream());
        for (json, shape, path) in [
            (
                stage.to_json(),
                StageAttribution::SHAPE,
                "stage_attribution",
            ),
            (txn.to_json(), TxnAttribution::SHAPE, "txn_breakdown"),
        ] {
            let v = crate::jsonw::parse(&json).expect("block parses");
            assert!(
                v.get("dominant_path").is_some(),
                "{path} lacks the optional field"
            );
            shape.check(&v, path).expect("writer and declaration agree");
        }
    }
}
