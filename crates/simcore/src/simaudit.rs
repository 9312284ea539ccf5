//! Online invariant auditing and streaming health tracking.
//!
//! `simtrace` records what happened and `simprof` explains where the time
//! went; `simaudit` *verifies* the run while it executes. An [`Audit`]
//! handle rides along inside a [`Tracer`] (see [`Tracer::with_audit`]) and
//! sees every trace event the instant it is emitted, plus out-of-band
//! [`Probe`]s from instrumented call sites (ack-time durability checks,
//! holding-pen depth, flow-control windows). A set of [`Auditor`]s checks
//! the paper's core invariants online and reports structured [`Violation`]
//! records — offending op id, sim time, human-readable detail and a causal
//! event excerpt — instead of letting a silent protocol bug masquerade as
//! a performance artifact. Each auditor receives only the trace kinds it
//! declares ([`Auditor::kinds`]); the excerpt history keeps every event.
//!
//! The standard auditor set ([`Audit::standard`]):
//!
//! * **durability** — in durable mode, every acked gWRITE's bytes must be
//!   flushed past the NIC-volatile-cache boundary before the client
//!   observes the ack (fed by [`Probe::AckDurability`] from the group
//!   client's ack path).
//! * **chain_order** — per (shard, epoch), generations are issued and
//!   acked contiguously and monotonically, and no completion precedes its
//!   op's issue.
//! * **flow_control** — issued − acked never exceeds the advertised
//!   window; the migration holding pen never exceeds its bound.
//! * **migration** — no in-flight op is lost across a cutover, the pause
//!   window stays bounded, and every penned op is reissued on the new
//!   epoch before the migration ends.
//! * **txn** — committed transactions applied exactly their staged writes,
//!   aborted transactions left no residue, no write lands without the
//!   covering lock, no two txns hold the same lock site, and every lock a
//!   txn acquired is released by the time it finishes (fed by the
//!   [`Probe::TxnBegin`] .. [`Probe::TxnAbort`] lifecycle probes).
//!
//! The second half of the module is streaming health: [`HealthMonitor`]
//! keeps a sliding window of per-shard ack latency samples,
//! classifies each shard as [`HealthState::Healthy`] / `Degraded` /
//! `Stalled` against a [`SloConfig`], and emits every state transition as
//! a [`TraceKind::HealthBreach`] Perfetto instant plus a serialisable
//! [`HealthSummary`] block for bench reports.
//!
//! Everything is deterministic: BTreeMap iteration, integer-nanosecond
//! arithmetic, and same-seed runs produce byte-identical violation and
//! health output.
//!
//! ```
//! use simcore::prelude::*;
//! use simcore::simaudit::{op_id_base, Audit, Probe};
//! use simcore::simtrace::TraceKind;
//!
//! let audit = Audit::standard();
//! let tracer = Tracer::disabled().with_audit(audit.clone());
//! let op = op_id_base(0, 0); // shard 0, epoch 0, seq 0
//! tracer.emit(SimTime::from_nanos(100), 0, op, TraceKind::OpIssue);
//! tracer.emit(SimTime::from_nanos(400), 0, op, TraceKind::OpAck);
//! audit.probe(
//!     SimTime::from_nanos(400),
//!     Probe::AckDurability { op, node: 1, durable: true },
//! );
//! assert_eq!(audit.violation_count(), 0);
//! ```

use crate::jsonw::{join, req, JsonValue, JsonWriter, Shape};
use crate::simtrace::{
    txn_phase_label, KindSet, MetricsRegistry, TraceEvent, TraceKind, Tracer, KIND_COUNT, NO_NODE,
    NO_OP,
};
use crate::stats::{quantile, Latencies};
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::rc::Rc;

// ---------------------------------------------------------------------------
// Epoch-qualified op identity
// ---------------------------------------------------------------------------

/// Bit position of the shard index inside an op id / generation number.
///
/// Group generation numbers double as causal op ids on every hop, so the
/// id layout is the one contract every observability layer shares:
///
/// ```text
/// 63 ........ 40 39 ........ 20 19 ......... 0
///  shard index    shard epoch     sequence
/// ```
///
/// A shard's `first_gen` is `op_id_base(shard, epoch)`, which keeps ids
/// unique across shards *and* across migration cutovers: the replacement
/// chain continues at the next epoch instead of restarting generation
/// numbers, so trace spans survive a cutover.
pub const SHARD_GEN_SHIFT: u32 = 40;

/// Bit position of the shard epoch inside an op id (see
/// [`SHARD_GEN_SHIFT`] for the layout).
pub const EPOCH_GEN_SHIFT: u32 = 20;

/// Largest epoch representable in the 20-bit epoch field.
pub const EPOCH_GEN_MAX: u64 = (1 << (SHARD_GEN_SHIFT - EPOCH_GEN_SHIFT)) - 1;

/// Mask selecting the per-epoch sequence number of an op id.
pub const SEQ_GEN_MASK: u64 = (1 << EPOCH_GEN_SHIFT) - 1;

/// First generation number of `shard`'s chain at `epoch`.
///
/// The result is a multiple of any power-of-two `meta_slots ≤ 2^20`, so it
/// satisfies the group-config alignment rule for every supported layout.
///
/// # Panics
///
/// Panics if `epoch` exceeds [`EPOCH_GEN_MAX`].
pub fn op_id_base(shard: u32, epoch: u64) -> u64 {
    assert!(
        epoch <= EPOCH_GEN_MAX,
        "epoch {epoch} exceeds the {EPOCH_GEN_SHIFT}-bit op-id epoch field"
    );
    ((shard as u64) << SHARD_GEN_SHIFT) | (epoch << EPOCH_GEN_SHIFT)
}

/// Splits an op id into `(shard, epoch, seq)` (see [`SHARD_GEN_SHIFT`]).
pub fn op_id_parts(op: u64) -> (u32, u64, u64) {
    (
        (op >> SHARD_GEN_SHIFT) as u32,
        (op >> EPOCH_GEN_SHIFT) & EPOCH_GEN_MAX,
        op & SEQ_GEN_MASK,
    )
}

// ---------------------------------------------------------------------------
// Violations, probes and the auditor trait
// ---------------------------------------------------------------------------

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Name of the auditor that fired ([`Auditor::name`]).
    pub auditor: &'static str,
    /// The offending op id ([`NO_OP`] when the violation is not
    /// attributable to a single op, e.g. a migration pause overrun).
    pub op: u64,
    /// Sim time at which the violation was detected.
    pub at: SimTime,
    /// Human-readable description of what was violated.
    pub detail: String,
    /// Causal excerpt: the most recent trace events mentioning the
    /// offending op (or the most recent events overall for [`NO_OP`]),
    /// oldest first.
    pub excerpt: Vec<TraceEvent>,
}

/// Out-of-band facts fed to auditors from instrumented call sites —
/// things the trace stream alone cannot see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Probe {
    /// Ack-path durability check: at the moment the client observed the
    /// ack for a flushed write, were the write's bytes durable on this
    /// replica (past the NIC volatile cache)?
    AckDurability {
        /// The acked op.
        op: u64,
        /// Replica node that was checked.
        node: u32,
        /// Whether the full byte range was durable at ack time.
        durable: bool,
    },
    /// Holding-pen occupancy after a deferred op was penned.
    PenDepth {
        /// Shard whose pen was sampled.
        shard: u32,
        /// Current pen depth (ops).
        depth: u64,
        /// Configured pen capacity.
        capacity: u64,
    },
    /// Advertises a shard's flow-control window to the auditors
    /// (typically probed once at setup).
    Window {
        /// Shard the window applies to.
        shard: u32,
        /// Maximum allowed issued − acked.
        window: u64,
    },
    /// A multi-key transaction began.
    TxnBegin {
        /// Transaction id (the txn layer's own counter space).
        txn: u64,
    },
    /// A transaction acquired a write-lock site group-wide.
    TxnLock {
        /// Acquiring transaction.
        txn: u64,
        /// Shard owning the lock word.
        shard: u32,
        /// Lock id within that shard's table.
        lock: u32,
    },
    /// A transaction released a write-lock site.
    TxnUnlock {
        /// Releasing transaction.
        txn: u64,
        /// Shard owning the lock word.
        shard: u32,
        /// Lock id within that shard's table.
        lock: u32,
    },
    /// One buffered write of a transaction was applied (its durable gWRITE
    /// acknowledged), attributed to the lock site covering the key.
    TxnWrite {
        /// Writing transaction.
        txn: u64,
        /// Shard the write landed on.
        shard: u32,
        /// Lock id covering the written key.
        lock: u32,
    },
    /// A transaction finished committed.
    TxnCommit {
        /// The committed transaction.
        txn: u64,
        /// Writes the transaction staged (all must have applied).
        writes: u64,
    },
    /// A transaction finished aborted.
    TxnAbort {
        /// The aborted transaction.
        txn: u64,
    },
}

/// Reporting context handed to auditors: collects violations and carries
/// the recent-event history the excerpts are cut from.
pub struct AuditCtx<'a> {
    history: &'a VecDeque<TraceEvent>,
    violations: &'a mut Vec<Violation>,
    by_auditor: &'a mut BTreeMap<&'static str, u64>,
    total: &'a mut u64,
}

/// Cap on fully-materialised violation records; the total count keeps
/// incrementing past it so gates still see the true number.
const MAX_RECORDED: usize = 1024;

/// Events kept in the excerpt-history ring.
const HISTORY_CAP: usize = 256;

/// Events included in a violation's causal excerpt.
const EXCERPT_LEN: usize = 8;

impl AuditCtx<'_> {
    /// Records one violation, attaching a causal excerpt of the most
    /// recent events mentioning `op` (or the most recent events overall
    /// when `op` is [`NO_OP`]).
    pub fn report(&mut self, auditor: &'static str, op: u64, at: SimTime, detail: String) {
        *self.total += 1;
        *self.by_auditor.entry(auditor).or_insert(0) += 1;
        if self.violations.len() >= MAX_RECORDED {
            return;
        }
        let mut excerpt: Vec<TraceEvent> = self
            .history
            .iter()
            .rev()
            .filter(|e| op == NO_OP || e.op == op)
            .take(EXCERPT_LEN)
            .copied()
            .collect();
        excerpt.reverse();
        self.violations.push(Violation {
            auditor,
            op,
            at,
            detail,
            excerpt,
        });
    }
}

/// An online invariant checker.
///
/// Auditors are registered with an [`Audit`] handle and receive the trace
/// events of the kinds they read (via the tracer tap) and every [`Probe`]
/// the instrumented code fires. They must not emit trace events
/// themselves — the tap runs inside [`Tracer::emit`].
pub trait Auditor {
    /// Stable snake_case name used in reports and metric keys.
    fn name(&self) -> &'static str;

    /// The trace kinds [`Auditor::on_event`] reads; the audit hands it
    /// only events of these kinds. Asked once, when the [`Audit`] is
    /// built. Every kind unless overridden.
    fn kinds(&self) -> KindSet {
        KindSet::ALL
    }

    /// Observes one trace event of a kind in [`Auditor::kinds`], in
    /// emission order.
    fn on_event(&mut self, _ctx: &mut AuditCtx<'_>, _ev: &TraceEvent) {}

    /// Observes one out-of-band probe.
    fn on_probe(&mut self, _ctx: &mut AuditCtx<'_>, _at: SimTime, _probe: &Probe) {}
}

// ---------------------------------------------------------------------------
// The Audit handle
// ---------------------------------------------------------------------------

struct AuditInner {
    auditors: Vec<Box<dyn Auditor>>,
    /// Per kind ordinal, the auditors (indices in registration order)
    /// whose [`Auditor::kinds`] hold that kind.
    routes: [Vec<usize>; KIND_COUNT],
    history: VecDeque<TraceEvent>,
    violations: Vec<Violation>,
    by_auditor: BTreeMap<&'static str, u64>,
    total: u64,
}

impl AuditInner {
    /// Records `ev` in the excerpt history, whatever its kind, then hands
    /// it to the auditors that read its kind.
    fn on_event(&mut self, ev: &TraceEvent) {
        if self.history.len() >= HISTORY_CAP {
            self.history.pop_front();
        }
        self.history.push_back(*ev);
        let route = &self.routes[ev.kind.ordinal()];
        if route.is_empty() {
            return;
        }
        let mut ctx = AuditCtx {
            history: &self.history,
            violations: &mut self.violations,
            by_auditor: &mut self.by_auditor,
            total: &mut self.total,
        };
        for &i in route {
            self.auditors[i].on_event(&mut ctx, ev);
        }
    }

    fn on_probe(&mut self, at: SimTime, probe: &Probe) {
        let mut ctx = AuditCtx {
            history: &self.history,
            violations: &mut self.violations,
            by_auditor: &mut self.by_auditor,
            total: &mut self.total,
        };
        for a in &mut self.auditors {
            a.on_probe(&mut ctx, at, probe);
        }
    }
}

/// Cheap, cloneable handle to a shared set of online auditors.
///
/// A default-constructed (or [`Audit::disabled`]) handle carries no
/// auditors and costs one branch per event. Clones share one state, so
/// the same handle can ride inside every [`Tracer`] clone handed to the
/// fabric, the schedulers and the clients while the bench keeps a
/// reading clone for the final report.
#[derive(Clone, Default)]
pub struct Audit {
    inner: Option<Rc<RefCell<AuditInner>>>,
}

impl fmt::Debug for Audit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Audit")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Audit {
    /// An audit handle that checks nothing (the default).
    pub fn disabled() -> Self {
        Audit { inner: None }
    }

    /// An audit handle running the given auditors, each fed the trace
    /// kinds it declares.
    pub fn new(auditors: Vec<Box<dyn Auditor>>) -> Self {
        let kinds: Vec<KindSet> = auditors.iter().map(|a| a.kinds()).collect();
        let routes = std::array::from_fn(|kind| {
            (0..auditors.len())
                .filter(|&i| kinds[i].has(kind))
                .collect()
        });
        Audit {
            inner: Some(Rc::new(RefCell::new(AuditInner {
                auditors,
                routes,
                history: VecDeque::with_capacity(HISTORY_CAP),
                violations: Vec::new(),
                by_auditor: BTreeMap::new(),
                total: 0,
            }))),
        }
    }

    /// The standard auditor set: durability, chain order, flow control,
    /// migration safety (with the default pause bound) and transactional
    /// atomicity/isolation.
    pub fn standard() -> Self {
        Audit::new(vec![
            Box::new(DurabilityAuditor),
            Box::new(ChainOrderAuditor::default()),
            Box::new(FlowControlAuditor::default()),
            Box::new(MigrationAuditor::default()),
            Box::new(TxnAuditor::default()),
        ])
    }

    /// True if this handle runs auditors.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Feeds one trace event to the auditors that read its kind. No-op
    /// (one branch) when disabled. Called by the [`Tracer`] tap; call
    /// directly only when replaying a captured stream.
    #[inline]
    pub fn on_event(&self, ev: &TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().on_event(ev);
        }
    }

    /// Feeds one out-of-band probe to every auditor. No-op when disabled.
    #[inline]
    pub fn probe(&self, at: SimTime, probe: Probe) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().on_probe(at, &probe);
        }
    }

    /// Total violations detected so far (including any past the record
    /// cap).
    pub fn violation_count(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().total)
    }

    /// Snapshot of the recorded violation records, oldest first.
    pub fn violations(&self) -> Vec<Violation> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |i| i.borrow().violations.clone())
    }

    /// Snapshots violation totals into a registry under `prefix`:
    /// `{prefix}.violations` plus one `{prefix}.{auditor}.violations` per
    /// registered auditor (zero included). Uses absolute
    /// [`MetricsRegistry::counter_set`] writes, so re-export is
    /// idempotent.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        let Some(inner) = &self.inner else { return };
        let inner = inner.borrow();
        reg.counter_set(&format!("{prefix}.violations"), inner.total);
        for a in &inner.auditors {
            let name = a.name();
            let n = inner.by_auditor.get(name).copied().unwrap_or(0);
            reg.counter_set(&format!("{prefix}.{name}.violations"), n);
        }
    }

    /// Renders the violations as a human-readable report (empty string
    /// when clean).
    pub fn report(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let inner = inner.borrow();
        if inner.total == 0 {
            return String::new();
        }
        let mut out = format!("{} violation(s) detected\n", inner.total);
        for v in &inner.violations {
            let (shard, epoch, seq) = op_id_parts(v.op);
            if v.op == NO_OP {
                out.push_str(&format!("[{}] at {}: {}\n", v.auditor, v.at, v.detail));
            } else {
                out.push_str(&format!(
                    "[{}] op {:#x} (shard {shard}, epoch {epoch}, seq {seq}) at {}: {}\n",
                    v.auditor, v.op, v.at, v.detail
                ));
            }
            for e in &v.excerpt {
                out.push_str(&format!("    {} n{} {}\n", e.at, e.node, e.kind.label()));
            }
        }
        out
    }

    /// Serialises the audit state as one deterministic JSON object:
    /// total, per-auditor counts and the recorded violation records with
    /// their causal excerpts.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_obj();
        match &self.inner {
            None => {
                w.field_bool("enabled", false);
                w.field_u64("violations", 0);
            }
            Some(inner) => {
                let inner = inner.borrow();
                w.field_bool("enabled", true);
                w.field_u64("violations", inner.total);
                w.begin_obj_field("by_auditor");
                for a in &inner.auditors {
                    let name = a.name();
                    w.field_u64(name, inner.by_auditor.get(name).copied().unwrap_or(0));
                }
                w.end_obj();
                w.begin_arr_field("records");
                for v in &inner.violations {
                    w.begin_obj();
                    w.field_str("auditor", v.auditor);
                    w.field_u64("op", v.op);
                    w.field_u64("at_ns", v.at.as_nanos());
                    w.field_str("detail", &v.detail);
                    w.begin_arr_field("excerpt");
                    for e in &v.excerpt {
                        w.begin_obj();
                        w.field_u64("at_ns", e.at.as_nanos());
                        w.field_u64("node", e.node as u64);
                        w.field_u64("op", e.op);
                        w.field_str("kind", e.kind.label());
                        w.end_obj();
                    }
                    w.end_arr();
                    w.end_obj();
                }
                w.end_arr();
            }
        }
        w.end_obj();
        w.finish()
    }
}

// ---------------------------------------------------------------------------
// Concrete auditors
// ---------------------------------------------------------------------------

/// Checks that every acked flushed write was durable (past the NIC
/// volatile cache) on every replica at the moment the client observed
/// the ack. Fed by [`Probe::AckDurability`] from the group client's ack
/// path; the trace stream alone cannot see media state.
#[derive(Debug, Default)]
pub struct DurabilityAuditor;

impl Auditor for DurabilityAuditor {
    fn name(&self) -> &'static str {
        "durability"
    }

    fn kinds(&self) -> KindSet {
        KindSet::NONE
    }

    fn on_probe(&mut self, ctx: &mut AuditCtx<'_>, at: SimTime, probe: &Probe) {
        if let Probe::AckDurability { op, node, durable } = *probe {
            if !durable {
                ctx.report(
                    self.name(),
                    op,
                    at,
                    format!("acked flushed write not durable on node {node} at ack time"),
                );
            }
        }
    }
}

#[derive(Debug, Default)]
struct ChainState {
    issued: u64,
    acked: u64,
    /// Issue time by sequence number; [`NOT_ISSUED`] marks a sequence an
    /// out-of-order issue skipped. Sequences are dense from 0 and below
    /// 2^20 ([`SEQ_GEN_MASK`]), so a vector indexed by them is both the
    /// smallest map and one load per completion.
    issue_at: Vec<SimTime>,
}

/// [`ChainState::issue_at`]'s mark for a sequence never issued.
const NOT_ISSUED: SimTime = SimTime::from_nanos(u64::MAX);

impl ChainState {
    /// When sequence `seq` was issued, if it was.
    fn issued_at(&self, seq: u64) -> Option<SimTime> {
        let at = *self.issue_at.get(seq as usize)?;
        (at != NOT_ISSUED).then_some(at)
    }

    fn record_issue(&mut self, seq: u64, at: SimTime) {
        let i = seq as usize;
        if i >= self.issue_at.len() {
            self.issue_at.resize(i + 1, NOT_ISSUED);
        }
        self.issue_at[i] = at;
    }
}

/// Checks per-(shard, epoch) ordering: generations are issued and acked
/// contiguously from sequence 0, every ack matches a prior issue, and no
/// completion-queue entry for a tracked op precedes that op's issue.
#[derive(Debug, Default)]
pub struct ChainOrderAuditor {
    chains: BTreeMap<(u32, u64), ChainState>,
}

impl Auditor for ChainOrderAuditor {
    fn name(&self) -> &'static str {
        "chain_order"
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&["op_issue", "op_ack", "cqe"])
    }

    fn on_event(&mut self, ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
        if ev.op == NO_OP {
            return;
        }
        let name = self.name();
        let (shard, epoch, seq) = op_id_parts(ev.op);
        match ev.kind {
            TraceKind::OpIssue => {
                let st = self.chains.entry((shard, epoch)).or_default();
                if seq != st.issued {
                    ctx.report(
                        name,
                        ev.op,
                        ev.at,
                        format!(
                            "issue out of order on shard {shard} epoch {epoch}: \
                             expected seq {}, got {seq}",
                            st.issued
                        ),
                    );
                }
                st.issued = st.issued.max(seq + 1);
                st.record_issue(seq, ev.at);
            }
            TraceKind::OpAck => {
                let st = self.chains.entry((shard, epoch)).or_default();
                if st.issued_at(seq).is_none() {
                    ctx.report(
                        name,
                        ev.op,
                        ev.at,
                        format!("acked op was never issued on shard {shard} epoch {epoch}"),
                    );
                }
                if seq != st.acked {
                    ctx.report(
                        name,
                        ev.op,
                        ev.at,
                        format!(
                            "ack out of order on shard {shard} epoch {epoch}: \
                             expected seq {}, got {seq}",
                            st.acked
                        ),
                    );
                }
                st.acked = st.acked.max(seq + 1);
            }
            TraceKind::Cqe { .. } => {
                // Only tracked ops: pre-posted RECVs complete with wr_id 0
                // and migration copy WQEs with NO_OP, neither of which maps
                // to an issued generation.
                if let Some(st) = self.chains.get(&(shard, epoch)) {
                    if let Some(t0) = st.issued_at(seq) {
                        if ev.at < t0 {
                            ctx.report(
                                name,
                                ev.op,
                                ev.at,
                                format!("completion at {} precedes its op's issue at {t0}", ev.at),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Checks flow control: per shard, issued − acked never exceeds the
/// window advertised via [`Probe::Window`], and the migration holding
/// pen never exceeds its capacity ([`Probe::PenDepth`]).
#[derive(Debug, Default)]
pub struct FlowControlAuditor {
    windows: BTreeMap<u32, u64>,
    in_flight: BTreeMap<u32, u64>,
}

impl Auditor for FlowControlAuditor {
    fn name(&self) -> &'static str {
        "flow_control"
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&["op_issue", "op_ack"])
    }

    fn on_event(&mut self, ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
        if ev.op == NO_OP {
            return;
        }
        let name = self.name();
        let (shard, _, _) = op_id_parts(ev.op);
        match ev.kind {
            TraceKind::OpIssue => {
                let fl = self.in_flight.entry(shard).or_insert(0);
                *fl += 1;
                if let Some(&w) = self.windows.get(&shard) {
                    if *fl > w {
                        ctx.report(
                            name,
                            ev.op,
                            ev.at,
                            format!("window overrun on shard {shard}: {fl} in flight > window {w}"),
                        );
                    }
                }
            }
            TraceKind::OpAck => {
                let fl = self.in_flight.entry(shard).or_insert(0);
                *fl = fl.saturating_sub(1);
            }
            _ => {}
        }
    }

    fn on_probe(&mut self, ctx: &mut AuditCtx<'_>, at: SimTime, probe: &Probe) {
        match *probe {
            Probe::Window { shard, window } => {
                self.windows.insert(shard, window);
            }
            Probe::PenDepth {
                shard,
                depth,
                capacity,
            } if depth > capacity => {
                ctx.report(
                    self.name(),
                    NO_OP,
                    at,
                    format!(
                        "holding pen overflow on shard {shard}: depth {depth} > capacity {capacity}"
                    ),
                );
            }
            _ => {}
        }
    }
}

/// Default bound on the write-pause window of a migration before the
/// migration auditor flags it.
pub const DEFAULT_MAX_PAUSE: SimDuration = SimDuration::from_millis(250);

#[derive(Debug)]
struct MigState {
    begin_at: SimTime,
    pen_peak: u64,
    new_epoch: Option<u64>,
}

/// Checks migration safety: no in-flight op outstanding at the cutover
/// (nothing acked can be lost), the write-pause window stays under a
/// configurable bound, and by the time the migration ends the new epoch
/// has reissued at least as many ops as the pen held at cutover (no
/// penned op silently dropped).
#[derive(Debug)]
pub struct MigrationAuditor {
    max_pause: SimDuration,
    issued: BTreeMap<(u32, u64), u64>,
    acked: BTreeMap<(u32, u64), u64>,
    active_epoch: BTreeMap<u32, u64>,
    migrating: BTreeMap<u32, MigState>,
}

impl Default for MigrationAuditor {
    fn default() -> Self {
        MigrationAuditor::with_max_pause(DEFAULT_MAX_PAUSE)
    }
}

impl MigrationAuditor {
    /// A migration auditor flagging pauses longer than `max_pause`.
    pub fn with_max_pause(max_pause: SimDuration) -> Self {
        MigrationAuditor {
            max_pause,
            issued: BTreeMap::new(),
            acked: BTreeMap::new(),
            active_epoch: BTreeMap::new(),
            migrating: BTreeMap::new(),
        }
    }
}

impl Auditor for MigrationAuditor {
    fn name(&self) -> &'static str {
        "migration"
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&[
            "op_issue",
            "op_ack",
            "migrate_begin",
            "migrate_cutover",
            "migrate_end",
        ])
    }

    fn on_event(&mut self, ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::OpIssue if ev.op != NO_OP => {
                let (shard, epoch, _) = op_id_parts(ev.op);
                *self.issued.entry((shard, epoch)).or_insert(0) += 1;
                let e = self.active_epoch.entry(shard).or_insert(epoch);
                *e = (*e).max(epoch);
            }
            TraceKind::OpAck if ev.op != NO_OP => {
                let (shard, epoch, _) = op_id_parts(ev.op);
                *self.acked.entry((shard, epoch)).or_insert(0) += 1;
            }
            TraceKind::MigrateBegin { shard } => {
                self.migrating.insert(
                    shard,
                    MigState {
                        begin_at: ev.at,
                        pen_peak: 0,
                        new_epoch: None,
                    },
                );
            }
            TraceKind::MigrateCutover { shard, epoch } => {
                if let Some(st) = self.migrating.get_mut(&shard) {
                    let pause = ev.at.since(st.begin_at);
                    if pause > self.max_pause {
                        ctx.report(
                            "migration",
                            NO_OP,
                            ev.at,
                            format!(
                                "pause window {pause} on shard {shard} exceeds bound {}",
                                self.max_pause
                            ),
                        );
                    }
                    let old = self.active_epoch.get(&shard).copied().unwrap_or(0);
                    let outstanding = self.issued.get(&(shard, old)).copied().unwrap_or(0)
                        - self.acked.get(&(shard, old)).copied().unwrap_or(0);
                    if outstanding != 0 {
                        ctx.report(
                            "migration",
                            NO_OP,
                            ev.at,
                            format!(
                                "{outstanding} in-flight op(s) on shard {shard} epoch {old} \
                                 lost at cutover to epoch {epoch}"
                            ),
                        );
                    }
                    st.new_epoch = Some(epoch);
                }
                self.active_epoch.insert(shard, epoch);
            }
            TraceKind::MigrateEnd { shard, .. } => {
                if let Some(st) = self.migrating.remove(&shard) {
                    if let Some(ne) = st.new_epoch {
                        let reissued = self.issued.get(&(shard, ne)).copied().unwrap_or(0);
                        if reissued < st.pen_peak {
                            ctx.report(
                                "migration",
                                NO_OP,
                                ev.at,
                                format!(
                                    "penned op dropped on shard {shard}: only {reissued} \
                                     reissued on epoch {ne} of {} penned at cutover",
                                    st.pen_peak
                                ),
                            );
                        }
                    }
                }
            }
            _ => {}
        }
    }

    fn on_probe(&mut self, _ctx: &mut AuditCtx<'_>, _at: SimTime, probe: &Probe) {
        if let Probe::PenDepth { shard, depth, .. } = *probe {
            if let Some(st) = self.migrating.get_mut(&shard) {
                st.pen_peak = st.pen_peak.max(depth);
            }
        }
    }
}

#[derive(Debug, Default)]
struct TxnState {
    applied: u64,
    locks: Vec<(u32, u32)>,
}

/// Checks transactional atomicity and isolation from the txn lifecycle
/// probes ([`Probe::TxnBegin`] .. [`Probe::TxnAbort`]):
///
/// * a committed txn applied exactly the writes it staged (a dropped write
///   is blamed on the txn that committed without it);
/// * an aborted txn applied none — aborts leave no residue;
/// * a write is applied only while its txn holds the covering lock site,
///   and no two txns hold the same site at once — so no committed txn can
///   observe another's partial writes;
/// * every lock a txn acquired is released by the time it reports
///   committed or aborted (no lock-word leak);
/// * txn phase spans pair up: every [`TraceKind::TxnPhaseBegin`] closes
///   with a matching [`TraceKind::TxnPhaseEnd`] before the next opens, so
///   downstream phase attribution tiles without guesswork.
#[derive(Debug, Default)]
pub struct TxnAuditor {
    /// Lock site → holding txn.
    held: BTreeMap<(u32, u32), u64>,
    /// Live txns.
    txns: BTreeMap<u64, TxnState>,
    /// Txn → phase code of its currently open trace span.
    phase: BTreeMap<u64, u8>,
}

impl TxnAuditor {
    fn finish(&mut self, ctx: &mut AuditCtx<'_>, at: SimTime, txn: u64) -> TxnState {
        let st = self.txns.remove(&txn).unwrap_or_default();
        for site in &st.locks {
            ctx.report(
                "txn",
                NO_OP,
                at,
                format!(
                    "lock leak: txn {txn} finished still holding lock {} on shard {}",
                    site.1, site.0
                ),
            );
            self.held.remove(site);
        }
        st
    }
}

impl Auditor for TxnAuditor {
    fn name(&self) -> &'static str {
        "txn"
    }

    fn kinds(&self) -> KindSet {
        KindSet::of(&["txn_phase_begin", "txn_phase_end"])
    }

    fn on_event(&mut self, ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
        match ev.kind {
            TraceKind::TxnPhaseBegin { txn, phase, .. } => {
                if let Some(open) = self.phase.insert(txn, phase) {
                    ctx.report(
                        "txn",
                        ev.op,
                        ev.at,
                        format!(
                            "phase pairing: txn {txn} opened {} while {} is still open",
                            txn_phase_label(phase),
                            txn_phase_label(open)
                        ),
                    );
                }
            }
            TraceKind::TxnPhaseEnd { txn, phase, .. } => match self.phase.remove(&txn) {
                Some(open) if open == phase => {}
                Some(open) => ctx.report(
                    "txn",
                    ev.op,
                    ev.at,
                    format!(
                        "phase pairing: txn {txn} closed {} but {} is open",
                        txn_phase_label(phase),
                        txn_phase_label(open)
                    ),
                ),
                None => ctx.report(
                    "txn",
                    ev.op,
                    ev.at,
                    format!(
                        "phase pairing: txn {txn} closed {} with no span open",
                        txn_phase_label(phase)
                    ),
                ),
            },
            _ => {}
        }
    }

    fn on_probe(&mut self, ctx: &mut AuditCtx<'_>, at: SimTime, probe: &Probe) {
        match *probe {
            Probe::TxnBegin { txn } => {
                let reused = self.txns.insert(txn, TxnState::default()).is_some();
                if reused {
                    ctx.report("txn", NO_OP, at, format!("txn id {txn} reused while live"));
                }
            }
            Probe::TxnLock { txn, shard, lock } => {
                let site = (shard, lock);
                if let Some(&holder) = self.held.get(&site) {
                    ctx.report(
                        "txn",
                        NO_OP,
                        at,
                        format!(
                            "isolation: txn {txn} acquired lock {lock} on shard {shard} \
                             already held by txn {holder}"
                        ),
                    );
                }
                self.held.insert(site, txn);
                self.txns.entry(txn).or_default().locks.push(site);
            }
            Probe::TxnUnlock { txn, shard, lock } => {
                let site = (shard, lock);
                let st = self.txns.entry(txn).or_default();
                match st.locks.iter().position(|s| *s == site) {
                    Some(i) => {
                        st.locks.swap_remove(i);
                        self.held.remove(&site);
                    }
                    None => ctx.report(
                        "txn",
                        NO_OP,
                        at,
                        format!("txn {txn} released lock {lock} on shard {shard} it never held"),
                    ),
                }
            }
            Probe::TxnWrite { txn, shard, lock } => {
                let site = (shard, lock);
                let st = self.txns.entry(txn).or_default();
                st.applied += 1;
                if !st.locks.contains(&site) {
                    ctx.report(
                        "txn",
                        NO_OP,
                        at,
                        format!(
                            "isolation: txn {txn} applied a write to shard {shard} without \
                             holding lock {lock}"
                        ),
                    );
                }
            }
            Probe::TxnCommit { txn, writes } => {
                let st = self.finish(ctx, at, txn);
                if st.applied != writes {
                    ctx.report(
                        "txn",
                        NO_OP,
                        at,
                        format!(
                            "atomicity: txn {txn} committed with {} of {writes} staged \
                             write(s) applied",
                            st.applied
                        ),
                    );
                }
            }
            Probe::TxnAbort { txn } => {
                let st = self.finish(ctx, at, txn);
                if st.applied != 0 {
                    ctx.report(
                        "txn",
                        NO_OP,
                        at,
                        format!(
                            "atomicity: aborted txn {txn} left residue — {} write(s) applied",
                            st.applied
                        ),
                    );
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Streaming health / SLO tracking
// ---------------------------------------------------------------------------

/// Health classification of one shard against its [`SloConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// Sliding-window latency within the SLO and acks flowing.
    Healthy = 0,
    /// Window p50 or p99 above the SLO threshold.
    Degraded = 1,
    /// Ops in flight but no ack for longer than the stall bound.
    Stalled = 2,
}

/// The health state labels, indexed by [`HealthState::code`]: the closed
/// set of `health.shards[].state` in reports.
pub const STATE_LABELS: [&str; 3] = ["healthy", "degraded", "stalled"];

impl HealthState {
    /// Stable lowercase name used in JSON exports.
    pub fn label(self) -> &'static str {
        STATE_LABELS[self as usize]
    }

    /// Numeric code carried in [`TraceKind::HealthBreach`].
    pub fn code(self) -> u8 {
        self as u8
    }
}

/// Service-level objective thresholds for the [`HealthMonitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SloConfig {
    /// Width of one sliding-window bucket.
    pub bucket: SimDuration,
    /// Number of buckets in the sliding window (window span =
    /// `bucket × buckets`).
    pub buckets: usize,
    /// Window p50 above this ⇒ [`HealthState::Degraded`].
    pub p50_max: SimDuration,
    /// Window p99 above this ⇒ [`HealthState::Degraded`].
    pub p99_max: SimDuration,
    /// No ack for this long while ops are in flight ⇒
    /// [`HealthState::Stalled`].
    pub stall_after: SimDuration,
}

impl Default for SloConfig {
    fn default() -> Self {
        SloConfig {
            bucket: SimDuration::from_micros(50),
            buckets: 8,
            p50_max: SimDuration::from_micros(50),
            p99_max: SimDuration::from_micros(200),
            stall_after: SimDuration::from_micros(500),
        }
    }
}

/// One health-state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthEvent {
    /// When the transition was detected (a [`HealthMonitor::tick`] time).
    pub at: SimTime,
    /// The shard that changed state.
    pub shard: u32,
    /// State before the transition.
    pub from: HealthState,
    /// State after the transition.
    pub to: HealthState,
}

#[derive(Debug)]
struct ShardTrack {
    /// The acks of the sliding window, oldest first: `(bucket index,
    /// latency ns)`.
    window: VecDeque<(u64, u64)>,
    /// Every ack's latency.
    overall: Latencies,
    state: HealthState,
    acks: u64,
    issued: u64,
    last_progress: SimTime,
    breaches: u64,
    /// First time the shard was seen (throughput interval anchor).
    born: SimTime,
    /// Latest holding-pen depth reported via
    /// [`HealthMonitor::record_pen_depth`].
    pen: u64,
    /// `(time, cumulative acks)` of the previous series sample.
    last_sample: Option<(SimTime, u64)>,
    /// Windowed telemetry ring, oldest point evicted past the cap.
    series: VecDeque<SeriesPoint>,
}

impl ShardTrack {
    fn new(at: SimTime) -> Self {
        ShardTrack {
            window: VecDeque::new(),
            overall: Latencies::new(),
            state: HealthState::Healthy,
            acks: 0,
            issued: 0,
            last_progress: at,
            breaches: 0,
            born: at,
            pen: 0,
            last_sample: None,
            series: VecDeque::new(),
        }
    }

    /// Records an ack in bucket `idx`. Acks come in time order and no
    /// tick precedes one, so an ack `buckets` or more buckets older than
    /// `idx` falls in no later window and goes.
    fn record(&mut self, idx: u64, lat: SimDuration, buckets: u64) {
        while self
            .window
            .front()
            .is_some_and(|&(i, _)| i + buckets <= idx)
        {
            self.window.pop_front();
        }
        self.window.push_back((idx, lat.as_nanos()));
        self.overall.record(lat);
    }

    /// The sorted latencies of the `buckets` buckets ending at `cur_idx`.
    fn window(&self, cur_idx: u64, buckets: u64) -> Vec<u64> {
        let lo = cur_idx.saturating_sub(buckets - 1);
        let mut lat: Vec<u64> = self
            .window
            .iter()
            .filter(|&&(i, _)| (lo..=cur_idx).contains(&i))
            .map(|&(_, ns)| ns)
            .collect();
        lat.sort_unstable();
        lat
    }
}

/// Per-shard health summary row (see [`HealthSummary`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: u32,
    /// Health state at summary time.
    pub state: HealthState,
    /// Total acks observed.
    pub acks: u64,
    /// Cumulative ack-latency p50.
    pub p50: SimDuration,
    /// Cumulative ack-latency p99.
    pub p99: SimDuration,
    /// Transitions into a non-healthy state.
    pub breaches: u64,
}

/// Serialisable health block for bench reports: per-shard states and
/// latency, total SLO breaches, and the audit violation total (filled in
/// by the bench from its [`Audit`] handle).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HealthSummary {
    /// Total invariant violations ([`Audit::violation_count`]).
    pub violations: u64,
    /// Total transitions into a non-healthy state, across shards.
    pub breaches: u64,
    /// Per-shard rows, shard-ordered.
    pub shards: Vec<ShardHealth>,
}

impl HealthSummary {
    /// The `health` block [`HealthSummary::write_fields`] writes. Its rule:
    /// zero invariant violations, since a violation means an auditor
    /// watched the run break one of the paper's guarantees.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("violations", Shape::Count),
            req("breaches", Shape::Count),
            req(
                "shards",
                Shape::Arr(&Shape::Obj(
                    &[
                        req("shard", Shape::Count),
                        req("state", Shape::Label(&STATE_LABELS)),
                        req("acks", Shape::Count),
                        req("p50_ns", Shape::Count),
                        req("p99_ns", Shape::Count),
                        req("breaches", Shape::Count),
                    ],
                    None,
                )),
            ),
        ],
        Some(
            |h, _| match h.get("violations").and_then(JsonValue::as_u64) {
                Some(0) => Ok(()),
                n => Err(format!(
                    "{} invariant violation(s) — an auditor caught the run misbehaving",
                    n.unwrap_or_default()
                )),
            },
        ),
    );

    /// Writes the block as fields of an already-open JSON object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("violations", self.violations);
        w.field_u64("breaches", self.breaches);
        w.begin_arr_field("shards");
        for s in &self.shards {
            w.begin_obj();
            w.field_u64("shard", s.shard as u64);
            w.field_str("state", s.state.label());
            w.field_u64("acks", s.acks);
            w.field_u64("p50_ns", s.p50.as_nanos());
            w.field_u64("p99_ns", s.p99.as_nanos());
            w.field_u64("breaches", s.breaches);
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
}

/// [`SeriesSummary::SHAPE`]'s rule.
fn series_rule(se: &JsonValue, path: &str) -> Result<(), String> {
    for (i, shard) in se.items("shards").iter().enumerate() {
        let mut prev: Option<u64> = None;
        for (j, p) in shard.items("points").iter().enumerate() {
            let at = || join(path, &format!("shards[{i}].points[{j}]"));
            let t = p
                .get("t_ns")
                .and_then(JsonValue::as_u64)
                .unwrap_or_default();
            if let Some(prev) = prev.filter(|&prev| t <= prev) {
                return Err(format!(
                    "{}.t_ns={t} is not strictly after the previous sample at {prev}",
                    at()
                ));
            }
            prev = Some(t);
            let ops = p.get("ops_per_sec").and_then(JsonValue::as_f64);
            if let Some(ops) = ops.filter(|&ops| ops < 0.0) {
                return Err(format!("{}.ops_per_sec = {ops} is negative", at()));
            }
        }
    }
    Ok(())
}

/// One sampled point of a shard's windowed telemetry series, taken at a
/// [`HealthMonitor::tick`] boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesPoint {
    /// Sample time (the tick time).
    pub at: SimTime,
    /// Acks per second over the interval since the previous point.
    pub ops_per_sec: f64,
    /// Sliding-window ack-latency p50 at sample time.
    pub p50: SimDuration,
    /// Sliding-window ack-latency p99 at sample time.
    pub p99: SimDuration,
    /// Window occupancy: ops issued but not yet acked at sample time.
    pub inflight: u64,
    /// Latest holding-pen depth reported via
    /// [`HealthMonitor::record_pen_depth`] (0 when never reported).
    pub pen: u64,
}

/// One shard's windowed telemetry series (time-ascending, strictly
/// increasing timestamps; the ring evicts the oldest point past the cap).
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSeries {
    /// Shard index.
    pub shard: u32,
    /// The sampled points, oldest first.
    pub points: Vec<SeriesPoint>,
}

/// Serialisable `series` block for bench reports: per-shard windowed
/// telemetry sampled at [`HealthMonitor::tick`] boundaries — the substrate
/// an SLO-driven placement planner watches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SeriesSummary {
    /// The monitor's sliding-window bucket width (context for readers).
    pub bucket: SimDuration,
    /// Per-shard series, shard-ordered.
    pub shards: Vec<MetricSeries>,
}

impl SeriesSummary {
    /// The `series` block [`SeriesSummary::write_fields`] writes. Its rule:
    /// each shard's sample times strictly increase and its rates are not
    /// negative.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("bucket_ns", Shape::Count),
            req(
                "shards",
                Shape::Arr(&Shape::Obj(
                    &[
                        req("shard", Shape::Count),
                        req(
                            "points",
                            Shape::Arr(&Shape::Obj(
                                &[
                                    req("t_ns", Shape::Count),
                                    req("ops_per_sec", Shape::Number),
                                    req("p50_ns", Shape::Count),
                                    req("p99_ns", Shape::Count),
                                    req("inflight", Shape::Count),
                                    req("pen", Shape::Count),
                                ],
                                None,
                            )),
                        ),
                    ],
                    None,
                )),
            ),
        ],
        Some(series_rule),
    );

    /// Writes the block as fields of an already-open JSON object.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_u64("bucket_ns", self.bucket.as_nanos());
        w.begin_arr_field("shards");
        for s in &self.shards {
            w.begin_obj();
            w.field_u64("shard", s.shard as u64);
            w.begin_arr_field("points");
            for p in &s.points {
                w.begin_obj();
                w.field_u64("t_ns", p.at.as_nanos());
                w.field_f64("ops_per_sec", p.ops_per_sec);
                w.field_u64("p50_ns", p.p50.as_nanos());
                w.field_u64("p99_ns", p.p99.as_nanos());
                w.field_u64("inflight", p.inflight);
                w.field_u64("pen", p.pen);
                w.end_obj();
            }
            w.end_arr();
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

    /// The series as Perfetto counter-track samples
    /// (`series.shard{N}.{ops_per_sec,p99_ns,inflight,pen}`), ready to
    /// append to a [`crate::simprof::chrome_trace_with_counters`] export.
    pub fn counter_samples(&self) -> Vec<crate::simprof::CounterSample> {
        let mut out = Vec::new();
        for s in &self.shards {
            for p in &s.points {
                for (key, value) in [
                    ("ops_per_sec", p.ops_per_sec),
                    ("p99_ns", p.p99.as_nanos() as f64),
                    ("inflight", p.inflight as f64),
                    ("pen", p.pen as f64),
                ] {
                    out.push(crate::simprof::CounterSample {
                        at: p.at,
                        track: format!("series.shard{}.{key}", s.shard),
                        value,
                    });
                }
            }
        }
        out
    }
}

/// Default cap on retained series points per shard; the ring evicts the
/// oldest point beyond it.
pub const SERIES_CAP: usize = 512;

#[derive(Debug)]
struct HealthInner {
    slo: SloConfig,
    tracer: Tracer,
    shards: BTreeMap<u32, ShardTrack>,
    events: Vec<HealthEvent>,
    series_cap: usize,
}

impl HealthInner {
    fn track(&mut self, shard: u32, at: SimTime) -> &mut ShardTrack {
        self.shards
            .entry(shard)
            .or_insert_with(|| ShardTrack::new(at))
    }
}

/// Streaming per-shard health monitor.
///
/// Benches feed it issues and acks ([`HealthMonitor::record_issue`],
/// [`HealthMonitor::record_ack`]) and call [`HealthMonitor::tick`] on
/// their sampling cadence; the monitor classifies each shard against the
/// [`SloConfig`] over a sliding window of ack latencies and emits
/// every state transition as a [`TraceKind::HealthBreach`] instant
/// through the attached tracer — Perfetto shows breaches inline with the
/// op spans and counter tracks. Each tick also samples one
/// [`SeriesPoint`] per shard (throughput, window p50/p99, occupancy, pen
/// depth) into a bounded [`MetricSeries`] ring.
///
/// The monitor is a cheaply clonable shared handle (like [`Tracer`] and
/// [`Audit`]): drivers embedded in the simulated cluster record
/// issues/acks through their clone while the bench loop ticks and
/// summarises through another. It is a pure observer — it never feeds
/// the event queue or the RNG.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    inner: Rc<RefCell<HealthInner>>,
}

impl HealthMonitor {
    /// A monitor with the given SLO thresholds and no tracer attached.
    pub fn new(slo: SloConfig) -> Self {
        assert!(slo.buckets > 0, "health window needs at least one bucket");
        assert!(
            slo.bucket > SimDuration::ZERO,
            "health bucket width must be non-zero"
        );
        HealthMonitor {
            inner: Rc::new(RefCell::new(HealthInner {
                slo,
                tracer: Tracer::disabled(),
                shards: BTreeMap::new(),
                events: Vec::new(),
                series_cap: SERIES_CAP,
            })),
        }
    }

    /// Attaches a tracer; subsequent state transitions emit
    /// [`TraceKind::HealthBreach`] instants through it.
    pub fn set_tracer(&self, tracer: Tracer) {
        self.inner.borrow_mut().tracer = tracer;
    }

    /// Records one issued op on `shard` (for stall detection).
    pub fn record_issue(&self, at: SimTime, shard: u32) {
        self.inner.borrow_mut().track(shard, at).issued += 1;
    }

    /// Records one acked op on `shard` with its end-to-end latency.
    pub fn record_ack(&self, at: SimTime, shard: u32, latency: SimDuration) {
        let mut inner = self.inner.borrow_mut();
        let idx = at.as_nanos() / inner.slo.bucket.as_nanos();
        let buckets = inner.slo.buckets as u64;
        let tr = inner.track(shard, at);
        tr.acks += 1;
        tr.last_progress = at;
        tr.record(idx, latency, buckets);
    }

    /// Records `shard`'s current holding-pen depth; the latest value is
    /// sampled into the shard's series at the next [`HealthMonitor::tick`].
    pub fn record_pen_depth(&self, at: SimTime, shard: u32, depth: u64) {
        self.inner.borrow_mut().track(shard, at).pen = depth;
    }

    /// Re-evaluates every shard's state at `at`, recording transitions
    /// and emitting breach instants, then samples one series point per
    /// shard. Call on the bench sampling cadence. Repeated ticks at the
    /// same instant re-evaluate state but sample no duplicate point, so
    /// per-shard series timestamps are strictly increasing.
    pub fn tick(&self, at: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let cur_idx = at.as_nanos() / inner.slo.bucket.as_nanos();
        let (slo, series_cap) = (inner.slo, inner.series_cap);
        let mut transitions = Vec::new();
        for (&shard, tr) in &mut inner.shards {
            let win = tr.window(cur_idx, slo.buckets as u64);
            let at_q = |num, den| SimDuration::from_nanos(quantile(&win, num, den));
            let (p50, p99) = (at_q(1, 2), at_q(99, 100));
            let next = if tr.issued > tr.acks && at.since(tr.last_progress) > slo.stall_after {
                HealthState::Stalled
            } else if !win.is_empty() && (p99 > slo.p99_max || p50 > slo.p50_max) {
                HealthState::Degraded
            } else {
                HealthState::Healthy
            };
            if next != tr.state {
                if next != HealthState::Healthy {
                    tr.breaches += 1;
                }
                transitions.push(HealthEvent {
                    at,
                    shard,
                    from: tr.state,
                    to: next,
                });
                tr.state = next;
            }
            let (prev_at, prev_acks) = tr.last_sample.unwrap_or((tr.born, 0));
            if at > prev_at {
                let ops_per_sec =
                    (tr.acks - prev_acks) as f64 / at.since(prev_at).as_secs_f64().max(1e-12);
                tr.last_sample = Some((at, tr.acks));
                if tr.series.len() >= series_cap {
                    tr.series.pop_front();
                }
                tr.series.push_back(SeriesPoint {
                    at,
                    ops_per_sec,
                    p50,
                    p99,
                    inflight: tr.issued.saturating_sub(tr.acks),
                    pen: tr.pen,
                });
            }
        }
        for t in transitions {
            inner.tracer.emit(
                t.at,
                NO_NODE,
                NO_OP,
                TraceKind::HealthBreach {
                    shard: t.shard,
                    state: t.to.code(),
                },
            );
            inner.events.push(t);
        }
    }

    /// All recorded state transitions, in detection order.
    pub fn events(&self) -> Vec<HealthEvent> {
        self.inner.borrow().events.clone()
    }

    /// Current state of `shard` ([`HealthState::Healthy`] if the shard
    /// has never been seen).
    pub fn state(&self, shard: u32) -> HealthState {
        self.inner
            .borrow()
            .shards
            .get(&shard)
            .map_or(HealthState::Healthy, |t| t.state)
    }

    /// Snapshot of the health block (with `violations` left at zero for
    /// the caller to fill from its [`Audit`] handle).
    pub fn summary(&self) -> HealthSummary {
        let inner = self.inner.borrow();
        let mut out = HealthSummary::default();
        for (&shard, tr) in &inner.shards {
            let overall = tr.overall.summary();
            out.breaches += tr.breaches;
            out.shards.push(ShardHealth {
                shard,
                state: tr.state,
                acks: tr.acks,
                p50: overall.p50,
                p99: overall.p99,
                breaches: tr.breaches,
            });
        }
        out
    }

    /// Snapshot of the windowed telemetry series of every shard (the
    /// `series` block of bench reports).
    pub fn series(&self) -> SeriesSummary {
        let inner = self.inner.borrow();
        SeriesSummary {
            bucket: inner.slo.bucket,
            shards: inner
                .shards
                .iter()
                .map(|(&shard, tr)| MetricSeries {
                    shard,
                    points: tr.series.iter().cloned().collect(),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, node: u32, op: u64, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_nanos(ns),
            node,
            op,
            kind,
        }
    }

    #[test]
    fn op_id_round_trips_and_aligns() {
        let base = op_id_base(3, 7);
        assert_eq!(op_id_parts(base), (3, 7, 0));
        assert_eq!(op_id_parts(base + 41), (3, 7, 41));
        // Epoch-qualified bases stay aligned to power-of-two meta rings.
        assert_eq!(base % 64, 0);
        assert_eq!(op_id_base(0, 0), 0);
    }

    #[test]
    #[should_panic(expected = "epoch")]
    fn op_id_base_rejects_oversized_epoch() {
        op_id_base(0, EPOCH_GEN_MAX + 1);
    }

    #[test]
    fn disabled_audit_is_a_noop() {
        let a = Audit::disabled();
        assert!(!a.is_enabled());
        a.on_event(&ev(0, 0, 1, TraceKind::OpIssue));
        a.probe(
            SimTime::ZERO,
            Probe::AckDurability {
                op: 1,
                node: 0,
                durable: false,
            },
        );
        assert_eq!(a.violation_count(), 0);
        assert!(a.violations().is_empty());
        assert!(a.report().is_empty());
        let mut reg = MetricsRegistry::new();
        a.export_into(&mut reg, "audit");
        assert_eq!(reg.counter("audit.violations"), None);
    }

    /// A clean single-shard stream: issues and acks in order, CQEs after
    /// issue, all durable. The standard set must stay silent.
    #[test]
    fn clean_stream_reports_zero_violations() {
        let a = Audit::standard();
        a.probe(
            SimTime::ZERO,
            Probe::Window {
                shard: 0,
                window: 4,
            },
        );
        for seq in 0..8u64 {
            let op = op_id_base(0, 0) + seq;
            let t = 100 * seq;
            a.on_event(&ev(t, 0, op, TraceKind::OpIssue));
            a.on_event(&ev(t + 30, 1, op, TraceKind::Cqe { cq: 0, ok: true }));
            a.on_event(&ev(t + 60, 0, op, TraceKind::OpAck));
            a.probe(
                SimTime::from_nanos(t + 60),
                Probe::AckDurability {
                    op,
                    node: 1,
                    durable: true,
                },
            );
        }
        assert_eq!(a.violation_count(), 0, "report:\n{}", a.report());
    }

    /// Mutation: suppress the flush, so the ack-path probe observes
    /// volatile bytes. The durability auditor must fire with the op id.
    #[test]
    fn durability_auditor_detects_unflushed_ack() {
        let a = Audit::standard();
        let op = op_id_base(0, 0);
        a.on_event(&ev(0, 0, op, TraceKind::OpIssue));
        a.on_event(&ev(500, 0, op, TraceKind::OpAck));
        a.probe(
            SimTime::from_nanos(500),
            Probe::AckDurability {
                op,
                node: 2,
                durable: false,
            },
        );
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "durability");
        assert_eq!(vs[0].op, op);
        assert_eq!(vs[0].at, SimTime::from_nanos(500));
        assert!(vs[0].detail.contains("node 2"));
        // The causal excerpt carries the op's trace tail.
        assert!(vs[0]
            .excerpt
            .iter()
            .any(|e| matches!(e.kind, TraceKind::OpIssue)));
    }

    /// Mutation: swap the completion order of two generations. The chain
    /// auditor must flag the early ack by its op id.
    #[test]
    fn chain_order_auditor_detects_swapped_acks() {
        let a = Audit::standard();
        let base = op_id_base(1, 0);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(10, 0, base + 1, TraceKind::OpIssue));
        // Generation 1 acks before generation 0: out of order.
        a.on_event(&ev(200, 0, base + 1, TraceKind::OpAck));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "chain_order");
        assert_eq!(vs[0].op, base + 1);
        assert!(vs[0].detail.contains("ack out of order"));
        assert!(vs[0].detail.contains("expected seq 0, got 1"));
    }

    /// Mutation: a CQE delivered before its op was issued.
    #[test]
    fn chain_order_auditor_detects_cqe_before_issue() {
        let a = Audit::standard();
        let op = op_id_base(0, 2);
        a.on_event(&ev(1000, 0, op, TraceKind::OpIssue));
        // A replayed CQE stamped before the issue.
        a.on_event(&ev(900, 1, op, TraceKind::Cqe { cq: 3, ok: true }));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].op, op);
        assert!(vs[0].detail.contains("precedes"));
    }

    /// Mutation: an ack for a sequence that was never issued (and lies
    /// past every issued one). Exactly one violation, the missing issue:
    /// the ack itself arrives in order.
    #[test]
    fn chain_order_auditor_detects_ack_of_never_issued_op() {
        let a = Audit::standard();
        let base = op_id_base(2, 1);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(100, 0, base, TraceKind::OpAck));
        a.on_event(&ev(200, 0, base + 1, TraceKind::OpAck));
        let vs = a.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!((vs[0].auditor, vs[0].op), ("chain_order", base + 1));
        assert_eq!(vs[0].detail, "acked op was never issued on shard 2 epoch 1");
    }

    /// Mutation: an issue that skips ahead of the next expected sequence.
    /// Exactly one violation; the skipped sequence stays unissued, so a
    /// completion for it is not checked against any issue time.
    #[test]
    fn chain_order_auditor_detects_issue_skipping_ahead() {
        let a = Audit::standard();
        let base = op_id_base(1, 0);
        a.on_event(&ev(1000, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(1010, 0, base + 2, TraceKind::OpIssue));
        a.on_event(&ev(5, 1, base + 1, TraceKind::Cqe { cq: 0, ok: true }));
        a.on_event(&ev(1500, 1, base + 2, TraceKind::Cqe { cq: 0, ok: true }));
        let vs = a.violations();
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!((vs[0].auditor, vs[0].op), ("chain_order", base + 2));
        assert_eq!(
            vs[0].detail,
            "issue out of order on shard 1 epoch 0: expected seq 1, got 2"
        );
    }

    /// Untracked CQEs (pre-posted RECVs completing with wr_id 0 before
    /// the matching generation is issued) must not false-positive.
    #[test]
    fn chain_order_auditor_ignores_untracked_cqes() {
        let a = Audit::standard();
        a.on_event(&ev(5, 0, 0, TraceKind::Cqe { cq: 0, ok: true }));
        a.on_event(&ev(10, 0, op_id_base(0, 0), TraceKind::OpIssue));
        assert_eq!(a.violation_count(), 0);
    }

    /// Mutation: issue window + 1 ops with no acks. The flow-control
    /// auditor must flag the overflowing issue.
    #[test]
    fn flow_control_auditor_detects_window_overrun() {
        let a = Audit::standard();
        a.probe(
            SimTime::ZERO,
            Probe::Window {
                shard: 2,
                window: 2,
            },
        );
        let base = op_id_base(2, 0);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(10, 0, base + 1, TraceKind::OpIssue));
        assert_eq!(a.violation_count(), 0);
        a.on_event(&ev(20, 0, base + 2, TraceKind::OpIssue));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "flow_control");
        assert_eq!(vs[0].op, base + 2);
        assert!(vs[0].detail.contains("3 in flight > window 2"));
    }

    /// Mutation: overfill the migration holding pen.
    #[test]
    fn flow_control_auditor_detects_pen_overflow() {
        let a = Audit::standard();
        a.probe(
            SimTime::from_nanos(50),
            Probe::PenDepth {
                shard: 0,
                depth: 4,
                capacity: 4,
            },
        );
        assert_eq!(a.violation_count(), 0);
        a.probe(
            SimTime::from_nanos(60),
            Probe::PenDepth {
                shard: 0,
                depth: 5,
                capacity: 4,
            },
        );
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "flow_control");
        assert!(vs[0].detail.contains("pen overflow"));
    }

    /// Mutation: cut over while an old-epoch op is still in flight.
    #[test]
    fn migration_auditor_detects_inflight_loss_at_cutover() {
        let a = Audit::standard();
        let base = op_id_base(0, 0);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(50, 0, base + 1, TraceKind::OpIssue));
        a.on_event(&ev(100, 0, base, TraceKind::OpAck));
        a.on_event(&ev(150, 0, NO_OP, TraceKind::MigrateBegin { shard: 0 }));
        a.on_event(&ev(
            200,
            0,
            NO_OP,
            TraceKind::MigrateCutover { shard: 0, epoch: 1 },
        ));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "migration");
        assert!(vs[0].detail.contains("1 in-flight op(s)"));
        assert!(vs[0].detail.contains("lost at cutover"));
    }

    /// Mutation: pen holds 3 ops at cutover but only 2 reissue on the new
    /// epoch before the migration ends — a penned op was dropped.
    #[test]
    fn migration_auditor_detects_dropped_penned_op() {
        let a = Audit::standard();
        a.on_event(&ev(0, 0, NO_OP, TraceKind::MigrateBegin { shard: 0 }));
        a.probe(
            SimTime::from_nanos(10),
            Probe::PenDepth {
                shard: 0,
                depth: 3,
                capacity: 8,
            },
        );
        a.on_event(&ev(
            100,
            0,
            NO_OP,
            TraceKind::MigrateCutover { shard: 0, epoch: 1 },
        ));
        let nb = op_id_base(0, 1);
        a.on_event(&ev(110, 0, nb, TraceKind::OpIssue));
        a.on_event(&ev(120, 0, nb + 1, TraceKind::OpIssue));
        a.on_event(&ev(
            200,
            0,
            NO_OP,
            TraceKind::MigrateEnd {
                shard: 0,
                replayed: 0,
            },
        ));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "migration");
        assert!(vs[0].detail.contains("penned op dropped"));
        assert!(vs[0].detail.contains("only 2 reissued"));
    }

    /// Mutation: the write pause exceeds the configured bound.
    #[test]
    fn migration_auditor_detects_pause_overrun() {
        let a = Audit::new(vec![Box::new(MigrationAuditor::with_max_pause(
            SimDuration::from_nanos(100),
        ))]);
        a.on_event(&ev(0, 0, NO_OP, TraceKind::MigrateBegin { shard: 1 }));
        a.on_event(&ev(
            500,
            0,
            NO_OP,
            TraceKind::MigrateCutover { shard: 1, epoch: 1 },
        ));
        a.on_event(&ev(
            510,
            0,
            NO_OP,
            TraceKind::MigrateEnd {
                shard: 1,
                replayed: 0,
            },
        ));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("pause window"));
        assert!(vs[0].detail.contains("exceeds bound"));
    }

    /// A clean migration (drained before cutover, pen fully reissued)
    /// must stay silent.
    #[test]
    fn migration_auditor_accepts_clean_cutover() {
        let a = Audit::standard();
        let base = op_id_base(0, 0);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(50, 0, base, TraceKind::OpAck));
        a.on_event(&ev(60, 0, NO_OP, TraceKind::MigrateBegin { shard: 0 }));
        a.probe(
            SimTime::from_nanos(70),
            Probe::PenDepth {
                shard: 0,
                depth: 1,
                capacity: 8,
            },
        );
        a.on_event(&ev(
            100,
            0,
            NO_OP,
            TraceKind::MigrateCutover { shard: 0, epoch: 1 },
        ));
        let nb = op_id_base(0, 1);
        a.on_event(&ev(110, 0, nb, TraceKind::OpIssue));
        a.on_event(&ev(
            150,
            0,
            NO_OP,
            TraceKind::MigrateEnd {
                shard: 0,
                replayed: 1,
            },
        ));
        a.on_event(&ev(160, 0, nb, TraceKind::OpAck));
        assert_eq!(a.violation_count(), 0, "report:\n{}", a.report());
    }

    #[test]
    fn audit_export_and_json_are_deterministic_and_idempotent() {
        let run = || {
            let a = Audit::standard();
            let op = op_id_base(0, 0);
            a.on_event(&ev(0, 0, op, TraceKind::OpIssue));
            a.probe(
                SimTime::from_nanos(10),
                Probe::AckDurability {
                    op,
                    node: 1,
                    durable: false,
                },
            );
            a
        };
        let a = run();
        assert_eq!(a.to_json(), run().to_json(), "same input, same bytes");
        assert!(a.to_json().contains("\"violations\":1"));
        assert!(a.to_json().contains("\"durability\":1"));
        assert!(a.to_json().contains("\"chain_order\":0"));
        let mut reg = MetricsRegistry::new();
        a.export_into(&mut reg, "audit");
        let once = reg.to_json();
        a.export_into(&mut reg, "audit");
        assert_eq!(reg.to_json(), once, "re-export must be idempotent");
        assert_eq!(reg.counter("audit.violations"), Some(1));
        assert_eq!(reg.counter("audit.durability.violations"), Some(1));
        assert_eq!(reg.counter("audit.migration.violations"), Some(0));
        let rep = a.report();
        assert!(rep.contains("[durability]"));
        assert!(rep.contains("shard 0, epoch 0, seq 0"));
    }

    /// Labels of the events handed to one test auditor.
    type Seen = Rc<RefCell<Vec<&'static str>>>;

    /// A test auditor that keeps the default kinds: every kind.
    struct Everything(Seen);

    impl Auditor for Everything {
        fn name(&self) -> &'static str {
            "everything"
        }

        fn on_event(&mut self, _ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
            self.0.borrow_mut().push(ev.kind.label());
        }
    }

    /// A test auditor that declares two kinds.
    struct AcksAndEnds(Seen);

    impl Auditor for AcksAndEnds {
        fn name(&self) -> &'static str {
            "acks_and_ends"
        }

        fn kinds(&self) -> KindSet {
            KindSet::of(&["op_ack", "migrate_end"])
        }

        fn on_event(&mut self, _ctx: &mut AuditCtx<'_>, ev: &TraceEvent) {
            self.0.borrow_mut().push(ev.kind.label());
        }
    }

    #[test]
    fn events_reach_only_the_auditors_that_declare_their_kind() {
        let (all, two): (Seen, Seen) = Default::default();
        let a = Audit::new(vec![
            Box::new(Everything(all.clone())),
            Box::new(AcksAndEnds(two.clone())),
        ]);
        let op = op_id_base(0, 0);
        let stream = [
            ev(0, 0, op, TraceKind::OpIssue),
            ev(5, 1, op, TraceKind::Cqe { cq: 0, ok: true }),
            ev(9, 0, op, TraceKind::OpAck),
            ev(12, 0, NO_OP, TraceKind::MigrateBegin { shard: 0 }),
            ev(
                20,
                0,
                NO_OP,
                TraceKind::MigrateEnd {
                    shard: 0,
                    replayed: 0,
                },
            ),
            ev(30, 0, op + 1, TraceKind::OpAck),
        ];
        for e in &stream {
            a.on_event(e);
        }
        let labels: Vec<&str> = stream.iter().map(|e| e.kind.label()).collect();
        assert_eq!(*all.borrow(), labels, "the default is every kind");
        assert_eq!(*two.borrow(), ["op_ack", "migrate_end", "op_ack"]);
    }

    #[test]
    #[should_panic(expected = "no trace kind is labelled \"op_nack\"")]
    fn kind_sets_reject_unknown_labels() {
        KindSet::of(&["op_ack", "op_nack"]);
    }

    /// No auditor reads `wqe_exec` or `link_deliver`, yet the excerpt
    /// history records every event, so a violation still shows the op's
    /// path through the NIC and the wire.
    #[test]
    fn violation_excerpt_keeps_the_events_no_auditor_reads() {
        let a = Audit::standard();
        let base = op_id_base(1, 0);
        a.on_event(&ev(0, 0, base, TraceKind::OpIssue));
        a.on_event(&ev(10, 0, base + 1, TraceKind::OpIssue));
        let exec = TraceKind::WqeExec {
            qp: 2,
            opcode: 1,
            bytes: 64,
        };
        a.on_event(&ev(20, 1, base + 1, exec));
        a.on_event(&ev(
            30,
            2,
            base + 1,
            TraceKind::LinkDeliver { src: 1, dst: 2 },
        ));
        // Generation 1 acks before generation 0.
        a.on_event(&ev(200, 0, base + 1, TraceKind::OpAck));
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("ack out of order"));
        let excerpt: Vec<&str> = vs[0].excerpt.iter().map(|e| e.kind.label()).collect();
        assert_eq!(excerpt, ["op_issue", "wqe_exec", "link_deliver", "op_ack"]);
    }

    #[test]
    fn tracer_tap_feeds_the_audit() {
        let audit = Audit::standard();
        // Audit-only tracer: no ring buffer, but enabled for emitters.
        let t = Tracer::disabled().with_audit(audit.clone());
        assert!(t.is_enabled());
        assert!(t.events().is_empty());
        let base = op_id_base(0, 0);
        t.emit(SimTime::ZERO, 0, base + 1, TraceKind::OpIssue);
        assert_eq!(audit.violation_count(), 1, "tap must see the bad issue");
        // Clones share the audit; a buffered tracer taps too.
        let t2 = Tracer::enabled(64).with_audit(audit.clone());
        t2.emit(SimTime::from_nanos(5), 0, base + 7, TraceKind::OpIssue);
        assert_eq!(audit.violation_count(), 2);
        assert_eq!(t2.len(), 1);
        assert!(t2.audit().is_enabled());
    }

    fn acked(h: &HealthMonitor, ns: u64, shard: u32, lat_ns: u64) {
        h.record_issue(SimTime::from_nanos(ns.saturating_sub(lat_ns)), shard);
        h.record_ack(
            SimTime::from_nanos(ns),
            shard,
            SimDuration::from_nanos(lat_ns),
        );
    }

    fn test_slo() -> SloConfig {
        SloConfig {
            bucket: SimDuration::from_nanos(1000),
            buckets: 4,
            p50_max: SimDuration::from_nanos(500),
            p99_max: SimDuration::from_nanos(900),
            stall_after: SimDuration::from_nanos(5000),
        }
    }

    #[test]
    fn health_monitor_classifies_and_recovers() {
        let h = HealthMonitor::new(test_slo());
        let tracer = Tracer::enabled(64);
        h.set_tracer(tracer.clone());

        acked(&h, 1000, 0, 100);
        h.tick(SimTime::from_nanos(1000));
        assert_eq!(h.state(0), HealthState::Healthy);
        assert!(h.events().is_empty());

        // Latency blows the p50 SLO: Degraded, with a breach instant.
        acked(&h, 2000, 0, 800);
        acked(&h, 2100, 0, 800);
        h.tick(SimTime::from_nanos(2200));
        assert_eq!(h.state(0), HealthState::Degraded);
        assert_eq!(h.events().len(), 1);
        assert_eq!(h.events()[0].to, HealthState::Degraded);
        let breach = tracer
            .events()
            .iter()
            .copied()
            .find(|e| matches!(e.kind, TraceKind::HealthBreach { .. }))
            .expect("breach instant emitted");
        assert_eq!(
            breach.kind,
            TraceKind::HealthBreach {
                shard: 0,
                state: HealthState::Degraded.code()
            }
        );

        // The window slides past the slow acks: recovery to Healthy.
        acked(&h, 9000, 0, 100);
        h.tick(SimTime::from_nanos(9000));
        assert_eq!(h.state(0), HealthState::Healthy);
        assert_eq!(h.events().len(), 2);

        // In-flight op with no progress: Stalled.
        h.record_issue(SimTime::from_nanos(9100), 0);
        h.tick(SimTime::from_nanos(20000));
        assert_eq!(h.state(0), HealthState::Stalled);
        let s = h.summary();
        assert_eq!(s.shards.len(), 1);
        assert_eq!(s.shards[0].breaches, 2, "degraded + stalled");
        assert_eq!(s.breaches, 2);
        assert_eq!(s.shards[0].acks, 4);
    }

    #[test]
    fn health_summary_is_deterministic() {
        let h = HealthMonitor::new(test_slo());
        acked(&h, 1000, 0, 100);
        acked(&h, 1100, 1, 800);
        acked(&h, 1200, 1, 800);
        h.tick(SimTime::from_nanos(1300));
        assert_eq!(h.state(1), HealthState::Degraded);

        let mut s = h.summary();
        s.violations = 3;
        let json = s.to_json();
        assert_eq!(json, {
            let mut s2 = h.summary();
            s2.violations = 3;
            s2.to_json()
        });
        assert!(json.contains("\"violations\":3"));
        assert!(json.contains("\"state\":\"degraded\""));
        assert!(json.contains("\"state\":\"healthy\""));
        assert_eq!((s.breaches, s.shards[1].breaches), (1, 1));
    }

    #[test]
    fn health_breach_instant_survives_chrome_export() {
        let h = HealthMonitor::new(test_slo());
        let tracer = Tracer::enabled(16);
        h.set_tracer(tracer.clone());
        acked(&h, 1000, 2, 800);
        acked(&h, 1050, 2, 800);
        h.tick(SimTime::from_nanos(1100));
        let json = crate::simtrace::chrome_trace_json(&tracer.events());
        assert!(json.contains("\"name\":\"health_breach\""));
        assert!(json.contains("\"shard\":2"));
    }

    /// The sliding window must actually evict old samples: with no
    /// new acks at all, a degraded shard turns healthy once the window
    /// slides past the slow samples.
    #[test]
    fn health_window_evicts_old_samples() {
        let h = HealthMonitor::new(test_slo());
        acked(&h, 1000, 0, 800);
        acked(&h, 1100, 0, 800);
        h.tick(SimTime::from_nanos(1200));
        assert_eq!(h.state(0), HealthState::Degraded);

        // No new acks, issued == acks (no stall): only the window's slide can
        // change the verdict. 4 buckets × 1000 ns have slid past t=1100.
        h.tick(SimTime::from_nanos(9000));
        assert_eq!(h.state(0), HealthState::Healthy);

        // The overall samples still remember the slow acks — only the
        // *window* evicted.
        let s = h.summary();
        assert_eq!(s.shards[0].acks, 2);
        assert!(s.shards[0].p50 >= SimDuration::from_nanos(700));
    }

    /// Window quantiles are exact order statistics over the acks of the
    /// window's buckets; the summary's are over every ack.
    #[test]
    fn health_quantiles_are_exact() {
        let h = HealthMonitor::new(test_slo());
        // Bucket 0, which the window ending in bucket 4 no longer covers.
        acked(&h, 500, 0, 5000);
        for i in 1..=100 {
            acked(&h, 4000 + i, 0, 10 * i);
        }
        h.tick(SimTime::from_nanos(4200));
        let p = &h.series().shards[0].points[0];
        assert_eq!((p.p50.as_nanos(), p.p99.as_nanos()), (500, 990));
        let s = &h.summary().shards[0];
        assert_eq!((s.p50.as_nanos(), s.p99.as_nanos()), (510, 1000));
    }

    /// A full degraded→healthy→degraded cycle records each edge exactly
    /// once, no matter how many ticks happen while a state holds.
    #[test]
    fn recovery_cycle_emits_each_edge_exactly_once() {
        let h = HealthMonitor::new(test_slo());
        acked(&h, 1000, 0, 800);
        acked(&h, 1100, 0, 800);
        for ns in [1200, 1300, 1400] {
            h.tick(SimTime::from_nanos(ns));
        }
        assert_eq!(h.events().len(), 1, "degrade edge emitted once");

        acked(&h, 9000, 0, 100);
        for ns in [9100, 9200, 9300] {
            h.tick(SimTime::from_nanos(ns));
        }
        assert_eq!(h.events().len(), 2, "recovery edge emitted once");

        acked(&h, 10_000, 0, 800);
        acked(&h, 10_100, 0, 800);
        for ns in [10_200, 10_300] {
            h.tick(SimTime::from_nanos(ns));
        }
        let evs = h.events();
        assert_eq!(evs.len(), 3, "second degrade edge emitted once");
        let edges: Vec<(HealthState, HealthState)> = evs.iter().map(|e| (e.from, e.to)).collect();
        assert_eq!(
            edges,
            vec![
                (HealthState::Healthy, HealthState::Degraded),
                (HealthState::Degraded, HealthState::Healthy),
                (HealthState::Healthy, HealthState::Degraded),
            ]
        );
        assert_eq!(
            h.summary().shards[0].breaches,
            2,
            "only degrade edges count"
        );
    }

    /// Every tick samples one series point per shard; timestamps are
    /// strictly increasing even under same-instant re-ticks, and pen
    /// depth and occupancy ride along.
    #[test]
    fn tick_samples_series_with_strict_timestamps() {
        let h = HealthMonitor::new(test_slo());
        h.record_issue(SimTime::from_nanos(500), 0);
        acked(&h, 1000, 0, 100);
        h.record_pen_depth(SimTime::from_nanos(1100), 0, 3);
        h.tick(SimTime::from_nanos(2000));
        h.tick(SimTime::from_nanos(2000)); // same instant: no new point
        acked(&h, 3000, 0, 100);
        h.tick(SimTime::from_nanos(4000));

        let s = h.series();
        assert_eq!(s.bucket, test_slo().bucket);
        assert_eq!(s.shards.len(), 1);
        let pts = &s.shards[0].points;
        assert_eq!(pts.len(), 2);
        assert!(pts[0].at < pts[1].at, "strictly increasing timestamps");
        assert_eq!(pts[0].inflight, 1, "one op issued, never acked");
        assert_eq!(pts[0].pen, 3);
        // First interval is anchored at the shard's first-seen time
        // (500 ns): 1 ack over 1.5 µs.
        assert!((pts[0].ops_per_sec - 1.0 / 1.5e-6).abs() < 1.0);
        // Second interval: 1 ack over 2 µs.
        assert!((pts[1].ops_per_sec - 1.0 / 2.0e-6).abs() < 1.0);

        let json = s.to_json();
        for key in [
            "bucket_ns",
            "t_ns",
            "ops_per_sec",
            "p50_ns",
            "p99_ns",
            "inflight",
            "pen",
        ] {
            assert!(json.contains(key), "series json missing {key}: {json}");
        }
        let tracks = s.counter_samples();
        assert!(tracks
            .iter()
            .any(|c| c.track == "series.shard0.ops_per_sec"));
        assert!(tracks.iter().any(|c| c.track == "series.shard0.pen"));
    }

    /// The series ring is bounded: past the cap the oldest point goes.
    #[test]
    fn series_ring_evicts_oldest_points() {
        let h = HealthMonitor::new(test_slo());
        acked(&h, 100, 0, 50);
        let total = SERIES_CAP + 40;
        for i in 0..total {
            h.tick(SimTime::from_nanos(1000 * (i as u64 + 1)));
        }
        let pts = &h.series().shards[0].points[..];
        assert_eq!(pts.len(), SERIES_CAP);
        // The first 40 points were evicted.
        assert_eq!(pts[0].at, SimTime::from_nanos(1000 * 41));
        assert!(pts.windows(2).all(|w| w[0].at < w[1].at));
    }

    /// Drives one well-formed txn through the probe lifecycle.
    fn run_clean_txn(a: &Audit, txn: u64, shard: u32, lock: u32) {
        a.probe(SimTime::from_nanos(0), Probe::TxnBegin { txn });
        a.probe(SimTime::from_nanos(10), Probe::TxnLock { txn, shard, lock });
        a.probe(
            SimTime::from_nanos(20),
            Probe::TxnWrite { txn, shard, lock },
        );
        a.probe(
            SimTime::from_nanos(30),
            Probe::TxnUnlock { txn, shard, lock },
        );
        a.probe(SimTime::from_nanos(40), Probe::TxnCommit { txn, writes: 1 });
    }

    /// A clean commit and a clean abort raise nothing.
    #[test]
    fn txn_auditor_accepts_clean_lifecycle() {
        let a = Audit::standard();
        run_clean_txn(&a, 7, 0, 3);
        a.probe(SimTime::from_nanos(50), Probe::TxnBegin { txn: 8 });
        a.probe(
            SimTime::from_nanos(60),
            Probe::TxnLock {
                txn: 8,
                shard: 1,
                lock: 3,
            },
        );
        a.probe(
            SimTime::from_nanos(70),
            Probe::TxnUnlock {
                txn: 8,
                shard: 1,
                lock: 3,
            },
        );
        a.probe(SimTime::from_nanos(80), Probe::TxnAbort { txn: 8 });
        assert_eq!(a.violation_count(), 0, "report:\n{}", a.report());
    }

    /// Mutation: drop one write of a committed txn — the auditor must
    /// blame the exact txn id.
    #[test]
    fn txn_auditor_detects_dropped_write() {
        let a = Audit::standard();
        a.probe(SimTime::from_nanos(0), Probe::TxnBegin { txn: 42 });
        a.probe(
            SimTime::from_nanos(10),
            Probe::TxnLock {
                txn: 42,
                shard: 0,
                lock: 1,
            },
        );
        // Staged two writes, applied only one.
        a.probe(
            SimTime::from_nanos(20),
            Probe::TxnWrite {
                txn: 42,
                shard: 0,
                lock: 1,
            },
        );
        a.probe(
            SimTime::from_nanos(30),
            Probe::TxnUnlock {
                txn: 42,
                shard: 0,
                lock: 1,
            },
        );
        a.probe(
            SimTime::from_nanos(40),
            Probe::TxnCommit { txn: 42, writes: 2 },
        );
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "txn");
        assert!(vs[0].detail.contains("atomicity"));
        assert!(vs[0].detail.contains("txn 42"), "detail: {}", vs[0].detail);
        assert!(vs[0].detail.contains("1 of 2"));
    }

    /// Mutation: leak one lock past commit — reported as a lock leak
    /// naming the txn and site.
    #[test]
    fn txn_auditor_detects_leaked_lock() {
        let a = Audit::standard();
        a.probe(SimTime::from_nanos(0), Probe::TxnBegin { txn: 9 });
        a.probe(
            SimTime::from_nanos(10),
            Probe::TxnLock {
                txn: 9,
                shard: 2,
                lock: 5,
            },
        );
        a.probe(
            SimTime::from_nanos(20),
            Probe::TxnCommit { txn: 9, writes: 0 },
        );
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].auditor, "txn");
        assert!(vs[0].detail.contains("lock leak"));
        assert!(vs[0].detail.contains("txn 9"));
        assert!(vs[0].detail.contains("lock 5 on shard 2"));
        // The leaked site is reclaimed: a later txn can use it cleanly.
        run_clean_txn(&a, 10, 2, 5);
        assert_eq!(a.violation_count(), 1);
    }

    /// Mutation: an aborted txn that already applied a write leaves
    /// residue.
    #[test]
    fn txn_auditor_detects_abort_residue() {
        let a = Audit::standard();
        a.probe(SimTime::from_nanos(0), Probe::TxnBegin { txn: 3 });
        a.probe(
            SimTime::from_nanos(10),
            Probe::TxnLock {
                txn: 3,
                shard: 0,
                lock: 0,
            },
        );
        a.probe(
            SimTime::from_nanos(20),
            Probe::TxnWrite {
                txn: 3,
                shard: 0,
                lock: 0,
            },
        );
        a.probe(
            SimTime::from_nanos(30),
            Probe::TxnUnlock {
                txn: 3,
                shard: 0,
                lock: 0,
            },
        );
        a.probe(SimTime::from_nanos(40), Probe::TxnAbort { txn: 3 });
        let vs = a.violations();
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("residue"));
        assert!(vs[0].detail.contains("txn 3"));
    }

    /// Mutation: two txns holding the same lock site at once is an
    /// isolation violation; a write without the covering lock likewise.
    #[test]
    fn txn_auditor_detects_double_hold_and_unlocked_write() {
        let a = Audit::standard();
        a.probe(SimTime::from_nanos(0), Probe::TxnBegin { txn: 1 });
        a.probe(SimTime::from_nanos(1), Probe::TxnBegin { txn: 2 });
        a.probe(
            SimTime::from_nanos(10),
            Probe::TxnLock {
                txn: 1,
                shard: 0,
                lock: 7,
            },
        );
        a.probe(
            SimTime::from_nanos(20),
            Probe::TxnLock {
                txn: 2,
                shard: 0,
                lock: 7,
            },
        );
        a.probe(
            SimTime::from_nanos(30),
            Probe::TxnWrite {
                txn: 1,
                shard: 3,
                lock: 9,
            },
        );
        let vs = a.violations();
        assert_eq!(vs.len(), 2);
        assert!(vs[0].detail.contains("already held by txn 1"));
        assert!(vs[1].detail.contains("without"));
    }

    #[test]
    fn written_blocks_match_their_declarations() {
        let us = SimDuration::from_micros;
        let health = HealthSummary {
            violations: 0,
            breaches: 1,
            shards: vec![ShardHealth {
                shard: 0,
                state: HealthState::Degraded,
                acks: 2,
                p50: us(5),
                p99: us(7),
                breaches: 1,
            }],
        };
        let point = |t: u64, inflight| SeriesPoint {
            at: SimTime::from_nanos(t),
            ops_per_sec: 1.5,
            p50: us(5),
            p99: us(7),
            inflight,
            pen: 0,
        };
        let series = SeriesSummary {
            bucket: us(50),
            shards: vec![MetricSeries {
                shard: 0,
                points: vec![point(1_000, 2), point(2_000, 0)],
            }],
        };
        for (json, shape, path) in [
            (health.to_json(), HealthSummary::SHAPE, "health"),
            (series.to_json(), SeriesSummary::SHAPE, "series"),
        ] {
            let v = crate::jsonw::parse(&json).expect("block parses");
            shape.check(&v, path).expect("writer and declaration agree");
        }
    }
}
