//! Causal tracing and unified metrics for the whole simulator stack.
//!
//! `simtrace` is the observability spine of the reproduction. Every layer
//! (NIC model, network, CPU scheduler, group-operation client) can emit
//! [`TraceEvent`]s — sim-time-stamped records carrying a causal op id — into
//! a shared, bounded ring buffer owned by a [`Tracer`] handle. From the
//! collected stream, [`op_breakdown`] rebuilds a single operation's stage
//! timeline ("where did my p999 go"), [`span_tree`] groups it per node, and
//! [`chrome_trace_json`] exports the whole run as Chrome trace-event JSON
//! that opens directly in Perfetto or `chrome://tracing`.
//!
//! Tracing is **disabled by default**: a disabled [`Tracer`] holds no
//! buffer and no audit, and [`Tracer::emit`] inlines to two `is_some`
//! checks, so the instrumented hot paths cost nothing measurable when
//! tracing is off.
//!
//! The second half of the module is [`MetricsRegistry`]: a named
//! counter/gauge/histogram store that the per-crate stats structs
//! (`FabricStats`, `NvmStats`, `SchedStats`, `LinkStats`) snapshot into, so
//! benches can serialise one uniform registry instead of four ad-hoc
//! structs.
//!
//! ```
//! use simcore::prelude::*;
//! use simcore::simtrace::{TraceKind, NO_OP};
//!
//! let tracer = Tracer::enabled(1024);
//! let t0 = SimTime::from_nanos(100);
//! tracer.emit(t0, 0, 7, TraceKind::OpIssue);
//! tracer.emit(t0 + SimDuration::from_nanos(50), 0, 7, TraceKind::MetaSend { replica: 1 });
//! tracer.emit(t0 + SimDuration::from_nanos(400), 0, 7, TraceKind::OpAck);
//!
//! let events = tracer.events();
//! let bd = simcore::simtrace::op_breakdown(&events, 7).unwrap();
//! assert_eq!(bd.total(), SimDuration::from_nanos(400));
//! let stage_sum: u64 = bd.stages.iter().map(|s| s.duration().as_nanos()).sum();
//! assert_eq!(stage_sum, bd.total().as_nanos());
//! assert_eq!(tracer.emit(t0, 0, NO_OP, TraceKind::OpAck), ());
//! ```

use crate::jsonw::JsonWriter;
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::{self, Write as _};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Sentinel op id for events that cannot be attributed to one operation
/// (e.g. responder-side cache maintenance, background link traffic).
pub const NO_OP: u64 = u64::MAX;

/// Sentinel node id for events not tied to a node.
pub const NO_NODE: u32 = u32::MAX;

/// Base of the transaction-id op space. Transaction ids are small integers
/// (0, 1, 2, …) in a counter space of their own, while op ids carry the
/// `shard | epoch | seq` encoding of `simaudit::op_id_base` — the two
/// would collide in a shared trace stream. Txn-scoped events therefore
/// carry [`txn_op_id`]`(txn)` in [`TraceEvent::op`]: bit 62 is far above
/// any real shard encoding, so the two id spaces stay disjoint.
pub const TXN_OP_BASE: u64 = 1 << 62;

/// The trace-stream op id parenting all of transaction `txn`'s phase
/// events (see [`TXN_OP_BASE`]).
pub fn txn_op_id(txn: u64) -> u64 {
    TXN_OP_BASE | txn
}

/// Phase codes carried by [`TraceKind::TxnPhaseBegin`] /
/// [`TraceKind::TxnPhaseEnd`]. The taxonomy mirrors the commit state
/// machine in `hyperloop::txn`: lock acquisition, partial-acquisition
/// undo, held-lock rollback, read validation, buffered-write apply, lock
/// release, plus the parked backoff wait between acquisition rounds.
pub const TXN_PHASE_ACQUIRE: u8 = 0;
/// Undoing a partially acquired lock (some replicas swapped, some not).
pub const TXN_PHASE_UNDO: u8 = 1;
/// Releasing every held lock after a failed acquisition round.
pub const TXN_PHASE_ROLLBACK: u8 = 2;
/// Checking every buffered read's version word.
pub const TXN_PHASE_VALIDATE: u8 = 3;
/// Writing the buffered data and version bumps.
pub const TXN_PHASE_APPLY: u8 = 4;
/// Releasing the held locks on the way to commit or abort.
pub const TXN_PHASE_RELEASE: u8 = 5;
/// Parked on the jittered backoff delay between acquisition rounds.
pub const TXN_PHASE_BACKOFF: u8 = 6;

/// Stable snake_case name of a transaction phase code.
pub fn txn_phase_label(code: u8) -> &'static str {
    match code {
        TXN_PHASE_ACQUIRE => "acquire",
        TXN_PHASE_UNDO => "undo",
        TXN_PHASE_ROLLBACK => "rollback",
        TXN_PHASE_VALIDATE => "validate",
        TXN_PHASE_APPLY => "apply",
        TXN_PHASE_RELEASE => "release",
        TXN_PHASE_BACKOFF => "backoff",
        _ => "unknown",
    }
}

/// Stable label of a commit-mode code carried by txn phase events
/// (`0` = locking, `1` = optimistic).
pub fn txn_mode_label(code: u8) -> &'static str {
    match code {
        0 => "locking",
        1 => "optimistic",
        _ => "unknown",
    }
}

/// What happened, with the per-kind payload.
///
/// Every variant is `Copy` and fixed-size so the ring buffer stays flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// NIC engine fetched a WQE descriptor from host memory.
    WqeFetch {
        /// Queue pair the WQE came from.
        qp: u32,
        /// Raw opcode byte of the fetched WQE.
        opcode: u8,
    },
    /// NIC engine started executing a WQE.
    WqeExec {
        /// Queue pair the WQE belongs to.
        qp: u32,
        /// Raw opcode byte.
        opcode: u8,
        /// Payload length in bytes.
        bytes: u64,
    },
    /// A `WAIT` WQE observed its CQ semaphore and released the chain.
    WaitRelease {
        /// Queue pair whose chain was released.
        qp: u32,
    },
    /// DMA transfer between host memory and the NIC.
    Dma {
        /// Bytes moved.
        bytes: u64,
    },
    /// A gFLUSH (0-byte READ) forced NIC-cached data down to durable media.
    GFlush {
        /// Bytes drained from the NIC volatile cache.
        bytes: u64,
        /// Number of distinct dirty ranges drained.
        ranges: u32,
    },
    /// Incoming write payload landed in the NIC volatile cache.
    CacheFill {
        /// Bytes added to the dirty set.
        bytes: u64,
    },
    /// NIC volatile cache contents were written back to durable media.
    CacheEvict {
        /// Bytes evicted.
        bytes: u64,
    },
    /// A completion queue entry was delivered.
    Cqe {
        /// Completion queue index.
        cq: u32,
        /// Whether the completion carried a success status.
        ok: bool,
    },
    /// A message was accepted onto a link's egress port.
    LinkEnqueue {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
        /// Message size in bytes.
        bytes: u64,
    },
    /// A message finished transit and was delivered to its destination.
    LinkDeliver {
        /// Source node.
        src: u32,
        /// Destination node.
        dst: u32,
    },
    /// The CPU scheduler placed a task on a core.
    Dispatch {
        /// Task id.
        task: u64,
    },
    /// The CPU scheduler preempted a running task at the end of its slice.
    Preempt {
        /// Task id.
        task: u64,
    },
    /// A group operation was issued by the client.
    OpIssue,
    /// The client posted the metadata SEND that triggers a replica's chain.
    MetaSend {
        /// Replica index the SEND targets.
        replica: u32,
    },
    /// Client-visible progress of one replica's pre-posted chain.
    ReplicaProgress {
        /// Replica index.
        replica: u32,
    },
    /// The client observed the final acknowledgement for the operation.
    OpAck,
    /// A shard migration started: writes to the shard are paused.
    MigrateBegin {
        /// The migrating shard.
        shard: u32,
    },
    /// The migrating shard's transport was atomically swapped to the new
    /// chain.
    MigrateCutover {
        /// The migrating shard.
        shard: u32,
        /// The epoch the shard serves after the swap.
        epoch: u64,
    },
    /// The migration finished: writes to the shard resumed.
    MigrateEnd {
        /// The migrating shard.
        shard: u32,
        /// Dirty ranges replayed onto the new chain (the WAL tail that
        /// raced the bulk copy).
        replayed: u64,
    },
    /// A shard's health state changed (emitted by
    /// [`crate::simaudit::HealthMonitor`]); shows up as a Perfetto
    /// instant so SLO breaches line up with the op spans around them.
    HealthBreach {
        /// The shard whose state changed.
        shard: u32,
        /// New state code ([`crate::simaudit::HealthState::code`]).
        state: u8,
    },
    /// A transaction entered a commit-pipeline phase. The event's
    /// [`TraceEvent::op`] is [`txn_op_id`]`(txn)`, so all of one txn's
    /// phase events share a single parent id in the stream. Consecutive
    /// Begin/End pairs tile the txn's lifetime exactly: a phase change
    /// emits the old phase's End and the new phase's Begin at the same
    /// instant.
    TxnPhaseBegin {
        /// Transaction id (the manager's own counter space).
        txn: u64,
        /// Commit-mode code (see [`txn_mode_label`]).
        mode: u8,
        /// Phase code (see [`txn_phase_label`]).
        phase: u8,
    },
    /// A transaction left a commit-pipeline phase (see
    /// [`TraceKind::TxnPhaseBegin`]).
    TxnPhaseEnd {
        /// Transaction id.
        txn: u64,
        /// Commit-mode code.
        mode: u8,
        /// Phase code.
        phase: u8,
    },
    /// A group op (lock gCAS, validate gCAS, apply gWRITE, …) was issued
    /// on behalf of a transaction. The event's [`TraceEvent::op`] is the
    /// *op's* id (the client generation), and the payload names the
    /// parent txn — the link that lets attribution group txn-issued ops
    /// apart from bare ops.
    TxnOp {
        /// Parent transaction id.
        txn: u64,
    },
}

/// Number of [`TraceKind`] variants: the length of [`TraceKind::ordinal`]'s
/// range, so folds can keep one slot per kind in a flat array.
pub(crate) const KIND_COUNT: usize = 23;

/// [`TraceKind::label`] by [`TraceKind::ordinal`].
const KIND_LABELS: [&str; KIND_COUNT] = [
    "wqe_fetch",
    "wqe_exec",
    "wait_release",
    "dma",
    "gflush",
    "cache_fill",
    "cache_evict",
    "cqe",
    "link_enqueue",
    "link_deliver",
    "dispatch",
    "preempt",
    "op_issue",
    "meta_send",
    "replica_progress",
    "op_ack",
    "migrate_begin",
    "migrate_cutover",
    "migrate_end",
    "health_breach",
    "txn_phase_begin",
    "txn_phase_end",
    "txn_op",
];

/// [`TraceKind::OpIssue`]'s ordinal.
pub(crate) const OP_ISSUE: usize = TraceKind::OpIssue.ordinal();
/// [`TraceKind::OpAck`]'s ordinal.
pub(crate) const OP_ACK: usize = TraceKind::OpAck.ordinal();
/// [`TraceKind::TxnPhaseBegin`]'s ordinal.
pub(crate) const TXN_PHASE_BEGIN: usize = TraceKind::TxnPhaseBegin {
    txn: 0,
    mode: 0,
    phase: 0,
}
.ordinal();

/// The stable label of the kind with ordinal `ordinal`.
pub(crate) fn kind_label(ordinal: usize) -> &'static str {
    KIND_LABELS[ordinal]
}

/// A set of trace kinds, one bit per [`TraceKind`] variant. An
/// [`Auditor`](crate::simaudit::Auditor) declares the kinds it reads with
/// one, and the audit tap hands each event only to the auditors whose set
/// holds its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSet(u32);

impl KindSet {
    /// Every kind.
    pub const ALL: KindSet = KindSet((1 << KIND_COUNT) - 1);

    /// No kind.
    pub const NONE: KindSet = KindSet(0);

    /// The kinds carrying the given [`TraceKind::label`]s.
    ///
    /// # Panics
    ///
    /// Panics on a label that no kind carries.
    pub fn of(labels: &[&str]) -> KindSet {
        labels.iter().fold(KindSet::NONE, |set, label| {
            let ordinal = KIND_LABELS
                .iter()
                .position(|l| l == label)
                .unwrap_or_else(|| panic!("no trace kind is labelled {label:?}"));
            KindSet(set.0 | 1 << ordinal)
        })
    }

    /// True if the kind with ordinal `ordinal` belongs to the set.
    pub(crate) fn has(self, ordinal: usize) -> bool {
        self.0 >> ordinal & 1 == 1
    }
}

impl TraceKind {
    /// Stable snake_case name used in exports and span labels.
    pub fn label(&self) -> &'static str {
        KIND_LABELS[self.ordinal()]
    }

    /// Dense index of the variant, `0..KIND_COUNT`: lets bulk folds key
    /// their per-kind aggregates by an array slot instead of a string.
    pub(crate) const fn ordinal(&self) -> usize {
        match self {
            TraceKind::WqeFetch { .. } => 0,
            TraceKind::WqeExec { .. } => 1,
            TraceKind::WaitRelease { .. } => 2,
            TraceKind::Dma { .. } => 3,
            TraceKind::GFlush { .. } => 4,
            TraceKind::CacheFill { .. } => 5,
            TraceKind::CacheEvict { .. } => 6,
            TraceKind::Cqe { .. } => 7,
            TraceKind::LinkEnqueue { .. } => 8,
            TraceKind::LinkDeliver { .. } => 9,
            TraceKind::Dispatch { .. } => 10,
            TraceKind::Preempt { .. } => 11,
            TraceKind::OpIssue => 12,
            TraceKind::MetaSend { .. } => 13,
            TraceKind::ReplicaProgress { .. } => 14,
            TraceKind::OpAck => 15,
            TraceKind::MigrateBegin { .. } => 16,
            TraceKind::MigrateCutover { .. } => 17,
            TraceKind::MigrateEnd { .. } => 18,
            TraceKind::HealthBreach { .. } => 19,
            TraceKind::TxnPhaseBegin { .. } => 20,
            TraceKind::TxnPhaseEnd { .. } => 21,
            TraceKind::TxnOp { .. } => 22,
        }
    }

    pub(crate) fn write_args(&self, w: &mut JsonWriter) {
        match *self {
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
            TraceKind::LinkEnqueue { src, dst, bytes } => {
                w.field_u64("src", src as u64);
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
}

/// One sim-time-stamped trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened on the virtual clock.
    pub at: SimTime,
    /// Node the event is attributed to ([`NO_NODE`] if none).
    pub node: u32,
    /// Causal operation id ([`NO_OP`] if unattributable). For group
    /// operations this is the client generation number, which doubles as the
    /// WQE `wr_id` and CQE id on every hop.
    pub op: u64,
    /// What happened.
    pub kind: TraceKind,
}

/// Bounded ring of trace events with whole-span eviction.
///
/// When the ring is full, the op owning the *oldest* buffered event is
/// evicted in its entirety (every buffered event of that op, plus any late
/// stragglers it emits afterwards). Surviving ops therefore always keep
/// their complete span — head included — so per-op breakdowns over an
/// overflowed ring never mis-tile: an op is either whole or gone.
/// Unattributable [`NO_OP`] events are evicted singly, oldest first.
///
/// The events sit in one append-only `Vec` behind an `Rc`, which
/// [`Tracer::events`] hands out as the snapshot. Writing goes through
/// `Rc::make_mut`: while no snapshot is held that is the `Vec` itself, and
/// the first write after one was taken copies the ring once, leaving the
/// snapshot as it was.
#[derive(Debug)]
struct TraceBuffer {
    buf: Rc<Vec<TraceEvent>>,
    capacity: usize,
    dropped: u64,
    dropped_ops: u64,
    evicted: BTreeSet<u64>,
}

impl TraceBuffer {
    fn push(&mut self, ev: TraceEvent) {
        // Late events of an already-evicted op would resurrect a headless
        // partial span: discard them outright.
        if ev.op != NO_OP && self.evicted.contains(&ev.op) {
            self.dropped += 1;
            return;
        }
        if self.buf.len() >= self.capacity {
            // Evict in bulk: mark oldest events until at least a quarter of
            // the ring is reclaimable, then remove every event of the marked
            // ops in ONE retain pass. One O(n) sweep buys capacity/4 pushes,
            // so eviction stays amortized O(1) even when a throughput run
            // saturates the ring continuously.
            let to_mark = self.capacity / 4 + 1;
            let mut victims: BTreeSet<u64> = BTreeSet::new();
            let mut noop_prefix = 0usize;
            for e in self.buf.iter().take(to_mark) {
                if e.op == NO_OP {
                    noop_prefix += 1;
                } else {
                    victims.insert(e.op);
                }
            }
            let before = self.buf.len();
            let mut noop_left = noop_prefix;
            Rc::make_mut(&mut self.buf).retain(|e| {
                if e.op == NO_OP {
                    if noop_left > 0 {
                        noop_left -= 1;
                        return false;
                    }
                    true
                } else {
                    !victims.contains(&e.op)
                }
            });
            self.dropped += (before - self.buf.len()) as u64;
            self.dropped_ops += victims.len() as u64;
            self.evicted.extend(victims.iter().copied());
            if ev.op != NO_OP && victims.contains(&ev.op) {
                // The incoming event belongs to an op just evicted.
                self.dropped += 1;
                return;
            }
        }
        Rc::make_mut(&mut self.buf).push(ev);
    }
}

/// Cheap, cloneable handle to a shared trace buffer.
///
/// A default-constructed (or [`Tracer::disabled`]) handle carries no buffer
/// and no audit: [`Tracer::emit`] is then two `is_some` checks, which is
/// the always-compiled-in fast path. Clones of an enabled handle share one
/// buffer, so a tracer can be handed to the NIC model, the network, the
/// schedulers and the client while the test harness keeps a reading clone.
///
/// A tracer can additionally carry an [`Audit`](crate::simaudit::Audit)
/// tap ([`Tracer::with_audit`]): every emitted event is then also fed to
/// the online auditors, buffered or not. A buffer-less tracer with an
/// audit attached still counts as enabled, so instrumented hot paths emit
/// for the auditors even when nothing is being recorded.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Rc<RefCell<TraceBuffer>>>,
    audit: crate::simaudit::Audit,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.inner.is_some())
            .field("audit", &self.audit.is_enabled())
            .finish()
    }
}

impl Tracer {
    /// A tracer that discards everything (the default).
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer collecting up to `capacity` events in a ring buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enabled(capacity: usize) -> Self {
        assert!(capacity > 0, "tracer capacity must be non-zero");
        Tracer {
            inner: Some(Rc::new(RefCell::new(TraceBuffer {
                buf: Rc::new(Vec::with_capacity(capacity.min(4096))),
                capacity,
                dropped: 0,
                dropped_ops: 0,
                evicted: BTreeSet::new(),
            }))),
            audit: crate::simaudit::Audit::disabled(),
        }
    }

    /// Attaches an [`Audit`](crate::simaudit::Audit) tap: every event
    /// emitted through this tracer (and its clones) is also fed to the
    /// auditors, whether or not a ring buffer is attached.
    pub fn with_audit(mut self, audit: crate::simaudit::Audit) -> Self {
        self.audit = audit;
        self
    }

    /// The attached audit tap (disabled unless [`Tracer::with_audit`]
    /// was used).
    pub fn audit(&self) -> &crate::simaudit::Audit {
        &self.audit
    }

    /// True if this handle records events or feeds an audit tap.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some() || self.audit.is_enabled()
    }

    /// Records one event. No-op (two `is_some` checks) when disabled.
    #[inline]
    pub fn emit(&self, at: SimTime, node: u32, op: u64, kind: TraceKind) {
        if self.is_enabled() {
            self.record(TraceEvent { at, node, op, kind });
        }
    }

    /// The enabled half of [`Tracer::emit`], kept out of line so the
    /// disabled tap inlines to its checks.
    #[inline(never)]
    fn record(&self, ev: TraceEvent) {
        let _t = crate::hostprof::scope("simtrace.tap");
        if let Some(inner) = &self.inner {
            inner.borrow_mut().push(ev);
        }
        self.audit.on_event(&ev);
    }

    /// Snapshot of the buffered events, oldest first. The snapshot shares
    /// the ring's buffer, so taking one copies nothing; if recording
    /// resumes while it is held, the ring copies itself once and the
    /// snapshot keeps what it had.
    pub fn events(&self) -> Rc<Vec<TraceEvent>> {
        match &self.inner {
            Some(inner) => Rc::clone(&inner.borrow().buf),
            None => Rc::default(),
        }
    }

    /// How many events were discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped)
    }

    /// How many operations had their whole span evicted by ring overflow.
    /// Ops still buffered are complete: the overflow policy evicts whole
    /// spans, never a span's head alone.
    pub fn dropped_ops(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.borrow().dropped_ops)
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| i.borrow().buf.len())
    }

    /// True if no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Discards all buffered events and resets the drop counters and the
    /// evicted-op suppression set. Outstanding snapshots keep their events.
    pub fn clear(&self) {
        if let Some(inner) = &self.inner {
            let mut b = inner.borrow_mut();
            match Rc::get_mut(&mut b.buf) {
                Some(buf) => buf.clear(),
                None => b.buf = Rc::default(),
            }
            b.dropped = 0;
            b.dropped_ops = 0;
            b.evicted.clear();
        }
    }

    /// Overflow-aware [`op_breakdown_with_drops`] over this tracer's
    /// buffered events. Under the whole-span eviction policy an op is
    /// either completely buffered or completely evicted, so the result is
    /// never [`OpBreakdown::truncated`]; the flag remains for streams
    /// captured from other sources.
    pub fn op_breakdown(&self, op: u64) -> Option<OpBreakdown> {
        op_breakdown_with_drops(&self.events(), op, self.dropped())
    }
}

/// One contiguous stage of an operation's timeline.
///
/// Stages are labelled by the event that *ends* them, so "wait_release@n2"
/// reads as "the time spent waiting until replica 2's chain was released".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    /// `label@nNODE` of the event ending this stage.
    pub label: String,
    /// Stage start (previous event's timestamp).
    pub start: SimTime,
    /// Stage end (this event's timestamp).
    pub end: SimTime,
}

impl Stage {
    /// How long the stage took.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// Per-stage latency breakdown of one operation.
///
/// The stages partition `[start, end]` exactly: consecutive events bound
/// consecutive stages, so the stage durations always sum to [`Self::total`].
/// When [`Self::truncated`] is set the partition is only of the *surviving*
/// span: the ring dropped the op's head events, so `start` is not the issue
/// time and `total` under-reports the true end-to-end latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpBreakdown {
    /// The operation id.
    pub op: u64,
    /// Timestamp of the first event attributed to the op.
    pub start: SimTime,
    /// Timestamp of the last event attributed to the op.
    pub end: SimTime,
    /// The stages, in time order.
    pub stages: Vec<Stage>,
    /// Overflow discarded this op's head events: the breakdown is a
    /// partial tail, not the full op. A [`Tracer`]'s whole-span eviction
    /// never produces this; it guards streams from other sources.
    pub truncated: bool,
}

impl OpBreakdown {
    /// End-to-end latency of the operation as seen by the trace.
    pub fn total(&self) -> SimDuration {
        self.end.since(self.start)
    }
}

/// A node in a reconstructed span tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Human-readable span name.
    pub label: String,
    /// Span start.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Child spans, in time order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Span length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Renders the tree as an indented text report (for logs and debugging).
    pub fn render(&self) -> String {
        fn go(n: &SpanNode, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&format!(
                "{} [{} .. {}] {}\n",
                n.label,
                n.start,
                n.end,
                n.duration()
            ));
            for c in &n.children {
                go(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        go(self, 0, &mut out);
        out
    }
}

pub(crate) fn events_for(events: &[TraceEvent], op: u64) -> Vec<TraceEvent> {
    let mut evs: Vec<TraceEvent> = events.iter().filter(|e| e.op == op).copied().collect();
    // Emission order is not time order: a send emits its future delivery
    // event immediately. Stable-sort so ties keep emission order.
    evs.sort_by_key(|e| e.at);
    evs
}

/// Multiply-rotate hasher for the op index's key → slot map. Keys are op
/// or txn ids; no output ever depends on the map's iteration order.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Bits of an [`Entry`] holding the kind ordinal.
const KIND_BITS: u32 = 5;
const _: () = assert!(KIND_COUNT <= 1 << KIND_BITS);

/// Longest stream an [`OpIndex`] groups: a position must fit the 32 bits
/// of an [`Entry`] it shares with the kind.
const MAX_INDEXED: usize = 1 << (u32::BITS - KIND_BITS);

/// One grouped event of an [`OpIndex`]: the time, kind and node the folds
/// read, and the stream position through which exports reach the full
/// event. It packs into one `u128`, time in the top 64 bits, then the
/// position above [`KIND_BITS`] bits of kind, then the node, so entries
/// order as integers by `(at, position)`: time, ties in emission order. A
/// group therefore sorts and folds without touching the stream.
#[derive(Clone, Copy)]
pub(crate) struct Entry(u128);

impl Entry {
    fn pack(pos: usize, e: &TraceEvent) -> u128 {
        let pos_kind = (pos as u32) << KIND_BITS | e.kind.ordinal() as u32;
        (e.at.as_nanos() as u128) << 64 | (pos_kind as u128) << 32 | e.node as u128
    }

    /// When the event happened.
    pub(crate) fn at(self) -> SimTime {
        SimTime::from_nanos((self.0 >> 64) as u64)
    }

    /// The event's [`TraceKind::ordinal`].
    pub(crate) fn kind(self) -> usize {
        (self.0 >> 32) as usize & ((1 << KIND_BITS) - 1)
    }

    /// The node the event is attributed to.
    pub(crate) fn node(self) -> u32 {
        self.0 as u32
    }

    /// The event's position in the stream.
    fn pos(self) -> usize {
        ((self.0 >> 32) as u32 >> KIND_BITS) as usize
    }
}

/// Sorts one group of packed entries, which arrives in emission order and
/// so nearly sorted: out of order are only the few events emitted before
/// earlier-stamped ones (a send emits its future delivery at once).
/// Insertion sort costs the group's length plus the distance those events
/// move; past a budget of eight moves per entry it hands over to a
/// general sort.
fn sort_group(group: &mut [u128]) {
    let budget = 8 * group.len();
    let mut moved = 0;
    for i in 1..group.len() {
        let x = group[i];
        let mut j = i;
        while j > 0 && group[j - 1] > x {
            group[j] = group[j - 1];
            j -= 1;
        }
        group[j] = x;
        moved += i - j;
        if moved > budget {
            group.sort_unstable();
            return;
        }
    }
}

/// A trace stream grouped by a `u64` key without copying it: the *op
/// index* behind every bulk fold and export.
///
/// Built as a counting sort. One sweep keys every event, giving each
/// distinct key a dense slot and counting its events; a second places an
/// [`Entry`] per keyed event into one flat array, group by group, and
/// each group is then sorted in place. The order contract is the one
/// per-op reconstruction has always used:
///
/// * keys ascending (slots are renumbered in key order, so the hash map
///   that assigns them never reaches an output);
/// * each key's events by time, ties in emission order;
/// * events without a key (for the op index: [`NO_OP`]) left out.
///
/// The key function sees every event once, in emission order, so a fold
/// gathers whatever else it needs from the stream (signals, tags, a
/// sub-stream) in the same sweep. The index keeps 16 bytes per grouped
/// event (building it takes another transient 4 bytes per event) and
/// allocates nothing per key.
pub(crate) struct OpIndex<'a> {
    events: &'a [TraceEvent],
    keys: Vec<u64>,
    /// `order[starts[i]..starts[i + 1]]` are the packed [`Entry`]s of
    /// `keys[i]`.
    starts: Vec<u32>,
    order: Vec<u128>,
}

impl<'a> OpIndex<'a> {
    /// Groups `events` by op id ([`NO_OP`] events left out).
    pub(crate) fn by_op(events: &'a [TraceEvent]) -> Self {
        Self::build(events, |e| (e.op != NO_OP).then_some(e.op))
    }

    /// Groups `events` by `key`; events it maps to `None` are left out.
    /// `key` is called once per event, in stream order.
    pub(crate) fn build(
        events: &'a [TraceEvent],
        mut key: impl FnMut(&TraceEvent) -> Option<u64>,
    ) -> Self {
        assert!(
            events.len() < MAX_INDEXED,
            "op index holds at most 2^{} - 1 events",
            u32::BITS - KIND_BITS
        );
        const NONE: u32 = u32::MAX;
        let mut slot_of: HashMap<u64, u32, BuildHasherDefault<IdHasher>> = HashMap::default();
        let mut keys: Vec<u64> = Vec::new();
        let mut counts: Vec<u32> = Vec::new();
        let mut slots: Vec<u32> = Vec::with_capacity(events.len());
        let mut last: Option<(u64, u32)> = None;
        for e in events {
            let slot = match key(e) {
                None => NONE,
                Some(k) => {
                    let slot = match last {
                        Some((lk, ls)) if lk == k => ls,
                        _ => {
                            let s = *slot_of.entry(k).or_insert_with(|| {
                                keys.push(k);
                                counts.push(0);
                                (keys.len() - 1) as u32
                            });
                            last = Some((k, s));
                            s
                        }
                    };
                    counts[slot as usize] += 1;
                    slot
                }
            };
            slots.push(slot);
        }
        // Scratch is freed as soon as it is spent, ahead of the next
        // event-sized allocation.
        drop(slot_of);

        // Renumber slots in key order, then lay the groups out back to back.
        let mut by_key: Vec<u32> = (0..keys.len() as u32).collect();
        by_key.sort_unstable_by_key(|&s| keys[s as usize]);
        let mut rank = vec![0u32; keys.len()];
        let mut starts = Vec::with_capacity(keys.len() + 1);
        let mut total = 0u32;
        for (r, &s) in by_key.iter().enumerate() {
            rank[s as usize] = r as u32;
            starts.push(total);
            total += counts[s as usize];
        }
        starts.push(total);
        let sorted_keys: Vec<u64> = by_key.iter().map(|&s| keys[s as usize]).collect();
        drop((keys, counts, by_key));

        // Place each keyed event's entry; every group receives its entries
        // in emission order, so sorting a group on `(at, position)` is the
        // stable time sort.
        let mut cursor: Vec<u32> = rank.iter().map(|&r| starts[r as usize]).collect();
        drop(rank);
        let mut order = vec![0u128; total as usize];
        for (pos, (&slot, e)) in slots.iter().zip(events).enumerate() {
            if slot != NONE {
                let c = &mut cursor[slot as usize];
                order[*c as usize] = Entry::pack(pos, e);
                *c += 1;
            }
        }
        drop((slots, cursor));
        for w in starts.windows(2) {
            sort_group(&mut order[w[0] as usize..w[1] as usize]);
        }
        OpIndex {
            events,
            keys: sorted_keys,
            starts,
            order,
        }
    }

    /// True when no event had a key.
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn group(&self, i: usize) -> OpEvents<'_> {
        OpEvents {
            events: self.events,
            run: &self.order[self.starts[i] as usize..self.starts[i + 1] as usize],
        }
    }

    /// Every key with its events, keys ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, OpEvents<'_>)> {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &k)| (k, self.group(i)))
    }

    /// The events of `key`, if it occurs in the stream.
    pub(crate) fn get(&self, key: u64) -> Option<OpEvents<'_>> {
        self.keys.binary_search(&key).ok().map(|i| self.group(i))
    }
}

/// One key's events in an [`OpIndex`]: time-ordered, ties in emission
/// order. Folds read their [`Entry`]s; [`OpEvents::event`] reaches the
/// full event by its stream position.
#[derive(Clone, Copy)]
pub(crate) struct OpEvents<'a> {
    events: &'a [TraceEvent],
    run: &'a [u128],
}

impl<'a> OpEvents<'a> {
    /// Number of events.
    pub(crate) fn len(&self) -> usize {
        self.run.len()
    }

    /// The earliest entry (index groups and windows are never empty).
    pub(crate) fn first(&self) -> Entry {
        Entry(self.run[0])
    }

    /// The latest entry.
    pub(crate) fn last(&self) -> Entry {
        Entry(self.run[self.run.len() - 1])
    }

    /// The entries in time order.
    pub(crate) fn iter(&self) -> impl DoubleEndedIterator<Item = Entry> + ExactSizeIterator + 'a {
        self.run.iter().map(|&e| Entry(e))
    }

    /// Adjacent `(previous, current)` pairs: one per stage, each stage
    /// labelled by the event ending it.
    pub(crate) fn pairs(&self) -> impl Iterator<Item = (Entry, Entry)> + 'a {
        self.run.windows(2).map(|w| (Entry(w[0]), Entry(w[1])))
    }

    /// The events at positions `first..=last`.
    pub(crate) fn slice(&self, first: usize, last: usize) -> OpEvents<'a> {
        OpEvents {
            events: self.events,
            run: &self.run[first..=last],
        }
    }

    /// The full event behind `entry`.
    pub(crate) fn event(&self, entry: Entry) -> &'a TraceEvent {
        &self.events[entry.pos()]
    }

    /// The event emitted earliest (lowest stream position), whatever its
    /// timestamp.
    pub(crate) fn first_emitted(&self) -> &'a TraceEvent {
        let first = self.iter().min_by_key(|e| e.pos());
        self.event(first.expect("index groups are never empty"))
    }

    /// The events, copied out in time order.
    pub(crate) fn to_vec(self) -> Vec<TraceEvent> {
        self.iter().map(|e| *self.event(e)).collect()
    }
}

/// All distinct operation ids present in the stream, ascending, excluding
/// [`NO_OP`].
pub fn ops(events: &[TraceEvent]) -> Vec<u64> {
    let set: BTreeSet<u64> = events
        .iter()
        .map(|e| e.op)
        .filter(|&o| o != NO_OP)
        .collect();
    set.into_iter().collect()
}

/// Rebuilds the per-stage latency breakdown for one operation.
///
/// Returns `None` if fewer than two events mention the op (no interval to
/// split). By construction the returned stage durations sum exactly to the
/// op's end-to-end latency.
///
/// This slice-only form cannot see the tracer ring's overflow counter, so
/// it assumes the stream is complete (`truncated` is never set). When the
/// events came from a [`Tracer`] that may have overflowed, use
/// [`op_breakdown_with_drops`] (or [`Tracer::op_breakdown`]) so a
/// decapitated op is flagged instead of silently mis-summed.
pub fn op_breakdown(events: &[TraceEvent], op: u64) -> Option<OpBreakdown> {
    op_breakdown_with_drops(events, op, 0)
}

/// [`op_breakdown`], overflow-aware: `dropped` is the tracer ring's
/// [`Tracer::dropped`] count for the stream `events` was captured from.
///
/// If the stream overflowed (`dropped > 0`) and the op's earliest surviving
/// event is not its `op_issue`, the op's head was discarded: the result is
/// marked [`OpBreakdown::truncated`] and covers only the surviving tail.
/// A [`Tracer`]'s whole-span eviction keeps surviving ops complete, so
/// streams captured from a tracer never trip this.
pub fn op_breakdown_with_drops(
    events: &[TraceEvent],
    op: u64,
    dropped: u64,
) -> Option<OpBreakdown> {
    breakdown_from_sorted(op, &events_for(events, op), dropped)
}

/// [`op_breakdown_with_drops`] over one op's already-gathered, time-sorted
/// events.
pub(crate) fn breakdown_from_sorted(
    op: u64,
    evs: &[TraceEvent],
    dropped: u64,
) -> Option<OpBreakdown> {
    if evs.len() < 2 {
        return None;
    }
    let start = evs.first().unwrap().at;
    let end = evs.last().unwrap().at;
    let truncated = dropped > 0 && !matches!(evs[0].kind, TraceKind::OpIssue);
    let stages = evs
        .windows(2)
        .map(|w| Stage {
            label: stage_label(&w[1]),
            start: w[0].at,
            end: w[1].at,
        })
        .collect();
    Some(OpBreakdown {
        op,
        start,
        end,
        stages,
        truncated,
    })
}

/// `label@nNODE` of the event ending a stage, in one right-sized
/// allocation.
fn stage_label(ev: &TraceEvent) -> String {
    let kind = ev.kind.label();
    let mut label = String::with_capacity(kind.len() + 12);
    let _ = write!(label, "{kind}@n{}", ev.node);
    label
}

/// Rebuilds one operation's span tree: the op root, one child per
/// contiguous run of stages on the same node, and the stages as leaves.
pub fn span_tree(events: &[TraceEvent], op: u64) -> Option<SpanNode> {
    span_tree_from_sorted(op, &events_for(events, op))
}

/// [`span_tree`] over one op's already-gathered, time-sorted events.
pub(crate) fn span_tree_from_sorted(op: u64, evs: &[TraceEvent]) -> Option<SpanNode> {
    let bd = breakdown_from_sorted(op, evs, 0)?;
    let mut children: Vec<SpanNode> = Vec::new();
    let mut group_node = None;
    for (stage, ev) in bd.stages.into_iter().zip(evs.iter().skip(1)) {
        let leaf = SpanNode {
            label: stage.label,
            start: stage.start,
            end: stage.end,
            children: Vec::new(),
        };
        match children.last_mut() {
            Some(group) if group_node == Some(ev.node) => {
                group.end = leaf.end;
                group.children.push(leaf);
            }
            _ => {
                group_node = Some(ev.node);
                children.push(SpanNode {
                    label: format!("node{}", ev.node),
                    start: leaf.start,
                    end: leaf.end,
                    children: vec![leaf],
                });
            }
        }
    }
    Some(SpanNode {
        label: format!("op {}", op),
        start: bd.start,
        end: bd.end,
        children,
    })
}

pub(crate) fn ts_us(t: SimTime) -> f64 {
    t.as_nanos() as f64 / 1e3
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
    write_chrome_events(&mut w, events, |_| true);
    w.end_arr();
    w.field_str("displayTimeUnit", "ns");
    w.end_obj();
    w.finish()
}

/// Writes the span/instant event stream of the events `keep` selects into
/// an already-open `traceEvents` array (shared by [`chrome_trace_json`]
/// and the counter-track exports in [`crate::simprof`]). One grouped pass,
/// which also collects the nodes: node metadata, then every op's stage
/// spans (ops ascending, from the op index), then one instant per event
/// in emission order.
pub(crate) fn write_chrome_events(
    w: &mut JsonWriter,
    events: &[TraceEvent],
    keep: impl Fn(&TraceEvent) -> bool,
) {
    let mut nodes: Vec<u32> = Vec::new();
    let index = OpIndex::build(events, |e| {
        if !keep(e) {
            return None;
        }
        if e.node != NO_NODE {
            if let Err(i) = nodes.binary_search(&e.node) {
                nodes.insert(i, e.node);
            }
        }
        (e.op != NO_OP).then_some(e.op)
    });
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

    for (op, evs) in index.iter() {
        for (prev, cur) in evs.pairs() {
            w.begin_obj();
            w.field_str("ph", "X");
            w.field_str("name", kind_label(cur.kind()));
            w.field_u64("pid", cur.node() as u64);
            w.field_u64("tid", op);
            w.field_micros("ts", prev.at().as_nanos());
            w.field_f64("dur", ts_us(cur.at()) - ts_us(prev.at()));
            w.begin_obj_field("args");
            w.field_u64("op", op);
            evs.event(cur).kind.write_args(w);
            w.end_obj();
            w.end_obj();
        }
    }

    for ev in events.iter().filter(|e| keep(e)) {
        w.begin_obj();
        w.field_str("ph", "i");
        w.field_str("s", "t");
        w.field_str("name", ev.kind.label());
        w.field_u64("pid", ev.node as u64);
        w.field_u64("tid", if ev.op == NO_OP { 0 } else { ev.op });
        w.field_micros("ts", ev.at.as_nanos());
        w.begin_obj_field("args");
        if ev.op != NO_OP {
            w.field_u64("op", ev.op);
        }
        ev.kind.write_args(w);
        w.end_obj();
        w.end_obj();
    }
}

/// A unified, named metrics store: counters, gauges and latency histograms.
///
/// Each simulator crate exposes an `export_into(&self, reg, prefix)` method
/// on its stats struct that snapshots into a registry under a dotted prefix
/// (`"fabric.wqes_executed"`, `"sched.preemptions"`, …). Benches then
/// serialise the registry once, uniformly, instead of hand-formatting four
/// different structs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the named counter (creating it at zero).
    ///
    /// For *deltas*. An `export_into` impl snapshotting a cumulative total
    /// must use [`MetricsRegistry::counter_set`] instead — adding a
    /// snapshot double-counts as soon as the exporter runs twice.
    pub fn counter_add(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the named counter to an absolute value, overwriting any
    /// previous sample. Re-exporting the same snapshot is idempotent.
    pub fn counter_set(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Sets the named gauge.
    pub fn set_gauge(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Records one latency sample into the named histogram.
    pub fn record(&mut self, name: &str, d: SimDuration) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(d);
    }

    /// Merges a whole histogram into the named histogram.
    pub fn merge_histogram(&mut self, name: &str, h: &Histogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Counter value, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Gauge value, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All gauges, name-ordered.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// All histograms, name-ordered.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Serialises the registry as one JSON object (deterministic order).
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.begin_obj_field("counters");
        for (k, v) in &self.counters {
            w.field_u64(k, *v);
        }
        w.end_obj();
        w.begin_obj_field("gauges");
        for (k, v) in &self.gauges {
            w.field_f64(k, *v);
        }
        w.end_obj();
        w.begin_obj_field("histograms");
        for (k, h) in &self.histograms {
            w.begin_obj_field(k);
            let s = h.summary();
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
        w.end_obj();
        w.end_obj();
    }

    /// The registry as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let _t = crate::hostprof::scope("jsonw.export");
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
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
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        t.emit(SimTime::ZERO, 0, 1, TraceKind::OpIssue);
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let t = Tracer::enabled(2);
        for i in 0..5u64 {
            t.emit(SimTime::from_nanos(i), 0, i, TraceKind::OpIssue);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let evs = t.events();
        assert_eq!(evs[0].op, 3);
        assert_eq!(evs[1].op, 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn snapshot_keeps_its_events_while_recording_resumes() {
        let t = Tracer::enabled(16);
        t.emit(SimTime::from_nanos(0), 0, 1, TraceKind::OpIssue);
        t.emit(SimTime::from_nanos(10), 0, 1, TraceKind::OpAck);
        let snap = t.events();
        // Taking a snapshot copies nothing: the next one is the same buffer.
        assert!(Rc::ptr_eq(&snap, &t.events()));
        t.emit(SimTime::from_nanos(20), 0, 2, TraceKind::OpIssue);
        assert_eq!(snap.len(), 2, "the snapshot keeps what it had");
        assert_eq!(t.len(), 3, "the ring still records");
        let now = t.events();
        assert_eq!(now[..2], snap[..]);
        assert_eq!(now[2].op, 2);
    }

    #[test]
    fn outstanding_snapshots_change_no_count_clear_or_eviction() {
        // Two 4-slot rings see the same emissions; one has a snapshot taken
        // after every step and held to the end. Op 2 overflows the ring
        // and evicts op 1 whole, then an op-1 straggler is suppressed.
        let emissions = [
            (0, 1, TraceKind::OpIssue),
            (10, 1, TraceKind::MetaSend { replica: 0 }),
            (40, 1, TraceKind::Dma { bytes: 64 }),
            (90, 1, TraceKind::OpAck),
            (100, 2, TraceKind::OpIssue),
            (190, 2, TraceKind::OpAck),
            (200, 1, TraceKind::Dma { bytes: 8 }),
        ];
        let (plain, held) = (Tracer::enabled(4), Tracer::enabled(4));
        let same = |plain: &Tracer, held: &Tracer| {
            assert_eq!(plain.len(), held.len());
            assert_eq!(plain.dropped(), held.dropped());
            assert_eq!(plain.dropped_ops(), held.dropped_ops());
            assert_eq!(plain.events(), held.events());
        };
        let mut snaps = Vec::new();
        for (ns, op, kind) in emissions {
            plain.emit(SimTime::from_nanos(ns), 0, op, kind);
            held.emit(SimTime::from_nanos(ns), 0, op, kind);
            same(&plain, &held);
            let snap = held.events();
            snaps.push((snap.to_vec(), snap));
        }
        assert_eq!((held.len(), held.dropped(), held.dropped_ops()), (2, 5, 1));
        plain.clear();
        held.clear();
        same(&plain, &held);
        assert!(held.is_empty() && held.dropped() == 0 && held.dropped_ops() == 0);
        // Clearing forgot the evicted op in both.
        plain.emit(SimTime::from_nanos(300), 0, 1, TraceKind::OpIssue);
        held.emit(SimTime::from_nanos(300), 0, 1, TraceKind::OpIssue);
        same(&plain, &held);
        assert_eq!(held.len(), 1);
        for (copy, snap) in &snaps {
            assert_eq!(copy, snap.as_ref(), "a snapshot changed after it was taken");
        }
        assert_eq!(snaps[3].1.len(), 4, "the pre-eviction snapshot holds op 1");
    }

    #[test]
    fn clones_share_one_buffer() {
        let a = Tracer::enabled(16);
        let b = a.clone();
        b.emit(SimTime::ZERO, 1, 9, TraceKind::OpAck);
        assert_eq!(a.len(), 1);
        assert_eq!(a.events()[0].node, 1);
    }

    #[test]
    fn breakdown_partitions_the_op_interval() {
        let evs = vec![
            ev(100, 0, 5, TraceKind::OpIssue),
            ev(130, 0, 5, TraceKind::MetaSend { replica: 0 }),
            ev(250, 1, 5, TraceKind::WaitRelease { qp: 3 }),
            ev(400, 1, 5, TraceKind::Dma { bytes: 64 }),
            ev(700, 0, 5, TraceKind::OpAck),
            ev(710, 2, 8, TraceKind::OpIssue), // different op, ignored
        ];
        let bd = op_breakdown(&evs, 5).unwrap();
        assert_eq!(bd.total(), SimDuration::from_nanos(600));
        assert_eq!(bd.stages.len(), 4);
        let sum: u64 = bd.stages.iter().map(|s| s.duration().as_nanos()).sum();
        assert_eq!(sum, 600);
        assert_eq!(bd.stages[0].label, "meta_send@n0");
        assert_eq!(bd.stages[1].label, "wait_release@n1");
        assert_eq!(bd.stages[3].label, "op_ack@n0");
        assert!(!bd.truncated, "a complete op must not be flagged");
        assert!(op_breakdown(&evs, 8).is_none());
        assert!(op_breakdown(&evs, 999).is_none());
        assert_eq!(ops(&evs), vec![5, 8]);
    }

    #[test]
    fn overflowed_ring_evicts_whole_spans_never_heads() {
        // A 4-slot ring sees two ops; op 2's traffic overflows the ring
        // while op 1's four events fill it. Whole-span eviction removes op
        // 1 entirely instead of decapitating it.
        let t = Tracer::enabled(4);
        t.emit(SimTime::from_nanos(0), 0, 1, TraceKind::OpIssue);
        t.emit(
            SimTime::from_nanos(10),
            0,
            1,
            TraceKind::MetaSend { replica: 0 },
        );
        t.emit(SimTime::from_nanos(40), 1, 1, TraceKind::Dma { bytes: 64 });
        t.emit(SimTime::from_nanos(90), 0, 1, TraceKind::OpAck);
        t.emit(SimTime::from_nanos(100), 0, 2, TraceKind::OpIssue);
        t.emit(SimTime::from_nanos(190), 0, 2, TraceKind::OpAck);
        assert_eq!(t.dropped(), 4, "all four op-1 events were evicted");
        assert_eq!(t.dropped_ops(), 1);

        // Op 1 is gone entirely: no headless partial span to mis-sum.
        assert!(t.op_breakdown(1).is_none(), "evicted op must not resurface");

        // Op 2 survives whole, with its op_issue head.
        let bd2 = t.op_breakdown(2).unwrap();
        assert!(!bd2.truncated);
        assert_eq!(bd2.total(), SimDuration::from_nanos(90));
        assert!(matches!(t.events()[0].kind, TraceKind::OpIssue));

        // A late straggler from the evicted op stays suppressed.
        t.emit(SimTime::from_nanos(200), 1, 1, TraceKind::Dma { bytes: 8 });
        assert!(t.op_breakdown(1).is_none());
        assert_eq!(t.dropped(), 5);
        assert_eq!(t.len(), 2);

        // Every surviving op starts at its op_issue: nothing is truncated.
        for op in ops(&t.events()) {
            assert!(!t.op_breakdown(op).unwrap().truncated);
        }
    }

    #[test]
    fn span_tree_groups_consecutive_stages_by_node() {
        let evs = vec![
            ev(0, 0, 1, TraceKind::OpIssue),
            ev(10, 0, 1, TraceKind::MetaSend { replica: 0 }),
            ev(30, 1, 1, TraceKind::WaitRelease { qp: 0 }),
            ev(50, 1, 1, TraceKind::Dma { bytes: 8 }),
            ev(90, 0, 1, TraceKind::OpAck),
        ];
        let tree = span_tree(&evs, 1).unwrap();
        assert_eq!(tree.label, "op 1");
        assert_eq!(tree.duration(), SimDuration::from_nanos(90));
        let groups: Vec<&str> = tree.children.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(groups, vec!["node0", "node1", "node0"]);
        assert_eq!(tree.children[1].children.len(), 2);
        // The node groups tile the op interval.
        assert_eq!(tree.children.first().unwrap().start, tree.start);
        assert_eq!(tree.children.last().unwrap().end, tree.end);
        for w in tree.children.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        let text = tree.render();
        assert!(text.contains("op 1"));
        assert!(text.contains("  node1"));
    }

    #[test]
    fn chrome_export_is_valid_shape_and_deterministic() {
        let evs = vec![
            ev(1000, 0, 2, TraceKind::OpIssue),
            ev(1500, 1, 2, TraceKind::Cqe { cq: 0, ok: true }),
            ev(1600, 1, NO_OP, TraceKind::CacheEvict { bytes: 128 }),
        ];
        let a = chrome_trace_json(&evs);
        let b = chrome_trace_json(&evs);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"M\""));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ph\":\"i\""));
        assert!(a.contains("\"name\":\"cqe\""));
        assert!(a.contains("\"ts\":1"));
        assert!(a.ends_with("\"displayTimeUnit\":\"ns\"}"));
    }

    #[test]
    fn registry_round_trip() {
        let mut r = MetricsRegistry::new();
        r.counter_add("fabric.wqes", 3);
        r.counter_add("fabric.wqes", 2);
        r.set_gauge("sched.util", 0.75);
        r.record("op.latency", SimDuration::from_micros(5));
        r.record("op.latency", SimDuration::from_micros(7));
        let mut h = Histogram::new();
        h.record(SimDuration::from_micros(100));
        r.merge_histogram("op.latency", &h);

        assert_eq!(r.counter("fabric.wqes"), Some(5));
        assert_eq!(r.gauge("sched.util"), Some(0.75));
        assert_eq!(r.histogram("op.latency").unwrap().count(), 3);
        assert_eq!(r.counter("missing"), None);

        let json = r.to_json();
        assert!(json.contains("\"fabric.wqes\":5"));
        assert!(json.contains("\"sched.util\":0.75"));
        assert!(json.contains("\"op.latency\":{\"count\":3"));
        assert_eq!(json, r.to_json());
    }

    #[test]
    fn counter_set_is_idempotent_where_add_accumulates() {
        let mut r = MetricsRegistry::new();
        r.counter_set("snap.total", 7);
        r.counter_set("snap.total", 7);
        assert_eq!(r.counter("snap.total"), Some(7));
        r.counter_set("snap.total", 9);
        assert_eq!(r.counter("snap.total"), Some(9));
        r.counter_add("snap.total", 1);
        assert_eq!(r.counter("snap.total"), Some(10));
    }
}
