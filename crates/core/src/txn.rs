//! Multi-key replicated transactions across shards.
//!
//! [`TxnManager`] drives [`Txn`]s — buffered multi-key read/write sets
//! spanning shards — through one of two commit paths behind the same API
//! ([`CommitMode`]):
//!
//! * **Locking** (paper §5): acquire gCAS write locks on every read *and*
//!   write site in global `(shard, lock)` order (deadlock-free by total
//!   order), validate read versions, apply the buffered writes as durable
//!   gWRITEs, release. Partial acquisitions are undone with the retrying
//!   [`WrUndo`] protocol; contended acquisitions back off with a seeded
//!   jittered [`LockBackoff`] and retry, [`MAX_LOCK_ATTEMPTS`] rounds at
//!   most.
//! * **Optimistic** (FDB-style): lock only the write sites, validate each
//!   buffered read's observed version as a conflict range with a no-op
//!   gCAS on the version word, then apply. A read whose version moved
//!   aborts the transaction (the caller re-reads and retries). Safe for
//!   read-modify-write shapes (read site == write site, so validation runs
//!   under the write lock); reads of never-written sites keep a small
//!   validate-to-apply window that the Locking mode closes.
//!
//! Each lock id owns an 8-byte *version word* ([`TxnLayout`]) bumped by
//! every committed writer; versions are the conflict-detection currency on
//! the read side, lock words on the write side. Everything is ack-driven
//! and asynchronous: call [`TxnManager::pump`] with the shard acks each
//! driver tick, exactly like the reader and migration state machines. The
//! manager emits [`Probe::TxnBegin`]..[`Probe::TxnAbort`] lifecycle probes
//! so `simaudit`'s txn auditor can verify atomicity, isolation and lock
//! hygiene online.

use crate::group::GroupError;
use crate::lock::{LockBackoff, LockTable, WrLockOutcome, WrUndo, WRITER_BIT};
use crate::ops::{ExecuteMap, GroupAck, GroupOp};
use crate::shard::{ShardAck, ShardId, ShardSet};
use crate::transport::GroupTransport;
use rnicsim::{NicCtx, Payload};
use simcore::simtrace::{
    txn_op_id, NO_NODE, TXN_PHASE_ACQUIRE, TXN_PHASE_APPLY, TXN_PHASE_BACKOFF, TXN_PHASE_RELEASE,
    TXN_PHASE_ROLLBACK, TXN_PHASE_UNDO, TXN_PHASE_VALIDATE,
};
use simcore::{Audit, MetricsRegistry, Probe, SimTime, TraceKind, Tracer};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// How a transaction's buffered operations reach the replicas at commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitMode {
    /// Two-phase locking over the read ∪ write sites (paper §5), acquired
    /// in global key order.
    Locking,
    /// Lock the write sites only; validate the read set's observed
    /// versions FDB-style before applying.
    Optimistic,
}

/// One lockable unit: a lock word (and its paired version word) on one
/// shard. Ordering is the global acquisition order (shard first, then
/// lock id) that makes the locking path deadlock-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnSite {
    /// The shard whose shared region holds the words.
    pub shard: ShardId,
    /// Lock id within the shard's [`TxnLayout`].
    pub lock: u32,
}

/// Where the transaction control words live in every shard's shared
/// region: a [`LockTable`] of lock words plus one 8-byte version word per
/// lock id. The layout is identical on every shard (the symmetric-layout
/// invariant, one level up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxnLayout {
    locks: LockTable,
    versions_offset: u64,
}

impl TxnLayout {
    /// A layout with explicit lock table and version array base.
    ///
    /// # Panics
    ///
    /// Panics if `versions_offset` is not 8-byte aligned.
    pub fn new(locks: LockTable, versions_offset: u64) -> Self {
        assert_eq!(versions_offset % 8, 0, "version words must be aligned");
        TxnLayout {
            locks,
            versions_offset,
        }
    }

    /// The conventional layout: `count` lock words at `region_offset`,
    /// version words immediately after.
    pub fn standard(region_offset: u64, count: u32) -> Self {
        let locks = LockTable::new(region_offset, count);
        TxnLayout::new(locks, region_offset + count as u64 * 8)
    }

    /// The lock table.
    pub fn locks(&self) -> &LockTable {
        &self.locks
    }

    /// Number of lock (and version) words per shard.
    pub fn lock_count(&self) -> u32 {
        self.locks.count()
    }

    /// Shared-region offset of lock `id`'s version word.
    pub fn version_offset(&self, id: u32) -> u64 {
        assert!(id < self.locks.count(), "lock id {id} out of range");
        self.versions_offset + id as u64 * 8
    }
}

/// A transaction being assembled: buffered reads (with the version each
/// observed) and buffered writes. Build it with [`TxnManager::begin`],
/// submit with [`TxnManager::commit`].
#[derive(Debug)]
pub struct Txn {
    id: u64,
    reads: BTreeMap<TxnSite, u64>,
    writes: Vec<(TxnSite, u64, Payload)>,
    /// App-level key that motivated each touched site (see
    /// [`Txn::tag_key`]). Feeds the false-conflict meter: two txns
    /// contending on one site with *different* keys is a stripe collision,
    /// not a data conflict.
    keys: BTreeMap<TxnSite, u64>,
}

impl Txn {
    /// The transaction's id (assigned at [`TxnManager::begin`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Records a read of `site` that observed `version` (the conflict
    /// range). The first recorded version wins — re-reads within one
    /// transaction are repeatable.
    pub fn read(&mut self, site: TxnSite, version: u64) {
        self.reads.entry(site).or_insert(version);
    }

    /// Buffers a write of `data` at shared-region `offset`, covered by
    /// `site`'s lock. Nothing reaches the replicas until commit. Offsets
    /// must lie inside the target shard's shared region — an out-of-range
    /// write is a caller bug and panics at apply time.
    pub fn write(&mut self, site: TxnSite, offset: u64, data: Payload) {
        self.writes.push((site, offset, data));
    }

    /// Number of buffered writes.
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    /// Tags `site` with the app-level key whose access routed to it. The
    /// first tag per site wins (matching [`Txn::read`] repeatability).
    /// Optional — untagged sites simply stay invisible to the
    /// false-conflict meter, since same-key vs stripe-collision cannot be
    /// told apart without the key.
    pub fn tag_key(&mut self, site: TxnSite, key: u64) {
        self.keys.entry(site).or_insert(key);
    }
}

/// Terminal state of a submitted transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TxnOutcome {
    /// Every buffered write is durable on every replica of every touched
    /// shard; versions bumped; locks released.
    Committed,
    /// No buffered write reached any replica; locks released. Re-read and
    /// retry.
    Aborted,
}

/// Why a transaction aborted — the single normative abort-cause list.
///
/// Classification is deterministic:
///
/// * an abort out of the Validate phase is [`AbortCause::ValidationFailed`]
///   for the first mismatching read leg (ack-dispatch order, which is
///   deterministic);
/// * an abort out of the acquisition path is [`AbortCause::LockConflict`]
///   when the final failed round observed the lock held by a *live*
///   transaction of this manager (the conflict is attributable to a site
///   and a holder);
/// * otherwise the attempt budget drained against a foreign/stale holder
///   or partial-acquisition churn: [`AbortCause::BackoffExhausted`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortCause {
    /// Lock acquisition lost to a live conflicting holder at `site`.
    LockConflict {
        /// The contended lock site.
        site: TxnSite,
    },
    /// A buffered read's version word moved between read and validation.
    ValidationFailed {
        /// The read site whose version moved.
        site: TxnSite,
        /// The app-level key tagged on the site, when known.
        key: Option<u64>,
        /// The version the validating gCAS observed.
        observed: u64,
        /// The version the transaction read.
        expected: u64,
    },
    /// The bounded retry budget drained without an attributable live
    /// conflict (foreign holder, partial-acquisition churn).
    BackoffExhausted,
}

/// The abort root-cause labels in [`AbortCause`] order: the closed key
/// set of a report's `abort_causes` block and of the
/// `txn.abort_causes.*` counters.
pub const ABORT_CAUSES: [&str; 3] = ["lock_conflict", "validation_failed", "backoff_exhausted"];

/// The per-site contention fields, in [`SiteContention`] field order:
/// the closed field set of the `txn.contention.*` roll-up (which adds
/// `contended_sites`) and of the per-site
/// `txn.contention.site.s<shard>.l<lock>.<field>` counters.
pub const CONTENTION_FIELDS: [&str; 7] = [
    "attempts",
    "cas_failures",
    "conflicts",
    "false_conflicts",
    "wait_ns",
    "backoff_retries",
    "queue_depth_hwm",
];

impl AbortCause {
    /// Stable snake_case label used in metric names and reports.
    pub fn label(&self) -> &'static str {
        match self {
            AbortCause::LockConflict { .. } => ABORT_CAUSES[0],
            AbortCause::ValidationFailed { .. } => ABORT_CAUSES[1],
            AbortCause::BackoffExhausted => ABORT_CAUSES[2],
        }
    }
}

/// Per-stripe lock contention telemetry, keyed by [`TxnSite`] in the
/// manager's contention table. Purely observational — the counters are
/// updated from acquisition acks and park decisions the state machine
/// takes anyway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SiteContention {
    /// Acquisition CAS rounds observed (acks, successful or not).
    pub attempts: u64,
    /// Rounds that failed to acquire (busy or partial).
    pub cas_failures: u64,
    /// Rounds that observed the word held by some owner (busy).
    pub conflicts: u64,
    /// Busy rounds where both contenders' key tags are known and differ:
    /// two distinct keys hashing to one stripe, not a data conflict.
    pub false_conflicts: u64,
    /// Backoff nanoseconds charged to this site (the loser parked here).
    pub wait_ns: u64,
    /// Backoff rounds charged to this site.
    pub backoff_retries: u64,
    /// High-water mark of transactions simultaneously waiting on the site.
    pub queue_hwm: u64,
}

impl SiteContention {
    /// The counters in [`CONTENTION_FIELDS`] order.
    fn counts(&self) -> [u64; 7] {
        [
            self.attempts,
            self.cas_failures,
            self.conflicts,
            self.false_conflicts,
            self.wait_ns,
            self.backoff_retries,
            self.queue_hwm,
        ]
    }
}

/// The multi-shard issue surface the transaction layer runs on. Both
/// [`ShardSet`] and app-level sharded stores implement it, so the same
/// commit protocol drives raw transports and full storage engines.
pub trait TxnTransports {
    /// Replication group size of one shard.
    fn txn_group_size(&self, shard: ShardId) -> u32;
    /// True if the shard can take another op right now.
    fn txn_can_issue(&self, shard: ShardId) -> bool;
    /// Issues one group op on one shard, returning its generation.
    ///
    /// # Errors
    ///
    /// [`GroupError::WindowFull`] when the shard has no room (the manager
    /// retries next pump) or [`GroupError::OutOfRange`] for bad offsets.
    fn txn_issue(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shard: ShardId,
        op: GroupOp,
    ) -> Result<u64, GroupError>;
}

impl<T: GroupTransport> TxnTransports for ShardSet<T> {
    fn txn_group_size(&self, shard: ShardId) -> u32 {
        self.shard(shard).group_size()
    }

    fn txn_can_issue(&self, shard: ShardId) -> bool {
        self.can_issue_on(shard)
    }

    fn txn_issue(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shard: ShardId,
        op: GroupOp,
    ) -> Result<u64, GroupError> {
        self.issue_on(ctx, shard, op)
    }
}

/// Lock acquisition rounds a transaction may lose before it aborts.
pub const MAX_LOCK_ATTEMPTS: u32 = 8;

/// What one leg does: the group op it issues and how its ack lands.
#[derive(Debug)]
enum Work {
    /// Acquire `site`'s lock word on every replica (gCAS free → owner);
    /// the ack's outcome is kept for the transition that follows.
    Lock(TxnSite, Option<WrLockOutcome>),
    /// Release `site`'s lock word with the retrying [`WrUndo`] protocol
    /// until it is observably free on every replica the owner won.
    Unlock(TxnSite, WrUndo),
    /// Check that a read's version word still holds the observed version
    /// (a no-op gCAS on the head replica).
    Check(TxnSite, u64),
    /// A flushed gWRITE: buffered data, probed as [`Probe::TxnWrite`]
    /// under `Some(lock)` at ack time, or a version bump (`None`).
    Write(GroupOp, Option<u32>),
}

/// One group op of the open phase, on one shard.
#[derive(Debug)]
struct Leg {
    shard: ShardId,
    /// The generation in flight; `None` until issued, and again after an
    /// unlock round that left a replica held.
    gen: Option<u64>,
    done: bool,
    work: Work,
}

impl Leg {
    fn new(shard: ShardId, work: Work) -> Leg {
        Leg {
            shard,
            gen: None,
            done: false,
            work,
        }
    }
}

/// The open commit phase: its trace code (the span open in the trace)
/// and the legs that must all be done before the run moves on.
#[derive(Debug)]
struct Phase {
    code: u8,
    legs: Vec<Leg>,
}

#[derive(Debug)]
struct TxnRun {
    txn: Txn,
    /// Sorted, deduplicated acquisition order; the next lock to take is
    /// `lock_sites[held.len()]`.
    lock_sites: Vec<TxnSite>,
    held: BTreeSet<TxnSite>,
    /// Acquisition rounds lost so far.
    attempts: u32,
    begun: bool,
    backoff: LockBackoff,
    /// Version-word values this commit installs, applied to the manager's
    /// cache on commit.
    new_versions: Vec<(TxnSite, u64)>,
    phase: Phase,
    /// Set at the first failing validation leg; turns the release that
    /// follows into an abort and wins the abort-cause classification.
    abort_cause: Option<AbortCause>,
    /// Site of the last failed acquisition round and whether the observed
    /// holder was a live transaction of this manager (attributable
    /// conflict) — the lock-side abort-cause evidence.
    last_conflict: Option<(TxnSite, bool)>,
}

/// Drives transactions to commit or abort over a sharded transport. See
/// the module docs for the protocol; see [`TxnManager::pump`] for the
/// driving contract.
#[derive(Debug)]
pub struct TxnManager {
    layout: TxnLayout,
    mode: CommitMode,
    seed: u64,
    next_id: u64,
    /// Per-site version cache: what this client last installed. Advances
    /// only at commit (`finish`), never from in-flight validation acks —
    /// the cache must stay in lockstep with the client-visible values, or
    /// a fresh version paired with a stale read validates cleanly and
    /// commits a lost update.
    versions: HashMap<TxnSite, u64>,
    active: BTreeMap<u64, TxnRun>,
    /// [`TxnManager::pump`]'s snapshot of the active ids, kept to reuse
    /// its buffer.
    pump_ids: Vec<u64>,
    /// `(shard, gen)` → owning transaction.
    gen_map: HashMap<(u32, u64), u64>,
    /// Parked transactions and their wake deadlines.
    deferred: Vec<(SimTime, u64)>,
    audit: Audit,
    /// Receives the txn phase spans and op tags (disabled by default —
    /// purely observational, never feeds back into the protocol).
    tracer: Tracer,
    /// Per-stripe lock contention telemetry.
    contention: BTreeMap<TxnSite, SiteContention>,
    /// Transactions currently waiting (lost a round, not yet acquired) per
    /// site; feeds the queue-depth high-water mark.
    waiting: BTreeMap<TxnSite, BTreeSet<u64>>,
    /// Transactions submitted via [`TxnManager::commit`].
    pub started: u64,
    /// Transactions that reached [`TxnOutcome::Committed`].
    pub committed: u64,
    /// Transactions that reached [`TxnOutcome::Aborted`].
    pub aborted: u64,
    /// Lock acquisition rounds retried after contention.
    pub lock_retries: u64,
    /// Aborts classified [`AbortCause::LockConflict`].
    pub abort_lock_conflict: u64,
    /// Aborts classified [`AbortCause::ValidationFailed`].
    pub abort_validation_failed: u64,
    /// Aborts classified [`AbortCause::BackoffExhausted`].
    pub abort_backoff_exhausted: u64,
    /// Total backoff nanoseconds scheduled across all parks (one park per
    /// [`LockBackoff::next_delay`] draw, so as many as `lock_retries`).
    pub backoff_delay_ns: u64,
}

impl TxnManager {
    /// A manager over `layout` words, committing via `mode`. `seed` drives
    /// the deterministic backoff jitter.
    pub fn new(layout: TxnLayout, mode: CommitMode, seed: u64) -> Self {
        TxnManager {
            layout,
            mode,
            seed,
            next_id: 0,
            versions: HashMap::new(),
            active: BTreeMap::new(),
            pump_ids: Vec::new(),
            gen_map: HashMap::new(),
            deferred: Vec::new(),
            audit: Audit::disabled(),
            tracer: Tracer::disabled(),
            contention: BTreeMap::new(),
            waiting: BTreeMap::new(),
            started: 0,
            committed: 0,
            aborted: 0,
            lock_retries: 0,
            abort_lock_conflict: 0,
            abort_validation_failed: 0,
            abort_backoff_exhausted: 0,
            backoff_delay_ns: 0,
        }
    }

    /// Installs the audit tap fed with the txn lifecycle probes.
    pub fn set_audit(&mut self, audit: Audit) {
        self.audit = audit;
    }

    /// Installs the tracer that receives [`TraceKind::TxnPhaseBegin`]/
    /// [`TraceKind::TxnPhaseEnd`] spans and [`TraceKind::TxnOp`] tags.
    /// Observational only: with or without a tracer the manager issues the
    /// same ops in the same order.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The per-site contention table (see [`SiteContention`]).
    pub fn contention(&self) -> &BTreeMap<TxnSite, SiteContention> {
        &self.contention
    }

    /// `(label, count)` snapshot of the abort-cause counters, in the
    /// normative label order. The counts always sum to
    /// [`TxnManager::aborted`].
    pub fn abort_cause_counts(&self) -> [(&'static str, u64); 3] {
        let counts = [
            self.abort_lock_conflict,
            self.abort_validation_failed,
            self.abort_backoff_exhausted,
        ];
        std::array::from_fn(|i| (ABORT_CAUSES[i], counts[i]))
    }

    /// Numeric commit-mode code carried in trace payloads (see
    /// `simcore::simtrace::txn_mode_label`).
    fn mode_code(&self) -> u8 {
        match self.mode {
            CommitMode::Locking => 0,
            CommitMode::Optimistic => 1,
        }
    }

    /// Closes the open phase span and opens `phase` at `now` (End then
    /// Begin at the same timestamp; the trace's stable sort preserves the
    /// emission order). No-op when the phase is unchanged.
    fn set_phase(&self, now: SimTime, run: &mut TxnRun, phase: u8) {
        if run.phase.code == phase {
            return;
        }
        let id = run.txn.id;
        let oid = txn_op_id(id);
        let mode = self.mode_code();
        self.tracer.emit(
            now,
            NO_NODE,
            oid,
            TraceKind::TxnPhaseEnd {
                txn: id,
                mode,
                phase: run.phase.code,
            },
        );
        self.tracer.emit(
            now,
            NO_NODE,
            oid,
            TraceKind::TxnPhaseBegin {
                txn: id,
                mode,
                phase,
            },
        );
        run.phase.code = phase;
    }

    /// The commit path in use.
    pub fn mode(&self) -> CommitMode {
        self.mode
    }

    /// The control-word layout.
    pub fn layout(&self) -> &TxnLayout {
        &self.layout
    }

    /// The cached version of `site` — record this with [`Txn::read`] when
    /// reading the data the site covers.
    pub fn version(&self, site: TxnSite) -> u64 {
        self.versions.get(&site).copied().unwrap_or(0)
    }

    /// Transactions submitted but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.active.len()
    }

    /// Starts assembling a transaction.
    pub fn begin(&mut self) -> Txn {
        let id = self.next_id;
        self.next_id += 1;
        self.started += 1;
        Txn {
            id,
            reads: BTreeMap::new(),
            writes: Vec::new(),
            keys: BTreeMap::new(),
        }
    }

    /// Submits a transaction for commit; drive it with
    /// [`TxnManager::pump`] until its id appears in the returned outcomes.
    pub fn commit(&mut self, txn: Txn) -> u64 {
        let id = txn.id;
        let mut sites: BTreeSet<TxnSite> = txn.writes.iter().map(|w| w.0).collect();
        if self.mode == CommitMode::Locking {
            sites.extend(txn.reads.keys().copied());
        }
        let run = TxnRun {
            lock_sites: sites.into_iter().collect(),
            held: BTreeSet::new(),
            attempts: 0,
            begun: false,
            backoff: LockBackoff::new(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            new_versions: Vec::new(),
            phase: Phase {
                code: TXN_PHASE_ACQUIRE,
                legs: Vec::new(),
            },
            abort_cause: None,
            last_conflict: None,
            txn,
        };
        self.active.insert(id, run);
        id
    }

    /// The lock-word owner id for a transaction (never zero, never
    /// colliding with [`WRITER_BIT`]).
    fn owner(id: u64) -> u64 {
        let owner = id + 1;
        assert!(owner & WRITER_BIT == 0, "txn id overflows the owner space");
        owner
    }

    /// One driver tick: dispatch this tick's shard acks to their
    /// transactions, wake parked transactions whose backoff expired (or
    /// immediately when the tick is idle, so an empty event queue cannot
    /// strand them), and issue whatever each phase is missing. Returns the
    /// transactions that finished this tick.
    pub fn pump<S: TxnTransports>(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shards: &mut S,
        acks: &[ShardAck],
    ) -> Vec<(u64, TxnOutcome)> {
        let now = ctx.now;
        let mut finished = Vec::new();
        for sa in acks {
            let key = (sa.shard.0, sa.ack.gen);
            if let Some(id) = self.gen_map.remove(&key) {
                self.on_ack(now, shards, id, sa.shard, &sa.ack, &mut finished);
            }
        }
        let idle = acks.is_empty();
        let mut i = 0;
        while i < self.deferred.len() {
            let (due, id) = self.deferred[i];
            if due <= now || idle {
                self.deferred.swap_remove(i);
                // The backoff span ends at the wake timestamp, where the
                // next acquisition round opens.
                if let Some(mut run) = self.active.remove(&id) {
                    if self.advance(now, &mut run, shards, &mut finished) {
                        self.active.insert(id, run);
                    }
                }
            } else {
                i += 1;
            }
        }
        let mut ids = std::mem::take(&mut self.pump_ids);
        ids.clear();
        ids.extend(self.active.keys().copied());
        for &id in &ids {
            self.step(ctx, shards, id, &mut finished);
        }
        self.pump_ids = ids;
        finished
    }

    /// Snapshots the transaction counters into `reg`:
    ///
    /// * `{prefix}.{started,committed,aborted,lock_retries}` counters plus
    ///   an `{prefix}.in_flight` gauge;
    /// * `{prefix}.abort_causes.{lock_conflict,validation_failed,backoff_exhausted}`
    ///   (always summing to `{prefix}.aborted`);
    /// * `{prefix}.backoff.delay_ns` — the [`LockBackoff`] delay drawn on
    ///   behalf of parked transactions;
    /// * `{prefix}.contention.*` — whole-manager sums (plus `queue_depth_hwm`
    ///   max and a `contended_sites` count) over the per-site table, and
    ///   `{prefix}.contention.site.s<shard>.l<lock>.<field>` detail for
    ///   each site that saw at least one failed CAS round.
    ///
    /// Idempotent re-export: every value is `counter_set`, not added.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.counter_set(&format!("{prefix}.started"), self.started);
        reg.counter_set(&format!("{prefix}.committed"), self.committed);
        reg.counter_set(&format!("{prefix}.aborted"), self.aborted);
        reg.counter_set(&format!("{prefix}.lock_retries"), self.lock_retries);
        reg.set_gauge(&format!("{prefix}.in_flight"), self.active.len() as f64);
        for (label, n) in self.abort_cause_counts() {
            reg.counter_set(&format!("{prefix}.abort_causes.{label}"), n);
        }
        reg.counter_set(&format!("{prefix}.backoff.delay_ns"), self.backoff_delay_ns);
        let mut total = SiteContention::default();
        let mut contended = 0u64;
        for (site, c) in &self.contention {
            total.attempts += c.attempts;
            total.cas_failures += c.cas_failures;
            total.conflicts += c.conflicts;
            total.false_conflicts += c.false_conflicts;
            total.wait_ns += c.wait_ns;
            total.backoff_retries += c.backoff_retries;
            total.queue_hwm = total.queue_hwm.max(c.queue_hwm);
            if c.cas_failures > 0 {
                contended += 1;
                let sp = format!("{prefix}.contention.site.s{}.l{}", site.shard.0, site.lock);
                for (field, n) in CONTENTION_FIELDS.iter().zip(c.counts()) {
                    reg.counter_set(&format!("{sp}.{field}"), n);
                }
            }
        }
        let cp = format!("{prefix}.contention");
        for (field, n) in CONTENTION_FIELDS.iter().zip(total.counts()) {
            reg.counter_set(&format!("{cp}.{field}"), n);
        }
        reg.counter_set(&format!("{cp}.contended_sites"), contended);
    }

    // ---- transitions --------------------------------------------------

    /// Moves `run` on once every leg of its open phase is done (or its
    /// backoff expired), following the phase table in DESIGN.md
    /// "Transactions". A phase with no legs is passed straight through: a
    /// validate, apply or release opens and closes its span at once, a
    /// rollback with nothing held opens none. Returns false when the run
    /// finished.
    fn advance<S: TxnTransports>(
        &mut self,
        now: SimTime,
        run: &mut TxnRun,
        shards: &S,
        finished: &mut Vec<(u64, TxnOutcome)>,
    ) -> bool {
        let mut from = run.phase.code;
        loop {
            let to = match (from, run.phase.legs.first().map(|l| &l.work)) {
                (TXN_PHASE_ACQUIRE, _) if run.held.len() == run.lock_sites.len() => {
                    TXN_PHASE_VALIDATE
                }
                (TXN_PHASE_ACQUIRE, Some(Work::Lock(_, Some(WrLockOutcome::Acquired)))) => {
                    TXN_PHASE_ACQUIRE
                }
                (TXN_PHASE_ACQUIRE, Some(Work::Lock(_, Some(WrLockOutcome::Partial { .. })))) => {
                    TXN_PHASE_UNDO
                }
                // A lost round (busy, or a partial win undone).
                (TXN_PHASE_ACQUIRE | TXN_PHASE_UNDO, _) => {
                    run.attempts += 1;
                    TXN_PHASE_ROLLBACK
                }
                (TXN_PHASE_ROLLBACK, _) if run.attempts < MAX_LOCK_ATTEMPTS => TXN_PHASE_BACKOFF,
                (TXN_PHASE_BACKOFF, _) => TXN_PHASE_ACQUIRE,
                (TXN_PHASE_VALIDATE, _) if run.abort_cause.is_none() => TXN_PHASE_APPLY,
                (TXN_PHASE_VALIDATE | TXN_PHASE_APPLY, _) => TXN_PHASE_RELEASE,
                (TXN_PHASE_ROLLBACK | TXN_PHASE_RELEASE, _) => {
                    let commit = from == TXN_PHASE_RELEASE && run.abort_cause.is_none();
                    self.finish(now, run, commit, finished);
                    return false;
                }
                _ => unreachable!("no txn phase {from}"),
            };
            let legs = self.legs(to, run, shards);
            if to != TXN_PHASE_ROLLBACK || !legs.is_empty() {
                self.set_phase(now, run, to);
            }
            run.phase.legs = legs;
            if to == TXN_PHASE_BACKOFF {
                // Park: the deferred queue wakes the run into its next
                // acquisition round after a jittered delay.
                self.lock_retries += 1;
                let delay = run.backoff.next_delay();
                self.backoff_delay_ns += delay.as_nanos();
                // Charge the wait to the site that lost the round, when known.
                if let Some((site, _)) = run.last_conflict {
                    let c = self.contention.entry(site).or_default();
                    c.wait_ns += delay.as_nanos();
                    c.backoff_retries += 1;
                }
                self.deferred.push((now.saturating_add(delay), run.txn.id));
                return true;
            }
            if !run.phase.legs.is_empty() {
                return true;
            }
            from = to;
        }
    }

    /// The legs of phase `code` for `run` (none for a backoff). Apply
    /// also fixes the version-word values the commit installs.
    fn legs<S: TxnTransports>(&self, code: u8, run: &mut TxnRun, shards: &S) -> Vec<Leg> {
        match code {
            TXN_PHASE_ACQUIRE => run
                .lock_sites
                .get(run.held.len())
                .map(|&site| Leg::new(site.shard, Work::Lock(site, None)))
                .into_iter()
                .collect(),
            TXN_PHASE_UNDO => match run.phase.legs[0].work {
                Work::Lock(site, Some(WrLockOutcome::Partial { undo })) => {
                    vec![Leg::new(site.shard, Work::Unlock(site, undo))]
                }
                _ => unreachable!("an undo follows a partial acquisition"),
            },
            TXN_PHASE_ROLLBACK | TXN_PHASE_RELEASE => {
                let owner = Self::owner(run.txn.id);
                run.held
                    .iter()
                    .map(|&site| {
                        let winners = ExecuteMap::all(shards.txn_group_size(site.shard));
                        let undo = WrUndo::new(site.lock, owner, winners);
                        Leg::new(site.shard, Work::Unlock(site, undo))
                    })
                    .collect()
            }
            TXN_PHASE_VALIDATE => run
                .txn
                .reads
                .iter()
                .map(|(&site, &observed)| Leg::new(site.shard, Work::Check(site, observed)))
                .collect(),
            TXN_PHASE_APPLY => {
                let write = |offset, data| GroupOp::Write {
                    offset,
                    data,
                    flush: true,
                };
                let mut legs: Vec<Leg> = run
                    .txn
                    .writes
                    .iter()
                    .map(|(site, offset, data)| {
                        let op = write(*offset, data.clone());
                        Leg::new(site.shard, Work::Write(op, Some(site.lock)))
                    })
                    .collect();
                // One version bump per written site.
                let bumped: BTreeMap<TxnSite, u64> = run
                    .txn
                    .writes
                    .iter()
                    .map(|w| (w.0, self.version(w.0) + 1))
                    .collect();
                for (&site, &v) in &bumped {
                    let offset = self.layout.version_offset(site.lock);
                    let op = write(offset, Payload::copy_from(&v.to_le_bytes()));
                    legs.push(Leg::new(site.shard, Work::Write(op, None)));
                }
                run.new_versions = bumped.into_iter().collect();
                legs
            }
            _ => Vec::new(),
        }
    }

    fn finish(
        &mut self,
        now: SimTime,
        run: &TxnRun,
        commit: bool,
        finished: &mut Vec<(u64, TxnOutcome)>,
    ) {
        debug_assert!(run.held.is_empty(), "finishing with locks held");
        // The txn is leaving every wait queue it ever joined.
        for site in &run.lock_sites {
            if let Some(w) = self.waiting.get_mut(site) {
                w.remove(&run.txn.id);
                if w.is_empty() {
                    self.waiting.remove(site);
                }
            }
        }
        // Close the trace: the span that is open at finish time ends here.
        self.tracer.emit(
            now,
            NO_NODE,
            txn_op_id(run.txn.id),
            TraceKind::TxnPhaseEnd {
                txn: run.txn.id,
                mode: self.mode_code(),
                phase: run.phase.code,
            },
        );
        if commit {
            for &(site, v) in &run.new_versions {
                self.versions.insert(site, v);
            }
            self.committed += 1;
            self.audit.probe(
                now,
                Probe::TxnCommit {
                    txn: run.txn.id,
                    writes: run.txn.writes.len() as u64,
                },
            );
            finished.push((run.txn.id, TxnOutcome::Committed));
        } else {
            self.aborted += 1;
            // Root-cause classification, in normative precedence order: a
            // validation mismatch recorded on the run wins; else a lock
            // conflict whose final failed round saw a live holder; else
            // the budget drained without an attributable live conflict.
            let cause = run.abort_cause.unwrap_or(match run.last_conflict {
                Some((site, true)) => AbortCause::LockConflict { site },
                _ => AbortCause::BackoffExhausted,
            });
            match cause {
                AbortCause::LockConflict { .. } => self.abort_lock_conflict += 1,
                AbortCause::ValidationFailed { .. } => self.abort_validation_failed += 1,
                AbortCause::BackoffExhausted => self.abort_backoff_exhausted += 1,
            }
            self.audit.probe(now, Probe::TxnAbort { txn: run.txn.id });
            finished.push((run.txn.id, TxnOutcome::Aborted));
        }
    }

    // ---- contention telemetry -----------------------------------------

    /// A lock round won `site`: leave its wait queue.
    fn note_lock_acquired(&mut self, id: u64, site: TxnSite) {
        if let Some(w) = self.waiting.get_mut(&site) {
            w.remove(&id);
            if w.is_empty() {
                self.waiting.remove(&site);
            }
        }
    }

    /// A lock round lost `site` to `holder`'s word. Updates the conflict
    /// and false-conflict meters and the wait queue; returns whether the
    /// holder is a live transaction of this manager.
    fn note_lock_busy(&mut self, id: u64, site: TxnSite, holder: u64, my_key: Option<u64>) -> bool {
        let holder_txn = if holder & WRITER_BIT != 0 {
            // Lock-word owner ids are `txn id + 1` (see `owner`).
            (holder & !WRITER_BIT).checked_sub(1)
        } else {
            None
        };
        // `id`'s run is out of `active` while its ack dispatches, so a
        // holder lookup can never alias the loser itself.
        let live = holder_txn.is_some_and(|t| self.active.contains_key(&t));
        let holder_key = holder_txn
            .and_then(|t| self.active.get(&t))
            .and_then(|r| r.txn.keys.get(&site).copied());
        // Same stripe, both keys known, keys differ: a stripe collision
        // (false conflict), not a data conflict.
        let false_conflict = live && matches!((my_key, holder_key), (Some(a), Some(b)) if a != b);
        let c = self.contention.entry(site).or_default();
        c.cas_failures += 1;
        c.conflicts += 1;
        if false_conflict {
            c.false_conflicts += 1;
        }
        let w = self.waiting.entry(site).or_default();
        w.insert(id);
        let depth = w.len() as u64;
        let c = self.contention.entry(site).or_default();
        c.queue_hwm = c.queue_hwm.max(depth);
        live
    }

    // ---- ack dispatch -------------------------------------------------

    /// Lands one ack on the leg that issued it, then moves the run on once
    /// its phase has no leg left to finish.
    fn on_ack<S: TxnTransports>(
        &mut self,
        now: SimTime,
        shards: &S,
        id: u64,
        shard: ShardId,
        ack: &GroupAck,
        finished: &mut Vec<(u64, TxnOutcome)>,
    ) {
        let Some(mut run) = self.active.remove(&id) else {
            return;
        };
        let Some(leg) = run
            .phase
            .legs
            .iter_mut()
            .find(|l| l.gen == Some(ack.gen) && l.shard == shard)
        else {
            self.active.insert(id, run);
            return;
        };
        leg.gen = None;
        leg.done = match &mut leg.work {
            Work::Lock(site, outcome) => {
                let site = *site;
                self.contention.entry(site).or_default().attempts += 1;
                let won = self
                    .layout
                    .locks
                    .interpret_wr_lock(ack, site.lock, Self::owner(id));
                match won {
                    WrLockOutcome::Acquired => {
                        self.note_lock_acquired(id, site);
                        self.audit.probe(
                            now,
                            Probe::TxnLock {
                                txn: id,
                                shard: site.shard.0,
                                lock: site.lock,
                            },
                        );
                        run.held.insert(site);
                    }
                    WrLockOutcome::Busy { holder } => {
                        let live =
                            self.note_lock_busy(id, site, holder, run.txn.keys.get(&site).copied());
                        run.last_conflict = Some((site, live));
                    }
                    WrLockOutcome::Partial { .. } => {
                        // A partial acquisition is a failed CAS round but
                        // not an attributable conflict: the replicas
                        // disagreed, no single live holder beat us.
                        self.contention.entry(site).or_default().cas_failures += 1;
                        run.last_conflict = Some((site, false));
                    }
                }
                *outcome = Some(won);
                true
            }
            Work::Unlock(site, undo) => {
                let released = undo.absorb(ack);
                // Only a lock the run held is probed: the undo of a partial
                // acquisition releases a site it never took.
                if released && run.held.remove(site) {
                    self.audit.probe(
                        now,
                        Probe::TxnUnlock {
                            txn: id,
                            shard: site.shard.0,
                            lock: site.lock,
                        },
                    );
                }
                released
            }
            Work::Check(site, observed) => {
                let actual = ack.cas_observed(0);
                // Mismatch aborts, but must NOT correct the version cache:
                // `actual` may belong to a concurrent commit whose values
                // are not client-visible yet. Advancing the cache here
                // lets the next transaction pair the new version with a
                // stale read — a torn (value, version) pair that validates
                // cleanly and commits a lost update. The cache advances
                // only in `finish`, when the bumping commit's values
                // install. The first mismatching leg (ack order, which is
                // deterministic) names the abort cause.
                if actual != *observed && run.abort_cause.is_none() {
                    run.abort_cause = Some(AbortCause::ValidationFailed {
                        site: *site,
                        key: run.txn.keys.get(site).copied(),
                        observed: actual,
                        expected: *observed,
                    });
                }
                true
            }
            Work::Write(_, lock) => {
                if let Some(lock) = *lock {
                    self.audit.probe(
                        now,
                        Probe::TxnWrite {
                            txn: id,
                            shard: shard.0,
                            lock,
                        },
                    );
                }
                true
            }
        };
        if run.phase.legs.iter().any(|l| !l.done) || self.advance(now, &mut run, shards, finished) {
            self.active.insert(id, run);
        }
    }

    // ---- issuance -----------------------------------------------------

    /// Issues `op` on `shard` for `id`, recording the generation. Window
    /// pressure leaves the slot empty for the next pump; anything else is
    /// a layout bug.
    fn issue_for<S: TxnTransports>(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shards: &mut S,
        id: u64,
        shard: ShardId,
        op: GroupOp,
    ) -> Option<u64> {
        if !shards.txn_can_issue(shard) {
            return None;
        }
        match shards.txn_issue(ctx, shard, op) {
            Ok(gen) => {
                self.gen_map.insert((shard.0, gen), id);
                // Tag the op with its parent txn so attribution can group
                // txn-issued gCAS/gWRITE traffic apart from bare ops. The
                // tag sorts after the transport's own issue event (same
                // timestamp; the trace sort is stable).
                self.tracer
                    .emit(ctx.now, NO_NODE, gen, TraceKind::TxnOp { txn: id });
                Some(gen)
            }
            Err(GroupError::WindowFull) => None,
            Err(e) => panic!("txn {id} issue on {shard} failed: {e}"),
        }
    }

    /// The group op that carries `work` for the transaction `owner`.
    fn op<S: TxnTransports>(&self, work: &Work, owner: u64, shards: &S) -> GroupOp {
        match work {
            Work::Lock(site, _) => GroupOp::Cas {
                offset: self.layout.locks.word_offset(site.lock),
                compare: 0,
                swap: WRITER_BIT | owner,
                execute: ExecuteMap::all(shards.txn_group_size(site.shard)),
            },
            Work::Unlock(_, undo) => undo.op(&self.layout.locks),
            Work::Check(site, observed) => GroupOp::Cas {
                offset: self.layout.version_offset(site.lock),
                compare: *observed,
                swap: *observed,
                execute: ExecuteMap::none().with(0),
            },
            Work::Write(op, _) => op.clone(),
        }
    }

    /// Begins `id` on its first step, then issues every leg of its phase
    /// that is neither done nor in flight, in leg order.
    fn step<S: TxnTransports>(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shards: &mut S,
        id: u64,
        finished: &mut Vec<(u64, TxnOutcome)>,
    ) {
        let Some(run) = self.active.get(&id) else {
            return;
        };
        if !run.begun {
            // `advance` borrows the manager and the run together, so the
            // first step takes the run out of the map.
            let mut run = self.active.remove(&id).expect("the run is active");
            run.begun = true;
            self.audit.probe(ctx.now, Probe::TxnBegin { txn: id });
            self.tracer.emit(
                ctx.now,
                NO_NODE,
                txn_op_id(id),
                TraceKind::TxnPhaseBegin {
                    txn: id,
                    mode: self.mode_code(),
                    phase: TXN_PHASE_ACQUIRE,
                },
            );
            run.phase.legs = self.legs(TXN_PHASE_ACQUIRE, &mut run, shards);
            if run.phase.legs.is_empty() && !self.advance(ctx.now, &mut run, shards, finished) {
                return;
            }
            self.active.insert(id, run);
        }
        // Most steps find every leg in flight or done (waiting on acks, or
        // parked): they leave the run as it is.
        let run = self.active.get_mut(&id).expect("the run is active");
        let unissued = |l: &Leg| !l.done && l.gen.is_none();
        if !run.phase.legs.iter().any(unissued) {
            return;
        }
        let mut legs = std::mem::take(&mut run.phase.legs);
        let owner = Self::owner(id);
        for leg in legs.iter_mut().filter(|l| unissued(l)) {
            let op = self.op(&leg.work, owner, shards);
            leg.gen = self.issue_for(ctx, shards, id, leg.shard, op);
        }
        let run = self.active.get_mut(&id).expect("the run is active");
        run.phase.legs = legs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupConfig;
    use crate::group::{GroupClient, HyperLoopGroup};
    use crate::harness::{drive, fabric_sim, FabricSim};
    use netsim::NodeId;
    use simcore::Simulation;

    const CLIENT: NodeId = NodeId(0);

    /// Per-shard replica nodes and shared-region base.
    type ShardInfo = Vec<(Vec<NodeId>, u64)>;

    /// One client node plus `n_shards` disjoint 2-replica chains behind a
    /// [`ShardSet`]. Returns each shard's replica nodes and shared base.
    fn setup(n_shards: u32) -> (Simulation<FabricSim>, ShardSet<GroupClient>, ShardInfo) {
        let mut sim = fabric_sim(1 + 2 * n_shards, 64 << 20, 31);
        let mut clients = Vec::new();
        let mut info = Vec::new();
        for s in 0..n_shards {
            let nodes = vec![NodeId(1 + 2 * s), NodeId(2 + 2 * s)];
            let group = drive(&mut sim, |ctx| {
                HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
            });
            sim.run();
            info.push((nodes, group.client.layout().shared_base));
            clients.push(group.client);
        }
        (sim, ShardSet::with_hash_router(clients), info)
    }

    fn layout() -> TxnLayout {
        TxnLayout::standard(1024, 16)
    }

    /// Pump until every submitted transaction finishes.
    fn drive_txns(
        sim: &mut Simulation<FabricSim>,
        shards: &mut ShardSet<GroupClient>,
        mgr: &mut TxnManager,
    ) -> Vec<(u64, TxnOutcome)> {
        let mut done = Vec::new();
        for _ in 0..400 {
            sim.run();
            let fin = drive(sim, |ctx| {
                let acks = shards.poll(ctx);
                mgr.pump(ctx, shards, &acks)
            });
            done.extend(fin);
            if mgr.in_flight() == 0 {
                break;
            }
        }
        assert_eq!(mgr.in_flight(), 0, "transactions wedged");
        done
    }

    fn word_at(sim: &mut Simulation<FabricSim>, node: NodeId, addr: u64) -> u64 {
        u64::from_le_bytes(
            sim.model
                .fab
                .mem(node)
                .read_vec(addr, 8)
                .unwrap()
                .try_into()
                .unwrap(),
        )
    }

    #[test]
    fn layout_places_versions_after_locks() {
        let l = layout();
        assert_eq!(l.lock_count(), 16);
        assert_eq!(l.locks().word_offset(0), 1024);
        assert_eq!(l.version_offset(0), 1024 + 16 * 8);
        assert_eq!(l.version_offset(1) - l.version_offset(0), 8);
    }

    #[test]
    fn locking_commit_spans_shards() {
        let (mut sim, mut shards, info) = setup(2);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Locking, 7);
        mgr.set_audit(audit.clone());

        let s0 = TxnSite {
            shard: ShardId(0),
            lock: 2,
        };
        let s1 = TxnSite {
            shard: ShardId(1),
            lock: 2,
        };
        let mut t = mgr.begin();
        t.read(s0, mgr.version(s0));
        t.write(s0, 4096, Payload::copy_from(b"alpha"));
        t.write(s1, 4096, Payload::copy_from(b"bravo"));
        let id = mgr.commit(t);

        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(id, TxnOutcome::Committed)]);
        assert_eq!(mgr.committed, 1);
        assert_eq!(mgr.aborted, 0);

        // Both shards' replicas carry their write.
        for (si, bytes) in [(0usize, b"alpha"), (1, b"bravo")] {
            let (nodes, base) = &info[si];
            for &n in nodes {
                assert_eq!(
                    sim.model.fab.mem(n).read_vec(base + 4096, 5).unwrap(),
                    bytes,
                    "shard {si} replica {n} missing txn write"
                );
            }
        }
        // Lock words free, versions bumped, on every replica.
        let l = layout();
        for (si, site) in [(0usize, s0), (1, s1)] {
            let (nodes, base) = &info[si];
            for &n in nodes {
                assert_eq!(
                    word_at(&mut sim, n, base + l.locks().word_offset(site.lock)),
                    0,
                    "lock leaked on shard {si} replica {n}"
                );
                assert_eq!(
                    word_at(&mut sim, n, base + l.version_offset(site.lock)),
                    1,
                    "version not bumped on shard {si} replica {n}"
                );
            }
            assert_eq!(mgr.version(site), 1);
        }
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn optimistic_conflict_aborts_then_retry_commits() {
        let (mut sim, mut shards, _) = setup(2);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Optimistic, 9);
        mgr.set_audit(audit.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 3,
        };

        // A and B both read version 0 of the same site (the classic
        // read-modify-write race).
        let mut a = mgr.begin();
        a.read(site, mgr.version(site));
        a.write(site, 8192, Payload::copy_from(b"AAAA"));
        let mut b = mgr.begin();
        b.read(site, mgr.version(site));
        b.write(site, 8192, Payload::copy_from(b"BBBB"));

        // A commits first and bumps the version.
        let ida = mgr.commit(a);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(ida, TxnOutcome::Committed)]);

        // B's conflict range moved: validation must abort it.
        let idb = mgr.commit(b);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(idb, TxnOutcome::Aborted)]);
        assert_eq!(mgr.aborted, 1);
        // Root cause: the read's conflict range moved.
        assert_eq!(mgr.abort_validation_failed, 1);
        assert_eq!(mgr.abort_lock_conflict, 0);
        assert_eq!(mgr.abort_backoff_exhausted, 0);
        // The failed validation corrected the cached version.
        assert_eq!(mgr.version(site), 1);

        // Retry with a fresh read: commits.
        let mut b2 = mgr.begin();
        b2.read(site, mgr.version(site));
        b2.write(site, 8192, Payload::copy_from(b"BBBB"));
        let idb2 = mgr.commit(b2);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(idb2, TxnOutcome::Committed)]);
        assert_eq!(mgr.committed, 2);
        assert_eq!(mgr.version(site), 2);
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn contended_locking_txns_serialize_via_backoff() {
        let (mut sim, mut shards, info) = setup(1);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Locking, 3);
        mgr.set_audit(audit.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 5,
        };

        let mut a = mgr.begin();
        a.write(site, 2048, Payload::copy_from(b"AAAA"));
        let mut b = mgr.begin();
        b.write(site, 2048, Payload::copy_from(b"BBBB"));
        let ida = mgr.commit(a);
        let idb = mgr.commit(b);

        let mut done = drive_txns(&mut sim, &mut shards, &mut mgr);
        done.sort();
        assert_eq!(
            done,
            vec![(ida, TxnOutcome::Committed), (idb, TxnOutcome::Committed)]
        );
        assert!(mgr.lock_retries >= 1, "loser must have retried");
        // The contention profiler saw the fight over the stripe.
        assert!(mgr.backoff_delay_ns > 0);
        let c = *mgr.contention().get(&site).expect("contended site tracked");
        assert!(c.attempts >= 3, "winner + loser rounds: {c:?}");
        assert!(c.cas_failures >= 1 && c.conflicts >= 1, "{c:?}");
        assert!(c.wait_ns > 0 && c.backoff_retries >= 1, "{c:?}");
        assert!(c.queue_hwm >= 1, "{c:?}");
        assert_eq!(
            c.false_conflicts, 0,
            "untagged keys must never count as false conflicts"
        );
        let (nodes, base) = &info[0];
        let bytes = sim
            .model
            .fab
            .mem(nodes[0])
            .read_vec(base + 2048, 4)
            .unwrap();
        assert!(
            bytes == b"AAAA" || bytes == b"BBBB",
            "final value must be one full write: {bytes:?}"
        );
        assert_eq!(
            word_at(&mut sim, nodes[0], base + layout().locks().word_offset(5)),
            0
        );
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn foreign_holder_exhausts_attempts_and_aborts_clean() {
        let (mut sim, mut shards, info) = setup(1);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Locking, 5);
        mgr.set_audit(audit.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 7,
        };
        // A foreign owner holds the lock on every replica, forever.
        let (nodes, base) = info[0].clone();
        let addr = base + layout().locks().word_offset(site.lock);
        for &n in &nodes {
            sim.model
                .fab
                .mem(n)
                .write_durable(addr, &(WRITER_BIT | 999).to_le_bytes())
                .unwrap();
        }

        let mut t = mgr.begin();
        t.write(site, 2048, Payload::copy_from(b"nope"));
        let id = mgr.commit(t);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(id, TxnOutcome::Aborted)]);
        assert_eq!(mgr.aborted, 1);
        // A foreign holder is not a live transaction of this manager, so
        // the abort attributes to the drained retry budget.
        assert_eq!(mgr.abort_backoff_exhausted, 1);
        assert_eq!(mgr.abort_lock_conflict, 0);
        let total: u64 = mgr.abort_cause_counts().iter().map(|(_, n)| n).sum();
        assert_eq!(total, mgr.aborted, "causes must sum to aborted");
        // No residue: the buffered write never reached the replicas.
        assert_eq!(
            sim.model
                .fab
                .mem(nodes[0])
                .read_vec(base + 2048, 4)
                .unwrap(),
            vec![0; 4]
        );
        // The foreign word is untouched.
        assert_eq!(word_at(&mut sim, nodes[0], addr), WRITER_BIT | 999);
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn partial_acquisition_is_undone_on_every_replica() {
        let (mut sim, mut shards, info) = setup(1);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Locking, 11);
        mgr.set_audit(audit.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 4,
        };
        // Poison replica 1 only: acquisitions go partial (replica 0 wins).
        let (nodes, base) = info[0].clone();
        let addr = base + layout().locks().word_offset(site.lock);
        sim.model
            .fab
            .mem(nodes[1])
            .write_durable(addr, &(WRITER_BIT | 999).to_le_bytes())
            .unwrap();

        let mut t = mgr.begin();
        t.write(site, 2048, Payload::copy_from(b"nope"));
        let id = mgr.commit(t);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(id, TxnOutcome::Aborted)]);
        assert!(mgr.lock_retries >= 1);
        // The winner replica's word returned to free after every undo.
        assert_eq!(
            word_at(&mut sim, nodes[0], addr),
            0,
            "partial winner must be released"
        );
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn read_only_txn_commits_without_writes() {
        let (mut sim, mut shards, _) = setup(1);
        let audit = Audit::standard();
        let mut mgr = TxnManager::new(layout(), CommitMode::Optimistic, 13);
        mgr.set_audit(audit.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 1,
        };
        let mut t = mgr.begin();
        t.read(site, mgr.version(site));
        let id = mgr.commit(t);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done, vec![(id, TxnOutcome::Committed)]);
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }

    #[test]
    fn traced_phases_pair_and_tile_commit_latency() {
        let (mut sim, mut shards, _) = setup(2);
        let audit = Audit::standard();
        let tracer = Tracer::enabled(1 << 14).with_audit(audit.clone());
        let mut mgr = TxnManager::new(layout(), CommitMode::Locking, 21);
        mgr.set_audit(audit.clone());
        mgr.set_tracer(tracer.clone());
        let site = TxnSite {
            shard: ShardId(0),
            lock: 6,
        };
        let other = TxnSite {
            shard: ShardId(1),
            lock: 9,
        };

        // A contended pair (the loser walks the backoff phase) plus a
        // read-modify-write on the other shard.
        let mut a = mgr.begin();
        a.write(site, 2048, Payload::copy_from(b"AAAA"));
        let mut b = mgr.begin();
        b.write(site, 2048, Payload::copy_from(b"BBBB"));
        let mut c = mgr.begin();
        c.read(other, mgr.version(other));
        c.write(other, 4096, Payload::copy_from(b"CCCC"));
        mgr.commit(a);
        mgr.commit(b);
        mgr.commit(c);
        let done = drive_txns(&mut sim, &mut shards, &mut mgr);
        assert_eq!(done.len(), 3);
        assert!(done.iter().all(|(_, o)| *o == TxnOutcome::Committed));

        let events = tracer.events();
        let att = simcore::TxnAttribution::from_events(&events);
        assert_eq!(att.txns, 3);
        assert_eq!(att.truncated, 0, "all spans must pair Begin/End");
        assert!(att.linked_ops > 0, "txn ops must carry parent tags");
        // The tiling contract: per-phase means sum to the mean commit
        // latency, within float rounding of a nanosecond.
        let diff = (att.mean_e2e_ns() - att.phase_mean_sum_ns()).abs();
        assert!(diff <= 1.0, "phase means must tile e2e (off by {diff} ns)");
        for phase in ["acquire", "apply", "release", "backoff"] {
            assert!(att.phases.contains_key(phase), "missing phase {phase}");
        }
        // The phase-pairing auditor watched every emission.
        assert_eq!(audit.violation_count(), 0, "report:\n{}", audit.report());
    }
}
