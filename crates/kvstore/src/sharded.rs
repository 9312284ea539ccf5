//! The sharded KV front end: many replicated stores behind one key router.
//!
//! Each shard is a full [`ReplicatedKv`] — its own replication chain, its
//! own WAL ring, its own memtable slice — and a [`HashRouter`] decides
//! which shard owns each key. Appends therefore hit *per-shard* WALs: two
//! keys on different shards replicate down disjoint chains concurrently,
//! which is where the aggregate-throughput scaling of the shard-scaling
//! bench comes from.

use crate::{CompletedPut, KvError, ReplicatedKv, CONTROL_SIZE, MAX_VALUE, SLOT_SIZE};
use hyperloop::shard::{HashRouter, ShardAck, ShardId};
use hyperloop::txn::{CommitMode, Txn, TxnLayout, TxnManager, TxnOutcome, TxnSite, TxnTransports};
use hyperloop::{GroupError, GroupOp, GroupTransport};
use rnicsim::{NicCtx, Payload};
use simcore::{Audit, Tracer};
use std::collections::HashMap;
use std::fmt;

/// Lock (and version) words per shard for the transaction layer. Keys are
/// striped onto lock ids (`key % TXN_LOCKS`), so unrelated keys may share a
/// lock — a false conflict, never a missed one.
pub const TXN_LOCKS: u32 = 64;

/// A multi-key transaction being assembled against a [`ShardedKv`]: the
/// protocol-level read/write sets plus the staged memtable values that are
/// installed only if the commit succeeds. Build with [`ShardedKv::txn`],
/// populate with [`ShardedKv::txn_get`] / [`ShardedKv::txn_put`], submit
/// with [`ShardedKv::txn_commit`].
#[derive(Debug)]
pub struct KvTxn {
    inner: Txn,
    staged: Vec<(u64, Vec<u8>)>,
}

impl KvTxn {
    /// The transaction's id.
    pub fn id(&self) -> u64 {
        self.inner.id()
    }

    /// Number of staged writes.
    pub fn write_count(&self) -> usize {
        self.staged.len()
    }
}

/// Transaction machinery riding on a [`ShardedKv`]: the protocol state
/// machine plus the per-transaction staged values awaiting commit.
struct TxnState {
    mgr: TxnManager,
    staged: HashMap<u64, Vec<(u64, Vec<u8>)>>,
    acks: Vec<ShardAck>,
}

/// A sharded replicated KV store (client/primary side).
pub struct ShardedKv<T> {
    shards: Vec<ReplicatedKv<T>>,
    txns: Option<TxnState>,
}

impl<T: fmt::Debug> fmt::Debug for ShardedKv<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedKv")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl<T: GroupTransport> ShardedKv<T> {
    /// Builds the sharded store over already-wired per-shard stores (shard
    /// id = position), routing keys with [`HashRouter`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn with_hash_router(shards: Vec<ReplicatedKv<T>>) -> Self {
        assert!(!shards.is_empty(), "sharded store needs at least one shard");
        ShardedKv { shards, txns: None }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard that owns `key`.
    pub fn route(&self, key: u64) -> ShardId {
        HashRouter::route(key, self.shard_count())
    }

    /// One shard's store.
    pub fn shard(&self, id: ShardId) -> &ReplicatedKv<T> {
        &self.shards[id.0 as usize]
    }

    /// One shard's store, mutably (maintenance, checkpoints, transport).
    pub fn shard_mut(&mut self, id: ShardId) -> &mut ReplicatedKv<T> {
        &mut self.shards[id.0 as usize]
    }

    /// Iterates `(id, store)` over all shards.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &ReplicatedKv<T>)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| (ShardId(i as u32), s))
    }

    /// Total keys present across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True if no shard holds any key.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Reads `key` from its shard's memtable.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.shards[self.route(key).0 as usize].get(key)
    }

    /// Durable replicated write: routes `key` to its shard and appends to
    /// that shard's WAL (the per-shard critical path). Returns the shard
    /// and the per-shard generation; completion arrives via
    /// [`ShardedKv::poll`].
    ///
    /// # Errors
    ///
    /// [`KvError`] on geometry violations or owning-shard back-pressure
    /// (other shards may still have room).
    pub fn put(
        &mut self,
        ctx: &mut NicCtx<'_>,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(ShardId, u64), KvError> {
        let shard = self.route(key);
        let gen = self.shards[shard.0 as usize].put(ctx, key, value)?;
        Ok((shard, gen))
    }

    /// Collects completions from every shard, tagged with their shard.
    /// When transactions are enabled, acks belonging to the transaction
    /// layer are set aside for the next [`ShardedKv::pump_txns`] instead of
    /// being dropped.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<(ShardId, CompletedPut)> {
        let mut done = Vec::new();
        for (i, store) in self.shards.iter_mut().enumerate() {
            let shard = ShardId(i as u32);
            let (puts, foreign) = store.poll_raw(ctx);
            done.extend(puts.into_iter().map(|p| (shard, p)));
            if let Some(st) = self.txns.as_mut() {
                st.acks
                    .extend(foreign.into_iter().map(|ack| ShardAck { shard, ack }));
            }
        }
        done
    }

    /// Off-critical-path maintenance on every shard: applies up to
    /// `max_records_per_shard` backlogged WAL records each. Returns the
    /// total applied.
    pub fn checkpoint(&mut self, ctx: &mut NicCtx<'_>, max_records_per_shard: usize) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.checkpoint(ctx, max_records_per_shard))
            .sum()
    }

    /// Sum of WAL records appended but not yet checkpointed.
    pub fn wal_backlog(&self) -> usize {
        self.shards.iter().map(|s| s.wal_backlog()).sum()
    }

    // --- Multi-key transactions -------------------------------------------

    /// Enables multi-key transactions with the given commit path and
    /// deterministic backoff seed. The lock and version words live in every
    /// shard's control area, right after the WAL head pointer — space the
    /// WAL never touches — so transactions and plain puts coexist on the
    /// same chains.
    ///
    /// # Panics
    ///
    /// Panics if transactions are already enabled, or if the control area
    /// is too small for [`TXN_LOCKS`] lock + version words.
    pub fn enable_txns(&mut self, mode: CommitMode, seed: u64) {
        assert!(self.txns.is_none(), "transactions already enabled");
        let layout = TxnLayout::standard(16, TXN_LOCKS);
        assert!(
            layout.version_offset(TXN_LOCKS - 1) + 8 <= CONTROL_SIZE,
            "control area ({CONTROL_SIZE} B) too small for {TXN_LOCKS} txn words"
        );
        self.txns = Some(TxnState {
            mgr: TxnManager::new(layout, mode, seed),
            staged: HashMap::new(),
            acks: Vec::new(),
        });
    }

    /// Attaches an auditor to the transaction manager (lifecycle probes:
    /// begin/lock/write/commit/abort).
    ///
    /// # Panics
    ///
    /// Panics if transactions are not enabled.
    pub fn set_txn_audit(&mut self, audit: Audit) {
        self.txn_state().mgr.set_audit(audit);
    }

    /// Attaches a tracer to the transaction manager: phase spans
    /// (acquire/validate/apply/release/…) per transaction plus parent-txn
    /// tags on every op the commit protocol issues. Observational only.
    ///
    /// # Panics
    ///
    /// Panics if transactions are not enabled.
    pub fn set_txn_tracer(&mut self, tracer: Tracer) {
        self.txn_state().mgr.set_tracer(tracer);
    }

    /// The transaction manager (counters, mode, cached versions).
    ///
    /// # Panics
    ///
    /// Panics if transactions are not enabled.
    pub fn txn_manager(&self) -> &TxnManager {
        &self.txns.as_ref().expect("transactions not enabled").mgr
    }

    fn txn_state(&mut self) -> &mut TxnState {
        self.txns.as_mut().expect("transactions not enabled")
    }

    /// The lock site covering `key`: its owning shard and lock stripe.
    pub fn txn_site(&self, key: u64) -> TxnSite {
        TxnSite {
            shard: self.route(key),
            lock: (key % TXN_LOCKS as u64) as u32,
        }
    }

    /// Begins a new transaction.
    ///
    /// # Panics
    ///
    /// Panics if transactions are not enabled.
    pub fn txn(&mut self) -> KvTxn {
        KvTxn {
            inner: self.txn_state().mgr.begin(),
            staged: Vec::new(),
        }
    }

    /// Transactional read of `key`: returns the value as seen by `txn`
    /// (its own staged write if present, else the memtable) and records
    /// the key's current version in the transaction's conflict range.
    pub fn txn_get(&mut self, txn: &mut KvTxn, key: u64) -> Option<Vec<u8>> {
        let site = self.txn_site(key);
        let version = self.txn_state().mgr.version(site);
        txn.inner.read(site, version);
        txn.inner.tag_key(site, key);
        if let Some((_, v)) = txn.staged.iter().rev().find(|(k, _)| *k == key) {
            return Some(v.clone());
        }
        self.get(key).map(|v| v.to_vec())
    }

    /// Transactional write: buffers `value` for `key`. Nothing reaches the
    /// replicas or the memtable until the transaction commits. The durable
    /// bytes go straight to the key's database slot under the commit
    /// protocol's locks (not through the WAL — the slot write is itself
    /// flushed, so recovery sees committed transactional data).
    ///
    /// # Errors
    ///
    /// [`KvError`] on geometry violations.
    pub fn txn_put(&mut self, txn: &mut KvTxn, key: u64, value: Vec<u8>) -> Result<(), KvError> {
        let store = &self.shards[self.route(key).0 as usize];
        if key >= store.config().capacity {
            return Err(KvError::KeyOutOfRange);
        }
        if value.len() as u64 > MAX_VALUE {
            return Err(KvError::ValueTooLarge);
        }
        let slot = store.wal().layout().db_offset + key * SLOT_SIZE;
        let mut slot_bytes = (value.len() as u32).to_le_bytes().to_vec();
        slot_bytes.extend_from_slice(&value);
        let site = self.txn_site(key);
        txn.inner.write(site, slot, Payload::copy_from(&slot_bytes));
        txn.inner.tag_key(site, key);
        txn.staged.push((key, value));
        Ok(())
    }

    /// Submits `txn` for commit; the outcome arrives from
    /// [`ShardedKv::pump_txns`]. Staged values are installed into the
    /// memtables only if the commit protocol succeeds.
    pub fn txn_commit(&mut self, txn: KvTxn) -> u64 {
        let st = self.txn_state();
        let id = st.mgr.commit(txn.inner);
        st.staged.insert(id, txn.staged);
        id
    }

    /// Drives in-flight transactions one tick: consumes the foreign acks
    /// gathered by [`ShardedKv::poll`], steps the commit state machines,
    /// and installs committed staged values into the owning memtables.
    /// Call each driver tick after `poll`.
    ///
    /// # Panics
    ///
    /// Panics if transactions are not enabled.
    pub fn pump_txns(&mut self, ctx: &mut NicCtx<'_>) -> Vec<(u64, TxnOutcome)> {
        let mut st = self.txns.take().expect("transactions not enabled");
        let acks = std::mem::take(&mut st.acks);
        let done = st.mgr.pump(ctx, self, &acks);
        for (id, outcome) in &done {
            let staged = st.staged.remove(id).unwrap_or_default();
            if *outcome == TxnOutcome::Committed {
                for (key, value) in staged {
                    let shard = self.route(key);
                    self.shards[shard.0 as usize].install(key, value);
                }
            }
        }
        self.txns = Some(st);
        done
    }
}

impl<T: GroupTransport> TxnTransports for ShardedKv<T> {
    fn txn_group_size(&self, shard: ShardId) -> u32 {
        self.shards[shard.0 as usize].transport.group_size()
    }

    fn txn_can_issue(&self, shard: ShardId) -> bool {
        self.shards[shard.0 as usize].transport.can_issue()
    }

    fn txn_issue(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shard: ShardId,
        op: GroupOp,
    ) -> Result<u64, GroupError> {
        self.shards[shard.0 as usize].transport.issue(ctx, op)
    }
}

impl ShardedKv<hyperloop::GroupClient> {
    /// Moves `shard`'s replication chain to `new_chain`, keeping the
    /// store's logical state (memtable, WAL cursors, pending maps): aligns
    /// the new chain's allocators, wires a fresh [`HyperLoopGroup`], seeds
    /// every new member with the shard's WAL-sized region image read from
    /// `source` (a live member of the old chain), and swaps the transport.
    /// Returns the retired client and the new chain's replica handles —
    /// stop replenishing the old chain's handles.
    ///
    /// This is the *quiesced* app-level move (host-driven catch-up copy,
    /// the chain-repair recipe): the migrating shard must have nothing in
    /// flight. Other shards may keep ops in flight throughout — the move
    /// never touches them. For the live pause/copy/replay state machine,
    /// see `hyperloop::migrate::migrate_shard`. Run the simulation to
    /// quiescence after this call before issuing on the new chain, exactly
    /// as after setup.
    ///
    /// # Panics
    ///
    /// Panics if the shard still has ops in flight (settle it first: acked
    /// writes may never be dropped), or on the same layout violations as
    /// [`HyperLoopGroup::setup`].
    ///
    /// [`HyperLoopGroup`]: hyperloop::HyperLoopGroup
    /// [`HyperLoopGroup::setup`]: hyperloop::HyperLoopGroup::setup
    pub fn rebalance(
        &mut self,
        ctx: &mut NicCtx<'_>,
        shard: ShardId,
        source: netsim::NodeId,
        new_chain: &[netsim::NodeId],
    ) -> (hyperloop::GroupClient, Vec<hyperloop::ReplicaHandle>) {
        let store = &mut self.shards[shard.0 as usize];
        assert_eq!(
            store.transport.in_flight(),
            0,
            "rebalance of {shard} with ops in flight"
        );
        let cfg = store.transport.config();
        let old_base = store.transport.layout().shared_base;
        let client_node = store.transport.node();
        let span = store.wal().copy_span();

        let cursor = new_chain
            .iter()
            .map(|&n| ctx.fab.alloc_cursor(n))
            .max()
            .expect("non-empty chain");
        for &n in new_chain {
            ctx.fab.align_allocator(n, cursor);
        }
        let mut group = hyperloop::HyperLoopGroup::setup(ctx, client_node, new_chain, cfg);
        group.client.set_tracer(store.transport.tracer());
        let new_base = group.client.layout().shared_base;

        let image = ctx
            .fab
            .mem(source)
            .read_vec(old_base, span)
            .expect("source region in bounds");
        for &n in new_chain {
            ctx.fab
                .mem(n)
                .write_durable(new_base, &image)
                .expect("seed copy in bounds");
        }
        let old = std::mem::replace(&mut store.transport, group.client);
        (old, group.replicas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvConfig;
    use hyperloop::harness::{drive, fabric_sim, FabricSim};
    use hyperloop::{GroupConfig, HyperLoopGroup};
    use netsim::NodeId;
    use simcore::Simulation;

    const CLIENT: NodeId = NodeId(0);

    /// One client node plus `n_shards` disjoint 2-replica chains, each
    /// carrying its own `ReplicatedKv`.
    fn setup(n_shards: u32) -> (Simulation<FabricSim>, ShardedKv<hyperloop::GroupClient>) {
        let mut sim = fabric_sim(1 + 2 * n_shards, 64 << 20, 29);
        let mut stores = Vec::new();
        for s in 0..n_shards {
            let nodes = [NodeId(1 + 2 * s), NodeId(2 + 2 * s)];
            let group = drive(&mut sim, |ctx| {
                HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
            });
            sim.run();
            stores.push(ReplicatedKv::new(group.client, KvConfig::default()));
        }
        (sim, ShardedKv::with_hash_router(stores))
    }

    #[test]
    fn puts_spread_over_shards_and_complete() {
        let (mut sim, mut kv) = setup(4);
        let n_keys = 32u64;
        let mut issued_on = vec![0u64; 4];
        for key in 0..n_keys {
            let (shard, _) = drive(&mut sim, |ctx| {
                kv.put(ctx, key, vec![key as u8; 32]).unwrap()
            });
            issued_on[shard.0 as usize] += 1;
        }
        sim.run();
        let done = drive(&mut sim, |ctx| kv.poll(ctx));
        assert_eq!(done.len(), n_keys as usize, "every put acks");
        // Per-shard ack counts equal per-shard issue counts.
        let mut acked_on = vec![0u64; 4];
        for (shard, put) in &done {
            assert_eq!(kv.route(put.key), *shard, "ack came from the wrong shard");
            acked_on[shard.0 as usize] += 1;
        }
        assert_eq!(acked_on, issued_on);
        assert!(
            issued_on.iter().all(|&c| c > 0),
            "32 hashed keys should hit all 4 shards: {issued_on:?}"
        );
        // Reads route to the same shard the write went to.
        for key in 0..n_keys {
            assert_eq!(kv.get(key), Some(&vec![key as u8; 32][..]), "key {key}");
        }
        assert_eq!(kv.len(), n_keys as usize);
    }

    #[test]
    fn shard_backpressure_is_per_shard() {
        let (mut sim, mut kv) = setup(2);
        // Fill one shard's window (16) with keys that all route to it.
        let victim = kv.route(0);
        let mut stuffed = 0;
        let mut key = 0u64;
        while stuffed < 16 {
            if kv.route(key) == victim {
                drive(&mut sim, |ctx| kv.put(ctx, key, vec![1; 16]).unwrap());
                stuffed += 1;
            }
            key += 1;
        }
        // The victim shard refuses; the other shard still accepts.
        let mut k_victim = key;
        while kv.route(k_victim) != victim {
            k_victim += 1;
        }
        let mut k_other = key;
        while kv.route(k_other) == victim {
            k_other += 1;
        }
        drive(&mut sim, |ctx| {
            assert_eq!(
                kv.put(ctx, k_victim, vec![2; 16]).unwrap_err(),
                KvError::Busy
            );
            kv.put(ctx, k_other, vec![3; 16]).unwrap();
        });
        sim.run();
        assert_eq!(drive(&mut sim, |ctx| kv.poll(ctx)).len(), 17);
    }

    /// Pumps until every submitted transaction reaches an outcome.
    fn drive_txn(
        sim: &mut Simulation<FabricSim>,
        kv: &mut ShardedKv<hyperloop::GroupClient>,
    ) -> Vec<(u64, TxnOutcome)> {
        let mut out = Vec::new();
        for _ in 0..400 {
            sim.run();
            let fin = drive(sim, |ctx| {
                kv.poll(ctx);
                kv.pump_txns(ctx)
            });
            out.extend(fin);
            if kv.txn_manager().in_flight() == 0 {
                break;
            }
        }
        assert_eq!(kv.txn_manager().in_flight(), 0, "transactions wedged");
        out
    }

    #[test]
    fn txn_commit_spans_shards_atomically() {
        let (mut sim, mut kv) = setup(2);
        kv.enable_txns(CommitMode::Locking, 17);
        let audit = simcore::Audit::standard();
        kv.set_txn_audit(audit.clone());

        // Two keys on different shards.
        let (mut a, mut b) = (0u64, 1u64);
        while kv.route(a) == kv.route(b) {
            b += 1;
        }
        if kv.route(a) > kv.route(b) {
            std::mem::swap(&mut a, &mut b);
        }

        let mut t = kv.txn();
        assert_eq!(kv.txn_get(&mut t, a), None);
        kv.txn_put(&mut t, a, b"left".to_vec()).unwrap();
        kv.txn_put(&mut t, b, b"right".to_vec()).unwrap();
        // Read-your-writes inside the transaction; memtable untouched.
        assert_eq!(kv.txn_get(&mut t, a).as_deref(), Some(&b"left"[..]));
        assert_eq!(kv.get(a), None);
        let id = kv.txn_commit(t);

        let done = drive_txn(&mut sim, &mut kv);
        assert_eq!(done, vec![(id, TxnOutcome::Committed)]);
        assert_eq!(kv.get(a), Some(&b"left"[..]));
        assert_eq!(kv.get(b), Some(&b"right"[..]));
        // Committed bytes are already durable in every replica's database
        // region (txn applies write slots directly, no checkpoint needed).
        for (key, val) in [(a, &b"left"[..]), (b, &b"right"[..])] {
            let shard = kv.route(key);
            let node = NodeId(1 + 2 * shard.0);
            let base = kv.shard(shard).transport.layout().shared_base;
            let got = drive(&mut sim, |ctx| {
                kv.shard(shard).replica_get(ctx.fab, node, base, key)
            });
            assert_eq!(got.as_deref(), Some(val), "key {key} not durable");
        }
        assert_eq!(audit.violation_count(), 0, "{}", audit.report());
    }

    #[test]
    fn stripe_collisions_are_metered_as_false_conflicts() {
        let (mut sim, mut kv) = setup(2);
        kv.enable_txns(CommitMode::Locking, 23);

        // Same-key contention: a true conflict, never a false one.
        let k = 0u64;
        let mut t1 = kv.txn();
        kv.txn_put(&mut t1, k, b"one".to_vec()).unwrap();
        let mut t2 = kv.txn();
        kv.txn_put(&mut t2, k, b"two".to_vec()).unwrap();
        kv.txn_commit(t1);
        kv.txn_commit(t2);
        let done = drive_txn(&mut sim, &mut kv);
        assert!(done.iter().all(|(_, o)| *o == TxnOutcome::Committed));
        let site = kv.txn_site(k);
        let c = *kv.txn_manager().contention().get(&site).expect("metered");
        assert!(c.conflicts >= 1, "{c:?}");
        assert_eq!(c.false_conflicts, 0, "same key is a true conflict: {c:?}");

        // Distinct keys engineered onto one stripe: adding multiples of
        // TXN_LOCKS keeps the lock id; walk until the route matches too.
        let k1 = 1u64;
        let mut k2 = k1 + TXN_LOCKS as u64;
        while kv.route(k2) != kv.route(k1) {
            k2 += TXN_LOCKS as u64;
        }
        assert_ne!(k1, k2);
        assert_eq!(kv.txn_site(k1), kv.txn_site(k2), "engineered collision");
        let mut t1 = kv.txn();
        kv.txn_put(&mut t1, k1, b"aaa".to_vec()).unwrap();
        let mut t2 = kv.txn();
        kv.txn_put(&mut t2, k2, b"bbb".to_vec()).unwrap();
        kv.txn_commit(t1);
        kv.txn_commit(t2);
        let done = drive_txn(&mut sim, &mut kv);
        assert!(done.iter().all(|(_, o)| *o == TxnOutcome::Committed));
        let site = kv.txn_site(k1);
        let c = *kv.txn_manager().contention().get(&site).expect("metered");
        assert!(c.conflicts >= 1, "{c:?}");
        assert!(
            c.false_conflicts >= 1 && c.false_conflicts <= c.conflicts,
            "distinct keys on one stripe must meter false conflicts: {c:?}"
        );
    }

    #[test]
    fn txn_geometry_violations_rejected_before_commit() {
        let (mut sim, mut kv) = setup(1);
        kv.enable_txns(CommitMode::Locking, 1);
        let mut t = kv.txn();
        let cap = kv.shard(ShardId(0)).config().capacity;
        assert_eq!(
            kv.txn_put(&mut t, cap, vec![1]).unwrap_err(),
            KvError::KeyOutOfRange
        );
        assert_eq!(
            kv.txn_put(&mut t, 0, vec![1; 2000]).unwrap_err(),
            KvError::ValueTooLarge
        );
        // Nothing staged: the empty txn still commits cleanly.
        let id = kv.txn_commit(t);
        assert_eq!(
            drive_txn(&mut sim, &mut kv),
            vec![(id, TxnOutcome::Committed)]
        );
    }

    /// The lost-update anomaly: two read-modify-write clients interleaved
    /// on the plain put path lose one increment; the same interleaving
    /// through the transaction API keeps both.
    #[test]
    fn interleaved_rmw_loses_update_without_txns_and_keeps_it_with() {
        let counter = |v: Option<&[u8]>| -> u64 {
            v.map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                .unwrap_or(0)
        };

        // Plain path: both clients read before either writes.
        let (mut sim, mut kv) = setup(2);
        let key = 9u64;
        let c1 = counter(kv.get(key));
        let c2 = counter(kv.get(key));
        drive(&mut sim, |ctx| {
            kv.put(ctx, key, (c1 + 1).to_le_bytes().to_vec()).unwrap();
            kv.put(ctx, key, (c2 + 1).to_le_bytes().to_vec()).unwrap();
        });
        sim.run();
        drive(&mut sim, |ctx| kv.poll(ctx));
        assert_eq!(
            counter(kv.get(key)),
            1,
            "plain puts lose one of the two increments"
        );

        // Transactional path, same interleaving: one commit validates-fails
        // and retries with a fresh read; no increment is lost.
        let (mut sim, mut kv) = setup(2);
        kv.enable_txns(CommitMode::Optimistic, 23);
        let audit = simcore::Audit::standard();
        kv.set_txn_audit(audit.clone());

        let mut t1 = kv.txn();
        let v1 = counter(kv.txn_get(&mut t1, key).as_deref());
        let mut t2 = kv.txn();
        let v2 = counter(kv.txn_get(&mut t2, key).as_deref());
        kv.txn_put(&mut t1, key, (v1 + 1).to_le_bytes().to_vec())
            .unwrap();
        kv.txn_put(&mut t2, key, (v2 + 1).to_le_bytes().to_vec())
            .unwrap();
        let id1 = kv.txn_commit(t1);
        let id2 = kv.txn_commit(t2);
        let mut done = drive_txn(&mut sim, &mut kv);
        done.sort();
        // Exactly one of the two conflicting commits aborts.
        let aborted: Vec<u64> = done
            .iter()
            .filter(|(_, o)| *o == TxnOutcome::Aborted)
            .map(|(id, _)| *id)
            .collect();
        assert_eq!(aborted.len(), 1, "one RMW must lose validation: {done:?}");
        assert!(aborted[0] == id1 || aborted[0] == id2);

        // The loser retries FDB-style: fresh read, fresh commit.
        let mut retry = kv.txn();
        let v = counter(kv.txn_get(&mut retry, key).as_deref());
        kv.txn_put(&mut retry, key, (v + 1).to_le_bytes().to_vec())
            .unwrap();
        let rid = kv.txn_commit(retry);
        assert_eq!(
            drive_txn(&mut sim, &mut kv),
            vec![(rid, TxnOutcome::Committed)]
        );

        assert_eq!(
            counter(kv.get(key)),
            2,
            "txn path must keep both increments"
        );
        assert_eq!(kv.txn_manager().committed, 2);
        assert_eq!(kv.txn_manager().aborted, 1);
        assert_eq!(audit.violation_count(), 0, "{}", audit.report());
    }

    #[test]
    fn single_shard_degenerates_to_plain_store() {
        let (mut sim, mut kv) = setup(1);
        for key in [0u64, 7, 99] {
            let (shard, _) = drive(&mut sim, |ctx| kv.put(ctx, key, b"x".to_vec()).unwrap());
            assert_eq!(shard, ShardId(0));
        }
        sim.run();
        assert_eq!(drive(&mut sim, |ctx| kv.poll(ctx)).len(), 3);
    }
}
