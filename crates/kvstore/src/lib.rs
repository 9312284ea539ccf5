//! # kvstore — a RocksDB-style replicated persistent key-value store
//!
//! The paper's first case study (§5.1): an embedded KV library that serves
//! reads from an in-memory table and persists writes through a durable,
//! *replicated* write-ahead log, periodically dumping state and truncating
//! the log. The modification the paper makes to RocksDB — swap the native
//! log append for HyperLoop's `Append` — is this crate's
//! [`ReplicatedKv::put`]; checkpointing ([`ReplicatedKv::checkpoint`]) uses
//! `ExecuteAndAdvance` off the critical path.
//!
//! The store is generic over [`GroupTransport`], so the identical code runs
//! on the HyperLoop data path (replica CPUs idle) and the Naïve-RDMA
//! baseline (replica CPUs on every hop) — the comparison of Figure 11.
//!
//! Keys are dense indexes `0..capacity` (the YCSB shape); each key owns a
//! fixed slot in the database region: `[len: u32 | bytes]`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sharded;

pub use sharded::{KvTxn, ShardedKv, TXN_LOCKS};

use hyperloop::wal::{recover_unapplied, ReplicatedWal, WalError, WalLayout};
use hyperloop::{GroupAck, GroupTransport};
use rnicsim::{NicCtx, RdmaFabric};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use walog::LogEntry;

/// Maximum value size in bytes.
pub const MAX_VALUE: u64 = 1024;

/// Bytes of one value slot in the database region (`len: u32` prefix plus
/// [`MAX_VALUE`] bytes).
pub const SLOT_SIZE: u64 = 4 + MAX_VALUE;

/// Bytes reserved at the front of the shared region for control words: the
/// WAL head pointer, then [`TXN_LOCKS`] lock and version words.
pub const CONTROL_SIZE: u64 = 4096;

/// Store sizing and durability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvConfig {
    /// Maximum number of keys (dense `0..capacity`).
    pub capacity: u64,
    /// Bytes reserved for the log ring.
    pub log_size: u64,
    /// Durable mode interleaves a gFLUSH with every append (the default).
    /// `false` gives the paper's §7 RAMCloud-like semantics: replicated but
    /// volatile — faster, lost on power failure.
    pub durable: bool,
}

impl Default for KvConfig {
    fn default() -> Self {
        KvConfig {
            capacity: 1024,
            log_size: 1 << 20,
            durable: true,
        }
    }
}

impl KvConfig {
    /// Bytes of database area required.
    pub fn db_bytes(&self) -> u64 {
        self.capacity * SLOT_SIZE
    }
}

/// Store errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvError {
    /// Key index beyond `capacity`.
    KeyOutOfRange,
    /// Value longer than [`MAX_VALUE`].
    ValueTooLarge,
    /// Underlying WAL/transport back-pressure; poll and retry.
    Busy,
}

impl fmt::Display for KvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KvError::KeyOutOfRange => f.write_str("key out of range"),
            KvError::ValueTooLarge => f.write_str("value too large"),
            KvError::Busy => f.write_str("store busy; poll for completions"),
        }
    }
}

impl std::error::Error for KvError {}

/// A completed durable write, reported by [`ReplicatedKv::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedPut {
    /// The key whose write became durable on every replica.
    pub key: u64,
    /// Transaction id in the WAL.
    pub tx_id: u64,
}

/// The replicated KV store (client/primary side).
pub struct ReplicatedKv<T> {
    /// The replication transport (public: benches poll/issue through it).
    pub transport: T,
    config: KvConfig,
    wal: ReplicatedWal,
    memtable: BTreeMap<u64, Vec<u8>>,
    /// gen (of the append's last group op) → (key, tx).
    pending_puts: HashMap<u64, (u64, u64)>,
    /// gens of checkpoint ops still in flight (not latency-critical).
    pending_checkpoint: HashMap<u64, ()>,
}

impl<T: fmt::Debug> fmt::Debug for ReplicatedKv<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReplicatedKv")
            .field("keys", &self.memtable.len())
            .field("wal_backlog", &self.wal.backlog())
            .finish()
    }
}

impl<T: GroupTransport> ReplicatedKv<T> {
    /// Builds the store over an already-wired transport.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not fit the transport's shared region.
    pub fn new(transport: T, config: KvConfig) -> Self {
        let shared = transport.shared_size();
        let wal_layout = WalLayout::standard(shared, config.log_size, CONTROL_SIZE);
        assert!(
            config.db_bytes() <= wal_layout.db_size,
            "database ({} B) exceeds the available region ({} B)",
            config.db_bytes(),
            wal_layout.db_size
        );
        ReplicatedKv {
            transport,
            config,
            wal: ReplicatedWal::new(wal_layout),
            memtable: BTreeMap::new(),
            pending_puts: HashMap::new(),
            pending_checkpoint: HashMap::new(),
        }
    }

    /// Store sizing and durability.
    pub fn config(&self) -> &KvConfig {
        &self.config
    }

    /// Reads from the in-memory table (primary-side read path).
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.memtable.get(&key).map(|v| v.as_slice())
    }

    /// Range scan over the memtable, up to `len` present keys from `start`.
    pub fn scan(&self, start: u64, len: u64) -> Vec<(u64, &[u8])> {
        self.memtable
            .range(start..)
            .take(len as usize)
            .map(|(k, v)| (*k, v.as_slice()))
            .collect()
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    /// True if the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty()
    }

    /// WAL records appended but not yet checkpointed.
    pub fn wal_backlog(&self) -> usize {
        self.wal.backlog()
    }

    /// The store's WAL driver (read-only: layout, ring cursors, copy
    /// sizing for migration).
    pub fn wal(&self) -> &ReplicatedWal {
        &self.wal
    }

    /// Durable replicated write: updates the memtable immediately and
    /// appends a redo record to every replica's log (the critical path —
    /// one gWRITE + gFLUSH). Completion arrives via [`ReplicatedKv::poll`].
    ///
    /// # Errors
    ///
    /// [`KvError`] on geometry violations or back-pressure.
    pub fn put(&mut self, ctx: &mut NicCtx<'_>, key: u64, value: Vec<u8>) -> Result<u64, KvError> {
        if key >= self.config.capacity {
            return Err(KvError::KeyOutOfRange);
        }
        if value.len() as u64 > MAX_VALUE {
            return Err(KvError::ValueTooLarge);
        }
        let slot = key * SLOT_SIZE;
        let mut slot_bytes = (value.len() as u32).to_le_bytes().to_vec();
        slot_bytes.extend_from_slice(&value);
        let entries = vec![LogEntry {
            offset: slot,
            data: slot_bytes,
        }];
        let receipt = self
            .wal
            .append_opts(&mut self.transport, ctx, entries, self.config.durable)
            .map_err(|e| match e {
                WalError::EntryOutOfDatabase => KvError::KeyOutOfRange,
                WalError::LogFull | WalError::WindowFull => KvError::Busy,
            })?;
        self.memtable.insert(key, value);
        let gen = *receipt.gens.last().expect("append issues one op");
        self.pending_puts.insert(gen, (key, receipt.tx_id));
        Ok(gen)
    }

    /// Off-critical-path maintenance: applies backlogged WAL records to the
    /// replicas' database regions (gMEMCPY) and truncates. Call when idle —
    /// RocksDB's periodic dump. Applies at most `max_records`.
    pub fn checkpoint(&mut self, ctx: &mut NicCtx<'_>, max_records: usize) -> usize {
        let mut applied = 0;
        while applied < max_records {
            match self.wal.execute_and_advance(&mut self.transport, ctx) {
                Ok(Some(receipt)) => {
                    for g in receipt.gens {
                        self.pending_checkpoint.insert(g, ());
                    }
                    applied += 1;
                }
                Ok(None) | Err(_) => break,
            }
        }
        applied
    }

    /// Collects transport completions; returns finished puts. Acks the
    /// store does not recognise (ops issued directly on the transport by a
    /// co-resident layer, e.g. the transaction manager) are dropped — use
    /// [`ReplicatedKv::poll_raw`] to receive them instead.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<CompletedPut> {
        self.poll_raw(ctx).0
    }

    /// Collects transport completions, splitting them into finished puts
    /// and *foreign* acks: completions of ops the store itself never issued
    /// (generation unknown to both the put and checkpoint maps). Layers
    /// that share the transport — the transaction manager issues lock and
    /// apply ops on the same replication chain — consume the foreign half;
    /// without this split those acks would be silently dropped and the
    /// sharing layer would wedge.
    pub fn poll_raw(&mut self, ctx: &mut NicCtx<'_>) -> (Vec<CompletedPut>, Vec<GroupAck>) {
        let acks = self.transport.poll(ctx);
        let mut done = Vec::new();
        let mut foreign = Vec::new();
        for ack in acks {
            if let Some((key, tx_id)) = self.pending_puts.remove(&ack.gen) {
                done.push(CompletedPut { key, tx_id });
            } else if self.pending_checkpoint.remove(&ack.gen).is_none() {
                foreign.push(ack);
            }
        }
        (done, foreign)
    }

    /// Installs a transactionally committed value into the memtable (the
    /// replica-side bytes were already applied by the commit protocol).
    pub(crate) fn install(&mut self, key: u64, value: Vec<u8>) {
        self.memtable.insert(key, value);
    }

    /// Reads a key from one replica's *database region* (checkpointed state
    /// only — the paper's eventually-consistent replica read).
    pub fn replica_get(
        &self,
        fab: &mut RdmaFabric,
        replica_node: netsim::NodeId,
        shared_base: u64,
        key: u64,
    ) -> Option<Vec<u8>> {
        let slot = self.wal.layout().db_offset + key * SLOT_SIZE;
        let raw = fab
            .mem(replica_node)
            .read_vec(shared_base + slot, SLOT_SIZE)
            .ok()?;
        let len = u32::from_le_bytes(raw[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_VALUE as usize {
            return None;
        }
        Some(raw[4..4 + len].to_vec())
    }

    /// Crash recovery: reconstructs the logical store state from one
    /// replica's *durable* bytes (database region + WAL replay), as a fresh
    /// process would after power failure. Uses only durable content.
    pub fn recover_state(
        &self,
        fab: &mut RdmaFabric,
        replica_node: netsim::NodeId,
        shared_base: u64,
    ) -> BTreeMap<u64, Vec<u8>> {
        let layout = *self.wal.layout();
        // 1. Checkpointed state from the database region (durable view).
        let db = fab
            .mem(replica_node)
            .read_durable_vec(shared_base + layout.db_offset, self.config.db_bytes())
            .expect("db region in bounds");
        let mut state = BTreeMap::new();
        for key in 0..self.config.capacity {
            let base = (key * SLOT_SIZE) as usize;
            let len = u32::from_le_bytes(db[base..base + 4].try_into().expect("4 bytes")) as usize;
            if len > 0 && len <= MAX_VALUE as usize {
                state.insert(key, db[base + 4..base + 4 + len].to_vec());
            }
        }
        // 2. Replay unapplied WAL records (durable view): the 16-byte head
        //    pointer (ring head + next tx id) guards against stale records
        //    from previous ring laps.
        let head_raw = fab
            .mem(replica_node)
            .read_durable_vec(shared_base + layout.head_ptr_offset, 16)
            .expect("head ptr in bounds");
        let log = fab
            .mem(replica_node)
            .read_durable_vec(shared_base + layout.log_offset, layout.log_size)
            .expect("log region in bounds");
        for rec in recover_unapplied(&head_raw, &log) {
            for e in rec.entries {
                let key = e.offset / SLOT_SIZE;
                let len = u32::from_le_bytes(e.data[..4].try_into().expect("4 bytes")) as usize;
                if len > 0 && len <= MAX_VALUE as usize {
                    state.insert(key, e.data[4..4 + len].to_vec());
                }
            }
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyperloop::harness::{drive, fabric_sim, FabricSim};
    use hyperloop::{GroupConfig, HyperLoopGroup};
    use netsim::NodeId;
    use simcore::{SimDuration, Simulation};

    const CLIENT: NodeId = NodeId(0);

    fn setup() -> (
        Simulation<FabricSim>,
        ReplicatedKv<hyperloop::GroupClient>,
        u64,
        Vec<hyperloop::ReplicaHandle>,
    ) {
        let mut sim = fabric_sim(4, 64 << 20, 13);
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
        });
        sim.run();
        let shared_base = group.client.layout().shared_base;
        let kv = ReplicatedKv::new(group.client, KvConfig::default());
        (sim, kv, shared_base, group.replicas)
    }

    fn settle(
        sim: &mut Simulation<FabricSim>,
        kv: &mut ReplicatedKv<hyperloop::GroupClient>,
    ) -> Vec<CompletedPut> {
        sim.run();
        drive(sim, |ctx| kv.poll(ctx))
    }

    #[test]
    fn put_completes_and_reads_back() {
        let (mut sim, mut kv, _, _) = setup();
        drive(&mut sim, |ctx| kv.put(ctx, 7, b"seven".to_vec()).unwrap());
        let done = settle(&mut sim, &mut kv);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].key, 7);
        assert_eq!(kv.get(7), Some(&b"seven"[..]));
        assert_eq!(kv.get(8), None);
    }

    #[test]
    fn checkpoint_makes_replica_reads_possible() {
        let (mut sim, mut kv, shared_base, _) = setup();
        drive(&mut sim, |ctx| {
            kv.put(ctx, 3, b"snapshotted".to_vec()).unwrap()
        });
        settle(&mut sim, &mut kv);
        // Before checkpoint: replica DB region has nothing.
        let before = drive(&mut sim, |ctx| {
            kv.replica_get(ctx.fab, NodeId(2), shared_base, 3)
        });
        assert_eq!(before, None);
        drive(&mut sim, |ctx| {
            assert_eq!(kv.checkpoint(ctx, 16), 1);
        });
        settle(&mut sim, &mut kv);
        let after = drive(&mut sim, |ctx| {
            kv.replica_get(ctx.fab, NodeId(2), shared_base, 3)
        });
        assert_eq!(after.as_deref(), Some(&b"snapshotted"[..]));
        assert_eq!(kv.wal_backlog(), 0);
    }

    #[test]
    fn recovery_after_power_failure_replays_the_log() {
        let (mut sim, mut kv, shared_base, _) = setup();
        // Two checkpointed writes, one log-only write, one lost (unacked is
        // still durable in the log because append flushes).
        for (k, v) in [(1u64, "one"), (2, "two")] {
            drive(&mut sim, |ctx| {
                kv.put(ctx, k, v.as_bytes().to_vec()).unwrap()
            });
            settle(&mut sim, &mut kv);
        }
        drive(&mut sim, |ctx| {
            kv.checkpoint(ctx, 16);
        });
        settle(&mut sim, &mut kv);
        drive(&mut sim, |ctx| {
            kv.put(ctx, 5, b"log-only".to_vec()).unwrap()
        });
        settle(&mut sim, &mut kv);

        // Power-fail replica 3 and recover from its durable bytes alone.
        sim.model.fab.mem(NodeId(3)).power_failure();
        let state = drive(&mut sim, |ctx| {
            kv.recover_state(ctx.fab, NodeId(3), shared_base)
        });
        assert_eq!(state.get(&1).map(|v| v.as_slice()), Some(&b"one"[..]));
        assert_eq!(state.get(&2).map(|v| v.as_slice()), Some(&b"two"[..]));
        assert_eq!(state.get(&5).map(|v| v.as_slice()), Some(&b"log-only"[..]));
    }

    #[test]
    fn recovered_state_matches_memtable() {
        let (mut sim, mut kv, shared_base, mut replicas) = setup();
        // Off-critical-path maintenance: keep every replica's descriptor
        // ring topped up relative to completed work.
        fn maintain(
            sim: &mut Simulation<FabricSim>,
            kv: &mut ReplicatedKv<hyperloop::GroupClient>,
            replicas: &mut [hyperloop::ReplicaHandle],
        ) {
            let completed = kv.transport.completed();
            drive(sim, |ctx| {
                for r in replicas.iter_mut() {
                    let target = completed + 128;
                    if target > r.preposted() {
                        r.replenish(ctx, (target - r.preposted()) as u32);
                    }
                }
            });
        }
        for i in 0..200u64 {
            loop {
                let r = drive(&mut sim, |ctx| kv.put(ctx, i % 50, vec![i as u8; 64]));
                match r {
                    Ok(_) => break,
                    Err(KvError::Busy) => {
                        settle(&mut sim, &mut kv);
                        // Keep the log from filling: checkpoint.
                        drive(&mut sim, |ctx| {
                            kv.checkpoint(ctx, 4);
                        });
                        settle(&mut sim, &mut kv);
                        maintain(&mut sim, &mut kv, &mut replicas);
                    }
                    Err(e) => panic!("{e}"),
                }
            }
            if i % 10 == 0 {
                settle(&mut sim, &mut kv);
                drive(&mut sim, |ctx| {
                    kv.checkpoint(ctx, 8);
                });
                settle(&mut sim, &mut kv);
                maintain(&mut sim, &mut kv, &mut replicas);
            }
        }
        settle(&mut sim, &mut kv);
        let state = drive(&mut sim, |ctx| {
            kv.recover_state(ctx.fab, NodeId(1), shared_base)
        });
        for (k, v) in state {
            assert_eq!(kv.get(k), Some(v.as_slice()), "key {k} diverged");
        }
    }

    #[test]
    fn volatile_mode_trades_durability_for_latency() {
        // RAMCloud-like semantics (paper §7): replication without the
        // interleaved gFLUSH. Acked writes are replicated but die with the
        // power.
        let mut sim = fabric_sim(3, 64 << 20, 23);
        let nodes = [NodeId(1), NodeId(2)];
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
        });
        sim.run();
        let shared = group.client.layout().shared_base;
        let mut kv = ReplicatedKv::new(
            group.client,
            KvConfig {
                durable: false,
                ..KvConfig::default()
            },
        );
        let t0 = sim.now();
        drive(&mut sim, |ctx| {
            kv.put(ctx, 1, b"ephemeral".to_vec()).unwrap()
        });
        sim.run();
        assert_eq!(drive(&mut sim, |ctx| kv.poll(ctx)).len(), 1);
        let volatile_latency = sim.now().since(t0);

        // The data IS on both replicas (coherent reads)...
        let layout = wal_probe(&kv);
        for &n in &nodes {
            let log = sim
                .model
                .fab
                .mem(n)
                .read_vec(shared + layout.0, 4096)
                .unwrap();
            assert!(
                log.windows(9).any(|w| w == b"ephemeral"),
                "replica {n} missing replicated bytes"
            );
        }
        // ...but a power failure erases it.
        sim.model.fab.mem(NodeId(2)).power_failure();
        let state = drive(&mut sim, |ctx| kv.recover_state(ctx.fab, NodeId(2), shared));
        assert!(state.is_empty(), "volatile write survived: {state:?}");

        // And it is faster than the durable path.
        assert!(
            volatile_latency < SimDuration::from_micros(15),
            "volatile put should skip the flush round-trips: {volatile_latency}"
        );
    }

    fn wal_probe<T>(kv: &ReplicatedKv<T>) -> (u64, u64) {
        (kv.wal.layout().log_offset, kv.wal.layout().log_size)
    }

    #[test]
    fn geometry_violations_rejected() {
        let (mut sim, mut kv, _, _) = setup();
        let cap = kv.config().capacity;
        let err = drive(&mut sim, |ctx| kv.put(ctx, cap, vec![1]).unwrap_err());
        assert_eq!(err, KvError::KeyOutOfRange);
        let err = drive(&mut sim, |ctx| kv.put(ctx, 0, vec![1; 2000]).unwrap_err());
        assert_eq!(err, KvError::ValueTooLarge);
    }

    #[test]
    fn scan_over_memtable() {
        let (mut sim, mut kv, _, _) = setup();
        for k in [5u64, 10, 15, 20] {
            drive(&mut sim, |ctx| kv.put(ctx, k, vec![k as u8]).unwrap());
            settle(&mut sim, &mut kv);
        }
        let hits = kv.scan(8, 2);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, 10);
        assert_eq!(hits[1].0, 15);
    }
}
