//! Multi-group sharding: many replication chains behind one key router.
//!
//! A single HyperLoop group serializes every operation through one chain of
//! NICs, so its throughput tops out at one chain's WQE rate regardless of
//! how many machines the cluster has. The paper scales past that the same
//! way production stores do: *shard* the key space over many independent
//! groups, each with its own chain, window and completion queue, and route
//! each operation to the group that owns its key.
//!
//! [`ShardSet`] owns one [`GroupTransport`] per shard and routes keys with
//! [`HashRouter`]. It is generic over the transport, so a sharded
//! HyperLoop deployment and a sharded Naïve-RDMA baseline are the same code
//! — the apples-to-apples property the single-group layer already has,
//! lifted one level up. A 1-shard `ShardSet` degenerates to exactly its
//! inner transport: same ops, same generations, same latencies.

use crate::group::GroupError;
use crate::ops::{GroupAck, GroupOp};
use crate::transport::GroupTransport;
use rnicsim::NicCtx;
use simcore::{MetricsRegistry, SimDuration};
use std::collections::VecDeque;
use std::fmt;

/// Identifies one shard (one replication group) within a [`ShardSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u32);

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Stable hash routing (SplitMix64 finalizer): spreads arbitrary keys
/// uniformly over the shards.
#[derive(Debug)]
pub struct HashRouter;

impl HashRouter {
    /// Routes `key` to a shard in `0..n_shards`. Stable: the same key and
    /// shard count always give the same shard.
    ///
    /// # Panics
    ///
    /// Panics if `n_shards == 0`.
    pub fn route(key: u64, n_shards: u32) -> ShardId {
        assert!(n_shards > 0, "no shards to route to");
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        ShardId((z % n_shards as u64) as u32)
    }
}

/// An acknowledged operation, tagged with the shard it completed on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardAck {
    /// The shard whose chain acknowledged.
    pub shard: ShardId,
    /// The per-shard group ack (generation + result map).
    pub ack: GroupAck,
}

/// Per-shard record of the last completed migration, kept for metrics
/// export (`{prefix}.shard{i}.migration.*`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationStats {
    /// The epoch the shard serves after the migration.
    pub epoch: u64,
    /// Length of the pause window (writes neither issued nor acked).
    pub pause: SimDuration,
    /// Total bytes copied to the new chain (bulk copy + replayed tail).
    pub copy_bytes: u64,
    /// Dirty ranges replayed after the bulk copy (the WAL tail that raced
    /// the snapshot).
    pub replayed: u64,
}

/// Default bound of the per-shard holding pen (ops buffered while the
/// shard is paused for migration).
pub const DEFAULT_PEN_CAPACITY: usize = 64;

/// Many replication groups behind one [`HashRouter`].
///
/// Issue against a key with [`ShardSet::issue_key`] (router decides the
/// shard) or against an explicit shard with [`ShardSet::issue_on`]; collect
/// completions from *all* shards' completion queues with
/// [`ShardSet::poll`]. Generations are per-shard *and per-epoch* —
/// `(shard, epoch, gen)` is the unique operation identity; a shard's epoch
/// bumps each time its transport is swapped by a migration
/// ([`ShardSet::replace_shard`]), and generations restart on the new
/// transport.
///
/// A shard can be [`ShardSet::pause`]d (migration's pause window): it
/// accepts no new issues, but ops may be parked in a bounded holding pen
/// with [`ShardSet::defer_on`] and are issued in arrival order when the
/// shard [`ShardSet::resume`]s. Other shards are unaffected.
#[derive(Debug)]
pub struct ShardSet<T: GroupTransport> {
    shards: Vec<T>,
    issued: Vec<u64>,
    acked: Vec<u64>,
    epochs: Vec<u64>,
    paused: Vec<bool>,
    pens: Vec<VecDeque<GroupOp>>,
    migrations: Vec<Option<MigrationStats>>,
    /// Reusable fan-in buffer for [`ShardSet::poll_shard_into`].
    ack_scratch: Vec<GroupAck>,
}

impl<T: GroupTransport> ShardSet<T> {
    /// Builds a shard set over `shards` transports (chain order = shard id
    /// order), routing keys with [`HashRouter`].
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn with_hash_router(shards: Vec<T>) -> Self {
        assert!(!shards.is_empty(), "shard set needs at least one shard");
        let n = shards.len();
        ShardSet {
            shards,
            issued: vec![0; n],
            acked: vec![0; n],
            epochs: vec![0; n],
            paused: vec![false; n],
            pens: (0..n).map(|_| VecDeque::new()).collect(),
            migrations: vec![None; n],
            ack_scratch: Vec::new(),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The shard that owns `key`.
    pub fn route(&self, key: u64) -> ShardId {
        HashRouter::route(key, self.shard_count())
    }

    /// One shard's transport.
    pub fn shard(&self, id: ShardId) -> &T {
        &self.shards[id.0 as usize]
    }

    /// Iterates `(id, transport)` over all shards.
    pub fn iter(&self) -> impl Iterator<Item = (ShardId, &T)> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, t)| (ShardId(i as u32), t))
    }

    /// Operations issued but not yet acknowledged, across all shards.
    pub fn in_flight(&self) -> u64 {
        self.shards.iter().map(|s| s.in_flight()).sum()
    }

    /// Operations acknowledged, across all shards.
    pub fn completed(&self) -> u64 {
        self.acked.iter().sum()
    }

    /// Operations acknowledged on one shard.
    pub fn completed_on(&self, id: ShardId) -> u64 {
        self.acked[id.0 as usize]
    }

    /// True if `key`'s shard can take another op right now (not paused,
    /// window open).
    pub fn can_issue_key(&self, key: u64) -> bool {
        self.can_issue_on(self.route(key))
    }

    /// True if the explicit shard can take another op right now (not
    /// paused, window open).
    pub fn can_issue_on(&self, id: ShardId) -> bool {
        !self.paused[id.0 as usize] && self.shards[id.0 as usize].can_issue()
    }

    /// Issues `op` on the shard that owns `key`, returning the shard and
    /// the per-shard generation.
    ///
    /// # Errors
    ///
    /// [`GroupError::WindowFull`] if that shard's window is full (other
    /// shards may still have room — the caller decides whether to retry,
    /// pick another key, or poll); [`GroupError::OutOfRange`] for offsets
    /// beyond the shard's shared region.
    pub fn issue_key(
        &mut self,
        ctx: &mut NicCtx<'_>,
        key: u64,
        op: GroupOp,
    ) -> Result<(ShardId, u64), GroupError> {
        let shard = self.route(key);
        self.issue_on(ctx, shard, op).map(|gen| (shard, gen))
    }

    /// Issues `op` on an explicit shard, returning the per-shard
    /// generation.
    ///
    /// # Errors
    ///
    /// As [`ShardSet::issue_key`]; a paused shard reports
    /// [`GroupError::WindowFull`] (park the op with [`ShardSet::defer_on`]
    /// instead).
    pub fn issue_on(
        &mut self,
        ctx: &mut NicCtx<'_>,
        id: ShardId,
        op: GroupOp,
    ) -> Result<u64, GroupError> {
        if self.paused[id.0 as usize] {
            return Err(GroupError::WindowFull);
        }
        let gen = self.shards[id.0 as usize].issue(ctx, op)?;
        self.issued[id.0 as usize] += 1;
        Ok(gen)
    }

    /// Collects completed operations from every shard's completion queue
    /// (aggregate fan-in), in shard order.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<ShardAck> {
        let mut acks = Vec::new();
        self.poll_into(ctx, &mut acks);
        acks
    }

    /// Collects completed operations from every shard into a
    /// caller-provided buffer, returning how many were appended. The
    /// fan-in runs every driver tick over every shard, so it reuses one
    /// internal scratch vector per shard transport and appends into the
    /// caller's — no per-tick allocation at steady state.
    pub fn poll_into(&mut self, ctx: &mut NicCtx<'_>, acks: &mut Vec<ShardAck>) -> usize {
        let mut appended = 0;
        for i in 0..self.shards.len() {
            appended += self.poll_shard_into(ctx, ShardId(i as u32), acks);
        }
        appended
    }

    /// Collects completed operations from one shard's completion queue
    /// into a caller-provided buffer, with the same accounting as
    /// [`ShardSet::poll`], returning how many acks were appended. A
    /// migration's coordinator uses this to drain the migrating shard
    /// without touching (or stealing acks from) the shards that keep
    /// serving.
    pub fn poll_shard_into(
        &mut self,
        ctx: &mut NicCtx<'_>,
        id: ShardId,
        acks: &mut Vec<ShardAck>,
    ) -> usize {
        let i = id.0 as usize;
        let mut scratch = std::mem::take(&mut self.ack_scratch);
        scratch.clear();
        let appended = self.shards[i].poll_into(ctx, &mut scratch);
        self.acked[i] += appended as u64;
        acks.extend(scratch.drain(..).map(|ack| ShardAck { shard: id, ack }));
        self.ack_scratch = scratch;
        appended
    }

    // ---- migration support -------------------------------------------

    /// The epoch shard `id` currently serves (0 until its first
    /// migration).
    pub fn epoch(&self, id: ShardId) -> u64 {
        self.epochs[id.0 as usize]
    }

    /// Ops parked in shard `id`'s holding pen.
    pub fn pen_len(&self, id: ShardId) -> usize {
        self.pens[id.0 as usize].len()
    }

    /// The bound every shard's holding pen enforces
    /// ([`DEFAULT_PEN_CAPACITY`]).
    pub fn pen_capacity(&self) -> usize {
        DEFAULT_PEN_CAPACITY
    }

    /// Opens the migration pause window on shard `id`: the shard stops
    /// admitting new issues (other shards keep serving). In-flight ops
    /// keep completing and must be drained before cutover.
    ///
    /// # Panics
    ///
    /// Panics if the shard is already paused.
    pub fn pause(&mut self, id: ShardId) {
        let i = id.0 as usize;
        assert!(!self.paused[i], "{id} is already paused");
        self.paused[i] = true;
    }

    /// Parks `op` in the paused shard's bounded holding pen; penned ops
    /// issue in arrival order once the shard resumes.
    ///
    /// # Errors
    ///
    /// [`GroupError::WindowFull`] if the pen is at capacity (backpressure:
    /// the caller retries after the migration, exactly as for a full
    /// window).
    ///
    /// # Panics
    ///
    /// Panics if the shard is not paused — an unpaused shard takes ops
    /// directly via [`ShardSet::issue_on`].
    pub fn defer_on(&mut self, id: ShardId, op: GroupOp) -> Result<(), GroupError> {
        let i = id.0 as usize;
        assert!(self.paused[i], "deferring onto unpaused {id}");
        if self.pens[i].len() >= DEFAULT_PEN_CAPACITY {
            return Err(GroupError::WindowFull);
        }
        self.pens[i].push_back(op);
        Ok(())
    }

    /// Atomically swaps shard `id`'s transport for `new` (the migration
    /// cutover), bumping the shard's epoch. Returns the old transport so
    /// the caller can retire it.
    ///
    /// # Panics
    ///
    /// Panics unless the shard is paused with zero in-flight ops — acked
    /// writes may never be dropped, and an op in flight on the old chain
    /// at swap time would be exactly that.
    pub fn replace_shard(&mut self, id: ShardId, new: T) -> T {
        let i = id.0 as usize;
        assert!(self.paused[i], "cutover outside the pause window on {id}");
        assert_eq!(
            self.shards[i].in_flight(),
            0,
            "cutover with ops still in flight on {id}"
        );
        self.epochs[i] += 1;
        std::mem::replace(&mut self.shards[i], new)
    }

    /// Closes the pause window on shard `id` and drains as much of its
    /// holding pen as the window allows (continue with
    /// [`ShardSet::drain_pen`] after polling if ops remain). Returns the
    /// generations issued for drained ops, in pen order.
    ///
    /// # Panics
    ///
    /// Panics if the shard is not paused, or if a penned op is rejected
    /// for a reason other than a full window (its offset was validated
    /// against the old chain's layout — a mismatched new chain is a
    /// planning bug).
    pub fn resume(&mut self, ctx: &mut NicCtx<'_>, id: ShardId) -> Vec<u64> {
        let i = id.0 as usize;
        assert!(self.paused[i], "{id} is not paused");
        self.paused[i] = false;
        self.drain_pen(ctx, id)
    }

    /// Issues parked ops from shard `id`'s pen while its window has room.
    /// Returns the generations issued, in pen order.
    pub fn drain_pen(&mut self, ctx: &mut NicCtx<'_>, id: ShardId) -> Vec<u64> {
        let i = id.0 as usize;
        let mut gens = Vec::new();
        while !self.pens[i].is_empty() && self.can_issue_on(id) {
            let op = self.pens[i].pop_front().expect("checked non-empty");
            let gen = self
                .issue_on(ctx, id, op)
                .expect("window checked before issuing penned op");
            gens.push(gen);
        }
        gens
    }

    /// Records the stats of shard `id`'s last migration for metrics
    /// export.
    pub fn record_migration(&mut self, id: ShardId, stats: MigrationStats) {
        self.migrations[id.0 as usize] = Some(stats);
    }

    /// Snapshots per-shard client counters into `reg`:
    /// `{prefix}.shard{i}.{issued,acked,epoch}` counters,
    /// `{prefix}.shard{i}.{in_flight,window,pen}` and `{prefix}.shards`
    /// gauges, plus `{prefix}.shard{i}.migration.*` for shards that have
    /// migrated. Exporting twice is idempotent: cumulative totals are
    /// `counter_set`, point-in-time values are gauges.
    pub fn export_into(&self, reg: &mut MetricsRegistry, prefix: &str) {
        reg.set_gauge(&format!("{prefix}.shards"), self.shards.len() as f64);
        for (i, shard) in self.shards.iter().enumerate() {
            reg.counter_set(&format!("{prefix}.shard{i}.issued"), self.issued[i]);
            reg.counter_set(&format!("{prefix}.shard{i}.acked"), self.acked[i]);
            reg.counter_set(&format!("{prefix}.shard{i}.epoch"), self.epochs[i]);
            reg.set_gauge(
                &format!("{prefix}.shard{i}.in_flight"),
                shard.in_flight() as f64,
            );
            reg.set_gauge(&format!("{prefix}.shard{i}.window"), shard.window() as f64);
            reg.set_gauge(&format!("{prefix}.shard{i}.pen"), self.pens[i].len() as f64);
            if let Some(m) = self.migrations[i] {
                let mp = format!("{prefix}.shard{i}.migration");
                reg.counter_set(&format!("{mp}.pause_ns"), m.pause.as_nanos());
                reg.counter_set(&format!("{mp}.copy_bytes"), m.copy_bytes);
                reg.counter_set(&format!("{mp}.replayed"), m.replayed);
                reg.counter_set(&format!("{mp}.epoch"), m.epoch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coverage(n: u32, keys: impl Iterator<Item = u64>) -> Vec<u64> {
        let mut hits = vec![0u64; n as usize];
        for k in keys {
            let s = HashRouter::route(k, n);
            assert!(s.0 < n, "router escaped range: {s} of {n}");
            hits[s.0 as usize] += 1;
        }
        hits
    }

    #[test]
    fn hash_router_is_stable() {
        for n in [1u32, 2, 3, 8, 64] {
            for key in (0..10_000u64).step_by(37) {
                assert_eq!(HashRouter::route(key, n), HashRouter::route(key, n));
            }
        }
    }

    #[test]
    fn hash_router_covers_every_shard() {
        for n in [1u32, 2, 5, 8] {
            let hits = coverage(n, 0..4096);
            assert!(
                hits.iter().all(|&h| h > 0),
                "{n} shards, empty shard: {hits:?}"
            );
        }
    }

    #[test]
    fn hash_router_spreads_sequential_keys_roughly_evenly() {
        let n = 8u32;
        let total = 64_000u64;
        let hits = coverage(n, 0..total);
        let expect = total / n as u64;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                h > expect / 2 && h < expect * 2,
                "shard {i} badly skewed: {h} vs ~{expect}"
            );
        }
    }
}
