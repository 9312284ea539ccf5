//! Group locking over gCAS (paper §5, "Locking and Isolation").
//!
//! One 8-byte word per lock, at the same shared-region offset on every
//! replica. Encoding:
//!
//! * `0` — free;
//! * `WRITER_BIT | owner` — write-locked by `owner` on every replica
//!   (acquired with a group CAS, undone with the execute map on partial
//!   failure, exactly the paper's undo protocol);
//! * `1..WRITER_BIT` — reader count. Read locks are **per replica**: only
//!   the replica being read participates, so all replicas can serve
//!   consistent reads concurrently (the paper's throughput argument).
//!
//! The lock calls are asynchronous like everything on the data path: each
//! returns the generation of the gCAS it issued; feed the matching
//! [`GroupAck`] back to interpret the outcome and learn the follow-up
//! action (retry or undo).

use crate::group::GroupError;
use crate::ops::{ExecuteMap, GroupAck, GroupOp};
use crate::transport::GroupTransport;
use rnicsim::NicCtx;
use simcore::{SimDuration, SimRng};

/// High bit marks a writer; the rest of the word is the owner id.
pub const WRITER_BIT: u64 = 1 << 63;

/// A table of group locks occupying `count` words starting at
/// `region_offset` in the shared region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockTable {
    region_offset: u64,
    count: u32,
}

/// Outcome of a write-lock attempt, derived from its gCAS ack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrLockOutcome {
    /// Every replica swapped: the lock is held group-wide.
    Acquired,
    /// No replica swapped (all busy): retry later. The first holder word is
    /// reported for diagnostics.
    Busy {
        /// The value observed on the first replica.
        holder: u64,
    },
    /// Some replicas swapped and some did not: the caller must drive the
    /// provided undo (a gCAS scoped to the winners, re-issued until every
    /// winner has observably released) before retrying.
    Partial {
        /// Retrying release of the partially acquired replicas. Drive it
        /// with [`WrUndo::op`] / [`WrUndo::absorb`] until done.
        undo: WrUndo,
    },
}

/// A retrying undo of a partially acquired write lock.
///
/// The one-shot undo gCAS of the original protocol can itself partially
/// fail: if a replica fault (torn word, transient repair) leaves `compare`
/// mismatched on some winner, that winner's lock word stays held by a dead
/// owner forever. `WrUndo` tracks the set of replicas still holding the
/// owner's word and re-issues the release until each one has observably
/// returned to free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrUndo {
    id: u32,
    owner: u64,
    remaining: ExecuteMap,
}

impl WrUndo {
    /// An undo for lock `id` held by `owner` on the `remaining` replicas.
    pub fn new(id: u32, owner: u64, remaining: ExecuteMap) -> Self {
        WrUndo {
            id,
            owner,
            remaining,
        }
    }

    /// Replicas still holding the owner's word.
    pub fn remaining(&self) -> ExecuteMap {
        self.remaining
    }

    /// True once every winner has been released.
    pub fn is_done(&self) -> bool {
        self.remaining.is_empty()
    }

    /// The release gCAS for the replicas still held. Issue it, feed the
    /// matching ack to [`WrUndo::absorb`], and repeat while not done.
    pub fn op(&self, locks: &LockTable) -> GroupOp {
        GroupOp::Cas {
            offset: locks.word_offset(self.id),
            compare: WRITER_BIT | self.owner,
            swap: 0,
            execute: self.remaining,
        }
    }

    /// Issues the current release gCAS.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] from the underlying issue.
    pub fn issue<T: GroupTransport>(
        &self,
        locks: &LockTable,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
    ) -> Result<u64, GroupError> {
        client.issue(ctx, self.op(locks))
    }

    /// Absorbs the ack of [`WrUndo::op`]: a replica leaves the remaining
    /// set when its CAS matched (we released it) or it was already free
    /// (released by recovery). Anything else — a faulted or foreign word —
    /// keeps the replica in the set for the next attempt. Returns true
    /// when every winner is released.
    pub fn absorb(&mut self, ack: &GroupAck) -> bool {
        let held = WRITER_BIT | self.owner;
        let mut rest = ExecuteMap::none();
        for (i, &orig) in ack.result_map.iter().enumerate() {
            let i = i as u32;
            if self.remaining.contains(i) && orig != held && orig != 0 {
                rest = rest.with(i);
            }
        }
        self.remaining = rest;
        self.is_done()
    }
}

/// Deterministic seeded backoff for lock retries.
///
/// Retrying a contended lock CAS immediately on every ack phase-locks the
/// contenders: under sustained reader churn each writer attempt observes a
/// fresh (stale-by-arrival) count and can spin forever. Spacing retries by
/// a jittered, exponentially growing delay desynchronizes the contenders
/// so the word is eventually observed free. Fully deterministic for a
/// given seed, so simulations stay replayable.
#[derive(Debug, Clone)]
pub struct LockBackoff {
    rng: SimRng,
    attempt: u32,
}

/// The shortest backoff delay, and the window the first retry draws from.
const BACKOFF_BASE: SimDuration = SimDuration::from_micros(1);
/// The widest window a retry's delay is drawn from.
const BACKOFF_CAP: SimDuration = SimDuration::from_micros(64);

impl LockBackoff {
    /// Backoff whose jitter is drawn from `seed`.
    pub fn new(seed: u64) -> Self {
        LockBackoff {
            rng: SimRng::new(seed),
            attempt: 0,
        }
    }

    /// The next delay: full jitter over an exponentially growing window
    /// (`BACKOFF_BASE .. BACKOFF_BASE * 2^attempt`, capped at
    /// `BACKOFF_CAP`).
    pub fn next_delay(&mut self) -> SimDuration {
        let exp = self.attempt.min(16);
        self.attempt = self.attempt.saturating_add(1);
        let base = BACKOFF_BASE.as_nanos();
        let window = base.saturating_mul(1u64 << exp).min(BACKOFF_CAP.as_nanos());
        SimDuration::from_nanos(self.rng.gen_range(base..window + 1))
    }

    /// Resets the window to its base after a successful acquisition.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Outcome of a per-replica read-lock CAS attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RdLockOutcome {
    /// The reader count advanced; the read lock is held on that replica.
    Acquired,
    /// A writer holds the lock; retry later.
    WriterHeld {
        /// The writer's word.
        holder: u64,
    },
    /// The count changed concurrently; retry with the reported value.
    Retry {
        /// The value observed (use as the next `compare`).
        observed: u64,
    },
}

impl LockTable {
    /// A table of `count` lock words at `region_offset`.
    ///
    /// # Panics
    ///
    /// Panics if `region_offset` is not 8-byte aligned or `count == 0`.
    pub fn new(region_offset: u64, count: u32) -> Self {
        assert_eq!(region_offset % 8, 0, "lock words must be aligned");
        assert!(count > 0, "empty lock table");
        LockTable {
            region_offset,
            count,
        }
    }

    /// Shared-region offset of lock `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn word_offset(&self, id: u32) -> u64 {
        assert!(id < self.count, "lock id {id} out of range");
        self.region_offset + id as u64 * 8
    }

    /// Number of locks in the table.
    pub fn count(&self) -> u32 {
        self.count
    }

    /// Issues a group write-lock acquisition for `id` by `owner`.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] from the underlying issue.
    ///
    /// # Panics
    ///
    /// Panics if `owner` overflows into [`WRITER_BIT`].
    pub fn wr_lock<T: GroupTransport>(
        &self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        id: u32,
        owner: u64,
    ) -> Result<u64, GroupError> {
        assert!(owner & WRITER_BIT == 0, "owner id too large");
        let gs = client.group_size();
        client.issue(
            ctx,
            GroupOp::Cas {
                offset: self.word_offset(id),
                compare: 0,
                swap: WRITER_BIT | owner,
                execute: ExecuteMap::all(gs),
            },
        )
    }

    /// Interprets a write-lock ack.
    pub fn interpret_wr_lock(&self, ack: &GroupAck, id: u32, owner: u64) -> WrLockOutcome {
        let gs = ack.result_map.len() as u32;
        let winners = ack.cas_winners(0, ExecuteMap::all(gs));
        if winners == ExecuteMap::all(gs) {
            WrLockOutcome::Acquired
        } else if winners == ExecuteMap::none() {
            WrLockOutcome::Busy {
                holder: ack.result_map.first().copied().unwrap_or(0),
            }
        } else {
            WrLockOutcome::Partial {
                undo: WrUndo::new(id, owner, winners),
            }
        }
    }

    /// Issues a group write-lock release.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] from the underlying issue.
    pub fn wr_unlock<T: GroupTransport>(
        &self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        id: u32,
        owner: u64,
    ) -> Result<u64, GroupError> {
        let gs = client.group_size();
        client.issue(
            ctx,
            GroupOp::Cas {
                offset: self.word_offset(id),
                compare: WRITER_BIT | owner,
                swap: 0,
                execute: ExecuteMap::all(gs),
            },
        )
    }

    /// Issues a read-lock CAS on one replica: `expected → expected + 1`.
    /// Start with `expected = 0` and follow [`RdLockOutcome::Retry`] values.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] from the underlying issue.
    #[allow(clippy::too_many_arguments)] // verbs-style call: ids + fabric triple
    pub fn rd_lock<T: GroupTransport>(
        &self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        id: u32,
        replica: u32,
        expected: u64,
    ) -> Result<u64, GroupError> {
        client.issue(
            ctx,
            GroupOp::Cas {
                offset: self.word_offset(id),
                compare: expected,
                swap: expected + 1,
                execute: ExecuteMap::none().with(replica),
            },
        )
    }

    /// Issues a read-lock release on one replica: `expected → expected - 1`.
    ///
    /// # Errors
    ///
    /// Propagates [`GroupError`] from the underlying issue.
    ///
    /// # Panics
    ///
    /// Panics if `expected` is zero or a writer word.
    #[allow(clippy::too_many_arguments)] // verbs-style call: ids + fabric triple
    pub fn rd_unlock<T: GroupTransport>(
        &self,
        client: &mut T,
        ctx: &mut NicCtx<'_>,
        id: u32,
        replica: u32,
        expected: u64,
    ) -> Result<u64, GroupError> {
        assert!(
            expected > 0 && expected & WRITER_BIT == 0,
            "not reader-held"
        );
        client.issue(
            ctx,
            GroupOp::Cas {
                offset: self.word_offset(id),
                compare: expected,
                swap: expected - 1,
                execute: ExecuteMap::none().with(replica),
            },
        )
    }

    /// Interprets a read-lock ack for the given replica.
    pub fn interpret_rd_lock(&self, ack: &GroupAck, replica: u32, expected: u64) -> RdLockOutcome {
        let observed = ack.result_map[replica as usize];
        if observed == expected {
            RdLockOutcome::Acquired
        } else if observed & WRITER_BIT != 0 {
            RdLockOutcome::WriterHeld { holder: observed }
        } else {
            RdLockOutcome::Retry { observed }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupConfig;
    use crate::group::HyperLoopGroup;
    use crate::harness::{drive, fabric_sim, FabricSim};
    use netsim::NodeId;
    use simcore::Simulation;

    fn setup() -> (Simulation<FabricSim>, HyperLoopGroup, LockTable) {
        let mut sim = fabric_sim(4, 64 << 20, 3);
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
        });
        sim.run();
        (sim, group, LockTable::new(1024, 16))
    }

    fn ack_of(sim: &mut Simulation<FabricSim>, group: &mut HyperLoopGroup, gen: u64) -> GroupAck {
        sim.run();
        let acks = drive(sim, |ctx| group.client.poll(ctx));
        acks.into_iter()
            .find(|a| a.gen == gen)
            .expect("ack for gen")
    }

    #[test]
    fn write_lock_acquire_and_release() {
        let (mut sim, mut group, locks) = setup();
        let gen = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 3, 77).unwrap()
        });
        let ack = ack_of(&mut sim, &mut group, gen);
        assert_eq!(
            locks.interpret_wr_lock(&ack, 3, 77),
            WrLockOutcome::Acquired
        );

        // A second owner is rejected everywhere (Busy, not Partial).
        let gen2 = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 3, 88).unwrap()
        });
        let ack2 = ack_of(&mut sim, &mut group, gen2);
        assert_eq!(
            locks.interpret_wr_lock(&ack2, 3, 88),
            WrLockOutcome::Busy {
                holder: WRITER_BIT | 77
            }
        );

        // Release, then 88 can acquire.
        let gen3 = drive(&mut sim, |ctx| {
            locks.wr_unlock(&mut group.client, ctx, 3, 77).unwrap()
        });
        ack_of(&mut sim, &mut group, gen3);
        let gen4 = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 3, 88).unwrap()
        });
        let ack4 = ack_of(&mut sim, &mut group, gen4);
        assert_eq!(
            locks.interpret_wr_lock(&ack4, 3, 88),
            WrLockOutcome::Acquired
        );
    }

    #[test]
    fn partial_acquisition_is_undone() {
        let (mut sim, mut group, locks) = setup();
        // Poison the lock word on replica 1 only (simulating a racing
        // owner): write directly into its memory.
        let layout = *group.client.layout();
        let addr = layout.shared_base + locks.word_offset(5);
        sim.model
            .fab
            .mem(NodeId(2))
            .write_durable(addr, &(WRITER_BIT | 999).to_le_bytes())
            .unwrap();

        let gen = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 5, 42).unwrap()
        });
        let ack = ack_of(&mut sim, &mut group, gen);
        let WrLockOutcome::Partial { mut undo } = locks.interpret_wr_lock(&ack, 5, 42) else {
            panic!("expected partial outcome, got {ack:?}");
        };
        assert_eq!(undo.remaining().0, 0b101, "replicas 0 and 2 won");
        // Drive the undo: replicas 0 and 2 release in one round here.
        let gen2 = drive(&mut sim, |ctx| {
            undo.issue(&locks, &mut group.client, ctx).unwrap()
        });
        let ack2 = ack_of(&mut sim, &mut group, gen2);
        assert!(undo.absorb(&ack2), "clean undo completes in one round");
        for n in [NodeId(1), NodeId(3)] {
            assert_eq!(
                sim.model.fab.mem(n).read_vec(addr, 8).unwrap(),
                0u64.to_le_bytes(),
                "undo must release {n}"
            );
        }
        // Replica 1 still belongs to the racing owner.
        assert_eq!(
            sim.model.fab.mem(NodeId(2)).read_vec(addr, 8).unwrap(),
            (WRITER_BIT | 999).to_le_bytes()
        );
    }

    /// Regression for the lock-word leak: when the undo gCAS itself
    /// partially fails (a replica fault mid-undo corrupts a winner's word),
    /// the one-shot undo of the original protocol left that winner held
    /// forever. `WrUndo` must keep re-issuing until every surviving winner
    /// is observably free.
    #[test]
    fn undo_retries_until_every_replica_released() {
        let (mut sim, mut group, locks) = setup();
        let layout = *group.client.layout();
        let addr = layout.shared_base + locks.word_offset(9);
        // Replica 1 is taken by a racing owner so the acquisition is
        // partial (winners: replicas 0 and 2).
        sim.model
            .fab
            .mem(NodeId(2))
            .write_durable(addr, &(WRITER_BIT | 999).to_le_bytes())
            .unwrap();
        let gen = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 9, 42).unwrap()
        });
        let ack = ack_of(&mut sim, &mut group, gen);
        let WrLockOutcome::Partial { mut undo } = locks.interpret_wr_lock(&ack, 9, 42) else {
            panic!("expected partial outcome, got {ack:?}");
        };
        // Fault injection mid-undo: winner replica 2's word is torn to a
        // foreign value before the undo gCAS arrives, so its release leg
        // fails while replica 0's succeeds.
        sim.model
            .fab
            .mem(NodeId(3))
            .write_durable(addr, &(WRITER_BIT | 666).to_le_bytes())
            .unwrap();
        let gen2 = drive(&mut sim, |ctx| {
            undo.issue(&locks, &mut group.client, ctx).unwrap()
        });
        let ack2 = ack_of(&mut sim, &mut group, gen2);
        assert!(!undo.absorb(&ack2), "faulted winner must stay pending");
        assert_eq!(undo.remaining().0, 0b100, "only replica 2 still held");
        // The fault heals: recovery restores the owner's word from the
        // durable medium. The retry loop must now release it.
        sim.model
            .fab
            .mem(NodeId(3))
            .write_durable(addr, &(WRITER_BIT | 42).to_le_bytes())
            .unwrap();
        let gen3 = drive(&mut sim, |ctx| {
            undo.issue(&locks, &mut group.client, ctx).unwrap()
        });
        let ack3 = ack_of(&mut sim, &mut group, gen3);
        assert!(undo.absorb(&ack3), "retry must complete the release");
        for n in [NodeId(1), NodeId(3)] {
            assert_eq!(
                sim.model.fab.mem(n).read_vec(addr, 8).unwrap(),
                0u64.to_le_bytes(),
                "every surviving winner must return to free on {n}"
            );
        }
    }

    /// A winner released out-of-band (word already zero) leaves the undo
    /// set without another CAS round.
    #[test]
    fn undo_absorbs_already_free_words() {
        let mut undo = WrUndo::new(0, 7, ExecuteMap::none().with(0).with(2));
        let ack = GroupAck {
            gen: 1,
            result_map: vec![0, 5, WRITER_BIT | 7],
        };
        assert!(undo.absorb(&ack), "free + matched both count as released");
        assert!(undo.is_done());
    }

    #[test]
    fn backoff_is_deterministic_and_grows() {
        let delays = |seed| {
            let mut b = LockBackoff::new(seed);
            (0..12).map(|_| b.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(delays(7), delays(7), "same seed, same schedule");
        assert_ne!(delays(7), delays(8), "different seeds desynchronize");
        let mut b = LockBackoff::new(3);
        let mut max_seen = SimDuration::ZERO;
        for _ in 0..64 {
            let d = b.next_delay();
            assert!(d >= BACKOFF_BASE && d <= BACKOFF_CAP, "{d:?}");
            max_seen = max_seen.max(d);
        }
        assert!(
            max_seen.as_nanos() > 4 * BACKOFF_BASE.as_nanos(),
            "window must grow beyond the base"
        );
    }

    #[test]
    fn read_locks_count_per_replica() {
        let (mut sim, mut group, locks) = setup();
        // Two readers on replica 1.
        for expected in [0u64, 1] {
            let gen = drive(&mut sim, |ctx| {
                locks
                    .rd_lock(&mut group.client, ctx, 0, 1, expected)
                    .unwrap()
            });
            let ack = ack_of(&mut sim, &mut group, gen);
            assert_eq!(
                locks.interpret_rd_lock(&ack, 1, expected),
                RdLockOutcome::Acquired
            );
        }
        // A writer now sees replica 1 busy -> partial -> undo available.
        let gen = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 0, 7).unwrap()
        });
        let ack = ack_of(&mut sim, &mut group, gen);
        assert!(matches!(
            locks.interpret_wr_lock(&ack, 0, 7),
            WrLockOutcome::Partial { .. }
        ));
    }

    #[test]
    fn stale_read_lock_expectation_retries() {
        let (mut sim, mut group, locks) = setup();
        let gen = drive(&mut sim, |ctx| {
            locks.rd_lock(&mut group.client, ctx, 2, 0, 0).unwrap()
        });
        ack_of(&mut sim, &mut group, gen);
        // Second reader wrongly assumes count 0.
        let gen2 = drive(&mut sim, |ctx| {
            locks.rd_lock(&mut group.client, ctx, 2, 0, 0).unwrap()
        });
        let ack2 = ack_of(&mut sim, &mut group, gen2);
        assert_eq!(
            locks.interpret_rd_lock(&ack2, 0, 0),
            RdLockOutcome::Retry { observed: 1 }
        );
    }

    #[test]
    fn word_offsets_are_distinct_and_aligned() {
        let t = LockTable::new(4096, 8);
        for i in 0..8 {
            assert_eq!(t.word_offset(i) % 8, 0);
        }
        assert_eq!(t.word_offset(1) - t.word_offset(0), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_lock_id_panics() {
        LockTable::new(0, 4).word_offset(4);
    }
}
