//! Consistent replica reads (paper §5, "Locking and Isolation").
//!
//! HyperLoop's write locks keep all replicas identical, so *any* replica can
//! serve a consistent read — that is the read-throughput argument of §5/§7.
//! A locked read is three steps, all initiated by the client, none touching
//! a replica CPU:
//!
//! 1. a per-replica read-lock gCAS (`expected → expected + 1`) on the lock
//!    word, scoped to the one replica being read;
//! 2. a one-sided RDMA READ of the data from that replica;
//! 3. the matching read-unlock gCAS.
//!
//! [`ReplicaReader`] owns one client→replica QP per chain member and drives
//! any number of concurrent reads as an ack-driven state machine.

use crate::group::GroupClient;
use crate::lock::{LockBackoff, LockTable, RdLockOutcome};
use crate::ops::GroupAck;
use netsim::NodeId;
use rnicsim::{wqe_flags, CqId, NicCtx, Opcode, QpId, Wqe};
use simcore::SimTime;
use std::collections::HashMap;

/// Maximum bytes of one locked read.
pub const READ_SLOT: u64 = 8192;

#[derive(Debug)]
enum Phase {
    Locking { expected: u64 },
    Reading,
    Unlocking { count: u64 },
}

#[derive(Debug)]
struct ReadState {
    replica: u32,
    lock_id: u32,
    offset: u64,
    len: u64,
    phase: Phase,
    data: Option<Vec<u8>>,
}

/// A completed locked read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedRead {
    /// Token returned by [`ReplicaReader::begin`].
    pub token: u64,
    /// Chain position served from.
    pub replica: u32,
    /// The bytes read under the lock.
    pub data: Vec<u8>,
}

/// Client-side machinery for lock-protected one-sided replica reads.
#[derive(Debug)]
pub struct ReplicaReader {
    client_node: NodeId,
    qps: Vec<QpId>,
    cq: CqId,
    buf_base: u64,
    buf_slots: u32,
    locks: LockTable,
    shared_base: u64,
    pending: HashMap<u64, ReadState>,
    /// gCAS generation → read token.
    gen_to_token: HashMap<u64, u64>,
    next_token: u64,
    /// Jittered retry pacing for contended lock CASes. Immediate retries
    /// phase-lock with other contenders under churn (the reader/writer
    /// livelock); spaced retries let a writer's CAS land in a gap.
    backoff: LockBackoff,
    /// Lock retries waiting out their backoff delay, in arrival order.
    deferred: Vec<(SimTime, u64)>,
    /// Total lock-CAS retries (diagnostics).
    pub lock_retries: u64,
}

impl ReplicaReader {
    /// Wires one read QP from the client to every replica and a bounce
    /// buffer; `locks` is the same table the writers use.
    pub fn setup(
        fab: &mut rnicsim::RdmaFabric,
        client: &GroupClient,
        replica_nodes: &[NodeId],
        locks: LockTable,
    ) -> ReplicaReader {
        let client_node = client.node();
        let cq = fab.create_cq(client_node);
        let buf_slots = 32u32;
        let buf_base = fab.alloc(client_node, READ_SLOT * buf_slots as u64);
        let mut qps = Vec::with_capacity(replica_nodes.len());
        for &rn in replica_nodes {
            let qp = fab.create_qp(client_node, cq, cq);
            let rcq = fab.create_cq(rn);
            let rqp = fab.create_qp(rn, rcq, rcq);
            fab.connect(client_node, qp, rn, rqp);
            qps.push(qp);
        }
        ReplicaReader {
            client_node,
            qps,
            cq,
            buf_base,
            buf_slots,
            locks,
            shared_base: client.layout().shared_base,
            pending: HashMap::new(),
            gen_to_token: HashMap::new(),
            next_token: 0,
            backoff: LockBackoff::new(0x5EED ^ client_node.0 as u64),
            deferred: Vec::new(),
            lock_retries: 0,
        }
    }

    /// Reads currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Starts a locked read of `[offset, offset+len)` from chain position
    /// `replica`, protected by `lock_id`. Completion arrives from
    /// [`ReplicaReader::pump`].
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds [`READ_SLOT`] or `replica` is out of range.
    #[allow(clippy::too_many_arguments)] // verbs-style call: ids + fabric triple
    pub fn begin(
        &mut self,
        client: &mut GroupClient,
        ctx: &mut NicCtx<'_>,
        replica: u32,
        lock_id: u32,
        offset: u64,
        len: u64,
    ) -> u64 {
        assert!(len <= READ_SLOT, "read larger than the bounce slot");
        assert!((replica as usize) < self.qps.len(), "replica out of range");
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(
            token,
            ReadState {
                replica,
                lock_id,
                offset,
                len,
                phase: Phase::Locking { expected: 0 },
                data: None,
            },
        );
        let gen = self
            .locks
            .rd_lock(client, ctx, lock_id, replica, 0)
            .expect("lock issue");
        self.gen_to_token.insert(gen, token);
        token
    }

    fn post_data_read(&mut self, ctx: &mut NicCtx<'_>, token: u64) {
        let st = &self.pending[&token];
        let slot = self.buf_base + (token % self.buf_slots as u64) * READ_SLOT;
        ctx.post_send(
            self.client_node,
            self.qps[st.replica as usize],
            Wqe {
                opcode: Opcode::Read,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: slot,
                len: st.len,
                remote_addr: self.shared_base + st.offset,
                wr_id: token,
                ..Wqe::default()
            },
        );
    }

    /// Drives every pending read with the group acks the caller polled from
    /// its [`GroupClient`] (lock/unlock legs) and this reader's own READ
    /// completions. Returns finished reads.
    pub fn pump(
        &mut self,
        client: &mut GroupClient,
        ctx: &mut NicCtx<'_>,
        group_acks: &[GroupAck],
    ) -> Vec<CompletedRead> {
        let mut done = Vec::new();

        // Lock / unlock acks.
        for ack in group_acks {
            let Some(&token) = self.gen_to_token.get(&ack.gen) else {
                continue;
            };
            self.gen_to_token.remove(&ack.gen);
            let st = self.pending.get_mut(&token).expect("pending read");
            match st.phase {
                Phase::Locking { expected } => {
                    match self.locks.interpret_rd_lock(ack, st.replica, expected) {
                        RdLockOutcome::Acquired => {
                            self.backoff.reset();
                            st.phase = Phase::Reading;
                            self.post_data_read(ctx, token);
                        }
                        RdLockOutcome::Retry { observed } => {
                            // Re-read: the next compare is the value the
                            // word actually held, not the stale expectation.
                            st.phase = Phase::Locking { expected: observed };
                            let due = ctx.now.saturating_add(self.backoff.next_delay());
                            self.deferred.push((due, token));
                        }
                        RdLockOutcome::WriterHeld { .. } => {
                            // Writer active: it will release to zero, so
                            // retry from scratch — after a jittered delay,
                            // so churning readers do not phase-lock against
                            // the writer's own retries.
                            st.phase = Phase::Locking { expected: 0 };
                            let due = ctx.now.saturating_add(self.backoff.next_delay());
                            self.deferred.push((due, token));
                        }
                    }
                }
                Phase::Unlocking { count } => {
                    match self.locks.interpret_rd_lock(ack, st.replica, count) {
                        RdLockOutcome::Acquired => {
                            let st = self.pending.remove(&token).expect("pending read");
                            done.push(CompletedRead {
                                token,
                                replica: st.replica,
                                data: st.data.expect("data read before unlock"),
                            });
                        }
                        RdLockOutcome::Retry { observed } => {
                            // Another reader changed the count; retry with it.
                            st.phase = Phase::Unlocking { count: observed };
                            let gen = self
                                .locks
                                .rd_unlock(client, ctx, st.lock_id, st.replica, observed)
                                .expect("unlock retry issue");
                            self.gen_to_token.insert(gen, token);
                        }
                        RdLockOutcome::WriterHeld { holder } => {
                            unreachable!("writer acquired over a held read lock: {holder:#x}")
                        }
                    }
                }
                Phase::Reading => unreachable!("group ack during data read"),
            }
        }

        // Data READ completions.
        let cqes = ctx.poll_cq(self.client_node, self.cq, 64);
        let idle = group_acks.is_empty() && cqes.is_empty();
        for cqe in cqes {
            assert_eq!(cqe.status, rnicsim::CqeStatus::Success, "{cqe:?}");
            let token = cqe.wr_id;
            let st = self.pending.get_mut(&token).expect("pending read");
            debug_assert!(matches!(st.phase, Phase::Reading));
            let slot = self.buf_base + (token % self.buf_slots as u64) * READ_SLOT;
            let data = ctx
                .mem(self.client_node)
                .read_vec(slot, st.len)
                .expect("bounce slot in bounds");
            st.data = Some(data);
            // Release: the count is at least 1 (ours); start optimistic.
            st.phase = Phase::Unlocking { count: 1 };
            let gen = self
                .locks
                .rd_unlock(client, ctx, st.lock_id, st.replica, 1)
                .expect("unlock issue");
            self.gen_to_token.insert(gen, token);
        }

        // Deferred lock retries whose backoff elapsed. An idle pump (no
        // acks, no completions) means the fabric drained while we waited:
        // further wall-clock delay cannot be observed, so fire them now.
        let mut i = 0;
        while i < self.deferred.len() {
            let (due, token) = self.deferred[i];
            if due <= ctx.now || idle {
                self.deferred.swap_remove(i);
                let st = &self.pending[&token];
                let Phase::Locking { expected } = st.phase else {
                    unreachable!("deferred retry outside the lock phase");
                };
                self.lock_retries += 1;
                let gen = self
                    .locks
                    .rd_lock(client, ctx, st.lock_id, st.replica, expected)
                    .expect("lock retry issue");
                self.gen_to_token.insert(gen, token);
            } else {
                i += 1;
            }
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GroupConfig;
    use crate::group::HyperLoopGroup;
    use crate::harness::{drive, fabric_sim, FabricSim};
    use crate::lock::{WrLockOutcome, WrUndo, WRITER_BIT};
    use crate::ops::GroupOp;
    use rnicsim::Payload;
    use simcore::Simulation;

    fn setup() -> (
        Simulation<FabricSim>,
        HyperLoopGroup,
        ReplicaReader,
        LockTable,
    ) {
        let mut sim = fabric_sim(4, 64 << 20, 31);
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
        });
        sim.run();
        let locks = LockTable::new(1 << 20, 16);
        let reader = drive(&mut sim, |ctx| {
            ReplicaReader::setup(ctx.fab, &group.client, &nodes, locks)
        });
        (sim, group, reader, locks)
    }

    fn settle_reads(
        sim: &mut Simulation<FabricSim>,
        group: &mut HyperLoopGroup,
        reader: &mut ReplicaReader,
    ) -> Vec<CompletedRead> {
        let mut done = Vec::new();
        for _ in 0..16 {
            sim.run();
            let acks = drive(sim, |ctx| group.client.poll(ctx));
            done.extend(drive(sim, |ctx| reader.pump(&mut group.client, ctx, &acks)));
            if reader.in_flight() == 0 && sim.queue.is_empty() {
                break;
            }
        }
        done
    }

    #[test]
    fn locked_read_returns_replicated_bytes() {
        let (mut sim, mut group, mut reader, _locks) = setup();
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: 256,
                        data: Payload::copy_from(b"read me from any replica"),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));

        // Read from every replica in turn; all serve identical bytes.
        for replica in 0..3u32 {
            drive(&mut sim, |ctx| {
                reader.begin(&mut group.client, ctx, replica, 0, 256, 24)
            });
            let done = settle_reads(&mut sim, &mut group, &mut reader);
            assert_eq!(done.len(), 1, "read from replica {replica} incomplete");
            assert_eq!(done[0].data, b"read me from any replica");
            assert_eq!(done[0].replica, replica);
        }
        assert_eq!(sim.model.fab.stats().errors, 0);
    }

    #[test]
    fn read_lock_cycles_the_word_back_to_zero() {
        let (mut sim, mut group, mut reader, locks) = setup();
        drive(&mut sim, |ctx| {
            reader.begin(&mut group.client, ctx, 1, 3, 0, 64)
        });
        settle_reads(&mut sim, &mut group, &mut reader);
        let layout = *group.client.layout();
        let addr = layout.shared_base + locks.word_offset(3);
        assert_eq!(
            sim.model.fab.mem(NodeId(2)).read_vec(addr, 8).unwrap(),
            0u64.to_le_bytes(),
            "read lock leaked"
        );
    }

    #[test]
    fn reader_retries_past_a_writer() {
        let (mut sim, mut group, mut reader, locks) = setup();
        // Writer takes the group lock.
        let wr_gen = drive(&mut sim, |ctx| {
            locks.wr_lock(&mut group.client, ctx, 5, 42).unwrap()
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        let ack = acks.iter().find(|a| a.gen == wr_gen).unwrap();
        assert_eq!(locks.interpret_wr_lock(ack, 5, 42), WrLockOutcome::Acquired);

        // Reader starts; its first lock attempt sees the writer.
        drive(&mut sim, |ctx| {
            reader.begin(&mut group.client, ctx, 0, 5, 128, 16)
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        let done = drive(&mut sim, |ctx| reader.pump(&mut group.client, ctx, &acks));
        assert!(done.is_empty(), "read must not complete under a writer");
        assert_eq!(reader.in_flight(), 1);

        // Writer releases; the reader's retry goes through.
        drive(&mut sim, |ctx| {
            locks.wr_unlock(&mut group.client, ctx, 5, 42).unwrap()
        });
        let done = settle_reads(&mut sim, &mut group, &mut reader);
        assert_eq!(done.len(), 1, "reader starved after writer release");
    }

    /// Livelock regression: a writer retrying `wr_lock` against sustained
    /// reader churn on the same lock word must reach acquisition. Before
    /// the jittered [`LockBackoff`], every contender retried on the ack
    /// instant and the writer's CAS never observed a free word.
    #[test]
    fn writer_acquires_through_sustained_reader_churn() {
        let (mut sim, mut group, mut reader, locks) = setup();
        const LOCK: u32 = 2;
        const OWNER: u64 = 7;
        let total_churn = 60u64;
        let mut backoff = LockBackoff::new(11);
        let mut begun = 0u64;
        let mut completed = 0u64;
        let mut writer_gen: Option<u64> = None;
        let mut undo: Option<(WrUndo, u64)> = None;
        let mut writer_due = simcore::SimTime::ZERO;
        let mut attempts = 0u32;
        let mut acquired = false;

        for _ in 0..600 {
            if acquired {
                break;
            }
            // Keep up to three locked reads in flight while churn lasts,
            // round-robin over the replicas.
            drive(&mut sim, |ctx| {
                while begun < total_churn && reader.in_flight() < 3 {
                    reader.begin(&mut group.client, ctx, (begun % 3) as u32, LOCK, 0, 32);
                    begun += 1;
                }
            });
            let now = sim.queue.now();
            if writer_gen.is_none() && undo.is_none() && (now >= writer_due || sim.queue.is_empty())
            {
                attempts += 1;
                writer_gen = Some(drive(&mut sim, |ctx| {
                    locks.wr_lock(&mut group.client, ctx, LOCK, OWNER).unwrap()
                }));
            }
            sim.run();
            let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
            completed +=
                drive(&mut sim, |ctx| reader.pump(&mut group.client, ctx, &acks)).len() as u64;
            for ack in &acks {
                if writer_gen == Some(ack.gen) {
                    writer_gen = None;
                    match locks.interpret_wr_lock(ack, LOCK, OWNER) {
                        WrLockOutcome::Acquired => acquired = true,
                        WrLockOutcome::Busy { .. } => {
                            writer_due = sim.queue.now().saturating_add(backoff.next_delay());
                        }
                        WrLockOutcome::Partial { undo: u } => {
                            let gen = drive(&mut sim, |ctx| {
                                u.issue(&locks, &mut group.client, ctx).unwrap()
                            });
                            undo = Some((u, gen));
                        }
                    }
                } else if let Some((mut u, ugen)) = undo {
                    if ack.gen == ugen {
                        if u.absorb(ack) {
                            undo = None;
                            writer_due = sim.queue.now().saturating_add(backoff.next_delay());
                        } else {
                            let gen = drive(&mut sim, |ctx| {
                                u.issue(&locks, &mut group.client, ctx).unwrap()
                            });
                            undo = Some((u, gen));
                        }
                    }
                }
            }
        }
        assert!(
            acquired,
            "writer livelocked under reader churn (attempts={attempts})"
        );
        assert!(attempts >= 2, "the writer must actually have contended");
        let layout = *group.client.layout();
        let addr = layout.shared_base + locks.word_offset(LOCK);
        for n in [NodeId(1), NodeId(2), NodeId(3)] {
            assert_eq!(
                sim.model.fab.mem(n).read_vec(addr, 8).unwrap(),
                (WRITER_BIT | OWNER).to_le_bytes(),
                "writer must hold the word group-wide on {n}"
            );
        }
        // Release; every remaining churn read must then complete.
        drive(&mut sim, |ctx| {
            locks
                .wr_unlock(&mut group.client, ctx, LOCK, OWNER)
                .unwrap()
        });
        for _ in 0..600 {
            drive(&mut sim, |ctx| {
                while begun < total_churn && reader.in_flight() < 3 {
                    reader.begin(&mut group.client, ctx, (begun % 3) as u32, LOCK, 0, 32);
                    begun += 1;
                }
            });
            sim.run();
            let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
            completed +=
                drive(&mut sim, |ctx| reader.pump(&mut group.client, ctx, &acks)).len() as u64;
            if completed == total_churn {
                break;
            }
        }
        assert_eq!(completed, total_churn, "reads starved after release");
        assert_eq!(sim.model.fab.stats().errors, 0);
    }

    #[test]
    fn concurrent_reads_on_different_replicas() {
        let (mut sim, mut group, mut reader, _locks) = setup();
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: 0,
                        data: Payload::filled(9, 1024),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));

        drive(&mut sim, |ctx| {
            for replica in 0..3u32 {
                reader.begin(&mut group.client, ctx, replica, 0, 0, 1024);
            }
        });
        let done = settle_reads(&mut sim, &mut group, &mut reader);
        assert_eq!(done.len(), 3, "all three replicas serve concurrently");
        for r in &done {
            assert_eq!(r.data, vec![9; 1024]);
        }
    }
}
