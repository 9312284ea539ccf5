//! Fan-out replication with the coordination offloaded to the primary's NIC
//! (the paper's §7 extension: FaRM-style primary/backup without the primary
//! CPU polling).
//!
//! One client sends data + metadata to the *primary*; the primary's NIC —
//! not its CPU — fans the write out to every backup, flushes them, counts
//! their completions with a `WAIT`, and acks the client:
//!
//! ```text
//! client ── WRITE+READ+SEND ──► primary NIC
//!   primary loopback SQ : WAIT(recv) → B signalled NOPs   (trigger fan-out)
//!   per-backup SQ_b     : WAIT(loop) → WRITE_b → READ_b   (flush, → fan CQ)
//!   ack SQ              : WAIT(fan, count = B) → WRITE_IMM → client
//! ```
//!
//! The B signalled NOPs multiply one receive completion into B WAIT tokens —
//! a `WAIT` consumes the completions it counts, so B queues cannot share one
//! CQE directly. This is the composition trick that makes multi-way fan-out
//! possible with CORE-Direct semantics.

use crate::config::GroupConfig;
use netsim::NodeId;
use rnicsim::{wqe_flags, CqId, NicCtx, Opcode, QpId, RecvWqe, Wqe, WQE_SIZE};
use std::collections::VecDeque;

/// A fan-out replication group: client → primary NIC → backups.
#[derive(Debug)]
pub struct FanoutGroup {
    /// Client-side issue/poll state.
    pub client: FanoutClient,
    /// Primary-side maintenance handle.
    pub primary: FanoutPrimaryHandle,
}

/// Client state for a fan-out group.
#[derive(Debug)]
pub struct FanoutClient {
    node: NodeId,
    qp_down: QpId,
    cq_ack: CqId,
    qp_ack: QpId,
    shared_base: u64,
    shared_size: u64,
    meta_base_primary: u64,
    meta_slot_size: u64,
    meta_slots: u32,
    window: u32,
    staging_base: u64,
    ack_base: u64,
    mirror_base: u64,
    backups: u32,
    next_gen: u64,
    completed: u64,
    pending: VecDeque<u64>,
}

/// Primary-side pre-post cursors.
#[derive(Debug)]
pub struct FanoutPrimaryHandle {
    node: NodeId,
    qp_up: QpId,
    recv_cq_up: CqId,
    qp_loop_a: QpId,
    cq_loop: CqId,
    backup_qps: Vec<QpId>,
    fan_cq: CqId,
    qp_ack_out: QpId,
    meta_base: u64,
    meta_slot_size: u64,
    meta_slots: u32,
    backups: u32,
    next_prepost: u64,
}

fn meta_payload_len(backups: u32) -> u64 {
    (2 * backups as u64 + 1) * WQE_SIZE
}

impl FanoutGroup {
    /// Wires a fan-out group. All of `primary` and `backups` get symmetric
    /// shared regions; descriptor machinery exists only on the primary.
    ///
    /// # Panics
    ///
    /// Panics on an empty backup set or asymmetric layouts.
    pub fn setup(
        ctx: &mut NicCtx<'_>,
        client_node: NodeId,
        primary_node: NodeId,
        backup_nodes: &[NodeId],
        cfg: GroupConfig,
    ) -> FanoutGroup {
        cfg.validate();
        let backups = backup_nodes.len() as u32;
        assert!(backups >= 1, "need at least one backup");

        // Symmetric shared regions on primary + backups.
        let meta_slot_size = (meta_payload_len(backups) + 63) & !63;
        let mut shared_base = None;
        for &n in std::iter::once(&primary_node).chain(backup_nodes) {
            let sb = ctx.fab.alloc(n, cfg.shared_size);
            match shared_base {
                None => shared_base = Some(sb),
                Some(s) => assert_eq!(s, sb, "node {n} layout asymmetric"),
            }
            ctx.fab.reg_mr(n, sb, cfg.shared_size);
        }
        let shared_base = shared_base.expect("at least primary");
        let meta_base = ctx
            .fab
            .alloc(primary_node, meta_slot_size * cfg.meta_slots as u64);
        ctx.fab.reg_mr(
            primary_node,
            meta_base,
            meta_slot_size * cfg.meta_slots as u64,
        );

        // Client buffers.
        let staging_base = ctx
            .fab
            .alloc(client_node, meta_slot_size * cfg.meta_slots as u64);
        let mirror = ctx.fab.alloc(client_node, cfg.shared_size);
        let ack_base = ctx.fab.alloc(client_node, 64 * cfg.meta_slots as u64);
        ctx.fab
            .reg_mr(client_node, ack_base, 64 * cfg.meta_slots as u64);

        // Client queues.
        let cq_down = ctx.fab.create_cq(client_node);
        let qp_down = ctx.fab.create_qp(client_node, cq_down, cq_down);
        let cq_ack = ctx.fab.create_cq(client_node);
        let qp_ack = ctx.fab.create_qp(client_node, cq_ack, cq_ack);

        // Primary queues.
        let recv_cq_up = ctx.fab.create_cq(primary_node);
        let qp_up = ctx.fab.create_qp(primary_node, recv_cq_up, recv_cq_up);
        let cq_loop = ctx.fab.create_cq(primary_node);
        let qp_loop_a = ctx.fab.create_qp(primary_node, cq_loop, cq_loop);
        let qp_loop_b = ctx.fab.create_qp(primary_node, cq_loop, cq_loop);
        ctx.fab
            .connect(primary_node, qp_loop_a, primary_node, qp_loop_b);
        let fan_cq = ctx.fab.create_cq(primary_node);
        let mut backup_qps = Vec::new();
        for &b in backup_nodes {
            let qp = ctx.fab.create_qp(primary_node, fan_cq, fan_cq);
            let bcq = ctx.fab.create_cq(b);
            let bqp = ctx.fab.create_qp(b, bcq, bcq);
            ctx.fab.connect(primary_node, qp, b, bqp);
            backup_qps.push(qp);
        }
        let ack_out_cq = ctx.fab.create_cq(primary_node);
        let qp_ack_out = ctx.fab.create_qp(primary_node, ack_out_cq, ack_out_cq);

        ctx.fab.connect(client_node, qp_down, primary_node, qp_up);
        ctx.fab
            .connect(primary_node, qp_ack_out, client_node, qp_ack);

        let mut primary = FanoutPrimaryHandle {
            node: primary_node,
            qp_up,
            recv_cq_up,
            qp_loop_a,
            cq_loop,
            backup_qps,
            fan_cq,
            qp_ack_out,
            meta_base,
            meta_slot_size,
            meta_slots: cfg.meta_slots,
            backups,
            next_prepost: 0,
        };
        primary.replenish(ctx, cfg.prepost_depth);
        for _ in 0..cfg.window * 2 {
            ctx.post_recv(
                client_node,
                qp_ack,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![],
                },
            );
        }

        FanoutGroup {
            client: FanoutClient {
                node: client_node,
                qp_down,
                cq_ack,
                qp_ack,
                shared_base,
                shared_size: cfg.shared_size,
                meta_base_primary: meta_base,
                meta_slot_size,
                meta_slots: cfg.meta_slots,
                window: cfg.window,
                staging_base,
                ack_base,
                mirror_base: 0,
                backups,
                next_gen: 0,
                completed: 0,
                pending: VecDeque::new(),
            },
            primary,
        }
        .with_mirror(mirror)
    }

    fn with_mirror(mut self, mirror: u64) -> Self {
        self.client.mirror_base = mirror;
        self
    }
}

impl FanoutClient {
    /// Ops in flight.
    pub fn in_flight(&self) -> u64 {
        self.next_gen - self.completed
    }

    /// Completed ops.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// True if another op fits the window.
    pub fn can_issue(&self) -> bool {
        self.in_flight() < self.window as u64
    }

    /// Issues a replicated write: data to the primary, NIC-fan-out to the
    /// backups, single ack when all backups are durable. Returns the
    /// generation.
    ///
    /// # Panics
    ///
    /// Panics if the window is full or the range is out of bounds (this
    /// client is bench-oriented; see `GroupClient` for the checked API).
    pub fn write(&mut self, ctx: &mut NicCtx<'_>, offset: u64, data: &[u8], flush: bool) -> u64 {
        assert!(self.can_issue(), "fan-out window full");
        assert!(
            offset + data.len() as u64 <= self.shared_size,
            "write outside shared region"
        );
        let gen = self.next_gen;
        self.next_gen += 1;
        let slot = gen % self.meta_slots as u64;

        // Build the primary's images: per backup WRITE + flush READ, + ack.
        let mut payload = Vec::with_capacity(meta_payload_len(self.backups) as usize);
        for _b in 0..self.backups {
            let write = Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: self.shared_base + offset,
                len: data.len() as u64,
                remote_addr: self.shared_base + offset,
                wr_id: gen,
                ..Wqe::default()
            };
            payload.extend_from_slice(&write.encode());
            let second = if flush {
                Wqe {
                    opcode: Opcode::Read,
                    flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                    local_addr: self.shared_base,
                    len: 0,
                    remote_addr: self.shared_base + offset,
                    wr_id: gen,
                    ..Wqe::default()
                }
            } else {
                Wqe {
                    opcode: Opcode::Nop,
                    flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED | wqe_flags::FENCE,
                    wr_id: gen,
                    ..Wqe::default()
                }
            };
            payload.extend_from_slice(&second.encode());
        }
        let ack = Wqe {
            opcode: Opcode::WriteImm,
            flags: wqe_flags::HW_OWNED,
            local_addr: self.meta_base_primary, // 0-byte payload
            len: 0,
            remote_addr: self.ack_base + slot * 64,
            compare_or_imm: gen,
            wr_id: gen,
            ..Wqe::default()
        };
        payload.extend_from_slice(&ack.encode());

        let staging = self.staging_base + slot * self.meta_slot_size;
        ctx.fab
            .mem(self.node)
            .write_durable(staging, &payload)
            .expect("staging in bounds");
        ctx.fab
            .mem(self.node)
            .write_durable(self.mirror_base + offset, data)
            .expect("mirror in bounds");

        // Data to the primary, optional flush, then the metadata SEND.
        ctx.post_send(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: self.mirror_base + offset,
                len: data.len() as u64,
                remote_addr: self.shared_base + offset,
                wr_id: gen,
                ..Wqe::default()
            },
        );
        if flush {
            ctx.post_send(
                self.node,
                self.qp_down,
                Wqe {
                    opcode: Opcode::Read,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: self.mirror_base,
                    len: 0,
                    remote_addr: self.shared_base + offset,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
        }
        ctx.post_send(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Send,
                flags: if flush {
                    wqe_flags::HW_OWNED | wqe_flags::FENCE
                } else {
                    wqe_flags::HW_OWNED
                },
                local_addr: staging,
                len: meta_payload_len(self.backups),
                wr_id: gen,
                ..Wqe::default()
            },
        );
        self.pending.push_back(gen);
        gen
    }

    /// Collects completed writes, re-posting ack receives.
    pub fn poll(&mut self, ctx: &mut NicCtx<'_>) -> Vec<u64> {
        let cqes = ctx.fab.poll_cq(self.node, self.cq_ack, 64);
        let mut done = Vec::with_capacity(cqes.len());
        for cqe in cqes {
            assert_eq!(cqe.status, rnicsim::CqeStatus::Success, "{cqe:?}");
            let gen = cqe.imm.expect("ack imm");
            debug_assert_eq!(self.pending.pop_front(), Some(gen));
            self.completed += 1;
            ctx.post_recv(
                self.node,
                self.qp_ack,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![],
                },
            );
            done.push(gen);
        }
        done
    }
}

impl FanoutPrimaryHandle {
    /// The primary node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The CQ to bind maintenance to.
    pub fn recv_cq(&self) -> CqId {
        self.recv_cq_up
    }

    /// Pre-posts the next `count` generations of fan-out machinery.
    pub fn replenish(&mut self, ctx: &mut NicCtx<'_>, count: u32) {
        for _ in 0..count {
            let gen = self.next_prepost;
            self.next_prepost += 1;
            let slot_addr = self.meta_base + (gen % self.meta_slots as u64) * self.meta_slot_size;
            ctx.post_recv(
                self.node,
                self.qp_up,
                RecvWqe {
                    wr_id: gen,
                    sges: vec![(slot_addr, meta_payload_len(self.backups) as u32)],
                },
            );
            // Trigger multiplier: one recv completion -> B loop completions.
            ctx.post_send(
                self.node,
                self.qp_loop_a,
                Wqe {
                    opcode: Opcode::Wait,
                    flags: wqe_flags::HW_OWNED,
                    wait_cq: self.recv_cq_up.0,
                    wait_count: 1,
                    enable_count: self.backups,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
            for _ in 0..self.backups {
                ctx.post_send(
                    self.node,
                    self.qp_loop_a,
                    Wqe {
                        opcode: Opcode::Nop,
                        flags: wqe_flags::SIGNALED, // unowned until the WAIT
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
            }
            // Per-backup: WAIT one loop token, then write + flush images.
            for (b, &qp) in self.backup_qps.clone().iter().enumerate() {
                ctx.post_send(
                    self.node,
                    qp,
                    Wqe {
                        opcode: Opcode::Wait,
                        flags: wqe_flags::HW_OWNED,
                        wait_cq: self.cq_loop.0,
                        wait_count: 1,
                        enable_count: 2,
                        wr_id: gen,
                        ..Wqe::default()
                    },
                );
                for img in 0..2u64 {
                    ctx.post_send(
                        self.node,
                        qp,
                        Wqe {
                            opcode: Opcode::Nop,
                            flags: wqe_flags::INDIRECT,
                            local_addr: slot_addr + (2 * b as u64 + img) * WQE_SIZE,
                            wr_id: gen,
                            ..Wqe::default()
                        },
                    );
                }
            }
            // Ack once every backup's flush completed.
            ctx.post_send(
                self.node,
                self.qp_ack_out,
                Wqe {
                    opcode: Opcode::Wait,
                    flags: wqe_flags::HW_OWNED,
                    wait_cq: self.fan_cq.0,
                    wait_count: self.backups,
                    enable_count: 1,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
            ctx.post_send(
                self.node,
                self.qp_ack_out,
                Wqe {
                    opcode: Opcode::Nop,
                    flags: wqe_flags::INDIRECT,
                    local_addr: slot_addr + 2 * self.backups as u64 * WQE_SIZE,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{drive, fabric_sim, FabricSim};
    use simcore::{SimDuration, SimTime, Simulation};

    fn setup(backups: u32) -> (Simulation<FabricSim>, FanoutGroup) {
        let mut sim = fabric_sim(backups + 2, 64 << 20, 21);
        let backup_nodes: Vec<NodeId> = (2..2 + backups).map(NodeId).collect();
        let group = drive(&mut sim, |ctx| {
            FanoutGroup::setup(
                ctx,
                NodeId(0),
                NodeId(1),
                &backup_nodes,
                GroupConfig::default(),
            )
        });
        sim.run();
        (sim, group)
    }

    #[test]
    fn fanout_write_reaches_primary_and_all_backups_durably() {
        let (mut sim, mut group) = setup(3);
        let base = group.client.shared_base;
        let gen = drive(&mut sim, |ctx| {
            group.client.write(ctx, 500, b"fanout-data", true)
        });
        sim.run();
        let done = drive(&mut sim, |ctx| group.client.poll(ctx));
        assert_eq!(done, vec![gen]);
        assert_eq!(sim.model.fab.stats().errors, 0);
        for n in 1..=4u32 {
            assert_eq!(
                sim.model
                    .fab
                    .mem(NodeId(n))
                    .read_vec(base + 500, 11)
                    .unwrap(),
                b"fanout-data",
                "node {n} missing data"
            );
            assert!(
                sim.model
                    .fab
                    .mem(NodeId(n))
                    .is_durable(base + 500, 11)
                    .unwrap(),
                "node {n} not durable"
            );
        }
    }

    #[test]
    fn fanout_is_not_slower_than_a_long_chain_for_small_writes() {
        // Fan-out pays one hop + parallel writes; a chain pays per-hop
        // serialization. For 3 backups both complete within microseconds.
        let (mut sim, mut group) = setup(3);
        let t0 = sim.now();
        drive(&mut sim, |ctx| group.client.write(ctx, 0, &[1; 128], true));
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));
        let elapsed = sim.now().since(t0);
        assert!(
            elapsed < SimDuration::from_micros(40),
            "fan-out too slow: {elapsed}"
        );
    }

    #[test]
    fn fanout_acks_only_after_every_backup() {
        let (mut sim, mut group) = setup(2);
        let base = group.client.shared_base;
        drive(&mut sim, |ctx| group.client.write(ctx, 64, &[9; 32], true));
        // Run in small steps: the ack must never precede backup durability.
        let mut acked_at = None;
        for step in 0..100_000u64 {
            sim.run_until(SimTime::from_nanos(step * 200));
            let done = drive(&mut sim, |ctx| group.client.poll(ctx));
            if !done.is_empty() {
                acked_at = Some(sim.now());
                break;
            }
        }
        assert!(acked_at.is_some(), "never acked");
        for n in [NodeId(2), NodeId(3)] {
            assert!(
                sim.model.fab.mem(n).is_durable(base + 64, 32).unwrap(),
                "ack arrived before backup {n} was durable"
            );
        }
    }

    #[test]
    fn fanout_pipelines_many_writes() {
        let (mut sim, mut group) = setup(2);
        let mut total = 0;
        for round in 0..10 {
            drive(&mut sim, |ctx| {
                for i in 0..8u64 {
                    group.client.write(ctx, i * 4096, &[round as u8; 512], true);
                }
            });
            sim.run();
            total += drive(&mut sim, |ctx| group.client.poll(ctx)).len();
            drive(&mut sim, |ctx| {
                group.primary.replenish(ctx, 8);
            });
        }
        assert_eq!(total, 80);
        assert_eq!(sim.model.fab.stats().errors, 0);
    }
}
