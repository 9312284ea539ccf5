//! The replica process of the Naïve-RDMA baseline.
//!
//! Every hop does on its **CPU** what HyperLoop does on the NIC: wake on the
//! receive completion, parse the command, execute it against local NVM
//! (memcpy / CAS / flush), post the forwarding verbs, and re-post receives.
//! Under multi-tenant load the wake-up and the run-queue wait dominate —
//! this is precisely the latency the paper measures in Figures 8-12.

use crate::cmd::{self, CMD_SIZE, CMD_SLOTS};
use hyperloop::{ExecuteMap, GroupOp};
use netsim::NodeId;
use rnicsim::payload::take_sges;
use rnicsim::{wqe_flags, CqId, Cqe, Opcode, Payload, QpId, RecvWqe, Wqe};
use simcore::SimDuration;
use std::collections::HashMap;
use testbed::{Env, HostApp, HostEvent};

/// Fixed CPU cost of a persistence flush (cache-line writeback + fence).
pub const FLUSH_FIXED: SimDuration = SimDuration::from_nanos(200);

/// Persistence flush throughput, bytes per second.
pub const FLUSH_BPS: u64 = 4_000_000_000;

/// CPU cost of a local compare-and-swap.
pub const CAS: SimDuration = SimDuration::from_nanos(60);

/// CPU cost model of the replica software stack: the per-application part
/// (Fig. 2's MongoDB-like replicas override all three). Flush and CAS
/// costs are the constants above.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveCosts {
    /// Fixed cost of handling one completion (poll, parse, bookkeeping).
    pub parse: SimDuration,
    /// Cost of posting one verb (doorbell + descriptor build).
    pub post: SimDuration,
    /// Single-thread memcpy throughput, bytes per second.
    pub memcpy_bps: u64,
}

impl Default for NaiveCosts {
    fn default() -> Self {
        NaiveCosts {
            parse: SimDuration::from_nanos(800),
            post: SimDuration::from_nanos(300),
            memcpy_bps: 6_000_000_000,
        }
    }
}

/// CPU cost of flushing `bytes` to persistence.
fn flush_cost(bytes: u64) -> SimDuration {
    FLUSH_FIXED + SimDuration::from_nanos(bytes * 1_000_000_000 / FLUSH_BPS)
}

impl NaiveCosts {
    fn memcpy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(bytes * 1_000_000_000 / self.memcpy_bps)
    }

    /// Total CPU execution cost of one command at a replica.
    pub fn execute_cost(&self, op: &GroupOp) -> SimDuration {
        match op {
            GroupOp::Write { data, flush, .. } => {
                if *flush {
                    flush_cost(data.len() as u64)
                } else {
                    SimDuration::ZERO
                }
            }
            GroupOp::Cas { .. } => CAS,
            GroupOp::Memcpy { len, flush, .. } => {
                self.memcpy(*len)
                    + if *flush {
                        flush_cost(*len)
                    } else {
                        SimDuration::ZERO
                    }
            }
            GroupOp::Flush { .. } => flush_cost(64),
        }
    }
}

/// One Naïve-RDMA chain replica, as a testbed application.
pub struct NaiveReplica {
    node: NodeId,
    idx: u32,
    group_size: u32,
    shared_base: u64,
    cmd_base: u64,
    cmd_slot_size: u64,
    qp_up: QpId,
    recv_cq: CqId,
    qp_down: QpId,
    /// Client ack slot ring base (last replica only).
    ack_base: u64,
    ack_slot_size: u64,
    costs: NaiveCosts,
    /// Commands whose execution cost is still burning CPU.
    executing: HashMap<u64, cmd::Command>,
    /// Next recv generation to re-post.
    next_recv: u64,
    /// Reused completion buffer (one allocation per replica, not per poll).
    cqe_scratch: Vec<Cqe>,
    /// Operations fully handled (diagnostics).
    pub handled: u64,
}

impl NaiveReplica {
    /// Creates the replica state; used by `NaiveChain::setup`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        node: NodeId,
        idx: u32,
        group_size: u32,
        shared_base: u64,
        cmd_base: u64,
        cmd_slot_size: u64,
        qp_up: QpId,
        recv_cq: CqId,
        qp_down: QpId,
        ack_base: u64,
        ack_slot_size: u64,
        costs: NaiveCosts,
        preposted: u32,
    ) -> Self {
        NaiveReplica {
            node,
            idx,
            group_size,
            shared_base,
            cmd_base,
            cmd_slot_size,
            qp_up,
            recv_cq,
            qp_down,
            ack_base,
            ack_slot_size,
            costs,
            executing: HashMap::new(),
            next_recv: preposted as u64,
            cqe_scratch: Vec::new(),
            handled: 0,
        }
    }

    fn is_last(&self) -> bool {
        self.idx + 1 == self.group_size
    }

    fn cmd_slot(&self, gen: u64) -> u64 {
        self.cmd_base + (gen % CMD_SLOTS as u64) * self.cmd_slot_size
    }

    fn result_word(&self, gen: u64, idx: u32) -> u64 {
        self.cmd_slot(gen) + CMD_SIZE + idx as u64 * 8
    }

    /// Executes the op against local NVM (the CPU's share of the work).
    fn apply_locally(&mut self, env: &mut Env<'_>, c: &cmd::Command) {
        let node = self.node;
        match &c.op {
            GroupOp::Write {
                offset,
                data,
                flush,
            } => {
                // Payload already landed one-sided; only durability is ours.
                if *flush {
                    env.mem(node)
                        .flush_range(self.shared_base + offset, data.len() as u64)
                        .expect("in shared region");
                }
            }
            GroupOp::Cas {
                offset,
                compare,
                swap,
                execute,
            } => {
                if execute.contains(self.idx) {
                    let addr = self.shared_base + offset;
                    let mut cur = [0u8; 8];
                    env.mem(node)
                        .read(addr, &mut cur)
                        .expect("in shared region");
                    let original = u64::from_le_bytes(cur);
                    if original == *compare {
                        env.mem(node)
                            .write_durable(addr, &swap.to_le_bytes())
                            .expect("in shared region");
                    }
                    let rw = self.result_word(c.gen, self.idx);
                    env.mem(node)
                        .write_durable(rw, &original.to_le_bytes())
                        .expect("in command ring");
                }
            }
            GroupOp::Memcpy {
                src,
                dst,
                len,
                flush,
            } => {
                let bytes = Payload::try_with(*len as usize, |buf| {
                    env.mem(node).read(self.shared_base + src, buf)
                })
                .expect("in shared region");
                env.mem(node)
                    .write(self.shared_base + dst, &bytes)
                    .expect("in shared region");
                if *flush {
                    env.mem(node)
                        .flush_range(self.shared_base + dst, *len)
                        .expect("in shared region");
                }
            }
            GroupOp::Flush { offset } => {
                env.mem(node)
                    .flush_range(self.shared_base + offset, 64)
                    .expect("in shared region");
            }
        }
    }

    /// Posts the forwarding verbs (or the client ack on the last hop).
    fn forward(&mut self, env: &mut Env<'_>, c: &cmd::Command) {
        let gen = c.gen;
        if self.is_last() {
            // Ack: write the result map into the client's ack slot.
            env.post_send(
                self.node,
                self.qp_down,
                Wqe {
                    opcode: Opcode::WriteImm,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: self.cmd_slot(gen) + CMD_SIZE,
                    len: self.group_size as u64 * 8,
                    remote_addr: self.ack_base + (gen % CMD_SLOTS as u64) * self.ack_slot_size,
                    compare_or_imm: gen,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
            return;
        }
        // Data first (one-sided), then the command+results (two-sided).
        if let GroupOp::Write { offset, data, .. } = &c.op {
            env.post_send(
                self.node,
                self.qp_down,
                Wqe {
                    opcode: Opcode::Write,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: self.shared_base + offset,
                    len: data.len() as u64,
                    remote_addr: self.shared_base + offset,
                    wr_id: gen,
                    ..Wqe::default()
                },
            );
        }
        env.post_send(
            self.node,
            self.qp_down,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED,
                local_addr: self.cmd_slot(gen),
                len: CMD_SIZE + self.group_size as u64 * 8,
                wr_id: gen,
                ..Wqe::default()
            },
        );
    }

    fn repost_recv(&mut self, env: &mut Env<'_>) {
        let gen = self.next_recv;
        self.next_recv += 1;
        let slot = self.cmd_slot(gen);
        let len = (CMD_SIZE + self.group_size as u64 * 8) as u32;
        let mut sges = take_sges();
        sges.push((slot, len));
        env.post_recv(self.node, self.qp_up, RecvWqe { wr_id: gen, sges });
    }
}

impl HostApp for NaiveReplica {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        match event {
            HostEvent::CqReady(cq) => {
                debug_assert_eq!(cq, self.recv_cq);
                let node = self.node;
                let mut cqes = std::mem::take(&mut self.cqe_scratch);
                cqes.clear();
                env.poll_cq_into(node, cq, 64, &mut cqes);
                for cqe in cqes.drain(..) {
                    let gen = cqe.wr_id;
                    let slot = self.cmd_slot(gen);
                    let mut raw = [0u8; CMD_SIZE as usize];
                    env.mem(node)
                        .read(slot, &mut raw)
                        .expect("command slot in bounds");
                    let Some(c) = cmd::decode(&raw) else {
                        continue; // corrupt command: drop
                    };
                    debug_assert_eq!(c.gen, gen, "recv/slot generation mismatch");
                    // Charge the execution cost (parsing included — it is
                    // per-op work even when notifications batch); continue
                    // when it is done.
                    let cost = self.costs.parse
                        + self.costs.execute_cost(&c.op)
                        + self.costs.post * if self.is_last() { 1 } else { 2 };
                    self.executing.insert(gen, c);
                    env.submit_work(cost, gen);
                }
                self.cqe_scratch = cqes;
            }
            HostEvent::WorkDone(gen) => {
                let Some(c) = self.executing.remove(&gen) else {
                    return;
                };
                self.apply_locally(env, &c);
                self.forward(env, &c);
                self.repost_recv(env);
                self.handled += 1;
            }
            _ => {}
        }
    }
}

/// Suppresses an unused-field warning: the execute map type is re-exported
/// for clients building commands.
pub type Execute = ExecuteMap;

#[cfg(test)]
mod tests {
    use super::*;

    /// Every command kind under the default costs and under the 3 GB/s
    /// memcpy of Fig. 2's MongoDB-like replicas, in nanoseconds.
    #[test]
    fn execute_cost_prices_every_command_kind() {
        let write = |flush| GroupOp::Write {
            offset: 0,
            data: Payload::zeroed(1024),
            flush,
        };
        let memcpy = |flush| GroupOp::Memcpy {
            src: 0,
            dst: 4096,
            len: 1024,
            flush,
        };
        let cas = GroupOp::Cas {
            offset: 0,
            compare: 0,
            swap: 1,
            execute: ExecuteMap::all(3),
        };
        let flush = GroupOp::Flush { offset: 0 };
        let slow_memcpy = NaiveCosts {
            memcpy_bps: 3_000_000_000,
            ..NaiveCosts::default()
        };
        let cases = [
            (write(true), 456, 456),
            (write(false), 0, 0),
            (cas, 60, 60),
            (memcpy(true), 626, 797),
            (memcpy(false), 170, 341),
            (flush, 216, 216),
        ];
        for (op, default_ns, slow_ns) in cases {
            let name = op.name();
            assert_eq!(
                NaiveCosts::default().execute_cost(&op).as_nanos(),
                default_ns,
                "{name}, default costs"
            );
            assert_eq!(
                slow_memcpy.execute_cost(&op).as_nanos(),
                slow_ns,
                "{name}, 3 GB/s memcpy"
            );
        }
    }
}
