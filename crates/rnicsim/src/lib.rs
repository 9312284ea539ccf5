//! # rnicsim — a commodity RDMA NIC, modelled at the verbs/WQE layer
//!
//! HyperLoop (SIGCOMM 2018) programs *unmodified* ConnectX-3 NICs to run
//! replicated transactions without host CPUs, using two mechanisms:
//!
//! 1. **`WAIT` work requests** (Mellanox CORE-Direct): a send queue blocks
//!    until a watched completion queue accumulates N completions, then the
//!    NIC itself enables and executes the following pre-posted WQEs.
//! 2. **Remote work-request manipulation**: the driver is modified to (a)
//!    post WQEs *without* giving the NIC ownership and (b) register the
//!    descriptor metadata region so that a remote NIC can rewrite memory
//!    descriptors with ordinary RDMA, before ownership is granted.
//!
//! This crate models a fabric of such NICs faithfully at the queue level:
//! 64-byte descriptors in host memory ([`Wqe`]), ownership bits, `WAIT`
//! semaphores, fences, RECV scatter lists, atomics, MR bounds checks, DMA
//! costs, and a volatile on-NIC cache whose durability point is an incoming
//! RDMA READ (the paper's `gFLUSH`).
//!
//! One modelling choice is made explicit: where real HyperLoop scatters
//! incoming metadata *directly onto* descriptor fields, the model fetches
//! effective descriptors from a metadata region through an
//! [`wqe_flags::INDIRECT`] image pointer. Both realize "the NIC reads its
//! orders from RDMA-writable host memory at execution time"; the indirection
//! keeps ring layout and payload layout decoupled (see DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ctx;
pub mod fabric;
pub mod payload;
pub mod types;

pub use ctx::NicCtx;
pub use fabric::RdmaFabric;
pub use netsim::NodeId;
pub use payload::Payload;
pub use types::{
    wqe_flags, CqId, Cqe, CqeStatus, FabricStats, Message, MrId, NicEffect, NicEvent, Opcode, QpId,
    RecvWqe, Wqe, CAS_LATENCY, DMA_BANDWIDTH_BPS, FLUSH_BASE, ISSUE_OVERHEAD, MAX_INFLIGHT,
    SQ_SLOTS, WAIT_PROCESS, WQE_FETCH, WQE_SIZE,
};

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::prelude::*;

    /// Harness: fabric + queue, with host notifications recorded.
    struct Harness {
        fab: RdmaFabric,
        notifies: Vec<(SimTime, NodeId, CqId)>,
    }

    #[derive(Debug)]
    enum Ev {
        Nic(NicEvent),
        Notify(NodeId, CqId),
    }

    impl Harness {
        fn new(nodes: u32) -> Simulation<Harness> {
            Simulation::new(Harness {
                fab: RdmaFabric::new(nodes, 1 << 22, 7),
                notifies: Vec::new(),
            })
        }

        fn route(out: &mut Outbox<NicEffect>, q: &mut EventQueue<Ev>) {
            for (delay, eff) in out.drain() {
                match eff {
                    NicEffect::Internal(ev) => q.push_after(delay, Ev::Nic(ev)),
                    NicEffect::HostNotify { node, cq } => q.push_after(delay, Ev::Notify(node, cq)),
                }
            }
        }
    }

    impl Model for Harness {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
            match ev {
                Ev::Nic(nic) => {
                    let mut out = Outbox::new();
                    self.fab.handle(now, nic, &mut out);
                    Self::route(&mut out, q);
                }
                Ev::Notify(n, c) => self.notifies.push((now, n, c)),
            }
        }
    }

    /// Builds a connected pair of QPs (one per node) with per-node CQs.
    fn pair(sim: &mut Simulation<Harness>, a: NodeId, b: NodeId) -> (QpId, QpId, CqId, CqId) {
        let cq_a = sim.model.fab.create_cq(a);
        let cq_b = sim.model.fab.create_cq(b);
        let qa = sim.model.fab.create_qp(a, cq_a, cq_a);
        let qb = sim.model.fab.create_qp(b, cq_b, cq_b);
        sim.model.fab.connect(a, qa, b, qb);
        (qa, qb, cq_a, cq_b)
    }

    fn post_send(sim: &mut Simulation<Harness>, n: NodeId, qp: QpId, wqe: Wqe) -> u64 {
        let mut out = Outbox::new();
        let now = sim.queue.now();
        let slot = sim.model.fab.post_send(now, n, qp, wqe, &mut out);
        Harness::route(&mut out, &mut sim.queue);
        slot
    }

    fn post_recv(sim: &mut Simulation<Harness>, n: NodeId, qp: QpId, recv: RecvWqe) {
        let mut out = Outbox::new();
        let now = sim.queue.now();
        sim.model.fab.post_recv(now, n, qp, recv, &mut out);
        Harness::route(&mut out, &mut sim.queue);
    }

    fn grant(sim: &mut Simulation<Harness>, n: NodeId, qp: QpId, count: u32) {
        let mut out = Outbox::new();
        let now = sim.queue.now();
        sim.model.fab.grant_next(now, n, qp, count, &mut out);
        Harness::route(&mut out, &mut sim.queue);
    }

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const N2: NodeId = NodeId(2);

    #[test]
    fn one_sided_write_lands_and_completes() {
        let mut sim = Harness::new(2);
        let (qa, _qb, cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096);
        sim.model.fab.reg_mr(N1, dst, 4096);
        let src = sim.model.fab.alloc(N0, 4096);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, b"payload!")
            .unwrap();

        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: src,
                len: 8,
                remote_addr: dst,
                wr_id: 42,
                ..Wqe::default()
            },
        );
        sim.run();

        assert_eq!(sim.model.fab.mem(N1).read_vec(dst, 8).unwrap(), b"payload!");
        let cqes = sim.model.fab.poll_cq(N0, cq_a, 16);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 42);
        assert_eq!(cqes[0].status, CqeStatus::Success);
        // Latency sanity: a small write round-trip is a few microseconds.
        assert!(sim.now().since(SimTime::ZERO) < SimDuration::from_micros(10));
    }

    #[test]
    fn write_is_volatile_until_read_flushes() {
        let mut sim = Harness::new(2);
        let (qa, _qb, _cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096);
        sim.model.fab.reg_mr(N1, dst, 4096);
        let src = sim.model.fab.alloc(N0, 4096);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, &[9u8; 64])
            .unwrap();

        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 64,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        sim.run();
        assert!(!sim.model.fab.mem(N1).is_durable(dst, 64).unwrap());

        // gFLUSH: a 0-byte READ to the same QP flushes the NIC cache.
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Read,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: src,
                len: 0,
                remote_addr: dst,
                wr_id: 1,
                ..Wqe::default()
            },
        );
        sim.run();
        assert!(sim.model.fab.mem(N1).is_durable(dst, 64).unwrap());
        assert_eq!(sim.model.fab.stats().nic_flushes, 1);

        // And the data now survives a power failure.
        sim.model.fab.mem(N1).power_failure();
        assert_eq!(
            sim.model.fab.mem(N1).read_vec(dst, 64).unwrap(),
            vec![9u8; 64]
        );
    }

    #[test]
    fn unflushed_write_dies_in_power_failure() {
        let mut sim = Harness::new(2);
        let (qa, _qb, _, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096);
        sim.model.fab.reg_mr(N1, dst, 4096);
        let src = sim.model.fab.alloc(N0, 64);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, &[5u8; 64])
            .unwrap();
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 64,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        sim.run();
        sim.model.fab.mem(N1).power_failure();
        assert_eq!(
            sim.model.fab.mem(N1).read_vec(dst, 64).unwrap(),
            vec![0u8; 64]
        );
    }

    #[test]
    fn send_scatters_into_recv_sges() {
        let mut sim = Harness::new(2);
        let (qa, qb, _, cq_b) = pair(&mut sim, N0, N1);
        let buf1 = sim.model.fab.alloc(N1, 64);
        let buf2 = sim.model.fab.alloc(N1, 64);
        post_recv(
            &mut sim,
            N1,
            qb,
            RecvWqe {
                wr_id: 9,
                sges: vec![(buf1, 4), (buf2, 60)],
            },
        );
        let src = sim.model.fab.alloc(N0, 64);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, b"abcdefgh")
            .unwrap();
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 8,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(sim.model.fab.mem(N1).read_vec(buf1, 4).unwrap(), b"abcd");
        assert_eq!(sim.model.fab.mem(N1).read_vec(buf2, 4).unwrap(), b"efgh");
        let cqes = sim.model.fab.poll_cq(N1, cq_b, 4);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].wr_id, 9);
        assert_eq!(cqes[0].byte_len, 8);
    }

    #[test]
    fn send_without_recv_is_stashed_until_post() {
        let mut sim = Harness::new(2);
        let (qa, qb, _, cq_b) = pair(&mut sim, N0, N1);
        let src = sim.model.fab.alloc(N0, 64);
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 8,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(sim.model.fab.cq_depth(N1, cq_b), 0, "no recv yet");
        let buf = sim.model.fab.alloc(N1, 64);
        post_recv(
            &mut sim,
            N1,
            qb,
            RecvWqe {
                wr_id: 1,
                sges: vec![(buf, 64)],
            },
        );
        sim.run();
        assert_eq!(
            sim.model.fab.cq_depth(N1, cq_b),
            1,
            "stashed send delivered"
        );
    }

    #[test]
    fn later_write_completes_before_stashed_send_and_stray_acks_are_ignored() {
        let mut sim = Harness::new(2);
        let (qa, qb, cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 64);
        sim.model.fab.reg_mr(N1, dst, 64);
        let src = sim.model.fab.alloc(N0, 64);
        for (opcode, wr_id) in [(Opcode::Send, 1), (Opcode::Write, 2)] {
            let wqe = Wqe {
                opcode,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: src,
                len: 8,
                remote_addr: dst,
                wr_id,
                ..Wqe::default()
            };
            post_send(&mut sim, N0, qa, wqe);
        }
        sim.run();
        // The SEND (seq 0) waits for a RECV; the WRITE (seq 1) overtakes it.
        let wr_ids = |cqes: Vec<Cqe>| cqes.iter().map(|c| c.wr_id).collect::<Vec<_>>();
        assert_eq!(wr_ids(sim.model.fab.poll_cq(N0, cq_a, 16)), [2]);

        // Acks for a completed or never-issued request find nothing.
        let stray_acks = |sim: &mut Simulation<Harness>, seqs: &[u64]| {
            let mut out = Outbox::new();
            for &seq in seqs {
                let msg = Message::Ack {
                    seq,
                    status: CqeStatus::Success,
                };
                let ev = NicEvent::Deliver {
                    node: N0,
                    qp: qa,
                    msg,
                };
                let now = sim.queue.now();
                sim.model.fab.handle(now, ev, &mut out);
            }
            Harness::route(&mut out, &mut sim.queue);
            sim.run();
        };
        stray_acks(&mut sim, &[1, 2, 9]);
        assert_eq!(sim.model.fab.cq_depth(N0, cq_a), 0);

        let buf = sim.model.fab.alloc(N1, 64);
        let recv = RecvWqe {
            wr_id: 7,
            sges: vec![(buf, 64)],
        };
        post_recv(&mut sim, N1, qb, recv);
        sim.run();
        assert_eq!(wr_ids(sim.model.fab.poll_cq(N0, cq_a, 16)), [1]);

        stray_acks(&mut sim, &[0, 1, 2]);
        assert_eq!(sim.model.fab.cq_depth(N0, cq_a), 0);
    }

    #[test]
    fn cas_swaps_on_match_and_reports_original() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let target = sim.model.fab.alloc(N1, 64);
        sim.model.fab.reg_mr(N1, target, 64);
        sim.model
            .fab
            .mem(N1)
            .write_durable(target, &7u64.to_le_bytes())
            .unwrap();
        let result = sim.model.fab.alloc(N0, 64);

        // Matching CAS: 7 -> 99.
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::CompareSwap,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: result,
                remote_addr: target,
                compare_or_imm: 7,
                swap: 99,
                wr_id: 1,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(
            sim.model.fab.mem(N1).read_vec(target, 8).unwrap(),
            99u64.to_le_bytes()
        );
        assert_eq!(
            sim.model.fab.mem(N0).read_vec(result, 8).unwrap(),
            7u64.to_le_bytes(),
            "original value reported"
        );
        assert_eq!(sim.model.fab.poll_cq(N0, cq_a, 4).len(), 1);

        // Non-matching CAS: target unchanged, original reported.
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::CompareSwap,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: result,
                remote_addr: target,
                compare_or_imm: 7,
                swap: 1234,
                wr_id: 2,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(
            sim.model.fab.mem(N1).read_vec(target, 8).unwrap(),
            99u64.to_le_bytes(),
            "mismatch must not swap"
        );
        assert_eq!(
            sim.model.fab.mem(N0).read_vec(result, 8).unwrap(),
            99u64.to_le_bytes()
        );
    }

    #[test]
    fn misaligned_cas_errors() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let target = sim.model.fab.alloc(N1, 64);
        sim.model.fab.reg_mr(N1, target, 64);
        let result = sim.model.fab.alloc(N0, 64);
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::CompareSwap,
                flags: wqe_flags::HW_OWNED,
                local_addr: result,
                remote_addr: target + 3,
                ..Wqe::default()
            },
        );
        sim.run();
        let cqes = sim.model.fab.poll_cq(N0, cq_a, 4);
        assert_eq!(cqes.len(), 1, "errors complete even unsignaled");
        assert_eq!(cqes[0].status, CqeStatus::MisalignedAtomic);
    }

    #[test]
    fn write_outside_mr_errors_at_requester() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096); // NOT registered
        let src = sim.model.fab.alloc(N0, 64);
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 64,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        sim.run();
        let cqes = sim.model.fab.poll_cq(N0, cq_a, 4);
        assert_eq!(cqes.len(), 1);
        assert_eq!(cqes[0].status, CqeStatus::RemoteAccessError);
        assert_eq!(
            sim.model.fab.mem(N1).read_vec(dst, 64).unwrap(),
            vec![0u8; 64],
            "unauthorized write must not land"
        );
    }

    #[test]
    fn unowned_wqe_stalls_until_grant() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 64);
        sim.model.fab.reg_mr(N1, dst, 64);
        let src = sim.model.fab.alloc(N0, 64);
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::SIGNALED, // not HW_OWNED
                local_addr: src,
                len: 8,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(sim.model.fab.poll_cq(N0, cq_a, 4).len(), 0, "must stall");
        grant(&mut sim, N0, qa, 1);
        sim.run();
        assert_eq!(sim.model.fab.poll_cq(N0, cq_a, 4).len(), 1, "grant resumes");
    }

    #[test]
    fn wait_blocks_until_recv_completion_then_forwards() {
        // Three nodes chained: 0 -> 1 -> 2, no host involvement on node 1.
        let mut sim = Harness::new(3);
        let (q01, q10, _cq0, cq1_up) = pair(&mut sim, N0, N1);
        // Node1 -> Node2 QP with its own CQ.
        let cq1_down = sim.model.fab.create_cq(N1);
        let q12 = sim.model.fab.create_qp(N1, cq1_down, cq1_down);
        let cq2 = sim.model.fab.create_cq(N2);
        let q21 = sim.model.fab.create_qp(N2, cq2, cq2);
        sim.model.fab.connect(N1, q12, N2, q21);

        // Buffers: payload staging on node1, final buffer on node2.
        let stage1 = sim.model.fab.alloc(N1, 64);
        let buf2 = sim.model.fab.alloc(N2, 64);
        post_recv(
            &mut sim,
            N1,
            q10,
            RecvWqe {
                wr_id: 1,
                sges: vec![(stage1, 64)],
            },
        );
        post_recv(
            &mut sim,
            N2,
            q21,
            RecvWqe {
                wr_id: 2,
                sges: vec![(buf2, 64)],
            },
        );

        // Node1 pre-posts: WAIT(upstream recv CQ) then SEND(stage -> node2).
        post_send(
            &mut sim,
            N1,
            q12,
            Wqe {
                opcode: Opcode::Wait,
                flags: wqe_flags::HW_OWNED,
                wait_cq: cq1_up.0,
                wait_count: 1,
                enable_count: 1,
                ..Wqe::default()
            },
        );
        post_send(
            &mut sim,
            N1,
            q12,
            Wqe {
                opcode: Opcode::Send,
                flags: 0, // disabled until the WAIT enables it
                local_addr: stage1,
                len: 8,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(sim.model.fab.cq_depth(N2, cq2), 0, "nothing forwarded yet");

        // Client sends to node1; node1's NIC forwards to node2 on its own.
        let src = sim.model.fab.alloc(N0, 64);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, b"hi chain")
            .unwrap();
        post_send(
            &mut sim,
            N0,
            q01,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 8,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(
            sim.model.fab.mem(N2).read_vec(buf2, 8).unwrap(),
            b"hi chain"
        );
        assert_eq!(sim.model.fab.stats().waits_triggered, 1);
    }

    #[test]
    fn indirect_descriptor_is_fetched_at_execution_time() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096);
        sim.model.fab.reg_mr(N1, dst, 4096);
        let src = sim.model.fab.alloc(N0, 4096);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, b"new data")
            .unwrap();
        let meta = sim.model.fab.alloc(N0, 64);

        // Post an unowned indirect WQE pointing at the (still zero) image.
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Nop,
                flags: wqe_flags::INDIRECT, // unowned
                local_addr: meta,
                ..Wqe::default()
            },
        );
        sim.run();
        // Rewrite the image *after* posting: this is the manipulation step.
        let image = Wqe {
            opcode: Opcode::Write,
            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
            local_addr: src,
            len: 8,
            remote_addr: dst,
            wr_id: 77,
            ..Wqe::default()
        };
        let bytes = image.encode();
        sim.model.fab.mem(N0).write_durable(meta, &bytes).unwrap();
        grant(&mut sim, N0, qa, 1);
        sim.run();
        assert_eq!(sim.model.fab.mem(N1).read_vec(dst, 8).unwrap(), b"new data");
        let cqes = sim.model.fab.poll_cq(N0, cq_a, 4);
        assert_eq!(cqes[0].wr_id, 77, "wr_id comes from the fetched image");
    }

    #[test]
    fn fence_orders_send_after_read() {
        let mut sim = Harness::new(2);
        let (qa, qb, _, cq_b) = pair(&mut sim, N0, N1);
        let dst = sim.model.fab.alloc(N1, 4096);
        sim.model.fab.reg_mr(N1, dst, 4096);
        let src = sim.model.fab.alloc(N0, 64);
        let rbuf = sim.model.fab.alloc(N0, 64);
        let notify_buf = sim.model.fab.alloc(N1, 64);
        post_recv(
            &mut sim,
            N1,
            qb,
            RecvWqe {
                wr_id: 5,
                sges: vec![(notify_buf, 64)],
            },
        );

        // WRITE, 0-byte READ (flush), then FENCED SEND: when the SEND's CQE
        // shows up at node1, the written data must already be durable there.
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED,
                local_addr: src,
                len: 64,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Read,
                flags: wqe_flags::HW_OWNED,
                local_addr: rbuf,
                len: 0,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        post_send(
            &mut sim,
            N0,
            qa,
            Wqe {
                opcode: Opcode::Send,
                flags: wqe_flags::HW_OWNED | wqe_flags::FENCE,
                local_addr: src,
                len: 4,
                ..Wqe::default()
            },
        );
        // Run to completion; then verify ordering by state.
        sim.run();
        assert_eq!(sim.model.fab.cq_depth(N1, cq_b), 1, "send arrived");
        assert!(
            sim.model.fab.mem(N1).is_durable(dst, 64).unwrap(),
            "fenced send must not overtake the flush"
        );
    }

    #[test]
    fn armed_cq_notifies_host_once() {
        let mut sim = Harness::new(2);
        let (qa, qb, _, cq_b) = pair(&mut sim, N0, N1);
        let buf = sim.model.fab.alloc(N1, 64);
        post_recv(
            &mut sim,
            N1,
            qb,
            RecvWqe {
                wr_id: 1,
                sges: vec![(buf, 64)],
            },
        );
        post_recv(
            &mut sim,
            N1,
            qb,
            RecvWqe {
                wr_id: 2,
                sges: vec![(buf, 64)],
            },
        );
        sim.model.fab.arm_cq(N1, cq_b);
        let src = sim.model.fab.alloc(N0, 64);
        for _ in 0..2 {
            post_send(
                &mut sim,
                N0,
                qa,
                Wqe {
                    opcode: Opcode::Send,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: src,
                    len: 4,
                    ..Wqe::default()
                },
            );
        }
        sim.run();
        assert_eq!(sim.model.notifies.len(), 1, "one notify per arm");
        assert_eq!(sim.model.fab.cq_depth(N1, cq_b), 2);
    }

    #[test]
    fn pipelined_writes_reach_wire_throughput() {
        let mut sim = Harness::new(2);
        let (qa, _, cq_a, _) = pair(&mut sim, N0, N1);
        let size = 64 * 1024u64;
        let n = 64u64;
        let dst = sim.model.fab.alloc(N1, size);
        sim.model.fab.reg_mr(N1, dst, size);
        let src = sim.model.fab.alloc(N0, size);
        for _ in 0..n {
            post_send(
                &mut sim,
                N0,
                qa,
                Wqe {
                    opcode: Opcode::Write,
                    flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                    local_addr: src,
                    len: size,
                    remote_addr: dst,
                    ..Wqe::default()
                },
            );
        }
        sim.run();
        assert_eq!(sim.model.fab.poll_cq(N0, cq_a, 1024).len(), n as usize);
        let elapsed = sim.now().as_secs_f64();
        let gbps = (n * size) as f64 * 8.0 / elapsed / 1e9;
        // 56 Gbps wire, minus header overheads: expect > 40 Gbps.
        assert!(gbps > 40.0, "throughput too low: {gbps:.1} Gbps");
        assert!(gbps <= 56.0, "exceeded line rate: {gbps:.1} Gbps");
    }

    #[test]
    fn loopback_qp_copies_locally() {
        let mut sim = Harness::new(1);
        let cq1 = sim.model.fab.create_cq(N0);
        let cq2 = sim.model.fab.create_cq(N0);
        let qx = sim.model.fab.create_qp(N0, cq1, cq1);
        let qy = sim.model.fab.create_qp(N0, cq2, cq2);
        sim.model.fab.connect(N0, qx, N0, qy);
        let src = sim.model.fab.alloc(N0, 4096);
        let dst = sim.model.fab.alloc(N0, 4096);
        sim.model.fab.reg_mr(N0, dst, 4096);
        sim.model
            .fab
            .mem(N0)
            .write_durable(src, b"memcpyme")
            .unwrap();
        post_send(
            &mut sim,
            N0,
            qx,
            Wqe {
                opcode: Opcode::Write,
                flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                local_addr: src,
                len: 8,
                remote_addr: dst,
                ..Wqe::default()
            },
        );
        sim.run();
        assert_eq!(sim.model.fab.mem(N0).read_vec(dst, 8).unwrap(), b"memcpyme");
        // Local RDMA is sub-microsecond.
        assert!(sim.now().since(SimTime::ZERO) < SimDuration::from_micros(3));
    }

    #[test]
    fn wait_consumes_semaphore_counts() {
        let mut sim = Harness::new(2);
        let (qa, qb, _, cq_b) = pair(&mut sim, N0, N1);
        let buf = sim.model.fab.alloc(N1, 64);
        for i in 0..3 {
            post_recv(
                &mut sim,
                N1,
                qb,
                RecvWqe {
                    wr_id: i,
                    sges: vec![(buf, 64)],
                },
            );
        }
        // Node1: loopback pair for the triggered op.
        let cq_lb = sim.model.fab.create_cq(N1);
        let qlb1 = sim.model.fab.create_qp(N1, cq_lb, cq_lb);
        let qlb2 = sim.model.fab.create_qp(N1, cq_lb, cq_lb);
        sim.model.fab.connect(N1, qlb1, N1, qlb2);
        let flag = sim.model.fab.alloc(N1, 64);
        sim.model.fab.reg_mr(N1, flag, 64);
        let one = sim.model.fab.alloc(N1, 64);
        sim.model.fab.mem(N1).write_durable(one, &[1u8]).unwrap();
        // WAIT for THREE completions, then write the flag byte.
        post_send(
            &mut sim,
            N1,
            qlb1,
            Wqe {
                opcode: Opcode::Wait,
                flags: wqe_flags::HW_OWNED,
                wait_cq: cq_b.0,
                wait_count: 3,
                enable_count: 1,
                ..Wqe::default()
            },
        );
        post_send(
            &mut sim,
            N1,
            qlb1,
            Wqe {
                opcode: Opcode::Write,
                flags: 0,
                local_addr: one,
                len: 1,
                remote_addr: flag,
                ..Wqe::default()
            },
        );

        let src = sim.model.fab.alloc(N0, 64);
        for k in 0..3u64 {
            post_send(
                &mut sim,
                N0,
                qa,
                Wqe {
                    opcode: Opcode::Send,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: src,
                    len: 4,
                    ..Wqe::default()
                },
            );
            sim.run();
            let flag_val = sim.model.fab.mem(N1).read_vec(flag, 1).unwrap()[0];
            if k < 2 {
                assert_eq!(flag_val, 0, "triggered after only {} completions", k + 1);
            } else {
                assert_eq!(flag_val, 1, "did not trigger after 3 completions");
            }
        }
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use simcore::prelude::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);
    const MR_LEN: u64 = 8192;

    struct Harness {
        fab: RdmaFabric,
    }

    impl Model for Harness {
        type Event = NicEvent;
        fn handle(&mut self, now: SimTime, ev: NicEvent, q: &mut EventQueue<NicEvent>) {
            let mut out = Outbox::new();
            self.fab.handle(now, ev, &mut out);
            for (d, eff) in out.drain() {
                if let NicEffect::Internal(ev) = eff {
                    q.push_after(d, ev);
                }
            }
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Write { off: u64, data: Vec<u8> },
        Flush,
        Cas { word: u64, compare: u64, swap: u64 },
        PowerFailure,
    }

    fn gen_ops(seed: u64) -> Vec<Op> {
        let mut rng = SimRng::new(seed);
        let n = 1 + rng.gen_index(39);
        (0..n)
            .map(|_| match rng.gen_range(0..9) {
                0..=3 => {
                    let mut data = vec![0u8; 1 + rng.gen_index(255)];
                    rng.fill_bytes(&mut data);
                    Op::Write {
                        off: rng.gen_range(0..MR_LEN - 256),
                        data,
                    }
                }
                4 | 5 => Op::Flush,
                6 | 7 => Op::Cas {
                    word: rng.gen_range(0..16),
                    compare: rng.gen_range(0..4),
                    swap: rng.gen_range(0..4),
                },
                _ => Op::PowerFailure,
            })
            .collect()
    }

    /// Shadow model: coherent view + durable view of the remote MR.
    struct Shadow {
        coherent: Vec<u8>,
        durable: Vec<u8>,
        /// Ranges written since the last flush.
        dirty: Vec<(u64, u64)>,
    }

    impl Shadow {
        fn new() -> Self {
            Shadow {
                coherent: vec![0; MR_LEN as usize],
                durable: vec![0; MR_LEN as usize],
                dirty: Vec::new(),
            }
        }
        fn write(&mut self, off: u64, data: &[u8]) {
            self.coherent[off as usize..off as usize + data.len()].copy_from_slice(data);
            self.dirty.push((off, data.len() as u64));
        }
        fn flush(&mut self) {
            for (o, l) in self.dirty.drain(..) {
                let (o, l) = (o as usize, l as usize);
                self.durable[o..o + l].copy_from_slice(&self.coherent[o..o + l]);
            }
        }
        fn power_failure(&mut self) {
            self.dirty.clear();
            self.coherent.copy_from_slice(&self.durable);
        }
    }

    #[test]
    fn random_verbs_match_the_shadow_model() {
        for case in 0..24u64 {
            let mut sim = Simulation::new(Harness {
                fab: RdmaFabric::new(2, 1 << 20, 77),
            });
            let cq0 = sim.model.fab.create_cq(N0);
            let cq1 = sim.model.fab.create_cq(N1);
            let q0 = sim.model.fab.create_qp(N0, cq0, cq0);
            let q1 = sim.model.fab.create_qp(N1, cq1, cq1);
            sim.model.fab.connect(N0, q0, N1, q1);
            let dst = sim.model.fab.alloc(N1, MR_LEN);
            sim.model.fab.reg_mr(N1, dst, MR_LEN);
            let src = sim.model.fab.alloc(N0, MR_LEN);
            let rbuf = sim.model.fab.alloc(N0, 64);

            let mut shadow = Shadow::new();
            for op in &gen_ops(0x5AD0 + case) {
                let mut out = Outbox::new();
                let now = sim.queue.now();
                match op {
                    Op::Write { off, data } => {
                        sim.model.fab.mem(N0).write_durable(src, data).unwrap();
                        sim.model.fab.post_send(
                            now,
                            N0,
                            q0,
                            Wqe {
                                opcode: Opcode::Write,
                                flags: wqe_flags::HW_OWNED,
                                local_addr: src,
                                len: data.len() as u64,
                                remote_addr: dst + off,
                                ..Wqe::default()
                            },
                            &mut out,
                        );
                        shadow.write(*off, data);
                    }
                    Op::Flush => {
                        sim.model.fab.post_send(
                            now,
                            N0,
                            q0,
                            Wqe {
                                opcode: Opcode::Read,
                                flags: wqe_flags::HW_OWNED,
                                local_addr: rbuf,
                                len: 0,
                                remote_addr: dst,
                                ..Wqe::default()
                            },
                            &mut out,
                        );
                        shadow.flush();
                    }
                    Op::Cas {
                        word,
                        compare,
                        swap,
                    } => {
                        sim.model.fab.post_send(
                            now,
                            N0,
                            q0,
                            Wqe {
                                opcode: Opcode::CompareSwap,
                                flags: wqe_flags::HW_OWNED,
                                local_addr: rbuf,
                                remote_addr: dst + word * 8,
                                compare_or_imm: *compare,
                                swap: *swap,
                                ..Wqe::default()
                            },
                            &mut out,
                        );
                        let o = (*word * 8) as usize;
                        let cur = u64::from_le_bytes(shadow.coherent[o..o + 8].try_into().unwrap());
                        if cur == *compare {
                            shadow.write(*word * 8, &swap.to_le_bytes());
                        }
                    }
                    Op::PowerFailure => {
                        // Drain in-flight traffic first, then cut power.
                        sim.run();
                        sim.model.fab.mem(N1).power_failure();
                        shadow.power_failure();
                    }
                }
                for (d, eff) in out.drain() {
                    if let NicEffect::Internal(ev) = eff {
                        sim.queue.push_after(d, ev);
                    }
                }
                sim.run(); // sequential issue: settle before comparing
                let got = sim.model.fab.mem(N1).read_vec(dst, MR_LEN).unwrap();
                assert_eq!(&got, &shadow.coherent, "coherent view diverged");
                let dur = sim.model.fab.mem(N1).read_durable_vec(dst, MR_LEN).unwrap();
                assert_eq!(&dur, &shadow.durable, "durable view diverged");
            }
            assert_eq!(sim.model.fab.stats().errors, 0);
        }
    }

    #[test]
    fn pipelined_disjoint_writes_all_land() {
        for case in 0..24u64 {
            let mut seed_rng = SimRng::new(0xF1BE + case);
            let seeds: Vec<u8> = (0..4 + seed_rng.gen_index(28))
                .map(|_| seed_rng.next_u64() as u8)
                .collect();
            let mut sim = Simulation::new(Harness {
                fab: RdmaFabric::new(2, 1 << 20, 5),
            });
            let cq0 = sim.model.fab.create_cq(N0);
            let cq1 = sim.model.fab.create_cq(N1);
            let q0 = sim.model.fab.create_qp(N0, cq0, cq0);
            let q1 = sim.model.fab.create_qp(N1, cq1, cq1);
            sim.model.fab.connect(N0, q0, N1, q1);
            let n = seeds.len() as u64;
            let dst = sim.model.fab.alloc(N1, n * 128);
            sim.model.fab.reg_mr(N1, dst, n * 128);
            let src = sim.model.fab.alloc(N0, n * 128);

            let mut out = Outbox::new();
            for (i, &b) in seeds.iter().enumerate() {
                let i = i as u64;
                sim.model
                    .fab
                    .mem(N0)
                    .write_durable(src + i * 128, &[b; 128])
                    .unwrap();
                sim.model.fab.post_send(
                    SimTime::ZERO,
                    N0,
                    q0,
                    Wqe {
                        opcode: Opcode::Write,
                        flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                        local_addr: src + i * 128,
                        len: 128,
                        remote_addr: dst + i * 128,
                        wr_id: i,
                        ..Wqe::default()
                    },
                    &mut out,
                );
            }
            for (d, eff) in out.drain() {
                if let NicEffect::Internal(ev) = eff {
                    sim.queue.push_after(d, ev);
                }
            }
            sim.run();
            let cqes = sim.model.fab.poll_cq(N0, cq0, 1024);
            assert_eq!(cqes.len(), seeds.len(), "missing completions");
            for (i, &b) in seeds.iter().enumerate() {
                let got = sim
                    .model
                    .fab
                    .mem(N1)
                    .read_vec(dst + i as u64 * 128, 128)
                    .unwrap();
                assert_eq!(got, vec![b; 128]);
            }
            assert_eq!(sim.model.fab.stats().errors, 0);
        }
    }
}
