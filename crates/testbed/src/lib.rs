//! # testbed — the simulated 20-machine rack
//!
//! Composes the substrates into one runnable [`Cluster`]:
//!
//! * [`rnicsim`] — RDMA NICs, host NVM, network;
//! * [`cpusched`] — one multi-tenant CPU scheduler per node;
//! * application processes ([`HostApp`]) bound to completion queues, whose
//!   handlers only run once their process is scheduled onto a core.
//!
//! This is the stage on which both the HyperLoop data path (NIC-only, no
//! handler in the loop) and the Naïve-RDMA baseline (handler on every hop)
//! are measured.
//!
//! ```
//! use testbed::{Cluster, HostApp, HostEvent, Env};
//! use simcore::{SimDuration, SimTime};
//! use cpusched::ProcKind;
//! use netsim::NodeId;
//!
//! struct Ticker { ticks: u32 }
//! impl HostApp for Ticker {
//!     fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
//!         match ev {
//!             HostEvent::Start => env.set_timer(SimDuration::from_micros(10), 0),
//!             HostEvent::Timer(_) => self.ticks += 1,
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut cluster = Cluster::with_defaults(1, 4);
//! let p = cluster.add_app(NodeId(0), ProcKind::EventDriven, Box::new(Ticker { ticks: 0 }));
//! let mut sim = cluster.into_sim();
//! sim.run_until(SimTime::from_millis(1));
//! assert_eq!(sim.model.app_mut::<Ticker>(p).ticks, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod env;
pub mod placement;
pub mod types;

pub use cluster::{drive, Cluster, TIMER_HANDLER_COST};
pub use env::{Env, StagedAction};
pub use placement::ShardPlacement;
pub use types::{ClusterConfig, ClusterEvent, HostApp, HostEvent, ProcRef, TaskKind};

#[cfg(test)]
mod tests {
    use super::*;
    use cpusched::{HogProfile, ProcKind};
    use netsim::NodeId;
    use rnicsim::{wqe_flags, CqId, Opcode, QpId, RecvWqe, Wqe};
    use simcore::prelude::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    /// Client: every `period`, writes 64 bytes to the server and records the
    /// round-trip latency of the completion.
    struct Client {
        qp: QpId,
        cq: CqId,
        src: u64,
        dst: u64,
        period: SimDuration,
        sent_at: Option<SimTime>,
        hist: Histogram,
        remaining: u32,
    }

    impl HostApp for Client {
        fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
            match ev {
                HostEvent::Start => env.set_timer(self.period, 0),
                HostEvent::Timer(_) => {
                    self.sent_at = Some(env.now());
                    env.post_send(
                        N0,
                        self.qp,
                        Wqe {
                            opcode: Opcode::Write,
                            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                            local_addr: self.src,
                            len: 64,
                            remote_addr: self.dst,
                            ..Wqe::default()
                        },
                    );
                }
                HostEvent::CqReady(cq) => {
                    assert_eq!(cq, self.cq);
                    let n = env.poll_cq(N0, cq, 16).len();
                    if n > 0 {
                        let sent = self.sent_at.take().expect("completion without send");
                        self.hist.record(env.now().since(sent));
                        if self.remaining > 0 {
                            self.remaining -= 1;
                            env.set_timer(self.period, 0);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// Server: counts SEND arrivals via its bound CQ.
    struct Server {
        qp: QpId,
        cq: CqId,
        buf: u64,
        received: u32,
    }

    impl HostApp for Server {
        fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
            if let HostEvent::CqReady(cq) = ev {
                assert_eq!(cq, self.cq);
                let cqes = env.poll_cq(N1, cq, 64);
                self.received += cqes.len() as u32;
                for _ in &cqes {
                    env.post_recv(
                        N1,
                        self.qp,
                        RecvWqe {
                            wr_id: 0,
                            sges: vec![(self.buf, 4096)],
                        },
                    );
                }
            }
        }
    }

    fn build_pair(cluster: &mut Cluster) -> (QpId, QpId, CqId, CqId) {
        let cq0 = cluster.fab.create_cq(N0);
        let cq1 = cluster.fab.create_cq(N1);
        let q0 = cluster.fab.create_qp(N0, cq0, cq0);
        let q1 = cluster.fab.create_qp(N1, cq1, cq1);
        cluster.fab.connect(N0, q0, N1, q1);
        (q0, q1, cq0, cq1)
    }

    #[test]
    fn client_write_completion_reaches_handler() {
        let mut cluster = Cluster::with_defaults(2, 4);
        let (q0, _q1, cq0, _cq1) = build_pair(&mut cluster);
        let dst = cluster.fab.alloc(N1, 4096);
        cluster.fab.reg_mr(N1, dst, 4096);
        let src = cluster.fab.alloc(N0, 64);
        let client = cluster.add_app(
            N0,
            ProcKind::EventDriven,
            Box::new(Client {
                qp: q0,
                cq: cq0,
                src,
                dst,
                period: SimDuration::from_micros(50),
                sent_at: None,
                hist: Histogram::new(),
                remaining: 9,
            }),
        );
        cluster.bind_cq(client, N0, cq0, SimDuration::from_micros(1));
        let mut sim = cluster.into_sim();
        sim.run_until(SimTime::from_millis(50));
        let hist = &sim.model.app_mut::<Client>(client).hist;
        assert_eq!(hist.count(), 10, "all writes completed");
        // Idle 2-node RTT plus one wake-up: a handful of microseconds.
        assert!(hist.max() < SimDuration::from_micros(50), "{}", hist.max());
    }

    #[test]
    fn send_wakes_server_app() {
        let mut cluster = Cluster::with_defaults(2, 4);
        let (q0, q1, _cq0, cq1) = build_pair(&mut cluster);
        let buf = cluster.fab.alloc(N1, 4096);
        let server = cluster.add_app(
            N1,
            ProcKind::EventDriven,
            Box::new(Server {
                qp: q1,
                cq: cq1,
                buf,
                received: 0,
            }),
        );
        cluster.bind_cq(server, N1, cq1, SimDuration::from_micros(2));
        // Pre-post initial recvs and fire three sends from outside the sim.
        let mut sim = cluster.into_sim();
        let mut out = Outbox::new();
        for _ in 0..4 {
            sim.model.fab.post_recv(
                SimTime::ZERO,
                N1,
                q1,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![(buf, 4096)],
                },
                &mut out,
            );
        }
        let src = sim.model.fab.alloc(N0, 64);
        for _ in 0..3 {
            sim.model.fab.post_send(
                SimTime::ZERO,
                N0,
                q0,
                Wqe {
                    opcode: Opcode::Send,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: src,
                    len: 32,
                    ..Wqe::default()
                },
                &mut out,
            );
        }
        for (delay, eff) in out.drain() {
            if let rnicsim::NicEffect::Internal(ev) = eff {
                sim.queue.push_after(delay, ClusterEvent::Nic(ev));
            }
        }
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(sim.model.app_mut::<Server>(server).received, 3);
    }

    #[test]
    fn background_load_inflates_handler_latency() {
        let mut results = Vec::new();
        for hogs in [0u32, 40] {
            let mut cluster = Cluster::with_defaults(2, 4);
            let (q0, _q1, cq0, _cq1) = build_pair(&mut cluster);
            let dst = cluster.fab.alloc(N1, 4096);
            cluster.fab.reg_mr(N1, dst, 4096);
            let src = cluster.fab.alloc(N0, 64);
            let client = cluster.add_app(
                N0,
                ProcKind::EventDriven,
                Box::new(Client {
                    qp: q0,
                    cq: cq0,
                    src,
                    dst,
                    period: SimDuration::from_micros(500),
                    sent_at: None,
                    hist: Histogram::new(),
                    remaining: 199,
                }),
            );
            cluster.bind_cq(client, N0, cq0, SimDuration::from_micros(1));
            // The *client's* node is the contended one here: its completion
            // handler has to fight the hogs for CPU.
            cluster.add_background_load(N0, hogs, HogProfile::default());
            let mut sim = cluster.into_sim();
            sim.run_until(SimTime::from_secs(2));
            let h = &sim.model.app_mut::<Client>(client).hist;
            assert!(h.count() >= 150, "lost completions: {}", h.count());
            results.push(h.p99());
        }
        assert!(
            results[1] > results[0] * 10,
            "hogs did not inflate tail: {} vs {}",
            results[1],
            results[0]
        );
    }

    #[test]
    fn submit_work_charges_cpu_before_continuation() {
        struct Worker {
            done_at: Option<SimTime>,
        }
        impl HostApp for Worker {
            fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
                match ev {
                    HostEvent::Start => env.submit_work(SimDuration::from_millis(2), 1),
                    HostEvent::WorkDone(1) => self.done_at = Some(env.now()),
                    _ => {}
                }
            }
        }
        let mut cluster = Cluster::with_defaults(1, 2);
        let p = cluster.add_app(
            N0,
            ProcKind::EventDriven,
            Box::new(Worker { done_at: None }),
        );
        let mut sim = cluster.into_sim();
        sim.run_until(SimTime::from_secs(1));
        let done = sim
            .model
            .app_mut::<Worker>(p)
            .done_at
            .expect("work finished");
        assert!(done.since(SimTime::ZERO) >= SimDuration::from_millis(2));
        assert!(done.since(SimTime::ZERO) < SimDuration::from_millis(4));
    }

    #[test]
    fn timers_repeat_and_carry_tokens() {
        struct Periodic {
            fired: Vec<u64>,
        }
        impl HostApp for Periodic {
            fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
                match ev {
                    HostEvent::Start => {
                        env.set_timer(SimDuration::from_micros(100), 7);
                        env.set_timer(SimDuration::from_micros(300), 8);
                    }
                    HostEvent::Timer(t) => self.fired.push(t),
                    _ => {}
                }
            }
        }
        let mut cluster = Cluster::with_defaults(1, 2);
        let p = cluster.add_app(
            N0,
            ProcKind::EventDriven,
            Box::new(Periodic { fired: vec![] }),
        );
        let mut sim = cluster.into_sim();
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.model.app_mut::<Periodic>(p).fired, vec![7, 8]);
    }

    #[test]
    fn setup_fabric_effects_fire_at_start() {
        // Posting owned WQEs during setup emits engine events before the
        // simulation exists; they must be delivered at time zero.
        let mut cluster = Cluster::with_defaults(2, 2);
        let (q0, _q1, cq0, _cq1) = build_pair(&mut cluster);
        let dst = cluster.fab.alloc(N1, 4096);
        cluster.fab.reg_mr(N1, dst, 4096);
        let src = cluster.fab.alloc(N0, 64);
        cluster.setup_fabric(|ctx| {
            ctx.post_send(
                N0,
                q0,
                Wqe {
                    opcode: Opcode::Write,
                    flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                    local_addr: src,
                    len: 16,
                    remote_addr: dst,
                    ..Wqe::default()
                },
            );
        });
        let mut sim = cluster.into_sim();
        sim.run();
        assert_eq!(sim.model.fab.cq_depth(N0, cq0), 1, "setup write completed");
    }

    #[test]
    fn proc_cpu_accounts_occupancy_and_useful_work() {
        struct Burner;
        impl HostApp for Burner {
            fn on_event(&mut self, env: &mut Env<'_>, ev: HostEvent) {
                if ev == HostEvent::Start {
                    env.submit_work(SimDuration::from_millis(5), 1);
                }
            }
        }
        let mut cluster = Cluster::with_defaults(1, 2);
        let p = cluster.add_app(N0, ProcKind::EventDriven, Box::new(Burner));
        let mut sim = cluster.into_sim();
        sim.run_until(SimTime::from_millis(50));
        let (busy, useful) = sim.model.proc_cpu(p);
        assert_eq!(useful, SimDuration::from_millis(5) + SimDuration::ZERO);
        assert!(busy >= useful, "occupancy includes the context switch");
        assert!(busy < useful + SimDuration::from_micros(50));
    }

    #[test]
    fn external_drive_routes_host_notifications() {
        // A verb posted via `drive` whose completion lands on a bound CQ
        // must still wake the bound app.
        let mut cluster = Cluster::with_defaults(2, 2);
        let (q0, q1, _cq0, cq1) = build_pair(&mut cluster);
        let buf = cluster.fab.alloc(N1, 4096);
        let server = cluster.add_app(
            N1,
            ProcKind::EventDriven,
            Box::new(Server {
                qp: q1,
                cq: cq1,
                buf,
                received: 0,
            }),
        );
        cluster.bind_cq(server, N1, cq1, SimDuration::from_micros(1));
        let mut sim = cluster.into_sim();
        drive(&mut sim, |ctx| {
            ctx.post_recv(
                N1,
                q1,
                RecvWqe {
                    wr_id: 0,
                    sges: vec![(buf, 4096)],
                },
            );
            let src = ctx.fab.alloc(N0, 64);
            ctx.post_send(
                N0,
                q0,
                Wqe {
                    opcode: Opcode::Send,
                    flags: wqe_flags::HW_OWNED,
                    local_addr: src,
                    len: 8,
                    ..Wqe::default()
                },
            );
        });
        sim.run_until(SimTime::from_millis(5));
        assert_eq!(sim.model.app_mut::<Server>(server).received, 1);
    }

    #[test]
    #[should_panic(expected = "different nodes")]
    fn binding_cq_across_nodes_panics() {
        let mut cluster = Cluster::with_defaults(2, 2);
        let cq1 = cluster.fab.create_cq(N1);
        struct Noop;
        impl HostApp for Noop {
            fn on_event(&mut self, _env: &mut Env<'_>, _ev: HostEvent) {}
        }
        let p = cluster.add_app(N0, ProcKind::EventDriven, Box::new(Noop));
        cluster.bind_cq(p, N1, cq1, SimDuration::from_micros(1));
    }
}
