//! # baseline — the Naïve-RDMA comparator
//!
//! The paper's evaluation baseline (§6): the same group-operation API and
//! chain topology as HyperLoop, but with each replica's **CPU** in the
//! critical path — it wakes on the receive completion, parses the command,
//! executes it against local NVM, posts the forwarding verbs, and re-posts
//! receives. Two flavours, matching the paper:
//!
//! * **Naïve-Event** — replicas sleep and pay a wake-up per op;
//! * **Naïve-Polling** — replicas spin on their CQ (fast when they own a
//!   core, disastrous under multi-tenant co-location).
//!
//! Select via [`NaiveConfig::replica_kind`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod cmd;
pub mod replica;

pub use client::{NaiveChain, NaiveClient, NaiveConfig};
pub use replica::{NaiveCosts, NaiveReplica, CAS, FLUSH_BPS, FLUSH_FIXED};

#[cfg(test)]
mod tests {
    use super::*;
    use cpusched::ProcKind;
    use hyperloop::{ExecuteMap, GroupOp};
    use netsim::NodeId;
    use rnicsim::Payload;
    use simcore::{SimDuration, Simulation};
    use testbed::{drive, Cluster};

    const CLIENT: NodeId = NodeId(0);

    fn setup(replicas: u32, kind: ProcKind) -> (Simulation<Cluster>, NaiveChain) {
        let mut cluster = Cluster::with_defaults(replicas + 1, 8);
        let nodes: Vec<NodeId> = (1..=replicas).map(NodeId).collect();
        let chain = NaiveChain::setup(
            &mut cluster,
            CLIENT,
            &nodes,
            NaiveConfig {
                replica_kind: kind,
                ..NaiveConfig::default()
            },
        );
        (cluster.into_sim(), chain)
    }

    fn run_op(
        sim: &mut Simulation<Cluster>,
        chain: &mut NaiveChain,
        op: GroupOp,
    ) -> hyperloop::GroupAck {
        let gen = drive(sim, |ctx| chain.client.issue(ctx, op).expect("issue"));
        let deadline = sim.now() + SimDuration::from_secs(2);
        sim.run_until(deadline);
        let acks = drive(sim, |ctx| chain.client.poll(ctx));
        assert_eq!(acks.len(), 1, "expected one ack");
        assert_eq!(acks[0].gen, gen);
        assert_eq!(sim.model.fab.stats().errors, 0);
        acks.into_iter().next().expect("one ack")
    }

    #[test]
    fn naive_write_replicates_and_flushes_via_cpu() {
        let (mut sim, mut chain) = setup(3, ProcKind::EventDriven);
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Write {
                offset: 256,
                data: Payload::copy_from(b"naive-data"),
                flush: true,
            },
        );
        for n in 1..=3u32 {
            let base = 0; // shared region is the first allocation on replicas
            let _ = base;
            // Locate shared base through the replica app is private; read
            // via the known symmetric offset 0 (first allocation).
            let v = sim.model.fab.mem(NodeId(n)).read_vec(256, 10).unwrap();
            assert_eq!(v, b"naive-data", "replica {n}");
            assert!(sim.model.fab.mem(NodeId(n)).is_durable(256, 10).unwrap());
        }
        // Replica handlers did run on the CPU (unlike HyperLoop).
        for &proc in &chain.replica_procs {
            assert_eq!(sim.model.app_mut::<NaiveReplica>(proc).handled, 1);
        }
        let busy: SimDuration = (1..=3)
            .map(|n| sim.model.sched(NodeId(n)).stats().useful)
            .fold(SimDuration::ZERO, |a, b| a + b);
        assert!(busy > SimDuration::ZERO, "replica CPUs must have worked");
    }

    #[test]
    fn naive_cas_execute_map_and_results() {
        let (mut sim, mut chain) = setup(3, ProcKind::EventDriven);
        let exec = ExecuteMap::none().with(0).with(2);
        let ack = run_op(
            &mut sim,
            &mut chain,
            GroupOp::Cas {
                offset: 64,
                compare: 0,
                swap: 5,
                execute: exec,
            },
        );
        assert!(ack.cas_succeeded(0, exec));
        let vals: Vec<u64> = (1..=3)
            .map(|n| {
                u64::from_le_bytes(
                    sim.model
                        .fab
                        .mem(NodeId(n))
                        .read_vec(64, 8)
                        .unwrap()
                        .try_into()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(vals, vec![5, 0, 5]);
    }

    #[test]
    fn naive_memcpy_applies_on_every_replica() {
        let (mut sim, mut chain) = setup(2, ProcKind::EventDriven);
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Write {
                offset: 0,
                data: Payload::copy_from(b"PAYLOAD"),
                flush: true,
            },
        );
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Memcpy {
                src: 0,
                dst: 1 << 20,
                len: 7,
                flush: true,
            },
        );
        for n in 1..=2u32 {
            assert_eq!(
                sim.model.fab.mem(NodeId(n)).read_vec(1 << 20, 7).unwrap(),
                b"PAYLOAD"
            );
        }
    }

    #[test]
    fn polling_replicas_also_work() {
        let (mut sim, mut chain) = setup(3, ProcKind::Polling);
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(1, 128),
                flush: true,
            },
        );
        // Pollers burn CPU continuously.
        let busy = sim.model.sched(NodeId(1)).stats().busy;
        assert!(busy > SimDuration::from_millis(1), "poller should burn CPU");
    }

    #[test]
    fn naive_pipeline_sustains_many_ops() {
        let (mut sim, mut chain) = setup(2, ProcKind::EventDriven);
        let mut done = 0;
        for _ in 0..40 {
            drive(&mut sim, |ctx| {
                while chain.client.can_issue() {
                    chain
                        .client
                        .issue(
                            ctx,
                            GroupOp::Write {
                                offset: 0,
                                data: Payload::filled(7, 256),
                                flush: true,
                            },
                        )
                        .expect("window checked");
                }
            });
            let deadline = sim.now() + SimDuration::from_millis(50);
            sim.run_until(deadline);
            done += drive(&mut sim, |ctx| chain.client.poll(ctx)).len();
            if done >= 200 {
                break;
            }
        }
        assert!(done >= 200, "only {done} ops completed");
        assert_eq!(sim.model.fab.stats().errors, 0);
    }

    #[test]
    fn idle_naive_latency_is_tens_of_microseconds() {
        let (mut sim, mut chain) = setup(3, ProcKind::EventDriven);
        // Warm up one op (first dispatch pays extra context switches).
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(0, 64),
                flush: true,
            },
        );
        let t0 = sim.now();
        run_op(
            &mut sim,
            &mut chain,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(1, 64),
                flush: true,
            },
        );
        let lat = sim.now().since(t0);
        // Three wake-ups (5us) + context switches + work: tens of us, well
        // above HyperLoop's ~12us but far below loaded tails.
        assert!(lat > SimDuration::from_micros(20), "{lat}");
        assert!(lat < SimDuration::from_micros(200), "{lat}");
    }
}
