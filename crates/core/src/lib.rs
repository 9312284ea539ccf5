//! # hyperloop — group-based NIC offloading for replicated transactions
//!
//! A reproduction of the core contribution of *HyperLoop: Group-Based
//! NIC-Offloading to Accelerate Replicated Transactions in Multi-Tenant
//! Storage Systems* (SIGCOMM 2018), on a simulated RDMA/NVM substrate.
//!
//! The paper's four primitives (Table 1) are provided over a chain of
//! replicas whose CPUs never touch the data path:
//!
//! * **gWRITE** — replicate bytes at the same offset on every replica;
//! * **gCAS** — compare-and-swap a word on selected replicas, with an
//!   execute map and a result map (the building block for group locks);
//! * **gMEMCPY** — every replica copies log bytes into its database region
//!   locally ("remote log processing");
//! * **gFLUSH** — push every replica's volatile NIC cache to durable NVM,
//!   standalone or interleaved with the other primitives.
//!
//! Mechanically, each replica pre-posts chains of `WAIT` +
//! indirect-descriptor WQEs ([`ReplicaHandle::replenish`]); the client
//! rewrites the descriptor images each operation via an ordinary metadata
//! SEND ([`GroupClient::issue`]) and the NICs do the rest (see
//! [`meta`] for the exact image layout, [`group`] for the wiring).
//!
//! Higher layers:
//!
//! * [`lock`] — group write locks and per-replica read locks over gCAS;
//! * [`wal`] — `append` / `execute_and_advance`, the replicated write-ahead
//!   log API the storage case studies build on (paper §5);
//! * [`apps`] — `testbed` adapters: the replica maintenance process;
//! * [`reads`] — lock-protected one-sided replica reads (every replica can
//!   serve consistent reads);
//! * [`fanout`] — the §7 extension: primary-coordinated fan-out replication;
//! * [`shard`] — many groups behind one key router ([`ShardSet`]): the
//!   multi-chain scale-out layer the storage case studies shard over;
//! * [`membership`] — heartbeat failure detection and chain repair hooks;
//! * [`migrate`] — live shard migration: epoch-numbered plans over
//!   [`membership::RecoveryStep`] and a driver that moves a running shard
//!   to a new chain without losing acknowledged writes;
//! * [`txn`] — multi-key transactions spanning shards ([`TxnManager`]):
//!   locking (paper §5) and optimistic (validate-then-commit) commit
//!   paths behind one API, audited online by `simaudit`'s txn auditor.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod config;
pub mod fanout;
pub mod group;
pub mod harness;
pub mod lock;
pub mod membership;
pub mod meta;
pub mod migrate;
pub mod ops;
pub mod reads;
pub mod shard;
pub mod transport;
pub mod txn;
pub mod wal;

pub use config::{GroupConfig, SharedLayout};
pub use group::{GroupClient, GroupError, HyperLoopGroup, ReplicaHandle};
pub use lock::{LockBackoff, LockTable, WrUndo, WRITER_BIT};
pub use migrate::{
    migrate_shard, plan_migration, MigrationHost, MigrationOutcome, MigrationPlan, MigrationRun,
};
pub use ops::{ExecuteMap, GroupAck, GroupOp};
pub use shard::{HashRouter, MigrationStats, ShardAck, ShardId, ShardSet, DEFAULT_PEN_CAPACITY};
pub use transport::GroupTransport;
pub use txn::{CommitMode, Txn, TxnLayout, TxnManager, TxnOutcome, TxnSite, TxnTransports};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{drive, fabric_sim};
    use netsim::NodeId;
    use rnicsim::Payload;
    use simcore::{SimDuration, Simulation};

    const CLIENT: NodeId = NodeId(0);

    fn setup(replicas: u32) -> (Simulation<harness::FabricSim>, HyperLoopGroup, Vec<NodeId>) {
        let mut sim = fabric_sim(replicas + 1, 64 << 20, 11);
        let nodes: Vec<NodeId> = (1..=replicas).map(NodeId).collect();
        let group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
        });
        sim.run(); // drain setup-time events
        (sim, group, nodes)
    }

    /// Issues one op and runs the chain to completion, returning the ack.
    fn run_op(
        sim: &mut Simulation<harness::FabricSim>,
        group: &mut HyperLoopGroup,
        op: GroupOp,
    ) -> GroupAck {
        let gen = drive(sim, |ctx| group.client.issue(ctx, op).expect("issue"));
        sim.run();
        let acks = drive(sim, |ctx| group.client.poll(ctx));
        assert_eq!(acks.len(), 1, "expected exactly one ack");
        assert_eq!(acks[0].gen, gen);
        assert_eq!(sim.model.fab.stats().errors, 0, "data path raised errors");
        acks.into_iter().next().expect("one ack")
    }

    #[test]
    fn gwrite_replicates_to_all_and_is_durable() {
        let (mut sim, mut group, nodes) = setup(3);
        let layout = *group.client.layout();
        let data = b"replicate me".to_vec();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 1000,
                data: Payload::copy_from(&data),
                flush: true,
            },
        );
        for &n in &nodes {
            let addr = layout.shared_base + 1000;
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(addr, data.len() as u64)
                    .unwrap(),
                data,
                "replica {n} missing the data"
            );
            assert!(
                sim.model
                    .fab
                    .mem(n)
                    .is_durable(addr, data.len() as u64)
                    .unwrap(),
                "replica {n} data not durable"
            );
        }
        // Client mirror updated too.
        assert_eq!(
            sim.model
                .fab
                .mem(CLIENT)
                .read_vec(group.client.mirror_base() + 1000, data.len() as u64)
                .unwrap(),
            data
        );
    }

    #[test]
    fn gwrite_without_flush_is_volatile_at_replicas() {
        let (mut sim, mut group, nodes) = setup(2);
        let layout = *group.client.layout();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(7, 64),
                flush: false,
            },
        );
        for &n in &nodes {
            assert!(
                !sim.model
                    .fab
                    .mem(n)
                    .is_durable(layout.shared_base, 64)
                    .unwrap(),
                "unflushed write should still be in the NIC cache on {n}"
            );
        }
        // A standalone gFLUSH makes it durable everywhere.
        run_op(&mut sim, &mut group, GroupOp::Flush { offset: 0 });
        for &n in &nodes {
            assert!(sim
                .model
                .fab
                .mem(n)
                .is_durable(layout.shared_base, 64)
                .unwrap());
        }
    }

    #[test]
    fn gwrite_latency_is_microseconds_per_hop() {
        let (mut sim, mut group, _nodes) = setup(3);
        let t0 = sim.now();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(1, 1024),
                flush: true,
            },
        );
        let elapsed = sim.now().since(t0);
        assert!(
            elapsed < SimDuration::from_micros(60),
            "chain of 3 should complete in tens of microseconds: {elapsed}"
        );
        assert!(
            elapsed > SimDuration::from_micros(5),
            "suspiciously fast: {elapsed}"
        );
    }

    #[test]
    fn gcas_swaps_everywhere_and_reports_originals() {
        let (mut sim, mut group, nodes) = setup(3);
        let layout = *group.client.layout();
        // All lock words start at zero; acquire with owner id 42.
        let ack = run_op(
            &mut sim,
            &mut group,
            GroupOp::Cas {
                offset: 512,
                compare: 0,
                swap: 42,
                execute: ExecuteMap::all(3),
            },
        );
        assert_eq!(ack.result_map, vec![0, 0, 0], "all originals were zero");
        assert!(ack.cas_succeeded(0, ExecuteMap::all(3)));
        for &n in &nodes {
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(layout.shared_base + 512, 8)
                    .unwrap(),
                42u64.to_le_bytes()
            );
        }
        // Second acquisition fails and reports the holder.
        let ack2 = run_op(
            &mut sim,
            &mut group,
            GroupOp::Cas {
                offset: 512,
                compare: 0,
                swap: 99,
                execute: ExecuteMap::all(3),
            },
        );
        assert_eq!(ack2.result_map, vec![42, 42, 42]);
        assert!(!ack2.cas_succeeded(0, ExecuteMap::all(3)));
    }

    #[test]
    fn gcas_execute_map_skips_replicas() {
        let (mut sim, mut group, nodes) = setup(3);
        let layout = *group.client.layout();
        let exec = ExecuteMap::none().with(1);
        let ack = run_op(
            &mut sim,
            &mut group,
            GroupOp::Cas {
                offset: 0,
                compare: 0,
                swap: 7,
                execute: exec,
            },
        );
        assert!(ack.cas_succeeded(0, exec));
        let vals: Vec<u64> = nodes
            .iter()
            .map(|&n| {
                u64::from_le_bytes(
                    sim.model
                        .fab
                        .mem(n)
                        .read_vec(layout.shared_base, 8)
                        .unwrap()
                        .try_into()
                        .unwrap(),
                )
            })
            .collect();
        assert_eq!(vals, vec![0, 7, 0], "only replica 1 executed");
    }

    #[test]
    fn gmemcpy_copies_log_to_db_on_every_replica() {
        let (mut sim, mut group, nodes) = setup(3);
        let layout = *group.client.layout();
        // First replicate some "log" bytes at offset 0.
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 0,
                data: Payload::copy_from(b"logrecord"),
                flush: true,
            },
        );
        // Then ask every NIC to copy them to the "database" at 64 KiB.
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Memcpy {
                src: 0,
                dst: 64 * 1024,
                len: 9,
                flush: true,
            },
        );
        for &n in &nodes {
            let addr = layout.shared_base + 64 * 1024;
            assert_eq!(
                sim.model.fab.mem(n).read_vec(addr, 9).unwrap(),
                b"logrecord",
                "replica {n} did not apply the copy"
            );
            assert!(sim.model.fab.mem(n).is_durable(addr, 9).unwrap());
        }
        // Client mirror matches.
        assert_eq!(
            sim.model
                .fab
                .mem(CLIENT)
                .read_vec(group.client.mirror_base() + 64 * 1024, 9)
                .unwrap(),
            b"logrecord"
        );
    }

    #[test]
    fn pipelined_window_of_ops_completes_in_order() {
        let (mut sim, mut group, nodes) = setup(3);
        let layout = *group.client.layout();
        let n_ops = 16u64;
        let mut issued = Vec::new();
        drive(&mut sim, |ctx| {
            for i in 0..n_ops {
                let gen = group
                    .client
                    .issue(
                        ctx,
                        GroupOp::Write {
                            offset: i * 256,
                            data: Payload::filled(i as u8 + 1, 256),
                            flush: true,
                        },
                    )
                    .expect("window has room");
                issued.push(gen);
            }
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        assert_eq!(acks.len(), n_ops as usize);
        let order: Vec<u64> = acks.iter().map(|a| a.gen).collect();
        assert_eq!(order, issued, "acks in issue order");
        for i in 0..n_ops {
            for &n in &nodes {
                let addr = layout.shared_base + i * 256;
                assert_eq!(
                    sim.model.fab.mem(n).read_vec(addr, 256).unwrap(),
                    vec![i as u8 + 1; 256]
                );
            }
        }
    }

    #[test]
    fn window_full_is_reported() {
        let (mut sim, mut group, _) = setup(2);
        drive(&mut sim, |ctx| {
            for i in 0..16 {
                group
                    .client
                    .issue(
                        ctx,
                        GroupOp::Write {
                            offset: i * 8,
                            data: Payload::filled(1, 8),
                            flush: false,
                        },
                    )
                    .expect("within window");
            }
            let err = group
                .client
                .issue(ctx, GroupOp::Flush { offset: 0 })
                .unwrap_err();
            assert_eq!(err, GroupError::WindowFull);
        });
    }

    #[test]
    fn out_of_range_rejected() {
        let (mut sim, mut group, _) = setup(2);
        drive(&mut sim, |ctx| {
            let size = group.client.layout().shared_size;
            let err = group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: size - 4,
                        data: Payload::filled(0, 8),
                        flush: false,
                    },
                )
                .unwrap_err();
            assert_eq!(err, GroupError::OutOfRange);
        });
    }

    #[test]
    fn replenish_sustains_long_runs() {
        let (mut sim, mut group, _) = setup(2);
        // 400 ops > prepost_depth (128): replenish as a maintenance loop
        // would (here driven directly, CPU-less).
        let total = 400u64;
        let mut done = 0u64;
        while done < total {
            while group.client.can_issue()
                && group.client.completed() + group.client.in_flight() < total
            {
                drive(&mut sim, |ctx| {
                    group
                        .client
                        .issue(
                            ctx,
                            GroupOp::Write {
                                offset: 0,
                                data: Payload::filled(9, 64),
                                flush: true,
                            },
                        )
                        .expect("window checked")
                });
            }
            sim.run();
            let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
            done += acks.len() as u64;
            // Maintenance: keep each replica topped up.
            let completed = group.client.completed();
            drive(&mut sim, |ctx| {
                for r in &mut group.replicas {
                    let target = completed + 128;
                    if target > r.preposted() {
                        let deficit = (target - r.preposted()) as u32;
                        r.replenish(ctx, deficit);
                    }
                }
            });
            sim.run();
        }
        assert_eq!(done, total);
        assert_eq!(sim.model.fab.stats().errors, 0);
    }

    #[test]
    fn single_replica_group_works() {
        let (mut sim, mut group, nodes) = setup(1);
        let layout = *group.client.layout();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 128,
                data: Payload::filled(3, 32),
                flush: true,
            },
        );
        assert!(sim
            .model
            .fab
            .mem(nodes[0])
            .is_durable(layout.shared_base + 128, 32)
            .unwrap());
    }

    #[test]
    fn seven_replica_chain_works() {
        let (mut sim, mut group, nodes) = setup(7);
        let layout = *group.client.layout();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(5, 512),
                flush: true,
            },
        );
        for &n in &nodes {
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(layout.shared_base, 512)
                    .unwrap(),
                vec![5; 512]
            );
        }
    }

    #[test]
    fn unflushed_gwrite_lost_on_power_failure_flushed_survives() {
        let (mut sim, mut group, nodes) = setup(2);
        let layout = *group.client.layout();
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 0,
                data: Payload::filled(1, 32),
                flush: true,
            },
        );
        run_op(
            &mut sim,
            &mut group,
            GroupOp::Write {
                offset: 64,
                data: Payload::filled(2, 32),
                flush: false,
            },
        );
        for &n in &nodes {
            sim.model.fab.mem(n).power_failure();
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(layout.shared_base, 32)
                    .unwrap(),
                vec![1; 32],
                "flushed write must survive on {n}"
            );
            assert_eq!(
                sim.model
                    .fab
                    .mem(n)
                    .read_vec(layout.shared_base + 64, 32)
                    .unwrap(),
                vec![0; 32],
                "unflushed write must be lost on {n}"
            );
        }
    }
}
