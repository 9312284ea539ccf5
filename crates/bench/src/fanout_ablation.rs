//! Chain vs fan-out replication latency (paper §7: chain balances NIC load;
//! fan-out trades per-hop pipelining for primary-side parallelism).

use crate::run::{Arm, Outcome};
use hyperloop::fanout::FanoutGroup;
use hyperloop::harness::{drive, fabric_sim};
use hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::{Histogram, MetricsRegistry, SimTime};

/// Latency of durable 1 KB chain writes over `gs` replicas, one at a time
/// (health on shard 0).
pub fn chain_write_latency(gs: u32, ops: u64) -> Outcome {
    let arm = Arm::untapped();
    let mut sim = fabric_sim(gs + 1, 64 << 20, 41);
    let nodes: Vec<NodeId> = (1..=gs).map(NodeId).collect();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(
            ctx,
            NodeId(0),
            &nodes,
            GroupConfig {
                prepost_depth: 1024,
                ..GroupConfig::default()
            },
        )
    });
    sim.run();
    let health = &arm.health;
    let mut hist = Histogram::new();
    let t_first = sim.now();
    for i in 0..ops {
        let t0 = sim.now();
        health.record_issue(t0, 0);
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: (i % 16) * 4096,
                        data: Payload::filled(1, 1024),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));
        let lat = sim.now().since(t0);
        hist.record(lat);
        health.record_ack(sim.now(), 0, lat);
        health.tick(sim.now());
    }
    let elapsed = sim.now().since(t_first);
    arm.finish(&sim, ops, elapsed, &hist, MetricsRegistry::new())
}

/// Latency of durable 1 KB fan-out writes over a primary plus `gs - 1`
/// backups (same total copy count as the chain), one at a time.
pub fn fanout_write_latency(gs: u32, ops: u64) -> Outcome {
    let arm = Arm::untapped();
    let backups: Vec<NodeId> = (2..=gs).map(NodeId).collect();
    let mut sim = fabric_sim(gs + 1, 64 << 20, 43);
    let mut group = drive(&mut sim, |ctx| {
        FanoutGroup::setup(
            ctx,
            NodeId(0),
            NodeId(1),
            &backups,
            GroupConfig {
                prepost_depth: 256,
                ..GroupConfig::default()
            },
        )
    });
    sim.run();
    let health = &arm.health;
    let mut hist = Histogram::new();
    let t_first = sim.now();
    for i in 0..ops {
        let t0 = sim.now();
        health.record_issue(t0, 0);
        drive(&mut sim, |ctx| {
            group.client.write(ctx, (i % 16) * 4096, &[1; 1024], true)
        });
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));
        let lat = sim.now().since(t0);
        hist.record(lat);
        health.record_ack(sim.now(), 0, lat);
        health.tick(sim.now());
        if i % 128 == 0 {
            drive(&mut sim, |ctx| {
                group.primary.replenish(ctx, 128);
            });
        }
    }
    let elapsed = sim.now().since(t_first);
    arm.finish(&sim, ops, elapsed, &hist, MetricsRegistry::new())
}

/// Beyond the paper's figures: aggregate read bandwidth when three reader
/// clients fetch 8 KB objects from one replica versus from all of them —
/// the §5 claim that keeping replicas strongly consistent lets *every*
/// replica serve reads. Lock-free one-sided reads (the FaRM-style path the
/// paper also supports); the locked path is exercised by
/// `hyperloop::reads` tests. Health tracks each serving replica as a
/// shard; [`Outcome::ops_per_sec`] is the aggregate read rate.
pub fn read_scaling(serving_replicas: u32, total_reads: u64) -> Outcome {
    use rnicsim::{wqe_flags, Opcode, Wqe};
    let arm = Arm::untapped();

    // Nodes: 3 replicas (1..=3) + 3 reader clients (4..=6).
    let mut sim = fabric_sim(7, 64 << 20, 51);
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let readers = [NodeId(4), NodeId(5), NodeId(6)];
    // Symmetric data regions on the replicas.
    let mut data_base = 0;
    for &rn in &replicas {
        data_base = sim.model.fab.alloc(rn, 1 << 20);
        sim.model.fab.reg_mr(rn, data_base, 1 << 20);
        sim.model
            .fab
            .mem(rn)
            .write_durable(data_base, &[7; 8192])
            .unwrap();
    }
    // Each reader has a QP to every replica and a bounce buffer.
    let mut qps = [[rnicsim::QpId(0); 3]; 3];
    let mut cqs = [rnicsim::CqId(0); 3];
    let mut bufs = [0u64; 3];
    for (c, &cn) in readers.iter().enumerate() {
        let cq = sim.model.fab.create_cq(cn);
        cqs[c] = cq;
        bufs[c] = sim.model.fab.alloc(cn, 8192 * 16);
        for (r, &rn) in replicas.iter().enumerate() {
            let q = sim.model.fab.create_qp(cn, cq, cq);
            let rcq = sim.model.fab.create_cq(rn);
            let rq = sim.model.fab.create_qp(rn, rcq, rcq);
            sim.model.fab.connect(cn, q, rn, rq);
            qps[c][r] = q;
        }
    }

    let health = &arm.health;
    let mut hist = Histogram::new();
    let mut sent_at: Vec<SimTime> = vec![SimTime::ZERO; total_reads as usize];
    let t0 = sim.now();
    let mut done = 0u64;
    let mut next = 0u64;
    let mut outstanding = [0u64; 3];
    while done < total_reads {
        drive(&mut sim, |ctx| {
            for (c, slots) in outstanding.iter_mut().enumerate() {
                while *slots < 16 && next < total_reads {
                    let replica = (next % serving_replicas as u64) as usize;
                    ctx.post_send(
                        readers[c],
                        qps[c][replica],
                        Wqe {
                            opcode: Opcode::Read,
                            flags: wqe_flags::HW_OWNED | wqe_flags::SIGNALED,
                            local_addr: bufs[c] + (next % 16) * 8192,
                            len: 8192,
                            remote_addr: data_base,
                            wr_id: next,
                            ..Wqe::default()
                        },
                    );
                    sent_at[next as usize] = ctx.now;
                    health.record_issue(ctx.now, replica as u32);
                    next += 1;
                    *slots += 1;
                }
            }
        });
        sim.run();
        for (c, &cn) in readers.iter().enumerate() {
            let cqes = drive(&mut sim, |ctx| ctx.poll_cq(cn, cqs[c], 1024));
            outstanding[c] -= cqes.len() as u64;
            done += cqes.len() as u64;
            let now = sim.now();
            for cqe in cqes {
                let shard = (cqe.wr_id % serving_replicas as u64) as u32;
                let lat = now.since(sent_at[cqe.wr_id as usize]);
                hist.record(lat);
                health.record_ack(now, shard, lat);
            }
        }
        health.tick(sim.now());
    }
    assert_eq!(sim.model.fab.stats().errors, 0);
    let elapsed = sim.now().since(t0);
    arm.finish(&sim, total_reads, elapsed, &hist, MetricsRegistry::new())
}
