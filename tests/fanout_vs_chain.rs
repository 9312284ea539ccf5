//! The §7 extension agrees with the chain: the same writes through
//! NIC-coordinated fan-out and through chain replication produce the same
//! replicated bytes, durably.

use hyperloop_repro::hyperloop::fanout::FanoutGroup;
use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;
use hyperloop_repro::simcore::SimRng;

fn writes(seed: u64, n: u64) -> Vec<(u64, Vec<u8>)> {
    let mut rng = SimRng::new(seed);
    (0..n)
        .map(|i| {
            (
                (i % 16) * 8192,
                vec![(rng.next_u64() & 0xFF) as u8; rng.gen_range(1..2048) as usize],
            )
        })
        .collect()
}

#[test]
fn fanout_and_chain_converge_to_identical_state() {
    let ws = writes(0xFA, 48);

    // Chain arm: client 0, chain 1-2-3.
    let chain_img = {
        let mut sim = fabric_sim(4, 64 << 20, 1);
        let nodes = [NodeId(1), NodeId(2), NodeId(3)];
        let mut group = drive(&mut sim, |ctx| {
            HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
        });
        sim.run();
        let base = group.client.layout().shared_base;
        for (off, data) in &ws {
            drive(&mut sim, |ctx| {
                group
                    .client
                    .issue(
                        ctx,
                        GroupOp::Write {
                            offset: *off,
                            data: Payload::copy_from(data),
                            flush: true,
                        },
                    )
                    .unwrap()
            });
            sim.run();
            drive(&mut sim, |ctx| group.client.poll(ctx));
        }
        sim.model.fab.mem(NodeId(3)).power_failure(); // durable view only
        sim.model
            .fab
            .mem(NodeId(3))
            .read_durable_vec(base, 256 * 1024)
            .unwrap()
    };

    // Fan-out arm: client 0, primary 1, backups 2-3-4.
    let fanout_img = {
        let mut sim = fabric_sim(5, 64 << 20, 2);
        let backups = [NodeId(2), NodeId(3), NodeId(4)];
        let mut group = drive(&mut sim, |ctx| {
            FanoutGroup::setup(ctx, NodeId(0), NodeId(1), &backups, GroupConfig::default())
        });
        sim.run();
        let mut done = 0usize;
        for (off, data) in &ws {
            drive(&mut sim, |ctx| group.client.write(ctx, *off, data, true));
            sim.run();
            done += drive(&mut sim, |ctx| group.client.poll(ctx)).len();
        }
        assert_eq!(done, ws.len());
        sim.model.fab.mem(NodeId(4)).power_failure();
        let base = {
            // Fan-out shared regions start at the same symmetric offset 0
            // on fresh nodes.
            0
        };
        sim.model
            .fab
            .mem(NodeId(4))
            .read_durable_vec(base, 256 * 1024)
            .unwrap()
    };

    assert_eq!(chain_img, fanout_img, "fan-out and chain diverged");
}
