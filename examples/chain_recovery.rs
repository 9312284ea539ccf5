//! Failure handling (paper §5): heartbeats detect a dead replica, the chain
//! re-forms on a fresh node, catch-up copies the state, and writes resume.
//!
//! ```text
//! cargo run --example chain_recovery
//! ```

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::membership::{
    plan_rejoin, ChainView, HeartbeatConfig, HeartbeatMonitor,
};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;

fn main() {
    // Five machines: client, three chain members, one standby.
    let mut sim = fabric_sim(5, 64 << 20, 3);
    let members = vec![NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &members, GroupConfig::default())
    });
    sim.run();
    let base = group.client.layout().shared_base;

    // Write some state through the healthy chain.
    for i in 0..5u64 {
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: i * 64,
                        data: Payload::filled(i as u8 + 1, 64),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        drive(&mut sim, |ctx| group.client.poll(ctx));
    }
    println!("5 writes committed on the healthy chain");

    // Heartbeats: node2 goes silent.
    let mut view = ChainView::new(members);
    let mut monitor = HeartbeatMonitor::new(&view, HeartbeatConfig::default(), sim.now());
    let t = sim.now() + hyperloop_repro::simcore::SimDuration::from_millis(50);
    monitor.beat(NodeId(1), t);
    monitor.beat(NodeId(3), t);
    let suspects = monitor.suspected(t);
    println!("failure detector suspects {suspects:?}");
    assert_eq!(suspects, vec![NodeId(2)]);
    view.remove(NodeId(2));
    monitor.sync_view(&view, t);
    println!(
        "membership epoch now {} with {:?}",
        view.epoch(),
        view.members()
    );

    // Plan the rejoin of the standby node 4.
    let plan = plan_rejoin(&view, NodeId(1), NodeId(4), 5 * 64);
    for step in &plan {
        println!("recovery step: {step:?}");
    }

    // Rebuild the data path over the new membership. The standby's
    // allocator is aligned with the survivors so the new group's layout is
    // symmetric (fresh regions; survivors' old regions are retired).
    let cursor = sim.model.fab.alloc_cursor(NodeId(1));
    sim.model.fab.align_allocator(NodeId(4), cursor);
    view.add_tail(NodeId(4));
    monitor.sync_view(&view, t);
    let mut group2 = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), view.members(), GroupConfig::default())
    });
    sim.run();
    let base2 = group2.client.layout().shared_base;

    // Catch-up copy (control path, host-driven): a survivor's state seeds
    // every member's new region.
    let state = sim.model.fab.mem(NodeId(1)).read_vec(base, 5 * 64).unwrap();
    for &n in view.members() {
        sim.model.fab.mem(n).write_durable(base2, &state).unwrap();
    }
    println!("catch-up copied {} bytes to the new chain", state.len());

    // Resume writes on the repaired chain.
    drive(&mut sim, |ctx| {
        group2
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 5 * 64,
                    data: Payload::filled(6, 64),
                    flush: true,
                },
            )
            .unwrap()
    });
    sim.run();
    let acks = drive(&mut sim, |ctx| group2.client.poll(ctx));
    println!(
        "write committed on the repaired chain (epoch {}, gen {})",
        view.epoch(),
        acks[0].gen
    );
    let recovered = sim.model.fab.mem(NodeId(4)).read_vec(base2, 64).unwrap();
    assert_eq!(recovered, vec![1; 64], "standby carries caught-up state");
    let new_write = sim
        .model
        .fab
        .mem(NodeId(4))
        .read_vec(base2 + 5 * 64, 64)
        .unwrap();
    assert_eq!(new_write, vec![6; 64]);
    println!("standby node4 serves caught-up state and new writes — recovery complete");
}
