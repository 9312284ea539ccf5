//! Quickstart: wire a HyperLoop group and run the four primitives.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{ExecuteMap, GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;

fn main() {
    // A client machine plus three replica machines on a 56 Gbps fabric.
    let mut sim = fabric_sim(4, 64 << 20, 42);
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &replicas, GroupConfig::default())
    });
    sim.run();
    println!("chain wired: client -> node1 -> node2 -> node3 -> client");

    // gWRITE + gFLUSH: replicate 'hello' durably to every replica.
    let t0 = sim.now();
    drive(&mut sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 0,
                    data: Payload::copy_from(b"hello, replicated world"),
                    flush: true,
                },
            )
            .expect("issue gWRITE")
    });
    sim.run();
    let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
    println!(
        "gWRITE acked (gen {}) in {} — no replica CPU involved",
        acks[0].gen,
        sim.now().since(t0)
    );
    let base = group.client.layout().shared_base;
    for &n in &replicas {
        let bytes = sim.model.fab.mem(n).read_vec(base, 23).unwrap();
        let durable = sim.model.fab.mem(n).is_durable(base, 23).unwrap();
        println!(
            "  {n}: {:?} (durable: {durable})",
            String::from_utf8_lossy(&bytes)
        );
    }

    // gCAS: take a group lock; the ack carries every replica's original.
    drive(&mut sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Cas {
                    offset: 1024,
                    compare: 0,
                    swap: 77,
                    execute: ExecuteMap::all(3),
                },
            )
            .expect("issue gCAS")
    });
    sim.run();
    let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
    println!(
        "gCAS result map {:?} -> lock acquired group-wide: {}",
        acks[0].result_map,
        acks[0].cas_succeeded(0, ExecuteMap::all(3))
    );

    // gMEMCPY: every replica's NIC copies log bytes into its database.
    drive(&mut sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Memcpy {
                    src: 0,
                    dst: 1 << 20,
                    len: 23,
                    flush: true,
                },
            )
            .expect("issue gMEMCPY")
    });
    sim.run();
    drive(&mut sim, |ctx| group.client.poll(ctx));
    let copied = sim
        .model
        .fab
        .mem(NodeId(2))
        .read_vec(base + (1 << 20), 23)
        .unwrap();
    println!(
        "gMEMCPY applied on node2: {:?}",
        String::from_utf8_lossy(&copied)
    );
    println!("total simulated time: {}", sim.now());
}
