//! A replicated persistent KV store (the RocksDB case study): puts through
//! the NIC-offloaded WAL, checkpointing, a power failure, and recovery.
//!
//! ```text
//! cargo run --example replicated_kvstore
//! ```

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, HyperLoopGroup};
use hyperloop_repro::kvstore::{KvConfig, ReplicatedKv};
use hyperloop_repro::netsim::NodeId;

fn main() {
    let mut sim = fabric_sim(4, 64 << 20, 7);
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &replicas, GroupConfig::default())
    });
    sim.run();
    let shared_base = group.client.layout().shared_base;
    let mut kv = ReplicatedKv::new(group.client, KvConfig::default());

    // Write a handful of keys; each put is one durable replicated append.
    for (k, v) in [(1u64, "alpha"), (2, "beta"), (3, "gamma")] {
        drive(&mut sim, |ctx| {
            kv.put(ctx, k, v.as_bytes().to_vec()).unwrap()
        });
        sim.run();
        let done = drive(&mut sim, |ctx| kv.poll(ctx));
        println!("put key {k} = {v:?} -> durable on all replicas ({done:?})");
    }

    // Checkpoint: every replica's NIC copies log records into the database
    // region (gMEMCPY) — the periodic dump, off the critical path.
    drive(&mut sim, |ctx| {
        let n = kv.checkpoint(ctx, 16);
        println!("checkpointed {n} records");
    });
    sim.run();
    drive(&mut sim, |ctx| kv.poll(ctx));

    // One more write that stays log-only...
    drive(&mut sim, |ctx| {
        kv.put(ctx, 9, b"log-only".to_vec()).unwrap()
    });
    sim.run();
    drive(&mut sim, |ctx| kv.poll(ctx));

    // ...then node2 loses power. Recovery = durable DB + WAL replay.
    sim.model.fab.mem(NodeId(2)).power_failure();
    println!("node2 power failure!");
    let state = drive(&mut sim, |ctx| {
        kv.recover_state(ctx.fab, NodeId(2), shared_base)
    });
    println!("recovered {} keys from node2's durable bytes:", state.len());
    for (k, v) in &state {
        println!("  key {k} = {:?}", String::from_utf8_lossy(v));
    }
    assert_eq!(state.len(), 4, "all acked writes must survive");
}
