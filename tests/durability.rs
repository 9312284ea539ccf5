//! Durability invariants across the whole stack: an acknowledged flushed
//! write survives a power failure on every replica; recovery reconstructs
//! exactly the acknowledged prefix.

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::kvstore::{KvConfig, ReplicatedKv};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;
use hyperloop_repro::simcore::SimRng;

#[test]
fn acked_flushed_writes_survive_any_single_power_failure() {
    let mut sim = fabric_sim(4, 64 << 20, 99);
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
    });
    sim.run();
    let base = group.client.layout().shared_base;

    let mut rng = SimRng::new(5);
    let mut acked: Vec<(u64, Vec<u8>)> = Vec::new();
    for i in 0..40u64 {
        let offset = (i % 16) * 4096;
        let data = vec![(rng.next_u64() & 0xFF) as u8; 256];
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset,
                        data: Payload::copy_from(&data),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        assert_eq!(acks.len(), 1);
        acked.retain(|(o, _)| *o != offset);
        acked.push((offset, data));
    }

    // Fail each replica in turn; every acked write must read back durably.
    for &n in &nodes {
        sim.model.fab.mem(n).power_failure();
        for (offset, data) in &acked {
            let got = sim
                .model
                .fab
                .mem(n)
                .read_vec(base + offset, data.len() as u64)
                .unwrap();
            assert_eq!(&got, data, "lost acked write at {offset} on {n}");
        }
    }
}

#[test]
fn kvstore_recovery_is_exactly_the_acked_prefix() {
    let mut sim = fabric_sim(3, 64 << 20, 17);
    let nodes = [NodeId(1), NodeId(2)];
    let group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
    });
    sim.run();
    let base = group.client.layout().shared_base;
    let mut kv = ReplicatedKv::new(group.client, KvConfig::default());

    // Ack 20 writes; then issue 3 more and crash BEFORE their acks return.
    for i in 0..20u64 {
        drive(&mut sim, |ctx| {
            kv.put(ctx, i % 8, vec![i as u8 + 1; 100]).unwrap()
        });
        sim.run();
        drive(&mut sim, |ctx| kv.poll(ctx));
    }
    drive(&mut sim, |ctx| {
        for i in 20..23u64 {
            kv.put(ctx, i % 8, vec![i as u8 + 1; 100]).unwrap();
        }
    });
    // Crash now, mid-flight (no sim.run: nothing has propagated yet).
    sim.model.fab.mem(NodeId(2)).power_failure();

    let state = drive(&mut sim, |ctx| kv.recover_state(ctx.fab, NodeId(2), base));
    // All acked writes present; in-flight ones may be absent but nothing
    // else may appear.
    for i in 0..20u64 {
        let k = i % 8;
        let v = state.get(&k).unwrap_or_else(|| panic!("key {k} missing"));
        // The last acked write for key k is from some i' >= i with i'%8==k.
        assert_eq!(v.len(), 100);
    }
    for (k, v) in &state {
        assert!(*k < 8, "phantom key {k}");
        assert_eq!(v.len(), 100, "phantom value shape for {k}");
    }
}
