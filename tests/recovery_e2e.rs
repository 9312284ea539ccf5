//! End-to-end recovery: a replica dies mid-service, the failure detector
//! fires, the chain re-forms on a standby, state catches up, and the store
//! keeps serving — with all pre-failure data intact.

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::membership::{ChainView, HeartbeatConfig, HeartbeatMonitor};
use hyperloop_repro::hyperloop::{GroupConfig, HyperLoopGroup};
use hyperloop_repro::kvstore::{KvConfig, ReplicatedKv};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::simcore::{SimDuration, SimTime};

#[test]
fn chain_repairs_and_state_survives() {
    // Client 0, chain 1-2-3, standby 4.
    let mut sim = fabric_sim(5, 128 << 20, 61);
    let members = vec![NodeId(1), NodeId(2), NodeId(3)];
    let group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &members, GroupConfig::default())
    });
    sim.run();
    let base1 = group.client.layout().shared_base;
    let mut kv = ReplicatedKv::new(group.client, KvConfig::default());

    for i in 0..30u64 {
        drive(&mut sim, |ctx| {
            kv.put(ctx, i % 10, vec![i as u8 + 1; 64]).unwrap()
        });
        sim.run();
        assert_eq!(drive(&mut sim, |ctx| kv.poll(ctx)).len(), 1);
    }

    // Node 3 goes dark; the detector notices.
    let mut view = ChainView::new(members);
    let mut mon = HeartbeatMonitor::new(&view, HeartbeatConfig::default(), sim.now());
    let later = sim.now() + SimDuration::from_millis(40);
    mon.beat(NodeId(1), later);
    mon.beat(NodeId(2), later);
    assert_eq!(mon.suspected(later), vec![NodeId(3)]);
    assert!(view.remove(NodeId(3)));
    mon.sync_view(&view, later);
    assert_eq!(mon.tracked(), 2);

    // Rebuild on [1, 2, 4]: align the standby allocator, wire a new group,
    // catch up from a survivor.
    let cursor = sim.model.fab.alloc_cursor(NodeId(1));
    sim.model.fab.align_allocator(NodeId(4), cursor);
    view.add_tail(NodeId(4));
    mon.sync_view(&view, later);
    assert_eq!(mon.tracked(), 3);

    // Beat through the remove+add_tail cycle: the monitor is keyed by
    // NodeId, so the position shift from removing node 3 cannot
    // mis-attribute a beat, and a straggler beat from the dead node is
    // dropped rather than landing on whoever inherited its position.
    let mut t = later;
    for _ in 0..5 {
        t += SimDuration::from_millis(10);
        mon.beat(NodeId(3), t); // straggler from the removed member
        for &n in view.members() {
            mon.beat(n, t);
        }
        assert!(
            mon.suspected(t).is_empty(),
            "steady beats must keep the repaired chain green"
        );
    }
    // Silence after the cycle still trips the detector for every member.
    let silent = t + SimDuration::from_millis(31);
    assert_eq!(
        mon.suspected(silent),
        vec![NodeId(1), NodeId(2), NodeId(4)],
        "the repaired membership is what the detector watches"
    );
    let group2 = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), view.members(), GroupConfig::default())
    });
    sim.run();
    let base2 = group2.client.layout().shared_base;
    let snapshot = sim
        .model
        .fab
        .mem(NodeId(1))
        .read_vec(base1, 4 << 20)
        .unwrap();
    for &n in view.members() {
        sim.model
            .fab
            .mem(n)
            .write_durable(base2, &snapshot)
            .unwrap();
    }
    // Resume the store over the new group: its logical state (memtable +
    // ring cursors) carries over; only the transport is replaced.
    let old = std::mem::replace(&mut kv.transport, group2.client);
    drop(old);

    for i in 30..45u64 {
        drive(&mut sim, |ctx| {
            kv.put(ctx, i % 10, vec![i as u8 + 1; 64]).unwrap()
        });
        sim.run();
        assert_eq!(
            drive(&mut sim, |ctx| kv.poll(ctx)).len(),
            1,
            "write {i} failed on the repaired chain"
        );
    }

    // The standby's recovered state matches the primary view for every key.
    let state = drive(&mut sim, |ctx| kv.recover_state(ctx.fab, NodeId(4), base2));
    assert_eq!(state.len(), 10);
    for (k, v) in state {
        assert_eq!(
            kv.get(k),
            Some(v.as_slice()),
            "key {k} diverged after repair"
        );
    }
    assert_eq!(sim.model.fab.stats().errors, 0);
    assert!(sim.queue.now().since(SimTime::ZERO) > SimDuration::ZERO);
}
