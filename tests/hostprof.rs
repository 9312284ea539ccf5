//! hostprof end-to-end: the counting global allocator (installed by the
//! `hyperloop-bench` crate, which this binary links) feeds balanced
//! per-thread deltas. Allocation counts are deterministic, so the
//! allocation bounds of the steady-state gWRITE path, the trace folds, the
//! JSON writer and the replica maintenance process are pinned here too.

use hyperloop_bench::driver::PrimitiveDriver;
use hyperloop_bench::micro::{bench_group_config, gwrite_plan};
use hyperloop_bench::txnmix::{run_txnmix, TxnMixOpts};
use hyperloop_repro::cpusched::ProcKind;
use hyperloop_repro::hyperloop::apps::Maintainer;
use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::txn::CommitMode;
use hyperloop_repro::hyperloop::{GroupClient, GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::{FabricConfig, NodeId};
use hyperloop_repro::rnicsim::{NicConfig, Payload};
use hyperloop_repro::simcore::hostprof;
use hyperloop_repro::simcore::jsonw::JsonWriter;
use hyperloop_repro::simcore::{
    SimDuration, SimTime, StageAttribution, TailProfile, TraceEvent, TraceKind, Tracer,
    TxnAttribution,
};
use hyperloop_repro::testbed::{Cluster, ClusterConfig, Env, HostApp, HostEvent};
use std::cell::Cell;
use std::rc::Rc;

#[test]
fn counting_allocator_balances_and_counts_reallocs_once() {
    let before = hostprof::alloc_snapshot();
    {
        let mut v: Vec<u64> = Vec::new();
        for i in 0..4096 {
            v.push(i); // growth path: realloc, not an alloc+free pair
        }
        std::hint::black_box(&v);
    }
    let delta = hostprof::alloc_snapshot().since(&before);
    // The counting allocator IS installed here (unlike simcore's own unit
    // tests), so the balanced region must show real traffic.
    assert!(delta.allocs > 0, "counting allocator saw no allocations");
    assert!(delta.reallocs > 0, "vec growth should go through realloc");
    assert!(delta.alloc_bytes > 0);
    // Balance: everything allocated in the region was freed in the region,
    // and reallocs were counted once (old size retired, new size charged)
    // rather than as an extra alloc/free pair.
    assert_eq!(delta.allocs, delta.frees, "alloc/free imbalance");
    assert_eq!(
        delta.alloc_bytes, delta.freed_bytes,
        "byte imbalance — realloc double-counted?"
    );
}

#[test]
fn steady_state_gwrite_performs_zero_net_allocations_per_op() {
    let mut sim = fabric_sim(
        4,
        64 << 20,
        NicConfig::default(),
        FabricConfig::default(),
        42,
    );
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
    });
    sim.run();

    let mut acks = Vec::new();
    let mut cqes = Vec::new();
    let mut run_one = |sim: &mut _, group: &mut HyperLoopGroup, i: u64| {
        let data = Payload::filled((i & 0xFF) as u8, 1024);
        drive(sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: (i % 64) * 4096,
                        data,
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        acks.clear();
        let n = drive(sim, |ctx| group.client.poll_into(ctx, &mut acks));
        assert_eq!(n, 1, "op {i}: got {n} acks");
        // Off-critical-path maintenance, exactly the maintenance-app idiom:
        // drain the upstream recv CQ and replenish one descriptor chain per
        // consumed completion.
        drive(sim, |ctx| {
            for r in &mut group.replicas {
                cqes.clear();
                ctx.poll_cq_into(r.node(), r.recv_cq(), 64, &mut cqes);
                r.replenish(ctx, cqes.len() as u32);
            }
        });
        sim.run();
    };

    // Warm-up: payload/SGE slabs fill, timer-wheel slots and scratch
    // vectors reach their high-water capacity. The wheel conserves slot
    // buffers by swapping, so capacity keeps migrating between slots for a
    // while — several hundred ops before the last cold slot has grown.
    for i in 0..512u64 {
        run_one(&mut sim, &mut group, i);
    }

    // Steady state: the whole gWRITE fastpath — op construction, gather,
    // wire, chain forwarding, scatter, ack, poll — must recycle every
    // buffer it takes. Net heap growth over the region is zero, which is
    // only possible if each op's allocations are matched by frees.
    let before = hostprof::alloc_snapshot();
    let steady_ops = 256u64;
    for i in 64..64 + steady_ops {
        run_one(&mut sim, &mut group, i);
    }
    let delta = hostprof::alloc_snapshot().since(&before);

    assert_eq!(
        delta.allocs, delta.frees,
        "steady-state gWRITE leaked allocations: {} allocs vs {} frees over {steady_ops} ops",
        delta.allocs, delta.frees
    );
    // Byte traffic balances up to one deliberately growing piece of modeled
    // state: the client NIC's posted-write range list (its acks are never
    // gFLUSHed, and `nic_dirty_bytes` is an exported metric, so the ranges
    // must be kept). That is 16 bytes/op of amortized Vec growth — allow
    // its doubling realloc to land in the window, and nothing more.
    let net = delta.alloc_bytes.saturating_sub(delta.freed_bytes);
    assert!(
        net <= 64 * steady_ops,
        "steady-state gWRITE grew the heap beyond the modeled NIC-cache \
         range list: {} bytes in, {} bytes out (net {net}) over {steady_ops} ops",
        delta.alloc_bytes,
        delta.freed_bytes
    );
}

/// Heap calls (allocations plus in-place growths) made while `f` runs.
fn heap_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = hostprof::alloc_snapshot();
    let out = f();
    let delta = hostprof::alloc_snapshot().since(&before);
    (out, delta.allocs + delta.reallocs)
}

#[test]
fn op_breakdown_reads_the_trace_ring_in_place() {
    // A 100K-event ring (about 4.8 MB) holding one 4-event op among
    // traffic of other ops: the breakdown gathers that op's events and
    // allocates its stages, never a copy of the ring.
    let tracer = Tracer::enabled(1 << 20);
    for i in 0..100_000u64 {
        tracer.emit(
            SimTime::from_nanos(i),
            1,
            100 + i % 64,
            TraceKind::Dma { bytes: 8 },
        );
    }
    tracer.emit(SimTime::from_nanos(10), 0, 7, TraceKind::OpIssue);
    tracer.emit(
        SimTime::from_nanos(20),
        1,
        7,
        TraceKind::MetaSend { replica: 1 },
    );
    tracer.emit(SimTime::from_nanos(30), 2, 7, TraceKind::Dma { bytes: 64 });
    tracer.emit(SimTime::from_nanos(40), 0, 7, TraceKind::OpAck);
    let ring_bytes = (tracer.len() * std::mem::size_of::<TraceEvent>()) as u64;
    let before = hostprof::alloc_snapshot();
    let bd = tracer.op_breakdown(7).expect("op 7 was traced whole");
    let delta = hostprof::alloc_snapshot().since(&before);
    assert_eq!(bd.stages.len(), 3);
    assert!(
        delta.alloc_bytes < 4096,
        "op_breakdown allocated {} bytes over a {ring_bytes}-byte ring",
        delta.alloc_bytes
    );
}

#[test]
fn trace_folds_allocate_a_bounded_amount_per_folded_op() {
    // Large enough that the ≤ 16 exemplar span trees (report output, one
    // string per stage) amortize over the population.
    let res = run_txnmix(
        CommitMode::Locking,
        TxnMixOpts {
            txns: 256,
            theta: 0.99,
            trace: true,
            ..TxnMixOpts::default()
        },
    );
    let events = &res.run.trace.events;
    // The folds group the stream through one op index instead of copying
    // it into a Vec per op, fold stage kinds and txn phases by code, and
    // build strings only for report rows: a handful of heap calls per
    // folded op at most, whatever the stream's length.
    const PER_OP: u64 = 4;
    let (stages, calls) = heap_calls(|| StageAttribution::from_events(events));
    assert!(stages.ops > 100, "too few ops folded: {}", stages.ops);
    assert!(
        calls <= PER_OP * stages.ops,
        "StageAttribution: {calls} heap calls for {} ops",
        stages.ops
    );
    let (txns, calls) = heap_calls(|| TxnAttribution::from_events(events));
    assert!(txns.txns > 0);
    assert!(
        calls <= PER_OP * txns.txns,
        "TxnAttribution: {calls} heap calls for {} txns",
        txns.txns
    );
    let (tail, calls) = heap_calls(|| TailProfile::from_events(events));
    assert!(tail.tail_ops > 0);
    assert!(
        calls <= PER_OP * tail.ops,
        "TailProfile: {calls} heap calls for {} ops",
        tail.ops
    );
}

#[test]
fn json_writer_allocates_only_when_its_buffer_grows() {
    let (text, calls) = heap_calls(|| {
        let mut w = JsonWriter::new();
        w.begin_obj();
        for i in 0..10_000u64 {
            match i % 3 {
                0 => w.field_u64("n", i * 7_919),
                1 => w.field_i64("d", -(i as i64)),
                _ => w.field_f64("f", i as f64 / 3.0),
            }
        }
        w.end_obj();
        w.finish()
    });
    // The output string doubles as it grows, so it makes at most one heap
    // call per bit of its final length; the writer's nesting stack makes
    // two more (its first slot and one growth).
    let growths = (usize::BITS - text.len().leading_zeros()) as u64;
    assert!(
        calls <= growths + 2,
        "{calls} heap calls for {} bytes of numeric fields",
        text.len()
    );
}

/// Runs the repository's [`Maintainer`] and counts the heap calls its
/// wake-ups make once the first `warmup` wake-ups are behind it.
struct MeteredMaintainer {
    inner: Maintainer,
    warmup: u64,
    wakes: Rc<Cell<u64>>,
    steady_calls: Rc<Cell<u64>>,
}

impl HostApp for MeteredMaintainer {
    fn on_event(&mut self, env: &mut Env<'_>, event: HostEvent) {
        let ((), calls) = heap_calls(|| self.inner.on_event(env, event));
        self.wakes.set(self.wakes.get() + 1);
        if self.wakes.get() > self.warmup {
            self.steady_calls.set(self.steady_calls.get() + calls);
        }
    }
}

#[test]
fn maintainer_wakes_allocate_nothing_in_steady_state() {
    let client = NodeId(0);
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let mut cluster = Cluster::new(4, 16, 64 << 20, ClusterConfig::default());
    let group = cluster
        .setup_fabric(|ctx| HyperLoopGroup::setup(ctx, client, &replicas, bench_group_config(16)));
    let wakes = Rc::new(Cell::new(0));
    let steady_calls = Rc::new(Cell::new(0));
    for handle in group.replicas {
        let (node, cq) = (handle.node(), handle.recv_cq());
        let app = MeteredMaintainer {
            inner: Maintainer::new(handle),
            warmup: 300,
            wakes: Rc::clone(&wakes),
            steady_calls: Rc::clone(&steady_calls),
        };
        let proc = cluster.add_app(node, ProcKind::EventDriven, Box::new(app));
        cluster.bind_cq(proc, node, cq, SimDuration::from_nanos(400));
    }
    let ops = 2_000;
    let ack_cq = group.client.ack_cq();
    let driver = PrimitiveDriver::new(group.client, gwrite_plan(1024), ops, 16, 0);
    let p = cluster.add_app(client, ProcKind::Polling, Box::new(driver));
    cluster.bind_cq(p, client, ack_cq, SimDuration::from_nanos(300));
    let mut sim = cluster.into_sim();
    // The client polls, so the queue never drains: run in slices until
    // every op has completed.
    while !sim
        .model
        .app_mut::<PrimitiveDriver<GroupClient>>(p)
        .is_done()
    {
        assert!(sim.now() < SimTime::from_secs(10), "the run stalled");
        let next = sim.now() + SimDuration::from_millis(1);
        sim.run_until(next);
    }
    assert!(
        wakes.get() > 600,
        "too few maintenance wakes: {}",
        wakes.get()
    );
    assert_eq!(
        steady_calls.get(),
        0,
        "Maintainer::on_event allocated in steady state ({} wakes)",
        wakes.get()
    );
}
