//! End-to-end tracing tests over the full stack: a traced 3-replica durable
//! gWRITE must reconstruct into a per-stage breakdown whose stages exactly
//! tile the end-to-end latency, and same-seed traced runs must produce
//! byte-identical Chrome trace JSON.

use hyperloop::harness::{drive, fabric_sim, FabricSim};
use hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simtrace::{chrome_trace_json, op_breakdown, ops, span_tree};
use simcore::{SimDuration, SimTime, Simulation, Tracer};

const CLIENT: NodeId = NodeId(0);

/// Builds a traced 3-replica group and returns the sim, group and tracer.
fn traced_setup(seed: u64) -> (Simulation<FabricSim>, HyperLoopGroup, Tracer) {
    let mut sim = fabric_sim(4, 64 << 20, seed);
    let tracer = Tracer::enabled(1 << 16);
    sim.model.fab.set_tracer(tracer.clone());
    let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
    });
    group.client.set_tracer(tracer.clone());
    sim.run();
    tracer.clear(); // drop setup-time noise; measure the op alone
    (sim, group, tracer)
}

/// Issues one durable gWRITE and returns (gen, issue time, ack time).
fn run_traced_gwrite(
    sim: &mut Simulation<FabricSim>,
    group: &mut HyperLoopGroup,
    payload: usize,
) -> (u64, SimTime, SimTime) {
    let t_issue = sim.now();
    let gen = drive(sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 0,
                    data: Payload::filled(0xAB, payload),
                    flush: true,
                },
            )
            .expect("issue")
    });
    sim.run();
    let acks = drive(sim, |ctx| group.client.poll(ctx));
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].gen, gen);
    assert_eq!(sim.model.fab.stats().errors, 0);
    (gen, t_issue, sim.now())
}

#[test]
fn gwrite_breakdown_stages_tile_end_to_end_latency() {
    let (mut sim, mut group, tracer) = traced_setup(11);
    let (gen, t_issue, t_ack) = run_traced_gwrite(&mut sim, &mut group, 1024);

    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0, "ring must not overflow in this test");
    assert!(ops(&events).contains(&gen));

    let bd = op_breakdown(&events, gen).expect("breakdown for the op");
    // The trace brackets exactly the interval the host observed.
    assert_eq!(bd.start, t_issue, "first event is the issue");
    assert_eq!(bd.end, t_ack, "last event is the ack");
    // Stages partition [start, end]: their sum IS the end-to-end latency.
    let sum: SimDuration = bd
        .stages
        .iter()
        .fold(SimDuration::ZERO, |acc, s| acc + s.duration());
    assert_eq!(sum, bd.total());
    assert_eq!(sum, t_ack.since(t_issue));

    // The paper's pipeline is visible: metadata SEND, per-replica WAIT
    // release, DMA, gFLUSH, final ACK.
    for needle in ["meta_send", "wait_release", "dma", "gflush", "op_ack"] {
        assert!(
            bd.stages.iter().any(|s| s.label.starts_with(needle)),
            "missing stage {needle} in {:?}",
            bd.stages
                .iter()
                .map(|s| s.label.clone())
                .collect::<Vec<_>>()
        );
    }
    // All three replicas released a WAIT.
    for node in 1..=3u32 {
        assert!(
            bd.stages
                .iter()
                .any(|s| s.label == format!("wait_release@n{node}")),
            "replica {node} missing WAIT release"
        );
    }

    // The span tree groups stages by node under the op root.
    let tree = span_tree(&events, gen).expect("span tree");
    assert_eq!(tree.start, t_issue);
    assert_eq!(tree.end, t_ack);
    assert!(!tree.children.is_empty());

    // And the whole thing exports as Chrome trace JSON.
    let json = chrome_trace_json(&events);
    assert!(json.starts_with("{\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"X\""));
    assert!(json.contains("meta_send"));
    assert!(json.contains("gflush"));
}

/// One fully-traced run: a handful of pipelined durable gWRITEs.
fn traced_run(seed: u64) -> String {
    let (mut sim, mut group, tracer) = traced_setup(seed);
    for _ in 0..5 {
        run_traced_gwrite(&mut sim, &mut group, 512);
    }
    chrome_trace_json(&tracer.events())
}

#[test]
fn same_seed_runs_trace_byte_identically() {
    let a = traced_run(0xD5EED);
    let b = traced_run(0xD5EED);
    assert!(!a.is_empty());
    // Byte-identical, not merely equivalent: compare content hashes too so a
    // failure message stays small.
    let hash = |s: &str| -> u64 {
        // FNV-1a, enough to summarize equality in the assert message.
        s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100000001b3)
        })
    };
    assert_eq!(hash(&a), hash(&b), "same-seed traces diverged");
    assert_eq!(a, b);
}

#[test]
fn disabled_tracer_records_nothing() {
    let mut sim = fabric_sim(4, 64 << 20, 7);
    let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, CLIENT, &nodes, GroupConfig::default())
    });
    sim.run();
    run_traced_gwrite(&mut sim, &mut group, 256);
    let t = Tracer::disabled();
    assert!(!t.is_enabled());
    assert!(t.events().is_empty());
}
