//! Acceptance tests for the `simprof` critical-path profiler over the full
//! stack: a traced 3-replica durable-gWRITE run must produce a stage
//! attribution whose per-stage means tile the mean end-to-end latency to
//! within 1 ns over the same op set, and same-seed runs must emit
//! byte-identical folded-stack and counter-track artifacts.

use hyperloop::harness::{drive, fabric_sim, FabricSim};
use hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simprof::{chrome_trace_with_counters, folded_stacks, CounterSampler};
use simcore::{MetricsRegistry, Simulation, StageAttribution, Tracer};

const CLIENT: NodeId = NodeId(0);

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
    tracer.clear(); // drop setup-time noise; profile the ops alone
    (sim, group, tracer)
}

fn run_gwrite(sim: &mut Simulation<FabricSim>, group: &mut HyperLoopGroup, payload: usize) {
    let gen = drive(sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 0,
                    data: Payload::filled(0xCD, payload),
                    flush: true,
                },
            )
            .expect("issue")
    });
    sim.run();
    let acks = drive(sim, |ctx| group.client.poll(ctx));
    assert_eq!(acks.len(), 1);
    assert_eq!(acks[0].gen, gen);
}

/// FNV-1a — summarizes byte equality in assert messages.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

#[test]
fn stage_means_tile_mean_e2e_within_1ns() {
    let (mut sim, mut group, tracer) = traced_setup(0x51A6E);
    const OPS: usize = 16;
    for _ in 0..OPS {
        run_gwrite(&mut sim, &mut group, 512);
    }
    let events = tracer.events();
    assert_eq!(tracer.dropped(), 0);
    assert_eq!(tracer.dropped_ops(), 0);

    let att = StageAttribution::from_events(&events);
    // Every issued op folds; background maintenance (descriptor
    // replenishment) may add traced ops of its own, and RECVs preposted
    // for generations never issued are counted truncated, not folded.
    assert!(att.ops >= OPS as u64, "ops folded: {}", att.ops);

    // The tiling invariant the whole design hangs on: per-op stages
    // partition [issue, ack], so the sum of per-stage mean contributions
    // IS the mean end-to-end latency — within 1 ns over the same op set.
    let diff = (att.mean_e2e_ns() - att.stage_mean_sum_ns()).abs();
    assert!(
        diff <= 1.0,
        "stage means do not tile e2e: mean={} sum={} diff={diff}",
        att.mean_e2e_ns(),
        att.stage_mean_sum_ns()
    );

    // Exact integer form of the same identity: total stage ns == total e2e ns.
    let stage_total: u64 = att.stages.values().map(|s| s.total_ns).sum();
    assert_eq!(stage_total, att.e2e_total_ns);

    // The pipeline stages the paper describes all carry weight.
    for needle in ["meta_send", "wait_release", "dma", "gflush", "op_ack"] {
        let agg = att
            .stages
            .get(needle)
            .unwrap_or_else(|| panic!("missing stage {needle:?} in {:?}", att.stages.keys()));
        // Some stages (e.g. meta_send at the issue tick) are zero-width
        // points; only the count is guaranteed, the tiling sum covers time.
        assert!(agg.count >= OPS as u64, "{needle} under-counted");
    }

    // The issued gWRITEs all take the same deterministic path, so the
    // dominant path covers (nearly) the whole set — anything left over is
    // background maintenance.
    let (sig, share) = att.dominant_path().expect("dominant path");
    assert!(share >= 0.5, "dominant share {share}");
    assert!(sig.contains("wait_release"), "dominant path {sig:?}");
}

/// One full profiled run: traced ops plus counter samples, rendered to the
/// two deterministic artifacts (folded stacks, counter-track Chrome JSON).
fn profiled_run(seed: u64) -> (String, String) {
    let (mut sim, mut group, tracer) = traced_setup(seed);
    let mut sampler = CounterSampler::with_prefixes(&["fab."]);
    for i in 0..8 {
        run_gwrite(&mut sim, &mut group, 512 + i * 128);
        let mut reg = MetricsRegistry::new();
        sim.model.fab.export_into(&mut reg, "fab");
        sampler.sample(sim.now(), &reg);
    }
    let events = tracer.events();
    (
        folded_stacks(&events, "gwrite"),
        chrome_trace_with_counters(&events, sampler.samples()),
    )
}

#[test]
fn same_seed_folded_stacks_and_counter_tracks_are_byte_identical() {
    let (fold_a, trace_a) = profiled_run(0xFEED);
    let (fold_b, trace_b) = profiled_run(0xFEED);
    assert!(!fold_a.is_empty());
    assert!(trace_a.contains("\"ph\":\"C\""), "counter events present");
    assert_eq!(fnv(&fold_a), fnv(&fold_b), "folded stacks diverged");
    assert_eq!(fold_a, fold_b);
    assert_eq!(fnv(&trace_a), fnv(&trace_b), "counter traces diverged");
    assert_eq!(trace_a, trace_b);

    // Folded output is sorted, one "stack count" pair per line, and roots
    // at the label we passed.
    for line in fold_a.lines() {
        assert!(line.starts_with("gwrite;"), "bad root in {line:?}");
        let (stack, count) = line.rsplit_once(' ').expect("stack<space>value");
        assert!(!stack.is_empty());
        count.parse::<u64>().expect("numeric leaf value");
    }
    let mut sorted: Vec<&str> = fold_a.lines().collect();
    sorted.sort_unstable();
    assert_eq!(sorted, fold_a.lines().collect::<Vec<_>>());
}
