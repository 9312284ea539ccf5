//! Trace one durable 3-replica gWRITE and export it for Perfetto.
//!
//! ```text
//! cargo run --example trace_op [out.json]
//! ```
//!
//! Prints the per-stage latency breakdown (metadata SEND → per-replica WAIT
//! release → DMA → gFLUSH → ACK) and writes Chrome trace-event JSON that
//! opens directly at <https://ui.perfetto.dev>.

use hyperloop::harness::{drive, fabric_sim};
use hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use netsim::NodeId;
use rnicsim::Payload;
use simcore::simtrace::{chrome_trace_json, op_breakdown, span_tree};
use simcore::Tracer;

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or("trace.json".into());

    let mut sim = fabric_sim(4, 64 << 20, 42);
    let tracer = Tracer::enabled(1 << 16);
    sim.model.fab.set_tracer(tracer.clone());
    let replicas = [NodeId(1), NodeId(2), NodeId(3)];
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &replicas, GroupConfig::default())
    });
    group.client.set_tracer(tracer.clone());
    sim.run();
    tracer.clear(); // drop setup noise, keep the op alone

    let gen = drive(&mut sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 0,
                    data: Payload::filled(7, 1024),
                    flush: true,
                },
            )
            .expect("issue")
    });
    sim.run();
    drive(&mut sim, |ctx| group.client.poll(ctx));

    let events = tracer.events();
    let bd = op_breakdown(&events, gen).expect("traced op");
    println!(
        "op {gen}: 1 KiB durable gWRITE over 3 replicas — {}",
        bd.total()
    );
    for s in &bd.stages {
        println!("  {:<22} {}", s.label, s.duration());
    }
    println!(
        "\nspan tree:\n{}",
        span_tree(&events, gen).expect("tree").render()
    );

    std::fs::write(&out_path, chrome_trace_json(&events)).expect("write trace");
    println!("wrote {out_path} — open it at https://ui.perfetto.dev");
}
