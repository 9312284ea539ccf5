//! The paper's headline, live: the same replicated write stream through
//! CPU-driven replication and through HyperLoop, on machines crowded with
//! other tenants. Watch the tail.
//!
//! ```text
//! cargo run --release --example multi_tenant_tail
//! ```

use hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};

fn main() {
    let opts = MicroOpts {
        ops: 2000,
        warmup: 100,
        ..MicroOpts::default()
    };
    println!("1 KB replicated writes, 3 replicas, 96 co-located tenants/node\n");
    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10}",
        "system", "mean", "p50", "p95", "p99"
    );
    let mut p99 = Vec::new();
    for kind in [SystemKind::NaiveEvent, SystemKind::HyperLoop] {
        let r = run_primitive(kind, gwrite_plan(1024), opts);
        println!(
            "{:<14} {:>10} {:>10} {:>10} {:>10}",
            kind.label(),
            r.run.latency.mean,
            r.run.latency.p50,
            r.run.latency.p95,
            r.run.latency.p99
        );
        p99.push(r.run.latency.p99);
    }
    println!(
        "\nHyperLoop cuts the 99th percentile by {:.0}x — replica CPUs never ran.",
        p99[0].as_micros_f64() / p99[1].as_micros_f64()
    );
}
