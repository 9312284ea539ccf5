//! Full-stack integration: the paper's headline claims hold on the composed
//! system — flat microsecond tails for HyperLoop under multi-tenant load,
//! milliseconds for the CPU baseline, with replica CPUs (nearly) idle.

use hyperloop_bench::micro::{gwrite_plan, run_primitive, MicroOpts, SystemKind};
use simcore::SimDuration;

fn opts() -> MicroOpts {
    MicroOpts {
        ops: 600,
        warmup: 50,
        ..MicroOpts::default()
    }
}

#[test]
fn hyperloop_tail_is_flat_and_microsecond_scale() {
    let r = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), opts());
    assert!(
        r.run.latency.p99 < SimDuration::from_micros(40),
        "HyperLoop p99 blew up: {}",
        r.run.latency.p99
    );
    // Predictability: p99 within 2x of the median.
    assert!(
        r.run.latency.p99 < r.run.latency.p50 * 2,
        "HyperLoop latency not flat: p50={} p99={}",
        r.run.latency.p50,
        r.run.latency.p99
    );
    // Replica data-path CPU is (close to) zero: only maintenance runs.
    assert!(
        r.replica_cpu < 0.05,
        "replica CPU should be near zero: {}",
        r.replica_cpu
    );
}

#[test]
fn naive_tail_collapses_under_colocation() {
    let hl = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), opts());
    let naive = run_primitive(SystemKind::NaiveEvent, gwrite_plan(1024), opts());
    assert!(
        naive.run.latency.p99 > hl.run.latency.p99 * 50,
        "expected >50x tail gap: naive={} hl={}",
        naive.run.latency.p99,
        hl.run.latency.p99
    );
    assert!(
        naive.run.latency.mean > hl.run.latency.mean * 5,
        "expected >5x mean gap: naive={} hl={}",
        naive.run.latency.mean,
        hl.run.latency.mean
    );
}

#[test]
fn unloaded_throughput_is_comparable_but_cpu_is_not() {
    let o = MicroOpts {
        ops: 2000,
        warmup: 50,
        window: 16,
        hogs_per_node: 0,
        pace: SimDuration::ZERO,
        ..MicroOpts::default()
    };
    let hl = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), o);
    let naive = run_primitive(SystemKind::NaivePolling, gwrite_plan(1024), o);
    // Throughput within ~2x of each other (paper: "similar").
    let ratio = naive.run.ops_per_sec() / hl.run.ops_per_sec();
    assert!(
        (0.5..2.5).contains(&ratio),
        "throughput ratio out of band: {ratio:.2}"
    );
    // The polling baseline burns a core; HyperLoop does not.
    assert!(naive.replica_cpu > 0.9, "poller CPU: {}", naive.replica_cpu);
    assert!(hl.replica_cpu < 0.15, "HyperLoop CPU: {}", hl.replica_cpu);
}

#[test]
fn group_size_scaling_stays_flat_for_hyperloop() {
    let mut p99s = Vec::new();
    for gs in [3u32, 5, 7] {
        let o = MicroOpts {
            ops: 400,
            warmup: 40,
            group_size: gs,
            ..MicroOpts::default()
        };
        let r = run_primitive(SystemKind::HyperLoop, gwrite_plan(1024), o);
        p99s.push(r.run.latency.p99);
    }
    // Longer chains add single-digit microseconds per hop, not blowups.
    assert!(
        p99s[2] < p99s[0] * 3,
        "HyperLoop degraded with group size: {:?}",
        p99s
    );
}
