//! tailscope end-to-end: tail exemplars, root-cause attribution, and the
//! windowed telemetry series, driven through real benchmark runs.
//!
//! Three contracts under test:
//!
//! 1. **Exact accounting** — causes sum to the tail-op count, every
//!    exemplar's stage excesses plus residual tile `e2e - median` exactly,
//!    and exemplars rank slowest-first.
//! 2. **Attribution sanity** — a run with a live migration pins its
//!    slowest ops on `migration_pause`, not on a generic queue cause.
//! 3. **Observer-only** — a traced run and an untraced same-seed run agree
//!    on every simulation-derived output (latency, health, series), and
//!    their reports are byte-identical once the shared canonicalizer
//!    strips the volatile host fields; `tail` itself is trace-gated, so
//!    the identity is checked over the blocks both arms carry.

use hyperloop_bench::migrate::{run_migrate, MigrateOpts};
use hyperloop_bench::report::{Report, Scenario};
use hyperloop_bench::shardscale::{run_shardscale, ShardScaleOpts};
use hyperloop_repro::simcore::jsonw::canonicalize_report;
use hyperloop_repro::simcore::simaudit::SERIES_CAP;
use hyperloop_repro::simcore::tailprof::{TailProfile, CAUSE_LABELS, MAX_EXEMPLARS};

fn assert_tail_invariants(tail: &TailProfile) {
    assert!(tail.ops > 0, "profile folded no ops");
    assert!(tail.tail_ops < tail.ops, "tail cannot cover the population");
    assert!(tail.p99_ns >= tail.median_e2e_ns);

    // Exactly one cause per tail op: the counters sum to the tail count,
    // and every label is one of the seven normative causes.
    let cause_sum: u64 = tail.causes.iter().map(|(_, n)| n).sum();
    assert_eq!(
        cause_sum, tail.tail_ops,
        "cause counters must tile tail ops"
    );
    for (label, _) in &tail.causes {
        assert!(CAUSE_LABELS.contains(label), "unknown cause {label}");
    }

    assert!(tail.exemplars.len() <= MAX_EXEMPLARS);
    assert!(tail.exemplars.len() as u64 <= tail.tail_ops);
    let mut prev_e2e = u64::MAX;
    for ex in &tail.exemplars {
        let e2e = ex.e2e.as_nanos();
        assert!(e2e >= tail.p99_ns, "exemplar below the p99");
        assert!(e2e > tail.median_e2e_ns, "exemplar not beyond the median");
        assert!(e2e <= prev_e2e, "exemplars must rank slowest-first");
        prev_e2e = e2e;
        // Excess tiling is exact by construction (i64 residual).
        assert_eq!(ex.excess_ns, e2e as i64 - tail.median_e2e_ns as i64);
        let explained: i64 = ex.stages.iter().map(|s| s.excess_ns).sum();
        assert_eq!(
            explained + ex.residual_ns,
            ex.excess_ns,
            "stage excesses + residual must tile the op's excess"
        );
        for s in &ex.stages {
            assert_eq!(s.excess_ns, s.actual_ns as i64 - s.median_ns as i64);
        }
        assert!(ex.span.is_some(), "exemplar retains its span tree");
    }
}

#[test]
fn shardscale_tail_profile_holds_its_invariants() {
    let r = run_shardscale(
        2,
        ShardScaleOpts {
            ops: 1024,
            trace: true,
            ..ShardScaleOpts::default()
        },
    );
    let tail = r.run.tail.as_ref().expect("traced arm carries artifacts");
    assert_tail_invariants(tail);
    assert!(tail.tail_ops > 0, "a 1024-op run has a tail");

    // The JSON block round-trips its headline counters.
    let json = tail.to_json();
    assert!(json.starts_with('{'), "tail block must be an object");
    for key in ["\"ops\":", "\"tail_ops\":", "\"causes\":", "\"exemplars\":"] {
        assert!(json.contains(key), "tail JSON missing {key}");
    }
}

#[test]
fn migration_pause_dominates_the_migrate_tail() {
    let r = run_migrate(
        2,
        MigrateOpts {
            ops: 1024,
            trace: true,
            ..MigrateOpts::default()
        },
    );
    let tail = r
        .run
        .tail
        .as_ref()
        .expect("traced arm carries a tail profile");
    assert_tail_invariants(tail);
    // Ops parked in the holding pen across the cutover are the slowest in
    // the run; the attributor must blame the pause, not a queue stage.
    assert!(
        tail.cause_count("migration_pause") > 0,
        "a live migration must surface migration_pause tail ops, got {:?}",
        tail.causes
    );
    // The pause cause carries the epoch as its argument.
    let ex = tail
        .exemplars
        .iter()
        .find(|e| e.cause.label() == "migration_pause")
        .expect("at least one pause exemplar among the slowest");
    assert_eq!(ex.cause.arg(), r.epoch, "pause exemplar carries the epoch");
}

#[test]
fn series_is_bounded_and_strictly_monotonic() {
    let r = run_shardscale(3, ShardScaleOpts::default());
    assert!(!r.run.series.shards.is_empty(), "series must carry shards");
    for shard in &r.run.series.shards {
        assert!(shard.points.len() <= SERIES_CAP);
        assert!(!shard.points.is_empty(), "every shard gets sampled");
        let mut prev = None;
        for p in &shard.points {
            if let Some(t) = prev {
                assert!(p.at > t, "series timestamps must strictly increase");
            }
            prev = Some(p.at);
            assert!(p.ops_per_sec.is_finite() && p.ops_per_sec >= 0.0);
        }
    }
}

#[test]
fn tracing_is_observer_only_for_shardscale() {
    let base = run_shardscale(2, ShardScaleOpts::default());
    let traced = run_shardscale(
        2,
        ShardScaleOpts {
            trace: true,
            ..ShardScaleOpts::default()
        },
    );
    // Simulation-derived outputs are identical: the tracer, the tail fold
    // and the counter sampling never touch the event queue or the RNG.
    assert_eq!(base.run.latency, traced.run.latency);
    assert_eq!(base.per_shard_acked, traced.per_shard_acked);
    assert_eq!(base.run.health, traced.run.health);
    assert_eq!(base.run.series, traced.run.series);
    assert_eq!(base.run.series.to_json(), traced.run.series.to_json());

    // Byte identity over the blocks both arms carry (tail itself is
    // trace-gated; host fields are volatile and canonicalized away).
    let render = |r: &hyperloop_bench::shardscale::ShardScaleResult| {
        let mut rep = Report::new("tailscope-test");
        rep.scenario(
            Scenario::new("shardscale/2")
                .system("HyperLoop")
                .latency(&r.run.latency)
                .gauge("ops_per_sec", r.run.ops_per_sec())
                .health(r.run.health.clone())
                .series(r.run.series.clone())
                .host(r.run.host.clone())
                .metrics(r.run.registry.clone()),
        );
        canonicalize_report(&rep.to_json()).expect("canonicalize")
    };
    assert_eq!(render(&base), render(&traced));
}
