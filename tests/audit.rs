//! End-to-end simaudit coverage: the full auditor suite rides a real
//! 3-replica durable-gWRITE workload through the whole stack and stays
//! silent, fires on an injected durability fault with the exact offending
//! op id, and serializes byte-identically across same-seed runs.

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;
use hyperloop_repro::simcore::jsonw::canonicalize_report;
use hyperloop_repro::simcore::simaudit::op_id_base;
use hyperloop_repro::simcore::{Audit, SimRng, Tracer};

/// Runs the seeded 3-replica durable-write scenario with the standard
/// auditor suite tapping every trace event and ack, and returns the audit
/// handle for inspection.
fn audited_run(seed: u64) -> Audit {
    let mut sim = fabric_sim(4, 64 << 20, seed);
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let audit = Audit::standard();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(
            ctx,
            NodeId(0),
            &nodes,
            GroupConfig {
                first_gen: op_id_base(0, 0),
                ..GroupConfig::default()
            },
        )
    });
    group
        .client
        .set_tracer(Tracer::disabled().with_audit(audit.clone()));
    sim.run();

    let mut rng = SimRng::new(seed ^ 0x5EED);
    for i in 0..40u64 {
        let offset = (i % 16) * 4096;
        let data = Payload::filled((rng.next_u64() & 0xFF) as u8, 256);
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset,
                        data,
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        assert_eq!(acks.len(), 1);
    }
    audit
}

#[test]
fn clean_durable_run_has_zero_violations() {
    let audit = audited_run(99);
    assert_eq!(
        audit.violation_count(),
        0,
        "auditors fired on a clean run:\n{}",
        audit.report()
    );
}

#[test]
fn audit_json_is_deterministic_across_same_seed_runs() {
    let a = audited_run(1234);
    let b = audited_run(1234);
    // Compare through the shared canonicalizer: volatile host fields (none
    // today in audit output, by contract) are stripped before the byte diff.
    assert_eq!(
        canonicalize_report(&a.to_json()).expect("canonicalize a"),
        canonicalize_report(&b.to_json()).expect("canonicalize b"),
        "same-seed runs produced different audit output"
    );
}

#[test]
fn durability_auditor_catches_a_dropped_flush_end_to_end() {
    let mut sim = fabric_sim(4, 64 << 20, 7);
    let nodes = [NodeId(1), NodeId(2), NodeId(3)];
    let audit = Audit::standard();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(
            ctx,
            NodeId(0),
            &nodes,
            GroupConfig {
                first_gen: op_id_base(0, 0),
                ..GroupConfig::default()
            },
        )
    });
    group
        .client
        .set_tracer(Tracer::disabled().with_audit(audit.clone()));
    sim.run();

    // A few honest durable writes first: the fault must not smear.
    for i in 0..4u64 {
        drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: i * 4096,
                        data: Payload::copy_from(&[0xAB; 512]),
                        flush: true,
                    },
                )
                .unwrap()
        });
        sim.run();
        assert_eq!(drive(&mut sim, |ctx| group.client.poll(ctx)).len(), 1);
    }
    assert_eq!(audit.violation_count(), 0);

    // Drop the flush READ of exactly the next write. The data lands in the
    // replicas' NIC-side volatile cache but is never forced to durable
    // media before the ack — the guarantee the paper's gFLUSH exists to
    // provide, and exactly what the durability auditor watches for.
    group.client.fault_skip_next_flush(1);
    let bad_op = drive(&mut sim, |ctx| {
        group
            .client
            .issue(
                ctx,
                GroupOp::Write {
                    offset: 0x8000,
                    data: Payload::copy_from(&[0xCD; 512]),
                    flush: true,
                },
            )
            .unwrap()
    });
    sim.run();
    assert_eq!(drive(&mut sim, |ctx| group.client.poll(ctx)).len(), 1);

    let violations = audit.violations();
    assert!(
        !violations.is_empty(),
        "durability auditor missed the dropped flush"
    );
    assert!(
        violations.iter().all(|v| v.auditor == "durability"),
        "unexpected auditors fired:\n{}",
        audit.report()
    );
    assert!(
        violations.iter().all(|v| v.op == bad_op),
        "violation blamed the wrong op (want {bad_op}):\n{}",
        audit.report()
    );
}
