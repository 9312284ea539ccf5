//! Round-trips the Chrome trace emitters through the repo's own JSON
//! reader: `chrome_trace_json` and `chrome_trace_with_counters` must
//! produce documents that `simcore::jsonw::parse` accepts, with correct
//! string escaping, per-track monotonic timestamps, and well-formed
//! `"ph":"C"` counter events.

use hyperloop_repro::hyperloop::harness::{drive, fabric_sim};
use hyperloop_repro::hyperloop::{GroupConfig, GroupOp, HyperLoopGroup};
use hyperloop_repro::netsim::NodeId;
use hyperloop_repro::rnicsim::Payload;
use hyperloop_repro::simcore::jsonw::{canonicalize_report, parse, JsonValue};
use hyperloop_repro::simcore::simprof::{
    chrome_trace_with_counters, CounterSample, CounterSampler, COUNTER_PID,
};
use hyperloop_repro::simcore::simtrace::chrome_trace_json;
use hyperloop_repro::simcore::{MetricsRegistry, SimTime, Tracer};
use std::collections::BTreeMap;

/// Drives a few traced durable gWRITEs and samples fabric metrics.
fn traced_run() -> (
    Vec<hyperloop_repro::simcore::TraceEvent>,
    Vec<CounterSample>,
) {
    let mut sim = fabric_sim(4, 64 << 20, 0xC0FFEE);
    let tracer = Tracer::enabled(1 << 16);
    sim.model.fab.set_tracer(tracer.clone());
    let nodes: Vec<NodeId> = (1..=3).map(NodeId).collect();
    let mut group = drive(&mut sim, |ctx| {
        HyperLoopGroup::setup(ctx, NodeId(0), &nodes, GroupConfig::default())
    });
    group.client.set_tracer(tracer.clone());
    sim.run();
    tracer.clear();

    let mut sampler = CounterSampler::new();
    for _ in 0..4 {
        let gen = drive(&mut sim, |ctx| {
            group
                .client
                .issue(
                    ctx,
                    GroupOp::Write {
                        offset: 0,
                        data: Payload::copy_from(&[0x5A; 768]),
                        flush: true,
                    },
                )
                .expect("issue")
        });
        sim.run();
        let acks = drive(&mut sim, |ctx| group.client.poll(ctx));
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].gen, gen);
        let mut reg = MetricsRegistry::new();
        sim.model.fab.export_into(&mut reg, "fab");
        sampler.sample(sim.now(), &reg);
    }
    (tracer.events().to_vec(), sampler.samples().to_vec())
}

/// Walks the parsed envelope and returns the traceEvents array.
fn trace_events(root: &JsonValue) -> Vec<JsonValue> {
    assert_eq!(
        root.get("displayTimeUnit").and_then(|v| v.as_str()),
        Some("ns")
    );
    root.get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array")
        .to_vec()
}

#[test]
fn span_trace_round_trips_through_jsonw() {
    let (events, _) = traced_run();
    assert!(!events.is_empty());
    let json = chrome_trace_json(&events);
    let root = parse(&json).expect("emitter output must re-parse");
    let evs = trace_events(&root);
    assert!(!evs.is_empty());
    for e in &evs {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        assert!(matches!(ph, "X" | "i" | "M"), "unexpected phase {ph:?}");
        assert!(e.get("name").and_then(|v| v.as_str()).is_some());
        if ph != "M" {
            assert!(e.get("ts").and_then(|v| v.as_f64()).is_some());
        }
    }
}

#[test]
fn counter_trace_round_trips_with_monotonic_tracks() {
    let (events, samples) = traced_run();
    assert!(!samples.is_empty(), "sampler captured fabric counters");
    let json = chrome_trace_with_counters(&events, &samples);
    let root = parse(&json).expect("emitter output must re-parse");
    let evs = trace_events(&root);

    let mut counter_events = 0usize;
    let mut last_ts: BTreeMap<(u64, String), f64> = BTreeMap::new();
    for e in &evs {
        let ph = e.get("ph").and_then(|v| v.as_str()).expect("ph");
        if ph != "C" {
            continue;
        }
        counter_events += 1;
        let pid = e.get("pid").and_then(|v| v.as_u64()).expect("pid");
        assert_eq!(pid, COUNTER_PID, "counter events live on the metrics pid");
        let name = e
            .get("name")
            .and_then(|v| v.as_str())
            .expect("track name")
            .to_string();
        let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
        let value = e
            .get("args")
            .and_then(|a| a.get("value"))
            .and_then(|v| v.as_f64())
            .expect("args.value");
        assert!(value.is_finite());
        // Timestamps must be monotonic within each (pid, name) track.
        if let Some(prev) = last_ts.insert((pid, name.clone()), ts) {
            assert!(prev <= ts, "track {name:?} went backwards: {prev} > {ts}");
        }
    }
    assert!(counter_events > 0, "no C events emitted");
    // The metrics process carries its naming metadata record.
    assert!(evs.iter().any(|e| {
        e.get("ph").and_then(|v| v.as_str()) == Some("M")
            && e.get("pid").and_then(|v| v.as_u64()) == Some(COUNTER_PID)
    }));
    // With no samples the envelope degrades to the plain span trace
    // (byte-compared through the shared report canonicalizer).
    assert_eq!(
        canonicalize_report(&chrome_trace_with_counters(&events, &[])).expect("canonicalize"),
        canonicalize_report(&chrome_trace_json(&events)).expect("canonicalize")
    );
}

#[test]
fn track_names_are_escaped_correctly() {
    let awkward = "fab.\"quoted\"\\back\tslash\nname";
    let samples = vec![
        CounterSample {
            at: SimTime::ZERO,
            track: awkward.to_string(),
            value: 1.5,
        },
        CounterSample {
            at: SimTime::from_nanos(2_000),
            track: awkward.to_string(),
            value: -3.0,
        },
    ];
    let json = chrome_trace_with_counters(&[], &samples);
    let root = parse(&json).expect("escaped names must re-parse");
    let evs = trace_events(&root);
    let c: Vec<&JsonValue> = evs
        .iter()
        .filter(|e| e.get("ph").and_then(|v| v.as_str()) == Some("C"))
        .collect();
    assert_eq!(c.len(), 2);
    for e in &c {
        // The reader must recover the exact original track name.
        assert_eq!(e.get("name").and_then(|v| v.as_str()), Some(awkward));
    }
    assert_eq!(
        c[1].get("args")
            .and_then(|a| a.get("value"))
            .and_then(|v| v.as_f64()),
        Some(-3.0)
    );
}
