//! Spans of the traced run.
//!
//! The traced run keeps its own event loop: it pops each event from the
//! simulation's queue, classifies it by its public `ClusterEvent` /
//! `NicEvent` variant and calls `Model::handle`, with a span around the
//! pop and one around the handler. Workload processes wrap each call they
//! make into a layer in [`Tap::time`]; those spans are children of the
//! handler span whose event ran them, and a span's self time is its
//! duration minus its children's.
//!
//! Three clock reads on every event would distort what they measure, so
//! the loop times a deterministic sample: each event is timed with
//! probability 1/[`STRIDE`], drawn from a fixed-seed generator, and so are
//! the layer calls made inside it. A kind's total is its sampled mean
//! times its exact count. Each timed span also pays for one clock read,
//! whose cost is measured up front and taken off again.

use rnicsim::NicEvent;
use simcore::{Model, SimRng, SimTime, Simulation};
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use testbed::{Cluster, ClusterEvent};

/// One event in `STRIDE`, on average, is timed.
const STRIDE: u64 = 32;

/// Event classes, by public event variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Start,
    Engine,
    Deliver,
    Cpu,
    TaskDone,
    TimerDue,
    HostNotify,
}

const CLASSES: usize = 7;

impl Class {
    /// The events the testbed dispatches to host processes.
    pub const DISPATCH: [Class; 4] = [
        Class::Start,
        Class::TaskDone,
        Class::TimerDue,
        Class::HostNotify,
    ];

    fn of(ev: &ClusterEvent) -> Class {
        match ev {
            ClusterEvent::Start => Class::Start,
            ClusterEvent::Nic(NicEvent::EngineRun { .. }) => Class::Engine,
            ClusterEvent::Nic(NicEvent::Deliver { .. }) => Class::Deliver,
            ClusterEvent::Cpu { .. } => Class::Cpu,
            ClusterEvent::TaskDone { .. } => Class::TaskDone,
            ClusterEvent::TimerDue { .. } => Class::TimerDue,
            ClusterEvent::HostNotify { .. } => Class::HostNotify,
        }
    }
}

/// Calls the workload processes make into a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `GroupTransport::issue`: a HyperLoop group client or a Naive client.
    Issue,
    /// Completion polling: `poll_into`, `ShardedKv::poll`.
    Poll,
    /// A replica maintenance process's wake-up: it polls its receive CQ
    /// and re-posts the consumed descriptors (`ReplicaHandle::replenish`).
    Replenish,
    /// `ShardedKv::pump_txns`.
    Pump,
    /// Building and submitting one transaction attempt.
    Build,
}

const CALLS: usize = 5;

/// Exact count, sampled count and sampled nanoseconds of one span kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub count: u64,
    sampled: u64,
    sampled_ns: u64,
}

impl Tally {
    fn add(&mut self, ns: Option<u64>) {
        self.count += 1;
        if let Some(ns) = ns {
            self.sampled += 1;
            self.sampled_ns += ns;
        }
    }

    fn merge(&mut self, other: &Tally) {
        self.count += other.count;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// `ns` measured over the sample, scaled up to every span of the kind.
    fn scale(&self, ns: u64) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        ns as f64 * self.count as f64 / self.sampled as f64
    }

    /// Estimated total nanoseconds: the sampled mean times the exact count.
    pub fn total_ns(&self) -> f64 {
        self.scale(self.sampled_ns)
    }
}

/// Layer-call spans, shared between the traced loop and the processes.
#[derive(Debug)]
pub struct Spans {
    /// Nanoseconds one clock read adds to a span it brackets.
    clock_ns: u64,
    /// Set while the loop times the current event.
    sampling: Cell<bool>,
    /// Nanoseconds the current event's timed calls took from their parent,
    /// their clock reads included.
    child_ns: Cell<u64>,
    calls: [Cell<Tally>; CALLS],
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            clock_ns: clock_read_ns(),
            sampling: Cell::new(false),
            child_ns: Cell::new(0),
            calls: Default::default(),
        }
    }

    fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        let start = self.sampling.get().then(Instant::now);
        let r = f();
        let raw = start.map(|t| nanos(t.elapsed()));
        let cell = &self.calls[call as usize];
        let mut tally = cell.get();
        tally.add(raw.map(|ns| ns.saturating_sub(self.clock_ns)));
        cell.set(tally);
        if let Some(ns) = raw {
            // The span plus both of its clock reads.
            self.child_ns.set(self.child_ns.get() + ns + self.clock_ns);
        }
        r
    }
}

/// The median cost of one clock read.
fn clock_read_ns() -> u64 {
    let mut gaps: Vec<u64> = Vec::with_capacity(1001);
    let mut last = Instant::now();
    for _ in 0..1001 {
        let now = Instant::now();
        gaps.push(nanos(now - last));
        last = now;
    }
    gaps.sort_unstable();
    gaps[gaps.len() / 2]
}

/// A process's tap on the layer-call spans. Empty outside the traced run,
/// where a call costs one branch.
#[derive(Debug, Clone, Default)]
pub struct Tap(Option<Rc<Spans>>);

impl Tap {
    pub fn new(spans: Option<&Rc<Spans>>) -> Tap {
        Tap(spans.cloned())
    }

    /// Runs `f`, a call into a layer, inside a span of kind `call`.
    #[inline]
    pub fn time<R>(&self, call: Call, f: impl FnOnce() -> R) -> R {
        match &self.0 {
            Some(spans) => spans.time(call, f),
            None => f(),
        }
    }
}

/// Span tallies of a traced repetition's measured window.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// Handler spans per event class, children included.
    handle: [Tally; CLASSES],
    /// Sampled child nanoseconds per event class.
    child_ns: [u64; CLASSES],
    /// Queue pops.
    pub pop: Tally,
    /// The processes' layer calls.
    calls: [Tally; CALLS],
}

impl SpanTotals {
    /// Adds another repetition's spans.
    pub fn add(&mut self, other: &SpanTotals) {
        let pairs = self.handle.iter_mut().zip(&other.handle);
        for (mine, theirs) in pairs.chain(self.calls.iter_mut().zip(&other.calls)) {
            mine.merge(theirs);
        }
        self.pop.merge(&other.pop);
        for (mine, theirs) in self.child_ns.iter_mut().zip(other.child_ns) {
            *mine += theirs;
        }
    }

    /// Events of one class.
    pub fn events(&self, c: Class) -> u64 {
        self.handle[c as usize].count
    }

    /// Estimated nanoseconds of one class's handlers, children included.
    pub fn handle_ns(&self, c: Class) -> f64 {
        self.handle[c as usize].total_ns()
    }

    /// Estimated self nanoseconds of one class's handlers.
    pub fn self_ns(&self, c: Class) -> f64 {
        let t = &self.handle[c as usize];
        t.scale(t.sampled_ns.saturating_sub(self.child_ns[c as usize]))
    }

    /// Estimated nanoseconds of one kind of layer call.
    pub fn call_ns(&self, c: Call) -> f64 {
        self.calls[c as usize].total_ns()
    }
}

/// The traced loop's state: the span tallies and the sampling stream.
#[derive(Debug)]
pub struct Traced {
    spans: Rc<Spans>,
    totals: SpanTotals,
    sampler: SimRng,
}

impl Traced {
    pub fn new(spans: Rc<Spans>) -> Traced {
        Traced {
            spans,
            totals: SpanTotals::default(),
            sampler: SimRng::new(STRIDE),
        }
    }

    /// Starts the measured window: drops what warm-up recorded.
    pub fn restart(&mut self) {
        self.totals = SpanTotals::default();
        for call in &self.spans.calls {
            call.set(Tally::default());
        }
    }

    /// The span tallies since [`Traced::restart`].
    pub fn totals(&self) -> SpanTotals {
        let mut totals = self.totals.clone();
        for (dst, call) in totals.calls.iter_mut().zip(&self.spans.calls) {
            *dst = call.get();
        }
        totals
    }
}

/// Handles events until the workload sets `flag`, timing a sample of
/// spans when `traced` is given.
///
/// # Errors
///
/// When the queue drains first or simulated time passes `cap`: the
/// workload stalled.
pub fn run_until(
    sim: &mut Simulation<Cluster>,
    flag: &Cell<bool>,
    cap: SimTime,
    traced: Option<&mut Traced>,
) -> Result<(), String> {
    let Some(t) = traced else {
        while !flag.get() {
            let (now, ev) = next(sim, cap)?;
            sim.model.handle(now, ev, &mut sim.queue);
        }
        return Ok(());
    };
    while !flag.get() {
        if t.sampler.next_u64() % STRIDE != 0 {
            let (now, ev) = next(sim, cap)?;
            t.totals.pop.add(None);
            t.totals.handle[Class::of(&ev) as usize].add(None);
            sim.model.handle(now, ev, &mut sim.queue);
            continue;
        }
        let t0 = Instant::now();
        let (now, ev) = next(sim, cap)?;
        let t1 = Instant::now();
        let class = Class::of(&ev) as usize;
        t.spans.child_ns.set(0);
        t.spans.sampling.set(true);
        sim.model.handle(now, ev, &mut sim.queue);
        let t2 = Instant::now();
        t.spans.sampling.set(false);
        let clock = t.spans.clock_ns;
        t.totals.pop.add(Some(nanos(t1 - t0).saturating_sub(clock)));
        t.totals.handle[class].add(Some(nanos(t2 - t1).saturating_sub(clock)));
        t.totals.child_ns[class] += t.spans.child_ns.get();
    }
    Ok(())
}

fn next(sim: &mut Simulation<Cluster>, cap: SimTime) -> Result<(SimTime, ClusterEvent), String> {
    match sim.queue.pop() {
        Some((now, _)) if now > cap => Err(format!(
            "the workload stalled: {} s of simulated time passed",
            cap.as_secs_f64()
        )),
        Some(event) => Ok(event),
        None => Err("the event queue drained before the workload finished".into()),
    }
}

fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}
