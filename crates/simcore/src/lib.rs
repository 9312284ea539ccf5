//! # simcore — deterministic discrete-event simulation engine
//!
//! The foundation of the HyperLoop reproduction: every other crate in the
//! workspace (the RDMA NIC model, the CPU scheduler, the network fabric, the
//! storage applications) is built as a state machine driven by this engine.
//!
//! The engine is deliberately minimal:
//!
//! * [`time`] — virtual nanosecond clock ([`SimTime`], [`SimDuration`]).
//! * [`queue`] — the future event list with deterministic tie-breaking.
//! * [`model`] — the [`Model`] trait, [`Simulation`] run loops and the
//!   [`Outbox`] pattern for composing sub-components.
//! * [`rng`] — a self-contained, cross-platform deterministic PRNG.
//! * [`dist`] — YCSB-style key-choice distributions (zipfian, latest, …).
//! * [`stats`] — exact latency samples, the one quantile rule and
//!   latency summaries.
//! * [`simtrace`] — causal trace events, span reconstruction, Chrome
//!   trace-event export and the unified metrics registry.
//! * [`simprof`] — critical-path aggregation over trace streams, folded
//!   flamegraph stacks and Perfetto counter tracks.
//! * [`simaudit`] — online invariant auditors over the trace stream plus
//!   streaming per-shard health/SLO tracking and windowed telemetry series.
//! * [`tailprof`] — tail-latency exemplars over the trace ring: ops past
//!   the population p99 with per-stage excess breakdowns and a normative
//!   single-cause root-cause classification.
//! * [`hostprof`] — host-side measurements of the simulator itself:
//!   allocation counters and the per-run `host` statistics block (never
//!   perturbs the sim timeline).
//! * [`jsonw`] — the dependency-free JSON writer behind the exporters, its
//!   matching reader, and the `host.*`-stripping report canonicalizer.
//!
//! ## Example
//!
//! ```
//! use simcore::prelude::*;
//!
//! struct Arrivals {
//!     rng: SimRng,
//!     latencies: Latencies,
//!     remaining: u32,
//! }
//!
//! impl Model for Arrivals {
//!     type Event = SimTime; // carries the enqueue timestamp
//!     fn handle(&mut self, now: SimTime, sent: SimTime, q: &mut EventQueue<SimTime>) {
//!         self.latencies.record(now.since(sent));
//!         if self.remaining > 0 {
//!             self.remaining -= 1;
//!             let delay = SimDuration::from_nanos(self.rng.gen_range(100..200));
//!             q.push_after(delay, now);
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Arrivals {
//!     rng: SimRng::new(1),
//!     latencies: Latencies::new(),
//!     remaining: 1000,
//! });
//! sim.queue.push(SimTime::ZERO, SimTime::ZERO);
//! sim.run();
//! assert_eq!(sim.model.latencies.count(), 1001);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dist;
pub mod hostprof;
pub mod jsonw;
pub mod model;
#[cfg(any(test, feature = "obs-reference"))]
#[doc(hidden)]
pub mod obsref;
pub mod queue;
pub mod rng;
pub mod simaudit;
pub mod simprof;
pub mod simtrace;
pub mod stats;
pub mod tailprof;
pub mod time;

pub use hostprof::{HostMeter, HostStats};
pub use model::{Model, Outbox, Simulation};
pub use queue::{EventQueue, QueueStats};
pub use rng::SimRng;
pub use simaudit::{
    Audit, Auditor, HealthMonitor, HealthState, MetricSeries, Probe, SeriesPoint, SeriesSummary,
    SloConfig, Violation,
};
pub use simprof::{CounterSampler, StageAttribution, TxnAttribution};
pub use simtrace::{MetricsRegistry, TraceEvent, TraceKind, Tracer};
pub use stats::{Latencies, LatencySummary};
pub use tailprof::{TailCause, TailExemplar, TailProfile};
pub use time::{SimDuration, SimTime};

/// One-stop imports for simulation code.
pub mod prelude {
    pub use crate::dist::{KeyChooser, Latest, ScrambledZipfian, UniformKeys, Zipfian};
    pub use crate::hostprof::{HostMeter, HostStats};
    pub use crate::model::{Model, Outbox, Simulation};
    pub use crate::queue::{EventQueue, QueueStats};
    pub use crate::rng::SimRng;
    pub use crate::simaudit::{Audit, HealthMonitor, HealthState, Probe, SeriesSummary, SloConfig};
    pub use crate::simprof::{CounterSampler, StageAttribution, TxnAttribution};
    pub use crate::simtrace::{MetricsRegistry, TraceEvent, TraceKind, Tracer};
    pub use crate::stats::{Latencies, LatencySummary};
    pub use crate::tailprof::{TailCause, TailProfile};
    pub use crate::time::{SimDuration, SimTime};
}
