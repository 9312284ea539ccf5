//! hostprof — host-side measurements of the simulator itself.
//!
//! Every other observability layer in this repo (simtrace, simprof,
//! simaudit) attributes *simulated* nanoseconds. This module measures what
//! the simulator costs on the *host*: what the allocator is doing
//! (counting hooks driven by a `GlobalAlloc` wrapper in the bench crate),
//! and how fast the simulator turns host seconds into simulated work
//! ([`HostStats`], taken by a [`HostMeter`]: the `host` block of every
//! `BENCH_*.json` scenario). It does not split host time by layer: the
//! benchmark under `perfbench/` does that from outside the crates, with
//! sampled spans around its own event loop (`--trace 1`).
//!
//! ## Determinism contract
//!
//! Host measurements are inherently nondeterministic, so hostprof is
//! strictly read-only with respect to the simulation: the meter reads
//! [`Instant`], the allocation counters are thread-local cells bumped by
//! the allocator wrapper, and nothing here ever feeds back into the event
//! queue, the RNG, or any model state. Everything hostprof exports (wall
//! times, allocation counts) is volatile by definition and lives under
//! `host.*` keys, which [`crate::jsonw::canonicalize_report`] strips
//! before byte-identity comparisons.

use crate::jsonw::{join, req, JsonValue, JsonWriter, Shape};
use crate::queue::QueueStats;
use crate::time::SimDuration;
use std::cell::Cell;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Allocation counters
// ---------------------------------------------------------------------------

/// Cumulative allocator activity on this thread, recorded by the counting
/// `GlobalAlloc` wrapper (`hyperloop_bench::hostalloc`). Reallocations are
/// counted once under `reallocs` — with the old size retired into
/// `freed_bytes` and the new size charged to `alloc_bytes` — never as an
/// extra alloc/free pair, so `allocs == frees` holds over any region of
/// code that frees everything it allocated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations served.
    pub allocs: u64,
    /// Deallocations served.
    pub frees: u64,
    /// In-place grow/shrink calls (counted here only).
    pub reallocs: u64,
    /// Bytes handed out (including the new size of every realloc).
    pub alloc_bytes: u64,
    /// Bytes retired (including the old size of every realloc).
    pub freed_bytes: u64,
}

impl AllocStats {
    /// The per-phase delta `self - earlier` (both from
    /// [`alloc_snapshot`], `earlier` taken first).
    pub fn since(&self, earlier: &AllocStats) -> AllocStats {
        AllocStats {
            allocs: self.allocs.wrapping_sub(earlier.allocs),
            frees: self.frees.wrapping_sub(earlier.frees),
            reallocs: self.reallocs.wrapping_sub(earlier.reallocs),
            alloc_bytes: self.alloc_bytes.wrapping_sub(earlier.alloc_bytes),
            freed_bytes: self.freed_bytes.wrapping_sub(earlier.freed_bytes),
        }
    }
}

const ALLOC_ZERO: AllocStats = AllocStats {
    allocs: 0,
    frees: 0,
    reallocs: 0,
    alloc_bytes: 0,
    freed_bytes: 0,
};

thread_local! {
    static ALLOC: Cell<AllocStats> = const { Cell::new(ALLOC_ZERO) };
}

// The record_* hooks run inside the global allocator, so they must not
// allocate: const-initialized thread-local Cells are a plain TLS slot, and
// try_with guards the TLS-teardown window at thread exit.

/// Records one served allocation of `bytes`.
#[inline]
pub fn record_alloc(bytes: usize) {
    let _ = ALLOC.try_with(|c| {
        let mut a = c.get();
        a.allocs += 1;
        a.alloc_bytes += bytes as u64;
        c.set(a);
    });
}

/// Records one served deallocation of `bytes`.
#[inline]
pub fn record_free(bytes: usize) {
    let _ = ALLOC.try_with(|c| {
        let mut a = c.get();
        a.frees += 1;
        a.freed_bytes += bytes as u64;
        c.set(a);
    });
}

/// Records one served reallocation from `old` to `new` bytes.
#[inline]
pub fn record_realloc(old: usize, new: usize) {
    let _ = ALLOC.try_with(|c| {
        let mut a = c.get();
        a.reallocs += 1;
        a.alloc_bytes += new as u64;
        a.freed_bytes += old as u64;
        c.set(a);
    });
}

/// Snapshot of this thread's cumulative allocation counters. All zeros
/// unless a counting global allocator is installed (the bench crate's
/// binaries and the repo's integration tests install one).
pub fn alloc_snapshot() -> AllocStats {
    ALLOC.with(|c| c.get())
}

// ---------------------------------------------------------------------------
// Per-run host statistics: the `host` block of BENCH_*.json scenarios
// ---------------------------------------------------------------------------

/// The observability-tax measurement: wall time of a run with its taps on
/// (tracer, auditors, samplers) against a same-seed bare run with them
/// off. When the run had no tap attached, the two are equal and the tax
/// is zero by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsTax {
    /// Wall nanoseconds of the observed run (observability as configured).
    pub observed_wall_ns: u64,
    /// Wall nanoseconds of the bare run (tracing/audit/samplers off).
    pub bare_wall_ns: u64,
}

impl ObsTax {
    /// Overhead of observability as a percentage of the bare run. Can be
    /// negative on noisy hosts; zero when no bare re-run was taken.
    pub fn overhead_pct(&self) -> f64 {
        let bare = self.bare_wall_ns.max(1) as f64;
        100.0 * (self.observed_wall_ns as f64 - bare) / bare
    }
}

/// Host-side measurements of one benchmark run: the `host` block attached
/// to every `BENCH_*.json` scenario. All fields are volatile (they change
/// run to run on the same seed) — byte-identity comparisons must go
/// through [`crate::jsonw::canonicalize_report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStats {
    /// Wall nanoseconds the measured run took (never zero): the bare run's
    /// when the arm was also run observed.
    pub wall_ns: u64,
    /// Operations the run completed (the sim-side op count).
    pub ops: u64,
    /// Simulated nanoseconds the run advanced.
    pub sim_ns: u64,
    /// Event-queue counters of the run's simulation.
    pub queue: QueueStats,
    /// Allocator activity on the driving thread during the run.
    pub alloc: AllocStats,
    /// The observability-tax measurement.
    pub obs_tax: ObsTax,
}

impl HostStats {
    /// Host throughput: simulated operations completed per wall second.
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Simulator event rate: queue pops per wall second.
    pub fn events_per_sec(&self) -> f64 {
        self.queue.popped as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// Time-dilation factor: simulated nanoseconds per wall millisecond.
    pub fn sim_ns_per_wall_ms(&self) -> f64 {
        self.sim_ns as f64 / (self.wall_ns as f64 / 1e6)
    }

    /// Folds two runs reported as one scenario into one block: wall time,
    /// op counts, queue and allocator activity all sum (high-water depth
    /// takes the max), and the observability-tax numerator/denominator sum
    /// so the percentage stays a wall-time-weighted aggregate.
    pub fn merged(&self, other: &HostStats) -> HostStats {
        HostStats {
            wall_ns: self.wall_ns + other.wall_ns,
            ops: self.ops + other.ops,
            sim_ns: self.sim_ns + other.sim_ns,
            queue: QueueStats {
                pushed: self.queue.pushed + other.queue.pushed,
                popped: self.queue.popped + other.queue.popped,
                max_depth: self.queue.max_depth.max(other.queue.max_depth),
            },
            alloc: AllocStats {
                allocs: self.alloc.allocs + other.alloc.allocs,
                frees: self.alloc.frees + other.alloc.frees,
                reallocs: self.alloc.reallocs + other.alloc.reallocs,
                alloc_bytes: self.alloc.alloc_bytes + other.alloc.alloc_bytes,
                freed_bytes: self.alloc.freed_bytes + other.alloc.freed_bytes,
            },
            obs_tax: ObsTax {
                observed_wall_ns: self.obs_tax.observed_wall_ns + other.obs_tax.observed_wall_ns,
                bare_wall_ns: self.obs_tax.bare_wall_ns + other.obs_tax.bare_wall_ns,
            },
        }
    }

    /// The `host` block [`HostStats::write_fields`] writes: closed keys,
    /// positive rates, and the rule that the queue never popped more
    /// events than were pushed. The observability tax may be negative
    /// (machine noise), never non-finite.
    pub const SHAPE: Shape = Shape::Obj(
        &[
            req("wall_ms", Shape::Positive),
            req("ops_per_sec", Shape::Positive),
            req("events_per_sec", Shape::Positive),
            req("sim_ns_per_wall_ms", Shape::Positive),
            req("ops", Shape::Count),
            req("sim_ns", Shape::Count),
            req("alloc_bytes", Shape::Count),
            req(
                "queue",
                Shape::Obj(
                    &[
                        req("pushed", Shape::Count),
                        req("popped", Shape::Count),
                        req("max_depth", Shape::Count),
                    ],
                    None,
                ),
            ),
            req(
                "alloc",
                Shape::Obj(
                    &[
                        req("allocs", Shape::Count),
                        req("frees", Shape::Count),
                        req("reallocs", Shape::Count),
                        req("alloc_bytes", Shape::Count),
                        req("freed_bytes", Shape::Count),
                    ],
                    None,
                ),
            ),
            req(
                "obs_tax",
                Shape::Obj(
                    &[
                        req("observed_wall_ms", Shape::Positive),
                        req("bare_wall_ms", Shape::Positive),
                        req("overhead_pct", Shape::Number),
                    ],
                    None,
                ),
            ),
        ],
        Some(|h, path| {
            let queue = |k| h.at(&["queue", k]).and_then(JsonValue::as_u64);
            match (queue("pushed"), queue("popped")) {
                (Some(pushed), Some(popped)) if popped > pushed => Err(format!(
                    "{}={popped} exceeds {}={pushed}",
                    join(path, "queue.popped"),
                    join(path, "queue.pushed")
                )),
                _ => Ok(()),
            }
        }),
    );

    /// Writes the `host` block's fields (the caller brackets the object);
    /// [`HostStats::SHAPE`] declares them.
    pub fn write_fields(&self, w: &mut JsonWriter) {
        w.field_f64("wall_ms", self.wall_ns as f64 / 1e6);
        w.field_f64("ops_per_sec", self.ops_per_sec());
        w.field_f64("events_per_sec", self.events_per_sec());
        w.field_f64("sim_ns_per_wall_ms", self.sim_ns_per_wall_ms());
        w.field_u64("ops", self.ops);
        w.field_u64("sim_ns", self.sim_ns);
        w.field_u64("alloc_bytes", self.alloc.alloc_bytes);
        w.begin_obj_field("queue");
        w.field_u64("pushed", self.queue.pushed);
        w.field_u64("popped", self.queue.popped);
        w.field_u64("max_depth", self.queue.max_depth as u64);
        w.end_obj();
        w.begin_obj_field("alloc");
        w.field_u64("allocs", self.alloc.allocs);
        w.field_u64("frees", self.alloc.frees);
        w.field_u64("reallocs", self.alloc.reallocs);
        w.field_u64("alloc_bytes", self.alloc.alloc_bytes);
        w.field_u64("freed_bytes", self.alloc.freed_bytes);
        w.end_obj();
        w.begin_obj_field("obs_tax");
        w.field_f64(
            "observed_wall_ms",
            self.obs_tax.observed_wall_ns as f64 / 1e6,
        );
        w.field_f64("bare_wall_ms", self.obs_tax.bare_wall_ns as f64 / 1e6);
        w.field_f64("overhead_pct", self.obs_tax.overhead_pct());
        w.end_obj();
    }
}

/// Measures one benchmark run: wall clock from [`HostMeter::start`] to
/// [`HostMeter::finish`], plus the allocation delta on this thread.
///
/// ```
/// use simcore::hostprof::HostMeter;
/// use simcore::queue::QueueStats;
/// use simcore::SimDuration;
///
/// let meter = HostMeter::start();
/// // ... drive the simulation ...
/// let host = meter.finish(1000, SimDuration::from_millis(5), QueueStats::default());
/// assert!(host.wall_ns > 0);
/// ```
#[derive(Debug)]
pub struct HostMeter {
    start: Instant,
    alloc0: AllocStats,
}

impl HostMeter {
    /// Starts the meter: snapshots the wall clock and allocation counters.
    #[allow(clippy::new_without_default)]
    pub fn start() -> Self {
        HostMeter {
            start: Instant::now(),
            alloc0: alloc_snapshot(),
        }
    }

    /// Stops the meter. `ops` is the run's completed operation count,
    /// `sim_elapsed` the simulated time it spanned, and `queue` the event
    /// queue's counters (see [`crate::queue::EventQueue::stats`]).
    pub fn finish(self, ops: u64, sim_elapsed: SimDuration, queue: QueueStats) -> HostStats {
        let wall_ns = (self.start.elapsed().as_nanos() as u64).max(1);
        HostStats {
            wall_ns,
            ops,
            sim_ns: sim_elapsed.as_nanos(),
            queue,
            alloc: alloc_snapshot().since(&self.alloc0),
            obs_tax: ObsTax {
                observed_wall_ns: wall_ns,
                bare_wall_ns: wall_ns,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsonw::{parse, JsonWriter};
    use crate::time::SimDuration;

    #[test]
    fn alloc_deltas_balance_over_a_balanced_region() {
        let before = alloc_snapshot();
        {
            let mut v: Vec<u64> = Vec::new();
            for i in 0..4096 {
                v.push(i); // growth path: realloc, not alloc+free
            }
            std::hint::black_box(&v);
        }
        let delta = alloc_snapshot().since(&before);
        // Without the counting allocator installed (simcore unit tests run
        // without one) the delta is all zeros — the balance invariant holds
        // either way; tests/hostprof.rs asserts the non-trivial case.
        assert_eq!(delta.allocs, delta.frees);
        assert_eq!(delta.alloc_bytes, delta.freed_bytes);
    }

    #[test]
    fn host_stats_block_has_the_closed_key_set() {
        let host = HostStats {
            wall_ns: 2_000_000,
            ops: 100,
            sim_ns: 5_000_000,
            queue: QueueStats {
                pushed: 400,
                popped: 390,
                max_depth: 17,
            },
            alloc: AllocStats {
                allocs: 10,
                frees: 8,
                reallocs: 2,
                alloc_bytes: 1024,
                freed_bytes: 512,
            },
            obs_tax: ObsTax {
                observed_wall_ns: 2_000_000,
                bare_wall_ns: 1_000_000,
            },
        };
        assert_eq!(host.ops_per_sec(), 50_000.0);
        assert_eq!(host.events_per_sec(), 195_000.0);
        assert_eq!(host.sim_ns_per_wall_ms(), 2_500_000.0);
        assert_eq!(host.obs_tax.overhead_pct(), 100.0);
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.begin_obj_field("host");
        host.write_fields(&mut w);
        w.end_obj();
        w.end_obj();
        let root = parse(&w.finish()).expect("host block re-parses");
        let h = root.get("host").expect("host");
        for key in [
            "wall_ms",
            "ops_per_sec",
            "events_per_sec",
            "sim_ns_per_wall_ms",
            "ops",
            "sim_ns",
            "alloc_bytes",
            "queue",
            "alloc",
            "obs_tax",
        ] {
            assert!(h.get(key).is_some(), "missing host.{key}");
        }
        assert_eq!(h.as_obj().unwrap().len(), 10, "unexpected extra keys");
        assert_eq!(
            h.get("queue")
                .unwrap()
                .get("popped")
                .and_then(|v| v.as_u64()),
            Some(390)
        );
    }

    #[test]
    fn meter_produces_positive_wall_and_tax_defaults_to_zero() {
        let meter = HostMeter::start();
        std::hint::black_box(vec![0u8; 1 << 16]);
        let host = meter.finish(10, SimDuration::from_micros(3), QueueStats::default());
        assert!(host.wall_ns >= 1);
        assert_eq!(host.sim_ns, 3_000);
        assert_eq!(host.obs_tax.observed_wall_ns, host.wall_ns);
        assert_eq!(host.obs_tax.overhead_pct(), 0.0);
    }

    #[test]
    fn merged_sums_counts_keeps_the_deeper_queue_and_weights_the_tax_by_wall() {
        // A tax-free side merged with one whose observed run took twice
        // its bare re-run.
        let untaxed = HostStats {
            wall_ns: 3_000_000,
            ops: 100,
            sim_ns: 4_000,
            queue: QueueStats {
                pushed: 50,
                popped: 40,
                max_depth: 9,
            },
            alloc: AllocStats {
                allocs: 1,
                frees: 2,
                reallocs: 3,
                alloc_bytes: 4,
                freed_bytes: 5,
            },
            obs_tax: ObsTax {
                observed_wall_ns: 3_000_000,
                bare_wall_ns: 3_000_000,
            },
        };
        let taxed = HostStats {
            wall_ns: 2_000_000,
            ops: 30,
            sim_ns: 600,
            queue: QueueStats {
                pushed: 70,
                popped: 60,
                max_depth: 4,
            },
            alloc: AllocStats {
                allocs: 10,
                frees: 20,
                reallocs: 30,
                alloc_bytes: 40,
                freed_bytes: 50,
            },
            obs_tax: ObsTax {
                observed_wall_ns: 2_000_000,
                bare_wall_ns: 1_000_000,
            },
        };
        let m = untaxed.merged(&taxed);
        assert_eq!((m.wall_ns, m.ops, m.sim_ns), (5_000_000, 130, 4_600));
        assert_eq!((m.queue.pushed, m.queue.popped), (120, 100));
        assert_eq!(
            m.alloc,
            AllocStats {
                allocs: 11,
                frees: 22,
                reallocs: 33,
                alloc_bytes: 44,
                freed_bytes: 55,
            }
        );
        // The depth is a high-water mark, whichever side holds it.
        assert_eq!(m.queue.max_depth, 9);
        assert_eq!(taxed.merged(&untaxed).queue.max_depth, 9);
        // 5 ms observed against 4 ms bare is 25%: the wall-weighted
        // aggregate, not the 50% mean of the sides' 0% and 100%.
        assert_eq!(
            m.obs_tax,
            ObsTax {
                observed_wall_ns: 5_000_000,
                bare_wall_ns: 4_000_000,
            }
        );
        assert_eq!(m.obs_tax.overhead_pct(), 25.0);
    }

    #[test]
    fn written_block_matches_its_declaration() {
        let queue = QueueStats {
            pushed: 5,
            popped: 4,
            max_depth: 2,
        };
        let mut host = HostMeter::start().finish(10, SimDuration::from_micros(50), queue);
        host.obs_tax.observed_wall_ns += 7;
        let mut w = JsonWriter::new();
        w.begin_obj();
        host.write_fields(&mut w);
        w.end_obj();
        let v = crate::jsonw::parse(&w.finish()).expect("host block parses");
        HostStats::SHAPE
            .check(&v, "host")
            .expect("writer and declaration agree");
    }
}
