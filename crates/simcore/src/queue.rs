//! The future event list: a two-tier queue ordered by virtual time.
//!
//! Ties are broken by insertion order so that runs are fully deterministic:
//! two events scheduled for the same instant fire in the order they were
//! pushed.
//!
//! A NIC/network simulation keeps few events pending, and most of them
//! near: a hop is scheduled nanoseconds to microseconds ahead. So the
//! queue has two tiers. An event due less than a fixed horizon after the
//! clock joins the *near run*, a `Vec` kept in descending `(time, seq)`
//! order: the next event is its last element, and a push lands a few
//! slots from the end. Later events wait in a `BinaryHeap`. A pop takes
//! the smaller of the two heads by `(time, seq)`, so the tier an event
//! waits in is never observable: the pop order is *exactly* the `(time,
//! seq)` total order of the seed-era heap (pinned by the property tests
//! below against a retained heap reference implementation), and every
//! same-seed timeline stays byte-identical.
//!
//! ```
//! use simcore::queue::EventQueue;
//! use simcore::time::{SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_micros(2), "second");
//! q.push(SimTime::from_micros(1), "first");
//! q.push_after(SimDuration::from_micros(2), "tied-with-second");
//! assert_eq!(q.pop().unwrap().1, "first");
//! assert_eq!(q.pop().unwrap().1, "second");
//! assert_eq!(q.pop().unwrap().1, "tied-with-second");
//! assert!(q.pop().is_none());
//! ```

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Cumulative event-flow counters of an [`EventQueue`]: the denominator of
/// `host.events_per_sec`, and the depth evidence behind the queue's
/// two-tier layout (a shallow queue is what makes a sorted near run
/// cheap). The counters are plain deterministic integers — same-seed runs
/// produce identical values — but they are exported under `host.queue.*`
/// alongside the volatile wall-clock measurements, so canonicalized
/// byte-identity comparisons skip them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled (push/push_after).
    pub pushed: u64,
    /// Events ever dispatched.
    pub popped: u64,
    /// High-water mark of pending events.
    pub max_depth: usize,
}

/// Events due less than this many nanoseconds after the clock join the near
/// run; later ones go to the heap. It sits above the NIC, wire and handler
/// delays that make up most pushes (3.5 µs and below in recorded runs) and
/// below the CPU scheduler's 5 µs wake-up latency, its millisecond slices
/// and the apps' timers. Where the line sits changes only cost, never
/// order: an insert into the near run shifts every entry due before it, so
/// a long-delayed event is cheaper in the heap.
const HORIZON_NS: u64 = 4_000;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    // Reversed: BinaryHeap is a max-heap, we want the earliest (time, seq) out
    // first.
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// A deterministic future event list.
///
/// Tracks the current virtual time: popping an event advances the clock to
/// that event's timestamp. Scheduling into the past is a logic error and
/// panics, which catches causality bugs early.
///
/// # Determinism contract
///
/// Pops come out in ascending `(time, seq)` order where `seq` is the
/// per-queue insertion counter — the exact order the seed-era `BinaryHeap`
/// produced. Two same-instant events may wait in different tiers (one
/// pushed while the instant was beyond the horizon, one after the clock
/// came within it), so a pop compares `seq` too, never the time alone.
pub struct EventQueue<E> {
    /// Events pushed less than `HORIZON_NS` before they fall due, in
    /// descending `(time, seq)` order: the earliest is last.
    near: Vec<Entry<E>>,
    /// Every other pending event.
    far: BinaryHeap<Entry<E>>,
    seq: u64,
    now: SimTime,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            near: Vec::new(),
            far: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            stats: QueueStats::default(),
        }
    }

    /// Cumulative push/pop/depth counters (not reset by [`clear`](Self::clear)).
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// The current virtual time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.near.is_empty() && self.far.is_empty()
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current virtual time.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at}, now={}",
            self.now
        );
        let entry = Entry {
            at,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        if at.as_nanos() - self.now.as_nanos() < HORIZON_NS {
            // The newest `seq` sorts after every pending event of its
            // instant, so the entry goes just above the earlier-or-equal
            // ones at the back.
            let below = self.near.iter().rev().take_while(|e| e.at <= at).count();
            self.near.insert(self.near.len() - below, entry);
        } else {
            self.far.push(entry);
        }
        self.stats.pushed += 1;
        self.stats.max_depth = self.stats.max_depth.max(self.len());
    }

    /// Schedules `event` to fire `delay` after the current virtual time.
    pub fn push_after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let from_far = match (self.near.last(), self.far.peek()) {
            (Some(near), Some(far)) => far.key() < near.key(),
            (near, _) => near.is_none(),
        };
        let entry = if from_far {
            self.far.pop()
        } else {
            self.near.pop()
        }?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.stats.popped += 1;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.near.last(), self.far.peek()) {
            (Some(near), Some(far)) => Some(near.at.min(far.at)),
            (near, far) => near.or(far).map(|e| e.at),
        }
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.near.clear();
        self.far.clear();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .finish()
    }
}

/// The seed-era `BinaryHeap` future event list, retained as the ordering
/// oracle for the two-tier queue's property tests: both structures must
/// produce the identical `(time, seq)` pop order and [`QueueStats`] on any
/// workload.
#[cfg(test)]
mod reference {
    use super::*;

    pub struct HeapQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        seq: u64,
        now: SimTime,
        stats: QueueStats,
    }

    impl<E> HeapQueue<E> {
        pub fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                now: SimTime::ZERO,
                stats: QueueStats::default(),
            }
        }

        pub fn stats(&self) -> QueueStats {
            self.stats
        }

        pub fn now(&self) -> SimTime {
            self.now
        }

        pub fn len(&self) -> usize {
            self.heap.len()
        }

        pub fn push(&mut self, at: SimTime, event: E) {
            assert!(at >= self.now, "scheduling into the past");
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Entry { at, seq, event });
            self.stats.pushed += 1;
            if self.heap.len() > self.stats.max_depth {
                self.stats.max_depth = self.heap.len();
            }
        }

        pub fn push_after(&mut self, delay: SimDuration, event: E) {
            self.push(self.now + delay, event);
        }

        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.now = entry.at;
            self.stats.popped += 1;
            Some((entry.at, entry.event))
        }

        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.at)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), 3);
        q.push(SimTime::from_nanos(10), 1);
        q.push(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(7), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), ());
        q.pop();
        q.push(SimTime::from_micros(5), ());
    }

    #[test]
    fn push_now_fires_at_current_instant() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), "a");
        q.pop();
        q.push(q.now(), "b");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(10));
        assert_eq!(e, "b");
    }

    #[test]
    fn push_now_behind_drained_batch_stays_fifo() {
        // Two events share an instant; after popping the first, a push at
        // the current instant must fire after the second.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(3);
        q.push(t, "a");
        q.push(t, "b");
        assert_eq!(q.pop().unwrap().1, "a");
        q.push(q.now(), "c");
        assert_eq!(q.pop().unwrap(), (t, "b"));
        assert_eq!(q.pop().unwrap(), (t, "c"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn stats_count_pushes_pops_and_high_water() {
        let mut q = EventQueue::new();
        assert_eq!(q.stats(), QueueStats::default());
        for i in 0..5u64 {
            q.push(SimTime::from_nanos(10 * i), i);
        }
        assert_eq!(q.stats().pushed, 5);
        assert_eq!(q.stats().max_depth, 5);
        q.pop();
        q.pop();
        q.push_after(SimDuration::from_nanos(1), 9);
        assert_eq!(q.stats().popped, 2);
        assert_eq!(q.stats().pushed, 6);
        // High-water mark does not shrink as the queue drains.
        assert_eq!(q.stats().max_depth, 5);
        // clear() drops pending events but keeps the cumulative counters.
        q.clear();
        assert_eq!(q.stats().pushed, 6);
        assert_eq!(q.stats().popped, 2);
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.push_after(SimDuration::from_nanos(1), ());
        q.push_after(SimDuration::from_micros(1_000), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_events_interleave_with_near_ones_in_time_order() {
        // Pushed from an idle clock, the seconds-away events wait in the
        // heap and the nanosecond ones in the near run; pops and peeks
        // alternate between the tiers in time order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10_000), "far");
        q.push(SimTime::from_nanos(HORIZON_NS), "just-far");
        q.push(SimTime::from_nanos(HORIZON_NS - 1), "just-near");
        q.push(SimTime::from_secs(9_999), "near-far");
        q.push(SimTime::from_nanos(5), "soon");
        assert_eq!((q.near.len(), q.far.len()), (2, 3));
        let mut order = Vec::new();
        while let Some(t) = q.peek_time() {
            let (pt, e) = q.pop().unwrap();
            assert_eq!(pt, t);
            order.push(e);
        }
        assert_eq!(order, ["soon", "just-near", "just-far", "near-far", "far"]);
    }

    #[test]
    fn peek_matches_next_pop_across_tiers() {
        let mut q = EventQueue::new();
        // Delays on both sides of the horizon, pushed far-first, plus a
        // near push after every pop, so the earliest event keeps switching
        // tier.
        for shift in [50u64, 41, 35, 27, 20, 13, 11, 10, 7, 0] {
            q.push(SimTime::from_nanos(1 << shift), shift);
        }
        let mut pops = 0;
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
            pops += 1;
            if pops < 10 {
                q.push_after(SimDuration::from_nanos(HORIZON_NS / 2), 99);
            }
        }
        assert_eq!(q.stats().popped, 19);
    }

    #[test]
    fn same_instant_pair_split_across_tiers_pops_in_seq_order() {
        // "far" is pushed while its instant lies beyond the horizon; the
        // clock then advances to within it, and "near" joins the near run
        // at the same instant. Equal times: the older push must fire first.
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(3 * HORIZON_NS);
        q.push(t, "far");
        q.push(SimTime::from_nanos(2 * HORIZON_NS + 1), "advance");
        assert_eq!(q.pop().unwrap().1, "advance");
        q.push(t, "near");
        assert_eq!((q.near.len(), q.far.len()), (1, 1));
        assert_eq!(q.pop().unwrap(), (t, "far"));
        assert_eq!(q.pop().unwrap(), (t, "near"));
        assert!(q.pop().is_none());
    }
}

#[cfg(test)]
mod randomized {
    use super::*;
    use crate::rng::SimRng;

    #[test]
    fn pops_are_globally_time_ordered_and_fifo_within_instants() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0x51EE0 + case);
            let n = 1 + rng.gen_index(199);
            let mut q = EventQueue::new();
            for i in 0..n {
                q.push(SimTime::from_nanos(rng.gen_range(0..1000)), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            let mut popped = 0;
            while let Some((t, id)) = q.pop() {
                popped += 1;
                if let Some((lt, lid)) = last {
                    assert!(t >= lt, "time went backwards");
                    if t == lt {
                        assert!(id > lid, "same-instant FIFO violated");
                    }
                }
                assert_eq!(q.now(), t);
                last = Some((t, id));
            }
            assert_eq!(popped, n);
        }
    }

    #[test]
    fn interleaved_push_pop_never_loses_events() {
        for case in 0..64u64 {
            let mut rng = SimRng::new(0xBADC0DE + case);
            let steps = 1 + rng.gen_index(299);
            let mut q = EventQueue::new();
            let (mut pushed, mut popped) = (0u64, 0u64);
            for _ in 0..steps {
                if rng.gen_bool(0.5) {
                    if q.pop().is_some() {
                        popped += 1;
                    }
                } else {
                    q.push_after(SimDuration::from_nanos(rng.gen_range(0..500)), ());
                    pushed += 1;
                }
            }
            while q.pop().is_some() {
                popped += 1;
            }
            assert_eq!(pushed, popped);
        }
    }
}

/// Property tests pinning the two-tier queue to the retained heap oracle:
/// identical pop order (including same-instant seq tie-breaks), identical
/// clock advancement, identical `QueueStats`, across near-only,
/// horizon-straddling and far-future workloads.
#[cfg(test)]
mod tiers_vs_heap {
    use super::reference::HeapQueue;
    use super::*;
    use crate::rng::SimRng;

    /// Drives the queue and the heap through an identical randomized
    /// push/pop schedule, drawing each push's delay in ns from `delay`, and
    /// asserts lock-step equivalence.
    fn lockstep(seed: u64, steps: usize, delay: impl Fn(&mut SimRng) -> u64) {
        let mut rng = SimRng::new(seed);
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut id = 0u64;
        for _ in 0..steps {
            if rng.gen_bool(0.45) {
                let got = q.pop();
                assert_eq!(got, heap.pop(), "pop divergence (seed {seed:#x})");
                assert_eq!(q.now(), heap.now());
            } else {
                let d = SimDuration::from_nanos(delay(&mut rng));
                q.push_after(d, id);
                heap.push_after(d, id);
                id += 1;
            }
            assert_eq!(q.len(), heap.len());
            assert_eq!(q.peek_time(), heap.peek_time());
            assert_eq!(q.stats(), heap.stats());
        }
        // Drain both to the end.
        loop {
            let got = q.pop();
            assert_eq!(got, heap.pop(), "drain divergence (seed {seed:#x})");
            assert_eq!(q.stats(), heap.stats());
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn tiers_match_heap_near_future() {
        for case in 0..48u64 {
            lockstep(0x77EE1 + case, 400, |rng| rng.gen_range(0..HORIZON_NS));
        }
    }

    #[test]
    fn tiers_match_heap_with_same_instant_storms() {
        // Half the pushes collide on four delays, two on each side of the
        // horizon, exercising the seq tie-break within and across tiers.
        for case in 0..48u64 {
            lockstep(0x7E1E5 + case, 400, |rng| {
                if rng.gen_bool(0.5) {
                    [0, HORIZON_NS / 2, HORIZON_NS, 2 * HORIZON_NS][rng.gen_index(4)]
                } else {
                    rng.gen_range(0..4 * HORIZON_NS)
                }
            });
        }
    }

    #[test]
    fn tiers_match_heap_across_the_horizon() {
        // Delays within a few ns of the horizon, and uniform ones up to 8x
        // past it, so the clock keeps bringing heap events level with
        // near-run ones.
        for case in 0..48u64 {
            lockstep(0xB0DE5 + case, 400, |rng| {
                if rng.gen_bool(0.5) {
                    HORIZON_NS - 3 + rng.gen_range(0..6)
                } else {
                    rng.gen_range(0..8 * HORIZON_NS)
                }
            });
        }
    }

    #[test]
    fn tiers_match_heap_far_future() {
        // A third of the delays are up to ~2^44 ns (4.9 h) out, the rest
        // within a millisecond: the heap stays deep under a busy near run.
        for case in 0..24u64 {
            lockstep(0x0F10 + case, 250, |rng| {
                if rng.gen_bool(0.3) {
                    rng.gen_range(0..(1u64 << 44))
                } else {
                    rng.gen_range(0..1_000_000)
                }
            });
        }
    }

    #[test]
    fn tiers_match_heap_same_instant_pop_then_push() {
        // Pin the subtle case: pop one of several same-instant events,
        // push more at that exact instant, and require global FIFO.
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let t = SimTime::from_nanos(777);
        for i in 0..5 {
            q.push(t, i);
            heap.push(t, i);
        }
        assert_eq!(q.pop(), heap.pop());
        for i in 5..8 {
            q.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..7 {
            assert_eq!(q.pop(), heap.pop());
        }
        assert_eq!(q.pop(), None);
        assert_eq!(heap.pop(), None);
    }
}
