//! The future event list: a hierarchical timer wheel ordered by virtual time.
//!
//! Ties are broken by insertion order so that runs are fully deterministic:
//! two events scheduled for the same instant fire in the order they were
//! pushed.
//!
//! The implementation is the classic discrete-event-simulation fastpath: a
//! hierarchical timer wheel ([`WHEEL_LEVELS`] levels of [`WHEEL_SLOTS`]
//! slots, [`WHEEL_BITS`] bits per level) with a calendar-queue overflow
//! list for events beyond the wheel horizon. Near-future events — the
//! overwhelming majority in a NIC/network simulation, where hops are
//! nanoseconds to microseconds ahead — insert and pop in O(1) instead of
//! the `BinaryHeap`'s O(log n). The pop order is *exactly* the `(time,
//! seq)` total order the original heap produced (pinned by the property
//! tests below against a retained heap reference implementation), so every
//! same-seed timeline stays byte-identical across the swap.
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
use std::collections::VecDeque;

/// Cumulative event-flow counters of an [`EventQueue`]: the denominator of
/// `host.events_per_sec` and direct sizing evidence for the calendar-queue
/// layout (see ROADMAP "raw speed"). The counters are plain deterministic
/// integers — same-seed runs produce identical values — but they are
/// exported under `host.queue.*` alongside the volatile wall-clock
/// measurements, so canonicalized byte-identity comparisons skip them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Events ever scheduled (push/push_after).
    pub pushed: u64,
    /// Events ever dispatched.
    pub popped: u64,
    /// High-water mark of pending events.
    pub max_depth: usize,
}

/// Bits of virtual time consumed per wheel level (64 slots each).
pub const WHEEL_BITS: u32 = 6;
/// Slots per wheel level.
pub const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
/// Number of wheel levels; events further than `2^(BITS*LEVELS)` ns ahead
/// of the wheel clock (~73 simulated minutes) go to the overflow list.
pub const WHEEL_LEVELS: usize = 7;

const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
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
    // first. Retained for the heap reference implementation the property
    // tests compare the wheel against.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
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
/// produced. Internally the wheel may visit events out of seq order while
/// cascading a higher-level slot down, so the level-0 drain sorts each
/// same-instant batch by `seq` before it becomes poppable; nothing about
/// wheel geometry is observable from the outside.
pub struct EventQueue<E> {
    /// `WHEEL_LEVELS * WHEEL_SLOTS` buckets, flattened level-major. Level
    /// `l` buckets events whose time differs from the wheel clock first in
    /// bits `[l*BITS, (l+1)*BITS)`.
    levels: Box<[Vec<Entry<E>>]>,
    /// Per-level occupancy bitmap: bit `s` set iff `levels[l*SLOTS + s]`
    /// is non-empty.
    occ: [u64; WHEEL_LEVELS],
    /// Events beyond the wheel horizon (calendar-queue overflow). Promoted
    /// back into the wheel when it drains.
    overflow: Vec<Entry<E>>,
    /// The drained current-instant batch, in final pop (seq) order. All
    /// entries share one timestamp; same-instant `push` appends here.
    ready: VecDeque<Entry<E>>,
    /// Reusable drain buffer so steady-state cascades allocate nothing.
    scratch: Vec<Entry<E>>,
    /// Wheel placement clock in ns. Invariant: `cur <= now <=` every
    /// pending timestamp; all bucketed events are placed relative to it.
    cur: u64,
    seq: u64,
    now: SimTime,
    len: usize,
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
        // Slot buffers are conserved (drains swap them with `scratch`, never
        // drop them), so seeding each with a little capacity means a
        // steady-state run performs no fresh slot allocations at all —
        // first-push allocs would otherwise trickle in for as long as cold
        // slots keep being hit.
        let mut levels = Vec::with_capacity(WHEEL_LEVELS * WHEEL_SLOTS);
        levels.resize_with(WHEEL_LEVELS * WHEEL_SLOTS, || Vec::with_capacity(4));
        EventQueue {
            levels: levels.into_boxed_slice(),
            occ: [0; WHEEL_LEVELS],
            overflow: Vec::new(),
            ready: VecDeque::new(),
            scratch: Vec::new(),
            cur: 0,
            seq: 0,
            now: SimTime::ZERO,
            len: 0,
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
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel level an event at `t` ns belongs to, given the placement
    /// clock: the level covering the highest bit in which `t` differs.
    #[inline]
    fn level_of(&self, t: u64) -> usize {
        let diff = t ^ self.cur;
        if diff == 0 {
            0
        } else {
            ((63 - diff.leading_zeros()) / WHEEL_BITS) as usize
        }
    }

    /// Buckets an entry (already counted in `len`/`stats`) into the wheel
    /// or the overflow list. Requires `entry.at >= cur`.
    #[inline]
    fn bucket(&mut self, entry: Entry<E>) {
        let t = entry.at.as_nanos();
        debug_assert!(t >= self.cur);
        let level = self.level_of(t);
        if level >= WHEEL_LEVELS {
            self.overflow.push(entry);
            return;
        }
        let slot = ((t >> (WHEEL_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level * WHEEL_SLOTS + slot].push(entry);
        self.occ[level] |= 1 << slot;
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
        let seq = self.seq;
        self.seq += 1;
        let entry = Entry { at, seq, event };
        // Same-instant events behind an already-drained batch append to it
        // directly: `seq` is monotonic, so FIFO order is preserved.
        if let Some(front) = self.ready.front() {
            if front.at == at {
                self.ready.push_back(entry);
            } else {
                self.bucket(entry);
            }
        } else {
            self.bucket(entry);
        }
        self.stats.pushed += 1;
        self.len += 1;
        if self.len > self.stats.max_depth {
            self.stats.max_depth = self.len;
        }
    }

    /// Schedules `event` to fire `delay` after the current virtual time.
    pub fn push_after(&mut self, delay: SimDuration, event: E) {
        self.push(self.now + delay, event);
    }

    /// Drains the earliest pending instant into `ready`, cascading
    /// higher-level slots down and promoting overflow as needed. Leaves
    /// `ready` empty only if the queue is empty.
    fn refill(&mut self) {
        loop {
            let Some(level) = self.occ.iter().position(|&b| b != 0) else {
                if self.overflow.is_empty() {
                    return;
                }
                self.promote_overflow();
                continue;
            };
            // Within a level, slot index order is time order (all bucketed
            // events share the bits above the level with `cur`), so the
            // lowest occupied slot of the lowest occupied level holds the
            // earliest pending instant(s).
            let slot = self.occ[level].trailing_zeros() as usize;
            self.occ[level] &= !(1 << slot);
            debug_assert!(self.scratch.is_empty());
            std::mem::swap(
                &mut self.levels[level * WHEEL_SLOTS + slot],
                &mut self.scratch,
            );
            if level == 0 {
                // A level-0 slot holds exactly one timestamp. Events may
                // have arrived via different cascade paths, so restore seq
                // (push) order before exposing the batch.
                let t = (self.cur >> WHEEL_BITS << WHEEL_BITS) | slot as u64;
                debug_assert!(self.scratch.iter().all(|e| e.at.as_nanos() == t));
                self.cur = t;
                self.scratch.sort_unstable_by_key(|e| e.seq);
                self.ready.extend(self.scratch.drain(..));
                return;
            }
            // Cascade: advance the placement clock to the slot's base time
            // and re-bucket its events into the levels below.
            let width = WHEEL_BITS * level as u32;
            let base =
                (self.cur & !((1u64 << (width + WHEEL_BITS)) - 1)) | ((slot as u64) << width);
            debug_assert!(base >= self.cur);
            self.cur = base;
            while let Some(e) = self.scratch.pop() {
                self.bucket(e);
            }
        }
    }

    /// Re-anchors the wheel at the earliest overflow timestamp and pulls
    /// every overflow event now within the horizon back into the wheel.
    fn promote_overflow(&mut self) {
        let min_t = self
            .overflow
            .iter()
            .map(|e| e.at.as_nanos())
            .min()
            .expect("promote_overflow on empty overflow");
        debug_assert!(min_t >= self.cur);
        self.cur = min_t;
        debug_assert!(self.scratch.is_empty());
        std::mem::swap(&mut self.overflow, &mut self.scratch);
        // Re-bucket order is free to differ from push order: the level-0
        // drain sorts every same-instant batch by seq before it pops.
        while let Some(e) = self.scratch.pop() {
            let t = e.at.as_nanos();
            if self.level_of(t) >= WHEEL_LEVELS {
                self.overflow.push(e);
            } else {
                self.bucket(e);
            }
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.ready.is_empty() {
            self.refill();
        }
        let entry = self.ready.pop_front()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.len -= 1;
        self.stats.popped += 1;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(front) = self.ready.front() {
            return Some(front.at);
        }
        if let Some(level) = self.occ.iter().position(|&b| b != 0) {
            let slot = self.occ[level].trailing_zeros() as usize;
            if level == 0 {
                let t = (self.cur >> WHEEL_BITS << WHEEL_BITS) | slot as u64;
                return Some(SimTime::from_nanos(t));
            }
            // Higher-level slots bucket a span of timestamps: the earliest
            // pending instant is the slot's minimum.
            return self.levels[level * WHEEL_SLOTS + slot]
                .iter()
                .map(|e| e.at)
                .min();
        }
        self.overflow.iter().map(|e| e.at).min()
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        for slot in self.levels.iter_mut() {
            slot.clear();
        }
        self.occ = [0; WHEEL_LEVELS];
        self.overflow.clear();
        self.ready.clear();
        self.len = 0;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len)
            .finish()
    }
}

/// The seed-era `BinaryHeap` future event list, retained as the ordering
/// oracle for the timer wheel's property tests: both structures must
/// produce the identical `(time, seq)` pop order and [`QueueStats`] on any
/// workload.
#[cfg(test)]
mod reference {
    use super::*;
    use std::collections::BinaryHeap;

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
        q.push_after(SimDuration::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn far_future_events_survive_overflow() {
        // Beyond the wheel horizon (2^42 ns ≈ 73 min): lands in the
        // overflow list and must promote back in order.
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(10_000), "far");
        q.push(SimTime::from_secs(9_999), "near-far");
        q.push(SimTime::from_nanos(5), "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(5)));
        assert_eq!(q.pop().unwrap().1, "soon");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(9_999)));
        assert_eq!(q.pop().unwrap().1, "near-far");
        assert_eq!(q.pop().unwrap(), (SimTime::from_secs(10_000), "far"));
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_matches_next_pop_across_levels() {
        let mut q = EventQueue::new();
        // One event per level distance, plus overflow.
        for shift in [0u64, 7, 13, 20, 27, 35, 41, 50] {
            q.push(SimTime::from_nanos(1 << shift), shift);
        }
        while let Some(t) = q.peek_time() {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
        }
        assert!(q.is_empty());
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

/// Property tests pinning the wheel to the retained heap oracle: identical
/// pop order (including same-instant seq tie-breaks), identical clock
/// advancement, identical `QueueStats`, across pure-pop, interleaved, and
/// far-future overflow workloads.
#[cfg(test)]
mod wheel_vs_heap {
    use super::reference::HeapQueue;
    use super::*;
    use crate::rng::SimRng;

    /// Drives the wheel and the heap through an identical randomized
    /// push/pop schedule and asserts lock-step equivalence.
    fn lockstep(seed: u64, steps: usize, max_delay_ns: u64, tie_bias: bool) {
        let mut rng = SimRng::new(seed);
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapQueue<u64> = HeapQueue::new();
        let mut id = 0u64;
        for _ in 0..steps {
            if rng.gen_bool(0.45) {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "pop divergence (seed {seed:#x})");
                assert_eq!(wheel.now(), heap.now());
            } else {
                let delay = if tie_bias && rng.gen_bool(0.5) {
                    // Heavy same-instant load: many events collide on the
                    // few buckets, exercising the seq tie-break.
                    SimDuration::from_nanos(rng.gen_range(0..4) * 100)
                } else {
                    SimDuration::from_nanos(rng.gen_range(0..max_delay_ns))
                };
                wheel.push_after(delay, id);
                heap.push_after(delay, id);
                id += 1;
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.stats(), heap.stats());
        }
        // Drain both to the end.
        loop {
            let w = wheel.pop();
            let h = heap.pop();
            assert_eq!(w, h, "drain divergence (seed {seed:#x})");
            assert_eq!(wheel.stats(), heap.stats());
            if w.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_heap_near_future() {
        for case in 0..48u64 {
            lockstep(0x77EE1 + case, 400, 2_000, false);
        }
    }

    #[test]
    fn wheel_matches_heap_with_same_instant_storms() {
        for case in 0..48u64 {
            lockstep(0x7E1E5 + case, 400, 800, true);
        }
    }

    #[test]
    fn wheel_matches_heap_across_level_boundaries() {
        // Delays spanning every wheel level (up to ~2^36 ns) so cascades
        // from deep levels happen constantly.
        for case in 0..24u64 {
            lockstep(0xCA5CADE + case, 250, 1u64 << 36, false);
        }
    }

    #[test]
    fn wheel_matches_heap_through_overflow_promotion() {
        // Delays beyond the 2^42 ns horizon force the calendar-queue
        // overflow path and its promotion back into the wheel.
        for case in 0..16u64 {
            let seed = 0x0F10 + case;
            let mut rng = SimRng::new(seed);
            let mut wheel: EventQueue<u64> = EventQueue::new();
            let mut heap: HeapQueue<u64> = HeapQueue::new();
            for id in 0..120u64 {
                let delay = if rng.gen_bool(0.3) {
                    // Far side of the horizon (up to ~2^44 ns ≈ 4.9 h).
                    SimDuration::from_nanos((1u64 << 42) + rng.gen_range(0..(1u64 << 44)))
                } else {
                    SimDuration::from_nanos(rng.gen_range(0..1_000_000))
                };
                wheel.push_after(delay, id);
                heap.push_after(delay, id);
                if rng.gen_bool(0.4) {
                    assert_eq!(wheel.pop(), heap.pop());
                }
            }
            loop {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "overflow divergence (seed {seed:#x})");
                assert_eq!(wheel.stats(), heap.stats());
                if w.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn wheel_matches_heap_same_instant_pop_then_push() {
        // Pin the subtle case: pop one of several same-instant events,
        // push more at that exact instant, and require global FIFO.
        let mut wheel: EventQueue<u32> = EventQueue::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        let t = SimTime::from_nanos(777);
        for i in 0..5 {
            wheel.push(t, i);
            heap.push(t, i);
        }
        assert_eq!(wheel.pop(), heap.pop());
        for i in 5..8 {
            wheel.push(t, i);
            heap.push(t, i);
        }
        for _ in 0..7 {
            assert_eq!(wheel.pop(), heap.pop());
        }
        assert_eq!(wheel.pop(), None);
        assert_eq!(heap.pop(), None);
    }
}
