//! The simulation driver: a [`Model`] consumes events and schedules more.
//!
//! Components below the top level (a NIC, a CPU scheduler, a link) do not see
//! the global queue. They are written as Mealy machines that return their
//! *effects* — `(delay, effect)` pairs collected in an [`Outbox`] — and the
//! composing model routes each effect either back into the global queue or
//! into a sibling component. This keeps every component unit-testable in
//! isolation.
//!
//! ```
//! use simcore::model::{Model, Simulation};
//! use simcore::time::{SimTime, SimDuration};
//! use simcore::queue::EventQueue;
//!
//! struct Countdown(u32);
//! impl Model for Countdown {
//!     type Event = ();
//!     fn handle(&mut self, _now: SimTime, _ev: (), q: &mut EventQueue<()>) {
//!         if self.0 > 0 {
//!             self.0 -= 1;
//!             q.push_after(SimDuration::from_micros(1), ());
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Countdown(3));
//! sim.queue.push(SimTime::ZERO, ());
//! let steps = sim.run();
//! assert_eq!(steps, 4);
//! assert_eq!(sim.now(), SimTime::from_micros(3));
//! ```

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// A top-level simulation model.
pub trait Model {
    /// The single event type flowing through the global queue.
    type Event;

    /// Reacts to one event, optionally scheduling follow-ups on `q`.
    fn handle(&mut self, now: SimTime, event: Self::Event, q: &mut EventQueue<Self::Event>);
}

/// A model plus its event queue, with run loops.
pub struct Simulation<M: Model> {
    /// The user's state machine.
    pub model: M,
    /// The future event list.
    pub queue: EventQueue<M::Event>,
}

impl<M: Model> Simulation<M> {
    /// Wraps a model with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Simulation {
            model,
            queue: EventQueue::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// Runs until the queue drains. Returns the number of events processed.
    pub fn run(&mut self) -> u64 {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the next event would fire after
    /// `deadline`. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let mut steps = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > deadline {
                break;
            }
            let (now, ev) = self.queue.pop().expect("peeked event vanished");
            self.model.handle(now, ev, &mut self.queue);
            steps += 1;
        }
        steps
    }

    /// Runs at most `max_steps` events; returns how many actually ran.
    /// Useful as a watchdog against livelock in tests.
    pub fn run_steps(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0;
        while steps < max_steps {
            match self.queue.pop() {
                Some((now, ev)) => {
                    self.model.handle(now, ev, &mut self.queue);
                    steps += 1;
                }
                None => break,
            }
        }
        steps
    }
}

/// Effects emitted by a sub-component during one `handle` call: each entry is
/// an effect that should take place `delay` after the current instant.
///
/// The composing model drains the outbox and decides where each effect goes.
#[derive(Debug)]
pub struct Outbox<T> {
    items: Vec<(SimDuration, T)>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Outbox<T> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox { items: Vec::new() }
    }

    /// Emits an effect after `delay`.
    pub fn emit(&mut self, delay: SimDuration, effect: T) {
        self.items.push((delay, effect));
    }

    /// Emits an effect at the current instant.
    pub fn emit_now(&mut self, effect: T) {
        self.items.push((SimDuration::ZERO, effect));
    }

    /// True if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of pending effects.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Drains all effects in emission order (`.rev()` for the reverse).
    pub fn drain(&mut self) -> impl DoubleEndedIterator<Item = (SimDuration, T)> + '_ {
        self.items.drain(..)
    }

    /// Consumes the outbox, yielding all effects in emission order.
    pub fn into_vec(self) -> Vec<(SimDuration, T)> {
        self.items
    }
}

impl<T> Extend<(SimDuration, T)> for Outbox<T> {
    fn extend<I: IntoIterator<Item = (SimDuration, T)>>(&mut self, iter: I) {
        self.items.extend(iter);
    }
}

impl<T> IntoIterator for Outbox<T> {
    type Item = (SimDuration, T);
    type IntoIter = std::vec::IntoIter<(SimDuration, T)>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct PingPong {
        pings: u32,
        log: Vec<(SimTime, &'static str)>,
    }

    #[derive(Debug)]
    enum Ev {
        Ping,
        Pong,
    }

    impl Model for PingPong {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, ev: Ev, q: &mut EventQueue<Ev>) {
            match ev {
                Ev::Ping => {
                    self.log.push((now, "ping"));
                    q.push_after(SimDuration::from_micros(1), Ev::Pong);
                }
                Ev::Pong => {
                    self.log.push((now, "pong"));
                    if self.pings > 0 {
                        self.pings -= 1;
                        q.push_after(SimDuration::from_micros(1), Ev::Ping);
                    }
                }
            }
        }
    }

    #[test]
    fn ping_pong_alternates() {
        let mut sim = Simulation::new(PingPong {
            pings: 2,
            log: vec![],
        });
        sim.queue.push(SimTime::ZERO, Ev::Ping);
        sim.run();
        let names: Vec<&str> = sim.model.log.iter().map(|(_, n)| *n).collect();
        assert_eq!(names, vec!["ping", "pong", "ping", "pong", "ping", "pong"]);
        assert_eq!(sim.now(), SimTime::from_micros(5));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(PingPong {
            pings: 1000,
            log: vec![],
        });
        sim.queue.push(SimTime::ZERO, Ev::Ping);
        sim.run_until(SimTime::from_micros(10));
        assert!(sim.now() <= SimTime::from_micros(10));
        assert!(
            !sim.queue.is_empty(),
            "deadline should leave events pending"
        );
    }

    #[test]
    fn run_steps_bounds_work() {
        let mut sim = Simulation::new(PingPong {
            pings: 1000,
            log: vec![],
        });
        sim.queue.push(SimTime::ZERO, Ev::Ping);
        assert_eq!(sim.run_steps(5), 5);
    }

    #[test]
    fn outbox_orders_and_drains() {
        let mut ob = Outbox::new();
        ob.emit_now("a");
        ob.emit(SimDuration::from_micros(2), "b");
        assert_eq!(ob.len(), 2);
        let v: Vec<_> = ob.drain().collect();
        assert_eq!(v[0], (SimDuration::ZERO, "a"));
        assert_eq!(v[1], (SimDuration::from_micros(2), "b"));
        assert!(ob.is_empty());
    }
}
