#![warn(missing_docs)]

//! Deterministic discrete-event simulation engine.
//!
//! This crate is the lowest layer of the DIBS reproduction: a simulation
//! clock ([`time::SimTime`]), a future-event list ([`queue::EventQueue`]),
//! seeded random streams ([`rng::SimRng`]), and a small driver
//! ([`Engine`]) that owns the clock and the queue.
//!
//! The engine is intentionally generic over the event type: the network
//! simulator in the `dibs` crate defines its own event enum and drives the
//! loop itself, keeping all mutable simulation state in plain arenas rather
//! than behind shared-ownership cells.
//!
//! # Examples
//!
//! ```
//! use dibs_engine::{Engine, time::{SimDuration, SimTime}};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_in(SimDuration::from_millis(5), Ev::Ping(1));
//! engine.schedule_in(SimDuration::from_millis(1), Ev::Ping(2));
//!
//! let mut order = vec![];
//! while let Some(ev) = engine.next_event() {
//!     match ev { Ev::Ping(n) => order.push(n) }
//! }
//! assert_eq!(order, vec![2, 1]);
//! assert_eq!(engine.now(), SimTime::from_millis(5));
//! ```

pub mod queue;
pub mod rng;
pub mod testkit;
pub mod time;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// Clock plus future-event list.
///
/// `Engine` does not dispatch events itself; callers pop events with
/// [`Engine::next_event`] and handle them, which sidesteps borrow conflicts
/// between the handler and the schedule.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    horizon: SimTime,
    /// Peak pending-event count ever observed; feeds trace reports.
    high_watermark: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with no horizon.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            horizon: SimTime::MAX,
            high_watermark: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets the stop horizon: events scheduled after this instant are never
    /// dispatched, and [`Engine::next_event`] returns `None` once the head of
    /// the queue crosses it.
    pub fn set_horizon(&mut self, horizon: SimTime) {
        self.horizon = horizon;
    }

    /// The configured stop horizon.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
        self.note_pending();
    }

    /// Schedules `event` after a delay.
    ///
    /// Events a recurring delay apart share a FIFO lane of the queue (see
    /// [`EventQueue::push_after`]), the cheapest way to schedule.
    #[inline]
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push_after(self.now, delay, event);
        self.note_pending();
    }

    #[inline]
    fn note_pending(&mut self) {
        let pending = self.queue.len();
        if pending > self.high_watermark {
            self.high_watermark = pending;
        }
    }

    /// Pops the next event and advances the clock to its timestamp.
    ///
    /// Returns `None` when the queue is empty or the next event lies beyond
    /// the horizon (the clock is then parked at the horizon).
    #[inline]
    pub fn next_event(&mut self) -> Option<E> {
        match self.queue.pop_at_or_before(self.horizon) {
            Some((t, ev)) => {
                debug_assert!(t >= self.now, "engine clock moved backwards");
                self.now = t;
                Some(ev)
            }
            None => {
                if !self.queue.is_empty() {
                    // Head lies beyond the horizon: park the clock there.
                    self.now = self.horizon;
                }
                None
            }
        }
    }

    /// Total events dispatched so far.
    pub fn dispatched(&self) -> u64 {
        self.queue.total_popped()
    }

    /// Largest number of simultaneously pending events ever observed.
    ///
    /// Purely observational (surfaced through trace reports); never part
    /// of run digests, so it cannot perturb golden fingerprints.
    pub fn high_watermark(&self) -> usize {
        self.high_watermark
    }

    /// Direct access to the event queue: to pre-size it before a run, or
    /// to drain what the horizon left pending after one.
    pub fn queue_mut(&mut self) -> &mut EventQueue<E> {
        &mut self.queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn horizon_stops_dispatch() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_millis(1), 1);
        e.schedule_at(SimTime::from_millis(3), 2);
        e.set_horizon(SimTime::from_millis(2));
        assert_eq!(e.next_event(), Some(1));
        assert_eq!(e.next_event(), None);
        assert_eq!(e.now(), SimTime::from_millis(2));
        // Event 2 is still queued but will never run.
        assert_eq!(e.queue_mut().len(), 1);
    }

    #[test]
    fn clock_advances_monotonically() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..50 {
            e.schedule_at(
                SimTime::from_nanos((i * 37) % 100),
                u32::try_from(i).unwrap(),
            );
        }
        let mut last = SimTime::ZERO;
        while e.next_event().is_some() {
            assert!(e.now() >= last);
            last = e.now();
        }
        assert_eq!(e.dispatched(), 50);
    }

    #[test]
    fn high_watermark_tracks_peak_pending() {
        let mut e: Engine<u32> = Engine::new();
        assert_eq!(e.high_watermark(), 0);
        e.schedule_at(SimTime::from_millis(1), 1);
        e.schedule_at(SimTime::from_millis(2), 2);
        e.schedule_at(SimTime::from_millis(3), 3);
        assert_eq!(e.high_watermark(), 3);
        // Draining does not lower the watermark.
        while e.next_event().is_some() {}
        assert!(e.queue_mut().is_empty());
        assert_eq!(e.high_watermark(), 3);
        // A smaller later burst does not raise it.
        e.schedule_in(SimDuration::from_millis(1), 4);
        assert_eq!(e.high_watermark(), 3);
    }

    #[test]
    fn schedule_in_after_the_clock_parks_at_the_horizon() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_in(SimDuration::from_millis(1), 1);
        e.schedule_at(SimTime::from_millis(3), 3);
        e.set_horizon(SimTime::from_millis(2));
        assert_eq!(e.next_event(), Some(1));
        assert_eq!(e.next_event(), None);
        assert_eq!(e.now(), SimTime::from_millis(2));
        // The parked clock is where the next delay counts from, and the
        // same delay's lane still accepts the push.
        e.schedule_in(SimDuration::from_millis(1), 4);
        e.schedule_in(SimDuration::from_micros(500), 2);
        e.set_horizon(SimTime::MAX);
        let mut order = Vec::new();
        while let Some(ev) = e.next_event() {
            order.push((e.now(), ev));
        }
        assert_eq!(
            order,
            [
                (SimTime::from_micros(2_500), 2),
                (SimTime::from_millis(3), 3),
                (SimTime::from_millis(3), 4),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "past")]
    fn scheduling_into_past_panics() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_millis(1), 1);
        e.next_event();
        e.schedule_at(SimTime::ZERO, 2);
    }
}
