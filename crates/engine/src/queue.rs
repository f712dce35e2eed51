//! The future-event list: FIFO delay lanes merged with a binary heap.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(time, seq)` order, where `seq` is a monotone
//! per-queue sequence number assigned at push: nondecreasing time, FIFO
//! among events scheduled for the same instant. This is the total order
//! every deterministic run depends on. [`heap`] implements the same order
//! independently, as the differential-test oracle.
//!
//! # Layout
//!
//! Most events of a packet simulation are scheduled a fixed delay after
//! the current time: a link's propagation delay, or a packet's
//! serialization time at a port's rate. [`EventQueue::push_after`] appends
//! such an event to a FIFO *lane* keyed by its delay. A lane accepts an
//! event only at or after its tail's time, so every lane is sorted by
//! `(time, seq)` by construction, whatever clock the caller keeps. A push
//! that no lane of its delay accepts claims an empty lane; when none is
//! free it goes to a binary heap, as does every absolute-time
//! [`EventQueue::push`].
//!
//! Each source caches its head's `(time, seq)` packed into one `u128`, so
//! a pop is an argmin over `LANES + 1` integers plus one ring-buffer or
//! heap pop.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Delay lanes: enough for a fat-tree's link delay plus data and ack
/// serialization at two port rates. Every lane adds a compare to each push
/// and pop, and a delay with no lane of its own still pops in order, from
/// the heap.
const LANES: usize = 5;

/// Cached head key of an empty source. Above every real key, whose `seq`
/// half never reaches `u64::MAX`.
const EMPTY: u128 = u128::MAX;

/// Most events [`EventQueue::reserve`] pre-sizes the heap for.
const RESERVE_CAP: usize = 1 << 13;

/// `(time, seq)` packed so that integer order is pop order.
#[inline]
fn key(time: SimTime, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

/// The `(time, seq)` a key packs.
#[inline]
fn unpack(key: u128) -> (SimTime, u64) {
    // Each half holds a u64 by construction.
    #[allow(clippy::cast_possible_truncation)]
    (SimTime::from_nanos((key >> 64) as u64), key as u64)
}

struct Keyed<E> {
    key: u128,
    event: E,
}

impl<E> PartialEq for Keyed<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Keyed<E> {}

impl<E> PartialOrd for Keyed<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Keyed<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap and the smallest key pops
        // first.
        other.key.cmp(&self.key)
    }
}

/// A deterministic future-event list.
///
/// Events popped from the queue come out in nondecreasing time order; ties
/// are broken by insertion order.
///
/// # Examples
///
/// ```
/// use dibs_engine::queue::EventQueue;
/// use dibs_engine::time::{SimDuration, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push_after(SimTime::ZERO, SimDuration::from_millis(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Head key of each source, `EMPTY` when it holds nothing: the lanes
    /// first, the heap last.
    heads: [u128; LANES + 1],
    /// The delay each lane files; stale once the lane empties.
    delays: [u64; LANES],
    /// Time of each lane's newest event, the least time a push may join at.
    tails: [u64; LANES],
    lanes: [VecDeque<Keyed<E>>; LANES],
    heap: BinaryHeap<Keyed<E>>,
    len: usize,
    /// Sequence number of the next push, which is also the count of pushes.
    next_seq: u64,
    popped: u64,
    /// Key of the most recent pop, for the debug-build audit that
    /// dispatch order is strictly increasing.
    #[cfg(debug_assertions)]
    last_popped: Option<u128>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heads: [EMPTY; LANES + 1],
            delays: [0; LANES],
            tails: [0; LANES],
            lanes: std::array::from_fn(|_| VecDeque::new()),
            heap: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            popped: 0,
            #[cfg(debug_assertions)]
            last_popped: None,
        }
    }

    /// Creates an empty queue sized for roughly `cap` pending events
    /// (see [`EventQueue::reserve`]).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.reserve(cap);
        q
    }

    /// Pre-sizes the heap for `expected_events` pending events, so the
    /// steady-state hot path rarely grows it.
    ///
    /// Only *concurrently pending* events occupy space, so callers may
    /// pass a whole run's event count: the hint is capped at 8 Ki events.
    /// The heap holds the deep backlog (timers, flow starts: ~4.7 Ki at
    /// the peak of a K=8 fat-tree run); the lanes stay a few hundred deep
    /// and grow on their own, compact enough to stay cache-resident.
    pub fn reserve(&mut self, expected_events: usize) {
        let want = expected_events.min(RESERVE_CAP);
        self.heap.reserve(want.saturating_sub(self.heap.len()));
    }

    /// Assigns the next `(time, seq)` key and counts the push.
    #[inline]
    fn next_key(&mut self, time: SimTime) -> u128 {
        let k = key(time, self.next_seq);
        self.next_seq += 1;
        self.len += 1;
        k
    }

    /// Schedules `event` to fire at `time`.
    pub fn push(&mut self, time: SimTime, event: E) {
        let key = self.next_key(time);
        self.heads[LANES] = self.heads[LANES].min(key);
        self.heap.push(Keyed { key, event });
    }

    /// Schedules `event` to fire `delay` after `now`: the same order as
    /// `push(now + delay, event)`, filed in the lane for `delay` when one
    /// accepts it.
    // Plain `#[inline]` leaves it out of line in the simulator's dispatch loop.
    #[inline(always)]
    pub fn push_after(&mut self, now: SimTime, delay: SimDuration, event: E) {
        let time = now + delay;
        let (t, d) = (time.as_nanos(), delay.as_nanos());
        // An emptied lane keeps its delay and tail, so it may be rejoined
        // here or claimed below.
        let i = match (0..LANES).find(|&i| self.delays[i] == d && self.tails[i] <= t) {
            Some(i) => i,
            None => match (0..LANES).find(|&i| self.heads[i] == EMPTY) {
                Some(i) => {
                    self.delays[i] = d;
                    i
                }
                None => return self.push(time, event),
            },
        };
        let key = self.next_key(time);
        if self.heads[i] == EMPTY {
            self.heads[i] = key;
        }
        self.tails[i] = t;
        self.lanes[i].push_back(Keyed { key, event });
    }

    /// Removes and returns the earliest event, if any.
    ///
    /// Debug builds audit that pops come out in strictly increasing
    /// `(time, seq)` order — the total order every deterministic run
    /// depends on.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_impl(u64::MAX)
    }

    /// Pops the earliest event only if its time is `<= horizon`; returns
    /// `None` (without popping) when the queue is empty or the head lies
    /// beyond the horizon.
    ///
    /// One head scan instead of the `peek_time` + `pop` pair, which is
    /// what the engine's dispatch loop runs per event.
    #[inline]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.pop_impl(horizon.as_nanos())
    }

    /// The source holding the earliest event, and that event's key.
    #[inline]
    fn head(&self) -> (usize, u128) {
        let mut src = LANES;
        let mut head = self.heads[LANES];
        for (i, &k) in self.heads[..LANES].iter().enumerate() {
            if k < head {
                head = k;
                src = i;
            }
        }
        (src, head)
    }

    #[inline]
    fn pop_impl(&mut self, horizon: u64) -> Option<(SimTime, E)> {
        let (src, head) = self.head();
        if self.len == 0 || unpack(head).0.as_nanos() > horizon {
            return None;
        }
        let popped = if src == LANES {
            let popped = self.heap.pop();
            self.heads[LANES] = self.heap.peek().map_or(EMPTY, |e| e.key);
            popped
        } else {
            let lane = &mut self.lanes[src];
            let popped = lane.pop_front();
            self.heads[src] = lane.front().map_or(EMPTY, |e| e.key);
            popped
        };
        let Some(Keyed { key, event }) = popped else {
            unreachable!("a source with a head key holds no event")
        };
        debug_assert_eq!(key, head, "cached head key is stale");
        self.len -= 1;
        self.popped += 1;
        #[cfg(debug_assertions)]
        {
            assert!(
                self.last_popped.is_none_or(|last| last < key),
                "event queue popped out of (time, seq) order: {:?} after {:?}",
                unpack(key),
                self.last_popped.map(unpack),
            );
            self.last_popped = Some(key);
        }
        Some((unpack(key).0, event))
    }

    /// The timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        (self.len > 0).then(|| unpack(self.head().1).0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled.
    pub fn total_pushed(&self) -> u64 {
        self.next_seq
    }

    /// Total events ever dispatched.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events.
    ///
    /// Also resets the pop-order audit: a cleared queue may be reused for
    /// a fresh timeline starting at time zero.
    pub fn clear(&mut self) {
        for lane in &mut self.lanes {
            lane.clear();
        }
        self.heap.clear();
        self.heads = [EMPTY; LANES + 1];
        self.len = 0;
        #[cfg(debug_assertions)]
        {
            self.last_popped = None;
        }
    }
}

/// An independent binary-heap future-event list.
///
/// The reference implementation for differential tests: its pop order is
/// the specification [`EventQueue`] must reproduce exactly.
pub mod heap {
    use crate::time::SimTime;
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    struct Entry<E> {
        time: SimTime,
        seq: u64,
        event: E,
    }

    impl<E> PartialEq for Entry<E> {
        fn eq(&self, other: &Self) -> bool {
            self.time == other.time && self.seq == other.seq
        }
    }
    impl<E> Eq for Entry<E> {}

    impl<E> PartialOrd for Entry<E> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    impl<E> Ord for Entry<E> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reverse: BinaryHeap is a max-heap, we want the earliest
            // event first.
            other
                .time
                .cmp(&self.time)
                .then_with(|| other.seq.cmp(&self.seq))
        }
    }

    /// A deterministic future-event list over `BinaryHeap`, ordered by
    /// `(time, seq)` with FIFO tie-breaking — [`EventQueue`](super::EventQueue)'s oracle.
    pub struct HeapEventQueue<E> {
        heap: BinaryHeap<Entry<E>>,
        next_seq: u64,
        pushed: u64,
        popped: u64,
    }

    impl<E> Default for HeapEventQueue<E> {
        fn default() -> Self {
            Self::new()
        }
    }

    impl<E> HeapEventQueue<E> {
        /// Creates an empty queue.
        pub fn new() -> Self {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                next_seq: 0,
                pushed: 0,
                popped: 0,
            }
        }

        /// Schedules `event` to fire at `time`.
        pub fn push(&mut self, time: SimTime, event: E) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.pushed += 1;
            self.heap.push(Entry { time, seq, event });
        }

        /// Removes and returns the earliest event, if any.
        pub fn pop(&mut self) -> Option<(SimTime, E)> {
            let entry = self.heap.pop()?;
            self.popped += 1;
            Some((entry.time, entry.event))
        }

        /// The timestamp of the earliest pending event.
        pub fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|e| e.time)
        }

        /// Number of pending events.
        pub fn len(&self) -> usize {
            self.heap.len()
        }

        /// Whether no events are pending.
        pub fn is_empty(&self) -> bool {
            self.heap.is_empty()
        }

        /// Total events ever scheduled.
        pub fn total_pushed(&self) -> u64 {
            self.pushed
        }

        /// Total events ever dispatched.
        pub fn total_popped(&self) -> u64 {
            self.popped
        }

        /// Discards all pending events.
        pub fn clear(&mut self) {
            self.heap.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        for i in (0..100u64).rev() {
            q.push(SimTime::from_nanos(i * 7), i);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 100);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10 {
            q.push(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, ());
        q.push(SimTime::ZERO + SimDuration::from_nanos(1), ());
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.total_popped(), 1);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn crosses_level_boundaries_in_order() {
        // Timestamps straddling every power of 64 across the 64-bit clock,
        // pushed in a scrambled order, must still pop sorted.
        let mut times = Vec::new();
        for shift in (0..64).step_by(6) {
            let base = 1u64 << shift;
            times.extend([base.wrapping_sub(1), base, base + 1, base + (base >> 1)]);
        }
        times.push(u64::MAX);
        times.push(0);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        times.sort_unstable();
        let mut popped = Vec::new();
        while let Some((t, _)) = q.pop() {
            popped.push(t.as_nanos());
        }
        assert_eq!(popped, times);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        // Pops interleaved with pushes that respect the clock contract
        // (never below the last popped time).
        let mut q = EventQueue::new();
        let mut x = 9u64;
        for i in 0..64u64 {
            q.push(SimTime::from_nanos(i * 1000), i);
        }
        let mut last = 0u64;
        let mut popped = 0u64;
        while let Some((t, _)) = q.pop() {
            popped += 1;
            assert!(t.as_nanos() >= last);
            last = t.as_nanos();
            if popped <= 5000 {
                // Xorshift-ish scramble for a spread of future deltas.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                q.push(t + SimDuration::from_nanos(x % 500_000), popped + 64);
            }
        }
        assert_eq!(popped, 5000 + 64);
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), "a");
        q.push(SimTime::from_nanos(1_000_000), "b");
        let h = SimTime::from_nanos(500);
        assert_eq!(q.pop_at_or_before(h), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop_at_or_before(h), None);
        assert_eq!(q.len(), 1, "beyond-horizon event stays pending");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(1_000_000), "b")));
    }

    #[test]
    fn clear_resets_for_a_fresh_timeline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), 1u32);
        q.pop();
        q.push(SimTime::from_secs(9), 2);
        q.clear();
        // A cleared queue accepts a timeline restarting at zero.
        q.push(SimTime::ZERO, 3);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 3)));
    }

    #[test]
    fn reserve_is_inert_behaviorally() {
        let mut q = EventQueue::with_capacity(100_000);
        q.reserve(1_000_000);
        q.push(SimTime::from_nanos(7), 1u8);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(7), 1)));
    }

    #[test]
    fn lanes_guard_their_order_and_fall_back_to_the_heap() {
        let mut q = EventQueue::new();
        let d = SimDuration::from_nanos(100);
        let at = SimTime::from_nanos;
        // A push behind its lane's tail may not join it: it claims a free
        // lane.
        q.push_after(at(5_000), d, 0);
        q.push_after(at(4_000), d, 1);
        assert_eq!(q.lanes[0].len(), 1);
        assert_eq!(q.lanes[1].len(), 1);
        // One lane per further delay until they run out, then the heap.
        for i in 2..LANES as u64 + 2 {
            q.push_after(at(1_000), SimDuration::from_nanos(i), i);
        }
        assert!(q.heads[..LANES].iter().all(|&k| k != EMPTY));
        assert_eq!(q.heap.len(), 2);
        // Behind both of its lanes' tails, with none free: the heap.
        q.push_after(at(3_000), d, 100);
        assert_eq!(q.heap.len(), 3);
        // A push at or after the tail joins the lane.
        q.push_after(at(5_000), d, 101);
        assert_eq!(q.lanes[0].len(), 2);
        let mut popped = Vec::new();
        while let Some((t, i)) = q.pop() {
            popped.push((t.as_nanos(), i));
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), LANES + 4);
        assert_eq!(q.heads, [EMPTY; LANES + 1]);
    }

    #[test]
    fn heap_oracle_matches_on_ties() {
        let mut w = EventQueue::new();
        let mut h = heap::HeapEventQueue::new();
        let t = SimTime::from_millis(1);
        for i in 0..32u64 {
            let at = if i % 3 == 0 {
                t
            } else {
                SimTime::from_nanos(i)
            };
            w.push(at, i);
            h.push(at, i);
        }
        while let (Some(a), Some(b)) = (w.pop(), h.pop()) {
            assert_eq!(a, b);
        }
        assert!(w.is_empty() && h.is_empty());
    }
}
