//! The future-event list: a hierarchical timing wheel.
//!
//! # Ordering contract
//!
//! Events pop in ascending `(time, seq)` order, where `seq` is a monotone
//! per-queue sequence number assigned at push: nondecreasing time, FIFO
//! among events scheduled for the same instant. This is the total order
//! every deterministic run depends on, and it is byte-identical to the
//! binary-heap implementation this wheel replaced (kept in [`heap`] as the
//! differential-test oracle).
//!
//! In exchange for near-O(1) schedule/pop the wheel requires what the
//! engine already guarantees: **no event may be scheduled earlier than the
//! time of the most recently popped event** (the simulation clock never
//! runs backwards). Debug builds assert this on every push; the old heap
//! accepted such pushes only to trip its own pop-order audit one pop later.
//!
//! # Layout
//!
//! Eleven levels of 64 slots cover the full 64-bit nanosecond clock, each
//! level spanning 6 more bits of the timestamp. An event lands in the level
//! where its timestamp first diverges from `elapsed` (the last popped
//! time), so imminent events sit in level 0 — where each occupied slot
//! holds exactly one timestamp and pops are a bitmap scan plus an
//! unlink. Popping past a higher-level slot *cascades* it: the slot's
//! events redistribute into strictly lower levels, preserving push order,
//! so each event cascades at most `LEVELS - 1` times over its life.
//!
//! Storage is a node slab with intrusive per-slot FIFO chains: events are
//! written once on push and read once on pop, and a cascade relinks nodes
//! (one index write each) instead of moving entries between containers.

use crate::time::SimTime;

/// Bits of timestamp consumed per wheel level. Six bits keeps the
/// occupancy bitmaps in single machine words; wider levels (7 bits,
/// `u128` masks) measured slower end to end.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Levels; `11 * 6 = 66 >= 64` bits covers any `SimTime`.
const LEVELS: usize = 11;
/// Per-level occupancy bitmap type; must hold `SLOTS` bits.
type SlotMask = u64;

/// Sentinel node index: "no node" in slot chains and the free list.
const NIL: u32 = u32::MAX;

struct Node<E> {
    time: SimTime,
    /// Insertion order, read only by the debug pop-order audit: FIFO
    /// tie-breaking is structural (per-slot chains appended at the tail),
    /// so release builds drop the field entirely.
    #[cfg(debug_assertions)]
    seq: u64,
    /// Next node in this slot's FIFO chain, or in the free list.
    next: u32,
    /// `None` only while the node sits on the free list.
    event: Option<E>,
}

/// The wheel level at which `t` first diverges from `elapsed`.
#[inline]
fn level_for(elapsed: u64, t: u64) -> usize {
    let diff = elapsed ^ t;
    if diff == 0 {
        0
    } else {
        ((63 - diff.leading_zeros()) / SLOT_BITS) as usize
    }
}

/// The slot within `level` that holds timestamp `t`.
#[inline]
fn slot_of(t: u64, level: usize) -> usize {
    // Bounded by construction: the shift is at most 60 and the masked
    // value is below SLOTS.
    #[allow(clippy::cast_possible_truncation)]
    {
        ((t >> (level as u32 * SLOT_BITS)) & (SLOTS as u64 - 1)) as usize
    }
}

/// The earliest timestamp that maps to `(level, slot)` given the current
/// `elapsed` (the slot's high bits come from `elapsed`, everything below
/// the slot's own bits is zero).
#[inline]
fn slot_start(elapsed: u64, level: usize, slot: usize) -> u64 {
    // `level` is below LEVELS (11), so the cast and shift are in range.
    #[allow(clippy::cast_possible_truncation)]
    let lsh = level as u32 * SLOT_BITS;
    let high = if lsh + SLOT_BITS >= 64 {
        0
    } else {
        (elapsed >> (lsh + SLOT_BITS)) << (lsh + SLOT_BITS)
    };
    high | ((slot as u64) << lsh)
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
/// use dibs_engine::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_millis(2), "late");
/// q.push(SimTime::from_millis(1), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Node slab: every pending event lives here; freed nodes chain into
    /// `free_head` and are reused LIFO, so a pop-then-push cycle recycles
    /// still-cache-hot memory. Slot membership is intrusive (`Node::next`),
    /// so a cascade relinks nodes with one index write each instead of
    /// moving ~100-byte entries between deques.
    nodes: Vec<Node<E>>,
    /// Head of the free list (`NIL` when every slab node is live).
    free_head: u32,
    /// Per-slot FIFO chain heads, level-major (`NIL` = empty).
    head: [u32; LEVELS * SLOTS],
    /// Per-slot FIFO chain tails, level-major (`NIL` = empty).
    tail: [u32; LEVELS * SLOTS],
    /// Per-level bitmap of nonempty slots.
    occupied: [SlotMask; LEVELS],
    /// Nanosecond timestamp of the most recent pop (0 initially): the
    /// reference point every pending event is placed relative to.
    elapsed: u64,
    len: usize,
    next_seq: u64,
    pushed: u64,
    popped: u64,
    /// `(time, seq)` of the most recent pop, for the debug-build audit
    /// that dispatch order is strictly increasing.
    #[cfg(debug_assertions)]
    last_popped: Option<(SimTime, u64)>,
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
            nodes: Vec::new(),
            free_head: NIL,
            head: [NIL; LEVELS * SLOTS],
            tail: [NIL; LEVELS * SLOTS],
            occupied: [0; LEVELS],
            elapsed: 0,
            len: 0,
            next_seq: 0,
            pushed: 0,
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

    /// Pre-sizes the node slab for an expected pending-event population
    /// of `expected_events`, so the steady-state hot path never grows it.
    ///
    /// The slab holds only *concurrently pending* events (popped nodes are
    /// recycled), so callers may pass a whole run's event count: the hint
    /// is capped at 64 Ki nodes, beyond any plausible pending set.
    pub fn reserve(&mut self, expected_events: usize) {
        let want = expected_events.min(1 << 16);
        let spare = self.nodes.capacity() - self.nodes.len();
        if spare < want {
            self.nodes.reserve(want - spare);
        }
    }

    /// Takes a node off the free list (or grows the slab) and writes
    /// `node` into it, returning its index.
    #[inline]
    fn alloc(&mut self, node: Node<E>) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let cell = &mut self.nodes[idx as usize];
            self.free_head = cell.next;
            *cell = node;
            idx
        } else {
            let Ok(idx) = u32::try_from(self.nodes.len()) else {
                unreachable!("more than u32::MAX pending events")
            };
            self.nodes.push(node);
            idx
        }
    }

    /// Appends node `idx` to the FIFO chain of the slot its timestamp maps
    /// to under the current `elapsed`. Callers always link in ascending
    /// `seq` order, which is what keeps every chain FIFO.
    #[inline]
    fn link(&mut self, idx: u32) {
        let t = self.nodes[idx as usize].time.as_nanos();
        debug_assert!(
            t >= self.elapsed,
            "event scheduled at {t} ns, before the last popped time {} ns",
            self.elapsed,
        );
        let level = level_for(self.elapsed, t);
        let slot = slot_of(t, level);
        let li = level * SLOTS + slot;
        let tail = self.tail[li];
        if tail == NIL {
            self.head[li] = idx;
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.tail[li] = idx;
        self.nodes[idx as usize].next = NIL;
        self.occupied[level] |= (1 as SlotMask) << slot;
    }

    /// Schedules `event` to fire at `time`.
    ///
    /// `time` must not precede the most recently popped event's time (the
    /// simulation clock); debug builds assert it.
    pub fn push(&mut self, time: SimTime, event: E) {
        self.next_seq += 1;
        self.pushed += 1;
        self.len += 1;
        let idx = self.alloc(Node {
            time,
            #[cfg(debug_assertions)]
            seq: self.next_seq - 1,
            next: NIL,
            event: Some(event),
        });
        self.link(idx);
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
    /// One wheel walk instead of the `peek_time` + `pop` pair, which is
    /// what the engine's dispatch loop runs per event.
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        self.pop_impl(horizon.as_nanos())
    }

    fn pop_impl(&mut self, horizon: u64) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        loop {
            // Fast path: level 0, where every occupied slot holds exactly
            // one timestamp and the lowest set bit is the earliest.
            if self.occupied[0] != 0 {
                let slot = self.occupied[0].trailing_zeros() as usize;
                let idx = self.head[slot];
                debug_assert_ne!(idx, NIL, "occupied bit set for empty slot");
                let time = self.nodes[idx as usize].time;
                if time.as_nanos() > horizon {
                    return None;
                }
                let next = self.nodes[idx as usize].next;
                self.head[slot] = next;
                if next == NIL {
                    self.tail[slot] = NIL;
                    self.occupied[0] &= !((1 as SlotMask) << slot);
                }
                let Some(event) = self.nodes[idx as usize].event.take() else {
                    unreachable!("linked node carries no event")
                };
                self.nodes[idx as usize].next = self.free_head;
                self.free_head = idx;
                self.len -= 1;
                self.popped += 1;
                self.elapsed = time.as_nanos();
                #[cfg(debug_assertions)]
                {
                    let seq = self.nodes[idx as usize].seq;
                    assert!(
                        self.last_popped.is_none_or(|last| last < (time, seq)),
                        "event queue popped out of (time, seq) order: {:?} after {:?}",
                        (time, seq),
                        self.last_popped,
                    );
                    self.last_popped = Some((time, seq));
                }
                return Some((time, event));
            }

            // Cascade: relink the earliest occupied higher-level slot's
            // chain into strictly lower levels and retry. Nodes stay put
            // in the slab; only their `next` links and the slot head/tail
            // indices change.
            let Some(level) = (1..LEVELS).find(|&l| self.occupied[l] != 0) else {
                unreachable!("len > 0 but no occupied slot")
            };
            let slot = self.occupied[level].trailing_zeros() as usize;
            let li = level * SLOTS + slot;
            if horizon < u64::MAX {
                // A blocked pop must not mutate (a cascade advances
                // `elapsed` past the last popped time, which would reject
                // still-legal pushes), so decide from the slot's time span
                // before touching it; only when the horizon cuts through
                // the span does the slot's actual minimum matter.
                let start = slot_start(self.elapsed, level, slot);
                if start > horizon {
                    return None;
                }
                #[allow(clippy::cast_possible_truncation)]
                let span = 1u64 << (level as u32 * SLOT_BITS);
                if start.saturating_add(span - 1) > horizon {
                    let mut min_t = u64::MAX;
                    let mut walk = self.head[li];
                    while walk != NIL {
                        let n = &self.nodes[walk as usize];
                        min_t = min_t.min(n.time.as_nanos());
                        walk = n.next;
                    }
                    if min_t > horizon {
                        return None;
                    }
                }
            }
            let mut walk = self.head[li];
            self.head[li] = NIL;
            self.tail[li] = NIL;
            self.occupied[level] &= !((1 as SlotMask) << slot);
            // Advancing to the slot's start keeps `elapsed` at or below
            // every pending event, and relinking lands each node in a
            // strictly lower level, so the loop terminates. Walking in
            // chain order and appending preserves FIFO within each target
            // slot.
            self.elapsed = slot_start(self.elapsed, level, slot);
            while walk != NIL {
                let next = self.nodes[walk as usize].next;
                self.link(walk);
                walk = next;
            }
        }
    }

    /// The timestamp of the earliest pending event.
    ///
    /// Non-mutating: when the head sits in a higher-level slot this scans
    /// that one slot for its minimum (the subsequent `pop` cascades the
    /// same slot, so the scan amortizes away).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if self.occupied[0] != 0 {
            let slot = self.occupied[0].trailing_zeros() as usize;
            let idx = self.head[slot];
            debug_assert_ne!(idx, NIL, "occupied bit set for empty slot");
            return Some(self.nodes[idx as usize].time);
        }
        let level = (1..LEVELS).find(|&l| self.occupied[l] != 0)?;
        let slot = self.occupied[level].trailing_zeros() as usize;
        let mut min_t: Option<SimTime> = None;
        let mut walk = self.head[level * SLOTS + slot];
        while walk != NIL {
            let n = &self.nodes[walk as usize];
            min_t = Some(min_t.map_or(n.time, |m: SimTime| m.min(n.time)));
            walk = n.next;
        }
        min_t
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
        self.pushed
    }

    /// Total events ever dispatched.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events.
    ///
    /// Also resets the clock reference and the pop-order audit: a cleared
    /// queue may be reused for a fresh timeline starting at time zero.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free_head = NIL;
        self.head = [NIL; LEVELS * SLOTS];
        self.tail = [NIL; LEVELS * SLOTS];
        self.occupied = [0; LEVELS];
        self.len = 0;
        self.elapsed = 0;
        #[cfg(debug_assertions)]
        {
            self.last_popped = None;
        }
    }
}

/// The binary-heap future-event list the timing wheel replaced.
///
/// Kept as the reference implementation for differential tests: its pop
/// order is the specification the wheel must reproduce exactly.
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
    /// `(time, seq)` with FIFO tie-breaking — the wheel's oracle.
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
        // Timestamps straddling every wheel level boundary, pushed in a
        // scrambled order, must still pop sorted.
        let mut times = Vec::new();
        for level in 0..u32::try_from(LEVELS).expect("LEVELS fits u32") {
            let base = 1u64 << (level * SLOT_BITS);
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
