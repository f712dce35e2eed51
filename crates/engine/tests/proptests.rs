//! Property-based tests for the engine primitives, driven by the
//! deterministic harness in `dibs_engine::testkit`.

use dibs_engine::queue::EventQueue;
use dibs_engine::rng::SimRng;
use dibs_engine::testkit::{cases, vec_of};
use dibs_engine::time::{SimDuration, SimTime};

/// Events always come out of the queue in nondecreasing time order, and
/// every pushed event is popped exactly once.
#[test]
fn queue_is_a_stable_priority_queue() {
    cases("queue-stable", |rng, _| {
        let times = vec_of(rng, 1..200, |r| r.range_u64(0, 1_000_000));
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<usize> = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, i)) = q.pop() {
            assert!(t >= last, "time went backwards: {t:?} after {last:?}");
            // FIFO among equal timestamps: any earlier pop with the same
            // time must carry a smaller insertion index.
            if t == last {
                if let Some(&prev) = popped.last() {
                    if times[prev] == times[i] {
                        assert!(prev < i, "FIFO violated: {prev} popped before {i}");
                    }
                }
            }
            last = t;
            popped.push(i);
        }
        let mut sorted = popped.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..times.len()).collect::<Vec<_>>());
    });
}

/// Pops are totally ordered by `(time, seq)`: among equal times, insertion
/// order (the queue's internal sequence number) breaks the tie, with no
/// exceptions even under heavy timestamp collision.
#[test]
fn queue_pops_totally_ordered_by_time_then_seq() {
    cases("queue-total-order", |rng, _| {
        // Few distinct timestamps → many collisions → the tiebreak carries
        // the ordering most of the time.
        let distinct = rng.range_u64(1, 8);
        let times = vec_of(rng, 2..300, |r| r.range_u64(0, distinct) * 1000);
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut prev: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            let key = (t, i);
            if let Some(p) = prev {
                assert!(
                    p < key,
                    "pop order not strictly increasing by (time, seq): {p:?} then {key:?}"
                );
            }
            prev = Some(key);
        }
    });
}

/// `push_after(now, delay)` keeps the same total order as an absolute push
/// at `now + delay`: pops strictly increase by `(time, seq)` whether an
/// event sits in a delay lane or the heap, with `now` following the clock
/// as the engine's does.
#[test]
fn push_after_pops_totally_ordered_by_time_then_seq() {
    cases("queue-push-after-order", |rng, _| {
        // Few distinct delays, some shared, so lanes collide and tie.
        let delays = vec_of(rng, 1..10, |r| r.range_u64(0, 8) * 250);
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        // Time of each pushed event, indexed by its push order.
        let mut times: Vec<SimTime> = Vec::new();
        let mut prev: Option<(SimTime, usize)> = None;
        let mut popped = 0;
        let mut check = |t: SimTime, i: usize, times: &[SimTime]| {
            assert_eq!(t, times[i], "event {i} popped at the wrong time");
            assert!(
                prev.is_none_or(|p| p < (t, i)),
                "pop order not strictly increasing by (time, seq): {prev:?} then {:?}",
                (t, i)
            );
            prev = Some((t, i));
        };
        for _ in 0..rng.range_u64(1, 400) {
            if rng.chance(0.6) {
                let delay = SimDuration::from_nanos(delays[rng.below(delays.len())]);
                if rng.chance(0.8) {
                    q.push_after(now, delay, times.len());
                } else {
                    q.push(now + delay, times.len());
                }
                times.push(now + delay);
            } else if let Some((t, i)) = q.pop() {
                check(t, i, &times);
                now = t;
                popped += 1;
            }
        }
        while let Some((t, i)) = q.pop() {
            check(t, i, &times);
            popped += 1;
        }
        assert_eq!(popped, times.len(), "every event pops exactly once");
    });
}

/// Serialization delay is monotone in size and antitone in rate.
#[test]
fn serialization_monotone() {
    cases("serialization-monotone", |rng, _| {
        let bytes = rng.range_u64(1, 1_000_000);
        let rate = rng.range_u64(1_000, 100_000_000_000);
        let d = SimDuration::serialization(bytes, rate);
        let d_bigger = SimDuration::serialization(bytes + 1, rate);
        let d_faster = SimDuration::serialization(bytes, rate * 2);
        assert!(d_bigger >= d);
        assert!(d_faster <= d);
        // Never zero for a nonzero packet.
        assert!(d > SimDuration::ZERO);
    });
}

/// Identical seeds yield identical streams.
#[test]
fn rng_determinism() {
    cases("rng-determinism", |rng, _| {
        let seed = rng.next_u64();
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(va, vb, "seed {seed}");
    });
}

/// sample_distinct returns exactly k distinct in-range values for all
/// valid (n, k).
#[test]
fn sample_distinct_contract() {
    cases("sample-distinct", |rng, _| {
        let n = usize::try_from(rng.range_u64(1, 200)).unwrap();
        let k = rng.below(n + 1);
        let seed = rng.next_u64();
        let mut inner = SimRng::new(seed);
        let s = inner.sample_distinct(n, k);
        assert_eq!(s.len(), k, "n={n} k={k} seed={seed}");
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), k, "duplicates for n={n} k={k} seed={seed}");
        assert!(s.iter().all(|&x| x < n));
    });
}

/// Time arithmetic: (t + d) - t == d for all representable pairs.
#[test]
fn time_addition_roundtrip() {
    cases("time-roundtrip", |rng, _| {
        let t = SimTime::from_nanos(rng.range_u64(0, u64::MAX / 4));
        let d = SimDuration::from_nanos(rng.range_u64(0, u64::MAX / 4));
        assert_eq!((t + d) - t, d);
    });
}
