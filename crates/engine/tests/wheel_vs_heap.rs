//! Differential test: the timing wheel must reproduce the binary-heap
//! oracle's pop sequence exactly — same `(time, event)` pairs, same FIFO
//! order among same-timestamp events — under a long randomized
//! schedule/pop/clear workload.
//!
//! The workload respects the queue contract (no push below the last
//! popped time, which is what the engine's monotone clock guarantees) and
//! deliberately generates long same-timestamp runs, cross-level jumps,
//! and periodic `clear()`s (the cancel-everything path).

use dibs_engine::queue::{heap::HeapEventQueue, EventQueue};
use dibs_engine::rng::SimRng;
use dibs_engine::time::{SimDuration, SimTime};

/// Total schedule/pop/clear operations driven through both queues.
const TOTAL_OPS: u64 = 1_200_000;

#[test]
fn wheel_matches_heap_on_randomized_workload() {
    let mut rng = SimRng::new(0xD1FF_5EED);
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();

    // The queue contract: pushes never precede the last popped time.
    let mut clock = SimTime::ZERO;
    let mut next_id = 0u64;
    let mut pops = 0u64;
    let mut tie_runs = 0u64;

    for op in 0..TOTAL_OPS {
        match rng.below(10) {
            // 0..=4: schedule one event at a varied future offset.
            0..=4 => {
                // Mix tight offsets (level 0/1) with long jumps that land
                // several wheel levels out.
                let delta = match rng.below(4) {
                    0 => rng.range_u64(0, 64),
                    1 => rng.range_u64(0, 4_096),
                    2 => rng.range_u64(0, 1 << 20),
                    _ => rng.range_u64(0, 1 << 36),
                };
                let at = clock + SimDuration::from_nanos(delta);
                wheel.push(at, next_id);
                heap.push(at, next_id);
                next_id += 1;
            }
            // 5: schedule a same-timestamp FIFO run (the tie-break path).
            5 => {
                let at = clock + SimDuration::from_nanos(rng.range_u64(0, 10_000));
                let run = 2 + rng.below(14);
                for _ in 0..run {
                    wheel.push(at, next_id);
                    heap.push(at, next_id);
                    next_id += 1;
                }
                tie_runs += 1;
            }
            // 6..=8: pop from both and compare.
            6..=8 => {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "pop #{pops} diverged at op {op}");
                if let Some((t, _)) = a {
                    assert!(t >= clock, "pop went backwards at op {op}");
                    clock = t;
                    pops += 1;
                }
                assert_eq!(wheel.peek_time(), heap.peek_time());
                assert_eq!(wheel.len(), heap.len());
            }
            // 9: occasionally cancel everything (the clear path). Rare so
            // the pending set grows into the hundreds of thousands.
            _ => {
                if rng.chance(0.001) {
                    wheel.clear();
                    heap.clear();
                    clock = SimTime::ZERO;
                }
            }
        }
    }

    // Drain both queues to the end; tails must match too.
    loop {
        let a = wheel.pop();
        let b = heap.pop();
        assert_eq!(a, b, "drain diverged after {pops} pops");
        if a.is_none() {
            break;
        }
        pops += 1;
    }
    assert!(wheel.is_empty() && heap.is_empty());
    assert!(
        pops > 100_000,
        "workload too small to be meaningful: {pops}"
    );
    assert!(tie_runs > 10_000, "tie coverage too small: {tie_runs}");
}

#[test]
fn wheel_matches_heap_under_horizon_pops() {
    // `pop_at_or_before` against the oracle's peek+pop equivalent.
    let mut rng = SimRng::new(0x0A11_0F12);
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap: HeapEventQueue<u32> = HeapEventQueue::new();
    let mut clock = SimTime::ZERO;

    for i in 0..200_000u32 {
        if rng.chance(0.6) {
            let at = clock + SimDuration::from_nanos(rng.range_u64(0, 1 << 22));
            wheel.push(at, i);
            heap.push(at, i);
        } else {
            let horizon = clock + SimDuration::from_nanos(rng.range_u64(0, 1 << 18));
            let a = wheel.pop_at_or_before(horizon);
            let b = match heap.peek_time() {
                Some(t) if t <= horizon => heap.pop(),
                _ => None,
            };
            assert_eq!(a, b, "horizon pop diverged at step {i}");
            if let Some((t, _)) = a {
                clock = t;
            }
        }
    }
}
