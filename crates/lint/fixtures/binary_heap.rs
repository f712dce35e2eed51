// Fixture: the `binary-heap` lint must fire on ad-hoc priority queues in
// simulation code; all scheduling goes through the engine's EventQueue.
use std::collections::BinaryHeap;

fn event_list() -> BinaryHeap<u64> {
    BinaryHeap::new()
}
