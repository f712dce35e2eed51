//! Per-port packet queues.
//!
//! Two disciplines are modeled: the FIFO droptail queue used by the
//! DCTCP/DIBS experiments, and the bounded priority queue of pFabric (§5.8),
//! which drops the *lowest-priority* resident packet to admit a
//! higher-priority arrival and dequeues in priority order.

use dibs_net::packet::{Packet, PktRef};
use std::collections::VecDeque;

/// Queue service discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// First-in first-out (the default in all DCTCP/DIBS experiments).
    Fifo,
    /// pFabric: priority dequeue, priority-displacement on overflow.
    Pfabric,
}

/// One resident packet: its store handle plus the two fields admission
/// and pFabric scans read, so neither touches the packet store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueEntry {
    /// The packet's handle in the simulator's packet store.
    pub pkt: PktRef,
    /// Bytes the packet occupies on the wire.
    pub wire_bytes: u32,
    /// pFabric priority (lower is served first).
    pub priority: u64,
}

impl QueueEntry {
    /// The entry for `pkt`, stored under handle `r`.
    pub fn of(r: PktRef, pkt: &Packet) -> Self {
        QueueEntry {
            pkt: r,
            wire_bytes: pkt.wire_bytes,
            priority: pkt.priority,
        }
    }
}

/// A single output-port queue.
#[derive(Debug)]
pub struct PortQueue {
    entries: VecDeque<QueueEntry>,
    bytes: u64,
    discipline: Discipline,
}

impl PortQueue {
    /// Creates an empty queue with the given discipline.
    pub fn new(discipline: Discipline) -> Self {
        Self::with_capacity(discipline, 0)
    }

    /// Creates an empty queue pre-sized for `capacity` resident packets.
    ///
    /// The switch derives `capacity` from its buffer limit so a port never
    /// reallocates its deque on the data path; admission control still
    /// happens in the switch, so this is purely an allocation hint.
    pub fn with_capacity(discipline: Discipline, capacity: usize) -> Self {
        PortQueue {
            entries: VecDeque::with_capacity(capacity),
            bytes: 0,
            discipline,
        }
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total queued bytes (wire sizes).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// The discipline this queue runs.
    pub fn discipline(&self) -> Discipline {
        self.discipline
    }

    /// Appends a packet (admission control happens in the switch, not here).
    #[inline]
    pub fn push(&mut self, entry: QueueEntry) {
        self.bytes += u64::from(entry.wire_bytes);
        self.entries.push_back(entry);
    }

    /// Removes the next packet to transmit according to the discipline.
    #[inline]
    pub fn pop(&mut self) -> Option<QueueEntry> {
        let entry = match self.discipline {
            Discipline::Fifo => self.entries.pop_front()?,
            Discipline::Pfabric => {
                let idx = self.highest_priority_index()?;
                self.entries.remove(idx)?
            }
        };
        self.bytes -= u64::from(entry.wire_bytes);
        Some(entry)
    }

    /// Index of the packet that pFabric would transmit next: numerically
    /// smallest priority value; FIFO among ties (which also keeps one flow's
    /// packets in order, since a flow's remaining size only shrinks).
    fn highest_priority_index(&self) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            if e.priority < self.entries[best].priority {
                best = i;
            }
        }
        Some(best)
    }

    /// Index and priority of the packet pFabric would displace:
    /// numerically largest priority value, most recent among ties.
    pub fn lowest_priority(&self) -> Option<(usize, u64)> {
        let mut worst: Option<(usize, u64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if worst.is_none_or(|(_, p)| e.priority >= p) {
                worst = Some((i, e.priority));
            }
        }
        worst
    }

    /// Removes the packet at `idx` (used for pFabric displacement).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn remove(&mut self, idx: usize) -> QueueEntry {
        let entry = self.entries.remove(idx).expect("index in range");
        self.bytes -= u64::from(entry.wire_bytes);
        entry
    }

    /// Drops all resident entries.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_engine::time::SimTime;
    use dibs_net::ids::{FlowId, HostId, PacketId};
    use dibs_net::packet::PacketStore;

    /// Parks a 1500-byte packet with id `id` and `priority` in `store`.
    fn entry(store: &mut PacketStore, id: u64, priority: u64) -> QueueEntry {
        let mut p = Packet::data(
            PacketId(id),
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        );
        p.priority = priority;
        let r = store.insert(p.clone());
        QueueEntry::of(r, &p)
    }

    fn id(store: &PacketStore, e: QueueEntry) -> u64 {
        store.get(e.pkt).id.0
    }

    #[test]
    fn fifo_order() {
        let mut store = PacketStore::new();
        let mut q = PortQueue::new(Discipline::Fifo);
        for i in 0..5 {
            q.push(entry(&mut store, i, 100 - i));
        }
        assert_eq!(q.len(), 5);
        assert_eq!(q.bytes(), 5 * 1500);
        for i in 0..5 {
            assert_eq!(id(&store, q.pop().unwrap()), i);
        }
        assert!(q.pop().is_none());
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn pfabric_pops_highest_priority_first() {
        let mut store = PacketStore::new();
        let mut q = PortQueue::new(Discipline::Pfabric);
        q.push(entry(&mut store, 0, 50));
        q.push(entry(&mut store, 1, 10)); // Smallest remaining size: highest priority.
        q.push(entry(&mut store, 2, 99));
        assert_eq!(id(&store, q.pop().unwrap()), 1);
        assert_eq!(id(&store, q.pop().unwrap()), 0);
        assert_eq!(id(&store, q.pop().unwrap()), 2);
    }

    #[test]
    fn pfabric_ties_stay_fifo() {
        let mut store = PacketStore::new();
        let mut q = PortQueue::new(Discipline::Pfabric);
        q.push(entry(&mut store, 0, 10));
        q.push(entry(&mut store, 1, 10));
        q.push(entry(&mut store, 2, 10));
        assert_eq!(id(&store, q.pop().unwrap()), 0);
        assert_eq!(id(&store, q.pop().unwrap()), 1);
    }

    #[test]
    fn displacement_target_is_worst_newest() {
        let mut store = PacketStore::new();
        let mut q = PortQueue::new(Discipline::Pfabric);
        assert_eq!(q.lowest_priority(), None);
        q.push(entry(&mut store, 0, 50));
        q.push(entry(&mut store, 1, 99));
        q.push(entry(&mut store, 2, 99));
        q.push(entry(&mut store, 3, 10));
        let (worst, priority) = q.lowest_priority().unwrap();
        assert_eq!(priority, 99);
        let removed = q.remove(worst);
        assert_eq!(id(&store, removed), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn byte_accounting_through_remove() {
        let mut store = PacketStore::new();
        let mut q = PortQueue::new(Discipline::Fifo);
        q.push(entry(&mut store, 0, 1));
        q.push(entry(&mut store, 1, 2));
        let before = q.bytes();
        q.remove(0);
        assert_eq!(q.bytes(), before - 1500);
        q.clear();
        assert_eq!(q.bytes(), 0);
        assert!(q.is_empty());
    }
}
