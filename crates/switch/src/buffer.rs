//! Buffer admission control.
//!
//! The paper evaluates two memory organizations (§4, §5.5):
//!
//! * **Static** per-port buffers — the default configuration: a fixed number
//!   of packets per output port (100 in Table 1, swept 1–700 in Figs 7/12).
//! * **Dynamic Buffer Allocation (DBA)** — §5.5.2: a single shallow memory
//!   shared by all ports, modeled on the Arista 7050QX-32 (1.7 MB across
//!   8×1 GbE ports in the paper's simulation). We implement the classic
//!   Choudhury–Hahne dynamic-threshold rule: a port may grow its queue up to
//!   `alpha ×` the *remaining free* shared memory, with a small per-port
//!   reserve so no port can be starved outright.

use crate::queue::PortQueue;

/// Admission-control configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BufferConfig {
    /// Fixed per-port limit in packets.
    StaticPerPort {
        /// Maximum packets resident in any one output queue.
        packets: usize,
    },
    /// Shared memory with dynamic thresholds.
    DynamicShared {
        /// Total shared memory in bytes (1.7 MB in §5.5.2).
        total_bytes: u64,
        /// Dynamic-threshold factor `alpha`.
        alpha: f64,
        /// Bytes each port may always use regardless of the threshold.
        per_port_reserve_bytes: u64,
    },
    /// Unbounded queues (the "infinite buffer" baseline of Fig 6/7).
    Infinite,
}

impl BufferConfig {
    /// The paper's Table 1 default: 100 packets per port.
    pub fn paper_default() -> Self {
        BufferConfig::StaticPerPort { packets: 100 }
    }
}

/// Tracks shared-memory usage and answers "does this packet fit on this
/// port?".
#[derive(Debug, Clone)]
pub struct BufferManager {
    config: BufferConfig,
    shared_used: u64,
}

impl BufferManager {
    /// Creates a manager for the given configuration.
    pub fn new(config: BufferConfig) -> Self {
        BufferManager {
            config,
            shared_used: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> BufferConfig {
        self.config
    }

    /// Bytes currently admitted under shared-memory accounting (zero for
    /// static configurations).
    pub fn shared_used(&self) -> u64 {
        self.shared_used
    }

    /// Whether a packet of `wire_bytes` may be admitted to `queue`.
    pub fn admits(&self, queue: &PortQueue, wire_bytes: u32) -> bool {
        match self.config {
            BufferConfig::Infinite => true,
            BufferConfig::StaticPerPort { packets } => queue.len() < packets,
            BufferConfig::DynamicShared {
                total_bytes,
                alpha,
                per_port_reserve_bytes,
            } => {
                let wire = u64::from(wire_bytes);
                let free = total_bytes.saturating_sub(self.shared_used);
                if wire > free {
                    return false;
                }
                if queue.bytes() + wire <= per_port_reserve_bytes {
                    return true;
                }
                // Choudhury-Hahne: queue may grow to alpha * free memory.
                (queue.bytes() + wire) as f64 <= alpha * free as f64
            }
        }
    }

    /// Records admission of a packet.
    pub fn on_enqueue(&mut self, wire_bytes: u32) {
        if matches!(self.config, BufferConfig::DynamicShared { .. }) {
            self.shared_used += u64::from(wire_bytes);
        }
    }

    /// Records departure (transmit or displacement drop) of a packet.
    pub fn on_dequeue(&mut self, wire_bytes: u32) {
        if matches!(self.config, BufferConfig::DynamicShared { .. }) {
            self.shared_used = self
                .shared_used
                .checked_sub(u64::from(wire_bytes))
                .expect("buffer accounting underflow");
        }
    }

    /// Fraction of the port's buffer currently occupied, in `[0, 1]`.
    ///
    /// For shared memory this is the fraction of the *pool* in use, which is
    /// what the neighbor-availability statistic of Fig 5 wants.
    pub fn occupancy(&self, queue: &PortQueue) -> f64 {
        match self.config {
            BufferConfig::Infinite => 0.0,
            BufferConfig::StaticPerPort { packets } => {
                if packets == 0 {
                    1.0
                } else {
                    (queue.len() as f64 / packets as f64).min(1.0)
                }
            }
            BufferConfig::DynamicShared { total_bytes, .. } => {
                if total_bytes == 0 {
                    1.0
                } else {
                    (self.shared_used as f64 / total_bytes as f64).min(1.0)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::{Discipline, QueueEntry};
    use dibs_engine::time::SimTime;
    use dibs_net::ids::{FlowId, HostId, PacketId};
    use dibs_net::packet::{Packet, PacketStore};

    /// Parks a 1500-byte packet and returns its queue entry.
    fn pkt(store: &mut PacketStore) -> QueueEntry {
        let p = Packet::data(
            PacketId(0),
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        );
        QueueEntry::of(store.insert(p.clone()), &p)
    }

    #[test]
    fn static_limit_counts_packets() {
        let mut store = PacketStore::new();
        let mgr = BufferManager::new(BufferConfig::StaticPerPort { packets: 2 });
        let mut q = PortQueue::new(Discipline::Fifo);
        assert!(mgr.admits(&q, 1500));
        q.push(pkt(&mut store));
        assert!(mgr.admits(&q, 1500));
        q.push(pkt(&mut store));
        assert!(!mgr.admits(&q, 1500));
        assert!((mgr.occupancy(&q) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_always_admits() {
        let mut store = PacketStore::new();
        let mgr = BufferManager::new(BufferConfig::Infinite);
        let mut q = PortQueue::new(Discipline::Fifo);
        for _ in 0..10_000 {
            q.push(pkt(&mut store));
        }
        assert!(mgr.admits(&q, 1500));
        assert_eq!(mgr.occupancy(&q), 0.0);
    }

    #[test]
    fn dynamic_threshold_shrinks_as_pool_fills() {
        let mut store = PacketStore::new();
        let mut mgr = BufferManager::new(BufferConfig::DynamicShared {
            total_bytes: 15_000, // Room for 10 x 1500B.
            alpha: 1.0,
            per_port_reserve_bytes: 0,
        });
        let mut hot = PortQueue::new(Discipline::Fifo);
        // Fill the hot port until the dynamic threshold rejects it.
        let mut admitted = 0;
        while mgr.admits(&hot, 1500) {
            hot.push(pkt(&mut store));
            mgr.on_enqueue(1500);
            admitted += 1;
            assert!(admitted <= 10, "admitted past total memory");
        }
        // With alpha=1 a single hot queue stabilizes at half the pool:
        // q <= total - q.
        assert_eq!(admitted, 5);
        // A cold port can still get something in (free = 7500, queue 0).
        let cold = PortQueue::new(Discipline::Fifo);
        assert!(mgr.admits(&cold, 1500));
    }

    #[test]
    fn reserve_guarantees_minimum() {
        let mut store = PacketStore::new();
        let mut mgr = BufferManager::new(BufferConfig::DynamicShared {
            total_bytes: 10 * 1500,
            alpha: 0.0001, // Threshold effectively zero.
            per_port_reserve_bytes: 2 * 1500,
        });
        let mut q = PortQueue::new(Discipline::Fifo);
        assert!(mgr.admits(&q, 1500));
        q.push(pkt(&mut store));
        mgr.on_enqueue(1500);
        assert!(mgr.admits(&q, 1500));
        q.push(pkt(&mut store));
        mgr.on_enqueue(1500);
        // Beyond the reserve the tiny alpha rejects.
        assert!(!mgr.admits(&q, 1500));
    }

    #[test]
    fn never_admits_past_total() {
        let mut store = PacketStore::new();
        let mut mgr = BufferManager::new(BufferConfig::DynamicShared {
            total_bytes: 3 * 1500,
            alpha: 100.0, // Huge alpha: only the hard cap binds.
            per_port_reserve_bytes: 0,
        });
        let mut q = PortQueue::new(Discipline::Fifo);
        let mut admitted = 0;
        while mgr.admits(&q, 1500) {
            q.push(pkt(&mut store));
            mgr.on_enqueue(1500);
            admitted += 1;
            assert!(admitted <= 3);
        }
        assert_eq!(admitted, 3);
        // Dequeue releases memory.
        mgr.on_dequeue(1500);
        assert!(mgr.admits(&q, 1500));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn dequeue_underflow_is_a_bug() {
        let mut mgr = BufferManager::new(BufferConfig::DynamicShared {
            total_bytes: 1_700_000,
            alpha: 1.0,
            per_port_reserve_bytes: 2 * 1500,
        });
        mgr.on_dequeue(1500);
    }
}
