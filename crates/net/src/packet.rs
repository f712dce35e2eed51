//! Packet representation.
//!
//! Packets are metadata-only: the simulator never materializes payload
//! bytes. Transports build a [`Packet`] by value; once a host sends it, the
//! simulator parks it in a [`PacketStore`] and queues and events carry only
//! its 4-byte [`PktRef`] handle until it is delivered or dropped.

use crate::ids::{FlowId, HostId, PacketId};
use dibs_engine::time::SimTime;

/// TCP/IP header overhead charged to every segment, in bytes.
pub const HEADER_BYTES: u32 = 40;
/// Minimum Ethernet frame size, in bytes.
pub const MIN_FRAME_BYTES: u32 = 64;
/// Default initial TTL (matches common OS defaults and the paper's "Max").
pub const DEFAULT_TTL: u8 = 255;

/// Whether a packet carries data or acknowledges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data segment; `seq` is the offset of its first payload byte.
    Data,
    /// A (cumulative) acknowledgment; `seq` is the next expected byte.
    Ack,
}

/// A simulated packet.
///
/// # Examples
///
/// ```
/// use dibs_net::packet::Packet;
/// use dibs_net::ids::{FlowId, HostId, PacketId};
/// use dibs_engine::time::SimTime;
///
/// let p = Packet::data(
///     PacketId(0), FlowId(1), HostId(0), HostId(5),
///     0, 1460, 64, SimTime::ZERO,
/// );
/// assert_eq!(p.wire_bytes, 1500);
/// assert!(p.is_data());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Unique per-transmission id (retransmissions get fresh ids).
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Data or acknowledgment.
    pub kind: PacketKind,
    /// Byte offset (data) or cumulative ack (ack).
    pub seq: u64,
    /// Payload bytes carried (0 for pure acks).
    pub payload_bytes: u32,
    /// Bytes occupied on the wire (payload + headers, floor at min frame).
    pub wire_bytes: u32,
    /// ECN Congestion Experienced: set by switches whose queue exceeds the
    /// marking threshold.
    pub ce: bool,
    /// ECN Echo: on acks, relays the CE bit of the acknowledged data.
    pub ece: bool,
    /// Remaining hop budget; switches decrement it and drop at zero.
    pub ttl: u8,
    /// pFabric priority: the flow's remaining size when the packet was sent.
    /// Lower values are higher priority. `u64::MAX` means "unprioritized".
    pub priority: u64,
    /// Number of times any switch detoured this packet (DIBS diagnostics).
    pub detours: u16,
    /// Ingress port at the switch currently buffering the packet
    /// (maintained by the simulator for PFC ingress accounting).
    pub last_ingress: u16,
    /// Total switch hops traversed (diagnostics).
    pub hops: u16,
    /// When the sender emitted this packet.
    pub sent_at: SimTime,
    /// Read on acks only: the echoed `sent_at` of the newest data packet
    /// the ack covers (TCP timestamps, RFC 7323), the sender's one RTT
    /// sample source, valid across retransmissions. Data packets carry
    /// [`SimTime::ZERO`].
    pub ts_echo: SimTime,
    /// Whether this is a retransmission (diagnostics).
    pub retransmit: bool,
}

impl Packet {
    /// Builds a data segment.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        id: PacketId,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        seq: u64,
        payload_bytes: u32,
        ttl: u8,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            kind: PacketKind::Data,
            seq,
            payload_bytes,
            wire_bytes: (payload_bytes + HEADER_BYTES).max(MIN_FRAME_BYTES),
            ce: false,
            ece: false,
            ttl,
            priority: u64::MAX,
            detours: 0,
            last_ingress: 0,
            hops: 0,
            sent_at,
            ts_echo: SimTime::ZERO,
            retransmit: false,
        }
    }

    /// Builds a pure acknowledgment; the receiver then sets its
    /// [`Packet::ts_echo`].
    #[allow(clippy::too_many_arguments)]
    pub fn ack(
        id: PacketId,
        flow: FlowId,
        src: HostId,
        dst: HostId,
        ack_seq: u64,
        ece: bool,
        ttl: u8,
        sent_at: SimTime,
    ) -> Self {
        Packet {
            id,
            flow,
            src,
            dst,
            kind: PacketKind::Ack,
            seq: ack_seq,
            payload_bytes: 0,
            wire_bytes: MIN_FRAME_BYTES,
            ce: false,
            ece,
            ttl,
            priority: u64::MAX,
            detours: 0,
            last_ingress: 0,
            hops: 0,
            sent_at,
            ts_echo: SimTime::ZERO,
            retransmit: false,
        }
    }

    /// Whether this is a data segment.
    pub fn is_data(&self) -> bool {
        self.kind == PacketKind::Data
    }

    /// Whether this is an acknowledgment.
    pub fn is_ack(&self) -> bool {
        self.kind == PacketKind::Ack
    }

    /// The byte just past this data segment's payload.
    pub fn seq_end(&self) -> u64 {
        self.seq + u64::from(self.payload_bytes)
    }

    /// Marks the packet with Congestion Experienced.
    pub fn mark_ce(&mut self) {
        self.ce = true;
    }

    /// Decrements TTL; returns `false` when the packet must be dropped.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.ttl == 0 {
            return false;
        }
        self.ttl -= 1;
        self.ttl > 0
    }
}

/// Handle to a packet resident in a [`PacketStore`].
///
/// Valid from [`PacketStore::insert`] until the matching
/// [`PacketStore::release`]; the slot is recycled afterwards, so a handle
/// must not outlive its release.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PktRef(u32);

impl PktRef {
    /// The slot index this handle names.
    fn index(self) -> usize {
        self.0 as usize
    }
}

/// Slab of in-flight packets with a LIFO free list.
///
/// A packet enters once, when a host sends it, and leaves once, when it
/// is delivered or dropped; in between it never moves, and switches mark
/// it in place through [`PacketStore::get_mut`]. [`PacketStore::live`] is
/// therefore exactly the number of packets in flight. Released slots are
/// reused most-recent-first, so a release-then-insert cycle (delivery
/// triggering an ack) touches a slot that is still in cache.
#[derive(Debug, Default)]
pub struct PacketStore {
    slots: Vec<Packet>,
    /// Released slot indices; the top is reused first.
    free: Vec<u32>,
    /// `live_bits[i]` — slot `i` holds a packet; debug builds check every
    /// access and panic on a double release.
    #[cfg(debug_assertions)]
    live_bits: Vec<bool>,
}

impl PacketStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the slab for `expected` concurrently live packets, so the
    /// data path never grows it.
    pub fn reserve(&mut self, expected: usize) {
        let spare = self.slots.capacity() - self.slots.len();
        if spare < expected {
            self.slots.reserve(expected - spare);
            #[cfg(debug_assertions)]
            self.live_bits.reserve(expected - spare);
        }
    }

    /// Parks `pkt` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` packets are live at once.
    pub fn insert(&mut self, pkt: Packet) -> PktRef {
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx as usize] = pkt;
                idx
            }
            None => {
                let Ok(idx) = u32::try_from(self.slots.len()) else {
                    unreachable!("more than u32::MAX live packets")
                };
                self.slots.push(pkt);
                #[cfg(debug_assertions)]
                self.live_bits.push(false);
                idx
            }
        };
        #[cfg(debug_assertions)]
        {
            self.live_bits[idx as usize] = true;
        }
        PktRef(idx)
    }

    /// Removes the packet behind `r`, returning it; `r` is dead afterwards.
    ///
    /// # Panics
    ///
    /// Debug builds panic when `r` was already released.
    pub fn release(&mut self, r: PktRef) -> Packet {
        #[cfg(debug_assertions)]
        {
            let bit = &mut self.live_bits[r.index()];
            assert!(*bit, "packet slot {} released twice", r.0);
            *bit = false;
        }
        self.free.push(r.0);
        self.slots[r.index()].clone()
    }

    /// The packet behind `r`.
    #[inline]
    pub fn get(&self, r: PktRef) -> &Packet {
        self.debug_check_live(r);
        &self.slots[r.index()]
    }

    /// The packet behind `r`, for in-place updates (TTL, marks, counters).
    #[inline]
    pub fn get_mut(&mut self, r: PktRef) -> &mut Packet {
        self.debug_check_live(r);
        &mut self.slots[r.index()]
    }

    /// Packets currently parked: inserted and not yet released.
    pub fn live(&self) -> u64 {
        (self.slots.len() - self.free.len()) as u64
    }

    #[inline]
    fn debug_check_live(&self, r: PktRef) {
        #[cfg(debug_assertions)]
        assert!(self.live_bits[r.index()], "packet slot {} is not live", r.0);
        let _ = r;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data() -> Packet {
        Packet::data(
            PacketId(1),
            FlowId(2),
            HostId(3),
            HostId(4),
            1460,
            1460,
            DEFAULT_TTL,
            SimTime::ZERO,
        )
    }

    #[test]
    fn wire_size_includes_headers() {
        let p = sample_data();
        assert_eq!(p.wire_bytes, 1500);
        assert_eq!(p.seq_end(), 2920);
    }

    #[test]
    fn tiny_payload_floors_at_min_frame() {
        let p = Packet::data(
            PacketId(0),
            FlowId(0),
            HostId(0),
            HostId(1),
            0,
            1,
            64,
            SimTime::ZERO,
        );
        assert_eq!(p.wire_bytes, MIN_FRAME_BYTES);
    }

    #[test]
    fn ack_is_minimum_frame() {
        let a = Packet::ack(
            PacketId(0),
            FlowId(0),
            HostId(1),
            HostId(0),
            2920,
            true,
            64,
            SimTime::ZERO,
        );
        assert_eq!(a.wire_bytes, MIN_FRAME_BYTES);
        assert!(a.is_ack());
        assert!(a.ece);
        assert_eq!(a.payload_bytes, 0);
    }

    #[test]
    fn ttl_decrements_to_drop() {
        let mut p = sample_data();
        p.ttl = 2;
        assert!(p.decrement_ttl());
        assert!(!p.decrement_ttl());
        assert_eq!(p.ttl, 0);
        // Repeated calls stay "drop".
        assert!(!p.decrement_ttl());
    }

    #[test]
    fn store_reuses_slots_lifo() {
        let mut store = PacketStore::new();
        let a = store.insert(sample_data());
        let b = store.insert(sample_data());
        let c = store.insert(sample_data());
        assert_eq!((a.index(), b.index(), c.index()), (0, 1, 2));
        store.release(a);
        store.release(c);
        // Most recently released first, then the older hole, then growth.
        assert_eq!(store.insert(sample_data()), c);
        assert_eq!(store.insert(sample_data()), a);
        assert_eq!(store.insert(sample_data()).index(), 3);
    }

    #[test]
    fn store_live_counts_inserts_minus_releases() {
        let mut store = PacketStore::new();
        store.reserve(8);
        assert_eq!(store.live(), 0);
        let refs: Vec<PktRef> = (0..5).map(|_| store.insert(sample_data())).collect();
        assert_eq!(store.live(), 5);
        for &r in &refs[..3] {
            store.release(r);
        }
        assert_eq!(store.live(), 2);
        store.insert(sample_data());
        assert_eq!(store.live(), 3);
    }

    #[test]
    fn store_updates_in_place_and_release_returns_the_packet() {
        let mut store = PacketStore::new();
        let r = store.insert(sample_data());
        store.get_mut(r).mark_ce();
        store.get_mut(r).detours += 2;
        assert!(store.get(r).ce);
        let p = store.release(r);
        assert!(p.ce);
        assert_eq!(p.detours, 2);
        assert_eq!(p.id, PacketId(1));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "released twice")]
    fn store_double_release_panics_in_debug() {
        let mut store = PacketStore::new();
        let r = store.insert(sample_data());
        store.release(r);
        store.release(r);
    }

    #[test]
    fn ce_marking() {
        let mut p = sample_data();
        assert!(!p.ce);
        p.mark_ce();
        assert!(p.ce);
    }
}
