//! The TCP receiver: cumulative acks, out-of-order reassembly, ECN echo.
//!
//! DIBS deliberately reorders packets, so the receiver's reassembly queue is
//! exercised heavily. Two acknowledgment modes are supported:
//!
//! * **Per-packet immediate acks** (`ack_every = 1`, the default): every
//!   data packet is acked at once, with the ECN Echo bit relaying that
//!   packet's CE mark. This gives the sender an exact marked-byte count.
//! * **DCTCP delayed acks** (`ack_every = m > 1`): the state machine from
//!   the DCTCP paper [18] — one cumulative ack per `m` in-order packets,
//!   except that a change in the CE state triggers an immediate ack for the
//!   just-ended run (carrying that run's ECE), and out-of-order, duplicate,
//!   gap-filling, or stream-completing packets are always acked
//!   immediately. These immediate-ack rules also make a delayed-ack timer
//!   unnecessary: every situation in which the sender is blocked on the
//!   final unacked packet generates an immediate ack.

use crate::IdGen;
use dibs_engine::time::SimTime;
use dibs_net::ids::{FlowId, HostId};
use dibs_net::packet::Packet;
use std::collections::BTreeMap;

/// Receiver-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReceiverCounters {
    /// Packets that arrived out of order and were buffered.
    pub out_of_order: u64,
    /// Packets that duplicated already-received data.
    pub duplicates: u64,
    /// Acks emitted.
    pub acks_sent: u64,
}

/// Reassembly and acknowledgment state for one flow.
#[derive(Debug)]
pub struct TcpReceiver {
    flow: FlowId,
    /// The receiving host (source of acks).
    host: HostId,
    /// The sending host (destination of acks).
    peer: HostId,
    expected: u64,
    rcv_nxt: u64,
    /// Out-of-order segments: start -> end, non-overlapping, coalesced.
    ooo: BTreeMap<u64, u64>,
    ack_ttl: u8,
    completed: Option<SimTime>,
    counters: ReceiverCounters,
    /// Ack coalescing factor `m` (1 = immediate per-packet acks).
    ack_every: u32,
    /// In-order packets received since the last ack.
    pending: u32,
    /// CE state of the current run (DCTCP delayed-ack state machine).
    last_ce: bool,
    /// Send time of the newest pending packet (for the timestamp echo).
    pending_ts: Option<SimTime>,
}

impl TcpReceiver {
    /// Creates a receiver expecting `expected` bytes on `flow`, with DCTCP
    /// delayed acks: one ack per `ack_every` in-order packets (1 acks every
    /// packet immediately; see the module docs for the immediate-ack rules).
    ///
    /// # Panics
    ///
    /// Panics if `ack_every` is zero.
    pub fn new(
        flow: FlowId,
        host: HostId,
        peer: HostId,
        expected: u64,
        ack_ttl: u8,
        ack_every: u32,
    ) -> Self {
        assert!(ack_every >= 1, "ack_every must be at least 1");
        TcpReceiver {
            flow,
            host,
            peer,
            expected,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            ack_ttl,
            completed: None,
            counters: ReceiverCounters::default(),
            ack_every,
            pending: 0,
            last_ce: false,
            pending_ts: None,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Next expected byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Whether all expected bytes have arrived in order.
    pub fn is_complete(&self) -> bool {
        self.completed.is_some()
    }

    /// When the final byte arrived.
    pub fn completed_at(&self) -> Option<SimTime> {
        self.completed
    }

    /// Number of buffered out-of-order segments.
    pub fn ooo_segments(&self) -> usize {
        self.ooo.len()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> ReceiverCounters {
        self.counters
    }

    /// Processes a data packet; returns the ack to send, if the ack policy
    /// emits one now.
    ///
    /// With `ack_every = 1` (the default) this always returns `Some` and
    /// the ack's ECE bit echoes the packet's CE mark. With delayed acks the
    /// DCTCP state machine decides (see the module docs).
    pub fn on_data(&mut self, pkt: &Packet, now: SimTime, ids: &mut IdGen) -> Option<Packet> {
        debug_assert!(pkt.is_data());
        debug_assert_eq!(pkt.flow, self.flow);
        let (start, end) = (pkt.seq, pkt.seq_end());

        let mut exceptional = false; // Duplicate / OOO / gap-filling.
        if end <= self.rcv_nxt {
            self.counters.duplicates += 1;
            exceptional = true;
        } else if start <= self.rcv_nxt {
            // In-order (possibly partially duplicate): advance and drain the
            // reassembly queue.
            let had_gap_waiting = !self.ooo.is_empty();
            self.rcv_nxt = end;
            self.drain_ooo();
            if had_gap_waiting {
                exceptional = true;
            }
        } else {
            self.insert_ooo(start, end);
            exceptional = true;
        }

        if self.completed.is_none() && self.rcv_nxt >= self.expected {
            self.completed = Some(now);
        }

        if self.ack_every == 1 {
            return Some(self.make_ack(pkt.ce, pkt.sent_at, now, ids));
        }

        // DCTCP delayed-ack state machine.
        if pkt.ce != self.last_ce {
            // CE state change: immediately ack the run that just ended,
            // carrying the *old* state, then start a new run with this
            // packet pending.
            let old_state = self.last_ce;
            self.last_ce = pkt.ce;
            let echo = self.pending_ts.replace(pkt.sent_at).unwrap_or(pkt.sent_at);
            self.pending = 1;
            return Some(self.make_ack(old_state, echo, now, ids));
        }
        self.pending += 1;
        let done = self.rcv_nxt >= self.expected;
        if exceptional || done || self.pending >= self.ack_every {
            self.pending = 0;
            self.pending_ts = None;
            return Some(self.make_ack(self.last_ce, pkt.sent_at, now, ids));
        }
        self.pending_ts = Some(pkt.sent_at);
        None
    }

    fn make_ack(&mut self, ece: bool, ts_echo: SimTime, now: SimTime, ids: &mut IdGen) -> Packet {
        self.counters.acks_sent += 1;
        let mut ack = Packet::ack(
            ids.next(),
            self.flow,
            self.host,
            self.peer,
            self.rcv_nxt,
            ece,
            self.ack_ttl,
            now,
        );
        // TCP timestamps (RFC 7323): echo the send time of the newest
        // packet this ack covers, so the sender can sample RTT even across
        // retransmissions.
        ack.ts_echo = ts_echo;
        ack
    }

    fn drain_ooo(&mut self) {
        while let Some((&start, &end)) = self.ooo.first_key_value() {
            if start > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            if end > self.rcv_nxt {
                self.rcv_nxt = end;
            }
        }
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        // Check whether the new range is already fully covered.
        if let Some((&s, &e)) = self.ooo.range(..=start).next_back() {
            if s <= start && end <= e {
                self.counters.duplicates += 1;
                return;
            }
        }
        self.counters.out_of_order += 1;
        // Merge with any overlapping or adjacent ranges.
        let mut new_start = start;
        let mut new_end = end;
        // Predecessor overlapping/touching.
        if let Some((&s, &e)) = self.ooo.range(..=start).next_back() {
            if e >= new_start {
                new_start = s;
                new_end = new_end.max(e);
                self.ooo.remove(&s);
            }
        }
        // Successors overlapping/touching.
        let keys: Vec<u64> = self
            .ooo
            .range(new_start..=new_end)
            .map(|(&s, _)| s)
            .collect();
        for s in keys {
            let e = self.ooo.remove(&s).expect("key exists");
            new_end = new_end.max(e);
        }
        self.ooo.insert(new_start, new_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dibs_net::ids::PacketId;

    fn data(seq: u64, len: u32, ce: bool) -> Packet {
        let mut p = Packet::data(
            PacketId(seq),
            FlowId(1),
            HostId(0),
            HostId(1),
            seq,
            len,
            64,
            SimTime::ZERO,
        );
        p.ce = ce;
        p
    }

    fn rcv(expected: u64) -> (TcpReceiver, IdGen) {
        (
            TcpReceiver::new(FlowId(1), HostId(1), HostId(0), expected, 255, 1),
            IdGen::new(),
        )
    }

    #[test]
    fn in_order_delivery() {
        let (mut r, mut ids) = rcv(4380);
        for i in 0..3 {
            let ack = r
                .on_data(&data(i * 1460, 1460, false), SimTime::ZERO, &mut ids)
                .unwrap();
            assert_eq!(ack.seq, (i + 1) * 1460);
            assert!(!ack.ece);
            assert!(ack.is_ack());
            assert_eq!(ack.src, HostId(1));
            assert_eq!(ack.dst, HostId(0));
        }
        assert!(r.is_complete());
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn reorder_buffers_and_drains() {
        let (mut r, mut ids) = rcv(4380);
        // Segments 2, 1, 0.
        let a = r
            .on_data(&data(2920, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 0, "nothing in order yet");
        let a = r
            .on_data(&data(1460, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 0);
        assert_eq!(r.ooo_segments(), 1, "adjacent ranges coalesce");
        let a = r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 4380, "drains the whole queue");
        assert!(r.is_complete());
        assert_eq!(r.counters().out_of_order, 2);
    }

    #[test]
    fn duplicates_still_ack() {
        let (mut r, mut ids) = rcv(2920);
        r.on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids);
        let a = r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 1460, "dupack repeats rcv_nxt");
        assert_eq!(r.counters().duplicates, 1);
        assert_eq!(r.counters().acks_sent, 2);
    }

    #[test]
    fn ece_echoes_ce_per_packet() {
        let (mut r, mut ids) = rcv(4380);
        let a = r
            .on_data(&data(0, 1460, true), SimTime::ZERO, &mut ids)
            .unwrap();
        assert!(a.ece);
        let a = r
            .on_data(&data(1460, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert!(!a.ece);
    }

    #[test]
    fn completion_records_time() {
        let (mut r, mut ids) = rcv(1460);
        let t = SimTime::from_millis(3);
        r.on_data(&data(0, 1460, false), t, &mut ids);
        assert_eq!(r.completed_at(), Some(t));
        // Late duplicates do not move the completion time.
        r.on_data(&data(0, 1460, false), SimTime::from_millis(9), &mut ids);
        assert_eq!(r.completed_at(), Some(t));
    }

    #[test]
    fn heavy_shuffle_reassembles_exactly() {
        // 50 segments delivered in a fixed scrambled order, some twice.
        let (mut r, mut ids) = rcv(50 * 1460);
        let mut order: Vec<u64> = (0..50).collect();
        // Deterministic scramble.
        for i in 0..order.len() {
            let j = (i * 37 + 11) % order.len();
            order.swap(i, j);
        }
        for &i in &order {
            r.on_data(&data(i * 1460, 1460, false), SimTime::ZERO, &mut ids);
            // Duplicate every 7th.
            if i % 7 == 0 {
                r.on_data(&data(i * 1460, 1460, false), SimTime::ZERO, &mut ids);
            }
        }
        assert!(r.is_complete());
        assert_eq!(r.rcv_nxt(), 50 * 1460);
        assert_eq!(r.ooo_segments(), 0);
    }

    #[test]
    fn overlapping_ooo_ranges_merge() {
        let (mut r, mut ids) = rcv(10_000);
        // Two overlapping out-of-order writes.
        r.on_data(&data(3000, 2000, false), SimTime::ZERO, &mut ids);
        r.on_data(&data(4000, 2000, false), SimTime::ZERO, &mut ids);
        assert_eq!(r.ooo_segments(), 1);
        // A covered duplicate does not add segments.
        r.on_data(&data(3500, 1000, false), SimTime::ZERO, &mut ids);
        assert_eq!(r.ooo_segments(), 1);
        assert_eq!(r.counters().duplicates, 1);
    }

    fn rcv_delayed(expected: u64, m: u32) -> (TcpReceiver, IdGen) {
        (
            TcpReceiver::new(FlowId(1), HostId(1), HostId(0), expected, 255, m),
            IdGen::new(),
        )
    }

    #[test]
    fn delayed_acks_coalesce_in_order_packets() {
        let (mut r, mut ids) = rcv_delayed(10 * 1460, 2);
        // Packet 1: held. Packet 2: cumulative ack for both.
        assert!(r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .is_none());
        let a = r
            .on_data(&data(1460, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 2920);
        assert_eq!(r.counters().acks_sent, 1);
    }

    #[test]
    fn delayed_acks_flush_on_ce_state_change() {
        let (mut r, mut ids) = rcv_delayed(10 * 1460, 4);
        // Unmarked packet held; a marked packet ends the unmarked run with
        // an immediate ack carrying ECE = false (the old state).
        assert!(r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .is_none());
        let a = r
            .on_data(&data(1460, 1460, true), SimTime::ZERO, &mut ids)
            .unwrap();
        assert!(!a.ece, "state-change ack reports the run that ended");
        assert_eq!(a.seq, 2920);
        // Returning to unmarked flushes the marked run with ECE = true.
        let a = r
            .on_data(&data(2920, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert!(a.ece);
    }

    #[test]
    fn delayed_acks_flush_on_out_of_order() {
        let (mut r, mut ids) = rcv_delayed(10 * 1460, 4);
        // An out-of-order packet must produce an immediate (dup)ack so the
        // sender sees the signal.
        let a = r
            .on_data(&data(2920, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 0);
        // While a gap is outstanding, every arrival acks immediately
        // (standard TCP behavior during an out-of-order episode).
        let a = r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 1460);
        let a = r
            .on_data(&data(1460, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 4380, "gap fill drains the whole queue");
    }

    #[test]
    fn delayed_acks_flush_on_completion() {
        let (mut r, mut ids) = rcv_delayed(3 * 1460, 4);
        assert!(r
            .on_data(&data(0, 1460, false), SimTime::ZERO, &mut ids)
            .is_none());
        assert!(r
            .on_data(&data(1460, 1460, false), SimTime::ZERO, &mut ids)
            .is_none());
        // The final packet of the stream always acks immediately.
        let a = r
            .on_data(&data(2920, 1460, false), SimTime::ZERO, &mut ids)
            .unwrap();
        assert_eq!(a.seq, 3 * 1460);
        assert!(r.is_complete());
    }

    #[test]
    fn delayed_ack_echo_uses_newest_covered_packet() {
        let (mut r, mut ids) = rcv_delayed(10 * 1460, 2);
        let mut p0 = data(0, 1460, false);
        p0.sent_at = SimTime::from_micros(100);
        let mut p1 = data(1460, 1460, false);
        p1.sent_at = SimTime::from_micros(200);
        assert!(r.on_data(&p0, SimTime::ZERO, &mut ids).is_none());
        let a = r.on_data(&p1, SimTime::ZERO, &mut ids).unwrap();
        assert_eq!(a.ts_echo, SimTime::from_micros(200));
    }
}
