//! The compact binary trace-event model: [`TraceKind`], [`TraceEvent`],
//! and the [`KindMask`] per-kind filter.

use dibs_net::packet::Packet;
use std::fmt;

/// What happened at one instant of simulated time.
///
/// Kinds are ordered roughly along a data packet's life: emitted by a
/// host, queued and dequeued (possibly detoured, marked, or dropped) at
/// switches, and finally delivered. The discriminant is stable and part
/// of the text-dump format.
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TraceKind {
    /// A host emitted a fresh data segment.
    Send = 0,
    /// A host re-emitted a previously sent segment.
    Retransmit = 1,
    /// A host emitted a cumulative acknowledgment.
    Ack = 2,
    /// A sender's retransmission timer fired (flow-level; `packet` is 0).
    Timeout = 3,
    /// A switch queued a packet on its desired output port.
    Enqueue = 4,
    /// A switch handed a packet to the wire.
    Dequeue = 5,
    /// A switch CE-marked a packet at enqueue time (DCTCP).
    EcnMark = 6,
    /// A switch detoured a packet to an alternate port (DIBS).
    Detour = 7,
    /// A packet was dropped (full buffer, pFabric displacement, host-NIC
    /// overflow, or an injected fault).
    Drop = 8,
    /// A packet's TTL reached zero at a switch.
    TtlExpire = 9,
    /// A packet reached its destination host.
    Deliver = 10,
}

impl TraceKind {
    /// Every kind, in discriminant order.
    pub const ALL: [TraceKind; 11] = [
        TraceKind::Send,
        TraceKind::Retransmit,
        TraceKind::Ack,
        TraceKind::Timeout,
        TraceKind::Enqueue,
        TraceKind::Dequeue,
        TraceKind::EcnMark,
        TraceKind::Detour,
        TraceKind::Drop,
        TraceKind::TtlExpire,
        TraceKind::Deliver,
    ];

    /// The canonical kebab-case name used by spec strings and dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::Send => "send",
            TraceKind::Retransmit => "retransmit",
            TraceKind::Ack => "ack",
            TraceKind::Timeout => "timeout",
            TraceKind::Enqueue => "enqueue",
            TraceKind::Dequeue => "dequeue",
            TraceKind::EcnMark => "ecn-mark",
            TraceKind::Detour => "detour",
            TraceKind::Drop => "drop",
            TraceKind::TtlExpire => "ttl-expire",
            TraceKind::Deliver => "deliver",
        }
    }

    /// Parses a kind name; accepts the canonical names plus a few
    /// obvious aliases (`ecn`, `rtx`, `ttl`).
    pub fn from_name(name: &str) -> Option<TraceKind> {
        Some(match name {
            "send" => TraceKind::Send,
            "retransmit" | "rtx" => TraceKind::Retransmit,
            "ack" => TraceKind::Ack,
            "timeout" | "rto" => TraceKind::Timeout,
            "enqueue" => TraceKind::Enqueue,
            "dequeue" => TraceKind::Dequeue,
            "ecn-mark" | "ecn" | "mark" => TraceKind::EcnMark,
            "detour" => TraceKind::Detour,
            "drop" => TraceKind::Drop,
            "ttl-expire" | "ttl" => TraceKind::TtlExpire,
            "deliver" => TraceKind::Deliver,
            _ => return None,
        })
    }

    /// The kind a host's emission of `pkt` records: `Ack` for an ack,
    /// `Retransmit` for a re-sent segment, `Send` otherwise.
    pub fn sent(pkt: &Packet) -> TraceKind {
        if !pkt.is_data() {
            TraceKind::Ack
        } else if pkt.retransmit {
            TraceKind::Retransmit
        } else {
            TraceKind::Send
        }
    }

    /// The kind's bit inside a [`KindMask`].
    #[inline]
    pub fn bit(self) -> u16 {
        1 << (self as u8)
    }
}

impl fmt::Display for TraceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A set of [`TraceKind`]s, stored as one bit per kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindMask(pub u16);

impl KindMask {
    /// The empty set.
    pub const NONE: KindMask = KindMask(0);
    /// Every kind.
    pub const ALL: KindMask = KindMask((1 << 11) - 1);

    /// Adds one kind to the set.
    pub fn insert(&mut self, kind: TraceKind) {
        self.0 |= kind.bit();
    }

    /// Whether the set contains `kind`.
    #[inline]
    pub fn wants(self, kind: TraceKind) -> bool {
        self.0 & kind.bit() != 0
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Parses a comma-separated kind list (e.g. `"detour,drop,ecn-mark"`).
    pub fn parse(list: &str) -> Result<KindMask, String> {
        let mut m = KindMask::NONE;
        for tok in list.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            match TraceKind::from_name(tok) {
                Some(k) => m.insert(k),
                None => return Err(format!("unknown trace kind `{tok}`")),
            }
        }
        if m.is_empty() {
            return Err(format!("empty trace-kind list `{list}`"));
        }
        Ok(m)
    }
}

impl fmt::Display for KindMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == KindMask::ALL {
            return f.write_str("all");
        }
        if self.is_empty() {
            return f.write_str("none");
        }
        let mut first = true;
        for k in TraceKind::ALL {
            if self.wants(k) {
                if !first {
                    f.write_str(",")?;
                }
                f.write_str(k.name())?;
                first = false;
            }
        }
        Ok(())
    }
}

/// One recorded simulation event, 32 bytes, `Copy`.
///
/// Field meanings vary slightly by kind: `node` is a topology node id for
/// switch/host events (`u32::MAX` when unknown); `port` is the output
/// port for queue transitions and 0 for host events; `qlen` is the
/// port-queue depth *after* the transition for queue events, the number
/// of packets (re)emitted for `Timeout`, and 0 otherwise; `detours` is
/// the packet's detour count at the instant of the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated time in nanoseconds.
    pub t_ns: u64,
    /// Packet id (0 for flow-level events such as `Timeout`).
    pub packet: u64,
    /// Flow id.
    pub flow: u32,
    /// Topology node id where the event happened.
    pub node: u32,
    /// Output port (queue transitions) or 0.
    pub port: u16,
    /// Queue depth after the transition, where applicable.
    pub qlen: u16,
    /// The packet's detour count at this instant.
    pub detours: u16,
    /// What happened.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Renders the event as one stable text line (the dump format).
    pub fn write_line(&self, out: &mut String) {
        use fmt::Write;
        let _ = writeln!(
            out,
            "ev {} {} node {} port {} pkt {} flow {} qlen {} detours {}",
            self.t_ns,
            self.kind,
            self.node,
            self.port,
            self.packet,
            self.flow,
            self.qlen,
            self.detours
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip() {
        for k in TraceKind::ALL {
            assert_eq!(TraceKind::from_name(k.name()), Some(k));
        }
        assert_eq!(TraceKind::from_name("ecn"), Some(TraceKind::EcnMark));
        assert_eq!(TraceKind::from_name("bogus"), None);
    }

    #[test]
    fn sent_classifies_host_emissions() {
        use dibs_engine::time::SimTime;
        use dibs_net::ids::{FlowId, HostId, PacketId};
        let mut data = Packet::data(
            PacketId(1),
            FlowId(2),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        );
        assert_eq!(TraceKind::sent(&data), TraceKind::Send);
        data.retransmit = true;
        assert_eq!(TraceKind::sent(&data), TraceKind::Retransmit);
        let ack = Packet::ack(
            PacketId(3),
            FlowId(2),
            HostId(1),
            HostId(0),
            1460,
            false,
            64,
            SimTime::ZERO,
        );
        assert_eq!(TraceKind::sent(&ack), TraceKind::Ack);
    }

    #[test]
    fn mask_parse_and_display() {
        let m = KindMask::parse("detour, drop").unwrap();
        assert!(m.wants(TraceKind::Detour));
        assert!(m.wants(TraceKind::Drop));
        assert!(!m.wants(TraceKind::Enqueue));
        assert_eq!(m.to_string(), "detour,drop");
        assert_eq!(KindMask::ALL.to_string(), "all");
        assert!(KindMask::parse("nope").is_err());
        assert!(KindMask::parse("").is_err());
    }

    #[test]
    fn all_mask_contains_every_kind() {
        for k in TraceKind::ALL {
            assert!(KindMask::ALL.wants(k));
        }
    }

    #[test]
    fn event_line_is_stable() {
        let ev = TraceEvent {
            t_ns: 1500,
            packet: 7,
            flow: 3,
            node: 20,
            port: 2,
            qlen: 9,
            detours: 1,
            kind: TraceKind::Detour,
        };
        let mut s = String::new();
        ev.write_line(&mut s);
        assert_eq!(
            s,
            "ev 1500 detour node 20 port 2 pkt 7 flow 3 qlen 9 detours 1\n"
        );
    }
}
