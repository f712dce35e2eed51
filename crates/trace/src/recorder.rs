//! The runtime sink [`Tracer`], spec parsing, and the final
//! [`TraceReport`].

use crate::event::{KindMask, TraceEvent, TraceKind};
use dibs_net::ids::FlowId;
use dibs_net::packet::Packet;

/// Default flight-recorder capacity (events) when the spec omits one.
pub const DEFAULT_FLIGHT_CAP: usize = 4096;

/// The capacity of full capture: the buffer never wraps.
const UNBOUNDED: usize = usize::MAX;

/// Which capture a [`TraceSpec`] selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Tracing disabled.
    Off,
    /// Last-N ring buffer.
    Flight,
    /// Unbounded full capture.
    Full,
}

impl TraceMode {
    /// Stable lowercase label used in dumps and reports.
    pub fn label(self) -> &'static str {
        match self {
            TraceMode::Off => "off",
            TraceMode::Flight => "flight",
            TraceMode::Full => "full",
        }
    }
}

/// A parsed `--trace` / `DIBS_TRACE` specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Which capture to install.
    pub mode: TraceMode,
    /// Ring capacity, used when `mode` is [`TraceMode::Flight`].
    pub flight_cap: usize,
    /// Which event kinds to keep.
    pub kinds: KindMask,
}

impl TraceSpec {
    /// The disabled spec.
    pub fn off() -> TraceSpec {
        TraceSpec {
            mode: TraceMode::Off,
            flight_cap: DEFAULT_FLIGHT_CAP,
            kinds: KindMask::NONE,
        }
    }

    /// Parses a spec string; see the crate docs for the grammar.
    pub fn parse(spec: &str) -> Result<TraceSpec, String> {
        let spec = spec.trim();
        match spec {
            "" | "off" | "none" => return Ok(TraceSpec::off()),
            "all" => {
                return Ok(TraceSpec {
                    mode: TraceMode::Full,
                    flight_cap: DEFAULT_FLIGHT_CAP,
                    kinds: KindMask::ALL,
                })
            }
            _ => {}
        }
        if let Some(rest) = spec.strip_prefix("flight") {
            let mut cap = DEFAULT_FLIGHT_CAP;
            let mut kinds = KindMask::ALL;
            for tok in rest.split(':') {
                let tok = tok.trim();
                if tok.is_empty() {
                    continue;
                }
                if let Ok(n) = tok.parse::<usize>() {
                    if n == 0 {
                        return Err("flight capacity must be > 0".to_string());
                    }
                    cap = n;
                } else {
                    kinds = KindMask::parse(tok)?;
                }
            }
            return Ok(TraceSpec {
                mode: TraceMode::Flight,
                flight_cap: cap,
                kinds,
            });
        }
        // Bare kind list: full capture of exactly those kinds.
        Ok(TraceSpec {
            mode: TraceMode::Full,
            flight_cap: DEFAULT_FLIGHT_CAP,
            kinds: KindMask::parse(spec)?,
        })
    }
}

impl std::str::FromStr for TraceSpec {
    type Err = String;
    fn from_str(s: &str) -> Result<TraceSpec, String> {
        TraceSpec::parse(s)
    }
}

/// What a trace event is about.
#[derive(Debug, Clone, Copy)]
pub enum Subject<'a> {
    /// One packet: the event carries its id, flow and detour count.
    Packet(&'a Packet),
    /// A whole flow (`Timeout`): the packet id and detour count are 0.
    Flow(FlowId),
}

/// The trace sink a simulation carries, one concrete type for every
/// [`TraceMode`].
///
/// Off is the empty kind mask, full capture an unbounded buffer, and the
/// flight recorder a ring of `cap` events that overwrites its oldest
/// entry once full; the ring and full capture share one code path that
/// differs only in capacity. Enabling a trace never changes the
/// simulation's type, and [`Tracer::emit`] tests the mask before it
/// builds anything, so a kind that is not captured costs one branch.
#[derive(Debug, Clone)]
pub struct Tracer {
    /// Kinds to keep; empty when tracing is off.
    mask: KindMask,
    /// Events retained: the ring size, or [`UNBOUNDED`] for full capture.
    cap: usize,
    /// Retained events; once `cap` is reached, `events[next]` is the oldest.
    events: Vec<TraceEvent>,
    /// Next slot to overwrite once the ring is full.
    next: usize,
    /// Events offered (kept or overwritten).
    observed: u64,
}

impl Tracer {
    /// The disabled tracer.
    pub fn off() -> Tracer {
        Tracer::from_spec(&TraceSpec::off())
    }

    /// Builds the tracer a spec asks for.
    pub fn from_spec(spec: &TraceSpec) -> Tracer {
        let (mask, cap) = match spec.mode {
            TraceMode::Off => (KindMask::NONE, 0),
            // A ring is never unbounded, so it never reports as full capture.
            TraceMode::Flight => (spec.kinds, spec.flight_cap.clamp(1, UNBOUNDED - 1)),
            TraceMode::Full => (spec.kinds, UNBOUNDED),
        };
        Tracer {
            mask,
            cap,
            events: Vec::with_capacity(cap.min(DEFAULT_FLIGHT_CAP)),
            next: 0,
            observed: 0,
        }
    }

    /// Whether any events can be recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.mask.is_empty()
    }

    /// Records a `kind` event about `subject` at simulated time `t_ns`,
    /// topology node `node` and output `port` (0 for host events);
    /// `qlen` is the port's depth after a queue transition, the number
    /// of packets re-sent for `Timeout`, and 0 otherwise. Nothing is
    /// built unless `kind` is captured.
    #[inline]
    pub fn emit(
        &mut self,
        kind: TraceKind,
        t_ns: u64,
        subject: Subject<'_>,
        node: u32,
        port: usize,
        qlen: usize,
    ) {
        if !self.mask.wants(kind) {
            return;
        }
        let (packet, flow, detours) = match subject {
            Subject::Packet(p) => (p.id.0, p.flow.0, p.detours),
            Subject::Flow(f) => (0, f.0, 0),
        };
        self.push(TraceEvent {
            t_ns,
            packet,
            flow,
            node,
            port: u16::try_from(port).unwrap_or(u16::MAX),
            qlen: u16::try_from(qlen).unwrap_or(u16::MAX),
            detours,
            kind,
        });
    }

    fn push(&mut self, ev: TraceEvent) {
        self.observed += 1;
        if self.events.len() < self.cap {
            self.events.push(ev);
        } else {
            self.events[self.next] = ev;
            self.next = (self.next + 1) % self.cap;
        }
    }

    /// Consumes the tracer into a report; `None` when tracing was off.
    /// `queue_high_watermark` is the engine's peak pending-event count,
    /// carried alongside the events for the text dump.
    pub fn into_report(self, queue_high_watermark: u64) -> Option<TraceReport> {
        if !self.is_enabled() {
            return None;
        }
        let mode = if self.cap == UNBOUNDED {
            TraceMode::Full
        } else {
            TraceMode::Flight
        };
        let mut events = self.events;
        // Oldest first: a wrapped ring's oldest event sits at `next`.
        events.rotate_left(self.next);
        let dropped = self
            .observed
            .saturating_sub(u64::try_from(events.len()).unwrap_or(u64::MAX));
        Some(TraceReport {
            mode,
            kinds: self.mask,
            events,
            observed: self.observed,
            dropped,
            queue_high_watermark,
        })
    }
}

/// The finished trace attached to a run's results.
///
/// Deliberately *not* part of `RunDigest`: digests must be identical
/// whether or not a run was traced.
#[derive(Debug, Clone)]
pub struct TraceReport {
    /// How the events were captured.
    pub mode: TraceMode,
    /// The kind filter that was active.
    pub kinds: KindMask,
    /// Captured events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events offered to the sink (≥ `events.len()`).
    pub observed: u64,
    /// Events the flight ring overwrote (`observed - events.len()`).
    pub dropped: u64,
    /// Peak simultaneously-pending event count in the engine queue.
    pub queue_high_watermark: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offers one flow-level event per `t` in `ts` (as `t_ns` and flow).
    fn offer(tracer: &mut Tracer, kind: TraceKind, ts: std::ops::Range<u64>) {
        for t in ts {
            let flow = FlowId(u32::try_from(t).unwrap());
            tracer.emit(kind, t, Subject::Flow(flow), 0, 0, 0);
        }
    }

    fn kept(tracer: Tracer) -> Vec<u64> {
        let rep = tracer.into_report(0).unwrap();
        rep.events.iter().map(|e| e.t_ns).collect()
    }

    fn spec(s: &str) -> Tracer {
        Tracer::from_spec(&TraceSpec::parse(s).unwrap())
    }

    #[test]
    fn flight_ring_keeps_last_n() {
        let mut t = spec("flight:3");
        offer(&mut t, TraceKind::Enqueue, 0..10);
        assert_eq!(t.observed, 10);
        assert_eq!(kept(t), vec![7, 8, 9]);
    }

    #[test]
    fn flight_ring_under_capacity_keeps_all_in_order() {
        let mut t = spec("flight:8");
        offer(&mut t, TraceKind::Send, 0..3);
        assert_eq!(kept(t), vec![0, 1, 2]);
    }

    #[test]
    fn spec_grammar() {
        assert_eq!(TraceSpec::parse("off").unwrap().mode, TraceMode::Off);
        assert_eq!(TraceSpec::parse("none").unwrap().mode, TraceMode::Off);
        let all = TraceSpec::parse("all").unwrap();
        assert_eq!(all.mode, TraceMode::Full);
        assert_eq!(all.kinds, KindMask::ALL);
        let f = TraceSpec::parse("flight:128:detour,drop").unwrap();
        assert_eq!(f.mode, TraceMode::Flight);
        assert_eq!(f.flight_cap, 128);
        assert!(f.kinds.wants(TraceKind::Detour));
        assert!(!f.kinds.wants(TraceKind::Send));
        let k = TraceSpec::parse("enqueue,dequeue").unwrap();
        assert_eq!(k.mode, TraceMode::Full);
        assert!(k.kinds.wants(TraceKind::Dequeue));
        assert!(TraceSpec::parse("flight:0").is_err());
        assert!(TraceSpec::parse("wibble").is_err());
    }

    #[test]
    fn tracer_off_wants_nothing_and_reports_none() {
        let mut t = Tracer::off();
        assert!(!t.is_enabled());
        for k in TraceKind::ALL {
            assert!(!t.mask.wants(k));
            offer(&mut t, k, 0..1);
        }
        assert_eq!(t.observed, 0);
        assert!(t.into_report(0).is_none());
    }

    #[test]
    fn tracer_filters_by_kind() {
        let mut t = spec("detour");
        assert!(t.mask.wants(TraceKind::Detour));
        assert!(!t.mask.wants(TraceKind::Enqueue));
        offer(&mut t, TraceKind::Enqueue, 4..5);
        offer(&mut t, TraceKind::Detour, 5..6);
        let rep = t.into_report(42).unwrap();
        assert_eq!(rep.mode, TraceMode::Full);
        assert_eq!(rep.events.len(), 1);
        assert_eq!(rep.events[0].t_ns, 5);
        assert_eq!(rep.observed, 1);
        assert_eq!(rep.dropped, 0);
        assert_eq!(rep.queue_high_watermark, 42);
    }

    #[test]
    fn flight_report_counts_overwrites() {
        let mut t = spec("flight:2");
        offer(&mut t, TraceKind::Drop, 0..5);
        let rep = t.into_report(0).unwrap();
        assert_eq!(rep.mode, TraceMode::Flight);
        assert_eq!(rep.events.len(), 2);
        assert_eq!(rep.observed, 5);
        assert_eq!(rep.dropped, 3);
    }

    #[test]
    fn emit_fills_packet_and_flow_subjects() {
        use dibs_engine::time::SimTime;
        use dibs_net::ids::{HostId, PacketId};
        let mut p = Packet::data(
            PacketId(7),
            FlowId(3),
            HostId(0),
            HostId(1),
            0,
            1460,
            64,
            SimTime::ZERO,
        );
        p.detours = 2;
        let mut t = spec("all");
        t.emit(TraceKind::Detour, 10, Subject::Packet(&p), 20, 2, 9);
        t.emit(
            TraceKind::Timeout,
            30,
            Subject::Flow(FlowId(3)),
            5,
            0,
            70_000,
        );
        let rep = t.into_report(0).unwrap();
        let (pkt, flow) = (rep.events[0], rep.events[1]);
        assert_eq!(
            (
                pkt.packet,
                pkt.flow,
                pkt.node,
                pkt.port,
                pkt.qlen,
                pkt.detours
            ),
            (7, 3, 20, 2, 9, 2)
        );
        assert_eq!((flow.packet, flow.flow, flow.detours), (0, 3, 0));
        assert_eq!(flow.qlen, u16::MAX, "counts saturate at u16::MAX");
    }
}
