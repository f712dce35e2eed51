//! Exporters: Chrome `chrome://tracing` JSON and the digest-style text
//! dump.

use crate::event::TraceKind;
use crate::recorder::TraceReport;
use dibs_engine::rng::hash_bytes;
use dibs_json::{Json, ObjBuilder};
use std::path::Path;

impl TraceReport {
    /// Renders the report in Chrome's trace-event JSON format, viewable
    /// at `chrome://tracing` (or <https://ui.perfetto.dev>). Each event
    /// becomes a thread-scoped instant event with `pid` = node id and
    /// `tid` = port, so per-switch activity lines up as tracks.
    pub fn chrome_trace(&self) -> Json {
        let mut events = Vec::with_capacity(self.events.len());
        for ev in &self.events {
            let args = ObjBuilder::new()
                .field("packet", ev.packet)
                .field("flow", u64::from(ev.flow))
                .field("qlen", u64::from(ev.qlen))
                .field("detours", u64::from(ev.detours))
                .build();
            events.push(
                ObjBuilder::new()
                    .field("name", ev.kind.name())
                    .field("cat", "dibs")
                    .field("ph", "i")
                    .field("s", "t")
                    // Chrome timestamps are microseconds; keep sub-µs
                    // resolution as a fraction.
                    .field("ts", ev.t_ns as f64 / 1000.0)
                    .field("pid", u64::from(ev.node))
                    .field("tid", u64::from(ev.port))
                    .field("args", args)
                    .build(),
            );
        }
        ObjBuilder::new()
            .field("traceEvents", Json::Arr(events))
            .field("displayTimeUnit", "ms")
            .field(
                "otherData",
                ObjBuilder::new()
                    .field("mode", self.mode.label())
                    .field("kinds", self.kinds.to_string())
                    .field("observed", self.observed)
                    .field("dropped", self.dropped)
                    .field("queue_high_watermark", self.queue_high_watermark)
                    .build(),
            )
            .build()
    }

    /// Writes [`TraceReport::chrome_trace`] to `path`, creating its
    /// directory, once the rendered JSON re-parses through `dibs-json`.
    /// Returns the line to report: a summary of what was written, or why
    /// nothing was.
    pub fn write_chrome_trace(&self, path: &Path) -> Result<String, String> {
        let shown = path.display();
        let rendered = self.chrome_trace().render_pretty();
        if Json::parse(&rendered).is_err() {
            return Err(format!(
                "trace: internal error, Chrome JSON for {shown} does not re-parse"
            ));
        }
        path.parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, &rendered))
            .map_err(|e| format!("trace: cannot write {shown}: {e}"))?;
        Ok(format!(
            "trace: {} events ({} observed, {} dropped) -> {shown} (open in chrome://tracing)",
            self.events.len(),
            self.observed,
            self.dropped
        ))
    }

    /// Renders the report as a stable line-oriented text dump: one
    /// header line followed by one `ev …` line per event. The format is
    /// deliberately digest-like so dumps can be fingerprinted and
    /// diffed the same way `RunDigest` transcripts are.
    pub fn text_dump(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 64);
        use std::fmt::Write;
        let _ = writeln!(
            out,
            "trace mode {} kinds {} events {} observed {} dropped {} queue_hwm {}",
            self.mode.label(),
            self.kinds,
            self.events.len(),
            self.observed,
            self.dropped,
            self.queue_high_watermark
        );
        for ev in &self.events {
            ev.write_line(&mut out);
        }
        out
    }

    /// A 64-bit fingerprint of [`TraceReport::text_dump`], using the
    /// same hash as `RunDigest::fingerprint`.
    pub fn fingerprint(&self) -> u64 {
        hash_bytes(self.text_dump().as_bytes())
    }
}

/// Returns `true` when a JSON value is structurally a Chrome trace:
/// an object with a `traceEvents` array whose entries carry the
/// mandatory `name`/`ph`/`ts` fields.
pub fn is_chrome_trace(v: &Json) -> bool {
    let Some(events) = v.get("traceEvents").and_then(Json::as_array) else {
        return false;
    };
    events.iter().all(|e| {
        e.get("name").and_then(Json::as_str).is_some()
            && e.get("ph").and_then(Json::as_str).is_some()
            && e.get("ts").and_then(Json::as_f64).is_some()
    })
}

/// Kinds that change a port queue's depth (used by occupancy folding).
pub fn is_queue_transition(kind: TraceKind) -> bool {
    matches!(
        kind,
        TraceKind::Enqueue | TraceKind::Dequeue | TraceKind::Detour
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{KindMask, TraceEvent};
    use crate::recorder::TraceMode;

    fn report(events: Vec<TraceEvent>) -> TraceReport {
        let observed = events.len() as u64;
        TraceReport {
            mode: TraceMode::Full,
            kinds: KindMask::ALL,
            events,
            observed,
            dropped: 0,
            queue_high_watermark: 17,
        }
    }

    fn qev(t: u64, node: u32, port: u16, qlen: u16, kind: TraceKind) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            packet: t,
            flow: 1,
            node,
            port,
            qlen,
            detours: 0,
            kind,
        }
    }

    #[test]
    fn chrome_trace_round_trips_through_parser() {
        let rep = report(vec![
            qev(1000, 20, 1, 1, TraceKind::Enqueue),
            qev(2500, 20, 1, 0, TraceKind::Dequeue),
        ]);
        let json = rep.chrome_trace();
        let rendered = json.render_pretty();
        let parsed = Json::parse(&rendered).expect("chrome trace must be valid JSON");
        assert!(is_chrome_trace(&parsed));
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(events[0].get("pid").unwrap().as_u64(), Some(20));
    }

    #[test]
    fn write_chrome_trace_creates_the_directory_and_reports() {
        let rep = report(vec![qev(1000, 20, 1, 1, TraceKind::Enqueue)]);
        let dir = std::env::temp_dir().join(format!("dibs-trace-export-{}", std::process::id()));
        let path = dir.join("nested").join("trace.json");
        let line = rep.write_chrome_trace(&path).expect("writable temp dir");
        assert!(
            line.starts_with("trace: 1 events (1 observed, 0 dropped) -> "),
            "{line}"
        );
        assert!(line.ends_with("(open in chrome://tracing)"), "{line}");
        let text = std::fs::read_to_string(&path).expect("trace file written");
        assert!(is_chrome_trace(&Json::parse(&text).expect("valid JSON")));
        let blocked = path.join("under_a_file.json");
        assert!(rep
            .write_chrome_trace(&blocked)
            .unwrap_err()
            .contains("cannot write"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    #[test]
    fn text_dump_fingerprint_is_stable_and_content_sensitive() {
        let a = report(vec![qev(1, 2, 3, 4, TraceKind::Enqueue)]);
        let b = report(vec![qev(1, 2, 3, 4, TraceKind::Enqueue)]);
        let c = report(vec![qev(1, 2, 3, 5, TraceKind::Enqueue)]);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(a
            .text_dump()
            .starts_with("trace mode full kinds all events 1"));
    }
}
