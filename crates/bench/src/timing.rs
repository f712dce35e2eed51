//! A process-wide simulation throughput meter for `sweep` runs.
//!
//! Finished simulation runs are credited to the meter ([`note_run`]), and
//! [`Harness::finish`](crate::Harness::finish) prints its events/sec +
//! packets/sec summary as each record's `throughput:` line, which
//! `repro_all` collects per row.

use dibs::RunResults;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

fn format_rate(rate: f64) -> String {
    if rate >= 1e9 {
        format!("{:.2}G", rate / 1e9)
    } else if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else if rate >= 1e3 {
        format!("{:.1}k", rate / 1e3)
    } else {
        format!("{rate:.1}")
    }
}

static METER_EVENTS: AtomicU64 = AtomicU64::new(0);
static METER_PACKETS: AtomicU64 = AtomicU64::new(0);

fn meter_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Starts the wall-time epoch for [`meter_summary`]. Called by
/// `Harness::from_args`; idempotent.
pub fn meter_start() {
    let _ = meter_epoch();
}

/// Credits a finished simulation run to the process-wide throughput meter.
pub fn note_run(results: &RunResults) {
    let _ = meter_epoch();
    METER_EVENTS.fetch_add(results.events_dispatched, Ordering::Relaxed);
    METER_PACKETS.fetch_add(results.counters.packets_delivered, Ordering::Relaxed);
}

/// One-line events/sec + packets/sec summary over every run credited via
/// [`note_run`], or `None` if no run finished in this process.
pub fn meter_summary() -> Option<String> {
    let events = METER_EVENTS.load(Ordering::Relaxed);
    let packets = METER_PACKETS.load(Ordering::Relaxed);
    if events == 0 {
        return None;
    }
    let wall = meter_epoch().elapsed().as_secs_f64().max(1e-9);
    // Event and packet totals stay far below 2^53; conversions are exact.
    #[allow(clippy::cast_precision_loss)]
    Some(format!(
        "throughput: {events} events, {packets} packets delivered in {wall:.2}s wall \
         ({}/sec events, {}/sec packets)",
        format_rate(events as f64 / wall),
        format_rate(packets as f64 / wall),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_formatting_scales() {
        assert_eq!(format_rate(1.5e9), "1.50G");
        assert_eq!(format_rate(2.5e6), "2.50M");
        assert_eq!(format_rate(3_200.0), "3.2k");
        assert_eq!(format_rate(12.0), "12.0");
    }
}
