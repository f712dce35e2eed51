//! A dependency-free microbenchmark runner for the bench binaries.
//!
//! Each benchmark binary (`perf_hotpath`) is a plain `main`; this module
//! supplies the measurement loop: auto-calibrated iteration counts,
//! best-of-N timing to suppress scheduler noise, and an aligned report line
//! per case. Cases that process a known number of items per iteration report
//! a throughput rate (items/sec) alongside the wall time, and finished
//! simulation runs feed a process-wide meter ([`note_run`]) whose
//! events/sec + packets/sec summary the figure binaries print at exit.

use dibs::RunResults;
use dibs_json::{Json, ObjBuilder};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Target wall time per measured batch.
const BATCH_TARGET: Duration = Duration::from_millis(30);
/// Number of batches measured; the minimum is reported.
const BATCHES: usize = 5;

/// One measured benchmark case: best-batch wall time plus the number of
/// items (events, lookups, packets, ...) each iteration processed.
#[derive(Debug, Clone)]
pub struct CaseMeasurement {
    /// Owning group name.
    pub group: String,
    /// Case name within the group.
    pub case: String,
    /// Best-of-batches wall time per iteration, nanoseconds.
    pub ns_per_iter: f64,
    /// Iterations per measured batch (after calibration).
    pub iters: u64,
    /// Items processed per iteration (1.0 for plain cases).
    pub items_per_iter: f64,
    /// What an item is: `"iters"`, `"events"`, `"lookups"`, ...
    pub unit: String,
}

impl CaseMeasurement {
    /// Throughput in items per second.
    pub fn items_per_sec(&self) -> f64 {
        if self.ns_per_iter <= 0.0 {
            return f64::INFINITY;
        }
        self.items_per_iter * 1e9 / self.ns_per_iter
    }

    /// Machine-readable form for `BENCH_*.json`.
    pub fn to_json(&self) -> Json {
        ObjBuilder::new()
            .field("group", self.group.as_str())
            .field("case", self.case.as_str())
            .field("ns_per_iter", self.ns_per_iter)
            .field("items_per_iter", self.items_per_iter)
            .field("unit", self.unit.as_str())
            .field("items_per_sec", self.items_per_sec())
            .build()
    }
}

/// A named group of benchmark cases, printed under a common heading.
pub struct Group {
    name: String,
}

impl Group {
    /// Starts a group and prints its heading.
    pub fn new(name: &str) -> Self {
        println!("group {name}");
        Group {
            name: name.to_string(),
        }
    }

    /// Measures `f` repeatedly and prints the best per-iteration time.
    ///
    /// The closure's return value is passed through [`black_box`] so the
    /// computation cannot be optimized away.
    pub fn case<R>(&self, case: &str, mut f: impl FnMut() -> R) -> CaseMeasurement {
        self.measure(case, "iters", 1.0, move || {
            black_box(f());
        })
    }

    /// Measures `f`, which reports how many items each iteration processed,
    /// and prints both the per-iteration time and the item throughput.
    ///
    /// The item count must be the same every iteration (the workloads here
    /// are deterministic); the count from the final calibration pass is the
    /// one used for the rate.
    pub fn case_rate(&self, case: &str, unit: &str, mut f: impl FnMut() -> u64) -> CaseMeasurement {
        let mut items = 0u64;
        let m = self.measure(case, unit, 1.0, || {
            items = black_box(f());
        });
        let m = CaseMeasurement {
            // Item counts in this suite are far below 2^53; the f64
            // conversion is exact.
            #[allow(clippy::cast_precision_loss)]
            items_per_iter: items as f64,
            ..m
        };
        println!(
            "  {:<32} {:>14} {}/sec",
            "",
            format_rate(m.items_per_sec()),
            m.unit
        );
        m
    }

    fn measure(
        &self,
        case: &str,
        unit: &str,
        items_per_iter: f64,
        mut f: impl FnMut(),
    ) -> CaseMeasurement {
        // Calibrate: grow the iteration count until a batch is long enough
        // to time reliably.
        let mut iters: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            let elapsed = start.elapsed();
            if elapsed >= BATCH_TARGET || iters >= 1 << 30 {
                break;
            }
            // Aim past the target so the next batch qualifies.
            iters = if elapsed.is_zero() {
                iters * 16
            } else {
                let scale = BATCH_TARGET.as_secs_f64() / elapsed.as_secs_f64();
                // Calibration growth factor; practical iteration counts
                // never approach u64::MAX.
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let grown = (iters as f64 * scale * 1.2) as u64;
                grown.max(iters + 1)
            };
        }
        let mut best = Duration::MAX;
        for _ in 0..BATCHES {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            best = best.min(start.elapsed());
        }
        // Iteration counts stay far below 2^53; the conversion is exact.
        #[allow(clippy::cast_precision_loss)]
        let per_iter_ns = best.as_secs_f64() * 1e9 / iters as f64;
        println!(
            "  {:<32} {:>14} ns/iter   ({} iters)",
            format!("{}/{case}", self.name),
            format_ns(per_iter_ns),
            iters
        );
        CaseMeasurement {
            group: self.name.clone(),
            case: case.to_string(),
            ns_per_iter: per_iter_ns,
            iters,
            items_per_iter,
            unit: unit.to_string(),
        }
    }
}

fn format_ns(ns: f64) -> String {
    if ns >= 100.0 {
        format!("{ns:.0}")
    } else {
        format!("{ns:.2}")
    }
}

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

// ---------------------------------------------------------------------
// Process-wide simulation throughput meter.
// ---------------------------------------------------------------------

static METER_EVENTS: AtomicU64 = AtomicU64::new(0);
static METER_PACKETS: AtomicU64 = AtomicU64::new(0);

fn meter_epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Starts the wall-time epoch for [`meter_summary`]. Called by
/// `Harness::from_env`; idempotent.
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
    fn case_runs_and_reports() {
        // Just exercise the calibration loop on a trivial body.
        let g = Group::new("smoke");
        let mut n = 0u64;
        let m = g.case("add", || {
            n = n.wrapping_add(1);
            n
        });
        assert!(n > 0);
        assert!(m.ns_per_iter > 0.0);
        assert_eq!(m.unit, "iters");
    }

    #[test]
    fn case_rate_reports_items() {
        let g = Group::new("smoke_rate");
        let m = g.case_rate("batch", "events", || {
            let mut acc = 0u64;
            for i in 0..64u64 {
                acc = acc.wrapping_add(i);
            }
            black_box(acc);
            64
        });
        assert_eq!(m.items_per_iter, 64.0);
        assert!(m.items_per_sec() > 0.0);
        let j = m.to_json().render();
        assert!(j.contains("\"unit\":\"events\""), "{j}");
    }

    #[test]
    fn rate_formatting_scales() {
        assert_eq!(format_rate(1.5e9), "1.50G");
        assert_eq!(format_rate(2.5e6), "2.50M");
        assert_eq!(format_rate(3_200.0), "3.2k");
        assert_eq!(format_rate(12.0), "12.0");
    }
}
