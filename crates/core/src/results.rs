//! Per-run measurement outputs.

use dibs_engine::time::{SimDuration, SimTime};
use dibs_net::ids::HostId;
use dibs_stats::{NetCounters, Samples};
use dibs_workload::FlowClass;

/// Outcome of one flow.
#[derive(Debug, Clone)]
pub struct FlowOutcome {
    /// Role of the flow.
    pub class: FlowClass,
    /// Sender.
    pub src: HostId,
    /// Receiver.
    pub dst: HostId,
    /// Bytes requested.
    pub size: u64,
    /// Start time.
    pub start: SimTime,
    /// Completion latency (receiver got every byte), if it completed.
    pub fct: Option<SimDuration>,
    /// Bytes delivered in order by the horizon.
    pub bytes_delivered: u64,
    /// Retransmission timeouts taken by the sender.
    pub timeouts: u64,
}

/// Outcome of one partition-aggregate query.
#[derive(Debug, Clone, Copy)]
pub struct QueryOutcome {
    /// Query issue time.
    pub start: SimTime,
    /// Responders that completed by the horizon.
    pub completed_responses: usize,
    /// Total responders.
    pub total_responses: usize,
    /// Query completion latency (all responses in), if it completed.
    pub qct: Option<SimDuration>,
}

/// Everything measured in one run.
#[derive(Debug)]
pub struct RunResults {
    /// Query completion times, milliseconds (the paper's headline metric).
    pub qct_ms: Samples,
    /// FCT of *short* (1–10 KB) background flows, milliseconds (§5.3's
    /// collateral-damage metric).
    pub bg_short_fct_ms: Samples,
    /// FCT of all completed background flows, milliseconds.
    pub bg_all_fct_ms: Samples,
    /// Per-flow outcomes.
    pub flows: Vec<FlowOutcome>,
    /// Per-query outcomes.
    pub queries: Vec<QueryOutcome>,
    /// Aggregate network counters.
    pub counters: NetCounters,
    /// Detours per switch (indexed by `SwitchId`).
    pub detours_per_switch: Vec<u64>,
    /// Histogram of per-packet detour counts at delivery; index = number of
    /// detours (saturating at the last bucket).
    pub detour_histogram: Vec<u64>,
    /// Fraction of links hot (≥ threshold) at each sample tick (Fig 4).
    pub hot_fraction_samples: Vec<f64>,
    /// Mean free buffer fraction among 1-hop neighbors of hot switches,
    /// one value per sample tick that had a hot switch (Fig 5).
    pub neighbor_free_1hop: Vec<f64>,
    /// Same for 2-hop neighborhoods.
    pub neighbor_free_2hop: Vec<f64>,
    /// Goodput of each long-lived flow, bits/second (§5.6 fairness).
    pub long_lived_throughput_bps: Vec<f64>,
    /// PFC PAUSE assertions observed (zero unless flow control is on).
    pub pfc_pause_events: u64,
    /// Packets still inside the fabric (NIC queues, ingress pipelines,
    /// switch buffers, or scheduled events) when the run stopped.
    ///
    /// Together with the counters this closes the conservation sum that
    /// the soak harness asserts externally:
    /// `packets_sent == packets_delivered + total_drops() + packets_in_flight`.
    pub packets_in_flight: u64,
    /// Events dispatched by the engine.
    pub events_dispatched: u64,
    /// The instant the run stopped.
    pub finished_at: SimTime,
    /// Event trace captured during the run, when tracing was enabled.
    ///
    /// Observational only: NEVER folded into [`RunDigest::of`], so a
    /// traced run fingerprints identically to an untraced one.
    pub trace: Option<dibs_trace::TraceReport>,
}

impl RunResults {
    /// 99th-percentile QCT in milliseconds.
    pub fn qct_p99_ms(&mut self) -> Option<f64> {
        self.qct_ms.percentile(0.99)
    }

    /// 99th-percentile short-background-flow FCT in milliseconds.
    pub fn bg_fct_p99_ms(&mut self) -> Option<f64> {
        self.bg_short_fct_ms.percentile(0.99)
    }

    /// Fraction of queries that completed.
    pub fn query_completion_rate(&self) -> f64 {
        if self.queries.is_empty() {
            return 1.0;
        }
        let done = self.queries.iter().filter(|q| q.qct.is_some()).count();
        done as f64 / self.queries.len() as f64
    }

    /// Fraction of delivered packets that were detoured `k`+ times.
    pub fn detoured_at_least(&self, k: usize) -> f64 {
        let total: u64 = self.detour_histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let at_least: u64 = self.detour_histogram.iter().skip(k).sum();
        at_least as f64 / total as f64
    }

    /// Jain's fairness index over the long-lived flow throughputs.
    pub fn jain(&self) -> Option<f64> {
        dibs_stats::jain_index(&self.long_lived_throughput_bps)
    }
}

/// A canonical, line-oriented transcript of everything observable in a
/// [`RunResults`], used for byte-identical regression comparison.
///
/// Two runs are "the same" for determinism purposes iff their digests match
/// byte-for-byte: aggregate counters, per-flow delivery/FCT/timeouts,
/// per-query completion, the detour histogram, per-switch detour counts,
/// and the engine's event count all participate. Anything scheduling-
/// sensitive (wall-clock time, thread IDs) is deliberately absent.
///
/// The digest is plain text so a mismatch diffs readably; [`fingerprint`]
/// (a 64-bit hash of the text) is what golden tests pin.
///
/// [`fingerprint`]: RunDigest::fingerprint
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    text: String,
}

impl RunDigest {
    /// Build the digest of one run's results.
    pub fn of(results: &RunResults) -> Self {
        use std::fmt::Write as _;
        let mut text = String::new();
        let w = &mut text;
        let _ = writeln!(w, "counters {:?}", results.counters);
        let _ = writeln!(
            w,
            "events {} finished_ns {}",
            results.events_dispatched,
            results.finished_at.as_nanos()
        );
        for (i, f) in results.flows.iter().enumerate() {
            let _ = writeln!(
                w,
                "flow {i} {:?}->{:?} size {} delivered {} fct_ns {:?} timeouts {}",
                f.src,
                f.dst,
                f.size,
                f.bytes_delivered,
                f.fct.map(|d| d.as_nanos()),
                f.timeouts
            );
        }
        for (i, q) in results.queries.iter().enumerate() {
            let _ = writeln!(
                w,
                "query {i} responses {}/{} qct_ns {:?}",
                q.completed_responses,
                q.total_responses,
                q.qct.map(|d| d.as_nanos())
            );
        }
        let _ = writeln!(w, "detour_hist {:?}", results.detour_histogram);
        let _ = writeln!(w, "detours_per_switch {:?}", results.detours_per_switch);
        let _ = writeln!(w, "pfc_pauses {}", results.pfc_pause_events);
        let _ = writeln!(w, "in_flight {}", results.packets_in_flight);
        RunDigest { text }
    }

    /// The digest transcript (one fact per line, `\n`-terminated).
    pub fn as_str(&self) -> &str {
        &self.text
    }

    /// A 64-bit hash of the transcript, suitable for pinning in golden
    /// tests. Uses [`dibs_engine::rng::hash_bytes`], which is stable across
    /// platforms and releases.
    pub fn fingerprint(&self) -> u64 {
        dibs_engine::rng::hash_bytes(self.text.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_results() -> RunResults {
        RunResults {
            qct_ms: Samples::new(),
            bg_short_fct_ms: Samples::new(),
            bg_all_fct_ms: Samples::new(),
            flows: Vec::new(),
            queries: Vec::new(),
            counters: NetCounters::default(),
            detours_per_switch: Vec::new(),
            detour_histogram: vec![0; 65],
            hot_fraction_samples: Vec::new(),
            neighbor_free_1hop: Vec::new(),
            neighbor_free_2hop: Vec::new(),
            long_lived_throughput_bps: Vec::new(),
            pfc_pause_events: 0,
            packets_in_flight: 0,
            events_dispatched: 0,
            finished_at: SimTime::ZERO,
            trace: None,
        }
    }

    #[test]
    fn digest_reflects_observable_results_only() {
        let a = RunDigest::of(&empty_results());
        let b = RunDigest::of(&empty_results());
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());

        let mut changed = empty_results();
        changed.detour_histogram[3] = 1;
        let c = RunDigest::of(&changed);
        assert_ne!(a, c);
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert!(c.as_str().contains("detour_hist"));
    }

    #[test]
    fn empty_results_are_well_behaved() {
        let mut r = empty_results();
        assert_eq!(r.qct_p99_ms(), None);
        assert_eq!(r.bg_fct_p99_ms(), None);
        assert_eq!(r.query_completion_rate(), 1.0);
        assert_eq!(r.detoured_at_least(1), 0.0);
        assert_eq!(r.jain(), None);
    }

    #[test]
    fn detoured_at_least_sums_tail() {
        let mut r = empty_results();
        r.detour_histogram[0] = 90;
        r.detour_histogram[1] = 5;
        r.detour_histogram[40] = 4;
        r.detour_histogram[64] = 1;
        assert!((r.detoured_at_least(0) - 1.0).abs() < 1e-12);
        assert!((r.detoured_at_least(1) - 0.10).abs() < 1e-12);
        assert!((r.detoured_at_least(40) - 0.05).abs() < 1e-12);
        assert!((r.detoured_at_least(65) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn completion_rate_counts_finished_queries() {
        let mut r = empty_results();
        r.queries = vec![
            QueryOutcome {
                start: SimTime::ZERO,
                completed_responses: 40,
                total_responses: 40,
                qct: Some(SimDuration::from_millis(20)),
            },
            QueryOutcome {
                start: SimTime::ZERO,
                completed_responses: 10,
                total_responses: 40,
                qct: None,
            },
        ];
        assert!((r.query_completion_rate() - 0.5).abs() < 1e-12);
    }
}
