//! Human- and machine-readable run reports for `dibs-sim`.

use dibs::RunResults;
use dibs_json::{Json, ToJson};
use dibs_stats::Summary;

/// The serializable run report.
#[derive(Debug)]
pub struct Report {
    /// Query completion time summary (ms), if queries ran.
    pub qct_ms: Option<Summary>,
    /// Short (1–10 KB) background flow FCT summary (ms).
    pub bg_short_fct_ms: Option<Summary>,
    /// All background flow FCT summary (ms).
    pub bg_all_fct_ms: Option<Summary>,
    /// Flow completion statistics.
    pub flows_total: usize,
    /// Flows fully delivered by the horizon.
    pub flows_completed: usize,
    /// Queries issued.
    pub queries_total: usize,
    /// Queries fully answered.
    pub queries_completed: usize,
    /// Network counters.
    pub counters: dibs_stats::NetCounters,
    /// Jain's fairness index over long-lived flows, if any ran.
    pub jain: Option<f64>,
    /// PFC pause events.
    pub pfc_pause_events: u64,
    /// Engine events dispatched.
    pub events: u64,
    /// Simulated seconds at stop.
    pub finished_at_s: f64,
}

impl Report {
    /// Builds the report (consumes percentile queries on `results`).
    pub fn from_results(results: &mut RunResults) -> Self {
        Report {
            qct_ms: results.qct_ms.summarize(),
            bg_short_fct_ms: results.bg_short_fct_ms.summarize(),
            bg_all_fct_ms: results.bg_all_fct_ms.summarize(),
            flows_total: results.flows.len(),
            flows_completed: results.flows.iter().filter(|f| f.fct.is_some()).count(),
            queries_total: results.queries.len(),
            queries_completed: results.queries.iter().filter(|q| q.qct.is_some()).count(),
            counters: results.counters,
            jain: results.jain(),
            pfc_pause_events: results.pfc_pause_events,
            events: results.events_dispatched,
            finished_at_s: results.finished_at.as_secs_f64(),
        }
    }

    /// Renders the human-readable summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let line = |out: &mut String, s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(
            &mut out,
            format!(
                "flows: {}/{} completed   queries: {}/{} completed",
                self.flows_completed, self.flows_total, self.queries_completed, self.queries_total
            ),
        );
        if let Some(q) = &self.qct_ms {
            line(
                &mut out,
                format!(
                    "QCT ms      p50 {:>9.3}  p99 {:>9.3}  max {:>9.3}  (n={})",
                    q.p50, q.p99, q.max, q.count
                ),
            );
        }
        if let Some(f) = &self.bg_short_fct_ms {
            line(
                &mut out,
                format!(
                    "BG FCT ms   p50 {:>9.3}  p99 {:>9.3}  max {:>9.3}  (short flows, n={})",
                    f.p50, f.p99, f.max, f.count
                ),
            );
        }
        let c = &self.counters;
        line(
            &mut out,
            format!(
                "packets: sent {}  delivered {}  drops {} (buffer {} / ttl {} / displaced {} / nic {} / fault {})",
                c.packets_sent,
                c.packets_delivered,
                c.total_drops(),
                c.drops_buffer,
                c.drops_ttl,
                c.drops_displaced,
                c.drops_host_nic,
                c.drops_fault
            ),
        );
        line(
            &mut out,
            format!(
                "detours: {} events, {:.2}% of delivered packets detoured; ECN marks {}",
                c.detours,
                100.0 * c.detoured_fraction(),
                c.ecn_marks
            ),
        );
        line(
            &mut out,
            format!(
                "recovery: {} timeouts ({} spurious), {} fast retransmits",
                c.rto_timeouts, c.spurious_timeouts, c.fast_retransmits
            ),
        );
        if let Some(j) = self.jain {
            line(&mut out, format!("Jain fairness index: {j:.4}"));
        }
        if self.pfc_pause_events > 0 {
            line(&mut out, format!("PFC pauses: {}", self.pfc_pause_events));
        }
        line(
            &mut out,
            format!(
                "engine: {} events over {:.3} simulated seconds",
                self.events, self.finished_at_s
            ),
        );
        out
    }
}

impl ToJson for Report {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("qct_ms".to_string(), self.qct_ms.to_json()),
            (
                "bg_short_fct_ms".to_string(),
                self.bg_short_fct_ms.to_json(),
            ),
            ("bg_all_fct_ms".to_string(), self.bg_all_fct_ms.to_json()),
            ("flows_total".to_string(), self.flows_total.to_json()),
            (
                "flows_completed".to_string(),
                self.flows_completed.to_json(),
            ),
            ("queries_total".to_string(), self.queries_total.to_json()),
            (
                "queries_completed".to_string(),
                self.queries_completed.to_json(),
            ),
            ("counters".to_string(), self.counters.to_json()),
            ("jain".to_string(), self.jain.to_json()),
            (
                "pfc_pause_events".to_string(),
                self.pfc_pause_events.to_json(),
            ),
            ("events".to_string(), self.events.to_json()),
            ("finished_at_s".to_string(), self.finished_at_s.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn tiny_report() -> Report {
        let s = Scenario::from_json(
            r#"{
                "topology": { "type": "mini_testbed" },
                "duration_ms": 5,
                "drain_ms": 400,
                "workloads": [
                    { "type": "incast", "target": 5, "degree": 20, "response_bytes": 20000 }
                ]
            }"#,
        )
        .unwrap();
        let mut results = s.build().unwrap().run();
        Report::from_results(&mut results)
    }

    #[test]
    fn report_fields_consistent() {
        let r = tiny_report();
        assert_eq!(r.flows_total, 20);
        assert_eq!(r.flows_completed, 20);
        assert_eq!(r.queries_completed, 1);
        assert!(r.qct_ms.is_some());
        assert!(r.events > 0);
    }

    #[test]
    fn text_and_json_render() {
        let r = tiny_report();
        let text = r.render_text();
        assert!(text.contains("queries: 1/1 completed"));
        assert!(text.contains("QCT ms"));
        let json = r.to_json().render_pretty();
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(
            parsed.get("queries_completed").and_then(Json::as_u64),
            Some(1)
        );
    }
}
