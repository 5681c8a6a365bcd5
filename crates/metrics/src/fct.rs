//! Flow-level measurement: completion times, retransmission statistics and
//! phase-switch accounting, derived from the [`netsim::Signal`] stream.

use crate::stats::Summary;
use netsim::{FlowId, Signal, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Everything recorded about one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// When the sender started.
    pub started: Option<SimTime>,
    /// When the transfer was fully acknowledged.
    pub completed: Option<SimTime>,
    /// Bytes of the completed transfer (or of the final progress report).
    pub bytes: u64,
    /// Retransmission timeouts experienced.
    pub rtos: u32,
    /// When the MMPTCP phase switch happened, if it did.
    pub phase_switched: Option<SimTime>,
    /// Bytes the sender put on the wire beyond the flow's size (replica
    /// copies plus retransmissions), as reported by replication-based
    /// transports via [`Signal::RedundantBytes`].
    pub redundant_bytes: u64,
}

impl FlowRecord {
    /// Flow completion time, if the flow both started and completed.
    fn fct(&self) -> Option<SimDuration> {
        match (self.started, self.completed) {
            (Some(s), Some(c)) => Some(c - s),
            _ => None,
        }
    }
}

/// Collects per-flow records from the signal stream.
#[derive(Debug, Default, Clone)]
pub struct FlowMetrics {
    records: HashMap<FlowId, FlowRecord>,
    /// Time series of progress reports per flow: `(when, bytes delivered so
    /// far)`, in arrival order. Fed by the receivers' periodic
    /// `Signal::FlowProgress` reports; lets goodput be computed over any fixed
    /// window regardless of when the run ended.
    progress: HashMap<FlowId, Vec<(SimTime, u64)>>,
}

impl FlowMetrics {
    /// Create an empty collector.
    pub fn new() -> Self {
        FlowMetrics::default()
    }

    /// Ingest a batch of signals.
    pub fn ingest<'a>(&mut self, signals: impl IntoIterator<Item = &'a Signal>) {
        for s in signals {
            // Flight-recorder telemetry is the trace sink's input, not a
            // flow-lifecycle event; skipping it before the entry() below
            // keeps traced runs from growing phantom flow records.
            if matches!(s, Signal::CwndSample { .. }) {
                continue;
            }
            let rec = self.records.entry(s.flow()).or_default();
            match s {
                Signal::FlowStarted { at, .. } => rec.started = Some(*at),
                Signal::FlowCompleted { at, bytes, .. } => {
                    rec.completed = Some(*at);
                    rec.bytes = *bytes;
                    self.progress
                        .entry(s.flow())
                        .or_default()
                        .push((*at, *bytes));
                }
                Signal::RetransmissionTimeout { .. } => rec.rtos += 1,
                // No report reads these; the trace's events log keeps them.
                Signal::FastRetransmit { .. } | Signal::SpuriousRetransmit { .. } => {}
                Signal::PhaseSwitched { at, .. } => rec.phase_switched = Some(*at),
                Signal::FlowProgress { at, bytes, .. } => {
                    // Keep the largest report: at `Finalize` the fluid engine
                    // reports a handed-off flow's total, its receiver the
                    // part that rode in packets.
                    rec.bytes = rec.bytes.max(*bytes);
                    self.progress
                        .entry(s.flow())
                        .or_default()
                        .push((*at, *bytes));
                }
                Signal::RedundantBytes { bytes, .. } => rec.redundant_bytes += bytes,
                Signal::CwndSample { .. } => unreachable!("filtered above"),
            }
        }
    }

    /// Bytes the flow had delivered by time `at`, using the most recent
    /// progress report (or completion) at or before `at`. Returns 0 if the
    /// flow had reported nothing by then.
    pub fn bytes_delivered_by(&self, flow: FlowId, at: SimTime) -> u64 {
        self.progress
            .get(&flow)
            .map(|series| {
                series
                    .iter()
                    .filter(|(t, _)| *t <= at)
                    .map(|(_, b)| *b)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    /// Aggregate goodput (bits per second) of the selected flows over the
    /// window `[start, end]`, computed from progress-report deltas inside the
    /// window, so it is insensitive to how long the run lasted after `end`.
    /// Over a whole run (`start` = 0, `end` = the last report) that is every
    /// byte the flow records hold.
    pub fn goodput_bps_windowed<F: Fn(FlowId) -> bool>(
        &self,
        filter: F,
        start: SimTime,
        end: SimTime,
    ) -> f64 {
        let window = (end - start).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        let bytes: u64 = self
            .progress
            .keys()
            .filter(|id| filter(**id))
            .map(|id| {
                self.bytes_delivered_by(*id, end)
                    .saturating_sub(self.bytes_delivered_by(*id, start))
            })
            .sum();
        bytes as f64 * 8.0 / window
    }

    /// The record for one flow.
    pub fn record(&self, flow: FlowId) -> Option<&FlowRecord> {
        self.records.get(&flow)
    }

    /// Number of flows seen.
    pub fn flow_count(&self) -> usize {
        self.records.len()
    }

    /// All (flow, record) pairs, sorted by flow id for deterministic output.
    pub fn sorted_records(&self) -> Vec<(FlowId, FlowRecord)> {
        let mut v: Vec<(FlowId, FlowRecord)> = self.records.iter().map(|(k, v)| (*k, *v)).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Completion times (milliseconds) of the flows selected by `filter`.
    pub fn fcts_ms<F: Fn(FlowId) -> bool>(&self, filter: F) -> Vec<f64> {
        let mut v: Vec<(FlowId, f64)> = self
            .records
            .iter()
            .filter(|(id, _)| filter(**id))
            .filter_map(|(id, r)| r.fct().map(|d| (*id, d.as_millis_f64())))
            .collect();
        v.sort_by_key(|(id, _)| *id);
        v.into_iter().map(|(_, f)| f).collect()
    }

    /// Summary of completion times (in milliseconds) over the selected flows.
    pub fn fct_summary_ms<F: Fn(FlowId) -> bool>(&self, filter: F) -> Summary {
        Summary::of(&self.fcts_ms(filter))
    }

    /// Total RTOs over the selected flows.
    pub fn total_rtos<F: Fn(FlowId) -> bool>(&self, filter: F) -> u64 {
        self.records
            .iter()
            .filter(|(id, _)| filter(**id))
            .map(|(_, r)| r.rtos as u64)
            .sum()
    }

    /// Number of selected flows that experienced at least one RTO.
    pub fn flows_with_rto<F: Fn(FlowId) -> bool>(&self, filter: F) -> usize {
        self.records
            .iter()
            .filter(|(id, r)| filter(**id) && r.rtos > 0)
            .count()
    }

    /// Total redundant bytes (replica copies + retransmissions reported via
    /// [`Signal::RedundantBytes`]) over the selected flows.
    pub fn redundant_bytes<F: Fn(FlowId) -> bool>(&self, filter: F) -> u64 {
        self.records
            .iter()
            .filter(|(id, _)| filter(**id))
            .map(|(_, r)| r.redundant_bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signals_for_flow(id: u64, start_ms: u64, end_ms: u64, bytes: u64) -> Vec<Signal> {
        vec![
            Signal::FlowStarted {
                flow: FlowId(id),
                at: SimTime::from_millis(start_ms),
                bytes,
            },
            Signal::FlowCompleted {
                flow: FlowId(id),
                at: SimTime::from_millis(end_ms),
                bytes,
            },
        ]
    }

    #[test]
    fn fct_is_completion_minus_start() {
        let mut m = FlowMetrics::new();
        m.ingest(&signals_for_flow(1, 100, 216, 70_000));
        let rec = m.record(FlowId(1)).unwrap();
        assert_eq!(rec.fct(), Some(SimDuration::from_millis(116)));
        assert_eq!(rec.bytes, 70_000);
    }

    #[test]
    fn summary_over_selected_flows() {
        let mut m = FlowMetrics::new();
        m.ingest(&signals_for_flow(1, 0, 100, 70_000));
        m.ingest(&signals_for_flow(2, 0, 200, 70_000));
        m.ingest(&signals_for_flow(10, 0, 5_000, 70_000)); // excluded below
        let s = m.fct_summary_ms(|f| f.0 < 10);
        assert_eq!(s.count, 2);
        assert!((s.mean - 150.0).abs() < 1e-9);
    }

    #[test]
    fn incomplete_flows_are_not_counted_in_fct() {
        let mut m = FlowMetrics::new();
        m.ingest(&[Signal::FlowStarted {
            flow: FlowId(3),
            at: SimTime::from_millis(1),
            bytes: 100,
        }]);
        assert_eq!(m.fcts_ms(|_| true).len(), 0);
        assert_eq!(m.flow_count(), 1);
        assert_eq!(m.record(FlowId(3)).unwrap().completed, None);
    }

    #[test]
    fn rto_and_retransmit_counting() {
        let mut m = FlowMetrics::new();
        m.ingest(&[
            Signal::RetransmissionTimeout {
                flow: FlowId(1),
                subflow: 0,
                at: SimTime::from_millis(5),
            },
            Signal::RetransmissionTimeout {
                flow: FlowId(1),
                subflow: 2,
                at: SimTime::from_millis(7),
            },
            Signal::FastRetransmit {
                flow: FlowId(2),
                subflow: 0,
                at: SimTime::from_millis(6),
            },
            Signal::SpuriousRetransmit {
                flow: FlowId(2),
                subflow: 0,
                at: SimTime::from_millis(8),
            },
        ]);
        assert_eq!(m.total_rtos(|_| true), 2);
        assert_eq!(m.flows_with_rto(|_| true), 1);
        assert_eq!(m.record(FlowId(2)).unwrap().rtos, 0, "not timeouts");
    }

    #[test]
    fn windowed_goodput_uses_progress_deltas() {
        let mut m = FlowMetrics::new();
        // Flow 1 delivers 1 MB by 1 s, 3 MB by 2 s, 10 MB by 5 s.
        for (sec, mb) in [(1u64, 1u64), (2, 3), (5, 10)] {
            m.ingest(&[Signal::FlowProgress {
                flow: FlowId(1),
                at: SimTime::from_secs(sec),
                bytes: mb * 1_000_000,
            }]);
        }
        assert_eq!(
            m.bytes_delivered_by(FlowId(1), SimTime::from_secs(1)),
            1_000_000
        );
        assert_eq!(
            m.bytes_delivered_by(FlowId(1), SimTime::from_secs(3)),
            3_000_000
        );
        assert_eq!(
            m.bytes_delivered_by(FlowId(1), SimTime::from_millis(500)),
            0
        );
        // Over [1 s, 2 s] the flow moved 2 MB = 16 Mbit/s.
        let bps = m.goodput_bps_windowed(|_| true, SimTime::from_secs(1), SimTime::from_secs(2));
        assert!((bps - 16e6).abs() < 1.0, "got {bps}");
        // Over [0, 2 s] it moved 3 MB = 12 Mbit/s.
        let bps = m.goodput_bps_windowed(|_| true, SimTime::ZERO, SimTime::from_secs(2));
        assert!((bps - 12e6).abs() < 1.0, "got {bps}");
        // The window is insensitive to later progress.
        let with_tail = m.goodput_bps_windowed(|_| true, SimTime::ZERO, SimTime::from_secs(2));
        assert!((with_tail - 12e6).abs() < 1.0);
    }

    #[test]
    fn completion_counts_as_progress() {
        let mut m = FlowMetrics::new();
        m.ingest(&signals_for_flow(4, 0, 500, 70_000));
        assert_eq!(
            m.bytes_delivered_by(FlowId(4), SimTime::from_secs(1)),
            70_000
        );
        assert_eq!(
            m.bytes_delivered_by(FlowId(4), SimTime::from_millis(100)),
            0
        );
    }

    #[test]
    fn progress_reports_feed_goodput() {
        let mut m = FlowMetrics::new();
        m.ingest(&[Signal::FlowProgress {
            flow: FlowId(7),
            at: SimTime::from_secs(2),
            bytes: 250_000_000,
        }]);
        // 250 MB over 2 s = 1 Gbps.
        let bps = m.goodput_bps_windowed(|_| true, SimTime::ZERO, SimTime::from_secs(2));
        assert!((bps - 1e9).abs() < 1e6);
    }

    #[test]
    fn redundant_bytes_accumulate_per_flow() {
        let mut m = FlowMetrics::new();
        m.ingest(&[
            Signal::RedundantBytes {
                flow: FlowId(1),
                at: SimTime::from_millis(5),
                bytes: 70_000,
            },
            Signal::RedundantBytes {
                flow: FlowId(2),
                at: SimTime::from_millis(6),
                bytes: 1_400,
            },
        ]);
        assert_eq!(m.record(FlowId(1)).unwrap().redundant_bytes, 70_000);
        assert_eq!(m.redundant_bytes(|_| true), 71_400);
        assert_eq!(m.redundant_bytes(|f| f.0 == 2), 1_400);
    }

    #[test]
    fn phase_switch_is_recorded() {
        let mut m = FlowMetrics::new();
        m.ingest(&[Signal::PhaseSwitched {
            flow: FlowId(4),
            at: SimTime::from_millis(42),
            bytes_sent: 210_000,
        }]);
        assert_eq!(
            m.record(FlowId(4)).unwrap().phase_switched,
            Some(SimTime::from_millis(42))
        );
    }
}
