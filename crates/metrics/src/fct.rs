//! Flow-level measurement: completion times, retransmission statistics and
//! phase-switch accounting, derived from the [`netsim::Signal`] stream.

use crate::stats::Summary;
use netsim::{FlowId, FlowMap, Signal, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

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
    records: FlowMap<FlowRecord>,
    /// Time series of progress reports per flow: `(when, bytes delivered so
    /// far)`, in arrival order. Fed by the receivers' periodic
    /// `Signal::FlowProgress` reports; lets goodput be computed over any fixed
    /// window regardless of when the run ended.
    ///
    /// A completion is the flow's last progress point. A flow with a series
    /// holds its completion in it; a flow without one (a mouse, whose only
    /// later report is its receiver's `Finalize` of the same bytes) has the
    /// completion in its record alone.
    progress: FlowMap<Vec<(SimTime, u64)>>,
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
                    debug_assert!(rec.completed.is_none(), "{} completed twice", s.flow());
                    rec.completed = Some(*at);
                    rec.bytes = *bytes;
                    if let Some(series) = self.progress.get_mut(&s.flow()) {
                        series.push((*at, *bytes));
                    }
                }
                Signal::RetransmissionTimeout { .. } => rec.rtos += 1,
                // No report reads these; the trace's events log keeps them.
                Signal::FastRetransmit { .. } | Signal::SpuriousRetransmit { .. } => {}
                Signal::PhaseSwitched { at, .. } => rec.phase_switched = Some(*at),
                Signal::FlowProgress { at, bytes, .. } => {
                    let completion = rec.completed.map(|done| (done, rec.bytes));
                    if completion.is_some_and(|(done, _)| done <= *at) && *bytes <= rec.bytes {
                        // Nothing new: the completion, or a larger report
                        // since, delivered as much no later.
                        continue;
                    }
                    // Keep the largest report: at `Finalize` the fluid engine
                    // reports a handed-off flow's total, its receiver the
                    // part that rode in packets.
                    rec.bytes = rec.bytes.max(*bytes);
                    // A series started after the completion opens with it.
                    let series = self.progress.entry(s.flow());
                    let series = series.or_insert_with(|| completion.into_iter().collect());
                    series.push((*at, *bytes));
                }
                Signal::RedundantBytes { bytes, .. } => rec.redundant_bytes += bytes,
                Signal::CwndSample { .. } => unreachable!("filtered above"),
            }
        }
    }

    /// Bytes the flow had delivered by time `at`, using the most recent
    /// progress report (or completion) at or before `at`. Returns 0 if the
    /// flow had reported nothing by then.
    pub(crate) fn bytes_delivered_by(&self, flow: FlowId, at: SimTime) -> u64 {
        match self.progress.get(&flow) {
            Some(series) => {
                let by = series.iter().filter(|(t, _)| *t <= at).map(|(_, b)| *b);
                by.max().unwrap_or(0)
            }
            // No series: the completion is the flow's only point.
            None => match self.records.get(&flow) {
                Some(&FlowRecord {
                    completed: Some(done),
                    bytes,
                    ..
                }) if done <= at => bytes,
                _ => 0,
            },
        }
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
            .records
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
    use crate::{case_rng, CASES};

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

    /// Windowed goodput is non-negative and bytes delivered by `t` never
    /// fall as `t` grows, for any sorted progress series.
    #[test]
    fn windowed_goodput_monotone_in_delivered_bytes() {
        for case in 0..CASES {
            let mut params = case_rng(10, case);
            let len = params.range(1usize..40);
            let mut points: Vec<(u64, u64)> = (0..len)
                .map(|_| (params.range(1u64..5_000), params.range(1u64..1_000_000)))
                .collect();
            points.sort();
            let mut m = FlowMetrics::new();
            let mut cumulative = 0u64;
            let mut last_t = 0u64;
            for (dt, db) in &points {
                last_t += dt;
                cumulative += db;
                m.ingest(&[Signal::FlowProgress {
                    flow: FlowId(1),
                    at: SimTime::from_micros(last_t),
                    bytes: cumulative,
                }]);
            }
            let end = SimTime::from_micros(last_t);
            assert_eq!(m.bytes_delivered_by(FlowId(1), end), cumulative);
            assert_eq!(m.bytes_delivered_by(FlowId(1), SimTime::ZERO), 0);
            let mut prev = 0u64;
            for i in 0..points.len() as u64 {
                let b = m.bytes_delivered_by(FlowId(1), SimTime::from_micros((i + 1) * 100));
                assert!(b >= prev);
                prev = b;
            }
            assert!(m.goodput_bps_windowed(|_| true, SimTime::ZERO, end) >= 0.0);

            // Over the whole stream the window measures exactly the bytes the
            // flow records hold — the whole-run goodput, so results need no
            // second formula — whatever mix of reports a flow leaves behind:
            // receiver and sender progress at the same instant in either
            // order (the sender a few segments behind; the fluid engine
            // reports through the same signal), and a completion followed by
            // the receiver's closing report.
            let mut m = FlowMetrics::new();
            let mut end = SimTime::ZERO;
            for flow in 0..params.range(1u64..5) {
                let progress = |at, bytes| Signal::FlowProgress {
                    flow: FlowId(flow),
                    at,
                    bytes,
                };
                let (mut at, mut delivered) = (SimTime::ZERO, 0u64);
                for _ in 0..params.range(1usize..20) {
                    at += SimDuration::from_micros(params.range(1u64..5_000));
                    delivered += params.range(1u64..1_000_000);
                    let lag = params.range(0u64..=delivered.min(14_000));
                    match params.range(0u32..3) {
                        0 => m.ingest(&[progress(at, delivered)]),
                        1 => m.ingest(&[progress(at, delivered), progress(at, delivered - lag)]),
                        _ => m.ingest(&[progress(at, delivered - lag), progress(at, delivered)]),
                    }
                }
                if params.chance(0.5) {
                    at += SimDuration::from_micros(params.range(1u64..5_000));
                    m.ingest(&[Signal::FlowCompleted {
                        flow: FlowId(flow),
                        at,
                        bytes: delivered,
                    }]);
                    if params.chance(0.5) {
                        at += SimDuration::from_micros(params.range(0u64..5_000));
                        m.ingest(&[progress(at, delivered)]);
                    }
                }
                end = end.max(at);
            }
            let even = |f: FlowId| f.0.is_multiple_of(2);
            let recorded = m.sorted_records().into_iter();
            let bytes: u64 = recorded.filter(|r| even(r.0)).map(|r| r.1.bytes).sum();
            assert_eq!(
                m.goodput_bps_windowed(even, SimTime::ZERO, end),
                bytes as f64 * 8.0 / (end - SimTime::ZERO).as_secs_f64(),
                "case {case}"
            );
        }
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

    /// The progress rule drops reports that a completion covers, which is
    /// only sound if the completion is the flow's one.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "f1 completed twice")]
    fn a_flow_completes_at_most_once() {
        let mut m = FlowMetrics::new();
        m.ingest(&signals_for_flow(1, 0, 100, 70_000));
        m.ingest(&signals_for_flow(1, 0, 200, 70_000));
    }

    #[test]
    fn a_completion_is_the_flows_last_progress_point() {
        let ms = SimTime::from_millis;
        let progress = |id, at, bytes| Signal::FlowProgress {
            flow: FlowId(id),
            at,
            bytes,
        };
        let completed = |id, at, bytes| Signal::FlowCompleted {
            flow: FlowId(id),
            at,
            bytes,
        };
        let mut m = FlowMetrics::new();
        m.ingest(&[
            // (a) 1 MB reports, a completion at 25 ms, a `Finalize` report of
            // the same bytes at 100 ms.
            progress(1, ms(10), 1_000_000),
            progress(3, ms(10), 1_000_000),
            progress(1, ms(20), 2_000_000),
            completed(1, ms(25), 2_500_000),
            // (b) a completion and no report at all.
            completed(2, ms(30), 70_000),
            // (c) a `Finalize` total above the completion's bytes.
            completed(3, ms(40), 3_000_000),
        ]);
        m.ingest(&[
            progress(1, ms(100), 2_500_000),
            progress(2, ms(100), 70_000),
            progress(3, ms(100), 5_000_000),
        ]);
        let by = |id, at| m.bytes_delivered_by(FlowId(id), at);
        let a: Vec<u64> = [5, 10, 24, 25, 99, 100, 200].map(|t| by(1, ms(t))).into();
        let a_expected = [
            0, 1_000_000, 2_000_000, 2_500_000, 2_500_000, 2_500_000, 2_500_000,
        ];
        assert_eq!(a, a_expected);
        let b: Vec<u64> = [29, 30, 1_000].map(|t| by(2, ms(t))).into();
        assert_eq!(b, [0, 70_000, 70_000]);
        let c: Vec<u64> = [9, 10, 39, 40, 99, 100].map(|t| by(3, ms(t))).into();
        let c_expected = [0, 1_000_000, 1_000_000, 3_000_000, 3_000_000, 5_000_000];
        assert_eq!(c, c_expected);
        assert_eq!(m.record(FlowId(1)).unwrap().bytes, 2_500_000);
        assert_eq!(m.record(FlowId(2)).unwrap().bytes, 70_000);
        assert_eq!(
            m.record(FlowId(3)).unwrap().bytes,
            5_000_000,
            "the larger total is kept"
        );
        let bps = |keep: &dyn Fn(u64) -> bool, start, end| {
            m.goodput_bps_windowed(|f| keep(f.0), ms(start), ms(end))
        };
        let all = |_| true;
        let only_b = |f| f == 2;
        // Flow b over windows that end before, at and after its completion.
        assert_eq!(bps(&only_b, 0, 29), 0.0);
        assert!((bps(&only_b, 0, 30) - 70_000.0 * 8.0 / 0.030).abs() < 1e-3);
        assert!((bps(&only_b, 0, 1_000) - 560_000.0).abs() < 1e-6);
        // 2 + 0 + 1 MB in 20 ms; 2.5 MB + 70 KB + 1 MB in 30 ms.
        assert!((bps(&all, 0, 20) - 1.2e9).abs() < 1e-3);
        assert!((bps(&all, 0, 30) - 952e6).abs() < 1e-3);
        // After a's and b's completions only c moves: 2 MB by its completion,
        // 2 MB more by its `Finalize` report.
        assert!((bps(&all, 30, 50) - 800e6).abs() < 1e-3);
        assert!((bps(&all, 50, 100) - 320e6).abs() < 1e-3);
        assert_eq!(bps(&all, 100, 200), 0.0);
        let not_a = |f| f != 1;
        assert!((bps(&not_a, 25, 50) - 2_070_000.0 * 8.0 / 0.025).abs() < 1e-3);
    }
}
