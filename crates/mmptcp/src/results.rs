//! Results of one experiment run.

use metrics::{FlowMetrics, LossReport, Summary, UtilisationReport};
use netsim::{FlowId, FlowSet, SimCounters, SimDuration, MICE_THRESHOLD_BYTES};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use workload::{FlowClass, FlowSpec};

use crate::config::Protocol;

/// End-of-run engine state needed to close the packet conservation law —
/// packets that were accepted by a queue but had not yet been delivered,
/// dropped or handed to a host when the run ended.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConservationAudit {
    /// Packets with a scheduled delivery still pending in the calendar (the
    /// engine's packet arena) when the run ended.
    pub in_flight_at_end: u64,
    /// Packets sitting in link queues, not yet committed to a wire.
    pub backlog_at_end: u64,
    /// Packets dropped by switches for lack of a route (0 on well-formed
    /// topologies; kept separate from queue drops in the engine counter).
    pub no_route: u64,
    /// Bytes delivered analytically by the fluid fast path (hybrid engine
    /// only; exactly 0 under `Engine::Packet`). These bytes never ride in
    /// packets, so they appear in no link counter — they are a separate
    /// ledger term that closes the per-flow byte law: for a flow that
    /// completed in fluid mode, packet-delivered + fluid-delivered == size.
    pub fluid_delivered_bytes: u64,
}

/// Everything measured during one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResults {
    /// Human-readable run name (protocol + topology).
    pub name: String,
    /// Protocol used by short flows.
    pub protocol: Protocol,
    /// Seed of the run.
    pub seed: u64,
    /// Simulated time at which the run ended.
    pub elapsed: SimDuration,
    /// The workload that was executed.
    pub flows: Vec<FlowSpec>,
    /// Flow ids of short flows.
    pub short_ids: HashSet<FlowId>,
    /// Flow ids of long (background) flows.
    pub long_ids: HashSet<FlowId>,
    /// Per-flow measurements.
    pub metrics: FlowMetrics,
    /// Per-layer loss report.
    pub loss: LossReport,
    /// Utilisation of the aggregation↔core tier.
    pub core_utilisation: UtilisationReport,
    /// Mean utilisation over every link.
    pub overall_utilisation: f64,
    /// Engine counters (events, drops, forwards).
    pub counters: SimCounters,
    /// End-of-run state closing the packet conservation law.
    pub audit: ConservationAudit,
    /// Whether every short flow completed before the simulated-time cap.
    pub all_short_completed: bool,
    /// Fixed measurement window for long-flow goodput (see
    /// `ExperimentConfig::goodput_horizon`); `None` measures over the run.
    pub goodput_horizon: Option<SimDuration>,
    /// The flight-recorder trace, when `ExperimentConfig::trace` asked for
    /// one (`None` for untraced runs). Collected per run on the worker that
    /// executed it, so the parallel driver's config-order result merge is
    /// also the deterministic trace merge.
    pub trace: Option<metrics::TraceSink>,
}

impl ExperimentResults {
    /// Completion times (ms) of short flows, ordered by flow id — the series
    /// plotted in Figures 1(b) and 1(c).
    pub fn short_fcts_ms(&self) -> Vec<f64> {
        self.metrics.fcts_ms(|f| self.short_ids.contains(&f))
    }

    /// Summary (ms) of short-flow completion times.
    pub fn short_fct_summary(&self) -> Summary {
        self.metrics.fct_summary_ms(|f| self.short_ids.contains(&f))
    }

    /// Summary (ms) of completion times over the *mice* among the short
    /// flows (size ≤ [`MICE_THRESHOLD_BYTES`]). With empirical flow-size
    /// workloads the overall short-flow percentiles are dominated by
    /// multi-megabyte transfers; this is the tail the mice-focused
    /// transports compete on.
    pub(crate) fn mice_fct_summary(&self) -> Summary {
        let mice: FlowSet = self
            .flows
            .iter()
            .filter(|f| {
                f.class == FlowClass::Short && f.size.is_some_and(|s| s <= MICE_THRESHOLD_BYTES)
            })
            .map(|f| FlowId(f.id))
            .collect();
        self.metrics.fct_summary_ms(|f| mice.contains(&f))
    }

    /// Total bytes senders put on the wire beyond their flows' sizes
    /// (replica copies plus retransmissions, as reported by
    /// replication-based transports).
    pub fn redundant_bytes(&self) -> u64 {
        self.metrics.redundant_bytes(|_| true)
    }

    /// Check the engine's packet and byte conservation laws for this run.
    ///
    /// Packet law: every packet accepted by any queue is eventually exactly
    /// one of — delivered to a host, forwarded by a switch (and then offered
    /// to the next queue), dropped (queue overflow or no route), still in
    /// flight, or still queued:
    ///
    /// ```text
    /// offered == delivered_to_hosts + forwarded + dropped
    ///            + in_flight_at_end + backlog_at_end
    /// ```
    ///
    /// where `offered` sums `enqueued + dropped` over every link queue, and
    /// `dropped` is the engine counter (queue drops + no-route drops).
    ///
    /// Routing law: no host was asked to send without an uplink
    /// (`unsendable`, packets that never reach a queue) and no packet was
    /// delivered to a host other than its destination (`misrouted`, counted
    /// within `delivered_to_hosts`): both counters are 0.
    ///
    /// Byte law: every *completed* bounded flow delivered exactly its size,
    /// and no bounded flow reports more bytes than its size (replication
    /// must be invisible at connection level).
    ///
    /// Fluid ledger (hybrid engine): bytes the fluid fast path delivered
    /// analytically never ride in packets, so the packet law above is
    /// untouched by mode transitions — but the fluid term must itself be
    /// bounded by the workload: it can never exceed the total bytes of the
    /// bounded flows (only bounded elephants ever hand off).
    pub fn check_conservation(&self) -> Result<(), String> {
        let offered = self.loss.edge.offered
            + self.loss.aggregation.offered
            + self.loss.core.offered
            + self.loss.host.offered;
        let accounted = self.counters.delivered_to_hosts
            + self.counters.forwarded
            + self.counters.dropped
            + self.audit.in_flight_at_end
            + self.audit.backlog_at_end;
        if offered != accounted {
            return Err(format!(
                "packet conservation violated in '{}' (seed {}): offered {} != \
                 delivered {} + forwarded {} + dropped {} + in-flight {} + backlog {}",
                self.name,
                self.seed,
                offered,
                self.counters.delivered_to_hosts,
                self.counters.forwarded,
                self.counters.dropped,
                self.audit.in_flight_at_end,
                self.audit.backlog_at_end,
            ));
        }
        let queue_drops = self.loss.total_dropped();
        if self.counters.dropped != queue_drops + self.audit.no_route {
            return Err(format!(
                "drop accounting violated in '{}' (seed {}): engine dropped {} != \
                 queue drops {} + no-route {}",
                self.name, self.seed, self.counters.dropped, queue_drops, self.audit.no_route,
            ));
        }
        let (unsendable, misrouted) = (self.counters.unsendable, self.counters.misrouted);
        if unsendable + misrouted > 0 {
            return Err(format!(
                "routing violated in '{}' (seed {}): {unsendable} packets unsendable \
                 (no uplink), {misrouted} misrouted (delivered to the wrong host)",
                self.name, self.seed,
            ));
        }
        let bounded_total: u64 = self.flows.iter().filter_map(|f| f.size).sum();
        if self.audit.fluid_delivered_bytes > bounded_total {
            return Err(format!(
                "fluid ledger violated in '{}' (seed {}): fluid delivered {} bytes > \
                 total bounded workload {} bytes",
                self.name, self.seed, self.audit.fluid_delivered_bytes, bounded_total,
            ));
        }
        for spec in &self.flows {
            let Some(size) = spec.size else { continue };
            let Some(rec) = self.metrics.record(FlowId(spec.id)) else {
                continue;
            };
            if rec.completed.is_some() && rec.bytes != size {
                return Err(format!(
                    "byte conservation violated in '{}' (seed {}): flow {} completed \
                     with {} bytes, size is {}",
                    self.name, self.seed, spec.id, rec.bytes, size,
                ));
            }
            if rec.bytes > size {
                return Err(format!(
                    "over-delivery in '{}' (seed {}): flow {} reports {} bytes > size {}",
                    self.name, self.seed, spec.id, rec.bytes, size,
                ));
            }
        }
        Ok(())
    }

    /// Number of short flows that experienced at least one RTO.
    pub fn short_flows_with_rto(&self) -> usize {
        self.metrics.flows_with_rto(|f| self.short_ids.contains(&f))
    }

    /// Aggregate goodput of long flows in bits/second.
    ///
    /// Measured from the receivers' progress-report time series over
    /// `[0, min(horizon, elapsed)]` when a goodput horizon is configured, so
    /// runs that lasted different amounts of simulated time remain
    /// comparable, and over the whole run otherwise.
    pub fn long_goodput_bps(&self) -> f64 {
        let end = self
            .goodput_horizon
            .map_or(self.elapsed, |h| h.min(self.elapsed));
        self.metrics.goodput_bps_windowed(
            |f| self.long_ids.contains(&f),
            netsim::SimTime::ZERO,
            netsim::SimTime::ZERO + end,
        )
    }

    /// Number of flows that switched phase (MMPTCP only).
    pub fn phase_switches(&self) -> usize {
        let switched = |spec: &FlowSpec| self.metrics.record(FlowId(spec.id))?.phase_switched;
        self.flows.iter().filter_map(switched).count()
    }

    /// Deadline accounting over flows that carry a deadline in the workload:
    /// `(missed, total_with_deadline)`. A flow misses its deadline when it
    /// either finished later than `start + deadline` or never finished at all.
    pub fn deadline_misses(&self) -> (usize, usize) {
        let mut missed = 0usize;
        let mut total = 0usize;
        for spec in &self.flows {
            let Some(deadline) = spec.deadline else {
                continue;
            };
            total += 1;
            let rec = self.metrics.record(FlowId(spec.id));
            let met = rec
                .and_then(|r| r.completed)
                .map(|done| done <= spec.start + deadline)
                .unwrap_or(false);
            if !met {
                missed += 1;
            }
        }
        (missed, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::LossReport;
    use netsim::Signal;
    use netsim::SimTime;

    fn fake_results() -> ExperimentResults {
        let mut metrics = FlowMetrics::new();
        metrics.ingest(&[
            Signal::FlowStarted {
                flow: FlowId(1),
                at: SimTime::from_millis(0),
                bytes: 70_000,
            },
            Signal::FlowCompleted {
                flow: FlowId(1),
                at: SimTime::from_millis(100),
                bytes: 70_000,
            },
            Signal::FlowStarted {
                flow: FlowId(2),
                at: SimTime::from_millis(0),
                bytes: 70_000,
            },
            Signal::FlowCompleted {
                flow: FlowId(2),
                at: SimTime::from_millis(300),
                bytes: 70_000,
            },
            Signal::FlowProgress {
                flow: FlowId(0),
                at: SimTime::from_secs(1),
                bytes: 125_000_000,
            },
            Signal::RetransmissionTimeout {
                flow: FlowId(2),
                subflow: 0,
                at: SimTime::from_millis(150),
            },
        ]);
        ExperimentResults {
            name: "test".into(),
            protocol: Protocol::Tcp,
            seed: 1,
            elapsed: SimDuration::from_secs(1),
            flows: vec![],
            short_ids: [FlowId(1), FlowId(2)].into_iter().collect(),
            long_ids: [FlowId(0)].into_iter().collect(),
            metrics,
            loss: LossReport::default(),
            core_utilisation: UtilisationReport::default(),
            overall_utilisation: 0.0,
            counters: SimCounters::default(),
            audit: ConservationAudit::default(),
            all_short_completed: true,
            goodput_horizon: None,
            trace: None,
        }
    }

    #[test]
    fn summary_aggregates_short_flows_only() {
        let r = fake_results();
        let s = r.short_fct_summary();
        assert_eq!(s.count, 2);
        assert!((s.mean - 200.0).abs() < 1e-9);
        assert_eq!(r.short_flows_with_rto(), 1);
        // 125 MB over 1 s = 1 Gbps of long-flow goodput.
        assert!((r.long_goodput_bps() / 1e9 - 1.0).abs() < 1e-6);
        assert_eq!(r.phase_switches(), 0);
    }

    #[test]
    fn fct_series_is_ordered_by_flow_id() {
        // Flow 1 then flow 2; the long flow 0 is not in the series.
        assert_eq!(fake_results().short_fcts_ms(), [100.0, 300.0]);
    }

    #[test]
    fn mice_summary_filters_by_flow_size() {
        use netsim::Addr;
        use workload::FlowSpec;
        let mut r = fake_results();
        // Flow 1 (70 KB) is a mouse; flow 2 (5 MB) is not.
        r.flows = vec![
            FlowSpec::new(
                1,
                Addr(0),
                Addr(1),
                Some(70_000),
                SimTime::from_millis(0),
                workload::FlowClass::Short,
            ),
            FlowSpec::new(
                2,
                Addr(2),
                Addr(3),
                Some(5_000_000),
                SimTime::from_millis(0),
                workload::FlowClass::Short,
            ),
        ];
        let mice = r.mice_fct_summary();
        assert_eq!(mice.count, 1);
        assert!((mice.mean - 100.0).abs() < 1e-9, "only flow 1 qualifies");
        assert_eq!(r.short_fct_summary().count, 2);
    }

    #[test]
    fn conservation_checks_pass_on_consistent_results_and_catch_tampering() {
        let r = fake_results();
        assert!(r.check_conservation().is_ok());
        // A lost packet that is neither delivered nor dropped must be caught.
        let mut broken = fake_results();
        broken.loss.edge.offered = 10;
        let err = broken.check_conservation().unwrap_err();
        assert!(err.contains("packet conservation"), "{err}");
        // Engine drop counter inconsistent with queue drops + no-route.
        let mut broken = fake_results();
        broken.counters.dropped = 3;
        let err = broken.check_conservation().unwrap_err();
        assert!(
            err.contains("conservation") || err.contains("accounting"),
            "{err}"
        );
        // A completed flow that delivered the wrong byte count must be caught.
        let mut broken = fake_results();
        broken.flows = vec![workload::FlowSpec::new(
            1,
            netsim::Addr(0),
            netsim::Addr(1),
            Some(69_999),
            SimTime::from_millis(0),
            workload::FlowClass::Short,
        )];
        let err = broken.check_conservation().unwrap_err();
        assert!(err.contains("byte conservation"), "{err}");
        // Fluid bytes exceeding the bounded workload must be caught (the
        // fake workload is unbounded, so any fluid delivery is impossible).
        let mut broken = fake_results();
        broken.audit.fluid_delivered_bytes = 1;
        let err = broken.check_conservation().unwrap_err();
        assert!(err.contains("fluid ledger"), "{err}");
        // A host without an uplink and a packet at the wrong host must be
        // caught.
        let mut broken = fake_results();
        broken.counters.unsendable = 1;
        let err = broken.check_conservation().unwrap_err();
        assert!(err.contains("1 packets unsendable"), "{err}");
        let mut broken = fake_results();
        broken.counters.misrouted = 1;
        let err = broken.check_conservation().unwrap_err();
        assert!(err.contains("1 misrouted"), "{err}");
    }

    #[test]
    fn redundant_bytes_roll_up_from_the_signal_stream() {
        let mut r = fake_results();
        r.metrics.ingest(&[netsim::Signal::RedundantBytes {
            flow: FlowId(1),
            at: SimTime::from_millis(50),
            bytes: 42_000,
        }]);
        assert_eq!(r.redundant_bytes(), 42_000);
    }

    #[test]
    fn deadline_miss_accounting() {
        use netsim::Addr;
        use workload::FlowSpec;
        let mut r = fake_results();
        // No deadlines in the workload: nothing to miss.
        assert_eq!(r.deadline_misses(), (0, 0));
        // Flow 1 completed at 100 ms, flow 2 at 300 ms (see fake_results).
        let spec = |id: u64, deadline_ms: u64| FlowSpec {
            deadline: Some(SimDuration::from_millis(deadline_ms)),
            ..FlowSpec::new(
                id,
                Addr(0),
                Addr(1),
                Some(70_000),
                SimTime::from_millis(0),
                workload::FlowClass::Short,
            )
        };
        r.flows = vec![spec(1, 150), spec(2, 150), spec(99, 150)];
        // Flow 1 met (100 <= 150), flow 2 missed (300 > 150), flow 99 never
        // completed (no record) so it also counts as a miss.
        assert_eq!(r.deadline_misses(), (2, 3));
    }
}
