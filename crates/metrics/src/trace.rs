//! Flight-recorder telemetry: ring-buffered per-flow and per-link time
//! series, recorded during a run and exported as CSV/JSON for the paper's
//! explanatory figures.
//!
//! The scalar reports in [`crate::report`] answer *how fast* — FCT
//! percentiles, goodput, drop counts. This module answers *why*: how each
//! subflow's congestion window evolved (including the instant an MMPTCP
//! connection switched from packet scatter to MPTCP), where and when fabric
//! queues built up, which phase of a flow's life the retransmissions landed
//! in. Those are exactly the time-series arguments the paper (and RepFlow /
//! DiffFlow, which argue via queue occupancy and per-size FCT dynamics) make
//! in prose and figures.
//!
//! ## Pipeline
//!
//! 1. [`TraceConfig`] on `ExperimentConfig` selects what to record. The
//!    default, [`TraceConfig::Off`], is **zero-cost**: the simulator's
//!    tracing flag stays false, transports never construct a
//!    [`Signal::CwndSample`], the experiment loop keeps its untraced cadence,
//!    and every golden metric stays byte-identical.
//! 2. With tracing on, transports emit `CwndSample` signals after every
//!    state-changing activation and the experiment loop feeds the signal
//!    stream to a per-run [`TraceSink`]; when link tracing is requested the
//!    loop additionally reads every link's [`netsim::Link::stats`],
//!    [`netsim::Link::queue_stats`] and [`netsim::Link::backlog`] at the
//!    [`TraceSink::sample_every`] cadence.
//! 3. Each series lives in a [`RingSeries`]: a bounded, decimating recorder.
//!    When a series fills its capacity it drops every second retained point
//!    and doubles its acceptance stride, so arbitrarily long runs keep a
//!    bounded, evenly thinned history whose endpoints survive.
//! 4. The sink (carried inside `ExperimentResults`, so the parallel driver
//!    merges traces in config order exactly like results) renders
//!    [`TraceSink::flows_csv`] / [`TraceSink::links_csv`] /
//!    [`TraceSink::events_csv`], and [`TraceSink::write_dir`] writes the
//!    three files plus a schema-documenting `manifest.json` under
//!    `target/traces/…`.
//!
//! Determinism: the engine is single-threaded and seeded, signal order is
//! event order, and all series are keyed through `BTreeMap`s — so the same
//! seed produces byte-identical CSV across runs and across driver thread
//! counts.

use netsim::link::LinkStats;
use netsim::queue::QueueStats;
use netsim::{Network, Signal, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Which flows the recorder keeps series for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum FlowSelect {
    /// Record every flow.
    #[default]
    All,
    /// Record only the flow with this id (workload `FlowSpec::id`).
    One(u64),
}

/// Cadence of the per-link telemetry sampler. Also the lower bound the
/// experiment loop uses for its tick while link tracing is on.
const SAMPLE_EVERY: SimDuration = SimDuration::from_micros(500);

/// Capacity of each ring series (per subflow / per link). When a series
/// fills up it is thinned in place; see [`RingSeries`].
const RING_CAPACITY: usize = 2048;

/// What to record: by default every flow and no link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TraceSettings {
    /// Flow filter for cwnd series and flow events.
    pub flows: FlowSelect,
    /// Record per-link series (queue depth, window deltas, utilisation).
    pub links: bool,
}

/// Per-experiment trace switch. `Off` (the default) records nothing and
/// changes nothing; `On` wires a [`TraceSink`] through the run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum TraceConfig {
    /// No tracing: the zero-cost default.
    #[default]
    Off,
    /// Record a flight-recorder trace with these settings.
    On(TraceSettings),
}

/// One point of a subflow's congestion time series.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowPoint {
    /// When the sample was taken.
    pub at: SimTime,
    /// Congestion window in bytes.
    pub cwnd: u64,
    /// Smoothed RTT in microseconds (0 before the first RTT sample).
    pub srtt_us: u64,
    /// Subflow-level bytes in flight.
    pub outstanding: u64,
    /// Stable label of the congestion controller driving the subflow
    /// ("reno" / "cubic" / "bbr").
    pub cc: &'static str,
}

/// One point of a link's telemetry series. Counter fields are deltas over
/// the sample window ending at `at`; `depth_packets` is instantaneous.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkPoint {
    /// End of the sample window.
    pub at: SimTime,
    /// Instantaneous queue depth in packets.
    pub depth_packets: usize,
    /// Packets transmitted during the window.
    pub tx_packets: u64,
    /// Wire bytes transmitted during the window.
    pub tx_bytes: u64,
    /// Packets dropped by the output queue during the window.
    pub drops: u64,
    /// ECN marks applied during the window.
    pub ecn_marks: u64,
    /// Fraction of the window the transmitter was busy, in `[0, 1]`.
    pub utilisation: f64,
}

/// A discrete flow event worth a row of its own (never decimated, only
/// capacity-capped).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowEvent {
    /// When it happened.
    pub at: SimTime,
    /// The flow.
    pub flow: u64,
    /// Subflow index (0 for connection-level events like the phase switch).
    pub subflow: u8,
    /// What happened.
    pub kind: TraceEventKind,
    /// Event-specific detail (bytes sent at the phase switch; 0 otherwise).
    pub detail: u64,
}

/// The kinds of discrete flow events the recorder keeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// MMPTCP left the packet-scatter phase (detail = bytes sent by then).
    PhaseSwitch,
    /// A retransmission timeout fired.
    Rto,
    /// A fast retransmission was triggered.
    FastRetransmit,
    /// A retransmission was detected to be spurious (reordering, not loss).
    SpuriousRetransmit,
}

impl TraceEventKind {
    /// Stable label used in the CSV export.
    pub fn label(&self) -> &'static str {
        match self {
            TraceEventKind::PhaseSwitch => "phase_switch",
            TraceEventKind::Rto => "rto",
            TraceEventKind::FastRetransmit => "fast_retransmit",
            TraceEventKind::SpuriousRetransmit => "spurious_retransmit",
        }
    }
}

/// A bounded, decimating time-series recorder.
///
/// `push` accepts every `stride`-th offered sample (stride starts at 1).
/// When the retained buffer reaches `capacity`, every second retained point
/// is dropped and the stride doubles, halving both the stored history's
/// density and the future acceptance rate. The result: memory is bounded by
/// `capacity` no matter how long the run, the retained points stay spread
/// over the whole recording (the first point is never evicted), and the
/// series degrades gracefully instead of truncating its head or tail.
///
/// ```
/// use metrics::trace::RingSeries;
/// let mut s = RingSeries::new(4);
/// for i in 0..100u64 {
///     s.push(i);
/// }
/// assert!(s.len() <= 4);
/// assert_eq!(s.items()[0], 0, "oldest sample survives thinning");
/// assert!(s.stride() > 1, "long series raised the acceptance stride");
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RingSeries<T> {
    capacity: usize,
    stride: u64,
    offered: u64,
    items: Vec<T>,
}

impl<T> RingSeries<T> {
    /// A series retaining at most `capacity` points (minimum 2).
    pub fn new(capacity: usize) -> Self {
        RingSeries {
            capacity: capacity.max(2),
            stride: 1,
            offered: 0,
            items: Vec::new(),
        }
    }

    /// Offer one sample. Decimation may discard it; see the type docs.
    pub fn push(&mut self, item: T) {
        let accepted = self.offered.is_multiple_of(self.stride);
        self.offered += 1;
        if !accepted {
            return;
        }
        if self.items.len() >= self.capacity {
            // Thin in place: keep even-indexed points, double the stride.
            let mut keep = false;
            self.items.retain(|_| {
                keep = !keep;
                keep
            });
            self.stride = self.stride.saturating_mul(2);
        }
        self.items.push(item);
    }

    /// The retained points, oldest first.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total samples offered (including decimated ones).
    pub(crate) fn offered(&self) -> u64 {
        self.offered
    }

    /// Current acceptance stride (1 until the first thinning).
    pub fn stride(&self) -> u64 {
        self.stride
    }
}

/// Upper bound on retained discrete flow events; beyond it new events are
/// counted but dropped (queues-gone-mad pathologies should not OOM a trace).
const MAX_EVENTS: usize = 65_536;

/// The per-run flight recorder: consumes the signal stream and periodic link
/// snapshots, retains bounded series, and renders the CSV/JSON export.
#[derive(Debug, Clone)]
pub struct TraceSink {
    settings: TraceSettings,
    /// Cwnd series keyed by `(flow, subflow)` — BTreeMap for deterministic
    /// export order.
    flows: BTreeMap<(u64, u8), RingSeries<FlowPoint>>,
    /// Discrete events in emission (= simulated time) order.
    events: Vec<FlowEvent>,
    events_dropped: u64,
    /// Link series keyed by link index.
    links: BTreeMap<usize, RingSeries<LinkPoint>>,
    /// Cumulative counters at the previous link sample, per link index.
    prev_links: Vec<(LinkStats, QueueStats)>,
    last_link_sample: Option<SimTime>,
}

impl TraceSink {
    /// An empty sink with the given settings.
    pub fn new(settings: TraceSettings) -> Self {
        TraceSink {
            settings,
            flows: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            links: BTreeMap::new(),
            prev_links: Vec::new(),
            last_link_sample: None,
        }
    }

    /// Whether per-link sampling is requested.
    pub fn links_enabled(&self) -> bool {
        self.settings.links
    }

    /// The link-sampling cadence.
    pub fn sample_every(&self) -> SimDuration {
        SAMPLE_EVERY
    }

    fn wants_flow(&self, flow: u64) -> bool {
        match self.settings.flows {
            FlowSelect::All => true,
            FlowSelect::One(id) => id == flow,
        }
    }

    fn record_event(&mut self, event: FlowEvent) {
        if self.events.len() >= MAX_EVENTS {
            self.events_dropped += 1;
        } else {
            self.events.push(event);
        }
    }

    /// Consume a batch of signals: cwnd samples feed the flow series,
    /// lifecycle signals feed the event log, everything else is ignored
    /// (the flow-completion pipeline owns it).
    pub fn ingest(&mut self, signals: &[Signal]) {
        for s in signals {
            match s {
                Signal::CwndSample {
                    flow,
                    subflow,
                    at,
                    cwnd,
                    srtt_us,
                    outstanding,
                    cc,
                } if self.wants_flow(flow.0) => {
                    self.flows
                        .entry((flow.0, *subflow))
                        .or_insert_with(|| RingSeries::new(RING_CAPACITY))
                        .push(FlowPoint {
                            at: *at,
                            cwnd: *cwnd,
                            srtt_us: *srtt_us,
                            outstanding: *outstanding,
                            cc,
                        });
                }
                Signal::PhaseSwitched {
                    flow,
                    at,
                    bytes_sent,
                } if self.wants_flow(flow.0) => self.record_event(FlowEvent {
                    at: *at,
                    flow: flow.0,
                    subflow: 0,
                    kind: TraceEventKind::PhaseSwitch,
                    detail: *bytes_sent,
                }),
                Signal::RetransmissionTimeout { flow, subflow, at } if self.wants_flow(flow.0) => {
                    self.record_event(FlowEvent {
                        at: *at,
                        flow: flow.0,
                        subflow: *subflow,
                        kind: TraceEventKind::Rto,
                        detail: 0,
                    })
                }
                Signal::FastRetransmit { flow, subflow, at } if self.wants_flow(flow.0) => self
                    .record_event(FlowEvent {
                        at: *at,
                        flow: flow.0,
                        subflow: *subflow,
                        kind: TraceEventKind::FastRetransmit,
                        detail: 0,
                    }),
                Signal::SpuriousRetransmit { flow, subflow, at } if self.wants_flow(flow.0) => self
                    .record_event(FlowEvent {
                        at: *at,
                        flow: flow.0,
                        subflow: *subflow,
                        kind: TraceEventKind::SpuriousRetransmit,
                        detail: 0,
                    }),
                _ => {}
            }
        }
    }

    /// Snapshot every link at time `now`. Counter fields of the recorded
    /// point are deltas since the previous snapshot.
    pub fn sample_links(&mut self, now: SimTime, network: &Network) {
        if !self.settings.links {
            return;
        }
        let window_ns = self
            .last_link_sample
            .map(|prev| (now - prev).as_nanos())
            .unwrap_or(0);
        let mut fresh = Vec::with_capacity(network.links().len());
        for (i, link) in network.links().iter().enumerate() {
            let (ls, qs) = (link.stats(), link.queue_stats());
            let (pl, pq) = self.prev_links.get(i).copied().unwrap_or_default();
            let busy_delta = ls.busy_ns - pl.busy_ns;
            self.links
                .entry(i)
                .or_insert_with(|| RingSeries::new(RING_CAPACITY))
                .push(LinkPoint {
                    at: now,
                    depth_packets: link.backlog(),
                    tx_packets: ls.tx_packets - pl.tx_packets,
                    tx_bytes: ls.tx_bytes - pl.tx_bytes,
                    drops: qs.dropped - pq.dropped,
                    ecn_marks: qs.ecn_marked - pq.ecn_marked,
                    utilisation: if window_ns > 0 {
                        (busy_delta as f64 / window_ns as f64).min(1.0)
                    } else {
                        0.0
                    },
                });
            fresh.push((ls, qs));
        }
        self.prev_links = fresh;
        self.last_link_sample = Some(now);
    }

    // --- accessors -------------------------------------------------------

    /// The `(flow, subflow)` keys with a recorded series, in order.
    pub fn flow_keys(&self) -> Vec<(u64, u8)> {
        self.flows.keys().copied().collect()
    }

    /// The series of one subflow, if recorded.
    pub fn flow_series(&self, flow: u64, subflow: u8) -> Option<&RingSeries<FlowPoint>> {
        self.flows.get(&(flow, subflow))
    }

    /// The recorded discrete events, in simulated-time order.
    pub fn events(&self) -> &[FlowEvent] {
        &self.events
    }

    /// The series of one link (by link index), if recorded.
    pub fn link_series(&self, link: usize) -> Option<&RingSeries<LinkPoint>> {
        self.links.get(&link)
    }

    /// Number of links with a recorded series.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Total retained flow samples across all series.
    pub fn flow_sample_count(&self) -> usize {
        self.flows.values().map(|s| s.len()).sum()
    }

    /// Total retained link samples across all series.
    pub fn link_sample_count(&self) -> usize {
        self.links.values().map(|s| s.len()).sum()
    }

    // --- export ----------------------------------------------------------

    /// The per-subflow congestion series as CSV. Schema (one row per
    /// retained sample): `flow,subflow,cc,t_ns,cwnd_bytes,srtt_us,
    /// outstanding_bytes`, sorted by flow, subflow, time. `cc` is the
    /// congestion controller's stable label, so mixed-controller experiments
    /// remain separable in one file.
    pub fn flows_csv(&self) -> String {
        let mut out = String::from("flow,subflow,cc,t_ns,cwnd_bytes,srtt_us,outstanding_bytes\n");
        for ((flow, subflow), series) in &self.flows {
            for p in series.items() {
                out.push_str(&format!(
                    "{flow},{subflow},{},{},{},{},{}\n",
                    p.cc,
                    p.at.as_nanos(),
                    p.cwnd,
                    p.srtt_us,
                    p.outstanding
                ));
            }
        }
        out
    }

    /// The discrete-event log as CSV. Schema: `flow,subflow,t_ns,event,
    /// detail` where `event` is one of `phase_switch`, `rto`,
    /// `fast_retransmit`, `spurious_retransmit` and `detail` carries the
    /// bytes sent at a phase switch (0 otherwise). Rows are in simulated-time
    /// order.
    pub fn events_csv(&self) -> String {
        let mut out = String::from("flow,subflow,t_ns,event,detail\n");
        for e in &self.events {
            out.push_str(&format!(
                "{},{},{},{},{}\n",
                e.flow,
                e.subflow,
                e.at.as_nanos(),
                e.kind.label(),
                e.detail
            ));
        }
        out
    }

    /// The per-link series as CSV. Schema: `link,t_ns,depth_packets,
    /// tx_packets,tx_bytes,drops,ecn_marks,utilisation` — counters are
    /// deltas over the sample window ending at `t_ns`, `utilisation` is the
    /// busy fraction of that window with six fixed decimals.
    pub fn links_csv(&self) -> String {
        let mut out = String::from(
            "link,t_ns,depth_packets,tx_packets,tx_bytes,drops,ecn_marks,utilisation\n",
        );
        for (link, series) in &self.links {
            for p in series.items() {
                out.push_str(&format!(
                    "{link},{},{},{},{},{},{},{:.6}\n",
                    p.at.as_nanos(),
                    p.depth_packets,
                    p.tx_packets,
                    p.tx_bytes,
                    p.drops,
                    p.ecn_marks,
                    p.utilisation
                ));
            }
        }
        out
    }

    /// A JSON manifest documenting the trace: run label, settings, the
    /// schema of each CSV file, and retention statistics (offered vs
    /// retained samples, decimation strides, dropped events). Hand-rolled
    /// like every canonical document in this workspace (the local `serde`
    /// is a no-op shim).
    fn manifest_json(&self, label: &str) -> String {
        use crate::report::json_escape;
        let flows_offered: u64 = self.flows.values().map(|s| s.offered()).sum();
        let links_offered: u64 = self.links.values().map(|s| s.offered()).sum();
        let max_flow_stride = self.flows.values().map(|s| s.stride()).max().unwrap_or(1);
        let max_link_stride = self.links.values().map(|s| s.stride()).max().unwrap_or(1);
        format!(
            concat!(
                "{{\n",
                "  \"label\": \"{label}\",\n",
                "  \"sample_every_ns\": {every},\n",
                "  \"ring_capacity\": {cap},\n",
                "  \"files\": {{\n",
                "    \"flows.csv\": \"flow,subflow,cc,t_ns,cwnd_bytes,srtt_us,outstanding_bytes — one row per retained cwnd sample (cc = congestion controller label), sorted by flow/subflow/time\",\n",
                "    \"events.csv\": \"flow,subflow,t_ns,event,detail — discrete events (phase_switch carries bytes-sent in detail) in simulated-time order\",\n",
                "    \"links.csv\": \"link,t_ns,depth_packets,tx_packets,tx_bytes,drops,ecn_marks,utilisation — window deltas ending at t_ns; depth is instantaneous\"\n",
                "  }},\n",
                "  \"flow_series\": {fseries},\n",
                "  \"flow_samples_retained\": {fkept},\n",
                "  \"flow_samples_offered\": {foff},\n",
                "  \"flow_max_stride\": {fstride},\n",
                "  \"events_retained\": {ev},\n",
                "  \"events_dropped\": {evd},\n",
                "  \"link_series\": {lseries},\n",
                "  \"link_samples_retained\": {lkept},\n",
                "  \"link_samples_offered\": {loff},\n",
                "  \"link_max_stride\": {lstride}\n",
                "}}\n",
            ),
            label = json_escape(label),
            every = SAMPLE_EVERY.as_nanos(),
            cap = RING_CAPACITY,
            fseries = self.flows.len(),
            fkept = self.flow_sample_count(),
            foff = flows_offered,
            fstride = max_flow_stride,
            ev = self.events.len(),
            evd = self.events_dropped,
            lseries = self.links.len(),
            lkept = self.link_sample_count(),
            loff = links_offered,
            lstride = max_link_stride,
        )
    }

    /// Write `flows.csv`, `events.csv`, `links.csv` (only when link tracing
    /// was on) and `manifest.json` into `dir`, creating it as needed.
    /// Returns the written paths. A stale `links.csv` from a previous
    /// links-enabled trace of the same run is removed, so the directory
    /// always reflects exactly this trace.
    pub fn write_dir(&self, dir: &Path, label: &str) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        let mut write = |name: &str, contents: String| -> std::io::Result<()> {
            let path = dir.join(name);
            std::fs::write(&path, contents)?;
            written.push(path);
            Ok(())
        };
        write("flows.csv", self.flows_csv())?;
        write("events.csv", self.events_csv())?;
        if self.settings.links {
            write("links.csv", self.links_csv())?;
        } else if let Err(e) = std::fs::remove_file(dir.join("links.csv")) {
            if e.kind() != std::io::ErrorKind::NotFound {
                return Err(e);
            }
        }
        write("manifest.json", self.manifest_json(label))?;
        Ok(written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::FlowId;

    fn sample(flow: u64, subflow: u8, ms: u64, cwnd: u64) -> Signal {
        Signal::CwndSample {
            flow: FlowId(flow),
            subflow,
            at: SimTime::from_millis(ms),
            cwnd,
            srtt_us: 100,
            outstanding: cwnd / 2,
            cc: "reno",
        }
    }

    #[test]
    fn ring_series_accepts_everything_until_capacity() {
        let mut s = RingSeries::new(8);
        for i in 0..8u64 {
            s.push(i);
        }
        assert_eq!(s.len(), 8);
        assert_eq!(s.stride(), 1);
        assert_eq!(s.items(), (0..8).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn ring_series_thins_and_doubles_stride_at_capacity() {
        let mut s = RingSeries::new(8);
        for i in 0..9u64 {
            s.push(i);
        }
        // Compaction kept 0,2,4,6 and then accepted 8 (stride now 2).
        assert_eq!(s.items(), &[0, 2, 4, 6, 8]);
        assert_eq!(s.stride(), 2);
        // Offer 9 (decimated: offered index 9 is odd) and 10 (accepted).
        s.push(9);
        assert_eq!(s.len(), 5);
        s.push(10);
        assert_eq!(s.items(), &[0, 2, 4, 6, 8, 10]);
    }

    #[test]
    fn ring_series_is_bounded_and_keeps_its_head_under_long_input() {
        let mut s = RingSeries::new(16);
        for i in 0..100_000u64 {
            s.push(i);
        }
        assert!(s.len() <= 16, "len {} exceeds capacity", s.len());
        assert_eq!(s.items()[0], 0, "first sample must survive every thinning");
        assert_eq!(s.offered(), 100_000);
        assert!(s.stride() >= 100_000 / 16);
        // Retained points are strictly increasing (ordered history).
        for w in s.items().windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn ring_series_minimum_capacity_is_two() {
        let mut s = RingSeries::new(0);
        for i in 0..10u64 {
            s.push(i);
        }
        assert!(s.len() <= 2);
        assert!(!s.is_empty());
    }

    #[test]
    fn sink_records_cwnd_series_per_subflow() {
        let mut sink = TraceSink::new(TraceSettings::default());
        sink.ingest(&[
            sample(1, 0, 1, 14_000),
            sample(1, 0, 2, 28_000),
            sample(1, 1, 3, 14_000),
            sample(2, 0, 4, 14_000),
        ]);
        assert_eq!(sink.flow_keys(), vec![(1, 0), (1, 1), (2, 0)]);
        let s = sink.flow_series(1, 0).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.items()[1].cwnd, 28_000);
        assert_eq!(sink.flow_sample_count(), 4);
    }

    #[test]
    fn sink_flow_filter_drops_other_flows() {
        let mut sink = TraceSink::new(TraceSettings {
            flows: FlowSelect::One(7),
            ..TraceSettings::default()
        });
        sink.ingest(&[
            sample(7, 0, 1, 14_000),
            sample(8, 0, 1, 14_000),
            Signal::PhaseSwitched {
                flow: FlowId(8),
                at: SimTime::from_millis(2),
                bytes_sent: 210_000,
            },
            Signal::PhaseSwitched {
                flow: FlowId(7),
                at: SimTime::from_millis(3),
                bytes_sent: 210_000,
            },
        ]);
        assert_eq!(sink.flow_keys(), vec![(7, 0)]);
        assert_eq!(sink.events().len(), 1);
        assert_eq!(sink.events()[0].flow, 7);
    }

    #[test]
    fn sink_records_events_with_kinds_and_details() {
        let mut sink = TraceSink::new(TraceSettings::default());
        sink.ingest(&[
            Signal::PhaseSwitched {
                flow: FlowId(1),
                at: SimTime::from_millis(5),
                bytes_sent: 210_000,
            },
            Signal::RetransmissionTimeout {
                flow: FlowId(1),
                subflow: 2,
                at: SimTime::from_millis(6),
            },
            Signal::FastRetransmit {
                flow: FlowId(1),
                subflow: 0,
                at: SimTime::from_millis(7),
            },
            Signal::SpuriousRetransmit {
                flow: FlowId(1),
                subflow: 0,
                at: SimTime::from_millis(8),
            },
            // Non-trace signals are ignored.
            Signal::FlowCompleted {
                flow: FlowId(1),
                at: SimTime::from_millis(9),
                bytes: 70_000,
            },
        ]);
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.kind.label()).collect();
        assert_eq!(
            kinds,
            vec![
                "phase_switch",
                "rto",
                "fast_retransmit",
                "spurious_retransmit"
            ]
        );
        assert_eq!(sink.events()[0].detail, 210_000);
        let csv = sink.events_csv();
        assert!(csv.starts_with("flow,subflow,t_ns,event,detail\n"));
        assert!(csv.contains("1,0,5000000,phase_switch,210000"));
    }

    #[test]
    fn link_sampling_produces_window_deltas() {
        use netsim::{Addr, Ecn, FlowId, LinkConfig, Packet, QueueConfig, SwitchLayer};
        let mut net = Network::new();
        let h0 = net.add_host();
        let sw = net.add_switch(SwitchLayer::Edge, 1);
        let config = LinkConfig {
            queue: QueueConfig {
                limit_packets: 2,
                ecn_threshold_packets: Some(1),
            },
            ..LinkConfig::default()
        };
        let (up, _down) = net.add_duplex_link(h0, sw, config);
        let mut sink = TraceSink::new(TraceSettings {
            links: true,
            ..TraceSettings::default()
        });
        sink.sample_links(SimTime::ZERO, &net);
        // Offer five ECN-capable packets to the uplink: one transmits, the
        // second queues unmarked, the third queues marked (depth 1 = K) and
        // the last two find the 2-packet queue full.
        for i in 0..5u64 {
            let mut pkt = Packet::data(
                Addr(0),
                Addr(0),
                1,
                2,
                FlowId(1),
                0,
                i,
                i,
                1400,
                SimTime::ZERO,
            );
            pkt.ecn = Ecn::Capable;
            let _ = net.link_mut(up).offer(SimTime::ZERO, pkt);
        }
        sink.sample_links(SimTime::from_micros(100), &net);
        let series = sink.link_series(up.index()).unwrap();
        assert_eq!(series.len(), 2);
        let p = series.items()[1];
        let deltas = |p: LinkPoint| (p.tx_packets, p.tx_bytes, p.drops, p.ecn_marks);
        assert_eq!(p.depth_packets, 2);
        assert_eq!(deltas(p), (1, 1454, 2, 1), "window deltas, not cumulative");
        assert!(p.utilisation > 0.0 && p.utilisation <= 1.0);
        // A quiet window records zero deltas.
        sink.sample_links(SimTime::from_micros(200), &net);
        let q = sink.link_series(up.index()).unwrap().items()[2];
        assert_eq!(deltas(q), (0, 0, 0, 0));
        // Every link in the network has a series.
        assert_eq!(sink.link_count(), net.link_count());
        let csv = sink.links_csv();
        assert!(csv.starts_with(
            "link,t_ns,depth_packets,tx_packets,tx_bytes,drops,ecn_marks,utilisation\n"
        ));
    }

    #[test]
    fn csv_and_manifest_are_deterministic() {
        let build = || {
            let mut sink = TraceSink::new(TraceSettings::default());
            sink.ingest(&[
                sample(2, 1, 2, 28_000),
                sample(1, 0, 1, 14_000),
                Signal::PhaseSwitched {
                    flow: FlowId(1),
                    at: SimTime::from_millis(3),
                    bytes_sent: 100,
                },
            ]);
            sink
        };
        let a = build();
        let b = build();
        assert_eq!(a.flows_csv(), b.flows_csv());
        assert_eq!(a.events_csv(), b.events_csv());
        assert_eq!(a.manifest_json("x"), b.manifest_json("x"));
        // Sorted by flow then subflow regardless of ingest order.
        let csv = a.flows_csv();
        let first_data_line = csv.lines().nth(1).unwrap();
        assert!(first_data_line.starts_with("1,0,"));
        assert!(a.manifest_json("run \"1\"").contains("run \\\"1\\\""));
    }

    #[test]
    fn write_dir_emits_the_documented_files() {
        let dir = std::env::temp_dir().join(format!(
            "mmptcp-trace-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut sink = TraceSink::new(TraceSettings {
            links: true,
            ..TraceSettings::default()
        });
        sink.ingest(&[sample(1, 0, 1, 14_000)]);
        let written = sink.write_dir(&dir, "test-run").expect("write trace dir");
        let names: Vec<String> = written
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            vec!["flows.csv", "events.csv", "links.csv", "manifest.json"]
        );
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"label\": \"test-run\""));
        assert!(manifest.contains("\"flow_samples_retained\": 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn off_config_is_the_default_and_reports_no_settings() {
        assert_eq!(TraceConfig::default(), TraceConfig::Off);
        assert!(!TraceSettings::default().links, "link series are opt-in");
    }
}
