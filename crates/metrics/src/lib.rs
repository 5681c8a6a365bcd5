//! # metrics — the measurement pipeline
//!
//! Turns the simulator's signal stream and per-link counters into the
//! quantities the paper reports:
//!
//! * [`fct::FlowMetrics`] — per-flow completion times (mean, standard
//!   deviation, percentiles), RTO / fast-retransmit / spurious-retransmit
//!   counts and MMPTCP phase-switch times;
//! * [`netstats`] — per-layer (edge / aggregation / core) loss rates, link and
//!   tier utilisation, long-flow goodput;
//! * [`stats`] — summaries and percentiles;
//! * [`report`] — canonical, deterministic JSON metrics documents (the
//!   golden-snapshot contract of the scenario registry);
//! * [`trace`] — the flight recorder: ring-buffered per-flow cwnd/RTT and
//!   per-link queue/utilisation time series with a CSV/JSON export, behind
//!   a zero-cost [`trace::TraceConfig::Off`] default;
//! * [`table`] — the plain-text tables the `scenarios` CLI and the examples print.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fct;
pub mod netstats;
pub mod report;
pub mod stats;
pub mod table;
pub mod trace;

pub use fct::FlowMetrics;
pub use netstats::{
    loss_report, overall_utilisation, tier_utilisation, LossReport, UtilisationReport,
};
pub use report::{RunReport, ScenarioReport};
pub use stats::{percentile, Summary};
pub use table::{f2, pct, Table};
pub use trace::{FlowSelect, TraceConfig, TraceSettings, TraceSink};

/// Each property test draws `CASES` inputs from `case_rng`: the same sample
/// on every run, so a failure reproduces without a shrinker.
#[cfg(test)]
const CASES: u64 = 64;

/// The source of property `property`'s `case`th input.
#[cfg(test)]
fn case_rng(property: u64, case: u64) -> netsim::SimRng {
    netsim::SimRng::new(0xC0FFEE ^ (property << 32) ^ case)
}
