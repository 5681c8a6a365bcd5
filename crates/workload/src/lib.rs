//! # workload — traffic generation for the MMPTCP reproduction
//!
//! Two layers:
//!
//! * [`matrix`] — traffic matrices (permutation, stride, hotspot) that pair
//!   sending hosts with destinations;
//! * [`flows`] — flow-level workload generators: the paper's evaluation
//!   workload (one third of hosts running long background flows, the rest
//!   generating Poisson-arriving 70 KB short flows over a permutation matrix),
//!   plus incast and heavy-tailed flow-size models for the extension
//!   experiments.
//!
//! The output is a list of protocol-agnostic [`flows::FlowSpec`]s that the
//! `mmptcp` crate turns into sender/receiver agents.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flows;
pub mod matrix;

pub use flows::{
    incast_workload, paper_workload, ArrivalProcess, DeadlineModel, FlowClass, FlowSizeModel,
    FlowSpec, PaperWorkloadConfig, Workload, DATA_MINING, WEB_SEARCH,
};
pub use matrix::TrafficMatrix;

/// Each property test draws `CASES` inputs from `case_rng`: the same sample
/// on every run, so a failure reproduces without a shrinker.
#[cfg(test)]
const CASES: u64 = 64;

/// The source of property `property`'s `case`th input.
#[cfg(test)]
fn case_rng(property: u64, case: u64) -> netsim::SimRng {
    netsim::SimRng::new(0xC0FFEE ^ (property << 32) ^ case)
}
