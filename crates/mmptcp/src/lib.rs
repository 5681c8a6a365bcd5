//! # mmptcp — reproduction of *Short vs. Long Flows: A Battle That Both Can Win*
//!
//! This crate is the user-facing API of the reproduction: describe an
//! experiment (topology + workload + transport protocol), run it on the
//! packet-level simulator, and read back the measurements the paper reports —
//! short-flow completion times, long-flow throughput, per-layer loss rates and
//! network utilisation.
//!
//! ```
//! use mmptcp::prelude::*;
//!
//! // One 70 KB MMPTCP flow across a 4-path topology.
//! let config = ExperimentConfig {
//!     topology: TopologySpec::Parallel(ParallelPathConfig::default()),
//!     workload: WorkloadSpec::Custom(vec![FlowSpec::new(
//!         0,
//!         Addr(0),
//!         Addr(1),
//!         Some(70_000),
//!         SimTime::from_millis(1),
//!         FlowClass::Short,
//!     )]),
//!     protocol: Protocol::mmptcp_default(),
//!     ..ExperimentConfig::default()
//! };
//! let results = mmptcp::run(config);
//! assert!(results.all_short_completed);
//! println!("FCT: {:.2} ms", results.short_fct_summary().mean);
//! ```
//!
//! The crates underneath are reusable on their own:
//!
//! * [`netsim`] — the discrete-event network simulator;
//! * [`topology`] — FatTree / VL2 / dumbbell / multi-homed builders;
//! * [`transport`] — TCP, MPTCP, MMPTCP, packet-scatter, DCTCP and D²TCP agents;
//! * [`workload`] — traffic matrices and flow generators;
//! * [`metrics`] — completion-time, loss and utilisation measurement.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod driver;
pub mod experiment;
pub mod results;
pub mod scenario;

pub use config::{Engine, ExperimentConfig, Protocol, TopologySpec, WorkloadSpec};
pub use driver::Driver;
pub use experiment::{run, run_with, RunHooks};
pub use results::ExperimentResults;
pub use scenario::Fidelity;

// Re-export the sub-crates so downstream users need a single dependency.
pub use metrics;
pub use netsim;
pub use topology;
pub use transport;
pub use workload;

/// Convenient glob import for examples and tests.
pub mod prelude {
    pub use crate::config::{Engine, ExperimentConfig, Protocol, TopologySpec, WorkloadSpec};
    pub use crate::driver::Driver;
    pub use crate::results::ExperimentResults;
    pub use crate::scenario::Fidelity;
    pub use metrics::{FlowSelect, Summary, Table, TraceConfig, TraceSettings};
    pub use netsim::{Addr, FlowId, SimDuration, SimTime};
    pub use topology::{DumbbellConfig, FatTreeConfig, LinkFailureSpec, ParallelPathConfig};
    pub use transport::{DupAckPolicy, SwitchStrategy, TransportConfig};
    pub use workload::{
        ArrivalProcess, DeadlineModel, FlowClass, FlowSizeModel, FlowSpec, PaperWorkloadConfig,
        TrafficMatrix,
    };
}
