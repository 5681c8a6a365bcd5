//! # netsim — deterministic packet-level data-centre network simulator
//!
//! This crate is the substrate underneath the MMPTCP reproduction: a
//! discrete-event simulator with store-and-forward links, drop-tail queues,
//! output-queued switches performing hash-based ECMP, and hosts that run
//! pluggable transport [`Agent`]s.
//!
//! The design deliberately mirrors the slice of ns-3 that the paper's
//! evaluation relies on:
//!
//! * packet granularity by default, so queue build-ups, drops, duplicate
//!   ACKs and retransmission timeouts emerge naturally (an opt-in hybrid
//!   mode moves elephant-flow remainders to the [`fluid`] fast path while
//!   mice and all control traffic stay packet-level);
//! * per-switch ECMP hashing of the 5-tuple, which is what MMPTCP's
//!   source-port randomisation exploits;
//! * a single-threaded, seeded event loop so every experiment is exactly
//!   reproducible.
//!
//! ## Quick tour
//!
//! ```
//! use netsim::{Addr, LinkConfig, Network, Simulator, SwitchLayer};
//!
//! // Two hosts connected through one edge switch.
//! let mut net = Network::new();
//! let h0 = net.add_host();
//! let h1 = net.add_host();
//! let sw = net.add_switch(SwitchLayer::Edge, 2);
//! let (_up0, down0) = net.add_duplex_link(h0, sw, LinkConfig::default());
//! let (_up1, down1) = net.add_duplex_link(h1, sw, LinkConfig::default());
//! let s = net.switch_mut(sw);
//! let g0 = s.add_group(vec![down0]);
//! let g1 = s.add_group(vec![down1]);
//! s.set_route(Addr(0), g0);
//! s.set_route(Addr(1), g1);
//!
//! let sim = Simulator::new(net, 42);
//! assert_eq!(sim.network().host_count(), 2);
//! ```
//!
//! Transport protocols (TCP, MPTCP, MMPTCP, DCTCP) live in the `transport`
//! crate; topologies (FatTree, VL2, …) in `topology`; workload generation in
//! `workload`; measurement in `metrics`; and the user-facing experiment API in
//! `mmptcp`.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agent;
pub mod digest;
pub mod ecmp;
pub mod event;
pub mod fluid;
pub mod host;
pub mod ids;
pub mod link;
pub mod network;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod signal;
pub mod sim;
pub mod time;

pub use agent::{Agent, AgentCtx, AgentEvent};
pub use digest::Digest;
pub use fluid::FluidCc;
pub use ids::{Addr, FlowId, LinkId, NodeId};
pub use link::{Link, LinkConfig};
pub use network::Network;
pub use node::Node;
pub use packet::{Ecn, Packet, PacketArena, PacketKind, DEFAULT_MSS, MICE_THRESHOLD_BYTES};
pub use queue::QueueConfig;
pub use rng::SimRng;
pub use signal::Signal;
pub use sim::{SimCounters, Simulator};
pub use switch::{PathPolicy, Switch, SwitchLayer};
pub use time::{SimDuration, SimTime};

pub mod switch;
