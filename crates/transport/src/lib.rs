//! # transport — the protocols under study
//!
//! Every sender the paper discusses is one connection core,
//! [`conn::Connection`], steered by a small [`conn::Policy`], over the same
//! per-path TCP engine ([`subflow::Subflow`]) and facing the shared
//! [`receiver::TransportReceiver`]:
//!
//! * [`tcp::TcpSender`] — single-path NewReno-style TCP (the baseline), and
//!   its DCTCP variant (`TransportConfig::dctcp()` + ECN-marking switches);
//! * [`tcp::D2tcpSender`] — deadline-aware DCTCP (D²TCP), one of the
//!   single-path alternatives the paper's introduction discusses: the TCP
//!   connection plus a deadline policy on the `EcnResponder` exponent;
//! * [`mptcp::MptcpSender`] — Multi-Path TCP with RFC 6356 coupled congestion
//!   control and no connection-level reinjection (the behaviour the paper
//!   criticises for short flows);
//! * [`mmptcp::MmptcpSender`] — the paper's contribution: a packet-scatter
//!   phase (per-packet source-port randomisation + raised duplicate-ACK
//!   threshold) followed by an MPTCP phase, with both switching strategies
//!   from §2;
//! * packet-scatter-only ([`mmptcp::MmptcpConfig::packet_scatter_only`]) as
//!   an ablation;
//! * [`repflow::RepFlowSender`] — RepFlow's replicate-the-mice answer to the
//!   same problem (two racing single-path connections over ECMP-disjoint
//!   paths, first full delivery wins), plus its RepSYN handshake/first-window
//!   variant.
//!
//! Senders and receivers are [`netsim::Agent`]s: install them on hosts with
//! [`netsim::Simulator::register_agent`] and drive them with flow-start
//! events. The higher-level `mmptcp` crate does that wiring for you.
//! [`testing::Loopback`] wires one sender to a receiver with no network in
//! between, for tests.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cc;
pub mod config;
pub mod conn;
// D²TCP is `tcp::D2tcpSender`; its unit tests keep the module path they have
// always been listed under (`d2tcp::tests::*`).
#[cfg(test)]
#[path = "d2tcp_tests.rs"]
mod d2tcp;
pub mod mmptcp;
pub mod mptcp;
pub mod receiver;
pub mod repflow;
pub mod rtt;
pub mod subflow;
pub mod tcp;
pub mod testing;

pub use cc::CongestionControl;
pub use config::TransportConfig;
pub use mmptcp::{DupAckPolicy, MmptcpConfig, MmptcpSender, SwitchStrategy};
pub use mptcp::{MptcpConfig, MptcpSender};
pub use receiver::TransportReceiver;
pub use repflow::{RepFlowConfig, RepFlowSender};
pub use rtt::RttEstimator;
pub use tcp::{D2tcpSender, TcpSender};

/// Each property test draws `CASES` inputs from `case_rng`: the same sample
/// on every run, so a failure reproduces without a shrinker.
#[cfg(test)]
const CASES: u64 = 64;

/// The source of property `property`'s `case`th input.
#[cfg(test)]
fn case_rng(property: u64, case: u64) -> netsim::SimRng {
    netsim::SimRng::new(0xC0FFEE ^ (property << 32) ^ case)
}
