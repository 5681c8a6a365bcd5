//! # transport — the protocols under study
//!
//! Implementations of every transport the paper discusses, all built from the
//! same per-path TCP engine ([`subflow::Subflow`]) and the shared
//! [`receiver::TransportReceiver`]:
//!
//! * [`tcp::TcpSender`] — single-path NewReno-style TCP (the baseline), and
//!   its DCTCP variant (`TransportConfig::dctcp()` + ECN-marking switches);
//! * [`d2tcp::D2tcpSender`] — deadline-aware DCTCP (D²TCP), one of the
//!   single-path alternatives the paper's introduction discusses;
//! * [`mptcp::MptcpSender`] — Multi-Path TCP with RFC 6356 coupled congestion
//!   control and no connection-level reinjection (the behaviour the paper
//!   criticises for short flows);
//! * [`mmptcp::MmptcpSender`] — the paper's contribution: a packet-scatter
//!   phase (per-packet source-port randomisation + raised duplicate-ACK
//!   threshold) followed by an MPTCP phase, with both switching strategies
//!   from §2;
//! * packet-scatter-only ([`mmptcp::MmptcpSender::packet_scatter`]) as an
//!   ablation;
//! * [`repflow::RepFlowSender`] — RepFlow's replicate-the-mice answer to the
//!   same problem (two racing single-path connections over ECMP-disjoint
//!   paths, first full delivery wins), plus its RepSYN handshake/first-window
//!   variant.
//!
//! Senders and receivers are [`netsim::Agent`]s: install them on hosts with
//! [`netsim::Simulator::register_agent`] and drive them with flow-start
//! events. The higher-level `mmptcp` crate does that wiring for you.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cc;
pub mod config;
pub mod d2tcp;
pub mod mmptcp;
pub mod mptcp;
pub mod receiver;
pub mod repflow;
pub mod rtt;
pub mod subflow;
pub mod tcp;
pub mod testing;

pub use cc::{Bbr, CongestionControl, CongestionController, Cubic, EcnResponder, Reno};
pub use config::TransportConfig;
pub use d2tcp::D2tcpSender;
pub use mmptcp::{DupAckPolicy, MmptcpConfig, MmptcpPhase, MmptcpSender, SwitchStrategy};
pub use mptcp::{compute_lia, MptcpConfig, MptcpScheduler, MptcpSender};
pub use receiver::{ReceiverCounters, TransportReceiver, PROGRESS_REPORT_STRIDE};
pub use repflow::{RepFlowConfig, RepFlowSender};
pub use rtt::RttEstimator;
pub use subflow::{LiaParams, Subflow, SubflowCounters, SubflowUpdate};
pub use tcp::TcpSender;

/// Emit [`netsim::Signal::RedundantBytes`] for a bounded flow when the
/// sender has put more data bytes on the wire than the application needed
/// (`needed` = flow size at completion, bytes acknowledged at finalize).
/// Zero excess emits nothing. Shared by every bounded sender so the
/// redundant-bytes metric compares replication against plain retransmission
/// on equal terms.
pub(crate) fn signal_redundant_bytes(
    ctx: &mut netsim::AgentCtx<'_>,
    flow: netsim::FlowId,
    sent: u64,
    needed: u64,
) {
    let excess = sent.saturating_sub(needed);
    if excess > 0 {
        ctx.signal(netsim::Signal::RedundantBytes {
            flow,
            at: ctx.now(),
            bytes: excess,
        });
    }
}
