//! Out-of-band signals emitted by transport agents towards the experiment
//! harness (flow lifecycle, retransmission timeouts, phase switches, …).
//!
//! Signals are the simulator's measurement plane: the metrics crate consumes
//! them to compute flow completion times, RTO counts and phase statistics
//! without the transports having to know anything about the experiment.

use crate::ids::FlowId;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// An event of interest to the experiment harness / metrics pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Signal {
    /// A sender began transmitting its first segment.
    FlowStarted {
        /// The flow.
        flow: FlowId,
        /// When it started.
        at: SimTime,
        /// Total bytes the application wants to transfer (`u64::MAX` for
        /// unbounded background flows).
        bytes: u64,
    },
    /// A receiver has received (and acknowledged) every byte of the flow.
    FlowCompleted {
        /// The flow.
        flow: FlowId,
        /// When the last byte was received.
        at: SimTime,
        /// Bytes delivered.
        bytes: u64,
    },
    /// A retransmission timeout fired at the sender.
    RetransmissionTimeout {
        /// The flow.
        flow: FlowId,
        /// Subflow on which the timeout occurred.
        subflow: u8,
        /// When it fired.
        at: SimTime,
    },
    /// A fast retransmission was triggered at the sender.
    FastRetransmit {
        /// The flow.
        flow: FlowId,
        /// Subflow on which it occurred.
        subflow: u8,
        /// When.
        at: SimTime,
    },
    /// An MMPTCP connection switched from the packet-scatter phase to the
    /// MPTCP phase.
    PhaseSwitched {
        /// The flow.
        flow: FlowId,
        /// When the switch happened.
        at: SimTime,
        /// Connection-level bytes acknowledged at the moment of switching.
        bytes_sent: u64,
    },
    /// Progress report from a long-running (background) flow, emitted when the
    /// experiment ends so throughput can be computed for unbounded flows.
    FlowProgress {
        /// The flow.
        flow: FlowId,
        /// When the report was taken.
        at: SimTime,
        /// Bytes delivered so far.
        bytes: u64,
    },
    /// A spurious retransmission was detected (the "lost" segment had in fact
    /// been delivered — the hazard of packet scatter reordering).
    SpuriousRetransmit {
        /// The flow.
        flow: FlowId,
        /// Subflow.
        subflow: u8,
        /// When it was detected.
        at: SimTime,
    },
    /// Redundant bytes a sender put on the wire beyond what the application
    /// needed — replica copies (RepFlow/RepSYN) plus retransmissions. Every
    /// bounded sender emits this once when the flow completes (or at
    /// finalize if it never did, measured against the bytes acknowledged by
    /// then), and only when the excess is non-zero — so the metric compares
    /// the wire price of replication- and retransmission-based recovery on
    /// equal terms across transports.
    RedundantBytes {
        /// The flow.
        flow: FlowId,
        /// When the accounting was taken.
        at: SimTime,
        /// Data bytes sent in excess of the flow size.
        bytes: u64,
    },
    /// Flight-recorder sample of one subflow's congestion state, emitted by
    /// the per-path TCP engine after every state-changing activation — but
    /// only when the simulator has flow tracing enabled
    /// ([`crate::AgentCtx::trace_enabled`]); the default is off and then no
    /// sample is ever constructed, so the hot path pays a single branch.
    /// The metrics crate's trace sink turns these into the per-flow cwnd /
    /// RTT / outstanding time series behind the paper's Figure-4-style
    /// plots; the flow-completion pipeline ignores them entirely.
    CwndSample {
        /// The flow.
        flow: FlowId,
        /// Subflow index within the connection (0 = the packet-scatter flow
        /// or the only subflow of a single-path transport).
        subflow: u8,
        /// When the sample was taken.
        at: SimTime,
        /// Congestion window in bytes (truncated from the engine's float).
        cwnd: u64,
        /// Smoothed RTT in microseconds (0 until the first sample exists).
        srtt_us: u64,
        /// Subflow-level bytes in flight.
        outstanding: u64,
        /// Stable label of the congestion controller driving this subflow
        /// ("reno" / "cubic" / "bbr"), so traces distinguish controllers.
        cc: &'static str,
    },
}

impl Signal {
    /// The flow this signal refers to.
    pub fn flow(&self) -> FlowId {
        match self {
            Signal::FlowStarted { flow, .. }
            | Signal::FlowCompleted { flow, .. }
            | Signal::RetransmissionTimeout { flow, .. }
            | Signal::FastRetransmit { flow, .. }
            | Signal::PhaseSwitched { flow, .. }
            | Signal::FlowProgress { flow, .. }
            | Signal::SpuriousRetransmit { flow, .. }
            | Signal::RedundantBytes { flow, .. }
            | Signal::CwndSample { flow, .. } => *flow,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_all_variants() {
        let signals = [
            Signal::FlowStarted {
                flow: FlowId(1),
                at: SimTime::from_millis(1),
                bytes: 70_000,
            },
            Signal::FlowCompleted {
                flow: FlowId(2),
                at: SimTime::from_millis(2),
                bytes: 70_000,
            },
            Signal::RetransmissionTimeout {
                flow: FlowId(3),
                subflow: 1,
                at: SimTime::from_millis(3),
            },
            Signal::FastRetransmit {
                flow: FlowId(4),
                subflow: 0,
                at: SimTime::from_millis(4),
            },
            Signal::PhaseSwitched {
                flow: FlowId(5),
                at: SimTime::from_millis(5),
                bytes_sent: 100_000,
            },
            Signal::FlowProgress {
                flow: FlowId(6),
                at: SimTime::from_millis(6),
                bytes: 1,
            },
            Signal::SpuriousRetransmit {
                flow: FlowId(7),
                subflow: 0,
                at: SimTime::from_millis(7),
            },
            Signal::RedundantBytes {
                flow: FlowId(8),
                at: SimTime::from_millis(8),
                bytes: 70_000,
            },
            Signal::CwndSample {
                flow: FlowId(9),
                subflow: 0,
                at: SimTime::from_millis(9),
                cwnd: 14_000,
                srtt_us: 120,
                outstanding: 2_800,
                cc: "reno",
            },
        ];
        for (i, s) in signals.iter().enumerate() {
            assert_eq!(s.flow(), FlowId(i as u64 + 1));
        }
    }
}
