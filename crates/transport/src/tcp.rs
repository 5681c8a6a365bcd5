//! Single-path TCP (NewReno flavour), its DCTCP variant, and D²TCP.
//!
//! [`TcpSender`] is the baseline transport of the paper's comparison: a
//! single subflow whose connection-level data sequence equals its subflow
//! sequence. With `TransportConfig::dctcp()` and ECN-marking switches it
//! behaves as DCTCP. [`D2tcpSender`] is the same connection with a deadline
//! steering how hard it backs off.

use crate::config::TransportConfig;
use crate::conn::{ConnState, Connection, Policy};
use crate::subflow::Subflow;
use netsim::{Addr, AgentCtx, FlowId, SimDuration, SimTime};

/// Plain single-path TCP: every hook at its default, and the one subflow is
/// what a fluid handoff measures.
#[derive(Debug)]
pub struct SinglePath;

impl Policy for SinglePath {
    const NAME: &'static str = "tcp";

    fn fluid_subflows<'a>(&self, subflows: &'a [Subflow]) -> &'a [Subflow] {
        subflows
    }
}

/// A single-path TCP sender transferring `total` bytes (or running forever
/// when `total` is `None`, for background flows).
pub type TcpSender = Connection<SinglePath>;

impl TcpSender {
    /// Create a sender from `src` to `dst` transferring `total` bytes
    /// (`None` = unbounded background flow). `src_port`/`dst_port` pin the
    /// ECMP path of the single subflow.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: TransportConfig,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        total: Option<u64>,
    ) -> Self {
        let subflow = |_| Subflow::new(cfg, 0, false, src, dst, src_port, dst_port, flow);
        Connection::with_subflows(flow, total, 1, subflow, SinglePath)
    }
}

/// Bounds on the deadline-imminence factor, as in the D²TCP paper.
const MIN_IMMINENCE: f64 = 0.5;
const MAX_IMMINENCE: f64 = 2.0;

/// D²TCP, Deadline-aware Data Center TCP (Vamanan et al., SIGCOMM 2012): one
/// of the deadline-aware single-path protocols the paper's introduction
/// contrasts MMPTCP against. It is DCTCP (ECN marking at the switches, an
/// EWMA `α` of the marked fraction at the sender) whose window reduction is
/// gamma-corrected by a *deadline imminence* factor `d = Tc / D`, where `Tc`
/// is the time the flow still needs at its current rate and `D` the time left
/// until its deadline: `cwnd ← cwnd · (1 − α^d / 2)`. Far-from-deadline flows
/// (`d < 1`) back off **more** than DCTCP would, near-deadline flows
/// (`d > 1`) back off **less**; flows without a deadline use `d = 1` and are
/// exactly DCTCP. Deadline-aware transports need application-layer deadline
/// information and ECN support in the network — precisely what MMPTCP avoids
/// — and, being single-path, cannot exploit the FatTree's path diversity.
///
/// As a [`Policy`] that is one hook: before every ACK the exponent of the
/// subflow's `EcnResponder` is recomputed from the deadline. The per-ACK ECN
/// feedback this depends on is not modelled by the fluid fast path, so a
/// D²TCP connection never hands off.
#[derive(Debug)]
pub struct Deadline {
    /// Deadline relative to the flow's start, if the application gave one.
    relative: Option<SimDuration>,
    /// The absolute deadline, known once the flow has started.
    absolute: Option<SimTime>,
}

impl Policy for Deadline {
    const NAME: &'static str = "d2tcp";

    fn start(&mut self, conn: &mut ConnState, ctx: &mut AgentCtx<'_>) {
        self.absolute = self.relative.map(|d| ctx.now() + d);
        conn.subflows[0].start(ctx);
    }

    /// Recompute the deadline-imminence factor `d = Tc / D` on every ACK, so
    /// it tracks both the rate the flow is achieving and the time it has left.
    fn before_ack(&mut self, conn: &mut ConnState, now: SimTime) {
        let subflow = &mut conn.subflows[0];
        let (Some(deadline), Some(total)) = (self.absolute, conn.total) else {
            subflow.set_dctcp_penalty_exponent(1.0);
            return;
        };
        let remaining_bytes = total.saturating_sub(conn.data_acked) as f64;
        if remaining_bytes <= 0.0 {
            return;
        }
        // Time needed at the current rate: cwnd bytes per RTT.
        let rtt = subflow
            .srtt()
            .map(|d| d.as_secs_f64())
            .unwrap_or(200e-6)
            .max(1e-6);
        let rate = subflow.cwnd().max(subflow.config().mss as f64) / rtt;
        let needed = remaining_bytes / rate;
        // A deadline already blown makes the flow maximally aggressive (the
        // D²TCP paper caps d so such flows do not starve everyone else).
        let d = if deadline > now {
            (needed / (deadline - now).as_secs_f64()).clamp(MIN_IMMINENCE, MAX_IMMINENCE)
        } else {
            MAX_IMMINENCE
        };
        // D²TCP's exponent is d for the *penalty* α^d: imminent flows (d > 1)
        // see α^d < α, i.e. a smaller reduction.
        subflow.set_dctcp_penalty_exponent(d);
    }
}

/// A deadline-aware DCTCP sender.
pub type D2tcpSender = Connection<Deadline>;

impl D2tcpSender {
    /// Create a D²TCP sender transferring `total` bytes with an optional
    /// relative `deadline` (measured from the flow's start time). ECN is
    /// always negotiated; a sender without a deadline degenerates to DCTCP.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        cfg: TransportConfig,
        flow: FlowId,
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        total: Option<u64>,
        deadline: Option<SimDuration>,
    ) -> Self {
        let cfg = TransportConfig { ecn: true, ..cfg };
        let subflow = |_| Subflow::new(cfg, 0, false, src, dst, src_port, dst_port, flow);
        let policy = Deadline {
            relative: deadline,
            absolute: None,
        };
        Connection::with_subflows(flow, total, 1, subflow, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{repairs, Loopback};
    use netsim::{Agent, Signal};

    /// Drive a sender and receiver back to back until the sender finishes,
    /// dropping every `loss_every`-th packet it emits. Returns the signals.
    fn run_back_to_back(total: u64, loss_every: Option<usize>) -> (TcpSender, Vec<Signal>) {
        let flow = FlowId(1);
        let tx = TcpSender::new(
            TransportConfig::default(),
            flow,
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(total),
        );
        let mut l = Loopback::new(flow, tx);
        let mut sent_count = 0usize;
        l.run(10_000, |_| {
            sent_count += 1;
            loss_every.is_some_and(|k| sent_count.is_multiple_of(k))
        });
        (l.tx, l.signals)
    }

    #[test]
    fn lossless_transfer_completes() {
        let (tx, signals) = run_back_to_back(70_000, None);
        assert!(tx.is_completed());
        assert_eq!(tx.conn.data_acked, 70_000);
        assert!(signals
            .iter()
            .any(|s| matches!(s, Signal::FlowCompleted { bytes: 70_000, .. })));
        assert_eq!(repairs(&signals, 0).1, 0);
    }

    #[test]
    fn lossy_transfer_still_completes_via_retransmission() {
        let (tx, signals) = run_back_to_back(140_000, Some(23));
        assert!(tx.is_completed(), "transfer must recover from losses");
        assert_eq!(tx.conn.data_acked, 140_000);
        // Some recovery mechanism fired.
        let (fast, rto) = repairs(&signals, 0);
        assert!(fast + rto > 0);
        assert!(signals
            .iter()
            .any(|s| matches!(s, Signal::FlowCompleted { .. })));
    }

    #[test]
    fn last_segment_may_be_short() {
        let (tx, _) = run_back_to_back(3_000, None);
        assert!(tx.is_completed());
        assert_eq!(tx.conn.data_acked, 3_000);
    }

    #[test]
    fn describe_mentions_flow() {
        let tx = TcpSender::new(
            TransportConfig::default(),
            FlowId(5),
            Addr(0),
            Addr(1),
            50_000,
            80,
            Some(10),
        );
        assert!(tx.describe().contains("f5"));
    }
}
