//! The connection receiver used by every transport variant.
//!
//! A single receiver implementation serves TCP, MPTCP, MMPTCP, packet-scatter
//! and DCTCP senders: it acknowledges at *subflow* level (cumulative ACK per
//! subflow, which is what drives the sender's loss detection) and reassembles
//! at *connection* level (MPTCP data sequence numbers), echoing ECN marks and
//! transmit timestamps back to the sender.

use netsim::{Agent, AgentCtx, AgentEvent, Ecn, FlowId, Packet, PacketKind, Signal};
use std::collections::BTreeMap;

/// Reassembly state for one direction of one subflow.
#[derive(Debug, Default, Clone)]
struct SubflowRecv {
    /// Next expected subflow-level byte.
    rcv_nxt: u64,
    /// Out-of-order byte ranges above `rcv_nxt` (start -> length).
    ooo: BTreeMap<u64, u64>,
}

/// Insert `[seq, seq+len)` into a cumulative-plus-out-of-order tracker and
/// return the number of *new* bytes it contributed. Advances `rcv_nxt` over
/// any now-contiguous buffered ranges.
fn insert_range(rcv_nxt: &mut u64, ooo: &mut BTreeMap<u64, u64>, seq: u64, len: u64) -> u64 {
    // The next expected segment with nothing buffered: the general path would
    // insert the range and pop it straight back. A flow that only ever
    // arrives in order therefore never allocates a tree node.
    if seq == *rcv_nxt && ooo.is_empty() {
        *rcv_nxt += len;
        return len;
    }
    insert_range_general(rcv_nxt, ooo, seq, len)
}

/// [`insert_range`] for any range: duplicates, overlaps, holes.
fn insert_range_general(
    rcv_nxt: &mut u64,
    ooo: &mut BTreeMap<u64, u64>,
    seq: u64,
    len: u64,
) -> u64 {
    if len == 0 {
        return 0;
    }
    let mut start = seq;
    let end = seq + len;
    if end <= *rcv_nxt {
        return 0; // entirely duplicate
    }
    if start < *rcv_nxt {
        start = *rcv_nxt;
    }
    // Check overlap with already-buffered ranges; clip against any range that
    // covers part of [start, end). Ranges are non-overlapping by construction.
    let mut new_bytes = 0;
    let mut cursor = start;
    while cursor < end {
        // Find the buffered range that contains or follows `cursor`.
        let covering = ooo
            .range(..=cursor)
            .next_back()
            .filter(|(s, l)| **s + **l > cursor)
            .map(|(s, l)| (*s, *l));
        if let Some((s, l)) = covering {
            cursor = s + l; // skip the already-buffered part
            continue;
        }
        let next_start = ooo
            .range(cursor..)
            .next()
            .map(|(s, _)| *s)
            .unwrap_or(u64::MAX);
        let piece_end = end.min(next_start);
        if piece_end > cursor {
            ooo.insert(cursor, piece_end - cursor);
            new_bytes += piece_end - cursor;
            cursor = piece_end;
        } else {
            break;
        }
    }
    // Advance the cumulative pointer over contiguous buffered data.
    while let Some((&s, &l)) = ooo.iter().next() {
        if s <= *rcv_nxt {
            let range_end = s + l;
            ooo.remove(&s);
            if range_end > *rcv_nxt {
                *rcv_nxt = range_end;
            }
        } else {
            break;
        }
    }
    new_bytes
}

/// How often (in delivered bytes) the receiver emits a [`Signal::FlowProgress`]
/// report. Long (background) flows therefore leave a time series of progress
/// points, which lets the metrics layer compute their goodput over any fixed
/// window — the measurement the paper's "same long-flow throughput" claim
/// needs, independent of when the last short flow of a run finished.
pub const PROGRESS_REPORT_STRIDE: u64 = 1_000_000;

/// The receiving endpoint of a connection (any protocol variant).
#[derive(Debug)]
pub struct TransportReceiver {
    flow: FlowId,
    /// Per-subflow reassembly state, indexed by subflow index and grown on
    /// a subflow's first data packet (indices are a `u8`: at most 256 slots).
    subflows: Vec<SubflowRecv>,
    data_rcv_nxt: u64,
    data_ooo: BTreeMap<u64, u64>,
    last_progress_report: u64,
}

impl TransportReceiver {
    /// Create a receiver for `flow`.
    pub fn new(flow: FlowId) -> Self {
        TransportReceiver {
            flow,
            subflows: Vec::new(),
            data_rcv_nxt: 0,
            data_ooo: BTreeMap::new(),
            last_progress_report: 0,
        }
    }

    /// Connection-level bytes received contiguously so far.
    pub fn contiguous_bytes(&self) -> u64 {
        self.data_rcv_nxt
    }

    fn handle_syn(&mut self, ctx: &mut AgentCtx<'_>, pkt: &Packet) {
        let mut synack = pkt.reply_template();
        synack.kind = PacketKind::SynAck;
        synack.sent_at = pkt.sent_at; // echo for the sender's RTT sample
        synack.ecn_echo = false;
        ctx.send(synack);
    }

    fn handle_data(&mut self, ctx: &mut AgentCtx<'_>, pkt: &Packet) {
        let index = usize::from(pkt.subflow);
        if index >= self.subflows.len() {
            self.subflows.resize_with(index + 1, SubflowRecv::default);
        }
        let sf = &mut self.subflows[index];
        let len = pkt.payload as u64;

        let duplicate = pkt.seq + len <= sf.rcv_nxt;

        // Subflow-level reassembly (drives the cumulative subflow ACK).
        insert_range(&mut sf.rcv_nxt, &mut sf.ooo, pkt.seq, len);
        let subflow_ack = sf.rcv_nxt;

        // Connection-level reassembly (drives the data ACK).
        insert_range(
            &mut self.data_rcv_nxt,
            &mut self.data_ooo,
            pkt.data_seq,
            len,
        );

        // Acknowledge.
        let mut ack = Packet::ack(
            pkt.dst,
            pkt.src,
            pkt.dst_port,
            pkt.src_port,
            self.flow,
            pkt.subflow,
            subflow_ack,
            self.data_rcv_nxt,
            ctx.now(),
        );
        ack.sent_at = pkt.sent_at; // echo the transmit timestamp
        ack.dup_hint = duplicate;
        ack.ecn_echo = pkt.ecn == Ecn::CongestionExperienced;
        ctx.send(ack);

        // Periodic progress reports (roughly every PROGRESS_REPORT_STRIDE
        // delivered bytes) so unbounded flows expose a goodput time series.
        if self.data_rcv_nxt >= self.last_progress_report + PROGRESS_REPORT_STRIDE {
            self.last_progress_report = self.data_rcv_nxt;
            ctx.signal(Signal::FlowProgress {
                flow: self.flow,
                at: ctx.now(),
                bytes: self.data_rcv_nxt,
            });
        }
    }
}

impl Agent for TransportReceiver {
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        match event {
            AgentEvent::Packet(pkt) => match pkt.kind {
                PacketKind::Syn => self.handle_syn(ctx, &pkt),
                PacketKind::Data | PacketKind::Fin => self.handle_data(ctx, &pkt),
                _ => {}
            },
            AgentEvent::Finalize => {
                ctx.signal(Signal::FlowProgress {
                    flow: self.flow,
                    at: ctx.now(),
                    bytes: self.data_rcv_nxt,
                });
            }
            AgentEvent::Start | AgentEvent::Timer(_) | AgentEvent::FluidComplete { .. } => {}
        }
    }

    fn describe(&self) -> String {
        format!("receiver({})", self.flow)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::{Addr, SimRng, SimTime};

    struct Harness {
        rng: SimRng,
        out: Vec<Packet>,
        timers: Vec<(SimTime, u64)>,
        signals: Vec<Signal>,
        now: SimTime,
    }
    impl Harness {
        fn new() -> Self {
            Harness {
                rng: SimRng::new(1),
                out: Vec::new(),
                timers: Vec::new(),
                signals: Vec::new(),
                now: SimTime::from_millis(1),
            }
        }
        fn deliver(&mut self, rx: &mut TransportReceiver, pkt: Packet) -> Vec<Packet> {
            let mut ctx = AgentCtx::new(
                self.now,
                FlowId(1),
                &mut self.rng,
                &mut self.out,
                &mut self.timers,
                &mut self.signals,
            );
            rx.handle(&mut ctx, AgentEvent::Packet(pkt));
            self.out.drain(..).collect()
        }
    }

    fn data(subflow: u8, seq: u64, data_seq: u64, len: u32) -> Packet {
        Packet::data(
            Addr(0),
            Addr(1),
            50_000,
            80,
            FlowId(1),
            subflow,
            seq,
            data_seq,
            len,
            SimTime::from_micros(500),
        )
    }

    #[test]
    fn insert_range_basics() {
        let mut rcv_nxt = 0;
        let mut ooo = BTreeMap::new();
        assert_eq!(insert_range(&mut rcv_nxt, &mut ooo, 0, 100), 100);
        assert_eq!(rcv_nxt, 100);
        // Duplicate contributes nothing.
        assert_eq!(insert_range(&mut rcv_nxt, &mut ooo, 0, 100), 0);
        // Gap: buffered but not advanced.
        assert_eq!(insert_range(&mut rcv_nxt, &mut ooo, 200, 100), 100);
        assert_eq!(rcv_nxt, 100);
        // Filling the gap advances over both.
        assert_eq!(insert_range(&mut rcv_nxt, &mut ooo, 100, 100), 100);
        assert_eq!(rcv_nxt, 300);
        assert!(ooo.is_empty());
    }

    #[test]
    fn insert_range_partial_overlap() {
        let mut rcv_nxt = 0;
        let mut ooo = BTreeMap::new();
        insert_range(&mut rcv_nxt, &mut ooo, 100, 100);
        // Overlaps the buffered range on both sides.
        let added = insert_range(&mut rcv_nxt, &mut ooo, 50, 200);
        assert_eq!(added, 100, "only the non-overlapping parts count");
        assert_eq!(rcv_nxt, 0);
        insert_range(&mut rcv_nxt, &mut ooo, 0, 50);
        assert_eq!(rcv_nxt, 250);
    }

    /// The in-order fast path against the general path, on streams that mix
    /// in-order, out-of-order, overlapping, duplicate and empty segments.
    #[test]
    fn insert_range_fast_path_matches_the_general_path() {
        let mut rng = SimRng::new(0xfa57);
        for _ in 0..300 {
            let (mut fast_nxt, mut fast_ooo) = (0u64, BTreeMap::new());
            let (mut slow_nxt, mut slow_ooo) = (0u64, BTreeMap::new());
            // How far the stream strays from `rcv_nxt`: 0 is a purely
            // in-order (with duplicates) stream that must never buffer.
            let spread = rng.range(0..4u64) * 1_500;
            for _ in 0..200 {
                let len = [0, 1, 700, 1_400][rng.range(0..4usize)];
                let seq = match rng.range(0..4u32) {
                    0 | 1 => fast_nxt,
                    2 => fast_nxt.saturating_sub(rng.range(0..=2_000u64)),
                    _ => fast_nxt + rng.range(0..=spread),
                };
                let fast = insert_range(&mut fast_nxt, &mut fast_ooo, seq, len);
                let slow = insert_range_general(&mut slow_nxt, &mut slow_ooo, seq, len);
                assert_eq!(fast, slow, "new bytes of [{seq}, +{len})");
                assert_eq!(fast_nxt, slow_nxt, "rcv_nxt after [{seq}, +{len})");
                assert_eq!(fast_ooo, slow_ooo, "ooo after [{seq}, +{len})");
                assert!(spread > 0 || fast_ooo.is_empty());
            }
        }
    }

    #[test]
    fn syn_gets_synack_with_echoed_timestamp() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        let mut syn = data(0, 0, 0, 0);
        syn.kind = PacketKind::Syn;
        let replies = h.deliver(&mut rx, syn.clone());
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].kind, PacketKind::SynAck);
        assert_eq!(replies[0].sent_at, syn.sent_at);
        assert_eq!(replies[0].dst, syn.src);
    }

    #[test]
    fn in_order_data_advances_both_ack_levels() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        let a1 = h.deliver(&mut rx, data(0, 0, 0, 1400));
        assert_eq!(a1[0].ack, 1400);
        assert_eq!(a1[0].data_ack, 1400);
        let a2 = h.deliver(&mut rx, data(0, 1400, 1400, 1400));
        assert_eq!(a2[0].ack, 2800);
        assert_eq!(a2[0].data_ack, 2800);
        assert_eq!(rx.contiguous_bytes(), 2800);
    }

    #[test]
    fn out_of_order_data_generates_duplicate_acks() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        h.deliver(&mut rx, data(0, 0, 0, 1400));
        // Segment 2 arrives before segment 1.
        let a = h.deliver(&mut rx, data(0, 2800, 2800, 1400));
        assert_eq!(a[0].ack, 1400, "cumulative ACK does not advance");
        assert!(!a[0].dup_hint);
        // The missing segment fills the hole.
        let a = h.deliver(&mut rx, data(0, 1400, 1400, 1400));
        assert_eq!(a[0].ack, 4200);
        assert_eq!(a[0].data_ack, 4200);
    }

    #[test]
    fn duplicate_data_sets_dup_hint() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        h.deliver(&mut rx, data(0, 0, 0, 1400));
        let a = h.deliver(&mut rx, data(0, 0, 0, 1400));
        assert!(a[0].dup_hint);
        assert_eq!(rx.contiguous_bytes(), 1400);
    }

    #[test]
    fn multiple_subflows_reassemble_one_data_stream() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        // Subflow 1 carries connection bytes 0..1400, subflow 2 carries
        // 1400..2800 — each with its own subflow sequence space starting at 0.
        let a = h.deliver(&mut rx, data(1, 0, 0, 1400));
        assert_eq!(a[0].ack, 1400);
        assert_eq!(a[0].data_ack, 1400);
        let a = h.deliver(&mut rx, data(2, 0, 1400, 1400));
        assert_eq!(a[0].ack, 1400, "subflow 2's own cumulative ack");
        assert_eq!(a[0].data_ack, 2800, "connection-level data ack");
        assert_eq!(a[0].subflow, 2);
    }

    #[test]
    fn connection_level_ack_waits_for_holes_across_subflows() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        // Subflow 2 delivers bytes 1400..2800 first.
        let a = h.deliver(&mut rx, data(2, 0, 1400, 1400));
        assert_eq!(a[0].data_ack, 0);
        // Subflow 1 then fills 0..1400.
        let a = h.deliver(&mut rx, data(1, 0, 0, 1400));
        assert_eq!(a[0].data_ack, 2800);
    }

    #[test]
    fn ecn_marks_are_echoed() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        let mut p = data(0, 0, 0, 1400);
        p.ecn = Ecn::CongestionExperienced;
        let a = h.deliver(&mut rx, p);
        assert!(a[0].ecn_echo);
        let a = h.deliver(&mut rx, data(0, 1400, 1400, 1400));
        assert!(!a[0].ecn_echo);
    }

    #[test]
    fn periodic_progress_reports_every_stride() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        let seg = 100_000u64;
        let mut delivered = 0u64;
        while delivered < 2 * PROGRESS_REPORT_STRIDE + seg {
            h.deliver(&mut rx, data(0, delivered, delivered, seg as u32));
            delivered += seg;
        }
        let reports: Vec<u64> = h
            .signals
            .iter()
            .filter_map(|s| match s {
                Signal::FlowProgress { bytes, .. } => Some(*bytes),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), 2, "one report per stride crossed");
        assert!(reports[0] >= PROGRESS_REPORT_STRIDE);
        assert!(reports[1] >= 2 * PROGRESS_REPORT_STRIDE);
        assert!(reports.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn short_flows_emit_no_periodic_progress() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        for i in 0..50u64 {
            h.deliver(&mut rx, data(0, i * 1400, i * 1400, 1400));
        }
        assert!(h
            .signals
            .iter()
            .all(|s| !matches!(s, Signal::FlowProgress { .. })));
    }

    #[test]
    fn finalize_reports_progress() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        h.deliver(&mut rx, data(0, 0, 0, 1400));
        let mut ctx = AgentCtx::new(
            h.now,
            FlowId(1),
            &mut h.rng,
            &mut h.out,
            &mut h.timers,
            &mut h.signals,
        );
        rx.handle(&mut ctx, AgentEvent::Finalize);
        assert!(matches!(
            h.signals.last().unwrap(),
            Signal::FlowProgress { bytes: 1400, .. }
        ));
    }
}
