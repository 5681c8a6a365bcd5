//! The connection receiver used by every transport variant.
//!
//! A single receiver implementation serves TCP, MPTCP, MMPTCP, packet-scatter
//! and DCTCP senders: it acknowledges at *subflow* level (cumulative ACK per
//! subflow, which is what drives the sender's loss detection) and reassembles
//! at *connection* level (MPTCP data sequence numbers), echoing ECN marks and
//! transmit timestamps back to the sender.

use netsim::{Agent, AgentCtx, AgentEvent, Ecn, FlowId, Packet, PacketKind, Signal};

/// Reassembly state for one direction of one subflow.
#[derive(Debug, Default, Clone)]
struct SubflowRecv {
    /// Next expected subflow-level byte.
    rcv_nxt: u64,
    /// Out-of-order byte ranges above `rcv_nxt`.
    ooo: Vec<(u64, u64)>,
}

/// Insert `[seq, seq+len)` into a cumulative-plus-out-of-order tracker whose
/// `ooo` ranges are half-open, sorted, disjoint, non-adjacent (coalesced) and
/// above `rcv_nxt`. Advances `rcv_nxt` over any range made contiguous.
fn insert_range(rcv_nxt: &mut u64, ooo: &mut Vec<(u64, u64)>, seq: u64, len: u64) {
    // The common case, the next expected segment with nothing buffered,
    // skips the searches. Neither path allocates for an in-order flow.
    if seq == *rcv_nxt && ooo.is_empty() {
        *rcv_nxt += len;
        return;
    }
    insert_range_general(rcv_nxt, ooo, seq, len)
}

/// [`insert_range`] for any range: duplicates, overlaps, holes.
fn insert_range_general(rcv_nxt: &mut u64, ooo: &mut Vec<(u64, u64)>, seq: u64, len: u64) {
    let (mut start, mut end) = (seq.max(*rcv_nxt), seq + len);
    if start >= end {
        return; // empty or entirely duplicate
    }
    // `ooo[lo..hi]` are the ranges that overlap or touch `[start, end)`.
    let lo = ooo.partition_point(|&(_, e)| e < start);
    let hi = ooo.partition_point(|&(s, _)| s <= end);
    if lo < hi {
        start = start.min(ooo[lo].0);
        end = end.max(ooo[hi - 1].1);
    }
    if start == *rcv_nxt {
        // Only the first range can start at `rcv_nxt` (`lo == 0`), and the
        // next one starts beyond `end`: nothing further becomes contiguous.
        *rcv_nxt = end;
        ooo.drain(lo..hi);
    } else {
        ooo.splice(lo..hi, [(start, end)]);
    }
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
    /// a subflow's first data packet (indices are a `u8`: at most 256 slots),
    /// to exactly the slots used: a TCP flow holds one, not `Vec`'s four.
    subflows: Vec<SubflowRecv>,
    data_rcv_nxt: u64,
    data_ooo: Vec<(u64, u64)>,
    last_progress_report: u64,
}

impl TransportReceiver {
    /// Create a receiver for `flow`.
    pub fn new(flow: FlowId) -> Self {
        TransportReceiver {
            flow,
            subflows: Vec::new(),
            data_rcv_nxt: 0,
            data_ooo: Vec::new(),
            last_progress_report: 0,
        }
    }

    /// Connection-level bytes received contiguously so far.
    #[cfg(test)]
    fn contiguous_bytes(&self) -> u64 {
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
            self.subflows.reserve_exact(index + 1 - self.subflows.len());
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
                PacketKind::Data => self.handle_data(ctx, &pkt),
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
    use crate::{case_rng, CASES};
    use netsim::{Addr, SimRng, SimTime};
    use std::collections::BTreeMap;

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

    /// The tracker the range list replaced, one tree entry per buffered
    /// piece and never merged: the reference of the differential tests.
    fn reference_insert(rcv_nxt: &mut u64, ooo: &mut BTreeMap<u64, u64>, seq: u64, len: u64) {
        let end = seq + len;
        let mut cursor = seq.max(*rcv_nxt);
        while cursor < end {
            // Skip the buffered piece that covers `cursor`, if any.
            let covering = ooo.range(..=cursor).next_back();
            if let Some((s, l)) = covering.filter(|(s, l)| **s + **l > cursor) {
                cursor = s + l;
                continue;
            }
            let piece_end = ooo.range(cursor..).next().map_or(end, |(s, _)| end.min(*s));
            ooo.insert(cursor, piece_end - cursor);
            cursor = piece_end;
        }
        while let Some(piece) = ooo.first_entry().filter(|p| *p.key() <= *rcv_nxt) {
            let (s, l) = piece.remove_entry();
            *rcv_nxt = (*rcv_nxt).max(s + l);
        }
    }

    /// Differential test: one random stream of `segments` 1 400-byte
    /// segments, reordered within a window of up to 64 and mixed with
    /// duplicates, retransmits below `rcv_nxt`, overlapping and zero-length
    /// segments, into the range list and the reference tree.
    fn run_against_reference_tree(seed: u64, segments: u64) {
        const MSS: u64 = 1_400;
        let total = segments * MSS;
        let mut rng = SimRng::new(seed);
        let window = rng.range(1..=64usize);
        let (mut rcv_nxt, mut ooo) = (0u64, Vec::new());
        let (mut ref_nxt, mut ref_ooo) = (0, BTreeMap::new());
        let (mut released, mut pending) = (0, Vec::new());
        while released < segments || !pending.is_empty() {
            while released < segments && pending.len() < window {
                pending.push(released);
                released += 1;
            }
            let (seq, len) = match rng.range(0..10u32) {
                0 => (rng.range(0..released) * MSS, MSS),
                1 => {
                    let seq =
                        rng.range(rcv_nxt.saturating_sub(2 * MSS)..=rcv_nxt + window as u64 * MSS);
                    (seq, rng.range(1..=3 * MSS).min(total.saturating_sub(seq)))
                }
                2 => (rng.range(0..=total), 0),
                _ => (pending.swap_remove(rng.range(0..pending.len())) * MSS, MSS),
            };
            insert_range(&mut rcv_nxt, &mut ooo, seq, len);
            reference_insert(&mut ref_nxt, &mut ref_ooo, seq, len);
            // Equal `rcv_nxt`, the reference's pieces covering exactly the
            // ranges, and those sorted, disjoint, non-adjacent, above it.
            assert_eq!(rcv_nxt, ref_nxt, "seed {seed}");
            let mut union: Vec<(u64, u64)> = Vec::new();
            for (&s, &l) in &ref_ooo {
                match union.last_mut() {
                    Some(last) if last.1 == s => last.1 = s + l,
                    _ => union.push((s, s + l)),
                }
            }
            assert_eq!(ooo, union, "seed {seed}");
            assert!(ooo.iter().all(|&(s, e)| rcv_nxt < s && s < e));
            assert!(ooo.windows(2).all(|w| w[0].1 < w[1].0), "{ooo:?}");
        }
        assert_eq!((rcv_nxt, ooo.len()), (total, 0), "seed {seed}");
    }

    #[test]
    fn reassembly_matches_reference_tree_on_random_streams() {
        for seed in 0..200 {
            run_against_reference_tree(seed, 300);
        }
    }

    /// The long run CI makes outside tier-1:
    /// `cargo test --release -p transport -- --ignored reassembly`.
    #[test]
    #[ignore = "long: 5 000 streams x 2 000 segments"]
    fn reassembly_matches_reference_tree_on_long_random_streams() {
        for seed in 0..5_000 {
            run_against_reference_tree(1_000 + seed, 2_000);
        }
    }

    /// A shuffled stream with duplicates reassembles without losing or
    /// duplicating a byte, and the connection-level ACK never goes back.
    #[test]
    fn receiver_reassembly_is_lossless() {
        for case in 0..CASES {
            let mut params = case_rng(2, case);
            let segments = params.range(1u64..60);
            let seed = params.range(0u64..500);
            let duplicate_every = params.range(2usize..10);
            let mss = 1_000;
            let mut order: Vec<u64> = (0..segments).collect();
            SimRng::new(seed).shuffle(&mut order);
            let (mut rx, mut h) = (TransportReceiver::new(FlowId(1)), Harness::new());
            let mut last_data_ack = 0;
            for (i, &seg) in order.iter().enumerate() {
                h.now = SimTime::from_millis(1 + i as u64);
                let reps = if i % duplicate_every == 0 { 2 } else { 1 };
                for _ in 0..reps {
                    for ack in h.deliver(&mut rx, data(0, seg * mss, seg * mss, mss as u32)) {
                        assert!(ack.data_ack >= last_data_ack, "data ack went backwards");
                        last_data_ack = ack.data_ack;
                    }
                }
            }
            assert_eq!(rx.contiguous_bytes(), segments * mss);
            assert_eq!(last_data_ack, segments * mss);
        }
    }

    /// A train that arrives back to front stays one buffered range: each
    /// segment touches the range its successor started.
    #[test]
    fn a_reversed_train_keeps_one_buffered_range() {
        let (mut rcv_nxt, mut ooo) = (0, Vec::new());
        for seg in (0..1_000u64).rev() {
            insert_range(&mut rcv_nxt, &mut ooo, seg * 1_400, 1_400);
            assert!(ooo.len() <= 1, "{ooo:?}");
        }
        assert_eq!((rcv_nxt, ooo.len()), (1_400_000, 0));
    }

    #[test]
    fn insert_range_basics() {
        let (mut rcv_nxt, mut ooo) = (0, Vec::new());
        insert_range(&mut rcv_nxt, &mut ooo, 0, 100);
        assert_eq!(rcv_nxt, 100);
        // A duplicate changes nothing.
        insert_range(&mut rcv_nxt, &mut ooo, 0, 100);
        assert_eq!((rcv_nxt, ooo.len()), (100, 0));
        // Gap: buffered but not advanced.
        insert_range(&mut rcv_nxt, &mut ooo, 200, 100);
        assert_eq!((rcv_nxt, &ooo[..]), (100, &[(200, 300)][..]));
        // Filling the gap advances over both.
        insert_range(&mut rcv_nxt, &mut ooo, 100, 100);
        assert_eq!(rcv_nxt, 300);
        assert!(ooo.is_empty());
    }

    #[test]
    fn insert_range_partial_overlap() {
        let (mut rcv_nxt, mut ooo) = (0, Vec::new());
        insert_range(&mut rcv_nxt, &mut ooo, 100, 100);
        // Overlaps the buffered range on both sides: one merged range.
        insert_range(&mut rcv_nxt, &mut ooo, 50, 200);
        assert_eq!((rcv_nxt, &ooo[..]), (0, &[(50, 250)][..]));
        insert_range(&mut rcv_nxt, &mut ooo, 0, 50);
        assert_eq!(rcv_nxt, 250);
    }

    /// The in-order fast path against the general path, on streams that mix
    /// in-order, out-of-order, overlapping, duplicate and empty segments.
    #[test]
    fn insert_range_fast_path_matches_the_general_path() {
        let mut rng = SimRng::new(0xfa57);
        for _ in 0..300 {
            let (mut fast_nxt, mut fast_ooo) = (0u64, Vec::new());
            let (mut slow_nxt, mut slow_ooo) = (0u64, Vec::new());
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
                insert_range(&mut fast_nxt, &mut fast_ooo, seq, len);
                insert_range_general(&mut slow_nxt, &mut slow_ooo, seq, len);
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
    fn the_reassembly_table_holds_exactly_the_subflows_used() {
        let mut h = Harness::new();
        let mut rx = TransportReceiver::new(FlowId(1));
        h.deliver(&mut rx, data(0, 0, 0, 1400));
        h.deliver(&mut rx, data(0, 1400, 1400, 1400));
        assert_eq!(rx.subflows.capacity(), 1, "a TCP flow holds one slot");
        h.deliver(&mut rx, data(7, 0, 2800, 1400));
        assert_eq!(rx.subflows.capacity(), 8);
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
