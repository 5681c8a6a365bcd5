//! Unidirectional point-to-point links.
//!
//! A link models a single transmission direction between two nodes: a
//! serialisation stage (rate-limited by the link bandwidth, one packet at a
//! time), a drop-tail output queue feeding the transmitter, and a fixed
//! propagation delay. Full-duplex cables are modelled as two independent
//! links created in opposite directions by the topology builders.
//!
//! ## Batched drain
//!
//! When the transmitter frees up it commits up to [`LinkConfig::drain_batch`]
//! queued packets to the wire in one call, computing their back-to-back
//! serialisation windows, so the engine schedules one `TransmitComplete`
//! event per *burst* instead of per packet. Physics are preserved: a
//! committed packet still occupies the queue (for drop, ECN and depth
//! accounting) and stays out of the link counters until the simulated
//! instant its serialisation would have started, tracked by the `committed`
//! ledger, and its delivery time is identical to the packet-at-a-time
//! schedule. (The one degenerate exception — observations landing at exactly
//! a later burst packet's serialisation-start instant — is documented on the
//! private `Link::prune_committed`.)
//!
//! The ledger stays. A scratch copy defaulting `drain_batch` to 1 (sizing
//! ISSUE 19; two alternating pairs per `benchmark/` workload against its
//! parent, so *unverified, direction consistent* under `benchmark/README.md`'s
//! ten-pair rule) moved `wall_s` by 0 % on `fig1_mmptcp`, +3 % on
//! `battle_sweep`, +5 % on `mice_storm_tcp` and +9 % on `elephants_hybrid`:
//! batching is worth keeping, and the ledger is what makes it invisible.

use crate::ids::{LinkId, NodeId};
use crate::packet::Packet;
use crate::queue::{DropTailQueue, EnqueueOutcome, QueueConfig, QueueStats};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Bandwidth in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Output queue configuration.
    pub queue: QueueConfig,
    /// Maximum number of queued packets committed to the wire per
    /// `TransmitComplete` dispatch. 1 reproduces the packet-at-a-time engine
    /// event-for-event; larger values cut calendar traffic on busy links
    /// without changing transmission or delivery times.
    pub drain_batch: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // 1 Gbps access links were the norm in 2015-era data-centre studies.
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_micros(25),
            queue: QueueConfig::default(),
            drain_batch: 8,
        }
    }
}

/// Counters maintained per link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets fully transmitted onto the wire.
    pub tx_packets: u64,
    /// Wire bytes fully transmitted.
    pub tx_bytes: u64,
    /// Time the transmitter has spent busy, in nanoseconds (for utilisation).
    pub busy_ns: u64,
}

/// A cumulative telemetry snapshot of one link, taken by the flight-recorder
/// trace pipeline at a fixed cadence. Counters are cumulative since the start
/// of the run; the trace sink differences consecutive snapshots to produce
/// per-sample-window series (bytes carried, drops, ECN marks, utilisation),
/// while `queue_depth_packets` is the instantaneous occupancy at the sample
/// instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkTelemetry {
    /// Instantaneous queue depth in packets (committed-burst packets whose
    /// serialisation has not started yet still count, exactly as they do for
    /// drop and ECN decisions).
    pub queue_depth_packets: usize,
    /// Cumulative packets fully transmitted onto the wire.
    pub tx_packets: u64,
    /// Cumulative wire bytes transmitted.
    pub tx_bytes: u64,
    /// Cumulative transmitter busy time in nanoseconds.
    pub busy_ns: u64,
    /// Cumulative packets dropped by the output queue.
    pub dropped: u64,
    /// Cumulative ECN marks applied by the output queue.
    pub ecn_marked: u64,
}

/// One unidirectional link.
#[derive(Debug, Clone)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Static configuration.
    pub config: LinkConfig,
    queue: DropTailQueue,
    /// Whether the transmitter is currently serialising a packet (or a
    /// committed burst of packets).
    transmitting: bool,
    /// Packets dequeued as part of a burst whose serialisation has not
    /// started yet at the current simulated time: `(serialisation start, wire
    /// bytes, serialisation nanoseconds)`. They still count towards queue
    /// occupancy — and their transmission is not yet added to [`LinkStats`] —
    /// until their start time passes.
    committed: VecDeque<(SimTime, u64, u64)>,
    /// Bits per second currently reserved for fluid-mode flows crossing
    /// this link (see [`crate::fluid`]). Packet serialisation runs at the
    /// configured rate minus this reservation, so packet- and fluid-mode
    /// traffic contend for the same capacity. Zero (the default) leaves the
    /// packet path byte-identical to a build without the fluid engine.
    fluid_reserved_bps: u64,
    stats: LinkStats,
}

/// What the caller of [`Link::offer`] / [`Link::on_transmit_complete`] must do
/// next: if a transmission was started, schedule the corresponding
/// `TransmitComplete` and `Delivery` events.
#[derive(Debug, Clone, PartialEq)]
pub struct StartedTransmission {
    /// The packet that was put on the wire.
    pub packet: Packet,
    /// When serialisation finishes. For a burst, schedule one
    /// `TransmitComplete` at the *last* packet's time.
    pub transmit_done_at: SimTime,
    /// When the packet arrives at `to` (schedule `Delivery` then).
    pub delivered_at: SimTime,
}

impl Link {
    /// Create a link.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, config: LinkConfig) -> Self {
        Link {
            id,
            from,
            to,
            config,
            queue: DropTailQueue::new(config.queue),
            transmitting: false,
            committed: VecDeque::new(),
            fluid_reserved_bps: 0,
            stats: LinkStats::default(),
        }
    }

    /// Install the fluid-mode capacity reservation in bits per second.
    /// Subsequent packet transmissions serialise at the configured rate
    /// minus the reservation (floored at 10 % of the rate so packet-mode
    /// control traffic always makes progress). In-progress transmissions
    /// keep the timings computed when they started.
    pub(crate) fn set_fluid_reservation(&mut self, bps: u64) {
        self.fluid_reserved_bps = bps;
    }

    /// The currently installed fluid reservation in bits per second.
    #[cfg(test)]
    pub(crate) fn fluid_reservation(&self) -> u64 {
        self.fluid_reserved_bps
    }

    /// The serialisation rate packet transmissions currently see.
    fn effective_rate_bps(&self) -> u64 {
        if self.fluid_reserved_bps == 0 {
            self.config.rate_bps
        } else {
            let floor = (self.config.rate_bps / 10).max(1);
            self.config
                .rate_bps
                .saturating_sub(self.fluid_reserved_bps)
                .max(floor)
        }
    }

    /// Drop committed-ledger entries whose serialisation has started by
    /// `now`: those packets have physically left the queue, so they stop
    /// counting towards occupancy and start counting in [`LinkStats`] — the
    /// same instant the packet-at-a-time engine dequeues and counts them.
    ///
    /// Boundary convention: at exactly `now == start` the slot is treated as
    /// freed (as if the serialisation-start event had already processed).
    /// The packet-at-a-time engine's behaviour at that degenerate instant
    /// depends on the calendar seq order of the phantom `TransmitComplete`
    /// versus the observing event, so no fixed convention can match it in
    /// every tie; within one engine configuration the choice is applied
    /// consistently and runs stay deterministic.
    fn prune_committed(&mut self, now: SimTime) {
        while let Some(&(start, bytes, tx_ns)) = self.committed.front() {
            if start > now {
                break;
            }
            self.committed.pop_front();
            self.count_transmission(bytes, tx_ns);
        }
    }

    /// Account one packet's transmission in the link counters.
    fn count_transmission(&mut self, wire_bytes: u64, tx_ns: u64) {
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire_bytes;
        self.stats.busy_ns += tx_ns;
    }

    /// Offer a packet for transmission at time `now`.
    ///
    /// Returns `Ok(Some(tx))` if the transmitter was idle and the packet went
    /// straight onto the wire, `Ok(None)` if it was queued behind others, and
    /// `Err(outcome)` if the queue dropped it.
    pub fn offer(
        &mut self,
        now: SimTime,
        packet: Packet,
    ) -> Result<Option<StartedTransmission>, EnqueueOutcome> {
        self.prune_committed(now);
        let outcome = self.queue.enqueue(packet, self.committed.len());
        match outcome {
            EnqueueOutcome::Dropped => Err(EnqueueOutcome::Dropped),
            EnqueueOutcome::Queued | EnqueueOutcome::QueuedMarked => {
                if self.transmitting {
                    Ok(None)
                } else {
                    Ok(self.start_one(now))
                }
            }
        }
    }

    /// Notify the link that the burst it previously started has finished
    /// serialising; it commits the next burst of queued packets (if any) into
    /// `out`. The caller schedules one `Delivery` per entry and a single
    /// `TransmitComplete` at the last entry's `transmit_done_at`.
    pub fn on_transmit_complete(&mut self, now: SimTime, out: &mut Vec<StartedTransmission>) {
        // Every packet of the finished burst started serialising at or
        // before `now` (the burst's last transmit-done time), so this flushes
        // the whole ledger, counting any still-pending transmissions.
        self.prune_committed(now);
        debug_assert!(self.committed.is_empty());
        self.transmitting = false;

        let batch = self.config.drain_batch.max(1);
        let mut start_at = now;
        while out.len() < batch {
            let Some(tx) = self.transmit(start_at) else {
                break;
            };
            let wire = tx.packet.wire_bytes() as u64;
            let tx_ns = (tx.transmit_done_at - start_at).as_nanos();
            if start_at > now {
                // Serialisation starts in the future: the packet keeps its
                // queue slot (for drop/ECN/depth accounting) and its
                // transmission is not counted until then.
                self.committed.push_back((start_at, wire, tx_ns));
            } else {
                self.count_transmission(wire, tx_ns);
            }
            start_at = tx.transmit_done_at;
            out.push(tx);
        }
        self.transmitting = !out.is_empty();
    }

    /// Dequeue one packet and compute its wire timings from `start_at`.
    /// Counters are the caller's responsibility (they accrue when the
    /// serialisation actually starts, which for later burst packets is in
    /// the future).
    fn transmit(&mut self, start_at: SimTime) -> Option<StartedTransmission> {
        let packet = self.queue.dequeue()?;
        let wire = packet.wire_bytes() as u64;
        let tx_time = SimDuration::transmission(wire, self.effective_rate_bps());
        let transmit_done_at = start_at + tx_time;
        let delivered_at = transmit_done_at + self.config.delay;
        Some(StartedTransmission {
            packet,
            transmit_done_at,
            delivered_at,
        })
    }

    /// Start transmitting a single packet on an idle transmitter.
    fn start_one(&mut self, now: SimTime) -> Option<StartedTransmission> {
        debug_assert!(!self.transmitting && self.committed.is_empty());
        let tx = self.transmit(now)?;
        let wire = tx.packet.wire_bytes() as u64;
        self.count_transmission(wire, (tx.transmit_done_at - now).as_nanos());
        self.transmitting = true;
        Some(tx)
    }

    /// Settle the committed-burst ledger up to `now`: count transmissions
    /// whose serialisation has started in [`LinkStats`] and release their
    /// queue slots. The engine calls this before statistics are read (the
    /// ledger is otherwise only pruned by traffic on this link), so
    /// mid-burst measurement reads match the packet-at-a-time engine.
    pub fn settle(&mut self, now: SimTime) {
        self.prune_committed(now);
    }

    /// Current queue depth in packets at time `now`, excluding packets whose
    /// serialisation has begun.
    fn queue_len_at(&self, now: SimTime) -> usize {
        let pending = self
            .committed
            .iter()
            .filter(|&&(start, _, _)| start > now)
            .count();
        self.queue.len() + pending
    }

    /// Packets accepted into the queue whose transmission has not been
    /// committed to the wire yet. Unlike the depth that drop and ECN
    /// decisions see, committed-burst packets are excluded: those already
    /// have `Delivery` events scheduled (they live in the engine's packet
    /// arena), so this is exactly the "enqueued but not yet in flight" term
    /// of the engine's packet conservation law.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Flight-recorder telemetry snapshot at time `now`. Read-only: callers
    /// that want the committed-burst ledger settled first (so `busy_ns` and
    /// `tx_*` reflect exactly the transmissions started by `now`) should call
    /// [`Link::settle`] beforehand, as the experiment loop does.
    pub fn telemetry(&self, now: SimTime) -> LinkTelemetry {
        let q = self.queue.stats();
        LinkTelemetry {
            queue_depth_packets: self.queue_len_at(now),
            tx_packets: self.stats.tx_packets,
            tx_bytes: self.stats.tx_bytes,
            busy_ns: self.stats.busy_ns,
            dropped: q.dropped,
            ecn_marked: q.ecn_marked,
        }
    }

    /// Link counters.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Utilisation of this link over `elapsed` time: fraction of time the
    /// transmitter was busy, in `[0, 1]`.
    pub fn utilisation(&self, elapsed: SimDuration) -> f64 {
        if elapsed.is_zero() {
            return 0.0;
        }
        (self.stats.busy_ns as f64 / elapsed.as_nanos() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, FlowId};

    fn cfg() -> LinkConfig {
        LinkConfig {
            rate_bps: 1_000_000_000, // 1 Gbps
            delay: SimDuration::from_micros(10),
            queue: QueueConfig {
                limit_packets: 2,
                ..QueueConfig::default()
            },
            ..LinkConfig::default()
        }
    }

    fn pkt(seq: u64) -> Packet {
        Packet::data(
            Addr(0),
            Addr(1),
            50_000,
            80,
            FlowId(1),
            0,
            seq,
            seq,
            1446, // 1446 + 54 header = 1500 wire bytes -> 12 us at 1 Gbps
            SimTime::ZERO,
        )
    }

    fn complete(link: &mut Link, now: SimTime) -> Vec<StartedTransmission> {
        let mut out = Vec::new();
        link.on_transmit_complete(now, &mut out);
        out
    }

    #[test]
    fn idle_link_transmits_immediately() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let now = SimTime::from_millis(1);
        let tx = link.offer(now, pkt(0)).unwrap().unwrap();
        assert_eq!(tx.transmit_done_at, now + SimDuration::from_micros(12));
        assert_eq!(
            tx.delivered_at,
            now + SimDuration::from_micros(12) + SimDuration::from_micros(10)
        );
        assert!(link.transmitting);
        assert_eq!(link.backlog(), 0);
    }

    #[test]
    fn busy_link_queues_and_resumes() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let now = SimTime::ZERO;
        let first = link.offer(now, pkt(0)).unwrap();
        assert!(first.is_some());
        // Transmitter busy: next packet only queues.
        assert!(link.offer(now, pkt(1)).unwrap().is_none());
        assert_eq!(link.backlog(), 1);
        // When the first transmission completes, the queued packet starts.
        let done = first.unwrap().transmit_done_at;
        let second = complete(&mut link, done);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].packet.seq, 1);
        assert_eq!(
            second[0].transmit_done_at,
            done + SimDuration::from_micros(12)
        );
    }

    #[test]
    fn queue_overflow_drops() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let now = SimTime::ZERO;
        link.offer(now, pkt(0)).unwrap(); // on the wire
        link.offer(now, pkt(1)).unwrap(); // queued
        link.offer(now, pkt(2)).unwrap(); // queued (limit 2)
        let dropped = link.offer(now, pkt(3));
        assert!(dropped.is_err());
        assert_eq!(link.queue_stats().dropped, 1);
    }

    #[test]
    fn transmit_complete_with_empty_queue_goes_idle() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let tx = link.offer(SimTime::ZERO, pkt(0)).unwrap().unwrap();
        assert!(complete(&mut link, tx.transmit_done_at).is_empty());
        assert!(!link.transmitting);
    }

    #[test]
    fn utilisation_accounts_busy_time() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let tx = link.offer(SimTime::ZERO, pkt(0)).unwrap().unwrap();
        complete(&mut link, tx.transmit_done_at);
        // One 12 us transmission in 24 us of elapsed time = 50 %.
        let u = link.utilisation(SimDuration::from_micros(24));
        assert!((u - 0.5).abs() < 1e-9, "utilisation {u}");
        assert_eq!(link.stats().tx_packets, 1);
        assert_eq!(link.stats().tx_bytes, 1500);
    }

    #[test]
    fn burst_is_committed_back_to_back() {
        let mut link = Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            LinkConfig {
                queue: QueueConfig::default(),
                ..cfg()
            },
        );
        let now = SimTime::ZERO;
        let first = link.offer(now, pkt(0)).unwrap().unwrap();
        for i in 1..=4 {
            assert!(link.offer(now, pkt(i)).unwrap().is_none());
        }
        let burst = complete(&mut link, first.transmit_done_at);
        assert_eq!(burst.len(), 4, "whole backlog fits in one batch");
        let tx_us = 12u64;
        for (i, tx) in burst.iter().enumerate() {
            assert_eq!(tx.packet.seq, (i + 1) as u64);
            // Each packet's serialisation finishes one slot after the previous.
            assert_eq!(
                tx.transmit_done_at,
                first.transmit_done_at + SimDuration::from_micros(tx_us * (i as u64 + 1))
            );
            assert_eq!(tx.delivered_at, tx.transmit_done_at + link.config.delay);
        }
        assert!(link.transmitting);
        assert_eq!(link.queue_stats().dropped, 0);
    }

    #[test]
    fn committed_packets_still_occupy_the_queue() {
        // limit_packets = 2. One packet on the wire, two queued, then the
        // wire frees and the batch commits both queued packets. Until their
        // serialisation start times pass, new arrivals must still see a full
        // queue and be dropped — exactly as the packet-at-a-time engine
        // would.
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let now = SimTime::ZERO;
        let first = link.offer(now, pkt(0)).unwrap().unwrap();
        link.offer(now, pkt(1)).unwrap();
        link.offer(now, pkt(2)).unwrap();
        let t1 = first.transmit_done_at; // pkt(1) starts serialising here
        let burst = complete(&mut link, t1);
        assert_eq!(burst.len(), 2);
        let t2 = burst[0].transmit_done_at; // pkt(2) starts serialising here

        // At t1, pkt(2) has not started: queue still holds one "slot".
        assert_eq!(link.queue_len_at(t1), 1);
        // An arrival at t1 sees depth 1 < limit 2 and is accepted.
        assert!(link.offer(t1, pkt(3)).unwrap().is_none());
        // Now the queue holds pkt(3) plus committed pkt(2): full again.
        assert!(link.offer(t1, pkt(4)).is_err());
        // Once pkt(2)'s serialisation starts, one slot frees up.
        assert!(link.offer(t2, pkt(5)).unwrap().is_none());
        assert_eq!(link.queue_stats().dropped, 1);
    }

    #[test]
    fn stats_accrue_at_serialisation_start_not_commit() {
        // A committed burst must not count transmissions whose serialisation
        // lies in the future, so truncated runs report the same LinkStats as
        // the packet-at-a-time engine.
        let config = LinkConfig {
            queue: QueueConfig::default(),
            ..cfg()
        };
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), config);
        let now = SimTime::ZERO;
        let first = link.offer(now, pkt(0)).unwrap().unwrap();
        for i in 1..=3 {
            link.offer(now, pkt(i)).unwrap();
        }
        assert_eq!(link.stats().tx_packets, 1, "only the wire packet counts");
        let t1 = first.transmit_done_at;
        let burst = complete(&mut link, t1);
        assert_eq!(burst.len(), 3);
        // Burst packet 0 starts at t1; packets 1 and 2 start later.
        assert_eq!(link.stats().tx_packets, 2);
        assert_eq!(link.stats().busy_ns, 2 * 12_000);
        // Once packet 1's start passes (observed via an offer), it counts.
        let t2 = burst[0].transmit_done_at;
        link.offer(t2, pkt(9)).unwrap();
        assert_eq!(link.stats().tx_packets, 3);
        // The burst-ending TransmitComplete flushes the rest.
        let end = burst.last().unwrap().transmit_done_at;
        complete(&mut link, end);
        assert_eq!(link.stats().tx_packets, 5, "4 burst-era packets + pkt(9)");
        assert_eq!(link.stats().tx_bytes, 5 * 1500);
    }

    #[test]
    fn fluid_reservation_slows_packet_serialisation() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        // Reserve half the link: 1500 wire bytes serialise in 24 us, not 12.
        link.set_fluid_reservation(500_000_000);
        let t0 = SimTime::ZERO;
        let tx = link.offer(t0, pkt(0)).unwrap().unwrap();
        assert_eq!(tx.transmit_done_at, t0 + SimDuration::from_micros(24));
        // Clearing the reservation restores the full rate for later packets.
        link.set_fluid_reservation(0);
        assert!(complete(&mut link, tx.transmit_done_at).is_empty());
        let t1 = tx.transmit_done_at;
        let tx2 = link.offer(t1, pkt(1)).unwrap().unwrap();
        assert_eq!(tx2.transmit_done_at, t1 + SimDuration::from_micros(12));
        // An over-reservation is floored at 10 % of the configured rate.
        assert!(complete(&mut link, tx2.transmit_done_at).is_empty());
        link.set_fluid_reservation(2_000_000_000);
        assert_eq!(link.fluid_reservation(), 2_000_000_000);
        let t2 = tx2.transmit_done_at;
        let tx3 = link.offer(t2, pkt(2)).unwrap().unwrap();
        assert_eq!(tx3.transmit_done_at, t2 + SimDuration::from_micros(120));
    }

    #[test]
    fn batch_of_one_reproduces_packet_at_a_time_schedule() {
        let batched = cfg();
        let unbatched = LinkConfig {
            drain_batch: 1,
            ..cfg()
        };
        let mut schedules: Vec<Vec<(SimTime, SimTime)>> = Vec::new();
        for config in [batched, unbatched] {
            let config = LinkConfig {
                queue: QueueConfig::default(),
                ..config
            };
            let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), config);
            let mut times = Vec::new();
            let first = link.offer(SimTime::ZERO, pkt(0)).unwrap().unwrap();
            for i in 1..=9 {
                link.offer(SimTime::ZERO, pkt(i)).unwrap();
            }
            times.push((first.transmit_done_at, first.delivered_at));
            let mut next_complete = first.transmit_done_at;
            loop {
                let burst = complete(&mut link, next_complete);
                if burst.is_empty() {
                    break;
                }
                for tx in &burst {
                    times.push((tx.transmit_done_at, tx.delivered_at));
                }
                next_complete = burst.last().unwrap().transmit_done_at;
            }
            schedules.push(times);
        }
        assert_eq!(
            schedules[0], schedules[1],
            "batched and unbatched drains must produce identical wire schedules"
        );
    }
}
