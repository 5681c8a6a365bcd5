//! Unidirectional point-to-point links.
//!
//! A link models a single transmission direction between two nodes: a
//! serialisation stage (rate-limited by the link bandwidth, one packet at a
//! time), a drop-tail output queue feeding the transmitter, and a fixed
//! propagation delay. Full-duplex cables are modelled as two independent
//! links created in opposite directions by the topology builders.
//!
//! A packet leaves the queue (for drop, ECN and depth accounting) and enters
//! the link counters at the instant its serialisation starts, and the engine
//! reserves one calendar key for each packet's `TransmitComplete`, putting
//! the event on the calendar only when a packet waits behind it. A packet
//! offered in the very nanosecond the transmitter frees therefore sees the
//! queue before or after that dequeue according to calendar order alone
//! (ARCHITECTURE.md, determinism rule 3).

use crate::ids::{LinkId, NodeId};
use crate::packet::Packet;
use crate::queue::{DropTailQueue, EnqueueOutcome, QueueConfig, QueueStats};
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Configuration of one link direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Bandwidth in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub delay: SimDuration,
    /// Output queue configuration.
    pub queue: QueueConfig,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // 1 Gbps access links were the norm in 2015-era data-centre studies.
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_micros(25),
            queue: QueueConfig::default(),
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
    /// Whether the transmitter is currently serialising a packet.
    transmitting: bool,
    /// Bits per second currently reserved for fluid-mode flows crossing
    /// this link (see [`crate::fluid`]). Packet serialisation runs at the
    /// configured rate minus this reservation, so packet- and fluid-mode
    /// traffic contend for the same capacity. Zero (the default) leaves the
    /// packet path byte-identical to a build without the fluid engine.
    fluid_reserved_bps: u64,
    /// The `(time, seq)` calendar key of the running transmission's
    /// completion while nothing is queued behind it: the engine reserves the
    /// key when the transmission starts and schedules the completion under
    /// it only once a packet queues.
    pub(crate) deferred_completion: Option<(SimTime, u64)>,
    stats: LinkStats,
}

/// What the caller of [`Link::offer`] / [`Link::on_transmit_complete`] must do
/// next: if a transmission was started, schedule the corresponding
/// `TransmitComplete` and `Delivery` events.
#[derive(Debug, Clone, PartialEq)]
pub struct StartedTransmission {
    /// The packet that was put on the wire.
    pub packet: Packet,
    /// When serialisation finishes (schedule `TransmitComplete` then).
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
            fluid_reserved_bps: 0,
            deferred_completion: None,
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
        match self.queue.enqueue(packet) {
            EnqueueOutcome::Dropped => Err(EnqueueOutcome::Dropped),
            EnqueueOutcome::Queued | EnqueueOutcome::QueuedMarked => {
                if self.transmitting {
                    Ok(None)
                } else {
                    Ok(self.start_next(now))
                }
            }
        }
    }

    /// Notify the link that the packet it was serialising has left the
    /// transmitter; the next queued packet (if any) starts and is pushed onto
    /// `out`, for which the caller schedules a `TransmitComplete` and a
    /// `Delivery`.
    pub fn on_transmit_complete(&mut self, now: SimTime, out: &mut Vec<StartedTransmission>) {
        out.extend(self.transmit_complete(now));
    }

    /// [`Link::on_transmit_complete`] without the buffer (whose signature is
    /// what `benchmark/` calls).
    pub(crate) fn transmit_complete(&mut self, now: SimTime) -> Option<StartedTransmission> {
        self.transmitting = false;
        self.start_next(now)
    }

    /// Dequeue the head packet onto the idle transmitter: compute its wire
    /// timings from `now` and count the transmission.
    fn start_next(&mut self, now: SimTime) -> Option<StartedTransmission> {
        debug_assert!(!self.transmitting);
        let packet = self.queue.dequeue()?;
        let wire = packet.wire_bytes() as u64;
        let tx_time = SimDuration::transmission(wire, self.effective_rate_bps());
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += wire;
        self.stats.busy_ns += tx_time.as_nanos();
        self.transmitting = true;
        let transmit_done_at = now + tx_time;
        Some(StartedTransmission {
            packet,
            transmit_done_at,
            delivered_at: transmit_done_at + self.config.delay,
        })
    }

    /// Whether a deferred completion, if any, belongs to a busy transmitter
    /// with nothing queued behind it (the engine's debug invariant).
    pub(crate) fn deferred_completion_is_consistent(&self) -> bool {
        self.deferred_completion.is_none() || self.transmitting && self.queue.len() == 0
    }

    /// Packets accepted into the queue whose serialisation has not started:
    /// the "enqueued but not yet in flight" term of the engine's packet
    /// conservation law (a packet being serialised already has its
    /// `Delivery` scheduled and lives in the engine's packet arena).
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Queue counters.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
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
        let second = link.transmit_complete(done).unwrap();
        assert_eq!(second.packet.seq, 1);
        assert_eq!(second.transmit_done_at, done + SimDuration::from_micros(12));
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
        assert!(link.transmit_complete(tx.transmit_done_at).is_none());
        assert!(!link.transmitting);
    }

    #[test]
    fn utilisation_accounts_busy_time() {
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let tx = link.offer(SimTime::ZERO, pkt(0)).unwrap().unwrap();
        link.transmit_complete(tx.transmit_done_at);
        // One 12 us transmission in 24 us of elapsed time = 50 %.
        let u = link.utilisation(SimDuration::from_micros(24));
        assert!((u - 0.5).abs() < 1e-9, "utilisation {u}");
        assert_eq!(link.stats().tx_packets, 1);
        assert_eq!(link.stats().tx_bytes, 1500);
    }

    #[test]
    fn backlog_drains_back_to_back_one_packet_per_completion() {
        // limit_packets = 2: one packet on the wire, two queued, a fourth dropped.
        let mut link = Link::new(LinkId(0), NodeId(0), NodeId(1), cfg());
        let first = link.offer(SimTime::ZERO, pkt(0)).unwrap().unwrap();
        link.offer(SimTime::ZERO, pkt(1)).unwrap();
        link.offer(SimTime::ZERO, pkt(2)).unwrap();
        assert!(link.offer(SimTime::ZERO, pkt(3)).is_err());
        let snapshot = |l: &Link| (l.backlog(), l.stats(), l.queue_stats().dropped);
        let wire = |n: u64| LinkStats {
            tx_packets: n,
            tx_bytes: 1500 * n,
            busy_ns: 12_000 * n,
        };
        assert_eq!(
            snapshot(&link),
            (2, wire(1), 1),
            "only the wire packet counts"
        );

        let mut done = first.transmit_done_at;
        for seq in 1..=2 {
            let tx = link.transmit_complete(done).unwrap();
            assert_eq!(tx.packet.seq, seq);
            assert_eq!(tx.transmit_done_at, done + SimDuration::from_micros(12));
            assert_eq!(tx.delivered_at, tx.transmit_done_at + link.config.delay);
            // The packet left the queue and entered the counters at the
            // instant its serialisation started: exactly one slot is free.
            assert_eq!(snapshot(&link), (1, wire(seq + 1), seq));
            assert!(link.offer(done, pkt(10 + seq)).unwrap().is_none());
            assert!(link.offer(done, pkt(20 + seq)).is_err());
            done = tx.transmit_done_at;
        }
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
        assert!(link.transmit_complete(tx.transmit_done_at).is_none());
        let t1 = tx.transmit_done_at;
        let tx2 = link.offer(t1, pkt(1)).unwrap().unwrap();
        assert_eq!(tx2.transmit_done_at, t1 + SimDuration::from_micros(12));
        // An over-reservation is floored at 10 % of the configured rate.
        assert!(link.transmit_complete(tx2.transmit_done_at).is_none());
        link.set_fluid_reservation(2_000_000_000);
        assert_eq!(link.fluid_reservation(), 2_000_000_000);
        let t2 = tx2.transmit_done_at;
        let tx3 = link.offer(t2, pkt(2)).unwrap().unwrap();
        assert_eq!(tx3.transmit_done_at, t2 + SimDuration::from_micros(120));
    }
}
