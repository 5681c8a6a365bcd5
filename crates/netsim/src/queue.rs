//! Output-port packet queues.
//!
//! Switch and host ports use a drop-tail FIFO bounded in packets, matching
//! the shared-buffer commodity switches assumed by the paper. An optional
//! marking threshold implements DCTCP-style ECN.

use crate::packet::{Ecn, Packet};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Configuration of a drop-tail queue.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum number of packets the queue will hold (the packet on the wire
    /// is not counted). 100 packets is the classic ns-3 data-centre default.
    pub limit_packets: usize,
    /// Optional ECN marking threshold in packets (DCTCP's `K`). When the
    /// instantaneous queue length is at or above this value, ECN-capable
    /// packets are marked instead of dropped.
    pub ecn_threshold_packets: Option<usize>,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            limit_packets: 100,
            ecn_threshold_packets: None,
        }
    }
}

/// Counters maintained by every queue.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Packets accepted into the queue.
    pub enqueued: u64,
    /// Packets dropped because the queue was full.
    pub dropped: u64,
    /// Packets marked with Congestion Experienced.
    pub ecn_marked: u64,
}

/// The outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was queued.
    Queued,
    /// The packet was queued and ECN-marked.
    QueuedMarked,
    /// The packet was dropped.
    Dropped,
}

/// A bounded drop-tail FIFO of packets.
#[derive(Debug, Clone)]
pub(crate) struct DropTailQueue {
    config: QueueConfig,
    packets: VecDeque<Packet>,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Create a queue with the given configuration.
    pub(crate) fn new(config: QueueConfig) -> Self {
        DropTailQueue {
            config,
            packets: VecDeque::new(),
            stats: QueueStats::default(),
        }
    }

    /// Offer a packet to the queue. On success the packet is stored (and
    /// possibly ECN-marked); on failure it is dropped and counted.
    pub(crate) fn enqueue(&mut self, mut packet: Packet) -> EnqueueOutcome {
        let depth = self.packets.len();
        if depth >= self.config.limit_packets {
            self.stats.dropped += 1;
            return EnqueueOutcome::Dropped;
        }

        let mut marked = false;
        if let Some(k) = self.config.ecn_threshold_packets {
            if depth >= k && packet.ecn == Ecn::Capable {
                packet.ecn = Ecn::CongestionExperienced;
                self.stats.ecn_marked += 1;
                marked = true;
            }
        }

        self.packets.push_back(packet);
        self.stats.enqueued += 1;
        if marked {
            EnqueueOutcome::QueuedMarked
        } else {
            EnqueueOutcome::Queued
        }
    }

    /// Remove the packet at the head of the queue.
    pub(crate) fn dequeue(&mut self) -> Option<Packet> {
        self.packets.pop_front()
    }

    /// Number of packets currently queued.
    pub(crate) fn len(&self) -> usize {
        self.packets.len()
    }

    /// The queue's counters.
    pub(crate) fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Addr, FlowId};
    use crate::time::SimTime;

    fn pkt(payload: u32) -> Packet {
        Packet::data(
            Addr(0),
            Addr(1),
            50_000,
            80,
            FlowId(1),
            0,
            0,
            0,
            payload,
            SimTime::ZERO,
        )
    }

    fn ecn_pkt(payload: u32) -> Packet {
        let mut p = pkt(payload);
        p.ecn = Ecn::Capable;
        p
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(QueueConfig::default());
        for i in 0..5 {
            let mut p = pkt(100);
            p.seq = i;
            q.enqueue(p);
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().seq, i);
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn drops_when_packet_limit_hit() {
        let mut q = DropTailQueue::new(QueueConfig {
            limit_packets: 2,
            ..QueueConfig::default()
        });
        assert_eq!(q.enqueue(pkt(100)), EnqueueOutcome::Queued);
        assert_eq!(q.enqueue(pkt(100)), EnqueueOutcome::Queued);
        assert_eq!(q.enqueue(pkt(100)), EnqueueOutcome::Dropped);
        assert_eq!(q.stats().dropped, 1);
        assert_eq!(q.stats().enqueued, 2);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn ecn_marks_capable_packets_above_threshold() {
        let mut q = DropTailQueue::new(QueueConfig {
            limit_packets: 10,
            ecn_threshold_packets: Some(2),
        });
        assert_eq!(q.enqueue(ecn_pkt(100)), EnqueueOutcome::Queued);
        assert_eq!(q.enqueue(ecn_pkt(100)), EnqueueOutcome::Queued);
        // Queue depth is now 2 == K, so this one gets marked.
        assert_eq!(q.enqueue(ecn_pkt(100)), EnqueueOutcome::QueuedMarked);
        // Non-capable packets are never marked.
        assert_eq!(q.enqueue(pkt(100)), EnqueueOutcome::Queued);
        assert_eq!(q.stats().ecn_marked, 1);
        // The marked packet carries CE when dequeued.
        q.dequeue();
        q.dequeue();
        assert_eq!(q.dequeue().unwrap().ecn, Ecn::CongestionExperienced);
    }
}
