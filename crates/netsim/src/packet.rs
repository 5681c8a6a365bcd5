//! The simulator's packet ("wire format").
//!
//! Rather than serialising real byte-level headers, the simulator carries a
//! structured [`Packet`] with the fields that the data-centre transports under
//! study need: a 5-tuple for ECMP hashing, subflow-level sequence/ack numbers,
//! MPTCP-style connection-level data sequence numbers, and ECN codepoints for
//! the DCTCP extension. This mirrors how ns-3 headers are used by the paper's
//! models while keeping the hot path allocation-free.

use crate::ids::{Addr, FlowId};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Nominal size of a TCP/IP header in bytes (IPv4 20 + TCP 20 + options 14),
/// matching the common ns-3 configuration used in data-centre studies.
pub const HEADER_BYTES: u32 = 54;

/// Default maximum segment size in bytes (Ethernet MTU 1500 minus headers,
/// rounded to the traditional 1400 used by the authors' ns-3 MPTCP model).
pub const DEFAULT_MSS: u32 = 1400;

/// What kind of segment this packet carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// Connection/subflow establishment request.
    Syn,
    /// Establishment response.
    SynAck,
    /// A data-bearing segment.
    Data,
    /// A pure acknowledgement.
    Ack,
}

/// Explicit Congestion Notification codepoint carried by the packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Ecn {
    /// Transport is not ECN-capable for this packet.
    #[default]
    NotCapable,
    /// ECN-capable transport, not marked.
    Capable,
    /// Congestion experienced — set by a switch whose queue exceeded its
    /// marking threshold (DCTCP-style).
    CongestionExperienced,
}

/// A simulated packet.
///
/// `Copy` is intentionally not derived (the struct is ~100 bytes); it is moved
/// through queues and events by value and never heap-allocates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Source host address.
    pub src: Addr,
    /// Destination host address.
    pub dst: Addr,
    /// Source (ephemeral) port. MMPTCP's packet-scatter phase randomises this
    /// per packet so hash-based ECMP sprays packets over all paths.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Connection identifier. All subflows of an MPTCP/MMPTCP connection share
    /// this id; receivers demultiplex on it.
    pub flow: FlowId,
    /// Subflow index within the connection (0 for single-path TCP and for the
    /// packet-scatter flow).
    pub subflow: u8,
    /// Segment kind.
    pub kind: PacketKind,
    /// Subflow-level sequence number (byte offset of the first payload byte).
    pub seq: u64,
    /// Subflow-level cumulative acknowledgement (next expected byte).
    pub ack: u64,
    /// Connection-level data sequence number (MPTCP DSS mapping). For plain
    /// TCP this equals `seq`.
    pub data_seq: u64,
    /// Connection-level cumulative data acknowledgement.
    pub data_ack: u64,
    /// Application payload length in bytes carried by this segment.
    pub payload: u32,
    /// Duplicate-SACK style hint: set on an ACK that re-acknowledges data the
    /// receiver had already received (used by reordering-robust policies).
    pub dup_hint: bool,
    /// ECN codepoint (set by switches when marking).
    pub ecn: Ecn,
    /// ECN-echo flag on ACKs (receiver -> sender congestion feedback).
    pub ecn_echo: bool,
    /// Time the packet was handed to the NIC by the sender; used for RTT
    /// sampling (stands in for the TCP timestamp option).
    pub sent_at: SimTime,
}

impl Packet {
    /// Total size of the packet on the wire, headers included.
    pub fn wire_bytes(&self) -> u32 {
        HEADER_BYTES + self.payload
    }

    /// Builder-style constructor for a data segment.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        flow: FlowId,
        subflow: u8,
        seq: u64,
        data_seq: u64,
        payload: u32,
        now: SimTime,
    ) -> Self {
        Packet {
            src,
            dst,
            src_port,
            dst_port,
            flow,
            subflow,
            kind: PacketKind::Data,
            seq,
            ack: 0,
            data_seq,
            data_ack: 0,
            payload,
            dup_hint: false,
            ecn: Ecn::NotCapable,
            ecn_echo: false,
            sent_at: now,
        }
    }

    /// Builder-style constructor for a pure ACK travelling back to the sender.
    #[allow(clippy::too_many_arguments)]
    pub fn ack(
        src: Addr,
        dst: Addr,
        src_port: u16,
        dst_port: u16,
        flow: FlowId,
        subflow: u8,
        ack: u64,
        data_ack: u64,
        now: SimTime,
    ) -> Self {
        Packet {
            src,
            dst,
            src_port,
            dst_port,
            flow,
            subflow,
            kind: PacketKind::Ack,
            seq: 0,
            ack,
            data_seq: 0,
            data_ack,
            payload: 0,
            dup_hint: false,
            ecn: Ecn::NotCapable,
            ecn_echo: false,
            sent_at: now,
        }
    }

    /// Reverse the direction of this packet's addressing (convenience for
    /// constructing replies in tests).
    pub fn reply_template(&self) -> Packet {
        let mut p = self.clone();
        core::mem::swap(&mut p.src, &mut p.dst);
        core::mem::swap(&mut p.src_port, &mut p.dst_port);
        p.payload = 0;
        p.kind = PacketKind::Ack;
        p
    }
}

/// A generational handle into a [`PacketArena`].
///
/// Events carry this 8-byte handle instead of the ~100-byte [`Packet`], so
/// calendar nodes stay small and packets are never copied while sitting in
/// the calendar. The generation counter catches use-after-take bugs: a stale
/// handle (its slot was reused) panics instead of silently reading another
/// packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    index: u32,
    generation: u32,
}

/// Slab arena of in-flight packets, indexed by [`PacketRef`].
///
/// Packets enter when a transmission is committed to the wire (the
/// `Delivery` event is scheduled) and leave when the delivery is dispatched;
/// freed slots are recycled through a free list, so steady-state simulation
/// does no allocation for packet transport.
#[derive(Debug, Default)]
pub struct PacketArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    packet: Option<Packet>,
}

impl PacketArena {
    /// Create an arena with room for `capacity` packets before growing.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
        }
    }

    /// Store `packet`, returning its handle.
    pub fn insert(&mut self, packet: Packet) -> PacketRef {
        match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.packet.is_none());
                slot.packet = Some(packet);
                PacketRef {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("packet arena full");
                self.slots.push(Slot {
                    generation: 0,
                    packet: Some(packet),
                });
                PacketRef {
                    index,
                    generation: 0,
                }
            }
        }
    }

    /// Remove and return the packet behind `handle`, freeing its slot.
    ///
    /// Panics if the handle is stale (already taken, or from another arena):
    /// that is always an engine bug, never a recoverable condition.
    pub fn take(&mut self, handle: PacketRef) -> Packet {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale PacketRef: slot reused since this handle was issued"
        );
        let packet = slot
            .packet
            .take()
            .expect("PacketRef taken twice (generation should have caught this)");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        packet
    }

    /// Read-only access to the packet behind `handle`, if it is still live.
    #[cfg(test)]
    fn get(&self, handle: PacketRef) -> Option<&Packet> {
        let slot = self.slots.get(handle.index as usize)?;
        if slot.generation != handle.generation {
            return None;
        }
        slot.packet.as_ref()
    }

    /// Number of packets currently stored.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Whether the arena holds no packets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        Packet::data(
            Addr(1),
            Addr(2),
            50_000,
            80,
            FlowId(9),
            0,
            1400,
            1400,
            1400,
            SimTime::from_millis(1),
        )
    }

    #[test]
    fn wire_size_includes_header() {
        let p = sample();
        assert_eq!(p.wire_bytes(), 1400 + HEADER_BYTES);
        let a = Packet::ack(
            Addr(2),
            Addr(1),
            80,
            50_000,
            FlowId(9),
            0,
            2800,
            2800,
            SimTime::ZERO,
        );
        assert_eq!(a.wire_bytes(), HEADER_BYTES);
    }

    #[test]
    fn reply_template_swaps_direction() {
        let p = sample();
        let r = p.reply_template();
        assert_eq!(r.src, p.dst);
        assert_eq!(r.dst, p.src);
        assert_eq!(r.src_port, p.dst_port);
        assert_eq!(r.dst_port, p.src_port);
        assert_eq!(r.payload, 0);
    }

    #[test]
    fn default_ecn_is_not_capable() {
        assert_eq!(Ecn::default(), Ecn::NotCapable);
    }

    #[test]
    fn arena_roundtrips_and_recycles_slots() {
        let mut arena = PacketArena::default();
        let a = arena.insert(sample());
        let mut second = sample();
        second.seq = 9_999;
        let b = arena.insert(second);
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.get(a).unwrap().seq, 1400);
        let taken = arena.take(b);
        assert_eq!(taken.seq, 9_999);
        assert_eq!(arena.len(), 1);
        // The freed slot is reused with a new generation.
        let c = arena.insert(sample());
        assert_eq!(arena.slots.len(), 2);
        assert_ne!(b, c);
        assert!(arena.get(b).is_none(), "stale handle must not resolve");
        assert!(arena.get(c).is_some());
        arena.take(a);
        arena.take(c);
        assert!(arena.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn arena_panics_on_stale_take() {
        let mut arena = PacketArena::default();
        let a = arena.insert(sample());
        arena.take(a);
        arena.insert(sample()); // reuses the slot, bumping the generation
        arena.take(a); // stale
    }
}
