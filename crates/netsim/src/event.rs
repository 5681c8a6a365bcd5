//! Simulation events and the calendar (event queue).
//!
//! The calendar is a hierarchical timing wheel: events in the near future
//! land in fixed-width slots (O(1) schedule/advance), events inside the
//! active slot sit in a small binary heap that resolves exact `(time, seq)`
//! order, and events beyond the wheel horizon wait in an overflow heap that
//! is migrated into the wheel as it turns. The insertion sequence number
//! breaks ties between simultaneous events so processing is FIFO and every
//! run is bit-for-bit reproducible — the pop order is *identical* to the
//! plain binary-heap calendar it replaced (kept, under `cfg(test)`, as the
//! reference of this module's differential test; `benchmark/`'s
//! `netsim.event.ns_per_op.*` kernels time the wheel).
//!
//! Why a wheel: the hot loop of every experiment is `schedule`/`pop` at
//! hundreds of thousands of pending events (one per packet on the wire plus
//! one per armed RTO). A binary heap pays O(log n) per operation on a
//! working set too large for L2; the wheel pays O(1) for everything outside
//! the active ~4 µs slot, and the active slot rarely holds more than a
//! handful of events.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::packet::PacketRef;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A scheduled simulation event.
///
/// Kept deliberately small (the `Delivery` payload is an arena handle, not
/// the ~100-byte packet itself) so calendar nodes stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet finishes propagating over `link` and arrives at the link's
    /// destination node.
    Delivery {
        /// Link the packet travelled on.
        link: LinkId,
        /// Arena handle of the packet in flight (see
        /// [`crate::packet::PacketArena`]).
        packet: PacketRef,
    },
    /// The transmitter of `link` finishes serialising the packet (or
    /// back-to-back batch of packets) currently on the wire and may start on
    /// the next queued packet.
    TransmitComplete {
        /// The link whose transmitter became free.
        link: LinkId,
    },
    /// A transport-layer timer (e.g. an RTO) fires for agent `flow` on `node`.
    AgentTimer {
        /// Host the agent lives on.
        node: NodeId,
        /// The agent's flow id.
        flow: FlowId,
        /// Opaque token chosen by the agent when the timer was set.
        token: u64,
    },
    /// The application asks agent `flow` on `node` to start.
    FlowStart {
        /// Host the agent lives on.
        node: NodeId,
        /// The agent's flow id.
        flow: FlowId,
    },
    /// Recompute the fluid fast path's rate shares (see [`crate::fluid`]):
    /// advance fluid flows analytically, process completions and re-derive
    /// per-link max-min allocations. Scheduled by the simulator at flow
    /// handoffs/departures, packet drops on shared links, topology changes
    /// and the fluid refresh interval.
    FluidEpoch,
}

/// An event plus its scheduled time and FIFO tie-break sequence number.
#[derive(Debug, Clone, Copy)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first. `seq` is unique, so this is a total order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Width of one wheel slot in nanoseconds (power of two so the slot index is
/// a shift). 4096 ns ≈ the serialisation time of three MTU packets at
/// 1 Gbps, which keeps active-slot heaps small across the studied topologies.
const SLOT_NS: u64 = 1 << 12;
/// Number of slots (power of two). Horizon = `SLOT_NS * NUM_SLOTS` ≈ 8.4 ms,
/// comfortably beyond one RTT; only long RTO timers overflow.
const NUM_SLOTS: usize = 1 << 11;
/// The wheel's time span in nanoseconds.
const SPAN_NS: u64 = SLOT_NS * NUM_SLOTS as u64;

/// The simulator's calendar: timing wheel + active-slot heap + overflow heap.
#[derive(Debug)]
pub struct EventQueue {
    /// Events inside the active slot (and any "late" events scheduled at or
    /// before it), in exact `(time, seq)` order.
    current: BinaryHeap<Scheduled>,
    /// The wheel. `slots[cursor]` is the active slot and is always empty:
    /// events for the active window go straight into `current`.
    slots: Vec<Vec<Scheduled>>,
    /// Ring index of the active slot.
    cursor: usize,
    /// Absolute time (ns) at which the active slot starts.
    slot_start: u64,
    /// Events currently stored in wheel slots (excludes `current`).
    wheel_len: usize,
    /// Events at or beyond the wheel horizon.
    overflow: BinaryHeap<Scheduled>,
    /// Next FIFO tie-break sequence number (`len` is derived, never
    /// mirrored).
    next_seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            current: BinaryHeap::new(),
            slots: (0..NUM_SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            slot_start: 0,
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// The wheel horizon: events at or beyond this time go to the overflow
    /// heap.
    fn horizon(&self) -> u64 {
        self.slot_start.saturating_add(SPAN_NS)
    }

    /// Schedule `event` at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        self.place(s);
    }

    /// Put a scheduled event into the right tier.
    fn place(&mut self, s: Scheduled) {
        let t = s.at.as_nanos();
        if t < self.slot_start.saturating_add(SLOT_NS) {
            // Active slot (or earlier — tolerated; the heap orders it
            // correctly and it will pop before everything else).
            self.current.push(s);
        } else if t < self.horizon() {
            let idx = ((t - self.slot_start) / SLOT_NS) as usize;
            debug_assert!((1..NUM_SLOTS).contains(&idx));
            let ring = (self.cursor + idx) & (NUM_SLOTS - 1);
            self.slots[ring].push(s);
            self.wheel_len += 1;
        } else {
            self.overflow.push(s);
        }
    }

    /// Move overflow events that now fall inside the horizon into the wheel.
    fn migrate_overflow(&mut self) {
        let horizon = self.horizon();
        while let Some(s) = self.overflow.peek() {
            if s.at.as_nanos() >= horizon {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            self.place(s);
        }
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Remove and return the earliest event if its time is at or before
    /// `until`; otherwise leave it pending and return `None`.
    ///
    /// This is the engine's windowed-run primitive: it locates the next event
    /// only once (the wheel may turn to reach it, which is harmless —
    /// ordering depends only on event times, not on the cursor position).
    pub(crate) fn pop_at_or_before(&mut self, until: SimTime) -> Option<(SimTime, Event)> {
        loop {
            if let Some(s) = self.current.peek() {
                if s.at > until {
                    return None;
                }
                let s = self.current.pop().expect("peeked");
                return Some((s.at, s.event));
            }
            if self.wheel_len > 0 {
                // Find the next non-empty slot. Every wheel event precedes
                // every overflow event, so it is safe to turn the wheel to it
                // directly; overflow events uncovered by the moving horizon
                // land in strictly later slots.
                let step = (1..=NUM_SLOTS)
                    .find(|i| !self.slots[(self.cursor + i) & (NUM_SLOTS - 1)].is_empty())
                    .expect("wheel_len > 0 but all slots empty");
                self.cursor = (self.cursor + step) & (NUM_SLOTS - 1);
                self.slot_start += step as u64 * SLOT_NS;
                self.migrate_overflow();
                // Drain (rather than take) so each slot keeps its capacity
                // across wheel turns: steady-state churn stays allocation-free.
                let bucket = &mut self.slots[self.cursor];
                self.wheel_len -= bucket.len();
                for s in bucket.drain(..) {
                    self.current.push(s);
                }
                continue;
            }
            if let Some(first) = self.overflow.pop() {
                // The wheel (and `current`) are empty: re-base the wheel at
                // the overflow's earliest event and pull everything inside
                // the new horizon in.
                let t = first.at.as_nanos();
                self.slot_start = t - (t % SLOT_NS);
                self.current.push(first);
                self.migrate_overflow();
                continue;
            }
            return None;
        }
    }

    /// Number of events currently pending.
    pub fn len(&self) -> usize {
        self.current.len() + self.wheel_len + self.overflow.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;

    /// The plain binary-heap calendar the wheel replaced: the reference the
    /// differential test holds the wheel's pop order to.
    #[derive(Default)]
    struct BinaryHeapQueue {
        heap: BinaryHeap<Scheduled>,
        next_seq: u64,
    }

    impl BinaryHeapQueue {
        fn schedule(&mut self, at: SimTime, event: Event) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.heap.push(Scheduled { at, seq, event });
        }

        fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.heap.pop().map(|s| (s.at, s.event))
        }
    }

    fn epoch_at(q: &mut EventQueue, ms: u64) {
        q.schedule(SimTime::from_millis(ms), Event::FluidEpoch);
    }

    fn flow_start(flow: u64) -> Event {
        Event::FlowStart {
            node: NodeId(0),
            flow: FlowId(flow),
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        epoch_at(&mut q, 30);
        epoch_at(&mut q, 10);
        epoch_at(&mut q, 20);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_millis())).collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..10u64 {
            q.schedule(t, flow_start(i));
        }
        let mut order = Vec::new();
        while let Some((_, ev)) = q.pop() {
            if let Event::FlowStart { flow, .. } = ev {
                order.push(flow.0);
            }
        }
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        epoch_at(&mut q, 7);
        epoch_at(&mut q, 3);
        assert_eq!(q.len(), 2);
        // A bounded pop short of the earliest event is a peek: it says the
        // next event is later and removes nothing.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(2)), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let mut q = EventQueue::new();
        // Beyond the ~8.4 ms wheel span: lands in overflow.
        epoch_at(&mut q, 1_000);
        epoch_at(&mut q, 500);
        epoch_at(&mut q, 2);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_millis())).collect();
        assert_eq!(times, vec![2, 500, 1_000]);
        assert!(q.is_empty());
    }

    #[test]
    fn events_scheduled_while_draining_keep_order() {
        // An event scheduled at the exact time the calendar is currently
        // draining must pop after already-queued events at the same time
        // (FIFO) and before later ones.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(100);
        q.schedule(t, flow_start(0));
        q.schedule(t + crate::time::SimDuration::from_nanos(1), flow_start(1));
        let (at0, _) = q.pop().unwrap();
        assert_eq!(at0, t);
        // Schedule another event at the same nanosecond as the next one.
        q.schedule(t + crate::time::SimDuration::from_nanos(1), flow_start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| match ev {
                Event::FlowStart { flow, .. } => flow.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn bounded_pop_leaves_out_of_window_events_pending() {
        let mut q = EventQueue::new();
        epoch_at(&mut q, 10);
        epoch_at(&mut q, 500); // overflow tier

        // Window before the first event: nothing pops, nothing is lost.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 2);
        // Window covering the first event only.
        let (t, _) = q.pop_at_or_before(SimTime::from_millis(10)).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(499)), None);
        assert_eq!(q.len(), 1);
        // An unbounded pop still retrieves it.
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(500));
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_matches_reference_heap_on_random_schedules() {
        // Differential test: interleave random schedule/pop operations and
        // assert both calendars produce the identical (time, event) stream.
        for seed in 0..20u64 {
            let mut rng = SimRng::new(seed);
            let mut wheel = EventQueue::new();
            let mut heap = BinaryHeapQueue::default();
            let mut now = 0u64;
            let mut next_flow = 0u64;
            for _round in 0..400 {
                // Burst of schedules at a mix of horizons relative to "now":
                // same-slot, near, in-wheel, and far-overflow times.
                for _ in 0..rng.range(0usize..8) {
                    let dt = match rng.range(0u32..4) {
                        0 => rng.range(0u64..SLOT_NS),
                        1 => rng.range(0u64..100_000),
                        2 => rng.range(0u64..SPAN_NS),
                        _ => rng.range(0u64..10 * SPAN_NS),
                    };
                    let at = SimTime::from_nanos(now + dt);
                    let ev = flow_start(next_flow);
                    next_flow += 1;
                    wheel.schedule(at, ev);
                    heap.schedule(at, ev);
                }
                assert_eq!(wheel.len(), heap.heap.len());
                // Drain a few.
                for _ in 0..rng.range(0usize..6) {
                    let a = wheel.pop();
                    let b = heap.pop();
                    assert_eq!(a, b, "divergent pop (seed {seed})");
                    if let Some((t, _)) = a {
                        now = now.max(t.as_nanos());
                    }
                }
            }
            // Full drain must agree too.
            loop {
                let a = wheel.pop();
                let b = heap.pop();
                assert_eq!(a, b, "divergent drain (seed {seed})");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn len_tracks_across_tiers() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), Event::FluidEpoch); // current
        q.schedule(SimTime::from_micros(100), Event::FluidEpoch); // wheel
        q.schedule(SimTime::from_secs(1), Event::FluidEpoch); // overflow
        assert_eq!(q.len(), 3);
        q.pop();
        assert_eq!(q.len(), 2);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }
}
