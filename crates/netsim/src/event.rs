//! Simulation events and the calendar (event queue).
//!
//! The calendar is a hierarchical timing wheel indexed by *absolute* time
//! bits. Level `k` (of three) has 256 slots of 2^(8+8k) ns — 256 ns,
//! 65.5 µs and 16.8 ms wide, 4.29 s in all — and an event goes to the lowest
//! level whose higher time bits equal the active slot's (`t ^ cur`), so a
//! level only ever holds slots *after* the active one inside the same
//! parent slot: no ring arithmetic, and the next non-empty slot is a
//! `trailing_zeros` on the level's 256-bit occupancy map. When the wheel
//! reaches a higher-level slot it **cascades** it into the levels below.
//! The active slot is sorted once by `(time, seq)` when it is loaded and
//! popped by a cursor; an event scheduled into it (or before it — "late"
//! events are legal) appends when its key sorts last and otherwise waits in
//! a small side heap, `pop` taking the smaller of the two heads, so no burst
//! makes a slot quadratic. Only what lies beyond the top level (an RTO that
//! straddles a 4.29 s boundary or has backed off past that span) waits in
//! the overflow heap, and the wheel re-bases onto it when it runs dry. The
//! sequence number breaks ties between simultaneous events so processing is
//! FIFO and every run is bit-for-bit reproducible — the pop order is
//! *identical* to a plain binary-heap calendar (kept, under `cfg(test)`, as
//! the reference of this module's differential tests;
//! `benchmark/`'s `netsim.event.ns_per_op.*` kernels time the wheel).
//!
//! A key can also be **reserved**: the engine takes a sequence number at the
//! point in the schedule where an event belongs (`EventQueue::reserve`) and
//! inserts the event under it later, or never
//! (`EventQueue::schedule_reserved`). Such an event pops exactly where it
//! would have, had it been scheduled when its number was taken, so its key
//! can be older than keys scheduled after the reservation; every comparison
//! here is on the whole key, never on the time alone.
//!
//! Why no heap on the packet path: the hot loop of every experiment is
//! `schedule`/`pop` at hundreds of thousands of pending events (one per
//! packet on the wire plus one per armed RTO), and slots are not sparse —
//! the 189 000-mice benchmark workload puts 34 M events into 1.5 simulated
//! seconds, ≈ 6 per 256 ns slot (≈ 93 per slot of the 4 µs single-level
//! wheel this replaced, each sifted up and down an active-slot heap, with
//! every re-armed RTO pushed to and popped from a 393 k-entry overflow heap:
//! half the CPU time of that workload). Here an event costs a `Vec::push`
//! per level it passes through plus its share of one small sort.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::packet::PacketRef;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::mem;

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
    /// The transmitter of `link` finishes serialising the packet currently on
    /// the wire and may start on the next queued packet. On the calendar
    /// only when a packet is queued behind the transmission, under the key
    /// reserved when it started.
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

impl Scheduled {
    /// The pop order: earliest time first, FIFO among simultaneous events.
    /// `seq` is unique, so this is a total order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest key pops first.
        other.key().cmp(&self.key())
    }
}

/// log2 of the level-0 slot width in nanoseconds: 256 ns. Widths of 256 ns,
/// 1 µs and 4 µs time within run-to-run noise of each other on the benchmark
/// workloads (a wider slot sorts more, a narrower one turns more); this one
/// keeps a 200 ms minimum RTO inside the wheel through four back-offs.
const SLOT_BITS: u32 = 8;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Wheel levels; level `k`'s slots are `2^(SLOT_BITS + k * LEVEL_BITS)` ns
/// wide and a level spans one slot of the level above.
const LEVELS: usize = 3;
/// log2 of the whole wheel's span (4.29 s): events whose time differs from
/// the active slot's above this bit wait in the overflow heap.
const SPAN_BITS: u32 = level_shift(LEVELS);

/// log2 of the width of a level-`level` slot.
const fn level_shift(level: usize) -> u32 {
    SLOT_BITS + level as u32 * LEVEL_BITS
}

/// A mask of the low `bits` bits: the offsets inside a `2^bits` ns window.
const fn low_bits(bits: u32) -> u64 {
    (1 << bits) - 1
}

/// The level-`level` slot that time `t` (ns) falls in.
fn slot_of(t: u64, level: usize) -> usize {
    (t >> level_shift(level)) as usize % SLOTS
}

/// The simulator's calendar: a sorted active slot, three wheel levels and an
/// overflow heap for what lies beyond them.
#[derive(Debug)]
pub struct EventQueue {
    /// The active slot's events in `(time, seq)` order; `active[head..]` are
    /// still pending.
    active: Vec<Scheduled>,
    /// Cursor into `active`.
    head: usize,
    /// Events scheduled into the active slot (or before it) that did not
    /// sort after everything in `active`. Each is earlier than `active`'s
    /// last event, so this heap is empty by the time `active` is exhausted.
    late: BinaryHeap<Scheduled>,
    /// Absolute time (ns) at which the active slot starts. Every wheel event
    /// is later than the active slot and shares `cur`'s bits above its
    /// level, so level `k` is occupied only past `cur`'s own level-`k` slot.
    cur: u64,
    /// The wheel, `slots[level * SLOTS + slot]`, slot = the event time's
    /// `LEVEL_BITS` bits at `level_shift(level)`.
    slots: Vec<Vec<Scheduled>>,
    /// One bit per non-empty slot of each level.
    occupied: [[u64; SLOTS / 64]; LEVELS],
    /// Events beyond the wheel's top-level window.
    overflow: BinaryHeap<Scheduled>,
    /// Next FIFO tie-break sequence number, i.e. keys handed out so far
    /// (reserved ones included).
    next_seq: u64,
    /// Events the tiers hold ([`Self::tier_lens`] counts them one by one);
    /// a reserved key is not an event until it is scheduled.
    len: usize,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            active: Vec::new(),
            head: 0,
            late: BinaryHeap::new(),
            cur: 0,
            slots: vec![Vec::new(); LEVELS * SLOTS],
            occupied: [[0; SLOTS / 64]; LEVELS],
            overflow: BinaryHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }
}

impl EventQueue {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedule `event` at absolute time `at`.
    #[inline(always)]
    pub fn schedule(&mut self, at: SimTime, event: Event) {
        let seq = self.reserve();
        self.schedule_reserved(at, seq, event);
    }

    /// Take the next sequence number without scheduling anything: the key
    /// `(at, seq)` of an event that, if [`Self::schedule_reserved`] ever
    /// inserts it, pops as if it had been scheduled now.
    pub(crate) fn reserve(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// The sequence number [`Self::reserve`] hands out next: every key taken
    /// so far is below it.
    pub(crate) fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Schedule `event` under the key `(at, seq)`, `seq` taken by
    /// [`Self::reserve`] and not used before.
    ///
    /// Inlined so that the caller builds the entry where it is stored: an
    /// `Event` stored piecewise by the caller and reloaded whole here stalls
    /// the load on store forwarding, the hottest load of the packet path.
    #[inline(always)]
    pub(crate) fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: Event) {
        debug_assert!(seq < self.next_seq, "seq {seq} was never reserved");
        let s = Scheduled { at, seq, event };
        self.len += 1;
        if !self.in_active_slot(&s) {
            self.place_ahead(s);
        } else if self.head == self.active.len() {
            // Drained: restart the buffer, so a pop/schedule ping-pong
            // inside one slot does not grow it.
            self.active.clear();
            self.head = 0;
            self.active.push(s);
        } else if self.active[self.active.len() - 1].key() < s.key() {
            // Sorts last. The whole key, not the time alone: a reserved key
            // can be older than the last entry at the same instant.
            self.active.push(s);
        } else {
            self.late.push(s);
        }
    }

    /// Whether `s` falls in the active slot — or before it, which is
    /// tolerated: it pops before everything else.
    fn in_active_slot(&self, s: &Scheduled) -> bool {
        s.at.as_nanos() <= self.cur | low_bits(SLOT_BITS)
    }

    /// Store an event later than the active slot: in the lowest level whose
    /// higher time bits equal the active slot's, else in the overflow heap.
    #[inline(always)]
    fn place_ahead(&mut self, s: Scheduled) {
        let t = s.at.as_nanos();
        debug_assert!(t > self.cur | low_bits(SLOT_BITS));
        // The highest bit in which `t` differs from `cur` is at or above
        // `SLOT_BITS`; the level follows from how far above.
        let level = ((t ^ self.cur).ilog2() - SLOT_BITS) as usize / LEVEL_BITS as usize;
        if level >= LEVELS {
            self.overflow.push(s);
            return;
        }
        let slot = slot_of(t, level);
        let bucket = &mut self.slots[level * SLOTS + slot];
        // A level's slots fill evenly, so `Vec`'s doubling would leave the
        // same slack in all of them at once (half of 15 MB when a run
        // schedules 189 000 flow starts up front); grow by half instead.
        if bucket.len() == bucket.capacity() {
            bucket.reserve_exact((bucket.len() / 2).max(4));
        }
        bucket.push(s);
        self.occupied[level][slot / 64] |= 1 << (slot % 64);
    }

    /// The first non-empty slot of `level` after the active slot's own.
    fn next_occupied(&self, level: usize) -> Option<usize> {
        let from = slot_of(self.cur, level) + 1;
        let words = &self.occupied[level];
        let mut word = from / 64;
        let mut bits = *words.get(word)? & (!0 << (from % 64));
        while bits == 0 {
            word += 1;
            bits = *words.get(word)?;
        }
        Some(word * 64 + bits.trailing_zeros() as usize)
    }

    /// Turn the wheel to the next non-empty slot and load it into `active`,
    /// cascading higher-level slots down on the way and re-basing onto the
    /// overflow heap if the wheel is empty. Refuses (returns `false`) to turn
    /// to a slot that starts after `until`: everything scheduled later is
    /// placed relative to `cur`, which must not run ahead of the clock.
    fn turn(&mut self, until: u64) -> bool {
        debug_assert!(self.head == self.active.len() && self.late.is_empty());
        self.active.clear();
        self.head = 0;
        while self.active.is_empty() {
            let next = (0..LEVELS).find_map(|level| Some((level, self.next_occupied(level)?)));
            let Some((level, slot)) = next else {
                return self.rebase(until);
            };
            let shift = level_shift(level);
            let start = self.cur & !low_bits(shift + LEVEL_BITS) | (slot as u64) << shift;
            if start > until {
                return false;
            }
            self.cur = start;
            self.occupied[level][slot / 64] &= !(1 << (slot % 64));
            let bucket = &mut self.slots[level * SLOTS + slot];
            if level == 0 {
                // Level-0 buffers circulate, so steady-state churn there is
                // allocation-free.
                mem::swap(&mut self.active, bucket);
            } else {
                // A higher-level slot can hold every timer of the run:
                // release its buffer rather than keep 256 of that capacity.
                for s in mem::take(bucket) {
                    self.place_below(s);
                }
            }
        }
        self.active.sort_unstable_by_key(Scheduled::key);
        true
    }

    /// Re-place an event of a slot the wheel has just turned to (`cur` is
    /// that slot's start): into the not yet sorted active slot or a lower
    /// level.
    fn place_below(&mut self, s: Scheduled) {
        if self.in_active_slot(&s) {
            self.active.push(s);
        } else {
            self.place_ahead(s);
        }
    }

    /// The wheel is empty: re-base it at the overflow's earliest event and
    /// pull in everything inside the new top-level window. As in `turn`,
    /// not to a slot that starts after `until`.
    fn rebase(&mut self, until: u64) -> bool {
        let Some(first) = self.overflow.peek() else {
            return false;
        };
        let start = first.at.as_nanos() & !low_bits(SLOT_BITS);
        if start > until {
            return false;
        }
        self.cur = start;
        let end = start | low_bits(SPAN_BITS);
        while self.overflow.peek().is_some_and(|s| s.at.as_nanos() <= end) {
            let s = self.overflow.pop().expect("peeked");
            self.place_below(s);
        }
        // The heap popped in `(time, seq)` order: `active` is sorted.
        true
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, Event)> {
        let ((at, _), event) = self.pop_at_or_before(SimTime::MAX)?;
        Some((at, event))
    }

    /// Remove the earliest event if its time is at or before `until` and
    /// return it with its `(time, seq)` key; otherwise leave it pending and
    /// return `None`.
    ///
    /// This is the engine's windowed-run primitive: it locates the next event
    /// only once, and leaves the wheel at or before `until` when it refuses.
    pub(crate) fn pop_at_or_before(&mut self, until: SimTime) -> Option<((SimTime, u64), Event)> {
        // `late` empties before `active` does (see its field doc), so an
        // exhausted `active` is an exhausted slot.
        if self.head == self.active.len() && !self.turn(until.as_nanos()) {
            return None;
        }
        let first = self.active[self.head];
        let s = match self.late.peek() {
            Some(&l) if l.key() < first.key() => l,
            _ => first,
        };
        if s.at > until {
            return None;
        }
        if s.seq == first.seq {
            self.head += 1;
        } else {
            self.late.pop();
        }
        self.len -= 1;
        Some((s.key(), s.event))
    }

    /// Number of events currently pending (a reserved key is not one until
    /// it is scheduled).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending events by tier: the active slot (with its side heap), wheel
    /// levels 0, 1 and 2, and the overflow heap. Counted, not mirrored, so
    /// it cross-checks `len`.
    pub(crate) fn tier_lens(&self) -> [usize; LEVELS + 2] {
        let mut lens = [0; LEVELS + 2];
        lens[0] = self.active.len() - self.head + self.late.len();
        for (level, slots) in self.slots.chunks(SLOTS).enumerate() {
            lens[1 + level] = slots.iter().map(Vec::len).sum();
        }
        lens[LEVELS + 1] = self.overflow.len();
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    /// A plain binary-heap calendar: the reference the differential tests
    /// hold the wheel's pop order to. It takes each event's key as given.
    #[derive(Default)]
    struct BinaryHeapQueue {
        heap: BinaryHeap<Scheduled>,
    }

    impl BinaryHeapQueue {
        fn schedule(&mut self, at: SimTime, seq: u64, event: Event) {
            self.heap.push(Scheduled { at, seq, event });
        }

        fn pop_at_or_before(&mut self, until: SimTime) -> Option<((SimTime, u64), Event)> {
            if self.heap.peek()?.at > until {
                return None;
            }
            self.heap.pop().map(|s| (s.key(), s.event))
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

    fn flow_of(event: Event) -> u64 {
        match event {
            Event::FlowStart { flow, .. } => flow.0,
            other => panic!("not a flow start: {other:?}"),
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
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| flow_of(ev))
            .collect();
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
        // Beyond the 4.29 s wheel span: both land in overflow, in different
        // top-level windows, so the wheel re-bases twice.
        epoch_at(&mut q, 60_000);
        epoch_at(&mut q, 20_000);
        epoch_at(&mut q, 500);
        epoch_at(&mut q, 2);
        assert_eq!(q.tier_lens(), [0, 0, 1, 1, 2]);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_millis())).collect();
        assert_eq!(times, vec![2, 500, 20_000, 60_000]);
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
        q.schedule(t + SimDuration::from_nanos(1), flow_start(1));
        let (at0, _) = q.pop().unwrap();
        assert_eq!(at0, t);
        // Schedule another event at the same nanosecond as the next one.
        q.schedule(t + SimDuration::from_nanos(1), flow_start(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, ev)| flow_of(ev))
            .collect();
        assert_eq!(order, vec![1, 2]);
    }

    #[test]
    fn bounded_pop_leaves_out_of_window_events_pending() {
        let mut q = EventQueue::new();
        epoch_at(&mut q, 10);
        epoch_at(&mut q, 20_000); // overflow tier

        // Window before the first event: nothing pops, nothing is lost.
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(5)), None);
        assert_eq!(q.len(), 2);
        // Window covering the first event only.
        let ((t, _), _) = q.pop_at_or_before(SimTime::from_millis(10)).unwrap();
        assert_eq!(t, SimTime::from_millis(10));
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(19_999)), None);
        assert_eq!(q.len(), 1);
        // An unbounded pop still retrieves it.
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_millis(20_000));
        assert!(q.is_empty());
    }

    #[test]
    fn a_refused_pop_does_not_turn_the_wheel_past_the_window() {
        // The engine's clock stops at `until`, and what it schedules next is
        // placed relative to the active slot: had the refused pop turned the
        // wheel to the 50 ms event, the 1 ms one would count as late.
        let mut q = EventQueue::new();
        epoch_at(&mut q, 50);
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(1)), None);
        epoch_at(&mut q, 1);
        assert_eq!(q.tier_lens(), [0, 0, 1, 1, 0]);
        let times: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t.as_millis())).collect();
        assert_eq!(times, vec![1, 50]);
    }

    /// A random time at one of the distances the wheel treats differently:
    /// inside the active slot, inside each level's span, beyond the top
    /// level, on and just under a slot boundary of every level, before `now`
    /// ("late"), and `SimTime::MAX`.
    fn random_time(rng: &mut SimRng, now: u64) -> SimTime {
        let span = |rng: &mut SimRng, bits: u32| rng.range(0..1u64 << bits);
        let t = match rng.range(0u32..64) {
            0..=9 => now + span(rng, SLOT_BITS),
            10..=19 => now + rng.range(0u64..100_000),
            20..=27 => now + span(rng, level_shift(1)),
            28..=35 => now + span(rng, level_shift(2)),
            36..=43 => now + span(rng, SPAN_BITS),
            44..=47 => now.saturating_add(span(rng, SPAN_BITS + 2)),
            48..=57 => {
                // The first ns of a later slot of a random level (the top
                // level's "slot" being the whole wheel), or the ns before it.
                let shift = level_shift(rng.range(0usize..LEVELS + 1));
                let boundary = ((now >> shift) + rng.range(1u64..4)) << shift;
                boundary - rng.range(0u64..2)
            }
            58..=62 => {
                let level = rng.range(0usize..LEVELS);
                now.saturating_sub(span(rng, level_shift(level)))
            }
            _ => return SimTime::MAX,
        };
        // Half of them on a 64 ns grid, so that ties in time are common.
        SimTime::from_nanos(if rng.chance(0.5) { t & !63 } else { t })
    }

    /// Differential test: interleave random schedules and key reservations
    /// with bounded and unbounded pops, insert a random subset of the
    /// reserved keys later (in random order, from the current instant to
    /// beyond the top level; the rest never), and hold the wheel to the
    /// reference heap's exact `((time, seq), event)` stream, and its tiers to
    /// `len()`, after every operation.
    fn run_against_reference_heap(seed: u64, rounds: usize) {
        let mut rng = SimRng::new(seed);
        let mut wheel = EventQueue::new();
        let mut heap = BinaryHeapQueue::default();
        let mut now = 0u64;
        let mut next_flow = 0u64;
        let mut reserved = Vec::new();
        let check_len = |wheel: &EventQueue, heap: &BinaryHeapQueue| {
            assert_eq!(wheel.len(), heap.heap.len());
            assert_eq!(wheel.tier_lens().iter().sum::<usize>(), wheel.len());
        };
        // Schedule a fresh event at `at`, under a reserved seq if given.
        let mut schedule = |wheel: &mut EventQueue,
                            heap: &mut BinaryHeapQueue,
                            at: SimTime,
                            reserved: Option<u64>| {
            let event = flow_start(next_flow);
            next_flow += 1;
            let seq = match reserved {
                Some(seq) => {
                    wheel.schedule_reserved(at, seq, event);
                    seq
                }
                None => {
                    let seq = wheel.next_seq();
                    wheel.schedule(at, event);
                    seq
                }
            };
            heap.schedule(at, seq, event);
            check_len(wheel, heap);
        };
        for _round in 0..rounds {
            for _ in 0..rng.range(0usize..8) {
                if rng.chance(0.2) {
                    reserved.push(wheel.reserve());
                    check_len(&wheel, &heap);
                }
                let at = random_time(&mut rng, now);
                schedule(&mut wheel, &mut heap, at, None);
            }
            for _ in 0..rng.range(0usize..3) {
                if reserved.is_empty() {
                    break;
                }
                let seq = reserved.swap_remove(rng.range(0..reserved.len()));
                if rng.chance(0.1) {
                    continue; // never inserted
                }
                // Often at the current instant, behind younger keys.
                let at = if rng.chance(0.25) {
                    SimTime::from_nanos(now)
                } else {
                    random_time(&mut rng, now).max(SimTime::from_nanos(now))
                };
                schedule(&mut wheel, &mut heap, at, Some(seq));
            }
            for _ in 0..rng.range(0usize..6) {
                // Half the pops are windowed, many of the windows ending in
                // an empty stretch of the calendar.
                let until = if rng.chance(0.5) {
                    SimTime::MAX
                } else {
                    random_time(&mut rng, now)
                };
                let popped = wheel.pop_at_or_before(until);
                assert_eq!(
                    popped,
                    heap.pop_at_or_before(until),
                    "divergent pop (seed {seed})"
                );
                check_len(&wheel, &heap);
                match popped {
                    // Popping the `SimTime::MAX` event leaves the clock
                    // alone: everything scheduled afterwards is then late by
                    // the whole run — the far jump.
                    Some(((t, _), _)) if t != SimTime::MAX => now = now.max(t.as_nanos()),
                    Some(_) => {}
                    // A refused pop: like the engine, move the clock to the
                    // window's end and schedule just after it.
                    None if until != SimTime::MAX => {
                        now = now.max(until.as_nanos());
                        let at = SimTime::from_nanos(now + rng.range(0u64..3_000));
                        schedule(&mut wheel, &mut heap, at, None);
                    }
                    None => {}
                }
            }
        }
        loop {
            let popped = wheel.pop_at_or_before(SimTime::MAX);
            assert_eq!(
                popped,
                heap.pop_at_or_before(SimTime::MAX),
                "divergent drain (seed {seed})"
            );
            check_len(&wheel, &heap);
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn wheel_matches_reference_heap_on_random_schedules() {
        for seed in 0..20 {
            run_against_reference_heap(seed, 400);
        }
    }

    /// The long run CI makes outside tier-1:
    /// `cargo test --release -p netsim -- --ignored calendar`.
    #[test]
    #[ignore = "long: 2 000 seeds x 4 000 rounds"]
    fn calendar_matches_reference_heap_on_long_random_schedules() {
        for seed in 0..2_000 {
            run_against_reference_heap(1_000 + seed, 4_000);
        }
    }

    #[test]
    fn a_burst_at_one_instant_drains_fifo_in_linear_time() {
        // The worst case for an active slot that re-sorted or shifted on
        // insert: 200 000 simultaneous events, and one more scheduled into
        // the same instant after every pop.
        const BURST: u64 = 200_000;
        let t = SimTime::from_micros(3);
        let mut q = EventQueue::new();
        for i in 0..BURST {
            q.schedule(t, flow_start(i));
        }
        let started = std::time::Instant::now();
        for i in 0..2 * BURST {
            let (at, ev) = q.pop().expect("one in, one out until the burst is through");
            assert_eq!((at, flow_of(ev)), (t, i));
            if i < BURST {
                q.schedule(t, flow_start(BURST + i));
            }
        }
        assert!(q.is_empty());
        let elapsed = started.elapsed();
        assert!(elapsed.as_secs_f64() < 1.0, "drain took {elapsed:?}");
    }

    #[test]
    fn len_tracks_across_tiers() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(10), Event::FluidEpoch); // active slot
        q.schedule(SimTime::from_micros(10), Event::FluidEpoch); // level 0
        q.schedule(SimTime::from_millis(10), Event::FluidEpoch); // level 1
        q.schedule(SimTime::from_secs(1), Event::FluidEpoch); // level 2
        q.schedule(SimTime::from_secs(20), Event::FluidEpoch); // overflow
        assert_eq!(q.tier_lens(), [1; LEVELS + 2]);
        for left in (0..5).rev() {
            assert_eq!(q.len(), left + 1);
            q.pop();
            assert_eq!(q.tier_lens().iter().sum::<usize>(), left);
        }
        assert!(q.is_empty());
    }
}
