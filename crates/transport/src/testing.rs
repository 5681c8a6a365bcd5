//! The loopback harness the crate's sender tests (and `tests/conformance.rs`)
//! drive: one sender agent and the shared [`TransportReceiver`] wired back to
//! back through [`AgentCtx`], with no network in between.
//!
//! A *round* is one ideal round trip: everything the sender emitted is
//! delivered 100 µs later (minus what the drop predicate removes, with the
//! ECN-mark predicate's choices marked CE), the resulting ACKs reach the
//! sender another 100 µs later, then every due timer fires; an idle pipe
//! jumps the clock to the next timer deadline. Everything the sender does is
//! recorded — packets, armed timers, fluid-handoff requests, signals — so a
//! test can compare two senders event for event. The harness never drops a
//! sender that retires: it notes when that happened and keeps feeding it, so
//! a test can check that retiring was safe.

use crate::receiver::TransportReceiver;
use netsim::fluid::FluidHandoff;
use netsim::{
    Agent, AgentCtx, AgentEvent, Ecn, FlowId, Packet, Signal, SimDuration, SimRng, SimTime,
};

/// One-way delay of the ideal network.
const HOP: SimDuration = SimDuration::from_micros(100);

/// A sender and a receiver on an ideal network. All state is public: tests
/// inspect it and inject packets or events between rounds.
pub struct Loopback<A> {
    /// The sender under test.
    pub tx: A,
    /// Its receiver.
    pub rx: TransportReceiver,
    /// The flow both agents are registered under.
    pub flow: FlowId,
    /// RNG handed to both agents (packet scatter draws source ports from it).
    pub rng: SimRng,
    /// Armed timers that have not fired yet, `(deadline, token)`.
    pub timers: Vec<(SimTime, u64)>,
    /// Every signal either agent emitted, in order.
    pub signals: Vec<Signal>,
    /// Current time.
    pub now: SimTime,
    /// Sender packets awaiting delivery to the receiver.
    pub to_rx: Vec<Packet>,
    /// ACKs awaiting delivery to the sender.
    pub to_tx: Vec<Packet>,
    /// The hybrid engine's elephant threshold shown to the sender on every
    /// activation (`None`, the default, is the packet engine).
    pub fluid_threshold: Option<u64>,
    /// Every packet the sender emitted, with its emission time.
    pub sent: Vec<(SimTime, Packet)>,
    /// Every timer the sender armed, `(deadline, token)`, in arming order.
    pub armed: Vec<(SimTime, u64)>,
    /// Every fluid handoff the sender requested, with the request time.
    pub handoffs: Vec<(SimTime, FluidHandoff)>,
    /// Whether the sender has called [`AgentCtx::retire`].
    pub retired: bool,
    /// Packets, timers, handoffs and signals the sender produced in
    /// activations after the one in which it retired. A simulator would have
    /// dropped the agent by then, so anything but 0 is behaviour lost.
    pub produced_after_retiring: usize,
}

impl<A: Agent> Loopback<A> {
    /// Wire `tx` to a fresh receiver for `flow` at t = 1 ms.
    pub fn new(flow: FlowId, tx: A) -> Self {
        Loopback {
            tx,
            rx: TransportReceiver::new(flow),
            flow,
            rng: SimRng::new(5),
            timers: Vec::new(),
            signals: Vec::new(),
            now: SimTime::from_millis(1),
            to_rx: Vec::new(),
            to_tx: Vec::new(),
            fluid_threshold: None,
            sent: Vec::new(),
            armed: Vec::new(),
            handoffs: Vec::new(),
            retired: false,
            produced_after_retiring: 0,
        }
    }

    /// Has the sender signalled `FlowCompleted`?
    pub fn is_completed(&self) -> bool {
        self.signals
            .iter()
            .any(|s| matches!(s, Signal::FlowCompleted { .. }))
    }

    /// Hand one event to the sender at the current time, recording what it
    /// does and queueing its packets for the receiver.
    pub fn deliver(&mut self, event: AgentEvent) {
        self.act(|tx, ctx| tx.handle(ctx, event));
    }

    /// Let `f` act on the sender at the current time, with what
    /// [`Loopback::deliver`] records and queues.
    pub(crate) fn act(&mut self, f: impl FnOnce(&mut A, &mut AgentCtx<'_>)) {
        let mut out = Vec::new();
        let armed_from = self.timers.len();
        let (signals_from, handoffs_from) = (self.signals.len(), self.handoffs.len());
        let mut ctx = AgentCtx::new(
            self.now,
            self.flow,
            &mut self.rng,
            &mut out,
            &mut self.timers,
            &mut self.signals,
        );
        ctx.set_fluid_threshold(self.fluid_threshold);
        f(&mut self.tx, &mut ctx);
        let retires = ctx.retired();
        if let Some(handoff) = ctx.take_fluid_handoff() {
            self.handoffs.push((self.now, handoff));
        }
        if self.retired {
            self.produced_after_retiring += out.len()
                + (self.timers.len() - armed_from)
                + (self.signals.len() - signals_from)
                + (self.handoffs.len() - handoffs_from);
        }
        self.retired |= retires;
        self.armed.extend_from_slice(&self.timers[armed_from..]);
        self.sent.extend(out.iter().map(|p| (self.now, p.clone())));
        self.to_rx.extend(out);
    }

    /// Start the sender.
    pub fn start(&mut self) {
        self.deliver(AgentEvent::Start);
    }

    /// One round trip, dropping the sender packets `drop` selects.
    pub fn round(&mut self, drop: impl FnMut(&Packet) -> bool) {
        self.round_with(drop, |_| false);
    }

    /// One round trip: sender packets `drop` selects vanish, ECN-capable ones
    /// `mark` selects arrive marked Congestion Experienced.
    pub fn round_with(
        &mut self,
        mut drop: impl FnMut(&Packet) -> bool,
        mut mark: impl FnMut(&Packet) -> bool,
    ) {
        self.now += HOP;
        let mut acks = Vec::new();
        for mut pkt in std::mem::take(&mut self.to_rx) {
            if drop(&pkt) {
                continue;
            }
            if mark(&pkt) && pkt.ecn == Ecn::Capable {
                pkt.ecn = Ecn::CongestionExperienced;
            }
            let mut ctx = AgentCtx::new(
                self.now,
                self.flow,
                &mut self.rng,
                &mut acks,
                &mut self.timers,
                &mut self.signals,
            );
            self.rx.handle(&mut ctx, AgentEvent::Packet(pkt));
        }
        self.to_tx.extend(acks);
        self.now += HOP;
        for pkt in std::mem::take(&mut self.to_tx) {
            self.deliver(AgentEvent::Packet(pkt));
        }
        let now = self.now;
        let due: Vec<u64> = self
            .timers
            .iter()
            .filter(|(at, _)| *at <= now)
            .map(|&(_, token)| token)
            .collect();
        self.timers.retain(|(at, _)| *at > now);
        for token in due {
            self.deliver(AgentEvent::Timer(token));
        }
        if self.to_rx.is_empty() && self.to_tx.is_empty() && !self.is_completed() {
            if let Some(&(at, _)) = self.timers.iter().min_by_key(|(at, _)| *at) {
                self.now = at;
            }
        }
    }

    /// Start the sender and run rounds until it completes or `max_rounds`
    /// have passed.
    pub fn run(&mut self, max_rounds: usize, drop: impl FnMut(&Packet) -> bool) {
        self.run_with(max_rounds, drop, |_| false);
    }

    /// [`Loopback::run`] with an ECN-mark predicate as well.
    pub(crate) fn run_with(
        &mut self,
        max_rounds: usize,
        mut drop: impl FnMut(&Packet) -> bool,
        mut mark: impl FnMut(&Packet) -> bool,
    ) {
        self.start();
        for _ in 0..max_rounds {
            if self.is_completed() {
                break;
            }
            self.round_with(&mut drop, &mut mark);
        }
    }
}

/// One step of a scripted run: the loss-recovery table in `subflow.rs`
/// plays each of its rows as a list of these.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
pub(crate) enum Step {
    /// One round trip in which the sender packets the predicate selects
    /// vanish.
    Drop(fn(&Packet) -> bool),
    /// One round trip in which the sender packets the predicate selects are
    /// held back: they reach the receiver a round late, ahead of that
    /// round's own packets (reordering, or a delayed original).
    Delay(fn(&Packet) -> bool),
    /// One round trip in which every ECN-capable packet arrives marked.
    Mark,
    /// The timer with the earliest deadline fires then, stale or not.
    Expire,
}

#[cfg(test)]
impl<A: Agent> Loopback<A> {
    /// Apply one step of a script.
    pub(crate) fn play(&mut self, step: Step) {
        match step {
            Step::Drop(drop) => self.round(drop),
            Step::Delay(delay) => {
                let (mut held, busy) = (Vec::new(), self.now + HOP + HOP);
                self.round(|p| {
                    let hold = delay(p);
                    if hold {
                        held.push(p.clone());
                    }
                    hold
                });
                if !held.is_empty() {
                    // Still in flight, so the round did not leave the pipe
                    // idle: take back its jump to the next deadline.
                    self.now = busy;
                    self.to_rx.splice(0..0, held);
                }
            }
            Step::Mark => self.round_with(|_| false, |_| true),
            Step::Expire => {
                let first = (0..self.timers.len()).min_by_key(|&i| self.timers[i]);
                if let Some((at, token)) = first.map(|i| self.timers.remove(i)) {
                    self.now = self.now.max(at);
                    self.deliver(AgentEvent::Timer(token));
                }
            }
        }
    }
}

/// The fast retransmits and the retransmission timeouts `signals` report for
/// subflow `index`.
#[cfg(test)]
pub(crate) fn repairs(signals: &[Signal], index: u8) -> (usize, usize) {
    let (mut fast, mut rto) = (0, 0);
    for s in signals {
        match *s {
            Signal::FastRetransmit { subflow, .. } if subflow == index => fast += 1,
            Signal::RetransmissionTimeout { subflow, .. } if subflow == index => rto += 1,
            _ => {}
        }
    }
    (fast, rto)
}
