//! Flow-level fluid fast path for elephant flows.
//!
//! Long bulk transfers dominate the event count of packet-level simulation:
//! a 100 MB flow is tens of thousands of delivery/ACK events that mostly
//! ack-clock a steady congestion window. The fluid engine removes that cost
//! by modelling *fluid-mode* flows as rates instead of packets: a
//! [`FluidEngine`] computes per-link max-min fair shares for every fluid
//! flow (progressive water-filling, each flow additionally capped by a
//! pacing rate derived from its transport's cwnd/RTT at handoff) and
//! advances delivered bytes analytically between *epochs*. Mice, handshakes
//! and all control traffic stay packet-level.
//!
//! ## Epochs
//!
//! Rates only change at epochs, so between epochs delivered bytes are a
//! closed-form `rate × Δt`. An epoch is scheduled when
//!
//! * a flow is handed off to fluid mode (arrival),
//! * a fluid flow finishes (departure),
//! * a packet-mode drop happens on a link carried by a fluid flow
//!   (congestion feedback: the affected flows' rate caps are halved,
//!   Reno-style),
//! * the topology changes (link failure/repair — paths are re-walked), or
//! * a refresh interval expires (rate caps grow additively between losses,
//!   approximating congestion avoidance, so shares must be recomputed
//!   periodically even in the absence of discrete events).
//!
//! An epoch redoes only the work whose inputs changed. A flow's path is
//! walked when the flow is accepted and re-walked only at the first epoch
//! after a topology change: routing is a pure function of the switches'
//! tables, which nothing but a caller mutates, and
//! `Simulator::notify_topology_changed` is that caller's promise to say so.
//! Link membership is rebuilt only when a flow arrived, a flow departed or
//! paths were re-walked. Under `debug_assertions` every epoch checks both
//! caches against a fresh walk and recount, so a routing mutation nobody
//! announced fails loudly instead of running stale paths.
//!
//! ## Sharing capacity with the packet world
//!
//! Each link's fluid capacity is its configured rate minus an EWMA of the
//! packet-level bytes it recently carried (floored at 10 % of the rate so
//! fluid flows always make progress). In the other direction, the sum of
//! fluid rates allocated on a link is installed as a *reservation*
//! (`Link::set_fluid_reservation`) that shrinks the
//! serialisation rate packet-mode traffic sees, so the two worlds contend
//! for the same capacity rather than both seeing the full link.
//!
//! ## Determinism (rule #7)
//!
//! Every epoch recomputation iterates flows in `FlowId` order and links in
//! `LinkId` order (or in a flow's path order), and no wall clock or hash
//! order is consulted anywhere. Flows live in a vector sorted by `FlowId`;
//! per-link state lives in an array indexed by `LinkId::index()` — link ids
//! are dense — with a sorted list of the links in use standing in for
//! key-order iteration. Arrival order never leaks into a result: epoch
//! recomputation is a pure function of the seed-determined event sequence,
//! so hybrid runs are bit-for-bit reproducible like packet runs. Skipping
//! unchanged work keeps that: a cached path or membership count is exactly
//! what the re-walk or rebuild would produce.
//!
//! The per-link array and the water-filling scratch are owned by the engine
//! and reused from epoch to epoch. Epochs are frequent — most are triggered
//! by packet drops, not by the refresh interval, thousands per run of a few
//! dozen elephants — so a steady-state epoch allocates nothing beyond its
//! [`EpochOutcome`]. The array is sized from the network at the first
//! `accept`: a packet-only simulator allocates nothing.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::network::Network;
use crate::packet::Packet;
use crate::signal::Signal;
use crate::time::{SimDuration, SimTime};

/// Shares must be recomputed at least this often while fluid flows are
/// active: rate caps grow additively (congestion avoidance) and the packet
/// traffic EWMA decays, so a stale allocation drifts from fair.
pub const FLUID_REFRESH: SimDuration = SimDuration::from_millis(2);

/// Fraction of a link's rate fluid flows can never take (the packet world
/// always keeps at least this much), and symmetrically the floor of the
/// fluid capacity on a fully packet-busy link.
const RESERVE_HEADROOM: f64 = 0.10;

/// Which congestion controller's growth/backoff rules a fluid flow's pacing
/// cap follows between epochs — the flow-level approximation of the
/// transport's `CongestionController` (netsim cannot depend on the transport
/// crate, so the axis is mirrored here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FluidCc {
    /// AIMD: halve the cap on a shared-link drop, grow one MSS per RTT
    /// otherwise. The pre-refactor behaviour, pinned by the goldens.
    #[default]
    Reno,
    /// CUBIC: 0.7 backoff on drop, then cubic cap growth
    /// `W(t) = C·(t−K)³ + W_max` translated to rate space via the base RTT.
    Cubic,
    /// BBR: gentle 0.7 backoff on drop (loss is not the primary signal),
    /// multiplicative probing between drops — the 1.25× probe phase
    /// amortised over the 8-phase gain cycle.
    Bbr,
}

/// A transport's request to move the rest of a flow into fluid mode,
/// produced via [`crate::agent::AgentCtx::request_fluid_handoff`].
#[derive(Debug, Clone)]
pub struct FluidHandoff {
    /// A representative *data* packet for the remainder of the transfer:
    /// its addresses/ports drive the path walk (ECMP hashes), and its
    /// `data_seq` lets size-aware switch policies (DiffFlow) pin it like
    /// the real elephant packets they stand for.
    pub template: Packet,
    /// Bytes still to deliver in fluid mode (total minus bytes already sent
    /// at packet level; in-flight packets drain normally in parallel).
    pub remaining: u64,
    /// Connection-level bytes already handled at packet level when the
    /// handoff happened; progress reports add fluid-delivered bytes on top.
    pub base_bytes: u64,
    /// Initial pacing-rate cap in bits/s, derived from the transport's
    /// cwnd/RTT (see [`pacing_rate_bps`]) so congestion-control behaviour
    /// is approximated rather than bypassed.
    pub rate_cap_bps: u64,
    /// Base (minimum observed) RTT at handoff; drives the additive cap
    /// growth between drop epochs. Transports pass min-RTT rather than
    /// smoothed RTT: srtt is queue-inflated when elephants hand off, and
    /// a frozen inflated value would throttle additive increase for the
    /// rest of the flow's life — a distortion packet mode escapes through
    /// ack clocking as the queue drains, but a fluid model cannot.
    pub srtt: SimDuration,
    /// The transport's segment size (additive growth is one MSS per RTT).
    pub mss: u32,
    /// The congestion-control rule set the cap follows between epochs.
    pub cc: FluidCc,
}

/// Translate a congestion window and smoothed RTT into a pacing rate in
/// bits per second — the rate cap a fluid flow starts from at handoff.
pub fn pacing_rate_bps(cwnd_bytes: f64, srtt: SimDuration) -> u64 {
    let srtt_s = srtt.as_secs_f64().max(1e-6);
    ((cwnd_bytes * 8.0) / srtt_s) as u64
}

/// A flow completion discovered by an epoch: the engine's caller dispatches
/// [`crate::agent::AgentEvent::FluidComplete`] to the owning agent, which
/// emits the `FlowCompleted` signal itself (keeping signal emission with the
/// transport, exactly as in packet mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FluidCompletion {
    /// Host the sending agent lives on.
    pub node: NodeId,
    /// The completed flow.
    pub flow: FlowId,
    /// Bytes the fluid engine delivered for this flow (its `remaining` at
    /// handoff).
    pub bytes: u64,
}

/// Result of one epoch recomputation.
#[derive(Debug, Default)]
pub struct EpochOutcome {
    /// Flows that finished their fluid remainder during this epoch.
    pub completions: Vec<FluidCompletion>,
    /// When the next epoch must run (earliest projected completion or the
    /// refresh interval), or `None` when no fluid flows remain.
    pub next_epoch: Option<SimTime>,
}

/// Per-flow fluid state.
#[derive(Debug, Clone)]
struct FluidFlow {
    id: FlowId,
    node: NodeId,
    template: Packet,
    /// The links the flow crosses: walked at `accept` and re-walked at the
    /// first epoch after a topology change.
    path: Vec<LinkId>,
    remaining: u64,
    delivered: u64,
    base_bytes: u64,
    /// Pacing cap (congestion-control approximation), adjusted at epochs.
    cap_bps: f64,
    /// Currently allocated max-min share.
    rate_bps: u64,
    srtt: SimDuration,
    mss: u32,
    last_advance: SimTime,
    /// Cap dynamics rule set (mirrors the transport's controller).
    cc: FluidCc,
    /// CUBIC state: cap (bps) at the last backoff.
    cc_wmax_bps: f64,
    /// CUBIC state: seconds elapsed in the current growth epoch.
    cc_epoch_s: f64,
}

impl FluidFlow {
    /// Floor for the pacing cap: one MSS per RTT, i.e. the slowest a live
    /// TCP connection would pace itself.
    fn min_cap_bps(&self) -> f64 {
        let srtt_s = self.srtt.as_secs_f64().max(1e-6);
        (self.mss as f64 * 8.0) / srtt_s
    }
}

/// Per-link view of recent packet-level traffic, used to size the fluid
/// capacity left over on a shared link.
#[derive(Debug, Clone, Copy)]
struct LinkLoad {
    last_tx_bytes: u64,
    last_sample: SimTime,
    ewma_bps: f64,
}

impl LinkLoad {
    /// The capacity fluid flows may share on a link of `rate` bits/s: what
    /// the packet traffic leaves, floored at the headroom.
    fn fluid_capacity(&self, rate: f64) -> f64 {
        (rate - self.ewma_bps).max(rate * RESERVE_HEADROOM)
    }
}

/// Per-link engine state: one slot per link of the network, indexed by
/// `LinkId::index()`.
#[derive(Debug, Clone, Default)]
struct LinkSlot {
    /// Fluid flows crossing the link. Rebuilt at an epoch when membership
    /// changed; `accept` adds the new flow's links in between.
    users: u32,
    /// A packet-mode drop happened here since the last epoch.
    dropped: bool,
    /// Packet-traffic sampler. `None` while no fluid flow crosses the link,
    /// so a link that leaves the used set and returns starts from scratch.
    load: Option<LinkLoad>,
    /// Water-filling: fluid capacity not yet handed to a frozen flow.
    remaining: f64,
    /// Water-filling: flows crossing the link whose share is still open.
    active_on: u32,
    /// Water-filling: `remaining / active_on`, or infinite while no share
    /// is open — derived whenever either operand changes.
    share: f64,
    /// Sum of the rates allocated on the link: the reservation to install.
    link_sum: f64,
}

impl LinkSlot {
    /// Re-derive `share` after `remaining` or `active_on` changed. An
    /// infinite share leaves every `min` it enters unchanged, exactly as
    /// skipping the link would.
    fn derive_share(&mut self) {
        self.share = if self.active_on > 0 {
            self.remaining / self.active_on as f64
        } else {
            f64::INFINITY
        };
    }
}

/// The fluid-flow rate solver. Owned by the simulator; all mutation happens
/// through the epoch entry points so state stays consistent with the event
/// calendar.
#[derive(Debug, Default)]
pub struct FluidEngine {
    /// Resident flows, sorted by `FlowId`.
    flows: Vec<FluidFlow>,
    /// Per-link state, grown to the network's link count on `accept`/`epoch`.
    links: Vec<LinkSlot>,
    /// The links with `users > 0`: in `LinkId` order after an epoch, with
    /// the links `accept` newly touched appended until the next one.
    used: Vec<LinkId>,
    /// Routing changed since paths were last walked: the next epoch
    /// re-walks every path.
    paths_stale: bool,
    /// A flow arrived or departed, or paths were re-walked, since `users`
    /// and `used` were last rebuilt.
    membership_stale: bool,
    /// Scratch: the previous epoch's `used`.
    prev_used: Vec<LinkId>,
    /// Scratch: the path being re-walked.
    path_buf: Vec<LinkId>,
    /// Scratch: water-filling's unfrozen flows (see [`water_fill`]).
    active: Vec<(u32, f64)>,
    /// Scratch: the allocated rate of each flow, by position in `flows`.
    alloc: Vec<f64>,
    delivered_bytes: u64,
}

impl FluidEngine {
    /// Create an empty engine.
    pub fn new() -> Self {
        FluidEngine::default()
    }

    /// Number of flows currently in fluid mode.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether any flow is in fluid mode.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Total bytes delivered analytically across all fluid flows so far —
    /// the new term of the experiment-level conservation ledger.
    pub(crate) fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes
    }

    /// Where `flow` sits in `flows`, or where it would be inserted.
    fn position(&self, flow: FlowId) -> Result<usize, usize> {
        self.flows.binary_search_by_key(&flow, |f| f.id)
    }

    /// The currently allocated rate of a fluid flow, if it is one.
    #[cfg(test)]
    pub(crate) fn flow_rate_bps(&self, flow: FlowId) -> Option<u64> {
        self.position(flow).ok().map(|i| self.flows[i].rate_bps)
    }

    /// The path of the fluid flow `flow`.
    #[cfg(test)]
    fn path(&self, flow: FlowId) -> &[LinkId] {
        let i = self.position(flow).expect("a fluid flow");
        &self.flows[i].path
    }

    /// Routing changed (a link failed or was repaired, a route was
    /// rewritten): the next epoch re-walks every path.
    pub(crate) fn topology_changed(&mut self) {
        self.paths_stale = true;
    }

    /// Does any fluid flow currently cross `link`?
    #[cfg(test)]
    pub(crate) fn uses_link(&self, link: LinkId) -> bool {
        self.links.get(link.index()).is_some_and(|s| s.users > 0)
    }

    /// Record a packet-mode drop on `link`. Returns `true` (and marks the
    /// link for Reno-style cap halving at the next epoch) if a fluid flow
    /// shares it — the caller then schedules an immediate epoch.
    pub(crate) fn note_drop(&mut self, link: LinkId) -> bool {
        match self.links.get_mut(link.index()) {
            Some(slot) if slot.users > 0 => {
                slot.dropped = true;
                true
            }
            _ => false,
        }
    }

    /// Give every link of `network` a slot. Paths are only ever walked after
    /// this, so every `LinkId` on a path indexes `links`.
    fn size_links(&mut self, network: &Network) {
        if self.links.len() < network.link_count() {
            self.links.resize(network.link_count(), LinkSlot::default());
        }
    }

    /// Accept a transport's handoff: walk the flow's stable path through
    /// the current topology and start fluid accounting at `now`. The caller
    /// must schedule an epoch at `now` so the new flow gets a rate.
    pub fn accept(&mut self, now: SimTime, node: NodeId, handoff: FluidHandoff, network: &Network) {
        self.size_links(network);
        let flow = handoff.template.flow;
        let mut path = Vec::new();
        walk_path(network, node, &handoff.template, &mut path);
        let srtt = handoff.srtt;
        let f = FluidFlow {
            id: flow,
            node,
            template: handoff.template,
            path,
            remaining: handoff.remaining,
            delivered: 0,
            base_bytes: handoff.base_bytes,
            cap_bps: (handoff.rate_cap_bps as f64).max(1.0),
            rate_bps: 0,
            srtt: if srtt.is_zero() {
                SimDuration::from_micros(100)
            } else {
                srtt
            },
            mss: handoff.mss.max(1),
            last_advance: now,
            cc: handoff.cc,
            cc_wmax_bps: (handoff.rate_cap_bps as f64).max(1.0),
            cc_epoch_s: 0.0,
        };
        add_users(&mut self.links, &mut self.used, &f.path);
        self.membership_stale = true;
        match self.position(flow) {
            Ok(i) => self.flows[i] = f,
            Err(i) => self.flows.insert(i, f),
        }
    }

    /// Run one epoch at `now`: advance delivered bytes under the old rates,
    /// collect completions, apply congestion feedback to the rate caps,
    /// re-walk paths if the topology changed since the last epoch, recompute
    /// max-min fair shares and install the matching link reservations.
    pub fn epoch(&mut self, now: SimTime, network: &mut Network) -> EpochOutcome {
        let mut out = EpochOutcome::default();
        self.size_links(network);

        // 1. Advance everyone to `now` under the rates set at the previous
        //    epoch, and adjust the pacing caps: halve on paths that saw a
        //    packet drop (Reno), otherwise grow by one MSS per RTT
        //    (congestion avoidance).
        let links = &self.links;
        let mut delivered_delta = 0u64;
        for f in &mut self.flows {
            let dt = now.duration_since(f.last_advance);
            if !dt.is_zero() {
                if f.rate_bps > 0 {
                    let bytes =
                        (f.rate_bps as u128 * dt.as_nanos() as u128 / 8_000_000_000u128) as u64;
                    let bytes = bytes.min(f.remaining - f.delivered);
                    f.delivered += bytes;
                    delivered_delta += bytes;
                }
                let hit = f.path.iter().any(|l| links[l.index()].dropped);
                match f.cc {
                    FluidCc::Reno => {
                        if hit {
                            f.cap_bps = (f.cap_bps / 2.0).max(f.min_cap_bps());
                        } else {
                            // d(rate)/dt of one-MSS-per-RTT additive increase.
                            let srtt_s = f.srtt.as_secs_f64().max(1e-6);
                            f.cap_bps += 8.0 * f.mss as f64 * dt.as_secs_f64() / (srtt_s * srtt_s);
                        }
                    }
                    FluidCc::Cubic => {
                        if hit {
                            f.cc_wmax_bps = f.cap_bps;
                            f.cap_bps = (f.cap_bps * 0.7).max(f.min_cap_bps());
                            f.cc_epoch_s = 0.0;
                        } else {
                            // RFC 8312's W(t) = C·(t−K)³ + W_max, windows in
                            // bytes converted to rates via the base RTT.
                            f.cc_epoch_s += dt.as_secs_f64();
                            let srtt_s = f.srtt.as_secs_f64().max(1e-6);
                            let c_bytes = 0.4 * f.mss as f64;
                            let wmax_bytes = f.cc_wmax_bps * srtt_s / 8.0;
                            let k = (wmax_bytes * 0.3 / c_bytes).cbrt();
                            let w = c_bytes * (f.cc_epoch_s - k).powi(3) + wmax_bytes;
                            f.cap_bps = (w * 8.0 / srtt_s).max(f.min_cap_bps());
                        }
                    }
                    FluidCc::Bbr => {
                        if hit {
                            f.cap_bps = (f.cap_bps * 0.7).max(f.min_cap_bps());
                        } else {
                            // The 1.25× probe phase, amortised over the
                            // 8-phase gain cycle (one phase per RTT).
                            let srtt_s = f.srtt.as_secs_f64().max(1e-6);
                            let gain = 1.0 + 0.25 * (dt.as_secs_f64() / (8.0 * srtt_s)).min(1.0);
                            f.cap_bps *= gain;
                        }
                    }
                }
                f.last_advance = now;
            }
        }
        self.delivered_bytes += delivered_delta;

        // 2. Completions: fluid remainder fully delivered (`retain` visits
        //    in `FlowId` order).
        let resident = self.flows.len();
        self.flows.retain(|f| {
            let done = f.delivered >= f.remaining;
            if done {
                out.completions.push(FluidCompletion {
                    node: f.node,
                    flow: f.id,
                    bytes: f.remaining,
                });
            }
            !done
        });
        self.membership_stale |= self.flows.len() < resident;

        // 3. After a topology change, re-walk every path: link failures (or
        //    repairs) re-route flows exactly like the stateless re-pin the
        //    packet engine performs.
        if self.paths_stale {
            for f in &mut self.flows {
                walk_path(network, f.node, &f.template, &mut self.path_buf);
                if !self.path_buf.is_empty() {
                    std::mem::swap(&mut f.path, &mut self.path_buf);
                }
            }
            self.paths_stale = false;
            self.membership_stale = true;
        } else if cfg!(debug_assertions) {
            for f in &self.flows {
                walk_path(network, f.node, &f.template, &mut self.path_buf);
                assert!(
                    self.path_buf.is_empty() || self.path_buf == f.path,
                    "fluid flow {:?} runs a stale path: routing changed without \
                     Simulator::notify_topology_changed",
                    f.id
                );
            }
        }

        // 4. After an arrival, a departure or a re-walk, rebuild link
        //    membership. A link that left the used set forgets its EWMA and
        //    loses its reservation.
        if self.membership_stale {
            std::mem::swap(&mut self.used, &mut self.prev_used);
            self.used.clear();
            for &link in &self.prev_used {
                let slot = &mut self.links[link.index()];
                slot.users = 0;
                slot.dropped = false;
            }
            for f in &self.flows {
                add_users(&mut self.links, &mut self.used, &f.path);
            }
            self.used.sort_unstable();
            for &link in &self.prev_used {
                let slot = &mut self.links[link.index()];
                if slot.users == 0 {
                    slot.load = None;
                    network.link_mut(link).set_fluid_reservation(0);
                }
            }
            self.membership_stale = false;
        }
        // The drop marks are spent; refresh the packet-traffic EWMAs for
        // links in use.
        for &link in &self.used {
            let stats = network.link(link).stats();
            let rate = network.link(link).config.rate_bps as f64;
            let slot = &mut self.links[link.index()];
            slot.dropped = false;
            let load = slot.load.get_or_insert(LinkLoad {
                last_tx_bytes: stats.tx_bytes,
                last_sample: now,
                ewma_bps: 0.0,
            });
            let dt = now.duration_since(load.last_sample);
            if !dt.is_zero() {
                let delta = stats.tx_bytes.saturating_sub(load.last_tx_bytes);
                let inst = delta as f64 * 8e9 / dt.as_nanos() as f64;
                load.ewma_bps = 0.5 * load.ewma_bps + 0.5 * inst;
                load.last_tx_bytes = stats.tx_bytes;
                load.last_sample = now;
            }
            slot.remaining = load.fluid_capacity(rate);
            slot.active_on = slot.users;
            slot.link_sum = 0.0;
        }

        // 5. Max-min fair shares with per-flow caps (progressive filling)
        //    over flow positions in `FlowId` order.
        water_fill(
            &self.flows,
            &mut self.links,
            &mut self.active,
            &mut self.alloc,
        );

        // 6. Install reservations: packet traffic on a shared link now
        //    serialises at `rate - reservation`.
        for (f, &rate) in self.flows.iter_mut().zip(&self.alloc) {
            f.rate_bps = rate.max(1.0) as u64;
            for l in &f.path {
                self.links[l.index()].link_sum += rate;
            }
        }
        for &link in &self.used {
            let rate = network.link(link).config.rate_bps as f64;
            let sum = self.links[link.index()].link_sum;
            let reservation = sum.min(rate * (1.0 - RESERVE_HEADROOM)) as u64;
            network.link_mut(link).set_fluid_reservation(reservation);
        }
        if cfg!(debug_assertions) {
            self.assert_links_consistent(network);
        }

        // 7. Next epoch: earliest projected completion, bounded by the
        //    refresh interval. Keeping an epoch scheduled while flows are
        //    active also guarantees the calendar never runs dry under a
        //    live fluid flow.
        if !self.flows.is_empty() {
            let mut next = now + FLUID_REFRESH;
            for f in &self.flows {
                let left = f.remaining - f.delivered;
                if f.rate_bps > 0 {
                    // Round *up*: rounding down would produce an epoch at
                    // which `rate × Δt` truncates to less than `left`, and
                    // the final byte would respin epochs every 8e9/rate ns
                    // forever instead of completing.
                    let ns = (left as u128 * 8_000_000_000u128).div_ceil(f.rate_bps as u128) as u64;
                    next = next.min(now + SimDuration::from_nanos(ns.max(1)));
                }
            }
            out.next_epoch = Some(next);
        }
        out
    }

    /// End-of-run settlement: advance everyone to `now` one last time.
    /// Flows that finished are returned as completions (the caller
    /// dispatches `FluidComplete` so the transport emits `FlowCompleted`);
    /// unfinished flows get a `FlowProgress` signal with their cumulative
    /// (packet base + fluid) bytes, which their receivers' reports of the
    /// packet part cannot exceed.
    pub fn finalize(
        &mut self,
        now: SimTime,
        network: &mut Network,
    ) -> (Vec<FluidCompletion>, Vec<Signal>) {
        let out = self.epoch(now, network);
        let mut progress = Vec::new();
        for f in &self.flows {
            progress.push(Signal::FlowProgress {
                flow: f.id,
                at: now,
                bytes: f.base_bytes + f.delivered,
            });
        }
        (out.completions, progress)
    }

    /// The epoch's invariants over the links, checked under
    /// `debug_assertions`: every link's cached `users` equals the count the
    /// paths give, and no used link is allocated more than its fluid
    /// capacity beyond water-filling's freeze tolerance.
    fn assert_links_consistent(&self, network: &Network) {
        let mut users = vec![0u32; self.links.len()];
        for l in self.flows.iter().flat_map(|f| &f.path) {
            users[l.index()] += 1;
        }
        for (i, (slot, &n)) in self.links.iter().zip(&users).enumerate() {
            assert_eq!(slot.users, n, "link {i}: cached fluid membership is stale");
        }
        for &link in &self.used {
            let slot = &self.links[link.index()];
            let capacity = slot
                .load
                .expect("a used link is sampled")
                .fluid_capacity(network.link(link).config.rate_bps as f64);
            assert!(
                slot.link_sum <= capacity * (1.0 + 1e-9) + 1e-6,
                "{link:?}: {} bps of fluid rates on {capacity} bps of capacity",
                slot.link_sum
            );
        }
    }
}

/// Count one more fluid flow on every link of `path`, listing in `used` the
/// links this takes from zero users.
fn add_users(links: &mut [LinkSlot], used: &mut Vec<LinkId>, path: &[LinkId]) {
    for &link in path {
        let slot = &mut links[link.index()];
        if slot.users == 0 {
            used.push(link);
        }
        slot.users += 1;
    }
}

/// Walk the stable path a data packet with `template`'s headers takes from
/// host `src` to its destination under the current routing state into
/// `path`. Left empty on any routing anomaly (the flow then runs
/// cap-limited, unconstrained by links — it cannot happen on the well-formed
/// topologies the builders produce, where groups are never empty).
fn walk_path(network: &Network, src: NodeId, template: &Packet, path: &mut Vec<LinkId>) {
    path.clear();
    let Some(host) = network.node(src).as_host() else {
        return;
    };
    let Some(mut link) = host.select_uplink(template) else {
        return;
    };
    // Hop bound well above any fabric diameter we build; trips cycles.
    for _ in 0..32 {
        path.push(link);
        let to = network.link(link).to;
        match network.node(to).as_switch() {
            Some(sw) => match sw.route_stable(template) {
                Some(next) => link = next,
                None => break,
            },
            None => return, // reached a host
        }
    }
    path.clear();
}

/// Progressive water-filling: max-min fair shares over the links' fluid
/// capacity with each flow additionally bounded by its pacing cap, written
/// to `alloc` by flow position. On entry every link on a path holds its
/// capacity in `remaining` and the number of flows crossing it in
/// `active_on`. Deterministic: flows are visited in position order and links
/// in path order, and each round freezes at least one flow, so the loop runs
/// at most `flows.len()` rounds. `active` holds the unfrozen positions, each
/// with its limit for the current round. A link's fair share is divided out
/// once per change of `remaining` or `active_on`, not once per flow and
/// round that reads it.
fn water_fill(
    flows: &[FluidFlow],
    links: &mut [LinkSlot],
    active: &mut Vec<(u32, f64)>,
    alloc: &mut Vec<f64>,
) {
    for l in flows.iter().flat_map(|f| &f.path) {
        links[l.index()].derive_share();
    }
    alloc.clear();
    alloc.resize(flows.len(), 0.0);
    active.clear();
    active.extend((0..flows.len() as u32).map(|pos| (pos, 0.0)));
    while !active.is_empty() {
        // Each active flow's current limit: its cap, or the fair share of
        // its tightest link.
        let mut level = f64::INFINITY;
        for (pos, limit) in active.iter_mut() {
            let f = &flows[*pos as usize];
            let mut lim = f.cap_bps;
            for l in &f.path {
                lim = lim.min(links[l.index()].share);
            }
            *limit = lim.max(0.0);
            level = level.min(*limit);
        }
        let cutoff = level * (1.0 + 1e-9) + 1e-6;
        let before = active.len();
        active.retain(|&(pos, share)| {
            let frozen = share <= cutoff;
            if frozen {
                alloc[pos as usize] = share;
                for l in &flows[pos as usize].path {
                    let slot = &mut links[l.index()];
                    slot.remaining = (slot.remaining - share).max(0.0);
                    slot.active_on = slot.active_on.saturating_sub(1);
                    slot.derive_share();
                }
            }
            !frozen
        });
        debug_assert!(active.len() < before);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Addr;
    use crate::link::LinkConfig;
    use crate::rng::SimRng;
    use crate::switch::SwitchLayer;
    use std::collections::{BTreeMap, BTreeSet};

    /// Attach one more host to `sw` with a 1 Gbps duplex link and route its
    /// address down it.
    fn attach_host(net: &mut Network, sw: NodeId) -> NodeId {
        let host = net.add_host();
        let (_up, down) = net.add_duplex_link(host, sw, LinkConfig::default());
        let addr = net.node(host).as_host().expect("just added").addr;
        let sw_ref = net.switch_mut(sw);
        let group = sw_ref.add_group(vec![down]);
        sw_ref.set_route(addr, group);
        host
    }

    /// `hosts` hosts around one switch, each on a 1 Gbps duplex link; the
    /// switch has room to route one more host attached later.
    fn star_network(hosts: usize) -> (Network, Vec<NodeId>, NodeId) {
        let mut net = Network::new();
        let sw = net.add_switch(SwitchLayer::Edge, hosts + 1);
        let hosts = (0..hosts).map(|_| attach_host(&mut net, sw)).collect();
        (net, hosts, sw)
    }

    /// host0 --1Gbps--> sw --1Gbps--> host1, plus the reverse direction.
    fn line_network() -> (Network, NodeId, NodeId) {
        let (net, hosts, _sw) = star_network(2);
        (net, hosts[0], hosts[1])
    }

    fn handoff_between(
        flow: u64,
        (src, dst): (u32, u32),
        src_port: u16,
        remaining: u64,
        cap_bps: u64,
    ) -> FluidHandoff {
        FluidHandoff {
            template: Packet::data(
                Addr(src),
                Addr(dst),
                src_port,
                80,
                FlowId(flow),
                0,
                200_000,
                200_000,
                1400,
                SimTime::ZERO,
            ),
            remaining,
            base_bytes: 200_000,
            rate_cap_bps: cap_bps,
            srtt: SimDuration::from_micros(200),
            mss: 1400,
            cc: FluidCc::Reno,
        }
    }

    fn handoff(flow: u64, src_port: u16, remaining: u64, cap_bps: u64) -> FluidHandoff {
        handoff_between(flow, (0, 1), src_port, remaining, cap_bps)
    }

    #[test]
    fn two_uncapped_flows_split_the_bottleneck_evenly() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(
            t0,
            h0,
            handoff(1, 50_000, 10_000_000, 100_000_000_000),
            &net,
        );
        eng.accept(
            t0,
            h0,
            handoff(2, 50_001, 10_000_000, 100_000_000_000),
            &net,
        );
        let out = eng.epoch(t0, &mut net);
        assert!(out.completions.is_empty());
        let r1 = eng.flow_rate_bps(FlowId(1)).unwrap() as f64;
        let r2 = eng.flow_rate_bps(FlowId(2)).unwrap() as f64;
        assert!((r1 - r2).abs() / r1 < 1e-6, "equal shares: {r1} vs {r2}");
        // Together they get the whole 1 Gbps (no packet traffic measured).
        assert!((r1 + r2 - 1e9).abs() / 1e9 < 1e-6, "sum {}", r1 + r2);
    }

    #[test]
    fn capped_flow_leaves_the_rest_to_its_sibling() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(t0, h0, handoff(1, 50_000, 10_000_000, 100_000_000), &net); // capped at 100 Mbps
        eng.accept(
            t0,
            h0,
            handoff(2, 50_001, 10_000_000, 100_000_000_000),
            &net,
        );
        eng.epoch(t0, &mut net);
        let r1 = eng.flow_rate_bps(FlowId(1)).unwrap() as f64;
        let r2 = eng.flow_rate_bps(FlowId(2)).unwrap() as f64;
        assert!((r1 - 1e8).abs() / 1e8 < 1e-3, "capped flow pinned: {r1}");
        assert!(
            (r2 - 9e8).abs() / 9e8 < 1e-3,
            "sibling takes the rest: {r2}"
        );
    }

    #[test]
    fn delivered_bytes_advance_analytically_and_complete() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        // 1 MB at (up to) 1 Gbps => 8 ms.
        eng.accept(t0, h0, handoff(1, 50_000, 1_000_000, 100_000_000_000), &net);
        let out = eng.epoch(t0, &mut net);
        let next = out.next_epoch.unwrap();
        assert_eq!(next, t0 + SimDuration::from_millis(2), "refresh bounds it");
        // March through refresh epochs until the completion epoch.
        let mut now = next;
        let mut completions = Vec::new();
        for _ in 0..10 {
            let out = eng.epoch(now, &mut net);
            completions.extend(out.completions);
            match out.next_epoch {
                Some(t) => now = t,
                None => break,
            }
        }
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].flow, FlowId(1));
        assert_eq!(completions[0].bytes, 1_000_000);
        assert_eq!(eng.delivered_bytes(), 1_000_000);
        assert!(eng.is_empty());
        // Completion at ~9 ms: 8 ms of transfer from t0 = 1 ms, quantised to
        // the 2 ms refresh grid.
        assert!(now <= SimTime::from_millis(11), "completed by {now}");
    }

    #[test]
    fn drop_on_a_shared_link_halves_the_cap() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(t0, h0, handoff(1, 50_000, 100_000_000, 400_000_000), &net);
        eng.epoch(t0, &mut net);
        let before = eng.flow_rate_bps(FlowId(1)).unwrap();
        assert!(
            (before as f64 - 4e8).abs() / 4e8 < 1e-3,
            "cap-limited start"
        );
        let link = eng.path(FlowId(1))[0];
        assert!(eng.uses_link(link));
        assert!(eng.note_drop(link));
        let t1 = t0 + SimDuration::from_micros(10);
        eng.epoch(t1, &mut net);
        let after = eng.flow_rate_bps(FlowId(1)).unwrap();
        assert!(
            (after as f64 - before as f64 / 2.0).abs() / (before as f64) < 1e-2,
            "halved: {before} -> {after}"
        );
        // A link no fluid flow crosses is not an epoch trigger.
        assert!(!eng.note_drop(LinkId(9999)));
    }

    #[test]
    fn reservation_is_installed_and_cleared() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(t0, h0, handoff(1, 50_000, 10_000, 100_000_000_000), &net);
        eng.epoch(t0, &mut net);
        let link = eng.path(FlowId(1))[0];
        let reserved = net.link(link).fluid_reservation();
        assert!(reserved > 0, "shared link carries a reservation");
        assert!(reserved <= 900_000_000, "clamped below the headroom");
        // Finish the flow: the next epoch clears the reservation.
        let t1 = t0 + SimDuration::from_millis(2);
        let out = eng.epoch(t1, &mut net);
        assert_eq!(out.completions.len(), 1);
        assert_eq!(net.link(link).fluid_reservation(), 0);
        assert_eq!(out.next_epoch, None);
    }

    #[test]
    fn finalize_reports_progress_for_unfinished_flows() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(
            t0,
            h0,
            handoff(1, 50_000, 1_000_000_000, 1_000_000_000),
            &net,
        );
        eng.epoch(t0, &mut net);
        let t1 = t0 + SimDuration::from_millis(1);
        let (completions, progress) = eng.finalize(t1, &mut net);
        assert!(completions.is_empty());
        assert_eq!(progress.len(), 1);
        match progress[0] {
            Signal::FlowProgress { flow, bytes, .. } => {
                assert_eq!(flow, FlowId(1));
                // ~1 ms at ≤1 Gbps on top of the 200 KB packet base.
                assert!(bytes > 200_000, "bytes {bytes}");
                assert!(bytes <= 200_000 + 125_000 + 1, "bytes {bytes}");
            }
            _ => panic!("expected FlowProgress"),
        }
    }

    /// The keyed water-filling the engine used before its per-link state
    /// became dense arrays, kept verbatim as the reference the dense
    /// [`water_fill`] must match bit for bit.
    fn water_fill_reference(
        flows: &BTreeMap<FlowId, FluidFlow>,
        caps: &BTreeMap<LinkId, f64>,
    ) -> BTreeMap<FlowId, f64> {
        let mut alloc: BTreeMap<FlowId, f64> = BTreeMap::new();
        let mut remaining: BTreeMap<LinkId, f64> = caps.clone();
        let mut active_on: BTreeMap<LinkId, u32> = BTreeMap::new();
        let mut active: BTreeSet<FlowId> = BTreeSet::new();
        for (id, f) in flows.iter() {
            active.insert(*id);
            for l in &f.path {
                if caps.contains_key(l) {
                    *active_on.entry(*l).or_insert(0) += 1;
                }
            }
        }
        fn limit_of(
            f: &FluidFlow,
            remaining: &BTreeMap<LinkId, f64>,
            active_on: &BTreeMap<LinkId, u32>,
        ) -> f64 {
            let mut lim = f.cap_bps;
            for l in &f.path {
                if let (Some(cap), Some(&n)) = (remaining.get(l), active_on.get(l)) {
                    if n > 0 {
                        lim = lim.min(cap / n as f64);
                    }
                }
            }
            lim.max(0.0)
        }
        while !active.is_empty() {
            let level = active
                .iter()
                .map(|id| limit_of(&flows[id], &remaining, &active_on))
                .fold(f64::INFINITY, f64::min);
            let frozen: Vec<(FlowId, f64)> = active
                .iter()
                .filter_map(|id| {
                    let lim = limit_of(&flows[id], &remaining, &active_on);
                    (lim <= level * (1.0 + 1e-9) + 1e-6).then_some((*id, lim))
                })
                .collect();
            assert!(!frozen.is_empty());
            for (id, share) in frozen {
                let f = &flows[&id];
                alloc.insert(id, share);
                active.remove(&id);
                for l in &f.path {
                    if let Some(cap) = remaining.get_mut(l) {
                        *cap = (*cap - share).max(0.0);
                    }
                    if let Some(n) = active_on.get_mut(l) {
                        *n = n.saturating_sub(1);
                    }
                }
            }
        }
        alloc
    }

    /// A resident flow as far as water-filling can tell: a path and a cap.
    fn fluid_flow(path: Vec<LinkId>, cap_bps: f64) -> FluidFlow {
        let h = handoff(0, 50_000, 1, 1);
        FluidFlow {
            id: h.template.flow,
            node: NodeId(0),
            template: h.template,
            path,
            remaining: h.remaining,
            delivered: 0,
            base_bytes: h.base_bytes,
            cap_bps,
            rate_bps: 0,
            srtt: h.srtt,
            mss: h.mss,
            last_advance: SimTime::ZERO,
            cc: h.cc,
            cc_wmax_bps: cap_bps,
            cc_epoch_s: 0.0,
        }
    }

    #[test]
    fn dense_water_fill_matches_the_keyed_reference_bit_for_bit() {
        let mut rng = SimRng::new(0xF1_01D);
        let (mut active, mut alloc) = (Vec::new(), Vec::new());
        for case in 0..300 {
            let n_links = rng.range(8..=300u32);
            let link_cap: Vec<f64> = (0..n_links)
                .map(|_| match rng.range(0..10u32) {
                    0 => 0.0,
                    1..=3 => 1e9,
                    4 => 1e10,
                    _ => rng.unit() * 4e10,
                })
                .collect();
            let mut flows = BTreeMap::new();
            let mut next_id = 0u64;
            for _ in 0..rng.range(1..=200u32) {
                next_id += rng.range(1..=1000u64);
                // One flow in twenty has no path (a routing anomaly).
                let hops = if rng.chance(0.05) {
                    0
                } else {
                    rng.range(1..=6u32)
                };
                let path = (0..hops).map(|_| LinkId(rng.range(0..n_links))).collect();
                let cap_bps = match rng.range(0..4u32) {
                    0 => 1e6 + rng.unit() * 1e8, // cap-limited
                    1 => 1e11,                   // link-limited
                    _ => rng.unit() * 2e10,
                };
                flows.insert(FlowId(next_id), fluid_flow(path, cap_bps));
            }

            // What step 4 of `epoch` prepares: capacity and membership of
            // every link on a path.
            let mut caps = BTreeMap::new();
            let mut links = vec![LinkSlot::default(); n_links as usize];
            for l in flows.values().flat_map(|f| &f.path) {
                caps.insert(*l, link_cap[l.index()]);
                links[l.index()].remaining = link_cap[l.index()];
                links[l.index()].active_on += 1;
            }

            let expected = water_fill_reference(&flows, &caps);
            let order: Vec<FluidFlow> = flows.values().cloned().collect();
            water_fill(&order, &mut links, &mut active, &mut alloc);
            let got: Vec<u64> = alloc.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u64> = expected.values().map(|r| r.to_bits()).collect();
            assert_eq!(
                got,
                want,
                "case {case}: {} flows over {n_links} links",
                flows.len()
            );
        }
    }

    #[test]
    fn accept_order_never_reaches_a_result() {
        // (src, dst) host pairs: three flows converge on host 3, the rest
        // cross them; every third flow is cap-limited.
        let pairs = [(0, 3), (1, 3), (2, 3), (0, 1), (3, 0), (2, 1), (1, 0)];
        let t0 = SimTime::from_millis(1);
        let run = |reversed: bool| {
            let (mut net, hosts, _sw) = star_network(4);
            let mut eng = FluidEngine::new();
            let mut arrivals: Vec<usize> = (0..pairs.len()).collect();
            if reversed {
                arrivals.reverse();
            }
            for i in arrivals {
                let (src, dst) = pairs[i];
                let cap = if i % 3 == 0 {
                    150_000_000
                } else {
                    100_000_000_000
                };
                let h = handoff_between(10 + i as u64, (src, dst), 50_000, 400_000, cap);
                eng.accept(t0, hosts[src as usize], h, &net);
            }
            // Arrival epoch, a drop on host 3's downlink, then three more
            // epochs wherever the engine asks for them.
            let mut trace = Vec::new();
            let mut now = t0;
            for step in 0..5 {
                if step == 1 {
                    let downlink = eng.path(FlowId(10))[1];
                    assert!(eng.note_drop(downlink));
                    now += SimDuration::from_micros(10);
                }
                let out = eng.epoch(now, &mut net);
                let rates: Vec<_> = (0..pairs.len() as u64)
                    .map(|i| eng.flow_rate_bps(FlowId(10 + i)))
                    .collect();
                let reservations: Vec<_> =
                    net.links().iter().map(|l| l.fluid_reservation()).collect();
                trace.push((rates, reservations, out.completions, out.next_epoch));
                match out.next_epoch {
                    Some(next) => now = next,
                    None => break,
                }
            }
            trace
        };
        let forward = run(false);
        assert!(forward.iter().any(|(_, _, done, _)| !done.is_empty()));
        assert_eq!(forward, run(true));
    }

    /// Put `packets` full-size packets on `link` back to back from `now`.
    fn transmit(net: &mut Network, link: LinkId, mut now: SimTime, packets: u32) {
        for _ in 0..packets {
            let packet = handoff(99, 50_000, 0, 1).template;
            let tx = net.link_mut(link).offer(now, packet).unwrap().unwrap();
            now = tx.transmit_done_at;
            net.link_mut(link).transmit_complete(now);
        }
    }

    #[test]
    fn a_link_that_leaves_and_returns_restarts_its_packet_load_ewma() {
        let (mut net, h0, _h1) = line_network();
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(t0, h0, handoff(1, 50_000, 150_000, 100_000_000_000), &net);
        eng.epoch(t0, &mut net);
        assert_eq!(eng.flow_rate_bps(FlowId(1)), Some(1_000_000_000));
        // Packet traffic on the flow's first link shrinks its fluid share.
        let link = eng.path(FlowId(1))[0];
        transmit(&mut net, link, t0, 50);
        let t1 = t0 + SimDuration::from_millis(1);
        eng.epoch(t1, &mut net);
        let squeezed = eng.flow_rate_bps(FlowId(1)).unwrap();
        assert!(squeezed < 800_000_000, "EWMA in effect: {squeezed}");
        // The flow finishes: the link leaves the used set...
        let t2 = t1 + SimDuration::from_millis(1);
        assert_eq!(eng.epoch(t2, &mut net).completions.len(), 1);
        assert!(!eng.uses_link(link));
        // ...and when a new flow brings it back, the old load is forgotten
        // rather than decayed: the newcomer sees the whole link.
        eng.accept(t2, h0, handoff(2, 50_000, 150_000, 100_000_000_000), &net);
        eng.epoch(t2, &mut net);
        assert_eq!(eng.flow_rate_bps(FlowId(2)), Some(1_000_000_000));
    }

    #[test]
    fn links_outside_the_sized_range_are_not_shared_and_new_links_get_slots() {
        // An engine that never accepted a flow has sized nothing.
        let mut idle = FluidEngine::new();
        assert!(!idle.uses_link(LinkId(0)));
        assert!(!idle.note_drop(LinkId(0)));

        let (mut net, hosts, sw) = star_network(2);
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(
            t0,
            hosts[0],
            handoff(1, 50_000, 10_000_000, 400_000_000),
            &net,
        );
        eng.epoch(t0, &mut net);
        let beyond = LinkId(net.link_count() as u32);
        assert!(!eng.uses_link(beyond));
        assert!(!eng.note_drop(beyond));

        // The network grows after the first `accept`. A handoff towards the
        // new host crosses links the engine has no slot for yet...
        let h2 = attach_host(&mut net, sw);
        assert_eq!(net.hosts()[2], h2);
        let h = handoff_between(2, (0, 2), 50_000, 10_000_000, 400_000_000);
        eng.accept(t0, hosts[0], h, &net);
        assert!(
            eng.uses_link(LinkId(beyond.0 + 1)),
            "the switch's new downlink"
        );
        // ...and so does a resident flow re-routed onto a link added later.
        let old_downlink = eng.path(FlowId(1))[1];
        let detour = net.add_link(sw, hosts[1], LinkConfig::default());
        let sw_ref = net.switch_mut(sw);
        let group = sw_ref.add_group(vec![detour]);
        sw_ref.set_route(Addr(1), group);
        eng.topology_changed();
        eng.epoch(t0, &mut net);
        assert_eq!(eng.path(FlowId(1))[1], detour);
        assert!(eng.note_drop(detour));
        assert!(net.link(detour).fluid_reservation() > 0);
        assert!(!eng.uses_link(old_downlink));
        assert_eq!(net.link(old_downlink).fluid_reservation(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "without Simulator::notify_topology_changed")]
    fn a_routing_change_nobody_announced_fails_the_next_epoch() {
        let (mut net, hosts, sw) = star_network(2);
        let mut eng = FluidEngine::new();
        let t0 = SimTime::from_millis(1);
        eng.accept(t0, hosts[0], handoff(1, 50_000, 10_000_000, 1_000), &net);
        eng.epoch(t0, &mut net);
        let detour = net.add_link(sw, hosts[1], LinkConfig::default());
        let sw_ref = net.switch_mut(sw);
        let group = sw_ref.add_group(vec![detour]);
        sw_ref.set_route(Addr(1), group);
        eng.epoch(t0 + SimDuration::from_micros(10), &mut net);
    }

    /// A leaf–spine fabric of 1 Gbps links: `leaves` leaf switches with
    /// `per_leaf` hosts each, every leaf wired to each of `spines` spines. A
    /// leaf reaches a remote host through one ECMP group of all its
    /// uplinks; a spine reaches it down the link to the host's leaf.
    /// Returns the network, its hosts in address order, and each leaf's
    /// uplinks in leaf order.
    fn leaf_spine(
        leaves: usize,
        spines: usize,
        per_leaf: usize,
    ) -> (Network, Vec<NodeId>, Vec<Vec<LinkId>>) {
        let mut net = Network::new();
        let n_hosts = leaves * per_leaf;
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|_| net.add_switch(SwitchLayer::Edge, n_hosts))
            .collect();
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|_| net.add_switch(SwitchLayer::Core, n_hosts))
            .collect();
        let mut hosts = Vec::new();
        let mut host_downlinks = Vec::new();
        for &leaf in &leaf_ids {
            for _ in 0..per_leaf {
                let host = net.add_host();
                hosts.push(host);
                host_downlinks.push(net.add_duplex_link(host, leaf, LinkConfig::default()).1);
            }
        }
        let mut uplinks = Vec::new();
        let mut spine_groups = vec![Vec::new(); spines];
        for &leaf in &leaf_ids {
            let mut ups = Vec::new();
            for (s, &spine) in spine_ids.iter().enumerate() {
                let (up, down) = net.add_duplex_link(leaf, spine, LinkConfig::default());
                ups.push(up);
                let group = net.switch_mut(spine).add_group(vec![down]);
                spine_groups[s].push(group);
            }
            uplinks.push(ups);
        }
        for (l, (&leaf, ups)) in leaf_ids.iter().zip(&uplinks).enumerate() {
            let sw = net.switch_mut(leaf);
            let remote = sw.add_group(ups.clone());
            for (h, &down) in host_downlinks.iter().enumerate() {
                let group = if h / per_leaf == l {
                    sw.add_group(vec![down])
                } else {
                    remote
                };
                sw.set_route(Addr(h as u32), group);
            }
        }
        for (s, &spine) in spine_ids.iter().enumerate() {
            for h in 0..n_hosts {
                let group = spine_groups[s][h / per_leaf];
                net.switch_mut(spine).set_route(Addr(h as u32), group);
            }
        }
        (net, hosts, uplinks)
    }

    /// Run one seeded script against two engines on twin leaf–spines: one
    /// caching paths and membership between epochs, one told the topology
    /// changed before every epoch — so it re-walks every path and rebuilds
    /// membership each time. After every epoch the two must agree bit for
    /// bit. Returns how many epochs ran, how many flows completed and the
    /// most flows resident at once.
    fn cache_differential(seed: u64, steps: u32, max_flows: usize) -> (u32, usize, usize) {
        let mut rng = SimRng::new(seed);
        let (leaves, spines, per_leaf) = (
            rng.range(2..=5usize),
            rng.range(1..=4usize),
            rng.range(1..=4usize),
        );
        let (mut net, hosts, uplinks) = leaf_spine(leaves, spines, per_leaf);
        let mut twin = leaf_spine(leaves, spines, per_leaf).0;
        let (mut cached, mut walked) = (FluidEngine::new(), FluidEngine::new());
        let mut now = SimTime::ZERO;
        let mut requested = None;
        let mut next_flow = 0u64;
        let (mut epochs, mut completions, mut peak) = (0, 0, 0);
        for _ in 0..steps {
            peak = peak.max(cached.len());
            match rng.range(0..12u32) {
                0..=3 if cached.len() < max_flows => {
                    let src = rng.range(0..hosts.len());
                    let dst = (src + rng.range(1..hosts.len())) % hosts.len();
                    next_flow += rng.range(1..=3u64);
                    let cap = match rng.range(0..3u32) {
                        0 => rng.range(1_000_000..=200_000_000u64),
                        1 => 100_000_000_000,
                        _ => rng.range(1..=2_000_000_000u64),
                    };
                    let remaining = rng.range(1..=4_000_000u64);
                    let mut h = handoff_between(
                        next_flow,
                        (src as u32, dst as u32),
                        rng.ephemeral_port(),
                        remaining,
                        cap,
                    );
                    h.cc = [FluidCc::Reno, FluidCc::Cubic, FluidCc::Bbr][rng.range(0..3usize)];
                    h.srtt = SimDuration::from_micros(rng.range(0..=400u64));
                    cached.accept(now, hosts[src], h.clone(), &net);
                    walked.accept(now, hosts[src], h, &twin);
                }
                4 | 5 if !cached.is_empty() => {
                    let path = &cached.flows[rng.range(0..cached.len())].path;
                    if !path.is_empty() {
                        let link = path[rng.range(0..path.len())];
                        assert_eq!(cached.note_drop(link), walked.note_drop(link));
                    }
                }
                6 => {
                    let link = LinkId(rng.range(0..net.link_count() as u32));
                    let packets = rng.range(1..=20u32);
                    transmit(&mut net, link, now, packets);
                    transmit(&mut twin, link, now, packets);
                }
                7 => {
                    // A link fails, or a leaf's uplinks are all repaired.
                    let l = rng.range(0..uplinks.len());
                    let ups = &uplinks[l];
                    let leaf = net.link(ups[0]).from;
                    if rng.chance(0.7) {
                        let up = ups[rng.range(0..ups.len())];
                        let removed = net.switch_mut(leaf).remove_link(up);
                        assert_eq!(twin.switch_mut(leaf).remove_link(up), removed);
                    } else {
                        for n in [&mut net, &mut twin] {
                            let sw = n.switch_mut(leaf);
                            let group = sw.add_group(ups.clone());
                            for h in (0..hosts.len()).filter(|h| h / per_leaf != l) {
                                sw.set_route(Addr(h as u32), group);
                            }
                        }
                    }
                    cached.topology_changed();
                }
                _ => {
                    let at = match requested {
                        Some(t) if rng.chance(0.5) => t,
                        _ => now + SimDuration::from_nanos(rng.range(0..=3_000_000u64)),
                    };
                    now = now.max(at);
                    walked.topology_changed();
                    let a = cached.epoch(now, &mut net);
                    let b = walked.epoch(now, &mut twin);
                    assert_eq!(a.completions, b.completions, "seed {seed:#x} at {now}");
                    assert_eq!(a.next_epoch, b.next_epoch, "seed {seed:#x} at {now}");
                    let state = |e: &FluidEngine| -> Vec<_> {
                        e.flows
                            .iter()
                            .map(|f| {
                                let cap = f.cap_bps.to_bits();
                                (f.id, f.rate_bps, cap, f.delivered, f.path.clone())
                            })
                            .collect()
                    };
                    assert_eq!(state(&cached), state(&walked), "seed {seed:#x} at {now}");
                    for (l, r) in net.links().iter().zip(twin.links()) {
                        assert_eq!(
                            l.fluid_reservation(),
                            r.fluid_reservation(),
                            "seed {seed:#x} at {now}: {:?}",
                            l.id
                        );
                    }
                    requested = a.next_epoch;
                    epochs += 1;
                    completions += a.completions.len();
                }
            }
        }
        (epochs, completions, peak)
    }

    #[test]
    fn cached_paths_and_membership_match_a_rebuild_every_epoch() {
        let (mut epochs, mut completions) = (0, 0);
        for seed in 0..48 {
            let (e, c, _) = cache_differential(0xCAC4E + seed, 500, 64);
            epochs += e;
            completions += c;
        }
        assert!(
            epochs > 1_000 && completions > 100,
            "{epochs} epochs, {completions} completions"
        );
    }

    /// The long run of the differential (`cargo test --release -p netsim --
    /// --ignored fluid`): thousands of scripts, up to 1 024 resident flows.
    #[test]
    #[ignore]
    fn cached_paths_and_membership_match_a_rebuild_every_epoch_long() {
        let mut rng = SimRng::new(0x10_CAC4E);
        let mut peak = 0;
        for script in 0..2_000 {
            let max_flows = if script % 50 == 0 {
                1_024
            } else {
                1 << rng.range(2..=7u32)
            };
            let steps = 4 * max_flows as u32 + 300;
            peak = peak.max(cache_differential(rng.next_u64(), steps, max_flows).2);
        }
        assert_eq!(peak, 1_024);
    }
}
