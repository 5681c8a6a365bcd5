//! Pluggable congestion control: the [`CongestionController`] trait and the
//! controller zoo.
//!
//! [`subflow::Subflow`](crate::subflow::Subflow) owns phase and
//! loss-*detection* bookkeeping (handshake, dup-ACK counting, NewReno
//! partial-ACK retransmission, RTO timers, spurious-retransmit detection) and
//! drives a boxed [`CongestionController`] for every loss-*response* decision:
//! how the window grows on ACKs, how far it backs off on fast retransmit /
//! RTO / ECN, and how an RR-TCP/Eifel-style undo restores it when a
//! "loss" turns out to have been reordering.
//!
//! Shipped controllers (each keeps one [`Window`] and overrides the trait's
//! provided NewReno hooks only where its rule differs):
//!
//! * `Reno` — the NewReno/RFC 5681 window rules, with RFC 6356
//!   linked-increase coupling when the connection supplies
//!   [`LiaParams`]. The default.
//! * `Cubic` — RFC 8312 cubic window growth with a delay-based hybrid
//!   slow start (HyStart-style exit when round-trip delay inflates).
//! * `Bbr` — model-based control: a windowed max filter over per-ACK
//!   delivery-rate samples and the minimum RTT tracked by
//!   [`RttEstimator`] estimate the path's bottleneck bandwidth and
//!   propagation delay; startup/drain/probe-bandwidth states steer cwnd
//!   toward `gain × BDP` and export an explicit pacing rate.
//! * `EcnResponder` — DCTCP's α-EWMA over the marked-byte fraction,
//!   re-expressed as a layer *on top of* any controller: it accumulates
//!   marks per round trip and at each round end hands the controller a
//!   penalty via [`CongestionController::on_ecn`]. D²TCP is the same
//!   responder with a deadline-imminence penalty exponent.
//!
//! # Determinism rule
//!
//! Controllers are part of the simulator's deterministic core: all state must
//! be a pure function of the event sequence (ACK sizes, times, RTT estimator
//! state) — no wall-clock time, no RNG, no ambient configuration. Two runs
//! with the same seed must make bit-identical decisions.

#![deny(missing_docs)]

use crate::config::TransportConfig;
use crate::rtt::RttEstimator;
use crate::subflow::LiaParams;
use netsim::fluid::FluidCc;
use netsim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The congestion-control algorithm axis of an experiment: which
/// [`CongestionController`] every subflow of a connection runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CongestionControl {
    /// NewReno (RFC 5681/6582) — the paper's baseline and the default.
    #[default]
    Reno,
    /// CUBIC (RFC 8312) with hybrid slow start.
    Cubic,
    /// BBR-style model-based control with explicit pacing.
    Bbr,
}

impl CongestionControl {
    /// Stable lower-case label (CLI values, trace CSV column, run labels).
    pub fn name(self) -> &'static str {
        match self {
            CongestionControl::Reno => "reno",
            CongestionControl::Cubic => "cubic",
            CongestionControl::Bbr => "bbr",
        }
    }

    /// Parse a CLI-style label; inverse of [`Self::name`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reno" => Some(CongestionControl::Reno),
            "cubic" => Some(CongestionControl::Cubic),
            "bbr" => Some(CongestionControl::Bbr),
            _ => None,
        }
    }

    /// Instantiate the controller for one subflow.
    pub fn build(&self, cfg: &TransportConfig) -> Box<dyn CongestionController> {
        match self {
            CongestionControl::Reno => Box::new(Reno::new(cfg)),
            CongestionControl::Cubic => Box::new(Cubic::new(cfg)),
            CongestionControl::Bbr => Box::new(Bbr::new(cfg)),
        }
    }

    /// The fluid fast path's cap-dynamics approximation of this controller
    /// (see [`netsim::fluid`]): which growth/backoff rule a handed-off
    /// elephant's pacing cap follows between epochs.
    pub(crate) fn fluid(&self) -> FluidCc {
        match self {
            CongestionControl::Reno => FluidCc::Reno,
            CongestionControl::Cubic => FluidCc::Cubic,
            CongestionControl::Bbr => FluidCc::Bbr,
        }
    }
}

/// The window every controller keeps, in bytes: `cwnd`, `ssthresh`, the
/// `(cwnd, ssthresh)` pair [`CongestionController::undo`] restores, and the
/// MSS and initial window they are computed from.
#[derive(Debug)]
pub struct Window {
    mss: f64,
    initial_cwnd: f64,
    cwnd: f64,
    ssthresh: f64,
    prior_cwnd: f64,
    prior_ssthresh: f64,
}

impl Window {
    /// A closed window; the handshake opens it.
    fn new(cfg: &TransportConfig) -> Self {
        Window {
            mss: cfg.mss as f64,
            initial_cwnd: cfg.initial_cwnd_bytes(),
            cwnd: 0.0,
            ssthresh: cfg.initial_ssthresh as f64,
            prior_cwnd: 0.0,
            prior_ssthresh: 0.0,
        }
    }

    /// Slow start: one MSS per MSS acknowledged (ABC-limited to 2·MSS).
    fn slow_start(&mut self, newly_acked: u64) {
        self.cwnd += (newly_acked as f64).min(2.0 * self.mss);
    }

    /// Remember `(cwnd, ssthresh)` for a later [`Self::restore`].
    fn snapshot(&mut self) {
        self.prior_cwnd = self.cwnd;
        self.prior_ssthresh = self.ssthresh;
    }

    /// Restore the snapshot, floored at one MSS and two MSS.
    fn restore(&mut self) {
        self.cwnd = self.prior_cwnd.max(self.mss);
        self.ssthresh = self.prior_ssthresh.max(2.0 * self.mss);
    }

    /// DCTCP-style reduction by `penalty / 2`, floored at one MSS, with
    /// `ssthresh` held at the new window.
    fn cut(&mut self, penalty: f64) {
        self.cwnd = (self.cwnd * (1.0 - penalty / 2.0)).max(self.mss);
        self.ssthresh = self.cwnd;
    }
}

/// The congestion state machine behind one subflow.
///
/// The subflow calls exactly one hook per event, in event order; controllers
/// never see packets, only the distilled facts (bytes newly acked, bytes in
/// flight, the RTT estimator). `cwnd()` must never return less than one MSS
/// or a non-finite value, and `ssthresh()` must stay finite — the property
/// suite fuzzes every controller against random loss/ECN/RTO sequences.
/// Every controller keeps one [`Window`]; the provided methods are NewReno's
/// rule for each hook, and a controller overrides only where it differs.
pub trait CongestionController: std::fmt::Debug + Send {
    /// The controller's window.
    fn window(&self) -> &Window;

    /// The controller's window, mutably.
    fn window_mut(&mut self) -> &mut Window;

    /// The handshake completed: open the initial window.
    fn on_established(&mut self, _now: SimTime, _rtt: &RttEstimator) {
        let w = self.window_mut();
        w.cwnd = w.initial_cwnd;
    }

    /// Bytes were newly acknowledged outside recovery: grow the window.
    /// `lia` carries RFC 6356 coupling parameters when the connection links
    /// subflow increases; controllers without a coupled mode may ignore it.
    fn on_ack(
        &mut self,
        newly_acked: u64,
        now: SimTime,
        rtt: &RttEstimator,
        lia: Option<LiaParams>,
    );

    /// A duplicate ACK arrived while in fast recovery: inflate the window by
    /// one MSS while the hole is repaired (RFC 5681).
    fn on_dup_ack(&mut self) {
        let w = self.window_mut();
        w.cwnd += w.mss;
    }

    /// Loss was detected by duplicate ACKs (fast-retransmit entry), with
    /// `flight` bytes outstanding. The controller must snapshot whatever it
    /// needs to honour a later [`Self::undo`].
    fn on_loss(&mut self, flight: u64);

    /// A full ACK ended fast recovery: deflate the window to `ssthresh`.
    fn on_recovery_exit(&mut self) {
        let w = self.window_mut();
        w.cwnd = w.ssthresh.max(w.mss);
    }

    /// The ECN responder computed a round-end penalty in `[0, 1]` (DCTCP's
    /// `alpha^d`): cut the window by `penalty / 2` and hold `ssthresh` there.
    fn on_ecn(&mut self, penalty: f64) {
        self.window_mut().cut(penalty);
    }

    /// A retransmission timeout fired with `flight` bytes outstanding.
    /// Timeouts are never undone.
    fn on_rto(&mut self, flight: u64);

    /// One round trip of data (`snd_una` crossed the previous `snd_nxt`)
    /// completed — the hook for per-round logic: CUBIC's hybrid-slow-start
    /// delay check, BBR's round counting and state transitions.
    fn on_round_trip(&mut self, _now: SimTime, _rtt: &RttEstimator) {}

    /// A fast retransmission was spurious (reordering, not loss): restore
    /// the state snapshotted at [`Self::on_loss`]. The subflow guarantees at
    /// most one undo per recovery episode and never after an RTO.
    fn undo(&mut self) {
        self.window_mut().restore();
    }

    /// Congestion window in bytes. Always ≥ 1 MSS and finite.
    fn cwnd(&self) -> f64 {
        self.window().cwnd
    }

    /// Slow-start threshold in bytes (or this controller's nearest analog).
    /// Always finite.
    fn ssthresh(&self) -> f64 {
        self.window().ssthresh
    }

    /// Whether the controller considers itself still in its startup regime
    /// (`cwnd < ssthresh` for loss-based controllers, the `Startup` state
    /// for BBR). The fluid fast path refuses handoffs during startup.
    fn in_slow_start(&self) -> bool {
        self.cwnd() < self.ssthresh()
    }

    /// An explicit pacing rate in bits per second, if this controller paces
    /// (BBR). `None` means the caller should fall back to the classic
    /// `cwnd / srtt` estimate — returning `None` here is what keeps Reno's
    /// fluid handoffs byte-identical to the pre-refactor engine.
    fn pacing_rate_bps(&self) -> Option<u64> {
        None
    }
}

// --- Reno ----------------------------------------------------------------

/// NewReno (RFC 5681/6582) with optional RFC 6356 linked increase.
/// Everything but the increase and the two backoffs is the trait's provided
/// behaviour.
#[derive(Debug)]
pub(crate) struct Reno {
    w: Window,
}

impl Reno {
    /// Build from the transport configuration.
    pub(crate) fn new(cfg: &TransportConfig) -> Self {
        Reno {
            w: Window::new(cfg),
        }
    }
}

impl CongestionController for Reno {
    fn window(&self) -> &Window {
        &self.w
    }

    fn window_mut(&mut self) -> &mut Window {
        &mut self.w
    }

    fn on_ack(
        &mut self,
        newly_acked: u64,
        _now: SimTime,
        _rtt: &RttEstimator,
        lia: Option<LiaParams>,
    ) {
        let w = &mut self.w;
        let mss = w.mss;
        if w.cwnd < w.ssthresh {
            w.slow_start(newly_acked);
        } else {
            match lia {
                None => {
                    // Reno congestion avoidance.
                    w.cwnd += mss * (newly_acked as f64) / w.cwnd;
                }
                Some(p) => {
                    // RFC 6356 linked increase.
                    let total = p.total_cwnd_bytes.max(mss);
                    let coupled = p.alpha * (newly_acked as f64) * mss / total;
                    let uncoupled = (newly_acked as f64) * mss / w.cwnd;
                    w.cwnd += coupled.min(uncoupled);
                }
            }
        }
        // Never let cwnd collapse below one segment.
        w.cwnd = w.cwnd.max(mss);
    }

    fn on_loss(&mut self, flight: u64) {
        // The timeout's ssthresh (RFC 5681 eq. 4), then three segments of
        // inflation for the duplicate ACKs that signalled the loss.
        self.w.snapshot();
        self.on_rto(flight);
        self.w.cwnd = self.w.ssthresh + 3.0 * self.w.mss;
    }

    fn on_rto(&mut self, flight: u64) {
        let w = &mut self.w;
        w.ssthresh = (flight as f64 / 2.0).max(2.0 * w.mss);
        w.cwnd = w.mss;
    }
}

// --- CUBIC ---------------------------------------------------------------

/// RFC 8312's scaling constant `C`, in segments per second cubed.
const CUBIC_C: f64 = 0.4;
/// RFC 8312's multiplicative-decrease factor `β`.
const CUBIC_BETA: f64 = 0.7;

/// CUBIC (RFC 8312) with a delay-based hybrid slow start.
///
/// Window growth in congestion avoidance follows `W(t) = C·(t−K)³ + W_max`
/// (windows in bytes, `C` scaled by the MSS), concave below the last loss
/// point and convex beyond it. Slow start is Reno's byte-counted doubling,
/// exited early when the smoothed RTT inflates by more than an eighth over
/// the round-trip floor (the HyStart delay signal) — on fabrics whose queues
/// mark delay long before they drop, this leaves slow start without a loss.
/// Dup-ACK inflation and recovery exit are Reno's.
#[derive(Debug)]
pub(crate) struct Cubic {
    w: Window,
    /// Window size (bytes) at the last multiplicative decrease.
    w_max: f64,
    /// Time at which the current congestion-avoidance epoch started.
    epoch_start: Option<SimTime>,
    /// `K` for the current epoch: seconds from epoch start until the cubic
    /// reaches `w_max` again.
    k: f64,
}

impl Cubic {
    /// Build from the transport configuration.
    pub(crate) fn new(cfg: &TransportConfig) -> Self {
        Cubic {
            w: Window::new(cfg),
            w_max: 0.0,
            epoch_start: None,
            k: 0.0,
        }
    }

    /// `K = cbrt(W_max·(1−β) / (C·mss))`: seconds for the cubic to climb
    /// from the post-decrease window back to `W_max` (RFC 8312 §4.1, windows
    /// converted from segments to bytes).
    fn k_for(&self, w_max: f64, w_start: f64) -> f64 {
        ((w_max - w_start).max(0.0) / (CUBIC_C * self.w.mss)).cbrt()
    }

    /// The cubic window (bytes) `t` seconds into the current epoch.
    fn w_cubic(&self, t: f64) -> f64 {
        CUBIC_C * self.w.mss * (t - self.k).powi(3) + self.w_max
    }

    fn begin_epoch(&mut self, now: SimTime) {
        self.epoch_start = Some(now);
        if self.w_max < self.w.cwnd {
            // We grew past the old saturation point without a loss: restart
            // the cubic from here (RFC 8312's "w_max < cwnd" reset).
            self.w_max = self.w.cwnd;
        }
        self.k = self.k_for(self.w_max, self.w.cwnd);
    }
}

impl CongestionController for Cubic {
    fn window(&self) -> &Window {
        &self.w
    }

    fn window_mut(&mut self) -> &mut Window {
        &mut self.w
    }

    fn on_ack(
        &mut self,
        newly_acked: u64,
        now: SimTime,
        rtt: &RttEstimator,
        _lia: Option<LiaParams>,
    ) {
        if self.w.cwnd < self.w.ssthresh {
            self.w.slow_start(newly_acked);
            self.w.cwnd = self.w.cwnd.max(self.w.mss);
            return;
        }
        if self.epoch_start.is_none() {
            self.begin_epoch(now);
        }
        let start = self.epoch_start.expect("epoch just began");
        let srtt = rtt
            .srtt()
            .unwrap_or(SimDuration::from_micros(100))
            .as_secs_f64();
        // Target the cubic one RTT ahead; approach it at (target−cwnd)/cwnd
        // per ACKed segment, the standard per-ACK discretisation.
        let t = (now - start).as_secs_f64() + srtt;
        let target = self.w_cubic(t).min(self.w.cwnd * 1.5);
        let w = &mut self.w;
        let acked_segments = (newly_acked as f64 / w.mss).max(1.0);
        if target > w.cwnd {
            w.cwnd += (target - w.cwnd) / w.cwnd * w.mss * acked_segments;
        } else {
            // Plateau region: creep forward so the flow is never stalled
            // (RFC 8312 grows by at least 1 segment per 100 RTTs; one byte
            // per segment-ACK is the same order at these window sizes).
            w.cwnd += w.mss * acked_segments / w.cwnd.max(w.mss);
        }
        w.cwnd = w.cwnd.max(w.mss);
    }

    fn on_loss(&mut self, flight: u64) {
        // The timeout's decrease, keeping `β·cwnd` as the window.
        self.w.snapshot();
        self.on_rto(flight);
        self.w.cwnd = self.w.ssthresh;
    }

    fn on_ecn(&mut self, penalty: f64) {
        self.w_max = self.w.cwnd;
        self.w.cut(penalty);
        self.epoch_start = None;
    }

    fn on_rto(&mut self, _flight: u64) {
        self.w_max = self.w.cwnd;
        self.w.ssthresh = (self.w.cwnd * CUBIC_BETA).max(2.0 * self.w.mss);
        self.w.cwnd = self.w.mss;
        self.epoch_start = None;
    }

    fn on_round_trip(&mut self, _now: SimTime, rtt: &RttEstimator) {
        // Hybrid slow start, delay signal: once the smoothed RTT exceeds the
        // propagation floor by an eighth (clamped to [4 µs, 16 ms]), queues
        // are building — exit slow start before the overshoot loss.
        if self.w.cwnd < self.w.ssthresh {
            if let (Some(srtt), Some(base)) = (rtt.srtt(), rtt.min_rtt()) {
                let eta = (base / 8)
                    .max(SimDuration::from_micros(4))
                    .min(SimDuration::from_millis(16));
                if srtt > base + eta {
                    self.w.ssthresh = self.w.cwnd;
                }
            }
        }
    }

    fn undo(&mut self) {
        self.w.restore();
        self.w_max = self.w_max.max(self.w.cwnd);
        self.epoch_start = None;
    }
}

// --- BBR -----------------------------------------------------------------

/// A max filter over the last `N` rounds: each slot holds the best sample of
/// one round window, and the estimate is the best across the window. The
/// three-slot layout (best, second-best from a later round, third-best from
/// a later round still) is the classic windowed-minmax structure: when the
/// best sample ages out, the runners-up are already in place.
#[derive(Debug, Clone, Copy)]
struct WindowedMaxFilter {
    /// (sample value, round it was taken in), best first.
    slots: [(f64, u64); 3],
    /// Window length in rounds.
    window: u64,
}

impl WindowedMaxFilter {
    /// An empty filter over a `window`-round horizon.
    fn new(window: u64) -> Self {
        WindowedMaxFilter {
            slots: [(0.0, 0); 3],
            window,
        }
    }

    /// Incorporate one sample taken during `round` (the windowed running-max
    /// update of Linux's `lib/minmax.c`, with rounds as the clock).
    fn update(&mut self, sample: f64, round: u64) {
        let s = &mut self.slots;
        // A new overall max, or nothing left in the window: restart.
        if sample >= s[0].0 || round.saturating_sub(s[2].1) > self.window {
            *s = [(sample, round); 3];
            return;
        }
        if sample >= s[1].0 {
            s[1] = (sample, round);
            s[2] = (sample, round);
        } else if sample >= s[2].0 {
            s[2] = (sample, round);
        }
        let dt = round.saturating_sub(s[0].1);
        if dt > self.window {
            // The best aged out: promote the runners-up.
            s[0] = s[1];
            s[1] = s[2];
            s[2] = (sample, round);
            if round.saturating_sub(s[0].1) > self.window {
                s[0] = s[1];
                s[1] = s[2];
            }
        } else if s[1].1 == s[0].1 && dt > self.window / 4 {
            // A quarter of the window passed with no distinct runner-up:
            // take this sample so the estimate can decay when the best ages.
            s[1] = (sample, round);
            s[2] = (sample, round);
        } else if s[2].1 == s[1].1 && dt > self.window / 2 {
            s[2] = (sample, round);
        }
    }

    /// The current windowed maximum (0 before any sample).
    fn get(&self) -> f64 {
        self.slots[0].0
    }
}

/// BBR's startup/drain/probe states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BbrState {
    /// Exponential search for the bottleneck bandwidth (2.89× pacing gain).
    Startup,
    /// One round at gain < 1 to drain the queue startup built.
    Drain,
    /// Steady state: an 8-phase gain cycle probing for more bandwidth.
    ProbeBw(usize),
}

/// BBR's startup pacing gain, `2/ln(2)`.
const BBR_STARTUP_GAIN: f64 = 2.885;
/// The probe-bandwidth pacing-gain cycle (RFC draft-cardwell-iccrg-bbr).
const BBR_PROBE_GAINS: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// The cwnd gain over the BDP, the same in every state.
const BBR_CWND_GAIN: f64 = 2.0;
/// Bandwidth filter window, in round trips.
const BBR_BW_WINDOW_ROUNDS: u64 = 10;

/// BBR-style model-based congestion control.
///
/// Instead of reacting to loss, BBR maintains an explicit model of the path
/// — bottleneck bandwidth from a [`WindowedMaxFilter`] over per-ACK delivery
/// rate samples (`newly_acked / latest_rtt`), propagation delay from the
/// [`RttEstimator`]'s min-RTT tracking — and keeps
/// `cwnd = BBR_CWND_GAIN × BDP` while pacing at `pacing_gain × BtlBw`. Loss
/// and RTO apply only a conservative 0.7 backoff so the model, not the loss
/// signal, dominates steady state; ECN takes Reno's cut with `ssthresh`
/// floored at two MSS. The undo is Reno's.
#[derive(Debug)]
pub(crate) struct Bbr {
    w: Window,
    state: BbrState,
    /// Bottleneck-bandwidth estimate, bits per second, max-filtered.
    bw_filter: WindowedMaxFilter,
    /// Completed round trips (drives filter aging and the gain cycle).
    round: u64,
    /// Best bandwidth seen when the startup plateau check last advanced.
    full_bw_bps: f64,
    /// Consecutive rounds without 25% bandwidth growth.
    full_bw_rounds: u32,
}

impl Bbr {
    /// Build from the transport configuration.
    pub(crate) fn new(cfg: &TransportConfig) -> Self {
        Bbr {
            w: Window::new(cfg),
            state: BbrState::Startup,
            bw_filter: WindowedMaxFilter::new(BBR_BW_WINDOW_ROUNDS),
            round: 0,
            full_bw_bps: 0.0,
            full_bw_rounds: 0,
        }
    }

    fn pacing_gain(&self) -> f64 {
        match self.state {
            BbrState::Startup => BBR_STARTUP_GAIN,
            BbrState::Drain => 1.0 / BBR_STARTUP_GAIN,
            BbrState::ProbeBw(phase) => BBR_PROBE_GAINS[phase % BBR_PROBE_GAINS.len()],
        }
    }

    /// Bandwidth-delay product in bytes, from the filtered bandwidth and the
    /// min-RTT propagation estimate. Zero until both exist.
    fn bdp_bytes(&self, rtt: &RttEstimator) -> f64 {
        let bw = self.bw_filter.get();
        match rtt.min_rtt() {
            Some(min) if bw > 0.0 => bw / 8.0 * min.as_secs_f64(),
            _ => 0.0,
        }
    }
}

impl CongestionController for Bbr {
    fn window(&self) -> &Window {
        &self.w
    }

    fn window_mut(&mut self) -> &mut Window {
        &mut self.w
    }

    fn on_ack(
        &mut self,
        newly_acked: u64,
        _now: SimTime,
        rtt: &RttEstimator,
        _lia: Option<LiaParams>,
    ) {
        // Delivery-rate sample: bytes this ACK covered over the RTT it took.
        if let Some(sample_rtt) = rtt.latest_rtt() {
            let secs = sample_rtt.as_secs_f64().max(1e-9);
            let bw_bps = newly_acked as f64 * 8.0 / secs;
            self.bw_filter.update(bw_bps, self.round);
        }
        let bdp = self.bdp_bytes(rtt);
        let w = &mut self.w;
        if bdp > 0.0 {
            let target = (BBR_CWND_GAIN * bdp).max(4.0 * w.mss);
            if w.cwnd < target {
                // Grow at most one-for-one with delivered data toward the
                // target (never a step jump past it).
                w.cwnd = (w.cwnd + newly_acked as f64).min(target);
            } else {
                // Model says the window is too big (e.g. after a gain-cycle
                // phase ends or min-RTT drops): deflate gently.
                w.cwnd = (w.cwnd - (w.cwnd - target).min(newly_acked as f64)).max(4.0 * w.mss);
            }
        } else {
            // No model yet: slow-start-like growth to feed the filter.
            w.slow_start(newly_acked);
        }
        w.cwnd = w.cwnd.max(w.mss);
    }

    fn on_dup_ack(&mut self) {
        // The model, not dup-ACK inflation, sizes the window.
    }

    fn on_loss(&mut self, flight: u64) {
        // Conservative backoff: BBR does not treat loss as a primary signal,
        // but drop-tail fabrics need the queue released.
        self.on_rto(flight);
        self.w.cwnd = self.w.ssthresh;
    }

    fn on_recovery_exit(&mut self) {
        // Let the model re-inflate via on_ack; nothing to deflate.
    }

    fn on_ecn(&mut self, penalty: f64) {
        self.w.cut(penalty);
        self.w.ssthresh = self.w.ssthresh.max(2.0 * self.w.mss);
    }

    fn on_rto(&mut self, _flight: u64) {
        let w = &mut self.w;
        w.snapshot();
        w.ssthresh = (w.cwnd * 0.7).max(2.0 * w.mss);
        w.cwnd = w.mss;
    }

    fn on_round_trip(&mut self, _now: SimTime, _rtt: &RttEstimator) {
        self.round += 1;
        match self.state {
            BbrState::Startup => {
                // Plateau detection: three rounds without 25% growth in the
                // filtered bandwidth means the pipe is full.
                let bw = self.bw_filter.get();
                if bw > self.full_bw_bps * 1.25 {
                    self.full_bw_bps = bw;
                    self.full_bw_rounds = 0;
                } else if bw > 0.0 {
                    self.full_bw_rounds += 1;
                    if self.full_bw_rounds >= 3 {
                        self.state = BbrState::Drain;
                    }
                }
            }
            BbrState::Drain => {
                // One full round at the drain gain empties the startup queue
                // (the simulator's ACK clocking makes inflight ≈ cwnd, so a
                // round at gain < 1 is the deterministic drain criterion).
                self.state = BbrState::ProbeBw(0);
            }
            BbrState::ProbeBw(phase) => {
                self.state = BbrState::ProbeBw((phase + 1) % BBR_PROBE_GAINS.len());
            }
        }
    }

    fn in_slow_start(&self) -> bool {
        self.state == BbrState::Startup
    }

    fn pacing_rate_bps(&self) -> Option<u64> {
        let bw = self.bw_filter.get();
        if bw > 0.0 {
            Some((bw * self.pacing_gain()) as u64)
        } else {
            None
        }
    }
}

// --- DCTCP / D²TCP as a responder layer ----------------------------------

/// DCTCP's ECN response, layered on any [`CongestionController`].
///
/// Accumulates marked/total acknowledged bytes per round trip; at each round
/// end it updates the running marked-fraction estimate
/// `α ← (1−g)·α + g·frac` and, if any byte was marked, applies the penalty
/// `α^d` through [`CongestionController::on_ecn`]. `d = 1` is plain DCTCP;
/// D²TCP's deadline-aware gamma correction sets `d = Tc/D` per ACK.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EcnResponder {
    alpha: f64,
    penalty_exponent: f64,
    marked_bytes: u64,
    total_bytes: u64,
}

/// DCTCP's EWMA gain `g` for the marked-fraction estimate.
const DCTCP_G: f64 = 1.0 / 16.0;

impl EcnResponder {
    /// A responder with a unit penalty exponent (plain DCTCP).
    pub(crate) fn new() -> Self {
        EcnResponder {
            alpha: 0.0,
            penalty_exponent: 1.0,
            marked_bytes: 0,
            total_bytes: 0,
        }
    }

    /// The running marked-fraction estimate α.
    #[cfg(test)]
    pub(crate) fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The current penalty exponent `d`.
    #[cfg(test)]
    pub(crate) fn penalty_exponent(&self) -> f64 {
        self.penalty_exponent
    }

    /// Set D²TCP's deadline-imminence exponent `d` (clamped to a sane range;
    /// 1.0 reproduces plain DCTCP). Values below 1 make the flow hold its
    /// window near a deadline; values above 1 make it yield.
    pub(crate) fn set_penalty_exponent(&mut self, d: f64) {
        self.penalty_exponent = d.clamp(0.25, 4.0);
    }

    /// Account one advancing ACK's bytes (and whether they were marked).
    pub(crate) fn on_ack(&mut self, newly_acked: u64, marked: bool) {
        self.total_bytes += newly_acked;
        if marked {
            self.marked_bytes += newly_acked;
        }
    }

    /// A round trip ended: fold the round's marked fraction into α and, if
    /// anything was marked, apply the (gamma-corrected) penalty to `cc`.
    pub(crate) fn on_round_end(&mut self, cc: &mut dyn CongestionController) {
        if self.total_bytes > 0 {
            let frac = self.marked_bytes as f64 / self.total_bytes as f64;
            self.alpha = (1.0 - DCTCP_G) * self.alpha + DCTCP_G * frac;
            if self.marked_bytes > 0 {
                // DCTCP reduces by alpha/2; D²TCP gamma-corrects the
                // penalty with the deadline-imminence exponent.
                let penalty = self.alpha.powf(self.penalty_exponent);
                cc.on_ecn(penalty);
            }
        }
        self.total_bytes = 0;
        self.marked_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{case_rng, CASES};

    const MSS: f64 = 1400.0;

    fn cfg() -> TransportConfig {
        TransportConfig::default()
    }

    fn rtt_with(sample_us: u64) -> RttEstimator {
        let mut r = RttEstimator::new(
            SimDuration::from_millis(200),
            SimDuration::from_secs(1),
            SimDuration::from_secs(60),
        );
        r.on_sample(SimDuration::from_micros(sample_us));
        r
    }

    #[test]
    fn axis_labels_round_trip() {
        for cc in [
            CongestionControl::Reno,
            CongestionControl::Cubic,
            CongestionControl::Bbr,
        ] {
            assert_eq!(CongestionControl::parse(cc.name()), Some(cc));
        }
        assert_eq!(CongestionControl::parse("vegas"), None);
        assert_eq!(CongestionControl::default(), CongestionControl::Reno);
    }

    #[test]
    fn reno_matches_the_legacy_arithmetic() {
        let mut reno = Reno::new(&cfg());
        let rtt = rtt_with(100);
        reno.on_established(SimTime::ZERO, &rtt);
        assert_eq!(reno.cwnd(), 10.0 * MSS);
        // Slow start: ABC-limited doubling.
        reno.on_ack(3 * 1400, SimTime::ZERO, &rtt, None);
        assert_eq!(reno.cwnd(), 10.0 * MSS + 2.0 * MSS);
        // Fast retransmit from 20 segments in flight.
        let before = reno.cwnd();
        reno.on_loss(20 * 1400);
        assert_eq!(reno.ssthresh(), 10.0 * MSS);
        assert_eq!(reno.cwnd(), 13.0 * MSS);
        reno.undo();
        assert_eq!(reno.cwnd(), before);
        // RTO collapses to one segment.
        reno.on_rto(20 * 1400);
        assert_eq!(reno.cwnd(), MSS);
        assert_eq!(reno.ssthresh(), 10.0 * MSS);
    }

    #[test]
    fn cubic_epoch_math_reaches_w_max_at_k() {
        let mut cubic = Cubic::new(&cfg());
        let rtt = rtt_with(100);
        cubic.on_established(SimTime::ZERO, &rtt);
        cubic.w.ssthresh = cubic.cwnd(); // force congestion avoidance
        cubic.on_loss(0);
        let w_max = cubic.w_max;
        assert!(w_max > 0.0);
        // Start an epoch and check the analytic invariants of W(t).
        cubic.begin_epoch(SimTime::from_millis(10));
        let k = cubic.k;
        assert!(k > 0.0, "K must be positive after a backoff");
        // W(K) = w_max exactly; W is monotone around K.
        assert!((cubic.w_cubic(k) - w_max).abs() < 1e-6);
        assert!(cubic.w_cubic(0.0) < w_max);
        assert!(cubic.w_cubic(2.0 * k) > w_max);
        // K matches the closed form cbrt(w_max(1-beta)/(C*mss)).
        let expected_k = ((w_max - cubic.w.cwnd) / (CUBIC_C * MSS)).cbrt();
        assert!((k - expected_k).abs() < 1e-9);
    }

    #[test]
    fn cubic_grows_toward_target_and_respects_floor() {
        let mut cubic = Cubic::new(&cfg());
        let rtt = rtt_with(100);
        cubic.on_established(SimTime::ZERO, &rtt);
        cubic.w.ssthresh = cubic.cwnd() / 2.0;
        let before = cubic.cwnd();
        cubic.on_ack(1400, SimTime::from_millis(1), &rtt, None);
        assert!(cubic.cwnd() > before, "CA must make progress");
        cubic.on_rto(0);
        assert_eq!(cubic.cwnd(), MSS);
        assert!(cubic.ssthresh() >= 2.0 * MSS);
    }

    #[test]
    fn cubic_hystart_exits_on_delay_inflation() {
        let mut cubic = Cubic::new(&cfg());
        let mut rtt = rtt_with(100);
        cubic.on_established(SimTime::ZERO, &rtt);
        assert!(cubic.in_slow_start());
        // RTT inflates well past base + base/8: slow start must end.
        for _ in 0..20 {
            rtt.on_sample(SimDuration::from_micros(400));
        }
        cubic.on_round_trip(SimTime::from_millis(1), &rtt);
        assert!(!cubic.in_slow_start(), "HyStart must exit on delay");
        assert_eq!(cubic.ssthresh(), cubic.cwnd());
    }

    #[test]
    fn windowed_max_filter_tracks_and_ages() {
        let mut f = WindowedMaxFilter::new(4);
        f.update(100.0, 1);
        assert_eq!(f.get(), 100.0);
        f.update(50.0, 2);
        assert_eq!(f.get(), 100.0, "smaller sample must not displace the max");
        f.update(200.0, 3);
        assert_eq!(f.get(), 200.0, "larger sample replaces immediately");
        // Round 3's 200 stays the max until round 8 (window 4): feed smaller
        // samples and watch the old max age out.
        f.update(80.0, 6);
        assert_eq!(f.get(), 200.0);
        f.update(70.0, 9);
        assert_eq!(
            f.get(),
            80.0,
            "expired max must yield to the best runner-up"
        );
        f.update(60.0, 20);
        assert_eq!(f.get(), 60.0, "everything older expired");
    }

    #[test]
    fn bbr_walks_startup_drain_probe() {
        let mut bbr = Bbr::new(&cfg());
        let rtt = rtt_with(100);
        bbr.on_established(SimTime::ZERO, &rtt);
        assert!(bbr.in_slow_start());
        // A steady bandwidth plateau: startup must end within a few rounds.
        for round in 0..8 {
            bbr.on_ack(14_000, SimTime::from_millis(round), &rtt, None);
            bbr.on_round_trip(SimTime::from_millis(round), &rtt);
        }
        assert!(!bbr.in_slow_start(), "plateau must end startup");
        assert!(matches!(bbr.state, BbrState::ProbeBw(_)));
        // The model exports a pacing rate once the filter has samples.
        let pace = bbr.pacing_rate_bps().expect("pacing rate after samples");
        assert!(pace > 0);
        assert!(bbr.bw_filter.get() > 0.0);
    }

    #[test]
    fn bbr_cwnd_tracks_the_bdp_target() {
        let mut bbr = Bbr::new(&cfg());
        let rtt = rtt_with(100);
        bbr.on_established(SimTime::ZERO, &rtt);
        for i in 0..50 {
            bbr.on_ack(14_000, SimTime::from_micros(100 * i), &rtt, None);
        }
        let bdp = bbr.bdp_bytes(&rtt);
        assert!(bdp > 0.0);
        assert!(
            bbr.cwnd() <= (2.0 * bdp).max(4.0 * MSS) + 1e-6,
            "cwnd {} exceeds gain*BDP {}",
            bbr.cwnd(),
            2.0 * bdp
        );
    }

    #[test]
    fn ecn_responder_reproduces_dctcp_alpha() {
        let mut r = EcnResponder::new();
        let mut cc = Reno::new(&cfg());
        let rtt = rtt_with(100);
        cc.on_established(SimTime::ZERO, &rtt);
        // A fully-marked round: alpha moves by g, window shrinks.
        r.on_ack(14_000, true);
        let before = cc.cwnd();
        r.on_round_end(&mut cc);
        assert!((r.alpha() - 1.0 / 16.0).abs() < 1e-12);
        assert!(cc.cwnd() < before);
        assert_eq!(cc.ssthresh(), cc.cwnd());
        // An unmarked round: alpha decays, no reduction.
        r.on_ack(14_000, false);
        let before = cc.cwnd();
        r.on_round_end(&mut cc);
        assert!(r.alpha() < 1.0 / 16.0);
        assert_eq!(cc.cwnd(), before);
        // Penalty exponent clamps.
        r.set_penalty_exponent(100.0);
        assert_eq!(r.penalty_exponent(), 4.0);
        r.set_penalty_exponent(0.0);
        assert_eq!(r.penalty_exponent(), 0.25);
    }

    /// Every controller keeps its state sane under any interleaving of ACK,
    /// dup-ACK, fast-retransmit loss, ECN, RTO, round-trip and undo events:
    ///
    /// * `cwnd` stays finite and never drops below 1 MSS, the universal
    ///   floor. (2 MSS holds right after a fast-retransmit loss, and is
    ///   asserted there; it cannot hold universally because RFC 5681
    ///   collapses the window to one segment on an RTO, and a DCTCP-style
    ///   ECN response may pin `ssthresh = cwnd` below 2 MSS.)
    /// * `ssthresh` stays finite and strictly positive.
    /// * The advertised pacing rate, when present, is a positive number of bps.
    #[test]
    fn congestion_controllers_keep_their_state_sane_under_random_events() {
        let cfg = cfg();
        let mss = cfg.mss as f64;
        let controllers = [
            CongestionControl::Reno,
            CongestionControl::Cubic,
            CongestionControl::Bbr,
        ];
        for case in 0..CASES {
            for (ci, cc) in controllers.iter().enumerate() {
                let mut params = case_rng(7, case * 8 + ci as u64);
                let mut rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto, cfg.max_rto);
                let mut now = SimTime::from_millis(1);
                let mut ctl = cc.build(&cfg);
                ctl.on_established(now, &rtt);
                for step in 0..200u32 {
                    now += SimDuration::from_micros(params.range(1u64..5_000));
                    if params.chance(0.7) {
                        rtt.on_sample(SimDuration::from_micros(params.range(20u64..5_000)));
                    }
                    let flight = params.range(0u64..400_000);
                    let at = || format!("{} case={case} step={step}", cc.name());
                    match params.range(0u32..100) {
                        0..=44 => {
                            let newly = params.range(1u64..(3 * cfg.mss as u64));
                            ctl.on_ack(newly, now, &rtt, None);
                        }
                        45..=54 => ctl.on_dup_ack(),
                        55..=64 => {
                            ctl.on_loss(flight);
                            let w = ctl.cwnd();
                            assert!(w >= 2.0 * mss, "{}: cwnd {w} < 2 MSS after a loss", at());
                        }
                        65..=72 => ctl.on_recovery_exit(),
                        73..=80 => {
                            let penalty = params.range(0u64..=1_000) as f64 / 1_000.0;
                            ctl.on_ecn(penalty);
                        }
                        81..=87 => ctl.on_rto(flight),
                        88..=94 => ctl.on_round_trip(now, &rtt),
                        _ => ctl.undo(),
                    }
                    let (w, s) = (ctl.cwnd(), ctl.ssthresh());
                    assert!(w.is_finite() && w >= mss, "{}: cwnd {w} < 1 MSS", at());
                    assert!(s.is_finite() && s > 0.0, "{}: ssthresh {s}", at());
                    let rate = ctl.pacing_rate_bps();
                    assert!(rate != Some(0), "{}: zero pacing rate advertised", at());
                }
            }
        }
    }

    #[test]
    fn fluid_mapping_is_total() {
        assert_eq!(CongestionControl::Reno.fluid(), FluidCc::Reno);
        assert_eq!(CongestionControl::Cubic.fluid(), FluidCc::Cubic);
        assert_eq!(CongestionControl::Bbr.fluid(), FluidCc::Bbr);
    }
}
