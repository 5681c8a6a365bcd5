//! Behaviour pin for every sender variant the golden scenarios do not fully
//! cover. Each case drives one sender through the loopback harness, once on
//! a lossless network and once under a deterministic drop pattern (both with
//! an ECN-marking predicate, which only ECN-capable senders notice), and
//! digests everything the sender did: the `(time, packet)` emission
//! sequence, the timers it armed, the fluid handoffs it requested and the
//! signal sequence. The digests were recorded at commit e4924ed, before the
//! five sender structs became policies over one `Connection`; a refactor of
//! the senders must not change any of them. Rows were later deleted with the
//! options they set (21 of 24 MPTCP scheduler × coupling × join rows); none
//! was re-recorded.

use netsim::{
    Addr, Agent, AgentCtx, AgentEvent, FlowId, Packet, PacketKind, SimDuration, SimRng, SimTime,
};
use std::fmt::{Debug, Write};
use transport::subflow::LiaParams;
use transport::testing::Loopback;
use transport::{
    CongestionControl, D2tcpSender, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpSender,
    RepFlowConfig, RepFlowSender, RttEstimator, SwitchStrategy, TcpSender, TransportConfig,
};

/// `Loopback` is generic over the sender type; the table holds them boxed.
struct Boxed(Box<dyn Agent>);

impl Agent for Boxed {
    fn handle(&mut self, ctx: &mut AgentCtx<'_>, event: AgentEvent) {
        self.0.handle(ctx, event);
    }
}

struct Case {
    name: String,
    /// Hybrid-engine elephant threshold shown to the sender, if any.
    fluid_threshold: Option<u64>,
    build: Box<dyn Fn() -> Box<dyn Agent>>,
}

const FLOW: FlowId = FlowId(1);
const SRC: Addr = Addr(0);
const DST: Addr = Addr(1);
const SPORT: u16 = 50_000;
const DPORT: u16 = 80;

fn case(name: &str, build: impl Fn() -> Box<dyn Agent> + 'static) -> Case {
    Case {
        name: name.to_string(),
        fluid_threshold: None,
        build: Box::new(build),
    }
}

fn tcp(cfg: TransportConfig, total: u64) -> impl Fn() -> Box<dyn Agent> {
    move || {
        Box::new(TcpSender::new(
            cfg,
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            Some(total),
        ))
    }
}

fn d2tcp(deadline: Option<SimDuration>, total: u64) -> impl Fn() -> Box<dyn Agent> {
    move || {
        Box::new(D2tcpSender::new(
            TransportConfig::default(),
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            Some(total),
            deadline,
        ))
    }
}

fn mptcp(cfg: MptcpConfig, total: u64) -> impl Fn() -> Box<dyn Agent> {
    move || {
        Box::new(MptcpSender::new(
            cfg,
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            Some(total),
        ))
    }
}

fn mmptcp(cfg: MmptcpConfig, total: u64) -> impl Fn() -> Box<dyn Agent> {
    move || {
        Box::new(MmptcpSender::new(
            cfg,
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            Some(total),
        ))
    }
}

fn repflow(cfg: RepFlowConfig, total: u64) -> impl Fn() -> Box<dyn Agent> {
    move || {
        Box::new(RepFlowSender::new(
            cfg,
            FLOW,
            SRC,
            DST,
            SPORT,
            DPORT,
            Some(total),
            4,
        ))
    }
}

fn cases() -> Vec<Case> {
    let mut cases = vec![
        case("tcp", tcp(TransportConfig::default(), 300_000)),
        case("dctcp", tcp(TransportConfig::dctcp(), 300_000)),
        case("d2tcp", d2tcp(None, 300_000)),
        case(
            "d2tcp-deadline",
            d2tcp(Some(SimDuration::from_millis(3)), 300_000),
        ),
    ];
    for n in [1, 4, 8] {
        let name = format!("mptcp-{n}");
        cases.push(case(&name, mptcp(MptcpConfig::with_subflows(n), 400_000)));
    }
    let mmptcp4 = |switch| MmptcpConfig {
        switch,
        num_subflows: 4,
        ..MmptcpConfig::default()
    };
    for (label, switch) in [
        ("data-volume", SwitchStrategy::DataVolume(100_000)),
        ("congestion-event", SwitchStrategy::CongestionEvent),
        ("never", SwitchStrategy::Never),
    ] {
        let name = format!("mmptcp/{label}");
        cases.push(case(&name, mmptcp(mmptcp4(switch), 400_000)));
    }
    let (rep, syn) = (RepFlowConfig::default(), RepFlowConfig::repsyn());
    cases.push(case("repflow", repflow(rep, 70_000)));
    cases.push(case("repsyn", repflow(syn, 70_000)));
    cases.push(case("repflow-elephant", repflow(rep, 300_000)));
    // The hybrid engine's view: a 2 MB flow above a 100 KB elephant threshold.
    let fluid = [
        case("tcp+fluid", tcp(TransportConfig::default(), 2_000_000)),
        case(
            "mptcp-4+fluid",
            mptcp(MptcpConfig::with_subflows(4), 2_000_000),
        ),
        case(
            "mmptcp+fluid",
            mmptcp(mmptcp4(SwitchStrategy::default()), 2_000_000),
        ),
    ];
    cases.extend(fluid.into_iter().map(|c| Case {
        fluid_threshold: Some(100_000),
        ..c
    }));
    let under = |cc, cfg: TransportConfig| TransportConfig { cc, ..cfg };
    let controllers = [
        (
            "tcp/cubic",
            under(CongestionControl::Cubic, TransportConfig::default()),
        ),
        (
            "tcp/bbr",
            under(CongestionControl::Bbr, TransportConfig::default()),
        ),
        (
            "dctcp/cubic",
            under(CongestionControl::Cubic, TransportConfig::dctcp()),
        ),
    ];
    for (name, cfg) in controllers {
        cases.push(case(name, tcp(cfg, 300_000)));
    }
    cases
}

/// FNV-1a over the `Debug` rendering of everything recorded.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, item: &impl Debug) {
        let mut text = String::new();
        write!(text, "{item:?};").expect("writing to a String cannot fail");
        for byte in text.bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Drive one case to the end and digest the recording. With `lossy`, every
/// 13th packet the sender emits (SYNs included) is dropped.
fn digest(case: &Case, lossy: bool) -> u64 {
    let mut l = Loopback::new(FLOW, Boxed((case.build)()));
    l.fluid_threshold = case.fluid_threshold;
    let mut emitted = 0u64;
    let mut drop = |_: &Packet| {
        emitted += 1;
        lossy && emitted % 13 == 5
    };
    let mark = |p: &Packet| p.kind == PacketKind::Data && (p.seq / 1400).is_multiple_of(3);
    l.start();
    for _ in 0..20_000 {
        if l.is_completed() {
            break;
        }
        l.round_with(&mut drop, mark);
        // Stand in for the fluid engine: five rounds after a handoff the
        // remainder is reported delivered.
        if let Some((at, handoff)) = l.handoffs.first() {
            if l.now >= *at + SimDuration::from_millis(1) {
                let bytes = handoff.remaining;
                l.deliver(AgentEvent::FluidComplete { bytes });
            }
        }
    }
    assert!(
        l.is_completed(),
        "{} (lossy={lossy}) must finish",
        case.name
    );
    // A finished sender stays silent: drain what is in flight, fire what is
    // armed, finalize.
    for _ in 0..3 {
        l.round(|_| false);
    }
    l.deliver(AgentEvent::Finalize);

    let mut d = Digest::new();
    l.sent.iter().for_each(|x| d.add(x));
    l.armed.iter().for_each(|x| d.add(x));
    l.handoffs.iter().for_each(|x| d.add(x));
    l.signals.iter().for_each(|x| d.add(x));
    d.add(&l.now);
    d.0
}

/// `case lossless-digest lossy-digest`, recorded at commit e4924ed. The
/// last three rows and [`CONTROLLER_SCRIPTS`] were recorded at ce478f9.
const EXPECTED: &str = "\
tcp 62a5ae10e96936c4 e4dc054aef8741e5
dctcp be936200e620fd75 70c02b48f91502c0
d2tcp be936200e620fd75 70c02b48f91502c0
d2tcp-deadline d01d04bc82680903 b708a60fe512ee87
mptcp-1 575dc337377a82d9 4d23d4d992d8ea99
mptcp-4 0630e0415c89d601 c1f301caa5b3ee40
mptcp-8 1ade1de2df45eb68 6a507814bd06ebb4
mmptcp/data-volume 6516410cef7c2fdf 5dd75afd89849a72
mmptcp/congestion-event 06bcf6131d97ae2e 0b8907ba426e89ca
mmptcp/never 06bcf6131d97ae2e d34b4a02455b4375
repflow aed110b9e72d1a28 55f9bdcb9a78b71c
repsyn fe34b8df265f839d 8e3887fb7ee7bb19
repflow-elephant 62a5ae10e96936c4 e4dc054aef8741e5
tcp+fluid ea6d133f96f780b1 3ba2436d4ebb57f8
mptcp-4+fluid 9792f2be423d7c59 96b4baf8878637e6
mmptcp+fluid 93d81952ab1e4519 359e19fe9f9588c0
tcp/cubic 62a5ae10e96936c4 f5ac0a04387c5b2b
tcp/bbr 3ea8f7521461fa41 ed71576a364e3132
dctcp/cubic 76ca8c0000634eb8 9b0223f1869ffdf6
";

#[test]
fn every_sender_variant_behaves_exactly_as_recorded() {
    let mut table = String::new();
    for case in cases() {
        let (lossless, lossy) = (digest(&case, false), digest(&case, true));
        writeln!(table, "{} {lossless:016x} {lossy:016x}", case.name)
            .expect("writing to a String cannot fail");
    }
    let changed: Vec<&str> = table
        .lines()
        .zip(EXPECTED.lines())
        .filter(|(now, then)| now != then)
        .map(|(now, _)| now)
        .collect();
    assert!(
        table == EXPECTED,
        "sender behaviour changed for {changed:#?}; the digests are now:\n{table}"
    );
}

/// The hooks a controller script calls, in the order [`script`] numbers them.
const HOOKS: [&str; 9] = [
    "on_established",
    "on_ack",
    "on_dup_ack",
    "on_loss",
    "on_recovery_exit",
    "on_ecn",
    "on_rto",
    "on_round_trip",
    "undo",
];

/// Drive one controller through a seeded random sequence of hook calls and
/// digest the window after each: `cwnd`, `ssthresh` (as bits),
/// `in_slow_start` and `pacing_rate_bps`. Every hook is called, `on_ack`
/// with and without RFC 6356 coupling, and `undo` follows a fast
/// retransmit, an RTO and an ECN cut at least once each.
fn script(cc: CongestionControl) -> u64 {
    let cfg = TransportConfig {
        cc,
        ..TransportConfig::default()
    };
    let mut rng = SimRng::new(0xcc);
    let mut rtt = RttEstimator::new(cfg.min_rto, cfg.initial_rto, cfg.max_rto);
    let mut now = SimTime::from_millis(1);
    let mut ctl = cc.build(&cfg);
    let mut called = [false; HOOKS.len()];
    let mut undone_after = [false; HOOKS.len()];
    let mut prev = 0;
    let mut d = Digest::new();
    for _ in 0..3_000 {
        now += SimDuration::from_micros(rng.range(1u64..2_000));
        if rng.chance(0.6) {
            rtt.on_sample(SimDuration::from_micros(rng.range(50u64..500)));
        }
        let flight = rng.range(0u64..400_000);
        // `on_established` opens the window once; later draws skip it.
        let hook = if called[0] {
            rng.range(1..HOOKS.len())
        } else {
            0
        };
        match hook {
            0 => ctl.on_established(now, &rtt),
            1 => {
                let newly = rng.range(1u64..8 * cfg.mss as u64);
                let lia = rng.chance(0.3).then(|| LiaParams {
                    alpha: rng.range(1u64..=1_000) as f64 / 500.0,
                    total_cwnd_bytes: rng.range(0u64..2_000_000) as f64,
                });
                ctl.on_ack(newly, now, &rtt, lia);
            }
            2 => ctl.on_dup_ack(),
            3 => ctl.on_loss(flight),
            4 => ctl.on_recovery_exit(),
            5 => ctl.on_ecn(rng.range(0u64..=1_000) as f64 / 1_000.0),
            6 => ctl.on_rto(flight),
            7 => ctl.on_round_trip(now, &rtt),
            _ => {
                ctl.undo();
                undone_after[prev] = true;
            }
        }
        called[hook] = true;
        prev = hook;
        d.add(&(
            HOOKS[hook],
            ctl.cwnd().to_bits(),
            ctl.ssthresh().to_bits(),
            ctl.in_slow_start(),
            ctl.pacing_rate_bps(),
        ));
    }
    for (i, name) in HOOKS.iter().enumerate() {
        assert!(called[i], "{} script never calls {name}", cc.name());
    }
    for after in [3, 5, 6] {
        assert!(
            undone_after[after],
            "{} script never undoes right after {}",
            cc.name(),
            HOOKS[after]
        );
    }
    d.0
}

/// `controller script-digest`, recorded at commit ce478f9.
const CONTROLLER_SCRIPTS: &str = "\
reno b82edae29ae09509
cubic 05655f4b0dd788e0
bbr bd2d72cdcc8accf7
";

#[test]
fn every_congestion_controller_follows_its_recorded_script() {
    let mut table = String::new();
    for cc in [
        CongestionControl::Reno,
        CongestionControl::Cubic,
        CongestionControl::Bbr,
    ] {
        writeln!(table, "{} {:016x}", cc.name(), script(cc))
            .expect("writing to a String cannot fail");
    }
    assert!(
        table == CONTROLLER_SCRIPTS,
        "controller behaviour changed; the digests are now:\n{table}"
    );
}
