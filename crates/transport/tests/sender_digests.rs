//! Behaviour pin for every sender variant the golden scenarios do not fully
//! cover. Each case drives one sender through the loopback harness, once on
//! a lossless network and once under a deterministic drop pattern (both with
//! an ECN-marking predicate, which only ECN-capable senders notice), and
//! digests everything the sender did: the `(time, packet)` emission
//! sequence, the timers it armed, the fluid handoffs it requested and the
//! signal sequence. The digests were recorded at commit e4924ed, before the
//! five sender structs became policies over one `Connection`; a refactor of
//! the senders must not change any of them.

use netsim::{Addr, Agent, AgentCtx, AgentEvent, FlowId, Packet, PacketKind, SimDuration};
use std::fmt::{Debug, Write};
use transport::testing::Loopback;
use transport::{
    D2tcpSender, MmptcpConfig, MmptcpSender, MptcpConfig, MptcpScheduler, MptcpSender,
    RepFlowConfig, RepFlowSender, SwitchStrategy, TcpSender, TransportConfig,
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
    /// Flow size in bytes.
    total: u64,
    /// Hybrid-engine elephant threshold shown to the sender, if any.
    fluid_threshold: Option<u64>,
    build: Box<dyn Fn(u64) -> Box<dyn Agent>>,
}

const FLOW: FlowId = FlowId(1);
const SRC: Addr = Addr(0);
const DST: Addr = Addr(1);
const SPORT: u16 = 50_000;
const DPORT: u16 = 80;

fn case(name: &str, total: u64, build: impl Fn(u64) -> Box<dyn Agent> + 'static) -> Case {
    Case {
        name: name.to_string(),
        total,
        fluid_threshold: None,
        build: Box::new(build),
    }
}

fn tcp(cfg: TransportConfig) -> impl Fn(u64) -> Box<dyn Agent> {
    move |total| {
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

fn d2tcp(deadline: Option<SimDuration>) -> impl Fn(u64) -> Box<dyn Agent> {
    move |total| {
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

fn mptcp(cfg: MptcpConfig) -> impl Fn(u64) -> Box<dyn Agent> {
    move |total| {
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

fn mmptcp(cfg: MmptcpConfig) -> impl Fn(u64) -> Box<dyn Agent> {
    move |total| {
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

fn repflow(cfg: RepFlowConfig) -> impl Fn(u64) -> Box<dyn Agent> {
    move |total| {
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
        case("tcp", 300_000, tcp(TransportConfig::default())),
        case("dctcp", 300_000, tcp(TransportConfig::dctcp())),
        case("d2tcp", 300_000, d2tcp(None)),
        case(
            "d2tcp-deadline",
            300_000,
            d2tcp(Some(SimDuration::from_millis(3))),
        ),
    ];
    for n in [1, 4, 8] {
        for scheduler in [MptcpScheduler::RoundRobin, MptcpScheduler::LowestRtt] {
            for coupled in [true, false] {
                for join_after_initial in [true, false] {
                    let cfg = MptcpConfig {
                        scheduler,
                        coupled,
                        join_after_initial,
                        ..MptcpConfig::with_subflows(n)
                    };
                    let name = format!(
                        "mptcp-{n}/{scheduler:?}/{}/{}",
                        if coupled { "coupled" } else { "uncoupled" },
                        if join_after_initial {
                            "join"
                        } else {
                            "simultaneous"
                        },
                    );
                    cases.push(case(&name, 400_000, mptcp(cfg)));
                }
            }
        }
    }
    for (label, switch) in [
        ("data-volume", SwitchStrategy::DataVolume(100_000)),
        ("congestion-event", SwitchStrategy::CongestionEvent),
        ("never", SwitchStrategy::Never),
    ] {
        let cfg = MmptcpConfig {
            switch,
            num_subflows: 4,
            ..MmptcpConfig::default()
        };
        cases.push(case(&format!("mmptcp/{label}"), 400_000, mmptcp(cfg)));
    }
    cases.push(case("repflow", 70_000, repflow(RepFlowConfig::default())));
    cases.push(case("repsyn", 70_000, repflow(RepFlowConfig::repsyn())));
    cases.push(case(
        "repflow-elephant",
        300_000,
        repflow(RepFlowConfig::default()),
    ));
    // The hybrid engine's view: a 2 MB flow above a 100 KB elephant threshold.
    let fluid = [
        case("tcp+fluid", 2_000_000, tcp(TransportConfig::default())),
        case(
            "mptcp-4+fluid",
            2_000_000,
            mptcp(MptcpConfig::with_subflows(4)),
        ),
        case(
            "mmptcp+fluid",
            2_000_000,
            mmptcp(MmptcpConfig {
                num_subflows: 4,
                ..MmptcpConfig::default()
            }),
        ),
    ];
    cases.extend(fluid.into_iter().map(|c| Case {
        fluid_threshold: Some(100_000),
        ..c
    }));
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
    let mut l = Loopback::new(FLOW, Boxed((case.build)(case.total)));
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

/// `(case, lossless digest, lossy digest)`, recorded at commit e4924ed.
const EXPECTED: &[(&str, u64, u64)] = &[
    ("tcp", 0x62a5ae10e96936c4, 0xe4dc054aef8741e5),
    ("dctcp", 0xbe936200e620fd75, 0x70c02b48f91502c0),
    ("d2tcp", 0xbe936200e620fd75, 0x70c02b48f91502c0),
    ("d2tcp-deadline", 0xd01d04bc82680903, 0xb708a60fe512ee87),
    (
        "mptcp-1/RoundRobin/coupled/join",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/RoundRobin/coupled/simultaneous",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/RoundRobin/uncoupled/join",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/RoundRobin/uncoupled/simultaneous",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/LowestRtt/coupled/join",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/LowestRtt/coupled/simultaneous",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/LowestRtt/uncoupled/join",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-1/LowestRtt/uncoupled/simultaneous",
        0x575dc337377a82d9,
        0x4d23d4d992d8ea99,
    ),
    (
        "mptcp-4/RoundRobin/coupled/join",
        0x0630e0415c89d601,
        0xc1f301caa5b3ee40,
    ),
    (
        "mptcp-4/RoundRobin/coupled/simultaneous",
        0x1cd365559e18c79c,
        0x1da1c4713a8556d2,
    ),
    (
        "mptcp-4/RoundRobin/uncoupled/join",
        0x0630e0415c89d601,
        0x2b2d78bf029af91e,
    ),
    (
        "mptcp-4/RoundRobin/uncoupled/simultaneous",
        0x1cd365559e18c79c,
        0x0e0ee60519dff445,
    ),
    (
        "mptcp-4/LowestRtt/coupled/join",
        0x0630e0415c89d601,
        0xc1f301caa5b3ee40,
    ),
    (
        "mptcp-4/LowestRtt/coupled/simultaneous",
        0x1cd365559e18c79c,
        0x1da1c4713a8556d2,
    ),
    (
        "mptcp-4/LowestRtt/uncoupled/join",
        0x0630e0415c89d601,
        0x2b2d78bf029af91e,
    ),
    (
        "mptcp-4/LowestRtt/uncoupled/simultaneous",
        0x1cd365559e18c79c,
        0x0e0ee60519dff445,
    ),
    (
        "mptcp-8/RoundRobin/coupled/join",
        0x1ade1de2df45eb68,
        0x6a507814bd06ebb4,
    ),
    (
        "mptcp-8/RoundRobin/coupled/simultaneous",
        0x90c79c95814437b8,
        0x0df56fe7e60481a0,
    ),
    (
        "mptcp-8/RoundRobin/uncoupled/join",
        0x1ade1de2df45eb68,
        0x6a507814bd06ebb4,
    ),
    (
        "mptcp-8/RoundRobin/uncoupled/simultaneous",
        0x90c79c95814437b8,
        0x0df56fe7e60481a0,
    ),
    (
        "mptcp-8/LowestRtt/coupled/join",
        0x1ade1de2df45eb68,
        0x6a507814bd06ebb4,
    ),
    (
        "mptcp-8/LowestRtt/coupled/simultaneous",
        0x90c79c95814437b8,
        0x0df56fe7e60481a0,
    ),
    (
        "mptcp-8/LowestRtt/uncoupled/join",
        0x1ade1de2df45eb68,
        0x6a507814bd06ebb4,
    ),
    (
        "mptcp-8/LowestRtt/uncoupled/simultaneous",
        0x90c79c95814437b8,
        0x0df56fe7e60481a0,
    ),
    ("mmptcp/data-volume", 0x6516410cef7c2fdf, 0x5dd75afd89849a72),
    (
        "mmptcp/congestion-event",
        0x06bcf6131d97ae2e,
        0x0b8907ba426e89ca,
    ),
    ("mmptcp/never", 0x06bcf6131d97ae2e, 0xd34b4a02455b4375),
    ("repflow", 0xaed110b9e72d1a28, 0x55f9bdcb9a78b71c),
    ("repsyn", 0xfe34b8df265f839d, 0x8e3887fb7ee7bb19),
    ("repflow-elephant", 0x62a5ae10e96936c4, 0xe4dc054aef8741e5),
    ("tcp+fluid", 0xea6d133f96f780b1, 0x3ba2436d4ebb57f8),
    ("mptcp-4+fluid", 0x9792f2be423d7c59, 0x96b4baf8878637e6),
    ("mmptcp+fluid", 0x93d81952ab1e4519, 0x359e19fe9f9588c0),
];

#[test]
fn every_sender_variant_behaves_exactly_as_recorded() {
    let cases = cases();
    let mut table = String::new();
    let mut mismatches = Vec::new();
    for case in &cases {
        let got = (digest(case, false), digest(case, true));
        writeln!(
            table,
            "    (\"{}\", {:#018x}, {:#018x}),",
            case.name, got.0, got.1
        )
        .expect("writing to a String cannot fail");
        match EXPECTED.iter().find(|(name, ..)| *name == case.name) {
            Some(&(_, lossless, lossy)) if (lossless, lossy) == got => {}
            _ => mismatches.push(case.name.clone()),
        }
    }
    assert!(
        mismatches.is_empty(),
        "sender behaviour changed for {mismatches:?}; the digests are now:\n{table}"
    );
    assert_eq!(EXPECTED.len(), cases.len(), "one row per case");
}
