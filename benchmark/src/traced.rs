//! The traced pass: one untraced execution for reference, the staged runner
//! with its spans and counts, the layer kernels, and the attribution derived
//! from the three. Also home of the gates that need a second execution:
//! staged digest == user-path digest, and 2 threads == 1 thread.

use crate::kernels::{self, Sizing};
use crate::measure::{execute, Outcome};
use crate::spec::spec;
use crate::staged::{self, Counts, Span, Tracer};
use crate::workloads::{self, WorkloadId, SWEEP_THREADS};
use mmptcp::{Engine, Fidelity};
use std::collections::HashMap;
use std::time::Instant;

/// Everything the traced pass reports.
pub struct Traced {
    /// `(name, unit, value)` for every per-layer metric, in `BENCHMARK.json`'s
    /// order.
    pub per_layer: Vec<(&'static str, &'static str, f64)>,
    /// The staged runner's spans.
    pub spans: Vec<Span>,
    /// Outcome of the untraced reference execution, with the violations of
    /// every gate of this pass added.
    pub outcome: Outcome,
}

/// Shortest slice a kernel gets, however little of `seconds` is left.
const MIN_KERNEL_SLICE_S: f64 = 0.1;

/// Relative error of `got` against `reference`.
fn rel_err(got: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        0.0
    } else {
        (got - reference).abs() / reference
    }
}

/// Run the traced pass for about `seconds` host seconds: the executions take
/// what they take and the kernels share the rest.
pub fn traced(id: WorkloadId, seed: u64, quick: bool, seconds: f64) -> Traced {
    let started = Instant::now();
    let mut tracer = Tracer::new();
    let mut v: HashMap<String, f64> = HashMap::new();

    let configs = tracer.time("workload.generate", None, 0, || {
        workloads::configs(id, seed, quick)
    });
    let workers = SWEEP_THREADS.min(configs.len());

    // Reference: the user path, untraced, as the end-to-end pass runs it.
    let user = execute(id, configs.clone(), SWEEP_THREADS);
    let mut outcome = user.outcome();

    // Determinism rule: a sweep on two threads equals the same configurations
    // on one. (A lone configuration runs inline on either driver.)
    let serial_wall_s = if workers > 1 {
        let serial = execute(id, configs.clone(), 1);
        let serial_outcome = serial.outcome();
        if serial_outcome.digest != outcome.digest {
            outcome.violations.push(format!(
                "{workers}-thread digest {:#018x} differs from the 1-thread digest {:#018x}",
                outcome.digest, serial_outcome.digest
            ));
        }
        serial.wall_s
    } else {
        user.wall_s
    };

    // The staged mirror, one configuration after another.
    let mut counts = Counts::default();
    let staged: Vec<_> = configs
        .into_iter()
        .enumerate()
        .map(|(run, (label, config))| (label, staged::run(config, run, &mut tracer, &mut counts)))
        .collect();
    let report = tracer.time("metrics.report.render", None, 0, || {
        mmptcp::scenario::report(id.name(), Fidelity::Full, &staged).to_json()
    });
    let staged_outcome = Outcome::of(&staged, &report);
    if staged_outcome.digest != outcome.digest {
        outcome.violations.push(format!(
            "staged-runner digest {:#018x} differs from the mmptcp::run digest {:#018x}",
            staged_outcome.digest, outcome.digest
        ));
    }

    for (metric, span) in [
        ("topology.build_s", "topology.build"),
        ("workload.generate_s", "workload.generate"),
        ("mmptcp.install_s", "mmptcp.install"),
        ("netsim.sim.event_loop_s", "netsim.sim.event_loop"),
        ("metrics.fct.signal_fold_s", "metrics.fct.signal_fold"),
        ("mmptcp.completion_check_s", "mmptcp.completion_check"),
        ("netsim.sim.finalize_s", "netsim.sim.finalize"),
        ("metrics.netstats.scrape_s", "metrics.netstats.scrape"),
        ("metrics.report.render_s", "metrics.report.render"),
    ] {
        v.insert(metric.into(), tracer.total_s(span));
    }
    let staged_total_s = tracer.total_s("mmptcp.staged_total") + v["metrics.report.render_s"];
    v.insert("mmptcp.staged_total_s".into(), staged_total_s);
    v.insert(
        "mmptcp.trace_overhead_ratio".into(),
        staged_total_s / serial_wall_s,
    );
    v.insert(
        "mmptcp.install_ns_per_flow".into(),
        v["mmptcp.install_s"] * 1e9 / counts.flows_installed as f64,
    );
    v.insert(
        "mmptcp.driver.parallel_efficiency".into(),
        serial_wall_s / (workers as f64 * user.wall_s),
    );

    let sum = |f: &dyn Fn(&mmptcp::ExperimentResults) -> u64| -> f64 {
        staged.iter().map(|(_, r)| f(r)).sum::<u64>() as f64
    };
    let events = sum(&|r| r.counters.events_processed);
    let forwarded = sum(&|r| r.counters.forwarded);
    let drops = sum(&|r| r.loss.total_dropped());
    let event_loop_s = v["netsim.sim.event_loop_s"];
    v.insert("netsim.sim.events".into(), events);
    v.insert(
        "netsim.sim.ns_per_event".into(),
        event_loop_s * 1e9 / events,
    );
    v.insert("netsim.sim.events_per_s".into(), events / event_loop_s);
    v.insert("netsim.sim.forwarded".into(), forwarded);
    v.insert(
        "netsim.sim.delivered".into(),
        sum(&|r| r.counters.delivered_to_hosts),
    );
    v.insert("netsim.sim.dropped".into(), sum(&|r| r.counters.dropped));
    v.insert(
        "netsim.sim.peak_pending_events".into(),
        counts.peak_pending_events as f64,
    );
    v.insert(
        "netsim.packet.peak_in_flight".into(),
        counts.peak_in_flight as f64,
    );
    v.insert(
        "netsim.link.tx_packets".into(),
        counts.link_tx_packets as f64,
    );
    v.insert("netsim.queue.drops".into(), drops);
    v.insert(
        "netsim.queue.ecn_marks".into(),
        sum(&|r| r.loss.total_marked()),
    );
    v.insert(
        "netsim.queue.drop_ratio".into(),
        drops / counts.queue_offered as f64,
    );
    v.insert("metrics.fct.signals".into(), counts.signals as f64);
    v.insert("transport.rtos".into(), counts.rtos as f64);
    v.insert(
        "transport.fast_retransmits".into(),
        counts.fast_retransmits as f64,
    );
    v.insert(
        "transport.redundant_bytes".into(),
        counts.redundant_bytes as f64,
    );
    let app_bytes = staged_outcome.bytes as f64;
    let fluid_bytes = counts.fluid_bytes as f64;
    v.insert(
        "transport.goodput_ratio".into(),
        (app_bytes - fluid_bytes) / counts.host_wire_bytes as f64,
    );
    v.insert(
        "netsim.fluid.delivered_share".into(),
        fluid_bytes / app_bytes,
    );

    // The workload's engine against the packet engine, on the same flows:
    // how much faster, and how far off its flow completion times are. A
    // workload that already runs on the packet engine is its own twin
    // (exactly 1 and 0). `elephants_hybrid` runs both engines on its first
    // configuration only: the packet engine needs a minute for all of them.
    let (mut speedup, mut p50_err, mut p99_err) = (1.0, 0.0, 0.0);
    if id == WorkloadId::ElephantsHybrid {
        let mut twin = |label: &str, engine| {
            let config = workloads::elephants(seed * 100, quick, engine);
            let run = execute(id, vec![(label.into(), config)], 1);
            outcome.violations.extend(run.outcome().violations);
            (run.wall_s, run.results[0].1.short_fct_summary())
        };
        let (fluid_wall_s, fluid_fct) = twin("tcp-hybrid", Engine::hybrid_default());
        let (packet_wall_s, packet_fct) = twin("tcp-packet", Engine::Packet);
        speedup = packet_wall_s / fluid_wall_s;
        p50_err = rel_err(fluid_fct.median, packet_fct.median);
        p99_err = rel_err(fluid_fct.p99, packet_fct.p99);
    }
    v.insert("netsim.fluid.speedup_vs_packet".into(), speedup);
    v.insert("netsim.fluid.fct_p50_rel_err".into(), p50_err);
    v.insert("netsim.fluid.fct_p99_rel_err".into(), p99_err);
    drop((user, staged));

    let left = seconds - started.elapsed().as_secs_f64();
    let slice_s = if quick {
        MIN_KERNEL_SLICE_S / 4.0
    } else {
        (left / kernels::COUNT as f64).max(MIN_KERNEL_SLICE_S)
    };
    let sizing = Sizing {
        pending_events: counts.peak_pending_events,
        in_flight: counts.peak_in_flight,
    };
    v.extend(kernels::run_all(&sizing, slice_s));

    // Attribution: a kernel's cost per operation times the workload's exact
    // operation count, as a share of the event loop; transport (host
    // dispatch, agents, congestion control, signals, fluid) is what is left.
    let share = |ns_per_op: f64, ops: f64| ns_per_op * ops / 1e9 / event_loop_s;
    let event_share = share(v["netsim.event.ns_per_op.overflow"], events);
    let link_share = share(
        v["netsim.link.ns_per_packet.load0.9"],
        counts.link_tx_packets as f64,
    );
    let switch_share = share(v["netsim.switch.ns_per_forward.flow_hash"], forwarded);
    v.insert("netsim.event.est_share".into(), event_share);
    v.insert("netsim.link.est_share".into(), link_share);
    v.insert("netsim.switch.est_share".into(), switch_share);
    v.insert(
        "transport.residual_share".into(),
        1.0 - event_share - link_share - switch_share,
    );

    let per_layer: Vec<_> = spec()
        .per_layer
        .iter()
        .map(|m| {
            let value = v.remove(&m.name).unwrap_or_else(|| {
                panic!("BENCHMARK.json lists {}, which nothing measures", m.name)
            });
            (m.name.as_str(), m.unit.as_str(), value)
        })
        .collect();
    assert!(v.is_empty(), "measured but not in BENCHMARK.json: {v:?}");
    Traced {
        per_layer,
        spans: tracer.spans,
        outcome,
    }
}
