//! The traced run: every per-layer metric of one workload.
//!
//! Spans sit around the calls the benchmark makes into each layer
//! (set-up, cell and fleet runs, serialization, partitioning, oracle,
//! Perfetto export); layers the kernel calls internally are measured by
//! [`crate::replay`]. End-to-end numbers never come from this run.

use crate::alloc;
use crate::checks::{self, Findings, ORACLE_SAMPLE};
use crate::fleet::{self, fleet_events, FleetOutcome};
use crate::metrics::Metrics;
use crate::population::{Population, Workload};
use crate::replay::{self, ProbeCounts, ReplayRow};
use crate::spans::Tracer;
use crate::sweep::{self, run_options};
use lpfps::driver::PolicyKind;
use lpfps_bench::fingerprint::fnv1a;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::report::{Counters, SimReport};
use lpfps_kernel::trace::TraceEvent;
use lpfps_multi::{MultiEngine, Partitioner, PartitionerKind};
use lpfps_obs::LogHistogram;
use lpfps_sweep::{check_sampled_cells, run_sweep, Cell, PolicyChoice, SweepSpec};
use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Every per-layer metric with its unit, in output order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tasks.gen.ns_per_set", "ns"),
    ("tasks.rta.ns_per_call", "ns"),
    ("tasks.rta.accept_ratio", "ratio"),
    ("tasks.exec.draws", "count"),
    ("tasks.exec.ns_per_draw", "ns"),
    ("workloads.build.ns_per_fleet", "ns"),
    ("cpu.energy.segments", "count"),
    ("cpu.energy.ns_per_segment", "ns"),
    ("cpu.power.ns_per_call", "ns"),
    ("cpu.ramp.count", "count"),
    ("cpu.ramp.ns_per_call", "ns"),
    ("cpu.ladder.ns_per_quantize", "ns"),
    ("core.speed.decisions", "count"),
    ("core.speed.ns_per_decision", "ns"),
    ("kernel.events", "count"),
    ("kernel.events_skipped", "count"),
    ("kernel.sched_passes", "count"),
    ("kernel.releases", "count"),
    ("kernel.dispatches", "count"),
    ("kernel.preemptions", "count"),
    ("kernel.power_downs", "count"),
    ("kernel.sim.ns_per_event", "ns"),
    ("kernel.queue.ns_per_op", "ns"),
    ("kernel.steady.skip_ratio", "ratio"),
    ("kernel.steady.detect_ratio", "ratio"),
    ("kernel.report.ns_per_serialize", "ns"),
    ("kernel.report.bytes", "bytes"),
    ("kernel.allocs_per_sim", "count"),
    ("kernel.alloc_bytes_per_sim", "bytes"),
    ("faults.ns_per_draw", "ns"),
    ("faults.wd_miss_units", "count"),
    ("sweep.overhead_ns_per_cell", "ns"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.retries", "count"),
    ("sweep.failures", "count"),
    ("multi.partition.ffd.ns_per_call", "ns"),
    ("multi.partition.bfd.ns_per_call", "ns"),
    ("multi.partition.wfd.ns_per_call", "ns"),
    ("multi.partition.rta-ff.ns_per_call", "ns"),
    ("multi.partition.refused", "count"),
    ("multi.overhead_ns_per_fleet", "ns"),
    ("multi.busy_frac", "ratio"),
    ("obs.probe.ns_per_event", "ns"),
    ("obs.hist.ns_per_record", "ns"),
    ("obs.hist.ns_per_merge", "ns"),
    ("obs.perfetto.ns_per_event", "ns"),
    ("obs.perfetto.bytes_per_event", "bytes"),
    ("kernel.trace.events_per_cell", "count"),
    ("oracle.run.ns_per_event", "ns"),
    ("oracle.check.ns_per_cell", "ns"),
    ("oracle.divergences", "count"),
    ("trace.overhead", "ratio"),
];

/// Sweep units whose allocations are counted (warm workspace, one thread).
const ALLOC_UNITS: usize = 64;

/// Metric values by name; [`Values::finish`] emits them in
/// [`PER_LAYER`] order, 0 for a layer the workload does not exercise.
#[derive(Default)]
struct Values(BTreeMap<&'static str, f64>);

impl Values {
    fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "{name} is not a per-layer metric"
        );
        self.0.insert(name, value);
    }

    fn finish(self) -> Metrics {
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.push(name, self.0.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Mean duration of the spans named `name`, ns.
fn mean_ns(tr: &Tracer, name: &str) -> f64 {
    let t = tr.totals(name);
    ratio(t.total_ns as f64, t.count as f64)
}

fn set_setup(v: &mut Values, pop: &Population, setup: &Tracer) {
    v.set("tasks.gen.ns_per_set", mean_ns(setup, "tasks.gen"));
    v.set("tasks.rta.ns_per_call", mean_ns(setup, "tasks.rta"));
    v.set(
        "tasks.rta.accept_ratio",
        ratio(pop.kept as f64, pop.drawn as f64),
    );
    v.set(
        "workloads.build.ns_per_fleet",
        mean_ns(setup, "workloads.build"),
    );
}

fn set_counters(v: &mut Values, c: &Counters, skipped: u64) {
    v.set("kernel.events", c.events as f64);
    v.set("kernel.events_skipped", skipped as f64);
    v.set("kernel.sched_passes", c.sched_passes as f64);
    v.set("kernel.releases", c.releases as f64);
    v.set("kernel.dispatches", c.dispatches as f64);
    v.set("kernel.preemptions", c.preemptions as f64);
    v.set("kernel.power_downs", c.power_downs as f64);
    v.set(
        "kernel.steady.skip_ratio",
        ratio(skipped as f64, c.events as f64),
    );
}

fn add_counters(sum: &mut Counters, c: &Counters) {
    sum.events += c.events;
    sum.sched_passes += c.sched_passes;
    sum.releases += c.releases;
    sum.dispatches += c.dispatches;
    sum.preemptions += c.preemptions;
    sum.power_downs += c.power_downs;
}

/// True when the kernel's steady-state detector may engage on `cell`
/// (index-invariant demands, no faults, no trace, a hyperperiod within
/// the horizon).
pub fn ff_eligible(cell: &Cell) -> bool {
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    cell.exec.model().index_invariant()
        && cell.faults.is_none()
        && !cell.trace
        && cell.tick.is_none()
        && hyperperiod(&scaled).is_some_and(|h| h <= cell.effective_horizon(1.0))
}

/// Records `cell`, checks the recording against the report the workload
/// produced and the probe against its counters, and replays it.
fn replay_checked(
    cell: &Cell,
    report: &SimReport,
    unit: usize,
    f: &mut Findings,
) -> Option<(ReplayRow, replay::Recording)> {
    let rec = match replay::record(cell) {
        Ok(rec) => rec,
        Err(e) => {
            f.fail(unit, format!("replay recording failed: {e}"));
            return None;
        }
    };
    let a = serde_json::to_string(&rec.report).expect("reports serialize");
    let b = serde_json::to_string(report).expect("reports serialize");
    if a != b {
        f.fail(unit, "the recorded run differs from the workload's report");
    }
    if let Some(which) = ProbeCounts::of(&rec.events).mismatch(&rec.report.counters) {
        f.fail(
            unit,
            format!("probe count of {which} differs from the report"),
        );
    }
    match replay::replay(cell, &rec) {
        Ok(row) => Some((row, rec)),
        Err(e) => {
            f.fail(unit, e);
            None
        }
    }
}

fn set_replay(v: &mut Values, row: &ReplayRow) {
    v.set("tasks.exec.draws", row.counts.releases as f64);
    v.set("tasks.exec.ns_per_draw", row.exec_ns_per_draw);
    v.set("cpu.energy.segments", row.counts.segments as f64);
    v.set("cpu.energy.ns_per_segment", row.energy_ns_per_segment);
    v.set("cpu.power.ns_per_call", row.power_ns_per_call);
    v.set("cpu.ramp.count", row.counts.ramps as f64);
    v.set("cpu.ramp.ns_per_call", row.ramp_ns_per_call);
    v.set("cpu.ladder.ns_per_quantize", row.ladder_ns_per_quantize);
    v.set("core.speed.decisions", row.decisions as f64);
    v.set("core.speed.ns_per_decision", row.speed_ns_per_decision);
    v.set("kernel.queue.ns_per_op", row.queue_ns_per_op);
}

/// Mean ns per `LogHistogram::record` over the recorded responses.
fn hist_record_ns(rec: &replay::Recording) -> f64 {
    let responses: Vec<u64> = rec
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            TraceEvent::Complete { response, .. } => Some(response.as_ns()),
            _ => None,
        })
        .collect();
    replay::ns_per_op(responses.len() as u64, || {
        let mut h = LogHistogram::new();
        for &r in &responses {
            h.record(black_box(r));
        }
        black_box(h.count());
    })
}

/// Allocations and bytes per simulation: every cell once on a fresh
/// workspace to warm it, then counted over a second run of each.
fn allocs_per_sim(cells: &[&Cell]) -> (f64, f64) {
    let mut ws = SimWorkspace::new();
    for c in cells {
        let _ = c.run_in(1.0, &mut ws);
    }
    let (a0, b0) = alloc::snapshot();
    for c in cells {
        let _ = black_box(c.run_in(1.0, &mut ws));
    }
    let (a1, b1) = alloc::snapshot();
    let n = cells.len().max(1) as f64;
    ((a1 - a0) as f64 / n, (b1 - b0) as f64 / n)
}

/// The per-layer metrics of a workload and the findings of the traced
/// run's own checks. `setup` holds the set-up spans.
pub fn run(pop: &Population, setup: &Tracer, threads: usize) -> (Metrics, Findings, Tracer) {
    let mut v = Values::default();
    let mut f = Findings::default();
    let mut tr = Tracer::enabled();
    set_setup(&mut v, pop, setup);
    if pop.workload == Workload::Fleet {
        fleet_layers(pop, threads, &mut v, &mut f, &mut tr);
    } else {
        sweep_layers(pop, threads, &mut v, &mut f, &mut tr);
    }
    (v.finish(), f, tr)
}

fn sweep_layers(
    pop: &Population,
    threads: usize,
    v: &mut Values,
    f: &mut Findings,
    tr: &mut Tracer,
) {
    let n = pop.units.len();
    // The sweep as the timed run drives it, for the reference digest.
    let (pass, outcome) = sweep::run_pass(pop, threads);
    f.merge(&pass.failed, "failed in the sweep");
    if let Some(out) = &outcome {
        let m = &out.metrics;
        let busy: u64 = m.per_cell.iter().map(|c| c.wall_ns).sum();
        v.set(
            "sweep.busy_frac",
            ratio(busy as f64, (m.threads as u64 * m.wall_ns) as f64),
        );
        let retries: u32 = m.per_cell.iter().map(|c| c.attempts - 1).sum();
        v.set("sweep.retries", retries as f64);
        v.set("sweep.failures", m.failures as f64);
    }

    // The direct loop untraced, traced, traced again and untraced again
    // (the order cancels a linear drift of host speed): same work, same
    // digest. Only the first traced loop's spans are kept.
    let plain = sweep::direct_loop(pop, &mut Tracer::disabled());
    let traced = sweep::direct_loop(pop, tr);
    let traced_again = sweep::direct_loop(pop, &mut Tracer::enabled()).wall_ns;
    let plain_again = sweep::direct_loop(pop, &mut Tracer::disabled()).wall_ns;
    f.compare_hashes(&pass.hashes, &plain.hashes, "direct loop vs sweep");
    f.compare_hashes(&plain.hashes, &traced.hashes, "traced vs untraced");
    f.merge(&traced.failed, "failed in the direct loop");
    let overhead = (traced.wall_ns + traced_again) as f64 / (plain.wall_ns + plain_again) as f64;
    v.set("trace.overhead", overhead);
    checks::sweep_claims(pop, &traced.reports, f);
    checks::force_full(pop, &traced.reports, f);
    checks::margin_claim(pop, f);

    let mut sum = Counters::default();
    let (mut skipped, mut eligible, mut detected) = (0u64, 0u64, 0u64);
    for (i, report) in traced.reports.iter().enumerate() {
        let Some(report) = report else { continue };
        add_counters(&mut sum, &report.counters);
        skipped += traced.ff[i].events_skipped;
        if ff_eligible(&pop.units[i].cell) {
            eligible += 1;
            detected += u64::from(traced.ff[i].cycles_detected > 0);
        }
    }
    set_counters(v, &sum, skipped);
    v.set(
        "kernel.steady.detect_ratio",
        ratio(detected as f64, eligible as f64),
    );
    let sim = tr.totals("kernel.sim");
    v.set(
        "kernel.sim.ns_per_event",
        ratio(sim.self_ns as f64, sum.events as f64),
    );
    v.set(
        "kernel.report.ns_per_serialize",
        mean_ns(tr, "kernel.report"),
    );
    v.set(
        "kernel.report.bytes",
        ratio(traced.report_bytes as f64, n as f64),
    );

    // Sweep runner overhead: a one-thread sweep against the direct calls.
    tr.time("sweep.serial", 0, || {
        black_box(run_sweep(&pop.spec, &run_options(pop.workload, 1)))
    });
    let serial_ns = tr.totals("sweep.serial").total_ns as f64;
    v.set(
        "sweep.overhead_ns_per_cell",
        (serial_ns - sim.total_ns as f64) / n as f64,
    );

    // Replay rows on the first lpfps unit; fault draws on the first
    // faulted lpfps-wd unit.
    let first = |kind: PolicyKind| {
        pop.units
            .iter()
            .position(|u| u.cell.policy == PolicyChoice::Kind(kind))
    };
    let mut recording = None;
    if let Some(i) = first(PolicyKind::Lpfps) {
        if let Some(report) = &traced.reports[i] {
            if let Some((row, rec)) = replay_checked(&pop.units[i].cell, report, i, f) {
                set_replay(v, &row);
                recording = Some(rec);
            }
        }
    }
    if let Some(i) = first(PolicyKind::LpfpsWatchdog) {
        if let Some(report) = &traced.reports[i] {
            if let Some((row, _)) = replay_checked(&pop.units[i].cell, report, i, f) {
                v.set("faults.ns_per_draw", row.faults_ns_per_draw);
            }
        }
    }

    v.set(
        "faults.wd_miss_units",
        checks::wd_miss_units(pop, &traced.reports) as f64,
    );

    let cells: Vec<&Cell> = pop
        .units
        .iter()
        .take(ALLOC_UNITS)
        .map(|u| &u.cell)
        .collect();
    let (allocs, bytes) = allocs_per_sim(&cells);
    v.set("kernel.allocs_per_sim", allocs);
    v.set("kernel.alloc_bytes_per_sim", bytes);

    // Oracle: differential on a sample, and the sweep's invariant checker.
    let divergences = checks::sweep_oracle(pop, &traced.reports, tr, f);
    let oracle_events: u64 = checks::sample(n, ORACLE_SAMPLE)
        .into_iter()
        .filter_map(|i| traced.reports[i].as_ref().map(|r| r.counters.events))
        .sum();
    v.set(
        "oracle.run.ns_per_event",
        ratio(
            tr.totals("oracle.run").total_ns as f64,
            oracle_events as f64,
        ),
    );
    v.set("oracle.divergences", divergences as f64);
    if let Some(out) = &outcome {
        let checked = tr.time("oracle.check", 0, || {
            check_sampled_cells(&pop.spec, out, ORACLE_SAMPLE, 1.0)
        });
        for c in &checked {
            if !c.is_ok() {
                f.fail(c.index, format!("invariant check: {}", c.violations[0]));
            }
        }
        v.set(
            "oracle.check.ns_per_cell",
            ratio(
                tr.totals("oracle.check").total_ns as f64,
                checked.len() as f64,
            ),
        );
    }

    if pop.workload == Workload::Observed {
        // Probe cost: the probed direct loop against unprobed full runs.
        let mut ws = SimWorkspace::new();
        for (i, u) in pop.units.iter().enumerate() {
            let _ = tr.time("kernel.sim.unprobed", i as u64, || {
                u.cell.run_opts(1.0, &mut ws, true)
            });
        }
        let unprobed = tr.totals("kernel.sim.unprobed").total_ns as f64;
        v.set(
            "obs.probe.ns_per_event",
            (sim.self_ns as f64 - unprobed) / sum.events as f64,
        );
        v.set("obs.hist.ns_per_merge", mean_ns(tr, "obs.hist.merge"));
        if let Some(rec) = &recording {
            v.set("obs.hist.ns_per_record", hist_record_ns(rec));
        }
        let exported = tr.totals("obs.perfetto");
        v.set(
            "obs.perfetto.ns_per_event",
            ratio(exported.total_ns as f64, traced.trace_events as f64),
        );
        v.set(
            "obs.perfetto.bytes_per_event",
            ratio(traced.perfetto_bytes as f64, traced.trace_events as f64),
        );
        v.set(
            "kernel.trace.events_per_cell",
            ratio(traced.trace_events as f64, traced.traced_cells as f64),
        );
    }
}

fn partition_span(kind: PartitionerKind) -> &'static str {
    match kind {
        PartitionerKind::Ffd => "multi.partition.ffd",
        PartitionerKind::Bfd => "multi.partition.bfd",
        PartitionerKind::Wfd => "multi.partition.wfd",
        PartitionerKind::RtaFf => "multi.partition.rta-ff",
    }
}

fn fleet_layers(
    pop: &Population,
    threads: usize,
    v: &mut Values,
    f: &mut Findings,
    tr: &mut Tracer,
) {
    let (pass, outcomes) = fleet::run_pass(pop, threads);
    f.merge(&pass.failed, "failed in the fleet pass");
    checks::fleet_claims(pop, &outcomes, f);
    // Untraced, traced, traced, untraced, as in the sweep workloads.
    let (plain_ns, plain) = fleet::direct_loop(pop, threads, &mut Tracer::disabled());
    let (traced_ns, traced) = fleet::direct_loop(pop, threads, tr);
    let (traced_again, _) = fleet::direct_loop(pop, threads, &mut Tracer::enabled());
    let (plain_again, _) = fleet::direct_loop(pop, threads, &mut Tracer::disabled());
    f.compare_hashes(&pass.hashes, &plain, "direct loop vs pass");
    f.compare_hashes(&plain, &traced, "traced vs untraced");
    let overhead = (traced_ns + traced_again) as f64 / (plain_ns + plain_again) as f64;
    v.set("trace.overhead", overhead);
    v.set(
        "kernel.report.ns_per_serialize",
        mean_ns(tr, "kernel.report"),
    );

    // Partitioning, with RTA re-checked on every rta-ff core.
    let mut refused = 0u64;
    for (i, u) in pop.fleets.iter().enumerate() {
        let kind = u.mc.partitioner;
        match tr.time(partition_span(kind), i as u64, || {
            kind.partition(&u.mc.base.ts, u.mc.cores)
        }) {
            Err(_) => refused += 1,
            Ok(p) if kind == PartitionerKind::RtaFf => {
                for core in p.cores.iter().flatten() {
                    if !tr.time("tasks.rta", i as u64, || rta_schedulable(core)) {
                        f.fail(i, "rta-ff placed a core that fails RTA");
                    }
                }
            }
            Ok(_) => {}
        }
    }
    for kind in PartitionerKind::ALL {
        let name = partition_span(kind);
        let metric = PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .find(|n| n.strip_prefix(name) == Some(".ns_per_call"))
            .expect("every partitioner has a metric");
        v.set(metric, mean_ns(tr, name));
    }
    v.set("multi.partition.refused", refused as f64);
    v.set("tasks.rta.ns_per_call", mean_ns(tr, "tasks.rta"));

    // Each fleet on a serial engine, and each of its cores standalone:
    // the standalone reports must equal the engine's bit for bit.
    let mut serial = MultiEngine::serial();
    let mut ws = SimWorkspace::new();
    let mut sum = Counters::default();
    let (mut skipped, mut eligible, mut detected, mut ok_fleets) = (0u64, 0u64, 0u64, 0u64);
    let mut sample_core: Option<(usize, Cell, SimReport)> = None;
    let mut alloc_cells: Vec<Cell> = Vec::new();
    for (i, u) in pop.fleets.iter().enumerate() {
        let FleetOutcome::Ok(report) = &outcomes[i] else {
            continue;
        };
        ok_fleets += 1;
        let again = tr.time("multi.run.serial", i as u64, || serial.run(&u.mc, 1.0));
        let same = again
            .is_ok_and(|r| serde_json::to_string(&r).ok() == serde_json::to_string(report).ok());
        if !same {
            f.fail(i, "serial engine differs from the threaded engine");
        }
        let Ok((_, cells)) = u.mc.derived_cells() else {
            f.fail(i, "partition differs between runs");
            continue;
        };
        for (k, cell) in cells.into_iter().enumerate() {
            let (Some(cell), Some(core)) = (cell, report.core_report(k)) else {
                continue;
            };
            let alone = tr.time("kernel.sim", i as u64, || cell.run_in(1.0, &mut ws));
            let ff = ws.fast_forward_stats();
            let same = alone.is_ok_and(|r| {
                fnv1a(serde_json::to_string(&r).expect("serialize").as_bytes())
                    == fnv1a(serde_json::to_string(core).expect("serialize").as_bytes())
            });
            if !same {
                f.fail(i, format!("core {k} differs from its standalone run"));
            }
            add_counters(&mut sum, &core.counters);
            skipped += ff.events_skipped;
            if ff_eligible(&cell) {
                eligible += 1;
                detected += u64::from(ff.cycles_detected > 0);
            }
            if sample_core.is_none() && cell.policy == PolicyChoice::Kind(PolicyKind::Lpfps) {
                sample_core = Some((i, cell.clone(), core.clone()));
            }
            if alloc_cells.len() < ALLOC_UNITS {
                alloc_cells.push(cell);
            }
        }
    }
    debug_assert_eq!(
        sum.events,
        outcomes
            .iter()
            .map(|o| match o {
                FleetOutcome::Ok(r) => fleet_events(r),
                _ => 0,
            })
            .sum::<u64>()
    );
    set_counters(v, &sum, skipped);
    v.set(
        "kernel.steady.detect_ratio",
        ratio(detected as f64, eligible as f64),
    );
    let sim = tr.totals("kernel.sim");
    v.set(
        "kernel.sim.ns_per_event",
        ratio(sim.self_ns as f64, sum.events as f64),
    );
    let serial_ns = tr.totals("multi.run.serial").total_ns as f64;
    v.set(
        "multi.overhead_ns_per_fleet",
        ratio(serial_ns - sim.total_ns as f64, ok_fleets as f64),
    );
    let run_ns = tr.totals("multi.run").total_ns as f64;
    v.set(
        "multi.busy_frac",
        ratio(sim.total_ns as f64, threads as f64 * run_ns),
    );
    let bytes: u64 = outcomes
        .iter()
        .filter_map(|o| match o {
            FleetOutcome::Ok(r) => serde_json::to_string(r).ok().map(|s| s.len() as u64),
            _ => None,
        })
        .sum();
    v.set("kernel.report.bytes", ratio(bytes as f64, ok_fleets as f64));

    if let Some((i, cell, core)) = &sample_core {
        if let Some((row, _)) = replay_checked(cell, core, *i, f) {
            set_replay(v, &row);
        }
    }
    let refs: Vec<&Cell> = alloc_cells.iter().collect();
    let (allocs, bytes) = allocs_per_sim(&refs);
    v.set("kernel.allocs_per_sim", allocs);
    v.set("kernel.alloc_bytes_per_sim", bytes);

    // Oracle: every core of a sample of fleets, and the sweep's invariant
    // checker over those cores.
    let divergences = checks::fleet_oracle(pop, &outcomes, tr, f);
    v.set("oracle.divergences", divergences as f64);
    let mut spec = SweepSpec::new("fleet-sample");
    let mut oracle_events = 0;
    for i in checks::sample(pop.fleets.len(), ORACLE_SAMPLE) {
        if let FleetOutcome::Ok(r) = &outcomes[i] {
            oracle_events += fleet_events(r);
            if let Ok((_, cells)) = pop.fleets[i].mc.derived_cells() {
                cells.into_iter().flatten().for_each(|c| spec.push(c));
            }
        }
    }
    v.set(
        "oracle.run.ns_per_event",
        ratio(
            tr.totals("oracle.run").total_ns as f64,
            oracle_events as f64,
        ),
    );
    let out = run_sweep(&spec, &run_options(Workload::Fleet, 1));
    let checked = tr.time("oracle.check", 0, || {
        check_sampled_cells(&spec, &out, spec.len(), 1.0)
    });
    if checked.iter().any(|c| !c.is_ok()) {
        f.fail(0, "invariant check failed on a sampled fleet core");
    }
    v.set(
        "oracle.check.ns_per_cell",
        ratio(
            tr.totals("oracle.check").total_ns as f64,
            checked.len() as f64,
        ),
    );
}
