//! Replay rows: the layers the kernel calls internally, timed through
//! their public functions on one sampled cell's recorded inputs.
//!
//! The sampled cell is re-run once, fully simulated, with a recording
//! probe (the kernel's public `Probe` seam) and a [`RatioLogger`] around
//! its LPFPS policy. The recorded event stream gives the exact inputs of
//! every internal call — releases for execution-time and fault draws,
//! energy segments for the meter and the power model, ramp starts for
//! the ramp quadrature, slow-down decisions for the speed planner and the
//! ladder, and the release/dispatch/preempt order for the queues — and
//! each is replayed through the layer's public function and timed.
//! Multiplying a count by its ns-per-call gives that layer's share of the
//! kernel's self time.

use lpfps::driver::PolicyKind;
use lpfps::lpfps_policy::LpfpsPolicy;
use lpfps::speed::{r_heu, r_opt};
use lpfps::RatioLogger;
use lpfps_cpu::{CpuState, EnergyMeter, Ramp};
use lpfps_kernel::engine::{simulate_in_probed, SimConfig, SimWorkspace};
use lpfps_kernel::queues::{DelayQueue, RunQueue};
use lpfps_kernel::report::{Counters, SimReport};
use lpfps_kernel::trace::TraceEvent;
use lpfps_obs::TraceProbe;
use lpfps_sweep::{Cell, PolicyChoice};
use lpfps_tasks::cycles::Cycles;
use lpfps_tasks::task::TaskId;
use lpfps_tasks::time::Time;
use std::hint::black_box;
use std::time::Instant;

/// The [`SimConfig`] a sweep cell runs under at horizon scale 1 (the
/// same construction as the sweep runner's), optionally with the
/// steady-state fast-forward forced off.
pub fn sim_config(cell: &Cell, force_full: bool) -> SimConfig {
    let mut cfg = SimConfig::new(cell.effective_horizon(1.0))
        .with_seed(cell.seed)
        .with_context_switch(cell.context_switch)
        .with_ratio_overhead(cell.ratio_overhead);
    if force_full {
        cfg = cfg.with_force_full_simulation();
    }
    if let Some(tick) = cell.tick {
        cfg = cfg.with_tick(tick);
    }
    cfg = cfg.with_faults(cell.faults);
    if cell.trace {
        cfg = cfg.with_trace();
    }
    cfg
}

/// Per-kind event counts seen by a probe.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Distinct instants with at least one event: the kernel's decision
    /// points (`counters.events`).
    pub instants: u64,
    pub releases: u64,
    pub dispatches: u64,
    pub preemptions: u64,
    pub completions: u64,
    pub ramps: u64,
    pub power_downs: u64,
    pub wakeups: u64,
    pub segments: u64,
}

impl ProbeCounts {
    pub fn of(events: &[(Time, TraceEvent)]) -> Self {
        let mut c = ProbeCounts::default();
        let mut last = None;
        for (at, e) in events {
            if last != Some(*at) {
                c.instants += 1;
                last = Some(*at);
            }
            match e {
                TraceEvent::Release { .. } => c.releases += 1,
                TraceEvent::Dispatch { .. } => c.dispatches += 1,
                TraceEvent::Preempt { .. } => c.preemptions += 1,
                TraceEvent::Complete { .. } => c.completions += 1,
                TraceEvent::RampStart { .. } => c.ramps += 1,
                TraceEvent::EnterPowerDown { .. } => c.power_downs += 1,
                TraceEvent::Wakeup => c.wakeups += 1,
                TraceEvent::EnergySegment { .. } => c.segments += 1,
                _ => {}
            }
        }
        c
    }

    /// The first counter on which the probe disagrees with the report.
    pub fn mismatch(&self, counters: &Counters) -> Option<&'static str> {
        [
            ("events", self.instants, counters.events),
            ("releases", self.releases, counters.releases),
            ("dispatches", self.dispatches, counters.dispatches),
            ("preemptions", self.preemptions, counters.preemptions),
            ("completions", self.completions, counters.completions),
            ("ramps", self.ramps, counters.ramps),
            ("power_downs", self.power_downs, counters.power_downs),
        ]
        .into_iter()
        .find(|(_, probe, report)| probe != report)
        .map(|(name, _, _)| name)
    }
}

/// A cell's recorded run: the fully simulated report, the probe's event
/// stream and the policy's slow-down decisions.
pub struct Recording {
    pub report: SimReport,
    pub events: Vec<(Time, TraceEvent)>,
    pub decisions: Vec<lpfps::RatioSample>,
}

/// Re-runs `cell` fully simulated with a recording probe and a
/// [`RatioLogger`]. Only fixed-priority LPFPS cells can be recorded (the
/// logger wraps [`LpfpsPolicy`]).
///
/// # Errors
///
/// A message when the cell's policy is not an LPFPS variant or the
/// simulation fails.
pub fn record(cell: &Cell) -> Result<Recording, String> {
    let policy = match cell.policy {
        PolicyChoice::Kind(PolicyKind::Lpfps) => LpfpsPolicy::new(),
        PolicyChoice::Kind(PolicyKind::LpfpsWatchdog) => {
            LpfpsPolicy::with_watchdog(PolicyKind::DEFAULT_WATCHDOG_COOLDOWN)
        }
        other => return Err(format!("cannot record policy {}", other.name())),
    };
    let mut logger = RatioLogger::new(policy);
    let mut probe = TraceProbe::new();
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let mut report = simulate_in_probed(
        &scaled,
        &cell.cpu,
        &mut logger,
        cell.exec.model(),
        &sim_config(cell, true),
        &mut SimWorkspace::new(),
        &mut probe,
    )
    .map_err(|e| e.to_string())?;
    report.taskset = cell.app.clone();
    Ok(Recording {
        report,
        events: probe.into_trace().iter().collect(),
        decisions: logger.samples().to_vec(),
    })
}

/// Calls `round` until at least `MIN_NS` have passed (and at least three
/// times) and returns the mean ns per operation, for `ops` operations
/// per round. Returns 0 when a round has no operations.
pub fn ns_per_op(ops: u64, mut round: impl FnMut()) -> f64 {
    const MIN_NS: u128 = 5_000_000;
    if ops == 0 {
        return 0.0;
    }
    let start = Instant::now();
    let mut rounds = 0u64;
    while rounds < 3 || start.elapsed().as_nanos() < MIN_NS {
        round();
        rounds += 1;
    }
    start.elapsed().as_nanos() as f64 / (rounds * ops) as f64
}

/// Replay timings and counts of one recorded cell.
#[derive(Debug, Clone, Default)]
pub struct ReplayRow {
    pub counts: ProbeCounts,
    pub exec_ns_per_draw: f64,
    pub energy_ns_per_segment: f64,
    pub power_calls: u64,
    pub power_ns_per_call: f64,
    pub ramp_ns_per_call: f64,
    pub ladder_ns_per_quantize: f64,
    pub decisions: u64,
    pub speed_ns_per_decision: f64,
    pub queue_ops: u64,
    pub queue_ns_per_op: f64,
    pub fault_draws: u64,
    pub faults_ns_per_draw: f64,
}

/// Replays every recorded input of `rec` (recorded from `cell`) through
/// its layer's public function.
///
/// # Errors
///
/// A message when the replayed energy integral differs from the report's
/// by a single bit (the replay would not be seeing the kernel's inputs).
pub fn replay(cell: &Cell, rec: &Recording) -> Result<ReplayRow, String> {
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let cpu = &cell.cpu;
    let power = cpu.power();
    let f_max = cpu.full_freq();
    let rate = cpu.ramp_rate_per_us();
    let mut row = ReplayRow {
        counts: ProbeCounts::of(&rec.events),
        decisions: rec.decisions.len() as u64,
        ..ReplayRow::default()
    };

    let releases: Vec<(TaskId, u64)> = rec
        .events
        .iter()
        .filter_map(|(_, e)| match *e {
            TraceEvent::Release { task, job } => Some((task, job)),
            _ => None,
        })
        .collect();
    let segments: Vec<(CpuState, f64, lpfps_tasks::time::Dur)> = rec
        .events
        .iter()
        .filter_map(|(_, e)| match *e {
            TraceEvent::EnergySegment { state, power, dur } => Some((state, power, dur)),
            _ => None,
        })
        .collect();
    let ramps: Vec<_> = rec
        .events
        .iter()
        .filter_map(|(_, e)| match *e {
            TraceEvent::RampStart { from, to } => Some((from, to)),
            _ => None,
        })
        .collect();

    // tasks: execution-time draws, one per release.
    let model = cell.exec.model();
    row.exec_ns_per_draw = ns_per_op(releases.len() as u64, || {
        for &(id, job) in &releases {
            black_box(model.sample(scaled.task(id), id, job, cell.seed));
        }
    });

    // cpu: energy accumulation, checked bit for bit against the report.
    let mut meter = EnergyMeter::new();
    for &(state, p, dur) in &segments {
        meter.accumulate_with_power(state, p, dur);
    }
    if meter.total_energy().to_bits() != rec.report.energy.total_energy().to_bits() {
        return Err("replayed energy segments do not reproduce the report's energy".into());
    }
    row.energy_ns_per_segment = ns_per_op(segments.len() as u64, || {
        let mut meter = EnergyMeter::new();
        for &(state, p, dur) in &segments {
            meter.accumulate_with_power(state, black_box(p), dur);
        }
        black_box(meter.total_energy());
    });

    // cpu: the power model, once per settled-state segment.
    let settled: Vec<CpuState> = segments
        .iter()
        .map(|s| s.0)
        .filter(|s| {
            matches!(
                s,
                CpuState::Busy(_) | CpuState::IdleNop | CpuState::PowerDown { .. }
            )
        })
        .collect();
    row.power_calls = settled.len() as u64;
    row.power_ns_per_call = ns_per_op(row.power_calls, || {
        for s in &settled {
            black_box(match *s {
                CpuState::Busy(f) => power.busy(black_box(f)),
                CpuState::IdleNop => power.idle_nop(),
                _ => power.power_down(),
            });
        }
    });

    // cpu: ramp construction and quadrature, once per ramp.
    row.ramp_ns_per_call = ns_per_op(ramps.len() as u64, || {
        for &(from, to) in &ramps {
            let ramp = Ramp::between(black_box(from), to, f_max, rate);
            black_box(power.ramp_average(&ramp));
        }
    });

    // cpu + core: ladder quantization and Eq. 2/3 speed planning, once
    // per slow-down decision.
    let ladder = cpu.ladder();
    row.ladder_ns_per_quantize = ns_per_op(row.decisions, || {
        for d in &rec.decisions {
            black_box(ladder.quantize_up_ratio(black_box(d.r_heu)));
        }
    });
    row.speed_ns_per_decision = ns_per_op(row.decisions, || {
        for d in &rec.decisions {
            black_box(r_heu(black_box(d.remaining), d.window));
            black_box(r_opt(black_box(d.remaining), d.window, rate));
        }
    });

    // kernel: run/delay queue operations in the recorded order.
    let (ops, _) = replay_queues(&scaled, &rec.events);
    row.queue_ops = ops;
    row.queue_ns_per_op = ns_per_op(ops, || {
        black_box(replay_queues(&scaled, &rec.events));
    });

    // faults: one overrun draw per release, one jitter draw per wake-up.
    let faults = cell.faults;
    if faults.overrun.is_some() || faults.wakeup_jitter.is_some() {
        let wcets: Vec<Cycles> = scaled
            .tasks()
            .iter()
            .map(|t| Cycles::from_time_at(t.wcet(), f_max))
            .collect();
        let overrun_draws = if faults.overrun.is_some() {
            releases.len() as u64
        } else {
            0
        };
        let wakeup_draws = if faults.wakeup_jitter.is_some() {
            row.counts.wakeups
        } else {
            0
        };
        row.fault_draws = overrun_draws + wakeup_draws;
        row.faults_ns_per_draw = ns_per_op(row.fault_draws, || {
            if let Some(o) = &faults.overrun {
                for &(id, job) in &releases {
                    black_box(o.extra_cycles(cell.seed, faults.seed, id.0, job, wcets[id.0]));
                }
            }
            if let Some(j) = &faults.wakeup_jitter {
                for k in 0..wakeup_draws {
                    black_box(j.extra(cell.seed, faults.seed, black_box(k)));
                }
            }
        });
    }
    Ok(row)
}

/// Drives a [`RunQueue`] and a [`DelayQueue`] through the recorded
/// release/dispatch/preempt order: a release pops the due tasks and
/// queues the released job, re-arming the task for its next recorded
/// release; a dispatch takes the head; a preemption re-queues. Returns
/// the number of queue operations and the final run-queue length.
fn replay_queues(
    ts: &lpfps_tasks::taskset::TaskSet,
    events: &[(Time, TraceEvent)],
) -> (u64, usize) {
    let n = ts.len();
    // next_release[i] = the recorded release instant following event i
    // of the same task; first[k] = task k's first recorded release.
    let mut first: Vec<Option<Time>> = vec![None; n];
    let mut next_release: Vec<Option<Time>> = vec![None; events.len()];
    let mut last_index: Vec<Option<usize>> = vec![None; n];
    for (i, (at, e)) in events.iter().enumerate() {
        if let TraceEvent::Release { task, .. } = e {
            match last_index[task.0] {
                Some(prev) => next_release[prev] = Some(*at),
                None => first[task.0] = Some(*at),
            }
            last_index[task.0] = Some(i);
        }
    }
    let mut run: RunQueue = RunQueue::new();
    let mut delay = DelayQueue::new();
    let mut in_run = vec![false; n];
    let mut due = Vec::with_capacity(n);
    let mut ops = 0u64;
    for (k, at) in first.iter().enumerate() {
        if let Some(at) = at {
            delay.insert(TaskId(k), ts.priority(TaskId(k)), *at);
            ops += 1;
        }
    }
    for (i, (at, e)) in events.iter().enumerate() {
        match *e {
            TraceEvent::Release { task, .. } => {
                delay.pop_due_into(*at, &mut due);
                ops += 1;
                if !in_run[task.0] {
                    run.insert(task, ts.priority(task));
                    in_run[task.0] = true;
                    ops += 1;
                }
                if let Some(next) = next_release[i] {
                    if !delay.contains(task) {
                        delay.insert(task, ts.priority(task), next);
                        ops += 1;
                    }
                }
            }
            TraceEvent::Dispatch { task, .. } => {
                ops += 1;
                if run.head() == Some(task) {
                    run.pop();
                    in_run[task.0] = false;
                    ops += 1;
                }
            }
            TraceEvent::Preempt { task, .. } if !in_run[task.0] => {
                run.insert(task, ts.priority(task));
                in_run[task.0] = true;
                ops += 1;
            }
            _ => {}
        }
    }
    (ops, run.len())
}
