//! Seeded input generation: everything the library is handed is built
//! here from the workload name and the seed.
//!
//! The same `(workload, seed)` always yields the same task sets, cells
//! and fleets (every draw comes from counter-free SplitMix64 streams
//! keyed by the seed), and a different seed yields different ones.

use crate::spans::Tracer;
use lpfps::driver::PolicyKind;
use lpfps_cpu::spec::CpuSpec;
use lpfps_faults::{FaultConfig, OverrunFault, WakeupJitter};
use lpfps_multi::{MultiCell, PartitionerKind};
use lpfps_sweep::{Cell, ExecKind, SweepSpec};
use lpfps_tasks::analysis::{hyperperiod, rta_schedulable};
use lpfps_tasks::error::validate_task_set;
use lpfps_tasks::gen::{generate, uunifast, GenConfig};
use lpfps_tasks::rng::SplitMix64;
use lpfps_tasks::task::Task;
use lpfps_tasks::taskset::TaskSet;
use lpfps_tasks::time::Dur;
use lpfps_workloads::{avionics, cnc, flight_control, ins, table1, WorkloadBuilder};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    UtilSweep,
    LongHorizon,
    Fleet,
    Observed,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::UtilSweep,
        Workload::LongHorizon,
        Workload::Fleet,
        Workload::Observed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::UtilSweep => "util_sweep",
            Workload::LongHorizon => "long_horizon",
            Workload::Fleet => "fleet",
            Workload::Observed => "observed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Task sets drawn for `util_sweep` (and, through [`OBSERVED_SHARE`],
/// for `observed`): about 2.4 units per set, so well over 1000 units.
pub const UTIL_SETS: usize = 560;
/// `observed` keeps the units of every set whose index is not a multiple
/// of this (four sets in five).
pub const OBSERVED_SHARE: usize = 5;
/// In `observed`, every this-many-th unit records a full trace and is
/// exported to Perfetto JSON.
pub const OBSERVED_TRACE_EVERY: usize = 128;
/// Seeded task sets of `long_horizon` (plus the five paper applications).
pub const LONG_HORIZON_SETS: usize = 745;
/// Whole hyperperiods each `long_horizon` cell simulates.
pub const LONG_HORIZON_CYCLES: u64 = 40;
/// Base task sets of `fleet` (the five paper applications first). Each
/// paper application runs on every core count; each seeded set runs on
/// one core count, cycling through them, so that many independent sets
/// (not a few sets times the grid) make up the population.
pub const FLEET_BASES: usize = 116;
/// Core counts of `fleet`.
pub const FLEET_CORES: [usize; 3] = [2, 4, 8];

/// Overrun clamp of the faulted `util_sweep` units: a faulted set is kept
/// only if it stays RTA-schedulable with every WCET inflated by this.
pub const OVERRUN_CLAMP: f64 = 1.5;

/// Period grid of `long_horizon` in ms: the divisors of 120, so every
/// set's hyperperiod divides 120 ms.
const GRID_MS: [u64; 14] = [2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 24, 30, 40, 60];

const DOMAIN_UTIL: u64 = 0x5EED_0001_0000_0001;
const DOMAIN_LONG: u64 = 0x5EED_0002_0000_0002;
const DOMAIN_FLEET: u64 = 0x5EED_0003_0000_0003;

/// One sweep unit and its place in the LPFPS-versus-FPS comparison.
#[derive(Debug, Clone)]
pub struct Unit {
    pub cell: Cell,
    /// For an LPFPS-family unit: the index of the FPS unit with the same
    /// task set, seed and faults.
    pub pair: Option<usize>,
    /// True when the paper guarantees this unit misses no deadline: a
    /// schedulable set under a fault-free policy. (Faulted `lpfps-wd`
    /// units carry no such guarantee; see [`crate::checks::margin_claim`].)
    pub expect_no_miss: bool,
}

/// One fleet unit.
#[derive(Debug, Clone)]
pub struct FleetUnit {
    pub mc: MultiCell,
    /// For an `lpfps` fleet: the index of its `fps` twin.
    pub pair: Option<usize>,
}

/// Measured properties of the generated inputs.
#[derive(Debug, Clone, Default)]
pub struct Props {
    pub tasks: (usize, usize),
    pub utilization: (f64, f64),
    pub bcet: (f64, f64),
    /// Fleet only: tasks per core (fleet tasks ÷ cores).
    pub tasks_per_core: (f64, f64),
}

impl Props {
    fn note(&mut self, ts: &TaskSet, bcet: f64) {
        let first = self.tasks == (0, 0);
        let (n, u) = (ts.len(), ts.utilization());
        if first {
            self.tasks = (n, n);
            self.utilization = (u, u);
            self.bcet = (bcet, bcet);
        } else {
            self.tasks = (self.tasks.0.min(n), self.tasks.1.max(n));
            self.utilization = (self.utilization.0.min(u), self.utilization.1.max(u));
            self.bcet = (self.bcet.0.min(bcet), self.bcet.1.max(bcet));
        }
    }
}

/// Everything set-up produces for one workload.
#[derive(Debug, Clone)]
pub struct Population {
    pub workload: Workload,
    /// Sweep units, in spec order (empty for `fleet`).
    pub units: Vec<Unit>,
    /// The sweep spec over `units` (empty for `fleet`).
    pub spec: SweepSpec,
    /// Fleet units (empty otherwise).
    pub fleets: Vec<FleetUnit>,
    /// Task sets drawn and kept by the RTA filter.
    pub drawn: u64,
    pub kept: u64,
    pub props: Props,
}

impl Population {
    /// Units (cells or fleets) the workload runs per pass.
    pub fn len(&self) -> usize {
        self.units.len() + self.fleets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The first `n` units (sweep) or fleets of this population, with
    /// pairs that would point past the cut dropped.
    pub fn head(&self, n: usize) -> Population {
        let mut pop = self.clone();
        pop.units.truncate(n);
        pop.fleets.truncate(n);
        pop.spec = SweepSpec::new(self.workload.name());
        for unit in &pop.units {
            pop.spec.push(unit.cell.clone());
        }
        pop
    }
}

fn uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn int_between(rng: &mut SplitMix64, lo: usize, hi: usize) -> usize {
    lo + (rng.next_u64() % (hi - lo + 1) as u64) as usize
}

/// A draw from stratum `i mod k` of `[lo, hi)`. Stratifying by draw index
/// makes every seed cover each range evenly, so seeds move the points but
/// not the mix; that keeps aggregate timings comparable across seeds.
fn stratified(rng: &mut SplitMix64, i: u64, k: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((i % k) as f64 + rng.next_f64()) / k as f64
}

/// `ts` with every WCET multiplied by `factor` (rounded up), or `None`
/// when an inflated WCET no longer fits its period.
fn inflated(ts: &TaskSet, factor: f64) -> Option<TaskSet> {
    let tasks = ts
        .tasks()
        .iter()
        .map(|t| {
            let wcet = Dur::from_ns((t.wcet().as_ns() as f64 * factor).ceil() as u64);
            Task::validated(t.name(), t.period(), wcet)
                .and_then(|task| task.try_with_deadline(t.deadline()))
                .ok()
        })
        .collect::<Option<Vec<_>>>()?;
    TaskSet::try_rate_monotonic(ts.name(), tasks).ok()
}

/// Builds the inputs of `workload` from `seed`, recording `tasks.gen`,
/// `tasks.rta` and `workloads.build` spans on `tr`.
///
/// # Panics
///
/// Panics only on a defect of this generator (a drawn set that fails
/// task-set validation).
pub fn build(workload: Workload, seed: u64, tr: &mut Tracer) -> Population {
    let mut pop = Population {
        workload,
        units: Vec::new(),
        spec: SweepSpec::new(workload.name()),
        fleets: Vec::new(),
        drawn: 0,
        kept: 0,
        props: Props::default(),
    };
    match workload {
        Workload::UtilSweep => util_units(seed, usize::MAX, &mut pop, tr),
        Workload::Observed => util_units(seed, OBSERVED_SHARE, &mut pop, tr),
        Workload::LongHorizon => long_horizon_units(seed, &mut pop, tr),
        Workload::Fleet => fleet_units(seed, &mut pop, tr),
    }
    for unit in &pop.units {
        pop.spec.push(unit.cell.clone());
    }
    pop
}

fn push_unit(pop: &mut Population, cell: Cell, pair: Option<usize>, expect_no_miss: bool) -> usize {
    pop.units.push(Unit {
        cell,
        pair,
        expect_no_miss,
    });
    pop.units.len() - 1
}

/// `util_sweep`: UUniFast sets of 8–24 tasks with log-uniform periods in
/// 1–100 ms, U in 0.2–0.9 and BCET fraction in 0.1–0.9, kept only when
/// RTA-schedulable. About three sets in five are faulted: they are drawn
/// at U ≤ 0.6, kept only when still schedulable at the overrun clamp, and
/// run as an `fps`/`lpfps-wd` pair under overrun and wake-up-jitter
/// faults; the rest run under `fps`, `lpfps` and `cc-edf`. With
/// `share = k`, sets whose index is a multiple of `k` are skipped (the
/// `observed` sub-population); `usize::MAX` keeps every set.
fn util_units(seed: u64, share: usize, pop: &mut Population, tr: &mut Tracer) {
    let mut rng = SplitMix64::new(seed ^ DOMAIN_UTIL);
    let cpu = CpuSpec::arm8();
    let mut set_index = 0usize;
    while set_index < UTIL_SETS {
        let draw = pop.drawn;
        let n = 8 + (draw % 17) as usize;
        let faulted = draw % 5 < 3;
        let u = if faulted {
            stratified(&mut rng, draw, 11, 0.2, 0.6)
        } else {
            stratified(&mut rng, draw, 11, 0.2, 0.9)
        };
        let bcet = stratified(&mut rng, draw, 7, 0.1, 0.9);
        let set_seed = rng.next_u64();
        let cell_seed = rng.next_u64();
        let fault_seed = rng.next_u64();
        let overrun_p = uniform(&mut rng, 0.05, 0.2);
        let jitter_us = int_between(&mut rng, 2, 20) as u64;

        let cfg = GenConfig::new(n, u)
            .with_periods(Dur::from_ms(1), Dur::from_ms(100))
            .with_bcet_fraction(bcet);
        let ts = tr.time("tasks.gen", set_index as u64, || generate(&cfg, set_seed));
        pop.drawn += 1;
        let keep = if faulted {
            inflated(&ts, OVERRUN_CLAMP)
                .is_some_and(|big| tr.time("tasks.rta", set_index as u64, || rta_schedulable(&big)))
        } else {
            tr.time("tasks.rta", set_index as u64, || rta_schedulable(&ts))
        };
        if !keep {
            continue;
        }
        validate_task_set(&ts).expect("generated sets are valid");
        pop.kept += 1;
        let index = set_index;
        set_index += 1;
        if share != usize::MAX && index.is_multiple_of(share) {
            continue;
        }
        pop.props.note(&ts, bcet);
        let base = Cell::new(ts, cpu.clone(), PolicyKind::Fps)
            .with_app(format!("u{index}"))
            .with_exec(ExecKind::PaperGaussian)
            .with_bcet_fraction(bcet)
            .with_seed(cell_seed);
        if faulted {
            let faults = FaultConfig::none()
                .with_seed(fault_seed)
                .with_overrun(OverrunFault::clamped(overrun_p, 0.5, OVERRUN_CLAMP))
                .with_wakeup_jitter(WakeupJitter::uniform(Dur::from_us(jitter_us)));
            let base = base.with_faults(faults);
            let fps = push_unit(pop, base.clone(), None, false);
            let mut wd = base;
            wd.policy = PolicyKind::LpfpsWatchdog.into();
            push_unit(pop, wd, Some(fps), false);
        } else {
            let fps = push_unit(pop, base.clone(), None, true);
            for kind in [PolicyKind::Lpfps, PolicyKind::CcEdf] {
                let mut cell = base.clone();
                cell.policy = kind.into();
                push_unit(pop, cell, Some(fps), true);
            }
        }
    }
    if share != usize::MAX {
        for (i, unit) in pop.units.iter_mut().enumerate() {
            if i % OBSERVED_TRACE_EVERY == 0 {
                unit.cell.trace = true;
            }
        }
    }
}

/// How many paper applications [`paper_apps`] returns.
const PAPER_APPS: usize = 5;

/// The five paper applications.
pub fn paper_apps() -> Vec<TaskSet> {
    vec![table1(), avionics(), cnc(), flight_control(), ins()]
}

/// `long_horizon`: seeded sets of 8–24 tasks whose periods come from the
/// divisors of 120 ms (U in 0.2–0.9, RTA-schedulable), plus the five paper
/// applications, each at `AlwaysWcet` over [`LONG_HORIZON_CYCLES`]
/// hyperperiods under `fps`, `lpfps`, `edf` and `cc-edf`.
fn long_horizon_units(seed: u64, pop: &mut Population, tr: &mut Tracer) {
    let mut rng = SplitMix64::new(seed ^ DOMAIN_LONG);
    let mut sets = Vec::new();
    while sets.len() < LONG_HORIZON_SETS {
        let index = sets.len() as u64;
        let draw = pop.drawn;
        let n = 8 + (draw % 17) as usize;
        let u = stratified(&mut rng, draw, 11, 0.2, 0.9);
        let ts = tr.time("tasks.gen", index, || {
            let utils = uunifast(n, u, &mut rng);
            let tasks = utils
                .iter()
                .enumerate()
                .map(|(i, &ui)| {
                    let period_us =
                        GRID_MS[(rng.next_u64() % GRID_MS.len() as u64) as usize] * 1000;
                    let wcet_us = ((ui * period_us as f64).round() as u64).clamp(1, period_us);
                    Task::new(
                        format!("g{i}"),
                        Dur::from_us(period_us),
                        Dur::from_us(wcet_us),
                    )
                })
                .collect();
            TaskSet::try_rate_monotonic(format!("grid{index}"), tasks)
        });
        pop.drawn += 1;
        let Ok(ts) = ts else { continue };
        if tr.time("tasks.rta", index, || rta_schedulable(&ts)) {
            pop.kept += 1;
            sets.push(ts);
        }
    }
    sets.extend(paper_apps());
    let cpu = CpuSpec::arm8();
    for ts in sets {
        validate_task_set(&ts).expect("generated sets are valid");
        pop.props.note(&ts, 1.0);
        let h = hyperperiod(&ts).expect("grid and paper hyperperiods are representable");
        let horizon = h
            .checked_mul(LONG_HORIZON_CYCLES)
            .expect("horizon is representable");
        let rm_ok = rta_schedulable(&ts);
        let edf_ok = ts.utilization() <= 1.0;
        let base = Cell::new(ts, cpu.clone(), PolicyKind::Fps)
            .with_exec(ExecKind::AlwaysWcet)
            .with_horizon(horizon);
        let fps = push_unit(pop, base.clone(), None, rm_ok);
        for (kind, ok, paired) in [
            (PolicyKind::Lpfps, rm_ok, true),
            (PolicyKind::Edf, edf_ok, false),
            (PolicyKind::CcEdf, edf_ok, true),
        ] {
            let mut cell = base.clone();
            cell.policy = kind.into();
            push_unit(pop, cell, paired.then_some(fps), ok);
        }
    }
}

/// `fleet`: the five paper applications and seeded 4–10-task sets
/// (U 0.3–0.8, log-uniform periods in 1–100 ms, RTA-schedulable),
/// replicated by [`WorkloadBuilder`] onto 2, 4 and 8 cores (the
/// applications onto each, a seeded set onto one) and rescaled to a
/// per-core utilization in 0.4–0.7, then run under every partitioner ×
/// {fps, lpfps} with `PaperGaussian` demands.
fn fleet_units(seed: u64, pop: &mut Population, tr: &mut Tracer) {
    let mut rng = SplitMix64::new(seed ^ DOMAIN_FLEET);
    let mut bases = paper_apps();
    while bases.len() < FLEET_BASES {
        let index = bases.len() as u64;
        let draw = pop.drawn;
        let n = 4 + (draw % 7) as usize;
        let u = stratified(&mut rng, draw, 11, 0.3, 0.8);
        let set_seed = rng.next_u64();
        let cfg = GenConfig::new(n, u).with_periods(Dur::from_ms(1), Dur::from_ms(100));
        let ts = tr.time("tasks.gen", index, || generate(&cfg, set_seed));
        pop.drawn += 1;
        if tr.time("tasks.rta", index, || rta_schedulable(&ts)) {
            pop.kept += 1;
            bases.push(ts);
        }
    }
    let cpu = CpuSpec::arm8();
    let mut tpc = (f64::MAX, 0.0f64);
    for (b, base) in bases.into_iter().enumerate() {
        validate_task_set(&base).expect("base sets are valid");
        let bcet = stratified(&mut rng, b as u64, 7, 0.1, 0.9);
        let core_counts = if b < PAPER_APPS {
            &FLEET_CORES[..]
        } else {
            &FLEET_CORES[b % FLEET_CORES.len()..][..1]
        };
        for (c, &cores) in core_counts.iter().enumerate() {
            let per_core = stratified(&mut rng, (b * FLEET_CORES.len() + c) as u64, 5, 0.4, 0.7);
            let stagger = rng.next_u64();
            let cell_seed = rng.next_u64();
            // Keep every rescaled task below 95 % of its period.
            let heaviest = base
                .tasks()
                .iter()
                .map(Task::utilization)
                .fold(0.0, f64::max);
            let factor = (per_core / base.utilization()).min(0.95 / heaviest);
            let target = base.utilization() * factor * cores as f64;
            let unit = (b * FLEET_CORES.len()) as u64 + cores as u64;
            let fleet = tr.time("workloads.build", unit, || {
                let replicated = WorkloadBuilder::new(base.clone())
                    .with_seed(stagger)
                    .replicate(cores);
                WorkloadBuilder::new(replicated).scale_utilization(target)
            });
            pop.props.note(&fleet, bcet);
            let per = fleet.len() as f64 / cores as f64;
            tpc = (tpc.0.min(per), tpc.1.max(per));
            for partitioner in PartitionerKind::ALL {
                let mut fps = None;
                for kind in [PolicyKind::Fps, PolicyKind::Lpfps] {
                    let cell = Cell::new(fleet.clone(), cpu.clone(), kind)
                        .with_exec(ExecKind::PaperGaussian)
                        .with_bcet_fraction(bcet)
                        .with_seed(cell_seed);
                    pop.fleets.push(FleetUnit {
                        mc: MultiCell::new(cell, cores, partitioner),
                        pair: fps,
                    });
                    fps = Some(pop.fleets.len() - 1);
                }
            }
        }
    }
    pop.props.tasks_per_core = tpc;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn inflation_rejects_overfull_tasks() {
        let ts =
            TaskSet::rate_monotonic("t", vec![Task::new("a", Dur::from_us(10), Dur::from_us(8))]);
        assert!(inflated(&ts, 1.5).is_none());
        assert!(inflated(&ts, 1.2).is_some());
    }
}
