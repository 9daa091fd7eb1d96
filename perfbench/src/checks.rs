//! Output checks, all outside the timed region. Every finding marks the
//! unit it concerns as failed, which makes the run exit non-zero.

use crate::fleet::FleetOutcome;
use crate::population::OVERRUN_CLAMP;
use crate::population::{Population, Workload};
use crate::replay::sim_config;
use crate::spans::Tracer;
use lpfps::driver::PolicyKind;
use lpfps::lpfps_policy::LpfpsPolicy;
use lpfps_bench::fingerprint::fnv1a;
use lpfps_kernel::engine::simulate_in;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::report::SimReport;
use lpfps_multi::PartitionerKind;
use lpfps_oracle::{first_divergence, oracle_run};
use lpfps_sweep::{Cell, PolicyChoice};
use std::collections::BTreeSet;

/// Units the oracle differential re-simulates per run.
pub const ORACLE_SAMPLE: usize = 6;
/// `long_horizon` units re-run fully simulated per run.
pub const FORCE_FULL_SAMPLE: usize = 8;

/// Failed units and why.
#[derive(Debug, Default)]
pub struct Findings {
    pub failed: BTreeSet<usize>,
    pub notes: Vec<String>,
}

impl Findings {
    pub fn fail(&mut self, unit: usize, why: impl Into<String>) {
        self.failed.insert(unit);
        if self.notes.len() < 20 {
            self.notes.push(format!("unit {unit}: {}", why.into()));
        }
    }

    pub fn merge(&mut self, failed: &BTreeSet<usize>, why: &str) {
        for &u in failed {
            self.fail(u, why);
        }
    }

    /// Units whose hash differs between two runs of the same inputs.
    pub fn compare_hashes(&mut self, reference: &[u64], other: &[u64], what: &str) {
        if reference.len() != other.len() {
            self.fail(0, format!("{what}: unit count differs"));
            return;
        }
        for (i, (a, b)) in reference.iter().zip(other).enumerate() {
            if a != b {
                self.fail(i, format!("{what}: report digest differs"));
            }
        }
    }
}

/// `k` evenly spaced indices of `0..n`.
pub fn sample(n: usize, k: usize) -> Vec<usize> {
    let k = k.min(n);
    (0..k).map(|j| j * n / k).collect()
}

/// The paper's claims on a sweep pass: no deadline miss where the paper
/// guarantees none, and every LPFPS-family unit below its FPS pair.
/// Returns `(Σ LPFPS-family power, Σ paired FPS power)`.
pub fn sweep_claims(
    pop: &Population,
    reports: &[Option<SimReport>],
    f: &mut Findings,
) -> (f64, f64) {
    let (mut lp, mut fps) = (0.0, 0.0);
    for (i, unit) in pop.units.iter().enumerate() {
        let Some(report) = &reports[i] else {
            f.fail(i, "no report");
            continue;
        };
        if unit.expect_no_miss && !report.misses.is_empty() {
            f.fail(
                i,
                format!(
                    "{} missed {} deadlines",
                    unit.cell.label(),
                    report.misses.len()
                ),
            );
        }
        if let Some(p) = unit.pair {
            let Some(base) = &reports[p] else { continue };
            let (a, b) = (report.average_power(), base.average_power());
            if a >= b {
                f.fail(
                    i,
                    format!("{}: power {a} is not below fps {b}", unit.cell.label()),
                );
                f.fail(p, "fps pair of a failed power comparison");
            }
            lp += a;
            fps += b;
        }
    }
    (lp, fps)
}

/// The watchdog's documented zero-miss guarantee under faults: LPFPS
/// with the watchdog *and* an overrun margin matched to the fault clamp
/// misses nothing on a set whose clamp-inflated demand passes RTA (every
/// faulted set is drawn that way). Each faulted `lpfps-wd` unit is re-run
/// in that configuration; a miss fails the unit. The plain `lpfps-wd`
/// units themselves carry no such guarantee — the reactive watchdog
/// detects an overrun only when the budget retires, one budget late — so
/// their misses are counted ([`wd_miss_units`]), not failed.
pub fn margin_claim(pop: &Population, f: &mut Findings) {
    let mut ws = SimWorkspace::new();
    for (i, unit) in pop.units.iter().enumerate() {
        let cell = &unit.cell;
        if cell.policy != PolicyChoice::Kind(PolicyKind::LpfpsWatchdog) || cell.faults.is_none() {
            continue;
        }
        let mut policy = LpfpsPolicy::with_watchdog(PolicyKind::DEFAULT_WATCHDOG_COOLDOWN)
            .with_overrun_margin(OVERRUN_CLAMP);
        let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
        let run = simulate_in(
            &scaled,
            &cell.cpu,
            &mut policy,
            cell.exec.model(),
            &sim_config(cell, false),
            &mut ws,
        );
        match run {
            Ok(r) if r.misses.is_empty() => {}
            Ok(r) => f.fail(
                i,
                format!(
                    "{} with margin {OVERRUN_CLAMP} missed {} deadlines",
                    cell.label(),
                    r.misses.len()
                ),
            ),
            Err(e) => f.fail(i, format!("{} with margin: {e}", cell.label())),
        }
    }
}

/// Faulted `lpfps-wd` units that missed at least one deadline.
pub fn wd_miss_units(pop: &Population, reports: &[Option<SimReport>]) -> u64 {
    pop.units
        .iter()
        .zip(reports)
        .filter(|(u, r)| {
            u.cell.policy == PolicyChoice::Kind(PolicyKind::LpfpsWatchdog)
                && r.as_ref().is_some_and(|r| !r.misses.is_empty())
        })
        .count() as u64
}

/// Diffs one engine report against the reference simulator, timing the
/// oracle run and the diff as `oracle.run` / `oracle.diff` spans.
/// Returns the divergence message, if any.
pub fn oracle_diff(cell: &Cell, report: &SimReport, unit: u64, tr: &mut Tracer) -> Option<String> {
    let PolicyChoice::Kind(kind) = cell.policy else {
        return Some("policy has no oracle counterpart".into());
    };
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    let cfg = sim_config(cell, false);
    let oracle = tr.time("oracle.run", unit, || {
        oracle_run(&scaled, &cell.cpu, kind, cell.exec.model(), &cfg)
    });
    match oracle {
        Ok(mut o) => {
            o.taskset = cell.app.clone();
            tr.time("oracle.diff", unit, || first_divergence(report, &o))
                .map(|d| d.to_string())
        }
        Err(e) => Some(format!("oracle rejected the cell: {e}")),
    }
}

/// Oracle differential over a sample of sweep units.
pub fn sweep_oracle(
    pop: &Population,
    reports: &[Option<SimReport>],
    tr: &mut Tracer,
    f: &mut Findings,
) -> u64 {
    let mut divergences = 0;
    for i in sample(pop.units.len(), ORACLE_SAMPLE) {
        let Some(report) = &reports[i] else { continue };
        if let Some(d) = oracle_diff(&pop.units[i].cell, report, i as u64, tr) {
            divergences += 1;
            f.fail(i, format!("oracle: {d}"));
        }
    }
    divergences
}

/// `long_horizon`: a sample re-run with the fast-forward forced off must
/// serialize byte for byte like the pass's report.
pub fn force_full(pop: &Population, reports: &[Option<SimReport>], f: &mut Findings) {
    if pop.workload != Workload::LongHorizon {
        return;
    }
    let mut ws = SimWorkspace::new();
    for i in sample(pop.units.len(), FORCE_FULL_SAMPLE) {
        let Some(report) = &reports[i] else { continue };
        let full = pop.units[i].cell.run_opts(1.0, &mut ws, true);
        let same = full.is_ok_and(|full| {
            let a = serde_json::to_string(report).expect("reports serialize");
            let b = serde_json::to_string(&full).expect("reports serialize");
            fnv1a(a.as_bytes()) == fnv1a(b.as_bytes()) && a == b
        });
        if !same {
            f.fail(
                i,
                "forced-full re-run differs from the fast-forwarded report",
            );
        }
    }
}

/// The fleet claims: failures fail, rta-ff fleets miss nothing, and every
/// lpfps fleet draws less power than its fps twin. Returns
/// `(Σ lpfps fleet power, Σ paired fps fleet power, refusals)`.
pub fn fleet_claims(
    pop: &Population,
    outcomes: &[FleetOutcome],
    f: &mut Findings,
) -> (f64, f64, u64) {
    let (mut lp, mut fps, mut refused) = (0.0, 0.0, 0);
    for (i, unit) in pop.fleets.iter().enumerate() {
        let report = match &outcomes[i] {
            FleetOutcome::Ok(r) => r,
            FleetOutcome::Refused(_) => {
                refused += 1;
                continue;
            }
            FleetOutcome::Failed(why) => {
                f.fail(i, format!("{}: {why}", unit.mc.label()));
                continue;
            }
        };
        if unit.mc.partitioner == PartitionerKind::RtaFf && !report.all_deadlines_met() {
            f.fail(
                i,
                format!("{}: rta-ff fleet missed deadlines", unit.mc.label()),
            );
        }
        if let Some(p) = unit.pair {
            if let FleetOutcome::Ok(base) = &outcomes[p] {
                let (a, b) = (report.fleet_average_power, base.fleet_average_power);
                if a >= b {
                    f.fail(
                        i,
                        format!("{}: power {a} is not below fps {b}", unit.mc.label()),
                    );
                    f.fail(p, "fps pair of a failed power comparison");
                }
                lp += a;
                fps += b;
            }
        }
    }
    (lp, fps, refused)
}

/// Oracle differential over every core of a sample of fleets.
pub fn fleet_oracle(
    pop: &Population,
    outcomes: &[FleetOutcome],
    tr: &mut Tracer,
    f: &mut Findings,
) -> u64 {
    let mut divergences = 0;
    for i in sample(pop.fleets.len(), ORACLE_SAMPLE) {
        let FleetOutcome::Ok(report) = &outcomes[i] else {
            continue;
        };
        let Ok((_, cells)) = pop.fleets[i].mc.derived_cells() else {
            f.fail(i, "partition differs between runs");
            continue;
        };
        for (k, cell) in cells.iter().enumerate() {
            let (Some(cell), Some(core)) = (cell, report.core_report(k)) else {
                continue;
            };
            if let Some(d) = oracle_diff(cell, core, i as u64, tr) {
                divergences += 1;
                f.fail(i, format!("oracle, core {k}: {d}"));
            }
        }
    }
    divergences
}
