//! The untraced run: set-up, timed passes for `--seconds`, then the
//! output checks, and the end-to-end metrics.

use crate::checks::{self, Findings};
use crate::fleet::{self, FleetOutcome};
use crate::metrics::{median, peak_rss_mib, percentile, tail_percentile, Metrics};
use crate::population::{build, Population, Workload};
use crate::spans::Tracer;
use crate::sweep::{self, digest, Pass};
use lpfps_sweep::SweepOutcome;
use std::time::{Duration, Instant};

/// Every end-to-end metric with its unit, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "events/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "ratio"),
    ("lpfps_power_ratio", "ratio"),
];

/// Set-ups timed before the passes; one more is timed after each pass,
/// and `setup_s` is the median of them all.
pub const SETUP_REPS: usize = 15;
/// Timed passes per run at least, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// One set-up and its host time in seconds.
pub fn timed_setup(workload: Workload, seed: u64) -> (Population, f64) {
    let started = Instant::now();
    let pop = build(workload, seed, &mut Tracer::disabled());
    (pop, started.elapsed().as_secs_f64())
}

/// The last timed pass's outputs, kept for the checks.
enum Outputs {
    Sweep(Option<Box<SweepOutcome>>),
    Fleet(Vec<FleetOutcome>),
}

fn one_pass(pop: &Population, threads: usize) -> (Pass, Outputs) {
    if pop.workload == Workload::Fleet {
        let (pass, out) = fleet::run_pass(pop, threads);
        (pass, Outputs::Fleet(out))
    } else {
        let (pass, out) = sweep::run_pass(pop, threads);
        (pass, Outputs::Sweep(out.map(Box::new)))
    }
}

/// What an untraced run reports.
pub struct Run {
    pub metrics: Metrics,
    pub attempted: u64,
    pub findings: Findings,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

/// Runs `workload` from `seed` for `seconds` at `threads` workers.
pub fn run(workload: Workload, seed: u64, seconds: u64, threads: usize) -> Run {
    let mut setups = Vec::new();
    let mut pop = None;
    for _ in 0..SETUP_REPS {
        let (p, s) = timed_setup(workload, seed);
        setups.push(s);
        pop = Some(p);
    }
    let pop = pop.expect("at least one set-up");
    let budget = Duration::from_secs(seconds);
    let mut passes = Vec::new();
    let mut last = None;
    let started = Instant::now();
    while passes.len() < MIN_PASSES || started.elapsed() < budget {
        // Drop the previous pass's outputs first, so that only one
        // pass's reports are ever alive.
        drop(last.take());
        let (pass, out) = one_pass(&pop, threads);
        passes.push(pass);
        last = Some(out);
        // Set-ups spread over the whole run sample the host as the
        // passes do, not just its first moments.
        setups.push(timed_setup(workload, seed).1);
    }
    let setup_s = median(&setups);

    // Peak memory of the workload itself, before the checks allocate.
    let peak_rss = peak_rss_mib();

    // Checks, outside the timed region.
    let mut f = Findings::default();
    let reference = passes[0].hashes.clone();
    for p in &passes {
        f.merge(&p.failed, "failed in a timed pass");
        f.compare_hashes(&reference, &p.hashes, "pass to pass");
    }
    let (single, _) = one_pass(&pop, 1);
    f.compare_hashes(&reference, &single.hashes, "1 thread vs all threads");
    let mut untimed = Tracer::disabled();
    let mut wd_misses = 0;
    let (mut eligible, mut detected) = (0usize, 0usize);
    let (lp, fps) = match last.as_ref().expect("at least one pass") {
        Outputs::Sweep(Some(out)) => {
            let claims = checks::sweep_claims(&pop, &out.reports, &mut f);
            checks::sweep_oracle(&pop, &out.reports, &mut untimed, &mut f);
            checks::force_full(&pop, &out.reports, &mut f);
            checks::margin_claim(&pop, &mut f);
            wd_misses = checks::wd_miss_units(&pop, &out.reports);
            for (unit, m) in pop.units.iter().zip(&out.metrics.per_cell) {
                if crate::layers::ff_eligible(&unit.cell) {
                    eligible += 1;
                    detected += usize::from(m.cycles_detected > 0);
                }
            }
            claims
        }
        Outputs::Sweep(None) => (0.0, 0.0),
        Outputs::Fleet(out) => {
            let (lp, fps, _) = checks::fleet_claims(&pop, out, &mut f);
            checks::fleet_oracle(&pop, out, &mut untimed, &mut f);
            (lp, fps)
        }
    };

    let n = pop.len();
    let pct = tail_percentile(n);
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.events as f64 / (p.wall_ns as f64 / 1e9))
        .collect();
    // Each unit's median time over the passes: a host hiccup during one
    // pass then moves no percentile.
    let unit_ms: Vec<f64> = (0..n)
        .map(|i| median(&passes.iter().map(|p| p.unit_ms[i]).collect::<Vec<_>>()))
        .collect();
    let mut metrics = Metrics::default();
    for &(name, unit) in END_TO_END {
        let value = match name {
            "events_per_s" => median(&rates),
            "cell_ms_p50" => percentile(&unit_ms, 50.0),
            "cell_ms_p99" => percentile(&unit_ms, pct),
            "setup_s" => setup_s,
            "peak_rss_mb" => peak_rss,
            "ok_frac" => 1.0 - f.failed.len() as f64 / n as f64,
            "lpfps_power_ratio" => lp / fps,
            _ => unreachable!("every end-to-end metric has a value"),
        };
        metrics.push(name, value, unit);
    }
    let lines = vec![
        format!(
            "per-pass events/s: min {:.4e}, median {:.4e}, max {:.4e}",
            percentile(&rates, 0.0),
            median(&rates),
            percentile(&rates, 100.0)
        ),
        format!(
            "workload {} seed {seed}: {n} units, {} timed passes at {threads} threads, digest {:016x}",
            workload.name(),
            passes.len(),
            digest(&reference)
        ),
        format!(
            "cell_ms_p99 is p{pct} over {n} units of each unit's median time over the passes; \
             inputs: {} tasks, U {:.3}-{:.3}, BCET fraction {:.2}-{:.2}; \
             faulted lpfps-wd units with a miss: {wd_misses}",
            format_args!("{}-{}", pop.props.tasks.0, pop.props.tasks.1),
            pop.props.utilization.0,
            pop.props.utilization.1,
            pop.props.bcet.0,
            pop.props.bcet.1
        ),
        format!(
            "fast-forward eligible: {eligible} of {n} units; cycle detected on {detected}; \
             fleet tasks per core {:.1}-{:.1}",
            pop.props.tasks_per_core.0, pop.props.tasks_per_core.1
        ),
    ];
    Run {
        metrics,
        attempted: n as u64,
        findings: f,
        lines,
    }
}
