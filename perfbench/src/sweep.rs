//! The sweep workloads (`util_sweep`, `long_horizon`, `observed`): timed
//! passes through `run_sweep`, and the traced run's direct per-cell loop.

use crate::population::{Population, Workload};
use crate::spans::Tracer;
use lpfps_bench::fingerprint::fnv1a;
use lpfps_kernel::engine::SimWorkspace;
use lpfps_kernel::report::SimReport;
use lpfps_kernel::steady::FastForwardStats;
use lpfps_obs::{export_chrome_trace, JobRecorder, LogHistogram};
use lpfps_sweep::{run_sweep, Cell, RunOptions, SweepOutcome};
use lpfps_tasks::time::Time;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Soft per-cell wall-clock budget: a cell over it is retried once, and a
/// retry still over it counts as a failed unit.
pub const CELL_TIMEOUT: Duration = Duration::from_secs(5);
/// Cells `observed` pushes through the sweep's invariant checker per pass.
pub const CHECK_SAMPLE: usize = 8;

/// The run options of a workload's sweep at `threads` workers.
pub fn run_options(workload: Workload, threads: usize) -> RunOptions {
    let opts = RunOptions::serial()
        .with_threads(threads)
        .with_cell_timeout(CELL_TIMEOUT);
    if workload == Workload::Observed {
        opts.with_histograms().with_check_sample(CHECK_SAMPLE)
    } else {
        opts
    }
}

/// The Perfetto JSON of a traced cell's report.
pub fn perfetto(cell: &Cell, report: &SimReport) -> Option<String> {
    let trace = report.trace.as_ref()?;
    let scaled = cell.ts.with_bcet_fraction(cell.bcet_fraction);
    Some(export_chrome_trace(
        trace,
        &scaled,
        Time::ZERO + cell.effective_horizon(1.0),
    ))
}

/// One timed pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host wall time of the simulations plus serialization (and, in
    /// `observed`, the Perfetto exports); hashing is excluded.
    pub wall_ns: u64,
    /// Σ `counters.events` over every completed unit.
    pub events: u64,
    /// Host time of each unit, ms.
    pub unit_ms: Vec<f64>,
    /// FNV-1a of each unit's serialized report (0 for a failed unit).
    pub hashes: Vec<u64>,
    /// Units that failed, panicked or timed out after their retry.
    pub failed: BTreeSet<usize>,
}

/// FNV-1a over the per-unit hashes, in spec order.
pub fn digest(hashes: &[u64]) -> u64 {
    let bytes: Vec<u8> = hashes.iter().flat_map(|h| h.to_le_bytes()).collect();
    fnv1a(&bytes)
}

/// Runs one pass of `pop` through `run_sweep` at `threads` workers.
/// Returns the pass and the sweep outcome (`None` if the sweep itself
/// panicked, e.g. on an invariant violation found by its checker).
pub fn run_pass(pop: &Population, threads: usize) -> (Pass, Option<SweepOutcome>) {
    let opts = run_options(pop.workload, threads);
    let n = pop.units.len();
    let started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| run_sweep(&pop.spec, &opts)));
    let Ok(outcome) = outcome else {
        return (
            Pass {
                wall_ns: started.elapsed().as_nanos() as u64,
                hashes: vec![0; n],
                failed: (0..n).collect(),
                ..Pass::default()
            },
            None,
        );
    };
    // Serialize (and, in `observed`, export) one report at a time, timing
    // only that work: the hashes and checks stay outside the timed region,
    // and only one serialized report is alive at once.
    let mut wall_ns = started.elapsed().as_nanos() as u64;
    let mut hashes = Vec::with_capacity(n);
    for (report, unit) in outcome.reports.iter().zip(&pop.units) {
        let t = Instant::now();
        let json = report
            .as_ref()
            .map(|r| serde_json::to_string(r).expect("reports serialize"));
        let export = report.as_ref().and_then(|r| perfetto(&unit.cell, r));
        wall_ns += t.elapsed().as_nanos() as u64;
        std::hint::black_box(&export);
        hashes.push(json.map_or(0, |j| fnv1a(j.as_bytes())));
    }

    let mut failed = BTreeSet::new();
    for (i, m) in outcome.metrics.per_cell.iter().enumerate() {
        let over = m.timed_out && m.wall_ns > CELL_TIMEOUT.as_nanos() as u64;
        if over || hashes[i] == 0 {
            failed.insert(i);
        }
    }
    let pass = Pass {
        wall_ns,
        events: outcome.metrics.total_events,
        unit_ms: outcome
            .metrics
            .per_cell
            .iter()
            .map(|m| m.wall_ns as f64 / 1e6)
            .collect(),
        hashes,
        failed,
    };
    (pass, Some(outcome))
}

/// What the direct per-cell loop of the traced run produced.
#[derive(Debug, Default)]
pub struct DirectRun {
    pub wall_ns: u64,
    pub hashes: Vec<u64>,
    pub reports: Vec<Option<SimReport>>,
    pub ff: Vec<FastForwardStats>,
    pub report_bytes: u64,
    /// `observed`: Perfetto bytes and trace events of the exported cells.
    pub perfetto_bytes: u64,
    pub trace_events: u64,
    pub traced_cells: u64,
    pub failed: BTreeSet<usize>,
}

/// Runs every unit directly through `Cell::run_in` (or, in `observed`,
/// `Cell::run_probed_opts` with the sweep's histogram probe) on one
/// thread and one warm workspace, serializing each report; with an
/// enabled tracer, each call sits in its own span (`unit` > `kernel.sim`,
/// `kernel.report`, `obs.hist.merge`, `obs.perfetto`).
pub fn direct_loop(pop: &Population, tr: &mut Tracer) -> DirectRun {
    let observed = pop.workload == Workload::Observed;
    let mut out = DirectRun::default();
    let mut ws = SimWorkspace::new();
    let mut merged = LogHistogram::new();
    let started = Instant::now();
    for (i, unit) in pop.units.iter().enumerate() {
        let id = i as u64;
        let cell = &unit.cell;
        tr.nest("unit", id, |tr| {
            let run = tr.time("kernel.sim", id, || {
                catch_unwind(AssertUnwindSafe(|| {
                    if observed {
                        let mut rec = JobRecorder::new();
                        let r = cell.run_probed_opts(1.0, &mut ws, true, &mut rec);
                        r.map(|r| (r, Some(rec)))
                    } else {
                        cell.run_in(1.0, &mut ws).map(|r| (r, None))
                    }
                }))
            });
            let Ok(Ok((report, rec))) = run else {
                out.failed.insert(i);
                out.hashes.push(0);
                out.reports.push(None);
                out.ff.push(FastForwardStats::default());
                return;
            };
            out.ff.push(ws.fast_forward_stats());
            let json = tr.time("kernel.report", id, || {
                serde_json::to_string(&report).expect("reports serialize")
            });
            if let Some(rec) = rec {
                let (resp, _) = rec.into_histograms();
                tr.time("obs.hist.merge", id, || merged.merge(&resp));
            }
            if let Some(export) = tr.time("obs.perfetto", id, || perfetto(cell, &report)) {
                out.perfetto_bytes += export.len() as u64;
                out.trace_events += report.trace.as_ref().map_or(0, |t| t.len() as u64);
                out.traced_cells += 1;
            }
            out.report_bytes += json.len() as u64;
            out.hashes.push(fnv1a(json.as_bytes()));
            out.reports.push(Some(report));
        });
    }
    out.wall_ns = started.elapsed().as_nanos() as u64;
    std::hint::black_box(merged.count());
    out
}
