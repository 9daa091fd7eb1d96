//! The `fleet` workload: partitioned multicore runs through
//! `MultiEngine::run`, one fleet per unit.

use crate::population::Population;
use crate::spans::Tracer;
use crate::sweep::{Pass, CELL_TIMEOUT};
use lpfps_bench::fingerprint::fnv1a;
use lpfps_kernel::error::SimError;
use lpfps_multi::{MultiEngine, MultiReport};
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// How one fleet finished.
#[derive(Debug, Clone)]
pub enum FleetOutcome {
    Ok(MultiReport),
    /// The partitioner could not place the fleet: an expected, typed
    /// refusal, not a failure.
    Refused(String),
    /// A simulation error, a panic, or a timeout after the retry.
    Failed(String),
}

fn run_once(engine: &mut MultiEngine, pop: &Population, i: usize) -> FleetOutcome {
    match catch_unwind(AssertUnwindSafe(|| engine.run(&pop.fleets[i].mc, 1.0))) {
        Ok(Ok(report)) => FleetOutcome::Ok(report),
        Ok(Err(SimError::Partition { reason })) => FleetOutcome::Refused(reason),
        Ok(Err(e)) => FleetOutcome::Failed(e.to_string()),
        Err(_) => FleetOutcome::Failed("fleet panicked".to_string()),
    }
}

/// Runs fleet `i` with the soft timeout: a completed fleet over
/// [`CELL_TIMEOUT`] is run once more, and fails if the retry is over it
/// too. Returns the outcome and the wall time of the last attempt.
pub fn run_fleet(engine: &mut MultiEngine, pop: &Population, i: usize) -> (FleetOutcome, u64) {
    let started = Instant::now();
    let mut outcome = run_once(engine, pop, i);
    let mut wall = started.elapsed();
    if matches!(outcome, FleetOutcome::Ok(_)) && wall > CELL_TIMEOUT {
        let started = Instant::now();
        outcome = run_once(engine, pop, i);
        wall = started.elapsed();
        if wall > CELL_TIMEOUT {
            outcome = FleetOutcome::Failed("timed out after its retry".into());
        }
    }
    (outcome, wall.as_nanos() as u64)
}

/// The serialized form of an outcome (refusals and failures serialize as
/// their message, so the digest covers them too).
fn serialize(outcome: &FleetOutcome) -> String {
    match outcome {
        FleetOutcome::Ok(r) => serde_json::to_string(r).expect("fleet reports serialize"),
        FleetOutcome::Refused(reason) => format!("refused: {reason}"),
        FleetOutcome::Failed(why) => format!("failed: {why}"),
    }
}

/// Σ per-core `counters.events` of a fleet.
pub fn fleet_events(report: &MultiReport) -> u64 {
    report
        .reports
        .iter()
        .flatten()
        .map(|r| r.counters.events)
        .sum()
}

/// One timed pass over every fleet, the fleets shared out among
/// `threads` workers that each own a one-worker `MultiEngine`, as
/// `run_sweep` shares out cells. (An engine at several workers would wake
/// its own pool for every fleet, and the pass would time those wake-ups
/// on a busy host; the traced run measures that pool.) Then every outcome
/// is serialized in fleet order, as the sweep workloads serialize their
/// reports. Returns the pass and every fleet's outcome.
pub fn run_pass(pop: &Population, threads: usize) -> (Pass, Vec<FleetOutcome>) {
    let n = pop.fleets.len();
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let mut done: Vec<(usize, FleetOutcome, u64)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.max(1))
            .map(|_| {
                scope.spawn(|| {
                    let mut engine = MultiEngine::new().with_threads(1);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break done;
                        }
                        let (outcome, run_ns) = run_fleet(&mut engine, pop, i);
                        done.push((i, outcome, run_ns));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("run_fleet catches every panic"))
            .collect()
    });
    let mut wall_ns = started.elapsed().as_nanos() as u64;
    done.sort_by_key(|&(i, _, _)| i);
    let mut unit_ms = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut hashes = Vec::with_capacity(n);
    for (_, outcome, run_ns) in done {
        let t = Instant::now();
        let json = serialize(&outcome);
        wall_ns += t.elapsed().as_nanos() as u64;
        unit_ms.push(run_ns as f64 / 1e6);
        hashes.push(fnv1a(json.as_bytes()));
        outcomes.push(outcome);
    }
    let mut failed = BTreeSet::new();
    let mut events = 0;
    for (i, o) in outcomes.iter().enumerate() {
        match o {
            FleetOutcome::Ok(r) => events += fleet_events(r),
            FleetOutcome::Refused(_) => {}
            FleetOutcome::Failed(_) => {
                failed.insert(i);
            }
        }
    }
    let pass = Pass {
        wall_ns,
        events,
        unit_ms,
        hashes,
        failed,
    };
    (pass, outcomes)
}

/// The traced run's fleet loop: every fleet through `MultiEngine::run` at
/// `threads` workers, serialized, with `unit` > `multi.run`,
/// `kernel.report` spans on an enabled tracer. Returns the wall time and
/// the per-fleet hashes.
pub fn direct_loop(pop: &Population, threads: usize, tr: &mut Tracer) -> (u64, Vec<u64>) {
    let mut engine = MultiEngine::new().with_threads(threads);
    let mut hashes = Vec::with_capacity(pop.fleets.len());
    let started = Instant::now();
    for i in 0..pop.fleets.len() {
        let id = i as u64;
        tr.nest("unit", id, |tr| {
            let (outcome, _) = tr.time("multi.run", id, || run_fleet(&mut engine, pop, i));
            let json = tr.time("kernel.report", id, || serialize(&outcome));
            hashes.push(fnv1a(json.as_bytes()));
        });
    }
    (started.elapsed().as_nanos() as u64, hashes)
}
