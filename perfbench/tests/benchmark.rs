//! The benchmark's own checks: seeded inputs, digest identity across
//! runners and tracing, and probe coverage of the replay rows.

use lpfps::driver::PolicyKind;
use lpfps_perfbench::population::{build, Population, Workload};
use lpfps_perfbench::replay::{record, replay, ProbeCounts};
use lpfps_perfbench::spans::Tracer;
use lpfps_perfbench::sweep::{digest, direct_loop, run_pass};
use lpfps_perfbench::{fleet, layers};

fn population(workload: Workload, seed: u64) -> Population {
    build(workload, seed, &mut Tracer::disabled())
}

/// A stable rendering of every input the library is handed.
fn inputs(pop: &Population) -> String {
    format!(
        "{:?}{:?}",
        pop.spec.cells,
        pop.fleets.iter().map(|f| &f.mc).collect::<Vec<_>>()
    )
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for w in Workload::ALL {
        let a = population(w, 7);
        let b = population(w, 7);
        let c = population(w, 8);
        assert!(a.len() >= 1000, "{}: {} units", w.name(), a.len());
        assert_eq!(inputs(&a), inputs(&b), "{}", w.name());
        assert_ne!(inputs(&a), inputs(&c), "{}", w.name());
    }
}

#[test]
fn same_seed_same_digest_at_every_thread_count() {
    for w in [
        Workload::UtilSweep,
        Workload::LongHorizon,
        Workload::Observed,
    ] {
        let pop = population(w, 3).head(24);
        let (one, _) = run_pass(&pop, 1);
        let (two, _) = run_pass(&pop, 2);
        let (again, _) = run_pass(&population(w, 3).head(24), 2);
        assert!(one.failed.is_empty());
        assert_eq!(digest(&one.hashes), digest(&two.hashes), "{}", w.name());
        assert_eq!(digest(&one.hashes), digest(&again.hashes), "{}", w.name());
        let (other, _) = run_pass(&population(w, 4).head(24), 2);
        assert_ne!(digest(&one.hashes), digest(&other.hashes), "{}", w.name());
    }
    let pop = population(Workload::Fleet, 3).head(16);
    let (one, _) = fleet::run_pass(&pop, 1);
    let (two, _) = fleet::run_pass(&pop, 2);
    assert_eq!(digest(&one.hashes), digest(&two.hashes));
}

#[test]
fn traced_digest_equals_untraced_digest() {
    for w in [
        Workload::UtilSweep,
        Workload::LongHorizon,
        Workload::Observed,
    ] {
        let pop = population(w, 5).head(20);
        let (pass, _) = run_pass(&pop, 2);
        let plain = direct_loop(&pop, &mut Tracer::disabled());
        let mut tr = Tracer::enabled();
        let traced = direct_loop(&pop, &mut tr);
        assert_eq!(digest(&plain.hashes), digest(&pass.hashes), "{}", w.name());
        assert_eq!(
            digest(&plain.hashes),
            digest(&traced.hashes),
            "{}",
            w.name()
        );
        assert_eq!(tr.totals("kernel.sim").count, 20);
        assert!(tr.totals("unit").self_ns <= tr.totals("unit").total_ns);
    }
    let pop = population(Workload::Fleet, 5).head(8);
    let (_, plain) = fleet::direct_loop(&pop, 2, &mut Tracer::disabled());
    let (_, traced) = fleet::direct_loop(&pop, 2, &mut Tracer::enabled());
    assert_eq!(plain, traced);
}

#[test]
fn probe_counts_equal_report_counters() {
    for w in [Workload::UtilSweep, Workload::LongHorizon] {
        let pop = population(w, 9);
        let lpfps = pop.units.iter().filter(|u| {
            u.cell.policy == PolicyKind::Lpfps.into()
                || u.cell.policy == PolicyKind::LpfpsWatchdog.into()
        });
        for unit in lpfps.take(4) {
            let rec = record(&unit.cell).expect("lpfps cells record");
            let plain = unit.cell.run(1.0).expect("cell runs");
            assert_eq!(rec.report.counters, plain.counters);
            let counts = ProbeCounts::of(&rec.events);
            assert_eq!(
                counts.mismatch(&plain.counters),
                None,
                "{}",
                unit.cell.label()
            );
            assert_eq!(counts.instants, plain.counters.events);
            assert_eq!(counts.releases, plain.counters.releases);
            assert_eq!(counts.dispatches, plain.counters.dispatches);
            assert_eq!(counts.ramps, plain.counters.ramps);
            assert_eq!(counts.power_downs, plain.counters.power_downs);
            let row = replay(&unit.cell, &rec).expect("replay reproduces the energy");
            assert_eq!(row.counts, counts);
            assert!(row.queue_ops >= counts.releases);
        }
    }
}

#[test]
fn every_per_layer_metric_is_reported_once() {
    let names: Vec<&str> = layers::PER_LAYER.iter().map(|(n, _)| *n).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len());
    let manifest =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json sits beside the benchmark directory");
    for name in names
        .iter()
        .chain(lpfps_perfbench::e2e::END_TO_END.iter().map(|(n, _)| n))
    {
        assert!(
            manifest.contains(&format!("\"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
}
