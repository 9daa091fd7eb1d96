//! Command-line entry point of the repository benchmark; see the crate
//! docs of `lpfps_perfbench`.

use lpfps_perfbench::alloc::CountingAlloc;
use lpfps_perfbench::metrics::result_line;
use lpfps_perfbench::population::{build, Workload};
use lpfps_perfbench::spans::Tracer;
use lpfps_perfbench::{e2e, layers};
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

const USAGE: &str = "usage: lpfps-perfbench --workload <util_sweep|long_horizon|fleet|observed> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10;
    let mut trace = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes the traced run's spans as JSON lines under `perfbench/out/`.
fn write_spans(args: &Args, setup: &Tracer, run: &Tracer) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let body = setup.to_json_lines() + &run.to_json_lines();
    if let Err(e) = std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, body)) {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (metrics, attempted, findings) = if args.trace {
        let mut setup = Tracer::enabled();
        let pop = build(args.workload, args.seed, &mut setup);
        let (metrics, findings, run) = layers::run(&pop, &setup, threads);
        write_spans(&args, &setup, &run);
        (metrics, pop.len() as u64, findings)
    } else {
        let run = e2e::run(args.workload, args.seed, args.seconds, threads);
        for line in &run.lines {
            println!("{line}");
        }
        (run.metrics, run.attempted, run.findings)
    };
    for m in &metrics.0 {
        println!("{:<40} {:>20.6} {}", m.name, m.value, m.unit);
    }
    for note in &findings.notes {
        eprintln!("check failed: {note}");
    }
    let failed = findings.failed.len() as u64;
    println!("{}", result_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
