//! The repository benchmark.
//!
//! One command per workload and seed:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload util_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The seed alone determines the inputs ([`population`]); the library
//! only ever sees the generated task sets, cells and fleets, through its
//! public entry points (`run_sweep`, `MultiEngine::run`, `Cell::run_in`).
//! With `--trace 0` the run times whole passes for `--seconds` seconds
//! and prints the end-to-end metrics ([`e2e`]); with `--trace 1` it
//! prints the per-layer metrics of a traced run ([`layers`]). Both check
//! their outputs, and exit non-zero on any mismatch. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`.

pub mod alloc;
pub mod checks;
pub mod e2e;
pub mod fleet;
pub mod layers;
pub mod metrics;
pub mod population;
pub mod replay;
pub mod spans;
pub mod sweep;
