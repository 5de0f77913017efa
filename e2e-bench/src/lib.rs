//! # kgfd-e2e-bench — the repository's end-to-end benchmark
//!
//! Times whole `kgfd` processes (and a `kgfd serve` process under load) on
//! inputs generated at the paper's scale, checks their outputs, and — in a
//! separate traced run — replays the same library calls in-process to split
//! the time into layers. `src/bin/e2e.rs` runs it; see README.md.

pub mod inputs;
pub mod ledger;
pub mod process;
pub mod replay;
pub mod report;
pub mod run;
pub mod stats;
pub mod traffic;
pub mod workload;

pub type BenchResult<T> = Result<T, Box<dyn std::error::Error>>;
