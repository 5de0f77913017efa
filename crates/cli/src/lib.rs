//! # kgfd-cli — the `kgfd` command-line tool
//!
//! End-to-end fact discovery from the shell, against TSV knowledge graphs
//! in the standard `subject\trelation\tobject` benchmark format:
//!
//! ```text
//! kgfd generate --profile fb15k237 --scale mini --out data/
//! kgfd stats    --train data/train.tsv
//! kgfd train    --train data/train.tsv --model complex --out model.kgfd
//! kgfd eval     --train data/train.tsv --test data/test.tsv --model-file model.kgfd
//! kgfd discover --train data/train.tsv --model-file model.kgfd \
//!               --strategy ct --top-n 100 --max-candidates 200 --out facts.tsv
//! kgfd repro    --target fig4 --scale mini    # the paper's tables and figures
//! ```
//!
//! Command logic lives in [`commands::run`] and returns strings, so the
//! whole surface is unit-testable without process spawning.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{exit_code, run, USAGE};
