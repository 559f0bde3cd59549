//! Reproduction harness for the Red-QAOA evaluation.
//!
//! Every figure and table of the paper's evaluation section maps to a module
//! here and to a binary (`cargo run --release -p experiments --bin figXX`).
//! Each module exposes a `Config` with scaled-down-but-faithful defaults and
//! a `run` function returning structured data; each binary declares the
//! rows/series the paper plots as [`cli::Table`]s, printed as TSV or, with
//! `--json`, as JSON lines. Absolute values depend on the
//! simulated substrate; the *shape* of each result (who wins, by roughly what
//! factor, where crossovers fall) is what the defaults are tuned to
//! reproduce. EXPERIMENTS.md records paper-vs-measured numbers.
//!
//! Module ↔ figure map:
//!
//! | Module | Figures |
//! |--------|---------|
//! | [`convergence`] | 1, 20 |
//! | [`landscapes`] | 2, 3, 6, 11, 12, 22 |
//! | [`and_correlation`] | 5, 7 |
//! | [`pooling_cmp`] | 8, 19 |
//! | [`sa_effectiveness`] | 9 |
//! | [`noisy_mse`] | 10, 23, 24 |
//! | [`depth_compound`] | 26 |
//! | [`dataset_eval`] | 13, 14, 15, 16, Table 1 |
//! | [`end_to_end`] | 17 |
//! | [`runtime`] | 18 |
//! | [`transfer_cmp`] | 21 |
//! | [`throughput_cmp`] | 25 |

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod and_correlation;
pub mod cli;
pub mod convergence;
pub mod dataset_eval;
pub mod depth_compound;
pub mod end_to_end;
pub mod landscapes;
pub mod noisy_mse;
pub mod pooling_cmp;
pub mod runtime;
pub mod sa_effectiveness;
pub mod throughput_cmp;
pub mod transfer_cmp;

/// Default seed shared by all experiment binaries, so a full run of the
/// harness is reproducible end to end.
pub const DEFAULT_SEED: u64 = 0xA5F0_2024;

/// The process-wide [`red_qaoa::engine::Engine`] the job-based experiments
/// (`end_to_end`, `throughput_cmp`) submit their jobs to.
///
/// One long-lived engine per process is the session-oriented usage the
/// engine is designed for: those experiments share its reduction cache.
/// Experiments pinned to per-index reduction substreams call
/// [`red_qaoa::reduction::reduce_pool`] directly instead. The engine is
/// built with default options and no pinned thread count, so the ambient
/// thread policy (`RED_QAOA_THREADS` / `with_threads`) stays in charge —
/// which is what the thread-count-invariance tests rely on.
pub fn shared_engine() -> &'static red_qaoa::engine::Engine {
    static ENGINE: std::sync::OnceLock<red_qaoa::engine::Engine> = std::sync::OnceLock::new();
    ENGINE.get_or_init(|| {
        red_qaoa::engine::Engine::builder()
            .build()
            .expect("default engine configuration is valid")
    })
}

#[cfg(test)]
mod tests {
    use crate::cli::{CliArgs, Format, Table};

    #[test]
    fn print_table_does_not_panic() {
        let mut table = Table::new("demo", "demo", [("a", Format::Int), ("b", Format::Int)]);
        table.row((1usize, 2usize));
        table.row((3usize, 4usize));
        table.print(&CliArgs::default());
        table.print(&CliArgs {
            json: true,
            ..CliArgs::default()
        });
    }
}
