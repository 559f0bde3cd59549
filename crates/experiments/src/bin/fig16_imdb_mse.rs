//! Figure 16: IMDb small vs medium ideal MSE at p = 1, 2, 3.
use experiments::cli::handle_default_args;
use experiments::dataset_eval::{mse_table, run_imdb_scaling, DatasetEvalConfig};

fn main() {
    let args = handle_default_args(
        "Figure 16: IMDb small vs medium ideal MSE at p = 1, 2, 3",
        &[],
    );
    let config = DatasetEvalConfig::default();
    let rows = run_imdb_scaling(&config).expect("figure 16 experiment failed");
    mse_table(
        "fig16_imdb_mse",
        "Figure 16: IMDb ideal MSE by size split and layer count",
        "split",
        &config,
        &rows,
    )
    .print(&args);
}
