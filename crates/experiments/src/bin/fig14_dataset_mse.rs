//! Figure 14: ideal landscape MSE for AIDS, IMDb, LINUX at p = 1, 2, 3.
use experiments::cli::handle_default_args;
use experiments::dataset_eval::{mse_table, run_small_datasets, DatasetEvalConfig};

fn main() {
    let args = handle_default_args(
        "Figure 14: ideal landscape MSE for AIDS, IMDb, LINUX at p = 1, 2, 3",
        &[],
    );
    let config = DatasetEvalConfig::default();
    let rows = run_small_datasets(&config).expect("figure 14 experiment failed");
    mse_table(
        "fig14_dataset_mse",
        "Figure 14: mean ideal MSE by dataset and layer count",
        "dataset",
        &config,
        &rows,
    )
    .print(&args);
}
