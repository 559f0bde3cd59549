//! Figure 13: node and edge reduction ratios for AIDS, IMDb, LINUX (<=10 nodes).
use experiments::cli::handle_default_args;
use experiments::dataset_eval::{reduction_table, run_small_datasets, DatasetEvalConfig};

fn main() {
    let args = handle_default_args(
        "Figure 13: node and edge reduction ratios for AIDS, IMDb, LINUX (<=10 nodes)",
        &[],
    );
    let rows =
        run_small_datasets(&DatasetEvalConfig::default()).expect("figure 13 experiment failed");
    reduction_table(
        "fig13_dataset_reduction",
        "Figure 13: mean reduction ratios (graphs with up to 10 nodes)",
        "dataset",
        &rows,
    )
    .print(&args);
}
