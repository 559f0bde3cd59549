//! Figure 15: IMDb small vs medium reduction ratios.
use experiments::cli::handle_default_args;
use experiments::dataset_eval::{reduction_table, run_imdb_scaling, DatasetEvalConfig};

fn main() {
    let args = handle_default_args("Figure 15: IMDb small vs medium reduction ratios", &[]);
    let rows =
        run_imdb_scaling(&DatasetEvalConfig::default()).expect("figure 15 experiment failed");
    reduction_table(
        "fig15_imdb_scaling",
        "Figure 15: IMDb reduction ratios by size split",
        "split",
        &rows,
    )
    .print(&args);
}
