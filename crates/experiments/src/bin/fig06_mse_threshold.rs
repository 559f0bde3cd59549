//! Figure 6: landscape MSE vs optimal-point drift for random graphs.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::landscapes::run_fig6;
use experiments::DEFAULT_SEED;

fn main() {
    let args = handle_default_args(
        "Figure 6: landscape MSE vs optimal-point drift for random graphs",
        &[],
    );
    let rows = run_fig6(6, 9, 12, DEFAULT_SEED).expect("figure 6 experiment failed");
    let mut table = Table::new(
        "fig06_mse_threshold",
        "Figure 6: MSE and optimum drift vs a reference landscape",
        [
            ("graph", Int),
            ("mse", Fixed(6)),
            ("optimum_distance", Fixed(6)),
        ],
    );
    for r in &rows {
        table.row((r.graph_index, r.mse, r.optimum_distance));
    }
    table.print(&args);
}
