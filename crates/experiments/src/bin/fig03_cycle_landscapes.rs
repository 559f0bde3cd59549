//! Figure 3: energy landscapes of 7- and 10-node cycle graphs coincide.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::landscapes::{landscape_table, run_fig3};

fn main() {
    let args = handle_default_args(
        "Figure 3: energy landscapes of 7- and 10-node cycle graphs coincide",
        &[],
    );
    let result = run_fig3(16).expect("figure 3 experiment failed");
    let mut table = Table::new(
        "fig03_cycle_landscapes",
        "Figure 3: MSE between 7-node and 10-node cycle landscapes",
        [("mse", Fixed(8))],
    );
    table.row((result.mse,));
    table.print(&args);
    landscape_table(
        "fig03_cycle_landscapes_grid",
        "Figure 3: 7- and 10-node cycle landscapes (normalized)",
        &[
            ("7-node cycle", &result.small),
            ("10-node cycle", &result.large),
        ],
    )
    .print(&args);
}
