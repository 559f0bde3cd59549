//! Figure 7: MSE vs distance between optimal points.
use experiments::and_correlation::{run_fig7, Fig7Config};
use experiments::cli::{handle_default_args, Format::*, Table};

fn main() {
    let args = handle_default_args("Figure 7: MSE vs distance between optimal points", &[]);
    let (points, correlation) =
        run_fig7(&Fig7Config::default()).expect("figure 7 experiment failed");
    let mut table = Table::new(
        "fig07_optima_distance",
        format!("Figure 7: Pearson correlation (MSE vs optimum distance) = {correlation:.3}"),
        [
            ("mse", Fixed(8)),
            ("optimum_distance", Fixed(6)),
            ("correlation", Fixed(4)),
        ],
    );
    for p in &points {
        table.row((p.mse, p.optimum_distance, correlation));
    }
    table.print(&args);
}
