//! Figure 5: MSE vs Average-Node-Degree ratio with a polynomial fit.
use experiments::and_correlation::{run_fig5, Fig5Config};
use experiments::cli::{handle_default_args, Format::*, Table};

fn main() {
    let args = handle_default_args(
        "Figure 5: MSE vs Average-Node-Degree ratio with a polynomial fit",
        &[],
    );
    let result = run_fig5(&Fig5Config::default()).expect("figure 5 experiment failed");
    let mut table = Table::new(
        "fig05_and_correlation",
        format!(
            "Figure 5: {} subgraph points, Pearson corr (1-AND ratio vs MSE) = {:.3}",
            result.points.len(),
            result.correlation
        ),
        [
            ("and_ratio", Fixed(6)),
            ("mse", Fixed(8)),
            ("fit", Fixed(8)),
            ("correlation", Fixed(4)),
        ],
    );
    for p in &result.points {
        table.row((
            p.and_ratio,
            p.mse,
            result.fit.eval(p.and_ratio),
            result.correlation,
        ));
    }
    table.print(&args);
}
