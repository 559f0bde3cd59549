//! Figure 18: Red-QAOA preprocessing overhead and its n log n fit.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::runtime::{run_fig18, Fig18Config};

fn main() {
    let args = handle_default_args(
        "Figure 18: Red-QAOA preprocessing overhead and its n log n fit",
        &[],
    );
    let result = run_fig18(&Fig18Config::default()).expect("figure 18 experiment failed");
    let mut points = Table::new(
        "fig18_runtime",
        "Figure 18: preprocessing time vs circuit execution time",
        [
            ("nodes", Int),
            ("preprocessing_s", Fixed(6)),
            ("circuit_execution_s", Fixed(3)),
        ],
    );
    for p in &result.points {
        points.row((
            p.nodes,
            p.preprocessing_seconds,
            p.circuit_execution_seconds,
        ));
    }
    let mut fit = Table::new(
        "fig18_runtime_fit",
        "Figure 18: preprocessing_s fitted as fit_a * n ln n + fit_b",
        [
            ("fit_a", Sci(6)),
            ("fit_b", Sci(6)),
            ("r_squared", Fixed(4)),
        ],
    );
    fit.row((result.fit_a, result.fit_b, result.r_squared));
    points.print(&args);
    fit.print(&args);
}
