//! Figure 19: relative approximation-ratio improvement over the noisy baseline.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::pooling_cmp::{run_fig19, Fig19Config};

fn main() {
    let args = handle_default_args(
        "Figure 19: relative approximation-ratio improvement over the noisy baseline",
        &[],
    );
    let rows = run_fig19(&Fig19Config::default()).expect("figure 19 experiment failed");
    let mut table = Table::new(
        "fig19_surrogate_improvement",
        "Figure 19: relative improvement over noisy baseline (box-plot summary)",
        [
            ("method", Str),
            ("min", Fixed(4)),
            ("q1", Fixed(4)),
            ("median", Fixed(4)),
            ("q3", Fixed(4)),
            ("max", Fixed(4)),
        ],
    );
    for r in &rows {
        let b = &r.box_plot;
        table.row((r.method.label(), b.min, b.q1, b.median, b.q3, b.max));
    }
    table.print(&args);
}
