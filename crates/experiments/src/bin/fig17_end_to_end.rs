//! Figure 17: end-to-end Red-QAOA vs baseline on larger random graphs.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::end_to_end::{run_fig17, Fig17Config};

fn main() {
    let args = handle_default_args(
        "Figure 17: end-to-end Red-QAOA vs baseline on larger random graphs",
        &[],
    );
    let rows = run_fig17(&Fig17Config::default()).expect("figure 17 experiment failed");
    let mut table = Table::new(
        "fig17_end_to_end",
        "Figure 17: Red-QAOA / baseline ratios (best and average across restarts)",
        [
            ("layers", Int),
            ("restarts", Int),
            ("best_ratio", Fixed(4)),
            ("average_ratio", Fixed(4)),
            ("node_reduction", Fixed(4)),
            ("edge_reduction", Fixed(4)),
            ("transfer_error", Fixed(4)),
            ("cost_ratio", Fixed(4)),
        ],
    );
    for r in &rows {
        table.row((
            r.layers,
            r.restarts,
            r.best_ratio,
            r.average_ratio,
            r.node_reduction,
            r.edge_reduction,
            r.transfer_error,
            r.cost_ratio,
        ));
    }
    table.print(&args);
}
