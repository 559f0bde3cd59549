//! Figure 26: compound effect of node reduction × depth scheduling on
//! noisy-landscape MSE.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::depth_compound::{compound_win_rate, run_fig26, DepthCompoundConfig};

fn main() {
    let args = handle_default_args(
        "Figure 26: noisy MSE of baseline vs node-only vs depth-only vs compound reduction",
        &[],
    );
    let rows = run_fig26(&DepthCompoundConfig::default()).expect("figure 26 experiment failed");
    let mut table = Table::new(
        "fig26_depth_compound",
        format!(
            "Figure 26: compound circuit reduction, noisy landscape MSE; \
             compound <= node-only in {:.0}% of rows",
            compound_win_rate(&rows) * 100.0
        ),
        [
            ("nodes", Int),
            ("reduced_nodes", Int),
            ("baseline_mse", Fixed(6)),
            ("node_mse", Fixed(6)),
            ("depth_mse", Fixed(6)),
            ("compound_mse", Fixed(6)),
            ("full_rounds", Int),
            ("full_naive_depth", Int),
            ("reduced_rounds", Int),
            ("depth_reduction", Fixed(3)),
        ],
    );
    for r in &rows {
        table.row((
            r.nodes,
            r.reduced_nodes,
            r.baseline_mse,
            r.node_mse,
            r.depth_mse,
            r.compound_mse,
            r.full_rounds,
            r.full_naive_depth,
            r.reduced_rounds,
            r.depth_reduction,
        ));
    }
    table.print(&args);
}
