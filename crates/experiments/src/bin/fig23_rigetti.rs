//! Figure 23: baseline vs Red-QAOA noisy MSE on the Rigetti Aspen-M-3 model.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::noisy_mse::{run_fig23, NoisyMseConfig};

fn main() {
    let args = handle_default_args(
        "Figure 23: baseline vs Red-QAOA noisy MSE on the Rigetti Aspen-M-3 model",
        &[],
    );
    let config = NoisyMseConfig {
        node_counts: vec![5, 6, 7, 8, 9, 10],
        ..Default::default()
    };
    let rows = run_fig23(&config).expect("figure 23 experiment failed");
    let mut table = Table::new(
        "fig23_rigetti",
        "Figure 23: noisy landscape MSE on Aspen-M-3 class noise",
        [
            ("nodes", Int),
            ("baseline_mse", Fixed(6)),
            ("red_qaoa_mse", Fixed(6)),
        ],
    );
    for r in &rows {
        table.row((r.nodes, r.baseline_mse, r.red_qaoa_mse));
    }
    table.print(&args);
}
