//! Figure 10: noisy MSE of baseline vs Red-QAOA for 7-14 qubit graphs.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::noisy_mse::{red_qaoa_win_rate, run_fig10, NoisyMseConfig};

fn main() {
    let args = handle_default_args(
        "Figure 10: noisy MSE of baseline vs Red-QAOA for 7-14 qubit graphs",
        &[],
    );
    let rows = run_fig10(&NoisyMseConfig::default()).expect("figure 10 experiment failed");
    let win_rate = red_qaoa_win_rate(&rows);
    let mut table = Table::new(
        "fig10_noisy_mse",
        format!(
            "Figure 10: noisy landscape MSE vs ideal reference (FakeToronto-class noise); \
             Red-QAOA win rate {:.0}%",
            win_rate * 100.0
        ),
        [
            ("qubits", Int),
            ("baseline_mse", Fixed(6)),
            ("red_qaoa_mse", Fixed(6)),
            ("reduced_nodes", Int),
            ("win_rate", Fixed(3)),
        ],
    );
    for r in &rows {
        table.row((
            r.nodes,
            r.baseline_mse,
            r.red_qaoa_mse,
            r.reduced_nodes,
            win_rate,
        ));
    }
    table.print(&args);
}
