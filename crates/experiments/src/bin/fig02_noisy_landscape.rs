//! Figure 2: ideal vs noisy energy landscape of a 13-node graph (Kolkata).
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::landscapes::{landscape_table, run_device_landscapes, LandscapeConfig};
use qsim::devices::kolkata;

fn main() {
    let args = handle_default_args(
        "Figure 2: ideal vs noisy energy landscape of a 13-node graph (Kolkata)",
        &[],
    );
    let config = LandscapeConfig {
        nodes: 13,
        ..Default::default()
    };
    let cmp = run_device_landscapes(&config, &kolkata()).expect("figure 2 experiment failed");
    let mut table = Table::new(
        "fig02_noisy_landscape",
        "Figure 2: noisy-vs-ideal landscape MSE (baseline graph)",
        [("nodes", Int), ("baseline_mse", Fixed(6))],
    );
    table.row((config.nodes, cmp.baseline_mse));
    table.print(&args);
    landscape_table(
        "fig02_noisy_landscape_grid",
        "Figure 2: ideal and noisy landscapes (normalized)",
        &[("ideal", &cmp.ideal), ("noisy", &cmp.noisy_baseline)],
    )
    .print(&args);
}
