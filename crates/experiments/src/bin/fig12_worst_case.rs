//! Figure 12: worst-case (11-node) landscapes: ideal / Red-QAOA / baseline.
use experiments::cli::handle_default_args;
use experiments::landscapes::{device_landscape_tables, run_device_landscapes, LandscapeConfig};
use qsim::devices::fake_toronto;

fn main() {
    let args = handle_default_args(
        "Figure 12: worst-case (11-node) landscapes: ideal / Red-QAOA / baseline",
        &[],
    );
    let config = LandscapeConfig {
        nodes: 11,
        ..Default::default()
    };
    let cmp = run_device_landscapes(&config, &fake_toronto()).expect("figure 12 experiment failed");
    for table in device_landscape_tables(
        "fig12_worst_case",
        "Figure 12: worst case, 11 nodes",
        config.nodes,
        &cmp,
    ) {
        table.print(&args);
    }
}
