//! Figure 22: 13-node landscapes on the ibmq_kolkata noise model.
use experiments::cli::handle_default_args;
use experiments::landscapes::{device_landscape_tables, run_device_landscapes, LandscapeConfig};
use qsim::devices::kolkata;

fn main() {
    let args = handle_default_args(
        "Figure 22: 13-node landscapes on the ibmq_kolkata noise model",
        &[],
    );
    let config = LandscapeConfig {
        nodes: 13,
        ..Default::default()
    };
    let cmp = run_device_landscapes(&config, &kolkata()).expect("figure 22 experiment failed");
    for table in device_landscape_tables(
        "fig22_kolkata",
        "Figure 22: 13 nodes, ibmq_kolkata model",
        config.nodes,
        &cmp,
    ) {
        table.print(&args);
    }
}
