//! Figure 25: relative multi-programming throughput of Red-QAOA.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::throughput_cmp::{run_fig25, Fig25Config};

fn main() {
    let args = handle_default_args(
        "Figure 25: relative multi-programming throughput of Red-QAOA",
        &[],
    );
    let rows = run_fig25(&Fig25Config::default()).expect("figure 25 experiment failed");
    let mut table = Table::new(
        "fig25_throughput",
        "Figure 25: relative throughput (Red-QAOA / baseline)",
        [
            ("dataset", Str),
            ("device", Str),
            ("device_qubits", Int),
            ("relative_throughput", Fixed(4)),
        ],
    );
    for r in &rows {
        table.row((
            r.dataset.as_str(),
            r.device.as_str(),
            r.device_qubits,
            r.relative_throughput,
        ));
    }
    table.print(&args);
}
