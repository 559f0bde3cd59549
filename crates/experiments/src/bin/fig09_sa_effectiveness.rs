//! Figure 9: SA-selected subgraph vs the full subgraph MSE distribution.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::sa_effectiveness::{run_fig9, Fig9Config};

fn main() {
    let args = handle_default_args(
        "Figure 9: SA-selected subgraph vs the full subgraph MSE distribution",
        &[],
    );
    let panels = run_fig9(&Fig9Config::default()).expect("figure 9 experiment failed");
    let mut summary = Table::new(
        "fig09_sa_effectiveness",
        "Figure 9: SA subgraph MSE and its percentile among all subgraphs",
        [
            ("reduction_ratio", Fixed(3)),
            ("subgraphs", Int),
            ("sa_mse", Fixed(8)),
            ("sa_percentile", Fixed(4)),
        ],
    );
    let mut histogram = Table::new(
        "fig09_sa_effectiveness_histogram",
        "Figure 9: MSE distribution of all subgraphs",
        [
            ("reduction_ratio", Fixed(3)),
            ("bin_center", Fixed(5)),
            ("frequency", Fixed(3)),
        ],
    );
    for p in &panels {
        summary.row((
            p.reduction_ratio,
            p.all_mses.len(),
            p.sa_mse,
            p.sa_percentile,
        ));
        for (i, f) in p.histogram.frequencies().iter().enumerate() {
            histogram.row((p.reduction_ratio, p.histogram.bin_center(i), *f));
        }
    }
    summary.print(&args);
    histogram.print(&args);
}
