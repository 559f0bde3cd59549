//! Figure 20: convergence of noisy QAOA, baseline vs Red-QAOA.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::convergence::{run_fig20, Fig20Config};

fn main() {
    let args = handle_default_args(
        "Figure 20: convergence of noisy QAOA, baseline vs Red-QAOA",
        &[],
    );
    let curves = run_fig20(&Fig20Config::default()).expect("figure 20 experiment failed");
    let mut table = Table::new(
        "fig20_convergence",
        "Figure 20: running-best ideal expectation per optimizer evaluation",
        [
            ("evaluation", Int),
            ("baseline", Fixed(6)),
            ("red_qaoa", Fixed(6)),
            ("reduced_nodes", Int),
        ],
    );
    for (i, (b, r)) in curves.baseline.iter().zip(&curves.red_qaoa).enumerate() {
        table.row((i, *b, *r, curves.reduced_nodes));
    }
    table.print(&args);
}
