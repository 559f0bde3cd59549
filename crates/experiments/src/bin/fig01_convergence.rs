//! Figure 1: ideal vs noisy QAOA convergence for 6- and 10-node graphs.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::convergence::{run_fig1, Fig1Config};

fn main() {
    let args = handle_default_args(
        "Figure 1: ideal vs noisy QAOA convergence for 6- and 10-node graphs",
        &[],
    );
    let curves = run_fig1(&Fig1Config::default()).expect("figure 1 experiment failed");
    let mut table = Table::new(
        "fig01_convergence",
        "Figure 1: approximation ratio per evaluation, ideal vs noisy",
        [
            ("nodes", Int),
            ("evaluation", Int),
            ("ideal", Fixed(6)),
            ("noisy", Fixed(6)),
        ],
    );
    for c in &curves {
        for (i, (ideal, noisy)) in c.ideal.iter().zip(&c.noisy).enumerate() {
            table.row((c.nodes, i, *ideal, *noisy));
        }
    }
    table.print(&args);
}
