//! Figure 21: Red-QAOA vs parameter transfer across graph families.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::transfer_cmp::{run_fig21, Fig21Config};

fn main() {
    let args = handle_default_args(
        "Figure 21: Red-QAOA vs parameter transfer across graph families",
        &[],
    );
    let rows = run_fig21(&Fig21Config::default()).expect("figure 21 experiment failed");
    let mut table = Table::new(
        "fig21_parameter_transfer",
        "Figure 21: ideal landscape MSE, parameter transfer vs Red-QAOA",
        [
            ("family", Str),
            ("transfer_mse", Fixed(6)),
            ("red_qaoa_mse", Fixed(6)),
        ],
    );
    for r in &rows {
        table.row((r.family.as_str(), r.transfer_mse, r.red_qaoa_mse));
    }
    table.print(&args);
}
