//! Figure 24: baseline vs Red-QAOA MSE across seven device noise models.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::noisy_mse::run_fig24;
use experiments::DEFAULT_SEED;

fn main() {
    let args = handle_default_args(
        "Figure 24: baseline vs Red-QAOA MSE across seven device noise models",
        &[],
    );
    let rows = run_fig24(10, 6, 16, DEFAULT_SEED).expect("figure 24 experiment failed");
    let mut table = Table::new(
        "fig24_noise_models",
        "Figure 24: noisy landscape MSE across device noise models",
        [
            ("device", Str),
            ("error_2q", Fixed(4)),
            ("baseline_mse", Fixed(6)),
            ("red_qaoa_mse", Fixed(6)),
        ],
    );
    for r in &rows {
        table.row((
            r.device.as_str(),
            r.error_2q,
            r.baseline_mse,
            r.red_qaoa_mse,
        ));
    }
    table.print(&args);
}
