//! Figure 8: MSE vs reduction ratio for SA and GNN-pooling baselines.
//!
//! With `--sweep-sa-knobs`, runs the `SaOptions::{stagnation_patience,
//! boost_divisor}` ablation on the same protocol instead (the sweep that
//! chose the defaults recorded on `SaOptions::default`).
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::pooling_cmp::{run_fig8, run_sa_knob_sweep, Fig8Config};

fn main() {
    let args = handle_default_args(
        "Figure 8: MSE vs reduction ratio for SA and GNN-pooling baselines \
         (--sweep-sa-knobs runs the stagnation-patience/boost-divisor ablation)",
        &["--sweep-sa-knobs"],
    );
    if args.has("--sweep-sa-knobs") {
        let rows = run_sa_knob_sweep(
            &Fig8Config::default(),
            0.3,
            &[5, 15, 30, 60],
            &[2.0, 5.0, 10.0],
        )
        .expect("SA knob sweep failed");
        let mut table = Table::new(
            "fig08_sa_knob_sweep",
            "SA knob ablation (Figure 8 protocol, reduction ratio 0.30)",
            [
                ("stagnation_patience", Int),
                ("boost_divisor", Fixed(0)),
                ("mean_mse", Fixed(5)),
                ("mean_iterations", Fixed(1)),
            ],
        );
        for r in &rows {
            table.row((
                r.stagnation_patience,
                r.boost_divisor,
                r.mean_mse,
                r.mean_iterations,
            ));
        }
        table.print(&args);
        return;
    }
    let cells = run_fig8(&Fig8Config::default()).expect("figure 8 experiment failed");
    let mut table = Table::new(
        "fig08_pooling_comparison",
        "Figure 8: mean landscape MSE by method and node-reduction ratio",
        [
            ("method", Str),
            ("reduction_ratio", Fixed(2)),
            ("mean_mse", Fixed(5)),
        ],
    );
    for c in &cells {
        table.row((c.method.label(), c.reduction_ratio, c.mean_mse));
    }
    table.print(&args);
}
