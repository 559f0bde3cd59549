//! Table 1: benchmark dataset characteristics.
use experiments::cli::{handle_default_args, Format::*, Table};
use experiments::dataset_eval::run_table1_summaries;
use experiments::DEFAULT_SEED;

fn main() {
    let args = handle_default_args("Table 1: benchmark dataset characteristics", &[]);
    let mut table = Table::new(
        "table1_datasets",
        "Table 1: benchmark graph datasets (synthetic statistical twins)",
        [
            ("dataset", Str),
            ("graphs", Int),
            ("min_nodes", Int),
            ("max_nodes", Int),
            ("mean_nodes", Fixed(2)),
            ("mean_edges", Fixed(2)),
            ("mean_degree", Fixed(3)),
            ("mean_density", Fixed(3)),
        ],
    );
    for s in run_table1_summaries(DEFAULT_SEED) {
        table.row((
            s.name.as_str(),
            s.graph_count,
            s.min_nodes,
            s.max_nodes,
            s.mean_nodes,
            s.mean_edges,
            s.mean_average_degree,
            s.mean_density,
        ));
    }
    table.print(&args);
}
