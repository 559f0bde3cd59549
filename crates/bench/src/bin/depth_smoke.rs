//! CI perf smoke: depth-reduction subsystem headline numbers.
//!
//! Two sections, both gated:
//!
//! * **Scheduling** — for random `d`-regular graphs with `d ∈ {3, 4, 6}`
//!   the greedy interaction scheduler must pack the cost layer's `RZZ`
//!   terms into at most `d + 1` rounds (the Vizing edge-coloring bound),
//!   and the two-qubit depth reduction versus the naive sequential
//!   emission (one round per gate, `|E|` rounds) must be **≥ 2×** — the
//!   headline acceptance number of the depth subsystem.
//! * **Compound MSE** — the four circuit-reduction arms (baseline /
//!   node-only / depth-only / node+depth) run on one random graph at equal
//!   trajectory counts with common random numbers
//!   ([`red_qaoa::mse::compound_grid_comparison`]); the compound arm's
//!   noisy-landscape MSE must be **no worse than the node-only arm's**,
//!   i.e. composing depth scheduling on top of node reduction never costs
//!   noisy fidelity at matched sampling budgets.
//!
//! The record, with each gate's outcome under `gates`, is written before a
//! failed gate fails the run.
//!
//! Usage: `depth_smoke [output.json]` (default `BENCH_depth.json`).

use bench::{bench_graph, BENCH_SEED};
use experiments::cli::{write_smoke_record, Gates, Record};
use graphlib::generators::random_regular;
use mathkit::rng::{derive_seed, seeded};
use qaoa::depth::compile_maxcut;
use qsim::devices::fake_toronto;
use red_qaoa::mse::compound_grid_comparison;
use red_qaoa::reduction::{reduce, ReductionOptions};

/// Degrees of the regular-graph scheduling rows.
const DEGREES: [usize; 3] = [3, 4, 6];
/// Node count of the regular test graphs (even, so every degree is valid).
const REGULAR_NODES: usize = 24;

fn main() {
    let mut gates = Gates::default();

    // --- scheduling rows --------------------------------------------------
    let mut rows = Vec::new();
    let mut over_bound = Vec::new();
    let mut min_reduction = f64::INFINITY;
    for (i, &d) in DEGREES.iter().enumerate() {
        let mut rng = seeded(derive_seed(BENCH_SEED, 9_000 + i as u64));
        let graph = random_regular(REGULAR_NODES, d, &mut rng).expect("valid regular graph");
        let schedule = compile_maxcut(&graph).expect("non-degenerate graph compiles");
        let m = schedule.metrics();
        if m.rounds > d + 1 || !m.meets_vizing_bound() {
            over_bound.push(format!("{d}-regular: {} rounds", m.rounds));
        }
        let reduction = m.depth_reduction();
        min_reduction = min_reduction.min(reduction);
        rows.push(
            Record::new()
                .int("degree", d)
                .int("nodes", REGULAR_NODES)
                .int("terms", m.scheduled_terms)
                .int("rounds", m.rounds)
                .int("naive_depth", m.naive_depth)
                .fixed("depth_reduction", reduction, 3)
                .int("vizing_bound", d + 1),
        );
    }
    gates.check(
        "rounds_le_d_plus_1",
        over_bound.is_empty(),
        format!(
            "regular graphs scheduled over the Vizing bound of d + 1 rounds: {}",
            over_bound.join(", ")
        ),
    );
    gates.check(
        "depth_reduction_ge_2x",
        min_reduction >= 2.0,
        format!(
            "two-qubit depth reduction vs naive sequential emission must be >= 2x, \
             got {min_reduction:.3}x"
        ),
    );

    // --- compound-MSE section ---------------------------------------------
    let graph = bench_graph(11, 8_100);
    let mut rng = seeded(derive_seed(BENCH_SEED, 8_200));
    let reduced = reduce(&graph, &ReductionOptions::default(), &mut rng).expect("graph reduces");
    let noise = fake_toronto().noise;
    let trajectories = 16usize;
    let cmp = compound_grid_comparison(&graph, reduced.graph(), 6, &noise, trajectories, &mut rng)
        .expect("compound comparison runs");
    gates.check(
        "compound_mse_le_node_mse",
        cmp.compound_mse <= cmp.node_mse,
        format!(
            "node+depth noisy MSE ({:.6}) must not exceed node-only noisy MSE ({:.6}) \
             at {trajectories} trajectories",
            cmp.compound_mse, cmp.node_mse
        ),
    );

    let record = Record::new()
        .rows("rows", rows)
        .fixed("min_depth_reduction", min_reduction, 3)
        .object(
            "compound",
            Record::new()
                .int("nodes", graph.node_count())
                .int("reduced_nodes", reduced.graph().node_count())
                .int("width", 6usize)
                .int("trajectories", trajectories)
                .fixed("baseline_mse", cmp.baseline_mse, 6)
                .fixed("node_mse", cmp.node_mse, 6)
                .fixed("depth_mse", cmp.depth_mse, 6)
                .fixed("compound_mse", cmp.compound_mse, 6)
                .int("full_rounds", cmp.full_depth.rounds)
                .int("full_naive_depth", cmp.full_depth.naive_depth)
                .int("reduced_rounds", cmp.reduced_depth.rounds),
        );
    write_smoke_record("BENCH_depth.json", "depth_smoke", record, gates);
}
