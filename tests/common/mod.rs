//! Fixtures shared by the integration tests.

use graphlib::generators::connected_gnp;
use graphlib::Graph;
use mathkit::rng::seeded;
use red_qaoa::engine::{Job, LandscapeJob, ReduceJob};
use red_qaoa::pipeline::CircuitReduction;

/// A batch whose landscape scans repeat: one 11-node graph scanned in every
/// circuit mode, full and `.reduced()`, at widths 3 and 5 (four distinct
/// scans among twelve jobs, since a `Depth` `.reduced()` scan is the full
/// scan), a `ReduceJob` of the same graph in between, and the same scan of
/// an edgeless graph twice, which fails both times.
pub fn repeated_scan_batch() -> Vec<Job> {
    let graph = connected_gnp(11, 0.4, &mut seeded(21)).unwrap();
    let edgeless = Job::Landscape(LandscapeJob::new(Graph::new(4), 3));
    let modes = [
        CircuitReduction::None,
        CircuitReduction::NodeAndDepth,
        CircuitReduction::Depth,
    ];
    let mut jobs = vec![edgeless.clone()];
    for width in [3, 5] {
        for mode in modes {
            let full = LandscapeJob::new(graph.clone(), width).with_circuit(mode);
            jobs.push(Job::Landscape(full.clone()));
            jobs.push(Job::Landscape(full.reduced()));
        }
        if width == 3 {
            jobs.push(Job::Reduce(ReduceJob::new(graph.clone())));
        }
    }
    jobs.push(edgeless);
    jobs
}
