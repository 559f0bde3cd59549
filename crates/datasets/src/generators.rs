//! Deterministic generators for the four benchmark corpora.

use crate::Dataset;
use graphlib::generators::{connect_components, connected_gnp, erdos_renyi_gnm};
use graphlib::Graph;
use mathkit::rng::{derive_seed, seeded};
use rand::rngs::SmallRng;
use rand::Rng;

/// The benchmark datasets of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetName {
    /// Chemical-compound graphs (sparse, 2–10 nodes).
    Aids,
    /// Linux-kernel function-call graphs (sparse, 4–10 nodes).
    Linux,
    /// IMDb actor-collaboration ego networks (dense, 7–89 nodes).
    Imdb,
    /// Erdős–Rényi random graphs (7–20 nodes).
    Random,
}

impl DatasetName {
    /// Builds the dataset with the given seed.
    pub fn build(self, seed: u64) -> Dataset {
        match self {
            DatasetName::Aids => aids(seed),
            DatasetName::Linux => linux(seed),
            DatasetName::Imdb => imdb(seed),
            DatasetName::Random => random_suite(seed),
        }
    }

    /// Display name matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            DatasetName::Aids => "AIDS",
            DatasetName::Linux => "LINUX",
            DatasetName::Imdb => "IMDb",
            DatasetName::Random => "Random",
        }
    }
}

/// The graph on `n` nodes with the given edges; every generator here only
/// lists in-range, loop-free pairs.
fn build(n: usize, edges: &[(usize, usize)]) -> Graph {
    Graph::from_edges(n, edges).expect("nodes are in range")
}

/// The edges of a random tree on `n` nodes (uniform attachment), as
/// `(parent, child)` pairs with `parent < child`.
fn random_tree(n: usize, rng: &mut SmallRng) -> Vec<(usize, usize)> {
    (1..n).map(|v| (rng.gen_range(0..v), v)).collect()
}

/// Adds one random chord to a tree's edges: up to ten draws of a pair, the
/// first one that is not already an edge is added.
fn add_chord(n: usize, edges: &mut Vec<(usize, usize)>, rng: &mut SmallRng) {
    for _ in 0..10 {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v && !edges.contains(&(u.min(v), u.max(v))) {
            edges.push((u, v));
            break;
        }
    }
}

/// Synthetic AIDS twin: 700 chemical-compound-like graphs with 2–10 nodes.
/// Molecules are mostly trees (chains and branches) with an occasional ring
/// closure, giving an average degree around 2.
pub fn aids(seed: u64) -> Dataset {
    let mut graphs = Vec::with_capacity(700);
    for i in 0..700u64 {
        let mut rng = seeded(derive_seed(seed, i));
        let n = rng.gen_range(2..=10);
        let mut edges = random_tree(n, &mut rng);
        // Ring closure with modest probability, as in small organic molecules.
        if n >= 5 && rng.gen::<f64>() < 0.45 {
            add_chord(n, &mut edges, &mut rng);
        }
        graphs.push(build(n, &edges));
    }
    Dataset {
        name: "AIDS".to_string(),
        graphs,
    }
}

/// Synthetic LINUX twin: 1000 function-call-graph-like graphs with 4–10
/// nodes. Call graphs are sparse and tree-dominated (a function calls a small
/// set of callees), with occasional cross-calls.
pub fn linux(seed: u64) -> Dataset {
    let mut graphs = Vec::with_capacity(1000);
    for i in 0..1000u64 {
        let mut rng = seeded(derive_seed(seed.wrapping_add(0x11), i));
        let n = rng.gen_range(4..=10);
        let mut edges = random_tree(n, &mut rng);
        // Occasional cross edge (shared helper function).
        if n >= 6 && rng.gen::<f64>() < 0.3 {
            add_chord(n, &mut edges, &mut rng);
        }
        graphs.push(build(n, &edges));
    }
    Dataset {
        name: "LINUX".to_string(),
        graphs,
    }
}

/// Synthetic IMDb twin: 1500 ego-network-like collaboration graphs with 7–89
/// nodes, most below ~15. Collaboration ego networks are dense: the ego is
/// connected to everyone and co-stars of a production form near-cliques.
pub fn imdb(seed: u64) -> Dataset {
    let mut graphs = Vec::with_capacity(1500);
    for i in 0..1500u64 {
        let mut rng = seeded(derive_seed(seed.wrapping_add(0x22), i));
        // Skewed size distribution: mostly small, occasionally large.
        let roll: f64 = rng.gen();
        let n = if roll < 0.62 {
            rng.gen_range(7..=10)
        } else if roll < 0.92 {
            rng.gen_range(11..=20)
        } else if roll < 0.99 {
            rng.gen_range(21..=45)
        } else {
            rng.gen_range(46..=89)
        };
        // Roughly half of the real IMDb ego networks are complete graphs
        // (a single production whose cast all collaborated), which is why the
        // paper reports ~54% of IMDb graphs being regular. Reproduce that mix.
        if rng.gen::<f64>() < 0.55 {
            graphs.push(graphlib::generators::complete(n));
            continue;
        }
        // Node 0 is the ego, connected to every other actor.
        let mut edges: Vec<(usize, usize)> = (1..n).map(|v| (0, v)).collect();
        // Co-star cliques: partition the alters into a few productions and
        // connect each production densely.
        let mut alters: Vec<usize> = (1..n).collect();
        while !alters.is_empty() {
            let size = rng.gen_range(2..=5.min(alters.len().max(2)));
            let take = size.min(alters.len());
            let production: Vec<usize> = alters.drain(..take).collect();
            for a in 0..production.len() {
                for b in (a + 1)..production.len() {
                    if rng.gen::<f64>() < 0.85 {
                        edges.push((production[a], production[b]));
                    }
                }
            }
        }
        graphs.push(connect_components(build(n, &edges), &mut rng));
    }
    Dataset {
        name: "IMDb".to_string(),
        graphs,
    }
}

/// The ten Erdős–Rényi random graphs (7–20 nodes) of the "Random" dataset.
pub fn random_suite(seed: u64) -> Dataset {
    let mut graphs = Vec::with_capacity(10);
    for i in 0..10u64 {
        let mut rng = seeded(derive_seed(seed.wrapping_add(0x33), i));
        let n = 7 + (i as usize * 13) % 14; // spread sizes over 7..=20
        let g = connected_gnp(n, 0.35, &mut rng).expect("valid parameters");
        graphs.push(g);
    }
    Dataset {
        name: "Random".to_string(),
        graphs,
    }
}

/// Generates `count` connected Erdős–Rényi graphs of exactly `nodes` nodes
/// with approximately the given average degree. Used by the scalability and
/// end-to-end experiments (e.g. "100 random 30-node graphs").
pub fn random_graphs_with_degree(
    count: usize,
    nodes: usize,
    average_degree: f64,
    seed: u64,
) -> Vec<Graph> {
    let target_edges = ((average_degree * nodes as f64) / 2.0).round() as usize;
    let max_edges = nodes * (nodes - 1) / 2;
    let edges = target_edges.clamp(nodes.saturating_sub(1), max_edges);
    (0..count as u64)
        .map(|i| {
            let mut rng = seeded(derive_seed(seed.wrapping_add(0x44), i));
            let g = erdos_renyi_gnm(nodes, edges, &mut rng).expect("valid parameters");
            connect_components(g, &mut rng)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::traversal::is_connected;

    #[test]
    fn aids_matches_table1_shape() {
        let ds = aids(1);
        assert_eq!(ds.len(), 700);
        assert!(ds.graphs.iter().all(|g| (2..=10).contains(&g.node_count())));
        let avg_degree: f64 =
            ds.graphs.iter().map(Graph::average_degree).sum::<f64>() / ds.len() as f64;
        assert!(avg_degree < 2.6, "AIDS twin too dense: {avg_degree}");
    }

    #[test]
    fn linux_matches_table1_shape() {
        let ds = linux(1);
        assert_eq!(ds.len(), 1000);
        assert!(ds.graphs.iter().all(|g| (4..=10).contains(&g.node_count())));
        assert!(ds.graphs.iter().all(is_connected));
    }

    #[test]
    fn imdb_matches_table1_shape_and_is_denser() {
        let ds = imdb(1);
        assert_eq!(ds.len(), 1500);
        assert!(ds.graphs.iter().all(|g| (7..=89).contains(&g.node_count())));
        assert!(ds.graphs.iter().all(is_connected));
        let imdb_degree: f64 =
            ds.graphs.iter().map(Graph::average_degree).sum::<f64>() / ds.len() as f64;
        let aids_degree: f64 = aids(1)
            .graphs
            .iter()
            .map(Graph::average_degree)
            .sum::<f64>()
            / 700.0;
        assert!(
            imdb_degree > aids_degree + 1.0,
            "IMDb twin should be much denser: {imdb_degree} vs {aids_degree}"
        );
        // The paper notes ~54% of IMDb graphs are regular (complete ego
        // networks); our twin should at least contain a healthy fraction.
        let regular = ds
            .graphs
            .iter()
            .filter(|g| graphlib::metrics::is_regular(g))
            .count();
        assert!(
            regular * 10 >= ds.len(),
            "too few regular graphs: {regular}"
        );
    }

    #[test]
    fn random_suite_matches_description() {
        let ds = random_suite(1);
        assert_eq!(ds.len(), 10);
        assert!(ds.graphs.iter().all(|g| (7..=20).contains(&g.node_count())));
        assert!(ds.graphs.iter().all(is_connected));
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(aids(7).graphs[..20], aids(7).graphs[..20]);
        assert_eq!(imdb(7).graphs[..20], imdb(7).graphs[..20]);
        assert_ne!(aids(7).graphs[..20], aids(8).graphs[..20]);
    }

    #[test]
    fn sized_random_graphs_have_requested_shape() {
        let graphs = random_graphs_with_degree(5, 30, 4.0, 3);
        assert_eq!(graphs.len(), 5);
        for g in &graphs {
            assert_eq!(g.node_count(), 30);
            assert!(is_connected(g));
            assert!((g.average_degree() - 4.0).abs() < 1.0);
        }
    }

    #[test]
    fn dataset_name_builders() {
        assert_eq!(DatasetName::Aids.label(), "AIDS");
        assert_eq!(DatasetName::Imdb.build(2).len(), 1500);
        assert_eq!(DatasetName::Random.build(2).len(), 10);
        assert_eq!(DatasetName::Linux.build(2).len(), 1000);
    }
}
