//! Golden edge-set pins for every graph generator.
//!
//! Each family builds graphs from fixed seeds and pins their total node
//! count, total edge count and an FNV-1a hash of every graph's node count
//! and `Graph::edges()` list. The pins were recorded before `Graph` became a
//! frozen CSR and its generators moved to building edge lists, so a
//! generator whose RNG draws, membership tests or edge order drift fails
//! here. Families covered: `graphlib::generators`, `datasets::generators`,
//! `qsim::devices` coupling maps and `pooling::asa`'s rewired pooled graph.

use datasets::generators::{aids, imdb, linux, random_graphs_with_degree, random_suite};
use graphlib::generators::*;
use graphlib::Graph;
use mathkit::rng::seeded;
use pooling::{AsaPooling, PoolingMethod};
use qsim::devices::{aspen_m3, heavy_hex_like, noise_sweep_devices, octagonal, throughput_devices};
use rand::rngs::SmallRng;

/// `(family, total nodes, total edges, edge-set hash)`.
type Pin = (&'static str, usize, usize, u64);

const PINS: [Pin; 14] = [
    ("gnp", 126, 258, 0x137d97849edb2e4d),
    ("gnm", 165, 390, 0xba84a070b6ffb7b2),
    ("connected_gnp", 162, 203, 0x45bf9911d37ab092),
    ("random_regular", 168, 525, 0x01401c6d75441b80),
    ("rewire_fraction", 72, 144, 0xd42ebed44ef7bb0a),
    ("structured", 36, 38, 0x2b42ae766f4b5880),
    ("aids", 8443, 7480, 0x7d0666eaca50aa65),
    ("linux", 14013, 12407, 0x1e82be91e528b82c),
    ("imdb", 38601, 228282, 0xccb275efb17ac1a4),
    ("random_suite", 302, 818, 0xd75ac0e9071ffe48),
    ("random_graphs_with_degree", 300, 600, 0xdb257f7d74061973),
    ("coupling_maps", 812, 913, 0x7a0b9be66be2d82c),
    ("asa", 60, 242, 0xb0fece8b5de37be3),
    ("asa/structured", 8, 12, 0xea3f17b893b3e565),
];

fn pin(family: &'static str, graphs: &[Graph]) -> Pin {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |word: usize| {
        for byte in (word as u64).to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for graph in graphs {
        mix(graph.node_count());
        graph
            .edges()
            .for_each(|(u, v)| [u, v].into_iter().for_each(&mut mix));
    }
    let nodes = graphs.iter().map(Graph::node_count).sum();
    (
        family,
        nodes,
        graphs.iter().map(Graph::edge_count).sum(),
        hash,
    )
}

/// The graphs `build` makes from each of seeds 1..=3.
fn seeds(build: impl Fn(&mut SmallRng) -> Vec<Graph>) -> Vec<Graph> {
    (1..=3).flat_map(|seed| build(&mut seeded(seed))).collect()
}

fn asa(graph: &Graph, ratio: f64) -> Graph {
    AsaPooling::new().pool(graph, ratio).unwrap().graph
}

fn observed() -> Vec<Pin> {
    let datasets = |build: fn(u64) -> Vec<Graph>| (1..=2).flat_map(build).collect::<Vec<_>>();
    let devices: Vec<Graph> = noise_sweep_devices()
        .into_iter()
        .chain(throughput_devices())
        .chain([aspen_m3()])
        .map(|device| device.coupling.graph().clone())
        .chain([27, 65, 127].map(|q| heavy_hex_like(q).graph().clone()))
        .chain([16, 80].map(|q| octagonal(q).graph().clone()))
        .collect();
    vec![
        pin(
            "gnp",
            &seeds(|r| {
                vec![
                    erdos_renyi_gnp(12, 0.3, r).unwrap(),
                    erdos_renyi_gnp(30, 0.15, r).unwrap(),
                ]
            }),
        ),
        pin(
            "gnm",
            &seeds(|r| {
                vec![
                    erdos_renyi_gnm(15, 30, r).unwrap(),
                    erdos_renyi_gnm(40, 100, r).unwrap(),
                ]
            }),
        ),
        pin(
            "connected_gnp",
            &seeds(|r| {
                vec![
                    connected_gnp(14, 0.2, r).unwrap(),
                    connected_gnp(40, 0.05, r).unwrap(),
                ]
            }),
        ),
        pin(
            "random_regular",
            &seeds(|r| {
                [(10, 3), (16, 5), (30, 8)]
                    .map(|(n, d)| random_regular(n, d, r).unwrap())
                    .into()
            }),
        ),
        pin(
            "rewire_fraction",
            &seeds(|r| {
                let base = random_regular(12, 4, r).unwrap();
                vec![
                    rewire_fraction(&base, 0.1, r).unwrap(),
                    rewire_fraction(&base, 0.3, r).unwrap(),
                ]
            }),
        ),
        pin(
            "structured",
            &[
                cycle(7).unwrap(),
                path(5).unwrap(),
                star(6).unwrap(),
                complete(5),
                k_ary_tree(13, 4).unwrap(),
            ],
        ),
        pin("aids", &datasets(|seed| aids(seed).graphs)),
        pin("linux", &datasets(|seed| linux(seed).graphs)),
        pin("imdb", &datasets(|seed| imdb(seed).graphs)),
        pin("random_suite", &datasets(|seed| random_suite(seed).graphs)),
        pin(
            "random_graphs_with_degree",
            &datasets(|seed| random_graphs_with_degree(5, 30, 4.0, seed)),
        ),
        pin("coupling_maps", &devices),
        pin(
            "asa",
            &seeds(|r| {
                let g = connected_gnp(24, 0.08, r).unwrap();
                vec![asa(&g, 0.5), asa(&g, 0.3)]
            }),
        ),
        pin(
            "asa/structured",
            &[asa(&cycle(8).unwrap(), 0.5), asa(&star(10).unwrap(), 0.4)],
        ),
    ]
}

#[test]
fn every_generator_reproduces_its_pinned_edge_sets() {
    assert_eq!(observed(), PINS);
}
