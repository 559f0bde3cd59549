//! Device presets: coupling maps and calibrated noise parameters.
//!
//! The paper runs on ibmq_kolkata (27 qubits), Rigetti Aspen-M-3 (79 qubits),
//! several IBM fake backends (Auckland, Cairo, Mumbai, Guadalupe, Melbourne,
//! Toronto), and models the throughput of Falcon-27 / Eagle-33 /
//! Hummingbird-65 / Eagle-127 class machines. Access to the real devices and
//! to Qiskit's calibration snapshots is not available here, so each preset
//! carries error rates in the publicly reported ballpark for that device
//! generation and a sparse coupling map with heavy-hex-like (IBM) or
//! octagonal (Rigetti) connectivity. The experiments only rely on the
//! *relative* noise levels and qubit counts, which these presets preserve.

use crate::noise::{NoiseModel, ReadoutError};
use graphlib::Graph;
use std::collections::VecDeque;

/// A physical qubit-connectivity graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CouplingMap {
    graph: Graph,
}

impl CouplingMap {
    /// Builds a coupling map from an undirected connectivity graph.
    pub fn new(graph: Graph) -> Self {
        Self { graph }
    }

    /// Fully-connected coupling (useful as an idealized baseline).
    pub fn all_to_all(qubits: usize) -> Self {
        Self::new(graphlib::generators::complete(qubits))
    }

    /// Number of physical qubits.
    pub fn qubit_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The underlying connectivity graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// `true` if the two physical qubits share a coupler.
    pub fn are_adjacent(&self, a: usize, b: usize) -> bool {
        self.graph.has_edge(a, b)
    }

    /// Hop distance between two physical qubits (`usize::MAX` if unreachable).
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn distance(&self, a: usize, b: usize) -> usize {
        graphlib::traversal::bfs_distances(&self.graph, a)[b]
    }

    /// A shortest path between two physical qubits (inclusive of endpoints).
    /// Returns `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if either qubit is out of range.
    pub fn shortest_path(&self, a: usize, b: usize) -> Option<Vec<usize>> {
        assert!(a < self.qubit_count() && b < self.qubit_count());
        if a == b {
            return Some(vec![a]);
        }
        let n = self.qubit_count();
        let mut prev = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        seen[a] = true;
        let mut queue = VecDeque::from([a]);
        while let Some(u) = queue.pop_front() {
            for v in self.graph.neighbors(u) {
                if !seen[v] {
                    seen[v] = true;
                    prev[v] = u;
                    if v == b {
                        let mut path = vec![b];
                        let mut cur = b;
                        while prev[cur] != usize::MAX {
                            cur = prev[cur];
                            path.push(cur);
                        }
                        path.reverse();
                        return Some(path);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

/// Builds an IBM-style sparse coupling map: a linear backbone of `qubits`
/// nodes with periodic "rung" shortcuts, giving the low average degree
/// (≈2.2) characteristic of heavy-hex lattices.
///
/// This is an approximation of the true heavy-hex layout — the routing and
/// throughput experiments only depend on the map being sparse and connected.
pub fn heavy_hex_like(qubits: usize) -> CouplingMap {
    let backbone = (1..qubits).map(|q| (q - 1, q));
    // Rungs: connect q to q + 5 every 8 qubits, emulating the cross-links of
    // heavy-hex cells.
    let rungs = (0..qubits.saturating_sub(5)).step_by(8).map(|q| (q, q + 5));
    let edges: Vec<(usize, usize)> = backbone.chain(rungs).collect();
    CouplingMap::new(Graph::from_edges(qubits, &edges).expect("in-range coupling edges"))
}

/// Builds a Rigetti-style octagonal coupling map: rings of eight qubits with
/// two couplers between neighbouring rings. `qubits` is rounded down to a
/// multiple of 8 (minimum one ring).
pub fn octagonal(qubits: usize) -> CouplingMap {
    let rings = (qubits / 8).max(1);
    let n = rings * 8;
    let mut edges = Vec::new();
    for r in 0..rings {
        let base = r * 8;
        for i in 0..8 {
            edges.push((base + i, base + (i + 1) % 8));
        }
        if r + 1 < rings {
            // Two inter-ring couplers.
            edges.push((base + 2, base + 8 + 6));
            edges.push((base + 3, base + 8 + 7));
        }
    }
    CouplingMap::new(Graph::from_edges(n, &edges).expect("in-range coupling edges"))
}

/// A quantum device: a name, a coupling map, and a noise model.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Human-readable device name (e.g. `"ibmq_kolkata"`).
    pub name: String,
    /// Physical connectivity.
    pub coupling: CouplingMap,
    /// Calibration-derived noise parameters.
    pub noise: NoiseModel,
}

impl Device {
    /// Number of physical qubits.
    pub fn qubit_count(&self) -> usize {
        self.coupling.qubit_count()
    }
}

fn ibm_device(name: &str, qubits: usize, e1: f64, e2: f64, ro: f64, t1: f64, t2: f64) -> Device {
    Device {
        name: name.to_string(),
        coupling: heavy_hex_like(qubits),
        noise: NoiseModel::new(e1, e2, ReadoutError::new(ro, ro * 1.2), t1, t2, 35.0, 300.0),
    }
}

/// 27-qubit ibmq_kolkata (Falcon r5.11): one of the lowest-error IBM devices
/// used in the paper's real-hardware study.
pub fn kolkata() -> Device {
    ibm_device("ibmq_kolkata", 27, 2.3e-4, 9.0e-3, 1.1e-2, 110.0, 95.0)
}

/// 27-qubit ibm_auckland preset.
pub fn auckland() -> Device {
    ibm_device("ibm_auckland", 27, 2.5e-4, 9.5e-3, 1.3e-2, 105.0, 90.0)
}

/// 27-qubit ibm_cairo preset.
pub fn cairo() -> Device {
    ibm_device("ibm_cairo", 27, 2.7e-4, 1.0e-2, 1.5e-2, 100.0, 85.0)
}

/// 27-qubit ibmq_mumbai preset.
pub fn mumbai() -> Device {
    ibm_device("ibmq_mumbai", 27, 3.0e-4, 1.1e-2, 1.8e-2, 95.0, 80.0)
}

/// 16-qubit ibmq_guadalupe preset.
pub fn guadalupe() -> Device {
    ibm_device("ibmq_guadalupe", 16, 3.5e-4, 1.2e-2, 2.0e-2, 90.0, 75.0)
}

/// 14-qubit (retired) ibmq_16_melbourne preset: the noisiest device in the
/// noise-model sweep.
pub fn melbourne() -> Device {
    ibm_device("ibmq_melbourne", 14, 1.2e-3, 3.0e-2, 6.0e-2, 50.0, 40.0)
}

/// 27-qubit ibmq_toronto preset (retired, substantially higher error than
/// Kolkata). Also serves as the `FakeToronto` noise model used for the
/// simulated noisy experiments.
pub fn toronto() -> Device {
    ibm_device("ibmq_toronto", 27, 6.0e-4, 2.2e-2, 5.0e-2, 75.0, 60.0)
}

/// Alias for the noise model of [`toronto`], named after Qiskit's
/// `FakeToronto` backend which the paper uses for noisy simulation.
pub fn fake_toronto() -> Device {
    let mut d = toronto();
    d.name = "fake_toronto".to_string();
    d
}

/// 79-qubit Rigetti Aspen-M-3 preset (octagonal topology, higher error rates
/// than the IBM Falcon generation).
pub fn aspen_m3() -> Device {
    Device {
        name: "aspen_m3".to_string(),
        coupling: octagonal(80),
        noise: NoiseModel::new(
            1.5e-3,
            2.0e-2,
            ReadoutError::new(4.5e-2, 5.0e-2),
            28.0,
            20.0,
            40.0,
            220.0,
        ),
    }
}

/// The multi-programming targets of the throughput study (Figure 25):
/// Falcon-27, Eagle-33, Hummingbird-65 and Eagle-127 class machines.
pub fn throughput_devices() -> Vec<Device> {
    vec![
        ibm_device("falcon_27", 27, 2.5e-4, 1.0e-2, 1.5e-2, 100.0, 85.0),
        ibm_device("eagle_33", 33, 2.5e-4, 1.0e-2, 1.5e-2, 100.0, 85.0),
        ibm_device("hummingbird_65", 65, 3.0e-4, 1.2e-2, 2.0e-2, 90.0, 75.0),
        ibm_device("eagle_127", 127, 2.8e-4, 1.1e-2, 1.8e-2, 95.0, 80.0),
    ]
}

/// The seven-device noise sweep of Figure 24, ordered roughly from the lowest
/// to the highest error rate.
pub fn noise_sweep_devices() -> Vec<Device> {
    vec![
        kolkata(),
        auckland(),
        cairo(),
        mumbai(),
        guadalupe(),
        melbourne(),
        toronto(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::traversal::is_connected;

    #[test]
    fn heavy_hex_like_is_sparse_and_connected() {
        for n in [16, 27, 33, 65, 127] {
            let map = heavy_hex_like(n);
            assert_eq!(map.qubit_count(), n);
            assert!(is_connected(map.graph()));
            let avg = map.graph().average_degree();
            assert!(avg > 1.5 && avg < 3.0, "average degree {avg} for n={n}");
        }
    }

    #[test]
    fn octagonal_is_connected_with_degree_near_two() {
        let map = octagonal(80);
        assert_eq!(map.qubit_count(), 80);
        assert!(is_connected(map.graph()));
        let avg = map.graph().average_degree();
        assert!((2.0..3.0).contains(&avg), "average degree {avg}");
    }

    #[test]
    fn coupling_map_distances_and_paths() {
        let map = heavy_hex_like(10);
        assert!(map.are_adjacent(0, 1));
        assert!(!map.are_adjacent(0, 9));
        assert_eq!(map.distance(3, 3), 0);
        let path = map.shortest_path(0, 7).unwrap();
        assert_eq!(*path.first().unwrap(), 0);
        assert_eq!(*path.last().unwrap(), 7);
        assert_eq!(path.len() - 1, map.distance(0, 7));
        for w in path.windows(2) {
            assert!(map.are_adjacent(w[0], w[1]));
        }
        let all = CouplingMap::all_to_all(5);
        assert_eq!(all.distance(0, 4), 1);
    }

    #[test]
    fn device_presets_have_expected_sizes() {
        assert_eq!(kolkata().qubit_count(), 27);
        assert_eq!(guadalupe().qubit_count(), 16);
        assert_eq!(melbourne().qubit_count(), 14);
        assert_eq!(aspen_m3().qubit_count(), 80);
        let tp = throughput_devices();
        assert_eq!(
            tp.iter().map(Device::qubit_count).collect::<Vec<_>>(),
            vec![27, 33, 65, 127]
        );
    }

    #[test]
    fn kolkata_is_less_noisy_than_toronto_and_melbourne() {
        let k = kolkata().noise;
        let t = toronto().noise;
        let m = melbourne().noise;
        assert!(k.error_2q < t.error_2q);
        assert!(t.error_2q < m.error_2q);
        assert!(k.readout.mean_error() < m.readout.mean_error());
    }

    #[test]
    fn noise_sweep_spans_increasing_two_qubit_error() {
        let devices = noise_sweep_devices();
        assert_eq!(devices.len(), 7);
        assert!(devices.first().unwrap().noise.error_2q < devices.last().unwrap().noise.error_2q);
    }
}
