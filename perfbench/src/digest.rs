//! A bitwise digest of job outputs (FNV-1a over 64-bit words).
//!
//! Floats enter as their IEEE-754 bit patterns, so two digests agree only
//! when every hashed output is bitwise-identical — the proof that quality
//! metrics repeat exactly for a fixed seed.

use graphlib::Graph;
use qaoa::depth::DepthMetrics;
use qaoa::landscape::Landscape;
use red_qaoa::reduction::{ReducedGraph, WarmDecision};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Running FNV-1a digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(FNV_OFFSET)
    }
}

impl Digest {
    /// The digest value so far.
    pub fn value(self) -> u64 {
        self.0
    }

    /// Mixes one 64-bit word, byte by byte.
    pub fn word(&mut self, word: u64) -> &mut Self {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Mixes a float's bit pattern.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// Mixes a count.
    pub fn count(&mut self, value: usize) -> &mut Self {
        self.word(value as u64)
    }

    /// Mixes a graph's node count and sorted edge list.
    pub fn graph(&mut self, graph: &Graph) -> &mut Self {
        self.count(graph.node_count());
        for (u, v) in graph.edges() {
            self.count(u).count(v);
        }
        self
    }

    /// Mixes every field of a reduction.
    pub fn reduction(&mut self, reduced: &ReducedGraph) -> &mut Self {
        self.graph(reduced.graph());
        for &node in &reduced.subgraph.nodes {
            self.count(node);
        }
        let warm = match reduced.warm_decision {
            WarmDecision::Cold => 0,
            WarmDecision::Warm => 1,
            WarmDecision::MeasuredKept => 2,
            WarmDecision::MeasuredReverted => 3,
        };
        self.float(reduced.and_ratio)
            .float(reduced.node_reduction)
            .float(reduced.edge_reduction)
            .word(warm)
    }

    /// Mixes a landscape's grid and values.
    pub fn landscape(&mut self, landscape: &Landscape) -> &mut Self {
        for &x in landscape
            .gammas
            .iter()
            .chain(&landscape.betas)
            .chain(&landscape.values)
        {
            self.float(x);
        }
        self
    }

    /// Mixes a depth-compilation report.
    pub fn depth(&mut self, metrics: &DepthMetrics) -> &mut Self {
        self.count(metrics.qubits)
            .count(metrics.input_terms)
            .count(metrics.scheduled_terms)
            .count(metrics.merged_duplicates)
            .count(metrics.rounds)
            .count(metrics.naive_depth)
            .count(metrics.max_degree)
    }

    /// Mixes an optional count (`None` and `Some` never collide).
    pub fn optional(&mut self, value: Option<usize>) -> &mut Self {
        match value {
            Some(v) => self.word(1).count(v),
            None => self.word(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.float(0.1 + 0.2);
        b.float(0.3);
        assert_ne!(a, b, "0.1 + 0.2 and 0.3 differ in the last bit");
        let mut c = Digest::default();
        c.float(0.1 + 0.2);
        assert_eq!(a, c);
        assert_ne!(
            Digest::default().optional(None).value(),
            Digest::default().optional(Some(0)).value()
        );
    }
}
