//! Semi-symmetry factoring: merging and classifying equivalent interaction
//! terms before scheduling (after "Reducing QAOA Circuit Depth by Factoring
//! out Semi-Symmetries", arXiv 2411.08824).
//!
//! Two different merges hide under "equivalent terms", and only one of them
//! is exact at the circuit level:
//!
//! * **Duplicate pairs** — several terms on the *same* qubit pair commute
//!   trivially and their exponentials compose exactly:
//!   `RZZ_{uv}(θ₁)·RZZ_{uv}(θ₂) = RZZ_{uv}(θ₁+θ₂)`. [`merge_duplicates`]
//!   coalesces them into one weighted gate — a strict gate-count and depth
//!   win for QUBO/penalty-style Hamiltonians that emit repeated pairs.
//! * **Semi-symmetric pairs** — terms on *distinct* pairs whose endpoints
//!   have identical weighted neighborhoods outside the pair (the qubit swap
//!   is an automorphism of the interaction graph). Merging those into one
//!   gate is *not* unitary-exact, so the circuit keeps every gate; instead
//!   [`semi_symmetries`] groups the terms into equivalence classes that
//!   *observable* evaluation may exploit: the QAOA ansatz commutes with
//!   every interaction-graph automorphism, so `⟨Z_u Z_v⟩` is constant across
//!   a class and one representative evaluation per class would suffice.
//!   The class census feeds the [`super::DepthMetrics`] report.
//!
//! All passes are deterministic: classes are numbered in first-occurrence
//! order and every scan runs in ascending index order, with no RNG.

use super::ZzTerm;

/// Merges duplicate-pair terms into single weighted terms (the exact,
/// circuit-level merge). Returns the merged list — sorted by `(u, v)`, one
/// term per pair, weights summed — and the number of terms eliminated.
pub fn merge_duplicates(terms: &[ZzTerm]) -> (Vec<ZzTerm>, usize) {
    let mut sorted: Vec<ZzTerm> = terms.to_vec();
    sorted.sort_by_key(|t| (t.u, t.v));
    let mut merged: Vec<ZzTerm> = Vec::with_capacity(sorted.len());
    for t in sorted {
        match merged.last_mut() {
            Some(last) if (last.u, last.v) == (t.u, t.v) => last.weight += t.weight,
            _ => merged.push(t),
        }
    }
    let eliminated = terms.len() - merged.len();
    (merged, eliminated)
}

/// One equivalence class of interaction terms under the semi-symmetry
/// relation: every member's `⟨Z_u Z_v⟩` is identical in any
/// automorphism-symmetric QAOA state, so evaluating the representative and
/// multiplying by the multiplicity is exact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TermClass {
    /// Index (into the analyzed term list) of the class representative —
    /// the lowest-index member.
    pub representative: usize,
    /// Indices of all members, ascending (including the representative).
    pub members: Vec<usize>,
}

impl TermClass {
    /// Number of terms in the class.
    pub fn multiplicity(&self) -> usize {
        self.members.len()
    }
}

/// The semi-symmetry analysis of a term list: the qubit twin classes and the
/// induced equivalence classes of interaction terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemiSymmetry {
    /// Twin-class id per qubit, numbered in first-occurrence order. Two
    /// qubits share a class iff swapping them (fixing all others) preserves
    /// every interaction weight.
    pub qubit_class: Vec<usize>,
    /// Term classes, ordered by their representative's index.
    pub classes: Vec<TermClass>,
}

impl SemiSymmetry {
    /// Number of terms that share a class with at least one other term —
    /// the factored-term count of the metrics report.
    pub fn semi_symmetric_terms(&self) -> usize {
        self.classes
            .iter()
            .filter(|c| c.multiplicity() > 1)
            .map(TermClass::multiplicity)
            .sum()
    }
}

/// Detects the semi-symmetries of a (duplicate-free) term list over a
/// `qubits`-qubit register.
///
/// Qubits `a` and `b` are twins when the transposition `(a b)` is an
/// automorphism of the weighted interaction graph: `w(a, x) = w(b, x)` for
/// every `x ∉ {a, b}` (the edge `a–b` itself, if present, maps to itself).
/// This covers both connected twins (`N[a] = N[b]`) and independent twins
/// (`N(a) = N(b)`) of arXiv 2411.08824. Terms are then classed by the
/// unordered pair of their endpoints' twin classes plus their weight.
pub fn semi_symmetries(qubits: usize, terms: &[ZzTerm]) -> SemiSymmetry {
    // Weighted adjacency rows, sorted by neighbor (terms are pair-unique).
    let mut rows: Vec<Vec<(usize, u64)>> = vec![Vec::new(); qubits];
    for t in terms {
        rows[t.u].push((t.v, t.weight.to_bits()));
        rows[t.v].push((t.u, t.weight.to_bits()));
    }
    for row in &mut rows {
        row.sort_unstable();
    }

    // Twins-by-transposition: compare each qubit against existing class
    // representatives in ascending order (first fit), which makes class ids
    // deterministic in first-occurrence order.
    let mut qubit_class = vec![usize::MAX; qubits];
    let mut reps: Vec<usize> = Vec::new();
    for q in 0..qubits {
        for (class, &rep) in reps.iter().enumerate() {
            if swap_is_automorphism(&rows, rep, q) {
                qubit_class[q] = class;
                break;
            }
        }
        if qubit_class[q] == usize::MAX {
            qubit_class[q] = reps.len();
            reps.push(q);
        }
    }

    // Class terms by (sorted endpoint classes, weight). First-fit over the
    // existing classes keeps the ordering deterministic.
    let mut classes: Vec<TermClass> = Vec::new();
    let mut keys: Vec<(usize, usize, u64)> = Vec::new();
    for (i, t) in terms.iter().enumerate() {
        let (a, b) = (qubit_class[t.u], qubit_class[t.v]);
        let key = (a.min(b), a.max(b), t.weight.to_bits());
        match keys.iter().position(|&k| k == key) {
            Some(pos) => classes[pos].members.push(i),
            None => {
                keys.push(key);
                classes.push(TermClass {
                    representative: i,
                    members: vec![i],
                });
            }
        }
    }
    SemiSymmetry {
        qubit_class,
        classes,
    }
}

/// `true` when swapping qubits `a` and `b` (fixing all others) preserves
/// every interaction weight.
fn swap_is_automorphism(rows: &[Vec<(usize, u64)>], a: usize, b: usize) -> bool {
    if a == b {
        return true;
    }
    // Rows with the partner (and its weight entry) masked out must match
    // entry for entry.
    let strip = |row: &[(usize, u64)], partner: usize| -> Vec<(usize, u64)> {
        row.iter().copied().filter(|&(x, _)| x != partner).collect()
    };
    strip(&rows[a], b) == strip(&rows[b], a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, connected_gnp, star};
    use mathkit::rng::seeded;

    #[test]
    fn duplicate_pairs_merge_into_weighted_terms() {
        let terms = vec![
            ZzTerm::new(0, 1, 1.0),
            ZzTerm::new(2, 3, 0.5),
            ZzTerm::new(1, 0, 2.0),
        ];
        let (merged, eliminated) = merge_duplicates(&terms);
        assert_eq!(eliminated, 1);
        assert_eq!(merged.len(), 2);
        assert_eq!(
            merged[0],
            ZzTerm {
                u: 0,
                v: 1,
                weight: 3.0
            }
        );
        assert_eq!(
            merged[1],
            ZzTerm {
                u: 2,
                v: 3,
                weight: 0.5
            }
        );
        // A duplicate-free list survives untouched.
        let (same, zero) = merge_duplicates(&merged);
        assert_eq!(zero, 0);
        assert_eq!(same, merged);
    }

    #[test]
    fn star_leaves_form_one_twin_class() {
        let g = star(6).unwrap();
        let terms: Vec<ZzTerm> = g
            .edges()
            .into_iter()
            .map(|(u, v)| ZzTerm::new(u, v, 1.0))
            .collect();
        let sym = semi_symmetries(6, &terms);
        // Hub is its own class; the 5 leaves are independent twins.
        assert_eq!(sym.qubit_class.iter().max().unwrap() + 1, 2);
        assert_eq!(sym.classes.len(), 1, "all spokes are equivalent");
        assert_eq!(sym.classes[0].multiplicity(), 5);
        assert_eq!(sym.semi_symmetric_terms(), 5);
    }

    #[test]
    fn complete_graph_is_fully_symmetric() {
        let g = complete(5);
        let terms: Vec<ZzTerm> = g
            .edges()
            .into_iter()
            .map(|(u, v)| ZzTerm::new(u, v, 1.0))
            .collect();
        let sym = semi_symmetries(5, &terms);
        // All vertices are connected twins — one qubit class, one term class.
        assert!(sym.qubit_class.iter().all(|&c| c == 0));
        assert_eq!(sym.classes.len(), 1);
        assert_eq!(sym.classes[0].multiplicity(), 10);
    }

    #[test]
    fn weights_split_otherwise_symmetric_terms() {
        // Two spokes of a 3-star with different weights: leaves are no
        // longer interchangeable.
        let terms = vec![ZzTerm::new(0, 1, 1.0), ZzTerm::new(0, 2, 2.0)];
        let sym = semi_symmetries(3, &terms);
        assert_eq!(sym.classes.len(), 2);
        assert_eq!(sym.semi_symmetric_terms(), 0);
    }

    #[test]
    fn asymmetric_graphs_have_singleton_classes() {
        let mut rng = seeded(23);
        let g = connected_gnp(9, 0.4, &mut rng).unwrap();
        let terms: Vec<ZzTerm> = g
            .edges()
            .into_iter()
            .map(|(u, v)| ZzTerm::new(u, v, 1.0))
            .collect();
        let sym = semi_symmetries(9, &terms);
        // Generic random graphs carry few or no symmetries; the class count
        // must never exceed the term count and members must partition terms.
        let member_total: usize = sym.classes.iter().map(TermClass::multiplicity).sum();
        assert_eq!(member_total, terms.len());
        assert!(sym.classes.len() <= terms.len());
    }
}
