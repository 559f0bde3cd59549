//! Greedy interaction scheduling: packing ZZ terms into rounds of disjoint
//! qubit pairs.
//!
//! Scheduling the cost layer is edge coloring of the interaction graph: two
//! terms can execute in the same two-qubit time step iff they touch disjoint
//! qubits, so the minimum number of rounds is the chromatic index — between
//! Δ and Δ+1 for a simple graph (Vizing). Two passes get close to that bound:
//!
//! 1. **Greedy round packing** — rounds are built one at a time; within a
//!    round, the eligible term (both endpoints still free this round) with
//!    the *lowest max per-qubit load* is placed first. This generalizes the
//!    pairwise `find_best_pair` balancing heuristic of the IBM
//!    QAOA-graph-decomposition scheduler from picking one pair to building
//!    whole rounds: balancing the per-qubit op counts keeps any single qubit
//!    from serializing the layer. Once the round stalls (a maximal matching),
//!    it is grown to a maximum-style matching by flipping alternating
//!    augmenting paths over the unscheduled terms — greedy alone strands
//!    qubits whose mutual edge is already scheduled, which is exactly how
//!    `K_6` degrades from 5 rounds to 6. Each round is a maximal matching,
//!    so the pass alone needs at most `2Δ - 1` rounds.
//! 2. **Kempe-chain repair** — gates in the last round are recolored into
//!    earlier rounds by swapping colors along alternating chains (the
//!    classical edge-coloring move), repeatedly deleting the last round while
//!    every one of its gates can be repaired. On the d-regular benchmark
//!    graphs this closes the gap to `d + 1` rounds or better.
//!
//! Both passes are pure functions of the term list: candidates are scanned
//! in ascending term order, ties break toward the lowest term index, colors
//! are tried in ascending order, and no RNG is consumed anywhere. This is
//! what lets depth-scheduled pipelines keep the repo's bitwise determinism
//! contract (`docs/determinism.md`).

use super::ZzTerm;
use qsim::circuit::Gate;

/// One scheduled cost layer: rounds of qubit-disjoint interaction terms.
///
/// The rounds translate directly into `qsim` gates through
/// [`ScheduledLayer::gates`]; [`super::scheduled_qaoa_circuit`] is the
/// standard consumer.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledLayer {
    qubits: usize,
    rounds: Vec<Vec<ZzTerm>>,
}

impl ScheduledLayer {
    /// The rounds, in execution order; terms within a round are sorted by
    /// `(u, v)` and touch pairwise-disjoint qubits.
    pub fn rounds(&self) -> &[Vec<ZzTerm>] {
        &self.rounds
    }

    /// Number of rounds — the two-qubit depth of one cost layer.
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    /// Total number of scheduled terms.
    pub fn term_count(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }

    /// Number of qubits in the register.
    pub fn qubits(&self) -> usize {
        self.qubits
    }

    /// The cost-layer gates for angle `gamma`, round-major: each term
    /// `w · (I - Z_u Z_v)/2` becomes `RZZ_{uv}(-γ·w)` (the same convention as
    /// [`crate::circuit::qaoa_circuit`], which this generalizes to weighted
    /// terms).
    pub fn gates(&self, gamma: f64) -> impl Iterator<Item = Gate> + '_ {
        self.rounds
            .iter()
            .flatten()
            .map(move |t| Gate::Rzz(t.u, t.v, -gamma * t.weight))
    }

    /// `true` when no qubit appears twice within any round — the invariant
    /// every schedule must satisfy (checked in tests and the smoke bench).
    pub fn is_proper(&self) -> bool {
        let mut used = vec![usize::MAX; self.qubits];
        for (r, round) in self.rounds.iter().enumerate() {
            for t in round {
                if used[t.u] == r || used[t.v] == r {
                    return false;
                }
                used[t.u] = r;
                used[t.v] = r;
            }
        }
        true
    }
}

/// Schedules `terms` over a `qubits`-qubit register: greedy lowest-max-load
/// round packing followed by Kempe-chain repair. Deterministic — ties break
/// toward the lowest term index, no RNG.
///
/// The input is typically the duplicate-merged term list of
/// [`super::compile`]; duplicate pairs are still scheduled correctly (they
/// simply land in different rounds).
pub fn schedule_terms(qubits: usize, terms: &[ZzTerm]) -> ScheduledLayer {
    let mut color_of = greedy_rounds(qubits, terms);
    kempe_repair(qubits, terms, &mut color_of);
    let round_count = color_of.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut rounds: Vec<Vec<ZzTerm>> = vec![Vec::new(); round_count];
    // Terms are visited in input (ascending-pair) order, so every round
    // comes out sorted by (u, v) without an explicit sort.
    for (i, t) in terms.iter().enumerate() {
        rounds[color_of[i]].push(*t);
    }
    ScheduledLayer { qubits, rounds }
}

/// Greedy pass: builds rounds as maximal matchings, placing within each
/// round the eligible term whose endpoints carry the lowest max load
/// (number of already-scheduled terms). Returns the round index per term.
fn greedy_rounds(qubits: usize, terms: &[ZzTerm]) -> Vec<usize> {
    let m = terms.len();
    let mut color_of = vec![usize::MAX; m];
    let mut load = vec![0usize; qubits];
    // `busy[q] == round` marks q as used in the round being built.
    let mut busy = vec![usize::MAX; qubits];
    let mut remaining = m;
    let mut round = 0usize;
    while remaining > 0 {
        loop {
            // Lowest max(load) first, ties to the lowest term index.
            let mut best: Option<(usize, usize)> = None;
            for (i, t) in terms.iter().enumerate() {
                if color_of[i] != usize::MAX || busy[t.u] == round || busy[t.v] == round {
                    continue;
                }
                let key = load[t.u].max(load[t.v]);
                if best.map_or(true, |(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
            let Some((_, i)) = best else { break };
            color_of[i] = round;
            busy[terms[i].u] = round;
            busy[terms[i].v] = round;
            load[terms[i].u] += 1;
            load[terms[i].v] += 1;
            remaining -= 1;
        }
        while augment_round(qubits, terms, &mut color_of, &mut busy, &mut load, round) {
            remaining -= 1;
        }
        round += 1;
    }
    color_of
}

/// Grows the round's matching by one along an alternating augmenting path
/// (unscheduled terms are the free edges, the round's terms the matched
/// ones) and flips it. Returns `true` when a path was found. Start vertices,
/// terms, and branches are all scanned in ascending order — deterministic.
fn augment_round(
    qubits: usize,
    terms: &[ZzTerm],
    color_of: &mut [usize],
    busy: &mut [usize],
    load: &mut [usize],
    round: usize,
) -> bool {
    let mut matched = vec![usize::MAX; qubits];
    for (i, t) in terms.iter().enumerate() {
        if color_of[i] == round {
            matched[t.u] = i;
            matched[t.v] = i;
        }
    }
    for x in 0..qubits {
        if busy[x] == round {
            continue;
        }
        let mut visited = vec![false; qubits];
        visited[x] = true;
        let mut path = Vec::new();
        if alternating_dfs(terms, color_of, &matched, &mut visited, x, &mut path) {
            // Even path positions are free edges joining the round, odd
            // positions are matched edges leaving it; the flip nets +1.
            for (k, &t) in path.iter().enumerate() {
                if k % 2 == 1 {
                    color_of[t] = usize::MAX;
                    load[terms[t].u] -= 1;
                    load[terms[t].v] -= 1;
                }
            }
            for (k, &t) in path.iter().enumerate() {
                if k % 2 == 0 {
                    color_of[t] = round;
                    busy[terms[t].u] = round;
                    busy[terms[t].v] = round;
                    load[terms[t].u] += 1;
                    load[terms[t].v] += 1;
                }
            }
            return true;
        }
    }
    false
}

/// DFS step of the augmentation: from the free-side vertex `cur`, try each
/// unscheduled term to an unvisited neighbor — an unmatched neighbor
/// completes the path, a matched one continues through its round partner.
/// (No blossom handling: odd cycles may hide a path, but the Kempe repair
/// pass covers what this heuristic misses.)
fn alternating_dfs(
    terms: &[ZzTerm],
    color_of: &[usize],
    matched: &[usize],
    visited: &mut [bool],
    cur: usize,
    path: &mut Vec<usize>,
) -> bool {
    for (i, t) in terms.iter().enumerate() {
        if color_of[i] != usize::MAX || (t.u != cur && t.v != cur) {
            continue;
        }
        let y = if t.u == cur { t.v } else { t.u };
        if visited[y] {
            continue;
        }
        visited[y] = true;
        path.push(i);
        if matched[y] == usize::MAX {
            return true;
        }
        let mt = matched[y];
        let z = if terms[mt].u == y {
            terms[mt].v
        } else {
            terms[mt].u
        };
        if !visited[z] {
            visited[z] = true;
            path.push(mt);
            if alternating_dfs(terms, color_of, matched, visited, z, path) {
                return true;
            }
            path.pop();
        }
        path.pop();
    }
    false
}

/// Repair pass: repeatedly tries to empty the last round by recoloring each
/// of its gates along Kempe (alternating-color) chains; a fully-emptied
/// round is deleted and the pass continues on the new last round.
fn kempe_repair(qubits: usize, terms: &[ZzTerm], color_of: &mut [usize]) {
    let mut colors = color_of.iter().map(|&c| c + 1).max().unwrap_or(0);
    if colors <= 1 {
        return;
    }
    // at[q][c] = index of the term holding color c at qubit q.
    let mut at: Vec<Vec<Option<usize>>> = vec![vec![None; colors]; qubits];
    for (i, t) in terms.iter().enumerate() {
        at[t.u][color_of[i]] = Some(i);
        at[t.v][color_of[i]] = Some(i);
    }
    'shrink: while colors > 1 {
        let last = colors - 1;
        let victims: Vec<usize> = (0..terms.len()).filter(|&i| color_of[i] == last).collect();
        for &i in &victims {
            if !recolor_term(terms, color_of, &mut at, i, last) {
                break 'shrink;
            }
        }
        colors -= 1;
        for row in &mut at {
            row.truncate(colors);
        }
    }
}

/// Tries to move term `i` (currently colored `last`) into a color `< last`,
/// first by direct assignment, then by swapping one Kempe chain. Colors and
/// chain endpoints are scanned in ascending order, so the outcome is a pure
/// function of the inputs.
fn recolor_term(
    terms: &[ZzTerm],
    color_of: &mut [usize],
    at: &mut [Vec<Option<usize>>],
    i: usize,
    last: usize,
) -> bool {
    let (u, v) = (terms[i].u, terms[i].v);
    // Direct: some earlier color is free at both endpoints.
    for c in 0..last {
        if at[u][c].is_none() && at[v][c].is_none() {
            move_color(color_of, at, terms, i, c);
            return true;
        }
    }
    // Kempe: pick color a free at u and color b free at v; the a/b
    // alternating chain starting at v either reaches u (skip) or can be
    // swapped, freeing a at v so the gate takes color a.
    for a in 0..last {
        if at[u][a].is_some() {
            continue;
        }
        for b in 0..last {
            if b == a || at[v][b].is_some() {
                continue;
            }
            if let Some(chain) = alternating_chain(terms, at, v, u, a, b) {
                // Two-phase swap: clear every chain entry first — adjacent
                // chain links hold each other's target color, so in-place
                // reassignment would transiently collide in the table.
                for &t in &chain {
                    let old = color_of[t];
                    at[terms[t].u][old] = None;
                    at[terms[t].v][old] = None;
                }
                for &t in &chain {
                    let to = if color_of[t] == a { b } else { a };
                    at[terms[t].u][to] = Some(t);
                    at[terms[t].v][to] = Some(t);
                    color_of[t] = to;
                }
                debug_assert!(at[u][a].is_none() && at[v][a].is_none());
                move_color(color_of, at, terms, i, a);
                return true;
            }
        }
    }
    false
}

/// Walks the alternating `a`/`b` chain starting at `start` (first edge
/// colored `a`). Returns the chain's term indices unless it touches
/// `forbidden` or closes a cycle (either would break the swap).
fn alternating_chain(
    terms: &[ZzTerm],
    at: &[Vec<Option<usize>>],
    start: usize,
    forbidden: usize,
    a: usize,
    b: usize,
) -> Option<Vec<usize>> {
    let mut chain = Vec::new();
    let mut cur = start;
    let mut want = a;
    while let Some(t) = at[cur][want] {
        chain.push(t);
        cur = if terms[t].u == cur {
            terms[t].v
        } else {
            terms[t].u
        };
        if cur == forbidden || cur == start {
            return None;
        }
        want = if want == a { b } else { a };
    }
    Some(chain)
}

/// Reassigns term `i` to `color`, keeping the qubit×color table consistent.
fn move_color(
    color_of: &mut [usize],
    at: &mut [Vec<Option<usize>>],
    terms: &[ZzTerm],
    i: usize,
    color: usize,
) {
    let (u, v) = (terms[i].u, terms[i].v);
    let old = color_of[i];
    if at[u][old] == Some(i) {
        at[u][old] = None;
    }
    if at[v][old] == Some(i) {
        at[v][old] = None;
    }
    debug_assert!(at[u][color].is_none() && at[v][color].is_none());
    at[u][color] = Some(i);
    at[v][color] = Some(i);
    color_of[i] = color;
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphlib::generators::{complete, connected_gnp, cycle, random_regular, star};
    use graphlib::Graph;
    use mathkit::rng::seeded;

    fn schedule_graph(g: &Graph) -> ScheduledLayer {
        let terms: Vec<ZzTerm> = g.edges().map(|(u, v)| ZzTerm::new(u, v, 1.0)).collect();
        schedule_terms(g.node_count(), &terms)
    }

    fn max_degree(g: &Graph) -> usize {
        g.degrees().into_iter().max().unwrap_or(0)
    }

    #[test]
    fn every_schedule_is_proper_and_complete() {
        let mut rng = seeded(3);
        for n in [6usize, 10, 15, 20] {
            let g = connected_gnp(n, 0.4, &mut rng).unwrap();
            let layer = schedule_graph(&g);
            assert!(layer.is_proper());
            assert_eq!(layer.term_count(), g.edge_count());
            assert!(layer.round_count() >= max_degree(&g));
            assert!(layer.round_count() < 2 * max_degree(&g));
        }
    }

    #[test]
    fn structured_graphs_hit_their_chromatic_index() {
        // Even cycle: class 1, Δ = 2.
        assert_eq!(schedule_graph(&cycle(8).unwrap()).round_count(), 2);
        // Odd cycle: class 2, needs 3.
        assert_eq!(schedule_graph(&cycle(7).unwrap()).round_count(), 3);
        // A star serializes completely.
        assert_eq!(schedule_graph(&star(6).unwrap()).round_count(), 5);
        // Even complete graphs are class 1 (χ' = n − 1).
        assert_eq!(schedule_graph(&complete(6)).round_count(), 5);
    }

    #[test]
    fn regular_graphs_meet_the_vizing_bound() {
        for (d, seed) in [(3usize, 1u64), (3, 2), (4, 3), (4, 4), (6, 5), (6, 6)] {
            let g = random_regular(20, d, &mut seeded(seed)).unwrap();
            let layer = schedule_graph(&g);
            assert!(layer.is_proper());
            assert!(
                layer.round_count() <= d + 1,
                "d = {d}, seed {seed}: {} rounds",
                layer.round_count()
            );
        }
    }

    #[test]
    fn gates_follow_round_order_and_weighting() {
        let terms = vec![ZzTerm::new(0, 1, 1.0), ZzTerm::new(2, 3, 0.5)];
        let layer = schedule_terms(4, &terms);
        assert_eq!(layer.round_count(), 1, "disjoint pairs share a round");
        let gates: Vec<Gate> = layer.gates(0.8).collect();
        assert_eq!(gates.len(), 2);
        match gates[1] {
            Gate::Rzz(2, 3, angle) => assert!((angle - (-0.4)).abs() < 1e-12),
            ref other => panic!("unexpected gate {other:?}"),
        }
    }

    #[test]
    fn scheduling_is_deterministic_and_rng_free() {
        let g = random_regular(26, 4, &mut seeded(17)).unwrap();
        let a = schedule_graph(&g);
        let b = schedule_graph(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_term_list_schedules_to_zero_rounds() {
        let layer = schedule_terms(4, &[]);
        assert_eq!(layer.round_count(), 0);
        assert_eq!(layer.term_count(), 0);
        assert!(layer.is_proper());
    }
}
