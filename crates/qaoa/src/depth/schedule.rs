//! Greedy interaction scheduling: packing a graph's edges into rounds of
//! disjoint qubit pairs.
//!
//! Scheduling the cost layer is edge coloring of the graph: two `RZZ` gates
//! can execute in the same two-qubit time step iff their edges touch
//! disjoint qubits, so the minimum number of rounds is the chromatic index —
//! between Δ and Δ+1 for a simple graph (Vizing). Two passes get close to
//! that bound:
//!
//! 1. **Greedy round packing** — rounds are built one at a time; within a
//!    round, the eligible edge (both endpoints still free this round) with
//!    the *lowest max per-qubit load* is placed first. This generalizes the
//!    pairwise `find_best_pair` balancing heuristic of the IBM
//!    QAOA-graph-decomposition scheduler from picking one pair to building
//!    whole rounds: balancing the per-qubit op counts keeps any single qubit
//!    from serializing the layer. Once the round stalls (a maximal matching),
//!    it is grown to a maximum-style matching by flipping alternating
//!    augmenting paths over the unscheduled edges — greedy alone strands
//!    qubits whose mutual edge is already scheduled, which is exactly how
//!    `K_6` degrades from 5 rounds to 6. Each round is a maximal matching,
//!    so the pass alone needs at most `2Δ - 1` rounds.
//! 2. **Kempe-chain repair** — gates in the last round are recolored into
//!    earlier rounds by swapping colors along alternating chains (the
//!    classical edge-coloring move), repeatedly deleting the last round while
//!    every one of its gates can be repaired. On the d-regular benchmark
//!    graphs this closes the gap to `d + 1` rounds or better.
//!
//! Both passes are pure functions of the edge list: candidates are scanned
//! in ascending edge order, ties break toward the lowest edge index, colors
//! are tried in ascending order, and no RNG is consumed anywhere. This is
//! what lets depth-scheduled pipelines keep the repo's bitwise determinism
//! contract (`docs/determinism.md`).

/// Schedules `edges` over a `qubits`-qubit register: greedy lowest-max-load
/// round packing followed by Kempe-chain repair. Deterministic — ties break
/// toward the lowest edge index, no RNG.
///
/// `edges` are a simple graph's sorted `(u, v)` pairs with `u < v`, as
/// [`graphlib::Graph::edges`] yields them. Returns the rounds in execution
/// order; each round keeps its edges in input order, so it is sorted too.
pub(crate) fn schedule_edges(qubits: usize, edges: &[(usize, usize)]) -> Vec<Vec<(usize, usize)>> {
    let mut color_of = greedy_rounds(qubits, edges);
    kempe_repair(qubits, edges, &mut color_of);
    let round_count = color_of.iter().map(|&c| c + 1).max().unwrap_or(0);
    let mut rounds = vec![Vec::new(); round_count];
    for (i, &edge) in edges.iter().enumerate() {
        rounds[color_of[i]].push(edge);
    }
    rounds
}

/// The endpoint of `edge` that is not `x`.
fn other_end((u, v): (usize, usize), x: usize) -> usize {
    if u == x {
        v
    } else {
        u
    }
}

/// Greedy pass: builds rounds as maximal matchings, placing within each
/// round the eligible edge whose endpoints carry the lowest max load
/// (number of already-scheduled edges). Returns the round index per edge.
fn greedy_rounds(qubits: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    let m = edges.len();
    let mut color_of = vec![usize::MAX; m];
    let mut load = vec![0usize; qubits];
    // `busy[q] == round` marks q as used in the round being built.
    let mut busy = vec![usize::MAX; qubits];
    let mut remaining = m;
    let mut round = 0usize;
    while remaining > 0 {
        loop {
            // Lowest max(load) first, ties to the lowest edge index.
            let mut best: Option<(usize, usize)> = None;
            for (i, &(u, v)) in edges.iter().enumerate() {
                if color_of[i] != usize::MAX || busy[u] == round || busy[v] == round {
                    continue;
                }
                let key = load[u].max(load[v]);
                if best.map_or(true, |(bk, _)| key < bk) {
                    best = Some((key, i));
                }
            }
            let Some((_, i)) = best else { break };
            let (u, v) = edges[i];
            color_of[i] = round;
            busy[u] = round;
            busy[v] = round;
            load[u] += 1;
            load[v] += 1;
            remaining -= 1;
        }
        while augment_round(qubits, edges, &mut color_of, &mut busy, &mut load, round) {
            remaining -= 1;
        }
        round += 1;
    }
    color_of
}

/// Grows the round's matching by one along an alternating augmenting path
/// (unscheduled edges are the free edges, the round's edges the matched
/// ones) and flips it. Returns `true` when a path was found. Start vertices,
/// edges, and branches are all scanned in ascending order — deterministic.
fn augment_round(
    qubits: usize,
    edges: &[(usize, usize)],
    color_of: &mut [usize],
    busy: &mut [usize],
    load: &mut [usize],
    round: usize,
) -> bool {
    let mut matched = vec![usize::MAX; qubits];
    for (i, &(u, v)) in edges.iter().enumerate() {
        if color_of[i] == round {
            matched[u] = i;
            matched[v] = i;
        }
    }
    for x in 0..qubits {
        if busy[x] == round {
            continue;
        }
        let mut visited = vec![false; qubits];
        visited[x] = true;
        let mut path = Vec::new();
        if alternating_dfs(edges, color_of, &matched, &mut visited, x, &mut path) {
            // Even path positions are free edges joining the round, odd
            // positions are matched edges leaving it; the flip nets +1.
            for (k, &t) in path.iter().enumerate() {
                if k % 2 == 1 {
                    let (u, v) = edges[t];
                    color_of[t] = usize::MAX;
                    load[u] -= 1;
                    load[v] -= 1;
                }
            }
            for (k, &t) in path.iter().enumerate() {
                if k % 2 == 0 {
                    let (u, v) = edges[t];
                    color_of[t] = round;
                    busy[u] = round;
                    busy[v] = round;
                    load[u] += 1;
                    load[v] += 1;
                }
            }
            return true;
        }
    }
    false
}

/// DFS step of the augmentation: from the free-side vertex `cur`, try each
/// unscheduled edge to an unvisited neighbor — an unmatched neighbor
/// completes the path, a matched one continues through its round partner.
/// (No blossom handling: odd cycles may hide a path, but the Kempe repair
/// pass covers what this heuristic misses.)
fn alternating_dfs(
    edges: &[(usize, usize)],
    color_of: &[usize],
    matched: &[usize],
    visited: &mut [bool],
    cur: usize,
    path: &mut Vec<usize>,
) -> bool {
    for (i, &(u, v)) in edges.iter().enumerate() {
        if color_of[i] != usize::MAX || (u != cur && v != cur) {
            continue;
        }
        let y = other_end((u, v), cur);
        if visited[y] {
            continue;
        }
        visited[y] = true;
        path.push(i);
        if matched[y] == usize::MAX {
            return true;
        }
        let mt = matched[y];
        let z = other_end(edges[mt], y);
        if !visited[z] {
            visited[z] = true;
            path.push(mt);
            if alternating_dfs(edges, color_of, matched, visited, z, path) {
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
fn kempe_repair(qubits: usize, edges: &[(usize, usize)], color_of: &mut [usize]) {
    let mut colors = color_of.iter().map(|&c| c + 1).max().unwrap_or(0);
    if colors <= 1 {
        return;
    }
    // at[q][c] = index of the edge holding color c at qubit q.
    let mut at: Vec<Vec<Option<usize>>> = vec![vec![None; colors]; qubits];
    for (i, &(u, v)) in edges.iter().enumerate() {
        at[u][color_of[i]] = Some(i);
        at[v][color_of[i]] = Some(i);
    }
    'shrink: while colors > 1 {
        let last = colors - 1;
        let victims: Vec<usize> = (0..edges.len()).filter(|&i| color_of[i] == last).collect();
        for &i in &victims {
            if !recolor_edge(edges, color_of, &mut at, i, last) {
                break 'shrink;
            }
        }
        colors -= 1;
        for row in &mut at {
            row.truncate(colors);
        }
    }
}

/// Tries to move edge `i` (currently colored `last`) into a color `< last`,
/// first by direct assignment, then by swapping one Kempe chain. Colors and
/// chain endpoints are scanned in ascending order, so the outcome is a pure
/// function of the inputs.
fn recolor_edge(
    edges: &[(usize, usize)],
    color_of: &mut [usize],
    at: &mut [Vec<Option<usize>>],
    i: usize,
    last: usize,
) -> bool {
    let (u, v) = edges[i];
    // Direct: some earlier color is free at both endpoints.
    for c in 0..last {
        if at[u][c].is_none() && at[v][c].is_none() {
            move_color(color_of, at, edges, i, c);
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
            if let Some(chain) = alternating_chain(edges, at, v, u, a, b) {
                // Two-phase swap: clear every chain entry first — adjacent
                // chain links hold each other's target color, so in-place
                // reassignment would transiently collide in the table.
                for &t in &chain {
                    let (x, y) = edges[t];
                    let old = color_of[t];
                    at[x][old] = None;
                    at[y][old] = None;
                }
                for &t in &chain {
                    let (x, y) = edges[t];
                    let to = if color_of[t] == a { b } else { a };
                    at[x][to] = Some(t);
                    at[y][to] = Some(t);
                    color_of[t] = to;
                }
                debug_assert!(at[u][a].is_none() && at[v][a].is_none());
                move_color(color_of, at, edges, i, a);
                return true;
            }
        }
    }
    false
}

/// Walks the alternating `a`/`b` chain starting at `start` (first edge
/// colored `a`). Returns the chain's edge indices unless it touches
/// `forbidden` or closes a cycle (either would break the swap).
fn alternating_chain(
    edges: &[(usize, usize)],
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
        cur = other_end(edges[t], cur);
        if cur == forbidden || cur == start {
            return None;
        }
        want = if want == a { b } else { a };
    }
    Some(chain)
}

/// Reassigns edge `i` to `color`, keeping the qubit×color table consistent.
fn move_color(
    color_of: &mut [usize],
    at: &mut [Vec<Option<usize>>],
    edges: &[(usize, usize)],
    i: usize,
    color: usize,
) {
    let (u, v) = edges[i];
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
    use crate::circuit::qaoa_circuit;
    use crate::depth::{compile_maxcut, scheduled_qaoa_circuit};
    use crate::params::QaoaParams;
    use graphlib::generators::{complete, connected_gnp, cycle, path, random_regular, star};
    use graphlib::Graph;
    use mathkit::rng::seeded;
    use qsim::circuit::{Circuit, Gate};

    fn schedule_graph(g: &Graph) -> Vec<Vec<(usize, usize)>> {
        schedule_edges(g.node_count(), &g.edges().collect::<Vec<_>>())
    }

    /// `true` when no qubit appears twice within any round — the invariant
    /// every schedule must satisfy.
    fn is_proper(qubits: usize, rounds: &[Vec<(usize, usize)>]) -> bool {
        let mut used = vec![usize::MAX; qubits];
        for (r, round) in rounds.iter().enumerate() {
            for &(u, v) in round {
                if used[u] == r || used[v] == r {
                    return false;
                }
                used[u] = r;
                used[v] = r;
            }
        }
        true
    }

    fn max_degree(g: &Graph) -> usize {
        g.degrees().into_iter().max().unwrap_or(0)
    }

    #[test]
    fn every_schedule_is_proper_and_complete() {
        let mut rng = seeded(3);
        for n in [6usize, 10, 15, 20] {
            let g = connected_gnp(n, 0.4, &mut rng).unwrap();
            let rounds = schedule_graph(&g);
            assert!(is_proper(n, &rounds));
            assert_eq!(rounds.iter().map(Vec::len).sum::<usize>(), g.edge_count());
            assert!(rounds.len() >= max_degree(&g));
            assert!(rounds.len() < 2 * max_degree(&g));
        }
    }

    #[test]
    fn structured_graphs_hit_their_chromatic_index() {
        // Even cycle: class 1, Δ = 2.
        assert_eq!(schedule_graph(&cycle(8).unwrap()).len(), 2);
        // Odd cycle: class 2, needs 3.
        assert_eq!(schedule_graph(&cycle(7).unwrap()).len(), 3);
        // A star serializes completely.
        assert_eq!(schedule_graph(&star(6).unwrap()).len(), 5);
        // Even complete graphs are class 1 (χ' = n − 1).
        assert_eq!(schedule_graph(&complete(6)).len(), 5);
    }

    #[test]
    fn regular_graphs_meet_the_vizing_bound() {
        for (d, seed) in [(3usize, 1u64), (3, 2), (4, 3), (4, 4), (6, 5), (6, 6)] {
            let g = random_regular(20, d, &mut seeded(seed)).unwrap();
            let rounds = schedule_graph(&g);
            assert!(is_proper(20, &rounds));
            assert!(
                rounds.len() <= d + 1,
                "d = {d}, seed {seed}: {} rounds",
                rounds.len()
            );
        }
    }

    #[test]
    fn gates_follow_round_order_and_weighting() {
        // On the path 0-1-2-3 the outer edges share a round, so the cost
        // layer emits (0,1), (2,3), (1,2) where the naive circuit emits the
        // sorted edge list. Every edge has unit weight, so both carry
        // RZZ(-γ), and the H and RX walls are the same.
        let g = path(4).unwrap();
        let schedule = compile_maxcut(&g).unwrap();
        assert_eq!(schedule.rounds(), [vec![(0, 1), (2, 3)], vec![(1, 2)]]);
        let params = QaoaParams::new(vec![0.8], vec![0.3]).unwrap();
        let split = |circuit: &Circuit| -> (Vec<Gate>, Vec<Gate>) {
            circuit
                .gates()
                .iter()
                .partition(|g| matches!(g, Gate::Rzz(..)))
        };
        let (scheduled_rzz, scheduled_rest) = split(&scheduled_qaoa_circuit(&schedule, &params));
        let (naive_rzz, naive_rest) = split(&qaoa_circuit(&g, &params).unwrap());
        let angle = -0.8;
        assert_eq!(
            scheduled_rzz,
            [
                Gate::Rzz(0, 1, angle),
                Gate::Rzz(2, 3, angle),
                Gate::Rzz(1, 2, angle)
            ]
        );
        assert_eq!(
            naive_rzz,
            [
                Gate::Rzz(0, 1, angle),
                Gate::Rzz(1, 2, angle),
                Gate::Rzz(2, 3, angle)
            ]
        );
        assert_eq!(scheduled_rest, naive_rest);
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
        let rounds = schedule_edges(4, &[]);
        assert!(rounds.is_empty());
        assert!(is_proper(4, &rounds));
    }
}
