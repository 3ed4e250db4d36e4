//! Maximum-weight clique of prescribed cardinality.
//!
//! The per-task worst-case workload `µ_i[c]` of the paper (Definition 1 and
//! Section V-A2) is the largest total WCET of `c` NPRs of one task that can
//! all run **pairwise** in parallel. Viewing "can run in parallel" (the
//! output of the paper's Algorithm 1) as an undirected graph over the task's
//! nodes, `µ_i[c]` is a **maximum-weight clique of size exactly `c`**.
//! Equivalently, it is a maximum-weight antichain of cardinality `c` of the
//! DAG's reachability partial order.
//!
//! The paper solves this with an ILP; this module provides an exact
//! branch-and-bound search over an arbitrary graph that also returns the
//! clique's members, plus an exhaustive reference solver. The analysis
//! computes µ-arrays with the word-parallel antichain kernel of
//! [`crate::antichain`], which runs the same branch order and pruning on
//! bit rows; both solvers here are its test oracles, and the ILP path in
//! the `rta-ilp` crate (the paper's formulation verbatim) is cross-checked
//! against them.

use crate::bitset::BitSet;

/// An optimal clique found by [`max_weight_clique_of_size`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliqueSolution {
    /// Sum of the weights of the clique members.
    pub weight: u64,
    /// Members, in increasing vertex order.
    pub members: Vec<usize>,
}

/// Finds a maximum-weight clique with **exactly** `size` vertices.
///
/// `adjacency[v]` is the set of neighbours of `v` (must be symmetric and
/// irreflexive); `weights[v]` the vertex weight. Returns `None` when the
/// graph has no clique of the requested size — in the paper's terms, when a
/// task cannot occupy `c` cores at once, in which case `µ_i[c] = 0`
/// (cf. `µ_2[3] = µ_2[4] = 0` in Table I).
///
/// `size = 0` trivially yields the empty clique with weight 0.
///
/// # Panics
///
/// Panics if `adjacency` and `weights` have different lengths.
///
/// # Example
///
/// ```
/// use rta_combinatorics::{max_weight_clique_of_size, BitSet};
///
/// // Path graph 0 - 1 - 2: cliques of size 2 are {0,1} and {1,2}.
/// let adjacency = vec![
///     [1].into_iter().collect::<BitSet>(),
///     [0, 2].into_iter().collect(),
///     [1].into_iter().collect(),
/// ];
/// let weights = [5, 1, 7];
/// let best = max_weight_clique_of_size(&adjacency, &weights, 2).expect("exists");
/// assert_eq!(best.weight, 8); // {1, 2}
/// assert_eq!(best.members, vec![1, 2]);
/// assert!(max_weight_clique_of_size(&adjacency, &weights, 3).is_none());
/// ```
pub fn max_weight_clique_of_size(
    adjacency: &[BitSet],
    weights: &[u64],
    size: usize,
) -> Option<CliqueSolution> {
    assert_eq!(
        adjacency.len(),
        weights.len(),
        "adjacency and weights must cover the same vertices"
    );
    let n = adjacency.len();
    if size == 0 {
        return Some(CliqueSolution {
            weight: 0,
            members: Vec::new(),
        });
    }
    if size > n {
        return None;
    }

    // Branch on vertices in descending weight order so good solutions are
    // found early and the weight bound prunes aggressively.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));

    let mut best: Option<(u64, Vec<usize>)> = None;
    let mut chosen: Vec<usize> = Vec::with_capacity(size);

    // `candidates` holds positions (into `order`) still eligible.
    let initial: Vec<usize> = (0..n).collect();
    search(
        adjacency,
        weights,
        &order,
        size,
        &mut chosen,
        0,
        &initial,
        &mut best,
    );

    best.map(|(weight, mut members)| {
        members.sort_unstable();
        CliqueSolution { weight, members }
    })
}

#[allow(clippy::too_many_arguments)]
fn search(
    adjacency: &[BitSet],
    weights: &[u64],
    order: &[usize],
    size: usize,
    chosen: &mut Vec<usize>,
    chosen_weight: u64,
    candidates: &[usize],
    best: &mut Option<(u64, Vec<usize>)>,
) {
    let need = size - chosen.len();
    if need == 0 {
        if best.as_ref().is_none_or(|(bw, _)| chosen_weight > *bw) {
            *best = Some((chosen_weight, chosen.clone()));
        }
        return;
    }
    if candidates.len() < need {
        return;
    }
    // Upper bound: current weight plus the `need` heaviest candidates
    // (candidates are kept sorted by descending weight because they are
    // positions filtered from `order`).
    let optimistic: u64 = chosen_weight
        + candidates
            .iter()
            .take(need)
            .map(|&pos| weights[order[pos]])
            .sum::<u64>();
    if let Some((bw, _)) = best {
        if optimistic <= *bw {
            return;
        }
    }

    for (idx, &pos) in candidates.iter().enumerate() {
        // Even taking this and every later candidate cannot reach `need`.
        if candidates.len() - idx < need {
            break;
        }
        let v = order[pos];
        chosen.push(v);
        let next: Vec<usize> = candidates[idx + 1..]
            .iter()
            .copied()
            .filter(|&p| adjacency[v].contains(order[p]))
            .collect();
        search(
            adjacency,
            weights,
            order,
            size,
            chosen,
            chosen_weight + weights[v],
            &next,
            best,
        );
        chosen.pop();
    }
}

/// Exhaustive reference solver (all `C(n, size)` subsets); exact and
/// exponential, used to validate the branch-and-bound in tests.
pub fn max_weight_clique_bruteforce(
    adjacency: &[BitSet],
    weights: &[u64],
    size: usize,
) -> Option<u64> {
    let n = adjacency.len();
    if size == 0 {
        return Some(0);
    }
    if size > n {
        return None;
    }
    let mut best: Option<u64> = None;
    let mut subset: Vec<usize> = Vec::new();
    fn rec(
        adjacency: &[BitSet],
        weights: &[u64],
        size: usize,
        start: usize,
        subset: &mut Vec<usize>,
        best: &mut Option<u64>,
    ) {
        if subset.len() == size {
            let w = subset.iter().map(|&v| weights[v]).sum();
            if best.is_none_or(|b| w > b) {
                *best = Some(w);
            }
            return;
        }
        for v in start..adjacency.len() {
            if subset.iter().all(|&u| adjacency[u].contains(v)) {
                subset.push(v);
                rec(adjacency, weights, size, v + 1, subset, best);
                subset.pop();
            }
        }
    }
    rec(adjacency, weights, size, 0, &mut subset, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
        let mut adj = vec![BitSet::with_capacity(n); n];
        for &(a, b) in edges {
            adj[a].insert(b);
            adj[b].insert(a);
        }
        adj
    }

    #[test]
    fn empty_size_zero() {
        let adj = graph(3, &[]);
        let sol = max_weight_clique_of_size(&adj, &[1, 2, 3], 0).expect("empty clique");
        assert_eq!(sol.weight, 0);
        assert!(sol.members.is_empty());
    }

    #[test]
    fn singleton_is_max_vertex() {
        let adj = graph(4, &[]);
        let sol = max_weight_clique_of_size(&adj, &[3, 9, 1, 4], 1).expect("singleton");
        assert_eq!(sol.weight, 9);
        assert_eq!(sol.members, vec![1]);
    }

    #[test]
    fn no_edges_no_pairs() {
        let adj = graph(4, &[]);
        assert!(max_weight_clique_of_size(&adj, &[3, 9, 1, 4], 2).is_none());
    }

    #[test]
    fn triangle_plus_pendant() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let adj = graph(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let w = [10, 1, 2, 100];
        let pair = max_weight_clique_of_size(&adj, &w, 2).expect("pair");
        assert_eq!(pair.weight, 110); // {0, 3}
        let tri = max_weight_clique_of_size(&adj, &w, 3).expect("triangle");
        assert_eq!(tri.weight, 13); // {0, 1, 2} — 3 has degree 1
        assert_eq!(tri.members, vec![0, 1, 2]);
        assert!(max_weight_clique_of_size(&adj, &w, 4).is_none());
    }

    #[test]
    fn size_larger_than_graph() {
        let adj = graph(2, &[(0, 1)]);
        assert!(max_weight_clique_of_size(&adj, &[1, 1], 3).is_none());
    }

    #[test]
    fn paper_task4_parallel_graph() {
        // τ4 of Figure 1: nodes v1..v5 (0-indexed 0..4) with weights
        // C = [5, 2, 4, 5, 3]; parallel pairs {(1,2),(2,3),(2,4),(3,4)}.
        // (v1 is the source and parallel with nothing; v2–v5 form the
        // pattern where {v3,v4,v5} is the only 3-clique.)
        let adj = graph(5, &[(1, 2), (2, 3), (2, 4), (3, 4)]);
        let w = [5u64, 2, 4, 5, 3];
        let mu1 = max_weight_clique_of_size(&adj, &w, 1).expect("µ[1]");
        assert_eq!(mu1.weight, 5);
        let mu2 = max_weight_clique_of_size(&adj, &w, 2).expect("µ[2]");
        assert_eq!(mu2.weight, 9); // C4,3 + C4,4 (nodes 2 and 3)
        let mu3 = max_weight_clique_of_size(&adj, &w, 3).expect("µ[3]");
        assert_eq!(mu3.weight, 12); // nodes {2, 3, 4}
        assert_eq!(mu3.members, vec![2, 3, 4]);
        assert!(max_weight_clique_of_size(&adj, &w, 4).is_none()); // µ4[4] = 0
    }

    #[test]
    fn matches_bruteforce_on_dense_case() {
        // Complete graph minus a perfect matching, n = 8.
        let n = 8;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if b != a + n / 2 {
                    edges.push((a, b));
                }
            }
        }
        let adj = graph(n, &edges);
        let w: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        for size in 0..=n {
            let fast = max_weight_clique_of_size(&adj, &w, size).map(|s| s.weight);
            let slow = max_weight_clique_bruteforce(&adj, &w, size);
            assert_eq!(fast, slow, "size {size}");
        }
    }

    #[test]
    #[should_panic(expected = "same vertices")]
    fn mismatched_inputs_panic() {
        let adj = graph(2, &[(0, 1)]);
        let _ = max_weight_clique_of_size(&adj, &[1], 1);
    }
}
