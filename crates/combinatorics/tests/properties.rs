//! Property-based tests for the combinatorial substrate.

use proptest::prelude::*;
use rta_combinatorics::assignment::{max_weight_assignment, max_weight_assignment_bruteforce};
use rta_combinatorics::clique::{max_weight_clique_bruteforce, max_weight_clique_of_size};
use rta_combinatorics::{partition_count, partitions, BitSet, WeightedPoset};
use std::collections::BTreeSet;

/// splitmix64: the case's structure is drawn from one `u64` seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Edges `a → b` (always `a < b`, so index order is topological) of a
/// random DAG in one of four shapes:
///
/// * 0 — dense random DAG on `n ≤ 12` nodes (brute-force sized);
/// * 1 — a pure chain;
/// * 2 — a wide fork: source → `n − 2` leaves → sink;
/// * 3 — fork-join blocks in series, each a random DAG of 1..=7 nodes,
///   joined by one node per seam — multi-word `n` with few antichains.
fn random_edges(shape: u8, n: usize, state: &mut u64) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    match shape {
        0 => {
            for a in 0..n {
                for b in a + 1..n {
                    if next(state) % 3 == 0 {
                        edges.push((a, b));
                    }
                }
            }
        }
        1 => edges.extend((1..n).map(|b| (b - 1, b))),
        2 => {
            for leaf in 1..n - 1 {
                edges.push((0, leaf));
                edges.push((leaf, n - 1));
            }
        }
        _ => {
            // `join` precedes the whole next block, which precedes the
            // next join.
            let mut join = 0;
            while join + 1 < n {
                let size = (1 + next(state) % 7) as usize;
                let block = join + 1..(join + 1 + size).min(n - 1).max(join + 2);
                let next_join = block.end.min(n - 1);
                for a in block.clone() {
                    edges.push((join, a));
                    if a != next_join {
                        edges.push((a, next_join));
                    }
                    for b in a + 1..block.end.min(next_join) {
                        if next(state) % 3 == 0 {
                            edges.push((a, b));
                        }
                    }
                }
                join = next_join;
            }
        }
    }
    edges
}

/// Descendant closure of edges that all go from lower to higher index.
fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
    let mut desc = vec![BitSet::with_capacity(n); n];
    for v in (0..n).rev() {
        for &(_, b) in edges.iter().filter(|&&(a, _)| a == v) {
            let below = desc[b].clone();
            desc[v].insert(b);
            desc[v].union_with(&below);
        }
    }
    desc
}

proptest! {
    #[test]
    fn bitset_behaves_like_btreeset(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..200)) {
        let mut bs = BitSet::new();
        let mut reference = BTreeSet::new();
        for (idx, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(idx), reference.insert(idx));
            } else {
                prop_assert_eq!(bs.remove(idx), reference.remove(&idx));
            }
        }
        prop_assert_eq!(bs.len(), reference.len());
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_algebra_matches_btreeset(
        a in proptest::collection::btree_set(0usize..150, 0..60),
        b in proptest::collection::btree_set(0usize..150, 0..60),
    ) {
        let ba: BitSet = a.iter().copied().collect();
        let bb: BitSet = b.iter().copied().collect();
        let union: Vec<usize> = a.union(&b).copied().collect();
        let inter: Vec<usize> = a.intersection(&b).copied().collect();
        let diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(ba.union(&bb).iter().collect::<Vec<_>>(), union);
        prop_assert_eq!(ba.intersection(&bb).iter().collect::<Vec<_>>(), inter);
        prop_assert_eq!(ba.difference(&bb).iter().collect::<Vec<_>>(), diff);
        prop_assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        prop_assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
    }

    #[test]
    fn partition_enumeration_is_complete_and_sound(m in 1u32..=18) {
        let all: Vec<_> = partitions(m).collect();
        // Count matches the pentagonal-number recurrence.
        prop_assert_eq!(all.len() as u64, partition_count(m));
        // Each partition sums to m with non-increasing positive parts.
        for p in &all {
            prop_assert_eq!(p.total(), m);
            prop_assert!(p.parts().windows(2).all(|w| w[0] >= w[1]));
            prop_assert!(p.parts().iter().all(|&x| x > 0));
        }
        // No duplicates.
        let set: BTreeSet<_> = all.iter().map(|p| p.parts().to_vec()).collect();
        prop_assert_eq!(set.len(), all.len());
    }

    #[test]
    fn hungarian_matches_bruteforce(
        rows in 1usize..5,
        cols in 1usize..6,
        seed in proptest::collection::vec(0u64..1000, 30),
    ) {
        prop_assume!(rows <= cols);
        let weights: Vec<Vec<u64>> = (0..rows)
            .map(|r| (0..cols).map(|c| seed[(r * cols + c) % seed.len()]).collect())
            .collect();
        let fast = max_weight_assignment(&weights).map(|a| a.total);
        let slow = max_weight_assignment_bruteforce(&weights);
        prop_assert_eq!(fast, slow);
        // The reported assignment must be consistent with the total.
        if let Some(a) = max_weight_assignment(&weights) {
            let recomputed: u64 = a.column_of.iter().enumerate().map(|(r, &c)| weights[r][c]).sum();
            prop_assert_eq!(recomputed, a.total);
            let distinct: BTreeSet<_> = a.column_of.iter().collect();
            prop_assert_eq!(distinct.len(), rows);
        }
    }

    #[test]
    fn clique_matches_bruteforce(
        n in 1usize..9,
        edge_bits in any::<u64>(),
        weight_seed in proptest::collection::vec(1u64..100, 9),
    ) {
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut bit = 0;
        for a in 0..n {
            for b in a + 1..n {
                if edge_bits >> (bit % 64) & 1 == 1 {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
                bit += 1;
            }
        }
        let weights: Vec<u64> = (0..n).map(|i| weight_seed[i]).collect();
        for size in 0..=n {
            let fast = max_weight_clique_of_size(&adj, &weights, size).map(|s| s.weight);
            let slow = max_weight_clique_bruteforce(&adj, &weights, size);
            prop_assert_eq!(fast, slow, "size {}", size);
        }
    }

    #[test]
    fn clique_members_are_actually_a_clique(
        n in 2usize..9,
        edge_bits in any::<u64>(),
        size in 1usize..5,
    ) {
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut bit = 0;
        for a in 0..n {
            for b in a + 1..n {
                if edge_bits >> (bit % 64) & 1 == 1 {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
                bit += 1;
            }
        }
        let weights: Vec<u64> = (1..=n as u64).collect();
        if let Some(sol) = max_weight_clique_of_size(&adj, &weights, size) {
            prop_assert_eq!(sol.members.len(), size);
            for (i, &a) in sol.members.iter().enumerate() {
                for &b in &sol.members[i + 1..] {
                    prop_assert!(adj[a].contains(b), "members {} and {} not adjacent", a, b);
                }
            }
            let w: u64 = sol.members.iter().map(|&v| weights[v]).sum();
            prop_assert_eq!(w, sol.weight);
        }
    }

    /// The word kernel's µ-array and width against the per-size clique
    /// search on the parallelism graph (and brute force for `n ≤ 12`).
    #[test]
    fn antichain_kernel_matches_per_size_clique_search(
        shape in 0u8..4,
        size_seed in any::<u64>(),
        seed in any::<u64>(),
        extra_cores in 0usize..4,
    ) {
        let n = match shape {
            0 => 1 + (size_seed % 12) as usize,
            1 => 1 + (size_seed % 130) as usize,
            2 => 3 + (size_seed % 78) as usize,
            _ => 65 + (size_seed % 66) as usize,
        };
        let mut state = seed;
        let edges = random_edges(shape, n, &mut state);
        let descendants = closure(n, &edges);
        // A quarter of the WCETs are zero.
        let weights: Vec<u64> = (0..n)
            .map(|_| match next(&mut state) % 8 {
                0 | 1 => 0,
                w => w * (next(&mut state) % 5 + 1),
            })
            .collect();
        let adjacency: Vec<BitSet> = (0..n)
            .map(|v| {
                (0..n)
                    .filter(|&u| u != v && !descendants[v].contains(u) && !descendants[u].contains(v))
                    .collect()
            })
            .collect();
        let clique = |size: usize| max_weight_clique_of_size(&adjacency, &weights, size).map(|s| s.weight);
        let width = (1..=n).take_while(|&c| clique(c).is_some()).count();
        let poset = WeightedPoset::new(&weights, &descendants);
        prop_assert_eq!(poset.width(), width);
        match shape {
            1 => prop_assert_eq!(width, 1),
            2 => prop_assert_eq!(width, n - 2),
            _ => {}
        }
        let cores = width + extra_cores;
        let mu = poset.max_weight_antichains(cores);
        prop_assert_eq!(mu.len(), cores);
        for c in 1..=cores {
            prop_assert_eq!(mu[c - 1], clique(c).unwrap_or(0), "µ[{}] of {} nodes", c, n);
            if n <= 12 {
                prop_assert_eq!(
                    mu[c - 1],
                    max_weight_clique_bruteforce(&adjacency, &weights, c).unwrap_or(0),
                    "µ[{}] against brute force", c
                );
            }
        }
    }
}
