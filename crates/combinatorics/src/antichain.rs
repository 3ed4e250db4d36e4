//! Maximum-weight antichains of every cardinality: the µ-array kernel.
//!
//! `µ_i[c]` (paper Definition 1, Section V-A) is the largest total WCET of
//! `c` pairwise-parallel NPRs of a task: a maximum-weight antichain of size
//! `c` of its DAG's precedence order. [`WeightedPoset`] relabels the nodes
//! by descending weight, so a candidate set is a row of `u64` words whose
//! lowest set bit is its heaviest node; each cardinality then runs the
//! branch order and pruning of [`crate::clique::max_weight_clique_of_size`]
//! (its test oracle) on rows: branch by `trailing_zeros`, narrow by
//! `rest & par[v]`, bound by the first `need` set bits. One code path
//! serves every node count (`⌈n / 64⌉` words a row). The width (largest
//! antichain) is `n` minus a maximum bipartite matching on the strict order
//! (Dilworth's theorem, by Fulkerson's reduction); cardinalities above it
//! weigh 0 and are never searched.
//!
//! # Example
//!
//! τ4 of the paper's Figure 1 (µ₄ of Table I):
//!
//! ```
//! use rta_combinatorics::{BitSet, WeightedPoset};
//!
//! // v0 → {v1, v2}, v1 → {v3, v4}, as descendant closures.
//! let descendants: Vec<BitSet> = vec![
//!     [1, 2, 3, 4].into_iter().collect(),
//!     [3, 4].into_iter().collect(),
//!     BitSet::new(),
//!     BitSet::new(),
//!     BitSet::new(),
//! ];
//! let poset = WeightedPoset::new(&[5, 2, 4, 5, 3], &descendants);
//! assert_eq!(poset.width(), 3);
//! assert_eq!(poset.max_weight_antichains(4), vec![5, 9, 12, 0]);
//! ```

use crate::bitset::BitSet;

const WORD_BITS: usize = 64;

/// A strict partial order over weighted nodes, relabeled for the
/// word-parallel antichain search. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct WeightedPoset {
    /// Words per row: `⌈n / 64⌉`.
    words: usize,
    /// `weights[p]`: weight of the node relabeled `p` (non-increasing).
    weights: Vec<u64>,
    /// Row `p`: the nodes incomparable with `p` (`words` words from
    /// `p * words`).
    par: Vec<u64>,
    width: usize,
}

impl WeightedPoset {
    /// Builds the order of `weights.len()` nodes whose `v`-th
    /// `descendants` row holds every node strictly above `v` (a DAG's
    /// transitive `SUCC(v)`). Rows past the last node are ignored.
    ///
    /// # Panics
    ///
    /// Panics if a row names a node outside `0..weights.len()` or `v`
    /// itself.
    pub fn new<'a>(weights: &[u64], descendants: impl IntoIterator<Item = &'a BitSet>) -> Self {
        let n = weights.len();
        let words = n.div_ceil(WORD_BITS);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
        let mut label = vec![0; n];
        for (p, &v) in order.iter().enumerate() {
            label[v] = p;
        }
        // `par` rows start as "all but itself" and lose every comparable
        // pair; `above` rows keep the strict order for the matching. A
        // strict order lists each comparable pair once, so toggling a bit
        // strikes or sets it.
        let mut rows = vec![0u64; 2 * n * words];
        let (par, above) = rows.split_at_mut(n * words);
        for (p, row) in par.chunks_exact_mut(words.max(1)).enumerate() {
            fill(row, n);
            flip(row, p);
        }
        for (v, row) in descendants.into_iter().enumerate().take(n) {
            let lo = label[v];
            for hi in row.iter().map(|d| label[d]) {
                assert_ne!(lo, hi, "node {v} reaches itself");
                flip(&mut par[lo * words..], hi);
                flip(&mut par[hi * words..], lo);
                flip(&mut above[lo * words..], hi);
            }
        }
        let width = n - max_matching(above, words, label);
        rows.truncate(n * words);
        Self {
            words,
            weights: order.iter().map(|&v| weights[v]).collect(),
            par: rows,
            width,
        }
    }

    /// The size of the largest antichain: how many nodes can run at once
    /// (0 for an empty order).
    pub fn width(&self) -> usize {
        self.width
    }

    /// `µ[1..=cores]`: index `c − 1` holds the largest total weight of an
    /// antichain of exactly `c` nodes, 0 for every `c` above the
    /// [`width`](Self::width).
    pub fn max_weight_antichains(&self, cores: usize) -> Vec<u64> {
        let searched = cores.min(self.width);
        // The root's candidate row, then one per deeper slot.
        let mut levels = vec![0u64; (searched + 1) * self.words];
        let mut mu: Vec<u64> = (1..=searched)
            .map(|size| {
                fill(&mut levels[..self.words], self.weights.len());
                let mut best = None;
                self.search(size, self.weights.len(), 0, &mut levels, &mut best);
                best.expect("every size up to the width has an antichain")
            })
            .collect();
        mu.resize(cores, 0);
        mu
    }

    /// Branch-and-bound over the `count` candidates in the first row of
    /// `levels` (deeper rows follow), filling `need` more slots on top of
    /// `chosen` weight.
    fn search(
        &self,
        need: usize,
        mut count: usize,
        chosen: u64,
        levels: &mut [u64],
        best: &mut Option<u64>,
    ) {
        if count < need {
            return;
        }
        let (rest, deeper) = levels.split_at_mut(self.words);
        let optimistic = chosen + self.first_weights(rest, need);
        if best.is_some_and(|b| optimistic <= b) {
            return;
        }
        if need == 1 {
            // The heaviest candidate attains the bound.
            *best = Some(optimistic);
            return;
        }
        // Branch on candidates while they and every later one can fill `need`.
        while count >= need {
            let v = first_bit(rest, &[]).expect("count >= need > 0");
            flip(rest, v);
            count -= 1;
            let mut next_count = 0;
            let par = &self.par[v * self.words..];
            for ((next, &r), &p) in deeper.iter_mut().zip(&*rest).zip(par) {
                *next = r & p;
                next_count += next.count_ones() as usize;
            }
            self.search(need - 1, next_count, chosen + self.weights[v], deeper, best);
        }
    }

    /// Total weight of the first `k` set bits of `row`.
    fn first_weights(&self, row: &[u64], mut k: usize) -> u64 {
        let mut total = 0;
        for (w, &word) in row.iter().enumerate() {
            let mut bits = word;
            while bits != 0 && k > 0 {
                total += self.weights[w * WORD_BITS + bits.trailing_zeros() as usize];
                bits &= bits - 1;
                k -= 1;
            }
        }
        total
    }
}

/// Sets exactly bits `0..n` of `row`.
fn fill(row: &mut [u64], n: usize) {
    for (w, word) in row.iter_mut().enumerate() {
        *word = u64::MAX >> (WORD_BITS - (n - w * WORD_BITS).min(WORD_BITS));
    }
}

/// Toggles bit `i` of `row`.
fn flip(row: &mut [u64], i: usize) {
    row[i / WORD_BITS] ^= 1 << (i % WORD_BITS);
}

/// The lowest bit set in `row` but not in `skip` (missing words of
/// `skip` read as 0).
fn first_bit(row: &[u64], skip: &[u64]) -> Option<usize> {
    row.iter().enumerate().find_map(|(w, &word)| {
        let open = word & !skip.get(w).copied().unwrap_or(0);
        (open != 0).then(|| w * WORD_BITS + open.trailing_zeros() as usize)
    })
}

/// Size of a maximum matching of the bipartite graph with an edge `u → v`
/// for every `v` in row `u` of `above` (rows of `words` words; `owner`
/// has one slot per row and is overwritten). Kuhn's augmenting paths,
/// kept on an explicit stack so long paths cannot exhaust the call stack.
fn max_matching(above: &[u64], words: usize, mut owner: Vec<usize>) -> usize {
    const FREE: usize = usize::MAX;
    owner.fill(FREE);
    let mut visited = vec![0u64; words];
    // `(left node, right node it tries)` along the alternating path.
    let mut path: Vec<(usize, usize)> = Vec::new();
    let mut matched = 0;
    for root in 0..owner.len() {
        visited.fill(0);
        path.push((root, FREE));
        while let Some((u, tried)) = path.last_mut() {
            let row = &above[*u * words..(*u + 1) * words];
            let Some(v) = first_bit(row, &visited) else {
                path.pop();
                continue;
            };
            flip(&mut visited, v);
            *tried = v;
            if owner[v] == FREE {
                // Augment: every left node on the path takes its right node.
                for (u, v) in path.drain(..) {
                    owner[v] = u;
                }
                matched += 1;
            } else {
                path.push((owner[v], FREE));
            }
        }
    }
    matched
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Transitive closure of `edges` over `n` nodes (edges go from lower
    /// to higher index, so index order is topological).
    fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
        let mut desc = vec![BitSet::with_capacity(n); n];
        for v in (0..n).rev() {
            for &(a, b) in edges.iter().filter(|&&(a, _)| a == v) {
                let below = desc[b].clone();
                desc[a].insert(b);
                desc[a].union_with(&below);
            }
        }
        desc
    }

    #[test]
    fn chain_has_width_one() {
        let poset = WeightedPoset::new(&[4, 9, 2], &closure(3, &[(0, 1), (1, 2)]));
        assert_eq!(poset.width(), 1);
        assert_eq!(poset.max_weight_antichains(3), vec![9, 0, 0]);
    }

    #[test]
    fn antichain_has_full_width() {
        let poset = WeightedPoset::new(&[1, 5, 3, 2], &closure(4, &[]));
        assert_eq!(poset.width(), 4);
        assert_eq!(poset.max_weight_antichains(6), vec![5, 8, 10, 11, 0, 0]);
    }

    #[test]
    fn empty_order_and_zero_cores() {
        let poset = WeightedPoset::new(&[], &[]);
        assert_eq!(poset.width(), 0);
        assert_eq!(poset.max_weight_antichains(2), vec![0, 0]);
        let single = WeightedPoset::new(&[7], &closure(1, &[]));
        assert!(single.max_weight_antichains(0).is_empty());
    }

    #[test]
    fn n_shaped_order() {
        // 0 < 2, 1 < 2, 1 < 3: two chains cover it; the antichains of two
        // are {0, 1}, {0, 3} and {2, 3}.
        let poset = WeightedPoset::new(&[1, 1, 5, 6], &closure(4, &[(0, 2), (1, 2), (1, 3)]));
        assert_eq!(poset.width(), 2);
        assert_eq!(poset.max_weight_antichains(3), vec![6, 11, 0]);
    }

    #[test]
    fn rows_span_several_words() {
        // 100 independent nodes but for one chain 0 < 70 < 99.
        let n = 100;
        let weights: Vec<u64> = (0..n as u64).map(|i| i % 7).collect();
        let poset = WeightedPoset::new(&weights, &closure(n, &[(0, 70), (70, 99)]));
        assert_eq!(poset.width(), 98);
        let mu = poset.max_weight_antichains(100);
        // The best 98 keep every node but two of the chain: drop 0 and 70.
        assert_eq!(
            mu[97],
            weights.iter().sum::<u64>() - weights[0] - weights[70]
        );
        assert_eq!(mu[98..], [0, 0]);
    }

    #[test]
    #[should_panic(expected = "reaches itself")]
    fn reflexive_rows_panic() {
        let _ = WeightedPoset::new(&[1, 1], &[[0].into_iter().collect(), BitSet::new()]);
    }
}
