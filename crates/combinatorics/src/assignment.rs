//! Maximum-weight assignment (Hungarian algorithm).
//!
//! The overall worst-case workload `ρ_k[s_l]` of the paper (Section V-B) asks:
//! given an execution scenario — a partition of the cores into parts
//! `c_1 ≥ c_2 ≥ …` — assign **distinct** lower-priority tasks to the parts so
//! that the summed per-task workloads `µ_i[c_j]` are maximal. That is a
//! rectangular maximum-weight perfect-matching problem on (parts × tasks),
//! which the paper solves with CPLEX and we solve exactly with the Hungarian
//! algorithm in `O(rows² · cols)`.
//!
//! The ILP path (the `rta-ilp` crate) solves the paper's original formulation; the
//! two are cross-checked against each other in the analysis crate's tests.

/// Result of a maximum-weight assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Total weight of the optimal assignment.
    pub total: u64,
    /// `column_of[r]` is the column assigned to row `r`.
    pub column_of: Vec<usize>,
}

/// Hungarian algorithm with potentials (e-maxx formulation), minimizing the
/// negated weights. Indices are 1-based internally; index 0 is the virtual
/// start column. Returns `row_of_col`, where `row_of_col[j]` is the
/// (1-based) row assigned to column `j`, or 0 when the column is unused.
///
/// Requires `1 <= rows <= cols`.
fn hungarian(weights: &[Vec<u64>], rows: usize, cols: usize) -> Vec<usize> {
    let cost = |r: usize, c: usize| -> i64 { -(weights[r][c] as i64) };
    let mut u = vec![0i64; rows + 1];
    let mut v = vec![0i64; cols + 1];
    let mut row_of_col = vec![0usize; cols + 1];
    let mut way = vec![0usize; cols + 1];

    for r in 1..=rows {
        row_of_col[0] = r;
        let mut j0 = 0usize;
        let mut minv = vec![i64::MAX; cols + 1];
        let mut used = vec![false; cols + 1];
        loop {
            used[j0] = true;
            let i0 = row_of_col[j0];
            let mut delta = i64::MAX;
            let mut j1 = 0usize;
            for j in 1..=cols {
                if used[j] {
                    continue;
                }
                let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                if cur < minv[j] {
                    minv[j] = cur;
                    way[j] = j0;
                }
                if minv[j] < delta {
                    delta = minv[j];
                    j1 = j;
                }
            }
            debug_assert!(delta < i64::MAX, "augmenting path must exist");
            for j in 0..=cols {
                if used[j] {
                    u[row_of_col[j]] += delta;
                    v[j] -= delta;
                } else {
                    minv[j] -= delta;
                }
            }
            j0 = j1;
            if row_of_col[j0] == 0 {
                break;
            }
        }
        // Unwind the augmenting path.
        loop {
            let j1 = way[j0];
            row_of_col[j0] = row_of_col[j1];
            j0 = j1;
            if j0 == 0 {
                break;
            }
        }
    }
    row_of_col
}

/// Computes a maximum-weight assignment of every row to a distinct column.
///
/// `weights` is a rectangular row-major matrix with `rows ≤ cols`; entry
/// `weights[r][c]` is the gain of assigning row `r` to column `c`. Every row
/// is assigned; columns may be left unused. Weights are unsigned, so the
/// optimum is always well-defined.
///
/// Returns `None` when the matrix has more rows than columns (no perfect
/// assignment of rows exists) — in the paper's terms, when an execution
/// scenario mentions more tasks than `lp(k)` contains, the scenario is
/// infeasible.
///
/// # Panics
///
/// Panics if the rows have inconsistent lengths.
///
/// # Example
///
/// ```
/// use rta_combinatorics::max_weight_assignment;
///
/// // Two scenario parts, three candidate tasks.
/// let weights = vec![
///     vec![9, 7, 0], // part of 2 cores: µ values per task
///     vec![4, 6, 5], // part of 1 core
/// ];
/// let a = max_weight_assignment(&weights).expect("feasible");
/// assert_eq!(a.total, 15); // 9 (task 0 on 2 cores) + 6 (task 1 on 1 core)
/// assert_eq!(a.column_of, vec![0, 1]);
/// ```
pub fn max_weight_assignment(weights: &[Vec<u64>]) -> Option<Assignment> {
    let rows = weights.len();
    if rows == 0 {
        return Some(Assignment {
            total: 0,
            column_of: Vec::new(),
        });
    }
    let cols = weights[0].len();
    for row in weights {
        assert_eq!(row.len(), cols, "assignment matrix must be rectangular");
    }
    if rows > cols {
        return None;
    }

    let row_of_col = hungarian(weights, rows, cols);
    let mut column_of = vec![usize::MAX; rows];
    for j in 1..=cols {
        if row_of_col[j] != 0 {
            column_of[row_of_col[j] - 1] = j - 1;
        }
    }
    debug_assert!(column_of.iter().all(|&c| c != usize::MAX));
    let total = column_of
        .iter()
        .enumerate()
        .map(|(r, &c)| weights[r][c])
        .sum();
    Some(Assignment { total, column_of })
}

/// Exhaustive reference solver used to validate the Hungarian implementation
/// in tests; exponential in the number of rows, exact.
pub fn max_weight_assignment_bruteforce(weights: &[Vec<u64>]) -> Option<u64> {
    let rows = weights.len();
    if rows == 0 {
        return Some(0);
    }
    let cols = weights[0].len();
    if rows > cols {
        return None;
    }
    fn rec(weights: &[Vec<u64>], row: usize, used: &mut Vec<bool>) -> u64 {
        if row == weights.len() {
            return 0;
        }
        let mut best = 0;
        for c in 0..weights[0].len() {
            if !used[c] {
                used[c] = true;
                let val = weights[row][c] + rec(weights, row + 1, used);
                used[c] = false;
                best = best.max(val);
            }
        }
        best
    }
    Some(rec(weights, 0, &mut vec![false; cols]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_assignment() {
        let a = max_weight_assignment(&[]).expect("empty is feasible");
        assert_eq!(a.total, 0);
        assert!(a.column_of.is_empty());
    }

    #[test]
    fn square_identity() {
        let w = vec![vec![10, 1, 1], vec![1, 10, 1], vec![1, 1, 10]];
        let a = max_weight_assignment(&w).expect("feasible");
        assert_eq!(a.total, 30);
        assert_eq!(a.column_of, vec![0, 1, 2]);
    }

    #[test]
    fn forced_tradeoff() {
        // Row 0 prefers col 0 (9) but row 1 needs it more (overall optimum
        // assigns row 0 -> col 1).
        let w = vec![vec![9, 8], vec![9, 1]];
        let a = max_weight_assignment(&w).expect("feasible");
        assert_eq!(a.total, 17);
        assert_eq!(a.column_of, vec![1, 0]);
    }

    #[test]
    fn infeasible_when_more_rows_than_columns() {
        let w = vec![vec![1], vec![2]];
        assert_eq!(max_weight_assignment(&w), None);
    }

    #[test]
    fn rectangular_leaves_columns_unused() {
        let w = vec![vec![5, 100, 5, 7]];
        let a = max_weight_assignment(&w).expect("feasible");
        assert_eq!(a.total, 100);
        assert_eq!(a.column_of, vec![1]);
    }

    #[test]
    fn zeros_are_fine() {
        let w = vec![vec![0, 0], vec![0, 0]];
        let a = max_weight_assignment(&w).expect("feasible");
        assert_eq!(a.total, 0);
    }

    #[test]
    #[should_panic(expected = "rectangular")]
    fn ragged_matrix_panics() {
        let w = vec![vec![1, 2], vec![3]];
        let _ = max_weight_assignment(&w);
    }

    #[test]
    fn paper_scenario_s3_shape() {
        // Scenario s3 = {2,1,1} from Table III: parts (2 cores, 1 core,
        // 1 core) over tasks τ1..τ4 with µ from Table I.
        // Rows: c=2, c=1, c=1; columns: τ1, τ2, τ3, τ4.
        let w = vec![
            vec![5, 7, 7, 9], // µ_i[2]
            vec![3, 4, 6, 5], // µ_i[1]
            vec![3, 4, 6, 5], // µ_i[1]
        ];
        let a = max_weight_assignment(&w).expect("feasible");
        // ρ[s3] = µ4[2] + µ3[1] + µ2[1] = 9 + 6 + 4 = 19 (paper Table III).
        assert_eq!(a.total, 19);
    }

    #[test]
    fn matches_bruteforce_on_fixed_cases() {
        let cases: Vec<Vec<Vec<u64>>> = vec![
            vec![vec![3, 1, 4], vec![1, 5, 9], vec![2, 6, 5]],
            vec![vec![7, 7, 7], vec![7, 7, 7]],
            vec![vec![1, 2, 3, 4], vec![4, 3, 2, 1], vec![2, 2, 2, 2]],
        ];
        for w in cases {
            let fast = max_weight_assignment(&w).map(|a| a.total);
            let slow = max_weight_assignment_bruteforce(&w);
            assert_eq!(fast, slow, "matrix {w:?}");
        }
    }
}
