//! Execution scenarios and the precedence-aware blocking bound (LP-ILP).
//!
//! Section IV-B of the paper: an *execution scenario* `s_l` fixes how many
//! cores each lower-priority task occupies — an integer partition of the
//! core count. Per scenario, the overall worst-case workload `ρ_k[s_l]`
//! assigns **distinct** tasks to the parts maximizing `Σ µ_i[c]` (Eq. (7)),
//! and the blocking bound is the maximum over scenarios (Eq. (8)):
//!
//! ```text
//! Δ^m_k = max_{s_l ∈ e_m} ρ_k[s_l]
//! ```
//!
//! `ρ` is solved either with the Hungarian algorithm (exact, default) or
//! with the paper's ILP formulation. One subtlety, discovered while
//! cross-validating the two: the ILP of Section V-B does not always pin the
//! selected core-count multiset to the scenario — e.g. under `s_l =
//! {2,2,2,1,1}` the assignment `{3,2,1,1,1}` satisfies all four constraints.
//! Every such "leaked" multiset is itself a partition of `m`, so `Δ^m`
//! (the maximum over *all* scenarios) is unaffected, but individual
//! `ρ_k[s_l]` values from the ILP can exceed the scenario's true optimum.
//! Tests therefore compare the two solvers on `Δ` and on non-degenerate
//! scenarios such as Table III.
//!
//! Everything here is the paper's formulation taken literally: [`delta`]
//! enumerates every partition of `m` and solves one assignment per
//! scenario, so its cost grows like `p(m)`. It prints the per-scenario `ρ`
//! of Table III and is the oracle of [`crate::analyze_uncached`]. The
//! analysis path reads the same maxima from
//! [`crate::cache::DeltaTable`], which solves Eq. (8) as a polynomial
//! group knapsack over the lower-priority tasks instead.

use super::BlockingBounds;
use crate::config::{MuSolver, RhoSolver, ScenarioSpace};
use rta_combinatorics::{max_weight_assignment, partitions, Partition};
use rta_model::{DagTask, Time};

/// The overall worst-case workload `ρ_k[s_l]` of one execution scenario
/// (Eq. (7)). Returns `None` when the scenario involves more tasks than
/// exist.
///
/// `mu_arrays[i][c − 1]` is `µ_i[c]` of the `i`-th lower-priority task.
///
/// # Example
///
/// Table III, scenario `s_3 = {2,1,1}`:
///
/// ```
/// use rta_analysis::blocking::scenarios::rho;
/// use rta_analysis::RhoSolver;
/// use rta_combinatorics::Partition;
/// use rta_model::examples::TABLE_I;
///
/// let mu: Vec<Vec<u64>> = TABLE_I.iter().map(|r| r.to_vec()).collect();
/// let s3 = Partition::new(vec![2, 1, 1]);
/// assert_eq!(rho(&mu, &s3, RhoSolver::Hungarian), Some(19));
/// ```
pub fn rho(mu_arrays: &[Vec<Time>], scenario: &Partition, solver: RhoSolver) -> Option<Time> {
    match solver {
        RhoSolver::Hungarian => rho_hungarian(mu_arrays, scenario),
        RhoSolver::PaperIlp => super::paper_ilp::rho_ilp(mu_arrays, scenario),
    }
}

fn rho_hungarian(mu_arrays: &[Vec<Time>], scenario: &Partition) -> Option<Time> {
    if scenario.cardinality() > mu_arrays.len() {
        return None;
    }
    let weights: Vec<Vec<u64>> = scenario
        .parts()
        .iter()
        .map(|&c| {
            mu_arrays
                .iter()
                .map(|mu| mu.get(c as usize - 1).copied().unwrap_or(0))
                .collect()
        })
        .collect();
    max_weight_assignment(&weights).map(|a| a.total)
}

/// `Δ^c` over a scenario space: the maximum `ρ` across the chosen set of
/// execution scenarios for a platform slice of `cores` cores (Eq. (8)).
pub fn delta(
    mu_arrays: &[Vec<Time>],
    cores: usize,
    space: ScenarioSpace,
    solver: RhoSolver,
) -> Time {
    if cores == 0 || mu_arrays.is_empty() {
        return 0;
    }
    let max_rho = |m: u32| -> Option<Time> {
        partitions(m)
            .filter_map(|s| rho(mu_arrays, &s, solver))
            .max()
    };
    match space {
        ScenarioSpace::PaperExact => max_rho(cores as u32).unwrap_or(0),
        ScenarioSpace::Extended => (1..=cores as u32).filter_map(max_rho).max().unwrap_or(0),
    }
}

/// The full LP-ILP blocking bound for a task under analysis: computes
/// `µ_i[c]` for every lower-priority task and maximizes `ρ` over the
/// scenario spaces of `m` and `m−1` cores.
pub fn lp_ilp_blocking(
    lp_tasks: &[DagTask],
    cores: usize,
    mu_solver: MuSolver,
    rho_solver: RhoSolver,
    space: ScenarioSpace,
) -> BlockingBounds {
    let mu_arrays: Vec<Vec<Time>> = lp_tasks
        .iter()
        .map(|t| super::mu::mu_array(t.dag(), cores, mu_solver))
        .collect();
    blocking_from_mu(&mu_arrays, cores, rho_solver, space)
}

/// As [`lp_ilp_blocking`], but from pre-computed `µ` arrays (the arrays are
/// task-set independent, so callers analyzing many tasks reuse them).
pub fn blocking_from_mu(
    mu_arrays: &[Vec<Time>],
    cores: usize,
    rho_solver: RhoSolver,
    space: ScenarioSpace,
) -> BlockingBounds {
    BlockingBounds {
        delta_m: delta(mu_arrays, cores, space, rho_solver),
        delta_m_minus_one: if cores >= 2 {
            delta(mu_arrays, cores - 1, space, rho_solver)
        } else {
            0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::lpmax::lp_max_blocking;
    use rta_model::examples::{figure1_dags, TABLE_I};
    use rta_model::DagTask;

    fn mu() -> Vec<Vec<Time>> {
        TABLE_I.iter().map(|r| r.to_vec()).collect()
    }

    #[test]
    fn table_iii_all_scenarios_hungarian() {
        // Enumeration order: {4}, {3,1}, {2,2}, {2,1,1}, {1,1,1,1}.
        let expected = [11, 18, 16, 19, 18];
        for (scenario, want) in partitions(4).zip(expected) {
            assert_eq!(
                rho(&mu(), &scenario, RhoSolver::Hungarian),
                Some(want),
                "ρ[{scenario}]"
            );
        }
    }

    #[test]
    fn paper_deltas() {
        // Δ⁴ = 19 and Δ³ = 15 (Section IV-B3).
        let b = blocking_from_mu(&mu(), 4, RhoSolver::Hungarian, ScenarioSpace::PaperExact);
        assert_eq!(b.delta_m, 19);
        assert_eq!(b.delta_m_minus_one, 15);
        // The extended space agrees here (enough tasks to fill 4 cores).
        let be = blocking_from_mu(&mu(), 4, RhoSolver::Hungarian, ScenarioSpace::Extended);
        assert_eq!(be, b);
    }

    #[test]
    fn ilp_and_hungarian_agree_on_deltas() {
        for cores in 1..=5 {
            for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                let h = blocking_from_mu(&mu(), cores, RhoSolver::Hungarian, space);
                let i = blocking_from_mu(&mu(), cores, RhoSolver::PaperIlp, space);
                assert_eq!(h, i, "m = {cores}, {space:?}");
            }
        }
    }

    #[test]
    fn lp_ilp_never_exceeds_lp_max() {
        let tasks: Vec<DagTask> = figure1_dags()
            .into_iter()
            .map(|d| DagTask::with_implicit_deadline(d, 1_000).unwrap())
            .collect();
        for cores in 1..=8 {
            let ilp = lp_ilp_blocking(
                &tasks,
                cores,
                MuSolver::Clique,
                RhoSolver::Hungarian,
                ScenarioSpace::Extended,
            );
            let max = lp_max_blocking(&tasks, cores);
            assert!(ilp.delta_m <= max.delta_m, "Δ^m at m = {cores}");
            assert!(
                ilp.delta_m_minus_one <= max.delta_m_minus_one,
                "Δ^(m−1) at m = {cores}"
            );
        }
    }

    #[test]
    fn extended_space_handles_few_tasks() {
        // A single lower-priority task with parallelism 2 on m = 4: the
        // paper's exact space only contains {4}, {3,1}, {2,2}, {2,1,1},
        // {1,1,1,1}; with one task only {4} is feasible and µ[4] = 0, so
        // PaperExact reports no blocking. The extended space finds µ[2].
        let mu_one = vec![vec![5u64, 8, 0, 0]];
        let exact = delta(&mu_one, 4, ScenarioSpace::PaperExact, RhoSolver::Hungarian);
        let extended = delta(&mu_one, 4, ScenarioSpace::Extended, RhoSolver::Hungarian);
        assert_eq!(exact, 0);
        assert_eq!(extended, 8);
    }

    #[test]
    fn no_lp_tasks_means_no_blocking() {
        let b = blocking_from_mu(&[], 4, RhoSolver::Hungarian, ScenarioSpace::Extended);
        assert_eq!(b, BlockingBounds::default());
    }

    #[test]
    fn single_core_delta() {
        let b = blocking_from_mu(&mu(), 1, RhoSolver::Hungarian, ScenarioSpace::Extended);
        // Largest µ_i[1] = 6 (τ3); Δ⁰ = 0.
        assert_eq!(b.delta_m, 6);
        assert_eq!(b.delta_m_minus_one, 0);
    }

    #[test]
    fn rho_infeasible_scenarios() {
        let one_task = vec![vec![3u64, 5]];
        let s = Partition::new(vec![1, 1]);
        assert_eq!(rho(&one_task, &s, RhoSolver::Hungarian), None);
        assert_eq!(rho(&one_task, &s, RhoSolver::PaperIlp), None);
    }

    #[test]
    fn extended_dominates_exact() {
        // On arbitrary µ arrays the extended space is ≥ the exact space.
        let arrays = vec![vec![4u64, 6, 0, 0], vec![2, 0, 0, 0]];
        for cores in 1..=4 {
            let e = delta(
                &arrays,
                cores,
                ScenarioSpace::Extended,
                RhoSolver::Hungarian,
            );
            let p = delta(
                &arrays,
                cores,
                ScenarioSpace::PaperExact,
                RhoSolver::Hungarian,
            );
            assert!(e >= p, "m = {cores}");
        }
    }
}
