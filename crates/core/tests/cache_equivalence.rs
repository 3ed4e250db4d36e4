//! The caching contract, end to end: batched and cached analyses are
//! bit-identical to the original per-call path, and the per-task-set
//! precomputation really computes each µ-array exactly once.

// The legacy batch entry points under test are deprecated wrappers over
// the unified request API; this suite is exactly what pins them
// bit-identical to it.
#![allow(deprecated)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::blocking::mu::{mu_array, mu_array_computations};
use rta_analysis::blocking::scenarios::delta;
use rta_analysis::cache::TaskSetCache;
use rta_analysis::{
    analyze_all, analyze_uncached, AnalysisConfig, Method, MuSolver, RhoSolver, ScenarioSpace,
};
use rta_model::examples::figure1_task_set;
use rta_model::Time;
use rta_taskgen::{generate_task_set, group1, group2};

/// The three Figure 2 methods plus the solver/space variations the CLI can
/// reach, all at the same core count.
fn config_matrix(cores: usize) -> Vec<AnalysisConfig> {
    let mut configs: Vec<AnalysisConfig> = Method::ALL
        .iter()
        .map(|&m| AnalysisConfig::new(cores, m))
        .collect();
    configs.push(
        AnalysisConfig::new(cores, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact),
    );
    configs.push(AnalysisConfig::new(cores, Method::LpIlp).with_final_npr_refinement(true));
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `analyze_all` over the whole configuration matrix is bit-identical
    /// to independent uncached analyses on randomly generated task sets.
    #[test]
    fn analyze_all_matches_independent_analyses_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=70,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        let configs = config_matrix(cores);
        let batched = analyze_all(&ts, &configs);
        for (config, report) in configs.iter().zip(&batched) {
            let reference = analyze_uncached(&ts, config);
            prop_assert_eq!(report, &reference, "{:?}", config);
        }
    }

    /// Same bit-identity on the group-2 generator (uniformly parallel
    /// DAGs), whose task sets have very different µ structure.
    #[test]
    fn analyze_all_matches_on_group2_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group2(cores as f64 / 2.0));
        let configs = config_matrix(cores);
        let batched = analyze_all(&ts, &configs);
        for (config, report) in configs.iter().zip(&batched) {
            prop_assert_eq!(report, &analyze_uncached(&ts, config), "{:?}", config);
        }
    }
}

/// Cached µ and Δ agree with the direct (uncached) computations on the
/// Figure 1 example for every platform slice `m ∈ 1..=8`.
#[test]
fn figure1_cached_mu_and_delta_match_uncached_for_all_core_counts() {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 8);
    for m in 1..=8usize {
        for solver in [MuSolver::Clique, MuSolver::PaperIlp] {
            for (k, task) in ts.tasks().iter().enumerate() {
                assert_eq!(
                    cache.mu(k, solver)[..m],
                    mu_array(task.dag(), m, solver),
                    "µ of task {k} at m = {m} ({solver:?})"
                );
            }
        }
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            for k in 0..ts.len() {
                let mu_arrays: Vec<Vec<Time>> = ts
                    .lower_priority(k)
                    .iter()
                    .map(|t| mu_array(t.dag(), m, MuSolver::Clique))
                    .collect();
                assert_eq!(
                    cache.delta(k, m, space, MuSolver::Clique, RhoSolver::Hungarian),
                    delta(&mu_arrays, m, space, RhoSolver::Hungarian),
                    "Δ of task {k} at m = {m} ({space:?})"
                );
            }
        }
    }
}

/// Large platforms: on the Figure 1 set the cached Δ (one group-knapsack
/// [`rta_analysis::cache::DeltaTable`] per solver pair) must equal the
/// enumerating oracle over every partition of `m`, for every task at
/// m = 8, 12 and 16, where most cores exceed every µ-array's width.
#[test]
fn figure1_cached_delta_matches_uncached_up_to_16_cores() {
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 16);
    // Query in priority order, like the analysis.
    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
        for m in [8usize, 12, 16] {
            for k in 0..ts.len() {
                let mu_arrays: Vec<Vec<Time>> = ts
                    .lower_priority(k)
                    .iter()
                    .map(|t| mu_array(t.dag(), m, MuSolver::Clique))
                    .collect();
                assert_eq!(
                    cache.delta(k, m, space, MuSolver::Clique, RhoSolver::Hungarian),
                    delta(&mu_arrays, m, space, RhoSolver::Hungarian),
                    "Δ of task {k} at m = {m} ({space:?})"
                );
            }
        }
    }
}

/// The headline caching guarantee: one batched analysis over all three
/// methods computes each needed µ-array exactly once per task set —
/// independent of how many methods, spaces or tasks under analysis read it.
#[test]
fn batched_analysis_computes_mu_once_per_task() {
    let ts = figure1_task_set();
    let configs = config_matrix(4);

    let before = mu_array_computations();
    let _ = analyze_all(&ts, &configs);
    let per_batch = mu_array_computations() - before;
    // Only lower-priority tasks' µ-arrays are ever consumed (`lp(k)` for
    // some k), i.e. every task except the highest-priority one.
    assert_eq!(
        per_batch,
        ts.len() as u64 - 1,
        "one batch must compute µ exactly once per lower-priority task"
    );

    // A second batch builds a fresh cache: same count again, while the
    // uncached reference recomputes µ per task under analysis.
    let before = mu_array_computations();
    let _ = analyze_all(&ts, &configs);
    assert_eq!(mu_array_computations() - before, ts.len() as u64 - 1);

    let before = mu_array_computations();
    let _ = analyze_uncached(&ts, &AnalysisConfig::new(4, Method::LpIlp));
    let uncached = mu_array_computations() - before;
    // Σ_{k} |lp(k)| = n(n−1)/2 — the O(n²) recomputation the cache kills.
    assert_eq!(uncached, (ts.len() * (ts.len() - 1) / 2) as u64);
}
