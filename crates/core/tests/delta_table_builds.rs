//! The Δ table is built once per (task set, solver pair): however many
//! tasks under analysis, platform slices and scenario spaces read it,
//! `cache_rho_builds_total` moves by exactly one.
//!
//! The counter is process-global, so this file holds a single test: its
//! own test binary, with no concurrent analysis to bump the counter.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{AnalysisRequest, MuSolver, RhoSolver, ScenarioSpace, TaskSetCache};
use rta_model::examples::figure1_task_set;
use rta_taskgen::{generate_task_set, group1};

fn rho_builds() -> u64 {
    rta_obs::snapshot().counter("cache_rho_builds_total")
}

#[test]
fn delta_table_is_built_once_per_set_and_solver_pair() {
    for seed in 0..12u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(3.0));
        let cache = TaskSetCache::new(&ts, 6);
        let before = rho_builds();
        for _ in 0..2 {
            for k in 0..ts.len() {
                for cores in 1..=6 {
                    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
                        let _ = cache.lp_ilp_blocking(
                            k,
                            cores,
                            MuSolver::Clique,
                            RhoSolver::Hungarian,
                            space,
                        );
                        let _ = cache.max_rho(k, cores, MuSolver::Clique, RhoSolver::Hungarian);
                    }
                }
            }
        }
        assert_eq!(
            rho_builds() - before,
            1,
            "seed {seed}: one table per solver pair"
        );

        // A whole request on the warm cache reads the same table.
        let _ = AnalysisRequest::new(6)
            .with_bounds(true)
            .evaluate_with(&cache);
        assert_eq!(rho_builds() - before, 1, "seed {seed}: request rebuilt Δ");
    }

    // Every other solver pair gets its own table, once.
    let ts = figure1_task_set();
    let cache = TaskSetCache::new(&ts, 4);
    let before = rho_builds();
    for mu_solver in [MuSolver::Clique, MuSolver::PaperIlp] {
        for rho_solver in [RhoSolver::Hungarian, RhoSolver::PaperIlp] {
            for k in 0..ts.len() {
                for cores in 1..=4 {
                    let _ = cache.max_rho(k, cores, mu_solver, rho_solver);
                }
            }
        }
    }
    assert_eq!(rho_builds() - before, 4, "one table per solver pair");
}
