//! The group-knapsack Δ is exact: [`DeltaTable::knapsack`] reproduces the
//! paper's scenario enumeration ([`scenarios::delta`] with the Hungarian
//! `ρ` solver) for every task under analysis, platform slice and scenario
//! space — including the "µ past the end of the array is 0" convention.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::blocking::mu::mu_array;
use rta_analysis::blocking::scenarios::{self, blocking_from_mu};
use rta_analysis::cache::{DeltaTable, TaskSetCache};
use rta_analysis::{MuSolver, RhoSolver, ScenarioSpace, TaskSet, Time};
use rta_taskgen::{generate_task_set, group1, group2, TaskSetConfig};

const SPACES: [ScenarioSpace; 2] = [ScenarioSpace::PaperExact, ScenarioSpace::Extended];

/// Largest platform slice the random µ arrays are checked at.
const MAX_CORES: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random µ arrays — small values (so entries tie often), lengths
    /// shorter and longer than the platform, and a zero tail from a random
    /// cut-off on — for 0..=6 lower-priority tasks.
    #[test]
    fn knapsack_matches_enumeration(
        tasks in proptest::collection::vec(
            (proptest::collection::vec(0u64..=12, 0..=MAX_CORES + 2), 0usize..=MAX_CORES),
            0..=6,
        ),
    ) {
        let lower: Vec<Vec<Time>> = tasks
            .into_iter()
            .map(|(mut mu, cut)| {
                for w in mu.iter_mut().skip(cut) {
                    *w = 0;
                }
                mu
            })
            .collect();
        let refs: Vec<&[Time]> = lower.iter().map(Vec::as_slice).collect();
        let table = DeltaTable::knapsack(&refs, MAX_CORES);
        for k in 0..=lower.len() {
            for cores in 0..=MAX_CORES {
                for space in SPACES {
                    prop_assert_eq!(
                        table.delta(k, cores, space),
                        scenarios::delta(&lower[k..], cores, space, RhoSolver::Hungarian),
                        "k = {}, c = {}, {:?}",
                        k,
                        cores,
                        space
                    );
                }
            }
        }
    }
}

/// The cache's LP-ILP blocking terms equal [`blocking_from_mu`] on generated
/// sets, for every task under analysis and both scenario spaces.
fn assert_cache_matches_enumeration(ts: &TaskSet, cache: &TaskSetCache, cores: usize) {
    for k in 0..ts.len() {
        let mu_arrays: Vec<Vec<Time>> = ts
            .lower_priority(k)
            .iter()
            .map(|t| mu_array(t.dag(), cores, MuSolver::Clique))
            .collect();
        for space in SPACES {
            assert_eq!(
                cache.lp_ilp_blocking(k, cores, MuSolver::Clique, RhoSolver::Hungarian, space),
                blocking_from_mu(&mu_arrays, cores, RhoSolver::Hungarian, space),
                "task {k}, m = {cores}, {space:?}"
            );
        }
    }
}

#[test]
fn cache_blocking_matches_enumeration_on_generated_sets() {
    let families: [fn(f64) -> TaskSetConfig; 2] = [group1, group2];
    for family in families {
        for cores in [4usize, 8, 16] {
            for seed in 0..3u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let ts = generate_task_set(&mut rng, &family(cores as f64 / 2.0));
                // A cache sized for the platform, and one sized past it
                // whose µ-arrays are sliced.
                for max_cores in [cores, 16] {
                    let cache = TaskSetCache::new(&ts, max_cores);
                    assert_cache_matches_enumeration(&ts, &cache, cores);
                }
            }
        }
    }
}
