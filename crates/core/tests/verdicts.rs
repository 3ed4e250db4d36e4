//! The verdict fast path's contract: [`analyze_verdicts`] must agree with
//! the `schedulable` flags of full [`analyze_all`] reports on every input —
//! the dominance shortcut (FP-ideal ≼ LP-ILP ≼ LP-max) is an optimization,
//! never an approximation.

// The legacy batch entry points under test are deprecated wrappers over
// the unified request API; this suite is exactly what pins them
// bit-identical to it.
#![allow(deprecated)]

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{
    analyze_all, analyze_verdicts, verdicts_with_bounds, AnalysisConfig, Method, MuSolver,
    ResponseBound, RhoSolver, ScenarioSpace,
};
use rta_model::examples::figure1_task_set;
use rta_taskgen::{generate_task_set, group1, group2};

/// The exact configuration triple the Figure 2 sweeps evaluate.
fn sweep_configs(cores: usize, space: ScenarioSpace) -> Vec<AnalysisConfig> {
    Method::ALL
        .iter()
        .map(|&m| AnalysisConfig::new(cores, m).with_scenario_space(space))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Verdicts equal full-report schedulability on random group-1 sets,
    /// across core counts, utilizations and both scenario spaces.
    #[test]
    fn verdicts_match_full_reports_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            let configs = sweep_configs(cores, space);
            let expected: Vec<bool> = analyze_all(&ts, &configs)
                .iter()
                .map(|r| r.schedulable)
                .collect();
            prop_assert_eq!(
                analyze_verdicts(&ts, &configs),
                expected,
                "seed {} cores {} {:?}",
                seed,
                cores,
                space
            );
        }
    }

    /// Same agreement on group-2 sets (uniformly parallel DAGs), whose
    /// heavier µ structure stresses the LP-ILP-only leg of the shortcut.
    #[test]
    fn verdicts_match_on_group2_sets(
        seed in 0u64..1_000_000,
        cores in 2usize..=4,
        load_percent in 30u32..=100,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group2(target));
        let configs = sweep_configs(cores, ScenarioSpace::PaperExact);
        let expected: Vec<bool> = analyze_all(&ts, &configs)
            .iter()
            .map(|r| r.schedulable)
            .collect();
        prop_assert_eq!(analyze_verdicts(&ts, &configs), expected);
    }

    /// The bound-carrying variant is pinned to `analyze_all` on every
    /// field the validation campaign reads: the verdict flag and the
    /// per-task response bounds of the analyzed prefix (length included —
    /// it must stop at the same first unschedulable task).
    #[test]
    fn verdicts_with_bounds_match_analyze_all_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            let configs = sweep_configs(cores, space);
            let reports = analyze_all(&ts, &configs);
            let verdicts = verdicts_with_bounds(&ts, &configs);
            prop_assert_eq!(verdicts.len(), reports.len());
            for (verdict, report) in verdicts.iter().zip(&reports) {
                prop_assert_eq!(verdict.schedulable, report.schedulable,
                    "seed {} cores {} {:?}", seed, cores, space);
                let expected: Vec<ResponseBound> =
                    report.tasks.iter().map(|t| t.response_bound).collect();
                prop_assert_eq!(&verdict.bounds, &expected,
                    "seed {} cores {} {:?}", seed, cores, space);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The new dominance edge used by the verdict shortcut, stated on the
    /// bounds themselves: per task, FP-ideal's bound never exceeds
    /// LP-sound's (the sound method adds a non-negative monotone term to
    /// the same fixed point), hence LP-sound schedulable ⇒ FP-ideal
    /// schedulable on every random set.
    #[test]
    fn lp_sound_bounds_dominate_fp_ideal(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        let configs = [
            AnalysisConfig::new(cores, Method::FpIdeal),
            AnalysisConfig::new(cores, Method::LpSound),
        ];
        let verdicts = verdicts_with_bounds(&ts, &configs);
        let (fp, sound) = (&verdicts[0], &verdicts[1]);
        prop_assert!(
            !sound.schedulable || fp.schedulable,
            "seed {}: LP-sound accepted a set FP-ideal rejects",
            seed
        );
        for (k, (f, s)) in fp.bounds.iter().zip(&sound.bounds).enumerate() {
            // Compare converged bounds only: a diverged entry is the first
            // deadline-crossing iterate, not a bound.
            if k + 1 == fp.bounds.len() && !fp.schedulable {
                break;
            }
            if k + 1 == sound.bounds.len() && !sound.schedulable {
                break;
            }
            prop_assert!(
                f.scaled() <= s.scaled(),
                "seed {} task {}: FP {} above LP-sound {}",
                seed,
                k,
                f,
                s
            );
        }
    }
}

#[test]
fn verdicts_handle_mixed_families_and_solver_variants() {
    // Configurations from *different* families (core counts, spaces, solver
    // pairs) interleaved in one call: grouping must not mix them up.
    let ts = figure1_task_set();
    let mut configs = Vec::new();
    for cores in [2usize, 4] {
        for method in Method::ALL {
            configs.push(AnalysisConfig::new(cores, method));
        }
    }
    configs.push(
        AnalysisConfig::new(4, Method::LpIlp)
            .with_mu_solver(MuSolver::PaperIlp)
            .with_rho_solver(RhoSolver::PaperIlp),
    );
    configs.push(AnalysisConfig::new(4, Method::LpIlp).with_final_npr_refinement(true));
    let expected: Vec<bool> = analyze_all(&ts, &configs)
        .iter()
        .map(|r| r.schedulable)
        .collect();
    assert_eq!(analyze_verdicts(&ts, &configs), expected);
}
