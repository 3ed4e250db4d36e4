//! The PR-5 perf bench: cost of the fourth (LP-sound) method and of the
//! full validation cell, plus the tracked LP-ILP point, whose combinatorial
//! cost is the µ-arrays (the word-parallel antichain kernel, capped at each
//! DAG's Dilworth width) and the Δ knapsack.
//!
//! Measured, each as the median of [`SAMPLES`] runs over a Figure 2(a)
//! grid population:
//!
//! * **verdicts, paper 3 methods** vs **+ LP-sound** vs **all 6 methods**
//!   — the marginal cost of adding LP-sound to every sweep cell (its
//!   fixed point runs no combinatorial blocking machinery, so the
//!   overhead should be small), and on top of that the marginal cost of
//!   the two published fully-preemptive competitor bounds (Long-paths,
//!   Gen-sporadic) the comparison panel evaluates per cell;
//! * **LP-ILP analysis** — the blocking-heavy workload; the absolute
//!   median is the point future PRs track. Its JSON field keeps the
//!   historical name `lp_ilp_warm_scratch_ns` (the µ search once drew on a
//!   per-thread scratch; it now needs none);
//! * **validation cell** — `validate_set` under the eager policy only vs
//!   all three policies (eager + lazy + fully preemptive), the cost of
//!   exercising both preemption semantics per generated set.
//!
//! Besides the human-readable report, the bench writes **`BENCH_5.json`**
//! (override the path with the `BENCH_JSON` environment variable),
//! line-oriented like its predecessors so CI can `grep` fields.

// These benches track the perf trajectory of the original batched
// entry points, now thin wrappers over `AnalysisRequest` — calling
// them here is the point, not an oversight.
#![allow(deprecated)]

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze, analyze_all, analyze_verdicts, AnalysisConfig, Method, ScenarioSpace};
use rta_experiments::set_seed;
use rta_experiments::validate::{validate_set, PolicyChoice, ReleaseChoice};
use rta_model::TaskSet;
use rta_taskgen::{group1, TaskSetGenerator};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

/// Task sets per sweep point of the measured population.
const SETS: usize = 50;
/// Timed samples per measurement; the median is reported.
const SAMPLES: usize = 5;
/// Core count of the measured panel (the Figure 2(a) platform).
const CORES: usize = 4;
/// Sets fed to the (simulation-heavy) validation-cell measurement.
const VALIDATE_SETS: usize = 40;

fn median_ns(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn measure<O>(mut routine: impl FnMut() -> O) -> f64 {
    black_box(routine());
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            black_box(routine());
            start.elapsed().as_secs_f64() * 1e9
        })
        .collect();
    median_ns(samples)
}

fn scale(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else {
        format!("{:.3} µs", ns / 1e3)
    }
}

fn configs(methods: &[Method]) -> Vec<AnalysisConfig> {
    methods
        .iter()
        .map(|&m| AnalysisConfig::new(CORES, m).with_scenario_space(ScenarioSpace::PaperExact))
        .collect()
}

fn main() {
    let bench_started = std::time::Instant::now();
    // The Figure 2(a) utilization grid population, generated once.
    let utilizations: Vec<f64> = (0..13).map(|i| 1.0 + 3.0 * f64::from(i) / 12.0).collect();
    let mut generator = TaskSetGenerator::new();
    let sets: Vec<TaskSet> = utilizations
        .iter()
        .enumerate()
        .flat_map(|(p, &u)| {
            let generator = &mut generator;
            (0..SETS)
                .map(move |s| {
                    let mut rng = SmallRng::seed_from_u64(set_seed(0xDA7E_2016, p, s));
                    generator.generate(&mut rng, &group1(u))
                })
                .collect::<Vec<_>>()
        })
        .collect();
    let total_sets = sets.len();

    let paper = configs(&Method::PAPER);
    let sound4 = configs(&[
        Method::FpIdeal,
        Method::LpIlp,
        Method::LpMax,
        Method::LpSound,
    ]);
    let all6 = configs(&Method::ALL);

    // Sanity before timing: the 6-method verdict path agrees with full
    // reports on every set (the dominance chain with LP-sound and the
    // competitor methods included).
    for ts in sets.iter().take(100) {
        let expected: Vec<bool> = analyze_all(ts, &all6)
            .iter()
            .map(|r| r.schedulable)
            .collect();
        assert_eq!(analyze_verdicts(ts, &all6), expected, "verdict path exact");
    }

    println!(
        "sound bench: m = {CORES}, 13 × {SETS} grid ({total_sets} sets), \
         median of {SAMPLES} samples"
    );

    let verdicts_paper3_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(analyze_verdicts(ts, &paper))))
    });
    let verdicts_sound4_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(analyze_verdicts(ts, &sound4))))
    });
    let verdicts_all6_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(analyze_verdicts(ts, &all6))))
    });
    let lp_sound_overhead_pct = 100.0 * (verdicts_sound4_ns / verdicts_paper3_ns - 1.0);
    let competitors_overhead_pct = 100.0 * (verdicts_all6_ns / verdicts_sound4_ns - 1.0);
    println!(
        "{:<52} {:>12}",
        "verdicts, paper 3 methods",
        scale(verdicts_paper3_ns)
    );
    println!(
        "{:<52} {:>12}   (+{lp_sound_overhead_pct:.1}%)",
        "verdicts, 4 methods (LP-sound added)",
        scale(verdicts_sound4_ns)
    );
    println!(
        "{:<52} {:>12}   (+{competitors_overhead_pct:.1}%)",
        "verdicts, all 6 methods (competitors added)",
        scale(verdicts_all6_ns)
    );

    // The blocking-heavy workload: every set's LP-ILP analysis. The
    // absolute median is the tracked point (the variable and JSON field
    // keep their historical name).
    let ilp = AnalysisConfig::new(CORES, Method::LpIlp);
    let lp_ilp_warm_scratch_ns = measure(|| {
        sets.iter()
            .for_each(|ts| drop(black_box(analyze(ts, &ilp))))
    });
    println!(
        "{:<52} {:>12}",
        "LP-ILP analysis",
        scale(lp_ilp_warm_scratch_ns)
    );

    // The validation cell: one policy vs all three per set.
    let validate_sets = &sets[..VALIDATE_SETS.min(total_sets)];
    let validate_eager_ns = measure(|| {
        validate_sets.iter().for_each(|ts| {
            black_box(validate_set(
                ts,
                CORES,
                3,
                PolicyChoice::Eager,
                ReleaseChoice::Sync,
            ));
        })
    });
    let validate_all_policies_ns = measure(|| {
        validate_sets.iter().for_each(|ts| {
            black_box(validate_set(
                ts,
                CORES,
                3,
                PolicyChoice::Both,
                ReleaseChoice::Sync,
            ));
        })
    });
    let policies_overhead = validate_all_policies_ns / validate_eager_ns;
    println!(
        "{:<52} {:>12}",
        "validation cell, eager policy only",
        scale(validate_eager_ns)
    );
    println!(
        "{:<52} {:>12}   ({policies_overhead:.2}x)",
        "validation cell, eager + lazy + fully preemptive",
        scale(validate_all_policies_ns)
    );

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"sound\",");
    let _ = writeln!(json, "  \"cores\": {CORES},");
    let _ = writeln!(json, "  \"sets_per_point\": {SETS},");
    let _ = writeln!(json, "  \"total_sets\": {total_sets},");
    let _ = writeln!(json, "  \"samples\": {SAMPLES},");
    let _ = writeln!(json, "  \"verdicts_paper3_ns\": {verdicts_paper3_ns:.0},");
    let _ = writeln!(json, "  \"verdicts_sound4_ns\": {verdicts_sound4_ns:.0},");
    let _ = writeln!(json, "  \"verdicts_all6_ns\": {verdicts_all6_ns:.0},");
    let _ = writeln!(
        json,
        "  \"lp_sound_overhead_pct\": {lp_sound_overhead_pct:.2},"
    );
    let _ = writeln!(
        json,
        "  \"competitors_overhead_pct\": {competitors_overhead_pct:.2},"
    );
    let _ = writeln!(
        json,
        "  \"lp_ilp_warm_scratch_ns\": {lp_ilp_warm_scratch_ns:.0},"
    );
    let _ = writeln!(json, "  \"validate_sets\": {},", validate_sets.len());
    let _ = writeln!(json, "  \"validate_eager_ns\": {validate_eager_ns:.0},");
    let _ = writeln!(
        json,
        "  \"validate_all_policies_ns\": {validate_all_policies_ns:.0},"
    );
    let _ = writeln!(
        json,
        "  \"validate_policies_overhead\": {policies_overhead:.3},"
    );
    let _ = writeln!(json, "{}", rta_bench::host_json_fields(1, bench_started));
    let _ = writeln!(json, "}}");

    let path = std::env::var("BENCH_JSON")
        .unwrap_or_else(|_| concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_5.json").to_string());
    std::fs::write(&path, &json).expect("write BENCH_5.json");
    println!("wrote {path}");
}
