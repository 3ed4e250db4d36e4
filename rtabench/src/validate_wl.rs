//! The `validate_m4_h10` workload: the validation campaign's cell run in
//! process on one thread — generate a set, analyze it with all six
//! methods, simulate it under every policy, check the soundness
//! invariants.

use crate::layers::{self, Samples};
use crate::report::Metric;
use crate::trace::{self, Tracer};
use crate::{metric, set_seed, Measured, TracedRun};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{AnalysisRequest, Method, ScenarioSpace};
use rta_experiments::validate::{validate_set, PolicyChoice, ReleaseChoice};
use rta_model::TaskSet;
use rta_sim::{PreemptionPolicy, SimRequest};
use rta_taskgen::{group1, TaskSetConfig, TaskSetGenerator};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const CORES: usize = 4;
const TARGET: f64 = 2.0;
const HORIZON_FACTOR: u64 = 10;
/// Sets validated in setup before the measured region.
const WARMUP_SETS: u64 = 1_000;
/// The traced run records at most this many sets, bounding span memory.
const TRACE_MAX_OPS: u64 = 5_000;

/// A set-up validation workload: the generator with its scratch, warm.
pub struct Setup {
    seed: u64,
    config: TaskSetConfig,
    generator: TaskSetGenerator,
    /// Index of the next measured set.
    next: u64,
}

impl Setup {
    /// Builds the generator and validates [`WARMUP_SETS`] sets (from a
    /// seed stream the measured region never draws from).
    pub fn new(seed: u64) -> Setup {
        let mut setup = Setup {
            seed,
            config: group1(TARGET),
            generator: TaskSetGenerator::new(),
            next: 0,
        };
        for i in 0..WARMUP_SETS {
            let ts = setup.generate(1, i);
            std::hint::black_box(validate(&ts));
        }
        setup
    }

    fn generate(&mut self, stream: u64, index: u64) -> TaskSet {
        let mut rng = SmallRng::seed_from_u64(set_seed(self.seed, stream, index));
        self.generator.generate(&mut rng, &self.config)
    }

    /// The measured region: validate generated sets for `seconds`; a set
    /// with any hard violation fails.
    pub fn measure(&mut self, seconds: f64) -> Measured {
        let mut measured = Measured::start();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        loop {
            let t0 = Instant::now();
            if t0 >= deadline {
                break;
            }
            let index = self.next;
            self.next += 1;
            let ts = self.generate(0, index);
            let violations = validate(&ts).hard_violations;
            let now = Instant::now();
            if violations > 0 {
                measured.failed += 1;
            } else {
                measured.record(now - t0);
            }
        }
        measured.finish(Instant::now())
    }

    /// The traced run: half the time untraced (overhead baseline and the
    /// fixed-point iteration counter), half tracing each set's generation
    /// and validation, then replaying its analysis and simulations
    /// through the public layer functions.
    pub fn traced(&mut self, seconds: f64) -> TracedRun {
        let iters = || rta_obs::snapshot().counter("analysis_fixed_point_iters_total");
        let iters_before = iters();
        let untraced = self.measure(seconds / 2.0);
        let fixed_point_iters = iters() - iters_before;

        let request = AnalysisRequest::new(CORES)
            .with_scenario_space(ScenarioSpace::Extended)
            .with_bounds(true);
        let ilp_only = request.clone().with_methods([Method::LpIlp]);
        let origin = Instant::now();
        let deadline = origin + Duration::from_secs_f64(seconds / 2.0);
        let mut t = Tracer::new(origin);
        let mut failed = untraced.failed;
        let mut traced = 0u64;
        let (mut events, mut runs) = (0u64, 0u64);
        while Instant::now() < deadline && traced < TRACE_MAX_OPS {
            let r = self.next;
            self.next += 1;
            traced += 1;
            let root = t.begin("set", None, r);
            let ts = t.span("taskgen.generate", Some(root), r, || self.generate(0, r));
            let check = t.span("validate.set", Some(root), r, || validate(&ts));
            failed += u64::from(check.hard_violations > 0);
            // Untimed: how far LP-ILP's fixed point reads the Δ tables.
            let prefix = layers::prefix_len(&ilp_only.evaluate(&ts), Method::LpIlp);
            let outcome = layers::analyze(&mut t, Some(root), r, &ts, &request, prefix);
            let horizon = HORIZON_FACTOR
                .saturating_mul(ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1));
            for policy in [
                PreemptionPolicy::LimitedPreemptive,
                PreemptionPolicy::LazyPreemptive,
                PreemptionPolicy::FullyPreemptive,
            ] {
                // `validate_set` skips a policy no accepted method speaks
                // about; so does the replay.
                let speaks = |m: Method| match m {
                    Method::LpIlp | Method::LpMax | Method::LpSound => {
                        policy != PreemptionPolicy::FullyPreemptive
                    }
                    Method::FpIdeal | Method::LongPaths | Method::GenSporadic => {
                        policy == PreemptionPolicy::FullyPreemptive
                    }
                };
                if !outcome
                    .outcomes()
                    .iter()
                    .any(|o| o.schedulable && speaks(o.method))
                {
                    continue;
                }
                let sim = t.span("sim.run", Some(root), r, || {
                    SimRequest::new(CORES, horizon.max(1))
                        .with_policy(policy)
                        .with_release(ReleaseChoice::Sync.release())
                        .evaluate(&ts)
                });
                events += sim.events_processed();
                runs += 1;
            }
            t.end(root);
        }
        let metrics = validate_layer_metrics(&t, &untraced, fixed_point_iters, events, runs);
        TracedRun {
            metrics,
            tracer: t,
            attempted: untraced.attempted() + traced,
            failed,
        }
    }
}

fn validate(ts: &TaskSet) -> rta_experiments::validate::SetValidation {
    validate_set(
        ts,
        CORES,
        HORIZON_FACTOR,
        PolicyChoice::default(),
        ReleaseChoice::Sync,
    )
}

fn validate_layer_metrics(
    t: &Tracer,
    untraced: &Measured,
    fixed_point_iters: u64,
    events: u64,
    runs: u64,
) -> BTreeMap<String, Metric> {
    let spans = t.spans();
    let selfs = trace::self_times(spans);
    let mut by_name: BTreeMap<&str, Samples> = BTreeMap::new();
    // Per set: (generate + validate wall, validate, replayed analysis, sims).
    let mut per_set: BTreeMap<u64, [u64; 4]> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        by_name.entry(s.name).or_default().push(self_ns);
        let row = per_set.entry(s.request).or_default();
        match s.name {
            "taskgen.generate" => row[0] += self_ns,
            "validate.set" => {
                row[0] += self_ns;
                row[1] += self_ns;
            }
            "sim.run" => row[3] += self_ns,
            "set" => {}
            _ => row[2] += self_ns, // the replayed analysis layers
        }
    }
    let mut wall = Samples::default();
    let mut check = Samples::default();
    let mut sim_per_set = Samples::default();
    for row in per_set.values() {
        wall.push(row[0]);
        check.push_signed(row[1] as i64 - row[2] as i64 - row[3] as i64);
        sim_per_set.push(row[3]);
    }
    let get = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let sets = per_set.len() as u64;
    let mut m = layers::analysis_metrics(
        &by_name,
        wall.sum(),
        fixed_point_iters,
        untraced.latencies.len(),
    );
    let generate = get("taskgen.generate");
    m.insert(
        "taskgen.generate_us_per_set".into(),
        metric(generate.mean_us(), "us", Some(generate.len())),
    );
    let set = get("validate.set");
    m.insert(
        "validate.set_us_p50".into(),
        metric(set.p50_us(), "us", Some(set.len())),
    );
    m.insert(
        "validate.check_us_per_set".into(),
        metric(check.mean_us(), "us", Some(check.len())),
    );
    let sim = get("sim.run");
    m.insert(
        "sim.run_us_p50".into(),
        metric(sim.p50_us(), "us", Some(sim.len())),
    );
    m.insert(
        "sim.events_per_run".into(),
        metric(events as f64 / runs.max(1) as f64, "count", Some(runs)),
    );
    m.insert(
        "sim.ns_per_event".into(),
        metric(sim.sum() as f64 / events.max(1) as f64, "ns", Some(events)),
    );
    m.insert(
        "sim.share_of_set_pct".into(),
        metric(
            100.0 * sim_per_set.sum() as f64 / (set.sum() as f64).max(1.0),
            "%",
            Some(sets),
        ),
    );
    m.insert("latency_p99_us".into(), untraced.p99());
    m.insert("model.json.frame_bytes".into(), metric(0.0, "bytes", None));
    m.insert(
        "trace.overhead_pct".into(),
        metric(
            (wall.p50_us() / untraced.p50_us() - 1.0) * 100.0,
            "%",
            Some(wall.len()),
        ),
    );
    m
}
