//! The analysis layers replayed from outside under spans — the same
//! public calls every workload's traced run makes for an analyzed set —
//! and the sample sets their self times are summarized from.

use crate::metric;
use crate::report::Metric;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use rta_analysis::{AnalysisOutcome, AnalysisRequest, Method, TaskSetCache};
use rta_model::TaskSet;
use std::collections::BTreeMap;

/// How many tasks `method` analyzed (its bounds cover the prefix up to and
/// including the first unschedulable task); 0 without bounds.
pub fn prefix_len(outcome: &AnalysisOutcome, method: Method) -> usize {
    outcome
        .outcome(method)
        .and_then(|o| o.bounds.as_ref())
        .map_or(0, Vec::len)
}

/// Evaluates `request` on `ts` the way a cold evaluation does, one layer
/// per span: cache construction, the µ-arrays, the Δ blocking terms of the
/// first `ilp_prefix` tasks (those LP-ILP's fixed point reads), and the
/// fixed points on the warmed cache.
pub fn analyze(
    t: &mut Tracer,
    parent: Option<SpanId>,
    r: u64,
    ts: &TaskSet,
    request: &AnalysisRequest,
    ilp_prefix: usize,
) -> AnalysisOutcome {
    let cache = t.span("core.cache.new", parent, r, || {
        TaskSetCache::new(ts, request.cores)
    });
    if ilp_prefix > 0 {
        // Δ_k reads the µ-arrays of every lower-priority task, so the
        // prefix's blocking terms need tasks 1.. between them.
        t.span("core.cache.mu", parent, r, || {
            for i in 1..ts.len() {
                std::hint::black_box(cache.mu(i, request.mu_solver));
            }
        });
        t.span("core.blocking.delta", parent, r, || {
            for k in 0..ilp_prefix {
                std::hint::black_box(cache.lp_ilp_blocking(
                    k,
                    request.cores,
                    request.mu_solver,
                    request.rho_solver,
                    request.scenario_space,
                ));
            }
        });
    }
    t.span("core.rta.fixpoint", parent, r, || {
        request.evaluate_with(&cache)
    })
}

/// Nanosecond samples of one quantity (signed: a remainder can be < 0).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<i64>);

impl Samples {
    /// Adds a duration.
    pub fn push(&mut self, ns: u64) {
        self.0.push(i64::try_from(ns).unwrap_or(i64::MAX));
    }

    /// Adds a signed remainder.
    pub fn push_signed(&mut self, ns: i64) {
        self.0.push(ns);
    }

    /// Sample count.
    pub fn len(&self) -> u64 {
        self.0.len() as u64
    }

    /// Sum, in nanoseconds.
    pub fn sum(&self) -> i64 {
        self.0.iter().sum()
    }

    fn quantile_us(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        // Shift into u64 so the shared nearest-rank rule applies.
        let mut v: Vec<u64> = self.0.iter().map(|&x| (x as u64) ^ (1 << 63)).collect();
        v.sort_unstable();
        (stats::percentile(&v, p) ^ (1 << 63)) as i64 as f64 / 1e3
    }

    /// Median, in microseconds (0 without samples).
    pub fn p50_us(&self) -> f64 {
        self.quantile_us(50.0)
    }

    /// 99th percentile, in microseconds (0 without samples).
    pub fn p99_us(&self) -> f64 {
        self.quantile_us(99.0)
    }

    /// Mean, in microseconds (0 without samples).
    pub fn mean_us(&self) -> f64 {
        self.sum() as f64 / 1e3 / self.len().max(1) as f64
    }
}

/// The analysis-layer metrics shared by every workload, from the self
/// times of the spans [`analyze`] records: per analyzed set (one
/// `core.cache.new` span each), Δ's share of the in-process time of the
/// traced operations (`op_ns`) and of the analysis alone, plus the
/// fixed-point iteration count the program itself recorded over
/// `counted_sets` analyzed sets.
pub fn analysis_metrics(
    by_name: &BTreeMap<&str, Samples>,
    op_ns: i64,
    fixed_point_iters: u64,
    counted_sets: u64,
) -> BTreeMap<String, Metric> {
    let sum_ns = |name: &str| by_name.get(name).map_or(0, Samples::sum) as f64;
    let sets = by_name.get("core.cache.new").map_or(0, Samples::len);
    let per_set = |name: &str| sum_ns(name) / 1e3 / sets.max(1) as f64;
    let mut m = BTreeMap::new();
    for (key, name) in [
        ("core.cache.new_us_per_set", "core.cache.new"),
        ("core.cache.mu_us_per_set", "core.cache.mu"),
        ("core.blocking.delta_us_per_set", "core.blocking.delta"),
        ("core.rta.fixpoint_us_per_set", "core.rta.fixpoint"),
    ] {
        m.insert(key.to_string(), metric(per_set(name), "us", Some(sets)));
    }
    let delta = sum_ns("core.blocking.delta");
    let analysis: f64 = [
        "core.cache.new",
        "core.cache.mu",
        "core.blocking.delta",
        "core.rta.fixpoint",
    ]
    .iter()
    .map(|n| sum_ns(n))
    .sum();
    m.insert(
        "core.blocking.delta_share_pct".into(),
        metric(100.0 * delta / (op_ns as f64).max(1.0), "%", Some(sets)),
    );
    m.insert(
        "core.blocking.delta_share_of_analysis_pct".into(),
        metric(100.0 * delta / analysis.max(1.0), "%", Some(sets)),
    );
    m.insert(
        "core.rta.iterations_per_set".into(),
        metric(
            fixed_point_iters as f64 / counted_sets.max(1) as f64,
            "count",
            Some(counted_sets),
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::examples::figure1_task_set;
    use std::time::Instant;

    #[test]
    fn signed_samples_keep_their_order() {
        let mut s = Samples::default();
        for v in [-3_000, 5_000, -1_000, 2_000, 4_000] {
            s.push_signed(v);
        }
        assert_eq!(s.p50_us(), 2.0);
        assert_eq!(s.p99_us(), 5.0);
        assert_eq!(s.mean_us(), 1.4);
    }

    #[test]
    fn the_layered_replay_answers_like_a_plain_evaluation() {
        let ts = figure1_task_set();
        let request = AnalysisRequest::new(4).with_bounds(true);
        let plain = request.evaluate(&ts);
        let mut t = Tracer::new(Instant::now());
        let replayed = analyze(
            &mut t,
            None,
            0,
            &ts,
            &request,
            prefix_len(&plain, Method::LpIlp),
        );
        assert_eq!(plain, replayed);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "core.cache.new",
                "core.cache.mu",
                "core.blocking.delta",
                "core.rta.fixpoint"
            ]
        );
    }
}
