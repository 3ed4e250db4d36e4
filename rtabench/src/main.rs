//! The repository's benchmark: named workloads over the serve, analysis
//! and simulation layers, end-to-end metrics from an untraced run and
//! per-layer attribution from a traced one. See `README.md` beside this
//! package for the workloads, the metrics and how to run it.
//!
//! ```text
//! rtabench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! rtabench repeat [--runs N] [--seconds S] [--seed N] [--out DIR]
//! rtabench compare PARENT_DIR CHANGE_DIR
//! ```

mod layers;
mod provenance;
mod report;
mod serve_wl;
mod stats;
mod trace;
mod validate_wl;

use report::{Metric, RunResult, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

/// The workloads, in the order `repeat` runs them.
pub const WORKLOADS: [&str; 2] = ["serve_cold_m16_bounds", "validate_m4_h10"];

/// Set-ups per run: at least [`MIN_SETUPS`], then more while all of them
/// together took less than [`SETUP_BUDGET`], up to [`MAX_SETUPS`];
/// `setup_s` is their median. A set-up of a fraction of a second is noisy
/// on a shared host, and its median steadies with more of them.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET: Duration = Duration::from_secs(3);

/// Where results go unless `--out` says otherwise (relative to the
/// directory the benchmark runs from).
const DEFAULT_OUT: &str = ".bench_results";

/// Requests whose spans a traced run writes to its spans file.
const SPAN_FILE_REQUESTS: usize = 1_000;

const USAGE: &str = "usage:
  rtabench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
  rtabench repeat [--runs N] [--seconds S] [--seed N] [--out DIR]
  rtabench compare PARENT_DIR CHANGE_DIR
workloads: serve_cold_m16_bounds, validate_m4_h10";

/// A per-set seed: SplitMix64 over `(seed, stream, index)`, so the
/// workloads' independent input streams never share a set.
pub fn set_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A metric value.
pub fn metric(value: f64, unit: &str, samples: Option<u64>) -> Metric {
    Metric {
        value,
        unit: unit.into(),
        samples,
    }
}

/// What one measured region produced. Its figures are those of the whole
/// region: on a shared host, a run's median over all of its operations
/// repeated better between runs than the figures of its fastest stretch.
#[derive(Debug)]
pub struct Measured {
    /// Latency of every verified operation.
    pub latencies: stats::LatencyHistogram,
    /// Operations that failed or disagreed with the reference.
    pub failed: u64,
    /// Verified operations the server answered from its cache.
    pub hits: u64,
    /// Wall time of the region.
    pub elapsed: Duration,
    /// Process CPU time of the region, in milliseconds.
    pub cpu_ms: u64,
    started: Instant,
    cpu_started_ms: u64,
}

impl Measured {
    /// Starts a measured region now.
    pub fn start() -> Measured {
        Measured {
            latencies: stats::LatencyHistogram::default(),
            failed: 0,
            hits: 0,
            elapsed: Duration::ZERO,
            cpu_ms: 0,
            started: Instant::now(),
            cpu_started_ms: cpu_ms(),
        }
    }

    /// Records one verified operation.
    pub fn record(&mut self, latency: Duration) {
        self.latencies.record(latency.as_nanos() as u64);
    }

    /// Ends the region at `now`.
    pub fn finish(mut self, now: Instant) -> Measured {
        self.elapsed = now - self.started;
        self.cpu_ms = cpu_ms().saturating_sub(self.cpu_started_ms);
        self
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.latencies.len() + self.failed
    }

    /// Verified operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.elapsed.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Median latency in microseconds (0 without samples).
    pub fn p50_us(&self) -> f64 {
        self.latencies.percentile_us(50.0)
    }

    /// Process CPU time per verified operation, in microseconds.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_ms as f64 * 1e3 / self.latencies.len().max(1) as f64
    }

    /// The 99th-percentile latency metric, with its sample count.
    pub fn p99(&self) -> Metric {
        metric(
            self.latencies.percentile_us(99.0),
            "us",
            Some(self.latencies.len()),
        )
    }
}

/// What a traced run produced.
pub struct TracedRun {
    /// Per-layer metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Every span recorded.
    pub tracer: trace::Tracer,
    /// Operations attempted, both halves.
    pub attempted: u64,
    /// Operations failed, both halves.
    pub failed: u64,
}

/// A set-up workload, ready to measure.
enum Active {
    Serve(Box<serve_wl::Setup>),
    Validate(Box<validate_wl::Setup>),
}

impl Active {
    fn new(workload: &str, seed: u64) -> Result<Active, String> {
        match workload {
            "serve_cold_m16_bounds" => serve_wl::Setup::new(serve_wl::COLD_M16_BOUNDS, seed)
                .map(|s| Active::Serve(Box::new(s)))
                .map_err(|e| format!("set-up failed: {e}")),
            "validate_m4_h10" => Ok(Active::Validate(Box::new(validate_wl::Setup::new(seed)))),
            other => Err(format!("unknown workload {other:?}")),
        }
    }

    fn finish(self) {
        if let Active::Serve(s) = self {
            s.finish();
        }
    }
}

/// `VmHWM` of this process in MB (10⁶ bytes).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

fn cpu_ms() -> u64 {
    rta_obs::host_info().cpu_time_ms.unwrap_or(0)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

/// One run of one workload: set up several times, then measure.
fn run(args: &RunArgs) -> Result<RunResult, String> {
    let provenance = provenance::collect();
    let mut setup_times = Vec::with_capacity(MAX_SETUPS);
    let mut active: Option<Active> = None;
    while setup_times.len() < MIN_SETUPS
        || (setup_times.len() < MAX_SETUPS
            && setup_times.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
    {
        if let Some(previous) = active.take() {
            previous.finish();
        }
        let started = Instant::now();
        active = Some(Active::new(&args.workload, args.seed)?);
        setup_times.push(started.elapsed().as_secs_f64());
    }
    let mut active = active.expect("at least one set-up");
    let seconds = args.seconds as f64;
    let mut metrics = BTreeMap::new();
    let (attempted, failed) = if args.trace {
        let traced = match &mut active {
            Active::Serve(s) => s
                .traced(seconds)
                .map_err(|e| format!("traced run failed: {e}"))?,
            Active::Validate(v) => v.traced(seconds),
        };
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let spans = args
            .out
            .join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        std::fs::write(&spans, traced.tracer.to_jsonl(SPAN_FILE_REQUESTS))
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        metrics = traced.metrics;
        (traced.attempted, traced.failed)
    } else {
        let measured = match &mut active {
            Active::Serve(s) => s.measure(seconds),
            Active::Validate(v) => v.measure(seconds),
        };
        let ops = measured.latencies.len();
        let values = [
            (measured.ops_per_s(), Some(ops)),
            (measured.p50_us(), Some(ops)),
            (measured.cpu_us_per_op(), Some(ops)),
            (peak_rss_mb(), None),
            (stats::median(&setup_times), Some(setup_times.len() as u64)),
        ];
        for (m, (value, samples)) in END_TO_END.iter().zip(values) {
            metrics.insert(m.name.into(), metric(value, m.unit, samples));
        }
        metrics.insert("latency_p99_us".into(), measured.p99());
        // The highest percentile with ten samples beyond it, for the record.
        if let Some(tail) = stats::tail_percentile(ops as usize) {
            metrics.insert("latency_tail_pct".into(), metric(tail, "%", Some(ops)));
            metrics.insert(
                "latency_tail_us".into(),
                metric(measured.latencies.percentile_us(tail), "us", Some(ops)),
            );
        }
        (measured.attempted(), measured.failed)
    };
    active.finish();
    metrics.insert(
        "error_rate".into(),
        metric(
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            Some(attempted),
        ),
    );
    Ok(RunResult {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        provenance,
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
    })
}

fn result_path(out: &Path, workload: &str, seed: u64, trace: bool) -> PathBuf {
    out.join(format!(
        "{workload}-seed{seed}-trace{}.json",
        u8::from(trace)
    ))
}

/// Parses `--key value` pairs.
fn flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut map = BTreeMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {key:?}"))?;
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        map.insert(name.to_string(), value.clone());
    }
    Ok(map)
}

fn number(map: &BTreeMap<String, String>, key: &str, default: Option<u64>) -> Result<u64, String> {
    match map.get(key) {
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{key} must be a whole number")),
        None => default.ok_or_else(|| format!("--{key} is required")),
    }
}

fn trace_flag(map: &BTreeMap<String, String>) -> Result<bool, String> {
    match map.get("trace").map(String::as_str) {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace must be 0 or 1, not {other:?}")),
    }
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let map = flags(args)?;
    for key in map.keys() {
        if !["workload", "seed", "seconds", "trace", "out"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    let run_args = RunArgs {
        workload: map.get("workload").ok_or("--workload is required")?.clone(),
        seed: number(&map, "seed", None)?,
        seconds: number(&map, "seconds", None)?.max(1),
        trace: trace_flag(&map)?,
        out: map
            .get("out")
            .map_or(PathBuf::from(DEFAULT_OUT), PathBuf::from),
    };
    if !WORKLOADS.contains(&run_args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", run_args.workload));
    }
    let result = run(&run_args)?;
    std::fs::create_dir_all(&run_args.out).map_err(|e| e.to_string())?;
    let path = result_path(&run_args.out, &result.workload, result.seed, result.trace);
    std::fs::write(&path, result.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    let names: Vec<&str> = if run_args.trace {
        PER_LAYER.iter().map(|&(n, _, _)| n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    print!("{}", result.render_table());
    println!("{}", result.summary_line(&names));
    Ok(result.correct)
}

/// The workloads' default seed: `repeat` runs every workload on it, so
/// the spread it prints is the host's and not the inputs'.
const DEFAULT_SEED: u64 = 1;

/// Runs every workload untraced `runs` times, each run in a fresh process
/// and on one seed, and prints each metric's median and quartiles. Run
/// `r` writes its results to `OUT/run<r>/`.
fn cmd_repeat(args: &[String]) -> Result<bool, String> {
    let map = flags(args)?;
    for key in map.keys() {
        if !["runs", "seconds", "seed", "out"].contains(&key.as_str()) {
            return Err(format!("unknown flag --{key}"));
        }
    }
    let runs = number(&map, "runs", Some(10))?;
    let seconds = number(&map, "seconds", Some(30))?;
    let seed = number(&map, "seed", Some(DEFAULT_SEED))?;
    let out = map
        .get("out")
        .map_or(PathBuf::from(DEFAULT_OUT), PathBuf::from);
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_correct = true;
    let mut results: BTreeMap<&str, Vec<RunResult>> = BTreeMap::new();
    for r in 0..runs {
        let dir = out.join(format!("run{r}"));
        for workload in WORKLOADS {
            eprintln!("run {}/{runs}: {workload} seed {seed}", r + 1);
            let path = result_path(&dir, workload, seed, false);
            // A stale file from an earlier run must not stand in for this one.
            let _ = std::fs::remove_file(&path);
            // `output` waits for the child to exit.
            let child = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .arg("--out")
                .arg(&dir)
                .output()
                .map_err(|e| format!("could not start a run: {e}"))?;
            if !child.status.success() {
                all_correct = false;
                eprintln!(
                    "{workload} run {r} failed: {}",
                    String::from_utf8_lossy(&child.stderr)
                );
            }
            if let Ok(text) = std::fs::read_to_string(&path) {
                results
                    .entry(workload)
                    .or_default()
                    .push(RunResult::from_json(&text)?);
            }
        }
    }
    for (workload, runs) in &results {
        println!("{workload} ({} runs)", runs.len());
        println!(
            "  {:<34} {:>14} {:>14} {:>14} {:>8}",
            "metric", "q1", "median", "q3", "spread"
        );
        for name in runs[0].metrics.keys() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(name))
                .map(|m| m.value)
                .collect();
            let (q1, med, q3) = stats::quartiles(&values);
            let bound = END_TO_END.iter().find(|m| m.name == name).map(|m| m.bound);
            let flag = match bound {
                Some(b) if stats::relative_spread(&values) >= b / 3.0 => "  > bound/3",
                _ => "",
            };
            println!(
                "  {name:<34} {q1:>14.3} {med:>14.3} {q3:>14.3} {:>7.2}%{flag}",
                100.0 * stats::relative_spread(&values)
            );
        }
    }
    Ok(all_correct)
}

/// The untraced results under `dir`, by workload and run index (the
/// `run<r>` directories `repeat` writes).
fn load_dir(dir: &Path) -> Result<BTreeMap<String, BTreeMap<u64, RunResult>>, String> {
    let mut by_workload: BTreeMap<String, BTreeMap<u64, RunResult>> = BTreeMap::new();
    let runs = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for run in runs {
        let run = run.map_err(|e| e.to_string())?.path();
        let Some(index) = run
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.strip_prefix("run"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        let entries = std::fs::read_dir(&run).map_err(|e| format!("{}: {e}", run.display()))?;
        for entry in entries {
            let path = entry.map_err(|e| e.to_string())?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("json") {
                continue;
            }
            let text = std::fs::read_to_string(&path).map_err(|e| e.to_string())?;
            let result =
                RunResult::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            if !result.trace {
                by_workload
                    .entry(result.workload.clone())
                    .or_default()
                    .insert(index, result);
            }
        }
    }
    Ok(by_workload)
}

/// Compares two `repeat` result sets (parent, change), pairing runs by
/// index, one row per workload.
fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [parent_dir, change_dir] = args else {
        return Err("compare needs PARENT_DIR and CHANGE_DIR".into());
    };
    let parent = load_dir(Path::new(parent_dir))?;
    let change = load_dir(Path::new(change_dir))?;
    let mut regressions = false;
    for (workload, parent_runs) in &parent {
        let Some(change_runs) = change.get(workload) else {
            println!("{workload}: no runs in {change_dir}");
            continue;
        };
        let pairs: Vec<u64> = parent_runs
            .keys()
            .filter(|r| change_runs.contains_key(r))
            .copied()
            .collect();
        if pairs.is_empty() {
            println!("{workload}: no run index on both sides");
            continue;
        }
        let (p0, c0) = (
            &parent_runs[&pairs[0]].provenance,
            &change_runs[&pairs[0]].provenance,
        );
        if (p0.host_parallelism, &p0.cpu_model, &p0.rustc, &p0.profile)
            != (c0.host_parallelism, &c0.cpu_model, &c0.rustc, &c0.profile)
        {
            println!("{workload}: warning: the two sides ran on different hosts or toolchains");
        }
        let mut row = format!("{workload} (pairs={})", pairs.len());
        for m in &END_TO_END {
            let side = |runs: &BTreeMap<u64, RunResult>| -> Vec<f64> {
                pairs
                    .iter()
                    .filter_map(|r| runs[r].metrics.get(m.name))
                    .map(|x| x.value)
                    .collect()
            };
            let (p, c) = (side(parent_runs), side(change_runs));
            if p.len() != pairs.len() || c.len() != pairs.len() {
                row.push_str(&format!("  {}=missing", m.name));
                continue;
            }
            let verdict = stats::compare(&p, &c, m.better, m.bound);
            regressions |= verdict == stats::Verdict::Regression;
            let (pm, cm) = (stats::median(&p), stats::median(&c));
            row.push_str(&format!(
                "  {}={}({:+.1}%)",
                m.name,
                verdict.label(),
                100.0 * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE)
            ));
        }
        println!("{row}");
    }
    Ok(!regressions)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("repeat") => cmd_repeat(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("-h" | "--help") | None => Err(USAGE.to_string()),
        Some(_) => cmd_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let doc = rta_model::json::parse(&text).expect("valid JSON");
        let list = |key: &str| -> Vec<rta_model::json::Value> {
            doc.get(key).and_then(|v| v.as_array()).expect(key).to_vec()
        };
        let field = |v: &rta_model::json::Value, k: &str| -> String {
            v.get(k).and_then(|x| x.as_str()).expect(k).to_string()
        };
        let e2e = list("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (json, m) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(json, "name"), m.name);
            assert_eq!(field(json, "unit"), m.unit);
            assert_eq!(field(json, "better"), m.better.label());
            let bound = match json.get("bound") {
                Some(rta_model::json::Value::Float(b)) => *b,
                other => panic!("bound of {} is {other:?}", m.name),
            };
            assert_eq!(bound, m.bound, "{}", m.name);
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (json, (name, unit, better)) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(field(json, "name"), *name);
            assert_eq!(field(json, "unit"), *unit);
            assert_eq!(field(json, "better"), better.label());
        }
        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn figures_cover_the_whole_region() {
        let mut m = Measured::start();
        let t0 = m.started;
        for ms in [10, 30, 20] {
            m.record(Duration::from_millis(ms));
        }
        m.failed += 1;
        let m = m.finish(t0 + Duration::from_secs(2));
        assert_eq!(m.attempted(), 4);
        assert_eq!(m.ops_per_s(), 1.5);
        assert!((m.p50_us() - 20_000.0).abs() < 20.0, "{}", m.p50_us());
    }

    #[test]
    fn seeds_differ_across_streams_and_indices() {
        let mut seen = std::collections::BTreeSet::new();
        for stream in 0..3 {
            for index in 0..1000 {
                assert!(seen.insert(set_seed(7, stream, index)));
            }
        }
        assert_ne!(set_seed(1, 0, 0), set_seed(2, 0, 0));
    }
}
