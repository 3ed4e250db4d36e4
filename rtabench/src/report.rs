//! The metric catalogue and the result schema: one JSON file per run with
//! a provenance block, plus the one-line summary the benchmark prints last.

use crate::stats::Better;
use rta_model::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Version of the result-file layout.
pub const SCHEMA: u64 = 1;

/// An end-to-end metric: what a user of the system sees, with the share of
/// the parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    /// Metric name, as printed.
    pub name: &'static str,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Which direction is better.
    pub better: Better,
    /// Allowed worsening, as a share of the parent's median.
    pub bound: f64,
}

/// Every end-to-end metric, reported by every workload's untraced run.
/// The time-based bounds are the widest allowed because the reference host
/// (2 shared vCPUs) drifts by up to a third in speed over a quarter hour of
/// back-to-back runs, even on the single-threaded workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Per-layer metrics every workload's traced run reports on the summary
/// line: `(name, unit, better)`. Times here are measured on every workload;
/// layers only some workloads reach report times in the result file and
/// the printed table instead (see `rtabench/README.md`). The tail latency
/// is here rather than end-to-end: it does not repeat within a tenth
/// between runs on the reference host.
pub const PER_LAYER: [(&str, &str, Better); 11] = [
    ("latency_p99_us", "us", Better::Lower),
    ("taskgen.generate_us_per_set", "us", Better::Lower),
    ("core.cache.mu_us_per_set", "us", Better::Lower),
    ("core.blocking.delta_us_per_set", "us", Better::Lower),
    (
        "core.blocking.delta_share_of_analysis_pct",
        "%",
        Better::Lower,
    ),
    ("core.rta.fixpoint_us_per_set", "us", Better::Lower),
    ("core.rta.iterations_per_set", "count", Better::Lower),
    ("model.json.frame_bytes", "bytes", Better::Lower),
    ("sim.events_per_run", "count", Better::Lower),
    ("error_rate", "ratio", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
];

/// One measured value.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// Samples behind a percentile or mean, when it has any.
    pub samples: Option<u64>,
}

/// Where and how a result was produced — what makes numbers from two runs
/// comparable, or shows why they are not.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// `rta_obs::host_info().available_parallelism`.
    pub host_parallelism: u64,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc -V`.
    pub rustc: String,
    /// The checkout's git revision, `unknown` outside a git checkout.
    pub git_rev: String,
    /// `release` or `debug`.
    pub profile: String,
}

/// One run of one workload.
#[derive(Clone, Debug, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds requested.
    pub seconds: u64,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Where the run happened.
    pub provenance: Provenance,
    /// Every answer passed the correctness gate.
    pub correct: bool,
    /// Operations attempted in the measured region.
    pub attempted: u64,
    /// Operations that failed or disagreed with the reference.
    pub failed: u64,
    /// Every metric of the run, by name.
    pub metrics: BTreeMap<String, Metric>,
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in its shortest round-trip spelling (non-finite values
/// would not be JSON; they never come out of a measurement, so they are
/// written as 0 rather than breaking the file).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_json(metrics: &BTreeMap<String, Metric>, with_samples: bool) -> String {
    let mut out = String::from("{");
    for (i, (name, m)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"value\":{},\"unit\":{}",
            quote(name),
            number(m.value),
            quote(&m.unit)
        );
        if let (true, Some(n)) = (with_samples, m.samples) {
            let _ = write!(out, ",\"samples\":{n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

impl RunResult {
    /// The result file: every field, provenance and sample counts included.
    pub fn to_json(&self) -> String {
        let p = &self.provenance;
        format!(
            "{{\"schema\":{SCHEMA},\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
             \"provenance\":{{\"host_parallelism\":{},\"cpu_model\":{},\"rustc\":{},\
             \"git_rev\":{},\"profile\":{}}},\"correct\":{},\"attempted\":{},\"failed\":{},\
             \"metrics\":{}}}",
            quote(&self.workload),
            self.seed,
            self.seconds,
            self.trace,
            p.host_parallelism,
            quote(&p.cpu_model),
            quote(&p.rustc),
            quote(&p.git_rev),
            quote(&p.profile),
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&self.metrics, true)
        )
    }

    /// The summary line: exactly `correct`, `attempted`, `failed` and the
    /// `metrics` named by `names`, each as `{"value", "unit"}`.
    pub fn summary_line(&self, names: &[&str]) -> String {
        let picked: BTreeMap<String, Metric> = names
            .iter()
            .map(|&n| {
                let m = self
                    .metrics
                    .get(n)
                    .unwrap_or_else(|| panic!("workload did not measure {n}"));
                (n.to_string(), m.clone())
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(&picked, false)
        )
    }

    /// Reads a result file back.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(Value::as_u64) != Some(SCHEMA) {
            return Err(format!("not a schema-{SCHEMA} result file"));
        }
        let str_of = |v: &Value, key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string {key:?}"))
        };
        let u64_of = |v: &Value, key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing integer {key:?}"))
        };
        let bool_of = |v: &Value, key: &str| -> Result<bool, String> {
            v.get(key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("missing boolean {key:?}"))
        };
        let p = doc.get("provenance").ok_or("missing provenance")?;
        let Some(Value::Object(raw)) = doc.get("metrics") else {
            return Err("missing metrics".into());
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in raw {
            let value = match m.get("value") {
                Some(Value::UInt(v)) => *v as f64,
                Some(Value::Float(v)) => *v,
                _ => return Err(format!("metric {name:?} has no numeric value")),
            };
            metrics.insert(
                name.clone(),
                Metric {
                    value,
                    unit: str_of(m, "unit")?,
                    samples: m.get("samples").and_then(Value::as_u64),
                },
            );
        }
        Ok(RunResult {
            workload: str_of(&doc, "workload")?,
            seed: u64_of(&doc, "seed")?,
            seconds: u64_of(&doc, "seconds")?,
            trace: bool_of(&doc, "trace")?,
            provenance: Provenance {
                host_parallelism: u64_of(p, "host_parallelism")?,
                cpu_model: str_of(p, "cpu_model")?,
                rustc: str_of(p, "rustc")?,
                git_rev: str_of(p, "git_rev")?,
                profile: str_of(p, "profile")?,
            },
            correct: bool_of(&doc, "correct")?,
            attempted: u64_of(&doc, "attempted")?,
            failed: u64_of(&doc, "failed")?,
            metrics,
        })
    }

    /// The human-readable table printed above the summary line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let p = &self.provenance;
        let _ = writeln!(
            out,
            "# {} seed={} seconds={} trace={} | host_parallelism={} cpu={:?} {} rev={} profile={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            p.host_parallelism,
            p.cpu_model,
            p.rustc,
            p.git_rev,
            p.profile
        );
        for (name, m) in &self.metrics {
            let samples = m.samples.map(|n| format!("  (n={n})")).unwrap_or_default();
            let _ = writeln!(out, "  {name:<34} {:>16.3} {}{samples}", m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunResult {
        let mut metrics = BTreeMap::new();
        metrics.insert(
            "latency_p50_us".into(),
            Metric {
                value: 28.431,
                unit: "us".into(),
                samples: Some(123_456),
            },
        );
        metrics.insert(
            "ops_per_s".into(),
            Metric {
                value: 45_012.75,
                unit: "ops/s".into(),
                samples: None,
            },
        );
        metrics.insert(
            "setup_s".into(),
            Metric {
                value: 3.0,
                unit: "s".into(),
                samples: Some(3),
            },
        );
        RunResult {
            workload: "serve_cold_m16_bounds".into(),
            seed: 7,
            seconds: 20,
            trace: false,
            provenance: Provenance {
                host_parallelism: 2,
                cpu_model: "Some \"quoted\" CPU @ 2.0GHz".into(),
                rustc: "rustc 1.95.0".into(),
                git_rev: "unknown".into(),
                profile: "release".into(),
            },
            correct: true,
            attempted: 900_000,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn result_file_round_trips() {
        let r = sample();
        let text = r.to_json();
        assert_eq!(RunResult::from_json(&text).expect("parses"), r);
    }

    #[test]
    fn summary_line_has_exactly_four_keys() {
        let r = sample();
        let line = r.summary_line(&["latency_p50_us", "ops_per_s"]);
        let doc = json::parse(&line).expect("valid JSON");
        let Value::Object(top) = &doc else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let Some(Value::Object(metrics)) = doc.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), 2);
        let p50 = &metrics["latency_p50_us"];
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("us"));
        assert!(p50.get("samples").is_none());
        let Value::Object(fields) = p50 else { panic!() };
        assert_eq!(fields.len(), 2);
    }

    #[test]
    fn rejects_foreign_files() {
        assert!(RunResult::from_json("{\"schema\":99}").is_err());
        assert!(RunResult::from_json("not json").is_err());
    }
}
