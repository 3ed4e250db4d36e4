//! The `serve_cold_m16_bounds` workload: a closed-loop client against an
//! in-process `repro serve` instance, replaying a frame ring rendered in
//! setup.

use crate::layers::{self, Samples};
use crate::report::Metric;
use crate::trace::{self, Tracer};
use crate::{metric, set_seed, Measured, TracedRun};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{AnalysisLru, AnalysisRequest, Method};
use rta_experiments::serve::{self, ServeOptions, ServerHandle, DEFAULT_LRU_CAPACITY};
use rta_model::json::{self, task_set_to_json_compact, Value};
use rta_model::TaskSet;
use rta_taskgen::{group1, TaskSetGenerator};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// A client waits at most this long for a reply before counting the frame
/// as failed (the server's own frame budget is 10 s).
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// The traced run records at most this many frames, bounding span memory.
const TRACE_MAX_OPS: usize = 5_000;

/// Shape of the serve workload: a ring of distinct sets sent in turn,
/// every frame asking for per-task bounds.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Platform size in every frame.
    pub cores: usize,
    /// `group1` target utilization of every generated set.
    pub target: f64,
    /// Distinct sets in the ring, each sent once per ring cycle.
    pub sets: usize,
    /// Frames sent during setup before the measured region.
    pub warmup: usize,
}

/// m = 16 with bounds; every frame is one of 512 distinct sets — four
/// times the LRU, so each frame misses and its store evicts. Set costs
/// vary little around their median, so 512 sets pin it down.
pub const COLD_M16_BOUNDS: Spec = Spec {
    cores: 16,
    target: 8.0,
    sets: 512,
    warmup: 16,
};

/// Pre-rendered inputs: the distinct sets and their frames, sent in order
/// and over again.
pub struct Ring {
    /// Distinct task sets, in send order.
    pub sets: Vec<TaskSet>,
    /// One request frame per set, newline-terminated.
    pub frames: Vec<String>,
    /// Mean wall time of generating one set.
    pub generate_us_per_set: f64,
}

impl Ring {
    /// Generates and renders the ring of `spec` for `seed`.
    pub fn render(spec: &Spec, seed: u64) -> Ring {
        let config = group1(spec.target);
        let mut generator = TaskSetGenerator::new();
        let started = Instant::now();
        let sets: Vec<TaskSet> = (0..spec.sets)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(set_seed(seed, 1, i as u64));
                generator.generate(&mut rng, &config)
            })
            .collect();
        let generate_us_per_set = started.elapsed().as_secs_f64() * 1e6 / sets.len() as f64;
        let frames = sets
            .iter()
            .map(|ts| {
                format!(
                    "{{\"v\":1,\"cores\":{},\"bounds\":true,\"task_set\":{}}}\n",
                    spec.cores,
                    task_set_to_json_compact(ts)
                )
            })
            .collect();
        Ring {
            sets,
            frames,
            generate_us_per_set,
        }
    }

    /// The set at ring position `i` (the ring repeats) and its frame.
    fn at(&self, i: usize) -> (usize, &str) {
        let set = i % self.sets.len();
        (set, &self.frames[set])
    }

    /// The ring's frames in send order, as one byte string.
    #[cfg(test)]
    pub fn bytes(&self) -> String {
        self.frames.concat()
    }
}

/// One client connection with its line reader.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Client {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            line: String::new(),
        })
    }

    fn send(&mut self, frame: &str) -> io::Result<()> {
        self.writer.write_all(frame.as_bytes())
    }

    fn receive(&mut self) -> io::Result<&str> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(&self.line)
    }

    fn round_trip(&mut self, frame: &str) -> io::Result<&str> {
        self.send(frame)?;
        self.receive()
    }
}

/// How a reply compares with the reference.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reply {
    Hit,
    Answered,
    Wrong,
}

fn check_reply(line: &str, expected: &str) -> Reply {
    const OK: &str = "{\"v\":1,\"ok\":true,\"cache\":\"";
    let Some(rest) = line.strip_prefix(OK) else {
        return Reply::Wrong;
    };
    let Some(body) = line.strip_suffix("}\n") else {
        return Reply::Wrong;
    };
    let Some(verdicts) = body
        .rfind("\"verdicts\":")
        .map(|at| &body[at + "\"verdicts\":".len()..])
    else {
        return Reply::Wrong;
    };
    if verdicts != expected {
        Reply::Wrong
    } else if rest.starts_with("hit\"") {
        Reply::Hit
    } else {
        Reply::Answered
    }
}

/// The set-up serve workload: the ring, its reference answers, a
/// running server and a connected, warmed-up client.
pub struct Setup {
    ring: Ring,
    /// The wire's verdict array for every distinct set, from an
    /// in-process `AnalysisRequest::evaluate`.
    expected: Vec<String>,
    /// Per set, how many tasks (highest priority first) the server's
    /// evaluation reads Δ for: the prefix LP-ILP's own fixed point
    /// analyzes, which a bound-carrying request always runs. The traced
    /// run warms exactly those.
    ilp_prefix: Vec<usize>,
    server: Option<ServerHandle>,
    client: Client,
    /// Next ring position.
    cursor: usize,
}

impl Setup {
    /// Everything before the measured region: ring rendering, reference
    /// answers, server spawn, connection set-up and warm-up.
    pub fn new(spec: Spec, seed: u64) -> io::Result<Setup> {
        let ring = Ring::render(&spec, seed);
        let request = AnalysisRequest::new(spec.cores).with_bounds(true);
        let (expected, ilp_prefix) = ring
            .sets
            .iter()
            .map(|ts| {
                let outcome = request.evaluate(ts);
                (
                    serve::verdicts_json(&outcome),
                    layers::prefix_len(&outcome, Method::LpIlp),
                )
            })
            .unzip();
        let server = serve::spawn(&ServeOptions::default())?;
        let client = Client::connect(server.addr())?;
        let mut setup = Setup {
            ring,
            expected,
            ilp_prefix,
            server: Some(server),
            client,
            cursor: 0,
        };
        // Warm-up: a stretch of the ring, so caches and scratch buffers
        // settle.
        if setup.closed_loop(None, Some(spec.warmup)).failed > 0 {
            return Err(io::Error::other("warm-up frames failed"));
        }
        Ok(setup)
    }

    /// Stops the server and waits for its threads.
    pub fn finish(mut self) {
        if let Some(server) = self.server.take() {
            drop(self.client);
            let report = server.shutdown();
            if report.panicked > 0 {
                eprintln!("warning: server drain: {}", report.render());
            }
        }
    }

    fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("server running").addr()
    }

    /// Sends frames in ring order until `deadline` or until `limit` frames,
    /// each after the previous reply.
    fn closed_loop(&mut self, deadline: Option<Instant>, limit: Option<usize>) -> Measured {
        let mut measured = Measured::start();
        for _ in 0..limit.unwrap_or(usize::MAX) {
            let sent = Instant::now();
            if deadline.is_some_and(|d| sent >= d) {
                break;
            }
            let (set, frame) = self.ring.at(self.cursor);
            self.cursor += 1;
            let reply = self
                .client
                .round_trip(frame)
                .map(|line| check_reply(line, &self.expected[set]));
            let now = Instant::now();
            match reply {
                Ok(Reply::Wrong) => measured.failed += 1,
                Ok(kind) => {
                    measured.record(now - sent);
                    measured.hits += u64::from(kind == Reply::Hit);
                }
                // A broken connection fails this frame and ends the loop.
                Err(_) => {
                    measured.failed += 1;
                    break;
                }
            }
        }
        measured.finish(Instant::now())
    }

    /// The measured region: the closed loop for `seconds`.
    pub fn measure(&mut self, seconds: f64) -> Measured {
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        self.closed_loop(Some(deadline), None)
    }

    /// The traced run: half the time untraced (the overhead baseline and
    /// the server-side counters), half replaying every frame through the
    /// public layer functions before sending it on a fresh connection.
    pub fn traced(&mut self, seconds: f64) -> io::Result<TracedRun> {
        let before = scrape(self.addr())?;
        let untraced = self.measure(seconds / 2.0);
        let after = scrape(self.addr())?;
        let server = ServerCounters::between(&before, &after);

        // The replay's own LRU: the ring is longer than it, so every frame
        // misses there as on the server.
        let mut lru = AnalysisLru::new(DEFAULT_LRU_CAPACITY);

        let origin = Instant::now();
        let deadline = origin + Duration::from_secs_f64(seconds / 2.0);
        let mut t = Tracer::new(origin);
        let connect = t.begin("serve.connect", None, u64::MAX);
        let mut client = Client::connect(self.addr())?;
        t.end(connect);
        let mut failed = untraced.failed;
        let mut traced = 0;
        while Instant::now() < deadline && traced < TRACE_MAX_OPS {
            let i = self.cursor;
            self.cursor += 1;
            traced += 1;
            let (set, frame) = self.ring.at(i);
            let ok = replay_frame(
                &mut t,
                &mut client,
                i as u64,
                frame,
                self.ilp_prefix[set],
                &mut lru,
                &self.expected[set],
            )?;
            failed += u64::from(!ok);
        }
        let frame_bytes = self.ring.frames.iter().map(String::len).sum::<usize>() as f64
            / self.ring.frames.len() as f64;
        let misses = untraced.latencies.len().saturating_sub(untraced.hits);
        let metrics = serve_layer_metrics(
            &t,
            &untraced,
            &server,
            misses,
            frame_bytes,
            self.ring.generate_us_per_set,
        );
        Ok(TracedRun {
            metrics,
            tracer: t,
            attempted: untraced.attempted() + traced as u64,
            failed,
        })
    }
}

/// Replays one frame through the public layer functions, then sends it
/// and reads the server's reply, all under one `frame` span. Returns
/// whether both the replay and the reply matched the reference.
fn replay_frame(
    t: &mut Tracer,
    client: &mut Client,
    r: u64,
    frame: &str,
    ilp_prefix: usize,
    lru: &mut AnalysisLru,
    expected: &str,
) -> io::Result<bool> {
    let root = t.begin("frame", None, r);
    let doc = t
        .span("model.json.parse", Some(root), r, || {
            json::parse(frame.trim())
        })
        .map_err(|e| io::Error::other(e.to_string()))?;
    let (ts, request) = t.span("model.json.build", Some(root), r, || {
        let ts = doc
            .get("task_set")
            .map(json::task_set_from_value)
            .expect("rendered frames carry a task set");
        let cores = doc.get("cores").and_then(Value::as_u64).unwrap_or(1) as usize;
        let bounds = doc.get("bounds").and_then(Value::as_bool).unwrap_or(false);
        (ts, AnalysisRequest::new(cores.max(1)).with_bounds(bounds))
    });
    let ts = ts.map_err(|e| io::Error::other(e.to_string()))?;
    t.span("model.taskset.hash", Some(root), r, || {
        std::hint::black_box(ts.stable_hash())
    });
    let (cached, _) = t.span("core.lru.fetch", Some(root), r, || lru.fetch(&ts, &request));
    let outcome = match cached {
        Some(outcome) => outcome,
        None => {
            let outcome = layers::analyze(t, Some(root), r, &ts, &request, ilp_prefix);
            t.span("core.lru.store", Some(root), r, || {
                lru.store(&ts, &request, &outcome)
            });
            outcome
        }
    };
    let encoded = t.span("serve.encode", Some(root), r, || {
        serve::verdicts_json(&outcome)
    });
    let rtt = t.begin("serve.rtt", Some(root), r);
    t.span("serve.send", Some(rtt), r, || client.send(frame))?;
    let reply = client.receive().map(|line| check_reply(line, expected));
    t.end(rtt);
    t.end(root);
    Ok(encoded == expected && matches!(reply?, Reply::Hit | Reply::Answered))
}

/// Counters the server reports over `{"metrics":true}`, as a difference
/// between two scrapes.
#[derive(Default)]
struct ServerCounters {
    fixed_point_iters: u64,
    frame_ns_count: u64,
    /// `(upper bound, count)` per log₂ bucket of `serve_frame_ns_analyze`.
    frame_ns_buckets: Vec<(u64, u64)>,
    frame_ns_sum: u64,
}

fn scrape(addr: SocketAddr) -> io::Result<Value> {
    let mut client = Client::connect(addr)?;
    let line = client.round_trip("{\"v\":1,\"metrics\":true}\n")?;
    json::parse(line.trim()).map_err(|e| io::Error::other(e.to_string()))
}

impl ServerCounters {
    fn between(before: &Value, after: &Value) -> Self {
        let read = |doc: &Value| -> (u64, u64, u64, Vec<(u64, u64)>) {
            let m = doc.get("metrics");
            let iters = m
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("analysis_fixed_point_iters_total"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let h = m
                .and_then(|m| m.get("histograms"))
                .and_then(|h| h.get("serve_frame_ns_analyze"));
            let field = |k: &str| {
                h.and_then(|h| h.get(k))
                    .and_then(Value::as_u64)
                    .unwrap_or(0)
            };
            let buckets = h
                .and_then(|h| h.get("buckets"))
                .and_then(Value::as_array)
                .unwrap_or(&[])
                .iter()
                .filter_map(|pair| {
                    let pair = pair.as_array()?;
                    // The overflow bucket is spelled -1.
                    let le = pair.first()?.as_u64().unwrap_or(u64::MAX);
                    Some((le, pair.get(1)?.as_u64()?))
                })
                .collect();
            (iters, field("count"), field("sum"), buckets)
        };
        let (i0, c0, s0, b0) = read(before);
        let (i1, c1, s1, b1) = read(after);
        let frame_ns_buckets = b1
            .iter()
            .map(|&(le, n)| {
                let earlier = b0.iter().find(|(l, _)| *l == le).map_or(0, |&(_, n)| n);
                (le, n.saturating_sub(earlier))
            })
            .collect();
        ServerCounters {
            fixed_point_iters: i1.saturating_sub(i0),
            frame_ns_count: c1.saturating_sub(c0),
            frame_ns_buckets,
            frame_ns_sum: s1.saturating_sub(s0),
        }
    }

    /// Upper bound of the bucket holding the median (factor-2 resolution,
    /// as the server's histogram records it).
    fn frame_ns_p50(&self) -> u64 {
        let rank = self.frame_ns_count.div_ceil(2).max(1);
        let mut seen = 0;
        for &(le, n) in &self.frame_ns_buckets {
            seen += n;
            if seen >= rank {
                return le;
            }
        }
        0
    }
}

fn serve_layer_metrics(
    tracer: &Tracer,
    untraced: &Measured,
    server: &ServerCounters,
    misses: u64,
    frame_bytes: f64,
    generate_us: f64,
) -> BTreeMap<String, Metric> {
    let spans = tracer.spans();
    let selfs = trace::self_times(spans);
    // Per frame: self time of each layer, and the round trip.
    let mut per_frame: BTreeMap<u64, (u64, u64)> = BTreeMap::new(); // request → (layer sum, rtt)
    let mut by_name: BTreeMap<&str, Samples> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        by_name.entry(s.name).or_default().push(self_ns);
        let entry = per_frame.entry(s.request).or_default();
        match s.name {
            "serve.rtt" => entry.1 = s.end - s.start,
            "frame" | "serve.send" | "serve.connect" => {}
            _ => entry.0 += self_ns,
        }
    }
    per_frame.remove(&u64::MAX); // the connect spans
    let mut unattributed = Samples::default();
    let mut rtt = Samples::default();
    let mut layer_sum = Samples::default();
    for &(sum, round_trip) in per_frame.values() {
        layer_sum.push(sum);
        rtt.push(round_trip);
        // Signed: the replayed layers may take longer than the server's
        // own run of them, so the remainder can dip below zero.
        unattributed.push_signed(round_trip as i64 - sum as i64);
    }
    let get = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let mut m =
        layers::analysis_metrics(&by_name, layer_sum.sum(), server.fixed_point_iters, misses);
    m.insert(
        "taskgen.generate_us_per_set".into(),
        metric(generate_us, "us", None),
    );
    for (key, name) in [
        ("model.json.parse_us_p50", "model.json.parse"),
        ("model.json.build_us_p50", "model.json.build"),
        ("model.taskset.hash_us_p50", "model.taskset.hash"),
        ("core.lru.fetch_us_p50", "core.lru.fetch"),
        ("core.lru.store_us_p50", "core.lru.store"),
        ("serve.encode_us_p50", "serve.encode"),
        ("serve.send_us_p50", "serve.send"),
    ] {
        let s = get(name);
        m.insert(key.into(), metric(s.p50_us(), "us", Some(s.len())));
    }
    m.insert(
        "model.json.frame_bytes".into(),
        metric(frame_bytes, "bytes", None),
    );
    let answered = untraced.latencies.len();
    m.insert(
        "core.lru.hit_ratio".into(),
        metric(
            untraced.hits as f64 / answered.max(1) as f64,
            "ratio",
            Some(answered),
        ),
    );
    let connect = get("serve.connect");
    m.insert(
        "serve.connect_us".into(),
        metric(connect.mean_us(), "us", Some(connect.len())),
    );
    m.insert(
        "serve.rtt_us_p50".into(),
        metric(rtt.p50_us(), "us", Some(rtt.len())),
    );
    m.insert(
        "serve.rtt_us_p99".into(),
        metric(rtt.p99_us(), "us", Some(rtt.len())),
    );
    m.insert(
        "serve.unattributed_us_p50".into(),
        metric(unattributed.p50_us(), "us", Some(unattributed.len())),
    );
    // The means add up exactly: rtt = named layers + unattributed.
    m.insert(
        "serve.rtt_us_mean".into(),
        metric(rtt.mean_us(), "us", Some(rtt.len())),
    );
    m.insert(
        "serve.layer_sum_us_mean".into(),
        metric(layer_sum.mean_us(), "us", Some(layer_sum.len())),
    );
    m.insert(
        "serve.unattributed_us_mean".into(),
        metric(unattributed.mean_us(), "us", Some(unattributed.len())),
    );
    m.insert(
        "serve.server_frame_us_p50".into(),
        metric(
            server.frame_ns_p50() as f64 / 1e3,
            "us",
            Some(server.frame_ns_count),
        ),
    );
    m.insert(
        "serve.server_frame_us_mean".into(),
        metric(
            server.frame_ns_sum as f64 / 1e3 / server.frame_ns_count.max(1) as f64,
            "us",
            Some(server.frame_ns_count),
        ),
    );
    m.insert("sim.events_per_run".into(), metric(0.0, "count", None));
    m.insert("latency_p99_us".into(), untraced.p99());
    let untraced_p50 = untraced.p50_us();
    m.insert(
        "trace.overhead_pct".into(),
        metric(
            (rtt.p50_us() / untraced_p50 - 1.0) * 100.0,
            "%",
            Some(rtt.len()),
        ),
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_renders_byte_identical_rings() {
        let spec = Spec {
            sets: 64,
            ..COLD_M16_BOUNDS
        };
        let a = Ring::render(&spec, 11).bytes();
        let b = Ring::render(&spec, 11).bytes();
        assert_eq!(a, b);
        assert_ne!(a, Ring::render(&spec, 12).bytes());
    }

    #[test]
    fn ring_exceeds_the_lru_so_every_frame_misses() {
        let spec = COLD_M16_BOUNDS;
        assert!(spec.sets >= 4 * DEFAULT_LRU_CAPACITY);
        let ring = Ring::render(&spec, 5);
        let distinct: std::collections::BTreeSet<u64> =
            ring.sets.iter().map(TaskSet::stable_hash).collect();
        assert_eq!(distinct.len(), spec.sets, "sets must be distinct");
        // Two ring cycles against a model of the server's LRU: no hit.
        let mut lru: Vec<usize> = Vec::new(); // most recent last
        for i in 0..2 * spec.sets {
            let (set, _) = ring.at(i);
            assert!(!lru.contains(&set), "frame {i} hits");
            if lru.len() == DEFAULT_LRU_CAPACITY {
                lru.remove(0);
            }
            lru.push(set);
        }
    }

    #[test]
    fn reply_check_accepts_only_the_reference() {
        let expected = "[{\"method\":\"FP-ideal\",\"schedulable\":true}]";
        let hit = format!(
            "{{\"v\":1,\"ok\":true,\"cache\":\"hit\",\"micros\":1,\"verdicts\":{expected}}}\n"
        );
        let miss = hit.replace("\"hit\"", "\"miss\"");
        assert!(check_reply(&hit, expected) == Reply::Hit);
        assert!(check_reply(&miss, expected) == Reply::Answered);
        assert!(check_reply(&hit.replace("true}]", "false}]"), expected) == Reply::Wrong);
        assert!(
            check_reply(
                "{\"v\":1,\"ok\":false,\"error\":{\"kind\":\"model\"}}\n",
                expected
            ) == Reply::Wrong
        );
        assert!(check_reply(hit.trim_end(), expected) == Reply::Wrong);
    }
}
