//! A large platform over the wire: an LP-ILP bounds frame at `m = 80`
//! must come back as a structured `ok` reply, identical to the library
//! path, without the daemon's memory growing across repeats. (Δ used to
//! enumerate all p(80) ≈ 1.6·10⁷ execution scenarios per frame and keep
//! every one of them in a process-global table.)
//!
//! The check reads this process's resident set, so this file holds a
//! single test and runs as its own process.

use rta_analysis::{AnalysisRequest, Method};
use rta_experiments::serve::{spawn, verdicts_json, ServeOptions};
use rta_model::examples::figure1_dags;
use rta_model::json::task_set_to_json_compact;
use rta_model::{DagTask, TaskSet};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

const CORES: usize = 80;
const REPEATS: u64 = 24;

/// The four Figure 1 DAGs as implicit-deadline tasks; `salt` shifts the
/// periods so every repeat is a distinct set (an LRU miss, analyzed cold).
fn four_task_set(salt: u64) -> TaskSet {
    let tasks = figure1_dags()
        .into_iter()
        .zip(0u64..)
        .map(|(dag, i)| {
            DagTask::with_implicit_deadline(dag, 100 + 20 * i + salt).expect("valid task")
        })
        .collect();
    TaskSet::new(tasks)
}

/// Resident set size of this process (server included), in kB.
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .expect("procfs")
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .expect("VmRSS line")
}

#[test]
fn lp_ilp_bounds_at_m80_answer_without_memory_growth() {
    let handle = spawn(&ServeOptions {
        addr: "127.0.0.1:0".into(),
        lru_capacity: 4,
        ..Default::default()
    })
    .expect("bind test server");
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut ask = |salt: u64| {
        let ts = four_task_set(salt);
        let frame = format!(
            "{{\"v\":1,\"id\":{salt},\"cores\":{CORES},\"methods\":[\"LP-ILP\"],\
             \"bounds\":true,\"task_set\":{}}}\n",
            task_set_to_json_compact(&ts)
        );
        writer.write_all(frame.as_bytes()).expect("send frame");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        assert!(reply.contains("\"ok\":true"), "{reply}");
        assert!(reply.contains("\"cache\":\"miss\""), "{reply}");
        let library = AnalysisRequest::new(CORES)
            .with_methods([Method::LpIlp])
            .with_bounds(true)
            .evaluate(&ts);
        assert!(
            reply.contains(&format!("\"verdicts\":{}}}", verdicts_json(&library))),
            "{reply}"
        );
    };

    // Warm the allocator, the LRU and the metric shards first.
    for salt in 0..4 {
        ask(salt);
    }
    let warm = rss_kb();
    for salt in 4..4 + REPEATS {
        ask(salt);
    }
    let grown = rss_kb().saturating_sub(warm);
    assert!(
        grown < 4 * 1024,
        "RSS grew by {grown} kB over {REPEATS} cold m = {CORES} frames"
    );
    handle.shutdown();
}
