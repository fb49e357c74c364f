//! In-process timings of the collector layers, called from outside
//! through their public functions on the delivery phase's frames.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use collectord::protocol::parse_push;
use collectord::{Daemon, Ingest, Store};
use fleet::Collector;
use wire::framing::{read_frame, write_frame};

use crate::campaign::Frames;
use crate::stats::median;

/// Pushes between two `snapshot_pretty` timings.
const SNAPSHOT_EVERY: usize = 5;
/// `status_json` calls timed on the fully fed daemon.
const STATUS_CALLS: usize = 20;

/// Median per-call costs of each collector layer.
#[derive(Debug, Clone, Copy)]
pub struct Layers {
    /// `write_frame` + `read_frame` through memory, µs.
    pub framing_us: f64,
    /// `protocol::parse_push`, µs.
    pub parse_us: f64,
    /// `Ingest::push` on an `Ingest` without a store, µs.
    pub merge_us: f64,
    /// `Store::write_slice` of a pushed slice, µs.
    pub store_write_us: f64,
    /// `Ingest::snapshot_pretty` as pushes land, ms.
    pub snapshot_ms: f64,
    /// `Daemon::status_json` once every push has landed, µs.
    pub status_us: f64,
    /// Whether every push was accepted and the final snapshot matched.
    pub correct: bool,
}

/// Time every layer on `frames`; journal files go under `dir`.
pub fn measure(frames: &Frames, expected: &str, dir: &Path) -> Layers {
    let mut framing = Vec::new();
    let mut parse = Vec::new();
    let mut pushes = Vec::new();
    for payload in &frames.payloads {
        let mut buf = Vec::with_capacity(payload.len() + 4);
        let t = Instant::now();
        write_frame(&mut buf, payload).expect("frame fits");
        let back = read_frame(&mut buf.as_slice()).expect("frame reads back");
        framing.push(us(t));
        assert_eq!(&back, payload, "framing round trip");

        let t = Instant::now();
        let push = black_box(parse_push(payload));
        parse.push(us(t));
        pushes.push(push.expect("benchmark frames are valid pushes"));
    }

    let mut ingest = Ingest::new(frames.spec.clone());
    let mut merge = Vec::new();
    let mut snapshot = Vec::new();
    let mut correct = true;
    for (i, (push, payload)) in pushes.iter().zip(&frames.payloads).enumerate() {
        let t = Instant::now();
        let ack = ingest.push(&push.shard, &push.state, push.done, payload.len() as u64);
        merge.push(us(t));
        correct &= ack.is_ok();
        if (i + 1) % SNAPSHOT_EVERY == 0 {
            let t = Instant::now();
            black_box(ingest.snapshot_pretty());
            snapshot.push(us(t) / 1e3);
        }
    }
    correct &= ingest.snapshot_pretty() == expected;

    let store = Store::open(dir).expect("open the layer journal");
    let mut store_write = Vec::new();
    for push in &pushes {
        let slice = Collector::from_state_json(&push.state).expect("pushed state parses");
        let t = Instant::now();
        store
            .write_slice(&slice, push.done)
            .expect("journal write succeeds");
        store_write.push(us(t));
    }
    std::fs::remove_dir_all(dir).expect("remove the layer journal");

    let daemon = Daemon::new(frames.spec.clone());
    for payload in &frames.payloads {
        correct &= daemon
            .ingest_frame(payload)
            .get("type")
            .and_then(obs::Json::as_str)
            == Some("ack");
    }
    let status: Vec<f64> = (0..STATUS_CALLS)
        .map(|_| {
            let t = Instant::now();
            black_box(daemon.status_json());
            us(t)
        })
        .collect();

    let med = |xs: &[f64]| median(xs).expect("at least one sample per layer");
    Layers {
        framing_us: med(&framing),
        parse_us: med(&parse),
        merge_us: med(&merge),
        store_write_us: med(&store_write),
        snapshot_ms: med(&snapshot),
        status_us: med(&status),
        correct,
    }
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
