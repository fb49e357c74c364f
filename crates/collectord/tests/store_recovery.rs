//! Crash-safety end-to-end: a journaling daemon killed (dropped
//! without any flush) and restarted over the same `--state-dir` must
//! recover to a `/snapshot` byte-identical to a never-killed run, keep
//! classifying re-sent finals as duplicates, and compact slice files
//! into the merged prefix with the documented file lifecycle.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;

use collectord::{Daemon, Ingest, PushClient, PushOutcome, Store, StoreError};
use fleet::{run_campaign, run_partition, CampaignSpec};
use obs::{Json, ToJson};

fn spec() -> CampaignSpec {
    CampaignSpec::heterogeneous(7, 40).with_probes(2)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("collectord-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Spawn a journaling daemon on ephemeral ports; returns
/// (daemon, push addr, http addr).
fn start_daemon(spec: CampaignSpec, dir: &PathBuf) -> (Daemon, String, String) {
    let ingest = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = TcpListener::bind("127.0.0.1:0").unwrap();
    let push_addr = ingest.local_addr().unwrap().to_string();
    let http_addr = http.local_addr().unwrap().to_string();
    let daemon = Daemon::with_store(spec, Store::open(dir).unwrap()).unwrap();
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_ingest(ingest));
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_http(http));
    (daemon, push_addr, http_addr)
}

/// Minimal HTTP GET: returns (status line, body).
fn get(addr: &str, path: &str) -> (String, String) {
    let mut s = TcpStream::connect(addr).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    let (head, body) = raw.split_once("\r\n\r\n").expect("complete response");
    (head.lines().next().unwrap().to_string(), body.to_string())
}

/// The tentpole guarantee: kill the daemon mid-campaign (after acked
/// pushes, with *no* shutdown flush — every acked push must already be
/// durable), restart over the same state dir, finish the campaign, and
/// the `/snapshot` is byte-identical to an uninterrupted run.
#[test]
fn kill_and_restart_recovers_to_byte_identical_snapshot() {
    let spec = spec();
    let (expected, _) = run_campaign(&spec, 2);
    let expected = expected.to_json().to_string_pretty();
    let dir = tmpdir("kill-restart");

    // Daemon #1: an out-of-order final (buffered behind the gap at 0)
    // and a mid-run non-final half of slice 0.
    let (daemon1, push1, _http1) = start_daemon(spec.clone(), &dir);
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let mut client = PushClient::connect(&push1, "1/2").unwrap();
    assert_eq!(
        client.push(&c1, true).unwrap().outcome,
        PushOutcome::Buffered
    );
    let mut c0_half = fleet::Collector::new_range(&spec, 0);
    for i in 0..10 {
        c0_half.absorb(&fleet::run_device(&spec, i));
    }
    let mut client = PushClient::connect(&push1, "0/2").unwrap();
    assert_eq!(
        client.push(&c0_half, false).unwrap().outcome,
        PushOutcome::Buffered
    );
    // SIGKILL stand-in: no flush, no goodbye. Acked pushes must already
    // be on disk.
    drop(client);
    drop(daemon1);

    // Daemon #2 over the same journal.
    let (_daemon2, push2, http2) = start_daemon(spec.clone(), &dir);

    // Recovery provenance is visible to operators.
    let (_, health) = get(&http2, "/healthz");
    assert!(health.starts_with("ok\n"), "{health}");
    assert!(health.contains("recovered merged_devices=0"), "{health}");
    let (_, status) = get(&http2, "/status");
    let doc = obs::Json::parse(&status).unwrap();
    let rec = doc.get("recovery").expect("recovery object on /status");
    assert_eq!(
        rec.get("slices_loaded").and_then(obs::Json::as_f64),
        Some(2.0),
        "{status}"
    );

    // The view already reflects the recovered slices (20 final + 10).
    assert_eq!(
        doc.get("devices_view").and_then(obs::Json::as_f64),
        Some(30.0),
        "{status}"
    );

    // A duplicate of the recovered final classifies as duplicate, not
    // overlap — the ledger survived too (idempotent resend-after-kill).
    let mut client = PushClient::connect(&push2, "1/2").unwrap();
    assert_eq!(
        client.push(&c1, true).unwrap().outcome,
        PushOutcome::Duplicate
    );

    // Finish slice 0; the campaign completes and the snapshot matches
    // the never-killed run byte for byte.
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let mut client = PushClient::connect(&push2, "0/2").unwrap();
    let ack = client.push(&c0, true).unwrap();
    assert_eq!(ack.outcome, PushOutcome::Absorbed);
    assert!(ack.complete);
    let (_, snapshot) = get(&http2, "/snapshot");
    assert_eq!(
        snapshot, expected,
        "recovered snapshot must be byte-identical"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A second kill after the frontier advanced: the merged prefix and its
/// absorbed-slice ledger recover, so a shard blindly re-sending its
/// folded final (it never saw the ack) still gets the idempotent
/// answer.
#[test]
fn absorbed_ledger_survives_restart() {
    let spec = spec();
    let dir = tmpdir("ledger");

    let (daemon1, push1, _) = start_daemon(spec.clone(), &dir);
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let mut client = PushClient::connect(&push1, "0/2").unwrap();
    assert_eq!(
        client.push(&c0, true).unwrap().outcome,
        PushOutcome::Absorbed
    );
    drop(client);
    drop(daemon1);

    let (_daemon2, push2, http2) = start_daemon(spec.clone(), &dir);
    let (_, health) = get(&http2, "/healthz");
    assert!(health.contains("recovered merged_devices=20"), "{health}");

    let mut client = PushClient::connect(&push2, "0/2").unwrap();
    assert_eq!(
        client.push(&c0, true).unwrap().outcome,
        PushOutcome::Duplicate,
        "re-sent folded final must be a duplicate, not an overlap"
    );
    // An older cumulative resend is stale, same as before the kill.
    let mut c0_half = fleet::Collector::new_range(&spec, 0);
    for i in 0..10 {
        c0_half.absorb(&fleet::run_device(&spec, i));
    }
    assert_eq!(
        client.push(&c0_half, false).unwrap().outcome,
        PushOutcome::Stale
    );

    let (c1, _) = run_partition(&spec, 2, 1, 2);
    let ack = client.push(&c1, true).unwrap();
    assert!(ack.complete);

    std::fs::remove_dir_all(&dir).unwrap();
}

/// The journal's file lifecycle: buffered slices live as
/// `slice-<start>.json`, folding compacts them into `merged.json` and
/// deletes the slice files, and the shutdown flush leaves a rendered
/// `snapshot.json` behind.
#[test]
fn compaction_and_flush_file_lifecycle() {
    let spec = spec();
    let dir = tmpdir("lifecycle");
    let store = Store::open(&dir).unwrap();
    let mut ingest = Ingest::with_store(spec.clone(), store).unwrap();

    // An out-of-order final buffers: slice file exists, no merged yet.
    let (c1, _) = run_partition(&spec, 2, 1, 2);
    ingest.push("1/2", &c1.state_json(), true, 0).unwrap();
    assert!(dir.join("slice-20.json").exists());
    assert!(!dir.join("merged.json").exists());

    // The gap fills: both slices fold, merged.json appears, slice
    // files are compacted away.
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    let ack = ingest.push("0/2", &c0.state_json(), true, 0).unwrap();
    assert!(ack.complete);
    assert!(dir.join("merged.json").exists());
    assert!(!dir.join("slice-0.json").exists(), "compacted");
    assert!(!dir.join("slice-20.json").exists(), "compacted");

    // The shutdown flush renders the final snapshot next to the
    // journal, byte-identical to what /snapshot would serve.
    ingest.flush_to_store().unwrap();
    let snapshot = std::fs::read_to_string(dir.join("snapshot.json")).unwrap();
    assert_eq!(snapshot, ingest.snapshot_pretty());

    std::fs::remove_dir_all(&dir).unwrap();
}

/// A journal slice file edited to drop a stratum (seed and fingerprint
/// untouched) and marked final at device 0 would fold during recovery.
/// Recovery's `verify_spec` refuses the journal before any fold: an
/// error, not a panic.
#[test]
fn slice_file_with_a_dropped_stratum_fails_recovery_cleanly() {
    let spec = spec();
    let dir = tmpdir("edited-slice");
    let mut ingest = Ingest::with_store(spec.clone(), Store::open(&dir).unwrap()).unwrap();
    let (c0, _) = run_partition(&spec, 2, 0, 2);
    ingest.push("0/2", &c0.state_json(), false, 0).unwrap();
    drop(ingest);

    let path = dir.join("slice-0.json");
    let mut doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let mut state = doc.get("state").unwrap().clone();
    let mut strata = state.get("strata").and_then(Json::as_arr).unwrap().to_vec();
    strata.pop();
    state.set("strata", Json::Arr(strata));
    doc.set("state", state);
    doc.set("final", true);
    std::fs::write(&path, doc.to_string_pretty()).unwrap();

    match Ingest::with_store(spec, Store::open(&dir).unwrap()) {
        Ok(_) => panic!("an edited slice must not recover"),
        Err(e) => assert!(matches!(e, StoreError::SpecMismatch(_)), "{e}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
