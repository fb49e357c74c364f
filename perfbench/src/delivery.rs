//! The delivery phase: a fresh journalled `collectord::Daemon` per
//! round, fed over loopback by an open-loop load generator.
//!
//! Each round's daemon runs in a child process of this binary (see
//! [`serve`]), as `repro collectord` does in production. The daemon has
//! no shutdown call, so an in-process daemon would live, with its
//! campaign state, until the benchmark exits; the child is killed and
//! reaped at the end of its round instead.
//!
//! Two load threads share one schedule origin. One sends every push
//! frame on one persistent connection at its due time (one every
//! [`PUSH_INTERVAL`]) and reads its ack; the other opens a fresh
//! connection per `GET /snapshot` (one every [`SNAPSHOT_INTERVAL`],
//! [`SNAPSHOTS_PER_ROUND`] of them).
//! A late operation is sent as soon as its thread is free, never
//! skipped, and every latency runs from the due time, so a stall is
//! charged to every operation queued behind it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

use collectord::Store;
use obs::Json;
use wire::framing::{read_frame, write_frame};

use crate::campaign::Frames;
use crate::stats::Tally;
use crate::sys::cpu_seconds;

/// Time between push due times (50 pushes/s).
pub const PUSH_INTERVAL: Duration = Duration::from_millis(20);
/// Time between snapshot due times (5 GETs/s).
pub const SNAPSHOT_INTERVAL: Duration = Duration::from_millis(200);
/// Snapshot GETs per round: 2 s of them, twice the push schedule's
/// span, so a round's reads also see the backed-up pushes land.
pub const SNAPSHOTS_PER_ROUND: usize = 10;

/// What the delivery phase measured, over every round.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// Set-up seconds of each round: daemon process start, spec build,
    /// journal open and recovery, listeners bound.
    pub setup_s: Vec<f64>,
    /// Push latencies (due → ack read), ms, acked pushes only.
    pub push_ms: Vec<f64>,
    /// Snapshot latencies (due → full body read), ms, good GETs only.
    pub snapshot_ms: Vec<f64>,
    /// How late each operation was sent, ms.
    pub lag_ms: Vec<f64>,
    /// CPU seconds of the load windows, the daemon's included.
    pub cpu_s: f64,
    /// Each round's daemon peak RSS (`VmHWM`), MB.
    pub daemon_rss_mb: Vec<f64>,
    /// Pushes and GETs attempted and failed.
    pub tally: Tally,
    /// Rounds whose final `/snapshot` differed from the expected merge.
    pub mismatched_rounds: u64,
}

/// One timed operation.
struct Op {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

impl Delivery {
    /// Run one delivery round of `frames` against a fresh daemon whose
    /// journal lives in `dir`; its final `/snapshot` must equal
    /// `expected`. `serve_args` are the arguments [`serve`] takes.
    pub fn round(&mut self, serve_args: &[String], frames: &Frames, expected: &str, dir: &Path) {
        let t = Instant::now();
        let daemon = DaemonProcess::spawn(serve_args, dir);
        self.setup_s.push(t.elapsed().as_secs_f64());
        let (push_addr, http_addr) = (daemon.ingest, daemon.http);

        let mut stream = TcpStream::connect(push_addr).expect("connect to the ingest listener");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let c0 = cpu_seconds();
        let origin = Instant::now() + Duration::from_millis(5);
        let (pushes, gets) = std::thread::scope(|s| {
            let pusher = s.spawn(|| push_all(&mut stream, &frames.payloads, origin));
            let getter = s.spawn(|| get_all(http_addr, SNAPSHOTS_PER_ROUND, origin));
            (
                pusher.join().expect("push thread panicked"),
                getter.join().expect("snapshot thread panicked"),
            )
        });
        self.cpu_s += cpu_seconds() - c0 + daemon.cpu_seconds();
        drop(stream);

        for op in &pushes {
            self.record(op, OpKind::Push);
        }
        for (mut op, response) in gets {
            op.ok = op.ok && snapshot_body(&response).is_some_and(|b| Json::parse(b).is_ok());
            self.record(&op, OpKind::Snapshot);
        }
        let last = http_get(http_addr, "/snapshot");
        if last.as_deref().and_then(snapshot_body) != Some(expected) {
            self.mismatched_rounds += 1;
        }
        self.daemon_rss_mb.push(daemon.peak_rss_mb());
        drop(daemon);
        std::fs::remove_dir_all(dir).expect("remove the round's journal");
    }

    fn record(&mut self, op: &Op, kind: OpKind) {
        self.tally.record(op.ok);
        self.lag_ms.push(ms(op.sent - op.due));
        if op.ok {
            let latency = ms(op.done - op.due);
            match kind {
                OpKind::Push => self.push_ms.push(latency),
                OpKind::Snapshot => self.snapshot_ms.push(latency),
            }
        }
    }
}

enum OpKind {
    Push,
    Snapshot,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The daemon side of a round, run as `perfbench --serve-daemon
/// <workload> <campaign seed> <journal dir>`: open the journal, start
/// a daemon for the delivery sub-campaign with both listeners on
/// loopback, print `ports <ingest> <http>` and serve until killed or
/// until stdin closes, which it does when the benchmark process dies.
pub fn serve(spec: fleet::CampaignSpec, dir: &Path) -> ! {
    std::thread::spawn(|| {
        let _ = std::io::stdin().read(&mut [0u8; 1]);
        std::process::exit(0);
    });
    let store = Store::open(dir).expect("open the journal");
    let daemon = collectord::Daemon::with_store(spec, store).expect("recover the journal");
    let ingest = TcpListener::bind("127.0.0.1:0").expect("bind the ingest listener");
    let http = TcpListener::bind("127.0.0.1:0").expect("bind the http listener");
    println!(
        "ports {} {}",
        ingest.local_addr().expect("ingest address").port(),
        http.local_addr().expect("http address").port()
    );
    std::io::stdout().flush().expect("report the ports");
    let d = daemon.clone();
    std::thread::spawn(move || d.serve_ingest(ingest));
    daemon.serve_http(http);
    unreachable!("serve_http accepts connections forever")
}

/// A daemon child process, killed and reaped when dropped.
struct DaemonProcess {
    child: Child,
    /// Held open for the child's lifetime; see [`serve`].
    _stdin: ChildStdin,
    ingest: SocketAddr,
    http: SocketAddr,
}

impl DaemonProcess {
    /// Start `perfbench --serve-daemon <serve_args>` and wait for its ports.
    fn spawn(serve_args: &[String], dir: &Path) -> DaemonProcess {
        let exe = std::env::current_exe().expect("locate the benchmark binary");
        let mut child = Command::new(exe)
            .arg("--serve-daemon")
            .args(serve_args)
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("start the daemon process");
        let stdin = child.stdin.take().expect("daemon stdin is piped");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the daemon's ports");
        let ports: Vec<u16> = line
            .strip_prefix("ports ")
            .map(|p| {
                p.split_whitespace()
                    .filter_map(|x| x.parse().ok())
                    .collect()
            })
            .unwrap_or_default();
        if ports.len() != 2 {
            let _ = child.kill();
            let _ = child.wait();
            panic!("the daemon process did not report its ports: {line:?}");
        }
        let at = |port| SocketAddr::from(([127, 0, 0, 1], port));
        DaemonProcess {
            ingest: at(ports[0]),
            http: at(ports[1]),
            child,
            _stdin: stdin,
        }
    }

    fn proc_file(&self, name: &str) -> String {
        std::fs::read_to_string(format!("/proc/{}/{name}", self.child.id())).unwrap_or_default()
    }

    /// User + system CPU seconds the daemon has used, at the kernel's
    /// 10 ms tick resolution.
    fn cpu_seconds(&self) -> f64 {
        let stat = self.proc_file("stat");
        // Fields after the parenthesised command name: state is the
        // first, utime the 12th and stime the 13th.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
        let ticks = |i: usize| fields.get(i).and_then(|v| v.parse::<f64>().ok());
        match (ticks(11), ticks(12)) {
            (Some(u), Some(s)) => (u + s) / USER_HZ,
            _ => f64::NAN,
        }
    }

    fn peak_rss_mb(&self) -> f64 {
        crate::sys::vm_hwm_mb(&self.proc_file("status"))
    }
}

impl Drop for DaemonProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Clock ticks per second in `/proc/<pid>/stat` (fixed by the Linux ABI).
const USER_HZ: f64 = 100.0;

fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

fn push_all(stream: &mut TcpStream, payloads: &[Vec<u8>], origin: Instant) -> Vec<Op> {
    let mut ops = Vec::with_capacity(payloads.len());
    for (i, payload) in payloads.iter().enumerate() {
        let due = origin + PUSH_INTERVAL * i as u32;
        sleep_until(due);
        let sent = Instant::now();
        let reply = write_frame(stream, payload).and_then(|()| read_frame(stream));
        let done = Instant::now();
        let ok = reply.is_ok_and(|r| is_ack(&r));
        ops.push(Op {
            due,
            sent,
            done,
            ok,
        });
    }
    ops
}

fn is_ack(reply: &[u8]) -> bool {
    std::str::from_utf8(reply)
        .ok()
        .and_then(|t| Json::parse(t).ok())
        .is_some_and(|d| d.get("type").and_then(Json::as_str) == Some("ack"))
}

fn get_all(addr: SocketAddr, count: usize, origin: Instant) -> Vec<(Op, Vec<u8>)> {
    (0..count)
        .map(|j| {
            let due = origin + SNAPSHOT_INTERVAL * j as u32;
            sleep_until(due);
            let sent = Instant::now();
            let response = http_get(addr, "/snapshot");
            let done = Instant::now();
            let op = Op {
                due,
                sent,
                done,
                ok: response.is_some(),
            };
            (op, response.unwrap_or_default())
        })
        .collect()
}

/// One `GET` on a fresh connection; the raw response, or `None` on an
/// i/o error.
fn http_get(addr: SocketAddr, path: &str) -> Option<Vec<u8>> {
    let mut s = TcpStream::connect(addr).ok()?;
    s.write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
        .ok()?;
    let mut response = Vec::new();
    s.read_to_end(&mut response).ok()?;
    Some(response)
}

/// The body of a `200` response whose length matches its
/// `Content-Length`; `None` for any other status or a torn body.
fn snapshot_body(response: &[u8]) -> Option<&str> {
    let text = std::str::from_utf8(response).ok()?;
    let (head, body) = text.split_once("\r\n\r\n")?;
    let mut lines = head.lines();
    if !lines.next()?.starts_with("HTTP/1.1 200 ") {
        return None;
    }
    let length: usize = lines
        .find_map(|l| l.strip_prefix("Content-Length:"))?
        .trim()
        .parse()
        .ok()?;
    (body.len() == length).then_some(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_body_rejects_errors_and_torn_bodies() {
        let ok = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(snapshot_body(ok), Some("{}"));
        let torn = b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}";
        assert_eq!(snapshot_body(torn), None);
        let missing = b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\n{}";
        assert_eq!(snapshot_body(missing), None);
        assert_eq!(snapshot_body(b""), None);
    }
}
