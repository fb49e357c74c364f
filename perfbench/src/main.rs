//! `perfbench` — end-to-end and per-layer benchmark of fleet campaigns
//! and the collectord daemon. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <fleet-mixed|fleet-light>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). The exit code is 1 when a correctness check fails,
//! 2 on bad arguments.

mod campaign;
mod delivery;
mod layers;
mod stats;
mod sys;
mod workload;

use std::path::PathBuf;

use campaign::{reference, CampaignPhase, Reference};
use delivery::Delivery;
use stats::{median, tail, Tally};
use workload::{campaign_seed, counts, stratum_names, Workload, DELIVERY_DEVICES};

/// Counts allocations per thread, so the traced pass can attribute
/// them to the call it wraps.
#[global_allocator]
static ALLOC: obs::prof::CountingAlloc = obs::prof::CountingAlloc;

/// The cross-traffic stratum, whose share of shard time is reported.
const CROSS_STRATUM: &str = "n5-evening-cross";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
            },
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, workload, seed, dir] = raw.as_slice() {
        if flag == "--serve-daemon" {
            obs::log::set_level(obs::log::Level::Warn);
            let (Some(w), Ok(seed)) = (Workload::parse(workload), seed.parse()) else {
                eprintln!("perfbench: bad --serve-daemon arguments");
                std::process::exit(2);
            };
            delivery::serve(w.spec(seed, DELIVERY_DEVICES), std::path::Path::new(dir));
        }
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!(
            "perfbench: {e}\nusage: perfbench --workload <{}> --seed N --seconds N --trace 0|1",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    obs::log::set_level(obs::log::Level::Warn);
    let w = args.workload;
    let plan = w.plan();
    let (campaigns, rounds) = counts(&plan, args.seconds as f64);
    let state_root = PathBuf::from(".bench_build")
        .join("perfbench-state")
        .join(std::process::id().to_string());
    println!(
        "perfbench {} seed {} seconds {} trace {} | host: {}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        sys::host()
    );
    println!(
        "plan: {campaigns} campaigns x {} devices on {} workers; \
         {rounds} delivery rounds of {DELIVERY_DEVICES} devices",
        plan.devices, plan.workers
    );

    let seed0 = campaign_seed(args.seed, 0);
    let spec0 = w.spec(seed0, plan.devices);
    let sub = w.spec(seed0, DELIVERY_DEVICES);
    let mut checks = Vec::new();
    let reference = if args.trace {
        // Lazily built thread-locals allocate once per thread; warm
        // them so both traced passes count the same allocations.
        std::hint::black_box(fleet::run_device(&spec0, 0));
        let first = reference(&spec0, &sub, true);
        let second = reference(&spec0, &sub, true);
        checks.push((
            "allocation counts repeat exactly across two traced passes",
            alloc_counts(&first) == alloc_counts(&second),
        ));
        checks.push((
            "the two traced passes report the same bytes",
            first.json == second.json,
        ));
        first
    } else {
        reference(&spec0, &sub, false)
    };
    let expected = reference.frames.expected_snapshot();

    // The timed units: campaigns and delivery rounds interleaved evenly,
    // so both phases sample the host over the whole run.
    let mut phase = CampaignPhase::default();
    let mut delivery = Delivery::default();
    let units = campaigns + rounds;
    for u in 0..units {
        let k = u * campaigns / units;
        if (u + 1) * campaigns / units > k {
            phase.run(w, args.seed, k);
        } else {
            let round = u - k;
            delivery.round(
                &[w.name().to_string(), seed0.to_string()],
                &reference.frames,
                &expected,
                &state_root.join(format!("round-{round}")),
            );
        }
    }
    println!(
        "campaign walls (s): {}",
        phase
            .walls
            .iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );

    checks.push((
        "run_campaign report is byte-identical to the serial run_device + absorb report",
        phase.first_json == reference.json,
    ));
    checks.push((
        "every round's final /snapshot equals the in-process merge of its partials",
        delivery.mismatched_rounds == 0,
    ));
    println!(
        "campaign 0 report: {} bytes, digest {:016x}",
        reference.json.len(),
        sys::digest(reference.json.as_bytes())
    );
    let kb: Vec<f64> = reference
        .frames
        .payloads
        .iter()
        .map(|p| p.len() as f64 / 1024.0)
        .collect();
    println!(
        "delivery: {} pushes per round, {:.1} KB median; expected snapshot digest {:016x}",
        kb.len(),
        median(&kb).unwrap_or(0.0),
        sys::digest(expected.as_bytes())
    );

    let mut tally = Tally::default();
    tally.add(phase.attempted, phase.attempted.abs_diff(phase.absorbed));
    tally.add(delivery.tally.attempted, delivery.tally.failed);

    let e2e = end_to_end(&phase, &delivery, &tally);
    let metrics = if args.trace {
        let layers = layers::measure(&reference.frames, &expected, &state_root.join("layers"));
        checks.push((
            "every in-process push is accepted and merges to the snapshot",
            layers.correct,
        ));
        for m in &e2e {
            println!(
                "untraced {:<38} {:>16.6} {}{}",
                m.name, m.value, m.unit, m.note
            );
        }
        per_layer(w, &phase, &reference, &delivery, &layers)
    } else {
        // Too heavy-tailed to gate (see README.md); printed, not emitted.
        let t = tail_metric("snapshot_tail_ms", &delivery.snapshot_ms);
        println!(
            "ungated {:<39} {:>16.6} {}{}",
            t.name, t.value, t.unit, t.note
        );
        e2e
    };
    let _ = std::fs::remove_dir_all(&state_root);

    let correct = checks.iter().all(|(_, ok)| *ok);
    for (what, ok) in &checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "operations: {} attempted, {} failed (failed_frac {})",
        tally.attempted,
        tally.failed,
        tally.failed_frac()
    );
    for m in &metrics {
        println!("{:<47} {:>16.6} {}{}", m.name, m.value, m.unit, m.note);
    }
    let mut incomplete = false;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            incomplete |= !m.value.is_finite();
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    if incomplete {
        eprintln!("perfbench: a metric has no finite value; the run is too small to measure it");
        std::process::exit(1);
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

fn alloc_counts(r: &Reference) -> Vec<(u64, u64, u64)> {
    r.costs
        .iter()
        .map(|c| (c.run_allocs, c.run_bytes, c.absorb_allocs))
        .collect()
}

fn end_to_end(phase: &CampaignPhase, delivery: &Delivery, tally: &Tally) -> Vec<Metric> {
    let med = |xs: &[f64]| median(xs).unwrap_or(f64::NAN);
    vec![
        Metric::new(
            "devices_per_s",
            phase.absorbed as f64 / phase.walls.iter().sum::<f64>(),
            "1/s",
        ),
        Metric::new(
            "cpu_s",
            phase.cpus.iter().sum::<f64>() + delivery.cpu_s,
            "s",
        ),
        Metric::new("peak_rss_mb", sys::peak_rss_mb(), "MB"),
        Metric::new("setup_s", med(&delivery.setup_s), "s"),
        Metric::new("push_p50_ms", med(&delivery.push_ms), "ms"),
        tail_metric("push_tail_ms", &delivery.push_ms),
        Metric::new("snapshot_p50_ms", med(&delivery.snapshot_ms), "ms"),
        Metric::new("ok_frac", 1.0 - tally.failed_frac(), "ratio"),
    ]
}

/// The tail of `samples` as a metric, its percentile and sample count
/// in the note; NaN when there are too few samples.
fn tail_metric(name: &str, samples: &[f64]) -> Metric {
    let t = tail(samples);
    let mut m = Metric::new(name, t.map_or(f64::NAN, |t| t.value), "ms");
    if let Some(t) = t {
        m.note = format!("  (p{:.1} of {} samples)", t.percentile, t.samples);
    }
    m
}

fn per_layer(
    w: Workload,
    phase: &CampaignPhase,
    reference: &Reference,
    delivery: &Delivery,
    layers: &layers::Layers,
) -> Vec<Metric> {
    // Only the strata matter here, not the seed or the size.
    let spec = w.spec(0, 1);
    let costs = &reference.costs;
    let n = costs.len() as f64;
    let sum = |f: fn(&campaign::DeviceCost) -> u64| costs.iter().map(f).sum::<u64>() as f64;
    let run_ns = sum(|c| c.run_ns);
    let absorb_ns = sum(|c| c.absorb_ns);
    let work_s = (run_ns + absorb_ns) / 1e9;
    let first_wall = phase.walls[0];

    let mut out = vec![Metric::new("shard.ms_per_device", run_ns / n / 1e6, "ms")];
    let mut cross_ns = 0.0;
    for name in stratum_names() {
        let class = spec.classes.iter().position(|c| c.name == name);
        let (count, ns) = costs
            .iter()
            .filter(|c| Some(c.class) == class)
            .fold((0u64, 0u64), |(k, t), c| (k + 1, t + c.run_ns));
        if name == CROSS_STRATUM {
            cross_ns = ns as f64;
        }
        let mut m = Metric::new(
            format!("shard.ms_per_device.{name}"),
            if count == 0 {
                0.0
            } else {
                ns as f64 / count as f64 / 1e6
            },
            "ms",
        );
        m.note = format!("  ({count} devices)");
        out.push(m);
    }
    let mut overhead = Metric::new("trace.wall_ratio", reference.loop_s / first_wall, "ratio");
    overhead.note = format!(
        "  (traced serial loop {:.3} s vs untraced run_campaign {:.3} s on {} workers)",
        reference.loop_s,
        first_wall,
        w.plan().workers
    );
    out.extend([
        Metric::new(
            format!("shard.share.{CROSS_STRATUM}"),
            cross_ns / run_ns,
            "ratio",
        ),
        Metric::new(
            "shard.allocs_per_device",
            sum(|c| c.run_allocs) / n,
            "count",
        ),
        Metric::new(
            "shard.alloc_bytes_per_device",
            sum(|c| c.run_bytes) / n,
            "bytes",
        ),
        Metric::new("collector.absorb_us_per_device", absorb_ns / n / 1e3, "us"),
        Metric::new(
            "collector.absorb_allocs_per_device",
            sum(|c| c.absorb_allocs) / n,
            "count",
        ),
        Metric::new("collector.finish_ms", reference.finish_ms, "ms"),
        Metric::new(
            "engine.efficiency",
            work_s / (w.plan().workers as f64 * first_wall),
            "ratio",
        ),
        Metric::new("engine.cpu_over_work", phase.cpus[0] / work_s, "ratio"),
        Metric::new("engine.reorder_peak", phase.reorder_peak as f64, "count"),
        Metric::new("framing.roundtrip_us", layers.framing_us, "us"),
        Metric::new("protocol.parse_us", layers.parse_us, "us"),
        Metric::new("ingest.merge_us", layers.merge_us, "us"),
        Metric::new("store.write_us", layers.store_write_us, "us"),
        Metric::new("ingest.snapshot_ms", layers.snapshot_ms, "ms"),
        Metric::new("daemon.status_us", layers.status_us, "us"),
        Metric::new(
            "daemon.peak_rss_mb",
            median(&delivery.daemon_rss_mb).unwrap_or(f64::NAN),
            "MB",
        ),
        tail_metric("snapshot_tail_ms", &delivery.snapshot_ms),
        tail_metric("loadgen.lag_tail_ms", &delivery.lag_ms),
        overhead,
    ]);
    out
}
