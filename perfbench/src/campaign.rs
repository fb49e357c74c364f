//! The campaign phase (untraced `run_campaign` calls) and the serial
//! reference pass (`run_device` + `Collector::absorb`, traced or not)
//! that checks its output and cuts the delivery phase's push frames.

use std::hint::black_box;
use std::time::{Duration, Instant};

use collectord::protocol::push_doc;
use fleet::{partition_range, run_campaign, run_device, CampaignSpec, Collector};
use obs::prof::thread_alloc_counts;
use obs::{Json, ToJson};

use crate::sys::cpu_seconds;
use crate::workload::{campaign_seed, Workload, DELIVERY_DEVICES, DELIVERY_SHARDS, PUSH_EVERY};

/// What the campaign phase measured.
#[derive(Debug, Clone, Default)]
pub struct CampaignPhase {
    /// Devices the campaigns were asked to simulate.
    pub attempted: u64,
    /// Devices the returned reports hold.
    pub absorbed: u64,
    /// Wall seconds of every `run_campaign` call, in campaign order.
    pub walls: Vec<f64>,
    /// CPU seconds of every `run_campaign` call.
    pub cpus: Vec<f64>,
    /// Highest reorder-buffer peak of any campaign.
    pub reorder_peak: usize,
    /// Campaign 0's report, rendered like `fleet.json`.
    pub first_json: String,
}

impl CampaignPhase {
    /// Run campaign `k` of workload `w` on `seed`, untraced.
    pub fn run(&mut self, w: Workload, seed: u64, k: u64) {
        let plan = w.plan();
        let spec = w.spec(campaign_seed(seed, k), plan.devices);
        let (c0, t0) = (cpu_seconds(), Instant::now());
        let (report, stats) = black_box(run_campaign(black_box(&spec), plan.workers));
        self.walls.push(t0.elapsed().as_secs_f64());
        self.cpus.push(cpu_seconds() - c0);
        self.attempted += spec.devices;
        self.absorbed += report.devices;
        self.reorder_peak = self.reorder_peak.max(stats.reorder_peak);
        if k == 0 {
            self.first_json = report.to_json().to_string_pretty();
        }
    }
}

/// The cost of one device in a traced reference pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceCost {
    /// Stratum index in the campaign spec.
    pub class: usize,
    /// `run_device` wall nanoseconds.
    pub run_ns: u64,
    /// Allocations made by `run_device`.
    pub run_allocs: u64,
    /// Bytes allocated by `run_device`.
    pub run_bytes: u64,
    /// `Collector::absorb` wall nanoseconds.
    pub absorb_ns: u64,
    /// Allocations made by `Collector::absorb`.
    pub absorb_allocs: u64,
}

/// The delivery sub-campaign's push frames, in send order.
#[derive(Debug, Clone)]
pub struct Frames {
    /// The sub-campaign the daemon expects.
    pub spec: CampaignSpec,
    /// Push payloads (`wire::framing` frame bodies), shards interleaved,
    /// each shard's `final` push last.
    pub payloads: Vec<Vec<u8>>,
    /// Every shard's final campaign state.
    pub finals: Vec<Json>,
}

impl Frames {
    /// The in-process merge of the shards' final states — what the
    /// daemon's `/snapshot` must serve once every push has landed.
    pub fn expected_snapshot(&self) -> String {
        fleet::merge_partials(&self.spec, &self.finals)
            .expect("final shard states tile the sub-campaign")
            .to_json()
            .to_string_pretty()
    }
}

/// One serial pass over a campaign.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The campaign report, rendered like `fleet.json`.
    pub json: String,
    /// Wall seconds of the device loop, frame cutting excluded.
    pub loop_s: f64,
    /// `Collector::finish` plus the JSON render, in ms.
    pub finish_ms: f64,
    /// Per-device costs; empty for an untraced pass.
    pub costs: Vec<DeviceCost>,
    /// The delivery phase's frames.
    pub frames: Frames,
}

/// Run every device of `spec` serially into a `Collector`, timing and
/// counting allocations around each call when `trace` is set. The
/// first [`DELIVERY_DEVICES`] partials are also folded, as
/// [`DELIVERY_SHARDS`] shard slices of the sub-campaign `sub`, into the
/// cumulative push frames a `--push-every` shard would send.
pub fn reference(spec: &CampaignSpec, sub: &CampaignSpec, trace: bool) -> Reference {
    assert!(sub.devices == DELIVERY_DEVICES && spec.devices >= sub.devices);
    let mut collector = Collector::new(spec);
    let mut cutter = Cutter::new(sub);
    let mut costs = Vec::with_capacity(if trace { spec.devices as usize } else { 0 });
    let mut cutting = Duration::ZERO;
    let started = Instant::now();
    for i in 0..spec.devices {
        let partial = if trace {
            let (a0, b0) = thread_alloc_counts();
            let t0 = Instant::now();
            let p = run_device(spec, i);
            let t1 = Instant::now();
            let (a1, b1) = thread_alloc_counts();
            collector.absorb(&p);
            let t2 = Instant::now();
            let (a2, _) = thread_alloc_counts();
            costs.push(DeviceCost {
                class: p.class,
                run_ns: nanos(t1 - t0),
                run_allocs: a1 - a0,
                run_bytes: b1 - b0,
                absorb_ns: nanos(t2 - t1),
                absorb_allocs: a2 - a1,
            });
            p
        } else {
            let p = run_device(spec, i);
            collector.absorb(&p);
            p
        };
        if i < sub.devices {
            let t = Instant::now();
            cutter.absorb(i, &partial);
            cutting += t.elapsed();
        }
    }
    let loop_s = (started.elapsed() - cutting).as_secs_f64();
    let t = Instant::now();
    let json = collector.finish().to_json().to_string_pretty();
    let finish_ms = t.elapsed().as_secs_f64() * 1e3;
    Reference {
        json,
        loop_s,
        finish_ms,
        costs,
        frames: cutter.frames(),
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Folds device partials into shard slices and cuts a cumulative push
/// every [`PUSH_EVERY`] devices, plus each shard's final push.
struct Cutter {
    spec: CampaignSpec,
    shards: Vec<(Collector, u64)>,
    pushes: Vec<Vec<Vec<u8>>>,
    finals: Vec<Json>,
}

impl Cutter {
    fn new(sub: &CampaignSpec) -> Cutter {
        let shards = (0..DELIVERY_SHARDS)
            .map(|s| {
                let (start, end) = partition_range(sub.devices, s, DELIVERY_SHARDS);
                (Collector::new_range(sub, start), end)
            })
            .collect();
        Cutter {
            spec: sub.clone(),
            shards,
            pushes: vec![Vec::new(); DELIVERY_SHARDS as usize],
            finals: Vec::new(),
        }
    }

    fn absorb(&mut self, index: u64, partial: &fleet::DevicePartial) {
        let s = self
            .shards
            .iter()
            .position(|(c, end)| (c.range_start()..*end).contains(&index))
            .expect("every sub-campaign device is in a shard");
        let (collector, end) = &mut self.shards[s];
        collector.absorb(partial);
        let label = format!("{s}/{DELIVERY_SHARDS}");
        // Like the engine's progress sink: a push every PUSH_EVERY
        // devices while the slice is unfinished, then the final one.
        let done = collector.next_index() == *end;
        if done || collector.devices_seen() % PUSH_EVERY == 0 {
            let state = collector.state_json();
            let payload = push_doc(&label, done, &state).to_string().into_bytes();
            self.pushes[s].push(payload);
            if done {
                self.finals.push(state);
            }
        }
    }

    fn frames(self) -> Frames {
        let longest = self.pushes.iter().map(Vec::len).max().unwrap_or(0);
        let mut payloads = Vec::new();
        for k in 0..longest {
            for shard in &self.pushes {
                if let Some(p) = shard.get(k) {
                    payloads.push(p.clone());
                }
            }
        }
        Frames {
            spec: self.spec,
            payloads,
            finals: self.finals,
        }
    }
}
