//! Counters, gauges, and fixed-bucket histograms behind a [`Registry`].
//!
//! A `Registry` is a cheap clonable handle. `Registry::disabled()` costs
//! nothing: every metric handle it vends is `None` inside and every
//! operation is a single branch. An enabled registry interns metrics by
//! name in `BTreeMap`s, so snapshots are deterministically ordered and
//! two requests for the same name share one underlying cell.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::json::{Json, ToJson};
use crate::span::SpanTimer;

/// Cap on raw samples retained per histogram for exact quantiles. The
/// reservoir is first-N (deterministic); past the cap only the bucket
/// counts keep growing and `sample_overflow` records how many raw values
/// were not retained.
pub const SAMPLE_CAP: usize = 4096;

/// Default bucket upper bounds for millisecond-scale latencies, spanning
/// sub-ms kernel costs up to multi-second PSM stalls.
pub fn default_ms_buckets() -> Vec<f64> {
    vec![
        0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 15.0, 25.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0,
        5000.0,
    ]
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicI64>>,
    hists: BTreeMap<String, Arc<Mutex<HistInner>>>,
}

/// Handle to a metrics registry; `None` inside means disabled/no-op.
#[derive(Clone, Default)]
pub struct Registry(Option<Arc<Mutex<Inner>>>);

impl Registry {
    /// An enabled registry.
    pub fn new() -> Registry {
        Registry(Some(Arc::new(Mutex::new(Inner::default()))))
    }

    /// A disabled registry: allocates nothing, every operation no-ops.
    pub fn disabled() -> Registry {
        Registry(None)
    }

    /// Whether this registry records anything (false for
    /// [`Registry::disabled`]).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str) -> Counter {
        Counter(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.counters
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone()
        }))
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.gauges
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0)))
                .clone()
        }))
    }

    /// Get or create a histogram with the given bucket upper bounds.
    /// Bounds must be sorted ascending; an existing histogram keeps its
    /// original bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        Histogram(self.0.as_ref().map(|inner| {
            let mut g = inner.lock().unwrap();
            g.hists
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Mutex::new(HistInner::new(bounds))))
                .clone()
        }))
    }

    /// Get or create a histogram with [`default_ms_buckets`].
    pub fn histogram_ms(&self, name: &str) -> Histogram {
        self.histogram(name, &default_ms_buckets())
    }

    /// Start a wall-clock span recording into histogram `name` (in ms)
    /// when dropped.
    pub fn span(&self, name: &str) -> SpanTimer {
        SpanTimer::start(self.histogram_ms(name))
    }

    /// Merge a [`Snapshot`] (typically taken from a per-shard registry)
    /// into this registry: counters and gauges add, histograms add
    /// bucket-wise (created with the snapshot's bounds when absent),
    /// retained raw samples append up to [`SAMPLE_CAP`] with the spill
    /// counted in `sample_overflow`. No-op on a disabled registry.
    ///
    /// Counter/gauge/bucket arithmetic — histogram sums included, via
    /// their integer-nanosecond accumulators — is exact integer
    /// addition, so merged totals are independent of merge order and
    /// grouping. The one order-sensitive piece of state is the first-N
    /// sample reservoir: callers that need bit-identical output (the
    /// fleet collector) must merge in a fixed order so the same samples
    /// are retained.
    pub fn merge_snapshot(&self, snap: &Snapshot) {
        let Some(inner) = &self.0 else { return };
        let mut g = inner.lock().unwrap();
        for (name, v) in &snap.counters {
            g.counters
                .entry(name.clone())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .fetch_add(*v, Ordering::Relaxed);
        }
        for (name, v) in &snap.gauges {
            g.gauges
                .entry(name.clone())
                .or_insert_with(|| Arc::new(AtomicI64::new(0)))
                .fetch_add(*v, Ordering::Relaxed);
        }
        for hs in &snap.histograms {
            let cell = g
                .hists
                .entry(hs.name.clone())
                .or_insert_with(|| Arc::new(Mutex::new(HistInner::new(&hs.bounds))))
                .clone();
            cell.lock().unwrap().merge(hs);
        }
    }

    /// A deterministic, name-sorted snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        if let Some(inner) = &self.0 {
            let g = inner.lock().unwrap();
            for (name, c) in &g.counters {
                snap.counters
                    .push((name.clone(), c.load(Ordering::Relaxed)));
            }
            for (name, v) in &g.gauges {
                snap.gauges.push((name.clone(), v.load(Ordering::Relaxed)));
            }
            for (name, h) in &g.hists {
                snap.histograms.push(h.lock().unwrap().snapshot(name));
            }
        }
        snap
    }
}

/// Monotonic event counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 when vended by a disabled registry).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Instantaneous signed level (queue depth, dozing stations, ...).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Arc<AtomicI64>>);

impl Gauge {
    /// Set the level to `v`.
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.store(v, Ordering::Relaxed);
        }
    }

    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.add(-n);
    }

    /// Current level (0 when vended by a disabled registry).
    pub fn get(&self) -> i64 {
        self.0.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistInner {
    bounds: Vec<f64>,
    /// `buckets[i]` counts observations `<= bounds[i]`; the final slot
    /// is the overflow bucket (`> bounds.last()`).
    buckets: Vec<u64>,
    count: u64,
    /// Sum of observations in integer nanoseconds (observations are
    /// millisecond-scale f64s). Integer addition is exactly associative
    /// and commutative, so merged registries agree bit-for-bit however
    /// the merges were grouped — the property the fleet checkpoint /
    /// partial-report formats rely on.
    sum_ns: i128,
    min: f64,
    max: f64,
    samples: Vec<f64>,
    sample_overflow: u64,
}

impl HistInner {
    fn new(bounds: &[f64]) -> HistInner {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        HistInner {
            bounds: bounds.to_vec(),
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum_ns: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            samples: Vec::new(),
            sample_overflow: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += (v * 1e6).round() as i128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if self.samples.len() < SAMPLE_CAP {
            self.samples.push(v);
        } else {
            self.sample_overflow += 1;
        }
    }

    fn merge(&mut self, snap: &HistogramSnapshot) {
        assert_eq!(
            self.bounds, snap.bounds,
            "merging histograms with mismatched bounds"
        );
        for (a, b) in self.buckets.iter_mut().zip(&snap.buckets) {
            *a += b;
        }
        self.count += snap.count;
        self.sum_ns += snap.sum_ns;
        if snap.count > 0 {
            self.min = self.min.min(snap.min);
            self.max = self.max.max(snap.max);
        }
        let take = snap.samples.len().min(SAMPLE_CAP - self.samples.len());
        self.samples.extend_from_slice(&snap.samples[..take]);
        self.sample_overflow += snap.sample_overflow + (snap.samples.len() - take) as u64;
    }

    fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.clone(),
            buckets: self.buckets.clone(),
            count: self.count,
            sum: self.sum_ns as f64 / 1e6,
            sum_ns: self.sum_ns,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            samples: self.samples.clone(),
            sample_overflow: self.sample_overflow,
        }
    }
}

/// Fixed-bucket latency/size histogram.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Arc<Mutex<HistInner>>>);

impl Histogram {
    /// Whether this handle records anywhere (false for handles vended
    /// by a disabled registry).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Record one observation.
    pub fn observe(&self, v: f64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().observe(v);
        }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.as_ref().map_or(0, |h| h.lock().unwrap().count)
    }
}

/// Point-in-time state of one histogram.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Bucket upper bounds, ascending.
    pub bounds: Vec<f64>,
    /// `buckets[i]` counts observations `<= bounds[i]`; the final slot is
    /// the overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations (derived from [`sum_ns`](Self::sum_ns), so it
    /// is identical under any merge grouping).
    pub sum: f64,
    /// The exact sum accumulator, integer nanoseconds. Merges add these,
    /// never the float `sum`, which keeps registry merging exactly
    /// associative and commutative.
    pub sum_ns: i128,
    /// Smallest observation (0 when `count == 0`).
    pub min: f64,
    /// Largest observation (0 when `count == 0`).
    pub max: f64,
    /// First-N raw samples (deterministic reservoir, cap [`SAMPLE_CAP`]).
    pub samples: Vec<f64>,
    /// Observations beyond the sample cap (bucket counts still include
    /// them; quantiles from `samples` become approximate).
    pub sample_overflow: u64,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Quantile from the retained raw samples (linear interpolation,
    /// R type-7 — same convention as `am_stats::quantile`). Exact while
    /// `sample_overflow == 0`.
    pub fn quantile(&self, p: f64) -> f64 {
        quantile_sorted(&self.sorted_samples(), p)
    }

    /// A sorted copy of the retained samples.
    fn sorted_samples(&self) -> Vec<f64> {
        let mut xs = self.samples.clone();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        xs
    }

    /// Median from the retained samples.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile from the retained samples.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile from the retained samples.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }
}

/// R type-7 quantile of already-sorted `xs` (0 when empty).
fn quantile_sorted(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let h = p.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    xs[lo] + (xs[hi] - xs[lo]) * (h - lo as f64)
}

impl ToJson for HistogramSnapshot {
    fn to_json(&self) -> Json {
        // One sort serves all three quantiles.
        let sorted = self.sorted_samples();
        let mut obj = Json::object();
        obj.set("name", &self.name);
        obj.set("count", self.count);
        obj.set("sum", self.sum);
        obj.set("min", self.min);
        obj.set("max", self.max);
        obj.set("mean", self.mean());
        obj.set("p50", quantile_sorted(&sorted, 0.50));
        obj.set("p95", quantile_sorted(&sorted, 0.95));
        obj.set("p99", quantile_sorted(&sorted, 0.99));
        obj.set("bounds", &self.bounds);
        obj.set("buckets", &self.buckets);
        obj.set("sample_overflow", self.sample_overflow);
        obj
    }
}

/// Deterministic (name-sorted) view of a whole registry.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// `(name, value)` per counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` per gauge, name-sorted.
    pub gauges: Vec<(String, i64)>,
    /// Per-histogram state, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// Value of counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Level of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// State of histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// Version tag written into [`Snapshot::state_json`] payloads;
/// [`Snapshot::from_state_json`] rejects anything newer.
pub const SNAPSHOT_STATE_VERSION: u64 = 1;

/// A failure to reconstruct a [`Snapshot`] from its serialized state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotStateError(pub String);

impl std::fmt::Display for SnapshotStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "snapshot state error: {}", self.0)
    }
}

impl std::error::Error for SnapshotStateError {}

impl Snapshot {
    /// Serialize the **full** snapshot state — unlike [`ToJson`], which
    /// emits a summary view (derived quantiles, no raw samples) — so the
    /// snapshot can be reconstructed exactly by
    /// [`Snapshot::from_state_json`] and merged into a fresh
    /// [`Registry`] without losing a bit. Histogram `sum_ns`
    /// accumulators travel as decimal strings (JSON numbers are doubles,
    /// `i128` is not).
    ///
    /// This is the payload the fleet campaign checkpoint and
    /// partial-report formats embed: restore + continue must equal an
    /// uninterrupted run byte-for-byte.
    pub fn state_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in &self.counters {
            counters.set(name, *v);
        }
        let mut gauges = Json::object();
        for (name, v) in &self.gauges {
            gauges.set(name, *v as f64);
        }
        let mut hists = Json::array();
        for h in &self.histograms {
            let mut obj = Json::object();
            obj.set("name", &h.name);
            obj.set("bounds", &h.bounds);
            obj.set("buckets", &h.buckets);
            obj.set("count", h.count);
            obj.set("sum_ns", h.sum_ns.to_string());
            obj.set("min", h.min);
            obj.set("max", h.max);
            obj.set("samples", &h.samples);
            obj.set("sample_overflow", h.sample_overflow);
            hists.push(obj);
        }
        let mut obj = Json::object();
        obj.set("version", SNAPSHOT_STATE_VERSION);
        obj.set("counters", counters);
        obj.set("gauges", gauges);
        obj.set("histograms", hists);
        obj
    }

    /// Reconstruct a snapshot from [`Snapshot::state_json`] output. The
    /// round trip is exact: merging the result into a registry produces
    /// the same state as merging the original.
    pub fn from_state_json(state: &Json) -> Result<Snapshot, SnapshotStateError> {
        let err = |msg: &str| SnapshotStateError(msg.to_string());
        let version = state
            .get("version")
            .and_then(Json::as_f64)
            .ok_or_else(|| err("missing version"))? as u64;
        if version > SNAPSHOT_STATE_VERSION {
            return Err(SnapshotStateError(format!(
                "snapshot state version {version} is newer than supported \
                 {SNAPSHOT_STATE_VERSION}"
            )));
        }
        let entries = |key: &str| -> Result<&[(String, Json)], SnapshotStateError> {
            match state.get(key) {
                Some(Json::Obj(entries)) => Ok(entries),
                _ => Err(SnapshotStateError(format!("missing {key} object"))),
            }
        };
        let mut snap = Snapshot::default();
        for (name, v) in entries("counters")? {
            let v = v.as_f64().ok_or_else(|| err("counter not a number"))?;
            snap.counters.push((name.clone(), v as u64));
        }
        for (name, v) in entries("gauges")? {
            let v = v.as_f64().ok_or_else(|| err("gauge not a number"))?;
            snap.gauges.push((name.clone(), v as i64));
        }
        let floats = |h: &Json, key: &str| -> Result<Vec<f64>, SnapshotStateError> {
            h.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| SnapshotStateError(format!("missing {key} array")))?
                .iter()
                .map(|v| {
                    v.as_f64()
                        .ok_or_else(|| SnapshotStateError(format!("{key} entry not a number")))
                })
                .collect()
        };
        let num = |h: &Json, key: &str| -> Result<f64, SnapshotStateError> {
            h.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| SnapshotStateError(format!("missing {key}")))
        };
        for h in state
            .get("histograms")
            .and_then(Json::as_arr)
            .ok_or_else(|| err("missing histograms array"))?
        {
            let sum_ns = h
                .get("sum_ns")
                .and_then(Json::as_str)
                .ok_or_else(|| err("missing sum_ns"))?
                .parse::<i128>()
                .map_err(|e| SnapshotStateError(format!("bad sum_ns: {e}")))?;
            let bounds = floats(h, "bounds")?;
            let buckets: Vec<u64> = floats(h, "buckets")?.iter().map(|&v| v as u64).collect();
            if buckets.len() != bounds.len() + 1 {
                return Err(err("bucket count must be bounds + 1"));
            }
            snap.histograms.push(HistogramSnapshot {
                name: h
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| err("missing histogram name"))?
                    .to_string(),
                bounds,
                buckets,
                count: num(h, "count")? as u64,
                sum: sum_ns as f64 / 1e6,
                sum_ns,
                min: num(h, "min")?,
                max: num(h, "max")?,
                samples: floats(h, "samples")?,
                sample_overflow: num(h, "sample_overflow")? as u64,
            });
        }
        Ok(snap)
    }
}

impl ToJson for Snapshot {
    fn to_json(&self) -> Json {
        let mut counters = Json::object();
        for (name, v) in &self.counters {
            counters.set(name, *v);
        }
        let mut gauges = Json::object();
        for (name, v) in &self.gauges {
            gauges.set(name, *v);
        }
        let mut hists = Json::array();
        for h in &self.histograms {
            hists.push(h.to_json());
        }
        let mut obj = Json::object();
        obj.set("counters", counters);
        obj.set("gauges", gauges);
        obj.set("histograms", hists);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_a_noop() {
        let r = Registry::disabled();
        let c = r.counter("x");
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        let g = r.gauge("y");
        g.set(5);
        assert_eq!(g.get(), 0);
        let h = r.histogram_ms("z");
        h.observe(1.0);
        assert_eq!(h.count(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn same_name_shares_one_cell() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.snapshot().counter("a"), Some(3));
    }

    #[test]
    fn bucket_boundaries_are_le() {
        let r = Registry::new();
        let h = r.histogram("h", &[1.0, 10.0]);
        for v in [0.5, 1.0, 1.0001, 10.0, 11.0] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("h").unwrap();
        // <=1: {0.5, 1.0}; <=10: {1.0001, 10.0}; >10: {11.0}
        assert_eq!(hs.buckets, vec![2, 2, 1]);
        assert_eq!(hs.count, 5);
        assert_eq!(hs.min, 0.5);
        assert_eq!(hs.max, 11.0);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.gauge("mid").set(1);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }

    #[test]
    fn quantiles_match_r7() {
        let r = Registry::new();
        let h = r.histogram("q", &[100.0]);
        for v in 1..=100 {
            h.observe(v as f64);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("q").unwrap();
        assert!((hs.p50() - 50.5).abs() < 1e-9);
        assert!((hs.quantile(0.0) - 1.0).abs() < 1e-9);
        assert!((hs.quantile(1.0) - 100.0).abs() < 1e-9);
        assert!((hs.p95() - 95.05).abs() < 1e-9);
    }

    #[test]
    fn to_json_quantiles_equal_quantile() {
        // Unsorted, with duplicates; then a reservoir filled to the cap
        // (with spill) in a scrambled order.
        let small = [7.5, 1.0, 3.25, 7.5, 0.5, 3.25, 11.0, 1.0, 9.0];
        let full: Vec<f64> = (0..SAMPLE_CAP + 100)
            .map(|i| ((i * 7919) % 1009) as f64 * 0.25)
            .collect();
        for values in [&small[..], &full[..]] {
            let r = Registry::new();
            let h = r.histogram_ms("q");
            for &v in values {
                h.observe(v);
            }
            let snap = r.snapshot();
            let hs = snap.histogram("q").unwrap();
            assert_eq!(hs.samples.len(), values.len().min(SAMPLE_CAP));
            let j = hs.to_json();
            for (key, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
                let got = j.get(key).and_then(Json::as_f64).unwrap();
                assert_eq!(got.to_bits(), hs.quantile(p).to_bits(), "{key}");
            }
        }
    }

    #[test]
    fn merge_snapshot_equals_direct_ingest() {
        // Two shard registries vs one registry fed everything: merged
        // snapshots must agree exactly (integer-valued observations so
        // even the float sums are exact).
        let shard_a = Registry::new();
        let shard_b = Registry::new();
        let direct = Registry::new();
        for v in [1u64, 3, 7] {
            shard_a.counter("probes").add(v);
            direct.counter("probes").add(v);
        }
        shard_b.counter("probes").add(5);
        direct.counter("probes").add(5);
        shard_b.counter("only_b").inc();
        direct.counter("only_b").inc();
        shard_a.gauge("depth").add(4);
        direct.gauge("depth").add(4);
        for v in [2.0f64, 8.0, 64.0] {
            shard_a.histogram_ms("du_ms").observe(v);
            direct.histogram_ms("du_ms").observe(v);
        }
        shard_b.histogram_ms("du_ms").observe(16.0);
        direct.histogram_ms("du_ms").observe(16.0);

        let merged = Registry::new();
        merged.merge_snapshot(&shard_a.snapshot());
        merged.merge_snapshot(&shard_b.snapshot());
        assert_eq!(
            merged.snapshot().to_json().to_string(),
            direct.snapshot().to_json().to_string()
        );
    }

    #[test]
    fn merge_snapshot_is_order_independent_for_integer_state() {
        let shards: Vec<Registry> = (0..4)
            .map(|i| {
                let r = Registry::new();
                r.counter("c").add(i + 1);
                r.histogram("h", &[10.0, 100.0]).observe((3 * i + 1) as f64);
                r
            })
            .collect();
        let snaps: Vec<Snapshot> = shards.iter().map(|r| r.snapshot()).collect();
        let fwd = Registry::new();
        for s in &snaps {
            fwd.merge_snapshot(s);
        }
        let rev = Registry::new();
        for s in snaps.iter().rev() {
            rev.merge_snapshot(s);
        }
        let a = fwd.snapshot();
        let b = rev.snapshot();
        assert_eq!(a.counter("c"), b.counter("c"));
        let (ha, hb) = (a.histogram("h").unwrap(), b.histogram("h").unwrap());
        assert_eq!(ha.buckets, hb.buckets);
        assert_eq!(ha.count, hb.count);
        assert_eq!(ha.sum, hb.sum);
        assert_eq!(ha.min, hb.min);
        assert_eq!(ha.max, hb.max);
    }

    #[test]
    fn merge_snapshot_caps_samples_and_tracks_spill() {
        let shard = Registry::new();
        let h = shard.histogram("big", &[1e9]);
        for v in 0..SAMPLE_CAP {
            h.observe(v as f64);
        }
        let snap = shard.snapshot();
        let merged = Registry::new();
        merged.merge_snapshot(&snap);
        merged.merge_snapshot(&snap);
        let out = merged.snapshot();
        let hs = out.histogram("big").unwrap();
        assert_eq!(hs.samples.len(), SAMPLE_CAP);
        assert_eq!(hs.sample_overflow, SAMPLE_CAP as u64);
        assert_eq!(hs.count, 2 * SAMPLE_CAP as u64);
        // Disabled registries ignore merges entirely.
        let off = Registry::disabled();
        off.merge_snapshot(&snap);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn snapshot_state_round_trip_is_exact() {
        let r = Registry::new();
        r.counter("probes").add(41);
        r.gauge("depth").set(-3);
        let h = r.histogram_ms("du_ms");
        for v in [0.125, 7.25, 3001.5] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let state = snap.state_json();
        let restored =
            Snapshot::from_state_json(&Json::parse(&state.to_string_pretty()).unwrap()).unwrap();
        assert_eq!(restored.counters, snap.counters);
        assert_eq!(restored.gauges, snap.gauges);
        assert_eq!(restored.histograms.len(), snap.histograms.len());
        let (a, b) = (&restored.histograms[0], &snap.histograms[0]);
        assert_eq!(a.sum_ns, b.sum_ns);
        assert_eq!(a.samples, b.samples);
        assert_eq!(
            restored.to_json().to_string_pretty(),
            snap.to_json().to_string_pretty()
        );
        // Restoring into a fresh registry and continuing equals the
        // uninterrupted registry exactly.
        let resumed = Registry::new();
        resumed.merge_snapshot(&restored);
        resumed.histogram_ms("du_ms").observe(42.0);
        h.observe(42.0);
        assert_eq!(
            resumed.snapshot().to_json().to_string_pretty(),
            r.snapshot().to_json().to_string_pretty()
        );
    }

    #[test]
    fn snapshot_state_rejects_newer_versions() {
        let snap = Registry::new().snapshot();
        let mut state = snap.state_json();
        state.set("version", (SNAPSHOT_STATE_VERSION + 1) as f64);
        assert!(Snapshot::from_state_json(&state).is_err());
        assert!(Snapshot::from_state_json(&Json::object()).is_err());
    }

    #[test]
    fn merged_histogram_sums_are_grouping_independent() {
        // (A ⊕ B) ⊕ C must equal A ⊕ (B ⊕ C) on the full state, even for
        // float-valued observations — the integer-nanosecond accumulator
        // makes the sum exact.
        let shards: Vec<Snapshot> = (0..3)
            .map(|i| {
                let r = Registry::new();
                let h = r.histogram("h", &[1.0, 10.0]);
                h.observe(0.1 + 0.7 * i as f64);
                h.observe(5.3 * (i + 1) as f64);
                r.snapshot()
            })
            .collect();
        let left = Registry::new();
        left.merge_snapshot(&shards[0]);
        left.merge_snapshot(&shards[1]);
        let left_ab = left.snapshot();
        let right_bc = {
            let r = Registry::new();
            r.merge_snapshot(&shards[1]);
            r.merge_snapshot(&shards[2]);
            r.snapshot()
        };
        let grouped_left = Registry::new();
        grouped_left.merge_snapshot(&left_ab);
        grouped_left.merge_snapshot(&shards[2]);
        let grouped_right = Registry::new();
        grouped_right.merge_snapshot(&shards[0]);
        grouped_right.merge_snapshot(&right_bc);
        assert_eq!(
            grouped_left.snapshot().to_json().to_string_pretty(),
            grouped_right.snapshot().to_json().to_string_pretty()
        );
        let (a, b) = (grouped_left.snapshot(), grouped_right.snapshot());
        assert_eq!(
            a.histogram("h").unwrap().sum_ns,
            b.histogram("h").unwrap().sum_ns
        );
    }

    #[test]
    fn sample_reservoir_caps_and_counts_overflow() {
        let r = Registry::new();
        let h = r.histogram("cap", &[1e9]);
        for v in 0..(SAMPLE_CAP + 10) {
            h.observe(v as f64);
        }
        let snap = r.snapshot();
        let hs = snap.histogram("cap").unwrap();
        assert_eq!(hs.samples.len(), SAMPLE_CAP);
        assert_eq!(hs.sample_overflow, 10);
        assert_eq!(hs.count, (SAMPLE_CAP + 10) as u64);
    }
}
