//! The ingest state machine: cumulative shard partials in, a gap-free
//! merged campaign out.
//!
//! Shards push *cumulative* state — each push for a given
//! `range_start` supersedes the previous one — so the protocol is
//! naturally idempotent under loss, duplication, and reordering:
//!
//! * a re-sent push is a [`PushOutcome::Duplicate`] no-op,
//! * a reordered older cumulative push is [`PushOutcome::Stale`] and
//!   dropped,
//! * a push for a slice that collides with a different shard's slice is
//!   a typed [`IngestError::Overlap`] rejection.
//!
//! Only **final** slices (`final: true`, the shard's range complete)
//! fold into the merged collector, and only in device-index order —
//! the same fingerprint-validated [`fleet::Collector::absorb_state`]
//! algebra `repro fleet-merge` uses — so once every partition lands,
//! [`Ingest::snapshot_pretty`] is byte-identical to the one-shot merge
//! and to an uninterrupted single-process run. Mid-campaign, a *view*
//! overlays the buffered (non-final or out-of-order) slices on the
//! merged prefix so `/snapshot` and the dashboard always show current
//! totals.

use std::collections::BTreeMap;
use std::time::Instant;

use fleet::{CampaignSpec, CampaignStateError, Collector};
use obs::Json;
use wire::telemetry::ShardTelemetry;

use crate::protocol::{Ack, IngestError, PushOutcome};
use crate::store::{RecoveryInfo, Store, StoreError};

/// Shards whose last heartbeat is older than this are excluded from
/// throughput and ETA math: a stalled shard's historical rate says
/// nothing about when the campaign will finish.
pub const STALE_AFTER_SECS: f64 = 30.0;

/// Per-shard ingest bookkeeping, surfaced on `/metrics` (labelled
/// series) and the dashboard.
#[derive(Debug, Clone)]
pub struct ShardInfo {
    /// First device index of the shard's slice.
    pub range_start: u64,
    /// Devices covered by the shard's latest cumulative push.
    pub devices_pushed: u64,
    /// Pushes accepted from this shard (including duplicates/stale).
    pub pushes: u64,
    /// Payload bytes received from this shard.
    pub bytes: u64,
    /// Whether the shard declared its slice complete.
    pub done: bool,
    /// When the last push arrived (heartbeat for stall detection).
    pub last_push: Instant,
    /// Devices/sec derived from consecutive push deltas (`None` until
    /// two device-advancing pushes arrive far enough apart to divide
    /// safely).
    pub rate_dps: Option<f64>,
    /// The shard's self-reported live telemetry, when its engine sent
    /// any (worker rates, queue depth, profiling phase split).
    pub telemetry: Option<ShardTelemetry>,
}

impl ShardInfo {
    /// Best devices/sec estimate: the daemon-derived push-delta rate,
    /// falling back to the shard's self-reported figure.
    pub fn best_rate_dps(&self) -> Option<f64> {
        self.rate_dps.or_else(|| {
            self.telemetry
                .as_ref()
                .map(|t| t.devices_per_sec)
                .filter(|r| *r > 0.0)
        })
    }
}

struct Pending {
    collector: Collector,
    done: bool,
}

/// The daemon's campaign state. One `Ingest` per expected campaign;
/// pushes are validated against the campaign's
/// [`CampaignSpec::fingerprint`] before anything is merged.
pub struct Ingest {
    spec: CampaignSpec,
    /// Gap-free merged prefix: only final slices, in device order.
    merged: Collector,
    /// `(range_start, devices)` of every final slice already folded.
    absorbed: Vec<(u64, u64)>,
    /// Buffered cumulative slices keyed by `range_start`.
    pending: BTreeMap<u64, Pending>,
    /// Per-shard-label bookkeeping.
    shards: BTreeMap<String, ShardInfo>,
    /// Optional on-disk journal: accepted pushes persist here *before*
    /// they are acked, so an acked push survives a daemon kill.
    store: Option<Store>,
    /// What recovery restored, when this ingest came from a journal.
    recovery: Option<RecoveryInfo>,
    /// Set when a journal write failed after in-memory state already
    /// changed. While set, *every* push (even an idempotent duplicate)
    /// must first re-sync the full journal before it may be acked —
    /// otherwise a duplicate's ack would claim durability the disk
    /// never delivered.
    dirty: bool,
}

impl Ingest {
    /// An empty ingest for `spec`.
    pub fn new(spec: CampaignSpec) -> Ingest {
        let merged = Collector::new(&spec);
        Ingest {
            spec,
            merged,
            absorbed: Vec::new(),
            pending: BTreeMap::new(),
            shards: BTreeMap::new(),
            store: None,
            recovery: None,
            dirty: false,
        }
    }

    /// An ingest journaling to (and recovered from) `store`. Whatever
    /// the journal holds for `spec` — the merged prefix, its
    /// absorbed-slice ledger, buffered slices — is restored first;
    /// contiguous final slices that became foldable are compacted
    /// immediately. Every subsequent accepted push is persisted before
    /// it is acked.
    pub fn with_store(spec: CampaignSpec, store: Store) -> Result<Ingest, StoreError> {
        let recovered = store.recover(&spec)?;
        let merged = recovered.merged.unwrap_or_else(|| Collector::new(&spec));
        let mut pending = BTreeMap::new();
        for s in recovered.slices {
            pending.insert(
                s.start,
                Pending {
                    collector: s.collector,
                    done: s.done,
                },
            );
        }
        let mut ingest = Ingest {
            spec,
            merged,
            absorbed: recovered.absorbed,
            pending,
            shards: BTreeMap::new(),
            store: Some(store),
            recovery: Some(recovered.info),
            dirty: false,
        };
        // Buffered finals that are contiguous with the restored prefix
        // fold now, exactly as they would have on the next push.
        let folded = ingest.drain().map_err(|e| StoreError::Corrupt {
            path: ingest
                .store
                .as_ref()
                .map(|s| s.slice_path(e.start))
                .unwrap_or_default(),
            message: e.error.0,
        })?;
        ingest.persist(None, &folded)?;
        Ok(ingest)
    }

    /// Recovery provenance, when this ingest was restored from a
    /// journal (surfaced on `/status` and `/healthz`).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.recovery.as_ref()
    }

    /// Persist the journal side of one accepted push (or of recovery
    /// compaction, with `pushed_start = None`): the merged prefix when
    /// the frontier advanced, the pushed slice if it is still buffered,
    /// and the removal of every slice file the drain folded.
    fn persist(&self, pushed_start: Option<u64>, folded: &[u64]) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        if !folded.is_empty() {
            store.write_merged(&self.merged, &self.absorbed)?;
        }
        if let Some(start) = pushed_start {
            if let Some(p) = self.pending.get(&start) {
                store.write_slice(&p.collector, p.done)?;
            }
        }
        for &s in folded {
            store.remove_slice(s)?;
        }
        Ok(())
    }

    /// Rewrite the whole journal from in-memory state — the recovery
    /// path for a previously failed incremental write. Slice files for
    /// slices that folded since are left behind; restart-recovery
    /// discards anything behind the merged frontier anyway.
    fn resync_store(&mut self) -> Result<(), StoreError> {
        if let Some(store) = &self.store {
            store.write_merged(&self.merged, &self.absorbed)?;
            for p in self.pending.values() {
                store.write_slice(&p.collector, p.done)?;
            }
        }
        self.dirty = false;
        Ok(())
    }

    /// Flush everything to the journal (merged prefix, every buffered
    /// slice, and a rendered `snapshot.json`) — the SIGTERM/SIGINT
    /// shutdown path. A no-op without a store.
    pub fn flush_to_store(&self) -> Result<(), StoreError> {
        let Some(store) = &self.store else {
            return Ok(());
        };
        store.write_merged(&self.merged, &self.absorbed)?;
        for p in self.pending.values() {
            store.write_slice(&p.collector, p.done)?;
        }
        store.write_raw("snapshot.json", &self.snapshot_pretty())?;
        Ok(())
    }

    /// The campaign this ingest expects.
    pub fn spec(&self) -> &CampaignSpec {
        &self.spec
    }

    /// Devices folded into the gap-free merged prefix.
    pub fn devices_absorbed(&self) -> u64 {
        self.merged.devices_seen()
    }

    /// Devices in the live view: merged prefix plus buffered slices.
    pub fn devices_view(&self) -> u64 {
        self.merged.devices_seen()
            + self
                .pending
                .values()
                .map(|p| p.collector.devices_seen())
                .sum::<u64>()
    }

    /// Whether the whole population has been absorbed gap-free.
    pub fn complete(&self) -> bool {
        self.merged.devices_seen() == self.spec.devices
    }

    /// Per-shard bookkeeping, label-sorted.
    pub fn shards(&self) -> &BTreeMap<String, ShardInfo> {
        &self.shards
    }

    /// Ingest one push: validate, buffer or fold, and answer. `bytes`
    /// is the frame payload size (bookkeeping only). Rejected pushes
    /// leave every piece of campaign state untouched, with one
    /// exception that validation makes unreachable: a buffered final
    /// slice that fails to fold is dropped, and the push reports
    /// `bad-state`.
    pub fn push(
        &mut self,
        shard: &str,
        state: &Json,
        done: bool,
        bytes: u64,
    ) -> Result<Ack, IngestError> {
        // A previous journal write failed *after* in-memory state had
        // already changed. Until the journal is whole again no push may
        // be acked — not even an idempotent Duplicate, whose ack would
        // otherwise claim a durability the disk never delivered.
        if self.dirty {
            self.resync_store()
                .map_err(|e| IngestError::Storage(e.to_string()))?;
        }
        let c = Collector::from_state_json(state).map_err(|e| IngestError::BadState(e.0))?;
        c.verify_spec(&self.spec)
            .map_err(|e| IngestError::SpecMismatch(e.0))?;
        let (start, count) = (c.range_start(), c.devices_seen());
        let end = start + count;
        if end > self.spec.devices {
            return Err(IngestError::RangeOutOfBounds {
                start,
                end,
                devices: self.spec.devices,
            });
        }

        let outcome = self.classify_and_store(start, count, c, done)?;
        if matches!(outcome, PushOutcome::Absorbed | PushOutcome::Buffered) {
            let folded = match self.drain() {
                Ok(folded) => folded,
                Err(e) => {
                    // The drain dropped the slice that would not fold;
                    // drop its journal file too, or recovery would load
                    // it again. Slices folded before it are not in the
                    // journal yet: the next push re-syncs it.
                    if let Some(store) = &self.store {
                        let _ = store.remove_slice(e.start);
                    }
                    self.dirty = true;
                    return Err(IngestError::BadState(e.error.0));
                }
            };
            // Durability before acknowledgement: if the journal cannot
            // hold the push, the shard gets a retryable `storage` error
            // and re-sends its cumulative state later.
            if let Err(e) = self.persist(Some(start), &folded) {
                self.dirty = true;
                return Err(IngestError::Storage(e.to_string()));
            }
        }
        self.note_shard(shard, start, count, done, bytes);

        // `Absorbed` only if the drain actually advanced past this
        // slice; a buffered-behind-a-gap final stays `Buffered`.
        let outcome = match outcome {
            PushOutcome::Buffered if self.merged.next_index() >= end && count > 0 => {
                PushOutcome::Absorbed
            }
            o => o,
        };
        Ok(Ack {
            outcome,
            devices_absorbed: self.devices_absorbed(),
            devices_view: self.devices_view(),
            complete: self.complete(),
        })
    }

    /// Decide what to do with a validated slice and stash it if it is
    /// new. Returns `Buffered` for anything that may drain, or the
    /// idempotent outcomes.
    fn classify_and_store(
        &mut self,
        start: u64,
        count: u64,
        c: Collector,
        done: bool,
    ) -> Result<PushOutcome, IngestError> {
        // Slices at or behind the merged frontier: either a re-send of
        // a folded final (idempotent) or a genuine collision.
        if start < self.merged.next_index() {
            if let Some(&(_, folded)) = self.absorbed.iter().find(|&&(s, _)| s == start) {
                if count <= folded {
                    return Ok(if count == folded && done {
                        PushOutcome::Duplicate
                    } else {
                        PushOutcome::Stale
                    });
                }
                // Claims more devices than the final slice we folded —
                // two shards disagree about this range.
                return Err(IngestError::Overlap {
                    start,
                    devices: count,
                });
            }
            return Err(IngestError::Overlap {
                start,
                devices: count,
            });
        }

        // Collision checks against buffered neighbours (other shards'
        // slices are disjoint; same-start pushes supersede each other).
        if let Some((&ps, prev)) = self.pending.range(..start).next_back() {
            if ps + prev.collector.devices_seen() > start {
                return Err(IngestError::Overlap {
                    start,
                    devices: count,
                });
            }
        }
        if let Some((&ns, _)) = self.pending.range(start + 1..).next() {
            if start + count > ns {
                return Err(IngestError::Overlap {
                    start,
                    devices: count,
                });
            }
        }

        match self.pending.get(&start) {
            Some(prev) if count < prev.collector.devices_seen() => Ok(PushOutcome::Stale),
            Some(prev) if count == prev.collector.devices_seen() => {
                // Same coverage: keep the final flag if either push had
                // it (a reordered non-final after the final must not
                // un-finalize the slice).
                let keep_done = prev.done || done;
                self.pending.insert(
                    start,
                    Pending {
                        collector: c,
                        done: keep_done,
                    },
                );
                Ok(if done {
                    PushOutcome::Duplicate
                } else {
                    PushOutcome::Stale
                })
            }
            _ => {
                self.pending.insert(start, Pending { collector: c, done });
                Ok(PushOutcome::Buffered)
            }
        }
    }

    /// Fold every contiguous final slice at the merged frontier.
    /// Returns the `range_start` of each slice folded, so the journal
    /// can compact them (rewrite `merged.json`, drop their slice
    /// files).
    ///
    /// A slice that will not fold stops the drain with a
    /// [`DrainError`]. The slice is removed from the buffer, so no
    /// later drain, view or journal write sees it again; the slices
    /// folded before it stay folded. Validation in [`Ingest::push`]
    /// and [`Store::recover`] is meant to make this unreachable; it is
    /// an error rather than a panic because a panic here would poison
    /// the daemon's ingest lock for every later request.
    fn drain(&mut self) -> Result<Vec<u64>, DrainError> {
        let mut folded = Vec::new();
        loop {
            let start = self.merged.next_index();
            let Some(p) = self.pending.get(&start).filter(|p| p.done) else {
                break;
            };
            if let Err(error) = self.merged.absorb_state(&p.collector) {
                self.pending.remove(&start);
                return Err(DrainError { start, error });
            }
            let count = p.collector.devices_seen();
            self.pending.remove(&start);
            self.absorbed.push((start, count));
            folded.push(start);
        }
        Ok(folded)
    }

    fn note_shard(&mut self, shard: &str, start: u64, count: u64, done: bool, bytes: u64) {
        let now = Instant::now();
        let info = self.shards.entry(shard.to_string()).or_insert(ShardInfo {
            range_start: start,
            devices_pushed: 0,
            pushes: 0,
            bytes: 0,
            done: false,
            last_push: now,
            rate_dps: None,
            telemetry: None,
        });
        // Devices/sec from consecutive push deltas. Guard the division:
        // a burst of pushes in the same instant (dt ≈ 0) or a push that
        // advances nothing keeps the previous estimate instead of
        // producing ∞/NaN from a stale heartbeat delta.
        if count > info.devices_pushed {
            let dt = now.duration_since(info.last_push).as_secs_f64();
            if dt > 1e-3 && info.pushes > 0 {
                info.rate_dps = Some((count - info.devices_pushed) as f64 / dt);
            }
        }
        info.range_start = start;
        info.devices_pushed = info.devices_pushed.max(count);
        info.pushes += 1;
        info.bytes += bytes;
        info.done |= done;
        info.last_push = now;
    }

    /// Attach a shard's self-reported telemetry (the optional
    /// `telemetry` field of a push). Bookkeeping only — never touches
    /// campaign state.
    pub fn note_telemetry(&mut self, shard: &str, telemetry: ShardTelemetry) {
        if let Some(info) = self.shards.get_mut(shard) {
            info.telemetry = Some(telemetry);
        }
    }

    /// Campaign-wide devices/sec: the sum of every live (not done, not
    /// stale) shard's best rate estimate.
    pub fn throughput_dps(&self) -> f64 {
        // fold, not sum: f64's Sum identity is -0.0, which would print
        // as "-0.000" on /metrics when no shard is live.
        self.shards
            .values()
            .filter(|i| !i.done && i.last_push.elapsed().as_secs_f64() < STALE_AFTER_SECS)
            .filter_map(ShardInfo::best_rate_dps)
            .fold(0.0, |acc, r| acc + r)
    }

    /// Estimated seconds until the whole population is covered, from
    /// the live view and the current throughput. `None` when no live
    /// shard has a usable rate (all stalled, done, or too young) — the
    /// caller renders "unknown" instead of dividing by zero.
    pub fn eta_secs(&self) -> Option<f64> {
        if self.complete() {
            return Some(0.0);
        }
        let rate = self.throughput_dps();
        if rate <= 1e-9 {
            return None;
        }
        let remaining = self.spec.devices.saturating_sub(self.devices_view());
        Some(remaining as f64 / rate)
    }

    /// The live view: the merged prefix plus every buffered slice, in
    /// device order. Exact in every count/sketch/histogram; only the
    /// registry sample reservoirs can differ from a gap-free run while
    /// gaps remain (see [`Collector::absorb_state_for_view`]). Once
    /// [`Ingest::complete`], the view *is* the merged collector.
    pub fn view(&self) -> Collector {
        let mut v = self.merged.clone();
        for p in self.pending.values() {
            v.absorb_state_for_view(&p.collector)
                .expect("buffered slices are validated disjoint");
        }
        v
    }

    /// The `/snapshot` body: the live campaign report, pretty-printed.
    /// Byte-identical to `repro fleet-merge` output (and to an
    /// uninterrupted single-process `fleet.json`) once all partitions
    /// have landed.
    pub fn snapshot_pretty(&self) -> String {
        use obs::ToJson;
        self.view().report().to_json().to_string_pretty()
    }
}

/// A buffered final slice that [`Ingest::drain`] could not fold.
struct DrainError {
    /// The slice's `range_start`.
    start: u64,
    /// Why the fold failed.
    error: CampaignStateError,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{run_campaign, run_partition};
    use obs::ToJson;

    /// A buffered final slice that will not fold cannot get in through
    /// `push` or recovery (both run `verify_spec`), so the test plants
    /// one. The push that reaches it gets `bad-state`, and the slice is
    /// dropped from memory and from the journal: the view still
    /// renders, the campaign still completes, and the journal still
    /// recovers.
    #[test]
    fn a_slice_that_will_not_fold_is_dropped() {
        let spec = CampaignSpec::heterogeneous(7, 40).with_probes(2);
        let (c0, _) = run_partition(&spec, 2, 0, 2);
        let (c1, _) = run_partition(&spec, 2, 1, 2);
        let mut state = c1.state_json();
        let mut strata = state.get("strata").and_then(Json::as_arr).unwrap().to_vec();
        strata.pop();
        state.set("strata", Json::Arr(strata));
        let unfoldable = Collector::from_state_json(&state).unwrap();

        let dir = std::env::temp_dir().join(format!("ingest-unfoldable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let mut ingest = Ingest::with_store(spec.clone(), store.clone()).unwrap();
        store.write_slice(&unfoldable, true).unwrap();
        let planted = store.slice_path(c1.range_start());
        assert!(planted.exists());
        ingest.pending.insert(
            c1.range_start(),
            Pending {
                collector: unfoldable,
                done: true,
            },
        );

        match ingest.push("0/2", &c0.state_json(), true, 0) {
            Err(IngestError::BadState(m)) => assert!(m.contains("stratum count"), "{m}"),
            other => panic!("expected bad-state, got {other:?}"),
        }
        assert!(ingest.pending.is_empty());
        assert!(!planted.exists());
        assert_eq!(ingest.devices_absorbed(), c0.devices_seen());
        ingest.snapshot_pretty();

        let ack = ingest.push("1/2", &c1.state_json(), true, 0).unwrap();
        assert!(ack.complete);
        let full = run_campaign(&spec, 2).0.to_json().to_string_pretty();
        assert_eq!(ingest.snapshot_pretty(), full);
        drop(ingest);

        let recovered = Ingest::with_store(spec, Store::open(&dir).unwrap()).unwrap();
        assert!(recovered.complete());
        assert_eq!(recovered.snapshot_pretty(), full);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
