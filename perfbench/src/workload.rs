//! The workloads and how each run is sized.
//!
//! Every run has the same two timed phases, so every end-to-end metric
//! exists on every workload:
//!
//! 1. **campaign** — `K` untraced `fleet::run_campaign` calls, each on
//!    its own campaign seed derived from `--seed`;
//! 2. **delivery** — `R` rounds in which a fresh, journalled
//!    `collectord::Daemon` ingests the cumulative push frames of the
//!    first [`DELIVERY_DEVICES`] devices of campaign 0 over loopback,
//!    open-loop, with `GET /snapshot` beside the pushes.
//!
//! The workloads differ in the campaign spec, its worker count and how
//! `--seconds` is split between the phases. `K` and `R` are fixed by
//! `--seconds` and the nominal costs below, never by how fast a run
//! goes, so one seed always measures the same inputs.

use fleet::{splitmix64, CampaignSpec};
use simcore::SimDuration;

/// Devices in the sub-campaign whose state the delivery phase pushes.
pub const DELIVERY_DEVICES: u64 = 3_200;
/// Shard slices the delivery sub-campaign is cut into.
pub const DELIVERY_SHARDS: u64 = 2;
/// Devices between cumulative pushes (`repro fleet --push-every`).
pub const PUSH_EVERY: u64 = 64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `repro fleet` headline population on 1 worker: bound by the
    /// discrete-event simulation, above all the cross-traffic stratum.
    FleetMixed,
    /// The same strata without diurnal cross traffic, 1 probe, a 3 s
    /// horizon, on 2 workers: bound by setup, fold, the engine's
    /// window and the collector.
    FleetLight,
}

/// How a run of one workload is sized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Devices per campaign.
    pub devices: u64,
    /// `run_campaign` worker threads.
    pub workers: usize,
    /// Share of `--seconds` given to the campaign phase; the rest goes
    /// to delivery.
    pub campaign_share: f64,
    /// Nominal wall seconds of one campaign on a 2-vCPU Xeon host; it
    /// converts the campaign share into a campaign count.
    pub nominal_campaign_s: f64,
}

/// Nominal wall seconds of one delivery round on a 2-vCPU Xeon host.
/// The push schedule spans 1 s (50 pushes, one every 20 ms) and the
/// snapshot schedule 2 s; each ack currently takes about 45 ms over
/// loopback, so pushes back up until about 2.2 s.
pub const NOMINAL_ROUND_S: f64 = 2.2;

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::FleetMixed, Workload::FleetLight];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMixed => "fleet-mixed",
            Workload::FleetLight => "fleet-light",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run sizing.
    pub fn plan(self) -> Plan {
        match self {
            Workload::FleetMixed => Plan {
                devices: DELIVERY_DEVICES,
                workers: 1,
                campaign_share: 0.55,
                nominal_campaign_s: 1.8,
            },
            Workload::FleetLight => Plan {
                devices: 20_000,
                workers: 2,
                campaign_share: 0.5,
                nominal_campaign_s: 1.3,
            },
        }
    }

    /// The campaign spec of `devices` devices on campaign seed `seed`.
    pub fn spec(self, seed: u64, devices: u64) -> CampaignSpec {
        match self {
            Workload::FleetMixed => CampaignSpec::heterogeneous(seed, devices),
            Workload::FleetLight => light_spec(seed, devices),
        }
    }
}

/// `(campaigns, rounds)` for a run of `seconds` under `plan`: at least
/// one campaign, and at least two rounds so a snapshot tail exists.
pub fn counts(plan: &Plan, seconds: f64) -> (u64, u64) {
    let campaigns = (seconds * plan.campaign_share / plan.nominal_campaign_s).round();
    let rounds = (seconds * (1.0 - plan.campaign_share) / NOMINAL_ROUND_S).round();
    (campaigns.max(1.0) as u64, rounds.max(2.0) as u64)
}

/// The seed of campaign `k` of a run on `seed`.
pub fn campaign_seed(seed: u64, k: u64) -> u64 {
    splitmix64(seed ^ splitmix64(k ^ 0xBE7C_4000))
}

/// The heterogeneous strata minus every diurnal (cross-traffic)
/// stratum, 1 probe per device, a 3 s horizon.
pub fn light_spec(seed: u64, devices: u64) -> CampaignSpec {
    let mut spec = CampaignSpec::heterogeneous(seed, devices)
        .with_probes(1)
        .with_horizon(SimDuration::from_secs(3));
    spec.classes.retain(|c| c.diurnal.is_none());
    spec
}

/// Stratum names of the heterogeneous population, which every
/// workload's strata are drawn from.
pub fn stratum_names() -> Vec<&'static str> {
    CampaignSpec::heterogeneous(0, 1)
        .classes
        .iter()
        .map(|c| c.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_spec_never_runs_cross_traffic() {
        for seed in [1, 2016, campaign_seed(7, 0)] {
            let spec = light_spec(seed, 5_000);
            assert!(spec.classes.iter().all(|c| c.diurnal.is_none()));
            assert!((0..spec.devices).all(|i| !spec.cross_traffic_of(i)));
        }
        // The mixed population does run it, so the check above can fail.
        let mixed = CampaignSpec::heterogeneous(2016, 5_000);
        assert!((0..mixed.devices).any(|i| mixed.cross_traffic_of(i)));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
    }

    #[test]
    fn counts_have_a_floor_and_are_fixed_by_seconds() {
        let plan = Workload::FleetMixed.plan();
        assert_eq!(counts(&plan, 1.0), (1, 2));
        assert_eq!(counts(&plan, 25.0), counts(&plan, 25.0));
        for w in Workload::ALL {
            assert!(w.plan().devices >= DELIVERY_DEVICES);
        }
    }
}
