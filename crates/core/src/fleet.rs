//! A fleet of independent smart homes advanced in lockstep on the
//! conservative parallel scheduler.
//!
//! Each home is one *island*: a complete `SmartHome` (backbone, VSR,
//! middleware networks) living on its own [`simnet::Sim`] with its own event
//! queue and RNG stream. Homes never exchange frames, so the islands
//! are uncoupled and [`ParSim`] can run them on worker threads with an
//! unbounded lookahead window. Results — metrics snapshots, traces,
//! chaos outcomes — are a pure function of the builder configuration
//! and the seed, never of the thread count.

use crate::error::MetaError;
use crate::home::{SmartHome, SmartHomeBuilder};
use crate::metrics::MetricsSnapshot;
use crate::obs::{KeptTrace, RecorderStats, SamplePolicy};
use crate::pcm::cloud::CloudBackbone;
use simnet::{FaultPlan, ParRunStats, ParSim, SimDuration, SimTime};

/// Many identically configured [`SmartHome`]s, one per island,
/// stepped together under deterministic virtual time.
pub struct HomeFleet {
    homes: Vec<SmartHome>,
    par: ParSim,
}

impl HomeFleet {
    /// Builds `n` homes from `builder` — home `i` becomes island `i`.
    ///
    /// The worker thread count comes from
    /// [`SmartHomeBuilder::threads`] when set, else the `SIM_THREADS`
    /// environment variable, else 1.
    pub fn build(builder: SmartHomeBuilder, n: usize) -> Result<HomeFleet, MetaError> {
        HomeFleet::build_with(builder, n, |_, b| b)
    }

    /// Like [`HomeFleet::build`], but lets `tweak` adjust the cloned
    /// builder per island — e.g. staggering the anti-entropy phase
    /// with [`SmartHomeBuilder::vsr_sync_phase`] so homes don't all
    /// sync at the same virtual instant.
    pub fn build_with(
        builder: SmartHomeBuilder,
        n: usize,
        mut tweak: impl FnMut(u32, SmartHomeBuilder) -> SmartHomeBuilder,
    ) -> Result<HomeFleet, MetaError> {
        let threads = builder.configured_threads().unwrap_or_else(env_threads);
        let mut par = ParSim::new(threads);
        let mut homes = Vec::with_capacity(n);
        for i in 0..n {
            let island = u32::try_from(i).expect("fleet size fits in u32");
            // The fleet size feeds the cloud's deterministic fair-share
            // admission budget; a per-island tweak can still override.
            let home = tweak(island, builder.clone().island(island).fleet_hint(n)).build()?;
            par.add_island(home.sim.clone());
            homes.push(home);
        }
        Ok(HomeFleet { homes, par })
    }

    /// Like [`HomeFleet::build`], but with lazy homes: each island gets
    /// its world layer (sim, backbone, VSR, cloud bridge if configured)
    /// while the middleware-island builds are deferred until
    /// [`SmartHome::materialize`] — the way `e17_cloud` stands up
    /// 10k homes without 10k eager full builds.
    pub fn build_lazy(builder: SmartHomeBuilder, n: usize) -> Result<HomeFleet, MetaError> {
        HomeFleet::build_with(builder.lazy(true), n, |_, b| b)
    }

    /// The homes, in island order.
    pub fn homes(&self) -> &[SmartHome] {
        &self.homes
    }

    /// One home by island id.
    pub fn home(&self, island: usize) -> &SmartHome {
        &self.homes[island]
    }

    /// Builds the deferred islands of one lazy home (no-op when the
    /// home was built eagerly or already materialized).
    #[cfg(test)]
    fn materialize_home(&mut self, island: usize) -> Result<(), MetaError> {
        self.homes[island].materialize()
    }

    /// Homes whose middleware islands have been built.
    pub fn materialized_count(&self) -> usize {
        self.homes.iter().filter(|h| h.is_materialized()).count()
    }

    /// The simulated cloud backbone over every cloud-attached home, in
    /// island order: fleet-wide delivered-ratio/staleness/duplicate
    /// roll-ups and the downward-command fan-out. Empty if the builder
    /// had no [`crate::pcm::cloud::CloudConfig`].
    pub fn cloud_backbone(&self) -> CloudBackbone {
        CloudBackbone::new(
            self.homes
                .iter()
                .filter_map(|h| h.cloud.as_ref())
                .map(|c| (c.bridge.clone(), c.cell.clone()))
                .collect(),
        )
    }

    /// Installs `plan` on every home's cloud WAN, jittered per island
    /// like [`HomeFleet::set_fault_plan_jittered`] — island 0 again
    /// gets the plan unshifted. Homes without a cloud bridge are
    /// skipped.
    pub fn set_wan_fault_plan_jittered(
        &self,
        plan: &FaultPlan,
        seed: u64,
        max_jitter: SimDuration,
    ) {
        for (i, home) in self.homes.iter().enumerate() {
            let island = u32::try_from(i).expect("fleet size fits in u32");
            if let Some(cloud) = &home.cloud {
                cloud
                    .set_wan_fault_plan(plan.clone().jittered_for_island(seed, island, max_jitter));
            }
        }
    }

    /// Number of homes (islands).
    pub fn len(&self) -> usize {
        self.homes.len()
    }

    /// True when the fleet holds no homes.
    pub fn is_empty(&self) -> bool {
        self.homes.is_empty()
    }

    /// Worker threads the scheduler was built with.
    pub fn threads(&self) -> usize {
        self.par.threads()
    }

    /// The underlying parallel scheduler.
    pub fn par(&self) -> &ParSim {
        &self.par
    }

    /// Advances every home to `deadline` (virtual time).
    pub fn run_until(&self, deadline: SimTime) -> ParRunStats {
        self.par.run_until(deadline)
    }

    /// Advances every home by `d` past the latest island clock.
    pub fn run_for(&self, d: SimDuration) -> ParRunStats {
        self.par.run_for(d)
    }

    /// Enables or disables tracing on every home.
    pub fn set_tracing(&self, on: bool) {
        for home in &self.homes {
            home.set_tracing(on);
        }
    }

    /// Metrics snapshots from every gateway of every home, in island
    /// order (each snapshot records its island id). Identical for any
    /// thread count.
    pub fn metrics_snapshots(&self) -> Vec<MetricsSnapshot> {
        self.homes
            .iter()
            .flat_map(|home| home.metrics_snapshots())
            .collect()
    }

    /// One snapshot for the whole fleet: every gateway of every home
    /// merged bucket-wise into a single `fleet` snapshot. Cost is
    /// O(homes × buckets), not O(samples) — aggregate p50/p99 and
    /// error rates at a thousand homes stay cheap. Identical for any
    /// thread count.
    pub fn fleet_snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::empty("fleet", 0);
        for snap in self.metrics_snapshots() {
            merged.merge_from(&snap);
        }
        merged
    }

    /// Installs `policy` on every home's flight recorder.
    pub fn set_sampling(&self, policy: SamplePolicy) {
        for home in &self.homes {
            home.set_sampling(policy);
        }
    }

    /// Harvests every home's completed spans into its flight recorder,
    /// island order. Returns the fleet-wide keep/drop counters summed
    /// across homes. Identical for any thread count.
    pub fn harvest_traces(&self) -> RecorderStats {
        let mut total = RecorderStats::default();
        for home in &self.homes {
            let stats = home.harvest_traces();
            total.seen += stats.seen;
            total.kept += stats.kept;
            total.sampled_out += stats.sampled_out;
            total.evicted += stats.evicted;
        }
        total
    }

    /// Drains every home's flight recorder, island-ordered: all of
    /// island 0's kept traces, then island 1's, and so on.
    pub fn drain_flight(&self) -> Vec<KeptTrace> {
        self.homes
            .iter()
            .flat_map(|home| home.drain_flight())
            .collect()
    }

    /// Exports every gateway's metrics, island-ordered, in OpenMetrics
    /// text format. Identical for any thread count.
    pub fn export_openmetrics(&self) -> String {
        crate::obs::openmetrics(&self.metrics_snapshots())
    }

    /// Exports all snapshots plus every home's currently kept traces
    /// as JSON lines, island-ordered, without draining the recorders.
    pub fn export_events_jsonl(&self) -> String {
        let mut out = String::new();
        for home in &self.homes {
            out.push_str(&home.export_events_jsonl());
        }
        out
    }

    /// Renders every home's traces in island order, separated by a
    /// per-island header. Identical for any thread count.
    pub fn render_traces(&self) -> String {
        let mut out = String::new();
        for (i, home) in self.homes.iter().enumerate() {
            out.push_str(&format!("=== island {i} ===\n"));
            out.push_str(&home.render_traces());
        }
        out
    }

    /// Installs `plan` on every home's backbone, jittered per island
    /// (deterministically, from `seed`) so faults don't strike every
    /// home at the same virtual instant. Island 0 gets the plan
    /// unshifted, preserving single-home baselines.
    pub fn set_fault_plan_jittered(&self, plan: &FaultPlan, seed: u64, max_jitter: SimDuration) {
        for (i, home) in self.homes.iter().enumerate() {
            let island = u32::try_from(i).expect("fleet size fits in u32");
            home.backbone
                .set_fault_plan(plan.clone().jittered_for_island(seed, island, max_jitter));
        }
    }

    /// Deterministic per-island profiler lines (windows, events,
    /// commits — never wall clock), one per home, newline-terminated.
    /// Safe to print in thread-count-diffed output.
    pub fn profile_lines(&self) -> String {
        let mut out = String::new();
        for (i, p) in self.par.profiles().iter().enumerate() {
            out.push_str(&p.deterministic_line(i));
            out.push('\n');
        }
        out
    }
}

/// `SIM_THREADS` environment variable, else 1. Invalid or zero values
/// fall back to 1 rather than erroring — the knob only affects speed.
pub fn env_threads() -> usize {
    std::env::var("SIM_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::home::SmartHome;
    use crate::service::Middleware;

    fn drive(fleet: &HomeFleet, secs: u64) {
        fleet.run_for(SimDuration::from_secs(secs));
    }

    #[test]
    fn fleet_homes_are_decorrelated_but_island_zero_matches_solo() {
        let fleet = HomeFleet::build(SmartHome::builder().threads(1), 3).expect("fleet builds");
        let solo = SmartHome::builder().build().expect("solo builds");
        drive(&fleet, 1);
        solo.sim.run_for(SimDuration::from_secs(1));
        let fleet_snaps = fleet.metrics_snapshots();
        let solo_snaps = solo.metrics_snapshots();
        // island 0 of the fleet is bit-for-bit the solo home
        let island0: Vec<_> = fleet_snaps.iter().filter(|s| s.island == 0).collect();
        assert_eq!(island0.len(), solo_snaps.len());
        for (a, b) in island0.iter().zip(&solo_snaps) {
            assert_eq!(a.to_json(), b.to_json());
        }
        // other islands carry their own id
        assert!(fleet_snaps.iter().any(|s| s.island == 2));
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let run = |threads: usize| {
            let fleet =
                HomeFleet::build(SmartHome::builder().threads(threads), 4).expect("fleet builds");
            fleet.set_tracing(true);
            drive(&fleet, 2);
            for home in fleet.homes() {
                home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                    .expect("cross-middleware call succeeds");
            }
            drive(&fleet, 1);
            let snaps: Vec<String> = fleet
                .metrics_snapshots()
                .iter()
                .map(|s| s.to_json())
                .collect();
            (snaps, fleet.render_traces())
        };
        let (snaps1, traces1) = run(1);
        let (snaps4, traces4) = run(4);
        assert_eq!(snaps1, snaps4);
        assert_eq!(traces1, traces4);
    }

    #[test]
    fn env_threads_parses_and_falls_back() {
        // don't mutate the process env in tests; just check the parser
        // path through explicit configuration instead.
        let fleet = HomeFleet::build(SmartHome::builder().threads(0), 2).expect("fleet builds");
        assert_eq!(fleet.threads(), 1, "threads(0) clamps to 1");
    }

    #[test]
    fn lazy_fleet_materializes_homes_on_demand() {
        let mut fleet =
            HomeFleet::build_lazy(SmartHome::builder().threads(1), 4).expect("fleet builds");
        assert_eq!(fleet.materialized_count(), 0);
        fleet.materialize_home(2).expect("island 2 materializes");
        assert_eq!(fleet.materialized_count(), 1);
        assert_eq!(fleet.home(0).service_count(), 0);
        assert!(fleet.home(2).service_count() > 0);
        drive(&fleet, 1);
        fleet
            .home(2)
            .invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
            .expect("materialized home serves invocations");
    }

    #[test]
    fn cloud_fleet_rolls_up_a_backbone_summary() {
        use crate::pcm::cloud::CloudConfig;
        let fleet = HomeFleet::build_lazy(
            SmartHome::builder()
                .threads(1)
                .cloud(CloudConfig::default()),
            3,
        )
        .expect("fleet builds");
        drive(&fleet, 5);
        let backbone = fleet.cloud_backbone();
        assert_eq!(backbone.len(), 3);
        let s = backbone.summary();
        assert_eq!(s.duplicate_effects, 0);
        assert!(s.reconnects >= 3, "every home connected");
        // The auto-registered rosters reached every cell.
        for i in 0..3 {
            assert!(!backbone.cell(i).registered_devices().is_empty());
        }
    }

    #[test]
    fn cloud_fleet_results_do_not_depend_on_thread_count() {
        use crate::pcm::cloud::CloudConfig;
        let run = |threads: usize| {
            let fleet = HomeFleet::build_lazy(
                SmartHome::builder()
                    .threads(threads)
                    .cloud(CloudConfig::default()),
                4,
            )
            .expect("fleet builds");
            for (i, home) in fleet.homes().iter().enumerate() {
                let bridge = &home.cloud.as_ref().unwrap().bridge;
                bridge.notify_state("hall-lamp", &format!("v{i}")).unwrap();
            }
            drive(&fleet, 10);
            format!("{:?}", fleet.cloud_backbone().summary())
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn staggered_sync_phase_shifts_anti_entropy_per_island() {
        let fleet = HomeFleet::build_with(
            SmartHome::builder().threads(1).vsr_replicas(2),
            2,
            |island, b| b.vsr_sync_phase(SimDuration::from_millis(u64::from(island) * 17)),
        )
        .expect("fleet builds");
        drive(&fleet, 5);
        // both homes keep replicating; the phase only shifts when the
        // first pass happens, not whether it happens.
        for home in fleet.homes() {
            assert!(home
                .vsr_sync_timer
                .as_ref()
                .expect("timer armed")
                .is_active());
        }
    }
}
