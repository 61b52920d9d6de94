//! The scenario driver: a thin builder over the subsystem
//! [`engine`](crate::engine).
//!
//! ## Structure of a run
//!
//! [`run`] validates the configuration
//! ([`ScenarioConfig::validate`]), builds a
//! [`SimWorld`](crate::engine::SimWorld) (topology, services, traffic
//! sources, the calibrated VP fleet) and drives six subsystems against
//! it on one deterministic schedule:
//!
//! * [`FluidTraffic`](crate::engine::FluidTraffic) (every minute):
//!   distribute attack + legitimate load over each service's current
//!   catchments, push it through the shared-facility links and per-site
//!   ingress queues, and let stress policies withdraw/re-announce.
//! * [`RssacAccounting`](crate::engine::RssacAccounting) (same cadence,
//!   ticking after the fluid step): RSSAC byte/query accounting and the
//!   `.nl` served-rate series.
//! * [`ProbeWheel`](crate::engine::ProbeWheel) (every minute): the
//!   Atlas fleet's wheel — each (VP, letter) pair probes on its own
//!   phase of the letter's probing interval (§2.4.1).
//! * [`ResolverRefresh`](crate::engine::ResolverRefresh) (every
//!   10 min): resolvers re-weight letter preferences from current
//!   RTT/loss — the letter-flip mechanism (§3.2.2).
//! * [`MaintenanceChurn`](crate::engine::MaintenanceChurn): background
//!   operator maintenance noise.
//! * [`FaultInjector`](crate::engine::FaultInjector) (seeded last, so
//!   same-instant faults land after production ticks): scheduled fault
//!   injection from the scenario's
//!   [`FaultPlan`](crate::engine::FaultPlan). An empty plan never
//!   wakes, leaving the run bit-identical to a five-subsystem one.
//!
//! Everything is deterministic in the scenario seed, at any rayon
//! thread count.

use crate::deployment::{self, LetterDeployment};
use crate::engine::metrics::keys;
use crate::engine::Substrate;
use crate::engine::{
    drive, FaultInjector, FluidTraffic, Instrumentation, MaintenanceChurn, ProbeWheel, Profiler,
    ResolverRefresh, RssacAccounting, RunProfile, RunStats, SimWorld, StatsCollector, Subsystem,
    TraceSnapshot,
};
use crate::error::RootcastError;
use rootcast_anycast::AnycastService;
use rootcast_atlas::{CleaningReport, MeasurementPipeline};
use rootcast_attack::{AttackSchedule, Botnet};
use rootcast_bgp::RouteCollector;
use rootcast_dns::Letter;
use rootcast_netsim::{BinnedSeries, MetricsSnapshot, SimDuration, SimRng, SimTime};
use rootcast_rssac::{DailyReport, RssacCollector};
use rootcast_topology::gen;
use std::collections::BTreeMap;

pub use crate::config::ScenarioConfig;

/// Everything a finished run hands to the analysis layer.
pub struct SimOutput {
    pub letters: Vec<Letter>,
    pub pipeline: MeasurementPipeline,
    pub cleaning: CleaningReport,
    pub collectors: BTreeMap<Letter, RouteCollector>,
    pub rssac: BTreeMap<Letter, RssacCollector>,
    /// Synthesized pre-event baseline (7-day mean) per reporting letter.
    pub rssac_baseline: BTreeMap<Letter, DailyReport>,
    /// Per-site served-query series for .nl (code, series), 10-min bins.
    pub nl_sites: Vec<(String, BinnedSeries)>,
    pub deployments: Vec<LetterDeployment>,
    pub attack: AttackSchedule,
    pub horizon: SimTime,
    pub n_ases: usize,
    pub n_vps_kept: usize,
    /// Probe interval for letters other than A.
    pub probe_interval: SimDuration,
    /// A-root's (slower) probe interval.
    pub a_probe_interval: SimDuration,
    /// Engine instrumentation summary (tick counts, wall time, load
    /// extremes). Empty when the run used a custom observer.
    pub run_stats: RunStats,
    /// Every engine metric, frozen at the end of the run (see
    /// [`metrics::keys`](crate::engine::metrics::keys) for the catalog).
    pub metrics: MetricsSnapshot,
    /// The structured event trace (empty unless
    /// [`ScenarioConfig::trace`] enabled it).
    pub trace: TraceSnapshot,
}

/// Run the scenario to completion with the default stats-collecting
/// observer. Fails fast with a typed error when the configuration
/// breaks an invariant ([`ScenarioConfig::validate`]).
pub fn run(cfg: &ScenarioConfig) -> Result<SimOutput, RootcastError> {
    let mut stats = StatsCollector::default();
    let mut out = run_observed(cfg, &mut stats)?;
    out.run_stats = stats.finish();
    Ok(out)
}

/// Run the scenario with a caller-supplied [`Instrumentation`]
/// observer. The observer sees the run but cannot influence it: outputs
/// are bit-identical for any observer.
pub fn run_observed(
    cfg: &ScenarioConfig,
    obs: &mut dyn Instrumentation,
) -> Result<SimOutput, RootcastError> {
    cfg.validate()?;
    let rng_factory = SimRng::new(cfg.seed);
    obs.on_phase_start("build_world");
    let world = SimWorld::build(cfg, &rng_factory, obs)?;
    world.obs.on_phase_end("build_world");
    drive_world(world)
}

/// Run the scenario over a prebuilt shared [`Substrate`] (topology,
/// deployments, baseline RIBs, botnet, fleet, calibration), paying only
/// the per-run build cost. `SimWorld::build` is exactly
/// `Substrate::build` + `SimWorld::from_substrate`, so the output is
/// bit-identical to [`run`] on the same config — the sweep runner's
/// determinism contract rests on this single shared build path. Fails
/// with a typed error when the substrate was built for different
/// substrate knobs ([`ScenarioConfig::substrate_key`]) or an override
/// names an unknown site.
pub fn run_with_substrate(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
) -> Result<SimOutput, RootcastError> {
    let mut stats = StatsCollector::default();
    let mut out = run_observed_with_substrate(cfg, substrate, &mut stats)?;
    out.run_stats = stats.finish();
    Ok(out)
}

/// [`run_with_substrate`] with a caller-supplied observer.
pub fn run_observed_with_substrate(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    obs: &mut dyn Instrumentation,
) -> Result<SimOutput, RootcastError> {
    cfg.validate()?;
    let rng_factory = SimRng::new(cfg.seed);
    obs.on_phase_start("build_world");
    let world = SimWorld::from_substrate(cfg, &rng_factory, substrate, obs)?;
    world.obs.on_phase_end("build_world");
    drive_world(world)
}

/// Drive a built world to completion and package the output: the common
/// back half of every entry point.
fn drive_world(mut world: SimWorld<'_>) -> Result<SimOutput, RootcastError> {
    let cfg = world.cfg;
    let rng_factory = world.rng_factory;
    // Seeding order is the same-instant tie-break: accounting must
    // follow the fluid step whose window it settles, and faults apply
    // after every production subsystem has ticked the instant.
    let mut subsystems: Vec<Box<dyn Subsystem>> = vec![
        Box::new(FluidTraffic::new(cfg.fluid_step).with_reference(cfg.reference_kernels)),
        Box::new(RssacAccounting::new(cfg)),
        Box::new(ProbeWheel::new(&world)),
        Box::new(ResolverRefresh::new(cfg.resolver_update)),
        Box::new(MaintenanceChurn::new(
            rng_factory.stream("maintenance"),
            cfg.maintenance_mean,
        )),
        Box::new(FaultInjector::new(
            rng_factory.stream("faults"),
            cfg.faults.clone(),
        )),
    ];
    world.obs.on_phase_start("drive");
    drive(&mut world, &mut subsystems, cfg.horizon);
    world.obs.on_phase_end("drive");

    world.obs.on_phase_start("finalize");
    world.pipeline.finalize();

    // End-of-run metric settlement: stats accumulated inside the lower
    // layers (pipeline outcomes, scratch-buffer and RIB reuse, fleet
    // cleaning) are copied into the registry so the snapshot is the one
    // place to look.
    let outcomes = world.pipeline.outcome_stats();
    world.metrics.inc(keys::PROBES_SITE, outcomes.site);
    world.metrics.inc(keys::PROBES_TIMEOUT, outcomes.timeout);
    world.metrics.inc(keys::PROBES_ERROR, outcomes.error);
    world.metrics.inc(keys::PROBES_MISSED, outcomes.missed);
    let kept = world.cleaning.kept_count();
    world.metrics.set_gauge(keys::VPS_KEPT, kept as f64);
    world
        .metrics
        .set_gauge(keys::VPS_DROPPED, (world.fleet.len() - kept) as f64);
    let (reuses, allocs) = world.services.iter().fold((0, 0), |(r, a), svc| {
        let (r2, a2) = svc.scratch_stats();
        (r + r2, a + a2)
    });
    world.metrics.inc(keys::BGP_SCRATCH_REUSES, reuses);
    world.metrics.inc(keys::BGP_SCRATCH_ALLOCS, allocs);
    let rib_reuses = world.services.iter().map(|svc| svc.rib_reuses()).sum();
    world.metrics.inc(keys::BGP_RIB_REUSES, rib_reuses);
    world
        .metrics
        .inc(keys::TRACE_EVENTS_DROPPED, world.trace.dropped_events());
    let metrics = world.metrics.snapshot();
    let trace = world.trace.snapshot();
    world.obs.on_phase_end("finalize");

    let SimWorld {
        graph,
        letters,
        services,
        nl_index,
        cleaning,
        pipeline,
        collectors,
        rssac,
        rssac_baseline,
        nl_series,
        deployments,
        ..
    } = world;

    let nl_sites = nl_index
        .map(|ni| {
            services[ni]
                .sites()
                .iter()
                .zip(nl_series)
                .map(|(s, series)| (s.spec.code.clone(), series))
                .collect()
        })
        .unwrap_or_default();

    Ok(SimOutput {
        letters,
        pipeline,
        n_vps_kept: cleaning.kept_count(),
        cleaning,
        collectors,
        rssac,
        rssac_baseline,
        nl_sites,
        deployments,
        attack: cfg.attack.clone(),
        horizon: cfg.horizon,
        n_ases: graph.len(),
        probe_interval: cfg.probe_interval,
        a_probe_interval: cfg.a_probe_interval,
        run_stats: RunStats::default(),
        metrics,
        trace,
    })
}

/// Run the scenario with both the default stats collector and the
/// [`Profiler`], returning the output alongside the finished
/// [`RunProfile`] (phase/tick wall times, chrome://tracing export).
/// Profiling is observation only: the output is bit-identical to
/// [`run`]'s.
pub fn run_profiled(cfg: &ScenarioConfig) -> Result<(SimOutput, RunProfile), RootcastError> {
    /// Tee every hook into the stats collector and the profiler.
    struct Tee {
        stats: StatsCollector,
        profiler: Profiler,
    }

    impl Instrumentation for Tee {
        fn on_phase_start(&mut self, phase: &'static str) {
            self.stats.on_phase_start(phase);
            self.profiler.on_phase_start(phase);
        }
        fn on_phase_end(&mut self, phase: &'static str) {
            self.stats.on_phase_end(phase);
            self.profiler.on_phase_end(phase);
        }
        fn on_subsystem_tick(
            &mut self,
            subsystem: &'static str,
            t: SimTime,
            wall: std::time::Duration,
        ) {
            self.stats.on_subsystem_tick(subsystem, t, wall);
            self.profiler.on_subsystem_tick(subsystem, t, wall);
        }
        fn on_letter_load(&mut self, t: SimTime, letter: Letter, offered: f64, served: f64) {
            self.stats.on_letter_load(t, letter, offered, served);
        }
        fn on_queue_depth(&mut self, t: SimTime, letter: Letter, site: &str, delay: SimDuration) {
            self.stats.on_queue_depth(t, letter, site, delay);
        }
        fn on_policy_transition(
            &mut self,
            t: SimTime,
            letter: Letter,
            changes: &rootcast_anycast::RoutingChanges,
        ) {
            self.stats.on_policy_transition(t, letter, changes);
        }
        fn on_fault(&mut self, t: SimTime, fault: &crate::engine::InjectedFault) {
            self.stats.on_fault(t, fault);
        }
    }

    let mut tee = Tee {
        stats: StatsCollector::default(),
        profiler: Profiler::default(),
    };
    let mut out = run_observed(cfg, &mut tee)?;
    out.run_stats = tee.stats.finish();
    Ok((out, tee.profiler.finish()))
}

/// Build the scenario's services and report, for each letter, the
/// attack load (q/s) each site would absorb at the *initial* routing —
/// i.e. the per-catchment exposure of §2.2's model. Used for capacity
/// planning, the policy explorer example, and deployment tuning.
pub fn attack_exposure(cfg: &ScenarioConfig) -> Vec<(Letter, Vec<(String, f64)>)> {
    let rng_factory = SimRng::new(cfg.seed);
    let graph = gen::generate(&cfg.topology, &rng_factory);
    let botnet = Botnet::generate(&graph, cfg.botnet.clone(), &rng_factory);
    let deployments = deployment::nov2015_deployments(&graph);
    deployments
        .iter()
        .map(|d| {
            let svc = AnycastService::new(
                &format!("{}-root", d.letter),
                Some(d.letter),
                &graph,
                d.sites.clone(),
            );
            let rate = cfg
                .attack
                .windows()
                .iter()
                .find(|w| w.targets_letter(d.letter))
                .map(|w| w.rate_qps)
                .unwrap_or(0.0);
            let per_site = svc.offered_per_site(botnet.weights(), rate);
            let named = svc
                .sites()
                .iter()
                .zip(per_site)
                .map(|(s, q)| (s.spec.code.clone(), q))
                .collect();
            (d.letter, named)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One shared small run for the driver's smoke tests (building it is
    /// the expensive part; assertions are cheap).
    fn smoke() -> SimOutput {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_hours(2);
        cfg.pipeline.horizon = cfg.horizon;
        cfg.attack = AttackSchedule::new(vec![rootcast_attack::AttackWindow {
            start: SimTime::from_mins(30),
            duration: SimDuration::from_mins(30),
            qname: "www.336901.com".into(),
            targets: AttackSchedule::nov2015_targets(),
            rate_qps: 2_000_000.0,
        }]);
        run(&cfg).expect("valid scenario")
    }

    #[test]
    fn driver_produces_consistent_output() {
        let out = smoke();
        assert_eq!(out.letters.len(), 13);
        assert!(out.n_vps_kept > 300, "kept {}", out.n_vps_kept);
        // Every letter has pipeline data.
        for &l in &out.letters {
            let d = out.pipeline.letter(l);
            assert!(!d.site_codes.is_empty());
        }
        // B-root suffers during the attack: its success series dips.
        let b = out.pipeline.letter(Letter::B);
        let pre: f64 = b
            .success
            .window(SimTime::ZERO, SimTime::from_mins(30))
            .max();
        let during: f64 = b
            .success
            .window(SimTime::from_mins(40), SimTime::from_mins(60))
            .min();
        assert!(
            during < pre * 0.5,
            "B-root should dip under 2 Mq/s: pre={pre} during={during}"
        );
        // L-root (not attacked) stays healthy.
        let l = out.pipeline.letter(Letter::L);
        let l_pre = l
            .success
            .window(SimTime::ZERO, SimTime::from_mins(30))
            .max();
        let l_during = l
            .success
            .window(SimTime::from_mins(40), SimTime::from_mins(60))
            .min();
        assert!(
            l_during > l_pre * 0.8,
            "L-root should stay up: pre={l_pre} during={l_during}"
        );
        // RSSAC: exactly the five reporting letters.
        assert_eq!(out.rssac.len(), 5);
        assert!(out.rssac.contains_key(&Letter::A));
        // .nl series exist.
        assert_eq!(out.nl_sites.len(), 2);
        // The default observer collected engine stats: the five
        // production subsystems ticked (the fault injector never wakes
        // on an empty plan), and load extremes were recorded.
        assert_eq!(out.run_stats.subsystems.len(), 5);
        assert!(out.run_stats.faults.is_empty());
        for name in ["fluid", "rssac", "probes", "resolvers", "maintenance"] {
            assert!(
                out.run_stats.subsystems.contains_key(name),
                "missing stats for {name}"
            );
        }
        let fluid_ticks = out.run_stats.subsystems["fluid"].ticks;
        assert_eq!(fluid_ticks, 120); // one per minute over 2 h
        assert_eq!(out.run_stats.subsystems["rssac"].ticks, fluid_ticks);
        assert!(out.run_stats.peak_offered_qps > 0.0);
        assert!(out.run_stats.worst_served_ratio < 1.0); // B-root melted
    }

    #[test]
    fn runs_are_deterministic() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(40);
        cfg.pipeline.horizon = cfg.horizon;
        let a = run(&cfg).expect("valid scenario");
        let b = run(&cfg).expect("valid scenario");
        for &l in &a.letters {
            assert_eq!(
                a.pipeline.letter(l).success.values(),
                b.pipeline.letter(l).success.values(),
                "letter {l} series differ between identical runs"
            );
        }
        assert_eq!(a.n_vps_kept, b.n_vps_kept);
    }
}
