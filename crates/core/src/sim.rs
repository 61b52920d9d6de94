//! The scenario driver: a thin builder over the subsystem
//! [`engine`](crate::engine).
//!
//! ## Structure of a run
//!
//! [`run`] validates the configuration ([`ScenarioConfig::validate`]),
//! builds a [`SimWorld`] (topology, services, traffic sources, the
//! calibrated VP fleet) and drives six subsystems against it on one
//! deterministic schedule:
//!
//! * [`FluidTraffic`] (every minute): distribute attack + legitimate
//!   load over each service's current catchments, push it through the
//!   shared-facility links and per-site ingress queues, and let stress
//!   policies withdraw/re-announce.
//! * [`RssacAccounting`] (same cadence, ticking after the fluid step):
//!   RSSAC byte/query accounting and the `.nl` served-rate series.
//! * [`ProbeWheel`] (every minute): the Atlas fleet's wheel — each
//!   (VP, letter) pair probes on its own phase of the letter's probing
//!   interval (§2.4.1).
//! * [`ResolverRefresh`] (every 10 min): resolvers re-weight letter
//!   preferences from current RTT/loss — the letter-flip mechanism
//!   (§3.2.2).
//! * [`MaintenanceChurn`] (at random intervals): background operator
//!   maintenance noise.
//! * [`FaultInjector`] (seeded last, so same-instant faults land after
//!   production ticks): scheduled fault injection from the scenario's
//!   [`FaultPlan`](crate::engine::FaultPlan). An empty plan never
//!   wakes, leaving the run bit-identical to a five-subsystem one.
//!
//! Everything is deterministic in the scenario seed, at any rayon
//! thread count.

use crate::deployment::{self, LetterDeployment};
use crate::engine::metrics::keys;
use crate::engine::Substrate;
use crate::engine::{
    drive, FaultInjector, FaultState, FluidTraffic, InjectedFault, Instrumentation,
    MaintenanceChurn, NoopInstrumentation, ProbeWheel, Profiler, ResolverRefresh, RssacAccounting,
    RunProfile, SimWorld, Subsystem, TraceSnapshot,
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
    /// Every fault transition the injector applied, in order: the run's
    /// injected-fault ledger (empty under an empty
    /// [`FaultPlan`](crate::engine::FaultPlan)).
    pub faults: Vec<InjectedFault>,
    /// Every engine metric, frozen at the end of the run (see
    /// [`metrics::keys`](crate::engine::metrics::keys) for the catalog).
    pub metrics: MetricsSnapshot,
    /// The structured event trace (empty unless
    /// [`ScenarioConfig::trace`] enabled it).
    pub trace: TraceSnapshot,
}

/// Run the scenario to completion. Fails fast with a typed error when
/// the configuration breaks an invariant ([`ScenarioConfig::validate`]).
pub fn run(cfg: &ScenarioConfig) -> Result<SimOutput, RootcastError> {
    run_observed(cfg, &mut NoopInstrumentation)
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
    let world = SimWorld::build(cfg, &rng_factory)?;
    obs.on_phase_end("build_world");
    drive_world(world, obs)
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
    run_observed_with_substrate(cfg, substrate, &mut NoopInstrumentation)
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
    let world = SimWorld::from_substrate(cfg, &rng_factory, substrate)?;
    obs.on_phase_end("build_world");
    drive_world(world, obs)
}

/// The six subsystems of a run over `world`, in seeding order. Seeding
/// order is the same-instant tie-break: accounting must follow the
/// fluid step whose window it settles, and faults apply after every
/// production subsystem has ticked the instant.
pub(crate) fn subsystems(world: &SimWorld<'_>) -> Vec<Box<dyn Subsystem>> {
    let (cfg, rng_factory) = (world.cfg, world.rng_factory);
    vec![
        Box::new(FluidTraffic::new(cfg.fluid_step)),
        Box::new(RssacAccounting::new(cfg)),
        Box::new(ProbeWheel::new(world)),
        Box::new(ResolverRefresh::new(cfg.resolver_update)),
        Box::new(MaintenanceChurn::new(
            rng_factory.stream("maintenance"),
            cfg.maintenance_mean,
        )),
        Box::new(FaultInjector::new(
            rng_factory.stream("faults"),
            cfg.faults.clone(),
        )),
    ]
}

/// Drive a built world to completion and package the output: the common
/// back half of every entry point.
fn drive_world(
    mut world: SimWorld<'_>,
    obs: &mut dyn Instrumentation,
) -> Result<SimOutput, RootcastError> {
    let cfg = world.cfg;
    let mut subsystems = subsystems(&world);
    obs.on_phase_start("drive");
    drive(&mut world, &mut subsystems, cfg.horizon, obs);
    obs.on_phase_end("drive");

    obs.on_phase_start("finalize");
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
    obs.on_phase_end("finalize");

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
        faults: FaultState { ledger: faults, .. },
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
        faults,
        metrics,
        trace,
    })
}

/// Run the scenario under the [`Profiler`], returning the output
/// alongside the finished [`RunProfile`] (phase/tick wall times,
/// chrome://tracing export). Profiling is observation only: the output
/// is bit-identical to [`run`]'s.
pub fn run_profiled(cfg: &ScenarioConfig) -> Result<(SimOutput, RunProfile), RootcastError> {
    let mut profiler = Profiler::default();
    let out = run_observed(cfg, &mut profiler)?;
    Ok((out, profiler.finish()))
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
    use crate::engine::oracle::{AuditCounts, FluidAudit, ProbeAudit};
    use crate::engine::{FaultKind, FaultPlan};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// One shared small profiled run for the driver's smoke tests
    /// (building it is the expensive part; assertions are cheap).
    fn smoke() -> (SimOutput, RunProfile) {
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
        run_profiled(&cfg).expect("valid scenario")
    }

    #[test]
    fn driver_produces_consistent_output() {
        let (out, profile) = smoke();
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
        // The profiler saw the five production subsystems tick (the
        // fault injector never wakes on an empty plan), and the metrics
        // recorded the load extremes.
        let subsystems = profile.subsystems();
        assert_eq!(subsystems.len(), 5);
        assert!(out.faults.is_empty());
        for name in ["fluid", "rssac", "probes", "resolvers", "maintenance"] {
            assert!(subsystems.contains_key(name), "missing profile for {name}");
        }
        let fluid_ticks = subsystems["fluid"].ticks;
        assert_eq!(fluid_ticks, 120); // one per minute over 2 h
        assert_eq!(subsystems["rssac"].ticks, fluid_ticks);
        let gauge = |name| out.metrics.gauge(name).expect("gauge set");
        assert!(gauge("fluid.peak_offered_qps") > 0.0);
        assert!(gauge("fluid.worst_served_ratio") < 1.0); // B-root melted
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

    #[test]
    fn every_fluid_and_probe_tick_of_a_small_run_matches_its_oracle() {
        // The whole 12 h `small()` run, event 1 and its catchment shifts
        // included, with the fluid and probe subsystems audited tick by
        // tick against the uncached split and the textual probe path.
        // Two probe faults inside the event put skipped and discarded
        // probes through the oracle as well.
        let mut cfg = ScenarioConfig::small();
        cfg.faults = FaultPlan::none()
            .with(
                SimTime::from_hours(7),
                SimDuration::from_mins(60),
                FaultKind::ProbeDropout {
                    fraction: 0.3,
                    letters: vec![Letter::B, Letter::K],
                },
            )
            .with(
                SimTime::from_mins(7 * 60 + 30),
                SimDuration::from_mins(45),
                FaultKind::FirmwareDowngrade { fraction: 0.2 },
            );
        cfg.validate().expect("valid scenario");
        let rng_factory = SimRng::new(cfg.seed);
        let mut world = SimWorld::build(&cfg, &rng_factory).expect("world builds");
        let fluid = Rc::new(RefCell::new(AuditCounts::default()));
        let probes = Rc::new(RefCell::new(AuditCounts::default()));
        let mut audited: Vec<Box<dyn Subsystem>> = subsystems(&world)
            .into_iter()
            .map(|s| -> Box<dyn Subsystem> {
                match s.name() {
                    "fluid" => Box::new(FluidAudit::new(s, Rc::clone(&fluid))),
                    "probes" => Box::new(ProbeAudit::new(s, &world, Rc::clone(&probes))),
                    _ => s,
                }
            })
            .collect();
        drive(
            &mut world,
            &mut audited,
            cfg.horizon,
            &mut NoopInstrumentation,
        );

        let (fluid, probes) = (*fluid.borrow(), *probes.borrow());
        let minutes = cfg.horizon.as_secs() / 60;
        assert_eq!(fluid.ticks, minutes, "every fluid window audited");
        assert_eq!(probes.ticks, minutes, "every probe tick audited");
        assert!(fluid.attacked > 0, "event 1 never offered attack load");
        assert!(
            fluid.after_bump > 0,
            "no audited window crossed a catchment change"
        );
        assert!(
            probes.after_bump > 0,
            "no audited probe tick crossed a catchment change"
        );
        assert!(probes.skipped > 0 && probes.discarded > 0, "{probes:?}");
        assert!(world.metrics.counter(keys::POLICY_TRANSITIONS) > 0);
    }
}
