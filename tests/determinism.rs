//! Determinism regression: the engine's outputs are a pure function of
//! the scenario seed, at any rayon thread count.
//!
//! The fluid tick is serial, and the probe wheel's per-letter fan-out
//! records each letter into its own pipeline shard from its own
//! per-(letter, minute) RNG stream, so the schedule of thread
//! interleavings cannot reach any simulation state. These tests pin
//! that property end to end: two default-pool runs and one forced
//! single-thread run of `ScenarioConfig::small()` must agree bit for
//! bit.

use rootcast::{
    output_digest, run, run_sweep, run_with_substrate, ConfigPatch, FaultKind, FaultPlan, Letter,
    ScenarioConfig, SimDuration, SimOutput, SimTime, Substrate, SweepPlan, SweepRun,
};

/// A bit-exact digest of everything the analysis layer consumes.
/// Floats are compared through `to_bits`, so "close" is not enough.
#[derive(Debug, PartialEq, Eq)]
struct Summary {
    n_ases: usize,
    n_vps_kept: usize,
    success: Vec<(String, Vec<u64>)>,
    rssac: Vec<(String, u64, u64, u64)>,
    nl: Vec<(String, Vec<u64>)>,
    route_events: Vec<(String, usize)>,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn summarize(out: &SimOutput) -> Summary {
    Summary {
        n_ases: out.n_ases,
        n_vps_kept: out.n_vps_kept,
        success: out
            .letters
            .iter()
            .map(|&l| (l.to_string(), bits(out.pipeline.letter(l).success.values())))
            .collect(),
        rssac: out
            .rssac
            .iter()
            .map(|(l, c)| {
                let r = c.report(0);
                (
                    l.to_string(),
                    r.queries.to_bits(),
                    r.responses.to_bits(),
                    r.unique_sources.to_bits(),
                )
            })
            .collect(),
        nl: out
            .nl_sites
            .iter()
            .map(|(code, series)| (code.clone(), bits(series.values())))
            .collect(),
        route_events: out
            .collectors
            .iter()
            .map(|(l, c)| (l.to_string(), c.log().len()))
            .collect(),
    }
}

#[test]
fn small_scenario_is_bit_identical_across_runs_and_thread_counts() {
    let cfg = ScenarioConfig::small();

    let first = summarize(&run(&cfg).expect("valid scenario"));
    let second = summarize(&run(&cfg).expect("valid scenario"));
    assert_eq!(first, second, "two identical runs diverged");

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| summarize(&run(&cfg).expect("valid scenario")));
    assert_eq!(
        first, single,
        "single-thread run diverged from the default pool"
    );
}

#[test]
fn cached_kernels_are_bit_identical_across_thread_counts() {
    // The cached fluid tick is serial, but the probe wheel still fans
    // out per letter — pin thread-count independence on the default
    // configuration.
    let cfg = ScenarioConfig::small();
    let default_pool = summarize(&run(&cfg).expect("valid scenario"));
    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| summarize(&run(&cfg).expect("valid scenario")));
    assert_eq!(
        default_pool, single,
        "cached-kernel run diverged across thread counts"
    );
}

#[test]
fn tracing_is_a_pure_observer() {
    // The observability layer must never change outputs: a run with the
    // event trace enabled is bit-identical (in everything the analysis
    // layer consumes) to the same scenario with tracing disabled, and
    // to a profiled run. Only the trace/profile artifacts may differ.
    let cfg = ScenarioConfig::small();
    let dark = run(&cfg).expect("valid scenario");
    assert!(!dark.trace.enabled, "trace is off by default");
    assert!(dark.trace.events.is_empty(), "disabled trace stays empty");

    let mut traced_cfg = cfg.clone();
    traced_cfg.trace.enabled = true;
    traced_cfg.trace.capacity = 16_384;
    let traced = run(&traced_cfg).expect("valid scenario");
    assert!(traced.trace.enabled);
    assert!(
        !traced.trace.events.is_empty(),
        "the small scenario produces policy transitions and epoch bumps"
    );
    assert_eq!(
        summarize(&dark),
        summarize(&traced),
        "enabling the event trace changed simulation output"
    );

    let (profiled, profile) = rootcast::run_profiled(&cfg).expect("valid scenario");
    assert_eq!(
        summarize(&dark),
        summarize(&profiled),
        "profiling changed simulation output"
    );
    assert!(
        !profile.phases.is_empty() && !profile.ticks.is_empty(),
        "the profiler saw phases and subsystem ticks"
    );

    // Metrics are also observation-only and identical either way.
    assert_eq!(
        dark.metrics.counter("fluid.windows"),
        traced.metrics.counter("fluid.windows")
    );
    assert_eq!(
        dark.metrics.counter("fluid.policy_transitions"),
        traced.metrics.counter("fluid.policy_transitions")
    );
}

#[test]
fn shared_substrate_runs_are_bit_identical_to_standalone_runs() {
    // The sweep engine's determinism contract: running a scenario over
    // a prebuilt shared substrate — with per-run knobs (here a 3×
    // legitimate-load change) applied on top — is bit-identical to a
    // cold standalone run of the same config. `SimWorld::build` is
    // exactly `Substrate::build` + `from_substrate`, so this pins that
    // the two paths cannot drift apart.
    let base = ScenarioConfig::small();
    let mut variant = base.clone();
    variant.legit_total_qps *= 3.0;

    let substrate = Substrate::build(&base);
    for cfg in [&base, &variant] {
        let shared = summarize(&run_with_substrate(cfg, &substrate).expect("valid scenario"));
        let standalone = summarize(&run(cfg).expect("valid scenario"));
        assert_eq!(
            shared, standalone,
            "substrate sharing changed simulation output"
        );
    }
}

#[test]
fn fault_runs_are_bit_identical_across_thread_counts() {
    // Same property with every fault kind in play: the injector draws
    // from its own RNG stream on the single-threaded engine loop, so
    // faulted runs must stay a pure function of (seed, plan) too.
    let mut cfg = ScenarioConfig::small();
    cfg.faults = FaultPlan::none()
        .with(
            SimTime::from_mins(15),
            SimDuration::from_mins(30),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        )
        .with(
            SimTime::from_mins(20),
            SimDuration::from_mins(45),
            FaultKind::RssacGap { letter: Letter::H },
        )
        .with(
            SimTime::from_mins(25),
            SimDuration::from_mins(60),
            FaultKind::RssacCorrupt {
                letter: Letter::K,
                factor: 0.4,
            },
        )
        .with(
            SimTime::from_mins(10),
            SimDuration::from_mins(50),
            FaultKind::ProbeDropout {
                fraction: 0.3,
                letters: vec![Letter::E, Letter::F],
            },
        )
        .with(
            SimTime::from_mins(30),
            SimDuration::from_mins(40),
            FaultKind::FirmwareDowngrade { fraction: 0.2 },
        )
        .with(
            SimTime::from_mins(5),
            SimDuration::from_mins(90),
            FaultKind::CollectorBlackout { letter: Letter::K },
        );

    let first = summarize(&run(&cfg).expect("valid scenario"));
    let second = summarize(&run(&cfg).expect("valid scenario"));
    assert_eq!(first, second, "two identical fault runs diverged");

    let single = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| summarize(&run(&cfg).expect("valid scenario")));
    assert_eq!(
        first, single,
        "single-thread fault run diverged from the default pool"
    );
}

/// `output_digest` of `run(&ScenarioConfig::small())`. A change that
/// moves any simulated fact the analysis layer reads moves this value;
/// bump it only for a deliberate behaviour change.
const SMALL_OUTPUT_DIGEST: u64 = 13_351_216_472_877_876_908;

/// `Debug` text of the headline of a one-run sweep over `small()` with
/// a site crash planned inside event 1.
const SMALL_SITE_CRASH_HEADLINE: &str = "Headline { n_ases: 436, n_vps_kept: 384, \
    worst_letter_availability: 0.12760416666666666, mean_letter_availability: 0.6666718030900723, \
    peak_offered_qps: 5082297.763379642, worst_served_ratio: 0.06977581923537435, \
    policy_transitions: 36, route_events: 50, faults_injected: 2 }";

#[test]
fn small_output_digest_is_pinned() {
    let out = run(&ScenarioConfig::small()).expect("valid scenario");
    assert_eq!(output_digest(&out), SMALL_OUTPUT_DIGEST);
}

#[test]
fn small_site_crash_sweep_headline_is_pinned() {
    let faults = FaultPlan::none().with(
        SimTime::from_hours(7),
        SimDuration::from_mins(45),
        FaultKind::SiteCrash {
            letter: Letter::K,
            site: "AMS".into(),
        },
    );
    let plan = SweepPlan::explicit(
        "small-site-crash",
        ScenarioConfig::small(),
        vec![SweepRun::new(
            "k-ams-crash",
            ConfigPatch::none().with_faults(faults),
        )],
    );
    let report = run_sweep(&plan).expect("valid sweep");
    assert_eq!(report.records.len(), 1);
    let headline = format!("{:?}", report.records[0].headline);
    assert_eq!(headline, SMALL_SITE_CRASH_HEADLINE);
}
