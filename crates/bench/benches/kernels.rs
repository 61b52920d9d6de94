//! Micro-benchmarks of the simulation kernels: the hot paths a
//! full-scale run spends its time in. Useful when optimizing, and as a
//! regression tripwire for the 30-second full reproduction.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::SeedableRng;
use rootcast::engine::{
    FaultInjector, FaultKind, FaultPlan, FluidTraffic, ProbeWheel, ResolverRefresh, SimWorld,
};
use rootcast::{ScenarioConfig, Subsystem};
use rootcast_anycast::{AnycastService, CatchmentIndex};
use rootcast_atlas::{clean_outcome, CleanObs, MeasurementPipeline, PipelineConfig, VpId};
use rootcast_atlas::{RawMeasurement, RawOutcome};
use rootcast_attack::{Botnet, BotnetParams};
use rootcast_bgp::{compute_rib_scoped, Origin, Scope};
use rootcast_dns::{Letter, Message, Name, RootZone, RrClass, RrType, ServerIdentity};
use rootcast_netsim::stats::CardinalitySketch;
use rootcast_netsim::{FluidQueue, SimDuration, SimRng, SimTime};
use rootcast_topology::{gen, Tier, TopologyParams};
use std::hint::black_box;

fn bench_topology(c: &mut Criterion) {
    c.bench_function("topology_generate_default", |b| {
        b.iter(|| black_box(gen::generate(&TopologyParams::default(), &SimRng::new(1))))
    });
}

fn bench_bgp(c: &mut Criterion) {
    let graph = gen::generate(&TopologyParams::default(), &SimRng::new(1));
    let stubs = graph.by_tier(Tier::Stub);
    // A 30-origin anycast prefix (K-root scale).
    let origins: Vec<Origin> = stubs
        .iter()
        .step_by(stubs.len() / 30)
        .take(30)
        .map(|&host| Origin {
            host,
            scope: Scope::Global,
            prepend: 0,
        })
        .collect();
    let active = vec![true; origins.len()];
    c.bench_function("bgp_rib_30_sites_1600_ases", |b| {
        b.iter(|| black_box(compute_rib_scoped(&graph, &origins, &active)))
    });
    // The withdrawal-reconvergence path: one site toggles.
    let mut toggled = active.clone();
    toggled[0] = false;
    c.bench_function("bgp_reconverge_after_withdrawal", |b| {
        b.iter(|| black_box(compute_rib_scoped(&graph, &origins, &toggled)))
    });
}

fn bench_dns(c: &mut Criterion) {
    let zone = RootZone::nov2015();
    let q = Message::query(
        1,
        Name::parse("www.336901.com").unwrap(),
        RrType::A,
        RrClass::In,
    );
    c.bench_function("dns_encode_query", |b| b.iter(|| black_box(q.encode())));
    let referral = zone.answer(&q);
    c.bench_function("dns_encode_referral", |b| {
        b.iter(|| black_box(referral.encode()))
    });
    let wire = referral.encode();
    c.bench_function("dns_decode_referral", |b| {
        b.iter(|| black_box(Message::decode(&wire).unwrap()))
    });
    let id = ServerIdentity::new(Letter::K, "AMS", 2);
    let txt = id.format_txt();
    c.bench_function("chaos_parse_identity", |b| {
        b.iter(|| black_box(ServerIdentity::parse_txt(Letter::K, &txt)))
    });
    c.bench_function("rootzone_answer_referral", |b| {
        b.iter(|| black_box(zone.answer(&q)))
    });
}

fn bench_rrl(c: &mut Criterion) {
    use rootcast_dns::{RateLimiter, RrlConfig};
    c.bench_function("rrl_check_mixed_sources", |b| {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        use rand::Rng;
        b.iter_batched(
            || RateLimiter::new(RrlConfig::default()),
            |mut rrl| {
                for i in 0..1000u32 {
                    let src = if rng.gen_bool(0.68) {
                        [100, 64, 0, (i % 200) as u8]
                    } else {
                        let b = rng.gen::<u32>().to_be_bytes();
                        [b[0].max(1), b[1], b[2], b[3]]
                    };
                    black_box(rrl.check(src, SimTime::from_nanos(u64::from(i) * 1000)));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_fluid(c: &mut Criterion) {
    c.bench_function("fluid_queue_advance_1000_steps", |b| {
        b.iter_batched(
            || FluidQueue::new(100_000.0, 150_000.0),
            |mut q| {
                let mut t = SimTime::ZERO;
                for i in 0..1000u64 {
                    t += SimDuration::from_secs(60);
                    let offered = if i % 10 < 3 { 250_000.0 } else { 50_000.0 };
                    black_box(q.advance(t, offered));
                }
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let cfg = PipelineConfig {
        bin: SimDuration::from_mins(10),
        horizon: SimTime::from_hours(2),
        rtt_subsample: 8,
        watched_sites: vec![(Letter::K, "FRA".into())],
        raster_letters: vec![Letter::K],
        probe_interval: SimDuration::from_mins(4),
    };
    c.bench_function("pipeline_record_10k_observations", |b| {
        b.iter_batched(
            || {
                let mut p = MeasurementPipeline::new(cfg.clone(), 500);
                p.register_letter(Letter::K, vec!["AMS".into(), "FRA".into(), "LHR".into()]);
                p
            },
            |mut p| {
                let id = ServerIdentity::new(Letter::K, "FRA", 2);
                for i in 0..10_000u64 {
                    let t = SimTime::from_secs(i % 7000);
                    let obs = if i % 7 == 0 {
                        CleanObs::Timeout
                    } else {
                        CleanObs::Site(id.clone(), SimDuration::from_millis(30))
                    };
                    p.record(VpId((i % 500) as u32), Letter::K, t, &obs)
                        .unwrap();
                }
                p.finalize();
                black_box(p)
            },
            BatchSize::SmallInput,
        )
    });
    // The cleaning classifier on raw outcomes.
    let m = RawMeasurement {
        vp: 1,
        letter: Letter::K,
        at: SimTime::ZERO,
        outcome: RawOutcome::Reply {
            txt: ServerIdentity::new(Letter::K, "AMS", 1).format_txt(),
            rtt: SimDuration::from_millis(30),
        },
    };
    c.bench_function("clean_outcome_reply", |b| {
        b.iter(|| black_box(clean_outcome(&m)))
    });
}

fn bench_catchment(c: &mut Criterion) {
    // The offered_per_site kernel at K-root scale: the uncached path
    // rebuilds the per-site weight sums from the full RIB every call
    // (O(n_AS)); the cached path refreshes a CatchmentIndex (a no-op
    // while the routing epoch and weight version are unchanged) and
    // fills from the per-site sums (O(n_sites)).
    let rng = SimRng::new(1);
    let graph = gen::generate(&TopologyParams::default(), &rng);
    let d = rootcast::nov2015_deployments(&graph)
        .into_iter()
        .find(|d| d.letter == Letter::K)
        .expect("K-root deployed");
    let svc = AnycastService::new("k-root", Some(Letter::K), &graph, d.sites);
    let botnet = Botnet::generate(&graph, BotnetParams::default(), &rng);
    let weights = botnet.weights();
    c.bench_function("offered_per_site_uncached", |b| {
        b.iter(|| black_box(svc.offered_per_site(weights, 2_500_000.0)))
    });
    let mut idx = CatchmentIndex::default();
    let mut out = Vec::new();
    c.bench_function("offered_per_site_cached", |b| {
        b.iter(|| {
            svc.refresh_catchment_index(&mut idx, weights, 1);
            idx.offered_per_site_into(2_500_000.0, &mut out);
            black_box(out.last().copied())
        })
    });
}

fn bench_rib_flip_back(c: &mut Criterion) {
    // One K-root site withdraws and re-announces. After the first pair
    // both steps return to the set behind the previous table, so the
    // service swaps that table back in instead of solving again.
    let graph = gen::generate(&TopologyParams::default(), &SimRng::new(1));
    let d = rootcast::nov2015_deployments(&graph)
        .into_iter()
        .find(|d| d.letter == Letter::K)
        .expect("K-root deployed");
    let mut svc = AnycastService::new("k-root", Some(Letter::K), &graph, d.sites);
    c.bench_function("rib_flip_back", |b| {
        b.iter(|| {
            svc.set_announced(0, false, &graph);
            svc.set_announced(0, true, &graph);
            black_box(svc.catchment_epoch())
        })
    });
}

fn bench_resolver_refresh(c: &mut Criterion) {
    // One resolver refresh over the small scenario: every populated AS
    // re-observes all 13 letters, then the 13 legitimate weight vectors
    // and the aggregate shares are rebuilt.
    let cfg = ScenarioConfig::small();
    let rngf = SimRng::new(cfg.seed);
    let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
    let mut refresh = ResolverRefresh::new(cfg.resolver_update);
    let mut t = SimTime::ZERO;
    c.bench_function("resolver_refresh_tick", |b| {
        b.iter(|| {
            t += cfg.resolver_update;
            black_box(refresh.tick(&mut world, t))
        })
    });
}

fn bench_fluid_tick(c: &mut Criterion) {
    // One full fluid window over the small scenario: catchment loads,
    // shared facilities, ingress queues, and stress policies for all 13
    // letters plus .nl.
    let cfg = ScenarioConfig::small();
    let rngf = SimRng::new(cfg.seed);
    let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
    let mut fluid = FluidTraffic::new(cfg.fluid_step);
    let mut t = SimTime::ZERO;
    c.bench_function("fluid_tick", |b| {
        b.iter(|| {
            t += cfg.fluid_step;
            black_box(fluid.tick(&mut world, t))
        })
    });
}

fn bench_probe_wheel_tick(c: &mut Criterion) {
    // One minute of the Atlas probing wheel over the small scenario
    // (every letter probed on the fused path and recorded into its
    // pipeline shard), with a letter-scoped dropout wave and a firmware
    // downgrade active so the fault lookups and missed-probe accounting
    // are on the path.
    let mut cfg = ScenarioConfig::small();
    cfg.faults = FaultPlan::none()
        .with(
            SimTime::ZERO,
            cfg.horizon - SimTime::ZERO,
            FaultKind::ProbeDropout {
                fraction: 0.3,
                letters: vec![Letter::B, Letter::K],
            },
        )
        .with(
            SimTime::ZERO,
            cfg.horizon - SimTime::ZERO,
            FaultKind::FirmwareDowngrade { fraction: 0.2 },
        );
    let rngf = SimRng::new(cfg.seed);
    let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
    let mut faults = FaultInjector::new(rngf.stream("faults"), cfg.faults.clone());
    faults.tick(&mut world, SimTime::ZERO);
    let mut wheel = ProbeWheel::new(&world);
    let horizon_mins = cfg.horizon.as_secs() / 60;
    let mut minute = 0u64;
    c.bench_function("probe_wheel_tick", |b| {
        b.iter(|| {
            // Stay inside the pipeline horizon so every probe records.
            minute = minute % (horizon_mins - 1) + 1;
            black_box(wheel.tick(&mut world, SimTime::from_mins(minute)))
        })
    });
}

fn bench_sketch(c: &mut Criterion) {
    c.bench_function("hll_insert_100k", |b| {
        b.iter_batched(
            CardinalitySketch::new,
            |mut s| {
                for i in 0..100_000u64 {
                    s.insert(i);
                }
                black_box(s.estimate())
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group! {
    name = kernels;
    config = Criterion::default().sample_size(20);
    targets = bench_topology, bench_bgp, bench_dns, bench_rrl, bench_fluid, bench_catchment, bench_rib_flip_back, bench_resolver_refresh, bench_fluid_tick, bench_probe_wheel_tick, bench_pipeline, bench_sketch
}
criterion_main!(kernels);
