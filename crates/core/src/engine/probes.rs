//! The Atlas probing wheel.
//!
//! Each (VP, letter) pair probes on its own phase of the letter's
//! probing interval (4 min; 30 min for A-root, §2.4.1). The wheel is
//! precomputed per minute slot and letter — the full scenario would
//! otherwise evaluate ~350 M phase checks — and each tick fans out per
//! letter on rayon. Every (letter, minute) pair draws from its own named
//! RNG stream and records into its own letter's pipeline shard, so
//! outputs are bit-identical at any thread count.

use crate::engine::faults::ProbeAction;
use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rayon::prelude::*;
use rootcast_anycast::AnycastService;
use rootcast_atlas::{
    clean_outcome, execute_probe, execute_probe_fused, ChaosTarget, CleanObs, IndexedView,
    LetterShard, TargetView, VpId,
};
use rootcast_dns::Letter;
use rootcast_netsim::{SimDuration, SimTime};

/// Adapter exposing an [`AnycastService`] as a probe target.
pub(crate) struct ServiceTarget<'a> {
    pub svc: &'a AnycastService,
}

impl ChaosTarget for ServiceTarget<'_> {
    fn letter(&self) -> Letter {
        self.svc.letter.expect("root service has a letter")
    }

    fn view(&self, asn: rootcast_topology::AsId, client_hash: u64) -> Option<TargetView> {
        let pv = self.svc.probe_view(asn, client_hash)?;
        Some(TargetView::new(
            self.svc.site(pv.site).spec.code.clone(),
            pv.server,
            pv.rtt,
            pv.drop_prob,
        ))
    }
}

/// The probing subsystem: per minute slot, the VPs due for each letter,
/// cycling every lcm(intervals) minutes.
///
/// Probes execute on the fused path by default: the service's catchment
/// view is resolved straight to the pipeline's site *index* (via a
/// per-letter map precomputed at construction) and recorded in place
/// into the letter's [`LetterShard`](rootcast_atlas::LetterShard)
/// inside the per-letter fan-out — no per-probe allocation, no strings,
/// no serial merge. The
/// [`reference_kernels`](crate::config::ScenarioConfig::reference_kernels)
/// flag selects the legacy `execute_probe` → `clean_outcome` → `record`
/// path instead; both draw the identical RNG sequence and produce
/// bit-identical pipelines.
pub struct ProbeWheel {
    /// Per minute slot, per letter index: the VPs due, in VP order.
    wheel: Vec<Vec<Vec<u32>>>,
    /// Per letter index: the `"probes-{letter}"` RNG stream key.
    stream_keys: Vec<String>,
    /// Per letter index: service site index → pipeline site index.
    site_map: Vec<Vec<u16>>,
    /// Use the string-roundtrip reference probe path.
    reference: bool,
}

impl ProbeWheel {
    /// Precompute the wheel for the world's cleaned fleet. VPs excluded
    /// by the cleaning stage never probe.
    pub fn new(world: &SimWorld) -> ProbeWheel {
        let cfg = world.cfg;
        assert_eq!(
            cfg.probe_interval.as_secs() % 60,
            0,
            "probe interval must be whole minutes"
        );
        assert_eq!(cfg.a_probe_interval.as_secs() % 60, 0);
        let interval_minutes = cfg.probe_interval.as_secs() / 60;
        let a_interval_minutes = cfg.a_probe_interval.as_secs() / 60;
        let wheel_period = lcm(interval_minutes.max(1), a_interval_minutes.max(1)) as usize;
        let excluded = world.cleaning.excluded_set();
        let mut wheel: Vec<Vec<Vec<u32>>> =
            vec![vec![Vec::new(); world.letters.len()]; wheel_period];
        for vp in world.fleet.iter() {
            if excluded.contains(&vp.id) {
                continue;
            }
            for (i, &letter) in world.letters.iter().enumerate() {
                let interval = if letter == Letter::A {
                    a_interval_minutes
                } else {
                    interval_minutes
                };
                let phase = (u64::from(vp.id.0)
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(letter as u64 * 7))
                    % interval;
                let mut slot = phase as usize;
                while slot < wheel_period {
                    wheel[slot][i].push(vp.id.0);
                    slot += interval as usize;
                }
            }
        }
        let stream_keys = world
            .letters
            .iter()
            .map(|letter| format!("probes-{letter}"))
            .collect();
        // Pipeline site indices in service-site order, resolved once so
        // the fused path never touches an airport-code string.
        let site_map = world
            .letters
            .iter()
            .enumerate()
            .map(|(i, &letter)| {
                let data = world.pipeline.letter(letter);
                world.services[i]
                    .sites()
                    .iter()
                    .map(|s| {
                        data.site_idx(&s.spec.code)
                            .expect("pipeline registered every service site")
                    })
                    .collect()
            })
            .collect();
        ProbeWheel {
            wheel,
            stream_keys,
            site_map,
            reference: cfg.reference_kernels,
        }
    }

    /// Number of minute slots before the wheel repeats.
    pub fn period(&self) -> usize {
        self.wheel.len()
    }

    /// The (VP, letter index) pairs due in minute `m`, letter by letter
    /// and in VP order within a letter.
    pub fn due(&self, minute: u64) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.slot(minute)
            .iter()
            .enumerate()
            .flat_map(|(i, vps)| vps.iter().map(move |&vp| (vp, i)))
    }

    /// Per letter index, the VPs due in minute `m`.
    fn slot(&self, minute: u64) -> &[Vec<u32>] {
        &self.wheel[(minute as usize) % self.wheel.len()]
    }
}

impl Subsystem for ProbeWheel {
    fn name(&self) -> &'static str {
        "probes"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + SimDuration::from_mins(1)]
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let minute = t.as_secs() / 60;
        let slot = self.slot(minute);
        let (stream_keys, site_map) = (&self.stream_keys, &self.site_map);
        let (services, fleet, letters, rngf, faults) = (
            &world.services,
            &world.fleet,
            &world.letters,
            world.rng_factory,
            &world.faults,
        );
        let due: usize = slot.iter().map(Vec::len).sum();
        // A dropped-out VP (Skip) never probes (no RNG draw); a
        // firmware-downgraded VP (Discard) probes with the same draws as
        // a healthy run but its measurement is unusable. Both count as
        // missed.
        if self.reference {
            // Reference path: textual CHAOS identities, parsed back by
            // the cleaning stage, recorded by airport code after a
            // serial merge in letter order.
            let results: Vec<Vec<(VpId, Option<CleanObs>)>> = (0..letters.len())
                .into_par_iter()
                .map(|i| {
                    let letter = letters[i];
                    let mut rng = rngf.indexed_stream(&stream_keys[i], minute);
                    let target = ServiceTarget { svc: &services[i] };
                    slot[i]
                        .iter()
                        .map(|&vp_id| match faults.probe_action(vp_id, letter) {
                            ProbeAction::Skip => (VpId(vp_id), None),
                            ProbeAction::Discard => {
                                let vp = fleet.vp(VpId(vp_id));
                                let _ = execute_probe(vp, &target, t, &mut rng);
                                (vp.id, None)
                            }
                            ProbeAction::Normal => {
                                let vp = fleet.vp(VpId(vp_id));
                                let m = execute_probe(vp, &target, t, &mut rng);
                                (vp.id, Some(clean_outcome(&m)))
                            }
                        })
                        .collect()
                })
                .collect();
            for (i, letter_obs) in results.into_iter().enumerate() {
                let letter = letters[i];
                for (vp, obs) in letter_obs {
                    let recorded = match obs {
                        Some(obs) => world.pipeline.record(vp, letter, t, &obs),
                        None => world.pipeline.note_missed(letter, t),
                    };
                    if let Err(err) = recorded {
                        // The wheel only probes letters the world
                        // registered, so this is a programmer error, not
                        // data to skip.
                        debug_assert!(false, "pipeline rejected wheel observation: {err}");
                        let _ = err;
                    }
                }
            }
            world.metrics.inc(keys::PROBES_REFERENCE, due as u64);
        } else {
            // Fused path: each letter probes and records into its own
            // pipeline shard (registered in `world.letters` order) on
            // its own RNG stream; nothing is buffered or merged.
            let mut shards: Vec<(usize, LetterShard<'_>)> =
                world.pipeline.shards().into_iter().enumerate().collect();
            shards.par_iter_mut().for_each(|(i, shard)| {
                let i = *i;
                let letter = letters[i];
                debug_assert_eq!(shard.letter(), letter);
                let mut rng = rngf.indexed_stream(&stream_keys[i], minute);
                let (svc, sites) = (&services[i], &site_map[i]);
                for &vp_id in &slot[i] {
                    let action = faults.probe_action(vp_id, letter);
                    if action == ProbeAction::Skip {
                        shard.note_missed(t);
                        continue;
                    }
                    let vp = fleet.vp(VpId(vp_id));
                    let view = svc.probe_view(vp.asn, vp.client_hash()).map(|pv| {
                        IndexedView::new(sites[pv.site], pv.server, pv.rtt, pv.drop_prob)
                    });
                    let obs = execute_probe_fused(vp, view, &mut rng);
                    if action == ProbeAction::Discard {
                        shard.note_missed(t);
                    } else if let Err(err) = shard.record(vp.id, t, obs) {
                        debug_assert!(false, "pipeline rejected wheel observation: {err}");
                        let _ = err;
                    }
                }
            });
            world.metrics.inc(keys::PROBES_FUSED, due as u64);
        }
        vec![t + SimDuration::from_mins(1)]
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::instrument::NoopInstrumentation;
    use rootcast_netsim::SimRng;

    #[test]
    fn lcm_gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(lcm(4, 30), 60);
        assert_eq!(lcm(1, 7), 7);
    }

    #[test]
    fn wheel_covers_every_pair_once_per_interval() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut obs = NoopInstrumentation;
        let world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
        let wheel = ProbeWheel::new(&world);
        // lcm(4, 30) minutes.
        assert_eq!(wheel.period(), 60);
        let kept = world.cleaning.kept_count();
        // Across one full period every kept VP hits every letter at the
        // letter's own frequency: 60/4 for the 12 non-A letters, 60/30
        // for A.
        let total: usize = (0..60).map(|m| wheel.due(m).count()).sum();
        assert_eq!(total, kept * (12 * 15 + 2));
        // A single interval of 4 minutes contains each (VP, non-A
        // letter) pair exactly once.
        let a_idx = world
            .letters
            .iter()
            .position(|&l| l == Letter::A)
            .expect("A present");
        let mut non_a = 0;
        for m in 0..4 {
            non_a += wheel.due(m).filter(|&(_, i)| i != a_idx).count();
        }
        assert_eq!(non_a, kept * 12);
    }

    #[test]
    fn fused_and_reference_wheels_are_bit_identical() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);

        let run = |reference: bool| {
            let mut cfg = cfg.clone();
            cfg.reference_kernels = reference;
            let mut obs = NoopInstrumentation;
            let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
            let mut wheel = ProbeWheel::new(&world);
            for m in 1..=8u64 {
                wheel.tick(&mut world, SimTime::from_mins(m));
            }
            world.pipeline.finalize();
            (world.letters.clone(), world.pipeline)
        };
        let (letters, fused) = run(false);
        let (_, reference) = run(true);
        for &l in &letters {
            let (a, b) = (fused.letter(l), reference.letter(l));
            assert_eq!(a.success.values(), b.success.values(), "letter {l}");
            assert_eq!(a.errors.values(), b.errors.values(), "letter {l}");
            assert_eq!(a.raster, b.raster, "letter {l}");
            assert_eq!(a.observed_probes, b.observed_probes, "letter {l}");
            assert_eq!(a.missed_probes, b.missed_probes, "letter {l}");
            for (sa, sb) in a.site_counts.iter().zip(&b.site_counts) {
                assert_eq!(sa.values(), sb.values(), "letter {l}");
            }
        }
    }

    #[test]
    fn probe_results_identical_across_thread_counts() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(10);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);

        let run_minutes = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("pool");
            pool.install(|| {
                let mut obs = NoopInstrumentation;
                let mut world = SimWorld::build(&cfg, &rngf, &mut obs).expect("world builds");
                let mut wheel = ProbeWheel::new(&world);
                for m in 1..=8u64 {
                    wheel.tick(&mut world, SimTime::from_mins(m));
                }
                world.pipeline.finalize();
                world
                    .letters
                    .iter()
                    .map(|&l| world.pipeline.letter(l).success.values().to_vec())
                    .collect::<Vec<_>>()
            })
        };
        assert_eq!(run_minutes(1), run_minutes(4));
    }
}
