//! Test oracles for the engine's two cached kernels.
//!
//! The fluid tick splits load through per-service catchment indices and
//! the probe wheel records index-resolved observations in place. Their
//! references — the uncached [`AnycastService::offered_per_site`] split
//! and the textual `execute_probe` → `clean_outcome` →
//! [`MeasurementPipeline::record`] path — live here. [`FluidAudit`] and
//! [`ProbeAudit`] wrap the production subsystems, recompute each tick
//! with the reference and assert bit-identical results before the run
//! moves on.
//!
//! [`AnycastService::offered_per_site`]: rootcast_anycast::AnycastService::offered_per_site

use crate::engine::faults::ProbeAction;
use crate::engine::world::ServiceTarget;
use crate::engine::{ProbeWheel, SimWorld, Subsystem};
use rootcast_atlas::{clean_outcome, execute_probe, MeasurementPipeline, VpId};
use rootcast_netsim::SimTime;
use std::cell::RefCell;
use std::rc::Rc;

/// What an audit wrapper saw over a run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct AuditCounts {
    /// Ticks audited.
    pub ticks: u64,
    /// Audited ticks whose world carried a catchment epoch the previous
    /// audited tick had not seen: the ticks a stale cache would get
    /// wrong.
    pub after_bump: u64,
    /// Fluid: windows with attack load offered.
    pub attacked: u64,
    /// Probes: scheduled probes a dropout skipped.
    pub skipped: u64,
    /// Probes: probes a firmware downgrade discarded.
    pub discarded: u64,
}

/// The uncached split of the window starting at `world.fluid.last_fluid`:
/// per service and site, the attack-only load and the attack plus
/// legitimate load, q/s.
pub(crate) fn reference_offered(world: &SimWorld) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let cfg = world.cfg;
    let window_start = world.fluid.last_fluid;
    world
        .services
        .iter()
        .enumerate()
        .map(|(i, svc)| match svc.letter {
            Some(letter) => {
                let atk_rate = cfg.attack.rate_for(letter, window_start);
                let atk = svc.offered_per_site(world.botnet.weights(), atk_rate);
                let leg = svc.offered_per_site(
                    &world.legit_weights[i],
                    cfg.legit_total_qps * world.legit_shares[letter as usize],
                );
                let sum = atk.iter().zip(&leg).map(|(a, b)| a + b).collect();
                (atk, sum)
            }
            None => {
                let leg = svc.offered_per_site(&world.pop_weights, cfg.nl_qps);
                (vec![0.0; leg.len()], leg)
            }
        })
        .unzip()
}

/// Replay the wheel's minute-`t` tick on the textual path into
/// `pipeline`: per letter, the `"probes-{letter}"` stream of the minute,
/// the world's fault actions, CHAOS identities formatted and parsed
/// back, observations recorded by airport code. Returns the number of
/// (skipped, discarded) probes.
pub(crate) fn reference_probe_tick(
    world: &SimWorld,
    schedule: &ProbeWheel,
    pipeline: &mut MeasurementPipeline,
    t: SimTime,
) -> (u64, u64) {
    let minute = t.as_secs() / 60;
    let (mut skipped, mut discarded) = (0, 0);
    let mut stream = None;
    for (vp_id, i) in schedule.due(minute) {
        let letter = world.letters[i];
        let rng = match &mut stream {
            Some((at, rng)) if *at == i => rng,
            slot => {
                let key = format!("probes-{letter}");
                &mut slot
                    .insert((i, world.rng_factory.indexed_stream(&key, minute)))
                    .1
            }
        };
        let target = ServiceTarget {
            svc: &world.services[i],
        };
        let vp = world.fleet.vp(VpId(vp_id));
        let recorded = match world.faults.probe_action(vp_id, letter) {
            ProbeAction::Skip => {
                skipped += 1;
                pipeline.note_missed(letter, t)
            }
            ProbeAction::Discard => {
                discarded += 1;
                let _ = execute_probe(vp, &target, t, rng);
                pipeline.note_missed(letter, t)
            }
            ProbeAction::Normal => {
                let m = execute_probe(vp, &target, t, rng);
                pipeline.record(vp.id, letter, t, &clean_outcome(&m))
            }
        };
        recorded.expect("the wheel probes registered letters only");
    }
    (skipped, discarded)
}

/// Whether `world` carries a catchment epoch the previous audited tick
/// had not seen (`seen` holds that tick's epochs and is updated).
fn crossed_bump(seen: &mut Vec<u64>, world: &SimWorld) -> bool {
    let now: Vec<u64> = world.services.iter().map(|s| s.catchment_epoch()).collect();
    let crossed = !seen.is_empty() && *seen != now;
    *seen = now;
    crossed
}

fn bits(loads: &[Vec<f64>]) -> Vec<Vec<u64>> {
    loads
        .iter()
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// Wraps the fluid subsystem: before each tick computes the window's
/// split with [`reference_offered`], after it asserts the published
/// `world.fluid.offered` and `offered_attack` equal it bit for bit.
pub(crate) struct FluidAudit {
    inner: Box<dyn Subsystem>,
    seen: Vec<u64>,
    counts: Rc<RefCell<AuditCounts>>,
}

impl FluidAudit {
    pub fn new(inner: Box<dyn Subsystem>, counts: Rc<RefCell<AuditCounts>>) -> FluidAudit {
        FluidAudit {
            inner,
            seen: Vec::new(),
            counts,
        }
    }
}

impl Subsystem for FluidAudit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        self.inner.initial_wakeups()
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let (attack, offered) = reference_offered(world);
        let crossed = crossed_bump(&mut self.seen, world);
        let next = self.inner.tick(world, t);
        assert_eq!(
            bits(&world.fluid.offered),
            bits(&offered),
            "offered load diverged from the uncached split at {t}"
        );
        assert_eq!(
            bits(&world.fluid.offered_attack),
            bits(&attack),
            "attack load diverged from the uncached split at {t}"
        );
        let mut c = self.counts.borrow_mut();
        c.ticks += 1;
        c.after_bump += u64::from(crossed);
        c.attacked += u64::from(attack.iter().flatten().any(|&q| q > 0.0));
        next
    }

    fn finish(&mut self, world: &mut SimWorld) {
        self.inner.finish(world);
    }
}

/// Wraps the probe subsystem: keeps a copy of the measurement pipeline,
/// replays each tick into it with [`reference_probe_tick`], and asserts
/// after every tick that each letter's data and outcome tallies equal
/// the production pipeline's.
pub(crate) struct ProbeAudit {
    inner: Box<dyn Subsystem>,
    schedule: ProbeWheel,
    oracle: MeasurementPipeline,
    seen: Vec<u64>,
    counts: Rc<RefCell<AuditCounts>>,
}

impl ProbeAudit {
    /// Audit `inner` from `world`'s current state on; `inner` must be a
    /// wheel built over the same world.
    pub fn new(
        inner: Box<dyn Subsystem>,
        world: &SimWorld,
        counts: Rc<RefCell<AuditCounts>>,
    ) -> ProbeAudit {
        ProbeAudit {
            inner,
            schedule: ProbeWheel::new(world),
            oracle: world.pipeline.clone(),
            seen: Vec::new(),
            counts,
        }
    }
}

impl Subsystem for ProbeAudit {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        self.inner.initial_wakeups()
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let (skipped, discarded) = reference_probe_tick(world, &self.schedule, &mut self.oracle, t);
        let crossed = crossed_bump(&mut self.seen, world);
        let next = self.inner.tick(world, t);
        for &l in &world.letters {
            assert!(
                world.pipeline.letter(l) == self.oracle.letter(l),
                "letter {l}: pipeline diverged from the textual probe path at {t}"
            );
        }
        assert_eq!(
            world.pipeline.outcome_stats(),
            self.oracle.outcome_stats(),
            "outcome tallies diverged at {t}"
        );
        let mut c = self.counts.borrow_mut();
        c.ticks += 1;
        c.after_bump += u64::from(crossed);
        c.skipped += skipped;
        c.discarded += discarded;
        next
    }

    fn finish(&mut self, world: &mut SimWorld) {
        self.inner.finish(world);
    }
}
