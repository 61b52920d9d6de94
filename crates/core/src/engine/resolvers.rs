//! Resolver preference refresh.
//!
//! Every `resolver_update` period, each populated AS re-observes all 13
//! letters (RTT and loss through its current catchments) and re-weights
//! its letter preferences — the mechanism behind the paper's §3.2.2
//! letter flips. The refreshed weights feed the next fluid window; the
//! pre-event aggregate shares are frozen as the RSSAC baseline once the
//! first attack window opens.

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rootcast_attack::LetterObservation;
use rootcast_netsim::{SimDuration, SimTime};
use rootcast_topology::AsId;

/// The resolver-population subsystem.
#[derive(Debug)]
pub struct ResolverRefresh {
    period: SimDuration,
}

impl ResolverRefresh {
    pub fn new(period: SimDuration) -> ResolverRefresh {
        ResolverRefresh { period }
    }
}

impl Subsystem for ResolverRefresh {
    fn name(&self) -> &'static str {
        "resolvers"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + self.period]
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        // Letter-major: one service's RIB at a time, not 13 RIBs per AS.
        let mut service_of = [None; 13];
        for (i, &letter) in world.letters.iter().enumerate() {
            service_of[letter as usize] = Some(i);
        }
        let services = &world.services;
        world.resolvers.refresh(&world.pop_weights, |letter, asn| {
            service_of[letter as usize]
                .and_then(|i| services[i].probe_view(AsId(asn as u32), asn as u64))
                .map_or(LetterObservation::unreachable(), |pv| LetterObservation {
                    rtt: Some(pv.rtt),
                    loss: pv.drop_prob,
                })
        });
        for (i, &letter) in world.letters.iter().enumerate() {
            world.resolvers.letter_weights_into(
                letter,
                &world.pop_weights,
                &mut world.legit_weights[i],
            );
        }
        world.legit_weights_version += 1;
        world.metrics.inc(keys::RESOLVER_REFRESHES, 1);
        world.legit_shares = world.resolvers.aggregate_shares(&world.pop_weights);
        if t < world.first_attack {
            world.baseline_shares = world.legit_shares;
        }
        vec![t + self.period]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use rootcast_netsim::SimRng;

    #[test]
    fn refresh_reweights_letters_and_freezes_baseline() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
        let mut sub = ResolverRefresh::new(cfg.resolver_update);

        let uniform_shares = world.legit_shares;
        let t = SimTime::ZERO + cfg.resolver_update;
        let next = sub.tick(&mut world, t);
        assert_eq!(next, vec![t + cfg.resolver_update]);
        // RTT-shaped preferences are no longer the uninformed prior.
        assert_ne!(world.legit_shares, uniform_shares);
        let sum: f64 = world.legit_shares.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "shares sum to {sum}");
        // Pre-event ticks move the frozen baseline along.
        assert!(t < world.first_attack);
        assert_eq!(world.baseline_shares, world.legit_shares);

        // A tick after the first attack window leaves the baseline.
        let frozen = world.baseline_shares;
        let during = world.first_attack + SimDuration::from_mins(1);
        sub.tick(&mut world, during);
        assert_eq!(world.baseline_shares, frozen);
    }
}
