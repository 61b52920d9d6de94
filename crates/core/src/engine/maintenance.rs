//! Background maintenance churn.
//!
//! At exponentially distributed instants a random announced *small*
//! site of a random letter goes down for 10 minutes (operator
//! maintenance). Operators drain big sites far more carefully, so
//! maintenance is restricted to sites with small catchments — this
//! keeps the quiet-period flip counts at the low level Figure 8 shows
//! outside the events. Withdrawals and re-announcements are observed by
//! the letter's route collector like any other routing change.

use crate::engine::metrics::keys;
use crate::engine::{SimWorld, Subsystem};
use rand::Rng;
use rootcast_anycast::SiteIdx;
use rootcast_netsim::rng::exp_sample;
use rootcast_netsim::{ChaCha8Rng, SimDuration, SimTime};

/// How long one maintenance window keeps a site withdrawn.
const MAINTENANCE_DOWNTIME: SimDuration = SimDuration::from_mins(10);

/// The maintenance-churn subsystem.
pub struct MaintenanceChurn {
    rng: ChaCha8Rng,
    mean: Option<SimDuration>,
    /// Withdrawn sites awaiting re-announcement: (due, service, site).
    pending: Vec<(SimTime, usize, SiteIdx)>,
    next_churn: Option<SimTime>,
}

impl MaintenanceChurn {
    /// `rng` must be a dedicated stream (the driver uses
    /// `"maintenance"`); `mean` of `None` disables churn entirely.
    pub fn new(mut rng: ChaCha8Rng, mean: Option<SimDuration>) -> MaintenanceChurn {
        let next_churn = mean.map(|m| {
            SimTime::ZERO + SimDuration::from_secs_f64(exp_sample(&mut rng, 1.0 / m.as_secs_f64()))
        });
        MaintenanceChurn {
            rng,
            mean,
            pending: Vec::new(),
            next_churn,
        }
    }

    /// Sites currently withdrawn for maintenance.
    pub fn in_maintenance(&self) -> &[(SimTime, usize, SiteIdx)] {
        &self.pending
    }

    fn churn(&mut self, world: &mut SimWorld, t: SimTime) {
        let n_ases = world.graph.len();
        let svc_idx = self.rng.gen_range(0..world.letters.len());
        let svc = &mut world.services[svc_idx];
        let sizes = svc.rib().catchment_sizes(svc.sites().len());
        let limit = (n_ases as f64 * 0.10) as usize;
        let announced: Vec<SiteIdx> = svc
            .announced_sites()
            .into_iter()
            .filter(|&i| sizes[i] <= limit)
            .collect();
        if announced.is_empty() {
            return;
        }
        let site = announced[self.rng.gen_range(0..announced.len())];
        let graph = &world.graph;
        if world.services[svc_idx].set_announced(site, false, graph) {
            world.metrics.inc(keys::MAINTENANCE_WITHDRAWALS, 1);
            world.observe_routes(t, svc_idx);
            self.pending.push((t + MAINTENANCE_DOWNTIME, svc_idx, site));
        }
    }
}

impl Subsystem for MaintenanceChurn {
    fn name(&self) -> &'static str {
        "maintenance"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        self.next_churn.into_iter().collect()
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        let mut wakeups = Vec::new();
        // Re-announce any site whose maintenance window ends now.
        let due: Vec<(usize, SiteIdx)> = self
            .pending
            .iter()
            .filter(|&&(end, _, _)| end == t)
            .map(|&(_, svc, site)| (svc, site))
            .collect();
        self.pending.retain(|&(end, _, _)| end != t);
        for (svc_idx, site) in due {
            let graph = &world.graph;
            if world.services[svc_idx].set_announced(site, true, graph) {
                world.metrics.inc(keys::MAINTENANCE_REANNOUNCEMENTS, 1);
                world.observe_routes(t, svc_idx);
            }
        }
        // A churn draw scheduled for this instant?
        if self.next_churn == Some(t) {
            self.churn(world, t);
            if let Some(&(end, _, _)) = self.pending.last() {
                if end > t {
                    wakeups.push(end);
                }
            }
            self.next_churn = self.mean.map(|m| {
                t + SimDuration::from_secs_f64(exp_sample(&mut self.rng, 1.0 / m.as_secs_f64()))
            });
            if let Some(next) = self.next_churn {
                wakeups.push(next);
            }
        }
        wakeups
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use rootcast_netsim::SimRng;

    /// Run churn ticks until one withdrawal lands, returning the
    /// (time, service, site) of the withdrawal and the world.
    fn first_withdrawal(
        cfg: &ScenarioConfig,
        rngf: &SimRng,
    ) -> (Vec<(SimTime, usize, SiteIdx)>, Vec<SimTime>) {
        let mut world = SimWorld::build(cfg, rngf).expect("world builds");
        let mut churn = MaintenanceChurn::new(rngf.stream("maintenance"), cfg.maintenance_mean);
        let mut schedule = Vec::new();
        let mut t = churn.initial_wakeups()[0];
        for _ in 0..50 {
            schedule.push(t);
            let wakeups = churn.tick(&mut world, t);
            if !churn.in_maintenance().is_empty() {
                return (churn.in_maintenance().to_vec(), schedule);
            }
            t = *wakeups.last().expect("churn reschedules itself");
        }
        panic!("no withdrawal in 50 churn draws");
    }

    #[test]
    fn withdraw_and_reannounce_are_observed_by_the_collector() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_hours(12);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
        let mut churn = MaintenanceChurn::new(rngf.stream("maintenance"), cfg.maintenance_mean);

        // Tick the churn schedule until a withdrawal happens.
        let mut t = churn.initial_wakeups()[0];
        let mut wakeups;
        loop {
            wakeups = churn.tick(&mut world, t);
            if !churn.in_maintenance().is_empty() {
                break;
            }
            t = *wakeups.last().expect("churn reschedules itself");
        }
        let (end, svc_idx, site) = churn.in_maintenance()[0];
        assert_eq!(end, t + SimDuration::from_mins(10));
        assert!(!world.services[svc_idx].site(site).announced);
        let letter = world.services[svc_idx].letter.expect("root service");
        let events_after_withdraw = world.collectors[&letter].log().len();
        assert!(
            events_after_withdraw > 0,
            "collector saw no routing events after a withdrawal"
        );

        // The wakeup list includes the re-announce instant; ticking
        // there restores the site and the collector sees it too.
        assert!(wakeups.contains(&end));
        churn.tick(&mut world, end);
        assert!(churn.in_maintenance().is_empty());
        assert!(world.services[svc_idx].site(site).announced);
        assert!(world.collectors[&letter].log().len() > events_after_withdraw);
    }

    #[test]
    fn schedule_is_identical_across_same_seed_runs() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_hours(12);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf_a = SimRng::new(cfg.seed);
        let rngf_b = SimRng::new(cfg.seed);
        let (withdrawn_a, schedule_a) = first_withdrawal(&cfg, &rngf_a);
        let (withdrawn_b, schedule_b) = first_withdrawal(&cfg, &rngf_b);
        assert_eq!(schedule_a, schedule_b);
        assert_eq!(withdrawn_a, withdrawn_b);
    }

    #[test]
    fn disabled_churn_never_wakes() {
        let rngf = SimRng::new(7);
        let mut churn = MaintenanceChurn::new(rngf.stream("maintenance"), None);
        assert!(churn.initial_wakeups().is_empty());
    }
}
