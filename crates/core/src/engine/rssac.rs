//! RSSAC-002 accounting and the `.nl` served-rate series.
//!
//! Ticks at the fluid cadence, *after* [`FluidTraffic`] at every
//! instant (it is seeded later, and the engine's FIFO tie-break keeps
//! that order), consuming the offered loads the fluid subsystem
//! published to the world's [`FluidScratch`]. Packet sizes come from
//! real wire encodings — legitimate queries carry an actual EDNS0 OPT
//! pseudo-record, not a byte-count estimate. The finish step settles
//! the per-day unique-source estimates and synthesizes the pre-event
//! baseline reports the analysis layer compares against (Table 3).
//!
//! [`FluidTraffic`]: crate::engine::FluidTraffic
//! [`FluidScratch`]: crate::engine::FluidScratch

use crate::engine::metrics::keys;
use crate::engine::trace::TraceEventKind;
use crate::engine::{SimWorld, Subsystem};
use rootcast_dns::rrl::blended_suppression;
use rootcast_dns::{edns0_opt, Letter, Message, Name, RootZone, RrClass, RrType};
use rootcast_netsim::{SimDuration, SimTime};
use rootcast_rssac::RssacCollector;

/// EDNS0 UDP payload size advertised by typical resolvers.
const EDNS0_PAYLOAD: u16 = 4096;

/// The RSSAC accounting subsystem. Owns the byte-size tables (Table 3's
/// accounting) computed once from real wire encodings.
pub struct RssacAccounting {
    step: SimDuration,
    /// Per attack window: (start, query wire size, response wire size).
    attack_sizes: Vec<(SimTime, usize, usize)>,
    legit_query_size: usize,
    legit_response_size: usize,
    /// Was each letter's accounting stressed (RRL active) in its
    /// previous observed window? Indexed by `Letter as usize`, for
    /// activation edge detection.
    stressed_prev: [bool; 13],
}

impl RssacAccounting {
    /// Encode the scenario's packet-size tables from the real wire
    /// codec. `step` must equal the fluid cadence so every published
    /// scratch window is accounted exactly once.
    pub fn new(cfg: &crate::config::ScenarioConfig) -> RssacAccounting {
        let zone = RootZone::nov2015();
        let attack_sizes: Vec<(SimTime, usize, usize)> = cfg
            .attack
            .windows()
            .iter()
            .map(|w| {
                let q = Message::query(
                    0,
                    Name::parse(&w.qname).expect("valid attack qname"),
                    RrType::A,
                    RrClass::In,
                );
                let qsize = q.wire_size();
                let rsize = zone.answer(&q).wire_size();
                (w.start, qsize, rsize)
            })
            .collect();
        // Legitimate traffic carries EDNS0: a real OPT pseudo-record in
        // the additional section of both query and referral response.
        let q = Message::query(
            0,
            Name::parse("www.example.com").expect("static"),
            RrType::A,
            RrClass::In,
        );
        let mut response = zone.answer(&q);
        let mut query = q;
        query.additionals.push(edns0_opt(EDNS0_PAYLOAD));
        response.additionals.push(edns0_opt(EDNS0_PAYLOAD));
        RssacAccounting {
            step: cfg.fluid_step,
            attack_sizes,
            legit_query_size: query.wire_size(),
            legit_response_size: response.wire_size(),
            stressed_prev: [false; 13],
        }
    }

    /// The (query, response) wire sizes of the attack traffic active at
    /// `t` (the most recent window at or before it).
    pub fn attack_sizes_at(&self, t: SimTime) -> (usize, usize) {
        self.attack_sizes
            .iter()
            .rev()
            .find(|(start, _, _)| *start <= t)
            .map(|&(_, q, r)| (q, r))
            .unwrap_or((44, 488))
    }

    /// Wire size of a legitimate query (with its EDNS0 OPT record).
    pub fn legit_query_size(&self) -> usize {
        self.legit_query_size
    }

    /// Wire size of a legitimate referral response (with EDNS0 OPT).
    pub fn legit_response_size(&self) -> usize {
        self.legit_response_size
    }
}

impl Subsystem for RssacAccounting {
    fn name(&self) -> &'static str {
        "rssac"
    }

    fn initial_wakeups(&mut self) -> Vec<SimTime> {
        vec![SimTime::ZERO + self.step]
    }

    fn tick(&mut self, world: &mut SimWorld, t: SimTime) -> Vec<SimTime> {
        debug_assert_eq!(
            world.fluid.last_fluid, t,
            "accounting must run after the fluid subsystem at the same instant"
        );
        let window_start = world.fluid.window_start;
        let dt = world.fluid.dt;
        let cfg = world.cfg;
        let day = (window_start.as_secs() / 86_400) as usize;

        for (i, svc) in world.services.iter().enumerate() {
            let Some(letter) = svc.letter else { continue };
            let fault_factor = world.faults.rssac_factor(letter);
            let Some(collector) = world.rssac.get_mut(&letter) else {
                continue;
            };
            // A gapped reporting window: the letter served traffic (the
            // physics above this tick are untouched) but its measurement
            // apparatus recorded nothing. Mark the window unobserved and
            // skip both the collector and the per-day accumulators.
            if fault_factor.is_some_and(|f| f <= 0.0) {
                collector.note_window(window_start, dt, false);
                world.metrics.inc(keys::RSSAC_WINDOWS_GAPPED, 1);
                continue;
            }
            let atk_rate = cfg.attack.rate_for(letter, window_start);
            let stressed = atk_rate > 0.0;
            world.metrics.inc(keys::RSSAC_WINDOWS_OBSERVED, 1);
            if stressed && !self.stressed_prev[letter as usize] {
                world.metrics.inc(keys::RRL_ACTIVATIONS, 1);
                world.trace.record_with(t, || TraceEventKind::RrlActivated {
                    letter: (b'A' + letter as u8) as char,
                });
            }
            self.stressed_prev[letter as usize] = stressed;
            // Served per site splits proportionally between attack and
            // legit (same queues).
            let mut atk_served = 0.0;
            let mut leg_served = 0.0;
            for (s, site) in svc.sites().iter().enumerate() {
                let pass = (1.0 - site.facility_loss) * (1.0 - site.last_loss);
                let atk = world.fluid.offered_attack[i][s] * pass;
                atk_served += atk;
                leg_served += (world.fluid.offered[i][s] * pass) - atk;
            }
            // A corrupted window under-reports by the fault's factor.
            // Fault-free windows skip the multiplication entirely so
            // their accounting stays bit-identical to a plan-less run.
            if let Some(f) = fault_factor {
                atk_served *= f;
                leg_served *= f;
            }
            collector.note_window(window_start, dt, true);
            // RRL suppresses most attack responses (fixed qname,
            // heavy-hitter sources) — Verisign reported 60%.
            let suppression = blended_suppression(
                atk_rate.max(1.0),
                world.botnet.heavy_share(),
                world.botnet.n_heavy_sources(),
                5.0,
            );
            let (aq, ar) = self.attack_sizes_at(window_start);
            collector.add_fluid(
                window_start,
                dt,
                atk_served,
                atk_served * (1.0 - suppression),
                aq,
                ar,
                stressed,
            );
            collector.add_fluid(
                window_start,
                dt,
                leg_served,
                leg_served * 0.98,
                self.legit_query_size,
                self.legit_response_size,
                stressed,
            );
            if let Some(days) = world.attack_queries_by_day.get_mut(&letter) {
                if day < days.len() {
                    days[day] += atk_served * dt.as_secs_f64();
                }
            }
            if let Some(days) = world.legit_queries_by_day.get_mut(&letter) {
                if day < days.len() {
                    days[day] += leg_served * dt.as_secs_f64();
                }
            }
        }

        // The .nl served-rate series rides the same fluid windows.
        if let Some(ni) = world.nl_index {
            let svc = &world.services[ni];
            for (s, series) in world.nl_series.iter_mut().enumerate() {
                series.add_at(window_start, svc.site(s).served_qps() * dt.as_secs_f64());
            }
        }

        vec![t + self.step]
    }

    fn finish(&mut self, world: &mut SimWorld) {
        let cfg = world.cfg;
        // Unique-source estimates per reporting letter/day: baseline
        // resolvers contribute ~3-5 M distinct addresses per day
        // (Table 3's rightmost column); the attack adds the spoofed
        // cloud.
        for (&letter, days) in &world.attack_queries_by_day {
            let collector = world.rssac.get_mut(&letter).expect("reporting letter");
            let leg = &world.legit_queries_by_day[&letter];
            let baseline_legit = cfg.legit_total_qps / 13.0 * 86_400.0;
            for (day, (&atk_q, &leg_q)) in days.iter().zip(leg).enumerate() {
                // Legit uniqueness scales sublinearly with query
                // volume: more queries from the same resolvers, plus
                // new resolvers flipping in.
                let legit_unique = 2.9e6 * (leg_q / baseline_legit).max(0.01).powf(0.7);
                let attack_unique = if atk_q > 0.0 {
                    world.botnet.expected_unique_sources(atk_q)
                } else {
                    0.0
                };
                collector.add_unique_sources(day, legit_unique + attack_unique);
            }
        }

        // Synthesized 7-day baseline reports: pre-event days carry only
        // legitimate traffic; the mean report is computed analytically
        // from the same constants the simulation used.
        for &letter in world.rssac.keys() {
            let mut c = RssacCollector::new(letter, 1, 1.0);
            let day = SimDuration::from_hours(24);
            let qps = cfg.legit_total_qps * world.baseline_shares[letter as usize];
            c.add_fluid(
                SimTime::ZERO,
                day,
                qps,
                qps * 0.98,
                self.legit_query_size,
                self.legit_response_size,
                false,
            );
            c.add_unique_sources(0, if letter == Letter::A { 5.35e6 } else { 2.9e6 });
            world.rssac_baseline.insert(letter, c.report(0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ScenarioConfig;
    use crate::engine::FluidTraffic;
    use rootcast_netsim::SimRng;

    #[test]
    fn packet_sizes_come_from_real_encodings() {
        let cfg = ScenarioConfig::small();
        let acct = RssacAccounting::new(&cfg);
        // The OPT pseudo-record is exactly 11 wire bytes, so the legit
        // sizes are the bare encodings plus 11 — now measured, not
        // estimated.
        let q = Message::query(
            0,
            Name::parse("www.example.com").unwrap(),
            RrType::A,
            RrClass::In,
        );
        let zone = RootZone::nov2015();
        assert_eq!(acct.legit_query_size(), q.wire_size() + 11);
        assert_eq!(acct.legit_response_size(), zone.answer(&q).wire_size() + 11);
        // Attack sizes track the schedule's windows; before the first
        // window the paper's 44/488-byte defaults apply.
        assert_eq!(acct.attack_sizes_at(SimTime::ZERO), (44, 488));
        let first = cfg.attack.windows()[0].start;
        let (aq, ar) = acct.attack_sizes_at(first);
        assert!(aq > 0 && ar > aq, "attack sizes ({aq}, {ar})");
    }

    #[test]
    fn accounting_consumes_fluid_windows() {
        let mut cfg = ScenarioConfig::small();
        cfg.horizon = SimTime::from_mins(30);
        cfg.pipeline.horizon = cfg.horizon;
        let rngf = SimRng::new(cfg.seed);
        let mut world = SimWorld::build(&cfg, &rngf).expect("world builds");
        let mut fluid = FluidTraffic::new(cfg.fluid_step);
        let mut acct = RssacAccounting::new(&cfg);

        // Two fluid windows, each followed by its accounting tick.
        for m in 1..=2u64 {
            let t = SimTime::from_mins(m);
            fluid.tick(&mut world, t);
            let next = acct.tick(&mut world, t);
            assert_eq!(next, vec![t + cfg.fluid_step]);
        }
        // No attack in the first half hour, so day-0 legit queries
        // accumulated but attack queries did not.
        for (&letter, days) in &world.legit_queries_by_day {
            assert!(days[0] > 0.0, "{letter} accounted no legit queries");
            assert_eq!(world.attack_queries_by_day[&letter][0], 0.0);
        }
        // The .nl series accumulated served queries too.
        let total: f64 = world
            .nl_series
            .iter()
            .map(|s| s.values().iter().sum::<f64>())
            .sum();
        assert!(total > 0.0, ".nl series stayed empty");

        // The finish step settles unique sources and the baseline.
        acct.finish(&mut world);
        assert_eq!(world.rssac_baseline.len(), world.rssac.len());
        let a = &world.rssac_baseline[&Letter::A];
        assert!(a.unique_sources > 0.0);
    }
}
