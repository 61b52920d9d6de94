//! The benchmark's workloads: how each input is generated from the
//! workload seed, and the golden digests its outputs must match.
//!
//! Every builder here receives only the seed and returns plain rootcast
//! inputs (a [`ScenarioConfig`] or a [`SweepPlan`]); nothing the program
//! sees identifies the benchmark.

use rootcast::engine::FaultKind;
use rootcast::{
    AttackSchedule, AttackWindow, ConfigPatch, FaultPlan, Letter, ScenarioConfig, SimDuration,
    SimTime, SiteOverride, SiteTuning, SweepAxis, SweepPlan,
};
use rootcast_atlas::FleetParams;

/// The seed every workload runs at unless told otherwise: the
/// canonical scenario's own seed.
pub const DEFAULT_SEED: u64 = 20151130;

/// Golden digests, one `workload seed key digest` line each.
const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's canonical 48 h run plus all 18 tables and figures.
    Nov2015,
    /// A 3×2 pulse-wave sweep over one shared 8.3 k-AS substrate.
    PulseSweep,
    /// Event 1 of the canonical run under a dense fault plan.
    FaultedAtlas,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Nov2015,
        Workload::PulseSweep,
        Workload::FaultedAtlas,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Nov2015 => "nov2015",
            Workload::PulseSweep => "pulse_sweep",
            Workload::FaultedAtlas => "faulted_atlas",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The golden digests recorded for `seed`, if any.
    pub fn golden(self, seed: u64) -> Option<Vec<(String, u64)>> {
        let seed = seed.to_string();
        let found: Vec<(String, u64)> = GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                match f.as_slice() {
                    [w, s, key, hex] if *w == self.name() && *s == seed => {
                        let digest = u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok()?;
                        Some((key.to_string(), digest))
                    }
                    _ => None,
                }
            })
            .collect();
        (!found.is_empty()).then_some(found)
    }
}

/// `nov2015`: the canonical configuration, reseeded.
pub fn nov2015(seed: u64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::nov2015();
    cfg.seed = seed;
    cfg
}

/// `faulted_atlas`: the canonical run cut to 12 h (event 1, 06:50–09:30)
/// under a dense fault plan that keeps VP state and catchments moving.
pub fn faulted_atlas(seed: u64) -> ScenarioConfig {
    let mut cfg = nov2015(seed);
    cfg.horizon = SimTime::from_hours(12);
    cfg.pipeline.horizon = cfg.horizon;
    let mins = SimTime::from_mins;
    let dur = SimDuration::from_mins;
    let mut plan = FaultPlan::none();
    // Twelve dropout waves: 30 % of kept VPs go dark for 30 min each hour.
    for wave in 0..12 {
        plan = plan.with(
            mins(15 + 60 * wave),
            dur(30),
            FaultKind::ProbeDropout {
                fraction: 0.3,
                letters: Vec::new(),
            },
        );
    }
    // A fifth of the fleet reverts to old firmware for 6 h over the event.
    plan = plan.with(
        mins(240),
        dur(360),
        FaultKind::FirmwareDowngrade { fraction: 0.2 },
    );
    // Rolling crashes: K-LHR and B-LAX take turns, 45 min down each.
    for round in 0..4 {
        plan = plan.with(
            mins(60 + 180 * round),
            dur(45),
            FaultKind::SiteCrash {
                letter: Letter::K,
                site: "LHR".into(),
            },
        );
        plan = plan.with(
            mins(150 + 180 * round),
            dur(45),
            FaultKind::SiteCrash {
                letter: Letter::B,
                site: "LAX".into(),
            },
        );
    }
    plan = plan.with(
        mins(360),
        dur(240),
        FaultKind::CollectorBlackout { letter: Letter::K },
    );
    plan = plan.with(
        mins(180),
        dur(360),
        FaultKind::RssacGap { letter: Letter::H },
    );
    cfg.faults = plan;
    cfg
}

/// Five-minute bursts every ten minutes at `rate_qps` per attacked
/// letter, over a 6 h horizon.
fn pulse_wave(rate_qps: f64) -> AttackSchedule {
    let windows = (0..35u64)
        .map(|i| AttackWindow {
            start: SimTime::from_mins(10 + 10 * i),
            duration: SimDuration::from_mins(5),
            qname: "www.336901.com".into(),
            targets: AttackSchedule::nov2015_targets(),
            rate_qps,
        })
        .collect();
    AttackSchedule::new(windows)
}

/// `pulse_sweep`: attack rate {1, 2.5, 5 Mq/s} × K-LHR capacity
/// {deployed, 20 kq/s}, all six runs on one substrate of ~8.3 k ASes
/// with 200 VPs.
pub fn pulse_sweep(seed: u64) -> SweepPlan {
    let mut base = ScenarioConfig::small();
    base.seed = seed;
    base.topology.n_tier2 = 300;
    base.topology.n_stub = 8000;
    base.fleet = FleetParams::tiny(200);
    base.horizon = SimTime::from_hours(6);
    base.pipeline.horizon = base.horizon;
    base.attack = pulse_wave(5_000_000.0);
    let rate = SweepAxis::new(
        "rate",
        vec![
            (
                "1M",
                ConfigPatch::none().with_attack(pulse_wave(1_000_000.0)),
            ),
            (
                "2.5M",
                ConfigPatch::none().with_attack(pulse_wave(2_500_000.0)),
            ),
            (
                "5M",
                ConfigPatch::none().with_attack(pulse_wave(5_000_000.0)),
            ),
        ],
    );
    let k_lhr = SweepAxis::new(
        "k_lhr",
        vec![
            ("base", ConfigPatch::none()),
            (
                "20k",
                ConfigPatch::none().with_site_override(SiteOverride::new(
                    Letter::K,
                    "LHR",
                    SiteTuning::none().with_capacity(20_000.0),
                )),
            ),
        ],
    );
    SweepPlan::grid("pulse_sweep", base, &[rate, k_lhr])
}
