//! One pass of a workload: what a user pays per invocation, from
//! substrate build to the last rendered table or sweep report.
//!
//! The same code runs traced and untraced; a disabled [`Recorder`] only
//! calls through, and the untraced path uses the library's default
//! observer.

use crate::trace::{Recorder, SpanObserver};
use rootcast::analysis::{
    collateral, event_size, flips, letter_rtt, raster, reachability, routing, servers, site_reach,
    site_rtt,
};
use rootcast::render::TextTable;
use rootcast::{
    output_digest, policy_model, run_sweep, sim, Letter, ScenarioConfig, SimOutput, SimTime,
    Substrate, SweepPlan, SweepReport,
};
use rootcast_anycast::AnycastService;
use rootcast_atlas::{clean_fleet, execute_probe, ChaosTarget, TargetView, VpFleet};
use rootcast_attack::{population_weights, Botnet};
use rootcast_netsim::SimRng;
use rootcast_topology::{gen, AsId};
use std::hint::black_box;
use std::time::Instant;

/// The exact work counters recorded for every pass, by
/// [`MetricsSnapshot`](rootcast::MetricsSnapshot) name.
pub const COUNTERS: &[&str] = &[
    "probes.fused",
    "probes.outcome.site",
    "probes.outcome.timeout",
    "probes.outcome.missed",
    "bgp.route_recomputes",
    "bgp.changed_ases",
    "fluid.windows",
    "fluid.policy_transitions",
    "fluid.catchment_index.rebuilds",
    "fluid.catchment_index.hits",
    "resolvers.refreshes",
    "faults.injections",
];

/// What a pass produced: its host and CPU time and everything checked
/// about it.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds for the pass, excluding any replayed set-up steps.
    pub wall_s: f64,
    /// CPU seconds the process spent on the pass (all threads, user and
    /// system), excluding any replayed set-up steps.
    pub cpu_s: f64,
    /// Output digests by key (`output`, `tables`, or one per sweep run).
    pub digests: Vec<(String, u64)>,
    /// [`COUNTERS`], in order.
    pub counters: Vec<(String, u64)>,
}

/// CPU seconds this process has used so far: all its threads, user and
/// system time, from `CLOCK_PROCESS_CPUTIME_ID`. Time the process spends
/// waiting for a processor does not count, so this is steadier than host
/// time on a shared machine.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call; on 64-bit Linux `time_t` and `long` are both 64 bits.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

fn pick_counters(all: &[(String, u64)]) -> Vec<(String, u64)> {
    COUNTERS
        .iter()
        .map(|&name| {
            let v = all.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v);
            (name.to_string(), v)
        })
        .collect()
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Builder = fn(&SimOutput) -> Result<TextTable, String>;

/// Every table and figure of the paper, in the order the flagship
/// example prints them. Span names double as table names.
const BUILDERS: &[(&str, Builder)] = &[
    ("analysis.fig2_policy_model", |_| {
        Ok(policy_model::render_cases(&policy_model::paper_cases()))
    }),
    ("analysis.table2_site_census", |o| {
        Ok(site_reach::table2(o).render())
    }),
    ("analysis.table3_event_size", |o| {
        Ok(event_size::table3(o).render())
    }),
    ("analysis.fig3_letter_reachability", |o| {
        Ok(reachability::figure3(o).render())
    }),
    ("analysis.fig4_letter_rtt", |o| {
        Ok(letter_rtt::figure4(o).render())
    }),
    ("analysis.fig5_sites_e", |o| {
        Ok(site_reach::figure5(o, Letter::E).render())
    }),
    ("analysis.fig6_series_e", |o| {
        Ok(site_reach::figure6(o, Letter::E).render())
    }),
    ("analysis.fig5_sites_k", |o| {
        Ok(site_reach::figure5(o, Letter::K).render())
    }),
    ("analysis.fig6_series_k", |o| {
        Ok(site_reach::figure6(o, Letter::K).render())
    }),
    ("analysis.fig7_site_rtt", |o| {
        Ok(site_rtt::figure7(o).render())
    }),
    ("analysis.fig8_site_flips", |o| {
        Ok(flips::figure8(o).render())
    }),
    ("analysis.fig9_route_changes", |o| {
        Ok(routing::figure9(o).render())
    }),
    ("analysis.fig10_flows_lhr", |o| {
        Ok(flips::figure10(o, Letter::K, "LHR").render())
    }),
    ("analysis.fig10_flows_fra", |o| {
        Ok(flips::figure10(o, Letter::K, "FRA").render())
    }),
    ("analysis.fig11_cohorts", |o| {
        raster::figure11(o, Letter::K, &["LHR", "FRA"], 300)
            .map(|f| f.render_cohorts())
            .map_err(|e| e.to_string())
    }),
    ("analysis.fig12_13_servers", |o| {
        Ok(servers::figures12_13(o).render())
    }),
    ("analysis.fig14_collateral_droot", |o| {
        Ok(collateral::figure14(o, Letter::D).render())
    }),
    ("analysis.fig15_collateral_nl", |o| {
        Ok(collateral::figure15(o).render())
    }),
];

/// Span names of the analysis builders, in order.
pub fn builder_names() -> impl Iterator<Item = &'static str> {
    BUILDERS.iter().map(|&(name, _)| name)
}

/// Run one scenario over a built substrate: traced through the span
/// observer, or untraced through the library's default observer.
fn run_scenario(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    rec: &mut Recorder,
) -> Result<SimOutput, String> {
    let out = if rec.enabled() {
        let mut obs = SpanObserver::new(rec);
        sim::run_observed_with_substrate(cfg, substrate, &mut obs)
    } else {
        sim::run_with_substrate(cfg, substrate)
    };
    out.map_err(|e| e.to_string())
}

/// A scenario pass: substrate build, run, all 18 tables and figures,
/// rendered to text and CSV in memory. With `replay`, the set-up span
/// also replays `Substrate::build`'s public sub-steps (excluded from the
/// pass's wall time).
pub fn scenario_pass(
    cfg: &ScenarioConfig,
    rec: &mut Recorder,
    replay: bool,
) -> Result<Pass, String> {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let (mut replay_s, mut replay_cpu_s) = (0.0, 0.0);
    let (digests, counters) = rec.span("pass", |rec| {
        let substrate = rec.span("setup", |rec| {
            let s = rec.span("substrate.build", |_| Substrate::build(cfg));
            if replay {
                let (r0, rc0) = (Instant::now(), process_cpu_s());
                rec.span("setup.replay", |rec| replay_setup(cfg, &s, rec))?;
                replay_s = r0.elapsed().as_secs_f64();
                replay_cpu_s = process_cpu_s() - rc0;
            }
            Ok::<_, String>(s)
        })?;
        let out = rec.span("run", |rec| run_scenario(cfg, &substrate, rec))?;
        let tables = rec.span("analysis", |rec| {
            BUILDERS
                .iter()
                .map(|&(name, build)| rec.span(name, |_| build(&out)).map(|t| (name, t)))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let text = rec.span("render.text", |_| {
            let mut s = String::new();
            for (_, t) in &tables {
                s.push_str(&format!("{t}\n"));
            }
            s
        });
        let csv = rec.span("render.csv", |_| {
            let mut s = String::new();
            for (name, t) in &tables {
                s.push_str(name);
                s.push('\n');
                s.push_str(&t.to_csv());
            }
            s
        });
        let digests = vec![
            ("output".to_string(), output_digest(&out)),
            (
                "tables".to_string(),
                fnv1a(text.as_bytes()) ^ fnv1a(csv.as_bytes()).rotate_left(1),
            ),
        ];
        Ok::<_, String>((digests, pick_counters(&out.metrics.counters)))
    })?;
    Ok(Pass {
        wall_s: t0.elapsed().as_secs_f64() - replay_s,
        cpu_s: process_cpu_s() - c0 - replay_cpu_s,
        digests,
        counters,
    })
}

/// A sweep pass: `run_sweep` over the plan, then the report rendered
/// to text and CSV. Every run's output digest is a checked key, plus
/// one digest over the runs' headline metrics.
pub fn sweep_pass(plan: &SweepPlan, rec: &mut Recorder) -> Result<(Pass, SweepReport), String> {
    let (t0, c0) = (Instant::now(), process_cpu_s());
    let report = rec
        .span("sweep", |_| run_sweep(plan))
        .map_err(|e| e.to_string())?;
    let text = rec.span("render.text", |_| report.render());
    let csv = rec.span("render.csv", |_| report.to_csv());
    black_box((&text, &csv));
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = process_cpu_s() - c0;
    if report.is_partial() || report.records.len() != plan.runs.len() {
        return Err(format!(
            "sweep left runs pending: {}",
            report.pending.join(", ")
        ));
    }
    let mut digests: Vec<(String, u64)> = report
        .records
        .iter()
        .map(|r| (r.label.clone(), r.output_digest))
        .collect();
    let headlines: String = report
        .records
        .iter()
        .map(|r| format!("{}={:?};", r.label, r.headline))
        .collect();
    digests.push(("headlines".to_string(), fnv1a(headlines.as_bytes())));
    let pass = Pass {
        wall_s,
        cpu_s,
        digests,
        counters: pick_counters(&report.rollup.counters),
    };
    Ok((pass, report))
}

/// Run every resolved config of `plan` one after another over
/// `substrate`, each in its own `run` span; returns each run's output
/// digest by label.
pub fn serial_runs(
    plan: &SweepPlan,
    substrate: &Substrate,
    rec: &mut Recorder,
) -> Result<Vec<(String, u64)>, String> {
    (0..plan.runs.len())
        .map(|i| {
            let cfg = plan.resolve(i);
            let out = rec.span("run", |rec| run_scenario(&cfg, substrate, rec))?;
            Ok((plan.runs[i].label.clone(), output_digest(&out)))
        })
        .collect()
}

/// A root letter's service as a probe target, as the calibration pass
/// sees it.
struct Target<'a>(&'a AnycastService);

impl ChaosTarget for Target<'_> {
    fn letter(&self) -> Letter {
        self.0.letter.unwrap_or(Letter::A)
    }

    fn view(&self, asn: AsId, client_hash: u64) -> Option<TargetView> {
        let pv = self.0.probe_view(asn, client_hash)?;
        Some(TargetView::new(
            self.0.site(pv.site).spec.code.clone(),
            pv.server,
            pv.rtt,
            pv.drop_prob,
        ))
    }
}

/// Replay the public calls `Substrate::build` makes, in its order, one
/// span per layer, and check the replay rebuilt the same substrate.
pub fn replay_setup(
    cfg: &ScenarioConfig,
    substrate: &Substrate,
    rec: &mut Recorder,
) -> Result<(), String> {
    let rngf = SimRng::new(cfg.seed);
    let graph = rec.span("topology.generate", |_| gen::generate(&cfg.topology, &rngf));
    let services = rec.span("anycast.baseline_ribs", |_| {
        let mut services: Vec<AnycastService> = rootcast::nov2015_deployments(&graph)
            .into_iter()
            .map(|d| {
                AnycastService::new(
                    &format!("{}-root", d.letter),
                    Some(d.letter),
                    &graph,
                    d.sites,
                )
            })
            .collect();
        if cfg.include_nl {
            let nl = rootcast::nl_deployment(&graph);
            services.push(AnycastService::new(".nl anycast", None, &graph, nl));
        }
        services
    });
    let (botnet, weights) = rec.span("attack.botnet", |_| {
        let botnet = Botnet::generate(&graph, cfg.botnet.clone(), &rngf);
        (botnet, population_weights(&graph))
    });
    let fleet = rec.span("atlas.fleet", |_| {
        VpFleet::generate(&graph, &cfg.fleet, &rngf)
    });
    let cleaning = rec.span("atlas.calibration", |_| {
        let letters = &services[..substrate.letters.len()];
        let mut cal_rng = rngf.stream("calibration");
        let mut calibration = Vec::with_capacity(fleet.len() * letters.len());
        for vp in fleet.iter() {
            for svc in letters {
                calibration.push(execute_probe(vp, &Target(svc), SimTime::ZERO, &mut cal_rng));
            }
        }
        clean_fleet(&fleet, &calibration)
    });
    black_box((&botnet, &weights));
    let same = graph.len() == substrate.graph.len()
        && services.len() == substrate.services.len()
        && fleet.len() == substrate.fleet.len()
        && cleaning.kept_count() == substrate.cleaning.kept_count()
        && weights.len() == substrate.pop_weights.len();
    if same {
        Ok(())
    } else {
        Err("replayed set-up differs from Substrate::build".to_string())
    }
}
