//! `--trace 1`: the traced round and the per-layer ledger.
//!
//! A round is an untraced reference pass, a traced pass at the default
//! thread count, and a traced pass pinned to one thread. All three must
//! give the same digests and work counters (the observer is pure and the
//! engine is deterministic across thread counts); the span tree must
//! nest; and the per-layer numbers come from the traced pass's spans.

use crate::pass::{builder_names, replay_setup, scenario_pass, serial_runs, sweep_pass, Pass};
use crate::trace::{self, Recorder, Span};
use crate::workloads::{self, Workload};
use crate::{
    fmt_digests, median, metric, single_thread, Args, Checker, Metric, Outcome, MAX_DRIVE_GAP,
};
use rootcast::{Substrate, SweepReport};
use std::path::PathBuf;

/// The engine's subsystems, as they name their ticks.
const SUBSYSTEMS: &[&str] = &[
    "fluid",
    "rssac",
    "probes",
    "resolvers",
    "maintenance",
    "faults",
];

/// The public `Substrate::build` sub-steps the set-up span replays.
const SETUP_STEPS: &[&str] = &[
    "topology.generate",
    "anycast.baseline_ribs",
    "attack.botnet",
    "atlas.fleet",
    "atlas.calibration",
];

/// What one traced round leaves for the ledger.
struct Round {
    reference: Pass,
    traced: Pass,
    /// The single-thread pass (the single-run workloads only).
    pinned: Option<Pass>,
    /// Pass ids of the traced pass and the single-thread pass.
    multi: u32,
    single: u32,
    /// The sweep report (`pulse_sweep` only).
    sweep: Option<SweepReport>,
}

pub fn traced(a: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::new(true);
    let mut checker = Checker::new(a.workload, a.seed);
    let one = single_thread()?;
    let mut problems: Vec<String> = Vec::new();
    let mut attempted = 0;

    let round = match a.workload {
        Workload::PulseSweep => {
            let plan = workloads::pulse_sweep(a.seed);
            let (reference, _) = sweep_pass(&plan, &mut Recorder::new(false))?;
            let multi = rec.begin_pass();
            let (traced, report, serial, substrate) = rec.span("pass", |rec| {
                let substrate = rec.span("setup", |rec| {
                    let s = rec.span("substrate.build", |_| Substrate::build(&plan.base));
                    rec.span("setup.replay", |rec| replay_setup(&plan.base, &s, rec))?;
                    Ok::<_, String>(s)
                })?;
                let serial = rec.span("runs", |rec| serial_runs(&plan, &substrate, rec))?;
                let (traced, report) = sweep_pass(&plan, rec)?;
                Ok::<_, String>((traced, report, serial, substrate))
            })?;
            let single = rec.begin_pass();
            let serial_one =
                one.install(|| rec.span("runs", |rec| serial_runs(&plan, &substrate, rec)))?;
            attempted += 4;
            // The sweep's records must be the serial runs' outputs, at
            // either thread count.
            let records: Vec<(String, u64)> = report
                .records
                .iter()
                .map(|r| (r.label.clone(), r.output_digest))
                .collect();
            for (what, runs) in [
                ("serial runs", &serial),
                ("single-thread runs", &serial_one),
            ] {
                if *runs != records {
                    problems.push(format!(
                        "{what} {} differ from the sweep's records {}",
                        fmt_digests(runs),
                        fmt_digests(&records)
                    ));
                }
            }
            Round {
                reference,
                traced,
                pinned: None,
                multi,
                single,
                sweep: Some(report),
            }
        }
        Workload::Nov2015 | Workload::FaultedAtlas => {
            let cfg = match a.workload {
                Workload::Nov2015 => workloads::nov2015(a.seed),
                _ => workloads::faulted_atlas(a.seed),
            };
            let reference = scenario_pass(&cfg, &mut Recorder::new(false), false)?;
            let multi = rec.begin_pass();
            let traced = scenario_pass(&cfg, &mut rec, true)?;
            let single = rec.begin_pass();
            let pinned = one.install(|| scenario_pass(&cfg, &mut rec, false))?;
            attempted += 3;
            Round {
                reference,
                traced,
                pinned: Some(pinned),
                multi,
                single,
                sweep: None,
            }
        }
    };
    let passes = [
        ("reference pass", Some(&round.reference)),
        ("traced pass", Some(&round.traced)),
        ("single-thread pass", round.pinned.as_ref()),
    ];
    for (label, p) in passes.into_iter().filter_map(|(l, p)| Some((l, p?))) {
        if let Err(e) = checker.check(label, p) {
            problems.push(e);
        }
    }
    let gap = match trace::check_coverage(rec.spans(), MAX_DRIVE_GAP) {
        Ok(gap) => gap,
        Err(e) => {
            problems.push(e);
            f64::NAN
        }
    };

    let nproc = rayon::current_num_threads();
    let metrics = ledger(rec.spans(), &round, nproc);
    print_ledger(a, &rec, &round, &metrics, gap);
    let dir =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let path = dir
        .join("rootbench")
        .join(format!("spans-{}-{}.jsonl", a.workload.name(), a.seed));
    match rec.write_jsonl(&path) {
        Ok(()) => eprintln!("spans: {} written to {}", rec.spans().len(), path.display()),
        Err(e) => eprintln!("spans: cannot write {}: {e}", path.display()),
    }
    eprintln!("check: {}", checker.describe());
    for p in &problems {
        eprintln!("rootbench: FAILED: {p}");
    }
    // Each failed check counts against one pass of the round.
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed: problems.len().min(attempted),
        metrics,
    })
}

fn per(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn counter(p: &Pass, name: &str) -> f64 {
    p.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

/// Every per-layer metric, in the order `BENCHMARK.json` lists them.
/// Layers a workload bypasses read 0.
fn ledger(spans: &[Span], r: &Round, nproc: usize) -> Vec<Metric> {
    let multi = &[r.multi][..];
    let total = |name: &str| trace::total(spans, multi, name);
    let p = &r.traced;
    let mut m = Vec::new();

    let drive = total("engine.drive");
    let busy = SUBSYSTEMS.iter().map(|s| total(s)).fold(0.0, |a, b| a + b);
    m.push(metric(
        "engine.build_world_s",
        total("engine.build_world"),
        "s",
    ));
    m.push(metric("engine.drive_s", drive, "s"));
    m.push(metric("engine.finalize_s", total("engine.finalize"), "s"));
    m.push(metric(
        "engine.drive_gap_ratio",
        per(drive - busy, drive),
        "ratio",
    ));
    m.push(metric(
        "engine.parallel_speedup",
        per(trace::total(spans, &[r.single], "engine.drive"), drive),
        "ratio",
    ));
    let ticks_us = |name: &str| -> Vec<f64> {
        trace::durations(spans, multi, name)
            .into_iter()
            .map(|s| s * 1e6)
            .collect()
    };
    let probe_ticks = ticks_us("probes");
    m.push(metric("probes.busy_s", total("probes"), "s"));
    m.push(metric(
        "probes.tick_p50_us",
        trace::quantile(&probe_ticks, 0.5),
        "us",
    ));
    m.push(metric(
        "probes.tick_p99_us",
        trace::quantile(&probe_ticks, 0.99),
        "us",
    ));
    m.push(metric(
        "probes.ns_per_probe",
        per(total("probes") * 1e9, counter(p, "probes.fused")),
        "ns",
    ));
    m.push(metric("resolvers.busy_s", total("resolvers"), "s"));
    m.push(metric(
        "resolvers.ms_per_refresh",
        per(total("resolvers") * 1e3, counter(p, "resolvers.refreshes")),
        "ms",
    ));
    m.push(metric("fluid.busy_s", total("fluid"), "s"));
    m.push(metric(
        "fluid.us_per_window",
        per(total("fluid") * 1e6, counter(p, "fluid.windows")),
        "us",
    ));
    m.push(metric(
        "fluid.tick_p99_us",
        trace::quantile(&ticks_us("fluid"), 0.99),
        "us",
    ));
    for sub in ["rssac", "maintenance", "faults"] {
        m.push(metric(format!("{sub}.busy_s"), total(sub), "s"));
    }

    m.push(metric(
        "setup.substrate_build_ms",
        total("substrate.build") * 1e3,
        "ms",
    ));
    for step in SETUP_STEPS {
        m.push(metric(format!("{step}_ms"), total(step) * 1e3, "ms"));
    }
    let replayed = SETUP_STEPS.iter().map(|s| total(s)).fold(0.0, |a, b| a + b);
    m.push(metric("setup.replay_sum_ms", replayed * 1e3, "ms"));

    m.push(metric("analysis.total_s", total("analysis"), "s"));
    for name in builder_names() {
        m.push(metric(format!("{name}_ms"), total(name) * 1e3, "ms"));
    }
    m.push(metric("render.text_ms", total("render.text") * 1e3, "ms"));
    m.push(metric("render.csv_ms", total("render.csv") * 1e3, "ms"));

    let sweep_wall = total("sweep");
    let run_ms: Vec<f64> = r
        .sweep
        .iter()
        .flat_map(|s| s.records.iter().map(|rec| rec.wall_ms))
        .collect();
    let run_sum_s = run_ms.iter().fold(0.0, |a, b| a + b) / 1e3;
    m.push(metric("sweep.wall_s", sweep_wall, "s"));
    m.push(metric("sweep.run_wall_sum_s", run_sum_s, "s"));
    m.push(metric(
        "sweep.run_p50_ms",
        if run_ms.is_empty() {
            0.0
        } else {
            median(&run_ms)
        },
        "ms",
    ));
    m.push(metric(
        "sweep.n_substrates",
        r.sweep.as_ref().map_or(0.0, |s| s.n_substrates as f64),
        "count",
    ));
    m.push(metric(
        "sweep.parallel_efficiency",
        per(run_sum_s, sweep_wall * nproc as f64),
        "ratio",
    ));

    for (name, v) in &p.counters {
        if name == "fluid.catchment_index.hits" {
            continue;
        }
        m.push(metric(name.clone(), *v as f64, "count"));
        if name == "fluid.catchment_index.rebuilds" {
            let hits = counter(p, "fluid.catchment_index.hits");
            m.push(metric(
                "fluid.catchment_index.hit_ratio",
                per(hits, hits + *v as f64),
                "ratio",
            ));
        }
    }
    m.push(metric(
        "trace.overhead_ratio",
        per(p.wall_s, r.reference.wall_s),
        "ratio",
    ));
    m
}

fn print_ledger(a: &Args, rec: &Recorder, r: &Round, metrics: &[Metric], gap: f64) {
    let spans = rec.spans();
    eprintln!(
        "rootbench {} seed {} traced: reference pass {:.3} s, traced pass {:.3} s",
        a.workload.name(),
        a.seed,
        r.reference.wall_s,
        r.traced.wall_s
    );
    eprintln!("\nself time per layer (traced pass):");
    eprintln!(
        "  {:<36} {:>7} {:>10} {:>10}",
        "span", "count", "total s", "self s"
    );
    for (name, n, total, own) in trace::self_times(spans, r.multi) {
        eprintln!("  {name:<36} {n:>7} {total:>10.4} {own:>10.4}");
    }
    let drive = trace::total(spans, &[r.multi], "engine.drive");
    let share = |names: &[&str]| {
        let busy: f64 = names
            .iter()
            .map(|n| trace::total(spans, &[r.multi], n))
            .sum();
        100.0 * per(busy, drive)
    };
    eprintln!(
        "\nshares of engine.drive ({drive:.3} s): probes {:.1} %, resolvers + fluid {:.1} %, \
         untraced gap {:.2} % (at most {:.0} %)",
        share(&["probes"]),
        share(&["resolvers", "fluid"]),
        gap * 100.0,
        MAX_DRIVE_GAP * 100.0
    );
    eprintln!("\nper-layer ledger (counters are exact and repeat on every pass):");
    for m in metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
}
