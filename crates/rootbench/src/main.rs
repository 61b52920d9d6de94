//! rootbench: the repository's benchmark.
//!
//! ```text
//! cargo run --release -p rootbench -- --workload <nov2015|pulse_sweep|faulted_atlas> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload as a closed loop: one pass at a time,
//! each in a fresh child process on a one-thread pool. Every pass's
//! outputs are checked against the golden digests in `golden.txt` (or,
//! for a seed without goldens, against each other), and the exact work
//! counters must repeat. The last line of standard output is one JSON
//! object; the human-readable ledger goes to standard error.
//!
//! * `--trace 0` measures end to end for `--seconds` seconds: `ref_cpu_s`
//!   (the median pass's CPU time), `setup_s` (median CPU time of repeated
//!   `Substrate::build`), both scaled by the host speed a reference
//!   kernel measures between passes, and `peak_rss_mb` (`VmHWM`).
//! * `--trace 1` makes one untraced reference pass, one traced pass and
//!   one traced pass pinned to a single thread, and reports the
//!   per-layer ledger. Spans are written to
//!   `$CARGO_TARGET_DIR/rootbench/` (default `target/rootbench/`).
//! * `--one-pass` runs one untraced pass in this process and prints a
//!   line-based report; its `golden ` lines are in the `golden.txt`
//!   format.

mod calib;
mod ledger;
mod pass;
mod trace;
mod workloads;

use pass::{process_cpu_s, scenario_pass, sweep_pass, Pass};
use rootcast::Substrate;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Recorder;
use workloads::Workload;

/// Standalone `Substrate::build` and reference kernel samples taken
/// before the first pass; one more of each is taken before every pass,
/// so that the medians cover the whole run.
const SETUP_SAMPLES: usize = 4;
/// Passes every untraced run makes, whatever `--seconds` says, so that
/// passes can be checked against each other.
const MIN_PASSES: usize = 2;
/// Largest share of `engine.drive` the subsystem ticks may leave
/// uncovered (the engine's own scheduling between ticks).
const MAX_DRIVE_GAP: f64 = 0.05;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Run one untraced pass in this process and report it on standard
    /// output (how [`run_child_pass`] runs each pass).
    one_pass: bool,
}

const USAGE: &str = "usage: rootbench --workload <nov2015|pulse_sweep|faulted_atlas> \
                     [--seed N] [--seconds S] [--trace 0|1] [--one-pass]";

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::Nov2015,
            seed: workloads::DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            one_pass: false,
        };
        let mut workload = None;
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--one-pass" {
                args.one_pass = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds.is_finite() && args.seconds > 0.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The result line.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// The config whose substrate a workload builds.
fn setup_config(w: Workload, seed: u64) -> rootcast::ScenarioConfig {
    match w {
        Workload::Nov2015 => workloads::nov2015(seed),
        Workload::FaultedAtlas => workloads::faulted_atlas(seed),
        Workload::PulseSweep => workloads::pulse_sweep(seed).base,
    }
}

/// The pool measured passes run in: one thread, so that a pass never
/// waits on a second runnable thread of its own.
fn single_thread() -> Result<rayon::ThreadPool, String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())
}

/// One untraced pass of the workload.
fn run_pass(w: Workload, seed: u64) -> Result<Pass, String> {
    let mut off = Recorder::new(false);
    match w {
        Workload::Nov2015 => scenario_pass(&workloads::nov2015(seed), &mut off, false),
        Workload::FaultedAtlas => scenario_pass(&workloads::faulted_atlas(seed), &mut off, false),
        Workload::PulseSweep => sweep_pass(&workloads::pulse_sweep(seed), &mut off).map(|(p, _)| p),
    }
}

/// Run one untraced pass in a fresh child process, so every pass pays
/// what one invocation pays (a cold heap included) and its `VmHWM`
/// covers that pass alone. Returns the pass and the child's peak RSS.
fn run_child_pass(w: Workload, seed: u64) -> Result<(Pass, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            w.name(),
            "--seed",
            &seed.to_string(),
            "--one-pass",
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a pass: {e}"))?;
    if !out.status.success() {
        return Err(format!("pass process exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut pass = Pass {
        wall_s: f64::NAN,
        cpu_s: f64::NAN,
        digests: Vec::new(),
        counters: Vec::new(),
    };
    let mut rss = f64::NAN;
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        let bad = || format!("unreadable pass report line {line:?}");
        match f.as_slice() {
            ["wall_s", v] => pass.wall_s = v.parse().map_err(|_| bad())?,
            ["cpu_s", v] => pass.cpu_s = v.parse().map_err(|_| bad())?,
            ["rss_mb", v] => rss = v.parse().map_err(|_| bad())?,
            ["golden", _, _, k, v] => pass.digests.push((
                k.to_string(),
                u64::from_str_radix(v.trim_start_matches("0x"), 16).map_err(|_| bad())?,
            )),
            ["counter", k, v] => pass
                .counters
                .push((k.to_string(), v.parse().map_err(|_| bad())?)),
            _ => return Err(bad()),
        }
    }
    if pass.wall_s.is_nan() || pass.cpu_s.is_nan() || rss.is_nan() || pass.digests.is_empty() {
        return Err("incomplete pass report".to_string());
    }
    Ok((pass, rss))
}

/// The child side of [`run_child_pass`].
fn report_one_pass(w: Workload, seed: u64) -> Result<(), String> {
    let p = single_thread()?.install(|| run_pass(w, seed))?;
    println!("wall_s {:?}", p.wall_s);
    println!("cpu_s {:?}", p.cpu_s);
    println!("rss_mb {:?}", peak_rss_mb()?);
    for (k, v) in &p.digests {
        println!("golden {} {seed} {k} {v:#018x}", w.name());
    }
    for (k, v) in &p.counters {
        println!("counter {k} {v}");
    }
    Ok(())
}

/// Checks each pass against the goldens (when the seed has them) and
/// against the first pass (digests and exact work counters).
struct Checker {
    golden: Option<Vec<(String, u64)>>,
    first: Option<Pass>,
}

impl Checker {
    fn new(w: Workload, seed: u64) -> Checker {
        Checker {
            golden: w.golden(seed),
            first: None,
        }
    }

    fn check(&mut self, label: &str, p: &Pass) -> Result<(), String> {
        if let Some(golden) = &self.golden {
            let mut want = golden.clone();
            let mut got = p.digests.clone();
            want.sort();
            got.sort();
            if want != got {
                return Err(format!(
                    "{label}: digests {} differ from golden {}",
                    fmt_digests(&got),
                    fmt_digests(&want)
                ));
            }
        }
        match &self.first {
            None => self.first = Some(p.clone()),
            Some(first) => {
                if first.digests != p.digests {
                    return Err(format!(
                        "{label}: digests {} differ from the first pass's {}",
                        fmt_digests(&p.digests),
                        fmt_digests(&first.digests)
                    ));
                }
                if first.counters != p.counters {
                    return Err(format!(
                        "{label}: work counters {:?} differ from the first pass's {:?}",
                        p.counters, first.counters
                    ));
                }
            }
        }
        Ok(())
    }

    fn describe(&self) -> String {
        match &self.golden {
            Some(g) => format!("digests checked against {} golden keys", g.len()),
            None => "no golden for this seed: passes checked against each other".to_string(),
        }
    }
}

fn fmt_digests(d: &[(String, u64)]) -> String {
    let parts: Vec<String> = d.iter().map(|(k, v)| format!("{k}={v:#018x}")).collect();
    parts.join(" ")
}

fn counter_line(counters: &[(String, u64)]) -> String {
    let parts: Vec<String> = counters.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(" ")
}

/// `--trace 0`: passes for `--seconds`, end-to-end metrics.
fn untraced(a: &Args) -> Result<Outcome, String> {
    let start = Instant::now();
    let cfg = setup_config(a.workload, a.seed);
    let one = single_thread()?;
    let (mut setup, mut kernel) = (Vec::new(), Vec::new());
    let mut build = || {
        let c0 = process_cpu_s();
        let s = one.install(|| Substrate::build(&cfg));
        setup.push(process_cpu_s() - c0);
        drop(s);
        kernel.push(calib::sample());
    };
    for _ in 1..SETUP_SAMPLES {
        build();
    }

    let mut checker = Checker::new(a.workload, a.seed);
    let (mut cpus, mut walls, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0usize, 0usize);
    let passes_start = Instant::now();
    loop {
        build();
        attempted += 1;
        let label = format!("pass {attempted}");
        let result = run_child_pass(a.workload, a.seed)
            .and_then(|(p, mb)| checker.check(&label, &p).map(|()| (p, mb)));
        match result {
            Ok((p, mb)) => {
                cpus.push(p.cpu_s);
                walls.push(p.wall_s);
                rss.push(mb);
            }
            Err(e) => {
                failed += 1;
                eprintln!("rootbench: {label} failed: {e}");
            }
        }
        // Start another pass only if it should end within half a pass
        // of the budget, which counts passes and the builds between them.
        let spent = passes_start.elapsed().as_secs_f64();
        let per_pass = spent / attempted as f64;
        if attempted >= MIN_PASSES && spent + per_pass / 2.0 > a.seconds {
            break;
        }
    }
    let speed = calib::NOMINAL_S / median(&kernel);
    let cpu_s = median(&cpus);
    let rss_mb = median(&rss);
    let setup_s = median(&setup);
    let lo_hi = |v: &[f64]| {
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if v.is_empty() {
            "no sample".to_string()
        } else {
            format!("min {lo:.4}, max {hi:.4}")
        }
    };
    eprintln!(
        "rootbench {} seed {}: {attempted} passes in {:.1} s, {failed} failed (failed_ratio {:.3})",
        a.workload.name(),
        a.seed,
        start.elapsed().as_secs_f64(),
        failed as f64 / attempted as f64
    );
    eprintln!(
        "  host speed   {speed:.4}   reference kernel: median {:.4} s of {} samples (nominal {} s); {}",
        median(&kernel),
        kernel.len(),
        calib::NOMINAL_S,
        lo_hi(&kernel)
    );
    eprintln!(
        "  ref_cpu_s    {:.4} s   = CPU time {cpu_s:.4} s × speed, median of {} passes; {}",
        cpu_s * speed,
        cpus.len(),
        lo_hi(&cpus)
    );
    eprintln!(
        "  (host time)  {:.4} s   median of {} passes; {}",
        median(&walls),
        walls.len(),
        lo_hi(&walls)
    );
    eprintln!(
        "  setup_s      {:.4} s   = CPU time {setup_s:.4} s × speed, median of {} builds; {}",
        setup_s * speed,
        setup.len(),
        lo_hi(&setup)
    );
    eprintln!(
        "  peak_rss_mb  {rss_mb:.1} MiB   median over passes; {}",
        lo_hi(&rss)
    );
    eprintln!("  check        {}", checker.describe());
    if let Some(first) = &checker.first {
        eprintln!("  counters     {}", counter_line(&first.counters));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: vec![
            metric("ref_cpu_s", cpu_s * speed, "s"),
            metric("setup_s", setup_s * speed, "s"),
            metric("peak_rss_mb", rss_mb, "MiB"),
        ],
    })
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rootbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.one_pass {
        return match report_one_pass(args.workload, args.seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("rootbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = if args.trace {
        ledger::traced(&args)
    } else {
        untraced(&args)
    };
    match outcome {
        Ok(o) => {
            println!("{}", o.json());
            if o.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("rootbench: {e}");
            ExitCode::FAILURE
        }
    }
}
