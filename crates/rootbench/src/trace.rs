//! In-memory span recording for the traced pass.
//!
//! Spans are recorded only from the benchmark's own code, around calls
//! into rootcast's public API, plus one span per engine phase and per
//! subsystem tick reconstructed from the public [`Instrumentation`]
//! hooks. They stay in memory until the run ends and are then written
//! out as JSON lines.

use rootcast::{Instrumentation, SimTime};
use std::borrow::Cow;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// One closed span. Times are offsets from the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Spans of one pass share this id.
    pub pass: u32,
    pub id: usize,
    pub parent: Option<usize>,
    pub name: Cow<'static, str>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

/// Records a tree of spans, or nothing at all when disabled.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    pass: u32,
    stack: Vec<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new pass: later spans carry its id, which is returned.
    pub fn begin_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Run `f` inside a span named `name`; a disabled recorder only
    /// calls `f`.
    pub fn span<R>(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.open(name.into());
        let out = f(self);
        self.close(id);
        out
    }

    fn open(&mut self, name: Cow<'static, str>) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            pass: self.pass,
            id,
            parent: self.stack.last().copied(),
            name,
            start: now,
            end: now,
        });
        self.stack.push(id);
        id
    }

    fn close(&mut self, id: usize) {
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must nest");
        self.spans[id].end = self.origin.elapsed();
    }

    /// A closed child of the innermost open span, from host instants.
    fn leaf(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.spans.len();
        self.spans.push(Span {
            pass: self.pass,
            id,
            parent: self.stack.last().copied(),
            name: Cow::Borrowed(name),
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
        });
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{{\"pass\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.pass,
                s.id,
                parent,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        f.flush()
    }
}

/// The benchmark-side observer: each engine phase becomes a span named
/// `engine.<phase>`, and each subsystem tick a leaf span named after the
/// subsystem, placed at `[now - wall, now]` inside the `drive` span.
pub struct SpanObserver<'r> {
    rec: &'r mut Recorder,
    open: Vec<usize>,
}

impl<'r> SpanObserver<'r> {
    pub fn new(rec: &'r mut Recorder) -> SpanObserver<'r> {
        SpanObserver {
            rec,
            open: Vec::new(),
        }
    }
}

impl Instrumentation for SpanObserver<'_> {
    fn on_phase_start(&mut self, phase: &'static str) {
        let id = self.rec.open(Cow::Owned(format!("engine.{phase}")));
        self.open.push(id);
    }

    fn on_phase_end(&mut self, _phase: &'static str) {
        if let Some(id) = self.open.pop() {
            self.rec.close(id);
        }
    }

    fn on_subsystem_tick(&mut self, subsystem: &'static str, _t: SimTime, wall: Duration) {
        let end = Instant::now();
        self.rec.leaf(subsystem, end - wall, end);
    }
}

/// Sum of span durations named `name` in the given passes.
pub fn total(spans: &[Span], passes: &[u32], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| passes.contains(&s.pass) && s.name == name)
        .map(Span::secs)
        .fold(0.0, |acc, d| acc + d)
}

/// Durations (seconds) of every span named `name` in the given passes.
pub fn durations(spans: &[Span], passes: &[u32], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| passes.contains(&s.pass) && s.name == name)
        .map(Span::secs)
        .collect()
}

/// Self time per span name in one pass: each span's duration minus the
/// time its direct children cover, summed by name in first-seen order,
/// as (name, span count, total seconds, self seconds).
pub fn self_times(spans: &[Span], pass: u32) -> Vec<(String, usize, f64, f64)> {
    let mut child_cover = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p] += s.secs();
        }
    }
    let mut rows: Vec<(String, usize, f64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.pass == pass) {
        let own = (s.secs() - child_cover[s.id]).max(0.0);
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.secs();
                r.3 += own;
            }
            None => rows.push((s.name.to_string(), 1, s.secs(), own)),
        }
    }
    rows
}

/// Structural checks on the span tree: every child lies inside its
/// parent, and inside each `engine.drive` span the subsystem ticks cover
/// all but `max_gap` of the phase (the rest is the engine's own untraced
/// scheduling work). Returns the largest gap share seen.
pub fn check_coverage(spans: &[Span], max_gap: f64) -> Result<f64, String> {
    let mut worst_gap = 0.0f64;
    let mut cover = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "span {} `{}` [{:?}, {:?}] leaves its parent `{}` [{:?}, {:?}]",
                    s.id, s.name, s.start, s.end, parent.name, parent.start, parent.end
                ));
            }
            cover[p] += s.secs();
        }
    }
    for s in spans.iter().filter(|s| s.name == "engine.drive") {
        let gap = (s.secs() - cover[s.id]) / s.secs();
        if !(-1e-9..=max_gap).contains(&gap) {
            return Err(format!(
                "subsystem ticks cover {:.2} % of engine.drive (pass {}); the untraced gap may be at most {:.0} %",
                (1.0 - gap) * 100.0,
                s.pass,
                max_gap * 100.0
            ));
        }
        worst_gap = worst_gap.max(gap);
    }
    Ok(worst_gap)
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}
