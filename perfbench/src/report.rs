//! Metrics, percentiles, the bench's own spans, and the pass line.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Named measurements with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Record `name = value unit`. A non-finite value is a bug in the
    /// pass that produced it.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.entries.push((name.to_string(), value, unit));
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` with every digit kept.
    fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// What one pass reports on its last stdout line.
#[derive(Debug)]
pub struct Pass {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Units of work attempted (client ops, or epochs).
    pub attempted: u64,
    /// Units of work that failed.
    pub failed: u64,
    /// Hash of the pass's checked results, for comparing runs.
    pub digest: u64,
    /// Everything measured.
    pub metrics: Metrics,
}

impl Pass {
    /// The pass line `run.py` parses.
    pub fn to_json(&self) -> String {
        let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"host_cpus\": {host_cpus}, \"attempted\": {}, \
             \"failed\": {}, \"digest\": \"{:016x}\", \"metrics\": {}}}",
            self.workload,
            self.seed,
            self.attempted,
            self.failed,
            self.digest,
            self.metrics.to_json()
        )
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a sample vector for [`percentile`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Fold `x` into a running FNV-1a style digest.
pub fn digest(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x0000_0100_0000_01b3)
}

/// Start value for [`digest`].
pub const DIGEST_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One bench-side span: a call into a layer, timed from outside.
#[derive(Debug, Clone)]
pub struct Span {
    /// `run`, `setup`, `measure`, `verify`, `restart`, `op`, `epoch`,
    /// or `replay.<layer>`.
    pub name: &'static str,
    /// This span's id (unique within the pass).
    pub id: u64,
    /// The enclosing span's id (0 for the root).
    pub parent: u64,
    /// The program-side trace op-ID this span carried, if any.
    pub op_id: Option<u64>,
    /// Start, microseconds since the pass began.
    pub start_us: f64,
    /// Duration, microseconds.
    pub dur_us: f64,
}

/// In-memory span collector for one pass; written out once at the end.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

/// Span id of the pass's root `run` span.
pub const ROOT: u64 = 1;

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { t0: Instant::now(), enabled, spans: Mutex::new(Vec::new()) }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Microseconds from the pass start to `at`.
    pub fn offset_us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.t0).as_secs_f64() * 1e6
    }

    /// Record a span `[start, start + dur_us)` with a caller-chosen id.
    pub fn record(&self, span: Span) {
        if self.enabled {
            self.spans.lock().expect("span buffer poisoned").push(span);
        }
    }

    /// Record many spans at once (per-thread buffers at window end).
    pub fn extend(&self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.lock().expect("span buffer poisoned").extend(spans);
        }
    }

    /// Time `f` as span `name` (id `id`) under `parent`.
    pub fn time<R>(&self, name: &'static str, id: u64, parent: u64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(Span {
            name,
            id,
            parent,
            op_id: None,
            start_us: self.offset_us(start),
            dur_us: start.elapsed().as_secs_f64() * 1e6,
        });
        out
    }

    /// Write the bench spans, then `program_jsonl` (the program's own
    /// span log), to `path` as JSONL. Bench lines carry `"span"`,
    /// program lines carry `"role"`.
    pub fn write(&self, path: &std::path::Path, program_jsonl: &str) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = String::with_capacity(spans.len() * 96 + program_jsonl.len());
        for s in spans.iter() {
            let op = s.op_id.map_or("null".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"id\":{},\"parent\":{},\"op_id\":{op},\"start_us\":{:.3},\
                 \"dur_us\":{:.3}}}",
                s.name, s.id, s.parent, s.start_us, s.dur_us
            );
        }
        out.push_str(program_jsonl);
        std::fs::write(path, out)
    }
}
