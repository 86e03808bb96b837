//! Spans kept in memory during a traced run and written out at exit, plus
//! the per-layer accumulators they feed.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub request: String,
}

/// Span storage.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index (the id children refer to).
    pub fn record(
        &mut self,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: &str,
    ) -> usize {
        self.spans.push(Span {
            layer,
            start,
            end,
            parent,
            request: request.to_string(),
        });
        self.spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line, times in µs since the tracer
    /// was created; then, one line per layer with its total self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let us = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64() * 1e6;
        let mut child_time = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += us(s.end) - us(s.start);
            }
        }
        let mut self_time: BTreeMap<&str, f64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let (a, b) = (us(s.start), us(s.end));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"layer\": \"{}\", \"start_us\": {a:.3}, \"end_us\": {b:.3}, \
                 \"parent\": {parent}, \"request\": \"{}\"}}",
                s.layer, s.request
            )?;
            *self_time.entry(s.layer).or_default() += (b - a - child_time[i]).max(0.0);
        }
        for (layer, t) in self_time {
            writeln!(out, "{{\"layer\": \"{layer}\", \"self_us_total\": {t:.3}}}")?;
        }
        out.flush()
    }
}

/// Per-layer samples: times (µs) and counts, keyed by metric name.
#[derive(Default)]
pub struct Layers {
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn time(&mut self, name: &'static str, start: Instant, end: Instant) {
        self.sample(name, (end - start).as_secs_f64() * 1e6);
    }

    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_default() += value;
    }

    pub fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.samples.get(name).and_then(|v| crate::stats::median(v))
    }

    pub fn n(&self, name: &str) -> usize {
        self.samples.get(name).map_or(0, Vec::len)
    }
}
