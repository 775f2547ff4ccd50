//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the
//! pipeline's public API: (name, start, end, parent). A span named `x`
//! contributes its *self* time (duration minus its children's) to the
//! per-layer metric `x_s`. Spans opened with [`Tracer::isolate`] are
//! isolation passes: a fused layer's public function run alone over the
//! same frames, after the workload's own calls. They are excluded from
//! the traced total that the tracing overhead is computed from.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// What a span times.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's own calls, as `wall_s` times them.
    Own,
    /// A layer's public function run alone after the workload's calls.
    Isolation,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Own => "own",
            Kind::Isolation => "isolation",
        }
    }
}

/// One recorded span.
pub struct Span {
    pub iter: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub kind: Kind,
}

/// Per-iteration span recorder plus named values (counts and
/// program-reported times) gathered alongside the spans.
pub struct Tracer {
    origin: Instant,
    iter: u32,
    iter_first_span: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
    values: BTreeMap<String, f64>,
    /// Per-iteration series of every named value and `<span>_s` self time.
    series: BTreeMap<String, Vec<f64>>,
    /// Per-iteration totals of the workload's own root spans.
    own_totals: Vec<f64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            iter: 0,
            iter_first_span: 0,
            spans: Vec::new(),
            open: Vec::new(),
            values: BTreeMap::new(),
            series: BTreeMap::new(),
            own_totals: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, name: &'static str, kind: Kind) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            iter: self.iter,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            kind,
        });
        self.open.push(id);
        id
    }

    /// Open a span of the workload's own calls; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> usize {
        self.open_span(name, Kind::Own)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = end;
    }

    /// Re-attribute a span to another layer after the fact.
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Time `f` as one span of the workload's own calls.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Time `f` as an isolation span.
    pub fn isolate<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open_span(name, Kind::Isolation);
        let out = f();
        self.exit(id);
        out
    }

    /// Add to a named per-iteration value.
    pub fn add(&mut self, name: &str, v: f64) {
        *self.values.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Raise a named per-iteration value to at least `v`.
    pub fn max(&mut self, name: &str, v: f64) {
        let e = self.values.entry(name.to_string()).or_insert(v);
        *e = e.max(v);
    }

    /// Close the current iteration: fold its spans' self times and its
    /// values into the per-iteration series.
    pub fn end_iteration(&mut self) {
        assert!(self.open.is_empty(), "span left open at iteration end");
        let spans = &self.spans[self.iter_first_span..];
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e9;
        let mut self_s: BTreeMap<&str, f64> = BTreeMap::new();
        let mut own = 0.0;
        for s in spans {
            *self_s.entry(s.name).or_insert(0.0) += dur(s);
            if let Some(p) = s.parent {
                *self_s.entry(self.spans[p].name).or_insert(0.0) -= dur(s);
            }
            if s.kind == Kind::Own && s.parent.is_none() {
                own += dur(s);
            }
        }
        for (name, v) in self_s {
            self.series.entry(format!("{name}_s")).or_default().push(v);
        }
        for (name, v) in std::mem::take(&mut self.values) {
            self.series.entry(name).or_default().push(v);
        }
        self.own_totals.push(own);
        self.iter += 1;
        self.iter_first_span = self.spans.len();
    }

    /// Median over iterations of a per-layer metric (0 if never recorded).
    pub fn median_of(&self, metric: &str) -> f64 {
        self.series.get(metric).map_or(0.0, |v| crate::median(v))
    }

    /// Median per-iteration total of the workload's own spans.
    pub fn own_total_median(&self) -> f64 {
        crate::median(&self.own_totals)
    }

    /// Durations in microseconds of every span named `name`, all iterations.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Every span as one JSON object per line, after a header line.
    pub fn to_jsonl(&self, header: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        out.push_str(header);
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"iter\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"kind\":\"{}\"}}",
                s.iter, s.name, s.start_ns, s.end_ns, s.kind.as_str()
            );
        }
        out
    }
}
