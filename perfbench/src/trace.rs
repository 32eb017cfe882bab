//! In-memory spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] records one [`Span`] per call the benchmark makes into
//! the program — name, start, end and the span that caused it — and
//! keeps them in memory until the run ends, when [`write_json`] writes
//! them out. Span names are `<layer>.<call>` (`spice.transient`,
//! `numeric.factor_natural`, `core.gen.build`, `server.submit`); the
//! layer is everything before the last dot.
//!
//! A disabled tracer runs the traced closure and records nothing, so the
//! untraced runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use nemscmos_harness::Json;

/// One traced call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a run (tracers on other threads use disjoint bases).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// `<layer>.<call>`.
    pub name: String,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Everything before the last dot of the name.
    pub fn layer(&self) -> &str {
        self.name
            .rsplit_once('.')
            .map_or(self.name.as_str(), |(layer, _)| layer)
    }
}

/// Records spans for one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose span ids start at `id_base`; `epoch` is shared by
    /// every tracer of the run so their spans share one clock.
    pub fn new(enabled: bool, epoch: Instant, id_base: u64) -> Tracer {
        Tracer {
            enabled,
            epoch,
            next_id: id_base,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// The instant span offsets count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Takes over spans another thread's tracer recorded.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` become
    /// its children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied();
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
        out
    }

    /// Records a span the caller timed itself (a request phase that
    /// ends on a reply, not on a return), as a child of the open span.
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
        });
    }

    /// The recorded spans, in completion order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(lo: u64, hi: u64, mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of each span in seconds: its duration minus the part of
/// its interval that its child spans cover.
pub fn self_seconds(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            let covered = covered_ns(s.start_ns, s.end_ns, kids);
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Self time summed per layer, in seconds.
pub fn layer_self_seconds(spans: &[Span]) -> BTreeMap<String, f64> {
    let own = self_seconds(spans);
    let mut layers = BTreeMap::new();
    for s in spans {
        *layers.entry(s.layer().to_string()).or_insert(0.0) += own[&s.id];
    }
    layers
}

/// Writes `spans` as one JSON array.
pub fn write_json(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let rows = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("id".into(), Json::Int(s.id as i64)),
                (
                    "parent".into(),
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                ),
                ("name".into(), Json::Str(s.name.clone())),
                ("start_ns".into(), Json::Int(s.start_ns as i64)),
                ("end_ns".into(), Json::Int(s.end_ns as i64)),
            ])
        })
        .collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, Json::Arr(rows).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // and 90..120 sticks out past the parent (only 90..100 counts).
        let spans = vec![
            span(1, None, "experiments.fig09", 0, 100),
            span(2, Some(1), "harness.batch", 10, 30),
            span(3, Some(1), "harness.batch", 20, 50),
            span(4, Some(1), "spice.transient", 90, 120),
            span(5, Some(2), "spice.transient", 12, 18),
        ];
        let own = self_seconds(&spans);
        assert!((own[&1] - 50e-9).abs() < 1e-15, "{}", own[&1]);
        assert!((own[&2] - 14e-9).abs() < 1e-15, "{}", own[&2]);
        assert!((own[&3] - 30e-9).abs() < 1e-15);
        assert!((own[&5] - 6e-9).abs() < 1e-15);

        let layers = layer_self_seconds(&spans);
        assert!((layers["experiments"] - 50e-9).abs() < 1e-15);
        assert!((layers["harness"] - 44e-9).abs() < 1e-15);
        assert!((layers["spice"] - 36e-9).abs() < 1e-15);
        // Self times never double-count: they sum to the root's wall
        // plus the part of the children outside it.
        let sum: f64 = layers.values().sum();
        assert!((sum - 130e-9).abs() < 1e-15);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_disabled() {
        let epoch = Instant::now();
        let mut on = Tracer::new(true, epoch, 100);
        on.span("server.job", |t| {
            let a = Instant::now();
            t.record("server.submit", a, Instant::now());
            t.span("server.wait", |_| ());
        });
        let spans = on.into_spans();
        assert_eq!(spans.len(), 3);
        let job = spans.iter().find(|s| s.name == "server.job").unwrap();
        assert_eq!(job.id, 100);
        assert_eq!(job.parent, None);
        assert!(spans
            .iter()
            .filter(|s| s.name != "server.job")
            .all(|s| s.parent == Some(100)
                && s.start_ns >= job.start_ns
                && s.end_ns <= job.end_ns));
        assert_eq!(job.layer(), "server");

        let mut off = Tracer::new(false, epoch, 0);
        assert_eq!(off.span("spice.transient", |_| 7), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn layer_is_the_name_before_its_last_dot() {
        assert_eq!(span(0, None, "core.gen.build", 0, 1).layer(), "core.gen");
        assert_eq!(span(0, None, "numeric.refactor", 0, 1).layer(), "numeric");
        assert_eq!(span(0, None, "bare", 0, 1).layer(), "bare");
    }
}
