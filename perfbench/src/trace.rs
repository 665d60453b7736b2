//! In-memory spans around the benchmark's own calls into each layer,
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One timed call: `name` ran from `start_us` to `end_us` (microseconds
/// since the trace's epoch), caused by span `parent`, on behalf of
/// request `request`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Span store. Disabled traces record nothing and cost one branch.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Trace {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Records a span that ran from `start` to `end`; returns its id
    /// (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        let (start_us, end_us) = (self.us(start), self.us(end));
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_us,
            end_us,
        });
        id
    }

    /// Opens a span at `start` whose end is set by [`Self::close`];
    /// returns its id (0 when tracing is off).
    pub fn open(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        start: Instant,
    ) -> u64 {
        self.record(name, request, parent, start, start)
    }

    /// Sets the end of the span `id` opened by [`Self::open`].
    pub fn close(&mut self, id: u64, end: Instant) {
        if id == 0 {
            return;
        }
        let end_us = self.us(end);
        self.spans[id as usize - 1].end_us = end_us;
    }

    /// Times `f` as a span named `name`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let t0 = Instant::now();
        let out = f();
        self.record(name, request, parent, t0, Instant::now());
        out
    }

    /// Moves every span of `other` into this trace, renumbering ids.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len() as u64;
        let shift = other
            .epoch
            .saturating_duration_since(self.epoch)
            .as_secs_f64()
            * 1e6;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            start_us: s.start_us + shift,
            end_us: s.end_us + shift,
            ..s
        }));
    }

    /// Durations (µs) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .collect()
    }

    /// Self time (µs) of every span called `name`: its duration minus
    /// the union of the intervals its children cover.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                children.entry(p).or_default().push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut iv = children.remove(&s.id).unwrap_or_default();
                iv.sort_by(|a, b| a.0.total_cmp(&b.0));
                let (mut covered, mut reach) = (0.0, s.start_us);
                for (a, b) in iv {
                    let (a, b) = (a.max(reach), b.min(s.end_us));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_us() - covered
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, parent, s.request, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Trace::new(true, t0);
        let root = tr.record("root", 1, None, at(0), at(100));
        tr.record("a", 1, Some(root), at(10), at(40));
        tr.record("b", 1, Some(root), at(30), at(50)); // overlaps a
        tr.record("c", 1, Some(root), at(90), at(120)); // runs past root
        let self_us = tr.self_times("root");
        assert_eq!(self_us.len(), 1);
        assert!((self_us[0] - 50.0).abs() < 1e-6, "self time {}", self_us[0]);
        assert_eq!(tr.self_times("a"), tr.durations("a"));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let t0 = Instant::now();
        let mut tr = Trace::new(false, t0);
        assert_eq!(tr.time("x", 0, None, || 7), 7);
        assert!(tr.durations("x").is_empty());
    }
}
