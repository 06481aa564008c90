//! In-memory span recording around the benchmark's calls into each
//! layer. A span has a name, start, end, parent and optional request
//! id; spans are kept in memory and written as NDJSON when the run
//! ends. With tracing off every call is a branch and nothing more.

use crate::stats::self_time;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    pub req: Option<String>,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Duration and self time of every span of one name, in ms.
#[derive(Debug, Default, Clone)]
pub struct NameTimes {
    pub total_ms: Vec<f64>,
    pub self_ms: Vec<f64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans.lock().expect("span store poisoned by a panicking benchmark thread")
    }

    /// Records a finished span and returns its id (0 with tracing off).
    pub fn record(
        &self,
        name: &str,
        parent: Option<u64>,
        req: Option<&str>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let mut spans = self.spans();
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent: parent.filter(|&p| p != 0),
            name: name.to_string(),
            req: req.map(str::to_string),
            start_ns,
            end_ns,
        });
        id
    }

    /// Opens a span whose children may be recorded before it closes.
    pub fn begin(&self, name: &str, parent: Option<u64>, req: Option<&str>) -> u64 {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: u64) {
        if id == 0 {
            return;
        }
        let end_ns = self.ns(Instant::now());
        if let Some(span) = self.spans().get_mut(id as usize - 1) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&self, name: &str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, None, start, Instant::now());
        out
    }

    /// Self time (ns) of every span, indexed like the span store.
    fn self_times(spans: &[Span]) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p as usize - 1].push((s.start_ns, s.end_ns));
            }
        }
        spans.iter().zip(&children).map(|(s, c)| self_time(s.start_ns, s.end_ns, c)).collect()
    }

    /// Durations and self times grouped by span name.
    pub fn by_name(&self) -> BTreeMap<String, NameTimes> {
        let spans = self.spans();
        let selfs = Self::self_times(&spans);
        let mut out: BTreeMap<String, NameTimes> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(selfs) {
            let e = out.entry(s.name.clone()).or_default();
            e.total_ms.push((s.end_ns - s.start_ns) as f64 / 1e6);
            e.self_ms.push(self_ns as f64 / 1e6);
        }
        out
    }

    /// Writes every span as one NDJSON line, with its self time.
    pub fn write_ndjson(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let spans = self.spans();
        let selfs = Self::self_times(&spans);
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let req = s.req.as_ref().map_or("null".to_string(), |r| format!("\"{r}\""));
            writeln!(
                w,
                r#"{{"id":{},"parent":{parent},"name":"{}","req":{req},"start_us":{:.3},"end_us":{:.3},"self_us":{:.3}}}"#,
                s.id,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                self_ns as f64 / 1e3
            )?;
        }
        w.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new(true);
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let root = t.record("root", None, Some("r1"), at(0), at(10));
        t.record("child", Some(root), Some("r1"), at(2), at(6));
        t.record("child", Some(root), Some("r1"), at(5), at(7));
        let names = t.by_name();
        assert_eq!(names["root"].total_ms.len(), 1);
        assert!((names["root"].self_ms[0] - 5.0).abs() < 1e-6, "10 ms minus the 5 ms union");
        assert_eq!(names["child"].total_ms, vec![4.0, 2.0]);
    }

    #[test]
    fn tracing_off_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", None, None);
        t.end(id);
        assert_eq!(t.time("y", None, || 3), 3);
        assert!(t.by_name().is_empty());
    }
}
