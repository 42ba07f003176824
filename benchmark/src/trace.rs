//! In-memory spans recorded from the benchmark's side of each layer
//! boundary: one span per call into a layer's public function, kept
//! in a vector and written out once when the traced run ends.

use crate::measure::rss_mb;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The op this span belongs to; spans of one op share it.
    pub op: u32,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    /// Resident set right after the call returned.
    pub rss_after_mb: f64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Opens the root span of a new op; every span until the matching
    /// [`Tracer::end`] is its descendant and carries its op id.
    pub fn begin_op(&mut self, name: &'static str) -> usize {
        self.op += 1;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            parent: self.open.last().copied(),
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            rss_after_mb: f64::NAN,
        });
        self.open.push(id);
        id
    }

    pub fn end(&mut self, id: usize) {
        let end = self.origin.elapsed().as_secs_f64();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = end;
        self.spans[id].rss_after_mb = rss_mb();
    }

    /// One leaf span around one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, call: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let result = call();
        self.end(id);
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its child spans cover.
    pub fn self_seconds(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::seconds)
            .sum();
        self.spans[id].seconds() - children
    }

    /// Durations of every span called `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn write_json(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_s\":{:.9},\"end_s\":{:.9},\"self_s\":{:.9},\"rss_after_mb\":{:.3}}}{}",
                s.name,
                s.op,
                s.start_s,
                s.end_s,
                self.self_seconds(id),
                s.rss_after_mb,
                if id + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_ops_share_an_id() {
        let mut tr = Tracer::new();
        let op = tr.begin_op("op");
        tr.time("child", || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        tr.end(op);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(op));
        assert_eq!(spans[0].op, spans[1].op);
        assert!(tr.self_seconds(op) < spans[op].seconds() - 0.004);
    }
}
