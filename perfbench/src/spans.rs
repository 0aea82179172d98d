//! Bench-side spans for the traced run: one span around each call the
//! benchmark makes into a layer, kept in memory and written out at exit.
//!
//! A disabled [`Tracer`] records nothing, so the untraced runs that give
//! the end-to-end numbers pay one branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name (`cnf`, `transform`, `kernel`, `engine`, `json`, `wire`,
    /// or `bench` for the harness's own request roots).
    pub name: &'static str,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
}

/// An in-memory span recorder owned by one thread.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `enabled`, timing from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for subsequent spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; returns its handle (`None` when disabled).
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns,
            end_ns: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, handle: Option<usize>) {
        if let Some(i) = handle {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Records an already timed span (`start` and `end` are instants).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: at(start),
            end_ns: at(end),
        });
        Some(self.spans.len() - 1)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per layer in milliseconds: each span's duration minus the part
/// covered by its children, summed by name.
pub fn self_time_ms(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            child_ns[p] += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    let mut out = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let own = span
            .end_ns
            .saturating_sub(span.start_ns)
            .saturating_sub(children);
        *out.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
    }
    out
}

/// Writes spans as JSON lines (`name`, `parent`, `request`, `start_ns`,
/// `end_ns`) to `path`.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"span\":{i},\"name\":\"{}\",\"parent\":{parent},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "bench",
                parent: None,
                request: 1,
                start_ns: 0,
                end_ns: 10_000_000,
            },
            Span {
                name: "engine",
                parent: Some(0),
                request: 1,
                start_ns: 1_000_000,
                end_ns: 7_000_000,
            },
        ];
        let own = self_time_ms(&spans);
        assert_eq!(own["bench"], 4.0);
        assert_eq!(own["engine"], 6.0);
    }
}
