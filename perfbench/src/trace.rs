//! In-memory spans recorded around calls into the program, written
//! out when the run ends.
//!
//! Each request has a root span `query` (due → reply handled) with
//! children `gen.lag` (due → dispatch) and `client.execute` (dispatch
//! → resolve); all carry the request's id. Probe calls get root spans
//! of their own. A span's self time is its duration minus the part of
//! it that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the recorder's epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Request (or probe call) id shared by a span tree.
    pub req: u64,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Start, ns since epoch.
    pub start: u64,
    /// End, ns since epoch (`>= start`).
    pub end: u64,
}

/// Collects spans in memory.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder timing from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Recorder {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span and returns its index (a parent handle).
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            req,
            name,
            parent,
            start,
            end: end.max(start),
        });
        self.spans.len() - 1
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times(&self.spans)) {
            *out.entry(span.name).or_insert(0) += self_ns;
        }
        out
    }

    /// Writes every span as a tab-separated line:
    /// `req name parent start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "req\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.req, s.name, parent, s.start, s.end
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(a, b) in kids.iter() {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    _ => {
                        if let Some((ca, cb)) = cur {
                            covered += cb - ca;
                        }
                        cur = Some((a, b));
                    }
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            req: 1,
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_union() {
        let spans = [
            span("query", None, 0, 100),
            span("gen.lag", Some(0), 0, 10),
            span("client.execute", Some(0), 10, 90),
            // Overlapping grandchildren of client.execute.
            span("a", Some(2), 20, 50),
            span("b", Some(2), 40, 60),
            // Extends past its parent: only the inside part counts.
            span("c", Some(2), 85, 120),
        ];
        assert_eq!(self_times(&spans), vec![10, 10, 35, 30, 20, 35]);
    }

    #[test]
    fn leaf_and_disjoint_children() {
        let spans = [
            span("root", None, 0, 50),
            span("x", Some(0), 5, 10),
            span("y", Some(0), 20, 30),
            span("z", Some(0), 60, 70),
        ];
        assert_eq!(self_times(&spans), vec![35, 5, 10, 10]);
    }

    #[test]
    fn recorder_totals_by_name() {
        let t0 = Instant::now();
        let mut r = Recorder::new(t0);
        let root = r.record(
            7,
            "query",
            None,
            t0,
            t0 + std::time::Duration::from_micros(3),
        );
        r.record(
            7,
            "client.execute",
            Some(root),
            t0,
            t0 + std::time::Duration::from_micros(2),
        );
        let by = r.self_ns_by_name();
        assert_eq!(by["query"], 1_000);
        assert_eq!(by["client.execute"], 2_000);
        let mut out = Vec::new();
        r.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
