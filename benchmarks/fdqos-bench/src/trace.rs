//! Spans recorded from the benchmark's own files, around each call into
//! a layer. Kept in memory, written out when the run ends.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the id of the span that caused this
/// one (0 for a root); spans of one request share `request`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
}

/// A span that has started and not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Id to hand to children as their `parent`; 0 with tracing off.
    pub id: u64,
    name: &'static str,
    start_ns: u64,
    parent: u64,
    request: u64,
}

/// One thread's span recorder. With tracing off every call returns
/// without reading the clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose ids start at `lane << 40`, so recorders of
    /// different threads never collide. Times count from `origin`.
    pub fn new(enabled: bool, origin: Instant, lane: u64) -> Self {
        Self {
            enabled,
            origin,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Starts a span now.
    pub fn open(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        if !self.enabled {
            return Open {
                id: 0,
                name,
                start_ns: 0,
                parent,
                request,
            };
        }
        Open {
            id: self.take_id(),
            name,
            start_ns: self.now_ns(),
            parent,
            request,
        }
    }

    /// Ends `open` now and returns its duration in ns (0 with tracing
    /// off).
    pub fn close(&mut self, open: Open) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
            id: open.id,
            parent: open.parent,
            request: open.request,
        });
        end_ns - open.start_ns
    }

    /// Records a span from timestamps taken elsewhere (seconds since the
    /// origin); returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start_s: f64,
        end_s: f64,
        parent: u64,
        request: u64,
    ) -> u64 {
        if !self.enabled {
            return 0;
        }
        let id = self.take_id();
        let ns = |s: f64| (s.max(0.0) * 1e9) as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start_s),
            end_ns: ns(end_s),
            id,
            parent,
            request,
        });
        id
    }

    /// Hands the recorded spans over.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of each interval its children cover.
    pub self_ns: u64,
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.clamp(reach, s.end_ns);
                let b = b.clamp(reach, s.end_ns);
                covered += b - a;
                reach = reach.max(b);
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{},\"parent\":{},\"request\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id, s.parent, s.request
        )?;
    }
    w.flush()
}

/// Prints the self-time table of a traced run.
pub fn print_self_times(workload: &str, spans: &[Span]) {
    println!(
        "# {workload}: self time per layer (span minus children), {} spans",
        spans.len()
    );
    println!(
        "# {:<22} {:>10} {:>14} {:>14} {:>12}",
        "layer", "spans", "total_ms", "self_ms", "self_ns/span"
    );
    for (name, t) in self_times(spans) {
        println!(
            "# {:<22} {:>10} {:>14.3} {:>14.3} {:>12.0}",
            name,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.self_ns as f64 / t.count.max(1) as f64
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, id: u64, parent: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            request: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("block", 0, 100, 1, 0),
            // Two siblings, disjoint.
            span("recv", 10, 30, 2, 1),
            span("decode", 40, 70, 3, 1),
            // Nested inside decode.
            span("record", 45, 65, 4, 3),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["block"],
            LayerTime {
                count: 1,
                total_ns: 100,
                self_ns: 50
            }
        );
        assert_eq!(
            t["recv"],
            LayerTime {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
        assert_eq!(
            t["decode"],
            LayerTime {
                count: 1,
                total_ns: 30,
                self_ns: 10
            }
        );
        assert_eq!(
            t["record"],
            LayerTime {
                count: 1,
                total_ns: 20,
                self_ns: 20
            }
        );
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span("parent", 100, 200, 1, 0),
            span("a", 110, 160, 2, 1),
            span("a", 150, 180, 3, 1),
            // Sticks out past the parent's end.
            span("b", 190, 260, 4, 1),
        ];
        let t = self_times(&spans);
        // Covered: [110,180] ∪ [190,200] = 80.
        assert_eq!(t["parent"].self_ns, 20);
        assert_eq!(
            t["a"],
            LayerTime {
                count: 2,
                total_ns: 80,
                self_ns: 80
            }
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now(), 0);
        let o = t.open("x", 0, 1);
        assert_eq!(o.id, 0);
        t.close(o);
        assert_eq!(t.push("y", 0.0, 1.0, 0, 1), 0);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn lanes_do_not_collide_and_parents_link() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin, 0);
        let mut b = Tracer::new(true, origin, 1);
        let pa = a.open("p", 0, 7);
        let ca = a.open("c", pa.id, 7);
        a.close(ca);
        a.close(pa);
        let pb = b.open("p", 0, 8);
        b.close(pb);
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let mut ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        let child = spans.iter().find(|s| s.name == "c").unwrap();
        let parent = spans
            .iter()
            .find(|s| s.request == 7 && s.name == "p")
            .unwrap();
        assert_eq!(child.parent, parent.id);
        assert!(child.start_ns >= parent.start_ns && child.end_ns <= parent.end_ns);
    }
}
