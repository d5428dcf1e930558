//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer in a span (name,
//! start, end, parent). Spans stay in memory until the run ends, then
//! go to a file. A span's self time is its duration minus the part of
//! its interval that its children cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.update`.
    pub name: &'static str,
    /// Start (ns).
    pub start: u64,
    /// End (ns).
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Calls into the layer this span covers (a span around a chunk of
    /// sub-microsecond calls covers the whole chunk).
    pub calls: u64,
}

/// Records spans on one thread; `None` tracers record nothing.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, calls: u64) {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            calls,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("exit without enter");
        self.spans[idx].end = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, calls: u64, f: impl FnOnce() -> T) -> T {
        self.enter(name, calls);
        let out = f();
        self.exit();
        out
    }

    /// Per-name totals: (self ns, calls).
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let selves = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selves) {
            let e = out.entry(span.name).or_default();
            e.0 += own;
            e.1 += span.calls;
        }
        out
    }

    /// Mean self time per call of spans named `name` (ns).
    pub fn ns_per_call(&self, name: &str) -> Option<f64> {
        let (ns, calls) = self.totals().get(name).copied()?;
        (calls > 0).then(|| ns as f64 / calls as f64)
    }

    /// Writes one tab-separated line per span.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "idx\tname\tstart_ns\tend_ns\tparent\tcalls")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start, s.end, s.calls
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("x", 10, 40, Some(0)),
            span("y", 30, 50, Some(0)),
            span("z", 90, 120, Some(0)),
        ];
        // Covered: [10,50) and [90,100) → 50.
        assert_eq!(self_times(&spans)[0], 50);
    }

    #[test]
    fn tracer_nests_and_totals() {
        let mut t = Tracer::default();
        t.span("outer", 1, || {
            t_busy();
        });
        t.enter("outer", 1);
        t.enter("inner", 4);
        t.exit();
        t.exit();
        let spans = &t.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.end >= s.start));
        let totals = t.totals();
        assert_eq!(totals["outer"].1, 2);
        assert_eq!(totals["inner"].1, 4);
        let mut out = Vec::new();
        t.write_to(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    fn t_busy() {
        std::hint::black_box((0..100).sum::<u32>());
    }
}
