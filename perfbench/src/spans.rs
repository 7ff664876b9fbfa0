//! The benchmark's own span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into the program,
//! kept in memory, and written out when the run ends. Each carries the
//! deltas of the public counters ([`Counts`]) between its start and
//! end. A span's self time is its duration minus the part of it that
//! its children cover.

use crate::counts::Counts;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the span in its recorder.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Span name (`setup`, `load`, `layer.cdr`, ...).
    pub name: &'static str,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Wall-clock start and end, in ns since the recorder was created.
    pub start_ns: u64,
    /// See `start_ns`.
    pub end_ns: u64,
    /// Counter deltas over the span.
    pub deltas: Counts,
}

/// Collects spans. Spans nest: `begin` opens a child of the innermost
/// open span.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    workload: &'static str,
    done: Vec<Span>,
    open: Vec<(usize, Counts)>,
}

impl Spans {
    /// A recorder for one workload's traced run.
    pub fn new(workload: &'static str) -> Self {
        Spans {
            origin: Instant::now(),
            workload,
            done: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `at` is the counter snapshot at its start.
    pub fn begin(&mut self, name: &'static str, at: Counts) {
        let id = self.done.len();
        let parent = self.open.last().map(|&(p, _)| p);
        let start_ns = self.now_ns();
        self.done.push(Span {
            id,
            parent,
            name,
            workload: self.workload,
            start_ns,
            end_ns: start_ns,
            deltas: Counts::default(),
        });
        self.open.push((id, at));
    }

    /// Closes the innermost open span; `at` is the counter snapshot at
    /// its end.
    pub fn end(&mut self, at: Counts) {
        let (id, start) = self.open.pop().expect("end without begin");
        let end_ns = self.now_ns();
        let span = &mut self.done[id];
        span.end_ns = end_ns;
        span.deltas = at.delta_since(&start);
    }

    /// Finished spans, in start order.
    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "spans still open");
        &self.done
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Per span name: (count, total ns, total self ns), name-ordered.
    pub fn self_time_table(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut table = BTreeMap::new();
        for (s, self_ns) in self.spans().iter().zip(self.self_times_ns()) {
            let row = table.entry(s.name).or_insert((0, 0, 0));
            row.0 += 1;
            row.1 += s.end_ns - s.start_ns;
            row.2 += self_ns;
        }
        table
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        let self_ns = self.self_times_ns();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"deltas\": {}}}",
                s.id,
                s.name,
                s.workload,
                s.start_ns,
                s.end_ns,
                self_ns[i],
                s.deltas.to_json()
            );
            out.push_str(if i + 1 < self_ns.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut s = Spans::new("w");
        s.done = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 60),
            span(3, Some(2), 35, 50),
        ];
        // Parent: children cover [10, 60) = 50 of 100.
        // Child 2: its child covers 15 of 30.
        assert_eq!(s.self_times_ns(), vec![50, 30, 15, 15]);
        let table = s.self_time_table();
        assert_eq!(table["load"], (4, 100 + 30 + 30 + 15, 50 + 30 + 15 + 15));
    }

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "load",
            workload: "w",
            start_ns,
            end_ns,
            deltas: Counts::default(),
        }
    }
}
