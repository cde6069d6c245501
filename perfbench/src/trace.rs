//! In-memory spans recorded around calls into the layers' public
//! functions, plus work counters ticked at the same boundaries.
//!
//! A span's layer is the part of its name before the first `.`; its self
//! time is its duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::Outcome;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell or request the span belongs to.
    pub cell: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    cell: u64,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            cell: 0,
            counters: BTreeMap::new(),
        }
    }

    /// Tags the spans opened from now on with cell/request `id`.
    pub fn set_cell(&mut self, id: u64) {
        self.cell = id;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            cell: self.cell,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Adds `amount` to the work counter `name`.
    pub fn count(&mut self, name: &'static str, amount: f64) {
        *self.counters.entry(name).or_insert(0.0) += amount;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Per span name: `(calls, self seconds)`.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(covered) {
            let entry = out.entry(s.name).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += (s.end - s.start).saturating_sub(child) as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"cell\":{}}}",
                s.name, s.start, s.end, s.cell
            )?;
        }
        out.flush()
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Total self time of every span, in seconds.
    pub fn covered_s(&self) -> f64 {
        self.self_times().values().fold(0.0, |acc, &(_, s)| acc + s)
    }

    /// Sets the compile-path per-layer metrics from the spans and counters
    /// gathered over `passes` traced passes, as per-pass values.
    pub fn report_layers(&self, passes: usize, out: &mut Outcome) {
        let per = 1.0 / passes.max(1) as f64;
        let times = self.self_times();
        let layer = |name: &str| times.get(name).copied().unwrap_or((0, 0.0));
        for (span, calls, secs) in [
            ("sched.loop_analysis", "sched.loop_analysis.builds", "sched.loop_analysis.s"),
            ("sched.schedule_in", "sched.schedule_in.calls", "sched.schedule_in.s"),
            ("regalloc.lifetimes", "regalloc.lifetimes.builds", "regalloc.lifetimes.s"),
            ("regalloc.rotating", "regalloc.rotating.calls", "regalloc.rotating.s"),
            ("spill.rank", "spill.rank.calls", "spill.rank.s"),
            ("spill.rewrite", "spill.rewrite.calls", "spill.rewrite.s"),
        ] {
            let (n, s) = layer(span);
            out.set(calls, n as f64 * per);
            out.set(secs, s * per);
        }
        let (exact_calls, exact_s) = layer("sched.exact");
        out.set("sched.exact.s", exact_s * per);
        out.set("sched.exact.nodes", self.counter("sched.exact.nodes") * per);
        if exact_calls > 0 {
            out.set(
                "sched.exact.proven_ratio",
                self.counter("sched.exact.proven") / exact_calls as f64,
            );
        }
        let iis = self.counter("sched.iis_tried");
        out.set("sched.iis_tried", iis * per);
        if iis > 0.0 {
            out.set("sched.ii_yield", self.counter("sched.schedules_found") / iis);
        }
        for name in [
            "regalloc.rotating.excess_regs",
            "spill.victims",
            "core.spill.rounds",
            "core.best_of_all.probes",
            "core.increase_ii.points",
        ] {
            out.set(name, self.counter(name) * per);
        }
        let core_self = times
            .iter()
            .filter(|(n, _)| n.starts_with("core."))
            .fold(0.0, |acc, (_, &(_, s))| acc + s);
        out.set("core.self.s", core_self * per);
        out.set("trace.spans", self.num_spans() as f64 * per);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("core.cell", |t| {
            t.span("sched.schedule_in", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let times = t.self_times();
        assert_eq!(times["core.cell"].0, 1);
        assert!(times["sched.schedule_in"].1 >= 0.005);
        assert!(times["core.cell"].1 < times["sched.schedule_in"].1);
    }
}
