//! Whole-pipeline code emission: prologue, kernel, epilogue.
//!
//! A modulo schedule describes one iteration; actually executing the loop
//! requires a ramp-up (prologue) that starts iterations 0..SC−1, the
//! repeating kernel, and a ramp-down (epilogue) that drains the last SC−1
//! iterations (paper Section 2.2). This module materializes all three —
//! what a compiler backend would emit. The kernel is the II-cycle block
//! the steady state iterates on: each operation appears once, at cycle
//! `t mod II`, annotated with its stage `⌊t / II⌋` (Figure 2e). The flat
//! execution trace replays the emitted sections, so tests can check them
//! against the modulo model.

use std::fmt;

use regpipe_ddg::{Ddg, OpId};

use crate::schedule::Schedule;

/// One operation's position in the kernel.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelSlot {
    /// The operation.
    pub op: OpId,
    /// Kernel row (cycle modulo II).
    pub cycle: u32,
    /// Stage index (0 = newest iteration).
    pub stage: u32,
}

/// An operation instance in the flat execution trace.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEntry {
    /// Absolute issue cycle.
    pub cycle: i64,
    /// The operation.
    pub op: OpId,
    /// Which loop iteration this instance belongs to.
    pub iteration: u64,
}

/// The emitted software pipeline for one loop.
#[derive(Clone, Debug)]
pub struct PipelinedLoop {
    ii: u32,
    stage_count: u32,
    /// `(cycle, op, iteration)` triples of the prologue: the cycle counts
    /// from the loop's start, the iteration from the first (0-based).
    prologue: Vec<(i64, OpId, u32)>,
    /// Kernel rows indexed by cycle; each row sorted by stage then op.
    rows: Vec<Vec<KernelSlot>>,
    /// `(cycle, op, iterations-from-last)` of the epilogue: the cycle
    /// counts from the start of the last kernel repetition, and offset 0
    /// is the final iteration.
    epilogue: Vec<(i64, OpId, u32)>,
    names: Vec<String>,
}

impl PipelinedLoop {
    /// Emits the pipeline for `schedule`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover the graph.
    pub fn new(ddg: &Ddg, schedule: &Schedule) -> Self {
        assert_eq!(ddg.num_ops(), schedule.num_ops(), "schedule/graph mismatch");
        let ii = i64::from(schedule.ii());
        let sc = schedule.stage_count();
        let ramp = i64::from(sc - 1) * ii;

        // Prologue: instances of iterations 0..SC-1 that issue before the
        // steady state begins (absolute cycle < (SC-1)*II).
        let mut prologue = Vec::new();
        for k in 0..sc {
            for (id, _) in ddg.ops() {
                let t = schedule.start(id) + i64::from(k) * ii;
                if t < ramp {
                    prologue.push((t, id, k));
                }
            }
        }
        prologue.sort_by_key(|&(t, op, _)| (t, op));

        // Kernel: one slot per op, annotated with its stage.
        let mut rows: Vec<Vec<KernelSlot>> = vec![Vec::new(); schedule.ii() as usize];
        for (id, _) in ddg.ops() {
            let cycle = (schedule.start(id) % ii) as u32;
            rows[cycle as usize].push(KernelSlot { op: id, cycle, stage: schedule.stage(id) });
        }
        for row in &mut rows {
            row.sort_by_key(|s| (s.stage, s.op));
        }

        // Epilogue: instances still in flight after the last iteration has
        // issued its stage-0 part; offset o = SC-1-stage iterations from
        // the end, relative cycle counted from the last kernel repetition.
        let mut epilogue = Vec::new();
        for (id, _) in ddg.ops() {
            let stage = schedule.stage(id);
            // The final SC-1 iterations each still owe their later stages.
            for back in 0..stage {
                let from_last = stage - back - 1;
                let t = schedule.start(id) - i64::from(schedule.stage(id)) * ii
                    + i64::from(back + 1) * ii;
                epilogue.push((t, id, from_last));
            }
        }
        epilogue.sort_by_key(|&(t, op, _)| (t, op));

        PipelinedLoop {
            ii: schedule.ii(),
            stage_count: sc,
            prologue,
            rows,
            epilogue,
            names: ddg.ops().map(|(_, n)| n.name().to_string()).collect(),
        }
    }

    /// The initiation interval (number of kernel rows).
    pub fn ii(&self) -> u32 {
        self.ii
    }

    /// The stage count.
    pub fn stage_count(&self) -> u32 {
        self.stage_count
    }

    /// The kernel slots issued at kernel `cycle`, sorted by stage then op.
    ///
    /// # Panics
    ///
    /// Panics if `cycle >= ii`.
    pub fn row(&self, cycle: u32) -> &[KernelSlot] {
        &self.rows[cycle as usize]
    }

    /// Prologue length in cycles.
    pub fn prologue_cycles(&self) -> u32 {
        (self.stage_count - 1) * self.ii
    }

    /// Number of operation instances in the prologue (= in the epilogue).
    pub fn prologue_ops(&self) -> usize {
        self.prologue.len()
    }

    /// Number of operation instances in the epilogue.
    pub fn epilogue_ops(&self) -> usize {
        self.epilogue.len()
    }

    /// Code-size estimate in operation slots: prologue + kernel + epilogue.
    pub fn code_size(&self) -> usize {
        self.prologue.len() + self.names.len() + self.epilogue.len()
    }

    /// The stage-annotated kernel as Figure 2e draws it: one line per
    /// kernel row, each slot as `name[stage]`.
    pub fn kernel(&self) -> String {
        let mut out = format!("kernel: II={}, SC={}\n", self.ii, self.stage_count);
        for (cycle, row) in self.rows.iter().enumerate() {
            out += &format!("  {cycle:>3}:");
            for slot in row {
                out += &format!(" {}[{}]", self.names[slot.op.index()], slot.stage);
            }
            out.push('\n');
        }
        out
    }

    /// The flat execution trace of the emitted code run for `iterations`
    /// iterations: the prologue, `iterations − SC + 1` kernel repetitions
    /// and the epilogue, every dynamic operation instance with its
    /// absolute issue cycle, sorted by cycle then op.
    ///
    /// Kernel repetition `j` starts at cycle `(SC − 1 + j)·II`, and its
    /// stage-`s` slots run iteration `SC − 1 + j − s`; the epilogue
    /// follows the last repetition. Tests check that iteration `k`'s
    /// instance of op `v` issues at `start(v) + k·II`, the defining
    /// equation of modulo scheduling.
    ///
    /// # Panics
    ///
    /// Panics if `iterations < SC − 1`: the prologue alone starts SC − 1
    /// iterations, so the emitted code cannot run fewer.
    pub fn trace(&self, iterations: u64) -> Vec<TraceEntry> {
        let sc = u64::from(self.stage_count);
        assert!(
            iterations + 1 >= sc,
            "the emitted code runs at least SC - 1 = {} iterations, not {iterations}",
            sc - 1
        );
        let ii = i64::from(self.ii);
        let mut out: Vec<TraceEntry> = self
            .prologue
            .iter()
            .map(|&(cycle, op, k)| TraceEntry { cycle, op, iteration: u64::from(k) })
            .collect();
        for j in 0..iterations + 1 - sc {
            let newest = sc - 1 + j;
            let start = newest as i64 * ii;
            out.extend(self.rows.iter().flatten().map(|s| TraceEntry {
                cycle: start + i64::from(s.cycle),
                op: s.op,
                iteration: newest - u64::from(s.stage),
            }));
        }
        let last = (iterations as i64 - 1) * ii;
        out.extend(self.epilogue.iter().map(|&(t, op, back)| TraceEntry {
            cycle: last + t,
            op,
            iteration: iterations - 1 - u64::from(back),
        }));
        out.sort_by_key(|e| (e.cycle, e.op));
        out
    }
}

impl fmt::Display for PipelinedLoop {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipelined loop: II={}, SC={}, code size {} slots",
            self.ii,
            self.stage_count,
            self.code_size()
        )?;
        writeln!(f, "prologue ({} cycles):", self.prologue_cycles())?;
        for &(t, op, iter) in &self.prologue {
            writeln!(f, "  {t:>4}: {}(i{iter})", self.names[op.index()])?;
        }
        writeln!(f, "kernel (repeat; op(i-s) reads iteration i-s):")?;
        for (row, slots) in self.rows.iter().enumerate() {
            let mut slots: Vec<&KernelSlot> = slots.iter().collect();
            slots.sort_by_key(|s| s.op);
            for s in slots {
                writeln!(f, "  {row:>4}: {}(i-{})", self.names[s.op.index()], s.stage)?;
            }
        }
        writeln!(f, "epilogue:")?;
        for &(t, op, back) in &self.epilogue {
            writeln!(f, "  {t:>4}: {}(N-{back})", self.names[op.index()])?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    fn fig2() -> (Ddg, Schedule) {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        // The paper's Figure 2c schedule: Ld@0, *@2, +@4, St@6, II = 1.
        (b.build().unwrap(), Schedule::new(1, vec![0, 2, 4, 6]))
    }

    #[test]
    fn fig2_kernel_has_seven_stages() {
        let (g, s) = fig2();
        let p = PipelinedLoop::new(&g, &s);
        assert_eq!(p.ii(), 1);
        assert_eq!(p.stage_count(), 7);
        // One row with all four ops at stages 0, 2, 4, 6 (Figure 2e).
        let stages: Vec<u32> = p.row(0).iter().map(|s| s.stage).collect();
        assert_eq!(stages, vec![0, 2, 4, 6]);
        assert_eq!(p.prologue_cycles(), 6);
    }

    #[test]
    fn kernel_rows_partition_ops() {
        let (g, _) = fig2();
        let s = Schedule::new(2, vec![0, 2, 4, 6]);
        let p = PipelinedLoop::new(&g, &s);
        assert_eq!(p.ii(), 2);
        assert_eq!(p.stage_count(), 4);
        assert_eq!(p.row(0).len(), 4, "all starts are even");
        assert_eq!(p.row(1).len(), 0);
    }

    #[test]
    fn kernel_prints_rows() {
        let (g, s) = fig2();
        let txt = PipelinedLoop::new(&g, &s).kernel();
        assert!(txt.contains("II=1"));
        assert!(txt.contains("Ld[0]"));
        assert!(txt.contains("St[6]"));
    }

    #[test]
    fn prologue_and_epilogue_balance() {
        let (g, s) = fig2();
        let p = PipelinedLoop::new(&g, &s);
        assert_eq!(p.stage_count(), 7);
        assert_eq!(p.prologue_cycles(), 6);
        // Every op instance not yet in steady state appears once in the
        // prologue; symmetric count drains in the epilogue.
        assert_eq!(p.prologue_ops(), p.epilogue_ops());
        assert_eq!(p.code_size(), p.prologue_ops() + 4 + p.epilogue_ops());
    }

    #[test]
    fn trace_matches_the_modulo_model() {
        let (g, s) = fig2();
        let p = PipelinedLoop::new(&g, &s);
        let trace = p.trace(10);
        assert_eq!(trace.len(), 40, "4 ops x 10 iterations");
        for e in &trace {
            assert_eq!(e.cycle, s.start(e.op) + e.iteration as i64);
        }
        // The store of iteration k issues at cycle 6 + k.
        let stores: Vec<i64> =
            trace.iter().filter(|e| e.op == OpId::new(3)).map(|e| e.cycle).collect();
        assert_eq!(stores, (6..16).collect::<Vec<i64>>());
    }

    #[test]
    fn prologue_instances_precede_steady_state() {
        let (g, s) = fig2();
        let p = PipelinedLoop::new(&g, &s);
        for &(t, _, iter) in &p.prologue {
            assert!(t < 6, "prologue ends at cycle (SC-1)*II");
            assert!(iter < 7);
        }
    }

    #[test]
    fn single_stage_loop_has_empty_ramps() {
        let mut b = DdgBuilder::new("flat");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        let g = b.build().unwrap();
        let s = Schedule::new(8, vec![0, 4]);
        let p = PipelinedLoop::new(&g, &s);
        assert_eq!(p.stage_count(), 1);
        assert_eq!(p.prologue_ops(), 0);
        assert_eq!(p.epilogue_ops(), 0);
        assert_eq!(p.code_size(), 2);
    }

    #[test]
    fn display_sections_render() {
        let (g, s) = fig2();
        let p = PipelinedLoop::new(&g, &s);
        let txt = p.to_string();
        assert!(txt.contains("prologue"));
        assert!(txt.contains("kernel"));
        assert!(txt.contains("epilogue"));
        assert!(txt.contains("St(i-6)"), "kernel reads 6 stages back:\n{txt}");
    }
}
