//! Reconstructions of the loops the paper discusses by name.

use regpipe_ddg::{Ddg, DdgBuilder, OpKind};

/// The running example of Figure 2: `x(i) = y(i)·a + y(i−3)`.
///
/// Four operations — a load, a multiply by the loop-invariant `a`, an add
/// consuming the load's value from three iterations back, and a store. On
/// the didactic uniform machine (4 units, latency 2) it schedules at II = 1
/// needing 11 registers for loop variants (Figure 2f); at II = 2 it needs 7
/// (Figure 3d); spilling V1 gets it to 5 at II = 2 (Figure 6d).
pub fn example_loop() -> Ddg {
    let mut b = DdgBuilder::new("fig2");
    let ld = b.add_op(OpKind::Load, "Ld");
    let mul = b.add_op(OpKind::Mul, "*");
    let add = b.add_op(OpKind::Add, "+");
    let st = b.add_op(OpKind::Store, "St");
    b.reg(ld, mul);
    b.reg_dist(ld, add, 3);
    b.reg(mul, add);
    b.reg(add, st);
    b.invariant("a", &[mul]);
    b.build().expect("paper example is well-formed")
}

/// A stand-in for loop 47 of APSI (first loop of subroutine CPADE): the
/// *convergent* loop of Figure 4a.
///
/// Five deep multiply/add lanes over nine input streams: lots of medium
/// lifetimes whose scheduling components shrink as the II grows, and almost
/// no distance components — so increasing the II trades performance for
/// registers smoothly (the paper: 54 regs at II 7, 32 at 13, 16 at 31).
pub fn apsi47_like() -> Ddg {
    let mut b = DdgBuilder::new("apsi47");
    let loads: Vec<_> = (0..9).map(|i| b.add_op(OpKind::Load, format!("ld{i}"))).collect();
    for lane in 0..5 {
        let a = loads[(2 * lane) % 9];
        let c = loads[(2 * lane + 1) % 9];
        // t = (a*c + a) * c + a ... depth-6 alternating chain.
        let mut cur = {
            let m = b.add_op(OpKind::Mul, format!("m{lane}_0"));
            b.reg(a, m);
            b.reg(c, m);
            m
        };
        for d in 1..6 {
            let kind = if d % 2 == 0 { OpKind::Mul } else { OpKind::Add };
            let op = b.add_op(kind, format!("t{lane}_{d}"));
            b.reg(cur, op);
            b.reg(loads[(lane + d) % 9], op);
            cur = op;
        }
        let st = b.add_op(OpKind::Store, format!("st{lane}"));
        b.reg(cur, st);
    }
    b.build().expect("apsi47 stand-in is well-formed")
}

/// A stand-in for loop 50 of APSI (second loop of subroutine PADEC): the
/// *non-convergent* loop of Figure 4b.
///
/// Four pinned stencil accumulations with 5–6 taps each (22 distance-
/// component registers in total, matching the paper's count for this loop)
/// plus 11 loop-invariant coefficients: a register floor in the low forties
/// that no II can go below — yet spilling reaches 32 and even 16 registers,
/// exactly the paper's point.
pub fn apsi50_like() -> Ddg {
    let mut b = DdgBuilder::new("apsi50");
    let taps_per_array = [5u32, 6, 5, 6]; // Σ = 22 distance registers
    let mut lane_results = Vec::new();
    for (a, &taps) in taps_per_array.iter().enumerate() {
        let ld = b.add_op(OpKind::Load, format!("ld{a}"));
        let mut acc = b.add_op(OpKind::Mul, format!("m{a}_0"));
        b.reg(ld, acc);
        b.invariant(format!("c{a}_0"), &[acc]);
        for j in 1..=taps {
            let kind = if j % 2 == 0 { OpKind::Mul } else { OpKind::Add };
            let next = b.add_op(kind, format!("a{a}_{j}"));
            b.reg(acc, next);
            b.reg_dist(ld, next, j);
            acc = next;
        }
        lane_results.push(acc);
    }
    let mut combined = lane_results[0];
    for (a, &lane) in lane_results.iter().enumerate().skip(1) {
        let add = b.add_op(OpKind::Add, format!("comb{a}"));
        b.reg(combined, add);
        b.reg(lane, add);
        combined = add;
    }
    let st = b.add_op(OpKind::Store, "st");
    b.reg(combined, st);
    // Seven more coefficient invariants used by scaling multiplies.
    for k in 0..7 {
        let scale = b.add_op(OpKind::Mul, format!("p{k}"));
        b.reg(combined, scale);
        b.invariant(format!("k{k}"), &[scale]);
        let sink = b.add_op(OpKind::Store, format!("stp{k}"));
        b.reg(scale, sink);
    }
    b.build().expect("apsi50 stand-in is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_core::{compile, CompileOptions, Strategy};
    use regpipe_machine::MachineConfig;
    use regpipe_regalloc::allocate;
    use regpipe_sched::{mii, SchedRequest, Scheduler, SchedulerKind};

    fn options(strategy: Strategy) -> CompileOptions {
        CompileOptions { strategy, ..CompileOptions::default() }
    }

    #[test]
    fn example_loop_matches_figure2() {
        let g = example_loop();
        let m = MachineConfig::uniform(4, 2);
        assert_eq!(mii(&g, &m), 1);
        let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
        assert_eq!(s.ii(), 1);
    }

    #[test]
    fn apsi47_has_high_pressure_but_converges() {
        let g = apsi47_like();
        let m = MachineConfig::p2l4();
        let lo = mii(&g, &m);
        assert_eq!(lo, 8, "15 multiplies on 2 units (paper's loop sits at 7)");
        let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::exactly(lo)).unwrap();
        let a = allocate(&g, &s);
        assert!(a.total() >= 42, "high pressure at MII: {}", a.total());
        // Converges at both register budgets (Figure 4a).
        let increase_ii = options(Strategy::IncreaseIi);
        let at32 = compile(&g, &m, 32, &increase_ii).expect("fits 32 by increasing II");
        assert!(at32.ii() > lo);
        let at16 = compile(&g, &m, 16, &increase_ii).expect("fits 16 by increasing II");
        assert!(at16.ii() > at32.ii());
    }

    #[test]
    fn apsi50_never_converges_but_spills_fine() {
        let g = apsi50_like();
        let m = MachineConfig::p2l4();
        let err = compile(&g, &m, 32, &options(Strategy::IncreaseIi))
            .expect_err("Figure 4b: never converges to 32");
        assert!(err.failure().best_regs.unwrap() > 32);
        // Spilling reaches 32 and even 16 registers (Figure 7b).
        let spill = options(Strategy::Spill);
        let at32 = compile(&g, &m, 32, &spill).expect("spill fits 32");
        at32.schedule().verify(at32.ddg(), &m).unwrap();
        let at16 = compile(&g, &m, 16, &spill).expect("spill fits 16");
        assert!(at16.registers_used() <= 16);
        assert!(at16.spilled() >= at32.spilled());
    }

    #[test]
    fn apsi50_distance_floor_matches_paper() {
        let g = apsi50_like();
        let m = MachineConfig::p2l4();
        let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
        let analysis = regpipe_regalloc::LifetimeAnalysis::new(&g, &s);
        assert!(
            analysis.distance_component_regs() >= 22,
            "the paper counts 22 distance registers for APSI 50, got {}",
            analysis.distance_component_regs()
        );
        assert_eq!(g.num_live_invariants(), 11);
    }

    #[test]
    fn paper_loops_schedule_on_all_three_machines() {
        for m in MachineConfig::paper_configs() {
            for g in [example_loop(), apsi47_like(), apsi50_like()] {
                let s = SchedulerKind::Hrms
                    .schedule(&g, &m, &SchedRequest::default())
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", g.name(), m.name()));
                s.verify(&g, &m).unwrap();
                let a = allocate(&g, &s);
                assert!(a.total() > 0);
            }
        }
    }
}
