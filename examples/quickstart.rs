//! Quickstart: build a loop, compile it under a register budget, inspect
//! the result.
//!
//! Run with `cargo run --example quickstart`.

use regpipe::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The loop body of `y(i) = a*x(i) + y(i-4)` — a SAXPY with a carried
    // tap four iterations back.
    let mut b = DdgBuilder::new("saxpy4");
    let lx = b.add_op(OpKind::Load, "ld x[i]");
    let mul = b.add_op(OpKind::Mul, "a*x");
    let add = b.add_op(OpKind::Add, "+y[i-4]");
    let st = b.add_op(OpKind::Store, "st y[i]");
    b.reg(lx, mul);
    b.reg(mul, add);
    b.reg_dist(lx, add, 4); // value of x from 4 iterations ago
    b.reg(add, st);
    b.invariant("a", &[mul]);
    let ddg = b.build()?;

    // The machine: 2 units of each class, adder/multiplier latency 4
    // (the paper's P2L4 configuration).
    let machine = MachineConfig::p2l4();

    // Unconstrained: schedule at the minimum initiation interval.
    let sched = SchedulerKind::Hrms.schedule(&ddg, &machine, &Default::default())?;
    let regs = allocate(&ddg, &sched);
    println!(
        "unconstrained: II = {} (MII = {}), {} registers",
        sched.ii(),
        mii(&ddg, &machine),
        regs.total()
    );

    // Constrained: fit the loop into 6 registers. `compile` applies the
    // paper's best-of-all strategy (spill, then probe larger IIs).
    let compiled = compile(&ddg, &machine, 6, &CompileOptions::default())?;
    println!(
        "constrained to 6 regs: II = {}, {} registers, {} lifetimes spilled ({:?})",
        compiled.ii(),
        compiled.registers_used(),
        compiled.spilled(),
        compiled.strategy_used(),
    );

    // The kernel the hardware would iterate on, stage-annotated.
    println!("\n{}", compiled.pipeline().kernel());
    Ok(())
}
