//! The benchmark's own output checker. It re-derives every constraint a
//! modulo schedule must meet from the dependence graph and the machine
//! description, without calling `Schedule::verify`, so a bug shared by the
//! scheduler and its verifier still shows up here.

use regpipe_core::CompiledLoop;
use regpipe_ddg::{Ddg, EdgeKind};
use regpipe_machine::{FuClass, MachineConfig};

/// Checks a schedule (`ii`, one start cycle per op of `ddg`) and its
/// register count against `budget`:
///
/// * every dependence `u → v` with latency `λ` and distance `δ` holds
///   modulo II, `t(v) − t(u) ≥ λ − δ·II`, and every bond (fixed edge)
///   separates its ends by exactly `λ + stagger`;
/// * per functional-unit class, no modulo slot is used by more
///   operations than the class has units, counting a non-pipelined
///   operation in each of the `occupancy` slots it holds;
/// * `regs ≤ budget`.
pub fn check_schedule(
    ddg: &Ddg,
    machine: &MachineConfig,
    ii: u32,
    starts: &[i64],
    regs: u32,
    budget: u32,
) -> Result<(), String> {
    if ii == 0 {
        return Err("II is 0".into());
    }
    if starts.len() != ddg.num_ops() {
        return Err(format!("{} start cycles for {} ops", starts.len(), ddg.num_ops()));
    }
    let period = i64::from(ii);
    for e in ddg.edges() {
        let latency = match e.kind() {
            EdgeKind::Order => 0,
            _ => i64::from(machine.latency(ddg.op(e.from()).kind())),
        };
        let separation = starts[e.to().index()] - starts[e.from().index()];
        if e.is_fixed() {
            let want = latency + i64::from(e.stagger());
            if separation != want {
                return Err(format!(
                    "bond {:?} -> {:?} separated by {separation}, needs exactly {want}",
                    e.from(),
                    e.to()
                ));
            }
        } else {
            let need = latency - period * i64::from(e.distance());
            if separation < need {
                return Err(format!(
                    "dependence {:?} -> {:?} (distance {}) separated by {separation} < {need}",
                    e.from(),
                    e.to(),
                    e.distance()
                ));
            }
        }
    }
    let mut usage = vec![vec![0u32; ii as usize]; FuClass::ALL.len()];
    for (id, node) in ddg.ops() {
        let class = machine.class_of(node.kind());
        for i in 0..i64::from(machine.occupancy(node.kind())) {
            let slot = (starts[id.index()] + i).rem_euclid(period) as usize;
            usage[class.index()][slot] += 1;
        }
    }
    for class in FuClass::ALL {
        let units = machine.units(class);
        if let Some((slot, used)) =
            usage[class.index()].iter().enumerate().find(|&(_, &used)| used > units)
        {
            return Err(format!("{class:?} slot {slot} uses {used} of {units} units"));
        }
    }
    if regs > budget {
        return Err(format!("{regs} registers exceed the budget of {budget}"));
    }
    Ok(())
}

/// [`check_schedule`] applied to a compiled loop.
pub fn check_compiled(
    c: &CompiledLoop,
    machine: &MachineConfig,
    budget: u32,
) -> Result<(), String> {
    check_schedule(c.ddg(), machine, c.ii(), c.schedule().starts(), c.registers_used(), budget)
}

/// Proves the checker fires: the loop `c` must pass as compiled, fail with
/// one start time shifted so a dependence breaks, and fail against a
/// budget one register below what it uses.
pub fn self_test(c: &CompiledLoop, machine: &MachineConfig, budget: u32) -> Result<(), String> {
    check_compiled(c, machine, budget)
        .map_err(|e| format!("self-test: clean loop rejected: {e}"))?;
    let ddg = c.ddg();
    let edge = ddg
        .edges()
        .find(|e| e.from() != e.to())
        .ok_or("self-test: loop has no dependence to break")?;
    let latency = match edge.kind() {
        EdgeKind::Order => 0,
        _ => i64::from(machine.latency(ddg.op(edge.from()).kind())),
    };
    let mut shifted = c.schedule().starts().to_vec();
    let need = if edge.is_fixed() {
        latency + i64::from(edge.stagger())
    } else {
        latency - i64::from(c.ii()) * i64::from(edge.distance())
    };
    shifted[edge.to().index()] = shifted[edge.from().index()] + need - 1;
    if check_schedule(ddg, machine, c.ii(), &shifted, c.registers_used(), budget).is_ok() {
        return Err("self-test: a shifted start time went unnoticed".into());
    }
    let regs = c.registers_used();
    if regs > 0
        && check_schedule(ddg, machine, c.ii(), c.schedule().starts(), regs, regs - 1).is_ok()
    {
        return Err("self-test: an exceeded register budget went unnoticed".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_core::{compile, CompileOptions};
    use regpipe_ddg::{DdgBuilder, OpKind};

    fn fig2() -> Ddg {
        let mut b = DdgBuilder::new("fig2");
        let ld = b.add_op(OpKind::Load, "Ld");
        let mul = b.add_op(OpKind::Mul, "*");
        let add = b.add_op(OpKind::Add, "+");
        let st = b.add_op(OpKind::Store, "St");
        b.reg(ld, mul);
        b.reg_dist(ld, add, 3);
        b.reg(mul, add);
        b.reg(add, st);
        b.build().unwrap()
    }

    #[test]
    fn planted_faults_are_caught() {
        let m = MachineConfig::p1l4();
        let c = compile(&fig2(), &m, 8, &CompileOptions::default()).unwrap();
        self_test(&c, &m, 8).unwrap();
    }

    #[test]
    fn resource_overflow_is_caught() {
        // Two loads in the same modulo slot of P1L4's single memory unit.
        let mut b = DdgBuilder::new("two_loads");
        b.add_op(OpKind::Load, "a");
        b.add_op(OpKind::Load, "b");
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        assert!(check_schedule(&g, &m, 2, &[0, 1], 0, 4).is_ok());
        assert!(check_schedule(&g, &m, 2, &[0, 2], 0, 4).unwrap_err().contains("Memory"));
    }
}
