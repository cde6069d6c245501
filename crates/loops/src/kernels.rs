//! Named classic loop kernels.
//!
//! Hand-built dependence graphs of well-known numeric kernels (in the
//! spirit of the Livermore loops), with realistic operation mixes and
//! recurrence structure. They complement the random suite with loops whose
//! shape a compiler engineer can eyeball, and they anchor documentation
//! examples and regression tests.

use regpipe_ddg::{Ddg, DdgBuilder, OpKind};

/// Livermore kernel 1 style — *hydro fragment*:
/// `x[k] = q + y[k]*(r*z[k+10] + t*z[k+11])`.
///
/// Pure streaming: three loads, a small multiply/add tree, one store, three
/// invariant scalars. No recurrence; resource bound.
pub fn hydro_fragment() -> Ddg {
    let mut b = DdgBuilder::new("hydro");
    let ly = b.add_op(OpKind::Load, "ld y[k]");
    let lz0 = b.add_op(OpKind::Load, "ld z[k+10]");
    let lz1 = b.add_op(OpKind::Load, "ld z[k+11]");
    let m_r = b.add_op(OpKind::Mul, "r*z0");
    let m_t = b.add_op(OpKind::Mul, "t*z1");
    let sum = b.add_op(OpKind::Add, "rz+tz");
    let m_y = b.add_op(OpKind::Mul, "y*sum");
    let plus_q = b.add_op(OpKind::Add, "+q");
    let st = b.add_op(OpKind::Store, "st x[k]");
    b.reg(lz0, m_r);
    b.reg(lz1, m_t);
    b.reg(m_r, sum);
    b.reg(m_t, sum);
    b.reg(ly, m_y);
    b.reg(sum, m_y);
    b.reg(m_y, plus_q);
    b.reg(plus_q, st);
    b.invariant("q", &[plus_q]);
    b.invariant("r", &[m_r]);
    b.invariant("t", &[m_t]);
    b.build().expect("hydro fragment is well-formed")
}

/// Livermore kernel 3 style — *inner product*: `q += z[k]*x[k]`.
///
/// The accumulator self-recurrence bounds the II by the adder latency.
pub fn inner_product() -> Ddg {
    let mut b = DdgBuilder::new("inner_product");
    let lz = b.add_op(OpKind::Load, "ld z[k]");
    let lx = b.add_op(OpKind::Load, "ld x[k]");
    let mul = b.add_op(OpKind::Mul, "z*x");
    let acc = b.add_op(OpKind::Add, "q+=");
    b.reg(lz, mul);
    b.reg(lx, mul);
    b.reg(mul, acc);
    b.reg_dist(acc, acc, 1);
    b.build().expect("inner product is well-formed")
}

/// Livermore kernel 5 style — *tri-diagonal elimination*:
/// `x[i] = z[i]*(y[i] - x[i-1])`.
///
/// A first-order recurrence through a subtract and a multiply: the classic
/// loop that no amount of hardware parallelism can speed past RecMII.
pub fn tridiagonal() -> Ddg {
    let mut b = DdgBuilder::new("tridiag");
    let ly = b.add_op(OpKind::Load, "ld y[i]");
    let lz = b.add_op(OpKind::Load, "ld z[i]");
    let sub = b.add_op(OpKind::Add, "y-x'");
    let mul = b.add_op(OpKind::Mul, "z*(..)");
    let st = b.add_op(OpKind::Store, "st x[i]");
    b.reg(ly, sub);
    b.reg(lz, mul);
    b.reg(sub, mul);
    b.reg_dist(mul, sub, 1); // x[i-1] feeds the next subtract
    b.reg(mul, st);
    b.build().expect("tridiagonal is well-formed")
}

/// Livermore kernel 7 style — *equation of state fragment*: a wide
/// multiply/add expression over four streams with shared subterms and five
/// invariant coefficients. High ILP, high register pressure, no recurrence.
pub fn state_fragment() -> Ddg {
    let mut b = DdgBuilder::new("state");
    let loads: Vec<_> = ["u[k]", "z[k]", "y[k]", "x[k]"]
        .iter()
        .map(|n| b.add_op(OpKind::Load, format!("ld {n}")))
        .collect();
    // t1 = u + r*z; t2 = t1 + r*y; t3 = u + q*t2 ...
    let mut terms = Vec::new();
    for (i, &ld) in loads.iter().enumerate() {
        let m = b.add_op(OpKind::Mul, format!("c{i}*s{i}"));
        b.reg(ld, m);
        b.invariant(format!("c{i}"), &[m]);
        terms.push(m);
    }
    let mut acc = terms[0];
    for (i, &t) in terms.iter().enumerate().skip(1) {
        let a = b.add_op(OpKind::Add, format!("acc{i}"));
        b.reg(acc, a);
        b.reg(t, a);
        acc = a;
    }
    let scale = b.add_op(OpKind::Mul, "r*acc");
    b.reg(acc, scale);
    b.invariant("r", &[scale]);
    let st = b.add_op(OpKind::Store, "st x[k]");
    b.reg(scale, st);
    b.build().expect("state fragment is well-formed")
}

/// Livermore kernel 11 style — *first sum (prefix)*: `x[k] = x[k-1] + y[k]`.
pub fn prefix_sum() -> Ddg {
    let mut b = DdgBuilder::new("prefix_sum");
    let ly = b.add_op(OpKind::Load, "ld y[k]");
    let add = b.add_op(OpKind::Add, "x'+y");
    let st = b.add_op(OpKind::Store, "st x[k]");
    b.reg(ly, add);
    b.reg_dist(add, add, 1);
    b.reg(add, st);
    b.build().expect("prefix sum is well-formed")
}

/// A Newton–Raphson reciprocal-refinement step with a divide on the
/// critical path — exercises the non-pipelined Div/Sqrt unit.
pub fn newton_step() -> Ddg {
    let mut b = DdgBuilder::new("newton");
    let la = b.add_op(OpKind::Load, "ld a[i]");
    let div = b.add_op(OpKind::Div, "1/a");
    let m1 = b.add_op(OpKind::Mul, "a*r");
    let sub = b.add_op(OpKind::Add, "2-ar");
    let m2 = b.add_op(OpKind::Mul, "r*(2-ar)");
    let st = b.add_op(OpKind::Store, "st r[i]");
    b.reg(la, div);
    b.reg(la, m1);
    b.reg(div, m1);
    b.reg(m1, sub);
    b.reg(div, m2);
    b.reg(sub, m2);
    b.reg(m2, st);
    b.build().expect("newton step is well-formed")
}

/// All named kernels, with their names.
pub fn all_kernels() -> Vec<Ddg> {
    vec![
        hydro_fragment(),
        inner_product(),
        tridiagonal(),
        state_fragment(),
        prefix_sum(),
        newton_step(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::algo::recurrences;
    use regpipe_machine::MachineConfig;
    use regpipe_sched::{mii, rec_mii, SchedRequest, Scheduler, SchedulerKind};

    #[test]
    fn all_kernels_validate_and_schedule() {
        for machine in MachineConfig::paper_configs() {
            for g in all_kernels() {
                g.validate().unwrap_or_else(|e| panic!("{}: {e}", g.name()));
                let s = SchedulerKind::Hrms
                    .schedule(&g, &machine, &SchedRequest::default())
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", g.name(), machine.name()));
                s.verify(&g, &machine).unwrap();
                assert_eq!(s.ii(), mii(&g, &machine), "kernels schedule at MII");
            }
        }
    }

    #[test]
    fn recurrence_structure_is_as_designed() {
        assert!(recurrences(&hydro_fragment()).is_empty());
        assert!(recurrences(&state_fragment()).is_empty());
        assert_eq!(recurrences(&inner_product()).len(), 1);
        assert_eq!(recurrences(&tridiagonal()).len(), 1);
        assert_eq!(recurrences(&prefix_sum()).len(), 1);
    }

    #[test]
    fn tridiagonal_is_recurrence_bound() {
        let g = tridiagonal();
        let m = MachineConfig::p2l4();
        // sub(4) + mul(4) over distance 1.
        assert_eq!(rec_mii(&g, &m), 8);
        assert_eq!(mii(&g, &m), 8, "RecMII dominates ResMII here");
    }

    #[test]
    fn prefix_sum_matches_adder_latency() {
        let m4 = MachineConfig::p2l4();
        let m6 = MachineConfig::p2l6();
        assert_eq!(rec_mii(&prefix_sum(), &m4), 4);
        assert_eq!(rec_mii(&prefix_sum(), &m6), 6);
    }

    #[test]
    fn newton_step_is_divider_bound() {
        let g = newton_step();
        assert_eq!(mii(&g, &MachineConfig::p1l4()), 17, "one non-pipelined divide");
        assert_eq!(mii(&g, &MachineConfig::p2l4()), 9);
    }

    #[test]
    fn state_fragment_has_high_pressure() {
        use regpipe_regalloc::allocate;
        let g = state_fragment();
        let m = MachineConfig::p2l4();
        let s = SchedulerKind::Hrms.schedule(&g, &m, &SchedRequest::default()).unwrap();
        let a = allocate(&g, &s);
        assert!(a.total() > 10, "wide expression: got {}", a.total());
    }

    #[test]
    fn kernels_compile_under_tight_budgets() {
        use regpipe_core::{compile, CompileOptions};
        let m = MachineConfig::p2l4();
        for g in all_kernels() {
            let c = compile(&g, &m, 12, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{}: {e}", g.name()));
            assert!(c.registers_used() <= 12);
        }
    }
}
