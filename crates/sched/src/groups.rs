//! Complex-operation groups ("bonded" operations, paper Section 4.3).
//!
//! Spill loads and stores must stay glued to their consumer/producer: a
//! spill store issues exactly `lat(producer)` cycles after the producer, a
//! consumer exactly `lat(load)` cycles after its reload. Otherwise a
//! register-insensitive scheduler could stretch the new lifetimes and
//! *increase* register pressure, defeating the spill. The paper's fix is to
//! schedule each bonded cluster as a single "complex operation".
//!
//! Fixed edges in the graph encode the bonds; this module derives the
//! clusters and the exact cycle offset of every member relative to the
//! cluster leader.

use regpipe_ddg::{Ddg, OpId};
use regpipe_machine::{MachineConfig, Mrt};

/// The partition of a graph's operations into complex-operation groups.
///
/// Operations without bonds form singleton groups with offset 0.
#[derive(Clone, Debug)]
pub struct ComplexGroups {
    /// Group index per operation.
    group_of: Vec<u32>,
    /// Offset (in cycles) of each operation relative to its group leader.
    offset: Vec<i64>,
    /// Members of each group, sorted by offset then id: the first is the
    /// group's leader.
    members: Vec<Vec<OpId>>,
}

impl ComplexGroups {
    /// Derives groups from the graph's fixed edges.
    ///
    /// Offsets follow the bond rule `t(to) = t(from) + latency(from)`.
    /// Offsets are normalized so each group's minimum offset is zero; the
    /// operation at offset zero is the group's leader.
    ///
    /// # Panics
    ///
    /// Panics if fixed edges form a cycle or assign an operation two
    /// inconsistent offsets ([`Ddg::validate`] rejects such graphs).
    pub fn new(ddg: &Ddg, machine: &MachineConfig) -> Self {
        let n = ddg.num_ops();
        // Each bond as a signed offset step at both of its ends.
        let mut bonds: Vec<Vec<(usize, i64)>> = vec![Vec::new(); n];
        for e in ddg.edges().filter(|e| e.is_fixed()) {
            let len =
                i64::from(machine.latency(ddg.op(e.from()).kind())) + i64::from(e.stagger());
            bonds[e.from().index()].push((e.to().index(), len));
            bonds[e.to().index()].push((e.from().index(), -len));
        }

        // Each group is one walk over the bonds from its smallest op, which
        // solves the bond equalities on the way (a bond is a difference
        // constraint, so any member can seed its group); groups are
        // numbered in order of their smallest op. Inconsistent bond
        // systems — constructible only by hand, never by the spill
        // rewriter — are rejected here.
        let mut offset = vec![0i64; n];
        let mut group_of = vec![u32::MAX; n];
        let mut members: Vec<Vec<OpId>> = Vec::new();
        for seed in 0..n {
            if group_of[seed] != u32::MAX {
                continue;
            }
            let gi = members.len() as u32;
            group_of[seed] = gi;
            let mut group = vec![OpId::new(seed)];
            let mut queue = vec![seed];
            while let Some(v) = queue.pop() {
                for &(w, len) in &bonds[v] {
                    let want = offset[v] + len;
                    if group_of[w] != u32::MAX {
                        assert_eq!(offset[w], want, "conflicting bond offsets for op {w}");
                    } else {
                        offset[w] = want;
                        group_of[w] = gi;
                        group.push(OpId::new(w));
                        queue.push(w);
                    }
                }
            }
            // Normalize: the earliest member leads, at offset 0.
            let min = group.iter().map(|m| offset[m.index()]).min().expect("seeded");
            for m in &group {
                offset[m.index()] -= min;
            }
            group.sort_by_key(|m| (offset[m.index()], m.index()));
            members.push(group);
        }
        ComplexGroups { group_of, offset, members }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether there are no groups (empty graph).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Group index of `op`.
    pub fn group_of(&self, op: OpId) -> usize {
        self.group_of[op.index()] as usize
    }

    /// Offset of `op` relative to its group leader (≥ 0).
    pub fn offset(&self, op: OpId) -> i64 {
        self.offset[op.index()]
    }

    /// Members of the group containing `op`, sorted by offset.
    pub fn members_of(&self, op: OpId) -> &[OpId] {
        &self.members[self.group_of(op)]
    }

    /// The leader (offset-0 member) of group `g`.
    pub fn leader(&self, g: usize) -> OpId {
        self.members[g][0]
    }

    /// Per-op start cycles, each member at its offset from its group
    /// leader's start `leader_start(group)`.
    pub(crate) fn op_starts(&self, leader_start: impl Fn(usize) -> i64) -> Vec<i64> {
        let groups = self.group_of.iter().map(|&g| g as usize);
        groups.zip(&self.offset).map(|(g, &off)| leader_start(g) + off).collect()
    }

    /// Puts every member of group `g` on `mrt` with the leader at cycle
    /// `t`, or none of them: on a member's conflict the members placed
    /// before it are removed again and the attempt fails. The leader is
    /// placed first, so a group whose leader's slot is full fails at once.
    /// `t` is wrapped once; each member's slot is its offset after it.
    pub(crate) fn place(&self, ddg: &Ddg, mrt: &mut Mrt, g: usize, t: i64) -> bool {
        let members = &self.members[g];
        let base = mrt.slot(t);
        for (placed, &m) in members.iter().enumerate() {
            if !mrt.try_place_at(ddg.op(m).kind(), self.slot_of(mrt, base, m)) {
                self.remove_members(ddg, mrt, &members[..placed], base);
                return false;
            }
        }
        true
    }

    /// Takes group `g`, placed by [`ComplexGroups::place`] with its leader
    /// at cycle `t`, off `mrt`.
    pub(crate) fn remove(&self, ddg: &Ddg, mrt: &mut Mrt, g: usize, t: i64) {
        self.remove_members(ddg, mrt, &self.members[g], mrt.slot(t));
    }

    fn remove_members(&self, ddg: &Ddg, mrt: &mut Mrt, members: &[OpId], base: u32) {
        for &m in members {
            mrt.remove_at(ddg.op(m).kind(), self.slot_of(mrt, base, m));
        }
    }

    /// The modulo slot of member `m` when its leader issues in slot `base`.
    fn slot_of(&self, mrt: &Mrt, base: u32, m: OpId) -> u32 {
        mrt.slot_after(base, self.offset[m.index()] as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regpipe_ddg::{DdgBuilder, OpKind};

    #[test]
    fn singleton_groups_without_bonds() {
        let mut b = DdgBuilder::new("s");
        let a = b.add_op(OpKind::Add, "a");
        let c = b.add_op(OpKind::Mul, "c");
        b.reg(a, c);
        let g = b.build().unwrap();
        let groups = ComplexGroups::new(&g, &MachineConfig::p1l4());
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.members_of(a), &[a]);
        assert_eq!(groups.offset(c), 0);
    }

    #[test]
    fn bond_chain_offsets_follow_latencies() {
        // producer(add, lat 4) ->! store ; load ->! consumer(add)
        let mut b = DdgBuilder::new("bond");
        let p = b.add_op(OpKind::Add, "p");
        let s = b.add_op(OpKind::Store, "s");
        b.bond(p, s);
        let g = b.build().unwrap();
        let m = MachineConfig::p1l4();
        let groups = ComplexGroups::new(&g, &m);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.members_of(p), &[p, s]);
        assert_eq!(groups.leader(0), p);
        assert_eq!(groups.offset(p), 0);
        assert_eq!(groups.offset(s), 4, "store exactly lat(add) after producer");
    }

    #[test]
    fn load_consumer_bond() {
        let mut b = DdgBuilder::new("lc");
        let l = b.add_op(OpKind::Load, "l");
        let c = b.add_op(OpKind::Mul, "c");
        b.bond(l, c);
        let g = b.build().unwrap();
        let groups = ComplexGroups::new(&g, &MachineConfig::p2l6());
        assert_eq!(groups.offset(c), 2, "consumer exactly lat(load) after reload");
        assert_eq!(groups.members_of(l), &[l, c]);
    }

    #[test]
    fn staggered_reloads_bond_to_one_consumer() {
        // Two reloads into one consumer: the second staggered by a cycle.
        let mut b = DdgBuilder::new("stagger");
        let l1 = b.add_op(OpKind::Load, "l1");
        let l2 = b.add_op(OpKind::Load, "l2");
        let c = b.add_op(OpKind::Add, "c");
        b.bond(l1, c); // t(c) = t(l1) + 2
        b.bond_staggered(l2, c, 1); // t(c) = t(l2) + 3
        let g = b.build().unwrap();
        let groups = ComplexGroups::new(&g, &MachineConfig::p1l4());
        assert_eq!(groups.members_of(c).len(), 3);
        // Normalized offsets: l2 earliest (0), l1 at 1, c at 3.
        assert_eq!(groups.offset(l2), 0);
        assert_eq!(groups.offset(l1), 1);
        assert_eq!(groups.offset(c), 3);
    }

    #[test]
    fn shared_consumer_merges_groups() {
        // Two loads bonded to the same consumer would conflict; but two
        // loads bonded to one consumer each, where the consumer is shared,
        // is exactly what happens when an op has two spilled operands —
        // validation forbids two fixed in-edges, so model it as one bond
        // plus a free edge.
        let mut b = DdgBuilder::new("m");
        let l1 = b.add_op(OpKind::Load, "l1");
        let l2 = b.add_op(OpKind::Load, "l2");
        let c = b.add_op(OpKind::Add, "c");
        b.bond(l1, c);
        b.reg(l2, c);
        let g = b.build().unwrap();
        let groups = ComplexGroups::new(&g, &MachineConfig::p1l4());
        assert_eq!(groups.members_of(l1).len(), 2);
        assert_eq!(groups.members_of(l2), &[l2]);
    }

    #[test]
    fn transitive_bonds_accumulate() {
        // a ->! b ->! c : offsets 0, lat(a), lat(a)+lat(b).
        let mut b = DdgBuilder::new("t");
        let x = b.add_op(OpKind::Load, "x"); // lat 2
        let y = b.add_op(OpKind::Mul, "y"); // lat 4
        let z = b.add_op(OpKind::Store, "z");
        b.bond(x, y);
        b.bond(y, z);
        let g = b.build().unwrap();
        let groups = ComplexGroups::new(&g, &MachineConfig::p1l4());
        assert_eq!(groups.offset(x), 0);
        assert_eq!(groups.offset(y), 2);
        assert_eq!(groups.offset(z), 6);
        assert_eq!(groups.len(), 1);
    }
}
