//! Machine configurations.

use std::fmt;

use regpipe_ddg::OpKind;

/// A functional-unit class.
///
/// The paper's machines have four classes (Section 5): a load/store unit,
/// an adder, a multiplier, and a non-pipelined divide/square-root unit.
/// [`FuClass::Universal`] models the didactic machine of Figure 2, where any
/// unit executes any operation.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum FuClass {
    /// Load/store units.
    Memory,
    /// Adders (also execute register copies).
    Adder,
    /// Multipliers.
    Multiplier,
    /// Divide / square-root units.
    DivSqrt,
    /// General-purpose units (uniform machines only).
    Universal,
}

impl FuClass {
    /// All classes, in dense-index order.
    pub const ALL: [FuClass; 5] = [
        FuClass::Memory,
        FuClass::Adder,
        FuClass::Multiplier,
        FuClass::DivSqrt,
        FuClass::Universal,
    ];

    /// Dense index within [`FuClass::ALL`].
    pub fn index(self) -> usize {
        match self {
            FuClass::Memory => 0,
            FuClass::Adder => 1,
            FuClass::Multiplier => 2,
            FuClass::DivSqrt => 3,
            FuClass::Universal => 4,
        }
    }
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FuClass::Memory => "mem",
            FuClass::Adder => "add",
            FuClass::Multiplier => "mul",
            FuClass::DivSqrt => "div/sqrt",
            FuClass::Universal => "any",
        };
        f.write_str(s)
    }
}

/// A VLIW machine description: unit counts per class, per-operation
/// latencies, and per-class pipelining.
///
/// All units of a pipelined class accept a new operation every cycle; a
/// non-pipelined unit is busy for the operation's full latency (the paper's
/// Div/Sqrt units are "not pipelined at all").
///
/// The three evaluation machines share the fixed latencies: store 1,
/// load 2, divide 17, square root 30 (Section 5).
///
/// ```
/// use regpipe_machine::MachineConfig;
/// use regpipe_ddg::OpKind;
///
/// let m = MachineConfig::p2l6();
/// assert_eq!(m.latency(OpKind::Add), 6);
/// assert_eq!(m.latency(OpKind::Load), 2);
/// assert_eq!(m.occupancy(OpKind::Div), 17); // non-pipelined
/// assert_eq!(m.occupancy(OpKind::Mul), 1);  // pipelined
/// ```
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MachineConfig {
    name: String,
    /// Units per class, indexed by [`FuClass::index`]; zero means the class
    /// does not exist on this machine.
    units: [u32; FuClass::ALL.len()],
    /// Latency per op kind, indexed by [`OpKind::index`].
    latency: [u32; OpKind::ALL.len()],
    /// Pipelined flag per class.
    pipelined: [bool; FuClass::ALL.len()],
    /// Whether ops map to the universal class.
    uniform: bool,
}

impl MachineConfig {
    /// Builds a machine with explicit parameters.
    ///
    /// `mem`, `add`, `mul`, `divsqrt` are unit counts; `lat_add`/`lat_mul`
    /// the adder/multiplier latencies. The fixed latencies of the paper
    /// (store 1, load 2, div 17, sqrt 30) are applied, and the Div/Sqrt
    /// class is not pipelined.
    ///
    /// # Panics
    ///
    /// Panics if any unit count or latency is zero.
    pub fn custom(
        name: impl Into<String>,
        mem: u32,
        add: u32,
        mul: u32,
        divsqrt: u32,
        lat_add: u32,
        lat_mul: u32,
    ) -> Self {
        assert!(mem > 0 && add > 0 && mul > 0 && divsqrt > 0, "unit counts must be positive");
        assert!(lat_add > 0 && lat_mul > 0, "latencies must be positive");
        let mut units = [0u32; FuClass::ALL.len()];
        units[FuClass::Memory.index()] = mem;
        units[FuClass::Adder.index()] = add;
        units[FuClass::Multiplier.index()] = mul;
        units[FuClass::DivSqrt.index()] = divsqrt;
        let mut latency = [0u32; OpKind::ALL.len()];
        latency[OpKind::Load.index()] = 2;
        latency[OpKind::Store.index()] = 1;
        latency[OpKind::Add.index()] = lat_add;
        latency[OpKind::Mul.index()] = lat_mul;
        latency[OpKind::Div.index()] = 17;
        latency[OpKind::Sqrt.index()] = 30;
        latency[OpKind::Copy.index()] = 1;
        let mut pipelined = [true; FuClass::ALL.len()];
        pipelined[FuClass::DivSqrt.index()] = false;
        MachineConfig { name: name.into(), units, latency, pipelined, uniform: false }
    }

    /// Configuration **P1L4**: 1 load/store unit, 1 adder, 1 multiplier,
    /// 1 div/sqrt unit; adder and multiplier latency 4.
    pub fn p1l4() -> Self {
        Self::custom("P1L4", 1, 1, 1, 1, 4, 4)
    }

    /// Configuration **P2L4**: 2 units of each kind, latencies as P1L4.
    pub fn p2l4() -> Self {
        Self::custom("P2L4", 2, 2, 2, 2, 4, 4)
    }

    /// Configuration **P2L6**: like P2L4 but adder and multiplier latency 6.
    pub fn p2l6() -> Self {
        Self::custom("P2L6", 2, 2, 2, 2, 6, 6)
    }

    /// The three configurations of the paper's evaluation, in order.
    pub fn paper_configs() -> Vec<MachineConfig> {
        vec![Self::p1l4(), Self::p2l4(), Self::p2l6()]
    }

    /// Parses the CLI/wire machine spelling: `p1l4`, `p2l4`, `p2l6`, or
    /// `uniform:<units>,<latency>`. This is the one spec grammar shared by
    /// every frontend (`regpipe compile --machine`, suite/bench flags, and
    /// the `machine` field of `regpipe serve` requests), so a spelling
    /// accepted anywhere is accepted everywhere.
    ///
    /// ```
    /// use regpipe_machine::MachineConfig;
    ///
    /// assert_eq!(MachineConfig::parse_spec("p2l4").unwrap(), MachineConfig::p2l4());
    /// assert_eq!(MachineConfig::parse_spec("uniform:4,2").unwrap(), MachineConfig::uniform(4, 2));
    /// assert!(MachineConfig::parse_spec("warp9").is_err());
    /// ```
    ///
    /// # Errors
    ///
    /// Names the unknown machine or the malformed `uniform:` parameter.
    pub fn parse_spec(spec: &str) -> Result<MachineConfig, String> {
        match spec {
            "p1l4" => Ok(MachineConfig::p1l4()),
            "p2l4" => Ok(MachineConfig::p2l4()),
            "p2l6" => Ok(MachineConfig::p2l6()),
            other => {
                if let Some(rest) = other.strip_prefix("uniform:") {
                    let (units, lat) = rest
                        .split_once(',')
                        .ok_or_else(|| format!("bad uniform spec '{other}'"))?;
                    let units: u32 =
                        units.parse().map_err(|_| format!("bad unit count '{units}'"))?;
                    let lat: u32 = lat.parse().map_err(|_| format!("bad latency '{lat}'"))?;
                    if units == 0 || lat == 0 {
                        return Err("uniform machine needs positive units and latency".into());
                    }
                    Ok(MachineConfig::uniform(units, lat))
                } else {
                    Err(format!("unknown machine '{other}'"))
                }
            }
        }
    }

    /// A uniform machine: `units` general-purpose fully-pipelined units and
    /// a single latency for every operation (the paper's Figure 2 machine is
    /// `uniform(4, 2)`).
    ///
    /// # Panics
    ///
    /// Panics if `units` or `latency` is zero.
    pub fn uniform(units: u32, latency: u32) -> Self {
        assert!(units > 0, "unit count must be positive");
        assert!(latency > 0, "latency must be positive");
        let mut unit_arr = [0u32; FuClass::ALL.len()];
        unit_arr[FuClass::Universal.index()] = units;
        MachineConfig {
            name: format!("U{units}L{latency}"),
            units: unit_arr,
            latency: [latency; OpKind::ALL.len()],
            pipelined: [true; FuClass::ALL.len()],
            uniform: true,
        }
    }

    /// The machine's name (e.g. `"P2L4"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this is a [`MachineConfig::uniform`] machine (every op runs
    /// on the universal class).
    pub fn is_uniform(&self) -> bool {
        self.uniform
    }

    /// Overrides the unit count of `class`.
    ///
    /// The machine-description text format (see [`crate::textfmt`]) builds
    /// machines by applying overrides like this one to the
    /// [`MachineConfig::custom`] baseline.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero — every class of a 4-class machine must
    /// exist (zero-unit classes would make [`crate::res_mii`] undefined
    /// for loops using them).
    pub fn set_units(&mut self, class: FuClass, count: u32) {
        assert!(count > 0, "unit counts must be positive");
        self.units[class.index()] = count;
    }

    /// Overrides the latency of `kind`.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn set_latency(&mut self, kind: OpKind, latency: u32) {
        assert!(latency > 0, "latencies must be positive");
        self.latency[kind.index()] = latency;
    }

    /// Overrides the pipelining flag of `class`.
    pub fn set_pipelined(&mut self, class: FuClass, pipelined: bool) {
        self.pipelined[class.index()] = pipelined;
    }

    /// Number of functional-unit classes that exist on this machine.
    pub fn num_classes(&self) -> usize {
        FuClass::ALL.len()
    }

    /// The classes with at least one unit.
    pub fn classes(&self) -> impl Iterator<Item = FuClass> + '_ {
        FuClass::ALL.into_iter().filter(|c| self.units[c.index()] > 0)
    }

    /// The class executing `kind` on this machine.
    pub fn class_of(&self, kind: OpKind) -> FuClass {
        if self.uniform {
            return FuClass::Universal;
        }
        match kind {
            OpKind::Load | OpKind::Store => FuClass::Memory,
            OpKind::Add | OpKind::Copy => FuClass::Adder,
            OpKind::Mul => FuClass::Multiplier,
            OpKind::Div | OpKind::Sqrt => FuClass::DivSqrt,
        }
    }

    /// Number of units in `class` (zero if absent).
    pub fn units(&self, class: FuClass) -> u32 {
        self.units[class.index()]
    }

    /// Latency of `kind` in cycles.
    pub fn latency(&self, kind: OpKind) -> u32 {
        self.latency[kind.index()]
    }

    /// Whether `class` is pipelined.
    pub fn is_pipelined(&self, class: FuClass) -> bool {
        self.pipelined[class.index()]
    }

    /// How many consecutive cycles an operation of `kind` occupies one unit:
    /// 1 for pipelined classes, the full latency otherwise.
    pub fn occupancy(&self, kind: OpKind) -> u32 {
        if self.is_pipelined(self.class_of(kind)) {
            1
        } else {
            self.latency(kind)
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (", self.name)?;
        let mut first = true;
        for c in self.classes() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{}x{}", self.units(c), c)?;
            first = false;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_match_section5() {
        let p1 = MachineConfig::p1l4();
        assert_eq!(p1.units(FuClass::Memory), 1);
        assert_eq!(p1.latency(OpKind::Add), 4);
        assert_eq!(p1.latency(OpKind::Mul), 4);
        assert_eq!(p1.latency(OpKind::Store), 1);
        assert_eq!(p1.latency(OpKind::Load), 2);
        assert_eq!(p1.latency(OpKind::Div), 17);
        assert_eq!(p1.latency(OpKind::Sqrt), 30);
        assert!(!p1.is_pipelined(FuClass::DivSqrt));
        assert!(p1.is_pipelined(FuClass::Memory));

        let p2 = MachineConfig::p2l4();
        assert_eq!(p2.units(FuClass::Memory), 2);
        assert_eq!(p2.units(FuClass::DivSqrt), 2);
        assert_eq!(p2.latency(OpKind::Mul), 4);

        let p26 = MachineConfig::p2l6();
        assert_eq!(p26.latency(OpKind::Add), 6);
        assert_eq!(p26.latency(OpKind::Mul), 6);
        assert_eq!(p26.latency(OpKind::Load), 2, "load latency is fixed");
    }

    #[test]
    fn occupancy_reflects_pipelining() {
        let m = MachineConfig::p1l4();
        assert_eq!(m.occupancy(OpKind::Add), 1);
        assert_eq!(m.occupancy(OpKind::Div), 17);
        assert_eq!(m.occupancy(OpKind::Sqrt), 30);
    }

    #[test]
    fn uniform_machine_maps_everything_to_universal() {
        let m = MachineConfig::uniform(4, 2);
        for kind in OpKind::ALL {
            assert_eq!(m.class_of(kind), FuClass::Universal);
            assert_eq!(m.latency(kind), 2);
            assert_eq!(m.occupancy(kind), 1);
        }
        assert_eq!(m.classes().count(), 1);
    }

    #[test]
    fn copies_run_on_the_adder() {
        let m = MachineConfig::p1l4();
        assert_eq!(m.class_of(OpKind::Copy), FuClass::Adder);
        assert_eq!(m.latency(OpKind::Copy), 1);
    }

    #[test]
    #[should_panic(expected = "unit counts must be positive")]
    fn zero_units_rejected() {
        let _ = MachineConfig::custom("bad", 0, 1, 1, 1, 4, 4);
    }

    #[test]
    fn display_lists_classes() {
        let s = MachineConfig::p2l4().to_string();
        assert!(s.contains("P2L4"));
        assert!(s.contains("2xmem"));
    }

    #[test]
    fn paper_configs_helper_returns_three() {
        let cfgs = MachineConfig::paper_configs();
        assert_eq!(cfgs.len(), 3);
        assert_eq!(cfgs[0].name(), "P1L4");
        assert_eq!(cfgs[2].name(), "P2L6");
    }
}
