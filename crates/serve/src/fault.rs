//! Deterministic fault injection for the serve subsystem.
//!
//! Crash-safety claims are only worth what their tests inject. This
//! module wraps the compile path and the persistent store's append with
//! a *seeded, reproducible* fault schedule, so the crash-recovery tests
//! (`tests/serve_crash.rs`) can make a specific byte go bad on a
//! specific append, every time, on any machine.
//!
//! The plan comes from the environment variable [`FAULT_ENV`]
//! (`REGPIPE_FAULT`), with the grammar:
//!
//! ```text
//! plan  = seed ":" fault { "," fault } ;
//! fault = kind "@" index ;                (* index is 1-based *)
//! kind  = "panic"                         (* nth compile request panics *)
//!       | "torn"                          (* nth append: silent partial write —
//!                                            a torn frame found only at recovery *)
//!       | "flip"                          (* nth append: one payload bit flipped *)
//!       | "crash"                         (* nth append: partial write, then
//!                                            process abort — kill -9 mid-write *) ;
//! ```
//!
//! e.g. `REGPIPE_FAULT=7:panic@3,torn@20,crash@31`. The `seed` feeds a
//! splitmix64 stream that picks *where* each fault lands inside its
//! frame (the tear point, the flipped bit), so the whole schedule is a
//! pure function of the environment. `panic@n` counts compile requests;
//! the other kinds count store appends.
//!
//! Faults only ever fire when the variable is set — production daemons
//! pay one atomic load per event and nothing else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The environment variable carrying the fault plan (`seed:spec`).
pub const FAULT_ENV: &str = "REGPIPE_FAULT";

/// One injectable fault kind. See the module docs for the schedule
/// grammar and what each kind does. The discriminant salts the seeded
/// draw, so renumbering a kind would move the tear point and flipped
/// bit of every existing plan.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Panic inside the nth compile request.
    Panic = 0,
    /// Silent partial write of the nth append frame.
    Torn = 2,
    /// One bit of the nth append's payload flipped.
    Flip = 3,
    /// Partial write of the nth append, then `std::process::abort()`.
    Crash = 4,
}

impl FaultKind {
    fn parse(raw: &str) -> Result<FaultKind, String> {
        match raw {
            "panic" => Ok(FaultKind::Panic),
            "torn" => Ok(FaultKind::Torn),
            "flip" => Ok(FaultKind::Flip),
            "crash" => Ok(FaultKind::Crash),
            other => Err(format!("unknown fault kind '{other}' (panic|torn|flip|crash)")),
        }
    }

    fn slug(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Torn => "torn",
            FaultKind::Flip => "flip",
            FaultKind::Crash => "crash",
        }
    }
}

/// What the fault layer tells the store to do to one append. The raw
/// `r` value is a seeded draw; the store maps it onto the frame (tear
/// point in `1..frame_len`, bit index in `0..payload_bits`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AppendFault {
    /// Write only part of the frame, silently (discovered at recovery).
    Torn(u64),
    /// Flip one bit of the payload before writing the whole frame.
    Flip(u64),
    /// Write only part of the frame, then abort the process.
    Crash(u64),
}

/// A parsed, validated fault schedule (seed + `kind@index` list).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<(FaultKind, u64)>,
}

impl FaultPlan {
    /// Parses a `seed:kind@n[,kind@n...]` plan string.
    ///
    /// # Errors
    ///
    /// Describes the first malformed component.
    pub fn parse(raw: &str) -> Result<FaultPlan, String> {
        let (seed, spec) = raw.split_once(':').ok_or_else(|| {
            format!("fault plan '{raw}' must look like '<seed>:<kind>@<n>,...'")
        })?;
        let seed: u64 = seed.trim().parse().map_err(|_| format!("bad fault seed '{seed}'"))?;
        let mut faults = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let (kind, index) = part
                .split_once('@')
                .ok_or_else(|| format!("bad fault '{part}' (expected '<kind>@<n>')"))?;
            let kind = FaultKind::parse(kind.trim())?;
            let index: u64 =
                index.trim().parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                    format!("fault index in '{part}' must be a positive integer")
                })?;
            faults.push((kind, index));
        }
        if faults.is_empty() {
            return Err("fault plan lists no faults".into());
        }
        Ok(FaultPlan { seed, faults })
    }

    /// Renders the plan back to the `seed:spec` form it parsed from.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!("{}:", self.seed);
        for (i, (kind, index)) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}@{index}", kind.slug());
        }
        out
    }
}

/// Live fault state: a plan plus per-domain event counters. One per
/// process in normal operation ([`global`]); tests may hold their own.
pub struct FaultState {
    plan: FaultPlan,
    compiles: AtomicU64,
    appends: AtomicU64,
}

/// splitmix64: the seeded draw behind tear points and bit positions.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultState {
    /// Fresh state (all counters zero) for a plan.
    pub fn new(plan: FaultPlan) -> FaultState {
        FaultState { plan, compiles: AtomicU64::new(0), appends: AtomicU64::new(0) }
    }

    fn draw(&self, kind: FaultKind, event: u64) -> u64 {
        splitmix(self.plan.seed ^ (kind as u64) << 56 ^ event)
    }

    /// Counts one compile request; `true` means inject a panic.
    pub fn on_compile(&self) -> bool {
        let event = self.compiles.fetch_add(1, Ordering::SeqCst) + 1;
        self.plan.faults.iter().any(|&(k, n)| k == FaultKind::Panic && n == event)
    }

    /// Counts one store append; returns the fault to apply, if any. When
    /// several kinds share an index, the first in spec order wins.
    pub fn on_append(&self) -> Option<AppendFault> {
        let event = self.appends.fetch_add(1, Ordering::SeqCst) + 1;
        for &(kind, n) in &self.plan.faults {
            if n != event {
                continue;
            }
            let r = self.draw(kind, event);
            return match kind {
                FaultKind::Torn => Some(AppendFault::Torn(r)),
                FaultKind::Flip => Some(AppendFault::Flip(r)),
                FaultKind::Crash => Some(AppendFault::Crash(r)),
                FaultKind::Panic => continue,
            };
        }
        None
    }
}

/// The process-wide fault state, parsed once from [`FAULT_ENV`]. `None`
/// when the variable is unset *or* malformed — call [`validate_env`]
/// at startup to reject malformed plans loudly instead.
pub fn global() -> Option<&'static FaultState> {
    static STATE: OnceLock<Option<FaultState>> = OnceLock::new();
    STATE
        .get_or_init(|| {
            let raw = std::env::var(FAULT_ENV).ok()?;
            FaultPlan::parse(&raw).ok().map(FaultState::new)
        })
        .as_ref()
}

/// Validates [`FAULT_ENV`] without arming anything.
///
/// # Errors
///
/// The parse error for a set-but-malformed plan.
pub fn validate_env() -> Result<(), String> {
    match std::env::var(FAULT_ENV) {
        Err(_) => Ok(()),
        Ok(raw) => FaultPlan::parse(&raw).map(|_| ()).map_err(|e| format!("{FAULT_ENV}: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_parse_and_render_round_trip() {
        let plan = FaultPlan::parse("7:panic@3,torn@20,flip@2,crash@31").expect("valid plan");
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.faults.len(), 4);
        assert_eq!(FaultPlan::parse(&plan.render()).unwrap(), plan);
    }

    #[test]
    fn malformed_plans_are_rejected_with_names() {
        for (raw, needle) in [
            ("no-colon", "must look like"),
            ("x:panic@1", "bad fault seed"),
            ("7:warp@1", "unknown fault kind"),
            ("7:short@1", "unknown fault kind 'short'"),
            ("7:fsync@1", "unknown fault kind 'fsync'"),
            ("7:panic@0", "positive integer"),
            ("7:panic", "expected '<kind>@<n>'"),
            ("7:", "expected '<kind>@<n>'"),
        ] {
            let err = FaultPlan::parse(raw).unwrap_err();
            assert!(err.contains(needle), "{raw}: {err}");
        }
    }

    #[test]
    fn events_fire_exactly_on_their_index() {
        let state = FaultState::new(FaultPlan::parse("9:panic@2,torn@1,crash@3").unwrap());
        assert!(!state.on_compile()); // compile event 1
        assert!(state.on_compile()); // compile event 2: panic
        assert!(!state.on_compile());
        assert!(matches!(state.on_append(), Some(AppendFault::Torn(_)))); // append 1
        assert_eq!(state.on_append(), None); // append 2
        assert!(matches!(state.on_append(), Some(AppendFault::Crash(_)))); // append 3
        assert_eq!(state.on_append(), None);
    }

    #[test]
    fn draws_are_seed_deterministic() {
        let a = FaultState::new(FaultPlan::parse("5:flip@1").unwrap());
        let b = FaultState::new(FaultPlan::parse("5:flip@1").unwrap());
        assert_eq!(a.on_append(), b.on_append());
        let c = FaultState::new(FaultPlan::parse("6:flip@1").unwrap());
        assert_ne!(a.draw(FaultKind::Flip, 1), c.draw(FaultKind::Flip, 1));
    }
}
