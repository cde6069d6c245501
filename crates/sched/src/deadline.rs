//! Cooperative per-request deadlines for the compile path.
//!
//! A long-lived daemon cannot afford an unbounded compile: the exact
//! scheduler's branch-and-bound can blow up, and even the heuristic
//! strategies sweep many IIs on pathological loops. This module threads a
//! *cooperative* check-budget through the schedulers without changing a
//! single signature: [`arm`] installs a thread-local deadline for the
//! current request, and the hot loops call [`check`] at their natural
//! round boundaries (every `SchedulerKind` call, which each compile round
//! and probe makes, and every 1024 branch-and-bound nodes).
//!
//! When the deadline has passed, [`check`] cancels the compile by
//! unwinding with a dedicated [`DeadlineExceeded`] payload. All compile
//! state is request-local (there is no shared mutable state below the
//! compile layer), so the unwind simply discards the partial work; the
//! caller catches it with `std::panic::catch_unwind`, recognizes the
//! payload with [`is_deadline_panic`], and degrades gracefully — a
//! structured `deadline` error instead of a hung worker.
//!
//! With no deadline armed (the default, and the only configuration the
//! byte-determinism gates run under) [`check`] is a thread-local read
//! and never fires, so results stay deterministic.

use std::any::Any;
use std::cell::Cell;
use std::time::{Duration, Instant};

/// The panic payload [`check`] unwinds with when the armed deadline has
/// passed. Catch with `catch_unwind` and test with [`is_deadline_panic`].
pub struct DeadlineExceeded;

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// Re-arms the previous deadline (usually none) when dropped, so a
/// caught deadline unwind cannot leak an expired deadline into the
/// thread's next request.
#[must_use = "the deadline is disarmed when the guard drops"]
pub struct DeadlineGuard {
    prev: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.set(self.prev);
    }
}

/// Arms a deadline `budget` from now on the current thread. The
/// returned guard restores the previous state on drop — including
/// during the unwind [`check`] starts.
pub fn arm(budget: Duration) -> DeadlineGuard {
    let prev = DEADLINE.replace(Some(Instant::now() + budget));
    DeadlineGuard { prev }
}

/// Cancels the current compile (by unwinding with [`DeadlineExceeded`])
/// if an armed deadline has passed; otherwise a cheap no-op. Call this
/// from bounded-work loop boundaries only — never while holding a lock
/// or halfway through mutating shared state.
pub fn check() {
    if let Some(deadline) = DEADLINE.get() {
        if Instant::now() >= deadline {
            std::panic::panic_any(DeadlineExceeded);
        }
    }
}

/// Whether a `catch_unwind` payload is a deadline cancellation (as
/// opposed to a genuine panic).
pub fn is_deadline_panic(payload: &(dyn Any + Send)) -> bool {
    payload.is::<DeadlineExceeded>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn unarmed_check_is_a_no_op() {
        check();
    }

    #[test]
    fn expired_deadline_unwinds_with_the_marker_payload() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _guard = arm(Duration::ZERO);
            check();
        }))
        .unwrap_err();
        assert!(is_deadline_panic(&*err));
        // The guard restored the thread state during the unwind.
        check();
    }

    #[test]
    fn generous_deadline_does_not_fire() {
        let _guard = arm(Duration::from_secs(3600));
        check();
    }

    #[test]
    fn ordinary_panics_are_not_deadline_panics() {
        let err = catch_unwind(|| panic!("boom")).unwrap_err();
        assert!(!is_deadline_panic(&*err));
    }
}
