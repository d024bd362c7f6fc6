//! Crash-point injection.
//!
//! Partial failure is the paper's third challenge: a thread may crash
//! *inside* an allocator function (OOM killer, bug) and the allocator
//! must neither block live threads nor lose memory. The paper validates
//! this with "white-box tests with defined thread crash points" (§5.1);
//! this module provides those crash points.
//!
//! Allocator code calls [`point`] at every interesting place. Normally it
//! is a single thread-local check. A test arms a [`CrashPlan`] on the
//! victim thread; when the named point is reached the thread unwinds with
//! a [`CrashSignal`] panic, leaving all shared state exactly as the
//! crash would — the harness catches the unwind, marks the thread dead,
//! and later exercises recovery.

use std::cell::Cell;
use std::collections::HashMap;

thread_local! {
    static PLAN: Cell<Option<CrashPlan>> = const { Cell::new(None) };
}

/// A scheduled crash for the current thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The crash point label to trigger at.
    pub at: &'static str,
    /// How many times the point is passed before crashing (0 = first
    /// encounter).
    pub skip: u32,
}

/// The panic payload used for injected crashes, so harnesses can
/// distinguish them from real bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSignal {
    /// The crash point that fired.
    pub at: &'static str,
}

/// Arms a crash plan on the calling thread. Replaces any existing plan.
pub fn arm(plan: CrashPlan) {
    PLAN.with(|p| p.set(Some(plan)));
}

/// Disarms the calling thread's crash plan.
pub fn disarm() {
    PLAN.with(|p| p.set(None));
}

/// A crash point. Panics with [`CrashSignal`] when the armed plan names
/// `label` (after `skip` prior encounters); otherwise a near-free check.
#[inline]
pub fn point(label: &'static str) {
    PLAN.with(|p| {
        if let Some(mut plan) = p.get() {
            if plan.at == label {
                if plan.skip == 0 {
                    p.set(None);
                    std::panic::panic_any(CrashSignal { at: label });
                }
                plan.skip -= 1;
                p.set(Some(plan));
            }
        }
    });
}

/// Runs `f`, converting an injected crash into `Err(CrashSignal)`.
/// Non-crash panics are propagated.
pub fn catch<T>(f: impl FnOnce() -> T + std::panic::UnwindSafe) -> Result<T, CrashSignal> {
    match std::panic::catch_unwind(f) {
        Ok(v) => Ok(v),
        Err(payload) => match payload.downcast::<CrashSignal>() {
            Ok(signal) => Err(*signal),
            Err(other) => std::panic::resume_unwind(other),
        },
    }
}

/// The one registry of crash-point labels compiled into the allocator,
/// by list, for white-box test enumeration. `tests/crash_labels.rs`
/// holds it equal to the labels the source passes to [`point`].
pub fn known_points() -> HashMap<&'static str, &'static [&'static str]> {
    let mut map: HashMap<&'static str, &'static [&'static str]> = HashMap::new();
    map.insert("slab", crate::slab::CRASH_POINTS);
    map.insert("slab_batch", crate::slab::BATCH_CRASH_POINTS);
    map.insert("slab_detect", crate::slab::DETECT_CRASH_POINTS);
    map.insert("huge", crate::huge::CRASH_POINTS);
    map.insert("huge_hint", crate::huge::HINT_CRASH_POINTS);
    map.insert("recovery", crate::recovery::CRASH_POINTS);
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_point_is_noop() {
        disarm();
        point("anything");
    }

    #[test]
    fn armed_point_crashes_once() {
        arm(CrashPlan {
            at: "here",
            skip: 0,
        });
        let r = catch(|| {
            point("elsewhere"); // does not fire
            point("here"); // fires
            unreachable!()
        });
        assert_eq!(r, Err(CrashSignal { at: "here" }));
        // The plan disarms on fire.
        assert_eq!(PLAN.with(Cell::get), None);
        point("here"); // no longer crashes
    }

    #[test]
    fn skip_counts_encounters() {
        arm(CrashPlan {
            at: "loop",
            skip: 2,
        });
        let r = catch(|| {
            let mut passed = 0;
            for _ in 0..10 {
                point("loop");
                passed += 1;
            }
            passed
        });
        assert!(r.is_err());
        disarm();
    }

    #[test]
    fn real_panics_propagate() {
        let result = std::panic::catch_unwind(|| catch(|| panic!("real bug")));
        assert!(result.is_err());
    }

    #[test]
    fn plans_are_thread_local() {
        arm(CrashPlan {
            at: "x",
            skip: 0,
        });
        std::thread::spawn(|| {
            assert_eq!(PLAN.with(Cell::get), None);
            point("x"); // other thread unaffected
        })
        .join()
        .unwrap();
        disarm();
    }
}
