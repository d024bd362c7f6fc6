//! Crash-point injection.
//!
//! Partial failure is the paper's third challenge: a thread may crash
//! *inside* an allocator function (OOM killer, bug) and the allocator
//! must neither block live threads nor lose memory. The paper validates
//! this with "white-box tests with defined thread crash points" (§5.1);
//! this module provides those crash points.
//!
//! Allocator code calls [`point`] at every interesting place. A test
//! arms a [`CrashPlan`] on the victim thread; when the named point is
//! reached the thread unwinds with a [`CrashSignal`] panic, leaving all
//! shared state exactly as the crash would — the harness catches the
//! unwind, marks the thread dead, and later exercises recovery.
//!
//! Plans are per thread, but every allocator op passes several points,
//! so a point first tests one process-wide word: the number of threads
//! that hold a plan. While it reads 0 the point is that one `Relaxed`
//! load and a not-taken branch; only then does it look up the calling
//! thread's plan, out of line. [`arm`], [`disarm`] and a firing point
//! keep the count exact, and a thread that exits armed gives its count
//! back. A thread always reads its own increment, so an armed thread's
//! points never skip its plan; another thread's plan only sends a
//! point to the slow path, which finds no plan there and returns.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of threads whose [`PlanCell`] holds a plan. `Relaxed`
/// throughout: it publishes no other data, and the one reader that must
/// see a value, an armed thread testing its own points, reads its own
/// increment by program order.
static ARMED: AtomicUsize = AtomicUsize::new(0);

/// A thread's plan, counted in `count` while it holds one.
struct PlanCell {
    plan: Cell<Option<CrashPlan>>,
    count: &'static AtomicUsize,
}

impl PlanCell {
    const fn new(count: &'static AtomicUsize) -> Self {
        PlanCell {
            plan: Cell::new(None),
            count,
        }
    }

    fn arm(&self, plan: CrashPlan) {
        if self.plan.replace(Some(plan)).is_none() {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn disarm(&self) {
        if self.plan.take().is_some() {
            self.count.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Passes point `label`: fires (disarmed) when the plan names it
    /// and its skips are used up, else counts one skip.
    fn pass(&self, label: &'static str) {
        let Some(mut plan) = self.plan.get() else {
            return;
        };
        if plan.at != label {
            return;
        }
        if plan.skip == 0 {
            self.disarm();
            std::panic::panic_any(CrashSignal { at: label });
        }
        plan.skip -= 1;
        self.plan.set(Some(plan));
    }
}

impl Drop for PlanCell {
    /// A thread that exits armed gives its count back.
    fn drop(&mut self) {
        self.disarm();
    }
}

thread_local! {
    static PLAN: PlanCell = const { PlanCell::new(&ARMED) };
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

/// Arms a crash plan on the calling thread. Replaces any existing plan;
/// a thread is counted once however often it re-arms.
pub fn arm(plan: CrashPlan) {
    PLAN.with(|p| p.arm(plan));
}

/// Disarms the calling thread's crash plan, if it holds one.
pub fn disarm() {
    // `try_with`: a thread-local destructor may disarm after `PLAN`'s
    // own ran, which already gave the count back.
    let _ = PLAN.try_with(PlanCell::disarm);
}

/// A crash point. Panics with [`CrashSignal`] when the calling thread's
/// plan names `label` (after `skip` prior encounters). While no thread
/// holds a plan it is one relaxed load and a branch (module docs).
#[inline(always)]
pub fn point(label: &'static str) {
    if ARMED.load(Ordering::Relaxed) != 0 {
        point_armed(label);
    }
}

/// [`point`] once some thread holds a plan: the calling thread's plan,
/// looked up as a thread-local.
#[cold]
#[inline(never)]
fn point_armed(label: &'static str) {
    // `try_with`: a point reached from a thread-local destructor after
    // `PLAN`'s own ran has no plan to fire.
    let _ = PLAN.try_with(|p| p.pass(label));
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
    use std::panic::AssertUnwindSafe;

    /// The calling thread's plan.
    fn own_plan() -> Option<CrashPlan> {
        PLAN.with(|p| p.plan.get())
    }

    const HERE: CrashPlan = CrashPlan {
        at: "here",
        skip: 0,
    };

    #[test]
    fn disarmed_point_is_noop() {
        disarm();
        point("anything");
    }

    #[test]
    fn armed_point_crashes_once() {
        arm(HERE);
        let r = catch(|| {
            point("elsewhere"); // does not fire
            point("here"); // fires
            unreachable!()
        });
        assert_eq!(r, Err(CrashSignal { at: "here" }));
        // The plan disarms on fire.
        assert_eq!(own_plan(), None);
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

    // The gate. Other tests of this binary arm `ARMED` in parallel, so
    // exact counts are asserted on a counter of the test's own; on
    // `ARMED` only what the test thread's own plan implies.

    #[test]
    fn the_count_rises_once_per_thread_and_falls_with_its_plan() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let cell = PlanCell::new(&COUNT);
        let count = || COUNT.load(Ordering::Relaxed);
        cell.arm(HERE);
        assert_eq!(count(), 1);
        cell.arm(CrashPlan {
            at: "there",
            skip: 3,
        });
        assert_eq!(count(), 1, "a re-arm is not counted again");
        cell.disarm();
        assert_eq!(count(), 0);

        cell.arm(CrashPlan {
            at: "here",
            skip: 1,
        });
        cell.pass("here");
        assert_eq!(count(), 1, "a skipped pass keeps the plan");
        let r = catch(AssertUnwindSafe(|| cell.pass("here")));
        assert_eq!(r, Err(CrashSignal { at: "here" }));
        assert_eq!(
            (cell.plan.get(), count()),
            (None, 0),
            "the fire gave it back before the catch"
        );
    }

    #[test]
    fn disarm_without_a_plan_never_underflows() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        let cell = PlanCell::new(&COUNT);
        cell.disarm();
        cell.disarm();
        assert_eq!(COUNT.load(Ordering::Relaxed), 0);
        // And on the process-wide count: a disarm with no plan takes
        // nothing another test's armed thread holds.
        disarm();
        disarm();
        arm(HERE);
        assert!(
            ARMED.load(Ordering::Relaxed) >= 1,
            "this thread's own plan is counted"
        );
        disarm();
    }

    #[test]
    fn a_thread_that_exits_armed_gives_its_count_back() {
        static COUNT: AtomicUsize = AtomicUsize::new(0);
        thread_local! {
            static CELL: PlanCell = const { PlanCell::new(&COUNT) };
        }
        std::thread::spawn(|| {
            CELL.with(|c| c.arm(HERE));
            assert_eq!(COUNT.load(Ordering::Relaxed), 1);
        })
        .join()
        .unwrap();
        // `join` returns after the thread's thread-locals were dropped.
        assert_eq!(COUNT.load(Ordering::Relaxed), 0);
    }

    /// A thread without a plan never fires while another thread is armed.
    #[test]
    fn plans_are_thread_local() {
        arm(CrashPlan { at: "x", skip: 0 });
        std::thread::spawn(|| {
            // The spawn orders the armer's increment before this load,
            // so each point below takes the slow path and finds no plan.
            assert!(ARMED.load(Ordering::Relaxed) >= 1);
            assert_eq!(own_plan(), None);
            for _ in 0..3 {
                point("x");
            }
        })
        .join()
        .unwrap();
        assert_eq!(
            own_plan(),
            Some(CrashPlan { at: "x", skip: 0 }),
            "the armer's plan is untouched"
        );
        disarm();
    }
}
