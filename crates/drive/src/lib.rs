//! # cxl-drive — N simulated hosts on one OS thread
//!
//! The deterministic drivers that check and measure `cxl-core` from the
//! outside. Each runs the hosts of one simulated pod on a single OS
//! thread, so a run is a pure function of its inputs. They differ only
//! in who picks the next host:
//!
//! * [`clock`] — the host whose core clock is earliest. Every modeled
//!   multi-host number (`cxl-bench`'s figures and gates) runs here.
//! * [`sched`] — the next step of a [`Schedule`](sched::Schedule),
//!   written by hand or generated from a seed. Crash, recover,
//!   stop-heartbeat and detector-tick are steps; every run ends with
//!   full recovery and the whole-heap audit, outside the traced window.
//! * [`explore`] — campaigns of seeded schedules over [`sched`], and a
//!   shrinker that cuts a failing schedule to a 1-minimal reproducer.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod explore;
pub mod sched;
