//! # cxl-serve — the multi-process pod serving harness
//!
//! Everything else in this workspace proves allocator properties with
//! *simulated* processes inside one address space. This crate is the
//! other half of the story: a real coordinator process creates a real
//! shared-memory segment (a `MAP_SHARED` file mapping), real OS worker
//! processes attach to it with [`cxl_core::Cxlalloc::attach`] and serve
//! sustained YCSB-style traffic, and the coordinator `kill -9`s workers
//! mid-run. Replacements detect the death by lease expiry, win the
//! adoption race, and keep serving the dead incarnation's data. At the
//! end, a full-heap census must agree *exactly* with the workers'
//! allocation ledgers: zero lost blocks, zero phantoms, across any
//! number of crashes.
//!
//! The moving parts:
//!
//! - [`clock`] — the worker's per-op clock: the TSC where CPUID reports
//!   it invariant, `Instant` elsewhere, calibrated over the worker's own
//!   start-up.
//! - [`rpc`] — the shared-memory control plane: the run-state word,
//!   per-worker SPSC event rings, status blocks, latency histograms,
//!   and the allocation
//!   ledger whose cells the allocator itself writes: the destinations
//!   of `alloc_detectable`, the claimed cells of `dealloc_detectable`.
//! - [`worker`] — the worker process: attach, register/adopt, serve,
//!   heartbeat, free its partners' shared keys in place, drain
//!   gracefully on SIGTERM, and (on request) raise a [`Chaos`] signal on
//!   itself at an exact op count.
//! - [`coordinator`] — fleet management, the one seeded chaos schedule
//!   (kills, drains, stalls, rolling restarts), the stuck-worker
//!   watchdog, and the zero-lost-blocks audit.
//! - [`codec`] — the `PodConfig` wire format workers receive on their
//!   command line.
//!
//! Run a demo from the workspace root:
//!
//! ```text
//! cargo run --release --bin serve -- run --workers 4 --secs 10 --kills 2
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod clock;
pub mod codec;
#[cfg(unix)]
pub mod coordinator;
pub mod rpc;
pub mod worker;

/// One chaos kind: what a victim worker is made to suffer, timed by the
/// coordinator or op-exact from the worker itself. Each kind is one
/// signal, so every layer injects all three the same way. Ordered so
/// that events due at the same op fire kill, then drain, then stall.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Chaos {
    /// `kill -9`: the victim vanishes mid-traffic and is adopted.
    Kill,
    /// SIGTERM: the victim drains gracefully and is replaced fresh.
    Drain,
    /// SIGSTOP: the victim stops scheduling until the watchdog's
    /// SIGCONT probe (or its SIGKILL escalation).
    Stall,
}

impl Chaos {
    /// Every kind, in firing order.
    pub(crate) const ALL: [Chaos; 3] = [Chaos::Kill, Chaos::Drain, Chaos::Stall];

    /// The signal that injects this kind.
    pub(crate) fn signal(self) -> i32 {
        match self {
            Chaos::Kill => 9,
            Chaos::Drain => 15,
            Chaos::Stall => 19,
        }
    }

    /// The kind's name on the command line (`--at OPS:KIND`).
    pub(crate) fn name(self) -> &'static str {
        match self {
            Chaos::Kill => "kill",
            Chaos::Drain => "drain",
            Chaos::Stall => "stall",
        }
    }
}

impl std::str::FromStr for Chaos {
    type Err = String;

    fn from_str(s: &str) -> Result<Chaos, String> {
        Chaos::ALL
            .into_iter()
            .find(|c| c.name() == s)
            .ok_or_else(|| format!("unknown chaos kind {s:?} (kill, drain or stall)"))
    }
}

/// Sends a raw signal to `pid` (`Child::kill` only speaks SIGKILL).
#[cfg(unix)]
pub(crate) fn send_signal(pid: u32, sig: i32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    // SAFETY: `kill(2)` takes two integers and reads no memory of this
    // process; a bad pid or signal comes back as an error return.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Entry point shared by the `serve` binary: dispatches to the
/// coordinator (`run`) or a worker (`worker`), returning the process
/// exit code.
#[cfg(unix)]
pub fn main_from_args(argv: &[String]) -> i32 {
    match argv.first().map(String::as_str) {
        Some("worker") => match worker::WorkerArgs::parse(&argv[1..]) {
            Ok(args) => worker::run(&args),
            Err(err) => {
                eprintln!("serve worker: {err}");
                worker::exit::FATAL
            }
        },
        Some("run") => match coordinator::RunArgs::parse(&argv[1..]) {
            Ok(args) => match coordinator::run(&args) {
                Ok(report) => {
                    print!("{}", report.to_json());
                    if report.is_clean() {
                        0
                    } else {
                        eprintln!("serve: audit failed");
                        1
                    }
                }
                Err(err) => {
                    eprintln!("serve run: {err}");
                    1
                }
            },
            Err(err) => {
                eprintln!("serve run: {err}");
                2
            }
        },
        _ => {
            eprintln!(
                "usage: serve run [--workers N] [--secs S | --ops N | --soak S] \
                 [--kills K] [--drains D] [--stalls T] [--rolling N:PERIOD] \
                 [--self-kill I:OPS] [--self-drain I:OPS] [--self-stall I:OPS] \
                 [--shared-pct P] [--remote-batch B] [--shared-skew THETA] \
                 [--stall-ms MS] [--probe-grace-ms MS] [--max-probes N] \
                 [--race-adopt] [--seed S] [--spec ID] [--ledger-cap CELLS] \
                 [--hb-every OPS] [--file PATH] [--keep-file] [--config CFG] \
                 [--json PATH]\n\
                        serve worker ... (internal)"
            );
            2
        }
    }
}
