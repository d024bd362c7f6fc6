//! `pod-bench sensitivity`: evidence that the numbers measure the
//! allocator and not the loop around it. Reruns `kv_update` and
//! `alloc_sim` with the redo log switched off, and `kv_update` with
//! doubled values, and checks that the metrics move in the direction
//! the change predicts, by more than runs of the same code differ.
//!
//! On the simulated pod the redo log is most of the cost (flushes and
//! fences are charged) and the move is far beyond any bound. On a raw
//! pod they are empty functions and the log costs `kv_update` ~6 %:
//! more than the ~3 % by which identical runs differ, less than the
//! metric's bound — a change of that size shows in paired runs, not at
//! the regression gate.

use crate::host::TickClock;
use crate::report::Values;
use crate::run::{env, Fold};
use crate::workloads::{self, Workload};
use crate::Args;
use cxl_core::AttachOptions;

/// Rounds per variant; base and variant rounds alternate, so a slow
/// stretch of the box falls on both.
const ROUNDS: usize = 6;

struct Variant {
    label: &'static str,
    workload: Box<dyn Workload>,
    clock: TickClock,
    fold: Fold,
    /// The exact values of the variant's rounds (all rounds agree).
    exact: Values,
}

impl Variant {
    fn new(label: &'static str, name: &str, args: &Args, recoverable: bool, scale: u16) -> Self {
        let options = AttachOptions {
            recoverable,
            ..AttachOptions::default()
        };
        let env = env(name, args, options, scale);
        Variant {
            label,
            workload: workloads::build(name, &env).expect("a known workload"),
            clock: env.clock,
            fold: Fold::default(),
            exact: Values::new(),
        }
    }

    fn best_ops_per_s(&self) -> f64 {
        self.fold.best(&self.clock).ops_per_s
    }

    fn exact(&self, name: &str) -> f64 {
        self.exact.get(name).copied().unwrap_or(0.0)
    }

    fn harness_share(&self) -> f64 {
        let harness_ns = self
            .workload
            .built()
            .get("bench.harness_ns_per_op")
            .copied();
        harness_ns.unwrap_or(0.0) * self.best_ops_per_s() / 1e9
    }
}

/// One expectation: `value` against `base`, which must differ by more
/// than the share `at_least` of `base` in the stated direction.
struct Expect {
    what: String,
    base: f64,
    value: f64,
    at_least: f64,
    up: bool,
}

impl Expect {
    fn holds(&self) -> bool {
        if self.up {
            self.value > self.base * (1.0 + self.at_least)
        } else {
            self.value < self.base * (1.0 - self.at_least)
        }
    }
}

pub fn main(args: &Args) -> i32 {
    workloads::crash_recover::silence_crash_signals();
    let mut kv = [
        Variant::new("default", "kv_update", args, true, 1),
        Variant::new("recoverable: false", "kv_update", args, false, 1),
        Variant::new("2x value size", "kv_update", args, true, 2),
    ];
    let mut sim = [
        Variant::new("default", "alloc_sim", args, true, 1),
        Variant::new("recoverable: false", "alloc_sim", args, false, 1),
    ];
    let mut failures = 0;
    for _ in 0..ROUNDS {
        for variant in kv.iter_mut().chain(sim.iter_mut()) {
            let round = variant.workload.round(false);
            if let Err(e) = &round.check {
                eprintln!("pod-bench sensitivity: {}: {e}", variant.label);
                failures += 1;
            }
            variant.fold.add(&round, &variant.clock);
            variant.exact = round.exact;
        }
    }

    let heap = "heap_bytes_per_live_byte";
    let sim_ns = "pod.sim_ns_per_op";
    let expectations = [
        Expect {
            what: "kv_update ops_per_s without the redo log".into(),
            base: kv[0].best_ops_per_s(),
            value: kv[1].best_ops_per_s(),
            at_least: 0.03,
            up: true,
        },
        Expect {
            what: "alloc_sim pod.sim_ns_per_op without the redo log".into(),
            base: sim[0].exact(sim_ns),
            value: sim[1].exact(sim_ns),
            at_least: 0.25,
            up: false,
        },
        Expect {
            what: "alloc_sim ops_per_s without the redo log".into(),
            base: sim[0].best_ops_per_s(),
            value: sim[1].best_ops_per_s(),
            at_least: 0.25,
            up: true,
        },
        Expect {
            what: "kv_update ops_per_s with 2x values".into(),
            base: kv[0].best_ops_per_s(),
            value: kv[2].best_ops_per_s(),
            at_least: 0.05,
            up: false,
        },
        Expect {
            what: format!("kv_update {heap} with 2x values"),
            base: kv[0].exact(heap),
            value: kv[2].exact(heap),
            at_least: 0.02,
            up: true,
        },
    ];
    for e in &expectations {
        let verdict = if e.holds() { "ok" } else { "FAILED" };
        println!(
            "{verdict}: {} moves {} by more than {:.0} %: {:.4} -> {:.4} ({:+.1} %)",
            e.what,
            if e.up { "up" } else { "down" },
            e.at_least * 100.0,
            e.base,
            e.value,
            100.0 * (e.value / e.base - 1.0)
        );
        failures += !e.holds() as u32;
    }
    for (name, variant) in [("kv_update", &kv[0]), ("alloc_sim", &sim[0])] {
        let share = variant.harness_share();
        let ok = share < 0.10;
        println!(
            "{}: {name} replay loop is {:.1} % of the op (must stay under 10 %)",
            if ok { "ok" } else { "FAILED" },
            share * 100.0
        );
        failures += !ok as u32;
    }
    (failures > 0) as i32
}
