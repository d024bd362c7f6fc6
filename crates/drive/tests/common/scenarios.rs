// Every pinned scenario, defined once. The tests that assert the golden
// fingerprints and the `print_fingerprints` example that re-pins them
// both include! this file, so a scenario cannot drift between them.
//
// Each includer uses only some items, so every item carries
// allow(dead_code).

use cxl_drive::explore::Explorer;
use cxl_drive::sched::{self, RunReport, Schedule, SimConfig, Step};
use cxl_pod::{FabricConfig, Pod};

/// The explorer profiles behind the schedule pins, named as the golden
/// file names them: `CLASSIC` (`Explorer::default()`) and `LIVENESS`
/// (`liveness: true`).
#[allow(dead_code)]
pub fn profiles() -> [(&'static str, Explorer); 2] {
    [("classic", Explorer::default()), ("liveness", liveness())]
}

#[allow(dead_code)]
fn liveness() -> Explorer {
    Explorer {
        liveness: true,
        ..Explorer::default()
    }
}

/// The liveness profile with remote frees published in batches of 8.
/// It has no pins of its own: at every `LIVENESS` seed its fingerprint
/// must equal the eager run's, because batching is invisible in
/// outcomes and offsets although the schedules drive the batched
/// publish path, crashes, adoptions and steals included.
#[allow(dead_code)]
pub fn batched() -> Explorer {
    Explorer {
        config: SimConfig {
            remote_free_batch: 8,
            ..SimConfig::default()
        },
        ..liveness()
    }
}

/// The scripted schedule behind the trace pins: allocation on three
/// hosts, host 2 crashing at `slab::push_global::after_cas` (fourth
/// encounter), recovery on host 0 (including the durable remote-free
/// republish scan), and post-recovery allocation.
#[allow(dead_code)]
pub fn trace_schedule() -> Schedule {
    Schedule {
        seed: 42,
        hosts: 3,
        steps: vec![
            Step::Alloc { host: 0, size: 128 },
            Step::Alloc { host: 1, size: 128 },
            Step::Alloc { host: 2, size: 128 },
            Step::Crash {
                host: 2,
                at: "slab::push_global::after_cas",
                skip: 3,
            },
            Step::Alloc { host: 0, size: 64 },
            Step::Recover { host: 2, via: 0 },
            Step::Alloc { host: 2, size: 64 },
        ],
    }
}

/// Runs [`trace_schedule`] over three hosts on a fresh pod with
/// `fabric` (`None`: `TRACE_SCRIPTED`; `FabricConfig::congested()`:
/// `TRACE_CONGESTED`), the tracer armed when `armed`. Returns the pod,
/// whose tracer holds the run, and the run's report.
#[allow(dead_code)]
pub fn trace_run(fabric: Option<FabricConfig>, armed: bool) -> (Pod, RunReport) {
    let config = SimConfig {
        hosts: 3,
        fabric,
        ..SimConfig::default()
    };
    let pod = config.pod();
    if armed {
        pod.memory().tracer().expect("sim pods carry a tracer").arm();
    }
    let report =
        sched::run_on(&pod, &config, &trace_schedule(), &[]).expect("the trace schedule passes");
    (pod, report)
}
