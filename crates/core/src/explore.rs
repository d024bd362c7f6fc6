//! Schedule exploration and shrinking.
//!
//! The [`Explorer`] turns the deterministic driver of [`crate::sched`]
//! into a property harness: it enumerates seeds, runs the canonical
//! random schedule of each, and requires every run to survive its
//! crashes, recover every host, and pass the whole-heap audit
//! ([`crate::audit::census`]). Because the driver is deterministic,
//! a failing seed *is* the bug report — `run_seed(seed)` reproduces it
//! byte-identically — and [`Explorer::shrink`] reduces the failing
//! schedule to a minimal reproducer by greedy chunked delta-debugging
//! (re-running the schedule after each tentative cut).

use crate::sched::{self, FaultPlan, RunReport, Schedule, ScheduleFailure, SimConfig};

/// Configuration of an exploration campaign.
#[derive(Debug, Clone)]
pub struct Explorer {
    /// Driver configuration shared by every run.
    pub config: SimConfig,
    /// Steps per generated schedule.
    pub steps_per_run: usize,
    /// Fault plan applied to every run.
    pub plan: FaultPlan,
    /// Generate with the liveness profile
    /// ([`Schedule::generate_liveness`]): heartbeat stops, detector
    /// ticks, and device-outage bursts join the step mix.
    pub liveness: bool,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            config: SimConfig::default(),
            steps_per_run: 40,
            plan: FaultPlan::none(),
            liveness: false,
        }
    }
}

/// Outcome of an exploration campaign.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// Number of schedules run.
    pub runs: usize,
    /// Aggregate successful-run statistics.
    pub total_allocs: u64,
    /// Crashes that fired across all runs.
    pub total_crashes: u64,
    /// Recoveries performed across all runs.
    pub total_recoveries: u64,
    /// Heartbeats stopped (hosts hung) across all runs.
    pub total_hangs: u64,
    /// Expired leases flipped DEAD by detector ticks across all runs.
    pub total_detections: u64,
    /// Device-outage bursts injected across all runs.
    pub total_degrades: u64,
    /// Failing seeds with their failures, in discovery order.
    pub failures: Vec<(u64, ScheduleFailure)>,
}

impl ExploreReport {
    /// Whether every run passed.
    pub fn all_passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl Explorer {
    /// The canonical schedule for `seed` under this explorer's
    /// configuration.
    pub fn schedule_for(&self, seed: u64) -> Schedule {
        if self.liveness {
            Schedule::generate_liveness(seed, self.config.hosts, self.steps_per_run)
        } else {
            Schedule::generate(seed, self.config.hosts, self.steps_per_run)
        }
    }

    /// Runs the canonical schedule of `seed`.
    ///
    /// # Errors
    ///
    /// Propagates the driver's [`ScheduleFailure`].
    pub fn run_seed(&self, seed: u64) -> Result<RunReport, ScheduleFailure> {
        sched::run(&self.config, &self.schedule_for(seed), &self.plan)
    }

    /// Runs `runs` schedules for seeds `base_seed..base_seed + runs`,
    /// collecting every failure (exploration does not stop at the
    /// first one).
    pub fn explore(&self, base_seed: u64, runs: usize) -> ExploreReport {
        let mut report = ExploreReport {
            runs,
            total_allocs: 0,
            total_crashes: 0,
            total_recoveries: 0,
            total_hangs: 0,
            total_detections: 0,
            total_degrades: 0,
            failures: Vec::new(),
        };
        for i in 0..runs {
            let seed = base_seed.wrapping_add(i as u64);
            match self.run_seed(seed) {
                Ok(r) => {
                    report.total_allocs += r.allocs;
                    report.total_crashes += r.crashes_fired;
                    report.total_recoveries += r.recoveries;
                    report.total_hangs += r.hangs;
                    report.total_detections += r.detections;
                    report.total_degrades += r.degrades;
                }
                Err(failure) => report.failures.push((seed, failure)),
            }
        }
        report
    }

    /// Whether `schedule` fails under this explorer's plan.
    pub fn fails(&self, schedule: &Schedule) -> bool {
        sched::run(&self.config, schedule, &self.plan).is_err()
    }

    /// Shrinks a failing schedule to a locally minimal reproducer:
    /// repeatedly removes chunks of steps (halving the chunk size down
    /// to single steps) as long as the remainder still fails. The
    /// result is 1-minimal — removing any single remaining step makes
    /// the failure disappear — and carries the original seed for
    /// provenance.
    ///
    /// Returns `schedule` unchanged if it does not fail to begin with.
    pub fn shrink(&self, schedule: &Schedule) -> Schedule {
        if !self.fails(schedule) {
            return schedule.clone();
        }
        let mut steps = schedule.steps.clone();
        let mut chunk = (steps.len() / 2).max(1);
        loop {
            let mut reduced = false;
            let mut start = 0;
            while start < steps.len() {
                let end = (start + chunk).min(steps.len());
                let mut candidate: Vec<_> = steps[..start].to_vec();
                candidate.extend_from_slice(&steps[end..]);
                if candidate.len() < steps.len()
                    && self.fails(&Schedule {
                        seed: schedule.seed,
                        hosts: schedule.hosts,
                        steps: candidate.clone(),
                    })
                {
                    steps = candidate;
                    reduced = true;
                    // Do not advance: the next chunk slid into `start`.
                } else {
                    start += chunk;
                }
            }
            if chunk == 1 && !reduced {
                break;
            }
            if !reduced {
                chunk = (chunk / 2).max(1);
            }
        }
        Schedule {
            seed: schedule.seed,
            hosts: schedule.hosts,
            steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_passes_without_faults() {
        let explorer = Explorer {
            steps_per_run: 25,
            ..Explorer::default()
        };
        let report = explorer.explore(1000, 8);
        assert!(
            report.all_passed(),
            "failures: {:?}",
            report.failures
        );
        assert!(report.total_allocs > 0);
    }

    #[test]
    fn liveness_campaign_passes_and_exercises_new_steps() {
        let explorer = Explorer {
            liveness: true,
            steps_per_run: 60,
            ..Explorer::default()
        };
        let report = explorer.explore(2000, 8);
        assert!(report.all_passed(), "failures: {:?}", report.failures);
        assert!(report.total_hangs > 0, "no heartbeat stops exercised");
        assert!(report.total_degrades > 0, "no device outages exercised");
        // Every hang must eventually be recovered (in-schedule adoption
        // or end-of-run cleanup), so recoveries bound hangs from above.
        assert!(report.total_recoveries >= report.total_hangs);
    }

    #[test]
    fn congested_campaign_matches_uncongested_outcomes() {
        // Fabric queueing reprices operations but reorders nothing: a
        // congested campaign must produce byte-identical run reports
        // (fingerprints hash outcomes and offsets, not latencies).
        let base = Explorer {
            steps_per_run: 25,
            ..Explorer::default()
        };
        let mut congested = base.clone();
        congested.config.fabric = Some(cxl_pod::FabricConfig::congested());
        for seed in 3000..3006u64 {
            let a = base.run_seed(seed).expect("uncongested seed passes");
            let b = congested.run_seed(seed).expect("congested seed passes");
            assert_eq!(a, b, "seed {seed} diverged under a congested fabric");
        }
    }

    #[test]
    fn shrink_keeps_non_failing_schedules_intact() {
        let explorer = Explorer {
            steps_per_run: 10,
            ..Explorer::default()
        };
        let schedule = explorer.schedule_for(5);
        let shrunk = explorer.shrink(&schedule);
        assert_eq!(schedule, shrunk);
    }

    #[test]
    fn shrink_reduces_synthetic_failures() {
        // A real failing workload: dropping every flush core 0 issues
        // leaves durable metadata stale, which the end-of-run invariant
        // check catches. Shrinking must keep a reproducer, drop the
        // noise steps, and end 1-minimal.
        use cxl_pod::fault::{FaultKind, FaultRule};
        let explorer = Explorer {
            plan: FaultPlan::of(vec![FaultRule::new(FaultKind::DropFlush).on_core(0)]),
            steps_per_run: 30,
            ..Explorer::default()
        };
        // Find a failing seed (with list sanitization in recovery the
        // allocator shrugs off most dropped flushes — and empty-slab
        // hysteresis removed most descriptor-rewrite flushes from the
        // local path — so scan wide; under 1% of seeds fail now).
        let seed = (0..300u64)
            .find(|&s| explorer.run_seed(s).is_err())
            .expect("dropping all core-0 flushes must corrupt some schedule");
        let schedule = explorer.schedule_for(seed);
        let shrunk = explorer.shrink(&schedule);
        assert!(explorer.fails(&shrunk), "shrunk schedule must still fail");
        assert!(shrunk.steps.len() <= schedule.steps.len());
        // 1-minimality: removing any single remaining step passes.
        for i in 0..shrunk.steps.len() {
            let mut steps = shrunk.steps.clone();
            steps.remove(i);
            let candidate = Schedule {
                seed,
                hosts: shrunk.hosts,
                steps,
            };
            assert!(
                !explorer.fails(&candidate),
                "shrunk schedule is not 1-minimal at step {i}: {:?}",
                shrunk.steps
            );
        }
    }
}
