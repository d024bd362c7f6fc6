//! The clock-ordered driver every modeled multi-host number runs on.
//!
//! N simulated hosts share one simulated pod and one OS thread. The
//! driver gives the next operation to the unfinished host whose core
//! clock ([`PodMemory::virtual_ns`]) is earliest, ties to the lower
//! index, so issue order is decided by virtual time — as in CXLMemSim
//! and CXL-DMSim — and not by the OS scheduler or a loop over hosts.
//! Operations stay atomic; contention comes from the resource clocks of
//! lines, fabric stations and the NMP, which charge in virtual time.
//! Every modeled number is therefore a pure function of the code.

use cxl_pod::{CoreId, PodMemory};

/// The virtual time one or more driver runs took.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// Advance of the latest host clock: the makespan.
    pub makespan_ns: u64,
    /// Sum of every host's clock advance: the modeled latency of all
    /// the span's operations together.
    pub sum_ns: u64,
}

impl std::ops::AddAssign for Span {
    fn add_assign(&mut self, other: Span) {
        self.makespan_ns += other.makespan_ns;
        self.sum_ns += other.sum_ns;
    }
}

/// What a host's step did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Turn {
    /// Issued one operation.
    Ran,
    /// Nothing to do until another host's step changes something; the
    /// host sits out (its clock stands still) until one does.
    Wait,
    /// Nothing left to do: the host leaves the rotation.
    Done,
}

/// Runs `step(host)` on the host with the earliest clock among those on
/// `cores` that are neither done nor waiting, until every host is done.
/// Run once per phase, a call is a barrier: every host's steps of one
/// call issue before any step of the next.
///
/// # Panics
///
/// If every host that is not done waits.
pub fn run(mem: &dyn PodMemory, cores: &[CoreId], mut step: impl FnMut(usize) -> Turn) -> Span {
    let clock = |host: usize| mem.virtual_ns(cores[host]);
    let start: Vec<u64> = (0..cores.len()).map(clock).collect();
    let mut live: Vec<usize> = (0..cores.len()).collect();
    let mut waiting = vec![false; cores.len()];
    while !live.is_empty() {
        // `min_by_key` keeps the first of equal keys: the lower index.
        let i = (0..live.len())
            .filter(|&i| !waiting[live[i]])
            .min_by_key(|&i| clock(live[i]))
            .expect("every unfinished host waits on another");
        match step(live[i]) {
            Turn::Wait => waiting[live[i]] = true,
            turn => {
                if turn == Turn::Done {
                    live.remove(i);
                }
                waiting.fill(false);
            }
        }
    }
    let end: Vec<u64> = (0..cores.len()).map(clock).collect();
    Span {
        makespan_ns: end.iter().max().unwrap_or(&0) - start.iter().max().unwrap_or(&0),
        sum_ns: end.iter().zip(&start).map(|(e, s)| e - s).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{HwccMode, Pod, PodConfig};

    /// A fresh simulated pod's memory: every clock at 0.
    fn sim() -> std::sync::Arc<dyn PodMemory> {
        Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited)
            .expect("test pod")
            .memory()
            .clone()
    }

    /// Charges `ns` to `core` with uncached loads of a HWcc cell.
    fn charge(mem: &dyn PodMemory, core: CoreId, ns: u64) {
        let cell = mem.layout().small.hwcc_desc_at(0);
        let target = mem.virtual_ns(core) + ns;
        while mem.virtual_ns(core) < target {
            mem.load_u64(core, cell);
        }
    }

    /// The host order of one step per host.
    fn issue_order(mem: &dyn PodMemory, cores: &[CoreId]) -> Vec<usize> {
        let mut order = Vec::new();
        run(mem, cores, |h| {
            if order.contains(&h) {
                return Turn::Done;
            }
            order.push(h);
            Turn::Ran
        });
        order
    }

    #[test]
    fn the_earliest_clock_wins_and_a_tie_goes_to_the_lower_index() {
        let cores = [CoreId(0), CoreId(1), CoreId(2)];
        assert_eq!(issue_order(sim().as_ref(), &cores), [0, 1, 2]);
        let mem = sim();
        charge(mem.as_ref(), CoreId(0), 5_000);
        charge(mem.as_ref(), CoreId(2), 1);
        assert_eq!(issue_order(mem.as_ref(), &cores), [1, 2, 0]);
    }

    #[test]
    fn a_finished_host_leaves_and_a_zero_cost_host_still_finishes() {
        let mem = sim();
        let mut calls = [0u32; 2];
        let span = run(mem.as_ref(), &[CoreId(0), CoreId(1)], |h| {
            calls[h] += 1;
            // Host 0's ten steps cost nothing, so it stays earliest (and
            // wins the tie) until it is done; host 1 has three.
            let steps = [10, 3][h];
            if calls[h] > steps {
                return Turn::Done;
            }
            if h == 1 {
                charge(mem.as_ref(), CoreId(1), 100);
            }
            Turn::Ran
        });
        // Each is asked once past its last step, then never again.
        assert_eq!(calls, [11, 4]);
        let charged = mem.virtual_ns(CoreId(1));
        assert_eq!(span, Span { makespan_ns: charged, sum_ns: charged });
    }

    #[test]
    fn a_span_is_the_latest_clocks_advance_and_every_clocks_sum() {
        let mem = sim();
        let cores = [CoreId(0), CoreId(1)];
        charge(mem.as_ref(), CoreId(1), 500);
        let clocks = || cores.map(|c| mem.virtual_ns(c));
        let before = clocks();
        let mut left = [1, 1];
        let span = run(mem.as_ref(), &cores, |h| {
            if left[h] == 0 {
                return Turn::Done;
            }
            left[h] -= 1;
            charge(mem.as_ref(), cores[h], 1_000);
            Turn::Ran
        });
        let after = clocks();
        assert_eq!(span.makespan_ns, after[1] - before[1]);
        assert_eq!(span.sum_ns, after[0] - before[0] + after[1] - before[1]);
    }

    #[test]
    fn a_waiting_host_sits_out_until_another_host_runs() {
        let mem = sim();
        let mut order = Vec::new();
        let mut sent = 0;
        run(mem.as_ref(), &[CoreId(0), CoreId(1)], |h| {
            order.push(h);
            match h {
                // Host 0 (earliest, lowest) consumes what host 1 sends.
                0 if sent == 0 => Turn::Wait,
                0 => Turn::Done,
                _ if sent == 0 => {
                    charge(mem.as_ref(), CoreId(1), 100);
                    sent = 1;
                    Turn::Ran
                }
                _ => Turn::Done,
            }
        });
        assert_eq!(order, [0, 1, 0, 1]);
    }
}
