//! Runs rounds of a workload and folds them into the metrics of a run:
//! the fastest observation of each piece of host-timed work, and
//! bit-identical-or-fail for everything that does not read the clock.

use crate::host::{self, TickClock};
use crate::report::{self, json_number, json_string, Outcome, Values, END_TO_END, PER_LAYER};
use crate::stats::{best_of_rounds, exact_across_rounds, percentile, Better, Rounds};
use crate::trace::{self, Overhead, Recording};
use crate::workloads::{self, Env, Round, Timing};
use crate::Args;
use cxl_core::AttachOptions;
use std::time::{Duration, Instant};

/// Rounds a run makes however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// A traced run: this many untraced rounds for reference, then as many
/// traced.
const TRACED_ROUNDS: usize = 3;

/// Builds the environment of a run. `serve_1w` runs a coordinator and a
/// worker process, one per CPU; every other workload is one thread,
/// pinned.
pub fn env(workload: &str, args: &Args, options: AttachOptions, value_scale: u16) -> Env {
    if workload != "serve_1w" {
        host::pin_current_thread();
    }
    let clock = TickClock::calibrate();
    Env {
        seed: args.seed,
        clock,
        overhead: if args.traced {
            trace::calibrate(&clock)
        } else {
            Overhead {
                floor_ns: clock.floor_ns,
                per_child_ns: 0.0,
            }
        },
        options,
        value_scale,
        out_dir: args.out_dir.clone(),
    }
}

/// The host-time metrics of one round, or of a whole run.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    pub ops_per_s: f64,
    pub op_p50_ns: f64,
    pub op_p99_ns: f64,
    pub setup_s: f64,
    /// Individually timed ops slower than `op_p99_ns`.
    pub beyond_p99: u64,
}

/// The rounds of a run, folded.
///
/// This box can slow a piece of work down (a neighbour on the memory
/// system, a hypervisor pause) but never speed it up, and every round
/// replays the same script from the same state. So the run keeps, for
/// each chunk of the rate pass and for each individually timed op, the
/// *fastest round's* time: `ops_per_s` is the pass's ops over the sum
/// of its chunks' best times, and the percentiles are taken over the
/// ops' best times. A burst that hits one round costs that round one
/// chunk, not the run its best pass. What the program reports itself
/// (`serve_1w`) and `setup_s` fold as the best round.
#[derive(Debug, Default)]
pub struct Fold {
    rate_ops: u64,
    chunks: Vec<u64>,
    latency: Vec<u64>,
    reported: Option<HostTimes>,
    setup_s: f64,
    /// Each round on its own, for the spread printed beside the result.
    pub rounds: Vec<HostTimes>,
}

fn percentiles(samples: &[u64], clock: &TickClock) -> (f64, f64, u64) {
    if samples.is_empty() {
        return (0.0, 0.0, 0);
    }
    let mut sorted = samples.to_vec();
    let p50 = percentile(&mut sorted, 0.50);
    let p99 = percentile(&mut sorted, 0.99);
    let beyond = samples.iter().filter(|&&s| s > p99).count() as u64;
    (clock.ns(p50), clock.ns(p99), beyond)
}

fn min_into(best: &mut Vec<u64>, round: &[u64]) {
    if best.is_empty() {
        best.extend_from_slice(round);
    } else {
        // Rounds are identical replays: the same chunks, the same ops.
        for (best, &new) in best.iter_mut().zip(round) {
            *best = (*best).min(new);
        }
    }
}

impl Fold {
    pub fn add(&mut self, round: &Round, clock: &TickClock) {
        self.setup_s = if self.rounds.is_empty() {
            round.setup_s
        } else {
            self.setup_s.min(round.setup_s)
        };
        let times = match &round.timing {
            Timing::Ticks {
                rate_ops,
                chunks,
                latency,
            } => {
                self.rate_ops = *rate_ops;
                min_into(&mut self.chunks, chunks);
                min_into(&mut self.latency, latency);
                let (op_p50_ns, op_p99_ns, beyond_p99) = percentiles(latency, clock);
                HostTimes {
                    ops_per_s: *rate_ops as f64 * 1e9 / clock.ns(chunks.iter().sum()).max(1.0),
                    op_p50_ns,
                    op_p99_ns,
                    setup_s: round.setup_s,
                    beyond_p99,
                }
            }
            &Timing::Reported {
                ops_per_s,
                op_p50_ns,
                op_p99_ns,
                beyond_p99,
            } => {
                let best = self.reported.get_or_insert(HostTimes {
                    ops_per_s,
                    op_p50_ns,
                    op_p99_ns,
                    ..HostTimes::default()
                });
                best.ops_per_s = best.ops_per_s.max(ops_per_s);
                best.op_p50_ns = best.op_p50_ns.min(op_p50_ns);
                best.op_p99_ns = best.op_p99_ns.min(op_p99_ns);
                best.beyond_p99 = beyond_p99;
                HostTimes {
                    ops_per_s,
                    op_p50_ns,
                    op_p99_ns,
                    setup_s: round.setup_s,
                    beyond_p99,
                }
            }
        };
        self.rounds.push(times);
    }

    /// The run's host-time metrics.
    pub fn best(&self, clock: &TickClock) -> HostTimes {
        if let Some(reported) = self.reported {
            return HostTimes {
                setup_s: self.setup_s,
                ..reported
            };
        }
        let (op_p50_ns, op_p99_ns, beyond_p99) = percentiles(&self.latency, clock);
        HostTimes {
            ops_per_s: self.rate_ops as f64 * 1e9 / clock.ns(self.chunks.iter().sum()).max(1.0),
            op_p50_ns,
            op_p99_ns,
            setup_s: self.setup_s,
            beyond_p99,
        }
    }

    /// How the single rounds were distributed, per metric.
    fn spread(&self) -> Vec<(&'static str, Rounds)> {
        let column = |f: fn(&HostTimes) -> f64| self.rounds.iter().map(f).collect::<Vec<f64>>();
        vec![
            (
                "ops_per_s",
                best_of_rounds(&column(|r| r.ops_per_s), Better::Higher),
            ),
            (
                "op_p50_ns",
                best_of_rounds(&column(|r| r.op_p50_ns), Better::Lower),
            ),
            (
                "op_p99_ns",
                best_of_rounds(&column(|r| r.op_p99_ns), Better::Lower),
            ),
            (
                "setup_s",
                best_of_rounds(&column(|r| r.setup_s), Better::Lower),
            ),
        ]
    }
}

/// Checks every exact value across the rounds that report it.
fn exact_metrics(rounds: &[Round], errors: &mut Vec<String>) -> Values {
    let mut names: Vec<&'static str> = rounds
        .iter()
        .flat_map(|r| r.exact.keys().copied())
        .collect();
    names.sort_unstable();
    names.dedup();
    let mut out = Values::new();
    for name in names {
        let values: Vec<f64> = rounds
            .iter()
            .filter_map(|r| r.exact.get(name).copied())
            .collect();
        match exact_across_rounds(name, &values) {
            Ok(value) => {
                out.insert(name, value);
            }
            Err(e) => errors.push(e),
        }
    }
    out
}

/// Ops attempted, and failed: an op that failed, or any op of a round
/// whose correctness check failed.
fn count_ops(rounds: &[Round], errors: &mut Vec<String>) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for (index, round) in rounds.iter().enumerate() {
        attempted += round.ops;
        match &round.check {
            Ok(()) => failed += round.failed,
            Err(e) => {
                failed += round.ops;
                errors.push(format!("round {index}: {e}"));
            }
        }
    }
    (attempted, failed)
}

/// Prints what the result line leaves out: which run this was, on what
/// machine, and how the single rounds were distributed.
fn print_detail(workload: &str, args: &Args, rounds: &[Round], fold: &Fold) {
    let spread: Vec<String> = fold
        .spread()
        .iter()
        .map(|(name, r)| {
            format!(
                "{}: {{\"best\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"worst\": {}}}",
                json_string(name),
                json_number(r.best),
                json_number(r.q1),
                json_number(r.median),
                json_number(r.q3),
                json_number(r.worst)
            )
        })
        .collect();
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"rounds\": {}, \"ops_per_round\": {}, \
         \"machine\": {}, \"single_rounds\": {{{}}}}}",
        json_string(workload),
        args.seed,
        args.traced,
        rounds.len(),
        rounds.first().map_or(0, |r| r.ops),
        host::machine_json(),
        spread.join(", "),
    );
}

/// The untraced run: rounds until `--seconds` have passed.
fn end_to_end(workload: &'static str, args: &Args) -> Outcome {
    let env = env(workload, args, AttachOptions::default(), 1);
    let mut built = workloads::build(workload, &env).expect("the name was checked when parsed");
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = Vec::new();
    let mut fold = Fold::default();
    while rounds.len() < MIN_ROUNDS || Instant::now() < deadline {
        let round = built.round(false);
        fold.add(&round, &env.clock);
        rounds.push(round);
    }

    let mut errors = Vec::new();
    let (attempted, failed) = count_ops(&rounds, &mut errors);
    let mut metrics = exact_metrics(&rounds, &mut errors);
    let best = fold.best(&env.clock);
    metrics.insert("ops_per_s", best.ops_per_s);
    metrics.insert("op_p50_ns", best.op_p50_ns);
    metrics.insert("op_p99_ns", best.op_p99_ns);
    metrics.insert("setup_s", best.setup_s);
    print_detail(workload, args, &rounds, &fold);
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
    }
}

/// The traced run: reference rounds without spans, then rounds with.
fn per_layer(workload: &'static str, args: &Args) -> Outcome {
    let steal_before = host::cpu_jiffies();
    let env = env(workload, args, AttachOptions::default(), 1);
    let mut built = workloads::build(workload, &env).expect("the name was checked when parsed");
    let (mut reference, mut traced) = (Fold::default(), Fold::default());
    let mut rounds = Vec::new();
    for (fold, spans) in [(&mut reference, false), (&mut traced, true)] {
        for _ in 0..TRACED_ROUNDS {
            let round = built.round(spans);
            fold.add(&round, &env.clock);
            rounds.push(round);
        }
    }

    let mut errors = Vec::new();
    let (attempted, failed) = count_ops(&rounds, &mut errors);
    let mut metrics = built.built();
    metrics.extend(exact_metrics(&rounds, &mut errors));

    // Host-time layer values: the mean over the rounds that report them.
    let mut sums: std::collections::BTreeMap<&'static str, (f64, u32)> = Default::default();
    for (name, value) in rounds.iter().flat_map(|r| r.layer.iter()) {
        let cell = sums.entry(name).or_default();
        cell.0 += value;
        cell.1 += 1;
    }
    metrics.extend(
        sums.into_iter()
            .map(|(name, (sum, n))| (name, sum / n as f64)),
    );

    let best = reference.best(&env.clock);
    let single = reference.spread();
    metrics.insert("bench.clock_floor_ns", env.clock.floor_ns);
    metrics.insert(
        "bench.span_overhead_ns_per_op",
        (1e9 / traced.best(&env.clock).ops_per_s - 1e9 / best.ops_per_s).max(0.0),
    );
    metrics.insert("bench.round_spread", single[0].1.best / single[0].1.worst);
    metrics.insert("bench.steal_pct", host::steal_pct_since(steal_before));
    metrics.insert("bench.rounds", rounds.len() as f64);
    metrics.insert("bench.ops_per_round", rounds[0].ops as f64);
    metrics.insert("bench.samples_beyond_p99", best.beyond_p99 as f64);

    let mut recording = Recording::default();
    for round in &mut rounds {
        if let Some(rec) = round.recording.take() {
            recording.merge(rec);
        }
    }
    if let Err(e) = trace::check_nesting(&recording) {
        errors.push(e);
    }
    let path = args.out_dir.join(format!("trace-{workload}.json"));
    if let Err(e) = trace::write_file(
        &path,
        workload,
        &host::machine_json(),
        &env.clock,
        env.overhead,
        &recording,
        &metrics,
    ) {
        errors.push(format!("write {}: {e}", path.display()));
    }
    print_detail(workload, args, &rounds, &reference);
    Outcome {
        correct: errors.is_empty(),
        attempted,
        failed,
        metrics,
        errors,
    }
}

/// `pod-bench run`: one workload, or all five in turn. The last line of
/// standard output is the (last) workload's result object; the exit
/// code is non-zero if any check failed.
pub fn main(args: &Args) -> i32 {
    workloads::crash_recover::silence_crash_signals();
    let selected: Vec<&'static str> = report::WORKLOADS
        .into_iter()
        .filter(|w| args.workload.as_deref().is_none_or(|only| only == *w))
        .collect();
    let mut code = 0;
    for workload in selected {
        let (outcome, schema) = if args.traced {
            (per_layer(workload, args), &PER_LAYER[..])
        } else {
            (end_to_end(workload, args), &END_TO_END[..])
        };
        for error in &outcome.errors {
            eprintln!("pod-bench: {workload}: {error}");
        }
        if !outcome.correct {
            code = 1;
        }
        println!("{}", outcome.result_line(schema));
    }
    code
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: TickClock = TickClock {
        ns_per_tick: 1.0,
        floor_ns: 0.0,
    };

    fn round(chunks: &[u64], latency: &[u64], setup_s: f64) -> Round {
        Round {
            setup_s,
            timing: Timing::Ticks {
                rate_ops: 100,
                chunks: chunks.to_vec(),
                latency: latency.to_vec(),
            },
            ..Round::default()
        }
    }

    #[test]
    fn fold_keeps_the_fastest_round_of_each_chunk_and_op() {
        let mut fold = Fold::default();
        // Round 0 is disturbed in its second chunk and its third op,
        // round 1 in its first chunk and its first op.
        fold.add(&round(&[500, 900], &[10, 20, 90, 40], 0.3), &CLOCK);
        fold.add(&round(&[800, 500], &[70, 20, 30, 40], 0.2), &CLOCK);
        let best = fold.best(&CLOCK);
        // 100 ops in 500 + 500 ns: faster than either round (1400, 1300).
        assert_eq!(best.ops_per_s, 100.0 * 1e9 / 1000.0);
        assert_eq!((best.op_p50_ns, best.op_p99_ns), (20.0, 40.0));
        assert_eq!(best.setup_s, 0.2);
        assert_eq!(fold.rounds.len(), 2);
        assert_eq!(fold.rounds[0].ops_per_s, 100.0 * 1e9 / 1400.0);
        assert_eq!(fold.rounds[0].op_p99_ns, 90.0);
    }

    #[test]
    fn fold_takes_the_best_round_of_what_the_program_reports() {
        let reported = |ops_per_s, op_p50_ns, op_p99_ns| Round {
            setup_s: 0.01,
            timing: Timing::Reported {
                ops_per_s,
                op_p50_ns,
                op_p99_ns,
                beyond_p99: 5,
            },
            ..Round::default()
        };
        let mut fold = Fold::default();
        fold.add(&reported(4e6, 60.0, 500.0), &CLOCK);
        fold.add(&reported(5e6, 62.0, 490.0), &CLOCK);
        let best = fold.best(&CLOCK);
        assert_eq!(
            (best.ops_per_s, best.op_p50_ns, best.op_p99_ns),
            (5e6, 60.0, 490.0)
        );
        assert_eq!(best.setup_s, 0.01);
    }

    #[test]
    fn a_failed_check_fails_every_op_of_its_round() {
        let mut bad = round(&[1], &[1], 0.0);
        bad.ops = 50;
        bad.check = Err("census and ledger differ".into());
        let mut good = round(&[1], &[1], 0.0);
        good.ops = 50;
        good.failed = 2;
        let mut errors = Vec::new();
        assert_eq!(count_ops(&[good, bad], &mut errors), (100, 52));
        assert_eq!(errors.len(), 1);
    }

    #[test]
    fn exact_values_must_agree_across_rounds() {
        let with = |v: f64| {
            let mut r = round(&[1], &[1], 0.0);
            r.exact.insert("heap_bytes_per_live_byte", v);
            r
        };
        let mut errors = Vec::new();
        let same = exact_metrics(&[with(1.5), with(1.5)], &mut errors);
        assert_eq!(same["heap_bytes_per_live_byte"], 1.5);
        assert!(errors.is_empty());
        exact_metrics(&[with(1.5), with(1.25)], &mut errors);
        assert_eq!(errors.len(), 1);
    }
}
