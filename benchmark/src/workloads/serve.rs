//! `serve_1w`: a KV op served by a real worker process.
//!
//! `cxl-serve`'s coordinator runs in this process and spawns one worker
//! (`pod-bench worker …`, which is `cxl_serve::main_from_args`) over a
//! `MAP_SHARED` segment file: ledger cell, `alloc_detectable`,
//! heartbeat — the only workload that draws its ops inline, as a user
//! of `serve` gets them. One worker because two busy processes plus the
//! coordinator oversubscribe a 2-vCPU box.
//!
//! The worker records latency in log2 buckets, so the report's own
//! p50/p99 are bucket bounds that read the same on every run; the
//! end-to-end percentiles interpolate the rank inside its bucket.

use super::{heap_exact, per_op_ns, Env, Round, Timing, Workload};
use crate::report::Values;
use crate::stats::log2_hist_quantile;
use cxl_core::{AttachOptions, Cxlalloc};
use cxl_pod::Pod;
use cxl_serve::coordinator::{self, RunArgs};
use cxl_serve::{rpc, worker};
use rand::{rngs::StdRng, SeedableRng};
use std::time::Instant;

/// Ops the worker serves per round (~0.45 s).
const TARGET_OPS: u64 = 2_000_000;

/// Keys (ledger cells) of the worker. With `serve`'s default of 2048
/// the number of keys live when the run ends, and with it the heap
/// ratio, swings by ±4 % with the seed; with 8192 by ±1 %.
const LEDGER_CAP: u64 = 8192;

pub struct Serve {
    env: Env,
    built: Values,
}

impl Serve {
    pub fn new(env: &Env) -> Self {
        // What drawing ops inline costs the worker: the same stream it
        // draws from, timed on its own.
        let spec = worker::spec_by_id(0, LEDGER_CAP);
        let mut stream = workloads::OpStream::new(spec, StdRng::seed_from_u64(env.seed));
        const DRAWS: usize = 1_000_000;
        let start = Instant::now();
        for _ in 0..DRAWS {
            std::hint::black_box(stream.next_op());
        }
        let mut built = Values::new();
        built.insert("workloads.gen_ns_per_op", per_op_ns(start, DRAWS));
        Serve {
            env: env.clone(),
            built,
        }
    }
}

impl Workload for Serve {
    fn round(&mut self, _traced: bool) -> Round {
        let mut round = Round::default();
        if let Err(e) = std::fs::create_dir_all(&self.env.out_dir) {
            round.check = Err(format!("create {}: {e}", self.env.out_dir.display()));
            return round;
        }
        let args = RunArgs {
            file: self
                .env
                .out_dir
                .join(format!("serve-{}.seg", std::process::id())),
            workers: 1,
            ledger_cap: LEDGER_CAP,
            target_ops: TARGET_OPS,
            spec: 0,
            seed: self.env.seed,
            // The heap is read back from the file below.
            keep_file: true,
            ..RunArgs::default()
        };
        let start = Instant::now();
        let outcome = coordinator::run(&args);
        let wall_s = start.elapsed().as_secs_f64();
        let report = match outcome {
            Ok(report) => report,
            Err(e) => {
                let _ = std::fs::remove_file(&args.file);
                round.ops = TARGET_OPS;
                round.failed = TARGET_OPS;
                round.check = Err(format!("coordinator: {e}"));
                return round;
            }
        };

        // Everything `run` did besides serving: segment, spawn, hello,
        // stop, reap, audit.
        round.setup_s = wall_s - report.elapsed_secs;
        round.ops = report.total_ops;
        let hists: Vec<_> = report.workers.iter().map(|w| w.hist).collect();
        let hist = rpc::merge_hists(&hists);
        let p99_bucket = rpc::quantile_ns(&hist, 0.99);
        round.timing = Timing::Reported {
            ops_per_s: report.ops_per_sec(),
            op_p50_ns: log2_hist_quantile(&hist, 0.50),
            op_p99_ns: log2_hist_quantile(&hist, 0.99),
            beyond_p99: hist
                .iter()
                .enumerate()
                .filter(|&(bucket, _)| (1u64 << bucket) > p99_bucket)
                .map(|(_, &count)| count)
                .sum(),
        };

        let layer = &mut round.layer;
        layer.insert("serve.spawn_audit_s", round.setup_s);
        layer.insert("serve.report_p50_ns", report.quantile_ns(0.50) as f64);
        layer.insert("serve.report_p99_ns", p99_bucket as f64);
        round.exact.insert(
            "serve.heartbeats",
            (report.total_ops / args.hb_every.max(1)) as f64,
        );
        round.exact.insert("serve.timeouts", report.timeouts as f64);

        // Every block the spec inserts has one size, so the bytes live
        // at the end are the audited block count times that size.
        let spec = worker::spec_by_id(args.spec, args.ledger_cap);
        let entry_bytes = (spec.key_size.max() + spec.value_size.max()) as u64;
        let heap = Pod::open_shared(
            args.config.clone(),
            &args.file,
            rpc::tail_bytes(args.workers, args.ledger_cap),
        )
        .map_err(|e| e.to_string())
        .and_then(|pod| {
            Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())
                .map_err(|e| e.to_string())
        });
        let _ = std::fs::remove_file(&args.file);
        round.check = match heap {
            Ok(heap) => {
                heap_exact(
                    &mut round.exact,
                    &heap.stats(),
                    report.audit.census_live * entry_bytes,
                );
                if report.is_clean() {
                    Ok(())
                } else {
                    Err(format!(
                        "audit: {} lost, {} phantom, {} duplicate blocks, invariants: {}",
                        report.audit.lost.len(),
                        report.audit.phantom.len(),
                        report.audit.duplicates.len(),
                        report.audit.invariants
                    ))
                }
            }
            Err(e) => Err(format!("reopen segment: {e}")),
        };
        if round.check.is_err() {
            round.failed = round.ops;
        }
        round
    }

    fn built(&self) -> Values {
        self.built.clone()
    }
}
