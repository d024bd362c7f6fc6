//! `kv_update` and `kv_read`: `kvstore` over cxlalloc on a raw pod.
//!
//! The same store, keys and preload; only the mix differs. `kv_update`
//! makes every second op an allocation plus an EBR-deferred free, so
//! the allocator carries a large share of each op. `kv_read` is 95 %
//! lookups, where `kvstore` and `resolve` do the work: an allocator
//! change must not move it, a `kvstore` change must.

use super::{core_layer, harness_ns_per_op, heap_exact, per_op_ns, pod_config, pod_exact};
use super::{span_self_mean_ns, timed_chunks};
use super::{Env, Round, Timing, Workload};
use crate::host::ticks;
use crate::report::Values;
use crate::script::{kv_script, KvKind, KvMix, KvOp, KvScript, KV_KEYS, KV_KEY_LEN};
use crate::trace::{self, Metered, Name};
use baselines::{CxlallocAdapter, PodAlloc, PodAllocThread};
use cxl_pod::{CoreId, Pod};
use kvstore::{KvStore, KvThread};
use std::hint::black_box;
use std::time::Instant;

/// One of the two KV workloads.
#[derive(Debug, Clone, Copy)]
pub struct Variant {
    insert_pct: u32,
    delete_pct: u32,
}

/// 50 % insert/replace, 25 % delete, 25 % read.
pub const UPDATE: Variant = Variant {
    insert_pct: 50,
    delete_pct: 25,
};
/// 95 % read, 5 % insert: the shape of YCSB-D.
pub const READ: Variant = Variant {
    insert_pct: 5,
    delete_pct: 0,
};

const BUCKETS: usize = 1 << 17;
const WARM_OPS: usize = 100_000;
const RATE_OPS: usize = 500_000;
/// The rate pass is timed in chunks of this many ops.
const CHUNK_OPS: usize = 10_000;
/// 10^6 individually timed ops leave 10^4 beyond p99.
const LATENCY_OPS: usize = 1_000_000;

pub struct Kv {
    env: Env,
    script: KvScript,
    samples: Vec<u64>,
    built: Values,
}

#[inline(always)]
fn apply(worker: &mut KvThread, op: &KvOp) -> bool {
    match op.kind {
        KvKind::Insert => worker
            .insert(op.key as u64, KV_KEY_LEN, op.value_len as u32)
            .is_ok(),
        KvKind::Delete => {
            black_box(worker.delete(op.key as u64));
            true
        }
        KvKind::Read => {
            black_box(worker.get(op.key as u64));
            true
        }
    }
}

impl Kv {
    pub fn new(env: &Env, variant: Variant) -> Self {
        let start = Instant::now();
        let script = kv_script(
            env.seed,
            KvMix {
                insert_pct: variant.insert_pct,
                delete_pct: variant.delete_pct,
                value_scale: env.value_scale,
            },
            WARM_OPS,
            RATE_OPS,
            LATENCY_OPS,
        );
        let mut built = Values::new();
        built.insert(
            "workloads.gen_ns_per_op",
            per_op_ns(start, WARM_OPS + RATE_OPS + LATENCY_OPS),
        );
        built.insert("bench.harness_ns_per_op", harness_ns_per_op(&script.rate));
        Kv {
            env: env.clone(),
            script,
            // Written once, so that no timed pass takes the buffer's page faults.
            samples: vec![1; LATENCY_OPS],
            built,
        }
    }

    fn check(
        &self,
        worker: &mut KvThread,
        store: &KvStore,
        adapter: &CxlallocAdapter,
        layer: &mut Values,
    ) -> Result<(), String> {
        for key in 0..KV_KEYS {
            let expect = self.script.expect[key as usize].map(u32::from);
            let got = worker.get(key as u64);
            if got != expect {
                return Err(format!(
                    "key {key}: store has {got:?}, script left {expect:?}"
                ));
            }
        }
        worker.drain_retired();
        let heap = &adapter.heaps()[0];
        let start = Instant::now();
        let census = heap.census(CoreId(0))?;
        layer.insert("core.census_ns", start.elapsed().as_nanos() as f64);
        if census.total() as u64 != store.len() {
            return Err(format!(
                "census counts {} blocks, the store holds {} entries",
                census.total(),
                store.len()
            ));
        }
        heap.check_invariants(CoreId(0))
    }
}

impl Workload for Kv {
    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let clock = self.env.clock;

        let setup = Instant::now();
        // Values reach 2 KiB in the sensitivity run: give both heaps room.
        let pod = Pod::new(pod_config(8192, 512)).expect("pod config is valid");
        let adapter = CxlallocAdapter::new(pod.clone(), 1, self.env.options.clone());
        let store = KvStore::new(BUCKETS, 1);
        let thread = adapter.thread().expect("a fresh pod has free thread slots");
        let thread: Box<dyn PodAllocThread> = if traced {
            Box::new(Metered::new(thread, clock))
        } else {
            thread
        };
        let mut worker = store.worker(thread);
        let mut failed = 0u64;
        for (key, &value_len) in self.script.preload.iter().enumerate() {
            failed += worker
                .insert(key as u64, KV_KEY_LEN, value_len as u32)
                .is_err() as u64;
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        for op in &self.script.warm {
            failed += !apply(&mut worker, op) as u64;
        }

        let before = pod.memory().stats();
        if traced {
            trace::start();
        }
        let chunks = timed_chunks(&self.script.rate, CHUNK_OPS, |id, op| {
            if !traced || !trace::begin_op(id as u64) {
                failed += !apply(&mut worker, op) as u64;
                return;
            }
            let t0 = ticks();
            failed += !apply(&mut worker, op) as u64;
            let t1 = ticks();
            let name = match op.kind {
                KvKind::Insert => Name::KvInsert,
                KvKind::Delete => Name::KvDelete,
                KvKind::Read => Name::KvGet,
            };
            trace::end_op(name, &clock, t0, t1);
        });
        let recording = traced.then(trace::stop);
        pod_exact(
            &mut round.exact,
            &pod.memory().stats().since(&before),
            RATE_OPS as u64,
        );

        self.samples.clear();
        for op in &self.script.latency {
            let t0 = ticks();
            failed += !apply(&mut worker, op) as u64;
            self.samples.push(ticks() - t0);
        }
        round.timing = Timing::Ticks {
            rate_ops: RATE_OPS as u64,
            chunks,
            latency: self.samples.clone(),
        };
        heap_exact(
            &mut round.exact,
            &adapter.heaps()[0].stats(),
            self.script.live_bytes,
        );

        round.ops = (RATE_OPS + LATENCY_OPS) as u64;
        round.failed = failed;
        round.check = self.check(&mut worker, &store, &adapter, &mut round.layer);
        if failed > 0 && round.check.is_ok() {
            round.check = Err(format!("{failed} inserts failed"));
        }

        if let Some(rec) = recording {
            let ops = [Name::KvGet, Name::KvInsert, Name::KvDelete];
            core_layer(&mut round.layer, &rec, &ops, &self.env);
            let layer = &mut round.layer;
            layer.insert(
                "kvstore.read_self_ns",
                span_self_mean_ns(rec.agg(Name::KvGet), &self.env),
            );
            layer.insert(
                "kvstore.update_self_ns",
                span_self_mean_ns(rec.agg(Name::KvInsert), &self.env),
            );
            layer.insert(
                "kvstore.delete_self_ns",
                span_self_mean_ns(rec.agg(Name::KvDelete), &self.env),
            );
            let per_op = |name: Name| rec.calls(name) as f64 / RATE_OPS as f64;
            // Counts, but of a traced round only: reported as layer values.
            layer.insert("kvstore.alloc_calls_per_op", per_op(Name::CoreAlloc));
            layer.insert("kvstore.dealloc_calls_per_op", per_op(Name::CoreDealloc));
            layer.insert("kvstore.resolve_calls_per_op", per_op(Name::CoreResolve));
            round.recording = Some(rec);
        }
        round
    }

    fn built(&self) -> Values {
        self.built.clone()
    }
}
