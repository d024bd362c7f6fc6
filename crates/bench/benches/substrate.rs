//! Criterion benchmarks of the substrate primitives: detectable CAS vs
//! plain CAS, the NMP mCAS device, the coherence simulation, hash-table
//! operations, the dereference hit path, and workload generation.
//! Bodies live in `cxl_bench::groups` so `bench-snapshot` can run the
//! same groups.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::groups;

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = groups::bench_cas, groups::bench_nmp, groups::bench_swcc_substrate,
        groups::bench_cell_codecs, groups::bench_liveness, groups::bench_kvstore,
        groups::bench_deref, groups::bench_workloads
}
criterion_main!(benches);
