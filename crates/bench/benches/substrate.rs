//! Criterion benchmarks of the substrate primitives: the slab free-bit
//! scan, detectable CAS vs plain CAS, the NMP mCAS device, the
//! coherence simulation, liveness, and the dereference hit path. The
//! list is `cxl_bench::groups::substrate`.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::groups;

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = groups::substrate
}
criterion_main!(benches);
