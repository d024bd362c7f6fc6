//! Criterion microbenchmarks of the allocator paths no `pod-bench`
//! workload exercises: alloc/free under fragmentation and over the
//! mCAS-only substrate, the remote-free publish path (threaded and in
//! isolation), and huge allocation. The list is
//! `cxl_bench::groups::alloc_paths`.

use criterion::{criterion_group, criterion_main, Criterion};
use cxl_bench::groups;

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = groups::alloc_paths
}
criterion_main!(benches);
