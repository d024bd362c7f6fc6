//! Differential property test for the open-addressed cache model.
//!
//! The coherence simulation sits under *every* simulated memory access,
//! so its rewrite (map → open-addressed table, `coherence.rs`) must be
//! observably identical to the old implementation. The old model is kept
//! below as [`MapCacheModel`], used by nothing else; this test drives
//! random `load`/`store`/`flush`/`writeback`/`flush_all`/`discard_all`
//! sequences through both and demands identical results.
//!
//! Two regimes:
//!
//! * **Unbounded** caches are fully deterministic in both models, so the
//!   comparison is lockstep: every op's return value, every traffic
//!   counter, every residency bit, and the final durable memory must
//!   match exactly. The script runs three times ([`Scoping`]): every
//!   access taking the core's lock itself, a `CacheModel::scope` per
//!   access, and the whole script inside one scope — an op scope may
//!   change what an access costs the host and nothing else.
//! * **Bounded** caches evict — and the oracle picks its victim from
//!   `HashMap` iteration order, which is not reproducible — so lockstep
//!   comparison is meaningless there. But under the allocator's
//!   single-writer layout discipline (each core dirties only its own
//!   words, the property `DESIGN.md` §1 relies on) *every* eviction
//!   schedule must converge to the same durable memory once all cores
//!   quiesce. That convergence is the property the bounded test checks,
//!   against both the oracle and an independent last-write model.

use cxl_pod::coherence::CacheModel;
use cxl_pod::trace::TraceKind;
use cxl_pod::{Segment, CACHELINE as LINE};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::Ordering;

/// 8-byte words in a cache line.
const WORDS_PER_LINE: usize = (LINE / 8) as usize;

/// Line traffic: what [`CacheModel`] charges to its tracer's count
/// table, and what the reference counts by hand.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Traffic {
    line_fills: u64,
    writebacks: u64,
}

/// `model`'s line traffic, read off its count table.
fn traffic(model: &CacheModel) -> Traffic {
    let totals = model.tracer().counts().totals();
    Traffic {
        line_fills: totals.count(TraceKind::LineFill),
        writebacks: totals.count(TraceKind::Writeback),
    }
}

#[derive(Debug, Clone, Copy)]
struct CacheLine {
    words: [u64; WORDS_PER_LINE],
    dirty: u8,
}

#[derive(Debug, Default)]
struct CoreCache {
    lines: HashMap<u64, CacheLine>,
    seed: u64,
    counts: Traffic,
}

/// The previous `HashMap`-based cache model, kept as the *reference
/// semantics* of [`CacheModel`]: same operations, same return values,
/// its line traffic counted by hand.
#[derive(Debug)]
struct MapCacheModel {
    caches: Vec<Mutex<CoreCache>>,
    capacity: usize,
}

impl MapCacheModel {
    /// Creates unbounded caches for `cores` cores.
    fn new(cores: usize) -> Self {
        Self::with_capacity(cores, 0)
    }

    /// Creates caches holding at most `capacity` lines per core.
    fn with_capacity(cores: usize, capacity: usize) -> Self {
        MapCacheModel {
            caches: (0..cores)
                .map(|i| {
                    Mutex::new(CoreCache {
                        lines: HashMap::new(),
                        seed: 0x2545_F491_4F6C_DD1D ^ (i as u64 + 1),
                        counts: Traffic::default(),
                    })
                })
                .collect(),
            capacity,
        }
    }

    fn maybe_evict(&self, cache: &mut CoreCache, segment: &Segment) {
        if self.capacity == 0 || cache.lines.len() < self.capacity {
            return;
        }
        let mut x = cache.seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        cache.seed = x;
        let index = (x % cache.lines.len() as u64) as usize;
        let victim = *cache.lines.keys().nth(index).expect("nonempty");
        let line = cache.lines.remove(&victim).expect("key just observed");
        if line.dirty != 0 {
            for (i, &w) in line.words.iter().enumerate() {
                if line.dirty & (1 << i) != 0 {
                    segment
                        .atomic_u64(victim + i as u64 * 8)
                        .store(w, Ordering::Release);
                }
            }
            cache.counts.writebacks += 1;
        }
    }

    /// Cached load; returns `(value, hit)`.
    fn load(&self, core: usize, segment: &Segment, offset: u64) -> (u64, bool) {
        debug_assert_eq!(offset % 8, 0);
        let (line_addr, word) = split(offset);
        let mut cache = self.caches[core].lock();
        if let Some(&line) = cache.lines.get(&line_addr) {
            return (line.words[word], true);
        }
        self.maybe_evict(&mut cache, segment);
        let mut words = [0u64; WORDS_PER_LINE];
        for (i, w) in words.iter_mut().enumerate() {
            *w = segment
                .atomic_u64(line_addr + i as u64 * 8)
                .load(Ordering::Acquire);
        }
        cache.counts.line_fills += 1;
        let value = words[word];
        cache.lines.insert(line_addr, CacheLine { words, dirty: 0 });
        (value, false)
    }

    /// Cached store (write-allocate); returns `true` on a hit.
    fn store(&self, core: usize, segment: &Segment, offset: u64, value: u64) -> bool {
        debug_assert_eq!(offset % 8, 0);
        let (line_addr, word) = split(offset);
        let mut cache = self.caches[core].lock();
        let hit = cache.lines.contains_key(&line_addr);
        if !hit {
            self.maybe_evict(&mut cache, segment);
            cache.counts.line_fills += 1;
        }
        let line = cache.lines.entry(line_addr).or_insert_with(|| {
            let mut words = [0u64; WORDS_PER_LINE];
            for (i, w) in words.iter_mut().enumerate() {
                *w = segment
                    .atomic_u64(line_addr + i as u64 * 8)
                    .load(Ordering::Acquire);
            }
            CacheLine { words, dirty: 0 }
        });
        line.words[word] = value;
        line.dirty |= 1 << word;
        hit
    }

    /// Flushes every line intersecting the range; returns lines
    /// written back.
    fn flush(&self, core: usize, segment: &Segment, offset: u64, len: u64) -> usize {
        let first = offset & !(LINE - 1);
        let last = (offset + len.max(1) - 1) & !(LINE - 1);
        let mut cache = self.caches[core].lock();
        let mut written = 0;
        let mut line_addr = first;
        loop {
            if let Some(line) = cache.lines.remove(&line_addr) {
                if line.dirty != 0 {
                    for (i, &w) in line.words.iter().enumerate() {
                        if line.dirty & (1 << i) != 0 {
                            segment
                                .atomic_u64(line_addr + i as u64 * 8)
                                .store(w, Ordering::Release);
                        }
                    }
                    cache.counts.writebacks += 1;
                    written += 1;
                }
            }
            if line_addr == last {
                break;
            }
            line_addr += LINE;
        }
        written
    }

    /// Writes back dirty lines in the range without evicting them
    /// (clwb semantics); returns lines written back.
    fn writeback(&self, core: usize, segment: &Segment, offset: u64, len: u64) -> usize {
        let first = offset & !(LINE - 1);
        let last = (offset + len.max(1) - 1) & !(LINE - 1);
        let mut cache = self.caches[core].lock();
        let mut written = 0;
        let mut line_addr = first;
        loop {
            if let Some(line) = cache.lines.get_mut(&line_addr) {
                if line.dirty != 0 {
                    for (i, &w) in line.words.iter().enumerate() {
                        if line.dirty & (1 << i) != 0 {
                            segment
                                .atomic_u64(line_addr + i as u64 * 8)
                                .store(w, Ordering::Release);
                        }
                    }
                    line.dirty = 0;
                    cache.counts.writebacks += 1;
                    written += 1;
                }
            }
            if line_addr == last {
                break;
            }
            line_addr += LINE;
        }
        written
    }

    /// Writes back and drops every line in `core`'s cache.
    fn flush_all(&self, core: usize, segment: &Segment) {
        let mut cache = self.caches[core].lock();
        for (line_addr, line) in std::mem::take(&mut cache.lines) {
            if line.dirty != 0 {
                for (i, &w) in line.words.iter().enumerate() {
                    if line.dirty & (1 << i) != 0 {
                        segment
                            .atomic_u64(line_addr + i as u64 * 8)
                            .store(w, Ordering::Release);
                    }
                }
                cache.counts.writebacks += 1;
            }
        }
    }

    /// Traffic counted so far, summed over cores.
    fn counts(&self) -> Traffic {
        let mut total = Traffic::default();
        for cache in &self.caches {
            let counts = cache.lock().counts;
            total.line_fills += counts.line_fills;
            total.writebacks += counts.writebacks;
        }
        total
    }

    /// Drops every line without writing back.
    fn discard_all(&self, core: usize) {
        self.caches[core].lock().lines.clear();
    }

    /// Whether `core` caches the line containing `offset`.
    fn is_cached(&self, core: usize, offset: u64) -> bool {
        let (line_addr, _) = split(offset);
        self.caches[core].lock().lines.contains_key(&line_addr)
    }
}

#[inline]
fn split(offset: u64) -> (u64, usize) {
    (offset & !(LINE - 1), ((offset % LINE) / 8) as usize)
}

const CORES: usize = 3;
/// Cache lines in the test segment.
const LINES: u64 = 32;
/// 8-byte words in the test segment.
const WORDS: u64 = LINES * (LINE / 8);

#[derive(Debug, Clone, Copy)]
enum Op {
    Load { core: usize, off: u64 },
    Store { core: usize, off: u64, value: u64 },
    Flush { core: usize, off: u64, len: u64 },
    Writeback { core: usize, off: u64, len: u64 },
    FlushAll { core: usize },
    DiscardAll { core: usize },
}

impl Op {
    fn core(self) -> usize {
        match self {
            Op::Load { core, .. }
            | Op::Store { core, .. }
            | Op::Flush { core, .. }
            | Op::Writeback { core, .. }
            | Op::FlushAll { core }
            | Op::DiscardAll { core } => core,
        }
    }

    fn on_core(self, core: usize) -> Op {
        match self {
            Op::Load { off, .. } => Op::Load { core, off },
            Op::Store { off, value, .. } => Op::Store { core, off, value },
            Op::Flush { off, len, .. } => Op::Flush { core, off, len },
            Op::Writeback { off, len, .. } => Op::Writeback { core, off, len },
            Op::FlushAll { .. } => Op::FlushAll { core },
            Op::DiscardAll { .. } => Op::DiscardAll { core },
        }
    }
}

/// Where the lockstep run opens op scopes on the new model (the oracle
/// has none).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scoping {
    /// Nowhere: every access takes its core's lock itself.
    Unscoped,
    /// One scope on the op's core around each access.
    PerAccess,
    /// One scope around the whole script, which then runs on core 0
    /// only: a thread inside a scope may not touch another core's cache.
    WholeScript,
}

fn word_off() -> impl Strategy<Value = u64> {
    (0u64..WORDS).prop_map(|w| w * 8)
}

/// Unrestricted ops: any core may touch any word.
fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..CORES, word_off()).prop_map(|(core, off)| Op::Load { core, off }),
        4 => (0usize..CORES, word_off(), any::<u64>())
            .prop_map(|(core, off, value)| Op::Store { core, off, value }),
        2 => (0usize..CORES, word_off(), 1u64..4 * LINE)
            .prop_map(|(core, off, len)| Op::Flush { core, off, len }),
        2 => (0usize..CORES, word_off(), 1u64..4 * LINE)
            .prop_map(|(core, off, len)| Op::Writeback { core, off, len }),
        1 => (0usize..CORES).prop_map(|core| Op::FlushAll { core }),
        1 => (0usize..CORES).prop_map(|core| Op::DiscardAll { core }),
    ]
}

/// Single-writer ops: stores stay inside the issuing core's own word
/// range (loads and flushes may roam). `DiscardAll` is excluded — which
/// dirty words it loses depends on the resident set, and the two models
/// evict different victims.
fn single_writer_op() -> impl Strategy<Value = Op> {
    let per_core = WORDS / CORES as u64;
    prop_oneof![
        4 => (0usize..CORES, word_off()).prop_map(|(core, off)| Op::Load { core, off }),
        4 => (0usize..CORES, 0u64..per_core, any::<u64>()).prop_map(move |(core, w, value)| {
            Op::Store { core, off: (core as u64 * per_core + w) * 8, value }
        }),
        2 => (0usize..CORES, word_off(), 1u64..4 * LINE)
            .prop_map(|(core, off, len)| Op::Flush { core, off, len }),
        2 => (0usize..CORES, word_off(), 1u64..4 * LINE)
            .prop_map(|(core, off, len)| Op::Writeback { core, off, len }),
        1 => (0usize..CORES).prop_map(|core| Op::FlushAll { core }),
    ]
}

fn seeded_segment(init: &[u64]) -> Segment {
    let seg = Segment::zeroed(LINES * LINE).unwrap();
    for (w, &v) in init.iter().enumerate() {
        seg.atomic_u64(w as u64 * 8).store(v, Ordering::SeqCst);
    }
    seg
}

/// Runs `ops` through both models and demands identical results at
/// every step and identical residency and memory at the end.
fn lockstep(ops: &[Op], init: &[u64], scoping: Scoping) {
    let seg_new = seeded_segment(init);
    let seg_old = seeded_segment(init);
    let model_new = CacheModel::new(CORES);
    let model_old = MapCacheModel::new(CORES);

    let whole = (scoping == Scoping::WholeScript).then(|| model_new.scope(0));
    for (step, op) in ops.iter().enumerate() {
        let op = if whole.is_some() { op.on_core(0) } else { *op };
        let access = (scoping == Scoping::PerAccess).then(|| model_new.scope(op.core()));
        match op {
            Op::Load { core, off } => {
                prop_assert_eq!(
                    model_new.load(core, &seg_new, off),
                    model_old.load(core, &seg_old, off),
                    "load step {} ({:?})", step, op
                );
            }
            Op::Store { core, off, value } => {
                prop_assert_eq!(
                    model_new.store(core, &seg_new, off, value),
                    model_old.store(core, &seg_old, off, value),
                    "store step {} ({:?})", step, op
                );
            }
            Op::Flush { core, off, len } => {
                prop_assert_eq!(
                    model_new.flush(core, &seg_new, off, len),
                    model_old.flush(core, &seg_old, off, len),
                    "flush step {} ({:?})", step, op
                );
            }
            Op::Writeback { core, off, len } => {
                prop_assert_eq!(
                    model_new.writeback(core, &seg_new, off, len),
                    model_old.writeback(core, &seg_old, off, len),
                    "writeback step {} ({:?})", step, op
                );
            }
            Op::FlushAll { core } => {
                model_new.flush_all(core, &seg_new);
                model_old.flush_all(core, &seg_old);
            }
            Op::DiscardAll { core } => {
                model_new.discard_all(core);
                model_old.discard_all(core);
            }
        }
        drop(access);
        // `MapCacheModel::counts()` locks every core, so not from inside a scope.
        if whole.is_none() {
            prop_assert_eq!(
                traffic(&model_new), model_old.counts(),
                "counters diverged at step {} ({:?})", step, op
            );
        }
    }
    drop(whole);
    prop_assert_eq!(traffic(&model_new), model_old.counts(), "counters diverged ({:?})", scoping);

    // After the sequence: identical residency and identical durable
    // memory, word for word.
    for w in 0..WORDS {
        prop_assert_eq!(
            seg_new.peek_u64(w * 8), seg_old.peek_u64(w * 8),
            "durable word {} diverged", w
        );
        for core in 0..CORES {
            prop_assert_eq!(
                model_new.is_cached(core, w * 8),
                model_old.is_cached(core, w * 8),
                "residency of word {} on core {} diverged", w, core
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    #[test]
    fn unbounded_cache_matches_map_oracle_in_lockstep(
        ops in proptest::collection::vec(any_op(), 1..250),
        init in proptest::collection::vec(any::<u64>(), WORDS as usize..=WORDS as usize),
    ) {
        for scoping in [Scoping::Unscoped, Scoping::PerAccess, Scoping::WholeScript] {
            lockstep(&ops, &init, scoping);
        }
    }

    #[test]
    fn bounded_caches_quiesce_to_identical_memory(
        ops in proptest::collection::vec(single_writer_op(), 1..300),
        init in proptest::collection::vec(any::<u64>(), WORDS as usize..=WORDS as usize),
        capacity in 2usize..10,
    ) {
        let seg_new = seeded_segment(&init);
        let seg_old = seeded_segment(&init);
        let model_new = CacheModel::with_capacity(CORES, capacity);
        let model_old = MapCacheModel::with_capacity(CORES, capacity);

        // Independent last-write model: under single-writer stores the
        // quiesced value of each word is simply the last value stored to
        // it (or its initial value), no matter which victims either
        // cache evicted along the way.
        let mut expected = init.clone();

        for op in &ops {
            match *op {
                Op::Load { core, off } => {
                    // Loaded values may legitimately differ between the
                    // models mid-run: an eviction the oracle happened to
                    // take refreshes staleness at a different moment.
                    let _ = model_new.load(core, &seg_new, off);
                    let _ = model_old.load(core, &seg_old, off);
                }
                Op::Store { core, off, value } => {
                    model_new.store(core, &seg_new, off, value);
                    model_old.store(core, &seg_old, off, value);
                    expected[(off / 8) as usize] = value;
                }
                Op::Flush { core, off, len } => {
                    model_new.flush(core, &seg_new, off, len);
                    model_old.flush(core, &seg_old, off, len);
                }
                Op::Writeback { core, off, len } => {
                    model_new.writeback(core, &seg_new, off, len);
                    model_old.writeback(core, &seg_old, off, len);
                }
                Op::FlushAll { core } => {
                    model_new.flush_all(core, &seg_new);
                    model_old.flush_all(core, &seg_old);
                }
                Op::DiscardAll { .. } => unreachable!("excluded from single-writer ops"),
            }
        }

        // Quiesce every core, then all three memories must agree.
        for core in 0..CORES {
            model_new.flush_all(core, &seg_new);
            model_old.flush_all(core, &seg_old);
        }
        for w in 0..WORDS {
            prop_assert_eq!(
                seg_new.peek_u64(w * 8), expected[w as usize],
                "new model: quiesced word {} is not the last write", w
            );
            prop_assert_eq!(
                seg_old.peek_u64(w * 8), expected[w as usize],
                "oracle: quiesced word {} is not the last write", w
            );
        }
    }
}
