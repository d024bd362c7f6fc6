//! Op scripts, generated from the seed before anything is timed: the
//! program receives only generated inputs, and drawing a Zipfian key
//! costs more than the KV op it would drive.

use rand::{rngs::StdRng, Rng, SeedableRng};
use workloads::Zipfian;

/// Keys in the KV store, all preloaded.
pub const KV_KEYS: u32 = 1 << 16;
/// Key bytes stored with every entry.
pub const KV_KEY_LEN: u32 = 8;
/// `kvstore`'s entry header (next, key id, lengths).
pub const KV_ENTRY_HEADER: u64 = 24;
const KV_VALUE_MIN: u16 = 64;
const KV_VALUE_MAX: u16 = 960;

/// Distinct RNG streams per script, so changing one never shifts another.
fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvKind {
    Insert,
    Delete,
    Read,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KvOp {
    pub key: u32,
    pub value_len: u16,
    pub kind: KvKind,
}

/// Share of inserts and deletes, in percent; the rest are reads.
#[derive(Debug, Clone, Copy)]
pub struct KvMix {
    pub insert_pct: u32,
    pub delete_pct: u32,
    /// Multiplies every value size (the sensitivity run uses 2).
    pub value_scale: u16,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvScript {
    /// Value size of each key's preloaded entry.
    pub preload: Vec<u16>,
    /// Untimed ops that take the heap to its steady state.
    pub warm: Vec<KvOp>,
    /// The throughput pass.
    pub rate: Vec<KvOp>,
    /// The pass that times each op.
    pub latency: Vec<KvOp>,
    /// The value size `get` must return for each key once all three
    /// lists have run (a pure replay of the script).
    pub expect: Vec<Option<u16>>,
    /// Bytes the store requested for the entries live at that point.
    pub live_bytes: u64,
}

/// Zipfian(0.99) keys over [`KV_KEYS`], 8 B keys, uniform values.
pub fn kv_script(seed: u64, mix: KvMix, warm: usize, rate: usize, latency: usize) -> KvScript {
    let mut rng = rng(seed, 0x6b76);
    let zipf = Zipfian::ycsb(KV_KEYS as u64);
    let value = |rng: &mut StdRng| rng.gen_range(KV_VALUE_MIN..=KV_VALUE_MAX) * mix.value_scale;
    let preload: Vec<u16> = (0..KV_KEYS).map(|_| value(&mut rng)).collect();
    let mut expect: Vec<Option<u16>> = preload.iter().copied().map(Some).collect();
    let mut draw = |n: usize| -> Vec<KvOp> {
        (0..n)
            .map(|_| {
                let key = zipf.sample_scrambled(&mut rng) as u32;
                let roll = rng.gen_range(0..100u32);
                let (kind, value_len) = if roll < mix.insert_pct {
                    (KvKind::Insert, value(&mut rng))
                } else if roll < mix.insert_pct + mix.delete_pct {
                    (KvKind::Delete, 0)
                } else {
                    (KvKind::Read, 0)
                };
                match kind {
                    KvKind::Insert => expect[key as usize] = Some(value_len),
                    KvKind::Delete => expect[key as usize] = None,
                    KvKind::Read => {}
                }
                KvOp {
                    key,
                    value_len,
                    kind,
                }
            })
            .collect()
    };
    let (warm, rate, latency) = (draw(warm), draw(rate), draw(latency));
    let live_bytes = expect
        .iter()
        .flatten()
        .map(|&v| KV_ENTRY_HEADER + KV_KEY_LEN as u64 + v as u64)
        .sum();
    KvScript {
        preload,
        warm,
        rate,
        latency,
        expect,
        live_bytes,
    }
}

/// Blocks live at every op boundary of the allocator-only workloads.
pub const SIM_WINDOW: u32 = 1 << 16;
/// Remote frees arrive in bursts of this many.
pub const SIM_BURST: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimOp {
    /// The owner allocates `size` bytes into window slot `slot`.
    Alloc { slot: u32, size: u32 },
    /// The owner frees the block in `slot`.
    FreeLocal { slot: u32 },
    /// The other process's thread frees the block in `slot`.
    FreeRemote { slot: u32 },
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimScript {
    /// Size of each window slot's preloaded block.
    pub preload: Vec<u32>,
    pub warm: Vec<SimOp>,
    pub rate: Vec<SimOp>,
    pub latency: Vec<SimOp>,
    /// Requested bytes live once all three lists have run.
    pub live_bytes: u64,
    /// Frees in `rate` + `latency`, and how many of them are remote.
    pub frees: u64,
    pub remote_frees: u64,
}

/// 85 % small (8–1024 B), 15 % large (1–64 KiB).
fn sim_size(rng: &mut StdRng) -> u32 {
    if rng.gen_range(0..100u32) < 85 {
        rng.gen_range(8..=1024)
    } else {
        rng.gen_range(1025..=64 << 10)
    }
}

/// Bursts of [`SIM_BURST`] frees (30 % of bursts remote) each followed
/// by as many allocations into the freed slots, so the window stays
/// full at burst boundaries. Counts are rounded down to whole bursts.
pub fn sim_script(seed: u64, warm: usize, rate: usize, latency: usize) -> SimScript {
    let mut rng = rng(seed, 0x73696d);
    let mut sizes: Vec<u32> = (0..SIM_WINDOW).map(|_| sim_size(&mut rng)).collect();
    let preload = sizes.clone();
    let (mut frees, mut remote_frees) = (0u64, 0u64);
    let mut draw = |n: usize, counted: bool| -> Vec<SimOp> {
        let mut ops = Vec::with_capacity(n);
        for _ in 0..n / (2 * SIM_BURST) {
            let mut slots = [0u32; SIM_BURST];
            for i in 0..SIM_BURST {
                slots[i] = loop {
                    let s = rng.gen_range(0..SIM_WINDOW);
                    if !slots[..i].contains(&s) {
                        break s;
                    }
                };
            }
            let remote = rng.gen_range(0..100u32) < 30;
            for &slot in &slots {
                ops.push(if remote {
                    SimOp::FreeRemote { slot }
                } else {
                    SimOp::FreeLocal { slot }
                });
            }
            if counted {
                frees += SIM_BURST as u64;
                remote_frees += if remote { SIM_BURST as u64 } else { 0 };
            }
            for &slot in &slots {
                let size = sim_size(&mut rng);
                sizes[slot as usize] = size;
                ops.push(SimOp::Alloc { slot, size });
            }
        }
        ops
    };
    let (warm, rate, latency) = (draw(warm, false), draw(rate, true), draw(latency, true));
    SimScript {
        preload,
        warm,
        rate,
        latency,
        live_bytes: sizes.iter().map(|&s| s as u64).sum(),
        frees,
        remote_frees,
    }
}

/// Live blocks the crash workload preloads.
pub const CRASH_WINDOW: u32 = 200_000;
/// Alloc/free pairs a cycle runs at most before it gives up waiting
/// for its crash point.
pub const CRASH_PAIRS: usize = 300;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashCycle {
    /// Index into the workload's list of crash-point labels.
    pub label: usize,
    /// Times the point is passed before it fires.
    pub skip: u32,
    /// (window slot, new size): free the slot's block, allocate anew.
    pub pairs: Vec<(u32, u32)>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashScript {
    pub preload: Vec<u32>,
    pub cycles: Vec<CrashCycle>,
}

/// 97 % small (8–1024 B), 3 % large (1–8 KiB): both slab heaps' crash
/// points are reached while 200 000 live blocks stay near 100 MiB.
fn crash_size(rng: &mut StdRng) -> u32 {
    if rng.gen_range(0..100u32) < 97 {
        rng.gen_range(8..=1024)
    } else {
        rng.gen_range(1025..=8 << 10)
    }
}

/// Labels cycle in order; `skip` is seeded in 0..=4.
pub fn crash_script(seed: u64, cycles: usize, labels: usize) -> CrashScript {
    let mut rng = rng(seed, 0x6372617368);
    let preload = (0..CRASH_WINDOW).map(|_| crash_size(&mut rng)).collect();
    let cycles = (0..cycles)
        .map(|i| CrashCycle {
            label: i % labels,
            skip: rng.gen_range(0..=4),
            pairs: (0..CRASH_PAIRS)
                .map(|_| (rng.gen_range(0..CRASH_WINDOW), crash_size(&mut rng)))
                .collect(),
        })
        .collect();
    CrashScript { preload, cycles }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: KvMix = KvMix {
        insert_pct: 50,
        delete_pct: 25,
        value_scale: 1,
    };

    #[test]
    fn scripts_are_a_function_of_the_seed() {
        assert_eq!(
            kv_script(7, MIX, 100, 1000, 1000),
            kv_script(7, MIX, 100, 1000, 1000)
        );
        assert_ne!(
            kv_script(7, MIX, 100, 1000, 1000),
            kv_script(8, MIX, 100, 1000, 1000)
        );
        assert_eq!(sim_script(7, 64, 640, 640), sim_script(7, 64, 640, 640));
        assert_ne!(sim_script(7, 64, 640, 640), sim_script(8, 64, 640, 640));
        assert_eq!(crash_script(7, 10, 5), crash_script(7, 10, 5));
        assert_ne!(crash_script(7, 10, 5), crash_script(8, 10, 5));
    }

    #[test]
    fn kv_expectation_is_a_replay_of_the_script() {
        let s = kv_script(3, MIX, 500, 2000, 2000);
        let mut shadow: Vec<Option<u16>> = s.preload.iter().copied().map(Some).collect();
        for op in s.warm.iter().chain(&s.rate).chain(&s.latency) {
            match op.kind {
                KvKind::Insert => shadow[op.key as usize] = Some(op.value_len),
                KvKind::Delete => shadow[op.key as usize] = None,
                KvKind::Read => {}
            }
            assert!(op.key < KV_KEYS);
        }
        assert_eq!(shadow, s.expect);
        let inserts = s.rate.iter().filter(|o| o.kind == KvKind::Insert).count();
        assert!(
            (800..1200).contains(&inserts),
            "{inserts} inserts of 2000 at 50 %"
        );
    }

    #[test]
    fn sim_window_is_full_at_burst_boundaries() {
        let s = sim_script(5, 320, 3200, 3200);
        assert_eq!(s.rate.len(), 3200);
        let mut live = vec![true; SIM_WINDOW as usize];
        for burst in s
            .warm
            .chunks(2 * SIM_BURST)
            .chain(s.rate.chunks(2 * SIM_BURST))
        {
            for op in burst {
                match *op {
                    SimOp::FreeLocal { slot } | SimOp::FreeRemote { slot } => {
                        assert!(std::mem::replace(&mut live[slot as usize], false));
                    }
                    SimOp::Alloc { slot, size } => {
                        assert!(!std::mem::replace(&mut live[slot as usize], true));
                        assert!((8..=64 << 10).contains(&size));
                    }
                }
            }
            assert!(live.iter().all(|&l| l));
        }
        assert_eq!(s.frees, 3200);
        assert!(s.remote_frees > 0 && s.remote_frees < s.frees);
    }
}
