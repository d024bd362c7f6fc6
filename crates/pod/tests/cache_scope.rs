//! The per-core cache lock and its op scope (`coherence.rs`, module
//! docs): a scope makes its holder's accesses lock-free without letting
//! any other thread in, nests on its own core, is released by unwinding,
//! and refuses a second core.

use cxl_core::{crash, AttachOptions, Cxlalloc};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig, PodMemory, SimMemory};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

fn limited_pod() -> Pod {
    Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap()
}

fn sim(pod: &Pod) -> &SimMemory {
    pod.memory()
        .as_any()
        .downcast_ref::<SimMemory>()
        .expect("built with_simulation")
}

/// Values the owner stores are `(round << 8) | word`, so a read can be
/// checked against what was ever stored to that word.
fn stamped(round: u64, word: u64) -> u64 {
    (round << 8) | word
}

#[test]
fn foreign_accesses_wait_for_the_scope_and_see_whole_ops() {
    const CORE: CoreId = CoreId(1);
    const WORDS: u64 = 16;
    const OPS: u64 = 100_000;
    let pod = limited_pod();
    let mem = sim(&pod);
    let base = mem.layout().small.swcc_desc_at(0);
    let at = |word: u64| base + word * 8;

    let start = Barrier::new(2);
    let attempting = AtomicBool::new(false);
    let returned = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let foreign_rounds = AtomicU64::new(0);
    let foreign_loads = AtomicU64::new(0);
    let highest_round = AtomicU64::new(0);

    let check = |value: u64, word: u64| {
        assert!(
            value == 0
                || (value & 0xFF == word && value >> 8 <= highest_round.load(Ordering::SeqCst)),
            "word {word} read {value:#x}, which nobody stored there"
        );
    };

    let owner_loads = std::thread::scope(|threads| {
        threads.spawn(|| {
            start.wait();
            // Announced first, so the owner can hold its scope until
            // this call is certainly under way.
            attempting.store(true, Ordering::SeqCst);
            mem.cache().discard_all(CORE.index());
            returned.store(true, Ordering::SeqCst);
            while !done.load(Ordering::SeqCst) {
                mem.cache().discard_all(CORE.index());
                let _ = mem.cache().counts();
                let _ = mem.cache().is_cached(CORE.index(), at(3));
                let word = foreign_rounds.load(Ordering::Relaxed) % WORDS;
                check(mem.load_u64(CORE, at(word)), word);
                foreign_loads.fetch_add(1, Ordering::Relaxed);
                foreign_rounds.fetch_add(1, Ordering::SeqCst);
            }
        });

        // A foreign call that starts inside the scope returns only after
        // it: the lines dirtied under the scope are still cached at its
        // end.
        let scope = mem.op_scope(CORE);
        start.wait();
        while !attempting.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }
        for word in 0..WORDS {
            mem.store_u64(CORE, at(word), stamped(0, word));
        }
        assert!(!returned.load(Ordering::SeqCst), "discard_all got past an open scope");
        assert!(mem.cache().is_cached(CORE.index(), at(0)));
        drop(scope);
        while !returned.load(Ordering::SeqCst) {
            std::hint::spin_loop();
        }

        // One scope per op, as the allocator opens them, against the
        // foreign thread's loop.
        let mut loads = 0u64;
        for round in 1..=OPS {
            highest_round.store(round, Ordering::SeqCst);
            let _scope = mem.op_scope(CORE);
            let word = round % WORDS;
            check(mem.load_u64(CORE, at(word)), word);
            loads += 1;
            mem.store_u64(CORE, at(word), stamped(round, word));
            // Nobody else may act on this core between the store and
            // the load: no discard, no refill.
            assert_eq!(mem.load_u64(CORE, at(word)), stamped(round, word));
            loads += 1;
            mem.writeback(CORE, at(word), 8);
        }
        // Both loops certainly overlapped for a while.
        let seen = foreign_rounds.load(Ordering::SeqCst);
        while foreign_rounds.load(Ordering::SeqCst) < seen + 100 {
            std::hint::spin_loop();
        }
        done.store(true, Ordering::SeqCst);
        loads
    });

    assert_eq!(
        mem.cache().counts().loads,
        owner_loads + foreign_loads.load(Ordering::SeqCst),
        "a load was lost or counted twice"
    );
}

#[test]
fn nested_scope_on_the_same_core_is_a_no_op() {
    let pod = limited_pod();
    let mem = sim(&pod);
    let off = mem.layout().small.swcc_desc_at(0);
    let outer = mem.op_scope(CoreId(1));
    {
        let _inner = mem.op_scope(CoreId(1));
        mem.store_u64(CoreId(1), off, 7);
    }
    // The outer scope still holds: a foreign discard cannot get in.
    let returned = AtomicBool::new(false);
    std::thread::scope(|threads| {
        threads.spawn(|| {
            mem.cache().discard_all(1);
            returned.store(true, Ordering::SeqCst);
        });
        for _ in 0..1000 {
            assert_eq!(mem.load_u64(CoreId(1), off), 7);
        }
        assert!(!returned.load(Ordering::SeqCst));
        drop(outer);
    });
    assert!(returned.load(Ordering::SeqCst));
    assert!(!mem.cache().is_cached(1, off));
}

#[test]
fn unwinding_crash_releases_the_scope() {
    let pod = limited_pod();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut victim = heap.register_thread().unwrap();
    let core = victim.core();
    crash::arm(crash::CrashPlan {
        at: "slab::alloc_block::after_log",
        skip: 0,
    });
    let crashed = crash::catch(std::panic::AssertUnwindSafe(|| victim.alloc(64)));
    crash::disarm();
    assert_eq!(crashed.unwrap_err().at, "slab::alloc_block::after_log");
    // `alloc` died inside its op scope. Were the scope still held, the
    // other thread's `discard_all` would never return.
    std::thread::scope(|threads| {
        threads.spawn(|| sim(&pod).cache().discard_all(core.index()));
    });
    heap.mark_crashed(victim.tid()).unwrap();
}

#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "opened another core's")]
fn second_core_scope_inside_a_scope_panics() {
    let pod = limited_pod();
    let mem = sim(&pod);
    let _one = mem.op_scope(CoreId(1));
    let _two = mem.op_scope(CoreId(2));
}
