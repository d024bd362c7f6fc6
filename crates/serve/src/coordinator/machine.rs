//! The coordinator's decisions, sans IO.
//!
//! A [`Coordinator`] is driven only through [`Coordinator::step`]:
//! events are what the shell observed, actions are what it must do.
//! Every death, adoption, drain, stall and chaos decision is made here,
//! at a virtual `now_ns` the shell supplies, so a scripted event list
//! replays any run without a process, a clock or a shared segment.
//!
//! DESIGN.md §11 has the events → actions table.

use std::time::Duration;

use cxl_core::liveness::lease;
use rand::{rngs::StdRng, Rng, SeedableRng};

use super::{incarnation_seed, AdoptionRecord, DrainRecord, RunArgs, StallRecord};
use crate::rpc::{run_state, state, Msg};
use crate::worker::exit;
use crate::Chaos;

const SIGCONT: i32 = 18;
const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;

/// What the shell observed.
#[derive(Debug)]
pub(super) enum Event {
    /// The shell spawned the worker a [`Action::Spawn`] asked for.
    Spawned { index: u32, pid: u32 },
    /// A message popped from slot `index`'s event ring.
    Msg { index: u32, msg: Msg },
    /// A child of slot `index` exited with `code` (`None`: a signal
    /// killed it); `lease` is the slot's lease word read at reap time.
    Reaped { index: u32, pid: u32, code: Option<i32>, lease: u64 },
    /// The poll timer: each slot's `(lease word, worker STATE)`.
    Tick(Vec<(u64, u64)>),
}

/// What the shell must do, in order.
#[derive(Debug, Clone, PartialEq)]
pub(super) enum Action {
    /// Spawn a worker for slot `index` that streams its ops from `seed`:
    /// an adopter of `adopt` (the victim's raw tid and death epoch), or a
    /// fresh registration with `chaos` armed.
    Spawn { index: u32, adopt: Option<(u16, u16)>, chaos: Vec<(u64, Chaos)>, seed: u64 },
    /// Send `sig` to `pid`; after a SIGKILL, wait for the corpse so the
    /// next pass reaps it.
    Signal { pid: u32, sig: i32 },
    /// Set the control plane's run state.
    RunState(u64),
}

/// The timed chaos schedule of a time-mode run: every `(ns into
/// traffic, kind, victim)` event, in firing order. Each kind streams
/// from its own tagged seed inside its own window `secs × [start,
/// start + width)`, so adding events of one kind never moves another's;
/// `--rolling N:PERIOD` adds drains at `period × (i + 1)`, round-robin.
pub(super) fn timed_chaos(args: &RunArgs) -> Vec<(u64, Chaos, u32)> {
    let mut events = Vec::new();
    for (kind, count, tag, start, width) in [
        (Chaos::Kill, args.kills, 0x6b69_6c6c, 0.25, 0.4),     // "kill"
        (Chaos::Drain, args.drains, 0x64_7261_696e, 0.20, 0.45), // "drain"
        (Chaos::Stall, args.stalls, 0x73_7461_6c6c, 0.15, 0.5),  // "stall"
    ] {
        let mut rng = StdRng::seed_from_u64(args.seed ^ tag);
        for _ in 0..count {
            let at = args.secs * (start + width * rng.gen::<f64>());
            events.push((secs_ns(at), kind, rng.gen_range(0..args.workers)));
        }
    }
    if let Some((n, period)) = args.rolling {
        for i in 0..n {
            events.push((secs_ns(period * (i + 1) as f64), Chaos::Drain, i % args.workers));
        }
    }
    // Stable: same-instant events keep their per-kind order.
    events.sort_by_key(|&(at, ..)| at);
    events
}

/// Per-slot queues of op-exact chaos events in flag order, armed one of
/// each kind per *fresh* spawn (initial worker or post-drain
/// replacement). Adoption replacements never arm events: an adopter
/// continues a crashed incarnation, it doesn't open a new chapter of
/// the schedule.
pub(super) struct SelfEvents(Vec<Vec<(Chaos, u64)>>);

impl SelfEvents {
    pub(super) fn new(args: &RunArgs) -> SelfEvents {
        let mut queues = vec![Vec::new(); args.workers as usize];
        for &(kind, index, ops) in &args.self_events {
            queues[index as usize].push((kind, ops));
        }
        SelfEvents(queues)
    }

    /// Takes the slot's next event of each kind, sorted by op count.
    pub(super) fn arm(&mut self, index: u32) -> Vec<(u64, Chaos)> {
        let queue = &mut self.0[index as usize];
        let mut armed: Vec<(u64, Chaos)> = Chaos::ALL
            .into_iter()
            .filter_map(|kind| {
                let at = queue.iter().position(|(k, _)| *k == kind)?;
                Some((queue.remove(at).1, kind))
            })
            .collect();
        armed.sort_unstable();
        armed
    }
}

/// One worker process as the machine knows it.
#[derive(Debug, Clone, Copy)]
struct Proc {
    pid: u32,
    /// `(exit code, lease word)` once reaped.
    exit: Option<(Option<i32>, u64)>,
    /// The chaos signal sent to it (by the injector, or the watchdog's
    /// SIGKILL), while it is still in effect: no chaos target then. A
    /// stall lasts until the watchdog's SIGCONT, a drain or a kill for
    /// good (the replacement is the next target). A stopped or draining
    /// worker still reads RUNNING for a while, and a second SIGTERM would
    /// merge with the first. After a SIGKILL it is no watchdog target
    /// either.
    signalled: Option<Chaos>,
}

/// One worker slot's bookkeeping.
#[derive(Debug, Default)]
struct Slot {
    child: Option<Proc>,
    /// Adopters not yet identified as the winner, each with the index
    /// of its adoption episode.
    racers: Vec<(Proc, usize)>,
    tid: Option<u16>,
    incarnation: u32,
    started: bool,
    finished: bool,
    /// Index into the adoptions of the episode in flight.
    adopting: Option<usize>,
}

impl Slot {
    /// A healthy slot: started, not mid-adoption, its worker serving and
    /// not draining (`STATE` RUNNING), and its child alive and not
    /// sent a SIGKILL. The watchdog watches it; the injector targets it
    /// unless an earlier chaos signal is still in effect.
    fn healthy(&self, worker_state: u64) -> bool {
        self.started
            && self.adopting.is_none()
            && worker_state == state::RUNNING
            && self.child.is_some_and(|c| c.exit.is_none() && c.signalled != Some(Chaos::Kill))
    }
}

/// Per-slot lease-movement tracking for the watchdog.
#[derive(Debug, Default)]
struct Lane {
    last_word: u64,
    moved_at: u64,
    probes: u32,
    probe_at: u64,
    /// Index into the stall records of the episode in flight. The record
    /// is created at *detection* time and updated in place — a revived
    /// worker may exit (self-kill, drain) before the next tick can
    /// observe its lease moving, so resolution can't be the moment the
    /// episode is recorded.
    episode: Option<usize>,
}

impl Lane {
    fn reset(&mut self, word: u64, now: u64) {
        *self = Lane { last_word: word, moved_at: now, probe_at: now, ..Lane::default() };
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    /// Nothing spawned yet.
    Init,
    /// Waiting for every initial Hello.
    Setup { deadline: u64 },
    Traffic { start: u64, deadline: u64 },
    Stopping { deadline: u64 },
    Done,
}

/// The coordinator's state: slots, watchdog lanes, chaos schedules, run
/// phase and the episode records the report carries.
pub(super) struct Coordinator<'a> {
    args: &'a RunArgs,
    phase: Phase,
    slots: Vec<Slot>,
    lanes: Vec<Lane>,
    self_events: SelfEvents,
    /// Timed chaos not yet fired.
    pub(super) schedule: Vec<(u64, Chaos, u32)>,
    pub(super) adoptions: Vec<AdoptionRecord>,
    pub(super) drains: Vec<DrainRecord>,
    pub(super) stalls: Vec<StallRecord>,
    /// Threads that observed a stolen lease (raw tids).
    pub(super) stolen: Vec<u16>,
    /// SIGKILL deaths handled.
    pub(super) kills: u32,
    /// Traffic-phase length, set when stopping begins.
    pub(super) elapsed_ns: u64,
}

impl<'a> Coordinator<'a> {
    pub(super) fn new(args: &'a RunArgs) -> Coordinator<'a> {
        Coordinator {
            args,
            phase: Phase::Init,
            slots: (0..args.workers).map(|_| Slot::default()).collect(),
            lanes: (0..args.workers).map(|_| Lane::default()).collect(),
            self_events: SelfEvents::new(args),
            schedule: timed_chaos(args),
            adoptions: Vec::new(),
            drains: Vec::new(),
            stalls: Vec::new(),
            stolen: Vec::new(),
            kills: 0,
            elapsed_ns: 0,
        }
    }

    /// The thread id slot `index` last said hello with: the shell reads
    /// the lease word of its thread slot.
    pub(super) fn tid(&self, index: u32) -> Option<u16> {
        self.slots[index as usize].tid
    }

    /// Whether the run is over: stopping saw every child reaped.
    pub(super) fn done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Milliseconds the shell sleeps between passes.
    pub(super) fn poll_ms(&self) -> u64 {
        match self.phase {
            Phase::Stopping { .. } => 2,
            Phase::Done => 0,
            _ => 1,
        }
    }

    /// Applies one observation and returns what the shell must do.
    ///
    /// # Errors
    ///
    /// A missed deadline or a protocol violation; the run is over.
    pub(super) fn step(&mut self, now_ns: u64, event: Event) -> Result<Vec<Action>, String> {
        let mut out = Vec::new();
        match event {
            Event::Spawned { index, pid } => {
                let slot = &mut self.slots[index as usize];
                let proc = Proc { pid, exit: None, signalled: None };
                match slot.adopting {
                    Some(episode) if slot.child.is_none() => slot.racers.push((proc, episode)),
                    _ => slot.child = Some(proc),
                }
            }
            Event::Msg { index, msg } => self.message(index, msg)?,
            Event::Reaped { index, pid, code, lease } => {
                let slot = &mut self.slots[index as usize];
                if let Some(at) = slot.racers.iter().position(|(r, _)| r.pid == pid) {
                    if code == Some(exit::RACED) {
                        // Lost the adoption race.
                        let (_, episode) = slot.racers.remove(at);
                        self.adoptions[episode].losers += 1;
                    } else {
                        slot.racers[at].0.exit = Some((code, lease));
                    }
                } else if let Some(child) = slot.child.as_mut().filter(|c| c.pid == pid) {
                    child.exit = Some((code, lease));
                }
            }
            Event::Tick(probes) => self.tick(now_ns, &probes, &mut out)?,
        }
        Ok(out)
    }

    fn message(&mut self, index: u32, msg: Msg) -> Result<(), String> {
        let slot = &mut self.slots[index as usize];
        match msg {
            Msg::Hello { pid, tid } => {
                slot.tid = Some(tid);
                // A replacement's hello: promote the matching racer to
                // slot ownership.
                if let Some(at) = slot.racers.iter().position(|(r, _)| r.pid as u64 == pid) {
                    slot.child = Some(slot.racers.remove(at).0);
                }
                // A replacement reads RUNNING and serves. Its Hello is
                // popped before its exit is reaped, so `settle` never
                // sees a serving worker's death on an unstarted slot. A
                // straggler during Stopping reads STOPPING and leaves.
                if matches!(self.phase, Phase::Traffic { .. }) {
                    slot.started = true;
                }
            }
            Msg::AdoptReport { victim, inherited, pid, epoch } => {
                let rec = slot
                    .adopting
                    .take()
                    .and_then(|at| self.adoptions.get_mut(at))
                    .ok_or_else(|| {
                        format!(
                            "adopt report from pid {pid} (epoch {epoch}, victim {victim}) \
                             with no adoption in flight on slot {index}"
                        )
                    })?;
                rec.winners += 1;
                rec.winner_ids.push((pid, epoch));
                rec.inherited = inherited;
            }
            // Rings drain before exits are reaped, so `slot.tid` still
            // names the draining incarnation: its replacement is not
            // spawned until the corpse is settled.
            Msg::Exited { drained: true, ops, live } => {
                self.drains.push(DrainRecord { index, tid: slot.tid.unwrap_or(0), ops, live })
            }
            Msg::Exited { drained: false, .. } => slot.finished = true,
            Msg::Stolen { tid } => self.stolen.push(tid),
        }
        Ok(())
    }

    /// A worker for slot `index`'s current incarnation: an adopter of
    /// `adopt`, or a fresh registration armed with the slot's next
    /// self-events.
    fn spawn(&mut self, index: u32, adopt: Option<(u16, u16)>) -> Action {
        let chaos = if adopt.is_none() { self.self_events.arm(index) } else { Vec::new() };
        let seed = incarnation_seed(self.args.seed, index, self.slots[index as usize].incarnation);
        Action::Spawn { index, adopt, chaos, seed }
    }

    fn tick(&mut self, now: u64, probes: &[(u64, u64)], out: &mut Vec<Action>) -> Result<(), String> {
        let args = self.args;
        match self.phase {
            Phase::Init => {
                for index in 0..args.workers {
                    out.push(self.spawn(index, None));
                }
                self.phase = Phase::Setup { deadline: now + 60 * SEC };
            }
            Phase::Setup { deadline } => {
                if self.slots.iter().all(|s| s.tid.is_some()) {
                    out.push(Action::RunState(run_state::RUNNING));
                    for slot in &mut self.slots {
                        slot.started = true;
                    }
                    let grace = if args.target_ops > 0 { 120 * SEC } else { 0 };
                    let deadline = now + secs_ns(args.secs) + grace;
                    self.phase = Phase::Traffic { start: now, deadline };
                } else if now > deadline {
                    return Err("workers never all said hello".into());
                }
            }
            Phase::Traffic { start, deadline } => {
                for index in 0..args.workers {
                    self.settle(index, out)?;
                }
                self.watch(now, probes, out);
                self.inject(now - start, probes, out);
                let done = if args.target_ops > 0 {
                    self.slots.iter().all(|s| s.finished)
                } else {
                    now - start >= secs_ns(args.secs)
                };
                if done {
                    self.elapsed_ns = now - start;
                    out.push(Action::RunState(run_state::STOPPING));
                    self.phase = Phase::Stopping { deadline: now + 30 * SEC };
                } else if now > deadline {
                    return Err("run overshot its hard deadline".into());
                }
            }
            // Keep the watchdog running: a worker stalled moments before
            // STOPPING still needs its SIGCONT to read it.
            Phase::Stopping { .. } => self.watch(now, probes, out),
            Phase::Done => {}
        }
        // Also on the tick that began stopping: children reaped before
        // it need no further pass.
        if let Phase::Stopping { deadline } = self.phase {
            let reaped = self.slots.iter().all(|s| {
                s.child.iter().chain(s.racers.iter().map(|(r, _)| r)).all(|p| p.exit.is_some())
            });
            if reaped {
                self.phase = Phase::Done;
            } else if now > deadline {
                return Err("workers did not stop in time".into());
            }
        }
        Ok(())
    }

    /// Replaces slot `index`'s dead child — an adopter (two with
    /// `race_adopt`) for a crash, a fresh registration for a drain.
    fn settle(&mut self, index: u32, out: &mut Vec<Action>) -> Result<(), String> {
        let slot = &mut self.slots[index as usize];
        let Some((code, lease)) = slot.child.and_then(|c| c.exit) else { return Ok(()) };
        if code == Some(exit::OK) || !slot.started || slot.adopting.is_some() {
            // A clean exit, or not a traffic-phase death we can
            // attribute yet: a late Hello may still start the slot.
            return Ok(());
        }
        let victim = slot.tid.ok_or("dead worker never said hello")?;
        let drained = code == Some(exit::DRAINED);
        if !drained {
            self.kills += 1;
        }
        slot.child = None;
        slot.started = false;
        slot.finished = false;
        slot.incarnation += 1;
        // A kill can land *after* the victim froze its lease (the last
        // instants of a drain). The frozen lease is the durable truth:
        // the flush completed, so nothing is adoptable — or needs to be.
        if drained || lease::is_frozen(lease) {
            slot.tid = None;
            out.push(self.spawn(index, None));
            return Ok(());
        }
        slot.adopting = Some(self.adoptions.len());
        self.adoptions.push(AdoptionRecord { index, victim_tid: victim, ..AdoptionRecord::default() });
        // The death epoch binds each adopter to this incarnation: once
        // the winner's adoption moves it, a loser can never expire the
        // winner's fresh lease and adopt the slot again.
        for _ in 0..1 + self.args.race_adopt as u32 {
            out.push(self.spawn(index, Some((victim, lease::epoch(lease)))));
        }
        Ok(())
    }

    /// The stuck-worker watchdog. A healthy worker's lease word moves on
    /// every heartbeat, so a static word means the process isn't
    /// scheduling. On a stall it climbs a ladder — SIGCONT probe,
    /// doubling re-probes, then SIGKILL — so a SIGSTOPped worker is
    /// revived in one rung while a truly wedged one is fed to the
    /// adoption machinery.
    fn watch(&mut self, now: u64, probes: &[(u64, u64)], out: &mut Vec<Action>) {
        let args = self.args;
        let stall = args.stall_ms.max(1) * MS;
        let grace = args.probe_grace_ms.max(1) * MS;
        for (index, slot) in self.slots.iter_mut().enumerate() {
            let lane = &mut self.lanes[index];
            let (word, worker_state) = probes[index];
            if slot.finished || !slot.healthy(worker_state) {
                lane.reset(0, now);
                continue;
            }
            // Frozen: draining (or drained), silence is the protocol.
            if lease::is_frozen(word) || word != lane.last_word {
                lane.reset(word, now);
                continue;
            }
            if now - lane.moved_at < stall || now < lane.probe_at {
                continue;
            }
            let episode = *lane.episode.get_or_insert_with(|| {
                self.stalls.push(StallRecord { index: index as u32, probes: 0, escalated: false });
                self.stalls.len() - 1
            });
            let child = slot.child.as_mut().expect("a healthy slot has a child");
            if lane.probes >= args.max_probes {
                // Ladder exhausted. SIGKILL works on stopped processes
                // too; the corpse settles into an adoption.
                out.push(Action::Signal { pid: child.pid, sig: Chaos::Kill.signal() });
                child.signalled = Some(Chaos::Kill);
                self.stalls[episode].escalated = true;
                lane.reset(word, now);
            } else {
                out.push(Action::Signal { pid: child.pid, sig: SIGCONT });
                child.signalled = child.signalled.filter(|&kind| kind != Chaos::Stall);
                lane.probes += 1;
                self.stalls[episode].probes = lane.probes;
                lane.probe_at = now + (grace << (lane.probes - 1).min(6));
            }
        }
    }

    /// The injector. A due event whose slot is unhealthy (mid-replacement)
    /// or still under an earlier event waits, and holds back the later
    /// events of its kind. A stall is never CONTed here: the watchdog's
    /// probe is the only revival path, so every episode exercises it.
    fn inject(&mut self, elapsed: u64, probes: &[(u64, u64)], out: &mut Vec<Action>) {
        let mut held: Vec<Chaos> = Vec::new();
        let slots = &mut self.slots;
        self.schedule.retain(|&(at, kind, victim)| {
            if at > elapsed || held.contains(&kind) {
                return true;
            }
            let slot = &mut slots[victim as usize];
            if !slot.healthy(probes[victim as usize].1) || slot.child.is_some_and(|c| c.signalled.is_some()) {
                held.push(kind);
                return true;
            }
            let child = slot.child.as_mut().expect("a healthy slot has a child");
            out.push(Action::Signal { pid: child.pid, sig: kind.signal() });
            child.signalled = Some(kind);
            false
        });
    }
}

pub(super) fn secs_ns(secs: f64) -> u64 {
    Duration::from_secs_f64(secs).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNNING: u64 = state::RUNNING;
    const KILL: i32 = 9;
    const TERM: i32 = 15;

    /// Drives a machine at a virtual clock, answering every `Spawn`
    /// with the next pid (the initial workers get pids `1..=workers`).
    struct Sim<'a> {
        m: Coordinator<'a>,
        now: u64,
        pid: u32,
    }

    impl<'a> Sim<'a> {
        /// A machine whose slot `i` was spawned with incarnation 0's
        /// seed, said hello as tid `i + 1`, and was started at 1 ms.
        fn running(args: &'a RunArgs) -> Sim<'a> {
            let mut sim = Sim { m: Coordinator::new(args), now: 0, pid: 0 };
            let spawns: Vec<Action> = (0..args.workers).map(|i| spawn(args, i, None, 0)).collect();
            assert_eq!(sim.tick(0), spawns);
            for index in 0..args.workers {
                assert_eq!(sim.msg(index, Msg::Hello { pid: index as u64 + 1, tid: index as u16 + 1 }), vec![]);
                assert!(!sim.m.slots[index as usize].started, "no slot starts during setup");
            }
            assert_eq!(sim.tick(1), vec![Action::RunState(run_state::RUNNING)]);
            assert!(sim.m.slots.iter().all(|s| s.started));
            sim
        }

        fn step(&mut self, event: Event) -> Vec<Action> {
            let acts = self.m.step(self.now, event).unwrap();
            for act in &acts {
                if let Action::Spawn { index, .. } = *act {
                    self.pid += 1;
                    let spawned = Event::Spawned { index, pid: self.pid };
                    assert_eq!(self.m.step(self.now, spawned).unwrap(), vec![]);
                }
            }
            acts
        }

        fn msg(&mut self, index: u32, msg: Msg) -> Vec<Action> {
            self.step(Event::Msg { index, msg })
        }

        fn reap(&mut self, index: u32, pid: u32, code: Option<i32>, lease: u64) {
            assert_eq!(self.step(Event::Reaped { index, pid, code, lease }), vec![]);
        }

        /// Ticks at `ms` with every slot's lease at `word` and RUNNING.
        fn tick(&mut self, ms: u64) -> Vec<Action> {
            let slots = self.m.slots.len();
            self.tick_with(ms, vec![(ms, RUNNING); slots])
        }

        fn tick_with(&mut self, ms: u64, probes: Vec<(u64, u64)>) -> Vec<Action> {
            self.now = ms * MS;
            self.step(Event::Tick(probes))
        }

        fn winner(&mut self, index: u32, pid: u32, victim: u16) {
            let report = Msg::AdoptReport { victim, inherited: 9, pid: pid as u64, epoch: 2 };
            assert_eq!(self.msg(index, report), vec![]);
        }
    }

    /// An unarmed spawn for `incarnation` of slot `index`.
    fn spawn(args: &RunArgs, index: u32, adopt: Option<(u16, u16)>, incarnation: u32) -> Action {
        let seed = incarnation_seed(args.seed, index, incarnation);
        Action::Spawn { index, adopt, chaos: Vec::new(), seed }
    }

    /// Slot `index`'s first adopter of `victim`, which died at `epoch`.
    fn adopter(args: &RunArgs, index: u32, victim: u16, epoch: u16) -> Action {
        spawn(args, index, Some((victim, epoch)), 1)
    }

    /// A lease word at `epoch`.
    fn at_epoch(epoch: u16) -> u64 {
        lease::pack(epoch, 77)
    }

    #[test]
    fn crash_opens_one_episode_and_the_winner_report_closes_it() {
        let args = RunArgs { workers: 2, secs: 100.0, ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        sim.reap(0, 1, None, at_epoch(3));
        assert_eq!(sim.tick(10), vec![adopter(&args, 0, 1, 3)]);
        assert_eq!((sim.m.kills, sim.m.adoptions.len()), (1, 1));
        // Still mid-adoption: the next tick opens nothing new.
        assert_eq!(sim.tick(11), vec![]);
        sim.winner(0, 3, 1);
        assert!(!sim.m.slots[0].started);
        assert_eq!(sim.msg(0, Msg::Hello { pid: 3, tid: 1 }), vec![]);
        assert!(sim.m.slots[0].started, "a hello during traffic starts the slot");
        let rec = &sim.m.adoptions[0];
        assert_eq!((rec.winners, rec.losers, rec.inherited), (1, 0, 9));
        assert_eq!(rec.winner_ids, vec![(3, 2)]);
        // A second winner for a closed episode names itself.
        let late = Msg::AdoptReport { victim: 1, inherited: 0, pid: 8, epoch: 5 };
        let err = sim.m.step(sim.now, Event::Msg { index: 0, msg: late }).unwrap_err();
        assert!(err.contains("pid 8") && err.contains("epoch 5"), "{err}");
    }

    #[test]
    fn raced_adoption_counts_raced_exits_as_losers_also_while_stopping() {
        let args = RunArgs { workers: 2, secs: 1.0, race_adopt: true, ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        sim.reap(0, 1, None, at_epoch(1));
        assert_eq!(sim.tick(10), vec![adopter(&args, 0, 1, 1), adopter(&args, 0, 1, 1)]);
        sim.winner(0, 3, 1);
        assert_eq!(sim.msg(0, Msg::Hello { pid: 3, tid: 1 }), vec![]);
        sim.reap(0, 4, Some(exit::RACED), 0);
        assert_eq!((sim.m.adoptions[0].winners, sim.m.adoptions[0].losers), (1, 1));

        // Slot 1's loser is still adopting when the run stops.
        sim.reap(1, 2, None, at_epoch(4));
        assert_eq!(sim.tick(20), vec![adopter(&args, 1, 2, 4), adopter(&args, 1, 2, 4)]);
        sim.winner(1, 5, 2);
        sim.msg(1, Msg::Hello { pid: 5, tid: 2 });
        let stopping = sim.tick(1002);
        assert_eq!(stopping, vec![Action::RunState(run_state::STOPPING)]);
        assert_eq!(sim.m.elapsed_ns, 1001 * MS);
        sim.reap(1, 6, Some(exit::RACED), 0);
        assert_eq!((sim.m.adoptions[1].winners, sim.m.adoptions[1].losers), (1, 1));
        sim.reap(0, 3, Some(exit::OK), 0);
        assert_eq!(sim.tick(1004), vec![]);
        assert!(!sim.m.done(), "pid 5 still runs");
        sim.reap(1, 5, Some(exit::OK), 0);
        sim.tick(1006);
        assert!(sim.m.done());
        assert_eq!(sim.m.kills, 2);
    }

    #[test]
    fn drain_respawns_fresh_and_arms_the_next_self_events_adopters_arm_none() {
        let argv = "--workers 1 --secs 100 --self-drain 0:50 --self-kill 0:100 \
                    --self-drain 0:75 --self-kill 0:200 --self-drain 0:90";
        let argv: Vec<String> = argv.split_whitespace().map(String::from).collect();
        let args = RunArgs::parse(&argv).unwrap();
        let mut sim = Sim { m: Coordinator::new(&args), now: 0, pid: 0 };
        let fresh = |chaos, incarnation| {
            Action::Spawn { index: 0, adopt: None, chaos, seed: incarnation_seed(args.seed, 0, incarnation) }
        };
        let first = vec![(50, Chaos::Drain), (100, Chaos::Kill)];
        assert_eq!(sim.tick(0), vec![fresh(first, 0)]);
        sim.msg(0, Msg::Hello { pid: 1, tid: 1 });
        sim.tick(1);

        let exited = Msg::Exited { drained: true, ops: 50, live: 7 };
        assert_eq!(sim.msg(0, exited), vec![]);
        sim.reap(0, 1, Some(exit::DRAINED), lease::FROZEN);
        let next = vec![(75, Chaos::Drain), (200, Chaos::Kill)];
        assert_eq!(sim.tick(10), vec![fresh(next, 1)]);
        let d = &sim.m.drains[0];
        assert_eq!((d.index, d.tid, d.ops, d.live), (0, 1, 50, 7));
        assert_eq!((sim.m.kills, sim.m.adoptions.len()), (0, 0));
        assert_eq!(sim.msg(0, Msg::Hello { pid: 2, tid: 5 }), vec![]);

        // The fresh worker crashes: its adopter arms nothing, though a
        // drain is still queued for the slot's next fresh spawn.
        sim.reap(0, 2, None, at_epoch(2));
        assert_eq!(sim.tick(20), vec![spawn(&args, 0, Some((5, 2)), 2)]);
    }

    #[test]
    fn kill_after_the_lease_froze_is_a_kill_with_a_fresh_spawn() {
        let args = RunArgs { workers: 1, secs: 100.0, ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        sim.reap(0, 1, None, lease::FROZEN);
        assert_eq!(sim.tick(10), vec![spawn(&args, 0, None, 1)]);
        assert_eq!(sim.m.kills, 1);
        assert!(sim.m.adoptions.is_empty());
        assert_eq!(sim.m.tid(0), None);
    }

    #[test]
    fn silent_lease_is_probed_at_doubling_grace_then_killed() {
        let args = RunArgs {
            workers: 1,
            secs: 100.0,
            stall_ms: 100,
            probe_grace_ms: 50,
            max_probes: 2,
            ..RunArgs::default()
        };
        let cont = Action::Signal { pid: 1, sig: SIGCONT };
        let mut sim = Sim::running(&args);
        let silent = |sim: &mut Sim, ms| sim.tick_with(ms, vec![(7, RUNNING)]);
        assert_eq!(silent(&mut sim, 2), vec![]); // the word moved to 7
        assert_eq!(silent(&mut sim, 101), vec![]);
        assert_eq!(silent(&mut sim, 102), vec![cont.clone()]);
        assert_eq!(silent(&mut sim, 151), vec![]);
        assert_eq!(silent(&mut sim, 152), vec![cont.clone()]);
        assert_eq!(silent(&mut sim, 251), vec![], "the second grace is doubled");
        assert_eq!(silent(&mut sim, 252), vec![Action::Signal { pid: 1, sig: KILL }]);
        let rec = &sim.m.stalls[0];
        assert_eq!((rec.probes, rec.escalated), (2, true));
        // The killed child is no target while its corpse is reaped.
        assert_eq!(silent(&mut sim, 900), vec![]);
        sim.reap(0, 1, None, 7);
        assert_eq!(silent(&mut sim, 901), vec![adopter(&args, 0, 1, 0)]);
    }

    #[test]
    fn moving_or_frozen_lease_resets_the_watchdog_lane() {
        let args = RunArgs { workers: 1, secs: 100.0, stall_ms: 100, ..RunArgs::default() };
        let cont = Action::Signal { pid: 1, sig: SIGCONT };
        let mut sim = Sim::running(&args);
        sim.tick_with(2, vec![(7, RUNNING)]);
        assert_eq!(sim.tick_with(102, vec![(7, RUNNING)]), vec![cont.clone()]);
        // Revived: the word moves, the episode ends with one probe.
        assert_eq!(sim.tick_with(103, vec![(8, RUNNING)]), vec![]);
        assert_eq!(sim.tick_with(202, vec![(8, RUNNING)]), vec![]);
        assert_eq!(sim.tick_with(203, vec![(8, RUNNING)]), vec![cont], "a new episode");
        assert_eq!(sim.m.stalls.len(), 2);
        assert_eq!((sim.m.stalls[0].probes, sim.m.stalls[0].escalated), (1, false));
        // A frozen lease is draining: silence is never a stall.
        for ms in [300, 1000, 5000] {
            assert_eq!(sim.tick_with(ms, vec![(lease::FROZEN, RUNNING)]), vec![]);
        }
        assert_eq!(sim.m.stalls.len(), 2);
    }

    #[test]
    fn due_event_on_unhealthy_slot_waits_and_holds_back_its_kind() {
        // Rolling drains: slot 0 at 1 s, slot 1 at 2 s.
        let args = RunArgs { workers: 2, secs: 100.0, rolling: Some((2, 1.0)), ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        let draining = state::DRAINED;
        assert_eq!(sim.tick_with(2500, vec![(2500, draining), (2500, RUNNING)]), vec![]);
        assert_eq!(
            sim.tick(2600),
            vec![Action::Signal { pid: 1, sig: TERM }, Action::Signal { pid: 2, sig: TERM }]
        );
        assert_eq!(sim.tick(2700), vec![], "each event fires once");
    }

    #[test]
    fn stalled_slot_is_no_chaos_target_until_its_sigcont() {
        let args = RunArgs { workers: 1, secs: 100.0, stall_ms: 1000, ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        // A stall, then two drains due on slot 0 while it is stopped.
        sim.m.schedule = vec![(100 * MS, Chaos::Stall, 0), (200 * MS, Chaos::Drain, 0), (300 * MS, Chaos::Drain, 0)];
        let signal = |pid, kind: Chaos| Action::Signal { pid, sig: kind.signal() };
        assert_eq!(sim.tick_with(102, vec![(102, RUNNING)]), vec![signal(1, Chaos::Stall)]);
        // Stopped: the lease stands still, the worker still reads RUNNING.
        for ms in [150, 250, 350] {
            assert_eq!(sim.tick_with(ms, vec![(7, RUNNING)]), vec![], "{ms} ms");
        }
        // Held, both drains are what the report would call unfired.
        assert_eq!(sim.m.schedule.len(), 2);
        // The watchdog's SIGCONT frees the first drain; the second waits
        // for the drained worker's replacement instead of merging.
        let cont = Action::Signal { pid: 1, sig: SIGCONT };
        assert_eq!(sim.tick_with(1150, vec![(7, RUNNING)]), vec![cont, signal(1, Chaos::Drain)]);
        assert_eq!(sim.tick_with(1160, vec![(lease::FROZEN, state::DRAINED)]), vec![]);
        sim.msg(0, Msg::Exited { drained: true, ops: 10, live: 0 });
        sim.reap(0, 1, Some(exit::DRAINED), lease::FROZEN);
        assert_eq!(sim.tick(1170), vec![spawn(&args, 0, None, 1)]);
        assert_eq!(sim.msg(0, Msg::Hello { pid: 2, tid: 4 }), vec![]);
        assert_eq!(sim.tick(1180), vec![signal(2, Chaos::Drain)]);
        assert_eq!(sim.m.drains.len(), 1);
        assert!(sim.m.schedule.is_empty(), "every planned event fired");
    }

    #[test]
    fn late_winner_after_stopping_closes_its_episode() {
        let args = RunArgs { workers: 2, secs: 1.0, ..RunArgs::default() };
        let mut sim = Sim::running(&args);
        sim.reap(0, 1, None, at_epoch(6));
        assert_eq!(sim.tick(10), vec![adopter(&args, 0, 1, 6)]);
        assert_eq!(sim.tick(1002), vec![Action::RunState(run_state::STOPPING)]);
        // The winner reports, says hello, reads STOPPING and leaves.
        sim.winner(0, 3, 1);
        assert_eq!(sim.msg(0, Msg::Hello { pid: 3, tid: 1 }), vec![]);
        assert!(!sim.m.slots[0].started, "a straggler's hello starts nothing");
        assert_eq!(sim.msg(0, Msg::Exited { drained: false, ops: 0, live: 4 }), vec![]);
        sim.reap(0, 3, Some(exit::OK), at_epoch(7));
        sim.reap(1, 2, Some(exit::OK), at_epoch(1));
        assert_eq!(sim.tick(1004), vec![]);
        assert!(sim.m.done());
        let rec = &sim.m.adoptions[0];
        assert_eq!((rec.winners, rec.losers, rec.winner_ids.clone()), (1, 0, vec![(3, 2)]));
        assert_eq!(sim.m.kills, 1);
    }
}
