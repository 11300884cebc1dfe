//! Timer re-arming: `rearm_timer` must be indistinguishable from
//! `cancel_timer` followed by `set_timer` with the same token, while
//! queuing fewer calendar keys.

use std::cell::RefCell;
use std::rc::Rc;

use netsim::link::LinkConfig;
use netsim::protocol::{RoutingProtocol, TimerId, TimerToken};
use netsim::simulator::{ProtocolContext, SimStats, Simulator, SimulatorBuilder};
use netsim::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// Timer slots each scripted node drives.
const SLOTS: usize = 3;
/// Token kind of the timers that run script steps.
const STEP: u64 = 1;
/// Token kind of the scripted timers themselves (arg = slot).
const USER: u64 = 2;

/// One script step, applied to slot `slot` of the node it belongs to.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Cancel the slot's timer, if armed, and arm a fresh one.
    Set { slot: usize, delay_ms: u64 },
    /// Re-arm the slot's timer (arming one if none is pending).
    Rearm { slot: usize, delay_ms: u64 },
    /// Cancel the slot's timer, if armed.
    Cancel { slot: usize },
}

/// What the scripted nodes observed, shared across protocol instances
/// (a crash-restart replaces the instance, not the record).
#[derive(Debug, Default)]
struct Record {
    /// `(time_ns, node, token)` of every scripted timer that fired.
    fired: Vec<(u64, u32, u64)>,
    /// `rearm_timer` calls refused although the slot was armed.
    refused: usize,
    /// Results of `Probe` calls made by unit tests.
    probes: Vec<bool>,
}

/// Runs `steps` (`(at_ms, op)`, already filtered to this node) and
/// records every scripted timer that fires.
struct Scripted {
    steps: Rc<Vec<(u64, Op)>>,
    /// `false`: every `Rearm` step runs as `cancel_timer` + `set_timer`.
    rearm: bool,
    ids: [Option<TimerId>; SLOTS],
    record: Rc<RefCell<Record>>,
}

impl Scripted {
    fn new(steps: Rc<Vec<(u64, Op)>>, rearm: bool, record: Rc<RefCell<Record>>) -> Self {
        Scripted {
            steps,
            rearm,
            ids: [None; SLOTS],
            record,
        }
    }

    fn set(&mut self, ctx: &mut ProtocolContext<'_>, slot: usize, delay_ms: u64) {
        if let Some(old) = self.ids[slot].take() {
            ctx.cancel_timer(old);
        }
        let token = TimerToken::compose(USER, slot as u64);
        self.ids[slot] = Some(ctx.set_timer(SimDuration::from_millis(delay_ms), token));
    }

    fn apply(&mut self, ctx: &mut ProtocolContext<'_>, op: Op) {
        match op {
            Op::Set { slot, delay_ms } => self.set(ctx, slot, delay_ms),
            Op::Rearm { slot, delay_ms } => match self.ids[slot] {
                Some(id) if self.rearm => {
                    if !ctx.rearm_timer(id, SimDuration::from_millis(delay_ms)) {
                        self.record.borrow_mut().refused += 1;
                    }
                }
                _ => self.set(ctx, slot, delay_ms),
            },
            Op::Cancel { slot } => {
                if let Some(id) = self.ids[slot].take() {
                    ctx.cancel_timer(id);
                }
            }
        }
    }
}

impl RoutingProtocol for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        // A restarted instance picks the script up where the clock is.
        let now = ctx.now();
        for (i, &(at_ms, _)) in self.steps.iter().enumerate() {
            let at = SimTime::from_millis(at_ms);
            if at >= now {
                ctx.set_timer(
                    at.saturating_since(now),
                    TimerToken::compose(STEP, i as u64),
                );
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        match token.kind() {
            STEP => {
                let (_, op) = self.steps[token.arg() as usize];
                self.apply(ctx, op);
            }
            USER => {
                self.ids[token.arg() as usize] = None;
                let fired = (ctx.now().as_nanos(), ctx.node().index() as u32, token.0);
                self.record.borrow_mut().fired.push(fired);
            }
            other => panic!("unknown timer kind {other}"),
        }
    }
}

/// A script for a line of nodes: per-node steps, node crash-restarts
/// `(node, at_ms, down_ms)`, and the `run_until` boundaries (ms).
struct Script {
    nodes: usize,
    steps: Vec<(usize, u64, Op)>,
    crashes: Vec<(usize, u64, u64)>,
    windows: Vec<u64>,
}

/// Runs `script` with re-arms (`rearm = true`) or with every re-arm
/// replaced by cancel + set, returning the record, engine counters and
/// rendered trace.
fn play(script: &Script, rearm: bool) -> (Record, SimStats, String) {
    let record = Rc::new(RefCell::new(Record::default()));
    let mut b = SimulatorBuilder::new();
    let nodes = b.add_nodes(script.nodes);
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], LinkConfig::default()).unwrap();
    }
    let mut sim: Simulator = b.build().unwrap();
    let per_node: Vec<Rc<Vec<(u64, Op)>>> = (0..script.nodes)
        .map(|n| {
            let steps = script.steps.iter().filter(|s| s.0 == n);
            Rc::new(steps.map(|&(_, at, op)| (at, op)).collect())
        })
        .collect();
    for (i, &node) in nodes.iter().enumerate() {
        let proto = Scripted::new(Rc::clone(&per_node[i]), rearm, Rc::clone(&record));
        sim.install_protocol(node, Box::new(proto)).unwrap();
    }
    for &(n, at_ms, down_ms) in &script.crashes {
        let fresh = Scripted::new(Rc::clone(&per_node[n]), rearm, Rc::clone(&record));
        sim.schedule_node_crash_restart(
            SimTime::from_millis(at_ms),
            nodes[n],
            SimDuration::from_millis(down_ms),
            Box::new(fresh),
        )
        .unwrap();
    }
    sim.start();
    let mut windows = script.windows.clone();
    windows.sort_unstable();
    for until in windows {
        sim.run_until(SimTime::from_millis(until));
    }
    sim.run_to_completion();
    let stats = sim.stats();
    let trace = sim.trace().render_lines();
    drop(sim);
    let record = Rc::try_unwrap(record)
        .expect("simulator dropped")
        .into_inner();
    (record, stats, trace)
}

/// Draws re-arms twice as often as sets or cancels: they are the
/// operation under test.
fn op(kind: u32, slot: usize, delay_ms: u64) -> Op {
    match kind {
        0 => Op::Set { slot, delay_ms },
        1 => Op::Cancel { slot },
        _ => Op::Rearm { slot, delay_ms },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Re-arming in place fires exactly the timers, at exactly the
    /// instants and in exactly the order, that cancel + set does — across
    /// run windows and node crash-restarts — with no more calendar keys.
    #[test]
    fn rearm_matches_cancel_then_set(
        steps in prop::collection::vec(((0usize..3, 0u32..4), (0usize..SLOTS, 0u64..24), 0u64..30), 1..48),
        crashes in prop::collection::vec((0usize..3, (0u64..200, 1u64..60)), 0..3),
        windows in prop::collection::vec(0u64..400, 1..6),
    ) {
        // Times on a 5 ms grid, so that deadlines often coincide and ties
        // between same-instant timers decide the order.
        let script = Script {
            nodes: 3,
            steps: steps
                .iter()
                .map(|&((node, kind), (slot, delay), at)| (node, 5 * at, op(kind, slot, 5 * delay)))
                .collect(),
            crashes: crashes.iter().map(|&(n, (at, down))| (n, at, down)).collect(),
            windows,
        };
        let (rearmed, rearmed_stats, rearmed_trace) = play(&script, true);
        let (reference, reference_stats, reference_trace) = play(&script, false);
        prop_assert_eq!(rearmed.refused, 0);
        prop_assert_eq!(&rearmed.fired, &reference.fired);
        prop_assert_eq!(rearmed_trace, reference_trace);
        prop_assert_eq!(rearmed_stats.events_processed, reference_stats.events_processed);
        prop_assert!(rearmed_stats.calendar_pushes <= reference_stats.calendar_pushes);
    }
}

fn set(slot: usize, delay_ms: u64) -> Op {
    Op::Set { slot, delay_ms }
}

fn rearm(slot: usize, delay_ms: u64) -> Op {
    Op::Rearm { slot, delay_ms }
}

/// A one-node script without crashes, run to completion.
fn single(steps: &[(u64, Op)]) -> (Record, SimStats) {
    let script = Script {
        nodes: 1,
        steps: steps.iter().map(|&(at, op)| (0, at, op)).collect(),
        crashes: Vec::new(),
        windows: Vec::new(),
    };
    let (record, stats, _) = play(&script, true);
    (record, stats)
}

fn ms(t: u64) -> u64 {
    SimTime::from_millis(t).as_nanos()
}

#[test]
fn rearm_to_an_earlier_deadline_fires_early_once() {
    let (record, stats) = single(&[(0, set(0, 100)), (10, rearm(0, 20))]);
    assert_eq!(record.fired, [(ms(30), 0, TimerToken::compose(USER, 0).0)]);
    // The key queued for 100 ms no longer stands for the timer.
    assert_eq!(stats.timer_keys_skipped, 1);
    // Two step timers, the first key and the earlier key.
    assert_eq!(stats.calendar_pushes, 4);
}

#[test]
fn a_later_rearm_is_pushed_again_and_then_fires() {
    let (record, stats) = single(&[
        (0, set(0, 10)),
        // Armed before the re-arm, due at the re-armed deadline: fires
        // first. Armed after it, at the same deadline: fires after.
        (5, set(1, 20)),
        (5, rearm(0, 20)),
        (5, set(2, 20)),
    ]);
    let token = |slot| TimerToken::compose(USER, slot).0;
    assert_eq!(
        record.fired,
        [
            (ms(25), 0, token(1)),
            (ms(25), 0, token(0)),
            (ms(25), 0, token(2))
        ]
    );
    // Slot 0's key popped at 10 ms and was pushed again for 25 ms.
    assert_eq!(stats.timer_keys_skipped, 1);
    assert_eq!(stats.calendar_pushes, 4 + 3 + 1);
    assert_eq!(stats.events_processed, 4 + 3);
}

#[test]
fn a_rearm_to_the_same_deadline_goes_behind_timers_armed_before_it() {
    let (record, _) = single(&[(0, set(0, 30)), (10, set(1, 20)), (20, rearm(0, 10))]);
    let token = |slot| TimerToken::compose(USER, slot).0;
    assert_eq!(record.fired, [(ms(30), 0, token(1)), (ms(30), 0, token(0))]);
}

/// Arms one timer for 10 ms at start, then at `at_ms` (after cancelling
/// it, with `cancel_first`) re-arms it for 50 ms and records whether the
/// re-arm was accepted.
struct Probe {
    at_ms: u64,
    cancel_first: bool,
    id: Option<TimerId>,
    record: Rc<RefCell<Record>>,
}

impl RoutingProtocol for Probe {
    fn name(&self) -> &'static str {
        "probe"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn on_start(&mut self, ctx: &mut ProtocolContext<'_>) {
        self.id = Some(ctx.set_timer(SimDuration::from_millis(10), TimerToken::compose(USER, 0)));
        let at = SimDuration::from_millis(self.at_ms);
        ctx.set_timer(at, TimerToken::compose(STEP, 0));
    }

    fn on_timer(&mut self, ctx: &mut ProtocolContext<'_>, token: TimerToken) {
        let Some(id) = self.id else { return };
        match token.kind() {
            STEP => {
                if self.cancel_first {
                    ctx.cancel_timer(id);
                }
                let accepted = ctx.rearm_timer(id, SimDuration::from_millis(50));
                self.record.borrow_mut().probes.push(accepted);
            }
            _ => {
                let fired = (ctx.now().as_nanos(), 0, token.0);
                self.record.borrow_mut().fired.push(fired);
            }
        }
    }
}

fn probe(at_ms: u64, cancel_first: bool) -> Record {
    let record = Rc::new(RefCell::new(Record::default()));
    let mut b = SimulatorBuilder::new();
    let node = b.add_node();
    let mut sim = b.build().unwrap();
    let proto = Probe {
        at_ms,
        cancel_first,
        id: None,
        record: Rc::clone(&record),
    };
    sim.install_protocol(node, Box::new(proto)).unwrap();
    sim.start();
    sim.run_to_completion();
    drop(sim);
    Rc::try_unwrap(record)
        .expect("simulator dropped")
        .into_inner()
}

#[test]
fn rearming_a_fired_or_cancelled_timer_is_refused() {
    let token = TimerToken::compose(USER, 0).0;
    // Fired at 10 ms, re-armed at 20 ms: refused, nothing fires again.
    let fired = probe(20, false);
    assert_eq!(fired.probes, [false]);
    assert_eq!(fired.fired, [(ms(10), 0, token)]);
    // Cancelled, then re-armed at 5 ms: refused, nothing fires at all.
    let cancelled = probe(5, true);
    assert_eq!(cancelled.probes, [false]);
    assert!(cancelled.fired.is_empty());
    // Still armed at 5 ms: accepted, fires at 55 ms.
    let armed = probe(5, false);
    assert_eq!(armed.probes, [true]);
    assert_eq!(armed.fired, [(ms(55), 0, token)]);
}
