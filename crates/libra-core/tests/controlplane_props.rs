//! Property tests on the shared harvest control plane
//! (`libra_core::controlplane`): for arbitrary event sequences the loan
//! ledger conserves volume (Σ borrowed per source equals that source's
//! `lent_out`), grants stay within nominal and above the floor, every loan
//! dies with its source (the timeliness law), and identical inputs yield
//! identical action traces (the property the cross-substrate fidelity test
//! builds on).

use libra_core::controlplane::{
    Action, Admission, ControlConfig, ControlPlane, LendFailure, Observation,
};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{Prediction, PredictionPath, Wake};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};

const SLOTS: usize = 6;

/// One abstract control-plane event over a small slot universe (a slot is
/// "an invocation currently running on the node"; admitting into an occupied
/// slot is a no-op, so every sequence is valid by construction).
#[derive(Clone, Debug)]
enum Op {
    Admit { slot: usize, cpu: u64, mem: u64, pred: Option<(u64, u64, u64)> },
    Observe { slot: usize, busy: u64, mem_used: u64, throttled: bool },
    Complete { slot: usize },
    Oom { slot: usize },
    Abort { slot: usize },
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0usize..SLOTS,
            (500u64..6_000, 128u64..4_096),
            0u8..4,
            (100u64..6_000, 64u64..4_096, 100u64..2_000)
        )
            .prop_map(|(slot, (cpu, mem), unpredicted, pred)| Op::Admit {
                slot,
                cpu,
                mem,
                // Mostly predicted (the interesting paths), sometimes not.
                pred: if unpredicted == 0 { None } else { Some(pred) },
            }),
        (0usize..SLOTS, 0u64..6_000, 0u64..4_096, 0u8..2).prop_map(
            |(slot, busy, mem_used, throttled)| Op::Observe {
                slot,
                busy,
                mem_used,
                throttled: throttled == 1,
            }
        ),
        (0usize..SLOTS).prop_map(|slot| Op::Complete { slot }),
        (0usize..SLOTS).prop_map(|slot| Op::Oom { slot }),
        (0usize..SLOTS).prop_map(|slot| Op::Abort { slot }),
    ]
}

/// A concrete control-plane event: what an [`Op`] resolves to once its slot
/// is looked up.
#[derive(Clone, Copy, Debug)]
enum Event {
    Admit(Admission),
    Observe(NodeId, InvocationId, Observation),
    Complete(InvocationId),
    Oom(InvocationId),
    Abort(InvocationId),
}

/// Resolve `ops`, each on the node paired with it, into timed events: every
/// node has its own slots, ids are handed out cluster-wide in admission
/// order, and ops on an empty (or, for `Admit`, occupied) slot drop out. The
/// safeguard's per-function history is the one state a cluster's nodes
/// share, so each node deploys its own four functions.
fn resolve(ops: &[(usize, Op)]) -> Vec<(usize, SimTime, Event)> {
    let mut slots: BTreeMap<(usize, usize), InvocationId> = BTreeMap::new();
    let mut next_id = 0u32;
    let mut events = Vec::new();
    for (i, (node, o)) in ops.iter().enumerate() {
        let now = SimTime::from_millis(37 * (i as u64 + 1));
        let live = |slot: usize| slots.get(&(*node, slot)).copied();
        let ev = match *o {
            Op::Admit { slot, cpu, mem, pred } => {
                if live(slot).is_some() {
                    continue;
                }
                let inv = InvocationId(next_id);
                next_id += 1;
                slots.insert((*node, slot), inv);
                Event::Admit(Admission {
                    inv,
                    node: NodeId(*node as u32),
                    func: node * 4 + slot % 4,
                    nominal: ResourceVec::new(cpu, mem),
                    mem_floor_mb: 64,
                    pred: pred.map(|(c, m, d)| Prediction {
                        cpu_millis: c,
                        mem_mb: m,
                        duration: SimDuration::from_millis(d),
                        path: PredictionPath::Histogram,
                    }),
                })
            }
            Op::Observe { slot, busy, mem_used, throttled } => {
                let Some(inv) = live(slot) else { continue };
                let obs = Observation {
                    cpu_busy_millis: busy,
                    mem_used_mb: mem_used,
                    cpu_throttled: throttled,
                };
                Event::Observe(NodeId(*node as u32), inv, obs)
            }
            Op::Oom { slot } => match live(slot) {
                Some(inv) => Event::Oom(inv),
                None => continue,
            },
            Op::Complete { slot } => match slots.remove(&(*node, slot)) {
                Some(inv) => Event::Complete(inv),
                None => continue,
            },
            Op::Abort { slot } => match slots.remove(&(*node, slot)) {
                Some(inv) => Event::Abort(inv),
                None => continue,
            },
        };
        events.push((*node, now, ev));
    }
    events
}

/// Apply one event; `sampled` is set when a visit took its usage sample.
fn feed(cp: &mut ControlPlane, ev: Event, now: SimTime, sampled: &Cell<bool>) -> Vec<Action> {
    match ev {
        Event::Admit(a) => cp.on_admit(a, now),
        Event::Observe(node, inv, obs) => cp.on_observe_at(node, inv, now, || {
            sampled.set(true);
            obs
        }),
        Event::Complete(inv) => cp.on_complete(inv, now),
        Event::Oom(inv) => cp.on_oom(inv, now),
        Event::Abort(inv) => cp.on_abort(inv, now),
    }
}

/// Drive a fresh control plane through `ops`, checking invariants after
/// every event; returns the full emitted action sequence and the counters.
fn drive(ops: &[Op]) -> (Vec<Action>, libra_core::ControlCounters) {
    let mut cp = ControlPlane::new(ControlConfig::default(), 4, 1);
    let mut nominal: BTreeMap<InvocationId, ResourceVec> = BTreeMap::new();
    let mut trace = Vec::new();
    let on_node_0: Vec<(usize, Op)> = ops.iter().map(|o| (0, o.clone())).collect();

    for (_, now, ev) in resolve(&on_node_0) {
        let actions = feed(&mut cp, ev, now, &Cell::new(false));
        match ev {
            Event::Admit(a) => {
                nominal.insert(a.inv, a.nominal);
            }
            Event::Observe(..) => {}
            // An OOM restart keeps the invocation alive at nominal.
            Event::Oom(inv) => assert_eq!(cp.charge(inv), nominal.get(&inv).copied()),
            Event::Complete(inv) | Event::Abort(inv) => {
                assert!(!cp.is_tracked(inv), "retired invocation still ledgered");
                nominal.remove(&inv);
            }
        }

        for a in &actions {
            match *a {
                Action::SetGrant { inv, grant, freed } => {
                    let nom = nominal[&inv];
                    assert!(grant.fits_within(&nom), "grant {grant:?} above nominal {nom:?}");
                    assert!(grant.cpu_millis >= 100, "grant below the 0.1-core floor");
                    assert_eq!(freed, nom.saturating_sub(&grant));
                }
                Action::Lend { vol, .. } | Action::Return { vol, .. } => {
                    assert!(!vol.is_zero(), "zero-volume loan traffic");
                }
                _ => {}
            }
        }
        trace.extend(actions);

        cp.check_conservation().unwrap_or_else(|e| panic!("after {ev:?}: {e}"));
        // No entry may charge more than its entitlement, so the node total
        // is bounded by the live entitlements.
        let cap = nominal.values().fold(ResourceVec::ZERO, |acc, nom| acc + *nom);
        assert!(
            cp.committed_on(NodeId(0)).fits_within(&cap),
            "committed volume exceeds live entitlements"
        );
    }
    (trace, cp.counters())
}

/// The knobs that move the first read of a visit's sample: the defaults,
/// the safeguard off (Libra-NS), continuous acceleration off.
fn knobs() -> [ControlConfig; 3] {
    [
        ControlConfig::default(),
        ControlConfig { safeguard: false, ..ControlConfig::default() },
        ControlConfig { continuous_acceleration: false, ..ControlConfig::default() },
    ]
}

/// Everything a visit could change: the ledgers, the pools' operation
/// counts and the counters.
fn state(cp: &ControlPlane) -> (String, libra_core::ControlCounters, Vec<(u64, u64)>) {
    (cp.dump(), cp.counters(), cp.pools().iter().map(|p| p.op_counts()).collect())
}

/// Every invocation an event's arguments or its emitted actions name.
fn named(ev: Event, actions: &[Action]) -> BTreeSet<InvocationId> {
    let mut out = BTreeSet::new();
    out.insert(match ev {
        Event::Admit(a) => a.inv,
        Event::Observe(_, inv, _) | Event::Complete(inv) | Event::Oom(inv) | Event::Abort(inv) => {
            inv
        }
    });
    for a in actions {
        match *a {
            Action::Admitted { inv, .. }
            | Action::SetGrant { inv, .. }
            | Action::PreemptiveRelease { inv, .. }
            | Action::Requeue { inv, .. } => {
                out.insert(inv);
            }
            Action::Lend { source, borrower, .. }
            | Action::Return { source, borrower, .. }
            | Action::Revoke { source, borrower, .. } => {
                out.extend([source, borrower]);
            }
        }
    }
    out
}

/// `watches` of every ledgered invocation.
fn watched(
    cp: &ControlPlane,
    live: &BTreeMap<InvocationId, NodeId>,
) -> BTreeMap<InvocationId, Wake> {
    live.iter().map(|(&inv, &node)| (inv, cp.watches(node, inv))).collect()
}

/// The invocations whose `watches` differs between `before` and `after`
/// (both ledgered throughout), with both values.
fn moved(
    before: &BTreeMap<InvocationId, Wake>,
    after: &BTreeMap<InvocationId, Wake>,
) -> Vec<(InvocationId, Wake, Wake)> {
    before
        .iter()
        .filter_map(|(&inv, &b)| after.get(&inv).filter(|&&a| a != b).map(|&a| (inv, b, a)))
        .collect()
}

/// Whether wake `a` can hold where `b` does not: a lower footprint, or a
/// node wait `b` lacks while `b` is not every tick.
fn earlier(a: Wake, b: Wake) -> bool {
    a.footprint_mb < b.footprint_mb || (a.node_change && !b.node_change && b.footprint_mb > 0)
}

/// Footprints below `line` that a visit left dormant until `line` is
/// probed with: none below 0, else 0, the one it saw and `line - 1`.
fn below(line: u64, seen: u64) -> Vec<u64> {
    match line {
        0 => Vec::new(),
        _ => vec![0, seen.min(line - 1), line - 1],
    }
}

proptest! {
    /// Conservation + sanity: arbitrary admit/observe/complete/oom/abort
    /// sequences keep the ledger balanced (checked after every event inside
    /// [`drive`]) and no emitted grant ever exceeds nominal.
    #[test]
    fn ledger_conserves_volume(ops in prop::collection::vec(op(), 1..120)) {
        drive(&ops);
    }

    /// Determinism: the same event sequence always produces the same action
    /// trace and counters — the contract that makes simulator and live
    /// traces comparable.
    #[test]
    fn same_inputs_same_action_trace(ops in prop::collection::vec(op(), 1..100)) {
        let (a, ca) = drive(&ops);
        let (b, cb) = drive(&ops);
        prop_assert_eq!(a, b, "action traces diverged on replay");
        prop_assert_eq!(ca, cb, "counters diverged on replay");
    }

    /// A cluster's control plane is the product of its nodes': the simulator
    /// drives one instance over every node, the live cluster one instance
    /// per node, and both must decide alike. Interleave the op stream over
    /// three nodes of one control plane; each node's share of the actions,
    /// its committed volume and the summed counters must equal those of
    /// three single-node control planes fed only their own node's events.
    #[test]
    fn a_cluster_is_the_product_of_its_nodes(
        ops in prop::collection::vec((0usize..3, op()), 1..150)
    ) {
        let mut cluster = ControlPlane::new(ControlConfig::default(), 12, 3);
        let mut alone: Vec<ControlPlane> =
            (0..3).map(|_| ControlPlane::new(ControlConfig::default(), 12, 1)).collect();
        for (node, now, ev) in resolve(&ops) {
            // The lone control plane calls its only node 0.
            let local = match ev {
                Event::Admit(a) => Event::Admit(Admission { node: NodeId(0), ..a }),
                Event::Observe(_, inv, obs) => Event::Observe(NodeId(0), inv, obs),
                other => other,
            };
            let mut want = feed(&mut alone[node], local, now, &Cell::new(false));
            if let Some(Action::Admitted { node: n, .. }) = want.first_mut() {
                *n = NodeId(node as u32);
            }
            let got = feed(&mut cluster, ev, now, &Cell::new(false));
            prop_assert_eq!(got, want, "node {}, {:?}", node, ev);
            prop_assert_eq!(cluster.check_conservation(), Ok(()));
            prop_assert_eq!(alone[node].check_conservation(), Ok(()));
            for (k, cp) in alone.iter().enumerate() {
                prop_assert_eq!(cluster.committed_on(NodeId(k as u32)), cp.committed_on(NodeId(0)));
            }
        }
        let mut sum = libra_core::ControlCounters::default();
        for c in alone.iter().map(ControlPlane::counters) {
            sum.loans_expired += c.loans_expired;
            sum.loans_reharvested += c.loans_reharvested;
            sum.loans_crashed += c.loans_crashed;
            sum.crash_sweeps += c.crash_sweeps;
        }
        prop_assert_eq!(cluster.counters(), sum);
        prop_assert_eq!(cluster.ledger_len(), alone.iter().map(ControlPlane::ledger_len).sum::<usize>());
    }

    /// A monitor visit pulls its usage sample only when a decision reads it,
    /// so a visit that did not sample could not act: it emitted nothing and
    /// left the ledgers, the pools (their operation counts included) and the
    /// counters exactly as they were. Checked under the default knobs and
    /// with the safeguard (Libra-NS) or continuous acceleration off, which
    /// move the first read of the sample.
    #[test]
    fn a_visit_that_does_not_sample_changes_nothing(
        ops in prop::collection::vec((0usize..3, op()), 1..150)
    ) {
        for cfg in knobs() {
            let mut cp = ControlPlane::new(cfg, 12, 3);
            for (_, now, ev) in resolve(&ops) {
                let before = state(&cp);
                let sampled = Cell::new(false);
                let actions = feed(&mut cp, ev, now, &sampled);
                if matches!(ev, Event::Observe(..)) && !sampled.get() {
                    prop_assert_eq!(actions, [], "{:?} acted without sampling", ev);
                    prop_assert_eq!(state(&cp), before, "{:?} moved state without sampling", ev);
                }
            }
        }
    }

    /// `ControlPlane::watches` is the wake condition a visit that emitted
    /// nothing leaves. Three things are checked after every event, under
    /// the same three knobs as above:
    ///
    /// * An event moves the condition of an entry it does not name (in its
    ///   arguments or its actions, a driver's `lend_failed` included: some
    ///   emitted lends are refused here, as a substrate may) only on its own
    ///   node, and a visit there that emitted nothing never makes it
    ///   earlier. Everything else on a node is a change of the node, which
    ///   wakes a node wait.
    /// * Outside `NEVER`, a visit is a no-op that never samples — no
    ///   actions; ledgers, pools (their op counts included) and counters
    ///   untouched.
    /// * After a visit that returned nothing, and until the next event on
    ///   its node, a visit with the same busy CPU, no throttling and a
    ///   footprint below the condition's is a no-op too (it may sample).
    #[test]
    fn only_an_entrys_own_events_move_watches_and_outside_it_a_visit_is_a_no_op(
        ops in prop::collection::vec((0usize..3, op()), 1..150),
        refusals in prop::collection::vec(0u8..4, 150..151),
    ) {
        for cfg in knobs() {
            let mut cp = ControlPlane::new(cfg, 12, 3);
            let mut live: BTreeMap<InvocationId, NodeId> = BTreeMap::new();
            // Entries a visit left dormant: node, busy CPU and footprint
            // seen, and the condition it left.
            let mut dormant: BTreeMap<InvocationId, (NodeId, Observation, Wake)> = BTreeMap::new();
            for (k, (node, now, ev)) in resolve(&ops).into_iter().enumerate() {
                let node = NodeId(node as u32);
                let before = watched(&cp, &live);
                let actions = feed(&mut cp, ev, now, &Cell::new(false));
                match ev {
                    Event::Admit(a) => {
                        live.insert(a.inv, a.node);
                    }
                    Event::Complete(inv) | Event::Abort(inv) => {
                        live.remove(&inv);
                    }
                    Event::Observe(..) | Event::Oom(_) => {}
                }
                let mut names = named(ev, &actions);

                let lends: Vec<_> = actions
                    .iter()
                    .filter_map(|a| match *a {
                        Action::Lend { source, borrower, vol } => Some((source, borrower, vol)),
                        _ => None,
                    })
                    .collect();
                let refused = match refusals[k % refusals.len()] {
                    2 => lends.first().map(|&l| (l, LendFailure::NoCapacity)),
                    3 => lends.last().map(|&l| (l, LendFailure::SourceGone)),
                    _ => None,
                };
                if let Some(((source, borrower, vol), why)) = refused {
                    cp.lend_failed(source, borrower, vol, why, now);
                    names.extend([source, borrower]);
                }
                let quiet = matches!(ev, Event::Observe(..)) && actions.is_empty();
                for (inv, b, a) in moved(&before, &watched(&cp, &live)) {
                    if names.contains(&inv) {
                        continue;
                    }
                    prop_assert_eq!(live[&inv], node, "{:?} moved {}'s wake on another node", ev, inv);
                    prop_assert!(!(quiet && earlier(a, b)), "{:?} woke {} earlier: {:?} -> {:?}", ev, inv, b, a);
                }

                for (&inv, &at) in &live {
                    if cp.watches(at, inv) != Wake::NEVER {
                        continue;
                    }
                    let before = state(&cp);
                    let acts = cp.on_observe_at(at, inv, now, || {
                        panic!("{inv} is not watched, yet its visit sampled")
                    });
                    prop_assert_eq!(acts, [], "{} is not watched, yet its visit acted", inv);
                    prop_assert_eq!(state(&cp), before, "{} is not watched, yet its visit moved state", inv);
                }

                dormant.retain(|inv, (at, ..)| *at != node && live.contains_key(inv));
                if let (Event::Observe(_, inv, obs), true) = (ev, quiet) {
                    dormant.insert(inv, (node, obs, cp.watches(node, inv)));
                }
                for (&inv, &(at, seen, wake)) in &dormant {
                    for mem_used_mb in below(wake.footprint_mb, seen.mem_used_mb) {
                        let obs = Observation { mem_used_mb, cpu_throttled: false, ..seen };
                        let before = state(&cp);
                        let acts = cp.on_observe_at(at, inv, now, || obs);
                        prop_assert_eq!(acts, [], "{} acted below its wake {:?} at {:?}", inv, wake, obs);
                        prop_assert_eq!(state(&cp), before, "{} moved state below its wake {:?}", inv, wake);
                    }
                }
            }
        }
    }
}
