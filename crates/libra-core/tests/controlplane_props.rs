//! Property tests on the shared harvest control plane
//! (`libra_core::controlplane`): for arbitrary event sequences the loan
//! ledger conserves volume (Σ borrowed per source equals that source's
//! `lent_out`), grants stay within nominal and above the floor, every loan
//! dies with its source (the timeliness law), and identical inputs yield
//! identical action traces (the property the cross-substrate fidelity test
//! builds on).

use libra_core::controlplane::{Action, Admission, ControlConfig, ControlPlane, Observation};
use libra_sim::ids::{InvocationId, NodeId};
use libra_sim::invocation::{Prediction, PredictionPath};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Drive a fresh control plane through `ops`, checking invariants after
/// every event; returns the full emitted action sequence and the counters.
fn drive(ops: &[Op]) -> (Vec<Action>, libra_core::ControlCounters) {
    let mut cp = ControlPlane::new(ControlConfig::default(), 4, 1);
    let mut slots: [Option<InvocationId>; SLOTS] = [None; SLOTS];
    let mut nominal: BTreeMap<InvocationId, ResourceVec> = BTreeMap::new();
    let mut next_id = 0u32;
    let mut trace = Vec::new();
    let mut t = 0u64;

    for o in ops {
        t += 37;
        let now = SimTime::from_millis(t);
        let actions = match *o {
            Op::Admit { slot, cpu, mem, pred } => {
                if slots[slot].is_some() {
                    continue;
                }
                let inv = InvocationId(next_id);
                next_id += 1;
                slots[slot] = Some(inv);
                let nom = ResourceVec::new(cpu, mem);
                nominal.insert(inv, nom);
                cp.on_admit(
                    Admission {
                        inv,
                        node: NodeId(0),
                        func: slot % 4,
                        nominal: nom,
                        mem_floor_mb: 64,
                        pred: pred.map(|(c, m, d)| Prediction {
                            cpu_millis: c,
                            mem_mb: m,
                            duration: SimDuration::from_millis(d),
                            path: PredictionPath::Histogram,
                        }),
                    },
                    now,
                )
            }
            Op::Observe { slot, busy, mem_used, throttled } => {
                let Some(inv) = slots[slot] else { continue };
                cp.on_observe(
                    inv,
                    Observation {
                        cpu_busy_millis: busy,
                        mem_used_mb: mem_used,
                        cpu_throttled: throttled,
                    },
                    now,
                )
            }
            Op::Complete { slot } => {
                let Some(inv) = slots[slot].take() else { continue };
                let a = cp.on_complete(inv, now);
                assert!(!cp.is_tracked(inv), "completed invocation still ledgered");
                a
            }
            Op::Oom { slot } => {
                let Some(inv) = slots[slot] else { continue };
                let a = cp.on_oom(inv, now);
                // An OOM restart keeps the invocation alive at nominal.
                assert_eq!(cp.charge(inv), nominal.get(&inv).copied());
                a
            }
            Op::Abort { slot } => {
                let Some(inv) = slots[slot].take() else { continue };
                let a = cp.on_abort(inv, now);
                assert!(!cp.is_tracked(inv), "aborted invocation still ledgered");
                a
            }
        };

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

        cp.check_conservation().unwrap_or_else(|e| panic!("after {o:?}: {e}"));
        // No entry may charge more than its entitlement, so the node total
        // is bounded by the live entitlements.
        let cap: ResourceVec =
            slots.iter().flatten().fold(ResourceVec::ZERO, |acc, inv| acc + nominal[inv]);
        assert!(
            cp.committed_on(NodeId(0)).fits_within(&cap),
            "committed volume exceeds live entitlements"
        );
    }
    (trace, cp.counters())
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
}
