//! Loom interleaving tests for the sharded scheduler's admission/revocation
//! accounting — the concurrency surface the live driver leans on.
//!
//! Build and run with:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test -p libra-live --test loom_shard
//! ```
//!
//! Each test wraps its scenario in `loom::model`, which re-executes the body
//! across many perturbed interleavings (see `stubs/loom`: a stochastic
//! explorer, not exhaustive DPOR). The assertions are *conservation* claims,
//! which must hold on every interleaving:
//!
//! * concurrent admissions never oversubscribe a shard slice,
//! * rebookings without a capacity check (the live driver booking a
//!   resident at what the ledger charges it — a harvest, a safeguard or OOM
//!   restore, the release at the end) racing each other neither mint nor leak
//!   capacity — however far the slice was over-reserved in between, nothing
//!   is reserved once every resident is booked back to nothing,
//! * a shard stall/resume racing a release loses no freed capacity.

#![cfg(loom)]

use libra_core::sharding::{ScheduleRequest, ShardedScheduler};
use libra_sim::resources::ResourceVec;
use libra_sim::time::{SimDuration, SimTime};
use loom::sync::atomic::{AtomicUsize, Ordering};
use loom::sync::Arc;

const CAPACITY_CPU: u64 = 8_000;
const CAPACITY_MEM: u64 = 8_192;

fn capacity() -> ResourceVec {
    ResourceVec::new(CAPACITY_CPU, CAPACITY_MEM)
}

fn sched() -> ShardedScheduler {
    // One shard, one node: the slice is the whole node.
    ShardedScheduler::spawn(1, 1, capacity(), 0.9)
}

fn req(nominal: ResourceVec) -> ScheduleRequest {
    ScheduleRequest {
        nominal,
        extra: ResourceVec::ZERO,
        func: 0,
        duration: SimDuration::from_millis(100),
        now: SimTime::ZERO,
    }
}

/// Assert nothing is reserved: the whole slice is free (nothing leaked) and
/// not a sliver more can be charged on top of it (nothing minted).
fn assert_nothing_reserved(s: &ShardedScheduler) {
    assert_eq!(s.slice(0, 0).free(), capacity(), "reservations survive");
    assert!(s.try_charge(0, 0, capacity()), "the whole slice must be chargeable");
    assert!(!s.try_charge(0, 0, ResourceVec::new(100, 0)), "slice minted capacity");
}

#[test]
fn concurrent_admissions_never_oversubscribe() {
    loom::model(|| {
        let s = Arc::new(sched());
        let admitted = Arc::new(AtomicUsize::new(0));
        // 4 racing admissions of 3 cores on an 8-core slice: at most 2 fit.
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let s = Arc::clone(&s);
                let admitted = Arc::clone(&admitted);
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        let d = s.schedule_on(0, req(ResourceVec::new(3_000, 1_024)));
                        if d.node.is_some() {
                            admitted.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let n = admitted.load(Ordering::SeqCst);
        assert!(n <= 2, "{n} admissions of 3 cores on an 8-core slice");
        // Releasing every admission restores the slice exactly.
        for _ in 0..n {
            s.release(0, 0, ResourceVec::new(3_000, 1_024));
        }
        assert_nothing_reserved(&s);
    });
}

#[test]
fn rebooked_restores_racing_end_with_nothing_reserved() {
    loom::model(|| {
        let s = Arc::new(sched());
        // Two admitted residents, harvested down to 2 cores / 1 GB each, are
        // restored to nominals that cannot both fit: whichever restore lands
        // second over-reserves the slice, and the racing rebookings to
        // nothing (the drivers' completions) must bring it all the way back —
        // the live safeguard / OOM-restart scenario.
        let harvested = ResourceVec::new(2_000, 1_024);
        let mut handles = Vec::new();
        for nominal in [ResourceVec::new(6_000, 4_096), ResourceVec::new(6_000, 6_144)] {
            assert!(s.try_charge(0, 0, harvested), "two harvested residents fit");
            let s = Arc::clone(&s);
            handles.push(loom::thread::spawn(move || {
                s.rebook(0, 0, harvested, nominal);
                loom::thread::yield_now();
                s.rebook(0, 0, nominal, ResourceVec::ZERO);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_nothing_reserved(&s);
    });
}

#[test]
fn release_racing_shard_stall_loses_nothing() {
    loom::model(|| {
        let s = Arc::new(sched());
        // Admit 2 cores so there is a real charge to give back.
        let d = s.schedule_on(0, req(ResourceVec::new(2_000, 1_024)));
        assert!(d.node.is_some(), "empty slice must admit 2 cores");

        let staller = {
            let s = Arc::clone(&s);
            loom::thread::spawn(move || {
                s.stall(0);
                s.resume(0);
            })
        };
        let releaser = {
            let s = Arc::clone(&s);
            loom::thread::spawn(move || {
                // Lands before the stall, while the shard is stalled, or
                // after the resume — the shard's books take it all the same.
                s.release(0, 0, ResourceVec::new(2_000, 1_024));
            })
        };
        staller.join().unwrap();
        releaser.join().unwrap();
        assert!(!s.is_stalled(0), "shard must place again after the resume");
        assert_nothing_reserved(&s);
    });
}
