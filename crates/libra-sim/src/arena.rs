//! Slab/arena storage for in-flight invocations.
//!
//! The engine used to keep every [`Invocation`] in an append-only
//! `Vec<Invocation>` for the whole run. At the paper's scale (≈1k
//! invocations) that is invisible; at million-invocation traces it pins
//! hundreds of MB of dead lifecycle records — each completed invocation's
//! loans, breakdowns and integrals stay resident until the run ends.
//!
//! [`InvArena`] replaces it with a recycling slab: completed and terminally
//! aborted invocations are *retired*, their slot pushed onto a free list and
//! reused by the next admission. External identity is untouched — an
//! [`InvocationId`] is still the invocation's position in the sorted trace —
//! and a dense `id → slot` table (`u32::MAX` = never created or retired)
//! provides the generational check: looking up a retired id yields `None`,
//! which is exactly the "stale event" answer the engine's lazy-cancellation
//! paths need. Peak memory becomes proportional to the number of
//! *concurrently in-flight* invocations, not the trace length.
//!
//! Determinism: slot assignment (LIFO free list) and retirement order are
//! pure functions of the event sequence, and nothing observable (ids,
//! metrics) depends on slot numbers. Nodes hold their residents as slots,
//! but in admission order, so a walk over them never follows slot order.

use crate::ids::InvocationId;
use crate::invocation::Invocation;

/// Sentinel in the `id → slot` table: never created, or retired.
const NO_SLOT: u32 = u32::MAX;

/// Recycling slab of in-flight invocations with stable external ids.
pub struct InvArena {
    /// Slot storage. `None` = free (on the free list).
    slots: Vec<Option<Invocation>>,
    /// Free slot indices, reused LIFO.
    free: Vec<u32>,
    /// `InvocationId → slot`, `NO_SLOT` when absent.
    slot_of: Vec<u32>,
    /// Live invocations right now.
    live: usize,
    /// High-water mark of `live` over the run.
    peak_live: usize,
    /// Total invocations ever inserted.
    created: u64,
}

impl InvArena {
    /// An arena able to address ids `0..n_ids` (the trace length).
    pub fn with_id_capacity(n_ids: usize) -> Self {
        InvArena {
            slots: Vec::new(),
            free: Vec::new(),
            slot_of: vec![NO_SLOT; n_ids],
            live: 0,
            peak_live: 0,
            created: 0,
        }
    }

    /// Insert a fresh invocation; returns its slot. Panics if the id is out
    /// of range or already present.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a slot index is below the id count, and ids are u32"
    )]
    pub fn insert(&mut self, inv: Invocation) -> usize {
        let id = inv.id;
        assert_eq!(self.slot_of[id.idx()], NO_SLOT, "{id:?} inserted twice");
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(inv);
                s as usize
            }
            None => {
                self.slots.push(Some(inv));
                self.slots.len() - 1
            }
        };
        self.slot_of[id.idx()] = slot as u32;
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.created += 1;
        slot
    }

    /// Retire a live invocation: frees its slot for reuse. Panics if absent.
    pub fn retire(&mut self, id: InvocationId) {
        let slot = self.slot_of[id.idx()];
        assert_ne!(slot, NO_SLOT, "{id:?} retired twice (or never created)");
        self.slot_of[id.idx()] = NO_SLOT;
        self.slots[slot as usize] = None;
        self.free.push(slot);
        self.live -= 1;
    }

    /// Slot of a live invocation, or `None` if never created / retired —
    /// the generational staleness check for lazy-cancelled events.
    #[inline]
    pub fn slot_of(&self, id: InvocationId) -> Option<usize> {
        match self.slot_of.get(id.idx()) {
            Some(&s) if s != NO_SLOT => Some(s as usize),
            _ => None,
        }
    }

    /// Borrow by slot (panics on a free slot — callers hold slots of live
    /// invocations only).
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "arena contract — slots come from slot_of, which filters stale ids generationally; a free slot is engine corruption and must fail loudly"
    )]
    pub fn get(&self, slot: usize) -> &Invocation {
        self.slots[slot].as_ref().expect("free arena slot")
    }

    /// Mutably borrow by slot.
    #[inline]
    #[expect(
        clippy::expect_used,
        reason = "arena contract — slots come from slot_of, which filters stale ids generationally; a free slot is engine corruption and must fail loudly"
    )]
    pub fn get_mut(&mut self, slot: usize) -> &mut Invocation {
        self.slots[slot].as_mut().expect("free arena slot")
    }

    /// The invocation in `slot` (`None` when free), for walks over
    /// `0..slot_count()` that mutate as they go.
    pub fn at(&self, slot: usize) -> Option<&Invocation> {
        self.slots.get(slot)?.as_ref()
    }

    /// Slots ever allocated, free ones included.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Iterate the slots of all live invocations, in ascending slot order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.slots.iter().enumerate().filter(|(_, s)| s.is_some()).map(|(i, _)| i)
    }

    /// Number of live invocations.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of concurrently live invocations.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Total invocations ever inserted.
    pub fn created(&self) -> u64 {
        self.created
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{InputMeta, TrueDemand};
    use crate::ids::FunctionId;
    use crate::resources::ResourceVec;
    use crate::time::{SimDuration, SimTime};

    fn inv(id: u32) -> Invocation {
        Invocation::new(
            InvocationId(id),
            FunctionId(0),
            InputMeta::new(1, 0),
            TrueDemand {
                cpu_peak_millis: 1000,
                mem_peak_mb: 128,
                base_duration: SimDuration::from_secs(1),
            },
            ResourceVec::from_cores_mb(1, 256),
            SimTime::ZERO,
            SimDuration::ZERO,
        )
    }

    #[test]
    fn slots_recycle_and_peak_tracks_concurrency() {
        let mut a = InvArena::with_id_capacity(8);
        let s0 = a.insert(inv(0));
        let s1 = a.insert(inv(1));
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(a.live(), 2);
        a.retire(InvocationId(0));
        assert_eq!(a.slot_of(InvocationId(0)), None);
        assert_eq!(a.live(), 1);
        // Slot 0 is reused by the next insert; id 2 maps to it.
        let s2 = a.insert(inv(2));
        assert_eq!(s2, 0);
        assert_eq!(a.slot_of(InvocationId(2)), Some(0));
        assert_eq!(a.get(0).id, InvocationId(2));
        assert_eq!(a.peak_live(), 2);
        assert_eq!(a.created(), 3);
    }

    #[test]
    fn live_slots_skips_retired() {
        let mut a = InvArena::with_id_capacity(4);
        for i in 0..3 {
            a.insert(inv(i));
        }
        a.retire(InvocationId(1));
        let live: Vec<usize> = a.live_slots().collect();
        assert_eq!(live, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "retired twice")]
    fn double_retire_panics() {
        let mut a = InvArena::with_id_capacity(2);
        a.insert(inv(0));
        a.retire(InvocationId(0));
        a.retire(InvocationId(0));
    }

    #[test]
    fn memory_stays_bounded_by_concurrency() {
        // A million sequential insert/retire pairs must not grow the slab
        // past the concurrency high-water mark.
        let mut a = InvArena::with_id_capacity(1_000_000);
        for i in 0..1_000_000u32 {
            a.insert(inv(i));
            a.retire(InvocationId(i));
        }
        assert_eq!(a.peak_live(), 1);
        assert_eq!(a.slots.len(), 1);
        assert_eq!(a.created(), 1_000_000);
    }
}
