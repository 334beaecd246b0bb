//! Worker nodes (OpenWhisk invokers).
//!
//! A node owns a fixed capacity, sharded evenly across the decentralized
//! schedulers (§6.4): each scheduler admits invocations only against its own
//! slice, so schedulers never need to synchronize. Reservations are tracked
//! *nominally* (at the user-defined allocation) — harvesting reassigns usage
//! inside the reserved envelope and therefore never violates admission:
//!
//! > Σ granted ≤ Σ nominal ≤ capacity
//!
//! which is the safety invariant the integration tests assert.

use crate::container::WarmPool;
use crate::ids::NodeId;
use crate::resources::ResourceVec;
use crate::time::SimTime;

/// One scheduler shard's books for its slice of one node: a fixed `capacity`
/// and the nominal volume `reserved` against it. The only ledger model in
/// the workspace — [`Node`] keeps one per shard for the simulator, the live
/// sharded scheduler one per node behind each shard's lock — so both
/// substrates refuse and admit by the same arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    capacity: ResourceVec,
    reserved: ResourceVec,
}

impl Slice {
    /// An empty slice of `capacity`.
    pub fn new(capacity: ResourceVec) -> Self {
        Slice { capacity, reserved: ResourceVec::ZERO }
    }

    /// The slice's capacity.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// Volume currently reserved (may exceed the capacity after a
    /// [`rebook`](Slice::rebook)).
    pub fn reserved(&self) -> ResourceVec {
        self.reserved
    }

    /// Unreserved capacity, saturating at zero while the slice is
    /// over-reserved.
    pub fn free(&self) -> ResourceVec {
        self.capacity.saturating_sub(&self.reserved)
    }

    /// Reserve `res` if it fits the free capacity. While a restore has a
    /// dimension over-reserved nothing that needs that dimension fits:
    /// admission stops until releases bring `reserved` back under capacity.
    pub fn try_reserve(&mut self, res: ResourceVec) -> bool {
        let fits = res.fits_within(&self.free());
        if fits {
            self.reserved += res;
        }
        fits
    }

    /// Move one resident's booking from `from` to `to` without a capacity
    /// check — the one rule by which both substrates keep a slice equal to
    /// its residents' ledger charges (own grant + lent out). A safeguard or
    /// OOM restore to the user allocation must land even if it transiently
    /// over-reserves the slice (the kernel absorbs it via proportional CPU
    /// sharing; see `engine`).
    pub fn rebook(&mut self, from: ResourceVec, to: ResourceVec) {
        self.release(from);
        self.reserved += to;
    }

    /// Give `res` back.
    pub fn release(&mut self, res: ResourceVec) {
        debug_assert!(res.fits_within(&self.reserved), "released {res} of {}", self.reserved);
        self.reserved -= res;
    }
}

/// One worker node.
pub struct Node {
    /// Identity.
    pub id: NodeId,
    /// Total capacity for user functions.
    pub capacity: ResourceVec,
    /// Per-shard nominal reservations (one slice per scheduler shard).
    slices: Vec<Slice>,
    /// Arena slots of the invocations assigned here (cold-starting or
    /// running), in admission order — the order the crash sweep, the monitor
    /// tick's visits and the `Finish` tie-break depend on. The engine pushes
    /// at placement and removes (`position` + `Vec::remove`, over the few
    /// dozen residents a node holds) at completion or kill. Walks index the
    /// arena directly: the id-linked list this replaced paid an `id → slot`
    /// lookup per step, on the engine's hottest path.
    pub(crate) residents: Vec<u32>,
    /// How many residents are watched, their `Invocation::wake` not
    /// `Wake::NEVER`: the tick skips its walk at zero. Written only by the
    /// engine's `World::set_wake`.
    pub(crate) watched: u32,
    /// No later than the earliest instant a watched resident's wake can
    /// hold: the tick skips its walk before it. `World::bound_wake` lowers
    /// it to each new `Invocation::wake_from`, a generation bump zeroes it (a
    /// node wait may hold), and a walk rebuilds it from what each resident
    /// is left waiting on. Too low costs a walk; it is never too high.
    pub(crate) next_wake: SimTime,
    /// Bumped at every change of the node's running set or allocations
    /// (`World::invalidate_running_cpu`): what a resident waiting on its
    /// node (`Wake::node_change`) compares with the generation it waited at.
    pub(crate) generation: u64,
    /// Whether this node's monitor tick is in the event queue (engine-only:
    /// one chain per node, whatever crashes and recoveries come between).
    pub tick_armed: bool,
    /// Idle warm containers.
    pub warm: WarmPool,
    /// False while the node is crashed (fault injection). A dead node
    /// advertises zero free capacity, so every placement path skips it.
    alive: bool,
}

impl Node {
    /// Create a node with `capacity`, sharded across `shards` schedulers.
    /// Warm-container lifetimes are not fixed per node: each parked
    /// container carries the keep-until deadline its policy assigned
    /// (see [`WarmPool::park`]).
    pub fn new(id: NodeId, capacity: ResourceVec, shards: usize) -> Self {
        assert!(shards > 0, "a node must be visible to at least one scheduler shard");
        Node {
            id,
            capacity,
            slices: vec![Slice::new(capacity.div(shards as u64)); shards],
            residents: Vec::new(),
            watched: 0,
            next_wake: SimTime::ZERO,
            generation: 0,
            tick_armed: false,
            warm: WarmPool::new(),
            alive: true,
        }
    }

    /// Whether the node is up.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Kill the node: it stops advertising capacity and its warm containers
    /// die. Reservations are *not* cleared here — the engine releases each
    /// resident's charge as part of the crash sweep so the ledger stays
    /// consistent.
    pub fn fail(&mut self) {
        self.alive = false;
        self.warm.drain_all();
    }

    /// Bring a crashed node back, empty.
    pub fn recover(&mut self) {
        self.alive = true;
    }

    /// Number of scheduler shards this node is sliced across.
    pub fn shards(&self) -> usize {
        self.slices.len()
    }

    /// Free (unreserved) capacity within `shard`'s slice. A crashed node
    /// has no free capacity at all.
    pub fn free_in_shard(&self, shard: usize) -> ResourceVec {
        if !self.alive {
            return ResourceVec::ZERO;
        }
        self.slices[shard].free()
    }

    /// Try to reserve `res` nominally within `shard`'s slice. Idle warm
    /// containers do not block admission — their pinned memory is evicted
    /// on demand ([`WarmPool::settle`]), exactly like OpenWhisk's container
    /// pool tearing down paused containers to make room.
    pub fn try_reserve(&mut self, shard: usize, res: ResourceVec) -> bool {
        let fits = res.fits_within(&self.free_in_shard(shard));
        if fits {
            self.rebook(shard, ResourceVec::ZERO, res);
        }
        fits
    }

    /// Move a resident's booking in `shard`'s slice from `from` to `to` (zero: it left)
    /// ([`Slice::rebook`], no capacity check), then evict the warm
    /// containers the new booking crowds out ([`WarmPool::settle`]).
    pub fn rebook(&mut self, shard: usize, from: ResourceVec, to: ResourceVec) {
        self.slices[shard].rebook(from, to);
        self.warm.settle(shard, &self.slices[shard]);
    }

    /// `shard`'s books: what the warm pool weighs its pins against, and
    /// what invariant checks read.
    pub fn slice(&self, shard: usize) -> &Slice {
        &self.slices[shard]
    }

    /// Total nominal reservation across all shards.
    pub fn total_reserved(&self) -> ResourceVec {
        self.slices.iter().fold(ResourceVec::ZERO, |acc, s| acc + s.reserved())
    }

    /// Number of invocations currently resident.
    pub fn load(&self) -> usize {
        self.residents.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(shards: usize) -> Node {
        Node::new(NodeId(0), ResourceVec::from_cores_mb(32, 32_768), shards)
    }

    #[test]
    fn shard_capacity_is_even_slice() {
        let n = node(4);
        assert_eq!(n.slice(3).capacity(), ResourceVec::from_cores_mb(8, 8192));
        assert_eq!(n.free_in_shard(0), ResourceVec::from_cores_mb(8, 8192));
    }

    #[test]
    fn reserve_respects_shard_slice_not_whole_node() {
        let mut n = node(4);
        // 10 cores fits the node but not a single 8-core shard slice.
        assert!(!n.try_reserve(0, ResourceVec::from_cores_mb(10, 1024)));
        assert!(n.try_reserve(0, ResourceVec::from_cores_mb(8, 8192)));
        // shard 0 now full; shard 1 unaffected
        assert!(!n.try_reserve(0, ResourceVec::from_cores_mb(1, 1)));
        assert!(n.try_reserve(1, ResourceVec::from_cores_mb(8, 8192)));
    }

    #[test]
    fn release_restores_capacity() {
        let mut n = node(2);
        let r = ResourceVec::from_cores_mb(4, 2048);
        assert!(n.try_reserve(0, r));
        assert_eq!(n.total_reserved(), r);
        n.rebook(0, r, ResourceVec::ZERO);
        assert_eq!(n.total_reserved(), ResourceVec::ZERO);
        assert_eq!(n.free_in_shard(0), n.slice(0).capacity());
    }

    #[test]
    fn over_reserved_slice_refuses_until_released() {
        let mut s = Slice::new(ResourceVec::from_cores_mb(4, 4096));
        assert!(s.try_reserve(ResourceVec::from_cores_mb(3, 1024)));
        s.rebook(ResourceVec::ZERO, ResourceVec::from_cores_mb(3, 1024));
        assert_eq!(s.free(), ResourceVec::new(0, 2048), "free saturates per dimension");
        assert!(!s.try_reserve(ResourceVec::new(100, 1)), "no admission beside the debt");
        s.release(ResourceVec::from_cores_mb(3, 1024));
        assert!(s.try_reserve(ResourceVec::from_cores_mb(1, 1024)));
        assert_eq!(s.reserved(), ResourceVec::from_cores_mb(4, 2048));
    }

    #[test]
    #[should_panic(expected = "at least one scheduler shard")]
    fn zero_shards_panics() {
        let _ = node(0);
    }
}
