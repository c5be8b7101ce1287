//! Deterministic timed event queue: a timing wheel with an overflow heap.
//!
//! The queue is the single hottest structure of the simulator: every
//! flush/ack round trip, commit message and core step passes through it,
//! and sweep runs (Figures 2–13) execute tens of millions of
//! push/pop pairs. Almost every event lands a few to a few hundred
//! cycles ahead of the current time, which a timing wheel serves in
//! O(1) per operation:
//!
//! * **Wheel.** [`WHEEL_SLOTS`] one-cycle buckets cover the *horizon*
//!   `[base, base + WHEEL_SLOTS)`, where the cursor `base` is the time of
//!   the last pop (a lower bound on every pending time). Each bucket is
//!   an intrusive FIFO list threaded through a slab of nodes (`u32`
//!   links, a free list, pre-sized by [`EventQueue::with_capacity`]), so
//!   a push appends at the bucket's tail and a pop takes its head. A
//!   64-word occupancy bitmap lets `pop` skip empty cycles a word at a
//!   time with `trailing_zeros`.
//! * **Overflow heap.** Events at `t >= base + WHEEL_SLOTS` wait in a
//!   four-ary implicit min-heap keyed by `(cycle, seq)` packed into one
//!   `u128` (time high, insertion sequence low), so every comparison is
//!   one integer compare and same-cycle keys order by insertion. The
//!   invariant is that the heap holds *only* times beyond the horizon:
//!   whenever `base` advances, every overflow event that the horizon now
//!   covers migrates into its bucket, in key order, before the pop
//!   returns.
//! * **Exact FIFO.** Same-cycle events must pop in push order — the
//!   property that makes whole-simulation runs bit-for-bit reproducible.
//!   Within a bucket that is list order. Across the two stores it holds
//!   because all events of one cycle live in the same store: a cycle is
//!   either beyond the horizon (every push to it went to the heap) or
//!   inside it (every push went to the bucket), and the moment the
//!   horizon reaches a cycle its heap events move to the still-empty
//!   bucket in key order, ahead of any later direct push.
//! * **Late pushes.** A push before `base` never happens in the
//!   simulator (the engine clamps schedules to the current time) but the
//!   type allows it. It takes a rare slow path: the wheel spills into the
//!   heap in bucket order, `base` rewinds to the late time, and the
//!   horizon migrates back.

use crate::time::Cycle;

/// Number of one-cycle buckets in the wheel: the horizon, in cycles,
/// within which a push costs O(1).
pub const WHEEL_SLOTS: usize = 4096;

const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// End-of-list / empty-free-list sentinel for slab links.
const NIL: u32 = u32::MAX;

/// Heap arity: each node has up to four children at `4i+1 ..= 4i+4`.
const ARITY: usize = 4;

#[inline]
fn pack(at: Cycle, seq: u64) -> u128 {
    ((at.raw() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> Cycle {
    Cycle((key >> 64) as u64)
}

#[inline]
fn sift_up<E>(heap: &mut [(u128, E)], mut i: usize) {
    while i > 0 {
        let parent = (i - 1) / ARITY;
        if heap[i].0 < heap[parent].0 {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

#[inline]
fn sift_down<E>(heap: &mut [(u128, E)], mut i: usize) {
    let len = heap.len();
    loop {
        let first = ARITY * i + 1;
        if first >= len {
            break;
        }
        let mut min = first;
        let end = (first + ARITY).min(len);
        for c in first + 1..end {
            if heap[c].0 < heap[min].0 {
                min = c;
            }
        }
        if heap[min].0 < heap[i].0 {
            heap.swap(i, min);
            i = min;
        } else {
            break;
        }
    }
}

#[inline]
fn heap_push<E>(heap: &mut Vec<(u128, E)>, key: u128, event: E) {
    heap.push((key, event));
    let last = heap.len() - 1;
    sift_up(heap, last);
}

#[inline]
fn heap_pop<E>(heap: &mut Vec<(u128, E)>) -> Option<(u128, E)> {
    if heap.is_empty() {
        return None;
    }
    let last = heap.len() - 1;
    heap.swap(0, last);
    let out = heap.pop().expect("non-empty");
    if !heap.is_empty() {
        sift_down(heap, 0);
    }
    Some(out)
}

/// One slab node: a pending event (`None` while on the free list) and
/// the link to the next node of its bucket list or of the free list.
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// A priority queue of `(Cycle, E)` pairs with deterministic FIFO ordering
/// among same-cycle events.
///
/// # Example
///
/// ```
/// use asap_sim_core::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(7), 'b');
/// q.push(Cycle(3), 'a');
/// q.push(Cycle(7), 'c'); // same cycle as 'b', pushed later
/// assert_eq!(q.pop(), Some((Cycle(3), 'a')));
/// assert_eq!(q.pop(), Some((Cycle(7), 'b')));
/// assert_eq!(q.pop(), Some((Cycle(7), 'c')));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Slab of bucket-list nodes; freed nodes chain from `free`.
    nodes: Vec<Node<E>>,
    free: u32,
    /// Per-bucket list ends, meaningful only while the bucket's
    /// `occupied` bit is set.
    heads: Box<[u32]>,
    tails: Box<[u32]>,
    occupied: [u64; BITMAP_WORDS],
    /// Events currently in the wheel.
    wheel_len: usize,
    /// Lower bound on every pending time: the time of the last pop (or
    /// of the last late push). The wheel covers `[base, base + WHEEL_SLOTS)`.
    base: u64,
    /// Events beyond the horizon, as a min-heap on the packed key.
    overflow: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> EventQueue<E> {
        EventQueue::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> EventQueue<E> {
        EventQueue::with_capacity(0)
    }

    /// Create an empty queue with room for `cap` pending events, so the
    /// steady-state event population never re-grows the backing store.
    pub fn with_capacity(cap: usize) -> EventQueue<E> {
        EventQueue {
            nodes: Vec::with_capacity(cap),
            free: NIL,
            heads: vec![0; WHEEL_SLOTS].into_boxed_slice(),
            tails: vec![0; WHEEL_SLOTS].into_boxed_slice(),
            occupied: [0; BITMAP_WORDS],
            wheel_len: 0,
            base: 0,
            overflow: Vec::new(),
            next_seq: 0,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    pub fn push(&mut self, at: Cycle, event: E) {
        let t = at.raw();
        if t < self.base {
            self.rewind(t);
        }
        if t - self.base < WHEEL_SLOTS as u64 {
            self.wheel_push(t, event);
        } else {
            let seq = self.next_seq;
            self.next_seq += 1;
            heap_push(&mut self.overflow, pack(at, seq), event);
        }
    }

    /// Remove and return the earliest event, or `None` if empty.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.wheel_len == 0 {
            // Everything pending is beyond the horizon: the heap's root
            // is the global minimum.
            let (key, event) = heap_pop(&mut self.overflow)?;
            self.base = unpack_time(key).raw();
            self.migrate();
            return Some((Cycle(self.base), event));
        }
        let slot = self.first_occupied();
        let node = self.heads[slot];
        if node == self.tails[slot] {
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        } else {
            self.heads[slot] = self.nodes[node as usize].next;
        }
        let n = &mut self.nodes[node as usize];
        let event = n.event.take().expect("linked node holds an event");
        n.next = self.free;
        self.free = node;
        self.wheel_len -= 1;
        let t = self.slot_time(slot);
        if t != self.base {
            self.base = t;
            self.migrate();
        }
        Some((Cycle(t), event))
    }

    /// Time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        if self.wheel_len == 0 {
            return self.overflow.first().map(|&(key, _)| unpack_time(key));
        }
        Some(Cycle(self.slot_time(self.first_occupied())))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel_len + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop all pending events, keeping the allocations (and the sequence
    /// counter, so FIFO ordering stays globally consistent) for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.occupied = [0; BITMAP_WORDS];
        self.wheel_len = 0;
        self.base = 0;
        self.overflow.clear();
    }

    /// Allocated capacity of the backing stores (node slab plus overflow
    /// heap), in events.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity() + self.overflow.capacity()
    }

    /// Append `event` to the tail of the bucket for time `t`, which must
    /// lie within the horizon.
    #[inline]
    fn wheel_push(&mut self, t: u64, event: E) {
        let node = if self.free == NIL {
            let i = self.nodes.len();
            assert!(i < NIL as usize, "event queue slab exhausted");
            self.nodes.push(Node {
                event: Some(event),
                next: NIL,
            });
            i as u32
        } else {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.event = Some(event);
            n.next = NIL;
            i
        };
        let slot = (t & SLOT_MASK) as usize;
        let bit = 1 << (slot % 64);
        if self.occupied[slot / 64] & bit != 0 {
            let tail = self.tails[slot];
            self.nodes[tail as usize].next = node;
        } else {
            self.occupied[slot / 64] |= bit;
            self.heads[slot] = node;
        }
        self.tails[slot] = node;
        self.wheel_len += 1;
    }

    /// The first occupied bucket at or after `base`'s, in circular order.
    /// The wheel must be non-empty.
    #[inline]
    fn first_occupied(&self) -> usize {
        let start = (self.base & SLOT_MASK) as usize;
        let mut w = start / 64;
        let bits = self.occupied[w] & (!0u64 << (start % 64));
        if bits != 0 {
            return w * 64 + bits.trailing_zeros() as usize;
        }
        // The last iteration revisits the start word whole, which finds
        // the buckets below `start` (times past the wrap point).
        for _ in 0..BITMAP_WORDS {
            w = (w + 1) % BITMAP_WORDS;
            if self.occupied[w] != 0 {
                return w * 64 + self.occupied[w].trailing_zeros() as usize;
            }
        }
        unreachable!("first_occupied on an empty wheel")
    }

    /// The time bucket `slot` holds: the one horizon cycle that maps to it.
    #[inline]
    fn slot_time(&self, slot: usize) -> u64 {
        self.base + ((slot as u64).wrapping_sub(self.base) & SLOT_MASK)
    }

    /// Move every overflow event the horizon now covers into its bucket,
    /// in key order, restoring the overflow invariant after `base` moved.
    #[inline]
    fn migrate(&mut self) {
        let horizon = self.base.saturating_add(WHEEL_SLOTS as u64);
        while let Some(&(key, _)) = self.overflow.first() {
            let t = unpack_time(key).raw();
            if t >= horizon {
                break;
            }
            let (_, event) = heap_pop(&mut self.overflow).expect("non-empty");
            self.wheel_push(t, event);
        }
    }

    /// Slow path for a push at `t < base`: spill the wheel into the
    /// overflow heap (bucket order, fresh increasing sequence numbers, so
    /// each cycle's FIFO order survives), move `base` back to `t`, and
    /// migrate the new horizon back into the wheel.
    #[cold]
    fn rewind(&mut self, t: u64) {
        while self.wheel_len > 0 {
            let slot = self.first_occupied();
            let at = self.slot_time(slot);
            let mut node = self.heads[slot];
            loop {
                let n = &mut self.nodes[node as usize];
                let event = n.event.take().expect("linked node holds an event");
                let next = n.next;
                n.next = self.free;
                self.free = node;
                self.wheel_len -= 1;
                let seq = self.next_seq;
                self.next_seq += 1;
                heap_push(&mut self.overflow, pack(Cycle(at), seq), event);
                if node == self.tails[slot] {
                    break;
                }
                node = next;
            }
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.base = t;
        self.migrate();
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_time", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Cycle(9), ());
        q.push(Cycle(4), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        q.pop();
        assert_eq!(q.peek_time(), Some(Cycle(9)));
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), "a");
        q.push(Cycle(5), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        q.push(Cycle(7), "c");
        q.push(Cycle(10), "d");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "a"); // pushed before "d" at Cycle(10)
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn with_capacity_does_not_grow() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        for i in 0..64u64 {
            q.push(Cycle(i % 7), i);
        }
        assert_eq!(q.capacity(), cap, "pre-sized queue must not re-grow");
        let mut last = Cycle(0);
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn clear_keeps_allocation_and_seq() {
        let mut q = EventQueue::with_capacity(16);
        q.push(Cycle(3), 'x');
        q.push(Cycle(1), 'y');
        q.clear();
        assert!(q.is_empty());
        assert!(q.capacity() >= 16);
        // Sequence numbers keep counting up after clear, so FIFO order
        // across the clear stays well-defined.
        q.push(Cycle(5), 'a');
        q.push(Cycle(5), 'b');
        assert_eq!(q.pop().unwrap().1, 'a');
        assert_eq!(q.pop().unwrap().1, 'b');
    }

    /// Adversarial heap exercise: a deterministic pseudo-random push/pop
    /// mix must drain in exact (time, insertion) order.
    #[test]
    fn four_ary_heap_total_order() {
        let mut q = EventQueue::new();
        let mut x = 0x9e3779b97f4a7c15u64; // splitmix-style scramble
        let mut pushed = Vec::new();
        for i in 0..1000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let t = x % 97;
            q.push(Cycle(t), i);
            pushed.push((t, i));
            if x.is_multiple_of(3) {
                q.pop();
            }
        }
        let mut last: Option<(Cycle, u64)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    #[test]
    fn debug_is_nonempty() {
        let q: EventQueue<u8> = EventQueue::new();
        assert!(!format!("{:?}", q).is_empty());
    }

    /// Pops every event and returns them in order.
    fn drain<E>(q: &mut EventQueue<E>) -> Vec<(Cycle, E)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    #[test]
    fn horizon_boundary_routes_and_migrates_in_fifo_order() {
        let last_in = WHEEL_SLOTS as u64 - 1;
        let first_out = WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        // Beyond the horizon: waits in the overflow heap.
        q.push(Cycle(first_out), "o1");
        q.push(Cycle(last_in), "w1");
        q.push(Cycle(first_out), "o2");
        q.push(Cycle(first_out + 10_000), "far");
        assert_eq!(q.overflow.len(), 3);
        assert_eq!(q.wheel_len, 1);
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(Cycle(last_in)));
        // Popping `last_in` advances the horizon past `first_out`: both
        // of its overflow events migrate, in push order, and a later
        // direct push to the same cycle queues behind them.
        assert_eq!(q.pop(), Some((Cycle(last_in), "w1")));
        assert_eq!(q.overflow.len(), 1);
        q.push(Cycle(first_out), "d1");
        assert_eq!(q.pop(), Some((Cycle(first_out), "o1")));
        assert_eq!(q.pop(), Some((Cycle(first_out), "o2")));
        assert_eq!(q.pop(), Some((Cycle(first_out), "d1")));
        // Only the far event is left: peeking reads the heap root
        // without moving the cursor, and popping jumps straight to it.
        assert_eq!(q.peek_time(), Some(Cycle(first_out + 10_000)));
        assert_eq!(q.base, first_out);
        assert_eq!(q.pop(), Some((Cycle(first_out + 10_000), "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_wraps_around_the_bucket_array() {
        let mut q = EventQueue::new();
        q.push(Cycle(4000), 0);
        assert_eq!(q.pop(), Some((Cycle(4000), 0)));
        // 4000 + 200 lands in bucket 104, below the cursor's bucket.
        q.push(Cycle(4200), 2);
        q.push(Cycle(4050), 1);
        q.push(Cycle(4000 + WHEEL_SLOTS as u64 - 1), 3);
        assert_eq!(q.peek_time(), Some(Cycle(4050)));
        let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, e)| e).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn late_push_rewinds_and_keeps_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(100), 'a');
        q.push(Cycle(500), 'b');
        q.push(Cycle(500), 'c');
        q.push(Cycle(100 + WHEEL_SLOTS as u64), 'd');
        assert_eq!(q.pop(), Some((Cycle(100), 'a')));
        // Before the cursor: the wheel spills and the cursor moves back.
        q.push(Cycle(7), 'e');
        assert_eq!(q.base, 7);
        q.push(Cycle(500), 'f');
        assert_eq!(q.len(), 5);
        assert_eq!(
            drain(&mut q),
            [
                (Cycle(7), 'e'),
                (Cycle(500), 'b'),
                (Cycle(500), 'c'),
                (Cycle(500), 'f'),
                (Cycle(100 + WHEEL_SLOTS as u64), 'd'),
            ]
        );
    }

    #[test]
    fn slab_nodes_are_recycled() {
        let mut q = EventQueue::with_capacity(4);
        for round in 0..1000u64 {
            for k in 0..4 {
                q.push(Cycle(round * 3 + k), k);
            }
            for _ in 0..4 {
                q.pop();
            }
        }
        assert_eq!(q.nodes.len(), 4, "freed nodes must be reused");
    }
}
