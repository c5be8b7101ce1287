//! XPBuffer: the small on-DIMM line cache of Intel Optane PM.
//!
//! The paper's justification for undo-record reads (§V-A) leans on the
//! XPBuffer: "XPBuffer in Intel Optane Persistent memory caches most
//! recently accessed lines. Writes would mostly hit in this cache." We
//! model it as a fully-associative LRU over recently touched lines; an
//! undo-record read that hits here costs [`XpBuffer`]'s cheap latency
//! instead of a full 175 ns media read.
//!
//! Lines are identified by the controller's dense interned [`LineIdx`],
//! so the LRU is an intrusive doubly-linked list over flat arrays indexed
//! by that index: a touch is O(1) whatever the capacity.

use asap_sim_core::LineIdx;

/// End-of-list sentinel for the LRU links.
const NIL: u32 = u32::MAX;

/// LRU line cache in front of the NVM media.
///
/// # Example
///
/// ```
/// use asap_memctrl::XpBuffer;
/// use asap_sim_core::LineIdx;
///
/// let mut xp = XpBuffer::new(4);
/// let line = LineIdx(7);
/// assert!(!xp.touch(line)); // cold miss, now cached
/// assert!(xp.touch(line)); // hit
/// ```
#[derive(Debug, Clone)]
pub struct XpBuffer {
    /// Per-line links toward the LRU end (`prev`) and the MRU end
    /// (`next`); meaningful only while `present[line]`.
    prev: Vec<u32>,
    next: Vec<u32>,
    present: Vec<bool>,
    /// Least- and most-recently-used cached lines.
    head: u32,
    tail: u32,
    len: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl XpBuffer {
    /// Create a buffer tracking up to `capacity` lines (zero: every
    /// access misses).
    pub fn new(capacity: usize) -> XpBuffer {
        XpBuffer {
            prev: Vec::new(),
            next: Vec::new(),
            present: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Access `line`: returns `true` on a hit. Either way the line becomes
    /// most-recently-used (misses allocate).
    pub fn touch(&mut self, line: LineIdx) -> bool {
        let i = line.0 as usize;
        if i >= self.present.len() {
            self.prev.resize(i + 1, NIL);
            self.next.resize(i + 1, NIL);
            self.present.resize(i + 1, false);
        }
        if self.present[i] {
            self.hits += 1;
            if self.tail != line.0 {
                self.unlink(line.0);
                self.push_mru(line.0);
            }
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        if self.len == self.capacity {
            let lru = self.head;
            self.unlink(lru);
            self.present[lru as usize] = false;
            self.len -= 1;
        }
        self.present[i] = true;
        self.len += 1;
        self.push_mru(line.0);
        false
    }

    /// Detach cached line `l` from the recency list.
    fn unlink(&mut self, l: u32) {
        let (p, n) = (self.prev[l as usize], self.next[l as usize]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
    }

    /// Append `l` at the most-recently-used end.
    fn push_mru(&mut self, l: u32) {
        self.prev[l as usize] = self.tail;
        self.next[l as usize] = NIL;
        if self.tail == NIL {
            self.head = l;
        } else {
            self.next[self.tail as usize] = l;
        }
        self.tail = l;
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u32) -> LineIdx {
        LineIdx(i)
    }

    #[test]
    fn hit_after_touch() {
        let mut xp = XpBuffer::new(8);
        assert!(!xp.touch(la(0)));
        assert!(xp.touch(la(0)));
        assert_eq!(xp.hits(), 1);
        assert_eq!(xp.misses(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut xp = XpBuffer::new(2);
        xp.touch(la(0));
        xp.touch(la(1));
        xp.touch(la(2)); // evicts la(0)
        assert!(!xp.touch(la(0)));
        assert!(xp.touch(la(2)));
    }

    #[test]
    fn touch_refreshes_recency() {
        let mut xp = XpBuffer::new(2);
        xp.touch(la(0));
        xp.touch(la(1));
        xp.touch(la(0)); // la(0) MRU again
        xp.touch(la(2)); // evicts la(1)
        assert!(xp.touch(la(0)));
        assert!(!xp.touch(la(1)));
    }

    #[test]
    fn zero_capacity_always_misses() {
        let mut xp = XpBuffer::new(0);
        for _ in 0..3 {
            assert!(!xp.touch(la(5)));
        }
        assert_eq!(xp.hits(), 0);
        assert_eq!(xp.misses(), 3);
    }

    #[test]
    fn single_line_buffer_keeps_only_the_last_line() {
        let mut xp = XpBuffer::new(1);
        assert!(!xp.touch(la(3)));
        assert!(xp.touch(la(3)));
        assert!(!xp.touch(la(9)));
        assert!(!xp.touch(la(3)));
    }
}
