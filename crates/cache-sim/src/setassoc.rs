//! Generic set-associative array with true-LRU replacement, kept as a
//! most-recently-used order of 4-byte tags per set.

use asap_sim_core::{LineAddr, LineIdx};
use std::ops::Range;

/// A set-associative tag array tracking which cache lines are present.
///
/// Used for all three cache levels; data contents live in the functional
/// `PmSpace`, so only presence and recency matter here. Tags are stored
/// as dense interned [`LineIdx`] values (4 bytes instead of a full
/// address), while *set selection* still uses the line's address bits —
/// placement must not depend on first-touch interning order, or timing
/// would stop being a pure function of the access stream.
///
/// # Example
///
/// ```
/// use asap_cache_sim::SetAssoc;
/// use asap_sim_core::{LineAddr, LineIdx};
///
/// let mut c = SetAssoc::new(2, 2); // 2 sets x 2 ways
/// let line = LineAddr::containing(0);
/// assert!(c.touch(line, LineIdx(0)).is_none());
/// assert!(c.contains(line, LineIdx(0)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssoc {
    /// One `u32` per way: set `s` occupies `tags[s*ways..(s+1)*ways]`,
    /// its valid tags first in most-recently-used order, then [`EMPTY`]
    /// slots. The order *is* the recency state, so the least recently
    /// used line is always the last valid tag and no per-way tick or
    /// per-set length is stored.
    tags: Vec<u32>,
    ways: usize,
    set_mask: usize,
}

/// Tag value of an unused way (never a valid interned index).
const EMPTY: u32 = u32::MAX;

impl SetAssoc {
    /// Create an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or either argument is 0.
    pub fn new(num_sets: usize, ways: usize) -> SetAssoc {
        assert!(
            num_sets.is_power_of_two() && num_sets > 0,
            "sets must be a power of two"
        );
        assert!(ways > 0, "ways must be nonzero");
        SetAssoc {
            tags: vec![EMPTY; num_sets * ways],
            ways,
            set_mask: num_sets - 1,
        }
    }

    /// Build from a capacity in bytes and associativity (64-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if the implied set count is not a power of two.
    pub fn with_capacity_bytes(capacity: u64, ways: usize) -> SetAssoc {
        let lines = (capacity / 64) as usize;
        let sets = lines / ways;
        SetAssoc::new(sets, ways)
    }

    /// The index range in `tags` of the set holding `line`.
    #[inline]
    fn set_range(&self, line: LineAddr) -> Range<usize> {
        let base = ((line.index() as usize) & self.set_mask) * self.ways;
        base..base + self.ways
    }

    /// Whether `line` (interned as `idx`) is present (does not update
    /// recency).
    #[inline]
    pub fn contains(&self, line: LineAddr, idx: LineIdx) -> bool {
        self.tags[self.set_range(line)].contains(&idx.0)
    }

    /// Insert or refresh `line` (interned as `idx`) as the set's most
    /// recently used line; returns the least recently used victim
    /// evicted to make room, if any.
    pub fn touch(&mut self, line: LineAddr, idx: LineIdx) -> Option<LineIdx> {
        debug_assert_ne!(idx.0, EMPTY, "interned index collides with EMPTY");
        let range = self.set_range(line);
        let set = &mut self.tags[range];
        // Valid tags form a prefix, so the first slot holding either the
        // tag or EMPTY is the hit, or else the first free way.
        let (end, victim) = match set.iter().position(|&x| x == idx.0 || x == EMPTY) {
            Some(pos) => (pos, None),
            None => (set.len() - 1, Some(LineIdx(set[set.len() - 1]))),
        };
        set.copy_within(..end, 1);
        set[0] = idx.0;
        victim
    }

    /// Remove `line` (interned as `idx`) if present; returns whether it
    /// was present.
    pub fn invalidate(&mut self, line: LineAddr, idx: LineIdx) -> bool {
        let range = self.set_range(line);
        let set = &mut self.tags[range];
        let Some(pos) = set.iter().position(|&x| x == idx.0) else {
            return false;
        };
        set.copy_within(pos + 1.., pos);
        set[set.len() - 1] = EMPTY;
        true
    }

    /// Number of lines currently present.
    pub fn occupancy(&self) -> usize {
        self.tags.iter().filter(|&&x| x != EMPTY).count()
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.tags.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    // In tests the interned index is just the line number.
    fn ix(i: u64) -> LineIdx {
        LineIdx(i as u32)
    }

    #[test]
    fn fills_before_evicting() {
        let mut c = SetAssoc::new(1, 4);
        for i in 0..4 {
            assert_eq!(c.touch(la(i), ix(i)), None);
        }
        assert_eq!(c.occupancy(), 4);
        // Fifth line evicts the LRU (line 0)
        assert_eq!(c.touch(la(4), ix(4)), Some(ix(0)));
        assert!(!c.contains(la(0), ix(0)));
        assert!(c.contains(la(4), ix(4)));
    }

    #[test]
    fn touch_refreshes_lru() {
        let mut c = SetAssoc::new(1, 2);
        c.touch(la(0), ix(0));
        c.touch(la(1), ix(1));
        c.touch(la(0), ix(0)); // 0 becomes MRU
        assert_eq!(c.touch(la(2), ix(2)), Some(ix(1)));
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = SetAssoc::new(2, 1);
        assert_eq!(c.touch(la(0), ix(0)), None); // set 0
        assert_eq!(c.touch(la(1), ix(1)), None); // set 1
        assert_eq!(c.touch(la(2), ix(2)), Some(ix(0))); // set 0 again
        assert!(c.contains(la(1), ix(1)));
    }

    #[test]
    fn invalidate_removes() {
        let mut c = SetAssoc::new(1, 2);
        c.touch(la(3), ix(3));
        assert!(c.invalidate(la(3), ix(3)));
        assert!(!c.contains(la(3), ix(3)));
        assert!(!c.invalidate(la(3), ix(3)));
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn capacity_from_bytes() {
        let c = SetAssoc::with_capacity_bytes(32 * 1024, 8); // 32kB L1
        assert_eq!(c.capacity_lines(), 512);
        let c = SetAssoc::with_capacity_bytes(2 * 1024 * 1024, 8); // 2MB L2
        assert_eq!(c.capacity_lines(), 32768);
    }

    #[test]
    fn invalidate_keeps_recency_of_the_rest() {
        let mut c = SetAssoc::new(1, 3);
        for i in 0..3 {
            c.touch(la(i), ix(i));
        }
        assert!(c.invalidate(la(1), ix(1)));
        c.touch(la(3), ix(3)); // fills the freed way
        assert_eq!(c.touch(la(4), ix(4)), Some(ix(0)));
        assert_eq!(c.touch(la(5), ix(5)), Some(ix(2)));
    }

    #[test]
    fn associativity_is_not_limited_to_a_byte() {
        let mut c = SetAssoc::new(1, 300);
        for i in 0..300 {
            assert_eq!(c.touch(la(i), ix(i)), None);
        }
        assert_eq!(c.occupancy(), 300);
        assert_eq!(c.touch(la(300), ix(300)), Some(ix(0)));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        SetAssoc::new(3, 2);
    }
}
