//! Randomized property tests on the core data structures and invariants:
//! allocator disjointness, recovery-table state machine, Bloom filter,
//! the event queue, the XPBuffer LRU and the cache tag array against
//! their reference implementations, histogram percentiles, the dependency DAG and the
//! crash oracle against its quadratic reference.
//!
//! Cases are generated with the workspace's own [`DetRng`] (seeded per
//! case, so every failure is reproducible from the printed case number)
//! rather than an external property-testing framework, which keeps the
//! test suite dependency-free.

use asap::cache::{CountingBloom, SetAssoc};
use asap::mc::{RecoveryTable, XpBuffer};
use asap::model::oracle;
use asap::model::{CrashReport, DepGraph, Violation, ViolationRule};
use asap::pm::{NvmImage, PmAllocator, PmSpace, WriteJournal, WriteSeq};
use asap::sim::{
    Cycle, DetRng, EpochId, EventQueue, LineAddr, LineIdx, LineTable, LogHistogram, ThreadId,
    WHEEL_SLOTS,
};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

const CASES: u64 = 64;

/// Per-case RNG: derived from the test name so suites stay independent.
fn case_rng(test: u64, case: u64) -> DetRng {
    DetRng::seed(0xA5A9 ^ (test << 32) ^ case)
}

// ---- allocator ----

#[test]
fn allocations_never_overlap() {
    for case in 0..CASES {
        let mut rng = case_rng(1, case);
        let n = rng.index(63) + 1;
        let mut a = PmAllocator::new(0x1000, 1 << 22);
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for _ in 0..n {
            let s = rng.range_inclusive(1, 511);
            let addr = a.alloc(s).unwrap();
            let rounded = s.div_ceil(64) * 64;
            for &(b, len) in &ranges {
                assert!(
                    addr + rounded <= b || b + len <= addr,
                    "case {case}: overlap: [{addr},{}) vs [{b},{})",
                    addr + rounded,
                    b + len
                );
            }
            ranges.push((addr, rounded));
        }
    }
}

#[test]
fn freed_blocks_are_reused_not_leaked() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let count = rng.index(31) + 1;
        let mut a = PmAllocator::new(0, 1 << 20);
        let addrs: Vec<u64> = (0..count).map(|_| a.alloc(64).unwrap()).collect();
        for &x in &addrs {
            a.free(x, 64);
        }
        let again: Vec<u64> = (0..count).map(|_| a.alloc(64).unwrap()).collect();
        let mut sorted_a = addrs.clone();
        let mut sorted_b = again.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(
            sorted_a, sorted_b,
            "case {case}: free list must recycle exactly"
        );
    }
}

// ---- functional memory ----

#[test]
fn pm_space_reads_back_writes() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let n = rng.index(49) + 1;
        let mut pm = PmSpace::new();
        let mut model: HashMap<u64, u64> = HashMap::new();
        for _ in 0..n {
            let addr = rng.below(0x10_000) & !7; // aligned
            let v = rng.next_u64();
            pm.write_u64(addr, v);
            model.insert(addr, v);
        }
        for (addr, v) in model {
            assert_eq!(pm.read_u64(addr), v, "case {case}");
        }
    }
}

// ---- recovery table state machine ----

/// Random interleavings of early/safe flushes from two epochs to a
/// small address pool, then either a crash or a commit sequence: the
/// final value of each line must be the last *surviving* write.
#[test]
fn rt_crash_never_leaks_uncommitted_early_values() {
    for case in 0..CASES {
        let mut rng = case_rng(4, case);
        let n = rng.index(39) + 1;
        let crash = rng.chance(0.5);
        let mut rt = RecoveryTable::new(64);
        let mut nvm = NvmImage::new();
        let e_old = EpochId::new(ThreadId(0), 0);
        let e_new = EpochId::new(ThreadId(0), 1);
        let mut seq = 0u64;
        // Track the last safe write per line (what a crash must recover
        // at minimum if no early values survive).
        let mut last_safe: HashMap<LineAddr, u8> = HashMap::new();
        for _ in 0..n {
            let slot = rng.below(4);
            let early = rng.chance(0.5);
            let val = rng.range_inclusive(1, 254) as u8;
            let line = LineAddr::containing(slot * 64);
            // The slot number doubles as the interned index (the RT only
            // compares indices for equality).
            let idx = LineIdx(slot as u32);
            seq += 1;
            // Early flushes come from the NEW (unsafe) epoch; safe ones
            // from the OLD epoch.
            let epoch = if early { e_new } else { e_old };
            let _ = rt.handle_flush(line, idx, [val; 64], seq, epoch, early, &mut nvm);
            if !early {
                last_safe.insert(line, val);
            }
        }
        if crash {
            rt.crash_drain(&mut nvm);
            // After the crash drain no uncommitted early value may be
            // visible where a safe value existed: the recovered value
            // must be the last safe write (or zero).
            for (line, val) in last_safe {
                let got = nvm.line(line).data[0];
                assert_eq!(
                    got, val,
                    "case {case}: line {line:?} recovered {got} but last safe write was {val}"
                );
            }
        } else {
            // Commit both epochs in dependency order: all records drain.
            rt.commit_epoch(e_old, &mut nvm);
            rt.commit_epoch(e_new, &mut nvm);
            assert_eq!(rt.occupancy(), 0, "case {case}");
        }
    }
}

// ---- Bloom filter ----

#[test]
fn bloom_has_no_false_negatives() {
    for case in 0..CASES {
        let mut rng = case_rng(5, case);
        let n = rng.index(127) + 1;
        let lines: Vec<u64> = (0..n).map(|_| rng.below(10_000)).collect();
        let mut f = CountingBloom::new(4096, 3);
        for &l in &lines {
            f.insert(LineAddr::containing(l * 64));
        }
        for &l in &lines {
            assert!(
                f.maybe_contains(LineAddr::containing(l * 64)),
                "case {case}: false negative for {l}"
            );
        }
    }
}

#[test]
fn bloom_remove_restores_absence() {
    for case in 0..CASES {
        let mut rng = case_rng(6, case);
        let n = rng.index(31) + 1;
        let mut unique: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        unique.sort_unstable();
        unique.dedup();
        let mut f = CountingBloom::new(4096, 3);
        for &l in &unique {
            f.insert(LineAddr::containing(l * 64));
        }
        for &l in &unique {
            f.remove(LineAddr::containing(l * 64));
        }
        assert!(f.is_empty(), "case {case}");
        for &l in &unique {
            assert!(
                !f.maybe_contains(LineAddr::containing(l * 64)),
                "case {case}: stale entry for {l}"
            );
        }
    }
}

// ---- event queue ----

#[test]
fn event_queue_pops_in_time_then_fifo_order() {
    for case in 0..CASES {
        let mut rng = case_rng(7, case);
        let n = rng.index(99) + 1;
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Cycle(t), i);
        }
        let mut last: Option<(Cycle, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                assert!(t >= lt, "case {case}: time went backwards");
                if t == lt {
                    assert!(i > li, "case {case}: FIFO violated for same-cycle events");
                }
            }
            last = Some((t, i));
        }
    }
}

/// The event queue as it was before the timing wheel: one four-ary
/// implicit min-heap over `(cycle, seq)` packed into a `u128`. Kept as
/// the reference the wheel must match, pop for pop.
struct RefHeap<E> {
    heap: Vec<(u128, E)>,
    next_seq: u64,
}

impl<E> RefHeap<E> {
    fn new() -> RefHeap<E> {
        RefHeap {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    fn push(&mut self, at: Cycle, event: E) {
        let key = ((at.raw() as u128) << 64) | self.next_seq as u128;
        self.next_seq += 1;
        self.heap.push((key, event));
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.heap[i].0 >= self.heap[parent].0 {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        let (key, event) = self.heap.pop().expect("non-empty");
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let first = 4 * i + 1;
            if first >= len {
                break;
            }
            let min = (first..(first + 4).min(len))
                .min_by_key(|&c| self.heap[c].0)
                .expect("one child");
            if self.heap[min].0 >= self.heap[i].0 {
                break;
            }
            self.heap.swap(i, min);
            i = min;
        }
        Some((Cycle((key >> 64) as u64), event))
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.heap.first().map(|&(key, _)| Cycle((key >> 64) as u64))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }

    fn clear(&mut self) {
        self.heap.clear();
    }
}

/// The timing wheel and the reference heap agree on every `pop`,
/// `peek_time` and `len` under random interleavings of push, pop, peek
/// and clear. Push times target the wheel's corners relative to the
/// cursor (the last popped time): same-cycle ties, the last in-horizon
/// cycle (`+4095`), the first overflow cycle (`+4096`), far-future
/// overflow, re-pushes to earlier overflow cycles once the horizon has
/// reached them (overflow and direct pushes on one cycle), and late
/// pushes before the cursor.
#[test]
fn event_queue_matches_reference_heap() {
    let horizon = WHEEL_SLOTS as u64;
    for case in 0..CASES {
        let mut rng = case_rng(18, case);
        let mut wheel = EventQueue::new();
        let mut reference = RefHeap::new();
        let mut cursor = 0u64;
        let mut recent: Vec<u64> = Vec::new();
        let ops = 200 + rng.index(1800);
        for id in 0..ops {
            match rng.below(20) {
                0..=10 => {
                    let t = match rng.below(10) {
                        0 | 1 if !recent.is_empty() => recent[rng.index(recent.len())],
                        2 => cursor + horizon - 1 - rng.below(2),
                        3 => cursor + horizon + rng.below(2),
                        4 => cursor + horizon + rng.below(50 * horizon),
                        5 if cursor > 0 && rng.chance(0.3) => {
                            cursor - 1 - rng.below(cursor.min(5000))
                        }
                        _ => cursor + rng.below(64),
                    };
                    if t < cursor {
                        cursor = t;
                    }
                    if recent.len() < 32 {
                        recent.push(t);
                    } else {
                        recent[rng.index(32)] = t;
                    }
                    wheel.push(Cycle(t), id);
                    reference.push(Cycle(t), id);
                }
                11..=17 => {
                    let got = wheel.pop();
                    assert_eq!(got, reference.pop(), "case {case}: pop #{id}");
                    if let Some((t, _)) = got {
                        cursor = t.raw();
                    }
                }
                18 => {
                    assert_eq!(
                        wheel.peek_time(),
                        reference.peek_time(),
                        "case {case}: peek #{id}"
                    );
                }
                _ => {
                    if rng.chance(0.1) {
                        wheel.clear();
                        reference.clear();
                        cursor = 0;
                    }
                }
            }
            assert_eq!(wheel.len(), reference.len(), "case {case}: len #{id}");
            assert_eq!(wheel.is_empty(), reference.len() == 0);
        }
        loop {
            assert_eq!(wheel.peek_time(), reference.peek_time(), "case {case}");
            let got = wheel.pop();
            assert_eq!(got, reference.pop(), "case {case}: drain");
            if got.is_none() {
                break;
            }
        }
    }
}

// ---- XPBuffer LRU vs its VecDeque reference ----

/// The XPBuffer as it was before the linked-list LRU: a `VecDeque`
/// scanned on every touch, front = least recently used.
struct RefLru {
    lru: VecDeque<LineIdx>,
    capacity: usize,
}

impl RefLru {
    fn touch(&mut self, line: LineIdx) -> bool {
        if let Some(pos) = self.lru.iter().position(|&l| l == line) {
            self.lru.remove(pos);
            self.lru.push_back(line);
            true
        } else {
            if self.lru.len() >= self.capacity {
                self.lru.pop_front();
            }
            self.lru.push_back(line);
            false
        }
    }
}

/// Per-touch hit/miss equality with the reference LRU over random line
/// streams with skewed reuse (a hot set, a warm set larger than most
/// capacities, and a cold tail), for capacities 1..=300.
#[test]
fn xpbuffer_matches_reference_lru() {
    for case in 0..CASES {
        let mut rng = case_rng(19, case);
        let capacity = 1 + rng.index(300);
        let mut xp = XpBuffer::new(capacity);
        let mut reference = RefLru {
            lru: VecDeque::new(),
            capacity,
        };
        let hot = 1 + rng.below(16);
        let warm = hot + 1 + rng.below(400);
        let (mut hits, mut misses) = (0, 0);
        for n in 0..3000 {
            let line = match rng.below(10) {
                0..=4 => rng.below(hot),
                5..=8 => rng.below(warm),
                _ => rng.below(5000),
            };
            let line = LineIdx(line as u32);
            let hit = xp.touch(line);
            assert_eq!(
                hit,
                reference.touch(line),
                "case {case}: touch #{n} of {line:?} at capacity {capacity}"
            );
            if hit {
                hits += 1;
            } else {
                misses += 1;
            }
        }
        assert_eq!((xp.hits(), xp.misses()), (hits, misses), "case {case}");
    }
}

// ---- set-associative tag array vs its tick-based reference ----

/// The tag array as it was before the MRU-ordered `u32` layout: flat
/// `(tag, last-use tick)` slots with a per-set length; a miss on a full
/// set evicts the smallest tick, and invalidate swap-removes.
struct RefSetAssoc {
    slots: Vec<(LineIdx, u64)>,
    lens: Vec<usize>,
    ways: usize,
    tick: u64,
}

impl RefSetAssoc {
    fn new(num_sets: usize, ways: usize) -> RefSetAssoc {
        RefSetAssoc {
            slots: vec![(LineIdx(0), 0); num_sets * ways],
            lens: vec![0; num_sets],
            ways,
            tick: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.index() as usize) & (self.lens.len() - 1)
    }

    fn contains(&self, line: LineAddr, idx: LineIdx) -> bool {
        let s = self.set_index(line);
        self.slots[s * self.ways..s * self.ways + self.lens[s]]
            .iter()
            .any(|&(l, _)| l == idx)
    }

    fn touch(&mut self, line: LineAddr, idx: LineIdx) -> Option<LineIdx> {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_index(line);
        let (len, base) = (self.lens[s], s * self.ways);
        let set = &mut self.slots[base..base + len];
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == idx) {
            entry.1 = tick;
            return None;
        }
        if len < self.ways {
            self.slots[base + len] = (idx, tick);
            self.lens[s] += 1;
            return None;
        }
        let victim_pos = (0..len).min_by_key(|&i| set[i].1).expect("nonempty set");
        let victim = set[victim_pos].0;
        set[victim_pos] = (idx, tick);
        Some(victim)
    }

    fn invalidate(&mut self, line: LineAddr, idx: LineIdx) -> bool {
        let s = self.set_index(line);
        let (len, base) = (self.lens[s], s * self.ways);
        let set = &mut self.slots[base..base + len];
        if let Some(pos) = set.iter().position(|&(l, _)| l == idx) {
            set.swap(pos, len - 1);
            self.lens[s] -= 1;
            true
        } else {
            false
        }
    }

    fn occupancy(&self) -> usize {
        self.lens.iter().sum()
    }
}

/// Random `touch`/`invalidate`/`contains` sequences over 1, 2 or 4 sets
/// of 1..=16 ways, on a line universe a few times the capacity: the MRU
/// tag array and the tick reference agree on every victim, every
/// membership answer and the occupancy after every operation.
#[test]
fn set_assoc_matches_reference_lru() {
    for case in 0..CASES {
        let mut rng = case_rng(20, case);
        let sets = 1 << rng.index(3);
        let ways = 1 + rng.index(16);
        let mut tags = SetAssoc::new(sets, ways);
        let mut reference = RefSetAssoc::new(sets, ways);
        let universe = (sets * ways) as u64 * (1 + rng.below(4)) + 1;
        for n in 0..2000 {
            let i = rng.below(universe);
            let (line, idx) = (LineAddr::containing(i * 64), LineIdx(i as u32));
            match rng.below(10) {
                0..=5 => assert_eq!(
                    tags.touch(line, idx),
                    reference.touch(line, idx),
                    "case {case}: touch #{n} of line {i}, {sets}x{ways}"
                ),
                6..=7 => assert_eq!(
                    tags.invalidate(line, idx),
                    reference.invalidate(line, idx),
                    "case {case}: invalidate #{n} of line {i}, {sets}x{ways}"
                ),
                _ => assert_eq!(
                    tags.contains(line, idx),
                    reference.contains(line, idx),
                    "case {case}: contains #{n} of line {i}, {sets}x{ways}"
                ),
            }
            assert_eq!(
                tags.occupancy(),
                reference.occupancy(),
                "case {case}: occupancy after op #{n}"
            );
        }
        for i in 0..universe {
            let (line, idx) = (LineAddr::containing(i * 64), LineIdx(i as u32));
            assert_eq!(
                tags.contains(line, idx),
                reference.contains(line, idx),
                "case {case}: final membership of line {i}"
            );
        }
    }
}

// ---- histogram ----

#[test]
fn histogram_percentiles_are_monotonic() {
    for case in 0..CASES {
        let mut rng = case_rng(8, case);
        let n = rng.index(199) + 1;
        let samples: Vec<u64> = (0..n).map(|_| rng.below(128)).collect();
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut prev = 0;
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 100.0] {
            let v = h.percentile(p);
            assert!(v >= prev, "case {case}: percentile not monotonic");
            prev = v;
        }
        assert_eq!(h.percentile(100.0), h.max(), "case {case}");
        let max = *samples.iter().max().unwrap() as f64;
        let min = *samples.iter().min().unwrap() as f64;
        assert!(h.mean() <= max && h.mean() >= min, "case {case}");
    }
}

// ---- log-bucketed histogram vs exact reference ----

/// The constant-memory [`LogHistogram`] must agree with the exact
/// sorted-sample percentile within its documented relative error bound,
/// across value magnitudes spanning many octaves, and equal it for
/// samples below 128 (unit buckets).
#[test]
fn log_histogram_percentiles_match_exact_within_error_bound() {
    for case in 0..CASES {
        let mut rng = case_rng(14, case);
        let n = rng.index(400) + 1;
        // Mix magnitudes: exact linear range, mid octaves, and
        // million-cycle tails like real request latencies.
        let mut samples: Vec<u64> = (0..n)
            .map(|_| {
                let octave = rng.index(21) as u32;
                rng.below(1u64 << octave)
            })
            .collect();
        let mut log = LogHistogram::new();
        for &s in &samples {
            log.record(s);
        }
        samples.sort_unstable();
        for p in [0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            let exact = samples[rank - 1];
            let approx = log.percentile(p);
            if exact < 128 {
                assert_eq!(approx, exact, "case {case}: p{p}");
            }
            let bound = exact as f64 * LogHistogram::REL_ERROR + 0.5;
            assert!(
                approx.abs_diff(exact) as f64 <= bound,
                "case {case}: p{p}: exact={exact} log={approx} bound={bound}"
            );
        }
        let sum: u128 = samples.iter().map(|&s| s as u128).sum();
        assert_eq!(log.count(), n as u64, "case {case}");
        assert_eq!(log.max(), samples[n - 1], "case {case}");
        assert_eq!(log.mean(), sum as f64 / n as f64, "case {case}");
    }
}

/// Merging shards must be exactly equivalent to recording the
/// concatenated stream (the reduction the per-thread latency sinks do).
#[test]
fn log_histogram_sharded_merge_equals_single_stream() {
    for case in 0..CASES {
        let mut rng = case_rng(15, case);
        let shards = rng.index(4) + 2;
        let mut merged = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for _ in 0..shards {
            let mut shard = LogHistogram::new();
            for _ in 0..rng.index(100) {
                let v = rng.below(1 << 24);
                shard.record(v);
                whole.record(v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged, whole, "case {case}");
    }
}

// ---- dependency DAG ----

/// Building a graph the way the protocol does (dependencies always
/// point to *older* epochs of other threads) keeps it acyclic.
#[test]
fn protocol_shaped_dep_graphs_are_acyclic() {
    for case in 0..CASES {
        let mut rng = case_rng(9, case);
        let n = rng.index(60);
        let mut g = DepGraph::new();
        for _ in 0..n {
            let t1 = rng.index(3);
            let ts1 = rng.below(20);
            let t2 = rng.index(3);
            let ts2 = rng.below(20);
            if t1 == t2 {
                continue;
            }
            // Protocol rule: a dependent epoch is created *after* the
            // source epoch closes; model by forcing source.ts <= dep.ts.
            let (src, dep) = if ts1 <= ts2 {
                (
                    EpochId::new(ThreadId(t1), ts1),
                    EpochId::new(ThreadId(t2), ts2 + 1),
                )
            } else {
                (
                    EpochId::new(ThreadId(t2), ts2),
                    EpochId::new(ThreadId(t1), ts1 + 1),
                )
            };
            g.add_cross_dep(dep, src);
        }
        assert!(
            g.topological_order().is_some(),
            "case {case}: protocol-shaped graph must be a DAG"
        );
    }
}

// ---- address interning ----

/// [`LineTable`] agrees with a model `HashMap` on every intern/lookup,
/// and hands out dense first-touch indices — including across the
/// open-addressed table's growth (footprint overflow past the initial
/// capacity).
#[test]
fn line_table_matches_hashmap_model() {
    for case in 0..CASES {
        let mut rng = case_rng(10, case);
        // Small initial capacity so most cases overflow and rehash.
        let mut table = LineTable::with_capacity(4);
        let mut model: HashMap<LineAddr, usize> = HashMap::new();
        let universe = rng.below(300) + 1;
        let ops = rng.index(400) + 1;
        for _ in 0..ops {
            let line = LineAddr::containing(rng.below(universe) * 64);
            if rng.chance(0.7) {
                let next = model.len();
                let expect = *model.entry(line).or_insert(next);
                let idx = table.intern(line);
                assert_eq!(
                    idx.as_usize(),
                    expect,
                    "case {case}: dense first-touch order"
                );
            } else {
                assert_eq!(
                    table.lookup(line).map(LineIdx::as_usize),
                    model.get(&line).copied(),
                    "case {case}: lookup must agree with the model"
                );
            }
        }
        assert_eq!(table.len(), model.len(), "case {case}");
        for (&line, &idx) in &model {
            let got = table.lookup(line).expect("interned line must resolve");
            assert_eq!(got.as_usize(), idx, "case {case}");
            assert_eq!(table.addr_of(got), line, "case {case}: addr_of round-trip");
        }
    }
}

// ---- dense dependency graph vs map-based model ----

/// The old map-based `DepGraph` semantics, re-implemented as the test
/// model: the dense per-thread-lane version must agree with it on every
/// query after a random protocol-shaped op sequence.
#[derive(Default)]
struct MapDepGraph {
    created: HashMap<EpochId, u64>,
    committed: HashMap<EpochId, u64>,
    cross: HashMap<EpochId, Vec<EpochId>>,
    clock: u64,
}

impl MapDepGraph {
    fn ensure(&mut self, e: EpochId) {
        if !self.created.contains_key(&e) {
            self.clock += 1;
            self.created.insert(e, self.clock);
        }
    }

    fn add_cross_dep(&mut self, dependent: EpochId, source: EpochId) {
        self.ensure(dependent);
        self.ensure(source);
        self.cross.entry(dependent).or_default().push(source);
    }

    fn mark_committed(&mut self, e: EpochId) {
        self.ensure(e);
        if !self.committed.contains_key(&e) {
            self.clock += 1;
            self.committed.insert(e, self.clock);
        }
    }

    fn direct_deps(&self, e: EpochId) -> Vec<EpochId> {
        let mut out = Vec::new();
        if e.ts > 0 {
            out.push(EpochId::new(e.thread, e.ts - 1));
        }
        if let Some(cs) = self.cross.get(&e) {
            out.extend(cs.iter().copied());
        }
        out
    }

    fn transitive_deps(&self, e: EpochId) -> HashSet<EpochId> {
        let mut seen = HashSet::new();
        let mut queue = self.direct_deps(e);
        while let Some(d) = queue.pop() {
            if seen.insert(d) {
                queue.extend(self.direct_deps(d));
            }
        }
        seen
    }

    /// Every `[thread][ts]` slot up to each thread's highest registered
    /// timestamp, gaps included, in thread-major order.
    fn lane_slots(&self) -> Vec<EpochId> {
        let mut top: BTreeMap<ThreadId, u64> = BTreeMap::new();
        for e in self.created.keys() {
            let t = top.entry(e.thread).or_insert(e.ts);
            *t = (*t).max(e.ts);
        }
        top.into_iter()
            .flat_map(|(t, max)| (0..=max).map(move |ts| EpochId::new(t, ts)))
            .collect()
    }

    /// Kahn's algorithm over hash maps, as the graph did it before its
    /// lanes were dense: `None` exactly when the lane slots hold a cycle.
    fn topological_order(&self) -> Option<Vec<EpochId>> {
        let nodes: HashSet<EpochId> = self.lane_slots().into_iter().collect();
        let mut indegree: HashMap<EpochId, usize> = nodes.iter().map(|&n| (n, 0)).collect();
        let mut forward: HashMap<EpochId, Vec<EpochId>> = HashMap::new();
        for &n in &nodes {
            for d in self.direct_deps(n) {
                *indegree.get_mut(&n).expect("node present") += 1;
                forward.entry(d).or_default().push(n);
            }
        }
        let mut ready: VecDeque<EpochId> = indegree
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut order = Vec::with_capacity(nodes.len());
        while let Some(n) = ready.pop_front() {
            order.push(n);
            for &succ in forward.get(&n).map(Vec::as_slice).unwrap_or(&[]) {
                let d = indegree.get_mut(&succ).expect("node present");
                *d -= 1;
                if *d == 0 {
                    ready.push_back(succ);
                }
            }
        }
        (order.len() == nodes.len()).then_some(order)
    }
}

/// The dense graph's topological order agrees with the map model on
/// whether one exists, and when it does, it lists every lane slot once
/// with each epoch after all of its direct dependencies.
fn assert_topological_order_matches(dense: &DepGraph, model: &MapDepGraph, case: u64) {
    let order = dense.topological_order();
    assert_eq!(
        order.is_none(),
        model.topological_order().is_none(),
        "case {case}: cycle verdicts differ"
    );
    let Some(order) = order else {
        return;
    };
    let pos: HashMap<EpochId, usize> = order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
    assert_eq!(pos.len(), order.len(), "case {case}: a slot listed twice");
    let mut slots = order.clone();
    slots.sort();
    assert_eq!(slots, model.lane_slots(), "case {case}: lane slots covered");
    for (i, &e) in order.iter().enumerate() {
        for d in model.direct_deps(e) {
            assert!(
                pos[&d] < i,
                "case {case}: {e:?} placed before its dep {d:?}"
            );
        }
    }
}

#[test]
fn dense_dep_graph_matches_map_model() {
    for case in 0..CASES {
        let mut rng = case_rng(11, case);
        let mut dense = DepGraph::new();
        let mut model = MapDepGraph::default();
        let ops = rng.index(120) + 1;
        for _ in 0..ops {
            let e = EpochId::new(ThreadId(rng.index(4)), rng.below(24));
            match rng.index(3) {
                0 => {
                    dense.ensure(e);
                    model.ensure(e);
                }
                1 => {
                    let src = EpochId::new(ThreadId(rng.index(4)), rng.below(24));
                    dense.add_cross_dep(e, src);
                    model.add_cross_dep(e, src);
                }
                _ => {
                    dense.mark_committed(e);
                    model.mark_committed(e);
                }
            }
        }

        assert_eq!(dense.len(), model.created.len(), "case {case}");
        assert_eq!(dense.now(), model.clock, "case {case}");
        let nodes: Vec<EpochId> = dense.nodes().collect();
        let mut expect_nodes: Vec<EpochId> = model.created.keys().copied().collect();
        expect_nodes.sort();
        assert_eq!(
            nodes, expect_nodes,
            "case {case}: thread-major ts-minor order"
        );

        let committed: Vec<EpochId> = dense.committed().collect();
        let mut expect_committed: Vec<EpochId> = model.committed.keys().copied().collect();
        expect_committed.sort();
        assert_eq!(committed, expect_committed, "case {case}");

        // Probe registered epochs and never-registered neighbours alike.
        for t in 0..5 {
            for ts in 0..26 {
                let e = EpochId::new(ThreadId(t), ts);
                assert_eq!(
                    dense.is_committed(e),
                    model.committed.contains_key(&e),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.creation_stamp(e),
                    model.created.get(&e).copied(),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.commit_stamp(e),
                    model.committed.get(&e).copied(),
                    "case {case} {e:?}"
                );
                let empty = Vec::new();
                assert_eq!(
                    dense.cross_deps_of(e),
                    model
                        .cross
                        .get(&e)
                        .filter(|_| model.created.contains_key(&e))
                        .unwrap_or(&empty)
                        .as_slice(),
                    "case {case} {e:?}"
                );
                assert_eq!(
                    dense.direct_deps(e),
                    model.direct_deps(e),
                    "case {case} {e:?}"
                );
            }
        }
        assert_topological_order_matches(&dense, &model, case);
    }
}

// ---- crash oracle vs its quadratic reference ----

/// The crash oracle as it was before the watermark pass: one
/// transitive-closure BFS per visible and per committed epoch, over the
/// map model. Kept as the reference the linear pass must match, report
/// for report.
fn reference_check(journal: &WriteJournal, model: &MapDepGraph, nvm: &NvmImage) -> CrashReport {
    let mut report = CrashReport {
        epochs_committed: model.committed.len(),
        ..CrashReport::default()
    };
    if model.topological_order().is_none() {
        report.violations.push(Violation {
            rule: ViolationRule::DepCycle,
            message: "epoch dependency graph contains a cycle (Lemma 0.1 violated)".to_string(),
        });
    }

    let mut epoch_writes: BTreeMap<EpochId, Vec<(LineAddr, u64)>> = BTreeMap::new();
    for e in journal.entries() {
        let Some(epoch) = e.epoch else {
            continue;
        };
        let writes = epoch_writes.entry(epoch).or_default();
        match writes.iter_mut().find(|(l, _)| *l == e.line) {
            Some((_, s)) => *s = (*s).max(e.seq.0),
            None => writes.push((e.line, e.seq.0)),
        }
    }

    let mut visible: BTreeSet<EpochId> = BTreeSet::new();
    for (&line, rec) in nvm.iter() {
        report.lines_checked += 1;
        match rec.seq {
            Some(seq) => {
                let Some(entry) = journal.get(WriteSeq(seq)) else {
                    report.violations.push(Violation {
                        rule: ViolationRule::JournalIntegrity,
                        message: format!("line {line}: owner seq {seq} not in journal"),
                    });
                    continue;
                };
                if entry.line != line {
                    report.violations.push(Violation {
                        rule: ViolationRule::JournalIntegrity,
                        message: format!(
                            "line {line}: owner seq {seq} journaled for different line {}",
                            entry.line
                        ),
                    });
                    continue;
                }
                if entry.data != rec.data {
                    report.violations.push(Violation {
                        rule: ViolationRule::TornValue,
                        message: format!(
                            "line {line}: recovered bytes differ from journaled write seq {seq} \
                             (Fig. 5-style lost update?)"
                        ),
                    });
                }
                if let Some(e) = rec.epoch {
                    visible.insert(e);
                }
            }
            None => {
                if !nvm.is_preinit(line) && rec.data.iter().any(|&b| b != 0) {
                    report.violations.push(Violation {
                        rule: ViolationRule::UntaggedNonZero,
                        message: format!("line {line}: untagged recovered line is non-zero"),
                    });
                }
            }
        }
    }
    report.epochs_visible = visible.len();

    let mut obligated: BTreeSet<EpochId> = BTreeSet::new();
    for &e in &visible {
        obligated.extend(model.transitive_deps(e));
    }
    for &e in model.committed.keys() {
        obligated.insert(e);
        obligated.extend(model.transitive_deps(e));
    }
    for e in obligated {
        let Some(writes) = epoch_writes.get(&e) else {
            continue;
        };
        for &(line, max_seq) in writes {
            let rec = nvm.line(line);
            if rec.seq.is_some_and(|s| s >= max_seq) {
                continue;
            }
            let (rule, why) = if model.committed.contains_key(&e) {
                (
                    ViolationRule::CommittedWriteLost,
                    "committed epoch lost a write (Lemma 1.1 violated)",
                )
            } else {
                (
                    ViolationRule::OrderingViolated,
                    "dependency of a visible epoch lost a write (ordering violated)",
                )
            };
            report.violations.push(Violation {
                rule,
                message: format!(
                    "epoch {e}: write seq {max_seq} to {line} did not survive \
                     (recovered owner seq {:?}): {why}",
                    rec.seq
                ),
            });
        }
    }
    report
}

/// A random epoch on a thread below `threads`, with a timestamp below
/// `ts_bound`.
fn random_epoch(rng: &mut DetRng, threads: usize, ts_bound: u64) -> EpochId {
    EpochId::new(ThreadId(rng.index(threads)), rng.below(ts_bound))
}

/// `oracle::check` returns exactly the reference's report, violation
/// order included, on random graphs (timestamp gaps, self-loops,
/// multi-thread cycles, cross edges to far-future timestamps), random
/// journals with unexecuted writes, and random recovered images with
/// lost, stale, torn, dangling and untagged lines.
#[test]
fn oracle_matches_quadratic_reference() {
    let mut seen_rules: BTreeSet<ViolationRule> = BTreeSet::new();
    let mut consistent = 0;
    for case in 0..4 * CASES {
        let mut rng = case_rng(12, case);
        let threads = rng.index(4) + 1;
        // A third of the cases only add protocol-shaped (older-source)
        // edges, so plenty of graphs stay acyclic.
        let protocol_shaped = case % 3 == 0;
        let mut dense = DepGraph::new();
        let mut model = MapDepGraph::default();
        for _ in 0..rng.index(40) {
            let e = random_epoch(&mut rng, threads, 12);
            match rng.index(4) {
                0 => {
                    dense.ensure(e);
                    model.ensure(e);
                }
                1 | 2 => {
                    let mut src = random_epoch(&mut rng, threads, 12);
                    if protocol_shaped {
                        if src.ts >= e.ts {
                            continue;
                        }
                    } else if rng.chance(0.1) {
                        src = e; // self-loop
                    } else if rng.chance(0.1) {
                        src.ts += 20 + rng.below(20); // far future
                    }
                    dense.add_cross_dep(e, src);
                    model.add_cross_dep(e, src);
                }
                _ => {
                    dense.mark_committed(e);
                    model.mark_committed(e);
                }
            }
        }
        assert_topological_order_matches(&dense, &model, case);

        // Journal: writes to a small line universe, most executed in a
        // random epoch, possibly one the graph never registered (even on
        // a thread it has no lane for).
        let lines = rng.below(12) + 1;
        let mut journal = WriteJournal::enabled();
        let mut by_line: BTreeMap<u64, Vec<WriteSeq>> = BTreeMap::new();
        for _ in 0..rng.index(48) {
            let line = rng.below(lines);
            let seq = journal.record(
                LineAddr::containing(line * 64),
                [rng.below(255) as u8 + 1; 64],
            );
            if rng.chance(0.85) {
                journal.assign_epoch(seq, random_epoch(&mut rng, threads + 1, 14));
            }
            by_line.entry(line).or_default().push(seq);
        }

        // Recovered image: per line, the last write, a stale one, none,
        // or a corrupted record.
        let mut nvm = NvmImage::new();
        for line in 0..lines {
            let addr = LineAddr::containing(line * 64);
            let writes = by_line.get(&line).map(Vec::as_slice).unwrap_or(&[]);
            let pick = match writes {
                [] => None,
                [.., last] if rng.chance(0.5) => Some(*last),
                _ => Some(writes[rng.index(writes.len())]),
            };
            match (pick, rng.index(20)) {
                (Some(seq), 0..=13) => {
                    let e = journal.get(seq).expect("journaled");
                    nvm.persist(addr, e.data, Some(seq.0), e.epoch);
                }
                (Some(seq), 14) => {
                    let e = journal.get(seq).expect("journaled");
                    nvm.persist(addr, [0xEE; 64], Some(seq.0), e.epoch);
                }
                (Some(seq), 15) => {
                    let e = journal.get(seq).expect("journaled");
                    let tag = random_epoch(&mut rng, threads + 1, 14);
                    nvm.persist(addr, e.data, Some(seq.0), Some(tag));
                }
                (_, 16) => {
                    // Another line's seq, or one past the journal's end.
                    let seq = rng.below(journal.writes_issued() + 2);
                    nvm.persist(addr, [1; 64], Some(seq), None);
                }
                (_, 17) => nvm.persist(addr, [2; 64], None, None),
                (_, 18) => nvm.preinit(addr, [3; 64]),
                _ => {} // lost: never reached the media
            }
        }

        let got = oracle::check(&journal, &dense, &nvm);
        let want = reference_check(&journal, &model, &nvm);
        assert_eq!(got, want, "case {case}");
        seen_rules.extend(got.violations.iter().map(|v| v.rule));
        consistent += usize::from(got.is_consistent());
    }
    assert_eq!(
        seen_rules.into_iter().collect::<Vec<_>>(),
        ViolationRule::ALL.to_vec(),
        "every rule exercised"
    );
    assert!(consistent > 0, "some cases must be consistent");
}
