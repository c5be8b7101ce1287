//! Machine-checked recovery correctness (paper §VI).
//!
//! The paper proves two theorems on paper; we check them on every
//! simulated crash:
//!
//! * **Theorem 1 (forward progress)** is checked operationally — the
//!   simulator panics on deadlock — and structurally: the epoch
//!   dependency graph must admit a topological order (Lemma 0.1).
//! * **Theorem 2 (recovery consistency)** is checked against the write
//!   journal. After the crash drain (WPQ flush + undo application), the
//!   recovered NVM image must satisfy:
//!
//!   1. **Value integrity** — every line's contents equal the journaled
//!      snapshot of the write that owns it (no Fig. 5-style lost
//!      updates).
//!   2. **Prefix closure / durability** — let `V` be the epochs owning at
//!      least one recovered line and `C` the epochs that committed before
//!      the crash. Every epoch in `C`, and every epoch that an epoch of
//!      `V ∪ C` transitively depends on, is *obligated*: all of its
//!      journaled writes must have survived. For each line such an epoch
//!      wrote, the recovered owner sequence must be at least the epoch's
//!      last write to that line (the write persisted, or was overwritten
//!      by a persisted newer write, which leaves the same final state).
//!      A visible but uncommitted epoch is not obligated itself: its own
//!      writes may legitimately be partial. `C ⊆` durable is exactly
//!      Lemma 1.1; the dependency closure is the §IV-B ordering
//!      guarantee.
//!
//! ## Cost
//!
//! The whole check is O(V + E + J + L) for V epochs, E cross edges, J
//! journal entries and L recovered lines, with no hashing. Program order
//! makes every thread's obligated epochs a prefix of its timestamps, so
//! the obligated set is one watermark per thread, found by a worklist
//! that visits each epoch and each cross edge at most once.

use crate::deps::DepGraph;
use asap_pm_mem::{NvmImage, WriteJournal};
use asap_sim_core::{EpochId, LineAddr, ThreadId};

/// Dense per-thread, per-timestamp table keyed by `EpochId` (timestamps
/// are small consecutive integers, so `[thread][ts]` indexing replaces
/// the hash maps this check used to build). Iteration is thread-major,
/// timestamp-minor, which makes the violation report order deterministic.
struct EpochDense<T> {
    threads: Vec<Vec<T>>,
}

impl<T: Default> EpochDense<T> {
    fn new() -> EpochDense<T> {
        EpochDense {
            threads: Vec::new(),
        }
    }

    fn get_mut(&mut self, e: EpochId) -> &mut T {
        let t = e.thread.0;
        if t >= self.threads.len() {
            self.threads.resize_with(t + 1, Vec::new);
        }
        let lane = &mut self.threads[t];
        let ts = e.ts as usize;
        if ts >= lane.len() {
            lane.resize_with(ts + 1, T::default);
        }
        &mut lane[ts]
    }

    fn iter(&self) -> impl Iterator<Item = (EpochId, &T)> + '_ {
        self.threads.iter().enumerate().flat_map(|(t, lane)| {
            lane.iter()
                .enumerate()
                .map(move |(ts, v)| (EpochId::new(ThreadId(t), ts as u64), v))
        })
    }
}

/// The oracle rule a [`Violation`] broke. Every violation the checker
/// can emit maps to exactly one rule, so downstream consumers (the
/// crash-space explorer's per-rule tally, CI gates) can aggregate
/// without parsing message text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationRule {
    /// Lemma 0.1: the epoch dependency graph admits no topological order.
    DepCycle,
    /// A recovered line's ownership tag does not resolve to a journaled
    /// write of that line (dangling seq, or seq journaled for a
    /// different address).
    JournalIntegrity,
    /// A recovered line's bytes differ from the journaled snapshot of
    /// the write that owns it (Fig. 5-style lost update / torn value).
    TornValue,
    /// A line with no ownership tag holds non-zero bytes without being
    /// part of the pre-initialized pool.
    UntaggedNonZero,
    /// Lemma 1.1: a committed epoch's write did not survive recovery.
    CommittedWriteLost,
    /// §IV-B prefix closure: a transitive dependency of a visible epoch
    /// lost a write (Theorem 2 ordering violation).
    OrderingViolated,
}

impl ViolationRule {
    /// Stable kebab-case identifier (report/JSON key).
    pub fn as_str(&self) -> &'static str {
        match self {
            ViolationRule::DepCycle => "dep-cycle",
            ViolationRule::JournalIntegrity => "journal-integrity",
            ViolationRule::TornValue => "torn-value",
            ViolationRule::UntaggedNonZero => "untagged-non-zero",
            ViolationRule::CommittedWriteLost => "committed-write-lost",
            ViolationRule::OrderingViolated => "ordering-violated",
        }
    }

    /// All rules, in report order.
    pub const ALL: [ViolationRule; 6] = [
        ViolationRule::DepCycle,
        ViolationRule::JournalIntegrity,
        ViolationRule::TornValue,
        ViolationRule::UntaggedNonZero,
        ViolationRule::CommittedWriteLost,
        ViolationRule::OrderingViolated,
    ];
}

impl std::fmt::Display for ViolationRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One oracle violation: a typed rule plus the human-readable
/// diagnostic. `Display` renders just the message, so existing
/// `println!("- {v}")`-style consumers keep working.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which check failed.
    pub rule: ViolationRule,
    /// Human-readable diagnostic.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Why a crash check could not run at all (as opposed to running and
/// finding violations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleError {
    /// The simulation was built without `SimBuilder::with_journal()`, so
    /// there is no golden write history to check the recovered image
    /// against.
    JournalDisabled,
}

impl std::fmt::Display for OracleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleError::JournalDisabled => {
                f.write_str("crash checking requires SimBuilder::with_journal()")
            }
        }
    }
}

impl std::error::Error for OracleError {}

/// Result of a crash-consistency check.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashReport {
    /// Every violation found (empty ⇒ consistent), each carrying its
    /// typed [`ViolationRule`] and diagnostic message.
    pub violations: Vec<Violation>,
    /// Undo records applied during the crash drain.
    pub undo_records_applied: usize,
    /// Lines inspected in the recovered image.
    pub lines_checked: usize,
    /// Distinct epochs with at least one surviving write.
    pub epochs_visible: usize,
    /// Epochs committed before the crash.
    pub epochs_committed: usize,
}

impl CrashReport {
    /// Whether the recovered state satisfied every check.
    pub fn is_consistent(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Check a recovered NVM image against the write journal and dependency
/// graph. See the module docs for the properties verified.
pub fn check(journal: &WriteJournal, deps: &DepGraph, nvm: &NvmImage) -> CrashReport {
    let mut report = CrashReport {
        epochs_committed: deps.committed().count(),
        ..CrashReport::default()
    };

    // Lemma 0.1: the dependency graph must be acyclic.
    if deps.topological_order().is_none() {
        report.violations.push(Violation {
            rule: ViolationRule::DepCycle,
            message: "epoch dependency graph contains a cycle (Lemma 0.1 violated)".to_string(),
        });
    }

    // Per-epoch write sets: epoch -> [(line, last (max-seq) write)],
    // lines in first-write order.
    let mut epoch_writes: EpochDense<Vec<(LineAddr, u64)>> = EpochDense::new();
    for e in journal.entries() {
        let Some(epoch) = e.epoch else {
            continue; // never executed: no durability obligation
        };
        let writes = epoch_writes.get_mut(epoch);
        match writes.iter_mut().find(|(l, _)| *l == e.line) {
            Some((_, s)) => *s = (*s).max(e.seq.0),
            None => writes.push((e.line, e.seq.0)),
        }
    }

    // Check 1: value integrity of every recovered line.
    let mut visible: EpochDense<bool> = EpochDense::new();
    let mut epochs_visible = 0usize;
    for (&line, rec) in nvm.iter() {
        report.lines_checked += 1;
        match rec.seq {
            Some(seq) => {
                let Some(entry) = journal.get(asap_pm_mem::WriteSeq(seq)) else {
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
                    let seen = visible.get_mut(e);
                    if !*seen {
                        *seen = true;
                        epochs_visible += 1;
                    }
                }
            }
            None => {
                // Restored to the pre-journal (never-persisted) state:
                // must be all zeros, unless the line was part of the
                // initial pool contents (structure setup).
                if !nvm.is_preinit(line) && rec.data.iter().any(|&b| b != 0) {
                    report.violations.push(Violation {
                        rule: ViolationRule::UntaggedNonZero,
                        message: format!("line {line}: untagged recovered line is non-zero"),
                    });
                }
            }
        }
    }
    report.epochs_visible = epochs_visible;

    // Check 2: prefix closure + committed durability. The obligated
    // epochs are those reachable by >= 0 dependency edges from a
    // committed epoch or by >= 1 edge from a visible one: a prefix of
    // every thread, held as one watermark per thread and found in O(V+E)
    // by `obligations`.
    let covered = obligations(deps, &visible);
    for (e, writes) in epoch_writes.iter() {
        if e.ts >= covered.get(e.thread.0).copied().unwrap_or(0) {
            continue; // not obligated
        }
        for &(line, max_seq) in writes {
            let rec = nvm.line(line);
            let surviving = rec.seq.is_some_and(|s| s >= max_seq);
            if !surviving {
                let (rule, why) = if deps.is_committed(e) {
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
    }

    report
}

/// Per-thread obligation watermarks of Check 2: `covered[t]` is the
/// number of leading timestamps of thread `t` whose writes must all have
/// survived. `scanned[t]` is how far the worklist has visited, and
/// `dirty` holds the threads whose watermark rose past it.
#[derive(Default)]
struct Watermarks {
    covered: Vec<u64>,
    scanned: Vec<u64>,
    dirty: Vec<usize>,
}

impl Watermarks {
    /// Obligate timestamps `0..to` of thread `t`.
    fn raise(&mut self, t: usize, to: u64) {
        if t >= self.covered.len() {
            self.covered.resize(t + 1, 0);
            self.scanned.resize(t + 1, 0);
        }
        if to > self.covered[t] {
            self.covered[t] = to;
            self.dirty.push(t);
        }
    }
}

/// The obligation watermarks of `deps` given the visible epochs.
///
/// Seeds: a committed epoch `(t, ts)` covers `0..=ts`; a visible epoch
/// covers `0..ts` (its predecessor's prefix) plus its cross sources.
/// Then, each time a thread's watermark rises, the newly covered epochs
/// are scanned once and raise the watermarks of their cross sources.
/// Every epoch and edge is visited at most once, so the pass is O(V+E),
/// and it terminates on cyclic graphs too (watermarks only rise).
fn obligations(deps: &DepGraph, visible: &EpochDense<bool>) -> Vec<u64> {
    let mut marks = Watermarks::default();
    for e in deps.committed() {
        marks.raise(e.thread.0, e.ts + 1);
    }
    for (e, _) in visible.iter().filter(|&(_, &vis)| vis) {
        marks.raise(e.thread.0, e.ts);
        for src in deps.cross_deps_of(e) {
            marks.raise(src.thread.0, src.ts + 1);
        }
    }
    while let Some(t) = marks.dirty.pop() {
        let end = marks.covered[t];
        for ts in marks.scanned[t]..end {
            for src in deps.cross_deps_of(EpochId::new(ThreadId(t), ts)) {
                marks.raise(src.thread.0, src.ts + 1);
            }
        }
        marks.scanned[t] = end;
    }
    marks.covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep(t: usize, ts: u64) -> EpochId {
        EpochId::new(ThreadId(t), ts)
    }

    fn la(i: u64) -> LineAddr {
        LineAddr::containing(i * 64)
    }

    fn snap(b: u8) -> [u8; 64] {
        [b; 64]
    }

    /// Build a journal with epochs already assigned.
    fn journal(entries: &[(usize, u64, u64, u8)]) -> WriteJournal {
        // (thread, epoch_ts, line_idx, value)
        let mut j = WriteJournal::enabled();
        for &(t, ts, line, v) in entries {
            let s = j.record(la(line), snap(v));
            j.assign_epoch(s, ep(t, ts));
        }
        j
    }

    #[test]
    fn empty_state_is_consistent() {
        let j = WriteJournal::enabled();
        let g = DepGraph::new();
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.lines_checked, 0);
    }

    #[test]
    fn fully_persisted_run_is_consistent() {
        let j = journal(&[(0, 0, 1, 5), (0, 1, 2, 6)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        g.mark_committed(ep(0, 1));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        nvm.persist(la(2), snap(6), Some(1), Some(ep(0, 1)));
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.epochs_visible, 2);
    }

    #[test]
    fn detects_value_corruption() {
        let j = journal(&[(0, 0, 1, 5)]);
        let g = DepGraph::new();
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(9), Some(0), Some(ep(0, 0))); // wrong bytes
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::TornValue);
        assert!(r.violations[0].message.contains("differ"));
    }

    #[test]
    fn detects_prefix_violation() {
        // Epoch (0,1) visible but its predecessor (0,0) wrote line 1 and
        // that write is missing from NVM.
        let j = journal(&[(0, 0, 1, 5), (0, 1, 2, 6)]);
        let g = {
            let mut g = DepGraph::new();
            g.ensure(ep(0, 1));
            g
        };
        let mut nvm = NvmImage::new();
        nvm.persist(la(2), snap(6), Some(1), Some(ep(0, 1)));
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::OrderingViolated);
        assert!(r.violations[0].message.contains("ordering violated"));
    }

    #[test]
    fn detects_lost_committed_write() {
        let j = journal(&[(0, 0, 1, 5)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let nvm = NvmImage::new(); // nothing persisted!
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::CommittedWriteLost);
        assert!(r.violations[0].message.contains("Lemma 1.1"));
    }

    #[test]
    fn overwritten_dependency_write_is_fine() {
        // (0,0) wrote line 1 seq 0; (1,0) overwrote line 1 seq 1 and is
        // visible; (1,0) depends on (0,0). Owner seq 1 >= 0: consistent.
        let mut j = WriteJournal::enabled();
        let s0 = j.record(la(1), snap(5));
        j.assign_epoch(s0, ep(0, 0));
        let s1 = j.record(la(1), snap(7));
        j.assign_epoch(s1, ep(1, 0));
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(7), Some(1), Some(ep(1, 0)));
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
    }

    #[test]
    fn cross_thread_dependency_violation_detected() {
        // (1,1) depends on (0,0); (1,1)'s write survived, (0,0)'s did not.
        let j = journal(&[(0, 0, 1, 5), (1, 1, 2, 6)]);
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(1, 1), ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(2), snap(6), Some(1), Some(ep(1, 1)));
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
    }

    #[test]
    fn unexecuted_journal_entries_carry_no_obligation() {
        let mut j = WriteJournal::enabled();
        j.record(la(1), snap(5)); // epoch never assigned (still in burst)
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
    }

    #[test]
    fn untagged_nonzero_line_flagged() {
        let j = WriteJournal::enabled();
        let g = DepGraph::new();
        let mut nvm = NvmImage::new();
        nvm.persist(la(3), snap(1), None, None);
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::UntaggedNonZero);
        assert!(r.violations[0].message.contains("non-zero"));
    }

    #[test]
    fn cycle_flagged() {
        let j = WriteJournal::enabled();
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(0, 0), ep(1, 0));
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        let nvm = NvmImage::new();
        let r = check(&j, &g, &nvm);
        assert!(!r.is_consistent());
        assert_eq!(r.violations[0].rule, ViolationRule::DepCycle);
        assert!(r.violations[0].message.contains("cycle"));
    }

    #[test]
    fn report_accessors() {
        let j = journal(&[(0, 0, 1, 5)]);
        let mut g = DepGraph::new();
        g.mark_committed(ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        let r = check(&j, &g, &nvm);
        assert_eq!(r.lines_checked, 1);
        assert_eq!(r.epochs_visible, 1);
        assert_eq!(r.epochs_committed, 1);
    }

    #[test]
    fn visible_uncommitted_epoch_may_lose_its_own_write() {
        // (0,0) wrote lines 1 and 2; only line 1 reached the media. The
        // epoch is visible but never committed, so its own writes carry
        // no obligation.
        let j = journal(&[(0, 0, 1, 5), (0, 0, 2, 6)]);
        let mut g = DepGraph::new();
        g.ensure(ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        let r = check(&j, &g, &nvm);
        assert!(r.is_consistent(), "{:?}", r.violations);
        assert_eq!(r.epochs_visible, 1);
    }

    #[test]
    fn visible_epoch_on_a_cycle_is_obligated_to_itself() {
        // (0,0) and (1,0) depend on each other, so (0,0) is one of its
        // own transitive dependencies: its lost write to line 2 is an
        // ordering violation, reported after the cycle.
        let j = journal(&[(0, 0, 1, 5), (0, 0, 2, 6)]);
        let mut g = DepGraph::new();
        g.add_cross_dep(ep(0, 0), ep(1, 0));
        g.add_cross_dep(ep(1, 0), ep(0, 0));
        let mut nvm = NvmImage::new();
        nvm.persist(la(1), snap(5), Some(0), Some(ep(0, 0)));
        let r = check(&j, &g, &nvm);
        let rules: Vec<ViolationRule> = r.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules,
            vec![ViolationRule::DepCycle, ViolationRule::OrderingViolated]
        );
        assert!(r.violations[1]
            .message
            .starts_with("epoch E0,0: write seq 1"));
    }

    #[test]
    fn self_loop_and_three_thread_cycle_flagged() {
        let mut self_loop = DepGraph::new();
        self_loop.add_cross_dep(ep(0, 1), ep(0, 1));
        let mut three = DepGraph::new();
        three.add_cross_dep(ep(0, 1), ep(1, 1));
        three.add_cross_dep(ep(1, 1), ep(2, 1));
        three.add_cross_dep(ep(2, 1), ep(0, 1));
        for g in [self_loop, three] {
            let r = check(&WriteJournal::enabled(), &g, &NvmImage::new());
            assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
            assert_eq!(r.violations[0].rule, ViolationRule::DepCycle);
        }
    }
}
