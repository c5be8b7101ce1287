//! Simulation statistics.
//!
//! The counters follow the *exact* stat names of Table VI in the paper's
//! artifact appendix so experiment output can be compared line-by-line
//! with the original gem5 stats:
//!
//! | stat | description |
//! |---|---|
//! | `cyclesBlocked` | cycles for which the PB is unable to flush |
//! | `cyclesStalled` | CPU stall cycles because of a full PB |
//! | `dfenceStalled` | CPU stall cycles because of `dfence` |
//! | `entriesInserted` | writes enqueued in the PBs |
//! | `interTEpochConflict` | cross-thread dependencies |
//! | `totSpecWrites` | early (speculative) flushes |
//! | `totalUndo` | undo records created |
//!
//! Beyond Table VI, [`Stats`] carries the memory-system counters needed by
//! Figures 9 and 13 (PM reads/writes, NACKs) and the time-weighted
//! persist-buffer occupancy of Figure 11, a [`LogHistogram`] (unit
//! buckets below 128, so exact for every PB size the sweeps use).

use crate::hist::LogHistogram;
use crate::time::Cycle;
use std::collections::BTreeMap;

/// All counters for one simulation run.
///
/// Field names are snake_case versions of the paper's camelCase stat
/// names; [`Stats::snapshot`] renders them under the original names.
/// `PartialEq` lets the parallel-sweep equivalence tests compare whole
/// run outcomes structurally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    // ---- Table VI stats ----
    /// Cycles for which persist buffers were unable to flush
    /// (non-empty but blocked by ordering). Summed over all cores.
    pub cycles_blocked: u64,
    /// CPU stall cycles because the persist buffer was full.
    pub cycles_stalled: u64,
    /// CPU stall cycles caused by `dfence` (waiting for durability).
    pub dfence_stalled: u64,
    /// Total writes enqueued into persist buffers.
    pub entries_inserted: u64,
    /// Number of cross-thread dependencies detected.
    pub inter_t_epoch_conflict: u64,
    /// Number of early (speculative) flushes sent to the MCs.
    pub tot_spec_writes: u64,
    /// Number of undo records created in recovery tables.
    pub total_undo: u64,

    // ---- additional counters needed by the evaluation ----
    /// CPU stall cycles caused by `ofence`/`sfence` (baseline only).
    pub ofence_stalled: u64,
    /// Writes actually issued to NVM media (Figure 9).
    pub nvm_writes: u64,
    /// Reads issued to NVM media, including undo-record reads (§VII-A:
    /// "number of PM reads increases by 5.3%").
    pub nvm_reads: u64,
    /// Undo-record reads that hit the XPBuffer model.
    pub xpbuffer_hits: u64,
    /// Number of delay records created (write collisions, Fig. 5).
    pub total_delay: u64,
    /// Number of flushes NACKed because the RT was full (§V-D).
    pub nacks: u64,
    /// Epoch commit messages sent to MCs.
    pub commit_msgs: u64,
    /// Cross-dependency-resolved messages between threads.
    pub cdr_msgs: u64,
    /// Writes coalesced into an existing PB entry (never reached NVM
    /// separately).
    pub pb_coalesced: u64,
    /// Writes coalesced inside the WPQ.
    pub wpq_coalesced: u64,
    /// Writes suppressed at the MC because a newer value was already in
    /// memory (safe flush absorbed into an undo record).
    pub mc_suppressed_writes: u64,
    /// Total epochs created (ofence/acquire/release/dependency splits).
    pub epochs_created: u64,
    /// Total committed epochs.
    pub epochs_committed: u64,
    /// Total simulated cycles of the run (set by the driver at the end).
    pub total_cycles: u64,
    /// Number of logical workload operations completed.
    pub ops_completed: u64,
    /// Number of loads executed.
    pub loads: u64,
    /// Number of stores executed.
    pub stores: u64,
    /// HOPS: accesses to the global timestamp register.
    pub global_ts_reads: u64,
    /// Explicit `clwb`-style flush hints executed (see `MemOp::Flush`
    /// in `asap-core`; pure hints, no ordering effect).
    pub flush_hints: u64,

    /// Per-core persist-buffer occupancy, each value weighted by the
    /// cycles a core spent at it (Figure 11: mean and p99).
    pub pb_occupancy: LogHistogram,
}

impl Stats {
    /// Create a zeroed stats block.
    pub fn new() -> Stats {
        Stats::default()
    }

    /// Render the Table VI counters (plus the extended set) under the
    /// paper's original stat names, suitable for printing as a
    /// gem5-`stats.txt`-style listing.
    pub fn snapshot(&self) -> StatSnapshot {
        let mut m = BTreeMap::new();
        m.insert("cyclesBlocked".to_string(), self.cycles_blocked);
        m.insert("cyclesStalled".to_string(), self.cycles_stalled);
        m.insert("dfenceStalled".to_string(), self.dfence_stalled);
        m.insert("entriesInserted".to_string(), self.entries_inserted);
        m.insert(
            "interTEpochConflict".to_string(),
            self.inter_t_epoch_conflict,
        );
        m.insert("totSpecWrites".to_string(), self.tot_spec_writes);
        m.insert("totalUndo".to_string(), self.total_undo);
        m.insert("ofenceStalled".to_string(), self.ofence_stalled);
        m.insert("nvmWrites".to_string(), self.nvm_writes);
        m.insert("nvmReads".to_string(), self.nvm_reads);
        m.insert("xpbufferHits".to_string(), self.xpbuffer_hits);
        m.insert("totalDelay".to_string(), self.total_delay);
        m.insert("nacks".to_string(), self.nacks);
        m.insert("commitMsgs".to_string(), self.commit_msgs);
        m.insert("cdrMsgs".to_string(), self.cdr_msgs);
        m.insert("pbCoalesced".to_string(), self.pb_coalesced);
        m.insert("wpqCoalesced".to_string(), self.wpq_coalesced);
        m.insert("mcSuppressedWrites".to_string(), self.mc_suppressed_writes);
        m.insert("epochsCreated".to_string(), self.epochs_created);
        m.insert("epochsCommitted".to_string(), self.epochs_committed);
        m.insert("totalCycles".to_string(), self.total_cycles);
        m.insert("opsCompleted".to_string(), self.ops_completed);
        m.insert("loads".to_string(), self.loads);
        m.insert("stores".to_string(), self.stores);
        m.insert("globalTsReads".to_string(), self.global_ts_reads);
        m.insert("flushHints".to_string(), self.flush_hints);
        StatSnapshot { counters: m }
    }

    /// Convenience: record the end-of-run time.
    pub fn finish(&mut self, end: Cycle) {
        self.total_cycles = end.raw();
    }
}

/// An ordered name→value view of the counters, for report emission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatSnapshot {
    counters: BTreeMap<String, u64>,
}

impl StatSnapshot {
    /// Look up a counter by its paper name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Render as a gem5-style `stats.txt` block.
    pub fn to_stats_txt(&self) -> String {
        let mut out = String::new();
        for (k, v) in self.iter() {
            out.push_str(&format!("{k:<24} {v}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_uses_paper_names() {
        let mut s = Stats::new();
        s.cycles_blocked = 7;
        s.tot_spec_writes = 9;
        s.total_undo = 3;
        let snap = s.snapshot();
        assert_eq!(snap.get("cyclesBlocked"), Some(7));
        assert_eq!(snap.get("totSpecWrites"), Some(9));
        assert_eq!(snap.get("totalUndo"), Some(3));
        assert_eq!(snap.get("interTEpochConflict"), Some(0));
        assert!(snap.to_stats_txt().contains("cyclesBlocked"));
    }

    #[test]
    fn finish_records_cycles() {
        let mut s = Stats::new();
        s.finish(Cycle(1234));
        assert_eq!(s.total_cycles, 1234);
    }

    #[test]
    fn snapshot_covers_every_scalar_counter() {
        // Assign each scalar a distinct value; every one must surface in
        // the snapshot under its paper name with that exact value.
        let s = Stats {
            cycles_blocked: 1,
            cycles_stalled: 2,
            dfence_stalled: 3,
            entries_inserted: 4,
            inter_t_epoch_conflict: 5,
            tot_spec_writes: 6,
            total_undo: 7,
            ofence_stalled: 8,
            nvm_writes: 9,
            nvm_reads: 10,
            xpbuffer_hits: 11,
            total_delay: 12,
            nacks: 13,
            commit_msgs: 14,
            cdr_msgs: 15,
            pb_coalesced: 16,
            wpq_coalesced: 17,
            mc_suppressed_writes: 18,
            epochs_created: 19,
            epochs_committed: 20,
            total_cycles: 21,
            ops_completed: 22,
            loads: 23,
            stores: 24,
            global_ts_reads: 25,
            flush_hints: 26,
            ..Stats::new()
        };
        let snap = s.snapshot();
        let expect = [
            ("cyclesBlocked", 1),
            ("cyclesStalled", 2),
            ("dfenceStalled", 3),
            ("entriesInserted", 4),
            ("interTEpochConflict", 5),
            ("totSpecWrites", 6),
            ("totalUndo", 7),
            ("ofenceStalled", 8),
            ("nvmWrites", 9),
            ("nvmReads", 10),
            ("xpbufferHits", 11),
            ("totalDelay", 12),
            ("nacks", 13),
            ("commitMsgs", 14),
            ("cdrMsgs", 15),
            ("pbCoalesced", 16),
            ("wpqCoalesced", 17),
            ("mcSuppressedWrites", 18),
            ("epochsCreated", 19),
            ("epochsCommitted", 20),
            ("totalCycles", 21),
            ("opsCompleted", 22),
            ("loads", 23),
            ("stores", 24),
            ("globalTsReads", 25),
            ("flushHints", 26),
        ];
        assert_eq!(snap.iter().count(), expect.len());
        for (name, value) in expect {
            assert_eq!(snap.get(name), Some(value), "counter {name}");
        }
    }

    #[test]
    fn stats_txt_is_deterministic_and_sorted() {
        let mut s = Stats::new();
        s.nvm_writes = 42;
        s.cycles_blocked = 17;
        let a = s.snapshot().to_stats_txt();
        let b = s.snapshot().to_stats_txt();
        assert_eq!(a, b);
        let snap = s.snapshot();
        let names: Vec<&str> = snap.iter().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "iteration must be in sorted key order");
    }
}
