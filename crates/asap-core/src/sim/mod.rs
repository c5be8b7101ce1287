//! The event-driven system simulator.
//!
//! One [`Sim`] instance models the whole machine of Table II: N cores with
//! private caches, persist buffers and epoch tables; a shared LLC
//! directory; M memory controllers with WPQs, NVM media pipes and (for
//! ASAP) recovery tables. The persistency *model*
//! ([`ModelKind`]) selects how stores become durable:
//!
//! * **Baseline** — stores are tracked per epoch; every `ofence`/`dfence`
//!   synchronously flushes the epoch's dirty lines (`clwb`) and stalls the
//!   core until the MCs ack (`sfence`).
//! * **HOPS** — stores enter the persist buffer; the PB flushes only
//!   epochs that are *safe* (conservative flushing); cross-thread
//!   dependencies resolve by polling the global timestamp register.
//! * **ASAP** — the PB flushes *eagerly*: any entry may be issued, tagged
//!   *early* when its epoch is not yet safe. MCs speculatively update
//!   memory, guarded by recovery-table undo/delay records; epoch commits
//!   send commit messages to the MCs that saw early flushes, and CDR
//!   messages resolve cross-thread dependencies. NACKs (full RT) drop the
//!   PB into conservative mode until the current epoch commits.
//! * **eADR** — stores are durable in cache; fences cost ~a cycle.
//! * **BBB** — stores are durable once inside the battery-backed persist
//!   buffer; the buffer drains in the background and back-pressures the
//!   core only when full.
//!
//! Execution interleaves *functional* burst generation (see
//! [`crate::ops`]) with timed micro-op execution; every interaction that
//! the paper's mechanisms care about (flush/ack round trips, WPQ
//! backpressure, NACKs, commit/CDR messages, polling) is an explicit
//! event with configured latency.
//!
//! # Module layout
//!
//! The simulator is split along the protocol seam:
//!
//! * [`engine`] — the model-agnostic machine: per-core state, the event
//!   queue, the run loop, scheduling and accounting.
//! * `flows` — the engine's shared flows: core execution, the
//!   load/store path, cross-thread dependencies, the flush pipeline and
//!   the commit protocol. Each protocol decision defers to a hook.
//! * [`model`] — the `PersistencyModel` trait (the hook contract) and
//!   the closed-world `ModelDispatch` enum the run loop is instantiated
//!   with; `ModelDispatch::new` maps a [`ModelKind`] to its design.
//! * `baseline` / `hops` / `asap` / `eadr_bbb` — one implementation per
//!   design, holding that design's private per-core state (baseline's
//!   dirty sets, HOPS' global timestamps and poll flags, ASAP's
//!   conservative-mode flags).
//!
//! The engine never branches on [`ModelKind`]; dispatch is fixed when
//! [`SimBuilder::build`] resolves the kind. The run loop is generic over
//! the model and instantiated with `ModelDispatch`, so every protocol
//! hook is a visible five-way branch rather than a vtable call. A new
//! design is one more variant in `ModelDispatch::new`.

mod asap;
mod baseline;
mod collect;
mod eadr_bbb;
mod engine;
mod flows;
mod hops;
mod model;

pub use collect::{BoundaryKind, CrashPoints, KeyMask};

use crate::ops::ThreadProgram;
use crate::oracle::{self, CrashReport, OracleError};
use asap_pm_mem::{NvmImage, PmSpace};
use asap_sim_core::{Cycle, Flavor, ModelKind, Sampler, SimConfig, Stats, TraceRecord, Tracer};
use engine::{Engine, Event};
use model::{ModelDispatch, PersistencyModel};
use std::io::Write;

/// Summary of a completed (or truncated) run.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Simulated end time.
    pub cycles: Cycle,
    /// Total logical operations completed across threads.
    pub ops_completed: u64,
    /// Whether every thread retired.
    pub all_done: bool,
}

/// Builder for [`Sim`] ([C-BUILDER]).
pub struct SimBuilder {
    cfg: SimConfig,
    model: ModelKind,
    flavor: Flavor,
    programs: Vec<Box<dyn ThreadProgram>>,
    journal: bool,
    tracer: Option<Box<dyn Tracer>>,
    sample: Option<(Cycle, Box<dyn Write + Send>)>,
    collect: bool,
}

impl SimBuilder {
    /// Start building a simulation of `model` under `flavor` on the
    /// hardware described by `cfg`.
    pub fn new(cfg: SimConfig, model: ModelKind, flavor: Flavor) -> SimBuilder {
        SimBuilder {
            cfg,
            model,
            flavor,
            programs: Vec::new(),
            journal: false,
            tracer: None,
            sample: None,
            collect: false,
        }
    }

    /// Add one thread program (one core).
    pub fn program(mut self, p: Box<dyn ThreadProgram>) -> SimBuilder {
        self.programs.push(p);
        self
    }

    /// Add many thread programs.
    pub fn programs(mut self, ps: Vec<Box<dyn ThreadProgram>>) -> SimBuilder {
        self.programs.extend(ps);
        self
    }

    /// Enable the write journal (required for crash-consistency checks;
    /// costs memory proportional to store count).
    pub fn with_journal(mut self) -> SimBuilder {
        self.journal = true;
        self
    }

    /// Attach a structured trace sink (overrides the `ASAP_TRACE`
    /// environment default). Sinks observe, never schedule: simulated
    /// timing is byte-identical with or without one.
    pub fn tracer(mut self, t: Box<dyn Tracer>) -> SimBuilder {
        self.tracer = Some(t);
        self
    }

    /// Attach a crash-point collector ([`CrashPoints`]): the run records
    /// every persistency boundary plus the crash-state digest timeline
    /// that the crash-space explorer buckets by (see
    /// [`Sim::take_crash_points`]). Observes only — simulated behaviour
    /// is identical with or without a collector.
    pub fn collect_crash_points(mut self) -> SimBuilder {
        self.collect = true;
        self
    }

    /// Attach a periodic occupancy/bandwidth sampler writing CSV rows to
    /// `out` every `every` cycles (see [`asap_sim_core::Sampler`]).
    ///
    /// # Panics
    ///
    /// [`build`](SimBuilder::build) panics if `every` is zero.
    pub fn sample(mut self, every: Cycle, out: Box<dyn Write + Send>) -> SimBuilder {
        self.sample = Some((every, out));
        self
    }

    /// Build the simulator.
    ///
    /// # Panics
    ///
    /// Panics if no programs were supplied or more programs than
    /// configured cores.
    pub fn build(mut self) -> Sim {
        assert!(!self.programs.is_empty(), "at least one program required");
        assert!(
            self.programs.len() <= self.cfg.num_cores,
            "more programs ({}) than cores ({})",
            self.programs.len(),
            self.cfg.num_cores
        );
        // Unused cores idle; shrink to the active set for cleanliness.
        self.cfg.num_cores = self.programs.len();
        let n = self.cfg.num_cores;
        let model = ModelDispatch::new(self.model, n);
        let mut engine = Engine::new(
            self.cfg,
            self.flavor,
            self.programs,
            self.journal,
            model.uses_pb(),
            model.wants_background_flush(),
        );
        if let Some(tracer) = self.tracer {
            engine.tracer = tracer;
            engine.trace_on = true;
        }
        if let Some((every, out)) = self.sample {
            engine.sampler = Some(Sampler::new(every, out));
            // The first sample lands one interval in; unsampled runs
            // never see a Sample event at all.
            engine.schedule(every, Event::Sample);
        }
        if self.collect {
            engine.collector = Some(Box::new(CrashPoints::new()));
            // Seed the timeline with the pre-run state so a crash at
            // cycle 0 (before any event) resolves to a key.
            engine.note_crash_key(&model);
        }
        Sim {
            engine,
            model,
            kind: self.model,
        }
    }
}

/// The system simulator. See the module docs for the model semantics.
///
/// `Sim` pairs the model-agnostic [`engine`] with the
/// [`model::PersistencyModel`] chosen at build time (held as the
/// closed-world `ModelDispatch` enum so hooks dispatch statically);
/// every protocol decision flows through the trait's hooks, never
/// through a `ModelKind` branch in the engine.
pub struct Sim {
    engine: Engine,
    model: ModelDispatch,
    kind: ModelKind,
}

impl Sim {
    // ---------------------------------------------------------------
    // Public API
    // ---------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Cycle {
        self.engine.now
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &SimConfig {
        &self.engine.cfg
    }

    /// The model being simulated.
    pub fn model(&self) -> ModelKind {
        self.kind
    }

    /// The persistency flavour being simulated.
    pub fn flavor(&self) -> Flavor {
        self.engine.flavor
    }

    /// Statistics so far.
    pub fn stats(&self) -> &Stats {
        &self.engine.stats
    }

    /// Events dispatched so far: the engine's unit of host work, so
    /// events per host second is the event loop's throughput.
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed
    }

    /// Core steps dispatched straight from the engine's step slot,
    /// without a queue push and pop (counted in
    /// [`Sim::events_processed`] too).
    pub fn steps_bypassed(&self) -> u64 {
        self.engine.steps_bypassed
    }

    /// Take ownership of the statistics block, leaving a zeroed one
    /// behind. End-of-run extraction should prefer this over
    /// `stats().clone()`: the block carries four occupancy histograms
    /// whose clone is pure churn when the simulator is about to be
    /// dropped anyway.
    pub fn take_stats(&mut self) -> Stats {
        std::mem::take(&mut self.engine.stats)
    }

    /// The functional (program-visible) PM image.
    pub fn pm(&self) -> &PmSpace {
        &self.engine.pm
    }

    /// The persisted (media) image.
    pub fn nvm(&self) -> &NvmImage {
        &self.engine.nvm
    }

    /// The epoch dependency graph.
    pub fn deps(&self) -> &crate::deps::DepGraph {
        &self.engine.deps
    }

    /// The write journal (empty unless [`SimBuilder::with_journal`]).
    pub fn journal(&self) -> &asap_pm_mem::WriteJournal {
        &self.engine.journal
    }

    /// Run the happens-before persist-race detector over the journal and
    /// dependency graph accumulated so far (see [`crate::race`]).
    /// Requires [`SimBuilder::with_journal`].
    ///
    /// The verdict is only as good as the ordering evidence the model
    /// leaves behind. Persist-buffer designs record release/acquire
    /// edges in the dependency graph and battery designs commit epochs
    /// at every fence, so both give the detector something to work
    /// with; **Baseline does neither for release-persistency programs
    /// that never fence**, and can report spurious races there. Run
    /// race checks under ASAP or HOPS (the drivers in `asap-analysis`
    /// default to ASAP).
    ///
    /// # Panics
    ///
    /// Panics if the journal was not enabled at build time.
    pub fn race_check(&self) -> crate::race::RaceReport {
        assert!(
            self.engine.journal.is_enabled(),
            "race checking requires SimBuilder::with_journal()"
        );
        crate::race::race_check(&self.engine.journal, &self.engine.deps)
    }

    /// Snapshot-pool allocation audit: `(fresh_allocs, recycled)` box
    /// counts for the store → persist buffer → flush → ack cycle. Once
    /// the pool is warm, `fresh_allocs` is bounded by peak in-flight
    /// snapshots while `recycled` keeps tracking the store count — i.e.
    /// steady state allocates nothing per store.
    pub fn snapshot_pool_counters(&self) -> (u64, u64) {
        (
            self.engine.snap_pool.fresh_allocs(),
            self.engine.snap_pool.recycled(),
        )
    }

    /// Maximum recovery-table occupancy across MCs (Figure 12).
    pub fn rt_max_occupancy(&self) -> usize {
        self.engine
            .mcs
            .iter()
            .map(|m| m.rt().max_occupancy())
            .max()
            .unwrap_or(0)
    }

    /// Total NVM media line writes across MCs.
    pub fn media_writes(&self) -> u64 {
        self.engine.mcs.iter().map(|m| m.media_writes()).sum()
    }

    /// Fraction of wall-clock during which MC media pipes were busy
    /// (Figure 13's bandwidth utilization).
    pub fn media_utilization(&self) -> f64 {
        if self.engine.now == Cycle::ZERO {
            return 0.0;
        }
        let busy: u64 = self
            .engine
            .mcs
            .iter()
            .map(|m| m.media_writes() * m.write_occupancy().raw())
            .sum();
        busy as f64 / (self.engine.now.raw() as f64 * self.engine.cfg.num_mcs as f64)
    }

    /// Run until every thread retires. Returns the outcome summary.
    ///
    /// # Panics
    ///
    /// Panics if the system deadlocks (no pending events while threads
    /// are unfinished) — this is the machine-checked version of the
    /// paper's forward-progress theorem — or if an internal event budget
    /// is exhausted.
    pub fn run_to_completion(&mut self) -> SimOutcome {
        self.run_until(None)
    }

    /// Run until simulated time reaches `limit` (events beyond it stay
    /// queued) or every thread retires.
    pub fn run_for(&mut self, limit: Cycle) -> SimOutcome {
        self.run_until(Some(limit))
    }

    fn run_until(&mut self, limit: Option<Cycle>) -> SimOutcome {
        self.engine.run_until(&mut self.model, limit);
        SimOutcome {
            cycles: self.engine.now,
            ops_completed: self.engine.stats.ops_completed,
            all_done: self.engine.all_done(),
        }
    }

    /// Reset the statistics block, starting a fresh measurement region
    /// (the gem5 artifact's warmup → ROI transition). Component-level
    /// high-water marks that describe hardware sizing (recovery-table
    /// max occupancy) intentionally keep their whole-run values.
    pub fn reset_stats(&mut self) {
        self.engine.stats = Stats::new();
        let now = self.engine.now;
        for c in &mut self.engine.cores {
            c.pb_occ_last = now;
            // A core blocked across the ROI start counts from there.
            c.pb_blocked_since = c.pb_blocked_since.map(|_| now);
            c.ops_completed = 0;
        }
    }

    /// Simulate a power failure *now*: battery-backed buffers drain
    /// (model hook), ADR drains the WPQs (already reflected in the NVM
    /// image) and the undo records write back (§V-E), then the recovered
    /// image is checked against the write journal and dependency DAG
    /// (§VI).
    ///
    /// # Errors
    ///
    /// [`OracleError::JournalDisabled`] if the simulator was built
    /// without [`SimBuilder::with_journal`].
    pub fn crash_and_check(&mut self) -> Result<CrashReport, OracleError> {
        if !self.engine.journal.is_enabled() {
            return Err(OracleError::JournalDisabled);
        }
        self.engine.crashed = true;
        self.engine.trace(TraceRecord::Crash);
        if self.model.on_crash(&mut self.engine) {
            // The whole hierarchy is durable: trivially consistent.
            self.engine.trace(TraceRecord::Recovery { undo_applied: 0 });
            return Ok(CrashReport::default());
        }
        let mut undone = 0;
        for mc in &mut self.engine.mcs {
            undone += mc.crash(&mut self.engine.nvm);
        }
        self.engine.trace(TraceRecord::Recovery {
            undo_applied: undone as u64,
        });
        let mut report = oracle::check(&self.engine.journal, &self.engine.deps, &self.engine.nvm);
        report.undo_records_applied = undone;
        Ok(report)
    }

    /// Crash at an arbitrary instant: run until `at`, then crash.
    ///
    /// # Errors
    ///
    /// [`OracleError::JournalDisabled`] if the simulator was built
    /// without [`SimBuilder::with_journal`].
    pub fn crash_at(&mut self, at: Cycle) -> Result<CrashReport, OracleError> {
        self.run_for(at);
        self.crash_and_check()
    }

    /// Non-destructive crash check: like [`Sim::crash_and_check`] but
    /// recovery runs on a *clone* of the NVM image (battery drains via
    /// [`model preview hooks`](model::PersistencyModel::on_crash_preview),
    /// recovery-table undo via cloned tables), leaving the simulation
    /// able to keep running. The crash-space explorer calls this at
    /// every surviving crash point of a single re-run; parity with the
    /// destructive path is pinned by `crash_check_now_parity` tests.
    ///
    /// # Errors
    ///
    /// [`OracleError::JournalDisabled`] if the simulator was built
    /// without [`SimBuilder::with_journal`].
    pub fn crash_check_now(&self) -> Result<CrashReport, OracleError> {
        if !self.engine.journal.is_enabled() {
            return Err(OracleError::JournalDisabled);
        }
        let mut nvm = self.engine.nvm.clone();
        if self.model.on_crash_preview(&self.engine, &mut nvm) {
            return Ok(CrashReport::default());
        }
        let mut undone = 0;
        for mc in &self.engine.mcs {
            undone += mc.crash_preview(&mut nvm);
        }
        let mut report = oracle::check(&self.engine.journal, &self.engine.deps, &nvm);
        report.undo_records_applied = undone;
        Ok(report)
    }

    /// The recovered NVM image a crash *now* would leave behind, plus
    /// the number of undo records recovery would apply — computed
    /// non-destructively like [`Sim::crash_check_now`]. This is the
    /// explorer's ground truth for crash-state equivalence: two cycles
    /// with equal [`Sim::crash_state_key`] must yield equal images.
    ///
    /// # Errors
    ///
    /// [`OracleError::JournalDisabled`] if the simulator was built
    /// without [`SimBuilder::with_journal`].
    pub fn recovered_preview(&self) -> Result<(NvmImage, usize), OracleError> {
        if !self.engine.journal.is_enabled() {
            return Err(OracleError::JournalDisabled);
        }
        let mut nvm = self.engine.nvm.clone();
        let mut undone = 0;
        if !self.model.on_crash_preview(&self.engine, &mut nvm) {
            for mc in &self.engine.mcs {
                undone += mc.crash_preview(&mut nvm);
            }
        }
        Ok((nvm, undone))
    }

    /// The crash-state digest at the current instant, under this model's
    /// [`KeyMask`]. Equal digests within one deterministic run imply
    /// byte-identical recovered images and oracle reports (pinned by the
    /// `equal_keys_equal_recovery` property test).
    pub fn crash_state_key(&self) -> u64 {
        self.engine.state_key(self.model.crash_key_mask())
    }

    /// Detach the crash-point collector (if one was attached via
    /// [`SimBuilder::collect_crash_points`]), stamping the run's final
    /// cycle into [`CrashPoints::end_cycle`].
    pub fn take_crash_points(&mut self) -> Option<CrashPoints> {
        let mut cp = self.engine.collector.take()?;
        cp.end_cycle = self.engine.now.raw();
        Some(*cp)
    }

    /// Fault injection for explorer self-tests: every `every`-th undo
    /// record the recovery tables *should* create for a speculative
    /// persist is silently dropped (`0` disables). The write still
    /// reaches NVM unprotected, so a crash while its epoch is
    /// uncommitted recovers an inconsistent image — the oracle must
    /// flag it (Theorem 2 violation). Deliberately not part of
    /// [`SimConfig`]: faults must not perturb the config digest.
    pub fn inject_undo_drop(&mut self, every: u64) {
        for mc in &mut self.engine.mcs {
            mc.set_drop_undo_every(every);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::collect::FNV_OFFSET;
    use super::*;
    use crate::ops::{BurstCtx, BurstStatus, ThreadProgram};
    use asap_sim_core::ThreadId;

    /// Two-thread writer workload with enough fences and line sharing to
    /// exercise stores, flushes, commits and cross-thread dependencies.
    fn programs() -> Vec<Box<dyn ThreadProgram>> {
        struct W {
            epoch: u64,
            base: u64,
        }
        impl ThreadProgram for W {
            fn next_burst(&mut self, _tid: ThreadId, ctx: &mut BurstCtx<'_>) -> BurstStatus {
                if self.epoch >= 12 {
                    ctx.dfence();
                    return BurstStatus::Finished;
                }
                for l in 0..3 {
                    // Lines overlap across threads (same base region) so
                    // coherence and epoch conflicts actually fire.
                    ctx.store_u64(self.base + (self.epoch * 3 + l) * 64, self.epoch * 100 + l);
                }
                ctx.ofence();
                ctx.op_completed();
                self.epoch += 1;
                BurstStatus::Running
            }
            fn name(&self) -> &str {
                "parity"
            }
        }
        vec![
            Box::new(W {
                epoch: 0,
                base: 0x10_0000,
            }),
            Box::new(W {
                epoch: 0,
                base: 0x10_0040,
            }),
        ]
    }

    #[test]
    fn events_processed_counts_dispatched_events() {
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs())
            .build();
        assert_eq!(sim.events_processed(), 0);
        sim.run_for(Cycle(100));
        let partial = sim.events_processed();
        assert!(partial > 0);
        sim.run_to_completion();
        // At least one core step per completed op, plus the rest.
        assert!(sim.events_processed() > partial.max(sim.stats().ops_completed));
    }

    /// FNV-1a over the UTF-8 bytes of `text`.
    fn fnv(text: &str) -> u64 {
        text.bytes().fold(FNV_OFFSET, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Pins of two runs whose event streams stress the queue hardest,
    /// recorded on the four-ary heap queue the timing wheel replaced:
    /// the digests must not move under any event-queue change.
    const SAMPLER_RUN_DIGEST: u64 = 0x298c_c8d1_7e6d_35eb;
    const CRASH_RUN_DIGEST: u64 = 0xc01f_5e4e_4fca_34f4;

    /// `Event::Sample` reschedules itself through the queue, interleaved
    /// with same-cycle core and MC events; the emitted CSV row stream and
    /// the simulated outcome must match the pinned run byte for byte.
    #[test]
    fn sampler_rescheduling_matches_pinned_run() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Sink(Arc<Mutex<Vec<u8>>>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Sink(Arc::new(Mutex::new(Vec::new())));
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs())
            .sample(Cycle(64), Box::new(sink.clone()))
            .build();
        sim.run_to_completion();
        let csv = String::from_utf8(sink.0.lock().unwrap().clone()).expect("utf8 csv");
        assert!(csv.lines().count() > 2, "sampler produced no rows:\n{csv}");
        let text = format!("{}\n{csv}{:?}", sim.now(), sim.stats());
        assert_eq!(fnv(&text), SAMPLER_RUN_DIGEST, "{text}");
    }

    /// A mid-run crash freezes the machine with events pending; the
    /// crash/recovery path (WPQ drain, recovery-table undo, oracle check)
    /// must report exactly what the pinned run reported.
    #[test]
    fn crash_recovery_matches_pinned_run() {
        let mut sim = SimBuilder::new(SimConfig::paper(), ModelKind::Asap, Flavor::Release)
            .programs(programs())
            .with_journal()
            .build();
        let report = sim.crash_at(Cycle(400)).expect("journal enabled");
        let text = format!("{report:?}\n{}\n{:?}", sim.now(), sim.stats());
        assert_eq!(fnv(&text), CRASH_RUN_DIGEST, "{text}");
    }
}
