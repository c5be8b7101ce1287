//! Engine flows: core execution, the load/store path, cross-thread
//! dependency tracking, the persist-buffer flush pipeline and the epoch
//! commit protocol. Every flow takes the active [`PersistencyModel`] as
//! `&mut dyn` and defers each protocol decision to a hook; the flows
//! themselves are identical across designs.

use super::engine::{Block, Engine, Event};
use super::model::{PersistencyModel, StoreOp};
use crate::et::EpochStatus;
use crate::ops::{BurstCtx, BurstStatus, MemOp};
use asap_memctrl::{FlushAction, FlushOutcome, FlushPacket};
use asap_pm_mem::{LineSnapshot, WriteSeq};
use asap_sim_core::{Cycle, EpochId, Flavor, LineAddr, McId, ThreadId, TraceRecord};

impl Engine {
    // ---------------------------------------------------------------
    // Core execution
    // ---------------------------------------------------------------

    pub(super) fn core_step<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        self.cores[t].step_scheduled = false;
        if self.cores[t].done || self.cores[t].blocked.is_some() {
            return;
        }
        if self.cores[t].core_free_at > self.now {
            let at = self.cores[t].core_free_at;
            self.schedule_step(t, at);
            return;
        }
        if self.cores[t].burst.is_empty() && !self.refill_burst(t) {
            return; // retired or rescheduled
        }
        let Some(op) = self.cores[t].burst.pop_front() else {
            return;
        };
        self.execute_op(m, t, op);
    }

    /// Returns `true` if the burst now has ops to execute.
    fn refill_burst(&mut self, t: usize) -> bool {
        if self.cores[t].program_finished {
            if !self.cores[t].retire_fence_issued {
                self.cores[t].retire_fence_issued = true;
                self.cores[t].burst.push_back(MemOp::DFence);
                return true;
            }
            self.cores[t].done = true;
            self.done_count += 1;
            return false;
        }
        let mut ctx = BurstCtx::with_buffers(
            &mut self.pm,
            &mut self.journal,
            &mut self.snap_pool,
            std::mem::take(&mut self.burst_ops_scratch),
            std::mem::take(&mut self.preinit_scratch),
        );
        // Generation instants are simulated completion times of the
        // previous burst; expose the clock so open-loop programs can
        // compare it against request arrival timestamps.
        ctx.set_now(self.now);
        let status = self.programs[t].next_burst(ThreadId(t), &mut ctx);
        let (mut ops, completed, preinit) = ctx.into_parts();
        for &line in &preinit {
            // Setup state is part of the initial pool image: durable by
            // construction, like a formatted pmem pool before the run.
            self.nvm.preinit(line, self.pm.snapshot_line(line));
        }
        self.preinit_scratch = preinit;
        self.cores[t].ops_completed += completed;
        if status == BurstStatus::Finished {
            self.cores[t].program_finished = true;
        }
        let refilled = !ops.is_empty();
        self.cores[t].burst.extend(ops.drain(..));
        self.burst_ops_scratch = ops;
        if !refilled {
            if self.cores[t].program_finished {
                return self.refill_burst(t); // go to retirement
            }
            // A spinning program that emitted nothing: back off to avoid a
            // zero-time livelock.
            self.cores[t].core_free_at = self.now + Cycle(64);
            self.schedule_step(t, self.cores[t].core_free_at);
            return false;
        }
        true
    }

    fn execute_op<M: PersistencyModel>(&mut self, m: &mut M, t: usize, op: MemOp) {
        match op {
            MemOp::Compute { cycles } => {
                self.finish_op(t, Cycle(cycles * self.cfg.compute_scale));
            }
            MemOp::Idle { cycles } => {
                // Deliberate client idle time: unscaled wall-clock wait
                // (compute_scale models CPU speed, not the passage of
                // simulated time an open-loop driver sleeps through).
                self.finish_op(t, Cycle(cycles));
            }
            MemOp::Load { addr } => {
                let lat = self.do_load(m, t, addr, false);
                self.finish_op(t, lat);
            }
            MemOp::Acquire { addr, reads_from } => {
                // Close the generation/execution skew: the store this
                // acquire observed must have executed (and registered its
                // release) before the synchronizing read proceeds.
                if let Some(rf) = reads_from {
                    if !self.journal.is_executed(rf) {
                        self.cores[t]
                            .burst
                            .push_front(MemOp::Acquire { addr, reads_from });
                        self.finish_op(t, Cycle(16));
                        return;
                    }
                }
                let lat = self.do_load(m, t, addr, true);
                self.finish_op(t, lat);
            }
            MemOp::Store { addr, seq, data } => {
                self.do_store(m, t, addr, seq, data, false);
            }
            MemOp::Release { addr, seq, data } => {
                self.do_store(m, t, addr, seq, data, true);
            }
            MemOp::Flush { .. } => {
                // A clwb-style hint: persist-buffer designs already flush
                // eagerly and the baseline flushes at fences, so the hint
                // only costs the cache access that reads the line out.
                self.stats.flush_hints += 1;
                let lat = self.cfg.l1_latency;
                self.finish_op(t, lat);
            }
            MemOp::OFence => m.on_ofence(self, t),
            MemOp::DFence => m.on_dfence(self, t),
        }
    }

    fn do_load<M: PersistencyModel>(
        &mut self,
        m: &mut M,
        t: usize,
        addr: u64,
        acquire: bool,
    ) -> Cycle {
        let line = LineAddr::containing(addr);
        let out = self.hub.access(ThreadId(t), line, false);
        let mut lat = out.latency;
        if out.llc_miss {
            if self.uses_pb && self.cores[t].pb.holds_line(line) {
                // Load forwarded from the core's own persist buffer.
                lat += self.cfg.l1_latency;
            } else {
                lat += self.cfg.nvm_read_latency;
                self.stats.nvm_reads += 1;
            }
        }
        self.stats.loads += 1;
        self.park_eviction(t, out.evicted_dirty);
        if let Some(src) = out.dirty_supplier {
            self.handle_ep_conflict(m, t, src);
        }
        if acquire && self.flavor == Flavor::Release {
            self.handle_acquire(m, t, line);
        }
        lat
    }

    /// §V-F: a dirty private-cache eviction whose line still has pending
    /// persist-buffer writes parks in the write-back buffer until the PB
    /// flushes past the recorded tail index (evicted PM lines otherwise
    /// just drop — the persist path owns durability).
    fn park_eviction(&mut self, t: usize, victim: Option<LineAddr>) {
        let Some(victim) = victim else { return };
        if !self.uses_pb {
            return;
        }
        if self.cores[t].pb.holds_line(victim) {
            let vidx = self.intern_line(victim);
            let core = &mut self.cores[t];
            let tail = core.pb.flushed_count() + core.pb.len() as u64;
            // A full WBB would stall the eviction in hardware; the
            // occupancy tracking is what we need here.
            let _ = core.wbb.park(vidx, tail);
        }
    }

    fn do_store<M: PersistencyModel>(
        &mut self,
        m: &mut M,
        t: usize,
        addr: u64,
        seq: WriteSeq,
        data: Box<LineSnapshot>,
        release: bool,
    ) {
        let line = LineAddr::containing(addr);
        let out = self.hub.access(ThreadId(t), line, true);
        // Stores retire through the store buffer: the core pays the cache
        // access but not a write-allocate fill (full-line write-combining;
        // an OoO core hides the fill behind younger instructions). This
        // keeps streaming writes persist-path-bound, as on real hardware.
        let lat = out.latency;
        self.park_eviction(t, out.evicted_dirty);
        if let Some(src) = out.dirty_supplier {
            self.handle_ep_conflict(m, t, src);
        }
        // Invalidated sharers may still hold pending persist-buffer
        // writes for this line (they wrote it in M before a reader
        // downgraded it to S): their invalidation acks establish the
        // dependency that keeps strong persist atomicity intact.
        for s in out.invalidated.iter() {
            self.handle_ep_conflict(m, t, s);
        }
        // Epoch known only now (conflict handling may have split it).
        let epoch = self.cores[t].cur_epoch();
        self.journal.assign_epoch(seq, epoch);
        self.journal.note_exec_clock(seq, self.deps.now());
        self.stats.stores += 1;

        let op = StoreOp {
            addr,
            line,
            seq,
            data,
            release,
            epoch,
        };
        if !m.on_store(self, t, op) {
            return; // core stalled; the model parked the op
        }

        if release && self.flavor == Flavor::Release {
            self.handle_release(m, t, line);
        }
        self.finish_op(t, lat);
        self.update_pb_blocked(m, t);
    }

    /// Enqueue a store into the persist buffer, stalling the core when
    /// it is full. `tracked` adds epoch-table write accounting (HOPS /
    /// ASAP); BBB's battery-backed buffer is untracked. Returns `false`
    /// if the core is now blocked.
    pub(super) fn enqueue_pb_store(&mut self, t: usize, op: StoreOp, tracked: bool) -> bool {
        let StoreOp {
            addr,
            line,
            seq,
            data,
            release,
            epoch,
        } = op;
        let occ_before = self.cores[t].pb.len();
        match self.cores[t].pb.enqueue(line, data, seq.0, epoch) {
            Ok(None) => {
                if tracked {
                    self.cores[t].et.add_write(epoch.ts);
                }
                self.stats.entries_inserted += 1;
                if tracked {
                    self.note_pb_occ_change(t, occ_before);
                }
                self.schedule_flush(t);
                true
            }
            Ok(Some(displaced)) => {
                self.snap_pool.put(displaced);
                self.stats.pb_coalesced += 1;
                self.stats.entries_inserted += 1;
                true
            }
            Err(data) => {
                // PB full: stall the core, repark the op (§VI-A: "the
                // incoming write from the core is stalled").
                let op = StoreOp::park(addr, seq, data, release);
                self.cores[t].blocked = Some(Block::PbFull {
                    since: self.now,
                    op,
                });
                self.trace(TraceRecord::StallBegin {
                    tid: t,
                    reason: "PbFull",
                });
                self.schedule_flush(t);
                false
            }
        }
    }

    // ---------------------------------------------------------------
    // Fence flows shared across designs
    // ---------------------------------------------------------------

    /// `ofence` for persist-buffer designs: split the epoch, stalling on
    /// a full epoch table.
    pub(super) fn pb_ofence<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        if self.cores[t].et.is_full() {
            self.cores[t].blocked = Some(Block::EtFull {
                since: self.now,
                op: MemOp::OFence,
            });
            self.trace(TraceRecord::StallBegin {
                tid: t,
                reason: "EtFull",
            });
            return;
        }
        self.split_epoch(m, t);
        self.finish_op(t, Cycle(1));
    }

    /// `dfence` for persist-buffer designs: close the epoch and wait for
    /// every epoch to commit.
    pub(super) fn pb_dfence<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        let ts = self.cores[t].cur_ts;
        self.cores[t].et.close(ts);
        self.try_commit(m, t);
        if self.cores[t].et.is_empty() {
            // All epochs committed already: cheap dfence.
            self.open_next_epoch(t);
            self.finish_op(t, Cycle(1));
        } else {
            self.cores[t].blocked = Some(Block::DFence { since: self.now });
            self.trace(TraceRecord::StallBegin {
                tid: t,
                reason: "DFence",
            });
            self.schedule_flush(t);
            self.update_pb_blocked(m, t);
        }
    }

    /// Fence under a battery (eADR / BBB): everything buffered is
    /// already durable; just roll the epoch for bookkeeping.
    pub(super) fn battery_fence(&mut self, t: usize) {
        let e = self.cores[t].cur_epoch();
        self.deps.mark_committed(e);
        self.stats.epochs_committed += 1;
        self.advance_epoch_untracked(t);
        self.finish_op(t, Cycle(1));
    }

    /// Close the current epoch and open the next (ofence semantics).
    /// Caller must have checked `!et.is_full()`.
    pub(super) fn split_epoch<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        let ts = self.cores[t].cur_ts;
        self.cores[t].et.close(ts);
        self.open_next_epoch(t);
        self.try_commit(m, t);
    }

    pub(super) fn open_next_epoch(&mut self, t: usize) {
        self.cores[t].cur_ts += 1;
        let ts = self.cores[t].cur_ts;
        // Dependency splits may transiently overflow the table; fences
        // check `is_full` and stall, which bounds occupancy.
        self.cores[t].et.force_open(ts);
        self.deps.ensure(EpochId::new(ThreadId(t), ts));
        self.stats.epochs_created += 1;
    }

    // ---------------------------------------------------------------
    // Cross-thread dependencies
    // ---------------------------------------------------------------

    /// Epoch persistency: any access supplied by a remote dirty line
    /// creates a dependency (paper §IV-E).
    fn handle_ep_conflict<M: PersistencyModel>(&mut self, m: &mut M, t: usize, src_tid: ThreadId) {
        if self.flavor != Flavor::Epoch || !self.uses_pb || src_tid.0 == t {
            return;
        }
        let src_epoch = self.cores[src_tid.0].cur_epoch();
        self.create_cross_dep(m, t, src_epoch);
    }

    /// Release persistency: an acquire synchronizing with a remote
    /// release creates the dependency.
    fn handle_acquire<M: PersistencyModel>(&mut self, m: &mut M, t: usize, line: LineAddr) {
        if !self.uses_pb {
            return;
        }
        let Some(src_epoch) = self
            .lines
            .lookup(line)
            .and_then(|i| self.release_map.get(i.as_usize()).copied().flatten())
        else {
            return;
        };
        if src_epoch.thread.0 == t || self.deps.is_committed(src_epoch) {
            return;
        }
        // The source epoch must still be in flight at its owner.
        if self.cores[src_epoch.thread.0].et.status(src_epoch.ts) != EpochStatus::InFlight {
            return;
        }
        self.create_cross_dep_on(m, t, src_epoch);
    }

    /// Release persistency: record the releasing epoch and end it
    /// (one-sided barrier).
    fn handle_release<M: PersistencyModel>(&mut self, m: &mut M, t: usize, line: LineAddr) {
        if !self.uses_pb {
            return;
        }
        let e = self.cores[t].cur_epoch();
        let idx = self.intern_line(line);
        self.release_map[idx.as_usize()] = Some(e);
        self.split_epoch(m, t);
    }

    /// Create a dependency on the *current* epoch of `src`'s thread,
    /// closing it (the coherence reply starts a new epoch at the source,
    /// §IV-E).
    fn create_cross_dep<M: PersistencyModel>(&mut self, m: &mut M, t: usize, src_epoch: EpochId) {
        let s = src_epoch.thread.0;
        // Register the dependency *before* closing the source epoch: an
        // empty source epoch can commit inline during the split, and the
        // CDR must find the dependent registered.
        self.create_cross_dep_on(m, t, src_epoch);
        if self.cores[s].cur_ts == src_epoch.ts && !self.cores[s].et.is_closed(src_epoch.ts) {
            self.split_epoch(m, s);
        }
    }

    /// Attach a dependency from `t`'s (new) epoch to `src_epoch`.
    fn create_cross_dep_on<M: PersistencyModel>(
        &mut self,
        m: &mut M,
        t: usize,
        src_epoch: EpochId,
    ) {
        debug_assert_ne!(src_epoch.thread.0, t);
        // Requester starts a new epoch that carries the dependency —
        // unless the current epoch is still pristine (no writes yet), in
        // which case it can carry the dependency itself. Splitting an
        // epoch whose writes may already have persisted would claim
        // ordering the hardware never promised.
        let cur = self.cores[t].cur_ts;
        if self.cores[t].et.has_writes(cur) || self.cores[t].et.is_closed(cur) {
            self.split_epoch(m, t);
        }
        let ts = self.cores[t].cur_ts;
        self.cores[t].et.record_dep(ts, src_epoch);
        self.cores[src_epoch.thread.0]
            .et
            .add_dependent(src_epoch.ts, ThreadId(t));
        self.deps
            .add_cross_dep(EpochId::new(ThreadId(t), ts), src_epoch);
        self.stats.inter_t_epoch_conflict += 1;
        m.on_cross_dep(self, t);
        self.update_pb_blocked(m, t);
        // The source epoch just closed; it may be committable already.
        self.try_commit(m, src_epoch.thread.0);
    }

    // ---------------------------------------------------------------
    // PB flushing
    // ---------------------------------------------------------------

    pub(super) fn try_flush<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        if !self.flush_engine {
            return;
        }
        // Retry NACKed entries whose epoch has since become safe (the
        // transition can happen via commit *or* CDR resolution). Gated
        // on the NACK count: the epoch-table walk is wasted work on the
        // vast majority of TryFlush events.
        if self.cores[t].pb.has_nacked() {
            let safe_ts = self.cores[t].et.oldest_safe_ts();
            self.cores[t].pb.wake_nacked(|e| Some(e.ts) == safe_ts);
        }
        while self.cores[t].inflight < self.cfg.pb_max_inflight {
            let candidate = {
                let core = &self.cores[t];
                core.pb
                    .next_flushable(|e| m.epoch_eligible(self, t, e), !m.relaxed_lines(t))
                    .map(|e| (e.id, e.line, e.epoch))
            };
            let Some((id, line, epoch)) = candidate else {
                // The scan that found nothing to issue is the blocked
                // test `update_pb_blocked` would repeat.
                if self.uses_pb {
                    let blocked = self.cores[t].pb.has_waiting();
                    self.set_pb_blocked(t, blocked);
                }
                return;
            };
            let early = m.flushes_early(self, t, epoch.ts);
            if early {
                let mc = McId(self.cfg.mc_of_addr(line.byte_addr()));
                self.cores[t].et.note_early_flush(epoch.ts, mc);
            }
            self.cores[t].pb.mark_inflight(id);
            self.cores[t].inflight += 1;
            let mc = self.cfg.mc_of_addr(line.byte_addr());
            self.trace(TraceRecord::FlushIssue {
                tid: t,
                entry: id,
                line: line.byte_addr(),
                mc,
                early,
            });
            let at = self.now + self.cfg.pb_flush_latency;
            self.schedule(
                at,
                Event::FlushArrive {
                    tid: t,
                    entry_id: id,
                    mc,
                },
            );
        }
        self.update_pb_blocked(m, t);
    }

    pub(super) fn flush_arrive<M: PersistencyModel>(
        &mut self,
        m: &mut M,
        tid: usize,
        entry_id: u64,
        mc: usize,
    ) {
        // The entry may have been re-coalesced etc.; it is still present
        // (only acks remove entries).
        let Some(entry) = self.cores[tid].pb.get(entry_id) else {
            return;
        };
        let early = m.flushes_early(self, tid, entry.epoch.ts);
        let pkt = FlushPacket {
            line: entry.line,
            // LineSnapshot is Copy: a plain deref copies the 64 bytes
            // without touching the allocator (the entry keeps its box).
            data: *entry.data,
            seq: entry.seq,
            epoch: entry.epoch,
            early,
        };
        let outcome = self.mcs[mc].receive_flush(self.now, &pkt, &mut self.nvm, &mut self.stats);
        match outcome {
            FlushOutcome::Accepted { accept_at, action } => {
                match action {
                    FlushAction::SpeculativelyPersisted => self.trace(TraceRecord::RtUndo {
                        mc,
                        line: pkt.line.byte_addr(),
                    }),
                    FlushAction::Delayed => self.trace(TraceRecord::RtDelay {
                        mc,
                        line: pkt.line.byte_addr(),
                    }),
                    FlushAction::Persisted | FlushAction::UndoUpdated | FlushAction::Nacked => {}
                }
                if early {
                    // Re-affirm the early MC (the issue-time marking could
                    // have been skipped if the epoch was safe then).
                    self.cores[tid].et.note_early_flush(pkt.epoch.ts, McId(mc));
                }
                let at = accept_at + self.cfg.pb_flush_latency;
                self.schedule(
                    at,
                    Event::FlushReply {
                        tid,
                        entry_id,
                        ok: true,
                    },
                );
            }
            FlushOutcome::Nacked { accept_at } => {
                self.trace(TraceRecord::RtNack {
                    mc,
                    line: pkt.line.byte_addr(),
                });
                let at = accept_at + self.cfg.pb_flush_latency;
                self.schedule(
                    at,
                    Event::FlushReply {
                        tid,
                        entry_id,
                        ok: false,
                    },
                );
            }
            FlushOutcome::Busy { retry_at } => {
                self.trace(TraceRecord::WpqBusy {
                    mc,
                    line: pkt.line.byte_addr(),
                });
                let at = retry_at.max(self.now + Cycle(1));
                self.schedule(at, Event::FlushArrive { tid, entry_id, mc });
            }
        }
    }

    /// Successful-flush bookkeeping shared by the tracked-PB designs:
    /// retire the entry, credit the epoch table, clear the NACK filter,
    /// drain parked evictions and re-attempt commits.
    pub(super) fn ack_pb_flush<M: PersistencyModel>(
        &mut self,
        m: &mut M,
        tid: usize,
        entry_id: u64,
    ) {
        let occ_before = self.cores[tid].pb.len();
        if let Some(entry) = self.cores[tid].pb.ack(entry_id) {
            self.cores[tid].et.ack_write(entry.epoch.ts);
            self.note_pb_occ_change(tid, occ_before);
            // A successful (retried) flush clears its NACK-filter
            // entry so the line's LLC eviction may proceed.
            let mc = self.cfg.mc_of_addr(entry.line.byte_addr());
            if self.nack_filters[mc].maybe_contains(entry.line) {
                self.nack_filters[mc].remove(entry.line);
            }
            self.snap_pool.put(entry.data);
        }
        // Evictions waiting on the PB tail may now drain.
        let flushed = self.cores[tid].pb.flushed_count();
        self.cores[tid].wbb.release_up_to(flushed);
        self.unblock_pb_full(tid);
        self.try_commit(m, tid);
    }

    /// NACK bookkeeping shared by the tracked-PB designs: the address
    /// enters the MC's Bloom filter so LLC evictions of the line wait
    /// for the retry (§V-F), and the entry re-queues.
    pub(super) fn nack_pb_flush(&mut self, tid: usize, entry_id: u64) {
        if let Some(entry) = self.cores[tid].pb.get(entry_id) {
            let mc = self.cfg.mc_of_addr(entry.line.byte_addr());
            self.nack_filters[mc].insert(entry.line);
        }
        self.cores[tid].pb.mark_nacked(entry_id);
    }

    // ---------------------------------------------------------------
    // Epoch commit
    // ---------------------------------------------------------------

    pub(super) fn try_commit<M: PersistencyModel>(&mut self, m: &mut M, t: usize) {
        if !self.uses_pb {
            return;
        }
        // Scratch round-trip: a hook that re-enters this flow just takes
        // a fresh empty vector (`mem::take`), so recursion stays sound.
        let mut mcs = std::mem::take(&mut self.commit_mcs_scratch);
        while let Some(ts) = self.cores[t].et.commit_candidate() {
            self.cores[t].et.begin_commit_into(ts, &mut mcs);
            if mcs.is_empty() || !m.commit_needs_mc_roundtrip() {
                // Without recovery tables to clean, commit locally.
                self.finalize_commit(m, t, ts);
                continue;
            }
            let epoch = EpochId::new(ThreadId(t), ts);
            self.stats.commit_msgs += mcs.len() as u64;
            self.trace(TraceRecord::CommitSent {
                tid: t,
                ts,
                mcs: mcs.len(),
            });
            for &mc in &mcs {
                // Commit messages are small control packets (address-free
                // epoch tags), cheaper than 64-byte flush packets; §V-C's
                // serialized commit chain would otherwise throttle
                // small-epoch workloads.
                let at = self.now + self.cfg.intercore_latency;
                self.schedule(at, Event::CommitArrive { mc: mc.0, epoch });
            }
            break; // wait for acks; commits are in order
        }
        self.commit_mcs_scratch = mcs;
    }

    pub(super) fn finalize_commit<M: PersistencyModel>(&mut self, m: &mut M, t: usize, ts: u64) {
        let mut dependents = std::mem::take(&mut self.commit_deps_scratch);
        self.cores[t].et.finish_commit_into(ts, &mut dependents);
        let epoch = EpochId::new(ThreadId(t), ts);
        self.deps.mark_committed(epoch);
        self.stats.epochs_committed += 1;
        self.trace(TraceRecord::EpochCommit { tid: t, ts });
        m.on_commit(self, t, ts, &dependents);
        self.commit_deps_scratch = dependents;
        self.wake_safe_nacked(t);

        // dfence release.
        if matches!(self.cores[t].blocked, Some(Block::DFence { .. }))
            && self.cores[t].et.is_empty()
        {
            let Some(Block::DFence { since }) = self.cores[t].blocked.take() else {
                unreachable!()
            };
            self.stats.dfence_stalled += self.now.saturating_sub(since).raw();
            self.trace(TraceRecord::StallEnd {
                tid: t,
                reason: "DFence",
            });
            self.open_next_epoch(t);
            self.schedule_step(t, self.now);
        }
        // ofence waiting on a full ET.
        if matches!(self.cores[t].blocked, Some(Block::EtFull { .. }))
            && !self.cores[t].et.is_full()
        {
            let Some(Block::EtFull { since, op }) = self.cores[t].blocked.take() else {
                unreachable!()
            };
            self.stats.ofence_stalled += self.now.saturating_sub(since).raw();
            self.trace(TraceRecord::StallEnd {
                tid: t,
                reason: "EtFull",
            });
            self.cores[t].burst.push_front(op);
            self.schedule_step(t, self.now);
        }
        m.on_commit_settled(self, t);
        self.schedule_flush(t);
        self.update_pb_blocked(m, t);
    }

    pub(super) fn commit_arrive(&mut self, mc: usize, epoch: EpochId) {
        let ack_at = self.mcs[mc].commit_epoch(self.now, epoch, &mut self.nvm, &mut self.stats);
        let at = ack_at + self.cfg.intercore_latency;
        self.schedule(at, Event::CommitAckArrive { epoch });
    }

    pub(super) fn commit_ack_arrive<M: PersistencyModel>(&mut self, m: &mut M, epoch: EpochId) {
        let t = epoch.thread.0;
        if self.cores[t].et.commit_ack(epoch.ts) {
            self.finalize_commit(m, t, epoch.ts);
            self.try_commit(m, t);
        }
    }

    pub(super) fn cdr_arrive<M: PersistencyModel>(&mut self, m: &mut M, tid: usize, src: EpochId) {
        if self.cores[tid].et.resolve_dep(src) {
            self.trace(TraceRecord::Cdr {
                tid,
                src_tid: src.thread.0,
                src_ts: src.ts,
            });
            self.schedule_flush(tid);
            self.try_commit(m, tid);
            self.update_pb_blocked(m, tid);
        }
        m.on_cdr(self, tid);
    }
}
