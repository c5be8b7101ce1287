//! The four flows a user waits on, each driven through the crates'
//! public entry points, plus a traced replica of each that times every
//! call into a layer from outside.
//!
//! A flow's untraced [`Flow::run`] is what the end-to-end metrics time.
//! Its [`Flow::traced`] replica rebuilds the same work from smaller
//! public calls (build a sim, then run it; run to a point, then check)
//! so that each call can sit in its own span. The replica must return an
//! outcome equal to the untraced one, or the run fails.

use crate::spans::{At, Tracer, EXPLORE, ORACLE, POOL, RUNNER, SIM, WORKLOADS};
use asap_analysis::explore::{
    assemble_config, pass1, verify_chunk, Chunk, ChunkResult, Pass1, ViolationHit,
    MAX_KEPT_VIOLATIONS,
};
use asap_analysis::{CrashSpaceReport, ExploreParams};
use asap_core::{CrashReport, Flavor, ModelKind, SimBuilder, ThreadProgram, ViolationRule};
use asap_harness::experiments::{fig08_specs, fig08_table_from, ExperimentScale};
use asap_harness::pool::par_map_with;
use asap_harness::traffic::{
    request_bank, run_traffic, table_from_runs, TrafficApp, TrafficOutcome, TrafficScale,
    TrafficSpec,
};
use asap_harness::{prewarm_workloads, run_once, RunManifest, RunOutcome, RunSpec};
use asap_sim_core::{Cycle, LatencySplit, SimConfig, Stats};
use asap_workloads::traffic::{
    new_sink, EchoService, MemcachedService, NstoreService, OpenLoop, RequestService,
};
use asap_workloads::{make_workload, make_workload_shared, WorkloadKind, WorkloadParams};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Correctness checks made during a run; `failed / attempted` is the
/// run's failed fraction.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Checks {
    /// Count one check; on failure keep `what()` as its note.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(what());
        }
    }
}

/// Names and units of the modelled-component work counts, in
/// [`Components`] order.
pub const COMPONENT_METRICS: [(&str, &str); 10] = [
    ("cache_sim.accesses", "count"),
    ("pb.entries", "count"),
    ("pb.coalesced", "count"),
    ("pb.blocked_cycles", "cycles"),
    ("et.epochs_committed", "count"),
    ("deps.cross_thread_conflicts", "count"),
    ("memctrl.nvm_writes", "count"),
    ("memctrl.nvm_reads", "count"),
    ("memctrl.undo_records", "count"),
    ("memctrl.nacks", "count"),
];

/// Modelled-component work, summed from the public `Stats` of every
/// simulation a traced rep ran, in [`COMPONENT_METRICS`] order. A
/// host-only change leaves these equal.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Components(pub [u64; 10]);

impl Components {
    fn add(&mut self, s: &Stats) {
        let counts = [
            s.loads + s.stores,
            s.entries_inserted,
            s.pb_coalesced,
            s.cycles_blocked,
            s.epochs_committed,
            s.inter_t_epoch_conflict,
            s.nvm_writes,
            s.nvm_reads,
            s.total_undo,
            s.nacks,
        ];
        for (c, v) in self.0.iter_mut().zip(counts) {
            *c += v;
        }
    }
}

/// Counts a traced rep gathers at the layer boundaries, next to its
/// spans.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Component work of every simulation run.
    pub components: Components,
    /// Simulated cycles advanced by `Sim::run_*` calls.
    pub sim_cycles: u64,
    /// Open-loop requests served.
    pub requests: u64,
    /// Committed epochs seen by the oracle, summed over checks.
    pub oracle_epochs: u64,
    /// Undo records the oracle's recovery applied, summed over checks.
    pub undo_applied: u64,
    /// Write-journal entries at each check, summed over checks.
    pub journal_entries: u64,
    /// Explorer only: raw crash points, summed over explorations.
    pub raw_points: u64,
    /// Explorer only: distinct crash states.
    pub distinct_states: u64,
    /// Explorer only: crash points checked.
    pub points_checked: u64,
    /// Explorer only: final cycles of the pass-1 runs.
    pub end_cycles: u64,
}

impl Counters {
    /// Add another rep's or leg's counts to these.
    pub fn merge(&mut self, o: &Counters) {
        for (c, v) in self.components.0.iter_mut().zip(o.components.0) {
            *c += v;
        }
        self.sim_cycles += o.sim_cycles;
        self.requests += o.requests;
        self.oracle_epochs += o.oracle_epochs;
        self.undo_applied += o.undo_applied;
        self.journal_entries += o.journal_entries;
        self.raw_points += o.raw_points;
        self.distinct_states += o.distinct_states;
        self.points_checked += o.points_checked;
        self.end_cycles += o.end_cycles;
    }
}

/// One benchmarked flow. A repetition runs each of the flow's inputs
/// once, in order; the inputs are fixed by the run's seed.
pub trait Flow: Sync {
    /// What one input produces; the traced replica must produce an
    /// equal one.
    type Out: PartialEq;

    /// Number of inputs a repetition runs.
    fn inputs(&self) -> usize;

    /// Work done once before the timed phase, through the flow's own
    /// entry points: program and request-bank generation.
    fn setup(&mut self, tr: &Tracer);

    /// The timed phase for one input, untraced.
    fn run(&self, input: usize, workers: usize) -> Self::Out;

    /// The traced replica of [`Flow::run`].
    fn traced(&self, input: usize, workers: usize, tr: &Tracer) -> (Self::Out, Counters);

    /// The user-visible output of one input, as the text its digest
    /// covers.
    fn output_text(&self, input: usize, out: &Self::Out) -> String;

    /// Invariants that hold at any seed.
    fn invariants(&self, input: usize, out: &Self::Out, checks: &mut Checks);

    /// Pool workers the flow fans out over, given the most it may use.
    fn workers(&self, available: usize) -> usize {
        available
    }
}

/// Fan `items` out over the pool inside one pool span, each job inside
/// a leg span, and sum the legs' counters.
fn fan_out<T: Sync, U: Send>(
    tr: &Tracer,
    items: &[T],
    workers: usize,
    leg_name: &'static str,
    f: impl Fn(&T, At) -> (U, Counters) + Sync,
) -> (Vec<U>, Counters) {
    let first_leg = tr.reserve_legs(items.len());
    let indexed: Vec<(usize, &T)> = items
        .iter()
        .enumerate()
        .map(|(i, t)| (first_leg + i, t))
        .collect();
    let outs = tr.span(POOL, "par_map_with", At::default(), |at| {
        par_map_with(&indexed, workers, |&(leg, item)| {
            tr.span(
                RUNNER,
                leg_name,
                At {
                    leg: Some(leg),
                    ..at
                },
                |at| f(item, at),
            )
        })
    });
    let mut total = Counters::default();
    let outs = outs
        .into_iter()
        .map(|(u, c)| {
            total.merge(&c);
            u
        })
        .collect();
    (outs, total)
}

/// The `i`-th input seed of a run with seed `seed` (the first is `seed`).
fn sub_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_add(i.wrapping_mul(1_000_003))
}

fn clone_programs(set: &[Box<dyn ThreadProgram + Send + Sync>]) -> Vec<Box<dyn ThreadProgram>> {
    set.iter()
        .map(|p| {
            p.boxed_clone()
                .expect("suite workloads support boxed_clone")
        })
        .collect()
}

/// Pristine program sets keyed like the runner's workload bank.
type ProgramBank = HashMap<(WorkloadKind, usize, u64), Vec<Box<dyn ThreadProgram + Send + Sync>>>;

/// Closed-loop Figure 8 sweep (`fig08_specs`, 84 sims); one input.
pub struct Fig08 {
    specs: Vec<RunSpec>,
    /// The traced replica's own copy of the pristine program sets (the
    /// runner's bank is private).
    programs: OnceLock<ProgramBank>,
}

impl Fig08 {
    /// Full scale is `ExperimentScale::full()` (600 ops/thread); tiny is
    /// the tests' quick scale.
    pub fn new(seed: u64, tiny: bool) -> Fig08 {
        let base = if tiny {
            ExperimentScale::quick()
        } else {
            ExperimentScale::full()
        };
        Fig08 {
            specs: fig08_specs(ExperimentScale { seed, ..base }),
            programs: OnceLock::new(),
        }
    }
}

fn bank_key(spec: &RunSpec) -> (WorkloadKind, usize, u64) {
    (spec.workload, spec.config.num_cores, spec.ops_per_thread)
}

fn params_of(spec: &RunSpec) -> WorkloadParams {
    WorkloadParams {
        threads: spec.config.num_cores,
        ops_per_thread: spec.ops_per_thread,
        seed: spec.seed,
        ..WorkloadParams::default()
    }
}

/// `run_once` rebuilt from its public parts: clone the programs, build,
/// then run.
fn run_once_traced(
    tr: &Tracer,
    spec: &RunSpec,
    set: &[Box<dyn ThreadProgram + Send + Sync>],
    at: At,
) -> (RunOutcome, Counters) {
    let started = Instant::now();
    let programs = tr.span(WORKLOADS, "boxed_clone", at, |_| clone_programs(set));
    let mut sim = tr.span(SIM, "build", at, |_| {
        SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
            .programs(programs)
            .build()
    });
    let run = tr.span(SIM, "run_to_completion", at, |_| sim.run_to_completion());
    let stats = sim.take_stats();
    let mut c = Counters::default();
    c.components.add(&stats);
    c.sim_cycles = sim.now().raw();
    let mut manifest = RunManifest::of_spec(spec);
    manifest.wall = started.elapsed();
    let out = RunOutcome {
        cycles: sim.now().raw(),
        ops: stats.ops_completed,
        rt_max_occupancy: sim.rt_max_occupancy(),
        media_writes: sim.media_writes(),
        media_utilization: sim.media_utilization(),
        all_done: run.all_done,
        stats,
        manifest,
    };
    (out, c)
}

impl Flow for Fig08 {
    type Out = Vec<RunOutcome>;

    fn inputs(&self) -> usize {
        1
    }

    fn setup(&mut self, tr: &Tracer) {
        tr.span(WORKLOADS, "prewarm_workloads", At::default(), |_| {
            prewarm_workloads(&self.specs)
        });
    }

    fn run(&self, _input: usize, workers: usize) -> Vec<RunOutcome> {
        par_map_with(&self.specs, workers, run_once)
    }

    fn traced(&self, _input: usize, workers: usize, tr: &Tracer) -> (Vec<RunOutcome>, Counters) {
        let bank = self.programs.get_or_init(|| {
            tr.span(WORKLOADS, "replica_bank", At::default(), |_| {
                let mut bank = ProgramBank::new();
                for s in &self.specs {
                    bank.entry(bank_key(s))
                        .or_insert_with(|| make_workload_shared(s.workload, &params_of(s)));
                }
                bank
            })
        });
        fan_out(tr, &self.specs, workers, "run_once", |spec, at| {
            run_once_traced(tr, spec, &bank[&bank_key(spec)], at)
        })
    }

    fn output_text(&self, _input: usize, outs: &Vec<RunOutcome>) -> String {
        fig08_table_from(outs).to_markdown()
    }

    fn invariants(&self, _input: usize, outs: &Vec<RunOutcome>, checks: &mut Checks) {
        checks.check(outs.len() == self.specs.len(), || {
            format!(
                "fig08: {} outcomes for {} legs",
                outs.len(),
                self.specs.len()
            )
        });
        for (spec, o) in self.specs.iter().zip(outs) {
            let want = spec.ops_per_thread * spec.config.num_cores as u64;
            checks.check(o.all_done && o.ops == want, || {
                format!(
                    "fig08 {} {:?}/{:?}: all_done={} ops={} want {want}",
                    spec.workload.label(),
                    spec.model,
                    spec.flavor,
                    o.all_done,
                    o.ops
                )
            });
        }
    }
}

/// Traffic sweeps, one per input: one sweep's time moves about ±5% with
/// its seed.
const TRAFFIC_SEEDS: u64 = 2;

/// Open-loop traffic sweeps (`TrafficScale::quick()`, 30 legs each);
/// [`TRAFFIC_SEEDS`] inputs.
pub struct Traffic {
    sweeps: Vec<Vec<TrafficSpec>>,
}

impl Traffic {
    /// Full scale is `TrafficScale::quick()` (35k requests a leg); tiny
    /// replays 1,000 requests a leg.
    pub fn new(seed: u64, tiny: bool) -> Traffic {
        let sweeps = (0..TRAFFIC_SEEDS)
            .map(|i| {
                let mut scale = TrafficScale {
                    seed: sub_seed(seed, i),
                    ..TrafficScale::quick()
                };
                if tiny {
                    scale.requests = 1_000;
                }
                scale.specs()
            })
            .collect();
        Traffic { sweeps }
    }
}

fn service(
    app: TrafficApp,
    thread: usize,
    p: &WorkloadParams,
) -> Box<dyn RequestService + Send + Sync> {
    match app {
        TrafficApp::Memcached => Box::new(MemcachedService::new(thread, p)),
        TrafficApp::Nstore => Box::new(NstoreService::new(thread, p)),
        TrafficApp::Echo => Box::new(EchoService::new(thread, p)),
    }
}

/// `run_traffic` rebuilt from its public parts: the bank, the open-loop
/// programs, build, then run.
fn run_traffic_traced(tr: &Tracer, spec: &TrafficSpec, at: At) -> (TrafficOutcome, Counters) {
    let bank = request_bank(&spec.traffic);
    let threads = spec.config.num_cores;
    let sink = new_sink(threads);
    let params = WorkloadParams {
        threads,
        ops_per_thread: 0,
        seed: spec.traffic.seed,
        ..WorkloadParams::default()
    };
    let programs = tr.span(WORKLOADS, "open_loop_programs", at, |_| {
        (0..threads)
            .map(|t| -> Box<dyn ThreadProgram> {
                Box::new(OpenLoop::new(
                    service(spec.app, t, &params),
                    Arc::clone(&bank),
                    t,
                    threads,
                    spec.think,
                    Arc::clone(&sink),
                ))
            })
            .collect()
    });
    let mut sim = tr.span(SIM, "build", at, |_| {
        SimBuilder::new(spec.config.clone(), spec.model, spec.flavor)
            .programs(programs)
            .build()
    });
    tr.span(SIM, "run_to_completion", at, |_| sim.run_to_completion());
    let mut lat = LatencySplit::new();
    for split in sink.lock().expect("latency sink poisoned").iter() {
        lat.merge(split);
    }
    let mut c = Counters::default();
    c.components.add(sim.stats());
    c.sim_cycles = sim.now().raw();
    c.requests = bank.len() as u64;
    let out = TrafficOutcome {
        cycles: sim.now().raw(),
        requests: bank.len() as u64,
        lat,
        config_digest: spec.config.digest(),
    };
    (out, c)
}

impl Flow for Traffic {
    type Out = Vec<TrafficOutcome>;

    fn inputs(&self) -> usize {
        self.sweeps.len()
    }

    fn setup(&mut self, tr: &Tracer) {
        for s in self.sweeps.iter().flatten() {
            tr.span(WORKLOADS, "request_bank", At::default(), |_| {
                request_bank(&s.traffic)
            });
        }
    }

    fn run(&self, input: usize, workers: usize) -> Vec<TrafficOutcome> {
        par_map_with(&self.sweeps[input], workers, run_traffic)
    }

    fn traced(&self, input: usize, workers: usize, tr: &Tracer) -> (Vec<TrafficOutcome>, Counters) {
        fan_out(
            tr,
            &self.sweeps[input],
            workers,
            "run_traffic",
            |spec, at| run_traffic_traced(tr, spec, at),
        )
    }

    fn output_text(&self, input: usize, outs: &Vec<TrafficOutcome>) -> String {
        table_from_runs(&self.sweeps[input], outs).to_markdown()
    }

    fn invariants(&self, input: usize, outs: &Vec<TrafficOutcome>, checks: &mut Checks) {
        let specs = &self.sweeps[input];
        checks.check(outs.len() == specs.len(), || {
            format!("traffic: {} outcomes for {} legs", outs.len(), specs.len())
        });
        for (spec, o) in specs.iter().zip(outs) {
            let want = spec.traffic.requests;
            checks.check(o.requests == want && o.lat.count() == want, || {
                format!(
                    "traffic seed {} {}/{}/gap {}: requests={} measured={} want {want}",
                    spec.traffic.seed,
                    spec.app,
                    spec.model,
                    spec.traffic.mean_gap,
                    o.requests,
                    o.lat.count()
                )
            });
        }
    }
}

const CRASH_WORKLOAD: WorkloadKind = WorkloadKind::Queue;
const CRASH_MODEL: ModelKind = ModelKind::Asap;

/// Explorations, one per input: one exploration's time moves about ±10%
/// with its seed.
const EXPLORE_SEEDS: u64 = 5;
/// Crash checks, one per input, for the same reason.
const CHECK_SEEDS: u64 = 4;

/// The explorer's hardware config and programs, as the explorer's own
/// `build_sim` makes them.
fn explore_sim(p: &ExploreParams, programs: Vec<Box<dyn ThreadProgram>>) -> asap_core::Sim {
    let mut cfg = SimConfig::paper();
    cfg.num_cores = cfg.num_cores.max(p.threads);
    SimBuilder::new(cfg, CRASH_MODEL, p.flavor)
        .programs(programs)
        .with_journal()
        .build()
}

fn explore_params(p: &ExploreParams) -> WorkloadParams {
    WorkloadParams {
        threads: p.threads,
        ops_per_thread: p.ops_per_thread,
        seed: p.seed,
        ..WorkloadParams::default()
    }
}

/// The explorer's `record_violations`, for the replica's chunk results.
fn record(out: &mut ChunkResult, cycle: u64, report: &CrashReport) {
    for v in &report.violations {
        let idx = ViolationRule::ALL
            .iter()
            .position(|r| *r == v.rule)
            .expect("rule in ALL");
        out.rule_counts[idx] += 1;
        if out.violations.len() < MAX_KEPT_VIOLATIONS {
            out.violations.push(ViolationHit {
                cycle,
                rule: v.rule,
                message: v.message.clone(),
            });
        }
    }
}

/// `verify_chunk` rebuilt from its public parts: build the sim, then per
/// point `run_for` and `crash_check_now`.
fn verify_chunk_traced(
    tr: &Tracer,
    p: &ExploreParams,
    chunk: &Chunk,
    at: At,
) -> (ChunkResult, Counters) {
    let programs = tr.span(WORKLOADS, "make_workload", at, |_| {
        make_workload(CRASH_WORKLOAD, &explore_params(p))
    });
    let mut sim = tr.span(SIM, "build", at, |_| explore_sim(p, programs));
    let mut out = ChunkResult::default();
    let mut c = Counters::default();
    for &cycle in &chunk.points {
        tr.span(SIM, "run_for", at, |_| sim.run_for(Cycle(cycle)));
        let report = tr.span(ORACLE, "crash_check_now", at, |_| {
            sim.crash_check_now().expect("journal enabled")
        });
        out.checked += 1;
        out.undo_max = out.undo_max.max(report.undo_records_applied);
        record(&mut out, cycle, &report);
        c.oracle_epochs += report.epochs_committed as u64;
        c.undo_applied += report.undo_records_applied as u64;
        c.journal_entries += sim.journal().entries().len() as u64;
    }
    c.components.add(sim.stats());
    c.sim_cycles = sim.now().raw();
    (out, c)
}

/// Crash-space exploration: `pass1`, then `verify_chunk` fanned out over
/// the pool, for queue × ASAP, release persistency, 4 threads × 20 ops,
/// default budget (2048, so 4 chunks of 512), pruning on;
/// [`EXPLORE_SEEDS`] inputs.
pub struct CrashExplore {
    params: Vec<ExploreParams>,
}

/// One exploration's user-visible result.
#[derive(Debug, PartialEq)]
pub struct ExploreOut {
    /// `CrashSpaceReport::to_text()`.
    pub text: String,
    /// Distinct crash states.
    pub distinct: u64,
    /// Points checked.
    pub checked: u64,
    /// Distinct states dropped by the points budget (reported, never
    /// silent).
    pub sampled_out: u64,
    /// Violations found.
    pub violations: u64,
}

impl CrashExplore {
    /// Tiny scale explores 4 threads × 4 ops.
    pub fn new(seed: u64, tiny: bool) -> CrashExplore {
        CrashExplore {
            params: (0..EXPLORE_SEEDS)
                .map(|i| ExploreParams {
                    workloads: vec![CRASH_WORKLOAD],
                    models: vec![CRASH_MODEL],
                    flavor: Flavor::Release,
                    threads: 4,
                    ops_per_thread: if tiny { 4 } else { 20 },
                    seed: sub_seed(seed, i),
                    ..ExploreParams::default()
                })
                .collect(),
        }
    }
}

fn assemble(p: &ExploreParams, p1: &Pass1, chunks: &[ChunkResult]) -> ExploreOut {
    let cfg = assemble_config(p, p1, chunks);
    let (distinct, checked, sampled_out, violations) = (
        cfg.distinct_states,
        cfg.checked,
        cfg.sampled_out,
        cfg.total_violations(),
    );
    let report = CrashSpaceReport {
        flavor: p.flavor,
        threads: p.threads,
        ops_per_thread: p.ops_per_thread,
        seed: p.seed,
        pad: p.pad,
        points_budget: p.points_budget,
        prune: p.prune,
        broken_undo_every: p.broken_undo_every,
        configs: vec![cfg],
    };
    ExploreOut {
        text: report.to_text(),
        distinct,
        checked,
        sampled_out,
        violations,
    }
}

impl Flow for CrashExplore {
    type Out = ExploreOut;

    fn inputs(&self) -> usize {
        self.params.len()
    }

    /// The explorer generates its programs inside each pass; set-up is
    /// that generation on its own, the input every pass plans from.
    fn setup(&mut self, tr: &Tracer) {
        for p in &self.params {
            tr.span(WORKLOADS, "make_workload", At::default(), |_| {
                make_workload(CRASH_WORKLOAD, &explore_params(p))
            });
        }
    }

    fn run(&self, input: usize, workers: usize) -> ExploreOut {
        let p = &self.params[input];
        let p1 = pass1(p, CRASH_WORKLOAD, CRASH_MODEL);
        let chunks = par_map_with(&p1.chunks, workers, |c| {
            verify_chunk(p, CRASH_WORKLOAD, CRASH_MODEL, c)
        });
        assemble(p, &p1, &chunks)
    }

    fn traced(&self, input: usize, workers: usize, tr: &Tracer) -> (ExploreOut, Counters) {
        let p = &self.params[input];
        let p1 = tr.span(EXPLORE, "pass1", At::default(), |_| {
            pass1(p, CRASH_WORKLOAD, CRASH_MODEL)
        });
        let (chunks, mut c) = fan_out(tr, &p1.chunks, workers, "verify_chunk", |chunk, at| {
            verify_chunk_traced(tr, p, chunk, at)
        });
        let out = assemble(p, &p1, &chunks);
        c.raw_points = p1.raw_points;
        c.distinct_states = p1.distinct_states;
        c.points_checked = out.checked;
        c.end_cycles = p1.end_cycle;
        (out, c)
    }

    fn output_text(&self, _input: usize, out: &ExploreOut) -> String {
        out.text.clone()
    }

    fn invariants(&self, input: usize, o: &ExploreOut, checks: &mut Checks) {
        let seed = self.params[input].seed;
        checks.check(o.violations == 0, || {
            format!("crash_explore seed {seed}: {} violations", o.violations)
        });
        checks.check(
            o.checked > 0 && o.checked + o.sampled_out == o.distinct,
            || {
                format!(
                    "crash_explore seed {seed}: checked {} + sampled out {} != distinct states {}",
                    o.checked, o.sampled_out, o.distinct
                )
            },
        );
    }
}

/// One paper-scale crash check: queue × ASAP, release persistency,
/// 4 threads × 700 ops, journal on, crash at cycle 800k;
/// [`CHECK_SEEDS`] inputs.
pub struct CrashCheck {
    crash_at: u64,
    /// Workload parameters and pristine programs of each check.
    cases: Vec<(WorkloadParams, Vec<Box<dyn ThreadProgram + Send + Sync>>)>,
}

/// A crash check's user-visible result.
#[derive(Debug, PartialEq)]
pub struct CheckOut {
    /// The oracle's report.
    pub report: CrashReport,
    /// Cycle the run stopped at.
    pub cycle: u64,
}

impl CrashCheck {
    /// Tiny scale crashes 4 threads × 60 ops at cycle 20k.
    pub fn new(seed: u64, tiny: bool) -> CrashCheck {
        CrashCheck {
            crash_at: if tiny { 20_000 } else { 800_000 },
            cases: (0..CHECK_SEEDS)
                .map(|i| {
                    let params = WorkloadParams {
                        threads: 4,
                        ops_per_thread: if tiny { 60 } else { 700 },
                        seed: sub_seed(seed, i),
                        ..WorkloadParams::default()
                    };
                    (params, Vec::new())
                })
                .collect(),
        }
    }
}

fn crash_sim(programs: Vec<Box<dyn ThreadProgram>>) -> asap_core::Sim {
    SimBuilder::new(SimConfig::paper(), CRASH_MODEL, Flavor::Release)
        .programs(programs)
        .with_journal()
        .build()
}

impl Flow for CrashCheck {
    type Out = CheckOut;

    fn inputs(&self) -> usize {
        self.cases.len()
    }

    /// A user waits for one check at a time.
    fn workers(&self, _available: usize) -> usize {
        1
    }

    fn setup(&mut self, tr: &Tracer) {
        for (params, programs) in &mut self.cases {
            *programs = tr.span(WORKLOADS, "make_workload_shared", At::default(), |_| {
                make_workload_shared(CRASH_WORKLOAD, params)
            });
        }
    }

    fn run(&self, input: usize, _workers: usize) -> CheckOut {
        let mut sim = crash_sim(clone_programs(&self.cases[input].1));
        let report = sim.crash_at(Cycle(self.crash_at)).expect("journal enabled");
        CheckOut {
            report,
            cycle: sim.now().raw(),
        }
    }

    fn traced(&self, input: usize, workers: usize, tr: &Tracer) -> (CheckOut, Counters) {
        let (mut outs, c) = fan_out(
            tr,
            &self.cases[input..=input],
            workers,
            "crash_at",
            |(_, programs), at| {
                let programs = tr.span(WORKLOADS, "boxed_clone", at, |_| clone_programs(programs));
                let mut sim = tr.span(SIM, "build", at, |_| crash_sim(programs));
                tr.span(SIM, "run_for", at, |_| sim.run_for(Cycle(self.crash_at)));
                let entries = sim.journal().entries().len() as u64;
                let report = tr.span(ORACLE, "crash_and_check", at, |_| {
                    sim.crash_and_check().expect("journal enabled")
                });
                let mut c = Counters::default();
                c.components.add(sim.stats());
                c.sim_cycles = sim.now().raw();
                c.oracle_epochs = report.epochs_committed as u64;
                c.undo_applied = report.undo_records_applied as u64;
                c.journal_entries = entries;
                let out = CheckOut {
                    report,
                    cycle: sim.now().raw(),
                };
                (out, c)
            },
        );
        (outs.pop().expect("one leg"), c)
    }

    fn output_text(&self, _input: usize, out: &CheckOut) -> String {
        format!("{out:?}")
    }

    fn invariants(&self, input: usize, o: &CheckOut, checks: &mut Checks) {
        let seed = self.cases[input].0.seed;
        checks.check(o.report.is_consistent(), || {
            format!(
                "crash_check seed {seed}: {} violations",
                o.report.violations.len()
            )
        });
        checks.check(
            o.cycle == self.crash_at && o.report.epochs_committed > 0,
            || {
                format!(
                    "crash_check seed {seed}: stopped at cycle {} (want {}), {} epochs committed",
                    o.cycle, self.crash_at, o.report.epochs_committed
                )
            },
        );
    }
}
