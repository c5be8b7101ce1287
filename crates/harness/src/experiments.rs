//! The figure catalogue: every table and figure of the paper's
//! evaluation (§VII) plus the DESIGN.md ablations.
//!
//! Each [`Figure`] in [`CATALOGUE`] is two pure functions: its legs (the
//! simulations it needs, as [`Leg`]s) and an assembler that turns one
//! outcome per leg, in leg order, into its [`Table`]s. [`run_figures`]
//! runs the union of the chosen figures' legs as one sweep through
//! [`exec::run_sweep`](crate::exec::run_sweep), which simulates each
//! distinct leg once (figures share many: the 4-core HOPS_RP and
//! ASAP_RP legs each feed five of them) and can answer legs from the
//! outcome cache. All runs are deterministic given the seed embedded in
//! [`ExperimentScale`], so the tables are byte-identical however the
//! legs were executed.

use crate::args::SweepArgs;
use crate::exec::{complete_outcomes, sweep_legs, Leg, SweepReport};
use crate::hwcost;
use crate::report::{f2, Table};
use crate::runner::{run_once, RunOutcome, RunSpec};
use asap_core::{Flavor, ModelKind};
use asap_sim_core::{Cycle, SimConfig, SimConfigBuilder};
use asap_workloads::WorkloadKind;

/// How big to run the experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentScale {
    /// Logical ops per thread for run-to-completion experiments.
    pub ops: u64,
    /// Simulated window for windowed experiments (Figure 2's 1 ms at the
    /// paper scale).
    pub window: Cycle,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Fast settings for tests and the self-timed benches in
    /// `crates/bench`.
    pub fn quick() -> ExperimentScale {
        ExperimentScale {
            ops: 60,
            window: Cycle(200_000),
            seed: 42,
        }
    }

    /// Paper-scale settings for report generation (every figure takes
    /// about 13 s of wall clock on one core of a 2-vCPU VM; the sweeps
    /// parallelize across all of them).
    pub fn full() -> ExperimentScale {
        ExperimentScale {
            ops: 600,
            window: Cycle(2_000_000), // 1 ms at 2 GHz
            seed: 42,
        }
    }
}

/// One catalogue entry: a paper artefact (figure, table or ablation
/// set) as the legs it simulates and the assembler of its tables.
#[derive(Debug)]
pub struct Figure {
    /// The name `asap_sweep` selects it by.
    pub name: &'static str,
    /// The legs, in the order [`Figure::tables`] expects their outcomes.
    pub legs: fn(ExperimentScale) -> Vec<Leg>,
    /// Assemble the tables from one outcome per leg, in leg order.
    pub tables: fn(&[RunOutcome]) -> Vec<Table>,
}

/// Every figure, in the order `asap_sweep all` prints them.
pub static CATALOGUE: [Figure; 10] = [
    entry("fig02", fig02_legs, fig02_tables),
    entry("fig03", fig03_legs, fig03_tables),
    entry("fig08", fig08_legs, fig08_tables),
    entry("fig09", hops_asap_rp_legs, fig09_tables),
    entry("fig10", fig10_legs, fig10_tables),
    entry("fig11", hops_asap_rp_legs, fig11_tables),
    entry("fig12", fig12_legs, fig12_tables),
    entry("fig13", fig13_legs, fig13_tables),
    entry("tab05", |_| Vec::new(), tab05_tables),
    entry("ablations", ablation_legs, ablation_tables),
];

const fn entry(
    name: &'static str,
    legs: fn(ExperimentScale) -> Vec<Leg>,
    tables: fn(&[RunOutcome]) -> Vec<Table>,
) -> Figure {
    Figure { name, legs, tables }
}

/// Run `figs` as one sweep labelled `label` (see the module docs) and
/// return their tables in `figs` order — `None` when a leg is missing,
/// which only happens under `--shard`.
pub fn run_figures(
    label: &str,
    figs: &[&Figure],
    scale: ExperimentScale,
    sa: &SweepArgs,
) -> (Option<Vec<Table>>, SweepReport) {
    let per_figure: Vec<Vec<Leg>> = figs.iter().map(|f| (f.legs)(scale)).collect();
    let (results, report) = sweep_legs(label, &per_figure.concat(), sa);
    let tables = complete_outcomes(results).map(|outs| {
        let mut rest = &outs[..];
        let mut tables = Vec::new();
        for (f, legs) in figs.iter().zip(&per_figure) {
            let (mine, tail) = rest.split_at(legs.len());
            tables.extend((f.tables)(mine));
            rest = tail;
        }
        tables
    });
    (tables, report)
}

/// The tables of the catalogue figure `name`, simulated in-process
/// without a cache (tests and benches).
///
/// # Panics
///
/// Panics if `name` is not in [`CATALOGUE`].
pub fn figure_tables(name: &str, scale: ExperimentScale) -> Vec<Table> {
    let f = CATALOGUE
        .iter()
        .find(|f| f.name == name)
        .unwrap_or_else(|| panic!("no figure named {name}"));
    run_figures(name, &[f], scale, &SweepArgs::default())
        .0
        .expect("an unsharded sweep is complete")
}

fn spec(
    model: ModelKind,
    flavor: Flavor,
    workload: WorkloadKind,
    scale: ExperimentScale,
) -> RunSpec {
    RunSpec {
        config: SimConfig::paper(),
        model,
        flavor,
        workload,
        ops_per_thread: scale.ops,
        seed: scale.seed,
    }
}

/// [`spec`] on the configuration `config` builds.
fn spec_on(
    config: SimConfigBuilder,
    model: ModelKind,
    flavor: Flavor,
    workload: WorkloadKind,
    scale: ExperimentScale,
) -> RunSpec {
    RunSpec {
        config: config.build().expect("valid"),
        ..spec(model, flavor, workload, scale)
    }
}

/// One thread of the alternating-MC bandwidth microbenchmark at four
/// times the scale's ops. One thread isolates ordering cost from raw
/// demand: with many threads every design saturates the media and the
/// contrast between designs vanishes.
fn bandwidth_probe(config: SimConfigBuilder, model: ModelKind, scale: ExperimentScale) -> Leg {
    let mut s = spec_on(
        config.cores(1),
        model,
        Flavor::Release,
        WorkloadKind::Bandwidth,
        scale,
    );
    s.ops_per_thread = scale.ops * 4;
    Leg::complete(s)
}

/// The HOPS_RP and ASAP_RP legs of every workload, in pairs (Figures 9
/// and 11).
fn hops_asap_rp_legs(scale: ExperimentScale) -> Vec<Leg> {
    WorkloadKind::all()
        .into_iter()
        .flat_map(|w| {
            [ModelKind::Hops, ModelKind::Asap]
                .map(|m| Leg::complete(spec(m, Flavor::Release, w, scale)))
        })
        .collect()
}

// -------------------------------------------------------------------
// Figure 2
// -------------------------------------------------------------------

/// Figure 2: number of epochs and cross-thread dependencies within the
/// measurement window (paper: 1 ms, 4 threads, release persistency). The
/// EP columns are our extension showing why EP sees far more
/// dependencies.
///
/// Measured under HOPS, like the paper's methodology (§III runs the
/// dependency study with HOPS): a dependency is counted when the source
/// epoch is still in flight, and HOPS's conservative commit timing is
/// what exposes them.
fn fig02_legs(scale: ExperimentScale) -> Vec<Leg> {
    WorkloadKind::all()
        .into_iter()
        .flat_map(|w| {
            [Flavor::Release, Flavor::Epoch]
                .map(|f| Leg::windowed(spec(ModelKind::Hops, f, w, scale), scale.window))
        })
        .collect()
}

fn fig02_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 2: epochs and cross-thread dependencies per window (4 threads)",
        &[
            "workload",
            "epochs_rp",
            "cross_deps_rp",
            "epochs_ep",
            "cross_deps_ep",
        ],
    );
    for (w, pair) in WorkloadKind::all().iter().zip(outs.chunks_exact(2)) {
        let (rp, ep) = (&pair[0], &pair[1]);
        t.push_row(vec![
            w.label().into(),
            rp.stats.epochs_created.to_string(),
            rp.stats.inter_t_epoch_conflict.to_string(),
            ep.stats.epochs_created.to_string(),
            ep.stats.inter_t_epoch_conflict.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 3
// -------------------------------------------------------------------

/// Figure 3: percentage of cycles the persist buffers are blocked from
/// flushing under HOPS (release persistency).
fn fig03_legs(scale: ExperimentScale) -> Vec<Leg> {
    WorkloadKind::all()
        .into_iter()
        .map(|w| Leg::complete(spec(ModelKind::Hops, Flavor::Release, w, scale)))
        .collect()
}

fn fig03_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 3: % of cycles persist buffers are blocked (HOPS_RP)",
        &["workload", "blocked_pct"],
    );
    let mut total = 0.0;
    let mut n = 0;
    for (w, out) in WorkloadKind::all().iter().zip(outs) {
        let threads = SimConfig::paper().num_cores as f64;
        let pct = 100.0 * out.stats.cycles_blocked as f64 / (out.cycles as f64 * threads);
        total += pct;
        n += 1;
        t.push_row(vec![w.label().into(), f2(pct)]);
    }
    t.push_row(vec!["average".into(), f2(total / n as f64)]);
    vec![t]
}

// -------------------------------------------------------------------
// Figure 8
// -------------------------------------------------------------------

const FIG8_MODELS: [(&str, ModelKind, Flavor); 6] = [
    ("baseline", ModelKind::Baseline, Flavor::Release),
    ("hops_ep", ModelKind::Hops, Flavor::Epoch),
    ("hops_rp", ModelKind::Hops, Flavor::Release),
    ("asap_ep", ModelKind::Asap, Flavor::Epoch),
    ("asap_rp", ModelKind::Asap, Flavor::Release),
    ("eadr", ModelKind::Eadr, Flavor::Release),
];

/// The flat spec list behind Figure 8: every (workload, model) pair of
/// the paper's headline sweep, in row-major order. Exposed so
/// `sweep_bench` and the parallel/serial equivalence tests can drive the
/// exact production sweep.
pub fn fig08_specs(scale: ExperimentScale) -> Vec<RunSpec> {
    WorkloadKind::all()
        .into_iter()
        .flat_map(|w| {
            FIG8_MODELS
                .iter()
                .map(move |&(_, m, f)| spec(m, f, w, scale))
        })
        .collect()
}

fn fig08_legs(scale: ExperimentScale) -> Vec<Leg> {
    fig08_specs(scale).into_iter().map(Leg::complete).collect()
}

/// Figure 8 and the §VII-A headline numbers derived from it.
fn fig08_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let t = fig08_table_from(outs);
    let summary = fig08_summary(&t);
    vec![t, summary]
}

/// Figure 8: speedup over the Intel baseline for every model and
/// workload in a 4-core, 2-MC system, assembled from one outcome per
/// [`fig08_specs`] leg, in that order.
///
/// # Panics
///
/// Panics if `outs` is not one outcome per [`fig08_specs`] leg.
pub fn fig08_table_from(outs: &[RunOutcome]) -> Table {
    assert_eq!(
        outs.len(),
        WorkloadKind::all().len() * FIG8_MODELS.len(),
        "one outcome per fig08 spec"
    );
    let mut t = Table::new(
        "Figure 8: speedup over baseline (4 cores, 2 MCs)",
        &[
            "workload", "baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr",
        ],
    );
    let mut sums = [0.0f64; 6];
    let mut n = 0;
    for (w, models) in WorkloadKind::all()
        .iter()
        .zip(outs.chunks_exact(FIG8_MODELS.len()))
    {
        let base = models[0].cycles as f64;
        let mut row = vec![w.label().to_string()];
        for (i, out) in models.iter().enumerate() {
            let speedup = base / out.cycles as f64;
            sums[i] += speedup;
            row.push(f2(speedup));
        }
        n += 1;
        t.push_row(row);
    }
    let mut avg = vec!["average".to_string()];
    for s in sums {
        avg.push(f2(s / n as f64));
    }
    t.push_row(avg);
    t
}

/// Headline numbers derived from Figure 8 (§VII-A): average speedups and
/// the gap to eADR.
pub fn fig08_summary(fig8: &Table) -> Table {
    let avg = |col: &str| fig8.cell_f64("average", col).unwrap_or(0.0);
    let mut t = Table::new("§VII-A headline numbers", &["metric", "value"]);
    t.push_row(vec![
        "ASAP_EP speedup over baseline".into(),
        f2(avg("asap_ep")),
    ]);
    t.push_row(vec![
        "ASAP_RP speedup over baseline".into(),
        f2(avg("asap_rp")),
    ]);
    t.push_row(vec![
        "ASAP_EP improvement over HOPS_EP (%)".into(),
        f2(100.0 * (avg("asap_ep") / avg("hops_ep") - 1.0)),
    ]);
    t.push_row(vec![
        "ASAP_RP improvement over HOPS_RP (%)".into(),
        f2(100.0 * (avg("asap_rp") / avg("hops_rp") - 1.0)),
    ]);
    t.push_row(vec![
        "ASAP_RP gap to eADR (%)".into(),
        f2(100.0 * (avg("eadr") / avg("asap_rp") - 1.0)),
    ]);
    t
}

// -------------------------------------------------------------------
// Figure 9
// -------------------------------------------------------------------

/// Figure 9: PM write operations of ASAP normalized to HOPS, plus the
/// extra PM reads ASAP's undo records cost (§VII-A reports +5.3% reads;
/// we normalize the extra reads per 100 media writes since our
/// cache-resident workloads issue almost no demand PM reads to divide
/// by).
fn fig09_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 9: PM write operations, ASAP vs HOPS (release persistency)",
        &[
            "workload",
            "hops_writes",
            "asap_writes",
            "normalized",
            "undo_reads_per_100_writes",
        ],
    );
    let mut norm_sum = 0.0;
    let mut read_sum = 0.0;
    let mut n = 0;
    for (w, pair) in WorkloadKind::all().iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (&pair[0], &pair[1]);
        let norm = a.media_writes as f64 / h.media_writes.max(1) as f64;
        let extra_reads = a.stats.nvm_reads.saturating_sub(h.stats.nvm_reads) as f64;
        let dreads = 100.0 * extra_reads / a.media_writes.max(1) as f64;
        norm_sum += norm;
        read_sum += dreads;
        n += 1;
        t.push_row(vec![
            w.label().into(),
            h.media_writes.to_string(),
            a.media_writes.to_string(),
            f2(norm),
            f2(dreads),
        ]);
    }
    t.push_row(vec![
        "average".into(),
        "-".into(),
        "-".into(),
        f2(norm_sum / n as f64),
        f2(read_sum / n as f64),
    ]);
    vec![t]
}

// -------------------------------------------------------------------
// Figure 10
// -------------------------------------------------------------------

const FIG10_THREADS: [usize; 4] = [1, 2, 4, 8];

/// Figure 10: throughput scaling with core count — HOPS vs ASAP
/// normalized to single-thread HOPS (paper shows best = P-ART, worst =
/// skiplist, plus the average). Legs: the 1-thread HOPS baseline of
/// every workload first, then the HOPS/ASAP pair of every (thread
/// count, workload) cell; the baselines fold into the 1-thread cells.
fn fig10_legs(scale: ExperimentScale) -> Vec<Leg> {
    let leg = |model, w, threads| {
        Leg::complete(spec_on(
            SimConfig::builder().cores(threads),
            model,
            Flavor::Release,
            w,
            scale,
        ))
    };
    let mut legs: Vec<Leg> = WorkloadKind::all()
        .into_iter()
        .map(|w| leg(ModelKind::Hops, w, 1))
        .collect();
    for threads in FIG10_THREADS {
        for w in WorkloadKind::all() {
            legs.push(leg(ModelKind::Hops, w, threads));
            legs.push(leg(ModelKind::Asap, w, threads));
        }
    }
    legs
}

fn fig10_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 10: speedup over 1-thread HOPS (release persistency, 2 MCs)",
        &[
            "threads",
            "hops_avg",
            "asap_avg",
            "hops_p-art",
            "asap_p-art",
            "hops_skiplist",
            "asap_skiplist",
        ],
    );
    let workloads = WorkloadKind::all();
    let tput = |o: &RunOutcome| o.ops as f64 / o.cycles as f64;
    let base: Vec<f64> = outs[..workloads.len()].iter().map(tput).collect();
    let mut idx = workloads.len();
    for threads in FIG10_THREADS {
        let mut hops_sum = 0.0;
        let mut asap_sum = 0.0;
        let mut hops_part = 0.0;
        let mut asap_part = 0.0;
        let mut hops_sl = 0.0;
        let mut asap_sl = 0.0;
        for (i, &w) in workloads.iter().enumerate() {
            let h = tput(&outs[idx]) / base[i];
            let a = tput(&outs[idx + 1]) / base[i];
            idx += 2;
            hops_sum += h;
            asap_sum += a;
            if w == WorkloadKind::PArt {
                hops_part = h;
                asap_part = a;
            }
            if w == WorkloadKind::Skiplist {
                hops_sl = h;
                asap_sl = a;
            }
        }
        let n = base.len() as f64;
        t.push_row(vec![
            threads.to_string(),
            f2(hops_sum / n),
            f2(asap_sum / n),
            f2(hops_part),
            f2(asap_part),
            f2(hops_sl),
            f2(asap_sl),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 11
// -------------------------------------------------------------------

/// Figure 11: persist-buffer occupancy — time-weighted average and 99th
/// percentile, HOPS vs ASAP.
fn fig11_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 11: PB occupancy (avg and p99), HOPS vs ASAP",
        &["workload", "hops_avg", "hops_p99", "asap_avg", "asap_p99"],
    );
    for (w, pair) in WorkloadKind::all().iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (&pair[0], &pair[1]);
        t.push_row(vec![
            w.label().into(),
            f2(h.stats.pb_occupancy.mean()),
            h.stats.pb_occupancy.percentile(99.0).to_string(),
            f2(a.stats.pb_occupancy.mean()),
            a.stats.pb_occupancy.percentile(99.0).to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 12
// -------------------------------------------------------------------

/// Figure 12: recovery-table maximum occupancy with 4 and 8 threads.
fn fig12_legs(scale: ExperimentScale) -> Vec<Leg> {
    WorkloadKind::all()
        .into_iter()
        .flat_map(|w| {
            [4, 8].map(|threads| {
                Leg::complete(spec_on(
                    SimConfig::builder().cores(threads),
                    ModelKind::Asap,
                    Flavor::Release,
                    w,
                    scale,
                ))
            })
        })
        .collect()
}

fn fig12_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 12: recovery table max occupancy (ASAP_RP)",
        &["workload", "rt_max_4t", "rt_max_8t"],
    );
    for (w, pair) in WorkloadKind::all().iter().zip(outs.chunks_exact(2)) {
        t.push_row(vec![
            w.label().into(),
            pair[0].rt_max_occupancy.to_string(),
            pair[1].rt_max_occupancy.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Figure 13
// -------------------------------------------------------------------

const FIG13_MODELS: [(&str, ModelKind); 4] = [
    ("baseline", ModelKind::Baseline),
    ("hops", ModelKind::Hops),
    ("asap", ModelKind::Asap),
    ("eadr", ModelKind::Eadr),
];

/// Figure 13: write-bandwidth utilization of the alternating-MC
/// microbenchmark.
fn fig13_legs(scale: ExperimentScale) -> Vec<Leg> {
    FIG13_MODELS
        .iter()
        .map(|&(_, m)| bandwidth_probe(SimConfig::builder(), m, scale))
        .collect()
}

fn fig13_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let mut t = Table::new(
        "Figure 13: system write-bandwidth utilization (256B ofence-ordered writes across 2 MCs)",
        &["model", "utilization_pct", "cycles"],
    );
    for (&(name, _), out) in FIG13_MODELS.iter().zip(outs) {
        t.push_row(vec![
            name.into(),
            f2(out.media_utilization * 100.0),
            out.cycles.to_string(),
        ]);
    }
    vec![t]
}

// -------------------------------------------------------------------
// Table V
// -------------------------------------------------------------------

/// Table V (hardware cost) and the §VII-D drain comparison: analytical,
/// so the entry has no legs.
fn tab05_tables(_: &[RunOutcome]) -> Vec<Table> {
    vec![hwcost::table5(), hwcost::drain_comparison(32)]
}

// -------------------------------------------------------------------
// Ablations (DESIGN.md §7)
// -------------------------------------------------------------------

const ABL_RT_SIZES: [usize; 5] = [4, 8, 16, 32, 64];
const ABL_PB_SIZES: [usize; 5] = [4, 8, 16, 32, 64];
const ABL_NVM_WRITE_NS: [u64; 4] = [45, 90, 180, 360];
const ABL_MC_COUNTS: [usize; 3] = [1, 2, 4];

/// The four ablation sweeps back to back: RT size and PB size on
/// ASAP_RP cceh, then the HOPS/ASAP pair of the bandwidth probe per NVM
/// write latency and per MC count.
fn ablation_legs(scale: ExperimentScale) -> Vec<Leg> {
    let cceh = |config| {
        Leg::complete(spec_on(
            config,
            ModelKind::Asap,
            Flavor::Release,
            WorkloadKind::Cceh,
            scale,
        ))
    };
    let probes = |config: SimConfigBuilder| {
        [ModelKind::Hops, ModelKind::Asap].map(|m| bandwidth_probe(config.clone(), m, scale))
    };
    let mut legs: Vec<Leg> = ABL_RT_SIZES
        .map(|rt| cceh(SimConfig::builder().rt_entries(rt)))
        .into();
    legs.extend(ABL_PB_SIZES.map(|pb| cceh(SimConfig::builder().pb_entries(pb))));
    for ns in ABL_NVM_WRITE_NS {
        legs.extend(probes(SimConfig::builder().nvm_write_ns(ns)));
    }
    for mcs in ABL_MC_COUNTS {
        legs.extend(probes(SimConfig::builder().mcs(mcs)));
    }
    legs
}

fn ablation_tables(outs: &[RunOutcome]) -> Vec<Table> {
    let (rt, rest) = outs.split_at(ABL_RT_SIZES.len());
    let (pb, rest) = rest.split_at(ABL_PB_SIZES.len());
    let (nvm, mc) = rest.split_at(2 * ABL_NVM_WRITE_NS.len());
    vec![
        abl_rt_size(rt),
        abl_pb_size(pb),
        abl_nvm_bw(nvm),
        abl_mc_count(mc),
    ]
}

/// RT-size sweep: NACK fallback frequency and performance (§V-D).
fn abl_rt_size(outs: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "Ablation: recovery-table size (ASAP_RP, cceh)",
        &["rt_entries", "cycles", "nacks", "tot_spec_writes"],
    );
    for (rt, out) in ABL_RT_SIZES.iter().zip(outs) {
        t.push_row(vec![
            rt.to_string(),
            out.cycles.to_string(),
            out.stats.nacks.to_string(),
            out.stats.tot_spec_writes.to_string(),
        ]);
    }
    t
}

/// PB-size sweep: back-pressure onto the core.
fn abl_pb_size(outs: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "Ablation: persist-buffer size (ASAP_RP, cceh)",
        &["pb_entries", "cycles", "cyclesStalled"],
    );
    for (pb, out) in ABL_PB_SIZES.iter().zip(outs) {
        t.push_row(vec![
            pb.to_string(),
            out.cycles.to_string(),
            out.stats.cycles_stalled.to_string(),
        ]);
    }
    t
}

/// NVM write-latency sweep on the bandwidth probe: the paper's claim
/// that ASAP "offers greater performance benefit with increasing NVM
/// write bandwidth" — faster media widens the gap (ordering dominates),
/// slower media saturates every design and narrows it.
fn abl_nvm_bw(outs: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "Ablation: NVM write latency (ASAP vs HOPS, 1-thread bandwidth probe)",
        &[
            "nvm_write_ns",
            "hops_cycles",
            "asap_cycles",
            "asap_over_hops",
        ],
    );
    for (ns, pair) in ABL_NVM_WRITE_NS.iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (pair[0].cycles, pair[1].cycles);
        t.push_row(vec![
            ns.to_string(),
            h.to_string(),
            a.to_string(),
            f2(h as f64 / a as f64),
        ]);
    }
    t
}

/// MC-count sweep on the bandwidth microbenchmark (§III's multi-MC
/// motivation).
fn abl_mc_count(outs: &[RunOutcome]) -> Table {
    let mut t = Table::new(
        "Ablation: memory-controller count (bandwidth microbenchmark)",
        &["mcs", "hops_cycles", "asap_cycles", "asap_over_hops"],
    );
    for (mcs, pair) in ABL_MC_COUNTS.iter().zip(outs.chunks_exact(2)) {
        let (h, a) = (pair[0].cycles, pair[1].cycles);
        t.push_row(vec![
            mcs.to_string(),
            h.to_string(),
            a.to_string(),
            f2(h as f64 / a as f64),
        ]);
    }
    t
}

/// Convenience: the Table VI stat listing for one run (gem5-style).
pub fn stats_txt(
    model: ModelKind,
    flavor: Flavor,
    w: WorkloadKind,
    scale: ExperimentScale,
) -> String {
    let out: RunOutcome = run_once(&spec(model, flavor, w, scale));
    out.stats.snapshot().to_stats_txt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            ops: 12,
            window: Cycle(30_000),
            seed: 1,
        }
    }

    #[test]
    fn fig13_shape_asap_beats_hops() {
        let t = &figure_tables("fig13", tiny())[0];
        let hops = t.cell_f64("hops", "utilization_pct").unwrap();
        let asap = t.cell_f64("asap", "utilization_pct").unwrap();
        assert!(
            asap > hops,
            "ASAP must out-utilize HOPS (asap={asap}, hops={hops})"
        );
        let bc: f64 = t.cell_f64("baseline", "cycles").unwrap();
        let ac: f64 = t.cell_f64("asap", "cycles").unwrap();
        assert!(ac < bc);
    }

    #[test]
    fn fig08_shape_on_subset() {
        // Full fig08 is exercised by asap_sweep and the benches; here
        // check the model ordering on one representative workload.
        let s = tiny();
        let cycles: Vec<u64> = FIG8_MODELS
            .iter()
            .map(|&(_, m, f)| run_once(&spec(m, f, WorkloadKind::Queue, s)).cycles)
            .collect();
        let base = cycles[0];
        let asap_rp = cycles[4];
        let eadr = cycles[5];
        assert!(base > asap_rp, "baseline slower than ASAP");
        // Lock-serialized workloads show a few % of hand-off phase noise
        // at tiny scales; eADR must still be within tolerance of the
        // lower bound.
        assert!(
            (eadr as f64) < asap_rp as f64 * 1.10,
            "eADR ({eadr}) should not exceed ASAP ({asap_rp}) by >10%"
        );
    }

    #[test]
    fn fig08_specs_cover_models_by_workload() {
        let specs = fig08_specs(tiny());
        assert_eq!(specs.len(), WorkloadKind::all().len() * FIG8_MODELS.len());
        // Row-major: the first chunk is all six models of the first
        // workload, in FIG8_MODELS column order.
        for (s, &(_, m, f)) in specs.iter().zip(FIG8_MODELS.iter()) {
            assert_eq!(s.workload, WorkloadKind::all()[0]);
            assert_eq!(s.model, m);
            assert_eq!(s.flavor, f);
        }
    }

    #[test]
    fn fig02_window_counts_epochs() {
        let s = ExperimentScale {
            ops: 0,
            window: Cycle(50_000),
            seed: 1,
        };
        let leg = Leg::windowed(
            spec(ModelKind::Asap, Flavor::Release, WorkloadKind::Cceh, s),
            s.window,
        );
        let rp = leg.run();
        assert!(rp.stats.epochs_created > 0);
        assert!(!rp.all_done);
    }

    #[test]
    fn abl_mc_count_single_mc_less_advantage() {
        let t = &figure_tables("ablations", tiny())[3];
        let one = t.cell_f64("1", "asap_over_hops").unwrap();
        let two = t.cell_f64("2", "asap_over_hops").unwrap();
        // The multi-MC motivation: ASAP's edge grows with MC count.
        assert!(
            two >= one * 0.95,
            "2-MC advantage ({two}) should not collapse vs 1-MC ({one})"
        );
    }

    #[test]
    fn catalogue_legs_fold_to_distinct_digests() {
        // Every figure at quick scale: 364 legs, of which 218 are
        // distinct simulations. A change to either count adds, drops or
        // duplicates a leg and has to say why.
        let legs: Vec<Leg> = CATALOGUE
            .iter()
            .flat_map(|f| (f.legs)(ExperimentScale::quick()))
            .collect();
        let distinct: HashSet<u64> = legs.iter().map(Leg::digest).collect();
        assert_eq!(legs.len(), 364);
        assert_eq!(distinct.len(), 218);
        let names: HashSet<&str> = CATALOGUE.iter().map(|f| f.name).collect();
        assert_eq!(names.len(), CATALOGUE.len(), "figure names are unique");
    }

    #[test]
    fn summary_derives_from_fig8() {
        let mut t = Table::new(
            "Figure 8: speedup over baseline (4 cores, 2 MCs)",
            &[
                "workload", "baseline", "hops_ep", "hops_rp", "asap_ep", "asap_rp", "eadr",
            ],
        );
        t.push_row(vec![
            "average".into(),
            "1.00".into(),
            "1.53".into(),
            "1.86".into(),
            "2.10".into(),
            "2.29".into(),
            "2.38".into(),
        ]);
        let s = fig08_summary(&t);
        assert_eq!(
            s.cell("ASAP_RP speedup over baseline", "value"),
            Some("2.29")
        );
        let gap: f64 = s.cell_f64("ASAP_RP gap to eADR (%)", "value").unwrap();
        assert!((gap - 3.93).abs() < 0.1);
    }
}
