//! Regression tests pinning the *shapes* of the paper's figures at quick
//! scale: if a refactor flips who wins (or kills a crossover the paper
//! highlights), these fail before the full-scale report does.
//!
//! `catalogue_matches_tiny_golden` pins the exact bytes of every table
//! in the figure catalogue at a tiny scale, so a change that only
//! restructures how figures are run must leave
//! `tests/fixtures/figures_tiny.md` untouched. After a deliberate change
//! to the simulated behaviour, regenerate it with
//!
//! ```text
//! cargo test -q --test figure_shapes golden -- --nocapture
//! ```
//!
//! and copy the `--- got ---` block into the fixture.

use asap::harness::args::SweepArgs;
use asap::harness::experiments::{figure_tables, run_figures, ExperimentScale, CATALOGUE};
use asap::harness::{run_once, RunSpec};
use asap::sim::{Cycle, Flavor, ModelKind, SimConfig};
use asap::workloads::WorkloadKind;

fn tiny() -> ExperimentScale {
    ExperimentScale {
        ops: 25,
        window: Cycle(40_000),
        seed: 42,
    }
}

fn cycles(model: ModelKind, flavor: Flavor, w: WorkloadKind, threads: usize) -> u64 {
    run_once(&RunSpec {
        config: SimConfig::builder()
            .cores(threads)
            .build()
            .expect("valid config"),
        model,
        flavor,
        workload: w,
        ops_per_thread: 40,
        seed: 42,
    })
    .cycles
}

/// Fig. 8's headline ordering on the average across a representative
/// workload subset: baseline slowest, ASAP_RP > HOPS_RP, eADR fastest.
#[test]
fn fig08_shape_headline_ordering() {
    let subset = [
        WorkloadKind::Cceh,
        WorkloadKind::Queue,
        WorkloadKind::Echo,
        WorkloadKind::PClht,
    ];
    let mut base = 0.0;
    let mut hops = 0.0;
    let mut asap = 0.0;
    let mut eadr = 0.0;
    for w in subset {
        let b = cycles(ModelKind::Baseline, Flavor::Release, w, 4) as f64;
        base += 1.0;
        hops += b / cycles(ModelKind::Hops, Flavor::Release, w, 4) as f64;
        asap += b / cycles(ModelKind::Asap, Flavor::Release, w, 4) as f64;
        eadr += b / cycles(ModelKind::Eadr, Flavor::Release, w, 4) as f64;
    }
    assert!(
        asap > hops,
        "ASAP_RP avg speedup ({asap:.2}) must beat HOPS_RP ({hops:.2})"
    );
    assert!(asap > base, "ASAP_RP must beat baseline");
    assert!(
        eadr >= asap * 0.95,
        "eADR should cap the speedups (eadr={eadr:.2} asap={asap:.2})"
    );
}

/// Fig. 8's crossover: HOPS_EP drops below baseline on the small-epoch
/// concurrent structures (the paper calls out queue/CCEH/Dash/P-ART).
#[test]
fn fig08_shape_hops_ep_below_baseline_on_queue() {
    let base = cycles(ModelKind::Baseline, Flavor::Epoch, WorkloadKind::Queue, 4);
    let hops_ep = cycles(ModelKind::Hops, Flavor::Epoch, WorkloadKind::Queue, 4);
    assert!(
        hops_ep > base,
        "HOPS_EP ({hops_ep}) should fall below baseline ({base}) on the queue"
    );
}

/// Fig. 9's direction: ASAP persists no more than ~10% extra writes on
/// average (it usually persists fewer).
#[test]
fn fig09_shape_write_counts() {
    let t = &figure_tables("fig09", tiny())[0];
    let avg: f64 = t.cell_f64("average", "normalized").expect("average row");
    assert!(avg < 1.10, "ASAP/HOPS write ratio too high: {avg}");
}

/// Fig. 10's direction: ASAP's 4-thread throughput scaling beats HOPS's
/// on the P-ART workload (the paper's best scaler).
#[test]
fn fig10_shape_part_scaling() {
    let tput = |m: ModelKind, threads: usize| {
        let out = run_once(&RunSpec {
            config: SimConfig::builder()
                .cores(threads)
                .build()
                .expect("valid config"),
            model: m,
            flavor: Flavor::Release,
            workload: WorkloadKind::PArt,
            ops_per_thread: 40,
            seed: 42,
        });
        out.ops as f64 / out.cycles as f64
    };
    let hops = tput(ModelKind::Hops, 4) / tput(ModelKind::Hops, 1);
    let asap = tput(ModelKind::Asap, 4) / tput(ModelKind::Asap, 1);
    assert!(
        asap >= hops * 0.9,
        "ASAP p-art scaling ({asap:.2}x) should track/beat HOPS ({hops:.2}x)"
    );
}

/// Fig. 13's direction: ASAP out-utilizes HOPS and baseline on the
/// alternating-MC probe.
#[test]
fn fig13_shape_bandwidth_utilization() {
    let t = &figure_tables("fig13", tiny())[0];
    let base = t
        .cell_f64("baseline", "utilization_pct")
        .expect("baseline row");
    let hops = t.cell_f64("hops", "utilization_pct").expect("hops row");
    let asap = t.cell_f64("asap", "utilization_pct").expect("asap row");
    assert!(asap > hops, "asap {asap} must beat hops {hops}");
    assert!(asap > base, "asap {asap} must beat baseline {base}");
}

/// §III's motivation: ASAP's edge over HOPS grows with MC count on the
/// single-thread ordering probe.
#[test]
fn multi_mc_motivation_holds() {
    let t = figure_tables("ablations", tiny())
        .pop()
        .expect("the MC-count ablation is the last table");
    let one = t.cell_f64("1", "asap_over_hops").expect("1-MC row");
    let four = t.cell_f64("4", "asap_over_hops").expect("4-MC row");
    assert!(
        four > one,
        "ASAP's advantage must grow with MCs (1MC: {one}, 4MC: {four})"
    );
}

/// Fig. 12's bound: the recovery table never exceeds its capacity, and
/// BBB/eADR never touch it.
#[test]
fn fig12_shape_rt_bounded() {
    for w in [WorkloadKind::Cceh, WorkloadKind::Echo] {
        let out = run_once(&RunSpec {
            config: SimConfig::paper(),
            model: ModelKind::Asap,
            flavor: Flavor::Release,
            workload: w,
            ops_per_thread: 40,
            seed: 42,
        });
        assert!(out.rt_max_occupancy <= SimConfig::paper().rt_entries, "{w}");
    }
    let out = run_once(&RunSpec {
        config: SimConfig::paper(),
        model: ModelKind::Bbb,
        flavor: Flavor::Release,
        workload: WorkloadKind::Cceh,
        ops_per_thread: 40,
        seed: 42,
    });
    assert_eq!(out.rt_max_occupancy, 0, "BBB must not use recovery tables");
}

/// Every table of the catalogue, run as one sweep at a tiny scale, is
/// byte-identical to the fixture (rendered as `asap_sweep all` prints).
#[test]
fn catalogue_matches_tiny_golden() {
    let golden = include_str!("fixtures/figures_tiny.md");
    let scale = ExperimentScale {
        ops: 12,
        window: Cycle(30_000),
        seed: 1,
    };
    let figs: Vec<_> = CATALOGUE.iter().collect();
    let (tables, report) = run_figures("all", &figs, scale, &SweepArgs::default());
    assert_eq!(report.legs, 364);
    assert_eq!(report.simulated, 218, "each distinct leg runs once");
    let got: String = tables
        .expect("an unsharded sweep is complete")
        .iter()
        .map(|t| format!("{}\n", t.to_markdown()))
        .collect();
    assert!(
        got == golden,
        "figure tables drifted from tests/fixtures/figures_tiny.md — if the \
         change is intentional, regenerate it (see module docs).\n\
         --- got ---\n{got}\n--- expected ---\n{golden}"
    );
}
