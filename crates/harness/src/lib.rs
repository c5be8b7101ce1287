//! Experiment harness: regenerates every table and figure of the ASAP
//! paper's evaluation (§VII).
//!
//! The [`experiments`] module holds the figure catalogue: each entry
//! lists the simulations (legs) a paper artefact needs and assembles its
//! [`Table`]s from their outcomes. The `asap_sweep` binary runs any set
//! of entries as one sweep through the [`exec`] executor, which
//! simulates each distinct leg once on the in-process [`pool`] (all
//! cores by default; `--workers N` or `ASAP_THREADS` to override), can
//! answer legs from an outcome cache, and collects results in input
//! order, so the tables are byte-identical however they were run.
//!
//! | catalogue entry | paper artefact |
//! |---|---|
//! | `fig02` | Fig. 2 — epochs & cross-thread deps per 1 ms |
//! | `fig03` | Fig. 3 — % cycles persist buffers blocked (HOPS) |
//! | `fig08` | Fig. 8 — speedups over the Intel baseline, plus the §VII-A summary |
//! | `fig09` | Fig. 9 — PM write operations, ASAP vs HOPS |
//! | `fig10` | Fig. 10 — core-count sensitivity |
//! | `fig11` | Fig. 11 — PB occupancy avg / p99 |
//! | `fig12` | Fig. 12 — RT max occupancy, 4 vs 8 threads |
//! | `fig13` | Fig. 13 — system write-bandwidth utilization |
//! | `tab05` | Table V — hardware cost (analytical CACTI substitute, [`hwcost`]) |
//! | `ablations` | DESIGN.md ablations (RT/PB size, NVM latency, MC count) |
//!
//! # Example
//!
//! ```
//! use asap_harness::{run_once, RunSpec};
//! use asap_sim_core::{Flavor, ModelKind, SimConfig};
//! use asap_workloads::WorkloadKind;
//!
//! let spec = RunSpec {
//!     config: SimConfig::paper(),
//!     model: ModelKind::Asap,
//!     flavor: Flavor::Release,
//!     workload: WorkloadKind::Queue,
//!     ops_per_thread: 30,
//!     seed: 1,
//! };
//! let out = run_once(&spec);
//! assert!(out.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod args;
pub mod cache;
pub mod exec;
pub mod experiments;
pub mod hwcost;
pub mod pool;
mod report;
mod runner;
pub mod traffic;

pub use report::Table;
pub use runner::{
    prewarm_workloads, run_once, run_race_check, run_roi, run_window, workload_bank_stats,
    RunManifest, RunOutcome, RunSpec,
};

/// Print a wall-clock footer for a sweep binary on stderr (stdout stays
/// clean for piped table output), seeding per-figure timing visibility.
pub fn cli_footer(started: std::time::Instant) {
    eprintln!(
        "# wall-clock {:.3?} on {} worker(s)",
        started.elapsed(),
        pool::num_workers()
    );
}

/// Emit a result table per the shared CLI convention: markdown to stdout,
/// plus CSV when `--csv` was passed.
pub fn cli_emit(table: &Table) {
    println!("{}", table.to_markdown());
    if std::env::args().any(|a| a == "--csv") {
        println!("{}", table.to_csv());
    }
}
