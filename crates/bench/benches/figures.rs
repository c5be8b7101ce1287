//! Benches regenerating every entry of the figure catalogue (the paper's
//! figures, Table V and the DESIGN.md ablations) at a reduced
//! (bench-friendly) scale. Each bench body *is* the full experiment for
//! that entry, legs and tables; the printed tables for EXPERIMENTS.md
//! come from `asap_sweep all --full`.

use asap_bench::Bench;
use asap_harness::experiments::{figure_tables, ExperimentScale, CATALOGUE};
use asap_sim_core::Cycle;

fn bench_scale() -> ExperimentScale {
    ExperimentScale {
        ops: 15,
        window: Cycle(30_000),
        seed: 42,
    }
}

fn main() {
    let b = Bench::new().sample_size(10);
    for f in &CATALOGUE {
        b.run(f.name, || figure_tables(f.name, bench_scale()));
    }
}
