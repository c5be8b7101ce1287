//! Regenerates Figure 8: speedup over baseline, plus the §VII-A summary.
//! Runs through the sweep executor, so the shared flags all work here:
//! `--threads N`/`ASAP_THREADS` pins the in-process pool, `--cache-dir
//! DIR` makes re-runs incremental, `--resume`/`--shard i/n` continue or
//! split a sweep — the table is byte-identical in every case. A wall-clock footer and the sweep
//! report (leg/cache-hit counts) go to stderr.
use asap_harness::args::SweepArgs;
use asap_harness::exec::{complete_outcomes, sweep_run_once};
use asap_harness::experiments::{fig08_specs, fig08_summary, fig08_table_from};

fn main() {
    let t0 = std::time::Instant::now();
    let sa = SweepArgs::init();
    let specs = fig08_specs(sa.scale());
    let (results, report) = sweep_run_once("fig08", &specs, &sa);
    if let Some(outs) = complete_outcomes(results) {
        let t = fig08_table_from(&outs);
        asap_harness::cli_emit(&t);
        asap_harness::cli_emit(&fig08_summary(&t));
    } else {
        eprintln!("# partial sweep (sharded): table suppressed");
    }
    eprintln!("{}", report.summary());
    asap_harness::cli_footer(t0);
}
