//! `asap_sweep`: regenerates the paper's figures and tables, and the
//! traffic sweep, incrementally and resumably.
//!
//! ```text
//! asap_sweep <figure>…|all|traffic [--full] [--seed N] [--ops N]
//!            [--requests N] [--gap CYCLES] [--workers N] [--cache-dir DIR]
//!            [--resume] [--shard i/n] [--progress] [--csv] [--cache-stats PATH]
//! ```
//!
//! Figures are the entries of the catalogue
//! ([`asap_harness::experiments::CATALOGUE`]): `fig02`, `fig03`, `fig08`,
//! `fig09`, `fig10`, `fig11`, `fig12`, `fig13`, `tab05`, `ablations`, or
//! `all` of them. The union of the chosen figures' legs runs as one sweep
//! through the executor layer ([`asap_harness::exec`]), which simulates
//! each distinct leg once and hands its outcome to every figure that
//! needs it; the tables then print in catalogue order. `--ops N`
//! overrides the ops per thread of every figure's complete-run legs.
//!
//! With `--cache-dir`, completed legs persist to a digest-keyed outcome
//! cache and re-runs only simulate changed legs; the rest run on the
//! in-process worker pool (`--workers N`); `--resume` continues a killed
//! sweep; `--shard i/n` runs one machine's slice. However the legs were
//! executed — at any worker count, cached, resumed — the tables on
//! stdout are byte-identical, because results assemble in input order
//! and cached outcomes decode exactly.
//!
//! The sweep report (leg counts, cache hits, folded duplicates, wall
//! time) goes to stderr; `--cache-stats PATH` additionally writes it as
//! JSON for CI gates. Under `--shard` the tables are suppressed (legs
//! are missing by design): run every shard into a shared `--cache-dir`,
//! then assemble with a final `--resume` run.

use asap_harness::args::{self, SweepArgs};
use asap_harness::exec::{complete_outcomes, sweep_traffic, SweepReport};
use asap_harness::experiments::{run_figures, CATALOGUE};
use asap_harness::traffic::{table_from_runs, TrafficScale};

fn usage() -> ! {
    println!(
        "usage: asap_sweep <figure>...|all|traffic [--full] [--seed N] [--ops N] \
         [--requests N] [--gap CYCLES] [--workers N] [--cache-dir DIR] \
         [--resume] [--shard i/n] [--progress] [--csv] [--cache-stats PATH]\n\
         sweeps: {}",
        known()
    );
    std::process::exit(0);
}

/// The names the first arguments may take.
fn known() -> String {
    let names: Vec<&str> = CATALOGUE.iter().map(|f| f.name).collect();
    format!("{} | all, or traffic alone", names.join(" | "))
}

fn finish(report: &SweepReport, argv: &[String], t0: std::time::Instant) {
    eprintln!("{}", report.summary());
    if let Some(path) = args::arg_value(argv, "--cache-stats") {
        if let Err(e) = std::fs::write(&path, report.to_json()) {
            eprintln!("error: cannot write --cache-stats {path}: {e}");
            std::process::exit(2);
        }
    }
    if !report.complete {
        eprintln!(
            "# partial sweep (sharded): tables suppressed; run the other shards \
             into this --cache-dir, then assemble with --resume"
        );
    }
    asap_harness::cli_footer(t0);
}

fn main() {
    let t0 = std::time::Instant::now();
    let argv: Vec<String> = std::env::args().collect();
    if args::has_flag(&argv, "--help") || args::has_flag(&argv, "-h") {
        usage();
    }
    let names: Vec<&str> = argv[1..]
        .iter()
        .map(String::as_str)
        .take_while(|a| !a.starts_with('-'))
        .collect();
    if names.is_empty() {
        eprintln!("error: asap_sweep needs a sweep name: {}", known());
        std::process::exit(2);
    }
    let traffic = names == ["traffic"];
    let unknown = names
        .iter()
        .find(|&&n| n != "all" && CATALOGUE.iter().all(|f| f.name != n));
    if let (false, Some(bad)) = (traffic, unknown) {
        eprintln!("error: unknown sweep '{bad}'; known: {}", known());
        std::process::exit(2);
    }
    let sa = SweepArgs::init();

    if traffic {
        let mut scale = if sa.full {
            TrafficScale::full()
        } else {
            TrafficScale::quick()
        };
        if let Some(s) = sa.seed {
            scale.seed = s;
        }
        if let Some(n) = args::parse_arg(&argv, "--requests") {
            scale.requests = n;
        }
        if let Some(gap) = args::parse_arg::<u64>(&argv, "--gap") {
            if gap == 0 {
                eprintln!("error: --gap must be at least one cycle");
                std::process::exit(2);
            }
            scale.gaps = vec![gap];
        }
        let specs = scale.specs();
        let (results, report) = sweep_traffic("traffic", &specs, &sa);
        if let Some(outs) = complete_outcomes(results) {
            asap_harness::cli_emit(&table_from_runs(&specs, &outs));
        }
        finish(&report, &argv, t0);
        return;
    }

    let mut scale = sa.scale();
    if let Some(ops) = args::parse_arg(&argv, "--ops") {
        if ops == 0 {
            eprintln!("error: --ops must be at least 1");
            std::process::exit(2);
        }
        scale.ops = ops;
    }
    let all = names.contains(&"all");
    let figs: Vec<_> = CATALOGUE
        .iter()
        .filter(|f| all || names.contains(&f.name))
        .collect();
    let label = if all {
        "all".to_string()
    } else {
        figs.iter().map(|f| f.name).collect::<Vec<_>>().join("+")
    };
    let (tables, report) = run_figures(&label, &figs, scale, &sa);
    for t in tables.iter().flatten() {
        asap_harness::cli_emit(t);
    }
    finish(&report, &argv, t0);
}
