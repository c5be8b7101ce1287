//! `perfbench`: host time of the reproduction's four user-facing flows,
//! end to end and layer by layer.
//!
//! ```text
//! perfbench --workload fig08|traffic|crash_explore|crash_check
//!           [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//!           [--expected FILE] [--spans-out FILE]
//! ```
//!
//! A workload has a few inputs fixed by the seed; a repetition runs each
//! input's timed phase once. With `--trace 0` repetitions continue for
//! `--seconds` and the run reports the end-to-end metrics, each a median
//! over every input of every repetition: wall and CPU seconds, peak
//! RSS, and set-up seconds (median over fresh processes). With
//! `--trace 1` each input runs untraced, then through a traced replica,
//! and the run reports the per-layer metrics derived from the first
//! repetition's spans and counters.
//!
//! Every run checks the simulated outputs: invariants at any seed, a
//! digest of the user-visible output against `expected_digests.txt` at
//! the seeds listed there, repetitions equal to the first, and traced
//! replicas equal to the untraced run. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod flows;
mod spans;

use asap_harness::cache::fnv1a;
use flows::{Checks, Counters, COMPONENT_METRICS};
use flows::{CrashCheck, CrashExplore, Fig08, Flow, Traffic};
use spans::{
    median, self_time_by_layer, tail, Span, Tracer, LAYERS, ORACLE, POOL, RUNNER, SIM, WORKLOADS,
};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};
use std::time::Instant;

/// Fresh processes timed for `setup_s` before each input's timed phase.
/// Set-up takes microseconds to milliseconds, so a steady median needs
/// many samples, spread over the run like the timed phases are.
const SETUP_BATCH: usize = 10;

/// Most pool workers a flow may use (fewer on a host with fewer CPUs).
const MAX_WORKERS: usize = 2;

/// Workloads and their default seeds, at which `expected_digests.txt`
/// records their output digests.
const DEFAULT_SEEDS: [(&str, u64); 4] = [
    ("fig08", 42),
    ("traffic", 42),
    ("crash_explore", 7),
    ("crash_check", 42),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    expected: PathBuf,
    spans_out: Option<PathBuf>,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        tiny: false,
        expected: PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected_digests.txt")),
        spans_out: None,
        setup_only: false,
    };
    let mut seed = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => seed = Some(parse(&flag, &value()?)?),
            "--seconds" => a.seconds = parse(&flag, &value()?)?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--expected" => a.expected = PathBuf::from(value()?),
            "--spans-out" => a.spans_out = Some(PathBuf::from(value()?)),
            "--tiny" => a.tiny = true,
            "--setup-only" => a.setup_only = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let default_seed = DEFAULT_SEEDS
        .iter()
        .find(|(w, _)| *w == a.workload)
        .map(|&(_, s)| s)
        .ok_or_else(|| {
            format!(
                "--workload must be one of fig08, traffic, crash_explore, crash_check; got {:?}",
                a.workload
            )
        })?;
    a.seed = seed.unwrap_or(default_seed);
    if !(a.seconds > 0.0 && a.seconds <= 120.0) {
        return Err(format!("--seconds must be in (0, 120], got {}", a.seconds));
    }
    Ok(a)
}

fn parse<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("invalid value {v:?} for {flag}"))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        exit(2);
    });
    let (seed, tiny) = (args.seed, args.tiny);
    match args.workload.as_str() {
        "fig08" => bench(|| Fig08::new(seed, tiny), &args),
        "traffic" => bench(|| Traffic::new(seed, tiny), &args),
        "crash_explore" => bench(|| CrashExplore::new(seed, tiny), &args),
        _ => bench(|| CrashCheck::new(seed, tiny), &args),
    }
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Set-up is building the flow's inputs (`new`) plus [`Flow::setup`].
fn bench<F: Flow>(new: impl Fn() -> F, a: &Args) {
    if a.setup_only {
        let t0 = Instant::now();
        new().setup(&Tracer::new());
        println!("setup_s {}", t0.elapsed().as_secs_f64());
        return;
    }
    let mut flow = new();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = flow.workers(nproc.min(MAX_WORKERS));
    let fp = fingerprint(a, workers);
    println!("fingerprint {fp}");
    let mut checks = Checks::default();
    let mut outputs = Outputs {
        expected: expected_digest(a, &mut checks),
        first: None,
    };
    let metrics = if a.trace {
        traced_run(&mut flow, a, workers, &mut outputs, &mut checks, &fp)
    } else {
        untraced_run(&mut flow, a, workers, &mut outputs, &mut checks)
    };

    for n in &checks.notes {
        eprintln!("perfbench: check failed: {n}");
    }
    for m in &metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    println!(
        "failed_frac {} ({} of {} checks)",
        ratio(checks.failed as f64, checks.attempted as f64),
        checks.failed,
        checks.attempted
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

fn scale(a: &Args) -> &'static str {
    if a.tiny {
        "tiny"
    } else {
        "full"
    }
}

/// The expected digest of this workload, scale and seed, if the
/// committed file lists one. A missing or malformed file fails a check.
fn expected_digest(a: &Args, checks: &mut Checks) -> Option<u64> {
    let text = match std::fs::read_to_string(&a.expected) {
        Ok(t) => t,
        Err(e) => {
            checks.check(false, || {
                format!("cannot read {}: {e}", a.expected.display())
            });
            return None;
        }
    };
    let mut found = None;
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [w, s, seed, d] => seed
                .parse::<u64>()
                .ok()
                .zip(u64::from_str_radix(d, 16).ok())
                .map(|(seed, d)| (*w, *s, seed, d)),
            _ => None,
        };
        match parsed {
            Some((w, s, seed, d)) if w == a.workload && s == scale(a) && seed == a.seed => {
                found = Some(d)
            }
            Some(_) => {}
            None => checks.check(false, || format!("malformed digest line {line:?}")),
        }
    }
    found
}

/// What the run's outputs are checked against.
struct Outputs<O> {
    /// Expected digest of one repetition's outputs, if listed.
    expected: Option<u64>,
    /// The first repetition's outputs; later ones must equal them.
    first: Option<Vec<O>>,
}

/// Check one repetition's outputs: invariants, the expected digest on the
/// first repetition, and equality with the first thereafter.
fn check_round<F: Flow>(
    flow: &F,
    outs: Vec<F::Out>,
    o: &mut Outputs<F::Out>,
    a: &Args,
    checks: &mut Checks,
) {
    for (i, out) in outs.iter().enumerate() {
        flow.invariants(i, out, checks);
    }
    match &o.first {
        None => {
            let text: String = outs
                .iter()
                .enumerate()
                .map(|(i, out)| flow.output_text(i, out))
                .collect();
            let got = fnv1a(&text);
            println!("digest {} {} {} {got:016x}", a.workload, scale(a), a.seed);
            if let Some(want) = o.expected {
                checks.check(got == want, || {
                    format!("output digest {got:016x}, expected {want:016x}")
                });
            }
            o.first = Some(outs);
        }
        Some(first) => checks.check(outs == *first, || {
            "a repetition's outputs differ from the first's".into()
        }),
    }
}

/// Whether to start another repetition (every input once): only if it
/// would end within `--seconds`. The first always runs.
fn more_rounds(start: Instant, rounds: &[f64], a: &Args) -> bool {
    start.elapsed().as_secs_f64() + median(rounds) <= a.seconds
}

fn untraced_run<F: Flow>(
    flow: &mut F,
    a: &Args,
    workers: usize,
    o: &mut Outputs<F::Out>,
    checks: &mut Checks,
) -> Vec<Metric> {
    flow.setup(&Tracer::new());
    let mut setup = Vec::new();
    let (mut walls, mut cpus, mut rsses, mut rounds) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    loop {
        let r0 = Instant::now();
        let mut outs = Vec::with_capacity(flow.inputs());
        for i in 0..flow.inputs() {
            setup.extend((0..SETUP_BATCH).map(|_| setup_in_fresh_process(a)));
            reset_peak_rss();
            let (c0, t0) = (cpu_secs(), Instant::now());
            outs.push(black_box(flow.run(i, workers)));
            let (wall, cpu, rss) = (t0.elapsed().as_secs_f64(), cpu_secs() - c0, peak_rss_mb());
            println!("input {i} wall_s {wall} cpu_s {cpu} peak_rss_mb {rss}");
            walls.push(wall);
            cpus.push(cpu);
            rsses.push(rss);
        }
        rounds.push(r0.elapsed().as_secs_f64());
        check_round(flow, outs, o, a, checks);
        if !more_rounds(start, &rounds, a) {
            break;
        }
    }
    println!("repetitions {} of {} inputs", rounds.len(), flow.inputs());
    vec![
        metric("wall_s", median(&walls), "s"),
        metric("cpu_s", median(&cpus), "s"),
        metric("setup_s", median(&setup), "s"),
        metric("peak_rss_mb", median(&rsses), "MB"),
    ]
}

/// What the first traced repetition leaves for the per-layer metrics.
struct Kept {
    counters: Counters,
    /// Traced wall seconds, summed over inputs.
    wall: f64,
    /// `(allocations, bytes)` during the traced calls.
    alloc: (u64, u64),
    spans: Vec<Span>,
}

fn traced_run<F: Flow>(
    flow: &mut F,
    a: &Args,
    workers: usize,
    o: &mut Outputs<F::Out>,
    checks: &mut Checks,
    fp: &str,
) -> Vec<Metric> {
    // Spans of set-up and of the first traced repetition are kept and
    // reported; later repetitions only refine the tracing overhead.
    let tr = Tracer::new();
    flow.setup(&tr);
    let (mut plain, mut traced, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let mut kept: Option<Kept> = None;
    let start = Instant::now();
    loop {
        let r0 = Instant::now();
        let scratch = Tracer::new();
        let rep_tr = if kept.is_none() { &tr } else { &scratch };
        let mut k = Kept {
            counters: Counters::default(),
            wall: 0.0,
            alloc: (0, 0),
            spans: Vec::new(),
        };
        let mut outs = Vec::with_capacity(flow.inputs());
        for i in 0..flow.inputs() {
            let t0 = Instant::now();
            let out = black_box(flow.run(i, workers));
            plain.push(t0.elapsed().as_secs_f64());

            let (alloc0, t0) = (alloc_counters(), Instant::now());
            let (replica, c) = black_box(flow.traced(i, workers, rep_tr));
            let wall = t0.elapsed().as_secs_f64();
            let alloc1 = alloc_counters();
            traced.push(wall);
            k.wall += wall;
            k.alloc = (
                k.alloc.0 + alloc1.0 - alloc0.0,
                k.alloc.1 + alloc1.1 - alloc0.1,
            );
            k.counters.merge(&c);
            checks.check(replica == out, || {
                format!("input {i}: the traced replica's output differs from the untraced run's")
            });
            outs.push(out);
        }
        rounds.push(r0.elapsed().as_secs_f64());
        check_round(flow, outs, o, a, checks);
        if kept.is_none() {
            k.spans = tr.spans();
            kept = Some(k);
        }
        if !more_rounds(start, &rounds, a) {
            break;
        }
    }
    println!(
        "repetitions {} of {} inputs, each untraced then traced",
        rounds.len(),
        flow.inputs()
    );
    let k = kept.expect("at least one traced repetition");
    if let Some(path) = &a.spans_out {
        write_spans(path, fp, &k.spans);
    }
    let overhead = ratio(median(&traced), median(&plain)) - 1.0;
    layer_metrics(&k, workers, overhead)
}

fn write_spans(path: &Path, fp: &str, spans: &[Span]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).expect("create the spans directory");
    }
    let text = format!(
        "{{\"fingerprint\": {fp},\n\"spans\": {}}}\n",
        spans::to_json(spans)
    );
    std::fs::write(path, text).expect("write the spans file");
    println!("spans {} written to {}", spans.len(), path.display());
}

/// Set-up spans that generate programs (as opposed to request banks).
const GEN_SPANS: [&str; 3] = ["prewarm_workloads", "make_workload_shared", "make_workload"];

fn layer_metrics(k: &Kept, workers: usize, overhead: f64) -> Vec<Metric> {
    let (spans, c, wall, alloc) = (&k.spans, &k.counters, k.wall, k.alloc);
    let secs = |pred: &dyn Fn(&Span) -> bool| -> Vec<f64> {
        spans.iter().filter(|s| pred(s)).map(Span::secs).collect()
    };
    let sum = |v: &[f64]| v.iter().fold(0.0, |a, b| a + b);
    let ms = |v: Vec<f64>| -> Vec<f64> { v.into_iter().map(|x| x * 1e3).collect() };

    let legs = ms(secs(&|s| s.layer == RUNNER));
    let (leg_tail_pct, leg_tail) = tail(&legs);
    let fan_out = sum(&secs(&|s| s.layer == POOL));
    let busy = sum(&legs) / 1e3;
    let workers_used = workers.min(legs.len()).max(1) as f64;
    let gen = sum(&secs(&|s| {
        s.parent.is_none() && s.layer == WORKLOADS && GEN_SPANS.contains(&s.name)
    }));
    let banks = sum(&secs(&|s| s.name == "request_bank"));
    let builds = ms(secs(&|s| s.layer == SIM && s.name == "build"));
    let run_s = sum(&secs(&|s| s.layer == SIM && s.name.starts_with("run_")));
    let mcycles = c.sim_cycles as f64 / 1e6;
    let checks = ms(secs(&|s| s.layer == ORACLE));
    let (check_tail_pct, check_tail) = tail(&checks);
    let oracle_busy = sum(&checks) / 1e3;
    let oracle_wall = spans::union_ns(
        spans
            .iter()
            .filter(|s| s.layer == ORACLE)
            .map(|s| (s.start_ns, s.end_ns))
            .collect(),
    ) as f64
        / 1e9;
    let n_checks = checks.len() as f64;

    let mut m = vec![
        metric("runner.legs", legs.len() as f64, "count"),
        metric("runner.leg_ms_p50", median(&legs), "ms"),
        metric("runner.leg_ms_tail", leg_tail, "ms"),
        metric("runner.leg_ms_tail_pct", leg_tail_pct, "pct"),
        metric("pool.busy_s", busy, "s"),
        metric(
            "pool.idle_frac",
            1.0 - ratio(busy, workers_used * fan_out),
            "frac",
        ),
        metric("workloads.gen_s", gen, "s"),
        metric("traffic.bank_gen_s", banks, "s"),
        metric("sim.build_ms_p50", median(&builds), "ms"),
        metric("sim.run_s", run_s, "s"),
        metric("sim.mcycles", mcycles, "Mcycles"),
        metric("sim.mcycles_per_s", ratio(mcycles, run_s), "Mcycles/s"),
        metric(
            "traffic.requests_per_s",
            ratio(c.requests as f64, run_s),
            "1/s",
        ),
        metric(
            "alloc.bytes_per_leg",
            ratio(alloc.1 as f64, legs.len() as f64),
            "bytes",
        ),
        metric(
            "alloc.count_per_leg",
            ratio(alloc.0 as f64, legs.len() as f64),
            "count",
        ),
        metric("oracle.checks", n_checks, "count"),
        metric("oracle.check_ms_p50", median(&checks), "ms"),
        metric("oracle.check_ms_tail", check_tail, "ms"),
        metric("oracle.check_ms_tail_pct", check_tail_pct, "pct"),
        metric("oracle.busy_s", oracle_busy, "s"),
        metric("oracle.share", ratio(oracle_wall, wall), "frac"),
        metric(
            "oracle.epochs_per_check",
            ratio(c.oracle_epochs as f64, n_checks),
            "count",
        ),
        metric(
            "oracle.ns_per_epoch",
            ratio(oracle_busy * 1e9, c.oracle_epochs as f64),
            "ns",
        ),
        metric("oracle.undo_applied", c.undo_applied as f64, "count"),
        metric(
            "journal.entries_at_check",
            ratio(c.journal_entries as f64, n_checks),
            "count",
        ),
    ];
    for ((name, unit), v) in COMPONENT_METRICS.iter().zip(c.components.0) {
        m.push(metric(*name, v as f64, unit));
    }
    let (raw, distinct, checked, end_cycle) = (
        c.raw_points,
        c.distinct_states,
        c.points_checked,
        c.end_cycles,
    );
    let explore = raw > 0;
    let pass1 = sum(&secs(&|s| s.name == "pass1"));
    let replay = if explore {
        sum(&secs(&|s| s.layer == SIM && s.name == "run_for"))
    } else {
        0.0
    };
    m.extend([
        metric("explore.pass1_s", pass1, "s"),
        metric("explore.verify_s", if explore { fan_out } else { 0.0 }, "s"),
        metric("explore.replay_s", replay, "s"),
        metric(
            "explore.replay_ratio",
            if explore {
                ratio(c.sim_cycles as f64, end_cycle as f64)
            } else {
                0.0
            },
            "frac",
        ),
        metric("explore.raw_points", raw as f64, "count"),
        metric("explore.checked", checked as f64, "count"),
        metric(
            "explore.check_ratio",
            ratio(checked as f64, distinct as f64),
            "frac",
        ),
        metric("trace.overhead_frac", overhead, "frac"),
    ]);
    let self_times = self_time_by_layer(spans);
    for layer in LAYERS {
        m.push(metric(format!("self_s.{layer}"), self_times[layer], "s"));
    }
    m
}

/// Time the flow's set-up in a fresh copy of this program, so the
/// process-wide program and request banks start empty.
fn setup_in_fresh_process(a: &Args) -> f64 {
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        &a.workload,
        "--seed",
        &a.seed.to_string(),
        "--setup-only",
    ]);
    if a.tiny {
        cmd.arg("--tiny");
    }
    let out = cmd.output().expect("run the set-up process");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "set-up process failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    text.lines()
        .find_map(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.trim().parse().ok())
        .expect("set-up process prints setup_s")
}

/// User plus system CPU seconds of this process, all threads, from
/// `/proc/self/stat` (clock ticks of 1/100 s).
fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name start at field 3.
    let rest = &stat[stat.rfind(')').expect("comm field") + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = f[11].parse::<u64>().expect("utime") + f[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Restart the peak-resident-set count (`VmHWM`) from the current
/// resident set, so [`peak_rss_mb`] reports the peak of what follows.
/// Where the kernel refuses, the peak stays process-wide.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .expect("VmHWM in /proc/self/status")
}

/// Process-wide `(allocations, bytes)`; zeros without `alloc-count`.
fn alloc_counters() -> (u64, u64) {
    #[cfg(feature = "alloc-count")]
    {
        asap_bench::alloc_count::counters()
    }
    #[cfg(not(feature = "alloc-count"))]
    {
        (0, 0)
    }
}

/// Host fingerprint printed with every result, as a JSON object.
fn fingerprint(a: &Args, workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stdout = |cmd: &mut Command| {
        cmd.output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let rustc = stdout(Command::new("rustc").arg("--version")).unwrap_or_else(|| "unknown".into());
    // Only ask git inside a git checkout, never a parent directory's.
    let commit = if Path::new(".git").exists() {
        stdout(Command::new("git").args(["rev-parse", "HEAD"]))
    } else {
        None
    }
    .unwrap_or_else(|| "none".into());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"tiny\": {}, \"nproc\": {nproc}, \"workers\": {}, \"rustc\": \"{rustc}\", \"git_commit\": \"{commit}\", \"alloc_count\": {}}}",
        a.workload,
        a.seed,
        a.tiny,
        workers,
        cfg!(feature = "alloc-count")
    )
}
