//! End-to-end tests of the `asap_sweep` binary: the table must be
//! byte-identical however the legs were executed — one worker, several
//! workers, from a warm cache, sharded then assembled — and the flag
//! contract must fail fast on bad usage.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sweep"))
        .args(args)
        .output()
        .expect("spawn asap_sweep")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("asap-sweep-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// The quick fig08 sweep at a tiny op count on one worker, cheap on
/// small CI machines.
const QUICK: &[&str] = &["fig08", "--ops", "8", "--workers", "1"];

#[test]
fn table_is_byte_identical_across_worker_counts() {
    let one = sweep(QUICK);
    assert!(one.status.success(), "stderr: {}", stderr_of(&one));

    let three = sweep(&["fig08", "--ops", "8", "--workers", "3"]);
    assert!(three.status.success(), "stderr: {}", stderr_of(&three));
    assert_eq!(
        stdout_of(&one),
        stdout_of(&three),
        "the table must not depend on --workers"
    );
}

#[test]
fn warm_cache_rerun_hits_every_leg_and_matches_bytes() {
    let dir = tmpdir("warm");
    let dir_s = dir.to_str().unwrap();
    let stats = dir.join("stats.json");
    let stats_s = stats.to_str().unwrap();
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s, "--cache-stats", stats_s]);

    let cold = sweep(&argv);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    let cold_stats = std::fs::read_to_string(&stats).unwrap();
    assert!(cold_stats.contains("\"cached\":0"), "{cold_stats}");
    assert!(cold_stats.contains("\"complete\":true"), "{cold_stats}");

    let warm = sweep(&argv);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    assert_eq!(stdout_of(&cold), stdout_of(&warm));
    let warm_stats = std::fs::read_to_string(&stats).unwrap();
    assert!(warm_stats.contains("\"simulated\":0"), "{warm_stats}");
    let field = |name: &str, json: &str| -> u64 {
        let tail = &json[json.find(&format!("\"{name}\":")).unwrap() + name.len() + 3..];
        tail[..tail.find([',', '}']).unwrap()].parse().unwrap()
    };
    assert_eq!(
        field("cached", &warm_stats),
        field("legs", &warm_stats),
        "every leg must hit on the warm run: {warm_stats}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_then_resume_assemble_the_reference_table() {
    let reference = sweep(QUICK);
    assert!(reference.status.success());

    let dir = tmpdir("shard");
    let dir_s = dir.to_str().unwrap();

    // First shard: half the legs are missing, so the table is suppressed.
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s, "--shard", "0/2"]);
    let out = sweep(&argv);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(
        !stdout_of(&out).contains('|'),
        "a half-complete shard must suppress the table"
    );
    assert!(stderr_of(&out).contains("partial sweep"));

    // Second shard over the same cache dir: its own legs simulate, the
    // first shard's legs hit the cache — the full table comes out.
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s, "--shard", "1/2"]);
    let out = sweep(&argv);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert_eq!(
        stdout_of(&reference),
        stdout_of(&out),
        "the last shard assembles the reference table from the shared cache"
    );
    let mut argv = QUICK.to_vec();
    argv.extend(["--cache-dir", dir_s, "--resume"]);
    let full = sweep(&argv);
    assert!(full.status.success(), "stderr: {}", stderr_of(&full));
    assert_eq!(
        stdout_of(&reference),
        stdout_of(&full),
        "shards + --resume must reassemble the exact table"
    );
    assert!(
        stderr_of(&full).contains("+ 0 simulated"),
        "the assembly pass must answer entirely from cache: {}",
        stderr_of(&full)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quick Figure 2: 28 windowed legs on two workers.
const FIG02: &[&str] = &["fig02", "--workers", "2"];

#[test]
fn fig02_shard_resume_and_warm_rerun_go_through_the_cache() {
    // Figure 2 used to parse --shard and --cache-dir and ignore both:
    // every run printed the whole table and no cache dir was created.
    let reference = sweep(FIG02);
    assert!(
        reference.status.success(),
        "stderr: {}",
        stderr_of(&reference)
    );
    assert!(stdout_of(&reference).contains("### Figure 2"));

    let dir = tmpdir("fig02");
    let dir_s = dir.to_str().unwrap();
    let mut argv = FIG02.to_vec();
    argv.extend(["--cache-dir", dir_s, "--shard", "0/2"]);
    let out = sweep(&argv);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(
        !stdout_of(&out).contains('|'),
        "a half-complete shard must suppress the table"
    );
    assert!(stderr_of(&out).contains("partial sweep"));
    assert!(dir.is_dir(), "the shard must fill the cache dir");

    // Assemble: the other shard's 14 legs simulate, the journaled 14
    // answer from the cache, including the windowed (`alldone=0`)
    // outcomes through the codec.
    let mut argv = FIG02.to_vec();
    argv.extend(["--cache-dir", dir_s, "--resume"]);
    let out = sweep(&argv);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert_eq!(
        stdout_of(&reference),
        stdout_of(&out),
        "shard + --resume must reassemble the exact table"
    );
    assert!(
        stderr_of(&out).contains("14 cached + 14 simulated"),
        "{}",
        stderr_of(&out)
    );

    let stats = dir.join("stats.json");
    let mut argv = FIG02.to_vec();
    argv.extend([
        "--cache-dir",
        dir_s,
        "--cache-stats",
        stats.to_str().unwrap(),
    ]);
    let warm = sweep(&argv);
    assert!(warm.status.success(), "stderr: {}", stderr_of(&warm));
    assert_eq!(stdout_of(&reference), stdout_of(&warm));
    let warm_stats = std::fs::read_to_string(&stats).unwrap();
    assert!(warm_stats.contains("\"simulated\":0"), "{warm_stats}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traffic_subcommand_runs_and_caches() {
    let dir = tmpdir("traffic");
    let dir_s = dir.to_str().unwrap();
    let argv = [
        "traffic",
        "--requests",
        "64",
        "--gap",
        "400",
        "--workers",
        "1",
        "--cache-dir",
        dir_s,
    ];
    let cold = sweep(&argv);
    assert!(cold.status.success(), "stderr: {}", stderr_of(&cold));
    assert!(stdout_of(&cold).contains("p99"), "latency table expected");
    let warm = sweep(&argv);
    assert!(warm.status.success());
    assert_eq!(stdout_of(&cold), stdout_of(&warm));
    assert!(stderr_of(&warm).contains("+ 0 simulated"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_exits_two() {
    for argv in [
        vec![],                           // no sweep name
        vec!["fig99"],                    // unknown sweep
        vec!["fig08", "traffic"],         // traffic runs alone
        vec!["fig08", "--shard", "2/2"],  // index out of range
        vec!["fig08", "--resume"],        // resume without cache
        vec!["fig08", "--ops", "banana"], // malformed number
        vec!["fig10", "--ops", "0"],      // no ops: 0/0 speedups
    ] {
        let out = sweep(&argv);
        assert_eq!(
            out.status.code(),
            Some(2),
            "argv {argv:?}: {}",
            stderr_of(&out)
        );
    }
}
