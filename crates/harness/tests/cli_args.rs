//! End-to-end CLI argument handling for the `asap_sim` binary.
//!
//! Pins the satellite fix for silent flag swallowing: a malformed
//! numeric value used to parse to `None` and quietly fall back to the
//! default (`--crash-at 12x` ran with *no crash at all*). Now every
//! malformed value must exit non-zero with a diagnostic naming the flag
//! and the offending value.

use std::process::{Command, Output};

fn asap_sim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_asap_sim"))
        .args(args)
        .output()
        .expect("spawn asap_sim")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn malformed_threads_exits_nonzero_naming_flag_and_value() {
    let out = asap_sim(&["--threads", "banana"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(
        err.contains("--threads"),
        "diagnostic must name the flag: {err}"
    );
    assert!(
        err.contains("banana"),
        "diagnostic must name the value: {err}"
    );
}

#[test]
fn malformed_crash_at_exits_nonzero() {
    // The original bug: "12x" silently disabled the crash entirely.
    let out = asap_sim(&["--crash-at", "12x"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    let err = stderr_of(&out);
    assert!(err.contains("--crash-at"), "{err}");
    assert!(err.contains("12x"), "{err}");
}

#[test]
fn unknown_model_exits_nonzero() {
    let out = asap_sim(&["--model", "nope"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--model"));
}

#[test]
fn flag_missing_its_value_exits_nonzero() {
    let out = asap_sim(&["--ops"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("requires a value"));
}

#[test]
fn valid_tiny_run_succeeds_and_prints_manifest() {
    let out = asap_sim(&[
        "--workload",
        "queue",
        "--threads",
        "2",
        "--ops",
        "10",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("run complete"), "{stdout}");
    let err = stderr_of(&out);
    assert!(err.contains("# manifest {"), "manifest line missing: {err}");
    let events = err
        .lines()
        .find_map(|l| l.strip_prefix("# events "))
        .unwrap_or_else(|| panic!("events line missing: {err}"));
    let (count, rest) = events.split_once(" (").expect("count and detail");
    let count: u64 = count.parse().unwrap();
    assert!(count > 0, "{events}");
    let (bypassed, rate) = rest
        .split_once(" steps bypassed the queue, ")
        .expect("bypass count and rate");
    assert!(bypassed.parse::<u64>().unwrap() < count, "{events}");
    assert!(rate.ends_with("M events/s)"), "{events}");
    assert!(
        err.find("# events ").unwrap() < err.find("# manifest").unwrap(),
        "events line must precede the manifest: {err}"
    );
    assert!(err.contains("\"workload\":\"queue\""), "{err}");
    assert!(err.contains("\"seed\":3"), "{err}");
    assert!(err.contains("\"config_digest\":\""), "{err}");
}
