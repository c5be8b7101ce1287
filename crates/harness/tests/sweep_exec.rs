//! Library-level tests of the sweep executor ([`asap_harness::exec`]):
//! cache correctness (hit ⇒ byte-identical results, corruption ⇒
//! re-run), resume after a partial run, and shard composition. The
//! binary's flag handling is covered end-to-end by `asap_sweep_cli.rs`.

use asap_harness::args::{Shard, SweepArgs};
use asap_harness::cache::{encode_outcome, run_spec_digest, OutcomeCache};
use asap_harness::exec::{sweep_legs, sweep_traffic, Leg, SweepReport};
use asap_harness::traffic::TrafficScale;
use asap_harness::{RunOutcome, RunSpec};
use asap_sim_core::{Cycle, Flavor, ModelKind, SimConfig};
use asap_workloads::WorkloadKind;
use std::path::{Path, PathBuf};

/// A four-leg sweep small enough to simulate in milliseconds.
fn tiny_specs() -> Vec<RunSpec> {
    [
        (WorkloadKind::Queue, 42),
        (WorkloadKind::Queue, 43),
        (WorkloadKind::Heap, 42),
        (WorkloadKind::Heap, 43),
    ]
    .into_iter()
    .map(|(workload, seed)| RunSpec {
        config: SimConfig::paper(),
        model: ModelKind::Asap,
        flavor: Flavor::Release,
        workload,
        ops_per_thread: 12,
        seed,
    })
    .collect()
}

fn sweep_args(cache_dir: Option<&Path>) -> SweepArgs {
    SweepArgs {
        cache_dir: cache_dir.map(|p| p.to_str().expect("utf8 dir").to_string()),
        ..SweepArgs::default()
    }
}

/// Sweep `specs` as complete legs.
fn sweep(label: &str, specs: &[RunSpec], sa: &SweepArgs) -> (Vec<Option<RunOutcome>>, SweepReport) {
    let legs: Vec<Leg> = specs.iter().cloned().map(Leg::complete).collect();
    sweep_legs(label, &legs, sa)
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("asap-exec-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Encode both result vectors and compare the bytes — the same
/// comparison a table rendering would make, but field-exact. The
/// `wallns` provenance token is stripped: wall clock is the one field
/// excluded from `RunOutcome` equality and from every table.
fn encoded(outs: &[Option<RunOutcome>]) -> Vec<String> {
    outs.iter()
        .map(|o| {
            encode_outcome(o.as_ref().expect("complete sweep"))
                .split_whitespace()
                .filter(|t| !t.starts_with("wallns="))
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect()
}

#[test]
fn warm_cache_reproduces_identical_outcomes_without_simulating() {
    let dir = tmpdir("warm");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));

    let (cold, cold_report) = sweep("t", &specs, &sa);
    assert!(cold_report.complete);
    assert_eq!(cold_report.cached, 0);
    assert_eq!(cold_report.simulated, specs.len());

    let (warm, warm_report) = sweep("t", &specs, &sa);
    assert!(warm_report.complete);
    assert_eq!(warm_report.cached, specs.len(), "every leg must hit");
    assert_eq!(warm_report.simulated, 0, "a warm run simulates nothing");
    assert_eq!(
        encoded(&cold),
        encoded(&warm),
        "cached outcomes must be byte-identical to simulated ones"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entry_is_re_simulated_never_misread() {
    let dir = tmpdir("corrupt");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));
    let (cold, _) = sweep("t", &specs, &sa);

    // Flip payload bytes of leg 1's entry while keeping the file shape.
    let cache = OutcomeCache::open(&dir).unwrap();
    let path = cache.entry_path(run_spec_digest(&specs[1], "complete"));
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, text.replace("cycles=", "cycles=9")).unwrap();

    let (warm, report) = sweep("t", &specs, &sa);
    assert_eq!(report.cached, specs.len() - 1);
    assert_eq!(report.simulated, 1, "the corrupted leg must re-run");
    assert_eq!(
        encoded(&cold),
        encoded(&warm),
        "corruption never skews results"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_skips_finished_legs_and_matches_bytes() {
    let dir = tmpdir("resume");
    let specs = tiny_specs();
    let sa = sweep_args(Some(&dir));
    let (cold, _) = sweep("t", &specs, &sa);

    // Simulate a kill after two legs: drop the other two cache entries
    // and their journal lines (a real kill simply never wrote them).
    let cache = OutcomeCache::open(&dir).unwrap();
    for spec in &specs[2..] {
        std::fs::remove_file(cache.entry_path(run_spec_digest(spec, "complete"))).unwrap();
    }
    // Journal lines land in completion order, so keep the header plus
    // the two surviving legs' lines by digest, not by position.
    let survivors: Vec<String> = specs[..2]
        .iter()
        .map(|s| format!("{:016x}", run_spec_digest(s, "complete")))
        .collect();
    let journal = dir.join("t.journal");
    let kept: Vec<String> = std::fs::read_to_string(&journal)
        .unwrap()
        .lines()
        .filter(|l| l.starts_with('#') || survivors.iter().any(|d| l.ends_with(d.as_str())))
        .map(str::to_string)
        .collect();
    assert_eq!(kept.len(), 3, "header + two surviving legs");
    std::fs::write(&journal, kept.join("\n") + "\n").unwrap();

    let sa_resume = SweepArgs {
        resume: true,
        ..sweep_args(Some(&dir))
    };
    let (resumed, report) = sweep("t", &specs, &sa_resume);
    assert!(report.complete);
    assert_eq!(report.simulated, 2, "only the unfinished legs re-run");
    assert_eq!(report.resumed, 2, "the journaled legs count as resumed");
    assert_eq!(
        encoded(&cold),
        encoded(&resumed),
        "a resumed sweep must be byte-identical to an uninterrupted one"
    );

    // A torn final journal line (kill mid-append) must not break resume.
    let mut torn = std::fs::read_to_string(&journal).unwrap();
    torn.push_str("done 3 abc"); // truncated digest, no newline
    std::fs::write(&journal, torn).unwrap();
    let (again, report) = sweep("t", &specs, &sa_resume);
    assert!(report.complete);
    assert_eq!(report.simulated, 0);
    assert_eq!(encoded(&cold), encoded(&again));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_compose_into_the_full_sweep() {
    let dir = tmpdir("shard");
    let specs = tiny_specs();
    let (reference, _) = sweep("t", &specs, &sweep_args(None));

    // Shard 0 into the shared dir: half the legs run, half are skipped.
    let sa0 = SweepArgs {
        shard: Some(Shard { index: 0, of: 2 }),
        ..sweep_args(Some(&dir))
    };
    let (outs, report) = sweep("t", &specs, &sa0);
    assert!(!report.complete, "half a sweep must not claim completeness");
    assert_eq!(report.simulated, 2);
    assert_eq!(report.shard_skipped, 2);
    for (i, o) in outs.iter().enumerate() {
        assert_eq!(o.is_some(), i % 2 == 0, "leg {i} ownership");
    }

    // Shard 1 over the same dir: its own legs simulate, shard 0's legs
    // answer from the shared cache — the run comes out complete.
    let sa1 = SweepArgs {
        shard: Some(Shard { index: 1, of: 2 }),
        ..sweep_args(Some(&dir))
    };
    let (_, report) = sweep("t", &specs, &sa1);
    assert!(
        report.complete,
        "the last shard sees the whole sweep cached"
    );
    assert_eq!(report.cached, 2);
    assert_eq!(report.simulated, 2);

    // Final assembly pass over the shared cache: all hits, no sims.
    let (full, report) = sweep("t", &specs, &sweep_args(Some(&dir)));
    assert!(report.complete);
    assert_eq!(report.cached, specs.len());
    assert_eq!(report.simulated, 0);
    assert_eq!(encoded(&reference), encoded(&full));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_legs_fold_into_one_simulation() {
    let dir = tmpdir("fold");
    let base = tiny_specs();
    // Legs 2 and 5 repeat legs 0 and 3.
    let specs = [0, 1, 0, 2, 3, 2].map(|i| base[i].clone());
    let (reference, _) = sweep("t", &base, &sweep_args(None));

    let (outs, report) = sweep("t", &specs, &sweep_args(Some(&dir)));
    assert!(report.complete);
    assert_eq!(report.legs, 6);
    assert_eq!(report.simulated, 4, "each distinct digest runs once");
    assert_eq!(report.folded, 2);
    assert!(
        report.to_json().contains("\"folded\":2"),
        "{}",
        report.to_json()
    );
    let pick = |idx: &[usize]| -> Vec<_> { idx.iter().map(|&i| outs[i].clone()).collect() };
    assert_eq!(encoded(&pick(&[0, 1, 3, 4])), encoded(&reference));
    assert_eq!(encoded(&outs), encoded(&pick(&[0, 1, 0, 3, 4, 3])));

    // Warm: only the distinct legs are probed.
    let (_, report) = sweep("t", &specs, &sweep_args(Some(&dir)));
    assert_eq!((report.cached, report.simulated, report.folded), (4, 0, 2));

    // Shards split the distinct legs (0, 1, 3, 4), and a folded leg
    // follows its owner.
    let sa0 = SweepArgs {
        shard: Some(Shard { index: 0, of: 2 }),
        ..sweep_args(None)
    };
    let (outs, report) = sweep("t", &specs, &sa0);
    assert_eq!((report.simulated, report.shard_skipped), (2, 2));
    let present: Vec<bool> = outs.iter().map(Option::is_some).collect();
    assert_eq!(present, [true, false, true, true, false, true]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn windowed_legs_key_by_window_and_round_trip() {
    let spec = tiny_specs().remove(0);
    // Complete legs keep the key every existing cache was written with.
    assert_eq!(
        Leg::complete(spec.clone()).digest(),
        run_spec_digest(&spec, "complete")
    );
    let w30 = Leg::windowed(spec.clone(), Cycle(30_000));
    assert_eq!(
        w30.digest(),
        run_spec_digest(&spec.clone().windowed(), "window=30000")
    );
    assert_ne!(
        w30.digest(),
        Leg::windowed(spec.clone(), Cycle(40_000)).digest()
    );

    let dir = tmpdir("window");
    let legs = [w30, Leg::complete(spec)];
    let (cold, report) = sweep_legs("w", &legs, &sweep_args(Some(&dir)));
    assert_eq!(report.simulated, 2, "a window and a complete run differ");
    assert!(
        !cold[0].as_ref().unwrap().all_done,
        "the window cuts the run"
    );
    let (warm, report) = sweep_legs("w", &legs, &sweep_args(Some(&dir)));
    assert_eq!(report.cached, 2);
    assert_eq!(encoded(&cold), encoded(&warm));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn traffic_sweep_caches_and_round_trips() {
    let dir = tmpdir("traffic");
    let mut scale = TrafficScale::quick();
    scale.requests = 64;
    scale.apps.truncate(1);
    scale.models.truncate(2);
    scale.gaps.truncate(1);
    let specs = scale.specs();
    assert_eq!(specs.len(), 2);
    let sa = sweep_args(Some(&dir));

    let (cold, cold_report) = sweep_traffic("traffic", &specs, &sa);
    assert_eq!(cold_report.simulated, specs.len());
    let (warm, warm_report) = sweep_traffic("traffic", &specs, &sa);
    assert_eq!(warm_report.cached, specs.len());
    assert_eq!(warm_report.simulated, 0);
    let unwrap = |v: Vec<Option<asap_harness::traffic::TrafficOutcome>>| -> Vec<String> {
        v.into_iter()
            .map(|o| asap_harness::cache::encode_traffic(&o.expect("complete")))
            .collect()
    };
    assert_eq!(unwrap(cold), unwrap(warm));
    let _ = std::fs::remove_dir_all(&dir);
}
