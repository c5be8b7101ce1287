//! A run driven in `run_for` slices must end exactly where a single
//! `run_to_completion` call ends: the same final cycle, the same number
//! of dispatched events and byte-identical counters.
//!
//! This pins two rules of the engine's run loop. A run that stops at its
//! limit leaves every pending event in the queue, the parked core step
//! included, and dispatches nothing beyond the limit. The accounting at
//! the end of a slice keeps an open ordering-blocked interval open, so
//! `cyclesBlocked` does not lose the cycles until the next transition.
//!
//! Whole runs of the persist-buffer designs are also pinned: their
//! `cyclesBlocked` and event counts were recorded before the run loop
//! parked core steps outside the queue and before `try_flush` reused its
//! own flushability scan as the blocked test, and must not move.

use asap_core::{Flavor, ModelKind, Sim, SimBuilder};
use asap_sim_core::{Cycle, SimConfig};
use asap_workloads::{make_workload, WorkloadKind, WorkloadParams};

/// Prime, so slice ends drift across the phases of periodic events
/// (polls, flush slack) instead of lining up with them.
const SLICE: u64 = 997;

fn build(model: ModelKind, flavor: Flavor, workload: WorkloadKind) -> Sim {
    let params = WorkloadParams {
        threads: 4,
        ops_per_thread: 100,
        seed: 42,
        ..Default::default()
    };
    SimBuilder::new(SimConfig::paper(), model, flavor)
        .programs(make_workload(workload, &params))
        .build()
}

#[test]
fn sliced_run_matches_whole_run() {
    let workloads = [WorkloadKind::Queue, WorkloadKind::Cceh, WorkloadKind::Heap];
    for model in ModelKind::all() {
        for flavor in Flavor::all() {
            for workload in workloads {
                let cell = format!("{model:?}/{flavor:?}/{workload:?}");
                let mut whole = build(model, flavor, workload);
                assert!(whole.run_to_completion().all_done, "{cell}");

                let mut sliced = build(model, flavor, workload);
                let mut limit = 0;
                loop {
                    limit += SLICE;
                    let out = sliced.run_for(Cycle(limit));
                    if out.all_done {
                        break;
                    }
                    assert_eq!(sliced.now(), Cycle(limit), "{cell}: slice overran");
                }

                assert_eq!(sliced.now(), whole.now(), "{cell}: end cycle");
                assert_eq!(
                    sliced.events_processed(),
                    whole.events_processed(),
                    "{cell}: events"
                );
                assert_eq!(
                    sliced.stats().snapshot().to_stats_txt(),
                    whole.stats().snapshot().to_stats_txt(),
                    "{cell}: counters"
                );
            }
        }
    }
}

#[test]
fn whole_runs_match_pinned_blocked_cycles_and_events() {
    use Flavor::{Epoch, Release};
    use ModelKind::{Asap, Hops};
    use WorkloadKind::{Cceh, Heap, Queue};
    // (model, flavor, workload, cyclesBlocked, events_processed)
    let pins = [
        (Hops, Epoch, Queue, 2_936_022, 27_610),
        (Hops, Epoch, Cceh, 530_718, 13_009),
        (Hops, Epoch, Heap, 6_382_696, 71_094),
        (Hops, Release, Queue, 1_966_962, 25_750),
        (Hops, Release, Cceh, 250_953, 13_417),
        (Hops, Release, Heap, 3_992_312, 65_478),
        (Asap, Epoch, Queue, 96_452, 36_672),
        (Asap, Epoch, Cceh, 19_297, 14_788),
        (Asap, Epoch, Heap, 286_367, 124_321),
        (Asap, Release, Queue, 112_600, 31_498),
        (Asap, Release, Cceh, 0, 15_593),
        (Asap, Release, Heap, 286_403, 109_384),
    ];
    for (model, flavor, workload, blocked, events) in pins {
        let mut sim = build(model, flavor, workload);
        sim.run_to_completion();
        assert_eq!(
            (sim.stats().cycles_blocked, sim.events_processed()),
            (blocked, events),
            "{model:?}/{flavor:?}/{workload:?}: (cyclesBlocked, events)"
        );
    }
}
