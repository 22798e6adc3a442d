//! The simulated clock is a pure function of the seed: the same seed
//! repeats bit for bit, the traced and checker-off passes change nothing
//! on it, and another seed changes it (so the seed reaches the load
//! generator). Run with `cargo test --release`; debug builds are slow.

use dpbench::harness::{Mode, Rep};
use dpbench::metrics::PER_LAYER;
use dpbench::Workload;

/// Small repetitions: enough requests to exercise every layer.
fn size(w: Workload) -> u64 {
    match w {
        Workload::KvReadOffload | Workload::KvUpdateReplicated => 16,
        Workload::TenantStorm => 1,
        Workload::SprocCompress => 2,
    }
}

fn run(w: Workload, seed: u64, mode: Mode) -> Rep {
    let rep = w.run(seed, mode, size(w));
    assert!(
        rep.out.failures.is_empty(),
        "{}: {:?}",
        w.name(),
        rep.out.failures
    );
    rep
}

fn assert_same_sim(a: &Rep, b: &Rep, what: &str) {
    assert_eq!(a.out.sim, b.out.sim, "{what}: simulated outputs differ");
    assert_eq!(
        a.out.layers, b.out.layers,
        "{what}: per-layer counters differ"
    );
    assert_eq!(a.polls_run, b.polls_run, "{what}: executor polls differ");
}

#[test]
fn same_seed_repeats_and_passes_do_not_move_the_simulated_clock() {
    for w in Workload::ALL {
        let base = run(w, 42, Mode::MEASURE);
        assert_same_sim(&base, &run(w, 42, Mode::MEASURE), w.name());
        let traced = run(w, 42, Mode::TRACED);
        assert_same_sim(&base, &traced, &format!("{} traced", w.name()));
        assert!(!traced.out.spans_jsonl.is_empty(), "{}: no spans", w.name());
        assert_same_sim(
            &base,
            &run(w, 42, Mode::UNCHECKED),
            &format!("{} checker-off", w.name()),
        );
    }
}

#[test]
fn another_seed_changes_the_simulated_clock() {
    for w in Workload::ALL {
        let a = run(w, 42, Mode::MEASURE);
        let b = run(w, 7, Mode::MEASURE);
        assert_ne!(
            a.out.sim,
            b.out.sim,
            "{}: the seed does not reach the generator",
            w.name()
        );
    }
}

#[test]
fn conservation_holds_and_failures_stay_in_scope() {
    for w in Workload::ALL {
        let s = run(w, 42, Mode::MEASURE).out.sim;
        assert_eq!(s.issued, s.ok + s.shed + s.errors, "{}", w.name());
        assert!(s.scoped_failed <= s.scoped_issued && s.scoped_issued <= s.issued);
        assert!(s.ok > 0, "{}: nothing completed", w.name());
    }
}

#[test]
fn benchmark_json_names_every_workload_and_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for w in Workload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", w.name())),
            "{} missing",
            w.name()
        );
    }
    for (name, unit, better, _) in PER_LAYER {
        let entry =
            format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
}
