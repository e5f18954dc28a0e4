//! The `ENGINE_EPOCH` guard: cache soundness rests on bumping
//! `sf_sim::ENGINE_EPOCH` whenever the engine's output for a fixed
//! (plan, seed) changes, because cached records are keyed on it. This
//! test runs a small fixed plan cold (no cache) through the scheduler,
//! fingerprints the CSV bytes and checks the fingerprint registered
//! for the current epoch — so a behaviour change without a bump fails
//! here instead of silently serving stale cache entries.
//!
//! The plan covers the engine's main paths on `sf:q=5`: MIN, UGAL-L
//! and FatPaths, single-flit and wormhole packets, a boot-time fault
//! fraction and a flow sweep, each at engine threads 1 and 2 (the
//! output is thread-count independent, so both runs must match).

use slimfly::plan::ExperimentPlan;
use slimfly::schedule::Scheduler;
use slimfly::sim::ENGINE_EPOCH;
use slimfly::sink::CsvSink;

/// `(epoch, FNV-1a fingerprint of the plan's CSV)`, one row per
/// engine epoch. Add a row when you bump `ENGINE_EPOCH`.
const EPOCH_FINGERPRINTS: &[(u32, u64)] = &[(2, 0x718f_9358_6085_93db)];

const PLAN: &str = r#"
[figure]
name = "engine_epoch"

[defaults]
routing = ["min", "ugal-l:c=4", "fatpaths:layers=2"]
traffic = "uniform"

[defaults.sim]
num_vcs = 7
warmup = 100
measure = 200
drain = 600

[[sweep]]
topo = "sf:q=5"
loads = [0.2, 0.6]
packet_sizes = [1, 4]

[[sweep]]
topo = "sf:q=5"
loads = [0.3]
fault_fractions = [0.05]

[sweep.faults]
seed = 7
mode = "random"

[[sweep]]
topo = "sf:q=5"
backend = "flow"
loads = [0.1, 0.5, 0.9]
"#;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cold_csv(threads: usize) -> Vec<u8> {
    let plan = ExperimentPlan::from_toml_str(PLAN).unwrap();
    let mut set = plan.expand().unwrap();
    set.override_threads(threads);
    let mut csv = Vec::new();
    Scheduler::new(2)
        .run(&mut set, &mut CsvSink::new(&mut csv))
        .unwrap();
    csv
}

#[test]
fn engine_output_matches_the_fingerprint_of_its_epoch() {
    let epoch = ENGINE_EPOCH;
    let pinned = EPOCH_FINGERPRINTS
        .iter()
        .find(|&&(e, _)| e == epoch)
        .map(|&(_, f)| f);
    for threads in [1, 2] {
        let csv = cold_csv(threads);
        let got = fnv1a(&csv);
        assert_eq!(
            Some(got),
            pinned,
            "engine output at threads = {threads} has fingerprint {got:#018x}, but \
             ENGINE_EPOCH {epoch} pins {pinned:#018x?}. If this change alters engine \
             output on purpose, bump sf_sim::ENGINE_EPOCH and add the row \
             ({}, {got:#018x}) to EPOCH_FINGERPRINTS; otherwise it is a regression.\n{}",
            epoch + 1,
            String::from_utf8_lossy(&csv)
        );
    }
}
