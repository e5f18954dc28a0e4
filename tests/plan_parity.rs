//! Experiment-file ⇄ fluent-builder parity: the checked-in
//! `figures/*.toml` plans must reproduce, byte for byte, the record
//! streams of the equivalent hand-written [`Experiment`] builder
//! chains — the acceptance contract that whole paper figures really
//! are data, not binaries. Sweep sizes are shrunk (fewer loads, short
//! windows) so the suite stays seconds-fast; the shrink is applied
//! identically on both sides.

use slimfly::plan::ExperimentPlan;
use slimfly::prelude::*;
use std::path::Path;

fn repo_file(rel: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn csv_stream(records: &[Record]) -> String {
    records
        .iter()
        .map(|r| r.to_csv())
        .collect::<Vec<_>>()
        .join("\n")
}

fn quick_sim() -> SimConfig {
    SimConfig {
        warmup: 150,
        measure: 300,
        drain: 1_000,
        ..Default::default()
    }
}

/// Runs a plan through the work-stealing scheduler with several
/// workers, records in deterministic job order.
fn run_plan(plan: &ExperimentPlan, workers: usize) -> Vec<Record> {
    let mut set = plan.expand().unwrap();
    let mut sink = MemorySink::new();
    Scheduler::new(workers).run(&mut set, &mut sink).unwrap();
    sink.into_records()
}

#[test]
fn fig8_toml_is_byte_identical_to_the_builder_path() {
    // The Fig 8 experiment file, shrunk for test runtime: first
    // (uniform, worst) sweep pair on the balanced concentration,
    // three loads each, short windows.
    let mut plan = ExperimentPlan::from_path(&repo_file("figures/fig8.toml")).unwrap();
    assert_eq!(plan.name, "fig8");
    plan.sweeps.truncate(2);
    for sweep in &mut plan.sweeps {
        sweep.loads.truncate(3);
        sweep.sim = quick_sim();
    }
    let from_file = run_plan(&plan, 4);

    // The same sweeps as fluent-builder chains, hand-written to mirror
    // figures/fig8.toml (not derived from the parsed plan).
    let routings = [
        RoutingSpec::Min,
        RoutingSpec::Valiant { cap3: false },
        RoutingSpec::UgalL { candidates: 4 },
        RoutingSpec::UgalG { candidates: 4 },
    ];
    let mut from_builder = Vec::new();
    for (traffic, loads) in [
        (TrafficSpec::Uniform, vec![0.1, 0.25, 0.5]),
        (TrafficSpec::WorstCase, vec![0.05, 0.1, 0.2]),
    ] {
        from_builder.extend(
            Experiment::on("sf:q=7,p=6")
                .routings(&routings)
                .traffic(traffic)
                .loads(&loads)
                .sim(quick_sim())
                .run()
                .unwrap(),
        );
    }
    assert_eq!(from_file.len(), from_builder.len());
    assert_eq!(csv_stream(&from_file), csv_stream(&from_builder));
}

#[test]
fn smoke_toml_runs_end_to_end_and_workers_do_not_change_records() {
    let plan = ExperimentPlan::from_path(&repo_file("figures/smoke.toml")).unwrap();
    let seq = run_plan(&plan, 1);
    let par = run_plan(&plan, 4);
    assert_eq!(seq.len(), plan.expand().unwrap().num_records());
    assert_eq!(csv_stream(&seq), csv_stream(&par));
}

#[test]
fn fig_packets_toml_expands_the_matrix_and_is_worker_invariant() {
    // The multi-flit figure: one sweep template with `packet_sizes =
    // [1, 4, 16]` must expand into three sweeps, run end to end on the
    // scheduler, stream byte-identically for any worker count, and
    // show the serialization ordering (latency strictly increasing in
    // packet size at the same low offered flit load).
    let mut plan = ExperimentPlan::from_path(&repo_file("figures/fig_packets.toml")).unwrap();
    assert_eq!(plan.name, "fig_packets");
    assert_eq!(plan.sweeps.len(), 3, "packet_sizes = [1, 4, 16]");
    assert_eq!(
        plan.sweeps
            .iter()
            .map(|s| s.sim.packet_size)
            .collect::<Vec<_>>(),
        vec![1, 4, 16]
    );
    // Shrink for test runtime: one load, short windows, MIN only.
    for sweep in &mut plan.sweeps {
        sweep.loads = vec![0.2];
        sweep.routings.truncate(1);
        sweep.sim = SimConfig {
            packet_size: sweep.sim.packet_size,
            ..quick_sim()
        };
    }
    let seq = run_plan(&plan, 1);
    let par = run_plan(&plan, 4);
    assert_eq!(csv_stream(&seq), csv_stream(&par));
    assert_eq!(seq.len(), 3);
    assert_eq!(
        seq.iter().map(|r| r.packet_size).collect::<Vec<_>>(),
        vec![1, 4, 16]
    );
    assert!(
        seq[0].latency < seq[1].latency && seq[1].latency < seq[2].latency,
        "serialization latency must grow with packet size: {} / {} / {}",
        seq[0].latency,
        seq[1].latency,
        seq[2].latency
    );
}

#[test]
fn every_checked_in_figure_file_parses_and_expands() {
    let dir = repo_file("figures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        let plan =
            ExperimentPlan::from_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let set = plan
            .expand()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(!set.jobs().is_empty(), "{}", path.display());
        seen += 1;
    }
    assert!(seen >= 4, "expected the four checked-in figure files");
}

#[test]
fn warm_start_flag_changes_only_non_first_chain_loads() {
    // Parity pin for the warm-start default: the flag off must leave
    // records exactly as the cold path produces them, and on it must
    // keep the first load of each chain bit-identical.
    let base = ExperimentPlan::from_toml_str(
        r#"
        [figure]
        name = "warm"
        [[sweep]]
        topo = "sf:q=5"
        routing = ["min"]
        loads = [0.1, 0.3]
        [sweep.sim]
        warmup = 150
        measure = 300
        drain = 1000
        "#,
    )
    .unwrap();
    let mut warm = base.clone();
    warm.sweeps[0].warm_start = true;

    let cold_records = run_plan(&base, 2);
    let builder_records = Experiment::on("sf:q=5")
        .routing(RoutingSpec::Min)
        .loads(&[0.1, 0.3])
        .sim(quick_sim())
        .run()
        .unwrap();
    assert_eq!(
        csv_stream(&cold_records),
        csv_stream(&builder_records),
        "warm_start = false (the default) must stay bit-identical to the builder path"
    );

    let warm_records = run_plan(&warm, 2);
    assert_eq!(warm_records.len(), 2);
    assert_eq!(
        warm_records[0].to_csv(),
        cold_records[0].to_csv(),
        "first load of a warm chain starts cold"
    );
    assert!(warm_records[1].accepted > 0.0);
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins what a refactor of the plan or cache layers must not move: for
/// every `figures/*.toml`, its job count, the FNV-1a of its canonical
/// TOML and an FNV-1a over the hex of every job's cache key (in job
/// order) must match `tests/golden/plan_keys.txt`. Each canonical TOML
/// must also re-parse to an equal plan. Regenerate (only when a change
/// is meant to re-key the cache) with
/// `SF_BLESS=1 cargo test --test plan_parity figure_plans`.
#[test]
fn figure_plans_keep_their_canonical_toml_and_cache_keys() {
    let mut paths: Vec<_> = std::fs::read_dir(repo_file("figures"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("toml"))
        .collect();
    paths.sort();
    let mut got = String::new();
    for path in &paths {
        let plan = ExperimentPlan::from_path(path).unwrap();
        let toml = plan.to_toml_string();
        assert_eq!(
            ExperimentPlan::from_toml_str(&toml).unwrap(),
            plan,
            "{}: canonical TOML does not re-parse to the same plan:\n{toml}",
            path.display()
        );
        let set = plan.expand().unwrap();
        let keys: String = set
            .jobs()
            .iter()
            .map(|j| set.job_key(j).to_string())
            .collect();
        got.push_str(&format!(
            "{} jobs={} toml={:016x} keys={:016x}\n",
            path.file_name().unwrap().to_string_lossy(),
            set.jobs().len(),
            fnv1a(toml.as_bytes()),
            fnv1a(keys.as_bytes())
        ));
    }
    let golden = repo_file("tests/golden/plan_keys.txt");
    if std::env::var_os("SF_BLESS").is_some() {
        std::fs::write(&golden, &got).unwrap();
    }
    let want =
        std::fs::read_to_string(&golden).expect("golden file missing — regenerate with SF_BLESS=1");
    assert_eq!(
        got, want,
        "plan TOML or cache keys drifted from tests/golden/plan_keys.txt"
    );
}
