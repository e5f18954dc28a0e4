//! Plan-level integration tests for the static verification tier:
//! `ExperimentPlan` → `JobSet::verify()` certificates, expansion-time
//! deadlock screening, and proven-deadlock rejection with a rendered
//! cycle witness — the same pass `sf-bench verify figures/*.toml` and
//! `sf-bench run` execute before any cycle is simulated.

use slimfly::plan::ExperimentPlan;
use slimfly::sink::MemorySink;
use slimfly::verify::{verify_combo, DeadlockStatus, VerifyError};
use slimfly::{Scheduler, SfError};

#[test]
fn good_plan_certifies_every_combo() {
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-good\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"min\", \"val\", \"ugal-l:c=4\"]\n\
         loads = [0.1]\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert_eq!(certs.len(), 3, "one certificate per routing");
    for c in &certs {
        assert!(c.certified(), "{c}");
        assert_eq!(c.diameter, 2);
        assert!(
            matches!(c.status, DeadlockStatus::CdgAcyclic { clamped: false, .. }),
            "diameter-2 SF at 4 VCs never clamps: {c}"
        );
    }
    // The rendered certificate names the combo and the proof.
    let line = certs[0].to_string();
    assert!(
        line.contains("sf:q=5") && line.contains("deadlock-free"),
        "{line}"
    );
}

#[test]
fn single_vc_detour_plans_are_rejected_at_expansion() {
    // Valiant on one VC deadlocks on every topology with ≥ 3 routers
    // (the detour reverses a link at the intermediate) — the screen
    // rejects the plan before any network is even built.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-1vc\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"val\"]\nloads = [0.1]\n\
         [sweep.sim]\nnum_vcs = 1\n",
    )
    .unwrap();
    let err = plan
        .expand()
        .expect_err("1-VC Valiant must be screened out");
    match err {
        SfError::Verify(VerifyError::SpecDeadlock { num_vcs, .. }) => assert_eq!(num_vcs, 1),
        other => panic!("expected SfError::Verify(SpecDeadlock), got {other}"),
    }
}

#[test]
fn under_budgeted_ring_plan_fails_verify_with_witness() {
    // MIN on a large ring with one VC passes the topology-independent
    // screen but is a proven wormhole deadlock once the CDG is built:
    // verify() must fail with the offending channel cycle rendered.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-ring\"\n\
         [[sweep]]\ntopo = \"torus:dims=16\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         [sweep.sim]\nnum_vcs = 1\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let err = set
        .verify()
        .expect_err("a 1-VC ring must fail verification");
    let SfError::Verify(VerifyError::Deadlock {
        ref witness,
        num_vcs,
        ..
    }) = err
    else {
        panic!("expected SfError::Verify(Deadlock), got {err}");
    };
    assert_eq!(num_vcs, 1);
    assert!(witness.len() >= 2);
    assert_eq!(witness.first(), witness.last(), "witness is a closed chain");
    let msg = err.to_string();
    assert!(
        msg.contains("vc0") && msg.contains("→"),
        "rendered error carries the channel cycle: {msg}"
    );
}

#[test]
fn flow_only_plans_verify_vacuously() {
    // Flow jobs have no VC/wormhole semantics; verify() must skip them
    // (and, per the pinned plan-layer behavior, never build tables).
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-flow\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nbackend = \"flow\"\nrouting = [\"min\"]\n\
         loads = [0.5]\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert!(certs.is_empty(), "flow jobs yield no certificates");
}

#[test]
fn verified_plans_still_run() {
    // End to end: a verified plan simulates normally afterwards.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-run\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         [sweep.sim]\nwarmup = 100\nmeasure = 200\ndrain = 400\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    assert_eq!(set.verify().unwrap().len(), 1);
    let mut sink = slimfly::sink::MemorySink::new();
    slimfly::Scheduler::new(1).run(&mut set, &mut sink).unwrap();
    assert_eq!(sink.records().len(), 1);
}

#[test]
fn verify_dedupes_packet_sizes() {
    // The wormhole CDG is packet-size invariant, so `verify` certifies
    // each (topology, routing, VC budget) class once and copies the
    // certificate per packet size. That must be unobservable: the
    // result equals one `verify_combo` call per combination, in job
    // order.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-dedupe\"\n\
         [[sweep]]\ntopo = \"sf:q=5\"\n\
         routing = [\"min\", \"ugal-l:c=4\", \"fatpaths:layers=2\"]\n\
         loads = [0.1]\npacket_sizes = [1, 4]\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    let certs = set.verify().unwrap();
    assert_eq!(set.topos().len(), 1, "both sizes share one topology");
    let mut expected = Vec::new();
    let mut seen = Vec::new();
    for job in set.jobs() {
        let key = (job.routing, job.sim.num_vcs, job.sim.packet_size);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let ctx = set.ctx(job);
        expected.push(
            verify_combo(
                &set.topos()[job.topo].to_string(),
                &ctx.net.graph,
                ctx.tables(),
                &job.routing,
                job.sim.num_vcs,
                job.sim.packet_size,
            )
            .unwrap(),
        );
    }
    assert_eq!(expected.len(), 6, "3 routings × 2 packet sizes");
    assert_eq!(certs, expected);
    let sizes: Vec<usize> = certs.iter().map(|c| c.packet_size).collect();
    assert_eq!(sizes, [1, 1, 1, 4, 4, 4]);
}

#[test]
fn deduped_deadlock_reports_the_first_packet_size() {
    // Sizes 4 and 1 share one deadlocking CDG; the error names the
    // size of the first job in plan order.
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-ring-sizes\"\n\
         [[sweep]]\ntopo = \"torus:dims=16\"\nrouting = [\"min\"]\nloads = [0.1]\n\
         packet_sizes = [4, 1]\n\
         [sweep.sim]\nnum_vcs = 1\n",
    )
    .unwrap();
    let mut set = plan.expand().unwrap();
    match set.verify() {
        Err(SfError::Verify(VerifyError::Deadlock {
            packet_size,
            num_vcs,
            ..
        })) => assert_eq!((packet_size, num_vcs), (4, 1)),
        other => panic!("expected a deadlock for packet size 4, got {other:?}"),
    }
}

/// Valiant on a 6-cube routes up to 12 hops — more than the engine's
/// per-packet route holds. Such a plan validates and expands, but both
/// `verify()` and a run that skips verify must reject it with a typed
/// error before any cycle is simulated, instead of certifying it and
/// reaching the engine's path-length assert.
#[test]
fn routes_beyond_the_engine_path_limit_are_rejected() {
    let plan = ExperimentPlan::from_toml_str(
        "[figure]\nname = \"verify-long-routes\"\n\
         [defaults.sim]\nnum_vcs = 13\nwarmup = 20\nmeasure = 40\ndrain = 100\n\
         [[sweep]]\ntopo = \"hc:d=6\"\nrouting = [\"val\"]\nloads = [0.1]\n",
    )
    .unwrap();
    let too_long = |e: &SfError| {
        matches!(
            e,
            SfError::Verify(VerifyError::PathTooLong { hops: 12, max, .. })
                if *max == slimfly::routing::MAX_PATH_HOPS
        )
    };
    let mut set = plan.expand().unwrap();
    let err = set
        .verify()
        .expect_err("12-hop routes exceed the path limit");
    assert!(too_long(&err), "{err}");
    let mut set = plan.expand().unwrap();
    let err = Scheduler::new(1)
        .run(&mut set, &mut MemorySink::new())
        .expect_err("the run must refuse the job, not panic");
    assert!(too_long(&err), "{err}");
}
