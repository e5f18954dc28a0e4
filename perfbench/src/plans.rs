//! The benchmark's own plan texts, one per workload.
//!
//! The plans live here rather than under `figures/` so that editing a
//! figure never changes a workload. `SEED` is replaced by the workload
//! seed, which sets every sweep's `sim.seed`; the kill-set seed of the
//! fault sweeps stays at 7 so that set-up work is the same for every
//! workload seed.

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["engine_q19", "flow_scale", "resilience_q7"];

/// The paper-size cycle engine: the pinned `perf_smoke` cell set.
const ENGINE_Q19: &str = r#"
[figure]
name = "engine_q19"

[defaults]
routing = ["min", "ugal-g:c=4"]
traffic = "uniform"
loads = [0.1, 0.3, 0.5]

[defaults.sim]
warmup = 150
measure = 300
drain = 450
seed = SEED

[[sweep]]
topo = "sf:q=19"
"#;

/// The sweeps of `figures/fig_flow.toml`: the flow backend at scale.
const FLOW_SCALE: &str = r#"
[figure]
name = "flow_scale"

[defaults]
backend = "flow"
routing = ["min", "val", "ugal-l:c=4"]
traffic = "uniform"
loads = [0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 1.0]

[defaults.sim]
seed = SEED

[[sweep]]
topo = "sf:q=19"

[[sweep]]
topo = "sf:q=37"

[[sweep]]
topo = "sf:q=79,p=4"
"#;

/// A fault sweep small enough that `verify` builds every degraded CDG:
/// degrade, FatPaths layers, wormhole packets, the worst-case
/// adversary and the exact max-min solver.
const RESILIENCE_Q7: &str = r#"
[figure]
name = "resilience_q7"

[defaults]
routing = ["min", "ugal-l:c=4", "fatpaths:layers=2"]
traffic = "uniform"

[defaults.sim]
num_vcs = 7
warmup = 150
measure = 300
drain = 1000
seed = SEED

[[sweep]]
topo = "sf:q=7"
loads = [0.1, 0.3, 0.5]
packet_sizes = [1, 4]
fault_fractions = [0.0, 0.02, 0.05, 0.1]

[sweep.faults]
seed = 7
mode = "random"

[[sweep]]
topo = "sf:q=7"
traffic = "worst"
loads = [0.1, 0.3, 0.5]

[[sweep]]
topo = "sf:q=5"
backend = "flow"
loads = [0.1, 0.3, 0.5, 0.7, 0.9]
fault_fractions = [0.0, 0.02, 0.05, 0.1]

[sweep.faults]
seed = 7
mode = "random"
"#;

/// The plan text of `workload` with its sweeps seeded by `seed`, or
/// `None` for an unknown workload.
pub fn plan_text(workload: &str, seed: u64) -> Option<String> {
    let template = match workload {
        "engine_q19" => ENGINE_Q19,
        "flow_scale" => FLOW_SCALE,
        "resilience_q7" => RESILIENCE_Q7,
        _ => return None,
    };
    Some(template.replace("SEED", &seed.to_string()))
}
