//! The reference path: the plan's jobs run one by one from the
//! layers' public functions, with a span around every call.
//!
//! It does what `JobSet::prepare`, `JobSet::verify` and
//! `JobSet::run_job` do, but from this crate, so the traced run can
//! time each layer and the output check has records built
//! independently of the scheduler, field by field from each
//! `SimResult` and `FlowPoint`. With the tracer off the same code
//! produces the check's reference records.

use crate::trace::Tracer;
use slimfly::flow::{self, Demand, EdgeIndex, FlowError, FlowPoint, RoutingLoads};
use slimfly::graph::fault;
use slimfly::plan::{Backend, ExperimentPlan, Job, JobSet};
use slimfly::routing::{Router, RoutingSpec, RoutingTables};
use slimfly::sim::{LoadSweep, SimConfig, SimResult, Simulator};
use slimfly::traffic::{TrafficPattern, TrafficSpec};
use slimfly::verify::DeadlockStatus;
use slimfly::{Network, Record, SfError};
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// One job's outcome: its records, or the error text.
pub type JobOutcome = Result<Vec<Record>, String>;

/// Counts gathered along the reference path.
#[derive(Default, Debug)]
pub struct Stats {
    pub verify_combos: usize,
    pub cdg_combos: usize,
    pub cdg_edges: usize,
    pub cycles: u64,
    pub flits: u64,
    /// `Simulator::run` seconds per routing label (lower case).
    pub sim_run_by_routing: BTreeMap<String, f64>,
    /// Wall seconds of each cycle-backend job.
    pub cycle_job_s: Vec<f64>,
    pub flow_jobs: usize,
    pub lowerings: usize,
}

/// What one reference run produced.
pub struct Output {
    /// The expanded set (unprepared; used for its jobs and cache keys).
    pub set: JobSet,
    /// Per job id: `None` when the job was not selected.
    pub outcomes: Vec<Option<JobOutcome>>,
    pub stats: Stats,
}

/// Lazily filled slots keyed by values listed up front.
struct Slots<K, V> {
    keys: Vec<K>,
    vals: Vec<OnceCell<V>>,
}

impl<K: PartialEq, V> Slots<K, V> {
    fn new(keys: impl IntoIterator<Item = K>) -> Self {
        let mut uniq: Vec<K> = Vec::new();
        for k in keys {
            if !uniq.contains(&k) {
                uniq.push(k);
            }
        }
        let vals = uniq.iter().map(|_| OnceCell::new()).collect();
        Slots { keys: uniq, vals }
    }

    fn get_or_init(&self, key: &K, init: impl FnOnce() -> V) -> &V {
        let i = self
            .keys
            .iter()
            .position(|k| k == key)
            .expect("every slot key is listed up front");
        self.vals[i].get_or_init(init)
    }
}

type Loads = Result<RoutingLoads, FlowError>;

/// Per-topology and per-job caches, mirroring the sharing `JobSet`
/// does: one network and one table set per topology instance, one
/// router per (topology, routing), one pattern, demand and MIN/VAL
/// lowering per (topology, traffic), one UGAL/FatPaths lowering per
/// (topology, routing, traffic).
struct Ctx<'t> {
    tracer: &'t Tracer,
    set: JobSet,
    nets: Vec<OnceCell<Result<Network, String>>>,
    tables: Vec<OnceCell<RoutingTables>>,
    routers: Slots<(usize, RoutingSpec), Result<Box<dyn Router>, String>>,
    patterns: Slots<(usize, TrafficSpec), Result<TrafficPattern, String>>,
    edge_idx: Vec<OnceCell<EdgeIndex>>,
    demands: Slots<(usize, TrafficSpec), Demand>,
    min: Slots<(usize, TrafficSpec), Loads>,
    val: Slots<(usize, TrafficSpec), Loads>,
    mixed: Slots<(usize, RoutingSpec, TrafficSpec), Loads>,
    stats: std::cell::RefCell<Stats>,
}

/// Runs the jobs whose id `select` accepts, one by one, from the plan
/// text. `verify` adds the static verification step of set-up.
pub fn run(
    text: &str,
    tracer: &Tracer,
    verify: bool,
    select: impl Fn(usize) -> bool,
) -> Result<Output, SfError> {
    let plan = {
        let _s = tracer.span("plan.parse");
        ExperimentPlan::from_toml_str(text)?
    };
    let set = {
        let _s = tracer.span("plan.expand");
        plan.expand()?
    };
    let ntopo = set.topos().len();
    let jobs = set.jobs().to_vec();
    let tt = |j: &Job| (j.topo, j.traffic);
    let cx = Ctx {
        tracer,
        nets: (0..ntopo).map(|_| OnceCell::new()).collect(),
        tables: (0..ntopo).map(|_| OnceCell::new()).collect(),
        routers: Slots::new(jobs.iter().map(|j| (j.topo, j.routing))),
        patterns: Slots::new(jobs.iter().map(tt)),
        edge_idx: (0..ntopo).map(|_| OnceCell::new()).collect(),
        demands: Slots::new(jobs.iter().map(tt)),
        min: Slots::new(jobs.iter().map(tt)),
        val: Slots::new(jobs.iter().map(tt)),
        mixed: Slots::new(jobs.iter().map(|j| (j.topo, j.routing, j.traffic))),
        stats: Default::default(),
        set,
    };
    // Set-up builds every network the selected jobs use, in topology
    // order, as `JobSet::prepare` does.
    let mut used = vec![false; ntopo];
    for j in jobs.iter().filter(|j| select(j.id)) {
        used[j.topo] = true;
    }
    for (t, _) in used.iter().enumerate().filter(|(_, u)| **u) {
        if let Err(e) = cx.net(t) {
            return Err(SfError::Experiment(e.clone()));
        }
    }
    if verify {
        cx.verify(&jobs)?;
    }
    let mut outcomes = vec![None; jobs.len()];
    for job in jobs.iter().filter(|j| select(j.id)) {
        let t = std::time::Instant::now();
        let out = {
            let _s = tracer.job(job.id);
            cx.run_job(job)
        };
        if job.backend == Backend::Cycle {
            cx.stats
                .borrow_mut()
                .cycle_job_s
                .push(t.elapsed().as_secs_f64());
        }
        outcomes[job.id] = Some(out);
    }
    Ok(Output {
        outcomes,
        stats: cx.stats.into_inner(),
        set: cx.set,
    })
}

impl Ctx<'_> {
    fn net(&self, t: usize) -> Result<&Network, &String> {
        self.nets[t]
            .get_or_init(|| {
                let spec = &self.set.topos()[t];
                let net = {
                    let _s = self.tracer.span("topo.build");
                    spec.build().map_err(|e| e.to_string())?
                };
                match &self.set.topo_faults()[t] {
                    None => Ok(net),
                    Some(f) => {
                        let _s = self.tracer.span("topo.degrade");
                        let kill = fault::kill_set(&net.graph, f.links, f.routers, f.seed, f.mode);
                        net.degrade(&kill, &f.suffix())
                            .map_err(|e| format!("fault plan on {spec}: {e}"))
                    }
                }
            })
            .as_ref()
    }

    /// The network of a topology whose build already succeeded.
    fn built(&self, t: usize) -> &Network {
        self.net(t).expect("set-up built every used network")
    }

    fn tables(&self, t: usize) -> &RoutingTables {
        self.tables[t].get_or_init(|| {
            let net = self.built(t);
            let _s = self.tracer.span("routing.tables");
            RoutingTables::new(&net.graph)
        })
    }

    /// Mirrors `JobSet::verify`: one certificate per distinct
    /// (topology, routing, VC budget, packet size) of the cycle jobs.
    fn verify(&self, jobs: &[Job]) -> Result<(), SfError> {
        let mut seen = Vec::new();
        for job in jobs.iter().filter(|j| j.backend == Backend::Cycle) {
            let key = (job.topo, job.routing, job.sim.num_vcs, job.sim.packet_size);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let label = match &self.set.topo_faults()[job.topo] {
                None => self.set.topos()[job.topo].to_string(),
                Some(f) => format!("{}{}", self.set.topos()[job.topo], f.suffix()),
            };
            let net = self.built(job.topo);
            let tables = self.tables(job.topo);
            let cert = {
                let _s = self.tracer.span("verify");
                slimfly::verify::verify_combo(
                    &label,
                    &net.graph,
                    tables,
                    &job.routing,
                    job.sim.num_vcs,
                    job.sim.packet_size,
                )?
            };
            let mut st = self.stats.borrow_mut();
            st.verify_combos += 1;
            if let DeadlockStatus::CdgAcyclic { edges, .. } = cert.status {
                st.cdg_combos += 1;
                st.cdg_edges += edges;
            }
        }
        Ok(())
    }

    fn pattern(&self, job: &Job) -> Result<&TrafficPattern, String> {
        let net = self.built(job.topo);
        self.patterns
            .get_or_init(&(job.topo, job.traffic), || {
                let _s = self.tracer.span("traffic.pattern");
                job.traffic
                    .build_with(net, || self.tables(job.topo))
                    .map_err(|e| SfError::from(e).to_string())
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    fn run_job(&self, job: &Job) -> JobOutcome {
        match job.backend {
            Backend::Cycle => self.run_cycle_job(job),
            Backend::Flow => self.run_flow_job(job),
        }
    }

    fn run_cycle_job(&self, job: &Job) -> JobOutcome {
        let net = self.built(job.topo);
        let tables = self.tables(job.topo);
        let router = self
            .routers
            .get_or_init(&(job.topo, job.routing), || {
                let _s = self.tracer.span("routing.router_build");
                job.routing
                    .build(&net.graph, tables)
                    .map_err(|e| SfError::from(e).to_string())
            })
            .as_ref()
            .map_err(Clone::clone)?
            .as_ref();
        let pattern = self.pattern(job)?;
        let label = router.label();
        let results: Vec<SimResult> = if job.warm_start {
            let s = self.tracer.span("sim.run");
            let r = LoadSweep::run_warm(net, tables, router, pattern, &job.loads, job.sim);
            self.add_sim_run(&label, s.elapsed());
            r
        } else {
            job.loads
                .iter()
                .map(|&load| {
                    let mut c = job.sim;
                    c.seed = LoadSweep::seed_for_load(&job.sim, load);
                    let sim = {
                        let _s = self.tracer.span("sim.new");
                        Simulator::new(net, tables, router, pattern, load, c)
                    };
                    let s = self.tracer.span("sim.run");
                    let r = sim.run();
                    self.add_sim_run(&label, s.elapsed());
                    r
                })
                .collect()
        };
        let spec = self.set.topos()[job.topo].to_string();
        let mut st = self.stats.borrow_mut();
        Ok(results
            .into_iter()
            .map(|r| {
                st.cycles += u64::from(r.cycles);
                st.flits += r.ejected_flits;
                Record {
                    topology: net.name.clone(),
                    spec: spec.clone(),
                    routing: label.clone(),
                    traffic: pattern.name().to_string(),
                    backend: Backend::Cycle.as_str().to_string(),
                    packet_size: r.packet_size,
                    offered: r.offered_load,
                    latency: r.avg_latency,
                    p99: r.p99_latency,
                    accepted: r.accepted,
                    avg_hops: r.avg_hops,
                    saturated: r.saturated,
                    max_link_util: r.max_link_util,
                }
            })
            .collect())
    }

    fn add_sim_run(&self, label: &str, secs: f64) {
        *self
            .stats
            .borrow_mut()
            .sim_run_by_routing
            .entry(label.to_lowercase())
            .or_insert(0.0) += secs;
    }

    /// One routing lowering, counted and timed.
    fn lower(&self, build: impl FnOnce() -> Loads) -> Loads {
        let _s = self.tracer.span("flow.lower");
        self.stats.borrow_mut().lowerings += 1;
        build()
    }

    fn run_flow_job(&self, job: &Job) -> JobOutcome {
        let net = self.built(job.topo);
        let pattern = self.pattern(job)?;
        let idx = self.edge_idx[job.topo].get_or_init(|| {
            let _s = self.tracer.span("flow.index");
            EdgeIndex::new(&net.graph)
        });
        let tt = (job.topo, job.traffic);
        let demand = self.demands.get_or_init(&tt, || {
            let _s = self.tracer.span("flow.demand");
            Demand::from_pattern(net, pattern)
        });
        let min = || {
            self.min
                .get_or_init(&tt, || self.lower(|| flow::min_loads(net, idx, demand)))
                .as_ref()
        };
        let val = || {
            self.val
                .get_or_init(&tt, || self.lower(|| flow::valiant_loads(net, idx, demand)))
                .as_ref()
        };
        let mixed = |build: &dyn Fn() -> Loads| {
            self.mixed
                .get_or_init(&(job.topo, job.routing, job.traffic), || self.lower(build))
                .as_ref()
        };
        let err = |e: &FlowError| SfError::from(e.clone()).to_string();
        let rl: &RoutingLoads = match job.routing {
            RoutingSpec::Min => min().map_err(err)?,
            RoutingSpec::Valiant { cap3: false } => val().map_err(err)?,
            RoutingSpec::UgalL { .. } | RoutingSpec::UgalG { .. } => {
                let (m, v) = (min().map_err(err)?, val().map_err(err)?);
                mixed(&|| Ok(flow::ugal_mix(m, v))).map_err(err)?
            }
            RoutingSpec::FatPaths { layers } => {
                let tables = self.tables(job.topo);
                mixed(&|| flow::fatpaths_loads(net, idx, demand, tables, layers)).map_err(err)?
            }
            RoutingSpec::Ecmp | RoutingSpec::Valiant { cap3: true } => {
                return Err(format!("{} has no flow lowering", job.routing.label()))
            }
        };
        self.stats.borrow_mut().flow_jobs += 1;
        let spec = self.set.topos()[job.topo].to_string();
        Ok(job
            .loads
            .iter()
            .map(|&load| {
                let p = {
                    let _s = self.tracer.span("flow.eval");
                    flow::evaluate(rl, load)
                };
                let (latency, p99) = flow_latency(&p, &job.sim);
                Record {
                    topology: net.name.clone(),
                    spec: spec.clone(),
                    routing: job.routing.label(),
                    traffic: pattern.name().to_string(),
                    backend: Backend::Flow.as_str().to_string(),
                    packet_size: job.sim.packet_size,
                    offered: load,
                    latency,
                    p99,
                    accepted: p.accepted,
                    avg_hops: p.avg_hops,
                    saturated: p.saturated,
                    max_link_util: p.max_util,
                }
            })
            .collect())
    }
}

/// The M/D/1-style latency estimate the flow backend reports. The
/// library keeps its copy private, so the output check compares these
/// two columns of flow rows only for NaN-ness (see `check.rs`).
fn flow_latency(p: &FlowPoint, sim: &SimConfig) -> (f64, f64) {
    if p.saturated {
        return (f64::NAN, f64::NAN);
    }
    let ps = sim.packet_size as f64;
    let per_hop = (sim.channel_latency + sim.router_delay) as f64;
    let base = 1.0 + p.avg_hops * per_hop + (ps - 1.0);
    let wq = |rho: f64| {
        if rho >= 1.0 - 1e-12 {
            f64::NAN
        } else {
            ps * rho / (2.0 * (1.0 - rho))
        }
    };
    (
        base + p.avg_hops * wq(p.mean_util),
        base + p.avg_hops * wq(p.max_util) * 100f64.ln(),
    )
}
