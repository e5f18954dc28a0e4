//! The repository benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Drives the library the way `sf-bench run` does: parse → expand →
//! prepare → verify (set-up), then `Scheduler::run` into a CSV sink,
//! with the result cache off and workers × engine threads ≤ the
//! machine's available parallelism.
//!
//! With `--trace 0` it repeats that pass, each time in a fresh child
//! process, until `S` seconds of set-up + run have been measured (at
//! least once), and prints the medians of the end-to-end metrics.
//! With `--trace 1` it runs the plan once multi-worker, then along the
//! reference path (`reference.rs`) untraced and traced, and prints the
//! per-layer metrics. Both modes check the output and
//! end with one JSON line: `correct`, `attempted`, `failed`, `metrics`.

mod check;
mod plans;
mod reference;
mod trace;

use slimfly::plan::{Backend, Job, JobSet};
use slimfly::sink::RecordSink;
use slimfly::{CsvSink, ExperimentPlan, JsonLinesSink, MemorySink, Record, ResultCache};
use slimfly::{Scheduler, SfError, TeeSink};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// A `--trace 0` run repeats set-up until it has taken this long in
/// total, passes included, for a steady median of a cheap set-up.
const MIN_SETUP_SECONDS: f64 = 3.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    /// Internal: run one pass in this process (`Some(true)`: and the
    /// output check), for the parent of a `--trace 0` run.
    pass: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut pass) = (None, None, None, None, None);
    let mut work_dir = PathBuf::from(".bench_build/perfbench");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--work-dir" => work_dir = PathBuf::from(&value),
            "--pass" => pass = Some(value == "check"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let internal = pass.is_some();
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .or(internal.then_some(0.0))
            .ok_or("--seconds is required")?,
        trace: trace
            .or(internal.then_some(false))
            .ok_or("--trace is required")?,
        work_dir,
        pass,
    })
}

/// Parse → expand → prepare → verify, as `sf-bench run` does.
fn setup(text: &str) -> Result<JobSet, SfError> {
    let plan = ExperimentPlan::from_toml_str(text)?;
    let mut set = plan.expand()?;
    set.prepare()?;
    set.verify()?;
    Ok(set)
}

/// One `Scheduler::run` of a prepared set.
struct Pass {
    /// Per job id: its records, or the error text.
    outcomes: Vec<reference::JobOutcome>,
    /// The CSV byte stream the sink received.
    csv: Vec<u8>,
    run_s: f64,
    steals: usize,
}

impl Pass {
    fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_err()).count()
    }
}

/// Runs `set` on `workers` workers into a CSV sink. When the scheduler
/// stops at a failing job, every job is run on its own so that each
/// failure is counted and the rest still produce records.
fn run_pass(set: &mut JobSet, workers: usize) -> Result<Pass, SfError> {
    let mut csv = Vec::new();
    let mut mem = MemorySink::new();
    let t = Instant::now();
    let res = {
        let mut tee = TeeSink::new(vec![Box::new(CsvSink::new(&mut csv)), Box::new(&mut mem)]);
        Scheduler::new(workers).with_cache(None).run(set, &mut tee)
    };
    let run_s = t.elapsed().as_secs_f64();
    let (outcomes, steals) = match res {
        Ok(report) => {
            let mut rest = mem.records();
            let outcomes = set
                .jobs()
                .iter()
                .map(|j| {
                    let (head, tail) = rest.split_at(j.loads.len().min(rest.len()));
                    rest = tail;
                    Ok(head.to_vec())
                })
                .collect();
            (outcomes, report.steals)
        }
        Err(_) => {
            let outcomes = set
                .jobs()
                .iter()
                .map(|j| set.run_job(j).map_err(|e| e.to_string()))
                .collect();
            (outcomes, 0)
        }
    };
    Ok(Pass {
        outcomes,
        csv,
        run_s,
        steals,
    })
}

/// Reference outcomes of the jobs `select` accepts, from the untraced
/// reference path split over `threads` threads: cycle jobs
/// round-robin, flow jobs by topology so that each lowering is
/// computed on one thread only.
fn reference_outcomes(
    text: &str,
    jobs: &[Job],
    threads: usize,
    select: impl Fn(&Job) -> bool,
) -> Result<Vec<Option<reference::JobOutcome>>, SfError> {
    let owner: Vec<Option<usize>> = jobs
        .iter()
        .map(|j| {
            select(j).then_some(match j.backend {
                Backend::Cycle => j.id % threads,
                Backend::Flow => j.topo % threads,
            })
        })
        .collect();
    let owner = &owner;
    let parts: Vec<Result<Vec<Option<reference::JobOutcome>>, SfError>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    let tracer = Tracer::new(false);
                    reference::run(text, &tracer, false, |id| owner[id] == Some(t))
                        .map(|o| o.outcomes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut merged: Vec<Option<reference::JobOutcome>> = vec![None; jobs.len()];
    for part in parts {
        for (slot, o) in merged.iter_mut().zip(part?) {
            if o.is_some() {
                *slot = o;
            }
        }
    }
    Ok(merged)
}

/// Whether the output check of a `--trace 0` run compares `job` with
/// the reference path: a third of the jobs, rotating with the seed, so
/// that consecutive seeds cover every job. Flow jobs go by topology,
/// so a checked lowering is computed once.
fn spot_checked(job: &Job, seed: u64) -> bool {
    let group = match job.backend {
        Backend::Cycle => job.id,
        Backend::Flow => job.topo,
    };
    group as u64 % 3 == seed % 3
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of `v`.
fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// What a run reports.
#[derive(Default)]
struct Report {
    problems: Vec<String>,
    attempted: usize,
    failed: usize,
    /// (name, value, unit), in print order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Extra lines for the human-readable summary.
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }
}

/// Checks every job of a pass: one record per load, and agreement
/// with the reference outcome where `refs` has one.
fn check_pass(
    jobs: &[Job],
    pass: &Pass,
    refs: Option<&[Option<reference::JobOutcome>]>,
) -> Vec<String> {
    jobs.iter()
        .flat_map(|j| {
            let want = refs.and_then(|r| r.get(j.id)).and_then(Option::as_ref);
            check::job_problems(j, &pass.outcomes[j.id], want)
        })
        .collect()
}

/// One pass in this process: set-up + `Scheduler::run`, then (with
/// `check`) the reference comparison of the spot-checked jobs. Prints
/// one `pass` line and a `problem` line per problem, for [`untraced`].
fn pass_child(text: &str, seed: u64, workers: usize, check: bool) -> Result<(), SfError> {
    let t = Instant::now();
    let mut set = setup(text)?;
    let setup_s = t.elapsed().as_secs_f64();
    let pass = run_pass(&mut set, workers)?;
    let peak = peak_rss_mb();
    let mut problems = check_pass(set.jobs(), &pass, None);
    if check {
        let refs = reference_outcomes(text, set.jobs(), workers, |j| spot_checked(j, seed))?;
        problems.extend(check_pass(set.jobs(), &pass, Some(&refs)));
    }
    println!(
        "pass {setup_s:?} {:?} {peak:?} {:016x} {} {}",
        pass.run_s,
        check::fnv1a(&pass.csv),
        set.jobs().len(),
        pass.failed()
    );
    for p in problems {
        println!("problem {p}");
    }
    Ok(())
}

/// Tracing off: passes until `seconds` of set-up + run have been
/// measured (at least one), each in a fresh process so that every pass
/// starts from a cold heap, as `sf-bench run` does, and its peak memory
/// is its own. The first pass also runs the output check. End-to-end
/// metrics are medians over the passes.
fn untraced(args: &Args, text: &str, workers: usize) -> Result<Report, SfError> {
    let exe = std::env::current_exe()?;
    let (mut setups, mut runs, mut figures, mut peaks) = (vec![], vec![], vec![], vec![]);
    let mut digests: Vec<String> = Vec::new();
    let mut rep = Report::default();
    let mut measured = 0.0;
    while runs.is_empty() || measured < args.seconds {
        let out = std::process::Command::new(&exe)
            .args([
                "--workload",
                &args.workload,
                "--seed",
                &args.seed.to_string(),
            ])
            .args(["--pass", if runs.is_empty() { "check" } else { "time" }])
            .stderr(std::process::Stdio::inherit())
            .output()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().find_map(|l| l.strip_prefix("pass "));
        let (Some(line), true) = (line, out.status.success()) else {
            return Err(SfError::Experiment(format!(
                "pass process failed: {}",
                out.status
            )));
        };
        let f: Vec<&str> = line.split(' ').collect();
        let num = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
        let (Some(setup_s), Some(run_s), Some(peak), Some(att), Some(failed)) =
            (num(0), num(1), num(2), num(4), num(5))
        else {
            return Err(SfError::Experiment(format!("bad pass line: {line}")));
        };
        setups.push(setup_s);
        runs.push(run_s);
        figures.push(setup_s + run_s);
        peaks.push(peak);
        digests.push(f[3].to_string());
        rep.attempted += att as usize;
        rep.failed += failed as usize;
        measured += setup_s + run_s;
        rep.problems.extend(
            stdout
                .lines()
                .filter_map(|l| l.strip_prefix("problem "))
                .map(|p| format!("pass {}: {p}", runs.len())),
        );
    }
    if digests.iter().any(|d| *d != digests[0]) {
        rep.problems.push(format!(
            "record stream digests differ between passes: {digests:?}"
        ));
    }
    while setups.iter().sum::<f64>() < MIN_SETUP_SECONDS {
        let t = Instant::now();
        drop(setup(text)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    rep.notes.push(format!(
        "passes = {}, set-ups = {}, workers = {workers}",
        runs.len(),
        setups.len()
    ));
    rep.notes
        .push(format!("record stream digest = {}", digests[0]));
    rep.notes.push(format!("run_s per pass = {runs:.3?}"));
    rep.metric("setup_s", median(&setups), "s");
    rep.metric("run_s", median(&runs), "s");
    rep.metric("figure_s", median(&figures), "s");
    rep.metric("peak_rss_mb", median(&peaks), "MB");
    Ok(rep)
}

/// Seconds a `--trace 1` run may have used before its last untraced
/// pass, which takes about as long as the traced one.
const TRACE_BUDGET_S: f64 = 100.0;

/// Routing labels with their own `sim.run_ms.<routing>` metric.
const ROUTING_LABELS: [&str; 4] = ["min", "ugal-g", "ugal-l", "fatpaths-2"];

/// Tracing on: a multi-worker pass, then the reference path untraced
/// and traced; per-layer metrics.
fn traced(
    text: &str,
    workers: usize,
    spans_path: &Path,
    cache_dir: &Path,
) -> Result<Report, SfError> {
    let started = Instant::now();
    let mut rep = Report::default();
    let mut set = setup(text)?;
    let par = run_pass(&mut set, workers)?;
    let jobs = set.jobs().to_vec();
    drop(set);
    rep.attempted = jobs.len();
    rep.failed = par.failed();

    // The same sequential path untraced, traced, untraced: the traced
    // time against the mean of the two untraced ones is the tracing
    // overhead, with drift and warm-up between passes averaged out.
    let (plain, _, before_s) = reference_figure(text, &Tracer::new(false))?;
    let tracer = Tracer::new(true);
    let t = Instant::now();
    let (out, records, traced_figure_s) = reference_figure(text, &tracer)?;
    {
        let _s = tracer.span("sink.jsonl");
        write_all(&mut JsonLinesSink::new(Vec::new()), &records)?;
    }
    let _ = std::fs::remove_dir_all(cache_dir);
    let cache = ResultCache::open(cache_dir)?;
    let mut stored = 0usize;
    for (job, o) in jobs.iter().zip(&out.outcomes) {
        if let Some(Ok(recs)) = o {
            let _s = tracer.span("cache.store");
            cache.store(&out.set.job_key(job), recs)?;
            stored += 1;
        }
    }
    let mut hits = 0usize;
    for job in &jobs {
        let _s = tracer.span("cache.lookup");
        hits += usize::from(cache.lookup(&out.set.job_key(job)).is_some());
    }
    let wall = t.elapsed().as_secs_f64();
    let cache_bytes = cache.stats()?.bytes;
    std::fs::remove_dir_all(cache_dir)?;
    tracer.write_jsonl(spans_path)?;
    // On a slow host the second untraced pass is skipped, to keep the
    // run well inside the 180 s a run may take.
    let untraced_figure_s = if started.elapsed().as_secs_f64() < TRACE_BUDGET_S {
        let (_, _, after_s) = reference_figure(text, &Tracer::new(false))?;
        (before_s + after_s) / 2.0
    } else {
        rep.notes
            .push("second untraced pass skipped: over the time budget".into());
        before_s
    };

    rep.problems
        .extend(check_pass(&jobs, &par, Some(&out.outcomes)));
    for (job, (traced, plain)) in jobs.iter().zip(out.outcomes.iter().zip(&plain.outcomes)) {
        if let (Some(traced), Some(plain)) = (traced, plain) {
            let problems = check::job_problems(job, traced, Some(plain));
            rep.problems.extend(
                problems
                    .into_iter()
                    .map(|p| format!("traced vs untraced: {p}")),
            );
        }
    }
    rep.notes.push(format!(
        "record stream digest = {:016x}",
        check::fnv1a(&par.csv)
    ));
    rep.notes
        .push(format!("spans written to {}", spans_path.display()));

    let selfs = tracer.self_times();
    let ms = |name: &str| selfs.get(name).copied().unwrap_or(0.0) * 1e3;
    let spans = tracer.spans();
    let job_s: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == trace::JOB)
        .map(|s| s.end - s.start)
        .collect();
    let st = &out.stats;
    let sim_run_s = selfs.get("sim.run").copied().unwrap_or(0.0);
    let attributed: f64 = selfs
        .iter()
        .filter(|(name, _)| **name != trace::JOB)
        .map(|(_, s)| s)
        .sum();

    for (metric, span) in [
        ("plan.parse_ms", "plan.parse"),
        ("plan.expand_ms", "plan.expand"),
        ("topo.build_ms", "topo.build"),
        ("topo.degrade_ms", "topo.degrade"),
        ("routing.tables_ms", "routing.tables"),
        ("routing.router_build_ms", "routing.router_build"),
        ("traffic.pattern_ms", "traffic.pattern"),
        ("verify.ms", "verify"),
    ] {
        rep.metric(metric, ms(span), "ms");
    }
    rep.metric("verify.combos", st.verify_combos as f64, "count");
    rep.metric("verify.cdg_combos", st.cdg_combos as f64, "count");
    rep.metric("verify.cdg_edges", st.cdg_edges as f64, "count");
    rep.metric("sim.new_ms", ms("sim.new"), "ms");
    rep.metric("sim.run_ms", ms("sim.run"), "ms");
    for label in ROUTING_LABELS {
        let v = st.sim_run_by_routing.get(label).copied().unwrap_or(0.0);
        rep.metric(&format!("sim.run_ms.{label}"), v * 1e3, "ms");
    }
    rep.metric("sim.cycles", st.cycles as f64, "count");
    rep.metric("sim.flits", st.flits as f64, "count");
    let per_s = |n: u64| {
        if sim_run_s > 0.0 {
            n as f64 / sim_run_s
        } else {
            0.0
        }
    };
    rep.metric("sim.flits_per_s", per_s(st.flits), "1/s");
    rep.metric("sim.cycles_per_s", per_s(st.cycles), "1/s");
    // The tail is the highest of these percentiles with at least ten
    // job samples beyond it; with too few samples it is the maximum.
    let n = st.cycle_job_s.len();
    let tail_pct = [99.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(100.0);
    rep.metric("sim.job_samples", n as f64, "count");
    rep.metric(
        "sim.job_p50_ms",
        percentile(&st.cycle_job_s, 50.0) * 1e3,
        "ms",
    );
    rep.metric("sim.job_tail_pct", tail_pct, "%");
    rep.metric(
        "sim.job_tail_ms",
        percentile(&st.cycle_job_s, tail_pct) * 1e3,
        "ms",
    );
    for (metric, span) in [
        ("flow.index_ms", "flow.index"),
        ("flow.demand_ms", "flow.demand"),
        ("flow.lower_ms", "flow.lower"),
        ("flow.eval_ms", "flow.eval"),
    ] {
        rep.metric(metric, ms(span), "ms");
    }
    rep.metric("flow.lowerings", st.lowerings as f64, "count");
    let reuse = if st.lowerings > 0 {
        st.flow_jobs as f64 / st.lowerings as f64
    } else {
        0.0
    };
    rep.metric("flow.reuse_ratio", reuse, "jobs/lowering");
    let job_sum: f64 = job_s.iter().sum();
    let longest = job_s.iter().copied().fold(0.0, f64::max);
    let bound = (job_sum / workers as f64).max(longest);
    rep.metric("schedule.efficiency", bound / par.run_s, "ratio");
    rep.metric("schedule.run_ms", par.run_s * 1e3, "ms");
    rep.metric("schedule.job_sum_ms", job_sum * 1e3, "ms");
    rep.metric("schedule.job_max_ms", longest * 1e3, "ms");
    rep.metric("schedule.workers", workers as f64, "count");
    rep.metric("schedule.steals", par.steals as f64, "count");
    rep.metric("cache.store_ms", ms("cache.store"), "ms");
    rep.metric("cache.lookup_ms", ms("cache.lookup"), "ms");
    let ratio = if jobs.is_empty() {
        0.0
    } else {
        hits as f64 / jobs.len() as f64
    };
    rep.metric("cache.hit_ratio", ratio, "ratio");
    rep.metric("cache.entries", stored as f64, "count");
    rep.metric("cache.bytes", cache_bytes as f64, "bytes");
    rep.metric("sink.csv_ms", ms("sink.csv"), "ms");
    rep.metric("sink.jsonl_ms", ms("sink.jsonl"), "ms");
    rep.metric(
        "trace.overhead_pct",
        (traced_figure_s / untraced_figure_s - 1.0) * 100.0,
        "%",
    );
    rep.metric("trace.attributed_pct", attributed / wall * 100.0, "%");
    rep.metric("trace.wall_ms", wall * 1e3, "ms");
    rep.metric("trace.spans", spans.len() as f64, "count");
    Ok(rep)
}

/// The whole plan along the reference path, then its records into a
/// CSV sink: the sequential counterpart of set-up + run. Returns the
/// output, its records and the elapsed seconds.
fn reference_figure(
    text: &str,
    tracer: &Tracer,
) -> Result<(reference::Output, Vec<Record>, f64), SfError> {
    let t = Instant::now();
    let out = reference::run(text, tracer, true, |_| true)?;
    let records: Vec<Record> = out
        .outcomes
        .iter()
        .flatten()
        .filter_map(|o| o.as_ref().ok())
        .flatten()
        .cloned()
        .collect();
    {
        let _s = tracer.span("sink.csv");
        write_all(&mut CsvSink::new(Vec::new()), &records)?;
    }
    Ok((out, records, t.elapsed().as_secs_f64()))
}

fn write_all(sink: &mut dyn RecordSink, records: &[Record]) -> Result<(), SfError> {
    sink.begin()?;
    for r in records {
        sink.record(r)?;
    }
    sink.finish()
}

/// A number for the JSON line: all its digits, and 0 for a non-finite
/// value (JSON has no NaN).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(text) = plans::plan_text(&args.workload, args.seed) else {
        eprintln!(
            "error: unknown workload {} (known: {})",
            args.workload,
            plans::WORKLOADS.join(", ")
        );
        return ExitCode::from(2);
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Every plan runs the engine on one thread per job, so one worker
    // per core keeps workers × engine threads ≤ nproc.
    let workers = nproc;
    if let Some(check) = args.pass {
        return match pass_child(&text, args.seed, workers, check) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = if args.trace {
        let tag = format!("{}-{}-{}", args.workload, args.seed, std::process::id());
        std::fs::create_dir_all(&args.work_dir)
            .map_err(SfError::from)
            .and_then(|_| {
                traced(
                    &text,
                    workers,
                    &args.work_dir.join(format!("spans-{tag}.jsonl")),
                    &args.work_dir.join(format!("cache-{tag}")),
                )
            })
    } else {
        untraced(&args, &text, workers)
    };
    let rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload = {}, seed = {}, trace = {}, nproc = {nproc}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for note in &rep.notes {
        println!("{note}");
    }
    println!("jobs = {} count", rep.attempted);
    println!("jobs_failed = {} count", rep.failed);
    for (name, value, unit) in &rep.metrics {
        println!("{name} = {value:.6} {unit}");
    }
    for p in rep.problems.iter().take(20) {
        println!("check: {p}");
    }
    let correct = rep.problems.is_empty();
    println!("output check: {}", if correct { "pass" } else { "FAIL" });
    let metrics: Vec<String> = rep
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.attempted.max(1),
        rep.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
