//! The work-stealing sweep scheduler.
//!
//! A [`Scheduler`] executes a [`JobSet`] on persistent worker threads:
//! every worker owns a deque seeded round-robin with job ids, pops its
//! own work from the front, and **steals from the back of a sibling's
//! deque** when it runs dry — so a heterogeneous sweep (a saturated
//! load next to one that drains instantly) keeps every core busy
//! instead of leaving stragglers with a pre-assigned chunk. The same
//! loop runs for every worker count: a one-worker run is one scoped
//! worker thread feeding the calling thread's reorder frontier.
//!
//! # Deterministic streaming
//!
//! Jobs finish in arbitrary order, but records reach the
//! [`RecordSink`] strictly in **job-id order**: completed jobs park in
//! a reorder buffer until every lower id has been emitted, then stream
//! out immediately. The observable record stream is therefore
//! byte-identical for any worker count — `workers = 1` and
//! `workers = 16` produce the same file — while each record is still
//! written as soon as its turn arrives (no whole-sweep buffering).
//!
//! # Oversubscription policy
//!
//! Cycle-engine jobs may themselves be multi-threaded (`[sweep.sim]
//! threads`, see `sf_sim::engine`), so two thread pools compete for
//! the same cores. The default (machine-derived) worker count is
//! therefore clamped per run to `available_parallelism /
//! max(engine threads over the jobs)` — workers × engine threads
//! never exceeds the core count unless the operator explicitly asks:
//! a nonzero `Scheduler::new` argument (`--workers`) or an
//! `SF_WORKERS` override is honored verbatim.
//! The clamp only moves wall-clock time, never output: both layers
//! are deterministic for any thread/worker count.
//!
//! ```no_run
//! use slimfly::prelude::*;
//! use slimfly::plan::ExperimentPlan;
//! use slimfly::schedule::Scheduler;
//! use slimfly::sink::MemorySink;
//!
//! let plan = ExperimentPlan::from_path("figures/fig8.toml".as_ref())?;
//! let mut set = plan.expand()?;
//! let mut sink = MemorySink::new();
//! let report = Scheduler::new(4).run(&mut set, &mut sink)?;
//! assert_eq!(report.records, sink.records().len());
//! # Ok::<(), slimfly::SfError>(())
//! ```

use crate::cache::ResultCache;
use crate::error::SfError;
use crate::experiment::Record;
use crate::plan::JobSet;
use crate::sink::RecordSink;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Executes [`JobSet`]s on persistent work-stealing workers; see the
/// [module docs](self).
#[derive(Clone, Debug)]
pub struct Scheduler {
    workers: usize,
    /// Whether `workers` was requested explicitly (constructor arg or
    /// `SF_WORKERS`). Explicit counts are honored verbatim; the
    /// machine-derived default additionally clamps against the jobs'
    /// engine thread counts in [`Scheduler::run`] so scheduler
    /// workers × engine threads never oversubscribe
    /// `available_parallelism` unless the operator asked for it.
    explicit: bool,
    /// Optional persistent result cache, consulted per job before any
    /// worker claims it; see [`Scheduler::with_cache`].
    cache: Option<ResultCache>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(0)
    }
}

impl Scheduler {
    /// A scheduler with the given worker count; `0` selects
    /// [`Scheduler::default_workers`] (and enables the oversubscription
    /// clamp described there — an explicit nonzero count is honored
    /// verbatim).
    pub fn new(workers: usize) -> Self {
        if workers > 0 {
            return Scheduler {
                workers,
                explicit: true,
                cache: None,
            };
        }
        if let Some(n) = Self::env_workers() {
            return Scheduler {
                workers: n,
                explicit: true,
                cache: None,
            };
        }
        Scheduler {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            explicit: false,
            cache: None,
        }
    }

    /// Attaches (or detaches, with `None`) a persistent
    /// [`ResultCache`]. Before any worker claims a job, the scheduler
    /// looks its [content address](JobSet::job_key) up: hits stream
    /// their stored records through the same job-id-ordered reorder
    /// frontier as simulated results — the sink cannot tell the
    /// difference, so a warm run's output is byte-identical to a cold
    /// one — and only the misses are dealt to the worker deques.
    /// Completed misses write through on the emitter thread; a store
    /// failure is counted ([`ScheduleReport::cache_store_errors`]),
    /// never fatal. The cache key excludes engine `threads` and is
    /// independent of the worker count, so any thread/worker
    /// combination shares one entry per job.
    pub fn with_cache(mut self, cache: Option<ResultCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The attached result cache, if any.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// The environment override, if any: a positive `SF_WORKERS`.
    fn env_workers() -> Option<usize> {
        std::env::var("SF_WORKERS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
    }

    /// The environment-driven default worker count: `SF_WORKERS` if
    /// set, else the machine's available parallelism. When the
    /// variable is not set the count is treated as machine-derived,
    /// and [`Scheduler::run`] additionally divides it by the largest
    /// engine thread count among the jobs, so a sweep of `threads = 4`
    /// simulations on an 8-core box runs 2 workers × 4 engine threads
    /// instead of 8 × 4 = 32 runnable threads (the `dev-sched` 0.86×
    /// oversubscription regression).
    pub fn default_workers() -> usize {
        Self::env_workers().unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The configured worker count (before the per-run clamps).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker count a run over `jobs` jobs with at most
    /// `engine_threads` engine threads per job actually uses on a
    /// `cores`-way machine: capped at the job count, and — for
    /// machine-derived defaults only — at `cores / engine_threads`, so
    /// the product of scheduler workers and intra-simulation engine
    /// threads never exceeds available parallelism by default.
    /// Explicitly requested counts (`--workers`, `SF_WORKERS`) skip the
    /// oversubscription clamp: the operator's word wins.
    fn effective_workers(&self, jobs: usize, engine_threads: usize, cores: usize) -> usize {
        let mut w = self.workers.min(jobs).max(1);
        if !self.explicit {
            w = w.min((cores / engine_threads.max(1)).max(1));
        }
        w
    }

    /// Runs every job of `set`, streaming records to `sink` in job-id
    /// order (see the [module docs](self)). Prepares the set if the
    /// caller has not. On a job failure, workers skip every job after
    /// the lowest failing id but still run the jobs before it; that
    /// job's error is returned once in-flight jobs drain, and the
    /// records of every job *preceding* it keep streaming — the
    /// completed prefix survives in every sink, the same for any
    /// worker count.
    pub fn run(
        &self,
        set: &mut JobSet,
        sink: &mut dyn RecordSink,
    ) -> Result<ScheduleReport, SfError> {
        set.prepare()?;
        // sf-lint: allow(wall-clock): operator-facing elapsed-time meter; never feeds records
        let t0 = Instant::now();
        let jobs = set.jobs();
        let engine_threads = jobs.iter().map(|j| j.sim.threads.max(1)).max().unwrap_or(1);
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        // Cache prepass: resolve every job's content address before
        // any worker claims anything. Hits park in the reorder
        // frontier up front (they stream in job-id order exactly like
        // simulated results); only misses are dealt to workers — so
        // the worker count, the steal pattern, and the wall-clock all
        // scale with the *delta*, not the plan size.
        let mut hits: BTreeMap<usize, Vec<Record>> = BTreeMap::new();
        if let Some(cache) = &self.cache {
            for job in jobs {
                if let Some(records) = cache.lookup(&set.job_key(job)) {
                    // Belt and braces: an entry that does not carry
                    // one record per load cannot be this job's.
                    if records.len() == job.loads.len() {
                        hits.insert(job.id, records);
                    }
                }
            }
        }
        let cache_hits = hits.len();
        let cache_misses = if self.cache.is_some() {
            jobs.len() - cache_hits
        } else {
            0
        };
        let miss_ids: Vec<usize> = jobs
            .iter()
            .map(|j| j.id)
            .filter(|id| !hits.contains_key(id))
            .collect();
        let workers = self.effective_workers(miss_ids.len(), engine_threads, cores);
        // Seed the worker deques round-robin over the *misses* so
        // consecutive (often similarly heavy) jobs land on different
        // workers.
        let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new(miss_ids.iter().copied().skip(w).step_by(workers).collect()))
            .collect();
        let steal_count = AtomicUsize::new(0);
        // The lowest failing job id so far (`usize::MAX`: none; `0`
        // after a sink failure). Workers skip every job above it, so a
        // failing sweep does not burn hours on doomed work, yet every
        // job below it still runs: the error and the completed prefix
        // are the same for any worker count.
        let stop = AtomicUsize::new(usize::MAX);
        let mut cache_store_errors = 0usize;
        let mut frontier = Frontier::new(hits);
        sink.begin()?;
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for w in 0..workers {
                let tx = tx.clone();
                let queues = &queues;
                let steal_count = &steal_count;
                let stop = &stop;
                let set: &JobSet = set;
                scope.spawn(move || loop {
                    // Own deque first (front), then steal from the
                    // back of the first non-empty sibling.
                    let mut claimed = queues[w].lock().expect("queue poisoned").pop_front();
                    if claimed.is_none() {
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            claimed = queues[victim].lock().expect("queue poisoned").pop_back();
                            if claimed.is_some() {
                                steal_count.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                    let Some(id) = claimed else { break };
                    if id > stop.load(Ordering::Relaxed) {
                        continue;
                    }
                    let result = set.run_job(&set.jobs()[id]);
                    if result.is_err() {
                        stop.fetch_min(id, Ordering::Relaxed);
                    }
                    if tx.send((id, result)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            // Drain once before listening so an all-hit prefix streams
            // immediately.
            frontier.drain(&mut *sink, &stop);
            for (id, result) in rx {
                match result {
                    Ok(records) => {
                        // Write-through on the emitter thread (the
                        // workers stay pure simulation); a store
                        // failure downgrades to a counter.
                        if let Some(cache) = &self.cache {
                            if cache.store(&set.job_key(&jobs[id]), &records).is_err() {
                                cache_store_errors += 1;
                            }
                        }
                        frontier.pending.insert(id, records);
                    }
                    Err(e) => frontier.fail(id, e),
                }
                frontier.drain(&mut *sink, &stop);
            }
        });
        let emitted = frontier.emitted;
        if let Some(e) = frontier.into_error() {
            // Best-effort flush so the completed prefix reaches disk
            // before the error surfaces (a finish failure here cannot
            // outrank the original error).
            let _ = sink.finish();
            return Err(e);
        }
        sink.finish()?;
        Ok(ScheduleReport {
            jobs: jobs.len(),
            records: emitted,
            workers,
            steals: steal_count.into_inner(),
            cache_hits,
            cache_misses,
            cache_store_errors,
            wall: t0.elapsed(),
        })
    }
}

/// The reorder frontier of one [`Scheduler::run`]: completed jobs park
/// in `pending` until every lower job id has been emitted, then stream
/// to the sink strictly in job-id order.
struct Frontier {
    pending: BTreeMap<usize, Vec<Record>>,
    /// The next job id to emit.
    next: usize,
    /// Records streamed to the sink so far.
    emitted: usize,
    /// Lowest failing job id and its error; records of complete jobs
    /// *below* that id still stream (the completed prefix survives in
    /// every sink).
    job_err: Option<(usize, SfError)>,
    /// A sink failure stops emission outright.
    sink_err: Option<SfError>,
}

impl Frontier {
    fn new(pending: BTreeMap<usize, Vec<Record>>) -> Self {
        Frontier {
            pending,
            next: 0,
            emitted: 0,
            job_err: None,
            sink_err: None,
        }
    }

    /// Records job `id`'s failure, keeping the lowest failing id.
    fn fail(&mut self, id: usize, e: SfError) {
        if self.job_err.as_ref().is_none_or(|(eid, _)| id < *eid) {
            self.job_err = Some((id, e));
        }
    }

    /// Streams every parked job whose turn has come, up to (never
    /// past) the lowest failing id. A sink failure sets `stop` to 0 so
    /// workers skip every job still queued.
    fn drain(&mut self, sink: &mut dyn RecordSink, stop: &AtomicUsize) {
        let end = self.job_err.as_ref().map_or(usize::MAX, |(eid, _)| *eid);
        while self.sink_err.is_none() && self.next < end {
            let Some(records) = self.pending.remove(&self.next) else {
                break;
            };
            for r in &records {
                if let Err(e) = sink.record(r) {
                    self.sink_err = Some(e);
                    stop.store(0, Ordering::Relaxed);
                    return;
                }
                self.emitted += 1;
            }
            self.next += 1;
        }
    }

    /// The run's error, if any: a sink failure outranks a job failure.
    fn into_error(self) -> Option<SfError> {
        self.sink_err.or(self.job_err.map(|(_, e)| e))
    }
}

/// Summary of one [`Scheduler::run`].
#[derive(Clone, Debug)]
pub struct ScheduleReport {
    /// Jobs executed.
    pub jobs: usize,
    /// Records streamed to the sink.
    pub records: usize,
    /// Worker threads actually used (capped at the job count and, for
    /// machine-derived defaults, by the oversubscription clamp — see
    /// the [module docs](self)).
    pub workers: usize,
    /// Successful steals between worker deques (0 at one worker).
    pub steals: usize,
    /// Jobs served from the attached [`ResultCache`] (0 when no cache
    /// is attached). `cache_hits + cache_misses = jobs` exactly when a
    /// cache is in play.
    pub cache_hits: usize,
    /// Jobs that simulated because the cache had no valid entry — the
    /// *delta* of an incremental resubmission (0 when no cache is
    /// attached).
    pub cache_misses: usize,
    /// Completed jobs whose write-through to the cache failed (disk
    /// full, permissions); the run itself is unaffected.
    pub cache_store_errors: usize,
    /// Wall-clock execution time (excluding [`JobSet::prepare`] when
    /// the caller prepared the set beforehand).
    pub wall: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ExperimentPlan;
    use crate::sink::MemorySink;

    fn tiny_plan(warm: bool) -> ExperimentPlan {
        ExperimentPlan::from_toml_str(&format!(
            r#"
            [figure]
            name = "sched-test"
            [[sweep]]
            topo = "sf:q=5"
            routing = ["min", "val"]
            loads = [0.1, 0.2, 0.3]
            warm_start = {warm}
            [sweep.sim]
            warmup = 120
            measure = 240
            drain = 800
            "#
        ))
        .unwrap()
    }

    fn csv_of(plan: &ExperimentPlan, workers: usize) -> String {
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let report = Scheduler::new(workers).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.records, set.num_records());
        sink.records()
            .iter()
            .map(|r| r.to_csv())
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn parallel_stream_is_byte_identical_to_sequential() {
        for warm in [false, true] {
            let plan = tiny_plan(warm);
            let seq = csv_of(&plan, 1);
            let par = csv_of(&plan, 4);
            assert_eq!(seq, par, "warm={warm}");
        }
    }

    #[test]
    fn report_counts_jobs_and_workers() {
        let plan = tiny_plan(false);
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let report = Scheduler::new(3).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.jobs, 6);
        assert_eq!(report.records, 6);
        assert_eq!(report.workers, 3);
        // Worker cap: more workers than jobs clamps.
        let report = Scheduler::new(64).run(&mut set, &mut sink).unwrap();
        assert_eq!(report.workers, 6);
    }

    #[test]
    fn job_errors_surface_after_drain() {
        // A worst-case pattern on a topology without one fails inside
        // the job, not at expansion.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "err"
            [[sweep]]
            topo = "dln:nr=4,y=2"
            traffic = "worst"
            loads = [0.1]
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        for workers in [1, 2] {
            let mut sink = MemorySink::new();
            let err = Scheduler::new(workers)
                .run(&mut set, &mut sink)
                .unwrap_err();
            assert!(
                matches!(err, SfError::Traffic(_)),
                "workers={workers}: {err}"
            );
            assert!(sink.records().is_empty(), "workers={workers}");
        }
    }

    #[test]
    fn completed_prefix_streams_despite_a_later_job_error() {
        // Job 0 (uniform sf:q=5) succeeds, job 1 (worst-case on a DLN)
        // fails fast — often *before* job 0 completes on the second
        // worker. The error must surface, but job 0's record precedes
        // the failing id and must still reach the sink.
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "prefix"
            [defaults.sim]
            warmup = 150
            measure = 300
            drain = 1000
            [[sweep]]
            topo = "sf:q=5"
            loads = [0.3]
            [[sweep]]
            topo = "dln:nr=4,y=2"
            traffic = "worst"
            loads = [0.1]
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        for workers in [1, 2] {
            let mut sink = MemorySink::new();
            let err = Scheduler::new(workers)
                .run(&mut set, &mut sink)
                .unwrap_err();
            assert!(
                matches!(err, SfError::Traffic(_)),
                "workers={workers}: {err}"
            );
            assert_eq!(
                sink.records().len(),
                1,
                "workers={workers}: job 0's record must survive"
            );
            assert_eq!(sink.records()[0].spec, "sf:q=5");
        }
    }

    #[test]
    fn a_sink_error_stops_emission_and_surfaces() {
        /// Takes one record, then fails like a closed pipe.
        struct OneThenBrokenPipe(usize);
        impl RecordSink for OneThenBrokenPipe {
            fn record(&mut self, _: &Record) -> Result<(), SfError> {
                self.0 += 1;
                if self.0 > 1 {
                    return Err(SfError::Io(std::io::ErrorKind::BrokenPipe.into()));
                }
                Ok(())
            }
        }
        let mut set = tiny_plan(false).expand().unwrap();
        for workers in [1, 2] {
            let mut sink = OneThenBrokenPipe(0);
            let err = Scheduler::new(workers)
                .run(&mut set, &mut sink)
                .unwrap_err();
            assert!(
                matches!(&err, SfError::Io(e) if e.kind() == std::io::ErrorKind::BrokenPipe),
                "workers={workers}: {err}"
            );
            assert_eq!(sink.0, 2, "workers={workers}: no record after the failure");
        }
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(Scheduler::default_workers() >= 1);
        assert!(Scheduler::default().workers() >= 1);
    }

    #[test]
    fn oversubscription_clamp_divides_default_workers_by_engine_threads() {
        let implicit = Scheduler {
            workers: 8,
            explicit: false,
            cache: None,
        };
        // 8 cores / 4 engine threads → 2 workers; jobs are plentiful.
        assert_eq!(implicit.effective_workers(100, 4, 8), 2);
        // Sequential engines keep the full default.
        assert_eq!(implicit.effective_workers(100, 1, 8), 8);
        // The clamp never starves the run below one worker.
        assert_eq!(implicit.effective_workers(100, 16, 1), 1);
        // Job-count cap still applies first.
        assert_eq!(implicit.effective_workers(3, 1, 8), 3);

        // Explicit counts (--workers / SF_WORKERS) skip the clamp.
        let explicit = Scheduler {
            workers: 8,
            explicit: true,
            cache: None,
        };
        assert_eq!(explicit.effective_workers(100, 4, 8), 8);
        assert_eq!(explicit.effective_workers(3, 4, 8), 3);
    }

    #[test]
    fn engine_threaded_jobs_clamp_a_default_run_to_the_core_budget() {
        // Every job asks for more engine threads than the machine has
        // cores, so a machine-derived default must fall to one worker
        // (the engine's own threads fill the budget).
        let plan = ExperimentPlan::from_toml_str(
            r#"
            [figure]
            name = "clamp"
            [[sweep]]
            topo = "sf:q=5"
            routing = ["min", "val"]
            loads = [0.1, 0.2]
            [sweep.sim]
            warmup = 120
            measure = 240
            drain = 800
            threads = 64
            "#,
        )
        .unwrap();
        let mut set = plan.expand().unwrap();
        let mut sink = MemorySink::new();
        let sched = Scheduler {
            workers: Scheduler::default_workers(),
            explicit: false,
            cache: None,
        };
        let report = sched.run(&mut set, &mut sink).unwrap();
        assert_eq!(report.workers, 1);
        assert_eq!(report.records, 4);
    }
}
