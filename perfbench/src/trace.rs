//! In-memory span recorder for the traced run.
//!
//! A span is opened around one call into a layer's public functions
//! and closed when its guard drops; it records its name, start and end
//! (seconds since the tracer was made), the enclosing span and the job
//! it belongs to. Spans stay in memory until the run ends, when
//! [`Tracer::write_jsonl`] writes them out. A disabled tracer records
//! nothing, so the reference path runs the same code with or without
//! tracing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub job: Option<usize>,
}

/// Records spans on one thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    state: RefCell<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    job: Option<usize>,
}

/// Closes its span on drop.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    idx: Option<usize>,
    start: Instant,
}

impl Guard<'_> {
    /// Seconds since the span opened.
    pub fn elapsed(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.tracer.now();
            let mut st = self.tracer.state.borrow_mut();
            st.spans[idx].end = end;
            st.open.pop();
            if st.spans[idx].name == JOB {
                st.job = None;
            }
        }
    }
}

/// Name of the span that encloses one job's layer calls.
pub const JOB: &str = "job";

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            t0: Instant::now(),
            state: RefCell::default(),
        }
    }

    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Opens a span named `name` inside the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.open(name, None)
    }

    /// Opens the span of job `id`; spans opened inside it carry the id.
    pub fn job(&self, id: usize) -> Guard<'_> {
        self.open(JOB, Some(id))
    }

    fn open(&self, name: &'static str, job: Option<usize>) -> Guard<'_> {
        let start = Instant::now();
        if !self.on {
            return Guard {
                tracer: self,
                idx: None,
                start,
            };
        }
        let now = self.now();
        let mut st = self.state.borrow_mut();
        if job.is_some() {
            st.job = job;
        }
        let span = Span {
            name,
            start: now,
            end: now,
            parent: st.open.last().copied(),
            job: st.job,
        };
        let idx = st.spans.len();
        st.spans.push(span);
        st.open.push(idx);
        Guard {
            tracer: self,
            idx: Some(idx),
            start,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.state.borrow().spans.clone()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let st = self.state.borrow();
        let mut own: Vec<f64> = st.spans.iter().map(|s| s.end - s.start).collect();
        for s in &st.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, t) in st.spans.iter().zip(own) {
            *out.entry(s.name).or_insert(0.0) += t;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.state.borrow().spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"job\":{}}}",
                s.name,
                s.start * 1e6,
                s.end * 1e6,
                opt(s.parent),
                opt(s.job)
            )?;
        }
        w.flush()
    }
}
