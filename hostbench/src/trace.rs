//! In-memory spans and counts around the benchmark's calls into each layer.
//!
//! Recording lives in a thread-local buffer on the main thread (the
//! simulator's worker threads never record). When tracing is off, [`span`]
//! costs one thread-local flag read. Nothing is written until the run
//! ends: [`finish`] hands the buffer back and [`Trace::write_tsv`] saves it.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Which part of a traced run a pass belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassKind {
    /// A pass of the workload under measurement.
    Own,
    /// A pass of another workload, run once so that layers the workload
    /// never calls still get a figure.
    Reference,
    /// The layer micro-probes.
    Probe,
}

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `runtime.run_parallel`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Index into [`Trace::passes`].
    pub pass: usize,
    /// Nanoseconds since tracing started.
    pub start_ns: u64,
    /// Nanoseconds since tracing started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One counted quantity, attributed to a pass.
#[derive(Clone, Debug)]
pub struct Count {
    /// Counter name, e.g. `runtime.commits.hw`.
    pub name: &'static str,
    /// Index into [`Trace::passes`].
    pub pass: usize,
    /// Amount added.
    pub value: f64,
}

/// A recorded pass: which workload ran and in what role.
#[derive(Clone, Debug)]
pub struct PassInfo {
    /// Workload name.
    pub workload: &'static str,
    /// Role in the run.
    pub kind: PassKind,
}

/// Everything recorded in one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    /// Spans in the order they opened.
    pub spans: Vec<Span>,
    /// Counts in the order they were made.
    pub counts: Vec<Count>,
    /// Passes in the order they started.
    pub passes: Vec<PassInfo>,
    open: Vec<usize>,
}

thread_local! {
    static BUF: RefCell<Option<Trace>> = const { RefCell::new(None) };
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
}

/// Starts a fresh, inactive trace buffer on this thread.
pub fn start() {
    let t = Trace {
        origin: Instant::now(),
        spans: Vec::new(),
        counts: Vec::new(),
        passes: Vec::new(),
        open: Vec::new(),
    };
    BUF.with(|b| *b.borrow_mut() = Some(t));
    ACTIVE.with(|a| a.set(false));
}

/// Ends tracing and returns what was recorded (`None` if never started).
pub fn finish() -> Option<Trace> {
    ACTIVE.with(|a| a.set(false));
    BUF.with(|b| b.borrow_mut().take())
}

fn active() -> bool {
    ACTIVE.with(|a| a.get())
}

fn with_buf<R>(f: impl FnOnce(&mut Trace) -> R) -> R {
    BUF.with(|b| f(b.borrow_mut().as_mut().expect("trace::start was called")))
}

/// Runs `f` as a pass of `workload`, recording under it when `kind` is
/// `Some`; with `None` the pass runs untraced.
pub fn pass<R>(workload: &'static str, kind: Option<PassKind>, f: impl FnOnce() -> R) -> R {
    let Some(kind) = kind else {
        return f();
    };
    with_buf(|t| t.passes.push(PassInfo { workload, kind }));
    ACTIVE.with(|a| a.set(true));
    let r = span("pass", f);
    ACTIVE.with(|a| a.set(false));
    r
}

/// Times `f` as a span named `name` when tracing is active.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let idx = with_buf(|t| {
        let idx = t.spans.len();
        let start_ns = t.origin.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            parent: t.open.last().copied(),
            pass: t.passes.len() - 1,
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(idx);
        idx
    });
    let r = f();
    with_buf(|t| {
        t.spans[idx].end_ns = t.origin.elapsed().as_nanos() as u64;
        t.open.pop();
    });
    r
}

/// Adds `value` to counter `name` of the current pass when tracing is
/// active.
pub fn count(name: &'static str, value: f64) {
    if active() {
        with_buf(|t| {
            let pass = t.passes.len() - 1;
            t.counts.push(Count { name, pass, value });
        });
    }
}

impl Trace {
    /// Per-pass sums of the durations (ns) of spans named `name`, indexed
    /// by pass; `None` for passes that made no such call.
    pub(crate) fn span_sums(&self, name: &str) -> Vec<Option<f64>> {
        self.sums(self.spans.iter().filter(|s| s.name == name).map(|s| (s.pass, s.ns() as f64)))
    }

    /// Durations (ns) of each span named `name` in the passes `keep`
    /// selects.
    pub(crate) fn span_calls(&self, name: &str, keep: impl Fn(usize) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && keep(s.pass))
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Per-pass sums of counter `name`, indexed by pass; `None` for passes
    /// that never counted it.
    pub(crate) fn count_sums(&self, name: &str) -> Vec<Option<f64>> {
        self.sums(self.counts.iter().filter(|c| c.name == name).map(|c| (c.pass, c.value)))
    }

    fn sums(&self, items: impl Iterator<Item = (usize, f64)>) -> Vec<Option<f64>> {
        let mut per_pass: Vec<Option<f64>> = vec![None; self.passes.len()];
        for (pass, v) in items {
            *per_pass[pass].get_or_insert(0.0) += v;
        }
        per_pass
    }

    /// Writes every span and count as tab-separated rows.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "kind\tid\tparent\tpass\tworkload\trole\tname\tstart_ns\tend_ns\tvalue")?;
        for (id, s) in self.spans.iter().enumerate() {
            let p = &self.passes[s.pass];
            let parent = s.parent.map_or("-".to_string(), |i| i.to_string());
            writeln!(
                out,
                "span\t{id}\t{parent}\t{}\t{}\t{:?}\t{}\t{}\t{}\t-",
                s.pass, p.workload, p.kind, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            let p = &self.passes[c.pass];
            writeln!(
                out,
                "count\t-\t-\t{}\t{}\t{:?}\t{}\t-\t-\t{}",
                c.pass, p.workload, p.kind, c.name, c.value
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_sum_per_pass() {
        start();
        span("ignored", || ()); // no pass open: inactive
        for _ in 0..2 {
            pass("w", Some(PassKind::Own), || {
                span("outer", || {
                    span("inner", || std::thread::sleep(std::time::Duration::from_millis(1)));
                    span("inner", || ());
                    count("c", 2.0);
                });
            });
        }
        pass("w", None, || span("untraced", || count("c", 5.0)));
        let t = finish().unwrap();
        assert_eq!(t.passes.len(), 2);
        assert!(t.spans.iter().all(|s| s.name != "ignored" && s.name != "untraced"));
        let outer = t.spans.iter().position(|s| s.name == "outer").unwrap();
        assert!(t.spans.iter().filter(|s| s.name == "inner").all(|s| s.parent.is_some()));
        assert_eq!(t.spans[outer + 1].parent, Some(outer));
        let inner = t.span_sums("inner");
        assert_eq!(inner.len(), 2);
        assert!(inner.iter().all(|ns| ns.unwrap() >= 1e6));
        assert_eq!(t.span_calls("inner", |p| p == 0).len(), 2);
        assert_eq!(t.count_sums("c"), vec![Some(2.0), Some(2.0)]);
        assert_eq!(t.count_sums("missing"), vec![None, None]);
    }
}
