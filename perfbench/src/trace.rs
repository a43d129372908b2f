//! Outside-in span recorder.
//!
//! Spans are recorded by the benchmark around its own calls into the
//! repository's public functions; nothing inside the simulator is
//! instrumented. Each span carries its name, start and end (ns since
//! the recorder's epoch), the span that caused it and the round it
//! belongs to. Finished spans go into a per-thread buffer; job closures
//! that run on sweep worker threads call [`flush`] before returning, so
//! the buffers are merged into one in-memory list while the worker still
//! exists. The list is written out once, when the run ends.
//!
//! Recording is off unless [`enable`] turned it on, and then costs one
//! relaxed atomic load per span site.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// Round the span belongs to.
    pub run: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RUN: AtomicU32 = AtomicU32::new(0);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SINK: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    /// Open spans on this thread, innermost last.
    stack: Vec<u64>,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turn recording on or off for every thread.
pub fn enable(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tag the spans recorded from now on with round `run`.
pub fn set_run(run: u32) {
    RUN.store(run, Ordering::SeqCst);
}

/// Innermost open span on the calling thread (0 = none).
pub fn current() -> u64 {
    if !enabled() {
        return 0;
    }
    LOCAL.with(|l| l.borrow().stack.last().copied().unwrap_or(0))
}

/// An open span; records itself when dropped, so a span closes even if
/// the call it wraps unwinds.
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Drop for Open {
    fn drop(&mut self) {
        let span = Span {
            id: self.id,
            parent: self.parent,
            run: RUN.load(Ordering::Relaxed),
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        };
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            l.spans.push(span);
        });
    }
}

/// Record `f` as a span under the innermost open span of this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    span_under(current(), name, f)
}

/// Record `f` as a span caused by `parent`, a span opened on another
/// thread (the sweep call that handed this job to a worker).
pub fn span_under<R>(parent: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    LOCAL.with(|l| l.borrow_mut().stack.push(id));
    let _open = Open {
        id,
        parent,
        name,
        start_ns: now_ns(),
    };
    f()
}

/// Merge this thread's finished spans into the shared list.
pub fn flush() {
    let spans = LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans));
    if !spans.is_empty() {
        SINK.lock()
            .expect("span sink poisoned by a panicking flush")
            .extend(spans);
    }
}

/// Every span recorded so far, merged across threads, in start order.
pub fn drain() -> Vec<Span> {
    flush();
    let mut spans = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.id));
    spans
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone)]
pub struct NameTotals {
    pub count: u64,
    pub total_s: f64,
    /// Duration minus the part of it covered by child spans.
    pub self_s: f64,
    pub max_s: f64,
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it (children on other threads may
/// overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 * 1e-9
        })
        .collect()
}

/// Totals per span name, sorted by name.
pub fn totals(spans: &[Span]) -> Vec<(&'static str, NameTotals)> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, NameTotals> = HashMap::new();
    for (s, self_s) in spans.iter().zip(selfs) {
        let t = by.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.secs();
        t.self_s += self_s;
        t.max_s = t.max_s.max(s.secs());
    }
    let mut out: Vec<_> = by.into_iter().collect();
    out.sort_by_key(|(name, _)| *name);
    out
}

/// Write the spans as tab-separated lines: id, parent, run, name,
/// start_ns, end_ns.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trun\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.run, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 0,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [sp(1, 0, 0, 100), sp(2, 1, 10, 50), sp(3, 1, 30, 70)];
        let selfs = self_times(&spans);
        assert!((selfs[0] - 40e-9).abs() < 1e-15);
        assert!((selfs[1] - 40e-9).abs() < 1e-15);
    }
}
