//! The DPOR scheduling policy.
//!
//! One controlled execution of a kernel runs its workers under an
//! `htm_core::coop::Executor` with the [`Controller`] policy: exactly one
//! thread runs at a time, and at every scheduling point the policy picks
//! the next thread (obeying a forced schedule prefix when the explorer
//! replays or extends a path).
//!
//! A *step* is everything a thread executes between two of its own pauses.
//! The controller records, per step, the chosen thread, the candidate set
//! the choice was made from, and the line-granular access footprint — the
//! inputs dynamic partial-order reduction needs.
//!
//! Threads that pause at [`CoopPoint::Blocked`] observed a condition only
//! another thread can change (a held lock, a committing slot, an odd
//! epoch). They are *disabled*: the controller does not schedule them while
//! any other thread is runnable, and re-enables them after any other thread
//! completes a step. Scheduling a blocked thread early would only re-run
//! its spin poll, so excluding it loses no behaviors. When every live
//! thread is blocked for several consecutive rounds the schedule is a
//! deadlock; a global step bound catches livelock/starvation. Either verdict
//! halts the executor, which unwinds every worker.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use htm_core::coop::{CoopPoint, Executor, Policy, ThreadState};

/// Line-granular step footprint: line id → whether the step wrote it.
/// [`htm_core::coop::EPOCH_LINE`] stands in for the hybrid commit epoch.
pub type Footprint = BTreeMap<u64, bool>;

/// Whether two step footprints conflict (both touch a line, at least one
/// write).
pub fn conflicts(a: &Footprint, b: &Footprint) -> bool {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small.iter().any(|(line, &w)| match large.get(line) {
        Some(&w2) => w || w2,
        None => false,
    })
}

/// One scheduling decision: which thread was granted a step, out of which
/// candidates, and what the step touched.
#[derive(Clone, Debug)]
pub struct Decision {
    /// Thread granted the step.
    pub chosen: u32,
    /// Runnable candidates the choice was made from. For grants that only
    /// re-enabled blocked threads this is just `[chosen]` (no real branch).
    pub candidates: Vec<u32>,
    /// The candidates were blocked threads re-enabled for a deadlock probe.
    pub promoted: bool,
    /// Access footprint of the step (filled when the thread next pauses).
    pub fp: Footprint,
    /// The point that ended the step; `None` means the thread finished.
    pub end_point: Option<CoopPoint>,
}

/// Why the controller aborted a schedule before it ran to completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SchedAbort {
    /// Every live thread stayed blocked across repeated probe rounds.
    Deadlock(String),
    /// The schedule exceeded the global step bound (livelock/starvation).
    StepBound(String),
    /// A forced schedule did not match the execution (internal error or a
    /// trace replayed against the wrong kernel/config).
    Divergence(String),
}

impl SchedAbort {
    pub fn message(&self) -> &str {
        match self {
            SchedAbort::Deadlock(m) | SchedAbort::StepBound(m) | SchedAbort::Divergence(m) => m,
        }
    }
}

/// Distinctive prefix of the panic the controller raises to tear a doomed
/// schedule down through the executor's worker-panic recovery.
pub const ABORT_PANIC_PREFIX: &str = "htm-model schedule abort";

/// The DPOR policy; [`Controller::new`] builds its executor.
pub struct Controller {
    max_steps: u64,
    preemption_bound: Option<u32>,
    forced: Vec<u32>,
    /// Footprint accumulating for each thread's open step; only that
    /// thread touches its slot, so the locks are uncontended.
    fp: Vec<Mutex<Footprint>>,
}

/// The decision log and bound counters, under the executor's lock.
pub struct DporState {
    log: Vec<Decision>,
    /// Index into `log` of each thread's open (unfinished) step.
    open: Vec<Option<usize>>,
    /// Consecutive grant rounds where only blocked threads were runnable.
    blocked_streak: u32,
    preemptions: u32,
    abort: Option<SchedAbort>,
}

impl DporState {
    /// Records the verdict and returns the message the workers unwind with.
    fn halt(&mut self, abort: SchedAbort) -> String {
        let message = format!("{ABORT_PANIC_PREFIX}: {}", abort.message());
        self.abort = Some(abort);
        message
    }
}

impl Controller {
    /// `forced` pins the first `forced.len()` grants; past the prefix the
    /// default policy picks (deterministically) the previously running
    /// thread if still runnable, else the lowest-numbered runnable thread.
    pub fn new(nthreads: u32, forced: Vec<u32>, max_steps: u64) -> Arc<Executor<Controller>> {
        Controller::build(nthreads, forced, max_steps, None)
    }

    /// Like [`Controller::new`] but capping preemptive context switches: a
    /// switch away from a still-runnable thread consumes one unit of
    /// `bound`; once exhausted, a runnable thread keeps running until it
    /// blocks or finishes.
    pub fn with_preemption_bound(
        nthreads: u32,
        forced: Vec<u32>,
        max_steps: u64,
        bound: u32,
    ) -> Arc<Executor<Controller>> {
        Controller::build(nthreads, forced, max_steps, Some(bound))
    }

    fn build(
        nthreads: u32,
        forced: Vec<u32>,
        max_steps: u64,
        preemption_bound: Option<u32>,
    ) -> Arc<Executor<Controller>> {
        let n = nthreads as usize;
        let policy = Controller {
            max_steps,
            preemption_bound,
            forced,
            fp: (0..n).map(|_| Mutex::new(Footprint::new())).collect(),
        };
        let state = DporState {
            log: Vec::new(),
            open: vec![None; n],
            blocked_streak: 0,
            preemptions: 0,
            abort: None,
        };
        Executor::new(nthreads, policy, state)
    }

    fn footprint(&self, tid: u32) -> std::sync::MutexGuard<'_, Footprint> {
        self.fp[tid as usize].lock().expect("footprint lock poisoned")
    }
}

impl Policy for Controller {
    type State = DporState;
    /// The decision log and the abort verdict.
    type Outcome = (Vec<Decision>, Option<SchedAbort>);

    fn access(&self, tid: u32, line: u64, write: bool) {
        *self.footprint(tid).entry(line).or_insert(false) |= write;
    }

    fn end_step(&self, s: &mut DporState, tid: u32, point: Option<CoopPoint>) {
        let fp = std::mem::take(&mut *self.footprint(tid));
        // Accesses before the first grant (worker preamble) belong to no
        // step; drop them rather than attributing them to a later one.
        if let Some(i) = s.open[tid as usize].take() {
            s.log[i].fp = fp;
            s.log[i].end_point = point;
        }
        if point != Some(CoopPoint::Blocked) {
            s.blocked_streak = 0;
        }
    }

    fn choose(
        &self,
        s: &mut DporState,
        threads: &[ThreadState],
        prev: Option<u32>,
    ) -> Result<u32, String> {
        let n = threads.len() as u32;
        let in_state =
            |want: ThreadState| (0..n).filter(|&t| threads[t as usize] == want).collect::<Vec<_>>();
        let ready = in_state(ThreadState::Ready);
        let (mut candidates, promoted) = if !ready.is_empty() {
            s.blocked_streak = 0;
            (ready, false)
        } else {
            // No thread is ready and at least one is live: all are blocked.
            let blocked = in_state(ThreadState::Blocked);
            s.blocked_streak += 1;
            if s.blocked_streak > 16 * n + 16 {
                return Err(s.halt(SchedAbort::Deadlock(format!(
                    "deadlock: threads {blocked:?} stayed blocked through {} probe rounds",
                    s.blocked_streak
                ))));
            }
            // Probe one blocked thread (it will re-check its condition and
            // re-block if nothing changed); the others stay blocked so the
            // streak keeps counting fruitless rounds.
            (blocked, true)
        };
        // A spent preemption budget pins the schedule to the running thread
        // until it blocks or finishes. Probe rounds are exempt: a probe is
        // not a preemption, and pinning it would starve the other blocked
        // threads of their re-check.
        if !promoted && self.preemption_bound.is_some_and(|b| s.preemptions >= b) {
            if let Some(p) = prev.filter(|p| candidates.contains(p)) {
                candidates = vec![p];
            }
        }
        let pos = s.log.len();
        let chosen = if let Some(&t) = self.forced.get(pos) {
            if t >= n || threads[t as usize] == ThreadState::Done {
                return Err(s.halt(SchedAbort::Divergence(format!(
                    "forced schedule picks thread {t} at step {pos}, but it is not runnable"
                ))));
            }
            t
        } else if promoted {
            // Rotate the probe across every blocked thread: one thread's
            // condition may hinge on another blocked thread being granted
            // first (a spin whose owner has since released), so declaring
            // deadlock is sound only after each thread re-checked
            // fruitlessly. Sticking with `prev` here would probe one
            // thread forever and report phantom deadlocks.
            candidates[(s.blocked_streak - 1) as usize % candidates.len()]
        } else if let Some(p) = prev.filter(|p| candidates.contains(p)) {
            p
        } else {
            candidates[0]
        };
        if prev.is_some_and(|p| chosen != p && threads[p as usize] == ThreadState::Ready) {
            s.preemptions += 1;
        }
        if pos as u64 >= self.max_steps {
            return Err(s.halt(SchedAbort::StepBound(format!(
                "starvation/livelock: schedule exceeded the {}-step bound",
                self.max_steps
            ))));
        }
        // Re-enabled blocked threads carry no real branch: record the grant
        // as forced so the explorer does not branch over spin polls.
        let candidates = if promoted { vec![chosen] } else { candidates };
        s.log.push(Decision {
            chosen,
            candidates,
            promoted,
            fp: Footprint::new(),
            end_point: None,
        });
        s.open[chosen as usize] = Some(pos);
        Ok(chosen)
    }

    fn outcome(s: &mut DporState) -> Self::Outcome {
        (std::mem::take(&mut s.log), s.abort.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_threads(ctrl: &Arc<Executor<Controller>>, bodies: Vec<Box<dyn FnOnce() + Send>>) {
        std::thread::scope(|scope| {
            for (tid, body) in bodies.into_iter().enumerate() {
                let ctrl = Arc::clone(ctrl);
                scope.spawn(move || {
                    let tid = tid as u32;
                    let hooks = ctrl.hooks(tid);
                    let _g = htm_core::coop::install(hooks);
                    let _f = ctrl.finish_guard(tid);
                    ctrl.register(tid);
                    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body));
                    // Swallow the abort panic: the test asserts on the
                    // structured verdict instead.
                    drop(r);
                });
            }
        });
    }

    #[test]
    fn serializes_two_threads_and_logs_footprints() {
        let ctrl = Controller::new(2, Vec::new(), 1000);
        let mk = |_tid: u32| {
            Box::new(move || {
                htm_core::coop::access(7, false);
                htm_core::coop::point(CoopPoint::BlockStart);
                htm_core::coop::access(7, true);
                htm_core::coop::point(CoopPoint::PreCommit);
            }) as Box<dyn FnOnce() + Send>
        };
        run_threads(&ctrl, vec![mk(0), mk(1)]);
        let (log, abort) = ctrl.take_result();
        assert!(abort.is_none(), "clean run: {abort:?}");
        // Each thread: preamble-to-BlockStart, BlockStart-to-PreCommit,
        // PreCommit-to-done = 3 steps.
        assert_eq!(log.len(), 6);
        let t0_writes: Vec<&Decision> =
            log.iter().filter(|d| d.chosen == 0 && d.fp.get(&7) == Some(&true)).collect();
        assert_eq!(t0_writes.len(), 1, "exactly one step carries thread 0's write");
        // Default policy without a forced prefix keeps running one thread to
        // completion before switching.
        assert_eq!(log.iter().map(|d| d.chosen).collect::<Vec<_>>(), vec![0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn forced_prefix_steers_the_interleaving() {
        let ctrl = Controller::new(2, vec![0, 1, 0, 1, 0, 1], 1000);
        let mk = |_tid: u32| {
            Box::new(move || {
                htm_core::coop::point(CoopPoint::BlockStart);
                htm_core::coop::point(CoopPoint::PreCommit);
            }) as Box<dyn FnOnce() + Send>
        };
        run_threads(&ctrl, vec![mk(0), mk(1)]);
        let (log, abort) = ctrl.take_result();
        assert!(abort.is_none(), "clean run: {abort:?}");
        assert_eq!(log.iter().map(|d| d.chosen).collect::<Vec<_>>(), vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn all_blocked_threads_is_reported_as_deadlock() {
        let ctrl = Controller::new(2, Vec::new(), 10_000);
        let mk = |_tid: u32| {
            Box::new(move || loop {
                htm_core::coop::point(CoopPoint::Blocked);
            }) as Box<dyn FnOnce() + Send>
        };
        run_threads(&ctrl, vec![mk(0), mk(1)]);
        let (_, abort) = ctrl.take_result();
        assert!(matches!(abort, Some(SchedAbort::Deadlock(_))), "got {abort:?}");
    }

    #[test]
    fn runaway_schedule_hits_the_step_bound() {
        let ctrl = Controller::new(1, Vec::new(), 64);
        let body = Box::new(move || loop {
            htm_core::coop::point(CoopPoint::BlockStart);
        }) as Box<dyn FnOnce() + Send>;
        run_threads(&ctrl, vec![body]);
        let (_, abort) = ctrl.take_result();
        assert!(matches!(abort, Some(SchedAbort::StepBound(_))), "got {abort:?}");
    }

    #[test]
    fn footprint_conflict_is_symmetric_and_write_sensitive() {
        let fp = |entries: &[(u64, bool)]| entries.iter().copied().collect::<Footprint>();
        let r7 = fp(&[(7, false)]);
        let w7 = fp(&[(7, true)]);
        let w9 = fp(&[(9, true)]);
        assert!(!conflicts(&r7, &r7), "read-read never conflicts");
        assert!(conflicts(&r7, &w7) && conflicts(&w7, &r7));
        assert!(conflicts(&w7, &w7));
        assert!(!conflicts(&w7, &w9), "distinct lines never conflict");
    }
}
