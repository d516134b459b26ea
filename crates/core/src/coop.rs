//! Cooperative scheduling: engine hooks and the one executor behind them.
//!
//! Two users drive the *real* engine through interleavings that repeat
//! exactly: the systematic concurrency explorer in `htm-model` and the
//! service workload in `htm-svc`. Rather than fork the engine, the
//! substrate exposes a thin per-thread hook layer: when hooks are installed
//! on a thread, the engine calls [`point`] at its scheduling points (block
//! start, pre-commit, each write-back store, and every spin that waits on
//! another thread) and [`access`] on every line-granular memory access.
//!
//! When no hooks are installed (every ordinary run), [`enabled`] is a
//! thread-local boolean read and both entry points are no-ops, so the
//! engine's hot path stays unperturbed.
//!
//! [`Executor`] is the one implementation of those hooks. It runs exactly
//! one registered thread at a time: at every scheduling point the running
//! thread hands a baton to the thread its [`Policy`] picks and parks on its
//! own condition variable, so each grant wakes only its grantee. The
//! executor owns the mechanism (thread states, the registration barrier,
//! grants, the finish guard, halting); a policy owns only the choice:
//! round-robin probing in `htm-svc`, a forced prefix plus step footprints
//! for DPOR in `htm-model`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Sentinel "line" reported for accesses to the hybrid-TM commit epoch
/// (a process-global sequence lock, not a simulated memory line). Using an
/// out-of-band id lets the explorer treat epoch bumps and epoch reads as
/// ordinary conflicting accesses.
pub const EPOCH_LINE: u64 = u64::MAX;

/// Where in the engine a cooperative pause happens.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoopPoint {
    /// An atomic block is about to start its first attempt.
    BlockStart,
    /// A transactional attempt finished its body and is about to try to
    /// commit (hardware, STM, or ROT commit protocol).
    PreCommit,
    /// A committing transaction is about to flush one buffered store to the
    /// arena (fires once per store, so torn write-backs are explorable).
    WriteBack,
    /// The thread is spinning on a condition only another thread can change
    /// (a held lock, a committing slot, an odd epoch). The controller must
    /// not reschedule it until some other thread makes progress.
    Blocked,
}

/// Hook interface installed per worker thread.
pub trait CoopHooks {
    /// Called at each scheduling point; blocks until the controller grants
    /// this thread the right to continue.
    fn pause(&self, point: CoopPoint);
    /// Reports one line-granular access (line id, is-write) for footprint
    /// capture. [`EPOCH_LINE`] is used for the hybrid commit epoch.
    fn access(&self, line: u64, write: bool);
}

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static HOOKS: RefCell<Option<Rc<dyn CoopHooks>>> = const { RefCell::new(None) };
}

/// Installs `hooks` on the current thread, returning a guard that removes
/// them on drop (including on unwind, so an aborted schedule cannot leak
/// hooks into a reused thread).
pub fn install(hooks: Rc<dyn CoopHooks>) -> CoopGuard {
    HOOKS.with(|h| *h.borrow_mut() = Some(hooks));
    ACTIVE.with(|a| a.set(true));
    CoopGuard { _priv: () }
}

/// Uninstall-on-drop guard returned by [`install`].
pub struct CoopGuard {
    _priv: (),
}

impl Drop for CoopGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(false));
        HOOKS.with(|h| *h.borrow_mut() = None);
    }
}

/// Whether cooperative hooks are installed on this thread.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.with(|a| a.get())
}

/// Pauses at a scheduling point (no-op unless hooks are installed).
#[inline]
pub fn point(p: CoopPoint) {
    if enabled() {
        point_slow(p);
    }
}

#[cold]
fn point_slow(p: CoopPoint) {
    // Clone the handle out of the RefCell before calling: the pause may park
    // for a long time and must not hold the borrow.
    let hooks = HOOKS.with(|h| h.borrow().clone());
    if let Some(hooks) = hooks {
        hooks.pause(p);
    }
}

/// Reports a line-granular access (no-op unless hooks are installed).
#[inline]
pub fn access(line: u64, write: bool) {
    if enabled() {
        access_slow(line, write);
    }
}

#[cold]
fn access_slow(line: u64, write: bool) {
    let hooks = HOOKS.with(|h| h.borrow().clone());
    if let Some(hooks) = hooks {
        hooks.access(line, write);
    }
}

/// Scheduling state of one executor thread, as a [`Policy`] sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ThreadState {
    /// Runnable: last paused at a point other than [`CoopPoint::Blocked`].
    Ready,
    /// Last paused at [`CoopPoint::Blocked`]; granting it is a probe.
    Blocked,
    /// Finished (its [`FinishGuard`] dropped).
    Done,
}

/// The choice an [`Executor`] delegates: whom to grant the next step.
///
/// A policy is shared by every thread (`&self`); its mutable scheduling
/// state lives under the executor's mutex and is passed in. No method may
/// panic: a policy that gives up returns `Err` from [`Policy::choose`].
pub trait Policy: Send + Sync + 'static {
    /// Scheduling state, guarded by the executor's mutex.
    type State: Send;
    /// What [`Executor::take_result`] drains once the run is over.
    type Outcome;
    /// A line access by running thread `tid`, made without the executor's
    /// lock.
    fn access(&self, tid: u32, line: u64, write: bool);
    /// Thread `tid` ended a step at `point`; `None` means it finished.
    fn end_step(&self, st: &mut Self::State, tid: u32, point: Option<CoopPoint>);
    /// Picks the next thread to grant. `threads` holds every thread's state
    /// (at least one is not [`ThreadState::Done`]) and `prev` the thread
    /// whose step just ended. `Err(message)` halts the run: every thread
    /// unwinds with `message` as its panic payload.
    fn choose(
        &self,
        st: &mut Self::State,
        threads: &[ThreadState],
        prev: Option<u32>,
    ) -> Result<u32, String>;
    /// Drains the run's outcome from the state.
    fn outcome(st: &mut Self::State) -> Self::Outcome;
}

struct Core<S> {
    threads: Vec<ThreadState>,
    registered: u32,
    /// Thread holding the baton (`None` between grants, once all are done,
    /// and after a halt).
    current: Option<u32>,
    /// Thread whose step ended last.
    prev: Option<u32>,
    /// Set once the policy halts the run: the panic message every thread
    /// unwinds with.
    halt: Option<String>,
    state: S,
}

/// Runs registered threads one at a time under a [`Policy`].
///
/// Each worker installs [`Executor::hooks`], takes a
/// [`Executor::finish_guard`], then calls [`Executor::register`] once
/// before touching shared state. The first grant happens when every thread
/// has registered.
pub struct Executor<P: Policy> {
    policy: P,
    core: Mutex<Core<P::State>>,
    /// One condition variable per thread: a grant wakes only its grantee.
    wake: Vec<Condvar>,
}

impl<P: Policy> Executor<P> {
    /// An executor for `nthreads` threads, starting from `state`.
    pub fn new(nthreads: u32, policy: P, state: P::State) -> Arc<Executor<P>> {
        Arc::new(Executor {
            policy,
            core: Mutex::new(Core {
                threads: vec![ThreadState::Ready; nthreads as usize],
                registered: 0,
                current: None,
                prev: None,
                halt: None,
                state,
            }),
            wake: (0..nthreads).map(|_| Condvar::new()).collect(),
        })
    }

    /// Per-thread hook handle for [`install`].
    pub fn hooks(self: &Arc<Executor<P>>, tid: u32) -> Rc<ExecutorHooks<P>> {
        Rc::new(ExecutorHooks { exec: Arc::clone(self), tid })
    }

    /// RAII completion guard: marks the thread done on drop (normal exit
    /// *and* unwind), so a panicking worker cannot strand its siblings.
    pub fn finish_guard(self: &Arc<Executor<P>>, tid: u32) -> FinishGuard<P> {
        FinishGuard { exec: Arc::clone(self), tid }
    }

    /// Registers thread `tid` and parks until its first grant.
    pub fn register(&self, tid: u32) {
        let mut s = self.lock();
        s.registered += 1;
        if s.registered == self.wake.len() as u32 {
            self.grant_next(&mut s, tid);
        }
        self.wait_for_grant(s, tid);
    }

    /// Drains the policy's outcome after the run.
    pub fn take_result(&self) -> P::Outcome {
        P::outcome(&mut self.lock().state)
    }

    fn lock(&self) -> MutexGuard<'_, Core<P::State>> {
        // Nothing panics while the lock is held (policies halt by value and
        // threads unwind only after releasing it), so it is never poisoned.
        self.core.lock().expect("coop executor lock poisoned")
    }

    fn pause(&self, tid: u32, point: CoopPoint) {
        let mut s = self.lock();
        self.policy.end_step(&mut s.state, tid, Some(point));
        s.threads[tid as usize] =
            if point == CoopPoint::Blocked { ThreadState::Blocked } else { ThreadState::Ready };
        if s.current == Some(tid) {
            s.prev = Some(tid);
            s.current = None;
            self.grant_next(&mut s, tid);
        }
        self.wait_for_grant(s, tid);
    }

    /// Runs in [`FinishGuard::drop`], possibly mid-unwind, so it never
    /// panics: a poisoned lock (a policy bug) is left alone.
    fn finish(&self, tid: u32) {
        let Ok(mut s) = self.core.lock() else { return };
        self.policy.end_step(&mut s.state, tid, None);
        s.threads[tid as usize] = ThreadState::Done;
        if s.current == Some(tid) || s.current.is_none() {
            s.prev = Some(tid);
            s.current = None;
            self.grant_next(&mut s, tid);
        }
    }

    /// Hands the baton to the policy's choice, waking only that thread
    /// (`caller` is running and needs no wake), or halts the run and wakes
    /// everyone to unwind.
    fn grant_next(&self, s: &mut Core<P::State>, caller: u32) {
        if s.halt.is_some() || s.threads.iter().all(|&t| t == ThreadState::Done) {
            return;
        }
        match self.policy.choose(&mut s.state, &s.threads, s.prev) {
            Ok(t) => {
                s.threads[t as usize] = ThreadState::Ready;
                s.current = Some(t);
                if t != caller {
                    self.wake[t as usize].notify_one();
                }
            }
            Err(message) => {
                s.halt = Some(message);
                for cv in &self.wake {
                    cv.notify_one();
                }
            }
        }
    }

    fn wait_for_grant(&self, mut s: MutexGuard<'_, Core<P::State>>, tid: u32) {
        loop {
            if let Some(message) = s.halt.clone() {
                drop(s);
                std::panic::panic_any(message);
            }
            if s.current == Some(tid) {
                return;
            }
            s = self.wake[tid as usize].wait(s).expect("coop executor lock poisoned");
        }
    }
}

/// Per-thread coop hook handle (see [`Executor::hooks`]).
pub struct ExecutorHooks<P: Policy> {
    exec: Arc<Executor<P>>,
    tid: u32,
}

impl<P: Policy> CoopHooks for ExecutorHooks<P> {
    fn pause(&self, point: CoopPoint) {
        self.exec.pause(self.tid, point);
    }
    fn access(&self, line: u64, write: bool) {
        self.exec.policy.access(self.tid, line, write);
    }
}

/// Marks a thread done on drop (see [`Executor::finish_guard`]).
pub struct FinishGuard<P: Policy> {
    exec: Arc<Executor<P>>,
    tid: u32,
}

impl<P: Policy> Drop for FinishGuard<P> {
    fn drop(&mut self) {
        self.exec.finish(self.tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell as StdRefCell;

    struct Log {
        pauses: StdRefCell<Vec<CoopPoint>>,
        accesses: StdRefCell<Vec<(u64, bool)>>,
    }

    impl CoopHooks for Log {
        fn pause(&self, p: CoopPoint) {
            self.pauses.borrow_mut().push(p);
        }
        fn access(&self, line: u64, write: bool) {
            self.accesses.borrow_mut().push((line, write));
        }
    }

    #[test]
    fn disabled_by_default_and_guard_restores() {
        assert!(!enabled());
        point(CoopPoint::BlockStart); // must be a no-op
        access(3, true);
        let log =
            Rc::new(Log { pauses: StdRefCell::new(vec![]), accesses: StdRefCell::new(vec![]) });
        {
            let _guard = install(Rc::clone(&log) as Rc<dyn CoopHooks>);
            assert!(enabled());
            point(CoopPoint::PreCommit);
            access(7, false);
        }
        assert!(!enabled());
        point(CoopPoint::WriteBack); // dropped guard: no-op again
        assert_eq!(*log.pauses.borrow(), vec![CoopPoint::PreCommit]);
        assert_eq!(*log.accesses.borrow(), vec![(7, false)]);
    }

    #[test]
    fn guard_uninstalls_on_unwind() {
        let log =
            Rc::new(Log { pauses: StdRefCell::new(vec![]), accesses: StdRefCell::new(vec![]) });
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = install(Rc::clone(&log) as Rc<dyn CoopHooks>);
            panic!("boom");
        }));
        assert!(r.is_err());
        assert!(!enabled(), "guard must uninstall during unwind");
    }
}
