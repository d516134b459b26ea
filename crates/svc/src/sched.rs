//! Deterministic round-robin scheduling policy.
//!
//! Service cells must be bit-identical across runs (they cache and shard
//! over the fabric by content key), yet still exhibit *real* contention:
//! a worker parked at a pre-commit point holds an active footprint, so
//! other workers' atomic blocks genuinely conflict with it. Every worker
//! runs under one `htm_core::coop::Executor`, which runs exactly one thread
//! at a time; the [`RoundRobin`] policy rotates the grant to the next live
//! thread at every scheduling point. Unlike the model checker's
//! run-to-completion default (`htm-model`'s `Controller`), rotation
//! interleaves the workers fairly — the interleaving the statistics are
//! measured over is the same on every run, without serializing any one
//! thread's whole execution first.
//!
//! Simulated time is unaffected: one-at-a-time *host* execution does not
//! move the simulated clocks, so throughput and latency percentiles mean
//! what they would under free-running threads.
//!
//! Threads pausing at [`CoopPoint::Blocked`] observed a condition only
//! another thread can change (a held lock, a committing slot); the
//! rotation probes them like any other live thread. Probing is how
//! conflict chains unwind: the engine's claim protocol dooms the current
//! line owner and spins until the owner *runs* its rollback, and a probed
//! thread may roll back, release its lines, and move directly into another
//! blocked wait (the fallback lock, its next claim) without ever pausing
//! runnable. Progress is therefore detected from the engine's line-`access`
//! callbacks — a probed thread that gets anywhere issues one; a genuinely
//! deadlocked set never does — and the policy halts the run only after a
//! full bound of probe rounds with no access from anyone. Every worker then
//! unwinds with the `svc scheduler deadlock` message, so the run fails with
//! the diagnostic instead of hanging on a grant that will never come.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use htm_core::coop::{CoopPoint, Executor, Policy, ThreadState};

/// The round-robin policy; [`RoundRobin::new`] builds its executor.
pub struct RoundRobin {
    /// Counts engine line accesses (the liveness signal; see module docs).
    accesses: AtomicU64,
}

/// Deadlock bookkeeping, under the executor's lock.
#[derive(Default)]
pub struct Stall {
    /// Probe rounds since the last observed progress (a runnable thread,
    /// or any line access).
    rounds: u32,
    /// `RoundRobin::accesses` value at the last stall reset.
    seen: u64,
}

impl RoundRobin {
    /// Creates a round-robin executor for `nthreads` workers.
    pub fn new(nthreads: u32) -> Arc<Executor<RoundRobin>> {
        Executor::new(nthreads, RoundRobin { accesses: AtomicU64::new(0) }, Stall::default())
    }
}

impl Policy for RoundRobin {
    type State = Stall;
    type Outcome = ();

    fn access(&self, _tid: u32, _line: u64, _write: bool) {
        // Liveness signal only (see module docs): the granted thread got
        // far enough to touch a line, so the blocked set is not deadlocked.
        self.accesses.fetch_add(1, Ordering::Relaxed);
    }

    fn end_step(&self, st: &mut Stall, _tid: u32, point: Option<CoopPoint>) {
        if point != Some(CoopPoint::Blocked) {
            st.rounds = 0;
        }
    }

    /// Picks the first live thread after `prev` in cyclic order,
    /// *including* Blocked ones. Granting a blocked thread is the probe
    /// that lets it notice a doom or a released line; skipping blocked
    /// threads whenever somebody is Ready starves them — one thread that
    /// never blocks (the compaction loop) would then hold the schedule
    /// forever while doomed workers wait to be probed.
    fn choose(
        &self,
        st: &mut Stall,
        threads: &[ThreadState],
        prev: Option<u32>,
    ) -> Result<u32, String> {
        let n = threads.len() as u32;
        let start = prev.map_or(0, |p| p + 1);
        let chosen = (start..start + n)
            .map(|t| t % n)
            .find(|&t| threads[t as usize] != ThreadState::Done)
            .unwrap_or(0);
        if threads.contains(&ThreadState::Ready) {
            st.rounds = 0;
            return Ok(chosen);
        }
        // Everybody is blocked. A probed thread that unwinds a conflict
        // (rollback, retry, lock hand-off) issues at least one engine line
        // access before it can block again; only a probe round where
        // *nobody* has accessed anything counts toward deadlock.
        let seen = self.accesses.load(Ordering::Relaxed);
        if seen != st.seen {
            st.seen = seen;
            st.rounds = 0;
        }
        st.rounds += 1;
        if st.rounds > 64 * n + 256 {
            return Err(format!(
                "svc scheduler deadlock: all live threads stayed blocked through {} \
                 probe rounds with no line access from any thread",
                st.rounds
            ));
        }
        Ok(chosen)
    }

    fn outcome(_: &mut Stall) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::Mutex;

    type Body = Box<dyn FnOnce() + Send>;

    /// Runs one body per registered thread and returns each thread's
    /// outcome (`Err` carries its panic payload).
    fn run_threads(
        sched: &Arc<Executor<RoundRobin>>,
        bodies: Vec<Body>,
    ) -> Vec<Result<(), Box<dyn Any + Send>>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .into_iter()
                .enumerate()
                .map(|(tid, body)| {
                    let sched = Arc::clone(sched);
                    scope.spawn(move || {
                        let tid = tid as u32;
                        let _g = htm_core::coop::install(sched.hooks(tid));
                        let _f = sched.finish_guard(tid);
                        sched.register(tid);
                        body();
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join()).collect()
        })
    }

    #[test]
    fn rotates_grants_between_threads() {
        let sched = RoundRobin::new(3);
        let order = Arc::new(Mutex::new(Vec::new()));
        let mk = |tid: u32, order: Arc<Mutex<Vec<u32>>>| {
            Box::new(move || {
                for _ in 0..3 {
                    order.lock().unwrap().push(tid);
                    htm_core::coop::point(CoopPoint::BlockStart);
                }
            }) as Body
        };
        let outcomes = run_threads(&sched, (0..3).map(|t| mk(t, Arc::clone(&order))).collect());
        assert!(outcomes.iter().all(Result::is_ok));
        let order = order.lock().unwrap().clone();
        // Round-robin interleaves instead of running one thread to
        // completion: thread 0 runs first, and each slice rotates.
        assert_eq!(order, vec![0, 1, 2, 0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn blocked_threads_are_probed_not_starved() {
        let sched = RoundRobin::new(2);
        let flag = Arc::new(Mutex::new(false));
        let f0 = Arc::clone(&flag);
        let t0 = Box::new(move || {
            // Spin until thread 1 sets the flag; pause Blocked per poll.
            loop {
                if *f0.lock().unwrap() {
                    break;
                }
                htm_core::coop::point(CoopPoint::Blocked);
            }
        }) as Body;
        let f1 = Arc::clone(&flag);
        let t1 = Box::new(move || {
            htm_core::coop::point(CoopPoint::BlockStart);
            *f1.lock().unwrap() = true;
        }) as Body;
        assert!(run_threads(&sched, vec![t0, t1]).iter().all(Result::is_ok));
        assert!(*flag.lock().unwrap());
    }

    #[test]
    fn all_blocked_forever_is_a_deadlock() {
        // The halt must reach every thread: no sibling may keep spinning on
        // a dead schedule.
        for n in [1, 3] {
            let sched = RoundRobin::new(n);
            let blocked_forever = || {
                Box::new(|| loop {
                    htm_core::coop::point(CoopPoint::Blocked);
                }) as Body
            };
            let outcomes = run_threads(&sched, (0..n).map(|_| blocked_forever()).collect());
            for outcome in &outcomes {
                let payload = outcome.as_ref().expect_err("every thread must unwind");
                let msg = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(msg.starts_with("svc scheduler deadlock"), "{n} threads: {msg:?}");
            }
        }
    }
}
