//! Happens-before machinery for the race sanitizer.
//!
//! The paper's emulator counts aborts but cannot tell whether a workload is
//! *correctly synchronized*: a non-transactional store racing with a
//! transactional read silently corrupts results without ever showing up in
//! an abort counter. This module provides a FastTrack-style vector-clock
//! happens-before checker in the spirit of ThreadSanitizer, adapted to the
//! simulator's execution model:
//!
//! * each worker thread carries a [`VectorClock`]; release edges are drawn
//!   at global-lock hand-offs and phase barriers through [`SyncClock`]s,
//! * accesses are grouped into [`Segment`]s — maximal spans of one thread's
//!   execution between two synchronization operations — each stamped with
//!   the thread's clock at segment start,
//! * [`detect_races`] post-processes the segments of a run: two accesses to
//!   the same *word* race when they come from different threads, at least
//!   one is a write, at least one is non-transactional, and neither
//!   segment happens-before the other.
//!
//! Pairs where *both* sides are transactional are never races: the HTM
//! conflict-detection hardware (and the global-lock subscription) already
//! serializes them. Racing checks run at word granularity, not line
//! granularity, so that false sharing on a conflict-detection line is not
//! misreported as a data race (it is reported separately, by the
//! false-sharing analyzer in `htm-analyze`).

use std::fmt;
use std::sync::Mutex;

use crate::abort::AbortCause;
use crate::addr::{LineId, WordAddr};
use crate::fxhash::{FxHashMap, FxHashSet};

/// A growable per-thread vector clock.
///
/// Component `t` counts the synchronization epochs of thread `t`. Missing
/// components read as 0, so clocks for different thread counts compare
/// soundly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock {
    clocks: Vec<u64>,
}

impl VectorClock {
    /// Creates an all-zero clock.
    pub fn new() -> VectorClock {
        VectorClock::default()
    }

    /// The clock value of thread `t` (0 when never ticked or joined).
    #[inline]
    pub fn get(&self, t: usize) -> u64 {
        self.clocks.get(t).copied().unwrap_or(0)
    }

    /// Advances thread `t`'s component by one epoch.
    pub fn tick(&mut self, t: usize) {
        if self.clocks.len() <= t {
            self.clocks.resize(t + 1, 0);
        }
        self.clocks[t] += 1;
    }

    /// Pointwise maximum: `self := self ⊔ other`.
    pub fn join(&mut self, other: &VectorClock) {
        if self.clocks.len() < other.clocks.len() {
            self.clocks.resize(other.clocks.len(), 0);
        }
        for (i, &v) in other.clocks.iter().enumerate() {
            if self.clocks[i] < v {
                self.clocks[i] = v;
            }
        }
    }

    /// Pointwise `self >= other`.
    pub fn dominates(&self, other: &VectorClock) -> bool {
        (0..other.clocks.len().max(self.clocks.len())).all(|i| self.get(i) >= other.get(i))
    }
}

/// A shared clock attached to one synchronization object (the global
/// fallback lock, a phase barrier).
///
/// `release` publishes the releasing thread's clock into the object and
/// opens a new epoch for that thread; `acquire` folds the object's clock
/// into the acquiring thread. Standard vector-clock lock semantics: every
/// pair of critical sections on the same object is ordered, and a barrier
/// (all threads release, block, then acquire) orders everything before it
/// with everything after it.
#[derive(Debug, Default)]
pub struct SyncClock {
    inner: Mutex<VectorClock>,
}

impl SyncClock {
    /// Creates a sync object with an all-zero clock.
    pub fn new() -> SyncClock {
        SyncClock::default()
    }

    /// Release edge: `L := L ⊔ C_t`, then `C_t[t] += 1`.
    pub fn release(&self, local: &mut VectorClock, thread: usize) {
        let mut l = self.inner.lock().expect("SyncClock poisoned");
        l.join(local);
        local.tick(thread);
    }

    /// Acquire edge: `C_t := C_t ⊔ L`.
    pub fn acquire(&self, local: &mut VectorClock) {
        let l = self.inner.lock().expect("SyncClock poisoned");
        local.join(&l);
    }
}

/// One recorded access inside a [`Segment`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Access {
    /// Word accessed (races are checked at word granularity).
    pub addr: WordAddr,
    /// Was it a store?
    pub write: bool,
    /// Did it execute transactionally (inside a committed hardware
    /// transaction or an irrevocable block)?
    pub tx: bool,
}

/// A maximal span of one thread's execution between two synchronization
/// operations, stamped with the thread's vector clock.
///
/// All accesses in a segment share the segment's happens-before position;
/// the segment's own component `vc[thread]` is its FastTrack epoch.
/// Convention: a thread's clock starts with `vc[thread] = 1` (the capture
/// layer ticks the own component once at thread start), so that a fresh
/// thread's epoch is never covered by another thread's zero component.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The executing thread.
    pub thread: u32,
    /// The thread's clock while this segment ran.
    pub vc: VectorClock,
    /// Deduplicated accesses performed in the segment.
    pub accesses: Vec<Access>,
}

impl Segment {
    /// Does every access in this segment happen before every access in
    /// `other`? True when `other`'s clock has caught up with this
    /// segment's epoch.
    pub fn happens_before(&self, other: &Segment) -> bool {
        other.vc.get(self.thread as usize) >= self.vc.get(self.thread as usize)
    }
}

/// One side of a reported race.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RaceAccess {
    /// Thread that performed the access.
    pub thread: u32,
    /// Was it a store?
    pub write: bool,
    /// Was it transactional?
    pub tx: bool,
}

impl fmt::Display for RaceAccess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "thread {} {} {}",
            self.thread,
            if self.tx { "tx" } else { "non-tx" },
            if self.write { "write" } else { "read" }
        )
    }
}

/// An unsynchronized access pair found by [`detect_races`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct DataRace {
    /// The word both sides touched.
    pub addr: WordAddr,
    /// One side of the pair.
    pub a: RaceAccess,
    /// The other side.
    pub b: RaceAccess,
}

impl fmt::Display for DataRace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "data race on {}: {} || {}", self.addr, self.a, self.b)
    }
}

/// Upper bound on distinct races kept in a [`RaceReport`]; one racy loop
/// would otherwise drown the report.
pub const MAX_RACES: usize = 64;

/// The sanitizer's verdict for one run.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Distinct races found (deduplicated by word and access shape,
    /// capped at [`MAX_RACES`]).
    pub races: Vec<DataRace>,
    /// The captured segments the verdict was computed from (kept for
    /// downstream analyses such as false-sharing detection).
    pub segments: Vec<Segment>,
    /// Number of distinct words that were checked.
    pub words_checked: usize,
    /// True when a thread overflowed its capture bounds; the report may
    /// then miss races.
    pub truncated: bool,
}

impl RaceReport {
    /// True when no race was found and the capture was complete.
    pub fn ok(&self) -> bool {
        self.races.is_empty() && !self.truncated
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sanitizer: {} segment(s), {} word(s) checked",
            self.segments.len(),
            self.words_checked
        )?;
        if self.truncated {
            write!(f, " [capture truncated]")?;
        }
        if self.races.is_empty() {
            write!(f, " — no races")
        } else {
            writeln!(f, " — {} race(s):", self.races.len())?;
            for r in &self.races {
                writeln!(f, "  {r}")?;
            }
            Ok(())
        }
    }
}

/// A conflict abort attributed to its aggressor: thread `victim` was doomed
/// on `line` by `aggressor` (None when the aggressor was a
/// non-transactional access with no hardware-thread slot).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ConflictEvent {
    /// The doomed thread.
    pub victim: u32,
    /// The thread whose access doomed it, when known.
    pub aggressor: Option<u32>,
    /// The conflict-detection line the doom happened on.
    pub line: LineId,
    /// The recorded abort cause.
    pub cause: AbortCause,
}

impl fmt::Display for ConflictEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.aggressor {
            Some(a) => {
                write!(
                    f,
                    "thread {} aborted by thread {} on {:?} ({})",
                    self.victim, a, self.line, self.cause
                )
            }
            None => write!(f, "thread {} aborted on {:?} ({})", self.victim, self.line, self.cause),
        }
    }
}

/// Runs the happens-before check over the segments captured from one run.
///
/// Two accesses race when they touch the same word from different threads,
/// at least one is a write, at least one is non-transactional, and neither
/// one's segment happens-before the other's. Reported races are
/// deduplicated by (word, access shape) and capped at [`MAX_RACES`].
pub fn detect_races(segments: Vec<Segment>, truncated: bool) -> RaceReport {
    // Index: word -> accesses, as (segment index, write, tx).
    let mut by_word: FxHashMap<WordAddr, Vec<(u32, bool, bool)>> = FxHashMap::default();
    for (si, seg) in segments.iter().enumerate() {
        for a in &seg.accesses {
            by_word.entry(a.addr).or_default().push((si as u32, a.write, a.tx));
        }
    }

    let mut seen = FxHashSet::default();
    let mut races = Vec::new();
    let words_checked = by_word.len();
    'words: for (addr, entries) in &by_word {
        // Fast path: a word only one thread ever touched cannot race.
        let first_thread = segments[entries[0].0 as usize].thread;
        if entries.iter().all(|&(si, _, _)| segments[si as usize].thread == first_thread) {
            continue;
        }
        for (i, &(si, wi, txi)) in entries.iter().enumerate() {
            for &(sj, wj, txj) in &entries[i + 1..] {
                if !wi && !wj {
                    continue; // read-read never races
                }
                if txi && txj {
                    continue; // HTM serializes tx-tx pairs
                }
                let (sa, sb) = (&segments[si as usize], &segments[sj as usize]);
                if sa.thread == sb.thread {
                    continue; // program order
                }
                if sa.happens_before(sb) || sb.happens_before(sa) {
                    continue;
                }
                let a = RaceAccess { thread: sa.thread, write: wi, tx: txi };
                let b = RaceAccess { thread: sb.thread, write: wj, tx: txj };
                // Normalize the pair so (a, b) and (b, a) dedup together.
                let (a, b) = if (a.thread, a.write, a.tx) <= (b.thread, b.write, b.tx) {
                    (a, b)
                } else {
                    (b, a)
                };
                if seen.insert((*addr, a, b)) {
                    races.push(DataRace { addr: *addr, a, b });
                    if races.len() >= MAX_RACES {
                        break 'words;
                    }
                }
            }
        }
    }
    races.sort_by_key(|r| (r.addr, r.a.thread, r.b.thread));
    RaceReport { races, segments, words_checked, truncated }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(thread: u32, vc: &[u64], accesses: &[(u32, bool, bool)]) -> Segment {
        let mut clock = VectorClock::new();
        for (t, &v) in vc.iter().enumerate() {
            for _ in 0..v {
                clock.tick(t);
            }
        }
        Segment {
            thread,
            vc: clock,
            accesses: accesses
                .iter()
                .map(|&(w, write, tx)| Access { addr: WordAddr(w), write, tx })
                .collect(),
        }
    }

    #[test]
    fn tick_and_get() {
        let mut c = VectorClock::new();
        assert_eq!(c.get(3), 0);
        c.tick(3);
        c.tick(3);
        assert_eq!(c.get(3), 2);
        assert_eq!(c.get(0), 0);
    }

    #[test]
    fn join_is_pointwise_max() {
        let mut a = VectorClock::new();
        a.tick(0);
        a.tick(0);
        let mut b = VectorClock::new();
        b.tick(1);
        a.join(&b);
        assert_eq!(a.get(0), 2);
        assert_eq!(a.get(1), 1);
        assert!(a.dominates(&b));
    }

    #[test]
    fn sync_clock_orders_critical_sections() {
        let s = SyncClock::new();
        let mut t0 = VectorClock::new();
        let mut t1 = VectorClock::new();
        // Thread 0's critical section, then thread 1 acquires.
        let epoch0 = t0.get(0);
        s.release(&mut t0, 0);
        s.acquire(&mut t1);
        assert!(t1.get(0) >= epoch0);
    }

    #[test]
    fn unordered_write_write_races() {
        let segs = vec![seg(0, &[1, 0], &[(7, true, false)]), seg(1, &[0, 1], &[(7, true, false)])];
        let r = detect_races(segs, false);
        assert_eq!(r.races.len(), 1);
        assert_eq!(r.races[0].addr, WordAddr(7));
        assert!(!r.ok());
    }

    #[test]
    fn read_read_is_not_a_race() {
        let segs =
            vec![seg(0, &[1, 0], &[(7, false, false)]), seg(1, &[0, 1], &[(7, false, false)])];
        assert!(detect_races(segs, false).ok());
    }

    #[test]
    fn tx_tx_is_not_a_race() {
        let segs = vec![seg(0, &[1, 0], &[(7, true, true)]), seg(1, &[0, 1], &[(7, true, true)])];
        assert!(detect_races(segs, false).ok());
    }

    #[test]
    fn tx_vs_nontx_is_a_race() {
        let segs = vec![seg(0, &[1, 0], &[(7, true, true)]), seg(1, &[0, 1], &[(7, false, false)])];
        let r = detect_races(segs, false);
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn happens_before_suppresses_race() {
        // Thread 0 wrote at epoch 1; thread 1's segment has seen epoch 1.
        let segs = vec![seg(0, &[1, 0], &[(7, true, false)]), seg(1, &[1, 1], &[(7, true, false)])];
        assert!(detect_races(segs, false).ok());
    }

    #[test]
    fn same_thread_never_races() {
        let segs = vec![seg(0, &[1], &[(7, true, false)]), seg(0, &[2], &[(7, true, false)])];
        assert!(detect_races(segs, false).ok());
    }

    #[test]
    fn different_words_do_not_race() {
        let segs = vec![seg(0, &[1, 0], &[(7, true, false)]), seg(1, &[0, 1], &[(8, true, false)])];
        let r = detect_races(segs, false);
        assert!(r.ok());
        assert_eq!(r.words_checked, 2);
    }

    #[test]
    fn duplicate_races_dedup() {
        let segs = vec![
            seg(0, &[1, 0], &[(7, true, false)]),
            seg(0, &[1, 0], &[(7, true, false)]),
            seg(1, &[0, 1], &[(7, true, false)]),
        ];
        let r = detect_races(segs, false);
        assert_eq!(r.races.len(), 1);
    }

    #[test]
    fn truncation_is_reported() {
        let r = detect_races(Vec::new(), true);
        assert!(r.truncated);
        assert!(!r.ok());
        assert!(r.to_string().contains("truncated"));
    }

    #[test]
    fn report_displays_races() {
        let segs = vec![seg(0, &[1, 0], &[(7, true, false)]), seg(1, &[0, 1], &[(7, false, true)])];
        let r = detect_races(segs, false);
        let s = r.to_string();
        assert!(s.contains("data race on w0x7"), "{s}");
        assert!(s.contains("non-tx write"), "{s}");
        let clean = detect_races(Vec::new(), false);
        assert!(clean.to_string().contains("no races"));
    }

    #[test]
    fn conflict_event_display() {
        let e = ConflictEvent {
            victim: 2,
            aggressor: Some(5),
            line: LineId(3),
            cause: AbortCause::ConflictTxStore,
        };
        assert!(e.to_string().contains("thread 2 aborted by thread 5"));
        let e2 = ConflictEvent { aggressor: None, ..e };
        assert!(e2.to_string().contains("thread 2 aborted on"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_clock() -> impl Strategy<Value = VectorClock> {
        proptest::collection::vec(0u64..50, 0..6).prop_map(|v| {
            let mut c = VectorClock::new();
            for (t, &n) in v.iter().enumerate() {
                for _ in 0..n {
                    c.tick(t);
                }
            }
            c
        })
    }

    proptest! {
        #[test]
        fn join_is_commutative(a in arb_clock(), b in arb_clock()) {
            let mut ab = a.clone();
            ab.join(&b);
            let mut ba = b.clone();
            ba.join(&a);
            for t in 0..8 {
                prop_assert_eq!(ab.get(t), ba.get(t));
            }
        }

        #[test]
        fn join_is_idempotent_and_dominating(a in arb_clock(), b in arb_clock()) {
            let mut j = a.clone();
            j.join(&b);
            prop_assert!(j.dominates(&a));
            prop_assert!(j.dominates(&b));
            let again = {
                let mut x = j.clone();
                x.join(&b);
                x
            };
            prop_assert_eq!(again, j);
        }

        #[test]
        fn join_is_associative(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
            let mut ab_c = a.clone();
            ab_c.join(&b);
            ab_c.join(&c);
            let mut bc = b.clone();
            bc.join(&c);
            let mut a_bc = a.clone();
            a_bc.join(&bc);
            prop_assert_eq!(ab_c, a_bc);
        }

        #[test]
        fn tick_is_strictly_monotone(a in arb_clock(), t in 0usize..6) {
            let mut after = a.clone();
            after.tick(t);
            prop_assert_eq!(after.get(t), a.get(t) + 1);
            prop_assert!(after.dominates(&a));
            prop_assert!(!a.dominates(&after));
        }

        #[test]
        fn release_acquire_transfers_order(epochs in 1u64..20) {
            let s = SyncClock::new();
            let mut t0 = VectorClock::new();
            for _ in 0..epochs {
                t0.tick(0);
            }
            let published = t0.get(0);
            s.release(&mut t0, 0);
            // Release opened a fresh epoch for the releasing thread.
            prop_assert_eq!(t0.get(0), published + 1);
            let mut t1 = VectorClock::new();
            s.acquire(&mut t1);
            prop_assert!(t1.get(0) >= published);
            prop_assert!(t1.get(0) < t0.get(0));
        }
    }
}
