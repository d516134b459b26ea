//! Event and report types for the runtime correctness certifier.
//!
//! The simulator's value proposition is that its HTM models provide
//! *opacity*: committed transactions appear to execute atomically in some
//! serial order, and every transactional read observes the value written by
//! the most recent writer in that order. The certifier (implemented in
//! `htm-runtime::certify`) checks this claim on every certified run by
//! recording one [`TxEvent`] per committed atomic block and sweeping the
//! events in commit order afterwards. This module holds only the shared
//! data types, so that `htm-core` stays free of execution-engine concerns
//! while higher layers (runtime, stamp, bench) can all speak the same
//! report language.

use std::fmt;

use crate::addr::WordAddr;

/// What kind of atomic block produced a [`TxEvent`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A committed hardware transaction.
    Hardware {
        /// POWER8 rollback-only transaction: its loads are untracked by the
        /// hardware, so the value-based read check does not apply to it.
        rot: bool,
    },
    /// An irrevocable global-lock block (including degraded-mode blocks
    /// executed after a watchdog trip).
    Irrevocable,
    /// A software (STM fallback) transaction or a validated POWER8
    /// rollback-only commit: reads are value-logged by the runtime and
    /// revalidated under the sequence lock, so the certifier applies the
    /// full read check.
    Software,
    /// A single non-transactional store or successful CAS issued through the
    /// runtime outside any atomic block (coherence-visible, participates in
    /// the serialization order like a one-store transaction).
    NonTx,
}

/// One committed atomic block's footprint, as recorded by the runtime.
///
/// `reads` holds the *first* value the block observed at each address
/// (excluding reads satisfied from the block's own write buffer); `writes`
/// holds the final value flushed per address. `seq` is drawn from a global
/// commit clock at the block's linearization point, so sorting all events by
/// `seq` yields the runtime's claimed serial order.
#[derive(Clone, Debug)]
pub struct TxEvent {
    /// Thread that executed the block.
    pub thread: u32,
    /// Commit timestamp from the shared commit clock (unique per event).
    pub seq: u64,
    /// The execution path that produced the event.
    pub kind: EventKind,
    /// `(address, first observed value)` per address read.
    pub reads: Vec<(WordAddr, u64)>,
    /// `(address, final written value)` per address written.
    pub writes: Vec<(WordAddr, u64)>,
}

/// A single certifier finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// A block read a value that a *previous* serialized writer produced,
    /// not the most recent one: a lost update / non-serializable overlap.
    StaleRead {
        /// Commit seq of the reading block.
        reader_seq: u64,
        /// Thread of the reading block.
        reader_thread: u32,
        /// Address involved.
        addr: WordAddr,
        /// The value the block actually observed.
        observed: u64,
        /// The value the most recent serialized writer produced.
        expected: u64,
        /// Commit seq of the stale writer whose value leaked through.
        stale_writer_seq: u64,
    },
    /// A block read a value that *no* serialized writer (nor the initial
    /// memory image) ever produced at that address.
    WildRead {
        /// Commit seq of the reading block.
        reader_seq: u64,
        /// Thread of the reading block.
        reader_thread: u32,
        /// Address involved.
        addr: WordAddr,
        /// The value the block observed.
        observed: u64,
    },
    /// The conflict graph over the committed events contains a cycle: there
    /// is no serial order consistent with all observed dependencies.
    ConflictCycle {
        /// Commit seqs of the events on one witness cycle, in edge order.
        witness: Vec<u64>,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::StaleRead {
                reader_seq,
                reader_thread,
                addr,
                observed,
                expected,
                stale_writer_seq,
            } => {
                write!(
                    f,
                    "stale read: block seq={reader_seq} (thread {reader_thread}) read {observed:#x} \
                     at {addr:?} from stale writer seq={stale_writer_seq}, expected {expected:#x}"
                )
            }
            Violation::WildRead { reader_seq, reader_thread, addr, observed } => {
                write!(
                    f,
                    "wild read: block seq={reader_seq} (thread {reader_thread}) read {observed:#x} \
                     at {addr:?}, a value no serialized writer produced"
                )
            }
            Violation::ConflictCycle { witness } => {
                write!(f, "conflict-graph cycle through commit seqs {witness:?}")
            }
        }
    }
}

/// Result of certifying one parallel run.
///
/// Attached to `RunStats` when certification is enabled, so every caller —
/// STAMP oracle tests, the fault-storm suite, the bench harness — can gate
/// on [`CertifyReport::ok`] without re-deriving anything.
#[derive(Clone, Debug, Default)]
pub struct CertifyReport {
    /// Number of committed events examined.
    pub events: usize,
    /// Number of conflict-graph edges built during the sweep.
    pub edges: usize,
    /// All violations found (empty for a correct run).
    pub violations: Vec<Violation>,
    /// Whether any per-thread event log hit its bound and dropped events;
    /// a truncated certification is still sound for the events it kept but
    /// is not a complete proof for the run.
    pub truncated: bool,
    /// Global-lock acquisitions observed during the run (diagnostics: every
    /// irrevocable event corresponds to one acquisition).
    pub lock_acquisitions: u64,
}

impl CertifyReport {
    /// True when the run certified clean: no stale reads, no wild reads, no
    /// conflict-graph cycle.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for CertifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "certify: {} events, {} edges, {} violation(s){}{}",
            self.events,
            self.edges,
            self.violations.len(),
            if self.truncated { " [truncated]" } else { "" },
            if self.ok() { " — OK" } else { " — FAILED" },
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// The read set captured from one transactional attempt that later aborted.
///
/// Opacity demands that even attempts which never commit only ever observe
/// consistent snapshots: a "zombie" reading a torn mix of pre- and
/// post-commit values can loop forever or index out of bounds before its
/// doom is noticed. The runtime captures `(address, first observed value)`
/// per address for aborted attempts exactly as it does for committed ones
/// (reads satisfied from the attempt's own write buffer are excluded).
#[derive(Clone, Debug)]
pub struct AbortedAttempt {
    /// Thread that executed the attempt.
    pub thread: u32,
    /// The execution path the attempt ran under.
    pub kind: EventKind,
    /// `(address, first observed value)` per address read before the abort.
    pub reads: Vec<(WordAddr, u64)>,
}

/// An aborted attempt whose read set matches no consistent memory snapshot.
#[derive(Clone, Debug)]
pub struct OpacityViolation {
    /// Thread that executed the inconsistent attempt.
    pub thread: u32,
    /// The execution path the attempt ran under.
    pub kind: EventKind,
    /// The attempt's full captured read set.
    pub reads: Vec<(WordAddr, u64)>,
    /// The read at which the snapshot-interval intersection became empty.
    pub pinch: (WordAddr, u64),
}

impl fmt::Display for OpacityViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "opacity violation: aborted {:?} attempt on thread {} observed an inconsistent \
             snapshot {:?}; no serialization point justifies reading {:#x} at {:?} together \
             with the earlier reads",
            self.kind, self.thread, self.reads, self.pinch.1, self.pinch.0
        )
    }
}

/// Result of the opacity check over one run's aborted attempts.
#[derive(Clone, Debug, Default)]
pub struct OpacityReport {
    /// Aborted attempts examined.
    pub attempts: usize,
    /// Individual reads examined across all attempts.
    pub reads_checked: usize,
    /// Attempts whose read sets match no consistent snapshot.
    pub violations: Vec<OpacityViolation>,
    /// Whether a per-thread capture bound dropped attempts (the check is
    /// still sound for the attempts it kept).
    pub truncated: bool,
}

impl OpacityReport {
    /// True when every aborted attempt observed a consistent snapshot.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for OpacityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "opacity: {} aborted attempt(s), {} read(s), {} violation(s){}{}",
            self.attempts,
            self.reads_checked,
            self.violations.len(),
            if self.truncated { " [truncated]" } else { "" },
            if self.ok() { " — OK" } else { " — FAILED" },
        )?;
        for v in &self.violations {
            write!(f, "\n  {v}")?;
        }
        Ok(())
    }
}

/// Commit-seq half-open intervals (`u64::MAX` = unbounded) during which
/// `value` was the current content of an address, given the address's
/// committed version history and (optionally) its initial value.
fn valid_intervals(
    value: u64,
    versions: &[(u64, u64)], // (commit seq, value), sorted by seq
    init: Option<u64>,
) -> Vec<(u64, u64)> {
    const INF: u64 = u64::MAX;
    let mut out = Vec::new();
    let first = versions.first().map(|&(s, _)| s).unwrap_or(INF);
    // Before the first committed write the address holds its initial value;
    // an unknown initial value conservatively matches anything (no false
    // positives from addresses initialized outside the certified window).
    if first > 0 && init.map(|iv| iv == value).unwrap_or(true) {
        out.push((0, first));
    }
    for (i, &(seq, v)) in versions.iter().enumerate() {
        if v == value {
            let end = versions.get(i + 1).map(|&(s, _)| s).unwrap_or(INF);
            out.push((seq, end));
        }
    }
    out
}

/// Intersects two sets of disjoint half-open intervals.
fn intersect_intervals(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &(as_, ae) in a {
        for &(bs, be) in b {
            let s = as_.max(bs);
            let e = ae.min(be);
            if s < e {
                out.push((s, e));
            }
        }
    }
    out
}

/// Checks opacity: every aborted attempt's read set must be justified by at
/// least one consistent snapshot of the committed serialization.
///
/// `events` are the run's committed events (the same stream the
/// serializability certifier sweeps); `init` supplies known initial values
/// for addresses written *before* the certified window (e.g. a benchmark's
/// setup phase). Addresses absent from `init` and never read before their
/// first committed write are treated as unconstrained before that write,
/// which is conservative: it can mask a torn read of such an address but
/// can never report a false violation.
///
/// Each attempt's reads `(aᵢ, vᵢ)` define, per read, the set of commit-seq
/// intervals during which `vᵢ` was current at `aᵢ`; the attempt is opaque
/// iff the intersection over all its reads is non-empty (some serialization
/// point justifies the whole snapshot).
pub fn check_opacity(
    events: &[TxEvent],
    attempts: &[AbortedAttempt],
    init: &[(WordAddr, u64)],
    truncated: bool,
) -> OpacityReport {
    use crate::fxhash::FxHashMap;
    // Committed version history per address, in serialization order. Events
    // already carry unique seqs; a stable sort keeps the sweep deterministic.
    let mut order: Vec<&TxEvent> = events.iter().collect();
    order.sort_by_key(|e| e.seq);
    let mut versions: FxHashMap<u32, Vec<(u64, u64)>> = FxHashMap::default();
    let mut init_map: FxHashMap<u32, u64> = init.iter().map(|&(a, v)| (a.0, v)).collect();
    for e in &order {
        for &(addr, value) in &e.writes {
            versions.entry(addr.0).or_default().push((e.seq, value));
        }
    }
    // Like the serializability sweep, infer an initial value from reads that
    // serialize before any writer (a read can only disagree with it via a
    // genuine wild read, which the certifier reports separately).
    for e in &order {
        for &(addr, value) in &e.reads {
            let first_write = versions.get(&addr.0).map(|v| v[0].0).unwrap_or(u64::MAX);
            if e.seq < first_write {
                init_map.entry(addr.0).or_insert(value);
            }
        }
    }
    let empty: Vec<(u64, u64)> = Vec::new();
    let mut report = OpacityReport {
        attempts: attempts.len(),
        reads_checked: 0,
        violations: Vec::new(),
        truncated,
    };
    for at in attempts {
        let mut feasible = vec![(0u64, u64::MAX)];
        for &(addr, value) in &at.reads {
            report.reads_checked += 1;
            let vs = versions.get(&addr.0).unwrap_or(&empty);
            let iv = valid_intervals(value, vs, init_map.get(&addr.0).copied());
            feasible = intersect_intervals(&feasible, &iv);
            if feasible.is_empty() {
                report.violations.push(OpacityViolation {
                    thread: at.thread,
                    kind: at.kind,
                    reads: at.reads.clone(),
                    pinch: (addr, value),
                });
                break;
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_is_ok() {
        let r = CertifyReport::default();
        assert!(r.ok());
        assert!(r.to_string().contains("OK"));
    }

    #[test]
    fn violations_fail_and_display() {
        let r = CertifyReport {
            events: 2,
            edges: 1,
            violations: vec![Violation::StaleRead {
                reader_seq: 2,
                reader_thread: 1,
                addr: WordAddr(8),
                observed: 5,
                expected: 6,
                stale_writer_seq: 1,
            }],
            truncated: false,
            lock_acquisitions: 0,
        };
        assert!(!r.ok());
        let s = r.to_string();
        assert!(s.contains("FAILED"));
        assert!(s.contains("stale read"));
    }

    #[test]
    fn cycle_and_wild_read_display() {
        let c = Violation::ConflictCycle { witness: vec![1, 2, 1] };
        assert!(c.to_string().contains("cycle"));
        let w =
            Violation::WildRead { reader_seq: 3, reader_thread: 0, addr: WordAddr(1), observed: 9 };
        assert!(w.to_string().contains("wild read"));
    }

    fn committed(seq: u64, writes: &[(u32, u64)]) -> TxEvent {
        TxEvent {
            thread: 0,
            seq,
            kind: EventKind::Hardware { rot: false },
            reads: vec![],
            writes: writes.iter().map(|&(a, v)| (WordAddr(a), v)).collect(),
        }
    }

    fn attempt(reads: &[(u32, u64)]) -> AbortedAttempt {
        AbortedAttempt {
            thread: 1,
            kind: EventKind::Software,
            reads: reads.iter().map(|&(a, v)| (WordAddr(a), v)).collect(),
        }
    }

    #[test]
    fn opacity_consistent_prefix_and_suffix_snapshots_pass() {
        // One commit writes a=1, b=1 over initial a=0, b=0. Both the
        // pre-commit snapshot {0,0} and post-commit {1,1} are consistent.
        let events = [committed(5, &[(10, 1), (11, 1)])];
        let init = [(WordAddr(10), 0), (WordAddr(11), 0)];
        for snap in [&[(10, 0), (11, 0)][..], &[(10, 1), (11, 1)][..]] {
            let r = check_opacity(&events, &[attempt(snap)], &init, false);
            assert!(r.ok(), "{snap:?}: {r}");
            assert_eq!(r.attempts, 1);
            assert_eq!(r.reads_checked, 2);
        }
    }

    #[test]
    fn opacity_torn_read_across_one_commit_fails() {
        // Observing a post-commit value at one address and a pre-commit
        // value at another written by the same commit has no justifying
        // serialization point.
        let events = [committed(5, &[(10, 1), (11, 1)])];
        let init = [(WordAddr(10), 0), (WordAddr(11), 0)];
        let r = check_opacity(&events, &[attempt(&[(10, 1), (11, 0)])], &init, false);
        assert!(!r.ok());
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].pinch, (WordAddr(11), 0));
        assert!(r.to_string().contains("FAILED"));
    }

    #[test]
    fn opacity_unknown_init_is_conservative() {
        // Without an initial value for address 11, the torn read cannot be
        // distinguished from a stale-but-consistent pre-init snapshot.
        let events = [committed(5, &[(10, 1), (11, 1)])];
        let r = check_opacity(&events, &[attempt(&[(10, 1), (11, 0)])], &[], false);
        assert!(r.ok(), "unknown init must not produce false positives: {r}");
    }

    #[test]
    fn opacity_infers_init_from_pre_writer_reads() {
        // A committed reader serialized before the writer pins init=0 at
        // both addresses, which then convicts the torn snapshot without an
        // explicit `init` argument.
        let mut reader = committed(2, &[]);
        reader.reads = vec![(WordAddr(10), 0), (WordAddr(11), 0)];
        let events = [reader, committed(5, &[(10, 1), (11, 1)])];
        let r = check_opacity(&events, &[attempt(&[(10, 1), (11, 0)])], &[], false);
        assert!(!r.ok(), "inferred init must convict the torn snapshot: {r}");
    }

    #[test]
    fn opacity_value_revisits_are_handled() {
        // a: 0 -> 1 -> 0. Reading a=0 is valid both before seq 3 and after
        // seq 7, so pairing it with b read at either era passes while a
        // cross-era pair fails.
        let events = [committed(3, &[(10, 1)]), committed(5, &[(11, 9)]), committed(7, &[(10, 0)])];
        let init = [(WordAddr(10), 0), (WordAddr(11), 0)];
        let ok = check_opacity(&events, &[attempt(&[(10, 0), (11, 9)])], &init, false);
        assert!(ok.ok(), "a=0 (late era) with b=9 is consistent: {ok}");
        let bad = check_opacity(&events, &[attempt(&[(10, 1), (11, 0)])], &init, false);
        assert!(bad.ok(), "a=1 spans [3,7), b=0 spans [0,5): overlap [3,5) exists");
        let torn = check_opacity(&events, &[attempt(&[(10, 1), (11, 0), (12, 99)])], &init, false);
        assert!(torn.ok(), "unknown addr 12 is unconstrained");
    }

    #[test]
    fn opacity_wild_value_in_aborted_attempt_fails() {
        // A value nobody ever wrote (and that contradicts known init) has an
        // empty validity set on its own.
        let events = [committed(5, &[(10, 1)])];
        let init = [(WordAddr(10), 0)];
        let r = check_opacity(&events, &[attempt(&[(10, 42)])], &init, false);
        assert!(!r.ok());
        assert_eq!(r.violations[0].pinch, (WordAddr(10), 42));
    }
}
