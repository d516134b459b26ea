//! Transaction abort causes and platform abort-reason codes.
//!
//! Each of the four HTM systems reports *why* a transaction aborted with a
//! different level of detail (Table 1: zEC12 distinguishes 14 reasons, Intel
//! Core 6, POWER8 11, Blue Gene/Q exposes none to user code). The retry
//! mechanism of the paper's Figure 1 only needs three classifications —
//! lock conflict, persistent, transient — but the simulator records the full
//! cause so that Figure 3's breakdown (capacity / data conflict / other /
//! lock conflict) can be regenerated.

use std::fmt;

/// Why a transaction aborted.
///
/// This is the simulator's *ground-truth* cause. How much of it a platform
/// reveals to software is decided by the platform's abort-code mapping (see
/// `htm-machine`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Another transaction's store conflicted with this transaction's
    /// read- or write-set (a transactional data conflict).
    ConflictTxStore,
    /// Another transaction's load conflicted with this transaction's
    /// write-set.
    ConflictTxLoad,
    /// A non-transactional access (global-lock acquisition, suspended-mode
    /// access, lock-free CAS, ...) conflicted with this transaction's
    /// footprint.
    ConflictNonTx,
    /// The transaction exceeded the platform's transactional-load capacity.
    CapacityRead,
    /// The transaction exceeded the platform's transactional-store capacity.
    CapacityWrite,
    /// Platform-specific transient implementation restriction. On zEC12 this
    /// models the undisclosed "cache-fetch-related" aborts the paper found
    /// dominant (Section 5.1).
    Restriction,
    /// Blue Gene/Q ran out of speculation IDs and the begin was aborted
    /// rather than blocked (Section 2.1).
    SpecIdExhausted,
    /// The program executed an explicit `tabort` (e.g. the retry mechanism's
    /// line 27: the global lock was held when the transaction started).
    Explicit(u8),
    /// A software (STM fallback) transaction failed value-based validation
    /// of its read log at commit: a concurrent committer changed a value it
    /// had observed. Counted separately from the hardware abort categories.
    StmValidation,
    /// A capacity-spilled POWER8 transaction failed value-based validation
    /// of its spilled side log at commit: a concurrent committer changed an
    /// overflow entry it had observed outside the TMCAM's tracking.
    SpillValidation,
}

impl AbortCause {
    /// True for causes counted in the "capacity overflow" bar of Figure 3.
    #[inline]
    pub fn is_capacity(self) -> bool {
        matches!(self, AbortCause::CapacityRead | AbortCause::CapacityWrite)
    }

    /// True for causes counted in the "data conflict" bar of Figure 3.
    #[inline]
    pub fn is_conflict(self) -> bool {
        matches!(
            self,
            AbortCause::ConflictTxStore | AbortCause::ConflictTxLoad | AbortCause::ConflictNonTx
        )
    }
}

impl fmt::Display for AbortCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCause::ConflictTxStore => write!(f, "conflict (tx store)"),
            AbortCause::ConflictTxLoad => write!(f, "conflict (tx load)"),
            AbortCause::ConflictNonTx => write!(f, "conflict (non-tx access)"),
            AbortCause::CapacityRead => write!(f, "capacity overflow (loads)"),
            AbortCause::CapacityWrite => write!(f, "capacity overflow (stores)"),
            AbortCause::Restriction => write!(f, "implementation restriction"),
            AbortCause::SpecIdExhausted => write!(f, "speculation IDs exhausted"),
            AbortCause::Explicit(code) => write!(f, "explicit tabort({code})"),
            AbortCause::StmValidation => write!(f, "STM read-log validation failed"),
            AbortCause::SpillValidation => write!(f, "spilled side-log validation failed"),
        }
    }
}

/// Compact encoding of [`AbortCause`] used inside atomic status words.
///
/// Externally-imposed dooms (conflicts) are the only causes that travel
/// through the status word; the rest are returned directly by the access
/// that detected them.
impl AbortCause {
    /// Encodes the cause as a small integer (fits in 8 bits).
    pub fn encode(self) -> u32 {
        match self {
            AbortCause::ConflictTxStore => 1,
            AbortCause::ConflictTxLoad => 2,
            AbortCause::ConflictNonTx => 3,
            AbortCause::CapacityRead => 4,
            AbortCause::CapacityWrite => 5,
            AbortCause::Restriction => 6,
            AbortCause::SpecIdExhausted => 7,
            AbortCause::Explicit(code) => 8 + code as u32,
            AbortCause::StmValidation => 264,
            AbortCause::SpillValidation => 265,
        }
    }

    /// Decodes a value produced by [`AbortCause::encode`].
    ///
    /// # Panics
    ///
    /// Panics on a value that no cause encodes to (corrupted status word).
    pub fn decode(v: u32) -> AbortCause {
        match v {
            1 => AbortCause::ConflictTxStore,
            2 => AbortCause::ConflictTxLoad,
            3 => AbortCause::ConflictNonTx,
            4 => AbortCause::CapacityRead,
            5 => AbortCause::CapacityWrite,
            6 => AbortCause::Restriction,
            7 => AbortCause::SpecIdExhausted,
            v if (8..=8 + u8::MAX as u32).contains(&v) => AbortCause::Explicit((v - 8) as u8),
            264 => AbortCause::StmValidation,
            265 => AbortCause::SpillValidation,
            other => panic!("corrupt abort cause encoding: {other}"),
        }
    }
}

/// The four abort categories of Figure 3, plus the paper's "unclassified"
/// bucket used for Blue Gene/Q (whose system software does not report
/// abort reasons).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AbortCategory {
    /// Transactional footprint exceeded capacity.
    Capacity,
    /// Memory conflict on program data.
    DataConflict,
    /// Platform-specific other causes (zEC12 cache-fetch-related etc.).
    Other,
    /// Conflict on the global fallback lock word.
    LockConflict,
    /// Platform does not report abort reasons (Blue Gene/Q).
    Unclassified,
}

impl AbortCategory {
    /// All categories, in the order Figure 3 stacks them.
    pub const ALL: [AbortCategory; 5] = [
        AbortCategory::Capacity,
        AbortCategory::DataConflict,
        AbortCategory::Other,
        AbortCategory::LockConflict,
        AbortCategory::Unclassified,
    ];

    /// This category's position in [`AbortCategory::ALL`] (the stable index
    /// used by per-category counter arrays).
    #[inline]
    pub fn index(self) -> usize {
        match self {
            AbortCategory::Capacity => 0,
            AbortCategory::DataConflict => 1,
            AbortCategory::Other => 2,
            AbortCategory::LockConflict => 3,
            AbortCategory::Unclassified => 4,
        }
    }
}

impl fmt::Display for AbortCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortCategory::Capacity => write!(f, "capacity"),
            AbortCategory::DataConflict => write!(f, "data-conflict"),
            AbortCategory::Other => write!(f, "other"),
            AbortCategory::LockConflict => write!(f, "lock-conflict"),
            AbortCategory::Unclassified => write!(f, "unclassified"),
        }
    }
}

/// Error type returned by every transactional operation.
///
/// The transaction engine converts an abort into `Err(Abort { .. })`, which
/// benchmark code propagates outward with `?`; the retry mechanism catches it
/// at the top of the transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Abort {
    /// Ground-truth cause of the abort.
    pub cause: AbortCause,
}

impl Abort {
    /// Creates an abort with the given cause.
    pub fn new(cause: AbortCause) -> Abort {
        Abort { cause }
    }
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction aborted: {}", self.cause)
    }
}

impl std::error::Error for Abort {}

/// Result of every transactional operation.
pub type TxResult<T> = Result<T, Abort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let causes = [
            AbortCause::ConflictTxStore,
            AbortCause::ConflictTxLoad,
            AbortCause::ConflictNonTx,
            AbortCause::CapacityRead,
            AbortCause::CapacityWrite,
            AbortCause::Restriction,
            AbortCause::SpecIdExhausted,
            AbortCause::Explicit(0),
            AbortCause::Explicit(42),
            AbortCause::Explicit(255),
            AbortCause::StmValidation,
            AbortCause::SpillValidation,
        ];
        for c in causes {
            assert_eq!(AbortCause::decode(c.encode()), c, "{c:?}");
        }
    }

    #[test]
    fn encodings_are_distinct_and_nonzero() {
        let causes = [
            AbortCause::ConflictTxStore,
            AbortCause::ConflictTxLoad,
            AbortCause::ConflictNonTx,
            AbortCause::CapacityRead,
            AbortCause::CapacityWrite,
            AbortCause::Restriction,
            AbortCause::SpecIdExhausted,
            AbortCause::Explicit(0),
        ];
        let mut seen = crate::fxhash::FxHashSet::default();
        for c in causes {
            assert_ne!(c.encode(), 0, "0 is reserved for 'not doomed'");
            assert!(seen.insert(c.encode()), "duplicate encoding for {c:?}");
        }
    }

    #[test]
    #[should_panic(expected = "corrupt abort cause")]
    fn decode_rejects_garbage() {
        let _ = AbortCause::decode(100_000);
    }

    #[test]
    fn capacity_and_conflict_classification() {
        assert!(AbortCause::CapacityRead.is_capacity());
        assert!(AbortCause::CapacityWrite.is_capacity());
        assert!(!AbortCause::Restriction.is_capacity());
        assert!(AbortCause::ConflictNonTx.is_conflict());
        assert!(!AbortCause::Explicit(1).is_conflict());
    }

    #[test]
    fn category_index_matches_all_order() {
        for (i, c) in AbortCategory::ALL.iter().enumerate() {
            assert_eq!(c.index(), i, "{c}");
        }
    }

    #[test]
    fn abort_displays_cause() {
        let a = Abort::new(AbortCause::CapacityWrite);
        assert!(a.to_string().contains("capacity overflow (stores)"));
    }
}
