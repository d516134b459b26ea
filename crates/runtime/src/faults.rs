//! Deterministic fault injection: forcing the rare paths of the Figure-1
//! retry mechanism on demand.
//!
//! In normal operation some branches of the retry state machine — persistent
//! capacity aborts, doomed-at-commit storms, speculation-ID starvation,
//! convoys behind a slow global-lock holder — only appear under specific
//! workloads and platforms, which makes the recovery code hard to exercise.
//! A [`FaultPlan`] injects those events with configured probabilities from a
//! dedicated per-thread RNG stream, so:
//!
//! * every retry branch (lock-retry, persistent-retry, transient-retry,
//!   Blue Gene/Q single-counter, irrevocable fallback) is reachable from a
//!   test at any desired rate,
//! * runs are bit-for-bit reproducible given the plan (the fault stream is
//!   seeded from [`FaultPlan::seed`], never from the engine's own RNG), and
//! * the **empty plan is exactly free**: no fault state is allocated, no
//!   random numbers are drawn, and simulation results are bit-identical to a
//!   build without fault injection.
//!
//! Constrained transactions (zEC12) are exempt from injection: the
//! architecture guarantees their eventual completion, and a fault source
//! that could fire forever would break that contract.

use htm_core::{AbortCause, SimError};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic fault-injection plan (empty by default).
///
/// Probabilities are per *event* (begin / access / commit attempt) and must
/// lie in `[0, 1]`. See [`crate::SimConfig::faults`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Seed of the per-thread fault RNG streams (independent of the
    /// simulation seed, so enabling faults never perturbs workload RNG).
    pub seed: u64,
    /// Probability that a hardware transaction is doomed at begin with a
    /// *transient* cause ([`AbortCause::Restriction`]): spurious aborts.
    pub transient_abort_per_begin: f64,
    /// Probability that a hardware transaction is doomed at begin with a
    /// *persistent* cause ([`AbortCause::CapacityWrite`]): forced capacity
    /// aborts, exercising the persistent-retry counter.
    pub capacity_abort_per_begin: f64,
    /// Probability that a begin is aborted with
    /// [`AbortCause::SpecIdExhausted`] (Blue Gene/Q speculation-ID
    /// starvation surfaced as an abort rather than a stall).
    pub spec_id_abort_per_begin: f64,
    /// Probability that a begin is forced to pay one full speculation-ID
    /// reclaim stall (platforms with an ID pool only).
    pub spec_id_stall_per_begin: f64,
    /// Probability that any transactional load or store aborts with a
    /// transient cause.
    pub transient_abort_per_access: f64,
    /// Probability that a transaction reaching its commit point is doomed
    /// there ([`AbortCause::ConflictTxStore`]): doomed-at-commit storms.
    pub doom_at_commit: f64,
    /// Free speculation IDs permanently removed from the pool at simulation
    /// build time (at least one always remains, so progress is preserved).
    pub spec_id_drain: u32,
    /// Extra simulated cycles an irrevocable section or an STM commit holds
    /// the global lock after it finishes (delayed-release convoys). ROT and
    /// spill commits release the lock without the delay.
    pub lock_release_delay: u64,
}

impl Default for FaultPlan {
    fn default() -> FaultPlan {
        FaultPlan {
            seed: 0xFA17_5EED,
            transient_abort_per_begin: 0.0,
            capacity_abort_per_begin: 0.0,
            spec_id_abort_per_begin: 0.0,
            spec_id_stall_per_begin: 0.0,
            transient_abort_per_access: 0.0,
            doom_at_commit: 0.0,
            spec_id_drain: 0,
            lock_release_delay: 0,
        }
    }
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// Whether this plan injects no faults at all.
    pub fn is_empty(&self) -> bool {
        self.transient_abort_per_begin == 0.0
            && self.capacity_abort_per_begin == 0.0
            && self.spec_id_abort_per_begin == 0.0
            && self.spec_id_stall_per_begin == 0.0
            && self.transient_abort_per_access == 0.0
            && self.doom_at_commit == 0.0
            && self.spec_id_drain == 0
            && self.lock_release_delay == 0
    }

    /// Sets the fault-stream seed.
    pub fn seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// Sets the spurious transient-abort-at-begin probability.
    pub fn transient_abort_per_begin(mut self, p: f64) -> FaultPlan {
        self.transient_abort_per_begin = p;
        self
    }

    /// Sets the forced capacity-abort-at-begin probability.
    pub fn capacity_abort_per_begin(mut self, p: f64) -> FaultPlan {
        self.capacity_abort_per_begin = p;
        self
    }

    /// Sets the speculation-ID-exhausted-abort probability.
    pub fn spec_id_abort_per_begin(mut self, p: f64) -> FaultPlan {
        self.spec_id_abort_per_begin = p;
        self
    }

    /// Sets the forced speculation-ID reclaim-stall probability.
    pub fn spec_id_stall_per_begin(mut self, p: f64) -> FaultPlan {
        self.spec_id_stall_per_begin = p;
        self
    }

    /// Sets the per-access transient-abort probability.
    pub fn transient_abort_per_access(mut self, p: f64) -> FaultPlan {
        self.transient_abort_per_access = p;
        self
    }

    /// Sets the doomed-at-commit probability.
    pub fn doom_at_commit(mut self, p: f64) -> FaultPlan {
        self.doom_at_commit = p;
        self
    }

    /// Sets the number of speculation IDs drained from the pool.
    pub fn spec_id_drain(mut self, n: u32) -> FaultPlan {
        self.spec_id_drain = n;
        self
    }

    /// Sets the delayed global-lock-release cycles (irrevocable sections
    /// and STM commits).
    pub fn lock_release_delay(mut self, cycles: u64) -> FaultPlan {
        self.lock_release_delay = cycles;
        self
    }

    /// Checks that every probability lies in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field.
    pub fn validate(&self) -> Result<(), SimError> {
        let probs = [
            ("transient_abort_per_begin", self.transient_abort_per_begin),
            ("capacity_abort_per_begin", self.capacity_abort_per_begin),
            ("spec_id_abort_per_begin", self.spec_id_abort_per_begin),
            ("spec_id_stall_per_begin", self.spec_id_stall_per_begin),
            ("transient_abort_per_access", self.transient_abort_per_access),
            ("doom_at_commit", self.doom_at_commit),
        ];
        for (name, p) in probs {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(SimError::InvalidConfig(format!(
                    "fault probability {name} = {p} is outside [0, 1]"
                )));
            }
        }
        Ok(())
    }
}

/// Per-thread fault-injection state: the plan plus this thread's dedicated
/// RNG stream. `None` for the empty plan (the zero-overhead fast path).
#[derive(Clone, Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SmallRng,
}

impl FaultState {
    /// Builds the state for one worker thread, or `None` if the plan is
    /// empty.
    pub(crate) fn new(plan: &FaultPlan, thread_id: u32) -> Option<FaultState> {
        if plan.is_empty() {
            return None;
        }
        // A distinct stream per thread; the multiplier decorrelates
        // neighbouring thread ids (same construction as the engine's RNG,
        // different constant so the streams never coincide).
        let seed = plan.seed ^ 0xd1b5_4a32_d192_ed03u64.wrapping_mul(thread_id as u64 + 1);
        Some(FaultState { plan: *plan, rng: SmallRng::seed_from_u64(seed) })
    }

    /// Draws one Bernoulli event. `p >= 1` short-circuits without consuming
    /// the stream so "always" plans stay cheap; `p == 0` likewise.
    fn roll(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        p >= 1.0 || self.rng.gen::<f64>() < p
    }

    /// Fault to inject at transaction begin, if any (the transaction starts
    /// pre-doomed and aborts at its first access or at commit).
    pub(crate) fn on_begin(&mut self) -> Option<AbortCause> {
        if self.roll(self.plan.capacity_abort_per_begin) {
            return Some(AbortCause::CapacityWrite);
        }
        if self.roll(self.plan.transient_abort_per_begin) {
            return Some(AbortCause::Restriction);
        }
        if self.roll(self.plan.spec_id_abort_per_begin) {
            return Some(AbortCause::SpecIdExhausted);
        }
        None
    }

    /// Whether this begin is forced to pay a speculation-ID reclaim stall.
    pub(crate) fn stall_spec_id(&mut self) -> bool {
        self.roll(self.plan.spec_id_stall_per_begin)
    }

    /// Fault to inject at one transactional load/store, if any.
    pub(crate) fn on_access(&mut self) -> Option<AbortCause> {
        self.roll(self.plan.transient_abort_per_access).then_some(AbortCause::Restriction)
    }

    /// Fault to inject at the commit point, if any.
    pub(crate) fn on_commit(&mut self) -> Option<AbortCause> {
        self.roll(self.plan.doom_at_commit).then_some(AbortCause::ConflictTxStore)
    }

    /// Extra cycles to hold the global lock before releasing it.
    pub(crate) fn lock_release_delay(&self) -> u64 {
        self.plan.lock_release_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_allocates_no_state() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultState::new(&FaultPlan::none(), 0).is_none());
    }

    #[test]
    fn builders_compose_and_validate() {
        let p = FaultPlan::none()
            .transient_abort_per_begin(0.1)
            .capacity_abort_per_begin(0.2)
            .doom_at_commit(0.3)
            .lock_release_delay(500)
            .seed(9);
        assert!(!p.is_empty());
        assert!(p.validate().is_ok());
        assert!(FaultPlan::none().transient_abort_per_access(1.5).validate().is_err());
        assert!(FaultPlan::none().doom_at_commit(-0.1).validate().is_err());
        assert!(FaultPlan::none().doom_at_commit(f64::NAN).validate().is_err());
    }

    #[test]
    fn streams_are_deterministic_and_per_thread() {
        let plan = FaultPlan::none().transient_abort_per_access(0.5);
        let draw = |tid: u32| {
            let mut s = FaultState::new(&plan, tid).unwrap();
            (0..64).map(|_| s.on_access().is_some()).collect::<Vec<_>>()
        };
        assert_eq!(draw(0), draw(0), "same thread, same stream");
        assert_ne!(draw(0), draw(1), "different threads, different streams");
    }

    #[test]
    fn certain_probabilities_always_fire() {
        let plan = FaultPlan::none().capacity_abort_per_begin(1.0).doom_at_commit(1.0);
        let mut s = FaultState::new(&plan, 3).unwrap();
        for _ in 0..32 {
            assert_eq!(s.on_begin(), Some(AbortCause::CapacityWrite));
            assert_eq!(s.on_commit(), Some(AbortCause::ConflictTxStore));
            assert_eq!(s.on_access(), None);
        }
    }

    #[test]
    fn begin_priority_is_capacity_then_transient_then_specid() {
        let both = FaultPlan::none()
            .capacity_abort_per_begin(1.0)
            .transient_abort_per_begin(1.0)
            .spec_id_abort_per_begin(1.0);
        let mut s = FaultState::new(&both, 0).unwrap();
        assert_eq!(s.on_begin(), Some(AbortCause::CapacityWrite));
        let transient =
            FaultPlan::none().transient_abort_per_begin(1.0).spec_id_abort_per_begin(1.0);
        let mut s = FaultState::new(&transient, 0).unwrap();
        assert_eq!(s.on_begin(), Some(AbortCause::Restriction));
        let spec = FaultPlan::none().spec_id_abort_per_begin(1.0);
        let mut s = FaultState::new(&spec, 0).unwrap();
        assert_eq!(s.on_begin(), Some(AbortCause::SpecIdExhausted));
    }
}
