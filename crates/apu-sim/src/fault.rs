//! Deterministic fault injection for exercising failure paths.
//!
//! A simulation harness is only trustworthy if its failure paths are
//! exercised, not just its happy paths. [`FaultPlan`] arms the device
//! with a seed-driven plan — fail every k-th task, fail every task of a
//! specific [`BatchKey`], or fail a pseudo-random fraction of tasks —
//! and [`crate::ApuDevice::inject_faults`] installs it. The
//! [`crate::DeviceQueue`] consults the plan at dispatch time, so faulted
//! tasks retire as error completions and, when transient, are eligible
//! for bounded retry.
//!
//! All decisions are pure functions of the plan and a monotone check
//! counter, so a faulted run is exactly reproducible: same plan, same
//! submission order, same injected failures.

use crate::error::Error;
use crate::queue::BatchKey;

/// A deterministic fault-injection plan. All triggers are optional and
/// compose with OR: a task check fires if *any* armed trigger matches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Fail every k-th task check (1-indexed: k = 3 fails checks 3, 6, …).
    pub every_kth_task: Option<u64>,
    /// Fail every task carrying this batch key.
    pub batch_key: Option<BatchKey>,
    /// Caps the batch-key trigger: fire on at most this many checks of
    /// the armed key, then let later checks of the same key pass.
    /// `None` (the default) keeps the trigger permanent. Used to model
    /// transient failures that a bounded retry can outlast — e.g. a
    /// compaction task that fails twice and succeeds on the third
    /// attempt.
    pub batch_key_limit: Option<u64>,
    /// Fail this fraction of task checks, chosen by a seeded hash of the
    /// check sequence number (0.0 disables the trigger).
    pub task_rate: f64,
    /// Seed for the rate-based trigger.
    pub seed: u64,
}

impl FaultPlan {
    /// A plan with no triggers armed, carrying `seed` for the rate trigger.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Arms the every-k-th-task trigger (k = 0 disarms it).
    #[must_use]
    pub fn fail_every_kth_task(mut self, k: u64) -> Self {
        self.every_kth_task = (k > 0).then_some(k);
        self
    }

    /// Arms the batch-key trigger.
    #[must_use]
    pub fn fail_batch_key(mut self, key: BatchKey) -> Self {
        self.batch_key = Some(key);
        self
    }

    /// Arms the batch-key trigger for at most `times` firings: the
    /// first `times` checks of `key` fail, every later one passes
    /// (`times` = 0 disarms the trigger entirely).
    #[must_use]
    pub fn fail_batch_key_times(mut self, key: BatchKey, times: u64) -> Self {
        if times == 0 {
            self.batch_key = None;
            self.batch_key_limit = None;
        } else {
            self.batch_key = Some(key);
            self.batch_key_limit = Some(times);
        }
        self
    }

    /// Arms the rate trigger: fail roughly `rate` of task checks
    /// (clamped to `[0, 1]`), deterministically from the seed.
    #[must_use]
    pub fn fail_task_rate(mut self, rate: f64) -> Self {
        self.task_rate = rate.clamp(0.0, 1.0);
        self
    }
}

/// Observed fault-injection activity, for assertions in tests and
/// reporting in benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Task-level fault checks performed.
    pub tasks_checked: u64,
    /// Task-level faults injected — the number of
    /// [`crate::trace::TraceEventKind::FaultInjected`] events a traced
    /// run emits.
    pub tasks_injected: u64,
}

/// The armed plan plus its monotone check counters.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    counts: FaultCounts,
    /// Times the batch-key trigger has fired (for `batch_key_limit`).
    key_hits: u64,
}

fn seq_hash(seed: u64, seq: u64) -> u64 {
    // SplitMix64 finalizer over (seed, seq): a decorrelated per-check
    // coin that is reproducible and independent of call sites.
    let mut z = seed ^ seq.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        FaultState {
            plan,
            counts: FaultCounts::default(),
            key_hits: 0,
        }
    }

    pub(crate) fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// One task-level check; `key` is the task's batch key, if any.
    pub(crate) fn check_task(&mut self, key: Option<BatchKey>) -> Option<Error> {
        self.counts.tasks_checked += 1;
        let seq = self.counts.tasks_checked;
        let kth = self
            .plan
            .every_kth_task
            .is_some_and(|k| seq.is_multiple_of(k));
        let keyed = key.is_some()
            && key == self.plan.batch_key
            && self.plan.batch_key_limit.is_none_or(|n| self.key_hits < n);
        if keyed {
            self.key_hits += 1;
        }
        let rated = self.plan.task_rate > 0.0
            && (seq_hash(self.plan.seed, seq) as f64 / u64::MAX as f64) < self.plan.task_rate;
        if kth || keyed || rated {
            self.counts.tasks_injected += 1;
            Some(Error::FaultInjected(format!(
                "task check {seq} hit the armed fault plan"
            )))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kth_task_fires_periodically() {
        let mut st = FaultState::new(FaultPlan::new(0).fail_every_kth_task(3));
        let hits: Vec<bool> = (0..9).map(|_| st.check_task(None).is_some()).collect();
        assert_eq!(
            hits,
            vec![false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(st.counts().tasks_injected, 3);
        assert_eq!(st.counts().tasks_checked, 9);
    }

    #[test]
    fn batch_key_trigger_is_selective() {
        let poisoned = BatchKey::new(7);
        let mut st = FaultState::new(FaultPlan::new(0).fail_batch_key(poisoned));
        assert!(st.check_task(Some(BatchKey::new(8))).is_none());
        assert!(st.check_task(None).is_none());
        assert!(st.check_task(Some(poisoned)).is_some());
    }

    #[test]
    fn bounded_batch_key_trigger_stops_after_the_limit() {
        let poisoned = BatchKey::new(7);
        let mut st = FaultState::new(FaultPlan::new(0).fail_batch_key_times(poisoned, 2));
        // Checks of other keys never consume the budget.
        assert!(st.check_task(Some(BatchKey::new(8))).is_none());
        assert!(st.check_task(Some(poisoned)).is_some());
        assert!(st.check_task(None).is_none());
        assert!(st.check_task(Some(poisoned)).is_some());
        // Budget exhausted: the same key now passes, permanently.
        assert!(st.check_task(Some(poisoned)).is_none());
        assert!(st.check_task(Some(poisoned)).is_none());
        assert_eq!(st.counts().tasks_injected, 2);
        // times = 0 disarms the trigger entirely.
        let mut off = FaultState::new(FaultPlan::new(0).fail_batch_key_times(poisoned, 0));
        assert!(off.check_task(Some(poisoned)).is_none());
    }

    #[test]
    fn rate_trigger_is_deterministic_and_roughly_calibrated() {
        let run = |seed| {
            let mut st = FaultState::new(FaultPlan::new(seed).fail_task_rate(0.1));
            (0..1000)
                .map(|_| st.check_task(None).is_some())
                .collect::<Vec<_>>()
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same injections");
        assert_ne!(a, run(43), "different seed, different injections");
        let injected = a.iter().filter(|&&h| h).count();
        assert!(
            (50..200).contains(&injected),
            "10% rate injected {injected}/1000"
        );
    }
}
