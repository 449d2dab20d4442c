//! Replica health tracking: marks a device down on its first
//! device-attributable failure so reads are routed around it.
//!
//! Only *device-attributable* outcomes feed the tracker — injected
//! faults and task failures ([`Error::is_transient`](crate::Error::is_transient)).
//! Deadline expiry and admission shedding say nothing about replica
//! health (the device was merely busy or the SLO lapsed), so callers
//! must not record them here; [`DeviceCluster::record_outcome`]
//! (see [`super::DeviceCluster`]) enforces that convention.
//!
//! A successful completion always revives a replica: serving a request
//! is the definitive health probe on the virtual timeline.

/// Per-device health state machine for a replicated cluster.
#[derive(Debug, Clone)]
pub struct HealthTracker {
    states: Vec<ReplicaState>,
    transitions: u64,
}

#[derive(Debug, Clone, Default)]
struct ReplicaState {
    down: bool,
    failures: u64,
    successes: u64,
}

impl HealthTracker {
    /// Tracker over `devices` replicas, all up.
    pub fn new(devices: usize) -> Self {
        HealthTracker {
            states: vec![ReplicaState::default(); devices],
            transitions: 0,
        }
    }

    /// Whether `device` is currently considered servable.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn is_up(&self, device: usize) -> bool {
        !self.states[device].down
    }

    /// Records a successful completion: revives the device if it was
    /// down.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn record_success(&mut self, device: usize) {
        let st = &mut self.states[device];
        st.down = false;
        st.successes += 1;
    }

    /// Records a device-attributable failure and marks the device down.
    /// Returns `true` exactly when this failure transitions the device
    /// from up to down.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn record_failure(&mut self, device: usize) -> bool {
        let st = &mut self.states[device];
        st.failures += 1;
        if st.down {
            return false;
        }
        st.down = true;
        self.transitions += 1;
        true
    }

    /// Total up→down transitions observed over the tracker's lifetime
    /// (exported as `apu_replica_down_total`).
    pub fn down_transitions(&self) -> u64 {
        self.transitions
    }

    /// Lifetime `(successes, failures)` recorded for `device`.
    ///
    /// # Panics
    ///
    /// Panics if `device` is out of range.
    pub fn totals(&self, device: usize) -> (u64, u64) {
        let st = &self.states[device];
        (st.successes, st.failures)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_failure_downs_a_device() {
        let mut h = HealthTracker::new(2);
        assert!(h.is_up(0) && h.is_up(1));
        assert!(h.record_failure(0));
        assert!(!h.is_up(0));
        assert!(h.is_up(1));
        assert_eq!(h.down_transitions(), 1);
    }

    #[test]
    fn a_success_revives() {
        let mut h = HealthTracker::new(1);
        assert!(h.record_failure(0));
        h.record_success(0);
        assert!(h.is_up(0));
        assert!(h.record_failure(0), "a revived device goes down again");
        assert_eq!(h.totals(0), (1, 2));
        assert_eq!(h.down_transitions(), 2);
    }

    #[test]
    fn repeat_failures_while_down_do_not_retransition() {
        let mut h = HealthTracker::new(1);
        assert!(h.record_failure(0));
        assert!(!h.record_failure(0));
        assert_eq!(h.down_transitions(), 1);
    }
}
