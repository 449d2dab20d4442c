//! Property test for the replication layer's health tracker.
//!
//! This is a pure `apu-sim` property — no device simulation — so it
//! sweeps long outcome sequences cheaply. The end-to-end
//! kill-a-replica differential (replicated serving equals the flat
//! single-device scan under replica faults) lives in
//! `tests/sharding_props.rs`; this file proves the building block it
//! relies on: a device is down exactly when its last recorded outcome
//! was a device-attributable failure, and any success revives it.

use apu_sim::HealthTracker;
use proptest::prelude::*;

/// Failures in a row that take a device down.
const THRESHOLD: u32 = 1;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Health differential: replay an arbitrary outcome sequence against
    /// a trivial trailing-streak model. A device must be down exactly
    /// when its trailing failure streak has reached [`THRESHOLD`],
    /// `record_failure` must report exactly the up→down transitions, and
    /// their count must match the model's.
    #[test]
    fn health_tracker_matches_the_trailing_streak_model(
        events in proptest::collection::vec((0usize..4, any::<bool>()), 0..64),
    ) {
        let devices = 4;
        let mut tracker = HealthTracker::new(devices);
        let mut streak = vec![0u32; devices];
        let mut down = vec![false; devices];
        let mut transitions = 0u64;
        for &(d, ok) in &events {
            if ok {
                tracker.record_success(d);
                streak[d] = 0;
                down[d] = false;
            } else {
                let went_down = tracker.record_failure(d);
                streak[d] += 1;
                let expect_down = !down[d] && streak[d] >= THRESHOLD;
                if expect_down {
                    down[d] = true;
                    transitions += 1;
                }
                prop_assert_eq!(
                    went_down, expect_down,
                    "device {} transition diverged after {:?}", d, events
                );
            }
        }
        for (d, &is_down) in down.iter().enumerate() {
            prop_assert_eq!(
                tracker.is_up(d), !is_down,
                "device {} diverged after {:?}", d, events
            );
        }
        prop_assert_eq!(tracker.down_transitions(), transitions);
    }
}
