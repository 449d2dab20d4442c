//! Seed-deterministic, replayable multi-tenant workload traces.
//!
//! A [`TrafficSpec`] describes one arrival process per tenant —
//! open-loop Poisson, periodic bursts, a linear ramp, or heavy-tailed
//! (Pareto) inter-arrivals — and [`TrafficSpec::generate`] expands it
//! into a [`WorkloadTrace`]: a time-sorted list of [`ArrivalEvent`]s.
//! Generation is a pure function of `(spec, seed, horizon)`: every
//! tenant draws from its own splitmix64 substream, so adding or
//! reordering tenants never perturbs another tenant's arrivals and the
//! same seed always replays the same trace (the determinism the serving
//! benchmarks rely on to compare schedulers on identical offered load).
//!
//! ```
//! use apu_sim::{ArrivalProcess, Priority, TenantId, TenantTraffic, TrafficSpec};
//! use std::time::Duration;
//!
//! let spec = TrafficSpec::new(vec![
//!     TenantTraffic::new(TenantId::new(0), ArrivalProcess::Poisson { rate_qps: 500.0 })
//!         .priority(Priority::High)
//!         .slo(Duration::from_millis(2)),
//!     TenantTraffic::new(
//!         TenantId::new(1),
//!         ArrivalProcess::Burst {
//!             base_qps: 100.0,
//!             burst_qps: 4_000.0,
//!             period: Duration::from_millis(50),
//!             burst_len: Duration::from_millis(5),
//!         },
//!     ),
//! ]);
//! let trace = spec.generate(42, Duration::from_millis(100));
//! let replay = spec.generate(42, Duration::from_millis(100));
//! assert_eq!(trace, replay);
//! assert!(!trace.events.is_empty());
//! ```

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::queue::Priority;
use crate::spec::TenantId;

/// The arrival process of one tenant's open-loop request stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate (exponential
    /// inter-arrival gaps).
    Poisson {
        /// Mean arrival rate in queries per second.
        rate_qps: f64,
    },
    /// Periodic square-wave bursts: `burst_qps` for the first
    /// `burst_len` of every `period`, `base_qps` for the remainder
    /// (diurnal spikes, retry storms). Gaps stay exponential at the
    /// instantaneous rate.
    Burst {
        /// Off-burst arrival rate in queries per second.
        base_qps: f64,
        /// In-burst arrival rate in queries per second.
        burst_qps: f64,
        /// Burst repetition period.
        period: Duration,
        /// Burst duration at the start of each period.
        burst_len: Duration,
    },
    /// Rate climbing linearly from `start_qps` at time zero to
    /// `end_qps` at the generation horizon (load tests, launch ramps).
    Ramp {
        /// Arrival rate at time zero, queries per second.
        start_qps: f64,
        /// Arrival rate at the horizon, queries per second.
        end_qps: f64,
    },
    /// Pareto inter-arrival gaps with tail index `alpha` and the given
    /// mean rate: most gaps are short, a heavy tail of long silences
    /// separates clumps of closely spaced requests.
    HeavyTailed {
        /// Mean arrival rate in queries per second.
        rate_qps: f64,
        /// Pareto tail index; must exceed 1 for the mean to exist
        /// (values are clamped to 1.05). Smaller = burstier.
        alpha: f64,
    },
}

/// One tenant's contribution to a [`TrafficSpec`]: an arrival process
/// plus the scheduling attributes every generated arrival carries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TenantTraffic {
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Priority class of this tenant's arrivals.
    pub priority: Priority,
    /// Per-request latency SLO; generated arrivals carry
    /// `deadline = at + slo` when set.
    pub slo: Option<Duration>,
    /// The arrival process.
    pub process: ArrivalProcess,
}

impl TenantTraffic {
    /// A tenant stream with `Normal` priority and no SLO.
    pub fn new(tenant: TenantId, process: ArrivalProcess) -> Self {
        TenantTraffic {
            tenant,
            priority: Priority::Normal,
            slo: None,
            process,
        }
    }

    /// Sets the priority class.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-request latency SLO.
    #[must_use]
    pub fn slo(mut self, slo: Duration) -> Self {
        self.slo = Some(slo);
        self
    }
}

/// A multi-tenant traffic description; see the
/// [module documentation](self).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TrafficSpec {
    /// One arrival stream per tenant.
    pub tenants: Vec<TenantTraffic>,
}

impl TrafficSpec {
    /// Wraps a set of tenant streams.
    pub fn new(tenants: Vec<TenantTraffic>) -> Self {
        TrafficSpec { tenants }
    }

    /// Expands the spec into the time-sorted arrival trace over
    /// `[0, horizon)`. Pure in `(self, seed, horizon)`.
    pub fn generate(&self, seed: u64, horizon: Duration) -> WorkloadTrace {
        let mut events: Vec<ArrivalEvent> = Vec::new();
        for t in &self.tenants {
            // Independent substream per tenant: perturbing one tenant's
            // spec never shifts another's draws.
            let mut rng = Splitmix64::new(seed ^ mix64(t.tenant.get().wrapping_add(1)));
            let mut now = Duration::ZERO;
            while let Some(gap) = t.process.next_gap(now, horizon, &mut rng) {
                now += gap;
                if now >= horizon {
                    break;
                }
                events.push(ArrivalEvent {
                    at: now,
                    tenant: t.tenant,
                    priority: t.priority,
                    deadline: t.slo.map(|s| now + s),
                });
            }
        }
        events.sort_by_key(|e| (e.at, e.tenant));
        WorkloadTrace { events }
    }
}

impl ArrivalProcess {
    /// Draws the gap to the next arrival after virtual time `now`, or
    /// `None` when the stream is exhausted (zero-rate tail).
    fn next_gap(&self, now: Duration, horizon: Duration, rng: &mut Splitmix64) -> Option<Duration> {
        match *self {
            ArrivalProcess::Poisson { rate_qps } => exp_gap(rate_qps, rng),
            ArrivalProcess::Burst {
                base_qps,
                burst_qps,
                period,
                burst_len,
            } => {
                let rate = if period.is_zero() {
                    base_qps
                } else {
                    let phase_ns = now.as_nanos() % period.as_nanos();
                    if phase_ns < burst_len.as_nanos() {
                        burst_qps
                    } else {
                        base_qps
                    }
                };
                exp_gap(rate, rng)
            }
            ArrivalProcess::Ramp { start_qps, end_qps } => {
                let frac = if horizon.is_zero() {
                    0.0
                } else {
                    now.as_secs_f64() / horizon.as_secs_f64()
                };
                exp_gap(start_qps + (end_qps - start_qps) * frac, rng)
            }
            ArrivalProcess::HeavyTailed { rate_qps, alpha } => {
                if rate_qps <= 0.0 {
                    return None;
                }
                let a = alpha.max(1.05);
                // Pareto(xm, a) with mean 1/rate: xm = (a-1)/(a*rate).
                let xm = (a - 1.0) / (a * rate_qps);
                let u = rng.next_unit();
                let gap = xm / (1.0 - u).powf(1.0 / a);
                duration_from_secs(gap)
            }
        }
    }
}

/// One generated arrival: when it lands, who sent it, and how it should
/// be scheduled. Feed into [`crate::TaskSpec`] via
/// [`crate::TaskSpec::at`] / [`crate::TaskSpec::tenant`] /
/// [`crate::TaskSpec::deadline_at`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrivalEvent {
    /// Arrival time on the virtual timeline.
    pub at: Duration,
    /// The submitting tenant.
    pub tenant: TenantId,
    /// Priority class.
    pub priority: Priority,
    /// Absolute start deadline (`at + slo`), when the tenant has one.
    pub deadline: Option<Duration>,
}

/// A generated, replayable arrival trace, sorted by arrival time.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct WorkloadTrace {
    /// The arrivals, sorted by `(at, tenant)`.
    pub events: Vec<ArrivalEvent>,
}

impl WorkloadTrace {
    /// The arrivals of one tenant, in time order.
    pub fn for_tenant(&self, tenant: TenantId) -> impl Iterator<Item = &ArrivalEvent> {
        self.events.iter().filter(move |e| e.tenant == tenant)
    }
}

/// An exponential inter-arrival gap at `rate_qps`, or `None` for a
/// non-positive rate (the stream goes quiet).
fn exp_gap(rate_qps: f64, rng: &mut Splitmix64) -> Option<Duration> {
    if rate_qps <= 0.0 {
        return None;
    }
    let u = rng.next_unit();
    duration_from_secs(-(1.0 - u).ln() / rate_qps)
}

/// Saturating `Duration::from_secs_f64` that tolerates huge gaps from
/// deep tail draws.
fn duration_from_secs(secs: f64) -> Option<Duration> {
    if !secs.is_finite() {
        return None;
    }
    Some(Duration::from_nanos(
        (secs * 1e9).min(u64::MAX as f64).max(0.0) as u64,
    ))
}

/// SplitMix64 bit mixer (Steele et al.), the same finalizer the
/// latency-reservoir RNG uses.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Minimal deterministic PRNG: a splitmix64 counter stream.
struct Splitmix64 {
    state: u64,
}

impl Splitmix64 {
    fn new(seed: u64) -> Self {
        Splitmix64 { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.state)
    }

    /// Uniform draw in `[0, 1)` with 53 bits of precision.
    fn next_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn burst_spec() -> TrafficSpec {
        TrafficSpec::new(vec![
            TenantTraffic::new(
                TenantId::new(0),
                ArrivalProcess::Poisson { rate_qps: 2_000.0 },
            )
            .priority(Priority::High)
            .slo(Duration::from_millis(1)),
            TenantTraffic::new(
                TenantId::new(1),
                ArrivalProcess::Burst {
                    base_qps: 200.0,
                    burst_qps: 20_000.0,
                    period: Duration::from_millis(20),
                    burst_len: Duration::from_millis(2),
                },
            ),
        ])
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let spec = burst_spec();
        let horizon = Duration::from_millis(50);
        let a = spec.generate(7, horizon);
        let b = spec.generate(7, horizon);
        assert_eq!(a, b);
        let c = spec.generate(8, horizon);
        assert_ne!(a, c, "different seeds should draw different traces");
    }

    #[test]
    fn tenant_substreams_are_independent() {
        let spec = burst_spec();
        let horizon = Duration::from_millis(50);
        let both = spec.generate(7, horizon);
        let solo = TrafficSpec::new(vec![spec.tenants[1]]).generate(7, horizon);
        let from_both: Vec<_> = both.for_tenant(TenantId::new(1)).copied().collect();
        assert_eq!(from_both, solo.events);
    }

    #[test]
    fn events_are_sorted_and_deadlines_follow_slo() {
        let spec = burst_spec();
        let trace = spec.generate(3, Duration::from_millis(50));
        assert!(trace.events.windows(2).all(|w| w[0].at <= w[1].at));
        for e in trace.for_tenant(TenantId::new(0)) {
            assert_eq!(e.deadline, Some(e.at + Duration::from_millis(1)));
            assert_eq!(e.priority, Priority::High);
        }
    }

    #[test]
    fn burst_windows_cluster_arrivals() {
        let spec = TrafficSpec::new(vec![TenantTraffic::new(
            TenantId::new(0),
            ArrivalProcess::Burst {
                base_qps: 100.0,
                burst_qps: 50_000.0,
                period: Duration::from_millis(10),
                burst_len: Duration::from_millis(1),
            },
        )]);
        let trace = spec.generate(11, Duration::from_millis(100));
        let in_burst = trace
            .events
            .iter()
            .filter(|e| e.at.as_nanos() % 10_000_000 < 1_000_000)
            .count();
        // 10% of the timeline carries the overwhelming majority of load.
        assert!(in_burst * 2 > trace.events.len());
    }

    #[test]
    fn ramp_rate_increases_over_the_horizon() {
        let spec = TrafficSpec::new(vec![TenantTraffic::new(
            TenantId::new(0),
            ArrivalProcess::Ramp {
                start_qps: 100.0,
                end_qps: 10_000.0,
            },
        )]);
        let horizon = Duration::from_millis(200);
        let trace = spec.generate(5, horizon);
        let half = horizon / 2;
        let first = trace.events.iter().filter(|e| e.at < half).count();
        let second = trace.events.len() - first;
        assert!(
            second > first * 2,
            "ramp back half ({second}) should out-arrive front half ({first})"
        );
    }

    #[test]
    fn zero_rate_streams_terminate() {
        let spec = TrafficSpec::new(vec![TenantTraffic::new(
            TenantId::new(0),
            ArrivalProcess::Poisson { rate_qps: 0.0 },
        )]);
        let trace = spec.generate(1, Duration::from_secs(1));
        assert!(trace.events.is_empty());
    }

    #[test]
    fn specs_and_traces_are_serde() {
        fn assert_serde<T: serde::Serialize + for<'de> serde::Deserialize<'de>>() {}
        assert_serde::<TrafficSpec>();
        assert_serde::<WorkloadTrace>();
        assert_serde::<ArrivalProcess>();
    }
}
