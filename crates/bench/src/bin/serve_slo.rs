//! SLO study: goodput under per-tenant latency SLOs, SLO-aware
//! scheduling vs. naive FIFO, on seed-deterministic multi-tenant traces.
//!
//! Three burst scenarios — periodic burst, linear ramp, heavy-tailed
//! arrivals — each mix a latency-sensitive *interactive* tenant and a
//! best-effort *batch* tenant with a scenario-specific *aggressor*
//! stream that pushes the queue past capacity. The same
//! [`apu_sim::TrafficSpec`] trace (same seed, same arrivals) is served
//! twice through a [`rag::ShardedRagServer`]:
//!
//! * **fifo** — the historical scheduler: strict `(priority, arrival)`
//!   order, no tenant weights, no deadlines, no admission control;
//! * **slo** — [`apu_sim::SchedPolicy::SloAware`]: weighted fair-share
//!   across tenants (interactive carries 8× the batch weight),
//!   EDF-ordered batch membership, per-query TTLs that shed doomed
//!   work at its deadline, and admission control bounding the backlog.
//!
//! *Goodput-under-SLO* counts only the interactive completions that
//! finish within the tenant's SLO; the table also reports best-effort
//! served counts, shed work, and per-tenant p50/p99. The SLO arm runs
//! twice at the same seed and the binary asserts the two runs agree
//! completion-for-completion — the determinism the A/B comparison
//! rests on. `--smoke` runs one scenario at reduced volume for CI;
//! `--shards N` (default 1) widens the cluster and, for `N > 1`, arms
//! tail-latency hedging in the SLO configuration.

use std::time::Duration;

use apu_sim::trace::prometheus_text;
use apu_sim::{
    AdmissionControl, ArrivalProcess, ExecMode, QueueConfig, SchedPolicy, SimConfig, TenantId,
    TenantTraffic, TrafficSpec, WorkloadTrace,
};
use cis_bench::table::{print_table, section};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::{CorpusSpec, EmbeddingStore, QuerySpec, ServeConfig, ShardedRagServer};

/// Serving batch cap for the study (both arms): small enough that an
/// overloaded run spans dozens of dispatch rounds, so queueing — not a
/// single giant batch — dominates the latency distribution.
const MAXB: usize = 4;

const INTERACTIVE: TenantId = TenantId::new(1);
const BATCH: TenantId = TenantId::new(2);
const AGGRESSOR: TenantId = TenantId::new(3);

fn main() {
    let cfg = cis_bench::parse_args();
    let smoke = std::env::args().any(|a| a == "--smoke");

    // The corpus sets the per-batch service time; it must dwarf the
    // batch window so queueing (not batching) dominates under overload.
    let corpus_bytes = if smoke {
        128.0e6 as u64
    } else {
        (10.0e9 * cfg.scale).max(512.0e6) as u64
    };
    let store = EmbeddingStore::size_only(CorpusSpec::from_corpus_bytes(corpus_bytes), cfg.seed);
    let shards = cfg.shards.max(1);
    let total_queries = if smoke { 150 } else { 400 };

    // Calibrate offered load to the cluster's amortized service
    // capacity so "overload" means the same thing at every --scale.
    let shard0 = store.shards(shards).remove(0).store;
    let (per_query_s, batch_service) = {
        let mut dev = apu_sim::ApuDevice::try_new(sim()).expect("default config is valid");
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let batch: Vec<Vec<i16>> = (0..MAXB).map(query).collect();
        let r = rag::retrieve_batch(&mut dev, &mut hbm, &shard0, &batch, 5)
            .expect("probe batch retrieval");
        let total_s = r.breakdown.total_ms() / 1e3;
        (total_s / MAXB as f64, total_s)
    };
    // Every device core serves a full batch concurrently, so cluster
    // capacity is cores x the amortized per-query rate (x shards, but
    // fan-out also multiplies the work by shards — they cancel).
    let capacity_qps = sim().cores as f64 / per_query_s;
    // Light-load latency is one batch window plus one batch service;
    // the SLO grants 2x that budget before a completion stops counting.
    let batch_window = Duration::from_millis(2);
    let slo = 2 * (batch_window + Duration::from_secs_f64(batch_service));

    section(&format!(
        "SLO study: {} corpus, {shards} shard(s), capacity ~{capacity_qps:.0} QPS, \
         interactive SLO {:.2} ms (timing-only)",
        cis_bench::fmt_bytes(corpus_bytes),
        slo.as_secs_f64() * 1e3,
    ));

    let scenarios: &[&str] = if smoke {
        &["burst"]
    } else {
        &["burst", "ramp", "heavy-tail"]
    };
    let mut headlines = Vec::new();
    for &scenario in scenarios {
        // Horizon sized so capacity alone could serve the query budget;
        // the scenarios then offer roughly 2x that.
        let horizon = Duration::from_secs_f64(total_queries as f64 / capacity_qps);
        let spec = traffic(scenario, capacity_qps, slo, horizon);
        let trace = spec.generate(cfg.seed, horizon);
        assert_eq!(
            trace,
            spec.generate(cfg.seed, horizon),
            "trace generation must be deterministic in the seed"
        );

        let fifo = run_arm(&store, shards, &trace, fifo_config(batch_window), false);
        let slo_a = run_arm(
            &store,
            shards,
            &trace,
            slo_config(batch_window, shards),
            true,
        );
        let slo_b = run_arm(
            &store,
            shards,
            &trace,
            slo_config(batch_window, shards),
            true,
        );
        assert_eq!(
            slo_a.outcomes, slo_b.outcomes,
            "two SLO-arm runs at one seed must agree completion-for-completion"
        );

        section(&format!(
            "scenario {scenario}: {} arrivals over {:.0} ms",
            trace.events.len(),
            horizon.as_secs_f64() * 1e3,
        ));
        let mut rows = Vec::new();
        for (arm, run) in [("fifo", &fifo), ("slo", &slo_a)] {
            for (name, tenant) in tenant_axis() {
                let t = run.tenant(tenant, slo);
                rows.push(vec![
                    arm.to_string(),
                    name.to_string(),
                    format!("{}", t.offered),
                    format!("{}", t.served),
                    format!("{}", t.shed),
                    if tenant == INTERACTIVE {
                        format!("{}", t.within_slo)
                    } else {
                        "-".to_string()
                    },
                    format!("{:.2}", t.p50.as_secs_f64() * 1e3),
                    format!("{:.2}", t.p99.as_secs_f64() * 1e3),
                ]);
            }
        }
        print_table(
            &[
                "arm", "tenant", "offered", "served", "shed", "in-SLO", "p50 (ms)", "p99 (ms)",
            ],
            &rows,
        );

        let fifo_good = fifo.tenant(INTERACTIVE, slo).within_slo;
        let slo_good = slo_a.tenant(INTERACTIVE, slo).within_slo;
        println!(
            "Interactive goodput-under-SLO: fifo {fifo_good}, slo {slo_good} \
             ({:+} queries); SLO arm deterministic across two runs.",
            slo_good as i64 - fifo_good as i64
        );
        headlines.push((scenario, fifo_good, slo_good));

        if scenario == scenarios[0] {
            println!();
            println!("Per-tenant series from the SLO arm's Prometheus export:");
            for line in slo_a
                .prometheus
                .lines()
                .filter(|l| l.starts_with("apu_tenant_"))
            {
                println!("  {line}");
            }
        }
        println!();
    }

    section("summary: interactive goodput-under-SLO (fifo -> slo)");
    for (scenario, fifo_good, slo_good) in &headlines {
        println!(
            "  {scenario:<10} {fifo_good:>4} -> {slo_good:<4} ({:+})",
            *slo_good as i64 - *fifo_good as i64
        );
    }
    println!();
    println!("FIFO serves the backlog in arrival order, so every burst parks the");
    println!("interactive tenant behind the aggressor flood and its SLO budget");
    println!("drains in the queue. The SLO-aware engine keeps the interactive");
    println!("share available (weighted fair queueing), sheds doomed work at its");
    println!("deadline instead of serving it late, and bounds the backlog with");
    println!("admission control - trading best-effort completions for goodput.");
}

fn tenant_axis() -> [(&'static str, TenantId); 3] {
    [
        ("interactive", INTERACTIVE),
        ("batch", BATCH),
        ("aggressor", AGGRESSOR),
    ]
}

/// The scenario's traffic mix: interactive + batch tenants are common,
/// the aggressor stream is what differs.
fn traffic(scenario: &str, capacity_qps: f64, slo: Duration, horizon: Duration) -> TrafficSpec {
    let aggressor = match scenario {
        // Four burst windows per run, each offering 6x capacity for a
        // quarter of its period: mean aggressor load ~1.7x capacity.
        // The off-burst rate stays high enough that inter-arrival gaps
        // cannot step over a whole burst window.
        "burst" => ArrivalProcess::Burst {
            base_qps: 0.3 * capacity_qps,
            burst_qps: 6.0 * capacity_qps,
            period: horizon / 4,
            burst_len: horizon / 16,
        },
        "ramp" => ArrivalProcess::Ramp {
            start_qps: 0.1 * capacity_qps,
            end_qps: 4.0 * capacity_qps,
        },
        "heavy-tail" => ArrivalProcess::HeavyTailed {
            rate_qps: 1.5 * capacity_qps,
            alpha: 1.15,
        },
        other => unreachable!("unknown scenario {other}"),
    };
    TrafficSpec::new(vec![
        TenantTraffic::new(
            INTERACTIVE,
            ArrivalProcess::Poisson {
                rate_qps: 0.30 * capacity_qps,
            },
        )
        .slo(slo),
        TenantTraffic::new(
            BATCH,
            ArrivalProcess::Poisson {
                rate_qps: 0.20 * capacity_qps,
            },
        ),
        TenantTraffic::new(AGGRESSOR, aggressor),
    ])
}

/// The historical scheduler: strict FIFO within priority, no SLO
/// machinery at all.
fn fifo_config(batch_window: Duration) -> ServeConfig {
    ServeConfig {
        batch_window,
        max_batch: MAXB,
        // Both arms take the whole open-loop trace up front; backlog
        // policy is the scheduler's job, not the submission bound's.
        queue: QueueConfig::default().with_max_pending(4096),
        ..ServeConfig::default()
    }
}

/// The SLO-aware engine: weighted fair share, EDF batch membership,
/// admission control, and (when sharded) tail-latency hedging.
fn slo_config(batch_window: Duration, shards: usize) -> ServeConfig {
    ServeConfig {
        batch_window,
        max_batch: MAXB,
        queue: QueueConfig::default()
            .with_max_pending(4096)
            .with_scheduler(SchedPolicy::SloAware)
            .with_tenant_weight(INTERACTIVE, 8)
            .with_tenant_weight(BATCH, 1)
            .with_tenant_weight(AGGRESSOR, 1)
            .with_admission(AdmissionControl::new(6 * MAXB, 24 * MAXB)),
        hedge: (shards > 1).then_some(batch_window),
        ..ServeConfig::default()
    }
}

/// One arm's outcome: the raw per-query results (for the determinism
/// assertion) plus the Prometheus export.
struct ArmRun {
    /// `(ticket, tenant, served, latency)` per query, submission order.
    outcomes: Vec<(u64, u64, bool, Duration)>,
    prometheus: String,
}

struct TenantRow {
    offered: usize,
    served: usize,
    shed: usize,
    within_slo: usize,
    p50: Duration,
    p99: Duration,
}

impl ArmRun {
    fn tenant(&self, tenant: TenantId, slo: Duration) -> TenantRow {
        let of_tenant: Vec<_> = self
            .outcomes
            .iter()
            .filter(|(_, t, _, _)| *t == tenant.get())
            .collect();
        let mut lat: Vec<Duration> = of_tenant
            .iter()
            .filter(|(_, _, ok, _)| *ok)
            .map(|(_, _, _, l)| *l)
            .collect();
        lat.sort();
        let pick = |q: f64| {
            if lat.is_empty() {
                Duration::ZERO
            } else {
                lat[((lat.len() - 1) as f64 * q).round() as usize]
            }
        };
        let served = lat.len();
        TenantRow {
            offered: of_tenant.len(),
            served,
            shed: of_tenant.len() - served,
            within_slo: lat.iter().filter(|&&l| l <= slo).count(),
            p50: pick(0.50),
            p99: pick(0.99),
        }
    }
}

/// Replays the trace through one server configuration.
fn run_arm(
    store: &EmbeddingStore,
    shards: usize,
    trace: &WorkloadTrace,
    cfg: ServeConfig,
    slo_arm: bool,
) -> ArmRun {
    let mut server =
        ShardedRagServer::new(store, shards, sim(), cfg).expect("cluster construction");
    for (i, e) in trace.events.iter().enumerate() {
        let mut q = QuerySpec::new(e.at, query(i))
            .tenant(e.tenant)
            .priority(e.priority);
        // Only the SLO engine knows about deadlines: a query that cannot
        // start within its SLO is shed there instead of served late.
        if slo_arm {
            if let Some(deadline) = e.deadline {
                q = q.ttl(deadline - e.at);
            }
        }
        server.submit_query(q).expect("submit");
    }
    let report = server.drain().expect("drain");
    let mut outcomes: Vec<(u64, u64, bool, Duration)> = report
        .completions
        .iter()
        .map(|c| (c.ticket.id(), c.tenant.get(), c.is_ok(), c.latency()))
        .collect();
    outcomes.sort_by_key(|&(id, ..)| id);
    ArmRun {
        outcomes,
        prometheus: prometheus_text(&report.queue),
    }
}

fn sim() -> SimConfig {
    SimConfig::default()
        .with_l4_bytes(1 << 20)
        .with_exec_mode(ExecMode::TimingOnly)
}

fn query(i: usize) -> Vec<i16> {
    vec![(i as i16 % 7) - 3; EMBED_DIM]
}
