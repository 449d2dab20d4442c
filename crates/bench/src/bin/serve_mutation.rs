//! Live-corpus churn study: serving a bursty interactive query stream
//! while background compaction runs on the same device queue, comparing
//! the default low-priority compaction against compaction submitted at
//! the queries' own (interactive) priority.
//!
//! A [`rag::ShardedRagServer::new_mutable`] cluster serves periodic
//! bursts of interactive queries. Between bursts a scripted churn
//! stream (fixed inserts + deletes, identical in both arms) mutates the
//! corpus, so every burst pins a fresh snapshot and delta segments
//! accumulate; one compaction per shard is requested to arrive exactly
//! at a mid-stream burst. The two arms differ in **exactly one bit**:
//!
//! * **low** — [`rag::ServeConfig::compaction_priority`] stays at its
//!   default [`apu_sim::Priority::Low`]: the merge yields to every
//!   arrived query and runs in the idle gap after the burst drains;
//! * **interactive** — compaction submits at [`apu_sim::Priority::Normal`],
//!   the queries' own class, so FIFO order lets the merge (a full
//!   base-segment stream through HBM, hundreds of query service times
//!   long) claim a core at the burst's head and the burst drains on the
//!   remaining cores.
//!
//! *Goodput-under-SLO* counts completions within an SLO fixed from the
//! calibration probe — between a full-width and a one-core-short burst
//! drain — so the displaced burst shows up as lost goodput while the
//! unperturbed bursts stay inside. The low arm runs twice at the same
//! seed and the binary asserts the runs agree
//! completion-for-completion and export byte-identical `apu_corpus_*`
//! series. `--smoke` runs a reduced volume, enforces a strict goodput
//! gap (low > interactive), and writes `BENCH_serve_mutation.json`.

use std::time::Duration;

use apu_sim::{ExecMode, Priority, QueueConfig, SimConfig};
use cis_bench::table::{print_table, section};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::{
    CorpusSpec, CorpusStats, EmbeddingStore, MutableCorpus, QuerySpec, ServeConfig,
    ShardedRagServer,
};

/// Serving batch cap; every burst shares one snapshot, so its queries
/// coalesce into full batches.
const MAXB: usize = 4;

/// Queries per burst (all arriving at the burst instant).
const BURST: usize = 96;

/// Host-side writes between consecutive bursts: the fixed churn both
/// arms replay identically.
const INSERTS_PER_GAP: usize = 8;
const DELETES_PER_GAP: usize = 3;

// The compaction arrives at the *last* burst (the slowest profile —
// every delta segment the churn accumulated is still live), so the SLO
// calibrated against that profile holds for every earlier burst too.

fn main() {
    let cfg = cis_bench::parse_args();
    let wall_start = std::time::Instant::now();

    // The base size is per *shard*: the study's mechanism needs each
    // shard's merge (proportional to its base) to outweigh a burst
    // drain (dominated by per-delta scan overhead, independent of the
    // shard count), so sharding must not shrink the merge.
    let shards = cfg.shards.max(1);
    let per_shard_bytes = if cfg.smoke {
        96.0e6 as u64
    } else {
        (10.0e9 * cfg.scale).max(512.0e6) as u64
    };
    let corpus_bytes = per_shard_bytes * shards as u64;
    let store = EmbeddingStore::size_only(CorpusSpec::from_corpus_bytes(corpus_bytes), cfg.seed);
    let bursts = if cfg.smoke { 4 } else { 8 };

    // Calibrate on a scratch device — everything is a deterministic
    // function of the corpus shape and churn script. The batch probe
    // replays the full churn (base + every delta segment the last
    // burst will see) through the snapshot scan path, because each
    // delta segment costs a whole extra scan pipeline, not just its
    // share of chunks.
    let mut probe_dev = apu_sim::ApuDevice::try_new(sim()).expect("default config is valid");
    let mut probe_hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let batch: Vec<Vec<i16>> = (0..MAXB).map(query).collect();
    let batch_service = {
        let mut c = MutableCorpus::new(&store, shards);
        let mut del = 0u32;
        for b in 0..bursts {
            for w in 0..INSERTS_PER_GAP {
                c.insert(&store.query(10_000 + (b * INSERTS_PER_GAP + w) as u64))
                    .expect("probe insert");
            }
            for _ in 0..DELETES_PER_GAP {
                assert!(c.delete(del));
                del += 1;
            }
            c.snapshot();
        }
        let snap = c.snapshot();
        let (report, _, _) = rag::mutable::snapshot_scan(
            &mut probe_dev,
            &mut probe_hbm,
            &snap.shards[0],
            None,
            &batch,
            5,
        )
        .expect("probe snapshot batch");
        report.duration
    };
    let merge_service = {
        let mut c = MutableCorpus::new(&store, shards);
        // Consecutive doc ids round-robin across shards, so `shards`
        // inserts guarantee shard 0 has a delta to compact.
        for i in 0..shards {
            c.insert(&store.query(1 + i as u64)).expect("probe insert");
        }
        c.snapshot();
        c.request_compaction(0, Duration::ZERO)
            .expect("probe request")
            .expect("one sealed delta to compact");
        let plans = c.take_plans();
        let (report, _) =
            rag::mutable::run_compaction_task(&mut probe_dev, &mut probe_hbm, &plans[0])
                .expect("probe merge");
        report.duration
    };

    // A burst is `BURST / MAXB` batches served `cores` at a time; the
    // SLO sits halfway between a full-width drain and a drain that lost
    // one core to the merge, so only a displaced burst breaches it.
    let cores = sim().cores;
    let batches = BURST.div_ceil(MAXB);
    let rounds_full = batches.div_ceil(cores);
    let rounds_short = batches.div_ceil(cores - 1);
    let window = Duration::from_millis(2);
    let slo = window + batch_service * (rounds_full + rounds_short) as u32 / 2;
    // Bursts are spaced so a merge plus a full burst drain always fits
    // the gap and never touches the next burst.
    let period = 2 * merge_service + window + batch_service * 2 * rounds_short as u32;

    section(&format!(
        "live-corpus churn: {} corpus, {shards} shard(s), {bursts} bursts of {BURST} \
         queries every {:.0} ms, {INSERTS_PER_GAP} inserts + {DELETES_PER_GAP} deletes \
         per gap, merge ~{:.1} ms vs batch ~{:.2} ms, SLO {:.2} ms (timing-only)",
        cis_bench::fmt_bytes(corpus_bytes),
        period.as_secs_f64() * 1e3,
        merge_service.as_secs_f64() * 1e3,
        batch_service.as_secs_f64() * 1e3,
        slo.as_secs_f64() * 1e3,
    ));

    let low_a = run_arm(&store, shards, bursts, period, Priority::Low);
    let low_b = run_arm(&store, shards, bursts, period, Priority::Low);
    assert_eq!(
        low_a.outcomes, low_b.outcomes,
        "two low-arm runs at one seed must agree completion-for-completion"
    );
    assert_eq!(
        low_a.corpus, low_b.corpus,
        "corpus counters must replay identically at one seed"
    );
    assert_eq!(
        corpus_series(&low_a.prometheus),
        corpus_series(&low_b.prometheus),
        "apu_corpus_* series must replay identically at one seed"
    );
    let hot = run_arm(&store, shards, bursts, period, Priority::Normal);
    assert_eq!(
        low_a.corpus, hot.corpus,
        "compaction priority must not change what the corpus converges to"
    );

    let mut rows = Vec::new();
    for (arm, run) in [("low", &low_a), ("interactive", &hot)] {
        rows.push(vec![
            arm.to_string(),
            format!("{}", run.outcomes.len()),
            format!("{}", run.served()),
            format!("{}", run.within_slo(slo)),
            format!("{:.2}", run.percentile(0.50).as_secs_f64() * 1e3),
            format!("{:.2}", run.percentile(0.99).as_secs_f64() * 1e3),
            format!("{}", run.corpus.compactions),
        ]);
    }
    print_table(
        &[
            "compaction",
            "offered",
            "served",
            "in-SLO",
            "p50 (ms)",
            "p99 (ms)",
            "merges",
        ],
        &rows,
    );

    let low_good = low_a.within_slo(slo);
    let hot_good = hot.within_slo(slo);
    println!();
    println!(
        "Goodput-under-SLO: low {low_good}, interactive {hot_good} ({:+} queries); \
         corpus converged identically in both arms ({} live docs, {} inserts, {} deletes, \
         {} compactions).",
        low_good as i64 - hot_good as i64,
        low_a.corpus.live_docs,
        low_a.corpus.inserts,
        low_a.corpus.deletes,
        low_a.corpus.compactions,
    );
    println!();
    println!("The merge streams the whole base segment through HBM - hundreds of");
    println!("query service times. At the queries' own priority it claims a core");
    println!("at the burst's head and the burst drains one core short, breaching");
    println!("the SLO; at low priority the identical merge waits out the burst");
    println!("and runs in the idle gap - the corpus still converges identically.");
    println!();
    println!("Corpus series from the low arm's Prometheus export:");
    for line in corpus_series(&low_a.prometheus) {
        println!("  {line}");
    }

    assert!(
        low_good >= hot_good,
        "low-priority compaction must never lose goodput to interactive-priority \
         compaction (low {low_good} vs interactive {hot_good})"
    );
    assert!(
        low_a.corpus.compactions >= 1,
        "the study must actually compact (requested at the last burst)"
    );

    if cfg.smoke {
        let wall = wall_start.elapsed().as_secs_f64();
        let json = format!(
            "{{\n  \"bench\": \"serve_mutation\",\n  \"mode\": \"smoke\",\n  \"seed\": {},\n  \
             \"shards\": {},\n  \"corpus_bytes\": {},\n  \"queries\": {},\n  \
             \"inserts\": {},\n  \"deletes\": {},\n  \"compactions\": {},\n  \
             \"live_docs\": {},\n  \"slo_ms\": {:.3},\n  \"low_in_slo\": {},\n  \
             \"interactive_in_slo\": {},\n  \"goodput_gap\": {},\n  \
             \"low_p99_ms\": {:.3},\n  \"interactive_p99_ms\": {:.3},\n  \
             \"wall_seconds\": {:.3}\n}}\n",
            cfg.seed,
            shards,
            corpus_bytes,
            low_a.outcomes.len(),
            low_a.corpus.inserts,
            low_a.corpus.deletes,
            low_a.corpus.compactions,
            low_a.corpus.live_docs,
            slo.as_secs_f64() * 1e3,
            low_good,
            hot_good,
            low_good as i64 - hot_good as i64,
            low_a.percentile(0.99).as_secs_f64() * 1e3,
            hot.percentile(0.99).as_secs_f64() * 1e3,
            wall,
        );
        std::fs::write("BENCH_serve_mutation.json", &json)
            .expect("write BENCH_serve_mutation.json");
        println!();
        println!("Smoke summary written to BENCH_serve_mutation.json (wall {wall:.3} s).");
        assert!(
            low_good > hot_good,
            "smoke gate: low-priority compaction must beat interactive-priority \
             compaction on in-SLO goodput (low {low_good} vs interactive {hot_good})"
        );
    }
}

/// One arm's outcome: per-query results in submission order, the final
/// corpus counters, and the Prometheus export.
struct ArmRun {
    /// `(ticket, served, latency)` per query, submission order.
    outcomes: Vec<(u64, bool, Duration)>,
    corpus: CorpusStats,
    prometheus: String,
}

impl ArmRun {
    fn served(&self) -> usize {
        self.outcomes.iter().filter(|(_, ok, _)| *ok).count()
    }

    fn within_slo(&self, slo: Duration) -> usize {
        self.outcomes
            .iter()
            .filter(|(_, ok, l)| *ok && *l <= slo)
            .count()
    }

    fn percentile(&self, q: f64) -> Duration {
        let mut lat: Vec<Duration> = self
            .outcomes
            .iter()
            .filter(|(_, ok, _)| *ok)
            .map(|(_, _, l)| *l)
            .collect();
        lat.sort();
        if lat.is_empty() {
            Duration::ZERO
        } else {
            lat[((lat.len() - 1) as f64 * q).round() as usize]
        }
    }
}

/// Replays the identical burst + churn script through one compaction
/// priority. Writes are host-side and scripted per inter-burst gap, so
/// both arms mutate the corpus identically; only where the merge lands
/// in the device schedule differs.
fn run_arm(
    store: &EmbeddingStore,
    shards: usize,
    bursts: usize,
    period: Duration,
    compaction_priority: Priority,
) -> ArmRun {
    let cfg = ServeConfig {
        batch_window: Duration::from_millis(2),
        max_batch: MAXB,
        queue: QueueConfig::default().with_max_pending(8192),
        compaction_priority,
        ..ServeConfig::default()
    };
    let mut server =
        ShardedRagServer::new_mutable(store, shards, sim(), cfg).expect("cluster construction");
    let mut next_delete = 0u32;
    let mut qi = 0usize;
    for b in 0..bursts {
        // The gap's churn lands before the burst, so the whole burst
        // pins one snapshot and coalesces into full batches.
        for w in 0..INSERTS_PER_GAP {
            server
                .insert_doc(&store.query(10_000 + (b * INSERTS_PER_GAP + w) as u64))
                .expect("insert");
        }
        for _ in 0..DELETES_PER_GAP {
            assert!(server.delete_doc(next_delete).expect("delete"));
            next_delete += 1;
        }
        let at = period * b as u32;
        if b == bursts - 1 {
            // The merge arrives at the same virtual instant as this
            // burst: priority alone decides whether it claims a core
            // ahead of the queries.
            for s in 0..shards {
                server
                    .request_compaction(s, at)
                    .expect("request")
                    .expect("sealed deltas exist by the compaction burst");
            }
        }
        for _ in 0..BURST {
            server
                .submit_query(QuerySpec::new(at, query(qi)))
                .expect("submit");
            qi += 1;
        }
    }
    let report = server.drain().expect("drain");
    let mut outcomes: Vec<(u64, bool, Duration)> = report
        .completions
        .iter()
        .map(|c| (c.ticket.id(), c.is_ok(), c.latency()))
        .collect();
    outcomes.sort_by_key(|&(id, ..)| id);
    ArmRun {
        outcomes,
        corpus: report.corpus,
        prometheus: report.prometheus_text(),
    }
}

fn corpus_series(prometheus: &str) -> Vec<&str> {
    prometheus
        .lines()
        .filter(|l| l.starts_with("apu_corpus_"))
        .collect()
}

fn sim() -> SimConfig {
    SimConfig::default()
        .with_l4_bytes(1 << 20)
        .with_exec_mode(ExecMode::TimingOnly)
}

fn query(i: usize) -> Vec<i16> {
    vec![(i as i16 % 7) - 3; EMBED_DIM]
}
