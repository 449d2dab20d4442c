//! End-to-end and per-layer benchmark of the simulated compute-in-SRAM
//! serving stack.
//!
//! Three open-loop workloads drive the public `rag::ShardedRagServer`
//! API. Arrivals are timestamps on the simulator's virtual timeline,
//! handed to the server up front, so the generator is never late: its
//! lateness is zero by construction. Every input is a constant of
//! [`Inputs`] or derives from the run's seed; nothing is calibrated from a
//! probe of the program under test, so a change to the program cannot
//! change the load it is measured under.
//!
//! A run sets up several times (the median is `setup_s`), then serves
//! one *round* after another for the requested seconds. A round is a
//! sequence of bursts: each burst's writes and queries are handed to the
//! server, then the round drains. The first [`SIM_ROUNDS`] rounds each
//! draw their own traffic from the seed and later rounds replay them.
//! Host metrics are medians over rounds; simulated metrics pool the first
//! [`SIM_ROUNDS`] rounds, whose state is fixed by the seed, so they repeat
//! exactly at one seed. Every round's outputs are checked.
//!
//! A traced run (`trace == true`) records host-time spans around every
//! call the benchmark makes into a layer (set-up, writes, submits,
//! drains, probes), alternates recorded and unrecorded rounds to measure
//! the spans' own overhead, and reports per-layer metrics instead of
//! end-to-end ones.

mod probes;
pub mod trace;

use std::collections::HashSet;
use std::time::{Duration, Instant};

use apu_sim::queue::percentile;
use apu_sim::{ApuDevice, ExecMode, MemoCounters, Priority, QueueConfig, SimConfig, VcuStats};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::cpu::cpu_retrieve;
use rag::{
    ApuRetriever, ClusteredCorpus, CorpusSpec, CorpusStats, EmbeddingStore, IndexMode, RagVariant,
    ServeConfig, ServeReport, ShardedRagServer, MAX_BATCH,
};

use trace::Tracer;

/// Hits requested per query on every workload.
pub const K: usize = 10;

/// Admission bound of every queue: above any round's trace length, so a
/// preloaded open-loop trace is never truncated at submit. Any rejection
/// still counts against `ok_frac`.
pub(crate) const MAX_PENDING: usize = 1 << 16;

/// Rounds pooled into the simulated metrics, each with its own traffic
/// drawn from the seed; later rounds replay these scripts. At least 2, so
/// a traced run has a recorded and an unrecorded round.
pub(crate) const SIM_ROUNDS: usize = 4;

/// A run sets up at least this many times, and until the set-ups took
/// [`SETUP_BUDGET`]; `setup_s` is their median.
pub(crate) const SETUP_REPEATS: usize = 3;
pub(crate) const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// `ann_ivf` fails its run when a round's recall@10 drops below this.
pub const RECALL_FLOOR: f64 = 0.9;

/// `ann_ivf` corpus and index shape (the `serve_ann` study's regime).
pub(crate) const TOPICS: usize = 64;
pub(crate) const NOISE: i16 = 1;
pub(crate) const VR_LEN: usize = 512;
pub(crate) const NLIST: usize = 64;
pub(crate) const NPROBE: usize = 2;

/// The paper's Table 8 retrieval totals in ms, no-opt then all-opts, at
/// the 10 / 50 / 200 GB corpus points.
const PAPER_TABLE8_MS: [[f64; 3]; 2] = [[21.8, 129.5, 539.2], [3.9, 20.6, 84.2]];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlatTiming,
    AnnIvf,
    ChurnFf,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::FlatTiming, Workload::AnnIvf, Workload::ChurnFf];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlatTiming => "flat_timing",
            Workload::AnnIvf => "ann_ivf",
            Workload::ChurnFf => "churn_ff",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's simulator configuration. Execution mode and
    /// fast-forward are pinned, so `APU_SIM_FAST_FORWARD` in the
    /// environment cannot flip either.
    pub fn sim_config(self) -> SimConfig {
        match self {
            Workload::FlatTiming => SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly)
                .with_fast_forward(false),
            Workload::AnnIvf => SimConfig {
                vr_len: VR_LEN,
                ..SimConfig::default()
            }
            .with_l4_bytes(64 << 20)
            .with_exec_mode(ExecMode::Functional)
            .with_fast_forward(false),
            Workload::ChurnFf => SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly)
                .with_fast_forward(true),
        }
    }

    fn serve_config(self) -> ServeConfig {
        ServeConfig {
            k: K,
            queue: QueueConfig::default().with_max_pending(MAX_PENDING),
            index: match self {
                Workload::AnnIvf => IndexMode::Ivf {
                    nlist: NLIST,
                    nprobe: NPROBE,
                },
                _ => IndexMode::Flat,
            },
            compaction_priority: Priority::Low,
            ..ServeConfig::default()
        }
    }

    /// The workload's fixed inputs. [`Size::Reduced`] shrinks them for the
    /// benchmark's own tests; runs of the benchmark use [`Size::Full`].
    pub fn inputs(self, size: Size) -> Inputs {
        let full = size == Size::Full;
        match self {
            Workload::FlatTiming => Inputs {
                corpus_bytes: if full { 15_000_000_000 } else { 1_000_000_000 },
                chunks: 0,
                shards: 2,
                queries: if full { 1200 } else { 120 },
                rate_qps: 1200.0,
                slo: Duration::from_millis(10),
                bursts: 1,
                burst_period: Duration::ZERO,
                inserts_per_gap: 0,
                deletes_per_gap: 0,
            },
            Workload::AnnIvf => Inputs {
                corpus_bytes: 0,
                chunks: if full { 16_384 } else { 4096 },
                shards: 1,
                queries: if full { 1200 } else { 120 },
                rate_qps: 2500.0,
                slo: Duration::from_millis(15),
                bursts: 1,
                burst_period: Duration::ZERO,
                inserts_per_gap: 0,
                deletes_per_gap: 0,
            },
            Workload::ChurnFf => Inputs {
                corpus_bytes: if full { 2_000_000_000 } else { 200_000_000 },
                chunks: 0,
                shards: 2,
                queries: if full { 1200 } else { 120 },
                // A burst lands within ~0.1 ms, so its batches fill the
                // same way at every seed and the memo sees the same shapes.
                rate_qps: 1_000_000.0,
                slo: Duration::from_millis(100),
                bursts: if full { 12 } else { 3 },
                burst_period: Duration::from_millis(100),
                inserts_per_gap: 8,
                deletes_per_gap: 3,
            },
        }
    }
}

/// Run size: what the benchmark measures, or a shrunken copy for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Reduced,
}

/// The fixed inputs of one workload.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Nominal bytes of the size-only corpus (`flat_timing`, and the
    /// base of `churn_ff`).
    pub corpus_bytes: u64,
    /// Chunks of the clustered corpus (`ann_ivf`).
    pub chunks: usize,
    pub shards: usize,
    /// Queries per round.
    pub queries: usize,
    /// Offered Poisson rate in queries per virtual second; on `churn_ff`
    /// the rate within a burst.
    pub rate_qps: f64,
    /// Simulated latency limit counted by `slo_goodput`.
    pub slo: Duration,
    /// Bursts per round, and the virtual time between burst starts.
    pub bursts: usize,
    pub burst_period: Duration,
    /// Writes before each burst (`churn_ff`).
    pub inserts_per_gap: usize,
    pub deletes_per_gap: usize,
}

/// One burst of a round: writes applied before its queries, an optional
/// compaction request per shard, and the queries with their arrivals.
#[derive(Debug, Clone)]
pub(crate) struct Burst {
    pub start: Duration,
    pub inserts: Vec<Vec<i16>>,
    pub deletes: Vec<u32>,
    pub compact: bool,
    pub queries: Vec<(Duration, Vec<i16>)>,
}

/// A SplitMix64 stream: the benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub(crate) struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x7065_7266_6265_6e63) // "perfbenc"
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential inter-arrival gap at `rate` per second.
    fn gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.next_f64()).ln() / rate)
    }
}

/// The corpus a workload serves: a fixed data set, the same on every
/// run, so a run's seed varies the traffic and nothing else.
pub(crate) enum Corpus {
    SizeOnly(EmbeddingStore),
    Clustered(ClusteredCorpus),
}

impl Corpus {
    const SEED: u64 = 42;

    fn new(w: Workload, inputs: &Inputs) -> Corpus {
        match w {
            Workload::AnnIvf => Corpus::Clustered(ClusteredCorpus::new(
                CorpusSpec {
                    corpus_bytes: 0,
                    chunks: inputs.chunks,
                },
                TOPICS,
                NOISE,
                Corpus::SEED,
            )),
            _ => Corpus::SizeOnly(EmbeddingStore::size_only(
                CorpusSpec::from_corpus_bytes(inputs.corpus_bytes),
                Corpus::SEED,
            )),
        }
    }

    pub fn store(&self) -> &EmbeddingStore {
        match self {
            Corpus::SizeOnly(s) => s,
            Corpus::Clustered(c) => &c.store,
        }
    }
}

/// Round `round`'s script: `inputs.bursts` bursts, `inputs.burst_period`
/// apart, each of Poisson arrivals at `inputs.rate_qps`. Rounds cycle
/// through [`SIM_ROUNDS`] traffic slots whose arrivals and query vectors
/// derive from the seed alone; on `churn_ff` the deleted ids advance with
/// the round so every delete hits a live base document.
fn script(inputs: &Inputs, corpus: &Corpus, seed: u64, round: usize) -> Vec<Burst> {
    let slot = (round % SIM_ROUNDS) as u64;
    let mut rng = Rng::new(seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let per_burst = inputs.queries / inputs.bursts;
    let deletes_per_round = inputs.bursts * inputs.deletes_per_gap;
    let mut topic = 0;
    (0..inputs.bursts)
        .map(|b| {
            let start = inputs.burst_period * b as u32;
            let mut at = start;
            let queries = (0..per_burst)
                .map(|i| {
                    at += rng.gap(inputs.rate_qps);
                    let id = rng.next_u64();
                    let query = match corpus {
                        // Topic-skewed: each MAX_BATCH-sized block of
                        // arrivals aims at one topic, so batches probe
                        // overlapping clusters.
                        Corpus::Clustered(c) => {
                            if i % MAX_BATCH == 0 {
                                topic = (rng.next_u64() % TOPICS as u64) as usize;
                            }
                            c.query_near(topic, id)
                        }
                        Corpus::SizeOnly(store) => store.query(id),
                    };
                    (at, query)
                })
                .collect();
            let first_delete = round * deletes_per_round + b * inputs.deletes_per_gap;
            Burst {
                start,
                inserts: (0..inputs.inserts_per_gap)
                    .map(|_| corpus.store().query(rng.next_u64()))
                    .collect(),
                deletes: (first_delete..first_delete + inputs.deletes_per_gap)
                    .map(|d| d as u32)
                    .collect(),
                // With writes, one low-priority merge per shard at the last
                // burst folds in every delta the round sealed.
                compact: inputs.inserts_per_gap > 0 && b + 1 == inputs.bursts,
                queries,
            }
        })
        .collect()
}

/// The arrival instants of round 0 (for the tests: a different seed
/// must give a different stream).
pub fn arrivals(w: Workload, size: Size, seed: u64) -> Vec<Duration> {
    let inputs = w.inputs(size);
    let corpus = Corpus::new(w, &inputs);
    script(&inputs, &corpus, seed, 0)
        .into_iter()
        .flat_map(|b| b.queries.into_iter().map(|(at, _)| at))
        .collect()
}

/// A set-up server plus the corpus it serves.
struct Setup {
    corpus: Corpus,
    server: ShardedRagServer,
}

/// Generates the corpus, builds the server, and drains one warm-up query,
/// which builds the lazy IVF index on `ann_ivf`.
fn setup(w: Workload, inputs: &Inputs, tr: &mut Tracer) -> Result<Setup, String> {
    let (corpus, _) = tr.span("setup.corpus", None, |_| Corpus::new(w, inputs));
    let (server, _) = tr.span("setup.server", None, |_| {
        let build = if w == Workload::ChurnFf {
            ShardedRagServer::new_mutable
        } else {
            ShardedRagServer::new
        };
        build(
            corpus.store(),
            inputs.shards,
            w.sim_config(),
            w.serve_config(),
        )
    });
    let mut server = server.map_err(|e| format!("server construction: {e}"))?;
    let warm = corpus.store().query(u64::MAX);
    let (warmed, _) = tr.span("setup.warmup", None, |_| {
        server.submit(Duration::ZERO, warm)?;
        server.drain()
    });
    let report = warmed.map_err(|e| format!("warm-up drain: {e}"))?;
    if report.served() != 1 {
        return Err("warm-up query was not served".into());
    }
    Ok(Setup { corpus, server })
}

/// Host times and outputs of one round.
struct RoundOut {
    report: ServeReport,
    submitted: usize,
    rejected: usize,
    submit: Duration,
    write: Duration,
    drain: Duration,
    /// Corpus counters after the round's writes, before its drain.
    before_drain: CorpusStats,
}

impl RoundOut {
    fn host(&self) -> Duration {
        self.submit + self.write + self.drain
    }
}

fn run_round(
    server: &mut ShardedRagServer,
    bursts: &[Burst],
    round: usize,
    tr: &mut Tracer,
) -> Result<RoundOut, String> {
    let r = Some(round);
    let (out, _) = tr.span("round", r, |tr| {
        let (mut submit, mut write) = (Duration::ZERO, Duration::ZERO);
        let (mut submitted, mut rejected) = (0, 0);
        for burst in bursts {
            if !burst.inserts.is_empty() || !burst.deletes.is_empty() || burst.compact {
                let (res, took) = tr.span("write", r, |_| apply_writes(server, burst));
                res?;
                write += took;
            }
            let queries = burst.queries.clone();
            submitted += queries.len();
            let (rej, took) = tr.span("submit", r, |_| {
                queries
                    .into_iter()
                    .map(|(at, q)| server.submit(at, q))
                    .filter(Result::is_err)
                    .count()
            });
            rejected += rej;
            submit += took;
        }
        let before_drain = server.corpus_stats();
        let (report, drain) = tr.span("drain", r, |_| server.drain());
        let report = report.map_err(|e| format!("drain: {e}"))?;
        Ok(RoundOut {
            report,
            submitted,
            rejected,
            submit,
            write,
            drain,
            before_drain,
        })
    });
    out
}

fn apply_writes(server: &mut ShardedRagServer, burst: &Burst) -> Result<(), String> {
    for e in &burst.inserts {
        server.insert_doc(e).map_err(|e| format!("insert: {e}"))?;
    }
    for &doc in &burst.deletes {
        if !server.delete_doc(doc).map_err(|e| format!("delete: {e}"))? {
            return Err(format!("delete of document {doc} found it already gone"));
        }
    }
    if burst.compact {
        for s in 0..server.shard_count() {
            server
                .request_compaction(s, burst.start)
                .map_err(|e| format!("compaction request: {e}"))?
                .ok_or_else(|| format!("shard {s} had nothing to compact"))?;
        }
    }
    Ok(())
}

/// Simulated outcome of one or more rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimSummary {
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub slo_goodput: f64,
    pub ok_frac: f64,
    /// Served queries, the latency sample count.
    pub samples: usize,
}

/// Served latencies and query counts pooled over rounds.
#[derive(Default)]
struct SimTally {
    latencies: Vec<Duration>,
    attempted: usize,
    within_slo: usize,
}

impl SimTally {
    fn add(&mut self, out: &RoundOut, slo: Duration) {
        for c in out.report.completions.iter().filter(|c| c.is_ok()) {
            self.within_slo += usize::from(c.latency() <= slo);
            self.latencies.push(c.latency());
        }
        self.attempted += out.submitted;
    }

    fn summary(&self) -> SimSummary {
        let attempted = self.attempted.max(1) as f64;
        let ms = |q: f64| percentile(&self.latencies, q).as_secs_f64() * 1e3;
        SimSummary {
            p50_ms: ms(0.50),
            p99_ms: ms(0.99),
            slo_goodput: self.within_slo as f64 / attempted,
            ok_frac: self.latencies.len() as f64 / attempted,
            samples: self.latencies.len(),
        }
    }

    fn of(out: &RoundOut, slo: Duration) -> SimSummary {
        let mut tally = SimTally::default();
        tally.add(out, slo);
        tally.summary()
    }
}

/// A named measurement with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

const fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

pub struct RunResult {
    /// Check failures; the run is correct when this is empty.
    pub failures: Vec<String>,
    /// Queries submitted over all rounds.
    pub attempted: u64,
    /// Queries rejected at submit or retired with an error.
    pub failed: u64,
    pub rounds: usize,
    /// Simulated outcome of the first [`SIM_ROUNDS`] rounds (absent when
    /// set-up failed).
    pub sim: Option<SimSummary>,
    /// End-to-end metrics, or per-layer metrics on a traced run.
    pub metrics: Vec<Metric>,
    pub tracer: Tracer,
}

/// Mean relative error, in percent, of the six simulated Table 8 totals
/// (timing-only `ApuRetriever`, no-opt and all-opts at 10/50/200 GB)
/// against the paper's.
fn paper_err_pct() -> Result<f64, String> {
    let mut err = 0.0;
    for (variant, paper) in [RagVariant::NoOpt, RagVariant::AllOpts]
        .into_iter()
        .zip(PAPER_TABLE8_MS)
    {
        for (spec, paper_ms) in CorpusSpec::paper_points().into_iter().zip(paper) {
            let sim = SimConfig::default()
                .with_l4_bytes(1 << 20)
                .with_exec_mode(ExecMode::TimingOnly)
                .with_fast_forward(false);
            let mut dev = ApuDevice::try_new(sim).map_err(|e| e.to_string())?;
            let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
            let store = EmbeddingStore::size_only(spec, 0);
            let (_, b, _) = ApuRetriever::new(variant)
                .retrieve(&mut dev, &mut hbm, &store, &[1; EMBED_DIM], 5)
                .map_err(|e| format!("Table 8 retrieval: {e}"))?;
            err += (b.total_ms() - paper_ms).abs() / paper_ms;
        }
    }
    Ok(100.0 * err / 6.0)
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Device counters summed over the server's devices.
fn device_totals(server: &mut ShardedRagServer) -> (MemoCounters, VcuStats) {
    let mut memo = MemoCounters::default();
    let mut stats = VcuStats::default();
    for s in 0..server.shard_count() {
        let dev = server.device_mut(s);
        let c = dev.memo_counters();
        memo.hits += c.hits;
        memo.misses += c.misses;
        memo.bypassed += c.bypassed;
        stats.merge(&dev.stats_total());
    }
    (memo, stats)
}

/// Exact top-`K` ids of every query of the script, by the CPU scan.
fn ground_truth(store: &EmbeddingStore, bursts: &[Burst]) -> Vec<HashSet<u32>> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    bursts
        .iter()
        .flat_map(|b| &b.queries)
        .map(|(_, q)| {
            cpu_retrieve(store, q, K, threads)
                .0
                .into_iter()
                .map(|h| h.chunk)
                .collect()
        })
        .collect()
}

/// Checks one round's outputs; returns its recall@10 against `truth`,
/// or `None` without a ground truth (timing-only kernels compute no hits).
fn check_round(
    w: Workload,
    inputs: &Inputs,
    out: &RoundOut,
    truth: &[HashSet<u32>],
    round: usize,
    server: &ShardedRagServer,
    failures: &mut Vec<String>,
) -> Option<f64> {
    let mut fail = |msg: String| failures.push(format!("round {round}: {msg}"));
    let r = &out.report;
    if r.served() + r.failed() + out.rejected != out.submitted {
        fail(format!(
            "served {} + failed {} + rejected {} != submitted {}",
            r.served(),
            r.failed(),
            out.rejected,
            out.submitted
        ));
    }
    let want_hits = if w.sim_config().exec_mode.is_functional() {
        K
    } else {
        0
    };
    // Tickets count from the warm-up query (0), then `submitted` per round.
    let first_ticket = 1 + (round * out.submitted) as u64;
    let mut recall_sum = 0.0;
    for c in &r.completions {
        let Some(hits) = c.hits() else { continue };
        if hits.len() != want_hits || c.is_degraded() {
            fail(format!(
                "query {} returned {} hits from {}/{} shards, want {want_hits} from all",
                c.ticket.id(),
                hits.len(),
                c.shards_ok,
                c.shards_total
            ));
            break;
        }
        let ids = c
            .ticket
            .id()
            .checked_sub(first_ticket)
            .and_then(|i| truth.get(i as usize));
        if let Some(ids) = ids {
            recall_sum += hits.iter().filter(|h| ids.contains(&h.chunk)).count() as f64 / K as f64;
        }
    }
    let recall = (!truth.is_empty()).then(|| recall_sum / r.served().max(1) as f64);
    if let Some(recall) = recall.filter(|&r| r < RECALL_FLOOR) {
        fail(format!(
            "recall@10 {recall:.4} below the {RECALL_FLOOR} floor"
        ));
    }
    if w == Workload::ChurnFf {
        let rounds = (round + 1) as u64;
        let net_per_round =
            inputs.bursts as u64 * (inputs.inserts_per_gap - inputs.deletes_per_gap) as u64;
        let live = CorpusSpec::from_corpus_bytes(inputs.corpus_bytes).chunks as u64
            + rounds * net_per_round;
        let compactions = rounds * inputs.shards as u64;
        let c = server.corpus_stats();
        if (c.live_docs, c.compactions, c.compaction_failures) != (live, compactions, 0) {
            fail(format!(
                "corpus has {} live docs, {} compactions, {} failed; the script expects \
                 {live}, {compactions}, 0",
                c.live_docs, c.compactions, c.compaction_failures
            ));
        }
    }
    recall
}

/// Host seconds of one round's calls, its served queries per host second,
/// and whether its spans were recorded.
struct RoundHost {
    submit_s: f64,
    write_s: f64,
    drain_s: f64,
    qps: f64,
    recorded: bool,
}

/// Runs one workload for `cfg.seconds` of rounds and gathers its metrics.
pub fn run(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult {
        failures: Vec::new(),
        attempted: 0,
        failed: 0,
        rounds: 0,
        sim: None,
        metrics: Vec::new(),
        tracer: Tracer::new(cfg.trace),
    };
    if let Err(e) = measure(cfg, &mut res) {
        res.failures.push(e);
    }
    for x in &res.metrics {
        if !x.value.is_finite() {
            res.failures
                .push(format!("metric {} is not finite", x.name));
        }
    }
    res
}

fn measure(cfg: &RunConfig, res: &mut RunResult) -> Result<(), String> {
    let tr = &mut res.tracer;
    let w = cfg.workload;
    let inputs = w.inputs(cfg.size);

    let mut setup_s = Vec::new();
    let mut bench = None;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_REPEATS || setup_start.elapsed() < SETUP_BUDGET {
        drop(bench.take());
        let (s, took) = tr.span("setup", None, |tr| setup(w, &inputs, tr));
        bench = Some(s?);
        setup_s.push(took.as_secs_f64());
    }
    let Setup { corpus, mut server } = bench.expect("at least one set-up ran");

    // Outside every timed window: the scripts of the simulated rounds,
    // their exact answers, and the model's error against the paper.
    let scripts: Vec<Vec<Burst>> = (0..SIM_ROUNDS)
        .map(|r| script(&inputs, &corpus, cfg.seed, r))
        .collect();
    let truths: Vec<Vec<HashSet<u32>>> = scripts
        .iter()
        .map(|sc| match &corpus {
            Corpus::Clustered(c) => ground_truth(&c.store, sc),
            Corpus::SizeOnly(_) => Vec::new(),
        })
        .collect();
    let paper_err = paper_err_pct()?;

    let (memo_before, vcu_before) = device_totals(&mut server);
    let mut round0: Option<(RoundOut, MemoCounters, VcuStats)> = None;
    let mut tally = SimTally::default();
    let mut slot_sims = Vec::with_capacity(SIM_ROUNDS);
    let mut recall_sum = 0.0;
    let mut host: Vec<RoundHost> = Vec::new();
    let start = Instant::now();
    while host.len() < SIM_ROUNDS || start.elapsed().as_secs_f64() < cfg.seconds {
        let round = host.len();
        let slot = round % SIM_ROUNDS;
        // A traced run records every other round; the unrecorded rounds
        // measure what recording costs.
        let recorded = cfg.trace && round % 2 == 1;
        tr.set_recording(recorded);
        let fresh;
        let bursts = if w == Workload::ChurnFf {
            fresh = script(&inputs, &corpus, cfg.seed, round);
            &fresh
        } else {
            &scripts[slot]
        };
        let out =
            run_round(&mut server, bursts, round, tr).map_err(|e| format!("round {round}: {e}"))?;
        let recall = check_round(
            w,
            &inputs,
            &out,
            &truths[slot],
            round,
            &server,
            &mut res.failures,
        );
        res.attempted += out.submitted as u64;
        res.failed += (out.rejected + out.report.failed()) as u64;
        host.push(RoundHost {
            submit_s: out.submit.as_secs_f64(),
            write_s: out.write.as_secs_f64(),
            drain_s: out.drain.as_secs_f64(),
            qps: out.report.served() as f64 / out.host().as_secs_f64(),
            recorded,
        });
        if round < SIM_ROUNDS {
            tally.add(&out, inputs.slo);
            slot_sims.push(SimTally::of(&out, inputs.slo));
            recall_sum += recall.unwrap_or(0.0);
        } else if w != Workload::ChurnFf && SimTally::of(&out, inputs.slo) != slot_sims[slot] {
            // Flat and IVF rounds replay a script on unchanged state, so
            // each must reproduce its first run exactly.
            res.failures.push(format!(
                "round {round}: simulated outcome differs from round {slot}"
            ));
        }
        if round == 0 {
            let (memo, vcu) = device_totals(&mut server);
            round0 = Some((out, memo, vcu));
        }
        if !res.failures.is_empty() {
            break;
        }
    }
    tr.set_recording(cfg.trace);
    res.rounds = host.len();
    let (out0, memo_after, vcu_after) = round0.expect("round 0 ran");
    let sim = tally.summary();
    res.sim = Some(sim);
    let host_median = |pick: fn(&RoundHost) -> Option<f64>| {
        median(&host.iter().filter_map(pick).collect::<Vec<_>>())
    };
    let host_qps = host_median(|h| (!h.recorded).then_some(h.qps));

    res.metrics = if cfg.trace {
        let layer = probes::LayerInputs {
            workload: w,
            inputs: &inputs,
            corpus: &corpus,
            server: &server,
            round0: &out0.report,
            before_drain: out0.before_drain,
            memo: MemoCounters {
                hits: memo_after.hits - memo_before.hits,
                misses: memo_after.misses - memo_before.misses,
                bypassed: memo_after.bypassed - memo_before.bypassed,
            },
            vcu: &vcu_after - &vcu_before,
            script: &scripts[0],
            recall: recall_sum / SIM_ROUNDS as f64,
            submit_s: host_median(|h| Some(h.submit_s)),
            write_s: host_median(|h| Some(h.write_s)),
            drain_s: host_median(|h| Some(h.drain_s)),
            fail_frac: 1.0 - sim.ok_frac,
            host_qps_untraced: host_qps,
            host_qps_traced: host_median(|h| h.recorded.then_some(h.qps)),
        };
        probes::per_layer(&layer, tr)?
    } else {
        vec![
            m("host_qps", "queries/s", host_qps),
            m("setup_s", "s", median(&setup_s)),
            m("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
            m("sim_p50_ms", "ms", sim.p50_ms),
            m("sim_p99_ms", "ms", sim.p99_ms),
            m("slo_goodput", "fraction", sim.slo_goodput),
            m("ok_frac", "fraction", sim.ok_frac),
            m("paper_err_pct", "%", paper_err),
        ]
    };
    Ok(())
}
