//! RAG serving: an online query front-end over the device command queue.
//!
//! [`ShardedRagServer`] accepts retrieval queries with arrival
//! timestamps (an open-loop stream), holds the corpus as one
//! [`MutableCorpus`] split into contiguous shards
//! ([`EmbeddingStore::shards`]), and gives each shard its own
//! simulated device + off-chip memory + command queue inside a
//! [`DeviceCluster`]. A single device is simply a one-shard server:
//! `ShardedRagServer::new(&store, 1, sim, cfg)`.
//!
//! Every query pins a corpus [`Snapshot`] at admission and fans out to
//! all shards as one batchable [`snapshot_scan`] task per shard, keyed
//! by [`snapshot_batch_key`]. A server built with
//! [`ShardedRagServer::new`] refuses writes, so its queries all share
//! the first snapshot and scan exactly the build-time shards. Batch formation
//! happens in the queue's continuous-batching dispatcher: at every
//! dispatch opportunity the scheduler coalesces up to
//! [`ServeConfig::max_batch`] compatible queries (VR-limited to
//! [`MAX_BATCH`]) whose arrivals fall within [`ServeConfig::batch_window`]
//! of the head of the line, and runs them as one
//! [`crate::batch::retrieve_batch`] kernel per snapshot segment. The
//! per-shard top-k results are merged into the exact global top-k (shard
//! scans report global document ids, so the merge is a plain [`top_k`]
//! over the concatenation).
//! The queue path returns *exactly* the hits the synchronous path
//! returns; what the queue adds is realistic dispatch: queueing delay,
//! priority, admission control, batch coalescing, and per-query latency
//! accounting on the virtual timeline. A faulted or shedding shard
//! *degrades* the queries it drops — they still serve from the healthy
//! shards, flagged via [`QueryCompletion::is_degraded`] — instead of
//! failing them.
//!
//! With [`ServeConfig::replicas`] ≥ 2 every corpus shard is held by a
//! *replica set* of devices (an [`apu_sim::Placement`] over
//! `shards × replicas` device queues). Reads load-balance across the
//! healthy members of each set; when a replica faults, the drain loop
//! transparently resubmits the lost `(query, shard)` pieces on the
//! surviving members ([`DeviceCluster::submit_failover`]) with the
//! query's **original arrival**, so the failover delay is charged to
//! queue wait and stage sums stay exact. A single replica fault
//! therefore yields the *exact*, non-degraded top-k; a query degrades
//! only when a **whole** replica set is down.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

use apu_sim::queue::percentile;
use apu_sim::trace::prometheus_text;
use apu_sim::{
    chrome_trace_json_grouped, ApuDevice, ChromeTraceSink, Completion, DeviceCluster, Error,
    FaultPlan, Placement, Priority, QueueConfig, QueueStats, RetryPolicy, RoutePolicy, SimConfig,
    StageBreakdown, TaskHandle, TaskSpec, TenantId, TraceEvent,
};
use hbm_sim::{DramSpec, MemorySystem};

use crate::batch::{run_boxed, MAX_BATCH};
use crate::corpus::{CorpusShard, EmbeddingStore};
use crate::ivf::{IndexMode, IvfIndex, IvfStats};
use crate::mutable::{
    run_compaction_task, snapshot_batch_key, snapshot_scan, CompactionPlan, CompactionTicket,
    CorpusStats, MutableCorpus, Segment, Snapshot,
};
use crate::topk::top_k;
use crate::{Hit, Result};

/// Configuration of a [`ShardedRagServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Retrieved chunks per query.
    pub k: usize,
    /// Largest batch to form (clamped to the VR-limited [`MAX_BATCH`]).
    pub max_batch: usize,
    /// A batch closes when the next query arrives later than this after
    /// the batch's first query (bounds batching-induced latency).
    pub batch_window: Duration,
    /// Command-queue configuration (admission control bound).
    pub queue: QueueConfig,
    /// Priority retrieval batches are submitted at.
    pub priority: Priority,
    /// Per-query time-to-live: a query that cannot start within `ttl`
    /// of its arrival is shed as `DeadlineExceeded` without dispatching
    /// (graceful degradation under overload). `None` disables shedding.
    /// A per-query TTL ([`QuerySpec::ttl`]) overrides this default.
    pub ttl: Option<Duration>,
    /// Bounded retry-with-backoff for transiently faulted queries.
    /// `None` disables retries.
    pub retry: Option<RetryPolicy>,
    /// Tail-latency hedging: when set, every shard fan-out task gets a
    /// speculative **hedge copy** submitted this long after the
    /// primary's arrival at [`Priority::High`] with the *primary's*
    /// deadline. Per `(query, shard)` the first successful copy wins the
    /// merge, so a shard whose primary is stuck behind a deep backlog
    /// answers from the hedge instead. Served queries that used at least
    /// one hedge copy are flagged via [`QueryCompletion::hedged`]. Hedge copies are extra shard-tasks:
    /// they inflate the queue counters but never the query count. With
    /// replication the hedge copy goes to a *different* replica than the
    /// primary whenever one exists; without it the copy races the
    /// primary on the same device.
    pub hedge: Option<Duration>,
    /// Replicas per corpus shard: the server builds `shards × replicas`
    /// devices, load-balances each query's shard reads across its
    /// replica set, and transparently fails a lost read over to a
    /// surviving replica, so any single-replica fault still yields the
    /// exact, non-degraded top-k. `1` (or `0`,
    /// clamped) disables replication and is byte-identical to the
    /// unreplicated server.
    pub replicas: usize,
    /// How retrievals execute by default: [`IndexMode::Flat`] (the
    /// paper's exact scan) or [`IndexMode::Ivf`] cluster-pruned search.
    /// A sharded server builds one IVF index **per shard base segment**
    /// and keeps the exact global top-k merge unchanged; a per-query
    /// [`QuerySpec::index`] overrides this default, and queries with
    /// different index modes never share a batch
    /// ([`crate::mutable::snapshot_batch_key`]).
    pub index: IndexMode,
    /// Priority background compaction tasks are submitted at on a
    /// mutable server (see [`ShardedRagServer::new_mutable`]). The
    /// default, [`Priority::Low`], lets interactive queries overtake the
    /// merge at every dispatch opportunity; the `serve_mutation` bench
    /// measures the in-SLO goodput gap against running compaction at
    /// interactive priority. Ignored on an immutable server.
    pub compaction_priority: Priority,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            k: 5,
            max_batch: MAX_BATCH,
            batch_window: Duration::from_millis(2),
            queue: QueueConfig::default(),
            priority: Priority::Normal,
            ttl: None,
            retry: None,
            hedge: None,
            replicas: 1,
            index: IndexMode::Flat,
            compaction_priority: Priority::Low,
        }
    }
}

/// Submission parameters of one query: arrival time plus optional
/// tenant tag, per-query priority, and per-query TTL (overriding the
/// server-wide [`ServeConfig`] defaults). Build with [`QuerySpec::new`]
/// and pass to [`ShardedRagServer::submit_query`].
#[derive(Debug, Clone)]
pub struct QuerySpec {
    arrival: Duration,
    tenant: TenantId,
    priority: Option<Priority>,
    ttl: Option<Duration>,
    index: Option<IndexMode>,
    query: Vec<i16>,
}

impl QuerySpec {
    /// A query arriving at `arrival` on the virtual timeline, with the
    /// server-wide defaults for everything else.
    pub fn new(arrival: Duration, query: Vec<i16>) -> Self {
        QuerySpec {
            arrival,
            tenant: TenantId::default(),
            priority: None,
            ttl: None,
            index: None,
            query,
        }
    }

    /// Tags the query with a tenant for fair-share scheduling and
    /// per-tenant accounting (see [`apu_sim::SchedPolicy::SloAware`]).
    #[must_use]
    pub fn tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = tenant;
        self
    }

    /// Overrides the server-wide submission priority for this query.
    #[must_use]
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Overrides the server-wide TTL for this query: it is shed unless
    /// it can start within `ttl` of its arrival.
    #[must_use]
    pub fn ttl(mut self, ttl: Duration) -> Self {
        self.ttl = Some(ttl);
        self
    }

    /// Overrides the server-wide [`ServeConfig::index`] mode for this
    /// query — e.g. an exact flat scan for one audit query on an
    /// otherwise IVF-served stream. Queries with different index modes
    /// never share a batch.
    #[must_use]
    pub fn index(mut self, index: IndexMode) -> Self {
        self.index = Some(index);
        self
    }
}

/// Identifier of a submitted query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryTicket(u64);

impl QueryTicket {
    /// The raw submission sequence number.
    pub fn id(self) -> u64 {
        self.0
    }
}

/// One served query: scheduling timestamps and its outcome — either the
/// top-k hits or the error it retired with (shed deadline, injected
/// fault, kernel failure). Failed queries are first-class completions;
/// they are never silently dropped from a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct QueryCompletion {
    /// Ticket returned at submission.
    pub ticket: QueryTicket,
    /// Tenant the query was submitted under ([`QuerySpec::tenant`];
    /// default tenant 0).
    pub tenant: TenantId,
    /// The query's own arrival time.
    pub arrival: Duration,
    /// Dispatch time of the batch that carried it (shed queries reuse
    /// their deadline).
    pub started_at: Duration,
    /// Retire time of that batch.
    pub finished_at: Duration,
    /// How many queries shared the batch.
    pub batch_size: usize,
    /// Dispatch attempts consumed (1 without retries).
    pub attempts: u32,
    /// Per-stage latency attribution (`queue_wait / dispatch / dma /
    /// device`); the components sum exactly to
    /// [`QueryCompletion::latency`].
    pub stages: StageBreakdown,
    /// How many corpus shards answered this query. A served query with
    /// `shards_ok < shards_total` is *degraded*: its hits are exact over
    /// the healthy shards only.
    pub shards_ok: usize,
    /// How many corpus shards the query was fanned out to.
    pub shards_total: usize,
    /// Whether at least one shard served this query from its hedge copy
    /// rather than the primary (see [`ServeConfig::hedge`]). Always
    /// `false` without hedging.
    pub hedged: bool,
    /// Failover resubmissions this query consumed across its shard
    /// reads (see [`ServeConfig::replicas`]). Always 0 without
    /// replication. The failed attempts behind this count never book
    /// latency or stage time — only the winning copy does, and its
    /// stage sum still equals [`QueryCompletion::latency`].
    pub failovers: u32,
    /// Top-k hits — identical to the synchronous
    /// [`crate::batch::retrieve_batch`] path — or the retirement error.
    pub outcome: std::result::Result<Vec<Hit>, Error>,
}

impl QueryCompletion {
    /// End-to-end latency: the query's own arrival to batch retire (so
    /// waiting for the batch window is charged to the early arrivals).
    pub fn latency(&self) -> Duration {
        self.finished_at - self.arrival
    }

    /// Whether the query was served successfully.
    pub fn is_ok(&self) -> bool {
        self.outcome.is_ok()
    }

    /// Whether the query was served from a strict subset of its corpus
    /// shards (some shard faulted or shed it). Degraded queries count as
    /// served — their hits are exact over the shards that answered —
    /// but a caller that needs whole-corpus recall can detect and retry
    /// them.
    pub fn is_degraded(&self) -> bool {
        self.outcome.is_ok() && self.shards_ok < self.shards_total
    }

    /// The served hits, or `None` for a failed query.
    pub fn hits(&self) -> Option<&[Hit]> {
        self.outcome.as_deref().ok()
    }

    /// The retirement error, or `None` for a served query.
    pub fn error(&self) -> Option<&Error> {
        self.outcome.as_ref().err()
    }

    /// Consumes the completion into its hits.
    ///
    /// # Errors
    ///
    /// Returns the retirement error of a failed query.
    pub fn into_hits(self) -> Result<Vec<Hit>> {
        self.outcome
    }
}

/// Replication counters of a serve run (the `apu_replica_*` series in
/// [`ServeReport::prometheus_text`]). All zeros — except one group of
/// one replica — on an unreplicated run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Logical shard groups served (the corpus shard count).
    pub groups: usize,
    /// Replicas per shard group ([`ServeConfig::replicas`], clamped).
    pub per_shard: usize,
    /// Failover resubmissions issued across the run.
    pub failovers: u64,
    /// Up→down replica health transitions observed.
    pub down: u64,
    /// Queries whose final answer used at least one failover copy.
    pub failover_served: u64,
}

/// Outcome of serving a drained query stream.
#[derive(Debug)]
pub struct ServeReport {
    /// Per-query completions, in finish order (ticket order for ties).
    pub completions: Vec<QueryCompletion>,
    /// Command-queue counters for the run. On a sharded run this is the
    /// [`QueueStats::merge`] of every shard's queue, so task-level
    /// counters (`submitted`, `completed`, `dispatches`, …) count
    /// *shard-tasks* — queries × shards — not queries; use
    /// [`ServeReport::served`] / [`ServeReport::failed`] for query-level
    /// accounting.
    pub queue: QueueStats,
    /// Per-queue counters: one entry per corpus shard, in shard order
    /// (so a one-shard server reports one entry, equal to `queue`). With
    /// replication ([`ServeConfig::replicas`] ≥ 2) entry `i` is
    /// **device** `i` of the `shards × replicas` pool — replica `r` of
    /// shard `s` is entry `s * replicas + r`.
    pub shards: Vec<QueueStats>,
    /// Replication counters (placement shape, failovers, health
    /// transitions).
    pub replica: ReplicaStats,
    /// IVF probe counters accumulated over the run's IVF-mode
    /// dispatches (the `apu_ivf_*` series in
    /// [`ServeReport::prometheus_text`]). All zeros on a pure flat-scan
    /// run.
    pub ivf: IvfStats,
    /// Live-corpus counters as of the end of the drain (the
    /// `apu_corpus_*` series in [`ServeReport::prometheus_text`]). All
    /// zeros on an immutable server.
    pub corpus: CorpusStats,
    /// Queries refused at submission ([`Error::QueueFull`]) since the
    /// previous drain. They never reach `completions`, so
    /// `served() + failed() + rejected` equals the queries submitted.
    pub rejected: usize,
}

impl ServeReport {
    /// Per-query end-to-end latency percentile (nearest rank), over
    /// successfully served queries.
    ///
    /// Returns [`Duration::ZERO`] when there is no served query to rank
    /// — an empty report, or one whose queries all failed (shed,
    /// faulted, or rejected). Callers gating on a latency objective
    /// should check [`ServeReport::served`] first: an all-failed run
    /// trivially "meets" any percentile target. A whole replica set
    /// going down is one way to get here: once every replica of some
    /// shard has failed a query, the query retires failed (not
    /// degraded) and contributes no latency sample — failover attempts
    /// are never ranked, only winning copies are.
    pub fn latency_percentile(&self, q: f64) -> Duration {
        let samples: Vec<Duration> = self
            .completions
            .iter()
            .filter(|c| c.is_ok())
            .map(|c| c.latency())
            .collect();
        if samples.is_empty() {
            return Duration::ZERO;
        }
        percentile(&samples, q)
    }

    /// Queries served successfully.
    pub fn served(&self) -> usize {
        self.completions.iter().filter(|c| c.is_ok()).count()
    }

    /// Queries that retired with an error (shed, faulted, or failed).
    pub fn failed(&self) -> usize {
        self.completions.len() - self.served()
    }

    /// Served queries answered by only a subset of their corpus shards
    /// (see [`QueryCompletion::is_degraded`]). Always 0 on a one-shard
    /// server: its only shard either answers or fails the query.
    pub fn degraded(&self) -> usize {
        self.completions.iter().filter(|c| c.is_degraded()).count()
    }

    /// Sustained successfully-served queries per second over the queue
    /// makespan.
    pub fn throughput_qps(&self) -> f64 {
        let wall = self.queue.makespan.as_secs_f64();
        if wall <= 0.0 {
            0.0
        } else {
            self.served() as f64 / wall
        }
    }

    /// Accumulated per-stage latency totals over successfully served
    /// queries (see [`StageBreakdown`]): where a request's time went —
    /// queue wait vs command issue vs DMA vs device compute.
    pub fn stage_totals(&self) -> StageBreakdown {
        self.queue.stage_totals()
    }

    /// The run's queue counters, stage totals, latency quantiles,
    /// query-level rejections (`apu_queries_rejected_total`), and
    /// replication counters (`apu_replica_*`) in the Prometheus text
    /// exposition format, ready to serve from a `/metrics` endpoint or
    /// dump next to a bench log.
    pub fn prometheus_text(&self) -> String {
        let mut out = prometheus_text(&self.queue, None);
        let r = &self.replica;
        let series: [(&str, &str, &str, u64); 6] = [
            (
                "apu_queries_rejected_total",
                "counter",
                "Queries refused at submission (backlog over the admission bound).",
                self.rejected as u64,
            ),
            (
                "apu_replica_groups",
                "gauge",
                "Logical shard groups served by the run.",
                r.groups as u64,
            ),
            (
                "apu_replica_per_shard",
                "gauge",
                "Replicas per shard group.",
                r.per_shard as u64,
            ),
            (
                "apu_replica_failovers_total",
                "counter",
                "Failover resubmissions issued.",
                r.failovers,
            ),
            (
                "apu_replica_down_total",
                "counter",
                "Replica up->down health transitions observed.",
                r.down,
            ),
            (
                "apu_replica_failover_served_total",
                "counter",
                "Queries whose final answer used a failover copy.",
                r.failover_served,
            ),
        ];
        for (name, kind, help, value) in series {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        let v = &self.ivf;
        let ivf_series: [(&str, &str, u64); 5] = [
            (
                "apu_ivf_searches_total",
                "Batched IVF dispatches executed.",
                v.searches,
            ),
            (
                "apu_ivf_queries_total",
                "Queries served through an IVF index.",
                v.queries,
            ),
            (
                "apu_ivf_probes_total",
                "Probed clusters summed over IVF queries.",
                v.probes,
            ),
            (
                "apu_ivf_clusters_scanned_total",
                "Distinct clusters scanned, summed over IVF dispatches.",
                v.clusters_scanned,
            ),
            (
                "apu_ivf_candidates_total",
                "Candidate chunks exactly rescored by IVF dispatches.",
                v.candidates,
            ),
        ];
        for (name, help, value) in ivf_series {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        let c = &self.corpus;
        let corpus_series: [(&str, &str, &str, u64); 8] = [
            (
                "apu_corpus_live_docs",
                "gauge",
                "Live (non-tombstoned) documents across base and deltas.",
                c.live_docs,
            ),
            (
                "apu_corpus_delta_docs",
                "gauge",
                "Documents held in uncompacted delta segments.",
                c.delta_docs,
            ),
            (
                "apu_corpus_tombstones",
                "gauge",
                "Deleted documents awaiting compaction.",
                c.tombstones,
            ),
            (
                "apu_corpus_inserts_total",
                "counter",
                "Documents ingested over the corpus lifetime.",
                c.inserts,
            ),
            (
                "apu_corpus_deletes_total",
                "counter",
                "Documents deleted over the corpus lifetime.",
                c.deletes,
            ),
            (
                "apu_corpus_snapshots_total",
                "counter",
                "Immutable snapshots published.",
                c.snapshots,
            ),
            (
                "apu_corpus_compactions_total",
                "counter",
                "Background compactions applied.",
                c.compactions,
            ),
            (
                "apu_corpus_compaction_failures_total",
                "counter",
                "Background compactions abandoned after retries.",
                c.compaction_failures,
            ),
        ];
        for (name, kind, help, value) in corpus_series {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        out
    }

    /// Mean batch size over served queries.
    pub fn mean_batch_size(&self) -> f64 {
        if self.completions.is_empty() {
            0.0
        } else {
            let total: usize = self.completions.iter().map(|c| c.batch_size).sum();
            total as f64 / self.completions.len() as f64
        }
    }
}

struct PendingQuery {
    ticket: QueryTicket,
    spec: QuerySpec,
    /// The corpus snapshot captured at admission.
    snapshot: Arc<Snapshot>,
}

/// An online RAG retrieval server over a simulated cluster of one or
/// more devices.
///
/// The corpus is one [`MutableCorpus`] split into contiguous shards
/// ([`EmbeddingStore::shards`]); each shard owns one simulated
/// [`ApuDevice`] (independent virtual clock, fault plan, trace sink) and
/// one off-chip [`MemorySystem`]. [`ShardedRagServer::drain`] fans every
/// query out to all shards through a [`DeviceCluster`] — each shard runs
/// the same continuous-batching retrieval kernel over its view of the
/// query's snapshot and reports **global** document ids — then merges the per-shard
/// top-k into the exact global top-k with the same tie-break
/// (score descending, chunk ascending) as a whole-corpus scan, so a
/// fault-free run is element-identical at every shard count.
///
/// Shard failures are contained, not amplified: a query dropped by one
/// shard (injected fault, TTL shed, kernel failure) still serves from
/// the remaining shards and is flagged via
/// [`QueryCompletion::is_degraded`]; it fails outright only when *every*
/// shard drops it.
///
/// # Example
///
/// ```rust
/// use std::time::Duration;
/// use apu_sim::SimConfig;
/// use rag::corpus::{CorpusSpec, EmbeddingStore};
/// use rag::{ServeConfig, ShardedRagServer};
///
/// # fn main() -> rag::Result<()> {
/// let store = EmbeddingStore::materialized(
///     CorpusSpec { corpus_bytes: 0, chunks: 4096 },
///     7,
/// );
/// let mut server = ShardedRagServer::new(
///     &store,
///     4,
///     SimConfig::default().with_l4_bytes(8 << 20),
///     ServeConfig::default(),
/// )?;
/// for i in 0..8 {
///     server.submit(Duration::from_micros(i * 50), store.query(i))?;
/// }
/// let report = server.drain()?;
/// assert_eq!(report.served(), 8);
/// assert_eq!(report.shards.len(), 4);
/// # Ok(())
/// # }
/// ```
pub struct ShardedRagServer {
    devices: Vec<ApuDevice>,
    hbms: Vec<MemorySystem>,
    placement: Placement,
    replicas: usize,
    cfg: ServeConfig,
    pending: Vec<PendingQuery>,
    next_ticket: u64,
    /// Queries refused at submission since the last drain.
    rejected: usize,
    traces: Option<Vec<Rc<RefCell<ChromeTraceSink>>>>,
    /// The corpus every query scans a snapshot of.
    corpus: MutableCorpus,
    /// Whether the corpus accepts writes
    /// ([`ShardedRagServer::new_mutable`]).
    mutable: bool,
    /// IVF indexes over **base** segments (shared across a shard's
    /// replicas), built lazily and keyed by `(base epoch, nlist)`.
    /// Epochs are unique per segment generation, so a compacted base
    /// never reuses a stale index; stale entries are pruned once no live
    /// snapshot can reference them.
    ivf: HashMap<(u64, usize), IvfIndex>,
}

impl ShardedRagServer {
    /// Builds a cluster of `shards × max(cfg.replicas, 1)` simulated
    /// devices, each configured from `sim`; replica `r` of shard `s`
    /// serves shard `s`'s contiguous slice of `store` on its own device
    /// and off-chip memory. The slices are views of `store`'s buffer. The
    /// corpus refuses writes: every query scans the build-time shards.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidArg`] for `shards == 0` or an invalid
    /// `sim` configuration.
    pub fn new(
        store: &EmbeddingStore,
        shards: usize,
        sim: SimConfig,
        cfg: ServeConfig,
    ) -> Result<Self> {
        if shards == 0 {
            return Err(Error::InvalidArg(
                "a sharded server needs at least one shard".into(),
            ));
        }
        let replicas = cfg.replicas.max(1);
        let corpus = MutableCorpus::new(store, shards);
        let n_devices = corpus.shard_count() * replicas;
        let placement = Placement::new(corpus.shard_count(), replicas, n_devices)?;
        let mut devices = Vec::with_capacity(n_devices);
        let mut hbms = Vec::with_capacity(n_devices);
        for _ in 0..n_devices {
            devices.push(ApuDevice::try_new(sim.clone())?);
            hbms.push(MemorySystem::new(DramSpec::hbm2e_16gb()));
        }
        Ok(ShardedRagServer {
            devices,
            hbms,
            placement,
            replicas,
            cfg,
            pending: Vec::new(),
            next_ticket: 0,
            rejected: 0,
            traces: None,
            corpus,
            mutable: false,
            ivf: HashMap::new(),
        })
    }

    /// Builds a **mutable** sharded server: the same cluster and
    /// [`MutableCorpus`] as [`ShardedRagServer::new`], accepting writes.
    /// Queries capture an immutable snapshot at admission
    /// ([`ShardedRagServer::submit_query`]) and scan exactly that
    /// snapshot — base + sealed deltas minus tombstones — through the
    /// same batched kernel path, so batching,
    /// sharding, replication, priorities, and fault containment all
    /// compose unchanged. Background compaction requested via
    /// [`ShardedRagServer::request_compaction`] runs as ordinary
    /// [`ServeConfig::compaction_priority`] work on the same queues
    /// during [`ShardedRagServer::drain`].
    ///
    /// # Errors
    ///
    /// Same as [`ShardedRagServer::new`].
    pub fn new_mutable(
        store: &EmbeddingStore,
        shards: usize,
        sim: SimConfig,
        cfg: ServeConfig,
    ) -> Result<Self> {
        let mut server = Self::new(store, shards, sim, cfg)?;
        server.mutable = true;
        Ok(server)
    }

    /// Whether this server was built with
    /// [`ShardedRagServer::new_mutable`].
    pub fn is_mutable(&self) -> bool {
        self.mutable
    }

    fn corpus_mut(&mut self) -> Result<&mut MutableCorpus> {
        if self.mutable {
            Ok(&mut self.corpus)
        } else {
            Err(Error::InvalidArg(
                "corpus mutation needs a server built with new_mutable".into(),
            ))
        }
    }

    /// Ingests one document into the live corpus, returning its global
    /// id. Visible from the next captured snapshot — queries already
    /// admitted keep their own snapshot.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArg`] on an immutable server or an invalid
    /// embedding (wrong dimension / out-of-band values).
    pub fn insert_doc(&mut self, embedding: &[i16]) -> Result<u32> {
        self.corpus_mut()?.insert(embedding)
    }

    /// Deletes a document from the live corpus. Returns whether the
    /// document was alive. Already-admitted queries still see it: the
    /// tombstone only masks it from later snapshots.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArg`] on an immutable server.
    pub fn delete_doc(&mut self, doc: u32) -> Result<bool> {
        Ok(self.corpus_mut()?.delete(doc))
    }

    /// Replaces a document's embedding (delete + insert), returning the
    /// replacement's new id.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArg`] on an immutable server, an unknown or
    /// already-deleted `doc`, or an invalid embedding.
    pub fn update_doc(&mut self, doc: u32, embedding: &[i16]) -> Result<u32> {
        self.corpus_mut()?.update(doc, embedding)
    }

    /// Requests background compaction of one corpus shard: merge its
    /// sealed deltas and retire its tombstones into a fresh base
    /// segment. The work is captured as a plan now and submitted by the
    /// next [`ShardedRagServer::drain`] as a device task arriving at
    /// `at` with [`ServeConfig::compaction_priority`]. Returns `None`
    /// when there is nothing to compact or a compaction is already in
    /// flight for the shard.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidArg`] on an immutable server or a bad shard
    /// index.
    pub fn request_compaction(
        &mut self,
        shard: usize,
        at: Duration,
    ) -> Result<Option<CompactionTicket>> {
        self.corpus_mut()?.request_compaction(shard, at)
    }

    /// Current live-corpus counters (all zeros on an immutable server).
    pub fn corpus_stats(&self) -> CorpusStats {
        if self.mutable {
            self.corpus.stats()
        } else {
            CorpusStats::default()
        }
    }

    /// Captures the current corpus snapshot — what a query submitted
    /// right now would scan. `None` on an immutable server.
    pub fn corpus_snapshot(&mut self) -> Option<Arc<Snapshot>> {
        if self.mutable {
            Some(self.corpus.snapshot())
        } else {
            None
        }
    }

    /// Number of corpus shards (logical shard groups).
    pub fn shard_count(&self) -> usize {
        self.corpus.shard_count()
    }

    /// Replicas per corpus shard (1 without replication).
    pub fn replica_count(&self) -> usize {
        self.replicas
    }

    /// Total devices in the pool (`shards × replicas`).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The build-time corpus shards, in shard order
    /// ([`MutableCorpus::partition`]): views of the store the server was
    /// built from.
    pub fn shards(&self) -> &[CorpusShard] {
        self.corpus.partition()
    }

    /// Queries accepted but not yet drained.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Direct access to the device of a shard's **first** replica —
    /// e.g. to reconfigure or inspect it between drains. Without
    /// replication this is simply shard `shard`'s device. Use
    /// [`ShardedRagServer::replica_device_mut`] to address a specific
    /// replica.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn device_mut(&mut self, shard: usize) -> &mut ApuDevice {
        self.replica_device_mut(shard, 0)
    }

    /// Direct access to the device holding replica `replica` of shard
    /// `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `replica` is out of range.
    pub fn replica_device_mut(&mut self, shard: usize, replica: usize) -> &mut ApuDevice {
        let device = self.placement.replicas(shard)[replica];
        &mut self.devices[device]
    }

    /// Arms fault injection on the device of a shard's **first**
    /// replica; all other devices are unaffected (failure containment
    /// is per device). Without replication this is the shard's only
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn inject_faults(&mut self, shard: usize, plan: FaultPlan) {
        self.inject_faults_replica(shard, 0, plan);
    }

    /// Arms fault injection on one specific replica of one shard — the
    /// kill-a-replica harness entry point.
    ///
    /// # Panics
    ///
    /// Panics if `shard` or `replica` is out of range.
    pub fn inject_faults_replica(&mut self, shard: usize, replica: usize, plan: FaultPlan) {
        self.replica_device_mut(shard, replica).inject_faults(plan);
    }

    /// Installs a Chrome trace sink on every shard's device. Idempotent;
    /// events accumulate across drains until
    /// [`ShardedRagServer::take_chrome_trace`].
    pub fn enable_tracing(&mut self) {
        if self.traces.is_some() {
            return;
        }
        let mut sinks = Vec::with_capacity(self.devices.len());
        for dev in &mut self.devices {
            let (sink, shared) = ChromeTraceSink::shared(dev.config().clock);
            dev.install_trace_sink(sink);
            sinks.push(shared);
        }
        self.traces = Some(sinks);
    }

    /// Detaches the trace sinks and renders the accumulated events as
    /// one Chrome `chrome://tracing` / Perfetto JSON document with a
    /// separate process-level track group per device ("shard 0",
    /// "shard 1", … unreplicated; "shard 0 replica 0", … with
    /// replication). Returns `None` when tracing was never enabled.
    pub fn take_chrome_trace(&mut self) -> Option<String> {
        let shared = self.traces.take()?;
        for dev in &mut self.devices {
            dev.clear_trace_sink();
        }
        let clock = self.devices[0].config().clock;
        let sinks: Vec<ChromeTraceSink> = shared
            .into_iter()
            .map(|rc| {
                Rc::try_unwrap(rc)
                    .expect("devices released their trace sinks")
                    .into_inner()
            })
            .collect();
        let names: Vec<String> = (0..sinks.len())
            .map(|d| {
                if self.replicas == 1 {
                    format!("shard {d}")
                } else {
                    let (s, r) = self
                        .placement
                        .locate(d)
                        .expect("every device holds a replica");
                    format!("shard {s} replica {r}")
                }
            })
            .collect();
        let groups: Vec<(&str, &[TraceEvent])> = names
            .iter()
            .zip(&sinks)
            .map(|(name, sink)| (name.as_str(), sink.events()))
            .collect();
        Some(chrome_trace_json_grouped(&groups, clock))
    }

    /// Accepts one query arriving at `arrival` on the virtual timeline,
    /// with the server-wide tenant/priority/TTL defaults (shorthand for
    /// [`ShardedRagServer::submit_query`] with a bare [`QuerySpec`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the backlog exceeds the queue's
    /// admission bound (applied to queries, before the per-shard
    /// fan-out).
    pub fn submit(&mut self, arrival: Duration, query: Vec<i16>) -> Result<QueryTicket> {
        self.submit_query(QuerySpec::new(arrival, query))
    }

    /// Accepts one query with explicit per-query submission parameters
    /// (tenant tag, priority, TTL).
    ///
    /// # Errors
    ///
    /// Returns [`Error::QueueFull`] when the backlog exceeds the queue's
    /// admission bound (applied to queries, before the per-shard
    /// fan-out).
    pub fn submit_query(&mut self, spec: QuerySpec) -> Result<QueryTicket> {
        if self.pending.len() >= self.cfg.queue.max_pending {
            self.rejected += 1;
            return Err(Error::QueueFull {
                pending: self.pending.len(),
                capacity: self.cfg.queue.max_pending,
            });
        }
        let ticket = QueryTicket(self.next_ticket);
        self.next_ticket += 1;
        // Every query pins the corpus state it was admitted against;
        // later writes and compactions cannot change what it observes.
        let snapshot = self.corpus.snapshot();
        self.pending.push(PendingQuery {
            ticket,
            spec,
            snapshot,
        });
        Ok(ticket)
    }

    /// Fans every pending query out to all shards — one replica per
    /// shard, picked by read load-balancing over the shard's replica
    /// set — runs the device command queues to completion, transparently
    /// fails lost reads over to surviving replicas, and merges the
    /// per-shard top-k into per-query global completions.
    ///
    /// Merge semantics per query: `started_at` is the earliest shard
    /// dispatch and `finished_at` the latest shard retire; the *critical
    /// shard* (the one retiring last) supplies the stage breakdown —
    /// every copy of the query keeps the same arrival (failover
    /// resubmissions included), so the critical shard's stages still sum
    /// exactly to the merged latency — plus `batch_size`, and `attempts`
    /// is the worst case over shards. Hits from shards that answered are
    /// merged with [`top_k`]; `shards_ok < shards_total` marks the
    /// result degraded. A query fails only when every shard dropped it,
    /// with the earliest-observed failing copy's error.
    ///
    /// Failover semantics per `(query, shard)` read: after each drain
    /// round, a read whose every copy so far failed with a
    /// *device-attributable* error ([`Error::is_transient`] — injected
    /// faults and kernel failures, **not** deadline expiry or admission
    /// shedding) is resubmitted on the least-loaded untried replica with
    /// the query's original arrival and deadline. The loop ends when no
    /// read has both a fresh failure and an untried replica, so it runs
    /// at most `replicas` rounds. Failed attempts never book latency or
    /// stage time ([`QueueStats`] books successes only).
    ///
    /// # Errors
    ///
    /// Reserved for queue-level invariant violations; pending queries
    /// are consumed either way.
    pub fn drain(&mut self) -> Result<ServeReport> {
        let mut queries = std::mem::take(&mut self.pending);
        queries.sort_by_key(|p| (p.spec.arrival, p.ticket.0));

        // Compaction plans captured since the last drain ride this one
        // as ordinary device tasks (applied or failed after the loop).
        let plans: Vec<Arc<CompactionPlan>> = self.corpus.take_plans();
        let compaction_priority = self.cfg.compaction_priority;

        let k = self.cfg.k;
        let n_shards = self.corpus.shard_count();
        let n_devices = self.devices.len();
        let mut queue_cfg = self
            .cfg
            .queue
            .clone()
            .with_max_batch(self.cfg.max_batch.clamp(1, MAX_BATCH))
            .with_max_batch_wait(self.cfg.batch_window);
        if let Some(policy) = self.cfg.retry {
            queue_cfg = queue_cfg.with_retry(policy);
        }
        let hedge = self.cfg.hedge;
        let default_priority = self.cfg.priority;
        let default_ttl = self.cfg.ttl;
        let cfg_index = self.cfg.index;

        // Build (once, cached across drains) every per-shard IVF index
        // this drain needs; a shard's replicas share the index, and the
        // exact global merge is unchanged. A query indexes the base
        // segments of its own snapshot; the (unique) base epoch keys the
        // cache, so a compacted base can never serve a stale index.
        // Deltas stay flat-scanned — they are small and short-lived by
        // design.
        for p in &queries {
            if let IndexMode::Ivf { nlist, .. } = p.spec.index.unwrap_or(cfg_index) {
                for sh in &p.snapshot.shards {
                    let base = &sh.segments[0].store;
                    if base.spec().chunks == 0 {
                        continue;
                    }
                    self.ivf
                        .entry((base.epoch(), nlist))
                        .or_insert_with(|| IvfIndex::build(base, nlist));
                }
            }
        }
        // Drop cached indexes whose base epoch no live query references
        // and the corpus no longer holds — compaction retired them.
        let live: HashSet<u64> = self
            .corpus
            .base_epochs()
            .into_iter()
            .chain(queries.iter().flat_map(|p| {
                p.snapshot
                    .shards
                    .iter()
                    .map(|sh| sh.segments[0].store.epoch())
            }))
            .collect();
        self.ivf.retain(|(epoch, _), _| live.contains(epoch));
        let ivf = &self.ivf;
        let ivf_cell = RefCell::new(IvfStats::default());

        // Per-query submission parameters, in (arrival, ticket) order —
        // kept for the whole drain so failover rounds can rebuild a
        // query's shard task from its original parameters.
        struct QInfo {
            ticket: u64,
            arrival: Duration,
            tenant: TenantId,
            priority: Priority,
            ttl: Option<Duration>,
            index: IndexMode,
            query: Vec<i16>,
            snapshot: Arc<Snapshot>,
        }
        let infos: Vec<QInfo> = queries
            .into_iter()
            .map(|p| QInfo {
                ticket: p.ticket.0,
                arrival: p.spec.arrival,
                tenant: p.spec.tenant,
                priority: p.spec.priority.unwrap_or(default_priority),
                ttl: p.spec.ttl.or(default_ttl),
                index: p.spec.index.unwrap_or(cfg_index),
                query: p.spec.query,
                snapshot: p.snapshot,
            })
            .collect();
        let index_of: HashMap<u64, usize> = infos
            .iter()
            .enumerate()
            .map(|(i, q)| (q.ticket, i))
            .collect();

        // Borrow order matters: the per-shard closures capture these
        // cells, so they must outlive the cluster that owns the closures.
        let hbm_cells: Vec<RefCell<&mut MemorySystem>> =
            self.hbms.iter_mut().map(RefCell::new).collect();
        let mut cluster = DeviceCluster::new(
            self.devices.iter_mut().collect(),
            queue_cfg,
            // Scatter-gather pins every submission to its device; the
            // router is not consulted.
            RoutePolicy::RoundRobin,
        )?;
        cluster.set_placement(self.placement.clone())?;

        // Builds the shard-`s` copy of a query, pinned to `device`
        // (some replica of `s`). Every copy — primary, hedge, failover —
        // carries the primary's deadline: redundancy races the SLO, it
        // never extends it.
        let make_task = |info: &QInfo, s: usize, device: usize, at: Duration, prio: Priority| {
            let hbm = &hbm_cells[device];
            // Scan the pinned shard view — base + sealed deltas minus
            // tombstones — through the batched kernel. The base may run
            // through its per-epoch IVF index; deltas always scan flat.
            let index = match info.index {
                IndexMode::Flat => None,
                IndexMode::Ivf { nlist, nprobe } => {
                    let base = &info.snapshot.shards[s].segments[0].store;
                    (base.spec().chunks > 0).then(|| (&ivf[&(base.epoch(), nlist)], nprobe))
                }
            };
            let snap = Arc::clone(&info.snapshot);
            let stats = &ivf_cell;
            let run: apu_sim::queue::BatchRunner<'_> =
                Box::new(move |dev: &mut ApuDevice, payloads| {
                    run_boxed(payloads, |queries| {
                        let mut hbm = hbm.borrow_mut();
                        let (report, hits, ds) =
                            snapshot_scan(dev, &mut hbm, &snap.shards[s], index, queries, k)?;
                        stats.borrow_mut().absorb(&ds);
                        Ok((report, hits))
                    })
                });
            // Queries batch by (shard, snapshot id, k, mode): same-snapshot
            // queries coalesce, cross-snapshot never do.
            let key = snapshot_batch_key(s, info.snapshot.id, k, info.index);
            let mut task = TaskSpec::batch(key, Box::new(info.query.clone()), run)
                .priority(prio)
                .at(at)
                .tenant(info.tenant)
                .on_shard(device);
            if let Some(ttl) = info.ttl {
                task = task.deadline_at(info.arrival + ttl);
            }
            task
        };

        // One slot per (query ticket, logical shard): the replicas tried
        // so far and every retired copy (device, is_hedge, round).
        struct SlotState {
            tried: Vec<usize>,
            copies: Vec<(usize, bool, u32, Completion)>,
        }
        let mut slots: HashMap<(u64, usize), SlotState> = HashMap::new();
        // Value: (ticket, shard, is_hedge_copy, failover_round).
        let mut tickets: HashMap<(usize, TaskHandle), (u64, usize, bool, u32)> = HashMap::new();

        // Background compaction rides the same queues as ordinary
        // (default: low-priority) device work, one task per captured
        // plan, pinned to a replica of its shard. Each plan's unique
        // batch key means it never coalesces with queries — and gives
        // fault injection a precise target. Plans are submitted
        // interleaved with the queries in arrival order, so a plan's
        // FIFO position among equal-priority work reflects `plan.at`:
        // an interactive-priority merge competes head-to-head with the
        // queries behind it, while a low-priority merge yields to every
        // arrived query. The queue's retry policy applies unchanged; a
        // plan that cannot even be admitted fails immediately (the
        // corpus stays untouched and re-requestable).
        let mut compaction_tickets: HashMap<(usize, TaskHandle), usize> = HashMap::new();
        let mut comp_results: Vec<(usize, Option<Completion>)> = Vec::new();
        let mut plan_order: Vec<usize> = (0..plans.len()).collect();
        plan_order.sort_by_key(|&pi| (plans[pi].at, plans[pi].seq));
        let comp_specs: Vec<(usize, Duration, TaskSpec<'_>)> = plan_order
            .into_iter()
            .map(|pi| {
                let plan = &plans[pi];
                let device = cluster
                    .route_replica(plan.shard, &[])
                    .expect("every shard has at least one replica");
                let hbm = &hbm_cells[device];
                let task_plan = Arc::clone(plan);
                let run: apu_sim::queue::BatchRunner<'_> =
                    Box::new(move |dev: &mut ApuDevice, _payloads| {
                        let mut hbm = hbm.borrow_mut();
                        run_compaction_task(dev, &mut hbm, &task_plan)
                    });
                let spec = TaskSpec::batch(plan.key, Box::new(()), run)
                    .priority(compaction_priority)
                    .at(plan.at)
                    .on_shard(device);
                (pi, plan.at, spec)
            })
            .collect();
        let mut comp_queue = comp_specs.into_iter().peekable();

        for info in &infos {
            while comp_queue
                .peek()
                .is_some_and(|(_, at, _)| *at <= info.arrival)
            {
                let (pi, _, spec) = comp_queue.next().expect("peeked non-empty");
                match cluster.submit(spec) {
                    Ok(h) => {
                        compaction_tickets.insert((h.shard(), h.task()), pi);
                    }
                    Err(_) => comp_results.push((pi, None)),
                }
            }
            for s in 0..n_shards {
                let primary = cluster
                    .route_replica(s, &[])
                    .expect("every shard has at least one replica");
                let handle =
                    cluster.submit(make_task(info, s, primary, info.arrival, info.priority))?;
                tickets.insert((handle.shard(), handle.task()), (info.ticket, s, false, 0));
                let mut tried = vec![primary];
                if let Some(delay) = hedge {
                    // The hedge goes to a different replica when one
                    // exists (same device otherwise — the single-replica
                    // behavior).
                    let hd = cluster.route_replica(s, &tried).unwrap_or(primary);
                    let h = cluster.submit(make_task(
                        info,
                        s,
                        hd,
                        info.arrival + delay,
                        Priority::High,
                    ))?;
                    tickets.insert((h.shard(), h.task()), (info.ticket, s, true, 0));
                    if hd != primary {
                        tried.push(hd);
                    }
                }
                slots.insert(
                    (info.ticket, s),
                    SlotState {
                        tried,
                        copies: Vec::new(),
                    },
                );
            }
        }

        // Plans arriving after the last query still ride this drain.
        for (pi, _, spec) in comp_queue {
            match cluster.submit(spec) {
                Ok(h) => {
                    compaction_tickets.insert((h.shard(), h.task()), pi);
                }
                Err(_) => comp_results.push((pi, None)),
            }
        }

        // Drain-and-failover loop: each round drains every device, feeds
        // health tracking, then resubmits fully-failed reads on untried
        // replicas. Bounded: each failover consumes an untried replica.
        let mut failover_submissions: u64 = 0;
        let mut round: u32 = 0;
        loop {
            let cluster_report = cluster.drain()?;
            let mut touched: Vec<(u64, usize)> = Vec::new();
            for drained in cluster_report.shards {
                let device = drained.shard;
                for done in drained.completions {
                    // Compaction completions are background work: they
                    // feed the corpus, not the query merge (and not
                    // replica health — a failed merge says nothing a
                    // query read would act on).
                    if let Some(pi) = compaction_tickets.remove(&(device, done.handle)) {
                        comp_results.push((pi, Some(done)));
                        continue;
                    }
                    let (ticket, s, is_hedge, rnd) = tickets
                        .remove(&(device, done.handle))
                        .expect("every completion maps to a submitted copy");
                    // Health hears device-attributable outcomes only:
                    // deadline expiry and admission shedding say nothing
                    // about the replica.
                    if done.is_ok() {
                        cluster.record_outcome(device, true, done.finished_at);
                    } else if done.error().is_some_and(Error::is_transient) {
                        cluster.record_outcome(device, false, done.finished_at);
                    }
                    touched.push((ticket, s));
                    slots
                        .get_mut(&(ticket, s))
                        .expect("every copy belongs to a slot")
                        .copies
                        .push((device, is_hedge, rnd, done));
                }
            }
            touched.sort_unstable();
            touched.dedup();
            let mut resubmitted = false;
            for (ticket, s) in touched {
                let slot = slots.get_mut(&(ticket, s)).expect("touched slots exist");
                if slot.copies.iter().any(|(_, _, _, c)| c.is_ok()) {
                    continue;
                }
                // Fail over only pure device failures: an expired
                // deadline or a shed copy means the SLO lapsed, and
                // another replica cannot un-lapse it.
                if !slot
                    .copies
                    .iter()
                    .all(|(_, _, _, c)| c.error().is_some_and(Error::is_transient))
                {
                    continue;
                }
                let Some(next) = cluster.route_replica(s, &slot.tried) else {
                    continue; // replica set exhausted: the slot stays failed
                };
                let info = &infos[index_of[&ticket]];
                let (from, observed) = slot
                    .copies
                    .iter()
                    .map(|(d, _, _, c)| (*d, c.finished_at))
                    .max_by_key(|&(_, at)| at)
                    .expect("a failed slot has at least one copy");
                let spec = make_task(info, s, next, info.arrival, info.priority);
                let h = cluster.submit_failover(spec, from, observed)?;
                tickets.insert((h.shard(), h.task()), (ticket, s, false, round + 1));
                slot.tried.push(next);
                failover_submissions += 1;
                resubmitted = true;
            }
            if !resubmitted {
                break;
            }
            round += 1;
        }

        // Install (or abandon) compactions strictly in request order:
        // an applied plan swaps the shard's base for the merged segment
        // and retires the captured tombstones; a failed one leaves the
        // corpus untouched and re-requestable. Queries are unaffected
        // either way — every admitted query pinned its snapshot.
        comp_results.sort_by_key(|(pi, _)| plans[*pi].seq);
        for (pi, done) in comp_results {
            let plan = &plans[pi];
            match done.map(Completion::into_output::<Segment>) {
                Some(Ok(merged)) => self.corpus.apply_compaction(plan, merged),
                Some(Err(_)) | None => self.corpus.fail_compaction(plan),
            }
        }
        // Queue counters are cumulative across drain rounds, so one
        // final per-device snapshot is the running total.
        let shard_stats: Vec<QueueStats> =
            (0..n_devices).map(|d| cluster.stats(d).clone()).collect();

        let mut queue = QueueStats::default();
        for st in &shard_stats {
            queue.merge(st);
        }

        // Merge each query's slot winners into one global completion.
        let mut completions = Vec::with_capacity(infos.len());
        let mut failover_served = 0u64;
        for info in &infos {
            // Winner per shard slot: the first successful copy (the
            // answer a client would act on), falling back to the
            // earliest-observed failure when every copy failed.
            // (is_hedge, failover_round, winner).
            let mut parts: Vec<(bool, u32, Completion)> = Vec::with_capacity(n_shards);
            let mut failovers = 0u32;
            for s in 0..n_shards {
                let slot = slots
                    .remove(&(info.ticket, s))
                    .expect("every slot was populated at submission");
                failovers += slot.copies.iter().filter(|(_, _, r, _)| *r > 0).count() as u32;
                let mut copies = slot.copies;
                copies.sort_by_key(|(d, h, r, c)| (!c.is_ok(), c.finished_at, *h, *r, *d));
                let (_, h, r, c) = copies
                    .into_iter()
                    .next()
                    .expect("every slot retires at least one copy");
                parts.push((h, r, c));
            }
            let hedged = parts.iter().any(|(h, _, c)| *h && c.is_ok());
            if parts.iter().any(|(_, r, c)| *r > 0 && c.is_ok()) {
                failover_served += 1;
            }
            let started_at = parts
                .iter()
                .map(|(_, _, c)| c.started_at)
                .min()
                .unwrap_or_default();
            let finished_at = parts
                .iter()
                .map(|(_, _, c)| c.finished_at)
                .max()
                .unwrap_or_default();
            let attempts = parts.iter().map(|(_, _, c)| c.attempts).max().unwrap_or(1);
            let tenant = parts.first().map(|(_, _, c)| c.tenant).unwrap_or_default();
            let critical = parts
                .iter()
                .map(|(_, _, c)| c)
                .max_by_key(|c| c.finished_at)
                .expect("a query fans out to at least one shard");
            let stages = critical.stage_breakdown();
            let batch_size = critical.batch_size;
            let shards_total = parts.len();
            let mut hits = Vec::new();
            let mut shards_ok = 0;
            let mut first_err = None;
            for (_, _, done) in parts {
                match done.into_output::<Vec<Hit>>() {
                    Ok(shard_hits) => {
                        shards_ok += 1;
                        hits.extend(shard_hits);
                    }
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            let outcome = match first_err {
                Some(e) if shards_ok == 0 => Err(e),
                _ => Ok(top_k(hits, k)),
            };
            completions.push(QueryCompletion {
                ticket: QueryTicket(info.ticket),
                tenant,
                arrival: info.arrival,
                started_at,
                finished_at,
                batch_size,
                attempts,
                stages,
                shards_ok,
                shards_total,
                hedged,
                failovers,
                outcome,
            });
        }
        completions.sort_by_key(|c| (c.finished_at, c.ticket.0));
        let replica = ReplicaStats {
            groups: n_shards,
            per_shard: self.replicas,
            failovers: failover_submissions,
            down: cluster.health().down_transitions(),
            failover_served,
        };
        // The cluster's runners borrow the devices and memories; release
        // them before reading the corpus counters.
        drop(cluster);
        let ivf = *ivf_cell.borrow();
        Ok(ServeReport {
            completions,
            queue,
            shards: shard_stats,
            replica,
            ivf,
            corpus: self.corpus_stats(),
            rejected: std::mem::take(&mut self.rejected),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::retrieve_batch;
    use crate::corpus::CorpusSpec;
    use crate::mutable::flat_scan;
    use apu_sim::SimConfig;
    use hbm_sim::DramSpec;

    fn corpus(chunks: usize) -> EmbeddingStore {
        EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks,
            },
            77,
        )
    }

    /// A one-device server over the whole corpus.
    fn single(store: &EmbeddingStore, cfg: ServeConfig) -> ShardedRagServer {
        ShardedRagServer::new(store, 1, SimConfig::default().with_l4_bytes(8 << 20), cfg).unwrap()
    }

    #[test]
    fn queue_path_matches_synchronous_batch_path() {
        let store = corpus(20_000);
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();

        let report = {
            let mut server = single(&store, ServeConfig::default());
            for q in &queries {
                server.submit(Duration::ZERO, q.clone()).unwrap();
            }
            server.drain().unwrap()
        };

        // Synchronous reference on a fresh device: same batch, same kernel.
        let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(8 << 20));
        let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
        let sync = retrieve_batch(&mut dev, &mut hbm, &store, &queries, 5).unwrap();
        assert_eq!(report.completions.len(), 4);
        for done in &report.completions {
            assert_eq!(
                done.hits().expect("served"),
                sync.hits[done.ticket.id() as usize],
                "query {}",
                done.ticket.id()
            );
            assert_eq!(done.batch_size, 4);
        }
        assert_eq!(report.queue.dispatches, 1);
        assert_eq!(report.queue.dispatched_tasks, 4);
        assert_eq!(report.queue.max_batch_size, 4);
        assert!(report.throughput_qps() > 0.0);
    }

    #[test]
    fn stage_breakdown_sums_to_latency_and_exports() {
        let store = corpus(4096);
        let report = {
            let mut server = single(&store, ServeConfig::default());
            for i in 0..3 {
                server
                    .submit(Duration::from_micros(i * 5), store.query(i))
                    .unwrap();
            }
            server.drain().unwrap()
        };
        for done in &report.completions {
            assert_eq!(
                done.stages.total(),
                done.latency(),
                "ticket {}",
                done.ticket.id()
            );
            assert!(done.stages.device > Duration::ZERO);
        }
        let totals = report.stage_totals();
        assert_eq!(totals.total(), report.queue.total_latency);
        let text = report.prometheus_text();
        assert!(text.contains("apu_queue_stage_seconds_total{stage=\"device\"}"));
        assert!(text.contains("apu_queue_submitted_total 3"));
    }

    #[test]
    fn batch_window_splits_distant_arrivals() {
        let store = corpus(4096);
        let cfg = ServeConfig {
            batch_window: Duration::from_millis(1),
            ..ServeConfig::default()
        };
        let mut server = single(&store, cfg);
        server.submit(Duration::ZERO, store.query(0)).unwrap();
        server
            .submit(Duration::from_micros(100), store.query(1))
            .unwrap();
        // Outside the window of the first batch: forms its own.
        server
            .submit(Duration::from_millis(50), store.query(2))
            .unwrap();
        let report = server.drain().unwrap();
        let sizes: Vec<usize> = report.completions.iter().map(|c| c.batch_size).collect();
        assert_eq!(sizes.iter().filter(|&&s| s == 2).count(), 2);
        assert_eq!(sizes.iter().filter(|&&s| s == 1).count(), 1);
        // Early arrival is charged the wait for its batch mate.
        let first = report
            .completions
            .iter()
            .find(|c| c.ticket.id() == 0)
            .unwrap();
        assert!(first.latency() >= Duration::from_micros(100));
    }

    #[test]
    fn vr_limit_caps_batch_size() {
        let store = corpus(4096);
        let mut server = single(&store, ServeConfig::default());
        for i in 0..(MAX_BATCH + 3) {
            server
                .submit(Duration::ZERO, store.query(i as u64))
                .unwrap();
        }
        let report = server.drain().unwrap();
        assert_eq!(report.completions.len(), MAX_BATCH + 3);
        let max_seen = report
            .completions
            .iter()
            .map(|c| c.batch_size)
            .max()
            .unwrap();
        assert_eq!(max_seen, MAX_BATCH);
        assert_eq!(report.queue.dispatches, 2);
    }

    #[test]
    fn sharded_serving_matches_the_single_device_top_k() {
        let store = corpus(12_000);
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();

        let single = {
            let mut server = single(&store, ServeConfig::default());
            for q in &queries {
                server.submit(Duration::ZERO, q.clone()).unwrap();
            }
            server.drain().unwrap()
        };

        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let mut sharded = ShardedRagServer::new(&store, 3, sim, ServeConfig::default()).unwrap();
        assert_eq!(sharded.shard_count(), 3);
        for q in &queries {
            sharded.submit(Duration::ZERO, q.clone()).unwrap();
        }
        let report = sharded.drain().unwrap();

        assert_eq!(report.completions.len(), 4);
        assert_eq!(report.degraded(), 0);
        let single_hits: HashMap<u64, &[Hit]> = single
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served")))
            .collect();
        for done in &report.completions {
            assert_eq!((done.shards_ok, done.shards_total), (3, 3));
            assert!(!done.is_degraded());
            assert_eq!(
                done.hits().expect("served"),
                single_hits[&done.ticket.id()],
                "query {}",
                done.ticket.id()
            );
            assert_eq!(done.stages.total(), done.latency());
        }
        // Cluster counters count shard-tasks: 4 queries × 3 shards.
        assert_eq!(report.queue.submitted, 12);
        assert_eq!(report.shards.len(), 3);
        assert!(report.shards.iter().all(|s| s.submitted == 4));
    }

    #[test]
    fn percentile_of_an_empty_or_all_failed_report_is_zero() {
        // Empty report: no queries at all.
        let empty = ServeReport {
            completions: Vec::new(),
            queue: QueueStats::default(),
            shards: Vec::new(),
            replica: ReplicaStats::default(),
            ivf: IvfStats::default(),
            corpus: CorpusStats::default(),
            rejected: 0,
        };
        assert_eq!(empty.latency_percentile(0.5), Duration::ZERO);
        assert_eq!(empty.latency_percentile(0.99), Duration::ZERO);

        // All-failed report: every dispatch faults, and no retries.
        let store = corpus(4096);
        let mut server = single(&store, ServeConfig::default());
        server.inject_faults(0, FaultPlan::new(3).fail_every_kth_task(1));
        for i in 0..3 {
            server
                .submit(Duration::from_micros(i * 10), store.query(i))
                .unwrap();
        }
        let report = server.drain().unwrap();
        assert_eq!(report.served(), 0);
        assert_eq!(report.failed(), 3);
        assert_eq!(report.latency_percentile(0.99), Duration::ZERO);
    }

    #[test]
    fn a_faulted_shard_degrades_queries_instead_of_failing_them() {
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 6_000,
            },
            77,
        );
        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let mut sharded = ShardedRagServer::new(&store, 3, sim, ServeConfig::default()).unwrap();
        // Shard 1 fails every dispatch; no retries configured.
        sharded.inject_faults(1, apu_sim::FaultPlan::new(7).fail_every_kth_task(1));
        for i in 0..4 {
            sharded.submit(Duration::ZERO, store.query(i)).unwrap();
        }
        let report = sharded.drain().unwrap();
        assert_eq!(report.served(), 4);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.degraded(), 4);
        let healthy: Vec<_> = sharded
            .shards()
            .iter()
            .enumerate()
            .filter(|(s, _)| *s != 1)
            .flat_map(|(_, sh)| sh.range())
            .collect();
        for done in &report.completions {
            assert_eq!((done.shards_ok, done.shards_total), (2, 3));
            assert!(done.is_degraded());
            // Hits come only from the healthy shards' chunk ranges.
            for h in done.hits().unwrap() {
                assert!(healthy.contains(&h.chunk), "chunk {}", h.chunk);
            }
        }
        assert_eq!(report.shards[1].failed, 4);
        assert_eq!(report.shards[0].failed + report.shards[2].failed, 0);
    }

    #[test]
    fn a_killed_replica_fails_over_to_an_exact_result() {
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 6_000,
            },
            77,
        );
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();
        let single = {
            let mut server = single(&store, ServeConfig::default());
            for q in &queries {
                server.submit(Duration::ZERO, q.clone()).unwrap();
            }
            server.drain().unwrap()
        };

        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let cfg = ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        };
        let mut sharded = ShardedRagServer::new(&store, 2, sim, cfg).unwrap();
        assert_eq!(sharded.shard_count(), 2);
        assert_eq!(sharded.replica_count(), 2);
        assert_eq!(sharded.device_count(), 4);
        // Kill one replica of shard 0 outright; no retries configured.
        sharded.inject_faults_replica(0, 0, FaultPlan::new(7).fail_every_kth_task(1));
        for q in &queries {
            sharded.submit(Duration::ZERO, q.clone()).unwrap();
        }
        let report = sharded.drain().unwrap();

        assert_eq!(report.served(), 4);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.degraded(), 0, "a surviving replica means no loss");
        let single_hits: HashMap<u64, &[Hit]> = single
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served")))
            .collect();
        for done in &report.completions {
            assert_eq!((done.shards_ok, done.shards_total), (2, 2));
            assert_eq!(
                done.hits().expect("served"),
                single_hits[&done.ticket.id()],
                "query {}",
                done.ticket.id()
            );
            assert_eq!(done.stages.total(), done.latency());
        }
        // Read load-balancing routed some primaries to the dead replica;
        // those reads failed over and the health tracker downed it.
        assert!(report.replica.failovers >= 1);
        assert_eq!(report.replica.down, 1);
        assert!(report.replica.failover_served >= 1);
        assert_eq!(report.replica.groups, 2);
        assert_eq!(report.replica.per_shard, 2);
        assert!(report.completions.iter().any(|c| c.failovers > 0));
        // Per-device stats: 4 devices, and the dead one booked failures.
        assert_eq!(report.shards.len(), 4);
        assert!(report.shards[0].failed >= 1);
        let text = report.prometheus_text();
        assert!(text.contains("apu_replica_per_shard 2"));
        assert!(text.contains(&format!(
            "apu_replica_failovers_total {}",
            report.replica.failovers
        )));
    }

    #[test]
    fn a_whole_replica_set_down_degrades_not_fails() {
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 6_000,
            },
            77,
        );
        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let cfg = ServeConfig {
            replicas: 2,
            ..ServeConfig::default()
        };
        let mut sharded = ShardedRagServer::new(&store, 2, sim, cfg).unwrap();
        // Kill BOTH replicas of shard 1: failover has nowhere to go.
        for r in 0..2 {
            sharded.inject_faults_replica(1, r, FaultPlan::new(7).fail_every_kth_task(1));
        }
        for i in 0..3 {
            sharded.submit(Duration::ZERO, store.query(i)).unwrap();
        }
        let report = sharded.drain().unwrap();
        assert_eq!(report.served(), 3);
        assert_eq!(report.degraded(), 3, "shard 1 is gone entirely");
        let shard0: Vec<_> = sharded.shards()[0].range().collect();
        for done in &report.completions {
            assert_eq!((done.shards_ok, done.shards_total), (1, 2));
            assert!(done.failovers >= 1, "the second replica was tried");
            for h in done.hits().unwrap() {
                assert!(shard0.contains(&h.chunk), "chunk {}", h.chunk);
            }
        }
        assert_eq!(report.replica.down, 2);
        assert_eq!(report.replica.failover_served, 0);
    }

    #[test]
    fn ivf_serving_reports_probe_metrics_and_exact_scores() {
        let store = corpus(8_192);
        let cfg = ServeConfig {
            k: 10,
            index: IndexMode::Ivf {
                nlist: 8,
                nprobe: 2,
            },
            ..ServeConfig::default()
        };
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();
        let report = {
            let mut server = single(&store, cfg);
            for q in &queries {
                server.submit(Duration::ZERO, q.clone()).unwrap();
            }
            server.drain().unwrap()
        };
        assert_eq!(report.served(), 4);
        assert!(report.ivf.searches >= 1);
        assert_eq!(report.ivf.queries, 4);
        assert!(report.ivf.probes <= 4 * 2);
        // Pruned: fewer candidates than 4 full scans.
        assert!(report.ivf.candidates < 4 * 8_192);
        for done in &report.completions {
            let q = &queries[done.ticket.id() as usize];
            for h in done.hits().unwrap() {
                assert_eq!(
                    h.score,
                    crate::cpu::dot(store.embedding(h.chunk as usize), q),
                    "IVF rescore must be exact"
                );
            }
        }
        let text = report.prometheus_text();
        assert!(text.contains(&format!("apu_ivf_searches_total {}", report.ivf.searches)));
        assert!(text.contains("apu_ivf_candidates_total"));
    }

    #[test]
    fn sharded_ivf_full_probe_matches_flat_serving() {
        let store = corpus(6_000);
        let queries: Vec<Vec<i16>> = (0..4).map(|i| store.query(i)).collect();
        let flat = {
            let mut server = single(&store, ServeConfig::default());
            for q in &queries {
                server.submit(Duration::ZERO, q.clone()).unwrap();
            }
            server.drain().unwrap()
        };

        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let cfg = ServeConfig {
            index: IndexMode::Ivf {
                nlist: 6,
                nprobe: 6,
            },
            ..ServeConfig::default()
        };
        let mut sharded = ShardedRagServer::new(&store, 3, sim, cfg).unwrap();
        for q in &queries {
            sharded.submit(Duration::ZERO, q.clone()).unwrap();
        }
        let report = sharded.drain().unwrap();
        assert_eq!(report.served(), 4);
        let flat_hits: HashMap<u64, &[Hit]> = flat
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served")))
            .collect();
        for done in &report.completions {
            assert_eq!(
                done.hits().expect("served"),
                flat_hits[&done.ticket.id()],
                "nprobe == nlist must be element-identical to flat"
            );
        }
        assert!(report.ivf.searches >= 3, "one IVF dispatch per shard");
    }

    #[test]
    fn per_query_index_override_never_batches_with_flat() {
        let store = corpus(4_096);
        let mut server = single(&store, ServeConfig::default());
        server.submit(Duration::ZERO, store.query(0)).unwrap();
        server
            .submit_query(
                QuerySpec::new(Duration::ZERO, store.query(1)).index(IndexMode::ivf_default()),
            )
            .unwrap();
        let report = server.drain().unwrap();
        assert_eq!(report.served(), 2);
        // Different index modes may not coalesce into one dispatch.
        assert_eq!(report.queue.dispatches, 2);
        assert!(report.completions.iter().all(|c| c.batch_size == 1));
        assert_eq!(report.ivf.queries, 1);
    }

    #[test]
    fn admission_control_rejects_backlog() {
        let store = corpus(4096);
        let cfg = ServeConfig {
            queue: QueueConfig::default().with_max_pending(2),
            ..ServeConfig::default()
        };
        let mut server = single(&store, cfg);
        server.submit(Duration::ZERO, store.query(0)).unwrap();
        server.submit(Duration::ZERO, store.query(1)).unwrap();
        for i in 2..5 {
            assert!(matches!(
                server.submit(Duration::ZERO, store.query(i)),
                Err(Error::QueueFull { .. })
            ));
        }
        // Draining clears the backlog and reports the refusals, in
        // queries, so the stream's accounting closes.
        let report = server.drain().unwrap();
        assert_eq!(report.rejected, 3);
        assert_eq!(report.served() + report.failed() + report.rejected, 5);
        assert!(report
            .prometheus_text()
            .contains("apu_queries_rejected_total 3\n"));
        assert!(server.submit(Duration::ZERO, store.query(2)).is_ok());
        // The count is per drain: the next report starts from zero.
        assert_eq!(server.drain().unwrap().rejected, 0);
    }

    #[test]
    fn mutable_server_without_writes_matches_the_static_server() {
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 6_000,
            },
            21,
        );
        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let queries: Vec<Vec<i16>> = (0..6).map(|i| store.query(i)).collect();
        let run = |mutable: bool| {
            let mut server = if mutable {
                ShardedRagServer::new_mutable(&store, 3, sim.clone(), ServeConfig::default())
                    .unwrap()
            } else {
                ShardedRagServer::new(&store, 3, sim.clone(), ServeConfig::default()).unwrap()
            };
            for (i, q) in queries.iter().enumerate() {
                server
                    .submit(Duration::from_micros(i as u64 * 40), q.clone())
                    .unwrap();
            }
            server.drain().unwrap()
        };
        let fixed = run(false);
        let live = run(true);
        assert_eq!(live.served(), fixed.served());
        let fixed_hits: HashMap<u64, &[Hit]> = fixed
            .completions
            .iter()
            .map(|c| (c.ticket.id(), c.hits().expect("served")))
            .collect();
        for done in &live.completions {
            assert_eq!(
                done.hits().expect("served"),
                fixed_hits[&done.ticket.id()],
                "a mutable server with zero writes must answer like the static one"
            );
        }
        // All six queries share snapshot 1; the static server reports
        // all-zero corpus counters, the mutable one exports the series.
        assert_eq!(fixed.corpus, CorpusStats::default());
        assert_eq!(live.corpus.snapshots, 1);
        assert_eq!(live.corpus.live_docs, 6_000);
        assert!(live.prometheus_text().contains("apu_corpus_live_docs 6000"));
    }

    #[test]
    fn writes_compaction_and_snapshot_isolation_compose_on_the_server() {
        let store = EmbeddingStore::materialized(
            CorpusSpec {
                corpus_bytes: 0,
                chunks: 600,
            },
            9,
        );
        let sim = SimConfig::default().with_l4_bytes(8 << 20);
        let mut server =
            ShardedRagServer::new_mutable(&store, 2, sim, ServeConfig::default()).unwrap();
        let k = ServeConfig::default().k;

        // q0 pins the pristine corpus.
        let snap0 = server.corpus_snapshot().unwrap();
        let q0 = server.submit(Duration::ZERO, store.query(0)).unwrap();

        // Writes after q0's admission: one ingest, one delete.
        let new_doc = server.insert_doc(&store.query(41)).unwrap();
        assert_eq!(new_doc, 600);
        assert!(server.delete_doc(3).unwrap());

        // q1 pins the mutated corpus.
        let snap1 = server.corpus_snapshot().unwrap();
        let q1 = server
            .submit(Duration::from_micros(30), store.query(0))
            .unwrap();
        assert!(snap1.id > snap0.id);

        // Compact both shards in the background during the same drain.
        let t0 = server
            .request_compaction(new_doc as usize % 2, Duration::from_micros(5))
            .unwrap();
        assert!(t0.is_some(), "the insert left a delta to merge");

        let report = server.drain().unwrap();
        assert_eq!(report.served(), 2);
        for done in &report.completions {
            let (snap, label) = if done.ticket == q0 {
                (&snap0, "pre-write snapshot")
            } else {
                assert_eq!(done.ticket, q1);
                (&snap1, "post-write snapshot")
            };
            assert_eq!(
                done.hits().expect("served"),
                flat_scan(snap, &store.query(0), k),
                "{label} must serve exactly what it pinned"
            );
        }
        // q1 saw the write set; q0 did not.
        let hits1 = flat_scan(&snap1, &store.query(41), k);
        assert!(hits1.iter().any(|h| h.chunk == new_doc));
        assert!(flat_scan(&snap1, &store.query(0), k)
            .iter()
            .all(|h| h.chunk != 3));

        // The compaction applied, and the next query serves the merged
        // base with unchanged results.
        assert_eq!(report.corpus.compactions, 1);
        assert_eq!(report.corpus.compaction_failures, 0);
        let snap2 = server.corpus_snapshot().unwrap();
        assert_eq!(snap2.live_docs(), 600);
        let q2 = server
            .submit(Duration::from_micros(400), store.query(41))
            .unwrap();
        let report2 = server.drain().unwrap();
        let done = &report2.completions[0];
        assert_eq!(done.ticket, q2);
        assert_eq!(
            done.hits().expect("served"),
            flat_scan(&snap2, &store.query(41), k)
        );
        assert!(done.hits().unwrap().iter().any(|h| h.chunk == new_doc));
    }
}
