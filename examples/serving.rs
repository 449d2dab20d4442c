//! Serving: workloads through the device command queue.
//!
//! A background Phoenix histogram runs through a raw [`DeviceQueue`],
//! then a RAG retrieval stream runs through a one-device
//! [`rag::ShardedRagServer`]: the continuous-batching dispatcher
//! coalesces same-key queries arriving within the batch window into one
//! VR-limited device dispatch, and the example compares the batched
//! drain against the same stream served one query per dispatch.
//! The final section overloads the server with injected faults and a
//! per-query deadline to show graceful degradation: expired queries are
//! shed, transient faults retry with backoff, and every failure retires
//! as an error completion instead of taking the stream down.
//!
//! Run with: `cargo run --release --example serving`
//!
//! Set `SERVE_TRACE_OUT=/path/to/trace.json` to record the whole run
//! as a Chrome `trace_event` file (load it at <https://ui.perfetto.dev>),
//! and `SERVE_METRICS_OUT=/path/to/metrics.txt` to dump the batched
//! run's queue counters in the Prometheus text format.
//!
//! The sharded section replays part of the stream on four devices and
//! checks the merged top-k against the one-device run; `SERVE_SHARD_TRACE_OUT=/path/to/trace.json`
//! exports its timeline with one Perfetto track group per shard.

use std::time::Duration;

use apu_sim::{
    ApuDevice, ChromeTraceSink, DeviceQueue, FaultPlan, Priority, QueueConfig, RetryPolicy,
    SharedSink, SimConfig,
};
use phoenix::{histogram, OptConfig};
use rag::{CorpusSpec, EmbeddingStore, ServeConfig, ShardedRagServer};

fn main() -> Result<(), apu_sim::Error> {
    let sim = SimConfig::default().with_l4_bytes(16 << 20);
    let mut dev = ApuDevice::try_new(sim.clone())?;
    // Optional device-timeline tracing: every queue, core, and DMA
    // engine gets its own Perfetto track. The sink shares the device's
    // clock so cycle stamps render in wall microseconds, and every
    // server device below records into the same sink.
    let trace = std::env::var_os("SERVE_TRACE_OUT").map(|path| {
        let (sink, recorder) = ChromeTraceSink::shared(dev.config().clock);
        dev.install_trace_sink(sink);
        (path, recorder)
    });
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 16_384,
        },
        42,
    );
    // A one-device retrieval server; with tracing on, its device records
    // into the same sink as the analytics device.
    let single = |cfg: ServeConfig| -> Result<ShardedRagServer, apu_sim::Error> {
        let mut server = ShardedRagServer::new(&store, 1, sim.clone(), cfg)?;
        if let Some((_, recorder)) = &trace {
            let sink = SharedSink::from_rc(recorder.clone());
            server.device_mut(0).install_trace_sink(sink);
        }
        Ok(server)
    };

    // ---- 1. background analytics through the raw command queue ----
    let pixels = histogram::generate(100_000, 7);
    {
        let mut queue = DeviceQueue::new(&mut dev, QueueConfig::default());
        let handle = histogram::enqueue(&mut queue, Priority::Low, &pixels, OptConfig::all())?;
        let done = queue.wait(handle)?;
        println!(
            "histogram: {:.2} ms service on {} cores (waited {:.2} ms in queue)",
            done.report.millis(),
            done.report.cores_used,
            done.wait().as_secs_f64() * 1e3,
        );
    }

    // ---- 2. an open-loop query stream through the RAG server ----
    let queries: Vec<Vec<i16>> = (0..48).map(|i| store.query(i)).collect();
    let report = {
        let mut server = single(ServeConfig::default())?;
        for (i, q) in queries.iter().enumerate() {
            // Queries arrive 50 µs apart — faster than the device can
            // serve them one at a time, so the continuous-batching
            // dispatcher folds the backlog into VR-limited dispatches.
            server.submit(Duration::from_micros(50 * i as u64), q.clone())?;
        }
        server.drain()?
    };
    for done in report.completions.iter().take(4) {
        println!(
            "query {}: {} hits, batch of {}, latency {:.2} ms",
            done.ticket.id(),
            done.hits().map_or(0, <[_]>::len),
            done.batch_size,
            done.latency().as_secs_f64() * 1e3,
        );
    }
    println!(
        "batched: {:.0} QPS sustained, p99 {:.2} ms, {} dispatches, mean batch {:.1}",
        report.throughput_qps(),
        report.latency_percentile(0.99).as_secs_f64() * 1e3,
        report.queue.dispatches,
        report.queue.mean_batch_size(),
    );
    let stages = report.stage_totals();
    println!(
        "  where the time went: queue_wait {:.2} ms, dispatch {:.2} ms, dma {:.2} ms, device {:.2} ms",
        stages.queue_wait.as_secs_f64() * 1e3,
        stages.dispatch.as_secs_f64() * 1e3,
        stages.dma.as_secs_f64() * 1e3,
        stages.device.as_secs_f64() * 1e3,
    );
    if let Some(path) = std::env::var_os("SERVE_METRICS_OUT") {
        std::fs::write(&path, report.prometheus_text()).expect("write metrics file");
        println!("  wrote Prometheus metrics to {}", path.to_string_lossy());
    }

    // ---- 3. the same stream with coalescing disabled ----
    let unbatched = {
        let cfg = ServeConfig {
            max_batch: 1,
            ..ServeConfig::default()
        };
        let mut server = single(cfg)?;
        for (i, q) in queries.iter().enumerate() {
            server.submit(Duration::from_micros(50 * i as u64), q.clone())?;
        }
        server.drain()?
    };
    println!(
        "unbatched: {:.0} QPS sustained, p99 {:.2} ms, {} dispatches",
        unbatched.throughput_qps(),
        unbatched.latency_percentile(0.99).as_secs_f64() * 1e3,
        unbatched.queue.dispatches,
    );

    // ---- 4. graceful degradation: overload + injected faults ----
    // A burst of 96 back-to-back queries overruns the device, a 10%
    // deterministic task-fault rate is armed, each query carries a 2 ms
    // TTL, and transient faults get one retry with backoff. Shed and
    // faulted queries retire as error completions; the rest keep serving.
    let burst: Vec<Vec<i16>> = (0..96).map(|i| store.query(1000 + i)).collect();
    let degraded = {
        let cfg = ServeConfig {
            ttl: Some(Duration::from_millis(2)),
            retry: Some(RetryPolicy {
                max_retries: 1,
                ..RetryPolicy::default()
            }),
            ..ServeConfig::default()
        };
        let mut server = single(cfg)?;
        server.inject_faults(0, FaultPlan::new(42).fail_task_rate(0.10));
        for (i, q) in burst.iter().enumerate() {
            server.submit(Duration::from_micros(5 * i as u64), q.clone())?;
        }
        server.drain()?
    };
    println!(
        "degraded: {} served / {} failed ({} shed past deadline, {} retries), p99 {:.2} ms",
        degraded.served(),
        degraded.failed(),
        degraded.queue.expired,
        degraded.queue.retries,
        degraded.latency_percentile(0.99).as_secs_f64() * 1e3,
    );
    for done in degraded.completions.iter().filter(|c| !c.is_ok()).take(2) {
        println!(
            "  query {} failed after {} attempt(s): {}",
            done.ticket.id(),
            done.attempts,
            done.error().expect("failed completion carries its error"),
        );
    }

    // ---- 5. sharded serving: the same corpus across four devices ----
    // The corpus splits into four contiguous shards, each on its own
    // simulated device; every query fans out to all shards and the
    // per-shard top-k results merge into the exact global top-k — the
    // hits match the single-device server bit for bit.
    let sharded_report = {
        let mut sharded = ShardedRagServer::new(&store, 4, sim.clone(), ServeConfig::default())?;
        if std::env::var_os("SERVE_SHARD_TRACE_OUT").is_some() {
            sharded.enable_tracing();
        }
        for (i, q) in queries.iter().take(24).enumerate() {
            sharded.submit(Duration::from_micros(50 * i as u64), q.clone())?;
        }
        let report = sharded.drain()?;
        if let Some(path) = std::env::var_os("SERVE_SHARD_TRACE_OUT") {
            let json = sharded
                .take_chrome_trace()
                .expect("tracing was enabled before the drain");
            std::fs::write(&path, json).expect("write shard trace file");
            println!(
                "wrote per-shard trace groups to {} (open in https://ui.perfetto.dev)",
                path.to_string_lossy(),
            );
        }
        report
    };
    println!(
        "sharded x4: {} served / {} degraded, p99 {:.2} ms, {} shard queues",
        sharded_report.served(),
        sharded_report.degraded(),
        sharded_report.latency_percentile(0.99).as_secs_f64() * 1e3,
        sharded_report.shards.len(),
    );
    let single_hits: std::collections::HashMap<u64, &[rag::Hit]> = report
        .completions
        .iter()
        .filter_map(|c| c.hits().map(|h| (c.ticket.id(), h)))
        .collect();
    assert!(sharded_report.completions.iter().all(|c| {
        c.hits().expect("fault-free sharded run serves everything") == single_hits[&c.ticket.id()]
    }));
    println!("  merged shard top-k matches the single-device server exactly");

    // ---- 6. export the recorded device timeline, if requested ----
    if let Some((path, recorder)) = trace {
        dev.clear_trace_sink();
        let sink = recorder.borrow();
        std::fs::write(&path, sink.json()).expect("write trace file");
        println!(
            "wrote {} trace events to {} (open in https://ui.perfetto.dev)",
            sink.events().len(),
            path.to_string_lossy(),
        );
    }
    Ok(())
}
