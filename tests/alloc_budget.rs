//! Heap-allocation budgets for the simulator's hot loops: per vector
//! command (`apu-sim`), per DRAM burst (`hbm-sim`) and per kernel plane
//! (`rag`), for the corpus, whose shards and snapshots share the
//! caller's embedding buffer, and for the IVF build's training copy. A
//! counting global allocator tallies allocations and their bytes per
//! thread, so each check sees only its own work while other tests run
//! in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use apu_sim::{ApuDevice, ExecMode, SimConfig, VecOp};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::{ClusteredCorpus, EMBED_DIM};
use rag::{
    retrieve_batch, CorpusSpec, EmbeddingStore, IvfIndex, MutableCorpus, ServeConfig,
    ShardedRagServer,
};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_one(bytes: usize) {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one(new_size);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Runs `f` and returns its result with the bytes it allocated on this
/// thread (a `realloc` counts its whole new block).
fn allocated_bytes<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BYTES.with(Cell::get);
    let out = f();
    (out, BYTES.with(Cell::get) - before)
}

#[test]
fn the_counter_sees_allocations() {
    let (v, n) = allocations(|| black_box(vec![0u8; 64]));
    assert_eq!((v.len(), n), (64, 1));
    let (v, bytes) = allocated_bytes(|| black_box(vec![0u16; 64]));
    assert_eq!((v.len(), bytes), (64, 128));
}

#[test]
fn a_corpus_shares_the_callers_embeddings() {
    // A corpus over a store keeps views of the store's buffer and the
    // bounds of each shard's id run: no embedding copy (768 B per chunk)
    // and no per-document state. The budget leaves room for one 4-byte
    // id per chunk.
    let materialized = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 4_096,
        },
        3,
    );
    // `flat_timing`'s 15 GB corpus: 244,500 chunks.
    let size_only = EmbeddingStore::size_only(CorpusSpec::from_corpus_bytes(15_000_000_000), 3);
    for store in [&materialized, &size_only] {
        let chunks = store.spec().chunks as u64;
        let (corpus, bytes) = allocated_bytes(|| MutableCorpus::new(store, 2));
        assert_eq!(corpus.live_docs(), chunks);
        assert!(
            bytes <= 5 * chunks,
            "{bytes} B for {chunks} chunks ({:.1} B per chunk)",
            bytes as f64 / chunks as f64
        );
    }

    // The server's shards and a snapshot's base segments point into the
    // caller's buffer.
    let sim = SimConfig::default().with_l4_bytes(8 << 20);
    let server = ShardedRagServer::new(&materialized, 2, sim.clone(), ServeConfig::default())
        .expect("server construction");
    let mut live = ShardedRagServer::new_mutable(&materialized, 2, sim, ServeConfig::default())
        .expect("server construction");
    let snap = live.corpus_snapshot().expect("mutable server");
    for (s, shard) in server.shards().iter().enumerate() {
        let start = materialized.raw()[shard.base as usize * EMBED_DIM..].as_ptr();
        assert!(std::ptr::eq(shard.store.raw().as_ptr(), start), "shard {s}");
        let base = &snap.shards[s].segments[0].store;
        assert!(
            std::ptr::eq(base.raw().as_ptr(), start),
            "base of shard {s}"
        );
    }
}

#[test]
fn hbm_stream_allocations_do_not_grow_with_its_length() {
    // One `flat_timing` shard stream (~94 MB) against a short one: the
    // burst walk allocates nothing, so both pay only the fixed cost of
    // the steady-state window snapshots and the replay record.
    let stream = |bytes: u64| {
        let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
        allocations(|| mem.stream_read(0, bytes)).1
    };
    let long = stream(94 << 20);
    let short = stream(8 << 20);
    assert_eq!(long, short, "allocations grew with the stream length");
    assert!(long < 1_000, "{long} allocations for one stream");
}

#[test]
fn a_repeated_hbm_stream_allocates_nothing() {
    // Every dispatch streams its shard again from the horizon: the second
    // stream replays the first one's record instead of walking.
    let mut mem = MemorySystem::new(DramSpec::hbm2e_16gb());
    let first = mem.stream_read(0, 94 << 20);
    let (again, n) = allocations(|| mem.stream_read(0, 94 << 20));
    assert_eq!(again.bytes, first.bytes);
    assert_eq!(n, 0, "{n} allocations for a repeated stream");
}

#[test]
fn timing_only_batch_allocates_far_less_than_once_per_command() {
    let cfg = SimConfig::default()
        .with_exec_mode(ExecMode::TimingOnly)
        .with_l4_bytes(1 << 20)
        .with_fast_forward(false);
    let tiles = 4;
    let store = EmbeddingStore::size_only(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: tiles * cfg.vr_len,
        },
        0,
    );
    let mut dev = ApuDevice::new(cfg);
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let queries = vec![vec![1i16; EMBED_DIM]; 12];
    let (batch, n) = allocations(|| retrieve_batch(&mut dev, &mut hbm, &store, &queries, 10));
    let commands = batch.unwrap().report.stats.commands;
    assert!(
        n < commands / 20,
        "{n} allocations for {commands} vector commands"
    );
}

#[test]
fn functional_batch_moves_data_without_per_call_copies() {
    // `ann_ivf`'s kernel shape: 512-lane VRs, one short tile, a full
    // batch. L2 → L1 DMA, VR loads, masked copies and subgroup
    // reductions move data in place; what remains is one staging buffer
    // per plane and the top-k bookkeeping.
    let cfg = SimConfig {
        vr_len: 512,
        ..SimConfig::default()
    }
    .with_l4_bytes(8 << 20);
    let store = EmbeddingStore::materialized(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 256,
        },
        5,
    );
    let mut dev = ApuDevice::new(cfg);
    let mut hbm = MemorySystem::new(DramSpec::hbm2e_16gb());
    let queries: Vec<Vec<i16>> = (0..12).map(|i| store.query(i)).collect();
    let (batch, n) = allocations(|| retrieve_batch(&mut dev, &mut hbm, &store, &queries, 10));
    assert!(batch.unwrap().hits.iter().all(|h| h.len() == 10));
    let planes = (EMBED_DIM / 2) as u64;
    assert!(n <= 2 * planes, "{n} allocations for {planes} planes");
}

#[test]
fn ivf_build_keeps_one_training_copy() {
    // The trainer's dimension-major copy of the corpus is freed before
    // the clusters gather their contiguous slices, and a stride
    // subsample that covers every chunk is not copied again.
    let corpus = ClusteredCorpus::new(
        CorpusSpec {
            corpus_bytes: 0,
            chunks: 4_096,
        },
        16,
        1,
        7,
    );
    let embedding_bytes = corpus.store.spec().embedding_bytes();
    let (index, bytes) = allocated_bytes(|| IvfIndex::build(&corpus.store, 16));
    assert_eq!(index.nlist(), 16);
    assert!(
        bytes * 2 <= embedding_bytes * 5,
        "{bytes} B for {embedding_bytes} B of embeddings ({:.2}x)",
        bytes as f64 / embedding_bytes as f64
    );
}

#[test]
fn charging_vector_commands_allocates_nothing() {
    let mut dev = ApuDevice::new(SimConfig::default().with_l4_bytes(1 << 20));
    let (report, n) = allocations(|| {
        dev.run_task(|ctx| {
            for op in VecOp::ALL.into_iter().cycle().take(10_000) {
                ctx.core_mut().charge(op);
            }
            Ok(())
        })
    });
    assert_eq!(report.unwrap().stats.commands, 10_000);
    assert_eq!(n, 0, "{n} allocations for 10,000 commands");
}
