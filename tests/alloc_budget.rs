//! Heap-allocation budgets for the simulator's hot loops: per vector
//! command (`apu-sim`), per DRAM burst (`hbm-sim`) and per kernel plane
//! (`rag`). A counting global allocator tallies allocations per thread,
//! so each check sees only its own work while other tests run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use apu_sim::{ApuDevice, ExecMode, SimConfig, VecOp};
use hbm_sim::{DramSpec, MemorySystem};
use rag::corpus::EMBED_DIM;
use rag::{retrieve_batch, CorpusSpec, EmbeddingStore};

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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

#[test]
fn the_counter_sees_allocations() {
    let (v, n) = allocations(|| black_box(vec![0u8; 64]));
    assert_eq!((v.len(), n), (64, 1));
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
