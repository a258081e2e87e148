//! Tile-serving allocation pin.
//!
//! A tile-cache miss writes into a buffer that an earlier eviction on
//! the same thread freed up, and allocates only when none fits. So once
//! the cache is warm, serving on a cache far smaller than the tiles it
//! serves allocates almost no tile-sized buffers, and frees almost none
//! into another thread's arena.
//!
//! The pin: a counting global allocator counts allocations of 1 KiB or
//! more on the serving thread. After warm-up, a serve + prefetch loop on
//! a 1 MiB cache must make fewer such allocations than one in four of
//! its misses. Without recycling it makes one per miss.
//!
//! Its own test binary, because a global allocator is process-wide.

use lightdb::ingest::{store_stream, IngestConfig};
use lightdb::prelude::*;
use lightdb_testsuite::tiled_stream;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

/// Allocations this large are a tile buffer's size class, not the
/// bookkeeping a serve does.
const LARGE: usize = 1024;

thread_local! {
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    if size >= LARGE {
        // try_with: the counter must never allocate or panic, even
        // during TLS teardown.
        let _ = LARGE_ALLOCS.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method delegates to the `System` allocator unchanged;
// the only extra work is a thread-local counter bump via `try_with`,
// which never allocates, panics, or recurses into the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: forwards `layout` verbatim to `System.alloc`, which
    // upholds the GlobalAlloc contract for the returned pointer.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: forwards the caller's (ptr, layout) pair, which the
    // GlobalAlloc contract guarantees came from a matching alloc.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: ptr/layout come from a prior `System.alloc` with
        // the same layout, per the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: forwards the caller's (ptr, layout, new_size) triple
    // unchanged; System.realloc upholds the contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: ptr/layout describe a live allocation from this
        // allocator and new_size is non-zero, per the caller.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

#[test]
fn a_warm_serve_loop_on_a_small_cache_seldom_allocates_a_tile_buffer() {
    const SECONDS: u64 = 32;
    const VIEWERS: u64 = 48;
    let root = std::env::temp_dir().join(format!("lightdb-tile-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // This binary's only test: nothing else reads the variable.
    std::env::set_var("LIGHTDB_TILE_CACHE_MB", "1");
    let db = LightDb::open(&root).unwrap();
    std::env::remove_var("LIGHTDB_TILE_CACHE_MB");
    // ~3.3 KB high-quality and ~1.3 KB low-quality tiles: 2.3 MB of
    // tiles against the 1 MiB cache, each at least the counted size.
    let at = IngestConfig::default();
    for (name, tile_bytes, seed) in [("wide", 800, 1), ("wide_lq", 300, 2)] {
        let stream = tiled_stream(SECONDS as usize, tile_bytes, seed).unwrap();
        store_stream(&db, name, stream, at.position, at.projection).unwrap();
    }
    let cache = db.tile_cache().unwrap();
    assert_eq!(cache.budget_bytes(), 1 << 20);
    let session = db.session();
    let server = session
        .tile_server("wide", Some("wide_lq"), TileServerConfig::default())
        .unwrap();
    let grid = server.grid();
    // Each viewer at its own second, drifting over the grid at its own
    // pace, then that viewer's prefetch.
    let step = |step: u64| {
        for viewer in 0..VIEWERS {
            let second = (viewer * 5 + step) % SECONDS;
            let tile = ((viewer * 3 + step * (1 + viewer % 3)) % 16) as usize;
            let view = server.serve(viewer, second, Orientation::tile_center(tile, grid)).unwrap();
            assert!(!view.primary.bytes.is_empty());
            server.prefetch(viewer);
        }
    };
    for s in 0..8 {
        step(s);
    }
    let (before, allocs_before) = (cache.stats(), large_allocs());
    for s in 8..32 {
        step(s);
    }
    let (delta, allocs) = (cache.stats().since(&before), large_allocs() - allocs_before);
    assert!(delta.misses > 1_000 && delta.evictions > 1_000, "the budget must bind: {delta:?}");
    assert!(
        allocs * 4 < delta.misses,
        "{allocs} allocations of {LARGE} bytes or more for {} misses ({delta:?})",
        delta.misses
    );
    let _ = std::fs::remove_dir_all(&root);
}
