//! Pins the zero-allocation contract of the training hot path: after
//! warmup, a probe/reply cycle — event-queue traffic, coordinate
//! snapshots, SGD updates — performs **no** heap allocation.
//!
//! Asserted with a counting global allocator (the one place in the
//! workspace that needs `unsafe`: delegating to the system allocator
//! while bumping an atomic).

use dmf_core::runner::{ExchangeFidelity, SimnetRunner};
use dmf_core::{DmfsgdConfig, Session};
use dmf_datasets::abw::hps3_like;
use dmf_datasets::rtt::meridian_like;
use dmf_proto::WireVersion;
use dmf_simnet::NetConfig;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

// SAFETY: delegates verbatim to the system allocator; the counter has
// no effect on allocation behaviour.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// One test function (not several) so no concurrent test in this
/// binary can allocate while a measured section runs.
#[test]
fn training_hot_paths_allocate_nothing_after_warmup() {
    // --- message-driven runner, fused exchanges (the default) -------
    let d = meridian_like(40, 1);
    let tau = d.median();
    let mut runner =
        SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
            .expect("valid config");
    // Warmup: several simulated seconds populate every queue bucket,
    // heap, slab slot and scratch list to steady-state capacity.
    runner.run_for(30.0).expect("positive duration");
    let before = allocations();
    runner.run_for(60.0).expect("positive duration");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "fused probe cycles allocated {during} times after warmup"
    );
    assert!(runner.stats().measurements_completed > 1000);

    // --- message-driven runner, full per-message fidelity ------------
    let d = meridian_like(40, 2);
    let tau = d.median();
    let mut runner =
        SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
            .expect("valid config")
            .with_exchange_fidelity(ExchangeFidelity::PerMessage);
    // The free list of coordinate boxes is as deep as the most replies
    // ever in flight at once: 600 s of a handful of concurrent cycles
    // reach a peak the next 60 s do not top.
    runner.run_for(600.0).expect("positive duration");
    let before = allocations();
    runner.run_for(660.0).expect("positive duration");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "per-message probe/reply cycles allocated {during} times after warmup \
         (coordinate snapshots must ride recycled boxes)"
    );

    // --- ABW (always per-message): probe and reply both carry a box --
    let d = hps3_like(40, 5);
    let tau = d.median();
    let mut runner =
        SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
            .expect("valid config");
    runner.run_for(600.0).expect("positive duration");
    let before = allocations();
    runner.run_for(660.0).expect("positive duration");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "ABW probe/reply cycles allocated {during} times after warmup \
         (both snapshots must ride recycled boxes)"
    );
    assert!(runner.stats().measurements_completed > 1000);

    // --- wire mode, protocol v2: real datagrams, per-pair contexts ---
    let d = meridian_like(40, 4);
    let tau = d.median();
    let mut runner =
        SimnetRunner::new(d, tau, DmfsgdConfig::paper_defaults(), NetConfig::default())
            .expect("valid config")
            .with_wire_version(WireVersion::V2);
    // A context's buffer reaches its final size at the pair's first
    // periodic keyframe, 17 exchanges in, and a pair is probed once in
    // 10 s on average: 600 s take every pair well past that (and fill
    // the free list of datagram buffers on the way).
    runner.run_for(600.0).expect("positive duration");
    let before = allocations();
    runner.run_for(660.0).expect("positive duration");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "wire-v2 probe/reply cycles allocated {during} times after warmup \
         (update blocks must be inline, datagram buffers recycled)"
    );
    let wire = runner.wire_stats();
    assert!(wire.messages_sent > 50_000 && wire.keyframes_sent > 0);
    assert_eq!(wire.decode_errors + wire.stale_deltas, 0);

    // --- oracle-driven system ticks ----------------------------------
    let d = meridian_like(40, 3);
    let class = d.classify(d.median());
    let mut provider = dmf_core::provider::ClassLabelProvider::new(class);
    let mut system = Session::builder().nodes(40).build().expect("valid config");
    system
        .run(2_000, &mut provider)
        .expect("provider covers the session");
    let before = allocations();
    system
        .run(10_000, &mut provider)
        .expect("provider covers the session");
    let during = allocations() - before;
    assert_eq!(
        during, 0,
        "oracle-driven SGD ticks allocated {during} times after warmup"
    );
}
