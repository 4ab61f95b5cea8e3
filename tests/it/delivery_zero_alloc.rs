//! Proof that the *simulated delivery path* reaches a zero-allocation
//! steady state: once the run's `BufferSlab`, channel queues, and engine
//! event slab are warm, each additional buffer carried producer → outbox →
//! sender → stream queue → consumer performs no heap allocation at all.
//!
//! Methodology: two runs of an identical two-filter pipeline that differ
//! **only** in how many buffers the producer emits (200 vs 2000). Every
//! structural allocation — topology, threads, channels, warm-up of the
//! recycling pools — is the same in both, so the difference in global
//! allocation counts divided by the 1800 extra buffers is the steady-state
//! allocations-per-delivered-buffer. The test asserts it rounds to zero.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use datacutter::{Filter, FilterCtx, FilterError, GraphBuilder, Placement, Run, WritePolicy};
use hetsim::{ClusterSpec, HostId, HostSpec, SimDuration, TopologyBuilder};
use parking_lot::Mutex;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `ALLOCS` is process-wide and libtest runs this file's tests on parallel
/// threads, so a sibling's set-up would land in whichever measured window
/// is open. Every test holds this lock for its whole body: one of them
/// allocates at a time, and what a run counts is its own.
static MEASURING: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn measuring() -> std::sync::MutexGuard<'static, ()> {
    // A sibling that failed poisons the lock; that verdict is its own.
    MEASURING.lock().unwrap_or_else(|e| e.into_inner())
}

fn topology_n(n: usize) -> (hetsim::Topology, Vec<HostId>) {
    let mut b = TopologyBuilder::new();
    let c = b.add_cluster(ClusterSpec {
        name: "c".into(),
        nic_bandwidth_bps: 100.0e6,
        nic_latency: SimDuration::from_micros(50),
    });
    let hosts = (0..n)
        .map(|i| {
            b.add_host(
                c,
                HostSpec {
                    name: format!("h{i}"),
                    cores: 1,
                    speed: 1.0,
                    mem_mb: 256,
                    disks: 1,
                    disk_bandwidth_bps: 50.0e6,
                    disk_seek: SimDuration::from_millis(5),
                },
            )
        })
        .collect();
    (b.build(), hosts)
}

fn topology() -> (hetsim::Topology, Vec<HostId>) {
    topology_n(2)
}

struct Src {
    n: u32,
}
impl Filter for Src {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            let b = ctx.buffer_slab().make(i as u64, 128);
            ctx.write(0, b);
        }
        Ok(())
    }
}

struct Sink {
    sum: Arc<Mutex<u64>>,
}
impl Filter for Sink {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let mut local = 0u64;
        while let Some(b) = ctx.read(0) {
            local = local.wrapping_add(ctx.buffer_slab().recycle::<u64>(b));
        }
        *self.sum.lock() = local;
        Ok(())
    }
}

/// Run the two-filter pipeline delivering `n` buffers; returns the global
/// allocation count consumed by the whole run and the payload checksum
/// (proof the buffers actually flowed).
fn run_once(policy: WritePolicy, n: u32) -> (u64, u64) {
    let (topo, hosts) = topology();
    let sum: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let sum2 = sum.clone();
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| Src { n });
    let sink = g.add_filter("sink", Placement::on_host(hosts[1], 1), move |_| Sink {
        sum: sum2.clone(),
    });
    g.connect(src, sink, policy);
    let before = ALLOCS.load(Ordering::Relaxed);
    Run::new(g.build()).go(&topo).expect("pipeline run failed");
    let after = ALLOCS.load(Ordering::Relaxed);
    let got = *sum.lock();
    (after - before, got)
}

fn expected_sum(n: u32) -> u64 {
    (0..n as u64).sum()
}

fn assert_zero_marginal_allocs(policy: WritePolicy) {
    const SMALL: u32 = 200;
    const LARGE: u32 = 2000;
    // Throwaway run to warm lazy statics, thread-spawn machinery, and the
    // allocator itself, so the two measured runs are structurally identical.
    let _ = run_once(policy, SMALL);

    let (small_allocs, small_sum) = run_once(policy, SMALL);
    let (large_allocs, large_sum) = run_once(policy, LARGE);
    assert_eq!(small_sum, expected_sum(SMALL));
    assert_eq!(large_sum, expected_sum(LARGE));

    let extra_buffers = (LARGE - SMALL) as i64;
    let delta = large_allocs as i64 - small_allocs as i64;
    // Zero steady-state allocations per delivered buffer: the 1800 extra
    // buffers may not add more than a sliver of amortized container growth
    // (well under 2% of one allocation per buffer, and far from 1:1).
    assert!(
        delta <= extra_buffers / 64,
        "{}: {} extra allocations for {} extra delivered buffers \
         ({} vs {} total) — delivery path is allocating per buffer",
        policy.label(),
        delta,
        extra_buffers,
        large_allocs,
        small_allocs,
    );
}

#[test]
fn round_robin_delivery_steady_state_is_allocation_free() {
    let _alone = measuring();
    assert_zero_marginal_allocs(WritePolicy::RoundRobin);
}

#[test]
fn demand_driven_delivery_steady_state_is_allocation_free() {
    let _alone = measuring();
    assert_zero_marginal_allocs(WritePolicy::demand_driven());
}

// ---- crash-plan retention ------------------------------------------------

/// Source emitting *replicable* buffers, as the application filters do —
/// the shape retention can stamp and retain.
struct ReplicableSrc {
    n: u32,
}
impl Filter for ReplicableSrc {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            let b = ctx.buffer_slab().make_replicable(i as u64, 128);
            ctx.write(0, b);
        }
        Ok(())
    }
}

/// [`run_once`] over `uows` units of work of `n` buffers each, under
/// supervision, so retention is armed: every buffer is stamped with a
/// provenance, a replica is cloned into the ring, the consumer journals
/// the sequence number, and its end-of-work settles the journal, which
/// recycles the replicas into the slab pool.
fn run_supervised(policy: WritePolicy, n: u32, uows: u32) -> (u64, u64) {
    use datacutter::{FaultOptions, SupervisorPolicy};
    use hetsim::FaultPlan;
    let (topo, hosts) = topology();
    let sum: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let sum2 = sum.clone();
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| {
        ReplicableSrc { n }
    });
    let sink = g.add_filter("sink", Placement::on_host(hosts[1], 1), move |_| Sink {
        sum: sum2.clone(),
    });
    g.connect(src, sink, policy);
    let before = ALLOCS.load(Ordering::Relaxed);
    Run::new(g.build())
        .uows(uows)
        .faults(FaultOptions::new(FaultPlan::new()).supervised(SupervisorPolicy::new()))
        .go(&topo)
        .expect("supervised pipeline run failed");
    let after = ALLOCS.load(Ordering::Relaxed);
    let got = *sum.lock();
    (after - before, got)
}

/// Retention must not break the steady state: a ring holds one unit of
/// work's replicas, and each settlement hands their boxes back to the
/// slab pool for the next unit's stamps. So one more unit of work of
/// `N` buffers costs no more than the sliver budget of allocations —
/// journals regrow amortized, in a handful of doublings.
#[test]
fn lossless_retention_steady_state_is_allocation_free() {
    let _alone = measuring();
    const N: u32 = 2000;
    const K: u32 = 2;
    for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
        let _ = run_supervised(policy, N, K);

        let (k_allocs, k_sum) = run_supervised(policy, N, K);
        let (more_allocs, more_sum) = run_supervised(policy, N, K + 1);
        assert_eq!(k_sum, expected_sum(N));
        assert_eq!(more_sum, expected_sum(N));

        let extra_buffers = N as i64;
        let delta = more_allocs as i64 - k_allocs as i64;
        assert!(
            delta <= extra_buffers / 64,
            "{} + retention: {} extra allocations for one more unit of work \
             of {} buffers ({} vs {} total) — settlement is not recycling \
             replicas",
            policy.label(),
            delta,
            extra_buffers,
            more_allocs,
            k_allocs,
        );
    }
}

// ---- tile-hash routing -----------------------------------------------------

/// Producer that targets buffers by tile id, the way the tiled raster
/// filter ships split fragments: `write_tile` resolves the owning copy
/// set and takes the same slab-recycled targeted-write path.
struct TileSrc {
    n: u32,
}
impl Filter for TileSrc {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            let b = ctx.buffer_slab().make(i as u64, 128);
            // A rolling tile id exercises both owner sets.
            ctx.write_tile(0, (i % 5) as u64, b);
        }
        Ok(())
    }
}

/// Multi-set sink: copies accumulate into one shared counter (order
/// doesn't matter for a wrapping sum).
struct TileSink {
    sum: Arc<AtomicU64>,
}
impl Filter for TileSink {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        while let Some(b) = ctx.read(0) {
            let v = ctx.buffer_slab().recycle::<u64>(b);
            self.sum.fetch_add(v, Ordering::Relaxed);
        }
        Ok(())
    }
}

/// Tile-hash variant of [`run_once`]: one producer, **two** consumer copy
/// sets so the modulo routing actually fans out.
fn run_once_tiled(n: u32) -> (u64, u64) {
    let (topo, hosts) = topology_n(3);
    let sum: Arc<AtomicU64> = Arc::new(AtomicU64::new(0));
    let sum2 = sum.clone();
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| TileSrc {
        n,
    });
    let sink = g.add_filter("sink", Placement::one_per_host(&hosts[1..]), move |_| {
        TileSink { sum: sum2.clone() }
    });
    g.connect(src, sink, WritePolicy::TileHash);
    let before = ALLOCS.load(Ordering::Relaxed);
    Run::new(g.build())
        .go(&topo)
        .expect("tiled pipeline run failed");
    let after = ALLOCS.load(Ordering::Relaxed);
    let got = sum.load(Ordering::Relaxed);
    (after - before, got)
}

/// The tile-hash write path (`write_tile` → targeted write) must hit the
/// same zero-allocation steady state as the untargeted policies — this is
/// what lets the tiled raster filter split every WPA batch without
/// allocating per fragment.
#[test]
fn tile_hash_delivery_steady_state_is_allocation_free() {
    let _alone = measuring();
    const SMALL: u32 = 200;
    const LARGE: u32 = 2000;
    let _ = run_once_tiled(SMALL);

    let (small_allocs, small_sum) = run_once_tiled(SMALL);
    let (large_allocs, large_sum) = run_once_tiled(LARGE);
    assert_eq!(small_sum, expected_sum(SMALL));
    assert_eq!(large_sum, expected_sum(LARGE));

    let extra_buffers = (LARGE - SMALL) as i64;
    let delta = large_allocs as i64 - small_allocs as i64;
    assert!(
        delta <= extra_buffers / 64,
        "tile-hash: {delta} extra allocations for {extra_buffers} extra delivered \
         buffers ({large_allocs} vs {small_allocs} total) — the targeted \
         delivery path is allocating per buffer",
    );
}

// ---- warm chunk cache ------------------------------------------------------

use volume::{CacheKey, ChunkCache, ChunkId, Dims, RectGrid};

fn cache_key(c: u32) -> CacheKey {
    CacheKey {
        species: 0,
        timestep: 0,
        chunk: ChunkId(c),
    }
}

/// A warm cache with `n` resident grids, each filled with its own index
/// so delivered payloads are checksummable.
fn warm_cache(n: u32) -> Arc<ChunkCache> {
    let cache = ChunkCache::new(1 << 24);
    for c in 0..n {
        cache.insert(
            cache_key(c),
            Arc::new(RectGrid::filled(Dims::new(8, 8, 8), c as f32)),
        );
    }
    cache
}

/// A cache hit is an `Arc` clone: strictly zero heap allocations, not
/// just amortized-zero. This is the direct proof behind the cache module
/// docs' claim.
#[test]
fn warm_cache_hits_are_strictly_allocation_free() {
    let _alone = measuring();
    let cache = warm_cache(8);
    // Warm the lock and the counter cachelines.
    for c in 0..8 {
        assert!(cache.get(cache_key(c)).is_some());
    }
    // The lock keeps siblings out, not libtest's own thread, which may
    // still be reporting the previous test: a hit that allocates does so
    // in every window, a stray report in at most one.
    let mut fewest = u64::MAX;
    for _ in 0..3 {
        let before = ALLOCS.load(Ordering::Relaxed);
        let mut touched = 0u64;
        for i in 0..10_000u32 {
            let g = cache.get(cache_key(i % 8)).expect("warm entry");
            touched = touched.wrapping_add(g.data[0] as u64);
        }
        fewest = fewest.min(ALLOCS.load(Ordering::Relaxed) - before);
        assert_eq!(touched, 10_000 / 8 * (0..8).sum::<u64>());
    }
    assert_eq!(
        fewest, 0,
        "10,000 cache hits allocated — an Arc clone must not touch the heap"
    );
}

/// Source that serves every buffer from a warm [`ChunkCache`]: the
/// payload is the hit's `Arc` clone, shipped through the recycling slab
/// exactly the way the budgeted reader stage ships resident chunks.
struct CachedSrc {
    n: u32,
    cache: Arc<ChunkCache>,
}
impl Filter for CachedSrc {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        for i in 0..self.n {
            let g = self.cache.get(cache_key(i % 8));
            debug_assert!(g.is_some(), "warm entry");
            // `Option` wrapper gives the recycled box its hollow state
            // (`recycle` needs `Default`); same size as the bare `Arc`.
            let b = ctx.buffer_slab().make(g, 128);
            ctx.write(0, b);
        }
        Ok(())
    }
}

/// Consumer folding the cached grids' fill values (proof the shared data
/// actually arrived) and recycling the boxes back to the slab.
struct CachedSink {
    sum: Arc<Mutex<u64>>,
}
impl Filter for CachedSink {
    fn process(&mut self, ctx: &mut FilterCtx) -> Result<(), FilterError> {
        let mut local = 0u64;
        while let Some(b) = ctx.read(0) {
            let g: Option<Arc<RectGrid>> = ctx.buffer_slab().recycle(b);
            local = local.wrapping_add(g.expect("payload present").data[0] as u64);
        }
        *self.sum.lock() = local;
        Ok(())
    }
}

fn run_once_cached(policy: WritePolicy, n: u32) -> (u64, u64) {
    let (topo, hosts) = topology();
    // Built and warmed before the measured window, like the run-wide
    // cache a prior query already populated.
    let cache = warm_cache(8);
    let sum: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
    let sum2 = sum.clone();
    let mut g = GraphBuilder::new();
    let src = g.add_filter("src", Placement::on_host(hosts[0], 1), move |_| CachedSrc {
        n,
        cache: cache.clone(),
    });
    let sink = g.add_filter("sink", Placement::on_host(hosts[1], 1), move |_| {
        CachedSink { sum: sum2.clone() }
    });
    g.connect(src, sink, policy);
    let before = ALLOCS.load(Ordering::Relaxed);
    Run::new(g.build())
        .go(&topo)
        .expect("cached pipeline run failed");
    let after = ALLOCS.load(Ordering::Relaxed);
    let got = *sum.lock();
    (after - before, got)
}

fn expected_cached_sum(n: u32) -> u64 {
    (0..n as u64).map(|i| i % 8).sum()
}

/// The full cache-hit delivery path — lookup, `Arc`-clone payload, slab
/// box, channel, recycle — reaches the same zero-allocation steady state
/// as the plain delivery path: a warm out-of-core reader adds no
/// per-chunk heap traffic on top of it.
#[test]
fn warm_cache_delivery_steady_state_is_allocation_free() {
    let _alone = measuring();
    const SMALL: u32 = 200;
    const LARGE: u32 = 2000;
    for policy in [WritePolicy::RoundRobin, WritePolicy::demand_driven()] {
        let _ = run_once_cached(policy, SMALL);

        let (small_allocs, small_sum) = run_once_cached(policy, SMALL);
        let (large_allocs, large_sum) = run_once_cached(policy, LARGE);
        assert_eq!(small_sum, expected_cached_sum(SMALL));
        assert_eq!(large_sum, expected_cached_sum(LARGE));

        let extra_buffers = (LARGE - SMALL) as i64;
        let delta = large_allocs as i64 - small_allocs as i64;
        assert!(
            delta <= extra_buffers / 64,
            "{} + warm cache: {} extra allocations for {} extra delivered \
             buffers ({} vs {} total) — the cache-hit delivery path is \
             allocating per buffer",
            policy.label(),
            delta,
            extra_buffers,
            large_allocs,
            small_allocs,
        );
    }
}
