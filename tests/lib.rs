//! Shared helpers for the cross-crate integration tests in `it/`.

use std::sync::Arc;

use dcapp::{AppConfig, PipelineResult, SharedConfig};
use hetsim::{HostId, Topology};
use volume::{Dataset, Dims};

/// A small but non-trivial dataset: 24×24×48 cells, 36 chunks, 16 files.
pub fn test_dataset(seed: u64) -> Dataset {
    Dataset::generate(Dims::new(25, 25, 49), (3, 3, 4), 16, seed)
}

/// The dataset the retired sweep bins ran on (and the paper bins' small
/// one), for the tests that pin those bins' deterministic counters.
pub use bench::small_dataset;

/// A fresh executor of the substrate named `sub`: `"native"` or the
/// virtual-time simulator.
pub fn executor(sub: &str) -> datacutter::ExecutorChoice {
    match sub {
        "native" => datacutter::NativeExecutor::new().into(),
        _ => datacutter::SimExecutor::new().into(),
    }
}

/// Standard test configuration over the given hosts.
pub fn test_cfg(dataset: Dataset, hosts: Vec<HostId>, image: u32) -> SharedConfig {
    let mut cfg = AppConfig::new(dataset, hosts, 2, image, image);
    cfg.iso = 0.5;
    Arc::new(cfg)
}

/// The delivery contract of a run under a crash plan: every item of
/// `0..n` arrived at least once (`got` in any order), nothing was lost,
/// and each extra delivery is owed to a redelivered replica.
pub fn at_least_once(mut got: Vec<u64>, n: u64, f: &datacutter::FaultReport) -> Result<(), String> {
    let arrived = got.len() as u64;
    got.sort_unstable();
    got.dedup();
    let extra = arrived - got.len() as u64;
    if got != (0..n).collect::<Vec<u64>>() || f.buffers_lost != 0 || extra > f.buffers_redelivered {
        return Err(format!(
            "{} distinct of {n}, {extra} extra deliveries: {f}",
            got.len()
        ));
    }
    Ok(())
}

/// A homogeneous test cluster.
pub fn cluster(n: usize) -> (Topology, Vec<HostId>) {
    hetsim::presets::rogue_cluster(n)
}

/// FNV-1a, folded incrementally so the digest covers heterogeneous data.
///
/// Shared by the bit-identity suites (`dataplane_identity`,
/// `compositing_identity`), so every pin in the tree is computed by the
/// same fold.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    /// Fold in a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Digest of the rendered pixels (dimensions included, so a blank 96×96
/// and a blank 128×128 hash differently).
pub fn image_digest(img: &isosurf::Image) -> u64 {
    let mut h = Fnv::new();
    h.u64(img.width as u64);
    h.u64(img.height as u64);
    for px in &img.data {
        h.bytes(px);
    }
    h.0
}

/// Digest of the quantities crash recovery pins for *any* crash plan that
/// leaves a surviving consumer set: the rendered pixels and the loss
/// accounting. Elapsed time, per-copy distribution, and repair tallies
/// legitimately differ between a recovered run and the fault-free run;
/// the contract is zero loss and identical output, not an identical
/// delivery schedule.
pub fn recovery_digest(r: &PipelineResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(image_digest(r.image()));
    h.u64(r.report.faults.buffers_lost);
    h.u64(r.report.faults.bytes_lost);
    h.u64(r.report.faults.degraded as u64);
    h.0
}

/// Digest of the per-stream delivery totals (buffers and bytes summed
/// over copy sets). Invariant under crash recovery when the crashed
/// copies had consumed nothing yet (dead-from-start plans) *and* no
/// surviving stage re-batches — every unique sequence number is then
/// claimed and counted exactly once somewhere. Mid-run crashes
/// re-process consumed-but-unsettled buffers (their effects died with
/// the crashed copy's accumulator), and losing a copy of a batching
/// stage changes how many partial batches get flushed, so both
/// legitimately shift these totals — use [`recovery_digest`] there
/// instead.
pub fn stream_totals_digest(r: &PipelineResult) -> u64 {
    let mut h = Fnv::new();
    for s in &r.report.streams {
        h.u64(s.total_buffers());
        h.u64(s.total_bytes());
    }
    h.0
}

/// Digest of everything the run measured: virtual completion time, engine
/// event count, per-copy counters (the byte meters), per-stream copy-set
/// counters, UOW boundaries and fault tallies.
pub fn metrics_digest(r: &PipelineResult) -> u64 {
    let rep = &r.report;
    let mut h = Fnv::new();
    h.u64(rep.elapsed.as_nanos());
    h.u64(rep.events);
    for b in &rep.uow_boundaries {
        h.u64(b.as_nanos());
    }
    for c in &rep.copies {
        h.u64(c.host.0 as u64);
        h.u64(c.copy_index as u64);
        h.u64(c.counters.buffers_in);
        h.u64(c.counters.bytes_in);
        h.u64(c.counters.buffers_out);
        h.u64(c.counters.bytes_out);
        h.u64(c.counters.work.as_nanos());
        h.u64(c.counters.compute_elapsed.as_nanos());
        h.u64(c.counters.read_wait.as_nanos());
        h.u64(c.counters.write_wait.as_nanos());
        h.u64(c.counters.disk_bytes);
        h.u64(c.counters.disk_elapsed.as_nanos());
    }
    for s in &rep.streams {
        for (host, cs) in &s.copysets {
            h.u64(host.0 as u64);
            h.u64(cs.buffers_received);
            h.u64(cs.bytes_received);
        }
    }
    h.u64(rep.faults.copies_killed);
    // Two zero words where the retired demand-window replay counters
    // were, so every pinned metrics digest stays byte-identical.
    h.u64(0);
    h.u64(0);
    h.u64(rep.faults.buffers_lost);
    h.u64(rep.faults.bytes_lost);
    h.u64(rep.faults.retransmits);
    h.0
}
