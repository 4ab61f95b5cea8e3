//! Per-copy and per-stream metrics, harvested into a [`RunReport`] after a
//! run. These counters regenerate the paper's Tables 1–3 directly.

use std::sync::Arc;

use hetsim::{HostId, SimDuration};
use parking_lot::Mutex;

use crate::graph::{FilterId, StreamId};

/// Counters owned by one filter copy (shared cell written during the run).
#[derive(Debug, Default, Clone)]
pub struct CopyCounters {
    /// Buffers read from input streams.
    pub buffers_in: u64,
    /// Payload bytes read.
    pub bytes_in: u64,
    /// Buffers written to output streams.
    pub buffers_out: u64,
    /// Payload bytes written.
    pub bytes_out: u64,
    /// Reference-speed work charged via `compute`.
    pub work: SimDuration,
    /// Virtual time spent inside `compute` (includes contention dilation).
    pub compute_elapsed: SimDuration,
    /// Virtual time blocked waiting on input reads.
    pub read_wait: SimDuration,
    /// Virtual time blocked in writes (policy window + backpressure +
    /// outbox).
    pub write_wait: SimDuration,
    /// Bytes read from local disks.
    pub disk_bytes: u64,
    /// Virtual time spent in disk reads.
    pub disk_elapsed: SimDuration,
}

/// Shared handle to a copy's counters.
pub type CopyCell = Arc<Mutex<CopyCounters>>;

/// Identity + final counters of one filter copy.
#[derive(Debug, Clone)]
pub struct CopyReport {
    /// Which filter.
    pub filter: FilterId,
    /// Filter name (for printing).
    pub filter_name: String,
    /// Copy index among the filter's copies.
    pub copy_index: usize,
    /// Host the copy ran on.
    pub host: HostId,
    /// Final counters.
    pub counters: CopyCounters,
}

/// Per-copy-set stream counters (shared cell).
#[derive(Debug, Default, Clone)]
pub struct CopySetCounters {
    /// Buffers delivered into this copy set's queue (counted at consumer
    /// dequeue).
    pub buffers_received: u64,
    /// Payload bytes received.
    pub bytes_received: u64,
}

/// Shared handle to a copy set's counters.
pub type CopySetCell = Arc<Mutex<CopySetCounters>>;

/// Final per-stream metrics.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Which stream.
    pub stream: StreamId,
    /// Stream name (`producer->consumer`).
    pub stream_name: String,
    /// Per copy set: `(host, counters)`, in consumer placement order.
    pub copysets: Vec<(HostId, CopySetCounters)>,
}

impl StreamReport {
    /// Total buffers moved on the stream.
    pub fn total_buffers(&self) -> u64 {
        self.copysets.iter().map(|(_, c)| c.buffers_received).sum()
    }

    /// Total payload bytes moved on the stream.
    pub fn total_bytes(&self) -> u64 {
        self.copysets.iter().map(|(_, c)| c.bytes_received).sum()
    }
}

/// Fault-injection outcome of a run: what was injected and what the
/// runtime did about it. All-zero (and `injected` empty) for fault-free
/// runs.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Human-readable description of every scheduled fault.
    pub injected: Vec<String>,
    /// Filter copies killed by host crashes.
    pub copies_killed: u64,
    /// Non-replicable buffers salvaged from dead copy sets and replayed to
    /// survivors through their producer's demand window. A replicable
    /// buffer is never replayed — its retained replica is redelivered
    /// instead (`buffers_redelivered`).
    pub buffers_replayed: u64,
    /// Payload bytes replayed.
    pub bytes_replayed: u64,
    /// Buffers irrecoverably lost: a retained replica no consumer settled
    /// by the end of the run (no live consumer set was left to take it),
    /// a non-replicable buffer queued at a dead set with no ack handle or
    /// no surviving set, or a spill frame the storage plane could not
    /// read back.
    pub buffers_lost: u64,
    /// Payload bytes lost.
    pub bytes_lost: u64,
    /// Message transmissions repeated because of injected drops.
    pub retransmits: u64,
    /// Supervised in-place restarts of panicked filter copies.
    pub restarts: u64,
    /// Copies the supervisor declared dead for missing heartbeats.
    pub copies_wedged: u64,
    /// Messages held back by injected per-message delays.
    pub messages_delayed: u64,
    /// Retained replicas redelivered after a crash (to a surviving copy
    /// set or a restarted copy).
    pub buffers_redelivered: u64,
    /// Payload bytes redelivered.
    pub bytes_redelivered: u64,
    /// Per-copy restart/backoff timeline of supervised restarts, in the
    /// order they were contained.
    pub restart_events: Vec<crate::fault::RestartEvent>,
    /// Disk read/write errors the storage fault plan injected into the
    /// spill plane (each consumed one ladder attempt).
    pub disk_errors_injected: u64,
    /// Spill/fault-in attempts repeated under seeded backoff by the
    /// storage retry ladder.
    pub storage_retries: u64,
    /// Spill writes abandoned after the full ladder (retries + one ring
    /// re-creation); each left its payload resident over budget.
    pub spills_denied: u64,
    /// Spill frames whose checksum or decode failed on fault-in; each
    /// became one loss-accounted buffer.
    pub corruptions_detected: u64,
    /// Timeline of notable storage-plane events (ring re-creations,
    /// denials, detected corruptions), bounded per run.
    pub storage_events: Vec<crate::storage::StorageEvent>,
    /// `true` when the run completed with partial output (buffers lost
    /// or copies wedged).
    pub degraded: bool,
}

impl std::fmt::Display for FaultReport {
    /// Human-readable digest for chaos-job logs: injected faults, repair
    /// tallies, and the per-copy restart/backoff timeline.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let storage_active = self.disk_errors_injected
            + self.storage_retries
            + self.spills_denied
            + self.corruptions_detected
            > 0;
        if self.injected.is_empty()
            && self.restarts == 0
            && self.copies_killed == 0
            && !storage_active
        {
            return write!(f, "faults: none injected, none observed");
        }
        writeln!(f, "faults injected:")?;
        if self.injected.is_empty() {
            writeln!(f, "  (none scheduled; supervision only)")?;
        }
        for d in &self.injected {
            writeln!(f, "  {d}")?;
        }
        writeln!(
            f,
            "outcome: {}",
            if self.degraded {
                "degraded (partial output)"
            } else {
                "complete"
            }
        )?;
        writeln!(
            f,
            "  killed {} copies, wedged {}, restarted {}",
            self.copies_killed, self.copies_wedged, self.restarts
        )?;
        writeln!(
            f,
            "  replayed {} buffers ({} B), redelivered {} ({} B)",
            self.buffers_replayed,
            self.bytes_replayed,
            self.buffers_redelivered,
            self.bytes_redelivered
        )?;
        writeln!(
            f,
            "  lost {} buffers ({} B), {} retransmits, {} delayed",
            self.buffers_lost, self.bytes_lost, self.retransmits, self.messages_delayed
        )?;
        writeln!(
            f,
            "  storage: {} disk errors injected, {} retries, {} spills denied, {} corruptions detected",
            self.disk_errors_injected,
            self.storage_retries,
            self.spills_denied,
            self.corruptions_detected
        )?;
        for e in &self.storage_events {
            writeln!(
                f,
                "  {:>9.3}s  host{}: {}",
                e.at.as_secs_f64(),
                e.host.0,
                e.detail
            )?;
        }
        if self.restart_events.is_empty() {
            write!(f, "restart timeline: empty")?;
        } else {
            write!(f, "restart timeline:")?;
            for e in &self.restart_events {
                write!(
                    f,
                    "\n  {:>9.3}s  {}[{}]@host{} uow {}: restart attempt {} after {:.3}s backoff",
                    e.at.as_secs_f64(),
                    e.filter,
                    e.copy,
                    e.host.0,
                    e.uow,
                    e.attempt,
                    e.backoff.as_secs_f64(),
                )?;
            }
        }
        Ok(())
    }
}

/// Out-of-core accounting of one run: the spill-ring traffic and the
/// memory-budget ledger. All zeros when no [`crate::Run::memory_budget`]
/// was configured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OocReport {
    /// Configured run budget in bytes (0 = unlimited, out-of-core off).
    pub memory_budget_bytes: u64,
    /// Payloads parked in the spill ring.
    pub spills: u64,
    /// Encoded bytes written to the ring.
    pub spill_bytes: u64,
    /// Payloads faulted back in at readers.
    pub faults: u64,
    /// Encoded bytes read back from the ring.
    pub fault_bytes: u64,
    /// Cumulative bytes granted by the budget ledger.
    pub granted_bytes: u64,
    /// Cumulative bytes released back to the ledger.
    pub released_bytes: u64,
}

impl OocReport {
    /// Bytes still resident at harvest (`granted − released`); non-zero
    /// means queued payloads were abandoned (e.g. a degraded run).
    pub fn resident_bytes(&self) -> u64 {
        self.granted_bytes.saturating_sub(self.released_bytes)
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// End-to-end virtual time of the whole run (all units of work).
    pub elapsed: SimDuration,
    /// Wake events the engine dispatched (run-size indicator).
    pub events: u64,
    /// Always 0. Counted the admission scheduler's deferred hand-offs
    /// until the pooled executor was removed (PR 22); the field survives
    /// only because `dcbench/src/workloads.rs` reads it and could not be
    /// edited by that PR. It goes when a `benchmark` PR retires
    /// `datacutter.deferred_wakes_per_frame`.
    pub deferred_wakes: u64,
    /// Virtual times at which each inter-UOW barrier released (length =
    /// `uows - 1`; empty for single-UOW runs).
    pub uow_boundaries: Vec<hetsim::SimTime>,
    /// Per-copy metrics, in spawn order (cumulative across UOWs).
    pub copies: Vec<CopyReport>,
    /// Per-stream metrics (cumulative across UOWs).
    pub streams: Vec<StreamReport>,
    /// Fault-injection outcome (defaulted for fault-free runs).
    pub faults: FaultReport,
    /// Out-of-core outcome (all zeros when no memory budget was set).
    pub ooc: OocReport,
}

impl RunReport {
    /// Per-UOW elapsed times, derived from the barrier boundaries.
    pub fn uow_elapsed(&self) -> Vec<SimDuration> {
        let mut out = Vec::with_capacity(self.uow_boundaries.len() + 1);
        let mut prev = hetsim::SimTime::ZERO;
        for &b in &self.uow_boundaries {
            out.push(b - prev);
            prev = b;
        }
        out.push((hetsim::SimTime::ZERO + self.elapsed) - prev);
        out
    }

    /// Copies of filter `f`.
    pub fn copies_of(&self, f: FilterId) -> Vec<&CopyReport> {
        self.copies.iter().filter(|c| c.filter == f).collect()
    }

    /// Sum of reference-speed work charged by copies of `f` — the
    /// "processing time of the filter" in the paper's Table 2 sense.
    pub fn filter_work(&self, f: FilterId) -> SimDuration {
        self.copies_of(f)
            .iter()
            .map(|c| c.counters.work)
            .fold(SimDuration::ZERO, |a, b| a + b)
    }

    /// Stream report by id.
    pub fn stream(&self, s: StreamId) -> &StreamReport {
        &self.streams[s.0 as usize]
    }

    /// Average buffers received per copy set, grouped by the host classes
    /// in `classes` (host → class index). Regenerates the paper's Table 3
    /// rows ("avg buffers received per Raster per node class").
    pub fn avg_buffers_by_class(
        &self,
        stream: StreamId,
        class_of_host: impl Fn(HostId) -> usize,
        n_classes: usize,
    ) -> Vec<f64> {
        let mut sums = vec![0.0f64; n_classes];
        let mut counts = vec![0u32; n_classes];
        for (host, c) in &self.streams[stream.0 as usize].copysets {
            let k = class_of_host(*host);
            sums[k] += c.buffers_received as f64;
            counts[k] += 1;
        }
        sums.iter()
            .zip(&counts)
            .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
            .collect()
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    fn report_with_two_classes() -> RunReport {
        RunReport {
            elapsed: SimDuration::from_secs(1),
            events: 10,
            deferred_wakes: 0,
            uow_boundaries: vec![],
            copies: vec![],
            streams: vec![StreamReport {
                stream: StreamId(0),
                stream_name: "e->ra".into(),
                copysets: vec![
                    (
                        HostId(0),
                        CopySetCounters {
                            buffers_received: 10,
                            bytes_received: 100,
                        },
                    ),
                    (
                        HostId(1),
                        CopySetCounters {
                            buffers_received: 30,
                            bytes_received: 300,
                        },
                    ),
                    (
                        HostId(2),
                        CopySetCounters {
                            buffers_received: 20,
                            bytes_received: 200,
                        },
                    ),
                ],
            }],
            faults: FaultReport::default(),
            ooc: OocReport::default(),
        }
    }

    #[test]
    fn stream_totals() {
        let r = report_with_two_classes();
        assert_eq!(r.stream(StreamId(0)).total_buffers(), 60);
        assert_eq!(r.stream(StreamId(0)).total_bytes(), 600);
    }

    #[test]
    fn class_averages() {
        let r = report_with_two_classes();
        // Hosts 0,2 in class 0; host 1 in class 1.
        let avg = r.avg_buffers_by_class(StreamId(0), |h| if h == HostId(1) { 1 } else { 0 }, 2);
        assert_eq!(avg, vec![15.0, 30.0]);
    }

    #[test]
    fn empty_class_is_zero() {
        let r = report_with_two_classes();
        let avg = r.avg_buffers_by_class(StreamId(0), |_| 0, 2);
        assert_eq!(avg[1], 0.0);
    }
}
